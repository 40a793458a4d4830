"""Canonical JSON interchange format."""

import json
import random
from fractions import Fraction

import pytest

from oracles import random_rat, random_weyl
from weylmin.parse import parse_rat
from weylmin.serialize import (
    SCHEMA,
    DeserializeError,
    dumps_canonical,
    fock_report_to_obj,
    poly_from_obj,
    poly_to_obj,
    rat_from_obj,
    rat_to_obj,
    report_to_obj,
    surface_from_obj,
    surface_to_obj,
    weyl_from_obj,
    weyl_to_obj,
)
from weylmin.surfaces import Surface, conjugate_surface, enneper, surface_from_pair, verify_minimal
from weylmin.weyl import HBAR, LAM, U, V


class TestElementObjects:
    def test_record_shape(self):
        # (-3/2) h U = (-3/4) h (L + Ls)
        obj = weyl_to_obj(HBAR.scale(Fraction(-3, 2)) * U)
        coeff = [{"hbar_deg": 1, "re_num": -3, "re_den": 4, "im_num": 0, "im_den": 1}]
        assert obj == [
            {"k": 0, "l": 1, "coeff": coeff},
            {"k": 1, "l": 0, "coeff": coeff},
        ]

    def test_ordering_is_canonical(self):
        obj = weyl_to_obj(LAM**2 + U + LAM)
        keys = [(rec["k"] + rec["l"], rec["k"]) for rec in obj]
        assert keys == sorted(keys)

    def test_round_trip_random(self):
        rng = random.Random(70)
        for _ in range(40):
            a = random_weyl(rng, max_deg=5, terms=5, max_hbar=2)
            assert weyl_from_obj(weyl_to_obj(a)) == a

    def test_bad_input(self):
        with pytest.raises(DeserializeError):
            weyl_from_obj([{"k": 0}])
        with pytest.raises(DeserializeError):
            weyl_from_obj([{"k": 0, "l": 0, "coeff": [{"hbar_deg": 0, "re_num": 1}]}])


class TestRatObjects:
    def test_round_trip(self):
        rng = random.Random(71)
        for _ in range(25):
            r = random_rat(rng)
            assert rat_from_obj(rat_to_obj(r)) == r
        p = parse_rat("1+2*L^3").as_poly()
        assert poly_from_obj(poly_to_obj(p)) == p

    def test_zero_denominator_rejected(self):
        obj = rat_to_obj(parse_rat("1/L"))
        obj["den"] = []
        with pytest.raises(DeserializeError, match="zero denominator"):
            rat_from_obj(obj)


class TestSurfaceDocuments:
    def test_schema_and_kind(self):
        obj = surface_to_obj(enneper(1))
        assert obj["schema"] == SCHEMA == "weylmin/1"
        assert obj["kind"] == "surface"
        assert obj["n"] == 3
        assert len(obj["components"]) == 3
        assert obj["provenance"]["kind"] == "fg"

    def test_round_trip_every_kind(self):
        surfaces = [
            enneper(2),
            surface_from_pair(
                parse_rat("L").as_poly(), parse_rat("L^2").as_poly()
            ),
            conjugate_surface(enneper(1)),
        ]
        for s in surfaces:
            s2 = surface_from_obj(json.loads(dumps_canonical(surface_to_obj(s))))
            assert s2.components == s.components
            assert s2.offsets == s.offsets
            assert s2.provenance == s.provenance

    def test_offsets_preserved(self):
        s = enneper(1, [Fraction(1, 3), 0, -2])
        s2 = surface_from_obj(surface_to_obj(s))
        assert s2.offsets == (Fraction(1, 3), Fraction(0), Fraction(-2))

    def test_dumps_deterministic(self):
        a = dumps_canonical(surface_to_obj(enneper(2)))
        b = dumps_canonical(surface_to_obj(enneper(2)))
        assert a == b
        assert a.endswith("\n")

    def test_dumps_is_strict_json(self):
        for x in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError):
                dumps_canonical({"x": x})

    def test_conjugate_is_reverifiable_after_round_trip(self):
        s = conjugate_surface(enneper(2))
        s2 = surface_from_obj(json.loads(dumps_canonical(surface_to_obj(s))))
        assert verify_minimal(s2).passes
        assert conjugate_surface(s2).components == conjugate_surface(s).components

    def test_rejects_wrong_schema(self):
        obj = surface_to_obj(enneper(1))
        obj["schema"] = "other/9"
        with pytest.raises(DeserializeError):
            surface_from_obj(obj)

    def test_rejects_wrong_kind(self):
        obj = surface_to_obj(enneper(1))
        obj["kind"] = "element"
        with pytest.raises(DeserializeError):
            surface_from_obj(obj)

    def test_rejects_component_count_mismatch(self):
        obj = surface_to_obj(enneper(1))
        obj["n"] = 4
        with pytest.raises(DeserializeError):
            surface_from_obj(obj)


class TestReports:
    def test_verification_report_obj(self):
        rep = verify_minimal(enneper(1))
        obj = report_to_obj(rep)
        assert obj["schema"] == SCHEMA
        assert obj["kind"] == "verification"
        assert obj["passes"] is True
        assert obj["witnesses"] == {}

    def test_failing_report_carries_witnesses(self):
        s = enneper(1)
        bad = Surface((s.components[0] + U * V, *s.components[1:]), s.offsets, s.provenance)
        obj = report_to_obj(verify_minimal(bad))
        assert obj["passes"] is False
        assert "hermitian:X1" in obj["witnesses"]
        for elem_obj in obj["witnesses"].values():
            assert weyl_from_obj(elem_obj) is not None

    def test_fock_report_obj(self):
        from weylmin.fock import FockConfig, residual_report

        obj = fock_report_to_obj(residual_report(FockConfig(dim=24, hbar=1.0)))
        assert obj["schema"] == SCHEMA
        assert obj["kind"] == "fock-residuals"
        assert set(obj["residuals"]) == {"X1", "X2", "X3", "phi_isotropy"}
