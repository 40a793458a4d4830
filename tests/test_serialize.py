"""Canonical JSON interchange format."""

import json
import pathlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import dumps_stdlib, random_rat, random_weyl
from weylmin.cli import main
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


# -- the writer against the standard library's encoder -------------------------

GOLDENS = pathlib.Path(__file__).parent / "goldens"

_TEXT = st.text(st.one_of(st.sampled_from('"\\/\x00\x08\x1f\x7f\u2028\xe9\u20ac\U0001f600'),
                          st.characters()), max_size=6)
_FLOATS = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                    st.sampled_from([-0.0, 5e-324, 1e308]))
_INTS = st.one_of(st.integers(-(2**80), 2**80), st.sampled_from([2**64, -(2**64) - 1, 3**200]))
_SCALARS = st.one_of(st.none(), st.booleans(), _INTS, _FLOATS, _TEXT)
# The keys of one dict must sort together: text, or numbers and bools, or None.
_KEYS = st.sampled_from([_TEXT, st.one_of(_INTS, _FLOATS, st.booleans()), st.none()])
_DOCS = st.recursive(_SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=4),
    st.lists(inner, max_size=4).map(tuple),
    _KEYS.flatmap(lambda keys: st.dictionaries(keys, inner, max_size=4)),
), max_leaves=24)


class TestWriter:
    """``dumps_canonical`` writes what ``json.dumps(indent=2, sort_keys=True)`` writes."""

    @settings(max_examples=300, deadline=None)
    @given(_DOCS)
    def test_bytes_equal_the_stdlib(self, doc):
        assert dumps_canonical(doc) == dumps_stdlib(doc)

    @pytest.mark.parametrize("doc", [
        {}, [], (), {"a": {}, "b": [], "c": ()}, [[], {}], True, False, None, -0.0, 5e-324,
        1e308, 2**64, -(2**64), {"t": True, "f": False, "n": None, "i": 1},
        {1: "a", 2.5: "b", False: "c"}, {None: 0}, {-0.0: 1, 3: 2},
        {"\u00e9\"\\\n\x00": "\U0001f600"},
    ])
    def test_edge_values(self, doc):
        assert dumps_canonical(doc) == dumps_stdlib(doc)

    @pytest.mark.parametrize("x", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("wrap", [lambda x: x, lambda x: [1, x], lambda x: {"a": x},
                                      lambda x: {x: 1}])
    def test_non_finite_floats_raise_value_error(self, x, wrap):
        for dumps in (dumps_stdlib, dumps_canonical):
            with pytest.raises(ValueError):
                dumps(wrap(x))

    @pytest.mark.parametrize("doc", [Fraction(1, 2), {"a": Fraction(1, 2)}, [{1, 2}],
                                     {"a": 1, 2: 3}, {(1, 2): 0}, {"a": {None: 1, "b": 2}}])
    def test_unencodable_values_raise_type_error(self, doc):
        for dumps in (dumps_stdlib, dumps_canonical):
            with pytest.raises(TypeError):
                dumps(doc)

    @pytest.mark.parametrize("path", sorted(GOLDENS.glob("*.json")), ids=lambda p: p.name)
    def test_goldens(self, path):
        text = path.read_text()
        doc = json.loads(text)
        assert dumps_canonical(doc) == dumps_stdlib(doc) == text

    @pytest.mark.parametrize("argv", [
        ("surface", "from-fg", "--f", "1 - L^2", "--g", "h*L/3", "--offsets", "1/2,0,-3"),
        ("verify", "--in", "BROKEN"),
        ("eval", "--expr", "(2*L + i*Ls/3 + h)^3", "--fmt", "json"),
        ("fock", "catenoid", "--dim", "24"),
    ], ids=["surface", "verification", "element", "fock-residuals"])
    def test_every_document_kind(self, capsys, tmp_path, argv):
        broken = json.loads((GOLDENS / "enneper.json").read_text())
        broken["components"][0][0]["coeff"][0]["im_num"] = 5
        broken["provenance"]["primitives"] = []  # raw: the reader would refuse the mismatch
        (tmp_path / "broken.json").write_text(json.dumps(broken))
        main([str(tmp_path / "broken.json") if a == "BROKEN" else a for a in argv])
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert dumps_canonical(doc) == dumps_stdlib(doc) == out
        if doc["kind"] == "verification":
            assert doc["witnesses"]
