"""The flat-form reader's integer records and the writers that read them,
against the Fraction-based reader and writers kept in ``oracles``."""

import json
import pathlib
import random
from fractions import Fraction
from math import gcd

import pytest

from oracles import (
    as_fractions,
    grouped_fractions,
    poly_lambda_text_fractions,
    poly_to_obj_fractions,
    random_poly_lambda,
    random_rat,
    random_weyl,
    rat_text_fractions,
    weyl_latex_fractions,
    weyl_text_fractions,
    weyl_to_obj_fractions,
)
from weylmin.holomorphic import PolyLambda, RatLambda
from weylmin.render import (
    poly_lambda_text,
    rat_text,
    surface_latex,
    surface_text,
    weyl_latex,
    weyl_text,
)
from weylmin.scalars import GR_I, HP_HBAR, grouped
from weylmin.serialize import (
    dumps_canonical,
    poly_to_obj,
    surface_from_obj,
    surface_to_obj,
    weyl_to_obj,
)
from weylmin.weyl import HBAR, LAM, LAM_STAR, U, V, ZERO, coefficients, uv_coefficients

GOLDENS = pathlib.Path(__file__).parent / "goldens"
SURFACES = ("enneper", "enneper2", "pair_r4", "quartic")


def weyl_cases():
    """Seeded elements with negative parts, zero real or imaginary parts,
    denominator 1 and h-degree up to 3."""
    rng = random.Random(2101)
    yield ZERO
    yield U * V - V * U  # i h: a zero real part
    yield LAM.scale(-3) + LAM_STAR.scale(GR_I) + HBAR * HBAR * HBAR  # den 1, h^3
    for _ in range(40):
        x = random_weyl(rng, max_deg=5, terms=5, max_hbar=3)
        yield x
        yield x.scale(x.den)  # den 1
        yield x.real_part()  # hermitian: real and imaginary parts cancel in pairs
        yield x.scale(GR_I)


def poly_cases():
    rng = random.Random(2102)
    for _ in range(30):
        p = random_poly_lambda(rng, max_deg=4, terms=4, max_hbar=3)
        yield p
        yield p.scale(p.den)


def check_records(table):
    """Integer records in lowest terms with positive denominators, a zero
    part as (0, 1); returns which of the required cases the table shows."""
    seen = set()
    for c in table.values():
        for rec in c:
            assert all(type(v) is int for v in rec)
            d, a, p, b, q = rec
            assert p > 0 and q > 0 and gcd(a, p) == 1 and gcd(b, q) == 1
            assert (a or b) and (a or p == 1) and (b or q == 1)
            seen.update(name for name, hit in (("negative", a < 0 or b < 0), ("zero re", not a),
                                               ("zero im", not b), (f"h^{d}", True)) if hit)
    return seen


class TestIntegerReader:
    def test_records_against_fraction_reader(self):
        seen = set()
        for x in weyl_cases():
            got = coefficients(x)
            assert as_fractions(got) == grouped_fractions(x.rows, x.den, 2)
            assert list(as_fractions(got)) == list(grouped_fractions(x.rows, x.den, 2))
            seen |= check_records(got)
            if x.den == 1 and x.rows:
                seen.add("den 1")
            seen |= check_records(uv_coefficients(x))
        for p in poly_cases():
            got = grouped(p.rows, p.den, 1)
            assert as_fractions(got) == grouped_fractions(p.rows, p.den, 1)
            seen |= check_records(got)
        assert {"negative", "zero re", "zero im", "den 1", "h^3"} <= seen

    def test_writers_against_fraction_writers(self):
        for x in weyl_cases():
            assert weyl_to_obj(x) == weyl_to_obj_fractions(x)
            assert weyl_text(x) == weyl_text_fractions(x)
            assert weyl_latex(x) == weyl_latex_fractions(x)
        for p in poly_cases():
            assert poly_to_obj(p) == poly_to_obj_fractions(p)
            assert poly_lambda_text(p) == poly_lambda_text_fractions(p)
        rng = random.Random(2103)
        rats = [random_rat(rng) for _ in range(20)]
        rats += [RatLambda(p, PolyLambda({0: -HP_HBAR, 1: 3})) for p in list(poly_cases())[:6]]
        for r in rats:
            assert rat_text(r) == rat_text_fractions(r)


def refuse(cls, *args, **kwargs):
    raise AssertionError("a writer constructed a Fraction")


@pytest.mark.parametrize("stem", SURFACES)
def test_writers_construct_no_fraction(stem, monkeypatch):
    # Reading the golden builds Fractions, so it comes before the patch.  The
    # classical limit is exempt: its result is Fractions by contract.
    s = surface_from_obj(json.loads((GOLDENS / f"{stem}.json").read_text()))
    want = {ext: (GOLDENS / f"{stem}.{ext}").read_text() for ext in ("json", "txt", "tex")}
    monkeypatch.setattr(Fraction, "__new__", refuse)
    with pytest.raises(AssertionError):
        Fraction(1, 2)
    obj = surface_to_obj(s)
    assert [weyl_to_obj(c) for c in s.components] == obj["components"]
    assert dumps_canonical(obj) == want["json"]
    assert surface_text(s) == want["txt"]
    assert surface_latex(s) == want["tex"]
