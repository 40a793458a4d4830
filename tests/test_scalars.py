"""Scalar layer: Gaussian rationals and polynomials/fractions in h."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from oracles import FractionGauss
from weylmin.scalars import (
    GR_I,
    GR_ONE,
    GR_ZERO,
    GaussRational,
    HbarPoly,
    HbarRat,
    hp_exact_div,
    hp_gcd,
)

# The values of st.fractions(-30, 30, max_denominator=12), drawn from a list:
# the list is several times cheaper to draw from, and 0 comes first to
# shrink towards.
rationals = st.sampled_from(
    sorted({Fraction(n, d) for d in range(1, 13) for n in range(-30 * d, 30 * d + 1)}, key=abs)
)
gauss = st.builds(GaussRational, rationals, rationals)
gauss_nonzero = gauss.filter(lambda g: not g.is_zero())


class TestGaussRational:
    def test_basics(self):
        a = GaussRational(Fraction(1, 2), Fraction(-3, 4))
        assert a.re == Fraction(1, 2) and a.im == Fraction(-3, 4)
        assert complex(a) == 0.5 - 0.75j
        assert str(GR_I) == "1*i"
        assert str(a) == "(1/2 - 3/4*i)"
        assert GaussRational(2) + GaussRational(0, 3) == GaussRational(2, 3)

    @given(gauss, gauss, gauss)
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + GR_ZERO == a
        assert a * GR_ONE == a
        assert a - a == GR_ZERO

    @given(gauss_nonzero)
    def test_field_inverse(self, a):
        assert a * a.inverse() == GR_ONE
        assert a**-1 == a.inverse()

    @given(gauss, gauss)
    def test_conjugation(self, a, b):
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()
        assert a.conjugate().conjugate() == a
        norm = a * a.conjugate()
        assert norm.im == 0 and norm.re >= 0

    def test_i_squares_to_minus_one(self):
        assert GR_I * GR_I == GaussRational(-1)

    def test_coerce(self):
        assert GaussRational.coerce(Fraction(2, 3)) == GaussRational(Fraction(2, 3))
        assert GaussRational.coerce(5) == GaussRational(5)
        with pytest.raises(TypeError):
            GaussRational.coerce(1.5)

    def test_foreign_operand_is_rejected(self):
        assert GaussRational(1).__add__("x") is NotImplemented


def _same(x, fx) -> bool:
    """A GaussRational and a FractionGauss of the same value."""
    return type(x) is GaussRational and (x.re, x.im) == (fx.re, fx.im)


class TestAgainstFractionGauss:
    """GaussRational, one flat row of Gaussian-integer numerators over a
    denominator, against the Fraction-pair form ``oracles.FractionGauss``."""

    @given(rationals, rationals, rationals, rationals)
    def test_arithmetic(self, ar, ai, br, bi):
        a, b = GaussRational(ar, ai), GaussRational(br, bi)
        fa, fb = FractionGauss(ar, ai), FractionGauss(br, bi)
        assert _same(a + b, fa + fb) and _same(a - b, fa - fb) and _same(a * b, fa * fb)
        assert _same(-a, -fa) and _same(a.conjugate(), fa.conjugate())
        assert _same(a * br, fa * br) and _same(ar - b, ar - fb) and _same(a + 3, fa + 3)
        if b.is_zero():
            for f in (lambda: a / b, b.inverse, lambda: fa / fb, fb.inverse):
                with pytest.raises(ZeroDivisionError):
                    f()
        else:
            assert _same(a / b, fa / fb) and _same(b.inverse(), fb.inverse())
            assert _same(2 / b, 2 / fb) and _same(b**-2, fb**-2)
        assert str(a) == str(fa) and complex(a) == complex(fa)
        assert (a == b) == (fa == fb) and hash(a) == hash(fa) == hash((ar, ai))

    def test_one_row_sum(self):
        # seeded pairs, shared and coprime denominators, sums that cancel in
        # one part or both, and zero on either side
        rng = random.Random(2104)
        pairs = [((0, 0), (0, 0)), ((0, 0), (Fraction(3, 7), -2)), ((Fraction(-5, 6), 0), (0, 0)),
                 ((Fraction(3, 7), Fraction(-2, 5)), (Fraction(5, 9), 4))]
        for _ in range(200):
            a = tuple(Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 6, 12))) for _ in "ab")
            b = tuple(Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 6, 12))) for _ in "ab")
            pairs += [(a, b), (a, (-a[0], -a[1])), (a, (-a[0], b[1])), (a, (b[0], -a[1]))]
        for a, b in pairs:
            got = GaussRational(*a) + GaussRational(*b)
            assert _same(got, FractionGauss(*a) + FractionGauss(*b))
            assert got == GaussRational(a[0] + b[0], a[1] + b[1])
            assert math.gcd(got.den, *(got.rows[0] if got.rows else ())) == 1

    @given(st.one_of(st.integers(-10**30, 10**30), rationals))
    def test_coerce(self, x):
        assert _same(GaussRational.coerce(x), FractionGauss.coerce(x))
        assert _same(GaussRational(x, x), FractionGauss(x, x))
        assert GaussRational.coerce(x) == GaussRational(x) and GaussRational.coerce(x).re == x

    def test_floats_are_refused(self):
        for args in ((1.5,), (0, 0.5), (Fraction(1, 2), 1.0)):
            for cls in (GaussRational, FractionGauss):
                with pytest.raises(TypeError):
                    cls(*args)


hbar_polys = st.builds(
    lambda items: HbarPoly(items),
    st.lists(st.tuples(st.integers(0, 4), gauss), max_size=4),
)


class TestHbarPoly:
    def test_str_bytes(self):
        half = GaussRational(Fraction(1, 2), Fraction(-3, 4))
        assert str(HbarPoly()) == "0"
        assert str(HbarPoly({0: Fraction(-2, 5)})) == "-2/5"
        assert str(HbarPoly({1: 1})) == "1*h"
        assert str(HbarPoly({2: half})) == "(1/2 - 3/4*i)*h^2"
        assert str(HbarPoly({0: 3, 1: GR_I, 2: half, 5: -1})) == "3 + 1*i*h + (1/2 - 3/4*i)*h^2 + -1*h^5"

    def test_canonical_form(self):
        p = HbarPoly([(2, GaussRational(1)), (0, GaussRational(3)), (2, GaussRational(-1))])
        assert p == HbarPoly({0: GaussRational(3)})
        assert p.degree() == 0
        assert HbarPoly().is_zero()

    @given(hbar_polys, hbar_polys, hbar_polys)
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)

    @given(hbar_polys, hbar_polys)
    def test_evaluation_is_a_homomorphism(self, a, b):
        x = 0.73
        assert abs((a * b).evaluate(x) - a.evaluate(x) * b.evaluate(x)) < 1e-9
        assert abs((a + b).evaluate(x) - (a.evaluate(x) + b.evaluate(x))) < 1e-9

    def test_shift(self):
        p = HbarPoly({1: GaussRational(2), 3: GaussRational(1)})
        assert p.shift(2) == HbarPoly({3: GaussRational(2), 5: GaussRational(1)})
        assert p.shift(-1) == HbarPoly({0: GaussRational(2), 2: GaussRational(1)})
        with pytest.raises(ValueError):
            HbarPoly({0: GaussRational(1)}).shift(-1)

    @given(hbar_polys, hbar_polys.filter(lambda p: not p.is_zero()))
    def test_divmod(self, a, b):
        q, r = a.divmod_poly(b)
        assert q * b + r == a
        assert r.is_zero() or r.degree() < b.degree()

    @given(hbar_polys.filter(lambda p: not p.is_zero()),
           hbar_polys.filter(lambda p: not p.is_zero()))
    def test_gcd_divides_both(self, a, b):
        g = hp_gcd(a, b)
        for p in (a, b):
            q = hp_exact_div(p, g)
            assert q * g == p

    def test_conjugate(self):
        p = HbarPoly({1: GaussRational(0, 2)})
        assert p.conjugate() == HbarPoly({1: GaussRational(0, -2)})


class TestHbarRat:
    def test_str_bytes(self):
        h = HbarPoly({1: 1})
        assert str(HbarRat(h * h - 1, h - 1)) == "1 + 1*h"
        assert str(HbarRat(HbarPoly({1: 2}), 4)) == "1/2*h"
        assert str(HbarRat(0, h)) == "0"
        assert str(HbarRat(1, h)) == "(1)/(1*h)"
        assert str(HbarRat(h, HbarPoly({0: 2, 1: 2}))) == "(1/2*h)/(1 + 1*h)"
        assert str(HbarRat(GaussRational(1, 1), HbarPoly({0: 3, 2: GaussRational(0, 2)}))) == (
            "((1/2 - 1/2*i))/(-3/2*i + 1*h^2)"
        )

    def test_reduction(self):
        h = HbarPoly({1: GaussRational(1)})
        r = HbarRat(h * h, h)
        assert r == HbarRat(h)
        assert r.is_polynomial()

    def test_monic_denominator(self):
        two_h = HbarPoly({1: GaussRational(2)})
        r = HbarRat(HbarPoly({0: GaussRational(1)}), two_h)
        assert r.den.leading() == GR_ONE

    def test_inverse(self):
        h = HbarPoly({1: GaussRational(1)})
        r = HbarRat(HbarPoly({0: GaussRational(3)}), h)
        assert r * r.inverse() == HbarRat(HbarPoly({0: GaussRational(1)}))

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            HbarRat(HbarPoly({0: GaussRational(1)}), HbarPoly())
