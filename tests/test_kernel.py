"""The shared sparse-polynomial kernel: canonical form, powers, Euclid."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import random_hbar_poly, random_poly_lambda, random_weyl, repeated_power
from weylmin.classical import UVPoly, classical_limit
from weylmin.holomorphic import PolyLambda, RatLambda, pl_gcd
from weylmin.scalars import (
    GaussRational,
    HbarPoly,
    HbarRat,
    bidegree_order,
    canon,
    hp_exact_div,
)
from weylmin.weyl import LAM, ONE

# The values of st.fractions(-6, 6, max_denominator=4), drawn from a list:
# the list is several times cheaper to draw from, and 0 comes first to
# shrink towards.
rationals = st.sampled_from(
    sorted({Fraction(n, d) for d in range(1, 5) for n in range(-6 * d, 6 * d + 1)}, key=abs)
)
gauss = st.builds(GaussRational, rationals, rationals)
small_hbar_polys = st.builds(HbarPoly, st.lists(st.tuples(st.integers(0, 2), gauss), max_size=2))
nonzero_hbar_polys = small_hbar_polys.filter(lambda p: not p.is_zero())


def _with_content(terms, factors):
    """The polynomial sum c L^d times a product of h-polynomials, so the
    coefficients share an h-content (a power of h among others)."""
    content = math.prod(factors, start=HbarPoly.const(1))
    return PolyLambda((d, c * content) for d, c in terms)


# Polynomials in L over Q(i)[h], with a shared h-factor for the content
# gcds to find; Euclid over GaussRational is checked through HbarPoly in
# test_scalars.py.
pl_polys = st.builds(
    _with_content,
    st.lists(st.tuples(st.integers(0, 3), small_hbar_polys), max_size=3),
    st.lists(nonzero_hbar_polys, max_size=2),
)
nonzero_pl_polys = pl_polys.filter(lambda p: not p.is_zero())
with_hbar = nonzero_pl_polys.filter(lambda p: any(c.degree() > 0 for _, c in p.coeffs))


class TestCanon:
    def test_sums_drops_zeros_and_sorts(self):
        one, two = GaussRational(1), GaussRational(2)
        pairs = [(3, one), (0, two), (3, -one), (1, one), (0, two)]
        assert canon(pairs) == ((0, GaussRational(4)), (1, one))
        assert canon({2: one, 0: 1}, coerce=GaussRational.coerce) == ((0, one), (2, one))

    def test_bidegree_order(self):
        pairs = [((0, 2), GaussRational(1)), ((1, 0), GaussRational(2)), ((2, 0), GaussRational(3))]
        assert [kl for kl, _ in canon(pairs, bidegree_order)] == [(1, 0), (0, 2), (2, 0)]


class TestPower:
    @given(gauss.filter(lambda x: not x.is_zero()), st.integers(-6, 6))
    def test_gauss_rational(self, x, n):
        assert x**n == repeated_power(x, n, GaussRational(1))

    def test_weyl_element(self):
        rng = random.Random(70)
        for _ in range(8):
            x = random_weyl(rng, max_deg=2, terms=3)
            for n in range(6):
                assert x**n == repeated_power(x, n, ONE)

    def test_poly_lambda(self):
        rng = random.Random(71)
        for _ in range(10):
            x = random_poly_lambda(rng, 3, 3)
            for n in range(7):
                assert x**n == repeated_power(x, n, PolyLambda.const(1))

    def test_uv_poly(self):
        rng = random.Random(72)
        for _ in range(10):
            x = classical_limit(random_weyl(rng, max_deg=2, terms=3))
            for n in range(6):
                assert x**n == repeated_power(x, n, UVPoly({(0, 0): 1}))

    def test_hbar_poly(self):
        rng = random.Random(73)
        for _ in range(10):
            x = HbarPoly({d: rng.randint(-4, 4) for d in range(rng.randint(1, 3))})
            for n in range(6):
                assert x**n == repeated_power(x, n, HbarPoly.const(1))

    def test_square_is_one_product(self, monkeypatch):
        rng = random.Random(74)
        for x in (GaussRational(2, 3), HbarPoly({0: 1, 1: 2}), random_poly_lambda(rng, 3, 3),
                  random_weyl(rng, max_deg=2, terms=3), UVPoly({(1, 0): 1, (0, 1): 2})):
            calls = []
            mul = type(x)._mul
            monkeypatch.setattr(type(x), "_mul", lambda a, b: calls.append(1) or mul(a, b))
            assert x**2 == mul(x, x)
            assert len(calls) == 1, type(x).__name__
            assert x**1 == x and x**0 == type(x)._lift(1)
            monkeypatch.undo()

    def test_negative_power_needs_a_field(self):
        assert GaussRational(2) ** -2 == GaussRational(Fraction(1, 4))
        for x in (LAM, PolyLambda({1: 1}), UVPoly({(1, 0): 1}), HbarPoly({1: 1})):
            with pytest.raises(ValueError):
                x**-1


class TestPrimitivePRS:
    @settings(max_examples=60, deadline=None)
    @given(pl_polys, nonzero_pl_polys)
    def test_pseudo_divmod(self, a, b):
        # every step of the ring division is exact after scaling by lc(b)^e
        sa = a.scale(b.leading() ** max(a.degree() - b.degree() + 1, 0))
        q, r = sa.divmod_poly(b)
        assert sa == q * b + r
        assert r.degree() < b.degree()

    @settings(max_examples=30, deadline=None)
    @given(nonzero_pl_polys, nonzero_pl_polys)
    def test_gcd_divides_both(self, a, b):
        g = pl_gcd(a, b)
        assert g.leading().leading() == GaussRational(1)
        for p in (a, b):
            assert hp_exact_div(p, g) * g == p

    @settings(max_examples=30, deadline=None)
    @given(nonzero_pl_polys, nonzero_pl_polys)
    def test_cofactors_coprime(self, a, b):
        g = pl_gcd(a, b)
        assert pl_gcd(hp_exact_div(a, g), hp_exact_div(b, g)).degree() == 0

    @settings(max_examples=30, deadline=None)
    @given(pl_polys, nonzero_pl_polys, with_hbar)
    def test_common_factor_cancels(self, n, d, m):
        assert RatLambda(n * m, d * m) == RatLambda(n, d)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            PolyLambda({1: 1}).divmod_poly(PolyLambda())

    def test_inexact_step_rejected(self):
        with pytest.raises(ValueError, match="inexact"):
            PolyLambda({1: 1}).divmod_poly(PolyLambda({1: HbarPoly({1: 1})}))


def _cross_equal(a, b) -> bool:
    """a == b in the field of fractions, by cross-multiplication."""
    return a.num * b.den == b.num * a.den


# Each field of fractions with a seeded generator of its ring's elements.
# The L-degree stays at 1: sums and products of quotients of higher degree
# with h in their coefficients can take seconds each in pl_gcd.
QUOTIENTS = {
    "HbarRat": (HbarRat, lambda rng: random_hbar_poly(rng, 2, 2)),
    "RatLambda": (RatLambda, lambda rng: random_poly_lambda(rng, 1, 2, max_hbar=1)),
}


class TestQuotient:
    """HbarRat and RatLambda share one field of fractions; its canonical form
    and field laws are checked against cross-multiplication."""

    @pytest.mark.parametrize("name", sorted(QUOTIENTS))
    def test_field_laws(self, name):
        cls, ring = QUOTIENTS[name]
        rng = random.Random(75)

        def nonzero():
            x = ring(rng)
            return x if not x.is_zero() else nonzero()

        def quotient():
            return cls(ring(rng), nonzero())

        zero, one = cls(0), cls(1)
        for _ in range(12):
            n, d, m = ring(rng), nonzero(), nonzero()
            q, q2 = cls(n, d), cls(n * m, d * m)
            assert q2 == q and _cross_equal(q2, q) and _cross_equal(q, cls._lift(n) / d)
            x, y, z = quotient(), quotient(), quotient()
            if not x.is_zero():
                assert x * x.inverse() == one
            assert x + (-x) == zero and (x + (-x)).is_zero()
            lhs, rhs = (x + y) * z, x * z + y * z
            assert lhs == rhs and _cross_equal(lhs, rhs)

    @pytest.mark.parametrize("name", sorted(QUOTIENTS))
    def test_messages_name_the_class(self, name):
        cls, _ = QUOTIENTS[name]
        with pytest.raises(ZeroDivisionError, match=f"^zero denominator in {name}$"):
            cls(1, 0)
        with pytest.raises(ZeroDivisionError, match=f"^inverse of zero {name}$"):
            cls(0).inverse()
        with pytest.raises(ValueError, match=f"^{name} value is not a polynomial$"):
            cls(1, cls.POLY({1: 1})).as_poly()
