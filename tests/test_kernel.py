"""The shared sparse-polynomial kernel: canonical form, powers, Euclid."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import random_poly_lambda, random_weyl, repeated_power
from weylmin.classical import UVPoly, classical_limit
from weylmin.holomorphic import PolyLambda, RatLambda, pl_gcd
from weylmin.scalars import (
    GaussRational,
    HbarPoly,
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
