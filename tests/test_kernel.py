"""The shared sparse-polynomial kernel: canonical form, powers, the gcd."""

import itertools
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    bidegree_order,
    canon,
    derive_weighted,
    diff_accumulated,
    divmod_by_steps,
    euclid_gcd,
    laplace_accumulated,
    lift_by_constructor,
    nested,
    nested_gcd,
    nested_quotient,
    quotient_draws,
    random_hbar_poly,
    random_poly_lambda,
    random_weyl,
    recanonical,
    repeated_power,
    scale_by_lift,
    shift_hbar_accumulated,
    terms_classical_limit,
)
from weylmin import scalars
from weylmin.classical import UVPoly, classical_limit
from weylmin.holomorphic import PolyLambda, RatLambda
from weylmin.scalars import (
    GR_I,
    Flat,
    GaussRational,
    HbarPoly,
    HbarRat,
    Poly,
    hp_exact_div,
    hp_gcd,
)
from weylmin.weyl import LAM, ONE, Direction, WeylElement

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
# gcds to find.
pl_polys = st.builds(
    _with_content,
    st.lists(st.tuples(st.integers(0, 3), small_hbar_polys), max_size=3),
    st.lists(nonzero_hbar_polys, max_size=2),
)
nonzero_pl_polys = pl_polys.filter(lambda p: not p.is_zero())
with_hbar = nonzero_pl_polys.filter(lambda p: any(c.degree() > 0 for _, c in p.coeffs))


# HbarPoly pairs with a shared factor, so that their gcd is often not one.
hbar_gcd_pairs = st.builds(lambda a, b, m: (a * m, b * m), *[nonzero_hbar_polys] * 3)


def _last_leading(p):
    """The leading coefficient, taken down to a GaussRational."""
    while isinstance(p, Poly):
        p = p.leading()
    return p


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

    @staticmethod
    def _divides_both(a, b):
        g = hp_gcd(a, b)
        assert _last_leading(g) == GaussRational(1)
        for p in (a, b):
            assert hp_exact_div(p, g) * g == p

    @staticmethod
    def _cofactors_coprime(a, b):
        g = hp_gcd(a, b)
        assert hp_gcd(hp_exact_div(a, g), hp_exact_div(b, g)).degree() == 0

    @settings(max_examples=30, deadline=None)
    @given(nonzero_pl_polys, nonzero_pl_polys)
    def test_gcd_divides_both(self, a, b):
        self._divides_both(a, b)

    @settings(max_examples=30, deadline=None)
    @given(nonzero_pl_polys, nonzero_pl_polys)
    def test_cofactors_coprime(self, a, b):
        self._cofactors_coprime(a, b)

    @settings(max_examples=30, deadline=None)
    @given(hbar_gcd_pairs)
    def test_hbar_gcd_divides_both(self, pair):
        self._divides_both(*pair)

    @settings(max_examples=30, deadline=None)
    @given(hbar_gcd_pairs)
    def test_hbar_cofactors_coprime(self, pair):
        self._cofactors_coprime(*pair)

    @settings(max_examples=30, deadline=None)
    @given(pl_polys, nonzero_pl_polys, with_hbar)
    def test_common_factor_cancels(self, n, d, m):
        assert RatLambda(n * m, d * m) == RatLambda(n, d)

    def test_hbar_gcd_matches_euclid(self):
        rng = random.Random(76)
        for _ in range(40):
            a, b, m = (random_hbar_poly(rng, 3, 3) for _ in range(3))
            for x, y in ((a * m, b * m), (a, b), (a * m, m), (m, a * m)):
                assert hp_gcd(x, y) == euclid_gcd(x, y)

    def test_monic_over_a_ring(self):
        # the normal form over HbarPoly: the coefficients' content divided
        # out, and the leading coefficient's leading coefficient one
        h = HbarPoly({1: 1})
        assert PolyLambda({1: 2}).monic() == PolyLambda({1: 1})
        assert PolyLambda({1: h * 2, 0: 4}).monic() == PolyLambda({1: h, 0: 2})
        assert PolyLambda({2: h * h, 0: h * 3}).monic() == PolyLambda({2: h, 0: 3})
        assert PolyLambda().monic() == PolyLambda()

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            PolyLambda({1: 1}).divmod_poly(PolyLambda())

    def test_field_division_matches_steps(self):
        # Over GaussRational each division step is a row map; the oracle
        # builds each quotient term and subtracts it as a full product.
        # Seeded HbarPolys up to h-degree 4 with den > 1: inexact divisions,
        # exact ones (zero remainder), and a divisor of higher degree.
        rng = random.Random(78)
        kinds = set()
        for _ in range(30):
            a, b = random_hbar_poly(rng, 4, 4), random_hbar_poly(rng, 4, 3)
            if b.is_zero():
                continue
            for x, y in ((a, b), (a * b, b), (b, a * b), (a * b + a, b)):
                if y.is_zero():
                    continue
                q, r = x.divmod_poly(y)
                assert (q, r) == divmod_by_steps(x, y)
                kinds.add((r.is_zero(), q.is_zero(), max(x.den, y.den) > 1))
        assert {(True, False, True), (False, False, True), (False, True, True)} <= kinds

    def test_inexact_step_rejected(self):
        with pytest.raises(ValueError, match="inexact"):
            PolyLambda({1: 1}).divmod_poly(PolyLambda({1: HbarPoly({1: 1})}))


def _cross_equal(a, b) -> bool:
    """a == b in the field of fractions, by cross-multiplication."""
    return a.num * b.den == b.num * a.den


# Each field of fractions with a seeded generator of its ring's elements.
# The L-degree stays at 1 to keep the laws fast; test_lambda_degree_2
# checks one product at L-degree 2.
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
        zero, one = cls(0), cls(1)
        for n, d, m, xyz in itertools.islice(quotient_draws(ring, random.Random(75)), 12):
            q, q2 = cls(n, d), cls(n * m, d * m)
            assert q2 == q and _cross_equal(q2, q) and _cross_equal(q, cls._lift(n) / d)
            x, y, z = (cls(*nd) for nd in xyz)
            if not x.is_zero():
                assert x * x.inverse() == one
            assert x + (-x) == zero and (x + (-x)).is_zero()
            lhs, rhs = (x + y) * z, x * z + y * z
            assert lhs == rhs and _cross_equal(lhs, rhs)

    @pytest.mark.parametrize("name", sorted(QUOTIENTS))
    def test_results_are_reduced_pairs(self, name):
        # +, -, *, inverse and negation skip reductions they know to be
        # redundant, and + and * of two polynomials (denominator ONE) skip
        # it altogether; each result is the pair reduced from scratch, also
        # with polynomials on both sides, on one side, and the zero one
        cls, ring = QUOTIENTS[name]
        zero = cls(0)
        for *_, xyz in itertools.islice(quotient_draws(ring, random.Random(77)), 8):
            x, y, _ = (cls(*nd) for nd in xyz)
            px, py = cls(x.num), cls(y.num)
            pairs = [(x, y), (px, py), (px, y), (x, py), (zero, py), (px, zero), (zero, zero),
                     (px, -px)]
            for a, b in pairs:
                assert a + b == cls(a.num * b.den + b.num * a.den, a.den * b.den)
                assert a - b == cls(a.num * b.den - b.num * a.den, a.den * b.den)
                assert a * b == cls(a.num * b.num, a.den * b.den)
                assert -a == cls(-a.num, a.den)
                if not a.is_zero():
                    assert a.inverse() == cls(a.den, a.num)
                for q in (a + b, a - b, a * b, -a, *([] if a.is_zero() else [a.inverse()])):
                    assert q == cls(q.num, q.den)
            for q in (px + py, px - py, px * py, px * zero, px + (-px)):
                assert q.den == cls.ONE and q == cls(q.num)

    @pytest.mark.parametrize("name", sorted(QUOTIENTS))
    def test_cross_gcd_branches(self, name, monkeypatch):
        # Pairs that force each branch of the cross-gcd sum and product, each
        # result equal to the pair reduced from scratch.  The gcds that +
        # and * take show the branch: for a/b + c/d, g = gcd(b, d) and g2 =
        # gcd(t, g); for (a/b)(c/d), gcd(a, d) and gcd(c, b).
        cls, _ = QUOTIENTS[name]
        taken = []
        gcd = scalars.hp_gcd

        def recording(a, b):
            g = gcd(a, b)
            if sys._getframe(1).f_code.co_name in ("_add", "_mul"):
                taken.append(g.degree())
            return g

        monkeypatch.setattr(scalars, "hp_gcd", recording)
        x, hb = cls.POLY({1: 1}), HbarPoly({1: 1}) if cls is RatLambda else 0
        P, Q, R = x - 3 + hb * 2, x + 1 - GR_I, x - 2 + hb
        hc = cls.POLY.coerce(HbarPoly({0: 1, 1: 1}))
        q = cls(x + 1, P)
        pairs = [
            (cls(1, P), cls(1, Q)),                          # coprime denominators
            (cls(1, P), cls(2, P)),                          # equal, nothing cancels
            (cls(1, P * P), cls(x - 4 + hb * 2, P * P)),     # t = P: cancels in part
            (cls(x, P), cls(hb * 2 - 3, P)),                 # t = P: cancels in full
            (q, -q),                                         # x + (-x) over a shared pole
            (cls(1 - GR_I, P**2), cls(GR_I - 2, P**3)),     # repeated poles
            (cls(R, Q), cls(Q, P)), (cls(Q, P), cls(R, Q)),  # (L-r)/(L-s) * (L-s)/(L-t)
            (q, q.inverse()),                                # x * x^-1
            (cls(hc, x), cls(x, hc)),                        # h-contents
            (cls(x + hb), cls(1, P)), (cls(1, P), cls(x)),   # one polynomial operand
            (cls(0), cls(1, P)), (cls(1, P), cls(0)),        # zero
            (cls(x), cls(x + 1)),                            # two polynomials
        ]
        branches = set()
        for a, b in pairs:
            for op, want in (("+", cls(a.num * b.den + b.num * a.den, a.den * b.den)),
                             ("*", cls(a.num * b.num, a.den * b.den))):
                taken.clear()
                got = a + b if op == "+" else a * b
                assert got == want and got == cls(got.num, got.den)
                if not taken:
                    branches.add((op, "polynomials"))
                elif op == "+":
                    g, g2 = taken
                    branches.add(("+", "coprime" if not g else "no cancel" if not g2
                                  else "in part" if g2 < g else "in full"))
                else:
                    branches.update(("*", side) for side, g in zip(("a, d", "c, b"), taken) if g)
                    branches.add(("*", "cross" if any(taken) else "coprime"))
        assert branches == {("+", "polynomials"), ("+", "coprime"), ("+", "no cancel"),
                            ("+", "in part"), ("+", "in full"), ("*", "polynomials"),
                            ("*", "coprime"), ("*", "cross"), ("*", "a, d"), ("*", "c, b")}

    def test_lambda_degree_2(self):
        # The sixth draw at L-degree 2, with h in the coefficients: the
        # content gcds of this product stay fast only if every remainder is
        # normalised, else their coefficients grow for seconds.
        ring = lambda rng: random_poly_lambda(rng, 2, 2, max_hbar=1)
        *_, xyz = next(itertools.islice(quotient_draws(ring, random.Random(75)), 5, None))
        x, y, z = (RatLambda(*nd) for nd in xyz)
        lhs = (x + y) * z
        num = (x.num * y.den + y.num * x.den) * z.num
        assert lhs.num * (x.den * y.den * z.den) == num * lhs.den

    @pytest.mark.parametrize("name", sorted(QUOTIENTS))
    def test_messages_name_the_class(self, name):
        cls, _ = QUOTIENTS[name]
        with pytest.raises(ZeroDivisionError, match=f"^zero denominator in {name}$"):
            cls(1, 0)
        with pytest.raises(ZeroDivisionError, match=f"^inverse of zero {name}$"):
            cls(0).inverse()
        with pytest.raises(ValueError, match=f"^{name} value is not a polynomial$"):
            cls(1, cls.POLY({1: 1})).as_poly()


class TestAgainstNestedKernel:
    """The flat kernel against the nested one it replaced, kept in
    ``oracles.NestedPoly``: seeded HbarPoly and PolyLambda draws with h in
    the coefficients, non-unit denominators and a shared factor."""

    @staticmethod
    def pairs(seed):
        rng = random.Random(seed)
        for _ in range(6):
            m = random_hbar_poly(rng, 2, 2)
            a, b = random_hbar_poly(rng, 3, 3), random_hbar_poly(rng, 3, 3)
            yield a, b
            yield a * m, b * m
            m = random_poly_lambda(rng, 1, 2, max_hbar=1)
            a, b = (random_poly_lambda(rng, 2, 3, max_hbar=2) for _ in range(2))
            yield a, b
            yield a * m, b * m

    @pytest.mark.parametrize("seed", range(2))
    def test_ring_operations(self, seed):
        for a, b in self.pairs(300 + seed):
            na, nb = nested(a), nested(b)
            assert nested(a + b) == na + nb and nested(a - b) == na - nb
            assert nested(a * b) == na * nb and nested(-a) == -na

    @pytest.mark.parametrize("seed", range(2))
    def test_division_gcd_and_monic(self, seed):
        for a, b in self.pairs(310 + seed):
            if b.is_zero():
                continue
            if isinstance(b, PolyLambda):  # pseudo-division: every step exact
                a = a.scale(b.leading() ** max(a.degree() - b.degree() + 1, 0))
            na, nb = nested(a), nested(b)
            assert tuple(map(nested, a.divmod_poly(b))) == na.divmod_poly(nb)
            assert nested(hp_gcd(a, b)) == nested_gcd(na, nb)
            assert nested(a.monic()) == na.monic() and nested(b.monic()) == nb.monic()

    @pytest.mark.parametrize("seed", range(2))
    def test_quotient_canonical_form(self, seed):
        for a, b in self.pairs(320 + seed):
            if b.is_zero():
                continue
            q = (HbarRat if isinstance(a, HbarPoly) else RatLambda)(a, b)
            assert (nested(q.num), nested(q.den)) == nested_quotient(nested(a), nested(b))

    def test_classical_limit(self):
        rng = random.Random(330)
        for _ in range(20):
            a = random_weyl(rng, max_deg=4, terms=5, max_hbar=2)
            assert classical_limit(a).terms == terms_classical_limit(a)
            assert classical_limit(a * a).terms == terms_classical_limit(a * a)


# Gaussian scalars, each of the forms a constant can take, and one h-polynomial.
SCALARS = (0, 1, -1, True, GR_I, -GR_I, Fraction(-3, 7),
           GaussRational(Fraction(1, 2), Fraction(-2, 3)))
WITH_HBAR = HbarPoly({0: GaussRational(1, -2), 1: Fraction(3, 5)})


def _flat_values(seed):
    """Zero and seeded values of each flat type, with h in the coefficients
    where the type has it."""
    rng = random.Random(seed)
    out = [HbarPoly(), PolyLambda(), UVPoly(), WeylElement()]
    for _ in range(3):
        out += [random_hbar_poly(rng, 3, 3), random_poly_lambda(rng, 3, 3, max_hbar=2),
                classical_limit(random_weyl(rng, max_deg=3, terms=4)),
                random_weyl(rng, max_deg=3, terms=4, max_hbar=2)]
    return out


class TestScalarRowMap:
    """A Gaussian scalar scales and lifts as a row map; the result must be
    the lift-and-multiply route's (``oracles.scale_by_lift``), rows and
    denominator exactly."""

    @staticmethod
    def same(a, b):
        assert type(a) is type(b) and (a.rows, a.den) == (b.rows, b.den)
        assert all(type(v) is int for r in a.rows for v in r)

    @pytest.mark.parametrize("seed", range(2))
    def test_gaussian_scalars(self, seed, monkeypatch):
        values = _flat_values(340 + seed)
        assert sum(x.den > 1 for x in values) >= 10
        for x in values:
            cls = type(x)
            calls = []
            mul = cls._mul
            for c in SCALARS:
                lift, want = lift_by_constructor(cls, c), scale_by_lift(x, c)
                monkeypatch.setattr(cls, "_mul", lambda a, b: calls.append(1) or mul(a, b))
                self.same(x.scale(c), want)
                assert not calls, (cls.__name__, c)
                monkeypatch.undo()
                self.same(c * x, want)
                self.same(x + c, x._add(lift))
                self.same(x - c, x._add(-lift))
                self.same(cls.coerce(c), lift)

    @pytest.mark.parametrize("seed", range(2))
    def test_hbar_scalar_takes_the_product(self, seed, monkeypatch):
        for x in _flat_values(350 + seed):
            cls = type(x)
            if HbarPoly not in cls.LIFTS:
                continue
            calls = []
            mul = cls._mul
            want = scale_by_lift(x, WITH_HBAR)
            monkeypatch.setattr(cls, "_mul", lambda a, b: calls.append(1) or mul(a, b))
            self.same(x.scale(WITH_HBAR), want)
            assert len(calls) == 1
            monkeypatch.undo()
            self.same(WITH_HBAR * x, want)
            self.same(x + WITH_HBAR, x._add(lift_by_constructor(cls, WITH_HBAR)))


class TestDerivationRowMaps:
    """d, dbar, the Laplacian, the h-shift and the partial derivatives are
    row maps that keep the row order and skip the canonicaliser.  Each must
    equal its accumulator form in ``oracles`` (which ``_new`` sorts), rows
    and denominator exactly, and leave rows that ``_new`` would not change:
    a map that broke the order would fail here."""

    @staticmethod
    def same(got, want):
        assert type(got) is type(want) and (got.rows, got.den) == (want.rows, want.den)
        again = recanonical(got)
        assert (again.rows, again.den) == (got.rows, got.den)

    def shifts(self, x, shift):
        for j in (-2, -1, 0, 1, 2):
            try:
                want = shift_hbar_accumulated(x, j)
            except ValueError:
                with pytest.raises(ValueError, match="not divisible by the requested power of h"):
                    shift(x, j)
                continue
            self.same(shift(x, j), want)
        self.same(shift(shift(x, 2), -2), x)

    @pytest.mark.parametrize("seed", range(3))
    def test_against_the_accumulator_forms(self, seed):
        rng = random.Random(360 + seed)
        values = _flat_values(370 + seed) + [
            random_weyl(rng, max_deg=6, terms=6, max_hbar=2) for _ in range(4)]
        assert sum(x.den > 1 for x in values) >= 10
        for x in values:
            if isinstance(x, WeylElement):
                for d in Direction:
                    self.same(x.derive(d), derive_weighted(x, d))
                self.same(x.laplace(), laplace_accumulated(x))
                self.shifts(x, WeylElement.shift_hbar)
            elif isinstance(x, UVPoly):
                self.same(x.diff("u"), diff_accumulated(x, 0))
                self.same(x.diff("v"), diff_accumulated(x, 1))
            else:
                self.same(x.derivative(), diff_accumulated(x, 0))
                self.shifts(x, HbarPoly.shift if isinstance(x, HbarPoly) else PolyLambda._shift_hbar)

    def test_row_maps_never_canonicalise(self, monkeypatch):
        values = _flat_values(380)

        def store(*_):
            raise AssertionError("a row map went through the canonicaliser")

        monkeypatch.setattr(Flat, "_store", store)
        for x in values:
            if isinstance(x, WeylElement):
                x.derive(Direction.D), x.derive(Direction.DBAR), x.laplace()
                x.shift_hbar(1)
            elif isinstance(x, UVPoly):
                x.diff("u"), x.diff("v")
            else:
                x.derivative(), x._shift_hbar(1)
                if isinstance(x, HbarPoly):
                    x.shift(1)

    def test_unknown_direction_or_variable(self):
        x = random_weyl(random.Random(391), max_hbar=2)
        for bad in ("u", "d", None, 0):
            with pytest.raises(ValueError, match="unknown direction"):
                x.derive(bad)
        with pytest.raises(ValueError, match="variable must be 'u' or 'v'"):
            classical_limit(x).diff("w")
