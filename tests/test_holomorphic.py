"""Rational functions of L: canonical forms, derivatives, exact primitives."""

import random
from fractions import Fraction

import pytest

from oracles import (
    phi_from_fg_products,
    random_gauss,
    random_poly_lambda,
    random_rat,
    rat_derivative_matches,
    rat_equal_crossmul,
    scale_by_lift,
)
from weylmin.holomorphic import (
    NotIntegrableError,
    PhiTriple,
    PolyLambda,
    RatLambda,
    fg_from_phi,
    isotropy_check,
    phi_from_fg,
    poly_real_part,
    poly_to_weyl,
    weyl_to_poly,
)
from weylmin.parse import parse_rat
from weylmin.scalars import GaussRational, HbarPoly
from weylmin.weyl import LAM, Direction


def R(text):
    return parse_rat(text)


class TestPolyLambda:
    def test_canonical(self):
        p = PolyLambda([(2, 1), (0, 3), (2, -1)])
        assert p == PolyLambda({0: 3})
        assert PolyLambda().is_zero()
        assert PolyLambda({3: 1}).degree() == 3

    def test_arithmetic(self):
        rng = random.Random(20)
        for _ in range(20):
            a = random_poly_lambda(rng, 5, 3)
            b = random_poly_lambda(rng, 5, 3)
            assert a * b == b * a
            assert (a + b) - b == a
        x = PolyLambda({1: 1})
        assert x**3 == PolyLambda({3: 1})

    def test_derivative(self):
        p = PolyLambda({3: 2, 1: 5, 0: 7})
        assert p.derivative() == PolyLambda({2: 6, 0: 5})

    def test_weyl_round_trip(self):
        p = PolyLambda({2: HbarPoly({1: GaussRational(3)}), 0: 1})
        w = poly_to_weyl(p)
        assert w.is_holomorphic()
        assert weyl_to_poly(w) == p
        with pytest.raises(ValueError):
            weyl_to_poly(LAM.star())


class TestRatLambdaCanonical:
    def test_gcd_reduction(self):
        assert R("(L^2-1)/(L-1)") == R("L+1")
        assert rat_equal_crossmul(R("(L^2-1)/(L-1)"), R("L+1"))

    def test_monic_denominator_and_hbar_clearing(self):
        r = R("L/(2*L-2)")
        # denominator is made monic over the coefficient field, and any
        # h content is cleared back into a polynomial shape
        assert r.den.leading() == HbarPoly({0: GaussRational(1)})
        s = R("L/h")
        assert not s.is_polynomial()
        assert R("(h*L)/h").is_polynomial()

    def test_is_polynomial_boundary(self):
        assert R("L^2+1").is_polynomial()
        assert not R("1/L").is_polynomial()
        assert R("(L^3+L)/L").is_polynomial()
        assert R("(L^3+L)/L").as_poly() == PolyLambda({2: 1, 0: 1})

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RatLambda(PolyLambda({0: 1}), PolyLambda())

    def test_field_axioms_random(self):
        rng = random.Random(21)
        for _ in range(15):
            a, b = random_rat(rng), random_rat(rng)
            assert a * b == b * a
            assert (a + b) - b == a
            if not b.is_zero():
                assert (a / b) * b == a
        r = R("(L+1)/(L-1)")
        assert r * r.inverse() == R("1")

    def test_polynomial_equals_cancelled_quotient(self):
        # a denominator of 1 skips normalization, so (n, 1) must already be
        # the canonical form of n q / q, h in q included
        rng = random.Random(12)
        for _ in range(12):
            n = random_poly_lambda(rng, 5, 3)
            q = PolyLambda({0: HbarPoly({0: random_gauss(rng), 1: random_gauss(rng)})})
            q = q + PolyLambda({rng.randint(1, 3): HbarPoly({rng.randint(0, 1): 1})})
            assert RatLambda(n) == RatLambda(n * q, q)
            assert RatLambda(n).den == PolyLambda.const(1)

    def test_constant_denominators_still_normalised(self):
        rng = random.Random(13)
        h1 = HbarPoly({0: 1, 1: 1})
        for _ in range(8):
            n = random_poly_lambda(rng, 4, 3)
            if n.is_zero():
                continue
            halved = RatLambda(n, 2)
            assert halved.den == PolyLambda.const(1)
            assert halved.num == n.scale(Fraction(1, 2))
            assert RatLambda(n.scale(h1), h1) == RatLambda(n)
            assert RatLambda(n.scale(h1), h1).den == PolyLambda.const(1)
            r = RatLambda(n, h1 * 2)
            assert (r.num, r.den) == (n.scale(Fraction(1, 2)), PolyLambda.const(h1))

    def test_scale(self, monkeypatch):
        # A Gaussian scalar maps the numerator's rows, with no product and no
        # new reduction; zero gives 0/1, and an h-polynomial reduces again.
        rng = random.Random(14)
        h1 = HbarPoly({0: 1, 1: 1})
        rats = [random_rat(rng) for _ in range(4)]
        rats += [RatLambda(1, h1), RatLambda(PolyLambda({1: 1}), h1)]
        mul, init = PolyLambda._mul, RatLambda.__init__
        calls = []
        for r in rats:
            for c in (1, -1, GaussRational(0, 1), Fraction(-3, 7), GaussRational(Fraction(1, 2), 3)):
                monkeypatch.setattr(PolyLambda, "_mul", lambda a, b: calls.append(1) or mul(a, b))
                monkeypatch.setattr(RatLambda, "__init__", lambda *a: calls.append(1) or init(*a))
                got = r.scale(c)
                assert not calls
                monkeypatch.undo()
                assert got == RatLambda(scale_by_lift(r.num, c), r.den)
                assert got.num == scale_by_lift(r.num, c) and got.den == r.den
            assert r.scale(0).num == PolyLambda() and r.scale(0).den == PolyLambda.const(1)
            assert r.scale(h1) == RatLambda(scale_by_lift(r.num, h1), r.den)
        assert RatLambda(1, h1).scale(h1).den == PolyLambda.const(1)


class TestDerivative:
    def test_quotient_rule_against_dict_oracle(self):
        rng = random.Random(22)
        for _ in range(25):
            r = random_rat(rng)
            assert rat_derivative_matches(r, r.derivative())

    def test_examples(self):
        assert R("L^3").derivative() == R("3*L^2")
        assert R("1/L").derivative() == R("-1/L^2")
        assert R("(L^2+h)/(L-1)").derivative() == R("(L^2-2*L-h)/(L^2-2*L+1)")


class TestPrimitive:
    def test_polynomial(self):
        p = R("3*L^2 + 2*L + 5")
        assert p.is_integrable()
        assert p.primitive() == R("L^3 + L^2 + 5*L")

    def test_polynomial_primitive_is_exact(self):
        # polynomials skip the pseudo-division by 1
        rng = random.Random(14)
        for _ in range(12):
            p = random_poly_lambda(rng, 7, 4)
            p = p + PolyLambda({rng.randint(0, 3): HbarPoly({1: random_gauss(rng)})})
            prim = RatLambda(p).primitive()
            assert prim.is_polynomial()
            assert rat_derivative_matches(prim, RatLambda(p))
            assert prim.num.coeff(0).is_zero()

    def test_normalization_at_zero(self):
        # constant of integration fixed by P(0) = 0 where that makes sense
        prim = R("L+1").primitive()
        assert prim == R("1/2*L^2 + L")

    def test_rational_no_log_part(self):
        r = R("-1/L^2")
        assert r.is_integrable()
        prim = r.primitive()
        assert prim == R("1/L")
        assert rat_derivative_matches(prim, r)

    def test_higher_multiplicity(self):
        r = R("1/(L-1)^3")
        prim = r.primitive()
        assert prim.derivative() == r
        assert not prim.is_polynomial()

    def test_round_trip_on_random_derivatives(self):
        # integrating an exact derivative must recover it up to a constant
        rng = random.Random(23)
        for _ in range(20):
            r = random_rat(rng, num_deg=3, den_deg=2)
            dr = r.derivative()
            assert dr.is_integrable()
            prim = dr.primitive()
            assert (prim - r).derivative().is_zero()

    def test_simple_pole_rejected(self):
        for text in ("1/L", "1/(L-1)", "(2*L)/(L^2-1)", "(L^2+1)/(L^3+L)"):
            r = R(text)
            assert not r.is_integrable()
            with pytest.raises(NotIntegrableError):
                r.primitive()

    def test_hidden_residue_mix(self):
        # rational part plus a genuine log term: must still be rejected
        r = R("1/(L-1)^2") + R("1/(L-1)")
        with pytest.raises(NotIntegrableError):
            r.primitive()

    def test_residues_with_hbar_coefficients(self):
        r = R("h/(L-h)")
        assert not r.is_integrable()
        assert R("h/(L-h)^2").is_integrable()

    def test_error_names_only_poles_with_residue(self):
        # L + 1 is a pole of order 2 without residue; only L carries one
        with pytest.raises(NotIntegrableError, match=r"nonzero residues on \(L\)$"):
            R("1/L^2 + 1/(L+1)^2 + 1/L").primitive()

    def test_hbar_round_trip_at_multiplicity_six(self):
        r = R("(L^5+3*h)/(L^2+h)^6")
        dr = r.derivative()
        assert rat_derivative_matches(r, dr)
        assert dr.den == R("(L^2+h)^7").num
        assert dr.primitive() == r - R("3/h^5")


class TestWeierstrassData:
    def test_phi_from_fg_isotropy(self):
        rng = random.Random(24)
        for _ in range(10):
            f = random_rat(rng, 3, 1)
            g = random_rat(rng, 3, 1)
            phi = phi_from_fg(f, g)
            assert isotropy_check(phi)

    def test_phi_from_fg_matches_products(self):
        rng = random.Random(25)
        pairs = [(R("2"), R("L")), (R("(L+h)^2"), R("L/(1+h)")), (R("h*(L-1-h)^2"), R("(L+2)/(L-1-h)"))]
        pairs += [(random_poly_lambda(rng, 3, 3, max_hbar=1), random_poly_lambda(rng, 2, 2, max_hbar=1))
                  for _ in range(4)]
        pairs += [(random_rat(rng, 2, 1) / (1 + HbarPoly({1: 1})), random_rat(rng, 2, 1)) for _ in range(4)]
        for f, g in pairs:
            phi = phi_from_fg(f, g)
            assert isinstance(phi, PhiTriple) and phi == phi_from_fg_products(f, g)

    def test_phi_from_fg_builds_fewer_quotients(self, monkeypatch):
        calls = []
        init = RatLambda.__init__
        monkeypatch.setattr(RatLambda, "__init__", lambda *args: calls.append(1) or init(*args))
        # Sums and products reduce by cross gcds and build no quotient
        # through __init__, of polynomials or not, so on both data only the
        # products route's lifts of 1/2 and i/2 call it.
        for f, g, counts in ((R("2"), R("L"), (0, 2)),
                             (R("(L+h)^2/(L-1)"), R("L/(1+h)"), (0, 2))):
            calls.clear()
            phi_from_fg(f, g)
            scaled = len(calls)
            calls.clear()
            phi_from_fg_products(f, g)
            assert (scaled, len(calls)) == counts

    def test_fg_round_trip(self):
        f, g = R("2"), R("L")
        phi = phi_from_fg(f, g)
        f2, g2 = fg_from_phi(phi)
        assert f2 == f and g2 == g

    def test_fg_from_phi_rejects_non_isotropic(self):
        bad = PhiTriple.of(R("1"), R("1"), R("1"))
        with pytest.raises(ValueError):
            fg_from_phi(bad)

    def test_enneper_data(self):
        phi = phi_from_fg(R("2"), R("L"))
        p1, p2, p3 = phi
        assert p1 == R("1-L^2")
        assert p2 == R("i*(1+L^2)")
        assert p3 == R("2*L")


class TestWeylBridge:
    def test_real_part_row_map_against_element_real_part(self):
        # poly_real_part keeps the element's order without a sort; the
        # general real_part and imag_part, which sort, are its oracle.
        # Seeded polynomials with h-degree up to 3 over den 1 and den > 1,
        # their constant terms replaced by a purely real, a purely
        # imaginary, a general or a zero h-polynomial, and the zero one.
        rng = random.Random(83)
        constants = {
            "real": HbarPoly({0: Fraction(3, 2), 2: -4}),
            "imaginary": HbarPoly({1: GaussRational(0, Fraction(-5, 3))}),
            "general": HbarPoly({0: GaussRational(2, 7), 3: GaussRational(-1, Fraction(1, 2))}),
            "zero": HbarPoly(),
        }
        minus_i = GaussRational(0, -1)
        seen = set()
        for n in range(48):
            p = random_poly_lambda(rng, 4, 3, max_hbar=3)
            kind = sorted(constants)[n % 4]
            p = PolyLambda([(k, c) for k, c in p.coeffs if k] + [(0, constants[kind])])
            if n % 3 == 0:
                p = p.scale(p.den)
            for q in (p, PolyLambda()) if n == 0 else (p,):
                seen |= {kind, ("den 1", q.den == 1),
                         ("h-degree", max((r[1] for r in q.rows), default=0))}
                assert poly_real_part(q) == poly_to_weyl(q).real_part()
                assert poly_real_part(q.scale(minus_i)) == poly_to_weyl(q).imag_part()
        assert seen >= {*constants, ("den 1", True), ("den 1", False), ("h-degree", 3)}

    def test_poly_to_weyl_derivation_compatibility(self):
        # d/dL on polynomials matches the holomorphic derivation on elements
        rng = random.Random(25)
        for _ in range(10):
            p = random_poly_lambda(rng, 5, 3)
            assert poly_to_weyl(p.derivative()) == poly_to_weyl(p).derive(Direction.D)
