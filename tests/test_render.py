"""Text and LaTeX rendering; round-trips with the parser."""

import itertools
import random
from fractions import Fraction

from oracles import (
    as_fractions,
    grouped,
    random_poly_lambda,
    random_rat,
    random_weyl,
    terms_uv_ordered,
    uv_word_normal_order,
)
from weylmin.parse import parse_rat, parse_weyl
from weylmin.render import (
    poly_lambda_text,
    rat_text,
    surface_latex,
    surface_text,
    weyl_latex,
    weyl_text,
)
from weylmin.scalars import GaussRational, HbarPoly
from weylmin.surfaces import enneper
from weylmin.weyl import HBAR, LAM, LAM_STAR, ONE, U, V, WeylElement, ZERO, from_uv, uv_coefficients


def uv_items(a):
    """``uv_coefficients`` with Fraction parts, for the oracles' ``grouped``."""
    return list(as_fractions(uv_coefficients(a)).items())


class TestWeylText:
    def test_examples(self):
        assert weyl_text(ZERO) == "0"
        assert weyl_text(ONE) == "1"
        assert weyl_text(-ONE) == "-1"
        assert weyl_text(LAM**2) == "L^2"
        assert weyl_text(LAM * LAM_STAR) == "L*Ls"
        assert weyl_text(HBAR.scale(-2) + LAM) == "-2*h + L"
        assert weyl_text(ONE.scale(Fraction(1, 2))) == "1/2"
        assert weyl_text(LAM.scale(GaussRational(0, -1))) == "-i*L"

    def test_round_trip_random(self):
        rng = random.Random(60)
        for _ in range(60):
            a = random_weyl(rng, max_deg=5, terms=5, max_hbar=2)
            assert parse_weyl(weyl_text(a)) == a

    def test_round_trip_goldens(self):
        for s in (enneper(1), enneper(2)):
            for c in s.components:
                assert parse_weyl(weyl_text(c)) == c


class TestUvOrdering:
    def test_reconstruction(self):
        rng = random.Random(61)
        for _ in range(30):
            a = random_weyl(rng, max_deg=4, terms=4)
            total = ZERO
            for (p, q), coeff in uv_items(a):
                for d, re, im in coeff:
                    total = total + (U**p * V**q).scale(HbarPoly.hbar(d, GaussRational(re, im)))
            assert total == a

    def test_against_per_term_reference(self):
        # non-integral coefficients, h-degree up to 2, cancelling rows
        rng = random.Random(62)
        for _ in range(30):
            a = random_weyl(rng, max_deg=5, terms=5, max_hbar=2)
            assert uv_items(a) == grouped(terms_uv_ordered(a))
        assert uv_items(ZERO) == grouped(terms_uv_ordered(ZERO)) == []
        assert uv_items(U * V - V * U) == grouped(terms_uv_ordered(U * V - V * U))

    def test_against_word_rewriter(self):
        # rendering V^2 U in UV order must match the single-swap oracle
        elem = from_uv("VVU")
        got = as_fractions(uv_coefficients(elem))
        want = uv_word_normal_order("VVU")
        assert got == dict(grouped(want.items()))
        # L^k Ls^l: expand (U + iV)^k (U - iV)^l into words, rewrite each
        for n in range(7):
            for k in range(n + 1):
                want = {}
                for letters in itertools.product("UV", repeat=n):
                    c = GaussRational(1)
                    for pos, ch in enumerate(letters):
                        if ch == "V":
                            c = c * GaussRational(0, 1 if pos < k else -1)
                    for pq, p in uv_word_normal_order(letters).items():
                        want[pq] = want.get(pq, HbarPoly()) + p.scale(c)
                want = {pq: p for pq, p in want.items() if not p.is_zero()}
                got = as_fractions(uv_coefficients(WeylElement.basis(k, n - k)))
                assert got == dict(grouped(want.items()))


class TestLatex:
    def test_examples(self):
        # LaTeX presents elements in the U,V-ordered form
        assert weyl_latex(U * V) == "UV"
        assert weyl_latex(ZERO) == "0"
        assert weyl_latex(LAM**2 * LAM_STAR) == (
            "3\\hbar U + i\\hbar V + U^{3} + i U^{2}V + UV^{2} + i V^{3}"
        )
        out = weyl_latex(HBAR.scale(GaussRational(0, 1)) * U)
        assert out == "i\\hbar U"

    def test_no_macro_fusion(self):
        # a coefficient ending in a letter must not glue onto the next symbol
        out = weyl_latex(HBAR.scale(GaussRational(0, 1)) * V)
        assert "\\hbarV" not in out

    def test_surface_latex_shape(self):
        lines = surface_latex(enneper(1)).splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("X^{1} &= ")
        assert all(ln.endswith("\\\\") for ln in lines)


class TestRatText:
    def test_examples(self):
        assert rat_text(parse_rat("L^2/2")) == "1/2*L^2"
        assert rat_text(parse_rat("1/L")) == "1/L"
        # denominators are normalized monic, so signs can migrate
        assert rat_text(parse_rat("(1+L)/(1-L)")) == "(-1 - L)/(-1 + L)"
        # round trip is the real contract
        for text in ("1/L", "(1+L)/(1-L)", "(h*L^2+i)/(L^3-h)", "1/(2*L)"):
            r = parse_rat(text)
            assert parse_rat(rat_text(r)) == r

    def test_round_trip_random(self):
        rng = random.Random(62)
        for _ in range(40):
            r = random_rat(rng)
            assert parse_rat(rat_text(r)) == r

    def test_poly_text(self):
        rng = random.Random(63)
        for _ in range(20):
            p = random_poly_lambda(rng, 5, 3)
            assert parse_rat(poly_lambda_text(p)) == p or parse_rat(
                poly_lambda_text(p)
            ).as_poly() == p


class TestSurfaceText:
    def test_lines(self):
        lines = surface_text(enneper(1)).splitlines()
        assert [ln.split(" = ")[0] for ln in lines] == ["X1", "X2", "X3"]
        for ln in lines:
            name, expr = ln.split(" = ")
            idx = int(name[1:]) - 1
            assert parse_weyl(expr) == enneper(1).components[idx]
