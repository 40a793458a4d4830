"""Expression parsing for both input modes."""

import pytest

from weylmin.holomorphic import PolyLambda, RatLambda
from weylmin.parse import MAX_DEPTH, ParseError, parse_rat, parse_weyl
from weylmin.scalars import GaussRational, HbarPoly
from weylmin.weyl import HBAR, LAM, LAM_STAR, ONE, U, V, WeylElement

I = WeylElement({(0, 0): HbarPoly({0: GaussRational(0, 1)})})


class TestWeylMode:
    def test_atoms(self):
        assert parse_weyl("L") == LAM
        assert parse_weyl("Ls") == LAM_STAR
        assert parse_weyl("U") == U
        assert parse_weyl("V") == V
        assert parse_weyl("h") == HBAR
        assert parse_weyl("i") == I
        assert parse_weyl("7") == ONE.scale(7)

    def test_precedence(self):
        assert parse_weyl("1+2*3") == ONE.scale(7)
        assert parse_weyl("2*L^3") == (LAM**3).scale(2)
        assert parse_weyl("-L^2") == -(LAM**2)
        assert parse_weyl("(1+L)^2") == (ONE + LAM) * (ONE + LAM)
        assert parse_weyl("(2^3)^2") == ONE.scale(64)
        with pytest.raises(ParseError):
            parse_weyl("2^3^1")  # chained powers need parentheses

    def test_products_keep_order(self):
        assert parse_weyl("U*V") == U * V
        assert parse_weyl("V*U") == V * U
        assert parse_weyl("U*V") != parse_weyl("V*U")

    def test_scalar_division(self):
        assert parse_weyl("L/2") == LAM.scale(GaussRational.coerce(1) * 0 + GaussRational(1) / GaussRational(2))
        assert parse_weyl("3/4") == ONE.scale(GaussRational(3) / GaussRational(4))
        assert parse_weyl("L/(2*i)") == LAM.scale(GaussRational(1) / GaussRational(0, 2))

    def test_division_by_generator_rejected(self):
        for text in ("1/L", "U/V", "L/(L+1)", "1/h"):
            with pytest.raises(ParseError) as exc:
                parse_weyl(text)
            assert "division" in str(exc.value)

    def test_error_positions(self):
        with pytest.raises(ParseError) as exc:
            parse_weyl("U + * V")
        assert exc.value.pos == 4
        with pytest.raises(ParseError):
            parse_weyl("(U + V")
        with pytest.raises(ParseError):
            parse_weyl("U V")

    def test_unknown_name(self):
        with pytest.raises(ParseError):
            parse_weyl("L + W")

    def test_negative_exponent_rejected(self):
        with pytest.raises(ParseError) as exc:
            parse_weyl("L^-1")
        assert "exponent" in str(exc.value)

    def test_unary_minus_binds_tighter_than_product(self):
        assert parse_weyl("-U*V") == -(U * V)
        assert parse_weyl("2--3") == ONE.scale(5)

    def test_whitespace_insensitive(self):
        assert parse_weyl(" 1 + 2*L ^ 2 ") == parse_weyl("1+2*L^2")


class TestRatMode:
    def test_atoms_and_arithmetic(self):
        assert parse_rat("L^2 + 1") == parse_rat("1 + L*L")
        assert parse_rat("(L^2-1)/(L-1)") == parse_rat("L+1")
        assert parse_rat("1/L") == parse_rat("L").inverse()
        assert parse_rat("h*L/2").is_polynomial()

    def test_gaussian_coefficients(self):
        r = parse_rat("i*L + 1/2")
        assert isinstance(r, RatLambda)
        assert r == parse_rat("(2*i*L + 1)/2")

    def test_operator_names_rejected(self):
        for name in ("U", "V", "Ls"):
            with pytest.raises(ParseError):
                parse_rat(f"1 + {name}")

    def test_division_by_zero(self):
        with pytest.raises((ParseError, ZeroDivisionError)):
            parse_rat("1/(L-L)")

    def test_errors(self):
        with pytest.raises(ParseError):
            parse_rat("")
        with pytest.raises(ParseError):
            parse_rat("L^^2")
        with pytest.raises(ParseError):
            parse_rat("L^(1/2)")


class TestDepthCap:
    """Parentheses, unary minus and operator-chain links each add a level."""

    def test_deepest_accepted(self):
        n = MAX_DEPTH - 1
        assert parse_weyl("(" * n + "L" + ")" * n) == LAM
        assert parse_weyl("L+" * n + "L") == LAM.scale(MAX_DEPTH)
        assert parse_weyl("-" * n + "L") == -LAM
        assert parse_rat("L*" * n + "L") == RatLambda(PolyLambda({MAX_DEPTH: 1}))

    @pytest.mark.parametrize("mode", [parse_weyl, parse_rat])
    def test_one_level_deeper_rejected(self, mode):
        n = MAX_DEPTH
        for src in ("(" * n + "L" + ")" * n, "L+" * n + "L", "-" * n + "L", "(L+" * n + "L" + ")" * n):
            with pytest.raises(ParseError) as exc:
                mode(src)
            assert "nested deeper" in str(exc.value)
