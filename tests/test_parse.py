"""Expression parsing for both input modes."""

import sys
from fractions import Fraction

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


# -- the names and divisions of each mode, pinned -------------------------

R_L = RatLambda(PolyLambda({1: 1}))
R_H = RatLambda(PolyLambda.const(HbarPoly.hbar()))
R_I = RatLambda(PolyLambda.const(GaussRational(0, 1)))


def _outcome(parse, src):
    """The parsed value, or (message, position) of the ParseError."""
    try:
        return parse(src)
    except ParseError as exc:
        return str(exc), exc.pos


def _error(message, pos):
    return f"{message} (at position {pos})", pos


def _not_rat(name, pos):
    return _error(f"{name} is not Lambda-rational (only L, h, i allowed)", pos)


def _not_in_algebra(name, pos):
    return _error(f"division by {name} is not defined in the algebra", pos)


PINNED = [
    # weyl mode: every name is an element
    (parse_weyl, "L", LAM),
    (parse_weyl, "Ls", LAM_STAR),
    (parse_weyl, "U", U),
    (parse_weyl, "V", V),
    (parse_weyl, "h", HBAR),
    (parse_weyl, "i", I),
    # a weyl-mode divisor: only i and numbers divide
    (parse_weyl, "1/L", _not_in_algebra("L", 2)),
    (parse_weyl, "1/Ls", _not_in_algebra("Ls", 2)),
    (parse_weyl, "1/U", _not_in_algebra("U", 2)),
    (parse_weyl, "1/V", _not_in_algebra("V", 2)),
    (parse_weyl, "1/h", _not_in_algebra("h", 2)),
    (parse_weyl, "1/i", -I),
    (parse_weyl, "h/(2*i)", HBAR.scale(GaussRational(0, Fraction(-1, 2)))),
    (parse_weyl, "-L/-(2)", LAM.scale(Fraction(1, 2))),
    # rat mode: L, h and i are Lambda-rational, the others are not
    (parse_rat, "L", R_L),
    (parse_rat, "h", R_H),
    (parse_rat, "i", R_I),
    (parse_rat, "Ls", _not_rat("Ls", 0)),
    (parse_rat, "U", _not_rat("U", 0)),
    (parse_rat, "V", _not_rat("V", 0)),
    # a rat-mode divisor is read in rat mode
    (parse_rat, "1/L", RatLambda(1, PolyLambda({1: 1}))),
    (parse_rat, "1/h", RatLambda(1, PolyLambda.const(HbarPoly.hbar()))),
    (parse_rat, "1/i", RatLambda(PolyLambda.const(GaussRational(0, -1)))),
    (parse_rat, "1/Ls", _not_rat("Ls", 2)),
    (parse_rat, "1/U", _not_rat("U", 2)),
    (parse_rat, "1/V", _not_rat("V", 2)),
    (parse_rat, "L/(h*L)", RatLambda(1, PolyLambda.const(HbarPoly.hbar()))),
    (parse_rat, "(L+U)/0", _not_rat("U", 3)),
    (parse_rat, "U/0", _not_rat("U", 0)),
    # division by zero, at the '/'
    (parse_weyl, "1/0", _error("division by zero", 1)),
    (parse_weyl, "L/(2-2)", _error("division by zero", 1)),
    (parse_weyl, "1/(i-i)", _error("division by zero", 1)),
    (parse_weyl, "(1/0)/L", _error("division by zero", 2)),
    (parse_rat, "1/0", _error("division by zero", 1)),
    (parse_rat, "1/(L-L)", _error("division by zero", 1)),
    (parse_rat, "1/(h-h)", _error("division by zero", 1)),
    (parse_rat, "L/(1/0*L)", _error("division by zero", 4)),
    # division by a generator, at the first generator of the divisor
    (parse_weyl, "U/V", _not_in_algebra("V", 2)),
    (parse_weyl, "1/(2/L)", _not_in_algebra("L", 5)),
    (parse_weyl, "L/(3*h)", _not_in_algebra("h", 5)),
    (parse_weyl, "L/(1+U)^2", _not_in_algebra("U", 5)),
    (parse_weyl, "L/(L*(1/0))", _not_in_algebra("L", 3)),
    # Errors come in evaluation order: the zero division comes first.  (Up to
    # the single evaluator the generator at position 7 was reported.)
    (parse_weyl, "L/(1/0*L)", _error("division by zero", 4)),
    # unknown names
    (parse_weyl, "L+W", _error("unknown name 'W'", 2)),
    (parse_weyl, "2*Lss", _error("unknown name 'Lss'", 2)),
    (parse_rat, "L+W", _error("unknown name 'W'", 2)),
    (parse_rat, "x", _error("unknown name 'x'", 0)),
]


@pytest.mark.parametrize(
    "parse,src,want", PINNED,
    ids=[f"{parse.__name__[6:]}:{src}" for parse, src, _ in PINNED],
)
def test_pinned_outcome(parse, src, want):
    assert _outcome(parse, src) == want


class TestLiterals:
    """Digits and name characters are ASCII; every bad literal is a ParseError."""

    @pytest.mark.parametrize("mode", [parse_weyl, parse_rat])
    @pytest.mark.parametrize(
        "src,pos", [("\u00b2", 0), ("L^\u00b2", 2), ("\u0663*L", 0), ("2*L\u0663", 3),
                    ("L\u00e9", 1), ("\uff48", 0)],
    )
    def test_non_ascii_is_unexpected(self, mode, src, pos):
        with pytest.raises(ParseError) as exc:
            mode(src)
        assert (str(exc.value), exc.value.pos) == _error(f"unexpected character {src[pos]!r}", pos)

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
        reason="this Python converts integer literals of any length",
    )
    @pytest.mark.parametrize("mode", [parse_weyl, parse_rat])
    def test_literal_past_the_digit_limit(self, mode):
        limit = sys.get_int_max_str_digits()
        assert mode("9" * limit) == mode(f"10^{limit} - 1")
        digits = "9" * (limit + 1)
        for src, pos in ((digits, 0), (f"2 + {digits}", 4), (f"L^{digits}", 2)):
            with pytest.raises(ParseError) as exc:
                mode(src)
            assert (str(exc.value), exc.value.pos) == _error(
                f"integer literal too long ({limit + 1} digits)", pos
            )
