"""Expression parser for algebra elements and Lambda-rational data.

Grammar (precedence climbing):

    expr    :=  term (('+' | '-') term)*
    term    :=  unary (('*' | '/') unary)*
    unary   :=  '-' unary | power
    power   :=  atom ('^' exponent)?      exponent: nonnegative integer
    atom    :=  integer | name | '(' expr ')'

so '^' binds tighter than unary minus, which binds tighter than '*' and
'/'.  Recognized names: L, Ls, U, V, h (the central parameter), i (the
imaginary unit).  Integers are ASCII digits and names ASCII letters and
digits; any other character is an error at its position, and so is a
literal longer than Python converts to an int (4300 digits by default).

The whole input is parsed to a syntax tree first, so a syntax error is
reported before any algebra work.  One evaluator, ``_evaluate``, then
walks the tree in a mode: the value type, a table of what each name
means, and the mode the divisor of '/' is read in.

* weyl mode produces a WeylElement.  Its divisors are read in a scalar
  mode in which L, Ls, U, V and h are errors, so only Gaussian rationals
  divide.
* rat mode (built on the first ``parse_rat`` call, so weyl mode never
  loads the rational layer) produces a RatLambda and forbids the names
  U, V and Ls; division is unrestricted.

Errors come in evaluation order, left operand before right: in
``L/(1/0*L)`` the division by zero at position 4 is reported, not the L.

Expressions nest at most ``MAX_DEPTH`` levels: every parenthesised
group, unary minus, power and link of an operator chain is one level, so
``L+L+L`` is three deep.  The cap keeps the recursive parser and
evaluator far from Python's recursion limit.

All failures raise :class:`ParseError` carrying a 0-based position into
the source string.
"""

from __future__ import annotations

from functools import cache
from typing import TYPE_CHECKING, Union

from .records import Frozen
from .scalars import GR_I, GaussRational, HP_HBAR
from . import weyl
from .weyl import WeylElement

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from .holomorphic import RatLambda


class ParseError(ValueError):
    """Syntax or evaluation error with a position in the source."""

    def __init__(self, message: str, pos: int) -> None:
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class Token(Frozen):
    # kind: NUM, NAME, OP, LPAREN, RPAREN, END
    __slots__ = _fields = ("kind", "text", "pos")


_PUNCTUATION = dict.fromkeys("+-*/^", "OP") | {"(": "LPAREN", ")": "RPAREN"}
_NAMES = {"L", "Ls", "U", "V", "h", "i"}


def tokenize(src: str) -> list[Token]:
    out: list[Token] = []
    i, n = 0, len(src)
    while i < n:
        ch = src[i]
        j = i + 1
        if ch.isspace():
            i = j
            continue
        if "0" <= ch <= "9":
            while j < n and "0" <= src[j] <= "9":
                j += 1
            kind = "NUM"
        elif ch.isascii() and ch.isalpha():
            while j < n and src[j].isascii() and src[j].isalnum():
                j += 1
            kind = "NAME"
        elif ch in _PUNCTUATION:
            kind = _PUNCTUATION[ch]
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
        out.append(Token(kind, src[i:j], i))
        i = j
    out.append(Token("END", "", n))
    return out


# -- syntax tree -------------------------------------------------------------


class Num(Frozen):
    __slots__ = _fields = ("value", "pos")


class Name(Frozen):
    __slots__ = _fields = ("name", "pos")


class Neg(Frozen):
    __slots__ = _fields = ("operand", "pos")


class BinOp(Frozen):
    __slots__ = _fields = ("op", "left", "right", "pos")


class Pow(Frozen):
    __slots__ = _fields = ("base", "exponent", "pos")


Node = Union[Num, Name, Neg, BinOp, Pow]

_BIN_PREC = {"+": 1, "-": 1, "*": 2, "/": 2}
_UNARY_PREC = 3
MAX_DEPTH = 200


def _integer(t: Token) -> int:
    """The value of a NUM token; one too long for ``int`` is a ParseError."""
    try:
        return int(t.text)
    except ValueError:
        raise ParseError(f"integer literal too long ({len(t.text)} digits)", t.pos) from None


def _level(height: int, pos: int) -> int:
    """One more nesting level on top of a subtree of the given height."""
    if height >= MAX_DEPTH:
        raise ParseError(f"expression nested deeper than {MAX_DEPTH} levels", pos)
    return height + 1


class _Parser:
    """Recursive descent; each parse_* method returns (node, height).

    ``open`` counts the parse_expr calls in progress.  Each of them lies
    under its own level of the finished tree, so capping it rejects deep
    input before the recursion gets deep, and never rejects anything that
    the height check would pass.
    """

    def __init__(self, tokens: list[Token]) -> None:
        self.tokens = tokens
        self.i = 0
        self.open = 0

    def peek(self) -> Token:
        return self.tokens[self.i]

    def next(self) -> Token:
        t = self.tokens[self.i]
        self.i += 1
        return t

    def parse(self) -> Node:
        node, _ = self.parse_expr(0)
        t = self.peek()
        if t.kind != "END":
            raise ParseError(f"unexpected {t.text!r}", t.pos)
        return node

    def parse_expr(self, min_prec: int) -> tuple[Node, int]:
        self.open = _level(self.open, self.peek().pos)
        left, height = self.parse_unary()
        while True:
            t = self.peek()
            if t.kind != "OP" or t.text not in _BIN_PREC or _BIN_PREC[t.text] < min_prec:
                self.open -= 1
                return left, height
            self.next()
            right, rh = self.parse_expr(_BIN_PREC[t.text] + 1)
            left, height = BinOp(t.text, left, right, t.pos), _level(max(height, rh), t.pos)

    def parse_unary(self) -> tuple[Node, int]:
        t = self.peek()
        if t.kind == "OP" and t.text == "-":
            self.next()
            # unary minus binds tighter than * and / but looser than ^
            operand, height = self.parse_expr(_UNARY_PREC + 1)
            return Neg(operand, t.pos), _level(height, t.pos)
        return self.parse_power()

    def parse_power(self) -> tuple[Node, int]:
        base, height = self.parse_atom()
        t = self.peek()
        if t.kind == "OP" and t.text == "^":
            self.next()
            e = self.peek()
            if e.kind == "OP" and e.text == "-":
                raise ParseError("negative exponent", e.pos)
            if e.kind != "NUM":
                raise ParseError("exponent must be a nonnegative integer", e.pos)
            self.next()
            return Pow(base, _integer(e), t.pos), _level(height, t.pos)
        return base, height

    def parse_atom(self) -> tuple[Node, int]:
        t = self.next()
        if t.kind == "NUM":
            return Num(_integer(t), t.pos), 1
        if t.kind == "NAME":
            if t.text not in _NAMES:
                raise ParseError(f"unknown name {t.text!r}", t.pos)
            return Name(t.text, t.pos), 1
        if t.kind == "LPAREN":
            node, height = self.parse_expr(0)
            closing = self.next()
            if closing.kind != "RPAREN":
                raise ParseError("expected ')'", closing.pos)
            return node, _level(height, t.pos)
        if t.kind == "END":
            raise ParseError("unexpected end of input", t.pos)
        raise ParseError(f"unexpected {t.text!r}", t.pos)


def parse_ast(src: str) -> Node:
    return _Parser(tokenize(src)).parse()


# -- evaluation --------------------------------------------------------------


class _Mode:
    """A parse mode: the type numbers and names coerce to, each name's value
    or the message that refuses it, and the mode that reads a divisor."""

    __slots__ = ("type", "names", "divisor")

    def __init__(self, type_, names: dict, divisor: "_Mode | None" = None) -> None:
        self.type, self.names, self.divisor = type_, names, divisor or self


# weyl mode reads a divisor as a scalar: the algebra inverts nothing else.
_SCALAR = _Mode(GaussRational, {
    "i": GR_I,
    **{g: f"division by {g} is not defined in the algebra" for g in ("L", "Ls", "U", "V", "h")},
})
_WEYL = _Mode(WeylElement, {
    "L": weyl.LAM, "Ls": weyl.LAM_STAR, "U": weyl.U, "V": weyl.V, "h": weyl.HBAR, "i": GR_I,
}, _SCALAR)


@cache
def _rat_mode() -> _Mode:
    from .holomorphic import PolyLambda, RatLambda

    return _Mode(RatLambda, {
        "L": PolyLambda({1: 1}), "h": HP_HBAR, "i": GR_I,
        **{g: f"{g} is not Lambda-rational (only L, h, i allowed)" for g in ("U", "V", "Ls")},
    })


def _evaluate(node: Node, mode: _Mode):
    if isinstance(node, Num):
        return mode.type.coerce(node.value)
    if isinstance(node, Name):
        value = mode.names[node.name]
        if isinstance(value, str):
            raise ParseError(value, node.pos)
        return mode.type.coerce(value)
    if isinstance(node, Neg):
        return -_evaluate(node.operand, mode)
    if isinstance(node, Pow):
        return _evaluate(node.base, mode) ** node.exponent
    left = _evaluate(node.left, mode)
    if node.op == "/":
        right = _evaluate(node.right, mode.divisor)
        if right.is_zero():
            raise ParseError("division by zero", node.pos)
        return left * right.inverse()
    right = _evaluate(node.right, mode)
    if node.op == "+":
        return left + right
    if node.op == "-":
        return left - right
    return left * right


def parse_weyl(src: str) -> WeylElement:
    """Parse an algebra element (mode weyl)."""
    return _evaluate(parse_ast(src), _WEYL)


def parse_rat(src: str) -> RatLambda:
    """Parse a Lambda-rational expression (mode rat)."""
    return _evaluate(parse_ast(src), _rat_mode())
