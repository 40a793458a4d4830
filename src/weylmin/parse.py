"""Expression parser for algebra elements and Lambda-rational data.

Grammar (precedence climbing):

    expr    :=  term (('+' | '-') term)*
    term    :=  unary (('*' | '/') unary)*
    unary   :=  '-' unary | power
    power   :=  atom ('^' exponent)?      exponent: nonnegative integer
    atom    :=  integer | name | '(' expr ')'

so '^' binds tighter than unary minus, which binds tighter than '*' and
'/'.  Recognized names: L, Ls, U, V, h (the central parameter), i (the
imaginary unit).

Two evaluation modes share the grammar:

* weyl mode produces a WeylElement.  Division is restricted to scalar
  denominators (no L, Ls, U, V, h inside), checked on the syntax tree
  so the error points at the offending position.
* rat mode produces a RatLambda and forbids the names U, V and Ls;
  division is unrestricted.

Expressions nest at most ``MAX_DEPTH`` levels: every parenthesised
group, unary minus, power and link of an operator chain is one level, so
``L+L+L`` is three deep.  The cap keeps the recursive parser and
evaluators far from Python's recursion limit.

All failures raise :class:`ParseError` carrying a 0-based position into
the source string.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .scalars import GR_I, GaussRational, HP_HBAR
from .holomorphic import PolyLambda, RatLambda
from . import weyl
from .weyl import WeylElement


class ParseError(ValueError):
    """Syntax or evaluation error with a position in the source."""

    def __init__(self, message: str, pos: int) -> None:
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


@dataclass(frozen=True)
class Token:
    kind: str  # NUM, NAME, OP, LPAREN, RPAREN, END
    text: str
    pos: int


_OPS = set("+-*/^")
_NAMES = {"L", "Ls", "U", "V", "h", "i"}


def tokenize(src: str) -> list[Token]:
    out: list[Token] = []
    i = 0
    n = len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and src[j].isdigit():
                j += 1
            out.append(Token("NUM", src[i:j], i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and src[j].isalnum():
                j += 1
            out.append(Token("NAME", src[i:j], i))
            i = j
            continue
        if ch in _OPS:
            out.append(Token("OP", ch, i))
            i += 1
            continue
        if ch == "(":
            out.append(Token("LPAREN", ch, i))
            i += 1
            continue
        if ch == ")":
            out.append(Token("RPAREN", ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    out.append(Token("END", "", n))
    return out


# -- syntax tree -------------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: int
    pos: int


@dataclass(frozen=True)
class Name:
    name: str
    pos: int


@dataclass(frozen=True)
class Neg:
    operand: "Node"
    pos: int


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Node"
    right: "Node"
    pos: int


@dataclass(frozen=True)
class Pow:
    base: "Node"
    exponent: int
    pos: int


Node = Union[Num, Name, Neg, BinOp, Pow]

_BIN_PREC = {"+": 1, "-": 1, "*": 2, "/": 2}
_UNARY_PREC = 3
MAX_DEPTH = 200


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
            return Pow(base, int(e.text), t.pos), _level(height, t.pos)
        return base, height

    def parse_atom(self) -> tuple[Node, int]:
        t = self.next()
        if t.kind == "NUM":
            return Num(int(t.text), t.pos), 1
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


def _scalar_names(node: Node) -> Token | None:
    """First non-scalar name in a subtree, or None if purely scalar."""
    if isinstance(node, Num):
        return None
    if isinstance(node, Name):
        if node.name == "i":
            return None
        return Token("NAME", node.name, node.pos)
    if isinstance(node, Neg):
        return _scalar_names(node.operand)
    if isinstance(node, Pow):
        return _scalar_names(node.base)
    bad = _scalar_names(node.left)
    return bad if bad is not None else _scalar_names(node.right)


def _eval_scalar(node: Node) -> GaussRational:
    if isinstance(node, Num):
        return GaussRational(node.value)
    if isinstance(node, Name):
        if node.name == "i":
            return GR_I
        raise ParseError(f"{node.name} is not a scalar", node.pos)
    if isinstance(node, Neg):
        return -_eval_scalar(node.operand)
    if isinstance(node, Pow):
        return _eval_scalar(node.base) ** node.exponent
    left = _eval_scalar(node.left)
    right = _eval_scalar(node.right)
    if node.op == "+":
        return left + right
    if node.op == "-":
        return left - right
    if node.op == "*":
        return left * right
    if right.is_zero():
        raise ParseError("division by zero", node.pos)
    return left / right


def _eval_weyl(node: Node) -> WeylElement:
    if isinstance(node, Num):
        return WeylElement.coerce(node.value)
    if isinstance(node, Name):
        return {
            "L": weyl.LAM,
            "Ls": weyl.LAM_STAR,
            "U": weyl.U,
            "V": weyl.V,
            "h": weyl.HBAR,
            "i": WeylElement.coerce(GR_I),
        }[node.name]
    if isinstance(node, Neg):
        return -_eval_weyl(node.operand)
    if isinstance(node, Pow):
        return _eval_weyl(node.base) ** node.exponent
    left = _eval_weyl(node.left)
    if node.op == "/":
        bad = _scalar_names(node.right)
        if bad is not None:
            raise ParseError(
                f"division by {bad.text} is not defined in the algebra", bad.pos
            )
        den = _eval_scalar(node.right)
        if den.is_zero():
            raise ParseError("division by zero", node.pos)
        return left.scale(den.inverse())
    right = _eval_weyl(node.right)
    if node.op == "+":
        return left + right
    if node.op == "-":
        return left - right
    return left * right


def _eval_rat(node: Node) -> RatLambda:
    if isinstance(node, Num):
        return RatLambda.coerce(node.value)
    if isinstance(node, Name):
        if node.name in ("U", "V", "Ls"):
            raise ParseError(
                f"{node.name} is not Lambda-rational (only L, h, i allowed)", node.pos
            )
        if node.name == "L":
            return RatLambda.from_poly(PolyLambda({1: 1}))
        if node.name == "h":
            return RatLambda.from_poly(PolyLambda.const(HP_HBAR))
        return RatLambda.coerce(PolyLambda.const(GR_I))
    if isinstance(node, Neg):
        return -_eval_rat(node.operand)
    if isinstance(node, Pow):
        return _eval_rat(node.base) ** node.exponent
    left = _eval_rat(node.left)
    right = _eval_rat(node.right)
    if node.op == "+":
        return left + right
    if node.op == "-":
        return left - right
    if node.op == "*":
        return left * right
    if right.is_zero():
        raise ParseError("division by zero", node.pos)
    return left / right


def parse_weyl(src: str) -> WeylElement:
    """Parse an algebra element (mode weyl)."""
    return _eval_weyl(parse_ast(src))


def parse_rat(src: str) -> RatLambda:
    """Parse a Lambda-rational expression (mode rat)."""
    return _eval_rat(parse_ast(src))
