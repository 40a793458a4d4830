"""The hbar-deformed Weyl algebra in normal-ordered form.

Elements are finite sums ``sum a_{kl} L^k Ls^l`` where ``L = U + iV``,
``Ls = L* = U - iV`` and the generators satisfy ``U V - V U = i h`` with
``h`` central and hermitian, equivalently ``[L, Ls] = 2 h``.  Keeping every
element normal ordered (all L powers to the left) makes the representation
unique, so equality of elements is equality of coefficient tables.

Products are normal ordered with the closed reordering formula

    Ls^l L^m = sum_j j! C(l,j) C(m,j) (-2h)^j L^(m-j) Ls^(l-j),

which is exactly what iterating the single swap ``Ls L = L Ls - 2h`` yields.

This module is the only one that knows the commutation relation.  The
other basis the package writes elements in, U,V order (every monomial
``U^p V^q`` with all U factors to the left), comes from one table,
:func:`uv_table`, which the LaTeX renderer and the classical limit only
scale, filter and format.  It is the expansion of

    e^(a L) e^(b Ls) = e^((a+b) U) e^(i(a-b) V) e^(h((a^2-b^2)/2 + ab)),

whose coefficient of a^k b^l / (k! l!) is L^k Ls^l in U,V order; the table
is built with the one swap ``(U^p V^q) U = U^(p+1) V^q - i h q U^p V^(q-1)``,
so its coefficients are Gaussian integers.  In the other direction
:func:`sym` uses the Weyl-ordering formula

    sym(k, l) = C(k+l, k) sum_j j! C(k,j) C(l,j) (-ih/2)^j U^(k-j) V^(l-j)

for the sum of all orderings of k letters U and l letters V.  (Ordered
expansions of this kind: Cahill & Glauber, Phys. Rev. 177, 1857 (1969).)

The product works on a flat integer form.  Each operand is read once into
rows ``(k, l, h-degree, re, im)`` whose Gaussian-integer numerators share
one common denominator, every term pair and reordering term adds plain
integer products into one dict keyed by ``(k, l, h-degree)``, and the
canonical ``terms`` tuple is built once at the end, with one Fraction per
surviving coefficient.  :func:`symmetric_product_sum` (the bilinear form
of the surface layer) accumulates all its products in the same dict.

The four derivations act on basis monomials by

    d    : L^k Ls^l -> k L^(k-1) Ls^l        (complex direction)
    dbar : L^k Ls^l -> l L^k Ls^(l-1)
    u = d + dbar,   v = i (d - dbar)         (real directions)

and agree with the inner-derivation formulas ``d_u A = (1/ih)[A, V]`` etc.,
which :func:`derive_by_commutator` implements for cross checking.  The
Laplacian is ``lap A = 4 d dbar A = d_u^2 A + d_v^2 A``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm
from operator import itemgetter
from typing import Iterable, Mapping, Sequence, Union

from .scalars import (
    GR_I,
    GaussLike,
    GaussRational,
    HP_HBAR,
    HbarLike,
    HbarPoly,
    Ring,
    bidegree_order,
    canon,
)


class Direction(Enum):
    """Directions for the four canonical derivations."""

    U = "u"
    V = "v"
    D = "d"
    DBAR = "dbar"


# The weights of d and dbar in each direction: u = d + dbar, v = i(d - dbar).
_DERIVE_WEIGHTS = {
    Direction.D: (1, 0),
    Direction.DBAR: (0, 1),
    Direction.U: (1, 1),
    Direction.V: (GR_I, -GR_I),
}


Bidegree = tuple[int, int]


@lru_cache(maxsize=None)
def _reorder(l: int, m: int) -> tuple[tuple[int, int], ...]:
    # Ls^l L^m = sum_j coef_j h^j L^(m-j) Ls^(l-j) with integer coef_j.
    return tuple(
        (j, factorial(j) * comb(l, j) * comb(m, j) * (-2) ** j)
        for j in range(min(l, m) + 1)
    )


# The flat form: rows (k, l, h-degree, re, im) of integer numerators over a
# denominator shared by the rows of every element read together.
Row = tuple[int, int, int, int, int]


@lru_cache(maxsize=1024)
def uv_table(k: int, l: int) -> tuple[Row, ...]:
    """L^k Ls^l in U,V order, as rows ``(p, q, h-degree, re, im)``.

    A row stands for the term ``(re + i im) h^d U^p V^q``.  The table is 1
    multiplied on the right by U + iV k times and by U - iV l times, in a
    loop, each new U moved left with ``V^q U = U V^q - i h q V^(q-1)``.
    """
    acc = {(0, 0, 0): (1, 0)}
    for s in [1] * k + [-1] * l:
        nxt: dict = {}
        for (p, q, d), (re, im) in acc.items():
            terms = [((p + 1, q, d), re, im), ((p, q + 1, d), -s * im, s * re)]
            if q:
                terms.append(((p, q - 1, d + 1), q * im, -q * re))
            for key, r, i in terms:
                cur = nxt.get(key)
                nxt[key] = (r, i) if cur is None else (cur[0] + r, cur[1] + i)
        acc = nxt
    return tuple((p, q, d, re, im) for (p, q, d), (re, im) in acc.items() if re or im)


def _rows(elems: Sequence["WeylElement"]) -> tuple[list[list[Row]], int]:
    """The rows of each element, over their least common denominator."""
    den = lcm(*{
        x.denominator
        for e in elems
        for _, c in e.terms
        for _, g in c.coeffs
        for x in (g.re, g.im)
    })
    return [
        [
            (k, l, d, g.re.numerator * (den // g.re.denominator),
             g.im.numerator * (den // g.im.denominator))
            for (k, l), c in e.terms
            for d, g in c.coeffs
        ]
        for e in elems
    ], den


def _add_products(acc: dict, a: list[Row], b: list[Row]) -> None:
    """Add the normal-ordered product of two row lists into ``acc``.

    ``acc`` maps (k, l, h-degree) to a pair of integer numerators; the
    denominator of what is added is the product of the operands' own.
    """
    for k1, l1, d1, ar, ai in a:
        for k2, l2, d2, br, bi in b:
            re = ar * br - ai * bi
            im = ar * bi + ai * br
            k, l, d = k1 + k2, l1 + l2, d1 + d2
            for j, c in _reorder(l1, k2):
                key = (k - j, l - j, d + j)
                cur = acc.get(key)
                acc[key] = (c * re, c * im) if cur is None else (cur[0] + c * re, cur[1] + c * im)


def _is_hermitian(rows: list[Row]) -> bool:
    # (L^k Ls^l)* = L^l Ls^k with the conjugate coefficient.
    return set(rows) == {(l, k, d, re, -im) for k, l, d, re, im in rows}


def _element(acc: dict, den: int) -> "WeylElement":
    """The canonical element with coefficients ``acc[k, l, d] / den``."""
    polys: dict = {}
    for (k, l, d), (re, im) in acc.items():
        if re or im:
            g = GaussRational(Fraction(re, den), Fraction(im, den))
            polys.setdefault((k, l), []).append((d, g))
    e = object.__new__(WeylElement)
    object.__setattr__(e, "terms", tuple(
        (kl, HbarPoly._of(tuple(sorted(cs, key=itemgetter(0)))))
        for kl, cs in sorted(polys.items(), key=bidegree_order)
    ))
    return e


@dataclass(frozen=True, init=False)
class WeylElement(Ring):
    """An algebra element in normal-ordered canonical form.

    ``terms`` maps bidegrees ``(k, l)`` (power of L, power of Ls) to
    HbarPoly coefficients, stored sorted by ``(k + l, k)`` with zero
    coefficients dropped, so ``==`` and ``hash`` are structural.
    """

    terms: tuple[tuple[Bidegree, HbarPoly], ...]

    LIFTS = (HbarPoly, GaussRational, int, Fraction)

    def __init__(
        self,
        terms: Union[
            Mapping[Bidegree, HbarLike], Iterable[tuple[Bidegree, HbarLike]]
        ] = (),
    ) -> None:
        canonical = canon(terms, bidegree_order, HbarPoly.coerce)
        if any(k < 0 or l < 0 for (k, l), _ in canonical):
            raise ValueError("negative monomial degree")
        object.__setattr__(self, "terms", canonical)

    @classmethod
    def _sum(cls, items: Iterable[tuple[Bidegree, HbarPoly]]) -> "WeylElement":
        """The sum of (bidegree, HbarPoly) pairs, without coercion."""
        e = object.__new__(cls)
        object.__setattr__(e, "terms", canon(items, bidegree_order))
        return e

    @classmethod
    def _lift(cls, x: HbarLike) -> "WeylElement":
        return cls({(0, 0): x})

    @staticmethod
    def basis(k: int, l: int, coeff: HbarLike = 1) -> "WeylElement":
        return WeylElement({(k, l): coeff})

    # -- basic structure -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Maximal total degree k + l; -1 for the zero element."""
        return self.terms[-1][0][0] + self.terms[-1][0][1] if self.terms else -1

    def term(self, k: int, l: int) -> HbarPoly:
        for kl, c in self.terms:
            if kl == (k, l):
                return c
        return HbarPoly()

    def bidegrees(self) -> tuple[Bidegree, ...]:
        return tuple(kl for kl, _ in self.terms)

    def is_holomorphic(self) -> bool:
        """True when no Ls power occurs (all bidegrees are (k, 0))."""
        return all(l == 0 for (_, l), _ in self.terms)

    # -- ring operations -------------------------------------------------

    def _add(self, o: "WeylElement") -> "WeylElement":
        return WeylElement._sum(self.terms + o.terms)

    def __neg__(self) -> "WeylElement":
        return WeylElement._sum((kl, -c) for kl, c in self.terms)

    def __mul__(self, other: "WeylLike") -> "WeylElement":
        o = self._try(other)
        if o is None:
            return NotImplemented
        (a,), da = _rows((self,))
        (b,), db = _rows((o,))
        acc: dict = {}
        _add_products(acc, a, b)
        return _element(acc, da * db)

    def scale(self, c: HbarLike) -> "WeylElement":
        co = HbarPoly.coerce(c)
        return WeylElement._sum((kl, cc * co) for kl, cc in self.terms)

    # -- involution ------------------------------------------------------

    def star(self) -> "WeylElement":
        """The antihomomorphic involution: (L^k Ls^l)* = L^l Ls^k."""
        return WeylElement._sum(((l, k), c.conjugate()) for (k, l), c in self.terms)

    def is_hermitian(self) -> bool:
        (rows,), _ = _rows((self,))
        return _is_hermitian(rows)

    def real_part(self) -> "WeylElement":
        """Re A = (A + A*)/2, always hermitian."""
        return (self + self.star()).scale(Fraction(1, 2))

    def imag_part(self) -> "WeylElement":
        """Im A = (A - A*)/(2i), always hermitian."""
        return (self - self.star()).scale(GaussRational(0, Fraction(-1, 2)))

    # -- calculus --------------------------------------------------------

    def derive(self, direction: Direction) -> "WeylElement":
        """d takes L^k Ls^l to k L^(k-1) Ls^l and dbar to l L^k Ls^(l-1);
        u = d + dbar and v = i(d - dbar) weight the two in one pass."""
        try:
            wd, wdbar = _DERIVE_WEIGHTS[direction]
        except KeyError:
            raise ValueError(f"unknown direction {direction!r}") from None
        out = []
        for (k, l), c in self.terms:
            if k and wd:
                out.append(((k - 1, l), c.scale(wd * k)))
            if l and wdbar:
                out.append(((k, l - 1), c.scale(wdbar * l)))
        return WeylElement._sum(out)

    def laplace(self) -> "WeylElement":
        """The flat Laplacian lap = 4 d dbar = d_u^2 + d_v^2."""
        return WeylElement._sum(
            ((k - 1, l - 1), c.scale(4 * k * l)) for (k, l), c in self.terms if k and l
        )

    def shift_hbar(self, j: int) -> "WeylElement":
        """Multiply every coefficient by h**j (j < 0 must divide exactly)."""
        return WeylElement._sum((kl, c.shift(j)) for kl, c in self.terms)

    def __str__(self) -> str:
        from .render import weyl_text

        return weyl_text(self)


WeylLike = Union[WeylElement, HbarPoly, GaussRational, int, Fraction]

ZERO = WeylElement()
ONE = WeylElement.basis(0, 0)
LAM = WeylElement.basis(1, 0)
LAM_STAR = WeylElement.basis(0, 1)
HBAR = WeylElement({(0, 0): HP_HBAR})
U = WeylElement({(1, 0): GaussRational(Fraction(1, 2)), (0, 1): GaussRational(Fraction(1, 2))})
V = WeylElement(
    {
        (1, 0): GaussRational(0, Fraction(-1, 2)),
        (0, 1): GaussRational(0, Fraction(1, 2)),
    }
)


def commutator(a: WeylElement, b: WeylElement) -> WeylElement:
    return a * b - b * a


def symmetric_product_sum(
    xs: Sequence[WeylElement], ys: Sequence[WeylElement]
) -> WeylElement:
    """(1/2) sum_i (x_i y_i + y_i x_i), with every product in one accumulator.

    When every operand is hermitian, y x = (x y)*, so the sum is Re P for
    P = sum_i x_i y_i: one product per pair, with Re P read off the flat
    form as (P[k, l, d] + conj P[l, k, d]) / 2 over the keys of both.
    Hermiticity is tested here, not assumed; otherwise the products
    y_i x_i are added to the same accumulator.
    """
    rx, dx = _rows(xs)
    ry, dy = _rows(ys)
    acc: dict = {}
    for a, b in zip(rx, ry):
        _add_products(acc, a, b)
    if all(map(_is_hermitian, rx + ry)):
        p, acc = acc, {}
        for (k, l, d), (re, im) in p.items():
            for key, part in (((k, l, d), im), ((l, k, d), -im)):
                cur = acc.get(key)
                acc[key] = (re, part) if cur is None else (cur[0] + re, cur[1] + part)
    else:
        for a, b in zip(rx, ry):
            _add_products(acc, b, a)
    return _element(acc, 2 * dx * dy)


def derive_by_commutator(a: WeylElement, direction: Direction) -> WeylElement:
    """The derivations as inner derivations scaled by 1/h.

    d_u A = (1/ih)[A, V]        d A    = (1/2h)[A, Ls]
    d_v A = -(1/ih)[A, U]       dbar A = -(1/2h)[A, L]

    Each commutator is exactly divisible by h; the division is performed
    on coefficients and raises if divisibility ever failed.
    """
    if direction is Direction.U:
        return commutator(a, V).scale(-GR_I).shift_hbar(-1)
    if direction is Direction.V:
        return commutator(a, U).scale(GR_I).shift_hbar(-1)
    if direction is Direction.D:
        return commutator(a, LAM_STAR).scale(Fraction(1, 2)).shift_hbar(-1)
    if direction is Direction.DBAR:
        return commutator(a, LAM).scale(Fraction(-1, 2)).shift_hbar(-1)
    raise ValueError(f"unknown direction {direction!r}")


def from_uv(word: Union[str, Sequence[str]], coeff: GaussLike = 1, hbar_deg: int = 0) -> WeylElement:
    """Normal order a word in the generators U, V with a scalar prefix.

    ``from_uv("UV", coeff, d)`` is ``coeff * h^d * U V`` expressed in the
    L, Ls basis.
    """
    acc = WeylElement({(0, 0): HbarPoly.hbar(hbar_deg, GaussRational.coerce(coeff))})
    for ch in word:
        if ch == "U":
            acc = acc * U
        elif ch == "V":
            acc = acc * V
        else:
            raise ValueError(f"word letters must be 'U' or 'V', got {ch!r}")
    return acc


def sym(k: int, l: int) -> WeylElement:
    """Unnormalized symmetrization of U^k V^l.

    The sum over all C(k+l, k) distinct orderings of k copies of U and l
    copies of V, formed by the Weyl-ordering formula of the module
    docstring with the flat product.  Hermitian for all k, l since U and V
    are.
    """
    if k < 0 or l < 0:
        raise ValueError("sym requires nonnegative powers")
    minus_half_i = GaussRational(0, Fraction(-1, 2))
    total = ZERO
    for j in range(min(k, l) + 1):
        c = comb(k + l, k) * factorial(j) * comb(k, j) * comb(l, j) * minus_half_i**j
        total = total + (U ** (k - j) * V ** (l - j)).scale(HbarPoly.hbar(j, c))
    return total
