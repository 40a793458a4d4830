"""The hbar-deformed Weyl algebra in normal-ordered form.

Elements are finite sums ``sum a_{kl} L^k Ls^l`` where ``L = U + iV``,
``Ls = L* = U - iV`` and the generators satisfy ``U V - V U = i h`` with
``h`` central and hermitian, equivalently ``[L, Ls] = 2 h``.  Keeping every
element normal ordered (all L powers to the left) makes the representation
unique, so equality of elements is equality of coefficient tables.

Products are normal ordered with the closed reordering formula

    Ls^l L^m = sum_j j! C(l,j) C(m,j) (-2h)^j L^(m-j) Ls^(l-j),

which is exactly what iterating the single swap ``Ls L = L Ls - 2h`` yields.

The four derivations act on basis monomials by

    d    : L^k Ls^l -> k L^(k-1) Ls^l        (complex direction)
    dbar : L^k Ls^l -> l L^k Ls^(l-1)
    u = d + dbar,   v = i (d - dbar)         (real directions)

and agree with the inner-derivation formulas ``d_u A = (1/ih)[A, V]`` etc.,
which :func:`derive_by_commutator` implements for cross checking.  The
Laplacian is ``lap A = 4 d dbar A = d_u^2 A + d_v^2 A``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
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


Bidegree = tuple[int, int]


@lru_cache(maxsize=None)
def _reorder(l: int, m: int) -> tuple[tuple[int, int], ...]:
    # Ls^l L^m = sum_j coef_j h^j L^(m-j) Ls^(l-j) with integer coef_j.
    return tuple(
        (j, factorial(j) * comb(l, j) * comb(m, j) * (-2) ** j)
        for j in range(min(l, m) + 1)
    )


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
        out: list[tuple[Bidegree, HbarPoly]] = []
        for (k1, l1), c1 in self.terms:
            for (k2, l2), c2 in o.terms:
                base = c1 * c2
                for j, coef in _reorder(l1, k2):
                    c = base.scale(coef).shift(j) if j else base
                    out.append(((k1 + k2 - j, l1 + l2 - j), c))
        return WeylElement._sum(out)

    def scale(self, c: HbarLike) -> "WeylElement":
        co = HbarPoly.coerce(c)
        return WeylElement._sum((kl, cc * co) for kl, cc in self.terms)

    # -- involution ------------------------------------------------------

    def star(self) -> "WeylElement":
        """The antihomomorphic involution: (L^k Ls^l)* = L^l Ls^k."""
        return WeylElement._sum(((l, k), c.conjugate()) for (k, l), c in self.terms)

    def is_hermitian(self) -> bool:
        return self == self.star()

    def real_part(self) -> "WeylElement":
        """Re A = (A + A*)/2, always hermitian."""
        return (self + self.star()).scale(Fraction(1, 2))

    def imag_part(self) -> "WeylElement":
        """Im A = (A - A*)/(2i), always hermitian."""
        return (self - self.star()).scale(GaussRational(0, Fraction(-1, 2)))

    # -- calculus --------------------------------------------------------

    def _d(self) -> "WeylElement":
        return WeylElement._sum(((k - 1, l), c.scale(k)) for (k, l), c in self.terms if k)

    def _dbar(self) -> "WeylElement":
        return WeylElement._sum(((k, l - 1), c.scale(l)) for (k, l), c in self.terms if l)

    def derive(self, direction: Direction) -> "WeylElement":
        if direction is Direction.D:
            return self._d()
        if direction is Direction.DBAR:
            return self._dbar()
        if direction is Direction.U:
            return self._d() + self._dbar()
        if direction is Direction.V:
            return (self._d() - self._dbar()).scale(GR_I)
        raise ValueError(f"unknown direction {direction!r}")

    def laplace(self) -> "WeylElement":
        """The flat Laplacian lap = 4 d dbar = d_u^2 + d_v^2."""
        return self._dbar()._d().scale(4)

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
    copies of V, each word multiplied out in the algebra.  Hermitian for
    all k, l since U and V are.
    """
    if k < 0 or l < 0:
        raise ValueError("sym requires nonnegative powers")
    total = ZERO
    for positions in itertools.combinations(range(k + l), k):
        word = ["V"] * (k + l)
        for p in positions:
            word[p] = "U"
        total = total + from_uv(word)
    return total
