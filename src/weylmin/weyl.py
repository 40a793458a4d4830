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
:func:`uv_table`, the expansion of

    e^(a L) e^(b Ls) = e^((a+b) U) e^(i(a-b) V) e^(h((a^2-b^2)/2 + ab)),

whose coefficient of a^k b^l / (k! l!) is L^k Ls^l in U,V order; the table
is built with the one swap ``(U^p V^q) U = U^(p+1) V^q - i h q U^p V^(q-1)``,
so its coefficients are Gaussian integers.  In the other direction
:func:`sym` uses the Weyl-ordering formula

    sym(k, l) = C(k+l, k) sum_j j! C(k,j) C(l,j) (-ih/2)^j U^(k-j) V^(l-j)

for the sum of all orderings of k letters U and l letters V.  (Ordered
expansions of this kind: Cahill & Glauber, Phys. Rev. 177, 1857 (1969).)

An element is stored in the kernel's flat form
(:class:`~weylmin.scalars.Flat`): rows ``(k, l, h-degree, re, im)`` of
Gaussian-integer numerators over one denominator, with the product here.
It adds each (row pair, reordering term) into one accumulator in a plain
loop (:func:`_products`); a left row without Ls, such as every row of dX
for X = Re P, needs no reordering and its pairs go straight in.
The symmetrized form :func:`bilinear`, which the surface layer uses, puts
all its products into one accumulator, and :func:`partial_square_sum` the
squares of derivatives, mapped from the rows, one product each.  The
writers read the rows through :func:`coefficients` or its U,V-ordered twin
:func:`uv_coefficients`, one integer accumulation of the rows times their
:func:`uv_table` rows; both give ``{(k, l): [(h-degree, re_num, re_den,
im_num, im_den), ...]}``, each part an integer fraction in lowest terms.
Text and JSON read the first and LaTeX the second; the classical limit is
the h-free part of the accumulation behind it, read from the binomial
table :func:`uv_table_h_free`.

The four derivations act on basis monomials by

    d    : L^k Ls^l -> k L^(k-1) Ls^l        (complex direction)
    dbar : L^k Ls^l -> l L^k Ls^(l-1)
    u = d + dbar,   v = i (d - dbar)         (real directions)

d and dbar are the kernel's derivative row map in the L- and Ls-degree, u
and v their combinations; all four agree with ``d_u A = (1/ih)[A, V]`` etc.,
the inner derivations of :func:`derive_by_commutator`.  The Laplacian
``lap A = 4 d dbar A = d_u^2 A + d_v^2 A`` is one order-keeping row map.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm
from typing import Iterable, Sequence, Union

from .scalars import (
    GR_I,
    Coeff,
    Flat,
    GaussLike,
    GaussRational,
    HP_HBAR,
    HbarLike,
    HbarPoly,
    Row,
    _accumulate,
    _by_total_degree,
    _common,
    grouped,
)


class Direction(Enum):
    """Directions for the four canonical derivations."""

    U = "u"
    V = "v"
    D = "d"
    DBAR = "dbar"


Bidegree = tuple[int, int]


# _reorder stores terms only for l, m <= REORDER_MEMO_CAP, at most 33^2 entries and under
# 2 MB by sys.getsizeof; others are computed per call ((3000, 3000) alone would be 8 MB).
REORDER_MEMO_CAP = 32
_REORDER_MEMO: dict = {}


def _reorder(l: int, m: int) -> tuple[tuple[int, int], ...]:
    # Ls^l L^m = sum_j coef_j h^j L^(m-j) Ls^(l-j) with integer coef_j.
    if (terms := _REORDER_MEMO.get((l, m))) is None:
        terms = tuple((j, factorial(j) * comb(l, j) * comb(m, j) * (-2) ** j)
                      for j in range(min(l, m) + 1))
        if max(l, m) <= REORDER_MEMO_CAP:
            _REORDER_MEMO[l, m] = terms
    return terms


# The largest k + l of a U,V table.  uv_table(k, l) takes O((k + l)^3)
# steps and has up to (k + l + 2)^2 / 4 rows: about 4 s and 5 MB at 300.
UV_TABLE_CAP = 300


def _check_cap(k: int, l: int) -> None:
    if k + l > UV_TABLE_CAP:
        raise ValueError(f"U,V order is capped at total degree {UV_TABLE_CAP} (the U,V-table"
                         f" cap); this element has a term L^k Ls^l of degree {k + l}")


@lru_cache(maxsize=1024)
def uv_table(k: int, l: int) -> tuple[Row, ...]:
    """L^k Ls^l in U,V order, as rows ``(p, q, h-degree, re, im)``.

    A row stands for the term ``(re + i im) h^d U^p V^q``.  The table is 1
    multiplied on the right by U + iV k times and by U - iV l times, in a
    loop, each new U moved left with ``V^q U = U V^q - i h q V^(q-1)``.
    A table past ``k + l = UV_TABLE_CAP`` raises ValueError, before any work.
    """
    _check_cap(k, l)
    acc = {(0, 0, 0): (1, 0)}
    for s in [1] * k + [-1] * l:
        acc = _accumulate({}, (
            t
            for (p, q, d), (re, im) in acc.items()
            for t in (
                ((p + 1, q, d), re, im),
                ((p, q + 1, d), -s * im, s * re),
                ((p, q - 1, d + 1), q * im, -q * re),  # zero when q == 0
            )
            if t[1] or t[2]
        ))
    return tuple((p, q, d, re, im) for (p, q, d), (re, im) in acc.items() if re or im)


@lru_cache(maxsize=1024)
def uv_table_h_free(k: int, l: int) -> tuple[Row, ...]:
    """The h-free rows of :func:`uv_table`, with its cap: the commutative (U + iV)^k (U - iV)^l,
    whose U^(k+l-q) V^q has the coefficient i^q sum_(a+b=q) C(k, a) C(l, b) (-1)^b."""
    _check_cap(k, l)
    sums = ((q, sum(comb(k, a) * comb(l, q - a) * (-1) ** (q - a) for a in range(q + 1)))
            for q in range(k + l + 1))
    return tuple((k + l - q, q, 0) + ((c, 0), (0, c), (-c, 0), (0, -c))[q % 4] for q, c in sums if c)


def _products(acc: dict, a: Iterable[Row], b: Sequence[Row]) -> dict:
    """Add the normal-ordered product of two row lists, over the product of
    their denominators, into the accumulator ``acc``; L^k1 times L^k2
    Ls^l2, a left row without Ls, is normal ordered already."""
    get = acc.get
    for k1, l1, d1, ar, ai in a:
        if not l1:
            for k2, l2, d2, br, bi in b:
                key, re, im = (k1 + k2, l2, d1 + d2), ar * br - ai * bi, ar * bi + ai * br
                cur = get(key)
                acc[key] = (re, im) if cur is None else (cur[0] + re, cur[1] + im)
            continue
        for k2, l2, d2, br, bi in b:
            re, im = ar * br - ai * bi, ar * bi + ai * br
            k, l, d = k1 + k2, l1 + l2, d1 + d2
            for j, c in _reorder(l1, k2):
                key = (k - j, l - j, d + j)
                cur = get(key)
                acc[key] = (c * re, c * im) if cur is None else (cur[0] + c * re, cur[1] + c * im)
    return acc


class WeylElement(Flat):
    """An algebra element in normal-ordered canonical form.

    ``rows`` are ``(k, l, h-degree, re, im)`` (L power, Ls power, h power,
    coefficient numerator), sorted by ``(k + l, k, h-degree)``, over
    ``den``: the kernel's flat form (:class:`~weylmin.scalars.Flat`), with
    the normal-ordered product.  ``terms`` is the same element as ``((k,
    l), HbarPoly)`` pairs, built on access.
    """

    __slots__ = ()
    _fields = ("rows", "den")
    COEFF = HbarPoly
    LIFTS = (HbarPoly, GaussRational, int, Fraction)
    OUTER = 2
    ORDER = staticmethod(_by_total_degree)

    @property
    def terms(self) -> tuple[tuple[Bidegree, HbarPoly], ...]:
        """``((k, l), HbarPoly)`` pairs sorted by ``(k + l, k)``."""
        return self._view()

    @staticmethod
    def basis(k: int, l: int, coeff: HbarLike = 1) -> "WeylElement":
        return WeylElement({(k, l): coeff})

    # -- basic structure -------------------------------------------------

    def degree(self) -> int:
        """Maximal total degree k + l; -1 for the zero element."""
        return self.rows[-1][0] + self.rows[-1][1] if self.rows else -1

    def term(self, k: int, l: int) -> HbarPoly:
        return self.COEFF._wrap([r[2:] for r in self.rows if r[:2] == (k, l)], self.den)

    def bidegrees(self) -> tuple[Bidegree, ...]:
        return tuple(dict.fromkeys((k, l) for k, l, *_ in self.rows))

    def is_holomorphic(self) -> bool:
        """True when no Ls power occurs (all bidegrees are (k, 0))."""
        return all(not l for _, l, *_ in self.rows)

    # -- ring operations -------------------------------------------------

    def __mul__(self, other: "WeylLike") -> "WeylElement":
        o = self._try(other)
        return NotImplemented if o is None else self._mul(o)

    def _mul(self, o: "WeylElement") -> "WeylElement":
        return WeylElement._new(_products({}, self.rows, o.rows), self.den * o.den)

    # -- involution ------------------------------------------------------

    def star(self) -> "WeylElement":
        """The antihomomorphic involution: (L^k Ls^l)* = L^l Ls^k."""
        return WeylElement._new({(l, k, d): (re, -im) for k, l, d, re, im in self.rows}, self.den)

    def is_hermitian(self) -> bool:
        # (L^k Ls^l)* = L^l Ls^k with the conjugate coefficient.
        return set(self.rows) == {(l, k, d, re, -im) for k, l, d, re, im in self.rows}

    def real_part(self) -> "WeylElement":
        """Re A = (A + A*)/2, always hermitian: the rows and their adjoints,
        ``(l, k, d, re, -im)``, added in one accumulator over ``2 den``."""
        acc = {(k, l, d): (re, im) for k, l, d, re, im in self.rows}
        adjoint = (((l, k, d), re, -im) for k, l, d, re, im in self.rows)
        return WeylElement._new(_accumulate(acc, adjoint), 2 * self.den)

    def imag_part(self) -> "WeylElement":
        """Im A = (A - A*)/(2i) = Re(-iA), always hermitian."""
        return self.scale(-GR_I).real_part()

    # -- calculus --------------------------------------------------------

    def derive(self, direction: Direction) -> "WeylElement":
        """d takes L^k Ls^l to k L^(k-1) Ls^l and dbar to l L^k Ls^(l-1), each
        a row map; u = d + dbar and v = i(d - dbar) are formed from them."""
        if direction is Direction.D:
            return self._diff(0)
        if direction is Direction.DBAR:
            return self._diff(1)
        if direction is Direction.U:
            return self._diff(0) + self._diff(1)
        if direction is Direction.V:
            return (self._diff(0) - self._diff(1)).scale(GR_I)
        raise ValueError(f"unknown direction {direction!r}")

    def laplace(self) -> "WeylElement":
        """The flat Laplacian lap = 4 d dbar = d_u^2 + d_v^2: one row map,
        L^k Ls^l to 4kl L^(k-1) Ls^(l-1), which keeps the row order."""
        return self._wrap([(k - 1, l - 1, d, 4 * k * l * re, 4 * k * l * im)
                           for k, l, d, re, im in self.rows if k and l], self.den)

    def shift_hbar(self, j: int) -> "WeylElement":
        """Multiply every coefficient by h**j (j < 0 must divide exactly)."""
        return self._shift_hbar(j)

    def __str__(self) -> str:
        from .render import weyl_text

        return weyl_text(self)


WeylLike = Union[WeylElement, HbarPoly, GaussRational, int, Fraction]

_MINUS_HALF_I = GaussRational(0, Fraction(-1, 2))

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


def coefficients(a: WeylElement) -> dict[Bidegree, Coeff]:
    """The flat form as ``{(k, l): [(h-degree, re_num, re_den, im_num,
    im_den), ...]}`` (:func:`~weylmin.scalars.grouped`'s integer records),
    bidegrees by ``(k + l, k)`` and h-degrees ascending."""
    return grouped(a.rows, a.den, 2)


def _uv_acc(a: WeylElement, h_free: bool = False) -> dict:
    """The element in U,V order, as an accumulator keyed by ``(p, q,
    h-degree)`` over ``a.den``.  With ``h_free`` only the h-free part, the
    classical limit, is formed, from the h-free rows alone (no row of
    :func:`uv_table` lowers the h-degree) and :func:`uv_table_h_free`."""
    table = uv_table_h_free if h_free else uv_table
    return _accumulate({}, (
        ((p, q, d + e), re * tr - im * ti, re * ti + im * tr)
        for k, l, d, re, im in a.rows
        if not (h_free and d)
        for p, q, e, tr, ti in table(k, l)
    ))


def uv_coefficients(a: WeylElement, h_free: bool = False) -> dict[Bidegree, Coeff]:
    """The element in U,V order (:func:`_uv_acc`), as the integer records
    of :func:`coefficients` with ``(p, q)`` by ``(p + q, -p)``."""
    rows = sorted(((p, q, d, re, im) for (p, q, d), (re, im) in _uv_acc(a, h_free).items()
                   if re or im), key=lambda r: (r[0] + r[1], -r[0], r[2]))
    return grouped(rows, a.den, 2)


def commutator(a: WeylElement, b: WeylElement) -> WeylElement:
    return a * b - b * a


def bilinear(xs: Sequence[WeylElement], ys: Sequence[WeylElement]) -> WeylElement:
    """The symmetrized form <X, Y> = (1/2) sum (X^i Y^i + Y^i X^i), with
    every product in one accumulator; X and Y must have equal length."""
    if len(xs) != len(ys):
        raise ValueError("vectors must have equal length")
    (rx, dx), (ry, dy) = _common(xs), _common(ys)
    acc: dict = {}
    for a, b in zip(rx + ry, ry + rx):
        _products(acc, a, b)
    return WeylElement._new(acc, 2 * dx * dy)


def partial_square_sum(xs: Sequence[WeylElement], axis: int) -> tuple[dict, int]:
    """sum_i (x_i')^2, x_i' = d x_i (``axis`` 0) or dbar x_i (1), as one accumulator over den^2:
    :func:`bilinear` of the derivatives with themselves, one product each and no element built,
    each x_i rescaled to the common denominator den of ``xs`` and mapped by the row map on the fly."""
    den = lcm(*(x.den for x in xs))
    acc: dict = {}
    for x in xs:
        m = den // x.den
        rows = ([(k, l - 1, d, w * re, w * im) for k, l, d, re, im in x.rows if (w := m * l)] if axis
                else [(k - 1, l, d, w * re, w * im) for k, l, d, re, im in x.rows if (w := m * k)])
        _products(acc, rows, rows)
    return acc, den * den


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
    total = ZERO
    for j in range(min(k, l) + 1):
        c = comb(k + l, k) * factorial(j) * comb(k, j) * comb(l, j) * _MINUS_HALF_I**j
        total = total + (U ** (k - j) * V ** (l - j)).scale(HbarPoly.hbar(j, c))
    return total
