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

An element is stored in one flat form: rows ``(k, l, h-degree, re, im)``
of Gaussian-integer numerators over one denominator.  Every operation
builds one accumulator, a dict of numerator pairs keyed by
``(k, l, h-degree)``, from which the canonical rows are rebuilt.  The
product adds each (row pair, reordering term) into it in a plain loop
(:func:`_products`), and :func:`symmetric_product_sum` (the surface
layer's bilinear form) puts all its products into one; the other
operations sum their items with :func:`_accumulate`, or build the dict
at once where no two items share a key.  HbarPoly coefficients come in
only through the constructor.  Everything else reads the flat form through
:func:`coefficients` or its U,V-ordered twin :func:`uv_coefficients`, one
integer accumulation of the rows times their :func:`uv_table` rows; both
give ``{(k, l): [(h-degree, re, im), ...]}`` with Fraction parts.  The
``terms`` view, text and JSON read the first; LaTeX, and the classical
limit as its h-free part, the second.

The four derivations act on basis monomials by

    d    : L^k Ls^l -> k L^(k-1) Ls^l        (complex direction)
    dbar : L^k Ls^l -> l L^k Ls^(l-1)
    u = d + dbar,   v = i (d - dbar)         (real directions)

and agree with the inner-derivation formulas ``d_u A = (1/ih)[A, V]`` etc.,
which :func:`derive_by_commutator` implements for cross checking.  The
Laplacian is ``lap A = 4 d dbar A = d_u^2 A + d_v^2 A``.
"""

from __future__ import annotations

from collections.abc import Mapping
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd, lcm
from typing import Iterable, Sequence, Union

from .scalars import (
    GR_I,
    GaussLike,
    GaussRational,
    HP_HBAR,
    HP_ZERO,
    HbarLike,
    HbarPoly,
    Ring,
)


class Direction(Enum):
    """Directions for the four canonical derivations."""

    U = "u"
    V = "v"
    D = "d"
    DBAR = "dbar"


# The weights (re, im) of d and dbar in each direction: u = d + dbar, v = i(d - dbar).
_DERIVE_WEIGHTS = {
    Direction.D: ((1, 0), (0, 0)),
    Direction.DBAR: ((0, 0), (1, 0)),
    Direction.U: ((1, 0), (1, 0)),
    Direction.V: ((0, 1), (0, -1)),
}


Bidegree = tuple[int, int]


@lru_cache(maxsize=None)
def _reorder(l: int, m: int) -> tuple[tuple[int, int], ...]:
    # Ls^l L^m = sum_j coef_j h^j L^(m-j) Ls^(l-j) with integer coef_j.
    return tuple(
        (j, factorial(j) * comb(l, j) * comb(m, j) * (-2) ** j)
        for j in range(min(l, m) + 1)
    )


# The flat form: rows (k, l, h-degree, re, im) of integer numerators over one denominator.
Row = tuple[int, int, int, int, int]


def _accumulate(acc: dict, items: Iterable[tuple[tuple, int, int]]) -> dict:
    """Add each ``(key, re, im)`` into ``acc``, a dict of numerator pairs."""
    for key, re, im in items:
        cur = acc.get(key)
        acc[key] = (re, im) if cur is None else (cur[0] + re, cur[1] + im)
    return acc


@lru_cache(maxsize=1024)
def uv_table(k: int, l: int) -> tuple[Row, ...]:
    """L^k Ls^l in U,V order, as rows ``(p, q, h-degree, re, im)``.

    A row stands for the term ``(re + i im) h^d U^p V^q``.  The table is 1
    multiplied on the right by U + iV k times and by U - iV l times, in a
    loop, each new U moved left with ``V^q U = U V^q - i h q V^(q-1)``.
    """
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


def _rows(elems: Sequence["WeylElement"]) -> tuple[list[tuple[Row, ...]], int]:
    """The rows of each element, rescaled to their least common denominator."""
    den = lcm(*(e.den for e in elems))
    return [e.rows if e.den == den else tuple(
        (k, l, d, re * (den // e.den), im * (den // e.den)) for k, l, d, re, im in e.rows
    ) for e in elems], den


def _products(acc: dict, a: Iterable[Row], b: Sequence[Row]) -> dict:
    """Add the normal-ordered product of two row lists, over the product of
    their denominators, into the accumulator ``acc``."""
    get = acc.get
    for k1, l1, d1, ar, ai in a:
        for k2, l2, d2, br, bi in b:
            re, im = ar * br - ai * bi, ar * bi + ai * br
            k, l, d = k1 + k2, l1 + l2, d1 + d2
            for j, c in _reorder(l1, k2):
                key = (k - j, l - j, d + j)
                cur = get(key)
                acc[key] = (c * re, c * im) if cur is None else (cur[0] + c * re, cur[1] + c * im)
    return acc


def _is_hermitian(rows: Iterable[Row]) -> bool:
    # (L^k Ls^l)* = L^l Ls^k with the conjugate coefficient.
    return set(rows) == {(l, k, d, re, -im) for k, l, d, re, im in rows}


def _element(acc: dict, den: int) -> "WeylElement":
    """The canonical element of the accumulator ``acc`` over ``den``."""
    return object.__new__(WeylElement)._store(acc, den)


def _real(acc: dict, den: int) -> "WeylElement":
    """Re P of the accumulator P over ``den``: P plus its adjoint, whose
    ``(l, k, d)`` entry is ``conj P[k, l, d]``, over ``2 den``.  The
    adjoint is added into ``acc`` itself."""
    adjoint = [((l, k, d), re, -im) for (k, l, d), (re, im) in acc.items()]
    return _element(_accumulate(acc, adjoint), 2 * den)


# A coefficient as the writers read it: (h-degree, re, im) with Fraction parts.
Coeff = list[tuple[int, Fraction, Fraction]]


def _grouped(rows: Iterable[Row], den: int) -> dict[Bidegree, Coeff]:
    """Rows over ``den`` grouped by their first two entries, in row order."""
    out: dict = {}
    for k, l, d, re, im in rows:
        out.setdefault((k, l), []).append((d, Fraction(re, den), Fraction(im, den)))
    return out


class WeylElement(Ring):
    """An algebra element in normal-ordered canonical form.

    ``rows`` are ``(k, l, h-degree, re, im)`` (L power, Ls power, h power,
    coefficient numerator), sorted by ``(k + l, k, h-degree)`` without zero
    rows, over the positive ``den``, reduced against all numerators; so
    ``==`` and ``hash`` are structural.  ``terms`` is the same element as
    ``((k, l), HbarPoly)`` pairs, built on access.
    """

    __slots__ = _fields = ("rows", "den")
    rows: tuple[Row, ...]
    den: int
    LIFTS = (HbarPoly, GaussRational, int, Fraction)

    def __init__(
        self,
        terms: Union[
            Mapping[Bidegree, HbarLike], Iterable[tuple[Bidegree, HbarLike]]
        ] = (),
    ) -> None:
        if isinstance(terms, Mapping):
            terms = terms.items()
        polys = [(kl, HbarPoly.coerce(c)) for kl, c in terms]
        if any(k < 0 or l < 0 for (k, l), c in polys if c.coeffs):
            raise ValueError("negative monomial degree")
        den = lcm(*(x.denominator for _, c in polys for _, g in c.coeffs for x in (g.re, g.im)))
        self._store(_accumulate({}, (
            ((k, l, d), *(x.numerator * den // x.denominator for x in (g.re, g.im)))
            for (k, l), c in polys for d, g in c.coeffs
        )), den)

    def _store(self, acc: dict, den: int) -> "WeylElement":
        """Set the canonical rows of the accumulator ``acc`` over ``den > 0``."""
        # (k + l, row) sorts by (k + l, k, h-degree): no two rows share (k, l, d).
        rows = sorted(((k, l, d, re, im) for (k, l, d), (re, im) in acc.items() if re or im),
                      key=lambda r: (r[0] + r[1], r))
        g = gcd(den, *(x for *_, re, im in rows for x in (re, im)))
        if g > 1:
            rows = [(k, l, d, re // g, im // g) for k, l, d, re, im in rows]
        object.__setattr__(self, "rows", tuple(rows))
        object.__setattr__(self, "den", den // g)
        return self

    def __eq__(self, o):
        if o.__class__ is not self.__class__:
            return NotImplemented
        return self.rows == o.rows and self.den == o.den

    def __hash__(self) -> int:
        return hash((self.rows, self.den))

    @property
    def terms(self) -> tuple[tuple[Bidegree, HbarPoly], ...]:
        """``((k, l), HbarPoly)`` pairs sorted by ``(k + l, k)``."""
        return tuple((kl, HbarPoly._of(tuple((d, GaussRational(re, im)) for d, re, im in c)))
                     for kl, c in coefficients(self).items())

    @classmethod
    def _lift(cls, x: HbarLike) -> "WeylElement":
        return cls({(0, 0): x})

    @staticmethod
    def basis(k: int, l: int, coeff: HbarLike = 1) -> "WeylElement":
        return WeylElement({(k, l): coeff})

    # -- basic structure -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.rows

    def degree(self) -> int:
        """Maximal total degree k + l; -1 for the zero element."""
        return self.rows[-1][0] + self.rows[-1][1] if self.rows else -1

    def term(self, k: int, l: int) -> HbarPoly:
        return dict(self.terms).get((k, l), HP_ZERO)

    def bidegrees(self) -> tuple[Bidegree, ...]:
        return tuple(dict.fromkeys((k, l) for k, l, *_ in self.rows))

    def is_holomorphic(self) -> bool:
        """True when no Ls power occurs (all bidegrees are (k, 0))."""
        return all(not l for _, l, *_ in self.rows)

    # -- ring operations -------------------------------------------------

    def _add(self, o: "WeylElement") -> "WeylElement":
        (a, b), den = _rows((self, o))
        return _element(_accumulate({}, (((k, l, d), re, im) for k, l, d, re, im in a + b)), den)

    def __neg__(self) -> "WeylElement":
        return _element({(k, l, d): (-re, -im) for k, l, d, re, im in self.rows}, self.den)

    def __mul__(self, other: "WeylLike") -> "WeylElement":
        o = self._try(other)
        return NotImplemented if o is None else self._mul(o)

    def _mul(self, o: "WeylElement") -> "WeylElement":
        return _element(_products({}, self.rows, o.rows), self.den * o.den)

    def scale(self, c: HbarLike) -> "WeylElement":
        """The product with the central scalar ``c``."""
        return self._mul(self._lift(c))

    # -- involution ------------------------------------------------------

    def star(self) -> "WeylElement":
        """The antihomomorphic involution: (L^k Ls^l)* = L^l Ls^k."""
        return _element({(l, k, d): (re, -im) for k, l, d, re, im in self.rows}, self.den)

    def is_hermitian(self) -> bool:
        return _is_hermitian(self.rows)

    def real_part(self) -> "WeylElement":
        """Re A = (A + A*)/2, always hermitian."""
        return _real({(k, l, d): (re, im) for k, l, d, re, im in self.rows}, self.den)

    def imag_part(self) -> "WeylElement":
        """Im A = (A - A*)/(2i) = Re(-iA), always hermitian."""
        return _real({(k, l, d): (im, -re) for k, l, d, re, im in self.rows}, self.den)

    # -- calculus --------------------------------------------------------

    def derive(self, direction: Direction) -> "WeylElement":
        """d takes L^k Ls^l to k L^(k-1) Ls^l and dbar to l L^k Ls^(l-1);
        u = d + dbar and v = i(d - dbar) weight the two in one pass."""
        try:
            wd, wdbar = _DERIVE_WEIGHTS[direction]
        except KeyError:
            raise ValueError(f"unknown direction {direction!r}") from None
        return _element(_accumulate({}, (
            (key, n * (wr * re - wi * im), n * (wr * im + wi * re))
            for k, l, d, re, im in self.rows
            for key, n, (wr, wi) in (((k - 1, l, d), k, wd), ((k, l - 1, d), l, wdbar))
            if n
        )), self.den)

    def laplace(self) -> "WeylElement":
        """The flat Laplacian lap = 4 d dbar = d_u^2 + d_v^2."""
        return _element({
            (k - 1, l - 1, d): (4 * k * l * re, 4 * k * l * im)
            for k, l, d, re, im in self.rows
            if k and l
        }, self.den)

    def shift_hbar(self, j: int) -> "WeylElement":
        """Multiply every coefficient by h**j (j < 0 must divide exactly)."""
        if any(d + j < 0 for _, _, d, _, _ in self.rows):
            raise ValueError("not divisible by the requested power of h")
        return _element({(k, l, d + j): (re, im) for k, l, d, re, im in self.rows}, self.den)

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
    """The flat form as ``{(k, l): [(h-degree, re, im), ...]}`` with Fraction
    parts, bidegrees by ``(k + l, k)`` and h-degrees ascending."""
    return _grouped(a.rows, a.den)


def uv_coefficients(a: WeylElement, h_free: bool = False) -> dict[Bidegree, Coeff]:
    """The element in U,V order, grouped as :func:`coefficients` groups it
    with ``(p, q)`` by ``(p + q, -p)``.  With ``h_free`` only the h-free
    part, the classical limit, is formed, from the h-free rows alone: no
    row of :func:`uv_table` lowers the h-degree."""
    acc = _accumulate({}, (
        ((p, q, d + e), re * tr - im * ti, re * ti + im * tr)
        for k, l, d, re, im in a.rows
        if not (h_free and d)
        for p, q, e, tr, ti in uv_table(k, l)
        if not (h_free and e)
    ))
    rows = sorted(((p, q, d, re, im) for (p, q, d), (re, im) in acc.items() if re or im),
                  key=lambda r: (r[0] + r[1], -r[0], r[2]))
    return _grouped(rows, a.den)


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
    if all(map(_is_hermitian, rx + ry)):
        for a, b in zip(rx, ry):
            _products(acc, a, b)
        return _real(acc, dx * dy)
    for a, b in zip(rx + ry, ry + rx):
        _products(acc, a, b)
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
    total = ZERO
    for j in range(min(k, l) + 1):
        c = comb(k + l, k) * factorial(j) * comb(k, j) * comb(l, j) * _MINUS_HALF_I**j
        total = total + (U ** (k - j) * V ** (l - j)).scale(HbarPoly.hbar(j, c))
    return total
