"""Exact scalars and the one sparse-polynomial kernel.

Every exact type of the package is assembled from three pieces here:

* :class:`Ring` and :class:`Field` -- the operator mixins.  A type names
  the scalar types it embeds (``LIFTS``) and how it embeds one
  (``_lift``), and implements ``_add``, ``_mul`` and ``__neg__`` on its
  own type (plus ``inverse`` for a field).  The mixin supplies
  ``coerce``, the binary and reflected operators, ``/`` for fields, and
  ``**`` by repeated squaring.
* :class:`Flat` -- the one stored form of every exact scalar and
  polynomial type: rows ``(*key, re, im)`` of Gaussian-integer numerators
  over one positive denominator, with one canonicaliser, one sum, the
  commutative product and the order-keeping row maps.  GaussRational (the
  empty key), HbarPoly (key: the h-degree), PolyLambda (L-degree,
  h-degree), UVPoly (u-degree, v-degree) and WeylElement (L-degree,
  Ls-degree, h-degree) differ only in key length and product.  Their
  coefficients (GaussRational or HbarPoly) are views built on access.
* :class:`Poly` -- univariate polynomials over either coefficient type,
  with the one derivative and division, and the one gcd, :func:`hp_gcd`,
  over a coefficient field or over HbarPoly.

The scalars of the package, all exact, are three of these types:

* :class:`GaussRational` -- complex numbers a + b*i with rational parts,
  the Flat of at most one row ``(a, b)`` over its denominator; the public
  scalar and the coefficient view of HbarPoly and UVPoly.
* :class:`HbarPoly` -- polynomials in the central hermitian parameter ``h``
  over GaussRational.  ``h`` is formal, so identities proved here hold for
  every numerical value of the parameter.
* :class:`HbarRat` -- quotients of two HbarPoly, the field of
  h-rationals.  It is public API only: the Lambda-rational calculus
  works fraction-free over HbarPoly and never builds one.

Both fields of fractions of the package, HbarRat and the Lambda-rationals
of :mod:`weylmin.holomorphic`, are one :class:`Quotient` over their ring,
which reduces sums and products by cross gcds, as Henrici does for
rationals (J. ACM 3 (1956); Knuth, TAOCP vol. 2, 4.5.1; cited only).

Everything is immutable and hashable; equality is equality of canonical
forms.  :class:`Frozen`, the base of every value type of the package,
gives that behaviour from ``__slots__`` without the cost of importing
:mod:`dataclasses`.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Iterable, Optional, Sequence, Union

Rational = Union[int, Fraction]


class Frozen:
    """An immutable record: the base of every value type of the package.

    A subclass lists its attributes in ``_fields``, usually as its
    ``__slots__`` too, and sets them in ``__init__`` with ``_init_fields``
    or ``object.__setattr__``; afterwards they are read-only.  Two records are
    equal when they have the same class and equal field tuples, the hash is
    the hash of the field tuple, and the repr lists the fields.  The flat
    types (:class:`Flat`) override ``__eq__`` with their stored form, which
    is canonical; their ``_fields`` name views read off that form (the
    ``coeffs`` of a Poly, the ``re`` and ``im`` of a GaussRational).
    """

    __slots__ = ()
    _fields: tuple = ()

    def _init_fields(self, *values) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state) -> None:
        """Restore the ``(None, {slot: value})`` state that pickle and copy take."""
        for name, value in state[1].items():
            object.__setattr__(self, name, value)


class Ring(Frozen):
    """Operators shared by every exact type.

    Binary operators lift a scalar operand (an instance of one of
    ``LIFTS``) with ``_lift`` and return NotImplemented for anything else,
    so ``2 * x`` and ``x * 2`` both work.
    """

    __slots__ = ()
    LIFTS: tuple = ()

    @classmethod
    def _lift(cls, x):
        return cls(x)

    @classmethod
    def _try(cls, x):
        if isinstance(x, cls):
            return x
        if isinstance(x, cls.LIFTS):
            return cls._lift(x)
        return None

    @classmethod
    def coerce(cls, x):
        o = cls._try(x)
        if o is None:
            raise TypeError(f"cannot use {type(x).__name__} as {cls.__name__}")
        return o

    def __add__(self, other):
        o = self._try(other)
        return NotImplemented if o is None else self._add(o)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._try(other)
        return NotImplemented if o is None else self._add(-o)

    def __rsub__(self, other):
        o = self._try(other)
        return NotImplemented if o is None else o._add(-self)

    def __mul__(self, other):
        o = self._try(other)
        return NotImplemented if o is None else self._mul(o)

    def __rmul__(self, other):
        o = self._try(other)
        return NotImplemented if o is None else o * self

    def __pow__(self, n: int):
        """``self**n`` by repeated squaring; a negative n needs a Field.

        The product starts from the first factor, not from one, so ``x**2``
        is a single multiplication.
        """
        if n < 0:
            if not isinstance(self, Field):
                raise ValueError(f"negative power of a {type(self).__name__}")
            return self.inverse() ** -n
        if not n:
            return self._lift(1)
        out, base = None, self
        while True:
            if n & 1:
                out = base if out is None else out * base
            n >>= 1
            if not n:
                return out
            base = base * base


class Field(Ring):
    """A Ring whose nonzero elements have an ``inverse``."""

    __slots__ = ()

    def __truediv__(self, other):
        o = self._try(other)
        return NotImplemented if o is None else self._mul(o.inverse())

    def __rtruediv__(self, other):
        o = self._try(other)
        return NotImplemented if o is None else o._mul(self.inverse())


# The flat form: rows (*key, re, im) of Gaussian-integer numerators over one denominator.
Row = tuple


def _gauss(c) -> Optional[tuple[int, int, int]]:
    """A Gaussian scalar (an int, Fraction or GaussRational) as ``(a, b, q)``
    with ``c = (a + b*i)/q`` and ``q > 0``; None for anything else."""
    if isinstance(c, GaussRational):
        return c.rows[0] + (c.den,) if c.rows else (0, 0, 1)
    if isinstance(c, (int, Fraction)):
        return c.numerator, 0, c.denominator
    return None


def _key_length(cls) -> int:
    """The row key length of ``cls``: its monomial and its coefficient's key;
    a type with no monomial (GaussRational) has no coefficient."""
    return cls.OUTER and cls.OUTER + _key_length(cls.COEFF)


def _accumulate(acc: dict, items: Iterable[tuple[tuple, int, int]]) -> dict:
    """Add each ``(key, re, im)`` into ``acc``, a dict of numerator pairs."""
    for key, re, im in items:
        cur = acc.get(key)
        acc[key] = (re, im) if cur is None else (cur[0] + re, cur[1] + im)
    return acc


def _common(elems: Sequence["Flat"]) -> tuple[list[tuple[Row, ...]], int]:
    """The rows of each element, rescaled to their least common denominator."""
    den = lcm(*(e.den for e in elems))
    return [e.rows if e.den == den else tuple(
        r[:-2] + (r[-2] * (den // e.den), r[-1] * (den // e.den)) for r in e.rows
    ) for e in elems], den


def _convolve(a: Sequence[Row], b: Sequence[Row]) -> dict:
    """The commutative product of two row lists with keys of length 1 or 2,
    as an accumulator over the product of their denominators."""
    acc: dict = {}
    get = acc.get
    if a and len(a[0]) == 3:
        pairs = (((x + y,), ar, ai, br, bi) for x, ar, ai in a for y, br, bi in b)
    else:
        pairs = (((x1 + y1, x2 + y2), ar, ai, br, bi)
                 for x1, x2, ar, ai in a for y1, y2, br, bi in b)
    for key, ar, ai, br, bi in pairs:
        re, im = ar * br - ai * bi, ar * bi + ai * br
        cur = get(key)
        acc[key] = (re, im) if cur is None else (cur[0] + re, cur[1] + im)
    return acc


def grouped(rows: Iterable[Row], den: int, n: int) -> dict[tuple, "Coeff"]:
    """Rows ``(*monomial, h-degree, re, im)`` over ``den`` grouped by their
    first ``n`` entries, the monomial, in row order, as :data:`Coeff`
    records: each part re/den and im/den in lowest terms, one gcd each
    (none when ``den`` is 1), a zero part ``(0, 1)``."""
    out: dict = {}
    for r in rows:
        a, b = r[n + 1], r[n + 2]
        g, h = (1, 1) if den == 1 else (gcd(a, den), gcd(b, den))
        out.setdefault(r[:n], []).append((r[n], a // g, den // g, b // h, den // h))
    return out


# A coefficient as the writers read it: records (h-degree, re_num, re_den,
# im_num, im_den) of integers, each part in lowest terms with a positive
# denominator.
Coeff = list[tuple[int, int, int, int, int]]


def _by_total_degree(row: Row) -> tuple:
    return row[0] + row[1], row


class Flat(Ring):
    """A sparse polynomial in the one flat form of the package.

    ``rows`` are ``(*key, re, im)``: a monomial's exponents, then those of
    its coefficient (in ``COEFF``), then the Gaussian-integer numerator,
    over the positive ``den``.  The key is ``()`` for GaussRational,
    ``(d,)`` for HbarPoly, ``(k, d)`` for PolyLambda, ``(p, q)`` for UVPoly
    and ``(k, l, d)`` for WeylElement.  Rows are nonzero with distinct keys, sorted
    by ``ORDER`` (default: the key), and ``den`` is reduced against every
    numerator, so ``==`` is structural.  The first ``OUTER`` key entries
    are the monomial: the constructor takes ``(monomial, coefficient)``
    pairs, and :meth:`_view` gives them back (GaussRational, with no
    monomial, takes its two parts instead).  The sum and the product build
    one accumulator, a dict of numerator pairs keyed by ``key``, and
    :meth:`_store` is the one canonicaliser.  The product is the
    commutative one unless a subclass overrides ``_mul``.  The row maps
    (:meth:`scale`, :meth:`_diff`, :meth:`_shift_hbar`) keep the row order
    and so go through :meth:`_wrap`, with no accumulator and no sort.
    """

    __slots__ = ("rows", "den")
    rows: tuple[Row, ...]
    den: int
    OUTER = 1
    ORDER: Optional[Callable] = None
    _NEGATIVE = "negative monomial degree"

    def __init__(self, items: Union[Mapping, Iterable[tuple]] = ()) -> None:
        if isinstance(items, Mapping):
            items = items.items()
        pairs = [(k if type(k) is tuple else (k,), self.COEFF.coerce(c)) for k, c in items]
        rows, den = _common([c for _, c in pairs])
        self._store(_accumulate({}, ((k + r[:-2], r[-2], r[-1])
                                     for (k, _), rs in zip(pairs, rows) for r in rs)), den)
        if any(x < 0 for r in self.rows for x in r[:-2]):
            raise ValueError(self._NEGATIVE)

    def _store(self, acc: dict, den: int):
        """Set the canonical rows of the accumulator ``acc`` over ``den > 0``."""
        rows = [key + nums for key, nums in acc.items() if nums[0] or nums[1]]
        rows.sort(key=self.ORDER)
        return self._set(rows, den)

    def _set(self, rows: Sequence[Row], den: int):
        """Set rows that are sorted and nonzero, dividing out their gcd with ``den``."""
        g = den
        for r in rows:
            if g == 1:
                break
            g = gcd(g, r[-2], r[-1])
        if g > 1:
            rows = [r[:-2] + (r[-2] // g, r[-1] // g) for r in rows]
        object.__setattr__(self, "rows", tuple(rows))
        object.__setattr__(self, "den", den // g)
        return self

    @classmethod
    def _new(cls, acc: dict, den: int):
        """The canonical element of the accumulator ``acc`` over ``den``."""
        return object.__new__(cls)._store(acc, den)

    @classmethod
    def _wrap(cls, rows: Sequence[Row], den: int):
        """The element of rows that are already sorted and nonzero."""
        return object.__new__(cls)._set(rows, den)

    @classmethod
    def _lift(cls, x):
        """The constant ``x``; a Gaussian scalar (a + b*i)/q is the one row
        ``(0, ..., 0, a, b)`` over q, built directly."""
        g = _gauss(x)
        if g is None:
            return cls((((0,) * cls.OUTER, x),))
        a, b, q = g
        return cls._wrap([(0,) * _key_length(cls) + (a, b)] if a or b else [], q)

    def __eq__(self, o):
        if o.__class__ is not self.__class__:
            return NotImplemented
        return self.rows == o.rows and self.den == o.den

    __hash__ = Frozen.__hash__

    def _view(self) -> tuple:
        """``(monomial, coefficient)`` pairs, the coefficients in ``COEFF``."""
        groups: dict = {}
        for r in self.rows:
            groups.setdefault(r[:self.OUTER], []).append(r[self.OUTER:])
        return tuple((key, self.COEFF._wrap(inner, self.den)) for key, inner in groups.items())

    def is_zero(self) -> bool:
        return not self.rows

    def _add(self, o):
        (a, b), den = _common((self, o))
        return self._new(_accumulate({}, ((r[:-2], r[-2], r[-1]) for r in a + b)), den)

    def __neg__(self):
        return self._wrap([r[:-2] + (-r[-2], -r[-1]) for r in self.rows], self.den)

    def _mul(self, o):
        return self._new(_convolve(self.rows, o.rows), self.den * o.den)

    def _diff(self, axis: int):
        """The derivative in key entry ``axis``: a row with exponent e > 0
        there gets e - 1 and its numerator times e, the others drop.  Every
        kept row loses 1 at ``axis``, so the rows keep their order."""
        return self._wrap([r[:axis] + (e - 1,) + r[axis + 1:-2] + (e * r[-2], e * r[-1])
                           for r in self.rows if (e := r[axis])], self.den)

    def _shift_hbar(self, j: int):
        """The product with h**j (j < 0 must divide exactly): j added to the
        last key entry, the h-degree of HbarPoly, PolyLambda and WeylElement,
        which keeps the row order.  GaussRational and UVPoly must never call
        it: their last key entry is not an h-degree."""
        if any(r[-3] + j < 0 for r in self.rows):
            raise ValueError("not divisible by the requested power of h")
        return self._wrap([r[:-3] + (r[-3] + j,) + r[-2:] for r in self.rows], self.den)

    def scale(self, c):
        """The product with the coefficient ``c``.  A Gaussian scalar (an int,
        Fraction or GaussRational) (a + b*i)/q is a row map: each numerator
        times a + b*i, over ``den * q``; the keys stay, so the rows stay
        sorted and nonzero.  Any other ``c`` is lifted and multiplied."""
        g = _gauss(c)
        if g is None:
            return self._mul(self._lift(c))
        a, b, q = g
        return self._wrap([r[:-2] + (a * r[-2] - b * r[-1], a * r[-1] + b * r[-2])
                           for r in self.rows] if a or b else [], self.den * q)


class GaussRational(Flat, Field):
    """Exact complex number ``re + im*i`` with rational components.

    The Flat with the empty key: at most one row ``(a, b)`` over ``den``,
    read as ``(a + b*i)/den``.  Negation and ``scale`` are the kernel's,
    the sum adds the one row directly, and ``re`` and ``im`` are Fractions
    read off the row.
    """

    __slots__ = ()
    _fields = ("re", "im")
    OUTER = 0
    LIFTS = (int, Fraction)

    def __init__(self, re: Rational = 0, im: Rational = 0) -> None:
        for x in (re, im):
            if not isinstance(x, (int, Fraction)):
                raise TypeError(f"expected int or Fraction, got {type(x).__name__}")
        q = lcm(re.denominator, im.denominator)
        a, b = re.numerator * (q // re.denominator), im.numerator * (q // im.denominator)
        self._set([(a, b)] if a or b else [], q)

    re = property(lambda self: Fraction(self.rows[0][0] if self.rows else 0, self.den))
    im = property(lambda self: Fraction(self.rows[0][1] if self.rows else 0, self.den))

    def _add(self, o) -> "GaussRational":
        """The one-row sum over the shared or the product denominator,
        reduced once by ``_wrap``."""
        if not (self.rows and o.rows):
            return self if self.rows else o
        (a, b), (c, d), p, q = self.rows[0], o.rows[0], self.den, o.den
        if p != q:
            a, b, c, d, p = a * q, b * q, c * p, d * p, p * q
        return self._wrap([(a + c, b + d)] if a + c or b + d else [], p)

    # The product of two Gaussian scalars is scale's row map, over den * den'.
    _mul = Flat.scale

    def inverse(self) -> "GaussRational":
        """``d*(a - b*i)/(a^2 + b^2)`` for ``(a + b*i)/d``."""
        if not self.rows:
            raise ZeroDivisionError("inverse of zero GaussRational")
        (a, b), d = self.rows[0], self.den
        return self._wrap([(d * a, -d * b)], a * a + b * b)

    def conjugate(self) -> "GaussRational":
        return self._wrap([(a, -b) for a, b in self.rows], self.den)

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __str__(self) -> str:
        re, im = self.re, self.im
        if not im:
            return str(re)
        if not re:
            return f"{im}*i"
        sign = "+" if im >= 0 else "-"
        return f"({re} {sign} {abs(im)}*i)"


GaussLike = Union[GaussRational, int, Fraction]

GR_ZERO = GaussRational(0)
GR_ONE = GaussRational(1)
GR_I = GaussRational(0, 1)


class Poly(Flat):
    """Univariate polynomial over the coefficient type ``COEFF``: rows
    ``(degree, *coefficient key, re, im)``, read as ``(degree,
    coefficient)`` pairs through ``coeffs``.  Subclasses set ``COEFF`` and
    ``LIFTS``.
    """

    __slots__ = ()
    _fields = ("coeffs",)
    _NEGATIVE = "negative degree"

    @property
    def coeffs(self) -> tuple:
        """``(degree, coefficient)`` pairs by degree, built on access."""
        return tuple((k, c) for (k,), c in self._view())

    const = classmethod(lambda cls, c: cls._lift(c))

    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return self.rows[-1][0] if self.rows else -1

    def leading(self):
        return self.coeff(self.degree())

    def coeff(self, deg: int):
        return self.COEFF._wrap([r[1:] for r in self.rows if r[0] == deg], self.den)

    def derivative(self):
        return self._diff(0)

    def integral(self):
        """The primitive without constant term."""
        m = lcm(*{r[0] + 1 for r in self.rows})
        return self._wrap([(r[0] + 1,) + r[1:-2] + (r[-2] * (f := m // (r[0] + 1)), r[-1] * f)
                           for r in self.rows], self.den * m)

    def divmod_poly(self, other):
        """Euclidean division: ``(q, r)`` with self = q*other + r, deg r < deg other.

        Each step subtracts a monomial multiple of ``other`` in the flat
        form.  Over a field (HbarPoly) a step is a row map: for the leading
        numerators z of the remainder and u of ``other``, the remainder's rows
        times |u|^2 less ``other``'s, shifted, times z*conj(u).  Over a
        coefficient ring that is not a field (PolyLambda's HbarPoly) each
        quotient coefficient is an exact division, which succeeds whenever q
        lies in the ring: when ``other`` divides ``self`` and is primitive,
        or when ``self`` is premultiplied by a power of the leading
        coefficient (pseudo-division).  Otherwise ValueError.
        """
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        db, lb = other.degree(), other.leading()
        quo, rem = self._wrap([], 1), self
        if isinstance(lb, Field):
            (_, br, bi), terms = other.rows[-1], []
            while rem.rows and rem.rows[-1][0] >= db:
                (top, re, im), n = rem.rows[-1], br * br + bi * bi
                gap, wr, wi = top - db, re * br + im * bi, im * br - re * bi
                terms.append((gap, wr * other.den, wi * other.den, rem.den * n))
                rem = self._new(_accumulate({(d,): (x * n, y * n) for d, x, y in rem.rows[:-1]}, (
                    ((d + gap,), wi * y - wr * x, -wr * y - wi * x) for d, x, y in other.rows[:-1]
                )), rem.den * n)
            m = lcm(*(q for *_, q in terms))
            return self._wrap([(g, a * m // q, b * m // q) for g, a, b, q in terms[::-1]], m), rem
        while rem.degree() >= db:
            c = hp_exact_div(rem.leading(), lb)
            step = self._wrap([(rem.degree() - db,) + r for r in c.rows], c.den)
            quo, rem = quo + step, rem - step * other
        return quo, rem

    def monic(self):
        """Divided by its :func:`content`: the normal form up to a unit."""
        return cancel(self, content(self)) if self.rows else self


def content(lead: Poly, *rest: Poly):
    """The joint content, which :func:`cancel` divides out: over a field the
    leading coefficient of ``lead``; over HbarPoly the monic gcd of every
    coefficient, scaled to leave the leading coefficient of ``lead`` monic."""
    lc = lead.leading()
    if isinstance(lc, Field):
        return lc
    c = lc.__class__()
    for x in (x for p in (lead, *rest) for _, x in p.coeffs):
        c = hp_gcd(c, x)
        if not c.degree():
            break
    return c.scale(lc.leading())


def cancel(p: Poly, c) -> Poly:
    """``p`` with every coefficient divided exactly by ``c``."""
    if c == p.COEFF.coerce(1):
        return p
    if isinstance(c, Field):
        return p.scale(c.inverse())
    return type(p)((d, hp_exact_div(x, c)) for d, x in p.coeffs)


def hp_gcd(a: Poly, b: Poly) -> Poly:
    """The gcd over the coefficients' field of fractions, in normal form, by
    the primitive remainder sequence (Collins 1967; Brown 1971): each
    pseudo-remainder is divided by its content.  Over a field that is
    Euclid with monic remainders."""
    if not a.degree():
        return a._lift(1)
    while not b.is_zero():
        if not b.degree():
            return b._lift(1)
        if not isinstance(b.leading(), Field):
            a = a.scale(b.leading() ** max(a.degree() - b.degree() + 1, 0))
        a, b = b, a.divmod_poly(b)[1].monic()
    return a.monic()


def hp_exact_div(a: Poly, b: Poly) -> Poly:
    q, r = a.divmod_poly(b)
    if not r.is_zero():
        raise ValueError("inexact polynomial division")
    return q


def _divide_out(p: Poly, g: Poly) -> Poly:
    """``p / g`` for a gcd ``g`` of ``p``; a constant gcd is one and leaves ``p``."""
    return hp_exact_div(p, g) if g.degree() > 0 else p


class HbarPoly(Poly):
    """Polynomial in the central parameter ``h`` over GaussRational."""

    __slots__ = ()
    COEFF = GaussRational
    LIFTS = (GaussRational, int, Fraction)

    @staticmethod
    def hbar(deg: int = 1, c: GaussLike = 1) -> "HbarPoly":
        return HbarPoly({deg: c})

    def conjugate(self) -> "HbarPoly":
        """Complex-conjugate coefficients; h itself is hermitian and fixed."""
        return self._wrap([(d, re, -im) for d, re, im in self.rows], self.den)

    def shift(self, j: int) -> "HbarPoly":
        """Multiply by h**j (j may be negative if every degree allows it)."""
        return self._shift_hbar(j)

    def evaluate(self, hbar: float) -> complex:
        """Numerical value at a concrete hbar."""
        return sum((complex(c) * hbar**d for d, c in self.coeffs), 0j)

    def __str__(self) -> str:
        if not self.rows:
            return "0"
        parts = []
        for d, c in self.coeffs:
            if d == 0:
                parts.append(str(c))
            elif d == 1:
                parts.append(f"{c}*h")
            else:
                parts.append(f"{c}*h^{d}")
        return " + ".join(parts)


HbarLike = Union[HbarPoly, GaussRational, int, Fraction]

HP_ZERO = HbarPoly()
HP_ONE = HbarPoly.const(1)
HP_HBAR = HbarPoly.hbar()


class Quotient(Field):
    """A reduced quotient ``num / den`` over the polynomial ring ``POLY``.

    A subclass names its ring (``POLY``, with its ``ZERO`` and ``ONE``).
    The canonical form divides out :func:`hp_gcd` of ``num`` and ``den``,
    then their joint :func:`content`, which leaves ``den`` in normal form
    (:meth:`Poly.monic`).  Zero is ``ZERO / ONE``, and ``(num, ONE)`` is
    canonical: polynomials have denominator ``ONE``.  The constructor
    reduces from scratch; ``+`` and ``*`` reduce by cross gcds of the coprime
    operands (Henrici, J. ACM 3 (1956); Knuth, TAOCP 2, 4.5.1; cited only).
    """

    __slots__ = _fields = ("num", "den")
    num: Poly
    den: Poly

    def __init__(self, num, den) -> None:
        n, d = self.POLY.coerce(num), self.POLY.coerce(den)
        if d.is_zero():
            raise ZeroDivisionError(f"zero denominator in {type(self).__name__}")
        g = self.ONE if n.is_zero() or d == self.ONE else hp_gcd(n, d)
        self._init_fields(*self._canonical(_divide_out(n, g), _divide_out(d, g)))

    def _canonical(self, n, d) -> tuple:
        """The coprime pair ``(n, d)`` without its joint :func:`content`; zero as ZERO/ONE."""
        if n.is_zero():
            return self.ZERO, self.ONE
        if d == self.ONE:
            return n, d
        c = content(d, n)
        return cancel(n, c), cancel(d, c)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        """True when the value lies in the polynomial ring (denominator one)."""
        return self.den == self.ONE

    def as_poly(self) -> Poly:
        if not self.is_polynomial():
            raise ValueError(f"{type(self).__name__} value is not a polynomial")
        return self.num

    def _add(self, o):
        """a/b + c/d: for g = gcd(b, d), t = a(d/g) + c(b/g) and g2 = gcd(t, g),
        t/g2 over (b/g)(d/g2) is coprime."""
        (a, b), (c, d) = (self.num, self.den), (o.num, o.den)
        if b == self.ONE == d:
            return self._reduced(a + c, self.ONE)
        g = hp_gcd(b, d)
        bg = _divide_out(b, g)
        t = a * _divide_out(d, g) + c * bg
        g2 = hp_gcd(t, g)
        return self._reduced(*self._canonical(_divide_out(t, g2), bg * _divide_out(d, g2)))

    def _reduced(self, num, den):
        """The quotient of a pair already in canonical form, built as is."""
        out = object.__new__(type(self))
        out._init_fields(num, den)
        return out

    def __neg__(self):
        return self._reduced(-self.num, self.den)

    def _mul(self, o):
        """(a/b)(c/d): of coprime pairs only gcd(a, d) and gcd(c, b) cancel."""
        (a, b), (c, d) = (self.num, self.den), (o.num, o.den)
        if b == self.ONE == d:
            return self._reduced(a * c, self.ONE)
        g, h = hp_gcd(a, d), hp_gcd(c, b)
        return self._reduced(*self._canonical(_divide_out(a, g) * _divide_out(c, h),
                                              _divide_out(b, h) * _divide_out(d, g)))

    def inverse(self):
        """The swapped pair, coprime already: only its joint content is
        divided out, which leaves the new denominator in normal form."""
        if self.is_zero():
            raise ZeroDivisionError(f"inverse of zero {type(self).__name__}")
        c = content(self.num, self.den)
        return self._reduced(cancel(self.den, c), cancel(self.num, c))


class HbarRat(Quotient):
    """Quotient of h-polynomials, reduced, with a monic denominator; public
    API only (see the module docstring)."""

    __slots__ = ()
    POLY, ZERO, ONE = HbarPoly, HP_ZERO, HP_ONE
    LIFTS = (POLY, *POLY.LIFTS)

    def __init__(self, num: HbarLike, den: HbarLike = HP_ONE) -> None:
        super().__init__(num, den)

    def __str__(self) -> str:
        if self.is_polynomial():
            return str(self.num)
        return f"({self.num})/({self.den})"
