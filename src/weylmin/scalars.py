"""Exact scalars and the one sparse-polynomial kernel.

Every exact type of the package is assembled from three pieces here:

* :class:`Ring` and :class:`Field` -- the operator mixins.  A type names
  the scalar types it embeds (``LIFTS``) and how it embeds one
  (``_lift``), and implements ``_add``, ``_mul`` and ``__neg__`` on its
  own type (plus ``inverse`` for a field).  The mixin supplies
  ``coerce``, the binary and reflected operators, ``/`` for fields, and
  ``**`` by repeated squaring.
* :func:`canon` -- the one canonicaliser: sum the coefficients of equal
  keys, drop zero sums, sort.  Integer degrees sort as they are; the
  bivariate types pass :func:`bidegree_order`.
* :class:`Poly` -- univariate polynomials over any coefficient type, with
  the one multiply, derivative, division, :meth:`Poly.monic` and
  :func:`hp_gcd` (the last two need a coefficient field; over a ring
  division works whenever each step divides exactly).

On top of them sit the three scalar layers, all exact:

* :class:`GaussRational` -- complex numbers a + b*i with rational parts,
  the base field for every coefficient in the package.
* :class:`HbarPoly` -- polynomials in the central hermitian parameter ``h``
  over GaussRational.  ``h`` is formal, so identities proved here hold for
  every numerical value of the parameter.
* :class:`HbarRat` -- quotients of two HbarPoly, the field of
  h-rationals.  It is public API only: the Lambda-rational calculus
  works fraction-free over HbarPoly and never builds one.

Both fields of fractions of the package, HbarRat and the Lambda-rationals
of :mod:`weylmin.holomorphic`, are one :class:`Quotient` over their ring.

Everything is immutable and hashable; equality is equality of canonical
forms.  :class:`Frozen`, the base of every value type of the package,
gives that behaviour from ``__slots__`` without the cost of importing
:mod:`dataclasses`.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from typing import Callable, Iterable, Optional, Union

Rational = Union[int, Fraction]


class Frozen:
    """An immutable record: the base of every value type of the package.

    A subclass lists its attributes in ``_fields``, usually as its
    ``__slots__`` too, and sets them in ``__init__`` with ``_init_fields``
    or ``object.__setattr__``; afterwards they are read-only.  Two records are
    equal when they have the same class and equal field tuples, the hash is
    the hash of the field tuple, and the repr lists the fields.  The hot
    types override ``__eq__`` and ``__hash__`` with the same values read
    directly.
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


def canon(
    items: Union[Mapping, Iterable[tuple]],
    order: Optional[Callable] = None,
    coerce: Optional[Callable] = None,
) -> tuple:
    """The canonical tuple of ``(key, coeff)`` pairs.

    Coefficients of equal keys are summed and zero sums dropped; the pairs
    are sorted by key, or by ``order(pair)`` when given.  A Mapping is read
    as its items, and ``coerce`` converts each coefficient first.
    """
    if isinstance(items, Mapping):
        items = items.items()
    if coerce is not None:
        items = [(key, coerce(c)) for key, c in items]
    acc: dict = {}
    for key, c in items:
        cur = acc.get(key)
        acc[key] = c if cur is None else cur + c
    return tuple(sorted([kc for kc in acc.items() if not kc[1].is_zero()], key=order))


def bidegree_order(pair: tuple) -> tuple[int, int]:
    """Sort key of bivariate terms: total degree, then the first degree."""
    (k, l), _ = pair
    return k + l, k


def _frac(x: Rational) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class GaussRational(Field):
    """Exact complex number ``re + im*i`` with rational components.

    Fractions keep themselves in lowest terms with positive denominators,
    so instances are always canonical.
    """

    __slots__ = _fields = ("re", "im")
    re: Fraction
    im: Fraction
    LIFTS = (int, Fraction)

    def __init__(self, re: Rational = 0, im: Rational = 0) -> None:
        object.__setattr__(self, "re", _frac(re))
        object.__setattr__(self, "im", _frac(im))

    def __eq__(self, o):
        if o.__class__ is not self.__class__:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def conjugate(self) -> "GaussRational":
        return GaussRational(self.re, -self.im)

    def _add(self, o: "GaussRational") -> "GaussRational":
        return GaussRational(self.re + o.re, self.im + o.im)

    def __neg__(self) -> "GaussRational":
        return GaussRational(-self.re, -self.im)

    def _mul(self, o: "GaussRational") -> "GaussRational":
        # A factor on an axis (a rational, or i times one) costs two
        # Fraction products instead of four and two sums.
        if not o.im:
            return GaussRational(self.re * o.re, self.im * o.re)
        if not o.re:
            return GaussRational(-self.im * o.im, self.re * o.im)
        return GaussRational(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    def inverse(self) -> "GaussRational":
        n = self.re * self.re + self.im * self.im
        if not n:
            raise ZeroDivisionError("inverse of zero GaussRational")
        return GaussRational(self.re / n, -self.im / n)

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __str__(self) -> str:
        if not self.im:
            return str(self.re)
        if not self.re:
            return f"{self.im}*i"
        sign = "+" if self.im >= 0 else "-"
        return f"({self.re} {sign} {abs(self.im)}*i)"


GaussLike = Union[GaussRational, int, Fraction]

GR_ZERO = GaussRational(0)
GR_ONE = GaussRational(1)
GR_I = GaussRational(0, 1)


class Poly(Ring):
    """Univariate polynomial over the coefficient type ``COEFF``.

    Stored as a tuple of ``(degree, coefficient)`` pairs sorted by degree
    with no zero coefficients, which makes equality and hashing structural.
    Subclasses set ``COEFF`` and ``LIFTS``.  :meth:`monic` and
    :func:`hp_gcd` need a coefficient field; see :meth:`divmod_poly` for
    division over a ring.
    """

    __slots__ = _fields = ("coeffs",)
    coeffs: tuple

    def __init__(self, coeffs: Union[Mapping, Iterable[tuple]] = ()) -> None:
        canonical = canon(coeffs, coerce=self.COEFF.coerce)
        if canonical and canonical[0][0] < 0:
            raise ValueError("negative degree")
        object.__setattr__(self, "coeffs", canonical)

    def __eq__(self, o):
        if o.__class__ is not self.__class__:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self) -> int:
        return hash((self.coeffs,))

    @classmethod
    def _of(cls, coeffs: tuple):
        """Wrap a tuple of pairs that is already canonical."""
        p = object.__new__(cls)
        object.__setattr__(p, "coeffs", coeffs)
        return p

    @classmethod
    def const(cls, c):
        return cls(((0, c),))

    _lift = const

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return self.coeffs[-1][0] if self.coeffs else -1

    def leading(self):
        return self.coeffs[-1][1] if self.coeffs else self.COEFF.coerce(0)

    def coeff(self, deg: int):
        for d, c in self.coeffs:
            if d == deg:
                return c
        return self.COEFF.coerce(0)

    def _add(self, o):
        return self._of(canon(self.coeffs + o.coeffs))

    def __neg__(self):
        return self._of(tuple((d, -c) for d, c in self.coeffs))

    def _mul(self, o):
        return self._of(
            canon([(d1 + d2, c1 * c2) for d1, c1 in self.coeffs for d2, c2 in o.coeffs])
        )

    def scale(self, c):
        """Multiply every coefficient by the scalar ``c``."""
        co = self.COEFF.coerce(c)
        if co.is_zero():
            return self._of(())
        return self._of(tuple((d, cc * co) for d, cc in self.coeffs))

    def derivative(self):
        return self._of(tuple((d - 1, c * d) for d, c in self.coeffs if d))

    def divmod_poly(self, other):
        """Euclidean division: ``(q, r)`` with self = q*other + r, deg r < deg other.

        Over a coefficient ring that is not a field (PolyLambda's HbarPoly)
        each quotient coefficient is an exact division, which succeeds
        whenever q lies in the ring: when ``other`` divides ``self`` and is
        primitive, or when ``self`` is premultiplied by a power of the
        leading coefficient (pseudo-division).  Otherwise ValueError.
        """
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        *lower, (db, lb) = other.coeffs
        inv = lb.inverse() if isinstance(lb, Field) else None
        rem = dict(self.coeffs)
        quo = []
        while rem:
            dr = max(rem)
            if dr < db:
                break
            top = rem.pop(dr)
            q = top * inv if inv is not None else hp_exact_div(top, lb)
            quo.append((dr - db, q))
            for d, c in lower:
                nd = d + dr - db
                nc = rem[nd] - c * q if nd in rem else -(c * q)
                if nc.is_zero():
                    del rem[nd]
                else:
                    rem[nd] = nc
        return self._of(tuple(reversed(quo))), self._of(canon(rem))

    def monic(self):
        """Divided by the leading coefficient; zero stays zero."""
        if self.is_zero() or self.leading() == self.COEFF.coerce(1):
            return self
        return self.scale(self.leading().inverse())


def hp_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd of two polynomials over a coefficient field (Euclid)."""
    while not b.is_zero():
        a, b = b, a.divmod_poly(b)[1]
    return a.monic()


def hp_exact_div(a: Poly, b: Poly) -> Poly:
    q, r = a.divmod_poly(b)
    if not r.is_zero():
        raise ValueError("inexact polynomial division")
    return q


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
        return self._of(tuple((d, c.conjugate()) for d, c in self.coeffs))

    def shift(self, j: int) -> "HbarPoly":
        """Multiply by h**j (j may be negative if every degree allows it)."""
        if j == 0:
            return self
        if self.coeffs and self.coeffs[0][0] + j < 0:
            raise ValueError("not divisible by the requested power of h")
        return self._of(tuple((d + j, c) for d, c in self.coeffs))

    def evaluate(self, hbar: float) -> complex:
        """Numerical value at a concrete hbar."""
        return sum((complex(c) * hbar**d for d, c in self.coeffs), 0j)

    def __str__(self) -> str:
        if not self.coeffs:
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

    A subclass names its ring (``POLY``, with its ``ZERO`` and ``ONE``) and
    its ``_reduce``, which brings a nonzero ``num`` over a ``den`` other
    than ``ONE`` to canonical form.  Zero is ``ZERO / ONE``, and
    ``(num, ONE)`` is canonical: polynomials have denominator ``ONE``.
    """

    __slots__ = _fields = ("num", "den")
    num: Poly
    den: Poly

    def __init__(self, num, den) -> None:
        n = self.POLY.coerce(num)
        d = self.POLY.coerce(den)
        if d.is_zero():
            raise ZeroDivisionError(f"zero denominator in {type(self).__name__}")
        if n.is_zero():
            n, d = self.ZERO, self.ONE
        elif d != self.ONE:
            n, d = self._reduce(n, d)
        self._init_fields(n, d)

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
        return type(self)(self.num * o.den + o.num * self.den, self.den * o.den)

    def __neg__(self):
        return type(self)(-self.num, self.den)

    def _mul(self, o):
        return type(self)(self.num * o.num, self.den * o.den)

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError(f"inverse of zero {type(self).__name__}")
        return type(self)(self.den, self.num)


class HbarRat(Quotient):
    """Quotient of h-polynomials, reduced, with a monic denominator; public
    API only (see the module docstring)."""

    __slots__ = ()
    POLY, ZERO, ONE = HbarPoly, HP_ZERO, HP_ONE
    LIFTS = (POLY, *POLY.LIFTS)

    def __init__(self, num: HbarLike, den: HbarLike = HP_ONE) -> None:
        super().__init__(num, den)

    @staticmethod
    def _reduce(n: HbarPoly, d: HbarPoly) -> tuple[HbarPoly, HbarPoly]:
        g = hp_gcd(n, d)
        if g.degree() > 0:
            n, d = hp_exact_div(n, g), hp_exact_div(d, g)
        lc = d.leading().inverse()
        return n.scale(lc), d.scale(lc)

    def __str__(self) -> str:
        if self.is_polynomial():
            return str(self.num)
        return f"({self.num})/({self.den})"
