"""Calculus of Lambda-rational data.

Holomorphic elements (no Ls powers) commute with each other, so rational
expressions in L behave exactly like a commutative field of rational
functions.  This module provides that field:

* :class:`PolyLambda` -- polynomials in L with HbarPoly coefficients,
* :class:`RatLambda`  -- reduced quotients of two PolyLambda, the kernel's
  :class:`~weylmin.scalars.Quotient` over PolyLambda,
* differentiation, and rational integration.

All of it works fraction-free in Q(i)[h][L], the ring PolyLambda already
is: an h-rational coefficient never appears.  PolyLambda is the kernel's
flat form (:class:`~weylmin.scalars.Flat`) with rows ``(L-degree,
h-degree, re, im)``, so its products are integer convolutions; its
coefficients are HbarPoly views.  The kernel's gcd,
:func:`~weylmin.scalars.hp_gcd`, is there the primitive remainder
sequence, whose contents are HbarPoly gcds.  Exact quotients use the
kernel's division, whose every step is exact there.

Integration never factors over the complex numbers.  Hermite reduction
in the Horowitz-Ostrogradsky form (Bronstein, *Symbolic Integration I*,
2.2-2.3) splits off the polynomial part by pseudo-division and writes the
proper rest A/D, with D- = gcd(D, D') and D* = D/D-, as

    A/D = (B/D-)' + C/D*,   deg B < deg D-,  deg C < deg D*,

one linear system of size deg D solved by fraction-free Gauss-Jordan.
D* is squarefree, so a rational primitive exists exactly when C = 0.
:meth:`RatLambda.primitive` returns it normalized to vanish at L = 0
whenever it is defined there.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from .scalars import (
    GR_I,
    GaussRational,
    HP_ONE,
    HbarLike,
    HbarPoly,
    Frozen,
    Poly,
    Quotient,
    hp_exact_div,
    hp_gcd,
)
from .weyl import WeylElement


class NotIntegrableError(ValueError):
    """No Lambda-rational primitive exists (a logarithmic part remains)."""


class PolyLambda(Poly):
    """Polynomial in L with HbarPoly coefficients, stored canonically."""

    __slots__ = ()
    COEFF = HbarPoly
    LIFTS = (HbarPoly, GaussRational, int, Fraction)

    def __str__(self) -> str:
        from .render import poly_lambda_text

        return poly_lambda_text(self)


PolyLike = Union[PolyLambda, HbarPoly, GaussRational, int, Fraction]

PL_ZERO = PolyLambda()
PL_ONE = PolyLambda.const(1)


def _solve(cols: list[PolyLambda], rhs: PolyLambda) -> tuple[HbarPoly, list[HbarPoly]]:
    """Fraction-free Gauss-Jordan on the coefficients of L^0 .. L^(n-1):
    ``(det, y)`` with sum_j y_j cols_j = det * rhs and det nonzero, for n
    = len(cols) columns spanning a nonsingular system."""
    n = len(cols)
    rows = [[col.coeff(i) for col in cols] + [rhs.coeff(i)] for i in range(n)]
    prev = HP_ONE
    for k in range(n):
        p = next(i for i in range(k, n) if not rows[i][k].is_zero())
        rows[k], rows[p] = rows[p], rows[k]
        pivot = rows[k]
        for i, row in enumerate(rows):
            if i != k:
                f = row[k]
                rows[i] = [hp_exact_div(pivot[k] * x - f * y, prev) for x, y in zip(row, pivot)]
        prev = pivot[k]
    return prev, [row[n] for row in rows]


class RatLambda(Quotient):
    """Reduced quotient of two PolyLambda.

    Canonical form: numerator and denominator coprime over the h-rational
    field, jointly primitive (no common h-polynomial factor), and the
    denominator's leading coefficient a monic h-polynomial.  When no h
    appears in denominators this is simply "coprime with monic
    denominator", and polynomials are exactly the values with
    denominator 1.
    """

    __slots__ = ()
    POLY, ZERO, ONE = PolyLambda, PL_ZERO, PL_ONE
    LIFTS = (POLY, *POLY.LIFTS)

    def __init__(self, num: "PolyLike" = PL_ZERO, den: "PolyLike" = PL_ONE) -> None:
        super().__init__(num, den)

    @staticmethod
    def from_poly(p: "PolyLike") -> "RatLambda":
        return RatLambda(p)

    def scale(self, c: HbarLike) -> "RatLambda":
        """The product with the h-polynomial ``c``.  A nonzero constant is a
        unit: the quotient stays reduced, so it is not reduced again.  A
        Gaussian scalar goes straight to :meth:`PolyLambda.scale`'s row map."""
        num = self.num.scale(c)
        if num.is_zero() or isinstance(c, HbarPoly) and c.degree() > 0:
            return RatLambda(num, self.den)
        return self._reduced(num, self.den)

    def derivative(self) -> "RatLambda":
        return RatLambda(
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den,
        )

    # -- integration -----------------------------------------------------

    def _hermite(self) -> tuple["RatLambda", PolyLambda, PolyLambda]:
        """Horowitz-Ostrogradsky reduction: ``(P, C, S)`` with the element
        equal to P' + C/(c S) for a nonzero h-polynomial c, S squarefree
        and deg C < deg S.  A rational primitive exists iff C = 0.
        """
        num, den = self.num, self.den
        # lead * num = quo * den + rem; the polynomial part quo / lead is
        # integrated term by term.
        if den == PL_ONE:
            lead, quo, rem = PL_ONE, num, PL_ZERO
        else:
            lead = den.leading() ** max(num.degree() - den.degree() + 1, 0)
            quo, rem = num.scale(lead).divmod_poly(den)
        prim = RatLambda(quo.integral(), lead)
        if rem.is_zero():
            return prim, rem, PL_ONE
        # rem = B' D* - B D-' D*/D- + C D- over the h-rationals
        dm = hp_gcd(den, den.derivative())
        ds = hp_exact_div(den, dm)
        dlog = hp_exact_div(dm.derivative() * ds, dm)
        basis = [PolyLambda({k: 1}) for k in range(den.degree())]
        cols = [x.derivative() * ds - x * dlog for x in basis[: dm.degree()]]
        cols += [x * dm for x in basis[: ds.degree()]]
        det, y = _solve(cols, rem)
        b = PolyLambda(enumerate(y[: dm.degree()]))
        prim = prim + RatLambda(b, dm.scale(det * lead))
        return prim, PolyLambda(enumerate(y[dm.degree() :])), ds

    def is_integrable(self) -> bool:
        """Whether a Lambda-rational primitive exists."""
        return self._hermite()[1].is_zero()

    def primitive(self) -> "RatLambda":
        """The rational primitive, normalized to vanish at L = 0.

        Raises NotIntegrableError when a logarithmic part obstructs; the
        message names the reduced denominator of that part, whose roots
        are exactly the poles with a nonzero residue.
        """
        prim, log_num, log_den = self._hermite()
        if not log_num.is_zero():
            poles = RatLambda(log_num, log_den).den.monic()
            raise NotIntegrableError(
                f"no Lambda-rational primitive: nonzero residues on ({poles})"
            )
        d0 = prim.den.coeff(0)
        if not d0.is_zero():
            n0 = prim.num.coeff(0)
            if not n0.is_zero():
                prim = prim - RatLambda(PolyLambda.const(n0), PolyLambda.const(d0))
        return prim

    def __str__(self) -> str:
        from .render import rat_text

        return rat_text(self)


RatLike = Union[RatLambda, PolyLike]

RL_ZERO = RatLambda()
RL_ONE = RatLambda(PL_ONE)


# ---------------------------------------------------------------------------
# Weierstrass input data
# ---------------------------------------------------------------------------


class PhiTriple(Frozen):
    """A tuple of Lambda-rational derivative components (usually three)."""

    __slots__ = _fields = ("components",)

    def __init__(self, components: tuple[RatLambda, ...]) -> None:
        self._init_fields(components)

    @staticmethod
    def of(*components: RatLike) -> "PhiTriple":
        return PhiTriple(tuple(RatLambda.coerce(c) for c in components))

    def __iter__(self):
        return iter(self.components)

    def __len__(self) -> int:
        return len(self.components)


def phi_from_fg(f: RatLike, g: RatLike) -> PhiTriple:
    """The isotropic triple (f(1 - g^2)/2, i f(1 + g^2)/2, f g)."""
    fr, gr = RatLambda.coerce(f), RatLambda.coerce(g)
    g2 = gr * gr
    half = GaussRational(Fraction(1, 2))
    ihalf = GaussRational(0, Fraction(1, 2))
    return PhiTriple.of(
        ((RL_ONE - g2) * fr).scale(half),
        ((RL_ONE + g2) * fr).scale(ihalf),
        fr * gr,
    )


def fg_from_phi(phi: PhiTriple) -> tuple[RatLambda, RatLambda]:
    """Invert phi_from_fg: f = phi1 - i phi2, g = phi3 / f.

    Requires an isotropic triple with f nonzero.
    """
    if len(phi) != 3:
        raise ValueError("expected a 3-component triple")
    if not isotropy_check(phi):
        raise ValueError("triple is not isotropic")
    c1, c2, c3 = phi.components
    f = c1 - c2.scale(GR_I)
    if f.is_zero():
        raise ZeroDivisionError("phi1 - i*phi2 is zero; f is not recoverable")
    return f, c3 / f


def isotropy_check(phi: PhiTriple) -> bool:
    """Whether the component squares sum to zero."""
    total = RL_ZERO
    for c in phi:
        total = total + c * c
    return total.is_zero()


# ---------------------------------------------------------------------------
# Conversions to and from the algebra
# ---------------------------------------------------------------------------


def poly_to_weyl(p: PolyLambda) -> WeylElement:
    """Embed a polynomial in L as the holomorphic element sum c_k L^k: its
    rows ``(k, d, re, im)`` re-keyed as ``(k, 0, d, re, im)``."""
    return WeylElement._wrap([(k, 0, d, re, im) for k, d, re, im in p.rows], p.den)


def weyl_to_poly(a: WeylElement) -> PolyLambda:
    """Inverse embedding; requires a holomorphic element."""
    if not a.is_holomorphic():
        raise ValueError("element has Ls terms and is not holomorphic")
    return PolyLambda._wrap([(k, d, re, im) for k, _, d, re, im in a.rows], a.den)
