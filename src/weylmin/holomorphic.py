"""Calculus of Lambda-rational data.

Holomorphic elements (no Ls powers) commute with each other, so rational
expressions in L behave exactly like a commutative field of rational
functions.  This module provides that field:

* :class:`PolyLambda` -- polynomials in L with HbarPoly coefficients,
* :class:`RatLambda`  -- reduced quotients of two PolyLambda,
* differentiation, and rational integration.

Integration never factors over the complex numbers.  A quotient has a
rational primitive exactly when its Hermite reduction leaves no
logarithmic part, which is decided with gcd arithmetic alone: take the
squarefree (Yun) factorization of the denominator, split into partial
fractions, lower each multiplicity with a Bezout identity, and check that
every multiplicity-one remainder vanishes.  :meth:`RatLambda.primitive`
returns the primitive normalized to vanish at L = 0 whenever it is
defined there.

Internally the coefficient ring is widened to the field of h-rationals:
a "kpoly" (:class:`KPoly`) is a polynomial in L over
:class:`~weylmin.scalars.HbarRat`, so monic gcds exist even when h divides
leading coefficients.  PolyLambda and KPoly are both
:class:`~weylmin.scalars.Poly`, so they share the kernel's multiply,
derivative, power, Euclidean division and gcd; the extended gcd, the
Diophantine solver and Yun's algorithm here are built on it.  Public
values always come back with HbarPoly coefficients and cleared
h-denominators.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .scalars import (
    GaussRational,
    HP_ONE,
    HbarLike,
    HbarPoly,
    HbarRat,
    HR_ONE,
    Field,
    Poly,
    hp_exact_div,
    hp_gcd,
    hp_lcm,
)
from .weyl import WeylElement


class NotIntegrableError(ValueError):
    """No Lambda-rational primitive exists (a logarithmic part remains)."""


class PolyLambda(Poly):
    """Polynomial in L with HbarPoly coefficients, stored canonically."""

    COEFF = HbarPoly
    LIFTS = (HbarPoly, GaussRational, int, Fraction)

    def __str__(self) -> str:
        from .render import poly_lambda_text

        return poly_lambda_text(self)


PolyLike = Union[PolyLambda, HbarPoly, GaussRational, int, Fraction]

PL_ZERO = PolyLambda()
PL_ONE = PolyLambda.const(1)


class KPoly(Poly):
    """Polynomial in L over the h-rational field, the "kpoly" of integration.

    Widening the coefficients to a field makes Euclidean division, monic
    gcds and squarefree factorization available even when h divides
    leading coefficients.
    """

    COEFF = HbarRat
    LIFTS = (HbarRat, HbarPoly, GaussRational, int, Fraction)


KP_ONE = KPoly.const(1)


def _monic_quotient(nk: KPoly, dk: KPoly) -> tuple[KPoly, KPoly]:
    """Scale both halves of nk/dk so that the denominator is monic."""
    lc = dk.leading()
    if lc == HR_ONE:
        return nk, dk
    inv = lc.inverse()
    return nk.scale(inv), dk.scale(inv)


def _kp_ext_gcd(a: KPoly, b: KPoly) -> tuple[KPoly, KPoly, KPoly]:
    """Monic g = gcd(a, b) together with s, t such that s a + t b = g."""
    r0, r1 = a, b
    s0, s1 = KP_ONE, KPoly()
    t0, t1 = KPoly(), KP_ONE
    while not r1.is_zero():
        q, r = r0.divmod_poly(r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    inv = r0.leading().inverse()
    return r0.monic(), s0.scale(inv), t0.scale(inv)


def _kp_diophantine(a: KPoly, b: KPoly, c: KPoly) -> tuple[KPoly, KPoly]:
    """Solve s a + t b = c with deg s < deg b, for gcd(a, b) dividing c."""
    g, s0, t0 = _kp_ext_gcd(a, b)
    q = hp_exact_div(c, g)
    s = s0 * q
    if s.degree() >= b.degree():
        qs, s = s.divmod_poly(b)
        t = t0 * q + qs * a
    else:
        t = t0 * q
    # t is determined by s through t = (c - s a) / b.
    return s, t


def _kp_yun(a: KPoly) -> list[tuple[KPoly, int]]:
    """Squarefree factorization of a monic polynomial (Yun's algorithm).

    Returns pairwise-coprime monic squarefree factors with multiplicities
    such that the product of q_i^(m_i) reproduces the input.
    """
    if a.degree() <= 0:
        return []
    da = a.derivative()
    g = hp_gcd(a, da)
    if g.degree() == 0:
        return [(a, 1)]
    w = hp_exact_div(a, g)
    y = hp_exact_div(da, g)
    z = y - w.derivative()
    out: list[tuple[KPoly, int]] = []
    i = 1
    while w.degree() > 0:
        gi = hp_gcd(w, z)
        if gi.degree() > 0:
            out.append((gi, i))
        w = hp_exact_div(w, gi)
        y = hp_exact_div(z, gi)
        z = y - w.derivative()
        i += 1
    return out


def _clear_hbar(nk: KPoly, dk: KPoly) -> tuple[PolyLambda, PolyLambda]:
    """Scale a kpoly quotient so both halves have HbarPoly coefficients."""
    lead = HP_ONE
    for _, c in nk.coeffs + dk.coeffs:
        lead = hp_lcm(lead, c.den)

    def _to_poly(a: KPoly) -> PolyLambda:
        return PolyLambda((d, c.num * hp_exact_div(lead, c.den)) for d, c in a.coeffs)

    return _to_poly(nk), _to_poly(dk)


def _rat_from_kp(nk: KPoly, dk: KPoly) -> "RatLambda":
    num, den = _clear_hbar(nk, dk)
    return RatLambda(num, den)


@dataclass(frozen=True, init=False)
class RatLambda(Field):
    """Reduced quotient of two PolyLambda.

    Canonical form: numerator and denominator coprime over the h-rational
    field, h-denominators cleared by the least common multiple, and the
    denominator's leading coefficient a monic h-polynomial.  When no h
    appears in denominators this is simply "coprime with monic
    denominator", and polynomials are exactly the values with
    denominator 1.
    """

    num: PolyLambda
    den: PolyLambda

    LIFTS = (PolyLambda, HbarPoly, GaussRational, int, Fraction)

    def __init__(self, num: "PolyLike" = PL_ZERO, den: "PolyLike" = PL_ONE) -> None:
        n = PolyLambda.coerce(num)
        d = PolyLambda.coerce(den)
        if d.is_zero():
            raise ZeroDivisionError("zero denominator in RatLambda")
        if n.is_zero():
            n, d = PL_ZERO, PL_ONE
        else:
            nk, dk = KPoly(n.coeffs), KPoly(d.coeffs)
            g = hp_gcd(nk, dk)
            if g.degree() > 0:
                nk = hp_exact_div(nk, g)
                dk = hp_exact_div(dk, g)
            n, d = _clear_hbar(*_monic_quotient(nk, dk))
            content = HbarPoly()
            for _, c in n.coeffs + d.coeffs:
                content = hp_gcd(content, c)
            if content.degree() > 0:
                n = PolyLambda((dg, hp_exact_div(c, content)) for dg, c in n.coeffs)
                d = PolyLambda((dg, hp_exact_div(c, content)) for dg, c in d.coeffs)
        object.__setattr__(self, "num", n)
        object.__setattr__(self, "den", d)

    @staticmethod
    def from_poly(p: "PolyLike") -> "RatLambda":
        return RatLambda(p)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        """True when the value lies in the polynomial ring (denominator 1)."""
        return self.den == PL_ONE

    def as_poly(self) -> PolyLambda:
        if not self.is_polynomial():
            raise ValueError("RatLambda value is not a polynomial")
        return self.num

    def _add(self, o: "RatLambda") -> "RatLambda":
        return RatLambda(self.num * o.den + o.num * self.den, self.den * o.den)

    def __neg__(self) -> "RatLambda":
        return RatLambda(-self.num, self.den)

    def _mul(self, o: "RatLambda") -> "RatLambda":
        return RatLambda(self.num * o.num, self.den * o.den)

    def inverse(self) -> "RatLambda":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero RatLambda")
        return RatLambda(self.den, self.num)

    def scale(self, c: HbarLike) -> "RatLambda":
        return RatLambda(self.num.scale(c), self.den)

    def derivative(self) -> "RatLambda":
        return RatLambda(
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den,
        )

    # -- integration -----------------------------------------------------

    def _hermite(self) -> tuple["RatLambda", list[tuple[KPoly, KPoly]]]:
        """Hermite reduction: (rational part, irreducible log remainders).

        The element equals d/dL(rational part) + sum A/q over the returned
        remainders, with each q squarefree and deg A < deg q.  The element
        has a rational primitive iff the remainder list is empty.
        """
        nk, dk = _monic_quotient(KPoly(self.num.coeffs), KPoly(self.den.coeffs))
        quo, rem = nk.divmod_poly(dk)

        prim = _rat_from_kp(KPoly((d + 1, c / (d + 1)) for d, c in quo.coeffs), KP_ONE)
        leftovers: list[tuple[KPoly, KPoly]] = []
        if rem.is_zero():
            return prim, leftovers

        pieces: list[tuple[KPoly, KPoly, int]] = []
        cof = dk
        for q, m in _kp_yun(dk):
            big = q**m
            rest = hp_exact_div(cof, big)
            if rest.degree() <= 0:
                # cof and big are monic, so rest is 1
                pieces.append((rem, q, m))
                break
            s, t = _kp_diophantine(rest, big, rem)
            pieces.append((s, q, m))
            rem, cof = t, rest

        for a, q, m in pieces:
            qp = q.derivative()
            while m > 1:
                u, v = _kp_diophantine(qp, q, a)
                step = Fraction(1, m - 1)
                prim = prim + _rat_from_kp(u.scale(-step), q ** (m - 1))
                a = v + u.derivative().scale(step)
                m -= 1
            if not a.is_zero():
                leftovers.append((a, q))
        return prim, leftovers

    def is_integrable(self) -> bool:
        """Whether a Lambda-rational primitive exists."""
        return not self._hermite()[1]

    def primitive(self) -> "RatLambda":
        """The rational primitive, normalized to vanish at L = 0.

        Raises NotIntegrableError when a logarithmic part obstructs; the
        message names the squarefree denominator carrying the residues.
        """
        prim, leftovers = self._hermite()
        if leftovers:
            dens = ", ".join(str(_rat_from_kp(q, KP_ONE).num) for _, q in leftovers)
            raise NotIntegrableError(
                f"no Lambda-rational primitive: nonzero residues on ({dens})"
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


@dataclass(frozen=True)
class PhiTriple:
    """A tuple of Lambda-rational derivative components (usually three)."""

    components: tuple[RatLambda, ...]

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
        (RL_ONE - g2) * fr * half,
        (RL_ONE + g2) * fr * ihalf,
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
    f = c1 - c2 * GaussRational(0, 1)
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
    """Embed a polynomial in L as the holomorphic element sum c_k L^k."""
    return WeylElement(((d, 0), c) for d, c in p.coeffs)


def weyl_to_poly(a: WeylElement) -> PolyLambda:
    """Inverse embedding; requires a holomorphic element."""
    if not a.is_holomorphic():
        raise ValueError("element has Ls terms and is not holomorphic")
    return PolyLambda((k, c) for (k, _), c in a.terms)
