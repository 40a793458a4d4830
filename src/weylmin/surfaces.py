"""Noncommutative minimal surfaces from Weierstrass data.

A surface is a tuple of hermitian algebra elements ``X^i``, each of the
form ``offset + Re(P_i)`` with ``P_i`` a holomorphic polynomial in L.
The constructors integrate an isotropic Lambda-rational triple

    Phi = (f(1 - g^2)/2, i f(1 + g^2)/2, f g)

and take real parts; isotropy of Phi makes the result conformal and
harmonicity is automatic because the components are real parts of
holomorphic elements.  Exactness is preserved end to end: the verifier
checks hermiticity, ``lap X^i = 0``, ``E = G`` and ``F = 0`` as algebra
identities, not numerically, read off the components' rows; it builds an
element only as the witness of a failure.  lap maps the row L^k Ls^l to
4kl L^(k-1) Ls^(l-1), injectively on keys, so ``lap X^i = 0`` exactly when
no row of X^i has both k > 0 and l > 0.

Conformality is checked in the complex directions.  The form
``<x, y> = (1/2) sum (x y + y x)`` is bilinear and symmetric for any
components, hermitian or not, and ``X_u = dX + dbarX``,
``X_v = i(dX - dbarX)``, so

    E - G = 2(<dX, dX> + <dbarX, dbarX>),    F = i(<dX, dX> - <dbarX, dbarX>).

So X is conformal exactly when both squares vanish, that is when each
square's accumulator of rows (:func:`~weylmin.weyl.partial_square_sum`)
has only zero numerator pairs, and E - G and F are formed only as
witnesses of a failure.  Both squares are needed: a
non-hermitian triple such as (L, iL, Ls) has ``<dX, dX> = 0`` but
``E - G = 2``.  For hermitian components the second is the star of the
first (the star is antilinear and antimultiplicative, and ``(dA)* =
dbar(A*)``, so ``dbarX = (dX)*``), and the first alone decides.  For
X = Re P, dX is holomorphic and dbarX antiholomorphic, so neither square
has a reordering term.

Three generating conventions are supported and kept mutually consistent:

* ``surface_from_fg(f, g)`` integrates Phi as is.
* ``surface_from_F(F)`` uses the triple ``((1 - L^2)F, i(1 + L^2)F, 2LF)``
  (Gauss map g = L) and divides the primitives by nu = (d+2)(d+3),
  d = deg F.  The scaling keeps the classical shapes of the resulting
  family (Enneper for constant F and its higher-order relatives) and is
  invisible to every minimality or normality property.
* ``surface_from_Ftilde(Ft)`` is the integrated-by-parts form of the
  same family.  On paper its primitives are

      Omega1 = (1 - L^2) Ft'' + 2L Ft' - 2Ft
      Omega2 = i(1 + L^2) Ft'' - 2iL Ft' + 2i Ft
      Omega3 = 2L Ft'' - 2 Ft'

  with constant terms dropped, divided by nu = n(n - 1), n = deg Ft.
  Omega' is the triple of F = Ft''' and n(n - 1) = (d+2)(d+3) for
  d = n - 3, so the code builds it as ``surface_from_F`` of Ft''',
  recorded under Ft.  The Omega route is kept as the test reference,
  ``ftilde_primitives_omega`` in ``tests/oracles.py``.

The three integrate through one helper, and ``conjugate_surface`` builds
its components as real parts of -i P_i through the same last step.

``surface_from_pair`` builds the four-component analogue carrying both
real and imaginary parts of two polynomials.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence, Union

from .scalars import GR_I, Frozen, GaussRational, HbarPoly
from .holomorphic import (
    NotIntegrableError,
    PolyLambda,
    RatLambda,
    phi_from_fg,
    poly_real_part,
)
from .weyl import Direction, WeylElement, partial_square_sum, symmetric_product_sum


class NonPolynomialPrimitiveError(ValueError):
    """A primitive exists but has a denominator, so Re() has no meaning here."""


ParamValue = Union[RatLambda, PolyLambda]


class Provenance(Frozen):
    """Generating data of a surface.

    ``kind`` is one of fg, F, Ftilde, pair, conjugate or raw.  ``params``
    records the constructor inputs by name; ``primitives`` holds the
    holomorphic polynomials P_i with X^i = offset_i + Re(P_i), which is
    what conjugation consumes.  Raw surfaces carry no primitives.
    """

    __slots__ = _fields = ("kind", "params", "primitives")

    def __init__(
        self,
        kind: str,
        params: tuple[tuple[str, ParamValue], ...] = (),
        primitives: tuple[PolyLambda, ...] = (),
    ) -> None:
        self._init_fields(kind, params, primitives)


class Surface(Frozen):
    """An immutable tuple of hermitian components with rational offsets."""

    __slots__ = _fields = ("components", "offsets", "provenance")

    def __init__(
        self,
        components: tuple[WeylElement, ...],
        offsets: tuple[Fraction, ...],
        provenance: Provenance,
    ) -> None:
        if len(components) != len(offsets):
            raise ValueError("offsets and components must have equal length")
        self._init_fields(components, offsets, provenance)

    @property
    def n(self) -> int:
        return len(self.components)


class FirstFundamental(Frozen):
    """Coefficients E, F, G of the first fundamental form."""

    __slots__ = _fields = ("E", "F", "G")


class VerificationReport(Frozen):
    """Outcome of the exact minimality checks, with residual witnesses."""

    __slots__ = _fields = ("hermitian", "harmonic", "conformal", "witnesses")

    @property
    def passes(self) -> bool:
        return all(self.hermitian) and all(self.harmonic) and self.conformal


def _offsets_tuple(n: int, offsets: Union[Sequence[Union[int, Fraction]], None]) -> tuple[Fraction, ...]:
    if offsets is None:
        return (Fraction(0),) * n
    out = []
    for x in offsets:
        if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
            raise ValueError("offsets must be rational numbers")
        out.append(Fraction(x))
    if len(out) != n:
        raise ValueError(f"expected {n} offsets, got {len(out)}")
    return tuple(out)


def bilinear(xs: Sequence[WeylElement], ys: Sequence[WeylElement]) -> WeylElement:
    """The symmetrized form <X, Y> = (1/2) sum (X^i Y^i + Y^i X^i); a square,
    ``bilinear(xs, xs)`` with one object twice, is sum X^i X^i, one product each."""
    if len(xs) != len(ys):
        raise ValueError("vectors must have equal length")
    return symmetric_product_sum(xs, ys)


def _partials(s: Surface, direction: Direction) -> tuple[WeylElement, ...]:
    return tuple(c.derive(direction) for c in s.components)


def first_fundamental(s: Surface) -> FirstFundamental:
    xu = _partials(s, Direction.U)
    xv = _partials(s, Direction.V)
    return FirstFundamental(bilinear(xu, xu), bilinear(xu, xv), bilinear(xv, xv))


def verify_minimal(s: Surface) -> VerificationReport:
    """Exact hermiticity, harmonicity and conformality checks, read off the
    rows as the module docstring says.  Only a failure builds elements, its
    witnesses: ``X - X*``, ``lap X``, or E - G and F equal to those of
    :func:`first_fundamental`, for any components."""
    hermitian = []
    harmonic = []
    witnesses: list[tuple[str, WeylElement]] = []
    for idx, c in enumerate(s.components, start=1):
        h = c.is_hermitian()
        hermitian.append(h)
        if not h:
            witnesses.append((f"hermitian:X{idx}", c - c.star()))
        harm = not any(r[0] and r[1] for r in c.rows)
        harmonic.append(harm)
        if not harm:
            witnesses.append((f"harmonic:X{idx}", c.laplace()))
    dd, den = partial_square_sum(s.components, 0)
    bb = None if all(hermitian) else partial_square_sum(s.components, 1)[0]
    conformal = not any(map(any, dd.values())) and (bb is None or not any(map(any, bb.values())))
    if not conformal:
        dd = WeylElement._new(dd, den)
        bb = dd.star() if bb is None else WeylElement._new(bb, den)
        for name, w in (("conformal:E-G", (dd + bb).scale(2)), ("conformal:F", (dd - bb).scale(GR_I))):
            if not w.is_zero():
                witnesses.append((name, w))
    return VerificationReport(tuple(hermitian), tuple(harmonic), conformal, tuple(witnesses))


def phi_components(s: Surface) -> tuple[WeylElement, ...]:
    """The holomorphic derivative components 2 d X^i."""
    return tuple(c.derive(Direction.D).scale(2) for c in s.components)


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------


def _surface_from_primitives(
    prims: Sequence[PolyLambda],
    offsets: tuple[Fraction, ...],
    provenance: Provenance,
) -> Surface:
    """X^i = offset_i + Re(P_i), Re by the row map :func:`~weylmin.holomorphic.poly_real_part`."""
    comps = (poly_real_part(p) for p in prims)
    comps = tuple(re + off if off else re for re, off in zip(comps, offsets))
    return Surface(comps, offsets, provenance)


def _weierstrass(kind: str, params: tuple, f: RatLambda, g: RatLambda, offsets, nu: int = 1) -> Surface:
    """Every integrating constructor: check the offsets, integrate each
    component of phi_from_fg(f, g), divide it by nu and take real parts."""
    offs = _offsets_tuple(3, offsets)
    prims = []
    for idx, c in enumerate(phi_from_fg(f, g), start=1):
        try:
            prim = c.primitive()
        except NotIntegrableError as exc:
            raise NotIntegrableError(f"component Phi{idx}: {exc}") from exc
        if not prim.is_polynomial():
            why = (f"has the h-denominator {prim.den}; element coefficients live in Q(i)[h]"
                   if prim.den.degree() == 0 else
                   "is rational, not polynomial; only polynomial representations are supported")
            raise NonPolynomialPrimitiveError(f"component Phi{idx}: primitive {why}")
        prims.append(prim.num if nu == 1 else prim.num.scale(Fraction(1, nu)))
    return _surface_from_primitives(prims, offs, Provenance(kind, params, tuple(prims)))


_GAUSS_L = RatLambda(PolyLambda({1: 1}))
_MINUS_I = GaussRational(0, -1)


def _gauss_map_L(kind: str, params: tuple, F: RatLambda, offsets) -> Surface:
    """Integrate phi_from_fg(2F, L) and divide by nu = (d+2)(d+3),
    d = deg F, or by 1 where that is 0."""
    d = F.num.degree() - F.den.degree()
    return _weierstrass(kind, params, F.scale(2), _GAUSS_L, offsets, (d + 2) * (d + 3) or 1)


def surface_from_fg(
    f: RatLambda,
    g: RatLambda,
    offsets: Union[Sequence[Union[int, Fraction]], None] = None,
) -> Surface:
    """Integrate the Weierstrass triple of (f, g) and take real parts."""
    f = RatLambda.coerce(f)
    g = RatLambda.coerce(g)
    return _weierstrass("fg", (("f", f), ("g", g)), f, g, offsets)


def surface_from_F(
    F: RatLambda,
    offsets: Union[Sequence[Union[int, Fraction]], None] = None,
) -> Surface:
    """The Gauss-map-L family: integrate phi_from_fg(2F, L), which is
    ((1-L^2)F, i(1+L^2)F, 2LF), and divide by nu."""
    F = RatLambda.coerce(F)
    return _gauss_map_L("F", (("F", F),), F, offsets)


def surface_from_Ftilde(
    Ft: PolyLambda,
    offsets: Union[Sequence[Union[int, Fraction]], None] = None,
) -> Surface:
    """The Gauss-map-L family of F = Ft''', recorded under Ft."""
    Ft = PolyLambda.coerce(Ft)
    F = RatLambda(Ft.derivative().derivative().derivative())
    return _gauss_map_L("Ftilde", (("Ftilde", Ft),), F, offsets)


def surface_from_pair(
    f: PolyLambda,
    g: PolyLambda,
    offsets: Union[Sequence[Union[int, Fraction]], None] = None,
) -> Surface:
    """Four components (Re f, Im f, Re g, Im g) of two polynomials in L."""
    f = PolyLambda.coerce(f)
    g = PolyLambda.coerce(g)
    offs = _offsets_tuple(4, offsets)
    prims = (f, f.scale(_MINUS_I), g, g.scale(_MINUS_I))
    prov = Provenance("pair", (("f", f), ("g", g)), prims)
    return _surface_from_primitives(prims, offs, prov)


def enneper(
    n: int = 1,
    offsets: Union[Sequence[Union[int, Fraction]], None] = None,
) -> Surface:
    """The degree-n Enneper surface, surface_from_fg(2, L^n)."""
    if n < 1:
        raise ValueError("enneper requires n >= 1")
    return surface_from_fg(RatLambda(2), RatLambda(PolyLambda({n: 1})), offsets)


def conjugate_surface(s: Surface) -> Surface:
    """The conjugate family member: X~^i = Im(P_i), offsets reset to zero.

    Satisfies d_u X = d_v X~ and d_v X = -d_u X~ exactly.  Applying it
    twice gives -X (up to offsets).  Raw surfaces carry no primitives and
    are rejected.
    """
    prov = s.provenance
    if not prov.primitives:
        raise ValueError(
            f"cannot conjugate a surface of kind {prov.kind!r}: no primitives recorded"
        )
    # Re(-i P) = Im P
    prims = tuple(p.scale(_MINUS_I) for p in prov.primitives)
    offs = (Fraction(0),) * len(prims)
    return _surface_from_primitives(prims, offs, Provenance("conjugate", prov.params, prims))


# ---------------------------------------------------------------------------
# Normal and mean curvature
# ---------------------------------------------------------------------------


def normal_element() -> tuple[WeylElement, WeylElement, WeylElement]:
    """The Gauss-map normal (L + Ls, -i(L - Ls), L Ls - h - 1) for g = L."""
    n3 = WeylElement(
        {
            (1, 1): 1,
            (0, 0): HbarPoly({0: -1, 1: -1}),
        }
    )
    return (
        WeylElement({(1, 0): 1, (0, 1): 1}),
        WeylElement({(1, 0): GaussRational(0, -1), (0, 1): GaussRational(0, 1)}),
        n3,
    )


def _tangents(s: Surface, n: Sequence[WeylElement]) -> tuple[tuple[WeylElement, ...], ...]:
    """d_u X and d_v X, for a normal ``n`` of one component per surface component."""
    if len(n) != s.n:
        raise ValueError("normal must have one component per surface component")
    return _partials(s, Direction.U), _partials(s, Direction.V)


def check_normal(s: Surface, n: Sequence[WeylElement]) -> bool:
    """Whether <d_u X, N> and <d_v X, N> both vanish exactly."""
    xu, xv = _tangents(s, n)
    return bilinear(xu, tuple(n)).is_zero() and bilinear(xv, tuple(n)).is_zero()


def mean_curvature_h0(s: Surface, n: Sequence[WeylElement]) -> WeylElement:
    """H0 = -(1/2)(<d_u X, d_u N> + <d_v X, d_v N>); zero for minimal data."""
    xu, xv = _tangents(s, n)
    nu = tuple(c.derive(Direction.U) for c in n)
    nv = tuple(c.derive(Direction.V) for c in n)
    return (bilinear(xu, nu) + bilinear(xv, nv)).scale(Fraction(-1, 2))
