"""Commutative shadow of the algebra: the limit h -> 0.

In the limit the generators commute, L becomes u + i v and Ls becomes
u - i v, so every element degenerates to an ordinary polynomial in two
real variables.  :class:`UVPoly` is that polynomial ring (coefficients
still GaussRational; hermitian elements land in the real subring), and
:func:`classical_limit` performs the substitution.  The image of
``L^k Ls^l`` is the h-free part of its U,V-ordered form, so the limit is
the h-degree-0 part of :func:`weylmin.weyl.uv_rows`, the one integer
accumulation of an element's rows times the rows of
:func:`weylmin.weyl.uv_table`; this module knows no commutation rule.
UVPoly is built on the kernel in :mod:`weylmin.scalars`: the operator
mixin, the canonicaliser and the (total degree, u-degree) term order that
algebra elements use too.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Union

from .scalars import GaussLike, GaussRational, Ring, bidegree_order, canon
from .weyl import WeylElement, uv_rows


class UVPoly(Ring):
    """Commutative polynomial in the real coordinates (u, v)."""

    __slots__ = _fields = ("terms",)
    terms: tuple[tuple[tuple[int, int], GaussRational], ...]
    LIFTS = (GaussRational, int, Fraction)

    def __init__(
        self,
        terms: Union[
            Mapping[tuple[int, int], GaussLike],
            Iterable[tuple[tuple[int, int], GaussLike]],
        ] = (),
    ) -> None:
        canonical = canon(terms, bidegree_order, GaussRational.coerce)
        if any(p < 0 or q < 0 for (p, q), _ in canonical):
            raise ValueError("negative monomial degree")
        object.__setattr__(self, "terms", canonical)

    @classmethod
    def _lift(cls, x: GaussLike) -> "UVPoly":
        return cls({(0, 0): x})

    def is_zero(self) -> bool:
        return not self.terms

    def _add(self, o: "UVPoly") -> "UVPoly":
        return UVPoly(self.terms + o.terms)

    def __neg__(self) -> "UVPoly":
        return UVPoly((pq, -c) for pq, c in self.terms)

    def _mul(self, o: "UVPoly") -> "UVPoly":
        return UVPoly(
            ((p1 + p2, q1 + q2), c1 * c2)
            for (p1, q1), c1 in self.terms
            for (p2, q2), c2 in o.terms
        )

    def scale(self, c: GaussLike) -> "UVPoly":
        co = GaussRational.coerce(c)
        return UVPoly((pq, cc * co) for pq, cc in self.terms)

    def diff(self, var: str) -> "UVPoly":
        """Partial derivative with respect to "u" or "v"."""
        if var == "u":
            return UVPoly(((p - 1, q), c * p) for (p, q), c in self.terms if p > 0)
        if var == "v":
            return UVPoly(((p, q - 1), c * q) for (p, q), c in self.terms if q > 0)
        raise ValueError(f"variable must be 'u' or 'v', got {var!r}")

    def is_real(self) -> bool:
        return all(not c.im for _, c in self.terms)


def classical_limit(a: WeylElement) -> UVPoly:
    """Send h -> 0 and substitute L -> u + iv, Ls -> u - iv.

    Only the h-degree-zero part of each coefficient survives, so only the
    h-free rows of ``a`` are rewritten.
    """
    return UVPoly(
        ((p, q), GaussRational(Fraction(re, a.den), Fraction(im, a.den)))
        for p, q, d, re, im in uv_rows(row for row in a.rows if not row[2])
        if not d
    )


def classical_limit_fraction(a: WeylElement) -> dict[tuple[int, int], Fraction]:
    """Real classical limit as a plain dict, for hermitian elements.

    Raises if any surviving coefficient has an imaginary part.
    """
    p = classical_limit(a)
    if not p.is_real():
        raise ValueError("classical limit is not real")
    return {pq: c.re for pq, c in p.terms}
