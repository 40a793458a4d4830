"""Commutative shadow of the algebra: the limit h -> 0.

In the limit the generators commute, L becomes u + i v and Ls becomes
u - i v, so every element degenerates to an ordinary polynomial in two
real variables.  :class:`UVPoly` is that polynomial ring (coefficients
still GaussRational; hermitian elements land in the real subring), and
:func:`classical_limit` performs the substitution.  The image of
``L^k Ls^l`` is the h-free part of its U,V-ordered form, so the limit is
the h-free U,V accumulation of :mod:`weylmin.weyl` (the one that
:func:`weylmin.weyl.uv_coefficients` groups); this module knows no
commutation rule.  UVPoly is the kernel's flat form
(:class:`weylmin.scalars.Flat`) with rows ``(p, q, re, im)``, the
commutative product and the (total degree, u-degree) term order that
algebra elements use too.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import Flat, GaussRational, _by_total_degree
from .weyl import WeylElement, _uv_acc


class UVPoly(Flat):
    """Commutative polynomial in the real coordinates (u, v); ``terms`` is
    it as ``((p, q), GaussRational)`` pairs, built on access."""

    __slots__ = ()
    _fields = ("terms",)
    COEFF = GaussRational
    LIFTS = (GaussRational, int, Fraction)
    OUTER = 2
    ORDER = staticmethod(_by_total_degree)

    @property
    def terms(self) -> tuple[tuple[tuple[int, int], GaussRational], ...]:
        return self._view()

    def diff(self, var: str) -> "UVPoly":
        """Partial derivative with respect to "u" or "v"."""
        if var not in ("u", "v"):
            raise ValueError(f"variable must be 'u' or 'v', got {var!r}")
        dp, dq = (1, 0) if var == "u" else (0, 1)
        return self._new({(p - dp, q - dq): (n * re, n * im)
                          for p, q, re, im in self.rows if (n := p if dp else q)}, self.den)

    def is_real(self) -> bool:
        return all(not im for *_, im in self.rows)


def classical_limit(a: WeylElement) -> UVPoly:
    """Send h -> 0 and substitute L -> u + iv, Ls -> u - iv.

    Only the h-degree-zero part of each coefficient survives, so only the
    h-free rows of ``a`` are rewritten.
    """
    return UVPoly._new({(p, q): v for (p, q, _), v in _uv_acc(a, h_free=True).items()}, a.den)


def classical_limit_fraction(a: WeylElement) -> dict[tuple[int, int], Fraction]:
    """Real classical limit as a plain dict, for hermitian elements.

    Raises if any surviving coefficient has an imaginary part.
    """
    p = classical_limit(a)
    if not p.is_real():
        raise ValueError("classical limit is not real")
    return {(u, v): Fraction(re, p.den) for u, v, re, _ in p.rows}
