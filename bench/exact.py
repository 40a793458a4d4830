"""The benchmark's own exact arithmetic, independent of weylmin.

Checks in the workloads recompute what the program should have produced
by a different route: point evaluation over the Gaussian rationals with
``fractions.Fraction``.  Polynomials in L and h are dicts mapping
``(L-degree, h-degree)`` to :class:`G` coefficients.
"""

from __future__ import annotations

from fractions import Fraction


class G:
    """Exact Gaussian rational ``re + im*i``."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __add__(self, o):
        o = _g(o)
        return G(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, o):
        o = _g(o)
        return G(self.re - o.re, self.im - o.im)

    def __rsub__(self, o):
        return _g(o) - self

    def __neg__(self):
        return G(-self.re, -self.im)

    def __mul__(self, o):
        o = _g(o)
        return G(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, o):
        o = _g(o)
        n = o.re * o.re + o.im * o.im
        if not n:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return self * G(o.re / n, -o.im / n)

    def __pow__(self, n):
        out = G(1)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, o):
        o = _g(o)
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def is_zero(self):
        return not self.re and not self.im


def _g(x):
    return x if isinstance(x, G) else G(x)


I = G(0, 1)


# -- bivariate polynomials {(L-degree, h-degree): G} ---------------------------


def pmul(a, b):
    out = {}
    for (k1, j1), c1 in a.items():
        for (k2, j2), c2 in b.items():
            key = (k1 + k2, j1 + j2)
            out[key] = out.get(key, G()) + c1 * c2
    return {k: c for k, c in out.items() if not c.is_zero()}


def ppow(a, n):
    out = {(0, 0): G(1)}
    for _ in range(n):
        out = pmul(out, a)
    return out


def peval(a, lam, hbar):
    total = G()
    for (k, j), c in a.items():
        total = total + c * lam**k * hbar**j
    return total


def pderiv_eval(a, lam, hbar):
    """d/dL of ``a`` evaluated at (lam, hbar)."""
    total = G()
    for (k, j), c in a.items():
        if k:
            total = total + c * k * lam ** (k - 1) * hbar**j
    return total


# -- text for the program's parser ---------------------------------------------


def _frac_text(x):
    s = str(x)
    return f"({s})" if x < 0 or x.denominator != 1 else s


def g_text(c):
    if not c.im:
        return _frac_text(c.re)
    if not c.re:
        return f"{_frac_text(c.im)}*i"
    return f"({_frac_text(c.re)}+{_frac_text(c.im)}*i)"


def poly_text(a):
    """Render a bivariate polynomial in the grammar both parser modes accept."""
    if not a:
        return "0"
    parts = []
    for (k, j), c in sorted(a.items()):
        factors = [] if c == 1 and (k or j) else [g_text(c)]
        if j:
            factors.append("h" if j == 1 else f"h^{j}")
        if k:
            factors.append("L" if k == 1 else f"L^{k}")
        parts.append("*".join(factors))
    return "(" + " + ".join(parts) + ")"


# -- decoding the weylmin/1 coefficient records --------------------------------


def coeff_from_records(records):
    """An h-polynomial {h-degree: G} from weylmin/1 coefficient records."""
    return {
        int(r["hbar_deg"]): G(
            Fraction(int(r["re_num"]), int(r["re_den"])),
            Fraction(int(r["im_num"]), int(r["im_den"])),
        )
        for r in records
    }


def poly_from_records(records):
    """A bivariate polynomial from a weylmin/1 polynomial-in-L record list."""
    out = {}
    for rec in records:
        for j, c in coeff_from_records(rec["coeff"]).items():
            out[(int(rec["deg"]), j)] = c
    return out
