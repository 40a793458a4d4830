"""Text and LaTeX rendering.

Text output is canonical and grammar-compatible: parsing the rendered
string reproduces the element exactly, which the tests rely on.  Terms
appear in the canonical order (total degree, then L-degree), coefficients
as exact rationals.

LaTeX output presents elements in U,V-ordered form (every monomial
``U^p V^q`` with all U factors to the left), which tends to match how
hermitian surface components are written down.  Text reads elements
through :func:`weylmin.weyl.coefficients` and LaTeX through its U,V twin
:func:`weylmin.weyl.uv_coefficients`, as ``(h-degree, re_num, re_den,
im_num, im_den)`` integer records, not through HbarPoly; this module knows
no commutation rule.  One formatter, :func:`_gauss_fmt`, writes a Gaussian
coefficient from those integers in either notation.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING

from .scalars import Coeff, grouped
from .weyl import coefficients, uv_coefficients

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .holomorphic import PolyLambda, RatLambda
    from .surfaces import Surface
    from .weyl import WeylElement


# -- coefficient formatting --------------------------------------------------


# The notations differ only in (fraction, factor before i, left bracket,
# right bracket); the sign and unit rules are shared.
_TEXT = ("{}/{}", "*", "(", ")")
_LATEX = ("\\frac{{{}}}{{{}}}", "", "\\left(", "\\right)")
_SUP = "{}^{{{}}}"  # a LaTeX power; text writes x^n


def _power(x: str, n: int, fmt: str = "{}^{}") -> str:
    """``x`` to the power ``n``: empty for 0, ``x`` for 1."""
    return "" if not n else x if n == 1 else fmt.format(x, n)


def _frac(fmt: str, n: int, d: int) -> str:
    if d == 1:
        return f"{n}"
    return "-" + fmt.format(-n, d) if n < 0 else fmt.format(n, d)


def _gauss_fmt(style: tuple, a: int, p: int, b: int, q: int) -> str:
    """The Gaussian scalar a/p + (b/q)*i, both parts in lowest terms with
    positive denominators, in the notation ``style``."""
    frac, times, left, right = style
    if not b:
        return _frac(frac, a, p)
    im = "i" if q == 1 and b in (1, -1) else _frac(frac, abs(b), q) + times + "i"
    if not a:
        return "-" + im if b < 0 else im
    return f"{left}{_frac(frac, a, p)} {'+' if b > 0 else '-'} {im}{right}"


def _hbar_monomial_text(deg: int, a: int, p: int, b: int, q: int) -> str:
    cs = _gauss_fmt(_TEXT, a, p, b, q)
    if deg == 0:
        return cs
    h = _power("h", deg)
    if cs == "1":
        return h
    if cs == "-1":
        return f"-{h}"
    if cs.startswith("(") or "*" not in cs:
        return f"{cs}*{h}"
    return f"({cs})*{h}"


def _join_terms(parts: list[str]) -> str:
    if not parts:
        return "0"
    out = parts[0]
    for part in parts[1:]:
        if part.startswith("-") and not part.startswith("-("):
            out += " - " + part[1:]
        else:
            out += " + " + part
    return out


def _term_text(coeffs: Coeff, monomial: str) -> str:
    """``coeff*monomial`` for a coefficient given as integer records; a sum
    of several h-powers is parenthesised."""
    parts = [_hbar_monomial_text(*c) for c in coeffs] or ["0"]
    text = parts[0] if len(parts) == 1 else f"({' + '.join(parts)})"
    if not monomial:
        return text
    if text == "1":
        return monomial
    if text == "-1":
        return f"-{monomial}"
    return f"{text}*{monomial}"


# -- algebra elements --------------------------------------------------------


def _lam_monomial(k: int, l: int) -> str:
    return "*".join(filter(None, (_power("L", k), _power("Ls", l))))


def weyl_text(a: "WeylElement") -> str:
    """Canonical normal-ordered text; parses back to the same element."""
    return _join_terms([_term_text(c, _lam_monomial(k, l))
                        for (k, l), c in coefficients(a).items()])


def weyl_latex(a: "WeylElement") -> str:
    """LaTeX in U,V-ordered form."""
    return _join_terms([_latex_term(c, _power("U", p, _SUP) + _power("V", q, _SUP))
                        for (p, q), c in uv_coefficients(a).items()])


def _latex_term(coeffs: Coeff, mono: str) -> str:
    parts = []
    for d, a, p, b, q in coeffs:
        h = _power("\\hbar", d, _SUP)
        gs = _gauss_fmt(_LATEX, a, p, b, q)
        if h and gs == "1":
            gs = ""
        elif h and gs == "-1":
            gs = "-"
        parts.append(gs + h)
    coeff = parts[0] if len(parts) == 1 else f"\\left({_join_terms(parts)}\\right)"
    if not mono:
        return coeff
    if coeff == "1":
        return mono
    if coeff == "-1":
        return f"-{mono}"
    if coeff and coeff[-1].isalpha():
        # keep \hbar and the following symbol from fusing into one macro
        return f"{coeff} {mono}"
    return f"{coeff}{mono}"


# -- Lambda-rational data ----------------------------------------------------


def poly_lambda_text(p: "PolyLambda") -> str:
    return _join_terms([_term_text(c, _power("L", d))
                        for (d,), c in grouped(p.rows, p.den, 1).items()])


_ATOM = re.compile(r"^(?:[0-9]+|[A-Za-z]+(?:\^[0-9]+)?)$")


def rat_text(r: "RatLambda") -> str:
    if r.is_polynomial():
        return poly_lambda_text(r.num)
    num = poly_lambda_text(r.num)
    den = poly_lambda_text(r.den)
    if " + " in num or " - " in num:
        num = f"({num})"
    if not _ATOM.match(den):
        den = f"({den})"
    return f"{num}/{den}"


# -- surfaces ----------------------------------------------------------------


def surface_text(s: "Surface") -> str:
    return "\n".join(f"X{idx} = {weyl_text(c)}" for idx, c in enumerate(s.components, start=1))


def surface_latex(s: "Surface") -> str:
    return "\n".join(f"X^{{{idx}}} &= {weyl_latex(c)} \\\\"
                     for idx, c in enumerate(s.components, start=1))
