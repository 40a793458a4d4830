"""Text and LaTeX rendering.

Text output is canonical and grammar-compatible: parsing the rendered
string reproduces the element exactly, which the tests rely on.  Terms
appear in the canonical order (total degree, then L-degree), coefficients
as exact rationals.

LaTeX output presents elements in U,V-ordered form (every monomial
``U^p V^q`` with all U factors to the left), which tends to match how
hermitian surface components are written down.  Text reads elements
through :func:`weylmin.weyl.coefficients` and LaTeX through its U,V twin
:func:`weylmin.weyl.uv_coefficients`, as ``(h-degree, re, im)`` triples,
not through HbarPoly; this module knows no commutation rule.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import TYPE_CHECKING

from .weyl import Coeff, coefficients, uv_coefficients

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .holomorphic import PolyLambda, RatLambda
    from .surfaces import Surface
    from .weyl import WeylElement


# -- coefficient formatting --------------------------------------------------


def _gauss_text(re: Fraction, im: Fraction) -> str:
    if not im:
        return str(re)
    if not re:
        if im == 1:
            return "i"
        if im == -1:
            return "-i"
        return f"{im}*i"
    sign = "+" if im > 0 else "-"
    im = abs(im)
    im_s = "i" if im == 1 else f"{im}*i"
    return f"({re} {sign} {im_s})"


def _hbar_monomial_text(deg: int, re: Fraction, im: Fraction) -> str:
    cs = _gauss_text(re, im)
    if deg == 0:
        return cs
    h = "h" if deg == 1 else f"h^{deg}"
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
    """``coeff*monomial`` for a coefficient given as ``(h-degree, re, im)``
    triples; a sum of several h-powers is parenthesised."""
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
    parts = []
    if k:
        parts.append("L" if k == 1 else f"L^{k}")
    if l:
        parts.append("Ls" if l == 1 else f"Ls^{l}")
    return "*".join(parts)


def weyl_text(a: "WeylElement") -> str:
    """Canonical normal-ordered text; parses back to the same element."""
    return _join_terms([_term_text(c, _lam_monomial(k, l))
                        for (k, l), c in coefficients(a).items()])


def weyl_latex(a: "WeylElement") -> str:
    """LaTeX in U,V-ordered form."""
    parts = []
    for (p, q), c in uv_coefficients(a).items():
        mono = ""
        if p:
            mono += "U" if p == 1 else f"U^{{{p}}}"
        if q:
            mono += "V" if q == 1 else f"V^{{{q}}}"
        parts.append(_latex_term(c, mono))
    return _join_terms(parts)


def _latex_frac(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    if x < 0:
        return f"-\\frac{{{-x.numerator}}}{{{x.denominator}}}"
    return f"\\frac{{{x.numerator}}}{{{x.denominator}}}"


def _latex_gauss(re: Fraction, im: Fraction, *, bare: bool) -> str:
    """LaTeX scalar ``re + im i``; with bare=False a trailing factor follows."""
    if not im:
        return _latex_frac(re)
    if not re:
        if im == 1:
            return "i"
        if im == -1:
            return "-i"
        return f"{_latex_frac(im)}i"
    inner = f"{_latex_frac(re)} {'+' if im > 0 else '-'} {_latex_gauss(0, abs(im), bare=True)}"
    return inner if bare else f"\\left({inner}\\right)"


def _latex_term(coeffs: Coeff, mono: str) -> str:
    parts = []
    for d, re, im in coeffs:
        h = "" if d == 0 else ("\\hbar" if d == 1 else f"\\hbar^{{{d}}}")
        gs = _latex_gauss(re, im, bare=False)
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
    parts = []
    for d, c in p.coeffs:
        mono = "" if d == 0 else ("L" if d == 1 else f"L^{d}")
        parts.append(_term_text([(j, g.re, g.im) for j, g in c.coeffs], mono))
    return _join_terms(parts)


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
    lines = []
    for idx, c in enumerate(s.components, start=1):
        lines.append(f"X{idx} = {weyl_text(c)}")
    return "\n".join(lines)


def surface_latex(s: "Surface") -> str:
    lines = []
    for idx, c in enumerate(s.components, start=1):
        lines.append(f"X^{{{idx}}} &= {weyl_latex(c)} \\\\")
    return "\n".join(lines)
