"""Text and LaTeX rendering.

Text output is canonical and grammar-compatible: parsing the rendered
string reproduces the element exactly, which the tests rely on.  Terms
appear in the canonical order (total degree, then L-degree), coefficients
as exact rationals.

LaTeX output presents elements in U,V-ordered form (every monomial
``U^p V^q`` with all U factors to the left).  Each ``L^k Ls^l`` is expanded
one linear factor ``U +- iV`` at a time, moving the new U left with

    (U^p V^q) U = U^(p+1) V^q - i h q U^p V^(q-1),

which tends to match how hermitian surface components are written down.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import TYPE_CHECKING

from .scalars import GR_I, GaussRational, HbarPoly, canon

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .holomorphic import PolyLambda, RatLambda
    from .surfaces import Surface
    from .weyl import WeylElement


# -- coefficient formatting --------------------------------------------------


def _frac_text(x: Fraction) -> str:
    return str(x)


def _gauss_text(c: GaussRational) -> tuple[str, bool]:
    """Render a GaussRational; the flag says whether the string is atomic
    enough to prefix a monomial with '*' without parentheses."""
    if not c.im:
        s = _frac_text(c.re)
        return s, True
    if not c.re:
        if c.im == 1:
            return "i", True
        if c.im == -1:
            return "-i", True
        return f"{_frac_text(c.im)}*i", True
    sign = "+" if c.im > 0 else "-"
    im = abs(c.im)
    im_s = "i" if im == 1 else f"{_frac_text(im)}*i"
    return f"({_frac_text(c.re)} {sign} {im_s})", True


def _hbar_monomial_text(deg: int, c: GaussRational) -> str:
    cs, _ = _gauss_text(c)
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


def hbar_poly_text(p: HbarPoly) -> tuple[str, bool]:
    """Render an HbarPoly; the flag marks a single-monomial rendering."""
    if p.is_zero():
        return "0", True
    parts = [_hbar_monomial_text(d, c) for d, c in p.coeffs]
    if len(parts) == 1:
        return parts[0], True
    return " + ".join(parts), False


def _coeff_prefix(p: HbarPoly) -> str:
    """Coefficient rendering suitable for '<coeff>*<monomial>'."""
    text, single = hbar_poly_text(p)
    if not single:
        return f"({text})"
    return text


def _join_terms(parts: list[str]) -> str:
    if not parts:
        return "0"
    out = parts[0]
    for part in parts[1:]:
        if part.startswith("-") and not part.startswith("-("):
            out += " - " + part[1:]
        elif part.startswith("-("):
            out += " + " + part
        else:
            out += " + " + part
    return out


def _term_text(coeff: HbarPoly, monomial: str) -> str:
    if not monomial:
        text, single = hbar_poly_text(coeff)
        return text if single else f"({text})"
    prefix = _coeff_prefix(coeff)
    if prefix == "1":
        return monomial
    if prefix == "-1":
        return f"-{monomial}"
    return f"{prefix}*{monomial}"


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
    parts = [_term_text(c, _lam_monomial(k, l)) for (k, l), c in a.terms]
    return _join_terms(parts)


def _uv_order(pair: tuple) -> tuple[int, int]:
    (p, q), _ = pair
    return p + q, -p


def uv_ordered_terms(a: "WeylElement") -> tuple[tuple[tuple[int, int], HbarPoly], ...]:
    """Rewrite in the U,V-ordered basis U^p V^q (U powers to the left)."""
    out = []
    for (k, l), coeff in a.terms:
        # expand L^k Ls^l with L = U + iV, Ls = U - iV, one linear factor
        # at a time, keeping the table U,V ordered throughout.
        words = (((0, 0), coeff),)
        for cv in (GR_I,) * k + (-GR_I,) * l:
            words = _uv_mul_linear(words, cv)
        out.extend(words)
    return canon(out, _uv_order)


def _uv_mul_linear(words: tuple, cv: GaussRational) -> tuple:
    """Multiply a U,V-ordered table on the right by U + cv*V."""
    out = []
    for (p, q), c in words:
        out.append(((p, q + 1), c.scale(cv)))
        out.append(((p + 1, q), c))
        if q:
            out.append(((p, q - 1), c.scale(GaussRational(0, -q)).shift(1)))
    return canon(out)


def weyl_latex(a: "WeylElement") -> str:
    """LaTeX in U,V-ordered form."""
    items = uv_ordered_terms(a)
    if not items:
        return "0"
    parts = []
    for (p, q), c in items:
        mono = ""
        if p:
            mono += "U" if p == 1 else f"U^{{{p}}}"
        if q:
            mono += "V" if q == 1 else f"V^{{{q}}}"
        parts.append(_latex_term(c, mono))
    out = parts[0]
    for part in parts[1:]:
        if part.startswith("-"):
            out += " - " + part[1:]
        else:
            out += " + " + part
    return out


def _latex_frac(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    if x < 0:
        return f"-\\frac{{{-x.numerator}}}{{{x.denominator}}}"
    return f"\\frac{{{x.numerator}}}{{{x.denominator}}}"


def _latex_gauss(c: GaussRational, *, bare: bool) -> str:
    """LaTeX scalar; with bare=False a trailing factor follows."""
    if not c.im:
        return _latex_frac(c.re)
    if not c.re:
        if c.im == 1:
            return "i"
        if c.im == -1:
            return "-i"
        return f"{_latex_frac(c.im)}i"
    inner = f"{_latex_frac(c.re)} {'+' if c.im > 0 else '-'} {_latex_gauss(GaussRational(0, abs(c.im)), bare=True)}"
    return inner if bare else f"\\left({inner}\\right)"


def _latex_term(c: HbarPoly, mono: str) -> str:
    if c.is_zero():
        return "0"
    parts = []
    for d, g in c.coeffs:
        h = "" if d == 0 else ("\\hbar" if d == 1 else f"\\hbar^{{{d}}}")
        gs = _latex_gauss(g, bare=False)
        if h and gs == "1":
            gs = ""
        elif h and gs == "-1":
            gs = "-"
        parts.append(gs + h)
    if len(parts) == 1:
        coeff = parts[0]
    else:
        joined = parts[0]
        for p in parts[1:]:
            joined += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        coeff = f"\\left({joined}\\right)"
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
        parts.append(_term_text(c, mono))
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
