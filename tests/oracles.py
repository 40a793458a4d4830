"""Independent oracles for cross-checking the library.

Everything here recomputes results by a deliberately different route than
the package: one-swap rewriting instead of the closed reordering formula,
plain-dict polynomial arithmetic instead of the canonicalized classes, and
exact point evaluation instead of symbolic identities.  The implementations
are kept dumb on purpose.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from collections import defaultdict
from typing import Dict, Iterable, Tuple

import numpy as np

from weylmin.fock import _TERM_CUTOFF, exp_lambda
from weylmin.scalars import GR_I, Field, GaussRational, HbarPoly, _accumulate
from weylmin.weyl import Direction, WeylElement, uv_table

Word = Tuple[str, ...]
Coeff = Dict[int, GaussRational]  # hbar degree -> Gaussian rational


def _acc(target: Coeff, source: Coeff, scale: GaussRational, shift: int = 0) -> None:
    for deg, c in source.items():
        key = deg + shift
        target[key] = target.get(key, GaussRational()) + c * scale


def _coeff_to_poly(coeff: Coeff) -> HbarPoly:
    return HbarPoly({deg: c for deg, c in coeff.items() if c})


_ONE = GaussRational(1)


def lambda_word_normal_order(l: int, m: int) -> Dict[Tuple[int, int], HbarPoly]:
    """Rewrite (Ls)^l L^m using only the single swap Ls L -> L Ls - 2h.

    Words are tuples over the letters "L" and "S" (for Lambda-star); the
    result maps (k, l) bidegrees to hbar-polynomial coefficients.
    """
    pending: Dict[Word, Coeff] = {("S",) * l + ("L",) * m: {0: _ONE}}
    done: Dict[Tuple[int, int], Coeff] = {}
    while pending:
        next_round: Dict[Word, Coeff] = {}
        for word, coeff in pending.items():
            idx = next(
                (i for i in range(len(word) - 1) if word[i : i + 2] == ("S", "L")),
                None,
            )
            if idx is None:
                k = word.count("L")
                _acc(done.setdefault((k, len(word) - k), {}), coeff, _ONE)
                continue
            swapped = word[:idx] + ("L", "S") + word[idx + 2 :]
            dropped = word[:idx] + word[idx + 2 :]
            _acc(next_round.setdefault(swapped, {}), coeff, _ONE)
            _acc(next_round.setdefault(dropped, {}), coeff, GaussRational(-2), shift=1)
        pending = next_round
    out = {kl: _coeff_to_poly(c) for kl, c in done.items()}
    return {kl: p for kl, p in out.items() if not p.is_zero()}


def weyl_product_by_swaps(a: WeylElement, b: WeylElement) -> WeylElement:
    """a * b term pair by term pair, without the closed reordering formula.

    Each pair c1 L^k1 Ls^l1 * c2 L^k2 Ls^l2 contributes
    c1 c2 L^k1 (Ls^l1 L^k2) Ls^l2, with the middle factor normal ordered
    by :func:`lambda_word_normal_order`; coefficients multiply as HbarPoly.
    """
    out: Dict[Tuple[int, int], HbarPoly] = {}
    for (k1, l1), c1 in a.terms:
        for (k2, l2), c2 in b.terms:
            for (k, l), p in lambda_word_normal_order(l1, k2).items():
                key = (k1 + k, l + l2)
                term = c1 * c2 * p
                out[key] = out[key] + term if key in out else term
    return WeylElement(out)


def bilinear_literal(xs, ys) -> WeylElement:
    """(1/2) sum (x y + y x), both products formed by the swap oracle."""
    total = WeylElement()
    for x, y in zip(xs, ys):
        total = total + weyl_product_by_swaps(x, y) + weyl_product_by_swaps(y, x)
    return total.scale(Fraction(1, 2))


# -- Gaussian rationals as a pair of Fractions ------------------------------------
#
# A route independent of the package's flat rows: each part is a Fraction,
# with its own sum, product and inverse, so comparisons against it never
# run through ``scalars.Flat``.


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class FractionGauss(Field):
    """Exact complex number ``re + im*i`` with rational components.

    Fractions keep themselves in lowest terms with positive denominators,
    so instances are always canonical.
    """

    __slots__ = _fields = ("re", "im")
    re: Fraction
    im: Fraction
    LIFTS = (int, Fraction)

    def __init__(self, re=0, im=0) -> None:
        object.__setattr__(self, "re", _frac(re))
        object.__setattr__(self, "im", _frac(im))

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def conjugate(self) -> "FractionGauss":
        return FractionGauss(self.re, -self.im)

    def _add(self, o: "FractionGauss") -> "FractionGauss":
        return FractionGauss(self.re + o.re, self.im + o.im)

    def __neg__(self) -> "FractionGauss":
        return FractionGauss(-self.re, -self.im)

    def _mul(self, o: "FractionGauss") -> "FractionGauss":
        # A factor on an axis (a rational, or i times one) costs two
        # Fraction products instead of four and two sums.
        if not o.im:
            return FractionGauss(self.re * o.re, self.im * o.re)
        if not o.re:
            return FractionGauss(-self.im * o.im, self.re * o.im)
        return FractionGauss(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    def inverse(self) -> "FractionGauss":
        n = self.re * self.re + self.im * self.im
        if not n:
            raise ZeroDivisionError("inverse of zero GaussRational")
        return FractionGauss(self.re / n, -self.im / n)

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __str__(self) -> str:
        if not self.im:
            return str(self.re)
        if not self.re:
            return f"{self.im}*i"
        sign = "+" if self.im >= 0 else "-"
        return f"({self.re} {sign} {abs(self.im)}*i)"


# -- the nested kernel -----------------------------------------------------------
#
# Polynomials as canonical tuples of (key, coefficient) pairs, summed by
# ``canon``: an h-polynomial over FractionGauss and a polynomial in L over
# it, with the multiply, division, content and gcd that the package ran on
# this form before it stored every polynomial as flat rows of integers.
# No arithmetic here runs through the package's flat form.


def canon(items, order=None, coerce=None) -> tuple:
    """The canonical tuple of ``(key, coeff)`` pairs.

    Coefficients of equal keys are summed and zero sums dropped; the pairs
    are sorted by key, or by ``order(pair)`` when given.  A mapping is read
    as its items, and ``coerce`` converts each coefficient first.
    """
    if isinstance(items, dict):
        items = items.items()
    if coerce is not None:
        items = [(key, coerce(c)) for key, c in items]
    acc: dict = {}
    for key, c in items:
        cur = acc.get(key)
        acc[key] = c if cur is None else cur + c
    return tuple(sorted([kc for kc in acc.items() if not kc[1].is_zero()], key=order))


def bidegree_order(pair: tuple) -> tuple:
    """Sort key of bivariate terms: total degree, then the first degree."""
    (k, l), _ = pair
    return k + l, k


class NestedPoly:
    """Univariate polynomial as canonical ``(degree, coefficient)`` pairs."""

    COEFF: type

    def __init__(self, coeffs=()):
        self.coeffs = canon(coeffs, coerce=self.COEFF.coerce)

    @classmethod
    def coerce(cls, x):
        return x if isinstance(x, cls) else cls({0: x})

    def __eq__(self, o):
        return type(o) is type(self) and self.coeffs == o.coeffs

    __hash__ = None

    def __repr__(self):
        return f"{type(self).__name__}({self.coeffs!r})"

    def is_zero(self):
        return not self.coeffs

    def degree(self):
        return self.coeffs[-1][0] if self.coeffs else -1

    def leading(self):
        return self.coeffs[-1][1] if self.coeffs else self.COEFF.coerce(0)

    def __add__(self, o):
        return type(self)(self.coeffs + self.coerce(o).coeffs)

    def __neg__(self):
        return type(self)((d, -c) for d, c in self.coeffs)

    def __sub__(self, o):
        return self + -self.coerce(o)

    def __mul__(self, o):
        o = self.coerce(o)
        return type(self)([(d1 + d2, c1 * c2) for d1, c1 in self.coeffs for d2, c2 in o.coeffs])

    def __pow__(self, n: int):
        return repeated_power(self, n, self.coerce(1))

    def scale(self, c):
        return type(self)((d, x * c) for d, x in self.coeffs)

    def divmod_poly(self, other):
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
            q = top * inv if inv is not None else nested_exact_div(top, lb)
            quo.append((dr - db, q))
            for d, c in lower:
                nd = d + dr - db
                rem[nd] = rem[nd] - c * q if nd in rem else -(c * q)
                if rem[nd].is_zero():
                    del rem[nd]
        return type(self)(quo), type(self)(rem)

    def monic(self):
        return nested_cancel(self, nested_content(self)) if self.coeffs else self


class NestedHbar(NestedPoly):
    COEFF = FractionGauss


class NestedLambda(NestedPoly):
    COEFF = NestedHbar


def nested(p):
    """An HbarPoly or PolyLambda as the nested reference type."""
    if isinstance(p, HbarPoly):
        return NestedHbar((d, FractionGauss(c.re, c.im)) for d, c in p.coeffs)
    return NestedLambda((k, nested(c)) for k, c in p.coeffs)


def nested_content(lead, *rest):
    lc = lead.leading()
    if isinstance(lc, Field):
        return lc
    c = NestedHbar()
    for p in (lead, *rest):
        for _, x in p.coeffs:
            c = nested_gcd(c, x)
    return c.scale(lc.leading())


def nested_cancel(p, c):
    if isinstance(c, Field):
        return p.scale(c.inverse())
    return type(p)((d, nested_exact_div(x, c)) for d, x in p.coeffs)


def nested_exact_div(a, b):
    q, r = a.divmod_poly(b)
    if not r.is_zero():
        raise ValueError("inexact polynomial division")
    return q


def nested_gcd(a, b):
    """The primitive remainder sequence on the nested form."""
    while not b.is_zero():
        if not b.degree():
            return b.coerce(1)
        if not isinstance(b.leading(), Field):
            a = a.scale(b.leading() ** max(a.degree() - b.degree() + 1, 0))
        a, b = b, a.divmod_poly(b)[1].monic()
    return a.monic()


def nested_quotient(num, den) -> tuple:
    """The canonical ``(num, den)`` of a quotient of two nested polynomials:
    their gcd divided out, then their joint content."""
    if num.is_zero():
        return type(num)(), type(num).coerce(1)
    if den != den.coerce(1):
        g = nested_gcd(num, den)
        if g.degree() > 0:
            num, den = nested_exact_div(num, g), nested_exact_div(den, g)
        c = nested_content(den, num)
        num, den = nested_cancel(num, c), nested_cancel(den, c)
    return num, den


# -- the JSON layout -----------------------------------------------------------


def dumps_stdlib(obj) -> str:
    """The canonical layout by the standard library's own (pure-Python) encoder."""
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


# -- WeylElement operations term by term, on HbarPoly coefficients ------------
#
# Each returns the canonical ``((k, l), HbarPoly)`` tuple that ``.terms`` of
# the flat result must equal; the arithmetic is HbarPoly/GaussRational
# throughout and the terms are summed by ``canon``.


def terms_sum(a: WeylElement, b: WeylElement) -> tuple:
    return canon(a.terms + b.terms, bidegree_order)


def terms_scale(a: WeylElement, c) -> tuple:
    co = HbarPoly.coerce(c)
    return canon(((kl, p * co) for kl, p in a.terms), bidegree_order)


def terms_star(a: WeylElement) -> tuple:
    return canon((((l, k), p.conjugate()) for (k, l), p in a.terms), bidegree_order)


# d and dbar weights: u = d + dbar, v = i(d - dbar)
_TERM_WEIGHTS = {
    Direction.D: (1, 0),
    Direction.DBAR: (0, 1),
    Direction.U: (1, 1),
    Direction.V: (GR_I, -GR_I),
}


def terms_derive(a: WeylElement, direction: Direction) -> tuple:
    wd, wdbar = _TERM_WEIGHTS[direction]
    out = []
    for (k, l), p in a.terms:
        if k and wd:
            out.append(((k - 1, l), p.scale(wd * k)))
        if l and wdbar:
            out.append(((k, l - 1), p.scale(wdbar * l)))
    return canon(out, bidegree_order)


def terms_laplace(a: WeylElement) -> tuple:
    return canon(
        (((k - 1, l - 1), p.scale(4 * k * l)) for (k, l), p in a.terms if k and l),
        bidegree_order,
    )


def terms_shift_hbar(a: WeylElement, j: int) -> tuple:
    return canon(((kl, p.shift(j)) for kl, p in a.terms), bidegree_order)


def terms_uv_ordered(a: WeylElement) -> tuple:
    """``weyl.uv_coefficients`` as ``((p, q), HbarPoly)`` pairs: each
    coefficient times its uv_table rows."""
    return canon(
        (
            ((p, q), c.shift(d).scale(GaussRational(re, im)))
            for (k, l), c in a.terms
            for p, q, d, re, im in uv_table(k, l)
        ),
        lambda pair: (pair[0][0] + pair[0][1], -pair[0][0]),
    )


def grouped(terms: Iterable) -> list:
    """``((k, l), HbarPoly)`` pairs as the items of the flat-form readers'
    ``{(k, l): [(h-degree, re, im), ...]}``, in the given order."""
    return [(kl, [(d, g.re, g.im) for d, g in p.coeffs]) for kl, p in terms]


# -- the writers on Fraction parts ---------------------------------------------
#
# The flat-form reader and the writers as they were before they read integer
# records: every part a Fraction, with text and LaTeX each formatted by its
# own rules.  The writers take their coefficients from ``grouped`` of the
# HbarPoly view, so they never run through ``scalars.grouped``.


def grouped_fractions(rows: Iterable, den: int, n: int) -> dict:
    """``scalars.grouped`` with Fraction parts: rows ``(*monomial, h-degree,
    re, im)`` over ``den`` as ``{monomial: [(h-degree, re, im), ...]}``."""
    out: dict = {}
    for r in rows:
        out.setdefault(r[:n], []).append((r[n], Fraction(r[n + 1], den), Fraction(r[n + 2], den)))
    return out


def as_fractions(table: dict) -> dict:
    """Integer records ``(h-degree, re_num, re_den, im_num, im_den)`` as
    ``(h-degree, re, im)`` with Fraction parts, keys and order kept."""
    return {key: [(d, Fraction(a, p), Fraction(b, q)) for d, a, p, b, q in c]
            for key, c in table.items()}


def _poly_items(p) -> list:
    """A PolyLambda as ``((L-degree,), [(h-degree, re, im), ...])`` items."""
    return grouped(((d,), c) for d, c in p.coeffs)


def _coeff_obj(coeffs) -> list:
    return [{"hbar_deg": d, "re_num": re.numerator, "re_den": re.denominator,
             "im_num": im.numerator, "im_den": im.denominator} for d, re, im in coeffs]


def weyl_to_obj_fractions(a: WeylElement) -> list:
    return [{"k": k, "l": l, "coeff": _coeff_obj(c)} for (k, l), c in grouped(a.terms)]


def poly_to_obj_fractions(p) -> list:
    return [{"deg": d, "coeff": _coeff_obj(c)} for (d,), c in _poly_items(p)]


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


def _join_terms(parts: list) -> str:
    if not parts:
        return "0"
    out = parts[0]
    for part in parts[1:]:
        if part.startswith("-") and not part.startswith("-("):
            out += " - " + part[1:]
        else:
            out += " + " + part
    return out


def _term_text(coeffs, monomial: str) -> str:
    parts = [_hbar_monomial_text(*c) for c in coeffs] or ["0"]
    text = parts[0] if len(parts) == 1 else f"({' + '.join(parts)})"
    if not monomial:
        return text
    if text == "1":
        return monomial
    if text == "-1":
        return f"-{monomial}"
    return f"{text}*{monomial}"


def _lam_monomial(k: int, l: int) -> str:
    parts = []
    if k:
        parts.append("L" if k == 1 else f"L^{k}")
    if l:
        parts.append("Ls" if l == 1 else f"Ls^{l}")
    return "*".join(parts)


def weyl_text_fractions(a: WeylElement) -> str:
    return _join_terms([_term_text(c, _lam_monomial(k, l)) for (k, l), c in grouped(a.terms)])


def _latex_frac(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    if x < 0:
        return f"-\\frac{{{-x.numerator}}}{{{x.denominator}}}"
    return f"\\frac{{{x.numerator}}}{{{x.denominator}}}"


def _latex_gauss(re: Fraction, im: Fraction, *, bare: bool) -> str:
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


def _latex_term(coeffs, mono: str) -> str:
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
        return f"{coeff} {mono}"
    return f"{coeff}{mono}"


def weyl_latex_fractions(a: WeylElement) -> str:
    parts = []
    for (p, q), c in grouped(terms_uv_ordered(a)):
        mono = ""
        if p:
            mono += "U" if p == 1 else f"U^{{{p}}}"
        if q:
            mono += "V" if q == 1 else f"V^{{{q}}}"
        parts.append(_latex_term(c, mono))
    return _join_terms(parts)


def poly_lambda_text_fractions(p) -> str:
    return _join_terms([_term_text(c, "" if d == 0 else ("L" if d == 1 else f"L^{d}"))
                        for (d,), c in _poly_items(p)])


def rat_text_fractions(r) -> str:
    if r.is_polynomial():
        return poly_lambda_text_fractions(r.num)
    num = poly_lambda_text_fractions(r.num)
    den = poly_lambda_text_fractions(r.den)
    if " + " in num or " - " in num:
        num = f"({num})"
    if not re.match(r"^(?:[0-9]+|[A-Za-z]+(?:\^[0-9]+)?)$", den):
        den = f"({den})"
    return f"{num}/{den}"


def terms_classical_limit(a: WeylElement) -> tuple:
    """``classical.classical_limit`` as ``((p, q), GaussRational)`` pairs:
    the h-free coefficients times the h-free uv_table rows."""
    out = []
    for (k, l), c in a.terms:
        c0 = c.coeff(0)
        out.extend(
            ((p, q), c0 * GaussRational(re, im))
            for p, q, d, re, im in uv_table(k, l)
            if not d
        )
    return canon(out, bidegree_order)


def uv_word_normal_order(word: Iterable[str]) -> Dict[Tuple[int, int], HbarPoly]:
    """Rewrite a U/V word using only the single swap V U -> U V - i h.

    Result maps (p, q) to the coefficient of U^p V^q.
    """
    start = tuple(word)
    assert all(ch in ("U", "V") for ch in start)
    pending: Dict[Word, Coeff] = {start: {0: _ONE}}
    done: Dict[Tuple[int, int], Coeff] = {}
    while pending:
        next_round: Dict[Word, Coeff] = {}
        for w, coeff in pending.items():
            idx = next(
                (i for i in range(len(w) - 1) if w[i : i + 2] == ("V", "U")), None
            )
            if idx is None:
                p = w.count("U")
                _acc(done.setdefault((p, len(w) - p), {}), coeff, _ONE)
                continue
            swapped = w[:idx] + ("U", "V") + w[idx + 2 :]
            dropped = w[:idx] + w[idx + 2 :]
            _acc(next_round.setdefault(swapped, {}), coeff, _ONE)
            _acc(next_round.setdefault(dropped, {}), coeff, GaussRational(0, -1), shift=1)
        pending = next_round
    out = {pq: _coeff_to_poly(c) for pq, c in done.items()}
    return {pq: p for pq, p in out.items() if not p.is_zero()}


def classical_point(a: WeylElement, u: Fraction, v: Fraction) -> GaussRational:
    """Evaluate the h -> 0 limit of a at the point (u, v), exactly.

    At h = 0 the generators commute and L evaluates to u + iv, so the
    limit is the sum of the h-free coefficients times (u+iv)^k (u-iv)^l.
    """
    z = GaussRational(u, v)
    zbar = GaussRational(u, -v)
    total = GaussRational()
    for (k, l), poly in a.terms:
        c0 = dict(poly.coeffs).get(0)
        if c0 is not None:
            total = total + c0 * z**k * zbar**l
    return total


def uv_dict_point(
    coeffs: Dict[Tuple[int, int], Fraction], u: Fraction, v: Fraction
) -> Fraction:
    return sum((c * u**p * v**q for (p, q), c in coeffs.items()), Fraction(0))


# -- dict-based polynomial arithmetic over HbarPoly coefficients -------------

PolyDict = Dict[int, HbarPoly]


def poly_dict(p) -> PolyDict:
    """Coefficient dict of a PolyLambda."""
    return {deg: c for deg, c in p.coeffs}


def pd_mul(a: PolyDict, b: PolyDict) -> PolyDict:
    out: PolyDict = {}
    for da, ca in a.items():
        for db, cb in b.items():
            key = da + db
            prod = ca * cb
            out[key] = out[key] + prod if key in out else prod
    return {d: c for d, c in out.items() if not c.is_zero()}


def pd_sub(a: PolyDict, b: PolyDict) -> PolyDict:
    out = dict(a)
    for d, c in b.items():
        out[d] = out[d] - c if d in out else -c
    return {d: c for d, c in out.items() if not c.is_zero()}


def pd_diff(a: PolyDict) -> PolyDict:
    return {d - 1: c * d for d, c in a.items() if d > 0}


def rat_derivative_matches(r, dr) -> bool:
    """Check dr == r' via the cross-multiplied quotient rule.

    (p/q)' = (p'q - pq')/q^2, so the claim dr = a/b is equivalent to
    a q^2 == (p'q - pq') b with plain dict arithmetic.
    """
    p, q = poly_dict(r.num), poly_dict(r.den)
    a, b = poly_dict(dr.num), poly_dict(dr.den)
    lhs = pd_mul(a, pd_mul(q, q))
    rhs = pd_mul(pd_sub(pd_mul(pd_diff(p), q), pd_mul(p, pd_diff(q))), b)
    return pd_sub(lhs, rhs) == {}


def rat_equal_crossmul(r1, r2) -> bool:
    p1, q1 = poly_dict(r1.num), poly_dict(r1.den)
    p2, q2 = poly_dict(r2.num), poly_dict(r2.den)
    return pd_sub(pd_mul(p1, q2), pd_mul(p2, q1)) == {}


def euclid_gcd(a: HbarPoly, b: HbarPoly) -> HbarPoly:
    """Monic gcd of two h-polynomials by plain Euclid: the remainders are
    left unnormalised, and only the last one is divided by its leading
    coefficient."""
    while not b.is_zero():
        a, b = b, a.divmod_poly(b)[1]
    return a.scale(a.leading().inverse()) if not a.is_zero() else a


# -- Weierstrass primitives and real parts by hand -----------------------------


def ftilde_primitives_omega(ft) -> tuple:
    """The integrated-by-parts primitives of ``surface_from_Ftilde``:

        Omega1 = (1 - L^2) Ft'' + 2L Ft' - 2Ft
        Omega2 = i(1 + L^2) Ft'' - 2iL Ft' + 2i Ft
        Omega3 = 2L Ft'' - 2 Ft'

    constant terms dropped, each divided by nu = n(n - 1), n = deg Ft
    (1 when n < 2), in dict arithmetic.
    """
    from weylmin.holomorphic import PolyLambda

    f0 = poly_dict(ft)
    f1 = pd_diff(f0)
    f2 = pd_diff(f1)
    lam, l2 = {1: HbarPoly.const(1)}, {2: HbarPoly.const(1)}

    def comb(*scaled):
        out: PolyDict = {}
        for c, p in scaled:
            out = pd_sub(out, {d: x * -c for d, x in p.items()})
        return out

    omega = (
        comb((1, f2), (-1, pd_mul(l2, f2)), (2, pd_mul(lam, f1)), (-2, f0)),
        comb((GR_I, f2), (GR_I, pd_mul(l2, f2)), (-2 * GR_I, pd_mul(lam, f1)), (2 * GR_I, f0)),
        comb((2, pd_mul(lam, f2)), (-2, f1)),
    )
    n = ft.degree()
    nu = Fraction(n * (n - 1)) if n >= 2 else Fraction(1)
    return tuple(PolyLambda({d: x * (1 / nu) for d, x in o.items() if d > 0}) for o in omega)


def real_part_components(prims, offsets) -> tuple:
    """offset + Re(P) = offset + sum (c_k L^k + conj(c_k) Ls^k)/2, term by term."""
    out = []
    for off, p in zip(offsets, prims):
        terms: Dict[Tuple[int, int], HbarPoly] = {(0, 0): HbarPoly.const(off)}
        for k, c in p.coeffs:
            for kl, x in (((k, 0), c), ((0, k), c.conjugate())):
                half = x * Fraction(1, 2)
                terms[kl] = terms[kl] + half if kl in terms else half
        out.append(WeylElement(terms))
    return tuple(out)


def real_part_by_star(a: WeylElement) -> WeylElement:
    """Re A = (A + A*)/2 by the ring operations."""
    return (a + a.star()).scale(Fraction(1, 2))


def imag_part_by_star(a: WeylElement) -> WeylElement:
    """Im A = (A - A*)/(2i) = (A - A*)(-i/2) by the ring operations."""
    return (a - a.star()).scale(GaussRational(0, Fraction(-1, 2)))


def verify_minimal_always_witnessed(s):
    """The verifier that always forms E - G = 2(<dX, dX> + <dbarX, dbarX>)
    and F = i(<dX, dX> - <dbarX, dbarX>) and decides conformality from
    them; for hermitian components <dbarX, dbarX> is <dX, dX>*."""
    from weylmin.surfaces import VerificationReport, bilinear

    hermitian = []
    harmonic = []
    witnesses = []
    for idx, c in enumerate(s.components, start=1):
        h = c.is_hermitian()
        hermitian.append(h)
        if not h:
            witnesses.append((f"hermitian:X{idx}", c - c.star()))
        lap = c.laplace()
        harmonic.append(lap.is_zero())
        if not lap.is_zero():
            witnesses.append((f"harmonic:X{idx}", lap))
    d = tuple(c.derive(Direction.D) for c in s.components)
    dd = bilinear(d, d)
    if all(hermitian):
        bb = dd.star()
    else:
        dbar = tuple(c.derive(Direction.DBAR) for c in s.components)
        bb = bilinear(dbar, dbar)
    eg = (dd + bb).scale(2)
    f = (dd - bb).scale(GR_I)
    conformal = eg.is_zero() and f.is_zero()
    if not eg.is_zero():
        witnesses.append(("conformal:E-G", eg))
    if not f.is_zero():
        witnesses.append(("conformal:F", f))
    return VerificationReport(tuple(hermitian), tuple(harmonic), conformal, tuple(witnesses))


def phi_from_fg_products(f, g):
    """The isotropic triple (f(1 - g^2)/2, i f(1 + g^2)/2, f g), with 1/2 and
    i/2 applied as Lambda-rational products."""
    from weylmin.holomorphic import RL_ONE, PhiTriple, RatLambda

    fr, gr = RatLambda.coerce(f), RatLambda.coerce(g)
    g2 = gr * gr
    return PhiTriple.of(
        (RL_ONE - g2) * fr * GaussRational(Fraction(1, 2)),
        (RL_ONE + g2) * fr * GaussRational(0, Fraction(1, 2)),
        fr * gr,
    )


def conjugate_components(prims) -> tuple:
    """The conjugate surface's X~^i = Im(P_i) = (P - P*)/(2i)."""
    from weylmin.holomorphic import poly_to_weyl

    return tuple(poly_to_weyl(p).imag_part() for p in prims)


# -- powers -------------------------------------------------------------------


def repeated_power(x, n: int, one):
    """x**n as |n| repeated products of x (of its inverse when n < 0)."""
    base = x.inverse() if n < 0 else x
    out = one
    for _ in range(abs(n)):
        out = out * base
    return out


# -- scalars as constants ------------------------------------------------------


def lift_by_constructor(cls, c):
    """The constant ``c`` of the flat type ``cls``, built by its constructor
    from one ``(monomial 0, c)`` pair."""
    return cls((((0,) * cls.OUTER, c),))


def scale_by_lift(x, c):
    """``x`` times the scalar ``c``, as the product with its lifted constant."""
    return x._mul(lift_by_constructor(type(x), c))


def divmod_by_steps(a, b):
    """Euclidean division with each quotient term built by the constructor
    and subtracted as a full product with ``b``, over a field or not."""
    from weylmin.scalars import hp_exact_div

    if b.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    db, lb = b.degree(), b.leading()
    quo, rem = type(a)(), a
    while rem.degree() >= db:
        top = rem.leading()
        step = type(a)({rem.degree() - db: top / lb if isinstance(lb, Field)
                        else hp_exact_div(top, lb)})
        quo, rem = quo + step, rem - step * b
    return quo, rem


# -- the derivations through an accumulator --------------------------------------
#
# The flat types form d, dbar, u, v, the Laplacian, the h-shift and the
# partial derivatives as row maps that keep the row order.  These are the
# same maps as keyed accumulators that ``_new`` canonicalises and sorts, so
# they hold whatever order the map leaves.

# The weights (re, im) of d and dbar in each direction: u = d + dbar, v = i(d - dbar).
_DERIVE_WEIGHTS = {
    Direction.D: ((1, 0), (0, 0)),
    Direction.DBAR: ((0, 0), (1, 0)),
    Direction.U: ((1, 0), (1, 0)),
    Direction.V: ((0, 1), (0, -1)),
}


def derive_weighted(a: WeylElement, direction: Direction) -> WeylElement:
    """d and dbar of every row, weighted by the direction, in one accumulator."""
    wd, wdbar = _DERIVE_WEIGHTS[direction]
    return WeylElement._new(_accumulate({}, (
        (key, n * (wr * re - wi * im), n * (wr * im + wi * re))
        for k, l, d, re, im in a.rows
        for key, n, (wr, wi) in (((k - 1, l, d), k, wd), ((k, l - 1, d), l, wdbar))
        if n
    )), a.den)


def laplace_accumulated(a: WeylElement) -> WeylElement:
    return WeylElement._new({
        (k - 1, l - 1, d): (4 * k * l * re, 4 * k * l * im)
        for k, l, d, re, im in a.rows
        if k and l
    }, a.den)


def shift_hbar_accumulated(x, j: int):
    """``x`` times h**j for a flat type whose last key entry is the h-degree."""
    if any(r[-3] + j < 0 for r in x.rows):
        raise ValueError("not divisible by the requested power of h")
    return type(x)._new({r[:-3] + (r[-3] + j,): r[-2:] for r in x.rows}, x.den)


def diff_accumulated(x, axis: int):
    """The derivative of a flat value in the key entry ``axis``."""
    return type(x)._new({r[:axis] + (n - 1,) + r[axis + 1:-2]: (n * r[-2], n * r[-1])
                         for r in x.rows if (n := r[axis])}, x.den)


def recanonical(x):
    """``x`` with its rows put through ``_new`` again: equal to ``x``, rows
    and den, exactly when the rows were sorted, distinct, nonzero and
    reduced against den, as ``_wrap`` needs them."""
    return type(x)._new({r[:-2]: r[-2:] for r in x.rows}, x.den)


# -- closed-form Fock matrix entries -----------------------------------------


def fock_exp_entry(lam: float, m: int, n: int, dagger: bool) -> complex:
    """Exact entry <m| e^{lam a} |n> (or a-dagger) from the ladder action."""
    if dagger:
        if m < n:
            return 0.0
        k = m - n
        return lam**k / math.factorial(k) * math.sqrt(
            math.factorial(m) / math.factorial(n)
        )
    if m > n:
        return 0.0
    k = n - m
    return lam**k / math.factorial(k) * math.sqrt(
        math.factorial(n) / math.factorial(m)
    )


# -- the long-double Fock layer by dense products and scalar loops -------------


def schoolbook_matmul(a, b):
    """``a @ b`` with each product rounded on its own and then summed.

    This is how numpy's own matmul loop rounds (the loop long-double
    arrays use).  For complex128 numpy calls BLAS instead, which may fuse
    a product into the running sum, so a two-term entry can differ from
    this in the last bit.  The summation order differs from the loop's,
    which only matters when a column holds more than two nonzero products.
    """
    return (a[:, :, None] * b[None, :, :]).sum(axis=1)


def dense_generators(config, dtype):
    """L, Ls, U and V as dense matrices, scaled from the ladder matrices."""
    a, ad = ladder(config, dtype)
    rt = real_type(dtype)
    s = np.sqrt(rt(2.0) * rt(config.hbar))
    lam = s * a
    lam_star = s * ad
    u = (lam + lam_star) / rt(2.0)
    v = -1j * (lam - lam_star) / rt(2.0)
    return lam, lam_star, u, v


def dense_derive_matrix(m, direction: Direction, config, matmul=np.matmul):
    """``derive_matrix`` as two dense products per commutator."""
    lam, lam_star, u, v = dense_generators(config, m.dtype)
    h = config.hbar
    if direction is Direction.U:
        return (matmul(m, v) - matmul(v, m)) / (1j * h)
    if direction is Direction.V:
        return -(matmul(m, u) - matmul(u, m)) / (1j * h)
    if direction is Direction.D:
        return (matmul(m, lam_star) - matmul(lam_star, m)) / (2.0 * h)
    return -(matmul(m, lam) - matmul(lam, m)) / (2.0 * h)


def loop_exp_lambda(config, sign: int = 1, dagger: bool = False, dtype=np.complex128):
    """``weylmin.fock.exp_lambda`` one entry at a time, column by column."""
    dim = config.dim
    rt = real_type(dtype)
    c = rt(sign) * np.sqrt(rt(2.0) * rt(config.hbar))
    out = np.zeros((dim, dim), dtype=dtype)
    for n in range(dim):
        out[n, n] += rt(1.0)
        t = rt(1.0)
        if dagger:
            for k in range(1, dim - n):
                t = t * c * np.sqrt(rt(n + k)) / rt(k)
                out[n + k, n] += t
                if abs(t) < _TERM_CUTOFF:
                    break
        else:
            for k in range(1, n + 1):
                t = t * c * np.sqrt(rt(n - k + 1)) / rt(k)
                out[n - k, n] += t
                if abs(t) < _TERM_CUTOFF:
                    break
    return out


# -- the long-double Fock layer -----------------------------------------------
#
# The route the residual report took before it became exact: numpy
# matrices, banded commutators and window column norms, in long double.
# It is a second, independent oracle for the report.


def real_type(dtype):
    return np.zeros(0, dtype=dtype).real.dtype.type


def ladder(config, dtype=np.complex128):
    """The annihilation matrix and its transpose.

    Square roots are taken in the real precision matching dtype, so
    long-double runs are long-double throughout.
    """
    rt = real_type(dtype)
    root = np.sqrt(np.arange(1, config.dim, dtype=rt))
    a = np.diag(root.astype(dtype), k=1)
    return a, a.T.copy()


def _band(config, dtype):
    """L's superdiagonal, which is also Ls's subdiagonal: sqrt(2 hbar n)
    for n = 1..dim-1, rounded as ``sqrt(2 hbar) * sqrt(n)``."""
    rt = real_type(dtype)
    root = np.sqrt(np.arange(1, config.dim, dtype=rt))
    return np.sqrt(rt(2.0) * rt(config.hbar)) * root.astype(dtype)


def generators(config, dtype):
    """L, Ls, U and V as matrices built from the band."""
    band = _band(config, dtype)
    lam = np.diag(band, k=1)
    lam_star = np.diag(band, k=-1)
    rt = real_type(dtype)
    u = (lam + lam_star) / rt(2.0)
    v = -1j * (lam - lam_star) / rt(2.0)
    return lam, lam_star, u, v


def weyl_matrix(a: WeylElement, config, dtype=np.complex128):
    """Represent a normal-ordered element as a dim x dim matrix."""
    lam, lam_star, _, _ = generators(config, dtype)
    dim = config.dim
    max_k = max((k for (k, _), _ in a.terms), default=0)
    max_l = max((l for (_, l), _ in a.terms), default=0)
    pow_l = [np.eye(dim, dtype=dtype)]
    for _ in range(max_k):
        pow_l.append(pow_l[-1] @ lam)
    pow_s = [np.eye(dim, dtype=dtype)]
    for _ in range(max_l):
        pow_s.append(pow_s[-1] @ lam_star)
    out = np.zeros((dim, dim), dtype=dtype)
    for (k, l), c in a.terms:
        out += c.evaluate(config.hbar) * (pow_l[k] @ pow_s[l])
    return out


def band_commutator(m, sup, sub):
    """[M, B] for B with superdiagonal ``B[j-1, j] = sup[j-1]`` and
    subdiagonal ``B[j+1, j] = sub[j]`` (either may be None), from shifted,
    scaled copies of M: each entry is at most two products added, rounded
    as numpy's own (non-BLAS) long-double matmul rounds them."""
    mb = np.zeros_like(m)
    bm = np.zeros_like(m)
    if sup is not None:
        mb[:, 1:] = m[:, :-1] * sup
        bm[:-1, :] = sup[:, None] * m[1:, :]
    if sub is not None:
        mb[:, :-1] += m[:, 1:] * sub
        bm[1:, :] += sub[:, None] * m[:-1, :]
    return mb - bm


def derive_matrix(m, direction: Direction, config):
    """The derivations as commutators, e.g. d_u M = (1/i hbar)[M, V].

    U carries half of L's band on both off-diagonals, and V carries -i/2
    times it above the diagonal and +i/2 times it below.
    """
    rt = real_type(m.dtype)
    lam = _band(config, m.dtype)
    h = config.hbar
    if direction is Direction.U:
        return band_commutator(m, -1j * lam / rt(2.0), -1j * (-lam) / rt(2.0)) / (1j * h)
    if direction is Direction.V:
        half = lam / rt(2.0)
        return -band_commutator(m, half, half) / (1j * h)
    if direction is Direction.D:
        return band_commutator(m, None, lam) / (2.0 * h)
    if direction is Direction.DBAR:
        return -band_commutator(m, lam, None) / (2.0 * h)
    raise ValueError(f"unknown direction {direction!r}")


def laplace_matrix(m, config, derive=derive_matrix):
    """lap M = d_u^2 M + d_v^2 M on the truncated space."""
    du = derive(derive(m, Direction.U, config), Direction.U, config)
    dv = derive(derive(m, Direction.V, config), Direction.V, config)
    return du + dv


def window_norm(m, safe_rows: int) -> float:
    """Largest column norm over the safe window n <= safe_rows."""
    cols = m[:, : safe_rows + 1]
    return float(np.max(np.sqrt(np.sum(np.abs(cols) ** 2, axis=0))))


def isotropy_matrix(ep, em, cols=None):
    """Phi1^2 + Phi2^2 + 1 from e^L and e^-L; with ``cols`` only the
    first columns, since each column of a product needs that column of
    the right factor alone."""
    cols = ep.shape[1] if cols is None else cols
    phi1 = 0.5 * (ep - em)
    phi2 = -0.5j * (ep + em)
    return phi1 @ phi1[:, :cols] + phi2 @ phi2[:, :cols] + np.eye(ep.shape[0], cols, dtype=ep.dtype)


def long_double_residuals(config, derive=derive_matrix, exp=exp_lambda) -> dict:
    """The residuals of ``weylmin.fock.residual_report`` from long-double
    matrices, the isotropy product formed on the window columns only."""
    dtype = np.clongdouble
    ep, em, epd, emd = (exp(config, sign, dagger, dtype) for dagger in (False, True) for sign in (1, -1))
    x1 = 0.25 * (ep + em + epd + emd)
    x2 = -0.25j * (ep - em - epd + emd)
    x3 = generators(config, dtype)[2]
    w = config.safe_rows
    res = {
        name: window_norm(laplace_matrix(x, config, derive), w)
        for name, x in (("X1", x1), ("X2", x2), ("X3", x3))
    }
    res["phi_isotropy"] = window_norm(isotropy_matrix(ep, em, w + 1), w)
    return res


# -- the exact catenoid residuals, every window column -----------------------
#
# Sparse Fraction matrices {(row, column): value} in the basis f_n = Ls^n|0>,
# where L' has s*n at [n-1, n] and Ls' has 1 at [n+1, n], s = 2 hbar.  The
# exponentials are summed as power series, the Laplacian is d_u^2 + d_v^2
# by explicit commutators, and every window column is formed in full.

Sparse = Dict[Tuple[int, int], Fraction]


def _sparse_mul(a: Sparse, b: Sparse) -> Sparse:
    rows = defaultdict(list)
    for (k, j), y in b.items():
        rows[k].append((j, y))
    out: Dict[Tuple[int, int], Fraction] = defaultdict(Fraction)
    for (i, k), x in a.items():
        for j, y in rows[k]:
            out[i, j] += x * y
    return {ij: x for ij, x in out.items() if x}


def _sparse_sum(*scaled: Tuple[Fraction, Sparse]) -> Sparse:
    out: Dict[Tuple[int, int], Fraction] = defaultdict(Fraction)
    for c, m in scaled:
        for ij, x in m.items():
            out[ij] += c * x
    return {ij: x for ij, x in out.items() if x}


def _sparse_comm(a: Sparse, b: Sparse) -> Sparse:
    return _sparse_sum((1, _sparse_mul(a, b)), (-1, _sparse_mul(b, a)))


def _scaled_generators(dim: int, s: Fraction) -> Tuple[Sparse, Sparse]:
    lam = {(n - 1, n): s * n for n in range(1, dim)}
    lam_star = {(n + 1, n): Fraction(1) for n in range(dim - 1)}
    return lam, lam_star


def scaled_exp(a: Sparse, c: Fraction, dim: int) -> Sparse:
    """e^{cA} for nilpotent A, column by column: sum_k (cA)^k e_n / k!."""
    out: Sparse = defaultdict(Fraction)
    for n in range(dim):
        term, k = {(n, n): Fraction(1)}, 0
        while term:
            for ij, x in term.items():
                out[ij] += x
            k += 1
            term = _sparse_sum((c / k, _sparse_mul(a, term)))
    return out


def exact_catenoid_residuals(config) -> Tuple[Dict[str, Sparse], Dict[str, Fraction]]:
    """The window columns of lap X1, lap X2, lap X3 and Phi1^2 + Phi2^2 + 1
    in the scaled basis, and the largest squared column norm of each in
    the orthonormal one.

    X2 = -i Y with Y real, so lap Y stands for lap X2: the norms agree.
    """
    dim, w = config.dim, config.safe_rows
    s = 2 * Fraction(config.hbar)
    hbar = s / 2
    lam, lam_star = _scaled_generators(dim, s)
    ep, em = scaled_exp(lam, Fraction(1), dim), scaled_exp(lam, Fraction(-1), dim)
    epd, emd = scaled_exp(lam_star, Fraction(1), dim), scaled_exp(lam_star, Fraction(-1), dim)
    q = Fraction(1, 4)
    x1 = _sparse_sum((q, ep), (q, em), (q, epd), (q, emd))
    y2 = _sparse_sum((q, ep), (-q, em), (-q, epd), (q, emd))
    u = _sparse_sum((Fraction(1, 2), lam), (Fraction(1, 2), lam_star))
    diff = _sparse_sum((1, lam), (-1, lam_star))  # i(L - Ls)/2 = -V, so d_u M = -[M, L - Ls]/(2 hbar)

    def lap(m: Sparse) -> Sparse:
        # d_u^2 M = [[M, L - Ls], L - Ls]/(4 hbar^2); d_v M = (i/hbar)[M, U] so d_v^2 M = -[[M, U], U]/hbar^2
        return _sparse_sum(
            (1 / (4 * hbar**2), _sparse_comm(_sparse_comm(m, diff), diff)),
            (-1 / hbar**2, _sparse_comm(_sparse_comm(m, u), u)),
        )

    one = {(n, n): Fraction(1) for n in range(dim)}
    plus, minus = _sparse_sum((1, ep), (1, em)), _sparse_sum((1, ep), (-1, em))
    iso = _sparse_sum(
        (q, _sparse_mul(minus, minus)), (-q, _sparse_mul(plus, plus)), (1, one)
    )  # Phi1^2 = (e^L - e^-L)^2/4 and Phi2^2 = -(e^L + e^-L)^2/4
    mats = {"X1": lap(x1), "X2": lap(y2), "X3": lap(u), "phi_isotropy": iso}
    mats = {name: {(i, j): x for (i, j), x in m.items() if j <= w} for name, m in mats.items()}
    squares = {}
    for name, m in mats.items():
        cols: Dict[int, Fraction] = defaultdict(Fraction)
        for (i, j), x in m.items():
            cols[j] += x * x * s**i * math.factorial(i) / (s**j * math.factorial(j))
        squares[name] = max(cols.values(), default=Fraction(0))
    return mats, squares


def corner_column_norm(dim: int, s: Fraction, parity: int) -> Fraction:
    """Squared norm of column dim-1 of lap X1 (``parity`` 0) or lap X2
    (``parity`` 1): (dim/s)^2 s times the sum of C(dim-1, k)/k! s^(k-1)
    over k >= 1 of the parity, by Horner's rule on Fractions."""
    top = dim - 1
    acc = Fraction(0)
    for k in range(top, 0, -1):
        acc = acc * s + (Fraction(math.comb(top, k), math.factorial(k)) if k % 2 == parity else 0)
    return (dim / s) ** 2 * acc * s


def _fock_weight(m: int, n: int, s: Fraction) -> Fraction:
    """|M[m, n]|^2 / |M'[m, n]|^2 = m! s^m / (n! s^n) in the basis f_n = Ls^n|0>."""
    return s ** (m - n) * Fraction(math.factorial(m), math.factorial(n))


def _lap_entry(entry, m: int, n: int, dim: int, s: Fraction) -> Fraction:
    """(lap M')[m, n] from the entries ``entry(i, j)`` of M': lap M =
    -([[M, L], Ls] + [[M, Ls], L]) / (2 hbar^2) = -(D M + M D - 2 L M Ls -
    2 Ls M L) / (2 hbar^2), with D = L Ls + Ls L diagonal, s (2i + 1) except
    D[dim-1, dim-1] = s (dim-1) in the truncated corner."""

    def diag(i: int) -> Fraction:
        return s * (2 * i + 1 if i < dim - 1 else dim - 1)

    c = (diag(m) + diag(n)) * entry(m, n)
    if m + 1 < dim and n + 1 < dim:
        c -= 2 * s * (m + 1) * entry(m + 1, n + 1)
    if m and n:
        c -= 2 * s * n * entry(m - 1, n - 1)
    return -2 * c / (s * s)


def lap_u_columns(dim: int, s: Fraction) -> list:
    """Squared norm of each column of lap X3 = lap U, entry by entry; the
    residual on a window is the largest of its columns.

    U' = (L' + Ls')/2 lives on the two diagonals next to the main one, and
    the Laplacian keeps every diagonal, so each column has two entries.
    """

    def u(i: int, j: int) -> Fraction:
        return s * j / 2 if i == j - 1 else Fraction(1, 2) if i == j + 1 else Fraction(0)

    cols = []
    for n in range(dim):
        sq = Fraction(0)
        for m in (n - 1, n + 1):
            if 0 <= m < dim:
                sq += _lap_entry(u, m, n, dim, s) ** 2 * _fock_weight(m, n, s)
        cols.append(sq)
    return cols


def isotropy_columns(dim: int, s: Fraction) -> list:
    """Squared norm of each column of Phi1^2 + Phi2^2 + Phi3^2.

    With Phi1 = (e^L - e^-L)/2, Phi2 = -(i/2)(e^L + e^-L), Phi3 = 1 and
    e^{+-L} commuting, the sum is 1 - e^L e^-L, and

        (e^L e^-L)[m, n] = sum_j s^(j-m) C(j, m) (-s)^(n-j) C(n, j)
                         = s^d C(n, m) sum_i (-1)^i C(d, i),   d = n - m,

    so each column takes one row of Pascal's triangle and the alternating
    sums of the earlier rows: O(window^2) integer work.
    """
    cols = []
    row, alt = [1], []  # row n of Pascal's triangle; alt[d] = sum_i (-1)^i C(d, i)
    for n in range(dim):
        alt.append(sum(row[0::2]) - sum(row[1::2]))
        sq = Fraction(0)
        for d in range(n + 1):
            g = (d == 0) - row[n - d] * alt[d]  # (1 - e^L e^-L)[n-d, n] / s^d
            if g:
                sq += (s**d * g) ** 2 * _fock_weight(n - d, n, s)
        cols.append(sq)
        row = [1, *(a + b for a, b in zip(row, row[1:])), 1]
    return cols


def column_tail(config, n: int) -> float:
    """The discarded tail of exp(+-Ls) at column n, sum_{k >= dim-n} |c|^k
    sqrt((n+k)!/n!) / k!, summed in floats term by term until a term falls
    below 1e-20 of the sum; a term that underflows to 0 ends the sum, and
    one that overflows makes it inf."""
    lam, cut = config.lam_scale, config.dim - n  # cut: the first omitted k
    t, total, k = 1.0, 0.0, 0
    while 0 < t < math.inf:
        k += 1
        t *= lam * math.sqrt(n + k) / k
        if k >= cut:
            total += t
            if t < total * 1e-20:
                break
    return total if k >= cut else t


def tail_bound_by_columns(config) -> float:
    """The largest :func:`column_tail` over every window column."""
    return max(column_tail(config, n) for n in range(config.safe_rows + 1))


# -- seeded random generators -------------------------------------------------


def random_gauss(rng, bound: int = 6) -> GaussRational:
    def frac() -> Fraction:
        return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))

    return GaussRational(frac(), frac())


def random_weyl(rng, max_deg: int = 4, terms: int = 4, max_hbar: int = 1) -> WeylElement:
    out = WeylElement()
    for _ in range(terms):
        k = rng.randint(0, max_deg)
        l = rng.randint(0, max_deg - k)
        coeff = HbarPoly({rng.randint(0, max_hbar): random_gauss(rng)})
        out = out + WeylElement({(k, l): coeff})
    return out


def random_hbar_poly(rng, max_deg: int = 2, terms: int = 2) -> HbarPoly:
    return HbarPoly([(rng.randint(0, max_deg), random_gauss(rng, 3)) for _ in range(terms)])


def random_poly_lambda(rng, max_deg: int = 6, terms: int = 4, max_hbar: int = 0):
    """Coefficients are constants, or h-polynomials up to degree ``max_hbar``."""
    from weylmin.holomorphic import PolyLambda

    coeffs: Dict[int, HbarPoly] = {}
    for _ in range(terms):
        deg = rng.randint(0, max_deg)
        poly = random_hbar_poly(rng, max_hbar) if max_hbar else HbarPoly({0: random_gauss(rng)})
        coeffs[deg] = coeffs[deg] + poly if deg in coeffs else poly
    return PolyLambda(coeffs)


def quotient_draws(ring, rng):
    """Seeded draws of the field-law checks: ``(n, d, m, xyz)``, with d and
    m nonzero and xyz the (num, den) pairs of three quotients."""

    def nonzero():
        x = ring(rng)
        return x if not x.is_zero() else nonzero()

    while True:
        yield ring(rng), nonzero(), nonzero(), [(ring(rng), nonzero()) for _ in range(3)]


def random_rat(rng, num_deg: int = 4, den_deg: int = 2):
    from weylmin.holomorphic import RatLambda

    num = random_poly_lambda(rng, num_deg, 3)
    den = random_poly_lambda(rng, den_deg, 2)
    while den.is_zero():
        den = random_poly_lambda(rng, den_deg, 2)
    return RatLambda(num, den)


def join_expr_values_by_index(argv, expr_options) -> list:
    """``cli._join_expr_values`` as an index walk: an expression option and a
    following token that starts with one "-" become ``--flag=-value``."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if (tok in expr_options and i + 1 < len(argv)
                and argv[i + 1].startswith("-") and not argv[i + 1].startswith("--")):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out
