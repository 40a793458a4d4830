"""Independent oracles for cross-checking the library.

Everything here recomputes results by a deliberately different route than
the package: one-swap rewriting instead of the closed reordering formula,
plain-dict polynomial arithmetic instead of the canonicalized classes, and
exact point evaluation instead of symbolic identities.  The implementations
are kept dumb on purpose.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Iterable, Tuple

import numpy as np

from weylmin.classical import UVPoly
from weylmin.fock import _TERM_CUTOFF, _real_type, ladder
from weylmin.scalars import GR_I, GaussRational, HbarPoly, bidegree_order, canon
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
    """``render.uv_ordered_terms``: each coefficient times its uv_table rows."""
    return canon(
        (
            ((p, q), c.shift(d).scale(GaussRational(re, im)))
            for (k, l), c in a.terms
            for p, q, d, re, im in uv_table(k, l)
        ),
        lambda pair: (pair[0][0] + pair[0][1], -pair[0][0]),
    )


def terms_classical_limit(a: WeylElement) -> UVPoly:
    """``classical.classical_limit``: the h-free coefficients times the
    h-free uv_table rows."""
    out = []
    for (k, l), c in a.terms:
        c0 = c.coeff(0)
        out.extend(
            ((p, q), c0 * GaussRational(re, im))
            for p, q, d, re, im in uv_table(k, l)
            if not d
        )
    return UVPoly(out)


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


# -- powers -------------------------------------------------------------------


def repeated_power(x, n: int, one):
    """x**n as |n| repeated products of x (of its inverse when n < 0)."""
    base = x.inverse() if n < 0 else x
    out = one
    for _ in range(abs(n)):
        out = out * base
    return out


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


# -- the Fock layer by dense products and scalar loops ------------------------


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
    rt = _real_type(dtype)
    s = np.sqrt(rt(2.0) * rt(config.hbar))
    lam = s * a
    lam_star = s * ad
    u = (lam + lam_star) / rt(2.0)
    v = -1j * (lam - lam_star) / rt(2.0)
    return lam, lam_star, u, v


def dense_derive_matrix(m, direction: Direction, config, matmul=np.matmul):
    """``weylmin.fock.derive_matrix`` as two dense products per commutator."""
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
    rt = _real_type(dtype)
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


def random_poly_lambda(rng, max_deg: int = 6, terms: int = 4):
    from weylmin.holomorphic import PolyLambda

    coeffs: Dict[int, HbarPoly] = {}
    for _ in range(terms):
        deg = rng.randint(0, max_deg)
        c = random_gauss(rng)
        poly = HbarPoly({0: c})
        coeffs[deg] = coeffs[deg] + poly if deg in coeffs else poly
    return PolyLambda(coeffs)


def random_rat(rng, num_deg: int = 4, den_deg: int = 2):
    from weylmin.holomorphic import RatLambda

    num = random_poly_lambda(rng, num_deg, 3)
    den = random_poly_lambda(rng, den_deg, 2)
    while den.is_zero():
        den = random_poly_lambda(rng, den_deg, 2)
    return RatLambda(num, den)
