"""Truncated Fock-space representation and the exact catenoid residual check.

The algebra acts on the harmonic-oscillator basis |0>, ..., |dim-1> via
the annihilation operator ``a|n> = sqrt(n)|n-1>`` and its adjoint, with

    L = sqrt(2 hbar) a,      U = sqrt(hbar/2)(a + a^T),
    Ls = sqrt(2 hbar) a^T,   V = i sqrt(hbar/2)(a^T - a).

Truncation is only trustworthy in a window of low columns: products push
weight toward the cut at dim-1, so every reported quantity is measured on
columns ``n <= safe_rows`` (default dim // 3).

The catenoid components are built from exponentials of L and Ls.  For
``exp(c a)`` the column series is exactly finite (k <= n); for
``exp(c a^T)`` the series is cut at row dim-1 and the discarded tail at
column n admits the explicit bound

    sum_{k > dim-1-n} |c|^k sqrt((n+k)!/n!) / k!,

which :func:`exp_tail_bound` computes and residual reports include.

:func:`residual_report` is exact.  In the basis f_n = Ls^n|0> =
sqrt(n! s^n)|n>, with s = 2 hbar taken as the exact rational value of the
float ``hbar``, L has s*n above the diagonal and Ls has 1 below it, so
every entry of the four exponentials is rational:

    e^{+-L}[n-k, n] = (+-s)^k C(n, k),    e^{+-Ls}[n+k, n] = (+-1)^k / k!,

and an entry M'[m, n] in this basis has |M[m, n]|^2 = |M'[m, n]|^2 m! s^m
/ (n! s^n) in the orthonormal one.  The derivations are commutators,
which a change of basis keeps, so the residuals are exact rationals and
become floats once, at the end.  They measure truncation alone: no
roundoff enters.

:func:`catenoid` and :func:`exp_lambda` return numpy matrices and import
numpy when called; nothing else here needs it.

``dim`` is capped at :data:`MAX_DIM`; a larger value is refused before
any work is done.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

from .scalars import Frozen

_TERM_CUTOFF = 1e-18

MAX_DIM = 1024
"""Largest accepted truncation dimension."""


class FockConfig(Frozen):
    """Truncation parameters: matrix size, hbar value, safe window."""

    __slots__ = _fields = ("dim", "hbar", "safe_rows")

    def __init__(self, dim: int, hbar: float = 1.0, safe_rows: Optional[int] = None) -> None:
        if dim < 2:
            raise ValueError("dim must be at least 2")
        if dim > MAX_DIM:
            raise ValueError(f"dim {dim} exceeds the cap MAX_DIM = {MAX_DIM}")
        if not (math.isfinite(hbar) and hbar > 0):
            raise ValueError("hbar must be positive and finite")
        if safe_rows is None:
            safe_rows = dim // 3
            if not safe_rows:
                raise ValueError(
                    f"safe_rows must satisfy 0 < safe_rows < dim: the default window "
                    f"dim // 3 is empty at dim {dim}; give one with --safe-rows"
                )
        if not (0 < safe_rows < dim):
            raise ValueError("safe_rows must satisfy 0 < safe_rows < dim")
        self._init_fields(dim, hbar, safe_rows)

    @property
    def lam_scale(self) -> float:
        """|c| with L = c a, namely sqrt(2 hbar)."""
        return math.sqrt(2.0 * self.hbar)


def exp_lambda(config: FockConfig, sign: int = 1, dagger: bool = False, dtype=None):
    """exp(sign * L) or exp(sign * Ls) on the truncated space, as a numpy
    matrix of ``dtype`` (default complex128).

    Entries come from the scalar recurrences

        exp(c a)  [n-k, n] = c^k/k! sqrt(n!/(n-k)!)
        exp(c a^T)[n+k, n] = c^k/k! sqrt((n+k)!/n!)

    stepped in k, one off-diagonal at a time, for every column n still
    live; each column's term is ``t = t*c*sqrt(.)/k`` exactly as a
    per-column loop would compute it.

    For the annihilation exponential the series terminates at k = n, so
    the matrix is exact; for the creation exponential rows stop at dim-1
    and the discarded tail is bounded by :func:`exp_tail_bound`.
    """
    import numpy as np

    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    dim = config.dim
    dtype = np.complex128 if dtype is None else dtype
    rt = np.finfo(dtype).dtype.type
    c = rt(sign) * np.sqrt(rt(2.0) * rt(config.hbar))
    out = np.eye(dim, dtype=dtype)
    # Column n runs while k <= dim-1-n (creation) or k <= n (annihilation),
    # and stops after the first term below the cutoff.
    cols = np.arange(dim - 1) if dagger else np.arange(1, dim)
    t = np.ones(len(cols), dtype=rt)
    k = 1
    while len(cols):
        if dagger:
            t = t * c * np.sqrt((cols + k).astype(rt)) / rt(k)
            out[cols + k, cols] = t
        else:
            t = t * c * np.sqrt((cols - k + 1).astype(rt)) / rt(k)
            out[cols - k, cols] = t
        k += 1
        live = ~(np.abs(t) < _TERM_CUTOFF) & ((cols + k < dim) if dagger else (cols >= k))
        cols, t = cols[live], t[live]
    return out


def exp_tail_bound(config: FockConfig) -> float:
    """Largest discarded-tail bound for exp(+-Ls) over the safe window."""
    lam = config.lam_scale
    worst = 0.0
    for n in range(config.safe_rows + 1):
        cut = config.dim - n  # first omitted k
        t = 1.0
        total = 0.0
        for k in range(1, cut + 400):
            t *= lam * math.sqrt(n + k) / k
            if k >= cut:
                total += t
                if t < total * 1e-20:
                    break
        worst = max(worst, total)
    return worst


def catenoid(config: FockConfig, dtype=None):
    """The catenoid components on the truncated Fock space, as numpy
    matrices of ``dtype`` (default complex128).

    X1 = (e^L + e^-L + e^Ls + e^-Ls)/4
    X2 = -(i/4)(e^L - e^-L - e^Ls + e^-Ls)
    X3 = U
    """
    import numpy as np

    ep, em, epd, emd = (
        exp_lambda(config, sign, dagger, dtype) for dagger in (False, True) for sign in (1, -1)
    )
    x1 = 0.25 * (ep + em + epd + emd)
    x2 = -0.25j * (ep - em - epd + emd)
    rt = np.finfo(x1.dtype).dtype.type
    band = np.sqrt(rt(2.0) * rt(config.hbar)) * np.sqrt(np.arange(1, config.dim, dtype=rt))
    u = (np.diag(band, k=1) + np.diag(band, k=-1)).astype(x1.dtype) / rt(2.0)
    return x1, x2, u


# -- exact residuals in the basis f_n = Ls^n |0> -----------------------------


def _weight(m: int, n: int, s: Fraction) -> Fraction:
    """|M[m, n]|^2 / |M'[m, n]|^2 = m! s^m / (n! s^n)."""
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


def _exp_part(dim: int, s: Fraction, window: int, parity: int) -> Fraction:
    """Largest squared window-column norm of lap X1 (``parity`` 0) or of
    lap X2 (``parity`` 1).

    e^{+-L} commute with L, and [L, Ls] = s except in the truncated corner,
    so on columns n < dim-1 the Laplacian of e^{+-L} vanishes and that of
    e^{+-Ls} is -(dim/hbar) e^{+-Ls}[dim-1, n], in row dim-1 alone.  Column
    n of lap X1 or lap X2 thus holds (dim/s)/k!, k = dim-1-n, up to sign
    when k has the component's parity, and zero otherwise: its squared
    norm is t_k = ((dim/s)/k!)^2 (dim-1)!/n! s^k.

    Column dim-1, when the window reaches it, holds lap e^{+-L} instead: its
    squared norm is the sum of t_k over every k >= 1 of the parity, which
    exceeds each term.  Elsewhere t_{k-2}/t_k = k^2 (k-1)^2 / (s^2 (n+1)(n+2))
    falls as n grows, so along one parity the norms rise to one peak and
    fall: the walk finds it comparing small numbers, and forms one large
    rational.
    """
    top = dim - 1
    if window == top:
        # With s = p/q, the sum of C(top, k)/k! s^(k-1) over k >= 1 of the
        # parity is an integer over top! q^(top-1): Horner's rule builds the
        # integer, and one Fraction divides at the end.  With p = m 2^u and
        # q = r 2^v, m and r odd (r = 1, since s is twice a float), each
        # step is a product by the small m, and shifts.
        p, q = s.numerator, s.denominator
        u, v = (p & -p).bit_length() - 1, (q & -q).bit_length() - 1
        m, r = p >> u, q >> v
        f, num, rk = math.factorial(top), 0, 1  # rk = r^(top-k)
        for k in range(top, 0, -1):
            num = (num * m) << u
            if k % 2 == parity:
                num += (math.comb(top, k) * (f // math.factorial(k)) * rk) << v * (top - k)
            rk *= r
        # times (dim/s)^2 s = dim^2 q / p
        return Fraction(dim * dim * num * q, (f * p * (rk // r)) << v * (top - 1))
    n = (top - parity) % 2  # the first column whose k has the parity
    while n + 2 <= window:
        k = top - n
        if k * k * (k - 1) * (k - 1) <= s * s * (n + 1) * (n + 2):
            break
        n += 2
    return (dim / s / math.factorial(top - n)) ** 2 * _weight(top, n, s)


def _u_part(dim: int, s: Fraction, window: int) -> Fraction:
    """Largest squared window-column norm of lap X3 = lap U.

    U' = (L' + Ls')/2 lives on the two diagonals next to the main one, and
    the Laplacian keeps every diagonal, so each column has two entries.
    """

    def u(i: int, j: int) -> Fraction:
        return s * j / 2 if i == j - 1 else Fraction(1, 2) if i == j + 1 else Fraction(0)

    worst = Fraction(0)
    for n in range(window + 1):
        sq = Fraction(0)
        for m in (n - 1, n + 1):
            if 0 <= m < dim:
                sq += _lap_entry(u, m, n, dim, s) ** 2 * _weight(m, n, s)
        worst = max(worst, sq)
    return worst


def _isotropy_part(s: Fraction, window: int) -> Fraction:
    """Largest squared window-column norm of Phi1^2 + Phi2^2 + Phi3^2.

    With Phi1 = (e^L - e^-L)/2, Phi2 = -(i/2)(e^L + e^-L), Phi3 = 1 and
    e^{+-L} commuting, the sum is 1 - e^L e^-L, and

        (e^L e^-L)[m, n] = sum_j s^(j-m) C(j, m) (-s)^(n-j) C(n, j)
                         = s^d C(n, m) sum_i (-1)^i C(d, i),   d = n - m,

    so each column takes one row of Pascal's triangle and the alternating
    sums of the earlier rows: O(window^2) integer work.
    """
    worst = Fraction(0)
    row, alt = [1], []  # row n of Pascal's triangle; alt[d] = sum_i (-1)^i C(d, i)
    for n in range(window + 1):
        alt.append(sum(row[0::2]) - sum(row[1::2]))
        sq = Fraction(0)
        for d in range(n + 1):
            g = (d == 0) - row[n - d] * alt[d]  # (1 - e^L e^-L)[n-d, n] / s^d
            if g:
                sq += (s**d * g) ** 2 * _weight(n - d, n, s)
        worst = max(worst, sq)
        row = [1, *(a + b for a, b in zip(row, row[1:])), 1]
    return worst


def _root(sq: Fraction) -> float:
    """sqrt(sq), rounded once from the exact square (taken to 220 bits), so
    0.0 means underflow and OverflowError a root too large for a float."""
    n, d = sq.numerator, sq.denominator
    shift = max(0, 220 - n.bit_length() + d.bit_length()) // 2
    return math.ldexp(float(math.isqrt((n << 2 * shift) // d)), -shift)


def _squared_residuals(config: FockConfig) -> dict[str, Fraction]:
    """The exact squared residuals that :func:`residual_report` rounds."""
    s = 2 * Fraction(config.hbar)
    dim, window = config.dim, config.safe_rows
    return {
        "X1": _exp_part(dim, s, window, 0),
        "X2": _exp_part(dim, s, window, 1),
        "X3": _u_part(dim, s, window),
        "phi_isotropy": _isotropy_part(s, window),
    }


def residual_report(config: FockConfig) -> dict:
    """Catenoid residuals on the safe window, with the truncation bound.

    Residuals are the largest column norms, over the window, of lap(X^i)
    for the three components and of Phi1^2 + Phi2^2 + Phi3^2 for the
    isotropy identity, where Phi1 = (e^L - e^-L)/2, Phi2 = -(i/2)(e^L +
    e^-L), Phi3 = 1.  They are computed exactly (see the module docstring)
    and rounded to floats once, at the end, so a residual reads 0.0 only
    when it is exactly zero or below the smallest float; one too large for
    a float raises OverflowError.
    """
    return {
        "dim": config.dim,
        "hbar": config.hbar,
        "safe_rows": config.safe_rows,
        "residuals": {name: _root(sq) for name, sq in _squared_residuals(config).items()},
        "tail_bound": exp_tail_bound(config),
    }
