"""Truncated Fock-space representation and the catenoid residual check.

The algebra acts on the harmonic-oscillator basis |0>, ..., |dim-1> via
the annihilation matrix ``a|n> = sqrt(n)|n-1>`` and its transpose, with

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

Residuals in :func:`residual_report` are evaluated with extended-precision
matrices (long double) so that the truncation error, not double-precision
roundoff, dominates and keeps shrinking as dim grows.

L and Ls are single off-diagonals, and U and V are their sums, so
:func:`derive_matrix` forms each commutator ``[M, B]`` from shifted,
scaled copies of M's rows and columns: O(dim^2) work instead of two
dense O(dim^3) products.  Each entry of ``M B`` is at most two products
added, rounded exactly as numpy's own (non-BLAS) long-double matmul
rounds them, so long-double results equal the dense commutator bit for
bit.  :func:`exp_lambda` steps the series offset k and updates every
live column at once, again in the scalar recurrence's operation order.

``dim`` is capped at :data:`MAX_DIM`; a larger value is refused before
any matrix is allocated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .weyl import Direction, WeylElement

__all__ = [
    "FockConfig",
    "ladder",
    "weyl_matrix",
    "exp_lambda",
    "exp_tail_bound",
    "catenoid",
    "derive_matrix",
    "laplace_matrix",
    "residual_report",
]

_TERM_CUTOFF = 1e-18

MAX_DIM = 1024
"""Largest accepted truncation dimension."""


@dataclass(frozen=True)
class FockConfig:
    """Truncation parameters: matrix size, hbar value, safe window."""

    dim: int
    hbar: float = 1.0
    safe_rows: Optional[int] = None

    def __post_init__(self) -> None:
        if self.dim < 2:
            raise ValueError("dim must be at least 2")
        if self.dim > MAX_DIM:
            raise ValueError(f"dim {self.dim} exceeds the cap MAX_DIM = {MAX_DIM}")
        if not (math.isfinite(self.hbar) and self.hbar > 0):
            raise ValueError("hbar must be positive and finite")
        if self.safe_rows is None:
            object.__setattr__(self, "safe_rows", self.dim // 3)
        if not (0 < self.safe_rows < self.dim):
            raise ValueError("safe_rows must satisfy 0 < safe_rows < dim")

    @property
    def lam_scale(self) -> float:
        """|c| with L = c a, namely sqrt(2 hbar)."""
        return math.sqrt(2.0 * self.hbar)


def _real_type(dtype):
    return np.zeros(0, dtype=dtype).real.dtype.type


def ladder(config: FockConfig, dtype=np.complex128) -> tuple[np.ndarray, np.ndarray]:
    """The annihilation matrix and its transpose.

    Square roots are taken in the real precision matching dtype, so
    long-double runs are long-double throughout.
    """
    rt = _real_type(dtype)
    root = np.sqrt(np.arange(1, config.dim, dtype=rt))
    a = np.diag(root.astype(dtype), k=1)
    return a, a.T.copy()


def _band(config: FockConfig, dtype) -> np.ndarray:
    """L's superdiagonal, which is also Ls's subdiagonal: sqrt(2 hbar n)
    for n = 1..dim-1, rounded as ``sqrt(2 hbar) * sqrt(n)``."""
    rt = _real_type(dtype)
    root = np.sqrt(np.arange(1, config.dim, dtype=rt))
    return np.sqrt(rt(2.0) * rt(config.hbar)) * root.astype(dtype)


def _generators(config: FockConfig, dtype):
    band = _band(config, dtype)
    lam = np.diag(band, k=1)
    lam_star = np.diag(band, k=-1)
    rt = _real_type(dtype)
    u = (lam + lam_star) / rt(2.0)
    v = -1j * (lam - lam_star) / rt(2.0)
    return lam, lam_star, u, v


def weyl_matrix(a: WeylElement, config: FockConfig, dtype=np.complex128) -> np.ndarray:
    """Represent a normal-ordered element as a dim x dim matrix."""
    lam, lam_star, _, _ = _generators(config, dtype)
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


def exp_lambda(
    config: FockConfig,
    sign: int = 1,
    dagger: bool = False,
    dtype=np.complex128,
) -> np.ndarray:
    """exp(sign * L) or exp(sign * Ls) on the truncated space.

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
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    dim = config.dim
    rt = _real_type(dtype)
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


def catenoid(config: FockConfig, dtype=np.complex128) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The catenoid components on the truncated Fock space.

    X1 = (e^L + e^-L + e^Ls + e^-Ls)/4
    X2 = -(i/4)(e^L - e^-L - e^Ls + e^-Ls)
    X3 = U
    """
    return _catenoid(config, dtype)[0]


def _catenoid(config: FockConfig, dtype):
    """The catenoid components, and e^L and e^-L for the isotropy check."""
    ep = exp_lambda(config, 1, False, dtype)
    em = exp_lambda(config, -1, False, dtype)
    epd = exp_lambda(config, 1, True, dtype)
    emd = exp_lambda(config, -1, True, dtype)
    x1 = 0.25 * (ep + em + epd + emd)
    x2 = -0.25j * (ep - em - epd + emd)
    _, _, u, _ = _generators(config, dtype)
    return (x1, x2, u), (ep, em)


def _commutator(m: np.ndarray, sup, sub) -> np.ndarray:
    """[M, B] for B with superdiagonal ``B[j-1, j] = sup[j-1]`` and
    subdiagonal ``B[j+1, j] = sub[j]`` (either may be None)."""
    mb = np.zeros_like(m)
    bm = np.zeros_like(m)
    if sup is not None:
        mb[:, 1:] = m[:, :-1] * sup
        bm[:-1, :] = sup[:, None] * m[1:, :]
    if sub is not None:
        mb[:, :-1] += m[:, 1:] * sub
        bm[1:, :] += sub[:, None] * m[:-1, :]
    return mb - bm


def derive_matrix(
    m: np.ndarray, direction: Direction, config: FockConfig
) -> np.ndarray:
    """The derivations as commutators, e.g. d_u M = (1/i hbar)[M, V].

    The band entries are those :func:`_generators` computes: U carries
    half of L's band on both off-diagonals, and V carries -i/2 times it
    above the diagonal and +i/2 times it below.
    """
    rt = _real_type(m.dtype)
    lam = _band(config, m.dtype)
    h = config.hbar
    if direction is Direction.U:
        return _commutator(m, -1j * lam / rt(2.0), -1j * (-lam) / rt(2.0)) / (1j * h)
    if direction is Direction.V:
        half = lam / rt(2.0)
        return -_commutator(m, half, half) / (1j * h)
    if direction is Direction.D:
        return _commutator(m, None, lam) / (2.0 * h)
    if direction is Direction.DBAR:
        return -_commutator(m, lam, None) / (2.0 * h)
    raise ValueError(f"unknown direction {direction!r}")


def laplace_matrix(m: np.ndarray, config: FockConfig) -> np.ndarray:
    """lap M = d_u^2 M + d_v^2 M on the truncated space."""
    du = derive_matrix(derive_matrix(m, Direction.U, config), Direction.U, config)
    dv = derive_matrix(derive_matrix(m, Direction.V, config), Direction.V, config)
    return du + dv


def _window_norm(m: np.ndarray, safe_rows: int) -> float:
    """Largest column norm over the safe window n <= safe_rows."""
    cols = m[:, : safe_rows + 1]
    return float(np.max(np.sqrt(np.sum(np.abs(cols) ** 2, axis=0))))


def residual_report(config: FockConfig) -> dict:
    """Catenoid residuals on the safe window, with the truncation bound.

    Residuals are the column norms of lap(X^i) for the three components
    and of Phi1^2 + Phi2^2 + Phi3^2 for the isotropy identity, where
    Phi1 = (e^L - e^-L)/2, Phi2 = -(i/2)(e^L + e^-L), Phi3 = 1.
    Matrices are built and multiplied in long-double precision so the
    numbers reflect truncation rather than roundoff.  The isotropy sum is
    formed on the window columns only: each column of a product depends
    on that column of the right factor alone.
    """
    dtype = np.clongdouble
    (x1, x2, x3), (ep, em) = _catenoid(config, dtype)
    res = {
        name: _window_norm(laplace_matrix(x, config), config.safe_rows)
        for name, x in (("X1", x1), ("X2", x2), ("X3", x3))
    }
    phi1 = 0.5 * (ep - em)
    phi2 = -0.5j * (ep + em)
    cols = config.safe_rows + 1
    iso = phi1 @ phi1[:, :cols] + phi2 @ phi2[:, :cols] + np.eye(config.dim, cols, dtype=dtype)
    res["phi_isotropy"] = _window_norm(iso, config.safe_rows)
    return {
        "dim": config.dim,
        "hbar": config.hbar,
        "safe_rows": config.safe_rows,
        "residuals": res,
        "tail_bound": exp_tail_bound(config),
    }
