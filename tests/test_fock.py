"""Truncated Fock-space representation and catenoid residuals."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from oracles import (
    column_tail,
    corner_column_norm,
    dense_derive_matrix,
    dense_generators,
    derive_matrix,
    exact_catenoid_residuals,
    fock_exp_entry,
    generators,
    isotropy_columns,
    isotropy_matrix,
    ladder,
    lap_u_columns,
    laplace_matrix,
    long_double_residuals,
    loop_exp_lambda,
    random_weyl,
    schoolbook_matmul,
    tail_bound_by_columns,
    weyl_matrix,
    window_norm,
)
from weylmin import fock
from weylmin.fock import (
    MAX_DIM,
    FockConfig,
    catenoid,
    exp_lambda,
    exp_tail_bound,
    residual_report,
)
from weylmin.weyl import Direction, HBAR, LAM, LAM_STAR, ONE, U, V

CFG = FockConfig(dim=24, hbar=1.0)


class TestConfig:
    def test_defaults(self):
        c = FockConfig(dim=30, hbar=0.5)
        assert c.safe_rows == 10

    def test_validation(self):
        with pytest.raises(ValueError):
            FockConfig(dim=8, hbar=-1.0)
        with pytest.raises(ValueError):
            FockConfig(dim=8, hbar=1.0, safe_rows=8)
        with pytest.raises(ValueError):
            FockConfig(dim=0, hbar=1.0)

    def test_empty_default_window_names_the_option(self):
        # dim // 3 is 0 at dim 2: the message says the empty window is the default
        with pytest.raises(ValueError, match=r"default window dim // 3 is empty at dim 2; give one with --safe-rows"):
            FockConfig(dim=2)
        with pytest.raises(ValueError, match=r"^safe_rows must satisfy 0 < safe_rows < dim$"):
            FockConfig(dim=2, safe_rows=2)
        assert FockConfig(dim=2, safe_rows=1).safe_rows == 1
        assert FockConfig(dim=3).safe_rows == 1

    def test_dim_cap_allocates_nothing(self):
        assert FockConfig(dim=MAX_DIM).dim == 1024
        with pytest.raises(ValueError, match="MAX_DIM"):
            FockConfig(dim=MAX_DIM + 1)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"dim 1000000000 exceeds the cap MAX_DIM = 1024"):
                FockConfig(dim=10**9, hbar=1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024


class TestLadder:
    def test_matrix_elements(self):
        a, adag = ladder(FockConfig(dim=3, hbar=1.0))
        assert a[0, 1] == pytest.approx(1.0)
        assert a[1, 2] == pytest.approx(math.sqrt(2))
        assert np.allclose(adag, a.conj().T)
        assert np.allclose(a[:, 0], 0.0)  # a|0> = 0

    def test_canonical_commutator(self):
        a, adag = ladder(CFG)
        comm = a @ adag - adag @ a
        # exact identity away from the truncation corner
        assert np.allclose(comm[:-1, :-1], np.eye(CFG.dim)[:-1, :-1])

    def test_power_action(self):
        a, _ = ladder(CFG)
        vec = np.zeros(CFG.dim)
        vec[4] = 1.0
        out = np.linalg.matrix_power(a, 2) @ vec
        assert out[2] == pytest.approx(math.sqrt(12))  # sqrt(4!/2!)


class TestWeylMatrix:
    def test_identity_and_relation(self):
        assert np.allclose(weyl_matrix(ONE, CFG), np.eye(CFG.dim))
        comm = weyl_matrix(U * V - V * U, CFG)
        w = CFG.safe_rows
        assert np.allclose(comm[: w + 1, : w + 1], 1j * np.eye(w + 1))

    def test_number_operator(self):
        m = weyl_matrix(LAM * LAM_STAR, CFG)
        w = CFG.safe_rows
        want = 2.0 * np.diag(np.arange(CFG.dim) + 1.0)
        assert np.allclose(m[: w + 1, : w + 1], want[: w + 1, : w + 1])

    def test_representation_property_on_window(self):
        import random

        rng = random.Random(50)
        cfg = FockConfig(dim=80, hbar=1.0, safe_rows=12)
        for _ in range(6):
            a = random_weyl(rng, max_deg=4, terms=3)
            b = random_weyl(rng, max_deg=4, terms=3)
            lhs = weyl_matrix(a * b, cfg)
            rhs = weyl_matrix(a, cfg) @ weyl_matrix(b, cfg)
            w = cfg.safe_rows
            scale = max(1.0, np.linalg.norm(rhs[:, : w + 1]))
            assert np.linalg.norm(lhs[:, : w + 1] - rhs[:, : w + 1]) / scale < 1e-10


class TestExp:
    def test_zero_is_identity(self):
        cfg = FockConfig(dim=10, hbar=1e-300)  # lambda ~ 0
        assert np.allclose(exp_lambda(cfg, 1, False), np.eye(10), atol=1e-140)

    def test_entries_match_closed_form(self):
        cfg = FockConfig(dim=14, hbar=0.7)
        lam = math.sqrt(2 * 0.7)
        for sign in (1, -1):
            for dagger in (False, True):
                m = exp_lambda(cfg, sign, dagger)
                for i in range(14):
                    for j in range(14):
                        want = fock_exp_entry(sign * lam, i, j, dagger)
                        assert m[i, j] == pytest.approx(want, abs=1e-12)

    def test_annihilation_exponential_is_triangular(self):
        m = exp_lambda(CFG, 1, False)
        assert np.allclose(np.tril(m, -1), 0.0)

    def test_first_creation_entry(self):
        cfg = FockConfig(dim=6, hbar=1.0)
        m = exp_lambda(cfg, 1, True)
        assert m[1, 0] == pytest.approx(math.sqrt(2))  # <1|e^{la+}|0> = lambda

    def test_tail_bound_shrinks_with_dim(self):
        bounds = [
            exp_tail_bound(FockConfig(dim=d, hbar=1.0, safe_rows=10))
            for d in (48, 64, 96)
        ]
        assert bounds[0] > bounds[1] > bounds[2]
        assert bounds[2] < 1e-30


TAIL_HBARS = (1e-300, 1e-8, 0.5, 1.0, 2.0, 10.0, 100.0, 700.0, 1e300)


class TestTailBound:
    """exp_tail_bound sums the last window column's tail alone, which bounds
    every column's, until the terms fall and their geometric rest is
    negligible; the oracle sums every column term by term."""

    @pytest.mark.parametrize("dim", [*range(2, 26), 32, 48, 64, 100, 128, 200, 256])
    def test_matches_every_column_oracle(self, dim):
        for hbar in TAIL_HBARS:
            for window in sorted({1, dim // 3, dim - 1} - {0}):
                cfg = FockConfig(dim=dim, hbar=hbar, safe_rows=window)
                assert exp_tail_bound(cfg) == tail_bound_by_columns(cfg), (dim, hbar, window)

    @pytest.mark.parametrize("hbar", [0.5, 2.0, 100.0, 700.0])
    def test_column_tails_grow_with_the_column(self, hbar):
        cfg = FockConfig(dim=120, hbar=hbar, safe_rows=119)
        tails = [column_tail(cfg, n) for n in range(120)]
        assert tails == sorted(tails) and exp_tail_bound(cfg) == tails[-1]

    def test_sums_past_the_peak_of_the_terms(self):
        # the terms peak near k = 560 here, after the cut at k = 2, and the
        # sum runs on until their rest is negligible
        cfg = FockConfig(dim=1024, hbar=100.0, safe_rows=1022)
        got = exp_tail_bound(cfg)
        assert got >= column_tail(cfg, 1022)
        assert got == 5.514318996527858e+219

    @pytest.mark.parametrize("hbar, want", [(1e-300, 0.0), (1e300, math.inf)])
    def test_underflow_and_overflow_return_at_once(self, monkeypatch, hbar, want):
        # the terms underflow to 0 or overflow to inf by k = 3: at most two
        # square roots a term, and one for |c|
        calls = []

        class Math:
            def __getattr__(self, name):
                return getattr(math, name)

            @staticmethod
            def sqrt(x):
                calls.append(x)
                return math.sqrt(x)

        monkeypatch.setattr(fock, "math", Math())
        for window in (1, 341, 1023):
            cfg = FockConfig(dim=1024, hbar=hbar, safe_rows=window)
            calls.clear()
            got = exp_tail_bound(cfg)
            assert len(calls) <= 7, (hbar, window)
            assert got == tail_bound_by_columns(cfg) and (window == 1023 or got == want)


class TestDerivatives:
    def test_eigenrelation_for_exp(self):
        # d(e^L) = e^L and dbar(e^L) = 0 on the safe window
        cfg = FockConfig(dim=48, hbar=1.0, safe_rows=10)
        e = exp_lambda(cfg, 1, False)
        d = derive_matrix(e, Direction.D, cfg)
        db = derive_matrix(e, Direction.DBAR, cfg)
        w = cfg.safe_rows
        assert np.linalg.norm((d - e)[: w + 1, : w + 1]) < 1e-10
        assert np.linalg.norm(db[: w + 1, : w + 1]) < 1e-10

    def test_matches_symbolic_derivation(self):
        cfg = FockConfig(dim=40, hbar=1.0, safe_rows=8)
        elem = LAM**2 * LAM_STAR + U * V
        for d in Direction:
            lhs = derive_matrix(weyl_matrix(elem, cfg), d, cfg)
            rhs = weyl_matrix(elem.derive(d), cfg)
            w = cfg.safe_rows
            assert np.linalg.norm((lhs - rhs)[: w + 1, : w + 1]) < 1e-9

    def test_laplacian_of_harmonic_polynomial(self):
        cfg = FockConfig(dim=40, hbar=1.0, safe_rows=8)
        m = laplace_matrix(weyl_matrix(U * U - V * V, cfg), cfg)
        w = cfg.safe_rows
        assert np.linalg.norm(m[: w + 1, : w + 1]) < 1e-10


class TestCatenoid:
    def test_components_hermitian_on_window(self):
        cfg = FockConfig(dim=48, hbar=1.0, safe_rows=10)
        for m in catenoid(cfg):
            w = cfg.safe_rows
            block = m[: w + 1, : w + 1]
            assert np.linalg.norm(block - block.conj().T) < 1e-8

    def test_x3_is_u(self):
        cfg = FockConfig(dim=16, hbar=1.0)
        assert np.allclose(catenoid(cfg)[2], weyl_matrix(U, cfg))

    def test_residual_report_contents(self):
        cfg = FockConfig(dim=32, hbar=1.0, safe_rows=8)
        rep = residual_report(cfg)
        assert rep["dim"] == 32 and rep["hbar"] == 1.0 and rep["safe_rows"] == 8
        assert set(rep["residuals"]) == {"X1", "X2", "X3", "phi_isotropy"}
        assert all(v >= 0.0 for v in rep["residuals"].values())
        assert rep["tail_bound"] > 0.0

    def test_residuals_small_at_modest_size(self):
        rep = residual_report(FockConfig(dim=48, hbar=1.0, safe_rows=10))
        assert max(rep["residuals"].values()) < 1e-8


DIFF_CASES = [
    (dtype, dim, hbar)
    for dtype in (np.complex128, np.clongdouble)
    for dim in (2, 3, 17, 64)
    for hbar in (0.5, 1.0, 2.0)
]


def _config(dim, hbar):
    return FockConfig(dim=dim, hbar=hbar, safe_rows=max(1, dim // 3))


class TestAgainstDenseOracles:
    """The column-parallel exponential, and the long-double oracle's banded
    commutators, against dense products and scalar loops, bit for bit; and
    the exact residual report against the long-double oracle."""

    @pytest.mark.parametrize("dtype,dim,hbar", DIFF_CASES)
    def test_derive_matrix(self, dtype, dim, hbar):
        cfg = _config(dim, hbar)
        rng = np.random.default_rng(dim)
        noise = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        # numpy multiplies long doubles in its own loop, which rounds every
        # product on its own; complex128 products go to BLAS instead.
        exact_matmul = np.matmul if dtype is np.clongdouble else schoolbook_matmul
        for m in (noise.astype(dtype), loop_exp_lambda(cfg, 1, True, dtype)):
            for d in Direction:
                got = derive_matrix(m, d, cfg)
                assert got.dtype == m.dtype
                assert np.array_equal(got, dense_derive_matrix(m, d, cfg, exact_matmul))
                dense = dense_derive_matrix(m, d, cfg)
                assert np.allclose(got, dense, rtol=0, atol=1e-14 * np.abs(dense).max())

    @pytest.mark.parametrize("dtype,dim,hbar", DIFF_CASES)
    def test_generators(self, dtype, dim, hbar):
        cfg = _config(dim, hbar)
        for got, want in zip(generators(cfg, dtype), dense_generators(cfg, dtype)):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("dtype,dim,hbar", DIFF_CASES)
    def test_exp_lambda(self, dtype, dim, hbar):
        cfg = _config(dim, hbar)
        for sign in (1, -1):
            for dagger in (False, True):
                got = exp_lambda(cfg, sign, dagger, dtype)
                assert got.dtype == dtype
                assert np.array_equal(got, loop_exp_lambda(cfg, sign, dagger, dtype))

    @pytest.mark.parametrize("dim,hbar,safe_rows", [(64, 1.0, 20), (64, 2.0, None)])
    def test_residual_report(self, dim, hbar, safe_rows):
        cfg = FockConfig(dim=dim, hbar=hbar, safe_rows=safe_rows)
        want = long_double_residuals(cfg)
        assert want == long_double_residuals(cfg, dense_derive_matrix, loop_exp_lambda)
        got = residual_report(cfg)["residuals"]
        assert got.keys() == want.keys()
        for key, value in got.items():
            if value > 1e-13:
                assert abs(value - want[key]) <= 1e-6 * value, key

    @pytest.mark.parametrize("dim,hbar", [(64, 1.0), (96, 2.0)])
    def test_isotropy_against_full_product(self, dim, hbar):
        # the oracle multiplies only the window columns of the right factor
        cfg = FockConfig(dim=dim, hbar=hbar)
        ep, em = (exp_lambda(cfg, sign, False, np.clongdouble) for sign in (1, -1))
        want = window_norm(isotropy_matrix(ep, em), cfg.safe_rows)
        assert long_double_residuals(cfg)["phi_isotropy"] == want
        # e^L e^-L = 1 holds exactly in the truncated space: the long-double
        # value is roundoff, and the exact report reads 0
        assert want < 1e-10
        assert residual_report(cfg)["residuals"]["phi_isotropy"] == 0.0

    def test_report_builds_each_exponential_once(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return exp_lambda(*args)

        long_double_residuals(FockConfig(dim=16), exp=counted)
        assert len(calls) == 4
        monkeypatch.setattr(fock, "exp_lambda", counted)
        residual_report(FockConfig(dim=16))
        assert len(calls) == 4  # the exact report builds no matrix


EXACT_CASES = [
    (dim, hbar, safe_rows)
    for dim in (2, 3, 8, 13, 24, 40)
    for hbar in (1.0, 0.5, 2.0)
    for safe_rows in sorted({max(1, dim // 3)} | ({dim - 2, dim - 1} if 3 < dim < 40 else set()))
]


class TestExactResiduals:
    """The report's closed forms against the full scaled-basis rational
    oracle, which forms every window column."""

    @pytest.mark.parametrize("dim,hbar,safe_rows", EXACT_CASES)
    def test_equals_rational_oracle(self, dim, hbar, safe_rows):
        cfg = FockConfig(dim=dim, hbar=hbar, safe_rows=safe_rows)
        mats, want = exact_catenoid_residuals(cfg)
        got = fock._squared_residuals(cfg)
        assert {name: Fraction(*pair) for name, pair in got.items()} == want
        assert residual_report(cfg)["residuals"] == pytest.approx(
            {name: math.sqrt(sq) for name, sq in want.items()}, rel=1e-15, abs=0
        )
        # inside the window, lap X1 and lap X2 are nonzero in row dim-1 alone,
        # except in column dim-1 itself
        for name in ("X1", "X2"):
            rows = {i for i, j in mats[name] if j < dim - 1}
            assert rows == {dim - 1} if dim >= 8 else rows <= {dim - 1}, name
        assert not mats["phi_isotropy"]
        assert bool(mats["X3"]) == (safe_rows >= dim - 2)

    @pytest.mark.parametrize("hbar", [1.0, 0.5, 0.7, 1e-3, 2.0, 1e-300])
    def test_closed_forms_equal_the_loops(self, hbar):
        # X3 and phi_isotropy are stated in closed form; the entry-by-entry
        # loop and the Pascal-row loop they replaced must give the same pairs.
        s = 2 * Fraction(hbar)
        for dim in (*range(2, 25), 64):
            u, phi = lap_u_columns(dim, s), isotropy_columns(dim, s)
            for window in range(1, dim):
                got = fock._squared_residuals(FockConfig(dim=dim, hbar=hbar, safe_rows=window))
                assert got["X3"] == max(u[: window + 1]).as_integer_ratio(), (dim, window)
                assert got["phi_isotropy"] == max(phi[: window + 1]).as_integer_ratio()

    @pytest.mark.parametrize("dim", [17, 32, 64, 96, 128])
    @pytest.mark.parametrize("hbar", [0.5, 1.0, 2.0])
    def test_agrees_with_long_double_oracle(self, dim, hbar):
        cfg = FockConfig(dim=dim, hbar=hbar)
        got = residual_report(cfg)["residuals"]
        want = long_double_residuals(cfg)
        for key, value in got.items():
            if value > 1e-13:
                # 1e-14 absolute covers the oracle's own long-double roundoff,
                # 1.9e-15 on X1 = 3.9e-12 at (96, 2.0)
                assert abs(value - want[key]) <= 1e-6 * value + 1e-14, (key, value, want[key])

    @pytest.mark.parametrize("hbar", [1e-300, 0.5, 1.0, 2.0, 1e300])
    def test_corner_column_matches_fraction_horner(self, hbar):
        s = 2 * Fraction(hbar)
        for dim in range(2, 65):
            for parity in (0, 1):
                want = corner_column_norm(dim, s, parity)
                assert Fraction(*fock._exp_part(dim, s, dim - 1, parity)) == want, (dim, parity)
        # s need not be dyadic: the odd part of its denominator is carried too
        for s in (Fraction(2, 3), Fraction(10, 7), Fraction(9, 20)):
            for dim in (2, 5, 17):
                assert Fraction(*fock._exp_part(dim, s, dim - 1, 1)) == corner_column_norm(dim, s, 1)

    def test_extreme_hbar(self):
        tiny = residual_report(FockConfig(dim=64, hbar=1e-300))["residuals"]
        assert tiny == {"X1": 0.0, "X2": 0.0, "X3": 0.0, "phi_isotropy": 0.0}
        with pytest.raises(OverflowError):
            residual_report(FockConfig(dim=64, hbar=1e300))

    def test_full_window_at_the_largest_dim(self):
        # The corner column's pair reaches about a million bits at hbar =
        # 1e-300 and is rounded unreduced; the floats are pinned.
        for hbar, want in (
            (1e-300, {"X1": 523519.9374083092, "X2": 2.3159158533936417e154,
                      "X3": 2.3159158533936417e154, "phi_isotropy": 0.0}),
            (1.0, {"X1": 2.013337170368762e21, "X2": 2.013337170368762e21,
                   "X3": 23159.158533936417, "phi_isotropy": 0.0}),
        ):
            got = residual_report(FockConfig(dim=1024, hbar=hbar, safe_rows=1023))["residuals"]
            assert got == want, hbar

    def test_verdict_passes_at_every_dim(self):
        for dim in (64, 128, 256, 512, 1024):
            rep = residual_report(FockConfig(dim=dim, hbar=1.0))
            assert max(rep["residuals"].values()) < 1e-8, dim
