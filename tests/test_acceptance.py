"""End-to-end acceptance checklist.

Eleven contract items, one test each.  Every test prints a single
PASS/FAIL line (visible with ``pytest -s`` or in captured output).
Symbolic items are exact -- equality of canonical forms, no tolerances;
the truncated Fock check uses the documented 1e-8 residual budget.
"""

import json
import pathlib
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from oracles import lambda_word_normal_order, random_poly_lambda, random_weyl
from weylmin.classical import classical_limit, classical_limit_fraction
from weylmin.cli import main
from weylmin.fock import FockConfig, residual_report
from weylmin.parse import parse_rat, parse_weyl
from weylmin.scalars import GaussRational
from weylmin.surfaces import (
    bilinear,
    check_normal,
    conjugate_surface,
    enneper,
    first_fundamental,
    mean_curvature_h0,
    normal_element,
    phi_components,
    surface_from_F,
    surface_from_Ftilde,
    surface_from_pair,
    verify_minimal,
)
from weylmin.weyl import LAM, LAM_STAR, Direction, WeylElement

GOLDENS = pathlib.Path(__file__).parent / "goldens"
W = parse_weyl


@contextmanager
def criterion(idx, label):
    try:
        yield
    except BaseException:
        print(f"[{idx:2d}/11] {label}: FAIL")
        raise
    print(f"[{idx:2d}/11] {label}: PASS")


def assert_golden_bytes(tmp_path, stem, *argv):
    """The JSON, LaTeX and text output of a CLI surface command, byte for
    byte against ``goldens/<stem>.json``, ``.tex`` and ``.txt``."""
    for fmt, ext in (("json", "json"), ("latex", "tex"), ("text", "txt")):
        out = tmp_path / f"out.{ext}"
        assert main([*argv, "--fmt", fmt, "--out", str(out)]) == 0
        assert out.read_text() == (GOLDENS / f"{stem}.{ext}").read_text(), fmt


def test_01_enneper_golden(tmp_path):
    with criterion(1, "Enneper surface, exact canonical form"):
        assert_golden_bytes(tmp_path, "enneper", "surface", "from-Ftilde", "--Ft", "L^3")
        s = surface_from_Ftilde(parse_rat("L^3").as_poly())
        assert s.components == (
            W("U + U*V^2 - 1/3*U^3 - i*h*V"),
            W("-V - U^2*V + 1/3*V^3 + i*h*U"),
            W("U^2 - V^2"),
        )


def test_02_quartic_golden(tmp_path):
    with criterion(2, "quartic surface with constant shifts, exact"):
        assert_golden_bytes(tmp_path, "quartic", "surface", "from-Ftilde", "--Ft", "L^4")
        s = surface_from_Ftilde(parse_rat("L^4").as_poly())
        assert s.components == (
            W("-3/2*h^2 + U^2 - 6*i*h*U*V - V^2 - 1/2*U^4 + 3*U^2*V^2 - 1/2*V^4"),
            W("i*h + 3*i*h*U^2 - 2*U*V - 3*i*h*V^2 - 2*U^3*V + 2*U*V^3"),
            W("4*i*h*V + 4/3*U^3 - 4*U*V^2"),
        )


def test_03_higher_enneper_golden(tmp_path):
    with criterion(3, "order-2 Enneper surface, exact"):
        assert_golden_bytes(tmp_path, "enneper2", "surface", "enneper", "--n", "2")
        s = enneper(2)
        assert s.components == (
            W("U - 3*h^2*U - 6*i*h*U^2*V + 2*i*h*V^3 - 1/5*U^5 + 2*U^3*V^2 - U*V^4"),
            W("-V - 3*h^2*V + 2*i*h*U^3 - 6*i*h*U*V^2 - U^4*V + 2*U^2*V^3 - 1/5*V^5"),
            W("2*i*h*V + 2/3*U^3 - 2*U*V^2"),
        )


def test_04_four_component_golden(tmp_path):
    with criterion(4, "four-component surface (U, V, U^2-V^2, 2UV-ih)"):
        assert_golden_bytes(tmp_path, "pair_r4", "surface", "pair", "--f", "L", "--g", "L^2")
        s = surface_from_pair(parse_rat("L").as_poly(), parse_rat("L^2").as_poly())
        assert s.components == (
            W("U"),
            W("V"),
            W("U^2 - V^2"),
            W("2*U*V - i*h"),
        )


def _phi_identity_holds(s):
    ff = first_fundamental(s)
    phi = phi_components(s)
    two_i = WeylElement({(0, 0): GaussRational(0, 2)})
    return bilinear(phi, phi) == ff.E - ff.G - two_i * ff.F


def test_05_constructor_soundness():
    with criterion(5, "surfaces verify and <Phi,Phi> = E-G-2iF (monomials + 50 random)"):
        for n in range(3, 11):
            s = surface_from_Ftilde(parse_rat(f"L^{n}").as_poly())
            rep = verify_minimal(s)
            assert rep.passes, f"L^{n}: {[w[0] for w in rep.witnesses]}"
            assert _phi_identity_holds(s)
        rng = random.Random(1105)
        for _ in range(50):
            ft = random_poly_lambda(rng, max_deg=6, terms=4)
            s = surface_from_Ftilde(ft)
            rep = verify_minimal(s)
            assert rep.passes, [w[0] for w in rep.witnesses]
            assert _phi_identity_holds(s)


def test_06_operator_identity_suite():
    with criterion(6, "derivation/star identities on 200 random elements"):
        rng = random.Random(1106)
        elems = [random_weyl(rng, max_deg=6, terms=4, max_hbar=2) for _ in range(200)]
        for i, a in enumerate(elems):
            b = elems[(i + 1) % len(elems)]
            lap = a.laplace()
            assert lap == a.derive(Direction.D).derive(Direction.DBAR).scale(4)
            assert lap == a.derive(Direction.DBAR).derive(Direction.D).scale(4)
            assert lap == (
                a.derive(Direction.U).derive(Direction.U)
                + a.derive(Direction.V).derive(Direction.V)
            )
            for d in Direction:
                assert (a * b).derive(d) == a.derive(d) * b + a * b.derive(d)
            assert (a * b).star() == b.star() * a.star()
            assert a.derive(Direction.U).derive(Direction.V) == a.derive(
                Direction.V
            ).derive(Direction.U)


def test_07_normal_ordering_oracle():
    with criterion(7, "closed-form reordering matches one-swap rewriter (l,m <= 6)"):
        for l in range(7):
            for m in range(7):
                brute = WeylElement(lambda_word_normal_order(l, m))
                assert brute == LAM_STAR**l * LAM**m, (l, m)


def test_08_normal_and_mean_curvature():
    with criterion(8, "normal orthogonality and H0 = 0 for three surfaces"):
        n = normal_element()
        for f_text in ("6", "24*L", "1+L^3"):
            s = surface_from_F(parse_rat(f_text))
            assert check_normal(s, n), f_text
            assert mean_curvature_h0(s, n).is_zero(), f_text


def test_09_conjugate_suite():
    with criterion(9, "conjugates verify and satisfy the conjugate relations"):
        for f_text in ("6", "24*L", "1+L^3"):
            s = surface_from_F(parse_rat(f_text))
            t = conjugate_surface(s)
            assert verify_minimal(t).passes, f_text
            for x, y in zip(s.components, t.components):
                assert x.derive(Direction.U) == y.derive(Direction.V)
                assert x.derive(Direction.V) == -y.derive(Direction.U)


def test_10_fock_catenoid():
    with criterion(10, "catenoid residuals < 1e-8 at dim 64, decreasing at 128, < 5 s"):
        t0 = time.monotonic()
        r64 = residual_report(FockConfig(dim=64, hbar=1.0, safe_rows=20))
        r128 = residual_report(FockConfig(dim=128, hbar=1.0, safe_rows=20))
        elapsed = time.monotonic() - t0
        assert max(r64["residuals"].values()) < 1e-8
        # raising dim shrinks truncation error; values already at the
        # floating-point floor may only stay there
        floor = 1e-13
        for key, v64 in r64["residuals"].items():
            v128 = r128["residuals"][key]
            assert v128 <= v64 or v128 < floor, (key, v64, v128)
        assert r128["tail_bound"] < r64["tail_bound"]
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_11_classical_limit():
    with criterion(11, "classical limit of Enneper + commutative minimality"):
        s = enneper(1)
        third = Fraction(1, 3)
        assert classical_limit_fraction(s.components[0]) == {
            (1, 0): Fraction(1),
            (1, 2): Fraction(1),
            (3, 0): -third,
        }
        assert classical_limit_fraction(s.components[1]) == {
            (0, 1): Fraction(-1),
            (2, 1): Fraction(-1),
            (0, 3): third,
        }
        assert classical_limit_fraction(s.components[2]) == {
            (2, 0): Fraction(1),
            (0, 2): Fraction(-1),
        }
        xs = [classical_limit(c) for c in s.components]
        xu = [x.diff("u") for x in xs]
        xv = [x.diff("v") for x in xs]
        # conformal: |x_u| = |x_v|, x_u . x_v = 0; minimal: harmonic
        e = sum((a * a for a in xu[1:]), xu[0] * xu[0])
        g = sum((a * a for a in xv[1:]), xv[0] * xv[0])
        f = sum((a * b for a, b in zip(xu[1:], xv[1:])), xu[0] * xv[0])
        assert e == g
        assert f.is_zero()
        for x in xs:
            assert (x.diff("u").diff("u") + x.diff("v").diff("v")).is_zero()
