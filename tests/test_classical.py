"""Commutative h -> 0 limit."""

import random
from fractions import Fraction

import pytest

from oracles import classical_point, random_weyl, terms_classical_limit, uv_dict_point
from weylmin.classical import UVPoly, classical_limit, classical_limit_fraction
from weylmin.weyl import HBAR, LAM, LAM_STAR, U, V

POINTS = [
    (Fraction(0), Fraction(0)),
    (Fraction(1), Fraction(-2)),
    (Fraction(1, 3), Fraction(5, 7)),
    (Fraction(-4, 5), Fraction(2, 9)),
]


class TestLimit:
    def test_generators(self):
        assert classical_limit_fraction(U) == {(1, 0): Fraction(1)}
        assert classical_limit_fraction(V) == {(0, 1): Fraction(1)}
        assert classical_limit_fraction(HBAR) == {}
        assert classical_limit_fraction(LAM * LAM_STAR) == {
            (2, 0): Fraction(1),
            (0, 2): Fraction(1),
        }

    def test_point_evaluation_oracle(self):
        rng = random.Random(30)
        for _ in range(25):
            a = random_weyl(rng, max_deg=4, terms=4, max_hbar=2)
            lim = classical_limit_fraction(a.real_part())
            for u, v in POINTS:
                want = classical_point(a.real_part(), u, v)
                assert want.im == 0
                assert uv_dict_point(lim, u, v) == want.re

    def test_against_per_term_reference(self):
        rng = random.Random(32)
        for _ in range(30):
            a = random_weyl(rng, max_deg=5, terms=5, max_hbar=2)
            assert classical_limit(a).terms == terms_classical_limit(a)

    def test_limit_is_multiplicative(self):
        # h -> 0 kills the commutator, so the limit is a ring map
        rng = random.Random(31)
        for _ in range(15):
            a = random_weyl(rng, max_deg=3, terms=3)
            b = random_weyl(rng, max_deg=3, terms=3)
            assert classical_limit(a * b) == classical_limit(a) * classical_limit(b)
            assert classical_limit(a + b) == classical_limit(a) + classical_limit(b)

    def test_commutator_vanishes(self):
        assert classical_limit(U * V - V * U).is_zero()


class TestUVPoly:
    def test_diff(self):
        p = classical_limit(U * U * V)
        assert p.diff("u") == classical_limit(U * V).scale(2)
        assert p.diff("v") == classical_limit(U * U)

    def test_negative_degree_rejected(self):
        # as WeylElement and HbarPoly do
        with pytest.raises(ValueError, match="negative"):
            UVPoly({(-1, 0): 1})
        with pytest.raises(ValueError, match="negative"):
            UVPoly({(2, -1): 1})

    def test_real_predicate(self):
        assert classical_limit((U * V + V * U).scale(Fraction(1, 2))).is_real()
        assert not classical_limit(LAM).is_real()

    def test_ring_ops(self):
        u = classical_limit(U)
        v = classical_limit(V)
        assert (u + v) * (u - v) == u * u - v * v
        assert u**3 == u * u * u
        assert (u - u).is_zero()
