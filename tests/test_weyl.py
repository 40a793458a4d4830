"""Normal-ordered algebra: products, derivations, star, Laplacian."""

import random
import sys
from fractions import Fraction
from math import comb, factorial, gcd

import pytest

from oracles import (
    as_fractions,
    bilinear_literal,
    grouped,
    imag_part_by_star,
    lambda_word_normal_order,
    random_gauss,
    random_weyl,
    real_part_by_star,
    terms_derive,
    terms_laplace,
    terms_scale,
    terms_shift_hbar,
    terms_classical_limit,
    terms_star,
    terms_sum,
    terms_uv_ordered,
    uv_word_normal_order,
    weyl_product_by_swaps,
)
from weylmin import weyl
from weylmin.scalars import GaussRational, HbarPoly
from weylmin.weyl import (
    HBAR,
    LAM,
    LAM_STAR,
    ONE,
    REORDER_MEMO_CAP,
    U,
    UV_TABLE_CAP,
    V,
    ZERO,
    Direction,
    WeylElement,
    bilinear,
    coefficients,
    commutator,
    derive_by_commutator,
    from_uv,
    sym,
    uv_coefficients,
    uv_table,
    uv_table_h_free,
)

I = WeylElement({(0, 0): HbarPoly({0: GaussRational(0, 1)})})


def rand_elems(seed, count, **kw):
    rng = random.Random(seed)
    return [random_weyl(rng, **kw) for _ in range(count)]


class TestStructure:
    def test_defining_relation(self):
        assert commutator(U, V) == I * HBAR
        assert commutator(LAM, LAM_STAR) == HBAR.scale(2)

    def test_generators_in_both_bases(self):
        assert LAM == U + I * V
        assert LAM_STAR == U - I * V
        assert from_uv("U") == U and from_uv("V") == V

    def test_canonical_ordering_of_terms(self):
        e = LAM_STAR * LAM  # = L Ls - 2h
        assert e == LAM * LAM_STAR - HBAR.scale(2)
        assert e.term(1, 1) == HbarPoly({0: GaussRational(1)})
        assert e.term(0, 0) == HbarPoly({1: GaussRational(-2)})
        assert e.term(5, 5) == HbarPoly()

    def test_normal_ordering_against_single_swap_rewriter(self):
        for l in range(5):
            for m in range(5):
                assert WeylElement(lambda_word_normal_order(l, m)) == LAM_STAR**l * LAM**m

    def test_uv_words_against_single_swap_rewriter(self):
        rng = random.Random(11)
        for _ in range(40):
            word = "".join(rng.choice("UV") for _ in range(rng.randint(0, 6)))
            elem = ZERO
            for (p, q), c in uv_word_normal_order(word).items():
                elem = elem + (U**p * V**q).scale(c)
            assert elem == from_uv(word), word

    def test_ring_axioms_on_random_elements(self):
        a, b, c = rand_elems(1, 3, max_deg=3, terms=3)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * ONE == a and ONE * a == a
        assert a * ZERO == ZERO

    def test_noncommutative(self):
        assert U * V != V * U

    def test_scalar_coercion(self):
        assert U * 2 == U + U
        assert 2 * U == U + U
        assert U * Fraction(1, 2) + U * Fraction(1, 2) == U

    def test_foreign_operand_is_rejected(self):
        with pytest.raises(TypeError):
            U + "x"


class TestFlatProduct:
    """The flat integer product against the one-swap oracle."""

    @pytest.mark.parametrize("seed", range(5))
    def test_random_products(self, seed):
        # mixed denominators up to 6, h-degrees up to 3 (6 in the product)
        rng = random.Random(100 + seed)
        for _ in range(4):
            a = random_weyl(rng, max_deg=4, terms=5, max_hbar=3)
            b = random_weyl(rng, max_deg=4, terms=5, max_hbar=3)
            assert a * b == weyl_product_by_swaps(a, b)

    def test_zero_and_scalar_operands(self):
        for a in rand_elems(12, 3, max_hbar=2):
            assert a * ZERO == ZERO * a == weyl_product_by_swaps(a, ZERO) == ZERO
            assert (a * HBAR) * Fraction(-3, 4) == weyl_product_by_swaps(a, HBAR.scale(Fraction(-3, 4)))

    def test_cancelling_terms_are_dropped(self):
        # (L + Ls)(L - Ls) = L^2 - Ls^2 - 2h: the L Ls terms cancel
        a, b = LAM + LAM_STAR, LAM - LAM_STAR
        want = LAM**2 - LAM_STAR**2 - HBAR.scale(2)
        assert a * b == weyl_product_by_swaps(a, b) == want

    @pytest.mark.parametrize("seed", range(3))
    def test_operands_over_different_denominators(self, seed):
        rng = random.Random(130 + seed)
        for _ in range(3):
            a = random_weyl(rng, max_deg=4, terms=5, max_hbar=2).scale(Fraction(1, 101))
            b = random_weyl(rng, max_deg=4, terms=5, max_hbar=2).scale(Fraction(3, 103))
            assert a.den % 101 == 0 and b.den % 103 == 0
            assert a * b == weyl_product_by_swaps(a, b)
            assert b * a == weyl_product_by_swaps(b, a)

    @pytest.mark.parametrize("seed", range(3))
    def test_cancelling_items_of_random_products(self, seed):
        # y, a polynomial in x, commutes with x, so every item of the cross
        # terms of (x + y)(x - y) cancels against another.  (The algebra has
        # no zero divisors: a whole product cancels only inside a sum, see
        # the bilinear form's tests.)
        rng = random.Random(140 + seed)
        for _ in range(2):
            x = random_weyl(rng, max_deg=3, terms=4, max_hbar=1).scale(Fraction(1, 101))
            y = (x * x).scale(random_gauss(rng)) + x.scale(HbarPoly({1: random_gauss(rng)}))
            a, b = x + y, x - y
            assert a * b == weyl_product_by_swaps(a, b) == weyl_product_by_swaps(x, x) - (
                weyl_product_by_swaps(y, y))


def random_holomorphic(rng, den: int) -> WeylElement:
    """A polynomial in L with h-degrees up to 2, over a multiple of ``den``."""
    terms = {(k, 0): HbarPoly({d: random_gauss(rng) for d in range(rng.randint(1, 3))})
             for k in rng.sample(range(6), 3)}
    return WeylElement(terms).scale(Fraction(1, den))


class TestHolomorphicLeftFactor:
    """A left row without Ls is added to the product with no reordering;
    products and squares must still equal the one-swap oracle's, and the
    reordering terms must be looked up only for left rows with Ls."""

    @pytest.fixture
    def reorders(self, monkeypatch):
        calls = []
        reorder = weyl._reorder
        monkeypatch.setattr(weyl, "_reorder", lambda l, m: calls.append((l, m)) or reorder(l, m))
        return calls

    @staticmethod
    def operands(seed):
        rng = random.Random(160 + seed)
        for _ in range(3):
            a, b = random_holomorphic(rng, 101), random_holomorphic(rng, 103)
            x, y = (random_weyl(rng, max_deg=4, terms=5, max_hbar=2).scale(Fraction(1, 107))
                    + WeylElement.basis(1, 2) for _ in range(2))
            assert a.is_holomorphic() and b.is_holomorphic()
            assert a.den % 101 == 0 and b.den % 103 == 0 and any(r[2] for r in a.rows)
            assert not x.is_holomorphic() and not y.is_holomorphic()
            yield a, b, x, y

    @pytest.mark.parametrize("seed", range(4))
    def test_products_against_swaps(self, seed, reorders):
        for a, b, x, y in self.operands(seed):
            for left, right in ((a, b), (a, x), (x, a), (x, y)):
                assert left * right == weyl_product_by_swaps(left, right)
        assert reorders and all(l for l, _ in reorders)

    @pytest.mark.parametrize("seed", range(2))
    def test_holomorphic_squares(self, seed, reorders):
        for a, b, x, y in self.operands(seed):
            for xs in ((a,), (a, b), (a, x, b)):
                assert bilinear(xs, xs) == bilinear_literal(xs, xs)
        assert reorders and all(l for l, _ in reorders)


def reorder_formula(l, m):
    return tuple((j, factorial(j) * comb(l, j) * comb(m, j) * (-2) ** j)
                 for j in range(min(l, m) + 1))


def memo_bytes(memo: dict) -> int:
    """Keys, term tuples and their integers, by sys.getsizeof."""
    return sys.getsizeof(memo) + sum(
        sys.getsizeof(key) + sum(map(sys.getsizeof, key)) + sys.getsizeof(terms)
        + sum(sys.getsizeof(t) + sys.getsizeof(t[0]) + sys.getsizeof(t[1]) for t in terms)
        for key, terms in memo.items())


class TestReorderMemo:
    def test_coefficients_match_formula(self, monkeypatch):
        monkeypatch.setattr(weyl, "_REORDER_MEMO", {})
        for l in range(13):
            for m in range(13):
                want = reorder_formula(l, m)
                assert weyl._reorder(l, m) == want == weyl._reorder(l, m)
        assert len(weyl._REORDER_MEMO) == 13 * 13
        for l, m in ((1, 1), (3, 2), (2, 4)):
            assert WeylElement({(m - j, l - j): HbarPoly({j: c}) for j, c in reorder_formula(l, m)}) \
                == LAM_STAR**l * LAM**m

    def test_products_past_the_cap_are_not_stored(self, monkeypatch):
        monkeypatch.setattr(weyl, "_REORDER_MEMO", {})
        n = REORDER_MEMO_CAP + 8
        ls_n, l_n = WeylElement.basis(0, n), WeylElement.basis(n, 0)
        nn = WeylElement({(n - j, n - j): HbarPoly({j: c}) for j, c in reorder_formula(n, n)})
        assert ls_n * l_n == nn
        assert weyl._REORDER_MEMO == {}
        # (Ls^n + Ls)(L^n + L) looks up (n, n), (n, 1), (1, n) and (1, 1)
        got = (ls_n + LAM_STAR) * (l_n + LAM)
        assert got == nn + weyl_product_by_swaps(ls_n + LAM_STAR, LAM) + weyl_product_by_swaps(
            LAM_STAR, l_n)
        assert list(weyl._REORDER_MEMO) == [(1, 1)]
        # the memo filled to its cap stays under the documented 2 MB
        for l in range(n + 1):
            for m in range(n + 1):
                weyl._reorder(l, m)
        assert len(weyl._REORDER_MEMO) == (REORDER_MEMO_CAP + 1) ** 2
        assert memo_bytes(weyl._REORDER_MEMO) < 2_000_000


class TestFlatStorage:
    """Rows and den against the per-term HbarPoly references, and the
    canonical form: equal elements have equal rows, den and hash."""

    @pytest.mark.parametrize("seed", range(4))
    def test_operations_against_per_term_references(self, seed):
        # non-integral coefficients, h-degree up to 2
        rng = random.Random(200 + seed)
        cases = []
        for _ in range(5):
            a = random_weyl(rng, max_deg=5, terms=5, max_hbar=2)
            b = random_weyl(rng, max_deg=5, terms=5, max_hbar=2)
            c = HbarPoly({0: random_gauss(rng), 2: random_gauss(rng)})
            cases.append((a, b, c))
        # the zero element, and integral coefficients with h up to degree 2
        cases += [(ZERO, a, c), (b, ZERO, c), (ZERO, ZERO, c),
                  ((LAM + LAM_STAR + HBAR) ** 3, HBAR * HBAR * LAM ** 2 * LAM_STAR - 3, c)]
        for a, b, c in cases:
            assert (a + b).terms == terms_sum(a, b)
            assert (a - a).terms == terms_sum(a, -a) == ()
            assert (-b).terms == terms_scale(b, -1)
            assert a.scale(c).terms == terms_scale(a, c)
            assert a.scale(Fraction(-2, 3)).terms == terms_scale(a, Fraction(-2, 3))
            assert a.star().terms == terms_star(a)
            for d in Direction:
                assert a.derive(d).terms == terms_derive(a, d)
            assert a.laplace().terms == terms_laplace(a)
            assert a.shift_hbar(2).terms == terms_shift_hbar(a, 2)
            assert (a * HBAR).shift_hbar(-1).terms == terms_shift_hbar(a * HBAR, -1) == a.terms
            for x in (a, b, a + b, a * b, a.derive(Direction.V)):
                self.assert_canonical(x)

    @staticmethod
    def assert_canonical(x):
        assert x.den > 0
        assert gcd(x.den, *(n for *_, re, im in x.rows for n in (re, im))) == 1
        assert all(re or im for *_, re, im in x.rows)
        assert list(x.rows) == sorted(x.rows, key=lambda r: (r[0] + r[1], r[0], r[2]))
        assert len({r[:3] for r in x.rows}) == len(x.rows)
        assert WeylElement(x.terms) == x
        assert x.is_zero() == (x.terms == ())

    def assert_same(self, x, y):
        assert x == y
        assert (x.rows, x.den, hash(x)) == (y.rows, y.den, hash(y))

    def test_equal_elements_by_different_routes(self):
        for x in rand_elems(210, 6, max_deg=5, terms=5, max_hbar=2):
            self.assert_same(x.scale(Fraction(1, 3)).scale(3), x)
            self.assert_same(x + x - x, x)
            self.assert_same(x.star().star(), x)
            self.assert_same(WeylElement(x.terms), x)
            self.assert_same(WeylElement(dict(x.terms)), x)
            self.assert_same(x - x, ZERO)
        half = LAM.scale(Fraction(1, 2))
        self.assert_same(half + half, LAM)
        assert (half + half).den == 1 and half.den == 2
        self.assert_same(U + I * V, LAM)
        assert ZERO.rows == () and ZERO.den == 1
        assert (U - U).den == 1

    def test_terms_view(self):
        x = HBAR.scale(Fraction(-3, 2)) * U + LAM_STAR.scale(GaussRational(Fraction(1, 3), 2))
        assert x.rows == ((0, 1, 0, 4, 24), (0, 1, 1, -9, 0), (1, 0, 1, -9, 0))
        assert x.den == 12
        minus_3_4 = GaussRational(Fraction(-3, 4))
        assert x.terms == (
            ((0, 1), HbarPoly({0: GaussRational(Fraction(1, 3), 2), 1: minus_3_4})),
            ((1, 0), HbarPoly({1: minus_3_4})),
        )
        assert x.term(0, 1) == x.terms[0][1] and x.term(3, 3) == HbarPoly()
        assert x.bidegrees() == ((0, 1), (1, 0))

    def test_constructor_checks(self):
        with pytest.raises(ValueError, match="negative monomial degree"):
            WeylElement({(-1, 2): 1})
        with pytest.raises(ValueError):
            WeylElement({(0, 0): HbarPoly({-1: 1})})
        with pytest.raises(TypeError):
            WeylElement({(0, 0): 1.5})
        with pytest.raises(TypeError):
            U.scale(V)
        # equal bidegrees are summed, zero sums dropped
        assert WeylElement([((1, 0), 1), ((1, 0), -1)]) == ZERO
        assert WeylElement([((1, 0), 1), ((1, 0), 1)]) == LAM.scale(2)


class TestReader:
    """``coefficients`` and its U,V twin ``uv_coefficients`` against
    ``.terms`` and the per-term U,V reference, key order included, through
    ``oracles.as_fractions``: integer records in lowest terms read as
    Fraction parts."""

    @staticmethod
    def cases():
        yield ZERO
        # mixed denominators
        yield HBAR.scale(Fraction(-3, 2)) * U + LAM_STAR.scale(GaussRational(Fraction(1, 3), 2))
        yield LAM.scale(Fraction(1, 6)) + LAM_STAR.scale(Fraction(3, 4)) + HBAR.scale(Fraction(5, 9))
        # normal-ordered rows that cancel: U V - V U = i h
        yield U * V - V * U
        yield (LAM + HBAR * HBAR) - LAM
        # U,V rows that cancel: L Ls + Ls L = 2 (U^2 + V^2), its h rows cancel
        yield LAM * LAM_STAR + LAM_STAR * LAM
        yield from rand_elems(230, 12, max_deg=5, terms=5, max_hbar=2)

    def test_against_terms_and_uv_reference(self):
        for x in self.cases():
            records = (coefficients(x), uv_coefficients(x), uv_coefficients(x, h_free=True))
            for table in records:
                for c in table.values():
                    for d, a, p, b, q in c:
                        assert p > 0 and q > 0 and gcd(a, p) == gcd(b, q) == 1
            got, uv = as_fractions(records[0]), as_fractions(records[1])
            assert list(got.items()) == grouped(x.terms)
            assert list(uv.items()) == grouped(terms_uv_ordered(x))
            for table in (got, uv):
                for c in table.values():
                    assert c and all(re or im for _, re, im in c)
                    assert all(type(re) is type(im) is Fraction for _, re, im in c)
                    assert [d for d, *_ in c] == sorted({d for d, *_ in c})
            # the h-free twin is the h-degree-0 part of the full one
            h_free = as_fractions(records[2])
            assert list(h_free.items()) == [
                (pq, [t for t in c if not t[0]]) for pq, c in uv.items() if not c[0][0]
            ]
            assert h_free == {pq: [(0, g.re, g.im)] for pq, g in terms_classical_limit(x)}

    def test_pinned(self):
        x = HBAR.scale(Fraction(-3, 2)) * U + LAM_STAR.scale(GaussRational(Fraction(1, 3), 2))
        assert coefficients(x) == {
            (0, 1): [(0, 1, 3, 2, 1), (1, -3, 4, 0, 1)], (1, 0): [(1, -3, 4, 0, 1)],
        }
        assert list(as_fractions(coefficients(x)).items()) == [
            ((0, 1), [(0, Fraction(1, 3), Fraction(2)), (1, Fraction(-3, 4), Fraction(0))]),
            ((1, 0), [(1, Fraction(-3, 4), Fraction(0))]),
        ]
        assert coefficients(ZERO) == uv_coefficients(ZERO) == uv_coefficients(ZERO, True) == {}
        assert uv_coefficients(U * V - V * U) == {(0, 0): [(1, 0, 1, 1, 1)]}
        assert as_fractions(uv_coefficients(U * V - V * U)) == {
            (0, 0): [(1, Fraction(0), Fraction(1))],
        }
        assert uv_coefficients(U * V - V * U, h_free=True) == {}


def weight_parts(x):
    """x split into its homogeneous parts, weight k + l + 2 * (h-degree)."""
    parts = {}
    for (k, l), c in x.terms:
        for d, g in c.coeffs:
            parts.setdefault(k + l + 2 * d, []).append(((k, l), HbarPoly.hbar(d, g)))
    return {w: WeylElement(ts) for w, ts in parts.items()}


def weights(x):
    return {k + l + 2 * d for k, l, d, *_ in x.rows}


class TestGrading:
    """The product, the derivations, the Laplacian, the involution and the
    U,V table are graded by weight k + l + 2 * (h-degree)."""

    @pytest.mark.parametrize("seed", range(3))
    def test_operations_map_weight_to_weight(self, seed):
        elems = rand_elems(240 + seed, 6, max_deg=5, terms=6, max_hbar=2)
        for a, b in zip(elems[::2], elems[1::2]):
            pa, pb = weight_parts(a), weight_parts(b)
            assert sum(pa.values(), ZERO) == a
            assert all(weights(x) == {w} for w, x in pa.items())
            for wa, xa in pa.items():
                for wb, xb in pb.items():
                    assert weights(xa * xb) <= {wa + wb}
                for direction in Direction:
                    assert weights(xa.derive(direction)) <= {wa - 1}
                assert weights(xa.laplace()) <= {wa - 2}
                assert weights(xa.star()) == {wa}

    def test_uv_table_rows_keep_the_weight(self):
        for k in range(7):
            for l in range(7):
                assert {p + q + 2 * d for p, q, d, _, _ in uv_table(k, l)} == {k + l}

    def test_uv_table_h_free_is_the_h_free_rows(self):
        # (U + iV)^k (U - iV)^l from binomials; past the cap no table is built
        for k in range(13):
            for l in range(13):
                assert sorted(uv_table_h_free(k, l)) == sorted(r for r in uv_table(k, l) if not r[2])
        for k, l in ((UV_TABLE_CAP + 1, 0), (UV_TABLE_CAP, 1), (10**9, 0)):
            with pytest.raises(ValueError, match=f"capped at total degree {UV_TABLE_CAP} "):
                uv_table_h_free(k, l)

    def test_uv_table_cap(self):
        # L^300 keeps its U,V order; past the cap no table is built
        assert UV_TABLE_CAP >= 300
        for k, l in ((UV_TABLE_CAP + 1, 0), (0, UV_TABLE_CAP + 1), (UV_TABLE_CAP, 1), (10**9, 0)):
            with pytest.raises(ValueError, match=f"capped at total degree {UV_TABLE_CAP} "):
                uv_table(k, l)


class TestStar:
    def test_generators(self):
        assert LAM.star() == LAM_STAR
        assert U.star() == U and V.star() == V
        assert I.star() == -I
        assert HBAR.star() == HBAR

    def test_antihomomorphism(self):
        for a, b in zip(rand_elems(2, 6), rand_elems(3, 6)):
            assert (a * b).star() == b.star() * a.star()
            assert a.star().star() == a

    def test_real_imag_parts(self):
        for a in rand_elems(4, 6):
            re, im = a.real_part(), a.imag_part()
            assert re.is_hermitian() and im.is_hermitian()
            assert re + I * im == a

    def test_real_imag_parts_match_star_oracle(self):
        # elements with mixed denominators and h-degrees
        rng = random.Random(5)
        for _ in range(20):
            a = random_weyl(rng, max_deg=4, terms=5, max_hbar=3)
            a = a + random_weyl(rng, max_deg=3, terms=2, max_hbar=1).shift_hbar(1)
            assert a.real_part() == real_part_by_star(a)
            assert a.imag_part() == imag_part_by_star(a)
        assert ZERO.real_part() == ZERO and ZERO.imag_part() == ZERO

    def test_hermitian_predicate(self):
        assert (U * V + V * U).is_hermitian()
        assert not (U * V).is_hermitian()

    def test_hermitian_predicate_matches_star(self):
        # seeded hermitian elements with h rows, each one coefficient or one
        # row away from hermitian, and zero: against X == X*
        rng = random.Random(28)
        seen = set()
        for _ in range(40):
            a = random_weyl(rng, max_deg=5, terms=6, max_hbar=2)
            h = (a + random_weyl(rng, max_deg=3, terms=2).shift_hbar(1)).real_part()
            k, l, d, *_ = rng.choice(h.rows)
            nudge = WeylElement({(k, l): HbarPoly({d: random_gauss(rng)})})
            drop = WeylElement._wrap([r for r in h.rows if r[:3] != (k, l, d)], h.den)
            extra = WeylElement({(k + 1, l): HbarPoly({d: 1})})
            for x in (h, h + nudge, drop, h + extra, h.shift_hbar(2), ZERO):
                got = x.is_hermitian()
                assert got == (x == x.star())
                seen.add(got)
        assert seen == {True, False}


class TestDerivations:
    def test_on_generators(self):
        assert LAM.derive(Direction.D) == ONE
        assert LAM.derive(Direction.DBAR) == ZERO
        assert LAM_STAR.derive(Direction.D) == ZERO
        assert LAM_STAR.derive(Direction.DBAR) == ONE
        assert U.derive(Direction.U) == ONE
        assert U.derive(Direction.V) == ZERO
        assert V.derive(Direction.V) == ONE

    def test_leibniz(self):
        for a, b in zip(rand_elems(5, 5), rand_elems(6, 5)):
            for d in Direction:
                assert (a * b).derive(d) == a.derive(d) * b + a * b.derive(d)

    def test_derivations_via_dual_commutators(self):
        # du A = [A, V]/(i h), dv A = -[A, U]/(i h),
        # holo A = [A, Ls]/(2h), anti A = -[A, L]/(2h)
        for a in rand_elems(7, 8):
            for d in Direction:
                assert a.derive(d) == derive_by_commutator(a, d)

    def test_commutation_of_flows(self):
        for a in rand_elems(8, 6):
            assert a.derive(Direction.U).derive(Direction.V) == a.derive(
                Direction.V
            ).derive(Direction.U)

    def test_laplacian_routes_agree(self):
        for a in rand_elems(9, 8):
            four_dd = a.derive(Direction.D).derive(Direction.DBAR).scale(4)
            four_dd_rev = a.derive(Direction.DBAR).derive(Direction.D).scale(4)
            uu_vv = a.derive(Direction.U).derive(Direction.U) + a.derive(
                Direction.V
            ).derive(Direction.V)
            assert a.laplace() == four_dd == four_dd_rev == uu_vv

    def test_harmonic_examples(self):
        assert (LAM**3).laplace() == ZERO
        assert (U * U - V * V).laplace() == ZERO
        assert (U * U).laplace() == ONE + ONE
        assert (LAM * LAM_STAR).laplace() == ONE.scale(4)

    def test_holomorphic_predicate(self):
        assert (LAM**4).is_holomorphic()
        assert not (LAM * LAM_STAR).is_holomorphic()


class TestSym:
    def test_small_cases(self):
        assert sym(1, 0) == U
        assert sym(1, 1) == U * V + V * U
        assert sym(2, 0) == U * U

    def test_expansion_matches_word_sum(self):
        # sym(k, l) is the sum of all distinct letter orderings
        import itertools

        for k, l in [(k, n - k) for n in range(7) for k in range(n + 1)]:
            total = ZERO
            words = set(itertools.permutations("U" * k + "V" * l))
            for word in words:
                total = total + from_uv(word)
            assert sym(k, l) == total

    def test_hermitian(self):
        for k, l in [(1, 1), (2, 2), (3, 2)]:
            assert sym(k, l).is_hermitian()


class TestMisc:
    def test_degree(self):
        assert (LAM**2 * LAM_STAR).degree() == 3
        assert ZERO.degree() == -1
        assert ONE.degree() == 0

    def test_shift_hbar(self):
        assert HBAR.shift_hbar(1) == HBAR * HBAR
        a = U * V  # contains an h term after reordering? no: U V is already ordered
        assert (HBAR * U).shift_hbar(-1) == U
        with pytest.raises(ValueError):
            U.shift_hbar(-1)

    def test_text_round_trip_smoke(self):
        from weylmin.parse import parse_weyl
        from weylmin.render import weyl_text

        for a in rand_elems(10, 10):
            assert parse_weyl(weyl_text(a)) == a
