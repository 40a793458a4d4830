"""Surface constructors, the exact verifier, conjugates and curvature."""

import random
from fractions import Fraction

import pytest

from oracles import (
    bilinear_literal,
    conjugate_components,
    ftilde_primitives_omega,
    random_gauss,
    random_poly_lambda,
    random_weyl,
    real_part_components,
    verify_minimal_always_witnessed,
)
from weylmin.holomorphic import NotIntegrableError, PolyLambda
from weylmin.parse import parse_rat, parse_weyl
from weylmin.render import surface_text
from weylmin.scalars import Flat, GaussRational, HbarPoly
from weylmin.serialize import dumps_canonical, surface_to_obj
from weylmin.surfaces import (
    NonPolynomialPrimitiveError,
    Provenance,
    Surface,
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
    surface_from_fg,
    surface_from_pair,
    verify_minimal,
    _partials,
    _surface_from_primitives,
)
from weylmin import weyl
from weylmin.weyl import Direction, U, V, WeylElement, ZERO

R = parse_rat
W = parse_weyl


def P(text) -> PolyLambda:
    return R(text).as_poly()


def hbar_poly_lambda(rng, deg: int) -> PolyLambda:
    """Degree ``deg``, every coefficient a + b h with Gaussian rationals."""
    coeffs = {k: HbarPoly({0: random_gauss(rng), 1: random_gauss(rng)}) for k in range(deg)}
    coeffs[deg] = HbarPoly({0: random_gauss(rng), 1: GaussRational(Fraction(1, 3), 1)})
    return PolyLambda(coeffs)


class TestConstructors:
    def test_enneper_is_fg_special_case(self):
        assert enneper(1).components == surface_from_fg(R("2"), R("L")).components
        assert enneper(3).components == surface_from_fg(R("2"), R("L^3")).components

    def test_enneper_printed_form(self):
        assert surface_text(enneper(1)).splitlines() == [
            "X1 = 1/2*Ls + 1/2*L - 1/6*Ls^3 - 1/6*L^3",
            "X2 = -1/2*i*Ls + 1/2*i*L - 1/6*i*Ls^3 + 1/6*i*L^3",
            "X3 = 1/2*Ls^2 + 1/2*L^2",
        ]

    def test_from_Ftilde_equals_third_derivative_route(self):
        rng = random.Random(40)
        for _ in range(10):
            ft = random_poly_lambda(rng, 6, 3)
            if ft.degree() < 2:
                continue
            via_f = surface_from_F(
                ft.derivative().derivative().derivative()
            )
            assert surface_from_Ftilde(ft).components == via_f.components

    def test_from_Ftilde_equals_omega_oracle(self):
        # the integrated-by-parts formulas, kept only in the oracle
        rng = random.Random(41)
        for deg in range(9):
            for offsets in (None, [Fraction(rng.randint(-4, 4), 3) for _ in range(3)]):
                ft = hbar_poly_lambda(rng, deg)
                s = surface_from_Ftilde(ft, offsets)
                prims = ftilde_primitives_omega(ft)
                offs = s.offsets
                assert s.provenance.primitives == prims
                assert s.components == real_part_components(prims, offs)
                ref = Surface(
                    real_part_components(prims, offs),
                    offs,
                    Provenance("Ftilde", (("Ftilde", ft),), prims),
                )
                assert dumps_canonical(surface_to_obj(s)) == dumps_canonical(surface_to_obj(ref))

    @pytest.mark.parametrize(
        "build",
        [
            lambda offs: surface_from_fg(R("1/L"), R("L"), offs),
            lambda offs: surface_from_F(R("1/(L-h)"), offs),
            lambda offs: surface_from_F(R("1/L^2"), offs),
            # the third derivative of Ft is a polynomial, so Ft always integrates
            lambda offs: surface_from_Ftilde(P("h*L^5"), offs),
        ],
    )
    def test_offsets_checked_before_integration(self, build):
        for offs, message in (([1, 2], "expected 3 offsets, got 2"), ([1, 2, "x"], "rational")):
            with pytest.raises(ValueError, match=message) as info:
                build(offs)
            assert type(info.value) is ValueError

    def test_plane(self):
        s = surface_from_fg(R("2"), R("0"))
        assert s.components == (U, -V, ZERO)

    def test_offsets_shift_constant_term(self):
        off = [Fraction(1, 2), Fraction(-1), Fraction(3)]
        s = enneper(1, off)
        plain = enneper(1)
        assert s.offsets == tuple(off)
        for a, b, c in zip(s.components, plain.components, off):
            assert a == b + WeylElement({(0, 0): c})
        assert verify_minimal(s).passes

    def test_offsets_validation(self):
        with pytest.raises(ValueError):
            enneper(1, [1, 2])

    def test_provenance_recorded(self):
        s = surface_from_F(R("24*L"))
        assert s.provenance.kind == "F"
        assert len(s.provenance.primitives) == 3
        assert dict(s.provenance.params)["F"] == R("24*L")

    def test_pair_surface(self):
        s = surface_from_pair(P("L"), P("L^2"))
        assert s.n == 4
        assert verify_minimal(s).passes

    def test_non_integrable_data_rejected(self):
        with pytest.raises(NotIntegrableError):
            surface_from_fg(R("1/L"), R("L"))

    def test_rational_primitive_out_of_scope(self):
        with pytest.raises(NonPolynomialPrimitiveError):
            surface_from_fg(R("2/L^2"), R("L^2"))


def _catalogue() -> tuple:
    return (
        enneper(1),
        enneper(2),
        surface_from_F(R("6")),
        surface_from_F(R("24*L")),
        surface_from_F(R("1+L^3")),
        surface_from_Ftilde(P("L^5")),
        surface_from_pair(P("1+L"), P("L^3")),
    )


def _broken() -> dict:
    """enneper(1) broken in each property the verifier checks."""
    s = enneper(1)
    x1, x2, x3 = s.components
    return {
        kind: Surface(comps, s.offsets, s.provenance)
        for kind, comps in (
            ("hermitian", (x1 + U * V, x2, x3)),
            ("harmonic", (x1 + U * U, x2, x3)),
            ("conformal", (U, V, x3)),
        )
    }


class TestVerify:
    def test_passes_on_catalogue(self):
        for s in _catalogue():
            rep = verify_minimal(s)
            assert rep.passes
            assert all(rep.hermitian) and all(rep.harmonic) and rep.conformal
            assert rep.witnesses == ()

    def test_broken_hermiticity_is_witnessed(self):
        rep = verify_minimal(_broken()["hermitian"])
        assert not rep.passes
        names = [name for name, _ in rep.witnesses]
        assert "hermitian:X1" in names

    def test_broken_harmonicity_is_witnessed(self):
        rep = verify_minimal(_broken()["harmonic"])
        assert not rep.passes
        assert any(name.startswith("harmonic:") for name, _ in rep.witnesses)

    def test_broken_conformality_is_witnessed(self):
        # (U, V, Re L^2): dX = (1/2, -i/2, L), so <dX, dX> = L^2 and, the
        # components being hermitian, <dbarX, dbarX> = Ls^2
        rep = verify_minimal(_broken()["conformal"])
        assert not rep.passes
        assert rep.hermitian == rep.harmonic == (True,) * 3 and not rep.conformal
        assert rep.witnesses == (("conformal:E-G", W("2*L^2 + 2*Ls^2")),
                                 ("conformal:F", W("i*L^2 - i*Ls^2")))

    def test_phi_identity(self):
        # <Phi, Phi> = E - G - 2iF, exactly
        for s in (enneper(1), enneper(2), surface_from_Ftilde(P("L^4"))):
            ff = first_fundamental(s)
            phi = phi_components(s)
            lhs = bilinear(phi, phi)
            from weylmin.scalars import GaussRational
            i_elem = WeylElement({(0, 0): GaussRational(0, 1)})
            assert lhs == ff.E - ff.G - i_elem * ff.F * 2

    def test_fundamental_quantities_hermitian(self):
        ff = first_fundamental(enneper(2))
        assert ff.E.is_hermitian() and ff.F.is_hermitian() and ff.G.is_hermitian()


class TestBilinear:
    def test_symmetric(self):
        xs = (U * V, V * V)
        ys = (U + V, U * U)
        assert bilinear(xs, ys) == bilinear(ys, xs)

    def test_hermitian_on_hermitian_inputs(self):
        xs = (U, V + U * V + V * U)
        assert bilinear(xs, xs).is_hermitian()

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            bilinear((U,), (U, V))

    @pytest.mark.parametrize("seed", range(4))
    def test_hermitian_inputs_match_literal_form(self, seed):
        rng = random.Random(200 + seed)
        for n in (1, 3, 4):
            xs = [random_weyl(rng, max_deg=3, terms=4, max_hbar=2).real_part() for _ in range(n)]
            ys = [random_weyl(rng, max_deg=3, terms=4, max_hbar=2).real_part() for _ in range(n)]
            assert bilinear(xs, ys) == bilinear_literal(xs, ys)

    def test_zero_components(self):
        xs = (ZERO, U * V + V * U, ZERO)
        ys = (U, ZERO, V)
        assert bilinear(xs, ys) == bilinear_literal(xs, ys) == ZERO
        assert bilinear((), ()) == ZERO

    def test_non_hermitian_component_uses_both_products(self):
        rng = random.Random(300)
        for _ in range(4):
            xs = [random_weyl(rng, max_deg=3, terms=4, max_hbar=2).real_part() for _ in range(3)]
            ys = [random_weyl(rng, max_deg=3, terms=4, max_hbar=2).real_part() for _ in range(3)]
            xs[1] = random_weyl(rng, max_deg=3, terms=4, max_hbar=2)
            assert not xs[1].is_hermitian()
            want = bilinear_literal(xs, ys)
            assert bilinear(xs, ys) == want
            # Re(sum x y), which equals the form only on hermitian operands, differs
            p = sum((x * y for x, y in zip(xs, ys)), ZERO)
            assert p.real_part() != want

    @pytest.mark.parametrize("seed", range(3))
    def test_operands_over_different_denominators(self, seed):
        rng = random.Random(310 + seed)
        xs = [random_weyl(rng, max_deg=3, terms=4, max_hbar=2).real_part().scale(Fraction(1, p))
              for p in (101, 103)]
        ys = [random_weyl(rng, max_deg=3, terms=4, max_hbar=2).real_part().scale(Fraction(1, p))
              for p in (107, 109)]
        assert [e.den % p for e, p in zip(xs + ys, (101, 103, 107, 109))] == [0] * 4
        assert bilinear(xs, ys) == bilinear_literal(xs, ys)  # hermitian operands
        xs[1] = random_weyl(rng, max_deg=3, terms=4, max_hbar=2).scale(Fraction(1, 103))
        assert not xs[1].is_hermitian() and xs[1].den % 103 == 0
        assert bilinear(xs, ys) == bilinear_literal(xs, ys)  # a non-hermitian operand

    @pytest.mark.parametrize("hermitian", [True, False])
    def test_every_item_cancels(self, hermitian):
        # <(x, y), (y, -x)> = (xy + yx - yx - xy)/2 = 0
        rng = random.Random(320 + hermitian)
        for _ in range(3):
            x, y = (random_weyl(rng, max_deg=3, terms=4, max_hbar=2).scale(Fraction(1, p))
                    for p in (5, 7))
            if hermitian:
                x, y = x.real_part(), y.real_part()
            else:
                assert not x.is_hermitian()
            assert bilinear((x, y), (y, -x)) == bilinear_literal((x, y), (y, -x)) == ZERO

    @pytest.mark.parametrize("hermitian", [True, False])
    @pytest.mark.parametrize("seed", range(2))
    def test_square_matches_literal_form(self, seed, hermitian, monkeypatch):
        # bilinear(xs, xs) takes one product per component; a copy of xs
        # takes the general loop, two per component, to the same element
        rng = random.Random(330 + 10 * seed + hermitian)
        calls = []
        products = weyl._products
        monkeypatch.setattr(weyl, "_products", lambda *a: calls.append(1) or products(*a))
        for n in range(5):
            xs = tuple(random_weyl(rng, max_deg=3, terms=4, max_hbar=2).scale(Fraction(1, p))
                       for p in (101, 103, 107, 101)[:n])
            if hermitian:
                xs = tuple(x.real_part() for x in xs)
            calls.clear()
            got = bilinear(xs, xs)
            assert len(calls) == n
            assert got == bilinear(xs, list(xs)) == bilinear_literal(xs, xs)
            assert len(calls) == 3 * n

    def test_surface_partials_match_literal_form(self):
        s = surface_from_pair(P("L^3 + h*L"), P("L^2"))
        xu = tuple(c.derive(Direction.U) for c in s.components)
        xv = tuple(c.derive(Direction.V) for c in s.components)
        assert bilinear(xu, xv) == bilinear_literal(xu, xv)
        assert bilinear(xu, xu) == bilinear_literal(xu, xu)


def _conformal_witnesses(s: Surface) -> list:
    return [(n, w) for n, w in verify_minimal(s).witnesses if n.startswith("conformal:")]


def _nonzero(eg: WeylElement, f: WeylElement) -> list:
    return [(n, w) for n, w in (("conformal:E-G", eg), ("conformal:F", f)) if not w.is_zero()]


def _raw(components) -> Surface:
    return Surface(tuple(components), (Fraction(0),) * len(components), Provenance("raw"))


class TestConformalIdentity:
    """verify_minimal forms E - G and F from the squares of dX and dbarX.
    Its conformal witnesses must be E - G and F of the real directions, as
    first_fundamental and the swap oracle form them, for any components,
    and the whole report that of the verifier that always forms them."""

    def witnesses_match_references(self, s: Surface) -> list:
        assert verify_minimal(s) == verify_minimal_always_witnessed(s)
        got = _conformal_witnesses(s)
        ff = first_fundamental(s)
        assert got == _nonzero(ff.E - ff.G, ff.F)
        xu, xv = (tuple(c.derive(d) for c in s.components) for d in (Direction.U, Direction.V))
        assert got == _nonzero(bilinear_literal(xu, xu) - bilinear_literal(xv, xv),
                               bilinear_literal(xu, xv))
        return got

    @pytest.mark.parametrize("hermitian", [True, False])
    @pytest.mark.parametrize("seed", range(3))
    def test_random_components(self, seed, hermitian):
        rng = random.Random(400 + 10 * seed + hermitian)
        for n in (1, 2, 3, 4):
            comps = [random_weyl(rng, max_deg=3, terms=4, max_hbar=2).scale(Fraction(1, p))
                     for p in (101, 103, 107, 101)[:n]]
            if hermitian:
                comps = [c.real_part() for c in comps]
            assert all(c.is_hermitian() for c in comps) == hermitian
            assert self.witnesses_match_references(_raw(comps))

    @pytest.mark.parametrize("build", [
        lambda: enneper(1),
        lambda: enneper(2),
        lambda: surface_from_F(R("1+L^3")),
        lambda: surface_from_Ftilde(P("L^5")),
        lambda: surface_from_pair(P("L^3 + h*L"), P("L^2")),
        lambda: surface_from_fg(R("h*(L-1-h)^2"), R("(L+2)/(L-1-h)")),
    ], ids=["enneper1", "enneper2", "F", "Ftilde", "pair", "fg-hbar"])
    def test_constructors_and_conjugates(self, build):
        s = build()
        for t in (s, conjugate_surface(s)):
            assert self.witnesses_match_references(t) == []

    @pytest.mark.parametrize("seed", range(2))
    def test_hermitian_dbar_square_is_the_star(self, seed):
        # dbarX = (dX)* for hermitian X, so <dbarX, dbarX> = <dX, dX>*
        rng = random.Random(420 + seed)
        for n in range(5):
            comps = [random_weyl(rng, max_deg=4, terms=4, max_hbar=2).real_part().scale(
                Fraction(1, p)) for p in (101, 103, 107, 101)[:n]]
            d, dbar = (tuple(c.derive(x) for c in comps) for x in (Direction.D, Direction.DBAR))
            assert bilinear(dbar, dbar) == bilinear(d, d).star() == bilinear_literal(dbar, dbar)

    def test_both_squares_are_needed(self):
        # (L, iL, Ls): the squares of dX sum to 1 + i^2 = 0, yet E - G = 2, F = -i
        s = _raw((W("L"), W("i*L"), W("Ls")))
        d = tuple(c.derive(Direction.D) for c in s.components)
        assert bilinear(d, d) == ZERO
        assert self.witnesses_match_references(s) == [
            ("conformal:E-G", W("2")), ("conformal:F", W("-i"))]


def _mixed(rng, n: int) -> list:
    """n seeded components: mixed (k, l) rows with h-degree up to 3 over mixed
    denominators, now and then zero, or i times the one before, so that the
    squares of their derivatives cancel."""
    comps: list = []
    for _ in range(n):
        roll = rng.random()
        if roll < 0.15:
            comps.append(ZERO)
        elif roll < 0.35 and comps:
            comps.append(comps[-1].scale(GaussRational(0, 1)))
        else:
            x = random_weyl(rng, max_deg=4, terms=5, max_hbar=3)
            comps.append(x.scale(Fraction(1, rng.choice((1, 3, 101, 309, 107)))))
    return comps


def _harmonic(rng) -> WeylElement:
    """A seeded component whose rows have no L and Ls together."""
    x = random_weyl(rng, max_deg=4, terms=5, max_hbar=3)
    return WeylElement({kl: c for kl, c in x.terms if 0 in kl})


class TestRowsLevelChecks:
    """verify_minimal reads lap X = 0 and the squares of dX and dbarX off the
    components' rows; each must agree with the elements it replaces."""

    @pytest.mark.parametrize("seed", range(4))
    def test_partial_squares_match_bilinear(self, seed):
        rng = random.Random(500 + seed)
        seen = set()
        for n in range(4):
            for _ in range(6):
                comps = _mixed(rng, n)
                # x and i x: squares that cancel to zero pairs
                for s in (_raw(comps), _raw(comps + [c.scale(GaussRational(0, 1)) for c in comps])):
                    for axis, direction in ((0, Direction.D), (1, Direction.DBAR)):
                        acc, den = weyl.partial_square_sum(s.components, axis)
                        want = bilinear(p := _partials(s, direction), p)
                        assert WeylElement._new(acc, den) == want
                        assert (not any(map(any, acc.values()))) == want.is_zero()
                        seen.add((bool(acc), want.is_zero()))
        assert seen == {(False, True), (True, True), (True, False)}

    @pytest.mark.parametrize("seed", range(3))
    def test_harmonic_from_rows_matches_laplace(self, seed):
        rng = random.Random(520 + seed)
        seen = set()
        for _ in range(30):
            comps = _mixed(rng, 3) + [_harmonic(rng)]
            want = tuple(c.laplace().is_zero() for c in comps)
            assert verify_minimal(_raw(comps)).harmonic == want
            seen.update(want)
        assert seen == {True, False}


class TestVerifierOracle:
    """verify_minimal decides conformality from the squares of dX and dbarX
    and forms E - G and F only as witnesses of a failure.  Its reports must
    equal those of the verifier that always forms them (random and
    (L, iL, Ls) components: TestConformalIdentity)."""

    @staticmethod
    def report(s: Surface):
        rep = verify_minimal(s)
        assert rep == verify_minimal_always_witnessed(s)
        return rep

    def test_catalogue_and_conjugates(self):
        for s in _catalogue():
            for t in (s, conjugate_surface(s)):
                assert self.report(t).passes

    def test_broken_surfaces(self):
        for kind, s in _broken().items():
            rep = self.report(s)
            assert not rep.passes
            assert any(name.startswith(kind + ":") for name, _ in rep.witnesses)

    def test_conformal_but_not_hermitian(self):
        # (L, iL, 0): both squares vanish though L and iL are not hermitian
        rep = self.report(_raw((W("L"), W("i*L"), ZERO)))
        assert rep.conformal and rep.harmonic == (True,) * 3
        assert rep.hermitian == (False, False, True) and not rep.passes
        assert [n for n, _ in rep.witnesses] == ["hermitian:X1", "hermitian:X2"]

    @pytest.mark.parametrize("seed", range(3))
    def test_seeded_raw_surfaces(self, seed):
        # hermitian or not, harmonic or not, conformal or not
        rng = random.Random(540 + seed)
        failed = set()
        for n in range(1, 5):
            for hermitian in (True, False):
                for _ in range(4):
                    comps = _mixed(rng, n) + [_harmonic(rng)]
                    if hermitian:
                        comps = [c.real_part() for c in comps]
                    rep = self.report(_raw(comps))
                    failed.update(name.split(":")[0] for name, _ in rep.witnesses)
        assert failed == {"hermitian", "harmonic", "conformal"}

    def test_pass_path_builds_no_element(self, monkeypatch):
        # every check of a passing surface is read off the rows
        surfaces = [t for s in _catalogue() for t in (s, conjugate_surface(s))]

        def refuse(*_):
            raise AssertionError("a passing surface built an element")

        for owner, name in ((Flat, "_set"), (WeylElement, "laplace"), (WeylElement, "derive")):
            monkeypatch.setattr(owner, name, refuse)
        assert all(verify_minimal(s).passes for s in surfaces)

    def test_pass_path_forms_no_witness(self, monkeypatch):
        # a hermitian surface that passes takes no star and no sum
        surfaces = [t for s in _catalogue() for t in (s, conjugate_surface(s))]

        def refuse(*_):
            raise AssertionError("a passing surface formed a witness")

        monkeypatch.setattr(WeylElement, "star", refuse)
        monkeypatch.setattr(Flat, "_add", refuse)
        assert all(verify_minimal(s).passes for s in surfaces)


class TestConjugate:
    def test_components_never_canonicalise(self, monkeypatch):
        # Re P_i of every constructor's primitives and of the conjugate's is
        # a row map that keeps the order: the canonicaliser never runs
        rng = random.Random(12)
        surfaces = (surface_from_fg(R("h*(L-1-h)^2"), R("(L+2)/(L-1-h)")),
                    surface_from_F(R("1/3*L^2 - h*L + 2")),
                    surface_from_Ftilde(hbar_poly_lambda(rng, 6)),
                    surface_from_pair(hbar_poly_lambda(rng, 3), hbar_poly_lambda(rng, 4)),
                    enneper(3))
        expected = [(s.components, conjugate_surface(s).components) for s in surfaces]

        def store(*_):
            raise AssertionError("a surface component went through the canonicaliser")

        monkeypatch.setattr(Flat, "_store", store)
        for s, (comps, conj) in zip(surfaces, expected):
            rebuilt = _surface_from_primitives(s.provenance.primitives, s.offsets, s.provenance)
            assert rebuilt.components == comps
            assert conjugate_surface(s).components == conj

    def test_cauchy_riemann(self):
        for s in (enneper(1), surface_from_F(R("1+L^3"))):
            t = conjugate_surface(s)
            for x, y in zip(s.components, t.components):
                assert x.derive(Direction.U) == y.derive(Direction.V)
                assert x.derive(Direction.V) == -y.derive(Direction.U)

    def test_conjugate_is_minimal(self):
        assert verify_minimal(conjugate_surface(enneper(2))).passes

    def test_double_conjugate_negates(self):
        s = enneper(1)
        t = conjugate_surface(conjugate_surface(s))
        assert t.components == tuple(-c for c in s.components)

    def test_matches_imag_part_oracle(self):
        rng = random.Random(42)
        minus_i = GaussRational(0, -1)
        for s in (
            surface_from_fg(R("h*(L-1-h)^2"), R("(L+2)/(L-1-h)")),
            surface_from_F(R("1/3*L^2 - h*L + 2")),
            surface_from_Ftilde(hbar_poly_lambda(rng, 6), [1, 2, 3]),
            surface_from_pair(hbar_poly_lambda(rng, 3), hbar_poly_lambda(rng, 4), [1, 0, -1, 2]),
        ):
            once = conjugate_surface(s)
            twice = conjugate_surface(once)
            for t, u in ((s, once), (once, twice)):
                assert u.components == conjugate_components(t.provenance.primitives)
                assert u.provenance.primitives == tuple(p.scale(minus_i) for p in t.provenance.primitives)
                assert u.offsets == (Fraction(0),) * s.n

    def test_conjugate_of_plane(self):
        t = conjugate_surface(surface_from_fg(R("2"), R("0")))
        assert t.components == (V, U, ZERO)

    def test_provenance_kind(self):
        t = conjugate_surface(enneper(1))
        assert t.provenance.kind == "conjugate"
        assert t.offsets == (Fraction(0),) * 3


class TestNormalAndCurvature:
    def test_normal_components(self):
        n1, n2, n3 = normal_element()
        assert n1 == U * 2
        assert n2 == V * 2
        assert n3 == U * U + V * V - WeylElement({(0, 0): 1})
        assert all(c.is_hermitian() for c in (n1, n2, n3))

    def test_tangent_orthogonality(self):
        n = normal_element()
        for f_text in ("6", "24*L", "1+L^3"):
            assert check_normal(surface_from_F(R(f_text)), n)

    def test_mean_curvature_vanishes(self):
        n = normal_element()
        for f_text in ("6", "24*L", "1+L^3"):
            assert mean_curvature_h0(surface_from_F(R(f_text)), n).is_zero()

    def test_normal_length_validation(self):
        with pytest.raises(ValueError):
            check_normal(enneper(1), (U, V))
