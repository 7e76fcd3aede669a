"""Polar curves, the polar family, and the section-2/3 theorem checks."""

import json
import math
import random
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from battery import BATTERY, DX, DY, X, Y, break_family, nonzero_int, to_sympy, vanishes_numerically
from polarweb import (
    AffinePoint,
    MPoly,
    PlaneCurve,
    RadialProduct,
    SymWeb,
    family_degree,
    family_dimension,
    polar_curve,
    polar_equality_criterion,
    polar_family,
    web_degree,
)
from polarweb import polarops
from polarweb.cli import _equality_check, run_command
from polarweb.errors import DegenerateSampleError, InternalInvariantError, WebValidationError
from polarweb.mpoly import _content_in, _rekey, _small_integers, dehomogenize, jet_decompose, shear, squarefree_part
from polarweb.parsing import parse_polynomial
from polarweb.polarops import (
    _absolute_factor_count,
    _gao_rows,
    _independent_mod_p,
    _integer_rank,
    _one_component_mod_p,
    base_points_check,
    branches_check,
    curve_component_count,
    family_degree_check,
    family_dimension_check,
    generic_polar_irreducible,
    generic_polar_singularities_check,
    inflexion_curve,
    polar_degree_check,
    radial_form,
    web_decomposable,
)
from polarweb.sampling import GenericSampler
from polarweb.solve import common_zeros
from polarweb.webmodel import binary_form_factors, form_at, is_smooth_point, singular_set

w_product = SymWeb(DX * DY)
w_radial = SymWeb(X * DY - Y * DX)
w_circles = SymWeb(X * DX + Y * DY)
w_sqrt = SymWeb(DY**2 - X * DX**2)

P0 = AffinePoint.of(0, 0)

BASE_IDENTITY = "P(x + s, y + t; x, y) = c·(-1)^k·W(x, y; s, t)"
JET_IDENTITY = "lowest (u, v)-jet of P(a, b; a + u, b + v) = c·W(a, b; u, v)"
LINEAR_IDENTITY = "P = c·(aB - bA + Ay - Bx)"
DEGREE_IDENTITY = "deg_(x,y) P(a, b; x, y) = d + k"
CENTER_FREE = "the top part of P in (x, y) is free of (a, b): deg P_p = d + k at every center"
SQUAREFREE = "W generically square-free"
PENCIL_NOTE = ("k = 1, d = 0: the leaves are the lines through a point o, perhaps at infinity, the one center "
               "of a polar through p1 and p2; P_o is all of the plane")
SPLIT = "L | E_L for L = gcd(W, E_W)"
SPLIT_NOTE = "R ≡ 0: W = L·N, P_p(L) is a union of lines through p and P_p(L) ∩ P_p(N) ⊆ Δ(W) ∪ {p}"
QUADRATIC_MONOMIALS = [(i, j) for i in range(3) for j in range(3 - i)]
CUBIC_MONOMIALS = [(i, j) for i in range(4) for j in range(4 - i)]


@st.composite
def small_webs(draw):
    """(k, coefficients): a 2- or 3-web sum a_i dx^(k-i) dy^i, each a_i of
    degree <= 2 with coefficients in [-3, 3], as {(i, j): c} dicts."""
    k = draw(st.integers(2, 3))
    coefficient = st.lists(st.integers(-3, 3), min_size=len(QUADRATIC_MONOMIALS),
                           max_size=len(QUADRATIC_MONOMIALS))
    return k, [dict(zip(QUADRATIC_MONOMIALS, draw(coefficient))) for _ in range(k + 1)]


def web_of(k, coefficients) -> SymWeb:
    form = sum((MPoly.constant(c) * X**i * Y**j * DX ** (k - n) * DY**n
                for n, terms in enumerate(coefficients) for (i, j), c in terms.items()), MPoly.zero())
    try:
        web = SymWeb(form)
    except WebValidationError:
        assume(False)  # a zero form: no web
    # SymWeb divides out a common factor of the coefficients, which the
    # sympy oracles built from `coefficients` would keep: x^2 dy^2 is dy^2
    assume(web.common_factor is None)
    return web


def check_fails(tmp_path, text, theorem):
    path = tmp_path / "input.txt"
    path.write_text(text)
    code, out = run_command(["check", "--in", str(path), "--theorem", theorem, "--samples", "2"])
    assert code == 1, out


class TestPolarCurve:
    def test_radial_web_gives_line_through_center_and_origin(self):
        p = AffinePoint.of(3, 5)
        curve = polar_curve(w_radial, p)
        assert curve.defining == (3 * Y - 5 * X).canonical()

    def test_circle_pencil(self):
        curve = polar_curve(w_circles, AffinePoint.of(Fraction(1), Fraction(2)))
        assert curve.defining == (X**2 + Y**2 - X - 2 * Y).canonical()
        assert curve.degree == 2

    def test_product_web(self):
        curve = polar_curve(w_product, AffinePoint.of(1, 2))
        assert curve.defining == ((X - 1) * (Y - 2)).canonical()

    def test_whole_plane_detection(self):
        result = polar_curve(w_radial, P0)
        assert isinstance(result, RadialProduct)
        assert result.cofactor_form.is_constant()

    def test_whole_plane_cofactor_web(self):
        web = SymWeb(w_radial.form * DX)
        result = polar_curve(web, P0)
        assert isinstance(result, RadialProduct)
        assert result.cofactor_form.canonical() == DX.canonical()

    @given(st.sampled_from(BATTERY), st.fractions(-9, 9, max_denominator=12),
           st.fractions(-9, 9, max_denominator=12))
    @settings(max_examples=60, deadline=None)
    def test_rational_center_over_a_common_denominator(self, entry, a, b):
        # the substitution on ints gives the polynomial that dx -> x - a,
        # dy -> y - b gives on Fractions, term for term and in the same order
        got = polarops._substitute_center(entry.web.form, a, b)
        ref = entry.web.form.substitute({"dx": X - a, "dy": Y - b})
        assert got == ref and list(got.terms) == list(ref.terms)

    @given(st.sampled_from(BATTERY), st.sampled_from([None, "dx", "dy"]),
           st.one_of(st.none(), st.tuples(st.fractions(-9, 9, max_denominator=12),
                                          st.fractions(-9, 9, max_denominator=12))))
    @settings(max_examples=120, deadline=None)
    def test_the_binomial_kernel_is_substitute_term_for_term(self, entry, derivative, center):
        # for W, W_dx and W_dy, at the symbolic center and at rational ones
        form = entry.web.form.derivative(derivative) if derivative else entry.web.form
        a, b = center if center is not None else (polarops.A_VAR, polarops.B_VAR)
        got = polarops._substitute_center(form, a, b)
        ref = form.substitute({"dx": X - a, "dy": Y - b})
        assert got == ref and list(got.terms) == list(ref.terms)

    @pytest.mark.parametrize("center", [None, (Fraction(1, 2), Fraction(-2, 3)), (0, 1)])
    def test_a_sum_that_cancels_comes_back_last(self, center):
        # x^2*y^2 gets +1, -1, +1 from the three terms: deleted, then added
        # again after every other monomial
        form = Y**2 * DX**2 - X * Y * DX * DY + X**2 * DY**2
        a, b = center if center is not None else (polarops.A_VAR, polarops.B_VAR)
        got = polarops._substitute_center(form, a, b)
        ref = form.substitute({"dx": X - a, "dy": Y - b})
        assert got == ref and list(got.terms) == list(ref.terms)
        if center is None:
            assert list(got.terms)[-2] == (0, 0, 2, 2)

    def test_no_polar_takes_substitute(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("MPoly.substitute called")

        monkeypatch.setattr(MPoly, "substitute", refuse)
        p = AffinePoint.of(Fraction(1, 2), Fraction(-2, 3))
        for entry in BATTERY:
            polar_family(entry.web)
            polar_curve(entry.web, p)
            assert polarops.polar_equality_check(entry.web).passed
            assert family_dimension(entry.web) in (1, 2)

    def test_product_rule_exact(self):
        # P_p(W1 x W2) = P_p(W1) * P_p(W2), exact identity up to normalization
        sampler = GenericSampler(11)
        pairs = [(w_circles, w_sqrt), (w_product, w_circles), (w_radial, w_sqrt)]
        for w1, w2 in pairs:
            web = SymWeb(w1.form * w2.form)
            p = AffinePoint(*sampler.point())
            c = polar_curve(web, p)
            c1 = polar_curve(w1, p)
            c2 = polar_curve(w2, p)
            assert c.raw == (c1.raw * c2.raw).canonical()


class TestPolarDegree:
    # the battery webs whose polar loses degree at some center: the radial
    # center, where the polar of the radial factor vanishes identically
    DROPS = ("radial pencil", "radial x vertical", "triple product (k=3)")

    @pytest.mark.parametrize("entry", BATTERY, ids=lambda e: e.name)
    def test_battery_degree(self, entry):
        report = polar_degree_check(entry.web)
        assert report.passed, report.render_text()
        assert [a.name for a in report.assertions] == [DEGREE_IDENTITY]
        assert report.samples_requested == report.samples_used == 0
        if entry.name in self.DROPS:
            assert report.notes == ["deg P_p < d + k at center (0, 0) [exact]"]
        else:
            assert report.notes == [CENTER_FREE]

    @pytest.mark.parametrize("entry", BATTERY, ids=lambda e: e.name)
    def test_sampled_degree_matches_the_locus(self, entry):
        # the oracle of the deleted sampling loop: at seeded centers, and at
        # the origin, the raw polar has degree d + k exactly off the common
        # zeros of the top coefficients
        d_k = web_degree(entry.web) + entry.web.k
        _, coefficients = polarops.polar_top(entry.web)
        sampler = GenericSampler(5)
        for p in [sampler.center() for _ in range(6)] + [P0, AffinePoint.of(1, -1)]:
            off_locus = any(c.evaluate({"x": p.a, "y": p.b}) for c in coefficients)
            degree = polarops._substitute_center(entry.web.form, p.a, p.b).total_degree()
            assert (degree == d_k) == off_locus, (p, degree)

    def test_a_lower_degree_fails(self, monkeypatch):
        monkeypatch.setattr(polarops, "web_degree", lambda web: 2)
        report = polar_degree_check(w_sqrt)
        assert [(a.passed, a.detail) for a in report.assertions] == [(False, "degree 3, d=2, k=2")]

    def test_a_top_part_with_a_constant_coefficient(self):
        # (x*dy - y*dx)*dx + dy^2: the top part (a*y - b*x)*x + y^2 moves
        # with the center, but its coefficient at y^2 is 1
        report = polar_degree_check(SymWeb((X * DY - Y * DX) * DX + DY**2))
        assert report.passed and report.notes == [
            "the top coefficients of P in (x, y) have no common zero: deg P_p = d + k at every center"]

    def test_sqrt_web_cubic(self):
        curve = polar_curve(w_sqrt, AffinePoint.of(3, 7))
        assert curve.raw_degree == 3


class TestPolarEquality:
    def test_constructed_pair(self):
        w2 = SymWeb(w_sqrt.form + (X * DY - Y * DX) * DX)
        v = polar_equality_criterion(w_sqrt, w2, P0)
        assert v.polars_equal and v.divisible and v.routes_agree
        assert v.quotient_form == DX.canonical()

    def test_perturbed_pair(self):
        w2 = SymWeb(DX * DY + DX**2)
        v = polar_equality_criterion(w_product, w2, P0)
        assert not v.polars_equal and not v.divisible and v.routes_agree

    def test_identical(self):
        v = polar_equality_criterion(w_product, w_product, P0)
        assert v.identical

    def test_scaled_forms_still_agree(self):
        w2 = SymWeb(MPoly.constant(3) * w_sqrt.form + (X * DY - Y * DX) * DX)
        v = polar_equality_criterion(w_sqrt, w2, P0)
        # polars differ (scaling changes the sum), but routes must agree
        assert v.routes_agree

    @pytest.mark.parametrize("entry", BATTERY, ids=lambda e: e.name)
    def test_congruence_on_battery(self, entry):
        # one division per monomial dx^i·dy^(k-i), one for W; no sample
        report = _equality_check(entry.web)
        assert report.passed, report.render_text()
        k = entry.web.k
        assert [a.name.rsplit(" = ", 1)[1] for a in report.assertions] == [
            str(DX ** i * DY ** (k - i)) for i in range(k, -1, -1)] + ["W"]
        assert report.samples_requested == report.samples_used == 0

    @pytest.mark.parametrize("entry", [e for e in BATTERY if e.web.form != DX**e.web.k], ids=lambda e: e.name)
    def test_sampled_pairs_agree_on_battery(self, entry):
        # the oracle of the deleted sampling loop, on every web whose dx^k
        # perturbation is not a multiple of W
        verdicts = sampled_equality_verdicts(entry.web, seed=5, rounds=3)
        assert len(verdicts) == 3
        for constructed, perturbed in verdicts:
            assert constructed.polars_equal and constructed.divisible and constructed.routes_agree
            assert not perturbed.polars_equal and not perturbed.divisible and perturbed.routes_agree

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_a_power_of_dx_passes(self, tmp_path, k):
        # W + c·dx^k is a multiple of W = dx^k, which the sampled perturbed
        # pair took for a counterexample
        path = tmp_path / "web.txt"
        path.write_text(f"type: web\nform: dx^{k}\n")
        code, out = run_command(["check", "--in", str(path), "--theorem", "polar-equality", "--seed", "1"])
        assert code == 0, out


def sampled_equality_verdicts(web: SymWeb, seed: int, rounds: int) -> list:
    """The oracle of the deleted `polar-equality` sampling loop: at up to
    `rounds` seeded centers p, the verdicts of `polar_equality_criterion` on
    W against the constructed W + R_p·β·dx^(k-2), β = c·dx or c·dy (c for
    k = 1), and against the perturbed W + c·dx^k.  A center whose forms are
    not both valid webs of degree k is skipped."""
    sampler = GenericSampler(seed)
    out = []
    for _ in range(50 * rounds):
        p = sampler.center()
        beta = MPoly.constant(nonzero_int(sampler)) * ((DX if sampler.rng.random() < 0.5 else DY)
                                                        if web.k >= 2 else 1)
        try:
            constructed = SymWeb(web.form + radial_form(p) * beta * DX ** max(web.k - 2, 0))
            perturbed = SymWeb(web.form + MPoly.constant(nonzero_int(sampler)) * DX**web.k)
        except WebValidationError:
            continue
        if constructed.k == web.k:
            out.append((polar_equality_criterion(web, constructed, p), polar_equality_criterion(web, perturbed, p)))
        if len(out) == rounds:
            break
    return out


class TestPolarFamily:
    def test_product_parametric(self):
        fam = polar_family(w_product)
        a, b = MPoly.variable("a"), MPoly.variable("b")
        assert fam.parametric == ((X - a) * (Y - b)).canonical()

    def test_circle_parametric(self):
        fam = polar_family(w_circles)
        a, b = MPoly.variable("a"), MPoly.variable("b")
        assert fam.parametric == (X**2 + Y**2 - a * X - b * Y).canonical()

    def test_radial_parametric(self):
        fam = polar_family(w_radial)
        a, b = MPoly.variable("a"), MPoly.variable("b")
        assert fam.parametric == (a * Y - b * X).canonical()

    def test_excluded_center_recorded(self):
        # the polar vanishes identically at the center of the radial pencil
        fam = polar_family(w_radial)
        assert fam.parametric.substitute({"a": P0.a, "b": P0.b}).is_zero()
        assert isinstance(polar_curve(w_radial, P0), RadialProduct)


class TestBasePoints:
    def test_circle_pencil(self):
        zs = singular_set(w_circles)
        assert zs.rational == [P0] and not zs.numeric

    def test_product_empty(self):
        zs = singular_set(w_product)
        assert not zs.rational and not zs.numeric

    def test_radial(self):
        assert singular_set(w_radial).rational == [P0]

    @pytest.mark.parametrize("entry", BATTERY, ids=lambda e: e.name)
    def test_contained_in_singular_set(self, entry):
        report = base_points_check(entry.web)
        assert report.passed, report.render_text()
        assert [a.name for a in report.assertions] == [BASE_IDENTITY]

    def test_lists_the_singular_set(self):
        report = base_points_check(w_circles)
        assert report.notes == ["base point (0, 0) [exact]"]
        assert base_points_check(w_product).notes == ["base locus: empty"]

    @given(small_webs())
    @settings(max_examples=15, deadline=None)
    def test_identity_matches_sympy(self, drawn):
        sympy = pytest.importorskip("sympy")
        x, y, a, b, s, t = sympy.symbols("x y a b s t")
        k, coefficients = drawn
        web = web_of(k, coefficients)
        coeffs = [sum((c * x**i * y**j for (i, j), c in terms.items()), sympy.Integer(0)) for terms in coefficients]
        P = sympy.expand(sum(c * (x - a) ** (k - n) * (y - b) ** n for n, c in enumerate(coeffs)))
        # the coefficient of P at a^(k-i) b^i is (-1)^k a_i, and at a = x + s,
        # b = y + t the polar is (-1)^k times the form at (x, y) on (s, t)
        in_center = sympy.Poly(P, a, b)
        for n, c in enumerate(coeffs):
            assert sympy.expand(in_center.coeff_monomial(a ** (k - n) * b**n) - (-1) ** k * c) == 0
        shifted = sympy.expand(P.subs({a: x + s, b: y + t}, simultaneous=True))
        assert shifted == sympy.expand((-1) ** k * sum(c * s ** (k - n) * t**n for n, c in enumerate(coeffs)))
        # polarweb's family is P up to a constant, and its identity holds
        ours, theirs = (sympy.Poly(f, x, y, a, b) for f in (to_sympy(sympy, polar_family(web).parametric), P))
        assert (ours - theirs * (ours.LC() / theirs.LC())).is_zero
        report = base_points_check(web)
        assert report.passed and [a.name for a in report.assertions] == [BASE_IDENTITY]

    def test_a_broken_family_fails(self, monkeypatch, tmp_path):
        break_family(monkeypatch)
        report = base_points_check(w_sqrt)
        assert [(a.name, a.passed, a.detail) for a in report.assertions] == [
            (BASE_IDENTITY, False, "not a constant multiple of the form")]
        assert not report.passed
        check_fails(tmp_path, "type: web\nform: dy^2 - x*dx^2\n", "base-points")


class TestFamilyDegree:
    def test_product_web_example(self):
        # two centers at infinity, the common leaf directions (1:0) and (0:1)
        assert family_degree(w_product, P0, AffinePoint.of(1, 2)) == (4, 2)

    @pytest.mark.parametrize("form", [DX, DY, DX - 2 * DY, X * DY - Y * DX], ids=str)
    def test_a_pencil_of_lines_is_noted(self, form):
        # parallel lines have their point o at infinity
        report = family_degree_check(SymWeb(form))
        assert report.passed and report.notes == [PENCIL_NOTE]

    def test_foliation_single_point(self):
        assert family_degree(w_circles, AffinePoint.of(1, 1), AffinePoint.of(2, -1)) == (1, 0)

    def test_sqrt_web_four(self):
        assert family_degree(w_sqrt, AffinePoint.of(1, 1), AffinePoint.of(4, -1)) == (4, 0)

    def test_coincident_tangent_lines(self):
        # the line through both points is a leaf line at each of them
        with pytest.raises(DegenerateSampleError, match="coincident"):
            family_degree(w_product, P0, AffinePoint.of(1, 0))

    def test_pairs_meeting_in_one_point(self):
        # the line through both points is a leaf line at (1, 0) only, so
        # both leaf lines at (2, 1) meet it in (2, 1)
        with pytest.raises(DegenerateSampleError, match="two tangent-line pairs"):
            family_degree(w_sqrt, AffinePoint.of(1, 0), AffinePoint.of(2, 1))

    def test_foliation_line_through_both_points(self):
        # k = 1: the leaf line at (1, 0) passes through (1, 1) and meets the
        # one there in (1, 1), a single center
        assert family_degree(w_circles, AffinePoint.of(1, 0), AffinePoint.of(1, 1)) == (1, 0)

    def test_singular_point(self):
        with pytest.raises(DegenerateSampleError, match="not smooth"):
            family_degree(w_circles, P0, AffinePoint.of(1, 1))

    @pytest.mark.parametrize("entry", BATTERY, ids=lambda e: e.name)
    def test_k_squared_on_battery(self, entry):
        # the identity and square-freeness decide it with no sample; the
        # deleted sampling loop's count is the oracle
        report = family_degree_check(entry.web)
        assert report.passed, report.render_text()
        assert [a.name for a in report.assertions] == [BASE_IDENTITY, SQUAREFREE]
        assert report.mode == "exact" and report.samples_requested == report.samples_used == 0
        if entry.is_radial_pencil:
            # the one polar through two points is centered at the origin,
            # and it is the whole plane
            assert report.notes == [PENCIL_NOTE]
            assert isinstance(polar_curve(entry.web, P0), RadialProduct)
            return
        k = entry.web.k
        assert report.notes[-1].endswith(f"lie on k² = {k * k} polars")
        counts = sampled_family_degrees(entry.web, seed=9, pairs=2)
        assert len(counts) == 2 and all(count == k * k for count, _ in counts)

    @pytest.mark.parametrize("entry", [e for e in BATTERY if not e.is_radial_pencil], ids=lambda e: e.name)
    def test_count_matches_sympy(self, entry):
        sympy = pytest.importorskip("sympy")
        a, b, x, y = sympy.symbols("a b x y")
        sampler = GenericSampler(3)
        while True:
            p1, p2 = sampler.center(), sampler.center()
            try:
                count, at_infinity = family_degree(entry.web, p1, p2)
                break
            except DegenerateSampleError:
                continue
        # P(a, b; p): the form at p on p minus the center
        form = to_sympy(sympy, entry.web.form)
        polars = []
        for p in (p1, p2):
            px, py = sympy.Rational(p.a), sympy.Rational(p.b)
            at = {x: px, y: py, sympy.Symbol("dx"): px - a, sympy.Symbol("dy"): py - b}
            polars.append(sympy.Poly(sympy.expand(form.subs(at, simultaneous=True)), a, b))
        affine = sympy.solve_poly_system([f.as_expr() for f in polars], a, b)
        k = entry.web.k
        tops = [sympy.Poly(sum(c * a**i * b**j for (i, j), c in f.terms() if i + j == k), a, b) for f in polars]
        common = sympy.gcd(*tops).total_degree()
        assert (len(set(affine)) + common, common) == (count, at_infinity)

    def test_a_broken_family_fails(self, monkeypatch, tmp_path):
        break_family(monkeypatch)
        report = family_degree_check(w_sqrt)
        assert [(a.passed, a.detail) for a in report.assertions if a.name == BASE_IDENTITY] == [
            (False, "not a constant multiple of the form")]
        assert not report.passed
        check_fails(tmp_path, "type: web\nform: dy^2 - x*dx^2\n", "k2")

    def test_a_repeated_factor_fails(self, tmp_path):
        # dx^2 has no smooth point, so no pair of points has k^2 centers
        report = family_degree_check(SymWeb(DX**2))
        assert [(a.name, a.passed) for a in report.assertions] == [(BASE_IDENTITY, True), (SQUAREFREE, False)]
        assert report.notes == []
        check_fails(tmp_path, "type: web\nform: dx^2\n", "k2")


def sampled_family_degrees(web: SymWeb, seed: int, pairs: int) -> list[tuple[int, int]]:
    """The oracle of the deleted `k2` sampling loop: `family_degree` at up to
    `pairs` seeded pairs of distinct points that its incidence rule admits."""
    sampler = GenericSampler(seed)
    out = []
    for _ in range(50 * pairs):
        p1, p2 = sampler.center(), sampler.center()
        try:
            if p1 != p2:
                out.append(family_degree(web, p1, p2))
        except DegenerateSampleError:
            continue
        if len(out) == pairs:
            break
    return out


def sampled_family_dimension(web: SymWeb, seed: int = 0, samples: int = 5) -> int:
    """Reference: the family dimension as it was estimated before the grid,
    the largest projective rank at up to five seeded centers (a lower bound
    on the exact value)."""
    P = polar_family(web).parametric
    maps = [P, P.derivative("a"), P.derivative("b")]
    sampler = GenericSampler(seed)
    best = 0
    for _ in range(samples):
        a0, b0 = sampler.point()
        center = {"a": MPoly.constant(a0), "b": MPoly.constant(b0)}
        scaled = []
        for f in maps:
            row = _rekey(f.substitute({v: c for v, c in center.items() if v in f.variables}), ("x", "y"))
            den = math.lcm(*(v.denominator for v in row.values()))
            scaled.append({j: v.numerator * (den // v.denominator) for j, v in row.items()})
        best = max(best, _integer_rank(scaled) - 1)
        if best == 2:
            break
    return best


class TestFamilyDimension:
    def test_radial_is_a_line_of_curves(self):
        assert family_dimension(w_radial) == 1

    def test_circle_pencil(self):
        assert family_dimension(w_circles) == 2

    def test_product(self):
        assert family_dimension(w_product) == 2

    @pytest.mark.parametrize("entry", BATTERY, ids=lambda e: e.name)
    def test_battery(self, entry):
        report = family_dimension_check(entry.web)
        assert report.passed, report.render_text()

    @pytest.mark.parametrize("entry", BATTERY, ids=lambda e: e.name)
    def test_matches_sampled_centers_on_battery(self, entry):
        assert family_dimension(entry.web) == sampled_family_dimension(entry.web, seed=4)

    def test_scan_moves_past_a_vanishing_polar(self):
        # the polar of (x*dy - y*dx)*dx vanishes at the first grid point (0, 0)
        web = SymWeb((X * DY - Y * DX) * DX)
        assert isinstance(polar_curve(web, P0), RadialProduct)
        assert family_dimension(web) == 2

    def test_exact_invariants_draw_nothing(self, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("drew a random number")

        monkeypatch.setattr(random.Random, "randint", no_draw)
        monkeypatch.setattr(random.Random, "random", no_draw)
        web = SymWeb(Y * DX**2 + X * DY**2 + DX * DY)
        assert web_degree(web) == 1
        assert family_dimension(web) == 2


class TestSingularLocus:
    @pytest.mark.parametrize("entry", BATTERY, ids=lambda e: e.name)
    def test_containment(self, entry):
        report = generic_polar_singularities_check(entry.web)
        assert report.passed, report.render_text()

    def test_foliation_is_an_identity(self):
        # the center of the circle pencil has a nonzero linear part, the
        # origin of x^2 d/dx + y^2 d/dy none
        report = generic_polar_singularities_check(w_circles)
        assert report.samples_used == 0
        assert [(a.name, a.passed) for a in report.assertions] == [(LINEAR_IDENTITY, True)]
        assert report.notes[-1].endswith(": empty, the generic polar is smooth")
        report = generic_polar_singularities_check(SymWeb.of_field(X**2, Y**2))
        assert report.passed and report.notes[-1].endswith(": (0, 0) [exact]")

    @pytest.mark.parametrize("A, B", [(X, Y), (MPoly.constant(2), MPoly.constant(-3)), (X - 2, Y + 3)],
                             ids=["radial", "parallel", "radial at (2, -3)"])
    def test_foliation_of_lines_is_an_identity(self, A, B):
        # E ≡ 0: the leaves are a pencil, every polar is a line through its
        # center or zero, and Z is empty; no sample
        report = generic_polar_singularities_check(SymWeb.of_field(A, B))
        assert report.passed and report.samples_requested == report.samples_used == 0
        assert [a.name for a in report.assertions] == [LINEAR_IDENTITY, "E ≡ 0: deg_(x,y) P(a, b; x, y) = 1"]
        assert report.notes == ["generic Sing(P_p) = V(A, B, A_x, A_y, B_x, B_y) ⊆ Sing(W): empty, "
                                "the generic polar is smooth"]

    def test_web_is_an_identity(self):
        # R ≢ 0 on the sqrt web: no sample, the identity and a nonzero value of
        # R; after the shear dx -> dx + dy, R = 4x vanishes at (0, 0), (0, 1),
        # (0, -1) and w's dy-leading coefficient 1 - x at (1, 0), (1, 1), (1, -1)
        report = generic_polar_singularities_check(w_sqrt)
        assert [(a.name, a.passed) for a in report.assertions] == [(BASE_IDENTITY, True)]
        assert report.samples_used == 0
        assert report.notes == ["R = Res_(dx:dy)(W, W_x·W_dy - W_y·W_dx) ≢ 0, R(q) = -4 at q = (-1, 0): a point "
                                "off Δ(W) ∪ Sing(W) is singular on at most k polars with other centers, "
                                "and only on R = 0"]
        assert inflexion_curve(w_sqrt) == 4 * X

    def test_web_of_lines_is_sampled(self):
        # R ≡ 0 for dx*dy, and E_W ≡ 0, so L = W: no sample in the check,
        # and the deleted sampled path, the oracle, finds only the centers
        report = generic_polar_singularities_check(w_product)
        assert report.passed and report.samples_used == 0
        assert [(a.name, a.detail) for a in report.assertions] == [
            (BASE_IDENTITY, "c = 1"), (SPLIT, "L = dx*dy: every leaf of L is a line")]
        assert report.notes == [SPLIT_NOTE, "N is a constant: W = L"]
        assert sampled_polar_singularities(w_product, seed=6, samples=4) == (4, [])

    @given(st.lists(st.integers(-3, 3), min_size=2 * len(CUBIC_MONOMIALS), max_size=2 * len(CUBIC_MONOMIALS)),
           st.booleans())
    @settings(max_examples=12, deadline=None)
    def test_foliation_matches_sympy(self, drawn, planted):
        # A and B of degree <= 3, both in the square of the maximal ideal of
        # q = (1/2, -1/3) when planted, so that the generic polar is singular at q
        sympy = pytest.importorskip("sympy")
        x, y = sympy.symbols("x y")
        r, s = Fraction(1, 2), Fraction(-1, 3)
        monomials = [(i, j) for i, j in CUBIC_MONOMIALS if not planted or i + j >= 2]
        fields = []
        for cs in (drawn[:len(CUBIC_MONOMIALS)], drawn[len(CUBIC_MONOMIALS):]):
            base = (X - r, Y - s) if planted else (X, Y)
            fields.append(sum((c * base[0] ** i * base[1] ** j for (i, j), c in zip(monomials, cs)), MPoly.zero()))
        assume(not fields[0].is_zero() or not fields[1].is_zero())
        fol = SymWeb.of_field(*fields)
        assume(fol.common_factor is None and not polarops.inflexion_of_field(*fol.field).is_zero())
        report = generic_polar_singularities_check(fol)
        assert report.passed and [a.name for a in report.assertions] == [LINEAR_IDENTITY]
        listed = [n.rsplit(": ", 1)[1] for n in report.notes if n.endswith("]")]
        assume(len(listed) <= 1)
        if planted:
            assert listed == ["(1/2, -1/3) [exact]"]
        # sympy: the singular points of the polar at one center
        A, B = (to_sympy(sympy, f) for f in fol.field)
        a, b = sympy.Rational(3, 7), sympy.Rational(-5, 11)
        P = sympy.expand(A * (y - b) - B * (x - a))
        G = sympy.groebner([P, P.diff(x), P.diff(y)], x, y, order="grevlex")
        if not listed:
            assert list(G) == [1]
        else:
            q = [sympy.Rational(v) for v in listed[0][1:-len(") [exact]")].split(", ")]
            assert list(G) != [1]
            assert G.contains((x - q[0]) ** 4) and G.contains((y - q[1]) ** 4)

    def test_a_broken_family_fails(self, monkeypatch, tmp_path):
        break_family(monkeypatch)
        report = generic_polar_singularities_check(w_circles)
        assert [(a.name, a.passed) for a in report.assertions] == [(LINEAR_IDENTITY, False)]
        assert not report.passed
        check_fails(tmp_path, "type: foliation\nA: x^2\nB: y^2\n", "sing-locus")
        # a web with R ≢ 0 rests on the identity of base-points
        report = generic_polar_singularities_check(w_sqrt)
        assert [(a.name, a.passed) for a in report.assertions] == [(BASE_IDENTITY, False)]
        check_fails(tmp_path, "type: web\nform: dy^2 - x*dx^2\n", "sing-locus")

    def test_product_node_at_center(self):
        p = AffinePoint.of(2, 3)
        curve = polar_curve(w_product, p)
        F = curve.defining
        assert F.evaluate(p.as_dict()) == 0
        assert F.derivative("x").evaluate(p.as_dict()) == 0
        assert F.derivative("y").evaluate(p.as_dict()) == 0


def sympy_inflexion_curve(sympy, web: SymWeb):
    """Res_(dx:dy)(W, W_x·W_dy - W_y·W_dx) by sympy: both forms sheared by
    dx -> dx + c·dy for the first c in 3, 4, ... that keeps their dy-degrees,
    then dehomogenized at dx = 1.  The shear has determinant 1, so it does
    not change the resultant.  `sympy.resultant` has the wrong sign when
    both degrees are odd and the first is the smaller, so it is taken as
    (-1)^(k(2k - 1))·Res(E_W, W)."""
    x, y, dx, dy = sympy.symbols("x y dx dy")
    W = to_sympy(sympy, web.form)
    E = sympy.expand(W.diff(x) * W.diff(dy) - W.diff(y) * W.diff(dx))
    if E == 0:
        return sympy.Integer(0)
    for c in range(3, 3 + 4 * web.k):
        w, e = (sympy.expand(f.subs(dx, dx + c * dy, simultaneous=True).subs(dx, 1)) for f in (W, E))
        if sympy.degree(w, dy) == web.k and sympy.degree(e, dy) == 2 * web.k - 1:
            return sympy.expand((-1) ** (web.k * (2 * web.k - 1)) * sympy.resultant(e, w, dy))
    raise AssertionError("no shear keeps both degrees")


def seed_one_web_jobs(count: int = 30):
    """(web, seed) of the `sing-locus` jobs on the first `count` 2-webs of the
    seed-1 `exact-checks` benchmark inputs."""
    from body_digests import jobs
    from polarweb.parsing import parse_input_text

    out = []
    for _, text, args in jobs("exact-checks", 1, 3 * count):
        if text.startswith("type: web") and args[2] == "sing-locus":
            obj, _ = parse_input_text(text)
            out.append((obj, int(args[args.index("--seed") + 1])))
    return out


R_NONZERO = [e for e in BATTERY if not inflexion_curve(e.web).is_zero()]
# (W, its line factor L, the rest N): planted webs with R ≡ 0 that are not
# webs of lines
MIXED_WEBS = [
    (DX * w_sqrt.form, DX, w_sqrt.form),
    ((X * DY - Y * DX) * w_circles.form, X * DY - Y * DX, w_circles.form),
    (DY * w_circles.form, DY, w_circles.form),
    ((X * DY - Y * DX) * w_sqrt.form, X * DY - Y * DX, w_sqrt.form),
]


def sampled_polar_singularities(web: SymWeb, seed: int, samples: int) -> tuple[int, list]:
    """The oracle of the deleted sampled `sing-locus` path: (centers used,
    violations) over up to `samples` seeded centers p off the radial
    centers, Sing(W) and Δ(W).  A violation is a singular point of the
    reduced polar P_p that is neither p nor in Δ(W) ∪ Sing(W), tested
    exactly at a rational point and by residual (`vanishes_numerically`) at
    any other."""
    sing, disc = singular_set(web), web.discriminant_form

    def in_locus(point, numeric):
        vanishes = (lambda f: vanishes_numerically(f, point)) if numeric else (lambda f: f.evaluate(point) == 0)
        return (not disc.is_constant() and vanishes(disc)) or all(vanishes(g) for g in sing.generators)

    sampler, used, bad = GenericSampler(seed), 0, []
    for _ in range(50 * samples):
        p = sampler.center()
        curve = polar_curve(web, p)
        if isinstance(curve, RadialProduct) or in_locus(p.as_dict(), False):
            continue
        F = curve.defining
        zs = common_zeros([F, F.derivative("x"), F.derivative("y")])
        bad += [q for q in zs.rational if AffinePoint(*q) != p and not in_locus({"x": q[0], "y": q[1]}, False)]
        bad += [q for q in zs.numeric if max(abs(q[0] - complex(p.a)), abs(q[1] - complex(p.b))) >= 1e-8
                and not in_locus({"x": q[0], "y": q[1]}, True)]
        used += 1
        if used == samples:
            break
    return used, bad


def cubic_fields(draw_coefficients):
    """(A, B) of cubic degree from 2·len(CUBIC_MONOMIALS) drawn coefficients."""
    n = len(CUBIC_MONOMIALS)
    return tuple(sum((c * X**i * Y**j for (i, j), c in zip(CUBIC_MONOMIALS, cs)), MPoly.zero())
                 for cs in (draw_coefficients[:n], draw_coefficients[n:]))


class TestInflexionVanishes:
    """E ≢ 0 is read from one nonzero value on {0, 1, -1}^2; E is expanded
    only when all nine values vanish."""

    @pytest.mark.parametrize("entry", [e for e in BATTERY if e.foliation is not None], ids=lambda e: e.name)
    def test_battery(self, entry):
        A, B = entry.foliation.field
        assert polarops.inflexion_vanishes(A, B) == polarops.inflexion_of_field(A, B).is_zero()

    @given(st.lists(st.integers(-2, 2), min_size=2 * len(CUBIC_MONOMIALS), max_size=2 * len(CUBIC_MONOMIALS)),
           st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_matches_the_expanded_E(self, drawn, c, x0, y0, pencil):
        # a pencil, c·(x - x0, y - y0) or the constant (c, x0), has E ≡ 0
        if pencil:
            A, B = (c * (X - x0), c * (Y - y0)) if c else (MPoly.constant(x0), MPoly.constant(y0))
        else:
            A, B = cubic_fields(drawn)
        assert polarops.inflexion_vanishes(A, B) == polarops.inflexion_of_field(A, B).is_zero()

    def test_the_radial_pencil(self):
        assert polarops.inflexion_vanishes(X, Y)

    def test_a_planted_E_that_vanishes_on_the_grid(self, monkeypatch):
        # A = 1, B = y^3 - y: E = -B·B_y, zero at y = 0, 1, -1 but not zero
        calls = _count_calls(monkeypatch, "inflexion_of_field")
        A, B = MPoly.constant(1), Y**3 - Y
        assert not polarops.inflexion_of_field(A, B).is_zero()
        calls.clear()
        assert not polarops.inflexion_vanishes(A, B)
        assert len(calls) == 1

    def test_one_nonzero_value_expands_nothing(self, monkeypatch):
        calls = _count_calls(monkeypatch, "inflexion_of_field")
        A, B = parse_polynomial(DENSE_FOLIATIONS[3][0]), parse_polynomial(DENSE_FOLIATIONS[3][1])
        assert not polarops.inflexion_vanishes(A, B)
        assert calls == []


class TestInflexionCurve:
    # sing-locus on a web with k >= 2 is decided by R = Res_(dx:dy)(W, E_W),
    # E_W = W_x·W_dy - W_y·W_dx, when R ≢ 0

    @given(st.lists(st.integers(-3, 3), min_size=2 * len(CUBIC_MONOMIALS), max_size=2 * len(CUBIC_MONOMIALS)))
    @settings(max_examples=15, deadline=None)
    def test_foliation_form_at_the_leaf_direction_is_E(self, drawn):
        sympy = pytest.importorskip("sympy")
        x, y = sympy.symbols("x y")
        n = len(CUBIC_MONOMIALS)
        A, B = (sum((c * X**i * Y**j for (i, j), c in zip(CUBIC_MONOMIALS, cs)), MPoly.zero())
                for cs in (drawn[:n], drawn[n:]))
        try:
            web = SymWeb(A * DY - B * DX)
        except WebValidationError:
            assume(False)
        b, a = web.coefficients()
        A, B = a, -b  # the form as stored, A*dy - B*dx
        at_leaf = polarops.inflexion_form(web).substitute({"dx": A, "dy": B})
        assert at_leaf == polarops.inflexion_of_field(A, B)
        sA, sB = to_sympy(sympy, A), to_sympy(sympy, B)
        E = sB**2 * sA.diff(y) + sA * sB * sA.diff(x) - sA**2 * sB.diff(x) - sA * sB * sB.diff(y)
        assert sympy.expand(to_sympy(sympy, at_leaf) - E) == 0

    @pytest.mark.parametrize("entry", BATTERY, ids=lambda e: e.name)
    def test_curve_matches_sympy(self, entry):
        sympy = pytest.importorskip("sympy")
        ours = inflexion_curve(entry.web)
        assert sympy.expand(to_sympy(sympy, ours) - sympy_inflexion_curve(sympy, entry.web)) == 0
        # R ≡ 0 exactly on the webs whose leaves are lines and the radial pencil
        lines = ("product dx*dy", "radial pencil", "radial x vertical", "triple product (k=3)")
        assert ours.is_zero() == (entry.name in lines)

    @given(st.fractions(-3, 3, max_denominator=4).filter(bool), st.integers(-2, 2),
           st.lists(st.integers(-3, 3), min_size=13, max_size=13))
    @settings(max_examples=20, deadline=None)
    def test_a_planted_singular_polar(self, t, s, drawn):
        # a 2-web with E_W(q; v) = 0 at the leaf direction v = (1, s) at q,
        # planted through the gradient condition t·(W_x, W_y) + (W_dx, W_dy) = 0
        # at (q; v): its polar at p = q - t·v is singular at q
        sympy = pytest.importorskip("sympy")
        qx, qy = Fraction(1, 2), Fraction(-1, 3)
        v = (1, s)
        mono = [v[0] ** (2 - i) * v[1] ** i for i in range(3)]  # dx^(2-i) dy^i at v
        d_dx = [(2 - i) * v[1] ** i for i in range(3)]  # its dx-derivative at v
        d_dy = [i * v[1] ** (i - 1) if i else 0 for i in range(3)]
        c, d, e, h = drawn[0:3], drawn[3:6], drawn[6:9], drawn[9:12]
        # the values, x- and y-derivatives of a_0, a_1, a_2 at q: index 0 solves
        # W(q; v) = 0 and the two components of the gradient condition
        c[0] = -(c[1] * mono[1] + c[2] * mono[2])
        d[0] = -sum(ci * di for ci, di in zip(c, d_dx)) / t - d[1] * mono[1] - d[2] * mono[2]
        e[0] = -sum(ci * di for ci, di in zip(c, d_dy)) / t - e[1] * mono[1] - e[2] * mono[2]
        u, w = X - qx, Y - qy
        coefficients = [c[i] + d[i] * u + e[i] * w + h[i] * u * u + drawn[12] * u * w for i in range(3)]
        try:
            web = SymWeb(sum((a * DX ** (2 - i) * DY**i for i, a in enumerate(coefficients)), MPoly.zero()))
        except WebValidationError:
            assume(False)
        at_q = {"x": qx, "y": qy}
        assume(web.discriminant_form.evaluate(at_q) != 0)  # q off Δ(W) ∪ Sing(W)
        assert polarops.inflexion_form(web).evaluate({**at_q, "dx": v[0], "dy": v[1]}) == 0
        assert inflexion_curve(web).evaluate(at_q) == 0
        x, y = sympy.symbols("x y")
        px, py = qx - t * v[0], qy - t * v[1]
        P = to_sympy(sympy, web.form).subs({sympy.Symbol("dx"): x - sympy.Rational(px),
                                            sympy.Symbol("dy"): y - sympy.Rational(py)}, simultaneous=True)
        point = {x: sympy.Rational(qx), y: sympy.Rational(qy)}
        assert [f.subs(point) for f in (P, P.diff(x), P.diff(y))] == [0, 0, 0]

    @pytest.mark.parametrize("entry", R_NONZERO, ids=lambda e: e.name)
    def test_sampled_path_agrees_on_the_battery(self, entry):
        # where R ≢ 0 decides the check, the sampled containment holds too
        assert generic_polar_singularities_check(entry.web).passed
        assert sampled_polar_singularities(entry.web, seed=6, samples=4) == (4, [])

    def test_sampled_path_agrees_on_benchmark_webs(self):
        webs = seed_one_web_jobs()
        assert len(webs) == 30
        for web, seed in webs:
            assert not inflexion_curve(web).is_zero()
            assert sampled_polar_singularities(web, seed, 4) == (4, []), web

    @given(small_webs())
    @settings(max_examples=25, deadline=None)
    def test_the_witness_is_a_value_of_r(self, drawn):
        web = web_of(*drawn)
        R = inflexion_curve(web)
        witness = polarops.inflexion_witness(web)
        assert (witness is None) == R.is_zero()
        if witness is not None:
            q, value = witness
            assert value != 0 and R.evaluate(q.as_dict()) == value

    def test_a_planted_vanishing_leading_coefficient(self, monkeypatch):
        # no shear is needed, so w's dy-leading coefficient is a_2 = x, zero at
        # the first three grid points; the witness is a later point, and R is
        # never expanded
        web = SymWeb(X * DY**2 + DX * DY + (Y + 1) * DX**2)
        w, _ = dehomogenize([web.form, polarops.inflexion_form(web)])
        assert [w.coeffs_in("dy")[-1].evaluate({"x": 0, "y": j}) for j in (0, 1, -1)] == [0, 0, 0]
        R = inflexion_curve(web)

        def refused(web):
            raise AssertionError("R expanded although a witness exists")

        monkeypatch.setattr(polarops, "inflexion_curve", refused)
        q, value = polarops.inflexion_witness(web)
        assert q.a != 0 and value == R.evaluate(q.as_dict()) != 0
        report = generic_polar_singularities_check(web)
        assert report.passed and report.samples_used == 0
        assert report.notes[0].startswith(f"R = Res_(dx:dy)(W, W_x·W_dy - W_y·W_dx) ≢ 0, R(q) = {value} at q = {q}:")

    def test_r_is_expanded_only_without_a_small_witness(self, monkeypatch):
        # R = 36x^7 - 60x^5 + 28x^3 - 4x vanishes on the columns x = 0, 1, -1
        # of {0, 1, -1}^2, so R is expanded once and q is found on its grid
        web = SymWeb(DY**2 - (X**3 - X) * DX**2)
        calls, real = [], polarops.inflexion_curve
        monkeypatch.setattr(polarops, "inflexion_curve", lambda w: calls.append(w) or real(w))
        q, value = polarops.inflexion_witness(web)
        assert len(calls) == 1 and calls[0] is web
        assert (q, value) == (AffinePoint.of(2, 0), 2904) == (q, real(web).evaluate(q.as_dict()))

    @pytest.mark.parametrize("entry", [e for e in BATTERY if e.web.k >= 2 and e not in R_NONZERO],
                             ids=lambda e: e.name)
    def test_webs_with_r_zero_are_sampled(self, entry):
        # every leaf is a line, so L = W; the deleted sampled path is the oracle
        assert polarops.inflexion_witness(entry.web) is None
        report = generic_polar_singularities_check(entry.web)
        assert report.passed and report.samples_used == 0, report.render_text()
        assert [a.name for a in report.assertions] == [BASE_IDENTITY, SPLIT]
        assert report.notes == [SPLIT_NOTE, "N is a constant: W = L"]
        assert sampled_polar_singularities(entry.web, seed=6, samples=4) == (4, [])

    @pytest.mark.parametrize("form, line, rest", MIXED_WEBS, ids=[str(f) for f, _, _ in MIXED_WEBS])
    def test_planted_mixed_webs_split_off_their_lines(self, form, line, rest):
        # R ≡ 0, L is exactly the line factor, and N is a foliation or a web
        # with R_N ≢ 0; the deleted sampled path, the oracle, agrees
        web = SymWeb(form)
        assert polarops.inflexion_witness(web) is None
        report = generic_polar_singularities_check(web)
        assert report.passed and report.samples_used == 0, report.render_text()
        assert report.assertions[1].detail == f"L = {line.canonical()}: every leaf of L is a line"
        assert report.notes[:2] == [SPLIT_NOTE, f"N = {rest.canonical()}"]
        assert all(n.startswith("N: ") for n in report.notes[2:]) and len(report.notes) > 2
        assert sampled_polar_singularities(web, seed=6, samples=4) == (4, [])

    def test_the_report_carries_the_witness_of_n(self):
        # dx·(dy^2 - x·dx^2): N is the sqrt web, with R(-1, 0) = -4
        report = generic_polar_singularities_check(SymWeb(DX * w_sqrt.form))
        assert [a.name for a in report.assertions] == [BASE_IDENTITY, SPLIT]
        assert report.notes[-1].startswith("N: R = Res_(dx:dy)(W, W_x·W_dy - W_y·W_dx) ≢ 0, "
                                           "R(q) = -4 at q = (-1, 0):")

    def test_a_foliation_n_carries_its_identity(self):
        report = generic_polar_singularities_check(SymWeb((X * DY - Y * DX) * w_circles.form))
        assert [(a.name, a.passed) for a in report.assertions] == [
            (BASE_IDENTITY, True), (SPLIT, True), (f"N: {LINEAR_IDENTITY}", True)]

    def test_a_repeated_factor_is_noted(self):
        # Δ(W) is the whole plane: the check passes, as the sampled path did
        report = generic_polar_singularities_check(SymWeb(DX**2 * DY))
        assert report.passed and [a.name for a in report.assertions] == [BASE_IDENTITY]
        assert report.notes == ["R ≡ 0 and W has a repeated factor: Δ(W) is the whole plane"]

    def test_r_zero_on_n_is_a_broken_invariant(self, monkeypatch):
        # E_W ≡ L^2·E_N (mod N) makes R_N ≢ 0; a zero R_N is refused
        monkeypatch.setattr(polarops, "inflexion_witness", lambda web: None)
        with pytest.raises(InternalInvariantError, match="R ≡ 0 on N"):
            generic_polar_singularities_check(SymWeb(DX * w_sqrt.form))

    def test_a_web_job_finds_no_common_zeros(self, tmp_path, monkeypatch):
        # the work count of a 2-web sing-locus job: no polar, no zero set
        def refused(*args, **kwargs):
            raise AssertionError("called on a web with R ≢ 0")

        from polarweb import solve

        for name, module in list(sys.modules.items()):
            if name.startswith("polarweb") and module is not None:
                for key, value in list(vars(module).items()):
                    if value is solve.common_zeros or value is polarops.polar_curve:
                        monkeypatch.setattr(module, key, refused)
        path = tmp_path / "web.txt"
        path.write_text("type: web\nform: (x^2 - y)*dx^2 + (x*y - 1)*dx*dy + (y^2 - x + 2*y - 2)*dy^2\n")
        code, text = run_command(["check", "--in", str(path), "--theorem", "sing-locus",
                                  "--samples", "4", "--seed", "1"])
        assert code == 0, text


class TestBranches:
    # The tangent cone of P_p at p is the form at p (JET_IDENTITY); these pin
    # that form, its leaf directions and the smoothness precondition.
    def test_product_web(self):
        cone = form_at(w_product, AffinePoint.of(1, 2))
        assert cone == (X * Y).canonical()
        assert [m for _, m in binary_form_factors(cone)] == [1, 1]

    def test_sqrt_web(self):
        factors = binary_form_factors(form_at(w_sqrt, AffinePoint.of(1, 0)))
        assert sorted((str(d), m) for d, m in factors) == [("(1:-1)", 1), ("(1:1)", 1)]

    def test_foliation_smooth_at_center(self):
        factors = binary_form_factors(form_at(w_circles, AffinePoint.of(1, 2)))
        assert [(str(d), m) for d, m in factors] == [("(1:-1/2)", 1)]

    def test_precondition_on_discriminant(self):
        assert is_smooth_point(w_sqrt, AffinePoint.of(0, 1)) == (False, "(0, 1) lies on the discriminant")

    @pytest.mark.parametrize("entry", BATTERY, ids=lambda e: e.name)
    def test_battery(self, entry):
        report = branches_check(entry.web)
        assert report.passed, report.render_text()
        assert [a.name for a in report.assertions] == [JET_IDENTITY, SQUAREFREE]
        assert report.samples_requested == report.samples_used == 0

    @pytest.mark.parametrize("entry", BATTERY, ids=lambda e: e.name)
    def test_sampled_cones_have_k_distinct_lines(self, entry):
        # the oracle of the deleted sampling loop: at seeded centers off
        # Sing(W) ∪ Δ(W), the lowest jet of P_p at p is k distinct lines
        sampler = GenericSampler(8)
        centers = [p for p in (sampler.center() for _ in range(8)) if is_smooth_point(entry.web, p)[0]]
        assert len(centers) >= 4
        for p in centers:
            jets = jet_decompose(polar_curve(entry.web, p).raw, ("x", "y"), (p.a, p.b))
            assert min(jets) == entry.web.k
            assert [m for _, m in binary_form_factors(jets[min(jets)])] == [1] * entry.web.k

    def test_a_repeated_factor_fails(self, tmp_path):
        # dx^2 passes the jet identity, but no center has two distinct branches
        report = branches_check(SymWeb(DX**2))
        assert [(a.name, a.passed) for a in report.assertions] == [(JET_IDENTITY, True), (SQUAREFREE, False)]
        check_fails(tmp_path, "type: web\nform: dx^2\n", "branches")

    @given(small_webs())
    @settings(max_examples=15, deadline=None)
    def test_identity_matches_sympy(self, drawn):
        sympy = pytest.importorskip("sympy")
        x, y, a, b, u, v = sympy.symbols("x y a b u v")
        k, coefficients = drawn
        web = web_of(k, coefficients)
        coeffs = [sum((c * x**i * y**j for (i, j), c in terms.items()), sympy.Integer(0)) for terms in coefficients]
        P = sum(c * (x - a) ** (k - n) * (y - b) ** n for n, c in enumerate(coeffs))
        at_center = sympy.Poly(sympy.expand(P.subs({x: a + u, y: b + v}, simultaneous=True)), u, v)
        lowest = min(sum(m) for m in at_center.monoms())
        jet = sum(c * u**i * v**j for (i, j), c in at_center.terms() if i + j == lowest)
        form = sum(c.subs({x: a, y: b}, simultaneous=True) * u ** (k - n) * v**n for n, c in enumerate(coeffs))
        assert lowest == k and sympy.expand(jet - form) == 0
        report = branches_check(web)
        assert [(a.name, a.passed) for a in report.assertions] == [
            (JET_IDENTITY, True), (SQUAREFREE, web.generically_squarefree)]

    def test_a_broken_family_fails(self, monkeypatch, tmp_path):
        break_family(monkeypatch)
        report = branches_check(w_sqrt)
        assert [(a.passed, a.detail) for a in report.assertions if a.name == JET_IDENTITY] == [
            (False, "lowest jet of degree 0, not a multiple of the form")]
        assert not report.passed
        check_fails(tmp_path, "type: web\nform: dy^2 - x*dx^2\n", "branches")


@st.composite
def planted_curves(draw):
    """1-3 planted factors in (x, y) with integer coefficients: a line; a
    smooth conic a·x^2 + b·y^2 + c, a·b·c ≠ 0; or L1^2 - 2·L2^2 + c for
    independent affine forms L1 and L2, two lines over Q(sqrt 2) when c = 0
    and a smooth conic otherwise."""
    small, nonzero = st.integers(-3, 3), st.sampled_from([-3, -2, -1, 1, 2, 3])

    def affine():
        a, b = draw(small), draw(small)
        return (a, b), MPoly.constant(a) * X + MPoly.constant(b) * Y + draw(small)

    factors = []
    for kind in draw(st.lists(st.sampled_from(["line", "conic", "split"]), min_size=1, max_size=3)):
        if kind == "line":
            (a, b), f = affine()
            assume((a, b) != (0, 0))
        elif kind == "conic":
            f = MPoly.constant(draw(nonzero)) * X**2 + MPoly.constant(draw(nonzero)) * Y**2 + draw(nonzero)
        else:
            ((a1, b1), l1), ((a2, b2), l2) = affine(), affine()
            assume(a1 * b2 != a2 * b1)
            f = l1 * l1 - 2 * l2 * l2 + draw(st.sampled_from([0, 0, 1, -2]))
        factors.append(f)
    return factors


THREE_WEB = "(-2*y)*dx^3 + (-3*x)*dx^2*dy + (-2*y + 2)*dx*dy^2 + (3*x - 3*y)*dy^3"


def sampled_component_counts(web: SymWeb, seed: int, samples: int) -> list[int]:
    """The oracle of the deleted sampled `irreducible` loop: the component
    count of the polar at up to `samples` seeded centers off the radial
    centers, Sing(W) and Δ(W)."""
    disc = web.discriminant_form
    sampler, counts = GenericSampler(seed), []
    for _ in range(50 * samples):
        p = sampler.center()
        curve, point = polar_curve(web, p), p.as_dict()
        if (isinstance(curve, RadialProduct) or all(c.evaluate(point) == 0 for c in web.coefficients())
                or (not disc.is_constant() and disc.evaluate(point) == 0)):
            continue
        counts.append(curve_component_count(curve))
        if len(counts) == samples:
            break
    return counts


class TestIrreducibility:
    def test_component_count_conic(self):
        assert curve_component_count(PlaneCurve(X**2 + Y**2 - 1)) == 1

    def test_component_count_product(self):
        assert curve_component_count(PlaneCurve((Y - X) * (Y + X - 1))) == 2

    def test_component_count_vertical_line_factor(self):
        assert curve_component_count(PlaneCurve((X - 1) * (Y - 2))) == 2

    def test_component_count_conjugate_lines(self):
        # lines conjugate over Q(sqrt 2), one factor over Q
        assert curve_component_count(PlaneCurve(X**2 - 2 * Y**2)) == 2
        assert curve_component_count(PlaneCurve((X**2 + Y**2 - 1) * (X**2 - 2 * Y**2) * (2 * X - Y))) == 4

    @given(planted_curves())
    @settings(max_examples=15, deadline=None)
    def test_component_count_matches_sympy(self, factors):
        # an independent count: sympy's factors over Q(sqrt 2), each
        # absolutely irreducible, as the planted split conics are lines there
        sympy = pytest.importorskip("sympy")
        x, y = sympy.symbols("x y")
        f = math.prod(factors[1:], start=factors[0])
        _, found = sympy.factor_list(to_sympy(sympy, f), x, y, extension=sympy.sqrt(2))
        assume(all(m == 1 for _, m in found))  # square-free
        assert curve_component_count(PlaneCurve(f)) == len(found)

    @pytest.mark.parametrize("form", [DX**2, DX**2 * DY, w_sqrt.form**2], ids=str)
    def test_a_repeated_factor_fails(self, tmp_path, form):
        # the discriminant is zero and has no square-free part: the report
        # fails the assertion and draws nothing
        report = generic_polar_irreducible(SymWeb(form))
        assert [(a.name, a.passed) for a in report.assertions] == [(SQUAREFREE, False)]
        assert report.samples_requested == report.samples_used == 0 and not report.notes
        check_fails(tmp_path, f"type: web\nform: {form}\n", "irreducible")

    def test_web_decomposability(self):
        assert web_decomposable(w_product)[0]
        assert not web_decomposable(w_sqrt)[0]
        assert web_decomposable(SymWeb(w_circles.form * w_sqrt.form))[0]

    def test_web_vanishing_at_the_first_seven_slopes(self):
        # the direction search has to go past 0, 1, -1, 2, -2, 3, -3 to 4
        form = MPoly.constant(1)
        for m in (0, 1, -1, 2, -2, 3, -3):
            form = form * (DX - m * DY)
        decomposable, count = web_decomposable(SymWeb(form))
        assert decomposable and count == 7

    # (decomposable, count) of the webs of the battery that are not (False, 1)
    DECOMPOSITIONS = {"product dx*dy": (True, 2), "radial x vertical": (True, 2),
                      "circles x sqrt (k=3)": (True, 2), "triple product (k=3)": (True, 3)}

    @pytest.mark.parametrize("entry", BATTERY, ids=lambda e: e.name)
    def test_decomposability_on_the_battery(self, entry):
        assert web_decomposable(entry.web) == self.DECOMPOSITIONS.get(entry.name, (False, 1))

    def test_exhausted_intercepts_are_a_broken_invariant(self, monkeypatch):
        from polarweb import polarops

        calls = []
        monkeypatch.setattr(polarops, "_content_in", lambda f, v: calls.append(v) or Y)
        with pytest.raises(InternalInvariantError):
            web_decomposable(w_sqrt)
        # branch curve x = 0 (n = 1), coefficients of degree <= 1 (D = 1):
        # the bound n(n - 1) + D^2 = 1, so two intercepts are tried
        assert len(calls) == 2

    @pytest.mark.parametrize("name", ["radial x vertical", "circles x sqrt (k=3)", "triple product (k=3)"])
    def test_one_content_per_intercept(self, name, monkeypatch):
        # the cover q of each intercept takes one y-content, and the count
        # reads the q already shown primitive without a second one
        from polarweb import polarops

        contents, counted = [], []
        content_in, gao_count = polarops._content_in, polarops._gao_count
        monkeypatch.setattr(polarops, "_content_in", lambda f, v: contents.append(f) or content_in(f, v))
        monkeypatch.setattr(polarops, "_gao_count", lambda f: counted.append(f) or gao_count(f))
        assert web_decomposable(next(e.web for e in BATTERY if e.name == name))[0]
        assert len(contents) == len(set(contents)) >= 1
        assert counted == contents[-1:]

    @pytest.mark.parametrize("entry", BATTERY, ids=lambda e: e.name)
    def test_battery(self, entry):
        # decided with no sample; the deleted sampled loop is the oracle: at
        # 5 seeded centers off Δ(W) and Sing(W) the count is 1 exactly where
        # the verdict is "irreducible"
        report = generic_polar_irreducible(entry.web)
        assert report.passed, report.render_text()
        assert report.samples_requested == report.samples_used == 0 and not report.discards
        irreducible = report.notes[0].endswith("expected generic polar irreducible")
        counts = sampled_component_counts(entry.web, seed=3, samples=5)
        assert len(counts) == 5 and all((count == 1) == irreducible for count in counts), counts

    def test_the_three_web_with_a_special_line(self, tmp_path):
        # every polar centered on y = 0, such as (25/4, 0), has 2
        # components: the walk notes (0, 0) and stops at (0, 1)
        path = tmp_path / "web3.txt"
        path.write_text(f"type: web\nform: {THREE_WEB}\n")
        code, text = run_command(["check", "--in", str(path), "--theorem", "irreducible",
                                  "--samples", "2", "--seed", "566025", "--json"])
        assert code == 0, text
        report = json.loads(text)["report"]
        assert [a["name"] for a in report["assertions"]] == [SQUAREFREE, "components at p=(0, 1)"]
        assert report["notes"][1:] == ["special center (0, 0): 2 components"]

    def test_the_report_depends_on_no_seed_and_no_sample_count(self, tmp_path):
        path = tmp_path / "web3.txt"
        path.write_text(f"type: web\nform: {THREE_WEB}\n")
        bodies = set()
        for seed, samples in (("0", "1"), ("1", "1"), ("566025", "1"), ("0", "20")):
            code, text = run_command(["check", "--in", str(path), "--theorem", "irreducible",
                                      "--seed", seed, "--samples", samples])
            assert code == 0, text
            command, stamp, body = text.split("\n", 2)
            assert command.startswith("command: ") and stamp.startswith("timestamp: ")
            bodies.add(body)
        assert len(bodies) == 1

    # P_(0,0) = -(x - y)^2 is not square-free, and P_(0,0) = -x has degree
    # 1 < 2: each has one component, and neither is a witness
    @pytest.mark.parametrize("A, B, special, witness", [
        (-Y, X - 2 * Y, "the polar is not square-free", "(0, 1)"),
        (X**2, X * Y + 1, "the polar has degree 1 < d + k", "(1, 0)"),
    ], ids=["non-reduced", "short degree"])
    def test_a_special_center_is_passed(self, A, B, special, witness):
        report = generic_polar_irreducible(SymWeb(A * DY - B * DX))
        assert report.passed, report.render_text()
        assert report.notes[1] == f"special center (0, 0): {special}"
        assert [a.name for a in report.assertions] == [SQUAREFREE, f"components at p={witness}"]

    def test_a_walk_without_a_witness_aborts(self, monkeypatch, tmp_path):
        # a walk that finds no witness proves nothing: exit 3, not a FAIL
        monkeypatch.setattr(polarops, "_one_component_at", lambda f, p: False)
        monkeypatch.setattr(polarops, "_one_component_mod_p", lambda f: False)
        monkeypatch.setattr(polarops, "curve_component_count", lambda curve: 2)
        with pytest.raises(DegenerateSampleError, match=r"^irreducible: no center of the 4 x 4 grid "):
            generic_polar_irreducible(w_circles)
        path = tmp_path / "circles.txt"
        path.write_text("type: web\nform: x*dx + y*dy\n")
        code, text = run_command(["check", "--in", str(path), "--theorem", "irreducible"])
        assert code == 3 and text.startswith("numeric abort: irreducible: no center of the 4 x 4 grid"), text

    def test_an_expected_reducible_polar_rests_on_the_premise(self):
        report = generic_polar_irreducible(w_product)
        assert [(a.name, a.detail) for a in report.assertions] == [
            (SQUAREFREE, "the k leaf directions are distinct off Δ(W)"),
            ("W decomposable over C", "2 components over C")]
        assert report.notes[1:] == ["components at p=(0, 0): 2"]

    def test_the_tangent_lines_of_a_conic(self):
        # d = 0 and not decomposable: the polar at p is the pair of tangent
        # lines from p to the unit circle.  The polar at the origin,
        # x^2 + y^2, has no real point but 2 components over C
        web = SymWeb((1 - Y**2) * DX**2 + 2 * X * Y * DX * DY + (1 - X**2) * DY**2)
        assert web_degree(web) == 0 and web_decomposable(web) == (False, 1)
        report = generic_polar_irreducible(web)
        assert [(a.name, a.passed) for a in report.assertions] == [(SQUAREFREE, True), ("d = 0 and k >= 2", True)]
        assert report.notes == ["web: k=2, d=0, decomposable=False; expected generic polar reducible",
                                "components at p=(0, 0): 2"]


class TestComponentCountErrors:
    def test_invariant_failure_is_not_a_discard(self, monkeypatch):
        from polarweb import polarops
        from polarweb.errors import InternalInvariantError

        def broken(rows):
            raise InternalInvariantError("broken elimination")

        # the polar at the pencil's singular point (0, 0), where no line
        # proves it, is counted by the rank mod p
        monkeypatch.setattr(polarops, "_independent_mod_p", broken)
        with pytest.raises(InternalInvariantError):
            generic_polar_irreducible(w_circles)


def _count_calls(monkeypatch, name):
    """Wrap every binding of `name` in the polarweb modules; return the list
    that records one entry per call."""
    calls = []
    for module in [m for n, m in sys.modules.items() if n.startswith("polarweb.")]:
        original = getattr(module, name, None)
        if callable(original):
            def spy(*args, _original=original, **kwargs):
                calls.append(args)
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, spy)
    return calls


# A, B of the dense foliations of `perfbench/gen.py`,
# foliation_text(random.Random(1), d) for d = 2 and 3
DENSE_FOLIATIONS = {
    2: ("x^2 - 3*x*y - y^2 - 3*x + 2*y - 2", "-3*x^2 - 2*x*y + y^2 + 3*x + y + 1"),
    3: ("x^3 + 3*x^2*y + x*y^2 + y^3 + x^2 - 3*x*y - y^2 - 3*x + 2*y - 2",
        "x^3 + 3*x^2*y - 3*x*y^2 + 2*y^3 + x^2 + x*y - 3*y^2 + x - 3*y - 2"),
}


class TestIrreducibilityWork:
    """What the irreducibility check computes, counted call by call."""

    def test_count_of_one_needs_no_integer_rank(self, monkeypatch):
        calls = _count_calls(monkeypatch, "_integer_rank")
        assert _absolute_factor_count(X**2 + Y**2 - 1) == 1
        assert calls == []

    def test_count_above_one_reaches_the_integer_rank(self, monkeypatch):
        calls = _count_calls(monkeypatch, "_integer_rank")
        assert _absolute_factor_count(X**2 + Y**2) == 2
        assert len(calls) == 1

    def test_no_singular_set_solve(self, monkeypatch):
        web = next(e.web for e in BATTERY if e.name == "A=x^2 B=y^2")
        sing = _count_calls(monkeypatch, "singular_set")
        zeros = _count_calls(monkeypatch, "common_zeros")
        report = generic_polar_irreducible(web)
        assert report.passed, report.render_text()
        assert (sing, zeros) == ([], [])

    def test_singular_center_is_noted_special(self):
        # the web's singular point (0, 0) comes first on the grid; its polar
        # x^2 + y^2 has 2 components, and (0, 1) is the witness
        report = generic_polar_irreducible(w_circles)
        assert report.notes[1:] == ["special center (0, 0): 2 components"]
        assert report.assertions[-1].name == "components at p=(0, 1)"
        assert report.passed, report.render_text()

    @pytest.mark.parametrize("d", [2, 3])
    def test_a_certified_witness_takes_no_square_free_part_and_no_shear(self, d, monkeypatch):
        # the kernel mod p of the raw polar at (0, 0) proves it square-free
        # with one component: no gcd for its square-free part, no shear and
        # no rank over Q
        web = SymWeb.of_field(*(parse_polynomial(t) for t in DENSE_FOLIATIONS[d]))
        calls = {name: _count_calls(monkeypatch, name) for name in ("squarefree_part", "shear", "_integer_rank")}
        report = generic_polar_irreducible(web)
        assert report.passed, report.render_text()
        assert report.assertions[-1].name == "components at p=(0, 0)"
        assert {name: len(c) for name, c in calls.items()} == {"squarefree_part": 0, "shear": 0, "_integer_rank": 0}

    @pytest.mark.parametrize("d", [2, 3])
    def test_a_witness_proved_on_a_line_takes_no_gao_kernel(self, d, monkeypatch):
        # one irreducible image of the polar at (0, 0) on a line mod a small
        # prime proves it: no row of the Gao-Ruppert matrix is eliminated
        web = SymWeb.of_field(*(parse_polynomial(t) for t in DENSE_FOLIATIONS[d]))
        calls = _count_calls(monkeypatch, "_independent_mod_p")
        report = generic_polar_irreducible(web)
        assert report.passed, report.render_text()
        assert report.assertions[-1].name == "components at p=(0, 0)"
        assert calls == []


def _box_rows(fs: MPoly) -> list[dict]:
    """The Gao-Ruppert matrix over the whole box, deg g <= (m-1, n) and
    deg h <= (m, n-1) with no bound on the total degree: the reference for
    `_gao_rows`, which keeps only the unknowns of total degree below deg fs."""
    terms = [(i, j, int(c)) for (i, j), c in _rekey(fs.canonical(), ("x", "y")).items()]
    m = max(i for i, _, _ in terms)
    n = max(j for _, j, _ in terms)
    rows = []
    for a in range(m):
        for b in range(n + 1):
            rows.append({(i + a + j + b - 1, i + a): c * (b - j) for i, j, c in terms if b != j})
    for a in range(m + 1):
        for b in range(n):
            rows.append({(i + a - 1 + j + b, i + a - 1): c * (i - a) for i, j, c in terms if i != a})
    return rows


def _y_primitive_shear(f: MPoly) -> MPoly:
    """f after the first shear of `_absolute_factor_count`'s search."""
    return next(fs for fs in (shear(f, lam) for lam in _small_integers())
                if _content_in(fs, "y").is_constant())


@st.composite
def plane_factors(draw):
    """A line, a pair of conjugate lines L1^2 - d*L2^2 (d = 2, 3 or -1, as in
    x^2 - 2y^2 and x^2 + y^2) or a dense conic, coefficients in [-3, 3]."""
    small = st.integers(-3, 3)

    def linear():
        return draw(small) * X + draw(small) * Y + draw(small)

    kind = draw(st.sampled_from(["line", "pair", "conic"]))
    if kind == "line":
        return linear()
    if kind == "pair":
        return linear() ** 2 - draw(st.sampled_from([2, 3, -1])) * linear() ** 2
    return sum((draw(small) * X**i * Y**j for i, j in QUADRATIC_MONOMIALS), MPoly.zero())


def _line(a, b, c):
    """Key of the line a*x + b*y + c = 0, the same for proportional triples."""
    g = math.gcd(a, b, c)
    a, b, c = a // g, b // g, c // g
    return (a, b, c) if (a, b) > (0, 0) else (-a, -b, -c)


class TestOneComponentModP:
    """One dependent row of the Gao-Ruppert matrix mod p proves a curve
    square-free with one component over C."""

    def test_a_dense_cubic_polar(self):
        f = polar_curve(SymWeb.of_field(*(parse_polynomial(t) for t in DENSE_FOLIATIONS[2])),
                        AffinePoint.of(0, 0)).raw
        # every monomial of degree 1 to 3: the polar passes through its center
        assert f.total_degree() == 3 and len(f.terms) == 9
        assert _one_component_mod_p(f)

    @pytest.mark.parametrize("f", [Y**2 - X**3, X**2 + Y**2 - 1], ids=str)
    def test_certified(self, f):
        assert _one_component_mod_p(f)

    @pytest.mark.parametrize("f", [(X**2 + Y**2 - 1) ** 2, (Y - X**2) ** 2 * (X + Y + 1), X**2 + Y**2,
                                   (X - 1) * (Y - X**2)],
                             ids=["squared-conic", "squared-parabola-times-a-line", "conjugate-lines",
                                  "line-times-parabola"])
    def test_not_certified(self, f):
        assert not _one_component_mod_p(f)

    @given(st.lists(st.tuples(plane_factors(), st.integers(1, 3)), min_size=1, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_a_certified_product_is_one_square_free_component(self, factors):
        f = MPoly.constant(1)
        for factor, multiplicity in factors:
            f = f * factor**multiplicity
        assume(not f.is_zero() and f.total_degree() >= 1)
        if _one_component_mod_p(f):
            assert squarefree_part(f) == f.canonical()
            assert _absolute_factor_count(f) == 1


@st.composite
def curves_through_the_origin(draw):
    """A product of one to three factors with multiplicities 1 or 2, the
    first through the origin: lines, dense conics and norms u^2 - 2v^2 of
    lines u, v, most of them irreducible over Q and two lines over C;
    coefficients in [-3, 3]."""
    small = st.integers(-3, 3)

    def factor(through):
        def linear():
            return draw(small) * X + draw(small) * Y + (0 if through else draw(small))

        kind = draw(st.sampled_from(["line", "norm", "conic"]))
        if kind == "line":
            return linear()
        if kind == "norm":
            return linear() ** 2 - 2 * linear() ** 2
        return sum((draw(small) * X**i * Y**j for i, j in QUADRATIC_MONOMIALS if i + j or not through), MPoly.zero())

    f = MPoly.constant(1)
    for through in [True] + draw(st.lists(st.booleans(), max_size=2)):
        f = f * factor(through) ** draw(st.integers(1, 2))
    return f


class TestOneComponentAt:
    """One irreducible image on a line mod a small prime, and a smooth
    rational point, prove a curve square-free with one component over C."""

    @pytest.mark.parametrize("d", [2, 3])
    def test_a_dense_foliation_polar_at_its_center(self, d):
        f = polar_curve(SymWeb.of_field(*(parse_polynomial(t) for t in DENSE_FOLIATIONS[d])), P0).raw
        assert f.total_degree() == d + 1
        assert polarops._one_component_at(f, P0)

    def test_a_conic_at_a_rational_point(self):
        assert polarops._one_component_at(X**2 - 2 * Y**2 - 1, AffinePoint.of(1, 0))

    @pytest.mark.parametrize("f", [
        X**2 - 2 * Y**2,  # irreducible over Q, two lines over C through the singular center
        (X - Y) * (X + Y - 1),  # smooth at the center, two components over Q
        (5 * X + Y) * (X + 2 * Y + 1),  # lc 5: its image mod 5 drops to a line
    ], ids=["conjugate-lines-through-the-center", "two-lines", "a-prime-dividing-lc"])
    def test_refused(self, f):
        assert not polarops._one_component_at(f, P0)

    def test_a_two_web_polar_is_refused_before_any_trial(self, monkeypatch):
        # a polar of a k-web has multiplicity k at its center
        p = AffinePoint.of(1, 2)
        f = polar_curve(w_sqrt, p).raw
        trials = _count_calls(monkeypatch, "_irreducible_mod_p")
        assert f.total_degree() == 3 and not polarops._one_component_at(f, p)
        assert trials == []

    def test_a_cubic_or_quadratic_image_takes_no_gcd(self, monkeypatch):
        # Ben-Or's step i = 1 is a scan of the residues, which decides degree <= 3
        f = polar_curve(SymWeb.of_field(*(parse_polynomial(t) for t in DENSE_FOLIATIONS[2])), P0).raw
        gcds = _count_calls(monkeypatch, "_coprime_mod_p")
        trials = _count_calls(monkeypatch, "_irreducible_mod_p")
        assert f.total_degree() == 3 and polarops._one_component_at(f, P0)
        assert gcds == [] and trials
        del trials[:]
        assert not polarops._one_component_at((X - Y) * (X + Y - 1), P0)
        assert gcds == [] and len(trials) == len(polarops._TRIALS) == 28

    @given(curves_through_the_origin())
    @settings(max_examples=150, deadline=None)
    def test_a_certified_curve_is_one_square_free_component(self, f):
        assume(f.total_degree() >= 1)
        if polarops._one_component_at(f, P0):
            assert squarefree_part(f) == f.canonical()
            assert _absolute_factor_count(f) == 1


class TestAbsoluteFactorCount:
    """The Gao-Ruppert counter: components over C, exactly."""

    def test_counts_over_the_complex_numbers(self):
        assert _absolute_factor_count(X**2 + Y**2) == 2
        assert _absolute_factor_count(X**2 + Y**2 - 1) == 1

    def test_small_curves(self):
        assert _absolute_factor_count(X**2 - 2 * Y**2) == 2
        assert _absolute_factor_count(Y**2 - X**3) == 1
        # x - 1 is free of y: the count needs the shear
        assert _absolute_factor_count((X - 1) * (Y - 2)) == 2

    @given(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4)),
                    min_size=1, max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_product_of_distinct_lines(self, triples):
        lines = {_line(*t) for t in triples if t[:2] != (0, 0)}
        assume(lines)
        f = MPoly.constant(1)
        for a, b, c in lines:
            f = f * (a * X + b * Y + c)
        assert _absolute_factor_count(f) == len(lines)

    @given(st.lists(plane_factors(), min_size=1, max_size=3))
    @settings(max_examples=40, deadline=None)
    def test_the_triangle_counts_as_the_box(self, factors):
        f = MPoly.constant(1)
        for factor in factors:
            f = f * factor
        assume(f.total_degree() >= 1)
        f = squarefree_part(f)
        fs = _y_primitive_shear(f)
        triangle, box = _gao_rows(fs), _box_rows(fs)
        assert len(triangle) <= len(box)
        count = len(triangle) - _integer_rank(triangle)
        assert count == len(box) - _integer_rank(box) == _absolute_factor_count(f)

    @pytest.mark.parametrize("name", ["circle pencil x*dx+y*dy", "quasi-radial perturbation"])
    def test_a_polar_of_bidegree_n_n_has_n_n_plus_1_rows(self, name):
        # the triangle keeps half of the box's 2N(N + 1) unknowns
        f = polar_curve(next(e.web for e in BATTERY if e.name == name), AffinePoint.of(3, -2)).defining
        N = f.total_degree()
        assert (f.degree_in("x"), f.degree_in("y")) == (N, N)
        fs = _y_primitive_shear(f)
        assert (len(_gao_rows(fs)), len(_box_rows(fs))) == (N * (N + 1), 2 * N * (N + 1))

    @pytest.mark.parametrize("entry", BATTERY, ids=lambda e: e.name)
    def test_rank_mod_p_is_the_rank_over_q_on_battery_polars(self, entry):
        for p in (AffinePoint.of(3, -2), AffinePoint.of(Fraction(5, 7), Fraction(-4, 3))):
            curve = polar_curve(entry.web, p)
            if isinstance(curve, RadialProduct) or curve.defining.total_degree() <= 0:
                continue
            f = curve.defining
            fs = _y_primitive_shear(f)
            rows = _gao_rows(fs)
            count_mod_p = len(rows) - sum(_independent_mod_p(rows))
            assert count_mod_p == len(rows) - _integer_rank(rows) == _absolute_factor_count(f)

    EIGHT_WEB = DX * (X * DX + Y * DY) * (DX**2 - DY**2) * (DX**2 - 4 * DY**2) * (DX**2 - 9 * DY**2)

    def test_polar_of_the_eight_web(self):
        assert curve_component_count(polar_curve(SymWeb(self.EIGHT_WEB), AffinePoint.of(3, -2))) == 8

    def test_polar_of_the_eight_web_at_a_large_denominator_center(self):
        # a cleared polar with 70-bit coefficients that needs the shear
        # lam = 4; under 1 s on the triangle, and the rows of the whole box
        # (7-9 s) miss the bound
        curve = polar_curve(SymWeb(self.EIGHT_WEB), AffinePoint.of(Fraction(-1, 49), Fraction(7, 6)))
        start = time.perf_counter()
        assert curve_component_count(curve) == 8
        assert time.perf_counter() - start < 5

    def test_two_web_with_a_degenerate_line(self):
        # a line through (1, 0), where every coefficient vanishes, used to
        # make this web look decomposable
        web = SymWeb((3 * X + Y - 3) * DX**2 + (X - 2 * Y - 1) * DX * DY + (3 * X + Y - 3) * DY**2)
        report = generic_polar_irreducible(web)
        assert report.passed, report.render_text()

    def test_three_web_with_linear_coefficients(self):
        web = SymWeb((X + 3 * Y - 1) * DX**3 + (X - Y - 3) * DX**2 * DY
                     + (-3 * X + 2 * Y - 2) * DX * DY**2 + (X + 2 * Y + 1) * DY**3)
        start = time.perf_counter()
        report = generic_polar_irreducible(web)
        assert report.passed, report.render_text()
        assert time.perf_counter() - start < 2
