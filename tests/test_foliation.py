"""Inflexion divisor, quasi-radial classification, dichotomy, class, bound."""

import json
from fractions import Fraction
from itertools import islice

import pytest

from battery import FOLIATIONS, X, Y
from polarweb import (
    AffinePoint,
    FoliationData,
    MPoly,
    PlaneCurve,
    class_of_curve,
    classify_singularity,
    inflexion_divisor,
    is_inflexion_point,
)
from polarweb.cli import run_command
from polarweb.errors import PolynomialError, WebValidationError
from polarweb.foliation import (
    _line_roots,
    classify_singularity_numeric,
    count_quasi_radial,
    inflexion_lemma_check,
    line_multiplicity_in_cone,
    polar_sing_in_inflexion_check,
    quasi_radial_bound_check,
    tangent_cone_dichotomy,
    tangent_cone_dichotomy_numeric,
)
from polarweb.sampling import GenericSampler
from polarweb.polarops import RadialProduct
from polarweb.webmodel import singular_set
from test_polarops import _count_calls

one = MPoly.constant(1)
SQRT2 = (2**0.5 + 0j, 0j)


def radial_at(monkeypatch, centers):
    """Make the polar of every center in `centers` (every center when None)
    degenerate to a radial product."""
    polar = FoliationData.polar

    def patched(self, p):
        if centers is None or p in centers:
            return RadialProduct(p, MPoly.constant(1))
        return polar(self, p)

    monkeypatch.setattr(FoliationData, "polar", patched)


def subs(f: MPoly, assignments) -> MPoly:
    use = {v: p for v, p in assignments.items() if v in f.variables}
    return f.substitute(use) if use else f


class TestFoliationData:
    def test_saturation(self):
        fol = FoliationData(X**2, X * Y)
        assert fol.saturated
        assert fol.A == X and fol.B == Y

    def test_zero_field_rejected(self):
        with pytest.raises(WebValidationError):
            FoliationData(MPoly.zero(), MPoly.zero())

    def test_degree(self):
        assert FoliationData(X**2, Y**2).degree() == 2
        assert FoliationData(2 * Y, 3 * X**2).degree() == 2


class TestInflexionDivisor:
    def test_cubic_graph_field(self):
        e = inflexion_divisor(FoliationData(one, X**2))
        assert e.defining == X.canonical()

    def test_linear_field(self):
        e = inflexion_divisor(FoliationData(one, Y))
        assert e.defining == Y.canonical()

    def test_radial_identically_zero(self):
        assert inflexion_divisor(FoliationData(X, Y)) is None

    def test_constant_divisor_is_empty_curve(self):
        e = inflexion_divisor(FoliationData(one, X))
        assert e.is_empty

    def test_shear_invariance(self):
        # computing E in sheared coordinates and shearing back gives the same curve
        fol = FoliationData(X**2, Y**2)
        e = inflexion_divisor(fol)
        lam = Fraction(2)
        # shear phi(x, y) = (x + lam*y, y); the field transforms with dphi^{-1}
        As = subs(fol.A, {"x": X + MPoly.constant(lam) * Y})
        Bs = subs(fol.B, {"x": X + MPoly.constant(lam) * Y})
        fol_sheared = FoliationData(As - MPoly.constant(lam) * Bs, Bs)
        e_sheared = inflexion_divisor(fol_sheared)
        pulled = subs(e_sheared.defining, {"x": X - MPoly.constant(lam) * Y})
        assert PlaneCurve(pulled).defining == e.defining


class TestSingInInflexion:
    @pytest.mark.parametrize("entry", FOLIATIONS, ids=lambda e: e.name)
    def test_battery(self, entry):
        report = polar_sing_in_inflexion_check(entry.foliation, seed=2, samples=6)
        assert report.passed, report.render_text()

    def test_smooth_polar_vacuous(self):
        fol = FoliationData(one, X**2)
        report = polar_sing_in_inflexion_check(fol, seed=2, samples=4)
        assert report.passed

    def test_degenerate_fixed_center_is_replaced(self, monkeypatch):
        radial_at(monkeypatch, [AffinePoint.of(0, 0)])
        report = polar_sing_in_inflexion_check(FoliationData(one, X**2), seed=2, samples=4)
        assert report.samples_used == 4 and len(report.assertions) == 4
        assert report.discards == [("(0, 0)", "polar degenerates (radial factor)")]
        assert report.passed, report.render_text()


class TestClassification:
    def test_radial_point(self):
        cls = classify_singularity(FoliationData(X, Y), AffinePoint.of(0, 0))
        assert cls.quasi_radial and cls.radial_cofactor == 1

    def test_saddle_not_quasi_radial(self):
        cls = classify_singularity(FoliationData(X, -Y), AffinePoint.of(0, 0))
        assert not cls.quasi_radial

    def test_squares_not_quasi_radial(self):
        cls = classify_singularity(FoliationData(X**2, Y**2), AffinePoint.of(0, 0))
        assert not cls.quasi_radial and cls.first_jet_order == 2

    def test_nonsingular_point_rejected(self):
        with pytest.raises(PolynomialError):
            classify_singularity(FoliationData(X, Y), AffinePoint.of(1, 1))

    def test_scaling_invariance(self):
        c1 = classify_singularity(FoliationData(X - Y**2, Y + X**2), AffinePoint.of(0, 0))
        c2 = classify_singularity(
            FoliationData(7 * (X - Y**2), 7 * (Y + X**2)), AffinePoint.of(0, 0)
        )
        assert c1.quasi_radial == c2.quasi_radial == True

    def test_linear_change_invariance(self):
        # push the saddle through (x, y) -> (x+y, x-y): still not quasi-radial
        A, B = X, -Y
        u, v = X + Y, X - Y
        Anew = subs(A, {"x": u, "y": v}) + subs(B, {"x": u, "y": v})
        Bnew = subs(A, {"x": u, "y": v}) - subs(B, {"x": u, "y": v})
        cls = classify_singularity(FoliationData(Anew, Bnew), AffinePoint.of(0, 0))
        assert not cls.quasi_radial

    def test_numeric_matches_exact(self):
        fol = FoliationData(X - Y**2, Y + X**2)
        exact = classify_singularity(fol, AffinePoint.of(0, 0))
        numeric = classify_singularity_numeric(fol, (0j, 0j))
        assert exact.quasi_radial == numeric.quasi_radial == True

    def test_numeric_jets_keep_their_relative_scale(self):
        # at (sqrt 2, 0): A_1 = 2 sqrt(2) u with B_1 = v is not a multiple of
        # (u, v); with B_1 = 2 sqrt(2) v it is
        assert not classify_singularity_numeric(FoliationData(X**2 - 2, Y), SQRT2).quasi_radial
        assert classify_singularity_numeric(FoliationData(X**2 - 2, 2 * X * Y), SQRT2).quasi_radial


class TestDichotomy:
    def test_radial_spec_example(self):
        fol = FoliationData(X, Y)
        jets_cone = (X * 2 - Y).canonical()
        curve = fol.polar(AffinePoint.of(1, 2))
        from polarweb.mpoly import jet_decompose

        jets = jet_decompose(curve.raw, ("x", "y"), (0, 0))
        assert jets[min(jets)].canonical() == jets_cone
        assert line_multiplicity_in_cone(jets[min(jets)], Fraction(1), Fraction(2)) == 1

    @pytest.mark.parametrize(
        "fol",
        [FoliationData(X, Y), FoliationData(X, -Y), FoliationData(X**2, Y**2),
         FoliationData(X - Y**2, Y + X**2)],
        ids=["radial", "saddle", "squares", "qr-perturbed"],
    )
    def test_rational_points(self, fol):
        report = tangent_cone_dichotomy(fol, AffinePoint.of(0, 0), seed=1, samples=6)
        assert report.passed, report.render_text()

    @pytest.mark.parametrize("entry", FOLIATIONS, ids=lambda e: e.name)
    def test_battery_all_rational_singularities(self, entry):
        sing = singular_set(entry.foliation.as_web)
        for q in sing.points:
            report = tangent_cone_dichotomy(entry.foliation, q, seed=1, samples=4)
            assert report.passed, report.render_text()
        for q in sing.numeric_points:
            report = tangent_cone_dichotomy_numeric(entry.foliation, q, seed=1, samples=4)
            assert report.passed, report.render_text()

    def test_numeric_redraws_after_radial_polar(self, monkeypatch):
        fol = FoliationData(X**2 - 2, Y)
        first = AffinePoint(*GenericSampler(3).point())
        radial_at(monkeypatch, [first])
        report = tangent_cone_dichotomy_numeric(fol, SQRT2, seed=3, samples=4)
        assert report.samples_used == 4 and len(report.assertions) == 4
        assert report.discards == [(str(first), "polar degenerates")]
        assert report.passed, report.render_text()

    @pytest.mark.parametrize(
        "A, B",
        [("x^2 - 2", "y"), ("-x^2 + 3*x*y - 2*x", "3*y^2 - 2"),
         ("3*x^3 + x*y^2", "3*x^3 + y^3 + 2*x^2 - 2*y^2 - 2*y + 1")],
    )
    def test_cli_at_irrational_singular_points(self, tmp_path, A, B):
        path = tmp_path / "fol.txt"
        path.write_text(f"type: foliation\nA: {A}\nB: {B}\n")
        code, text = run_command(["check", "--in", str(path), "--theorem", "qr-dichotomy",
                                  "--samples", "4", "--json"])
        assert code == 0, text
        assert json.loads(text)["report"]["certificates"] == {"cone_root_match_tolerance": "1.000000e-06"}


class TestInflexionPoint:
    def test_classical_inflexion(self):
        assert is_inflexion_point(PlaneCurve(Y - X**3), AffinePoint.of(0, 0))

    def test_parabola_vertex(self):
        assert not is_inflexion_point(PlaneCurve(Y - X**2), AffinePoint.of(0, 0))

    def test_conic_has_no_inflexions(self):
        assert not is_inflexion_point(PlaneCurve(X**2 + Y**2 - 1), AffinePoint.of(1, 0))

    def test_singular_point_rejected(self):
        with pytest.raises(PolynomialError):
            is_inflexion_point(PlaneCurve(X * Y), AffinePoint.of(0, 0))


class TestInflexionLemma:
    def test_spec_example_on_divisor(self):
        fol = FoliationData(one, X**2)
        curve = fol.polar(AffinePoint.of(0, 0))
        assert is_inflexion_point(curve, AffinePoint.of(0, 0))

    def test_spec_example_off_divisor(self):
        fol = FoliationData(one, X**2)
        p = AffinePoint.of(1, 1)
        assert not is_inflexion_point(fol.polar(p), p)

    def test_degenerate_all_lines(self):
        report = inflexion_lemma_check(FoliationData(X, Y), seed=1)
        assert report.passed  # skipped with reason

    @pytest.mark.parametrize("entry", FOLIATIONS, ids=lambda e: e.name)
    def test_battery(self, entry):
        report = inflexion_lemma_check(entry.foliation, seed=4, on_curve=2, off_curve=4)
        assert report.passed, report.render_text()

    def test_short_off_divisor_stratum_fails(self, monkeypatch):
        radial_at(monkeypatch, None)
        report = inflexion_lemma_check(FoliationData(one, X**2), seed=1, on_curve=1, off_curve=2)
        sampling = [a for a in report.assertions if a.name == "sampling"]
        assert [(a.passed, a.detail) for a in sampling] == [
            (False, "only 0 of 2 admissible samples in 100 draws")
        ]
        assert not report.passed


class TestLineRootWork:
    def test_ten_lines_take_the_integer_terms_once(self, monkeypatch):
        fol = FoliationData(X**2 + Y, X * Y - 1)
        e = inflexion_divisor(fol)
        terms = _count_calls(monkeypatch, "_integer_terms")
        wraps = _count_calls(monkeypatch, "_from_int_coeffs")
        assert len(list(islice(_line_roots(e, GenericSampler(0)), 10))) == 10
        # the divisor's terms once, and no restriction wrapped into an MPoly
        assert (len(terms), wraps) == (1, [])


class TestClassOfCurve:
    def test_smooth_conic(self):
        assert class_of_curve(PlaneCurve(X**2 + Y**2 - 1)) == 2

    def test_nodal_cubic(self):
        assert class_of_curve(PlaneCurve(Y**2 - X**2 * (X + 1))) == 4

    def test_cuspidal_cubic(self):
        assert class_of_curve(PlaneCurve(Y**2 - X**3)) == 3

    def test_line_rejected(self):
        with pytest.raises(PolynomialError):
            class_of_curve(PlaneCurve(X + Y))

    def test_two_auxiliary_points_agree_by_construction(self):
        # different seeds use different auxiliary points; the class is stable
        curve = PlaneCurve(Y**2 - X**3 + X + 1)
        assert class_of_curve(curve, seed=1) == class_of_curve(curve, seed=99)


class TestQuasiRadialBound:
    @pytest.mark.parametrize("entry", FOLIATIONS, ids=lambda e: e.name)
    def test_battery(self, entry):
        report = quasi_radial_bound_check(entry.foliation, seed=5, samples=2)
        assert report.passed, report.render_text()

    def test_degenerate_skipped(self):
        report = quasi_radial_bound_check(FoliationData(X, Y), seed=5, samples=2)
        assert report.passed

    def test_qr_count_perturbed_radial(self):
        count, _, _ = count_quasi_radial(FoliationData(X - Y**2, Y + X**2))
        assert count >= 1
