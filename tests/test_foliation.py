"""Inflexion divisor, quasi-radial classification, dichotomy, class, bound."""

import json
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from battery import (
    BATTERY,
    DX,
    DY,
    FOLIATIONS,
    X,
    Y,
    break_family,
    cone_multiplicity,
    dichotomy_mismatches,
    rational_dichotomy_mismatches,
    to_sympy,
)
from polarweb import (
    AffinePoint,
    MPoly,
    PlaneCurve,
    SymWeb,
    class_of_curve,
    classify_singularity,
    inflexion_divisor,
    is_inflexion_point,
    polar_curve,
    web_degree,
)
from polarweb import foliation
from polarweb.cli import _dichotomy_all_singularities, run_command
from polarweb.errors import DegenerateSampleError, PolynomialError, WebValidationError
from polarweb.parsing import parse_polynomial
from polarweb.foliation import (
    classify_irrational,
    count_quasi_radial,
    inflexion_lemma_check,
    polar_sing_in_inflexion_check,
    quasi_radial_bound_check,
    tangent_cone_dichotomy,
)
from polarweb.mpoly import exact_div, gcd_fold, jet_decompose, proper_shears, resultant, shear
from polarweb.reports import CheckReport
from polarweb.sampling import GenericSampler
from polarweb.polarops import A_VAR, B_VAR, RadialProduct, inflexion_of_field
from polarweb.webmodel import singular_set

one = MPoly.constant(1)
ORIGIN = AffinePoint.of(0, 0)
IDENTITY = "Hessian of P_p at p on its tangent = c·E(p)"
LINEAR_IDENTITY = "P = c·(aB - bA + Ay - Bx)"
CUBIC_MONOMIALS = [(i, j) for i in range(4) for j in range(4 - i)]
cubic_coefficients = st.lists(st.integers(-3, 3), min_size=len(CUBIC_MONOMIALS), max_size=len(CUBIC_MONOMIALS))


def subs(f: MPoly, assignments) -> MPoly:
    use = {v: p for v, p in assignments.items() if v in f.variables}
    return f.substitute(use) if use else f


class TestOfField:
    def test_saturation(self):
        # x^2 d/dx + xy d/dy is x times the radial field, whose form x*dy - y*dx
        # has a negative leading coefficient: the field reads back as -(x, y)
        fol = SymWeb.of_field(X**2, X * Y)
        assert fol.common_factor == X
        assert fol.field == (-X, -Y)

    def test_zero_field_rejected(self):
        with pytest.raises(WebValidationError):
            SymWeb.of_field(MPoly.zero(), MPoly.zero())

    def test_degree(self):
        assert web_degree(SymWeb.of_field(X**2, Y**2)) == 2
        assert web_degree(SymWeb.of_field(2 * Y, 3 * X**2)) == 2

    @pytest.mark.parametrize("A, B", [
        *[pytest.param(*e.foliation.field, id=e.name) for e in BATTERY if e.foliation is not None],
        pytest.param((X**2 - Y) * (3 * X + Y**2 - 1), (X**2 - Y) * (2 * X * Y - 5), id="saturated"),
        pytest.param(MPoly.constant(1), MPoly.zero(), id="A=1 B=0"),
        pytest.param(MPoly.zero(), 2 * X, id="A=0 B=2x"),
    ])
    def test_form_is_a_dy_minus_b_dx(self, A, B):
        fol = SymWeb.of_field(A, B)
        if fol.common_factor is not None:
            A, B = exact_div(A, fol.common_factor), exact_div(B, fol.common_factor)
        want = (A * DY - B * DX).canonical()
        # the same terms in the operators' order
        assert list(fol.form.terms.items()) == list(want.terms.items())
        assert fol.form.variables == want.variables
        # the field read back is the canonical form's
        assert fol.field[0] * DY - fol.field[1] * DX == fol.form


class TestInflexionDivisor:
    def test_cubic_graph_field(self):
        e = inflexion_divisor(SymWeb.of_field(one, X**2))
        assert e.defining == X.canonical()

    def test_linear_field(self):
        e = inflexion_divisor(SymWeb.of_field(one, Y))
        assert e.defining == Y.canonical()

    def test_radial_identically_zero(self):
        assert inflexion_divisor(SymWeb.of_field(X, Y)) is None

    def test_constant_divisor_is_empty_curve(self):
        e = inflexion_divisor(SymWeb.of_field(one, X))
        assert e.is_empty

    def test_shear_invariance(self):
        # computing E in sheared coordinates and shearing back gives the same curve
        fol = SymWeb.of_field(X**2, Y**2)
        e = inflexion_divisor(fol)
        lam = Fraction(2)
        # shear phi(x, y) = (x + lam*y, y); the field transforms with dphi^{-1}
        As = subs(X**2, {"x": X + MPoly.constant(lam) * Y})
        Bs = subs(Y**2, {"x": X + MPoly.constant(lam) * Y})
        fol_sheared = SymWeb.of_field(As - MPoly.constant(lam) * Bs, Bs)
        e_sheared = inflexion_divisor(fol_sheared)
        pulled = subs(e_sheared.defining, {"x": X - MPoly.constant(lam) * Y})
        assert PlaneCurve(pulled).defining == e.defining


class TestSingInInflexion:
    @pytest.mark.parametrize("entry", FOLIATIONS, ids=lambda e: e.name)
    def test_battery(self, entry):
        report = polar_sing_in_inflexion_check(entry.foliation)
        assert report.passed, report.render_text()
        assert report.samples_used == 0 and len(report.assertions) == 1

    def test_smooth_polar_vacuous(self):
        # d/dx + x^2 d/dy reads back as (-1, -x^2), the field of the
        # canonical form x^2*dx - dy
        fol = SymWeb.of_field(one, X**2)
        report = polar_sing_in_inflexion_check(fol)
        assert report.passed
        assert [(a.name, a.detail) for a in report.assertions] == [(LINEAR_IDENTITY, "c = -1")]

    @given(cubic_coefficients, cubic_coefficients)
    @settings(max_examples=20, deadline=None)
    def test_det_M_matches_sympy(self, ca, cb):
        sympy = pytest.importorskip("sympy")
        R, x, y, a, b = sympy.ring("x,y,a,b", sympy.ZZ)
        A, B = (sum((c * x**i * y**j for (i, j), c in zip(CUBIC_MONOMIALS, cs)), R.zero) for cs in (ca, cb))
        assume(A and B)  # a zero component with a nonconstant other one is no foliation

        def det3(m):
            return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
                    - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
                    + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))

        # the rows of M are P, P_x and P_y as linear forms in (a, b, 1)
        F = A * (y - b) - B * (x - a)
        M = [[f.diff(a), f.diff(b), f.compose([(a, R.zero), (b, R.zero)])] for f in (F, F.diff(x), F.diff(y))]
        E = B**2 * A.diff(y) + A * B * A.diff(x) - A**2 * B.diff(x) - A * B * B.diff(y)
        assert det3(M) == -E
        # M' after column 3 += x·column 1 + y·column 2
        assert [row[2] + x * row[0] + y * row[1] for row in M] == [R.zero, -B, A]
        assert det3([[B, -A, R.zero], [B.diff(x), -A.diff(x), -B], [B.diff(y), -A.diff(y), A]]) == -E

        fol = SymWeb.of_field(*(sum((c * X**i * Y**j for (i, j), c in zip(CUBIC_MONOMIALS, cs)), MPoly.zero())
                              for cs in (ca, cb)))
        report = polar_sing_in_inflexion_check(fol)
        identity = [t for t in report.assertions if t.name == LINEAR_IDENTITY]
        assert report.passed
        assert len(identity) == (0 if inflexion_of_field(*fol.field).is_zero() else 1)

    def test_a_broken_family_fails(self, monkeypatch, tmp_path):
        break_family(monkeypatch)
        report = polar_sing_in_inflexion_check(SymWeb.of_field(X**2, Y**2))
        assert [(t.name, t.passed) for t in report.assertions] == [(LINEAR_IDENTITY, False)]
        assert not report.passed
        path = tmp_path / "fol.txt"
        path.write_text("type: foliation\nA: x^2\nB: y^2\n")
        code, text = run_command(["check", "--in", str(path), "--theorem", "sing-in-E", "--samples", "2"])
        assert code == 1, text


class TestClassification:
    def test_radial_point(self):
        # the radial field reads back as -(x, y), the field of y*dx - x*dy
        cls = classify_singularity(SymWeb.of_field(X, Y), AffinePoint.of(0, 0))
        assert cls.quasi_radial and cls.radial_cofactor == -1

    def test_saddle_not_quasi_radial(self):
        cls = classify_singularity(SymWeb.of_field(X, -Y), AffinePoint.of(0, 0))
        assert not cls.quasi_radial

    def test_squares_not_quasi_radial(self):
        cls = classify_singularity(SymWeb.of_field(X**2, Y**2), AffinePoint.of(0, 0))
        assert not cls.quasi_radial and cls.first_jet_order == 2

    def test_nonsingular_point_rejected(self):
        with pytest.raises(PolynomialError):
            classify_singularity(SymWeb.of_field(X, Y), AffinePoint.of(1, 1))

    def test_scaling_invariance(self):
        c1 = classify_singularity(SymWeb.of_field(X - Y**2, Y + X**2), AffinePoint.of(0, 0))
        c2 = classify_singularity(
            SymWeb.of_field(7 * (X - Y**2), 7 * (Y + X**2)), AffinePoint.of(0, 0)
        )
        assert c1.quasi_radial == c2.quasi_radial == True

    def test_linear_change_invariance(self):
        # push the saddle through (x, y) -> (x+y, x-y): still not quasi-radial
        A, B = X, -Y
        u, v = X + Y, X - Y
        Anew = subs(A, {"x": u, "y": v}) + subs(B, {"x": u, "y": v})
        Bnew = subs(A, {"x": u, "y": v}) - subs(B, {"x": u, "y": v})
        cls = classify_singularity(SymWeb.of_field(Anew, Bnew), AffinePoint.of(0, 0))
        assert not cls.quasi_radial

    def test_numeric_matches_exact(self):
        # x - y^2, y + x^2: the origin and (1, -1) are rational, and the
        # points (w, -w^2) with w^2 + w + 1 = 0 are one group, classified on
        # it; every class against sympy's jets at sympy's solutions
        sympy = pytest.importorskip("sympy")
        fol = SymWeb.of_field(X - Y**2, Y + X**2)
        sing = singular_set(fol)
        ours = [((complex(q.a), complex(q.b)), classify_singularity(fol, q)) for q in sing.rational]
        ours += [(c.point, c) for c in classify_irrational(fol, sing.groups)]
        assert [c.quasi_radial for _, c in ours] == [True, False, False, False]
        x, y = sympy.symbols("x y")
        solutions = sympy.solve([to_sympy(sympy, f) for f in fol.field], [x, y])
        assert len(solutions) == len(ours)
        for q in solutions:
            point, cls = min(ours, key=lambda o: distance(o[0], q))
            assert distance(point, q) < 1e-9
            assert (cls.first_jet_order, cls.quasi_radial) == sympy_class(sympy, fol, q)

    def test_numeric_jets_keep_their_relative_scale(self):
        # at (+-sqrt 2, 0): A_1 = +-2 sqrt(2) u with B_1 = v is not a multiple
        # of (u, v); with B_1 = +-2 sqrt(2) v it is
        for B, radial in ((Y, False), (2 * X * Y, True)):
            fol = SymWeb.of_field(X**2 - 2, B)
            classes = classify_irrational(fol, singular_set(fol).groups)
            assert [(c.first_jet_order, c.quasi_radial) for c in classes] == [(1, radial)] * 2

    def test_one_group_splits_into_both_classes(self):
        # one group of four points (+-sqrt 2, 0), (+-sqrt 3, 0): at x = +-sqrt 2,
        # A_1 = -+2 sqrt(2) u and B_1 = -+2 sqrt(2) v; at x = +-sqrt 3,
        # A_1 = +-2 sqrt(3) u and B_1 = -+2 sqrt(3) v
        fol = SymWeb.of_field((X**2 - 2) * (X**2 - 3), -2 * X * Y)
        sing = singular_set(fol)
        assert [len(group.w) - 1 for group in sing.groups] == [4]
        classes = classify_irrational(fol, sing.groups)
        roots = [-(3**0.5), -(2**0.5), 2**0.5, 3**0.5]
        assert [(c.first_jet_order, c.quasi_radial) for c in classes] == [(1, False), (1, True), (1, True), (1, False)]
        assert all(distance(c.point, (r, 0)) < 1e-12 for c, r in zip(classes, roots))

    @pytest.mark.parametrize("A, B, radial", [
        ((X**2 - 2) ** 2 + Y**3, 2 * X * Y * (X**2 - 2) + Y**3, True),
        ((X**2 - 2) ** 2, Y * (X**2 - 2) + Y**2, False),
    ], ids=["quasi-radial", "not quasi-radial"])
    def test_a_group_of_jet_order_2(self, A, B, radial):
        # at (+-sqrt 2, 0): A_2 = 8u^2 with B_2 = 8uv, or with 2 sqrt(2) uv + v^2
        fol = SymWeb.of_field(A, B)
        classes = classify_irrational(fol, singular_set(fol).groups)
        pair = [c for c in classes if distance(c.point, (2**0.5, 0)) < 1e-12 or distance(c.point, (-(2**0.5), 0)) < 1e-12]
        assert [(c.first_jet_order, c.quasi_radial) for c in pair] == [(2, radial)] * 2
        assert all(c.first_jet_order == 1 and not c.quasi_radial for c in classes if c not in pair)

    @given(st.integers(1, 2), st.booleans(), st.sampled_from([2, 3, 5, -1, -3]), st.data())
    @settings(max_examples=25, deadline=None)
    def test_a_planted_conjugate_pair_against_sympy(self, k, radial, c, data):
        """Two conjugate points q = (r1 + s1*e, r2 + s2*e), e = +-sqrt(c),
        of jet order k, quasi-radial or not.  They are the zeros of
        m = (x - r1)^2 - s1^2*c and l = s1*(y - r2) - s2*(x - r1), and in
        u = x - q_x, v = y - q_y their jets are m ~ 2*s1*e*u,
        l = s1*v - s2*u, so 2*(x - r1)*l + s2*m ~ 2*s1^2*e*v.  A
        coefficient p + t*(x - r1) is p + t*s1*e at q."""
        sympy = pytest.importorskip("sympy")
        small = st.fractions(-2, 2, max_denominator=2)
        r1, r2, s2 = (data.draw(small) for _ in range(3))
        s1 = data.draw(small.filter(bool))
        xr = X - r1
        m, line = xr**2 - s1**2 * c, s1 * (Y - r2) - s2 * xr

        def unit():
            p, t = data.draw(small), data.draw(small)
            assume(p or t)
            return p + t * xr

        def form(degree):
            return sum((unit() * m**i * line ** (degree - i) for i in range(degree + 1)), MPoly.zero())

        if radial:
            # A_k = 2*s1^2*e*u*Q_(k-1) and B_k = 2*s1^2*e*v*Q_(k-1)
            cofactor = form(k - 1)
            A, B = s1 * m * cofactor, (2 * xr * line + s2 * m) * cofactor
        else:
            A, B = form(k), form(k)
        fol = SymWeb.of_field(A + data.draw(small) * line ** (k + 1), B + data.draw(small) * m * line**k)
        assume(fol.common_factor is None)
        e = sympy.sqrt(c)
        pair = [tuple(sympy.Rational(r.numerator, r.denominator) + sympy.Rational(s.numerator, s.denominator) * sign * e
                      for r, s in ((r1, s1), (r2, s2))) for sign in (1, -1)]
        expected = sympy_class(sympy, fol, pair[0])
        assume(radial or not expected[1])
        assert expected == (k, radial) == sympy_class(sympy, fol, pair[1])
        sing = singular_set(fol)
        classes = classify_irrational(fol, sing.groups)
        assert len(classes) == len(sing.numeric)
        for q in pair:
            cls = min(classes, key=lambda cl: distance(cl.point, q))
            assert distance(cls.point, q) < 1e-6
            assert (cls.first_jet_order, cls.quasi_radial) == expected


def distance(p: tuple[complex, complex], q) -> float:
    """The distance of two points, the second one possibly sympy's."""
    return max(abs(complex(a) - complex(b)) for a, b in zip(p, q))


def sympy_class(sympy, fol: SymWeb, q) -> tuple[int, bool]:
    """(first jet order, quasi-radial) at a singular point q given exactly in
    sympy, from the Taylor expansion of A and B at q in sympy's arithmetic:
    in Q(sqrt c), an expanded value is 0 only when it is."""
    x, y, u, v = sympy.symbols("x y u v")
    shifted = [sympy.Poly(sympy.expand(to_sympy(sympy, f).subs({x: q[0] + u, y: q[1] + v}, simultaneous=True)), u, v)
               for f in fol.field]
    for k in range(1, max(p.total_degree() for p in shifted) + 1):
        ak, bk = (sympy.expand(sum((c * u**i * v**j for (i, j), c in p.terms() if i + j == k), sympy.S.Zero))
                  for p in shifted)
        if ak != 0 or bk != 0:
            return k, sympy.expand(v * ak - u * bk) == 0
    raise AssertionError(f"A and B vanish to every order at {q}")


def planted_foliation(q: AffinePoint, ak: MPoly, bk: MPoly, a_next: MPoly, b_next: MPoly) -> SymWeb:
    """A = A_k + A_(k+1), B = B_k + B_(k+1) in coordinates centered at q."""
    to_q = {"x": X - q.a, "y": Y - q.b}
    return SymWeb.of_field((ak + a_next).substitute(to_q), (bk + b_next).substitute(to_q))


def binary_form(coefficients: list[int]) -> MPoly:
    """sum c_i x^(d - i) y^i, d = len(coefficients) - 1."""
    d = len(coefficients) - 1
    return sum((c * X ** (d - i) * Y**i for i, c in enumerate(coefficients)), MPoly.zero())


class TestDichotomy:
    """The multiplicity that the dichotomy claims for the line pq in the
    tangent cone of P_p at q, against the cone itself (`cone_multiplicity`)."""

    def test_radial_spec_example(self):
        fol = SymWeb.of_field(X, Y)
        report = CheckReport("qr-dichotomy")
        assert tangent_cone_dichotomy(report, fol, ORIGIN) == (1, -one)
        jets = jet_decompose(polar_curve(fol, AffinePoint.of(1, 2)).raw, ("x", "y"), (0, 0))
        assert jets[min(jets)].canonical() == (X * 2 - Y).canonical()
        assert cone_multiplicity(fol, ORIGIN, AffinePoint.of(1, 2)) == 1
        assert report.notes == ["singular point (0, 0): quasi-radial (first jet order 1): line pq is a simple "
                                "tangent of P_p at q for p ≠ q off Q(p - q) = 0, Q = A_1/x = B_1/y = -1"]

    @pytest.mark.parametrize(
        "fol",
        [SymWeb.of_field(X, Y), SymWeb.of_field(X, -Y), SymWeb.of_field(X**2, Y**2),
         SymWeb.of_field(X - Y**2, Y + X**2)],
        ids=["radial", "saddle", "squares", "qr-perturbed"],
    )
    def test_rational_points(self, fol):
        assert dichotomy_mismatches(fol, seed=1, centers=6) == []

    @pytest.mark.parametrize("entry", FOLIATIONS, ids=lambda e: e.name)
    def test_battery_all_rational_singularities(self, entry):
        # the irrational points against the cone in floats
        assert dichotomy_mismatches(entry.foliation, seed=1, centers=4) == []

    @given(st.integers(1, 3), st.booleans(), st.data())
    @settings(max_examples=25, deadline=None)
    def test_planted_rational_singular_point(self, k, radial, data):
        small = st.integers(-3, 3)
        entry = st.fractions(-3, 3, max_denominator=3)
        q = AffinePoint(data.draw(entry), data.draw(entry))

        def form(degree):
            return binary_form(data.draw(st.lists(small, min_size=degree + 1, max_size=degree + 1)))

        if radial:
            cofactor = form(k - 1)
            assume(not cofactor.is_zero())
            ak, bk = X * cofactor, Y * cofactor
        else:
            ak, bk = form(k), form(k)
            assume(not (Y * ak - X * bk).is_zero())
        fol = planted_foliation(q, ak, bk, form(k + 1), form(k + 1))
        assume(fol.common_factor is None)
        cls = classify_singularity(fol, q)
        assert (cls.quasi_radial, cls.first_jet_order) == (radial, k)
        assert rational_dichotomy_mismatches(fol, q, seed=data.draw(small), centers=3) == []

    def test_an_excluded_line_is_tangent_more_often(self):
        # at the origin Q = -x in the canonical orientation, so centers on
        # the line x = 0 are excluded: there the cone is x^2 and the line pq
        # is a double tangent
        fol = planted_foliation(ORIGIN, X**2, X * Y, Y**3, X**3)
        mult, form = tangent_cone_dichotomy(CheckReport("qr-dichotomy"), fol, ORIGIN)
        assert (mult, form) == (1, -X)
        assert cone_multiplicity(fol, ORIGIN, AffinePoint.of(0, 5)) == 2
        assert cone_multiplicity(fol, ORIGIN, AffinePoint.of(1, 5)) == 1

    def test_planted_points_of_both_kinds(self):
        # x^3 - 2x, y^3 - 2y: the origin and (+-sqrt 2, +-sqrt 2) are
        # quasi-radial, (0, +-sqrt 2) and (+-sqrt 2, 0) are not
        fol = SymWeb.of_field(X**3 - 2 * X, Y**3 - 2 * Y)
        report = _dichotomy_all_singularities(fol)
        assert report.passed and report.samples_requested == report.samples_used == 0
        kinds = sorted((n.endswith("[numeric]"), "not quasi-radial" in n) for n in report.notes)
        assert kinds == [(False, False)] + [(True, False)] * 4 + [(True, True)] * 4
        assert dichotomy_mismatches(fol, seed=1, centers=3) == []

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
        report = json.loads(text)["report"]
        assert report["certificates"] == {}
        assert [a["name"] for a in report["assertions"]] == [LINEAR_IDENTITY]
        assert report["samples"] == {"requested": 0, "used": 0, "discarded": []}
        assert all(n.endswith("[numeric]") for n in report["notes"] if "j," in n)


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
        fol = SymWeb.of_field(one, X**2)
        curve = polar_curve(fol, AffinePoint.of(0, 0))
        assert is_inflexion_point(curve, AffinePoint.of(0, 0))

    def test_spec_example_off_divisor(self):
        fol = SymWeb.of_field(one, X**2)
        p = AffinePoint.of(1, 1)
        assert not is_inflexion_point(polar_curve(fol, p), p)

    def test_degenerate_all_lines(self):
        report = inflexion_lemma_check(SymWeb.of_field(X, Y))
        assert report.passed  # skipped with reason

    @pytest.mark.parametrize("entry", FOLIATIONS, ids=lambda e: e.name)
    def test_battery(self, entry):
        report = inflexion_lemma_check(entry.foliation)
        assert report.passed, report.render_text()
        assert [a.name for a in report.assertions] == [IDENTITY]
        assert report.samples_requested == report.samples_used == 0

    @pytest.mark.parametrize("entry", FOLIATIONS, ids=lambda e: e.name)
    def test_sampled_centers_inflect_exactly_on_E(self, entry):
        # the oracle of the deleted sampling loop: at seeded regular centers
        # and at the small integer points, P_p inflects at p iff E(p) = 0
        fol, e = entry.foliation, inflexion_of_field(*entry.foliation.field)
        sampler = GenericSampler(4)
        centers = [sampler.center() for _ in range(6)] + [AffinePoint.of(i, j) for i in range(-2, 3)
                                                        for j in range(-2, 3)]
        for p in centers:
            if all(f.evaluate(p.as_dict()) == 0 for f in fol.field):
                continue
            assert is_inflexion_point(polar_curve(fol, p), p) == (e.evaluate(p.as_dict()) == 0), p

    def test_a_planted_center_on_E_inflects(self):
        # E = 2x for d/dx + x^2 d/dy, read back as (-1, -x^2): (0, 5) is on
        # E, (1, 5) is not
        fol = SymWeb.of_field(one, X**2)
        assert inflexion_of_field(*fol.field) == 2 * X
        assert is_inflexion_point(polar_curve(fol, AffinePoint.of(0, 5)), AffinePoint.of(0, 5))
        assert not is_inflexion_point(polar_curve(fol, AffinePoint.of(1, 5)), AffinePoint.of(1, 5))

    @given(cubic_coefficients, cubic_coefficients)
    @settings(max_examples=30, deadline=None)
    def test_identity_matches_sympy(self, ca, cb):
        sympy = pytest.importorskip("sympy")
        R, x, y, a, b = sympy.ring("x,y,a,b", sympy.ZZ)
        A, B = (sum((c * x**i * y**j for (i, j), c in zip(CUBIC_MONOMIALS, cs)), R.zero) for cs in (ca, cb))
        assume(A and B)  # a zero component with a nonconstant other one is no foliation

        def at(f):
            return f.compose([(x, a), (y, b)])

        # the Hessian form of A(y - b) - B(x - a) at its center (a, b), on its tangent
        F = A * (y - b) - B * (x - a)
        u, v = -at(F.diff(y)), at(F.diff(x))
        hess = at(F.diff(x).diff(x)) * u**2 + 2 * at(F.diff(x).diff(y)) * u * v + at(F.diff(y).diff(y)) * v**2
        E = B**2 * A.diff(y) + A * B * A.diff(x) - A**2 * B.diff(x) - A * B * B.diff(y)
        assert hess == 2 * at(E)

        fol = SymWeb.of_field(*(sum((c * X**i * Y**j for (i, j), c in zip(CUBIC_MONOMIALS, cs)), MPoly.zero())
                              for cs in (ca, cb)))
        report = inflexion_lemma_check(fol)
        identity = [t for t in report.assertions if t.name == IDENTITY]
        assert report.passed
        assert len(identity) == (0 if inflexion_of_field(*fol.field).is_zero() else 1)

    def test_a_wrong_divisor_fails(self, monkeypatch, tmp_path):
        def without_last_term(A, B):
            return B * B * A.derivative("y") + A * B * A.derivative("x") - A * A * B.derivative("x")

        monkeypatch.setattr(foliation, "inflexion_of_field", without_last_term)
        report = inflexion_lemma_check(SymWeb.of_field(X**2, Y**2))
        assert [(t.passed, t.detail) for t in report.assertions if t.name == IDENTITY] == [
            (False, "not a constant multiple of E")
        ]
        assert not report.passed
        path = tmp_path / "fol.txt"
        path.write_text("type: foliation\nA: x^2\nB: y^2\n")
        code, text = run_command(["check", "--in", str(path), "--theorem", "inflexion-lemma", "--samples", "2"])
        assert code == 1, text

    def test_identity_does_not_depend_on_the_seed(self, tmp_path):
        path = tmp_path / "fol.txt"
        path.write_text("type: foliation\nA: x^2\nB: y^2\n")
        seen = set()
        for seed in range(4):
            code, text = run_command(["check", "--in", str(path), "--theorem", "inflexion-lemma",
                                      "--seed", str(seed), "--samples", "2", "--json"])
            assert code == 0, text
            first = json.loads(text)["report"]["assertions"][0]
            seen.add((first["name"], first["detail"], first["mode"]))
        assert seen == {(IDENTITY, "c = -2", "exact")}


def dense_class(curve: PlaneCurve) -> int:
    """The class by one resultant in (a, b, x), R = Res_y(F_lam, G_lam), and
    the gcd of R's coefficients over the center monomials."""
    F = curve.defining
    n = F.total_degree()
    G = (A_VAR - X) * F.derivative("x") + (B_VAR - Y) * F.derivative("y") + F * n
    lam = next(proper_shears([F]))
    R = resultant(shear(F, lam), shear(G, lam), "y")
    return R.degree_in("x") - gcd_fold(center_coefficients(R)).degree_in("x")


def center_coefficients(R: MPoly) -> list[MPoly]:
    """The nonzero coefficients of R over the monomials in the center (a, b)."""
    return [c for by_a in R.coeffs_in("a") for c in by_a.coeffs_in("b") if not c.is_zero()]


def node_polar(F: MPoly, i: int, j: int) -> MPoly:
    """The sheared polar of F from the center (i, j), as `class_of_curve` takes it."""
    n = F.total_degree()
    lam = next(proper_shears([F]))
    G = (i - X) * F.derivative("x") + (j - Y) * F.derivative("y") + F * n
    return shear(G, lam)


@st.composite
def plane_factor(draw):
    """A line or a conic with coefficients in [-2, 2], not constant."""
    degree = draw(st.integers(1, 2))
    monomials = [(i, d - i) for d in range(degree + 1) for i in range(d + 1)]
    coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(monomials), max_size=len(monomials)))
    f = sum((c * X**i * Y**j for (i, j), c in zip(monomials, coeffs)), MPoly.zero())
    assume(not f.is_zero() and not f.is_constant())
    return f


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

    @given(plane_factor(), plane_factor(), plane_factor())
    @settings(max_examples=30, deadline=None)
    def test_every_node_vanishes_exactly_off_reduced_curves(self, f, g, repeated):
        # a repeated factor divides F, F_x and F_y, so every node polar; a
        # reduced curve has a nonzero node value
        curve = PlaneCurve(f * g)
        if curve.raw == curve.defining:
            assert class_of_curve(curve) == dense_class(curve)
        with pytest.raises(PolynomialError, match="needs a reduced curve"):
            class_of_curve(PlaneCurve(f * repeated**2))

    def test_cli_refuses_a_curve_that_is_not_reduced(self, tmp_path):
        path = tmp_path / "square.txt"
        path.write_text("type: curve\nf: (x^2 + y^2 - 1)^2*(x - y)\n")
        assert run_command(["class", "--in", str(path)]) == (2, "error: class_of_curve needs a reduced curve")

    # (curve, class); the deltoid's two irrational cusps share the column
    # x = -3/2, and the E6 curve has E6 points at (+-sqrt(2), 0)
    CLASSES = [
        ("(x^2 + y^2)^2 + 18*(x^2 + y^2) - 8*(x^3 - 3*x*y^2) - 27", 3),
        ("(y - x^2 + 2)^3 - (x^2 - 2)^4", 8),
        ("y^2 - x^5", 5),
        ("(x^2 + y^2)^2 - (x^2 - y^2)", 6),
        ("x*y*(x - y)*(x + y)", 0),
        ("x^4 + y^4 - 1", 12),
    ]

    @pytest.mark.parametrize("text, expected", CLASSES, ids=[c[0] for c in CLASSES])
    def test_pinned_classes(self, text, expected):
        assert class_of_curve(PlaneCurve(parse_polynomial(text))) == expected

    def test_takes_no_seed(self, tmp_path):
        with pytest.raises(TypeError):
            class_of_curve(PlaneCurve(Y**2 - X**3), seed=1)
        path = tmp_path / "deltoid.txt"
        path.write_text(f"type: curve\nf: {self.CLASSES[0][0]}\n")
        code, text = run_command(["class", "--in", str(path)])
        assert (code, [t for t in text.splitlines() if not t.startswith(("command:", "timestamp:"))]) == (0, ["class: 3"])
        assert run_command(["class", "--in", str(path), "--seed", "1"]) == (2, "")

    def test_concurrent_lines_vanish_at_a_node(self):
        # four lines through (1, 1): the polar from the node (1, 1) is 0
        F = (X - 1) * (Y - 1) * (X - Y) * (X + Y - 2)
        assert node_polar(F, 1, 1).is_zero()
        assert class_of_curve(PlaneCurve(F)) == 0 == dense_class(PlaneCurve(F))

    def test_polar_free_of_y_at_a_node(self):
        # at the node (1, 0) the polar is 8*x^2 + 4*x, whose resultant with F
        # is its cube; the polar itself in its place would give class 5
        F = parse_polynomial("2*x^3 + x*y^2 + 2*y^3 + 2*x^2 - y^2")
        assert node_polar(F, 1, 0) == 8 * X**2 + 4 * X
        assert class_of_curve(PlaneCurve(F)) == 4 == dense_class(PlaneCurve(F))

    @given(st.integers(2, 4), st.booleans(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_the_dense_route(self, n, singular, data):
        # with `singular`, no terms of degree < 2: the origin is a singular
        # point, so no node value reaches n(n - 1) with a constant gcd
        monomials = [(i, d - i) for d in range(2 * singular, n + 1) for i in range(d + 1)]
        coeffs = data.draw(st.lists(st.integers(-2, 2), min_size=len(monomials), max_size=len(monomials)))
        f = sum((c * X**i * Y**j for (i, j), c in zip(monomials, coeffs)), MPoly.zero())
        assume(not f.is_zero() and f.total_degree() == n)
        curve = PlaneCurve(f)
        assume(curve.raw == curve.defining)
        assert class_of_curve(curve) == dense_class(curve)

    # the smooth cubic stops at its second node, whose value meets the first
    # in a constant gcd; the E6 curve, class 8 < 8*7, takes all 45 nodes
    NODE_COUNTS = [("x^3 + 2*x^2*y - x*y^2 + 3*y^3 - x^2 + x*y + 2*x - y + 1", 2),
                   ("(y - x^2 + 2)^3 - (x^2 - 2)^4", 45)]

    @pytest.mark.parametrize("text, expected", NODE_COUNTS, ids=[c[0] for c in NODE_COUNTS])
    def test_one_resultant_in_two_variables_per_node(self, text, expected, monkeypatch):
        calls, real = [], foliation.resultant
        monkeypatch.setattr(foliation, "resultant",
                            lambda f, g, v: calls.append(set(f.variables) | set(g.variables)) or real(f, g, v))
        class_of_curve(PlaneCurve(parse_polynomial(text)))
        assert len(calls) == expected
        assert all(names == {"x", "y"} for names in calls)

    @given(st.sampled_from([3, 4]), st.booleans(), st.data())
    @settings(max_examples=30, deadline=None)
    def test_invariant_under_affine_changes(self, n, singular, data):
        # with `singular`, no terms of degree < 2: the origin is a singular point
        monomials = [(i, d - i) for d in range(2 * singular, n + 1) for i in range(d + 1)]
        coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=len(monomials), max_size=len(monomials)))
        f = sum((c * X**i * Y**j for (i, j), c in zip(monomials, coeffs)), MPoly.zero())
        assume(not f.is_zero() and f.total_degree() == n)
        curve = PlaneCurve(f)
        assume(curve.raw == curve.defining)
        entry = st.fractions(-3, 3, max_denominator=3)
        p, q, r, s, u, v = (data.draw(entry) for _ in range(6))
        assume(p * s != q * r)
        moved = f.substitute({"x": X * p + Y * q + u, "y": X * r + Y * s + v})
        assert class_of_curve(PlaneCurve(moved)) == class_of_curve(curve)


def sampled_classes(fol: SymWeb, seed: int, samples: int) -> list[int]:
    """The oracle of the deleted sampled `qr-bound` loop: the class of the
    polar at up to `samples` seeded centers whose polar is square-free of
    degree d + 1."""
    sampler, classes, n = GenericSampler(seed), [], web_degree(fol) + 1
    for _ in range(50 * samples):
        curve = polar_curve(fol, sampler.center())
        if isinstance(curve, RadialProduct) or curve.raw.total_degree() < n or curve.raw != curve.defining:
            continue
        classes.append(class_of_curve(curve))
        if len(classes) == samples:
            break
    return classes


class TestQuasiRadialBound:
    @pytest.mark.parametrize("entry", FOLIATIONS, ids=lambda e: e.name)
    def test_battery(self, entry):
        # the witness's class is at most the generic class: the class of
        # every seeded center whose polar is square-free of full degree
        report = quasi_radial_bound_check(entry.foliation)
        assert report.passed, report.render_text()
        assert report.seed is None and report.samples_requested == report.samples_used == 0
        if inflexion_of_field(*entry.foliation.field).is_zero():
            return
        [witness] = report.assertions
        cls = int(witness.detail.rsplit("class = ", 1)[1])
        classes = sampled_classes(entry.foliation, seed=5, samples=5)
        assert len(classes) == 5 and min(classes) >= cls, (classes, cls)

    def test_degenerate_skipped(self):
        report = quasi_radial_bound_check(SymWeb.of_field(X, Y))
        assert report.passed

    def test_qr_count_perturbed_radial(self):
        count, _ = count_quasi_radial(SymWeb.of_field(X - Y**2, Y + X**2))
        assert count >= 1

    def test_the_circle_pencil_passes_its_center(self):
        # P_(0,0) = -(x^2 + y^2), two lines over C of class 0 < #QR + 1 = 1
        report = quasi_radial_bound_check(SymWeb.of_field(-Y, X))
        assert [(a.name, a.detail) for a in report.assertions] == [
            ("#Sing_QR <= class(P_p) - 1 at p=(0, 1)", "#QR = 0, class = 2")]
        assert report.notes[-1] == "special center (0, 0): class 0 < #QR + 1"

    def test_a_polar_that_is_not_square_free_is_passed(self):
        # P_(0,0) = (x - y)^2 and E = (x - y)^2, the field read back as
        # (y, 2y - x): the class refuses it, the walk passes it
        fol = SymWeb.of_field(-Y, X - 2 * Y)
        assert inflexion_of_field(*fol.field) == (X - Y) ** 2
        report = quasi_radial_bound_check(fol)
        assert report.passed and [a.name for a in report.assertions] == ["#Sing_QR <= class(P_p) - 1 at p=(0, 1)"]
        assert report.notes[-1] == "special center (0, 0): the polar is not square-free"

    def test_the_bound_is_tight(self):
        # five quasi-radial points; P_(0,0) = xy(x^2 - y^2) has class 0
        report = quasi_radial_bound_check(SymWeb.of_field(X**3 - 2 * X, Y**3 - 2 * Y))
        assert [(a.name, a.detail) for a in report.assertions] == [
            ("#Sing_QR <= class(P_p) - 1 at p=(0, 1)", "#QR = 5, class = 6")]
        assert report.notes[-1] == "special center (0, 0): class 0 < #QR + 1"

    def test_a_walk_without_a_witness_aborts(self, monkeypatch, tmp_path):
        # a walk that finds no witness proves nothing: exit 3, not a FAIL
        monkeypatch.setattr(foliation, "class_of_curve", lambda curve: 0)
        with pytest.raises(DegenerateSampleError, match=r"^qr-bound: no center of the 4 x 4 grid "):
            quasi_radial_bound_check(SymWeb.of_field(-Y, X))
        path = tmp_path / "circles.txt"
        path.write_text("type: foliation\nA: -y\nB: x\n")
        code, text = run_command(["check", "--in", str(path), "--theorem", "qr-bound"])
        assert code == 3 and text.startswith("numeric abort: qr-bound: no center of the 4 x 4 grid"), text

    def test_numeric_points_certify_the_classification(self):
        report = quasi_radial_bound_check(SymWeb.of_field(X**3 - 2 * X, Y**3 - 2 * Y))
        assert report.passed and report.mode == "exact"
        assert report.certificates == {}
        assert quasi_radial_bound_check(SymWeb.of_field(X, -Y + X**2)).certificates == {}
