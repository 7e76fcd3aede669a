"""Webs on the affine chart: degree, singular set, discriminant, directions."""

import random
from fractions import Fraction
from math import prod

import pytest
from hypothesis import assume, given, settings, strategies as st

from battery import BATTERY, DX, DY, X, Y, vanishes_numerically
from polarweb import (
    AffinePoint,
    MPoly,
    SymWeb,
    discriminant_curve,
    is_smooth_point,
    singular_set,
    tangent_directions,
    web_degree,
)
from polarweb.errors import DegenerateSampleError, NumericAbortError, PolynomialError, WebValidationError
from polarweb.mpoly import try_exact_div
from polarweb.polarops import radial_form
from polarweb.webmodel import form_at

w_product = SymWeb(DX * DY)
w_radial = SymWeb(X * DY - Y * DX)
w_circles = SymWeb(X * DX + Y * DY)
w_sqrt = SymWeb(DY**2 - X * DX**2)


class TestValidation:
    def test_zero_form_rejected(self):
        with pytest.raises(WebValidationError):
            SymWeb(MPoly.zero())

    def test_inhomogeneous_rejected(self):
        with pytest.raises(WebValidationError):
            SymWeb(DX + X)

    def test_non_primitive_rejected_then_saturated(self):
        # the factor x that every coefficient shares is divided out
        web = SymWeb(X * DX * DY)
        assert web.form == (DX * DY).canonical() and web.common_factor == X

    def test_k_inferred(self):
        assert w_product.k == 2 and w_radial.k == 1 and w_sqrt.k == 2


class TestSuperpose:
    def test_product_of_lines(self):
        s = SymWeb(DX * DY)
        assert s.k == 2 and s.form == (DX * DY).canonical()
        assert s.generically_squarefree

    def test_radial_times_vertical(self):
        s = SymWeb(w_radial.form * DX)
        assert s.k == 2
        assert s.form == ((X * DY - Y * DX) * DX).canonical()

    def test_repeated_factor_flagged(self):
        s = SymWeb(w_sqrt.form * w_sqrt.form)
        assert not s.generically_squarefree

    def test_degree_additive_on_battery(self):
        # degree of the tangency divisor adds under superposition
        for e1 in BATTERY[:4]:
            for e2 in BATTERY[:4]:
                try:
                    s = SymWeb(e1.web.form * e2.web.form)
                except WebValidationError:
                    continue
                if not s.generically_squarefree:
                    continue
                assert web_degree(s) == web_degree(e1.web) + web_degree(e2.web)


class TestSquarefreeWitness:
    # generically_squarefree is decided by integer forms W(q; .), never by
    # the (dx:dy)-discriminant, which only its evaluators build

    @staticmethod
    def counting_discriminants(monkeypatch) -> list:
        from polarweb import mpoly, webmodel

        calls, real = [], mpoly.discriminant_binary
        monkeypatch.setattr(webmodel, "discriminant_binary", lambda f: calls.append(1) or real(f))
        return calls

    def test_parsing_a_2_web_takes_no_discriminant(self, monkeypatch):
        from polarweb.parsing import parse_input_text

        calls = self.counting_discriminants(monkeypatch)
        web, warnings = parse_input_text("type: web\nform: (x^2 - y)*dx^2 + (x*y - 1)*dx*dy + (y^2 - x + 2)*dy^2\n")
        assert web.generically_squarefree and warnings == []
        assert calls == []

    def test_a_repeated_factor_still_warns(self, monkeypatch):
        from polarweb.parsing import parse_input_text

        calls = self.counting_discriminants(monkeypatch)
        _, warnings = parse_input_text("type: web\nform: (dy - x*dx)^2*(dx + y*dy)\n")
        assert warnings == ["form is not generically square-free (repeated local factor)"]
        assert not SymWeb(w_sqrt.form * w_sqrt.form).generically_squarefree
        # a double root at (dx : dy) = (0 : 1), at every point
        assert not SymWeb(DX**2 * (X * DX + DY)).generically_squarefree
        assert not SymWeb(w_circles.form * SymWeb((X * DX + Y * DY) * (2 * X * DX + 2 * Y * DY + DX)).form).generically_squarefree
        assert calls == []

    @given(st.integers(2, 4), st.booleans(), st.data())
    @settings(max_examples=30, deadline=None)
    def test_agrees_with_the_discriminant(self, k, square, data):
        # with `square`, a planted repeated linear factor
        monomials = [(i, j) for i in range(3) for j in range(3 - i)]
        coefficient = st.lists(st.integers(-2, 2), min_size=len(monomials), max_size=len(monomials))

        def form(degree):
            return sum((c * X**i * Y**j * DX ** (degree - n) * DY**n for n in range(degree + 1)
                        for (i, j), c in zip(monomials, data.draw(coefficient))), MPoly.zero())

        W = form(k - 2) * form(1) ** 2 if square else form(k)
        try:
            web = SymWeb(W)
        except WebValidationError:
            assume(False)
        assert web.generically_squarefree == (not web.discriminant_form.is_zero())


def random_line_degree(web: SymWeb, seed: int = 0, lines: int = 3, max_rounds: int = 50) -> int:
    """Reference: the web degree estimated on seeded random rational lines, as
    it was computed before the exact symbolic line.  All non-degenerate lines
    of a round must agree, otherwise the round is retried with fresh lines."""
    rng = random.Random(seed)
    t = MPoly.variable("t")
    for _ in range(max_rounds):
        values = []
        for _ in range(lines):
            a1, a2 = rng.randint(-40, 40), rng.randint(-40, 40)
            b1, b2 = rng.randint(-40, 40), rng.randint(-40, 40)
            if a1 == 0 and a2 == 0:
                continue
            line = {"x": a1 * t + b1, "y": a2 * t + b2, "dx": MPoly.constant(a1), "dy": MPoly.constant(a2)}
            restricted = web.form.substitute({v: p for v, p in line.items() if v in web.form.variables})
            if not restricted.is_zero():
                values.append(restricted.degree_in("t"))
        if values and len(values) >= min(lines, 2) and len(set(values)) == 1:
            return values[0]
    raise DegenerateSampleError("random lines never agreed")


@st.composite
def random_webs(draw) -> SymWeb:
    """Forms of degree k <= 3 in (dx, dy) with coefficients of degree <= 3."""
    k = draw(st.integers(1, 3))
    monomials = [(i, j) for i in range(4) for j in range(4 - i)]
    form = MPoly.zero()
    for n in range(k + 1):
        for i, j in monomials:
            c = draw(st.integers(-3, 3)) if draw(st.booleans()) else 0
            if c:
                form = form + MPoly(("x", "y"), {(i, j): c}) * DX ** (k - n) * DY**n
    assume(not form.is_zero())
    try:
        web = SymWeb(form)
    except WebValidationError:
        assume(False)
    return web


def symbolic_line_degree(web: SymWeb) -> int:
    """Reference: the degree in t of the form on the line (x, y, dx, dy) =
    (l1*t + m1, l2*t + m2, l1, l2), with l1, l2, m1 and m2 kept as symbols,
    so the value is the generic one by definition (the web degree as it was
    computed before the search over the homogeneous parts)."""
    t, l1, l2 = MPoly.variable("t"), MPoly.variable("l1"), MPoly.variable("l2")
    line = {"x": l1 * t + MPoly.variable("m1"), "y": l2 * t + MPoly.variable("m2"),
            "dx": l1, "dy": l2}
    return web.form.substitute({v: p for v, p in line.items() if v in web.form.variables}).degree_in("t")


def dense_poly(draw, degree: int, low: int = 0) -> MPoly:
    """Every monomial of degree low..degree in (x, y) with a nonzero coefficient."""
    return sum((MPoly(("x", "y"), {(i, d - i): draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))})
                for d in range(low, degree + 1) for i in range(d + 1)), MPoly.zero())


@st.composite
def dense_webs(draw) -> SymWeb:
    """Forms of degree k <= 3 in (dx, dy), every coefficient dense of degree <= 3."""
    k = draw(st.integers(1, 3))
    form = sum((dense_poly(draw, draw(st.integers(0, 3))) * DX ** (k - n) * DY**n
                for n in range(k + 1)), MPoly.zero())
    try:
        return SymWeb(form)
    except WebValidationError:
        assume(False)


@st.composite
def planted_foliations(draw) -> SymWeb:
    """(x h + P) dy - (y h + Q) dx with h dense homogeneous of degree m and P,
    Q of degree <= m: the top part h (x dy - y dx) vanishes on every line's
    own direction, so the degree is below the top degree m + 1."""
    m = draw(st.integers(0, 3))
    h = dense_poly(draw, m, m)
    lower = [dense_poly(draw, draw(st.integers(0, m))) if draw(st.booleans()) else MPoly.zero()
             for _ in range(2)]
    try:
        return SymWeb((X * h + lower[0]) * DY - (Y * h + lower[1]) * DX)
    except WebValidationError:
        assume(False)


class TestWebDegree:
    def test_product_zero(self):
        assert web_degree(w_product) == 0

    def test_radial_zero(self):
        assert web_degree(w_radial) == 0

    def test_circle_pencil_one(self):
        assert web_degree(w_circles) == 1

    def test_sqrt_web_one(self):
        assert web_degree(w_sqrt) == 1

    @pytest.mark.parametrize("entry", BATTERY, ids=lambda e: e.name)
    def test_matches_random_lines_on_battery(self, entry):
        assert web_degree(entry.web) == random_line_degree(entry.web, 3)

    def test_matches_random_lines_on_superpositions(self):
        for i, e1 in enumerate(BATTERY):
            for e2 in BATTERY[i:]:
                try:
                    web = SymWeb(e1.web.form * e2.web.form)
                except WebValidationError:
                    continue
                assert web_degree(web) == random_line_degree(web, 5), (e1.name, e2.name)

    @given(random_webs())
    @settings(max_examples=40, deadline=None)
    def test_matches_random_lines_on_random_forms(self, web):
        assert web_degree(web) == random_line_degree(web)

    @pytest.mark.parametrize("entry", BATTERY, ids=lambda e: e.name)
    def test_matches_the_symbolic_line_on_battery(self, entry):
        assert web_degree(entry.web) == symbolic_line_degree(entry.web)

    @given(dense_webs())
    @settings(max_examples=40, deadline=None)
    def test_matches_the_symbolic_line_on_dense_forms(self, web):
        assert web_degree(web) == symbolic_line_degree(web)

    @given(planted_foliations())
    @settings(max_examples=40, deadline=None)
    def test_matches_the_symbolic_line_below_the_top_degree(self, web):
        top = max(sum(e[i] for i, v in enumerate(web.form.variables) if v in ("x", "y"))
                  for e in web.form.terms)
        assert web_degree(web) == symbolic_line_degree(web) < top

    @pytest.mark.parametrize("centers", [[(0, 0)], [(2, -1)], [(0, 0), (1, 0)],
                                         [(0, 0), (1, 2), (-3, 1)]])
    def test_products_of_radial_foliations_have_degree_zero(self, centers):
        # the top part of degree k vanishes on the line, and so does every
        # part down to t^1: the search runs k levels below the top
        web = SymWeb(prod((radial_form(AffinePoint.of(a, b)) for a, b in centers), start=MPoly.constant(1)))
        assert web_degree(web) == symbolic_line_degree(web) == 0

    def test_cached_on_the_web(self):
        web = SymWeb(X * DX**2 + Y * DY**2)
        assert web_degree(web) == 1
        assert web._degree == 1


class TestSingularSet:
    def test_circle_pencil_origin(self):
        s = singular_set(w_circles)
        assert s.rational == [AffinePoint.of(0, 0)] and not s.numeric

    def test_product_empty(self):
        assert singular_set(w_product).is_empty()

    def test_radial_center(self):
        assert singular_set(w_radial).rational == [AffinePoint.of(0, 0)]

    def test_the_eliminants_are_computed_on_first_use(self, monkeypatch):
        # a zero set with no group takes no eliminant until one is read; one
        # with a group takes both as the group forms, and never again
        from polarweb import solve

        calls, real = [], solve.eliminant
        monkeypatch.setattr(solve, "eliminant", lambda gens, v: calls.append(v) or real(gens, v))
        s = singular_set(w_circles)
        assert calls == []
        assert (s.elim_x, s.elim_x, s.elim_y) == (X, X, Y) and calls == ["y", "x"]
        calls.clear()
        s = singular_set(SymWeb.of_field(X**2 - 2, Y))
        assert len(s.numeric) == 2 and calls == ["x", "y"]
        assert (s.elim_x, s.elim_x, s.elim_y) == (X**2 - 2, X**2 - 2, Y) and calls == ["x", "y"]
        assert singular_set(w_product).elim_x is None

    @pytest.mark.parametrize("a, b", [("x^2 + y^2 - 3", "x*y - 1"), ("x^2 - 2", "y")])
    def test_singular_takes_each_eliminant_once(self, monkeypatch, tmp_path, a, b):
        # the eliminants the command prints are the ones the zero set read
        # the rational coordinates of its group from; every binding is spied
        import sys

        from polarweb import solve
        from polarweb.cli import run_command

        calls, real = [], solve.eliminant
        for name, module in list(sys.modules.items()):
            if name.startswith("polarweb") and getattr(module, "eliminant", None) is real:
                monkeypatch.setattr(module, "eliminant", lambda gens, v: calls.append((v, len(gens))) or real(gens, v))
        path = tmp_path / "foliation.txt"
        path.write_text(f"type: foliation\nA: {a}\nB: {b}\n")
        code, text = run_command(["singular", "--in", str(path)])
        assert code == 0 and "[numeric]" in text and "eliminant in x" in text and "eliminant in y" in text
        assert calls == [("x", 2), ("y", 2)]

    def test_contained_in_discriminant_for_k2(self):
        for e in BATTERY:
            if e.web.k < 2:
                continue
            disc = e.web.discriminant_form
            s = singular_set(e.web)
            for p in s.rational:
                assert disc.is_zero() or disc.evaluate(p.as_dict()) == 0
            for q in s.numeric:
                assert disc.is_zero() or vanishes_numerically(disc, {"x": q[0], "y": q[1]})


class TestDiscriminant:
    def test_sqrt_web_line(self):
        assert str(discriminant_curve(w_sqrt)) == "x"

    def test_product_empty(self):
        assert discriminant_curve(w_product).is_empty

    def test_foliation_empty(self):
        assert discriminant_curve(w_circles).is_empty

    def test_superposition_contains_factors(self):
        # the discriminant of a product is divisible by each factor's one
        for e1 in (w_sqrt,):
            s = SymWeb(e1.form * w_circles.form)
            disc = s.discriminant_form
            d1 = e1.discriminant_form
            if d1.is_constant():
                continue
            assert try_exact_div(disc, d1) is not None


class TestTangentDirections:
    def test_product_axes(self):
        dirs = tangent_directions(w_product, AffinePoint.of(1, 1))
        assert {str(d) for d in dirs} == {"(0:1)", "(1:0)"}

    def test_radial_direction(self):
        dirs = tangent_directions(w_radial, AffinePoint.of(1, 2))
        assert [str(d) for d in dirs] == ["(1:2)"]

    def test_sqrt_web_pm_one(self):
        dirs = tangent_directions(w_sqrt, AffinePoint.of(1, 0))
        assert {str(d) for d in dirs} == {"(1:1)", "(1:-1)"}

    def test_count_and_residual_on_battery(self):
        for e in BATTERY:
            p = AffinePoint.of(Fraction(7, 3), Fraction(5, 4))
            ok, _ = is_smooth_point(e.web, p)
            if not ok:
                continue
            dirs = tangent_directions(e.web, p)
            assert len(dirs) == e.web.k
            coeffs = [c.evaluate(p.as_dict()) for c in e.web.coefficients()]
            for d in dirs:
                u, v = (complex(d.u), complex(d.v)) if d.is_exact else d.approx
                val = sum(
                    complex(c) * u ** (e.web.k - i) * v**i for i, c in enumerate(coeffs)
                )
                scale = max(abs(complex(c)) for c in coeffs)
                assert abs(val) < 1e-9 * max(scale, 1.0)

    def test_errors_on_discriminant(self):
        # is_smooth_point decides it exactly: an error of the input, not of a numeric step
        with pytest.raises(PolynomialError, match="lies on the discriminant"):
            tangent_directions(w_sqrt, AffinePoint.of(0, 5))

    def test_errors_at_singular_point(self):
        with pytest.raises(PolynomialError, match="is a singular point of the web"):
            tangent_directions(w_circles, AffinePoint.of(0, 0))


class TestFormAt:
    @given(st.one_of(dense_webs(), st.sampled_from([e.web for e in BATTERY])),
           st.fractions(-9, 9, max_denominator=12), st.fractions(-9, 9, max_denominator=12))
    @settings(max_examples=60, deadline=None)
    def test_equals_the_substituted_form(self, web, a, b):
        # the form with the point put in for (x, y) on Fractions, term by term
        whole = web.form.substitute({"x": a, "y": b, "dx": X, "dy": Y})
        assert form_at(web, AffinePoint.of(a, b)) == whole


class TestSmoothPoint:
    def test_off_everything(self):
        assert is_smooth_point(w_sqrt, AffinePoint.of(1, 0))[0]

    def test_on_discriminant(self):
        ok, reason = is_smooth_point(w_sqrt, AffinePoint.of(0, 5))
        assert not ok and "discriminant" in reason

    def test_singular(self):
        ok, reason = is_smooth_point(w_circles, AffinePoint.of(0, 0))
        assert not ok and "singular" in reason


class TestRootResidualTolerance:
    def test_the_setting_is_read_at_call_time(self, monkeypatch):
        # so the root split of a singular set applies it; no root passes a
        # residual bound of 0
        from polarweb import numerics

        web = SymWeb.of_field(X**2 - 2, Y)
        assert len(singular_set(web).numeric) == 2
        monkeypatch.setattr(numerics, "RESIDUAL_TOL", 0.0)
        with pytest.raises(NumericAbortError):
            singular_set(web)
