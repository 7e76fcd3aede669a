"""Input parsing, CLI subcommands, exit codes, determinism, golden reports."""

import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from battery import to_sympy
from polarweb import MPoly, PlaneCurve, SymWeb
from polarweb.cli import CHECKS, _as_foliation, _as_web, run_command
from polarweb.errors import ParseError
from polarweb.mpoly import poly_gcd
from polarweb.parsing import VARIABLES, parse_input_text, parse_point, parse_polynomial

HERE = Path(__file__).parent
GOLDEN = HERE / "golden"
# an integer literal with more digits than `int` converts by default (4,300)
NINES = "9" * 5000

x = MPoly.variable("x")
y = MPoly.variable("y")
dx = MPoly.variable("dx")
dy = MPoly.variable("dy")


def _gap(draw) -> str:
    return draw(st.sampled_from(["", " ", "  "]))


def _sum(draw, budget: int, depth: int):
    """(text, the MPoly its operators give in the parser's order, degree bound)
    of a random expression of degree at most budget."""
    sign = draw(st.sampled_from(["", "+", "-"]))
    text, ref, bound = _term(draw, budget, depth)
    text, ref = sign + _gap(draw) + text, ref * (-1 if sign == "-" else 1)
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from("+-"))
        t, r, b = _term(draw, budget, depth)
        text, ref, bound = text + _gap(draw) + op + _gap(draw) + t, ref + r if op == "+" else ref - r, max(bound, b)
    return text, ref, bound


def _term(draw, budget: int, depth: int):
    count = draw(st.integers(1, 3))
    text, ref, bound = _factor(draw, budget // count, depth)
    for _ in range(count - 1):
        t, r, b = _factor(draw, budget // count, depth)
        text, ref, bound = text + _gap(draw) + "*" + _gap(draw) + t, ref * r, bound + b
    return text, ref, bound


def _factor(draw, budget: int, depth: int):
    kind = draw(st.sampled_from(["int", "rational", "variable", "sum"] if depth else
                                ["int", "rational", "variable"]))
    if kind == "variable" and budget >= 1:
        name = draw(st.sampled_from(VARIABLES))
        text, ref, bound = name, MPoly.variable(name), 1
    elif kind == "sum" and budget >= 1:
        text, ref, bound = _sum(draw, budget, depth - 1)
        text = "(" + _gap(draw) + text + _gap(draw) + ")"
    elif kind == "rational":
        num, den = draw(st.integers(0, 40)), draw(st.integers(1, 12))
        text, ref, bound = f"{num}/{den}", MPoly.constant(Fraction(num, den)), 0
    else:
        num = draw(st.integers(0, 40))
        text, ref, bound = str(num), MPoly.constant(num), 0
    if draw(st.booleans()):
        n = draw(st.integers(0, min(4, budget // max(bound, 1))))
        if "/" in text and not text.startswith("("):
            text = f"({text})"  # '/' of a rational binds tighter than '^' here, looser in sympy
        text, ref, bound = text + _gap(draw) + "^" + _gap(draw) + str(n), ref**n, bound * n
    return text, ref, bound


@st.composite
def expressions(draw):
    return _sum(draw, draw(st.integers(1, 12)), 2)


class TestPolynomialParser:
    def test_spec_example(self):
        from fractions import Fraction

        got = parse_polynomial("3/2*x^2*y - dx^2*x")
        assert got == Fraction(3, 2) * x**2 * y - dx**2 * x

    def test_power_binds_tightest(self):
        assert parse_polynomial("2*x^3") == 2 * x**3

    def test_parentheses(self):
        assert parse_polynomial("(x + y)^2") == (x + y) ** 2

    def test_leading_minus(self):
        assert parse_polynomial("-x + 1") == 1 - x

    def test_rational_coefficient(self):
        from fractions import Fraction

        assert parse_polynomial("1/3") == MPoly.constant(Fraction(1, 3))

    def test_implicit_multiplication_rejected(self):
        with pytest.raises(ParseError):
            parse_polynomial("2x")

    def test_unknown_variable_rejected(self):
        with pytest.raises(ParseError):
            parse_polynomial("x + z")

    def test_input_limits(self):
        from polarweb.parsing import MAX_DEGREE, MAX_PRODUCT_TERMS

        assert MAX_DEGREE == 32 and MAX_PRODUCT_TERMS == 10**5
        assert parse_polynomial("x^16*y^16").total_degree() == 32
        assert parse_polynomial("(x + y)^32") == (x + y) ** 32
        assert parse_polynomial("2^32") == 2**32
        for text in ("x^33", "x^16*y^17", "(x*y)^17", "2^33", "x^2147483648", "(x + y + 1)^40",
                     "(x + y + a + b + dx + dy + t)^8*(x + y + a + b + dx + dy + t)^8",
                     "(x + y + a + b + dx + dy + t)^30"):
            with pytest.raises(ParseError):
                parse_polynomial(text)

    # (text, message, column): every cap and every kind of malformed input,
    # with the column the error points at.  A product or power is checked
    # after its last factor, so its column is just past that factor.  An
    # integer literal longer than `int` converts is rejected at its start.
    ERRORS = [
        (f"x^{NINES} - y", "integer literal of 5000 digits is too long", 3),
        (f"{NINES}*x - y", "integer literal of 5000 digits is too long", 1),
        (f"({NINES}*x - y)^2", "integer literal of 5000 digits is too long", 2),
        ("2x", "unexpected 'x'", 2),
        ("x y", "unexpected 'y'", 3),
        ("x**2", "unexpected '*'", 3),
        ("x^2^2", "unexpected '^'", 4),
        ("+-x", "unexpected '-'", 2),
        ("x @ y", "unexpected '@'", 3),
        ("()", "unexpected ')'", 2),
        ("(x))", "unexpected ')'", 4),
        ("x + z", "unknown variable 'z' (allowed: x, y, a, b, dx, dy, t)", 6),
        ("xy", "unknown variable 'xy' (allowed: x, y, a, b, dx, dy, t)", 3),
        ("dxdy", "unknown variable 'dxdy' (allowed: x, y, a, b, dx, dy, t)", 5),
        ("x + é", "unknown variable 'é' (allowed: x, y, a, b, dx, dy, t)", 6),
        ("1/0", "zero denominator", 4),
        ("1/ 0", "zero denominator", 5),
        ("1/", "expected an integer", 3),
        ("1/x", "expected an integer", 3),
        ("x ^ y", "expected an integer", 5),
        ("x^-1", "expected an integer", 3),
        ("(x", "expected ')'", 3),
        ("", "unexpected end of expression", 1),
        ("   ", "unexpected end of expression", 4),
        ("-", "unexpected end of expression", 2),
        ("x +", "unexpected end of expression", 4),
        ("x*", "unexpected end of expression", 3),
        ("x^33", "power of exponent or total degree above 32", 5),
        ("x^ 33", "power of exponent or total degree above 32", 6),
        ("x  ^33  ", "power of exponent or total degree above 32", 7),
        ("x^33 + qq", "power of exponent or total degree above 32", 5),
        ("x^2147483648", "power of exponent or total degree above 32", 13),
        ("2^33", "power of exponent or total degree above 32", 5),
        ("(x*y)^17", "power of exponent or total degree above 32", 9),
        ("(x + y + 1)^40", "power of exponent or total degree above 32", 15),
        ("x^16*y^17", "product of total degree above 32", 10),
        ("x^16 *y^17 ", "product of total degree above 32", 11),
        ("x^16*y^16*x", "product of total degree above 32", 12),
        ("(x+y)^17*  x^16", "product of total degree above 32", 16),
        ("(x + y + a + b + dx + dy + t)^30", "product of more than 100000 term pairs", 33),
        ("(x + y + a + b + dx + dy + t)^6*(x + y + a + b + dx + dy + t)^6",
         "product of more than 100000 term pairs", 64),
    ]

    @pytest.mark.parametrize("text,message,column", ERRORS,
                             ids=[repr(e[0].replace(NINES, "9...9")) for e in ERRORS])
    def test_error_message_and_column(self, text, message, column):
        with pytest.raises(ParseError) as err:
            parse_polynomial(text, line=3)
        assert str(err.value) == f"{message} (line 3, col {column})"
        assert (err.value.line, err.value.column) == (3, column)

    def test_power_keeps_the_term_order_of_pow(self):
        got = parse_polynomial("(x + 2*y - 1/3)^12")
        ref = (x + 2 * y - MPoly.constant(Fraction(1, 3))) ** 12
        assert got == ref and list(got.terms) == list(ref.terms)

    @given(expressions())
    @settings(max_examples=80, deadline=None)
    def test_matches_sympy_and_the_mpoly_operators(self, drawn):
        sympy = pytest.importorskip("sympy")
        text, ref, bound = drawn
        got = parse_polynomial(text)
        assert got == ref and list(got.terms) == list(ref.terms), text
        assert all(type(c) is int or type(c) is Fraction and c.denominator != 1 for c in got.terms.values())
        assert sympy.expand(to_sympy(sympy, got) - sympy.parse_expr(text.replace("^", "**"))) == 0, text

    def test_round_trip_canonical_text(self):
        from polarweb.mpoly import format_mpoly

        f = (dy**2 - x * dx**2).canonical()
        assert parse_polynomial(format_mpoly(f)) == f

    def test_point(self):
        from fractions import Fraction

        p = parse_point("1/2,-3")
        assert p.a == Fraction(1, 2) and p.b == -3
        assert parse_point("0.5, 1e3") == parse_point("1/2,1000")
        assert parse_point("1e4300,0").a == 10**4300

    @pytest.mark.parametrize("text", ["1e4301,0", "0,1e-999999999", "1e1_000_000_000,0",
                                      f"1e{NINES},0"])
    def test_point_exponent_above_the_digit_cap(self, text):
        # Fraction would write out 10^exponent first, for hours
        with pytest.raises(ParseError, match="decimal exponent above 4300"):
            parse_point(text)


class TestInputFiles:
    def test_web(self):
        obj, warnings = parse_input_text("type: web\nform: dx*dy\n")
        assert isinstance(obj, SymWeb) and obj.k == 2 and not warnings

    def test_foliation_vector_field_saturated(self):
        # x times the radial field, read back from the canonical form
        # y*dx - x*dy
        obj, warnings = parse_input_text("type: foliation\nA: x^2\nB: x*y\n")
        assert isinstance(obj, SymWeb) and obj.k == 1 and obj.common_factor == x
        assert obj.field == (-x, -y)
        assert warnings == ["gcd(A, B) was not constant; saturated to A=-x, B=-y"]

    @pytest.mark.parametrize("a,b,expect_a,expect_b", [
        ("0", "x^3", 0, 1), ("x^2", "0", 1, 0), ("0", "-2*x*y + 2*y", 0, -2), ("0", "3", 0, 3)])
    def test_foliation_with_a_zero_component(self, a, b, expect_a, expect_b):
        # a zero component is saturated like any other common factor, to the
        # web of the constant field (expect_a, expect_b), whose canonical form
        # dy or dx reads back as (1, 0) or (0, -1)
        obj, warnings = parse_input_text(f"type: foliation\nA: {a}\nB: {b}\n")
        assert obj.form == SymWeb.of_field(MPoly.constant(expect_a), MPoly.constant(expect_b)).form
        assert obj.field == ((1, 0) if expect_a else (0, -1))
        assert (obj.common_factor is not None) == (b != "3")
        assert warnings == ([f"gcd(A, B) was not constant; saturated to A={obj.field[0]}, B={obj.field[1]}"]
                            if obj.common_factor is not None else [])

    def test_foliation_as_form(self):
        # a form is read as a 1-web, which the foliation checks take as it is
        web, warnings = parse_input_text("type: foliation\nform: x*dy - y*dx\n")
        assert isinstance(web, SymWeb) and web.k == 1 and not warnings
        # the radial field, in the orientation of the canonical form y*dx - x*dy
        assert _as_foliation(web) is web and web.field == (-x, -y)

    def test_foliation_as_form_with_a_common_factor(self):
        web, warnings = parse_input_text("type: foliation\nform: x^2*dy - x*y*dx\n")
        assert _as_foliation(web) is web and web.field == (-x, -y)
        # the form is saturated once, and its field is read from the result
        assert len(warnings) == 1 and warnings[0].startswith("form coefficients were not coprime")

    def test_a_foliation_reads_the_same_in_every_spelling(self, tmp_path):
        # A d/dx + B d/dy is the form A*dy - B*dx, as a foliation or a 1-web;
        # every spelling reads (A, B) back from the canonical form, so the
        # polar family's constant c is the same in each
        texts = ["type: foliation\nA: x^2 + y^2 - 3\nB: x*y - 1\n",
                 "type: foliation\nform: (x^2 + y^2 - 3)*dy - (x*y - 1)*dx\n",
                 "type: web\nform: (x^2 + y^2 - 3)*dy - (x*y - 1)*dx\n"]
        for argv in (["singular"], ["check", "--theorem", "qr-dichotomy"]):
            bodies = []
            for i, text in enumerate(texts):
                path = tmp_path / f"{i}.txt"
                path.write_text(text)
                code, out = run_command([argv[0], "--in", str(path), *argv[1:], "--json"])
                doc = json.loads(out)
                assert code == 0, out
                bodies.append((doc["output"], doc["report"]))
            assert bodies[0] == bodies[1] == bodies[2]

    QUADRATIC_MONOMIALS = [(i, j) for i in range(3) for j in range(3 - i)]

    @given(st.lists(st.integers(-3, 3), min_size=12, max_size=12),
           st.sampled_from([-4, -3, -2, -1, 1, 2, 3, 4]))
    @settings(max_examples=30, deadline=None)
    def test_a_scaled_field_reads_as_its_form(self, tmp_path_factory, drawn, scale):
        # coprime (A, B) of degree <= 2: the A/B spelling of (lam·A, lam·B)
        # and the form spelling of (A, B) are one foliation, and every
        # foliation report prints the same body for both
        A, B = (sum((c * x**i * y**j for (i, j), c in zip(self.QUADRATIC_MONOMIALS, cs)), MPoly.zero())
                for cs in (drawn[:6], drawn[6:]))
        assume(not (A.is_zero() and B.is_zero()) and poly_gcd(A, B).is_constant())
        spellings = [f"type: foliation\nA: {scale * A}\nB: {scale * B}\n",
                     f"type: foliation\nform: ({A})*dy - ({B})*dx\n"]
        paths = [tmp_path_factory.mktemp("spelling") / "fol.txt" for _ in spellings]
        for path, text in zip(paths, spellings):
            path.write_text(text)
        for argv in (["singular"], ["inflexion"], *(["check", "--theorem", t] for t in
                                                    ("inflexion-lemma", "sing-in-E", "qr-dichotomy", "qr-bound"))):
            bodies = []
            for path in paths:
                code, out = run_command([argv[0], "--in", str(path), *argv[1:]])
                bodies.append((code, _body(out).replace(str(path), "IN")))
            assert bodies[0] == bodies[1], argv

    def test_curve(self):
        obj, _ = parse_input_text("type: curve\nf: y^2 - x^3\n")
        assert isinstance(obj, PlaneCurve) and obj.degree == 3

    def test_comments_and_blank_lines(self):
        obj, _ = parse_input_text("# a web\n\ntype: web\nform: dx*dy  # product\n")
        assert isinstance(obj, SymWeb)

    def test_mixed_degree_rejected(self):
        with pytest.raises(ParseError):
            parse_input_text("type: web\nform: dx + x\n")

    def test_zero_form_rejected(self):
        with pytest.raises(ParseError):
            parse_input_text("type: web\nform: dx - dx\n")

    def test_missing_type_rejected(self):
        with pytest.raises(ParseError):
            parse_input_text("form: dx\n")

    def test_error_carries_line_number(self):
        with pytest.raises(ParseError) as err:
            parse_input_text("type: web\nform: dx + qq\n")
        assert "line 2" in str(err.value)


@pytest.fixture()
def inputs(tmp_path):
    web = tmp_path / "web.txt"
    web.write_text("type: web\nform: dy^2 - x*dx^2\n")
    fol = tmp_path / "fol.txt"
    fol.write_text("type: foliation\nA: x^2\nB: y^2\n")
    curve = tmp_path / "curve.txt"
    curve.write_text("type: curve\nf: y^2 - x^3\n")
    # a 3-web whose discriminant eliminates dy from polynomials in (dy, x, y)
    web3 = tmp_path / "web3.txt"
    web3.write_text("type: web\nform: dy^3 + x*dx^2*dy + y*dx^3 + (x - y)*dx*dy^2\n")
    # three factors, five branches: milnor_number takes a 9 x 8 resultant in y
    germ = tmp_path / "germ.txt"
    germ.write_text("type: curve\nf: ((y - x)^2 - x^4)*((y + 2*x)^2 - 3*x^4)*(y - 3*x - x^2)\n")
    # a dense degree-2 foliation with E ≢ 0: the class of each sampled polar
    # is one class_of_curve, and sing-locus is an identity on the family
    fol2 = tmp_path / "fol2.txt"
    fol2.write_text("type: foliation\nA: 3*x^2 - 3*x*y - y^2 + x + 2*y + 1\n"
                    "B: -x^2 + x*y + y^2 + 3*x - y - 2\n")
    # a 2-web singular at (1, 1): its coefficients eliminate to x - 1 and y - 1
    web2 = tmp_path / "web2.txt"
    web2.write_text("type: web\nform: (x^2 - y)*dx^2 + (x*y - 1)*dx*dy + (y^2 - x + 2*y - 2)*dy^2\n")
    # nine singular points: the origin and (+-sqrt 2, +-sqrt 2) quasi-radial,
    # (0, +-sqrt 2) and (+-sqrt 2, 0) not
    fol9 = tmp_path / "fol9.txt"
    fol9.write_text("type: foliation\nA: x^3 - 2*x\nB: y^3 - 2*y\n")
    # the radial 1-web times the lines of slope 1: decomposable, with the
    # whole plane as its polar at the origin
    lines = tmp_path / "lines.txt"
    lines.write_text("type: web\nform: (x*dy - y*dx)*(dy - dx)\n")
    return {"web": str(web), "fol": str(fol), "curve": str(curve), "web3": str(web3), "germ": str(germ),
            "fol2": str(fol2), "web2": str(web2), "fol9": str(fol9), "lines": str(lines)}


def _body(text: str) -> str:
    return "\n".join(
        line for line in text.splitlines() if not line.startswith("timestamp")
    )


class TestSubcommands:
    def test_polar(self, inputs):
        code, text = run_command(["polar", "--in", inputs["web"], "--center", "1,2"])
        assert code == 0
        assert "polar: x^3 - 2*x^2 - y^2 + x + 4*y - 4" in text
        assert "degree: 3" in text

    def test_polar_of_radial_center(self, tmp_path):
        f = tmp_path / "radial.txt"
        f.write_text("type: web\nform: x*dy - y*dx\n")
        code, text = run_command(["polar", "--in", str(f), "--center", "0,0"])
        assert code == 0
        assert "polar is all of the plane" in text

    def test_polar_with_a_coefficient_too_long_to_print(self, tmp_path):
        # each literal parses, but the polar's coefficient N^2 has 6,000 digits
        f = tmp_path / "huge.txt"
        f.write_text(f"type: web\nform: {'9' * 3000}^2*x*dx + y*dy + dx\n")
        code, text = run_command(["polar", "--in", str(f), "--center", "1,2"])
        assert (code, text) == (2, "error: coefficient of 6000 digits is too long to print")

    def test_degree(self, inputs):
        code, text = run_command(["degree", "--in", inputs["web"]])
        assert code == 0 and "degree: 1" in text

    def test_discriminant(self, inputs):
        code, text = run_command(["discriminant", "--in", inputs["web"]])
        assert code == 0 and "discriminant: x" in text

    def test_singular(self, inputs):
        code, text = run_command(["singular", "--in", inputs["fol"]])
        assert code == 0 and "singular point: (0, 0) [exact]" in text

    def test_directions(self, inputs):
        code, text = run_command(["directions", "--in", inputs["web"], "--point", "1,0"])
        assert code == 0 and "(1:1)" in text and "(1:-1)" in text

    def test_directions_off_the_smooth_locus(self, tmp_path):
        # the origin lies on the discriminant of the first web and is a
        # singular point of the second: exit 2, as localsing off the curve
        for form, reason in (("dy^2 - x*dx^2", "lies on the discriminant"),
                             ("x*dy^2 - y*dx^2", "is a singular point of the web")):
            path = tmp_path / "web.txt"
            path.write_text(f"type: web\nform: {form}\n")
            code, text = run_command(["directions", "--in", str(path), "--point", "0,0"])
            assert (code, text) == (2, f"error: tangent directions undefined: (0, 0) {reason}")

    def test_inflexion(self, inputs):
        code, text = run_command(["inflexion", "--in", inputs["fol"]])
        assert code == 0 and "inflexion divisor:" in text

    def test_classify(self, inputs):
        code, text = run_command(["classify-sing", "--in", inputs["fol"], "--point", "0,0"])
        assert code == 0 and "not quasi-radial" in text

    def test_family_dimension(self, inputs):
        code, text = run_command(["family", "--in", inputs["web"], "--dimension"])
        assert code == 0 and "verdict: PASS" in text

    def test_class_and_genus(self, inputs):
        code, text = run_command(["class", "--in", inputs["curve"]])
        assert code == 0 and "class: 3" in text
        code, text = run_command(["genus", "--in", inputs["curve"]])
        assert code == 0 and "genus: 0" in text

    def test_localsing(self, inputs):
        code, text = run_command(["localsing", "--in", inputs["curve"], "--point", "0,0"])
        assert code == 0 and "seq=[2, 1, 1]" in text

    def test_localsing_off_the_curve(self, tmp_path):
        # the point prints as every other message prints one, not as Fractions
        circle = tmp_path / "circle.txt"
        circle.write_text("type: curve\nf: x^2 + y^2 - 1\n")
        code, text = run_command(["localsing", "--in", str(circle), "--point", "0,0"])
        assert (code, text) == (2, "error: curve does not pass through (0, 0)")
        code, text = run_command(["localsing", "--in", str(circle), "--point", "1/2,0"])
        assert (code, text) == (2, "error: curve does not pass through (1/2, 0)")

    def test_check_passes(self, inputs):
        code, text = run_command(
            ["check", "--in", inputs["web"], "--theorem", "polar-degree", "--seed", "7", "--samples", "5"]
        )
        assert code == 0 and "verdict: PASS" in text


# the lines dx = m*dy for the first ten slopes 0, 1, -1, ..., 4, -4, 5 that the
# shear search tries
SLOPE_LINES = "dx*" + "*".join(f"(dx - {m}*dy)*(dx + {m}*dy)" for m in (1, 2, 3, 4)) + "*(dx - 5*dy)"


class TestShearSearch:
    def test_web_vanishing_at_seven_slopes(self, tmp_path):
        web = tmp_path / "web7.txt"
        web.write_text("type: web\nform: dx*(dx - dy)*(dx + dy)*(dx - 2*dy)*(dx + 2*dy)*(dx - 3*dy)*(dx + 3*dy)\n")
        proc = subprocess.run(
            [sys.executable, "-m", "polarweb.cli", "check", "--in", str(web),
             "--theorem", "irreducible", "--samples", "1"],
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stdout + proc.stderr
        assert "verdict: PASS" in proc.stdout

    @pytest.mark.parametrize("last,expected", [
        ("(dx - 6*dy)", "discriminant: empty"),
        ("(dx - x*dy)", "discriminant: x^10 - 5*x^9"),
    ])
    def test_discriminant_of_an_eleven_web(self, tmp_path, last, expected):
        web = tmp_path / "web11.txt"
        web.write_text(f"type: web\nform: {SLOPE_LINES}*{last}\n")
        code, text = run_command(["discriminant", "--in", str(web)])
        assert code == 0 and expected in text


class TestExitCodes:
    def test_parse_error_is_2(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("type: web\nform: dx + x\n")
        code, text = run_command(["degree", "--in", str(bad)])
        assert code == 2

    def test_missing_file_is_2(self):
        code, _ = run_command(["degree", "--in", "/nonexistent/input.txt"])
        assert code == 2

    def test_wrong_input_kind_is_2(self, inputs):
        code, _ = run_command(["inflexion", "--in", inputs["web"]])
        assert code == 2

    def test_e6_points_resolve_with_exit_0(self, tmp_path):
        # reduced, with E6 points at (+-sqrt 2, 0) whose triple tangent line
        # the exact germs at the group resolve; birational to x^2 = r^3 + 2
        path = tmp_path / "e6.txt"
        path.write_text("type: curve\nf: (y - x^2 + 2)^3 - (x^2 - 2)^4\n")
        code, text = run_command(["genus", "--in", str(path)])
        assert code == 0 and text.endswith("\ngenus: 1")

    @pytest.mark.parametrize("text", [
        "type: curve\nf: x^2147483648 - y\n",
        "type: curve\nf: x^4294967296*y\n",
        "type: curve\nf: (x+y+1)^40\n",
        "type: web\nform: (x+y+a+b+dx+dy+t)^30*dx\n",
        *(pytest.param(f"type: curve\nf: {f}\n", id=f"f: {f.replace(NINES, '9...9')}")
          for f in (f"x^{NINES} - y", f"{NINES}*x - y", f"({NINES}*x - y)^2")),
    ])
    def test_oversized_input_is_2_at_once(self, tmp_path, text):
        path = tmp_path / "big.txt"
        path.write_text(text)
        start = time.perf_counter()
        code, out = run_command(["degree", "--in", str(path)])
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out.startswith("error: ")
        proc = subprocess.run(
            [sys.executable, "-m", "polarweb.cli", "degree", "--in", str(path)],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stdout + proc.stderr

    @pytest.mark.parametrize("theorem", ["base-points", "qr-bound", "qr-dichotomy"])
    def test_wide_coefficients_exit_0_or_3(self, tmp_path, theorem):
        # a dense cubic foliation with 60-digit coefficients: the eliminants
        # of its singular set have coefficients past float range
        rng = random.Random(7)

        def dense() -> str:
            return " + ".join(f"({rng.choice([1, -1]) * rng.randrange(10**59, 10**60)})*x^{i}*y^{j}"
                              for i in range(4) for j in range(4 - i))

        path = tmp_path / "wide.txt"
        path.write_text(f"type: foliation\nA: {dense()}\nB: {dense()}\n")
        proc = subprocess.run(
            [sys.executable, "-m", "polarweb.cli", "check", "--theorem", theorem, "--in", str(path)],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode in (0, 3), proc.stdout + proc.stderr
        assert "Traceback" not in proc.stdout + proc.stderr

    @pytest.mark.parametrize("flag", ["--center", "--point"])
    def test_a_huge_coordinate_exponent_is_2_at_once(self, inputs, flag):
        command = {"--center": ["polar", "--in", inputs["web"]],
                   "--point": ["classify-sing", "--in", inputs["fol"]]}[flag]
        start = time.perf_counter()
        code, out = run_command(command + [flag, "1e999999999,0"])
        assert time.perf_counter() - start < 0.5
        assert (code, out) == (2, "error: bad rational coordinate '1e999999999': decimal exponent above 4300")

    @pytest.mark.parametrize("a,b", [("0", "x^3"), ("x^2", "0")])
    def test_a_zero_component_is_saturated_and_checked(self, tmp_path, a, b):
        path = tmp_path / "fol.txt"
        path.write_text(f"type: foliation\nA: {a}\nB: {b}\n")
        code, text = run_command(["check", "--in", str(path), "--theorem", "inflexion-lemma", "--samples", "3"])
        assert code == 0 and "warning: gcd(A, B) was not constant; saturated to" in text

    def test_math_failure_is_1(self, inputs, monkeypatch):
        from polarweb import cli as cli_mod
        from polarweb.reports import CheckReport

        failing = CheckReport("doctored")
        failing.add("always", False, "forced failure")
        monkeypatch.setattr(cli_mod, "_run_check", lambda obj, args: failing)
        code, text = run_command(
            ["check", "--in", inputs["web"], "--theorem", "polar-degree"]
        )
        assert code == 1 and "FAIL" in text

    def test_numeric_abort_is_3(self, inputs, monkeypatch):
        from polarweb import cli as cli_mod
        from polarweb.errors import NumericAbortError

        def boom(obj, args):
            raise NumericAbortError("loop too close to a branch point")

        monkeypatch.setattr(cli_mod, "_run_check", boom)
        code, text = run_command(
            ["check", "--in", inputs["web"], "--theorem", "irreducible"]
        )
        assert code == 3 and "numeric abort" in text


class TestFrontEndWork:
    """Deterministic work counts of reading an input: one trusted MPoly
    construction per parsed polynomial, one gcd per foliation input."""

    TEN_TERMS = "3*x^3 - 2*x^2*y + x*y^2 - 5*y^3 + 4*x^2 - x*y + 7*y^2 - 6*x + 2*y - 9"

    def test_one_construction_per_polynomial(self, monkeypatch):
        calls = []
        make = MPoly._make
        monkeypatch.setattr(MPoly, "_make", staticmethod(lambda v, t: calls.append(v) or make(v, t)))
        for text in (self.TEN_TERMS, f"({self.TEN_TERMS})*(x - 1/2)^2"):
            calls.clear()
            f = parse_polynomial(text)
            assert len(calls) == 1 and len(f.terms) >= 10

    @pytest.fixture()
    def work(self, monkeypatch):
        """The gcds that reading an input takes, and the `SymWeb.__init__`
        and `MPoly.__mul__` calls made outside them."""
        from polarweb import mpoly

        work = {"gcds": [], "inits": 0, "muls": 0}
        depth = [0]
        original = mpoly.poly_gcd

        def counting(f, g):
            if not depth[0]:
                work["gcds"].append((f, g))
            depth[0] += 1
            try:
                return original(f, g)
            finally:
                depth[0] -= 1

        # every binding, mpoly's own too, so that the gcds a fold in mpoly
        # takes are seen; a gcd's own recursion runs deeper and is not counted
        for name, module in list(sys.modules.items()):
            if name.startswith("polarweb.") and getattr(module, "poly_gcd", None) is original:
                monkeypatch.setattr(module, "poly_gcd", counting)
        for owner, attr, key in ((SymWeb, "__init__", "inits"), (MPoly, "__mul__", "muls"),
                                 (MPoly, "__rmul__", "muls")):
            def outside_gcds(*args, method=getattr(owner, attr), key=key):
                work[key] += not depth[0]
                return method(*args)
            monkeypatch.setattr(owner, attr, outside_gcds)
        return work

    @pytest.mark.parametrize("text, inits", [
        ("type: foliation\nA: x^2 + y - 1\nB: x*y + 2\n", 0),
        ("type: foliation\nA: x^2 - x\nB: x*y\n", 0),
        # a form is checked as a web once, and the foliation checks take it
        ("type: foliation\nform: (x^2 + y - 1)*dy - (x*y + 2)*dx\n", 1),
        ("type: web\nform: (x^2 + y - 1)*dy - (x*y + 2)*dx\n", 1),
    ])
    def test_one_gcd_per_foliation_input(self, work, text, inits):
        web = _as_foliation(parse_input_text(text)[0])
        A, B = web.field
        # an A/B input builds its form term by term, with no product and no
        # validating construction
        assert (len(work["gcds"]), work["inits"], work["muls"]) == (1, inits, 0)
        assert web.form == A * dy - B * dx

    def test_a_saturated_form_takes_its_gcds_once(self, work):
        web, warnings = parse_input_text("type: web\nform: (x^2 - y)*(x*dy^2 + y*dx*dy - dx^2)\n")
        assert len(work["gcds"]) == 2
        assert web.form == (x * dy**2 + y * dx * dy - dx**2).canonical()
        assert warnings == ["form coefficients were not coprime; saturated "
                            "(coefficients share the factor x^2 - y; the singular set is a curve)"]


class TestParserReuse:
    def test_parser_is_built_once(self):
        from polarweb.cli import _build_parser

        assert _build_parser() is _build_parser()

    def test_errors_and_help_leave_the_parser_intact(self, inputs):
        from polarweb.cli import _build_parser

        _build_parser.cache_clear()
        argv = ["localsing", "--in", inputs["curve"], "--point", "0,0"]
        code, first = run_command(argv)
        assert code == 0
        assert run_command(["localsing", "--in", inputs["curve"]]) == (2, "")  # --point missing
        assert run_command(["--help"]) == (0, "")
        code, again = run_command(argv)
        assert code == 0
        assert _body(again) == _body(first)


class TestDeterminism:
    def test_same_seed_same_report(self, inputs):
        argv = ["check", "--in", inputs["web"], "--theorem", "sing-locus", "--seed", "3", "--samples", "4"]
        _, first = run_command(argv)
        _, second = run_command(argv)
        assert _body(first) == _body(second)

    @pytest.mark.parametrize("argv", [["degree"], ["check", "--theorem", "family-dim"]])
    def test_exact_invariants_depend_on_no_seed(self, inputs, argv):
        # only check takes --seed; the bodies differ only in the command line,
        # and the report records no seed
        bodies = []
        for seed in (["--seed", "0"], ["--seed", "7"]) if argv[0] == "check" else ([],):
            full = argv[:1] + ["--in", inputs["web3"]] + argv[1:] + seed + ["--json"]
            code, text = run_command(full)
            assert code == 0, text
            doc = json.loads(text)
            assert doc.pop("command") == "polarweb " + " ".join(full)
            doc.pop("timestamp")
            assert doc["report"] is None or doc["report"]["seed"] is None
            bodies.append(doc)
        assert bodies[0] == bodies[-1]

    def test_singular_set_depends_on_no_seed(self, tmp_path):
        # every pair of coefficients shares a factor in y, so eliminating y
        # takes the combination fallback of common_zeros
        path = tmp_path / "pairwise.txt"
        path.write_text("type: web\nform: y*(y-1)*(x+1)*dx^2 + (y-1)*(y-2)*(x-1)*dx*dy"
                        " + (y-2)*y*(x+2)*dy^2\n")
        code, text = run_command(["singular", "--in", str(path)])
        assert code == 0, text
        body = [line for line in _body(text).splitlines() if not line.startswith("command")]
        assert body[:3] == [f"singular point: {p} [exact]" for p in ("(-2, 1)", "(-1, 2)", "(1, 0)")]

    def test_across_processes_and_hash_seeds(self, inputs):
        cmd = [
            sys.executable, "-m", "polarweb.cli",
            "check", "--in", inputs["web"], "--theorem", "branches", "--seed", "11", "--samples", "3",
        ]
        outs = []
        for hash_seed in ("0", "424242"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=300)
            assert proc.returncode == 0, proc.stderr
            outs.append(_body(proc.stdout))
        assert outs[0] == outs[1]


class TestGoldenReports:
    @pytest.mark.parametrize(
        "name,argv",
        [
            ("polar", ["polar", "--in", "{web}", "--center", "1,2", "--json"]),
            ("degree", ["degree", "--in", "{web}", "--json"]),
            ("singular", ["singular", "--in", "{fol}", "--json"]),
            ("directions", ["directions", "--in", "{web}", "--point", "1,0", "--json"]),
            ("localsing", ["localsing", "--in", "{curve}", "--point", "0,0", "--json"]),
            ("check-polar-degree",
             ["check", "--in", "{web}", "--theorem", "polar-degree", "--seed", "7", "--samples", "3", "--json"]),
            ("check-family-dim",
             ["check", "--in", "{web}", "--theorem", "family-dim", "--seed", "7", "--json"]),
            ("discriminant-3-web", ["discriminant", "--in", "{web3}", "--json"]),
            ("localsing-3-factors", ["localsing", "--in", "{germ}", "--point", "0,0", "--json"]),
            ("check-qr-bound",
             ["check", "--in", "{fol2}", "--theorem", "qr-bound", "--seed", "7", "--samples", "3", "--json"]),
            ("check-sing-locus-foliation",
             ["check", "--in", "{fol2}", "--theorem", "sing-locus", "--seed", "7", "--samples", "3", "--json"]),
            ("check-sing-locus-web",
             ["check", "--in", "{web2}", "--theorem", "sing-locus", "--seed", "7", "--samples", "3", "--json"]),
            ("singular-2-web", ["singular", "--in", "{web2}", "--json"]),
            ("check-qr-dichotomy",
             ["check", "--in", "{fol9}", "--theorem", "qr-dichotomy", "--seed", "7", "--json"]),
            ("check-polar-equality",
             ["check", "--in", "{web}", "--theorem", "polar-equality", "--seed", "7", "--samples", "3", "--json"]),
            ("check-k2",
             ["check", "--in", "{web}", "--theorem", "k2", "--seed", "7", "--samples", "3", "--json"]),
            ("check-irreducible-web",
             ["check", "--in", "{web}", "--theorem", "irreducible", "--seed", "7", "--json"]),
            ("check-irreducible-decomposable",
             ["check", "--in", "{lines}", "--theorem", "irreducible", "--seed", "7", "--json"]),
            ("check-equising",
             ["check", "--in", "{fol2}", "--theorem", "equising", "--seed", "7", "--samples", "3", "--json"]),
            ("check-genus-constant",
             ["check", "--in", "{fol2}", "--theorem", "genus-constant", "--seed", "7", "--samples", "3", "--json"]),
        ],
    )
    def test_matches_golden(self, inputs, name, argv):
        argv = [a.format(**inputs) for a in argv]
        code, text = run_command(argv)
        assert code == 0
        doc = json.loads(text)
        doc.pop("timestamp")
        doc["command"] = " ".join(argv[:1])  # the path differs per tmpdir
        golden = json.loads((GOLDEN / f"{name}.json").read_text())
        golden.pop("timestamp")
        golden["command"] = " ".join(argv[:1])
        assert doc == golden


class TestCheckRegistry:
    # samples.requested (= samples.used) of each theorem at --samples 6, in
    # registry order: each sampled theorem's cap applied once.  The others
    # are decided on the polar family and take no sample
    EXPECTED_SAMPLES = dict(zip(
        ("polar-degree", "polar-equality", "k2", "family-dim", "base-points", "sing-locus",
         "branches", "irreducible", "inflexion-lemma", "sing-in-E", "qr-dichotomy", "qr-bound",
         "equising", "genus-constant"),
        (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 6, 5),
    ))

    def test_registry_order(self):
        from polarweb.cli import CHECKS

        assert list(CHECKS) == list(self.EXPECTED_SAMPLES)

    @pytest.mark.parametrize("theorem", list(EXPECTED_SAMPLES))
    def test_every_check_runs_with_its_cap(self, inputs, theorem):
        code, text = run_command(
            ["check", "--in", inputs["fol"], "--theorem", theorem, "--seed", "3", "--samples", "6", "--json"]
        )
        assert code == 0, text
        samples = json.loads(text)["report"]["samples"]
        assert samples["requested"] == samples["used"] == self.EXPECTED_SAMPLES[theorem]

    NO_SAMPLE = [t for t, n in EXPECTED_SAMPLES.items() if n == 0]

    @pytest.mark.parametrize("theorem, kind", [(t, "fol") for t in NO_SAMPLE]
                             + [(t, "web") for t in NO_SAMPLE if CHECKS[t][0] is _as_web])
    def test_a_check_without_samples_ignores_samples_and_seed(self, inputs, theorem, kind):
        # the same report for --samples 1 and 20 and for two seeds, which
        # records no seed; the 2-web's sing-locus is the identity of its
        # nonzero inflexion curve
        reports = []
        for samples, seed in (("1", "3"), ("20", "3"), ("1", "8")):
            code, text = run_command(["check", "--in", inputs[kind], "--theorem", theorem,
                                      "--seed", seed, "--samples", samples, "--json"])
            assert code == 0, text
            doc = json.loads(text)
            assert doc["report"]["seed"] is None
            reports.append((doc["output"], doc["report"]))
        assert reports[0] == reports[1] == reports[2]

    @pytest.mark.parametrize("flag", ["--base-points", "--degree", "--dimension"])
    def test_a_family_report_records_no_seed(self, inputs, flag):
        code, text = run_command(["family", "--in", inputs["web"], flag, "--json"])
        assert code == 0, text
        report = json.loads(text)["report"]
        assert report["seed"] is None
        assert report["samples"] == {"requested": 0, "used": 0, "discarded": []}

    def test_a_check_without_samples_draws_nothing(self, inputs, tmp_path, monkeypatch):
        # every binding of GenericSampler in the package refuses to be built;
        # the inputs: a foliation, a web with R ≢ 0 and one with R ≡ 0
        from polarweb.sampling import GenericSampler

        class Refused:
            def __init__(self, seed):
                raise AssertionError("a check without samples built a sampler")

        for name, module in list(sys.modules.items()):
            if name.startswith("polarweb") and module is not None:
                for key, value in list(vars(module).items()):
                    if value is GenericSampler:
                        monkeypatch.setattr(module, key, Refused)
        mixed = tmp_path / "mixed.txt"
        mixed.write_text("type: web\nform: dx*(dy^2 - x*dx^2)\n")
        for theorem in self.NO_SAMPLE:
            paths = [inputs["fol"]] + ([inputs["web"], str(mixed)] if CHECKS[theorem][0] is _as_web else [])
            for path in paths:
                code, text = run_command(["check", "--in", path, "--theorem", theorem, "--seed", "3"])
                assert code == 0, (theorem, path, text)

    def test_dichotomy_takes_no_sample(self, tmp_path):
        # four singular points (+-1, +-1): one identity and one note per point
        fol = tmp_path / "fol4.txt"
        fol.write_text("type: foliation\nA: x^2 - 1\nB: y^2 - 1\n")
        code, text = run_command(
            ["check", "--in", str(fol), "--theorem", "qr-dichotomy", "--seed", "1", "--samples", "2", "--json"]
        )
        assert code == 0, text
        report = json.loads(text)["report"]
        assert report["samples"] == {"requested": 0, "used": 0, "discarded": []}
        assert (len(report["assertions"]), len(report["notes"])) == (1, 4)


class TestToleranceOverrides:
    """No flag sets a tolerance: the module constants stay as they are."""

    def _settings(self):
        from polarweb import numerics

        return numerics.RESIDUAL_TOL

    def test_overrides_restored_after_an_error(self):
        defaults = self._settings()
        code, _ = run_command(["degree", "--in", "/nonexistent/input.txt", "--tol-cluster", "0.75"])
        assert code == 2
        assert self._settings() == defaults


class TestOptionValidation:
    """--samples takes a positive int; anything else is a usage error that
    names the flag.  No --tol-* flag is left, and --seed is a flag of check
    alone: argparse names either one as an unrecognized argument with any
    value."""

    @pytest.mark.parametrize("flag,value", [
        ("--samples", "0"), ("--samples", "-1"),
        *[(f"--tol-{name}", value) for name in ("residual", "cluster", "root-residual")
          for value in ("0", "-1", "nan", "inf")],
    ])
    def test_bad_value_is_a_usage_error(self, inputs, capsys, flag, value):
        code, text = run_command(["check", "--in", inputs["fol"], "--theorem", "polar-degree", flag, value])
        err = capsys.readouterr().err
        assert (code, text) == (2, "")
        if flag.startswith("--tol-"):
            assert f"unrecognized arguments: {flag} {value}" in err
        else:
            assert f"argument {flag}:" in err
        assert "Traceback" not in err

    # each subcommand but check, with the flags it requires besides --in
    SUBCOMMANDS = [
        ["polar", "--center", "1,2"], ["degree"], ["discriminant"], ["singular"], ["directions", "--point", "1,0"],
        ["inflexion"], ["classify-sing", "--point", "0,0"], ["family", "--degree"], ["class"], ["genus"],
        ["localsing", "--point", "0,0"],
    ]

    @pytest.mark.parametrize("argv", SUBCOMMANDS, ids=lambda argv: argv[0])
    def test_only_check_takes_a_seed(self, inputs, capsys, argv):
        code, text = run_command(argv[:1] + ["--in", inputs["web"]] + argv[1:] + ["--seed", "1"])
        err = capsys.readouterr().err
        assert (code, text) == (2, "")
        assert "unrecognized arguments: --seed 1" in err

    @pytest.mark.parametrize("flag,value", [("--tol-cluster", "1e-5"), ("--tol-root-residual", "1e-9")])
    @pytest.mark.parametrize("argv", SUBCOMMANDS + [["check", "--theorem", "polar-degree"]], ids=lambda argv: argv[0])
    def test_no_subcommand_takes_a_tolerance(self, inputs, capsys, argv, flag, value):
        code, text = run_command(argv[:1] + ["--in", inputs["fol"]] + argv[1:] + [flag, value])
        err = capsys.readouterr().err
        assert (code, text) == (2, "")
        assert f"unrecognized arguments: {flag} {value}" in err

    def test_genus_constant_with_no_samples(self, inputs):
        # used to FAIL with `genera: []`
        code, text = run_command(["check", "--in", inputs["fol"], "--theorem", "genus-constant",
                                  "--samples", "0"])
        assert code == 2
        assert "genera" not in text

    def test_negative_root_residual_is_not_a_numeric_abort(self, inputs):
        # used to reach univariate_roots and abort with exit 3
        argv = ["directions", "--in", inputs["web"], "--point", "2,0"]
        assert run_command(argv)[0] == 0
        assert run_command(argv + ["--tol-root-residual", "-1"]) == (2, "")


class TestFuzz:
    """Seeded generated command lines: every one ends in an exit code in
    {0, 1, 2, 3}, and no exception escapes `run_command`.  On each of them,
    and on hostile shapes, `cli._parse_args` does what argparse does."""

    INPUTS = {
        "web": "type: web\nform: dy^2 - x*dx^2\n",
        "radial": "type: web\nform: x*dy - y*dx\n",
        "product": "type: web\nform: dx*dy\n",
        "web3": "type: web\nform: dy^3 + x*dx^2*dy + y*dx^3 + (x - y)*dx*dy^2\n",
        "fol": "type: foliation\nA: x^2\nB: y^2\n",
        "fol-qr": "type: foliation\nA: x - y^2\nB: y + x^2\n",
        "fol-lines": "type: foliation\nA: 1\nB: 0\n",
        "fol-common": "type: foliation\nA: x*y\nB: x*y^2\n",
        "cusp": "type: curve\nf: y^2 - x^3\n",
        "conic": "type: curve\nf: x^2 + y^2 - 1\n",
        "e6": "type: curve\nf: (y - x^2 + 2)^3 - (x^2 - 2)^4\n",
        "reducible": "type: curve\nf: (x - y)*(x + y - 1)\n",
        "line": "type: curve\nf: x + 2*y - 1\n",
        "constant": "type: curve\nf: 3\n",
        "empty": "",
        "no-type": "form: dx\n",
        "bad-type": "type: surface\nf: x\n",
        "no-form": "type: web\n",
        "zero-form": "type: web\nform: 0\n",
        "inhomogeneous": "type: web\nform: dx + x\n",
        "dangling": "type: web\nform: dx +\n",
        "open-paren": "type: curve\nf: (x - y\n",
        "implicit": "type: curve\nf: 2x\n",
        "unknown-var": "type: curve\nf: x + z\n",
        "too-big": "type: curve\nf: x^33\n",
        "zero-field": "type: foliation\nA: 0\nB: 0\n",
    }
    MISSING = "/nonexistent/fuzz.txt"
    POINTS = ["0,0", "1,0", "1,2", "-1/2,3", "1/0,2", "a,b", "1", "", "1,2,3", "0.5,1", "--", "1e999999999,0"]
    SAMPLES = ["0", "-1", "1", "2", "0", "-1", "1", "2", "x"]  # one malformed in nine
    TOLERANCES = ["0", "-1", "nan", "1e-9"]
    FAMILY = ["--base-points", "--degree", "--dimension"]

    # the inputs each command reads: webs, foliations or curves
    FOLIATIONS = ["fol", "fol-qr", "fol-lines", "fol-common"]
    WEBS = ["web", "radial", "product", "web3"] + FOLIATIONS
    CURVES = ["cusp", "conic", "e6", "reducible", "line", "constant"]
    READS = {"inflexion": FOLIATIONS, "classify-sing": FOLIATIONS,
             "class": CURVES, "genus": CURVES, "localsing": CURVES}

    def _argv(self, rng, paths, command, theorem=None):
        """A command line; most of them name an input of the kind it reads."""
        kind = self.READS.get(command, self.WEBS)
        if theorem is not None and CHECKS[theorem][0] is _as_foliation:
            kind = self.FOLIATIONS
        path = paths[rng.choice(kind)] if rng.random() < 0.7 else rng.choice(list(paths.values()))
        argv = [command, "--in", path]
        if command == "polar":
            argv += ["--center", rng.choice(self.POINTS)]
        if command in ("directions", "classify-sing", "localsing"):
            argv += ["--point", rng.choice(self.POINTS)]
        if command == "family":
            argv.append(rng.choice(self.FAMILY))
        if command == "genus" and rng.random() < 0.5:
            argv.append("--affine-only")
        if command == "check":
            argv += ["--theorem", theorem, "--samples", rng.choice(self.SAMPLES)]
        if rng.random() < 0.5 and command == "check":
            argv += ["--seed", str(rng.randint(-5, 50))]
        if rng.random() < 0.3:
            flag = rng.choice(["--tol-cluster", "--tol-root-residual"])
            argv += [flag, rng.choice(self.TOLERANCES)]
        if rng.random() < 0.3:
            argv.append("--json")
        if rng.random() < 0.05:
            argv.remove("--in")  # a required option goes missing
        return argv

    # argv shapes that the table reader must hand to argparse, or read as it does
    HOSTILE = [
        [], [""], ["x", "y"], ["-h"], ["--help"], ["bogus"], ["degre", "--in", "f"], ["--", "degree"],
        ["degree", "-h"], ["check", "--in", "f", "--theorem", "k2", "--help"],
        # abbreviations and = forms
        ["check", "--in", "f", "--theorem", "k2", "--samp", "3"], ["degree", "--i", "f"],
        ["degree", "--in=f"], ["check", "--in", "f", "--theorem=k2"], ["degree", "--in", "f", "--json="],
        # repeats: the last value is kept
        ["check", "--in", "f", "--in", "g", "--theorem", "k2", "--theorem", "irreducible", "--seed", "1",
         "--seed", "2"], ["degree", "--json", "--in", "f", "--json"],
        # --, dashes and negative values
        ["degree", "--", "--in", "f"], ["degree", "--in", "f", "--"], ["degree", "--in", "--", "f"],
        ["check", "--in", "f", "--theorem", "k2", "--seed", "-5"], ["degree", "--in", "-"],
        ["degree", "-in", "f"], ["degree", "--in", "--json"], ["polar", "--in", "f", "--center", "-1,2"],
        ["degree", "--in", "f", "--tol-root-residual", "-1e-9"],
        # removed flags, and a flag of check only
        ["degree", "--in", "f", "--tol-residual", "1e-9"], ["degree", "--in", "f", "--tol-cluster", "1e-5"],
        ["degree", "--in", "f", "--seed", "1"],
        # stray words and missing values
        ["degree", "--in", "f", "x", "y"], ["degree", "--in", "f", "--json", "true"],
        ["check", "--in", "f", "--theorem", "k2", "--seed", "1", "2"], ["degree", "--in"], ["x", "--in", "f"],
        # empty values
        ["degree", "--in", ""], ["check", "--in", "f", "--theorem", ""],
        ["check", "--in", "f", "--theorem", "k2", "--seed", ""],
        ["polar", "--in", "f", "--center", ""], ["degree", "--in", "f", "--tol-cluster", ""],
        # type and choice rejections
        ["check", "--in", "f", "--theorem", "bogus"], ["check", "--in", "f", "--theorem", "K2"],
        ["check", "--in", "f", "--theorem", "k2", "--samples", "0"],
        ["check", "--in", "f", "--theorem", "k2", "--seed", "5.0"],
        ["check", "--in", "f", "--theorem", "k2", "--seed", " 7 "], ["degree", "--in", "f", "--tol-cluster", "nan"],
        # a required flag missing
        ["degree"], ["check", "--theorem", "k2"], ["check", "--in", "f"], ["polar", "--in", "f"],
        ["localsing", "--point", "0,0"], ["directions", "--in", "f", "--json"],
        # family has a mutually exclusive group: argparse reads it
        ["family", "--in", "f", "--degree"], ["family", "--in", "f", "--degree", "--dimension"],
        ["family", "--in", "f"],
        # well formed
        ["genus", "--in", "f", "--affine-only", "--json"], ["class", "--in", "f"],
        ["check", "--json", "--samples", "3", "--theorem", "qr-bound", "--in", "f", "--tol-root-residual", "1e-6"],
    ]

    def _cases(self, tmp_path) -> list[list[str]]:
        paths = {"missing": self.MISSING}
        for name, text in self.INPUTS.items():
            path = tmp_path / f"{name}.txt"
            path.write_text(text)
            paths[name] = str(path)
        commands = ["polar", "degree", "discriminant", "singular", "directions", "inflexion",
                    "classify-sing", "family", "class", "genus", "localsing"]
        targets = [(c, None) for c in commands] + [("check", t) for t in CHECKS]
        rng = random.Random(20261018)
        cases = [self._argv(rng, paths, c, t) for c, t in targets]
        while len(cases) < 300:
            cases.append(self._argv(rng, paths, *rng.choice(targets)))
        return cases + [[], ["bogus"], ["check", "--in", paths["web"], "--theorem", "bogus"]]

    def test_the_argv_reader_agrees_with_argparse(self, tmp_path, capsys):
        from polarweb.cli import _build_parser, _parse_args

        def outcome(parse, argv):
            try:
                result = parse(list(argv))
            except SystemExit as exit:
                result = ("exit", exit.code)
            return result, *capsys.readouterr()

        mismatches = [argv for argv in self._cases(tmp_path) + self.HOSTILE
                      if outcome(_parse_args, argv) != outcome(_build_parser().parse_args, argv)]
        assert not mismatches

    def test_generated_command_lines(self, tmp_path):
        failures = []
        for argv in self._cases(tmp_path):
            try:
                code, _ = run_command(argv)
            except Exception as exc:  # noqa: BLE001 - the test reports it
                failures.append((argv, repr(exc)))
                continue
            if code not in (0, 1, 2, 3):
                failures.append((argv, code))
        assert not failures, failures
