"""Exact polynomial core: arithmetic, gcd, resultants, discriminants, jets."""

import sys
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, seed, settings, strategies as st

from battery import to_sympy
from polarweb import MPoly, discriminant_binary, jet_decompose, poly_gcd, resultant, squarefree_part
from polarweb import mpoly
from polarweb.errors import PolynomialError
from polarweb.mpoly import (
    _CERT_PRIME,
    _certified_coprime,
    exact_div,
    format_mpoly,
    lowest_jet,
    proper_shears,
    shear,
    try_exact_div,
)

x = MPoly.variable("x")
y = MPoly.variable("y")
dx = MPoly.variable("dx")
dy = MPoly.variable("dy")

# the order in which shears x -> x + lam*y are tried: 0, 1, -1, 2, -2, ...
SLOPES = [0, 1, -1, 2, -2, 3, -3, 4, -4, 5, -5, 6, -6]


def pencil(slopes) -> MPoly:
    """The web of the lines dx = m*dy, one for each slope m."""
    return prod((dx - m * dy for m in slopes), start=MPoly.constant(1))


def small_polys(variables=("x", "y"), max_terms=4, max_exp=3):
    coeff = st.integers(-6, 6)
    exp = st.tuples(*[st.integers(0, max_exp) for _ in variables])
    term = st.tuples(exp, coeff)
    return st.lists(term, min_size=0, max_size=max_terms).map(
        lambda terms: sum(
            (
                MPoly(variables, {e: c})
                for e, c in terms
                if c != 0
            ),
            MPoly.zero(),
        )
    )


def rational_polys(variables=("x", "y", "z")):
    """Sparse polynomials in three variables with rational coefficients."""
    return st.tuples(small_polys(variables), st.integers(1, 5)).map(lambda t: t[0] * Fraction(1, t[1]))


def sylvester_matrix(f: MPoly, g: MPoly, var: str) -> list[list[MPoly]]:
    m, n = f.degree_in(var), g.degree_in(var)
    fc, gc = f.coeffs_in(var)[::-1], g.coeffs_in(var)[::-1]
    rows = []
    for coeffs, count in ((fc, n), (gc, m)):
        for i in range(count):
            row = [MPoly.zero()] * (m + n)
            row[i:i + len(coeffs)] = coeffs
            rows.append(row)
    return rows


def sylvester_resultant(f: MPoly, g: MPoly, var: str) -> MPoly:
    """Determinant of the Sylvester matrix by fraction-free (Bareiss)
    elimination: the reference route for `resultant`."""
    mat = sylvester_matrix(f, g, var)
    n = len(mat)
    denom = MPoly.constant(1)
    sign = 1
    for k in range(n - 1):
        if mat[k][k].is_zero():
            pivot = next((i for i in range(k + 1, n) if not mat[i][k].is_zero()), None)
            if pivot is None:
                return MPoly.zero()
            mat[k], mat[pivot] = mat[pivot], mat[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                mat[i][j] = exact_div(mat[i][j] * mat[k][k] - mat[i][k] * mat[k][j], denom)
            mat[i][k] = MPoly.zero()
        denom = mat[k][k]
    det = mat[n - 1][n - 1]
    return det if sign == 1 else -det


def prem(a: MPoly, b: MPoly, var: str) -> MPoly:
    """Pseudo-remainder of a by b in var: lc(b)^(da-db+1) * a mod b, on
    `MPoly`s."""
    db = b.degree_in(var)
    lcb = b.coeffs_in(var)[db]
    r = a
    e = a.degree_in(var) - db + 1
    while not r.is_zero() and r.degree_in(var) >= db:
        dr = r.degree_in(var)
        r = r * lcb - b * r.coeffs_in(var)[dr] * MPoly.variable(var) ** (dr - db)
        e -= 1
    return r * lcb**e if e > 0 else r


def subresultant_resultant(f: MPoly, g: MPoly, var: str) -> MPoly:
    """Res(f, g) in var by the subresultant PRS over the rationals: the route
    `resultant` took before evaluation and interpolation, kept as a reference."""
    m, n = f.degree_in(var), g.degree_in(var)
    sign = 1
    a, b = f, g
    if m < n:
        a, b = b, a
        if m % 2 == 1 and n % 2 == 1:
            sign = -sign
    gg = MPoly.constant(1)
    h = MPoly.constant(1)
    while b.degree_in(var) > 0:
        da, db = a.degree_in(var), b.degree_in(var)
        delta = da - db
        if da % 2 == 1 and db % 2 == 1:
            sign = -sign
        r = prem(a, b, var)
        if r.is_zero():
            return MPoly.zero()
        a = b
        b = exact_div(r, gg * h**delta)
        gg = a.coeffs_in(var)[a.degree_in(var)]
        if delta > 0:
            h = exact_div(gg**delta, h ** (delta - 1)) if delta > 1 else gg
    if b.is_zero():
        return MPoly.zero()
    da = a.degree_in(var)
    bb = b.coeffs_in(var)[0]
    res = exact_div(bb**da, h ** (da - 1)) if da > 1 else bb
    return res if sign == 1 else -res



def termwise_substitute(f: MPoly, assignments) -> MPoly:
    """`MPoly.substitute` as it was before it accumulated into one dict:
    every term is built as its own MPoly and added to the running total.
    Kept as the reference, term order included."""
    subs = {v: (p if isinstance(p, MPoly) else MPoly.constant(p)) for v, p in assignments.items()}
    idx = {v: f.variables.index(v) for v in subs}
    keep = [i for i, v in enumerate(f.variables) if v not in subs]
    powers = {v: [MPoly.constant(1)] for v in subs}

    def power(v, n):
        cache = powers[v]
        while len(cache) <= n:
            cache.append(cache[-1] * subs[v])
        return cache[n]

    total = MPoly.zero()
    for e, c in f.terms.items():
        piece = MPoly((), {(): c})
        mono = {f.variables[i]: e[i] for i in keep if e[i]}
        if mono:
            piece = piece * MPoly(tuple(mono), {tuple(mono.values()): 1})
        for v, i in idx.items():
            if e[i]:
                piece = piece * power(v, e[i])
        total = total + piece
    return total


def fraction_univariate_gcd(f: MPoly, g: MPoly, var: str) -> MPoly:
    """Euclid on Fraction coefficient lists, the divisor made monic at every
    step: the route the univariate `poly_gcd` took before it ran on
    integers, kept as the reference."""
    def strip(u):
        while u and u[-1] == 0:
            u.pop()
        return u

    a, b = (strip([c.constant_value() for c in h.coeffs_in(var)]) for h in (f, g))
    while b:
        if len(a) < len(b):
            a, b = b, a
            continue
        inv = Fraction(1) / b[-1]
        bb = [c * inv for c in b]
        r = list(a)
        while True:
            strip(r)
            if len(r) < len(bb):
                break
            q = r[-1]
            off = len(r) - len(bb)
            for i, c in enumerate(bb):
                r[off + i] -= q * c
            r.pop()
        a, b = b, r
    return MPoly.from_coeffs_in(var, [MPoly.constant(c) for c in a]).canonical()


def assert_well_formed(r: MPoly) -> None:
    """What the trusted constructor relies on and keeps: sorted, distinct
    variables that all occur, exponent vectors of their length, no zero
    coefficient, and the same value through the validating constructor."""
    assert list(r.variables) == sorted(set(r.variables))
    assert all(len(e) == len(r.variables) for e in r.terms)
    assert all(any(e[i] for e in r.terms) for i in range(len(r.variables)))
    assert all(c != 0 for c in r.terms.values())
    assert r == MPoly(r.variables, r.terms)

class TestArithmetic:
    def test_product_identity(self):
        assert (x + y) * (x - y) == x**2 - y**2

    def test_power_zero(self):
        assert x**0 == 1

    def test_subtraction(self):
        assert (y**2 - x**3) - y**2 == -(x**3)

    def test_negative_power_rejected(self):
        with pytest.raises(PolynomialError):
            x ** (-1)

    def test_power_above_exponent_cap_rejected(self):
        with pytest.raises(PolynomialError, match="exponent above cap"):
            x ** 2**33
        with pytest.raises(PolynomialError, match="exponent above cap"):
            (x * y**2) ** (mpoly.MAX_EXPONENT // 2 + 1)
        top = (x * y) ** mpoly.MAX_EXPONENT
        assert top == MPoly(("x", "y"), {(mpoly.MAX_EXPONENT, mpoly.MAX_EXPONENT): 1})

    @given(small_polys(), small_polys(), small_polys())
    @settings(max_examples=60, deadline=None)
    def test_ring_laws(self, f, g, h):
        assert f + g == g + f
        assert f * g == g * f
        assert (f + g) + h == f + (g + h)
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h


class TestDerivative:
    def test_cubic(self):
        assert (y**2 - x**3).derivative("x") == -3 * x**2

    def test_product(self):
        assert (x * y).derivative("y") == x

    def test_constant(self):
        assert MPoly.constant(5).derivative("x") == 0


class TestEvaluate:
    @given(small_polys(("x", "y", "z")), st.fractions(-5, 5, max_denominator=9),
           st.fractions(-5, 5, max_denominator=9), st.fractions(-5, 5, max_denominator=9),
           st.fractions(1, 4, max_denominator=3))
    @settings(max_examples=100, deadline=None)
    def test_common_denominator_matches_fraction_sums(self, f, a, b, c, scale):
        f = f * scale
        point = {"x": a, "y": b, "z": c}
        ref = sum((Fraction(k) * prod(point[v] ** i for v, i in zip(f.variables, e))
                   for e, k in f.terms.items()), Fraction(0))
        got = f.evaluate(point)
        assert got == ref and (type(got) is int) == (ref.denominator == 1)


class TestSubstitute:
    def test_hand_expansion(self):
        got = (dx * dy).substitute({"dx": x - 1, "dy": y - 2})
        assert got == x * y - 2 * x - y + 2

    def test_identity(self):
        assert (x**2).substitute({"x": x}) == x**2

    def test_radial_contraction_vanishes(self):
        assert (x * dy - y * dx).substitute({"dx": x, "dy": y}) == 0

    @given(rational_polys(), st.fixed_dictionaries({}, optional={
        v: st.one_of(st.integers(-3, 3), rational_polys(("x", "t"))) for v in ("x", "y", "z", "a")}))
    @settings(max_examples=60, deadline=None)
    def test_absent_variables_are_left_alone(self, f, s):
        present = {v: p for v, p in s.items() if v in f.variables}
        assert f.substitute(s) == f.substitute(present) == termwise_substitute(f, present)
        assert f.substitute({"t": x}) is f

    @given(small_polys(), small_polys())
    @settings(max_examples=40, deadline=None)
    def test_ring_homomorphism(self, f, g):
        subs = {"x": x + 1, "y": y * y - 2}
        def apply(p):
            use = {v: subs[v] for v in p.variables if v in subs}
            return p.substitute(use) if use else p
        assert apply(f * g) == apply(f) * apply(g)
        assert apply(f + g) == apply(f) + apply(g)



class TestTrustedConstructor:
    """Every result built by the trusted constructor is well formed."""

    @given(rational_polys(), rational_polys())
    @settings(max_examples=60, deadline=None)
    def test_arithmetic(self, f, g):
        for r in (f + g, f - g, f * g, -f, f * Fraction(-2, 3), f * 0, f + 1):
            assert_well_formed(r)
        for v in ("x", "y", "z", "t"):
            assert_well_formed(f.derivative(v))
        if not f.is_zero():
            assert_well_formed(f.canonical())
        if not g.is_zero():
            assert_well_formed(try_exact_div(f * g, g))
            q = try_exact_div(f, g)
            if q is not None:
                assert_well_formed(q)

    @given(rational_polys(), st.sampled_from(["x", "y", "z", "t"]))
    @settings(max_examples=60, deadline=None)
    def test_coefficient_views(self, f, var):
        coeffs = f.coeffs_in(var)
        for c in coeffs:
            assert_well_formed(c)
        back = MPoly.from_coeffs_in(var, coeffs)
        assert_well_formed(back)
        assert back == f

    @given(rational_polys(), st.integers(-2, 2), st.integers(-2, 2))
    @settings(max_examples=60, deadline=None)
    def test_jets(self, f, a, b):
        if f.is_zero():
            return
        for part in jet_decompose(f, ("x", "y"), (a, b)).values():
            assert_well_formed(part)

    def test_constructors(self):
        for r in (MPoly.zero(), MPoly.constant(0), MPoly.constant(Fraction(-3, 4)), MPoly.variable("dx")):
            assert_well_formed(r)
        assert MPoly.constant(0) == MPoly.zero()

    def test_from_coeffs_in_with_the_variable_in_a_coefficient(self):
        got = MPoly.from_coeffs_in("x", [x, MPoly.constant(-1), y])
        assert got == x**2 * y
        assert_well_formed(got)

    def test_from_coeffs_in_matches_the_sum(self):
        coeffs = [y - 1, MPoly.zero(), x * y, -x]
        got = MPoly.from_coeffs_in("x", coeffs)
        ref = sum((c * x**k for k, c in enumerate(coeffs)), MPoly.zero())
        assert got == ref and list(got.terms) == list(ref.terms)


class TestSubstituteMatchesTermwise:
    """One-dict substitution against the term-by-term reference: the same
    polynomial with the same term order."""

    @staticmethod
    def check(f, subs):
        got = f.substitute(subs)
        ref = termwise_substitute(f, subs)
        assert_well_formed(got)
        assert got == ref
        assert list(got.terms) == list(ref.terms)
        return got

    @given(rational_polys(), rational_polys(), rational_polys(("x", "t")))
    @settings(max_examples=80, deadline=None)
    def test_random(self, f, g, h):
        for candidates in ((("x", g), ("y", h), ("z", 3)), (("x", 0), ("y", -1), ("z", 2))):
            subs = {v: p for v, p in candidates if v in f.variables}
            if subs:
                self.check(f, subs)

    @given(rational_polys(("x", "y")), st.integers(-3, 3), st.integers(-3, 3))
    @settings(max_examples=60, deadline=None)
    def test_translations_and_shears(self, f, a, lam):
        if "x" in f.variables:
            self.check(f, {"x": x + a})
            self.check(f, {"x": x + lam * y})
        if set(f.variables) == {"x", "y"}:
            self.check(f, {"y": y + a, "x": x - a})

    @given(rational_polys(), rational_polys(("y", "z")))
    @settings(max_examples=60, deadline=None)
    def test_cancellation_removes_variables(self, g, h):
        # x -> -y cancels x + y: no variable of g * (x + y) but those of h is left
        if g.is_zero():
            return
        got = self.check(g * (x + y) + h, {"x": -y})
        assert got == h and got.variables == h.variables

    def test_a_cancelled_term_comes_back_last(self):
        # the pieces are x, z, -x, x: x leaves the sum and comes back after z
        z = MPoly.variable("z")
        got = self.check(x * y + z - x * y**2 + x * y**3, {"y": 1})
        assert list(got.terms) == [(0, 1), (1, 0)]

    def test_a_product_cancelling_inside_one_term(self):
        # x*y -> (a + b)*(a - b): the a*b products cancel before a*b comes in
        a, b, t = (MPoly.variable(v) for v in "abt")
        got = self.check(x * y + t + a * b, {"x": a + b, "y": a - b})
        assert got == a**2 - b**2 + t + a * b

    def test_everything_cancels(self):
        assert self.check((x - y) * (x + y), {"x": y}).is_zero()
        assert self.check(x * y - y * x + x, {"x": 0}).is_zero()
        t = MPoly.variable("t")
        assert self.check(x**2 - 2 * x * y + y**2, {"x": t + 1, "y": t + 1}).is_zero()


class TestWorkCount:
    def test_a_check_job_makes_no_validating_construction(self, tmp_path, monkeypatch):
        from polarweb.cli import run_command

        calls = []
        validating = MPoly.__init__

        def counted(self, *args, **kwargs):
            calls.append(1)
            validating(self, *args, **kwargs)

        monkeypatch.setattr(MPoly, "__init__", counted)
        path = tmp_path / "fol.txt"
        path.write_text("type: foliation\nA: x^2 - 2*x*y + 3*y - 1\nB: y^2 + x*y - 2*x + 2\n")
        code, text = run_command(["check", "--in", str(path), "--theorem", "polar-degree",
                                  "--samples", "4", "--seed", "1"])
        assert code == 0, text
        assert len(calls) == 0

    def test_a_polar_degree_job_multiplies_no_more(self, tmp_path, monkeypatch):
        # the job reads the top part of the polar family and takes no
        # center; the polars at the rational centers (-66/73, 95/9), ... that
        # the sampled checks draw at seed 1 take no `*` at all: the scaled
        # linear forms of the integer substitution are built as term dicts
        from polarweb.cli import run_command
        from polarweb.parsing import parse_input
        from polarweb.polarops import polar_curve
        from polarweb.sampling import GenericSampler

        calls = []
        real = MPoly.__mul__

        def counted(self, other):
            calls.append(1)
            return real(self, other)

        monkeypatch.setattr(MPoly, "__mul__", counted)
        monkeypatch.setattr(MPoly, "__rmul__", counted)
        path = tmp_path / "fol.txt"
        path.write_text("type: foliation\nA: x^2 - 2*x*y + 3*y - 1\nB: y^2 + x*y - 2*x + 2\n")
        code, text = run_command(["check", "--in", str(path), "--theorem", "polar-degree",
                                  "--samples", "4", "--seed", "1"])
        assert code == 0, text
        assert len(calls) <= 2
        web = parse_input(str(path))[0]
        sampler = GenericSampler(1)
        centers = [sampler.center() for _ in range(4)]
        assert str(centers[0]) == "(-66/73, 95/9)"
        calls.clear()
        assert all(polar_curve(web, p).raw.total_degree() == 3 for p in centers)
        assert calls == []

    def test_the_foliation_singular_locus_takes_four_resultants(self, tmp_path, monkeypatch):
        # Z = V(A, B, A_x, A_y, B_x, B_y) has 15 generator pairs per eliminant;
        # the lazy gcd is constant after the second resultant of each
        from polarweb.cli import run_command

        calls = []
        real = mpoly.resultant

        def counted(f, g, var):
            calls.append(var)
            return real(f, g, var)

        for name, module in list(sys.modules.items()):
            if name.startswith("polarweb") and module is not None:
                for key, value in list(vars(module).items()):
                    if value is real:
                        monkeypatch.setattr(module, key, counted)
        path = tmp_path / "fol.txt"
        path.write_text("type: foliation\nA: 3*x^2 - 3*x*y - y^2 + x + 2*y + 1\n"
                        "B: -x^2 + x*y + y^2 + 3*x - y - 2\n")
        code, text = run_command(["check", "--in", str(path), "--theorem", "sing-locus",
                                  "--samples", "4", "--seed", "1"])
        assert code == 0, text
        assert len(calls) <= 4


def scan_exact_div(f: MPoly, g: MPoly) -> MPoly | None:
    """Division by a nonconstant g with a scan of the whole remainder for
    its leading term at every step: the reference for `try_exact_div`'s
    heap."""
    names, a, b = f._aligned(g)
    rem = dict(a)
    ge = max(b, key=lambda t: (sum(t), t))
    q: dict = {}
    while rem:
        fe = max(rem, key=lambda t: (sum(t), t))
        de = tuple(u - v for u, v in zip(fe, ge))
        if any(k < 0 for k in de):
            return None
        qc = mpoly._div(rem[fe], b[ge])
        q[de] = qc
        for eb, cb in b.items():
            e = tuple(u + v for u, v in zip(de, eb))
            nc = rem.get(e, 0) - qc * cb
            if nc:
                rem[e] = nc
            else:
                del rem[e]
    return MPoly._make(names, q)


class TestHeapDivision:
    """`try_exact_div` takes the leading remainder term from a heap; the
    quotient and its term order are those of a scan at every step."""

    @given(rational_polys(), rational_polys(), small_polys(("x", "y", "z"), max_terms=2))
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_a_scan_on_products_and_non_multiples(self, f, g, r):
        if g.is_constant():
            return  # no leading term to divide by, and no heap
        for numerator in (f * g, f * g + r, f + r):
            got, ref = try_exact_div(numerator, g), scan_exact_div(numerator, g)
            assert (got is None) == (ref is None)
            if got is not None:
                assert got == ref and list(got.terms) == list(ref.terms)
                assert got * g == numerator

    @pytest.mark.parametrize("g, q", [(x - y, x + y), (x + y + 2, x * y**2 + x * y - y**2)],
                             ids=["a stale exponent", "an exponent pushed twice"])
    def test_a_term_that_cancels_below_the_lead(self, g, q):
        # x^2 - y^2 over x - y: y^2 cancels at the second step and its entry
        # comes up after that; in the second product a remainder term cancels
        # and comes back, so its exponent is in the heap twice
        got = try_exact_div(g * q, g)
        assert got == q
        assert list(got.terms) == list(scan_exact_div(g * q, g).terms)

    def test_a_non_multiple_past_the_first_step(self):
        assert try_exact_div(x**3 + y, x - 1) is None
        assert try_exact_div(x**2 * y + x + 1, x * y) is None


class TestGcdSquarefree:
    def test_monomials(self):
        assert poly_gcd(x**2 * y, x * y**2) == x * y

    def test_squarefree_part(self):
        assert squarefree_part(x**2 * (y - 1)) == (x * (y - 1)).canonical()

    def test_cusp_gradient_coprime(self):
        assert poly_gcd(y**2 - x**3, 2 * y) == 1

    def test_both_zero_rejected(self):
        with pytest.raises(PolynomialError):
            poly_gcd(MPoly.zero(), MPoly.zero())

    @given(small_polys(("x",), max_terms=4, max_exp=4), small_polys(("x",), max_terms=4, max_exp=4),
           small_polys(("x",), max_terms=3, max_exp=3), st.integers(1, 6), st.integers(1, 6))
    @settings(max_examples=80, deadline=None)
    def test_univariate_gcd_matches_fraction_euclid(self, f, g, h, p, q):
        a, b = f * h * Fraction(1, p), g * h * Fraction(q, 5)
        if a.variables != ("x",) or b.variables != ("x",):
            return
        got = poly_gcd(a, b)
        ref = fraction_univariate_gcd(a, b, "x")
        assert got == ref and list(got.terms) == list(ref.terms)
        assert_well_formed(got)

    def test_univariate_gcd_with_a_real_common_factor(self):
        f = (x - 1) ** 2 * (3 * x + 2) * Fraction(1, 6)
        g = (x - 1) * (3 * x + 2) ** 2 * (x + 5)
        assert poly_gcd(f, g) == ((x - 1) * (3 * x + 2)).canonical()

    def test_gcd_divides_both(self):
        f = (x + y) ** 2 * (x - 2)
        g = (x + y) * (y + 3)
        d = poly_gcd(f, g)
        assert d == (x + y).canonical()
        assert try_exact_div(f, d) is not None
        assert try_exact_div(g, d) is not None


@pytest.fixture
def prem_calls(monkeypatch):
    """Counts the runs of the subresultant PRS on the packed pairs of
    `poly_gcd`."""
    calls, real = [], mpoly._subresultants
    monkeypatch.setattr(mpoly, "_subresultants", lambda a, b: calls.append(1) or real(a, b))
    return calls


class TestCoprimalityCertificate:
    # the point is 2 + 7j: x (j = 0) is 2 and y (j = 1) is 9

    def test_coprime_pair_needs_no_prem(self, prem_calls):
        assert poly_gcd(x**2 + y**2 - 1, x * y - 2) == 1
        assert poly_gcd(y**3 - x**2 * y + 5, 3 * x * y**2 - x + 1) == 1
        assert prem_calls == []

    def test_shared_factor_of_the_images_falls_back(self, prem_calls):
        # both are proper in x, and at y = 9 both images are x
        assert poly_gcd(x - y + 9, x + y - 9) == 1
        assert prem_calls

    def test_a_pair_proper_in_no_variable_takes_the_prem(self, prem_calls):
        # neither is proper in x or y, so no image pair is tried, though the
        # gcd is 1
        f = (x - 2) * y + 1
        assert not _certified_coprime(f, x * y + 1, ["x", "y"])
        assert poly_gcd(f, x * y + 1) == 1
        assert prem_calls

    def test_leading_coefficient_vanishing_at_every_point_falls_back(self, prem_calls):
        f = (x - 2) * (x - 5) * (x - 8) * y + 1
        assert not _certified_coprime(f, x * y + 1, ["x", "y"])
        assert poly_gcd(f, x * y + 1) == 1
        assert prem_calls

    def test_denominator_divisible_by_the_prime_falls_back(self, prem_calls):
        f = y + x * Fraction(1, _CERT_PRIME)
        assert not _certified_coprime(f, y + 1, ["y"])
        assert poly_gcd(f, y + 1) == 1
        assert prem_calls

    def test_a_pair_proper_in_no_variable_falls_back(self, prem_calls):
        # neither holds x^2 or y^2; the images in x at y = 9 are 10(x + 1)
        # and 10(x + 2), coprime, but the common factor y + 1 is free of x
        f, g = (y + 1) * (x + 1), (y + 1) * (x + 2)
        assert not _certified_coprime(f, g, ["x", "y"])
        assert poly_gcd(f, g) == y + 1
        assert prem_calls

    def test_a_proper_pair_takes_one_image_pair(self, monkeypatch):
        calls, real = [], mpoly._coprime_mod_p
        monkeypatch.setattr(mpoly, "_coprime_mod_p", lambda a, b, p: calls.append(1) or real(a, b, p))
        f = 3 * x**2 - 2 * x * y + y**2 + 5 * x - y + 7
        g = x**2 + 4 * x * y - 3 * y**2 - x + 2 * y - 6
        assert poly_gcd(f, g) == 1
        assert len(calls) == 1

    @given(small_polys(), small_polys(), small_polys(max_terms=3, max_exp=2), st.sampled_from([None, "x", "y"]))
    @settings(max_examples=80, deadline=None)
    def test_never_certifies_a_planted_factor(self, f, g, h, proper):
        if f.is_zero() or g.is_zero() or h.is_constant():
            return
        if proper:
            # f and h proper in the variable, so f * h is too
            v = MPoly.variable(proper)
            f, h = f + v ** (f.total_degree() + 1), h + v ** (h.total_degree() + 1)
        a, b = f * h, g * h
        active = [v for v in a.variables if v in b.variables]
        assert not _certified_coprime(a, b, active)


class TestMonomialFactors:
    # f1 and g1 share x + y + 1 and are divisible by no variable
    f1 = (x + y + 1) * (x - 2 * y + 3)
    g1 = (x + y + 1) * (y**2 + x + 5)

    def test_least_exponents_times_the_gcd_of_the_cofactors(self):
        assert poly_gcd(self.f1, self.g1) == x + y + 1
        assert poly_gcd(x**2 * y * self.f1, x * y**3 * self.g1) == x * y * (x + y + 1)

    def test_a_monomial_gcd_takes_no_prem(self, prem_calls):
        assert poly_gcd(x**2 * y * (x - 2 * y + 3), x * y**3 * (y**2 + x + 5)) == x * y
        assert poly_gcd(y, y + x - 2) == 1
        assert prem_calls == []


class TestResultant:
    def test_sylvester_2x2_by_hand(self):
        assert resultant(y**2 - x, y, "y") == -x

    def test_linear_case(self):
        assert resultant(y - x, y + x, "y") == 2 * x

    def test_common_factor_gives_zero(self):
        f = y**2 - x**3 + x * y
        assert resultant(f, f, "y") == 0

    def test_degenerate_rejected(self):
        with pytest.raises(PolynomialError):
            resultant(x + 1, y, "y")

    @given(small_polys(max_terms=3, max_exp=2), small_polys(max_terms=3, max_exp=2))
    @settings(max_examples=30, deadline=None)
    def test_matches_sylvester_determinant(self, f, g):
        if f.degree_in("y") == 0 or g.degree_in("y") == 0:
            return
        assert resultant(f, g, "y") == sylvester_resultant(f, g, "y")

    @given(small_polys(max_terms=2, max_exp=2), small_polys(max_terms=2, max_exp=2))
    @settings(max_examples=30, deadline=None)
    def test_zero_iff_common_factor(self, f, g):
        # planted common factor forces a zero resultant
        h = x * y + y + 1
        f1, g1 = f * h, g * h
        if f1.degree_in("y") == 0 or g1.degree_in("y") == 0:
            return
        assert resultant(f1, g1, "y") == 0
        # and in general: zero resultant iff the gcd has positive y-degree
        if f.degree_in("y") > 0 and g.degree_in("y") > 0 and not (f.is_zero() or g.is_zero()):
            assert (resultant(f, g, "y") == 0) == (poly_gcd(f, g).degree_in("y") > 0)

    @given(rational_polys(), rational_polys(), st.sampled_from(["y", "x"]))
    @settings(max_examples=60, deadline=None)
    def test_matches_subresultant_prs(self, f, g, var):
        if f.degree_in(var) == 0 or g.degree_in(var) == 0:
            return
        assert resultant(f, g, var) == subresultant_resultant(f, g, var)

    def test_bezout_bound_attained(self):
        # dense f, g of total degrees 3 and 4 with nonzero y^3 and y^4 terms:
        # Res_y has total degree 3 * 4 = 12
        def dense(d, seed):
            return sum((MPoly(("x", "y"), {(i, j): (seed * (i + 3) + j) % 7 - 3 or 1})
                        for i in range(d + 1) for j in range(d + 1 - i)), MPoly.zero())

        f, g = dense(3, 2), dense(4, 5)
        res = resultant(f, g, "y")
        assert res.total_degree() == 12
        assert res == sylvester_resultant(f, g, "y")

    def test_leading_coefficient_vanishing_at_the_first_points(self):
        # lc_y f vanishes at x = 0, 1, -1, 2, the first four evaluation points
        f = x * (x - 1) * (x + 1) * (x - 2) * y**2 + (x**2 + 3) * y - x + 5
        g = (x - 2) * y**3 + y * x**2 - 7
        assert resultant(f, g, "y") == sylvester_resultant(f, g, "y")

    def test_rational_content_scales(self):
        # Res(y^2 - x, 2y + 3) = 4 * (9/4 - x); the contents give (1/6)^1 * (1/4)^2
        f, g = (y**2 - x) * Fraction(1, 6), (2 * y + 3) * Fraction(1, 4)
        assert resultant(f, g, "y") == (9 - 4 * x) * Fraction(1, 96)
        assert resultant(f, g, "y") == sylvester_resultant(f, g, "y")

    def test_odd_degrees_sign(self):
        assert resultant(y + 1, y**3, "y") == -1
        assert resultant(y**3, y + 1, "y") == 1

    def test_planted_common_factor_in_three_variables(self):
        z = MPoly.variable("z")
        h = x * y - z + 2
        f, g = h * (y**2 + z * x - 1), h * (x * z**2 + y + 3)
        assert resultant(f, g, "y") == 0
        assert resultant(f, g, "x") == 0


# the eliminated variable y first, then up to three others: widths 1 to 4
WIDTHS = [("y",), ("y", "x"), ("y", "x", "z"), ("y", "x", "z", "w")]
big = 10**40


def big_polys(variables, max_terms=3, max_exp=2):
    """Sparse polynomials of positive degree in y, the first variable, with
    coefficients up to 10^40 in absolute value, about half of them negative."""
    exponents = st.tuples(*[st.integers(0, max_exp) for _ in variables])
    coeffs = st.integers(-big, big).filter(bool)
    return st.dictionaries(exponents, coeffs, min_size=1, max_size=max_terms).map(
        lambda terms: MPoly(variables, terms)).filter(lambda f: f.degree_in("y") > 0)


class TestKroneckerPacking:
    """`resultant` packs every variable but the eliminated one into one big
    integer at 2^B and reads Res back from balanced base-2^B digits: the
    reads checked against the Sylvester determinant and sympy's where the
    digits are large, negative, zero in between, and in widths 1 to 4."""

    @given(st.sampled_from(WIDTHS).flatmap(lambda v: st.tuples(big_polys(v), big_polys(v))))
    @settings(max_examples=40, deadline=None)
    def test_coefficients_up_to_10_to_the_40(self, pair):
        f, g = pair
        assert resultant(f, g, "y") == sylvester_resultant(f, g, "y")

    @given(st.sampled_from(WIDTHS).flatmap(lambda v: st.tuples(big_polys(v), big_polys(v))))
    @settings(max_examples=20, deadline=None)
    def test_coefficients_up_to_10_to_the_40_against_sympy(self, sympy, pair):
        from sympy.polys.subresultants_qq_zz import sylvester

        f, g = pair
        matrix = sylvester(to_sympy(sympy, f), to_sympy(sympy, g), sympy.Symbol("y"))
        assert resultant(f, g, "y") == from_sympy(sympy, sympy.expand(matrix.det()))

    @pytest.mark.parametrize("c", [10**12, -10**12, 2**64 - 1, -(2**64)])
    def test_a_resultant_near_the_digit_width(self, c):
        # Res_y(y - c*x - c, y^2 - c) = c^2 x^2 + 2c^2 x + c^2 - c: each
        # coefficient takes about two thirds of the bits that B - 1 holds, and
        # a width of half of B drops its top digits
        f, g = y - c * x - c, y**2 - c
        expected = c**2 * x**2 + 2 * c**2 * x + c**2 - c
        assert resultant(f, g, "y") == expected == sylvester_resultant(f, g, "y")

    def test_zero_interior_coefficients(self):
        # F_1 = G_1 = 0 in y, and coefficients in x with gaps of six and
        # more powers: zero digits between nonzero ones
        z = MPoly.variable("z")
        f = y**4 + (10**30 * x**6 - 1) * y**2 - x**3 + 7 * z**5
        g = y**3 - 10**20 * x**4 * z**2 + 7 - x**9
        assert resultant(f, g, "y") == sylvester_resultant(f, g, "y")
        assert resultant(f.substitute({"z": 1}), g.substitute({"z": 1}), "y") == \
            sylvester_resultant(f.substitute({"z": 1}), g.substitute({"z": 1}), "y")

    @given(st.sampled_from(WIDTHS).flatmap(lambda v: st.tuples(big_polys(v), big_polys(v))))
    @settings(max_examples=20, deadline=None)
    def test_one_resultant_is_one_prs(self, pair):
        # the work count: no PRS per evaluation node
        f, g = pair
        calls, real = [], mpoly._int_prs_resultant
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mpoly, "_int_prs_resultant", lambda a, b: calls.append(1) or real(a, b))
            resultant(f, g, "y")
        assert calls == [1]


def gcd_polys(variables, max_terms=3, max_exp=2):
    """Sparse polynomials with coefficients that are small fractions, or
    integers up to 10^40, or 10^12 and 2^64 - 1 and their negatives, the
    values of `TestKroneckerPacking.test_a_resultant_near_the_digit_width`."""
    exponents = st.tuples(*[st.integers(0, max_exp) for _ in variables])
    coeffs = st.one_of(st.fractions(-9, 9, max_denominator=6), st.integers(-big, big),
                       st.sampled_from([10**12, -10**12, 2**64 - 1, -(2**64)])).filter(bool)
    return st.dictionaries(exponents, coeffs, min_size=1, max_size=max_terms).map(lambda t: MPoly(variables, t))


def radix_triples():
    """(f, g, h) for the pair f*h, g*h in w, x and y, where f lacks x and g
    has x^p, p from 2 to 4: f = w^2*y^2 + f0, g = w*x^p*y^2 + g0 and
    h = w*(x + h1) + x^2 + h0, with f0 free of x, and g0, h1 and h0 in y of
    degree at most 1.  Each variable has degree at least 2 in both, w has 2
    in g*h, and w sorts first, so the PRS runs in w, and x is packed but not
    last.  The last subresultant S_1 has one row of f*h and two of g*h, so
    its degree in x may reach 2 + 2*(p + 2), past the radix
    deg_w(g*h) * deg_x(f*h) + 1 = 5 of the rows of f*h alone."""
    w = MPoly.variable("w")
    low = gcd_polys(("y",), max_exp=1)
    return st.tuples(gcd_polys(("w", "y")), st.integers(2, 4), low, low, low).map(
        lambda t: (w**2 * y**2 + t[0], w * x ** t[1] * y**2 + t[2], w * (x + t[3]) + x**2 + t[4]))


class TestPackedGcd:
    """`poly_gcd` against sympy's gcd on 2 to 4 variables with a planted
    common factor, where the certificate fails and the gcd comes from the
    last subresultant of the packed pair: each other variable but the last
    needs a radix past its degree in every S_j."""

    # each of f, g and h may miss the last variable of its width, so that
    # one of the pair can be free of a packed variable that the other has;
    # `radix_triples` draws that case with a high power of the variable
    @seed(20261020)
    @given(radix_triples()
           | st.sampled_from(WIDTHS[1:]).flatmap(lambda v: st.tuples(*[gcd_polys(v) | gcd_polys(v[:-1])] * 3)))
    @settings(max_examples=60, deadline=None)
    def test_planted_common_factor_against_sympy(self, sympy, polys):
        f, g, h = polys
        if h.is_constant():
            return
        a, b = f * h, g * h
        got = poly_gcd(a, b)
        assert got == from_sympy(sympy, sympy.gcd(to_sympy(sympy, a), to_sympy(sympy, b))).canonical()
        assert try_exact_div(got, h.canonical()) is not None

    def test_a_subresultant_past_n_times_the_degree_of_the_first(self):
        # in w, A = (wx + 3y)(w^2 x + y^3) and B = (wx + 3y)(wx + y) have
        # m = 3, n = 2 and degree 2 in x; their S_1 has degree 5 in x, past
        # n * deg_x A = 4, so the radix of x needs the m * deg_x B of B's rows
        w = MPoly.variable("w")
        h = w * x + 3 * y
        assert poly_gcd(h * (w**2 * x + y**3), h * (w**2 * x + w * y)) == h


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


def from_sympy(sympy, expr) -> MPoly:
    gens = sorted(expr.free_symbols, key=str)
    if not gens:
        return MPoly.constant(Fraction(str(expr)))
    return MPoly([str(s) for s in gens], {e: Fraction(str(c)) for e, c in sympy.Poly(expr, *gens).terms()})


class TestSympyOracle:
    """The gcd, square-free part, resultant and discriminant against sympy's."""

    @given(rational_polys(), rational_polys())
    @settings(max_examples=60, deadline=None)
    def test_gcd_of_random_pairs(self, sympy, f, g):
        if f.is_zero() and g.is_zero():
            return
        expected = from_sympy(sympy, sympy.gcd(to_sympy(sympy, f), to_sympy(sympy, g)))
        assert poly_gcd(f, g) == expected.canonical()

    @given(rational_polys(), rational_polys(), small_polys(("x", "y", "z"), max_terms=3, max_exp=2))
    @settings(max_examples=40, deadline=None)
    def test_gcd_with_planted_factor(self, sympy, f, g, h):
        if f.is_zero() or g.is_zero() or h.is_zero():
            return
        a, b = f * h, g * h
        expected = from_sympy(sympy, sympy.gcd(to_sympy(sympy, a), to_sympy(sympy, b)))
        got = poly_gcd(a, b)
        assert got == expected.canonical()
        assert try_exact_div(got, h.canonical()) is not None

    @given(small_polys(max_terms=3, max_exp=2), small_polys(max_terms=3, max_exp=2))
    @settings(max_examples=40, deadline=None)
    def test_squarefree_part(self, sympy, f, g):
        p = f * g * g
        if p.is_constant():
            return
        expected = from_sympy(sympy, sympy.sqf_part(to_sympy(sympy, p)))
        assert squarefree_part(p) == expected.canonical()

    @given(small_polys(max_terms=3, max_exp=3), small_polys(max_terms=3, max_exp=3))
    @settings(max_examples=40, deadline=None)
    def test_resultant(self, sympy, f, g):
        # the oracle is sympy's Sylvester matrix: sympy.resultant has the wrong
        # sign when deg f < deg g and both degrees are odd (it gives
        # Res(y + 1, y^3) = 1, not -1)
        from sympy.polys.subresultants_qq_zz import sylvester

        if f.degree_in("y") == 0 or g.degree_in("y") == 0:
            return
        matrix = sylvester(to_sympy(sympy, f), to_sympy(sympy, g), sympy.Symbol("y"))
        assert resultant(f, g, "y") == from_sympy(sympy, sympy.expand(matrix.det()))

    @given(rational_polys(), rational_polys())
    @settings(max_examples=30, deadline=None)
    def test_resultant_in_three_variables(self, sympy, f, g):
        from sympy.polys.subresultants_qq_zz import sylvester

        if f.degree_in("y") == 0 or g.degree_in("y") == 0:
            return
        matrix = sylvester(to_sympy(sympy, f), to_sympy(sympy, g), sympy.Symbol("y"))
        assert resultant(f, g, "y") == from_sympy(sympy, sympy.expand(matrix.det()))

    @given(small_polys(max_terms=4, max_exp=3), st.lists(small_polys(max_terms=3, max_exp=2), min_size=3, max_size=3))
    @settings(max_examples=30, deadline=None)
    def test_resultant_in_four_variables(self, sympy, f, parts):
        # shaped like the class of a curve: g is linear in the center (a, b),
        # and y is eliminated, keeping a, b and x
        from sympy.polys.subresultants_qq_zz import sylvester

        p, q, r = parts
        g = MPoly.variable("a") * p + MPoly.variable("b") * q + r
        if f.degree_in("y") == 0 or g.degree_in("y") == 0:
            return
        matrix = sylvester(to_sympy(sympy, f), to_sympy(sympy, g), sympy.Symbol("y"))
        assert resultant(f, g, "y") == from_sympy(sympy, sympy.expand(matrix.det()))

    @given(st.lists(small_polys(("x",), max_terms=2, max_exp=2), min_size=3, max_size=4))
    @settings(max_examples=30, deadline=None)
    def test_discriminant_binary(self, sympy, coeffs):
        # the discriminant is invariant under the unimodular shear, so up to
        # sign and content it is sympy's discriminant in dx with dy = 1
        k = len(coeffs) - 1
        if coeffs[k].is_zero():
            return
        form = sum((c * dx**i * dy ** (k - i) for i, c in enumerate(coeffs)), MPoly.zero())
        dehomogenized = form.substitute({"dy": 1}) if "dy" in form.variables else form
        expected = sympy.discriminant(to_sympy(sympy, dehomogenized), sympy.Symbol("dx"))
        assert discriminant_binary(form) == from_sympy(sympy, sympy.expand(expected)).canonical()


class TestDiscriminantBinary:
    def test_sqrt_web(self):
        # b^2 - 4ac with a = -x, b = 0, c = 1, up to unit
        assert discriminant_binary(dy**2 - x * dx**2) == x

    def test_product_web_unit(self):
        assert discriminant_binary(dx * dy) == 1

    def test_degree_one_unit(self):
        assert discriminant_binary(dx) == 1

    def test_zero_rejected(self):
        with pytest.raises(PolynomialError):
            discriminant_binary(MPoly.zero())

    def test_form_vanishing_at_the_first_ten_slopes(self):
        # an 11-web of constant slopes has no repeated direction anywhere
        disc = discriminant_binary(pencil(SLOPES[:10] + [6]))
        assert disc.is_constant() and not disc.is_zero()
        # with a moving slope x, directions collide exactly where x is a slope
        disc = discriminant_binary(pencil(SLOPES[:10]) * (dx - x * dy))
        assert disc == prod(((x - m) ** 2 for m in SLOPES[:10]), start=MPoly.constant(1)).canonical()

    @given(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4))
    @settings(max_examples=40, deadline=None)
    def test_vanishes_iff_repeated_root(self, a0, a1, a2, x0):
        from polarweb.webmodel import binary_form_factors

        form = (
            MPoly.constant(a0) * dx**2
            + MPoly.constant(a1) * x * dx * dy
            + MPoly.constant(a2) * dy**2
        )
        if form.is_zero():
            return
        disc = discriminant_binary(form)
        val = (
            disc.evaluate({v: x0 for v in disc.variables})
            if not disc.is_constant()
            else disc.constant_value()
        )
        spec = (
            form.substitute({"x": MPoly.constant(x0)})
            if "x" in form.variables
            else form
        )
        if spec.is_zero():
            return
        # independent oracle: factor the specialized binary form over C
        repeated = any(m >= 2 for _, m in binary_form_factors(spec, "dx", "dy"))
        assert (val == 0) == repeated

    @given(st.integers(-3, 3), st.integers(-3, 3), st.integers(-2, 2), st.integers(-2, 2))
    @settings(max_examples=30, deadline=None)
    def test_cubic_form_vanishing_iff_repeated_root(self, a, b, x0, y0):
        from polarweb.webmodel import binary_form_factors

        form = (
            dy**3
            + MPoly.constant(a) * x * dx**2 * dy
            + MPoly.constant(b) * y * dx**3
            + dx * dy**2
        )
        disc = discriminant_binary(form)
        point = {v: (x0 if v == "x" else y0) for v in disc.variables}
        val = disc.evaluate(point) if not disc.is_constant() else disc.constant_value()
        spec = form.substitute(
            {v: (x0 if v == "x" else y0) for v in form.variables if v in ("x", "y")}
        )
        repeated = any(m >= 2 for _, m in binary_form_factors(spec, "dx", "dy"))
        assert (val == 0) == repeated


def binary_forms():
    """a*dx^2 + b*dx*dy + c*dy^2 with coefficients in x."""
    coeff = small_polys(("x",), max_terms=2, max_exp=2)
    return st.tuples(coeff, coeff, coeff).map(lambda t: t[0] * dx**2 + t[1] * dx * dy + t[2] * dy**2)


class TestShear:
    def test_identity_cases(self):
        f = x**2 + y
        assert shear(f, 0) is f
        g = y**3 + 1
        assert shear(g, 5) is g

    def test_substitution(self):
        assert shear(x * y, 2) == (x + 2 * y) * y
        assert shear(x * dx**2, -1, "dx", "dy") == x * (dx - dy) ** 2

    def test_zero_polynomial_has_no_shear(self):
        assert list(proper_shears([MPoly.zero(), x])) == []

    def test_default_candidates_stop_after_degree_plus_one(self):
        # a cubic vanishing at 0, 1, -1 leaves 2, the last of its four candidates
        assert list(proper_shears([pencil(SLOPES[:3])], u="dx", v="dy")) == [2]
        assert list(proper_shears([x * (x - y) * (x + y)])) == [2]

    @given(small_polys(), st.lists(st.integers(-5, 5), max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_yields_exactly_the_proper_candidates(self, f, candidates):
        if f.is_zero():
            return
        n = f.total_degree()
        got = list(proper_shears([f], candidates))
        assert got == [lam for lam in candidates if shear(f, lam).degree_in("y") == n]

    @given(small_polys(), small_polys())
    @settings(max_examples=60, deadline=None)
    def test_default_candidates_make_every_polynomial_y_proper(self, f, g):
        if f.is_zero() or g.is_zero():
            return
        lams = list(proper_shears([f, g]))
        assert lams
        for lam in lams:
            assert shear(f, lam).degree_in("y") == f.total_degree()
            assert shear(g, lam).degree_in("y") == g.total_degree()

    @given(st.integers(0, 9), binary_forms())
    @settings(max_examples=40, deadline=None)
    def test_form_vanishing_at_the_first_slopes_gets_the_next(self, j, h):
        direction = {"dx": SLOPES[j], "dy": 1}
        if h.is_zero() or h.substitute({v: direction[v] for v in h.variables if v in direction}).is_zero():
            return
        form = pencil(SLOPES[:j]) * h
        assert next(proper_shears([form], u="dx", v="dy")) == SLOPES[j]

    @given(small_polys(("x", "y", "dx", "dy")), st.integers(-4, 4))
    @settings(max_examples=60, deadline=None)
    def test_inverse_shear_gives_back_f(self, f, lam):
        assert shear(shear(f, lam), -lam) == f
        assert shear(shear(f, lam, "dx", "dy"), -lam, "dx", "dy") == f


class TestJets:
    def test_cusp(self):
        jets = jet_decompose(y**2 - x**3)
        assert jets == {2: y**2, 3: -(x**3)}

    def test_translate_constant(self):
        jets = jet_decompose(x, ("x", "y"), (1, 0))
        assert jets[0] == 1 and jets[1] == x

    def test_translation_kills_lower_terms(self):
        f = (x - 2) * (y - 3)
        jets = jet_decompose(f, ("x", "y"), (2, 3))
        assert list(jets) == [2] and jets[2] == x * y

    @given(small_polys(), st.integers(-3, 3), st.integers(-3, 3))
    @settings(max_examples=40, deadline=None)
    def test_parts_sum_to_translate(self, f, a, b):
        if f.is_zero():
            return
        jets = jet_decompose(f, ("x", "y"), (a, b))
        subs = {
            v: MPoly.variable(v) + MPoly.constant(c)
            for v, c in (("x", a), ("y", b))
            if v in f.variables and c != 0
        }
        translated = f.substitute(subs) if subs else f
        assert sum(jets.values(), MPoly.zero()) == translated

    def test_lowest_jet(self):
        order, init = lowest_jet(y**2 - x**3)
        assert order == 2 and init == y**2


class TestCanonicalForm:
    def test_exact_division(self):
        f = (x + y) * (x - y) * MPoly.constant(Fraction(3, 2))
        assert exact_div(f, x + y) == (x - y) * Fraction(3, 2)

    def test_format_round_trippable_shape(self):
        f = Fraction(3, 2) * x**2 * y - dx**2 * x
        assert format_mpoly(f) == "-dx^2*x + 3/2*x^2*y"

    def test_canonical_sign(self):
        assert (-(x**3) + y).canonical() == (x**3 - y).canonical()


def int_coefficients(f: MPoly) -> bool:
    return all(type(c) is int for c in f.terms.values())


class TestIntegerCoefficients:
    """A coefficient is an `int`, or a `Fraction` only where there is a
    denominator; nothing else gets into a polynomial."""

    @pytest.mark.parametrize("bad", [True, 0.5, 1.0, 1j], ids=["bool", "float", "integral float", "complex"])
    def test_validating_constructor_rejects(self, bad):
        # a float was once accepted, and str() then failed on its numerator
        with pytest.raises(PolynomialError, match="not an exact rational"):
            MPoly(("x",), {(1,): bad})
        with pytest.raises(PolynomialError, match="not an exact rational"):
            MPoly(("x",), {(1,): 1, (0,): bad})

    def test_integral_fractions_become_ints(self):
        f = MPoly(("x", "y"), {(1, 0): Fraction(4, 2), (0, 1): Fraction(1, 2), (0, 0): -3})
        assert [type(c) for c in f.terms.values()] == [int, Fraction, int]
        assert f == 2 * x + Fraction(1, 2) * y - 3
        assert type(MPoly.constant(Fraction(6, 3)).constant_value()) is int

    def test_divisions_keep_ints(self):
        f = 6 * x**2 - 4 * y
        assert int_coefficients(f.canonical()) and f.canonical() == 3 * x**2 - 2 * y
        assert [type(c) for c in (f * Fraction(1, 4)).canonical().terms.values()] == [int, int]
        assert int_coefficients(try_exact_div(f, MPoly.constant(2)))
        assert try_exact_div(f, MPoly.constant(4)) == Fraction(3, 2) * x**2 - y
        assert type(f.rational_content()) is int and f.rational_content() == 2
        assert (f * Fraction(1, 3)).rational_content() == Fraction(2, 3)

    @given(small_polys(), small_polys(), small_polys(max_terms=3, max_exp=2), st.integers(0, 3),
           st.integers(-3, 3), binary_forms())
    @settings(max_examples=40, deadline=None)
    def test_integers_stay_integers(self, sympy, f, g, h, n, t, form):
        from sympy.polys.subresultants_qq_zz import sylvester

        X, Y = sympy.symbols("x y")
        F, G, H = (to_sympy(sympy, p) for p in (f, g, h))
        # (result, sympy reference); the second list holds results that are
        # defined up to a unit and made canonical
        exact = [
            (f + g, F + G), (f - g, F - G), (f * g, F * G), (f**n, F**n),
            (f.derivative("x"), sympy.diff(F, X)),
            (f.substitute({"x": t}), F.subs(X, t)),
            (f.substitute({"x": h, "y": g}), F.subs({X: H, Y: G}, simultaneous=True)),
        ]
        canonical = []
        if not g.is_zero():
            exact.append((try_exact_div(f * g, g), F))
        if t:
            exact.append((try_exact_div(f * t, MPoly.constant(t)), F))
        if f.variables:
            canonical.append((f.canonical(), sympy.Poly(F, X, Y).primitive()[1].as_expr()))
        if not (f.is_zero() and g.is_zero()):
            canonical.append((poly_gcd(f, g), sympy.gcd(F, G)))
        if not (f * g).is_constant():
            canonical.append((squarefree_part(f * f * g), sympy.sqf_part(F * F * G)))
        if f.degree_in("y") and g.degree_in("y"):
            exact.append((resultant(f, g, "y"), sylvester(F, G, Y).det()))
        if not form.substitute({"dx": 1, "dy": 0}).is_zero():
            dehomogenized = to_sympy(sympy, form.substitute({"dy": 1}))
            canonical.append((discriminant_binary(form), sympy.discriminant(dehomogenized, sympy.Symbol("dx"))))
        for got, ref in exact + canonical:
            assert int_coefficients(got), got
        for got, ref in exact:
            assert got == from_sympy(sympy, sympy.expand(ref)), got
        for got, ref in canonical:
            assert got == from_sympy(sympy, sympy.expand(ref)).canonical(), got

    def test_no_float_reaches_a_polynomial(self, monkeypatch, tmp_path):
        """Every check on every battery input, through the command line: each
        polynomial built along the way has `int` or `Fraction` coefficients."""
        from battery import BATTERY
        from polarweb.cli import CHECKS, _as_foliation, run_command

        make, seen = MPoly._make, set()

        def checking(variables, terms):
            seen.update(map(type, terms.values()))
            return make(variables, terms)

        monkeypatch.setattr(MPoly, "_make", staticmethod(checking))
        path = tmp_path / "input.txt"
        for entry in BATTERY:
            fol = entry.foliation
            path.write_text("type: foliation\nA: {}\nB: {}\n".format(*fol.field) if fol is not None
                            else f"type: web\nform: {entry.web.form}\n")
            for theorem, (coerce, _) in CHECKS.items():
                if coerce is _as_foliation and fol is None:
                    continue
                code, _ = run_command(["check", "--in", str(path), "--theorem", theorem, "--samples", "2"])
                assert code == 0, (entry.name, theorem)
        assert seen and seen <= {int, Fraction}, seen
