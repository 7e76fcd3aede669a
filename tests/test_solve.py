"""Univariate root splitting: Yun's decomposition on integers, the exact
rational root test, and the roots it reports; and the elimination fallback
of `common_zeros`."""

from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from polarweb import MPoly
from polarweb import solve
from polarweb.errors import InternalInvariantError
from polarweb.mpoly import divisibility_multiplicity, exact_div, poly_gcd
from polarweb.solve import (
    _combination_resultant,
    _vanishes_at,
    common_zeros,
    squarefree_decomposition_univariate,
    univariate_root_split,
)

x = MPoly.variable("x")
y = MPoly.variable("y")


def fraction_yun(f: MPoly, var: str) -> list[tuple[MPoly, int]]:
    """Yun's decomposition on Fraction `MPoly`s with `poly_gcd`: the route
    `squarefree_decomposition_univariate` took before it ran on integer
    lists, kept as the reference."""
    if f.degree_in(var) == 0:
        return []
    fp = f.derivative(var)
    a = poly_gcd(f, fp)
    b = exact_div(f, a)
    d = exact_div(fp, a) - b.derivative(var)
    out = []
    i = 1
    while b.degree_in(var) > 0:
        g = poly_gcd(b, d) if not d.is_zero() else b.canonical()
        if g.degree_in(var) > 0:
            out.append((g, i))
        b = exact_div(b, g)
        d = exact_div(d, g) - b.derivative(var) if not d.is_zero() else -b.derivative(var)
        i += 1
    return out


def from_list(coeffs) -> MPoly:
    return MPoly.from_coeffs_in("x", [MPoly.constant(c) for c in coeffs])


# a rational root a/b in lowest terms, its linear factor b*x - a
roots = st.tuples(st.integers(-30, 30), st.integers(1, 30)).map(lambda t: Fraction(*t))
# a primitive integer factor of degree 1 to 3, possibly reducible
factors = st.lists(st.integers(-5, 5), min_size=1, max_size=3).flatmap(
    lambda low: st.integers(1, 5).map(lambda top: from_list(low + [top]))
).filter(lambda f: f.degree_in("x") > 0).map(MPoly.canonical)
multiplicities = st.integers(1, 3)


@st.composite
def planted(draw):
    """(f, {root: multiplicity planted}): a rational unit times powers of
    rational linear factors, of x, and of other primitive integer factors."""
    linear = draw(st.dictionaries(roots, multiplicities, max_size=3))
    others = draw(st.lists(st.tuples(factors, multiplicities), max_size=2))
    x_power = draw(st.integers(0, 2))
    unit = draw(st.fractions(min_value=-9, max_value=9, max_denominator=7).filter(bool))
    f = prod((((r.denominator * x - r.numerator) ** k) for r, k in linear.items()), start=MPoly.constant(unit))
    f = prod((g**k for g, k in others), start=f) * x**x_power
    if x_power:
        linear[Fraction(0)] = linear.get(Fraction(0), 0) + x_power
    return f, linear


class TestSquarefreeDecomposition:
    @given(planted())
    @settings(max_examples=150, deadline=None)
    def test_matches_the_fraction_reference(self, case):
        f, _ = case
        assert squarefree_decomposition_univariate(f, "x") == fraction_yun(f.canonical(), "x")

    def test_factors_are_canonical(self):
        f = Fraction(-2, 3) * (2 * x + 1) ** 2 * (x**2 - 3) * x**3
        assert squarefree_decomposition_univariate(f, "x") == [
            ((x**2 - 3).canonical(), 1), (2 * x + 1, 2), (x, 3)
        ]

    def test_constant_has_no_factors(self):
        assert squarefree_decomposition_univariate(MPoly.constant(5), "x") == []


@pytest.fixture
def solves(monkeypatch):
    """The coefficient lists the root split hands to Aberth."""
    calls = []
    real = solve.univariate_roots

    def counted(coeffs):
        calls.append(list(coeffs))
        return real(coeffs)

    monkeypatch.setattr(solve, "univariate_roots", counted)
    return calls


class TestRootSplit:
    @given(planted())
    @settings(max_examples=150, deadline=None)
    def test_planted_rational_roots_with_exact_multiplicities(self, case):
        f, linear = case
        rational, numeric = univariate_root_split(f, "x")
        found = dict(rational)
        assert len(found) == len(rational)
        for r, k in found.items():
            assert k == divisibility_multiplicity(f, r.denominator * x - r.numerator)
        for r in linear:
            assert r in found
        assert sum(k for _, k in rational) + sum(k for _, k in numeric) == f.degree_in("x")

    def test_one_aberth_solve_per_factor_state(self, solves):
        rational, numeric = univariate_root_split((x - 1) * (x**2 - 2), "x")
        assert rational == [(Fraction(1), 1)] and len(numeric) == 2
        # one solve of the cubic, and one of the quadratic left after 1 is peeled
        assert solves == [[2, -2, -1, 1], [-2, 0, 1]]

    def test_peeled_factor_keeps_the_scale_of_rational_division(self, solves):
        univariate_root_split((3 * x - 1) * (x**2 - 2), "x")
        # (3x^3 - x^2 - 6x + 2) / (x - 1/3) = 3x^2 - 6
        assert solves == [[2, -6, -1, 3], [-6, 0, 3]]

    # ROADMAP item 3: rational roots are found by rounding Aberth
    # approximations with `limit_denominator`, which misses roots that are
    # close together or have large denominators.  p-adic lifting fixes both.
    @pytest.mark.xfail(strict=True, reason="ROADMAP item 3: close rational roots are missed")
    def test_close_rational_roots(self):
        r1, r2 = Fraction(1, 10**7), Fraction(1, 10**7) + Fraction(1, 10**13)
        rational, _ = univariate_root_split((x - r1) * (x - r2), "x")
        assert sorted(rational) == [(r1, 1), (r2, 1)]

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 3: large-denominator rational roots are missed")
    def test_large_denominator_rational_root(self):
        f = (3 * x - 1) * (30000000000 * x - 10000000003) * (x**2 - 2)
        rational, _ = univariate_root_split(f, "x")
        assert sorted(rational) == [(Fraction(1, 3), 1), (Fraction(10000000003, 30000000000), 1)]


class TestExactRootTest:
    candidates = st.one_of(
        st.just(Fraction(0)),
        roots,
        st.tuples(st.integers(-10**6, 10**6), st.integers(1, 10**6)).map(lambda t: Fraction(*t)),
    )

    @given(st.lists(st.integers(-20, 20), min_size=1, max_size=6).filter(any), candidates,
           st.booleans(), st.integers(0, 2))
    @settings(max_examples=300, deadline=None)
    def test_matches_exact_evaluation(self, coeffs, cand, plant, x_power):
        f = from_list(coeffs) * x**x_power
        if plant:
            # make cand a root, so the test sees both answers
            f = f * (cand.denominator * x - cand.numerator)
        ints = [int(c) for c in f.univariate_coeffs("x")]
        assert _vanishes_at(ints, cand) == (f.evaluate({"x": cand}) == 0)

    def test_zero_constant_term_and_negative_numerator(self):
        assert _vanishes_at([0, 2, 3], Fraction(0))  # 3x^2 + 2x
        assert _vanishes_at([0, 2, 3], Fraction(-2, 3))
        assert not _vanishes_at([0, 2, 3], Fraction(2, 3))
        assert not _vanishes_at([5, 2, 3], Fraction(0))
        # the divisibility filter alone would admit -1: b | 3 and -1 | 2
        assert not _vanishes_at([2, 0, 3], Fraction(-1))


def _staircase(r, s):
    """p_i = (x - s_i) * prod_{j != i} (y - r_j): for three or more distinct
    r_j every pair shares a factor in y, the gcd of all is 1, and the common
    zeros are the points (s_i, r_i)."""
    return [(x - si) * prod((y - rj for j, rj in enumerate(r) if j != i), start=MPoly.constant(1))
            for i, si in enumerate(s)]


class TestCombinationFallback:
    def test_web_with_pairwise_common_factors(self, monkeypatch):
        calls, real = [], solve._combination_resultant
        monkeypatch.setattr(solve, "_combination_resultant", lambda polys, v: calls.append(v) or real(polys, v))
        # the coefficients of the 2-web in tests/test_cli.py::TestDeterminism
        zs = common_zeros([y * (y - 1) * (x + 1), (y - 1) * (y - 2) * (x - 1), (y - 2) * y * (x + 2)])
        assert zs.rational == [(-2, 1), (-1, 2), (1, 0)] and not zs.numeric
        # only the elimination of y needs the combinations
        assert calls == ["y"]

    @settings(max_examples=25, deadline=None)
    @given(st.integers(3, 4).flatmap(lambda n: st.tuples(
        st.lists(st.integers(-6, 6), min_size=n, max_size=n, unique=True),
        st.lists(st.integers(-6, 6), min_size=n, max_size=n, unique=True))))
    def test_staircases(self, rs):
        r, s = rs
        zs = common_zeros(_staircase(r, s))
        assert zs.rational == sorted(zip(s, r)) and not zs.numeric

    def test_common_factor_exhausts_the_bound(self):
        # outside its precondition (gcd 1) every combination keeps the factor y
        with pytest.raises(InternalInvariantError):
            _combination_resultant([y * (x + 1), y * (x - 1)], "y")
