"""Univariate root splitting: the roots it reports, checked against planted
factors and against sympy; the zero sets of `common_zeros` against sympy, its
lazy eliminants against the gcd of every candidate, and its elimination
fallback."""

from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from polarweb import MPoly
from polarweb import solve
from polarweb.errors import InternalInvariantError
from polarweb.errors import InfiniteZeroSetError
from battery import divisibility_multiplicity
from polarweb.mpoly import poly_gcd, resultant
from polarweb.solve import (
    _combination_resultant,
    common_zeros,
    int_root_split,
    univariate_root_split,
)

x = MPoly.variable("x")
y = MPoly.variable("y")


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


def times(a: list[int], b: list[int]) -> list[int]:
    """Product of two ascending int lists."""
    out = [0] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] += u * v
    return out


# an ascending int list with a nonzero top, of degree 0 to 4
int_lists = st.lists(st.integers(-9, 9), min_size=1, max_size=5).filter(lambda c: c[-1])


class TestIntEntry:
    @given(int_lists, st.integers(-6, 6).filter(bool))
    @settings(max_examples=100, deadline=None)
    def test_matches_the_mpoly_entry(self, coeffs, content):
        coeffs = [content * c for c in coeffs]
        assert int_root_split(coeffs) == univariate_root_split(from_list(coeffs), "x")


class TestSympyRootOracle:
    """Rational roots and multiplicities against the linear factors sympy's
    `factor_list` finds, on products of random int lists and planted
    rational linear factors."""

    @given(st.lists(int_lists, max_size=3), st.lists(st.tuples(roots, multiplicities), max_size=3))
    @settings(max_examples=200, deadline=None)
    def test_rational_roots_match_sympy(self, others, linear):
        sympy = pytest.importorskip("sympy")
        coeffs = [1]
        for g in others:
            coeffs = times(coeffs, g)
        for r, k in linear:
            for _ in range(k):
                coeffs = times(coeffs, [-r.numerator, r.denominator])
        t = sympy.Symbol("t")
        _, factors = sympy.factor_list(sympy.Poly(coeffs[::-1], t))
        expected = {}
        for h, k in factors:
            if h.degree() == 1:
                b, a = h.all_coeffs()
                root = Fraction(-int(a), int(b))
                expected[root] = expected.get(root, 0) + k
        rational, _ = int_root_split(coeffs)
        assert len(rational) == len(expected) and dict(rational) == expected


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


# small polynomials in (x, y): integer coefficients on monomials of degree <= 2
_MONOMIALS = [(i, j) for i in range(3) for j in range(3 - i)]
small_xy = st.lists(st.integers(-3, 3), min_size=len(_MONOMIALS), max_size=len(_MONOMIALS)).map(
    lambda cs: sum((c * x**i * y**j for (i, j), c in zip(_MONOMIALS, cs)), MPoly.zero()))
coordinates = st.fractions(-4, 4, max_denominator=3)


class TestSympyZeroSetOracle:
    """Rational zero sets against `sympy.solve_poly_system`: the generators
    P(x) + s*Q(y), Q(y) and g vanish on the grid of the roots of P and Q where
    g does, and g vanishes at one planted grid point, so every zero is
    rational and the set is finite and not empty."""

    @given(st.lists(coordinates, min_size=1, max_size=3, unique=True),
           st.lists(coordinates, min_size=1, max_size=3, unique=True),
           small_xy, small_xy, small_xy, st.data())
    @settings(max_examples=20, deadline=None)
    def test_planted_grids(self, xs, ys, s, u, v, data):
        sympy = pytest.importorskip("sympy")
        P = prod((x - a for a in xs), start=MPoly.constant(1))
        Q = prod((y - b for b in ys), start=MPoly.constant(1))
        x0, y0 = data.draw(st.sampled_from(xs)), data.draw(st.sampled_from(ys))
        g = u * (x - x0) + v * (y - y0)
        gens = [P + s * Q, Q, g]
        if g.is_zero() or g.is_constant():
            gens = gens[:2]
        zs = common_zeros(gens)
        X, Y = sympy.symbols("x y")
        system = [sympy.sympify(str(f).replace("^", "**"), locals={"x": X, "y": Y}) for f in gens]
        expected = {(Fraction(str(a)), Fraction(str(b)))
                    for a, b in sympy.solve_poly_system(system, X, Y)}
        assert set(zs.rational) == expected and (x0, y0) in expected
        assert not zs.numeric



def _close(p, q) -> bool:
    return all(abs(a - b) <= 1e-6 * max(1.0, abs(b)) for a, b in zip(p, q))


class TestSympyIrrationalZeroOracle:
    """Planted conjugate pairs with both coordinates irrational against
    `sympy.solve_poly_system`: f = x^2 - c with c not a square and
    g = y - (a*x + b), a != 0, hidden in the generators f*u + g*v,
    g*(x - y) + f and f + g^2.  Those vanish on the pair and, off it, where
    g = x - y, f = -(x - y)^2 and v = (x - y)*u, a line and a conic that is
    irreducible for c != 0, so the set is finite."""

    @given(st.sampled_from([-7, -6, -5, -3, -2, -1, 2, 3, 5, 6, 7, 8, 10]),
           st.integers(-3, 3).filter(bool), st.integers(-3, 3),
           st.lists(st.integers(-2, 2), min_size=6, max_size=6).filter(any))
    @settings(max_examples=25, deadline=None)
    def test_planted_pairs(self, c, a, b, uv):
        sympy = pytest.importorskip("sympy")
        f, g = x**2 - c, y - (a * x + b)
        u = uv[0] + uv[1] * x + uv[2] * y
        v = uv[3] + uv[4] * x + uv[5] * y
        gens = [f * u + g * v, g * (x - y) + f, f + g**2]
        zs = common_zeros(gens)
        found = [(complex(p), complex(q)) for p, q in zs.rational + zs.numeric]
        X, Y = sympy.symbols("x y")
        system = [sympy.sympify(str(h).replace("^", "**"), locals={"x": X, "y": Y}) for h in gens]
        expected = [(complex(sympy.N(p, 30)), complex(sympy.N(q, 30)))
                    for p, q in sympy.solve_poly_system(system, X, Y)]
        assert len(found) == len(expected), (found, expected)
        assert all(any(_close(p, q) for q in found) for p in expected), (found, expected)
        root = complex(c) ** 0.5
        for s in (root, -root):
            assert any(_close((s, a * s + b), q) for q in found)

def eager_eliminant(polys: list[MPoly], elim_var: str) -> MPoly:
    """The gcd of every candidate: the generators free of elim_var and every
    nonzero pairwise resultant, or the combination resultant when there are
    none; no candidate is skipped."""
    positive = [p for p in polys if p.degree_in(elim_var) > 0]
    candidates = [p for p in polys if p.degree_in(elim_var) == 0]
    for i in range(len(positive)):
        for j in range(i + 1, len(positive)):
            r = resultant(positive[i], positive[j], elim_var)
            if not r.is_zero():
                candidates.append(r)
    if not candidates:
        candidates.append(_combination_resultant(positive, elim_var))
    g = candidates[0]
    for c in candidates[1:]:
        g = poly_gcd(g, c)
    return g.canonical()


class TestLazyEliminant:
    """The lazy eliminants of `common_zeros` equal the eager gcd of all the
    candidates, on 2-6 random generators, some of them free of x or of y;
    with `planted`, each generator is u*(x - x0) + v*(y - y0), so (x0, y0) is
    a common zero."""

    @given(st.lists(st.tuples(small_xy, small_xy, st.sampled_from(["x", "y", None])), min_size=2, max_size=6),
           coordinates, coordinates, st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_equals_the_gcd_of_every_candidate(self, triples, x0, y0, planted):
        sx, sy = (x - x0, y - y0) if planted else (x, y)
        gens = []
        for u, v, free in triples:
            # `free` names the variable the generator is made free of
            if free:
                u, v = u.substitute({free: 0}), v.substitute({free: 0})
            g = (MPoly.zero() if free == "x" else u * sx) + (MPoly.zero() if free == "y" else v * sy)
            gens.append(g if planted else g + u - v + 1)
        gens = [g for g in gens if not g.is_zero()]
        if len(gens) < 2 or any(g.is_constant() for g in gens):
            return
        try:
            zs = common_zeros(gens)
        except InfiniteZeroSetError:
            return
        assert zs.elim_x == eager_eliminant(gens, "y")
        assert zs.elim_y == eager_eliminant(gens, "x")
        if planted:
            assert zs.elim_x.evaluate({"x": x0}) == 0 and zs.elim_y.evaluate({"y": y0}) == 0


class TestOneRationalCoordinate:
    """A zero with exactly one rational coordinate is read from the roots of
    the generators' gcd on that coordinate's line, never from a residual."""

    def test_planted_irrational_partners(self):
        zs = common_zeros([x - 1, (y**2 - 2) * (y - x)])
        assert zs.rational == [(1, 1)]
        assert [(a, round(b.real, 9)) for a, b in zs.numeric] == [(1, -1.414213562), (1, 1.414213562)]
        zs = common_zeros([x**2 - 3, (y + 2) * (y - 5)])
        assert [(round(a.real, 9), b) for a, b in zs.numeric] == [
            (-1.732050808, -2), (-1.732050808, 5), (1.732050808, -2), (1.732050808, 5)]
        assert zs.rational == []

    def test_no_false_zero_next_to_a_multiple_rational_one(self, tmp_path):
        # x = 0 divides A and B(0, y) = -3(y - 2)^3, so (0, 2) is the only
        # zero on x = 0; the residual of (0, 1.99747), a root of the
        # eliminant in y, passed the membership tolerance
        A = "2*x^4 - x^2*y - 3*x*y^2 + 2*x^2 + 12*x*y - 12*x"
        B = "-x^4 - x^3*y + x*y^3 + 2*x^3 - 7*x*y^2 - 3*y^3 + 16*x*y + 18*y^2 - 12*x - 36*y + 24"
        from polarweb.cli import run_command
        from polarweb.parsing import parse_polynomial

        zs = common_zeros([parse_polynomial(A), parse_polynomial(B)])
        assert zs.rational == [(0, 2)]
        assert len(zs.numeric) == 3 and all(a != 0 for a, _ in zs.numeric)
        path = tmp_path / "fol.txt"
        path.write_text(f"type: foliation\nA: {A}\nB: {B}\n")
        for theorem in ("qr-dichotomy", "qr-bound"):
            code, text = run_command(["check", "--in", str(path), "--theorem", theorem, "--samples", "2"])
            assert code == 0, text
