"""Univariate root splitting: the roots it reports, checked against planted
factors and against sympy; the zero sets of `common_zeros` against sympy and
on the cases its shear and subresultants must decide exactly, its fallback to
combinations of the generators, and the lazy eliminants of a `SingularSet`
against the gcd of every candidate."""

from fractions import Fraction
from math import isqrt, prod

import pytest
from hypothesis import given, settings, strategies as st

from polarweb import AffinePoint, MPoly
from polarweb import solve, zpoly
from polarweb.errors import InternalInvariantError
from polarweb.errors import InfiniteZeroSetError, NumericAbortError
from battery import divisibility_multiplicity, vanishes_numerically
from polarweb.mpoly import poly_gcd, resultant, shear
from polarweb.parsing import parse_polynomial
from polarweb.webmodel import SingularSet
from polarweb.solve import (
    _coprime_combinations,
    common_zeros,
    int_root_split,
    univariate_root_split,
)

x = MPoly.variable("x")
y = MPoly.variable("y")


def from_list(coeffs) -> MPoly:
    return MPoly.from_coeffs_in("x", [MPoly.constant(c) for c in coeffs])


# a rational root a/b in lowest terms, its linear factor b*x - a; small ones
# and ones with denominators up to 10^15, far past any rounding of a float
roots = st.tuples(st.integers(-30, 30), st.integers(1, 30)).map(lambda t: Fraction(*t)) | st.tuples(
    st.integers(-10**15, 10**15), st.integers(1, 10**15)).map(lambda t: Fraction(*t))
# the ascending coefficients [c, b, a] of an irreducible quadratic: its
# discriminant is no square.  Up to 10^6, a product of three spans more than
# the 10^12 coefficient range that `numerics.univariate_roots` accepts in
# float input
quadratics = st.tuples(
    st.integers(-10**6, 10**6).filter(bool), st.integers(-10**6, 10**6), st.integers(1, 10**6)
).filter(lambda t: (d := t[1] ** 2 - 4 * t[0] * t[2]) < 0 or isqrt(d) ** 2 != d).map(list)
# a primitive integer factor of degree 1 to 3, possibly reducible
factors = st.lists(st.integers(-5, 5), min_size=1, max_size=3).flatmap(
    lambda low: st.integers(1, 5).map(lambda top: from_list(low + [top]))
).filter(lambda f: f.degree_in("x") > 0).map(MPoly.canonical)
multiplicities = st.integers(1, 3)
# the ascending coefficients of a cubic with no rational root, so irreducible:
# no d/e with d | c_0 and e | c_3 is a root
cubics = st.tuples(st.integers(-20, 20).filter(bool), st.integers(-20, 20), st.integers(-20, 20),
                   st.integers(1, 20)).map(list).filter(lambda c: not any(
                       zpoly._vanishes_at(c, Fraction(s * d, e))
                       for d in range(1, abs(c[0]) + 1) for e in range(1, c[-1] + 1) for s in (1, -1)))


@st.composite
def planted(draw):
    """(f, {root: multiplicity planted}): a rational unit times powers of
    rational linear factors, of x, and of other primitive integer factors."""
    linear = draw(st.dictionaries(roots, multiplicities, max_size=3))
    others = draw(st.lists(st.tuples(factors | quadratics.map(from_list), multiplicities), max_size=2))
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
        # 1 is found by lifting, so Aberth solves only the quadratic left
        assert solves == [[-2, 0, 1]]

    def test_peeled_factor_keeps_the_scale_of_rational_division(self, solves):
        univariate_root_split((3 * x - 1) * (x**2 - 2), "x")
        # (3x^3 - x^2 - 6x + 2) / (x - 1/3) = 3x^2 - 6
        assert solves == [[-6, 0, 3]]

    def test_close_rational_roots(self):
        r1, r2 = Fraction(1, 10**7), Fraction(1, 10**7) + Fraction(1, 10**13)
        rational, _ = univariate_root_split((x - r1) * (x - r2), "x")
        assert sorted(rational) == [(r1, 1), (r2, 1)]

    def test_large_denominator_rational_root(self):
        f = (3 * x - 1) * (30000000000 * x - 10000000003) * (x**2 - 2)
        rational, _ = univariate_root_split(f, "x")
        assert sorted(rational) == [(Fraction(1, 3), 1), (Fraction(10000000003, 30000000000), 1)]

    def test_a_root_just_past_half_the_modulus_one_squaring_short(self):
        # x^2 - 2 is square-free mod 3 but not mod 2, so p = 3, and the bound
        # 2 * |1 * 2a| = 4a lies between 3^16 and 3^32: a lift to 3^16 would
        # read a as a - 3^16
        a = (3**16 + 1) // 2
        rational, numeric = int_root_split(times([-a, 1], [-2, 0, 1]))
        assert rational == [(Fraction(a), 1)] and len(numeric) == 2

    def test_the_prime_search_passes_primes_dividing_the_discriminant(self, monkeypatch):
        # 15015 = 3*5*7*11*13 and 15014 are root differences, so every prime
        # below 17 divides the discriminant
        primes, real = [], zpoly._coprime_mod_p
        monkeypatch.setattr(zpoly, "_coprime_mod_p", lambda a, b, p: primes.append(p) or real(a, b, p))
        f = x * (x - 1) * (x - 15015) * (x**2 - 2)
        rational, numeric = univariate_root_split(f, "x")
        # Yun's first gcd is certified at _CERT_PRIME before the search
        assert primes == [zpoly._CERT_PRIME, 2, 3, 5, 7, 11, 13, 17]
        assert rational == [(Fraction(15015), 1), (Fraction(1), 1), (Fraction(0), 1)] and len(numeric) == 2

    # the top coefficient is below 1e-12 of the largest one, which
    # `numerics.univariate_roots` refuses in float input; an integer top is
    # exact, and these roots are far apart
    def test_a_wide_coefficient_range_reaches_aberth(self):
        coeffs = times(times([1, 1708, 1], [1, 1709, 1]), [1, 342587, 1])
        rational, numeric = int_root_split(coeffs)
        assert rational == [] and len(numeric) == 6

    def test_rational_roots_of_a_factor_descend(self):
        assert int_root_split([-1, 0, 1]) == ([(Fraction(1), 1), (Fraction(-1), 1)], [])


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

    @given(st.lists(int_lists | quadratics, max_size=3), st.lists(st.tuples(roots, multiplicities), max_size=3))
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
        pairs, real_pair = [], solve._coprime_combinations
        monkeypatch.setattr(solve, "_coprime_combinations", lambda polys: pairs.append(len(polys)) or real_pair(polys))
        # the coefficients of the 2-web in tests/test_cli.py::TestDeterminism
        gens = [y * (y - 1) * (x + 1), (y - 1) * (y - 2) * (x - 1), (y - 2) * y * (x + 2)]
        zs = common_zeros(gens)
        assert zs.rational == [(-2, 1), (-1, 2), (1, 0)] and not zs.numeric
        # no two generators are coprime, so the zero set takes two combinations
        assert pairs == [3]
        # and of the eliminants, only the elimination of y needs them
        assert [solve.eliminant(gens, v) for v in "yx"] and pairs == [3, 3]

    def test_a_combination_free_of_the_variable(self):
        # the coefficients of the 2-web y(y - x)dx^2 - 2(y - x)(y + x)dx dy +
        # y(y + x)dy^2: every pair shares a factor in y, and G(1) = 2x^2 is
        # free of y, so it is the eliminant, with no resultant taken
        gens = [y * (y - x), -2 * (y - x) * (y + x), y * (y + x)]
        assert _coprime_combinations(gens)[0] == 2 * x**2
        assert solve.eliminant(gens, "y") == x**2

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
            solve.eliminant([y * (x + 1), y * (x - 1)], "y")


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

    @given(st.lists(coordinates, min_size=1, max_size=3, unique=True),
           st.lists(coordinates, min_size=1, max_size=3, unique=True),
           st.lists(st.integers(-10**30, 10**30).filter(bool), min_size=4, max_size=4))
    @settings(max_examples=15, deadline=None)
    def test_a_pair_with_coefficients_up_to_10_to_the_30(self, xs, ys, abst):
        # A*P + s*Q = 0 = B*Q + t*P gives P*(A*B - s*t) = 0, so with
        # A*B != s*t the zeros are the whole grid of the roots of P and Q
        sympy = pytest.importorskip("sympy")
        A, B, s, t = abst
        if A * B == s * t:
            return
        P = prod((x - a for a in xs), start=MPoly.constant(1))
        Q = prod((y - b for b in ys), start=MPoly.constant(1))
        gens = [A * P + s * Q, B * Q + t * P]
        zs = common_zeros(gens)
        X, Y = sympy.symbols("x y")
        system = [sympy.sympify(str(f).replace("^", "**"), locals={"x": X, "y": Y}) for f in gens]
        expected = {(Fraction(str(a)), Fraction(str(b)))
                    for a, b in sympy.solve_poly_system(system, X, Y)}
        assert set(zs.rational) == expected == {(a, b) for a in xs for b in ys}
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
    nonzero pairwise resultant, or, when there are none, the first of two
    coprime combinations free of elim_var, or else their resultant; no
    candidate is skipped."""
    positive = [p for p in polys if p.degree_in(elim_var) > 0]
    candidates = [p for p in polys if p.degree_in(elim_var) == 0]
    for i in range(len(positive)):
        for j in range(i + 1, len(positive)):
            r = resultant(positive[i], positive[j], elim_var)
            if not r.is_zero():
                candidates.append(r)
    if not candidates:
        c1, c2 = _coprime_combinations(positive)
        candidates.append(c1 if c1.degree_in(elim_var) == 0 else c2 if c2.degree_in(elim_var) == 0
                          else resultant(c1, c2, elim_var))
    g = candidates[0]
    for c in candidates[1:]:
        g = poly_gcd(g, c)
    return g.canonical()


class TestLazyEliminant:
    """The lazy eliminants of a `SingularSet` equal the eager gcd of all the
    candidates, on 2-6 random generators with finitely many common zeros,
    some of them free of x or of y; with `planted`, each generator is
    u*(x - x0) + v*(y - y0), so (x0, y0) is a common zero.  Every rational
    zero of `common_zeros` is a root of both."""

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
        sing = SingularSet([AffinePoint(*q) for q in zs.rational], zs.numeric, zs.groups, gens)
        assert sing.elim_x == eager_eliminant(gens, "y")
        assert sing.elim_y == eager_eliminant(gens, "x")
        for a, b in zs.rational + ([(x0, y0)] if planted else []):
            assert sing.elim_x.evaluate({"x": a}) == 0 and sing.elim_y.evaluate({"y": b}) == 0


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

    def test_a_denominator_past_the_old_caps(self):
        # x = a/D, D = 10^13 + 7, with an irrational y: no rounding of the
        # float x to a denominator up to 10^12 reaches it
        D, a = 10**13 + 7, 3 * 10**12 + 1
        for gens in ([y**2 - 2, D * x - a], [(x + y) ** 2 - 3, D * x - a]):
            zs = common_zeros(gens)
            assert not zs.rational and len(zs.numeric) == 2
            assert all(p == complex(Fraction(a, D)) for p, _ in zs.numeric)

    @given(quadratics | cubics, st.integers(-10**15, 10**15), st.integers(1, 10**15), st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_a_planted_rational_coordinate_is_exact(self, q, a, b, on_x):
        # on the roots of an irreducible q, y = a/b read at lam = 0, or
        # x = a/b read at lam = 1, where y is irrational and never exact
        c = Fraction(a, b)
        u, v = (x, y) if on_x else (y, x)
        line = c.denominator * u - c.numerator
        gens = [line, sum((k * v**i for i, k in enumerate(q)), line ** (len(q) - 1))]
        found, real = [], solve._exact_coordinates
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solve, "_exact_coordinates", lambda *args: found.append(real(*args)) or found[-1])
            zs = common_zeros(gens)
        assert not zs.rational and len(zs.numeric) == len(q) - 1
        assert [g.lam for g in zs.groups] == [1 if on_x else 0]
        # y is read first, and x after it when lam != 0
        assert found == ([[None] * (len(q) - 1)] if on_x else []) + [[c] * (len(q) - 1)]
        assert all(p[not on_x] == complex(c) for p in zs.numeric)


class TestShapeLemma:
    """Zero sets read from one eliminant m(t), t = x - lam*y, with y a
    rational function of t on each part of m; every case is decided with
    no residual."""

    def test_the_sqrt_2_grid(self, monkeypatch):
        # the nine zeros have coordinates 0 and +-sqrt 2; lam = 0 is not
        # proper for x^3 - 2x, and 1, -1, 2, -2 put two zeros on one t
        lams, real = [], solve._points
        monkeypatch.setattr(solve, "_points", lambda groups, lam, pair: lams.append(lam) or real(groups, lam, pair))
        zs = common_zeros([x**3 - 2 * x, y**3 - 2 * y])
        assert lams == [3]
        assert zs.rational == [(0, 0)] and len(zs.numeric) == 8
        root = 2**0.5
        for p in zs.numeric:
            assert all(abs(abs(c) - root) < 1e-12 or c == 0 for c in p)
        # the four zeros with one zero coordinate print it exactly
        assert [f"{c:.6g}" for p in zs.numeric for c in p if c == 0] == ["0+0j"] * 4

    def test_only_the_zeros_proved_rational_print_exactly(self):
        # y = 0 on x^2 = 2 and y = (x - 2)/10^7 on x^2 = 3: all four y round
        # to 0, and the gcd proves it at two zeros, the two nearest
        zs = common_zeros([(x**2 - 2) * (x**2 - 3), y * (x**2 - 3) + (x**2 - 2) * (10**7 * y - x + 2)])
        assert not zs.rational and len(zs.numeric) == 4
        for a, b in zs.numeric:
            if abs(a * a - 2) < 1e-9:
                assert b == 0
            else:
                assert b != 0 and abs(b - (a - 2) / 10**7) < 1e-13

    def test_one_zero_where_the_fibers_meet_twice(self):
        zs = common_zeros([x**2 - y**2, x * y])
        assert zs.rational == [(0, 0)] and not zs.numeric

    def test_a_planted_pair_of_two_irrational_coordinates(self):
        # (+-sqrt 2, 1 +- sqrt 2): y = x + 1 on x^2 = 2, and x*y - x - 2 = x^2 - 2 there
        zs = common_zeros([x**2 - 2, (y - x - 1) * (y + 3), x * y - x - 2])
        assert not zs.rational and len(zs.numeric) == 2
        for (a, b), s in zip(zs.numeric, (-1, 1)):
            assert abs(a - s * 2**0.5) < 1e-12 and abs(b - (1 + s * 2**0.5)) < 1e-12

    def test_one_subresultant_chain_per_call(self, monkeypatch):
        # the work count of a `_shape` call: R and every s_(j,.) from one run
        # of `_subresultants`.  On the sqrt 2 grid at lam = 1 two zeros share
        # a t, where the fiber gcd has degree 2 and `_separated` fails; at
        # lam = 3 every fiber gcd has degree 1 and one group is found
        chains, tested = [], []
        real_chain, real_separated = solve._subresultants, solve._separated
        monkeypatch.setattr(solve, "_subresultants", lambda a, b: chains.append(1) or real_chain(a, b))
        monkeypatch.setattr(solve, "_separated", lambda part, s, j: tested.append(j) or real_separated(part, s, j))
        F, G = shear(x**3 - 2 * x, 1), shear(y**3 - 2 * y, 1)
        assert solve._shape(F, G, []) is None
        assert chains == [1] and tested == [2]
        chains.clear()
        tested.clear()
        F, G = shear(x**3 - 2 * x, 3), shear(y**3 - 2 * y, 3)
        assert len(solve._shape(F, G, [])) == 1
        assert chains == [1] and tested == []

    def test_no_prs_wider_than_the_packed_pair(self, monkeypatch):
        # the work count of a zero set on a dense degree-6 foliation with
        # irrational zeros (`perfbench/gen.foliation_text(random.Random(1),
        # 6)`): no PRS, in zpoly or in `_shape`, takes an operand wider than
        # `_shape`'s packed Sylvester pair (350 bits, a (6, 6) pair).  A
        # characteristic polynomial per coordinate would run a 35 x 26 packed
        # PRS on operands of 1,916 bits, for seconds
        widths = {"zpoly": [], "solve": []}

        def spy(module):
            real = module._subresultants

            def counted(a, b):
                widths[module.__name__.split(".")[-1]].append(max(abs(c).bit_length() for c in a + b))
                return real(a, b)
            monkeypatch.setattr(module, "_subresultants", counted)

        spy(zpoly)
        spy(solve)
        A = parse_polynomial(
            "-3*x^6 - 3*x^5*y - x^4*y^2 - 3*x^3*y^3 + 2*x^2*y^4 - 2*x*y^5 + 3*y^6 - x^5 + x^4*y + 3*x^3*y^2"
            " - 3*x^2*y^3 + 2*x*y^4 + y^5 + x^4 - 3*x^3*y + x^2*y^2 - 3*x*y^3 - 2*y^4 + x^3 + 3*x^2*y + x*y^2"
            " + y^3 + x^2 - 3*x*y - y^2 - 3*x + 2*y - 2")
        B = parse_polynomial(
            "-2*x^6 - 3*x^5*y + 3*x^4*y^2 + 2*x^3*y^3 + x^2*y^4 - 3*x*y^5 - y^6 + x^5 - 2*x^4*y + 3*x^3*y^2"
            " - 2*x^2*y^3 - x*y^4 - 2*y^5 + 2*x^4 + x^3*y + x^2*y^2 - 2*x*y^3 + 2*y^4 - 3*x^3 + 3*x^2*y + x*y^2"
            " - 2*y^3 + 3*x^2 + x*y - 3*y^2 + 2*x + 3*y - 3")
        zs = common_zeros([A, B])
        assert len(zs.rational) + len(zs.numeric) == 36 and zs.groups
        assert widths["solve"] and max(widths["zpoly"], default=0) <= max(widths["solve"])

    def test_both_generators_singular_at_a_zero(self, monkeypatch):
        # the foliation of TestOneRationalCoordinate: A and B are both
        # singular at (0, 2), where the fiber gcd of the sheared pair has
        # degree 3 and passes the exact test of `_separated`
        tested, real = [], solve._separated
        monkeypatch.setattr(solve, "_separated", lambda part, s, j: tested.append(j) or real(part, s, j))
        A = parse_polynomial("2*x^4 - x^2*y - 3*x*y^2 + 2*x^2 + 12*x*y - 12*x")
        B = parse_polynomial("-x^4 - x^3*y + x*y^3 + 2*x^3 - 7*x*y^2 - 3*y^3 + 16*x*y + 18*y^2 - 12*x - 36*y + 24")
        zs = common_zeros([A, B])
        assert tested == [3] and zs.rational == [(0, 2)] and len(zs.numeric) == 3
        for a, b in zs.numeric:
            assert vanishes_numerically(A, {"x": a, "y": b}) and vanishes_numerically(B, {"x": a, "y": b})
