"""The integer kernel: Yun's decomposition, the exact root test and the
ranks of sparse integer matrices, all on `int` data; and the rule that
`zpoly` imports nothing from the package but `.errors`."""

import ast
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from polarweb import MPoly
from polarweb import zpoly
from polarweb.mpoly import _from_int_coeffs, _int_coeffs, exact_div, poly_gcd
from polarweb.zpoly import _CERT_PRIME, _independent_mod_p, _integer_rank, _vanishes_at, _yun
from test_solve import from_list, planted, roots

x = MPoly.variable("x")


def fraction_yun(f: MPoly, var: str) -> list[tuple[MPoly, int]]:
    """Yun's decomposition on Fraction `MPoly`s with `poly_gcd`: the route
    the decomposition took before it ran on integer lists, kept as the
    reference."""
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


def yun(f: MPoly) -> list[tuple[MPoly, int]]:
    """`_yun` on the integer coefficient list of f in x, factors as `MPoly`."""
    return [(_from_int_coeffs("x", g), i) for g, i in _yun(_int_coeffs(f, "x"))]


class TestSquarefreeDecomposition:
    @given(planted())
    @settings(max_examples=150, deadline=None)
    def test_matches_the_fraction_reference(self, case):
        f, _ = case
        assert yun(f) == fraction_yun(f.canonical(), "x")

    def test_factors_are_canonical(self):
        f = Fraction(-2, 3) * (2 * x + 1) ** 2 * (x**2 - 3) * x**3
        assert yun(f) == [
            ((x**2 - 3).canonical(), 1), (2 * x + 1, 2), (x, 3)
        ]

    def test_constant_has_no_factors(self):
        assert yun(MPoly.constant(5)) == []


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


class TestRank:
    @given(st.integers(1, 8), st.integers(1, 10), st.integers(0, 4), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_rank_matches_sympy(self, n, m, extra, rnd):
        sympy = pytest.importorskip("sympy")
        # sparse rows, so that rows skip pivots, plus combinations of them
        rows = [[rnd.choice((0, 0, 0, rnd.randint(-9, 9))) for _ in range(m)] for _ in range(n)]
        for _ in range(extra):
            i, j = rnd.randrange(n), rnd.randrange(n)
            a, b = rnd.randint(-3, 3), rnd.randint(-3, 3)
            rows.append([a * u + b * v for u, v in zip(rows[i], rows[j])])
        rnd.shuffle(rows)
        sparse = [{j: v for j, v in enumerate(row) if v} for row in rows]
        assert _integer_rank(sparse) == sympy.Matrix(rows).rank()

    @given(st.lists(st.dictionaries(
        st.integers(0, 7),
        st.builds(lambda a, k: a + k * _CERT_PRIME, st.integers(-9, 9), st.integers(-2, 2)).filter(bool),
        max_size=8), max_size=10))
    @settings(max_examples=100, deadline=None)
    def test_rank_mod_p_is_a_lower_bound(self, rows):
        # entries a + k*p: the matrix mod p has entries in -9..9, and a minor
        # that is a nonzero multiple of p drops rank_p below rank_Q
        assert sum(_independent_mod_p(rows)) <= _integer_rank(rows)

    @given(st.lists(st.dictionaries(st.integers(0, 7), st.integers(-9, 9).filter(bool), max_size=8),
                    max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_rank_mod_p_is_exact_below_the_hadamard_bound(self, rows):
        # every minor is at most (9 * sqrt(6))^6 < 2^61 - 1 in magnitude, so
        # a minor is zero mod p only when it is zero
        assert sum(_independent_mod_p(rows)) == _integer_rank(rows)

    def test_rank_mod_p_drops_at_the_prime(self):
        # the determinant is p
        rows = [{0: _CERT_PRIME + 1, 1: 1}, {0: 1, 1: 1}]
        assert list(_independent_mod_p(rows)) == [True, False]
        assert _integer_rank(rows) == 2


def test_imports_nothing_from_the_package_but_errors():
    with open(zpoly.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    package = [node.module for node in imports if isinstance(node, ast.ImportFrom) and node.level]
    absolute = [alias.name for node in imports if isinstance(node, ast.Import) for alias in node.names]
    absolute += [node.module for node in imports if isinstance(node, ast.ImportFrom) and not node.level]
    assert package == ["errors"]
    assert not [name for name in absolute if name.split(".")[0] == "polarweb"]
    # no floating point and no MPoly: the kernel is exact integer work
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert not names & {"float", "complex", "MPoly"}
