"""The integer kernel: Yun's decomposition, the exact root test, the PRS
resultant's refusals, the subresultant chain, the digits of Kronecker
substitution, the certified gcd and the ranks of sparse integer matrices,
all on `int` data; and the rule that `zpoly` imports nothing from the
package but `.errors`."""

import ast
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from polarweb import MPoly
from polarweb import zpoly
from polarweb.mpoly import _from_int_coeffs, _int_coeffs, exact_div, poly_gcd
from polarweb.errors import InternalInvariantError
from polarweb.polarops import _SMALL_PRIMES
from polarweb.zpoly import _CERT_PRIME, _independent_mod_p, _int_prs_resultant, _integer_rank, _vanishes_at, _yun
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
        ints = [int(c.constant_value()) for c in f.coeffs_in("x")]
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
        # every minor is at most (9 * sqrt(6))^6 ~ 1.2e8 in magnitude, below
        # p = 2^30 - 35 ~ 1.07e9, so a minor is zero mod p only when it is zero
        assert sum(_independent_mod_p(rows)) == _integer_rank(rows)

    def test_rank_mod_p_drops_at_the_prime(self):
        # the determinant is p
        rows = [{0: _CERT_PRIME + 1, 1: 1}, {0: 1, 1: 1}]
        assert list(_independent_mod_p(rows)) == [True, False]
        assert _integer_rank(rows) == 2

    @given(st.lists(st.dictionaries(st.integers(0, 5), st.integers(-10**20, 10**20).filter(bool), max_size=6),
                    min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_each_yield_is_a_rank_step_over_f_p(self, rows):
        # large entries, reduced on the way in: row i is independent exactly
        # when it raises the rank over F_p of the rows up to it
        sympy = pytest.importorskip("sympy")
        from sympy.polys.matrices import DomainMatrix

        field = sympy.GF(_CERT_PRIME)

        def rank(prefix):
            dense = [[field(r.get(c, 0)) for c in range(6)] for r in prefix]
            return DomainMatrix(dense, (len(prefix), 6), field).rank()

        ranks = [rank(rows[:i]) for i in range(len(rows) + 1)]
        assert list(_independent_mod_p(rows)) == [b > a for a, b in zip(ranks, ranks[1:])]

    def test_the_prime_is_a_prime_below_2_to_the_30(self):
        sympy = pytest.importorskip("sympy")
        # every residue is one 30-bit digit of a Python int
        assert sympy.isprime(_CERT_PRIME)
        assert _CERT_PRIME < 2**30

    @given(st.lists(st.dictionaries(st.integers(0, 7), st.integers(-9, 9).filter(bool), max_size=8),
                    max_size=10),
           st.permutations(range(8)), st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_independence_does_not_depend_on_the_column_labels(self, rows, perm, rnd):
        # independence of a row from the rows before it is a property of the
        # matrix, so relabelling the columns injectively, in another order,
        # changes which column is the greatest but no yielded value
        label = {c: (perm[c] % 3, -perm[c]) for c in range(8)}
        relabelled = []
        for r in rows:
            items = [(label[c], v) for c, v in r.items()]
            rnd.shuffle(items)
            relabelled.append(dict(items))
        assert list(_independent_mod_p(relabelled)) == list(_independent_mod_p(rows))


class TestPrsResultant:
    # with a zero top the PRS reads other degrees and returns a wrong value
    # (0 for the first pair, where Res = 2), and a constant has no PRS: the
    # lists are refused
    @pytest.mark.parametrize("a, b", [([1, 0, 1], [1, 1, 0]), ([1, 1, 0], [1, 0, 1]), ([2, 0, 0], [1, 1]),
                                      ([3], [1, 1]), ([1, 0, 1], [5]), ([], [1, 1])])
    def test_a_zero_top_or_a_constant_is_a_broken_invariant(self, a, b):
        with pytest.raises(InternalInvariantError):
            _int_prs_resultant(a, b)


# an ascending int list of degree 1 to 5 with a nonzero top
int_lists = st.lists(st.integers(-4, 4), min_size=2, max_size=6).filter(lambda c: c[-1])


def determinants(a: list[int], b: list[int], j: int, sympy) -> list[int]:
    """s_(j,j), ..., s_(j,0) for ascending int lists a and b of degrees
    p >= q > j, by sympy on the defining matrices: the rows
    y^(q-j-1) * a, ..., a, y^(p-j-1) * b, ..., b, as their coefficients of
    y^(p+q-j-1), ..., y^(j+1), then of y^i."""
    p, q = len(a) - 1, len(b) - 1
    shifts = [(a, k) for k in reversed(range(q - j))] + [(b, k) for k in reversed(range(p - j))]

    def coefficient(f, k, e):
        return f[e - k] if 0 <= e - k < len(f) else 0

    return [int(sympy.Matrix([[coefficient(f, k, e) for e in [*range(p + q - j - 1, j, -1), i]]
                              for f, k in shifts]).det()) for i in range(j, -1, -1)]


class TestSubresultantRow:
    """`_subresultants` against the determinants that define s_(j,i),
    taken by sympy on the explicit matrices, sign included; with j = 0 it
    is the resultant."""

    @given(int_lists, int_lists)
    @settings(max_examples=80, deadline=None)
    def test_matches_the_defining_determinants(self, a, b):
        sympy = pytest.importorskip("sympy")
        if len(a) < len(b):
            a, b = b, a
        chain = dict(zpoly._subresultants(a, b))
        assert chain[len(b) - 1] == b
        for j in range(len(b) - 1):
            expected = determinants(a, b, j, sympy)
            if j in chain:
                assert chain[j][::-1] == expected
            else:
                assert expected[0] == 0
        assert chain.get(0, [0]) == [_int_prs_resultant(a, b)]

    def test_a_defective_chain(self):
        # a = 2y^4 + 1 and b = -y^4 - 2y^3: the PRS term after S_3 is
        # S_2 = 4y + 8, of degree 1, so s_(2,2) = 0 and S_1 is that term
        # times (lc / -psi)^(2 - 1) = -1
        sympy = pytest.importorskip("sympy")
        a, b = [1, 0, 0, 0, 2], [0, 0, 0, -2, -1]
        chain = list(zpoly._subresultants(a, b))
        assert chain == [(4, b), (3, [1, 0, 0, -4]), (1, [-8, -4]), (0, [33])]
        assert [determinants(a, b, j, sympy) for j in (3, 2, 1, 0)] == [[-4, 0, 0, 1], [0, 4, 8], [-4, -8], [33]]


class TestKroneckerDigits:
    """`_unpack` reads back what `_pack` packs, for every digit in
    [-2^(B-1), 2^(B-1)): the two ends, -1, 1 and 0 are drawn often, so that
    borrows run through negative digits and zero digits lie in between."""

    @given(st.integers(2, 70).flatmap(lambda width: st.tuples(st.just(width), st.lists(st.one_of(
        st.sampled_from([-(1 << (width - 1)), (1 << (width - 1)) - 1, -1, 0, 1]),
        st.integers(-(1 << (width - 1)), (1 << (width - 1)) - 1)), max_size=8))))
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, case):
        width, digits = case
        assert zpoly._unpack(zpoly._pack(digits, width), width) == zpoly._trim(digits)

    def test_a_digit_past_the_width_is_read_as_another(self):
        # 2^(B-1) is not a balanced digit: it reads as -2^(B-1) with a carry
        assert zpoly._unpack(zpoly._pack([8], 4), 4) == [-8, 1]


class TestCommonFactor:
    @given(int_lists, int_lists, st.one_of(st.just([1]), int_lists))
    @settings(max_examples=80, deadline=None)
    def test_equals_the_euclidean_gcd(self, a, b, c):
        # c = [1] leaves a and b mostly coprime, for the certificate mod p;
        # any other c is a planted common factor
        a, b = zpoly._mul(a, c), zpoly._mul(b, c)
        assert zpoly._common_factor(a, b) == zpoly._int_gcd(a, b)
        assert zpoly._common_factor(a, []) == a


class TestIrreducibleModP:
    """Ben-Or's test against sympy's factoring over F_q."""

    @given(st.sampled_from(_SMALL_PRIMES), st.integers(1, 8), st.data())
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_sympy_over_the_trial_primes(self, q, n, data):
        sympy = pytest.importorskip("sympy")
        f = data.draw(st.lists(st.integers(0, q - 1), min_size=n, max_size=n)) + [data.draw(st.integers(1, q - 1))]
        expected = sympy.Poly(f[::-1], sympy.Symbol("t"), modulus=q).is_irreducible
        assert zpoly._irreducible_mod_p(list(f), q) == expected

    @pytest.mark.parametrize("f, q, irreducible", [
        ([2, 0, 1], 5, True),  # t^2 + 2: -2 is no square mod 5
        ([1, 0, 1], 5, False),  # t^2 + 1 = (t - 2)(t + 2)
        ([2, 0, 3, 0, 1], 7, False),  # (t^2 + 1)(t^2 + 2): no root mod 7, two quadratic factors
        ([3, 5], 7, True),  # a root, and still irreducible
        ([0, 2, 0, 1], 5, False),  # t(t^2 + 2): its only root is 0
        ([2, 2, 1, 1], 5, False),  # (t + 1)(t^2 + 2): its only root is 4 = q - 1
        ([2, 2, 1, 3, 0, 1], 5, False),  # (t^2 + 2)(t^3 + t + 1): no root, caught at step i = 2
    ], ids=["quadratic-irreducible", "quadratic-split", "quartic-of-two-quadratics", "linear",
            "cubic-with-root-0", "cubic-with-root-q-minus-1", "quintic-of-quadratic-and-cubic"])
    def test_small_cases(self, f, q, irreducible):
        assert zpoly._irreducible_mod_p(f, q) is irreducible


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
