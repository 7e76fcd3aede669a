"""Curve germs: multiplicities, blow-ups, fingerprints, delta, genus."""

import random
from fractions import Fraction
from math import prod

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from battery import FOLIATIONS, X, Y, to_sympy
from body_digests import SEEDS, jobs
from polarweb import (
    CurveGerm,
    MPoly,
    PlaneCurve,
    fingerprint,
    genus_of_curve,
    intersection_multiplicity,
    milnor_number,
)
from polarweb.cli import run_command
from polarweb.errors import NumericAbortError, PolynomialError
from polarweb.localsing import fingerprints
from polarweb.foliation import class_of_curve
from polarweb.mpoly import _int_coeffs, _rekey, gcd_fold, lowest_jet, proper_shears, shear, squarefree_part
from polarweb.parsing import parse_input_text
from polarweb.solve import Group, common_zeros, rational_split
from polarweb.zpoly import _distinct_binary_roots
from polarweb.localsing import (
    _children,
    _nonzero_at_origin,
    _tangents,
    equisingularity_check,
    genus_constancy_check,
    homogenize,
    resolve_germ,
)

ORIGIN = (Fraction(0), Fraction(0))


def germ(poly: MPoly) -> CurveGerm:
    return CurveGerm.at_point(PlaneCurve(poly), ORIGIN)


def blow_up(g: CurveGerm) -> list[CurveGerm]:
    """The strict-transform germ at each point that one blow-up puts on the
    exceptional line."""
    m = g.multiplicity()
    lines, groups = _tangents(g, m)
    assert not groups
    return [child for _, _, child in _children(g, m, lines)]


def conjugate_pair(f: MPoly, c: int) -> MPoly:
    """f(x - sqrt c, y) * f(x + sqrt c, y), a polynomial over Q."""
    r = MPoly.variable("r")
    F = f.substitute({"x": X - r}) * f.substitute({"x": X + r})
    terms: dict = {}
    for e, coeff in F.terms.items():
        powers = dict(zip(F.variables, e))
        key = (powers.get("x", 0), powers.get("y", 0))
        terms[key] = terms.get(key, 0) + coeff * Fraction(c) ** (powers.get("r", 0) // 2)
    return MPoly(("x", "y"), terms)


def conjugate_germ(f: MPoly, c: int) -> CurveGerm:
    """The germ of `conjugate_pair` at the group (+-sqrt c, 0)."""
    return CurveGerm.at_group(conjugate_pair(f, c), Group([-c, 0, 1], [0], [1], 0))


def _vanishes_at_twice_root(u: MPoly, c: int) -> bool:
    """Whether u(x) vanishes at 2 sqrt c, for c not a square: its even and
    odd parts at x^2 = 4c both vanish."""
    parts = [0, 0]
    for (k,), a in _rekey(u, ("x",)).items():
        parts[k % 2] += a * (4 * c) ** (k // 2)
    return parts == [0, 0]


@st.composite
def planted_germs(draw):
    """`random_rational_germ` shapes times a planted steep or repeated line."""
    f = random_rational_germ(random.Random(draw(st.integers(0, 2**32))))
    return f * draw(st.sampled_from([MPoly.constant(1), Y - 1000 * X + Y**3, (Y - X) ** 3 - X**5, X + Y**2]))


def standard_monomials(sympy, basis) -> int:
    """The number of monomials in x and y outside the leading terms of a
    grevlex basis that holds a power of x and a power of y: the dimension of
    the quotient ring."""
    leads = [sympy.Poly(b, *basis.gens).monoms(order="grevlex")[0] for b in basis.exprs]
    top_x = min(i for i, j in leads if j == 0)
    top_y = min(j for i, j in leads if i == 0)
    return sum(1 for i in range(top_x) for j in range(top_y) if not any(i >= a and j >= b for a, b in leads))


def local_colength(sympy, f: MPoly, g: MPoly) -> int:
    """dim O/(f, g), O the local ring at the origin, by Groebner bases alone.

    c(N), the colength of (f, g) + (x, y)^N, gains one or more with each
    j < N until (x, y)^j lies in (f, g)O (Nakayama) and is dim O/(f, g)
    from then on, so the first c(N) < N is that number."""
    x, y = sympy.symbols("x y")
    polys = [to_sympy(sympy, f), to_sympy(sympy, g)]
    n = 2
    while n <= 64:
        c = standard_monomials(sympy, sympy.groebner(polys + [x**i * y ** (n - i) for i in range(n + 1)],
                                                     x, y, order="grevlex"))
        if c < n:
            return c
        n *= 2
    raise AssertionError("the colength grows past 64: the germs share a component")


@st.composite
def leading_coefficient_pairs(draw):
    """(f, g) through the origin, each lead(x)*y^k plus terms x^i*y^j with
    j < k and 1 <= i + j <= 3.  f's lead is 1 + u*x, not constant but
    nonzero at x = 0; g's is another such lead or u*x, which vanishes there.
    The pair comes in either order."""
    unit = st.sampled_from([-2, -1, 1, 2])

    def draw_germ(lead):
        k = draw(st.integers(1, 3))
        return sum((draw(st.integers(-2, 2)) * X**i * Y**j
                    for j in range(k) for i in range(4) if 1 <= i + j <= 3), lead * Y**k)

    f = draw_germ(1 + draw(unit) * X)
    g = draw_germ(draw(st.sampled_from([1, 0])) + draw(unit) * X)
    return (f, g) if draw(st.booleans()) else (g, f)


CUSP = germ(Y**2 - X**3)
NODE = germ(X * Y)
TACNODE = germ(Y**2 - X**4)
SMOOTH = germ(Y - X**2)


class TestMultiplicity:
    def test_cusp(self):
        assert CUSP.multiplicity() == 2

    def test_node(self):
        assert NODE.multiplicity() == 2

    def test_smooth(self):
        assert SMOOTH.multiplicity() == 1

    def test_nonvanishing_rejected(self):
        with pytest.raises(PolynomialError):
            CurveGerm.at_point(PlaneCurve(Y - X + 1), ORIGIN)


class TestIntersectionMultiplicity:
    def test_transverse_lines(self):
        assert intersection_multiplicity(Y, X) == 1

    def test_tangency_order(self):
        assert intersection_multiplicity(Y, Y - X**2) == 2

    def test_cusp_with_axis(self):
        assert intersection_multiplicity(Y**2 - X**3, Y) == 3

    def test_common_component_rejected(self):
        with pytest.raises(PolynomialError, match="infinite intersection: germs share a component"):
            intersection_multiplicity(X * Y, X * (Y - X))

    @given(st.integers(1, 3), st.integers(1, 3))
    @settings(max_examples=20, deadline=None)
    def test_symmetric(self, a, b):
        f = Y**a - X ** (a + 1)
        g = Y - 2 * X**b
        assert intersection_multiplicity(f, g) == intersection_multiplicity(g, f)

    def test_additive_in_products(self):
        f = Y - X**2
        g, h = Y + X, Y - 2 * X + X**3
        assert intersection_multiplicity(f, g * h) == intersection_multiplicity(
            f, g
        ) + intersection_multiplicity(f, h)

    def test_a_common_factor_off_the_origin(self, tmp_path):
        # 1 + y, a unit at the origin, would keep every shear from isolating
        # it: 1 + y stays a factor on x = 0
        assert intersection_multiplicity((1 + Y) * (Y - X**2), (1 + Y) * (Y + X**2)) == 2
        assert intersection_multiplicity((1 + X) * (Y - X**2), (1 + X) * (Y + X**2)) == 2
        # f_x and f_y of this node share 1 + x
        path = tmp_path / "node.txt"
        path.write_text("type: curve\nf: y^2 - 3*x^2 + 2*x*y^2 - 2*x^3 + x^2*y^2\n")
        code, text = run_command(["localsing", "--in", str(path), "--point", "0,0"])
        assert code == 0, text
        assert "(m=2, mu=1, r=2, delta=1, seq=[2], cone=[1, 1])" in text

    def test_only_a_factor_off_the_origin_takes_a_gcd(self, monkeypatch):
        # the resultant comes first: a coprime pair takes no gcd, and a pair
        # sharing 1 + y, which meets x = 0 at y = -1, takes exactly one
        from polarweb import localsing

        calls = []
        monkeypatch.setattr(localsing, "poly_gcd", lambda f, g, real=localsing.poly_gcd: calls.append(1) or real(f, g))
        assert intersection_multiplicity(Y - X**2, Y + X**2) == 2
        assert calls == []
        assert intersection_multiplicity((1 + Y) * (Y - X**2), (1 + Y) * (Y + X**2)) == 2
        assert calls == [1]

    def test_a_common_zero_on_every_line_of_a_short_shear_list(self):
        # y*(y - 1) and g meet at the origin (g = -x on y = 0) and at
        # (lam, 1) for each of the 14 shears a fixed list once tried, so each
        # of them put a second common zero on x = 0; the first
        # 2*15 + 2 + 15 + 1 values of 0, 1, -1, ... reach lam = 4
        shears = [0, 1, -1, 2, -2, 3, -3, 5, -5, 7, -7, 11, -11, 13]
        g = Y * prod((X - lam for lam in shears), start=MPoly.constant(1)) + (Y - 1) * X
        assert intersection_multiplicity(Y * (Y - 1), g) == 1

    def test_two_curves_through_the_point_at_infinity_of_x_0(self):
        # both pass through (0 : 1 : 0), on the line x = 0, so Res_y has
        # order 2 at x = 0; the y-leading coefficient x of each vanishes
        # there, and a shear takes that point off the line
        assert intersection_multiplicity(X * Y**2 + Y, X * Y**2 + 2 * Y + X) == 1

    @given(leading_coefficient_pairs())
    @settings(max_examples=40, deadline=None)
    def test_matches_the_local_colength_of_a_groebner_basis(self, pair):
        sympy = pytest.importorskip("sympy")
        f, g = pair
        try:
            got = intersection_multiplicity(f, g)
        except PolynomialError:
            assume(False)  # a common component through the origin
        assert got == local_colength(sympy, f, g)

    @given(st.lists(st.integers(-3, 3), min_size=10, max_size=10), st.integers(-3, 3).filter(bool),
           st.lists(st.integers(-2, 2), min_size=5, max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_a_unit_factor_leaves_it_alone(self, cs, unit, us):
        # f and g vanish at the origin, u does not: I(u·f, u·g) = I(f, g)
        monomials = [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
        f = sum((c * X**i * Y**j for (i, j), c in zip(monomials, cs[:5])), Y**3)
        g = sum((c * X**i * Y**j for (i, j), c in zip(monomials, cs[5:])), X**3)
        u = sum((c * X**i * Y**j for (i, j), c in zip(monomials, us)), MPoly.constant(unit))
        try:
            expected = intersection_multiplicity(f, g)
        except PolynomialError:
            assume(False)  # a common component through the origin
        assert intersection_multiplicity(u * f, u * g) == expected


@st.composite
def isolated_germs(draw):
    """f0(x, y - s·x) plus at most one monomial of higher weight, f0 a sum of
    monomials x^i y^j on the line q·i + p·j = p·q with x^p and y^q among
    them, coefficients in [-3, 3]: a quasi-homogeneous f0 with an isolated
    critical point has no other, and the shear tilts its tangent cone."""
    p, q = draw(st.integers(2, 4)), draw(st.integers(2, 5))
    coefficient, nonzero = st.integers(-3, 3), st.sampled_from([-3, -2, -1, 1, 2, 3])
    f = draw(nonzero) * X**p + draw(nonzero) * Y**q
    for i in range(1, p):
        if (p * q - q * i) % p == 0:
            f = f + draw(coefficient) * X**i * Y ** ((p * q - q * i) // p)
    s = draw(st.integers(-2, 2))
    f = f.substitute({"y": Y - s * X})
    i, j = draw(st.integers(0, p)), draw(st.integers(0, q))
    if q * i + p * j > p * q:
        f = f + draw(coefficient) * X**i * Y**j
    return f


class TestMilnor:
    def test_cusp(self):
        assert milnor_number(CUSP) == 2

    def test_node(self):
        assert milnor_number(NODE) == 1

    def test_tacnode(self):
        assert milnor_number(TACNODE) == 3

    def test_smooth(self):
        assert milnor_number(SMOOTH) == 0

    def test_non_isolated_rejected(self):
        # x^2*y is not reduced: f_x = 2xy and f_y = x^2 share x through the origin
        with pytest.raises(PolynomialError, match="non-isolated singularity at the origin"):
            milnor_number(CurveGerm({(2, 1): 1}))

    @given(isolated_germs())
    @example((Y - X) ** 3 - X**4)  # E6: mu = 6
    @settings(max_examples=60, deadline=None)
    def test_matches_the_standard_monomials_of_a_groebner_basis(self, f):
        # an independent mu: when a power of x and a power of y lie in
        # (f_x, f_y), the origin is its only zero, and mu is the number of
        # monomials outside the leading terms of a grevlex basis
        sympy = pytest.importorskip("sympy")
        x, y = sympy.symbols("x y")
        g = to_sympy(sympy, f)
        basis = sympy.groebner([sympy.diff(g, x), sympy.diff(g, y)], x, y, order="grevlex")
        assume(basis.is_zero_dimensional)
        standard = standard_monomials(sympy, basis)
        assume(basis.contains(x**standard) and basis.contains(y**standard))
        assert milnor_number(germ(f)) == standard

    def test_a_three_branch_germ_takes_no_shear(self, monkeypatch):
        # a germ shaped like the benchmark's: the y-leading coefficients of
        # f_x and f_y are constants, though their top forms vanish at (0, 1),
        # so the resultant runs at lam = 0 in their own y-degrees
        from polarweb import localsing

        g = germ(((Y + X) ** 2 + 2 * X**4) * (Y - 2 * X - 2 * X) * (Y + X + X))
        fx, fy = g.poly.derivative("x"), g.poly.derivative("y")
        lams, degrees = [], []

        def spy_shear(f, lam, *args):
            lams.append(lam)
            return shear(f, lam, *args)

        def spy_resultant(f, h, var, real=localsing.resultant):
            degrees.append((f.degree_in(var), h.degree_in(var)))
            return real(f, h, var)

        monkeypatch.setattr(localsing, "shear", spy_shear)
        monkeypatch.setattr(localsing, "resultant", spy_resultant)
        assert milnor_number(g) == 11  # 2 delta - r + 1, delta = 7 over r = 4 branches
        assert lams and set(lams) == {0}
        # a shear that keeps the top forms nonzero would make both 5
        assert degrees == [(fx.degree_in("y"), fy.degree_in("y"))] == [(2, 3)]
        assert (fx.total_degree(), fy.total_degree()) == (5, 5)

    def test_a_localsing_job_takes_one_square_free_part(self, tmp_path, monkeypatch):
        # the curve is reduced once, when it is parsed, and the germ is its
        # translate; the Milnor number takes no gcd(f_x, f_y), as its
        # resultant is nonzero and f_x, f_y meet x = 0 only at the origin
        import sys

        from polarweb import mpoly
        from polarweb.cli import run_command

        calls = {"squarefree_part": [], "poly_gcd": []}
        for name in calls:
            real = getattr(mpoly, name)

            def counted(*args, real=real, name=name):
                calls[name].append(args)
                return real(*args)

            for module_name, module in list(sys.modules.items()):
                if module_name.startswith("polarweb") and module is not None:
                    for key, value in list(vars(module).items()):
                        if value is real:
                            monkeypatch.setattr(module, key, counted)
        path = tmp_path / "germ.txt"
        path.write_text("type: curve\nf: ((y - 2*x)^2 - 3*x^4)*(y + x - x^2)\n")
        code, text = run_command(["localsing", "--in", str(path), "--point", "0,0"])
        assert code == 0, text
        assert len(calls["squarefree_part"]) == 1
        germ = CurveGerm.at_point(PlaneCurve(((Y - 2 * X) ** 2 - 3 * X**4) * (Y + X - X**2)), ORIGIN).poly
        fx, fy = germ.derivative("x"), germ.derivative("y")
        assert sum(1 for f, g in calls["poly_gcd"] if (f, g) == (fx, fy)) == 0

    @given(st.integers(-2, 2), st.integers(-2, 2), st.lists(st.integers(-3, 3), min_size=6, max_size=6))
    @settings(max_examples=20, deadline=None)
    def test_germ_terms_match_the_square_free_part_of_the_translate(self, a, b, coeffs):
        # at_point translates the reduced equation: the terms are those of the
        # square-free part of the translated raw equation
        from polarweb.mpoly import squarefree_part, translate

        rest = sum((c * X**i * Y**j for (i, j), c in zip([(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)], coeffs)),
                   MPoly.zero())
        assume(not rest.is_zero())
        f = (Y - a * X - b) ** 2 * rest  # the squared line passes through the point
        point = (Fraction(1, 2), Fraction(a, 2) + b)
        expected = squarefree_part(translate(f, point))
        assert CurveGerm.at_point(PlaneCurve(f), point).poly == expected


@st.composite
def planted_curves(draw, degrees=(2, 5)):
    """(f, m): integer coefficients in [-3, 3] on the monomials of degree m
    to n, for m in {2, 3} and n up to degrees[1], so the origin is a point
    of order m or more."""
    m = draw(st.integers(2, 3))
    n = draw(st.integers(max(m, degrees[0]), degrees[1]))
    f = MPoly.zero()
    for d in range(m, n + 1):
        for i in range(d + 1):
            f = f + draw(st.integers(-3, 3)) * X**i * Y ** (d - i)
    return f, m


class TestTeissier:
    """Teissier's polar formulas (B. Teissier, Astérisque 7-8, 1973) tie
    the intersection number, the multiplicity, mu and the class to each
    other."""

    @given(planted_curves())
    @settings(max_examples=60, deadline=None)
    def test_local_polar_of_a_sheared_germ(self, case):
        # after a shear that keeps x = 0 out of the tangent cone,
        # I(f, f_y) = mu + I(f, x) - 1 and I(f, x) = m
        f, _ = case
        assume(not f.is_zero())
        f = shear(f, next(proper_shears([lowest_jet(f)[1]])))
        g = CurveGerm(_rekey(f, ("x", "y")))
        try:
            mu = milnor_number(g)
        except PolynomialError:
            assume(False)  # not an isolated singularity
        m = g.multiplicity()
        assert intersection_multiplicity(f, X) == m
        assert intersection_multiplicity(f, f.derivative("y")) == mu + m - 1

    @given(planted_curves(degrees=(3, 5)))
    @settings(max_examples=60, deadline=None)
    def test_class_of_a_curve_smooth_at_infinity(self, case):
        # class(C) = n(n - 1) - sum over the singular points of (mu + m - 1)
        # for a reduced C of degree n with n distinct points at infinity,
        # and so smooth there, whose singular points `common_zeros` finds
        # all rational
        f, _ = case
        n, terms = f.total_degree(), _rekey(f, ("x", "y"))
        assume(n >= 3 and _distinct_binary_roots([terms.get((n - i, i), 0) for i in range(n + 1)]))
        curve = PlaneCurve(f)
        assume(curve.raw == curve.defining)
        zs = common_zeros([f, f.derivative("x"), f.derivative("y")])
        assume(not zs.numeric)
        assert (0, 0) in zs.rational
        germs = [CurveGerm.at_point(curve, q) for q in zs.rational]
        assert class_of_curve(curve) == n * (n - 1) - sum(milnor_number(g) + g.multiplicity() - 1 for g in germs)


class TestBlowUp:
    def test_cusp_single_point(self):
        pts = blow_up(CUSP)
        assert len(pts) == 1
        strict = pts[0]
        assert strict.multiplicity() == 1
        # strict transform is smooth but tangent to the exceptional line
        seq = resolve_germ(CUSP).mult_sequence
        assert seq == (2, 1, 1)

    def test_node_two_transverse_points(self):
        pts = blow_up(NODE)
        assert len(pts) == 2
        assert all(p.multiplicity() == 1 for p in pts)

    def test_smooth_terminates(self):
        pts = blow_up(SMOOTH)
        assert len(pts) == 1
        assert resolve_germ(SMOOTH).mult_sequence == ()

    def test_exceptional_budget(self):
        # total intersection of the strict transform with E equals m
        for g in (CUSP, NODE, TACNODE):
            m = g.multiplicity()
            pts = blow_up(g)
            assert len(pts) <= m


class TestSequences:
    def test_cusp(self):
        assert resolve_germ(CUSP).mult_sequence == (2, 1, 1)

    def test_node(self):
        assert resolve_germ(NODE).mult_sequence == (2,)

    def test_tacnode(self):
        assert resolve_germ(TACNODE).mult_sequence == (2, 2)

    def test_branches(self):
        assert resolve_germ(CUSP).r == 1
        assert resolve_germ(NODE).r == 2
        assert resolve_germ(TACNODE).r == 2

    def test_first_entry_is_multiplicity(self):
        for g in (CUSP, NODE, TACNODE):
            assert resolve_germ(g).mult_sequence[0] == g.multiplicity()

    def test_ramphoid_like_deeper_cusp(self):
        g = germ(Y**2 - X**5)
        assert resolve_germ(g).mult_sequence == (2, 2, 1, 1)
        fp = fingerprint(g)
        assert fp.mu == 4 and fp.delta == 2 and fp.r == 1


class TestFingerprint:
    def test_classical_table(self):
        assert fingerprint(CUSP).key() == (2, 2, 1, 1, (2, 1, 1), (2,))
        assert fingerprint(NODE).key() == (2, 1, 2, 1, (2,), (1, 1))
        assert fingerprint(TACNODE).key() == (2, 3, 2, 2, (2, 2), (2,))

    def test_smooth(self):
        fp = fingerprint(SMOOTH)
        assert (fp.m, fp.mu, fp.r, fp.delta) == (1, 0, 1, 0)

    def test_milnor_relation_everywhere(self):
        for poly in (Y**2 - X**3, X * Y, Y**2 - X**4, Y**2 - X**5,
                     (Y - X**2) * (Y + X**2) * (Y - 2 * X**2),
                     X**3 - Y**4, (Y - X) * (Y + X) * (Y - 2 * X)):
            fp = fingerprint(germ(poly))
            assert fp.mu == 2 * fp.delta - fp.r + 1

    def test_numeric_node_matches_exact(self):
        # the node with irrational lines, moved to the conjugate points (+-sqrt 3, 0)
        exact = fingerprint(germ(Y**2 - 2 * X**2))
        at_group = fingerprints(conjugate_germ(Y**2 - 2 * X**2, 3))
        assert [fp.key() for fp in at_group] == [exact.key()] * 2

    def test_numeric_cusp_at_shifted_point(self):
        # a cusp at (+-sqrt 2, 1): a group whose y is the constant 1
        group = Group([-2, 0, 1], [-1], [1], 0)
        poly = conjugate_pair((Y - 1) ** 2 - X**3, 2)
        assert [fp.key() for fp in fingerprints(CurveGerm.at_group(poly, group))] == [fingerprint(CUSP).key()] * 2

    def test_numeric_triple_tangent_resolves_exactly(self):
        # the cone line y = x has multiplicity 3 at both points (+-sqrt 2, 0)
        poly = (Y - X) ** 3 - X**4
        expected = (3, 6, 1, 3, (3, 1, 1, 1), (3,))
        assert fingerprint(germ(poly)).key() == expected
        assert [fp.key() for fp in fingerprints(conjugate_germ(poly, 2))] == [expected] * 2

    # three germs whose numeric copies at (+-sqrt 2, 0) could not be resolved
    # in floats: a triple line, and two steep lines with a high-order tail
    @pytest.mark.parametrize("poly", [
        (Y - X) ** 3 - X**4, (Y - 1000 * X) * (Y + X) + Y**4, (Y - 100 * X) * (Y + X) + Y**6,
    ], ids=["triple line", "slope 1000", "slope 100"])
    def test_conjugate_points_match_the_origin(self, poly):
        expected = fingerprint(germ(poly)).key()
        assert [fp.key() for fp in fingerprints(conjugate_germ(poly, 2))] == [expected] * 2

    @given(planted_germs(), st.sampled_from([2, 3, 5, -1]))
    @example(((Y - X) ** 2 - X**3) * (Y + X), 2)  # a double and a simple line in one group
    @settings(max_examples=25, deadline=None)
    def test_every_conjugate_point_has_the_exact_fingerprint(self, f, c):
        # f at both points of (+-sqrt c, 0) of f(x - sqrt c, y) * f(x + sqrt c, y),
        # where f(x + 2 sqrt c, y) is a unit
        g = germ(f)
        assume(g.poly == f.canonical())  # reduced
        assume(not _vanishes_at_twice_root(f.substitute({"y": 0}), c))
        expected = fingerprint(g).key()
        assert [fp.key() for fp in fingerprints(conjugate_germ(f, c))] == [expected] * 2

    def test_exact_germ_past_the_cap_is_a_polynomial_error(self, monkeypatch):
        from polarweb import localsing

        monkeypatch.setattr(localsing, "MAX_BLOWUPS", 1)
        with pytest.raises(PolynomialError):
            fingerprint(germ(Y**2 - X**5))


class TestOneBlowUpPath:
    """Exact and numeric germs share one blow-up on their term dicts."""

    def test_exact_resolution_makes_no_substitution(self, monkeypatch):
        g = germ(((Y - X) ** 2 - 2 * X**2) * (Y**2 - X**3) * (Y + 3 * X))
        calls = []
        substitute = MPoly.substitute

        def counting(self, *args, **kwargs):
            calls.append(1)
            return substitute(self, *args, **kwargs)

        monkeypatch.setattr(MPoly, "substitute", counting)
        resolve_germ(g)
        monkeypatch.undo()
        assert len(calls) == 0
        assert str(fingerprint(g)) == "(m=5, mu=17, r=4, delta=10, seq=[5, 1, 1], cone=[1, 1, 1, 2])"

    def test_irrational_lines_give_group_children(self, monkeypatch):
        # the lines y = +-sqrt(2) x are the group of roots of t^2 - 2, found
        # and resolved without an approximation
        g = germ(Y**2 - 2 * X**2)
        lines, groups = _tangents(g, 2)
        assert lines == [] and [(group.w, group.num, group.den, group.lam, k) for group, k in groups] == [
            ([-2, 0, 1], [0], [1], 0, 1)]
        from polarweb import numerics

        def no_roots(*args):
            raise AssertionError("an Aberth call")

        monkeypatch.setattr(numerics, "univariate_roots", no_roots)
        monkeypatch.setattr(Group, "ts", property(no_roots))
        res = resolve_germ(g)
        assert (res.mult_sequence, res.r, res.tangent_pattern) == ((2,), 2, (1, 1))

    def test_rational_lines_keep_children_exact(self):
        children = blow_up(germ(Y**2 - X**2))
        assert len(children) == 2
        for child in children:
            assert child.group is None
            assert all(type(c) in (int, Fraction) for c in child.terms.values())


# the benchmark's germs at the origin, by seed and job index
BENCHMARK_GERMS = {seed: [text for _, text, _ in jobs("germs", seed, 384)] for seed in SEEDS}

# (x, y) -> (a, b): the unimodular integer linear maps with entries in
# [-2, 2], a reflection and two analytic maps that keep the origin
COORDINATE_CHANGES = st.one_of(
    st.tuples(*[st.integers(-2, 2)] * 4).filter(lambda m: abs(m[0] * m[3] - m[1] * m[2]) == 1).map(
        lambda m: (m[0] * X + m[1] * Y, m[2] * X + m[3] * Y)),
    st.sampled_from([(X, -Y), (X + Y**2, Y), (X, Y + X**2 - X * Y)]))


class TestCoordinateFreeKey:
    """The key follows the resolution tree, whose subtrees at each point go
    in the order of their own sequences, not in the order of the slopes."""

    def test_a_reflection_keeps_the_key(self):
        # y -> -y moves the second branch's line from slope 1 to slope -1,
        # past the cusp's line y = 0, and so flips the slope order
        keys = [fingerprint(germ((Y**2 - X**3) * ((Y - s * X) ** 2 - X**5))).key() for s in (1, -1)]
        assert keys == [(4, 13, 2, 7, (4, 1, 1, 2, 1, 1), (2, 2))] * 2

    @pytest.mark.parametrize("sign", [1, -1])
    def test_conjugate_points_of_one_group_share_a_key(self, sign):
        # the same germ at (+-sqrt 2, 0), x replaced by u = +-(x^2 - 2): the
        # second branch's line has slope 2*sqrt(2) at one point and
        # -2*sqrt(2) at the other
        u = sign * (X**2 - 2)
        poly = (Y**2 - u**3) * ((Y - u) ** 2 - u**5)
        keys = [fp.key() for fp in fingerprints(CurveGerm.at_group(poly, Group([-2, 0, 1], [0], [1], 0)))]
        assert keys == [(4, 13, 2, 7, (4, 1, 1, 2, 1, 1), (2, 2))] * 2

    # the benchmark germs whose key followed the slope order
    @given(st.sampled_from(SEEDS), st.integers(0, 383), COORDINATE_CHANGES)
    @example(1, 143, (X, -Y))
    @example(1, 191, (X, -Y))
    @example(1, 335, (X, -Y))
    @example(20261017, 47, (X, -Y))
    @example(20261017, 155, (X, -Y))
    @example(20261017, 179, (X, -Y))
    @example(20261017, 335, (X, -Y))
    @example(20261017, 374, (X, -Y))
    @example(20261017, 383, (X, -Y))
    @settings(max_examples=100, deadline=None)
    def test_a_change_of_coordinates_keeps_the_key(self, seed, index, xy):
        f = parse_input_text(BENCHMARK_GERMS[seed][index])[0].defining
        moved = f.substitute({"x": xy[0], "y": xy[1]})
        assert fingerprint(germ(moved)).key() == fingerprint(germ(f)).key()


def random_rational_germ(rng: random.Random) -> MPoly:
    """Products of branch-like factors with rational tangents; kept reduced."""
    factors = []
    count = rng.randint(1, 3)
    shapes = []
    for _ in range(count):
        a = rng.randint(1, 2)
        b = rng.randint(1, 3)
        c = rng.choice([1, -1, 2, -2, 3])
        slope = rng.randint(-2, 2)
        shape = (a, b, c, slope)
        if shape in shapes:
            continue
        shapes.append(shape)
        base = (Y - slope * X) ** a - MPoly.constant(c) * X ** (a * b)
        factors.append(base)
    total = factors[0]
    for f in factors[1:]:
        total = total * f
    return total


class TestDeltaAgreement:
    def test_hundred_random_germs(self):
        rng = random.Random(12345)
        seen = 0
        attempts = 0
        while seen < 100 and attempts < 400:
            attempts += 1
            poly = random_rational_germ(rng)
            try:
                g = germ(poly)
                if g.poly != poly.canonical():
                    continue  # squarefree reduction changed it: repeated factor
                fp = fingerprint(g)  # hard-asserts the two delta routes agree
            except PolynomialError:
                continue
            assert fp.mu == 2 * fp.delta - fp.r + 1
            seen += 1
        assert seen == 100


def reference_delta_sum_at_infinity(F: MPoly) -> int:
    """`localsing._delta_sum_at_infinity` with its own zero set on the line
    z = 0 of the chart y = 1: the rational roots and the irrational Yun
    factors of the gcd of G, G_x and G_z at z = 0, each factor one group of
    points (x0, 0)."""
    H = homogenize(F)
    G = H.substitute({"y": 1})
    line = [h for g in (G, G.derivative("x"), G.derivative("z")) if not (h := g.substitute({"z": 0})).is_zero()]
    rational, rest = [], []
    if line and all(not g.is_constant() for g in line):
        elim = gcd_fold(line)
        if not elim.is_constant():
            rational, rest = rational_split(_int_coeffs(elim, "x"))
    curve = G.substitute({"z": Y})
    germs = [CurveGerm.at_point(PlaneCurve(curve), (x0, Fraction(0)))
             for x0, _ in rational if G.evaluate({"x": x0, "z": 0}) == 0]
    germs += [CurveGerm.at_group(curve, Group(w, [0], [1], 0)) for w, _ in rest]
    K = H.substitute({"x": 1, "y": X, "z": Y})
    if not any(_nonzero_at_origin(g) for g in (K, K.derivative("x"), K.derivative("y"))):
        germs.append(CurveGerm.at_point(PlaneCurve(K), ORIGIN))
    return sum(fp.delta for germ in germs for fp in fingerprints(germ))


# (top form, its radical): top forms with repeated irrational, rational and
# axis factors, so that the curve can meet the line at infinity in singular
# points of each kind
TOP_FORMS = [((X**2 - 2 * Y**2) ** 2, X**2 - 2 * Y**2), ((X - Y) ** 2 * (X + Y), (X - Y) * (X + Y)),
             (X**2 * Y, X * Y), ((X * Y) ** 2, X * Y)]


class TestGenus:
    def test_smooth_conic(self):
        assert genus_of_curve(PlaneCurve(X**2 + Y**2 - 1)) == 0

    def test_nodal_cubic(self):
        assert genus_of_curve(PlaneCurve(Y**2 - X**2 * (X + 1))) == 0

    def test_smooth_quartic(self):
        assert genus_of_curve(PlaneCurve(X**4 + Y**4 - 1)) == 3

    def test_smooth_degree_formula(self):
        rng = random.Random(7)
        for n in (2, 3, 4):
            # Fermat-like curves are smooth; perturb the constant
            c = rng.randint(1, 9)
            curve = PlaneCurve(X**n + Y**n + MPoly.constant(c))
            assert genus_of_curve(curve) == (n - 1) * (n - 2) // 2

    def test_singularity_at_infinity_counted(self):
        # y = x^3 projectivizes with a cusp-like point at infinity
        assert genus_of_curve(PlaneCurve(Y - X**3)) == 0

    def test_reducible_rejected(self):
        with pytest.raises(PolynomialError):
            genus_of_curve(PlaneCurve((X + Y) * (X - Y + 1)))

    # (F, genus, delta at infinity, [(chart point, rational, m, mu, delta)]):
    # a cusp and an E6 point at [1:0:0] (chart x = 1, point (0, 0) in the
    # coordinates (y, z)), and two conjugate cusps at [+-sqrt(2) : 1 : 0]
    # (chart y = 1, the group of points (x0, 0) in the coordinates (x, z)).
    @pytest.mark.parametrize("F, genus, delta, points", [
        (X - Y**3, 0, 1, [((0, 0), True, 2, 2, 1)]),
        (X * Y**3 - 1, 0, 3, [((0, 0), True, 3, 6, 3)]),
        ((X**2 - 2 * Y**2)**2 + X, 1, 2,
         [((2**0.5, 0), False, 2, 2, 1), ((-(2**0.5), 0), False, 2, 2, 1)]),
        # a node at (0, 1), which is the point (0, 1) of the chart y = 1 too,
        # but not on its line y = 0
        ((Y - 1)**2 - X**2 * (X + 1), 0, 0, []),
    ], ids=["x-y^3", "xy^3-1", "(x^2-2y^2)^2+x", "(y-1)^2-x^2(x+1)"])
    def test_charts_at_infinity(self, monkeypatch, F, genus, delta, points):
        from polarweb import localsing

        seen = []

        def at_point(curve, point):
            g = make_at_point(curve, point)
            fp = localsing.fingerprint(g)
            seen.append((tuple(complex(c) for c in point), True, fp.m, fp.mu, fp.delta))
            return g

        def at_group(curve, group):
            # the points of a group in one part share a fingerprint
            g = make_at_group(curve, group)
            (fp,) = set(localsing.fingerprints(g))
            seen.extend((q, False, fp.m, fp.mu, fp.delta) for q in group.points)
            return g

        make_at_point, make_at_group = CurveGerm.at_point, CurveGerm.at_group
        assert genus_of_curve(PlaneCurve(F)) == genus
        monkeypatch.setattr(CurveGerm, "at_point", staticmethod(at_point))
        monkeypatch.setattr(CurveGerm, "at_group", staticmethod(at_group))
        assert localsing._delta_sum_at_infinity(F) == delta
        assert len(seen) == len(points)
        for (p, *fp), (q, *expected) in zip(sorted(seen, key=lambda s: -s[0][0].real), points):
            assert fp == expected
            assert all(abs(a - b) < 1e-9 for a, b in zip(p, q))

    @given(st.sampled_from(TOP_FORMS), st.integers(-2, 2), st.integers(-2, 2), st.sampled_from([0, 0, 1, -2]),
           st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, -3]), min_size=6, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_delta_at_infinity_agrees_with_the_gcd_on_the_line(self, top_radical, a, b, e, cs):
        from polarweb import localsing

        top, radical = top_radical
        n = top.total_degree()
        # the part of degree n - 1 vanishes at the multiple points of the top
        # form on the line z = 0, which makes them singular, unless e != 0
        # moves it off the points [x0 : 1 : 0]; sparse terms of degree < n - 1
        near = (a * X + b * Y if radical.total_degree() < n - 1 else MPoly.constant(a)) * radical + e * Y ** (n - 1)
        lower = [X**i * Y**j for i in range(n - 1) for j in range(n - 1 - i)]
        F = top + near + sum((c * m for c, m in zip(cs, lower)), MPoly.zero())
        # a germ of a repeated component never resolves
        assume(squarefree_part(F) == F.canonical())
        assert localsing._delta_sum_at_infinity(F) == reference_delta_sum_at_infinity(F)


class TestEquisingularity:
    def test_squares_node_fingerprint(self):
        fol = [e for e in FOLIATIONS if e.name == "A=x^2 B=y^2"][0].foliation
        report = equisingularity_check(fol, seed=5, samples=4)
        assert report.passed, report.render_text()
        assert any("(m=2, mu=1, r=2, delta=1," in n for n in report.notes)

    def test_smooth_polar_family(self):
        fol = [e for e in FOLIATIONS if e.name == "A=2y B=3x^2"][0].foliation
        report = equisingularity_check(fol, seed=5, samples=4)
        assert report.passed
        assert any("no singular points" in n for n in report.notes)

    def test_genus_constancy(self):
        fol = [e for e in FOLIATIONS if e.name == "A=x^2 B=y^2"][0].foliation
        report = genus_constancy_check(fol, seed=6, samples=3)
        assert report.passed, report.render_text()

    def test_irrational_singular_points_are_exact(self):
        # every generic polar is singular at the conjugate points (+-sqrt 2, 0)
        from polarweb import FoliationData

        fol = FoliationData((X**2 - 2) ** 2 + Y**2, (X**2 - 2) * Y + Y**2)
        for report in (equisingularity_check(fol, seed=1, samples=3), genus_constancy_check(fol, seed=1, samples=3)):
            assert report.passed, report.render_text()
            assert report.mode == "exact" and report.to_dict()["certificates"] == {}

    def test_numeric_abort_in_one_genus_is_a_discard(self, monkeypatch):
        from polarweb import localsing

        fol = [e for e in FOLIATIONS if e.name == "A=x^2 B=y^2"][0].foliation
        genus = localsing.genus_of_curve
        calls = []

        def first_aborts(curve, include_infinity=True):
            calls.append(curve)
            if len(calls) == 1:
                raise NumericAbortError("numeric germ exceeded the blow-up cap")
            return genus(curve, include_infinity)

        monkeypatch.setattr(localsing, "genus_of_curve", first_aborts)
        report = genus_constancy_check(fol, seed=6, samples=3)
        assert report.passed, report.render_text()
        assert report.samples_used == 3 and len(calls) == 4
        assert len(report.discards) == 1
        assert report.discards[0][1] == "genus unavailable: numeric germ exceeded the blow-up cap"
