"""Root finding, tracking, and monodromy orbits."""

import cmath

import pytest

from polarweb import numerics
from polarweb.errors import NumericAbortError
from polarweb.numerics import (
    RESIDUAL_TOL,
    match_permutation,
    monodromy_partition,
    poly_norm,
    track_roots,
    univariate_roots,
)
from polarweb.zpoly import _horner

UNIT_CIRCLE = [cmath.exp(2j * cmath.pi * k / 24) for k in range(25)]


class TestRoots:
    def test_quadratic(self):
        roots = sorted(univariate_roots([-1, 0, 1]), key=lambda z: z.real)
        assert abs(roots[0] + 1) < 1e-9 and abs(roots[1] - 1) < 1e-9

    def test_triple_root(self):
        roots = univariate_roots([0, 0, 0, 1])
        assert len(roots) == 3
        assert max(abs(z) for z in roots) < 1e-3

    def test_double_root(self):
        roots = univariate_roots([1, -2, 1])
        assert len(roots) == 2
        assert max(abs(z - 1) for z in roots) < 1e-4

    def test_residual_contract(self):
        coeffs = [3.5, -2, 0.25, 1, -4, 1]
        norm = poly_norm(coeffs)
        for r in univariate_roots(coeffs):
            assert abs(_horner(coeffs, r)) / norm < RESIDUAL_TOL

    def test_degree_zero_rejected(self):
        with pytest.raises(NumericAbortError):
            univariate_roots([1])

    def test_leading_underflow_rejected(self):
        with pytest.raises(NumericAbortError):
            univariate_roots([1, 1e-15])

    def test_int_coefficients_past_float_range_are_scaled(self):
        # 10^400 * (t - 1)(t - 2): one power of two brings it into range
        big = 10**400
        roots = sorted(univariate_roots([2 * big, -3 * big, big]), key=lambda z: z.real)
        assert abs(roots[0] - 1) < 1e-9 and abs(roots[1] - 2) < 1e-9

    def test_int_coefficients_wider_than_the_float_range_are_rejected(self):
        # the roots, +-i*2^-1500, lie below the float range
        with pytest.raises(NumericAbortError, match="span more than the float range"):
            univariate_roots([1, 0, 2**3000])

    @pytest.mark.parametrize("coeffs, modulus", [
        ([-3, 1, 10**300], 3**0.5 * 1e-150),  # far below the old backward-error gate
        ([-3, 1, 10**330], 3**0.5 * 1e-165),
        ([-3 * 10**300, 1, 1], 3**0.5 * 1e150),
    ], ids=["tiny", "tiny past 1000 bits", "huge"])
    def test_tiny_or_huge_roots_are_balanced(self, coeffs, modulus):
        roots = sorted(univariate_roots(coeffs), key=lambda z: z.real)
        assert abs(roots[0] + modulus) <= 1e-9 * modulus
        assert abs(roots[1] - modulus) <= 1e-9 * modulus

    @pytest.mark.parametrize("coeffs", [[-1, 0, 1], [2, -3, 1], [1, 2**200], [2**250, 0, 1], [5, 0, 0, 7]])
    def test_moderate_roots_are_not_balanced(self, coeffs):
        # Fujiwara's bound inside [2^-256, 2^256]: no shift, the same floats
        assert numerics._balance_shift(coeffs) == 0

    def test_the_shift_puts_the_roots_below_two(self):
        k = numerics._balance_shift([-3, 1, 10**300])
        assert k < -256
        assert all(abs(r) / 2.0**k < 2 for r in univariate_roots([-3, 1, 10**300]))


class TestTracking:
    def test_square_root_monodromy_swaps(self):
        fam = lambda s: [-s, 0, 1]
        start = univariate_roots(fam(UNIT_CIRCLE[0]))
        end = track_roots(fam, UNIT_CIRCLE, start)
        assert match_permutation(start, end) == [1, 0]
        # cross-check against the explicit sqrt continuation: ends at -start
        for s, e in zip(start, end):
            assert abs(e + s) < 1e-6

    def test_constant_family_identity(self):
        fam = lambda s: [-6, 1, 1]
        start = univariate_roots(fam(0))
        end = track_roots(fam, UNIT_CIRCLE, start)
        assert match_permutation(start, end) == [0, 1]

    def test_unenclosed_branch_point_identity(self):
        fam = lambda s: [-(s + 2), 0, 1]
        start = univariate_roots(fam(UNIT_CIRCLE[0]))
        end = track_roots(fam, UNIT_CIRCLE, start)
        assert match_permutation(start, end) == [0, 1]

    def test_loop_then_reverse_is_identity(self):
        fam = lambda s: [-s, 0, 1]
        start = univariate_roots(fam(UNIT_CIRCLE[0]))
        there = track_roots(fam, UNIT_CIRCLE, start)
        back = track_roots(fam, list(reversed(UNIT_CIRCLE)), there)
        assert match_permutation(start, back) == [0, 1]

    def test_through_branch_point_aborts(self):
        fam = lambda s: [-s, 0, 1]
        start = univariate_roots(fam(1.0))
        with pytest.raises(NumericAbortError):
            track_roots(fam, [1.0, -1.0], start)  # straight through s = 0


class TestMonodromy:
    def test_irreducible_conic_one_orbit(self):
        cover = lambda s: [s * s - 1, 0, 1]
        res = monodromy_partition(cover, base_point=0.3 + 0.7j, branch_points=[1, -1])
        assert res.partition == ((0, 1),)
        assert res.loops_traced == 2

    def test_reducible_pair_two_orbits(self):
        cover = lambda s: [-(s * s), 0, 1]  # (y-s)(y+s)
        res = monodromy_partition(cover, base_point=1.0 + 0.5j, branch_points=[0])
        assert res.partition == ((0,), (1,))

    def test_direction_cover_of_sqrt_web(self):
        cover = lambda s: [-s, 0, 1]  # slopes m^2 = s
        res = monodromy_partition(cover, base_point=2.0 + 1.0j, branch_points=[0])
        assert res.orbit_count == 1

    def test_base_point_too_close_rejected(self):
        cover = lambda s: [s * s - 1, 0, 1]
        with pytest.raises(NumericAbortError):
            monodromy_partition(cover, base_point=1.0 + 1e-6j, branch_points=[1, -1])

    def test_coincident_roots_at_base_rejected(self):
        cover = lambda s: [s * s, -2 * s, 1]  # (y - s)^2
        with pytest.raises(NumericAbortError):
            monodromy_partition(cover, base_point=1.0 + 1.0j, branch_points=[0])
