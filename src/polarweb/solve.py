"""Roots of univariate polynomials, and finite zero sets of polynomial
collections in two variables.

A root split runs Yun's decomposition on the integer coefficient list and
Aberth on each factor; a rounded approximation is a rational root only when
the exact integer test (`zpoly._vanishes_at`) holds.  A zero set is the grid
of the roots of two eliminants, resultants of the generators: a rational
point is verified exactly, a point with one rational coordinate is read from
the generators' gcd on that coordinate's line, any other by residual.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, count, islice

from .errors import InfiniteZeroSetError, InternalInvariantError, PolynomialError
from .mpoly import MPoly, _int_coeffs, gcd_fold, resultant
from .numerics import univariate_roots
from .zpoly import _int_exact_quo, _vanishes_at, _yun

NUMERIC_TOL = 1e-9
RECONSTRUCT_DENOMS = (10**6, 10**12)


def term_scale(f: MPoly, point: dict[str, complex]) -> float:
    """Sum of term magnitudes at the point; the natural residual scale."""
    total = 0.0
    for e, c in f.terms.items():
        t = abs(float(c.numerator) / float(c.denominator))
        for i, v in enumerate(f.variables):
            if e[i]:
                t *= abs(complex(point[v])) ** e[i]
        total += t
    return max(total, 1.0)


def vanishes_numerically(f: MPoly, point: dict[str, complex]) -> bool:
    return abs(f.evaluate_complex(point)) <= NUMERIC_TOL * term_scale(f, point)


def _candidates(approx: list[complex]):
    """Rational guesses for the real-looking approximations, in order."""
    for r in approx:
        if abs(r.imag) <= 1e-7 * max(1.0, abs(r)):
            for cap in RECONSTRUCT_DENOMS:
                yield Fraction(r.real).limit_denominator(cap)


def int_root_split(coeffs: list[int]) -> tuple[list[tuple[Fraction, int]], list[tuple[complex, int]]]:
    """Roots of the polynomial with the ascending int coefficients (nonzero
    top; any content): (rational with exact multiplicity, non-rational
    numeric with multiplicity).  Each square-free factor of Yun's
    decomposition is solved by Aberth; a rounded real approximation that the
    factor vanishes at exactly (`_vanishes_at`) is a rational root, divided
    out before the next solve.  The numeric roots are the approximations of
    the last solve, in which no rational root was verified."""
    rational: list[tuple[Fraction, int]] = []
    numeric: list[tuple[complex, int]] = []
    for work, mult in _yun(coeffs):
        while len(work) > 1:
            approx = univariate_roots(work)
            root = next((r for r in _candidates(approx) if _vanishes_at(work, r)), None)
            if root is None:
                numeric += [(r, mult) for r in approx]
                break
            rational.append((root, mult))
            # work / (var - a/b) = b * (work / (b*var - a)): the quotient over
            # Q, whose float image fixes the approximations reported
            q = _int_exact_quo(work, [-root.numerator, root.denominator])
            work = [root.denominator * c for c in q]
    return rational, numeric


def univariate_root_split(f: MPoly, var: str) -> tuple[list[tuple[Fraction, int]], list[tuple[complex, int]]]:
    """`int_root_split` of a nonzero polynomial in var alone; a constant has no roots."""
    if f.is_zero():
        raise PolynomialError("root split of zero polynomial")
    if f.degree_in(var) == 0:
        return [], []
    return int_root_split(_int_coeffs(f, var))


@dataclass
class ZeroSet:
    """Common zeros of a polynomial family in two variables."""

    rational: list[tuple[Fraction, Fraction]] = field(default_factory=list)
    numeric: list[tuple[complex, complex]] = field(default_factory=list)
    elim_x: MPoly | None = None
    elim_y: MPoly | None = None

    def __len__(self) -> int:
        return len(self.rational) + len(self.numeric)


def _combination_resultant(polys: list[MPoly], v: str) -> MPoly:
    """A nonzero Res_v(G(t1), G(t2)) for G(t) = sum_i t^i p_i, where the n >= 2
    polynomials p_i all involve v and have gcd 1.

    An irreducible h dividing G(t) for n distinct t divides every p_i (the
    Vandermonde matrix is invertible), so it divides G(t) for at most n - 1
    values of t; and deg_v G(t) drops below its maximum for at most n - 1
    values (the top coefficient has degree < n in t).  So the first t1 with
    deg_v G(t1) > 0 is at most n, and within the next
    (deg_v G(t1) + 1)(n - 1) + 1 values some G(t2) involves v and shares no
    factor with G(t1).
    """
    n = len(polys)
    combos = (sum((MPoly.constant(t**i) * p for i, p in enumerate(polys)), MPoly.zero())
              for t in count(1))
    c1 = next((c for c in islice(combos, n) if c.degree_in(v) > 0), None)
    if c1 is not None:
        for c2 in islice(combos, (c1.degree_in(v) + 1) * (n - 1) + 1):
            if c2.degree_in(v) > 0:
                r = resultant(c1, c2, v)
                if not r.is_zero():
                    return r
    raise InternalInvariantError(f"no combination of coprime generators eliminates {v}")


def common_zeros(polys: list[MPoly]) -> ZeroSet:
    """Common zero set, expected finite, of polynomials in (x, y).  Each
    eliminant draws its candidates lazily and gets the gcd of all of them."""
    polys = [p for p in polys if not p.is_zero()]
    if not polys:
        raise InfiniteZeroSetError("all generators are zero")
    if any(p.is_constant() for p in polys):
        return ZeroSet()
    g = gcd_fold(polys)
    if not g.is_constant():
        raise InfiniteZeroSetError(f"generators share the factor {g}")

    def eliminant(elim_var: str, keep_var: str) -> MPoly:
        """A nonzero polynomial in keep_var vanishing at every common zero's
        keep_var coordinate: the gcd of the generators free of elim_var and
        of the nonzero pairwise resultants, or, when there are none, the
        resultant of two combinations (`_combination_resultant`).  The
        candidates are drawn lazily, so no resultant is taken after the gcd
        has become a constant; that gcd is the one of all the candidates."""
        free = [p for p in polys if p.degree_in(elim_var) == 0]
        positive = [p for p in polys if p.degree_in(elim_var) > 0]
        nonzero = (r for i, p in enumerate(positive) for q in positive[i + 1:]
                   if not (r := resultant(p, q, elim_var)).is_zero())
        first = free[0] if free else next(nonzero, None)
        if first is None:
            # every generator involves elim_var, and there are >= 2 of them
            first = _combination_resultant(positive, elim_var)
        return gcd_fold(chain([first], free[1:], nonzero)).canonical()

    ex = eliminant("y", "x")
    ey = eliminant("x", "y")
    if ex.degree_in("x") == 0 or ey.degree_in("y") == 0:
        # a constant eliminant certifies emptiness in that direction
        return ZeroSet(elim_x=ex, elim_y=ey)
    rx, nx = univariate_root_split(ex, "x")
    ry, ny = univariate_root_split(ey, "y")

    def fiber(var: str, value: Fraction, other: str) -> list[complex]:
        """The non-rational `other` coordinates of the zeros on the line
        var = value: the numeric roots of the generators' gcd there."""
        on_line = [r for p in polys if not (r := p.substitute({var: value})).is_zero()]
        return [root for root, _ in univariate_root_split(gcd_fold(on_line), other)[1]]

    zs = ZeroSet(elim_x=ex, elim_y=ey)
    for xr, _ in rx:
        for yr, _ in ry:
            if all(p.evaluate({"x": xr, "y": yr}) == 0 for p in polys):
                zs.rational.append((xr, yr))
    zs.numeric += [(complex(xr), yv) for xr, _ in rx for yv in fiber("x", xr, "y")]
    zs.numeric += [(xv, complex(yr)) for yr, _ in ry for xv in fiber("y", yr, "x")]
    for xv, _ in nx:
        for yv, _ in ny:
            if (all(vanishes_numerically(p, {"x": xv, "y": yv}) for p in polys)
                    and not any(abs(xv - a) < 1e-7 and abs(yv - b) < 1e-7 for a, b in zs.numeric)):
                zs.numeric.append((xv, yv))
    zs.rational.sort(key=lambda t: (t[0], t[1]))
    zs.numeric.sort(key=lambda t: (t[0].real, t[0].imag, t[1].real, t[1].imag))
    return zs
