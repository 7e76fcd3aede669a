"""Finite zero sets of polynomial collections in two variables.

The strategy is classical elimination: resultants of random small integer
combinations give univariate eliminants whose roots form a candidate superset,
and every candidate is verified against all inputs -- exactly for rational
candidates, numerically (relative residual) otherwise.  Multiplicity data is
recovered exactly through square-free decomposition of the eliminants.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import InfiniteZeroSetError, PolynomialError
from .mpoly import MPoly, poly_gcd, resultant, try_exact_div
from .numerics import univariate_roots

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


def certify_membership_tolerance(report) -> None:
    """Record the membership tolerance on a report with a numeric assertion."""
    if any(not a.exact for a in report.assertions):
        report.certify("numeric_membership_tolerance", NUMERIC_TOL)


def squarefree_decomposition_univariate(f: MPoly, var: str) -> list[tuple[MPoly, int]]:
    """Yun decomposition: f = unit * prod g_i^i with g_i square-free, coprime."""
    if f.degree_in(var) == 0:
        return []
    from .mpoly import exact_div

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


def univariate_root_split(
    f: MPoly, var: str
) -> tuple[list[tuple[Fraction, int]], list[tuple[complex, int]]]:
    """Roots of a univariate polynomial: (rational with exact multiplicity,
    non-rational numeric with multiplicity)."""
    if f.is_zero():
        raise PolynomialError("root split of zero polynomial")
    rational: list[tuple[Fraction, int]] = []
    numeric: list[tuple[complex, int]] = []
    for g, mult in squarefree_decomposition_univariate(f.canonical(), var):
        # peel rational roots exactly; what remains is handled numerically
        work = g
        changed = True
        while changed and work.degree_in(var) > 0:
            changed = False
            approx = univariate_roots([complex(c) for c in work.univariate_coeffs(var)])
            for r in approx:
                if abs(r.imag) > 1e-7 * max(1.0, abs(r)):
                    continue
                for cap in RECONSTRUCT_DENOMS:
                    cand = Fraction(r.real).limit_denominator(cap)
                    if work.evaluate({var: cand}) == 0:
                        rational.append((cand, mult))
                        q = try_exact_div(work, MPoly.variable(var) - MPoly.constant(cand))
                        if q is None:
                            raise PolynomialError("verified root failed to deflate")
                        work = q
                        changed = True
                        break
                if changed:
                    break
        if work.degree_in(var) > 0:
            for r in univariate_roots([complex(c) for c in work.univariate_coeffs(var)]):
                numeric.append((r, mult))
    return rational, numeric


@dataclass
class ZeroSet:
    """Common zeros of a polynomial family in two variables."""

    rational: list[tuple[Fraction, Fraction]] = field(default_factory=list)
    numeric: list[tuple[complex, complex]] = field(default_factory=list)
    elim_x: MPoly | None = None
    elim_y: MPoly | None = None

    def __len__(self) -> int:
        return len(self.rational) + len(self.numeric)


def common_zeros(polys: list[MPoly], rng: random.Random | None = None) -> ZeroSet:
    """Common zero set, expected finite, of polynomials in (x, y)."""
    rng = rng or random.Random(0)
    polys = [p for p in polys if not p.is_zero()]
    if not polys:
        raise InfiniteZeroSetError("all generators are zero")
    if any(p.is_constant() for p in polys):
        return ZeroSet()
    g = polys[0]
    for p in polys[1:]:
        g = poly_gcd(g, p)
        if g.is_constant():
            break
    if not g.is_constant():
        raise InfiniteZeroSetError(f"generators share the factor {g}")

    def eliminant(elim_var: str, keep_var: str) -> MPoly:
        """A nonzero polynomial in keep_var vanishing at every common zero's
        keep_var coordinate: gcd of pure generators, pairwise resultants, and
        (if needed) resultants of random combinations."""
        positive = [p for p in polys if p.degree_in(elim_var) > 0]
        pure = [p for p in polys if p.degree_in(elim_var) == 0]
        candidates = list(pure)
        for i in range(len(positive)):
            for j in range(i + 1, len(positive)):
                r = resultant(positive[i], positive[j], elim_var)
                if not r.is_zero():
                    candidates.append(r)
        if not candidates and len(positive) >= 2:
            for _ in range(40):
                c1 = sum((MPoly.constant(rng.randint(-9, 9)) * p for p in positive), MPoly.zero())
                c2 = sum((MPoly.constant(rng.randint(-9, 9)) * p for p in positive), MPoly.zero())
                if c1.degree_in(elim_var) == 0 or c2.degree_in(elim_var) == 0:
                    continue
                r = resultant(c1, c2, elim_var)
                if not r.is_zero():
                    candidates.append(r)
                    break
        if not candidates:
            raise InfiniteZeroSetError(
                f"could not eliminate {elim_var}: every route keeps a common factor"
            )
        out = candidates[0]
        for c in candidates[1:]:
            if out.is_constant():
                break
            out = poly_gcd(out, c)
        return out.canonical()

    ex = eliminant("y", "x")
    ey = eliminant("x", "y")
    if ex.degree_in("x") == 0 or ey.degree_in("y") == 0:
        # a constant eliminant certifies emptiness in that direction
        return ZeroSet(elim_x=ex, elim_y=ey)
    rx, nx = univariate_root_split(ex, "x")
    ry, ny = univariate_root_split(ey, "y")

    zs = ZeroSet(elim_x=ex, elim_y=ey)
    for xr, _ in rx:
        for yr, _ in ry:
            if all(p.evaluate({"x": xr, "y": yr}) == 0 for p in polys):
                zs.rational.append((xr, yr))
    exact_pts = {(complex(a), complex(b)) for a, b in zs.rational}
    xs = [complex(v) for v, _ in rx] + [v for v, _ in nx]
    ys = [complex(v) for v, _ in ry] + [v for v, _ in ny]
    for xv in xs:
        for yv in ys:
            pt = {"x": xv, "y": yv}
            if any(abs(xv - a) < 1e-7 and abs(yv - b) < 1e-7 for a, b in exact_pts):
                continue
            if all(vanishes_numerically(p, pt) for p in polys):
                if not any(
                    abs(xv - a) < 1e-7 and abs(yv - b) < 1e-7 for a, b in zs.numeric
                ):
                    zs.numeric.append((xv, yv))
    zs.rational.sort(key=lambda t: (t[0], t[1]))
    zs.numeric.sort(key=lambda t: (t[0].real, t[0].imag, t[1].real, t[1].imag))
    return zs
