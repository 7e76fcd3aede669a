"""Complex root finding, root tracking along loops, and monodromy orbits.

All floating point work in the package funnels through here.  Degrees are
desk-scale (about a dozen), so plain double precision with generous guards is
enough; anything the guards cannot certify aborts loudly instead of degrading.

Polynomials are coefficient lists in ascending order: p(t) = sum c[k] t^k.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .errors import NumericAbortError
from .zpoly import _derivative, _horner

RESIDUAL_TOL = 1e-9
LC_UNDERFLOW = 1e-12
MAX_ABERTH_ITER = 500
# a tracking step is accepted only if no root moved more than sep/STEP_GUARD
STEP_GUARD = 3.0


def poly_norm(coeffs: Sequence[complex]) -> float:
    return max((abs(c) for c in coeffs), default=0.0)


def relative_residual(coeffs: Sequence[complex], z: complex) -> float:
    """|p(z)| over sum |c_i| max(1, |z|)^i: a backward-error residual that is
    meaningful both for roots near zero and for large roots."""
    num = abs(_horner(coeffs, z))
    den = 0.0
    zp = 1.0
    az = max(1.0, abs(z))
    for c in coeffs:
        den += abs(c) * zp
        zp *= az
    return num / max(den, 1e-300)


def _balance_shift(coeffs: list[int]) -> int:
    """k for the balancing t -> 2^k·t of an int polynomial with a nonzero
    top: 0 while Fujiwara's bound B on the modulus of its roots lies in
    [2^-256, 2^256], else floor(log2 B), so that the balanced roots have
    modulus below 2.  B = 2·max(|c_(n-i)/c_n|^(1/i), |c_0/(2c_n)|^(1/n))
    over the nonzero lower coefficients (M. Fujiwara, Tohoku Math. J. 10,
    1916), read in logarithms, as the ints may lie past the float range.  A
    bound outside the normal float range is a NumericAbortError."""
    n = len(coeffs) - 1
    top = math.log2(abs(coeffs[n]))
    logs = [(math.log2(abs(c)) - top - (i == 0)) / (n - i) for i, c in enumerate(coeffs[:n]) if c]
    if not logs:
        return 0
    bound = 1 + max(logs)
    if -256 <= bound <= 256:
        return 0
    if not -1022 <= bound <= 1022:
        raise NumericAbortError("univariate_roots: coefficients span more than the float range")
    return math.floor(bound)


def univariate_roots(coeffs: Sequence[complex]) -> list[complex]:
    """All roots with multiplicity by simultaneous Aberth-Ehrlich iteration.

    Requires degree >= 1 and, unless every coefficient is an int, a leading
    coefficient above the underflow guard: a float top that small may be
    the rounding of a zero one, while a nonzero int top is exact.  Int
    coefficients whose roots are tiny or huge are first balanced by
    t -> 2^k·t (`_balance_shift`), exactly on the ints, and the roots are
    scaled back at the end; k is 0, and nothing changes, for roots of
    moderate size.  Int coefficients of more than 1000 bits are then
    divided by one power of two, as in `solve.Group.points`; a nonzero one
    that then underflows is a NumericAbortError.  Every returned root r
    satisfies |p(r)| / max|c| < RESIDUAL_TOL for the balanced polynomial p
    at r / 2^k.
    """
    exact = all(type(c) is int for c in coeffs)
    shift = 0
    if exact:
        coeffs = list(coeffs)
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        shift = _balance_shift(coeffs) if len(coeffs) > 1 else 0
        if shift:
            n = len(coeffs) - 1
            coeffs = [c << (shift * i if shift > 0 else -shift * (n - i)) for i, c in enumerate(coeffs)]
    top = max((abs(c).bit_length() for c in coeffs), default=0) if exact else 0
    if top > 1000:
        # true division keeps the roots; a right shift would zero small ones
        scaled = [c / 2 ** (top - 1000) for c in coeffs]
        if any(c and not s for c, s in zip(coeffs, scaled)):
            raise NumericAbortError("univariate_roots: coefficients span more than the float range")
        coeffs = scaled
    coeffs = [complex(c) for c in coeffs]
    while coeffs and abs(coeffs[-1]) == 0.0:
        coeffs.pop()
    n = len(coeffs) - 1
    if n < 1:
        raise NumericAbortError("univariate_roots: degree < 1")
    scale = poly_norm(coeffs)
    if not exact and abs(coeffs[-1]) <= LC_UNDERFLOW * scale:
        raise NumericAbortError("univariate_roots: leading coefficient underflow")
    monic = [c / coeffs[-1] for c in coeffs]
    deriv = _derivative(monic)
    radius = 1.0 + max(abs(c) for c in monic[:-1]) if n else 1.0
    roots = [
        radius * cmath.exp(2j * cmath.pi * (k / n) + 0.4j) for k in range(n)
    ]
    for _ in range(MAX_ABERTH_ITER):
        converged = True
        for i in range(n):
            z = roots[i]
            pv = _horner(monic, z)
            dv = _horner(deriv, z)
            if pv == 0:
                continue
            ratio = pv / dv if dv != 0 else pv / (dv + 1e-30)
            s = 0j
            for j in range(n):
                if j != i:
                    dzij = z - roots[j]
                    if dzij == 0:
                        dzij = 1e-30
                    s += 1.0 / dzij
            denom = 1.0 - ratio * s
            if denom == 0:
                denom = 1e-30
            step = ratio / denom
            roots[i] = z - step
            if abs(step) > 1e-13 * max(1.0, abs(z)):
                converged = False
        if converged:
            break
    else:
        if any(relative_residual(monic, r) >= RESIDUAL_TOL for r in roots):
            raise NumericAbortError("univariate_roots: no convergence after iteration cap")
    bad = [r for r in roots if relative_residual(monic, r) >= RESIDUAL_TOL]
    if bad:
        raise NumericAbortError(
            f"univariate_roots: relative residual above {RESIDUAL_TOL} at {bad[0]:.6g}"
        )
    if shift:
        roots = [complex(math.ldexp(r.real, shift), math.ldexp(r.imag, shift)) for r in roots]
    return roots


def newton_polish(coeffs: Sequence[complex], z: complex, steps: int = 40) -> complex:
    deriv = _derivative(list(coeffs))
    for _ in range(steps):
        pv = _horner(coeffs, z)
        if pv == 0:
            return z
        dv = _horner(deriv, z)
        if dv == 0:
            break
        dz = pv / dv
        z = z - dz
        if abs(dz) < 1e-15 * max(1.0, abs(z)):
            break
    return z


def min_separation(points: Sequence[complex]) -> float:
    m = float("inf")
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            m = min(m, abs(points[i] - points[j]))
    return m


@dataclass
class TrackCertificate:
    """Numeric evidence accumulated while tracking."""

    min_separation: float = float("inf")
    max_step: float = 0.0
    max_residual: float = 0.0

    def merge(self, other: "TrackCertificate") -> None:
        self.min_separation = min(self.min_separation, other.min_separation)
        self.max_step = max(self.max_step, other.max_step)
        self.max_residual = max(self.max_residual, other.max_residual)


def track_roots(
    family: Callable[[complex], Sequence[complex]],
    path: Sequence[complex],
    start_roots: Sequence[complex],
    certificate: TrackCertificate | None = None,
) -> list[complex]:
    """Continue the roots of family(s) along the piecewise-linear path.

    family(s) returns ascending coefficients of a fixed-degree polynomial whose
    roots stay simple along the path.  The returned list is index-matched to
    start_roots.  Aborts when a corrector step would move a root more than a
    third of the current minimum pairwise separation.
    """
    roots = [complex(r) for r in start_roots]
    cert = certificate if certificate is not None else TrackCertificate()
    for seg in range(len(path) - 1):
        a, b = complex(path[seg]), complex(path[seg + 1])
        pos = 0.0
        step = 1.0
        while pos < 1.0:
            step = min(step, 1.0 - pos)
            while True:
                target = a + (b - a) * (pos + step)
                coeffs = [complex(c) for c in family(target)]
                sep = min_separation(roots)
                cert.min_separation = min(cert.min_separation, sep)
                guard = sep / STEP_GUARD
                new_roots = [newton_polish(coeffs, z) for z in roots]
                moves = [abs(nz - z) for nz, z in zip(new_roots, roots)]
                residuals = [relative_residual(coeffs, z) for z in new_roots]
                ok = (
                    max(moves) < guard
                    and max(residuals) < RESIDUAL_TOL
                    and min_separation(new_roots) > 1e-12
                )
                if ok:
                    cert.max_step = max(cert.max_step, max(moves) / sep if sep > 0 else 0.0)
                    cert.max_residual = max(cert.max_residual, max(residuals))
                    roots = new_roots
                    pos += step
                    step *= 1.7
                    break
                step *= 0.5
                if step < 1e-9:
                    raise NumericAbortError(
                        "track_roots: loop too close to a branch point "
                        f"(segment {seg}, position {pos:.6f})"
                    )
            if pos >= 1.0:
                break
    return roots


def match_permutation(start: Sequence[complex], end: Sequence[complex]) -> list[int]:
    """Permutation sigma with end[i] ~ start[sigma[i]]; must be a clean bijection."""
    sep = min_separation(start)
    n = len(start)
    sigma = []
    for i in range(n):
        dists = sorted((abs(end[i] - start[j]), j) for j in range(n))
        best, j = dists[0]
        if best > sep / STEP_GUARD:
            raise NumericAbortError("match_permutation: endpoint far from every start root")
        sigma.append(j)
    if sorted(sigma) != list(range(n)):
        raise NumericAbortError("match_permutation: matching is not a bijection")
    return sigma


@dataclass
class MonodromyResult:
    """Orbit decomposition of the sheets of a branched cover."""

    degree: int
    loops_traced: int
    partition: tuple[tuple[int, ...], ...]
    permutations: list[list[int]] = field(repr=False, default_factory=list)
    min_separation: float = float("inf")
    max_step: float = 0.0

    @property
    def orbit_count(self) -> int:
        return len(self.partition)


def _circle_loop(base: complex, center: complex, radius: float, segments: int) -> list[complex]:
    direction = (base - center) / abs(base - center)
    start = center + radius * direction
    pts = [base, start]
    for k in range(1, segments + 1):
        ang = 2.0 * cmath.pi * k / segments
        pts.append(center + radius * direction * cmath.exp(1j * ang))
    pts.append(base)
    return pts


def monodromy_partition(
    cover: Callable[[complex], Sequence[complex]],
    base_point: complex,
    branch_points: Sequence[complex],
    segments: int = 16,
    retries: int = 6,
) -> MonodromyResult:
    """Trace one simple loop per branch point and compose sheet permutations.

    Branch points are looped in ascending (re, im) order, so the composed group
    action (hence the orbit partition) is deterministic.  The base point must
    keep a distance of at least 1e-3 times the branch-point spread from every
    branch point.
    """
    base = complex(base_point)
    bps = sorted((complex(b) for b in branch_points), key=lambda z: (z.real, z.imag))
    start_roots = univariate_roots(cover(base))
    k = len(start_roots)
    scale = max([abs(b - base) for b in bps], default=1.0)
    spread = max(
        [abs(b1 - b2) for i, b1 in enumerate(bps) for b2 in bps[i + 1 :]] or [scale]
    )
    for b in bps:
        if abs(b - base) <= 1e-3 * spread:
            raise NumericAbortError("monodromy: base point too close to a branch point")
    sep0 = min_separation(start_roots)
    if k > 1 and sep0 < 1e-8 * max(1.0, max(abs(r) for r in start_roots)):
        raise NumericAbortError("monodromy: roots not distinct at base point")
    cert = TrackCertificate()
    perms: list[list[int]] = []
    for b in bps:
        others = [abs(b - o) for o in bps if o != b] + [abs(b - base)]
        radius = 0.5 * min(others)
        attempt = 0
        while True:
            try:
                loop = _circle_loop(base, b, radius, segments)
                end = track_roots(cover, loop, start_roots, cert)
                perms.append(match_permutation(start_roots, end))
                break
            except NumericAbortError:
                attempt += 1
                radius *= 0.5
                if attempt >= retries:
                    raise
    parent = list(range(k))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj

    for sigma in perms:
        for i, j in enumerate(sigma):
            union(i, j)
    orbits: dict[int, list[int]] = {}
    for i in range(k):
        orbits.setdefault(find(i), []).append(i)
    partition = tuple(sorted(tuple(sorted(o)) for o in orbits.values()))
    return MonodromyResult(
        degree=k,
        loops_traced=len(perms),
        partition=partition,
        permutations=perms,
        min_separation=cert.min_separation,
        max_step=cert.max_step,
    )
