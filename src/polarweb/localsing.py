"""Local invariants of plane curve germs.

A germ is a curve equation translated so the point of interest is the origin,
held as one term dict {(i, j): c}.  Germs at rational points stay exact with
`int | Fraction` coefficients; germs at irrational points, and the strict
transforms at irrational infinitely-near points, carry `complex` coefficients
scaled to norm 1 and cleaned at every step.  Both coefficient fields go
through the same blow-up recursion (exponent remaps for the charts, one
binomial expansion for the shift to each tangent line), so the integer
invariants (multiplicity sequence, branch count, delta) and the fingerprints
built from them are comparable across modes.

Resolution convention: blow up until every strict transform is smooth,
meets at most one exceptional component, and is transverse to it.  This gives
the cusp the sequence [2, 1, 1] rather than [2]; fingerprints rely on the
convention being fixed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import comb

from .errors import (
    InfiniteZeroSetError,
    InternalInvariantError,
    NumericAbortError,
    PolynomialError,
)
from .mpoly import (
    MPoly,
    _as_rational,
    _rekey,
    _small_integers,
    exact_div,
    gcd_fold,
    poly_gcd,
    proper_shears,
    resultant,
    shear,
    translate,
)
from .numerics import cluster_points, univariate_roots
from .polarops import RadialProduct, curve_component_count, polar_curve
from .reports import CheckReport
from .sampling import GenericSampler, sample_centers
from .solve import common_zeros, univariate_root_split
from .webmodel import Direction, PlaneCurve, singular_set

X = MPoly.variable("x")
Y = MPoly.variable("y")

CLEAN_TOL = 1e-8
CLUSTER_TOL = 1e-5
MAX_BLOWUPS = 50

CPoly = dict  # {(i, j): c}, c an int | Fraction (exact) or a complex (numeric)


# ---------------------------------------------------------------------------
# bivariate term dicts
# ---------------------------------------------------------------------------


def cp_from_mpoly(f: MPoly) -> CPoly:
    return {e: complex(c) for e, c in _rekey(f, ("x", "y")).items()}


def cp_clean(cp: CPoly) -> CPoly:
    """Scale to norm 1 and drop the terms below CLEAN_TOL."""
    norm = max((abs(c) for c in cp.values()), default=0.0)
    if norm == 0.0:
        return {}
    cut = CLEAN_TOL * norm
    return {e: c / norm for e, c in cp.items() if abs(c) > cut}


def cp_translate(cp: CPoly, zx, zy) -> CPoly:
    """f(x + zx, y + zy) by binomial expansion; exact when the coefficients
    and the shift are."""
    out: CPoly = {}
    for (i, j), c in cp.items():
        for a in range(i + 1) if zx else (i,):
            xa = comb(i, a) * zx ** (i - a) if i - a else 1
            for b in range(j + 1) if zy else (j,):
                yb = comb(j, b) * zy ** (j - b) if j - b else 1
                out[(a, b)] = out.get((a, b), 0) + c * xa * yb
    return {e: c for e, c in out.items() if c != 0}


# ---------------------------------------------------------------------------
# germs
# ---------------------------------------------------------------------------


@dataclass
class CurveGerm:
    """A reduced plane curve germ at the origin (exact or numeric)."""

    terms: CPoly
    exact: bool

    @staticmethod
    def at_point(curve: PlaneCurve, point: tuple[Fraction, Fraction]) -> "CurveGerm":
        """The germ of the reduced curve at a rational point: its defining
        equation, already square-free, moved to the origin."""
        g = translate(curve.defining, point).canonical()
        if g.evaluate({v: 0 for v in g.variables}) != 0:
            raise PolynomialError(f"curve does not pass through {point}")
        return CurveGerm(_rekey(g, ("x", "y")), True)

    @staticmethod
    def at_numeric_point(curve: MPoly, point: tuple[complex, complex]) -> "CurveGerm":
        cp = cp_clean(cp_translate(cp_from_mpoly(curve), point[0], point[1]))
        if not cp or (0, 0) in cp:
            raise PolynomialError("curve does not pass through the numeric point (residual constant term)")
        return CurveGerm(cp, False)

    @property
    def poly(self) -> MPoly | None:
        """The exact germ as a polynomial in x and y (None when numeric)."""
        return MPoly._make(("x", "y"), dict(self.terms)) if self.exact else None

    def multiplicity(self) -> int:
        if not self.terms:
            if self.exact:
                raise PolynomialError("zero polynomial has no initial form")
            raise NumericAbortError("numeric germ vanished entirely")
        return min(i + j for i, j in self.terms)


# ---------------------------------------------------------------------------
# intersection multiplicity and Milnor number (exact route)
# ---------------------------------------------------------------------------

def intersection_multiplicity(f: MPoly, g: MPoly) -> int:
    """Local intersection number of two germs at the origin.

    Shear to make both y-proper, then the order at x = 0 of Res_y, guarded by
    the requirement that the origin is the only common zero on the line x = 0.
    """
    if _nonzero_at_origin(f) or _nonzero_at_origin(g):
        return 0
    if f.is_zero() or g.is_zero():
        raise PolynomialError("intersection multiplicity with the zero germ")
    return _meet_at_origin(f, g, "infinite intersection: germs share a component through the origin")


def _meet_at_origin(f: MPoly, g: MPoly, shared: str) -> int:
    """I(f, g) at the origin, for nonzero f and g that both vanish there;
    the error `shared` when they share a component through it.  A common
    factor that misses the origin is a unit of the local ring, which leaves
    I alone, so both germs are divided by it: kept, it would meet x = 0 again
    after every shear.

    The shear (x, y) -> (x + lam*y, y) keeps the origin, and lam serves when
    f and g are y-proper and the origin is their only common zero on x = 0.
    A lam fails only at a zero (lam, 1) of a top form, at most deg f + deg g
    of them (a line component x = lam*y is one), or at the slope x/y of one
    of the at most deg f * deg g other common zeros (Bezout).  So one of the
    first deg f * deg g + deg f + deg g + 1 values serves."""
    common = poly_gcd(f, g)
    if not common.is_constant():
        if not _nonzero_at_origin(common):
            raise PolynomialError(shared)
        f, g = exact_div(f, common), exact_div(g, common)
    m, n = f.total_degree(), g.total_degree()
    for lam in proper_shears([f, g], islice(_small_integers(), m * n + m + n + 1)):
        fs, gs = shear(f, lam), shear(g, lam)
        # y-proper, so neither is zero on x = 0
        f0, g0 = fs.substitute({"x": 0}), gs.substitute({"x": 0})
        u = poly_gcd(f0, g0)
        if len(u.terms) != 1:
            continue  # another common zero sits on x = 0; shear again
        r = resultant(fs, gs, "y")
        if r.is_zero():
            raise InternalInvariantError("resultant vanished for coprime germs")
        # r(0) = Res(fs(0, y), gs(0, y)) = 0, as both vanish at y = 0
        ix = r.variables.index("x")
        return min(e[ix] for e in r.terms)
    raise InternalInvariantError("no shear of coprime germs leaves the origin alone on x = 0")


def milnor_number(germ: CurveGerm) -> int:
    """mu = I(f_x, f_y) at the origin; requires an isolated singularity."""
    if not germ.exact:
        raise PolynomialError("exact Milnor number needs a rational base point")
    f = germ.poly
    fx, fy = f.derivative("x"), f.derivative("y")
    if fx.is_zero() and fy.is_zero():
        raise PolynomialError("zero gradient: germ is not reduced")
    if _nonzero_at_origin(fx) or _nonzero_at_origin(fy):
        return 0
    if fx.is_zero() or fy.is_zero():
        raise PolynomialError("non-isolated singularity (a partial derivative vanishes)")
    return _meet_at_origin(fx, fy, "non-isolated singularity at the origin")


def _nonzero_at_origin(f: MPoly) -> bool:
    return f.evaluate({v: 0 for v in f.variables}) != 0


# ---------------------------------------------------------------------------
# blow-ups and resolution
# ---------------------------------------------------------------------------


def _tangents(germ: CurveGerm, m: int) -> list[tuple[Direction, int]]:
    """The lines of the tangent cone with their multiplicities: the vertical
    line first, then rational slopes ascending, then the others by (re, im).

    The slopes are the roots of init(1, t); the vertical line's multiplicity
    is the drop of its degree below m."""
    init = {j: c for (i, j), c in germ.terms.items() if i + j == m}
    top = max(init)
    lines = [(Direction.exact(0, 1), m - top)] if top < m else []
    if top == 0:
        return lines
    if germ.exact:
        u = MPoly._make(("t",), {(j,): c for j, c in init.items()})
        rational, numeric = univariate_root_split(u, "t")
    else:
        roots = univariate_roots([init.get(j, 0j) for j in range(top + 1)])
        scale = 1.0 + max(abs(r) for r in roots)
        rational, numeric = [], cluster_points(roots, CLUSTER_TOL * scale)
    lines += [(Direction.exact(1, r), k) for r, k in sorted(rational)]
    lines += [
        (Direction.numeric(1.0 + 0j, z), k)
        for z, k in sorted(numeric, key=lambda t: (t[0].real, t[0].imag))
    ]
    return lines


def _chart(terms: CPoly, m: int, vertical: bool) -> CPoly:
    """f(x, x*y) / x^m, or f(x*y, y) / y^m at the vertical line, as a remap
    of exponents."""
    out = {((i, i + j - m) if vertical else (i + j - m, j)): c for (i, j), c in terms.items()}
    if any(min(e) < 0 for e in out):
        raise InternalInvariantError("blow-up division by wrong multiplicity")
    return out


def _children(germ: CurveGerm, m: int, lines: list[tuple[Direction, int]]):
    """The strict-transform germ at each line of the tangent cone.  A child
    is exact when its parent and its line are; otherwise its coefficients
    become complex and are cleaned."""
    chart = None
    for direction, _mult in lines:
        if direction.is_exact and direction.u == 0:
            child = _chart(germ.terms, m, vertical=True)
        else:
            if chart is None:
                chart = _chart(germ.terms, m, vertical=False)
            child = cp_translate(chart, 0, _as_rational(direction.v) if direction.is_exact else _slope(direction))
        exact = germ.exact and direction.is_exact
        if not exact:
            child = cp_clean({e: complex(c) for e, c in child.items()})
        yield direction, CurveGerm(child, exact)


def _slope(d: Direction) -> complex:
    u, v = d.approx
    return v / u


@dataclass
class Resolution:
    mult_sequence: list[int]
    branches: int
    exact_mode: bool
    tangent_pattern: tuple[int, ...]


def resolve_germ(germ: CurveGerm) -> Resolution:
    """Full embedded resolution bookkeeping: multiplicities of the strict
    transforms at all infinitely-near points, and the leaf (branch) count."""
    root_lines = _tangents(germ, germ.multiplicity())
    seq: list[int] = []
    leaves = 0
    all_exact = True

    def recurse(g: CurveGerm, has_x: bool, has_y: bool, depth: int):
        nonlocal leaves, all_exact
        if depth > MAX_BLOWUPS:
            if not g.exact:
                raise NumericAbortError(
                    "numeric germ exceeded the blow-up cap (tangent lines not separated numerically)"
                )
            raise PolynomialError(
                "resolution exceeded the blow-up cap (is the germ reduced?)"
            )
        all_exact = all_exact and g.exact
        m = g.multiplicity()
        if m == 0:
            raise InternalInvariantError("strict transform does not vanish at its point")
        if m == 1 and _is_terminal(g, has_x, has_y):
            leaves += 1
            return
        seq.append(m)
        lines = root_lines if g is germ else _tangents(g, m)
        for direction, child in _children(g, m, lines):
            if direction.is_exact and direction.u != 0:
                new_has_x, new_has_y = True, (direction.v == 0 and has_y)
            elif direction.is_exact:
                new_has_x, new_has_y = has_x, True
            else:
                new_has_x, new_has_y = True, (abs(_slope(direction)) < 1e-9 and has_y)
            recurse(child, new_has_x, new_has_y, depth + 1)

    recurse(germ, False, False, 0)
    return Resolution(seq, leaves, all_exact, tuple(sorted(k for _, k in root_lines)))


def _is_terminal(g: CurveGerm, has_x: bool, has_y: bool) -> bool:
    """Smooth, through at most one exceptional component, and transverse to it."""
    if has_x and has_y:
        return False
    alpha = g.terms.get((1, 0), 0)
    beta = g.terms.get((0, 1), 0)
    tol = 0 if g.exact else 1e-7 * max(abs(alpha), abs(beta))
    if has_x and abs(beta) <= tol:  # tangent line x = 0
        return False
    if has_y and abs(alpha) <= tol:  # tangent line y = 0
        return False
    return True


# ---------------------------------------------------------------------------
# fingerprints
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GermFingerprint:
    m: int
    mu: int
    r: int
    delta: int
    mult_sequence: tuple[int, ...]
    tangent_pattern: tuple[int, ...]
    exact: bool

    def key(self) -> tuple:
        return (self.m, self.mu, self.r, self.delta, self.mult_sequence, self.tangent_pattern)

    def __str__(self):
        return (
            f"(m={self.m}, mu={self.mu}, r={self.r}, delta={self.delta}, "
            f"seq={list(self.mult_sequence)}, cone={list(self.tangent_pattern)})"
        )


def fingerprint(germ: CurveGerm) -> GermFingerprint:
    """Equisingularity invariants of the germ.

    delta always comes from the multiplicity sequence; for exact germs mu is
    computed independently as I(f_x, f_y) and the Milnor relation
    mu = 2*delta - r + 1 is asserted, never assumed.
    """
    res = resolve_germ(germ)
    m = germ.multiplicity()
    delta_seq = sum(mi * (mi - 1) // 2 for mi in res.mult_sequence)
    r = res.branches
    if germ.exact:
        mu = milnor_number(germ)
        if (mu + r - 1) % 2 != 0:
            raise InternalInvariantError(f"mu + r - 1 odd: mu={mu}, r={r}")
        delta_mu = (mu + r - 1) // 2
        if delta_mu != delta_seq:
            raise InternalInvariantError(
                f"delta mismatch: (mu+r-1)/2 = {delta_mu} vs blow-up count {delta_seq}"
            )
    else:
        mu = 2 * delta_seq - r + 1
    if res.mult_sequence and res.mult_sequence[0] != m:
        raise InternalInvariantError("multiplicity sequence does not start at m")
    return GermFingerprint(
        m=m,
        mu=mu,
        r=r,
        delta=delta_seq,
        mult_sequence=tuple(res.mult_sequence),
        tangent_pattern=res.tangent_pattern,
        exact=res.exact_mode and germ.exact,
    )


# ---------------------------------------------------------------------------
# genus
# ---------------------------------------------------------------------------


def homogenize(f: MPoly) -> MPoly:
    """Homogenization with the variable z, of degree the total degree of f."""
    n = f.total_degree()
    z = MPoly.variable("z")
    total = MPoly.zero()
    for e, c in f.terms.items():
        mono = MPoly._make(f.variables, {e: c})
        total = total + mono * z ** (n - sum(e))
    return total


def _delta_sum_at_infinity(F: MPoly) -> int:
    """Sum of delta invariants of the projective curve along the line z = 0."""
    H = homogenize(F)
    total = 0
    # chart y = 1: coordinates (x, z); points [x0 : 1 : 0]
    G = H.substitute({"y": 1})
    line = [g.substitute({"z": 0}) for g in (G, G.derivative("x"), G.derivative("z"))]
    line = [g for g in line if not g.is_zero()]
    rational, numeric = [], []
    if line and all(not g.is_constant() for g in line):
        elim = gcd_fold(line)
        if not elim.is_constant():
            rational, numeric = univariate_root_split(elim, "x")
    for x0, _ in rational:
        if G.evaluate({"x": x0, "z": 0}) == 0:
            germ = CurveGerm.at_point(PlaneCurve(G.substitute({"z": Y})), (x0, Fraction(0)))
            total += fingerprint(germ).delta
    for x0, _ in numeric:
        germ = CurveGerm.at_numeric_point(G.substitute({"z": Y}), (x0, 0j))
        total += fingerprint(germ).delta
    # the point [1 : 0 : 0] lives in the chart x = 1, with (y, z) renamed (x, y)
    K = H.substitute({"x": 1, "y": X, "z": Y})
    if not any(_nonzero_at_origin(g) for g in (K, K.derivative("x"), K.derivative("y"))):
        germ = CurveGerm.at_point(PlaneCurve(K), (Fraction(0), Fraction(0)))
        total += fingerprint(germ).delta
    return total


def genus_of_curve(curve: PlaneCurve, include_infinity: bool = True) -> int:
    """Geometric genus of a reduced irreducible plane curve:
    (n-1)(n-2)/2 minus the sum of local delta invariants."""
    if curve.raw != curve.defining:
        raise PolynomialError("genus_of_curve needs a reduced curve")
    F = curve.defining
    n = F.total_degree()
    if n <= 0:
        raise PolynomialError("genus of an empty curve")
    count = curve_component_count(curve)
    if count != 1:
        raise PolynomialError(f"genus_of_curve: curve has {count} components; not irreducible")
    delta_total = 0
    zs = common_zeros([F, F.derivative("x"), F.derivative("y")])
    for q in zs.rational:
        delta_total += fingerprint(CurveGerm.at_point(curve, q)).delta
    for q in zs.numeric:
        delta_total += fingerprint(CurveGerm.at_numeric_point(F, q)).delta
    if include_infinity:
        delta_total += _delta_sum_at_infinity(F)
    g = (n - 1) * (n - 2) // 2 - delta_total
    if g < 0:
        raise InternalInvariantError(f"negative genus {g}: delta sum {delta_total} too large")
    return g


# ---------------------------------------------------------------------------
# equisingularity of the polar family of a foliation
# ---------------------------------------------------------------------------


def equisingularity_check(fol, seed: int = 0, samples: int = 10) -> CheckReport:
    """Constancy of the embedded-topology fingerprints of the generic polar
    at each of its singular points, across seeded generic centers.

    `fol` is any object with an `as_web` SymWeb attribute (a foliation).
    """
    web = fol.as_web if hasattr(fol, "as_web") else fol
    report = CheckReport("equisingularity", seed=seed, samples_requested=samples)
    report.note(
        "equisingularity proxy: (m, mu, r, delta, multiplicity sequence, tangent cone pattern)"
    )
    sing = singular_set(web)
    if sing.is_empty():
        report.note("foliation has no affine singular points; polars are checked for smoothness")
    reference: list[tuple] | None = None
    ref_degree: int | None = None

    def admissible(p):
        curve = polar_curve(web, p)
        if isinstance(curve, RadialProduct):
            return None, "center of a radial factor"
        if sing.contains(p):
            return None, "center is singular on the foliation"
        F = curve.defining
        if curve.raw != curve.defining:
            return None, "polar not reduced"
        fx, fy = F.derivative("x"), F.derivative("y")
        try:
            zs = common_zeros([F, fx, fy])
        except (InfiniteZeroSetError, NumericAbortError) as e:
            return None, f"singular locus solve failed: {e}"
        table = [fingerprint(CurveGerm.at_point(curve, q)).key() for q in zs.rational]
        for q in zs.numeric:
            try:
                table.append(fingerprint(CurveGerm.at_numeric_point(F, q)).key())
            except (NumericAbortError, PolynomialError) as e:
                return None, f"numeric germ failed: {e}"
        return (curve, zs, sorted(table)), None

    for _, p, (curve, zs, table) in sample_centers(report, GenericSampler(seed), samples, admissible):
        if reference is None:
            reference = table
            ref_degree = curve.degree
            report.note(
                f"reference table at p={p}: "
                + ("; ".join(_fmt_fp(k) for k in table) if table else "no singular points")
            )
        exact_entry = not zs.numeric
        report.add(
            f"fingerprint table at p={p}",
            table == reference and curve.degree == ref_degree,
            f"{len(table)} singular point(s), degree {curve.degree}",
            exact=exact_entry,
        )
    if any(not a.exact for a in report.assertions):
        report.certify("germ_clean_tolerance", CLEAN_TOL)
        report.certify("cluster_tolerance", CLUSTER_TOL)
    return report


def _fmt_fp(key: tuple) -> str:
    m, mu, r, delta, seq, pattern = key
    return f"m={m},mu={mu},r={r},delta={delta},seq={list(seq)},cone={list(pattern)}"


def genus_constancy_check(fol, seed: int = 0, samples: int = 5) -> CheckReport:
    """Genus of the generic polar is the same for every generic center."""
    web = fol.as_web if hasattr(fol, "as_web") else fol
    report = CheckReport("genus-constancy", seed=seed, samples_requested=samples)

    def admissible(p):
        curve = polar_curve(web, p)
        if isinstance(curve, RadialProduct):
            return None, "center of a radial factor"
        if curve.raw != curve.defining:
            return None, "polar not reduced"
        try:
            return genus_of_curve(curve), None
        except (NumericAbortError, PolynomialError) as e:
            return None, f"genus unavailable: {e}"

    genera = [(str(p), g) for _, p, g in sample_centers(report, GenericSampler(seed), samples, admissible)]
    values = {g for _, g in genera}
    report.add(
        "genus constant across centers",
        len(values) == 1 and report.samples_used == samples,
        f"genera: {genera}",
        exact=False,
    )
    report.certify("germ_clean_tolerance", CLEAN_TOL)
    report.certify("cluster_tolerance", CLUSTER_TOL)
    return report
