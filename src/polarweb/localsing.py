"""Local invariants of plane curve germs (E. Casas-Alvero, Singularities of
Plane Curves, LMS LN 276, 2000).

A germ is a curve equation translated so the point of interest is the origin,
held as one term dict {(i, j): c}.  At a rational point the coefficients are
`int | Fraction`; at a group of conjugate algebraic points or irrational
tangent lines (`solve.Group`), polynomials over Q in the coordinates (x, y)
of the group's points.  Every zero test there is a `solve.split`, so a
coefficient that vanishes at only part of the group splits the germ in two
(dynamic evaluation: Della Dora, Dicrescenzo and Duval, EUROCAL '85).  Both
fields take the same blow-ups, and every invariant is exact; approximations
only tell which point a child lies over.

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

from .errors import InfiniteZeroSetError, InternalInvariantError, NumericAbortError, PolynomialError
from .mpoly import (MPoly, _as_rational, _from_int_coeffs, _int_coeffs, _monomial_split, _rekey, _small_integers,
                    exact_div, poly_gcd, resultant, shear, translate)
from .polarops import RadialProduct, curve_component_count, polar_curve
from .reports import CheckReport
from .sampling import GenericSampler, sample_centers
from .solve import AffinePoint, Group, common_zeros, rational_split, split
from .webmodel import PlaneCurve, SymWeb, singular_set
from .zpoly import _common_factor, _int_prem, _mul, _sub

X = MPoly.variable("x")
Y = MPoly.variable("y")
ZERO = MPoly.zero()
MAX_BLOWUPS = 50

CPoly = dict  # {(i, j): c}, c an int | Fraction, or at a group an MPoly in (x, y)


# ---------------------------------------------------------------------------
# germs
# ---------------------------------------------------------------------------


@dataclass
class CurveGerm:
    """A reduced plane curve germ at the origin: at a rational point, or at
    each point of a group of conjugate points (`group`)."""

    terms: CPoly
    group: Group | None = None

    @staticmethod
    def at_point(curve: PlaneCurve, point: AffinePoint) -> "CurveGerm":
        """The germ of the reduced curve at a rational point: its defining
        equation, already square-free, moved to the origin."""
        g = translate(curve.defining, point).canonical()
        if g.evaluate({v: 0 for v in g.variables}) != 0:
            raise PolynomialError(f"curve does not pass through ({point[0]}, {point[1]})")
        return CurveGerm(_rekey(g, ("x", "y")))

    @staticmethod
    def at_group(curve: MPoly, group: Group) -> "CurveGerm":
        """The germ of the curve, reduced at the group's points, at each of
        them: the Taylor coefficients of curve(x + X, y + Y), polynomials in
        the point (x, y)."""
        shifted = curve.substitute({"x": X + MPoly.variable("u"), "y": Y + MPoly.variable("v")})
        rows: dict = {}
        for (i, j, a, b), c in _rekey(shifted, ("u", "v", "x", "y")).items():
            rows.setdefault((i, j), {})[(a, b)] = c
        return CurveGerm({e: MPoly._make(("x", "y"), t) for e, t in rows.items()}, group)

    @property
    def poly(self) -> MPoly:
        return MPoly._make(("x", "y"), dict(self.terms))

    def multiplicity(self) -> int:
        if not self.terms:
            raise PolynomialError("zero polynomial has no initial form")
        return min(i + j for i, j in self.terms)


# ---------------------------------------------------------------------------
# intersection multiplicity and Milnor number (exact route)
# ---------------------------------------------------------------------------

def intersection_multiplicity(f: MPoly, g: MPoly) -> int:
    """Local intersection number of two germs at the origin.

    The order at x = 0 of Res_y, after a shear only when one of the germs
    needs it to have a y-leading coefficient nonzero at x = 0, or to leave
    the origin the only common zero on the line x = 0 (`_meet_at_origin`).
    """
    if _nonzero_at_origin(f) or _nonzero_at_origin(g):
        return 0
    if f.is_zero() or g.is_zero():
        raise PolynomialError("intersection multiplicity with the zero germ")
    return _meet_at_origin(f, g, "infinite intersection: germs share a component through the origin")


def _meet_at_origin(f: MPoly, g: MPoly, shared: str) -> int:
    """I(f, g) at the origin, for nonzero f and g that both vanish there;
    the error `shared` when they share a component through it.

    I is the order at x = 0 of Res_y(f, g) after the first shear
    (x, y) -> (x + lam*y, y), lam = 0, 1, -1, 2, ..., which keeps the origin,
    after which f and g have positive y-degree, one of them, say f, has a
    y-leading coefficient a with a(0) != 0, and gcd(f(0, y), g(0, y)) is a
    power of y (`_meets_x_zero_at_origin_only`).  Then:
    - Res_y(f, g) = a^n * prod g(x, eta_i), n = deg_y g, over the roots
      eta_i of f in y, Puiseux series in x (Poisson);
    - a(0) != 0 makes every eta_i a power series in a root of x, and the
      eta_i(0) are the roots of f(0, y);
    - the eta_i through the origin are the branches of f there, and their
      ord_x g(x, eta_i) sum to I(f, g); every other eta_i(0) is a root of
      f(0, y) that g(0, y) lacks, so g(x, eta_i) is a unit and adds 0.
    The resultant is taken before any gcd.  When it is nonzero, a common
    factor of f and g is free of y, so it divides a and is nonzero at the
    origin: a unit of the local ring, which changes neither I nor the order
    of Res_y.  Only a vanished resultant or a fibre test that fails takes
    gcd(f, g).  A common factor through the origin is the error `shared`;
    one that misses it is a unit, so f and g are divided by it and the
    shears start again, once: kept, one such as 1 + y would meet x = 0
    again after every shear.
    A lam at which the top forms of f and g are nonzero at (lam, 1) passes
    (the y-leading coefficients are then constants).  A lam fails that only
    at a zero (lam, 1) of a top form, at most deg f + deg g of them (a line
    component x = lam*y is one), or at the slope x/y of one of the at most
    deg f * deg g other common zeros (Bezout).  So for coprime f and g one
    of the first deg f * deg g + deg f + deg g + 1 values serves, and most
    germs take lam = 0: no shear, and a resultant in their own y-degree."""
    coprime = False
    while True:
        m, n = f.total_degree(), g.total_degree()
        for lam in islice(_small_integers(), m * n + m + n + 1):
            fs, gs = shear(f, lam), shear(g, lam)
            p, q = fs.degree_in("y"), gs.degree_in("y")
            f0, g0 = _on_x_zero(fs), _on_x_zero(gs)
            if not (p and q) or p != f0.degree_in("y") and q != g0.degree_in("y"):
                continue  # a Puiseux root of each may run off to infinity at x = 0
            r = resultant(fs, gs, "y") if _meets_x_zero_at_origin_only(f0, g0) else None
            if r:
                # r(0) = 0: f(0, y) and g(0, y) both vanish at y = 0
                ix = r.variables.index("x")
                return min(e[ix] for e in r.terms)
            if not coprime:
                common, coprime = poly_gcd(f, g), True
                if not common.is_constant():
                    if not _nonzero_at_origin(common):
                        raise PolynomialError(shared)
                    f, g = exact_div(f, common), exact_div(g, common)
                    break  # shear the coprime cofactors from lam = 0 again
            if r is not None:
                raise InternalInvariantError("resultant vanished for coprime germs")
        else:
            raise InternalInvariantError("no shear of coprime germs leaves the origin alone on x = 0")


def _meets_x_zero_at_origin_only(f0: MPoly, g0: MPoly) -> bool:
    """Whether gcd(f0, g0) is a power of y, for f0 and g0 in y alone, not
    both zero: their int lists without their factors y are coprime."""
    a, b = (_int_coeffs(_monomial_split(h)[1], "y") if h else [] for h in (f0, g0))
    return len(_common_factor(a, b) if a else b) == 1


def _on_x_zero(f: MPoly) -> MPoly:
    """f(0, y), read off the terms of f free of x."""
    return MPoly._make(("y",), {(j,): c for (i, j), c in _rekey(f, ("x", "y")).items() if not i})


def milnor_number(germ: CurveGerm) -> int:
    """mu = I(f_x, f_y) at the origin; requires an isolated singularity."""
    if germ.group is not None:
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


def _tangents(germ: CurveGerm, m: int) -> tuple[list[tuple[Fraction | None, int]], list[tuple[Group, int]]]:
    """The lines (slope, multiplicity) of the tangent cone at a rational
    point: the vertical line (None), with the drop of the degree of
    init(1, t) below m, and the rational slopes; and the others, the roots
    of each Yun factor of init(1, t) left by its rational roots, as a group
    with y = 0."""
    init = {j: c for (i, j), c in germ.terms.items() if i + j == m}
    top = max(init)
    lines = [(None, m - top)] if top < m else []
    if top == 0:
        return lines, []
    rational, rest = rational_split(_int_coeffs(MPoly._make(("t",), {(j,): c for j, c in init.items()}), "t"))
    return lines + rational, [(Group(w, [0], [1], 0), k) for w, k in rest]


def _chart(terms: CPoly, m: int, vertical: bool) -> CPoly:
    """f(x, x*y) / x^m, or f(x*y, y) / y^m at the vertical line, as a remap
    of exponents."""
    out = {((i, i + j - m) if vertical else (i + j - m, j)): c for (i, j), c in terms.items()}
    if any(min(e) < 0 for e in out):
        raise InternalInvariantError("blow-up division by wrong multiplicity")
    return out


def _children(germ: CurveGerm, m: int, lines: list[tuple[Fraction | None, int]]):
    """(slope, multiplicity, strict-transform germ) at each rational line:
    the vertical chart, or chart(x, y + slope) of the other one."""
    chart = _chart(germ.terms, m, vertical=False)
    for slope, k in lines:
        child: CPoly = {} if slope is not None else _chart(germ.terms, m, vertical=True)
        for (i, j), c in chart.items() if slope is not None else ():
            for b in range(j + 1) if slope else (j,):
                child[(i, b)] = child.get((i, b), 0) + c * (comb(j, b) * _as_rational(slope) ** (j - b) if j - b else 1)
        yield slope, k, CurveGerm({e: c for e, c in child.items() if c != 0})


def _shift(chart: CPoly, slope: int | None) -> CPoly:
    """chart(x, y + s), s the coordinate `slope` (0: x, 1: y) of a group's
    points, or None for no shift; the chart's coefficients are numbers or
    ascending lists in x, the result's polynomials in the coordinates."""
    rows: dict = {}
    for (a, j), c in chart.items():
        for i, ci in enumerate(c if isinstance(c, list) else [c]):
            for b in (range(j + 1) if slope is not None else (j,)) if ci else ():
                row = rows.setdefault((a, b), {})
                e = (i, j - b) if slope else (i + j - b, 0)
                row[e] = row.get(e, 0) + ci * comb(j, b)
    polys = {ab: MPoly._make(("x", "y"), {e: _as_rational(c) for e, c in row.items() if c}) for ab, row in rows.items()}
    return {ab: p for ab, p in polys.items() if not p.is_zero()}


def _rem(a: list, w: list[int]) -> list:
    """a mod w over Q, for ascending lists."""
    return [Fraction(c, w[-1] ** max(0, len(a) - len(w) + 1)) for c in _int_prem(a, w)] if a else []


def _in_generator(group: Group, polys: list[MPoly]) -> list[list]:
    """The polys in (x, y), read at the points of the group, as ascending
    lists in its generator t of degree below deg w: y = -num/den and
    x = t + lam*y mod w, with the inverse of den, which no root of w zeroes,
    by extended Euclid over Q."""
    r0, r1, s0, s1 = group.w, _rem(group.den, group.w), [], [1]
    while len(r1) > 1:
        q, r = [], r0
        while len(r) >= len(r1):
            shift, c = [0] * (len(r) - len(r1)), Fraction(r[-1]) / r1[-1]
            q, r = _sub(q, shift + [-c]), _sub(r, shift + [c * v for v in r1])
        r0, r1, s0, s1 = r1, r, s1, _sub(s0, _mul(q, s1))
    y = _rem(_mul([Fraction(-c) / r1[0] for c in group.num], s1), group.w)
    powers = [[[1]], [[1]]]
    for base, row in zip((_sub([0, 1], [-group.lam * c for c in y]), y), powers):
        for _ in range(max(p.total_degree() for p in polys)):
            row.append(_rem(_mul(row[-1], base), group.w))
    out = []
    for p in polys:
        acc: list = []
        for (a, b), coeff in _rekey(p, ("x", "y")).items():
            acc = _sub(acc, [-coeff * v for v in _mul(powers[0][a], powers[1][b])])
        out.append(_rem(acc, group.w))
    return out


@dataclass(frozen=True)
class GermFingerprint:
    """The resolution tree of a germ, flattened: the multiplicities of the
    strict transforms at its infinitely near points in depth-first order,
    with the subtrees at each point in the order of their own sequences, so
    the sequence does not depend on coordinates; the leaf (branch) count r,
    delta = sum m_i(m_i - 1)/2, mu = 2*delta - r + 1, and the multiplicities
    of the lines of the tangent cone."""

    m: int
    mu: int
    r: int
    delta: int
    mult_sequence: tuple[int, ...]
    tangent_pattern: tuple[int, ...]

    def key(self) -> tuple:
        return (self.m, self.mu, self.r, self.delta, self.mult_sequence, self.tangent_pattern)

    def __str__(self):
        return (
            f"(m={self.m}, mu={self.mu}, r={self.r}, delta={self.delta}, "
            f"seq={list(self.mult_sequence)}, cone={list(self.tangent_pattern)})"
        )


SMOOTH = GermFingerprint(1, 0, 1, 0, (), (1,))
CAP = "resolution exceeded the blow-up cap (is the germ reduced?)"


def _assemble(m: int, lines: list[tuple]) -> GermFingerprint:
    """The fingerprint at a point of multiplicity m from its lines
    (multiplicity, fingerprint or None when terminal): m, then the
    children's sequences in ascending order."""
    seq = sum(sorted(fp.mult_sequence for _, fp in lines if fp), (m,))
    r = sum(fp.r if fp else 1 for _, fp in lines)
    delta = sum(mi * (mi - 1) // 2 for mi in seq)
    return GermFingerprint(m, 2 * delta - r + 1, r, delta, seq, tuple(sorted(k for k, _ in lines)))


def resolve_germ(germ: CurveGerm) -> GermFingerprint:
    """The fingerprint of a germ at a rational point by its embedded
    resolution, with mu = 2*delta - r + 1 read from the tree."""
    return _resolve_at(germ, False, False, 0) or SMOOTH


def _resolve_at(g: CurveGerm, has_x: bool, has_y: bool, depth: int) -> GermFingerprint | None:
    """`resolve_germ` below the root, None at a terminal germ: the children
    on the rational lines, then at the points of each group of irrational
    slopes (`_resolve_group`)."""
    if depth > MAX_BLOWUPS:
        raise PolynomialError(CAP)
    m = g.multiplicity()
    if m == 0:
        raise InternalInvariantError("strict transform does not vanish at its point")
    # terminal: smooth, through at most one exceptional component, and
    # transverse to it (x = 0 meets it where y has a term, y = 0 where x has)
    if m == 1 and not (has_x and has_y) and (g.terms.get((0, 1)) or not has_x) and (g.terms.get((1, 0)) or not has_y):
        return None
    lines, groups = _tangents(g, m)
    entries = [(k, _resolve_at(child, has_x or s is not None, s is None or (s == 0 and has_y), depth + 1))
               for s, k, child in _children(g, m, lines)]
    shifted = _shift(_chart(g.terms, m, vertical=False), 0) if any(k > 1 for _, k in groups) else {}
    for group, k in groups:
        # an irrational slope is not 0; at a simple line the strict transform
        # is terminal, as its coefficient of y is init'(1, s) != 0
        for part, records in _resolve_group(group, shifted, True, False, depth + 1) if k > 1 else [(group, None)]:
            entries += [(k, fp) for fp in records or [None] * part.size]
    return _assemble(m, entries)


def _resolve_group(group: Group, terms: CPoly, has_x: bool, has_y: bool, depth: int):
    """The fingerprint at each point of a germ at a group: (part, records)
    for parts that partition the group, records a `GermFingerprint` for each
    of part.points, or None where all are terminal.  The group is split by the
    coefficients of order m = 0, 1, ..., the part of order m by the terminal
    test (m = 1) and by the coefficients of order m from the top one down."""
    if depth > MAX_BLOWUPS:
        raise PolynomialError(CAP)
    out, rest = [], group
    for m in range(max(map(sum, terms), default=-1) + 1):
        if not rest.size:
            break
        rest, part = split(rest, [c for e, c in terms.items() if sum(e) == m])
        if part.size and m == 0:
            raise InternalInvariantError("strict transform does not vanish at its point")
        if m == 1 and not (has_x and has_y):
            # a constant vanishes nowhere
            tangent = terms.get((0, 1) if has_x else (1, 0), ZERO) if has_x or has_y else MPoly.constant(1)
            part, smooth = split(part, [tangent])
            out += [(smooth, None)] if smooth.size else []
        for top in range(m, -1, -1):
            if not part.size:
                break
            part, at = split(part, [terms.get((m - top, top), ZERO)])
            out += [(at, _blow_up(at, terms, m, top, has_x, has_y, depth))] if at.size else []
    if rest.size:
        raise InternalInvariantError("a germ vanishes identically at a point of its group")
    return out


def _blow_up(part: Group, terms: CPoly, m: int, top: int, has_x: bool, has_y: bool,
             depth: int) -> list[GermFingerprint]:
    """The fingerprint at each point of a part of order m of a group germ,
    with the vertical line of multiplicity m - top, in the part's generator
    t (`_in_generator`): the vertical strict transform on (t, 0), the others
    on the zeros (t, s) of w and init (`common_zeros`), split by the
    s-derivatives of init.  A child goes to the point nearest its t, whose
    lines must have multiplicities summing to m."""
    c = {e: v for e, v in zip(terms, _in_generator(part, list(terms.values()))) if v}
    lines = []  # (t, multiplicity, fingerprint or None)

    def add(group: Group, child: CPoly, k: int, flags: tuple[bool, bool]):
        for sub, records in _resolve_group(group, child, *flags, depth + 1):
            lines.extend((q[0], k, fp) for q, fp in zip(sub.points, records or [None] * sub.size))

    if top < m:
        add(Group(part.w, [0], [1], 0, part.ts), _shift(_chart(c, m, vertical=True), None), m - top, (has_x, True))
    init = MPoly._make(("x", "y"), {(i, j): _as_rational(ci) for j in range(top + 1)
                                    for i, ci in enumerate(c.get((m - j, j), [])) if ci})
    child = _shift(_chart(c, m, vertical=False), 1) if top else {}
    for group in common_zeros([_from_int_coeffs("x", part.w), init]).groups if top else []:
        d = init
        for k in range(1, top + 1):
            d = d.derivative("y")
            group, simple = split(group, [d])
            for flat, sub in zip((True, False), split(simple, [Y])) if has_y else [(False, simple)]:
                add(sub, child, k, (True, flat))
    per: list[list] = [[] for _ in part.ts]
    for t, *line in lines:
        per[min(range(len(part.ts)), key=lambda i: abs(part.ts[i] - t))].append(line)
    if any(sum(k for k, _ in point_lines) != m for point_lines in per):
        raise NumericAbortError("approximations do not tell the conjugate points of a germ apart")
    return [_assemble(m, point_lines) for point_lines in per]


# ---------------------------------------------------------------------------
# fingerprints
# ---------------------------------------------------------------------------


def fingerprint(germ: CurveGerm) -> GermFingerprint:
    """Equisingularity invariants of a germ at a rational point.

    delta comes from the multiplicity sequence; mu is computed independently
    as I(f_x, f_y) and the Milnor relation mu = 2*delta - r + 1 is asserted,
    never assumed.
    """
    fp, mu = resolve_germ(germ), milnor_number(germ)
    if mu != fp.mu:
        raise InternalInvariantError(f"Milnor relation fails: mu = {mu}, 2*delta - r + 1 = {fp.mu} by blow-ups")
    if fp.m != germ.multiplicity():
        raise InternalInvariantError("multiplicity sequence does not start at m")
    return fp


def fingerprints(germ: CurveGerm) -> list[GermFingerprint]:
    """The fingerprint at each point of the germ's group, part by part of
    the group's splits, or the one `fingerprint` at a rational point."""
    if germ.group is None:
        return [fingerprint(germ)]
    return [fp for part, records in _resolve_group(germ.group, germ.terms, False, False, 0)
            for fp in records or [SMOOTH] * part.size]


# ---------------------------------------------------------------------------
# genus
# ---------------------------------------------------------------------------


def homogenize(f: MPoly) -> MPoly:
    """Homogenization with the variable z, of degree the total degree of f
    (in x and y)."""
    n = f.total_degree()
    return MPoly._make(f.variables + ("z",), {e + (n - sum(e),): c for e, c in f.terms.items()})


def _delta_sum_at_infinity(F: MPoly) -> int:
    """Sum of delta invariants of the projective curve along the line z = 0.
    Its singular points [x0 : 1 : 0] are the common zeros of G, G_x, G_y and
    y in the chart y = 1, with z renamed y, and [1 : 0 : 0] is the origin of
    the chart x = 1, with (y, z) renamed (x, y)."""
    H = homogenize(F)
    G = H.substitute({"y": 1, "z": Y})
    germs = _germs(PlaneCurve(G), common_zeros([G, G.derivative("x"), G.derivative("y"), Y]))
    K = H.substitute({"x": 1, "y": X, "z": Y})
    if not any(_nonzero_at_origin(g) for g in (K, K.derivative("x"), K.derivative("y"))):
        germs.append(CurveGerm.at_point(PlaneCurve(K), AffinePoint.of(0, 0)))
    return sum(fp.delta for germ in germs for fp in fingerprints(germ))


def _germs(curve: PlaneCurve, zs) -> list[CurveGerm]:
    """The germ of the curve at each rational point and each group of zs."""
    return ([CurveGerm.at_point(curve, q) for q in zs.rational]
            + [CurveGerm.at_group(curve.defining, group) for group in zs.groups])


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
    zs = common_zeros([F, F.derivative("x"), F.derivative("y")])
    delta_total = sum(fp.delta for germ in _germs(curve, zs) for fp in fingerprints(germ))
    if include_infinity:
        delta_total += _delta_sum_at_infinity(F)
    g = (n - 1) * (n - 2) // 2 - delta_total
    if g < 0:
        raise InternalInvariantError(f"negative genus {g}: delta sum {delta_total} too large")
    return g


# ---------------------------------------------------------------------------
# equisingularity of the polar family of a foliation
# ---------------------------------------------------------------------------


def equisingularity_check(web: SymWeb, seed: int = 0, samples: int = 10) -> CheckReport:
    """Constancy of the embedded-topology fingerprints of the generic polar
    of a foliation's 1-web at each of its singular points, across seeded
    generic centers."""
    report = CheckReport("equisingularity", seed=seed, samples_requested=samples)
    report.note(
        "equisingularity proxy: (m, mu, r, delta, multiplicity sequence, tangent cone pattern)"
    )
    sing = singular_set(web)
    if sing.is_empty():
        report.note("foliation has no affine singular points; polars are checked for smoothness")
    reference: list[GermFingerprint] | None = None
    ref_degree: int | None = None

    def admissible(p):
        curve = polar_curve(web, p)
        if isinstance(curve, RadialProduct):
            return None, "center of a radial factor"
        if p in sing.rational:
            return None, "center is singular on the foliation"
        F = curve.defining
        if curve.raw != curve.defining:
            return None, "polar not reduced"
        try:
            zs = common_zeros([F, F.derivative("x"), F.derivative("y")])
        except (InfiniteZeroSetError, NumericAbortError) as e:
            return None, f"singular locus solve failed: {e}"
        table = sorted((fp for germ in _germs(curve, zs) for fp in fingerprints(germ)), key=GermFingerprint.key)
        return (curve, table), None

    for _, p, (curve, table) in sample_centers(report, GenericSampler(seed), samples, admissible):
        if reference is None:
            reference = table
            ref_degree = curve.degree
            report.note(
                f"reference table at p={p}: "
                + ("; ".join(map(str, table)) if table else "no singular points")
            )
        report.add(
            f"fingerprint table at p={p}",
            table == reference and curve.degree == ref_degree,
            f"{len(table)} singular point(s), degree {curve.degree}",
        )
    return report


def genus_constancy_check(web: SymWeb, seed: int = 0, samples: int = 5) -> CheckReport:
    """Genus of the generic polar of a foliation's 1-web is the same for
    every generic center."""
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
    report.add(
        "genus constant across centers",
        len({g for _, g in genera}) == 1 and report.samples_used == samples,
        f"genera: {genera}",
    )
    return report
