"""Polar curves and the polar family of a plane web.

The polar with center p = (a, b) is the substitution dx -> x - a, dy -> y - b
in the symmetric form: the locus of points whose leaf direction points at the
center.  This module houses the degree count d + k, the polar-equality
criterion, the two-dimensionality and degree k^2 of the family, base points,
the singular-locus containment of the generic polar, the k-branch structure at
the center, and the irreducibility verdict, from exact component counts by
the Gao-Ruppert kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, product

from .errors import DegenerateSampleError, InternalInvariantError, PolynomialError, WebValidationError
from .mpoly import (
    MPoly,
    _content_in,
    _rekey,
    _small_integers,
    exact_div,
    jet_decompose,
    poly_gcd,
    proper_shears,
    shear,
    squarefree_part,
    try_exact_div,
)
from .reports import CheckReport
from .sampling import GenericSampler, sample_centers
from .solve import (
    certify_membership_tolerance,
    common_zeros,
    vanishes_numerically,
)
from .webmodel import (
    DX,
    DY,
    X,
    Y,
    AffinePoint,
    Direction,
    PlaneCurve,
    SymWeb,
    binary_form_factors,
    form_at,
    is_smooth_point,
    on_discriminant,
    singular_set,
    tangent_directions,
    web_degree,
)
from .zpoly import _independent_mod_p, _integer_rank

A_VAR = MPoly.variable("a")
B_VAR = MPoly.variable("b")


def radial_form(p: AffinePoint) -> MPoly:
    return (X - MPoly.constant(p.a)) * DY - (Y - MPoly.constant(p.b)) * DX


@dataclass
class RadialProduct:
    """Structured outcome of an identically-zero polar: the web splits off the
    radial foliation centered at the requested point."""

    center: AffinePoint
    cofactor_form: MPoly  # the (k-1)-form W', a constant when k = 1

    def cofactor_web(self) -> SymWeb | None:
        if self.cofactor_form.is_constant():
            return None
        return SymWeb(self.cofactor_form, saturate=True)


def _substitute_center(form: MPoly, a, b) -> MPoly:
    """dx -> x - a, dy -> y - b; the center is rational or the symbols (a, b)."""
    subs = {}
    if "dx" in form.variables:
        subs["dx"] = X - a
    if "dy" in form.variables:
        subs["dy"] = Y - b
    return form.substitute(subs) if subs else form


def polar_curve(web: SymWeb, p: AffinePoint) -> PlaneCurve | RadialProduct:
    """The polar of the web with center p, as a plane curve of degree d + k."""
    raw = _substitute_center(web.form, p.a, p.b)
    if raw.is_zero():
        return RadialProduct(p, exact_div(web.form, radial_form(p)))
    return PlaneCurve(raw)


@dataclass
class PolarFamily:
    """The polar with a symbolic center: one polynomial in (a, b, x, y)."""

    parametric: MPoly

    def at(self, p: AffinePoint) -> PlaneCurve | RadialProduct:
        raw = self.parametric
        subs = {v: MPoly.constant(val) for v, val in (("a", p.a), ("b", p.b)) if v in raw.variables}
        raw = raw.substitute(subs) if subs else raw
        if raw.is_zero():
            return RadialProduct(p, MPoly.zero())
        return PlaneCurve(raw)

    def center_coefficients(self) -> list[MPoly]:
        """Coefficients of the parametric polar with respect to monomials in
        (a, b), including the center-free part; polynomials in (x, y)."""
        groups: dict[tuple[int, int], dict] = {}
        poly = self.parametric
        ia = poly.variables.index("a") if "a" in poly.variables else None
        ib = poly.variables.index("b") if "b" in poly.variables else None
        keep = [i for i, v in enumerate(poly.variables) if v not in ("a", "b")]
        names = tuple(poly.variables[i] for i in keep)
        for e, c in poly.terms.items():
            key = (e[ia] if ia is not None else 0, e[ib] if ib is not None else 0)
            rest = tuple(e[i] for i in keep)
            groups.setdefault(key, {})[rest] = c
        return [MPoly._make(names, terms) for key, terms in sorted(groups.items())]


def polar_family(web: SymWeb) -> PolarFamily:
    return PolarFamily(_substitute_center(web.form, A_VAR, B_VAR).canonical())


# ---------------------------------------------------------------------------
# degree of the polar
# ---------------------------------------------------------------------------


def polar_degree_check(web: SymWeb, seed: int = 0, samples: int = 20) -> CheckReport:
    """deg P_p = d + k at seeded generic centers (raw degree, multiplicities kept)."""
    report = CheckReport("polar-degree", seed=seed, samples_requested=samples)
    d = web_degree(web)
    k = web.k
    report.note(f"web degree d={d}, k={k}, expected polar degree {d + k}")

    def admissible(p):
        curve = polar_curve(web, p)
        if isinstance(curve, RadialProduct):
            return None, "polar degenerates: center of a radial factor"
        return curve, None

    for _, p, curve in sample_centers(report, GenericSampler(seed), samples, admissible):
        got = curve.raw_degree
        report.add(
            f"deg P_p at p={p}",
            got == d + k,
            f"degree {got}",
        )
    return report


# ---------------------------------------------------------------------------
# polar equality criterion
# ---------------------------------------------------------------------------


@dataclass
class EqualityVerdict:
    identical: bool
    polars_equal: bool
    divisible: bool
    routes_agree: bool
    quotient_form: MPoly | None = None
    scale: Fraction | None = None


def polar_equality_criterion(w1: SymWeb, w2: SymWeb, p: AffinePoint) -> EqualityVerdict:
    """P_p(W1) = P_p(W2) iff (a scaling of) form2 - form1 is divisible by the
    radial form centered at p; both routes are computed and compared."""
    if w1.k != w2.k:
        raise WebValidationError("polar equality criterion needs webs of the same k")
    if w1.form == w2.form:
        return EqualityVerdict(True, True, True, True, None, Fraction(1))
    sub1 = _substitute_center(w1.form, p.a, p.b)
    sub2 = _substitute_center(w2.form, p.a, p.b)
    scale = _proportionality(sub1, sub2)
    polars_equal = scale is not None
    lam = scale if scale is not None else Fraction(1)
    diff = w2.form - w1.form * lam
    quotient = try_exact_div(diff, radial_form(p)) if not diff.is_zero() else None
    divisible = diff.is_zero() or quotient is not None
    return EqualityVerdict(
        identical=False,
        polars_equal=polars_equal,
        divisible=divisible,
        routes_agree=(polars_equal == divisible),
        quotient_form=quotient,
        scale=scale,
    )


def _proportionality(f: MPoly, g: MPoly) -> Fraction | None:
    """lambda with g = lambda * f, or None."""
    if f.is_zero() or g.is_zero():
        return None
    ef, cf = f.leading_term()
    if f.variables != g.variables or ef not in g.terms:
        return None
    lam = g.terms[ef] / cf
    return lam if f * lam == g else None


# ---------------------------------------------------------------------------
# base points
# ---------------------------------------------------------------------------


def base_points_check(web: SymWeb, seed: int = 0) -> CheckReport:
    """Points on every polar lie in the singular set of the web."""
    report = CheckReport("base-points", seed=seed)
    coeffs = polar_family(web).center_coefficients()
    report.note(f"{len(coeffs)} center-monomial coefficients")
    if any(c.is_constant() for c in coeffs):
        report.add("base locus", True, "a center-monomial coefficient is a nonzero constant: empty")
        return report
    rational, numeric = base_points(web, coeffs)
    sing = singular_set(web)
    for pt in rational:
        report.add(
            f"base point {pt} in Sing(W)",
            sing.contains(pt),
            "exact containment",
        )
    for q in numeric:
        report.add(
            f"base point ({q[0]:.6g}, {q[1]:.6g}) in Sing(W)",
            sing.contains_numeric(q),
            "numeric containment",
            exact=False,
        )
    if not rational and not numeric:
        report.add("base locus", True, "empty")
    certify_membership_tolerance(report)
    return report


def base_points(web: SymWeb, coeffs: list[MPoly] | None = None):
    """The base locus itself (rational and numeric points): the common zeros
    of the family's center coefficients, which the caller may pass in."""
    if coeffs is None:
        coeffs = polar_family(web).center_coefficients()
    if any(c.is_constant() for c in coeffs):
        return [], []
    zs = common_zeros(coeffs)
    return [AffinePoint(*q) for q in zs.rational], zs.numeric


# ---------------------------------------------------------------------------
# family degree (k^2) and dimension
# ---------------------------------------------------------------------------


@dataclass
class ProjPoint:
    """Point of the projective plane, exact when possible."""

    x: complex
    y: complex
    z: complex  # 0 for points at infinity
    exact: tuple[Fraction, Fraction] | None = None

    def key(self) -> tuple:
        # normalized rounding key for dedup
        vec = (self.x, self.y, self.z)
        norm = max(abs(v) for v in vec)
        lead = next(v for v in vec if abs(v) > 0.5 * norm)
        vec = tuple(v / lead for v in vec)
        return tuple((round(v.real, 6), round(v.imag, 6)) for v in vec)

    def __str__(self):
        if self.exact is not None:
            return f"({self.exact[0]}, {self.exact[1]})"
        if self.z == 0:
            return f"[{self.x:.6g} : {self.y:.6g} : 0]"
        return f"({self.x:.6g}, {self.y:.6g})"


def _tangent_line(p: AffinePoint, d: Direction):
    """Line through p with direction (u:v) as normal-form coefficients
    (A, B, C) for A x + B y + C = 0; exact when the direction is."""
    if d.is_exact:
        A, B = d.v, -d.u
        C = -(A * p.a + B * p.b)
        return (A, B, C), True
    u, v = d.approx
    A, B = v, -u
    C = -(A * complex(p.a) + B * complex(p.b))
    return (A, B, C), False


def family_degree(web: SymWeb, p1: AffinePoint, p2: AffinePoint,
                  family: PolarFamily | None = None) -> tuple[int, list[ProjPoint]]:
    """Number of webs' polar curves through two generic points: the k^2
    pairwise intersections of the tangent lines at p1 and p2, counted in the
    projective plane.  `family` is polar_family(web), built here when not
    given."""
    dirs1 = tangent_directions(web, p1)
    dirs2 = tangent_directions(web, p2)
    family = family or polar_family(web)
    points: list[ProjPoint] = []
    for da in dirs1:
        la, exa = _tangent_line(p1, da)
        for db in dirs2:
            lb, exb = _tangent_line(p2, db)
            if exa and exb:
                det = la[0] * lb[1] - lb[0] * la[1]
                if det == 0:
                    if la[0] * lb[2] - lb[0] * la[2] == 0 and la[1] * lb[2] - lb[1] * la[2] == 0:
                        raise DegenerateSampleError("coincident tangent lines between p1 and p2")
                    points.append(ProjPoint(complex(da.u), complex(da.v), 0))
                    continue
                xq = (la[1] * lb[2] - lb[1] * la[2]) / det
                yq = (lb[0] * la[2] - la[0] * lb[2]) / det
                points.append(ProjPoint(complex(xq), complex(yq), 1, exact=(xq, yq)))
            else:
                ca = tuple(map(complex, la))
                cb = tuple(map(complex, lb))
                det = ca[0] * cb[1] - cb[0] * ca[1]
                scale = max(abs(v) for v in ca + cb)
                if abs(det) <= 1e-10 * scale * scale:
                    u, v = da.as_complex()
                    points.append(ProjPoint(u, v, 0))
                    continue
                xq = (ca[1] * cb[2] - cb[1] * ca[2]) / det
                yq = (cb[0] * ca[2] - ca[0] * cb[2]) / det
                points.append(ProjPoint(xq, yq, 1))
    seen = {}
    for pt in points:
        key = pt.key()
        if key in seen:
            raise DegenerateSampleError("two tangent-line pairs meet in the same point")
        seen[key] = pt
    # cross-check: each affine intersection is the center of a polar through
    # p1, p2 (a whole-plane polar contains them trivially)
    for pt in points:
        if pt.z == 0:
            continue
        if pt.exact is not None:
            curve = family.at(AffinePoint(*pt.exact))
            if isinstance(curve, RadialProduct):
                continue
            if not (curve.contains(p1) and curve.contains(p2)):
                raise DegenerateSampleError(f"center {pt} fails the polar membership cross-check")
        else:
            for target in (p1, p2):
                env = {"a": pt.x, "b": pt.y, "x": complex(target.a), "y": complex(target.b)}
                if not vanishes_numerically(family.parametric, env):
                    raise DegenerateSampleError(f"center {pt} fails the numeric membership cross-check")
    return len(points), points


def family_degree_check(web: SymWeb, seed: int = 0, pairs: int = 5) -> CheckReport:
    report = CheckReport("family-degree-k2", seed=seed, samples_requested=pairs)
    k2 = web.k * web.k
    sampler = GenericSampler(seed)
    family = None

    def admissible(pair):
        nonlocal family
        p1, p2 = pair
        if p1 == p2:
            return None, "the two points coincide"
        try:
            if not is_smooth_point(web, p1)[0] or not is_smooth_point(web, p2)[0]:
                return None, "point not smooth on the web"
            family = family or polar_family(web)
            return family_degree(web, p1, p2, family), None
        except DegenerateSampleError as e:
            return None, str(e)

    def draw():
        return sampler.center(), sampler.center()

    for _, (p1, p2), (count, pts) in sample_centers(report, sampler, pairs, admissible, draw):
        at_inf = sum(1 for q in pts if q.z == 0)
        report.add(
            f"|T_p1 W ∩ T_p2 W| at {p1}, {p2}",
            count == k2,
            f"{count} points ({at_inf} at infinity), expected {k2}",
        )
    return report


def family_dimension(web: SymWeb) -> int:
    """Dimension of the polar family inside the space of degree-(d+k) curves:
    the projective rank over Q(a, b) of the rows P, dP/da and dP/db, the
    polar at a center (a, b) and its derivatives in the center's coordinates.

    The rank is read at the centers of the grid {0, ..., 3k - 2}^2, in order,
    until it reaches 3.  P has degree at most k in (a, b) and its derivatives
    at most k - 1, so every minor of the three rows has degree at most
    3k - 2.  A nonzero polynomial of degree at most D in two variables does
    not vanish on all of S^2 when |S| > D (J. T. Schwartz, J. ACM 27, 1980;
    N. Alon, Combinatorial Nullstellensatz, 1999), so the largest rank on the
    grid is the rank over Q(a, b), and the value is exact.
    """
    P = polar_family(web).parametric
    maps = [P, P.derivative("a"), P.derivative("b")]
    best = 0
    for a0, b0 in product(range(3 * web.k - 1), repeat=2):
        center = {"a": MPoly.constant(a0), "b": MPoly.constant(b0)}
        rows = []
        for f in maps:
            row = _rekey(f.substitute({v: c for v, c in center.items() if v in f.variables}), ("x", "y"))
            # P is canonical, so it has integer coefficients, and so does the
            # row at an integer center
            rows.append({j: v.numerator for j, v in row.items()})
        best = max(best, _integer_rank(rows))
        if best == 3:
            break
    return best - 1


def family_dimension_check(web: SymWeb, seed: int = 0) -> CheckReport:
    report = CheckReport("family-dimension", seed=seed)
    dim = family_dimension(web)
    d = web_degree(web)
    is_radial = web.k == 1 and d == 0
    expected = 1 if is_radial else 2
    report.add(
        "dim R(W)",
        dim == expected,
        f"rank computation gives {dim}, expected {expected}"
        + (" (radial web: the family is a line of curves)" if is_radial else ""),
    )
    return report


# ---------------------------------------------------------------------------
# singular locus of the generic polar
# ---------------------------------------------------------------------------


def generic_polar_singularities_check(web: SymWeb, seed: int = 0, samples: int = 20) -> CheckReport:
    """Sing(P_p) inside discriminant ∪ Sing(W) ∪ {p} for generic p.

    The web discriminant is computed as the (dx:dy)-discriminant, which for
    k >= 2 contains the singular set of the web; for k = 1 the ramification
    locus over the singular points is accounted for by the explicit Sing(W)
    membership branch.
    """
    report = CheckReport("polar-singular-locus", seed=seed, samples_requested=samples)
    sing = singular_set(web)
    disc = web.discriminant_form

    def admissible(p):
        curve = polar_curve(web, p)
        if isinstance(curve, RadialProduct):
            return None, "center of a radial factor"
        if not disc.is_constant() and disc.evaluate(p.as_dict()) == 0:
            return None, "center on the discriminant"
        if sing.contains(p):
            return None, "center is singular on the web"
        return curve, None

    for _, p, curve in sample_centers(report, GenericSampler(seed), samples, admissible):
        F = curve.defining
        fx, fy = F.derivative("x"), F.derivative("y")
        if fx.is_zero() and fy.is_zero():
            report.add(f"Sing(P_p) at p={p}", False, "degenerate polar gradient")
            continue
        zs = common_zeros([F, fx, fy])
        bad = []
        for q in zs.rational:
            qp = AffinePoint(*q)
            on_disc = (not disc.is_constant()) and disc.evaluate(qp.as_dict()) == 0
            if not (qp == p or on_disc or sing.contains(qp)):
                bad.append(str(qp))
        for q in zs.numeric:
            env = {"x": q[0], "y": q[1]}
            on_disc = (not disc.is_constant()) and vanishes_numerically(disc, env)
            near_p = abs(q[0] - complex(p.a)) < 1e-8 and abs(q[1] - complex(p.b)) < 1e-8
            if not (near_p or on_disc or sing.contains_numeric(q)):
                bad.append(f"({q[0]:.6g},{q[1]:.6g})")
        exact = not zs.numeric
        report.add(
            f"Sing(P_p) ⊆ Δ(W) ∪ Sing(W) ∪ {{p}} at p={p}",
            not bad,
            f"{len(zs)} singular points" + (f"; violations: {bad}" if bad else ""),
            exact=exact,
        )
    certify_membership_tolerance(report)
    return report


# ---------------------------------------------------------------------------
# branches at the center
# ---------------------------------------------------------------------------


@dataclass
class TangentConeReport:
    point: AffinePoint
    cone: MPoly
    factors: list[tuple[Direction, int]]
    matches_web_directions: bool


def branches_at_center(web: SymWeb, p: AffinePoint) -> TangentConeReport:
    """Tangent cone of the polar at its center: k distinct lines along the
    web's tangent directions.  Requires p off the discriminant and Sing(W)."""
    smooth, reason = is_smooth_point(web, p)
    if not smooth:
        raise DegenerateSampleError(f"branches_at_center precondition: {reason}")
    curve = polar_curve(web, p)
    if isinstance(curve, RadialProduct):
        raise DegenerateSampleError("polar degenerates at this center")
    return _tangent_cone(web, p, curve)


def _tangent_cone(web: SymWeb, p: AffinePoint, curve: PlaneCurve) -> TangentConeReport:
    jets = jet_decompose(curve.raw, ("x", "y"), (p.a, p.b))
    order = min(jets)
    cone = jets[order]
    if order != web.k:
        return TangentConeReport(p, cone, [], False)
    # cross-check against the symmetric form at p, in the cone's variables
    expected = form_at(web, p)
    if _proportionality(expected, cone) is None:
        return TangentConeReport(p, cone, [], False)
    # the cone is a multiple of the form at p, so its factors are the web's directions
    factors = binary_form_factors(expected)
    ok = len(factors) == web.k and all(m == 1 for _, m in factors)
    return TangentConeReport(p, cone, factors, ok)


def branches_check(web: SymWeb, seed: int = 0, samples: int = 20) -> CheckReport:
    report = CheckReport("branches-at-center", seed=seed, samples_requested=samples)

    def admissible(p):
        ok, reason = is_smooth_point(web, p)
        if not ok:
            return None, reason
        curve = polar_curve(web, p)
        if isinstance(curve, RadialProduct):
            return None, "center of a radial factor"
        return curve, None

    for _, p, curve in sample_centers(report, GenericSampler(seed), samples, admissible):
        tc = _tangent_cone(web, p, curve)
        exact = all(d.is_exact for d, _ in tc.factors)
        report.add(
            f"{web.k} transversal branches at p={p}",
            tc.matches_web_directions,
            f"cone factors: {[(str(d), m) for d, m in tc.factors]}",
            exact=exact,
        )
    return report


# ---------------------------------------------------------------------------
# irreducibility by the Gao-Ruppert kernel
# ---------------------------------------------------------------------------


def _absolute_factor_count(f: MPoly) -> int:
    """Number of absolutely irreducible factors of a square-free f in (x, y).

    After a shear x -> x + lam*y with gcd(f, f_y) = 1, f is a primitive
    integer polynomial of bidegree (m, n) in (x, y), and the count is the
    dimension of the pairs (g, h), deg g <= (m-1, n), deg h <= (m, n-1), with
    f*g_y - g*f_y - f*h_x + h*f_x = 0 (S. Gao, "Factoring multivariate
    polynomials via partial differential equations", Math. Comp. 72, 2003;
    W. Ruppert, J. Number Theory 77, 1999).  Gao states it under
    gcd(f, f_x) = 1; the system is the same up to sign under x <-> y.  Each
    factor f_i over C gives the solution g/f = (f_i)_x/f_i, h/f = (f_i)_y/f_i.
    The dimension is the number of unknowns minus the rank over Q of the
    integer matrix, so the count is exact.  For square-free f, gcd(f, f_y) is
    the product of the factors free of y, so the condition holds exactly when
    f is primitive in y.  A factor free of y after the shear by lam is a
    union of lines of direction (lam, 1), and f has at most deg f of those
    directions, so deg f + 1 candidates always find a shear.

    The rank is read mod p = 2^61 - 1 first.  A minor that is nonzero mod p
    is nonzero over Z, so rank_p <= rank_Q and unknowns - rank_p is at least
    the count, which is at least 1.  So unknowns - rank_p = 1 proves a count
    of 1, the common case; any other value is settled by the rank over Q.
    Once a second row is dependent mod p, unknowns - rank_p is at least 2,
    so the elimination mod p stops there.
    """
    for lam in islice(_small_integers(), f.total_degree() + 1):
        fs = shear(f, lam)
        if _content_in(fs, "y").is_constant():
            break
    else:
        raise InternalInvariantError("no shear makes a square-free curve primitive in y")
    terms = [(i, j, int(c)) for (i, j), c in _rekey(fs.canonical(), ("x", "y")).items()]
    m = max(i for i, _, _ in terms)
    n = max(j for _, j, _ in terms)
    # one row per unknown, its image as {monomial: coefficient}:
    # x^a y^b in g gives sum c*(b - j) x^(i+a) y^(j+b-1),
    # x^a y^b in h gives sum c*(i - a) x^(i+a-1) y^(j+b)
    rows = []
    for a in range(m):
        for b in range(n + 1):
            rows.append({(i + a, j + b - 1): c * (b - j) for i, j, c in terms if b != j})
    for a in range(m + 1):
        for b in range(n):
            rows.append({(i + a - 1, j + b): c * (i - a) for i, j, c in terms if i != a})
    # N - rank_p rows are dependent mod p: looking for two of them is enough
    dependent = islice((new for new in _independent_mod_p(rows) if not new), 2)
    if len(list(dependent)) == 1:
        return 1
    return len(rows) - _integer_rank(rows)


def curve_component_count(curve: PlaneCurve) -> int:
    """Number of irreducible components over C of a reduced plane curve."""
    F = curve.defining
    if F.total_degree() <= 0:
        raise PolynomialError("component count of an empty curve")
    return _absolute_factor_count(F)


def web_decomposable(web: SymWeb) -> tuple[bool, int]:
    """Whether the web splits as a superposition, and its number of
    components over C: the component count of the direction cover
    q(t, m) = F(mu*t + c, t, 1, m) on a line x = mu*t + c, y = t where q is
    primitive in m and the square-free part R of Res_m(F, F_m) stays
    square-free.  (mu, 1) is the first direction where the top form of R is
    nonzero, so R keeps its degree n on the line and q its m-degree k (each
    factor of lc_m q divides R).  The line then meets the branch curve and
    the line at infinity transversally, and by Zariski's Lefschetz-type
    theorem its loops generate the monodromy of the cover: the counts agree.

    The intercepts are c = 0, 1, -1, 2, -2, ...  A rejected c is a root of
    disc_t R(mu*t + c, t), nonzero of degree at most n(n - 1) in c, or lies
    on a line through a point of Sing(W), where q has content in m; as the
    coefficients have gcd 1, Sing(W) has at most D^2 points (Bezout for two
    coprime combinations of them, D their largest degree).  So a search past
    n(n - 1) + D^2 intercepts is a broken invariant.
    """
    if web.k == 1:
        return False, 1
    lam = next(proper_shears([web.form], u="dx", v="dy"))
    form = shear(web.form, lam, "dx", "dy")
    # Res_m(F, F_m) = +-lc * disc, lc the dy^k coefficient after the shear
    lead = web.form.substitute({v: c for v, c in (("dx", lam), ("dy", 1)) if v in web.form.variables})
    branch = squarefree_part(lead * web.discriminant_form)
    n = branch.total_degree()
    bound = n * (n - 1) + max(a.total_degree() for a in web.coefficients()) ** 2
    slope = MPoly.constant(next(proper_shears([branch]))) * X
    for c in islice(_small_integers(), bound + 1):
        line = {"x": slope + MPoly.constant(c), "y": X}
        # q(t, m) with t as x and m as y: primitive in m is the counter's
        # condition gcd(q, q_m) = 1, so it needs no shear
        chart = {**line, "dx": MPoly.constant(1), "dy": Y}
        q = form.substitute({v: p for v, p in chart.items() if v in form.variables})
        if not _content_in(q, "y").is_constant():
            continue
        r = branch.substitute({v: p for v, p in line.items() if v in branch.variables})
        if not r.is_constant() and not poly_gcd(r, r.derivative("x")).is_constant():
            continue
        count = _absolute_factor_count(q)
        return count > 1, count
    raise InternalInvariantError(f"web_decomposable: {bound + 1} intercepts found no transversal line")


def generic_polar_irreducible(web: SymWeb, seed: int = 0, samples: int = 5) -> CheckReport:
    """Generic polar decomposable iff the web is decomposable or has degree 0
    (with k >= 2); verified sample by sample against the exact component
    count."""
    report = CheckReport("polar-irreducible", seed=seed, samples_requested=samples)
    d = web_degree(web)
    k = web.k
    decomposable, _ = web_decomposable(web)
    expect_reducible = decomposable or (d == 0 and k >= 2)
    report.note(
        f"web: k={k}, d={d}, decomposable={decomposable}; expected generic polar "
        + ("reducible" if expect_reducible else "irreducible")
    )

    def admissible(p):
        curve = polar_curve(web, p)
        if isinstance(curve, RadialProduct):
            return None, "center of a radial factor"
        if all(c.evaluate(p.as_dict()) == 0 for c in web.coefficients()):
            return None, "center is singular on the web"
        if on_discriminant(web, p):
            return None, "center on the discriminant"
        return curve, None

    for _, p, curve in sample_centers(report, GenericSampler(seed), samples, admissible):
        reduced = curve.raw == curve.defining
        if not reduced:
            report.add(
                f"polar at {p} square-free",
                False,
                "polar is non-reduced; component count uses the reduction",
            )
        count = curve_component_count(curve)
        ok = (count >= 2) if expect_reducible else (count == 1)
        report.add(f"components at p={p}", ok, f"{count} component(s)")
    return report
