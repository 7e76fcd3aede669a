"""Polar curves and the polar family of a plane web.

The polar with center p = (a, b) is the substitution dx -> x - a, dy -> y - b
in the symmetric form: the locus of points whose leaf direction points at the
center.  This module houses the degree count d + k, the polar-equality
criterion, the two-dimensionality and degree k^2 of the family, base points,
the singular-locus containment of the generic polar, the k-branch structure at
the center, and the irreducibility verdict, from exact component counts by
the Gao-Ruppert kernel.  No check samples: irreducibility is decided by one
polar, at the first small integer center that proves it (`qr-bound` shares
that walk), and the rest on the polar family; `family_degree` counts the
incidences of leaf lines at one pair of points.  On a web with k >= 2 the
singular locus is decided by one nonzero value of the inflexion curve of
the web, or, where that curve is the whole plane, by splitting off the
factor whose leaves are lines.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import islice, product

from .errors import DegenerateSampleError, InternalInvariantError, PolynomialError, WebValidationError
from .mpoly import (
    MPoly,
    _content_in,
    _div,
    _rekey,
    _small_grid,
    _small_integers,
    binary_form_degree,
    dehomogenize,
    exact_div,
    jet_decompose,
    lowest_jet,
    poly_gcd,
    proper_shears,
    resultant,
    shear,
    squarefree_part,
    try_exact_div,
)
from .reports import CheckReport
from .solve import common_zeros
from .webmodel import (
    DX,
    DY,
    X,
    Y,
    AffinePoint,
    PlaneCurve,
    SymWeb,
    form_at,
    is_smooth_point,
    singular_set,
    web_degree,
)
from .zpoly import _independent_mod_p, _int_prs_resultant, _integer_rank

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


def _substitute_center(form: MPoly, a, b) -> MPoly:
    """dx -> x - a, dy -> y - b; the center is rational or the symbols (a, b).

    A rational center (p/d, q/e) is put over the common denominator d*e: the
    substitution dx -> e*(d*x - p), dy -> d*(e*y - q) runs on ints, and the
    form, homogeneous of degree k, is divided by (d*e)^k once."""
    if isinstance(a, MPoly):
        return form.substitute({"dx": X - a, "dy": Y - b})
    p, d, q, e = a.numerator, a.denominator, b.numerator, b.denominator
    raw = form.substitute({"dx": MPoly._make(("x",), {(1,): e * d, (0,): -e * p}),
                           "dy": MPoly._make(("y",), {(1,): d * e, (0,): -d * q})})
    scale = (d * e) ** binary_form_degree(form)
    return raw if scale == 1 else MPoly._make(raw.variables, {m: _div(c, scale) for m, c in raw.terms.items()})


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


def polar_family(web: SymWeb) -> PolarFamily:
    return PolarFamily(_substitute_center(web.form, A_VAR, B_VAR).canonical())


# ---------------------------------------------------------------------------
# degree of the polar
# ---------------------------------------------------------------------------


def polar_top(web: SymWeb) -> tuple[int, list[MPoly]]:
    """deg_(x,y) P(a, b; x, y) and the coefficients of P's part of that degree
    over the monomials in (x, y): polynomials in the center, in (x, y)."""
    jets = jet_decompose(polar_family(web).parametric, ("x", "y"))
    degree = max(jets)
    top = [c for cx in jets[degree].coeffs_in("x") for c in cx.coeffs_in("y") if c]
    return degree, [c.substitute({"a": X, "b": Y}) for c in top]


def polar_degree_check(web: SymWeb, seed: int = 0) -> CheckReport:
    """deg P_p = d + k at every center off an exact locus, with no sample.

    P_p is P(a, b; x, y) at (a, b) = p, and the coefficients of P's top part
    in (x, y) are polynomials in the center (`polar_top`), so P_p keeps that
    degree wherever one of them is nonzero.  The check asserts that it is
    d + k, d of `web_degree`, and notes that the top part is free of (a, b)
    or lists the common zeros of its coefficients (`common_zeros`)."""
    report = CheckReport("polar-degree", seed=seed)
    d, (degree, coefficients) = web_degree(web), polar_top(web)
    report.add("deg_(x,y) P(a, b; x, y) = d + k", degree == d + web.k, f"degree {degree}, d={d}, k={web.k}")
    if all(c.is_constant() for c in coefficients):
        report.note("the top part of P in (x, y) is free of (a, b): deg P_p = d + k at every center")
    else:
        zs = common_zeros(coefficients)
        _note_points(report, "deg P_p < d + k at center", [AffinePoint(*q) for q in zs.rational], zs.numeric,
                     "the top coefficients of P in (x, y) have no common zero: deg P_p = d + k at every center")
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
    scale: int | Fraction | None = None


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


def polar_equality_check(web: SymWeb, seed: int = 0) -> CheckReport:
    """`polar_equality_criterion`, proved once for every pair of webs of the
    same k, with no sample.

    Let R = (x - a)·dy - (y - b)·dx and σ: dx -> x - a, dy -> y - b, so that
    σ(W) = P(a, b; x, y).  As (x - a)·dy ≡ (y - b)·dx (mod R), every form F
    of degree k in (dx, dy) has (x - a)^k·F ≡ dx^k·σ(F) (mod R).  The check
    asserts this by one exact division for each of the k + 1 monomials
    dx^i·dy^(k-i), which span those forms, and once more for F = W.  The
    quotients are polynomials in the center (a, b), so the congruence holds
    at every center p.  R_p is irreducible and prime to x - a, and
    σ_p(R_p) = 0, so σ_p(F) = 0 exactly when R_p | F.  Applied to
    F = W2 - λ·W1, P_p(W2) = λ·P_p(W1) exactly when R_p | W2 - λ·W1: the two
    routes of the criterion agree for every center and every W2."""
    report = CheckReport("polar-equality", seed=seed)
    k = web.k
    sigma = {"dx": X - A_VAR, "dy": Y - B_VAR}
    radial = (X - A_VAR) * DY - (Y - B_VAR) * DX
    monomials = [DX ** i * DY ** (k - i) for i in range(k, -1, -1)]
    for name, form in [(str(m), m) for m in monomials] + [("W", web.form)]:
        difference = (X - A_VAR) ** k * form - DX**k * form.substitute(sigma)
        divisible = try_exact_div(difference, radial) is not None
        report.add(f"(x - a)^k·F ≡ dx^k·σ(F) (mod R) for F = {name}", divisible,
                   "R = (x - a)·dy - (y - b)·dx divides the difference" if divisible else "R does not divide it")
    report.note("R is irreducible and prime to x - a, and σ(R) = 0: at every center p, "
                "P_p(W2) = λ·P_p(W1) exactly when R_p | W2 - λ·W1, for every web W2 with the same k")
    return report


def _proportionality(f: MPoly, g: MPoly) -> int | Fraction | None:
    """lambda with g = lambda * f, or None."""
    if f.is_zero() or g.is_zero():
        return None
    ef, cf = f.leading_term()
    if f.variables != g.variables or len(f.terms) != len(g.terms) or ef not in g.terms:
        return None
    lam = _div(g.terms[ef], cf)
    return lam if all(g.terms.get(e) == lam * c for e, c in f.terms.items()) else None


# ---------------------------------------------------------------------------
# base points
# ---------------------------------------------------------------------------


def base_points_check(web: SymWeb, seed: int = 0) -> CheckReport:
    """Points on every polar lie in the singular set of the web.

    One exact identity proves it: at a = x + s, b = y + t, the polar
    P = sum a_i(x, y) (x - a)^(k-i) (y - b)^i is (-1)^k W(x, y; s, t).  So
    P's coefficient at a^(k-i) b^i is (-1)^k a_i, and the base locus is
    the common zero set of the a_i, Sing(W), which the report lists."""
    report = CheckReport("base-points", seed=seed)
    _base_identity(report, web)
    _note_points(report, "base point", *base_points(web), "base locus: empty")
    return report


def _base_identity(report: CheckReport, web: SymWeb) -> None:
    """Assert P(x + s, y + t; x, y) = c·(-1)^k·W(x, y; s, t): seen from a
    point, the polar is the form there applied to the point minus the center."""
    S, T = MPoly.variable("s"), MPoly.variable("t")
    P = polar_family(web).parametric.substitute({"a": X + S, "b": Y + T})
    form = web.form.substitute({"dx": S, "dy": T})
    c = _proportionality(-form if web.k % 2 else form, P)
    report.add("P(x + s, y + t; x, y) = c·(-1)^k·W(x, y; s, t)", c is not None,
               f"c = {c}" if c is not None else "not a constant multiple of the form")


def _note_points(report: CheckReport, label: str, rational: list[AffinePoint], numeric: list, empty: str) -> None:
    """One note per point of a finite zero set, or the note `empty`."""
    for pt in rational:
        report.note(f"{label} {pt} [exact]")
    for q in numeric:
        report.note(f"{label} ({q[0]:.6g}, {q[1]:.6g}) [numeric]")
    if not rational and not numeric:
        report.note(empty)


def base_points(web: SymWeb):
    """The base locus itself (rational and numeric points): Sing(W), by the
    identity of `base_points_check`."""
    sing = singular_set(web)
    return sing.points, sing.numeric_points


# ---------------------------------------------------------------------------
# family degree (k^2) and dimension
# ---------------------------------------------------------------------------


def family_degree(web: SymWeb, p1: AffinePoint, p2: AffinePoint) -> tuple[int, int]:
    """The number of polars through two smooth points p1 != p2, and how many
    of their centers lie at infinity.

    By the identity of `base_points_check`, p lies on P_c exactly when
    W(p; p - c) = 0, so the centers are the meets of a leaf line through p1
    with one through p2, k^2 pairs of lines.  With u = p2 - p1, a pair is
    one line exactly when both are the line p1p2, W(p1; u) = W(p2; u) = 0.
    An affine meet other than p1 and p2 fixes both lines, and a meet [d] at
    infinity fixes d, so two pairs share a point only at p2 when
    W(p1; u) = 0, or at p1 when W(p2; u) = 0, and then k pairs meet there.
    Off those cases the k^2 centers are distinct, and the ones at infinity
    are the common leaf directions, the roots of gcd(W(p1; .), W(p2; .))."""
    if not (is_smooth_point(web, p1)[0] and is_smooth_point(web, p2)[0]):
        raise DegenerateSampleError("point not smooth on the web")
    f1, f2 = form_at(web, p1), form_at(web, p2)
    u = {"x": p2.a - p1.a, "y": p2.b - p1.b}
    w1, w2 = f1.evaluate(u), f2.evaluate(u)
    if w1 == 0 and w2 == 0:
        raise DegenerateSampleError("coincident tangent lines between p1 and p2")
    if web.k >= 2 and (w1 == 0 or w2 == 0):
        raise DegenerateSampleError("two tangent-line pairs meet in the same point")
    return web.k * web.k, poly_gcd(f1, f2).total_degree()


def family_degree_check(web: SymWeb, seed: int = 0) -> CheckReport:
    """k^2 polars through two generic points, with no sample.

    The check asserts the identity of `base_points_check`, by which p lies on
    P_c exactly when W(p; p - c) = 0, and that W is generically square-free.
    By `family_degree`'s incidence rule, p1 != p2 lie on k^2 polars when both
    are off Sing(W) ∪ Δ(W), a curve as W is square-free, and W(p1; u) and
    W(p2; u), u = p2 - p1, are nonzero (for k = 1, not both 0): these are
    nonzero polynomials in (p1, p2), W(p; u) after an invertible linear change.
    A pencil of lines, k = 1 and d = 0, has one such center, noted instead."""
    report = CheckReport("family-degree-k2", seed=seed)
    _base_identity(report, web)
    if _assert_squarefree(report, web):
        report.note("k = 1, d = 0: the leaves are the lines through a point o, perhaps at infinity, the one center "
                    "of a polar through p1 and p2; P_o is all of the plane" if web.k == 1 and web_degree(web) == 0
                    else f"p1, p2 off Sing(W) ∪ Δ(W) with W(p1; p2 - p1)·W(p2; p2 - p1) ≠ 0 lie on "
                    f"k² = {web.k * web.k} polars")
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
        rows = []
        for f in maps:
            row = _rekey(f.substitute({"a": a0, "b": b0}), ("x", "y"))
            # P is canonical, so it has integer coefficients, and so does the
            # row at an integer center
            rows.append({j: v.numerator for j, v in row.items()})
        best = max(best, _integer_rank(rows))
        if best == 3:
            break
    return best - 1


def family_dimension_check(web: SymWeb, seed: int = 0) -> CheckReport:
    report = CheckReport("family-dimension", seed=seed)
    dim, pencil = family_dimension(web), web.k == 1 and web_degree(web) == 0
    expected = 1 if pencil else 2
    report.add("dim R(W)", dim == expected, f"rank computation gives {dim}, expected {expected}"
               + (" (radial web: the family is a line of curves)" if pencil else ""))
    return report


# ---------------------------------------------------------------------------
# singular locus of the generic polar
# ---------------------------------------------------------------------------


def generic_polar_singularities_check(web: SymWeb, seed: int = 0) -> CheckReport:
    """Sing(P_p) inside Δ(W) ∪ Sing(W) ∪ {p} for generic p, with no sample.

    A foliation is decided on its polar family (`linear_identity`).  A web
    with k >= 2 asserts the identity of `base_points_check`, P_p(q) =
    ±W(q; q - p), and is decided by `_web_polar_singularities`.  The
    (dx:dy)-discriminant contains the singular set of a web with k >= 2.
    """
    if web.k == 1:
        return _foliation_polar_singularities(web, seed)
    report = CheckReport("polar-singular-locus", seed=seed)
    _base_identity(report, web)
    _web_polar_singularities(report, web)
    return report


def _web_polar_singularities(report: CheckReport, web: SymWeb, split: bool = True) -> None:
    """The containment for a web with k >= 2, written into the report.

    When the inflexion curve R = Res_(dx:dy)(W, E_W), E_W of
    `inflexion_form`, is not zero, the report notes a point q with R(q) ≠ 0
    and the value (`inflexion_witness`).  Let q be singular on P_p with
    u = q - p ≠ 0.  Then grad P_p(q) = (W_x + W_dx, W_y + W_dy)(q; u), and
    P_p(q) = W(q; u) = 0 makes u = t·v with t ≠ 0 and v a leaf direction at
    q.  Off Δ(W) ∪ Sing(W), v is a simple root, so (W_dx, W_dy)(q; v) ≠ 0,
    and by homogeneity grad P_p(q) = t^(k-1)·(t·(W_x, W_y) + (W_dx, W_dy))(q; v).
    That vanishes for some t only if E_W(q; v) = 0, so only if R(q) = 0,
    and then t is unique.  So such a q is singular on at most k polars with
    centers other than q, and the bad centers lie on the image of the curve
    R = 0, which a generic center avoids.

    When R ≡ 0 and W has a repeated factor, Δ(W) is the whole plane, which
    the report notes.  Otherwise W = L·N, L = gcd(W, E_W), and the check
    asserts L | E_L: E_L vanishes on the leaves of L, so they are lines.
    P_p(L)(q) = L(q; q - p) = 0 exactly when the leaf of L at q in the
    direction q - p is a line through p: P_p(L) is a union of lines through
    p, singular only at p.  At q ≠ p on P_p(L) ∩ P_p(N), q - p is a root of
    L(q; .) and N(q; .), so a repeated root of W(q; .): q lies in Δ(W).  N
    is a constant, a foliation (`_foliation_polar_singularities`), or a web
    with R_N ≢ 0, decided here (`split` False); its assertions and notes are
    marked `N: `, and Sing(N) ⊆ Sing(W), Δ(N) ⊆ Δ(W).  R_N ≡ 0 is a broken
    invariant: E_W ≡ L^2·E_N (mod N), so a common factor of N and E_N would
    divide both L and N, which are coprime as W is square-free.
    """
    if (witness := inflexion_witness(web)) is not None:
        q, value = witness
        report.note(f"R = Res_(dx:dy)(W, W_x·W_dy - W_y·W_dx) ≢ 0, R(q) = {value} at q = {q}: a point off "
                    "Δ(W) ∪ Sing(W) is singular on at most k polars with other centers, and only on R = 0")
        return
    if not split:
        raise InternalInvariantError(f"R ≡ 0 on N = W / gcd(W, E_W) = {web.form}")
    if not web.generically_squarefree:
        report.note("R ≡ 0 and W has a repeated factor: Δ(W) is the whole plane")
        return
    L = poly_gcd(web.form, inflexion_form(web))
    lines = SymWeb._trusted(L, binary_form_degree(L))
    divides = try_exact_div(inflexion_form(lines), L) is not None
    report.add("L | E_L for L = gcd(W, E_W)", divides,
               f"L = {L}: " + ("every leaf of L is a line" if divides else "L does not divide E_L"))
    report.note("R ≡ 0: W = L·N, P_p(L) is a union of lines through p and P_p(L) ∩ P_p(N) ⊆ Δ(W) ∪ {p}")
    if lines.k == web.k:
        report.note("N is a constant: W = L")
        return
    rest = SymWeb._trusted(exact_div(web.form, L), web.k - lines.k)
    if rest.k == 1:
        sub = _foliation_polar_singularities(rest, report.seed)
    else:
        sub = CheckReport(report.check)
        _web_polar_singularities(sub, rest, split=False)
    report.note(f"N = {rest.form}")
    report.assertions += [replace(a, name=f"N: {a.name}") for a in sub.assertions]
    report.notes += [f"N: {n}" for n in sub.notes]


def inflexion_form(web: SymWeb) -> MPoly:
    """E_W = W_x·W_dy - W_y·W_dx, zero or of degree 2k - 1 in (dx, dy).  For
    a foliation A·dy - B·dx, E_W at the leaf direction (A, B) is E of
    `inflexion_of_field`."""
    W = web.form
    return W.derivative("x") * W.derivative("dy") - W.derivative("y") * W.derivative("dx")


def inflexion_curve(web: SymWeb) -> MPoly:
    """R = Res_(dx:dy)(W, E_W), E_W of `inflexion_form`; zero when E_W is.
    Both forms are sheared and dehomogenized together, so R(q) = 0 exactly
    when W(q; .) and E_W(q; .) share a root (dx:dy).  Its zero set is the
    inflection curve of the web (J. V. Pereira and L. Pirio, An Invitation
    to Web Geometry, IMPA Monographs 2, Springer 2015)."""
    E = inflexion_form(web)
    if E.is_zero():
        return E
    w, e = dehomogenize([web.form, E])
    return resultant(w, e, "dy")


def inflexion_witness(web: SymWeb) -> tuple[AffinePoint, int] | None:
    """An integer point q with R(q) ≠ 0 and the value, R of
    `inflexion_curve`, or None when R ≡ 0.

    R is never expanded when a witness turns up: at a point q of the small
    grid where neither dy-leading coefficient of the dehomogenized forms w
    and e vanishes, both keep their dy-degree, so Res_dy(w(q), e(q)), one
    resultant of integer lists, is R(q).  When no point of {0, 1, -1}^2
    gives a nonzero value, R itself decides: zero, or nonzero of total
    degree n and then nonzero at a point of S^2, S the first n + 1 small
    integers (N. Alon, Combinatorial Nullstellensatz, 1999)."""
    E = inflexion_form(web)
    if E.is_zero():
        return None
    w, e = dehomogenize([web.form, E])
    cw, ce = w.coeffs_in("dy"), e.coeffs_in("dy")
    for i, j in _small_grid(3):
        point = {"x": i, "y": j}
        a, b = [c.evaluate(point) for c in cw], [c.evaluate(point) for c in ce]
        if a[-1] and b[-1] and (value := _int_prs_resultant(a, b)):
            return AffinePoint.of(i, j), value
    R = inflexion_curve(web)
    if R.is_zero():
        return None
    return next((AffinePoint.of(i, j), v) for i, j in _small_grid(R.total_degree() + 1)
                if (v := R.evaluate({"x": i, "y": j})))


def inflexion_of_field(A: MPoly, B: MPoly) -> MPoly:
    """E = B^2 A_y + A B A_x - A^2 B_x - A B B_y of A d/dx + B d/dy, not yet reduced."""
    return (B * (B * A.derivative("y") + A * A.derivative("x"))
            - A * (A * B.derivative("x") + B * B.derivative("y")))


def linear_identity(report: CheckReport, web: SymWeb, A: MPoly, B: MPoly) -> None:
    """Assert that the polar family of the 1-web A*dy - B*dx is linear in
    the center, P = c·(aB - bA + Ay - Bx) with c a nonzero rational.

    Then q is singular on P_p exactly when M(q)·(a, b, 1)^T = 0, M's rows
    the coefficients of P, P_x and P_y in (a, b, 1).  Adding x·column 1 +
    y·column 2 to column 3 gives M' = [[B, -A, 0], [B_x, -A_x, -B],
    [B_y, -A_y, A]], and det M' = -E for every A and B."""
    c = _proportionality(A * (Y - B_VAR) - B * (X - A_VAR), polar_family(web).parametric)
    report.add("P = c·(aB - bA + Ay - Bx)", c is not None,
               f"c = {c}" if c is not None else "the polar family is not linear in the center")


def _foliation_polar_singularities(web: SymWeb, seed: int) -> CheckReport:
    """The generic polar of a foliation is singular exactly on
    Z = V(A, B, A_x, A_y, B_x, B_y), a subset of Sing(W).

    With E ≢ 0: off V(A, B), M' of `linear_identity` has rank >= 2: its
    first row (B, -A, 0) is nonzero, and so is (-B, A), the last entries of
    the other two.  So such a point is singular on at most one polar, and it
    lies on E, as det M' = -E; those centers form a set of dimension at most
    1.  At q in V(A, B), grad P_p(q) = J(q)·(y_q - b, a - x_q), J's rows
    (A_x, B_x) and (A_y, B_y), which vanishes at a generic center exactly
    when J(q) = 0.

    With E ≡ 0 the leaves are lines that meet only at infinity or at the
    finitely many singular points: a pencil, (A, B) a constant or
    c·(x - x0, y - y0).  So deg_(x,y) P = 1, which the check asserts
    (`polar_top`), and as P_p(p) = 0 every polar is a line through p or
    zero: Z is empty.  The notes list Z."""
    b, a = web.coefficients()  # the form is A*dy - B*dx
    A, B = a, -b
    report = CheckReport("polar-singular-locus", seed=seed)
    linear_identity(report, web, A, B)
    if inflexion_of_field(A, B).is_zero():
        degree, _ = polar_top(web)
        report.add("E ≡ 0: deg_(x,y) P(a, b; x, y) = 1", degree == 1, f"degree {degree}: every polar is a line or 0")
    else:
        report.note("E ≢ 0: a point off V(A, B) is singular on at most one polar")
    zs = common_zeros([A, B] + [f.derivative(v) for f in (A, B) for v in ("x", "y")])
    where = "generic Sing(P_p) = V(A, B, A_x, A_y, B_x, B_y) ⊆ Sing(W)"
    _note_points(report, f"{where}:", [AffinePoint(*q) for q in zs.rational], zs.numeric,
                 f"{where}: empty, the generic polar is smooth")
    return report


# ---------------------------------------------------------------------------
# branches at the center
# ---------------------------------------------------------------------------


def branches_check(web: SymWeb, seed: int = 0) -> CheckReport:
    """k transversal branches of P_p at p, for every p off Sing(W) ∪ Δ(W).

    In x = a + u, y = b + v, P = sum a_i(a + u, b + v) u^(k-i) v^i has no
    part of degree below k in (u, v), and its part of degree k is
    W(a, b; u, v): at p off Sing(W) the tangent cone of P_p is the k leaf
    directions.  W is generically square-free (`generically_squarefree`),
    so Δ(W) is a curve, off which the k directions are distinct."""
    report = CheckReport("branches-at-center", seed=seed)
    U, V = MPoly.variable("u"), MPoly.variable("v")
    at_center = polar_family(web).parametric.substitute({"x": A_VAR + U, "y": B_VAR + V})
    order, jet = lowest_jet(at_center, ("u", "v"))
    form = web.form.substitute({"x": A_VAR, "y": B_VAR, "dx": U, "dy": V})
    c = _proportionality(form, jet) if order == web.k else None
    report.add("lowest (u, v)-jet of P(a, b; a + u, b + v) = c·W(a, b; u, v)", c is not None,
               f"c = {c}" if c is not None else f"lowest jet of degree {order}, not a multiple of the form")
    _assert_squarefree(report, web)
    return report


def _assert_squarefree(report: CheckReport, web: SymWeb) -> bool:
    """Assert that W is generically square-free (`generically_squarefree`), so
    that Δ(W) is a curve.  Returns the verdict."""
    squarefree = web.generically_squarefree
    report.add("W generically square-free", squarefree,
               "the k leaf directions are distinct off Δ(W)" if squarefree else "W has a repeated factor")
    return squarefree


# ---------------------------------------------------------------------------
# irreducibility by the Gao-Ruppert kernel
# ---------------------------------------------------------------------------


def _gao_rows(fs: MPoly) -> list[dict]:
    """The Gao-Ruppert matrix of an integer polynomial fs in (x, y) of
    bidegree (m, n) and total degree N: one row per unknown of (g, h),
    deg g <= (m-1, n), deg h <= (m, n-1), both of total degree at most
    N - 1, its image fs*g_y - g*fs_y - fs*h_x + h*fs_x as
    {column: coefficient}.  The column of x^i y^j is (i + j, i), so the
    greatest column of a row is its leading monomial in graded order."""
    terms = [(i, j, int(c)) for (i, j), c in _rekey(fs.canonical(), ("x", "y")).items()]
    m = max(i for i, _, _ in terms)
    n = max(j for _, j, _ in terms)
    top = max(i + j for i, j, _ in terms) - 1
    # x^a y^b in g gives sum c*(b - j) x^(i+a) y^(j+b-1),
    # x^a y^b in h gives sum c*(i - a) x^(i+a-1) y^(j+b)
    rows = []
    for a in range(m):
        for b in range(min(n, top - a) + 1):
            rows.append({(i + a + j + b - 1, i + a): c * (b - j) for i, j, c in terms if b != j})
    for a in range(m + 1):
        for b in range(min(n - 1, top - a) + 1):
            rows.append({(i + a - 1 + j + b, i + a - 1): c * (i - a) for i, j, c in terms if i != a})
    return rows


def _absolute_factor_count(f: MPoly) -> int:
    """Number of absolutely irreducible factors of a square-free f in (x, y):
    `_gao_count` of f sheared by x -> x + lam*y for the first lam of
    0, 1, -1, 2, ... that makes f primitive in y, so that gcd(f, f_y) = 1.

    For square-free f, gcd(f, f_y) is the product of the factors free of y,
    so the condition holds exactly when f is primitive in y.  Its content in
    y divides its leading coefficient in y, so when that coefficient is a
    constant f is primitive in y and the gcds of the content are skipped;
    the shear found is the same.  A factor free of y after the shear by lam
    is a union of lines of direction (lam, 1), and f has at most deg f of
    those directions, so deg f + 1 candidates always find a shear."""
    for lam in islice(_small_integers(), f.total_degree() + 1):
        fs = shear(f, lam)
        if fs.coeffs_in("y")[-1].is_constant() or _content_in(fs, "y").is_constant():
            return _gao_count(fs)
    raise InternalInvariantError("no shear makes a square-free curve primitive in y")


def _gao_count(fs: MPoly) -> int:
    """Number of absolutely irreducible factors of a square-free integer fs
    in (x, y), of bidegree (m, n), primitive in y: with gcd(fs, fs_y) = 1,
    the dimension of the pairs (g, h), deg g <= (m-1, n), deg h <= (m, n-1),
    with fs*g_y - g*fs_y - fs*h_x + h*fs_x = 0 (S. Gao, "Factoring multivariate
    polynomials via partial differential equations", Math. Comp. 72, 2003;
    W. Ruppert, J. Number Theory 77, 1999).  Gao states it under
    gcd(f, f_x) = 1; the system is the same up to sign under x <-> y.  Each
    factor f_i over C, of total degree N_i, gives the solution
    g/f = (f_i)_x/f_i, h/f = (f_i)_y/f_i, and by Gao's theorem these span all
    solutions: every solution is (sum l_i (f/f_i)(f_i)_x, sum l_i (f/f_i)(f_i)_y),
    and each term has total degree at most (N - N_i) + (N_i - 1) = N - 1,
    N = deg f.  So the unknowns of total degree at most N - 1 already hold
    the whole solution space, and `_gao_rows` keeps only those: about half
    of the box, with the same kernel dimension.  The dimension is the number
    of unknowns minus the rank over Q of that integer matrix, so the count is
    exact.

    The rank is read mod p = 2^30 - 35 first, the largest prime below 2^30,
    so every residue is one digit of a Python int.  A minor that is nonzero
    mod p is nonzero over Z, so rank_p <= rank_Q and unknowns - rank_p is at
    least the count, which is at least 1, whatever the prime.  So
    unknowns - rank_p = 1 proves a count of 1, the common case; any other
    value is settled by the rank over Q.  Once a second row is dependent mod
    p, unknowns - rank_p is at least 2, so the elimination mod p stops there.
    The columns are in graded order, which the elimination pivots on at the
    greatest column.
    """
    rows = _gao_rows(fs)
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
    lead = web.form.substitute({"dx": lam, "dy": 1})
    branch = squarefree_part(lead * web.discriminant_form)
    n = branch.total_degree()
    bound = n * (n - 1) + max(a.total_degree() for a in web.coefficients()) ** 2
    slope = MPoly.constant(next(proper_shears([branch]))) * X
    for c in islice(_small_integers(), bound + 1):
        line = {"x": slope + MPoly.constant(c), "y": X}
        # q(t, m) with t as x and m as y: primitive in m is the counter's
        # condition gcd(q, q_m) = 1, so it needs no shear
        chart = {**line, "dx": 1, "dy": Y}
        q = form.substitute(chart)
        if not _content_in(q, "y").is_constant():
            continue
        r = branch.substitute(line)
        if not r.is_constant() and not poly_gcd(r, r.derivative("x")).is_constant():
            continue
        count = _gao_count(q)
        return count > 1, count
    raise InternalInvariantError(f"web_decomposable: {bound + 1} intercepts found no transversal line")


def generic_polar_irreducible(web: SymWeb) -> CheckReport:
    """Generic polar reducible iff the web is decomposable or has degree 0
    with k >= 2, decided with no sample; a web with a repeated factor fails
    `W generically square-free` and has no branch curve to cut.

    Reducible: over C, W = c·W_1···W_m, m >= 2 the count of
    `web_decomposable`, so P_p(W) = c·∏ P_p(W_i), and each P_p(W_i) vanishes
    at p: it is 0 or not a constant.  When d = 0, W(p + t·v; v) is free of
    t, so P_p(p + v) = W(p; v): k lines through p.

    Irreducible: the reducible or non-reduced curves of degree d + k, the
    image of products of curves of lower degree, form a closed set.  So one
    square-free polar of degree d + k with one component over C proves the
    generic polar irreducible.  It stops the walk of `_full_polars` at the
    first such witness; a walk with none proves nothing about a closed set
    of unknown degree, and raises `DegenerateSampleError`."""
    report = CheckReport("polar-irreducible")
    if not _assert_squarefree(report, web):
        return report
    d, k = web_degree(web), web.k
    decomposable, count = web_decomposable(web)
    expect_reducible = decomposable or (d == 0 and k >= 2)
    report.note(f"web: k={k}, d={d}, decomposable={decomposable}; expected generic polar "
                + ("reducible" if expect_reducible else "irreducible"))
    if expect_reducible:
        report.add("W decomposable over C" if decomposable else "d = 0 and k >= 2", True,
                   f"{count} components over C" if decomposable else "P_p(p + v) = W(p; v), k lines through p")
    for p, curve in _full_polars(report, web, None if expect_reducible else "irreducible", "one component"):
        count = curve_component_count(curve)
        if expect_reducible:
            report.note(f"components at p={p}: {count}")
            return report
        if count == 1:
            report.add(f"components at p={p}", True,
                       f"1 component, degree {d + k}, square-free: the generic polar is irreducible")
            return report
        report.note(f"special center {p}: {count} components")
    return report


def _full_polars(report: CheckReport, web: SymWeb, check: str | None, witness: str):
    """Yield (p, P_p) at the centers of the small integer grid, side d + k + 2
    in `_small_grid` order, whose polar is square-free of degree d + k; note
    the others as special.  At the end, raise `DegenerateSampleError` for
    `check`, naming the `witness` it lacked, unless `check` is None."""
    n = web_degree(web) + web.k
    side = n + 2
    for i, j in _small_grid(side):
        p = AffinePoint.of(i, j)
        curve = polar_curve(web, p)
        if isinstance(curve, RadialProduct):
            report.note(f"special center {p}: the polar is all of the plane")
        elif curve.raw.total_degree() < n:
            report.note(f"special center {p}: the polar has degree {curve.raw.total_degree()} < d + k")
        elif curve.raw != curve.defining:
            report.note(f"special center {p}: the polar is not square-free")
        else:
            yield p, curve
    if check is not None:
        raise DegenerateSampleError(f"{check}: no center of the {side} x {side} grid has a square-free "
                                    f"polar of degree {n} with {witness}")
