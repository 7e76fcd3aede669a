"""Foliation-specific analysis of polar curves.

A foliation is the k = 1 web of a vector field A d/dx + B d/dy with coprime
polynomial components, a `SymWeb` whose (A, B) is `SymWeb.field`.  This
module computes the inflexion divisor, classifies singular points as
quasi-radial or not through the first nonzero jet pair, proves the
tangent-cone dichotomy of the polar at every singular point, the
inflexion-at-center equivalence and the containment of every polar's singular
points in the inflexion divisor by exact identities in the center of the
polar family, and bounds the number of quasi-radial singularities by the
class (degree of the dual) of one polar, on `irreducible`'s walk: no sample.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InternalInvariantError, PolynomialError
from .mpoly import (
    MPoly,
    exact_div,
    format_mpoly,
    jet_decompose,
    poly_gcd,
    proper_shears,
    resultant,
    shear,
)
from .polarops import (
    A_VAR, B_VAR, _full_polars, _proportionality, inflexion_of_field, inflexion_vanishes, linear_identity,
    polar_family,
)
from .reports import CheckReport
from .solve import Group, point_order, split
from .webmodel import AffinePoint, PlaneCurve, SymWeb, singular_set

X = MPoly.variable("x")
Y = MPoly.variable("y")


# ---------------------------------------------------------------------------
# inflexion divisor
# ---------------------------------------------------------------------------


def inflexion_divisor(web: SymWeb) -> PlaneCurve | None:
    """The curve of inflexion points of the leaves; None when it vanishes
    identically (every leaf is a line)."""
    e = inflexion_of_field(*web.field)
    if e.is_zero():
        return None
    return PlaneCurve(e)


def polar_sing_in_inflexion_check(web: SymWeb) -> CheckReport:
    """Singular points of every polar lie on the inflexion divisor.

    One exact identity proves it at every center, so the check takes no
    sample: by `linear_identity`, q is singular on P_p only if
    M'(q)·(a, b, 1)^T = 0 for some center, so det M'(q) = -E(q) = 0."""
    report = CheckReport("sing-in-inflexion")
    if inflexion_vanishes(*web.field):
        report.add("inflexion divisor", True, "identically zero: all leaves are lines; check skipped")
        return report
    linear_identity(report, web)
    return report


# ---------------------------------------------------------------------------
# quasi-radial classification
# ---------------------------------------------------------------------------


@dataclass
class SingularityClass:
    point: AffinePoint | tuple[complex, complex]
    first_jet_order: int
    quasi_radial: bool
    radial_cofactor: MPoly | None
    criterion: MPoly | None = None  # y*A_k - x*B_k at a rational point

    def __str__(self):
        kind = "quasi-radial" if self.quasi_radial else "not quasi-radial"
        return f"{kind} (first jet order {self.first_jet_order})"


def classify_singularity(web: SymWeb, q: AffinePoint) -> SingularityClass:
    """Quasi-radial iff the first nonzero jet pair is a multiple of the radial
    field: y*A_k - x*B_k = 0, i.e. A_k = x*P and B_k = y*P."""
    point = q.as_dict()
    A, B = web.field
    if A.evaluate(point) != 0 or B.evaluate(point) != 0:
        raise PolynomialError(f"{q} is not a singular point of the foliation")
    ja = jet_decompose(A, ("x", "y"), (q.a, q.b))
    jb = jet_decompose(B, ("x", "y"), (q.a, q.b))
    k = min(ja.keys() | jb.keys())
    ak = ja.get(k, MPoly.zero())
    bk = jb.get(k, MPoly.zero())
    crit = Y * ak - X * bk
    if not crit.is_zero():
        return SingularityClass(q, k, False, None, crit)
    cofactor = exact_div(ak, X) if not ak.is_zero() else exact_div(bk, Y)
    if ak != X * cofactor or bk != Y * cofactor:
        raise InternalInvariantError("quasi-radial cofactor extraction failed")
    return SingularityClass(q, k, True, cofactor, crit)


def _next_order(jet: dict, k: int) -> dict:
    """The Taylor coefficients d^(i,k-i) f/(i!(k-i)!) of order k, as
    polynomials in (x, y), each from one of order k - 1 by one derivative."""
    return {(i, k - i): jet[(i - 1, k - i)].derivative("x") * Fraction(1, i) if i
            else jet[(0, k - 1)].derivative("y") * Fraction(1, k) for i in range(k + 1)}


def classify_irrational(web: SymWeb, groups: list[Group]) -> list[SingularityClass]:
    """The exact classes of the irrational singular points, by `point_order`.
    Each group is split by gcds (dynamic evaluation: Della Dora, Dicrescenzo
    and Duval, EUROCAL '85) for k = 1, 2, ...: the Taylor coefficients of A
    and B of order k vanish at the points of order above k, and among those
    of order k, the coefficients of y*A_k - x*B_k at the quasi-radial ones."""
    out, (A, B) = [], web.field
    for group in groups:
        ja, jb, k = {(0, 0): A}, {(0, 0): B}, 0
        while group.points:
            k += 1
            ja, jb = _next_order(ja, k), _next_order(jb, k)
            if all(f.is_zero() for f in (*ja.values(), *jb.values())):
                raise InternalInvariantError("a point of the group is not an isolated zero of A and B")
            group, order_k = split(group, [*ja.values(), *jb.values()])
            crit = [ja.get((i, k - i), MPoly.zero()) - jb.get((i - 1, k + 1 - i), MPoly.zero()) for i in range(k + 2)]
            for part, radial in zip(split(order_k, crit), (True, False)):
                out += [SingularityClass(q, k, radial, None) for q in part.points]
    return sorted(out, key=lambda c: point_order(c.point))


# ---------------------------------------------------------------------------
# tangent-cone dichotomy at singular points
# ---------------------------------------------------------------------------


def _dichotomy_note(report: CheckReport, where: str, cls: SingularityClass, tail: str) -> int:
    """Note which case of the dichotomy holds at q and which centers it
    excludes; return the multiplicity of the line pq in the tangent cone of
    P_p at q for the other centers."""
    k = cls.first_jet_order
    if cls.quasi_radial:
        mult, claim = 1, f"line pq is a simple tangent of P_p at q for p ≠ q off Q(p - q) = 0, Q = A_{k}/x = B_{k}/y"
    else:
        mult, claim = 0, f"line pq is not tangent to P_p at q for p ≠ q off T(p - q) = 0, T = y·A_{k} - x·B_{k}"
    report.note(f"singular point {where}: {cls}: {claim}{tail}")
    return mult


def tangent_cone_dichotomy(report: CheckReport, web: SymWeb, q: AffinePoint) -> tuple[int, MPoly]:
    """The tangent-cone dichotomy at a rational singular point q, for every
    center p off finitely many lines through q at once.

    By `linear_identity`, P_p = c·(A·(y - b) - B·(x - a)).  In x = x_q + s,
    y = y_q + t, with c1 = y_q - b and c2 = x_q - a, that is
    c·(c1·A - c2·B + t·A - s·B).  With k the first jet order at q, the part
    of degree k of P_p at q is c·(c1·A_k - c2·B_k), and the line pq, of
    direction (c2, c1), is c1·s - c2·t = 0.
    - Quasi-radial q: A_k = s·Q and B_k = t·Q, so that part is
      c·(c1·s - c2·t)·Q, nonzero for p != q: the tangent cone, in which pq
      is a simple line unless Q(c2, c1) = 0.
    - Any other q: c1·A_k - c2·B_k takes at (c2, c1) the value T(c2, c1) of
      T = t·A_k - s·B_k, the classification's nonzero criterion of degree
      k + 1.  Where that value is not 0, c1·A_k - c2·B_k is the tangent cone
      and pq is not one of its lines.
    Q and T are forms, so they vanish at (c2, c1) exactly when at p - q: the
    excluded centers are q and the lines through q in the root directions of
    Q or T, among them every center whose polar vanishes identically.

    Notes the case at q (s, t written x, y); returns the multiplicity of pq
    in the cone off the excluded centers, and Q or T."""
    cls = classify_singularity(web, q)
    form = cls.radial_cofactor if cls.quasi_radial else cls.criterion
    return _dichotomy_note(report, str(q), cls, f" = {format_mpoly(form)}"), form


def tangent_cone_dichotomy_numeric(report: CheckReport, cls: SingularityClass) -> int:
    """`tangent_cone_dichotomy` at an irrational singular point, from its
    exact class (`classify_irrational`), printed as an approximation."""
    return _dichotomy_note(report, f"({cls.point[0]:.6g}, {cls.point[1]:.6g})", cls, " [numeric]")


# ---------------------------------------------------------------------------
# inflexion points
# ---------------------------------------------------------------------------


def is_inflexion_point(curve: PlaneCurve, p: AffinePoint) -> bool:
    """Hessian quadratic form of the defining polynomial, evaluated on the
    tangent direction; p must be a smooth point of the curve."""
    F = curve.defining
    point = p.as_dict()
    fx = F.derivative("x").evaluate(point)
    fy = F.derivative("y").evaluate(point)
    if F.evaluate(point) != 0:
        raise PolynomialError(f"{p} is not on the curve")
    if fx == 0 and fy == 0:
        raise PolynomialError(f"{p} is a singular point of the curve")
    fxx = F.derivative("x").derivative("x").evaluate(point)
    fxy = F.derivative("x").derivative("y").evaluate(point)
    fyy = F.derivative("y").derivative("y").evaluate(point)
    u, v = -fy, fx
    return fxx * u * u + 2 * fxy * u * v + fyy * v * v == 0


def _at_center(f: MPoly) -> MPoly:
    """f with x -> a and y -> b."""
    return f.substitute({"x": A_VAR, "y": B_VAR})


def inflexion_lemma_check(web: SymWeb) -> CheckReport:
    """p is an inflexion point of its own polar P_p iff p lies on E(F).

    One exact identity proves it at every regular p.  Let P(a, b; x, y) be
    the parametric polar and take its partials at x = a, y = b.  The Hessian
    form on the tangent direction (u, v) = (-P_y, P_x) is then a polynomial
    in the center, and it is a nonzero constant c times E(a, b).  At a
    regular p, grad P_p(p) = s*(-B, A) != 0, with s the nonzero scale of the
    web's form, so p is a smooth point of P_p and inflects exactly where that
    form vanishes, that is, on E(F)."""
    report = CheckReport("inflexion-lemma")
    e = inflexion_of_field(*web.field)
    if e.is_zero():
        report.add("inflexion divisor", True, "identically zero (all leaves lines); check skipped")
        return report
    P = polar_family(web).parametric
    px, py = P.derivative("x"), P.derivative("y")
    pxx, pxy, pyy = (_at_center(f) for f in (px.derivative("x"), px.derivative("y"), py.derivative("y")))
    u, v = -_at_center(py), _at_center(px)
    c = _proportionality(_at_center(e), pxx * u * u + pxy * u * v * 2 + pyy * v * v)
    report.add(
        "Hessian of P_p at p on its tangent = c·E(p)",
        c is not None,
        f"c = {c}" if c is not None else "not a constant multiple of E",
    )
    return report


# ---------------------------------------------------------------------------
# class of a curve (degree of the dual)
# ---------------------------------------------------------------------------


def class_of_curve(curve: PlaneCurve) -> int:
    """Number of tangent lines to the curve through a generic point.

    The polar's center is left symbolic.  Shear F by the first lam of
    `proper_shears`, so that F_lam is y-proper of y-degree n, and let
    G = (a - x)*F_x + (b - y)*F_y + n*F be the polar of F from [a:b:1].
    R = Res_y(F_lam, G_lam) lies in Q[a, b, x], and the class is
    deg_x R - deg_x C, with C the gcd of R's coefficients over the monomials
    in (a, b):
    - A point of F lies on every polar exactly when F_x = F_y = 0 there, so
      C is the part of R that every center shares.
    - C holds each affine singular point's generic intersection multiplicity
      with the polar, mu + m - 1 (Teissier), also when several singular
      points share a column x.
    - Points at infinity never enter deg_x R, because F_lam is y-proper.  For
      a generic center, the only points of F at infinity on its polar are
      singular points, so they are all that deg_x R loses of n(n - 1).
    - What remains counts the tangency points of a generic center: the class.
    R is never expanded in (a, b).  G is linear in the center and takes n
    rows of the Sylvester matrix, so R has total degree at most n in (a, b).
    The triangle of nodes {(i, j) : i + j <= n} is unisolvent for that
    degree: the values R(i, j, x) are the coefficients of R over the center
    monomials times an invertible matrix, so both span the same Q-space.
    Hence deg_x R is the largest x-degree at a node, and C is the gcd of the
    node values.  At a node, Res_y(F_lam, G_lam(i, j)) is R(i, j, x) times a
    power of F_lam's constant leading coefficient when G's y-degree drops,
    which leaves the span alone.  A node where G or the resultant vanishes
    adds nothing, and where G is a c(x) free of y the resultant is c^n.

    The nodes stop at the Bezout bound.  With F_n the top form of F, the
    part of G of degree n in (x, y) is n·F_n - x·(F_n)_x - y·(F_n)_y = 0
    (Euler), so G has total degree at most n - 1 at every center.  A node
    value, the resultant of curves of degrees n and n - 1 (or c^n), then
    has x-degree at most n(n - 1), the class of a smooth curve.  So once
    one node value reaches n(n - 1) and the running gcd of the values is
    constant, the class is n(n - 1) whatever the other nodes give: a smooth
    curve takes two resultants, a singular one takes them all.

    F itself is read, never its square-free part: every node value vanishes
    exactly when F is not reduced.  A repeated factor of F divides F_x, F_y,
    so every G, and it keeps a positive y-degree after the shear.  For
    reduced F, gcd(F, F_x, F_y) = 1, so R is not zero, nor, as the nodes are
    unisolvent, is every node value."""
    F = curve.raw
    n = F.total_degree()
    if n < 2:
        raise PolynomialError("class of a line (degree < 2) is not defined here")
    G = (A_VAR - X) * F.derivative("x") + (B_VAR - Y) * F.derivative("y") + F * n
    lam = next(proper_shears([F]))
    F_lam, G_lam = shear(F, lam), shear(G, lam)
    bound, top, common = n * (n - 1), 0, None
    for i in range(n + 1):
        for j in range(n + 1 - i):
            g = G_lam.substitute({"a": i, "b": j})
            r = g and (resultant(F_lam, g, "y") if g.degree_in("y") else g**n)
            if not r:
                continue
            top = max(top, r.degree_in("x"))
            if common is None:
                common = r
            elif not common.is_constant():
                common = poly_gcd(common, r)
            if top == bound and common.is_constant():
                return bound
    if common is None:
        raise PolynomialError("class_of_curve needs a reduced curve")
    return top - common.degree_in("x")


# ---------------------------------------------------------------------------
# quasi-radial count bound
# ---------------------------------------------------------------------------


def count_quasi_radial(web: SymWeb) -> tuple[int, list[str]]:
    """(#quasi-radial singular points, descriptions)."""
    sing = singular_set(web)
    classes = [(str(q), classify_singularity(web, q)) for q in sing.rational]
    classes += [(f"({c.point[0]:.5g},{c.point[1]:.5g})", c) for c in classify_irrational(web, sing.groups)]
    return sum(c.quasi_radial for _, c in classes), [f"{w}: {c}" for w, c in classes]


def quasi_radial_bound_check(web: SymWeb) -> CheckReport:
    """#Sing_QR <= class(P_p) - 1 for the generic center p, by one exact
    witness on the walk of `_full_polars`, which raises when it finds none.

    A square-free curve can lose class when it specializes, never gain it.
    Let P_0 be a square-free polar of degree n = d + 1, c the generic class
    and P_t the polar at p_0 + t·v, v generic: square-free of degree n and
    of class c for generic t.  Over the valuation ring at t = 0, the closure
    of the duals of the P_t is cut out by a form of degree c with coprime
    coefficients, so its fiber at t = 0 is a curve of degree c.  It holds
    the dual of P_0, as each tangent of P_0 at a smooth point is a limit of
    tangents of the P_t.  So class(P_0) <= c, and one center with
    #QR <= class - 1 proves the bound; any other center is special."""
    report = CheckReport("qr-bound")
    if inflexion_vanishes(*web.field):
        report.add("inflexion divisor", True, "identically zero; bound check skipped (degenerate)")
        return report
    qr, descriptions = count_quasi_radial(web)
    report.notes.extend(descriptions)
    # E ≢ 0, so d >= 1 and each polar of the walk is reduced of degree >= 2
    for p, curve, _ in _full_polars(report, web, "qr-bound", f"class >= #QR + 1 = {qr + 1}"):
        cls = class_of_curve(curve)
        if qr <= cls - 1:
            report.add(f"#Sing_QR <= class(P_p) - 1 at p={p}", True, f"#QR = {qr}, class = {cls}")
            return report
        report.note(f"special center {p}: class {cls} < #QR + 1")


def tangent_cone_dichotomy_check(web: SymWeb) -> CheckReport:
    """`tangent_cone_dichotomy` at every affine singular point; no sample."""
    report = CheckReport("qr-dichotomy")
    linear_identity(report, web)
    sing = singular_set(web)
    if sing.is_empty():
        report.note("the foliation has no affine singular points")
    for q in sing.rational:
        tangent_cone_dichotomy(report, web, q)
    for cls in classify_irrational(web, sing.groups):
        tangent_cone_dichotomy_numeric(report, cls)
    return report
