"""Foliation-specific analysis of polar curves.

A foliation is the k = 1 web of a vector field A d/dx + B d/dy with coprime
polynomial components.  This module computes the inflexion divisor, classifies
singular points as quasi-radial or not through the first nonzero jet pair,
verifies the tangent-cone dichotomy of the polar at singular points, proves the
inflexion-at-center equivalence by one exact identity in the center of the
polar family, and computes the class of a curve (degree of its dual) to bound
the number of quasi-radial singularities.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InternalInvariantError, PolynomialError, WebValidationError
from .mpoly import (
    MPoly,
    divisibility_multiplicity,
    exact_div,
    gcd_fold,
    jet_decompose,
    poly_gcd,
    proper_shears,
    resultant,
    shear,
    try_exact_div,
)
from .localsing import cp_clean, cp_from_mpoly, cp_norm, cp_translate
from .numerics import univariate_roots
from .polarops import (
    A_VAR, B_VAR, PolarFamily, RadialProduct, _proportionality, polar_curve, polar_family,
)
from .reports import CheckReport
from .sampling import GenericSampler, sample_centers
from .solve import certify_membership_tolerance, common_zeros
from .webmodel import DX, DY, AffinePoint, PlaneCurve, SymWeb, singular_set, web_degree

X = MPoly.variable("x")
Y = MPoly.variable("y")


@dataclass
class FoliationData:
    """Vector field X = A d/dx + B d/dy with gcd(A, B) = 1."""

    A: MPoly
    B: MPoly
    as_web: SymWeb
    saturated: bool = False

    def __init__(self, A: MPoly, B: MPoly):
        if A.is_zero() and B.is_zero():
            raise WebValidationError("zero vector field")
        extra = (set(A.variables) | set(B.variables)) - {"x", "y"}
        if extra:
            raise WebValidationError(f"vector field involves {sorted(extra)}")
        # the one gcd of the input; a zero component saturates the other
        g = poly_gcd(A, B)
        self.saturated = not g.is_constant()
        if self.saturated:
            A, B = exact_div(A, g), exact_div(B, g)
        # A and B are coprime now, so the form needs no second gcd
        self.A, self.B, self.as_web = A, B, SymWeb._trusted(A * DY - B * DX, 1)

    def degree(self) -> int:
        return web_degree(self.as_web)

    def polar(self, p: AffinePoint) -> PlaneCurve | RadialProduct:
        return polar_curve(self.as_web, p)

    def __str__(self):
        return f"foliation[A={self.A}, B={self.B}]"


# ---------------------------------------------------------------------------
# inflexion divisor
# ---------------------------------------------------------------------------


def inflexion_polynomial(fol: FoliationData) -> MPoly:
    """B^2 A_y + A B A_x - A^2 B_x - A B B_y, not yet reduced."""
    A, B = fol.A, fol.B
    return (
        B * B * A.derivative("y")
        + A * B * A.derivative("x")
        - A * A * B.derivative("x")
        - A * B * B.derivative("y")
    )


def inflexion_divisor(fol: FoliationData) -> PlaneCurve | None:
    """The curve of inflexion points of the leaves; None when it vanishes
    identically (every leaf is a line)."""
    e = inflexion_polynomial(fol)
    if e.is_zero():
        return None
    if e.is_constant():
        return PlaneCurve(MPoly.constant(1))
    return PlaneCurve(e)


def polar_sing_in_inflexion_check(fol: FoliationData, seed: int = 0, samples: int = 20) -> CheckReport:
    """Singular points of every polar lie on the inflexion divisor.

    The statement holds for every center, so the samples deliberately include
    non-generic points (the origin, singular points of the foliation, points
    on the inflexion divisor itself)."""
    report = CheckReport("sing-in-inflexion", seed=seed, samples_requested=samples)
    e = inflexion_divisor(fol)
    if e is None:
        report.add("inflexion divisor", True, "identically zero: all leaves are lines; check skipped")
        return report
    sampler = GenericSampler(seed)
    fixed = [AffinePoint.of(0, 0), AffinePoint.of(1, 0), AffinePoint.of(0, 1)]
    fixed += singular_set(fol.as_web).points[:2]

    def draw():
        return fixed.pop(0) if fixed else sampler.center()

    def admissible(p):
        curve = fol.polar(p)
        if isinstance(curve, RadialProduct):
            return None, "polar degenerates (radial factor)"
        F = curve.defining
        fx, fy = F.derivative("x"), F.derivative("y")
        if fx.is_zero() and fy.is_zero():
            return None, "polar gradient vanishes identically"
        return [F, fx, fy], None

    for _, p, gens in sample_centers(report, sampler, samples, admissible, draw):
        zs = common_zeros(gens)
        bad = []
        for q in zs.rational:
            on_divisor = (not e.is_empty) and e.defining.evaluate({"x": q[0], "y": q[1]}) == 0
            if not on_divisor:
                bad.append(f"({q[0]},{q[1]})")
        for q in zs.numeric:
            if e.is_empty or not e.contains_numeric(q):
                bad.append(f"({q[0]:.5g},{q[1]:.5g})")
        report.add(
            f"Sing(P_p) ⊆ E(F) at p={p}",
            not bad,
            f"{len(zs)} singular point(s)" + (f"; violations {bad}" if bad else ""),
            exact=not zs.numeric,
        )
    certify_membership_tolerance(report)
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
    exact: bool

    def __str__(self):
        kind = "quasi-radial" if self.quasi_radial else "not quasi-radial"
        return f"{kind} (first jet order {self.first_jet_order})"


def classify_singularity(fol: FoliationData, q: AffinePoint) -> SingularityClass:
    """Quasi-radial iff the first nonzero jet pair is a multiple of the radial
    field: y*A_k - x*B_k = 0, i.e. A_k = x*P and B_k = y*P."""
    point = q.as_dict()
    if fol.A.evaluate(point) != 0 or fol.B.evaluate(point) != 0:
        raise PolynomialError(f"{q} is not a singular point of the foliation")
    ja = jet_decompose(fol.A, ("x", "y"), (q.a, q.b))
    jb = jet_decompose(fol.B, ("x", "y"), (q.a, q.b))
    orders = sorted(set(ja) | set(jb))
    k = next(o for o in orders if o in ja or o in jb)
    ak = ja.get(k, MPoly.zero())
    bk = jb.get(k, MPoly.zero())
    crit = Y * ak - X * bk
    if not crit.is_zero():
        return SingularityClass(q, k, False, None, True)
    cofactor = exact_div(ak, X) if not ak.is_zero() else exact_div(bk, Y)
    if ak != X * cofactor or bk != Y * cofactor:
        raise InternalInvariantError("quasi-radial cofactor extraction failed")
    return SingularityClass(q, k, True, cofactor, True)


def classify_singularity_numeric(
    fol: FoliationData, q: tuple[complex, complex]
) -> SingularityClass:
    """Jet-pair criterion at a non-rational singular point, with tolerances.
    A and B are scaled by one norm: the criterion compares their jets."""
    ta = cp_translate(cp_from_mpoly(fol.A), q[0], q[1])
    tb = cp_translate(cp_from_mpoly(fol.B), q[0], q[1])
    norm = max(cp_norm(ta), cp_norm(tb))
    ca, cb = cp_clean(ta, norm), cp_clean(tb, norm)
    if not ca and not cb:
        raise PolynomialError("vector field vanishes identically at the point")
    orders = [i + j for i, j in ca] + [i + j for i, j in cb]
    k = min(orders)
    if k == 0:
        raise PolynomialError("point is not singular (jet order 0)")
    ak = {e: c for e, c in ca.items() if e[0] + e[1] == k}
    bk = {e: c for e, c in cb.items() if e[0] + e[1] == k}
    crit: dict = {}
    for (i, j), c in ak.items():
        crit[(i, j + 1)] = crit.get((i, j + 1), 0j) + c
    for (i, j), c in bk.items():
        crit[(i + 1, j)] = crit.get((i + 1, j), 0j) - c
    scale = max(cp_norm(ak), cp_norm(bk))
    qr = cp_norm(crit) <= 1e-7 * scale
    return SingularityClass(q, k, qr, None, False)


# ---------------------------------------------------------------------------
# tangent-cone dichotomy at singular points
# ---------------------------------------------------------------------------


def line_multiplicity_in_cone(cone: MPoly, a1: Fraction, b1: Fraction) -> int:
    """Multiplicity of the line b1*x - a1*y in a homogeneous cone (exact)."""
    line = MPoly.constant(b1) * X - MPoly.constant(a1) * Y
    return divisibility_multiplicity(cone, line)


def tangent_cone_dichotomy(
    fol: FoliationData, q: AffinePoint, seed: int = 0, samples: int = 20
) -> CheckReport:
    """Line through center and singular point divides the polar's tangent cone
    exactly once for quasi-radial singularities, never otherwise."""
    report = CheckReport("qr-dichotomy", seed=seed, samples_requested=samples)
    cls = classify_singularity(fol, q)
    report.note(f"singular point {q}: {cls}")
    ja = jet_decompose(fol.A, ("x", "y"), (q.a, q.b))
    jb = jet_decompose(fol.B, ("x", "y"), (q.a, q.b))
    ak = ja.get(cls.first_jet_order, MPoly.zero())
    bk = jb.get(cls.first_jet_order, MPoly.zero())

    def admissible(p):
        if p == q:
            return None, "center equals the singular point"
        curve = fol.polar(p)
        if isinstance(curve, RadialProduct):
            return None, "polar degenerates"
        a1, b1 = p.a - q.a, p.b - q.b
        if not cls.quasi_radial:
            val = (
                Fraction(b1) * ak.evaluate({v: (a1 if v == "x" else b1) for v in ak.variables})
                - Fraction(a1) * bk.evaluate({v: (a1 if v == "x" else b1) for v in bk.variables})
            )
            if val == 0:
                return None, "center on the measure-zero containment locus"
        else:
            line = MPoly.constant(b1) * X - MPoly.constant(a1) * Y
            if try_exact_div(cls.radial_cofactor, line) is not None:
                return None, "line through p and q divides the radial cofactor"
        return curve, None

    for _, p, curve in sample_centers(report, GenericSampler(seed), samples, admissible):
        jets = jet_decompose(curve.raw, ("x", "y"), (q.a, q.b))
        order = min(jets)
        cone = jets[order]
        if order != cls.first_jet_order:
            report.note(f"cone at order {order} (deeper than the first jet order {cls.first_jet_order})")
        mult = line_multiplicity_in_cone(cone, p.a - q.a, p.b - q.b)
        expected = 1 if cls.quasi_radial else 0
        report.add(
            f"line-pq multiplicity at p={p}",
            mult == expected,
            f"multiplicity {mult}, expected {expected}",
        )
    return report


def tangent_cone_dichotomy_numeric(
    fol: FoliationData, q: tuple[complex, complex], seed: int = 0, samples: int = 20
) -> CheckReport:
    """Dichotomy at a non-rational singular point: cone-root counting with
    clustering replaces exact line division."""
    report = CheckReport("qr-dichotomy-numeric", seed=seed, samples_requested=samples)
    cls = classify_singularity_numeric(fol, q)
    report.note(f"singular point ({q[0]:.6g}, {q[1]:.6g}): {cls}")

    def admissible(p):
        curve = fol.polar(p)
        if isinstance(curve, RadialProduct):
            return None, "polar degenerates"
        return curve, None

    for _, p, curve in sample_centers(report, GenericSampler(seed), samples, admissible):
        cp = cp_clean(cp_translate(cp_from_mpoly(curve.raw), q[0], q[1]))
        order = min(i + j for i, j in cp)
        cone = {e: c for e, c in cp.items() if e[0] + e[1] == order}
        u = [0j] * (order + 1)
        for (i, j), c in cone.items():
            u[j] = c
        slope = (complex(p.b) - q[1]) / (complex(p.a) - q[0])
        top = next((j for j in range(order, -1, -1) if abs(u[j]) > 0), 0)
        mult = 0
        if top > 0:
            roots = univariate_roots(u[: top + 1])
            scale = 1.0 + max(abs(r) for r in roots) + abs(slope)
            mult = sum(1 for r in roots if abs(r - slope) < 1e-6 * scale)
        expected = 1 if cls.quasi_radial else 0
        report.add(
            f"line-pq multiplicity at p={p}",
            mult == expected,
            f"multiplicity {mult}, expected {expected} (cone order {order})",
            exact=False,
        )
    report.certify("cone_root_match_tolerance", 1e-6)
    return report


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


def inflexion_lemma_check(fol: FoliationData, seed: int = 0, samples: int = 20) -> CheckReport:
    """p is an inflexion point of its own polar P_p iff p lies on E(F).

    One exact identity proves it at every regular p.  Let P(a, b; x, y) be
    the parametric polar and take its partials at x = a, y = b.  The Hessian
    form on the tangent direction (u, v) = (-P_y, P_x) is then a polynomial
    in the center, and it is a nonzero constant c times E(a, b).  At a
    regular p, grad P_p(p) = s*(-B, A) != 0, with s the nonzero scale of the
    web's form, so p is a smooth point of P_p and inflects exactly where that
    form vanishes, that is, on E(F).  Exact
    samples off the divisor then witness the lemma at `samples` centers."""
    report = CheckReport("inflexion-lemma", seed=seed, samples_requested=samples)
    e = inflexion_polynomial(fol)
    if e.is_zero():
        report.add("inflexion divisor", True, "identically zero (all leaves lines); check skipped")
        return report
    P = polar_family(fol.as_web).parametric
    px, py = P.derivative("x"), P.derivative("y")
    pxx, pxy, pyy = (_at_center(f) for f in (px.derivative("x"), px.derivative("y"), py.derivative("y")))
    u, v = -_at_center(py), _at_center(px)
    c = _proportionality(_at_center(e), pxx * u * u + pxy * u * v * 2 + pyy * v * v)
    report.add(
        "Hessian of P_p at p on its tangent = c·E(p)",
        c is not None,
        f"c = {c}" if c is not None else "not a constant multiple of E",
    )

    def off_divisor(p):
        if fol.A.evaluate(p.as_dict()) == 0 and fol.B.evaluate(p.as_dict()) == 0:
            return None, "singular point of the foliation"
        if e.evaluate(p.as_dict()) == 0:
            return None, "accidentally on the inflexion divisor"
        curve = fol.polar(p)
        if isinstance(curve, RadialProduct):
            return None, "polar degenerates"
        return curve, None

    for _, p, curve in sample_centers(report, GenericSampler(seed), samples, off_divisor):
        report.add(
            f"p off E(F): no inflexion at p={p}",
            not is_inflexion_point(curve, p),
            "polar does not inflect at its center",
        )
    return report


# ---------------------------------------------------------------------------
# class of a curve (degree of the dual)
# ---------------------------------------------------------------------------


def class_of_curve(curve: PlaneCurve) -> int:
    """Number of tangent lines to the curve through a generic point.

    One exact resultant, with the polar's center left symbolic.  Shear F by
    the first lam of `proper_shears`, so that F_lam is y-proper, and let
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
    For n >= 2, G_lam has positive y-degree: the part in (a, b) of its
    y^(n-1) coefficient is a*F_x + b*F_y of F's top form at (lam, 1), and
    Euler's lam*F_x + F_y = n*F != 0 there keeps it nonzero."""
    if curve.raw != curve.defining:
        raise PolynomialError("class_of_curve needs a reduced curve")
    F = curve.defining
    n = F.total_degree()
    if n < 2:
        raise PolynomialError("class of a line (degree < 2) is not defined here")
    G = (A_VAR - X) * F.derivative("x") + (B_VAR - Y) * F.derivative("y") + F * n
    lam = next(proper_shears([F]))
    R = resultant(shear(F, lam), shear(G, lam), "y")
    return R.degree_in("x") - gcd_fold(PolarFamily(R).center_coefficients()).degree_in("x")


# ---------------------------------------------------------------------------
# quasi-radial count bound
# ---------------------------------------------------------------------------


def count_quasi_radial(fol: FoliationData) -> tuple[int, list[str], bool]:
    """(#quasi-radial singular points, descriptions, all-exact flag)."""
    sing = singular_set(fol.as_web)
    count = 0
    descriptions = []
    exact = True
    for q in sing.points:
        cls = classify_singularity(fol, q)
        if cls.quasi_radial:
            count += 1
        descriptions.append(f"{q}: {cls}")
    for q in sing.numeric_points:
        cls = classify_singularity_numeric(fol, q)
        exact = False
        if cls.quasi_radial:
            count += 1
        descriptions.append(f"({q[0]:.5g},{q[1]:.5g}): {cls}")
    return count, descriptions, exact


def quasi_radial_bound_check(fol: FoliationData, seed: int = 0, samples: int = 5) -> CheckReport:
    """#Sing_QR <= class(P_p) - 1 for generic centers."""
    report = CheckReport("qr-bound", seed=seed, samples_requested=samples)
    e = inflexion_divisor(fol)
    if e is None:
        report.add("inflexion divisor", True, "identically zero; bound check skipped (degenerate)")
        return report
    qr, descriptions, exact = count_quasi_radial(fol)
    for d in descriptions:
        report.note(d)

    def admissible(p):
        curve = fol.polar(p)
        if isinstance(curve, RadialProduct):
            return None, "polar degenerates"
        if curve.raw != curve.defining:
            return None, "polar not reduced"
        return class_of_curve(curve), None

    for _, p, cls in sample_centers(report, GenericSampler(seed), samples, admissible):
        report.add(
            f"#Sing_QR <= class(P_p) - 1 at p={p}",
            qr <= cls - 1,
            f"#QR = {qr}, class = {cls}",
            exact=exact,
        )
    return report
