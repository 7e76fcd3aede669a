"""Plane webs and foliations on an affine chart of the projective plane.

A k-web is stored as a symmetric form of degree k in (dx, dy) with polynomial
coefficients in (x, y).  A foliation is exactly the k = 1 case, with the
convention that the vector field A d/dx + B d/dy corresponds to the form
A*dy - B*dx.  Curves are scalar-insensitive, so every reported equation is the
primitive integer representative with positive graded-lex leading coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DegenerateSampleError, PolynomialError, WebValidationError
from .mpoly import (
    MPoly,
    discriminant_binary,
    binary_form_degree,
    poly_gcd,
    squarefree_part,
    try_exact_div,
)
from .solve import ZeroSet, common_zeros, univariate_root_split, vanishes_numerically

X = MPoly.variable("x")
Y = MPoly.variable("y")
DX = MPoly.variable("dx")
DY = MPoly.variable("dy")


@dataclass(frozen=True)
class AffinePoint:
    a: Fraction
    b: Fraction

    @staticmethod
    def of(a, b) -> "AffinePoint":
        return AffinePoint(Fraction(a), Fraction(b))

    def as_dict(self) -> dict[str, Fraction]:
        return {"x": self.a, "y": self.b}

    def __str__(self):
        return f"({self.a}, {self.b})"


@dataclass(frozen=True)
class Direction:
    """Projective tangent direction (u : v), exact when rational."""

    u: Fraction | None = None
    v: Fraction | None = None
    approx: tuple[complex, complex] | None = None

    @staticmethod
    def exact(u, v) -> "Direction":
        u, v = Fraction(u), Fraction(v)
        if u == 0 and v == 0:
            raise PolynomialError("zero direction")
        if u != 0:
            return Direction(Fraction(1), v / u, None)
        return Direction(Fraction(0), Fraction(1), None)

    @staticmethod
    def numeric(u: complex, v: complex) -> "Direction":
        if abs(u) >= abs(v):
            return Direction(None, None, (1.0 + 0j, v / u))
        return Direction(None, None, (u / v, 1.0 + 0j))

    @property
    def is_exact(self) -> bool:
        return self.approx is None

    def as_complex(self) -> tuple[complex, complex]:
        if self.is_exact:
            return complex(self.u), complex(self.v)
        return self.approx

    def __str__(self):
        if self.is_exact:
            return f"({self.u}:{self.v})"
        u, v = self.approx
        return f"({u:.6g}:{v:.6g})"


@dataclass
class PlaneCurve:
    """Reduced affine plane curve; `raw` keeps multiplicities when an operation
    produces a non-reduced equation."""

    defining: MPoly
    raw: MPoly

    def __init__(self, poly: MPoly):
        if poly.is_zero():
            raise PolynomialError("a plane curve needs a nonzero equation")
        extra = set(poly.variables) - {"x", "y"}
        if extra:
            raise PolynomialError(f"curve equation involves {sorted(extra)}")
        self.raw = poly.canonical()
        self.defining = squarefree_part(self.raw)

    @property
    def degree(self) -> int:
        return max(self.defining.total_degree(), 0)

    @property
    def raw_degree(self) -> int:
        return max(self.raw.total_degree(), 0)

    @property
    def is_empty(self) -> bool:
        return self.defining.is_constant()

    def contains(self, p: AffinePoint) -> bool:
        return self.defining.evaluate(p.as_dict()) == 0

    def contains_numeric(self, pt: tuple[complex, complex]) -> bool:
        return vanishes_numerically(self.defining, {"x": pt[0], "y": pt[1]})

    def __eq__(self, other):
        return isinstance(other, PlaneCurve) and self.defining == other.defining

    def __str__(self):
        return str(self.defining)


@dataclass
class SingularSet:
    """Zero set of the web coefficients, with its exact eliminants."""

    points: list[AffinePoint]
    numeric_points: list[tuple[complex, complex]]
    generators: list[MPoly]
    elim_x: MPoly | None
    elim_y: MPoly | None

    def is_empty(self) -> bool:
        return not self.points and not self.numeric_points

    def contains(self, p: AffinePoint) -> bool:
        return all(g.evaluate(p.as_dict()) == 0 for g in self.generators)

    def contains_numeric(self, pt: tuple[complex, complex]) -> bool:
        return all(vanishes_numerically(g, {"x": pt[0], "y": pt[1]}) for g in self.generators)


class SymWeb:
    """A k-web given by a symmetric form, homogeneous of degree k in (dx, dy).

    The coefficient polynomials must be coprime (codimension-2 singular set);
    a web that fails generic square-freeness (zero discriminant) is accepted
    but flagged, since superposition of overlapping webs produces it.
    """

    def __init__(self, form: MPoly, saturate: bool = False):
        if form.is_zero():
            raise WebValidationError("zero symmetric form")
        extra = set(form.variables) - {"x", "y", "dx", "dy"}
        if extra:
            raise WebValidationError(f"form involves unexpected variables {sorted(extra)}")
        try:
            k = binary_form_degree(form, "dx", "dy")
        except PolynomialError as e:
            raise WebValidationError(str(e))
        if k < 1:
            raise WebValidationError("form has degree 0 in (dx, dy)")
        coeffs = _dxdy_coefficients(form, k)
        nonzero = [c for c in coeffs if not c.is_zero()]
        g = nonzero[0]
        for c in nonzero[1:]:
            if g.is_constant():
                break
            g = poly_gcd(g, c)
        if not g.is_constant():
            if saturate:
                form = _divide_coefficients(form, g, k)
            else:
                raise WebValidationError(
                    f"coefficients share the factor {g}; the singular set is a curve"
                )
        self.form = form.canonical()
        self.k = k
        self._degree: int | None = None
        self._discriminant: MPoly | None = None

    # -- structure -----------------------------------------------------------

    def coefficients(self) -> list[MPoly]:
        """a_i(x, y) with form = sum a_i dx^(k-i) dy^i, ascending in dy."""
        return _dxdy_coefficients(self.form, self.k)

    @property
    def discriminant_form(self) -> MPoly:
        if self._discriminant is None:
            self._discriminant = discriminant_binary(self.form)
        return self._discriminant

    @property
    def generically_squarefree(self) -> bool:
        return not self.discriminant_form.is_zero()

    def __eq__(self, other):
        return isinstance(other, SymWeb) and self.form == other.form

    def __str__(self):
        return f"{self.k}-web[{self.form}]"


def foliation_web(A: MPoly, B: MPoly) -> SymWeb:
    """The k=1 web of the vector field A d/dx + B d/dy (form A*dy - B*dx)."""
    if A.is_zero() and B.is_zero():
        raise WebValidationError("zero vector field")
    return SymWeb(A * DY - B * DX)


def radial_web(p: AffinePoint) -> SymWeb:
    """Lines through p: the degree-0 foliation (x-a)dy - (y-b)dx."""
    return SymWeb((X - MPoly.constant(p.a)) * DY - (Y - MPoly.constant(p.b)) * DX)


def _dxdy_coefficients(form: MPoly, k: int) -> list[MPoly]:
    out = [MPoly.zero()] * (k + 1)
    by_dy = form.coeffs_in("dy")
    for i, ci in enumerate(by_dy):
        if ci.is_zero():
            continue
        rest = ci.coeffs_in("dx")
        expect = k - i
        for j, cj in enumerate(rest):
            if cj.is_zero():
                continue
            if j != expect:
                raise WebValidationError("form not homogeneous in (dx, dy)")
            out[i] = cj
    return out


def _divide_coefficients(form: MPoly, g: MPoly, k: int) -> MPoly:
    coeffs = _dxdy_coefficients(form, k)
    total = MPoly.zero()
    for i, c in enumerate(coeffs):
        if c.is_zero():
            continue
        q = try_exact_div(c, g)
        if q is None:
            raise WebValidationError("saturation failed")
        total = total + q * DX ** (k - i) * DY**i
    return total


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


@dataclass
class Superposition:
    web: SymWeb
    squarefree_warning: bool


def superpose(w1: SymWeb, w2: SymWeb) -> Superposition:
    """Product of symmetric forms; the (k1+k2)-web whose leaves are the union."""
    product = w1.form * w2.form
    web = SymWeb(product)
    return Superposition(web, squarefree_warning=not web.generically_squarefree)


def web_degree(web: SymWeb) -> int:
    """Degree of the tangency divisor with a generic line.

    The degree in t of the form on the line (x, y, dx, dy) =
    (l1*t + m1, l2*t + m2, l1, l2), with l1, l2, m1 and m2 kept as symbols,
    so the value is the generic one by definition.
    """
    if web._degree is None:
        t, l1, l2 = MPoly.variable("t"), MPoly.variable("l1"), MPoly.variable("l2")
        line = {"x": l1 * t + MPoly.variable("m1"), "y": l2 * t + MPoly.variable("m2"),
                "dx": l1, "dy": l2}
        restricted = web.form.substitute({v: p for v, p in line.items() if v in web.form.variables})
        web._degree = restricted.degree_in("t")
    return web._degree


def singular_set(web: SymWeb) -> SingularSet:
    """Common zeros of the coefficients a_i(x, y); finite for a valid web."""
    gens = [c for c in web.coefficients() if not c.is_zero()]
    if any(c.is_constant() for c in gens):
        return SingularSet([], [], gens, None, None)
    zs: ZeroSet = common_zeros(gens)
    pts = [AffinePoint(a, b) for a, b in zs.rational]
    return SingularSet(pts, zs.numeric, gens, zs.elim_x, zs.elim_y)


def discriminant_curve(web: SymWeb) -> PlaneCurve:
    """Reduced zero set of the (dx:dy)-discriminant; empty for foliations."""
    disc = web.discriminant_form
    if disc.is_zero():
        raise WebValidationError("web is not generically square-free; discriminant vanishes")
    if disc.is_constant():
        return PlaneCurve(MPoly.constant(1))
    return PlaneCurve(disc)


def on_discriminant(web: SymWeb, p: AffinePoint) -> bool:
    disc = web.discriminant_form
    if disc.is_constant():
        return False
    return disc.evaluate(p.as_dict()) == 0


def form_at(web: SymWeb, p: AffinePoint) -> MPoly:
    """The web's binary form at p, written in (x, y) in place of (dx, dy), the
    variables of a tangent cone at p."""
    subs = {"x": MPoly.constant(p.a), "y": MPoly.constant(p.b), "dx": X, "dy": Y}
    return web.form.substitute({v: f for v, f in subs.items() if v in web.form.variables})


def tangent_directions(web: SymWeb, p: AffinePoint) -> list[Direction]:
    """The k leaf directions (u:v) at a smooth point, roots of form(p; u, v)."""
    smooth, reason = is_smooth_point(web, p)
    if not smooth:
        if "singular" in reason:
            raise DegenerateSampleError(f"tangent directions undefined: {reason}")
        raise DegenerateSampleError(f"repeated direction: {reason}")
    dirs = [d for d, _ in binary_form_factors(form_at(web, p))]
    if len(dirs) != web.k:
        raise DegenerateSampleError(
            f"expected {web.k} distinct directions at {p}, found {len(dirs)}"
        )
    return dirs


def binary_form_factors(form: MPoly, xvar: str = "x", yvar: str = "y") -> list[tuple[Direction, int]]:
    """Linear factors (direction, multiplicity) over C of a homogeneous binary
    form in (xvar, yvar); directions are exact where rational."""
    k = form.total_degree()
    coeffs = [MPoly.zero()] * (k + 1)
    ix = form.variables.index(xvar) if xvar in form.variables else None
    iy = form.variables.index(yvar) if yvar in form.variables else None
    for e, c in form.terms.items():
        i = e[iy] if iy is not None else 0
        j = e[ix] if ix is not None else 0
        if i + j != k:
            raise PolynomialError("not a homogeneous binary form")
        coeffs[i] = coeffs[i] + MPoly.constant(c)
    out: list[tuple[Direction, int]] = []
    tail = next((j for j in range(k, -1, -1) if not coeffs[j].is_zero()), None)
    if tail is not None and tail < k:
        out.append((Direction.exact(0, 1), k - tail))
    poly = MPoly.from_coeffs_in("t", coeffs)
    if poly.degree_in("t") > 0:
        rat, num = univariate_root_split(poly, "t")
        for r, m in rat:
            out.append((Direction.exact(1, r), m))
        for z, m in num:
            out.append((Direction.numeric(1.0 + 0j, z), m))
    return out


def is_smooth_point(web: SymWeb, p: AffinePoint) -> tuple[bool, str]:
    """Smooth = off the singular set and off the discriminant."""
    point = p.as_dict()
    if all(c.evaluate(point) == 0 for c in web.coefficients()):
        return False, f"{p} is a singular point of the web"
    disc = web.discriminant_form
    if disc.is_zero():
        return False, "web is not generically square-free"
    if not disc.is_constant() and disc.evaluate(point) == 0:
        return False, f"{p} lies on the discriminant"
    return True, "off Sing(W) and off the discriminant"
