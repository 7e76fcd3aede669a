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
from functools import cached_property
from math import perm

from .errors import DegenerateSampleError, PolynomialError, WebValidationError
from .mpoly import (
    MPoly,
    _rekey,
    _small_grid,
    discriminant_binary,
    binary_form_degree,
    gcd_fold,
    squarefree_part,
    try_exact_div,
)
from .solve import ZeroSet, common_zeros, univariate_root_split
from .zpoly import _distinct_binary_roots

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

    def __str__(self):
        if self.is_exact:
            return f"({self.u}:{self.v})"
        u, v = self.approx
        return f"({u:.6g}:{v:.6g})"


@dataclass
class PlaneCurve:
    """Reduced affine plane curve; `raw` keeps multiplicities when an operation
    produces a non-reduced equation."""

    raw: MPoly

    def __init__(self, poly: MPoly):
        if poly.is_zero():
            raise PolynomialError("a plane curve needs a nonzero equation")
        extra = set(poly.variables) - {"x", "y"}
        if extra:
            raise PolynomialError(f"curve equation involves {sorted(extra)}")
        self.raw = poly.canonical()

    @cached_property
    def defining(self) -> MPoly:
        """The reduced equation, the square-free part of `raw`, taken on
        first read: a check that reads only `raw` never pays for it."""
        return squarefree_part(self.raw)

    @property
    def degree(self) -> int:
        return max(self.defining.total_degree(), 0)

    @property
    def raw_degree(self) -> int:
        return max(self.raw.total_degree(), 0)

    @property
    def is_empty(self) -> bool:
        return self.defining.is_constant()

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
        g = gcd_fold([c for c in coeffs if not c.is_zero()])
        if g.is_constant():
            g = None
        elif saturate:
            form = _divide_coefficients(form, g, k)
        else:
            raise WebValidationError(shared_factor_message(g))
        self._set_form(form, k, g)

    def _set_form(self, form: MPoly, k: int, common_factor: MPoly | None = None) -> None:
        self.form = form.canonical()
        self.k = k
        # the factor of the coefficients that saturation divided out
        self.common_factor = common_factor
        self._degree: int | None = None
        self._discriminant: MPoly | None = None

    @classmethod
    def _trusted(cls, form: MPoly, k: int) -> "SymWeb":
        """The web of a form already known to be valid; nothing is checked."""
        web = object.__new__(cls)
        web._set_form(form, k)
        return web

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
        """Whether W has no repeated factor over Q(x, y), decided by
        witnesses without `discriminant_form`.

        A point q where the integer binary form W(q; .) has k distinct roots
        (dx : dy) is a witness: a repeated factor h^2 of W would give W(q; .)
        the repeated root of h(q; .), or make it zero.  The binary
        discriminant of the coefficients a_i(q) is a form of degree 2k - 2
        in them, so when W has no repeated factor it is a nonzero polynomial
        in q of degree at most (2k - 2)·D, D the largest degree of an a_i,
        and it does not vanish on all of S^2 for |S| > (2k - 2)·D (N. Alon,
        Combinatorial Nullstellensatz, 1999).  So the points of S^2 are
        tried in order, S the first (2k - 2)·D + 1 small integers, and only
        a form with a repeated factor reaches the end of the grid."""
        if self.k == 1:
            return True  # the discriminant of a linear form is the constant 1
        coeffs = self.coefficients()
        size = (2 * self.k - 2) * max(a.total_degree() for a in coeffs) + 1
        return any(_distinct_binary_roots([a.evaluate({"x": i, "y": j}) for a in coeffs])
                   for i, j in _small_grid(size))

    def __eq__(self, other):
        return isinstance(other, SymWeb) and self.form == other.form

    def __str__(self):
        return f"{self.k}-web[{self.form}]"


def shared_factor_message(g: MPoly) -> str:
    return f"coefficients share the factor {g}; the singular set is a curve"


def _dxdy_coefficients(form: MPoly, k: int) -> list[MPoly]:
    """a_i with form = sum a_i dx^(k-i) dy^i, for a form homogeneous of degree
    k in (dx, dy)."""
    by_dy = form.coeffs_in("dy")
    return [c.coeffs_in("dx")[-1] for c in by_dy] + [MPoly.zero()] * (k + 1 - len(by_dy))


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
    """Degree of the tangency divisor with a generic line (x, y) = l t + m.

    With F_d the part of the form of degree d in (x, y), the coefficient of
    t^j on the line is the sum over d >= j and |alpha| = d - j of the distinct
    monomials m^alpha/alpha! times (d^alpha F_d)(l; dx, dy = l), so the search
    runs down from the top degree to the first j with one of those nonzero.
    """
    if web._degree is None:
        parts: dict[int, list] = {}
        for (u, _, a, b), c in _rekey(web.form, ("dx", "dy", "x", "y")).items():
            parts.setdefault(a + b, []).append((a, b, a + u, c))
        top = max(parts)

        def nonzero(j: int, d: int, p: int) -> bool:
            # (d^p/dx^p d^q/dy^q F_d)(l; l), q = d - j - p, by its powers of l1
            q, sums = d - j - p, {}
            for a, b, s, c in parts.get(d, ()):
                if a >= p and b >= q:
                    sums[s - p] = sums.get(s - p, 0) + c * perm(a, p) * perm(b, q)
            return any(sums.values())

        web._degree = next((j for j in range(top, 0, -1) if any(
            nonzero(j, d, p) for d in range(j, top + 1) for p in range(d - j + 1))), 0)
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
    variables of a tangent cone at p: each coefficient a_i of dx^(k-i) dy^i
    is evaluated at p, a sum on ints over a common denominator."""
    point = p.as_dict()
    k = web.k
    return MPoly._make(("x", "y"), {(k - i, i): a.evaluate(point) for i, a in enumerate(web.coefficients())})


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
