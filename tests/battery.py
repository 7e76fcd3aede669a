"""The fixed battery of webs and foliations used across the test suite."""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb, prod

from polarweb import AffinePoint, MPoly, SymWeb, polar_curve, web_degree

X = MPoly.variable("x")
Y = MPoly.variable("y")
DX = MPoly.variable("dx")
DY = MPoly.variable("dy")


def to_sympy(sympy, f: MPoly):
    """f as a sympy expression; the sympy module is passed in, so this file
    does not need it."""
    gens = [sympy.Symbol(v) for v in f.variables]
    return sympy.Add(*(
        sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*(s**k for s, k in zip(gens, e)))
        for e, c in f.terms.items()
    ))


def vanishes_numerically(f: MPoly, point: dict[str, complex], tol: float = 1e-9) -> bool:
    """Residual oracle: |f| at the point is at most tol times the sum of the
    term magnitudes there, or tol when that sum is below 1."""
    scale = sum(abs(float(c)) * prod(abs(complex(point[v])) ** k for v, k in zip(f.variables, e))
                for e, c in f.terms.items())
    value = sum((prod((complex(point[v]) ** k for v, k in zip(f.variables, e) if k), start=complex(c))
                 for e, c in f.terms.items()), 0j)
    return abs(value) <= tol * max(scale, 1.0)


def nonzero_int(sampler) -> int:
    """A nonzero integer from [-9, 9], drawn by rejection from the stream of
    a `GenericSampler`."""
    while (value := sampler.rng.randint(-9, 9)) == 0:
        pass
    return value


def break_family(monkeypatch):
    """Add a*x^2 to every polar family, so that P is no longer the polar."""
    from polarweb import polarops

    family = polarops.polar_family
    broken = MPoly.variable("a") * X**2
    monkeypatch.setattr(polarops, "polar_family", lambda web: polarops.PolarFamily(family(web).parametric + broken))


def divisibility_multiplicity(f: MPoly, g: MPoly) -> int:
    """Largest m with g^m | f, for nonzero f and nonconstant g."""
    from polarweb.mpoly import try_exact_div

    m = 0
    while (q := try_exact_div(f, g)) is not None:
        f, m = q, m + 1
    return m


def cone_multiplicity(fol: SymWeb, q: AffinePoint, p: AffinePoint) -> int:
    """Multiplicity of the line pq in the tangent cone of the polar P_p at a
    rational singular point q, from the jets of P_p at q, one center at a
    time: the reference that the dichotomy's identity is checked against."""
    from polarweb.mpoly import jet_decompose

    jets = jet_decompose(polar_curve(fol, p).raw, ("x", "y"), (q.a, q.b))
    line = MPoly.constant(p.b - q.b) * X - MPoly.constant(p.a - q.a) * Y
    return divisibility_multiplicity(jets[min(jets)], line)


def _float_shift(f: MPoly, q: tuple[complex, complex]) -> dict:
    """f(x + q_x, y + q_y) in complex floats, as a term dict {(i, j): c}, by
    binomial expansion: the reference's own shift, apart from the program's
    exact germs."""
    out: dict = {}
    ix, iy = (f.variables.index(v) if v in f.variables else None for v in ("x", "y"))
    for e, c in f.terms.items():
        i, j = (e[k] if k is not None else 0 for k in (ix, iy))
        for a in range(i + 1):
            for b in range(j + 1):
                out[(a, b)] = out.get((a, b), 0j) + complex(c) * comb(i, a) * q[0] ** (i - a) * comb(j, b) * q[1] ** (j - b)
    return out


def _float_clean(terms: dict, tol: float = 1e-8) -> dict:
    """terms scaled to norm 1, without those below tol."""
    norm = max(abs(c) for c in terms.values())
    return {e: c / norm for e, c in terms.items() if abs(c) > tol * norm}


def numeric_cone_multiplicity(fol: SymWeb, q: tuple[complex, complex], p: AffinePoint,
                              tol: float = 1e-6) -> int:
    """The same multiplicity at an irrational q, in floats: the order at
    tau = 0 of C(v + tau*w), C the cone of P_p at q, v = p - q and w a unit
    vector off v, counted as the Taylor coefficients below tol relative to
    the cone."""
    terms = _float_clean(_float_shift(polar_curve(fol, p).raw, q))
    order = min(i + j for i, j in terms)
    v = (complex(p.a) - q[0], complex(p.b) - q[1])
    along_x = abs(v[1]) >= abs(v[0])  # w = (1, 0), else (0, 1)
    taylor = [0j] * (order + 1)
    for (i, j), c in terms.items():
        if i + j == order:
            moved, fixed = (i, v[1] ** j) if along_x else (j, v[0] ** i)
            base = v[0] if along_x else v[1]
            for m in range(moved + 1):
                taylor[m] += c * fixed * comb(moved, m) * base ** (moved - m)
    scale = (1 + abs(v[0]) + abs(v[1])) ** order
    return next(m for m, t in enumerate(taylor) if abs(t) > tol * scale)


def rational_dichotomy_mismatches(fol: SymWeb, q: AffinePoint, seed: int, centers: int) -> list[tuple]:
    """(q, p, multiplicity the dichotomy claims, multiplicity of the cone)
    for each of `centers` seeded centers p off the lines that the dichotomy
    excludes at the rational singular point q where the two differ; p is
    None when the centers could not avoid those lines."""
    from polarweb.foliation import tangent_cone_dichotomy
    from polarweb.reports import CheckReport
    from polarweb.sampling import GenericSampler

    mult, form = tangent_cone_dichotomy(CheckReport("qr-dichotomy"), fol, q)
    sampler = GenericSampler(seed)
    admitted = [p for p in (sampler.center() for _ in range(50 * centers))
                if p != q and form.evaluate({"x": p.a - q.a, "y": p.b - q.b}) != 0][:centers]
    out = [(q, p, mult, cone) for p in admitted if (cone := cone_multiplicity(fol, q, p)) != mult]
    return out + [(q, None, mult, None)] * (len(admitted) < centers)


def dichotomy_mismatches(fol: SymWeb, seed: int, centers: int) -> list[tuple]:
    """`rational_dichotomy_mismatches` at every affine singular point; at an
    irrational one, classified exactly on its group, the first `centers`
    seeded centers against the cone in floats."""
    from polarweb.foliation import classify_irrational, tangent_cone_dichotomy_numeric
    from polarweb.reports import CheckReport
    from polarweb.sampling import GenericSampler
    from polarweb.webmodel import singular_set

    sing = singular_set(fol)
    out = [m for q in sing.rational for m in rational_dichotomy_mismatches(fol, q, seed, centers)]
    for cls in classify_irrational(fol, sing.groups):
        q = cls.point
        mult = tangent_cone_dichotomy_numeric(CheckReport("qr-dichotomy"), cls)
        sampler = GenericSampler(seed)
        out += [(q, p, mult, cone) for p in (sampler.center() for _ in range(centers))
                if (cone := numeric_cone_multiplicity(fol, q, p)) != mult]
    return out


@dataclass
class Entry:
    name: str
    web: SymWeb
    foliation: SymWeb | None  # the web itself when k = 1
    is_radial_pencil: bool = False


def random_foliation(seed: int, max_degree: int = 3) -> SymWeb:
    """Seeded random vector field with small integer coefficients."""
    rng = random.Random(seed)
    monos = [
        (i, j)
        for d in range(max_degree + 1)
        for i in range(d + 1)
        for j in [d - i]
    ]

    def poly() -> MPoly:
        total = MPoly.zero()
        for (i, j) in monos:
            c = rng.randint(-3, 3)
            if c and rng.random() < 0.5:
                total = total + MPoly(("x", "y"), {(i, j): c})
        return total

    while True:
        A, B = poly(), poly()
        if A.is_zero() or B.is_zero():
            continue
        fol = SymWeb.of_field(A, B)
        try:
            d = web_degree(fol)
        except Exception:
            continue
        if d >= 1:
            return fol


def build_battery() -> list[Entry]:
    w_product = SymWeb(DX * DY)
    w_radial = SymWeb(X * DY - Y * DX)
    w_circles = SymWeb(X * DX + Y * DY)
    w_sqrt = SymWeb(DY**2 - X * DX**2)
    sup1 = SymWeb(w_radial.form * DX)
    sup2 = SymWeb(w_circles.form * w_sqrt.form)
    sup3 = SymWeb(DX * DY * w_radial.form)
    fol_squares = SymWeb.of_field(X**2, Y**2)
    fol_hamiltonian = SymWeb.of_field(2 * Y, 3 * X**2)
    fol_qr = SymWeb.of_field(X - Y**2, Y + X**2)
    fol_saddle = SymWeb.of_field(X, -Y + X**2)
    fol_rand1 = random_foliation(101, max_degree=2)
    fol_rand2 = random_foliation(202, max_degree=3)
    entries = [
        Entry("product dx*dy", w_product, None),
        Entry("radial pencil", w_radial, w_radial, is_radial_pencil=True),
        Entry("circle pencil x*dx+y*dy", w_circles, w_circles),
        Entry("sqrt web dy^2-x*dx^2", w_sqrt, None),
        Entry("radial x vertical", sup1, None),
        Entry("circles x sqrt (k=3)", sup2, None),
        Entry("triple product (k=3)", sup3, None),
        Entry("A=x^2 B=y^2", fol_squares, fol_squares),
        Entry("A=2y B=3x^2", fol_hamiltonian, fol_hamiltonian),
        Entry("quasi-radial perturbation", fol_qr, fol_qr),
        Entry("saddle perturbation", fol_saddle, fol_saddle),
        Entry("random foliation #1", fol_rand1, fol_rand1),
        Entry("random foliation #2", fol_rand2, fol_rand2),
    ]
    return entries


BATTERY = build_battery()
FOLIATIONS = [e for e in BATTERY if e.foliation is not None and not e.is_radial_pencil]
WEBS_K2 = [e for e in BATTERY if e.web.k >= 2]
