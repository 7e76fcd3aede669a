"""The fixed battery of webs and foliations used across the test suite."""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb

from polarweb import AffinePoint, FoliationData, MPoly, SymWeb, superpose

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


def cone_multiplicity(fol: FoliationData, q: AffinePoint, p: AffinePoint) -> int:
    """Multiplicity of the line pq in the tangent cone of the polar P_p at a
    rational singular point q, from the jets of P_p at q, one center at a
    time: the reference that the dichotomy's identity is checked against."""
    from polarweb.mpoly import jet_decompose

    jets = jet_decompose(fol.polar(p).raw, ("x", "y"), (q.a, q.b))
    line = MPoly.constant(p.b - q.b) * X - MPoly.constant(p.a - q.a) * Y
    return divisibility_multiplicity(jets[min(jets)], line)


def numeric_cone_multiplicity(fol: FoliationData, q: tuple[complex, complex], p: AffinePoint,
                              tol: float = 1e-6) -> int:
    """The same multiplicity at an irrational q, in floats: the order at
    tau = 0 of C(v + tau*w), C the cone of P_p at q, v = p - q and w a unit
    vector off v, counted as the Taylor coefficients below tol relative to
    the cone."""
    from polarweb.localsing import cp_clean, cp_from_mpoly, cp_translate

    terms = cp_clean(cp_translate(cp_from_mpoly(fol.polar(p).raw), q[0], q[1]))
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


def rational_dichotomy_mismatches(fol: FoliationData, q: AffinePoint, seed: int, centers: int) -> list[tuple]:
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


def dichotomy_mismatches(fol: FoliationData, seed: int, centers: int) -> list[tuple]:
    """`rational_dichotomy_mismatches` at every affine singular point; at an
    irrational one, the first `centers` seeded centers against the cone in
    floats."""
    from polarweb.foliation import tangent_cone_dichotomy_numeric
    from polarweb.reports import CheckReport
    from polarweb.sampling import GenericSampler
    from polarweb.webmodel import singular_set

    sing = singular_set(fol.as_web)
    out = [m for q in sing.points for m in rational_dichotomy_mismatches(fol, q, seed, centers)]
    for q in sing.numeric_points:
        mult = tangent_cone_dichotomy_numeric(CheckReport("qr-dichotomy"), fol, q)
        sampler = GenericSampler(seed)
        out += [(q, p, mult, cone) for p in (sampler.center() for _ in range(centers))
                if (cone := numeric_cone_multiplicity(fol, q, p)) != mult]
    return out


@dataclass
class Entry:
    name: str
    web: SymWeb
    foliation: FoliationData | None
    is_radial_pencil: bool = False


def random_foliation(seed: int, max_degree: int = 3) -> FoliationData:
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
                total = total + MPoly.monomial(c, {"x": i, "y": j})
        return total

    while True:
        A, B = poly(), poly()
        if A.is_zero() or B.is_zero():
            continue
        fol = FoliationData(A, B)
        try:
            d = fol.degree()
        except Exception:
            continue
        if d >= 1:
            return fol


def build_battery() -> list[Entry]:
    w_product = SymWeb(DX * DY)
    w_radial = SymWeb(X * DY - Y * DX)
    w_circles = SymWeb(X * DX + Y * DY)
    w_sqrt = SymWeb(DY**2 - X * DX**2)
    sup1 = superpose(w_radial, SymWeb(DX)).web
    sup2 = superpose(w_circles, w_sqrt).web
    sup3 = superpose(SymWeb(DX), superpose(SymWeb(DY), w_radial).web).web
    fol_squares = FoliationData(X**2, Y**2)
    fol_hamiltonian = FoliationData(2 * Y, 3 * X**2)
    fol_qr = FoliationData(X - Y**2, Y + X**2)
    fol_saddle = FoliationData(X, -Y + X**2)
    fol_rand1 = random_foliation(101, max_degree=2)
    fol_rand2 = random_foliation(202, max_degree=3)
    entries = [
        Entry("product dx*dy", w_product, None),
        Entry("radial pencil", w_radial, _as_fol(w_radial), is_radial_pencil=True),
        Entry("circle pencil x*dx+y*dy", w_circles, _as_fol(w_circles)),
        Entry("sqrt web dy^2-x*dx^2", w_sqrt, None),
        Entry("radial x vertical", sup1, None),
        Entry("circles x sqrt (k=3)", sup2, None),
        Entry("triple product (k=3)", sup3, None),
        Entry("A=x^2 B=y^2", fol_squares.as_web, fol_squares),
        Entry("A=2y B=3x^2", fol_hamiltonian.as_web, fol_hamiltonian),
        Entry("quasi-radial perturbation", fol_qr.as_web, fol_qr),
        Entry("saddle perturbation", fol_saddle.as_web, fol_saddle),
        Entry("random foliation #1", fol_rand1.as_web, fol_rand1),
        Entry("random foliation #2", fol_rand2.as_web, fol_rand2),
    ]
    return entries


def _as_fol(web: SymWeb) -> FoliationData:
    coeffs = web.coefficients()
    return FoliationData(coeffs[1], -coeffs[0])


BATTERY = build_battery()
FOLIATIONS = [e for e in BATTERY if e.foliation is not None and not e.is_radial_pencil]
WEBS_K2 = [e for e in BATTERY if e.web.k >= 2]
