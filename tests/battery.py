"""The fixed battery of webs and foliations used across the test suite."""

from __future__ import annotations

import random
from dataclasses import dataclass

from polarweb import FoliationData, MPoly, SymWeb, superpose

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


def break_family(monkeypatch):
    """Add a*x^2 to every polar family, so that P is no longer the polar."""
    from polarweb import polarops

    family = polarops.polar_family
    broken = MPoly.variable("a") * X**2
    monkeypatch.setattr(polarops, "polar_family", lambda web: polarops.PolarFamily(family(web).parametric + broken))


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
