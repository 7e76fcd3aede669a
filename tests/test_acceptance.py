"""Acceptance suite: one test per criterion, on the fixed battery.

Each test prints a single PASS/FAIL line (run with -s to see them inline).
Counts, tolerances, and expectations are pinned here; nothing is deferred to
later calibration.
"""

import os
import subprocess
import sys
import time
from fractions import Fraction
from battery import BATTERY, FOLIATIONS, DX, DY, X, Y, dichotomy_mismatches, nonzero_int
from polarweb import (
    AffinePoint,
    CurveGerm,
    MPoly,
    PlaneCurve,
    RadialProduct,
    SymWeb,
    class_of_curve,
    family_degree,
    family_dimension,
    fingerprint,
    inflexion_divisor,
    polar_curve,
    polar_equality_criterion,
    web_degree,
)
from polarweb.errors import PolynomialError
from polarweb.cli import _dichotomy_all_singularities
from polarweb.foliation import quasi_radial_bound_check
from polarweb.localsing import equisingularity_check, genus_constancy_check
from polarweb.polarops import (
    base_points_check,
    branches_check,
    family_degree_check,
    generic_polar_irreducible,
    generic_polar_singularities_check,
    polar_degree_check,
    radial_form,
)
from polarweb.foliation import inflexion_lemma_check, polar_sing_in_inflexion_check
from polarweb.sampling import GenericSampler

SEED = 7


def verdict(number: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {number:2d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_polar_degree():
    """deg_(x,y) P = d + k exactly on the polar family, per battery element, < 10 s."""
    start = time.monotonic()
    ok = True
    for entry in BATTERY:
        report = polar_degree_check(entry.web)
        ok = ok and report.passed
    elapsed = time.monotonic() - start
    verdict(1, "polar degree d+k", ok and elapsed < 10.0, f"{elapsed:.2f}s for {len(BATTERY)} webs")


def test_criterion_02_product_rule():
    """P_p(W1 x W2) = P_p(W1) * P_p(W2) exactly on 20 random pairs."""
    sampler = GenericSampler(SEED)
    factors = [e.web for e in BATTERY if e.web.k <= 2]
    done = 0
    ok = True
    tries = 0
    while done < 20 and tries < 200:
        tries += 1
        w1 = factors[sampler.rng.randrange(len(factors))]
        w2 = factors[sampler.rng.randrange(len(factors))]
        try:
            product = SymWeb(w1.form * w2.form)
        except Exception:
            continue
        p = AffinePoint(*sampler.point())
        c = polar_curve(product, p)
        c1 = polar_curve(w1, p)
        c2 = polar_curve(w2, p)
        if isinstance(c, RadialProduct) or isinstance(c1, RadialProduct) or isinstance(c2, RadialProduct):
            continue
        ok = ok and c.raw == (c1.raw * c2.raw).canonical()
        done += 1
    verdict(2, "product rule", ok and done == 20, f"{done} pairs, exact")


def test_criterion_03_polar_equality():
    """Constructed radial-multiple pairs pass both routes; perturbed pairs fail both."""
    sampler = GenericSampler(SEED)
    ok = True
    rounds = 0
    for entry in [e for e in BATTERY if e.web.k >= 2][:4]:
        web = entry.web
        for _ in range(3):
            p = AffinePoint(*sampler.point())
            beta = DX if sampler.rng.random() < 0.5 else DY
            form2 = web.form + radial_form(p) * beta * DX ** (web.k - 2)
            try:
                w2 = SymWeb(form2)
            except Exception:
                continue
            v = polar_equality_criterion(web, w2, p)
            ok = ok and v.polars_equal and v.divisible and v.routes_agree
            form3 = web.form + DX**web.k * MPoly.constant(nonzero_int(sampler))
            try:
                w3 = SymWeb(form3)
            except Exception:
                rounds += 1
                continue
            v2 = polar_equality_criterion(web, w3, p)
            ok = ok and (not v2.polars_equal) and (not v2.divisible) and v2.routes_agree
            rounds += 1
    verdict(3, "polar equality criterion", ok and rounds >= 10, f"{rounds} constructed/perturbed rounds")


def test_criterion_04_family_degree_k2():
    """family degree = k^2 on every battery element, in P^2: the identity of
    base-points and square-freeness, with no sample."""
    ok = True
    covered_k = set()
    for entry in BATTERY:
        if entry.is_radial_pencil:
            continue
        report = family_degree_check(entry.web)
        ok = ok and report.passed
        covered_k.add(entry.web.k)
    # pinned example: dx*dy with two intersections at infinity
    ok = ok and family_degree(SymWeb(DX * DY), AffinePoint.of(0, 0), AffinePoint.of(1, 2)) == (4, 2)
    verdict(4, "family degree k^2", ok and covered_k == {1, 2, 3}, f"k covered: {sorted(covered_k)}")


def test_criterion_05_family_dimension():
    """dim R(W) = 2 for every battery element except the radial pencil (1)."""
    ok = True
    for entry in BATTERY:
        dim = family_dimension(entry.web)
        expected = 1 if entry.is_radial_pencil else 2
        ok = ok and dim == expected
    verdict(5, "family dimension", ok, "exact rank computation")


def test_criterion_06_singular_locus():
    """Sing(P_p) inside Delta(W) ∪ Sing(W) ∪ {p} for generic p, on the polar family."""
    ok = True
    for entry in BATTERY:
        report = generic_polar_singularities_check(entry.web)
        ok = ok and report.passed and report.samples_used == 0
    verdict(6, "singular locus containment", ok, "an identity, a witness of R or the split of the lines")


def test_criterion_07_branches_at_center():
    """Tangent cone at the center: k distinct lines matching the web directions."""
    ok = True
    for entry in BATTERY:
        report = branches_check(entry.web)
        ok = ok and report.passed
    verdict(7, "k branches at center", ok, "the jet identity and a square-free W per web")


def test_criterion_08_irreducibility():
    """1 component iff not (decomposable or degree 0 with k >= 2)."""
    ok = True
    for entry in BATTERY:
        report = generic_polar_irreducible(entry.web)
        ok = ok and report.passed
    # pinned expectations
    sqrt_web = SymWeb(DY**2 - X * DX**2)
    rep = generic_polar_irreducible(sqrt_web)
    ok = ok and rep.passed and rep.notes[0].endswith(" irreducible")
    rep2 = generic_polar_irreducible(SymWeb(DX * DY))
    ok = ok and rep2.passed and rep2.notes[0].endswith(" reducible")
    verdict(8, "generic polar irreducibility", ok, "one exact witness or the decomposition, no sample")


def test_criterion_09_inflexion_divisor():
    """E(F) formulas on three fixed foliations; Sing(P_p) ⊆ E(F) by one identity."""
    one = MPoly.constant(1)
    e1 = inflexion_divisor(SymWeb.of_field(one, X**2))
    e2 = inflexion_divisor(SymWeb.of_field(one, Y))
    e3 = inflexion_divisor(SymWeb.of_field(X, Y))
    ok = e1.defining == X.canonical() and e2.defining == Y.canonical() and e3 is None
    for entry in FOLIATIONS:
        report = polar_sing_in_inflexion_check(entry.foliation)
        ok = ok and report.passed
    verdict(9, "inflexion divisor", ok, "fixed formulas + containment on the battery")


def test_criterion_10_quasi_radial_dichotomy():
    """Line-pq multiplicity 1 at quasi-radial points, 0 otherwise: the
    identity's claim against the tangent cone at 20 centers off the excluded
    lines (exact at rational singular points, in floats at the others)."""
    ok = True
    for entry in FOLIATIONS:
        ok = ok and dichotomy_mismatches(entry.foliation, seed=SEED, centers=20) == []
        ok = ok and _dichotomy_all_singularities(entry.foliation).passed
    verdict(10, "quasi-radial dichotomy", ok, "one identity, checked against the cones")


def test_criterion_11_inflexion_lemma():
    """The inflexion equivalence as one exact identity in the center."""
    ok = True
    for entry in FOLIATIONS:
        report = inflexion_lemma_check(entry.foliation)
        ok = ok and report.passed
    verdict(11, "inflexion lemma", ok, "exact identity in the center")


def test_criterion_12_class_and_bound():
    """Plücker classes 2/4/3; #Sing_QR <= class(P_p) - 1 on the battery."""
    ok = class_of_curve(PlaneCurve(X**2 + Y**2 - 1)) == 2
    ok = ok and class_of_curve(PlaneCurve(Y**2 - X**2 * (X + 1))) == 4
    ok = ok and class_of_curve(PlaneCurve(Y**2 - X**3)) == 3
    for entry in FOLIATIONS:
        report = quasi_radial_bound_check(entry.foliation)
        ok = ok and report.passed
    verdict(12, "class and quasi-radial bound", ok, "conic/nodal/cuspidal = 2/4/3")


def test_criterion_13_local_singularity_kit():
    """Classical fingerprints; Milnor relation on every germ; two delta routes
    agree on 100 random germs."""
    origin = (Fraction(0), Fraction(0))
    cusp = fingerprint(CurveGerm.at_point(PlaneCurve(Y**2 - X**3), origin))
    node = fingerprint(CurveGerm.at_point(PlaneCurve(X * Y), origin))
    tac = fingerprint(CurveGerm.at_point(PlaneCurve(Y**2 - X**4), origin))
    ok = cusp.key() == (2, 2, 1, 1, (2, 1, 1), (2,))
    ok = ok and node.key() == (2, 1, 2, 1, (2,), (1, 1))
    ok = ok and tac.key() == (2, 3, 2, 2, (2, 2), (2,))
    import random as _random

    from test_localsing import random_rational_germ

    rng = _random.Random(999)
    agreed = 0
    attempts = 0
    while agreed < 100 and attempts < 500:
        attempts += 1
        poly = random_rational_germ(rng)
        try:
            g = CurveGerm.at_point(PlaneCurve(poly), origin)
            if g.poly != poly.canonical():
                continue
            fp = fingerprint(g)  # asserts both delta routes agree internally
        except PolynomialError:
            continue
        ok = ok and fp.mu == 2 * fp.delta - fp.r + 1
        agreed += 1
    verdict(13, "local singularity kit", ok and agreed == 100, f"{agreed} random germs")


def test_criterion_14_equisingularity():
    """Fingerprint tables constant across 10 centers; node at the origin for
    A=x^2, B=y^2; genus constant across 5 centers; < 60 s per foliation."""
    ok = True
    detail = []
    for entry in FOLIATIONS:
        start = time.monotonic()
        report = equisingularity_check(entry.foliation, seed=SEED, samples=10)
        ok = ok and report.passed
        if entry.name == "A=x^2 B=y^2":
            ok = ok and any("(m=2, mu=1, r=2, delta=1," in n for n in report.notes)
        genus_rep = genus_constancy_check(entry.foliation, seed=SEED, samples=5)
        ok = ok and genus_rep.passed
        elapsed = time.monotonic() - start
        ok = ok and elapsed < 60.0
        detail.append(f"{entry.name}: {elapsed:.1f}s")
    verdict(14, "equisingularity of the polar family", ok, "; ".join(detail))


def test_criterion_15_determinism(tmp_path):
    """Byte-identical check reports across two runs with the same seed."""
    web = tmp_path / "web.txt"
    web.write_text("type: web\nform: dy^2 - x*dx^2\n")
    cmd = [
        sys.executable, "-m", "polarweb.cli",
        "check", "--in", str(web), "--theorem", "irreducible", "--seed", "5", "--samples", "2",
    ]
    bodies = []
    for hash_seed in ("1", "77"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=300)
        body = "\n".join(
            line for line in proc.stdout.splitlines() if not line.startswith("timestamp")
        )
        bodies.append((proc.returncode, body))
    ok = bodies[0] == bodies[1] and bodies[0][0] == 0
    verdict(15, "deterministic reports", ok, "timestamp isolated on its own line")
