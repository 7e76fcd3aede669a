"""Seeded input generator for the polarweb benchmark.

Stdlib only and never imports polarweb, so a change to the program cannot
change the inputs: the same (workload, seed) gives byte-identical files.
Each job is (file name, file text, CLI arguments after ``--in``, oracle),
where ``oracle`` is the expected germ fingerprint for ``germs`` jobs and
``None`` for check jobs, whose gate is ``passed: true``.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import isqrt

# Checks run on every input kind.  The inflexion-divisor checks (sing-in-E,
# qr-bound, inflexion-lemma) run on degree-2 foliations only: on degree 3 a
# single one takes 1-34 s, so one draw would decide a whole run's throughput.
WEB_CHECKS = ("polar-degree", "polar-equality", "k2", "family-dim",
              "base-points", "sing-locus", "branches")
CUBIC_FOLIATION_CHECKS = WEB_CHECKS + ("qr-dichotomy",)
QUADRATIC_FOLIATION_CHECKS = CUBIC_FOLIATION_CHECKS + ("sing-in-E", "qr-bound",
                                                       "inflexion-lemma")
EXACT_SAMPLES = 4
# One sample per irreducible job: the cost of a degree-3 draw varies widely,
# and with about half the work per job a run holds 1.8 times the inputs,
# which narrows the seed-to-seed spread of its slow quarter.
MONODROMY_SAMPLES = 1
# Inputs in one cycle of each workload's input shapes (see `jobs`): a run of
# whole cycles sees every shape equally often.
CYCLE = {"exact-checks": 3, "monodromy": 4, "germs": 3 * 4 ** 3}


def _monomial(i: int, j: int) -> str:
    parts = [f"x^{i}" if i > 1 else "x"] if i else []
    if j:
        parts.append(f"y^{j}" if j > 1 else "y")
    return "*".join(parts)


def format_poly(terms: dict[tuple[int, int], int]) -> str:
    """Write {(i, j): c} as c*x^i*y^j terms, highest degree first."""
    out = []
    for (i, j), c in sorted(terms.items(), key=lambda t: (-(t[0][0] + t[0][1]), -t[0][0])):
        mono = _monomial(i, j)
        body = (str(abs(c)) if abs(c) != 1 or not mono else "") + ("*" if abs(c) != 1 and mono else "") + mono
        out.append(("- " if c < 0 else "+ ") + body)
    text = " ".join(out)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def random_poly(rng: random.Random, degree: int) -> dict[tuple[int, int], int]:
    """Dense: every monomial of degree <= `degree`, coefficients in +-{1, 2, 3}."""
    return {(i, d - i): rng.choice((-3, -2, -1, 1, 2, 3))
            for d in range(degree + 1) for i in range(d + 1)}


def foliation_text(rng: random.Random, d: int) -> str:
    return (f"type: foliation\nA: {format_poly(random_poly(rng, d))}\n"
            f"B: {format_poly(random_poly(rng, d))}\n")


def web_text(rng: random.Random, k: int, coeff_degrees: tuple[int, int]) -> str:
    """k-web sum a_i dx^(k-i) dy^i with coefficient degrees in the given range."""
    pieces = []
    for i in range(k + 1):
        suffix = "*".join(p for p in (
            (f"dx^{k - i}" if k - i > 1 else "dx") if k - i else "",
            (f"dy^{i}" if i > 1 else "dy") if i else "") if p)
        pieces.append(f"({format_poly(random_poly(rng, rng.randint(*coeff_degrees)))})*{suffix}")
    return f"type: web\nform: {' + '.join(pieces)}\n"


# -- germs ---------------------------------------------------------------------


def _term(c: int, mono: str) -> str:
    """' + 3*x^2' style signed term; unit coefficients are left out."""
    body = mono if abs(c) == 1 else f"{abs(c)}*{mono}"
    return f" - {body}" if c < 0 else f" + {body}"


def _branch_factor(s: int, a: int, b: int, c: int) -> str:
    lin = "y" + (_term(-s, "x") if s else "")
    lin = f"({lin})^{a}" if a > 1 else lin
    return f"({lin}{_term(-c, f'x^{a * b}' if a * b > 1 else 'x')})"


def _branches(s: int, a: int, b: int, c: int) -> list[dict[int, tuple]]:
    """Smooth branches y = s*x + kappa*x^b of (y - s*x)^a - c*x^(a*b), as
    {exponent: (rational part, irrational part)} Puiseux-free graphs.

    kappa is c when a = 1 and +-sqrt(c) when a = 2.  The irrational part is
    None or (c, sign) for sign*sqrt(c) with c not a perfect square; with
    c in [-3, 3] the numbers 1, sqrt(2), sqrt(3), i, i*sqrt(2), i*sqrt(3) are
    linearly independent over Q, so two coefficients are equal exactly when
    both parts are."""
    if a == 1:
        kappas = [(Fraction(c), None)]
    else:
        root = isqrt(c) if c > 0 else -1
        if root * root == c:
            kappas = [(Fraction(root), None), (Fraction(-root), None)]
        else:
            kappas = [(Fraction(0), (c, 1)), (Fraction(0), (c, -1))]
    out = []
    for q, irr in kappas:
        if b == 1:
            out.append({1: (s + q, irr)})
        else:
            out.append({1: (Fraction(s), None), b: (q, irr)})
    return out


def _contact_order(p: dict, q: dict) -> int | None:
    """ord_x of the difference of two branch graphs; None if they coincide."""
    zero = (Fraction(0), None)
    diffs = [e for e in sorted(set(p) | set(q)) if p.get(e, zero) != q.get(e, zero)]
    return diffs[0] if diffs else None


def germ_job(rng: random.Random, n: int) -> tuple[str, dict]:
    """Germ number n: a reduced germ at the origin as an unexpanded product of
    branch factors (y - s*x)^a - c*x^(a*b), with its fingerprint derived from
    the branch list: m = r = number of branches, delta = sum of pairwise
    contact orders, mu = 2*delta - r + 1.

    The factor count cycles 1, 2, 3 and the (a, b) pattern, a, b in {1, 2},
    cycles through every combination, so only s and c are random and every
    run sees the same mix of shapes.  Draws whose branches coincide are
    rejected here."""
    factor_count, pattern = n % 3 + 1, n // 3
    shapes = [(1 + (pattern >> 2 * i & 1), 1 + (pattern >> 2 * i + 1 & 1))
              for i in range(factor_count)]
    while True:
        factors, branches = [], []
        for a, b in shapes:
            s = rng.randint(-2, 2)
            c = rng.choice((-3, -2, -1, 1, 2, 3))
            factors.append(_branch_factor(s, a, b, c))
            branches.extend(_branches(s, a, b, c))
        orders = [_contact_order(branches[i], branches[j])
                  for i in range(len(branches)) for j in range(i + 1, len(branches))]
        if None in orders:
            continue
        r = len(branches)
        delta = sum(orders)
        oracle = {"m": r, "r": r, "delta": delta, "mu": 2 * delta - r + 1}
        return f"type: curve\nf: {'*'.join(factors)}\n", oracle


# -- workloads -----------------------------------------------------------------


def _job_seed(rng: random.Random) -> str:
    return str(rng.randrange(1_000_000))


def jobs(workload: str, seed: int, count: int) -> list[tuple[str, str, list[str], dict | None]]:
    """The jobs on the first `count` inputs of a workload; a longer list
    starts with the same jobs."""
    rng = random.Random(f"{workload}:{seed}")
    out = []
    for n in range(count):
        name = f"{n:04d}.txt"
        if workload == "exact-checks":
            # Cycle degree-2 foliation, degree-3 foliation, 2-web; each input
            # runs every check of its kind, so every run has the same mix.
            kind = n % 3
            if kind == 0:
                text, checks = foliation_text(rng, 2), QUADRATIC_FOLIATION_CHECKS
            elif kind == 1:
                text, checks = foliation_text(rng, 3), CUBIC_FOLIATION_CHECKS
            else:
                text, checks = web_text(rng, 2, (1, 2)), WEB_CHECKS
            for check in checks:
                out.append((name, text, ["check", "--theorem", check, "--samples",
                                         str(EXACT_SAMPLES), "--seed", _job_seed(rng), "--json"], None))
        elif workload == "monodromy":
            # Foliations: three of degree 2, then one of degree 3 (about three
            # times slower), so the median job stays inside the degree-2 mode.
            # Webs are left out: 2-webs reach a seed-dependent wrong
            # decomposability verdict in about one job in a hundred, and about
            # one 3-web in 30-90 takes 88-187 s.
            out.append((name, foliation_text(rng, 3 if n % 4 == 3 else 2),
                        ["check", "--theorem", "irreducible", "--samples",
                         str(MONODROMY_SAMPLES), "--seed", _job_seed(rng), "--json"], None))
        elif workload == "germs":
            text, oracle = germ_job(rng, n)
            out.append((name, text, ["localsing", "--point", "0,0", "--json"], oracle))
        else:
            raise ValueError(f"unknown workload {workload!r}")
    return out
