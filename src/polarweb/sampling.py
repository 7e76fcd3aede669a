"""Seeded genericity protocol.

The papers' "generic point" quantifiers are realized by explicit membership
tests: a sample is drawn from a seeded PRNG, tested against the degeneracy
conditions of the operation at hand, and discarded (with a logged reason) if
it fails.  Identical seeds reproduce identical sample streams.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .webmodel import AffinePoint

MAX_RESAMPLES = 50


class GenericSampler:
    """Rational samples with numerators/denominators uniform in [-100, 100]."""

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(seed)

    def fraction(self) -> Fraction:
        return Fraction(self.rng.randint(-100, 100), self.rng.randint(1, 100))

    def point(self) -> tuple[Fraction, Fraction]:
        return self.fraction(), self.fraction()

    def center(self) -> AffinePoint:
        return AffinePoint(*self.point())


def sample_centers(report, sampler: GenericSampler, n: int, admissible):
    """Yield (index, center, value) for the first n admissible centers.

    `admissible(center)` returns (value, None) to admit it, handing the value
    it computed on to the caller, or (None, reason) to reject it, which
    appends a discard to `report.discards`.  At most MAX_RESAMPLES * n draws
    are made; if they run out first, one failed `sampling` assertion is
    added.  Each admitted center adds one to `report.samples_used` as it
    comes, so a check that samples several strata calls this once per
    stratum on the same report.
    """
    budget = MAX_RESAMPLES * n
    used = 0
    for _ in range(budget):
        if used == n:
            break
        pt = sampler.center()
        value, reason = admissible(pt)
        if reason is not None:
            report.discards.append((str(pt), reason))
            continue
        used += 1
        report.samples_used += 1
        yield used - 1, pt, value
    if used < n:
        report.add("sampling", False, f"only {used} of {n} admissible samples in {budget} draws")
