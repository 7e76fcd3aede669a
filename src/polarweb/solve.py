"""Roots of univariate polynomials, and finite zero sets of polynomial
collections in two variables.

A root split runs Yun's decomposition on the integer coefficient list.  The
rational roots of each factor are found exactly, by p-adic lifting
(`zpoly._rational_roots`), and divided out; Aberth then solves what is left
once.  No rational root is read from an approximation.

A zero set is read by the shape lemma (F. Rouillier, AAECC 9, 1999; for two
variables, Y. Bouzidi, S. Lazard, M. Pouget and F. Rouillier, J. Symb. Comp.
68, 2015).  Two coprime generators are sheared to t = x - lam*y, the
square-free part m(t) of their resultant in y holds the t of every common
zero, and a subresultant gives y as a rational function of t on each part of
m, once an exact test has shown that lam separates the zeros.  Each further
generator cuts m by one exact gcd.  So every zero is one root of m: a
rational root is a rational point, an irrational one gives both coordinates
at once, and nothing is decided by a residual.  A rational coordinate of an
irrational zero is a rational root of the zero set's eliminant in that
coordinate (`eliminant`), proved by one gcd with the group's polynomial
(`_exact_coordinates`); no approximation is rounded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from itertools import chain, count, islice
from typing import NamedTuple

from .errors import InfiniteZeroSetError, InternalInvariantError, PolynomialError
from .mpoly import (
    MPoly,
    _from_int_coeffs,
    _int_coeffs,
    _integer_terms,
    _small_integers,
    gcd_fold,
    poly_gcd,
    proper_shears,
    resultant,
    shear,
)
from .numerics import univariate_roots
from .zpoly import (
    _common_factor,
    _derivative,
    _digit_width,
    _horner,
    _int_exact_quo,
    _int_prem,
    _mul,
    _pack,
    _rational_roots,
    _sub,
    _subresultants,
    _trim,
    _unpack,
    _yun,
)

def rational_split(coeffs: list[int]) -> tuple[list[tuple[Fraction, int]], list[tuple[list[int], int]]]:
    """Roots of the polynomial with the ascending int coefficients (nonzero
    top; any content): the rational ones with exact multiplicity, factor by
    factor in Yun's order and descending within a factor, and each Yun factor
    left once they are divided out, with its multiplicity, when it has a
    root.  The rational roots of each square-free factor are lifted p-adically (`zpoly._rational_roots`) at
    the first prime p dividing neither its top coefficient nor its
    discriminant; the search ends, as the factor is square-free.  Each is a
    simple root mod p, as its denominator divides the top and the factor
    stays square-free mod p.  Lifted past 2*|top * lowest nonzero
    coefficient|, they are checked exactly."""
    rational: list[tuple[Fraction, int]] = []
    rest: list[tuple[list[int], int]] = []
    for work, mult in _yun(coeffs):
        for root in _rational_roots(work):
            rational.append((root, mult))
            # work / (var - a/b) = b * (work / (b*var - a)): the quotient over
            # Q, whose float image fixes the approximations reported
            q = _int_exact_quo(work, [-root.numerator, root.denominator])
            work = [root.denominator * c for c in q]
        if len(work) > 1:
            rest.append((work, mult))
    return rational, rest


def int_root_split(coeffs: list[int]) -> tuple[list[tuple[Fraction, int]], list[tuple[complex, int]]]:
    """`rational_split`, with Aberth run once on each factor left."""
    rational, rest = rational_split(coeffs)
    return rational, [(r, mult) for work, mult in rest for r in univariate_roots(work)]


def univariate_root_split(f: MPoly, var: str) -> tuple[list[tuple[Fraction, int]], list[tuple[complex, int]]]:
    """`int_root_split` of a nonzero polynomial in var alone; a constant has no roots."""
    if f.is_zero():
        raise PolynomialError("root split of zero polynomial")
    if f.degree_in(var) == 0:
        return [], []
    return int_root_split(_int_coeffs(f, var))


@dataclass
class Group:
    """Irrational zeros of one `_shape` group: each root t of w (an int list
    with no rational root) is (t + lam*y, y) at y = -num(t)/den(t).  The
    approximations `ts` of the roots of w, and the `points` they give, are
    computed on first use unless they are given.  eliminant_roots holds the
    rational values that y and x can take on the zero set the group comes
    from (`_points`); a group built by hand has none."""

    w: list[int]
    num: list[int]
    den: list[int]
    lam: int
    given_ts: list[complex] | None = field(default=None, repr=False)
    eliminant_roots: tuple[list[Fraction], list[Fraction]] = field(default_factory=lambda: ([], []), repr=False)

    @cached_property
    def ts(self) -> list[complex]:
        return self.given_ts if self.given_ts is not None else univariate_roots(self.w) if self.size else []

    @cached_property
    def points(self) -> list[tuple[complex, complex]]:
        """The points of the roots of w, approximated by ts, with each
        coordinate that `_exact_coordinates` proves rational kept exact
        (x = t is not when lam = 0, as w has no rational root)."""
        w, num, den, lam, ts = self.w, self.num, self.den, self.lam, self.ts
        if not ts:
            return []
        # one power of two brings every coefficient into float range
        scale = 2 ** max(0, max(abs(c).bit_length() for c in num + den) - 1000)
        num_f, den_f = [c / scale for c in num], [c / scale for c in den]
        ys = [-_horner(num_f, t) / _horner(den_f, t) for t in ts]
        xs = [t + lam * y for t, y in zip(ts, ys)]
        # y = -num/den, and x = t - lam*num/den = -(lam*num - t*den)/den
        values_y, values_x = self.eliminant_roots
        exact_y = _exact_coordinates(w, ys, num, den, values_y)
        exact_x = (_exact_coordinates(w, xs, _sub([lam * c for c in num], [0] + den), den, values_x) if lam
                   else [None] * len(ts))
        return [(complex(x if x0 is None else x0), complex(y if y0 is None else y0))
                for x, y, x0, y0 in zip(xs, ys, exact_x, exact_y)]

    @property
    def size(self) -> int:
        return len(self.w) - 1


class AffinePoint(NamedTuple):
    a: Fraction
    b: Fraction

    @staticmethod
    def of(a, b) -> "AffinePoint":
        return AffinePoint(Fraction(a), Fraction(b))

    def as_dict(self) -> dict[str, Fraction]:
        return {"x": self.a, "y": self.b}

    def __str__(self):
        return f"({self.a}, {self.b})"


@dataclass
class ZeroSet:
    """Common zeros of the nonzero generators in two variables: the rational
    points, and the others as approximations (`point_order`), where a
    rational coordinate is exact, with the exact groups they come from, and
    the exact eliminants, each computed once, on first use (`eliminant`);
    None when a generator is a constant."""

    generators: list[MPoly]
    rational: list[AffinePoint] = field(default_factory=list)
    numeric: list[tuple[complex, complex]] = field(default_factory=list)
    groups: list[Group] = field(default_factory=list)

    @cached_property
    def elim_x(self) -> MPoly | None:
        return None if any(g.is_constant() for g in self.generators) else eliminant(self.generators, "y")

    @cached_property
    def elim_y(self) -> MPoly | None:
        return None if any(g.is_constant() for g in self.generators) else eliminant(self.generators, "x")

    def is_empty(self) -> bool:
        return not self.rational and not self.numeric


def _combinations(polys: list[MPoly]):
    """G(1), G(2), ... for G(t) = sum_i t^i p_i."""
    return (sum((MPoly.constant(t**i) * p for i, p in enumerate(polys)), MPoly.zero()) for t in count(1))


def _coprime_combinations(polys: list[MPoly]) -> tuple[MPoly, MPoly]:
    """Two coprime G(t1), G(t2) for G(t) = sum_i t^i p_i, where the n >= 2
    nonconstant polynomials p_i have gcd 1.  An irreducible h dividing G(t)
    for n distinct t divides every p_i (the Vandermonde matrix is
    invertible), so it divides G(t), zero or not, for at most n - 1 values
    of t; and G(t) is constant for at most n - 1 of them (the coefficient
    of a nonconstant monomial is a nonzero polynomial of degree < n in t).
    So the first nonconstant G(t1) has t1 <= n, and as it has at most
    deg G(t1) irreducible factors, one of the next deg G(t1) * (n - 1) + 1
    values is coprime to it."""
    n = len(polys)
    combos = _combinations(polys)
    c1 = next(c for c in islice(combos, n) if not c.is_constant())
    c2 = next((c for c in islice(combos, c1.total_degree() * (n - 1) + 1) if poly_gcd(c1, c).is_constant()), None)
    if c2 is None:
        raise InternalInvariantError("no two combinations of generators with gcd 1 are coprime")
    return c1, c2


def eliminant(polys: list[MPoly], elim_var: str) -> MPoly:
    """A nonzero polynomial in the other variable vanishing at every common
    zero's coordinate, for nonconstant generators with gcd 1: the gcd of the
    generators free of elim_var and of the nonzero pairwise resultants, or,
    when there are none, the two coprime combinations that `_coprime_pair`
    takes (`_coprime_combinations`): the first of them free of elim_var, or
    else their resultant, nonzero as they are coprime.  The candidates are
    drawn lazily, so no resultant is taken after the gcd has become a
    constant; that gcd is the one of all the candidates."""
    free = [p for p in polys if p.degree_in(elim_var) == 0]
    positive = [p for p in polys if p.degree_in(elim_var) > 0]
    nonzero = (r for i, p in enumerate(positive) for q in positive[i + 1:]
               if not (r := resultant(p, q, elim_var)).is_zero())
    first = free[0] if free else next(nonzero, None)
    if first is None:
        # every generator involves elim_var, and no two are coprime
        pair = _coprime_combinations(positive)
        first = next((c for c in pair if c.degree_in(elim_var) == 0), None) or resultant(*pair, elim_var)
    return gcd_fold(chain([first], free[1:], nonzero)).canonical()


def _coprime_pair(polys: list[MPoly]) -> tuple[MPoly, MPoly, list[MPoly]]:
    """Two coprime generators, the first such pair by total degree, and the
    others; or, when no two are coprime, two coprime combinations and every
    generator.  Raises when the generators share a factor."""
    order = sorted(polys, key=MPoly.total_degree)
    for i, f in enumerate(order):
        for j in range(i + 1, len(order)):
            if poly_gcd(f, order[j]).is_constant():
                return f, order[j], order[:i] + order[i + 1:j] + order[j + 1:]
    g = gcd_fold(polys)
    if not g.is_constant():
        raise InfiniteZeroSetError(f"generators share the factor {g}")
    return *_coprime_combinations(polys), polys


def _y_coeffs(f: MPoly) -> list[list[int]]:
    """The coefficients of y^0, y^1, ... in f / content(f), each an ascending
    int list in x."""
    out = [[0] * (f.degree_in("x") + 1) for _ in range(f.degree_in("y") + 1)]
    for (i, k), c in _integer_terms(f, f.rational_content(), ["y", "x"]).items():
        out[i][k] = c
    return [_trim(c) for c in out]


def _separated(part: list[int], s: list[list[int]], j: int) -> bool:
    """Whether S_j = s_(j,j) * (y - y0)^j at every root of part, with
    y0 = -s_(j,j-1) / (j * s_(j,j)): then the fiber gcd there, which S_j is,
    has the one root y0.  The coefficients of (j*s_(j,j)*y + s_(j,j-1))^j and
    j^j * s_(j,j)^(j-1) * S_j must agree mod part; they agree identically on
    y^j and y^(j-1)."""
    top, lead = s[0], [j * c for c in s[0]]
    for i in range(j - 1):
        lhs = [math.comb(j, i) * c for c in _mul(_power(lead, i), _power(s[1], j - i))]
        rhs = [j**j * c for c in _mul(_power(top, j - 1), s[j - i])]
        if _int_prem(_sub(lhs, rhs), part):
            return False
    return True


def _power(a: list[int], k: int) -> list[int]:
    out = [1]
    for _ in range(k):
        out = _mul(out, a)
    return out


def _same_scale_rem(num: list[int], den: list[int], w: list[int]) -> tuple[list[int], list[int]]:
    """num and den mod w, each times the same power of lc(w), so that their
    ratio at every root of w is kept."""
    e = [max(0, len(f) - len(w) + 1) for f in (num, den)]
    return tuple([c * w[-1] ** (max(e) - k) for c in _int_prem(f, w)] for f, k in zip((num, den), e))


def _cut(part: list[int], num: list[int], den: list[int], H: list[list[int]]) -> list[int]:
    """The factor of part at whose roots H(t, y) = 0, for y = -num/den:
    gcd(part, sum_k H_k (-num)^k den^(d - k)), with num and den first
    reduced mod part."""
    num, den = _same_scale_rem(num, den, part)
    acc, power = H[-1], [1]
    for h in reversed(H[:-1]):
        power = _mul(power, den)
        acc = _sub(_mul(h, power), _mul(acc, num))
    return _common_factor(part, acc)


def _shape(F: MPoly, G: MPoly, others: list[MPoly]) -> list[tuple[list[int], list[int], list[int]]] | None:
    """The zeros of F, G and the others, polynomials in (t, y) with F and G
    coprime and y-proper, as groups (part, num, den): every root t of part
    is one zero, with y = -num(t)/den(t), and the parts are coprime factors
    of the square-free part m of Res_y(F, G).  None when the test of
    `_separated` fails, where one t is two zeros of F and G.

    With p = deg_y F >= q = deg_y G and constant tops, the gcd of F(t, y)
    and G(t, y) at a root t of m has the degree j of the first nonzero
    s_(j,j)(t), and S_j(t, y) is that gcd up to a factor (the fundamental
    theorem of subresultants; S_q is G).  So the part of m where s_(1,1) is
    nonzero has y = -s_(1,0)/s_(1,1), and each part where the degree is
    j >= 2 must pass `_separated`.

    R and every s_(j,i) are read from one packed Sylvester pair: the
    coefficients of F and G in y at t = 2^B, B past the Hadamard bound of
    `zpoly._digit_width` on every Sylvester minor, so that one run of
    `_subresultants` gives R = S_0 and every S_j with s_(j,j) nonzero (an
    S_j it does not yield has s_(j,j) = 0, and no root of m has degree j),
    and `_unpack` reads their coefficients in t from base-2^B digits."""
    Fc, Gc = _y_coeffs(F), _y_coeffs(G)
    if len(Fc) < len(Gc):
        Fc, Gc = Gc, Fc
    width = _digit_width([sum(map(abs, c)) for c in Fc], [sum(map(abs, c)) for c in Gc])
    chain = dict(_subresultants([_pack(c, width) for c in Fc], [_pack(c, width) for c in Gc]))
    R = _unpack(chain.get(0, [0])[0], width)
    if not R:
        raise InternalInvariantError("coprime generators have a zero resultant")
    if len(R) == 1:
        return []
    rest = _int_exact_quo(R, _common_factor(R, _derivative(R)))
    rest = [c // math.gcd(*rest) for c in rest]
    groups = []
    for j in sorted(chain)[1:]:
        if len(rest) == 1:
            break
        s = [_unpack(v, width) for v in reversed(chain[j])]
        g = _common_factor(rest, s[0])
        part = _int_exact_quo(rest, g)
        if len(part) > 1:
            if j > 1 and not _separated(part, s, j):
                return None
            # a factor that num and den share can be tiny near a root of part
            # and take the digits of y in floats; it is divided out
            num, den = s[1], [j * c for c in s[0]]
            common = _common_factor(den, num)
            groups.append((part, _int_exact_quo(num, common), _int_exact_quo(den, common)))
        rest = g
    for H in map(_y_coeffs, others):
        groups = [(_cut(part, num, den, H), num, den) for part, num, den in groups]
        groups = [group for group in groups if len(group[0]) > 1]
    return groups


def _exact_coordinates(w: list[int], approx: list[complex], p: list[int], q: list[int],
                       values: list[Fraction]) -> list[Fraction | None]:
    """For the approximations of the coordinate -p(t)/q(t) at the roots of w,
    the rational value that each one has, or None; q is nonzero there.

    values holds the rational roots of the zero set's eliminant in this
    coordinate, and a rational coordinate of a common zero is one of them.
    For each value a/b, the degree k of gcd(w, b*p + a*q) counts the roots
    where the coordinate is a/b, and the k approximations nearest to a/b
    take it.  A coordinate constant on the group is so exact at every root.
    """
    out: list[Fraction | None] = [None] * len(approx)
    for c in values:
        k = len(_common_factor(w, _sub([c.denominator * u for u in p], [-c.numerator * v for v in q]))) - 1
        for i in sorted(range(len(approx)), key=lambda i: abs(approx[i] - c))[:k]:
            out[i] = c
    return out


def point_order(q: tuple[complex, complex]) -> tuple:
    """The order of approximate points: each coordinate carries its own
    round-off, so points that share one (to 9 places) go by the other."""
    return tuple(round(v, 9) for z in q for v in (z.real, z.imag))


def _points(groups, lam: int, polys: list[MPoly]) -> ZeroSet:
    """The zeros of the groups of `_shape`, with x = t + lam*y.  A rational
    root t gives a rational point; the irrational roots of each part form
    one `Group`.  When a group is formed, the rational roots of the zero
    set's eliminants in y and, when lam != 0, in x are every rational value
    that y and x can take; when lam = 0, x = t is irrational."""
    zs, roots = ZeroSet(polys), None
    for part, num, den in groups:
        rational, numeric = univariate_root_split(_from_int_coeffs("x", part), "x")
        w = part
        for t, _ in rational:
            y = -_horner(num, t) / _horner(den, t)
            zs.rational.append(AffinePoint(t + lam * y, y))
            w = _int_exact_quo(w, [-t.numerator, t.denominator])
        if numeric:
            roots = roots or ([c for c, _ in rational_split(_int_coeffs(zs.elim_y, "y"))[0]],
                              [c for c, _ in rational_split(_int_coeffs(zs.elim_x, "x"))[0]] if lam else [])
            zs.groups.append(Group(w, *_same_scale_rem(num, den, w), lam, [t for t, _ in numeric], roots))
    zs.rational.sort()
    zs.numeric = sorted((q for g in zs.groups for q in g.points), key=point_order)
    return zs


def split(group: Group, polys: list[MPoly]) -> tuple[Group, Group]:
    """The zeros of the group where all the polys in (x, y) vanish, and the
    rest: `_cut` by each sheared poly, as `_shape` cuts by a third generator,
    and the cofactor.  A part as large as the group is the group itself; a
    smaller one approximates its roots afresh, on first use."""
    part = group.w
    for h in polys:
        if len(part) > 1 and not h.is_zero():
            part = _cut(part, group.num, group.den, _y_coeffs(shear(h, group.lam)))
    return tuple(group if len(f) == len(group.w) else
                 Group(f, group.num, group.den, group.lam, eliminant_roots=group.eliminant_roots)
                 for f in (part, _int_exact_quo(group.w, part)))


def common_zeros(polys: list[MPoly]) -> ZeroSet:
    """Common zero set, expected finite, of polynomials in (x, y).  Two
    coprime generators f and g (`_coprime_pair`) are sheared by the first lam
    of 0, 1, -1, 2, ... that `proper_shears` yields and at which `_shape`
    separates their zeros.  A top form of degree d vanishes at d values of
    lam at most, and two of the at most deg f * deg g zeros (Bezout) share a
    t = x - lam*y for one lam at most, so one of the first
    C(deg f * deg g, 2) + deg f + deg g + 1 values passes."""
    polys = [p for p in polys if not p.is_zero()]
    if not polys:
        raise InfiniteZeroSetError("all generators are zero")
    if any(p.is_constant() for p in polys):
        return ZeroSet(polys)
    f, g, others = _coprime_pair(polys)
    if f.is_constant() or g.is_constant():
        return ZeroSet(polys)
    m, n = f.total_degree(), g.total_degree()
    for lam in proper_shears([f, g], islice(_small_integers(), math.comb(m * n, 2) + m + n + 1)):
        groups = _shape(shear(f, lam), shear(g, lam), [shear(h, lam) for h in others])
        if groups is not None:
            return _points(groups, lam, polys)
    raise InternalInvariantError("no shear separates the zeros of two coprime generators")
