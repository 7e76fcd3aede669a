"""Exact arithmetic in Z[x] and F_p, the one home of the integer formats.

Integer polynomials: term dicts {exponent tuple: nonzero int} for
`mpoly.resultant`, the eliminated variable first, and ascending int lists for
univariate work (the PRS, the gcd, Yun's decomposition, the exact root test).
Integer matrices are sparse rows {column: int}.  Work mod p uses the prime
_CERT_PRIME = 2^61 - 1.  The bridges from `MPoly` live in `mpoly`.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from fractions import Fraction
from itertools import zip_longest

from .errors import InternalInvariantError

_CERT_PRIME = 2**61 - 1


def _derivative(coeffs: list) -> list:
    """Ascending coefficients of the derivative; the list may hold any numbers."""
    return [k * c for k, c in enumerate(coeffs)][1:]


def _sub(a: list[int], b: list[int]) -> list[int]:
    """a - b for ascending int lists, without top zeros."""
    out = [u - v for u, v in zip_longest(a, b, fillvalue=0)]
    while out and not out[-1]:
        out.pop()
    return out


def _int_prem(a: list[int], b: list[int]) -> list[int]:
    """Pseudo-remainder lc(b)^(deg a - deg b + 1) * a mod b of ascending lists
    with nonzero tops; [] for zero."""
    lcb = b[-1]
    r = list(a)
    e = len(a) - len(b) + 1
    while len(r) >= len(b):
        lcr = r[-1]
        off = len(r) - len(b)
        r = [c * lcb for c in r]
        for i, c in enumerate(b):
            r[off + i] -= lcr * c
        while r and not r[-1]:
            r.pop()
        e -= 1
    return [c * lcb**e for c in r] if e > 0 else r


def _int_gcd(a: list[int], b: list[int]) -> list[int]:
    """gcd of two ascending int lists, a nonzero, by the primitive Euclidean
    algorithm: each pseudo-remainder is divided by its content, so the
    coefficients stay small.  Primitive, with a positive top."""
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = _int_prem(a, b)
        content = math.gcd(*r)
        a, b = b, [c // content for c in r]
    content = math.gcd(*a) if a[-1] > 0 else -math.gcd(*a)
    return [c // content for c in a]


def _int_exact_quo(a: list[int], b: list[int]) -> list[int]:
    """a / b for ascending int lists with nonzero tops when b divides a in
    Z[x]; a remainder or a fractional quotient coefficient is a broken
    invariant of the caller."""
    r = list(a)
    lcb = b[-1]
    q = [0] * (len(a) - len(b) + 1)
    for off in range(len(q) - 1, -1, -1):
        c, rem = divmod(r[off + len(b) - 1], lcb)
        if rem:
            raise InternalInvariantError("exact division of integer lists failed")
        q[off] = c
        if c:
            for i, bc in enumerate(b):
                r[off + i] -= c * bc
    if any(r[: len(b) - 1]):
        raise InternalInvariantError("exact division of integer lists failed")
    return q


def _int_prs_resultant(a: list[int], b: list[int]) -> int:
    """Res(a, b) of ascending int lists with nonzero tops and positive
    degrees, by the subresultant PRS; every division in it is exact."""
    m, n = len(a) - 1, len(b) - 1
    sign = 1
    if m < n:
        a, b = b, a
        if m % 2 == 1 and n % 2 == 1:
            sign = -sign
    gg = h = 1
    while len(b) > 1:
        da, db = len(a) - 1, len(b) - 1
        delta = da - db
        if da % 2 == 1 and db % 2 == 1:
            sign = -sign
        r = _int_prem(a, b)
        if not r:
            return 0
        div = gg * h**delta
        a, b = b, [c // div for c in r]
        gg = a[-1]
        if delta > 0:
            h = gg**delta // h ** (delta - 1) if delta > 1 else gg
    da = len(a) - 1
    res = b[0] ** da // h ** (da - 1) if da > 1 else b[0]
    return sign * res


def _newton_interpolate(nodes: list[int], values: list[int]) -> list[int]:
    """Ascending coefficients of the integer polynomial of degree below
    len(nodes) taking the values at the nodes.  Every divided difference of
    an integer polynomial at integer nodes is an integer, so a remainder is
    a broken degree bound or image, never rounding."""
    c = list(values)
    for j in range(1, len(nodes)):
        for i in range(len(nodes) - 1, j - 1, -1):
            q, rem = divmod(c[i] - c[i - 1], nodes[i] - nodes[i - j])
            if rem:
                raise InternalInvariantError("resultant: inexact divided difference")
            c[i] = q
    poly = [c[-1]]
    for i in range(len(nodes) - 2, -1, -1):
        # poly * (z - nodes[i]) + c[i]
        shifted = [0] + poly
        for k, p in enumerate(poly):
            shifted[k] -= nodes[i] * p
        shifted[0] += c[i]
        poly = shifted
    return poly


def _yun(f: list[int]) -> list[tuple[list[int], int]]:
    """Yun's square-free decomposition (SYMSAC 1976) of an ascending int list
    of positive degree: the pairs (g_i, i) with deg g_i > 0, where
    f = unit * prod g_i^i and each g_i is square-free, primitive and has a
    positive top.  Every quotient is exact in Z[x]: each divisor is a
    primitive factor of an integer dividend (Gauss's lemma)."""
    fp = _derivative(f)
    a = _int_gcd(f, fp)
    b = _int_exact_quo(f, a)
    d = _sub(_int_exact_quo(fp, a), _derivative(b))
    out = []
    i = 1
    while len(b) > 1:
        g = _int_gcd(b, d)
        if len(g) > 1:
            out.append((g, i))
        b = _int_exact_quo(b, g)
        d = _sub(_int_exact_quo(d, g), _derivative(b))
        i += 1
    return out


def _vanishes_at(coeffs: list[int], root: Fraction) -> bool:
    """Whether the ascending int list, not all zero, vanishes at root = a/b:
    b must divide the top coefficient and a the lowest nonzero one (the
    rational root theorem), and then sum c_i a^i b^(n-i) must be 0."""
    a, b = root.numerator, root.denominator
    if coeffs[-1] % b or (a and next(c for c in coeffs if c) % a):
        return False
    acc, bp = 0, 1
    for c in reversed(coeffs):
        acc = acc * a + c * bp
        bp *= b
    return acc == 0


def _coprime_mod_p(a: list[int], b: list[int]) -> bool:
    """Whether two polynomials over F_p, ascending with nonzero tops, have a
    constant gcd (Euclid; a and b are consumed)."""
    p = _CERT_PRIME
    while len(b) > 1:
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):
            q = a[-1] * inv % p
            off = len(a) - len(b)
            for i, c in enumerate(b):
                a[off + i] = (a[off + i] - q * c) % p
            while a and not a[-1]:
                a.pop()
        if not a:
            return False
        a, b = b, a
    return True


def _independent_mod_p(rows: list[dict]) -> Iterator[bool]:
    """For each row of an integer matrix given by sparse rows {column: int},
    in turn, whether it is independent mod p = 2^61 - 1 of the rows before
    it; the number of True values is the rank over F_p.

    By row echelon form: each kept row is scaled to 1 at its greatest column
    and indexed by it; a new row loses its greatest column to the kept row
    there until it is zero or its greatest column is new, and then it is
    kept.  On Gao matrices the greatest column fills in about half as much as
    the least.
    """
    p = _CERT_PRIME
    kept: dict = {}
    for r in rows:
        row = {c: v % p for c, v in r.items() if v % p}
        while row:
            col = max(row)
            top = kept.get(col)
            if top is None:
                inv = pow(row[col], -1, p)
                kept[col] = {c: v * inv % p for c, v in row.items()}
                break
            a = row[col]
            for c, v in top.items():
                w = (row.get(c, 0) - a * v) % p
                if w:
                    row[c] = w
                else:
                    row.pop(c, None)
        yield bool(row)


def _integer_rank(rows: list[dict]) -> int:
    """Rank over Q of an integer matrix given by sparse rows {column: int},
    by fraction-free Gaussian elimination.

    The pivot is the entry of least magnitude.  A row with a nonzero entry a
    in the pivot column becomes p*row - a*pivot_row, divided by its content;
    the other rows are left alone.  After given pivots a remaining row is
    fixed up to scale by its zeros in the pivot columns, and Bareiss's
    elimination keeps an integer multiple of the primitive row kept here.
    So these entries never exceed Bareiss's minors, and at centers with
    large denominators they are far smaller.
    """
    def keyed(r: dict) -> tuple:
        least = min(r, key=lambda c: abs(r[c]))
        return abs(r[least]), least, r

    rows = [keyed(r) for r in rows if r]
    rank = 0
    while rows:
        _, col, top = rows.pop(min(range(len(rows)), key=lambda i: rows[i][0]))
        p = top[col]
        rest = []
        for row in rows:
            r = row[2]
            a = r.get(col)
            if not a:
                rest.append(row)
                continue
            new = {c: p * v for c, v in r.items()}
            for c, v in top.items():
                new[c] = new.get(c, 0) - a * v
            g = math.gcd(*new.values())
            if g:
                rest.append(keyed({c: v // g for c, v in new.items() if v}))
        rows, rank = rest, rank + 1
    return rank
