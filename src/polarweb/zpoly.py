"""Exact arithmetic in Z[x] and F_p, the one home of the integer formats.

Integer polynomials: term dicts {exponent tuple: nonzero int} for
`mpoly.resultant` and `mpoly.poly_gcd`, the eliminated variable first, and
ascending int lists for univariate work (the PRS, the gcd, Yun's
decomposition, the exact root test).  One subresultant PRS,
`_subresultants`, gives every resultant, univariate gcd and subresultant.
A polynomial in several variables enters it by Kronecker substitution: its
coefficients in the eliminated variable are packed into integers at a power
of 2 wide enough (`_digit_width`) that the balanced digits of the result are
its coefficients (`_pack`, `_unpack`).
Integer matrices are sparse rows {column: int}.  Work mod p uses the prime
_CERT_PRIME = 2^30 - 35, the largest below 2^30: every residue is one 30-bit
digit of a Python int, and a product of two is below 2^60.  Nothing here
depends on the prime's size: a minor nonzero mod any prime is nonzero over Z,
so rank_p <= rank_Q, and coprime images mod any prime prove a constant gcd.
The p-adic lifting of rational roots takes instead the first prime at which
its polynomial keeps its degree and stays square-free, and Ben-Or's test the
small prime its caller gives, where a scan of the residues finds the roots.
The bridges from `MPoly` live in `mpoly`.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from fractions import Fraction
from itertools import count, zip_longest

from .errors import InternalInvariantError

_CERT_PRIME = 2**30 - 35


def _derivative(coeffs: list) -> list:
    """Ascending coefficients of the derivative; the list may hold any numbers."""
    return [k * c for k, c in enumerate(coeffs)][1:]


def _trim(a: list[int]) -> list[int]:
    """a without its top zeros."""
    while a and not a[-1]:
        a = a[:-1]
    return a


def _sub(a: list[int], b: list[int]) -> list[int]:
    """a - b for ascending int lists, without top zeros."""
    out = [u - v for u, v in zip_longest(a, b, fillvalue=0)]
    while out and not out[-1]:
        out.pop()
    return out


def _mul(a: list[int], b: list[int]) -> list[int]:
    """a * b for ascending int lists; [] when either is zero."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        if u:
            for j, v in enumerate(b):
                out[i + j] += u * v
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
    """gcd of two ascending int lists, a nonzero (b = [] is zero): the
    primitive part, with a positive top, of the last subresultant."""
    if len(a) < len(b):
        a, b = b, a
    if b:
        *_, (_, a) = _subresultants(a, b)
    content = math.gcd(*a) if a[-1] > 0 else -math.gcd(*a)
    return [c // content for c in a]


def _distinct_binary_roots(coeffs: list[int]) -> bool:
    """Whether the binary form sum c_i u^(k-i) v^i, its ascending int list
    c_0, ..., c_k, has k distinct roots (u : v) in P^1.  The top zeros are
    its roots at (0 : 1), so at most one may be zero, and the rest must be
    square-free: Res(p, p') != 0 for p = sum c_i t^i of degree 2 or more."""
    p = list(coeffs)
    while p and not p[-1]:
        p.pop()
    if len(coeffs) - len(p) > 1:
        return False
    return len(p) < 3 or _int_prs_resultant(p, _derivative(p)) != 0


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


def _subresultants(a: list[int], b: list[int]) -> Iterator[tuple[int, list[int]]]:
    """(j, S_j) for each signed subresultant S_j of ascending int lists a and
    b with nonzero tops, p = deg a >= q = deg b, whose principal coefficient
    s_(j,j) is nonzero, by descending j and starting with (q, b); from one
    run of Brown's subresultant PRS (W. S. Brown, ACM TOMS 4, 1978; W. S.
    Brown and J. F. Traub, J. ACM 18, 1971).

    S_j = sum_i s_(j,i) y^i for j < q, where s_(j,i) is the determinant of the
    rows y^k * a (k < q - j) and y^k * b (k < p - j) over the columns
    y^(p+q-j-1), ..., y^(j+1) and y^i; so S_0 is Res(a, b).  Each remainder
    prem(a, b) of the PRS is divided by beta = (-1)^(delta+1) at the first
    step, delta = p - q, and by -lc(a) * psi^delta after it, where -psi is
    the principal coefficient of the S_j before; every division is exact.
    The quotient b' is S_(deg a - 1), and when its degree is d - 1 below
    that, S_(deg b') is b' * (lc b' / -psi)^(d-1), and every S_j between is
    zero.  The run ends at a zero remainder, where the last S_j is a gcd of
    a and b up to a factor, or at degree 0."""
    yield len(b) - 1, b
    delta = len(a) - len(b)
    beta, psi = (-1) ** (delta + 1), -b[-1] ** delta
    while len(b) > 1:
        r = _int_prem(a, b)
        if not r:
            return
        a, b = b, [c // beta for c in r]
        d, lc = len(a) - len(b), b[-1]
        beta = -a[-1] * psi**d
        if d > 1:
            scale, div = lc ** (d - 1), (-psi) ** (d - 1)
            yield len(b) - 1, [c * scale // div for c in b]
            psi = (-lc) ** d // psi ** (d - 1)
        else:
            yield len(b) - 1, b
            psi = -lc


def _int_prs_resultant(a: list[int], b: list[int]) -> int:
    """Res(a, b) of ascending int lists with nonzero tops and positive
    degrees: S_0 of `_subresultants`, times (-1)^(deg a * deg b) when a has
    the lower degree and the arguments swap.  A zero top or a degree
    below 1 is a broken invariant of the caller: the PRS would read other
    degrees and return a wrong value without an error."""
    m, n = len(a) - 1, len(b) - 1
    if m < 1 or n < 1 or not (a[-1] and b[-1]):
        raise InternalInvariantError("resultant of integer lists needs nonzero tops and positive degrees")
    if m < n:
        return (-1) ** (m * n) * _int_prs_resultant(b, a)
    return dict(_subresultants(a, b)).get(0, [0])[0]


def _digit_width(a: list[int], b: list[int]) -> int:
    """A width B for Kronecker substitution of the eliminated variable's
    coefficients F_0, ..., F_m and G_0, ..., G_n, given their 1-norms a and
    b (sums of absolute coefficients).  On the torus |z| = 1 each |F_j(z)| is
    at most a[j], so each row of the Sylvester matrix has Euclidean norm at
    most N_F = sqrt(sum a[j]^2) (N_G for G), and Hadamard's inequality bounds
    the resultant and every Sylvester minor there by N_F^n * N_G^m.  A
    coefficient is a mean over the torus, so it has that bound too (L. J.
    Goldstein and R. L. Graham, SIAM Rev. 16, 1974).  The bound is below
    2^(B-2), inside the balanced digits [-2^(B-1), 2^(B-1)) that `_unpack`
    reads back."""
    m, n = len(a) - 1, len(b) - 1
    norms = sum(c * c for c in a) ** n * sum(c * c for c in b) ** m
    return (norms.bit_length() + 1) // 2 + 2


def _pack(coeffs: list[int], width: int) -> int:
    """The ascending coefficients at t = 2^width."""
    return sum(c << (width * k) for k, c in enumerate(coeffs))


def _unpack(v: int, width: int) -> list[int]:
    """The balanced base-2^width digits of v, ascending and without top
    zeros: the unique c_k in [-2^(width-1), 2^(width-1)) with
    v = sum c_k 2^(width*k)."""
    half, mask = 1 << (width - 1), (1 << width) - 1
    out = []
    while v:
        c = ((v + half) & mask) - half
        out.append(c)
        v = (v - c) >> width
    return out


def _yun(f: list[int]) -> list[tuple[list[int], int]]:
    """Yun's square-free decomposition (SYMSAC 1976) of an ascending int list
    of positive degree: the pairs (g_i, i) with deg g_i > 0, where
    f = unit * prod g_i^i and each g_i is square-free, primitive and has a
    positive top.  Every quotient is exact in Z[x]: each divisor is a
    primitive factor of an integer dividend (Gauss's lemma).  The first gcd
    goes through `_common_factor`, so a square-free f takes no PRS."""
    fp = _derivative(f)
    a = _common_factor(f, fp)
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


def _horner(coeffs: list, t):
    """The ascending coefficients at t; they and t may be any numbers."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def _rational_roots(f: list[int]) -> list[Fraction]:
    """The rational roots of a square-free ascending int list of positive
    degree, in descending order, by p-adic lifting (R. Loos, SIAM J. Comput.
    12, 1983).

    p is the first prime that divides neither lc(f) nor disc(f): f mod p
    keeps its degree and is coprime to its derivative.  As f is square-free,
    disc(f) != 0, so only the finitely many primes dividing lc(f) * disc(f)
    are passed over.  A root a/b in lowest terms has b | lc(f) and a | c, the
    lowest nonzero coefficient.  b is a unit mod p, so a/b is a root of f mod
    p, and a simple one, as f mod p is square-free.  So Newton's iteration
    lifts each root mod p to a unique root mod p^(2^k), and once p^(2^k)
    exceeds 2*|lc(f)*c|, the symmetric residue of lc(f) times the lift of a/b
    is the integer lc(f)*a/b, at most |lc(f)*c| in size.  A lift is kept as
    a root when `_vanishes_at` holds."""
    lc, low, fp = f[-1], next(c for c in f if c), _derivative(f)
    bound = 2 * abs(lc * low)
    for p in count(2):
        if lc % p and all(p % q for q in range(2, math.isqrt(p) + 1)):
            d = _trim([c % p for c in fp])
            if d and _coprime_mod_p([c % p for c in f], d, p):
                break
    roots = []
    for r in range(p):
        if _horner(f, r) % p:
            continue
        q = p
        while q <= bound:
            q *= q
            r = (r - _horner(f, r) * pow(_horner(fp, r), -1, q)) % q
        a = r * lc % q
        root = Fraction(a - q if 2 * a > q else a, lc)
        if _vanishes_at(f, root):
            roots.append(root)
    return sorted(roots, reverse=True)


def _common_factor(a: list[int], b: list[int]) -> list[int]:
    """gcd(a, b) of ascending int lists, a with a nonzero top; b = [] is
    zero.  Coprime images mod p prove a gcd of 1: a common factor over Q is
    one in Z[x], and it keeps its degree mod p, as its top divides a's
    (Gauss).  Any other case takes `_int_gcd`."""
    p = _CERT_PRIME
    b = _trim(b)
    if not b:
        return a
    ap, bp = [c % p for c in a], _trim([c % p for c in b])
    if ap[-1] and bp and _coprime_mod_p(ap, bp, p):
        return [1]
    return _int_gcd(a, b)


def _coprime_mod_p(a: list[int], b: list[int], p: int) -> bool:
    """Whether two polynomials over F_p, ascending with nonzero tops, have a
    constant gcd (Euclid; a and b are consumed)."""
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


def _irreducible_mod_p(f: list[int], p: int) -> bool:
    """Whether f, ascending over F_p with a nonzero top and degree n >= 1,
    is irreducible, by Ben-Or's test (M. Ben-Or, FOCS 1981): a reducible f
    has a factor of degree i <= n // 2, which divides x^(p^i) - x, the
    product of the monic irreducibles of degree dividing i.

    Step i = 1 scans the p residues, as gcd(x^p - x, f) = 1 exactly when f
    has no root; that decides n <= 3 (a linear f is irreducible).  Steps
    2 <= i <= n // 2 take a gcd with x^(p^i) - x, squared up from x^p."""
    n = len(f) - 1
    if n < 2:
        return True
    for r in range(p):
        if not _horner(f, r) % p:
            return False
    if n < 4:
        return True
    inv = pow(f[-1], -1, p)
    monic = [c * inv % p for c in f]

    def reduced(r: list[int]) -> list[int]:
        while len(r) > n:
            c = r.pop() % p
            r[-n:] = [a - c * b for a, b in zip(r[-n:], monic)]
        return [a % p for a in r]

    h = [0, 1]
    for i in range(n // 2):
        base = h
        for bit in bin(p)[3:]:
            h = reduced(_mul(h, h))
            if bit == "1":
                h = reduced(_mul(h, base))
        if not i:
            continue
        g = _trim([c % p for c in _sub(h, [0, 1])])
        if not g or not _coprime_mod_p(list(monic), g, p):
            return False
    return True


def _independent_mod_p(rows: list[dict]) -> Iterator[bool]:
    """For each row of an integer matrix given by sparse rows {column: int},
    in turn, whether it is independent mod p = 2^30 - 35 of the rows before
    it; the number of True values is the rank over F_p.

    By row echelon form on dense rows, lists over the sorted column keys:
    each kept row is scaled to 1 at its greatest column, indexed by it and
    cut off above it; a new row loses its greatest column to the kept row
    there until it is zero or its greatest column is new, and then it is
    kept.  A step is one list comprehension over the kept row, and zip cuts
    the new row at the pivot.  Entries are reduced mod p on the way in, where
    one is tested at the pivot and when a row is kept; in between each step
    adds a product below p^2 < 2^60, so entries stay a few digits long.  On
    Gao matrices the greatest column fills in about half as much as the
    least.
    """
    p = _CERT_PRIME
    index = {c: i for i, c in enumerate(sorted(set().union(*rows)))}
    width = len(index)
    kept: dict[int, list[int]] = {}
    for r in rows:
        row = [0] * width
        for c, v in r.items():
            row[index[c]] = v % p
        col = width - 1
        while col >= 0:
            a = row[col] % p
            if not a:
                col -= 1
                continue
            top = kept.get(col)
            if top is None:
                inv = pow(a, -1, p)
                kept[col] = [v * inv % p for v in row[: col + 1]]
                break
            row = [x - a * y for x, y in zip(row, top)]
            col -= 1
        yield col >= 0


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
