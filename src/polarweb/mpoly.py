"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial is a map from exponent vectors to nonzero Fraction coefficients,
together with a sorted tuple of variable names.  The representation is kept
canonical at all times: no zero coefficients are stored, and variables that do
not occur in any term are dropped, so two MPoly values are equal exactly when
they represent the same polynomial.

Term order everywhere is graded lexicographic on the sorted variable names;
this fixes leading coefficients, canonical signs, and printing.

Construction.  `MPoly(variables, terms)` is the constructor for outside
data and validates it: exponent vectors of the right length, no negative
exponent and none above MAX_EXPONENT; it copies the exponent tuples and sorts
the variables.  Every polynomial this module computes from MPoly values (sums,
products, derivatives, substitutions, coefficient views, quotients,
resultants, jets, and `zero`, `constant` and `variable`) is built by the
trusted `MPoly._make` instead.  It trusts that the variables are sorted and
distinct and that every exponent vector is a tuple of their length with
entries in [0, MAX_EXPONENT]; it only drops zero coefficients and the
variables that no longer occur, and keeps the term order.  `**` checks
MAX_EXPONENT on the degrees before it multiplies; no other result is scanned.
`substitute` is total: an assigned variable that does not occur is left
alone, as `derivative`, `degree_in` and `coeffs_in` treat it as a constant,
and a polynomial in which no assigned variable occurs is returned itself.
Input text is the parser's: it checks the hard limits (`parsing.MAX_DEGREE`,
`parsing.MAX_PRODUCT_TERMS`) on every product and power before computing it,
and builds each polynomial as one term dict for one `MPoly._make`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import count, islice
from operator import add
from typing import Iterable, Mapping, Sequence

from .errors import InternalInvariantError, PolynomialError
from .zpoly import _CERT_PRIME, _coprime_mod_p, _int_gcd, _int_prs_resultant, _newton_interpolate

MAX_EXPONENT = 2**31

Rational = Fraction


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise PolynomialError(f"not an exact rational: {value!r}")


# Term dicts {exponent tuple: coefficient} over one variable layout, the raw
# material of the trusted constructor.  Their order is the order in which the
# terms first appear, as in the MPoly arithmetic built on them.


def _rekey(poly: "MPoly", names: tuple) -> dict:
    """poly's terms laid out over names, a sorted superset of its variables
    (poly's own dict when the layouts agree)."""
    if poly.variables == names:
        return poly.terms
    pos = [names.index(v) for v in poly.variables]
    out = {}
    for e, c in poly.terms.items():
        full = [0] * len(names)
        for p, k in zip(pos, e):
            full[p] = k
        out[tuple(full)] = c
    return out


def _mul_terms(a: dict, b: dict) -> dict:
    """The product, term by term; may hold zero sums when both have two or
    more terms."""
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(map(add, ea, eb))
            s = out.get(e)
            out[e] = ca * cb if s is None else s + ca * cb
    return out


def _nonzero(terms: dict) -> dict:
    """terms without its zero coefficients."""
    return terms if all(terms.values()) else {e: c for e, c in terms.items() if c}


def _add_into(out: dict, terms: dict) -> None:
    """out += terms; a sum that cancels leaves out, as it leaves the result
    of `+`."""
    for e, c in terms.items():
        s = out.get(e)
        if s is None:
            out[e] = c
        elif s := s + c:
            out[e] = s
        else:
            del out[e]


class MPoly:
    """Immutable sparse polynomial with Fraction coefficients."""

    __slots__ = ("variables", "terms", "_hash")

    def __init__(self, variables: Sequence[str], terms: Mapping[tuple, Fraction]):
        variables = tuple(variables)
        cleaned = {tuple(e): c for e, c in terms.items() if c != 0}
        for e in cleaned:
            if len(e) != len(variables):
                raise PolynomialError("exponent vector length mismatch")
            if any(k < 0 for k in e):
                raise PolynomialError("negative exponent")
            if any(k > MAX_EXPONENT for k in e):
                raise PolynomialError(f"exponent above cap {MAX_EXPONENT}")
        # drop unused variables, keep names sorted
        used = [i for i in range(len(variables)) if any(e[i] for e in cleaned)]
        names = [variables[i] for i in used]
        order = sorted(range(len(names)), key=lambda i: names[i])
        self.variables = tuple(names[i] for i in order)
        self.terms = {tuple(e[used[i]] for i in order): c for e, c in cleaned.items()}
        self._hash = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def _make(variables: tuple, terms: dict) -> "MPoly":
        """Trusted constructor for polynomials computed from MPoly values.

        The variables must be sorted and distinct and every exponent vector a
        tuple of their length with entries in [0, MAX_EXPONENT]; none of this
        is checked.  Takes ownership of `terms`, drops its zero coefficients
        and the variables that no longer occur, and keeps the term order.
        """
        terms = _nonzero(terms)
        if variables:
            used = [i for i, column in enumerate(zip(*terms)) if any(column)]
            if len(used) < len(variables):
                variables = tuple(variables[i] for i in used)
                terms = {tuple(e[i] for i in used): c for e, c in terms.items()}
        poly = object.__new__(MPoly)
        poly.variables = variables
        poly.terms = terms
        poly._hash = None
        return poly

    @staticmethod
    def zero() -> "MPoly":
        return MPoly._make((), {})

    @staticmethod
    def constant(value) -> "MPoly":
        c = _as_fraction(value)
        return MPoly._make((), {(): c})

    @staticmethod
    def variable(name: str) -> "MPoly":
        return MPoly._make((name,), {(1,): Fraction(1)})

    @staticmethod
    def monomial(coeff, powers: Mapping[str, int]) -> "MPoly":
        names = tuple(sorted(powers))
        exp = tuple(powers[n] for n in names)
        return MPoly(names, {exp: _as_fraction(coeff)})

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.variables

    def constant_value(self) -> Fraction:
        if self.variables:
            raise PolynomialError("not a constant polynomial")
        return self.terms.get((), Fraction(0))

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, var: str) -> int:
        if var not in self.variables:
            return 0
        i = self.variables.index(var)
        return max((e[i] for e in self.terms), default=0)

    def leading_term(self) -> tuple[tuple, Fraction]:
        """Leading (exponent, coefficient) in graded-lex order."""
        if not self.terms:
            raise PolynomialError("zero polynomial has no leading term")
        e = max(self.terms, key=lambda t: (sum(t), t))
        return e, self.terms[e]

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = MPoly.constant(other)
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.variables, frozenset(self.terms.items())))
        return self._hash

    # -- arithmetic --------------------------------------------------------

    def _aligned(self, other: "MPoly"):
        if self.variables == other.variables:
            return self.variables, self.terms, other.terms
        names = tuple(sorted(set(self.variables) | set(other.variables)))
        return names, _rekey(self, names), _rekey(other, names)

    def __add__(self, other) -> "MPoly":
        if isinstance(other, (int, Fraction)):
            other = MPoly.constant(other)
        if not isinstance(other, MPoly):
            return NotImplemented
        names, a, b = self._aligned(other)
        out = dict(a)
        _add_into(out, b)
        return MPoly._make(names, out)

    __radd__ = __add__

    def __neg__(self) -> "MPoly":
        return MPoly._make(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "MPoly":
        if isinstance(other, (int, Fraction)):
            other = MPoly.constant(other)
        if not isinstance(other, MPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "MPoly":
        return (-self) + other

    def __mul__(self, other) -> "MPoly":
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            if c == 0:
                return MPoly.zero()
            return MPoly._make(self.variables, {e: c * v for e, v in self.terms.items()})
        if not isinstance(other, MPoly):
            return NotImplemented
        names, a, b = self._aligned(other)
        return MPoly._make(names, _mul_terms(a, b))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MPoly":
        if not isinstance(n, int) or n < 0:
            raise PolynomialError(f"polynomial power must be a non-negative integer, got {n!r}")
        if any(self.degree_in(v) * n > MAX_EXPONENT for v in self.variables):
            raise PolynomialError(f"exponent above cap {MAX_EXPONENT}")
        result = MPoly.constant(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- calculus and evaluation -------------------------------------------

    def derivative(self, var: str) -> "MPoly":
        if var not in self.variables:
            # a polynomial not involving var has derivative 0; constants too
            return MPoly.zero()
        i = self.variables.index(var)
        out = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            e2 = list(e)
            e2[i] -= 1
            e2 = tuple(e2)
            out[e2] = c * e[i]
        return MPoly._make(self.variables, out)

    def substitute(self, assignments: Mapping[str, "MPoly | Fraction | int"]) -> "MPoly":
        """Simultaneous substitution.  An assigned variable that does not
        occur is left alone, as `derivative`, `degree_in` and `coeffs_in`
        treat it as a constant; self is returned when none occurs.

        Every term is expanded over the union of the kept and the substituted
        variables and added into one dict; the powers of each substituted
        polynomial are cached as term dicts.
        """
        subs = {v: (p if isinstance(p, MPoly) else MPoly.constant(p))
                for v, p in assignments.items() if v in self.variables}
        if not subs:
            return self
        kept = [v for v in self.variables if v not in subs]
        names = tuple(sorted(set(kept).union(*(p.variables for p in subs.values()))))
        moves = [(self.variables.index(v), names.index(v)) for v in kept]
        # (position in self, [p^0, p^1, ...] as term dicts over names)
        powers = [(self.variables.index(v), [{(0,) * len(names): Fraction(1)}, _rekey(p, names)])
                  for v, p in subs.items()]
        out: dict = {}
        for e, c in self.terms.items():
            mono = [0] * len(names)
            for i, j in moves:
                mono[j] = e[i]
            piece = {tuple(mono): c}
            for i, cache in powers:
                k = e[i]
                if k:
                    while len(cache) <= k:
                        cache.append(_nonzero(_mul_terms(cache[-1], cache[1])))
                    piece = _nonzero(_mul_terms(piece, cache[k]))
            _add_into(out, piece)
        return MPoly._make(names, out)

    def evaluate(self, point: Mapping[str, "Fraction | int"]) -> Fraction:
        """Exact evaluation; the point must cover every variable."""
        vals = {}
        for v in self.variables:
            if v not in point:
                raise PolynomialError(f"evaluate: missing value for {v!r}")
            vals[v] = _as_fraction(point[v])
        total = Fraction(0)
        for e, c in self.terms.items():
            t = c
            for i, v in enumerate(self.variables):
                if e[i]:
                    t *= vals[v] ** e[i]
            total += t
        return total

    def evaluate_complex(self, point: Mapping[str, complex]) -> complex:
        total = 0j
        for e, c in self.terms.items():
            t = complex(c)
            for i, v in enumerate(self.variables):
                if e[i]:
                    t *= complex(point[v]) ** e[i]
            total += t
        return total

    # -- univariate views ---------------------------------------------------

    def coeffs_in(self, var: str) -> list["MPoly"]:
        """Coefficients by ascending power of var (length deg+1); [self] if absent."""
        if var not in self.variables:
            return [self]
        i = self.variables.index(var)
        deg = self.degree_in(var)
        buckets: list[dict] = [dict() for _ in range(deg + 1)]
        rest = tuple(v for j, v in enumerate(self.variables) if j != i)
        for e, c in self.terms.items():
            buckets[e[i]][e[:i] + e[i + 1:]] = c
        return [MPoly._make(rest, b) for b in buckets]

    @staticmethod
    def from_coeffs_in(var: str, coeffs: Iterable["MPoly"]) -> "MPoly":
        """The sum of coeffs[k] * var^k."""
        coeffs = list(coeffs)
        names = tuple(sorted({var}.union(*(c.variables for c in coeffs))))
        i = names.index(var)
        out: dict = {}
        for k, c in enumerate(coeffs):
            _add_into(out, {e[:i] + (e[i] + k,) + e[i + 1:]: a for e, a in _rekey(c, names).items()})
        return MPoly._make(names, out)

    def univariate_coeffs(self, var: str) -> list[Fraction]:
        """Fraction coefficients, ascending; requires no other variables."""
        others = set(self.variables) - {var}
        if others:
            raise PolynomialError(f"not univariate in {var!r}: also involves {sorted(others)}")
        return [c.constant_value() for c in self.coeffs_in(var)]

    # -- content, primitivity, canonical form -------------------------------

    def rational_content(self) -> Fraction:
        """Positive c with self/c integer-coefficient and coprime; 0 for 0."""
        if not self.terms:
            return Fraction(0)
        num = 0
        den = 1
        for c in self.terms.values():
            num = math.gcd(num, c.numerator)
            den = den * c.denominator // math.gcd(den, c.denominator)
        return Fraction(num, den)

    def canonical(self) -> "MPoly":
        """Primitive integer-coefficient representative with positive leading
        coefficient in graded-lex order."""
        if not self.terms:
            return self
        c = self.rational_content()
        _, lead = self.leading_term()
        if lead < 0:
            c = -c
        if c == 1:
            return self
        return MPoly._make(self.variables, {e: v / c for e, v in self.terms.items()})

    # -- display -------------------------------------------------------------

    def __repr__(self):
        return f"MPoly({format_mpoly(self)})"

    def __str__(self):
        return format_mpoly(self)


def format_mpoly(f: MPoly) -> str:
    """Canonical text form, graded-lex descending; parseable back."""
    if f.is_zero():
        return "0"
    parts = []
    for e in sorted(f.terms, key=lambda t: (sum(t), t), reverse=True):
        c = f.terms[e]
        factors = []
        for name, k in zip(f.variables, e):
            if k == 1:
                factors.append(name)
            elif k > 1:
                factors.append(f"{name}^{k}")
        mag = abs(c)
        coeff_txt = _decimal_text(mag.numerator)
        if mag.denominator != 1:
            coeff_txt += "/" + _decimal_text(mag.denominator)
        if factors and mag == 1:
            body = "*".join(factors)
        elif factors:
            body = coeff_txt + "*" + "*".join(factors)
        else:
            body = coeff_txt
        parts.append(("- " if c < 0 else "+ ") + body)
    out = " ".join(parts)
    return out[2:] if out.startswith("+ ") else ("-" + out[2:])


def _decimal_text(k: int) -> str:
    """str(k) for k > 0; a PolynomialError naming the digit count when k has
    more digits than `str` converts (`sys.get_int_max_str_digits`)."""
    try:
        return str(k)
    except ValueError:
        digits = int(math.log10(k)) + 1
        digits += (10**digits <= k) - (10 ** (digits - 1) > k)
        raise PolynomialError(f"coefficient of {digits} digits is too long to print") from None


# ---------------------------------------------------------------------------
# division, gcd, square-free parts
# ---------------------------------------------------------------------------


def try_exact_div(f: MPoly, g: MPoly) -> MPoly | None:
    """Quotient f/g when g divides f exactly, else None."""
    if g.is_zero():
        raise PolynomialError("division by zero polynomial")
    if f.is_zero():
        return MPoly.zero()
    if g.is_constant():
        return f * (Fraction(1) / g.constant_value())
    names, a, b = f._aligned(g)
    rem = dict(a)
    ge = max(b, key=lambda t: (sum(t), t))
    gc = b[ge]
    q: dict = {}
    while rem:
        fe = max(rem, key=lambda t: (sum(t), t))
        fc = rem[fe]
        de = tuple(x - y for x, y in zip(fe, ge))
        if any(k < 0 for k in de):
            return None
        qc = fc / gc
        # the leading exponent of rem falls at every step, so de is new
        q[de] = qc
        for eb, cb in b.items():
            e = tuple(map(add, de, eb))
            s = rem.get(e)
            nc = -qc * cb if s is None else s - qc * cb
            if nc:
                rem[e] = nc
            else:
                del rem[e]
    return MPoly._make(names, q)


def exact_div(f: MPoly, g: MPoly) -> MPoly:
    q = try_exact_div(f, g)
    if q is None:
        raise PolynomialError("exact division failed")
    return q


def divisibility_multiplicity(f: MPoly, g: MPoly) -> int:
    """Largest m with g^m | f (f nonzero), up to 64."""
    if f.is_zero():
        raise PolynomialError("multiplicity of factor in zero polynomial")
    for m in range(64):
        q = try_exact_div(f, g)
        if q is None:
            return m
        f = q
    raise PolynomialError("divisibility multiplicity exceeded cap")


def _prem(a: MPoly, b: MPoly, var: str) -> MPoly:
    """Pseudo-remainder of a by b in var: lc(b)^(da-db+1) * a mod b."""
    db = b.degree_in(var)
    lcb = b.coeffs_in(var)[db]
    r = a
    e = a.degree_in(var) - db + 1
    while not r.is_zero() and r.degree_in(var) >= db:
        dr = r.degree_in(var)
        lcr = r.coeffs_in(var)[dr]
        shift = MPoly.variable(var) ** (dr - db)
        r = r * lcb - b * lcr * shift
        e -= 1
    if e > 0:
        r = r * lcb**e
    return r


def gcd_fold(polys: Sequence[MPoly]) -> MPoly:
    """gcd of the polynomials, taken in order; it stops at the first constant.
    A lone polynomial is returned as it is, not made canonical."""
    g = polys[0]
    for p in polys[1:]:
        if g.is_constant():
            break
        g = poly_gcd(g, p)
    return g


def _content_in(f: MPoly, var: str) -> MPoly:
    return gcd_fold([c for c in f.coeffs_in(var) if not c.is_zero()]).canonical()


# Coprimality certificate.  Reduce mod a prime p and set every variable but v
# to an integer, at a point where neither leading coefficient in v vanishes.
# The image of gcd(f, g) then divides the gcd of the images and keeps its
# degree in v (W. S. Brown, J. ACM 18, 1971), so coprime images prove that
# gcd(f, g) is free of v.  The prime and the points are fixed: no draws.
_CERT_TRIES = 3


def _residues(f: MPoly) -> list[tuple[tuple, int]] | None:
    """f's terms with coefficients mod the prime; None if a denominator is 0 mod p."""
    p = _CERT_PRIME
    out = []
    for e, c in f.terms.items():
        den = c.denominator % p
        if not den:
            return None
        out.append((e, c.numerator * pow(den, -1, p) % p))
    return out


def _image_in(res: list[tuple[tuple, int]], variables: tuple, v: str, point: dict) -> list[int]:
    """Ascending coefficients in F_p[v] of the residues with every other
    variable set to its value at point."""
    p = _CERT_PRIME
    i = variables.index(v)
    vals = [point[w] for w in variables]
    out = [0] * (max(e[i] for e, _ in res) + 1)
    for e, c in res:
        for j, k in enumerate(e):
            if k and j != i:
                c = c * pow(vals[j], k, p) % p
        out[e[i]] = (out[e[i]] + c) % p
    return out


def _certified_coprime(f: MPoly, g: MPoly, active: list[str]) -> bool:
    """True only if gcd(f, g) is a constant: every active variable has coprime
    images at one of the first _CERT_TRIES points 2 + 3k + 7j (j the index of
    the variable among those of f and g)."""
    fr, gr = _residues(f), _residues(g)
    if fr is None or gr is None:
        return False
    names = sorted(set(f.variables) | set(g.variables))
    points = [{w: 2 + 3 * k + 7 * j for j, w in enumerate(names)} for k in range(_CERT_TRIES)]
    for v in active:
        for point in points:
            a = _image_in(fr, f.variables, v, point)
            b = _image_in(gr, g.variables, v, point)
            if a[-1] and b[-1]:
                break
        else:
            return False
        if not _coprime_mod_p(a, b):
            return False
    return True


def poly_gcd(f: MPoly, g: MPoly) -> MPoly:
    """Primitive gcd with canonical sign; gcd(0,0) is an error.

    A constant gcd is first sought by the modular coprimality certificate
    (`_certified_coprime`), which is exact: it returns 1 only when the gcd is
    a constant.  Every other case runs the primitive PRS, recursing on the
    contents.
    """
    if f.is_zero() and g.is_zero():
        raise PolynomialError("gcd(0, 0) is undefined")
    if f.is_zero():
        return g.canonical()
    if g.is_zero():
        return f.canonical()
    if f.is_constant() or g.is_constant():
        return MPoly.constant(1)
    active = [v for v in f.variables if v in g.variables and f.degree_in(v) > 0 and g.degree_in(v) > 0]
    if not active or _certified_coprime(f, g, active):
        return MPoly.constant(1)
    var = min(active, key=lambda v: min(f.degree_in(v), g.degree_in(v)))
    if len(f.variables) == 1 and len(g.variables) == 1:
        return _from_int_coeffs(var, _int_gcd(_int_coeffs(f, var), _int_coeffs(g, var)))
    cf = _content_in(f, var)
    cg = _content_in(g, var)
    c = poly_gcd(cf, cg) if not (cf.is_constant() and cg.is_constant()) else MPoly.constant(1)
    a = exact_div(f, cf)
    b = exact_div(g, cg)
    if a.degree_in(var) < b.degree_in(var):
        a, b = b, a
    while True:
        if b.degree_in(var) == 0:
            pp = MPoly.constant(1)
            break
        r = _prem(a, b, var)
        if r.is_zero():
            pp = exact_div(b, _content_in(b, var))
            break
        a, b = b, exact_div(r, _content_in(r, var))
    return (c * pp).canonical()


def squarefree_part(f: MPoly) -> MPoly:
    """f divided by its repeated factors; primitive, canonical sign."""
    if f.is_zero():
        raise PolynomialError("square-free part of zero")
    if f.is_constant():
        return MPoly.constant(1)
    rep = f
    for v in f.variables:
        d = f.derivative(v)
        if d.is_zero():
            continue
        rep = poly_gcd(rep, d)
        if rep.is_constant():
            return f.canonical()
    return exact_div(f, rep).canonical() if not rep.is_constant() else f.canonical()


def gcd_squarefree(f: MPoly, g: MPoly | None = None) -> tuple[MPoly, MPoly]:
    """(gcd, square-free part of f).

    With g omitted the gcd slot carries the repeated-factor multiplier of f
    (so f = gcd * squarefree up to content in that case).
    """
    if f.is_zero() and (g is None or g.is_zero()):
        raise PolynomialError("gcd_squarefree needs a nonzero input")
    sf = squarefree_part(f) if not f.is_zero() else MPoly.constant(1)
    if g is None:
        rep = try_exact_div(f.canonical(), sf)
        if rep is None:
            raise InternalInvariantError("square-free part does not divide input")
        return rep.canonical(), sf
    return poly_gcd(f, g), sf


# ---------------------------------------------------------------------------
# resultants and discriminants
# ---------------------------------------------------------------------------


def resultant(f: MPoly, g: MPoly, var: str) -> MPoly:
    """Sylvester resultant eliminating var, by evaluation and interpolation.

    Collins' route ("The calculation of multivariate polynomial resultants",
    J. ACM 18, 1971), exact on Python ints.  With f = c_f*F and g = c_g*G for
    primitive integer F and G, Res(f, g) = c_f^n * c_g^m * Res(F, G), where
    m = deg_var f and n = deg_var g.  Res(F, G) is the integer subresultant PRS
    when var is the only variable; otherwise another variable z is set to 0,
    1, -1, 2, -2, ..., skipping the points where a leading coefficient in var
    vanishes, and the resultants of the images are Newton-interpolated in z.
    The number of points is one more than a proven bound on deg_z Res(F, G),
    the smaller of n*deg_z F + m*deg_z G (each term of the Sylvester
    determinant takes n entries from F's rows and m from G's) and
    tdeg_(var,z) F * tdeg_(var,z) G, the total degrees in var and z alone
    (Bezout over the field of the remaining variables).

    Both inputs must have positive degree in var; degree-0 inputs are a
    reported degenerate case rather than silently extended.
    """
    m, n = f.degree_in(var), g.degree_in(var)
    if m == 0 or n == 0:
        raise PolynomialError(
            f"resultant: degree-0 case (deg_{var} f = {m}, deg_{var} g = {n}); "
            "the classical convention Res(f, c) = c^deg(f) is not applied implicitly"
        )
    cf, cg = f.rational_content(), g.rational_content()
    others = sorted((set(f.variables) | set(g.variables)) - {var})
    order = [var] + others
    F, G = _integer_terms(f, cf, order), _integer_terms(g, cg, order)
    scale = cf**n * cg**m
    return MPoly._make(tuple(others), {e: scale * c for e, c in _int_resultant(F, G, m, n).items()})


# Bridges between MPoly values and the integer formats of `zpoly`.


def _integer_terms(f: MPoly, content: Fraction, order: list[str]) -> dict[tuple, int]:
    """The terms of the integer polynomial f / content, exponents laid out
    in the given variable order."""
    pos = [order.index(v) for v in f.variables]
    num, den = content.numerator, content.denominator
    out = {}
    for e, c in f.terms.items():
        full = [0] * len(order)
        for i, k in zip(pos, e):
            full[i] = k
        # c / content is an integer; dividing ints skips Fraction's gcd
        out[tuple(full)] = c.numerator * den // (c.denominator * num)
    return out


def _int_resultant(F: dict, G: dict, m: int, n: int) -> dict[tuple, int]:
    """Res(F, G) in the first variable, of degrees m and n in it, as terms in
    the remaining variables; the last of them is evaluated and interpolated."""
    if len(next(iter(F))) == 1:
        r = _int_prs_resultant(_dense(F, m), _dense(G, n))
        return {(): r} if r else {}
    bound = min(n * max(e[-1] for e in F) + m * max(e[-1] for e in G),
                max(e[0] + e[-1] for e in F) * max(e[0] + e[-1] for e in G))
    nodes, images = [], []
    for t in _small_integers():
        Ft, Gt = _evaluate_last(F, t), _evaluate_last(G, t)
        if not any(e[0] == m for e in Ft) or not any(e[0] == n for e in Gt):
            continue
        nodes.append(t)
        images.append(_int_resultant(Ft, Gt, m, n))
        if len(nodes) > bound:
            break
    out = {}
    for key in set().union(*images):
        coeffs = _newton_interpolate(nodes, [r.get(key, 0) for r in images])
        out.update((key + (j,), c) for j, c in enumerate(coeffs) if c)
    return out


def _small_integers():
    """0, 1, -1, 2, -2, ... without end."""
    for k in count():
        yield (k + 1) // 2 * (1 if k % 2 else -1)


def _evaluate_last(F: dict, t: int) -> dict[tuple, int]:
    """F with its last variable set to t."""
    out: dict = {}
    for e, c in F.items():
        key = e[:-1]
        out[key] = out.get(key, 0) + c * t ** e[-1]
    return {e: c for e, c in out.items() if c}


def _dense(F: dict, degree: int) -> list[int]:
    """Ascending coefficients of a univariate F."""
    out = [0] * (degree + 1)
    for (k,), c in F.items():
        out[k] = c
    return out


def _int_coeffs(f: MPoly, var: str) -> list[int]:
    """Ascending coefficients of the integer polynomial f / content(f), for a
    nonzero f in var alone."""
    if f.variables not in ((), (var,)):
        raise PolynomialError(f"not univariate in {var!r}: involves {list(f.variables)}")
    return _dense(_integer_terms(f, f.rational_content(), [var]), f.degree_in(var))


def _from_int_coeffs(var: str, coeffs: list[int]) -> MPoly:
    """The polynomial in var with the ascending coefficients."""
    return MPoly._make((var,), {(k,): Fraction(c) for k, c in enumerate(coeffs) if c})


def binary_form_degree(f: MPoly, u: str = "dx", v: str = "dy") -> int:
    """Common total degree in (u, v) of a homogeneous binary form; errors if mixed."""
    if f.is_zero():
        raise PolynomialError("zero form")
    iu = f.variables.index(u) if u in f.variables else None
    iv = f.variables.index(v) if v in f.variables else None
    degs = set()
    for e in f.terms:
        d = (e[iu] if iu is not None else 0) + (e[iv] if iv is not None else 0)
        degs.add(d)
    if len(degs) != 1:
        raise PolynomialError(f"form is not homogeneous in ({u}, {v}): degrees {sorted(degs)}")
    return degs.pop()


def discriminant_binary(f: MPoly, u: str = "dx", v: str = "dy") -> MPoly:
    """Discriminant in (u:v) of a homogeneous binary form with MPoly coefficients.

    Normalization: Res_t(g, g') / lc with g the (shear-adjusted) dehomogenized
    form, returned primitive with canonical sign; degree-1 forms give 1.
    """
    k = binary_form_degree(f, u, v)
    if k == 0:
        raise PolynomialError("discriminant of a constant form")
    if k == 1:
        return MPoly.constant(1)
    g = shear(f, next(proper_shears([f], u=u, v=v)), u, v)
    gt = g.substitute({u: 1})
    # the shear keeps gt univariate of exact degree k in v
    lead = gt.coeffs_in(v)[k]
    res = resultant(gt, gt.derivative(v), v)
    return exact_div(res, lead).canonical()


# ---------------------------------------------------------------------------
# shears
# ---------------------------------------------------------------------------


def shear(f: MPoly, lam, u: str = "x", v: str = "y") -> MPoly:
    """f with u replaced by u + lam*v; f itself when lam = 0 or u does not occur."""
    if lam == 0 or u not in f.variables:
        return f
    return f.substitute({u: MPoly.variable(u) + MPoly.constant(lam) * MPoly.variable(v)})


def proper_shears(polys: Sequence[MPoly], candidates: Iterable[int] | None = None,
                  u: str = "x", v: str = "y"):
    """Yield each candidate lam at which the top form in (u, v) of every
    polynomial is nonzero at (lam, 1): then shear(h, lam, u, v) has v-degree
    equal to h's degree in (u, v), for every h.

    The default candidates are 0, 1, -1, 2, -2, ..., as many as the sum of the
    degrees plus one.  A nonzero top form of degree d vanishes at no more than
    d of them, so nonzero polynomials always get one.
    """
    if any(h.is_zero() for h in polys):
        return
    tops = [max(jet_decompose(h, (u, v)).items()) for h in polys]
    if candidates is None:
        candidates = islice(_small_integers(), sum(d for d, _ in tops) + 1)
    for lam in candidates:
        direction = {u: lam, v: 1}
        if all(top.substitute(direction) for _, top in tops):
            yield lam


# ---------------------------------------------------------------------------
# jets
# ---------------------------------------------------------------------------


def translate(f: MPoly, point, variables: Sequence[str] = ("x", "y")) -> MPoly:
    """Each variable v replaced by v + c, c its coordinate of the point: the
    point moves to the origin."""
    return f.substitute({v: MPoly.variable(v) + MPoly.constant(c)
                         for v, c in zip(variables, point) if c != 0})


def jet_decompose(f: MPoly, variables: Sequence[str] = ("x", "y"), about=(0, 0)) -> dict[int, MPoly]:
    """Translate f to the point and split by total degree in the given variables.

    Returns {degree: nonzero homogeneous component}; the components sum back to
    the translated polynomial exactly.
    """
    a = [_as_fraction(c) for c in about]
    if len(a) != len(variables):
        raise PolynomialError("point arity does not match variables")
    g = translate(f, a, variables)
    idx = [g.variables.index(v) if v in g.variables else None for v in variables]
    parts: dict[int, dict] = {}
    for e, c in g.terms.items():
        d = sum(e[i] for i in idx if i is not None)
        parts.setdefault(d, {})[e] = c
    return {d: MPoly._make(g.variables, t) for d, t in sorted(parts.items())}


def lowest_jet(f: MPoly, variables: Sequence[str] = ("x", "y")) -> tuple[int, MPoly]:
    """(order, initial form) of f at the origin in the given variables."""
    jets = jet_decompose(f, variables, (0,) * len(variables))
    if not jets:
        raise PolynomialError("zero polynomial has no initial form")
    d = min(jets)
    return d, jets[d]
