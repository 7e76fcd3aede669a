"""Textual input: polynomial expressions and web/foliation/curve files.

Polynomial grammar (used by the CLI and the file formats):

    expr   := ['+'|'-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := atom ['^' nat]
    atom   := nat ['/' nat] | variable | '(' expr ')'

Variables come from {x, y, a, b, dx, dy, t}; '^' binds tightest; implicit
multiplication is not allowed.

File format (line oriented, '#' comments):

    type: web            # or: foliation, curve
    form: dy^2 - x*dx^2  # webs (and 1-form foliations)
    A: x^2               # foliations as vector fields (pair with B:)
    B: x*y
    f: y^2 - x^3         # curves

Exactly one of `form`, the pair `A:`/`B:`, or `f:` must appear, matching the
declared type.

Input limits.  The parser is where outside text becomes trusted polynomial
data: one term dict per polynomial, handed to `MPoly._make` once.  Each
product and power is checked before it is computed: a product or power of
total degree above MAX_DEGREE, a power with an exponent above MAX_DEGREE, and
a product of more than MAX_PRODUCT_TERMS term pairs are rejected with
ParseError (exit code 2 at the command line).  They are the guards against
oversized input: apart from the exponent cap of `**`, the polynomial
arithmetic does not check the size of its results.  Sums of monomials take a
fast path; other text, and every error, goes through the recursive descent.
Both combine terms in the order of the MPoly operators.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

from .errors import ParseError, WebValidationError
from .foliation import FoliationData
from .mpoly import MPoly, _add_into, _as_rational, _mul_terms, _nonzero
from .webmodel import AffinePoint, PlaneCurve, SymWeb, shared_factor_message

VARIABLES = ("x", "y", "a", "b", "dx", "dy", "t")
MAX_DEGREE = 32
MAX_PRODUCT_TERMS = 10**5

# A polynomial's term dicts are laid out over the variables its text names,
# in MPoly's sorted order.
_SORTED = tuple(sorted(VARIABLES))
_NAMES = re.compile(r"[^\W\d_]+")
# One token after optional white space: an integer (group 1), a run of
# letters (group 2) or any other character (group 3).
_TOKEN = re.compile(r"\s*(?:(\d+)|([^\W\d_]+)|(\S))")
_INT, _NAME = 1, 2
_SIGN = re.compile("([+-])")
# the decimal exponent of a coordinate, as `Fraction` reads it
_EXPONENT = re.compile(r"[eE][-+]?(\d+(?:_\d+)*)$")


class _Lexer:
    """Tokens (text, group, start, end), then an end marker with text None.
    `pos` moves as a character scanner's would: to a token's start when it
    is looked at, past its end when it is taken, so that every error points
    at the column it always has."""

    def __init__(self, text: str, line: int | None, layout: tuple):
        self.tokens = [(m[m.lastindex], m.lastindex, m.start(m.lastindex), m.end())
                       for m in _TOKEN.finditer(text)] + [(None, 0, len(text), len(text))]
        self.i = self.pos = 0
        self.line = line
        self.layout, self.one = layout, (0,) * len(layout)

    def error(self, message: str) -> ParseError:
        return ParseError(message, line=self.line, column=self.pos + 1)

    def peek(self) -> tuple:
        token = self.tokens[self.i]
        self.pos = token[2]
        return token

    def take(self) -> tuple:
        token = self.tokens[self.i]
        self.i += 1
        self.pos = token[3]
        return token

    def take_int(self) -> int:
        text, group, _, _ = self.peek()
        if group != _INT:
            raise self.error("expected an integer")
        if (value := _decimal(text)) is None:
            raise self.error(f"integer literal of {len(text)} digits is too long")
        self.take()
        return value


def _decimal(text: str) -> int | None:
    """The value of a decimal literal; None when it is not one, or when it
    has more digits than `int` converts (`sys.get_int_max_str_digits`)."""
    try:
        return int(text) if text.isdecimal() else None
    except ValueError:
        return None


def parse_polynomial(text: str, line: int | None = None) -> MPoly:
    named = set(_NAMES.findall(text))
    layout = tuple(v for v in _SORTED if v in named)
    terms = _monomials(text, layout)
    if terms is None:
        lex = _Lexer(text, line, layout)
        terms = _parse_expr(lex)
        if lex.peek()[0] is not None:
            raise lex.error(f"unexpected {lex.peek()[0][0]!r}")
    return MPoly._make(layout, {e: _as_rational(c) for e, c in terms.items()})


def _monomials(text: str, layout: tuple) -> dict | None:
    """The fast path: the terms of a sum of monomials, each a product of
    nonzero integers, variables and their powers, in the order `_parse_expr`
    gives them; None for any other text, which `_parse_expr` then parses or
    rejects."""
    position = {v: i for i, v in enumerate(layout)}
    pieces = _SIGN.split(text)
    pieces = pieces[1:] if len(pieces) > 1 and not pieces[0].strip() else ["+"] + pieces
    out: dict = {}
    for sign, term in zip(pieces[::2], pieces[1::2]):
        coef, exps, deg = (-1 if sign == "-" else 1), [0] * len(layout), 0
        for k, factor in enumerate(term.split("*")):
            base, caret, power = factor.partition("^")
            base, power = base.strip(), power.strip() if caret else "1"
            if (n := _decimal(power)) is None or n > MAX_DEGREE:
                return None
            if base in position:
                if k and deg + n > MAX_DEGREE:
                    return None
                exps[position[base]] += n
                deg += n
            elif c := _decimal(base):
                coef *= c ** n
            else:
                return None
        _add_into(out, {tuple(exps): coef})
    return out


def _degree(terms: dict) -> int:
    """Total degree; -1 for the zero polynomial, as `MPoly.total_degree`."""
    return max(map(sum, terms), default=-1)


def _negated(terms: dict) -> dict:
    return {e: -c for e, c in terms.items()}


def _parse_expr(lex: _Lexer) -> dict:
    sign = lex.peek()[0]
    if sign == "+" or sign == "-":
        lex.take()
    total = _parse_term(lex)
    if sign == "-":
        total = _negated(total)
    while (op := lex.peek()[0]) == "+" or op == "-":
        lex.take()
        term = _parse_term(lex)
        _add_into(total, term if op == "+" else _negated(term))
    return total


def _parse_term(lex: _Lexer) -> dict:
    total = _parse_factor(lex)
    while lex.peek()[0] == "*":
        lex.take()
        total = _product(lex, total, _parse_factor(lex))
    return total


def _parse_factor(lex: _Lexer) -> dict:
    base = _parse_atom(lex)
    if lex.peek()[0] == "^":
        lex.take()
        base = _power(lex, base, lex.take_int())
    return base


def _product(lex: _Lexer, f: dict, g: dict) -> dict:
    """f*g, once it is known to be within the input limits."""
    if _degree(f) + _degree(g) > MAX_DEGREE:
        raise lex.error(f"product of total degree above {MAX_DEGREE}")
    if len(f) * len(g) > MAX_PRODUCT_TERMS:
        raise lex.error(f"product of more than {MAX_PRODUCT_TERMS} term pairs")
    return _nonzero(_mul_terms(f, g))


def _power(lex: _Lexer, base: dict, n: int) -> dict:
    """base^n by the binary powering of `MPoly.__pow__`, every product checked
    by `_product` before it is computed."""
    if n > MAX_DEGREE or _degree(base) * n > MAX_DEGREE:
        raise lex.error(f"power of exponent or total degree above {MAX_DEGREE}")
    result = {lex.one: 1}
    while n:
        if n & 1:
            result = _product(lex, result, base)
        base = _product(lex, base, base) if n > 1 else base
        n >>= 1
    return result


def _parse_atom(lex: _Lexer) -> dict:
    text, group, _, _ = lex.peek()
    if text is None:
        raise lex.error("unexpected end of expression")
    if group == _INT:
        num = lex.take_int()
        if lex.peek()[0] == "/":
            lex.take()
            den = lex.take_int()
            if den == 0:
                raise lex.error("zero denominator")
            num = Fraction(num, den)
        return {lex.one: num} if num else {}
    if group == _NAME:
        lex.take()
        if text not in VARIABLES:
            raise lex.error(f"unknown variable {text!r} (allowed: {', '.join(VARIABLES)})")
        return {tuple(int(v == text) for v in lex.layout): 1}
    if text == "(":
        lex.take()
        inner = _parse_expr(lex)
        if lex.peek()[0] != ")":
            raise lex.error("expected ')'")
        lex.take()
        return inner
    raise lex.error(f"unexpected {text!r}")


def parse_point(text: str) -> AffinePoint:
    parts = text.split(",")
    if len(parts) != 2:
        raise ParseError(f"expected a point 'a,b', got {text!r}")

    def frac(s: str) -> Fraction:
        s = s.strip()
        # Fraction writes out 10^exponent: refuse an exponent above the cap on
        # the digits of an int, as `_decimal` refuses a longer literal
        if (exponent := _EXPONENT.search(s)) and (cap := sys.get_int_max_str_digits()):
            if (n := _decimal(exponent[1].replace("_", ""))) is None or n > cap:
                raise ParseError(f"bad rational coordinate {s!r}: decimal exponent above {cap}")
        try:
            return Fraction(s)
        except (ValueError, ZeroDivisionError) as e:
            raise ParseError(f"bad rational coordinate {s!r}: {e}")

    return AffinePoint(frac(parts[0]), frac(parts[1]))


def parse_input_text(text: str) -> tuple[SymWeb | FoliationData | PlaneCurve, list[str]]:
    """Parse a web/foliation/curve description; returns (object, warnings)."""
    fields: dict[str, tuple[str, int]] = {}
    declared: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        if ":" not in stripped:
            raise ParseError(f"expected 'key: value', got {stripped!r}", line=lineno)
        key, value = stripped.split(":", 1)
        key = key.strip().lower()
        value = value.strip()
        if key == "type":
            if declared is not None:
                raise ParseError("duplicate type line", line=lineno)
            declared = value.lower()
            if declared not in ("web", "foliation", "curve"):
                raise ParseError(f"unknown type {value!r}", line=lineno)
            continue
        if key not in ("form", "a", "b", "f"):
            raise ParseError(f"unknown key {key!r}", line=lineno)
        if key in fields:
            raise ParseError(f"duplicate key {key!r}", line=lineno)
        fields[key] = (value, lineno)
    if declared is None:
        raise ParseError("missing 'type:' line")
    warnings: list[str] = []
    if declared == "curve":
        if "f" not in fields or set(fields) != {"f"}:
            raise ParseError("type curve needs exactly the field 'f:'")
        value, lineno = fields["f"]
        poly = parse_polynomial(value, lineno)
        extra = set(poly.variables) - {"x", "y"}
        if extra:
            raise ParseError(f"curve equation involves {sorted(extra)}", line=lineno)
        curve = PlaneCurve(poly)
        if curve.raw != curve.defining:
            warnings.append("curve equation was not square-free; using the reduction")
        return curve, warnings
    has_form = "form" in fields
    has_ab = "a" in fields or "b" in fields
    if has_form and has_ab:
        raise ParseError("give either 'form:' or the pair 'A:'/'B:', not both")
    if has_ab and not ("a" in fields and "b" in fields):
        raise ParseError("vector-field input needs both 'A:' and 'B:'")
    if not has_form and not has_ab:
        raise ParseError("missing polynomial data ('form:' or 'A:'/'B:')")
    if has_ab:
        if declared != "foliation":
            raise ParseError("'A:'/'B:' input requires type: foliation")
        a_text, a_line = fields["a"]
        b_text, b_line = fields["b"]
        A = parse_polynomial(a_text, a_line)
        B = parse_polynomial(b_text, b_line)
        for poly, lineno in ((A, a_line), (B, b_line)):
            extra = set(poly.variables) - {"x", "y"}
            if extra:
                raise ParseError(f"vector field involves {sorted(extra)}", line=lineno)
        fol = FoliationData(A, B)
        if fol.saturated:
            warnings.append(
                f"gcd(A, B) was not constant; saturated to A={fol.A}, B={fol.B}"
            )
        return fol, warnings
    value, lineno = fields["form"]
    poly = parse_polynomial(value, lineno)
    try:
        web = SymWeb(poly, saturate=True)
    except WebValidationError as e:
        raise ParseError(str(e), line=lineno)
    if web.common_factor is not None:
        warnings.append(f"form coefficients were not coprime; saturated "
                        f"({shared_factor_message(web.common_factor)})")
    if declared == "foliation":
        if web.k != 1:
            raise ParseError(f"type foliation requires a degree-1 form, got k={web.k}", line=lineno)
        coeffs = web.coefficients()
        return FoliationData(coeffs[1], -coeffs[0]), warnings
    if not web.generically_squarefree:
        warnings.append("form is not generically square-free (repeated local factor)")
    return web, warnings


def parse_input(path: str) -> tuple[SymWeb | FoliationData | PlaneCurve, list[str]]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_input_text(fh.read())
