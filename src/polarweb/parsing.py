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

Input limits.  Each product and power is checked before it is computed: a
product or power of total degree above MAX_DEGREE, a power with an exponent
above MAX_DEGREE, and a product of more than MAX_PRODUCT_TERMS term pairs are
rejected with ParseError (exit code 2 at the command line).  They are the
guards against oversized input: apart from the exponent cap of `**`, the
polynomial arithmetic does not check the size of its results.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ParseError, WebValidationError
from .foliation import FoliationData
from .mpoly import MPoly
from .webmodel import AffinePoint, PlaneCurve, SymWeb

VARIABLES = ("x", "y", "a", "b", "dx", "dy", "t")
MAX_DEGREE = 32
MAX_PRODUCT_TERMS = 10**5


class _Lexer:
    def __init__(self, text: str, line: int | None = None):
        self.text = text
        self.pos = 0
        self.line = line

    def error(self, message: str) -> ParseError:
        return ParseError(message, line=self.line, column=self.pos + 1)

    def peek(self) -> str | None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        if self.pos >= len(self.text):
            return None
        return self.text[self.pos]

    def take_int(self) -> int:
        ch = self.peek()
        if ch is None or not ch.isdigit():
            raise self.error("expected an integer")
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        return int(self.text[start : self.pos])

    def take_name(self) -> str:
        ch = self.peek()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isalpha():
            self.pos += 1
        name = self.text[start : self.pos]
        if name not in VARIABLES:
            raise self.error(f"unknown variable {name!r} (allowed: {', '.join(VARIABLES)})")
        return name

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            raise self.error(f"expected {ch!r}")
        self.pos += 1


def parse_polynomial(text: str, line: int | None = None) -> MPoly:
    lex = _Lexer(text, line)
    poly = _parse_expr(lex)
    if lex.peek() is not None:
        raise lex.error(f"unexpected {lex.peek()!r}")
    return poly


def _parse_expr(lex: _Lexer) -> MPoly:
    sign = 1
    if lex.peek() in ("+", "-"):
        sign = -1 if lex.peek() == "-" else 1
        lex.pos += 1
    total = _parse_term(lex) * sign
    while lex.peek() in ("+", "-"):
        op = lex.peek()
        lex.pos += 1
        term = _parse_term(lex)
        total = total + term if op == "+" else total - term
    return total


def _parse_term(lex: _Lexer) -> MPoly:
    total = _parse_factor(lex)
    while lex.peek() == "*":
        lex.pos += 1
        total = _product(lex, total, _parse_factor(lex))
    return total


def _parse_factor(lex: _Lexer) -> MPoly:
    base = _parse_atom(lex)
    if lex.peek() == "^":
        lex.pos += 1
        base = _power(lex, base, lex.take_int())
    return base


def _product(lex: _Lexer, f: MPoly, g: MPoly) -> MPoly:
    """f*g, once it is known to be within the input limits."""
    if f.total_degree() + g.total_degree() > MAX_DEGREE:
        raise lex.error(f"product of total degree above {MAX_DEGREE}")
    if len(f.terms) * len(g.terms) > MAX_PRODUCT_TERMS:
        raise lex.error(f"product of more than {MAX_PRODUCT_TERMS} term pairs")
    return f * g


def _power(lex: _Lexer, base: MPoly, n: int) -> MPoly:
    """base^n by the binary powering of `MPoly.__pow__`, every product checked
    by `_product` before it is computed."""
    if n > MAX_DEGREE or base.total_degree() * n > MAX_DEGREE:
        raise lex.error(f"power of exponent or total degree above {MAX_DEGREE}")
    result = MPoly.constant(1)
    while n:
        if n & 1:
            result = _product(lex, result, base)
        base = _product(lex, base, base) if n > 1 else base
        n >>= 1
    return result


def _parse_atom(lex: _Lexer) -> MPoly:
    ch = lex.peek()
    if ch is None:
        raise lex.error("unexpected end of expression")
    if ch.isdigit():
        num = lex.take_int()
        if lex.peek() == "/":
            lex.pos += 1
            den = lex.take_int()
            if den == 0:
                raise lex.error("zero denominator")
            return MPoly.constant(Fraction(num, den))
        return MPoly.constant(num)
    if ch.isalpha():
        return MPoly.variable(lex.take_name())
    if ch == "(":
        lex.pos += 1
        inner = _parse_expr(lex)
        lex.expect(")")
        return inner
    raise lex.error(f"unexpected {ch!r}")


def parse_point(text: str) -> AffinePoint:
    parts = text.split(",")
    if len(parts) != 2:
        raise ParseError(f"expected a point 'a,b', got {text!r}")

    def frac(s: str) -> Fraction:
        s = s.strip()
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
        web = SymWeb(poly)
    except WebValidationError as e:
        try:
            web = SymWeb(poly, saturate=True)
            warnings.append(f"form coefficients were not coprime; saturated ({e})")
        except WebValidationError:
            raise ParseError(str(e), line=lineno)
    if declared == "foliation":
        if web.k != 1:
            raise ParseError(f"type foliation requires a degree-1 form, got k={web.k}", line=lineno)
        coeffs = web.coefficients()
        # the coefficients are coprime here, so this vector field is never saturated
        return FoliationData(coeffs[1], -coeffs[0]), warnings
    if not web.generically_squarefree:
        warnings.append("form is not generically square-free (repeated local factor)")
    return web, warnings


def parse_input(path: str) -> tuple[SymWeb | FoliationData | PlaneCurve, list[str]]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_input_text(fh.read())
