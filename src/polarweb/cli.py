"""Command-line front end.

Exit codes: 0 all assertions passed, 1 a mathematical assertion failed,
2 usage or parse error, 3 numeric abort.  Reports are deterministic for a
fixed input and argv; the timestamp is isolated on its own line so byte
comparison of the remainder is meaningful.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import json
import sys

from .errors import (
    DegenerateSampleError,
    NumericAbortError,
    ParseError,
    PolarwebError,
    PolynomialError,
    WebValidationError,
)
from .foliation import (
    FoliationData,
    class_of_curve,
    classify_singularity,
    inflexion_divisor,
    inflexion_lemma_check,
    polar_sing_in_inflexion_check,
    quasi_radial_bound_check,
    tangent_cone_dichotomy_check as _dichotomy_all_singularities,  # the name perfbench/spans.py wraps
)
from .localsing import (
    CurveGerm,
    equisingularity_check,
    fingerprint,
    genus_constancy_check,
    genus_of_curve,
)
from .mpoly import format_mpoly
from .parsing import parse_input, parse_point
from .polarops import (
    RadialProduct,
    base_points_check,
    branches_check,
    family_degree_check,
    family_dimension_check,
    generic_polar_irreducible,
    generic_polar_singularities_check,
    polar_curve,
    polar_degree_check,
    polar_equality_check as _equality_check,  # the name perfbench/spans.py wraps
    polar_family,
)
from .reports import CheckReport
from .webmodel import (
    PlaneCurve,
    SymWeb,
    discriminant_curve,
    singular_set,
    tangent_directions,
    web_degree,
)

def _positive_int(text: str) -> int:
    """argparse type of --samples: an int of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every call."""
    parser = argparse.ArgumentParser(
        prog="polarweb",
        description="Polar curves and polar families of plane webs and foliations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, center=False, point=False):
        p.add_argument("--in", dest="path", required=True, help="input file")
        if center:
            p.add_argument("--center", required=True, help="rational center a,b")
        if point:
            p.add_argument("--point", required=True, help="rational point a,b")
        p.add_argument("--json", action="store_true", help="emit a JSON report")

    common(sub.add_parser("polar", help="polar curve with a given center"), center=True)
    common(sub.add_parser("degree", help="degree of the web"))
    common(sub.add_parser("discriminant", help="discriminant curve"))
    common(sub.add_parser("singular", help="singular set"))
    common(sub.add_parser("directions", help="tangent directions at a point"), point=True)
    common(sub.add_parser("inflexion", help="inflexion divisor of a foliation"))
    common(sub.add_parser("classify-sing", help="quasi-radial classification"), point=True)
    fam = sub.add_parser("family", help="polar family: base points, degree, dimension")
    common(fam)
    group = fam.add_mutually_exclusive_group(required=True)
    group.add_argument("--base-points", action="store_true")
    group.add_argument("--degree", action="store_true")
    group.add_argument("--dimension", action="store_true")
    cls = sub.add_parser("class", help="class (degree of the dual) of a curve")
    common(cls)
    gen = sub.add_parser("genus", help="genus of an irreducible curve")
    common(gen)
    gen.add_argument("--affine-only", action="store_true",
                     help="ignore singular points on the line at infinity")
    common(sub.add_parser("localsing", help="fingerprint of a curve germ"), point=True)
    chk = sub.add_parser("check", help="run a theorem check")
    common(chk)
    chk.add_argument("--theorem", required=True, choices=CHECKS)
    chk.add_argument("--seed", type=int, default=0, help="sample seed of equising and genus-constant")
    chk.add_argument("--samples", type=_positive_int, default=20)
    return parser


@functools.cache
def _argv_tables(parser: argparse.ArgumentParser) -> dict:
    """subcommand -> ({long flag: Action}, {dest: default}, required Actions) from
    the parser's own actions, for each subcommand with no mutually exclusive group."""
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    tables = {}
    for name, sub in subparsers.choices.items():
        if sub._mutually_exclusive_groups:
            continue
        stores = [a for a in sub._actions if isinstance(a, (argparse._StoreAction, argparse._StoreConstAction))]
        tables[name] = ({flag: a for a in stores for flag in a.option_strings if flag.startswith("--")},
                        {a.dest: a.default for a in sub._actions if a.default is not argparse.SUPPRESS},
                        [a for a in sub._actions if a.required])
    return tables


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """`_build_parser().parse_args(argv)`.  A subcommand of `_argv_tables`
    followed by full --flags, each value one token that does not start with
    '-', is read from the tables: each value converted by its action's type
    and checked against its choices, the last of a repeated flag kept, every
    required flag given.  Anything else, help and errors too, goes to argparse."""
    parser = _build_parser()
    table = _argv_tables(parser).get(argv[0]) if argv else None
    if table is not None:
        flags, defaults, required = table
        values, seen, i = dict(defaults), set(), 1
        try:
            while i < len(argv):
                action = flags[argv[i]]
                if action.nargs == 0:
                    value, i = action.const, i + 1
                else:
                    text, i = argv[i + 1], i + 2
                    value = action.type(text) if action.type else text
                    if text.startswith("-") or action.choices is not None and value not in action.choices:
                        raise ValueError(text)
                values[action.dest] = value
                seen.add(action)
        except (KeyError, IndexError, ValueError, TypeError, argparse.ArgumentTypeError):
            pass
        else:
            if all(a in seen for a in required):
                return argparse.Namespace(command=argv[0], **values)
    return parser.parse_args(argv)


def _as_web(obj) -> SymWeb:
    if isinstance(obj, SymWeb):
        return obj
    if isinstance(obj, FoliationData):
        return obj.as_web
    raise ParseError("this subcommand needs a web or foliation input")


def _as_foliation(obj) -> FoliationData:
    if isinstance(obj, FoliationData):
        return obj
    if isinstance(obj, SymWeb) and obj.k == 1:
        coeffs = obj.coefficients()
        return FoliationData(coeffs[1], -coeffs[0])
    raise ParseError("this subcommand needs a foliation (k = 1) input")


def _as_curve(obj) -> PlaneCurve:
    if isinstance(obj, PlaneCurve):
        return obj
    raise ParseError("this subcommand needs a curve input (type: curve, f: ...)")


# theorem -> (input coercion, runner(input, seed, samples)).  A sampled
# theorem's runner applies its sample cap.  Each calls the check through this
# module's globals, so a wrapper bound over a check name is the one that runs.
CHECKS = {
    "polar-degree": (_as_web, lambda w, s, n: polar_degree_check(w)),
    "polar-equality": (_as_web, lambda w, s, n: _equality_check(w)),
    "k2": (_as_web, lambda w, s, n: family_degree_check(w)),
    "family-dim": (_as_web, lambda w, s, n: family_dimension_check(w)),
    "base-points": (_as_web, lambda w, s, n: base_points_check(w)),
    "sing-locus": (_as_web, lambda w, s, n: generic_polar_singularities_check(w)),
    "branches": (_as_web, lambda w, s, n: branches_check(w)),
    "irreducible": (_as_web, lambda w, s, n: generic_polar_irreducible(w)),
    "inflexion-lemma": (_as_foliation, lambda f, s, n: inflexion_lemma_check(f)),
    "sing-in-E": (_as_foliation, lambda f, s, n: polar_sing_in_inflexion_check(f)),
    "qr-dichotomy": (_as_foliation, lambda f, s, n: _dichotomy_all_singularities(f)),
    "qr-bound": (_as_foliation, lambda f, s, n: quasi_radial_bound_check(f)),
    "equising": (_as_foliation, lambda f, s, n: equisingularity_check(f, s, min(n, 10))),
    "genus-constant": (_as_foliation, lambda f, s, n: genus_constancy_check(f, s, min(n, 5))),
}


def _emit(args, lines: list[str], report: CheckReport | None, command: str) -> str:
    stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
    if getattr(args, "json", False):
        doc = {
            "command": command,
            "output": lines,
            "report": report.to_dict() if report is not None else None,
            "timestamp": stamp,
        }
        return json.dumps(doc, sort_keys=True, indent=1)
    out = [f"command: {command}", f"timestamp: {stamp}"]
    out.extend(lines)
    if report is not None:
        out.append(report.render_text())
    return "\n".join(out)


def run_command(argv: list[str]) -> tuple[int, str]:
    try:
        args = _parse_args(argv)
    except SystemExit as e:
        return (0 if e.code in (0, None) else 2), ""
    command = "polarweb " + " ".join(argv)
    try:
        obj, warnings = parse_input(args.path)
        lines = [f"warning: {w}" for w in warnings]
        report: CheckReport | None = None
        if args.command == "polar":
            web = _as_web(obj)
            center = parse_point(args.center)
            result = polar_curve(web, center)
            if isinstance(result, RadialProduct):
                lines.append(
                    "polar is all of the plane: the web is the product of the radial "
                    f"foliation at {center} with [{format_mpoly(result.cofactor_form)}]"
                )
            else:
                lines.append(f"polar: {format_mpoly(result.raw)}")
                lines.append(f"degree: {result.raw_degree}")
        elif args.command == "degree":
            web = _as_web(obj)
            lines.append(f"degree: {web_degree(web)}")
        elif args.command == "discriminant":
            web = _as_web(obj)
            curve = discriminant_curve(web)
            lines.append("discriminant: " + ("empty" if curve.is_empty else format_mpoly(curve.defining)))
        elif args.command == "singular":
            web = _as_web(obj)
            sing = singular_set(web)
            for p in sing.points:
                lines.append(f"singular point: {p} [exact]")
            for q in sing.numeric_points:
                lines.append(f"singular point: ({q[0]:.9g}, {q[1]:.9g}) [numeric]")
            if sing.is_empty():
                lines.append("singular set: empty")
            if sing.elim_x is not None:
                lines.append(f"eliminant in x: {format_mpoly(sing.elim_x)}")
            if sing.elim_y is not None:
                lines.append(f"eliminant in y: {format_mpoly(sing.elim_y)}")
        elif args.command == "directions":
            web = _as_web(obj)
            p = parse_point(args.point)
            for d in tangent_directions(web, p):
                lines.append(f"direction: {d} [{'exact' if d.is_exact else 'numeric'}]")
        elif args.command == "inflexion":
            fol = _as_foliation(obj)
            e = inflexion_divisor(fol)
            if e is None:
                lines.append("inflexion divisor: identically zero (all leaves are lines)")
            elif e.is_empty:
                lines.append("inflexion divisor: empty (unit polynomial)")
            else:
                lines.append(f"inflexion divisor: {format_mpoly(e.defining)}")
        elif args.command == "classify-sing":
            fol = _as_foliation(obj)
            q = parse_point(args.point)
            cls = classify_singularity(fol, q)
            lines.append(f"classification: {cls}")
            if cls.radial_cofactor is not None:
                lines.append(f"radial cofactor: {format_mpoly(cls.radial_cofactor)}")
        elif args.command == "family":
            web = _as_web(obj)
            if args.base_points:
                report = base_points_check(web)
            elif args.degree:
                report = family_degree_check(web)
            else:
                report = family_dimension_check(web)
            fam = polar_family(web)
            lines.append(f"parametric polar: {format_mpoly(fam.parametric)}")
        elif args.command == "class":
            curve = _as_curve(obj)
            lines.append(f"class: {class_of_curve(curve)}")
        elif args.command == "genus":
            curve = _as_curve(obj)
            g = genus_of_curve(curve, include_infinity=not args.affine_only)
            lines.append(f"genus: {g}" + (" (affine singularities only)" if args.affine_only else ""))
        elif args.command == "localsing":
            curve = _as_curve(obj)
            p = parse_point(args.point)
            fp = fingerprint(CurveGerm.at_point(curve, (p.a, p.b)))
            lines.append(f"fingerprint at {p}: {fp}")
        elif args.command == "check":
            report = _run_check(obj, args)
        text = _emit(args, lines, report, command)
        if report is not None and not report.passed:
            return 1, text
        return 0, text
    except (ParseError, WebValidationError, FileNotFoundError, PolynomialError) as e:
        return 2, f"error: {e}"
    except (NumericAbortError, DegenerateSampleError) as e:
        return 3, f"numeric abort: {e}"
    except PolarwebError as e:
        return 3, f"error: {e}"


def _run_check(obj, args) -> CheckReport:
    coerce, run = CHECKS[args.theorem]
    return run(coerce(obj), args.seed, args.samples)


def main(argv: list[str] | None = None) -> int:
    code, text = run_command(sys.argv[1:] if argv is None else argv)
    if text:
        print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
