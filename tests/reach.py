"""Reachability gate: every function in src/polarweb is entered by a command.

`--check` runs, under `sys.setprofile`, every job that `body_digests.py`
lists and the command lines of `EXTRA`, which call every subcommand and flag
once and reach the paths of real input that the benchmark's inputs miss.
Then it walks the AST of `src/polarweb/*.py` and exits 1 for each function
or method, dunder methods aside, that no job entered and that `ALLOWED`
does not name, and for each `ALLOWED` entry that a job entered or that no
longer exists.  A function is named `module.qualified_name`, as in
`localsing.CurveGerm.multiplicity`; a nested one as `outer.inner`.

    python tests/reach.py --check     # exit 1 on an unreached function or a stale ALLOWED entry

A change that deletes the last caller of a function deletes the function, or
names it in `ALLOWED` with the reason it stays.
"""

from __future__ import annotations

import argparse
import ast
import os
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = ROOT / "src" / "polarweb"

_TRACKING = "perfbench/spans.py wraps it by name; ROADMAP 1b deletes the root-tracking stack"
_SPANNED = "perfbench/spans.py wraps it by name; a test oracle until ROADMAP 24 with 1c"

# qualified name -> why it stays although no command enters it
ALLOWED = {
    "numerics.newton_polish": _TRACKING,
    "numerics.min_separation": _TRACKING,
    "numerics.TrackCertificate.merge": _TRACKING,
    "numerics.track_roots": _TRACKING,
    "numerics.match_permutation": _TRACKING,
    "numerics.MonodromyResult.orbit_count": _TRACKING,
    "numerics._circle_loop": _TRACKING,
    "numerics.monodromy_partition": _TRACKING,
    "numerics.monodromy_partition.find": _TRACKING,
    "numerics.monodromy_partition.union": _TRACKING,
    "polarops.polar_equality_criterion": _SPANNED,
    "polarops.family_degree": _SPANNED,
    "foliation.is_inflexion_point": _SPANNED,
    "localsing.intersection_multiplicity": _SPANNED,
    "cli.main": "the [project.scripts] entry point; it only prints what run_command returns",
}

# (input text, argv with the input path inserted after the subcommand)
EXTRA = [
    # every subcommand, with --json once each
    ("type: web\nform: dy^2 - x*dx^2\n", ["polar", "--center", "1,2", "--json"]),
    ("type: web\nform: dy^2 - x*dx^2\n", ["degree", "--json"]),
    ("type: web\nform: dy^2 - x*dx^2\n", ["discriminant", "--json"]),
    ("type: foliation\nA: x^2 - 2\nB: y\n", ["singular", "--json"]),
    ("type: web\nform: dy^2 - x*dx^2\n", ["directions", "--point", "2,0", "--json"]),
    # rational directions (+-1 at (1, 0)), which no benchmark job asks for
    ("type: web\nform: dy^2 - x*dx^2\n", ["directions", "--point", "1,0"]),
    ("type: foliation\nA: x^2\nB: y^2\n", ["inflexion", "--json"]),
    ("type: foliation\nA: x - y^2\nB: y + x^2\n", ["classify-sing", "--point", "0,0", "--json"]),
    ("type: web\nform: dy^2 - x*dx^2\n", ["family", "--base-points", "--json"]),
    ("type: web\nform: dy^2 - x*dx^2\n", ["family", "--degree"]),
    ("type: web\nform: dy^2 - x*dx^2\n", ["family", "--dimension"]),
    ("type: curve\nf: y^2 - x^3 + x\n", ["class", "--json"]),
    ("type: curve\nf: (y - x^2 + 2)^3 - (x^2 - 2)^4\n", ["genus", "--json"]),
    ("type: curve\nf: y^2 - x^3\n", ["genus", "--affine-only"]),
    ("type: curve\nf: y^2 - x^3\n", ["localsing", "--point", "0,0", "--json"]),
    ("type: foliation\nA: x^2 - 1\nB: y^2 - 2\n", ["check", "--theorem", "genus-constant", "--seed", "1",
                                                   "--samples", "3", "--json"]),
    # a radial center: the polar is the whole plane
    ("type: web\nform: (x*dy - y*dx)*dx\n", ["polar", "--center", "0,0"]),
    # form coefficients that share a factor, saturated with a warning
    ("type: web\nform: (x - y)*dx^2 + (x - y)*x*dy^2\n", ["degree"]),
    # a malformed line
    ("type: curve\nf: x + * y\n", ["class"]),
    # R = Res(W, E_W) expanded: no small grid point is a witness
    ("type: web\nform: dy^2 - (x^3 - x)*dx^2\n", ["check", "--theorem", "sing-locus"]),
    # a singular set whose generators are pairwise non-coprime, with a
    # common factor in x and y in each pair, so no pairwise resultant is nonzero
    ("type: web\nform: (x + y)*(x - y)*dx^2 + (x - y)*(x + 2*y + 1)*dx*dy + (x + y)*(x + 2*y + 1)*dy^2\n",
     ["singular"]),
    # a foliation whose generic polar is singular
    ("type: foliation\nA: x^2 - y^2\nB: x*y\n", ["check", "--theorem", "equising", "--samples", "2"]),
]


def definitions(path: Path, module: str) -> dict[tuple[str, int], str]:
    """(file, first line) -> qualified name of each function and method of a
    source file, dunder methods aside.  The first line is the one a code
    object reports: its first decorator's, or else its `def`'s."""
    out = {}
    file = os.path.realpath(path)

    def walk(body, prefix):
        for node in body:
            if isinstance(node, ast.ClassDef):
                walk(node.body, f"{prefix}{node.name}.")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                    out[file, first] = f"{prefix}{node.name}"
                walk(node.body, f"{prefix}{node.name}.")
            else:
                for field in ("body", "orelse", "finalbody", "handlers"):
                    walk(getattr(node, field, ()), prefix)

    walk(ast.parse(path.read_text(encoding="utf-8")).body, f"{module}.")
    return out


def entered(run) -> set[tuple[str, int]]:
    """(file, first line) of each Python function entered while `run()` runs."""
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return {(os.path.realpath(code.co_filename), code.co_firstlineno) for code in codes}


def findings(files: list[Path], seen: set[tuple[str, int]], allowed: dict[str, str]) -> list[str]:
    """One line for each function of `files` that is not in `seen` and not
    in `allowed`, and for each `allowed` entry that is in `seen` or names no
    function; a module is named by its file's stem."""
    names = {}
    for path in files:
        names.update(definitions(path, path.stem))
    out = [f"never entered: {name} ({Path(file).name}:{line})"
           for (file, line), name in sorted(names.items()) if (file, line) not in seen and name not in allowed]
    defined = {name: key for key, name in names.items()}
    for name in sorted(allowed):
        if name not in defined:
            out.append(f"stale ALLOWED entry: {name} no longer exists")
        elif defined[name] in seen:
            out.append(f"stale ALLOWED entry: {name} was entered")
    return out


def _run_all() -> tuple[int, int]:
    """Run every digest job and every EXTRA case; (digest jobs, extra cases)."""
    import body_digests
    from polarweb.cli import run_command

    count = 0
    with tempfile.TemporaryDirectory() as directory:
        for workload, inputs in body_digests.INPUTS.items():
            for seed in body_digests.SEEDS:
                count += sum(1 for _ in body_digests.run_jobs(workload, seed, inputs, directory))
        for index, (text, args) in enumerate(EXTRA):
            path = Path(directory) / f"extra{index}.txt"
            path.write_text(text, encoding="utf-8")
            run_command([args[0], "--in", str(path)] + args[1:])
    return count, len(EXTRA)


def check() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    counts = []
    seen = entered(lambda: counts.extend(_run_all()))
    problems = findings(sorted(SOURCES.glob("*.py")), seen, ALLOWED)
    print("".join(f"{line}\n" for line in problems)
          + f"{len(problems)} finding(s) after {counts[0]} digest jobs and {counts[1]} extra command lines"
          f" in {time.perf_counter() - start:.1f} s")
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--check", action="store_true", required=True,
                        help="run every job under the profiler and report unreached functions")
    parser.parse_args(argv)
    return check()


if __name__ == "__main__":
    sys.exit(main())
