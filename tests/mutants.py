"""Committed mutants: small breaks of the program, each with the test that
must catch it.

An entry of `MUTANTS` is (file under src/polarweb, old text, new text, test
id).  `--check` first runs every listed test on an unchanged copy of the
tree, where each must pass.  Then, for each entry, it copies `src/`,
`tests/`, `perfbench/` and `pyproject.toml` to a temporary directory,
replaces the old text, which must occur exactly once, by the new one, and
runs the entry's test there.  The mutant is killed when the test fails
(pytest exit code 1).  A test that passes lets the mutant survive; any other
exit code (no such test, an import error) is a stale entry.  Hypothesis runs
with a fixed seed, so the verdicts repeat.

    python tests/mutants.py --check     # exit 1 if a mutant survives or an entry is stale

A change that rewrites a listed line updates its entry in the same change.
"""

from __future__ import annotations

import argparse
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "perfbench")

MUTANTS = [
    # the Gao-Ruppert unknowns up to total degree N - 2 lose part of the
    # solution space, which needs N - 1
    ("polarops.py",
     "top = max(i + j for i, j, _ in terms) - 1",
     "top = max(i + j for i, j, _ in terms) - 2",
     "tests/test_polarops.py::TestAbsoluteFactorCount::test_a_polar_of_bidegree_n_n_has_n_n_plus_1_rows"),
    # without the guard, a grid point where a dy-leading coefficient vanishes
    # reaches the PRS, which refuses a zero top
    ("polarops.py",
     "if a[-1] and b[-1] and (value := _int_prs_resultant(a, b)):",
     "if (value := _int_prs_resultant(a, b)):",
     "tests/test_polarops.py::TestInflexionCurve::test_a_planted_vanishing_leading_coefficient"),
    # the pivot step of the elimination mod p adds the kept row
    ("zpoly.py",
     "row = [x - a * y for x, y in zip(row, top)]",
     "row = [x + a * y for x, y in zip(row, top)]",
     "tests/test_zpoly.py::TestRank::test_each_yield_is_a_rank_step_over_f_p"),
    # the form at a point with the (dx, dy) exponents swapped
    ("webmodel.py",
     "{(k - i, i): a.evaluate(point)",
     "{(i, k - i): a.evaluate(point)",
     "tests/test_webmodel.py::TestFormAt::test_equals_the_substituted_form"),
    # the two cases of the dichotomy swapped, which the tangent cones of
    # planted singular points catch
    ("foliation.py",
     "if cls.quasi_radial:\n        mult, claim = 1,",
     "if not cls.quasi_radial:\n        mult, claim = 1,",
     "tests/test_foliation.py::TestDichotomy::test_planted_rational_singular_point"),
    # Res_y(F, c) = c^n for a polar free of y, not c
    ("foliation.py",
     "else g**n)",
     "else g)",
     "tests/test_foliation.py::TestClassOfCurve::test_polar_free_of_y_at_a_node"),
    # without the square-free assertion, dx^2 passes the branches check
    ("polarops.py",
     "squarefree = web.generically_squarefree",
     "squarefree = True",
     "tests/test_polarops.py::TestBranches::test_a_repeated_factor_fails"),
    # the lowest part of the polar family in (x, y) in place of the top one
    ("polarops.py",
     "degree = max(jets)",
     "degree = min(jets)",
     "tests/test_polarops.py::TestPolarDegree::test_sampled_degree_matches_the_locus"),
    # one power of x - a short in the congruence of polar-equality
    ("polarops.py",
     "(X - A_VAR) ** k",
     "(X - A_VAR) ** (k - 1)",
     "tests/test_polarops.py::TestPolarEquality::test_congruence_on_battery"),
    # the whole web taken for its factor of lines, so N is lost
    ("polarops.py",
     "L = poly_gcd(web.form, inflexion_form(web))",
     "L = web.form",
     "tests/test_polarops.py::TestInflexionCurve::test_the_report_carries_the_witness_of_n"),
    # a polar of two components taken for the witness of irreducibility
    ("polarops.py",
     "if count == 1:",
     "if count >= 1:",
     "tests/test_polarops.py::TestIrreducibility::test_the_three_web_with_a_special_line"),
    # a non-reduced polar taken for a witness: its reduction has one component
    ("polarops.py",
     "elif curve.raw != curve.defining:",
     "elif False:",
     "tests/test_polarops.py::TestIrreducibility::test_a_special_center_is_passed[non-reduced]"),
    # a polar of short degree taken for a witness
    ("polarops.py",
     "elif curve.raw.total_degree() < n:",
     "elif False:",
     "tests/test_polarops.py::TestIrreducibility::test_a_special_center_is_passed[short degree]"),
    # a polar of class #QR taken for the witness of the bound: the circle
    # pencil's walk would stop at (0, 0), of class 0
    ("foliation.py",
     "if qr <= cls - 1:",
     "if qr <= cls:",
     "tests/test_foliation.py::TestQuasiRadialBound::test_the_circle_pencil_passes_its_center"),
]


def _copy_tree(target: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.egg-info", ".work", ".hypothesis")
    for name in COPIED:
        shutil.copytree(ROOT / name, target / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", target / "pyproject.toml")


def _pytest(tree: Path, test_ids: list[str]) -> int:
    """Exit code of pytest on the test ids, run in `tree`, so that its
    `pythonpath` setting and `tests/conftest.py` import the package from
    `tree/src`."""
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
            "--hypothesis-seed=0", *test_ids]
    return subprocess.run(argv, cwd=tree, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def _mutate(tree: Path, file: str, old: str, new: str) -> str | None:
    """Apply one mutant in `tree`; the reason it cannot be applied, or None."""
    path = tree / "src" / "polarweb" / file
    text = path.read_text(encoding="utf-8")
    if text.count(old) != 1:
        return f"old text occurs {text.count(old)} times in {file}"
    path.write_text(text.replace(old, new), encoding="utf-8")
    return None


def check() -> int:
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        clean = Path(tmp)
        _copy_tree(clean)
        code = _pytest(clean, [test for *_, test in MUTANTS])
    if code != 0:
        print(f"the listed tests do not all pass on the unchanged tree (pytest exit {code})")
        return 1
    for file, old, new, test in MUTANTS:
        with tempfile.TemporaryDirectory() as tmp:
            tree = Path(tmp)
            _copy_tree(tree)
            problem = _mutate(tree, file, old, new)
            if problem is None:
                code = _pytest(tree, [test])
                problem = {0: "SURVIVED", 1: None}.get(code, f"stale entry (pytest exit {code})")
        print(f"{'killed' if problem is None else problem:>10}  {file}: {old!r} -> {new!r}  by {test}")
        failures += problem is not None
    print(f"{len(MUTANTS) - failures} of {len(MUTANTS)} mutants killed")
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--check", action="store_true", required=True,
                        help="apply each mutant to a copy of the tree and run its test")
    parser.parse_args()
    return check()


if __name__ == "__main__":
    sys.exit(main())
