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
    # two dependent rows mod p taken for one square-free component: x^2 + y^2
    # has two, d log(x + iy) and d log(x - iy) (a squared conic has six)
    ("polarops.py",
     "return len(list(islice(dependent, 2))) == 1",
     "return len(list(islice(dependent, 3))) <= 2",
     "tests/test_polarops.py::TestOneComponentModP::test_not_certified[conjugate-lines]"),
    # the witness of irreducibility never proved on the raw polar: the same
    # report, but each witness pays a square-free part and a shear again
    ("polarops.py",
     "elif certify and (_one_component_at(curve.raw, p) or _one_component_mod_p(curve.raw)):",
     "elif False:",
     "tests/test_polarops.py::TestIrreducibilityWork::test_a_certified_witness_takes_no_square_free_part_and_no_shear[2]"),
    # the line certificate without its smooth point: x^2 - 2y^2, two lines
    # over C through the origin, has irreducible images x^2 - 2c^2 mod 5
    ("polarops.py",
     "or value or not (gx or gy):",
     "or value:",
     "tests/test_polarops.py::TestOneComponentAt::test_refused[conjugate-lines-through-the-center]"),
    # a trial prime that divides lc: the image of (5x + y)(x + 2y + 1) on
    # y = 1 drops to the line x + 3 mod 5, irreducible
    ("polarops.py",
     "primes = [q for q in _SMALL_PRIMES if lc % q]",
     "primes = list(_SMALL_PRIMES)",
     "tests/test_polarops.py::TestOneComponentAt::test_refused[a-prime-dividing-lc]"),
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
    # the argv reader takes a value outside the choices: `--theorem bogus`
    # gives a Namespace where argparse exits 2
    ("cli.py",
     "or action.choices is not None and value not in action.choices:",
     "or False:",
     "tests/test_cli.py::TestFuzz::test_the_argv_reader_agrees_with_argparse"),
    # the argv reader lets a required flag go missing: no `--in` gives
    # path=None where argparse exits 2
    ("cli.py",
     "if all(a in seen for a in required):",
     "if True:",
     "tests/test_cli.py::TestFuzz::test_the_argv_reader_agrees_with_argparse"),
    # the foliation form with dx and dy swapped: A*dx - B*dy
    ("foliation.py",
     "terms = {(0, 1) + e: a for e, a in _rekey(A, (\"x\", \"y\")).items()}\n"
     "        terms.update({(1, 0) + e:",
     "terms = {(1, 0) + e: a for e, a in _rekey(A, (\"x\", \"y\")).items()}\n"
     "        terms.update({(0, 1) + e:",
     "tests/test_foliation.py::TestFoliationData::test_form_is_a_dy_minus_b_dx"),
    # every shear taken as separating: on the sqrt 2 grid, lam = 1 puts two
    # zeros on one t, and their y would be read as the mean of the two
    ("solve.py",
     "if j > 1 and not _separated(part, s, j):",
     "if False:",
     "tests/test_solve.py::TestShapeLemma::test_the_sqrt_2_grid"),
    # a common factor off the origin kept: it meets x = 0 after every shear
    ("localsing.py",
     "f, g = exact_div(f, common), exact_div(g, common)",
     "f, g = f, g",
     "tests/test_localsing.py::TestIntersectionMultiplicity::test_a_common_factor_off_the_origin"),
    # a vanished resultant or a failed fibre test never takes the gcd: 1 + y
    # meets x = 0 after every shear, and no shear is left
    ("localsing.py",
     "if not coprime:",
     "if False:",
     "tests/test_localsing.py::TestIntersectionMultiplicity::test_a_common_factor_off_the_origin"),
    # a shear taken when neither y-leading coefficient is nonzero at x = 0:
    # x*y^2 + y and x*y^2 + 2y + x also meet at (0 : 1 : 0), which Res_y at
    # lam = 0 counts
    ("localsing.py",
     "if not (p and q) or p != f0.degree_in(\"y\") and q != g0.degree_in(\"y\"):",
     "if not (p and q):",
     "tests/test_localsing.py::TestIntersectionMultiplicity::test_two_curves_through_the_point_at_infinity_of_x_0"),
    # the class of a smooth curve taken for every curve whose node value
    # reaches n(n - 1)
    ("foliation.py",
     "if top == bound and common.is_constant():",
     "if top == bound:",
     "tests/test_localsing.py::TestTeissier::test_class_of_a_curve_smooth_at_infinity"),
    # half the Kronecker digit width: the coefficients of Res(y - c*x - c,
    # y^2 - c) outgrow the balanced digits and are read back wrong
    ("zpoly.py",
     "return (norms.bit_length() + 1) // 2 + 2",
     "return (norms.bit_length() + 1) // 4 + 2",
     "tests/test_mpoly.py::TestKroneckerPacking::test_a_resultant_near_the_digit_width"),
    # the multiplicity capped at 2: Teissier's sum at an ordinary triple
    # point falls short by one
    ("localsing.py",
     "return min(i + j for i, j in self.terms)",
     "return min(min(i + j for i, j in self.terms), 2)",
     "tests/test_localsing.py::TestTeissier::test_class_of_a_curve_smooth_at_infinity"),
    # the p-adic lift stops one squaring early: a root whose lc * root lies
    # past half that modulus is read back as its residue minus the modulus
    ("zpoly.py",
     "while q <= bound:",
     "while q * q <= bound:",
     "tests/test_solve.py::TestRootSplit::test_a_root_just_past_half_the_modulus_one_squaring_short"),
    # every input counts as proper: one coprime image pair in x would clear
    # (y + 1)(x + 1) and (y + 1)(x + 2), whose gcd y + 1 is free of x
    ("mpoly.py",
     "return any(c and e[i] == top for e, c in res)",
     "return True",
     "tests/test_mpoly.py::TestCoprimalityCertificate::test_a_pair_proper_in_no_variable_falls_back"),
    # the greatest exponents of the shared variables in place of the least
    ("mpoly.py",
     "min(low_f[v], low_g[v])",
     "max(low_f[v], low_g[v])",
     "tests/test_mpoly.py::TestMonomialFactors::test_least_exponents_times_the_gcd_of_the_cofactors"),
    # a defective step of the subresultant PRS scaled by one factor
    # lc / -psi too many: S_1 of 2y^4 + 1 and -y^4 - 2y^3 changes sign
    ("zpoly.py",
     "scale, div = lc ** (d - 1), (-psi) ** (d - 1)",
     "scale, div = lc ** d, (-psi) ** d",
     "tests/test_zpoly.py::TestSubresultantRow::test_a_defective_chain"),
    # the gcd radix of a packed variable without the degree that B's rows
    # add: the digits of the last subresultant overlap and are read wrong
    ("mpoly.py",
     "radices = [n * max(e[i] for e in F) + m * max(e[i] for e in G) + 1 for",
     "radices = [n * max(e[i] for e in F) + 1 for",
     "tests/test_mpoly.py::TestPackedGcd::test_a_subresultant_past_n_times_the_degree_of_the_first"),
    # the same mutant, caught by the property test alone: `radix_triples`
    # draws pairs whose last subresultant passes the narrower radix
    ("mpoly.py",
     "radices = [n * max(e[i] for e in F) + m * max(e[i] for e in G) + 1 for",
     "radices = [n * max(e[i] for e in F) + 1 for",
     "tests/test_mpoly.py::TestPackedGcd::test_planted_common_factor_against_sympy"),
    # the quasi-radial criterion without its B term: y*A_k in place of
    # y*A_k - x*B_k, so (+-sqrt 2, 0) of (x^2 - 2)(x^2 - 3), -2xy is not
    # quasi-radial
    ("foliation.py",
     "crit = [ja.get((i, k - i), MPoly.zero()) - jb.get((i - 1, k + 1 - i), MPoly.zero()) for i in range(k + 2)]",
     "crit = [ja.get((i, k - i), MPoly.zero()) for i in range(k + 2)]",
     "tests/test_foliation.py::TestClassification::test_one_group_splits_into_both_classes"),
    # the jet-order walk stopped after k = 1: the points of order 2 get no
    # class and no note
    ("foliation.py",
     "while group.points:",
     "while group.points and not k:",
     "tests/test_foliation.py::TestClassification::test_a_group_of_jet_order_2"),
    # a coefficient that vanishes at part of a group taken as nonzero at all
    # of it: at (+-sqrt 2, 0), the s-derivative of the cone of
    # ((y - x)^2 - x^3)(y + x) vanishes on the double line alone, which then
    # counts as simple
    ("solve.py",
     "for f in (part, _int_exact_quo(group.w, part)))",
     "for f in (part if len(part) == len(group.w) else [1], group.w))",
     "tests/test_localsing.py::TestFingerprint::test_every_conjugate_point_has_the_exact_fingerprint"),
    # the rational roots of the zero set's eliminant never tried: x =
    # a/(10^13 + 7) at two conjugate zeros prints approximately
    ("solve.py",
     "for c in values:",
     "for c in []:",
     "tests/test_solve.py::TestOneRationalCoordinate::test_a_denominator_past_the_old_caps"),
    # a part of a group split off without the eliminant's roots: the
    # singular points (0, +-sqrt 2) print x = 0 as an approximation
    ("solve.py",
     "Group(f, group.num, group.den, group.lam, eliminant_roots=group.eliminant_roots)",
     "Group(f, group.num, group.den, group.lam)",
     "tests/test_cli.py::TestGoldenReports::test_matches_golden[check-qr-dichotomy-argv13]"),
    # a proved rational value given to every approximation of the
    # coordinate, not to the k nearest: y = 0 on x^2 = 2 spreads to the
    # zeros on x^2 = 3, where y = (x - 2)/10^7
    ("solve.py",
     "key=lambda i: abs(approx[i] - c))[:k]:",
     "key=lambda i: abs(approx[i] - c)):",
     "tests/test_solve.py::TestShapeLemma::test_only_the_zeros_proved_rational_print_exactly"),
    # E taken for nonzero whatever its values: the radial pencil x, y, whose
    # E vanishes, would pass as a field with curved leaves
    ("polarops.py",
     "    return inflexion_of_field(A, B).is_zero()\n",
     "    return False\n",
     "tests/test_polarops.py::TestInflexionVanishes::test_the_radial_pencil"),
    # the polar at a rational center left over the common denominator: the
    # binomial kernel's ints are (d*e)^k times the polar
    ("polarops.py",
     "    if scale != 1:\n        scale **= k",
     "    if False:\n        scale **= k",
     "tests/test_polarops.py::TestPolarCurve::test_the_binomial_kernel_is_substitute_term_for_term"),
    # the eliminant's fallback always takes the resultant of the two coprime
    # combinations: on the planted 2-web G(1) = 2x^2 has degree 0 in y, and
    # the resultant refuses it
    ("solve.py",
     "first = next((c for c in pair if c.degree_in(elim_var) == 0), None) or resultant(*pair, elim_var)",
     "first = resultant(*pair, elim_var)",
     "tests/test_solve.py::TestCombinationFallback::test_a_combination_free_of_the_variable"),
    # the singular points at infinity sought off the line at infinity too:
    # the node (0, 1) of (y - 1)^2 - x^2(x + 1) is also the point (0, 1) of
    # the chart y = 1, and would add its delta 1
    ("localsing.py",
     "common_zeros([G, G.derivative(\"x\"), G.derivative(\"y\"), Y])",
     "common_zeros([G, G.derivative(\"x\"), G.derivative(\"y\")])",
     "tests/test_localsing.py::TestGenus::test_charts_at_infinity[(y-1)^2-x^2(x+1)]"),
    # the children of a point kept in the order of their lines: y -> -y
    # swaps the slopes of the cusp's line and the other branch's, and with
    # them the halves of the sequence
    ("localsing.py",
     "seq = sum(sorted(fp.mult_sequence for _, fp in lines if fp), (m,))",
     "seq = sum((fp.mult_sequence for _, fp in lines if fp), (m,))",
     "tests/test_localsing.py::TestCoordinateFreeKey::test_a_reflection_keeps_the_key"),
    # no balancing: the roots of 10^300 t^2 + t - 3 come out of Aberth at
    # about 2e-14, passing the backward-error gate
    ("numerics.py",
     "shift = _balance_shift(coeffs) if len(coeffs) > 1 else 0",
     "shift = 0",
     "tests/test_numerics.py::TestRoots::test_tiny_or_huge_roots_are_balanced[tiny]"),
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
