"""Spans around the calls into each polarweb layer, from outside the program.

`Tracer.install` replaces each listed public function by a wrapper in every
``polarweb.*`` namespace that binds it (``from .mpoly import poly_gcd``
creates a second binding), and `uninstall` puts the originals back.  A
span is (name, start, end, parent, job id); spans stay in compact arrays
until the run ends.  A span's self time is its duration minus the time
covered by its child spans.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter

# Layer -> functions wrapped with spans.  The check functions are spanned too,
# so their own work is charged to their module and not to the CLI job span;
# two of them are defined in cli.py, so `cli.run_command` self time alone is
# the front end (argparse, dispatch and emit).
SPANNED = {
    "mpoly": ("poly_gcd", "resultant", "squarefree_part", "discriminant_binary",
              "try_exact_div"),
    "solve": ("common_zeros", "univariate_root_split"),
    "numerics": ("univariate_roots", "track_roots", "newton_polish",
                 "monodromy_partition"),
    "webmodel": ("PlaneCurve.__init__", "singular_set", "web_degree",
                 "discriminant_curve", "tangent_directions"),
    "polarops": ("polar_curve", "polar_family", "family_degree", "family_dimension",
                 "curve_component_count", "web_decomposable",
                 "polar_degree_check", "polar_equality_criterion", "base_points_check",
                 "family_degree_check", "family_dimension_check",
                 "generic_polar_singularities_check", "branches_check",
                 "generic_polar_irreducible"),
    "foliation": ("inflexion_divisor", "class_of_curve", "classify_singularity",
                  "is_inflexion_point", "polar_sing_in_inflexion_check",
                  "quasi_radial_bound_check", "inflexion_lemma_check",
                  "tangent_cone_dichotomy", "tangent_cone_dichotomy_numeric"),
    "localsing": ("fingerprint", "resolve_germ", "milnor_number",
                  "intersection_multiplicity", "genus_of_curve"),
    "parsing": ("parse_input_text",),
    "cli": ("run_command", "_equality_check", "_dichotomy_all_singularities"),
}
# Called over a thousand times per job.  Spans on them would charge the
# MPoly arithmetic inside other layers' functions to mpoly and multiply the
# span count by twenty, so they are counted only and their time stays with
# the calling span.
COUNTED = {"mpoly": ("MPoly.__init__", "MPoly.__mul__")}
METRIC_NAMES = {"PlaneCurve.__init__": "construct", "MPoly.__init__": "construct",
                "MPoly.__mul__": "mul", "_equality_check": "equality_check",
                "_dichotomy_all_singularities": "dichotomy_check"}
JOB_SPAN = "cli.run_command"


def metric_name(layer: str, function: str) -> str:
    return f"{layer}.{METRIC_NAMES.get(function, function)}"


class Tracer:
    """Span store plus the counters that need a function's result."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self.job_id = -1
        self.counts: Counter[str] = Counter()
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    # -- wrappers --------------------------------------------------------------

    def _span(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        name_of, start, end, parent, job = self.name_of, self.start, self.end, self.parent, self.job
        stack, clock = self._stack, time.perf_counter
        on_result, on_error = self._hooks(name)

        def wrapper(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            job.append(self.job_id)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end[idx] = clock()
                stack.pop()
                if on_error is not None:
                    on_error(exc)
                raise
            end[idx] = clock()
            stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts
        key = name + ".calls"

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _hooks(self, name: str):
        counts = self.counts
        if name == "mpoly.poly_gcd":
            def trivial(result):
                counts["mpoly.poly_gcd.trivial"] += result.is_constant()
            return trivial, None
        if name == "numerics.track_roots":
            from polarweb.errors import NumericAbortError

            def abort(exc):
                counts["numerics.track_roots.aborts"] += isinstance(exc, NumericAbortError)
            return None, abort
        if name == "numerics.monodromy_partition":
            def loops(result):
                counts["numerics.monodromy_partition.loops"] += result.loops_traced
            return loops, None
        return None, None

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "polarweb" or n.startswith("polarweb.")) and m is not None]
        for table, make in ((SPANNED, self._span), (COUNTED, self._counter)):
            for layer, functions in table.items():
                home = sys.modules[f"polarweb.{layer}"]
                for function in functions:
                    name = metric_name(layer, function)
                    if "." in function:
                        cls_name, attr = function.split(".")
                        cls = getattr(home, cls_name)
                        original = cls.__dict__[attr]
                        wrapped = make(name, original)
                        # __rmul__ is the same function object as __mul__.
                        for key, value in list(cls.__dict__.items()):
                            if value is original:
                                self._bind(cls, key, wrapped)
                        continue
                    original = getattr(home, function)
                    wrapped = make(name, original)
                    for module in modules:
                        for key, value in list(vars(module).items()):
                            if value is original:
                                self._bind(module, key, wrapped)

    def _bind(self, owner, key: str, wrapped) -> None:
        self._restore.append((owner, key, vars(owner)[key]))
        setattr(owner, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- results ---------------------------------------------------------------

    def self_times(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, self seconds) over all spans."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, list] = {}
        for i in range(n):
            entry = out.setdefault(self.names[self.name_of[i]], [0, 0.0])
            entry[0] += 1
            entry[1] += self.end[i] - self.start[i] - child[i]
        return {k: (v[0], v[1]) for k, v in out.items()}

    def write(self, path: str) -> None:
        """Spans as tab-separated rows: name, start, end, parent, job."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\tjob\n")
            for i in range(len(self.start)):
                fh.write(f"{self.names[self.name_of[i]]}\t{self.start[i]:.9f}\t{self.end[i]:.9f}"
                         f"\t{self.parent[i]}\t{self.job[i]}\n")
