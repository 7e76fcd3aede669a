"""Closed-loop benchmark of the polarweb command line.

One process, one client: each job is a call to the CLI's public entry
``polarweb.cli.run_command``, and the next job starts only after the
previous one returns.  Inputs come from ``gen.py`` (seeded, never imports
polarweb) and every verdict passes a correctness gate.

    python3 perfbench/run.py --workload germs --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all            # every workload, traced too,
                                              # plus the held-out-seed gate

``--trace 0`` measures the end-to-end metrics over a fixed set of jobs:
whole cycles of the workload's input shapes, as many as the parent program
ran in ``--seconds`` on two vCPUs.  The job set depends only on the
workload, the seed and ``--seconds``, never on how fast the program is.
Its times are scaled to a reference host speed (see `reference`).
``--trace 1`` runs a fixed prefix of the workload three times: traced,
untraced and traced again, with spans around each layer's public functions
(spans.py).  It reports per-layer metrics from the last traced pass and the
tracing overhead, and fails if any work count differs between the two traced
passes.  The last line of standard output is the JSON result.  The program
is imported from ``src/`` of the checkout that holds this file.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import re
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from math import gcd

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
sys.path.insert(0, HERE)

import gen  # noqa: E402
from spans import COUNTED, SPANNED, JOB_SPAN, Tracer, metric_name  # noqa: E402

# Why each workload is here (see README.md):
#   exact-checks: symbolic theorem checks, many small gcds and resultants (mpoly).
#   monodromy:    irreducibility by root tracking (numerics), mpoly a minority.
#   germs:        localsing on branch products, few large resultants (mpoly).
# inputs_per_s: about the inputs the parent program ran per second on two
# vCPUs (python 3.11); it sizes the fixed job set of a --trace 0 run.
# trace: inputs in the traced prefix.
WORKLOADS = {
    "exact-checks": {"inputs_per_s": 0.9, "trace": 9},
    "monodromy": {"inputs_per_s": 7.8, "trace": 40},
    "germs": {"inputs_per_s": 15.0, "trace": 180},
}
DEFAULT_SEED = 1
HELD_OUT_SEED = 20261017
SETUP_REPEATS = 9
SETUP_REFERENCES = 5  # reference readings before each set-up sample
SETUP_CODE = (
    "import os, sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import polarweb.cli\n"
    "for name in sorted(os.listdir(sys.argv[2])):\n"
    "    with open(os.path.join(sys.argv[2], name), 'rb') as fh:\n"
    "        fh.read()\n"
)
NUMERIC_ABORT = 3
ABORT_TEXT = "numeric abort:"  # exit 3 from NumericAbortError or DegenerateSampleError
# `irreducible` reports a DegenerateSampleError of curve_component_count as a
# failed assertion with one of these details; the same prefix on any other
# message (a PolynomialError) is a wrong answer.
MONODROMY_REFUSALS = tuple(f"monodromy failed: {m}" for m in (
    "no shear makes the curve y-proper",
    "shear failed to make the curve y-proper",
    "no admissible monodromy base point found"))
# A job still running after this long is stopped and counted as failed, so
# one runaway job cannot hold a run past its time limit.
JOB_DEADLINE_S = 20.0
# A --trace 0 run whose loop passes this gives no result: with the per-job
# deadline and set-up it still exits within 180 s.
LOOP_LIMIT_S = 140.0
FINGERPRINT = re.compile(r"\(m=(\d+), mu=(\d+), r=(\d+), delta=(\d+),")


# The host's speed drifts: on the 2-vCPU development host the same run took
# 20 s and then 30 s a few minutes later.  So the loop times `reference`, a
# fixed piece of stdlib arithmetic, after every job (and once more per
# REF_EVERY_S of the job's time), and scales each time it reports by REF_S
# over the reference's mean in that run: times read as on a host where
# `reference` takes REF_S.
REF_S = 0.004
REF_EVERY_S = 0.1
_ref_rng = random.Random(0)
REF_FRACTIONS = [{(i, j): Fraction(_ref_rng.randint(-9, 9), _ref_rng.randint(1, 9))
                  for i in range(n) for j in range(n - i)} for n in (6, 5)]
REF_INTS = {(i, j): (i * 7919 + j * 104729) ** 3 for i in range(7) for j in range(7)}
REF_COMPLEX = [complex(_ref_rng.uniform(-1, 1), _ref_rng.uniform(-1, 1)) for _ in range(12)]


def _dict_product(p: dict, q: dict) -> dict:
    out: dict = {}
    for (a, b), c in p.items():
        for (d, e), f in q.items():
            key = (a + d, b + e)
            out[key] = out.get(key, 0) + c * f
    return out


def reference() -> float:
    """Seconds taken by a fixed mix of work in the style of the program's
    kernels: complex Horner evaluation, integer and rational polynomial
    products, a sort, small and big gcds, float sums and a dict of small
    containers.  The garbage collector is off meanwhile, so the program's
    heap does not change the reading."""
    collecting = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    for k in range(150):
        s, v = complex(k / 60, 0.5), 0j
        for a in REF_COMPLEX:
            v = v * s + a
    ints = _dict_product(REF_INTS, dict(list(REF_INTS.items())[:12]))
    sorted(ints.items(), key=lambda t: (-t[0][0], t[1]))
    g = 0
    for c in _dict_product(*REF_FRACTIONS).values():
        g = gcd(g, c.numerator)
    table = {(i, i * 7 % 13): [i, (i, i + 1)] for i in range(3000)}
    sum(len(v) for v in table.values())
    a, b = 3 ** 400, 7 ** 350
    for _ in range(40):
        gcd(a * b + 1, a + b)
        a, b = b, a + 1
    total = 0.0
    for i in range(300):
        x = i * 0.37
        total += x * x - 1.5 * x + 0.25
    x = 1
    for _ in range(1000):
        x = (x * 1103515245 + 12345) % (1 << 61)
    elapsed = time.perf_counter() - start
    if collecting:
        gc.enable()
    return elapsed


class BenchmarkError(Exception):
    pass


class JobDeadline(BaseException):
    """Raised in a job that passes JOB_DEADLINE_S; a BaseException, so the
    program's own `except Exception` handlers do not swallow it."""


def _deadline(signum, frame):
    raise JobDeadline


def load_program():
    if not os.path.isfile(os.path.join(SRC, "polarweb", "cli.py")):
        raise BenchmarkError(f"no polarweb sources under {SRC}")
    sys.path.insert(0, SRC)
    import polarweb.cli

    if not os.path.abspath(polarweb.cli.__file__).startswith(SRC + os.sep):
        raise BenchmarkError(f"imported polarweb from {polarweb.cli.__file__}, not {SRC}")
    return polarweb.cli


def write_inputs(workload: str, seed: int, count: int) -> tuple[str, list[tuple[list[str], dict | None]]]:
    """Write the workload's input files; return their directory and the jobs
    as (argv, oracle)."""
    directory = os.path.join(WORK, f"{workload}-{seed}")
    os.makedirs(directory, exist_ok=True)
    jobs, written = [], set()
    for name, text, args, oracle in gen.jobs(workload, seed, count):
        path = os.path.join(directory, name)
        if name not in written:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            written.add(name)
        jobs.append(([args[0], "--in", os.path.relpath(path, ROOT)] + args[1:], oracle))
    return directory, jobs


def check_output(code: int | str, text: str, oracle: dict | None) -> tuple[str | None, bool]:
    """The gate: (why the job failed, or None; whether it gave a wrong answer).

    Some failures are refusals, not wrong answers: a numeric abort (exit 3
    with ``numeric abort: …``), a job stopped at the deadline, and a check
    whose only failed assertions are monodromy refusals (the program reports
    those as exit 1).  Exit 3 with ``error: …`` is an internal error, such as
    a broken invariant, and so a wrong answer."""
    lines = text.strip().splitlines()
    if code not in (0, 1):
        refused = code == "deadline" or (code == NUMERIC_ABORT and text.startswith(ABORT_TEXT))
        return f"exit code {code}: {lines[-1] if lines else ''}", not refused
    doc = json.loads(text)
    if oracle is None:
        report = doc["report"]
        if code == 0 and report["passed"] is True:
            return None, False
        failed = [a for a in report["assertions"] if not a["passed"]]
        refused = bool(failed) and all(a["detail"] in MONODROMY_REFUSALS for a in failed)
        return f"exit code {code}: report not passed", not refused
    if code != 0:
        return f"exit code {code}", True
    match = FINGERPRINT.search(doc["output"][0]) if doc["output"] else None
    if match is None:
        return "no fingerprint in output", True
    got = dict(zip(("m", "mu", "r", "delta"), map(int, match.groups())))
    return (None, False) if got == oracle else (f"fingerprint {got} != oracle {oracle}", True)


def body(text: str) -> str:
    """The report without its timestamp line, which is the only volatile one."""
    return "\n".join(line for line in text.splitlines() if not line.startswith(' "timestamp":'))


class Loop:
    """Runs jobs in a closed loop and applies the gate to each."""

    def __init__(self, cli, jobs, tracer: Tracer | None = None, calibrate: bool = False):
        self.cli = cli
        self.jobs = jobs
        self.tracer = tracer
        self.calibrate = calibrate
        self.times: list[float] = []
        self.reference_times: list[float] = []
        self.failures: list[dict] = []
        self.outcomes: dict[int, tuple[int | str, str]] = {}
        self.discarded = 0
        self.used = 0

    def run_one(self, key: int) -> None:
        argv, oracle = self.jobs[key]
        signal.setitimer(signal.ITIMER_REAL, JOB_DEADLINE_S)
        start = time.perf_counter()
        try:
            code, text = self.cli.run_command(argv)  # looked up per call, so tracing sees it
        except JobDeadline:
            code, text = "deadline", f"stopped after {JOB_DEADLINE_S} s"
        except Exception:  # a crash is a wrong answer; record it and go on
            code, text = "crash", traceback.format_exc()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            self.times.append(time.perf_counter() - start)
        if self.calibrate:
            for _ in range(1 + int(self.times[-1] / REF_EVERY_S)):
                self.reference_times.append(reference())
        self.outcomes[key] = (code, body(text))
        reason, wrong = check_output(code, text, oracle)
        if code == 0 and oracle is None:
            samples = json.loads(text)["report"]["samples"]
            self.discarded += len(samples["discarded"])
            self.used += samples["used"]
        if reason is not None:
            with open(argv[2], encoding="utf-8") as fh:
                source = fh.read()
            self.failures.append({"job": key, "argv": argv, "exit_code": code,
                                  "reason": reason, "wrong": wrong, "input": source})

    def all_jobs(self, limit: float | None = None) -> float:
        """Run every job once; return the loop's wall time."""
        start = time.perf_counter()
        for index in range(len(self.jobs)):
            if self.tracer is not None:
                self.tracer.job_id = index
            self.run_one(index)
            if limit is not None and time.perf_counter() - start > limit:
                raise BenchmarkError(f"{index + 1} of {len(self.jobs)} jobs took over {limit} s")
        return time.perf_counter() - start


def setup_seconds(directory: str) -> tuple[float, float]:
    """(scaled, raw) median wall time of a fresh interpreter importing
    polarweb.cli and reading the workload's input files.  Each sample is
    scaled by the reference timed just before it."""
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        scale = REF_S / statistics.fmean(reference() for _ in range(SETUP_REFERENCES))
        start = time.perf_counter()
        # No timeout: with one, wait() polls with sleeps of up to 50 ms.
        subprocess.run([sys.executable, "-c", SETUP_CODE, SRC, directory], check=True)
        raw.append(time.perf_counter() - start)
        scaled.append(raw[-1] * scale)
    return statistics.median(scaled), statistics.median(raw)


def interquartile_mean(times: list[float]) -> float:
    """Mean of the middle half of the times."""
    ordered = sorted(times)
    n = len(ordered)
    return statistics.fmean(ordered[n // 4:n - n // 4])


def percentile_tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the slowest time with ten jobs beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def tail_mean(times: list[float]) -> tuple[float, int]:
    """(mean, count) of the slowest quarter of the times, and at least ten."""
    count = min(len(times), max(10, len(times) // 4))
    return statistics.fmean(sorted(times)[-count:]), count


def fixed_inputs(workload: str, seconds: float) -> int:
    """Inputs in a --trace 0 run: whole shape cycles, at least one."""
    cycle = gen.CYCLE[workload]
    return cycle * max(1, round(seconds * WORKLOADS[workload]["inputs_per_s"] / cycle))


def end_to_end(cli, workload: str, seed: int, seconds: float) -> dict:
    inputs = fixed_inputs(workload, seconds)
    directory, jobs = write_inputs(workload, seed, inputs)
    setup, raw_setup = setup_seconds(directory)
    loop = Loop(cli, jobs, calibrate=True)
    wall = loop.all_jobs(LOOP_LIMIT_S)
    n = len(loop.times)
    scale = REF_S / statistics.fmean(loop.reference_times)
    times = [t * scale for t in loop.times]
    tail_value, tail_jobs = tail_mean(times)
    pct_value, pct = percentile_tail(times)
    metrics = {
        "jobs_per_s": (n / sum(times), "1/s"),
        "job_iqm_ms": (interquartile_mean(times) * 1e3, "ms"),
        "job_tail_ms": (tail_value * 1e3, "ms"),
        "ok_frac": ((n - len(loop.failures)) / n, "ratio"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = {"inputs": inputs, "jobs": n, "tail_jobs": tail_jobs, "scale": scale,
             "loop_wall_s": wall, "raw_jobs_per_s": n / sum(loop.times),
             "raw_setup_s": raw_setup, "job_p50_ms": statistics.median(times) * 1e3,
             "job_pct_tail_ms": pct_value * 1e3, "pct_tail_percentile": pct}
    return {"metrics": metrics, "attempted": n, "failures": loop.failures, "notes": notes,
            "consistent": True}


def work_counts(tracer: Tracer, loop: Loop) -> dict[str, int]:
    counts = {f"{name}.calls": calls for name, (calls, _) in tracer.self_times().items()}
    counts.update(tracer.counts)
    counts["sampling.discarded"] = loop.discarded
    counts["sampling.used"] = loop.used
    return counts


def traced_pass(cli, jobs) -> tuple[Tracer, Loop, float]:
    tracer = Tracer()
    loop = Loop(cli, jobs, tracer)
    tracer.install()
    try:
        wall = loop.all_jobs()
    finally:
        tracer.uninstall()
    return tracer, loop, wall


def per_layer(cli, workload: str, seed: int) -> dict:
    _, jobs = write_inputs(workload, seed, WORKLOADS[workload]["trace"])
    spans_path = os.path.join(WORK, f"spans-{workload}-{seed}.tsv")
    # Traced, untraced, traced: the first pass absorbs warm-up, the overhead
    # compares the last two, and the work counts compare the traced two.
    warm_tracer, warm, _ = traced_pass(cli, jobs)
    plain = Loop(cli, jobs)
    plain_wall = plain.all_jobs()
    tracer, traced, traced_wall = traced_pass(cli, jobs)
    tracer.write(spans_path)
    failures = warm.failures + plain.failures + traced.failures
    for loop in (warm, traced):
        for key, outcome in loop.outcomes.items():
            if plain.outcomes[key] != outcome:
                failures.append({"job": key, "argv": jobs[key][0], "exit_code": outcome[0],
                                 "reason": "outcome changed under tracing", "wrong": True,
                                 "input": ""})
    counts, warm_counts = work_counts(tracer, traced), work_counts(warm_tracer, warm)
    differing = sorted(k for k in set(counts) | set(warm_counts)
                       if counts.get(k) != warm_counts.get(k))

    stats = tracer.self_times()
    job_time = sum(tracer.end[i] - tracer.start[i] for i in range(len(tracer.start))
                   if tracer.names[tracer.name_of[i]] == JOB_SPAN)
    metrics: dict[str, tuple[float, str]] = {}
    for layer, functions in SPANNED.items():
        layer_self = 0.0
        for function in functions:
            name = metric_name(layer, function)
            calls, self_s = stats.get(name, (0, 0.0))
            metrics[f"{name}.calls"] = (calls, "count")
            metrics[f"{name}.self_s"] = (self_s, "s")
            layer_self += self_s
        metrics[f"{layer}.self_s"] = (layer_self, "s")
        metrics[f"{layer}.share"] = (layer_self / job_time if job_time else 0.0, "ratio")
    for layer, functions in COUNTED.items():
        for function in functions:
            name = metric_name(layer, function)
            metrics[f"{name}.calls"] = (tracer.counts[f"{name}.calls"], "count")
    gcd_calls = stats.get("mpoly.poly_gcd", (0, 0.0))[0]
    track_calls = stats.get("numerics.track_roots", (0, 0.0))[0]
    sampled = traced.discarded + traced.used
    metrics["mpoly.poly_gcd.trivial_frac"] = (
        tracer.counts["mpoly.poly_gcd.trivial"] / gcd_calls if gcd_calls else 0.0, "ratio")
    metrics["numerics.track_roots.abort_frac"] = (
        tracer.counts["numerics.track_roots.aborts"] / track_calls if track_calls else 0.0, "ratio")
    metrics["numerics.monodromy_partition.loops"] = (
        tracer.counts["numerics.monodromy_partition.loops"], "count")
    metrics["sampling.discard_frac"] = (traced.discarded / sampled if sampled else 0.0, "ratio")
    metrics["trace.overhead"] = (traced_wall / plain_wall, "ratio")
    notes = {"jobs": len(jobs), "untraced_wall_s": plain_wall, "traced_wall_s": traced_wall,
             "spans": len(tracer.start), "spans_file": os.path.relpath(spans_path, ROOT),
             "work_counts_differing": differing}
    return {"metrics": metrics, "attempted": 3 * len(jobs), "failures": failures,
            "notes": notes, "consistent": not differing}


def provenance() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "git_rev": git_rev(),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED", "unset"),
    }


def git_rev() -> str:
    """HEAD of the checkout; 'unknown' outside a git repository."""
    try:
        proc = subprocess.run(["git", "--git-dir", os.path.join(ROOT, ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_workload(args) -> int:
    cli = load_program()
    if args.trace:
        result = per_layer(cli, args.workload, args.seed)
    else:
        result = end_to_end(cli, args.workload, args.seed, args.seconds)
    for failure in result["failures"]:
        print(f"FAILED job {failure['job']} ({' '.join(failure['argv'])}): {failure['reason']}\n"
              f"{failure['input']}", file=sys.stderr)
    if not result["consistent"]:
        print(f"work counts differ between traced passes: {result['notes']['work_counts_differing']}",
              file=sys.stderr)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "provenance": provenance(), "notes": result["notes"],
              "failures": result["failures"],
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}}
    with open(os.path.join(WORK, f"result-{args.workload}-{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in record["provenance"].items()))
    print("# " + " ".join(f"{k}={v}" for k, v in result["notes"].items()))
    for name, (value, unit) in result["metrics"].items():
        print(f"{name:48s} {value:>14.6g} {unit}")
    failed = len(result["failures"])
    print(json.dumps({
        "correct": result["consistent"] and not any(f["wrong"] for f in result["failures"]),
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


def run_all(seed: int, seconds: int) -> int:
    """Every workload in its own fresh interpreter, one after another:
    untraced, traced, then the correctness gate on the held-out seed."""
    status = 0
    for workload in WORKLOADS:
        for trace_flag, run_seed in ((0, seed), (1, seed), (0, HELD_OUT_SEED)):
            argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                    "--seed", str(run_seed), "--seconds", str(seconds), "--trace", str(trace_flag)]
            proc = subprocess.run(argv, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            ok = result is not None and result["correct"]
            status |= not ok
            print(f"== {workload} seed={run_seed} trace={trace_flag}: "
                  + (f"correct={result['correct']} attempted={result['attempted']} "
                     f"failed={result['failed']}" if result else f"exit {proc.returncode}"))
            if run_seed == seed:
                print("\n".join(lines[:-1]))
            if proc.stderr:
                print(proc.stderr, end="", file=sys.stderr)
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload untraced and traced, and the held-out seed")
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    signal.signal(signal.SIGALRM, _deadline)
    os.makedirs(WORK, exist_ok=True)
    try:
        if args.all:
            return run_all(args.seed, args.seconds)
        if args.workload is None:
            parser.error("--workload or --all is required")
        return run_workload(args)
    except BenchmarkError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
