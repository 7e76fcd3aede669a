"""Report-body digests of every benchmark job.

`body-digests.txt` holds one line per job of the benchmark's inputs:

    workload seed index exit-code sha256

`index` is the job's place in `perfbench/gen.py`'s job list, and the digest is
the SHA-256 of the job's output with the timestamp line dropped and the input
path written as the input's file name (`0000.txt`), so it does not depend on
where the input was written.  The jobs are the first 90 `exact-checks` inputs
and the first 400 `monodromy` and `germs` inputs, at seeds 1 and 20261017.
A change that alters a report body regenerates the file, and its diff names
the jobs whose bodies changed.

    python tests/body_digests.py --check      # every job; exit 1 on a mismatch
    python tests/body_digests.py --write      # regenerate the file

A mismatch prints the job's argv and input, and `--check` ends with one line
that counts the differing jobs for each workload and theorem (the subcommand
of a job that is not a `check`), then the jobs whose exit code changed, with
a count for each workload, theorem and change, as in
`420 of 3160 jobs differ from body-digests.txt: exact-checks branches 180, ...;
exit codes changed: 3 (exact-checks polar-equality 1→0 3)`; a change that
alters report bodies declares them by that line.  `gen.py` is read, not
edited.
"""

from __future__ import annotations

import argparse
import collections
import functools
import hashlib
import importlib.util
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).resolve().parent / "body-digests.txt"
INPUTS = {"exact-checks": 90, "monodromy": 400, "germs": 400}
SEEDS = (1, 20261017)


@functools.cache
def _gen():
    spec = importlib.util.spec_from_file_location("perfbench_gen", ROOT / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


def jobs(workload: str, seed: int, inputs: int) -> list[tuple[str, str, list[str]]]:
    """(file name, input text, CLI arguments after `--in`) of each job."""
    return [(name, text, args) for name, text, args, _ in _gen().jobs(workload, seed, inputs)]


def digest(code: int, text: str, path: str, name: str) -> str:
    """The job's digest line tail: its exit code and the SHA-256 of its body."""
    body = "\n".join(line for line in text.replace(path, name).splitlines()
                     if not line.startswith(' "timestamp":'))
    return f"{code} {hashlib.sha256(body.encode()).hexdigest()}"


def run_jobs(workload: str, seed: int, inputs: int, directory: str):
    """Yield (index, argv, input text, digest) of each job, the input written
    under `directory`."""
    from polarweb.cli import run_command

    for index, (name, text, args) in enumerate(jobs(workload, seed, inputs)):
        path = str(Path(directory) / name)
        Path(path).write_text(text, encoding="utf-8")
        argv = [args[0], "--in", path] + args[1:]
        code, out = run_command(argv)
        yield index, argv, text, digest(code, out, path, name)


def committed() -> dict[tuple[str, int, int], str]:
    out = {}
    for line in DIGESTS.read_text(encoding="utf-8").splitlines():
        workload, seed, index, code, sha = line.split()
        out[workload, int(seed), int(index)] = f"{code} {sha}"
    return out


def mismatches(workload: str, seed: int, inputs: int) -> list[tuple[list[str], str, tuple[str, str]]]:
    """(argv, message, (committed exit code, exit code now)) of each job of
    the first `inputs` inputs whose digest is not the committed one; the
    message has the job's argv and input, and a job with no committed line
    has the committed code `-`."""
    expected = committed()
    out = []
    with tempfile.TemporaryDirectory() as directory:
        for index, argv, text, got in run_jobs(workload, seed, inputs, directory):
            want = expected.get((workload, seed, index))
            if got != want:
                codes = (want.split()[0] if want else "-", got.split()[0])
                out.append((argv, f"{workload} seed {seed} job {index}: got {got}, committed {want}\n"
                                  f"  argv: {argv}\n  input:\n" + "".join(f"    {t}\n" for t in text.splitlines()),
                            codes))
    return out


def summary(jobs: list[tuple[str, list[str], tuple[str, str]]]) -> str:
    """On one line, the number of (workload, argv, (old, new) exit codes)
    jobs for each workload and theorem, or subcommand when the job is not a
    `check`, then the number whose exit code changed, with a count for each
    workload, theorem and change."""
    def name(argv):
        return argv[argv.index("--theorem") + 1] if "--theorem" in argv else argv[0]

    counts = collections.Counter((workload, name(argv)) for workload, argv, _ in jobs)
    changed = collections.Counter((workload, name(argv), f"{old}→{new}") for workload, argv, (old, new) in jobs
                                  if old != new)
    line = ", ".join(f"{workload} {name} {n}" for (workload, name), n in sorted(counts.items()))
    breakdown = ", ".join(f"{workload} {name} {change} {n}" for (workload, name, change), n in sorted(changed.items()))
    return f"{line}; exit codes changed: {sum(changed.values())}" + (f" ({breakdown})" if changed else "")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true", help="compare every job with the file")
    mode.add_argument("--write", action="store_true", help="regenerate the file")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    if args.write:
        lines = []
        with tempfile.TemporaryDirectory() as directory:
            for workload, inputs in INPUTS.items():
                for seed in SEEDS:
                    for index, _, _, got in run_jobs(workload, seed, inputs, directory):
                        lines.append(f"{workload} {seed} {index} {got}\n")
        DIGESTS.write_text("".join(lines), encoding="utf-8")
        print(f"wrote {len(lines)} digests to {DIGESTS.name}")
        return 0
    bad = [(workload, argv, message, codes) for workload, inputs in INPUTS.items() for seed in SEEDS
           for argv, message, codes in mismatches(workload, seed, inputs)]
    counts = summary([(workload, argv, codes) for workload, argv, _, codes in bad])
    print("".join(message for _, _, message, _ in bad)
          + f"{len(bad)} of {len(committed())} jobs differ from {DIGESTS.name}" + (": " if bad else "") + counts)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
