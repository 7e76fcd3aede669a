"""Report bodies of the benchmark jobs match their committed digests.

This checks a seed-1 prefix of each workload (about 3 s in all);
`python tests/body_digests.py --check` checks every job at both seeds.
"""

import pytest

from body_digests import INPUTS, SEEDS, committed, jobs, mismatches, summary

# inputs per workload: 7 of each exact-checks kind (182 jobs), 100 monodromy
# and 200 germs jobs
PREFIX = {"exact-checks": 21, "monodromy": 100, "germs": 200}


def test_the_file_covers_every_job():
    expected = {(workload, seed, index) for workload, inputs in INPUTS.items() for seed in SEEDS
                for index in range(len(jobs(workload, seed, inputs)))}
    assert set(committed()) == expected


@pytest.mark.parametrize("workload", sorted(PREFIX))
def test_seed_one_prefix_matches(workload):
    bad = mismatches(workload, 1, PREFIX[workload])
    assert not bad, "".join(message for _, message in bad)


def test_the_summary_counts_jobs_by_workload_and_theorem():
    jobs = [("exact-checks", ["check", "--in", "0001.txt", "--theorem", "branches", "--samples", "4"]),
            ("germs", ["localsing", "--in", "0003.txt", "--point", "0,0"]),
            ("exact-checks", ["check", "--in", "0001.txt", "--theorem", "polar-degree", "--seed", "1"]),
            ("exact-checks", ["check", "--in", "0002.txt", "--theorem", "branches", "--samples", "2"]),
            ("monodromy", ["check", "--in", "0004.txt", "--theorem", "irreducible"])]
    assert summary(jobs) == ("exact-checks branches 2, exact-checks polar-degree 1, germs localsing 1, "
                             "monodromy irreducible 1")
    assert summary([]) == ""
