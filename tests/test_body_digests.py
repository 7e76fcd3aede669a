"""Report bodies of the benchmark jobs match their committed digests.

This checks a seed-1 prefix of each workload (about 3 s in all);
`python tests/body_digests.py --check` checks every job at both seeds.
"""

import pytest

from body_digests import INPUTS, SEEDS, committed, jobs, mismatches

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
    assert not bad, "".join(bad)
