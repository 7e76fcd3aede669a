"""The seeded sampling driver shared by the theorem checks."""

from polarweb.reports import CheckReport
from polarweb.sampling import GenericSampler, sample_centers


def odd_numerator(p):
    """Admit a center whose first coordinate has an odd numerator."""
    if p.a.numerator % 2 == 0:
        return None, "even numerator"
    return p.a, None


class TestSampleCenters:
    def test_admits_n_and_logs_discards_in_draw_order(self):
        stream = GenericSampler(5)
        draws = [stream.center() for _ in range(40)]
        report = CheckReport("t", samples_requested=3)
        got = list(sample_centers(report, GenericSampler(5), 3, odd_numerator))
        admitted = [p for p in draws if p.a.numerator % 2][:3]
        assert got == [(i, p, p.a) for i, p in enumerate(admitted)]
        rejected = [p for p in draws[: draws.index(admitted[-1])] if not p.a.numerator % 2]
        assert report.discards == [(str(p), "even numerator") for p in rejected]
        assert report.samples_used == 3 and report.passed

    def test_two_strata_on_one_report_add_up(self):
        report = CheckReport("t")
        sampler = GenericSampler(7)
        list(sample_centers(report, sampler, 2, odd_numerator))
        first = list(report.discards)
        list(sample_centers(report, sampler, 3, odd_numerator))
        assert report.samples_used == 5
        assert report.discards[: len(first)] == first
        assert report.passed

    def test_no_admissible_center(self):
        # every draw rejected: 50 draws per requested sample, each a discard,
        # then one failed `sampling` assertion
        report = CheckReport("t", samples_requested=3)
        got = list(sample_centers(report, GenericSampler(1), 3, lambda p: (None, "rejected")))
        assert got == [] and report.samples_used == 0
        assert len(report.discards) == 150
        assert [(a.name, a.passed, a.detail) for a in report.assertions] == [
            ("sampling", False, "only 0 of 3 admissible samples in 150 draws")]
        assert not report.passed
