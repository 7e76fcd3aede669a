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

    def test_pair_witness(self):
        report = CheckReport("t")
        sampler = GenericSampler(2)

        def draw():
            return sampler.center(), sampler.center()

        verdicts = iter([(None, "first pair rejected"), (1, None)])
        list(sample_centers(report, sampler, 1, lambda pair: next(verdicts), draw))
        stream = GenericSampler(2)
        first = f"{stream.center()},{stream.center()}"
        assert report.discards == [(first, "first pair rejected")]
