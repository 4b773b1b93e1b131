"""ProgressReporter ETA math, including the degenerate-shape guards."""

import io

from repro.runner.progress import ProgressReporter, _format_seconds


class TestEtaGuards:
    def make(self, total=4, jobs=1):
        return ProgressReporter(total=total, jobs=jobs, enabled=False)

    def test_no_jobs_done_yet_is_unknown(self):
        assert self.make().eta_seconds() is None

    def test_zero_observed_rate_is_unknown(self):
        reporter = self.make()
        reporter.job_done(duration=0.0)
        # one computed job at 0s/job: extrapolating promises eta 0 for
        # work that has not run, so the estimate stays unknown
        assert reporter.eta_seconds() is None

    def test_finished_sweep_is_zero(self):
        reporter = self.make(total=1)
        reporter.job_done(duration=2.0)
        assert reporter.eta_seconds() == 0.0

    def test_empty_sweep_is_zero(self):
        assert self.make(total=0).eta_seconds() == 0.0

    def test_mean_rate_scaled_by_workers(self):
        reporter = self.make(total=5, jobs=2)
        reporter.job_done(duration=4.0)
        # 4 remaining x 4s/job / 2 workers
        assert reporter.eta_seconds() == 8.0

    def test_negative_duration_clamped(self):
        reporter = self.make()
        reporter.job_done(duration=-5.0)
        assert reporter.eta_seconds() is None  # clamped to 0 -> zero rate


class TestRendering:
    def test_progress_line_without_eta(self):
        stream = io.StringIO()
        reporter = ProgressReporter(total=2, label="t", enabled=True,
                                    min_interval=0.0, stream=stream)
        reporter.job_done(duration=0.0)
        line = stream.getvalue()
        assert "1/2 done" in line
        assert "eta" not in line  # unknown ETA renders as no ETA

    def test_progress_line_with_eta(self):
        stream = io.StringIO()
        reporter = ProgressReporter(total=3, label="t", enabled=True,
                                    min_interval=0.0, stream=stream)
        reporter.job_done(duration=60.0)
        assert "eta" in stream.getvalue()

    def test_format_seconds(self):
        assert _format_seconds(5.4) == "5s"
        assert _format_seconds(61) == "1m01s"
        assert _format_seconds(3_660) == "1h01m"
        assert _format_seconds(-3) == "0s"
