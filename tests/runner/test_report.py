"""Report aggregation: summaries and verdicts."""

from repro.runner.jobs import JobSpec
from repro.runner.pool import run_sweep
from repro.runner.report import render_sweep, sweep_ok, sweep_summary
from repro.runner.store import ResultStore

HELPERS = "tests.runner.helpers"


def _sweep(specs, store=None, **kw):
    kw.setdefault("workers", 2)
    return run_sweep(specs, store, **kw)


def _spec(name, params=None, fn="ok_job"):
    return JobSpec(name, params or {}, entrypoint=f"{HELPERS}:{fn}")


class TestSummaries:
    def test_summary_row_per_job(self, tmp_path):
        outcomes = _sweep(
            [_spec("T-OK", {"x": 1}), _spec("T-ERR", fn="error_job")],
            ResultStore(tmp_path),
        )
        table = sweep_summary(outcomes)
        assert len(table.rows) == 2
        text = table.render()
        assert "ok" in text and "failed" in text

    def test_render_lists_each_failure_with_its_error(self):
        outcomes = _sweep([_spec("T-ERR", fn="error_job")])
        text = render_sweep(outcomes)
        assert "FAILED jobs: ['T-ERR']" in text
        assert "  T-ERR: RuntimeError: boom" in text
        assert "attempt" not in text


class TestVerdicts:
    def test_all_green(self):
        outcomes = _sweep([_spec("T-OK")])
        assert sweep_ok(outcomes)

    def test_failed_job_fails_sweep(self):
        outcomes = _sweep([_spec("T-ERR", fn="error_job")])
        assert not sweep_ok(outcomes)

    def test_failed_check_fails_sweep(self):
        outcomes = _sweep([_spec("T-BADCHECK", fn="failing_check_job")])
        assert all(o.ok for o in outcomes)
        assert not sweep_ok(outcomes)
        assert "FAILED paper-claim checks" in render_sweep(outcomes)
