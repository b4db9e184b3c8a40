"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_perf_help_names_every_default_id(self, capsys):
        from repro.telemetry.baseline import DEFAULT_PERF_IDS

        with pytest.raises(SystemExit):
            build_parser().parse_args(["perf", "--help"])
        out = " ".join(capsys.readouterr().out.split())
        assert f"(default: {' '.join(DEFAULT_PERF_IDS)})" in out
        # compare_docs fails the compare on any counter drift.
        assert "a drifted counter also fails the compare" in out
        assert "not gated" not in out

    @pytest.mark.parametrize(
        "extra",
        [
            ["tune", "--socket", "absent.sock"],
            ["tune", "--journal", "t.jsonl"],
            ["tune", "--resume"],
            ["tune", "--solver-cmd", "solver"],
            ["tune", "--solver-timeout", "1"],
            ["tune", "--strategy", "external"],
            ["sweep", "--resume"],
            ["sweep", "--graph-cache", "graphs"],
            ["tune", "--graph-cache", "graphs"],
            ["graph-cache", "ls"],
            ["route", "--profile"],
            ["experiments", "--profile"],
            ["sweep", "--profile"],
            ["tune", "--profile"],
        ],
        ids=[
            "tune-socket", "tune-journal", "tune-resume", "tune-solver-cmd",
            "tune-solver-timeout", "tune-strategy-external", "sweep-resume",
            "sweep-graph-cache", "tune-graph-cache", "graph-cache-ls",
            "route-profile", "experiments-profile", "sweep-profile",
            "tune-profile",
        ],
    )
    def test_removed_options_exit_2(self, tmp_path, capsys, extra):
        # The sweep daemon, the tune journal, the external solver, both
        # --resume flags, the graph-cache bundle store and --profile
        # (--trace-out is the one telemetry switch) are gone (rerunning
        # against the same --cache-dir resumes; every process builds its
        # own graphs), so argparse rejects each with status 2.  Only
        # sweep and tune take --cache-dir, so the others get none: the
        # error must be the removed option's.
        command, *options = extra
        cache = ["--cache-dir", str(tmp_path)] if command in ("sweep", "tune") else []
        with pytest.raises(SystemExit) as exc:
            main([command, *cache, *options])
        assert exc.value.code == 2
        removed = options[0] if options[0].startswith("--") else command
        assert removed in capsys.readouterr().err.splitlines()[-1]

    def test_experiments_module_rejects_profile(self):
        from repro.experiments.__main__ import main as experiments_main

        with pytest.raises(SystemExit) as exc:
            experiments_main(["E1", "--profile"])
        assert exc.value.code == 2


class TestCommands:
    def test_catalog(self, capsys):
        assert main(["catalog"]) == 0
        out = capsys.readouterr().out
        assert "strassen" in out
        assert "laderman" in out

    def test_bounds(self, capsys):
        assert main(["bounds", "--n", "256", "--M", "64"]) == 0
        out = capsys.readouterr().out
        assert "Theorem 1" in out

    def test_bounds_parallel(self, capsys):
        assert main(
            ["bounds", "--n", "256", "--M", "64", "--P", "7"]
        ) == 0
        assert "memory-independent" in capsys.readouterr().out

    def test_simulate(self, capsys):
        assert main(
            ["simulate", "--r", "2", "--M", "16", "--schedule", "recursive"]
        ) == 0
        out = capsys.readouterr().out
        assert "total=" in out

    def test_simulate_random_schedule(self, capsys):
        assert main(
            ["simulate", "--r", "2", "--M", "16", "--schedule", "random",
             "--seed", "4"]
        ) == 0

    def test_route_verified(self, capsys):
        assert main(["route", "--alg", "strassen", "--k", "1"]) == 0
        assert "VERIFIED: True" in capsys.readouterr().out

    def test_caps(self, capsys):
        assert main(
            ["caps", "--n", "64", "--P", "7", "--M", "100000"]
        ) == 0
        assert "bandwidth cost" in capsys.readouterr().out

    def test_render_ascii(self, capsys):
        assert main(["render", "--alg", "strassen"]) == 0
        assert "rank" in capsys.readouterr().out

    def test_render_dot(self, capsys):
        assert main(["render", "--alg", "strassen", "--format", "dot"]) == 0
        assert "digraph" in capsys.readouterr().out

    def test_experiments_selected(self, capsys):
        assert main(["experiments", "E1"]) == 0
        assert "reproduced" in capsys.readouterr().out

    def test_experiments_list(self, capsys):
        assert main(["experiments", "--list"]) == 0
        out = capsys.readouterr().out
        for experiment_id in ("E1", "E9", "E14"):
            assert experiment_id in out
        assert "reproduced" not in out  # nothing was run

    def test_experiments_exit_nonzero_on_failed_check(self, capsys):
        from repro.experiments.harness import ExperimentResult, _REGISTRY

        def failing_run() -> ExperimentResult:
            return ExperimentResult(
                "E98", "always fails", checks={"claim": False}
            )

        _REGISTRY["E98"] = failing_run
        try:
            assert main(["experiments", "E98"]) == 1
            assert "FAILED experiments" in capsys.readouterr().out
        finally:
            del _REGISTRY["E98"]


class TestSweepCommand:
    def test_sweep_runs_and_caches(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        argv = ["sweep", "E1", "--jobs", "2", "--cache-dir", str(cache)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "1 computed, 0 from cache" in out
        assert (cache / "events.jsonl").is_file()
        # identical rerun: served from cache
        assert main(argv) == 0
        assert "0 computed, 1 from cache" in capsys.readouterr().out

    def test_sweep_param_grid(self, capsys, tmp_path):
        assert main(
            ["sweep", "E2", "--jobs", "2",
             "--cache-dir", str(tmp_path / "c"),
             "--param", "E2:r=2,3", "--quiet"]
        ) == 0
        out = capsys.readouterr().out
        assert "E2[r=2]" in out and "E2[r=3]" in out

    def test_sweep_seeds_fan_out(self, capsys, tmp_path):
        assert main(
            ["sweep", "E8", "--jobs", "2",
             "--cache-dir", str(tmp_path / "c"),
             "--param", "E8:r=2", "--seeds", "1,2", "--quiet"]
        ) == 0
        out = capsys.readouterr().out
        assert "seed=1" in out and "seed=2" in out

    def test_sweep_rejects_bad_param(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["sweep", "E1", "--param", "nonsense",
                  "--cache-dir", str(tmp_path)])

    def test_sweep_rejects_param_for_unselected_experiment(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["sweep", "E1", "--param", "E9:r_max=3",
                  "--cache-dir", str(tmp_path)])


class TestTuneCommand:
    def _argv(self, tmp_path, *extra):
        return [
            "tune", "--alg", "strassen", "--r", "2", "--M", "12",
            "--budget", "10", "--generation", "4", "--seed", "3",
            "--local", "--cache-dir", str(tmp_path), *extra,
        ]

    def test_tune_runs_and_reports(self, capsys, tmp_path):
        assert main(self._argv(tmp_path, "--strategy", "anneal")) == 0
        out = capsys.readouterr().out
        assert "best I/O" in out
        assert "Belady gap" in out
        assert "searched in" in out

    def test_tune_json_line(self, capsys, tmp_path):
        import json

        assert main(
            self._argv(tmp_path, "--strategy", "portfolio", "--json")
        ) == 0
        line = capsys.readouterr().out.strip().splitlines()[-1]
        doc = json.loads(line)
        assert doc["command"] == "tune"
        assert doc["exit_code"] == 0
        assert doc["best_io"] <= doc["start_io"]
        assert doc["evaluations"] <= 10

    def test_tune_resume_after_finish_is_idempotent(self, capsys, tmp_path):
        import json

        argv = [arg for arg in self._argv(tmp_path, "--json")
                if arg != "--local"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        # Identical best line either way, and the rerun simulates
        # nothing: every evaluation is a store or ledger hit.
        pick = [ln for ln in first.splitlines() if "best I/O" in ln]
        assert pick == [ln for ln in second.splitlines() if "best I/O" in ln]
        cold = json.loads(first.strip().splitlines()[-1])
        warm = json.loads(second.strip().splitlines()[-1])
        assert cold["cache_hits"] < cold["evaluations"]
        assert warm["cache_hits"] == warm["evaluations"]

    def test_tune_profile_trace_out(self, capsys, tmp_path):
        trace = tmp_path / "trace.json"
        assert main(
            self._argv(tmp_path, "--trace-out", str(trace))
        ) == 0
        assert trace.exists()
        assert "trace:" in capsys.readouterr().out
