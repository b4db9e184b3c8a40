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
            ["tune", "--strategy", "anneal"],
            ["tune", "--jobs", "2"],
            ["tune", "--local"],
            ["tune", "--cache-dir", "tune-cache"],
            ["tune", "--fresh"],
            ["sweep", "--retries", "1"],
            ["sweep", "--events", "events.jsonl"],
            ["tune", "--policy", "lru"],
        ],
        ids=[
            "tune-socket", "tune-journal", "tune-resume", "tune-solver-cmd",
            "tune-solver-timeout", "tune-strategy-external", "sweep-resume",
            "sweep-graph-cache", "tune-graph-cache", "graph-cache-ls",
            "route-profile", "experiments-profile", "sweep-profile",
            "tune-profile", "tune-strategy", "tune-jobs", "tune-local",
            "tune-cache-dir", "tune-fresh", "sweep-retries", "sweep-events",
            "tune-policy",
        ],
    )
    def test_removed_options_exit_2(self, tmp_path, capsys, extra):
        # The sweep daemon, the tune journal, the external solver, both
        # --resume flags, the graph-cache bundle store, --profile
        # (--trace-out is the one telemetry switch) and tune's
        # strategies, pool, store and policy options are gone, as are sweep's
        # in-run retries and JSONL event log (rerunning a sweep against
        # the same --cache-dir resumes and retries; tune is one in-process
        # search; every process builds its own graphs), so argparse
        # rejects each with status 2.  Only sweep takes --cache-dir, so
        # the others get none: the error must be the removed option's.
        command, *options = extra
        cache = ["--cache-dir", str(tmp_path)] if command == "sweep" else []
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

    def test_route_k0_verified(self, capsys):
        # G_0 is one product: one chain per side, 4 <= 6a^0 hits.
        assert main(["route", "--alg", "strassen", "--k", "0"]) == 0
        out = capsys.readouterr().out
        assert "paths: 2" in out and "VERIFIED: True" in out

    @pytest.mark.parametrize("command", [
        ["route", "--k", "1"],
        ["bounds", "--n", "4", "--M", "2"],
        ["render"],
    ])
    def test_unknown_alg_is_a_usage_error(self, capsys, command):
        assert main([*command, "--alg", "nope"]) == 2
        captured = capsys.readouterr()
        assert captured.err.strip() == "error: no catalog algorithm named 'nope'"
        assert captured.out == ""

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

    @pytest.mark.parametrize("command", ["experiments", "perf"])
    def test_unknown_experiment_is_a_usage_error(self, capsys, command):
        assert main([command, "E99"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: unknown experiment 'E99'")
        assert captured.out == ""

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
    def _usage_error(self, capsys, monkeypatch, tmp_path, argv, message):
        """``sweep ARGV --json`` is a usage error: exit 2, ``error: ...``
        on stderr, the JSON line last, and no job process started."""
        import json
        import multiprocessing.process

        def no_job(self):
            raise AssertionError("a job process was started")

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", no_job)
        assert main(["sweep", *argv, "--json", "--cache-dir", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.strip() == f"error: {message}"
        doc = json.loads(captured.out.strip().splitlines()[-1])
        assert doc["command"] == "sweep"
        assert doc["exit_code"] == 2
        assert doc["error"] == message

    def test_sweep_runs_and_caches(self, capsys, tmp_path):
        import json

        cache = tmp_path / "cache"
        argv = ["sweep", "E1", "--jobs", "2", "--cache-dir", str(cache), "--json"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "1 computed, 0 from cache" in out
        assert json.loads(out.splitlines()[-1])["hits"] == 0
        # identical rerun: served from cache
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "0 computed, 1 from cache" in out
        assert json.loads(out.splitlines()[-1])["hits"] == 1

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

    def test_sweep_rejects_bad_param(self, capsys, monkeypatch, tmp_path):
        self._usage_error(
            capsys, monkeypatch, tmp_path, ["E1", "--param", "nonsense"],
            "--param needs the form [EXP:]key=v1,v2 (got 'nonsense')",
        )

    def test_sweep_rejects_param_for_unselected_experiment(
        self, capsys, monkeypatch, tmp_path
    ):
        self._usage_error(
            capsys, monkeypatch, tmp_path, ["E1", "--param", "E9:r_max=3"],
            "--param 'E9:r_max=3' names 'E9', which is not in the selected "
            "experiments ['E1']",
        )

    def test_sweep_rejects_unknown_experiment(self, capsys, monkeypatch, tmp_path):
        from repro.experiments import list_experiments

        self._usage_error(
            capsys, monkeypatch, tmp_path, ["E99"],
            f"unknown experiment 'E99'; known: {list_experiments()}",
        )

    def test_sweep_rejects_bad_seeds(self, capsys, monkeypatch, tmp_path):
        self._usage_error(
            capsys, monkeypatch, tmp_path, ["E2", "--seeds", "a,b"],
            "--seeds needs comma-separated integers (got 'a,b')",
        )

    def test_sweep_rejects_param_the_experiment_does_not_take(
        self, capsys, monkeypatch, tmp_path
    ):
        self._usage_error(
            capsys, monkeypatch, tmp_path, ["E2", "--param", "E2:nope=1"],
            "--param: experiment E2 takes no parameter 'nope'",
        )

    @pytest.mark.parametrize(
        "option,value",
        [("--timeout", "-1"), ("--timeout", "0"), ("--timeout", "nan"),
         ("--timeout", "inf"), ("--jobs", "0"), ("--jobs", "-3")],
    )
    def test_sweep_rejects_unusable_limits(
        self, capsys, monkeypatch, tmp_path, option, value
    ):
        if option == "--jobs":
            message = f"--jobs must be at least 1 (got {value})"
        else:
            message = ("--timeout must be a finite positive number of "
                       f"seconds (got {value})")
        self._usage_error(
            capsys, monkeypatch, tmp_path, ["E1", option, value], message
        )


class TestTuneCommand:
    def _argv(self, *extra):
        return [
            "tune", "--alg", "strassen", "--r", "2", "--M", "12",
            "--budget", "10", "--generation", "4", "--seed", "3", *extra,
        ]

    def test_tune_runs_and_reports(self, capsys):
        assert main(self._argv()) == 0
        out = capsys.readouterr().out
        assert "best I/O" in out
        assert "Belady gap" in out
        assert "searched in" in out

    def test_tune_json_line(self, capsys):
        import json

        assert main(self._argv("--json")) == 0
        line = capsys.readouterr().out.strip().splitlines()[-1]
        doc = json.loads(line)
        assert doc["command"] == "tune"
        assert doc["exit_code"] == 0
        assert doc["best_io"] <= doc["start_io"]
        assert doc["evaluations"] <= 10

    def test_tune_failure_exits_1_with_json_line(self, capsys):
        """An evaluation error ends the search: a cache of 2 cannot
        compute Strassen's widest vertex, so tune exits 1 and its JSON
        line says why."""
        import json

        assert main(["tune", "--M", "2", "--json"]) == 1
        captured = capsys.readouterr()
        doc = json.loads(captured.out.strip().splitlines()[-1])
        assert doc["command"] == "tune"
        assert doc["exit_code"] == 1
        assert "computing the widest vertex needs 5 slots" in doc["error"]
        assert "widest vertex" in captured.err

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["--alg", "nope"], "no catalog algorithm named 'nope'"),
            (["--budget", "0"], "budget must be positive, got 0"),
            (["--M", "0"], "cache_size must be positive, got 0"),
            (["--r", "-1"], "r must be nonnegative, got -1"),
        ],
        ids=["unknown-alg", "zero-budget", "zero-cache", "negative-r"],
    )
    def test_tune_usage_error_exits_2_with_json_line(self, capsys, argv,
                                                     message):
        """An argument the search's inputs reject is a usage error, as
        argparse's own are: ``error: ...`` on stderr, exit 2, and the
        JSON line under ``--json``; no traceback."""
        import json

        assert main(["tune", *argv, "--json"]) == 2
        captured = capsys.readouterr()
        doc = json.loads(captured.out.strip().splitlines()[-1])
        assert doc["command"] == "tune"
        assert doc["exit_code"] == 2
        assert doc["error"] == message
        assert captured.err.strip() == f"error: {message}"

    def test_tune_profile_trace_out(self, capsys, tmp_path):
        trace = tmp_path / "trace.json"
        assert main(self._argv("--trace-out", str(trace))) == 0
        assert trace.exists()
        assert "trace:" in capsys.readouterr().out
