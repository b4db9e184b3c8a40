"""The core's single entry point, :func:`repro.simcore.run_configs`:
one error contract and one parallelism knob on every path."""

import numpy as np
import pytest

from repro import simcore, telemetry
from repro.bilinear import strassen
from repro.cdag import build_cdag
from repro.errors import ScheduleError
from repro.schedules import recursive_schedule
from repro.simcore.grid import _n_threads

MODES = ["off", "interp"] + (["jit"] if simcore.HAVE_NUMBA else [])


@pytest.fixture()
def telemetry_on():
    """Telemetry state is process-global: enable it for one test."""
    telemetry.enable()
    telemetry.reset()
    yield telemetry.metrics()
    telemetry.disable()
    telemetry.reset()


@pytest.fixture(scope="module")
def plan_and_masks():
    g = build_cdag(strassen(), 2)
    sched = recursive_schedule(g)
    is_input = g.in_degree() == 0
    is_output = np.zeros(g.n_vertices, dtype=bool)
    is_output[g.outputs()] = True
    return g, sched, simcore.SchedulePlan(g, sched, validated=True), is_input, is_output


@pytest.mark.parametrize("value,expected", [
    ("", 5), ("3", 3), ("8x", None), ("1.5", None), ("0", None), ("-2", None),
])
def test_grid_threads_knob(monkeypatch, value, expected):
    """Unset means the caller's default; anything but a positive integer
    raises, naming the variable."""
    monkeypatch.setenv("REPRO_GRID_THREADS", value)
    if expected is None:
        with pytest.raises(ValueError, match="REPRO_GRID_THREADS"):
            _n_threads(5)
    else:
        assert _n_threads(5) == expected


def test_fallback_batch_rejects_malformed_grid_threads(monkeypatch, plan_and_masks):
    """The fallback runs a batch serially but still reads the knob."""
    _, _, plan, is_input, is_output = plan_and_masks
    monkeypatch.setenv("REPRO_GRID_THREADS", "8x")
    with simcore.forced_mode("off"):
        with pytest.raises(ValueError, match="REPRO_GRID_THREADS"):
            simcore.run_configs(plan, is_input, is_output, [(8, "lru"), (12, "lru")])


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("mode", MODES)
def test_schedule_error_on_every_path(mode, threads, monkeypatch, plan_and_masks):
    """A non-topological schedule raises ScheduleError on the per-config
    kernel, the lockstep grid and the fallback, whatever the knob says."""
    g, sched, _, is_input, is_output = plan_and_masks
    plan = simcore.SchedulePlan(g, sched[::-1].copy(), validated=False)
    monkeypatch.setenv("REPRO_GRID_THREADS", threads)
    with simcore.forced_mode(mode):
        for configs in ([(12, "lru")], [(12, "lru"), (12, "belady")]):
            with pytest.raises(ScheduleError):
                list(simcore.run_configs(plan, is_input, is_output, configs))


def test_serial_fallback_simulates_on_demand(monkeypatch, plan_and_masks, telemetry_on):
    """The serial fallback runs each configuration as the iterator
    reaches it, so a caller's per-configuration span times it alone."""
    _, _, plan, is_input, is_output = plan_and_masks
    monkeypatch.delenv("REPRO_GRID_THREADS", raising=False)
    reg = telemetry_on
    with simcore.forced_mode("off"):
        counts = simcore.run_configs(
            plan, is_input, is_output, [(8, "lru"), (12, "belady")]
        )
        assert reg.counter("simcore.kernel.fallback").value == 0
        next(counts)
        assert reg.counter("simcore.kernel.fallback").value == 1
        next(counts)
        assert reg.counter("simcore.kernel.fallback").value == 2
