"""The core's single entry point, :func:`repro.simcore.run_configs`:
one error contract on the passes and the loop, and one configuration
run per ``next()``."""

import numpy as np
import pytest

from repro import simcore, telemetry
from repro.bilinear import strassen
from repro.cdag import build_cdag
from repro.errors import ScheduleError
from repro.schedules import recursive_schedule


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


def test_schedule_error_on_every_path(plan_and_masks):
    """A non-topological schedule raises ScheduleError through the
    passes' hand-off to the loop and on the loop itself, one
    configuration or several."""
    g, sched, _, is_input, is_output = plan_and_masks
    plan = simcore.SchedulePlan(g, sched[::-1].copy(), validated=False)
    for configs in ([(12, "lru")], [(12, "lru"), (12, "belady")],
                    [(12, "fifo")]):
        with pytest.raises(ScheduleError):
            list(simcore.run_configs(plan, is_input, is_output, configs))
        with pytest.raises(ScheduleError):
            list(simcore.run_configs(plan, is_input, is_output, configs,
                                     io_trace=[]))


def test_serial_fallback_simulates_on_demand(plan_and_masks, telemetry_on):
    """run_configs runs each configuration as the iterator reaches it,
    so a caller's per-configuration span times it alone."""
    _, _, plan, is_input, is_output = plan_and_masks
    reg = telemetry_on
    counts = simcore.run_configs(
        plan, is_input, is_output, [(8, "lru"), (12, "belady")]
    )
    assert reg.counter("simcore.kernel.fallback").value == 0
    next(counts)
    assert reg.counter("simcore.kernel.fallback").value == 1
    next(counts)
    assert reg.counter("simcore.kernel.fallback").value == 2
