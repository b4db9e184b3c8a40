"""Schedule executor: counts I/Os of a compute order under the paper's
two-level machine model.

Given a CDAG, a *schedule* (the computed vertices in execution order) and
a cache size ``M``, the executor simulates the machine:

- computing vertex ``v`` first loads any predecessor not in cache (one
  read I/O each — values already stored to slow memory are re-read, input
  values are read for the first time);
- evictions happen on demand, chosen by an eviction policy (LRU, FIFO or
  offline-MIN/Belady); evicting a *dirty* value (computed but never
  stored) that is still live — it has remaining uses or is an unfinished
  output — costs one write I/O; evicting a clean or dead value is free;
- at the end every output must reside in slow memory (final writes).

The predecessors of the current computation plus its result are pinned
and never evicted mid-step (hence ``M >= max_indegree + 1``).

The I/O-complexity of the *algorithm* is the minimum over schedules and
I/O placements; the executor provides the measurable upper side: the
paper's Theorem 1 lower bound must sit below every
``(schedule, policy)`` measurement, and the recursive schedule's
measurement should track the matching upper bound (experiment E9).

Implementation notes (the hot path)
-----------------------------------
The simulator is a thin view over the unified columnar core
(:mod:`repro.simcore`): a schedule is compiled once into a
:class:`~repro.simcore.plan.SchedulePlan` — flat CSR-style operand
arrays gathered from the CDAG's predecessor CSR, per-occurrence
*next-use* times (a backward-scan linked list, so Belady needs no
per-vertex Python lists or cursor dicts), per-vertex first-use times
and initial use counts, the last three built when the simulation loop
first runs.

Every simulation then goes through one core entry point,
:func:`repro.simcore.run_configs`, which checks the policy name, takes
the count-only LRU and Belady configurations from one pass per policy
and runs the rest on the pure-Python loop, and maps failures onto
:class:`ScheduleError` / :class:`CacheError`.  Both routes make the
exact victim choices of the golden reference simulator retained under
``tests/pebbling/_reference.py`` — the golden-equivalence tests enforce
bit-identity across schedules x policies x cache sizes, and the core's
``simcore.kernel.fallback`` counter counts each configuration run.

The executor keeps what is specific to one CDAG: schedule validation
(through :func:`repro.schedules.validate_schedule`, the one validator),
a content-keyed plan cache shared across cache sizes and policies, the
machine model's I/O accounting, and one ``pebbling.run`` span per
configuration.  :meth:`CacheExecutor.run_many` exposes the plan reuse
as a batched sweep API (validate once, precompute once, run every
``(M, policy)`` configuration in one core call).
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.cdag.graph import CDAG
from repro.errors import CacheError
from repro.pebbling.machine import MachineModel
from repro.schedules.base import _validate_gather, validate_schedule
from repro.simcore import SchedulePlan, run_configs
from repro.telemetry.metrics import metrics
from repro.telemetry.spans import enabled as _telemetry_enabled
from repro.telemetry.spans import span

__all__ = ["IOResult", "CacheExecutor", "simulate_io"]


@dataclass(frozen=True)
class IOResult:
    """Outcome of one simulated execution.

    Attributes
    ----------
    reads / writes:
        Load and store I/O counts (``total = reads + writes``).
    input_reads:
        Subset of ``reads`` that loaded original inputs.
    spill_writes / spill_reads:
        Writes of intermediate values forced out of cache, and the reads
        that brought them back — the communication the blocking structure
        of a schedule controls.
    output_writes:
        Final stores of output values.
    peak_cache:
        Maximum number of cached values observed.
    """

    cache_size: int
    policy: str
    reads: int
    writes: int
    input_reads: int
    spill_reads: int
    spill_writes: int
    output_writes: int
    peak_cache: int

    @property
    def total(self) -> int:
        """Total I/O (reads + writes) — the paper's cost measure."""
        return self.reads + self.writes


def _counts_to_result(
    counts, cache_size: int, policy: str, machine: MachineModel
) -> tuple[IOResult, int]:
    """Fold a raw count tuple into an :class:`IOResult` under the
    machine's I/O accounting switches; returns ``(result, evictions)``."""
    (reads, writes, input_reads, spill_reads, spill_writes,
     output_writes, peak, evictions) = counts
    if not machine.count_input_reads:
        reads -= input_reads
    if not machine.count_output_writes:
        writes -= output_writes
    result = IOResult(
        cache_size=cache_size,
        policy=policy,
        reads=reads,
        writes=writes,
        input_reads=input_reads if machine.count_input_reads else 0,
        spill_reads=spill_reads,
        spill_writes=spill_writes,
        output_writes=output_writes if machine.count_output_writes else 0,
        peak_cache=peak,
    )
    return result, evictions


class CacheExecutor:
    """Reusable executor for one CDAG (precomputes use lists once)."""

    _MAX_CACHED_PLANS = 8

    def __init__(self, cdag: CDAG):
        self.cdag = cdag
        self.is_output = np.zeros(cdag.n_vertices, dtype=bool)
        self.is_output[cdag.outputs()] = True
        self.is_input = cdag.in_degree() == 0
        self._plans: dict[bytes, SchedulePlan] = {}

    # ------------------------------------------------------------------

    def validate_schedule(self, schedule: np.ndarray) -> np.ndarray:
        """Check the schedule is a topological permutation of the
        non-input vertices (:func:`repro.schedules.validate_schedule`);
        returns it as a contiguous int64 array."""
        return validate_schedule(self.cdag, schedule)

    # ------------------------------------------------------------------

    def _plan(self, schedule, validate: bool) -> SchedulePlan:
        """Fetch or build the :class:`SchedulePlan` for ``schedule``
        (small content-keyed cache, so repeated ``run`` calls on the
        same schedule reuse the precompute like ``run_many`` does).
        """
        schedule = np.ascontiguousarray(schedule, dtype=np.int64)
        key = hashlib.blake2b(schedule.tobytes(), digest_size=16).digest()
        plan = self._plans.get(key)
        if plan is None:
            metrics().inc("pebbling.plan.miss")
            operands = None
            if validate:
                schedule, operands = _validate_gather(self.cdag, schedule)
            plan = SchedulePlan(
                self.cdag, schedule, validated=validate, operands=operands
            )
            if len(self._plans) >= self._MAX_CACHED_PLANS:
                self._plans.pop(next(iter(self._plans)))
            self._plans[key] = plan
        else:
            # LRU touch: re-insert so neighbourhood searches that cycle
            # through more than _MAX_CACHED_PLANS candidates keep their
            # frequently re-evaluated incumbents compiled.
            metrics().inc("pebbling.plan.hit")
            self._plans.pop(key)
            self._plans[key] = plan
            if validate and not plan.validated:
                self.validate_schedule(schedule)
                plan.validated = True
        return plan

    def compile(self, schedule, validate: bool = True) -> SchedulePlan:
        """Public access to the compiled plan for ``schedule``.

        Used by the benchmarks to time the acquisition cost (validate +
        occurrence precompute) apart from the simulation.
        """
        return self._plan(schedule, validate)

    def run(
        self,
        schedule,
        cache_size: int,
        policy: str = "lru",
        validate: bool = True,
        machine: MachineModel | None = None,
        io_trace: list[int] | None = None,
    ) -> IOResult:
        """Execute ``schedule`` with the given cache size and policy.

        When ``io_trace`` is a list, the cumulative I/O count after each
        scheduled computation is appended to it (one entry per schedule
        step) — used by the Hong-Kung partition machinery to cut
        executions every ``2M`` I/Os.
        """
        with span(
            "pebbling.run", policy=policy, cache_size=cache_size
        ) as sp:
            result, evictions = self._run(
                schedule, cache_size, policy, validate, machine, io_trace
            )
            # One enabled-check for the whole telemetry block: while
            # disabled, a run pays nothing beyond this bool.
            if _telemetry_enabled():
                self._record_run_counters(sp, result, evictions)
            return result

    def run_many(
        self,
        schedule,
        cache_sizes,
        policies=("lru",),
        validate: bool = True,
    ) -> dict[tuple[int, str], IOResult]:
        """Batched sweep: run every ``(cache_size, policy)``
        configuration over one schedule, validating it and building the
        use-list precompute exactly once.

        The whole grid is one :func:`~repro.simcore.run_configs` call:
        one pass for the LRU configurations, one for the Belady ones and
        a loop for each FIFO one, serially.

        Returns ``{(cache_size, policy): IOResult}``.  Telemetry is
        identical to the equivalent sequence of :meth:`run` calls (one
        ``pebbling.run`` span per configuration, counters included).
        """
        plan = self._plan(schedule, validate)
        configs = [(int(M), str(p)) for M in cache_sizes for p in policies]
        machines: dict[int, MachineModel] = {}
        for M, _ in configs:
            if M not in machines:
                machines[M] = MachineModel(cache_size=M)
                machines[M].check_executable(self.cdag)
        record = _telemetry_enabled()
        counts = run_configs(plan, self.is_input, self.is_output, configs)
        results: dict[tuple[int, str], IOResult] = {}
        for M, policy in configs:
            with span("pebbling.run", policy=policy, cache_size=M) as sp:
                # next() inside the span: it runs this configuration's
                # simulation (for the first LRU or Belady configuration,
                # the pass that counts every one of that policy).
                result, evictions = _counts_to_result(
                    next(counts), M, policy, machines[M]
                )
                if record:
                    self._record_run_counters(sp, result, evictions)
            results[(M, policy)] = result
        return results

    def _record_run_counters(self, sp, result: IOResult, evictions: int) -> None:
        sp.add("scheduled", self.cdag.n_vertices - int(self.is_input.sum()))
        sp.add("reads", result.reads)
        sp.add("writes", result.writes)
        sp.add("evictions", evictions)
        sp.add("spill_reads", result.spill_reads)
        sp.add("spill_writes", result.spill_writes)
        sp.set("peak_cache", result.peak_cache)

    # ------------------------------------------------------------------

    def _run(
        self, schedule, cache_size, policy, validate, machine, io_trace
    ) -> tuple[IOResult, int]:
        machine = machine or MachineModel(cache_size=cache_size)
        if machine.cache_size != cache_size:
            raise CacheError("machine.cache_size disagrees with cache_size")
        plan = self._plan(schedule, validate)
        machine.check_executable(self.cdag)
        (counts,) = run_configs(
            plan, self.is_input, self.is_output, [(cache_size, policy)],
            io_trace,
        )
        return _counts_to_result(counts, cache_size, policy, machine)


# ----------------------------------------------------------------------
# Shared executors for the one-shot convenience path.
# ----------------------------------------------------------------------

_MAX_SHARED_EXECUTORS = 4
_shared_executors: "OrderedDict[int, CacheExecutor]" = OrderedDict()


def _shared_executor(cdag: CDAG) -> CacheExecutor:
    """A process-local :class:`CacheExecutor` per CDAG object — so
    repeated :func:`simulate_io` calls (tests, notebooks) reuse compiled
    plans instead of recompiling per call.  The map is keyed by
    ``id(cdag)``; the executor holds the graph, so a live entry's id is
    never reused by another object."""
    key = id(cdag)
    executor = _shared_executors.get(key)
    if executor is None:
        executor = CacheExecutor(cdag)
        while len(_shared_executors) >= _MAX_SHARED_EXECUTORS:
            _shared_executors.popitem(last=False)
        _shared_executors[key] = executor
    else:
        _shared_executors.move_to_end(key)
    return executor


def simulate_io(
    cdag: CDAG,
    schedule,
    cache_size: int,
    policy: str = "lru",
    validate: bool = True,
) -> IOResult:
    """One-shot convenience wrapper around :class:`CacheExecutor`.

    Executors are shared per graph object, so back-to-back calls on the
    same (graph, schedule) hit the in-process plan cache — the
    ``pebbling.plan.{hit,miss}`` counters make the reuse observable."""
    return _shared_executor(cdag).run(
        schedule, cache_size=cache_size, policy=policy, validate=validate
    )
