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
:class:`CacheExecutor` is the simulator's one entry point.  A schedule
is compiled once into a :class:`~repro.simcore.plan.SchedulePlan` —
flat CSR-style operand arrays gathered from the CDAG's predecessor CSR,
per-occurrence *next-use* times (a backward-scan linked list, so Belady
needs no per-vertex Python lists or cursor dicts), per-vertex first-use
times and initial use counts, the last three built when the simulation
loop first runs.  The executor keeps the last schedule's plan.

:meth:`CacheExecutor.run_many` checks every cache size and policy name
before any configuration runs, then sends each ``(cache size, policy)``
configuration to one of two places in :mod:`repro.simcore`:

- count-only LRU and Belady configurations to their policy's *pass*
  (:func:`~repro.simcore.stack.lru_counts`,
  :func:`~repro.simcore.stack.belady_counts`), which counts every cache
  size of that policy in one sweep over the plan, inside the span of the
  policy's first configuration;
- everything else to the *loop*
  (:func:`~repro.simcore.pyloops.simulate_py`): FIFO, and any plan a
  pass leaves to it.

It builds every :class:`IOResult` in one place, under one
``pebbling.run`` span per configuration.  :meth:`CacheExecutor.run` is
``run_many`` of one configuration, or the loop when given an
``io_trace``.  Both routes make the exact victim choices of the golden
reference simulator retained under ``tests/pebbling/_reference.py`` —
the golden-equivalence tests enforce bit-identity across schedules x
policies x cache sizes — and each configuration adds one
``simcore.kernel.fallback`` count.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.cdag.graph import CDAG
from repro.errors import CacheError
from repro.pebbling.machine import check_cache_size
from repro.schedules.base import _validate_gather, validate_schedule
from repro.simcore.plan import SchedulePlan
from repro.simcore.pyloops import POLICIES, count_simulation, simulate_py
from repro.simcore.stack import belady_counts, lru_counts
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


#: The policies whose pass counts every cache size in one sweep.
_PASSES = {"lru": lru_counts, "belady": belady_counts}


class CacheExecutor:
    """The simulator for one CDAG: compiles schedules into plans and
    runs ``(cache size, policy)`` configurations on them."""

    def __init__(self, cdag: CDAG):
        self.cdag = cdag
        self.is_output = np.zeros(cdag.n_vertices, dtype=bool)
        self.is_output[cdag.outputs()] = True
        in_degree = cdag.in_degree()
        self.is_input = in_degree == 0
        self._min_cache_size = int(in_degree.max(initial=0)) + 1
        self._key: bytes | None = None
        self._plan: SchedulePlan | None = None

    def compile(self, schedule, validate: bool = True) -> SchedulePlan:
        """The :class:`SchedulePlan` of ``schedule``, checked by
        :func:`repro.schedules.validate_schedule` unless
        ``validate=False``.

        The executor keeps the last schedule's plan, keyed by a digest
        of its content: compiling or running that schedule again reuses
        it (``pebbling.plan.hit``), and any other schedule replaces it
        (``pebbling.plan.miss``).  The benchmarks call this to time the
        compile apart from the simulation.
        """
        schedule = np.ascontiguousarray(schedule, dtype=np.int64)
        key = hashlib.blake2b(schedule.tobytes(), digest_size=16).digest()
        if key == self._key:
            metrics().inc("pebbling.plan.hit")
            if validate and not self._plan.validated:
                validate_schedule(self.cdag, schedule)
                self._plan.validated = True
            return self._plan
        metrics().inc("pebbling.plan.miss")
        # Drop the old plan first: at most one plan is alive while the
        # new one is built.
        self._key = self._plan = None
        operands = None
        if validate:
            schedule, operands = _validate_gather(self.cdag, schedule)
        self._plan = SchedulePlan(
            self.cdag, schedule, validated=validate, operands=operands
        )
        self._key = key
        return self._plan

    def run(
        self,
        schedule,
        cache_size: int,
        policy: str = "lru",
        validate: bool = True,
        io_trace: list[int] | None = None,
    ) -> IOResult:
        """Execute ``schedule`` with the given cache size and policy.

        When ``io_trace`` is a list, the loop appends to it the
        cumulative I/O count after each scheduled computation (one entry
        per schedule step) — used by the Hong-Kung partition machinery
        to cut executions every ``2M`` I/Os.
        """
        if io_trace is None:
            (result,) = self.run_many(
                schedule, (cache_size,), (policy,), validate
            ).values()
            return result
        plan = self.compile(schedule, validate)
        M, policy = int(cache_size), str(policy)
        self._check([M], [policy])
        with span("pebbling.run", policy=policy, cache_size=M) as sp:
            counts = simulate_py(
                plan, self.is_input, self.is_output, M, policy, io_trace
            )
            return self._result(sp, counts, M, policy)

    def run_many(
        self,
        schedule,
        cache_sizes,
        policies=("lru",),
        validate: bool = True,
    ) -> dict[tuple[int, str], IOResult]:
        """Run every ``(cache_size, policy)`` configuration over one
        schedule, compiled once, each in its own ``pebbling.run`` span;
        returns ``{(cache_size, policy): IOResult}``."""
        plan = self.compile(schedule, validate)
        Ms = [int(M) for M in cache_sizes]
        policies = [str(p) for p in policies]
        self._check(Ms, policies)
        counted: dict[str, dict] = {}
        results: dict[tuple[int, str], IOResult] = {}
        for M in Ms:
            for policy in policies:
                with span("pebbling.run", policy=policy, cache_size=M) as sp:
                    count = _PASSES.get(policy)
                    if count is not None and policy not in counted:
                        group = sorted(set(Ms))
                        out = count(plan, self.is_input, self.is_output, group)
                        counted[policy] = {} if out is None else dict(zip(group, out))
                    counts = counted.get(policy, {}).get(M)
                    if counts is None:
                        counts = simulate_py(
                            plan, self.is_input, self.is_output, M, policy
                        )
                    else:
                        count_simulation()
                        if isinstance(counts, Exception):
                            raise counts
                    results[(M, policy)] = self._result(sp, counts, M, policy)
        return results

    def _check(self, cache_sizes, policies) -> None:
        """Raise for a cache size no schedule runs in
        (:func:`~repro.pebbling.machine.check_cache_size`) or an unknown
        policy name (:class:`CacheError`)."""
        for M in cache_sizes:
            check_cache_size(self.cdag, M, self._min_cache_size)
        for policy in policies:
            if policy not in POLICIES:
                raise CacheError(f"unknown eviction policy {policy!r}")

    def _result(self, sp, counts, cache_size: int, policy: str) -> IOResult:
        """The :class:`IOResult` of a raw count tuple; records the
        configuration's counters on its span ``sp``."""
        result = IOResult(cache_size, policy, *counts[:7])
        # One enabled-check for the whole telemetry block: while
        # disabled, a run pays nothing beyond this bool.
        if _telemetry_enabled():
            sp.add("scheduled", self.cdag.n_vertices - int(self.is_input.sum()))
            sp.add("reads", result.reads)
            sp.add("writes", result.writes)
            sp.add("evictions", counts[7])
            sp.add("spill_reads", result.spill_reads)
            sp.add("spill_writes", result.spill_writes)
            sp.set("peak_cache", result.peak_cache)
        return result


def simulate_io(
    cdag: CDAG,
    schedule,
    cache_size: int,
    policy: str = "lru",
    validate: bool = True,
) -> IOResult:
    """One run of ``schedule`` on a fresh :class:`CacheExecutor`.  A
    caller that runs one schedule several times keeps an executor of its
    own, which keeps the plan."""
    return CacheExecutor(cdag).run(schedule, cache_size, policy, validate)
