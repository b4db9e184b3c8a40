"""Aggregation of sweep outcomes back into experiment-harness tables.

The runner's outcomes carry serialised :class:`ExperimentResult`
payloads; this module rebuilds them, renders a per-job summary table in
the harness's :class:`TextTable` format, and decides the sweep's
overall verdict (every job completed *and* every paper-claim check
passed).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.experiments.harness import ExperimentResult
from repro.runner.pool import JobOutcome
from repro.runner.store import payload_to_result
from repro.utils.tables import TextTable

__all__ = [
    "results_of",
    "sweep_summary",
    "sweep_ok",
    "fault_summary",
    "render_sweep",
]


def results_of(outcomes: Iterable[JobOutcome]) -> list[ExperimentResult]:
    """Rebuilt :class:`ExperimentResult` for every completed outcome."""
    return [
        payload_to_result(o.payload) for o in outcomes if o.payload is not None
    ]


def sweep_summary(outcomes: Sequence[JobOutcome]) -> TextTable:
    """One row per job: status, cache/attempt accounting, checks."""
    table = TextTable(
        ["job", "status", "attempts", "duration (s)", "checks", "error"],
        title="Sweep summary",
    )
    for o in outcomes:
        checks = "-"
        if o.payload is not None:
            verdicts = o.payload.get("checks", {})
            checks = f"{sum(1 for v in verdicts.values() if v)}/{len(verdicts)}"
        table.add_row(
            [
                o.spec.label,
                o.status,
                len(o.attempts) if o.attempts else (0 if o.cached else 1),
                "-" if o.duration is None else round(o.duration, 3),
                checks,
                (o.error or "")[:60],
            ]
        )
    return table


def sweep_ok(outcomes: Sequence[JobOutcome]) -> bool:
    """True when every job completed and every paper-claim check
    passed."""
    for o in outcomes:
        if not o.ok:
            return False
        verdicts = (o.payload or {}).get("checks", {})
        if not all(verdicts.values()):
            return False
    return True


def fault_summary(outcomes: Sequence[JobOutcome]) -> TextTable | None:
    """Attempt-kind accounting for sweeps that saw failures.

    One row per job that needed more than a single clean attempt:
    how many error / crash / timeout / pool-lost / deadline attempts it
    absorbed and how it ended.  Returns None for a fault-free sweep so
    reports stay quiet on the happy path.
    """
    kinds = ["error", "crash", "timeout", "pool-lost", "deadline"]
    rows = []
    for o in outcomes:
        tallies = {k: 0 for k in kinds}
        for a in o.attempts:
            if a.kind in tallies:
                tallies[a.kind] += 1
        if any(tallies.values()):
            rows.append([o.spec.label] + [tallies[k] for k in kinds] + [o.status])
    if not rows:
        return None
    table = TextTable(
        ["job"] + kinds + ["final"], title="Fault summary (non-clean attempts)"
    )
    for row in rows:
        table.add_row(row)
    return table


def render_sweep(
    outcomes: Sequence[JobOutcome], show_results: bool = True
) -> str:
    """Full human-readable sweep report."""
    lines: list[str] = []
    if show_results:
        for o in outcomes:
            if o.payload is None:
                continue
            lines.append(payload_to_result(o.payload).render())
            lines.append("")
    lines.append(sweep_summary(outcomes).render())
    faults = fault_summary(outcomes)
    if faults is not None:
        lines.append("")
        lines.append(faults.render())
    failures = [o for o in outcomes if not o.ok]
    if failures:
        lines.append("")
        lines.append(f"FAILED jobs: {[o.spec.label for o in failures]}")
        for o in failures:
            lines.append(f"  {o.spec.label}: {o.error}")
            for a in o.attempts:
                lines.append(
                    f"    attempt {a.index}: {a.kind}"
                    + (f" — {a.error}" if a.error else "")
                )
    unchecked = [
        o.spec.label
        for o in outcomes
        if o.ok and not all((o.payload or {}).get("checks", {}).values())
    ]
    if unchecked:
        lines.append("")
        lines.append(f"FAILED paper-claim checks in: {unchecked}")
    n_cached = sum(1 for o in outcomes if o.cached)
    lines.append("")
    lines.append(
        f"{len(outcomes)} jobs: "
        f"{sum(1 for o in outcomes if o.status == 'ok')} computed, "
        f"{n_cached} from cache, {len(failures)} failed."
    )
    return "\n".join(lines)
