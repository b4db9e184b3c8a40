"""Aggregation of sweep outcomes back into experiment-harness tables.

The runner's outcomes carry serialised :class:`ExperimentResult`
payloads; this module rebuilds them, renders a per-job summary table in
the harness's :class:`TextTable` format, and decides the sweep's
overall verdict (every job completed *and* every paper-claim check
passed).
"""

from __future__ import annotations

from typing import Sequence

from repro.runner.pool import JobOutcome
from repro.runner.store import payload_to_result
from repro.utils.tables import TextTable

__all__ = ["sweep_summary", "sweep_ok", "render_sweep"]


def sweep_summary(outcomes: Sequence[JobOutcome]) -> TextTable:
    """One row per job: status, duration, checks, error."""
    table = TextTable(
        ["job", "status", "duration (s)", "checks", "error"],
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
    failures = [o for o in outcomes if not o.ok]
    if failures:
        lines.append("")
        lines.append(f"FAILED jobs: {[o.spec.label for o in failures]}")
        for o in failures:
            lines.append(f"  {o.spec.label}: {o.error}")
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
