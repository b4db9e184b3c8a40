"""Schedule autotuner: search that closes the Belady gap.

The paper's Theorem 1 bounds I/O from below; the measurable upper half
of the sandwich is whatever schedule we run.  This package *searches*
the schedule space for tighter upper halves: candidates are
product-order permutations (:mod:`~repro.autotune.genome`), the
objective is the **Belady gap** — measured I/O under offline-MIN
eviction minus the Theorem-1 Ω-form bound — and the search is one
in-process simulated annealing run (:mod:`~repro.autotune.driver`).
A killed search is simply rerun: a fixed seed replays its trajectory.

Surfaced as ``python -m repro tune``; see also experiment E15 and the
``tune-smoke`` CI job.
"""

from repro.autotune.driver import AutoTuner, TuneConfig, TuneResult
from repro.autotune.genome import GenomeContext, genome_key, hybrid_order

__all__ = [
    "AutoTuner",
    "TuneConfig",
    "TuneResult",
    "GenomeContext",
    "genome_key",
    "hybrid_order",
]
