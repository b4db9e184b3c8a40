"""Schedule autotuner: search that closes the Belady gap.

The paper's Theorem 1 bounds I/O from below; the measurable upper half
of the sandwich is whatever schedule we run.  This package *searches*
the schedule space for tighter upper halves: candidates are serialisable
product-order genomes (:mod:`~repro.autotune.genome`), the objective is
the **Belady gap** — measured I/O under offline-MIN eviction minus the
Theorem-1 Ω-form bound — and every evaluation is a content-addressed
runner job (:mod:`~repro.autotune.evaluate`) that dedupes through the
sweep result store.

A killed search resumes by being rerun against the same result
store: the budget charges every proposal, hits included, so the rerun
replays the uninterrupted trajectory and answers every candidate the
killed run stored from the store.  Strategies
(:mod:`~repro.autotune.strategies`) are pluggable — hill-climb,
annealing, genetic and the blocked/recursive hybrid portfolio.

Surfaced as ``python -m repro tune``; see also experiment E15 and the
``tune-smoke`` CI job.
"""

from repro.autotune.driver import AutoTuner, TuneConfig, TuneResult
from repro.autotune.evaluate import (
    TUNE_EXPERIMENT_ID,
    EvalRecord,
    LocalEvaluator,
    PoolEvaluator,
    evaluate_candidate,
)
from repro.autotune.genome import (
    GENOME_VERSION,
    GenomeContext,
    genome_key,
    hybrid_order,
)
from repro.autotune.strategies import (
    STRATEGIES,
    Strategy,
    TuneContext,
    make_strategy,
)

__all__ = [
    "AutoTuner",
    "TuneConfig",
    "TuneResult",
    "TUNE_EXPERIMENT_ID",
    "EvalRecord",
    "LocalEvaluator",
    "PoolEvaluator",
    "evaluate_candidate",
    "GENOME_VERSION",
    "GenomeContext",
    "genome_key",
    "hybrid_order",
    "STRATEGIES",
    "Strategy",
    "TuneContext",
    "make_strategy",
]
