"""Kill, then rerun: the result store is how a search resumes.

A search SIGKILLed mid-generation (its whole process group, job
processes included) keeps the candidate evaluations it stored and
nothing else.  Rerunning the same configuration against the same store
must land on the *bit-for-bit* uninterrupted trajectory: the budget
charges every proposal, store hits included, so the fixed-seed rerun
proposes exactly what the killed run proposed, and each candidate the
killed run stored comes back as one extra cache hit.
"""

import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.autotune import AutoTuner, PoolEvaluator, TuneConfig
from repro.runner import ResultStore

CONFIG = dict(
    alg="strassen", r=2, cache_size=12, policy="belady",
    strategy="genetic", budget=12, generation=3, seed=5,
)

#: Generation 0 of the genetic strategy at r = 2: the recursive order
#: and the one hybrid depth.
FIRST_GENERATION = 2

# The child slows each generation down so the parent can observe the
# store grow and SIGKILL mid-search deterministically.
CHILD = """\
import sys, time

from repro.autotune import AutoTuner, PoolEvaluator, TuneConfig
from repro.runner import ResultStore


class SlowEvaluator:
    def __init__(self, inner):
        self.inner = inner

    def evaluate(self, orders):
        time.sleep(0.4)
        return self.inner.evaluate(orders)


config = TuneConfig(
    alg="strassen", r=2, cache_size=12, policy="belady",
    strategy="genetic", budget=12, generation=3, seed=5,
)
evaluator = SlowEvaluator(PoolEvaluator(
    "strassen", 2, 12, store=ResultStore(sys.argv[1]), workers=2,
))
AutoTuner(config, evaluator).run()
"""


def _search(store_dir):
    evaluator = PoolEvaluator(
        "strassen", 2, 12, store=ResultStore(store_dir), workers=2
    )
    return AutoTuner(TuneConfig(**CONFIG), evaluator).run()


def test_sigkill_mid_search_resumes_bit_for_bit(tmp_path):
    store_dir = tmp_path / "store"
    script = tmp_path / "child.py"
    script.write_text(CHILD)

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in [env.get("PYTHONPATH"), os.path.abspath("src")] if p
    )
    child = subprocess.Popen(
        [sys.executable, str(script), str(store_dir)],
        env=env,
        start_new_session=True,  # own process group: job processes too
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 120
        while len(ResultStore(store_dir)) < FIRST_GENERATION:
            if child.poll() is not None:
                pytest.fail(
                    "child search finished before it could be killed"
                )
            if time.monotonic() > deadline:
                pytest.fail("child search never stored a generation")
            time.sleep(0.02)
        os.killpg(child.pid, signal.SIGKILL)
        child.wait(timeout=30)
    finally:
        if child.poll() is None:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait(timeout=30)
    assert child.returncode == -signal.SIGKILL

    stored = len(ResultStore(store_dir))
    assert stored >= FIRST_GENERATION

    # Rerun against the same store, then an uninterrupted reference on
    # a cold one: trajectories must not depend on cache warmth.
    rerun = _search(store_dir)
    reference = _search(tmp_path / "cold")

    assert rerun.trajectory == reference.trajectory
    assert rerun.best_io == reference.best_io
    assert rerun.best_gap == reference.best_gap
    assert rerun.evaluations == reference.evaluations
    assert np.array_equal(rerun.best_order, reference.best_order)
    assert stored < len(ResultStore(tmp_path / "cold")), (
        "the killed search had already stored every candidate"
    )

    # Every candidate the killed run stored is proposed again on the
    # same trajectory and served from the store instead of simulated.
    assert rerun.cache_hits == reference.cache_hits + stored
