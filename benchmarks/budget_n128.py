"""The n = 128 memory budget: Strassen at r = 7 in one process.

``python benchmarks/budget_n128.py`` builds ``G_7``, generates the
recursive schedule, compiles it with validation and runs LRU, then
Belady, at ``M = 12``: one :meth:`CacheExecutor.run_many` call per
policy on the same executor and plan.  After each phase it prints the
seconds the phase took and the process's peak RSS so far
(``ru_maxrss``), so the log shows which pass sets the peak.  It exits 1
if either I/O total differs from the recorded one or the peak exceeds
:data:`BUDGET_MIB`.  n = 128 is the first size where the paper's
Section 6 bound with explicit constants is non-zero.  On a 2-vCPU host
the run takes ~15 s: the LRU pass ~5.5-6 s, peaking near 641 MiB, and
the Belady pass ~6.7-8.8 s, which sets the process peak near 669 MiB.
"""

import resource
import sys
import time

from repro.bilinear import strassen
from repro.cdag import build_cdag
from repro.pebbling import CacheExecutor
from repro.schedules import recursive_schedule

#: ``policy -> total I/O`` of the recursive schedule at M = 12.
EXPECTED = {"lru": 9_747_748, "belady": 6_677_752}
#: Largest peak RSS that passes.  Heap retention and numpy's huge-page
#: advice move the peak by tens of MiB from run to run and host to host.
BUDGET_MIB = 1024


def peak_rss_mib() -> float:
    """This process's peak resident set so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def phase(name, fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    print(f"{name:<9} {time.perf_counter() - start:7.2f} s  "
          f"peak {peak_rss_mib():7.1f} MiB", flush=True)
    return out


def main() -> int:
    g = phase("build", build_cdag, strassen(), 7)
    executor = CacheExecutor(g)
    schedule = phase("schedule", recursive_schedule, g)
    phase("compile", executor.compile, schedule)
    # One pass per phase, so the log shows which one sets the peak.
    results = {}
    for policy in EXPECTED:
        results.update(phase(policy, executor.run_many, schedule, (12,),
                             (policy,)))
    ok = True
    for policy, want in EXPECTED.items():
        got = results[(12, policy)].total
        print(f"{policy:<9} I/O {got:,} (expected {want:,})")
        ok &= got == want
    peak = peak_rss_mib()
    print(f"peak RSS {peak:.1f} MiB (budget {BUDGET_MIB} MiB)")
    if peak > BUDGET_MIB:
        print("over budget", file=sys.stderr)
        ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
