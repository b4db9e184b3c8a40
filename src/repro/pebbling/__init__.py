"""Pebble-game / two-level cache machinery.

- :mod:`repro.pebbling.machine`: the machine model (paper Section 1);
- :mod:`repro.pebbling.executor`: I/O counting for a schedule — a thin
  view over the unified simulation core (:mod:`repro.simcore`, which
  owns the one LRU/FIFO/Belady policy implementation);
- :mod:`repro.pebbling.pebble_game`: strict red-blue pebble game [10];
- :mod:`repro.pebbling.segments`: the paper's segment-counting argument
  (Definition 1, Equations 1-2) measured on real executions.

The golden reference eviction policies live under
``tests/pebbling/_reference.py``.
"""

from repro.pebbling.machine import MachineModel, min_cache_size
from repro.pebbling.executor import IOResult, CacheExecutor, simulate_io
from repro.pebbling.pebble_game import (
    Move,
    MoveKind,
    PebbleGame,
    trace_from_executor,
)
from repro.pebbling.segments import (
    boundary_sets,
    meta_boundary,
    counted_mask_section5,
    counted_mask_section6,
    partition_schedule,
    SegmentRecord,
    SegmentAnalysis,
)

__all__ = [
    "MachineModel",
    "min_cache_size",
    "IOResult",
    "CacheExecutor",
    "simulate_io",
    "Move",
    "MoveKind",
    "PebbleGame",
    "trace_from_executor",
    "boundary_sets",
    "meta_boundary",
    "counted_mask_section5",
    "counted_mask_section6",
    "partition_schedule",
    "SegmentRecord",
    "SegmentAnalysis",
]
