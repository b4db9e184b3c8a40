"""Schedule families for CDAG execution.

The I/O lower bound of Theorem 1 holds for *every* schedule; the
recursive depth-first schedule attains it.  See the individual modules
for the families' roles in the experiments.
"""

from repro.schedules.base import validate_schedule, demand_driven_schedule
from repro.schedules.naive import rank_order_schedule
from repro.schedules.random_topo import (
    random_topological_schedule,
    random_product_order_schedule,
)
from repro.schedules.recursive import recursive_schedule
from repro.schedules.blocked import loop_order_schedule, classical_product_digits

__all__ = [
    "validate_schedule",
    "demand_driven_schedule",
    "rank_order_schedule",
    "random_topological_schedule",
    "random_product_order_schedule",
    "recursive_schedule",
    "loop_order_schedule",
    "classical_product_digits",
]
