"""Operation counters shared by the numeric kernels.

The kernels in this package take an optional :class:`OpCounter` so tests
and benchmarks can verify arithmetic-complexity claims (Θ(n^ω0) for the
recursive algorithms, 2n³-n² for classical) against actual executions.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["OpCounter"]


@dataclass
class OpCounter:
    """Mutable counter of scalar multiplications and additions."""

    multiplications: int = 0
    additions: int = 0

    @property
    def total(self) -> int:
        return self.multiplications + self.additions

    def add_mults(self, n: int) -> None:
        self.multiplications += int(n)

    def add_adds(self, n: int) -> None:
        self.additions += int(n)

    def reset(self) -> None:
        self.multiplications = 0
        self.additions = 0
