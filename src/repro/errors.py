"""Exception hierarchy for the :mod:`repro` library.

All exceptions raised deliberately by this library derive from
:class:`ReproError`, so callers can catch library failures without
accidentally swallowing programming errors (``TypeError`` etc. are still
raised for misuse that cannot be attributed to data).
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "AlgorithmError",
    "BrentEquationError",
    "CDAGError",
    "ScheduleError",
    "PebbleGameError",
    "CacheError",
    "RoutingError",
    "HallConditionError",
    "BoundError",
    "PartitionError",
]


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class AlgorithmError(ReproError):
    """A bilinear algorithm description is malformed or inconsistent.

    Raised when the encoding/decoding matrices of a
    :class:`~repro.bilinear.BilinearAlgorithm` have mismatched shapes, an
    empty multiplication set, or otherwise cannot describe a matrix
    multiplication algorithm.
    """


class BrentEquationError(AlgorithmError):
    """A claimed matrix-multiplication algorithm fails the Brent equations.

    The Brent equations are the exact algebraic condition for a bilinear
    algorithm ``<U, V, W>`` to compute the matrix-multiplication tensor.
    The exception carries the first violated equation for debugging.
    """

    def __init__(self, message: str, index: tuple | None = None):
        super().__init__(message)
        #: Index ``(i, j, k, l, m, n)`` of the first violated Brent
        #: equation, if available.
        self.index = index


class CDAGError(ReproError):
    """A computation-DAG construction or query is invalid.

    Examples: asking for a rank outside ``0 .. 2r+1``, extracting a
    sub-computation with ``k > r``, or constructing a graph with an
    inconsistent vertex table.
    """


class ScheduleError(ReproError):
    """A schedule is not a valid execution order for its CDAG.

    A valid schedule is a permutation of the *computed* vertices (all
    non-input vertices) in a topological order of the CDAG.
    """


class PebbleGameError(ReproError):
    """An illegal move in the red-blue pebble game was attempted.

    Raised by the strict :class:`~repro.pebbling.PebbleGame` state machine
    when, e.g., a value is computed without all predecessors in fast
    memory, or fast-memory capacity would be exceeded.
    """


class CacheError(ReproError):
    """The cache simulator was configured or driven inconsistently."""


class RoutingError(ReproError):
    """A path routing could not be constructed or fails verification.

    Raised when a path in a routing is not a connected sequence of
    adjacent CDAG vertices, does not join its declared endpoints, or when
    a claimed ``m``-routing exceeds its hit budget.
    """


class HallConditionError(RoutingError):
    """The Hall condition required by the matching step fails.

    Per Lemma 5 of the paper this cannot happen for a correct
    matrix-multiplication algorithm whose nontrivial linear combinations
    are used in only one multiplication; encountering this error therefore
    indicates the input algorithm violates the paper's assumptions (or is
    not a correct matrix-multiplication algorithm at all).  The exception
    records the violating set for inspection.
    """

    def __init__(self, message: str, violating_set=None, neighborhood=None):
        super().__init__(message)
        #: The subset ``D`` of dependence vertices with ``|N(D)| < |D|/p``.
        self.violating_set = violating_set
        #: Its neighborhood ``N(D)``.
        self.neighborhood = neighborhood


class BoundError(ReproError):
    """A lower/upper-bound formula was evaluated outside its regime.

    For example Theorem 1 requires ``M = o(n^2)``; evaluating the bound
    with ``M`` so large that the segment construction is vacuous raises
    this error rather than returning a misleading number (callers can opt
    into clamping instead).
    """


class PartitionError(ReproError):
    """A parallel work partition is malformed (not load balanced per rank,
    overlapping ownership, or not covering the computation)."""
