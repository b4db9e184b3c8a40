"""Shared low-level utilities: mixed-radix indexing, union-find, bipartite
matching, argument validation, text tables, and seeded RNG helpers.

These are internal building blocks; they carry no matrix-multiplication
semantics of their own but are exported for reuse in downstream code and
tests.
"""

from repro.utils.indexing import (
    MixedRadix,
    pack_tuple,
    unpack_tuple,
    pair_index,
    pair_unindex,
    digits_to_int,
    int_to_digits,
)
from repro.utils.unionfind import UnionFind
from repro.utils.flow import (
    maximum_matching,
    capacitated_matching,
    hall_violator,
)
from repro.utils.validation import (
    check_positive_int,
    check_nonnegative_int,
    check_in_range,
    check_power,
)
from repro.utils.tables import TextTable, format_count, format_ratio
from repro.utils.rngs import make_rng

__all__ = [
    "MixedRadix",
    "pack_tuple",
    "unpack_tuple",
    "pair_index",
    "pair_unindex",
    "digits_to_int",
    "int_to_digits",
    "UnionFind",
    "maximum_matching",
    "capacitated_matching",
    "hall_violator",
    "check_positive_int",
    "check_nonnegative_int",
    "check_in_range",
    "check_power",
    "TextTable",
    "format_count",
    "format_ratio",
    "make_rng",
]
