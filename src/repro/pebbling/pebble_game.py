"""The red-blue pebble game of Hong and Kung [10], strict form.

The paper's machine model "see [10] for the formalization of this model
as a pebble game played on the computation graph".  This module provides
that formalisation as an explicit state machine with legality checking:

- a *blue* pebble marks a value in slow memory, *red* in fast memory;
- **LOAD v**: place red on a blue-pebbled vertex (cost 1);
- **STORE v**: place blue on a red-pebbled vertex (cost 1);
- **COMPUTE v**: place red on ``v`` if all predecessors carry red — at
  most once per vertex (no recomputation);
- **DELETE v**: remove the red pebble from ``v`` (free);
- at most ``M`` red pebbles at any time;
- initially: blue on all inputs; goal: blue on all outputs.

:func:`trace_from_executor` replays a :class:`CacheExecutor` run as a
pebble-game move sequence, proving (per run) that the executor's
accounting corresponds to a *legal* pebbling of the same cost — the
integration tests rely on this equivalence.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from repro.cdag.graph import CDAG
from repro.errors import PebbleGameError, ScheduleError
from repro.simcore.grid import policy_code
from repro.simcore.plan import SchedulePlan
from repro.simcore.pyloops import simulate_py

__all__ = ["Move", "MoveKind", "PebbleGame", "trace_from_executor"]


class MoveKind(Enum):
    LOAD = "load"
    STORE = "store"
    COMPUTE = "compute"
    DELETE = "delete"


@dataclass(frozen=True)
class Move:
    kind: MoveKind
    vertex: int


class PebbleGame:
    """Strict red-blue pebble game state machine on a CDAG."""

    def __init__(self, cdag: CDAG, cache_size: int):
        if cache_size <= 0:
            raise PebbleGameError("cache_size must be positive")
        self.cdag = cdag
        self.cache_size = cache_size
        self.red: set[int] = set()
        self.blue: set[int] = set(np.nonzero(cdag.in_degree() == 0)[0].tolist())
        self.computed: set[int] = set(self.blue)  # inputs count as available
        self.io_count = 0
        self.moves: list[Move] = []

    # ------------------------------------------------------------------

    def load(self, v: int) -> None:
        """Slow -> fast (cost 1)."""
        if v not in self.blue:
            raise PebbleGameError(f"LOAD {v}: no blue pebble")
        if v in self.red:
            raise PebbleGameError(f"LOAD {v}: already red")
        self._need_room()
        self.red.add(v)
        self.io_count += 1
        self.moves.append(Move(MoveKind.LOAD, v))

    def store(self, v: int) -> None:
        """Fast -> slow (cost 1)."""
        if v not in self.red:
            raise PebbleGameError(f"STORE {v}: no red pebble")
        self.blue.add(v)
        self.io_count += 1
        self.moves.append(Move(MoveKind.STORE, v))

    def compute(self, v: int) -> None:
        """Place red on ``v``; all predecessors must be red."""
        if v in self.computed:
            raise PebbleGameError(f"COMPUTE {v}: already computed (recomputation forbidden)")
        preds = self.cdag.predecessors(v)
        missing = [int(p) for p in preds if int(p) not in self.red]
        if missing:
            raise PebbleGameError(f"COMPUTE {v}: predecessors {missing} not in fast memory")
        if v in self.red:
            raise PebbleGameError(f"COMPUTE {v}: already red")
        self._need_room()
        self.red.add(v)
        self.computed.add(v)
        self.moves.append(Move(MoveKind.COMPUTE, v))

    def delete(self, v: int) -> None:
        """Remove a red pebble (free)."""
        if v not in self.red:
            raise PebbleGameError(f"DELETE {v}: no red pebble")
        self.red.discard(v)
        self.moves.append(Move(MoveKind.DELETE, v))

    def _need_room(self) -> None:
        if len(self.red) >= self.cache_size:
            raise PebbleGameError(
                f"fast memory full ({self.cache_size} red pebbles); "
                "DELETE or STORE+DELETE first"
            )

    # ------------------------------------------------------------------

    def is_complete(self) -> bool:
        """All outputs carry blue pebbles."""
        return all(int(v) in self.blue for v in self.cdag.outputs())

    def assert_complete(self) -> None:
        if not self.is_complete():
            missing = [
                int(v) for v in self.cdag.outputs() if int(v) not in self.blue
            ]
            raise PebbleGameError(f"outputs without blue pebbles: {missing[:10]}")


def trace_from_executor(
    cdag: CDAG,
    schedule,
    cache_size: int,
    policy: str = "lru",
) -> PebbleGame:
    """Replay an executor run as pebble-game moves and return the game.

    The simulation core's pure-Python loops emit every implied machine
    move — load / store / delete / compute, in execution order — through
    their ``events`` hook; forwarding those events into a
    :class:`PebbleGame` replays the *same* simulation (same eviction
    decisions, no second policy implementation) under the game's
    legality checks, so ``game.io_count`` equals the executor's
    ``IOResult.total`` — asserted by the integration tests.  Raises
    :class:`PebbleGameError` if any implied move would be illegal.
    """
    code = policy_code(policy)
    schedule = np.ascontiguousarray(schedule, dtype=np.int64)
    game = PebbleGame(cdag, cache_size)
    is_input = cdag.in_degree() == 0
    is_output = np.zeros(cdag.n_vertices, dtype=bool)
    is_output[cdag.outputs()] = True
    plan = SchedulePlan(cdag, schedule, validated=False)

    moves = {
        "load": game.load,
        "store": game.store,
        "delete": game.delete,
        "compute": game.compute,
    }

    def forward(kind: str, v: int) -> None:
        moves[kind](v)

    try:
        simulate_py(
            plan, is_input, is_output, cache_size, code,
            events=forward,
        )
    except ScheduleError as exc:
        # The executor's "operand unavailable" is the game's illegal
        # LOAD (no blue pebble) — keep the game-side exception type.
        raise PebbleGameError(str(exc)) from exc
    game.assert_complete()
    return game
