"""Kernel dispatch for the columnar simulation core.

One gating decision serves every pebble-game simulation built on
:mod:`repro.simcore` — single runs and whole ``(M, policy)`` grids
consult the same mode, so "the kernels are on" means the same thing
everywhere.

numba is an *optional* dependency (the ``speed`` extra).  Three modes:

- ``jit`` — numba present, kernels compiled with ``cache=True`` (the
  compilation is paid once per machine, then loaded from the on-disk
  cache);
- ``off`` — numba absent, or ``REPRO_NO_JIT=1``: callers fall back to
  the pure-Python loop (:mod:`repro.simcore.pyloops`);
- ``interp`` — test-only (``set_mode("interp")`` / ``forced_mode``):
  run the kernel *code* under the plain interpreter even without numba,
  so the equivalence suites exercise the kernel algorithm everywhere.

Every simulation counts the path it took, once per configuration
(``simcore.kernel.{jit,interp,fallback}``), and the first kernel
invocation per process publishes its wall time as the
``simcore.kernel.compile_s`` gauge (on a cold numba cache this is
dominated by JIT compilation).
"""

from __future__ import annotations

import os

from repro.telemetry.metrics import metrics
from repro.telemetry.spans import enabled as _telemetry_enabled

__all__ = [
    "HAVE_NUMBA",
    "njit",
    "active_mode",
    "set_mode",
    "forced_mode",
    "note_first_call",
    "count_path",
]

try:  # pragma: no cover - exercised only when numba is installed
    from numba import njit

    HAVE_NUMBA = True
except Exception:  # ImportError, or a broken numba install
    HAVE_NUMBA = False

    def njit(*args, **kwargs):
        """Identity decorator: the kernels are valid plain Python over
        numpy arrays, so without numba they stay importable and runnable
        (the ``interp`` test mode and the hypothesis suites rely on
        this)."""
        if args and callable(args[0]):
            return args[0]

        def deco(fn):
            return fn

        return deco


#: ``set_mode`` override; None means "decide from numba + environment".
_MODE_OVERRIDE: str | None = None


def active_mode() -> str:
    """The simulation path core consumers will take: ``"jit"``,
    ``"interp"`` or ``"off"`` (= pure-Python fallback loops)."""
    if _MODE_OVERRIDE is not None:
        return _MODE_OVERRIDE
    if not HAVE_NUMBA or os.environ.get("REPRO_NO_JIT", "") not in ("", "0"):
        return "off"
    return "jit"


def set_mode(mode: str | None) -> None:
    """Override the dispatch mode: ``"off"``, ``"interp"``, ``"jit"``,
    ``"auto"``/None (= re-derive from numba + environment).  Used by
    ``--no-jit`` CLI flags, benchmarks and tests."""
    global _MODE_OVERRIDE
    if mode in ("auto", None):
        _MODE_OVERRIDE = None
        return
    if mode not in ("off", "interp", "jit"):
        raise ValueError(f"unknown kernel mode {mode!r}")
    if mode == "jit" and not HAVE_NUMBA:
        raise RuntimeError("kernel mode 'jit' requires numba (pip install repro[speed])")
    _MODE_OVERRIDE = mode


class forced_mode:
    """Context manager: force a dispatch mode, restore the previous
    override on exit (benchmark pairing and tests)."""

    def __init__(self, mode: str | None):
        self.mode = mode
        self._prev: str | None = None

    def __enter__(self):
        self._prev = _MODE_OVERRIDE
        set_mode(self.mode)
        return self

    def __exit__(self, *exc):
        global _MODE_OVERRIDE
        _MODE_OVERRIDE = self._prev
        return False


# ----------------------------------------------------------------------
# First-call bookkeeping and path counters.
# ----------------------------------------------------------------------

_compile_s: float | None = None


def note_first_call(elapsed: float) -> None:
    """Remember the first kernel invocation's wall time (on a cold numba
    cache this is dominated by JIT compilation) and publish it as the
    ``simcore.kernel.compile_s`` gauge once per registry life."""
    global _compile_s
    if _compile_s is None:
        _compile_s = elapsed
    if _telemetry_enabled():
        gauge = metrics().gauge("simcore.kernel.compile_s")
        if gauge.count == 0:
            gauge.set(_compile_s)


def count_path(mode: str, n: int = 1) -> None:
    """Increment the core's per-simulation path counter
    (``simcore.kernel.{jit,interp,fallback}``); ``n`` simulations at
    once for batched grids.  No-op while telemetry is disabled."""
    if n and _telemetry_enabled():
        name = mode if mode != "off" else "fallback"
        metrics().inc(f"simcore.kernel.{name}", n)
