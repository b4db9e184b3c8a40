"""On-disk cache of compiled graph bundles shared across processes.

A sweep runs dozens of jobs over a handful of ``(algorithm, depth)``
graphs; without a cache every worker rebuilds its CDAG, regenerates its
schedules and recompiles its executor plans.  :class:`GraphCache` makes
each of those a content-addressed bundle (:mod:`repro.cdag.artifact`)
under one root directory:

.. code-block:: text

    <root>/
      <graph key>/            # CDAG CSR arrays + copy flags
        meta.json  *.npy
      schedules/<key>/        # named schedule arrays (recursive, rank)
      plans/<key>/            # executor SchedulePlan occurrence arrays
      corrupt/                # quarantined bundles (post-mortem)

Workers ``np.load(..., mmap_mode="r")`` the arrays, so however many
processes map a bundle, physical memory holds one copy (the page cache
does the sharing) and a graph is *built* once per machine, not once per
job.  Plan bundles stay memmapped for the LRU and Belady passes, which
read the bundle's int64 arrays directly, so a loaded plan is
materialised into Python lists only when a configuration runs on the
simulation loop.  Loads verify sha256
checksums; a truncated or bit-flipped bundle is moved to ``corrupt/``
and rebuilt — corruption is a miss, never an error.

Process-wide activation goes through
:func:`repro.cdag.artifact.active_cache`: :func:`activate` installs a
cache for this process, and the ``REPRO_GRAPH_CACHE`` environment
variable does the same lazily in freshly spawned pool workers.
Telemetry: ``graphcache.{hit,miss}`` counters (with per-kind
sub-counters), ``graphcache.{build_s,map_s}`` gauges and a
``graphcache.<kind>`` span per bundle acquisition.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.cdag import artifact
from repro.errors import GraphCacheError
from repro.telemetry.spans import span

__all__ = ["GraphCache", "activate", "deactivate", "counter_snapshot"]

#: Directory (under the cache root) holding quarantined bundles.
QUARANTINE_DIR = "corrupt"

#: Subdirectories for derived bundles (graph bundles live at top level).
SCHEDULES_DIR = "schedules"
PLANS_DIR = "plans"

#: Process-local object caches are bounded so a long-lived process
#: sweeping many configurations cannot accumulate unbounded plans.
_MAX_LOCAL_PLANS = 64
_MAX_LOCAL_SCHEDULES = 64


def _metrics():
    from repro import telemetry

    return telemetry.metrics()


def counter_snapshot() -> dict[str, int]:
    """Current ``graphcache.*`` counter values of this process (used by
    pool workers to report their per-job deltas back to the parent)."""
    registry = _metrics()
    out = {}
    for name in registry.names():
        if name.startswith("graphcache."):
            metric = registry.get(name)
            value = getattr(metric, "value", None)
            if isinstance(value, int):
                out[name] = value
    return out


class GraphCache:
    """Content-addressed bundle store rooted at ``root``.

    One instance per process is installed via :func:`activate`; the
    build hooks (:func:`repro.cdag.builder.build_cdag`, the schedule
    generators, :meth:`CacheExecutor._plan`) consult it through
    :func:`repro.cdag.artifact.active_cache`.
    """

    def __init__(self, root: str | os.PathLike, verify: bool = True):
        self.root = Path(root).expanduser()
        self.root.mkdir(parents=True, exist_ok=True)
        self.verify = verify
        self._graphs: dict[str, object] = {}
        self._schedules: dict[str, np.ndarray] = {}
        self._plans: dict[str, object] = {}

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------

    @property
    def quarantine_root(self) -> Path:
        return self.root / QUARANTINE_DIR

    def _quarantine(self, path: Path, reason: str) -> Path | None:
        """Move a corrupt bundle directory under ``corrupt/`` (never
        raises; falls back to deletion, then to leaving it in place)."""
        dest = None
        try:
            self.quarantine_root.mkdir(parents=True, exist_ok=True)
            dest = self.quarantine_root / path.name
            n = 0
            while dest.exists():
                n += 1
                dest = self.quarantine_root / f"{path.name}.{n}"
            os.replace(path, dest)
        except OSError:
            dest = None
            shutil.rmtree(path, ignore_errors=True)
        registry = _metrics()
        registry.inc("graphcache.quarantined")
        return dest

    def _count(self, outcome: str, kind: str, seconds: float) -> None:
        registry = _metrics()
        registry.inc(f"graphcache.{outcome}")
        registry.inc(f"graphcache.{outcome}.{kind}")
        gauge = "graphcache.build_s" if outcome == "miss" else "graphcache.map_s"
        registry.gauge(gauge).set(seconds)

    def _remember(self, table: dict, limit: int, key: str, value) -> None:
        if len(table) >= limit:
            table.pop(next(iter(table)))
        table[key] = value

    # ------------------------------------------------------------------
    # Graph bundles
    # ------------------------------------------------------------------

    def get_graph(self, alg, r: int):
        """The CDAG ``G_r`` of ``alg`` — from the process-local map, a
        mapped on-disk bundle, or a fresh build (published on miss)."""
        from repro.cdag import builder

        gkey = artifact.graph_key(alg, r)
        g = self._graphs.get(gkey)
        if g is not None:
            self._count("hit", "graph", 0.0)
            return g
        path = self.root / gkey
        with span("graphcache.graph", alg=alg.name) as sp:
            sp.set("key", gkey)
            sp.set("r", int(r))
            if path.is_dir():
                t0 = time.perf_counter()
                try:
                    arrays, _meta = artifact.read_bundle(
                        path, artifact.GRAPH_ARRAY_NAMES, verify=self.verify
                    )
                    g = artifact.graph_from_arrays(alg, r, arrays)
                except GraphCacheError:
                    self._quarantine(path, "unreadable graph bundle")
                    sp.set("quarantined", True)
                else:
                    g._graph_key = gkey
                    self._graphs[gkey] = g
                    self._count("hit", "graph", time.perf_counter() - t0)
                    sp.set("outcome", "hit")
                    return g
            t0 = time.perf_counter()
            g = builder.build_cdag_uncached(alg, r)
            build_s = time.perf_counter() - t0
            g._graph_key = gkey
            self._graphs[gkey] = g
            self._count("miss", "graph", build_s)
            sp.set("outcome", "miss")
            meta = {
                "kind": "graph",
                "key": gkey,
                "alg": alg.name,
                "alg_digest": artifact.alg_digest(alg),
                "r": int(r),
                "n_vertices": g.n_vertices,
                "n_edges": g.n_edges,
            }
            try:
                artifact.write_bundle(path, artifact.graph_to_arrays(g), meta)
            except OSError:
                pass  # publication is best effort (read-only root etc.)
            return g

    # ------------------------------------------------------------------
    # Schedule bundles
    # ------------------------------------------------------------------

    def get_schedule(
        self, cdag, name: str, version: str, build: Callable[[], np.ndarray]
    ) -> np.ndarray:
        """The compiled schedule array for family ``name`` on ``cdag``,
        generated by ``build()`` on a miss."""
        gkey = artifact.cdag_graph_key(cdag)
        skey = artifact.schedule_key(gkey, name, version)
        arr = self._schedules.get(skey)
        if arr is not None:
            self._count("hit", "schedule", 0.0)
            return arr
        path = self.root / SCHEDULES_DIR / skey
        with span("graphcache.schedule", family=name) as sp:
            sp.set("key", skey)
            if path.is_dir():
                t0 = time.perf_counter()
                try:
                    arrays, _meta = artifact.read_bundle(
                        path, artifact.SCHEDULE_ARRAY_NAMES, verify=self.verify
                    )
                except GraphCacheError:
                    self._quarantine(path, "unreadable schedule bundle")
                    sp.set("quarantined", True)
                else:
                    arr = arrays["schedule"]
                    self._remember(self._schedules, _MAX_LOCAL_SCHEDULES, skey, arr)
                    self._count("hit", "schedule", time.perf_counter() - t0)
                    sp.set("outcome", "hit")
                    return arr
            t0 = time.perf_counter()
            arr = np.ascontiguousarray(build(), dtype=np.int64)
            self._count("miss", "schedule", time.perf_counter() - t0)
            sp.set("outcome", "miss")
            meta = {
                "kind": "schedule",
                "key": skey,
                "graph": gkey,
                "name": name,
                "version": version,
                "n_steps": int(len(arr)),
            }
            try:
                artifact.write_bundle(path, {"schedule": arr}, meta)
            except OSError:
                pass
            self._remember(self._schedules, _MAX_LOCAL_SCHEDULES, skey, arr)
            return arr

    # ------------------------------------------------------------------
    # Plan bundles
    # ------------------------------------------------------------------

    def get_plan(self, executor, schedule: np.ndarray, schedule_digest: str,
                 validate: bool):
        """The compiled :class:`SchedulePlan` for ``schedule`` on
        ``executor``'s CDAG (compiled and published on a miss)."""
        from repro.pebbling.executor import EXECUTOR_VERSION
        from repro.simcore import SchedulePlan

        gkey = artifact.cdag_graph_key(executor.cdag)
        pkey = artifact.plan_key(gkey, schedule_digest, EXECUTOR_VERSION)

        def _validated(plan):
            if validate and not plan.validated:
                executor.validate_schedule(schedule)
                plan.validated = True
            return plan

        plan = self._plans.get(pkey)
        if plan is not None:
            self._count("hit", "plan", 0.0)
            return _validated(plan)
        path = self.root / PLANS_DIR / pkey
        with span("graphcache.plan") as sp:
            sp.set("key", pkey)
            if path.is_dir():
                t0 = time.perf_counter()
                try:
                    arrays, meta = artifact.read_bundle(
                        path, artifact.PLAN_ARRAY_NAMES, verify=self.verify
                    )
                except GraphCacheError:
                    self._quarantine(path, "unreadable plan bundle")
                    sp.set("quarantined", True)
                else:
                    plan = SchedulePlan.from_arrays(
                        arrays, validated=bool(meta.get("validated", False))
                    )
                    self._remember(self._plans, _MAX_LOCAL_PLANS, pkey, plan)
                    self._count("hit", "plan", time.perf_counter() - t0)
                    sp.set("outcome", "hit")
                    return _validated(plan)
            t0 = time.perf_counter()
            if validate:
                schedule = executor.validate_schedule(schedule)
            plan = SchedulePlan(executor.cdag, schedule, validated=validate)
            self._count("miss", "plan", time.perf_counter() - t0)
            sp.set("outcome", "miss")
            meta = {
                "kind": "plan",
                "key": pkey,
                "graph": gkey,
                "schedule_blake2b": schedule_digest,
                "executor_version": EXECUTOR_VERSION,
                "validated": bool(plan.validated),
                "n_steps": int(plan.n_steps),
            }
            try:
                artifact.write_bundle(path, plan.to_arrays(), meta)
            except OSError:
                pass
            self._remember(self._plans, _MAX_LOCAL_PLANS, pkey, plan)
            return plan

    # ------------------------------------------------------------------
    # Warming, inspection, GC
    # ------------------------------------------------------------------

    def warm(
        self,
        alg,
        rs: Iterable[int],
        schedules: Sequence[str] = ("recursive", "rank"),
    ) -> dict[str, int]:
        """Pre-build graph, schedule and plan bundles for ``alg`` at
        each depth in ``rs``; returns hit/miss counts for the pass."""
        from repro.cdag import build_cdag
        from repro.pebbling.executor import CacheExecutor
        from repro.schedules import rank_order_schedule, recursive_schedule

        builders = {"recursive": recursive_schedule, "rank": rank_order_schedule}
        unknown = [s for s in schedules if s not in builders]
        if unknown:
            raise ValueError(
                f"unknown schedule families {unknown}; choose from "
                f"{sorted(builders)}"
            )
        before = counter_snapshot()
        prev = artifact.set_active_cache(self)
        try:
            for r in rs:
                g = build_cdag(alg, int(r))
                ex = CacheExecutor(g)
                for name in schedules:
                    ex.compile(builders[name](g), validate=True)
        finally:
            artifact.set_active_cache(prev)
        after = counter_snapshot()
        return {
            key: after.get(key, 0) - before.get(key, 0)
            for key in ("graphcache.hit", "graphcache.miss")
        }

    def _bundle_dirs(self) -> list[Path]:
        """Every published bundle directory (skips quarantine and
        in-flight ``.tmp-*`` staging dirs)."""
        dirs = []
        for meta_path in sorted(self.root.rglob("meta.json")):
            rel = meta_path.relative_to(self.root).parts
            if rel[0] == QUARANTINE_DIR or any(p.startswith(".tmp-") for p in rel):
                continue
            dirs.append(meta_path.parent)
        return dirs

    def entries(self) -> list[dict]:
        """One metadata dict per bundle (for ``repro graph-cache ls``)."""
        out = []
        for path in self._bundle_dirs():
            try:
                meta = json.loads((path / "meta.json").read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError):
                continue
            size = sum(
                f.stat().st_size for f in path.iterdir() if f.is_file()
            )
            out.append(
                {
                    "kind": meta.get("kind", "?"),
                    "key": meta.get("key", path.name),
                    "path": str(path),
                    "size_bytes": size,
                    "mtime": path.stat().st_mtime,
                    "meta": meta,
                }
            )
        return out

    def gc(self, max_age_s: float | None = None, clear: bool = False) -> list[Path]:
        """Remove orphaned ``.tmp-*`` staging dirs always, plus every
        bundle when ``clear`` or bundles idle longer than ``max_age_s``.
        Returns the removed paths."""
        removed = []
        for tmp in sorted(self.root.rglob(".tmp-*")):
            shutil.rmtree(tmp, ignore_errors=True)
            removed.append(tmp)
        if clear or max_age_s is not None:
            now = time.time()
            for path in self._bundle_dirs():
                try:
                    age = now - path.stat().st_mtime
                except OSError:
                    continue
                if clear or (max_age_s is not None and age > max_age_s):
                    shutil.rmtree(path, ignore_errors=True)
                    removed.append(path)
        return removed


def activate(root: str | os.PathLike) -> GraphCache:
    """Install (or reuse) the process-global cache rooted at ``root``."""
    current = artifact.active_cache()
    if isinstance(current, GraphCache) and current.root == Path(root).expanduser():
        return current
    cache = GraphCache(root)
    artifact.set_active_cache(cache)
    return cache


def deactivate() -> None:
    """Remove the process-global cache (bundles on disk are untouched)."""
    artifact.set_active_cache(None)
