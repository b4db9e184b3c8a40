"""Content-addressed serialisation of compiled graph state.

A *bundle* is a directory of raw ``.npy`` files plus a ``meta.json``
carrying the format version, content key, dtypes/shapes and a per-file
sha256 — the on-disk unit of :mod:`repro.runner.graphcache`.  Three
bundle kinds share the format:

- **graph bundles** — the CDAG's flat arrays (predecessor + successor
  CSR and copy flags); slab/region tables are *not* stored because the
  layout is a pure function of ``(a, b, r)``
  (:func:`repro.cdag.graph.slab_layout`);
- **schedule bundles** — one compiled schedule array for a named
  schedule family on one graph;
- **plan bundles** — the executor's :class:`SchedulePlan` occurrence
  arrays for one ``(graph, schedule, executor version)`` triple.

Design properties:

- *content keys*: a graph bundle is keyed by the sha256 of the base
  algorithm's matrices plus ``r`` (:func:`graph_key`); derived bundles
  fold the graph key, the schedule identity and the executor version
  into their own digests — a change to any input re-keys everything
  downstream, so stale bundles are simply never looked up;
- *zero-copy loads*: arrays are opened with ``np.load(mmap_mode="r")``,
  so a bundle mapped by many worker processes occupies one copy of
  physical memory via the page cache (the practical effect of
  ``multiprocessing.shared_memory`` without its lifetime bookkeeping);
- *corruption is a miss*: every load verifies the per-file sha256 and
  the declared dtype/shape; any disagreement raises
  :class:`~repro.errors.GraphCacheError`, which the cache layer turns
  into quarantine-and-rebuild (the PR-4 store discipline applied to
  graphs);
- *atomic publication*: bundles are staged in a same-directory
  ``.tmp-*`` dir and ``os.replace``-d into place; losing the publish
  race keeps the winner's bundle.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
from pathlib import Path
from typing import TYPE_CHECKING, Mapping

import numpy as np

from repro.errors import GraphCacheError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (builder -> here)
    from repro.bilinear.algorithm import BilinearAlgorithm
    from repro.cdag.graph import CDAG

__all__ = [
    "FORMAT_VERSION",
    "GRAPH_ARRAY_NAMES",
    "PLAN_ARRAY_NAMES",
    "SCHEDULE_ARRAY_NAMES",
    "alg_digest",
    "graph_key",
    "graph_to_arrays",
    "graph_from_arrays",
    "write_bundle",
    "read_bundle",
    "active_cache",
    "set_active_cache",
    "reset_active_cache",
]

#: Bump when the bundle layout changes; old bundles then re-key (never
#: mis-decode).
FORMAT_VERSION = 1

#: Environment variable naming a graph-cache directory to activate
#: lazily on first :func:`active_cache` call (how pool workers inherit
#: the sweep's ``--graph-cache`` setting).
ENV_VAR = "REPRO_GRAPH_CACHE"

GRAPH_ARRAY_NAMES = (
    "pred_indptr",
    "pred_indices",
    "succ_indptr",
    "succ_indices",
    "is_copy",
)
SCHEDULE_ARRAY_NAMES = ("schedule",)
PLAN_ARRAY_NAMES = (
    "schedule",
    "step_indptr",
    "step_ops",
    "occ_next",
    "first_use",
    "uses_left0",
)


# ----------------------------------------------------------------------
# Content keys
# ----------------------------------------------------------------------


def alg_digest(alg: "BilinearAlgorithm") -> str:
    """sha256 identity of a base algorithm: name, dimensions and the
    exact bytes of its encoding/decoding matrices."""
    h = hashlib.sha256()
    h.update(f"alg:{alg.name}:{alg.n0}:{alg.a}:{alg.b}:".encode())
    for M in (alg.U, alg.V, alg.W):
        h.update(np.ascontiguousarray(M, dtype=np.float64).tobytes())
    return h.hexdigest()


def graph_key(alg: "BilinearAlgorithm", r: int) -> str:
    """Content key of the bundle for ``G_r`` of ``alg`` (hex, 32 chars —
    collision-safe at any realistic catalog size)."""
    h = hashlib.sha256()
    h.update(f"graph:v{FORMAT_VERSION}:{alg_digest(alg)}:r={int(r)}".encode())
    return h.hexdigest()[:32]


def cdag_graph_key(cdag: "CDAG") -> str:
    """:func:`graph_key` of a built CDAG, cached on the instance."""
    key = cdag._graph_key
    if key is None:
        key = cdag._graph_key = graph_key(cdag.alg, cdag.r)
    return key


def schedule_key(gkey: str, name: str, version: str) -> str:
    """Content key of a named schedule bundle on graph ``gkey``."""
    blob = f"schedule:v{FORMAT_VERSION}:{gkey}:{name}:{version}"
    return hashlib.sha256(blob.encode()).hexdigest()[:32]


def plan_key(gkey: str, schedule_digest: str, executor_version: str) -> str:
    """Content key of a compiled-plan bundle: graph, schedule bytes and
    executor version (the ISSUE's ``(alg digest, r, schedule key,
    executor version)`` tuple — the first two live inside ``gkey``)."""
    blob = f"plan:v{FORMAT_VERSION}:{gkey}:{schedule_digest}:{executor_version}"
    return hashlib.sha256(blob.encode()).hexdigest()[:32]


# ----------------------------------------------------------------------
# Graph <-> flat arrays
# ----------------------------------------------------------------------


def graph_to_arrays(cdag: "CDAG") -> dict[str, np.ndarray]:
    """The CDAG's serialisable flat arrays (see GRAPH_ARRAY_NAMES)."""
    return {
        "pred_indptr": np.ascontiguousarray(cdag.pred_indptr, dtype=np.int64),
        "pred_indices": np.ascontiguousarray(cdag.pred_indices, dtype=np.int64),
        "succ_indptr": np.ascontiguousarray(cdag.succ_indptr, dtype=np.int64),
        "succ_indices": np.ascontiguousarray(cdag.succ_indices, dtype=np.int64),
        "is_copy": np.ascontiguousarray(cdag.is_copy, dtype=bool),
    }


def graph_from_arrays(
    alg: "BilinearAlgorithm", r: int, arrays: Mapping[str, np.ndarray]
) -> "CDAG":
    """Rebuild a CDAG from bundle arrays (slab tables recomputed from
    the deterministic layout; arrays are used as-is, so memmapped
    bundles stay file-backed)."""
    from repro.cdag.graph import CDAG, slab_layout

    slabs, n_vertices = slab_layout(alg.a, alg.b, int(r))
    pred_indptr = arrays["pred_indptr"]
    if len(pred_indptr) != n_vertices + 1:
        raise GraphCacheError(
            f"bundle vertex count {len(pred_indptr) - 1} disagrees with "
            f"G_{r} layout ({n_vertices} vertices)"
        )
    return CDAG(
        alg=alg,
        r=int(r),
        slabs=slabs,
        pred_indptr=pred_indptr,
        pred_indices=arrays["pred_indices"],
        is_copy=arrays["is_copy"],
        succ_indptr=arrays["succ_indptr"],
        succ_indices=arrays["succ_indices"],
    )


# ----------------------------------------------------------------------
# Bundle I/O
# ----------------------------------------------------------------------


def _file_sha256(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_bundle(
    final_dir: Path, arrays: Mapping[str, np.ndarray], meta: Mapping
) -> Path:
    """Atomically publish a bundle directory.

    Arrays are staged in a sibling ``.tmp-*`` directory with checksums
    recorded in ``meta.json``, then renamed into place.  If another
    process published the same content-keyed bundle first, theirs is
    kept and the staging directory is discarded.
    """
    final_dir = Path(final_dir)
    final_dir.parent.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=".tmp-", dir=final_dir.parent))
    try:
        entries: dict[str, dict] = {}
        for name, arr in arrays.items():
            arr = np.ascontiguousarray(arr)
            path = tmp / f"{name}.npy"
            np.save(path, arr)
            entries[name] = {
                "sha256": _file_sha256(path),
                "dtype": str(arr.dtype),
                "shape": list(arr.shape),
            }
        doc = dict(meta)
        doc["format"] = FORMAT_VERSION
        doc["arrays"] = entries
        (tmp / "meta.json").write_text(
            json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8"
        )
        try:
            os.replace(tmp, final_dir)
        except OSError:
            # Lost the publish race (the destination exists and is
            # non-empty): the other writer's content-identical bundle
            # wins.
            shutil.rmtree(tmp, ignore_errors=True)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    return final_dir


def read_bundle(
    path: Path,
    expected_names: tuple[str, ...],
    mmap: bool = True,
    verify: bool = True,
) -> tuple[dict[str, np.ndarray], dict]:
    """Open a bundle directory; returns ``(arrays, meta)``.

    Raises :class:`~repro.errors.GraphCacheError` on *any* defect —
    missing/undecodable meta, unknown format, missing arrays, checksum
    mismatch, or dtype/shape disagreement — so callers have a single
    quarantine trigger.
    """
    path = Path(path)
    try:
        meta = json.loads((path / "meta.json").read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise GraphCacheError(f"bundle {path.name}: unreadable meta ({exc})") from exc
    if not isinstance(meta, dict) or meta.get("format") != FORMAT_VERSION:
        raise GraphCacheError(
            f"bundle {path.name}: format {meta.get('format')!r} "
            f"!= {FORMAT_VERSION}"
        )
    entries = meta.get("arrays")
    if not isinstance(entries, dict) or set(entries) != set(expected_names):
        raise GraphCacheError(
            f"bundle {path.name}: arrays {sorted(entries or ())} != "
            f"{sorted(expected_names)}"
        )
    arrays: dict[str, np.ndarray] = {}
    for name in expected_names:
        entry = entries[name]
        file = path / f"{name}.npy"
        try:
            if verify and _file_sha256(file) != entry.get("sha256"):
                raise GraphCacheError(f"bundle {path.name}: {name} checksum mismatch")
            arr = np.load(file, mmap_mode="r" if mmap else None)
        except GraphCacheError:
            raise
        except Exception as exc:  # OSError, ValueError (bad .npy header) ...
            raise GraphCacheError(
                f"bundle {path.name}: cannot load {name} ({exc})"
            ) from exc
        if str(arr.dtype) != entry.get("dtype") or list(arr.shape) != entry.get(
            "shape"
        ):
            raise GraphCacheError(
                f"bundle {path.name}: {name} is {arr.dtype}{arr.shape}, "
                f"meta says {entry.get('dtype')}{tuple(entry.get('shape', ()))}"
            )
        arrays[name] = arr
    return arrays, meta


# ----------------------------------------------------------------------
# Active cache (process-global hook consulted by build_cdag, the
# schedule generators and the executor's plan compiler)
# ----------------------------------------------------------------------

_active_cache = None
_env_checked = False


def active_cache():
    """The process's active :class:`~repro.runner.graphcache.GraphCache`
    or None.  On first call, bootstraps from ``REPRO_GRAPH_CACHE`` if
    set — this is how sweep workers (fresh processes) inherit the
    parent's cache without threading a handle through every call."""
    global _env_checked
    if _active_cache is None and not _env_checked:
        _env_checked = True
        root = os.environ.get(ENV_VAR)
        if root:
            try:
                from repro.runner.graphcache import activate

                activate(root)
            except Exception:
                # A bad env var must never break graph building.
                pass
    return _active_cache


def set_active_cache(cache):
    """Install ``cache`` as the process-global graph cache; returns the
    previous one (for save/restore in tests and benchmarks)."""
    global _active_cache
    previous = _active_cache
    _active_cache = cache
    return previous


def reset_active_cache() -> None:
    """Clear the active cache *and* the env-bootstrap memo (tests)."""
    global _active_cache, _env_checked
    _active_cache = None
    _env_checked = False
