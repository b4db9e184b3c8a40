"""Content-addressed on-disk result store.

Artifacts live at ``<root>/<experiment_id>/<cache_key>.json`` and hold
the full serialised :class:`ExperimentResult` plus the job description
that produced it.  Properties the sweep machinery relies on:

- **deterministic bytes** — artifacts are canonical JSON
  (``sort_keys``, fixed separators, trailing newline) containing no
  wall-clock or host metadata, so re-running an identical sweep yields
  byte-identical files;
- **atomic writes** — written to a temp file in the same directory and
  ``os.replace``-d into place, so an interrupted sweep never leaves a
  truncated artifact and a rerun can trust whatever it finds;
- **self-describing** — each artifact embeds its key, params, seed and
  package version; a corrupt or mismatched file reads as a cache miss,
  never an error;
- **checksummed** — the artifact carries the SHA-256 of its canonical
  result payload; :meth:`ResultStore.get` verifies it and treats any
  mismatch (bit rot, torn writes that survived ``os.replace``, manual
  edits) as a miss, moving the bad file to ``<root>/corrupt/`` for
  post-mortem instead of silently re-serving it;
- **strict JSON** — serialised with ``allow_nan=False``; non-finite
  floats are reduced to the sentinel strings ``"NaN"`` /
  ``"Infinity"`` / ``"-Infinity"`` first, so artifacts stay valid for
  strict parsers instead of round-tripping only within Python.

``<root>/corrupt/`` is reserved for quarantined files and dot-prefixed
``.tmp-*`` files are in-flight writes; neither is counted or yielded by
the artifact iteration API, and :meth:`gc_orphans` removes temp files a
killed process left behind.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import tempfile
from pathlib import Path
from typing import Iterator, Mapping

try:  # advisory cross-process locking; absent off-POSIX (lock is a no-op)
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX
    fcntl = None

from repro import telemetry
from repro.experiments.harness import ExperimentResult
from repro.runner.jobs import JobSpec, canonical_params
from repro.utils.tables import TextTable

__all__ = [
    "SCHEMA_VERSION",
    "ResultStore",
    "payload_checksum",
    "result_to_payload",
    "payload_to_result",
]

#: Bump when the artifact layout changes; old artifacts then read as
#: cache misses rather than decoding errors.  2: added the ``sha256``
#: payload checksum and non-finite float sentinels.
SCHEMA_VERSION = 2

#: Directory (under the store root) holding quarantined artifacts.
QUARANTINE_DIR = "corrupt"

#: Root-level advisory lock file serialising mutations (publication,
#: quarantine, temp-file GC) across processes — two ``repro sweep`` runs
#: (or a sweep and a ``repro tune``) can share one cache directory
#: without racing.
LOCK_FILE = ".lock"


def _jsonify(value):
    """Best-effort reduction of result payloads to JSON-native types
    (numpy scalars -> Python scalars, tuples -> lists, keys -> str,
    non-finite floats -> sentinel strings)."""
    if isinstance(value, float):
        if math.isfinite(value):
            return value
        if math.isnan(value):
            return "NaN"
        return "Infinity" if value > 0 else "-Infinity"
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, Mapping):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = sorted(value, key=repr) if isinstance(value, (set, frozenset)) else value
        return [_jsonify(v) for v in items]
    if hasattr(value, "item") and not hasattr(value, "__len__"):
        return _jsonify(value.item())
    if hasattr(value, "tolist"):
        return _jsonify(value.tolist())
    return repr(value)


def payload_checksum(result_payload) -> str:
    """SHA-256 over the canonical JSON form of a result payload.

    Computed over the same bytes regardless of how the artifact is
    formatted on disk, so it survives re-indenting but catches any
    change to the payload's *content*.
    """
    blob = json.dumps(
        result_payload, sort_keys=True, separators=(",", ":"), allow_nan=False
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def result_to_payload(result: ExperimentResult) -> dict:
    """Serialise an :class:`ExperimentResult` to a JSON-native dict."""
    return {
        "experiment_id": result.experiment_id,
        "title": result.title,
        "tables": [
            {"title": t.title, "headers": list(t.headers), "rows": [list(r) for r in t.rows]}
            for t in result.tables
        ],
        "checks": {str(k): bool(v) for k, v in result.checks.items()},
        "data": _jsonify(result.data),
    }


def payload_to_result(payload: Mapping) -> ExperimentResult:
    """Rebuild an :class:`ExperimentResult` from a stored payload.

    Table rows were rendered to aligned strings at serialisation time,
    so ``render()`` of the rebuilt result matches the original exactly.
    """
    tables = []
    for doc in payload.get("tables", ()):
        table = TextTable(doc["headers"], title=doc.get("title"))
        table.rows = [list(row) for row in doc["rows"]]
        tables.append(table)
    return ExperimentResult(
        experiment_id=payload["experiment_id"],
        title=payload.get("title", payload["experiment_id"]),
        tables=tables,
        checks=dict(payload.get("checks", {})),
        data=dict(payload.get("data", {})),
    )


class ResultStore:
    """Content-addressed JSON artifact store rooted at ``root``."""

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def path_for(self, spec: JobSpec) -> Path:
        return self.root / spec.experiment_id / f"{spec.cache_key}.json"

    @contextlib.contextmanager
    def _lock(self):
        """Hold the store's advisory ``flock`` (exclusive).

        ``flock`` is released by the kernel when the holder dies, so a
        SIGKILL mid-mutation can never deadlock the store — the next
        writer just sees whatever atomic state the victim left behind.
        No-op where ``fcntl`` is unavailable.
        """
        if fcntl is None:  # pragma: no cover - non-POSIX
            yield
            return
        fd = os.open(self.root / LOCK_FILE, os.O_RDWR | os.O_CREAT, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            yield
        finally:
            os.close(fd)  # closing the fd drops the lock

    @property
    def quarantine_root(self) -> Path:
        return self.root / QUARANTINE_DIR

    def has(self, spec: JobSpec) -> bool:
        return self.path_for(spec).is_file()

    def get(self, spec: JobSpec) -> dict | None:
        """The stored artifact for ``spec``, or None (a miss) when the
        artifact is absent, unreadable, keyed differently, or fails
        checksum verification (the corrupt file is quarantined)."""
        path = self.path_for(spec)
        try:
            with path.open("r", encoding="utf-8") as fh:
                raw = fh.read()
        except OSError:
            return None
        try:
            artifact = json.loads(raw)
        except json.JSONDecodeError:
            # A *complete-but-undecodable* file is corruption, not a
            # plain miss: quarantine it so it is never re-read and the
            # evidence survives for post-mortem.
            self.quarantine(path, "undecodable", spec=spec)
            return None
        if (
            not isinstance(artifact, dict)
            or artifact.get("schema") != SCHEMA_VERSION
            or artifact.get("key") != spec.cache_key
        ):
            return None
        if artifact.get("sha256") != payload_checksum(artifact.get("result")):
            self.quarantine(path, "checksum", spec=spec)
            return None
        return artifact

    def _verifies(self, path: Path, spec: JobSpec) -> bool:
        """True when the file at ``path`` is a well-formed, checksummed
        artifact for ``spec`` (used under the lock to re-check before
        quarantining)."""
        try:
            with path.open("r", encoding="utf-8") as fh:
                artifact = json.load(fh)
        except (OSError, json.JSONDecodeError):
            return False
        return (
            isinstance(artifact, dict)
            and artifact.get("schema") == SCHEMA_VERSION
            and artifact.get("key") == spec.cache_key
            and artifact.get("sha256") == payload_checksum(artifact.get("result"))
        )

    def quarantine(
        self, path: Path, reason: str, spec: JobSpec | None = None
    ) -> Path | None:
        """Move a corrupt artifact under ``<root>/corrupt/`` (never
        raises; falls back to deletion, then to leaving it in place).
        Returns the quarantined path, or None if the move failed.

        When ``spec`` is given the file is re-verified *under the store
        lock* first: between the caller's bad read and this call a
        concurrent writer may have replaced the file with a good
        artifact, and quarantining that would throw away fresh work.
        """
        with self._lock():
            if spec is not None and self._verifies(path, spec):
                return None  # healed by a concurrent publisher
            dest = None
            try:
                self.quarantine_root.mkdir(parents=True, exist_ok=True)
                dest = self.quarantine_root / path.name
                n = 0
                while dest.exists():
                    n += 1
                    dest = self.quarantine_root / f"{path.stem}.{n}{path.suffix}"
                os.replace(path, dest)
            except OSError:
                dest = None
                try:
                    path.unlink()
                except OSError:
                    pass
        telemetry.metrics().inc(f"store.quarantined.{reason}")
        return dest

    def put(self, spec: JobSpec, result_payload: Mapping) -> Path:
        """Atomically write the artifact for ``spec``; returns its path."""
        from repro._version import __version__

        result = _jsonify(result_payload)
        artifact = {
            "schema": SCHEMA_VERSION,
            "key": spec.cache_key,
            "experiment_id": spec.experiment_id,
            "params": _jsonify(canonical_params(spec.params)),
            "seed": spec.seed,
            "entrypoint": spec.entrypoint,
            "version": __version__,
            "sha256": payload_checksum(result),
            "result": result,
        }
        blob = json.dumps(artifact, sort_keys=True, indent=2, allow_nan=False) + "\n"
        path = self.path_for(spec)
        path.parent.mkdir(parents=True, exist_ok=True)
        # The lock covers mkstemp through replace: a concurrent
        # ``gc_orphans`` can never mistake this in-flight temp file for
        # an orphan, and concurrent publishers of one key serialise
        # (last replace wins; both wrote identical canonical bytes).
        with self._lock():
            fd, tmp = tempfile.mkstemp(
                dir=path.parent, prefix=".tmp-", suffix=".json"
            )
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as fh:
                    fh.write(blob)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        return path

    def discard(self, spec: JobSpec) -> bool:
        """Remove the artifact for ``spec``; True when one existed."""
        try:
            self.path_for(spec).unlink()
            return True
        except OSError:
            return False

    def _artifact_paths(self) -> Iterator[Path]:
        """Paths of real artifacts: skips in-flight/orphaned ``.tmp-*``
        files and the quarantine directory."""
        for path in sorted(self.root.glob("*/*.json")):
            if path.parent.name == QUARANTINE_DIR or path.name.startswith("."):
                continue
            yield path

    def iter_artifacts(self) -> Iterator[dict]:
        """Yield every decodable artifact under the root."""
        for path in self._artifact_paths():
            try:
                with path.open("r", encoding="utf-8") as fh:
                    artifact = json.load(fh)
            except (OSError, json.JSONDecodeError):
                continue
            if isinstance(artifact, dict) and artifact.get("schema") == SCHEMA_VERSION:
                yield artifact

    def __len__(self) -> int:
        return sum(1 for _ in self._artifact_paths())

    def gc_orphans(self) -> list[Path]:
        """Remove ``.tmp-*.json`` files a killed process left behind.

        Atomic writes go through a same-directory temp file; a SIGKILL
        between ``mkstemp`` and ``os.replace`` orphans it.  Runs under
        the store lock, so a *live* writer's in-flight temp file (one
        sweep publishing while another starts up) is never
        collected — only files whose writer is past ``os.replace`` or
        dead remain visible once the lock is held.  Returns the removed
        paths.
        """
        removed = []
        with self._lock():
            for path in sorted(self.root.glob("*/.tmp-*.json")):
                try:
                    path.unlink()
                except OSError:
                    continue
                removed.append(path)
        if removed:
            telemetry.metrics().inc("store.orphans_removed", len(removed))
        return removed

    def clear(self) -> int:
        """Delete all artifacts; returns how many were removed."""
        n = 0
        for path in list(self._artifact_paths()):
            try:
                path.unlink()
                n += 1
            except OSError:
                pass
        return n
