"""Declarative job specifications and content hashing.

A :class:`JobSpec` names one unit of work: an experiment id (or an
explicit ``module:callable`` entrypoint), keyword parameters, and an
optional explicit seed for RNG-dependent experiments.  Specs are
*hashable* and carry a stable content key — the SHA-256 of their
canonical JSON description plus the package version — which the result
store uses for cache addressing.  The contract:

- same experiment + same canonical params + same seed  → same key
  (cache hit);
- any changed parameter, a new seed, or a new package version → a new
  key (cache miss, recompute).

Tuples and lists canonicalise identically (experiment defaults use
tuples, CLI grids produce lists); numpy scalars canonicalise to their
Python values.
"""

from __future__ import annotations

import hashlib
import inspect
import json
from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Iterable, Mapping, Sequence

__all__ = [
    "JobSpec",
    "job_key",
    "canonical_params",
    "expand_grid",
    "resolve_entrypoint",
    "experiment_accepts_seed",
]


def _canonical(value):
    """Reduce ``value`` to JSON-native types with a stable shape."""
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        return value
    if isinstance(value, Mapping):
        return {str(k): _canonical(value[k]) for k in sorted(value, key=str)}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    # numpy scalars (and anything scalar-like) reduce to Python values.
    if hasattr(value, "item") and not hasattr(value, "__len__"):
        return _canonical(value.item())
    raise TypeError(
        f"job parameter of type {type(value).__name__!r} is not "
        f"JSON-canonicalisable: {value!r}"
    )


def canonical_params(params: Mapping[str, object]) -> dict:
    """Canonical (sorted, JSON-native) form of a parameter mapping."""
    return _canonical(dict(params))


@dataclass(frozen=True, eq=False)
class JobSpec:
    """One unit of sweep work.

    Parameters
    ----------
    experiment_id:
        Registry id (e.g. ``"E9"``) resolved through
        :func:`repro.experiments.get_experiment`, unless ``entrypoint``
        overrides it.
    params:
        Keyword arguments for the experiment's ``run``.
    seed:
        Explicit seed, passed as ``seed=`` to the run function (which
        must accept it) and folded into the content key, so RNG-dependent
        experiments are cache-correct: same seed → cache hit, new seed
        → new job.
    entrypoint:
        Optional ``"package.module:callable"`` override of the registry
        lookup (used by tests and custom sweeps).
    """

    experiment_id: str
    params: Mapping[str, object] = field(default_factory=dict)
    seed: int | None = None
    entrypoint: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "params", dict(self.params))

    def describe(self) -> dict:
        """Canonical JSON-native description (what gets hashed)."""
        return {
            "experiment": self.experiment_id,
            "params": canonical_params(self.params),
            "seed": self.seed,
            "entrypoint": self.entrypoint,
        }

    @property
    def cache_key(self) -> str:
        return job_key(self)

    @property
    def label(self) -> str:
        """Short human-readable name for the sweep report and spans."""
        bits = [f"{k}={v}" for k, v in sorted(self.params.items())]
        if self.seed is not None:
            bits.append(f"seed={self.seed}")
        suffix = f"[{','.join(bits)}]" if bits else ""
        return f"{self.experiment_id}{suffix}"

    def __eq__(self, other) -> bool:
        if not isinstance(other, JobSpec):
            return NotImplemented
        return self.describe() == other.describe()

    def __hash__(self) -> int:
        return hash(self.cache_key)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"JobSpec({self.label!r})"


def job_key(spec: JobSpec, version: str | None = None) -> str:
    """Stable content key of a job: SHA-256 over the canonical
    description plus the package version (so upgrading the code
    invalidates cached artifacts)."""
    if version is None:
        from repro._version import __version__ as version
    doc = dict(spec.describe(), version=version)
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def expand_grid(
    experiment_id: str,
    grid: Mapping[str, Iterable] | None = None,
    seeds: Sequence[int] | None = None,
) -> list[JobSpec]:
    """Expand a parameter grid into job specs (cartesian product).

    ``grid`` maps parameter names to iterables of values; ``seeds``
    additionally fans every grid point over explicit seeds.

    >>> [s.label for s in expand_grid("E9", {"r_max": [3, 4]})]
    ['E9[r_max=3]', 'E9[r_max=4]']
    """
    grid = dict(grid or {})
    names = sorted(grid)
    axes = [list(grid[name]) for name in names]
    specs = []
    for values in product(*axes) if axes else [()]:
        params = dict(zip(names, values))
        if seeds is None:
            specs.append(JobSpec(experiment_id, params))
        else:
            specs.extend(
                JobSpec(experiment_id, params, seed=int(s)) for s in seeds
            )
    return specs


def resolve_entrypoint(spec_or_entrypoint) -> Callable:
    """Resolve a spec (or a raw ``module:callable`` string) to the
    callable that executes the job."""
    if isinstance(spec_or_entrypoint, JobSpec):
        if spec_or_entrypoint.entrypoint is None:
            from repro.experiments import get_experiment

            return get_experiment(spec_or_entrypoint.experiment_id)
        spec_or_entrypoint = spec_or_entrypoint.entrypoint
    module_name, _, attr = spec_or_entrypoint.partition(":")
    if not module_name or not attr:
        raise ValueError(
            f"entrypoint must look like 'package.module:callable', "
            f"got {spec_or_entrypoint!r}"
        )
    import importlib

    fn = importlib.import_module(module_name)
    for part in attr.split("."):
        fn = getattr(fn, part)
    if not callable(fn):
        raise TypeError(f"entrypoint {spec_or_entrypoint!r} is not callable")
    return fn


def accepts_seed(fn: Callable) -> bool:
    """True when ``fn`` takes an explicit ``seed`` keyword (or
    ``**kwargs``)."""
    try:
        sig = inspect.signature(fn)
    except (TypeError, ValueError):  # builtins etc.
        return False
    for param in sig.parameters.values():
        if param.kind is inspect.Parameter.VAR_KEYWORD:
            return True
        if param.name == "seed" and param.kind in (
            inspect.Parameter.POSITIONAL_OR_KEYWORD,
            inspect.Parameter.KEYWORD_ONLY,
        ):
            return True
    return False


def experiment_accepts_seed(experiment_id: str) -> bool:
    """True when the registered experiment's run takes a ``seed``."""
    from repro.experiments import get_experiment

    return accepts_seed(get_experiment(experiment_id))
