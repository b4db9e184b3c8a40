"""Job specs: grid expansion, canonical hashing, seed correctness."""

import pytest

from repro.runner.jobs import (
    JobSpec,
    accepts_seed,
    canonical_params,
    expand_grid,
    experiment_accepts_seed,
    job_key,
    resolve_entrypoint,
)


class TestCanonicalisation:
    def test_tuples_and_lists_hash_identically(self):
        a = JobSpec("E9", {"cache_sizes": (12, 24)})
        b = JobSpec("E9", {"cache_sizes": [12, 24]})
        assert a.cache_key == b.cache_key
        assert a == b

    def test_key_order_is_irrelevant(self):
        a = JobSpec("E8", {"r": 3, "k": 1})
        b = JobSpec("E8", {"k": 1, "r": 3})
        assert a.cache_key == b.cache_key

    def test_numpy_scalars_reduce_to_python(self):
        np = pytest.importorskip("numpy")
        a = JobSpec("E2", {"r": np.int64(3)})
        b = JobSpec("E2", {"r": 3})
        assert a.cache_key == b.cache_key

    def test_unserialisable_param_is_a_type_error(self):
        with pytest.raises(TypeError):
            canonical_params({"bad": object()})


class TestKeys:
    def test_same_description_same_key(self):
        assert (
            JobSpec("E9", {"r_max": 4}).cache_key
            == JobSpec("E9", {"r_max": 4}).cache_key
        )

    def test_changed_param_changes_key(self):
        assert (
            JobSpec("E9", {"r_max": 4}).cache_key
            != JobSpec("E9", {"r_max": 5}).cache_key
        )

    def test_different_experiment_changes_key(self):
        assert JobSpec("E1").cache_key != JobSpec("E2").cache_key

    def test_seed_is_part_of_the_key(self):
        base = JobSpec("E8", seed=1)
        assert base.cache_key != JobSpec("E8", seed=2).cache_key
        assert base.cache_key != JobSpec("E8").cache_key
        assert base.cache_key == JobSpec("E8", seed=1).cache_key

    def test_version_invalidates_key(self):
        spec = JobSpec("E1")
        assert job_key(spec, version="1.0.0") != job_key(spec, version="1.0.1")

    def test_entrypoint_changes_key(self):
        assert (
            JobSpec("X", entrypoint="tests.runner.helpers:ok_job").cache_key
            != JobSpec("X", entrypoint="tests.runner.helpers:error_job").cache_key
        )

    def test_specs_are_hashable_and_setable(self):
        specs = {
            JobSpec("E9", {"r_max": 4}),
            JobSpec("E9", {"r_max": 4}),
            JobSpec("E9", {"r_max": 5}),
        }
        assert len(specs) == 2


class TestExpansion:
    def test_grid_is_cartesian(self):
        specs = expand_grid("E9", {"r_max": [3, 4], "cache_sizes": [[12], [24]]})
        assert len(specs) == 4
        assert len({s.cache_key for s in specs}) == 4

    def test_empty_grid_is_one_default_job(self):
        (spec,) = expand_grid("E1")
        assert spec.experiment_id == "E1"
        assert spec.params == {}

    def test_seeds_fan_out(self):
        specs = expand_grid("E8", {"r": [3]}, seeds=[1, 2, 3])
        assert len(specs) == 3
        assert sorted(s.seed for s in specs) == [1, 2, 3]


class TestSeedIntrospection:
    def test_e8_and_e13_accept_seeds(self):
        assert experiment_accepts_seed("E8")
        assert experiment_accepts_seed("E13")

    def test_e1_does_not(self):
        assert not experiment_accepts_seed("E1")

    def test_accepts_seed_on_plain_functions(self):
        assert accepts_seed(lambda seed=None: seed)
        assert accepts_seed(lambda **kw: kw)
        assert not accepts_seed(lambda x: x)


class TestEntrypoints:
    def test_resolves_module_colon_callable(self):
        fn = resolve_entrypoint("tests.runner.helpers:ok_job")
        assert fn().data["squared"] == 1

    def test_registry_fallback(self):
        fn = resolve_entrypoint(JobSpec("E1"))
        assert callable(fn)

    def test_malformed_entrypoint(self):
        with pytest.raises(ValueError):
            resolve_entrypoint("no-colon-here")
