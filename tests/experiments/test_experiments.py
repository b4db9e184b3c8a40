"""Integration tests: every experiment reproduces its paper claims.

These are the end-to-end checks — each experiment's ``checks`` dict is
the machine-verdict on the corresponding paper statement (see DESIGN.md
section 3 for the experiment <-> paper map).
"""

import pytest

from repro.experiments import ExperimentResult, get_experiment, list_experiments

ALL_IDS = [f"E{i}" for i in range(1, 16)]


class TestRegistry:
    def test_all_registered(self):
        assert list_experiments() == sorted(ALL_IDS)

    def test_unknown_raises(self):
        with pytest.raises(KeyError):
            get_experiment("E99")


@pytest.fixture(scope="module")
def default_results():
    """One default-parameter run per experiment id, shared by every
    reproduction test in this module (E9 alone takes ~30 s)."""
    cache: dict[str, ExperimentResult] = {}

    def get(experiment_id: str) -> ExperimentResult:
        if experiment_id not in cache:
            cache[experiment_id] = get_experiment(experiment_id)()
        return cache[experiment_id]

    return get


@pytest.mark.parametrize("experiment_id", ALL_IDS)
class TestReproduction:
    def test_all_checks_pass(self, experiment_id, default_results):
        result = default_results(experiment_id)
        failed = [name for name, ok in result.checks.items() if not ok]
        assert not failed, f"{experiment_id} failed checks: {failed}"

    def test_result_structure(self, experiment_id, default_results):
        result = default_results(experiment_id)
        assert isinstance(result, ExperimentResult)
        assert result.experiment_id == experiment_id
        assert result.tables, "every experiment reports at least one table"
        assert result.checks, "every experiment verifies at least one claim"
        rendered = result.render()
        assert experiment_id in rendered
        assert "FAIL" not in rendered


class TestParameterisation:
    def test_e2_custom_depth(self):
        assert get_experiment("E2")(r=2).all_checks_pass

    def test_e3_small_k(self):
        assert get_experiment("E3")(k_max=2).all_checks_pass

    def test_e4_k1_only(self):
        assert get_experiment("E4")(k_max=1).all_checks_pass

    def test_e9_small(self):
        assert get_experiment("E9")(
            r_max=3, cache_sizes=(12, 48), r_big=None
        ).all_checks_pass

    def test_e11_small_n(self):
        assert get_experiment("E11")(n=2**8).all_checks_pass

    def test_e15_tiny_budget(self):
        # Even a tiny budget must not regress the start; the
        # beats-fixed-family check needs the default budget, so only the
        # structural checks are asserted here.
        result = get_experiment("E15")(budget=8, generation=4, seed=3)
        assert result.checks["search never regresses the start order"]
        assert result.checks["measured I/O stays above the Theorem-1 bound"]
        assert result.data["trajectory"]
