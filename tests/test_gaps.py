"""Second-pass tests for gaps found by coverage review.

Highlights: the Fact-1 isomorphism transports verified routings from a
standalone ``G_k`` into any subcomputation copy inside ``G_r`` — the
step the Section-6 argument performs implicitly when it "fixes a
routing in each input-disjoint G_k^i".
"""

import numpy as np
import pytest

from repro.bilinear import strassen, winograd
from repro.cdag import (
    build_cdag,
    subcomputation,
    subcomputation_count,
)
from repro.errors import RoutingError
from repro.routing import (
    Routing,
    theorem2_routing,
    verify_path,
    verify_routing,
)


class TestRoutingTransport:
    """Map a standalone G_k routing into G_r via the Fact-1 isomorphism."""

    @pytest.fixture(scope="class")
    def transported(self):
        alg = strassen()
        g_r = build_cdag(alg, 3)
        g_k = build_cdag(alg, 1)
        routing_k = theorem2_routing(g_k)
        sub = subcomputation(g_r, 1, 17)
        mapped = Routing(g_r, label="transported")
        for path, (src, dst) in zip(routing_k.paths, routing_k.endpoints):
            mapped.add(
                [sub.global_id(int(v)) for v in path],
                source=sub.global_id(src),
                target=sub.global_id(dst),
            )
        return g_r, sub, routing_k, mapped

    def test_paths_valid_in_big_graph(self, transported):
        g_r, _, _, mapped = transported
        for path in mapped.paths:
            verify_path(g_r, np.asarray(path))

    def test_endpoints_are_copy_io(self, transported):
        g_r, sub, _, mapped = transported
        inputs = set(sub.inputs().tolist())
        outputs = set(sub.outputs().tolist())
        for src, dst in mapped.endpoints:
            assert src in inputs
            assert dst in outputs

    def test_hit_counts_preserved(self, transported):
        """The isomorphism preserves the routing's m exactly."""
        _, _, routing_k, mapped = transported
        assert mapped.max_vertex_hits() == routing_k.max_vertex_hits()

    def test_global_local_roundtrip(self, transported):
        g_r, sub, _, _ = transported
        for v in sub.all_vertices().tolist():
            assert sub.global_id(sub.local_id(v)) == v

    def test_disjoint_copies_disjoint_routings(self):
        """Routings transported into two different copies never share a
        vertex — the 'vertex-disjoint copies' clause of Fact 1 in
        action."""
        alg = strassen()
        g_r = build_cdag(alg, 2)
        g_k = build_cdag(alg, 1)
        routing_k = theorem2_routing(g_k)
        used = []
        for idx in (0, 3):
            sub = subcomputation(g_r, 1, idx)
            vertices = set()
            for path in routing_k.paths:
                vertices.update(sub.global_id(int(v)) for v in path)
            used.append(vertices)
        assert not (used[0] & used[1])


def _one_broken_path(g1):
    r = Routing(g1)
    ins = g1.inputs()
    r.paths.append(np.array([int(ins[0]), int(ins[1])]))
    r.endpoints.append((int(ins[0]), int(ins[1])))
    return r


def _broken_last_step_of_middle_path(g1):
    """Only the last step breaks: the path's final piece climbs one
    rank per step, so two ranks below the output is not adjacent to
    it, and the steps before stay valid."""
    r = theorem2_routing(g1)
    mid = len(r) // 2
    path = r.paths[mid].copy()
    path[-2] = path[-4]
    verify_path(g1, path[:-1])
    with pytest.raises(RoutingError):
        verify_path(g1, path[-2:])
    r.paths[mid] = path
    return r


def _empty_path(g1):
    r = theorem2_routing(g1)
    r.paths.append(np.array([], dtype=np.int64))
    r.endpoints.append(r.endpoints[0])
    return r


class TestVerifyRoutingNegatives:
    @pytest.fixture(scope="class")
    def g1(self):
        return build_cdag(strassen(), 1)

    def test_rejects_wrong_endpoint_declaration(self, g1):
        r = Routing(g1)
        v = int(g1.products()[0])
        p = int(g1.predecessors(v)[0])
        r.add([p, v], source=v, target=p)  # declared backwards
        with pytest.raises(RoutingError):
            verify_routing(g1, r, 100)

    @pytest.mark.parametrize(
        "make",
        [_one_broken_path, _broken_last_step_of_middle_path, _empty_path],
        ids=["one_path", "middle_path_last_step", "empty_path"],
    )
    def test_rejects_broken_path(self, g1, make):
        r = make(g1)
        with pytest.raises(RoutingError):
            verify_routing(g1, r, 100)

    @pytest.mark.parametrize("case", ["single_vertex_path", "step_key_collision"])
    def test_rejects_vertex_outside_the_cdag(self, g1, case):
        """An id past the last vertex is rejected even where no step
        check sees it: alone on its path, or as the tail of a step whose
        key ``u * n + n`` equals the key of a real edge ``(u + 1, 0)``."""
        n = g1.n_vertices
        if case == "single_vertex_path":
            path = [n]
        else:
            path = [int(g1.successors(0)[0]) - 1, n]
        r = Routing(g1)
        r.add(path)
        with pytest.raises(RoutingError):
            verify_routing(g1, r, 100)

    def test_rejects_exceeded_bound(self, g1):
        r = theorem2_routing(g1)
        with pytest.raises(RoutingError):
            verify_routing(g1, r, 1)

    def test_rejects_missing_pairs(self, g1):
        r = theorem2_routing(g1)
        r.paths.pop()
        r.endpoints.pop()
        expected = {
            (int(v), int(w)) for v in g1.inputs() for w in g1.outputs()
        }
        with pytest.raises(RoutingError):
            verify_routing(g1, r, 1000, expected_pairs=expected)

    def test_report_slack(self, g1):
        report = verify_routing(g1, theorem2_routing(g1), 1000)
        assert report.slack == 1000 / report.max_vertex_hits


class TestSubcomputationCounts:
    def test_all_copies_have_equal_size(self):
        g = build_cdag(winograd(), 3)
        sizes = {
            len(subcomputation(g, 1, i).all_vertices())
            for i in range(subcomputation_count(g, 1))
        }
        assert len(sizes) == 1

    def test_copy_vertex_count_formula(self):
        """|G_k| = 2 * sum(b^i a^(k-i)) + sum(b^(k-j) a^j)."""
        alg = strassen()
        g = build_cdag(alg, 3)
        k = 1
        expected = (
            2 * sum(alg.b**i * alg.a ** (k - i) for i in range(k + 1))
            + sum(alg.b ** (k - j) * alg.a**j for j in range(k + 1))
        )
        assert len(subcomputation(g, k, 0).all_vertices()) == expected


class TestRenderAllCatalog:
    def test_dot_for_every_base_graph(self):
        from repro.bilinear import list_catalog
        from repro.cdag import build_base_graph, to_dot

        for alg in list_catalog():
            dot = to_dot(build_base_graph(alg))
            assert dot.startswith("digraph")
            assert dot.endswith("}")


class TestCapsStrategiesOrdering:
    def test_dfs_first_never_cheaper(self):
        """Communication ordering across strategies whenever all are
        feasible: bfs-first <= auto <= dfs-first."""
        from repro.parallel import DistributedMachine, simulate_caps

        alg = strassen()
        n, P, M = 2**8, 49, 10**9
        machine = DistributedMachine(P, M)
        bfs = simulate_caps(alg, n, machine, "bfs-first").bandwidth_cost
        auto = simulate_caps(alg, n, machine, "auto").bandwidth_cost
        dfs = simulate_caps(alg, n, machine, "dfs-first").bandwidth_cost
        assert bfs <= auto <= dfs

    def test_dfs_first_lowest_memory(self):
        from repro.parallel import DistributedMachine, simulate_caps

        alg = strassen()
        n, P, M = 2**8, 49, 10**9
        machine = DistributedMachine(P, M)
        bfs = simulate_caps(alg, n, machine, "bfs-first")
        dfs = simulate_caps(alg, n, machine, "dfs-first")
        assert dfs.peak_memory_per_processor <= bfs.peak_memory_per_processor


class TestExperimentRenderFailPath:
    def test_failed_check_renders_fail(self):
        from repro.experiments import ExperimentResult
        from repro.utils.tables import TextTable

        result = ExperimentResult(
            experiment_id="EX",
            title="t",
            tables=[TextTable(["a"])],
            checks={"bad": False},
        )
        assert not result.all_checks_pass
        assert "[FAIL] bad" in result.render()
