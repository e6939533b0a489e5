"""Tests for the ablation harnesses (A1-A8).

Each ``test_render`` prints the rows through ``benchmarks/numbers.py``'s one
table printer, the way ``make numbers`` shows them.
"""

import pytest

from benchmarks.numbers import _show
from repro.experiments.ablations import (
    random_borders,
    run_border_ablation,
    run_dimension_ablation,
    run_inconsistency_ablation,
    run_mesh_information_ablation,
    run_method_ablation,
)
from repro.experiments.environments import EnvironmentSpec
from repro.util.rng import ensure_rng

TINY = EnvironmentSpec(physical_nodes=150, landmarks=10, proxies=40, clients=10)


class TestDimensionAblation:
    @pytest.fixture(scope="class")
    def rows(self):
        return run_dimension_ablation(
            dimensions=(2, 5), requests=20, spec=TINY, seed=1
        )

    def test_row_per_dimension(self, rows):
        assert [r.dimension for r in rows] == [2, 5]

    def test_higher_dimension_more_accurate(self, rows):
        assert rows[1].median_rel_error <= rows[0].median_rel_error + 0.05

    def test_values_sane(self, rows):
        for row in rows:
            assert 0 <= row.median_rel_error < 1.5
            assert row.cluster_count >= 1
            assert row.hfc_mean_delay > 0

    def test_render(self, rows, capsys):
        _show("A1", rows)
        assert "median_rel_error" in capsys.readouterr().out


class TestInconsistencyAblation:
    @pytest.fixture(scope="class")
    def rows(self):
        return run_inconsistency_ablation(
            factors=(1.5, 3.0), requests=20, spec=TINY, seed=2
        )

    def test_lower_factor_no_fewer_clusters(self, rows):
        assert rows[0].cluster_count >= rows[1].cluster_count

    def test_overheads_positive(self, rows):
        for row in rows:
            assert row.coord_overhead > 0
            assert row.service_overhead > 0
            assert 0 < row.largest_fraction <= 1

    def test_render(self, rows, capsys):
        _show("A2", rows)
        assert "largest_fraction" in capsys.readouterr().out


class TestBorderAblation:
    @pytest.fixture(scope="class")
    def rows(self):
        return run_border_ablation(requests=25, spec=TINY, seed=3)

    def test_both_rules_present(self, rows):
        assert {r.rule for r in rows} == {"closest", "random"}

    def test_closest_rule_not_worse(self, rows):
        by_rule = {r.rule: r for r in rows}
        # the paper's geometric argument: closest-pair borders route better
        assert (
            by_rule["closest"].hfc_mean_delay
            <= by_rule["random"].hfc_mean_delay * 1.05
        )

    def test_loads_positive(self, rows):
        for row in rows:
            assert row.max_border_load >= 1
            assert row.mean_border_load >= 1

    def test_render(self, rows, capsys):
        _show("A3", rows)
        assert "max_border_load" in capsys.readouterr().out

    def test_random_border_rule_valid_but_not_closest(self, framework):
        clustering = framework.clustering
        borders = random_borders(clustering, ensure_rng(3))
        k = clustering.cluster_count
        assert len(borders) == k * (k - 1)
        for (i, _), proxy in borders.items():
            assert clustering.cluster_of(proxy) == i
        assert borders != framework.hfc.borders


class TestMethodAblation:
    @pytest.fixture(scope="class")
    def rows(self):
        return run_method_ablation(requests=25, spec=TINY, seed=4)

    def test_all_methods_present(self, rows):
        assert [r.method for r in rows] == ["external", "backtrack", "exact"]

    def test_backtrack_not_worse_than_external(self, rows):
        by = {r.method: r.hfc_mean_delay for r in rows}
        assert by["backtrack"] <= by["external"] * 1.05

    def test_render(self, rows, capsys):
        _show("A4", rows)
        assert "backtrack" in capsys.readouterr().out


class TestMeshInformationAblation:
    @pytest.fixture(scope="class")
    def rows(self):
        return run_mesh_information_ablation(requests=25, spec=TINY, seed=5)

    def test_both_weights_present(self, rows):
        assert {r.weight for r in rows} == {"coords", "true"}

    def test_true_information_helps_the_mesh(self, rows):
        by = {r.weight: r.mesh_mean_delay for r in rows}
        assert by["true"] <= by["coords"] * 1.05

    def test_render(self, rows, capsys):
        _show("A5", rows)
        assert "mesh_mean_delay" in capsys.readouterr().out


class TestAggregationAblation:
    @pytest.fixture(scope="class")
    def rows(self):
        from repro.experiments.ablations import run_aggregation_ablation

        return run_aggregation_ablation(requests=25, spec=TINY, seed=6)

    def test_both_representations_present(self, rows):
        assert {r.representation for r in rows} == {
            "all borders (paper)",
            "single logical node",
        }

    def test_delays_positive(self, rows):
        assert all(r.hfc_mean_delay > 0 for r in rows)

    def test_render(self, rows, capsys):
        _show("A6", rows)
        assert "single logical node" in capsys.readouterr().out


class TestCentroidRouterPaths:
    def test_paths_validate(self, framework):
        from repro.routing.aggregation import CentroidAggregationRouter
        from repro.routing import validate_path

        router = CentroidAggregationRouter(framework.hfc)
        for seed in range(10):
            request = framework.random_request(seed=seed)
            path = router.route(request)
            validate_path(path, request, framework.overlay)

    def test_view_is_relaxed_over_its_own_tables(self, framework):
        """The centroid view must never be served the wrapped topology's
        cached query tables (it was, through ``__getattr__``, on every
        columnar-attached topology — the ablation measured the default)."""
        from repro.routing import HierarchicalRouter, query_tables
        from repro.routing.aggregation import CentroidAggregationRouter

        HierarchicalRouter(framework.hfc).route(framework.random_request(seed=1))
        assert query_tables(framework.hfc) is not None  # cached on the topology
        view = CentroidAggregationRouter(framework.hfc).cluster_view
        tables = query_tables(view)
        assert tables is not query_tables(framework.hfc)
        k = view.cluster_count
        for i in range(k):
            for j in range(k):
                if i != j:
                    assert tables.ext[i, j] == view.external_estimate(i, j)
        assert not tables.d_border.any()  # internal extents are invisible

    def test_rebind_keeps_the_centroid_view(self, framework):
        """rebind() used to leave a bare topology behind: the ablation
        silently became the default router."""
        from repro.routing import HierarchicalRouter
        from repro.routing.aggregation import CentroidAggregationRouter

        requests = [framework.random_request(seed=s) for s in range(30)]
        fresh = CentroidAggregationRouter(framework.hfc)
        rebound = CentroidAggregationRouter(framework.hfc)
        rebound.rebind(framework.hfc)
        expected = [fresh.cluster_level_path(r) for r in requests]
        default = HierarchicalRouter(framework.hfc)
        assert [default.cluster_level_path(r) for r in requests] != expected
        assert [rebound.cluster_level_path(r) for r in requests] == expected
        assert type(rebound.cluster_view) is type(fresh.cluster_view)
        assert rebound.hfc is framework.hfc


class TestLandmarkAblation:
    @pytest.fixture(scope="class")
    def rows(self):
        from repro.experiments.ablations import run_landmark_ablation

        return run_landmark_ablation(requests=20, spec=TINY, seed=7)

    def test_both_placements_present(self, rows):
        assert {r.placement for r in rows} == {"k-center", "random"}

    def test_errors_and_delays_sane(self, rows):
        for row in rows:
            assert 0 <= row.median_rel_error < 1.5
            assert row.hfc_mean_delay > 0

    def test_render(self, rows, capsys):
        _show("A7", rows)
        assert "median_rel_error" in capsys.readouterr().out


class TestMeshFamilyAblation:
    @pytest.fixture(scope="class")
    def rows(self):
        from repro.experiments.ablations import run_mesh_family_ablation

        return run_mesh_family_ablation(requests=20, spec=TINY, seed=8)

    def test_all_topologies_present(self, rows):
        assert [r.topology for r in rows] == [
            "regular mesh (paper)", "gabriel mesh", "HFC (hierarchical)",
        ]

    def test_delays_and_edges_positive(self, rows):
        for row in rows:
            assert row.mean_delay > 0
            assert row.edges > 0

    def test_render(self, rows, capsys):
        _show("A8", rows)
        assert "gabriel mesh" in capsys.readouterr().out
