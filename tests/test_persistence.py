"""Tests for framework persistence (binary snapshot round trips)."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.membership import DynamicOverlay
from repro.persistence import SNAPSHOT_FORMAT_VERSION, load_snapshot, save_snapshot
from repro.routing import HierarchicalRouter, validate_path
from repro.routing.batch import query_tables
from repro.state.protocol import StateDistributionProtocol
from repro.util.errors import ReproError
from repro.util.rng import ensure_rng


@pytest.fixture(scope="module")
def binary_snapshot(tiny_framework, tmp_path_factory):
    path = tmp_path_factory.mktemp("artifacts") / "overlay.npz"
    save_snapshot(tiny_framework, str(path))
    return load_snapshot(str(path))


@pytest.fixture(scope="module")
def restored(binary_snapshot):
    return binary_snapshot.framework


def _rewrite_snapshot(path, edit_meta=None, drop=(), edit_arrays=None):
    """Re-save the snapshot at *path* with edited meta / arrays / without some arrays."""
    with np.load(str(path), allow_pickle=False) as data:
        arrays = {name: data[name] for name in data.files if name not in drop}
    if edit_arrays is not None:
        edit_arrays(arrays)
    if edit_meta is not None:
        meta = json.loads(str(arrays["meta"]))
        edit_meta(meta)
        arrays["meta"] = np.array(json.dumps(meta))
    with open(path, "wb") as handle:
        np.savez(handle, **arrays)


class TestRoundTrip:
    def test_structure_preserved(self, tiny_framework, restored):
        assert restored.overlay.proxies == tiny_framework.overlay.proxies
        assert restored.overlay.placement == tiny_framework.overlay.placement
        assert restored.clustering.labels == tiny_framework.clustering.labels
        assert restored.hfc.borders == tiny_framework.hfc.borders
        assert list(restored.catalog.names) == list(tiny_framework.catalog.names)

    def test_physical_graph_preserved(self, tiny_framework, restored):
        a = tiny_framework.physical.graph
        b = restored.physical.graph
        assert a.node_count == b.node_count
        assert sorted(a.edges()) == sorted(b.edges())

    def test_edge_columns_preserved_in_generation_order(self, tiny_framework, restored):
        built, loaded = tiny_framework.physical.topology, restored.physical.topology
        assert np.array_equal(loaded.edge_u, built.edge_u)
        assert np.array_equal(loaded.edge_v, built.edge_v)
        assert np.array_equal(loaded.edge_w, built.edge_w)
        # hence the derived views list every router's neighbours in one order
        for node in built.graph.nodes():
            assert list(loaded.graph.neighbors(node)) == list(built.graph.neighbors(node))

    def test_physical_routes_identical(self, tiny_framework, restored):
        rng = ensure_rng(5)
        routers = range(tiny_framework.physical.topology.node_count)
        for _ in range(50):
            u, v = rng.sample(routers, 2)
            assert restored.physical.route(u, v) == tiny_framework.physical.route(u, v)
            assert restored.physical.delay(u, v) == tiny_framework.physical.delay(u, v)

    def test_coordinates_preserved(self, tiny_framework, restored):
        for proxy in tiny_framework.overlay.proxies:
            assert restored.space.coordinate(proxy) == pytest.approx(
                tiny_framework.space.coordinate(proxy)
            )

    def test_embedding_report_preserved(self, tiny_framework, restored):
        assert (
            restored.embedding_report.landmark_ids
            == tiny_framework.embedding_report.landmark_ids
        )
        assert restored.embedding_report.measurement_count == (
            tiny_framework.embedding_report.measurement_count
        )

    def test_routing_identical(self, tiny_framework, restored):
        """Same overlay, same coordinates, same borders -> same paths."""
        original = HierarchicalRouter(tiny_framework.hfc)
        loaded = HierarchicalRouter(restored.hfc)
        for seed in range(8):
            request = tiny_framework.random_request(seed=seed)
            a = original.route(request)
            b = loaded.route(request)
            assert a.hops == b.hops
            validate_path(b, request, restored.overlay)

    def test_describe_matches(self, tiny_framework, restored):
        assert restored.describe() == tiny_framework.describe()

    def test_config_preserved(self, tiny_framework, restored):
        assert restored.config == tiny_framework.config


class TestFormatGuard:
    @pytest.fixture
    def snapshot_path(self, tiny_framework, tmp_path):
        path = tmp_path / "overlay.npz"
        save_snapshot(tiny_framework, str(path))
        return path

    def test_wrong_version_rejected(self, snapshot_path):
        """A snapshot that names no format version is not guessed at."""
        _rewrite_snapshot(snapshot_path, lambda meta: meta.pop("format_version"))
        with pytest.raises(ReproError, match="unsupported snapshot format"):
            load_snapshot(str(snapshot_path))

    def test_version_constant_written(self, snapshot_path):
        with np.load(str(snapshot_path), allow_pickle=False) as data:
            meta = json.loads(str(data["meta"]))
        assert meta["format_version"] == SNAPSHOT_FORMAT_VERSION

    def test_legacy_config_keys_ignored(self, tiny_framework, snapshot_path):
        """Snapshots written before the construction/pool selectors were
        retired carry their keys in the config block; they load and route."""

        def add_legacy(meta):
            meta["config"]["base"].update(
                vectorized_construction=True,
                embedding_workers=None,
                query_workers=2,
            )

        _rewrite_snapshot(snapshot_path, add_legacy)
        loaded = load_snapshot(str(snapshot_path)).framework
        assert loaded.config == tiny_framework.config
        original = HierarchicalRouter(tiny_framework.hfc)
        restored = HierarchicalRouter(loaded.hfc)
        for seed in range(8):
            request = tiny_framework.random_request(seed=seed)
            assert restored.route(request).hops == original.route(request).hops

    def test_links_grouped_by_endpoint_still_load(self, tiny_framework, snapshot_path):
        """Snapshots used to list links in ``Graph.edges()`` order — grouped
        by lower endpoint, that endpoint first; they load with the same delays."""

        def regroup(arrays):
            pairs = np.sort(arrays["edge_uv"], axis=1)
            order = np.argsort(pairs[:, 0], kind="stable")
            arrays["edge_uv"], arrays["edge_w"] = pairs[order], arrays["edge_w"][order]

        _rewrite_snapshot(snapshot_path, edit_arrays=regroup)
        loaded = load_snapshot(str(snapshot_path)).framework.physical
        built = tiny_framework.physical
        assert sorted(loaded.graph.edges()) == sorted(built.graph.edges())
        routers = list(range(0, built.topology.node_count, 7))
        assert np.array_equal(loaded.delay_matrix(routers), built.delay_matrix(routers))

    def test_malformed_physical_arrays_raise_typed_error(self, snapshot_path):
        def renumber(arrays):
            arrays["phys_nodes"] = arrays["phys_nodes"] + 1

        def negate(arrays):
            arrays["edge_w"] = -arrays["edge_w"]

        blob = snapshot_path.read_bytes()
        for edit, message in ((renumber, "0..n-1"), (negate, "negative weight")):
            snapshot_path.write_bytes(blob)
            _rewrite_snapshot(snapshot_path, edit_arrays=edit)
            with pytest.raises(ReproError, match=message):
                load_snapshot(str(snapshot_path))

    def test_truncated_archive_raises_typed_error(self, snapshot_path):
        blob = snapshot_path.read_bytes()
        for keep in (len(blob) // 2, 3, 0):
            snapshot_path.write_bytes(blob[:keep])
            with pytest.raises(ReproError, match=snapshot_path.name):
                load_snapshot(str(snapshot_path))

    def test_missing_array_raises_typed_error(self, snapshot_path):
        _rewrite_snapshot(snapshot_path, drop=("border_matrix",))
        with pytest.raises(ReproError, match="border_matrix"):
            load_snapshot(str(snapshot_path))


class TestBinarySnapshot:
    def test_routing_matrices_bit_exact(self, tiny_framework, binary_snapshot):
        route_a, true_a = tiny_framework.hfc.routing_matrices()
        route_b, true_b = binary_snapshot.framework.hfc.routing_matrices()
        assert np.array_equal(route_a, route_b)
        assert np.array_equal(true_a, true_b)

    def test_query_tables_bit_exact(self, tiny_framework, binary_snapshot):
        a = query_tables(tiny_framework.hfc)
        b = query_tables(binary_snapshot.framework.hfc)
        assert a.border_list == b.border_list
        assert np.array_equal(a.ext, b.ext)
        assert np.array_equal(a.d_border, b.d_border)

    def test_structure_preserved(self, tiny_framework, binary_snapshot):
        restored = binary_snapshot.framework
        assert restored.overlay.proxies == tiny_framework.overlay.proxies
        assert restored.overlay.placement == tiny_framework.overlay.placement
        assert restored.hfc.borders == tiny_framework.hfc.borders
        assert restored.describe() == tiny_framework.describe()

    def test_columnar_attached(self, binary_snapshot):
        state = binary_snapshot.framework.hfc.columnar
        assert state is binary_snapshot.columnar
        state.validate()

    def test_no_state_plane_by_default(self, binary_snapshot):
        assert binary_snapshot.state_plane is None

    def test_wrong_version_rejected(self, tiny_framework, tmp_path):
        path = tmp_path / "overlay.npz"
        save_snapshot(tiny_framework, str(path))
        _rewrite_snapshot(path, lambda meta: meta.update(format_version=999))
        with pytest.raises(ReproError):
            load_snapshot(str(path))


class TestStatePlaneRoundTrip:
    """Post-PR3 state survives a snapshot: revisions, incarnations, streams."""

    @pytest.fixture(scope="class")
    def protocol(self, tiny_framework):
        protocol = StateDistributionProtocol(
            tiny_framework.hfc, seed=11
        )
        protocol.run(max_time=6000.0, stop_on_convergence=False)
        return protocol

    @pytest.fixture(scope="class")
    def plane(self, protocol):
        return protocol.snapshot_state_plane()

    def test_plane_embeds_exactly(self, tiny_framework, plane, tmp_path_factory):
        path = tmp_path_factory.mktemp("artifacts") / "warm.npz"
        save_snapshot(tiny_framework, str(path), state_plane=plane)
        snap = load_snapshot(str(path))
        assert snap.state_plane == plane

    def test_capability_revisions_preserved(self, protocol, plane):
        for proxy, state in protocol.states.items():
            capture = plane[str(proxy)]["state"]
            assert capture["sct_p"]["revision"] == state.sct_p.revision
            assert capture["sct_c"]["revision"] == state.sct_c.revision

    def test_emitter_incarnations_captured(self, protocol, plane):
        for proxy in protocol.hfc.overlay.proxies:
            agent = protocol._agent_of[proxy]
            assert (
                plane[str(proxy)]["emitter"]["incarnation"]
                == agent.emitter.incarnation
            )

    def test_warm_restore_keeps_learned_tables(self, tiny_framework, plane):
        fresh = StateDistributionProtocol(
            tiny_framework.hfc, seed=12
        )
        proxy = tiny_framework.overlay.proxies[0]
        capture = plane[str(proxy)]
        fresh.restore_state(proxy, capture)
        restored = fresh.states[proxy]
        saved_keys = {
            tuple(k["tuple"]) if isinstance(k, dict) else k
            for k, _, _ in capture["state"]["sct_c"]["entries"]
        }
        assert set(restored.sct_c._entries) == saved_keys
        # The emitter does not resume mid-stream: its incarnation advances
        # past the saved one so peers accept the post-restart streams.
        saved_incarnation = capture["emitter"]["incarnation"]
        agent = fresh._agent_of[proxy]
        assert agent.emitter.incarnation > saved_incarnation
        assert agent.emitter._seq == {}


class TestTwinOverlay:
    """Hypothesis: a churned overlay and its snapshot restore are twins."""

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 2**16 - 1), leaves=st.integers(1, 6))
    def test_restore_is_bit_exact(
        self, tiny_framework, tmp_path_factory, seed, leaves
    ):
        rng = ensure_rng(seed)
        dyn = DynamicOverlay(
            tiny_framework, restructure_tolerance=None, track_quality=False
        )
        for _ in range(leaves):
            if dyn.size <= 4:
                break
            dyn.leave(rng.choice(dyn.proxies))

        path = tmp_path_factory.mktemp("twin") / f"overlay-{seed}.npz"
        save_snapshot(dyn, str(path))
        snap = load_snapshot(str(path))
        twin = DynamicOverlay.from_snapshot(
            snap, restructure_tolerance=None, track_quality=False
        )

        assert twin.version == dyn.version
        assert twin.hfc.borders == dyn.hfc.borders
        route_a, true_a = dyn.hfc.routing_matrices()
        route_b, true_b = twin.hfc.routing_matrices()
        assert np.array_equal(route_a, route_b)
        assert np.array_equal(true_a, true_b)

        # Same topology + same seed => identical delta streams on the wire.
        report_a = StateDistributionProtocol(
            dyn.hfc, seed=21
        ).run(max_time=4000.0, stop_on_convergence=False)
        report_b = StateDistributionProtocol(
            twin.hfc, seed=21
        ).run(max_time=4000.0, stop_on_convergence=False)
        assert report_a.total_messages == report_b.total_messages
        assert report_a.total_size == report_b.total_size
        assert report_a.messages_by_kind == report_b.messages_by_kind
        assert report_a.converged_at == report_b.converged_at
