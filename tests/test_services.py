"""Tests for catalogs, service graphs, requests, and placement."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.services import (
    ServiceCatalog,
    ServiceGraph,
    ServiceRequest,
    aggregate_capability,
    branching_graph,
    generic_catalog,
    install_services,
    linear_graph,
    multimedia_catalog,
    providers_of,
    scaled_catalog,
    web_catalog,
)
from repro.util.errors import ServiceModelError


class TestCatalog:
    def test_generic_names(self):
        catalog = generic_catalog(3)
        assert list(catalog) == ["s0", "s1", "s2"]
        assert len(catalog) == 3

    def test_contains(self):
        catalog = generic_catalog(2)
        assert "s0" in catalog
        assert "s9" not in catalog

    def test_empty_rejected(self):
        with pytest.raises(ServiceModelError):
            generic_catalog(0)

    def test_duplicates_rejected(self):
        with pytest.raises(ServiceModelError):
            ServiceCatalog(names=["a", "a"])

    def test_descriptions(self):
        catalog = multimedia_catalog()
        assert "watermark" in catalog
        assert "copyright" in catalog.describe("watermark")

    def test_describe_unknown_raises(self):
        with pytest.raises(ServiceModelError):
            multimedia_catalog().describe("nope")

    def test_description_for_unknown_service_rejected(self):
        with pytest.raises(ServiceModelError):
            ServiceCatalog(names=["a"], descriptions={"b": "?"})

    def test_web_catalog_nonempty(self):
        assert len(web_catalog()) >= 4

    def test_scaled_catalog_scales(self):
        small = scaled_catalog(100)
        large = scaled_catalog(1000)
        assert len(large) > len(small)

    def test_scaled_catalog_instance_target(self):
        catalog = scaled_catalog(800, services_per_proxy_mean=7, instances_per_service=8)
        assert len(catalog) == round(800 * 7 / 8)


class TestLinearGraph:
    def test_chain_structure(self):
        sg = linear_graph(["a", "b", "c"])
        assert sg.slot_count == 3
        assert sg.is_linear
        assert sg.source_slots() == [0]
        assert sg.sink_slots() == [2]
        assert sg.topological_order() == [0, 1, 2]

    def test_single_service(self):
        sg = linear_graph(["a"])
        assert sg.is_linear
        assert sg.source_slots() == sg.sink_slots() == [0]

    def test_repeated_service_allowed(self):
        """The MPEG example compresses twice — same name, distinct slots."""
        sg = linear_graph(["compress", "mix", "compress"])
        assert sg.slot_count == 3
        assert sg.service_of(0) == sg.service_of(2) == "compress"

    def test_empty_rejected(self):
        with pytest.raises(ServiceModelError):
            linear_graph([])

    def test_single_configuration(self):
        sg = linear_graph(["a", "b"])
        assert sg.configurations() == [[0, 1]]


class TestServiceGraphValidation:
    def test_cycle_rejected(self):
        with pytest.raises(ServiceModelError):
            ServiceGraph(services={0: "a", 1: "b"}, edges={(0, 1), (1, 0)})

    def test_self_edge_rejected(self):
        with pytest.raises(ServiceModelError):
            ServiceGraph(services={0: "a"}, edges={(0, 0)})

    def test_unknown_slot_edge_rejected(self):
        with pytest.raises(ServiceModelError):
            ServiceGraph(services={0: "a"}, edges={(0, 5)})

    def test_empty_rejected(self):
        with pytest.raises(ServiceModelError):
            ServiceGraph(services={})

    def test_unknown_slot_service_lookup(self):
        sg = linear_graph(["a"])
        with pytest.raises(ServiceModelError):
            sg.service_of(99)


class TestBranchingGraph:
    def test_figure_2b_shape(self):
        """Two alternative heads merging into a shared tail."""
        sg = branching_graph(chains=[["s0"], ["s3"]], tail=["s1", "s2"])
        assert not sg.is_linear
        assert len(sg.source_slots()) == 2
        assert len(sg.sink_slots()) == 1
        configs = sg.configurations()
        names = [[sg.service_of(s) for s in c] for c in configs]
        assert ["s0", "s1", "s2"] in names
        assert ["s3", "s1", "s2"] in names

    def test_skip_edge_configuration(self):
        """Figure 2(b) also allows s3 -> s2 directly."""
        sg = branching_graph(chains=[["s0"], ["s3"]], tail=["s1", "s2"])
        # add the skip edge s3 -> s2 (slot ids: s0=0, s3=1, s1=2, s2=3)
        sg2 = ServiceGraph(
            services=dict(sg.services), edges=set(sg.edges) | {(1, 3)}
        )
        names = [[sg2.service_of(s) for s in c] for c in sg2.configurations()]
        assert ["s3", "s2"] in names
        assert len(names) == 3

    def test_empty_chain_rejected(self):
        with pytest.raises(ServiceModelError):
            branching_graph(chains=[[]])

    def test_no_chains_rejected(self):
        with pytest.raises(ServiceModelError):
            branching_graph(chains=[])

    def test_is_configuration(self):
        sg = branching_graph(chains=[["a"], ["b"]], tail=["c"])
        assert sg.is_configuration([0, 2])
        assert sg.is_configuration([1, 2])
        assert not sg.is_configuration([0, 1])
        assert not sg.is_configuration([2])
        assert not sg.is_configuration([])


class TestRequest:
    def test_roundtrip(self):
        sg = linear_graph(["a", "b"])
        request = ServiceRequest(1, sg, 2)
        assert request.length == 2
        assert "a" in repr(request)

    def test_none_endpoint_rejected(self):
        with pytest.raises(ServiceModelError):
            ServiceRequest(None, linear_graph(["a"]), 2)


class TestPlacement:
    def test_per_proxy_counts_in_range(self):
        catalog = generic_catalog(30)
        placement = install_services(range(20), catalog, seed=1)
        for services in placement.values():
            assert 4 <= len(services) <= 10

    def test_full_catalog_coverage(self):
        catalog = generic_catalog(50)
        placement = install_services(range(10), catalog, min_per_proxy=2,
                                     max_per_proxy=4, seed=1)
        union = set()
        for services in placement.values():
            union |= services
        assert union == set(catalog.names)

    def test_deterministic_for_seed(self):
        catalog = generic_catalog(30)
        a = install_services(range(10), catalog, seed=5)
        b = install_services(range(10), catalog, seed=5)
        assert a == b

    def test_bad_bounds_rejected(self):
        catalog = generic_catalog(30)
        with pytest.raises(ServiceModelError):
            install_services(range(5), catalog, min_per_proxy=5, max_per_proxy=2)

    def test_max_exceeding_catalog_rejected(self):
        catalog = generic_catalog(3)
        with pytest.raises(ServiceModelError):
            install_services(range(5), catalog, max_per_proxy=10)

    def test_empty_proxies_rejected(self):
        with pytest.raises(ServiceModelError):
            install_services([], generic_catalog(5))

    def test_providers_of(self):
        placement = {1: frozenset({"a"}), 2: frozenset({"a", "b"}), 3: frozenset({"b"})}
        assert providers_of(placement, "a") == [1, 2]
        assert providers_of(placement, "zzz") == []

    def test_aggregate_capability_is_union(self):
        placement = {1: frozenset({"a"}), 2: frozenset({"b"})}
        assert aggregate_capability(placement, [1, 2]) == frozenset({"a", "b"})

    def test_aggregate_unknown_proxy_raises(self):
        with pytest.raises(ServiceModelError):
            aggregate_capability({1: frozenset()}, [1, 99])


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 20), st.data())
def test_configurations_are_valid_paths(n, data):
    """Property: every enumerated configuration passes is_configuration."""
    # build a random DAG over n slots with edges only forward
    edges = set()
    for a in range(n):
        for b in range(a + 1, n):
            if data.draw(st.booleans(), label=f"edge{a}-{b}"):
                edges.add((a, b))
    sg = ServiceGraph(services={i: f"s{i}" for i in range(n)}, edges=edges)
    try:
        configs = sg.configurations(limit=5000)
    except ServiceModelError:
        # dense DAGs legitimately exceed the enumeration guard — that is the
        # guard doing its job, not a correctness failure
        return
    assert configs  # at least one source-sink path always exists
    for config in configs:
        assert sg.is_configuration(config)


# -- a frozen graph derives its facts once, and they change nothing -------------


def _scan_order(services, edges):
    """Kahn's algorithm with sorted tie-breaking, straight off the edge set."""
    indegree = {s: sum(1 for _, b in edges if b == s) for s in services}
    ready = sorted(s for s, d in indegree.items() if d == 0)
    order = []
    while ready:
        node = ready.pop(0)
        order.append(node)
        for succ in sorted(b for a, b in edges if a == node):
            indegree[succ] -= 1
            if indegree[succ] == 0:
                ready.append(succ)
        ready.sort()
    return order


@st.composite
def random_dag(draw):
    """A DAG over shuffled slot ids, slots inserted in a second shuffled order."""
    n = draw(st.integers(1, 9))
    rank = draw(st.permutations(range(n)))  # edges run from lower to higher rank
    edges = {
        (a, b)
        for a in range(n)
        for b in range(n)
        if rank[a] < rank[b] and draw(st.booleans())
    }
    services = {slot: f"s{slot % 3}" for slot in draw(st.permutations(range(n)))}
    return services, edges


class TestGraphFacts:
    @settings(max_examples=60, deadline=None)
    @given(random_dag())
    def test_facts_equal_an_edge_scan(self, dag):
        services, edges = dag
        sg = ServiceGraph(services=services, edges=edges)
        order = _scan_order(services, edges)
        for _ in range(2):  # first use, then the kept copy
            assert sg.topological_order() == order
            for slot in services:
                assert sg.successors(slot) == sorted(b for a, b in edges if a == slot)
                assert sg.predecessors(slot) == sorted(a for a, b in edges if b == slot)
            assert sg.source_slots() == [
                s for s in services if all(b != s for _, b in edges)
            ]
            assert sg.sink_slots() == [
                s for s in services if all(a != s for a, _ in edges)
            ]
            assert sg.is_linear == (edges == set(zip(order, order[1:])))
        assert sg.successors(99) == sg.predecessors(99) == []

    def test_results_are_the_callers_to_mutate(self):
        sg = linear_graph(["a", "b", "c"])
        for fact in (sg.topological_order, sg.source_slots, sg.sink_slots):
            fact().append(99)
        sg.successors(0).append(99)
        sg.predecessors(1).append(99)
        assert sg.topological_order() == [0, 1, 2]
        assert (sg.source_slots(), sg.sink_slots()) == ([0], [2])
        assert (sg.successors(0), sg.predecessors(1)) == ([1], [0])

    def test_cycle_still_raises_from_the_constructor(self):
        with pytest.raises(ServiceModelError, match="cycle"):
            ServiceGraph(services={0: "a", 1: "b", 2: "c"}, edges={(0, 1), (1, 2), (2, 0)})

    def test_value_semantics_ignore_the_kept_facts(self):
        import dataclasses
        import pickle

        sg = branching_graph(chains=[["a"], ["b"]], tail=["c", "d"])
        twin = ServiceGraph(services=dict(sg.services), edges=set(sg.edges))
        before = repr(sg)
        # derive everything on one of the two
        _ = (sg.topological_order(), sg.is_linear, sg.signature, sg.successors(0))
        assert sg == twin and repr(sg) == before == repr(twin)
        clone = pickle.loads(pickle.dumps(sg))
        assert clone == sg
        assert clone.topological_order() == sg.topological_order()
        assert clone.signature == sg.signature

        chain = linear_graph(["a", "b", "c"])
        assert chain.is_linear and chain.topological_order() == [0, 1, 2]
        forked = dataclasses.replace(chain, edges=frozenset({(0, 2), (1, 2)}))
        # the replaced graph derives its own facts
        assert not forked.is_linear
        assert forked.topological_order() == [0, 1, 2]
        assert forked.successors(0) == [2] and forked.predecessors(2) == [0, 1]
        assert forked.signature != chain.signature
        assert chain.is_linear and chain.successors(0) == [1]

    def test_kahn_runs_once_per_graph(self, monkeypatch, tiny_framework):
        from functools import cached_property

        runs = []
        kahn = ServiceGraph._shape.func

        def counting(self):
            runs.append(id(self))
            return kahn(self)

        counted = cached_property(counting)
        counted.__set_name__(ServiceGraph, "_shape")
        monkeypatch.setattr(ServiceGraph, "_shape", counted)

        proxies = tiny_framework.overlay.proxies
        placement = tiny_framework.overlay.placement
        names = [sorted(placement[p])[0] for p in proxies[:4]]
        request = ServiceRequest(proxies[0], linear_graph(names), proxies[-1])
        assert runs == [id(request.service_graph)]
        router = tiny_framework.hierarchical_router()
        path = router.route(request)
        assert router.route_many_detailed([request, request]).paths == [path, path]
        assert names[0] in repr(request)
        assert runs.count(id(request.service_graph)) == 1
