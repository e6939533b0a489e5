"""Tests for the ``repro.telemetry`` subsystem.

Unit tests for the metric primitives (counter/gauge/histogram semantics,
registry keying and merging), span tracing (tree shape, clock selection),
the event log (bounds, sinks, JSONL round-trip), plus an integration test
asserting that a full framework route + protocol run emits the expected
metric names and span tree.
"""

import json
import math

import pytest

from repro.dataplane.session import StreamingSession
from repro.membership.churn import DynamicOverlay
from repro.netsim.eventsim import Message, Process, Simulator
from repro.routing.cache import CachedHierarchicalRouter
from repro.state.protocol import StateDistributionProtocol
from repro.telemetry import (
    NULL_TELEMETRY,
    EventLog,
    JsonlSink,
    ListSink,
    MetricsRegistry,
    Telemetry,
    get_telemetry,
    use_telemetry,
)
from repro.util.errors import TelemetryError


@pytest.fixture
def registry():
    return MetricsRegistry()


@pytest.fixture
def scoped():
    """A fresh process-wide telemetry scope, restored afterwards."""
    with use_telemetry(Telemetry()) as telemetry:
        yield telemetry


class TestCounter:
    def test_starts_at_zero_and_accumulates(self, registry):
        c = registry.counter("x")
        assert c.value == 0
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_rejects_negative(self, registry):
        with pytest.raises(TelemetryError):
            registry.counter("x").inc(-1)

    def test_same_name_same_labels_same_handle(self, registry):
        assert registry.counter("x", kind="a") is registry.counter("x", kind="a")

    def test_different_labels_different_handles(self, registry):
        registry.counter("x", kind="a").inc()
        registry.counter("x", kind="b").inc(2)
        assert registry.total("x") == 3
        assert registry.values_by_label("x", "kind") == {"a": 1, "b": 2}

    def test_kind_conflict_rejected(self, registry):
        registry.counter("x")
        with pytest.raises(TelemetryError):
            registry.gauge("x")
        with pytest.raises(TelemetryError):
            registry.histogram("x")


class TestGauge:
    def test_set_inc_dec(self, registry):
        g = registry.gauge("depth")
        g.set(10.0)
        g.inc(2.5)
        g.dec()
        assert g.value == 11.5


class TestHistogram:
    def test_count_sum_min_max_mean(self, registry):
        h = registry.histogram("lat", buckets=(10.0, 100.0))
        for v in (5.0, 50.0, 500.0, 45.0):
            h.observe(v)
        assert h.count == 4
        assert h.total == 600.0
        assert h.min == 5.0
        assert h.max == 500.0
        assert h.mean == 150.0

    def test_bucket_assignment_includes_overflow(self, registry):
        h = registry.histogram("lat", buckets=(10.0, 100.0))
        for v in (5.0, 50.0, 500.0):
            h.observe(v)
        assert h.bucket_counts == [1, 1, 1]

    def test_quantiles_are_ordered_and_bounded(self, registry):
        h = registry.histogram("lat", buckets=(1.0, 2.0, 5.0, 10.0, 50.0))
        for v in range(1, 41):
            h.observe(v / 2.0)
        p50, p95, p99 = h.quantile(0.5), h.quantile(0.95), h.quantile(0.99)
        assert h.min <= p50 <= p95 <= p99 <= h.max

    def test_empty_quantile_is_nan(self, registry):
        assert math.isnan(registry.histogram("lat").quantile(0.5))

    def test_bad_bounds_rejected(self, registry):
        with pytest.raises(TelemetryError):
            registry.histogram("bad", buckets=(5.0, 1.0))

    def test_snapshot_shape(self, registry):
        h = registry.histogram("lat", buckets=(10.0,))
        h.observe(3.0)
        snap = h.snapshot()
        assert snap["count"] == 1
        assert snap["p50"] == pytest.approx(3.0, abs=10.0)
        assert snap["buckets"]["counts"] == [1, 0]


class TestRegistryMerge:
    def test_counters_add_histograms_merge(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c", k="x").inc(2)
        b.counter("c", k="x").inc(3)
        b.counter("c", k="y").inc(1)
        a.histogram("h", buckets=(1.0, 10.0)).observe(0.5)
        b.histogram("h", buckets=(1.0, 10.0)).observe(5.0)
        a.merge(b)
        assert a.counter("c", k="x").value == 5
        assert a.counter("c", k="y").value == 1
        h = a.histogram("h", buckets=(1.0, 10.0))
        assert h.count == 2
        assert h.bucket_counts == [1, 1, 0]

    def test_merge_bound_mismatch_rejected(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("h", buckets=(1.0,))
        b.histogram("h", buckets=(2.0,)).observe(1.0)
        with pytest.raises(TelemetryError):
            a.merge(b)

    def test_snapshot_groups_by_kind(self, registry):
        registry.counter("c").inc()
        registry.gauge("g").set(2.0)
        registry.histogram("h").observe(1.0)
        snap = registry.snapshot()
        assert [c["name"] for c in snap["counters"]] == ["c"]
        assert [g["name"] for g in snap["gauges"]] == ["g"]
        assert [h["name"] for h in snap["histograms"]] == ["h"]


class TestTracing:
    def test_span_tree_structure(self, scoped):
        tracer = scoped.tracer
        with tracer.span("outer", request=1):
            with tracer.span("inner.a"):
                pass
            with tracer.span("inner.b"):
                pass
        assert len(tracer.roots) == 1
        root = tracer.roots[0]
        assert root.name == "outer"
        assert [c.name for c in root.children] == ["inner.a", "inner.b"]
        assert root.duration >= max(c.duration for c in root.children)

    def test_spans_feed_duration_histogram(self, scoped):
        with scoped.tracer.span("op"):
            pass
        metric = scoped.registry.get("span.duration", span="op", clock="wall")
        assert metric is not None and metric.count == 1

    def test_wall_clock_outside_simulation(self, scoped):
        with scoped.tracer.span("op") as span:
            pass
        assert span.clock_kind == "wall"

    def test_sim_clock_inside_simulation(self, scoped):
        sim = Simulator(telemetry=scoped)

        recorded = []

        def act():
            with scoped.tracer.span("under-sim") as span:
                recorded.append(span.clock_kind)

        sim.schedule(25.0, act)
        sim.run_all()
        assert recorded == ["sim"]
        span = scoped.tracer.find_roots("under-sim")[0]
        assert span.start == 25.0

    def test_error_annotated(self, scoped):
        with pytest.raises(ValueError):
            with scoped.tracer.span("boom"):
                raise ValueError("x")
        assert scoped.tracer.roots[0].attributes["error"] == "ValueError"

    def test_to_dict_roundtrips_through_json(self, scoped):
        with scoped.tracer.span("outer"):
            with scoped.tracer.span("inner"):
                pass
        payload = json.loads(json.dumps(scoped.tracer.snapshot()))
        assert payload[0]["name"] == "outer"
        assert payload[0]["children"][0]["name"] == "inner"


class TestEventLog:
    def test_record_and_query(self):
        log = EventLog(capacity=10)
        log.record("join", proxy=3)
        log.record("leave", proxy=4)
        assert len(log) == 2
        assert log.of_kind("join")[0]["proxy"] == 3

    def test_bounded_with_drop_accounting(self):
        log = EventLog(capacity=3)
        for i in range(10):
            log.record("e", i=i)
        assert len(log) == 3
        assert log.recorded == 10
        assert log.dropped == 7
        assert [e["i"] for e in log] == [7, 8, 9]

    def test_sink_receives_events_and_detaches(self):
        log = EventLog(capacity=10)
        sink = log.attach(ListSink())
        log.record("a")
        log.detach(sink)
        log.record("b")
        assert [e["kind"] for e in sink.events] == ["a"]

    def test_jsonl_roundtrip(self, tmp_path):
        log = EventLog(capacity=10)
        log.record("join", proxy=3, quality=1.5)
        log.record("leave", proxy="r9")
        path = str(tmp_path / "events.jsonl")
        assert log.dump_jsonl(path) == 2
        events = EventLog.load_jsonl(path)
        assert [e["kind"] for e in events] == ["join", "leave"]
        assert events[0]["proxy"] == 3
        assert events[1]["proxy"] == "r9"

    def test_jsonl_sink_streams(self, tmp_path):
        log = EventLog(capacity=2)
        path = str(tmp_path / "stream.jsonl")
        sink = log.attach(JsonlSink(path))
        for i in range(5):  # more than the ring keeps
            log.record("e", i=i)
        sink.close()
        assert [e["i"] for e in EventLog.load_jsonl(path)] == list(range(5))


class TestTelemetryFacade:
    def test_use_telemetry_scopes_the_default(self):
        outer = get_telemetry()
        with use_telemetry(Telemetry()) as inner:
            assert get_telemetry() is inner
        assert get_telemetry() is outer

    def test_publish_folds_into_default(self, scoped):
        run = Telemetry()
        run.registry.counter("x").inc(3)
        run.events.record("e")
        with run.tracer.span("op"):
            pass
        run.publish()
        assert scoped.registry.total("x") == 3
        assert len(scoped.events.of_kind("e")) == 1
        assert scoped.tracer.find_roots("op")

    def test_null_telemetry_measures_nothing(self):
        NULL_TELEMETRY.registry.counter("x").inc()
        NULL_TELEMETRY.events.record("e")
        with NULL_TELEMETRY.tracer.span("op"):
            pass
        assert len(NULL_TELEMETRY.registry) == 0
        assert len(NULL_TELEMETRY.events) == 0
        assert len(NULL_TELEMETRY.tracer.roots) == 0

    def test_snapshot_dump_json(self, scoped, tmp_path):
        scoped.registry.counter("x").inc()
        path = str(tmp_path / "snap.json")
        scoped.dump_json(path)
        snap = json.loads(open(path).read())
        assert snap["metrics"]["counters"][0]["name"] == "x"


class TestSimulatorTelemetry:
    def test_delivery_metrics_per_kind(self):
        sim = Simulator()

        class Sink_(Process):
            def receive(self, message):
                pass

        sim.register(Sink_("a"))
        sim.register(Sink_("b"))
        sim.send(Message("a", "b", "ping", None, size=3), delay=5.0)
        sim.send(Message("b", "a", "pong", None, size=2), delay=7.0)
        sim.run_all()
        assert sim.messages_delivered == 2
        assert sim.bytes_delivered == 5
        registry = sim.telemetry.registry
        assert registry.counter("sim.messages.delivered", kind="ping").value == 1
        hist = registry.get("sim.delivery.latency", kind="pong")
        assert hist.count == 1 and hist.min == 7.0


class TestIntegration:
    """A full framework run emits the documented metric names and spans."""

    def test_route_and_protocol_emit_expected_telemetry(self, tiny_framework):
        with use_telemetry(Telemetry()) as telemetry:
            router = CachedHierarchicalRouter(tiny_framework.hfc)
            routed = 0
            attempt = 0
            while routed < 4:
                request = tiny_framework.random_request(seed=50 + attempt % 3)
                attempt += 1
                try:
                    router.route(request)
                    routed += 1
                except Exception:
                    if attempt > 20:
                        raise

            # one batched call: the same pipeline, the same span family
            batch = router.route_many_detailed(
                [tiny_framework.random_request(seed=50 + k % 3) for k in range(6)]
            )
            assert batch.ok_count == 6

            protocol = StateDistributionProtocol(tiny_framework.hfc, seed=5)
            report = protocol.run(max_time=20000.0)
            protocol.sim.telemetry.publish()

            registry = telemetry.registry
            names = set(registry.names())
            assert {"routing.requests", "routing.cache.hits",
                    "routing.cache.misses", "span.duration",
                    "sim.messages.delivered", "sim.bytes.delivered",
                    "sim.delivery.latency"} <= names

            # counters agree with the router's own stats and the report
            # one bump per request on both entry points; every pipeline
            # run is a batch (a single route is the batch of one)
            assert registry.total("routing.requests") == routed + 6
            assert registry.counter(
                "routing.batch.batches", router="hierarchical"
            ).value == routed + 1
            assert registry.counter(
                "routing.batch.requests", router="hierarchical"
            ).value == routed + 6
            sizes = registry.get("routing.batch.size", router="hierarchical")
            assert sizes.count == routed + 1 and sizes.max == 6
            assert (registry.counter("routing.cache.hits", cache="csp").value
                    == router.stats.hits)
            assert (registry.total("sim.messages.delivered")
                    == report.total_messages)
            assert (registry.total("sim.bytes.delivered")
                    == report.total_size)
            assert report.delivery_latency["local_state"]["p95"] > 0

            # span tree: every route span carries the four stage children
            # — whatever the size of the call
            roots = telemetry.tracer.find_roots("route")
            assert [r.attributes["requests"] for r in roots] == [1] * routed + [6]
            for root in roots:
                child_names = [c.name for c in root.children]
                assert child_names == [
                    "route.csp", "route.dissect", "route.conquer",
                    "route.compose",
                ]
            assert not any(
                span.name.startswith("route.batch")
                for root in telemetry.tracer.roots
                for span in root.walk()
            )
            assert "routing.batch.precompute_seconds" not in names

    def test_churn_and_session_events(self, tiny_framework):
        with use_telemetry(Telemetry()) as telemetry:
            dyn = DynamicOverlay(tiny_framework, restructure_tolerance=None)
            victim = dyn.proxies[-1]
            dyn.leave(victim)
            assert telemetry.events.of_kind("membership.leave")
            assert telemetry.registry.counter(
                "membership.events", kind="leave"
            ).value == 1

            router = tiny_framework.hierarchical_router()
            request = None
            for seed in range(50, 60):
                candidate = tiny_framework.random_request(seed=seed)
                try:
                    path = router.route(candidate)
                    request = candidate
                    break
                except Exception:
                    continue
            assert request is not None
            session = StreamingSession(
                tiny_framework.overlay, path, packet_count=5
            )
            session.run()
            assert telemetry.registry.counter(
                "session.packets", outcome="delivered"
            ).value == 5
            assert telemetry.registry.get("session.packet.latency").count == 5
