"""Tests for the discrete-event engine.

The engine is one class with two shapes: driver-only (no plan: a single
heap) and laned (a plan of two or more shards: one heap per shard,
conservative windows). Every behavioural class below builds its engine
through ``self.make_sim()``; the ``...TwoShards`` subclasses at the bottom
re-run the same cases on a 2-shard engine whose test addresses span both
lanes, so one suite holds for both shapes.
"""

import gc
import multiprocessing
import pickle
import weakref

import pytest

from repro.netsim import Message, Process, ShardPlan, ShardProgram, Simulator, run_sharded
from repro.util.errors import StateError

#: the test addresses, split over two shards ("ghost" and "x" stay
#: unpartitioned: the driver's); 0.5 lower-bounds every cross-lane delay used
TWO_SHARDS = ShardPlan(
    shards=2,
    bounds=(0, 1, 2),
    lookahead=0.5,
    proxy_shard={
        "alice": 0, "bob": 1, "a": 0, "b": 1, "s": 1,
        "p0": 0, "p1": 1, "p2": 0, "p3": 1, "p4": 0,
    },
)


def two_shard_sim():
    return Simulator(plan=TWO_SHARDS)


class Recorder(Process):
    """Collects (time, message) pairs for assertions."""

    def __init__(self, address):
        super().__init__(address)
        self.received = []

    def receive(self, message):
        self.received.append((self.simulator.now, message))


class TestMessage:
    """A message is built once per send, so its representation is tuned;
    what callers and the worker pipes rely on must not move with it."""

    def test_positional_and_keyword_construction(self):
        positional = Message("a", "b", "k", {"x": 1}, 3)
        keyword = Message(sender="a", recipient="b", kind="k", payload={"x": 1}, size=3)
        assert positional == keyword
        assert (keyword.sender, keyword.recipient, keyword.kind) == ("a", "b", "k")
        assert (keyword.payload, keyword.size) == ({"x": 1}, 3)
        assert Message("a", "b", "k", None).size == 1

    def test_immutable(self):
        message = Message("a", "b", "k", None)
        for field in ("sender", "recipient", "kind", "payload", "size"):
            with pytest.raises(AttributeError):
                setattr(message, field, "other")
        with pytest.raises(AttributeError):
            message.extra = 1

    def test_hashes_and_compares_by_value(self):
        one, same = Message("a", "b", "k", (1, 2)), Message("a", "b", "k", (1, 2))
        assert one == same and hash(one) == hash(same)
        assert hash(one) == hash(("a", "b", "k", (1, 2), 1))
        assert one != Message("a", "b", "k", (1, 3))
        assert len({one, same, Message("b", "a", "k", (1, 2))}) == 2
        with pytest.raises(TypeError):
            hash(Message("a", "b", "k", {"unhashable": "payload"}))

    def test_survives_the_worker_pipe(self):
        # an outbox entry as a shard worker ships it at a barrier
        entry = (12.5, 0, 7, Message(3, ("traffic", 4), "hop", ((3, 0), (3, 4), 1), 2), 2.5)
        assert pickle.loads(pickle.dumps(entry)) == entry
        parent, child = multiprocessing.Pipe()
        try:
            child.send([entry])
            (received,) = parent.recv()
        finally:
            parent.close()
            child.close()
        assert received == entry
        assert type(received[3]) is Message and received[3].kind == "hop"


class TestScheduling:
    make_sim = staticmethod(Simulator)

    def test_clock_starts_at_zero(self):
        assert self.make_sim().now == 0.0

    def test_events_fire_in_time_order(self):
        sim = self.make_sim()
        fired = []
        sim.schedule(5.0, lambda: fired.append("late"))
        sim.schedule(1.0, lambda: fired.append("early"))
        sim.run_all()
        assert fired == ["early", "late"]

    def test_ties_fire_in_schedule_order(self):
        sim = self.make_sim()
        fired = []
        sim.schedule(1.0, lambda: fired.append("first"))
        sim.schedule(1.0, lambda: fired.append("second"))
        sim.run_all()
        assert fired == ["first", "second"]

    def test_negative_delay_rejected(self):
        with pytest.raises(StateError):
            self.make_sim().schedule(-1.0, lambda: None)

    def test_run_until_stops_at_boundary(self):
        sim = self.make_sim()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(10.0, lambda: fired.append(10))
        sim.run_until(5.0)
        assert fired == [1]
        assert sim.now == 5.0
        assert sim.pending_events == 1

    def test_run_until_includes_boundary_events(self):
        sim = self.make_sim()
        fired = []
        sim.schedule(5.0, lambda: fired.append(5))
        sim.run_until(5.0)
        assert fired == [5]

    def test_events_can_schedule_events(self):
        sim = self.make_sim()
        fired = []

        def chain():
            fired.append(sim.now)
            if len(fired) < 3:
                sim.schedule(1.0, chain)

        sim.schedule(1.0, chain)
        sim.run_all()
        assert fired == [1.0, 2.0, 3.0]

    def test_run_all_guards_runaway(self):
        sim = self.make_sim()

        def forever():
            sim.schedule(1.0, forever)

        sim.schedule(1.0, forever)
        with pytest.raises(StateError):
            sim.run_all(max_events=100)


class TestPeriodic:
    make_sim = staticmethod(Simulator)

    def test_schedule_every_fires_repeatedly(self):
        sim = self.make_sim()
        ticks = []
        sim.schedule_every(2.0, lambda: ticks.append(sim.now))
        sim.run_until(7.0)
        assert ticks == [2.0, 4.0, 6.0]

    def test_first_delay_override(self):
        sim = self.make_sim()
        ticks = []
        sim.schedule_every(5.0, lambda: ticks.append(sim.now), first_delay=1.0)
        sim.run_until(7.0)
        assert ticks == [1.0, 6.0]

    def test_until_stops_firings(self):
        sim = self.make_sim()
        ticks = []
        sim.schedule_every(1.0, lambda: ticks.append(sim.now), until=3.5)
        sim.run_until(10.0)
        assert ticks == [1.0, 2.0, 3.0]

    def test_invalid_period_rejected(self):
        with pytest.raises(StateError):
            self.make_sim().schedule_every(0.0, lambda: None)


class TestMessaging:
    make_sim = staticmethod(Simulator)

    def test_message_delivery(self):
        sim = self.make_sim()
        alice, bob = Recorder("alice"), Recorder("bob")
        sim.register(alice)
        sim.register(bob)
        sim.run_all()  # run start hooks
        sim.send(Message("alice", "bob", "ping", {"x": 1}, size=3), delay=2.0)
        sim.run_all()
        assert len(bob.received) == 1
        time, message = bob.received[0]
        assert time == 2.0
        assert message.kind == "ping"
        assert message.payload == {"x": 1}

    def test_delivery_counters(self):
        sim = self.make_sim()
        sim.register(Recorder("a"))
        sim.register(Recorder("b"))
        sim.send(Message("a", "b", "k", None, size=7), delay=1.0)
        sim.run_all()
        assert sim.messages_delivered == 1
        assert sim.bytes_delivered == 7

    def test_process_send_helper(self):
        sim = self.make_sim()
        alice, bob = Recorder("alice"), Recorder("bob")
        sim.register(alice)
        sim.register(bob)
        sim.run_all()
        alice.send("bob", "hello", 42, delay=1.5)
        sim.run_all()
        assert bob.received[0][1].payload == 42
        assert bob.received[0][1].sender == "alice"

    def ping_pong(self):
        """alice and bob answer each other three times, 2.0 apart; on the
        2-shard engine every reply is sent from inside the sender's window
        to a process on the other lane."""

        class Echo(Recorder):
            def receive(self, message):
                super().receive(message)
                if message.payload < 3:
                    self.send(message.sender, "ping", message.payload + 1, delay=2.0)

        sim = self.make_sim()
        alice, bob = Echo("alice"), Echo("bob")
        sim.register(alice)
        sim.register(bob)
        sim.send(Message("alice", "bob", "ping", 0), delay=1.0)
        sim.run_all()
        return sim, alice, bob

    def test_replies_between_processes(self):
        sim, alice, bob = self.ping_pong()
        assert [(t, m.payload) for t, m in bob.received] == [(1.0, 0), (5.0, 2)]
        assert [(t, m.payload) for t, m in alice.received] == [(3.0, 1), (7.0, 3)]
        assert sim.now == 7.0
        ledger = sim.conservation()
        assert (ledger["sent"], ledger["delivered"], ledger["pending"]) == (4, 4, 0)
        assert ledger["balanced"]

    def test_duplicate_address_rejected(self):
        sim = self.make_sim()
        sim.register(Recorder("a"))
        with pytest.raises(StateError):
            sim.register(Recorder("a"))

    def test_unknown_recipient_is_counted_drop(self):
        # in-flight messages to departed proxies must not crash the run:
        # delivery to an unregistered address is a cause-tagged drop
        sim = self.make_sim()
        sim.register(Recorder("a"))
        sim.send(Message("a", "ghost", "k", None), delay=1.0)
        sim.run_all()
        assert sim.messages_delivered == 0
        assert sim.messages_dropped == 1
        dropped = sim.telemetry.registry.counter(
            "sim.messages.dropped", kind="k", cause="unregistered"
        )
        assert dropped.value == 1

    def test_intercepted_drop_is_counted(self):
        sim = self.make_sim()
        sim.register(Recorder("a"))
        sim.register(Recorder("b"))
        sim.interceptor = lambda message, delay: []
        sim.send(Message("a", "b", "k", None), delay=1.0)
        sim.run_all()
        assert sim.messages_dropped == 1
        dropped = sim.telemetry.registry.counter(
            "sim.messages.dropped", kind="k", cause="intercepted"
        )
        assert dropped.value == 1

    def test_negative_delivery_delay_rejected(self):
        # An interceptor must not be able to queue a copy in the past. From
        # outside a run the copy goes from the driver straight into the
        # recipient's heap (on the laned shape: another lane's — the case
        # that used to slip through); from inside one it is a same-lane
        # event or, a -> b on the laned shape, an outbox entry.
        class Forwarder(Recorder):
            def receive(self, message):
                self.send("b", "k", None, delay=1.0)

        sim = self.make_sim()
        b = Recorder("b")
        sim.register(Forwarder("a"))
        sim.register(b)
        sim.run_until(10.0)
        sim.interceptor = lambda message, delay: None if message.kind == "go" else [-5.0]
        for recipient in ("b", "a", "ghost"):
            with pytest.raises(StateError, match="past"):
                sim.send(Message("a", recipient, "k", None), delay=1.0)
        sim.send(Message("x", "a", "go", None), delay=1.0)
        with pytest.raises(StateError, match="past"):
            sim.run_until(20.0)
        assert not b.received

    def test_unregistered_process_cannot_send(self):
        ghost = Recorder("ghost")
        with pytest.raises(StateError):
            ghost.send("x", "k", None, delay=1.0)

    def test_start_hook_runs(self):
        class Starter(Process):
            def __init__(self):
                super().__init__("s")
                self.started_at = None

            def start(self):
                self.started_at = self.simulator.now

        sim = self.make_sim()
        starter = Starter()
        sim.register(starter)
        sim.run_all()
        assert starter.started_at == 0.0


class TestLifecycle:
    make_sim = staticmethod(Simulator)

    def test_deregister_removes_process(self):
        sim = self.make_sim()
        a = Recorder("a")
        sim.register(a)
        assert sim.is_registered("a")
        assert sim.process_count == 1
        returned = sim.deregister("a")
        assert returned is a
        assert a.simulator is None
        assert not sim.is_registered("a")
        assert sim.process_count == 0

    def test_deregister_unknown_raises(self):
        with pytest.raises(StateError):
            self.make_sim().deregister("ghost")

    def test_in_flight_to_departed_is_dropped_not_raised(self):
        sim = self.make_sim()
        sim.register(Recorder("a"))
        bob = Recorder("b")
        sim.register(bob)
        sim.send(Message("a", "b", "k", None), delay=2.0)
        sim.run_until(1.0)
        sim.deregister("b")
        sim.run_all()  # the delivery fires after departure: drop, no crash
        assert bob.received == []
        assert sim.messages_dropped == 1
        assert sim.conservation()["balanced"]

    def test_owned_periodic_stops_after_deregister(self):
        sim = self.make_sim()
        a = Recorder("a")
        sim.register(a)
        ticks = []
        sim.schedule_every(1.0, lambda: ticks.append(sim.now), owner="a")
        sim.run_until(3.5)
        sim.deregister("a")
        sim.run_until(10.0)
        assert ticks == [1.0, 2.0, 3.0]

    def test_unowned_periodic_survives_deregister(self):
        sim = self.make_sim()
        sim.register(Recorder("a"))
        ticks = []
        sim.schedule_every(1.0, lambda: ticks.append(sim.now))
        sim.run_until(1.5)
        sim.deregister("a")
        sim.run_until(3.5)
        assert ticks == [1.0, 2.0, 3.0]


class TestConservation:
    make_sim = staticmethod(Simulator)

    def test_duplicated_copies_balance(self):
        sim = self.make_sim()
        sim.register(Recorder("a"))
        sim.register(Recorder("b"))
        sim.interceptor = lambda message, delay: [delay, delay + 1.0]
        sim.send(Message("a", "b", "k", None), delay=1.0)
        sim.run_all()
        ledger = sim.conservation()
        assert ledger["sent"] == 1
        assert ledger["duplicated"] == 1
        assert ledger["delivered"] == 2
        assert ledger["balanced"]

    def test_pending_counts_in_flight(self):
        sim = self.make_sim()
        sim.register(Recorder("a"))
        sim.register(Recorder("b"))
        sim.send(Message("a", "b", "k", None), delay=5.0)
        sim.run_until(1.0)
        ledger = sim.conservation()
        assert ledger["pending"] == 1
        assert ledger["balanced"]
        sim.run_all()
        assert sim.conservation()["pending"] == 0

    def test_refused_send_moves_no_tally(self):
        # A negative size used to surface as TelemetryError at the delivery,
        # with the receiver on the stack and pending/delivered already moved;
        # a negative delay in an interceptor's list after pending had moved.
        # Both are refused in send, from outside a run and from inside one
        # (a -> b: a same-lane event plan-less, an outbox entry on two lanes).
        class Sender(Recorder):
            def receive(self, message):
                self.send("b", "k", None, delay=1.0, size=message.payload)

        sim = self.make_sim()
        b = Recorder("b")
        sim.register(Sender("a"))
        sim.register(b)
        sim.send(Message("x", "b", "k", None, size=4), delay=1.0)
        sim.run_until(5.0)
        before = sim.conservation()
        assert before["balanced"] == 1 and before["delivered"] == 1

        with pytest.raises(StateError, match="negative size"):
            sim.send(Message("x", "b", "k", None, size=-1), delay=1.0)
        assert sim.conservation() == before
        sim.interceptor = lambda message, delay: [delay, -0.5]
        with pytest.raises(StateError, match="past"):
            sim.send(Message("x", "b", "k", None), delay=1.0)
        assert sim.conservation() == before
        sim.interceptor = None

        sim.send(Message("x", "a", "go", -3), delay=1.0)
        with pytest.raises(StateError, match="negative size"):
            sim.run_until(10.0)
        after = sim.conservation()
        assert after["balanced"] == 1
        # the trigger was delivered; the refused reply was never sent
        assert (after["sent"], after["delivered"]) == (before["sent"] + 1, 2)
        assert after["pending"] == 0 and len(b.received) == 1
        assert sim.bytes_delivered == 5

    def test_property_random_lifecycle_conserves(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        ops = st.lists(
            st.tuples(
                st.sampled_from(["send", "dup", "drop", "leave", "run"]),
                st.integers(min_value=0, max_value=4),
                st.floats(min_value=0.1, max_value=8.0),
            ),
            min_size=1,
            max_size=40,
        )

        @settings(max_examples=40, deadline=None)
        @given(ops)
        def check(sequence):
            sim = self.make_sim()
            names = [f"p{i}" for i in range(5)]
            for name in names:
                sim.register(Recorder(name))
            for op, idx, delay in sequence:
                target = names[idx]
                if op == "send":
                    sim.interceptor = None
                    sim.send(Message("p0", target, "k", None), delay=delay)
                elif op == "dup":
                    sim.interceptor = lambda m, d: [d, d + 0.5]
                    sim.send(Message("p0", target, "k", None), delay=delay)
                elif op == "drop":
                    sim.interceptor = lambda m, d: []
                    sim.send(Message("p0", target, "k", None), delay=delay)
                elif op == "leave":
                    if sim.is_registered(target) and target != "p0":
                        sim.deregister(target)
                elif op == "run":
                    sim.run_until(sim.now + delay)
                ledger = sim.conservation()
                assert ledger["balanced"], ledger
            sim.run_all()
            final = sim.conservation()
            assert final["pending"] == 0
            assert final["balanced"], final

        check()


class _Cycle:
    """An object in a reference cycle with itself."""

    def __init__(self):
        self.me = self


def _collector_state():
    return gc.isenabled(), gc.get_threshold(), gc.get_freeze_count()


class _TimerProgram(ShardProgram):
    """Every shard runs *action* once, at t=1."""

    def __init__(self, action):
        self.action = action

    def setup(self, sim, view, plan):
        sim.schedule(1.0, self.action)


def _run_timer(sim, action):
    sim.schedule(1.0, action)
    sim.run_until(5.0)


#: the ways into the pop loop; run_sharded nests run_until's bracket in its own
RUNS = {
    "plan-less": lambda action: _run_timer(Simulator(), action),
    "two-shards": lambda action: _run_timer(two_shard_sim(), action),
    "run_sharded": lambda action: run_sharded(TWO_SHARDS, _TimerProgram(action), 5.0),
}


def _set_collecting(enabled):
    (gc.enable if enabled else gc.disable)()


@pytest.mark.parametrize("how", sorted(RUNS))
class TestCollector:
    """The run loops keep the cyclic collector out of the way and put the
    process-wide collector state back exactly as they found it."""

    @pytest.fixture(autouse=True)
    def _restore_collector(self):
        enabled, threshold, _ = _collector_state()
        yield
        _set_collecting(enabled)
        gc.set_threshold(*threshold)

    @pytest.mark.parametrize("enabled", [True, False])
    def test_state_is_put_back(self, how, enabled):
        _set_collecting(enabled)
        gc.set_threshold(701, 11, 9)
        before = _collector_state()
        ran = []
        RUNS[how](lambda: ran.append(1))
        assert ran and _collector_state() == before

    @pytest.mark.parametrize("enabled", [True, False])
    def test_state_is_put_back_when_an_action_raises(self, how, enabled):
        _set_collecting(enabled)
        before = _collector_state()

        def boom():
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            RUNS[how](boom)
        assert _collector_state() == before

    def test_cycles_made_by_an_action_go_at_the_next_collection(self, how):
        made = []
        RUNS[how](lambda: made.extend(weakref.ref(_Cycle()) for _ in range(50)))
        assert len(made) >= 50
        gc.collect()
        assert all(ref() is None for ref in made)


class TestAccountingMidRun:
    make_sim = staticmethod(Simulator)

    def test_reader_mid_run_sees_every_delivery_before_it(self):
        sim = self.make_sim()
        sim.register(Recorder("a"))
        sim.register(Recorder("b"))
        for i in range(6):
            sim.send(Message("a", "b" if i % 2 else "a", "k", None, size=3), delay=1.0 + i)
        seen = []

        def read():
            registry = sim.telemetry.registry
            seen.append((
                sim.now,
                registry.total("sim.messages.delivered"),
                registry.total("sim.bytes.delivered"),
                sim.conservation(),
            ))

        for at in (0.5, 2.5, 4.25, 6.5):
            sim.schedule(at, read)
        sim.run_until(10.0)
        assert [(now, count) for now, count, _, _ in seen] == [
            (0.5, 0), (2.5, 2), (4.25, 4), (6.5, 6)
        ]
        for _, count, size_units, ledger in seen:
            assert size_units == 3 * count
            assert ledger["delivered"] == count and ledger["pending"] == 6 - count
            assert ledger["balanced"] == 1


# -- the same suite on the laned shape ------------------------------------------


class TestSchedulingTwoShards(TestScheduling):
    make_sim = staticmethod(two_shard_sim)


class TestPeriodicTwoShards(TestPeriodic):
    make_sim = staticmethod(two_shard_sim)


class TestMessagingTwoShards(TestMessaging):
    make_sim = staticmethod(two_shard_sim)

    def test_fixture_spans_both_lanes(self):
        sim = self.make_sim()
        assert sim.shards == 2
        assert TWO_SHARDS.shard_of("alice") != TWO_SHARDS.shard_of("bob")
        assert TWO_SHARDS.shard_of("p0") != TWO_SHARDS.shard_of("p1")

    def test_replies_went_through_the_outboxes(self):
        sim, _alice, _bob = self.ping_pong()
        # the first message came from outside a run (the driver pushes
        # straight into the heap); the three replies crossed at barriers
        assert sim.exchanged == 3
        assert sim.windows > 0


class TestLifecycleTwoShards(TestLifecycle):
    make_sim = staticmethod(two_shard_sim)


class TestConservationTwoShards(TestConservation):
    make_sim = staticmethod(two_shard_sim)


class TestAccountingMidRunTwoShards(TestAccountingMidRun):
    make_sim = staticmethod(two_shard_sim)


class TestRegisterAcrossLanes:
    """``register`` lands ``start`` at *now* on the owner's heap. Only the
    driver, which runs at barriers, may do that to another lane: a shard
    lane's neighbour may already have run past *now*."""

    class Host(Process):
        """Runs *action* on its own lane at *at*."""

        def __init__(self, address, at, action):
            super().__init__(address)
            self.at, self.action = at, action

        def start(self):
            self.simulator.schedule(self.at, self.action)

    def test_shard_lane_cannot_register_on_another_lane(self):
        # lane 0 runs a timer at t=8 inside the first window; lane 1's timer
        # at t=5 then registers a lane-0 address, whose start at t=5 would
        # take lane 0's clock from 8 back to 5 in the next window
        sim = Simulator(plan=ShardPlan(
            shards=2, bounds=(0, 1, 2), lookahead=10.0,
            proxy_shard={"a": 0, "late": 0, "b": 1},
        ))
        clock = []
        late = Recorder("late")
        sim.register(self.Host("a", 8.0, lambda: clock.append(sim.now)))
        sim.register(self.Host("b", 5.0, lambda: sim.register(late)))
        with pytest.raises(StateError, match="shard 1 cannot register 'late'.*shard 0"):
            sim.run_until(20.0)
        assert clock == [8.0] and not sim.is_registered("late")

    def test_own_lane_and_driver_may_register(self):
        sim = two_shard_sim()
        started = []

        class Starter(Process):
            def start(self):
                started.append((self.address, self.simulator.now))

        # bob's lane registers its own address; a driver timer, any address
        sim.register(self.Host("bob", 5.0, lambda: sim.register(Starter("p1"))))
        sim.schedule(7.0, lambda: sim.register(Starter("p0")))
        sim.schedule(7.0, lambda: sim.register(Starter("ghost")))
        sim.run_until(6.0)
        sim.register(Starter("p2"))
        sim.run_until(20.0)
        # at the t=7 barrier the driver's own heap runs before the lanes'
        assert started == [("p1", 5.0), ("p2", 6.0), ("ghost", 7.0), ("p0", 7.0)]
