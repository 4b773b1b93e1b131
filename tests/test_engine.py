"""Unit tests for the discrete-event engine."""

import pickle

import pytest

from repro.sim.engine import Engine


def _noop():
    pass


class TestScheduling:
    def test_events_run_in_time_order(self):
        engine = Engine()
        log = []
        engine.schedule(30, lambda: log.append("c"))
        engine.schedule(10, lambda: log.append("a"))
        engine.schedule(20, lambda: log.append("b"))
        engine.run()
        assert log == ["a", "b", "c"]

    def test_same_cycle_fifo_order(self):
        engine = Engine()
        log = []
        for name in "abcd":
            engine.schedule(5, lambda n=name: log.append(n))
        engine.run()
        assert log == ["a", "b", "c", "d"]

    def test_now_tracks_event_time(self):
        engine = Engine()
        seen = []
        engine.schedule(42, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [42]

    def test_past_scheduling_clamped_to_now(self):
        engine = Engine()
        seen = []

        def late():
            engine.schedule(engine.now - 100, lambda: seen.append(engine.now))

        engine.schedule(50, late)
        engine.run()
        assert seen == [50]

    def test_schedule_in_relative(self):
        engine = Engine()
        seen = []
        engine.schedule(10, lambda: engine.schedule_in(
            5, lambda: seen.append(engine.now)))
        engine.run()
        assert seen == [15]


class TestDeterminismContract:
    """Regression pins for the ordering guarantees SIM006 and the runtime
    contracts (repro.analysis.contracts) rely on: same-cycle events run in
    FIFO scheduling order, and past scheduling clamps to ``now``."""

    def test_fifo_survives_nested_same_cycle_scheduling(self):
        # Children scheduled *during* cycle 5 run after the events that
        # were already queued for cycle 5, still in scheduling order.
        engine = Engine()
        log = []

        def first():
            log.append("first")
            engine.schedule(5, lambda: log.append("child-a"))
            engine.schedule(5, lambda: log.append("child-b"))

        engine.schedule(5, first)
        engine.schedule(5, lambda: log.append("second"))
        engine.run()
        assert log == ["first", "second", "child-a", "child-b"]

    def test_clamped_past_events_keep_fifo_order(self):
        # Events scheduled in the past clamp to now and slot in FIFO order
        # behind everything already queued for the current cycle.
        engine = Engine()
        log = []

        def late():
            log.append("late")
            engine.schedule(engine.now - 30, lambda: log.append("clamp-a"))
            engine.schedule(0, lambda: log.append("clamp-b"))

        engine.schedule(50, late)
        engine.schedule(50, lambda: log.append("peer"))
        engine.run()
        assert log == ["late", "peer", "clamp-a", "clamp-b"]
        assert engine.now == 50

    def test_fifo_order_preserved_across_horizon_resume(self):
        engine = Engine()
        log = []
        for name in ("a", "b"):
            engine.schedule(10, lambda n=name: log.append(n))
        engine.run(until=10)
        assert log == []
        for name in ("c", "d"):
            engine.schedule(10, lambda n=name: log.append(n))
        engine.run()
        assert log == ["a", "b", "c", "d"]

    def test_interleaved_components_serialize_by_schedule_call(self):
        # Two "components" interleaving schedule calls for the same cycle
        # observe one global FIFO order, not per-component order.
        engine = Engine()
        log = []
        for index in range(3):
            engine.schedule(7, lambda i=index: log.append(("alpha", i)))
            engine.schedule(7, lambda i=index: log.append(("beta", i)))
        engine.run()
        assert log == [("alpha", 0), ("beta", 0), ("alpha", 1),
                       ("beta", 1), ("alpha", 2), ("beta", 2)]


class TestHorizon:
    def test_until_is_exclusive(self):
        engine = Engine()
        log = []
        engine.schedule(10, lambda: log.append(10))
        engine.run(until=10)
        assert log == []
        assert engine.now == 10

    def test_resume_does_not_rerun_events(self):
        engine = Engine()
        log = []
        engine.schedule(10, lambda: log.append(10))
        engine.run(until=10)
        engine.run(until=20)
        assert log == [10]

    def test_time_advances_to_horizon_when_idle(self):
        engine = Engine()
        engine.run(until=500)
        assert engine.now == 500

    def test_far_future_event_executes_at_its_cycle(self):
        engine = Engine()
        seen = []
        far = 10_000_037
        engine.schedule(5, lambda: None)
        engine.schedule(far, lambda: seen.append(engine.now))
        engine.run(until=far)
        assert seen == []
        assert engine.now == far
        engine.run()
        assert seen == [far]
        assert engine.now == far

    def test_events_spawned_inside_horizon_run(self):
        engine = Engine()
        log = []
        engine.schedule(5, lambda: engine.schedule(
            6, lambda: log.append("child")))
        engine.run(until=10)
        assert log == ["child"]


class TestControl:
    def test_stop_halts_processing(self):
        engine = Engine()
        log = []
        engine.schedule(1, lambda: (log.append(1), engine.stop()))
        engine.schedule(2, lambda: log.append(2))
        engine.run()
        assert log == [(1, None)] or log == [1]
        assert engine.pending_events == 1

    def test_stop_keeps_unexecuted_tail(self):
        # Stopping mid-cycle keeps the rest of that cycle queued, in order.
        engine = Engine()
        log = []
        engine.schedule(3, lambda: (log.append("a"), engine.stop()))
        engine.schedule(3, lambda: log.append("b"))
        engine.schedule(3, lambda: log.append("c"))
        engine.run()
        assert log == ["a"]
        assert engine.pending_events == 2
        engine.run()
        assert log == ["a", "b", "c"]

    def test_callback_exception_leaves_queue_resumable(self):
        engine = Engine()
        log = []

        def boom():
            raise RuntimeError("injected")

        engine.schedule(5, lambda: log.append("before"))
        engine.schedule(6, boom)
        engine.schedule(7, lambda: log.append("after"))
        with pytest.raises(RuntimeError):
            engine.run()
        # The failing event is consumed (and counted); the tail survives.
        assert log == ["before"]
        assert engine.events_executed == 2
        assert engine.pending_events == 1
        engine.run()
        assert log == ["before", "after"]
        assert engine.events_executed == 3

    def test_pickle_roundtrip_preserves_pending_events(self):
        # Lambdas don't pickle, so use a module-level callable -- the same
        # constraint real checkpoints satisfy via bound methods of
        # picklable components.
        engine = Engine()
        far = 5_000_000
        engine.schedule(3, _noop)
        engine.schedule(far, _noop)
        engine.run(until=1)
        clone = pickle.loads(pickle.dumps(engine))
        assert clone.pending_events == 2
        assert clone.now == engine.now
        clone.schedule(3, _noop)
        clone.run()
        assert clone.now == far
        assert clone.pending_events == 0
        assert clone.events_executed == 3

    def test_pending_events_counter(self):
        engine = Engine()
        engine.schedule(1, lambda: None)
        engine.schedule(2, lambda: None)
        assert engine.pending_events == 2
        engine.run()
        assert engine.pending_events == 0
