"""Fault injection: channel faults, injected exceptions, observability.

Two layers under test: :class:`FaultableChannel` must implement each
batch fault exactly (and keep the post-fault ``delivered`` ground
truth), and injected transition exceptions must flow through the same
paths a real crash would — ``Scheduler.on_exception``, the trace log's
``error`` events, and the flight recorder.
"""

import pytest

from repro.adapters.channels import InMemoryChannel
from repro.core.clock import VirtualClock
from repro.errors import DataCellError
from repro.obs.flightrec import FlightRecorder
from repro.simtest import Episode, FaultPlan, FaultableChannel, check, execute

ROWS = tuple((i % 30, i % 9) for i in range(36))


def make_channel(plan, clock=None):
    return FaultableChannel(
        InMemoryChannel("wire"), plan, clock or VirtualClock()
    )


class TestFaultPlan:
    def test_same_seed_same_decisions(self):
        a = FaultPlan(seed=3, batch_fault_rate=0.5, exception_rate=0.5)
        b = FaultPlan(seed=3, batch_fault_rate=0.5, exception_rate=0.5)
        decisions_a = [a.batch_action("wire", 4) for _ in range(20)]
        decisions_a += [a.should_raise("f") for _ in range(20)]
        decisions_b = [b.batch_action("wire", 4) for _ in range(20)]
        decisions_b += [b.should_raise("f") for _ in range(20)]
        assert decisions_a == decisions_b
        assert a.log == b.log

    def test_zero_rates_never_fault(self):
        plan = FaultPlan(seed=1)
        assert all(
            plan.batch_action("wire", 3) is None for _ in range(50)
        )
        assert not any(plan.should_raise("f") for _ in range(50))
        assert plan.log == []

    def test_unknown_kind_rejected(self):
        with pytest.raises(DataCellError):
            FaultPlan(kinds=("drop", "corrupt"))


class TestFaultableChannel:
    def test_drop_loses_the_batch_on_both_sides(self):
        channel = make_channel(
            FaultPlan(seed=0, batch_fault_rate=1.0, kinds=("drop",))
        )
        channel.push_many([(1, 1), (2, 2)])
        assert channel.poll() == []
        assert channel.delivered == []

    def test_duplicate_delivers_twice(self):
        channel = make_channel(
            FaultPlan(seed=0, batch_fault_rate=1.0, kinds=("duplicate",))
        )
        channel.push_many([(1, 1), (2, 2)])
        assert channel.poll() == [(1, 1), (2, 2), (1, 1), (2, 2)]
        assert channel.delivered == [(1, 1), (2, 2), (1, 1), (2, 2)]

    def test_reorder_permutes_within_the_batch(self):
        channel = make_channel(
            FaultPlan(seed=1, batch_fault_rate=1.0, kinds=("reorder",))
        )
        batch = [(i, i) for i in range(8)]
        channel.push_many(batch)
        polled = channel.poll()
        assert polled != batch  # seed 1 does shuffle this batch
        assert sorted(polled) == batch
        assert channel.delivered == polled

    def test_delay_holds_until_virtual_release(self):
        clock = VirtualClock()
        plan = FaultPlan(
            seed=0, batch_fault_rate=1.0, kinds=("delay",), delay_seconds=2.0
        )
        channel = make_channel(plan, clock)
        channel.push_many([(5, 5)])
        assert channel.poll() == []
        assert channel.delayed_batches() == 1
        assert channel.next_release() == clock.now() + 2.0
        clock.advance(2.0)
        assert channel.poll() == [(5, 5)]
        assert channel.delivered == [(5, 5)]
        assert channel.next_release() == float("inf")

    def test_pending_counts_due_delayed_batches(self):
        clock = VirtualClock()
        plan = FaultPlan(
            seed=0, batch_fault_rate=1.0, kinds=("delay",), delay_seconds=1.0
        )
        channel = make_channel(plan, clock)
        channel.push_many([(1, 1), (2, 2)])
        channel.poll()
        assert channel.pending() == 0  # held, not yet due
        clock.advance(1.0)
        assert channel.pending() == 2


class TestInjectedExceptions:
    def build(self, exception_rate=0.5):
        spec = Episode(
            seed=4, rows=ROWS, policy="random", exception_rate=exception_rate
        )
        return execute(spec)

    def test_exceptions_injected_and_pipeline_still_correct(self):
        outcome = self.build()
        assert outcome.episode.injected_exceptions > 0
        assert (
            sum(1 for r in outcome.faults.log if r.kind == "raise")
            == outcome.episode.injected_exceptions
        )
        # the differential still holds: a crash delays work, never eats it
        result = check(
            Episode(
                seed=4, rows=ROWS, policy="random", exception_rate=0.5
            )
        )
        assert result.ok, result.explain()

    def test_on_exception_hook_and_flight_recorder_fire(self):
        from repro.adapters.channels import InMemoryChannel as Chan
        from repro.core.engine import DataCell
        from repro.obs.metrics import MetricsRegistry
        from repro.simtest import InputEvent, SimScheduler
        from repro.kernel.types import AtomType

        metrics = MetricsRegistry(enabled=False)
        sim = SimScheduler(
            seed=4,
            policy="random",
            faults=FaultPlan(seed=4, exception_rate=0.9),
            metrics=metrics,
        )
        cell = DataCell(clock=sim.clock, scheduler=sim, metrics=metrics)
        cell.create_basket(
            "feed", [("a", AtomType.INT), ("b", AtomType.INT)]
        )
        channel = Chan("wire")
        cell.add_receptor("tap", ["feed"], channel=channel)
        sim.bind_channel("wire", channel)
        cell.submit_continuous(
            "select x.a from [select * from feed where feed.a > 1] as x"
        )
        recorder = FlightRecorder(cell)
        sim.on_exception = recorder.record_exception
        episode = sim.run_episode(
            [
                InputEvent.make(0.0, "wire", [(i, i) for i in range(30)]),
                InputEvent.make(0.0, "wire", [(i, i) for i in range(30)]),
            ]
        )
        assert episode.injected_exceptions > 0
        assert len(recorder.exceptions) == episode.injected_exceptions
        assert all(
            e["type"] == "InjectedFault" for e in recorder.exceptions
        )
        # the injected crash is attributed to the real victim transition
        victims = {e["transition"] for e in recorder.exceptions}
        assert victims <= {t.name for t in sim.transitions()}
        # and the shared trace saw the same error events
        errors = [e for e in sim.trace.events() if e.kind == "error"]
        assert len(errors) == episode.injected_exceptions
