"""The simulated scheduler: determinism, policies, virtual time.

The harness's foundational promise (asserted here, relied on everywhere
else): an episode is a pure function of ``(seed, policy, fault plan,
input script)`` — same spec, same firing sequence, same emitted baskets,
bit for bit.
"""

import pytest

from repro.core.clock import VirtualClock
from repro.errors import SchedulerError
from repro.simtest import Episode, SimScheduler, execute
from repro.simtest.policies import make_policy, policy_names
from repro.simtest.sim import INGEST

ROWS = tuple((i % 25, i % 7) for i in range(40))


def spec(**overrides):
    base = dict(seed=11, rows=ROWS, workload="filter", policy="random")
    base.update(overrides)
    return Episode(**base)


class TestBitReproducibility:
    def test_same_spec_same_episode(self):
        first = execute(spec())
        second = execute(spec())
        assert first.episode.firings == second.episode.firings
        assert first.episode.basket_digests == second.episode.basket_digests
        assert first.episode.signature() == second.episode.signature()
        assert first.rows == second.rows

    def test_same_faulted_spec_same_episode(self):
        faulted = spec(batch_fault_rate=0.4, exception_rate=0.2)
        first = execute(faulted)
        second = execute(faulted)
        assert first.episode.signature() == second.episode.signature()
        assert first.delivered == second.delivered
        assert (
            first.episode.injected_exceptions
            == second.episode.injected_exceptions
        )

    def test_seed_changes_random_schedule(self):
        # time_step=0 makes every scripted batch due at once, so the
        # policy has real choices (ingest vs receptor vs factory) at
        # every firing — spaced input forces a single enabled candidate
        a = execute(spec(seed=1, time_step=0.0)).episode
        b = execute(spec(seed=2, time_step=0.0)).episode
        assert a.firing_names() != b.firing_names()

    def test_policy_changes_schedule(self):
        a = execute(spec(policy="priority", time_step=0.0)).episode
        b = execute(spec(policy="inverted", time_step=0.0)).episode
        assert a.firing_names() != b.firing_names()


class TestPolicies:
    @pytest.mark.parametrize(
        "policy", list(policy_names()) + ["starve:tap"]
    )
    def test_ingest_is_interleaved_not_front_loaded(self, policy):
        episode = execute(spec(policy=policy)).episode
        names = episode.firing_names()
        ingests = [i for i, n in enumerate(names) if n == INGEST]
        assert len(ingests) == len(spec().script())
        # scripted input arrives over virtual time, so processing firings
        # must appear between ingest firings, not only after all of them
        assert ingests[-1] > names.index("tap")

    def test_make_policy_rejects_unknown(self):
        with pytest.raises(SchedulerError):
            make_policy("fifo")

    def test_random_policy_requires_rng(self):
        with pytest.raises(SchedulerError):
            make_policy("random")


class TestSimSchedulerGuards:
    def test_threaded_start_refused(self):
        with pytest.raises(SchedulerError):
            SimScheduler(seed=0).start()

    def test_unbound_channel_is_an_error(self):
        sim = SimScheduler(seed=0, policy="priority")
        from repro.simtest import InputEvent

        with pytest.raises(SchedulerError):
            sim.run_episode([InputEvent.make(0.0, "nowhere", [(1, 2)])])

    def test_livelock_guard(self):
        class Perpetual:
            name = "spin"
            priority = 1

            def enabled(self):
                return True

            def activate(self):
                from repro.core.factory import ActivationResult

                return ActivationResult(fired=True)

        sim = SimScheduler(seed=0, policy="priority")
        sim.register(Perpetual())
        with pytest.raises(SchedulerError, match="quiesce"):
            sim.run_episode([], max_firings=25)


class TestVirtualClock:
    def test_advance_fires_timers_in_deadline_order(self):
        clock = VirtualClock()
        fired = []
        clock.schedule(clock.now() + 2.0, lambda: fired.append("late"))
        clock.schedule(clock.now() + 1.0, lambda: fired.append("early"))
        clock.advance(0.5)
        assert fired == []
        clock.advance(5.0)
        assert fired == ["early", "late"]

    def test_registration_breaks_deadline_ties(self):
        clock = VirtualClock()
        fired = []
        at = clock.now() + 1.0
        clock.schedule(at, lambda: fired.append("first"))
        clock.schedule(at, lambda: fired.append("second"))
        clock.set(at)
        assert fired == ["first", "second"]

    def test_past_deadline_refused(self):
        clock = VirtualClock()
        clock.advance(10.0)
        with pytest.raises(Exception):
            clock.schedule(clock.now() - 1.0, lambda: None)

    def test_next_timer_and_pending(self):
        clock = VirtualClock()
        assert clock.next_timer() == float("inf")
        clock.schedule(clock.now() + 3.0, lambda: None)
        assert clock.next_timer() == clock.now() + 3.0
        assert clock.pending_timers() == 1
        clock.advance(3.0)
        assert clock.pending_timers() == 0
