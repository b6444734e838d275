"""The differential oracle and its shrinker.

Two halves: correct pipelines must pass the streaming ≡ one-shot check
under every policy, batching and fault mix (no false positives); and a
deliberately planted consumption bug must be caught *and* shrunk to a
repro of at most 10 input tuples (no false negatives, and failures come
back actionable).  The planted bug flips the query's input binding to
PEEK, which re-emits unconsumed tuples — exactly the class of
consumption-semantics mistake the harness exists to catch.
"""

import random

import pytest

from repro.core.factory import ConsumeMode
from repro.simtest import Config, Episode, cases, check, shrink


def random_spec(seed, **overrides):
    rng = random.Random(f"oracle-test:{seed}")
    fields = dict(
        seed=seed,
        rows=tuple(
            (rng.randint(-5, 30), rng.randint(0, 10))
            for _ in range(rng.randint(4, 50))
        ),
        workload=rng.choice(cases("sql")),
        policy=rng.choice(
            ["priority", "round-robin", "random", "inverted", "starve:tap"]
        ),
        batch_size=rng.choice((1, 2, 3, 5, 8)),
    )
    fields.update(overrides)
    return Episode(**fields)


class TestDifferentialHolds:
    @pytest.mark.parametrize("seed", range(12))
    def test_randomized_clean_episodes(self, seed):
        result = check(random_spec(seed))
        assert result.ok, result.explain()

    @pytest.mark.parametrize("seed", range(12, 20))
    def test_randomized_faulted_episodes(self, seed):
        result = check(
            random_spec(seed, batch_fault_rate=0.3, exception_rate=0.1)
        )
        assert result.ok, result.explain()

    def test_empty_stream(self):
        result = check(Episode(seed=0, rows=()))
        assert result.ok
        assert not result.got and not result.expected

    def test_faults_change_delivery_not_equivalence(self):
        spec = random_spec(99, batch_fault_rate=0.8, workload="passthrough")
        clean = check(
            Episode(seed=spec.seed, rows=spec.rows, workload="passthrough")
        )
        faulted = check(spec)
        assert clean.ok and faulted.ok
        # seed 99's heavy fault mix does drop/duplicate something, so the
        # two runs see genuinely different delivered streams
        assert faulted.got != clean.got


def peek_bug(handle):
    handle.factory.inputs[0].mode = ConsumeMode.PEEK


class TestPlantedBugRegression:
    BASE = None  # built once; shrinking re-checks dozens of candidates

    @classmethod
    def base_spec(cls):
        if cls.BASE is None:
            cls.BASE = random_spec(
                5, workload="filter", policy="random", batch_size=3
            )
        return cls.BASE

    def test_peek_bug_is_caught(self):
        result = check(self.base_spec(), bug=peek_bug)
        assert not result.ok
        assert result.extra  # PEEK re-emits: streaming has surplus rows

    def test_peek_bug_shrinks_to_at_most_ten_tuples(self):
        shrunk, attempts = shrink(self.base_spec(), bug=peek_bug)
        assert len(shrunk.rows) <= 10
        assert attempts <= 400
        # schedule simplified away too: no faults, deterministic policy
        assert shrunk.policy == "priority"
        assert shrunk.batch_fault_rate == 0.0
        # and the minimized spec still reproduces the failure
        assert not check(shrunk, bug=peek_bug).ok


class TestRepro:
    def test_render_repro_round_trips(self):
        spec = random_spec(7, batch_fault_rate=0.25)
        result = check(spec)
        calls = []
        eval(  # the repro line is designed to be pasted back
            result.repro(),
            {
                "Episode": Episode,
                "Config": Config,
                "check": lambda *args: calls.append(args),
            },
        )
        assert calls == [(spec, Config())]

    def test_explain_names_the_diff(self):
        result = check(self.failing_spec(), bug=peek_bug)
        text = result.explain()
        assert "Episode(" in text and "extra=" in text

    @staticmethod
    def failing_spec():
        return Episode(
            seed=5, rows=((11, 7), (29, 4), (21, 8), (19, 0))
        )
