"""The kill-and-restart differential gate.

Seeded episodes (the same generator the CI job runs) must all pass —
recovered output byte-identical to the uninterrupted run — for plain
continuous queries and COUNT-window aggregates alike, across all fsync
policies and checkpoint cadences.  A deliberately planted
duplicate-delivery bug (high-water suppression disabled) must be
*caught*, proving the differential has teeth.
"""

import pytest

from repro.core.emitter import Emitter
from repro.simtest import Config, Episode, check, matrix, shrink

# the crash-recovery CI job's configuration matrix
CRASH_CONFIGS = [
    Config.parse(text)
    for text in (
        "reeval+crash", "basic+crash", "incremental+crash",
        "reeval+wire+crash", "incremental+wire+crash",
    )
]
CRASH = Config(crash=True)

# 4 chunks x 25 = 100 seeded episodes, the acceptance floor; chunking
# keeps per-test wall time visible and failures localized
CHUNK = 25


@pytest.mark.parametrize("chunk", range(4))
def test_seeded_crash_episodes_recover_byte_identically(chunk):
    episodes = list(matrix(CRASH_CONFIGS, (chunk + 1) * CHUNK, 0))
    for episode, config in episodes[chunk * CHUNK :]:
        result = check(episode, config)
        assert result.ok, result.explain()


def test_both_query_shapes_and_all_fsync_policies_are_exercised():
    specs = [episode for episode, _ in matrix(CRASH_CONFIGS, 100, 0)]
    cases = {s.workload for s in specs}
    assert "count_window" in cases
    assert len(cases) >= 4
    assert {s.fsync for s in specs} == {"interval", "off", "always"}
    assert any(s.checkpoint_every for s in specs)
    assert any(s.checkpoint_every is None for s in specs)
    # telemetry sampling must be exercised both on and off: the sys.*
    # streams are exempt from WAL and checkpoints, so recovery with
    # sampling enabled is its own failure mode
    assert {s.sampling for s in specs} == {True, False}


def test_explicit_mid_stream_crash_with_checkpoint():
    spec = Episode(
        seed=42,
        rows=tuple((v, v % 7) for v in range(30)),
        workload="passthrough",
        policy="priority",
        batch_size=4,
        crash_after=9,
        checkpoint_every=3,
        fsync="always",
    )
    result = check(spec, CRASH)
    assert result.crashed
    assert result.ok, result.explain()
    # the crash landed mid-stream: both phases must have delivered rows
    assert result.pre_crash
    assert result.post_recovery


def test_window_episode_recovers_partial_window_state():
    spec = Episode(
        seed=43,
        rows=tuple((v,) for v in range(25)),
        workload="count_window",
        window=(4, 2),
        aggregates=("sum",),
        policy="round-robin",
        batch_size=3,
        crash_after=8,
        checkpoint_every=4,
    )
    result = check(spec, Config("basic", crash=True))
    assert result.crashed
    assert result.ok, result.explain()


def test_crash_with_telemetry_sampling_is_byte_identical():
    """Sampling fills sys.* baskets that never touch the WAL or the
    checkpoints: user-visible output must be unchanged by their presence
    across a kill-and-restart."""
    spec = Episode(
        seed=45,
        rows=tuple((v, v % 5) for v in range(30)),
        workload="passthrough",
        policy="priority",
        batch_size=4,
        crash_after=9,
        checkpoint_every=3,
        fsync="always",
        sampling=True,
    )
    result = check(spec, CRASH)
    assert result.crashed
    assert result.ok, result.explain()
    assert result.pre_crash
    assert result.post_recovery


@pytest.fixture
def duplicate_delivery_bug(monkeypatch):
    """Disable high-water suppression: replayed rows re-deliver."""
    original = Emitter.activate

    def no_suppression(self):
        self.high_water_seq = -1  # forget everything ever delivered
        return original(self)

    monkeypatch.setattr(Emitter, "activate", no_suppression)


DUPLICATE_BUG_EPISODE = Episode(
    seed=44,
    rows=tuple((v + 11, 0) for v in range(20)),  # all pass the filter
    workload="filter",
    policy="priority",
    batch_size=2,
    crash_after=12,
    checkpoint_every=None,
    fsync="off",
)


def test_planted_duplicate_delivery_bug_is_caught(duplicate_delivery_bug):
    """The differential must flag the re-delivered duplicates."""
    result = check(DUPLICATE_BUG_EPISODE, CRASH)
    assert result.crashed
    assert not result.ok
    combined = result.pre_crash + result.post_recovery
    assert len(combined) > len(result.expected)  # duplicates, not loss


def test_planted_duplicate_delivery_bug_shrinks(duplicate_delivery_bug):
    """Crash episodes shrink like any other.  Without suppression even a
    clean restart re-delivers, so one row is the minimal repro."""
    shrunk, attempts = shrink(DUPLICATE_BUG_EPISODE, CRASH)
    assert len(shrunk.rows) == 1
    assert attempts <= 400
    result = check(shrunk, CRASH)
    assert not result.ok
    assert len(result.got) > len(result.expected)  # duplicates, not loss
