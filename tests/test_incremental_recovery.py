"""Kill-and-restart recovery of incremental (Z-set) operator state.

The durability contract does not weaken on the incremental route:
circuit state (aggregate groups, join state, delta-window buffers)
rides the same checkpoint/WAL machinery, so a crash at any firing
boundary must recover to byte-identical output — pre-crash emission
plus post-recovery emission equals the uninterrupted run, and weighted
outputs still integrate to the one-shot answer over the full stream.
"""

from collections import Counter

import pytest

from repro import DataCell
from repro.durability import DurabilityConfig
from repro.incremental import integrate_weighted_rows
from repro.kernel.types import AtomType
from repro.simtest import Config, Episode, check, matrix

ROWS = [(k % 4, v) for k, v in zip(range(30), range(-6, 24))]
INCREMENTAL_CRASH = Config("incremental", crash=True)


# ----------------------------------------------------------------------
# seeded episodes through the differential harness
# ----------------------------------------------------------------------
@pytest.mark.parametrize("case", ["passthrough", "filter", "compound"])
@pytest.mark.parametrize("checkpoint_every", [None, 3])
def test_linear_circuit_crash_recovers_byte_identically(
    case, checkpoint_every
):
    spec = Episode(
        seed=101,
        rows=tuple(ROWS),
        workload=case,
        policy="priority",
        batch_size=4,
        crash_after=4,
        checkpoint_every=checkpoint_every,
        fsync="always",
    )
    result = check(spec, INCREMENTAL_CRASH)
    assert result.crashed
    assert result.ok, result.explain()


@pytest.mark.parametrize("size,slide,aggregate", [
    (4, 2, "sum"),
    (4, 4, "min"),
    (6, 3, "avg"),
])
def test_delta_window_crash_recovers_byte_identically(
    size, slide, aggregate
):
    spec = Episode(
        seed=202,
        rows=tuple((v,) for v, _ in ROWS),
        workload="count_window",
        policy="random",
        batch_size=3,
        crash_after=5,
        checkpoint_every=2,
        fsync="interval",
        window=(size, slide),
        aggregates=(aggregate,),
    )
    result = check(spec, INCREMENTAL_CRASH)
    assert result.crashed
    assert result.ok, result.explain()


def test_seeded_corpus_cycles_incremental_crash_episodes():
    """The CI generator must actually exercise incremental crashes."""
    # the incremental CI matrix: incremental,incremental,incremental+crash
    configs = [Config("incremental")] * 2 + [INCREMENTAL_CRASH]
    crash_specs = [e for e, c in matrix(configs, 60, 0) if c.crash]
    assert len(crash_specs) >= 8


# ----------------------------------------------------------------------
# weighted circuits (aggregate, join) through checkpoint + WAL directly
# ----------------------------------------------------------------------
def _agg_cell(directory):
    cell = DataCell(
        execution="incremental",
        durability=(
            DurabilityConfig(directory=directory, fsync="always")
            if directory is not None
            else None
        ),
    )
    cell.create_basket("feed", [("a", AtomType.INT), ("b", AtomType.INT)])
    handle = cell.submit_continuous(
        "select x.a, sum(x.b), count(x.b), min(x.b), max(x.b) "
        "from [select * from feed] as x group by x.a",
        name="agg",
    )
    return cell, handle


def _feed(cell, rows, batch=4):
    for i in range(0, len(rows), batch):
        cell.insert("feed", [list(r) for r in rows[i : i + batch]])
        cell.run_until_quiescent()


def test_aggregate_circuit_state_survives_crash(tmp_path):
    # uninterrupted reference
    ref_cell, ref_handle = _agg_cell(None)
    _feed(ref_cell, ROWS)
    reference = [tuple(r) for r in ref_handle.fetch()]

    # crash phase: checkpoint mid-stream, keep going, then die
    cell, handle = _agg_cell(tmp_path)
    _feed(cell, ROWS[:12])
    cell.checkpoint()
    _feed(cell, ROWS[12:20])
    pre = [tuple(r) for r in handle.fetch()]
    cell.durability.abandon()

    # recovery phase: same topology, same directory
    cell, handle = _agg_cell(tmp_path)
    report = cell.recover()
    assert report is not None
    cell.run_until_quiescent()
    remaining = ROWS[cell.basket("feed").total_in :]
    _feed(cell, remaining)
    post = [tuple(r) for r in handle.fetch()]
    cell.durability.close()

    assert pre + post == reference  # byte-identical delta sequence
    oneshot = Counter(integrate_weighted_rows(reference))
    assert Counter(integrate_weighted_rows(pre + post)) == oneshot


def _join_cell(directory):
    cell = DataCell(
        execution="incremental",
        durability=(
            DurabilityConfig(directory=directory, fsync="always")
            if directory is not None
            else None
        ),
    )
    cell.create_basket("lt", [("k", AtomType.INT), ("a", AtomType.INT)])
    cell.create_basket("rt", [("k", AtomType.INT), ("b", AtomType.INT)])
    handle = cell.submit_continuous(
        "select x.k, x.a, y.b from [select * from lt] as x, "
        "[select * from rt] as y where x.k = y.k",
        name="j",
    )
    return cell, handle


def test_join_circuit_state_survives_crash(tmp_path):
    left = [(i % 3, i) for i in range(16)]
    right = [(i % 5, 100 + i) for i in range(12)]

    def drive(cell, lrows, rrows):
        for i in range(0, max(len(lrows), len(rrows)), 4):
            if lrows[i : i + 4]:
                cell.insert("lt", [list(r) for r in lrows[i : i + 4]])
            if rrows[i : i + 4]:
                cell.insert("rt", [list(r) for r in rrows[i : i + 4]])
            cell.run_until_quiescent()

    ref_cell, ref_handle = _join_cell(None)
    drive(ref_cell, left, right)
    reference = [tuple(r) for r in ref_handle.fetch()]

    # splits land on drive() batch boundaries so reference and
    # crash+recovery ingest identical batches in identical order —
    # join emission order legitimately depends on arrival interleaving
    cell, handle = _join_cell(tmp_path)
    drive(cell, left[:8], right[:8])
    cell.checkpoint()
    drive(cell, left[8:12], right[8:12])
    pre = [tuple(r) for r in handle.fetch()]
    cell.durability.abandon()

    cell, handle = _join_cell(tmp_path)
    cell.recover()
    cell.run_until_quiescent()
    drive(
        cell,
        left[cell.basket("lt").total_in :],
        right[cell.basket("rt").total_in :],
    )
    post = [tuple(r) for r in handle.fetch()]
    cell.durability.close()

    assert pre + post == reference
    expected = Counter(
        (lk, la, rb) for lk, la in left for rk, rb in right if lk == rk
    )
    assert Counter(integrate_weighted_rows(pre + post)) == expected
