"""Unit and property tests for baskets (the key DataCell structure)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.basket import Basket, TIME_COLUMN
from repro.core.clock import LogicalClock
from repro.errors import BasketError
from repro.kernel.bat import bat_from_values
from repro.kernel.mal import ResultSet
from repro.kernel.types import AtomType


@pytest.fixture
def clock():
    return LogicalClock()


@pytest.fixture
def basket(clock):
    return Basket("b", [("v", AtomType.INT), ("s", AtomType.STR)], clock)


class TestSchema:
    def test_implicit_time_column(self, basket):
        assert basket.schema.has(TIME_COLUMN)
        assert [c.name for c in basket.user_columns] == ["v", "s"]

    def test_user_columns_computed_once(self, basket):
        assert TIME_COLUMN not in [c.name for c in basket.user_columns]
        assert basket.user_columns is basket.user_columns
        basket.insert_rows([(1, "a")])
        assert [c.name for c in basket.user_columns] == ["v", "s"]

    def test_reserved_names_rejected(self, clock):
        with pytest.raises(BasketError):
            Basket("b", [("dc_time", AtomType.INT)], clock)
        with pytest.raises(BasketError):
            Basket("b", [("dc_seq", AtomType.INT)], clock)

    def test_is_basket_flag(self, basket):
        assert basket.is_basket


class TestIngest:
    def test_insert_stamps_time(self, basket, clock):
        clock.advance(5.0)
        basket.insert_rows([(1, "x")])
        assert basket.rows() == [(1, "x", 5.0)]

    def test_explicit_timestamp(self, basket):
        basket.insert_rows([(1, "x")], timestamp=9.5)
        assert basket.rows()[0][2] == 9.5

    def test_arity_checked(self, basket):
        with pytest.raises(BasketError):
            basket.insert_rows([(1,)])

    def test_empty_insert_is_noop(self, basket):
        assert basket.insert_rows([]) == 0

    def test_insert_columns(self, basket):
        n = basket.insert_columns(
            {
                "v": np.array([1, 2], dtype=np.int32),
                "s": np.array(["a", "b"], dtype=object),
            }
        )
        assert n == 2 and basket.count == 2

    def test_insert_columns_must_cover_user_schema(self, basket):
        with pytest.raises(BasketError):
            basket.insert_columns({"v": np.array([1], dtype=np.int32)})

    def test_statistics(self, basket):
        basket.insert_rows([(1, "a"), (2, "b")])
        assert basket.total_in == 2
        basket.consume_all()
        assert basket.total_out == 2

    def test_frontier_advances(self, basket):
        assert basket.frontier_seq() == -1
        basket.insert_rows([(1, "a")])
        assert basket.frontier_seq() == 0
        basket.consume_all()
        basket.insert_rows([(2, "b")])
        assert basket.frontier_seq() == 1


class TestSnapshot:
    def test_snapshot_is_rebased_to_zero(self, basket):
        basket.insert_rows([(1, "a"), (2, "b")])
        basket.consume_all()
        basket.insert_rows([(3, "c")])
        snap = basket.snapshot()
        assert snap.count == 1
        assert snap.column("v").hseqbase == 0
        assert snap.seqs.tolist() == [2]

    def test_snapshot_isolated_from_later_inserts(self, basket):
        basket.insert_rows([(1, "a")])
        snap = basket.snapshot()
        basket.insert_rows([(2, "b")])
        assert snap.count == 1

    def test_snapshot_since_seq(self, basket):
        basket.insert_rows([(1, "a"), (2, "b"), (3, "c")])
        snap = basket.snapshot(since_seq=0)
        assert snap.column("v").python_list() == [2, 3]

    def test_unknown_column(self, basket):
        basket.insert_rows([(1, "a")])
        with pytest.raises(BasketError):
            basket.snapshot().column("zzz")


class TestConsumption:
    def test_consume_all(self, basket):
        basket.insert_rows([(1, "a"), (2, "b")])
        assert basket.consume_all() == 2
        assert basket.count == 0

    def test_consume_seqs_partial(self, basket):
        basket.insert_rows([(i, "x") for i in range(5)])
        removed = basket.consume_seqs(np.array([0, 2, 4]))
        assert removed == 3
        assert [r[0] for r in basket.rows()] == [1, 3]

    def test_consume_seqs_empty_is_noop(self, basket):
        basket.insert_rows([(1, "a")])
        assert basket.consume_seqs(np.array([], dtype=np.int64)) == 0

    def test_sequences_survive_partial_consume(self, basket):
        basket.insert_rows([(i, "x") for i in range(4)])
        basket.consume_seqs(np.array([1, 2]))
        snap = basket.snapshot()
        assert snap.seqs.tolist() == [0, 3]

    def test_consume_twice_is_idempotent(self, basket):
        basket.insert_rows([(1, "a")])
        basket.consume_seqs(np.array([0]))
        assert basket.consume_seqs(np.array([0])) == 0


class TestSharedReaders:
    def test_register_and_read(self, basket):
        basket.insert_rows([(1, "a")])
        basket.register_reader("q1")
        snap = basket.read_new("q1")
        assert snap.count == 1

    def test_duplicate_registration(self, basket):
        basket.register_reader("q1")
        with pytest.raises(BasketError):
            basket.register_reader("q1")

    def test_unregistered_reader(self, basket):
        with pytest.raises(BasketError):
            basket.read_new("ghost")

    def test_cursor_advance_hides_seen(self, basket):
        basket.register_reader("q1")
        basket.insert_rows([(1, "a"), (2, "b")])
        snap = basket.read_new("q1")
        basket.advance_reader("q1", int(snap.seqs.max()))
        assert basket.read_new("q1").count == 0
        basket.insert_rows([(3, "c")])
        assert basket.read_new("q1").count == 1

    def test_gc_waits_for_all_readers(self, basket):
        """Shared strategy: tuple removed only after all readers saw it."""
        basket.register_reader("q1")
        basket.register_reader("q2")
        basket.insert_rows([(1, "a")])
        basket.advance_reader("q1", 0)
        assert basket.gc_shared() == 0, "q2 has not seen the tuple yet"
        assert basket.count == 1
        basket.advance_reader("q2", 0)
        assert basket.gc_shared() == 1
        assert basket.count == 0

    def test_unseen_count(self, basket):
        basket.register_reader("q1")
        basket.insert_rows([(1, "a"), (2, "b")])
        assert basket.unseen_count("q1") == 2
        basket.advance_reader("q1", 0)
        assert basket.unseen_count("q1") == 1

    def test_new_reader_sees_buffered(self, basket):
        basket.insert_rows([(1, "a")])
        basket.register_reader("late")
        assert basket.read_new("late").count == 1

    def test_unregister_triggers_gc(self, basket):
        basket.register_reader("q1")
        basket.register_reader("q2")
        basket.insert_rows([(1, "a")])
        basket.advance_reader("q1", 0)
        basket.unregister_reader("q2")
        assert basket.count == 0

    def test_gc_without_readers_is_noop(self, basket):
        basket.insert_rows([(1, "a")])
        assert basket.gc_shared() == 0


class TestLoadShedding:
    def test_capacity_drops_oldest(self, basket):
        basket.capacity = 3
        basket.insert_rows([(i, "x") for i in range(5)])
        assert basket.count == 3
        assert [r[0] for r in basket.rows()] == [2, 3, 4]
        assert basket.total_shed == 2

    def test_no_capacity_never_sheds(self, basket):
        basket.insert_rows([(i, "x") for i in range(100)])
        assert basket.total_shed == 0


class TestAppendResult:
    def test_append_result(self, basket, clock):
        clock.advance(2.0)
        rs = ResultSet(
            ["v", "s"],
            [
                bat_from_values(AtomType.INT, [7]),
                bat_from_values(AtomType.STR, ["z"]),
            ],
        )
        assert basket.append_result(rs) == 1
        assert basket.rows() == [(7, "z", 2.0)]

    def test_append_result_with_time(self, basket):
        rs = ResultSet(
            ["v", "s", TIME_COLUMN],
            [
                bat_from_values(AtomType.INT, [7]),
                bat_from_values(AtomType.STR, ["z"]),
                bat_from_values(AtomType.TIMESTAMP, [4.5]),
            ],
        )
        basket.append_result(rs)
        assert basket.rows()[0][2] == 4.5

    def test_append_result_arity_checked(self, basket):
        rs = ResultSet(["v"], [bat_from_values(AtomType.INT, [7])])
        with pytest.raises(BasketError):
            basket.append_result(rs)

    def test_empty_result_is_noop(self, basket):
        rs = ResultSet(
            ["v", "s"],
            [
                bat_from_values(AtomType.INT, []),
                bat_from_values(AtomType.STR, []),
            ],
        )
        assert basket.append_result(rs) == 0


class TestProperties:
    @given(
        st.lists(st.integers(-100, 100), min_size=1, max_size=60),
        st.data(),
    )
    def test_partial_consume_keeps_complement(self, values, data):
        clock = LogicalClock()
        b = Basket("p", [("v", AtomType.INT)], clock)
        b.insert_rows([(v,) for v in values])
        to_remove = data.draw(
            st.lists(
                st.integers(0, len(values) - 1), unique=True, max_size=30
            )
        )
        b.consume_seqs(np.asarray(to_remove, dtype=np.int64))
        expected = [
            v for i, v in enumerate(values) if i not in set(to_remove)
        ]
        assert [r[0] for r in b.rows()] == expected

    @given(st.lists(st.integers(0, 50), min_size=1, max_size=40))
    def test_conservation(self, values):
        """total_in == count + total_out at all times (no tuple loss)."""
        clock = LogicalClock()
        b = Basket("c", [("v", AtomType.INT)], clock)
        for v in values:
            b.insert_rows([(v,)])
            if v % 3 == 0:
                b.consume_all()
            assert b.total_in == b.count + b.total_out
