"""Integration tests for the DataCell engine façade.

These drive the full user journey: DDL through SQL, continuous query
registration, stream ingest, scheduling, and result delivery — including
the paper's q1/q2 basket-expression semantics verbatim (§2.6).
"""

import pytest

from repro import DataCell, LogicalClock, WindowMode, WindowSpec
from repro.errors import BindError, CatalogError, DataCellError, SqlError


@pytest.fixture
def cell():
    return DataCell(clock=LogicalClock())


class TestDdl:
    def test_create_table_and_insert(self, cell):
        cell.execute("create table t (a int, b varchar(10))")
        cell.execute("insert into t values (1, 'x'), (2, 'y')")
        assert cell.query("select * from t") == [(1, "x"), (2, "y")]

    def test_create_basket(self, cell):
        cell.execute("create basket s (v int)")
        assert cell.basket("s").is_basket

    def test_create_stream_synonym(self, cell):
        cell.execute("create stream s (v int)")
        assert cell.basket("s").is_basket

    def test_drop(self, cell):
        cell.execute("create table t (a int)")
        cell.execute("drop table t")
        with pytest.raises(CatalogError):
            cell.query("select * from t")

    def test_duplicate_create_rejected(self, cell):
        cell.execute("create table t (a int)")
        with pytest.raises(CatalogError):
            cell.execute("create table T (a int)")

    def test_insert_with_column_order(self, cell):
        cell.execute("create table t (a int, b int)")
        cell.execute("insert into t (b, a) values (2, 1)")
        assert cell.query("select a, b from t") == [(1, 2)]

    def test_insert_negative_literals(self, cell):
        cell.execute("create table t (a int)")
        cell.execute("insert into t values (-5)")
        assert cell.query("select a from t") == [(-5,)]

    def test_insert_non_literal_rejected(self, cell):
        cell.execute("create table t (a int)")
        with pytest.raises(BindError):
            cell.execute("insert into t values (1 + 2)")

    def test_insert_into_basket_stamps_time(self, cell):
        cell.execute("create basket s (v int)")
        cell.clock.advance(7.0)
        cell.execute("insert into s values (1)")
        assert cell.basket("s").rows() == [(1, 7.0)]

    def test_basket_not_table(self, cell):
        cell.execute("create table t (a int)")
        with pytest.raises(DataCellError):
            cell.basket("t")

    def test_query_rejects_continuous(self, cell):
        cell.execute("create basket s (v int)")
        with pytest.raises(SqlError):
            cell.query("select * from [select * from s] as x")


class TestContinuousQueries:
    def test_paper_q1_all_tuples_considered(self, cell):
        """q1: basket expression requests all tuples, outer filters."""
        cell.execute("create basket R (a int)")
        q1 = cell.submit_continuous(
            "select * from [select * from R] as S where S.a > 10"
        )
        cell.insert("R", [(5,), (15,), (25,)])
        cell.run_until_quiescent()
        assert q1.fetch() == [(15,), (25,)]
        assert cell.basket("R").count == 0, (
            "q1 consumes all tuples, qualifying or not"
        )

    def test_paper_q2_predicate_window(self, cell):
        """q2: the basket expression filters first; only the predicate
        window is consumed, the rest stays."""
        cell.execute("create basket R (a int, b int)")
        q2 = cell.submit_continuous(
            "select * from [select * from R where R.b < 20] as S "
            "where S.a > 10"
        )
        cell.insert("R", [(15, 10), (15, 30), (5, 10)])
        cell.run_until_quiescent()
        assert q2.fetch() == [(15, 10)]
        # (15, 30) has b >= 20: outside the predicate window, stays
        leftover = [(r[0], r[1]) for r in cell.basket("R").rows()]
        assert leftover == [(15, 30)]

    def test_results_flow_incrementally(self, cell):
        cell.execute("create basket s (v int)")
        q = cell.submit_continuous(
            "select * from [select * from s] as x where x.v > 0"
        )
        cell.insert("s", [(1,)])
        cell.run_until_quiescent()
        assert q.fetch() == [(1,)]
        cell.insert("s", [(2,), (-1,)])
        cell.run_until_quiescent()
        assert q.fetch() == [(2,)]

    def test_multiple_queries_separate_baskets_by_default(self, cell):
        """Each continuous query consumes from the basket; with two
        plain-SQL queries on one basket, whoever fires first wins the
        tuples — the engine-level strategies module provides sharing."""
        cell.execute("create basket s (v int)")
        q1 = cell.submit_continuous(
            "select * from [select * from s] as x where x.v > 0"
        )
        cell.insert("s", [(1,)])
        cell.run_until_quiescent()
        assert q1.fetch() == [(1,)]

    def test_aggregate_continuous_query(self, cell):
        cell.execute("create basket s (grp varchar(5), v int)")
        q = cell.submit_continuous(
            "select x.grp, sum(x.v) total from [select * from s] as x "
            "group by x.grp order by x.grp"
        )
        cell.insert("s", [("a", 1), ("b", 10), ("a", 2)])
        cell.run_until_quiescent()
        assert q.fetch() == [("a", 3), ("b", 10)]

    def test_stream_table_join(self, cell):
        """Continuous query joining a stream against a static table."""
        cell.execute("create table whitelist (v int)")
        cell.execute("insert into whitelist values (1), (3)")
        cell.execute("create basket s (v int, payload varchar(5))")
        q = cell.submit_continuous(
            "select x.payload from [select * from s] as x "
            "join whitelist w on x.v = w.v"
        )
        cell.insert("s", [(1, "keep"), (2, "drop"), (3, "keep2")])
        cell.run_until_quiescent()
        assert q.fetch() == [("keep",), ("keep2",)]

    def test_cancel(self, cell):
        cell.execute("create basket s (v int)")
        q = cell.submit_continuous(
            "select * from [select * from s] as x"
        )
        q.cancel()
        cell.insert("s", [(1,)])
        cell.run_until_quiescent()
        assert q.fetch() == []
        assert cell.basket("s").count == 1
        assert cell.continuous_queries() == []

    def test_explain_returns_mal(self, cell):
        cell.execute("create basket s (v int)")
        q = cell.submit_continuous("select * from [select * from s] as x")
        text = q.explain()
        assert "algebra" in text or "resultset" in text

    def test_dc_time_selectable(self, cell):
        cell.clock.advance(2.5)
        cell.execute("create basket s (v int)")
        q = cell.submit_continuous(
            "select x.v, x.dc_time from [select * from s] as x"
        )
        cell.insert("s", [(1,)])
        cell.run_until_quiescent()
        assert q.fetch() == [(1, 2.5)]

    def test_submit_requires_select(self, cell):
        with pytest.raises(SqlError):
            cell.submit_continuous("create table t (a int)")

    def test_named_query(self, cell):
        cell.execute("create basket s (v int)")
        q = cell.submit_continuous(
            "select * from [select * from s] as x", name="myq"
        )
        assert q.name == "myq"
        assert cell.scheduler.get("myq") is q.factory


class TestWindowApi:
    def test_window_aggregate(self, cell):
        cell.execute("create basket ticks (price double)")
        q = cell.submit_window_aggregate(
            "ticks", "price", ["avg"], WindowSpec(WindowMode.COUNT, 4, 2)
        )
        for i in range(8):
            cell.insert("ticks", [(float(i),)])
        cell.run_until_quiescent()
        assert q.fetch() == [(0, 1.5), (1, 3.5), (2, 5.5)]

    def test_window_routes_agree_through_engine(self, cell):
        cell.execute("create basket t1 (v double)")
        cell.execute("create basket t2 (v double)")
        qi = cell.submit_window_aggregate(
            "t1", "v", ["sum", "max"], WindowSpec(WindowMode.COUNT, 6, 3),
            execution="basic",
        )
        qr = cell.submit_window_aggregate(
            "t2", "v", ["sum", "max"], WindowSpec(WindowMode.COUNT, 6, 3),
            execution="reeval",
        )
        for i in range(20):
            cell.insert("t1", [(float(i % 7),)])
            cell.insert("t2", [(float(i % 7),)])
        cell.run_until_quiescent()
        assert qi.fetch() == qr.fetch()

    def test_grouped_window_through_engine(self, cell):
        cell.execute("create basket s (g varchar(3), v double)")
        q = cell.submit_window_aggregate(
            "s", "v", ["sum"], WindowSpec(WindowMode.COUNT, 4),
            group_by="g",
        )
        cell.insert("s", [("a", 1.0), ("a", 2.0), ("b", 4.0), ("b", 8.0)])
        cell.run_until_quiescent()
        assert sorted(q.fetch()) == [(0, "a", 3.0), (0, "b", 12.0)]


class TestReceptorsEmitters:
    def test_receptor_to_query_to_channel(self, cell):
        from repro.adapters.channels import InMemoryChannel

        cell.execute("create basket s (v int)")
        receptor = cell.add_receptor("rx", ["s"])
        q = cell.submit_continuous(
            "select * from [select * from s] as x where x.v >= 10"
        )
        sink = InMemoryChannel("sink")
        q.subscribe_channel(sink)
        receptor.channel.push_many(["5", "15", "25"])
        cell.run_until_quiescent()
        assert sink.poll() == ["15", "25"]

    def test_extra_emitter(self, cell):
        cell.execute("create basket s (v int)")
        collected = []
        emitter = cell.add_emitter("ex", "s")
        emitter.subscribe(lambda rows: collected.extend(rows))
        cell.insert("s", [(1,)])
        cell.run_until_quiescent()
        assert collected == [(1,)]


class TestThreadedEngine:
    def test_start_stop_roundtrip(self, cell):
        import time

        cell.execute("create basket s (v int)")
        q = cell.submit_continuous(
            "select * from [select * from s] as x where x.v > 0"
        )
        cell.start()
        try:
            cell.insert("s", [(1,), (2,)])
            deadline = time.time() + 5
            while len(q.peek()) < 2 and time.time() < deadline:
                time.sleep(0.005)
        finally:
            cell.stop()
        assert sorted(q.fetch()) == [(1,), (2,)]
