#!/usr/bin/env python3
"""Financial services — standing queries over a stock-tick stream.

Demonstrates:

* per-symbol sliding-window statistics (avg/min/max price) using the
  incremental basic-window route;
* a large-trade alert joining ticks against a static reference table to
  enrich alerts with the sector (continuous stream-table join in SQL);
* both evaluation routes (§3.1) side by side on identical input, with
  their work counters, to show the incremental route's advantage live.

Run:  python examples/financial_ticker.py
"""

from repro import DataCell, LogicalClock, WindowMode, WindowSpec
from repro.adapters.generators import stock_ticks

TICK_SCHEMA = "(sym varchar(10), price double, qty int)"


def main() -> None:
    cell = DataCell(clock=LogicalClock())
    for basket in ("ticks_stats", "ticks_alerts", "ticks_reeval"):
        cell.execute(f"create basket {basket} {TICK_SCHEMA}")
    cell.execute("create table listings (sym varchar(10), sector varchar(20))")
    cell.execute(
        "insert into listings values "
        "('ACME', 'industrial'), ('GLOBEX', 'conglomerate'), "
        "('INITECH', 'software'), ('UMBRELLA', 'pharma')"
    )

    spec = WindowSpec(WindowMode.COUNT, 200, 100)
    stats_inc = cell.submit_window_aggregate(
        "ticks_stats", "price", ["avg", "min", "max"],
        spec, group_by="sym", name="stats",
    )
    stats_reeval = cell.submit_window_aggregate(
        "ticks_reeval", "price", ["avg", "min", "max"],
        spec, group_by="sym", execution="reeval", name="stats_reeval",
    )

    big_trades = cell.submit_continuous(
        "select t.sym, l.sector, t.price, t.qty from "
        "[select * from ticks_alerts where ticks_alerts.qty > 450] as t "
        "join listings l on t.sym = l.sym",
        name="big_trades",
    )

    receptor = cell.add_receptor(
        "feed", ["ticks_stats", "ticks_alerts", "ticks_reeval"]
    )
    for row in stock_ticks(5_000, seed=99):
        receptor.channel.push(row)
    cell.run_until_quiescent()

    rows = stats_inc.fetch()
    print(f"window stats rows: {len(rows)}; last few:")
    for window_id, sym, avg, low, high in rows[-4:]:
        print(
            f"  w{window_id} {sym:10s} avg={avg:8.2f} "
            f"min={low:8.2f} max={high:8.2f}"
        )

    alerts = big_trades.fetch()
    print(f"\nlarge-trade alerts: {len(alerts)}; first few:")
    for sym, sector, price, qty in alerts[:4]:
        print(f"  {sym:10s} [{sector}] {qty} @ {price:.2f}")

    # both §3.1 routes computed identical answers (up to float summation
    # order: the incremental route adds partial sums per basic window)...
    import math

    reeval_rows = stats_reeval.fetch()
    si = sorted(rows, key=lambda r: (r[0], r[1]))
    sr = sorted(reeval_rows, key=lambda r: (r[0], r[1]))
    same = len(si) == len(sr) and all(
        x[:2] == y[:2]
        and all(
            math.isclose(a, b, rel_tol=1e-9) for a, b in zip(x[2:], y[2:])
        )
        for x, y in zip(si, sr)
    )
    print(f"\nincremental == re-evaluation results: {same}")
    # ...but did very different amounts of work:
    inc_plan = cell.scheduler.get("stats").plan
    re_plan = cell.scheduler.get("stats_reeval").plan
    print(
        f"tuples touched — incremental: {inc_plan.values_processed}, "
        f"re-evaluation: {re_plan.values_processed} "
        f"({re_plan.values_processed / inc_plan.values_processed:.1f}x)"
    )


if __name__ == "__main__":
    main()
