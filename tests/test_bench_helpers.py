"""Tests for the benchmark harness helpers (runner, reporting, summary)."""

import importlib.util
import json
from pathlib import Path

from repro.bench.reporting import print_table, record_result
from repro.bench.runner import (
    Measurement,
    build_figure1_pipeline,
    run_stream_through,
)
from repro.bench.summary import render_markdown


class TestRunner:
    def test_pipeline_fixture_wiring(self):
        fixture = build_figure1_pipeline(low=10, high=20)
        assert fixture.scheduler.transitions()
        fixture.channel.push((15,))
        fixture.scheduler.run_until_quiescent()
        assert fixture.client.rows == [(15,)]

    def test_run_stream_through(self):
        fixture = build_figure1_pipeline(low=0, high=100)
        rows = [(v,) for v in range(50)]
        m = run_stream_through(fixture, rows, batch_size=10)
        assert m.tuples == 50
        assert m.extra["delivered"] == 50
        assert m.throughput > 0

    def test_measurement_throughput(self):
        m = Measurement("x", wall_seconds=2.0, tuples=100)
        assert m.throughput == 50.0
        assert Measurement("z", 0.0, 10).throughput == 0.0

    def test_filter_selectivity(self):
        fixture = build_figure1_pipeline(low=10, high=19)
        rows = [(v,) for v in range(100)]
        m = run_stream_through(fixture, rows, batch_size=100)
        assert m.extra["delivered"] == 10


class TestReporting:
    def test_print_table(self, capsys):
        print_table("demo", ["a", "bb"], [[1, 2.5], ["xx", 12345.0]])
        out = capsys.readouterr().out
        assert "== demo ==" in out
        assert "a" in out and "bb" in out
        assert "12,345" in out

    def test_print_empty_table(self, capsys):
        print_table("empty", ["col"], [])
        assert "empty" in capsys.readouterr().out

    def test_record_result_roundtrip(self, tmp_path, monkeypatch):
        target = tmp_path / "results.json"
        monkeypatch.setattr(
            "repro.bench.reporting.RESULTS_PATH", str(target)
        )
        record_result("X1", {"claim": "c", "value": 1})
        record_result("X2", {"claim": "d"})
        data = json.loads(target.read_text())
        assert set(data) == {"X1", "X2"}

    def test_record_result_overwrites_same_key(self, tmp_path, monkeypatch):
        target = tmp_path / "results.json"
        monkeypatch.setattr(
            "repro.bench.reporting.RESULTS_PATH", str(target)
        )
        record_result("X1", {"v": 1})
        record_result("X1", {"v": 2})
        assert json.loads(target.read_text())["X1"]["v"] == 2

    def test_record_result_recovers_from_corrupt_file(
        self, tmp_path, monkeypatch
    ):
        target = tmp_path / "results.json"
        target.write_text("{corrupt")
        monkeypatch.setattr(
            "repro.bench.reporting.RESULTS_PATH", str(target)
        )
        record_result("X1", {"v": 1})
        assert json.loads(target.read_text())["X1"]["v"] == 1


class TestSummary:
    def test_render_markdown(self):
        results = {
            "F1": {
                "claim": "demo",
                "series": [
                    {"batch": 1, "throughput": 100.0},
                    {"batch": 10, "throughput": 12345.6},
                ],
            },
            "P1": {"claim": "scalar only", "speedup": 12.4},
        }
        text = render_markdown(results)
        assert "### F1 — demo" in text
        assert "| batch | throughput |" in text
        assert "12,346" in text
        assert "speedup: 12.40" in text

    def test_booleans_render_as_yes_no(self):
        text = render_markdown(
            {"LR": {"claim": "x", "series": [{"ok": True}]}}
        )
        assert "| yes |" in text


def _load_trajectory_script():
    path = Path(__file__).resolve().parent.parent / "scripts" / "bench_trajectory.py"
    spec = importlib.util.spec_from_file_location("bench_trajectory", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestTrajectory:
    def test_series_payload_renders_compactly(self):
        trajectory = _load_trajectory_script()
        records = {
            "F1": {
                "claim": "throughput grows with batch size",
                "seed": 42,
                "series": [
                    {"batch": 1, "throughput": 4512.25},
                    {"batch": 10, "throughput": 40000.0},
                ],
            },
            "P1": {"claim": "scalar only", "speedup": 12.4},
        }
        text = trajectory.render_markdown([("BENCH_fig1.json", records)])
        assert (
            "| F1 | throughput grows with batch size | "
            "batch→throughput: 1→4,512; 10→40,000 | 42 |"
        ) in text
        assert "| P1 | scalar only | speedup=12.40 | — |" in text
