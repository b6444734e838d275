"""Tracing overhead: the traced run's end-to-end numbers against an
untraced run of the same workload and seed.

    python3 perfbench/overhead.py [--seconds 12] [--seed 1] [--workload NAME ...]

Prints, per workload and end-to-end metric, the untraced value, the
traced value and the difference as a share of the untraced value.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _record(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace={trace} failed:\n"
                         f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    path = HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="tracing overhead")
    parser.add_argument("--seconds", type=float, default=12)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    opts = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = opts.workload or [w["name"] for w in spec["workloads"]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    print(f"{'workload':<12} {'metric':<18} {'untraced':>12} "
          f"{'traced':>12} {'overhead':>9}")
    for workload in workloads:
        plain = _record(workload, opts.seed, opts.seconds, 0)["end_to_end"]
        traced = _record(workload, opts.seed, opts.seconds, 1)["end_to_end"]
        for name, unit in units.items():
            base, value = plain[name], traced[name]
            share = (value - base) / base if base else float("nan")
            print(f"{workload:<12} {name:<18} {base:>12.5g} {value:>12.5g} "
                  f"{share:>+8.1%}  {unit}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
