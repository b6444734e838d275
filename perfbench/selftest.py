"""The benchmark's own smoke test, at a tiny size.

    python3 perfbench/selftest.py [--seconds 1] [--workload NAME ...]

For each workload ``run.py`` knows (the declared ones and
``server_wire``) it checks that

* an untraced and a traced run both exit 0 with ``correct`` true and emit
  every metric ``BENCHMARK.json`` declares, each with a finite value;
* in the traced run, each thread's per-layer self times sum to no more
  than the wall time;
* a planted wrong answer (``--plant-error``) raises the error rate above
  zero and makes the run exit non-zero;

and, once, that the benchmark fails without printing a result in a
directory holding only ``BENCHMARK.json`` and the benchmark's files.
Exits 1 if any check fails.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import WORKLOADS  # noqa: E402

OUT = HERE / "out"
TIMEOUT_S = 300


def _run(cwd: Path, workload: str, seconds: float, trace: int,
         extra=()) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "7", "--seconds", str(seconds), "--trace", str(trace),
           *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=TIMEOUT_S)


def _last_json(stdout: str):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def check_workload(workload: str, seconds: float, spec: dict) -> list:
    problems = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run(ROOT, workload, seconds, trace)
        result = _last_json(proc.stdout)
        tag = f"{workload} trace={trace}"
        if proc.returncode != 0 or not result or not result["correct"]:
            problems.append(f"{tag}: exit {proc.returncode}, "
                            f"stderr {proc.stderr[-500:]!r}")
            continue
        declared = {m["name"]: m["unit"] for m in spec[key]}
        got = result["metrics"]
        if set(got) != set(declared):
            odd = sorted(set(got) ^ set(declared))
            problems.append(f"{tag}: metrics {odd} differ from BENCHMARK.json")
        for name, entry in got.items():
            if not math.isfinite(entry["value"]):
                problems.append(f"{tag}: {name} is not finite")
            if declared.get(name) != entry["unit"]:
                problems.append(f"{tag}: {name} unit {entry['unit']!r}")
        if trace:
            record = json.loads((OUT / f"{workload}-seed7-trace1.json")
                                .read_text())
            check = record["details"]["self_time_check"]
            if not check["ok"]:
                problems.append(f"{tag}: self times {check} exceed wall")
    proc = _run(ROOT, workload, seconds, 0, ["--plant-error"])
    result = _last_json(proc.stdout)
    if proc.returncode == 0 or not result or result["failed"] < 1:
        problems.append(f"{workload}: planted error not caught "
                        f"(exit {proc.returncode}, result {result})")
    return problems


def check_bare_directory() -> list:
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    try:
        proc = _run(bare, "fig1_tuple", 1, 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or _last_json(proc.stdout) is not None:
        return ["bare directory: the benchmark did not fail cleanly"]
    return []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="perfbench smoke test")
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--workload", action="append")
    opts = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = opts.workload or list(WORKLOADS)
    problems = check_bare_directory()
    for workload in workloads:
        found = check_workload(workload, opts.seconds, spec)
        print(f"{workload}: {'ok' if not found else 'FAILED'}")
        problems.extend(found)
    for problem in problems:
        print(f"  {problem}")
    print("selftest:", "PASS" if not problems else "FAIL")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
