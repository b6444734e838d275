"""CLI: run N seeded episodes over a configuration matrix as a CI gate.

Usage::

    PYTHONPATH=src python -m repro.simtest.run --episodes 200 \\
        --configs reeval,basic,reeval+wire --seed 0 --out repro.json

``--configs`` lists configurations as ``route[+wire][+crash]`` (route
``reeval``, ``basic`` or ``incremental``); the episodes cycle every
applicable (workload kind, configuration) pair — see
:func:`repro.simtest.harness.matrix`.  Everything derives from
``--seed``, so a CI failure reproduces locally with the same
invocation.  On failure the first failing episode is shrunk and its
one-line repro (plus a JSON artifact for upload) is printed; the exit
status is the number of failures.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from dataclasses import asdict
from typing import List, Optional

from ..testing import current_seed
from .harness import Config, check, matrix, shrink

DEFAULT_CONFIGS = "reeval,basic,reeval+wire"


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="seeded DataCell differential episodes"
    )
    parser.add_argument("--episodes", type=int, default=200)
    parser.add_argument(
        "--configs",
        type=lambda text: [Config.parse(t) for t in text.split(",")],
        default=DEFAULT_CONFIGS,
        help="comma-separated route[+wire][+crash] configurations; one "
        "listed twice gets twice the episodes "
        f"(default {DEFAULT_CONFIGS})",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="base seed (default: DATACELL_SEED via repro.testing)",
    )
    parser.add_argument(
        "--out", default=None, help="write a JSON repro artifact here on failure"
    )
    parser.add_argument(
        "--lock-order",
        action="store_true",
        help="install the acquisition-graph recorder "
        "(repro.analysis.lockorder) for every episode; any lock-order "
        "cycle counts as a failed run",
    )
    args = parser.parse_args(argv)
    if args.seed is None:
        args.seed = current_seed()
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    recorder = None
    if args.lock_order:
        from ..analysis.lockorder import LockOrderRecorder, set_global_recorder

        recorder = LockOrderRecorder(strict=False)
        set_global_recorder(recorder)

    failures: List[str] = []
    shrunk = None
    pairs: Counter = Counter()
    kills = 0
    for episode, config in matrix(args.configs, args.episodes, args.seed):
        pairs[f"{episode.kind}@{config}"] += 1
        result = check(episode, config)
        kills += result.crashed
        if result.ok:
            continue
        failures.append(result.explain())
        if shrunk is None:
            small, attempts = shrink(episode, config)
            shrunk = {
                "repro": f"check({small!r}, {config!r})",
                "original": result.repro(),
                "shrink_attempts": attempts,
                "episode": asdict(small),
                "config": str(config),
            }
            print(f"shrunk repro ({attempts} attempts):")
            print(f"  {shrunk['repro']}")
    if recorder is not None:
        from ..analysis.lockorder import set_global_recorder

        set_global_recorder(None)
        print(recorder.summary())
        failures.extend(
            f"lock-order violation: {message}"
            for message in recorder.violations
        )
    print(
        f"simtest: {args.episodes - len(failures)}/{args.episodes} "
        f"episodes passed, {kills} mid-run kills (base seed {args.seed}; "
        + ", ".join(f"{k}={v}" for k, v in sorted(pairs.items()))
        + ")"
    )
    for message in failures:
        print(f"FAIL: {message}", file=sys.stderr)
    if failures and args.out:
        with open(args.out, "w") as handle:
            json.dump({"failures": failures, "shrunk": shrunk}, handle, indent=2)
        print(f"repro artifact written to {args.out}", file=sys.stderr)
    return min(len(failures), 125)


if __name__ == "__main__":
    sys.exit(main())
