#!/usr/bin/env python3
"""Self-check of the benchmark at tiny sizes; run from the repo root.

    python3 perfbench/selfcheck.py

For every workload it makes two short runs:

* a traced run (one untraced and one traced command) on clean outputs,
  which must pass its output checks and emit every per-layer metric of
  BENCHMARK.json with its unit;
* an untraced run of one command whose first artifact is overwritten
  before it is checked, which must emit every end-to-end metric with its
  unit and count all of that command's operations as failed.

Exits 0 when all of that holds and 1 otherwise.
"""

from __future__ import annotations

import math
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

TINY = {
    "contour-bayes": {"rows": 2000, "directions": 8, "draws": 40, "burn_in": 10},
    "contour-freq": {"rows": 2000, "directions": 8},
    "fit-large": {"rows": 1000, "draws": 100, "burn_in": 20},
    "simulate-desk": {"replications": 1, "draws": 30, "burn_in": 10, "oracle_rows": 100_000},
}


def corrupt_first_artifact(out_dir: str) -> None:
    name = sorted(os.listdir(out_dir))[0]
    with open(os.path.join(out_dir, name), "w") as handle:
        handle.write("corrupted\n")


def expect(ok: bool, what: str, problems: list) -> None:
    print(f"selfcheck: {'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        problems.append(what)


def emits(metrics: dict, section: list) -> bool:
    """Every metric of the section is there, with its unit, and nothing else."""
    try:
        shaped = run.with_units(metrics, section)
    except SystemExit:
        return False
    return set(shaped) == set(metrics) and all(
        isinstance(v["value"], (int, float)) and not isinstance(v["value"], bool)
        and math.isfinite(v["value"]) and isinstance(v["unit"], str) for v in shaped.values())


def main() -> int:
    if not os.path.isfile(os.path.join(run.SRC, "dirquant", "__init__.py")):
        print(f"selfcheck: run from the repo root (no src/dirquant under {run.ROOT})", file=sys.stderr)
        return 2
    spec = run.load_spec()
    os.environ.update(run.THREAD_ENV)
    sys.path.insert(0, run.SRC)
    os.makedirs(run.WORK, exist_ok=True)
    problems: list[str] = []
    quiet = lambda *_: None  # noqa: E731
    for name, size in TINY.items():
        traced = run.run_workload(name, 1, 0.0, True, size=size, log=quiet)
        expect(traced["correct"] and traced["failed"] == 0,
               f"{name}: clean traced run passes its output checks", problems)
        expect(emits(traced["metrics"], spec["per_layer"]),
               f"{name}: every per-layer metric is emitted with its unit", problems)

        broken = run.run_workload(name, 1, 0.0, False, size=size,
                                  corrupt=corrupt_first_artifact, log=quiet)
        expect(emits(broken["metrics"], spec["end_to_end"]),
               f"{name}: every end-to-end metric is emitted with its unit", problems)
        expect(not broken["correct"] and broken["failed"] == broken["attempted"] > 0
               and broken["metrics"]["success_rate"] == 0.0,
               f"{name}: a corrupted artifact counts every operation as failed", problems)
    print(f"selfcheck: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
