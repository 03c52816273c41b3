#!/usr/bin/env python3
"""Record reference outputs for the correctness gates.

    python3 benchmark/make_reference.py 1 2 3 ...

Runs ``daily-control`` (its first five operations: days 33, 99, 44, 33 again
and 0) and ``replan-5min`` once per seed with the current package and writes
what their gates compare against to ``reference.json``: per-day delay totals,
and the switch times, bank size and LOOCV mean decrease of the replan.  A
seed's entry is replaced whole.  Run it only when a change is meant
to alter results, and say so in the change.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, install  # noqa: E402


# Five operations cover every distinct day of the first five in eval_days.
DAILY = dataclasses.replace(workloads.FULL["daily-control"], min_ops=5, setup_reps=1)
REPLAN = dataclasses.replace(workloads.FULL["replan-5min"], setup_reps=1)


def main(seeds: list[int]) -> int:
    os.chdir(BENCH_DIR.parent)
    path = BENCH_DIR / "reference.json"
    reference = json.loads(path.read_text())
    tracer = Tracer()
    install(tracer)
    for seed in seeds:
        result, info, _ = run.run_workload("daily-control", seed, 0, False, tracer,
                                           sizes=DAILY, reference={})
        if not result["correct"]:
            print(f"seed {seed}: daily-control gates failed: {info['failed_gates']}")
            return 1
        reference.setdefault("daily-control", {})[str(seed)] = {
            "days": info["properties"]["day_totals_vehh"]}
        result, info, _ = run.run_workload("replan-5min", seed, 0, False, tracer,
                                           sizes=REPLAN, reference={})
        if not result["correct"]:
            print(f"seed {seed}: replan-5min gates failed: {info['failed_gates']}")
            return 1
        props = info["properties"]
        reference.setdefault("replan-5min", {})[str(seed)] = {
            k: props[k] for k in ("switch_times", "bank_models", "loocv_mean_decrease")}
        print(f"seed {seed}: recorded", flush=True)
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main([int(s) for s in sys.argv[1:]]))
