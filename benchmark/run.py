#!/usr/bin/env python3
"""flowcast benchmark: one workload per invocation.

    python3 benchmark/run.py --workload daily-control --seed 7 --seconds 20 --trace 0

Workloads (``BENCHMARK.json`` gives the reason for each):

* ``daily-control``: one operation is one day of ``control --date all``
  (controller in both modes, three plan simulations, the lower bound) on
  the README's 132 x 96 x 12 dataset;
* ``replan-5min``: one operation is a replan from a T=288 CSV (ingest, day
  model, cost table + DP, model bank, LOOCV);
* ``cli-pipeline``: one operation is the README's command sequence run
  in-process through ``flowcast.cli.main``.

The library sees only data generated from ``--seed``.  With ``--trace 0`` the
last stdout line holds the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics, computed from spans recorded around the package's public
functions (kept in memory, written to ``.bench_work/`` at the end).  The line
before it is a JSON object with machine facts, workload properties and any
failed correctness gate.  The exit code is 0 when the
run completed, whether or not every gate passed (``correct`` says which), and
2 when the package source is missing or the workload is unknown.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import sys
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def machine_facts() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__), "..",
                                      "numpy.libs", "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                threads = fn()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "machine": platform.machine(),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 tracer, sizes=None, reference=None):
    """Run one workload in this process; returns (result, info, run).

    ``tracer`` must already be installed; the working directory must be the
    repository root, because artifact manifests record relative paths.
    ``sizes`` and ``reference`` replace the full sizes and the recorded
    references (the self-test uses both).
    """
    import metrics
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if reference is None:
        reference = json.loads((BENCH_DIR / "reference.json").read_text())
    workdir = Path(".bench_work") / f"{workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    tracer.reset(workload)
    stats = metrics.install_hooks(tracer)
    run = workloads.Run(workload, seed, seconds, trace,
                        sizes or workloads.FULL[workload], workdir, tracer, reference)
    crashed = None
    try:
        workloads.WORKLOADS[workload](run)
    except Exception:  # report the crash as a failed run, with its traceback
        crashed = traceback.format_exc()
        run.gate(False, f"workload raised: {crashed.strip().splitlines()[-1]}")
    finally:
        tracer.enabled = False
        if trace:
            tracer.write(workdir.parent / f"spans-{workload}-seed{seed}.jsonl")
        shutil.rmtree(workdir, ignore_errors=True)

    values = metrics.per_layer(run, stats) if trace else metrics.end_to_end(run)
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    result = {
        "correct": not run.errors,
        "attempted": max(1, run.attempted),
        "failed": run.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }
    info = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "machine": machine_facts(), "properties": run.props,
        "setup_times_s": run.setup_times, "op_times_s": run.op_times,
        "known_failures": run.known_failures, "failed_gates": run.errors[:20],
        "values": run.values,
    }
    if crashed:
        info["traceback"] = crashed
    return result, info, run


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "flowcast" / "__init__.py").is_file():
        print(f"error: no flowcast package source under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(BENCH_DIR)]
    os.chdir(ROOT)
    import workloads
    from tracer import Tracer, install

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    tracer = Tracer()
    install(tracer)
    result, info, _ = run_workload(args.workload, args.seed, args.seconds,
                                   bool(args.trace), tracer)
    for msg in info["failed_gates"]:
        print(f"failed gate: {msg}", file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
