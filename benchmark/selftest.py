#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes (seconds, not minutes).

    python3 benchmark/selftest.py

Checks that every workload, traced and untraced, passes its gates and emits
exactly the metrics ``BENCHMARK.json`` lists, each with its unit and a
finite value, and that each correctness gate trips on a tampered output.
Exits 0 when every check passes.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import numpy as np  # noqa: E402

import run  # noqa: E402
import workloads as wl  # noqa: E402
from flowcast import controller, delay, flowdata, pls, segmentation, synth  # noqa: E402
from tracer import Tracer, install  # noqa: E402

FAILURES: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"[{'ok' if ok else 'FAIL'}] {what}")
    if not ok:
        FAILURES.append(what)


def check_emitted(tracer, spec: dict) -> None:
    for name in wl.WORKLOADS:
        for trace, listed in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            result, info, _ = run.run_workload(name, 7, 0.5, trace, tracer,
                                               sizes=wl.TINY[name], reference={})
            label = f"{name} trace={int(trace)}"
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{label}: result keys")
            check(result["correct"] and result["failed"] == 0,
                  f"{label}: gates pass {info['failed_gates']}")
            units = {m["name"]: m["unit"] for m in listed}
            got = result["metrics"]
            check(list(got) == list(units), f"{label}: every listed metric emitted")
            check(all(got[n]["unit"] == u for n, u in units.items()),
                  f"{label}: every metric carries its unit")
            check(all(isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
                      for v in got.values()), f"{label}: every value is a finite number")
            if not trace:
                check(all(v["value"] > 0 for v in got.values()),
                      f"{label}: end-to-end metrics are positive")
            if name == "cli-pipeline" and trace:
                check(got["cli.bank_cache_hits"]["value"] > 0,
                      f"{label}: later passes read the bank cache")


def check_metric_map(spec: dict) -> None:
    """metric_map.json has one layer entry per name prefix of the per-layer
    metrics, and every end-to-end metric it cites exists."""
    mapping = json.loads((BENCH_DIR / "metric_map.json").read_text())
    prefixes = {m["name"].split(".")[0] for m in spec["per_layer"]}
    check(set(mapping["layers"]) == prefixes,
          f"metric_map.json layers match BENCHMARK.json: {sorted(prefixes)}")
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    cited = {move["metric"] for entry in mapping["layers"].values()
             for move in entry.get("moves", [])}
    check(cited <= end_to_end, f"metric_map.json cites only end-to-end metrics: {sorted(cited)}")


def check_reference_gates(tracer) -> None:
    """A recorded reference that disagrees with the output fails the run.

    (reference.json holds full-size outputs, so tiny runs pass their own.)"""
    bad = {
        "daily-control": {"7": {"days": {"3": {"predictive_seg_params": 1.0}}}},
        "replan-5min": {"7": {"switch_times": [1, 2], "bank_models": 1,
                              "loocv_mean_decrease": 0.5}},
    }
    for name in bad:
        result, info, _ = run.run_workload(name, 7, 0.2, False, tracer,
                                           sizes=wl.TINY[name], reference=bad)
        check(not result["correct"] and result["failed"] >= 1,
              f"{name}: a wrong recorded reference trips the gate")


def check_gate_functions() -> None:
    sz = wl.TINY["daily-control"]
    ds, _ = synth.generate(sz.synth_config(3))
    ic = wl._intersection(ds)
    day = ds.day_grid(sz.high_day)

    totals = {"nominal": 10.0, "predictive_seg": 9.0, "predictive_seg_params": 8.5,
              "lower_bound": 8.0}
    check(not wl.day_gate_errors(totals), "day gate accepts sound totals")
    check(bool(wl.day_gate_errors({**totals, "lower_bound": 8.5 + 2e-6})),
          "day gate trips when the lower bound is nudged above a scenario")
    check(bool(wl.day_gate_errors({**totals, "nominal": float("nan")})),
          "day gate trips on a non-finite total")

    lb = delay.lower_bound_delay(day, ic)
    t = int(np.argmax(day.sum(axis=1)))
    fr = delay.green_splits(day[t], ic).fractions
    check(not wl.split_gate_errors(day[t], fr, lb.rates[t], ic),
          "split gate accepts the solver's split")
    moved = fr.copy()
    moved[0] -= 0.02
    moved[1] += 0.02
    check(bool(wl.split_gate_errors(day[t], moved, lb.rates[t], ic)),
          "split gate trips on a perturbed split")
    check(bool(wl.split_gate_errors(day[t], fr, lb.rates[t] * 1.001, ic)),
          "split gate trips on a lower-bound rate that the split does not give")

    fit_cfg = segmentation.FitConfig()
    profile = wl._mean_grid(ds)
    costs = segmentation.cost_table(profile, fit_cfg)
    plan = segmentation.optimal_segmentation(profile, sz.segments, fit_cfg, costs=costs)
    rng = np.random.default_rng(0)
    check(not wl.plan_gate_errors(profile, plan, costs, fit_cfg, rng),
          "plan gate accepts the optimal plan")
    shifted = list(plan.switch_times)
    shifted[0] += 1
    worse = segmentation.SegmentationPlan(
        n_periods=plan.n_periods, n_intervals=plan.n_intervals,
        switch_times=tuple(shifted), params=plan.params,
        total_cost=sum(segmentation.segment_cost(profile, a, b, fit_cfg)[0]
                       for a, b in zip([1] + [s + 1 for s in shifted],
                                       shifted + [plan.n_intervals])))
    check(bool(wl.plan_gate_errors(profile, worse, costs, fit_cfg, rng)),
          "plan gate trips on a plan with a switch moved off the optimum")
    check(bool(wl.plan_gate_errors(profile, plan, costs * 1.01, fit_cfg, rng)),
          "plan gate trips on a tampered cost table")

    spec = flowdata.SplitSpec(cutoff_index=20, predict_from=21, predict_to=48)
    records = pls.loocv(ds, spec, sz.components)
    check(not wl.loocv_gate_errors(ds, spec, records, sz.components, (0, 5)),
          "loocv gate accepts the loocv records")
    tampered = list(records)
    tampered[5] = dataclasses.replace(records[5], e_pred=records[5].e_pred * 1.01)
    check(bool(wl.loocv_gate_errors(ds, spec, tampered, sz.components, (0, 5))),
          "loocv gate trips on a tampered fold error")

    bank = controller.build_model_bank(
        ds, plan, controller.ControllerConfig(window_halfwidth=sz.window), sz.components)
    check(bank.n_models == wl._expected_bank_models(plan, sz.window),
          "bank model count formula matches the fitted bank")

    codes = {"pca": 0, "control": 0, "control_default": 1}
    stderr = dict.fromkeys(codes, "")
    stderr["control_default"] = "error: switch windows overlap: taus 22 and 26"

    def calls(op):  # op0's control fits the bank, later ones read the cache
        return (0, 1) if op == "op0/control" else (1, 0)

    good = [("op0", codes, stderr, "d"), ("op1", codes, stderr, "d")]
    errors, known = wl.sequence_gate_errors(good, calls)
    check(not errors and known == 2, "sequence gate accepts clean passes "
          "and counts the known default-flags failure apart")
    check(bool(wl.sequence_gate_errors([good[0], ("op1", codes, stderr, "x")], calls)[0]),
          "sequence gate trips when a rerun is not byte-identical")
    check(bool(wl.sequence_gate_errors([good[0], ("op1", {**codes, "pca": 2}, stderr, "d")],
                                       calls)[0]),
          "sequence gate trips on a non-zero exit code")
    check(bool(wl.sequence_gate_errors(
        [good[0], ("op1", codes, {**stderr, "control_default": "error: other"}, "d")],
        calls)[0]), "sequence gate trips when the default-flags call fails otherwise")
    check(bool(wl.sequence_gate_errors(good, lambda op: (0, 1))[0]),
          "sequence gate trips when a later control refits instead of reading the cache")
    check(bool(wl.sequence_gate_errors(good[:1], calls)[0]),
          "sequence gate trips when no rerun was compared")


def main() -> int:
    os.chdir(ROOT)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tracer = Tracer()
    install(tracer)
    check_metric_map(spec)
    check_gate_functions()
    check_emitted(tracer, spec)
    check_reference_gates(tracer)
    print(f"{len(FAILURES)} failed check(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
