"""Per-layer metrics from the spans of a traced run, and the end-to-end ones.

Conventions (see ``metric_map.json``):

* ``*_s``, ``*_s_p50``: median duration of that function's calls over the
  whole run (set-up, timed and check phases), 0 when the workload never
  calls it.
* ``*_calls`` and the other counts: per operation of the traced timed
  phase, so that they do not depend on how many operations fit in the run.
* ``<layer>.self_s``: the layer's self time (span time minus the time its
  child spans cover) per traced timed operation.
"""

from __future__ import annotations

import statistics
from collections import Counter, defaultdict

import numpy as np

from tracer import LAYERS, layer_of
from workloads import oversaturated

CLI_VALUES = ("cli.synth_s", "cli.pca_s", "cli.predict_s", "cli.segment_s",
              "cli.loocv_s", "cli.control_cold_s", "cli.control_warm_s",
              "cli.bank_cache_hits", "cli.bank_cache_misses", "cli.artifact_bytes")


def _p50(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


class LayerStats(Counter):
    """Counters filled from call results while tracing is on, plus the
    prediction ids each operation used."""

    def __init__(self) -> None:
        super().__init__()
        self.ids: dict[str, set] = defaultdict(set)


def install_hooks(tracer) -> LayerStats:
    stats = LayerStats()

    def timed(span):
        return span[5] == "timed"

    def load(span, args, kwargs, ds):
        stats["rows"] += ds.flows.size
        stats["load_s"] += span[4] - span[3]

    def fit(span, args, kwargs, model):
        if timed(span):
            stats["n_dropped"] += model.n_dropped

    def table(span, args, kwargs, costs):
        stats["windows"] = int(np.isfinite(costs).sum())

    def bank(span, args, kwargs, result):
        stats["bank_models"] = result.n_models

    def controller_run(span, args, kwargs, plan):
        if not timed(span):
            return
        nominal = args[0]
        stats["decisions"] += len(plan.decision_log)
        stats["switches"] += len(nominal.switch_times)
        stats["switches_moved"] += sum(a != b for a, b in
                                       zip(plan.switch_times, nominal.switch_times))
        stats.ids[span[6].split("/")[0]].update(e["prediction"] for e in plan.decision_log)

    def splits(span, args, kwargs, result):
        if timed(span) and tracer.parent_name(span) == "delay.lower_bound_delay":
            stats["lb_intervals"] += 1
            stats["lb_oversat"] += oversaturated(args[0], result.fractions, args[1])

    tracer.hooks.update({
        "flowdata.load_dataset": load,
        "pls.fit_pls_kernel": fit,
        "segmentation.cost_table": table,
        "controller.build_model_bank": bank,
        "controller.run_controller": controller_run,
        "delay.green_splits": splits,
    })
    return stats


def end_to_end(run) -> dict[str, float]:
    ops = run.op_times
    return {
        "setup_s": _p50(run.setup_times),
        "op_s_p50": _p50(ops),
        "ops_per_s": len(ops) / sum(ops) if ops else 0.0,
    }


def per_layer(run, stats: LayerStats) -> dict[str, float]:
    spans = run.tracer.spans
    dur = [s[4] - s[3] for s in spans]
    child = [0.0] * len(spans)
    for s, d in zip(spans, dur):
        if s[1] is not None:
            child[s[1]] += d
    ops = run.traced_ops
    n_ops = len(ops)
    timed = [i for i, s in enumerate(spans)
             if s[5] == "timed" and s[6].split("/")[0] in ops]

    by_name = defaultdict(list)
    for s, d in zip(spans, dur):
        by_name[s[2]].append(d)

    def p50(name):
        return _p50(by_name[name])

    def per_op(value):
        return value / n_ops if n_ops else 0.0

    def calls(name):
        return per_op(sum(1 for i in timed if spans[i][2] == name))

    self_time = Counter()
    for i in timed:
        self_time[layer_of(spans[i][2])] += dur[i] - child[i]

    dp = [dur[i] - sum(dur[j] for j in range(i + 1, len(spans))
                       if spans[j][1] == i and spans[j][2] == "segmentation.cost_table")
          for i, s in enumerate(spans) if s[2] == "segmentation.optimal_segmentation"]
    pca = by_name["lowrank.fit_pca"]

    bank_models = stats["bank_models"]
    used = [len(stats.ids[op]) / bank_models for op in ops if bank_models]
    out = {
        "flowdata.load_dataset_s": p50("flowdata.load_dataset"),
        "flowdata.rows_per_s": stats["rows"] / stats["load_s"] if stats["load_s"] else 0.0,
        "flowdata.save_dataset_s": p50("flowdata.save_dataset"),
        "flowdata.split_at_s": p50("flowdata.split_at"),
        "flowdata.split_at_calls": calls("flowdata.split_at"),
        "synth.generate_s": p50("synth.generate"),
        "lowrank.fit_pca_s": _p50(pca[1:]),
        "lowrank.fit_pca_first_s": pca[0] if pca else 0.0,
        "pls.fit_kernel_s_p50": p50("pls.fit_pls_kernel"),
        "pls.fit_kernel_calls": calls("pls.fit_pls_kernel"),
        "pls.loocv_s": p50("pls.loocv"),
        "pls.predict_s_p50": p50("pls.predict"),
        "pls.predict_calls": calls("pls.predict"),
        "pls.n_dropped": per_op(stats["n_dropped"]),
        "pls.loocv_mean_decrease": run.values.get("pls.loocv_mean_decrease", 0.0),
        "segmentation.cost_table_s": p50("segmentation.cost_table"),
        "segmentation.windows": float(stats["windows"]),
        "segmentation.dp_s": _p50(dp),
        "controller.build_model_bank_s": p50("controller.build_model_bank"),
        "controller.bank_models": float(bank_models),
        "controller.run_controller_s_p50": p50("controller.run_controller"),
        "controller.decisions": per_op(stats["decisions"]),
        "controller.bank_models_used_ratio": _p50(used) if used else 0.0,
        "controller.switches_moved_frac":
            stats["switches_moved"] / stats["switches"] if stats["switches"] else 0.0,
        "control.seg_params_delay_vehh":
            run.values.get("control.seg_params_delay_vehh", 0.0),
        "delay.lower_bound_s_p50": p50("delay.lower_bound_delay"),
        "delay.simulate_day_s_p50": p50("delay.simulate_day"),
        "delay.green_splits_s_p50": p50("delay.green_splits"),
        "delay.green_splits_calls": calls("delay.green_splits"),
        "delay.share_of_day": self_time["delay"] / sum(ops.values()) if n_ops else 0.0,
        "delay.oversat_interval_frac":
            stats["lb_oversat"] / stats["lb_intervals"] if stats["lb_intervals"] else 0.0,
        "trace.overhead_frac":
            run.overhead[0] / run.overhead[1] - 1.0 if run.overhead else 0.0,
        "ops_failed_frac": (run.failed + run.known_failures) / max(1, run.attempted),
    }
    for name in CLI_VALUES:  # measured by the workload around each command
        out[name] = run.values.get(name, 0.0)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = per_op(self_time[layer])
    return out
