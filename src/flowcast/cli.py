"""Command-line harness: synth, pca, predict, segment, control, loocv.

Every run writes a ``manifest.json`` capturing inputs, seed, and resolved
configuration; its SHA-256 hash is embedded in every artifact (JSON field
``manifest_hash``; leading ``# manifest_hash=...`` comment in CSVs) so
outputs are traceable and reruns byte-identical.

Exit codes: 0 success, 1 validation failure, 2 I/O failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import warnings
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__, artifact
from .flowdata import (
    FlowDataset,
    SplitSpec,
    ValidationError,
    center,
    load_csv,
    load_dataset,
    load_sample,
    mean_profile,
    save_dataset,
    split_at,
    vector_to_grid,
)
from .lowrank import explained_variance, fit_pca, pca_to_json
from .pls import fit_pls_kernel, loocv, predict
from .segmentation import (
    FitConfig,
    optimal_segmentation,
    plan_from_json,
    plan_to_json,
)
from .controller import (
    BANK_FIT_REVISION,
    ControllerConfig,
    PlsModelBank,
    build_model_bank,
    evaluate_days,
    predictive_plan_to_json,
    validate_windows,
)
from .delay import SCENARIOS, IntersectionConfig, report_document
from .synth import SynthConfig, generate


@dataclass(frozen=True)
class RunManifest:
    """What a run saw: command, inputs, seed, resolved configs, destination."""

    command: str
    inputs: dict
    seed: int | None
    configs: dict
    out_dir: str
    tool_version: str = __version__

    def canonical_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))

    @property
    def hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()

    def write(self, out_dir: Path) -> str:
        doc = {**json.loads(self.canonical_json()), "manifest_hash": self.hash}
        artifact.write(doc, out_dir / "manifest.json")
        return self.hash


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are validation failures (exit 1)
        raise ValidationError(message)


def _write_csv(path: Path, header: list[str], rows, manifest_hash: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# manifest_hash={manifest_hash}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValidationError("config file must hold a JSON object")
    return doc


def _config_block(config: dict, name: str, allowed) -> dict:
    """A copy of ``config[name]``, which may use only the ``allowed`` keys."""
    block = config.get(name, {})
    if not isinstance(block, dict):
        raise ValidationError(f"config block {name!r} must be a JSON object")
    unknown = sorted(set(block) - set(allowed))
    if unknown:
        raise ValidationError(
            f"unknown key(s) in config block {name!r}: {', '.join(unknown)}"
        )
    return dict(block)


@contextmanager
def _typed_values(name: str):
    """Report a config value of the wrong type in block ``name`` (the
    ``TypeError`` of the constructor it reaches) as a validation failure."""
    try:
        yield
    except TypeError as exc:
        raise ValidationError(f"config block {name!r} holds a value of the wrong type: "
                              f"{exc}") from None


def _meta_path(csv_path: Path) -> Path:
    return csv_path.parent / (csv_path.stem + ".meta.json")


def _load_input(args) -> FlowDataset:
    if not args.input:
        raise ValidationError("--input is required for this command")
    csv_path = Path(args.input)
    meta = _meta_path(csv_path)
    if meta.exists():
        return load_dataset(csv_path, meta)
    return load_csv(csv_path, args.interval_minutes)


def _start_run(args, inputs: dict, configs: dict, seed: int | None = None) -> tuple[Path, str]:
    """Create ``--out-dir`` and write the manifest of ``args.command`` there,
    seeded ``seed`` or else ``args.seed``; returns (out dir, manifest hash)."""
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest(command=args.command, inputs=inputs,
                           seed=args.seed if seed is None else seed,
                           configs=configs, out_dir=str(out))
    return out, manifest.write(out)


def _fmt(value: float, places: int = 6) -> str:
    return format(float(value), f".{places}f")


# ---------------------------------------------------------------- synth

def cmd_synth(args) -> int:
    config = _load_config(args.config)
    synth_cfg = _config_block(config, "synth", [f.name for f in fields(SynthConfig)])
    if args.seed is not None:
        synth_cfg["seed"] = args.seed
    with _typed_values("synth"):
        cfg = SynthConfig(**synth_cfg)
    out, mhash = _start_run(args, {}, {"synth": asdict(cfg)}, seed=cfg.seed)
    ds, truth = generate(cfg)
    save_dataset(ds, out / "flows.csv", out / "flows.meta.json", manifest_hash=mhash)
    artifact.write({**truth.to_json_dict(), "manifest_hash": mhash},
                   out / "ground_truth.json")
    print(f"wrote {ds.n_days} days x {ds.flows.shape[1]} columns to {out / 'flows.csv'}")
    return 0


# ---------------------------------------------------------------- pca

def cmd_pca(args) -> int:
    ds = _load_input(args)
    out, mhash = _start_run(args, {"input": str(args.input)},
                            {"pca": {"n_components": args.n_components,
                                     "component_scale": args.component_scale}})
    model = fit_pca(center(ds), args.n_components, component_scale=args.component_scale)
    pca_to_json(model, out / "pca_model.json", manifest_hash=mhash)
    fractions = explained_variance(model)
    _write_csv(
        out / "explained_variance.csv",
        ["component", "fraction"],
        [[i + 1, _fmt(f, 9)] for i, f in enumerate(fractions)],
        mhash,
    )
    header = ["date"] + [f"w{i + 1}" for i in range(model.n_components)]
    rows = [
        [rec.date] + [_fmt(w) for w in model.weights[i]]
        for i, rec in enumerate(ds.days)
    ]
    _write_csv(out / "weights.csv", header, rows, mhash)
    print(f"fit {model.n_components} components; "
          f"top fraction {fractions[0]:.4f}" if len(fractions) else "fit model")
    return 0


# ---------------------------------------------------------------- predict

def _split_spec_from_args(args, ds: FlowDataset) -> SplitSpec:
    t = ds.intervals_per_day
    cutoff = args.cutoff if args.cutoff is not None else max(1, (t * 10) // 24)
    predict_from = args.predict_from if args.predict_from is not None else cutoff + 1
    predict_to = args.predict_to if args.predict_to is not None else t
    spec = SplitSpec(
        cutoff_index=cutoff,
        predict_from=predict_from,
        predict_to=predict_to,
        predictor_stride=args.predictor_stride,
        predicted_stride=args.predicted_stride,
    )
    spec.validate_for(t)
    return spec


def cmd_predict(args) -> int:
    ds = _load_input(args)
    spec = _split_spec_from_args(args, ds)
    if bool(args.date) == bool(args.sample):
        raise ValidationError("predict needs exactly one of --date (holdout) and "
                              "--sample (external file)")
    z_all, y_all = split_at(ds, spec)
    if args.date:
        idx = ds.day_index(args.date)
        z_train = np.delete(z_all, idx, axis=0)
        y_train = np.delete(y_all, idx, axis=0)
        label, z_sample, actual = args.date, z_all[idx], y_all[idx]
    else:
        label, z_sample = load_sample(args.sample, ds, spec)
        z_train, y_train, actual = z_all, y_all, None
    # The sample and the date are read before the run writes anything.
    out, mhash = _start_run(
        args, {"input": str(args.input), "sample": args.sample or "", "date": args.date or ""},
        {"split": asdict(spec), "pls": {"n_components": args.n_components}})
    model = fit_pls_kernel(z_train, y_train, args.n_components, split=spec)
    y_hat = predict(model, z_sample)
    y_mean = y_train.mean(axis=0)

    width = spec.predicted_width
    rows = []
    for m, movement in enumerate(ds.movements):
        for k in range(width):
            interval = spec.predict_from + k * spec.predicted_stride
            col = m * width + k
            rows.append([
                movement,
                interval,
                "" if actual is None else _fmt(actual[col]),
                _fmt(y_hat[col]),
                _fmt(y_mean[col]),
            ])
    _write_csv(out / "prediction.csv",
               ["movement", "interval", "actual", "predicted", "mean"], rows, mhash)
    print(f"predicted {label}: {len(rows)} rows -> {out / 'prediction.csv'}")
    return 0


# ---------------------------------------------------------------- segment

def cmd_segment(args) -> int:
    ds = _load_input(args)
    fit_cfg = FitConfig(overflow_penalty=args.overflow_penalty)
    if args.date:
        profile = ds.day_grid(ds.day_index(args.date))
    else:
        profile = vector_to_grid(mean_profile(ds), ds.intervals_per_day, ds.n_movements)
    plan = optimal_segmentation(profile, args.segments, fit_cfg,
                                interval_minutes=ds.interval_minutes)
    out, mhash = _start_run(args, {"input": str(args.input), "date": args.date or ""},
                            {"segmentation": {"segments": args.segments,
                                              "overflow_penalty": args.overflow_penalty}})
    plan_to_json(plan, out / "plan.json", manifest_hash=mhash,
                 movements=list(ds.movements))
    times = ", ".join(str(t) for t in plan.switch_times)
    print(f"optimal {plan.n_periods}-period plan, switches at [{times}], "
          f"cost {plan.total_cost:.3f}")
    return 0


# ---------------------------------------------------------------- loocv

def cmd_loocv(args) -> int:
    ds = _load_input(args)
    spec = _split_spec_from_args(args, ds)
    out, mhash = _start_run(args, {"input": str(args.input)},
                            {"split": asdict(spec), "pls": {"n_components": args.n_components}})
    records = loocv(ds, spec, args.n_components)
    _write_csv(
        out / "loocv.csv",
        ["date", "E_pred", "E_base", "decrease"],
        [[r.date, _fmt(r.e_pred), _fmt(r.e_base), _fmt(r.decrease, 9)] for r in records],
        mhash,
    )
    positive = sum(1 for r in records if r.decrease > 0)
    summary = {
        "n_days": len(records),
        "n_positive_decrease": positive,
        "fraction_positive_decrease": positive / len(records),
        "mean_decrease": float(np.mean([r.decrease for r in records])),
    }
    artifact.write({**summary, "manifest_hash": mhash}, out / "loocv_summary.json")
    print(f"{positive}/{len(records)} days improved over the mean baseline")
    return 0


# ---------------------------------------------------------------- control

def _intersection_from_config(ds: FlowDataset, config: dict) -> IntersectionConfig:
    keys = [f.name for f in fields(IntersectionConfig) if f.init and f.name != "n_movements"]
    kwargs = _config_block(config, "intersection", keys)
    kwargs.setdefault("analysis_period_hours", ds.interval_minutes / 60.0)
    with _typed_values("intersection"):
        if "phases" in kwargs:
            return IntersectionConfig(n_movements=ds.n_movements, **kwargs)
        return IntersectionConfig.default_for(ds.movements, **kwargs)


def _dataset_hash(ds: FlowDataset) -> str:
    h = hashlib.sha256()
    h.update(ds.flows.tobytes())
    h.update(repr([r.date for r in ds.days]).encode())
    h.update(repr(list(ds.movements)).encode())
    h.update(str(ds.interval_minutes).encode())
    return h.hexdigest()


def _bank_for(ds: FlowDataset, plan, ctrl_cfg: ControllerConfig, n_components: int,
              cache_dir: Path) -> PlsModelBank:
    key_material = json.dumps({
        "dataset": _dataset_hash(ds),
        "plan": plan_to_json(plan),
        "window_halfwidth": ctrl_cfg.window_halfwidth,
        "n_components": n_components,
        "fit_revision": BANK_FIT_REVISION,
        "tool_version": __version__,
    }, sort_keys=True)
    key = hashlib.sha256(key_material.encode("utf-8")).hexdigest()[:16]
    cache_file = cache_dir / f"bank_{key}.json"
    if cache_file.exists():
        try:
            bank = PlsModelBank.from_json(cache_file)
            bank.check_fits(plan, ctrl_cfg.window_halfwidth, ds.n_movements)
            return bank
        except ValueError as exc:
            print(f"warning: refitting damaged bank cache {cache_file}: {exc}",
                  file=sys.stderr)
    bank = build_model_bank(ds, plan, ctrl_cfg, n_components)
    cache_dir.mkdir(parents=True, exist_ok=True)
    bank.to_json(cache_file)
    return bank


def cmd_control(args) -> int:
    ds = _load_input(args)
    config = _load_config(args.config)
    fit_cfg = FitConfig(overflow_penalty=args.overflow_penalty)
    with _typed_values("controller"):
        ctrl_cfg = ControllerConfig(window_halfwidth=args.window,
                                    **_config_block(config, "controller", ["clamp_predictions"]))
    ic = _intersection_from_config(ds, config)

    if args.plan:
        plan = plan_from_json(args.plan)
        if plan.interval_minutes not in (None, ds.interval_minutes):
            raise ValidationError(f"plan has {plan.interval_minutes}-minute intervals, "
                                  f"the data {ds.interval_minutes}-minute ones")
        if plan.n_intervals != ds.intervals_per_day:
            raise ValidationError(f"plan has {plan.n_intervals} intervals per day, "
                                  f"the data {ds.intervals_per_day}")
    else:
        profile = vector_to_grid(mean_profile(ds), ds.intervals_per_day, ds.n_movements)
        plan = optimal_segmentation(profile, args.segments, fit_cfg,
                                    interval_minutes=ds.interval_minutes)
    # The plan and the date are checked before the run writes anything.
    validate_windows(plan, ctrl_cfg.window_halfwidth)
    indices = list(range(ds.n_days)) if args.date == "all" else [ds.day_index(args.date)]

    out, mhash = _start_run(
        args, {"input": str(args.input), "plan": args.plan or "", "date": args.date},
        {"segmentation": {"segments": plan.n_periods,
                          "overflow_penalty": args.overflow_penalty},
         "controller": {"window_halfwidth": ctrl_cfg.window_halfwidth,
                        "clamp_predictions": ctrl_cfg.clamp_predictions},
         "pls": {"n_components": args.n_components},
         "intersection": config.get("intersection", {})})
    if not args.plan:
        plan_to_json(plan, out / "plan.json", manifest_hash=mhash,
                     movements=list(ds.movements))

    bank = _bank_for(ds, plan, ctrl_cfg, args.n_components, out / "cache")
    results = evaluate_days(ds, indices, plan, bank, ctrl_cfg, fit_cfg, ic)
    if args.date != "all":
        ((report, *plans),) = results
        date = report.date
        rows = [[t + 1] + [_fmt(report.traces[s].rates[t]) for s in SCENARIOS]
                for t in range(ds.intervals_per_day)]
        _write_csv(out / f"delay_{date}.csv", ["interval", *SCENARIOS], rows, mhash)
        for suffix, predictive in zip(("seg", "seg_params"), plans):
            predictive_plan_to_json(predictive, out / f"predictive_plan_{date}_{suffix}.json",
                                    manifest_hash=mhash, date=date)

    doc = report_document([r for r, _, _ in results])
    artifact.write({**doc, "manifest_hash": mhash}, out / "delay_report.json")
    print(f"evaluated {len(results)} day(s); mean nominal delay "
          f"{doc['mean']['nominal']:.1f} veh.h, seg+params improvement "
          f"{doc['mean']['improvement_seg_params']:.1f} veh.h")
    return 0


# ---------------------------------------------------------------- wiring

def _build_parser() -> _Parser:
    parser = _Parser(prog="flowcast", description=__doc__)
    parser.add_argument("--version", action="version", version=f"flowcast {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--input", help="input flows CSV (sidecar auto-detected)")
    common.add_argument("--out-dir", default="out", help="output directory")
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--config", help="JSON config file with per-command blocks")
    common.add_argument("--interval-minutes", type=int, default=15,
                        help="interval length when no sidecar is present")

    split_flags = argparse.ArgumentParser(add_help=False)
    split_flags.add_argument("--cutoff", type=int, default=None,
                             help="last observed interval (default: 10:00)")
    split_flags.add_argument("--predict-from", type=int, default=None)
    split_flags.add_argument("--predict-to", type=int, default=None)
    split_flags.add_argument("--predictor-stride", type=int, default=1)
    split_flags.add_argument("--predicted-stride", type=int, default=1)
    split_flags.add_argument("--n-components", type=int, default=4)

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", parents=[common], help="generate a synthetic dataset")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("pca", parents=[common], help="fit the low-rank day model")
    p.add_argument("--n-components", type=int, default=4)
    p.add_argument("--component-scale", type=float, default=1.0)
    p.set_defaults(func=cmd_pca)

    p = sub.add_parser("predict", parents=[common, split_flags],
                       help="predict the rest of one day from its morning")
    p.add_argument("--date", help="holdout date from the dataset")
    p.add_argument("--sample", help="external one-day CSV with the predictor window")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("segment", parents=[common],
                       help="optimal time-of-day periods for the mean (or one) day")
    p.add_argument("--segments", type=int, default=4)
    p.add_argument("--overflow-penalty", type=float, default=2.0)
    p.add_argument("--date", help="segment this day instead of the mean profile")
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("control", parents=[common],
                       help="run the predictive controller and report delay")
    p.add_argument("--plan", help="nominal plan JSON (default: segment the mean)")
    p.add_argument("--segments", type=int, default=7)
    p.add_argument("--overflow-penalty", type=float, default=2.0)
    p.add_argument("--window", type=int, default=3)
    p.add_argument("--n-components", type=int, default=4)
    p.add_argument("--date", default="all", help='a date, or "all"')
    p.set_defaults(func=cmd_control)

    p = sub.add_parser("loocv", parents=[common, split_flags],
                       help="leave-one-out prediction errors per day")
    p.set_defaults(func=cmd_loocv)
    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    # Each warning a command raises prints as one line; the filters that
    # decide whether it shows, or raises, are left as they are.
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            args = parser.parse_args(argv)
            return args.func(args)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except OSError as exc:
            print(f"i/o error: {exc}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
