#!/usr/bin/env python3
"""End-to-end demo: synthesize flows, model them, run the controller.

Generates a synthetic dataset with one above-average and one below-average
planted day, fits the low-rank model, reports leave-one-out prediction skill,
builds a nominal time-of-day plan, and compares nominal vs predictive
signal-timing delay on the planted days.
"""

import argparse

import numpy as np

from flowcast import (
    ControllerConfig,
    FitConfig,
    IntersectionConfig,
    SplitSpec,
    SynthConfig,
    build_model_bank,
    center,
    evaluate_days,
    explained_variance,
    fit_pca,
    generate,
    loocv,
    mean_profile,
    optimal_segmentation,
    vector_to_grid,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=101)
    ap.add_argument("--days", type=int, default=60)
    ap.add_argument("--segments", type=int, default=5)
    ap.add_argument("--window", type=int, default=3)
    ap.add_argument("--components", type=int, default=4)
    args = ap.parse_args()

    high_day, low_day = args.days // 3, 2 * args.days // 3
    cfg = SynthConfig(seed=args.seed, n_days=args.days,
                      anomaly_days=((high_day, (2.2, 0.0, 2.2, 0.0)),
                                    (low_day, (-2.2, 0.0, -2.2, 0.0))))
    ds, _ = generate(cfg)
    print(f"dataset: {ds.n_days} days, {ds.intervals_per_day} intervals/day, "
          f"{ds.n_movements} movements")

    pca = fit_pca(center(ds), args.components)
    fractions = explained_variance(pca)
    print("explained variance:",
          " ".join(f"{f:.3f}" for f in fractions),
          f"(top {args.components} sum {fractions.sum():.3f})")

    t = ds.intervals_per_day
    cutoff = max(1, (t * 10) // 24)  # observe up to 10:00
    spec = SplitSpec(cutoff_index=cutoff, predict_from=cutoff + 1, predict_to=t)
    records = loocv(ds, spec, args.components)
    positive = sum(1 for r in records if r.decrease > 0)
    print(f"LOOCV: {positive}/{len(records)} days beat the mean baseline; "
          f"mean decrease {np.mean([r.decrease for r in records]):.3f}")

    fit_cfg = FitConfig(overflow_penalty=2.0)
    profile = vector_to_grid(mean_profile(ds), t, ds.n_movements)
    nominal = optimal_segmentation(profile, args.segments, fit_cfg,
                                   interval_minutes=ds.interval_minutes)
    print(f"nominal plan: {args.segments} periods, "
          f"switches at {', '.join(nominal.switch_times_hhmm)}")

    ctrl = ControllerConfig(window_halfwidth=args.window)
    bank = build_model_bank(ds, nominal, ctrl, args.components)
    ic = IntersectionConfig.default_for(ds.movements,
                                        analysis_period_hours=ds.interval_minutes / 60.0)

    header = f"{'day':>12} {'nominal':>9} {'seg':>9} {'seg+par':>9} {'bound':>9}"
    print(header)
    labels = {"above-avg": high_day, "below-avg": low_day, "typical": 1}
    results = evaluate_days(ds, list(labels.values()), nominal, bank, ctrl, fit_cfg, ic)
    for label, (report, _, _) in zip(labels, results):
        totals = report.totals().values()
        print(f"{label:>12} " + " ".join(f"{v:9.2f}" for v in totals))
    print("(veh.h of control delay per day; bound = per-interval optimal splits)")


if __name__ == "__main__":
    main()
