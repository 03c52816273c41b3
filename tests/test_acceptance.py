"""Acceptance battery: ten externally checkable guarantees, one test each.

Each test prints a single ``[PASS] criterion N: ...`` line on success (run
with ``-s`` to see them); a pytest failure line is the corresponding FAIL.
"""

import json
import time

import numpy as np
import pytest

from flowcast import (
    ControllerConfig,
    ControllerMode,
    FitConfig,
    FixedProfileBank,
    IntersectionConfig,
    SplitSpec,
    SynthConfig,
    build_model_bank,
    fit_pls_kernel,
    fit_value,
    generate,
    loocv,
    lower_bound_delay,
    mean_profile,
    movement_delay,
    optimal_segmentation,
    predict,
    run_controller,
    segment_cost,
    simulate_day,
    split_at,
    vector_to_grid,
)
from flowcast.cli import main as cli_main
from flowcast.controller import segment_window, t_opt

from _oracles import brute_force_plan, fit_pls, grid_minimize_1d, joint_switch_and_params

CFG2 = FitConfig(overflow_penalty=2.0)


def _close(a: np.ndarray, b: np.ndarray, tol: float) -> float:
    gap = float(np.abs(a - b).max()) if a.size else 0.0
    assert gap <= tol * max(1.0, float(np.abs(a).max()) if a.size else 1.0)
    return gap


def test_criterion_01_kernel_and_direct_routes_agree():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        d = int(rng.integers(4, 21))
        dim_z = int(rng.integers(3, 61))
        dim_y = int(rng.integers(2, 61))
        r = min(d - 1, 5)
        k = int(rng.integers(1, r + 1))
        # shared latent factors with geometrically decaying strengths, the
        # regime the day-flow model targets; the resulting cross-covariance
        # spectrum has clean gaps that power iteration resolves sharply
        latent = rng.standard_normal((d, r)) * (40.0 * 0.55 ** np.arange(r))
        z = 200.0 + latent @ rng.standard_normal((r, dim_z)) \
            + 0.5 * rng.standard_normal((d, dim_z))
        y = latent @ rng.standard_normal((r, dim_y)) \
            + 0.5 * rng.standard_normal((d, dim_y))
        direct = fit_pls(z, y, k)
        kernel = fit_pls_kernel(z, y, k)
        assert direct.n_components == kernel.n_components
        worst = max(worst, _close(direct.scores, kernel.scores, 1e-6))
        worst = max(worst, _close(direct.predictor_loadings,
                                  kernel.predictor_loadings, 1e-6))
        worst = max(worst, _close(direct.predicted_loadings,
                                  kernel.predicted_loadings, 1e-6))
        z_new = 200.0 + 40.0 * rng.standard_normal((3, dim_z))
        worst = max(worst, _close(predict(direct, z_new), predict(kernel, z_new), 1e-6))
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"[PASS] criterion 1: kernel and direct fits agree on 20 random "
          f"instances (worst gap {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_02_mean_predictor_consistency(noisy):
    rng = np.random.default_rng(202)
    models = []
    for _ in range(6):
        d = int(rng.integers(4, 16))
        z = rng.uniform(0.0, 300.0, (d, int(rng.integers(3, 30))))
        y = rng.uniform(0.0, 300.0, (d, int(rng.integers(2, 20))))
        k = int(rng.integers(1, d - 1))
        models.append(fit_pls(z, y, k))
        models.append(fit_pls_kernel(z, y, k))
    ds, _ = noisy
    t = ds.intervals_per_day
    for cutoff in (t // 4, t // 2):
        spec = SplitSpec(cutoff_index=cutoff, predict_from=cutoff + 1, predict_to=t)
        z, y = split_at(ds, spec)
        models.append(fit_pls_kernel(z, y, 4, split=spec))
    worst = 0.0
    for model in models:
        gap = float(np.abs(predict(model, model.mean_z) - model.mean_y).max())
        assert gap <= 1e-12
        worst = max(worst, gap)
    print(f"[PASS] criterion 2: predict(mean predictor) returns the mean target "
          f"for all {len(models)} fitted models (worst gap {worst:.2e})")


def test_criterion_03_planted_recovery_and_noisy_skill(noisy):
    start = time.perf_counter()
    clean, _ = generate(SynthConfig(seed=7, noise_sigma=0.0))  # 132 days, 4 components
    spec = SplitSpec(cutoff_index=40, predict_from=41, predict_to=96)
    records = loocv(clean, spec, 4)
    worst_ratio = max(r.e_pred / r.e_base for r in records)
    assert all(r.e_pred <= 1e-6 * r.e_base for r in records)

    ds, _ = noisy  # default config: 132 days, noise sigma 10
    noisy_records = loocv(ds, spec, 4)
    assert len(noisy_records) == 132
    fraction = sum(1 for r in noisy_records if r.decrease > 0) / len(noisy_records)
    assert fraction >= 0.8
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"[PASS] criterion 3: noiseless LOOCV worst error ratio {worst_ratio:.2e}; "
          f"noisy positive-decrease fraction {fraction:.3f} >= 0.8 ({elapsed:.1f}s)")


def test_criterion_04_segmentation_matches_brute_force():
    rng = np.random.default_rng(404)
    start = time.perf_counter()
    for trial in range(200):
        t = int(rng.integers(2, 13))
        m = int(rng.integers(1, 3))
        s = int(rng.integers(1, min(3, t) + 1))
        cfg = FitConfig(overflow_penalty=float(rng.choice([1.0, 2.0, 5.0])))
        if trial % 2:  # integer flows provoke exact cost ties
            x = rng.integers(0, 7, size=(t, m)).astype(float)
        else:
            x = rng.uniform(0.0, 25.0, size=(t, m))
        plan = optimal_segmentation(x, s, cfg)
        ref_cost, ref_switches = brute_force_plan(x, s, cfg)
        assert plan.switch_times == ref_switches
        assert abs(plan.total_cost - ref_cost) <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"[PASS] criterion 4: DP equals brute force on 200 trials, switch "
          f"ties resolved identically ({elapsed:.1f}s)")


def test_criterion_05_asymmetric_minimizer_matches_grid():
    rng = np.random.default_rng(55)
    worst_mu, worst_cost = 0.0, 0.0
    for penalty in (1.0, 2.0, 5.0):
        cfg = FitConfig(overflow_penalty=penalty)
        for _ in range(12):
            n = int(rng.integers(2, 30))
            x = rng.uniform(0.0, 15.0, size=(n, 2))
            cost, mu = segment_cost(x, 1, n, cfg)
            ref_total = 0.0
            for j in range(2):
                mu_ref, cost_ref = grid_minimize_1d(x[:, j], penalty)
                worst_mu = max(worst_mu, abs(mu[j] - mu_ref))
                assert abs(mu[j] - mu_ref) <= 1e-3
                ref_total += cost_ref
            rel = abs(cost - ref_total) / max(cost, 1e-12)
            worst_cost = max(worst_cost, rel)
            assert cost <= ref_total + 1e-12  # exact minimizer beats the grid
            assert rel <= 1e-6
    print(f"[PASS] criterion 5: minimizer within {worst_mu:.2e} of the 1e-4 grid, "
          f"cost within {worst_cost:.2e} relative, penalties 1/2/5")


def test_criterion_06_switch_rule_matches_joint_optimum(small):
    rng = np.random.default_rng(66)
    for trial in range(100):
        t_total = int(rng.integers(8, 29))
        m = int(rng.integers(1, 4))
        tau = int(rng.integers(3, t_total - 1))
        h = int(rng.integers(0, 4))
        window = segment_window(tau, h, t_total)
        t = int(rng.choice(window))
        horizon = int(rng.integers(tau + 1, t_total + 1))
        if trial % 2:
            y = rng.integers(0, 5, size=(t_total, m)).astype(float)
            mu_cur = rng.integers(0, 5, size=m).astype(float)
        else:
            y = rng.uniform(0.0, 30.0, size=(t_total, m))
            mu_cur = rng.uniform(0.0, 30.0, size=m)
        u = t_opt(t, window, y, mu_cur, horizon, CFG2,
                  ControllerMode.SEGMENTATION_AND_PARAMS)
        _, u_ref, mu_ref = joint_switch_and_params(y, window, t, mu_cur, horizon, CFG2)
        assert u == u_ref
        if u + 1 <= horizon:  # committed parameters equal the joint optimum
            mu_committed = segment_cost(y, u + 1, horizon, CFG2)[1]
            assert np.array_equal(mu_committed, mu_ref)
        else:
            assert mu_ref is None

    # corollary: with exact mean predictions, the nominal plan is replayed
    ds, _ = small
    profile = vector_to_grid(mean_profile(ds), ds.intervals_per_day, ds.n_movements)
    nominal = optimal_segmentation(profile, 3, CFG2,
                                   interval_minutes=ds.interval_minutes)
    bank = FixedProfileBank(profile)
    day = ds.day_grid(3)  # decisions must not depend on the measured day
    for mode in ControllerMode:
        out = run_controller(nominal, day, bank,
                             ControllerConfig(window_halfwidth=2, mode=mode), CFG2)
        assert out.switch_times == nominal.switch_times
        assert np.array_equal(out.params, nominal.params)
    print("[PASS] criterion 6: online switch rule equals the joint optimum on "
          "100 instances; perfect-mean oracle replays the nominal plan exactly")


def test_criterion_07_fit_value_additivity():
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 60))
        m = int(rng.integers(1, 5))
        cfg = FitConfig(overflow_penalty=float(rng.choice([1.0, 2.0, 5.0])))
        x = rng.uniform(0.0, 500.0, size=(n, m))
        mu = rng.uniform(0.0, 500.0, size=m)
        split = int(rng.integers(1, n))
        full = fit_value(x, 1, n, mu, cfg)
        parts = fit_value(x, 1, split, mu, cfg) + fit_value(x, split + 1, n, mu, cfg)
        gap = abs(full - parts) / max(1.0, abs(full))
        worst = max(worst, gap)
        assert gap <= 1e-9
    print(f"[PASS] criterion 7: fit value splits additively at any interior "
          f"point, 1000 checks, worst relative gap {worst:.2e}")


def test_criterion_08_delay_sanity():
    ds, _ = generate(SynthConfig(seed=17, n_days=10, intervals_per_day=24,
                                 n_movements=4, n_components=2, noise_sigma=8.0))
    ic = IntersectionConfig.default_for(ds.movements,
                                        analysis_period_hours=ds.interval_minutes / 60.0)
    profile = vector_to_grid(mean_profile(ds), ds.intervals_per_day, ds.n_movements)
    nominal = optimal_segmentation(profile, 3, CFG2,
                                   interval_minutes=ds.interval_minutes)
    ctrl = ControllerConfig(window_halfwidth=1)
    bank = build_model_bank(ds, nominal, ctrl, 2)
    worst_margin = -np.inf
    for idx in range(ds.n_days):
        day = ds.day_grid(idx)
        lb = lower_bound_delay(day, ic)
        plans = [nominal]
        for mode in ControllerMode:
            cfg = ControllerConfig(window_halfwidth=1, mode=mode)
            plans.append(run_controller(nominal, day, bank, cfg, CFG2))
        for plan in plans:
            margin = lb.total - simulate_day(day, plan, ic).total
            worst_margin = max(worst_margin, margin)
            assert margin <= 1e-6

    flows = np.linspace(0.0, 2000.0, 21)
    greens = np.linspace(0.15, 0.9, 16)
    for g in greens:
        d = [movement_delay(f, 1800.0, g, ic) for f in flows]
        assert all(b >= a - 1e-9 for a, b in zip(d, d[1:]))
    for f in flows:
        d = [movement_delay(f, 1800.0, g, ic) for g in greens]
        assert all(b <= a + 1e-9 for a, b in zip(d, d[1:]))

    empty = np.zeros((ds.intervals_per_day, ds.n_movements))
    assert simulate_day(empty, nominal, ic).total == 0.0
    assert lower_bound_delay(empty, ic).total == 0.0
    print(f"[PASS] criterion 8: lower bound below every scenario on all "
          f"{ds.n_days} synthetic days (worst margin {worst_margin:.2e}); "
          f"monotonicity and zero-flow checks hold")


def test_criterion_09_anomaly_suite_ordering():
    start = time.perf_counter()
    above = (7, 18, 29, 40, 51)
    below = (12, 23, 34, 45, 56)
    anomalies = tuple((d, (2.2, 0.0, 2.2, 0.0)) for d in above) \
        + tuple((d, (-2.2, 0.0, -2.2, 0.0)) for d in below)
    ds, _ = generate(SynthConfig(seed=101, n_days=60, anomaly_days=anomalies))
    profile = vector_to_grid(mean_profile(ds), ds.intervals_per_day, ds.n_movements)
    nominal = optimal_segmentation(profile, 5, CFG2,
                                   interval_minutes=ds.interval_minutes)
    bank = build_model_bank(ds, nominal, ControllerConfig(window_halfwidth=3), 4)
    ic = IntersectionConfig.default_for(ds.movements)

    peak_interval = int(np.argmax(profile.sum(axis=1))) + 1

    def peak_length(plan) -> int:
        for a, b in plan.periods():
            if a <= peak_interval <= b:
                return b - a + 1
        raise AssertionError("peak interval not covered")

    nominal_len = peak_length(nominal)
    seg_cfg = ControllerConfig(window_halfwidth=3, mode=ControllerMode.SEGMENTATION_ONLY)
    both_cfg = ControllerConfig(window_halfwidth=3,
                                mode=ControllerMode.SEGMENTATION_AND_PARAMS)
    imp_seg, imp_both = [], []
    for sign, days in ((+1, above), (-1, below)):
        for idx in days:
            day = ds.day_grid(idx)
            plan_seg = run_controller(nominal, day, bank, seg_cfg, CFG2)
            plan_both = run_controller(nominal, day, bank, both_cfg, CFG2)
            base = simulate_day(day, nominal, ic).total
            imp_seg.append(base - simulate_day(day, plan_seg, ic).total)
            imp_both.append(base - simulate_day(day, plan_both, ic).total)
            shift = peak_length(plan_seg) - nominal_len
            assert np.sign(shift) == sign  # peak period extends/shrinks with demand
    mean_seg, mean_both = float(np.mean(imp_seg)), float(np.mean(imp_both))
    assert mean_both > mean_seg >= 0.0
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    print(f"[PASS] criterion 9: mean improvement seg+params {mean_both:.3f} > "
          f"seg-only {mean_seg:.3f} >= 0; peak-period shift matches anomaly "
          f"sign on all 10 planted days ({elapsed:.1f}s)")


def test_criterion_10_cli_determinism(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"synth": {
        "n_days": 10, "intervals_per_day": 24, "n_movements": 4,
        "n_components": 2, "noise_sigma": 5.0}}))
    data = tmp_path / "data"
    assert cli_main(["synth", "--seed", "3", "--config", str(config),
                     "--out-dir", str(data)]) == 0
    flows = str(data / "flows.csv")
    runs = {
        "synth": ["synth", "--seed", "3", "--config", str(config)],
        "pca": ["pca", "--input", flows, "--n-components", "2"],
        "predict": ["predict", "--input", flows, "--date", "2024-01-04",
                    "--n-components", "2"],
        "segment": ["segment", "--input", flows, "--segments", "3"],
        "loocv": ["loocv", "--input", flows, "--n-components", "2"],
        "control": ["control", "--input", flows, "--date", "2024-01-05",
                    "--segments", "3", "--window", "1", "--n-components", "2"],
    }
    for name, argv in runs.items():
        out = tmp_path / name
        argv = argv + ["--out-dir", str(out), "--seed", "3"]
        assert cli_main(argv) == 0
        first = {p.relative_to(out): p.read_bytes()
                 for p in sorted(out.rglob("*")) if p.is_file()}
        assert cli_main(argv) == 0
        second = {p.relative_to(out): p.read_bytes()
                  for p in sorted(out.rglob("*")) if p.is_file()}
        assert first == second, f"{name} rerun changed its outputs"
        assert first, f"{name} produced no files"
    print(f"[PASS] criterion 10: all {len(runs)} CLI commands byte-identical "
          f"across two fixed-seed runs")
