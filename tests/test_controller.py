import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from flowcast import (
    ControllerConfig,
    ControllerMode,
    FitConfig,
    FixedProfileBank,
    PlsModelBank,
    SplitSpec,
    SynthConfig,
    build_model_bank,
    fit_pls_kernel,
    generate,
    optimal_segmentation,
    predict,
    run_controller,
    segment_window,
    split_at,
    t_opt,
    vector_to_grid,
)
from flowcast import delay, mean_profile, segment_cost
from flowcast.controller import (
    PredictivePlan, evaluate_days, plan_horizons, validate_windows,
)
from flowcast.delay import SCENARIOS, IntersectionConfig, lower_bound_delay, simulate_day
from flowcast.segmentation import SegmentationPlan

from _oracles import joint_switch_and_params, per_day_evaluate_days

CFG = FitConfig(overflow_penalty=2.0)
SEG_ONLY = ControllerMode.SEGMENTATION_ONLY
SEG_PARAMS = ControllerMode.SEGMENTATION_AND_PARAMS


def step_day(t=24, m=2, lo=10.0, hi=50.0, peak=(9, 16)):
    """Piecewise-constant day: low, then high on [peak[0], peak[1]], then low."""
    day = np.full((t, m), lo)
    day[peak[0] - 1 : peak[1]] = hi
    return day


def test_segment_window_examples():
    assert segment_window(40, 3, 96) == list(range(37, 44))
    assert segment_window(40, 0, 96) == [40]
    assert segment_window(2, 3, 96) == [1, 2, 3, 4, 5]
    assert segment_window(95, 3, 96) == [92, 93, 94, 95]


def test_controller_config_rejects_a_clamp_that_is_not_a_bool():
    with pytest.raises(TypeError, match="clamp_predictions must be true or false"):
        ControllerConfig(clamp_predictions="no")


def test_window_overlap_validation():
    plan = SegmentationPlan(n_periods=3, n_intervals=24, switch_times=(8, 12),
                            params=np.zeros((3, 2)), total_cost=0.0)
    with pytest.raises(ValueError, match="overlap"):
        validate_windows(plan, 2)
    validate_windows(plan, 1)  # 12 - 8 = 4 > 2


def test_t_opt_singleton_window():
    day = step_day()
    assert t_opt(8, [8], day, np.full(2, 10.0), 16, CFG, SEG_PARAMS) == 8


def test_t_opt_prefers_nominal_on_nominal_flows():
    day = step_day()
    # evaluating the true step profile keeps the nominal boundary optimal
    for t in range(5, 9):
        u = t_opt(t, list(range(5, 12)), day, np.full(2, 10.0), 16, CFG, SEG_PARAMS)
        assert u == 8
        u = t_opt(t, list(range(5, 12)), day, np.full(2, 10.0), 16, CFG, SEG_ONLY,
                  mu_next=np.full(2, 50.0))
        assert u == 8


def test_t_opt_step_demand_shifted_late():
    late = step_day(peak=(11, 18))
    for mode, kw in ((SEG_PARAMS, {}), (SEG_ONLY, {"mu_next": np.full(2, 50.0)})):
        u = t_opt(5, list(range(5, 12)), late, np.full(2, 10.0), 16, CFG, mode, **kw)
        assert u == 10  # nominal 8 shifted by the +2 demand shift


def test_t_opt_matches_joint_oracle(rng):
    for _ in range(40):
        t_total = int(rng.integers(8, 20))
        m = int(rng.integers(1, 4))
        x = rng.uniform(0, 60, size=(t_total, m))
        tau = int(rng.integers(2, t_total - 1))
        h = int(rng.integers(0, 4))
        window = segment_window(tau, h, t_total)
        horizon = min(t_total, max(window) + int(rng.integers(1, 5)))
        t = int(rng.integers(1, max(window) + 1))
        mu1 = rng.uniform(0, 60, size=m)
        _, u_ref, _ = joint_switch_and_params(x, window, t, mu1, horizon, CFG)
        u = t_opt(t, window, x, mu1, horizon, CFG, SEG_PARAMS)
        if u_ref is None:
            assert u == t  # forced switch when the window is exhausted
        else:
            assert u == u_ref


def test_t_opt_past_window_forces_switch():
    day = step_day()
    assert t_opt(12, [5, 6, 7], day, np.full(2, 10.0), 16, CFG, SEG_PARAMS) == 12


def test_t_opt_requires_mu_next_in_seg_only_mode():
    day = step_day()
    with pytest.raises(ValueError):
        t_opt(5, [5, 6], day, np.full(2, 10.0), 16, CFG, SEG_ONLY)


def make_nominal(day):
    return optimal_segmentation(day, 3, CFG)


def test_perfect_oracle_reproduces_nominal_exactly():
    day = step_day()
    nominal = make_nominal(day)
    assert nominal.switch_times == (8, 16)
    bank = FixedProfileBank(day)
    for mode in (SEG_ONLY, SEG_PARAMS):
        cfg = ControllerConfig(window_halfwidth=3, mode=mode)
        result = run_controller(nominal, day, bank, cfg, CFG)
        assert result.switch_times == nominal.switch_times
        assert np.array_equal(result.params, nominal.params)


def test_late_peak_day_delays_the_peak_period():
    base = step_day()
    late = step_day(peak=(11, 18))
    nominal = make_nominal(base)
    bank = FixedProfileBank(late)  # perfect foresight of the shifted day
    for mode in (SEG_ONLY, SEG_PARAMS):
        cfg = ControllerConfig(window_halfwidth=3, mode=mode)
        result = run_controller(nominal, late, bank, cfg, CFG)
        assert result.switch_times == (10, 18)
    # peak period starts two intervals later than nominal
    assert result.periods()[1][0] == nominal.periods()[1][0] + 2


def test_zero_halfwidth_reproduces_nominal():
    day = step_day()
    nominal = make_nominal(day)
    shifted = step_day(peak=(11, 18))
    bank = FixedProfileBank(shifted)  # predictions disagree with the plan
    cfg = ControllerConfig(window_halfwidth=0, mode=SEG_ONLY)
    result = run_controller(nominal, shifted, bank, cfg, CFG)
    assert result.switch_times == nominal.switch_times
    assert np.array_equal(result.params, nominal.params)
    # in the refitting mode only the times are pinned
    cfg = ControllerConfig(window_halfwidth=0, mode=SEG_PARAMS)
    result = run_controller(nominal, shifted, bank, cfg, CFG)
    assert result.switch_times == nominal.switch_times


def test_first_period_params_stay_nominal(small):
    ds, _ = small
    day = ds.day_grid(3)
    profile = vector_to_grid(mean_profile(ds), ds.intervals_per_day, ds.n_movements)
    nominal = optimal_segmentation(profile, 3, CFG)
    bank = FixedProfileBank(day)
    for mode in (SEG_ONLY, SEG_PARAMS):
        cfg = ControllerConfig(window_halfwidth=2, mode=mode)
        result = run_controller(nominal, day, bank, cfg, CFG)
        assert np.array_equal(result.params[0], nominal.params[0])


def test_controller_invariants_on_synthetic_days(small):
    ds, _ = small
    profile = vector_to_grid(mean_profile(ds), ds.intervals_per_day, ds.n_movements)
    nominal = optimal_segmentation(profile, 4, CFG,
                                   interval_minutes=ds.interval_minutes)
    cfg = ControllerConfig(window_halfwidth=2, mode=SEG_PARAMS)
    bank = build_model_bank(ds, nominal, cfg, n_components=2)
    for idx in (0, 7, 19):
        day = ds.day_grid(idx)
        result = run_controller(nominal, day, bank, cfg, CFG)
        assert result.n_periods == nominal.n_periods
        for committed, tau in zip(result.switch_times, nominal.switch_times):
            assert committed in segment_window(tau, 2, ds.intervals_per_day)
        # monotone commitment: period indices in the log never decrease,
        # and nothing is logged for a period after its switch commits
        log = result.decision_log
        assert [e["period"] for e in log] == sorted(e["period"] for e in log)
        for i, committed in enumerate(result.switch_times, start=1):
            later = [e for e in log if e["period"] == i and e["time"] > committed]
            assert later == []
        again = run_controller(nominal, day, bank, cfg, CFG)
        assert again.switch_times == result.switch_times
        assert np.array_equal(again.params, result.params)


def test_params_mode_refits_upcoming_period(small):
    ds, _ = small
    day = ds.day_grid(5)
    profile = vector_to_grid(mean_profile(ds), ds.intervals_per_day, ds.n_movements)
    nominal = optimal_segmentation(profile, 3, CFG)
    bank = FixedProfileBank(day)  # perfect foresight
    cfg = ControllerConfig(window_halfwidth=2, mode=SEG_PARAMS)
    result = run_controller(nominal, day, bank, cfg, CFG)
    # with perfect foresight the refit parameters solve the committed windows
    bounds = (0,) + result.switch_times + (nominal.n_intervals,)
    horizons = plan_horizons(nominal)
    for i, tau_star in enumerate(result.switch_times, start=1):
        _, mu = segment_cost(day, tau_star + 1, horizons[i], CFG)
        assert np.array_equal(result.params[i], mu)


def test_evaluate_days_scores_both_modes_and_the_bound(small):
    ds, _ = small
    profile = vector_to_grid(mean_profile(ds), ds.intervals_per_day, ds.n_movements)
    nominal = optimal_segmentation(profile, 4, CFG)
    bank = FixedProfileBank(ds.day_grid(2))
    cfg = ControllerConfig(window_halfwidth=2, mode=SEG_ONLY, clamp_predictions=False)

    def ic():
        return IntersectionConfig.default_for(
            ds.movements, analysis_period_hours=ds.interval_minutes / 60.0)

    results = evaluate_days(ds, [7, 0], nominal, bank, cfg, CFG, ic())
    assert [r.date for r, _, _ in results] == [ds.days[7].date, ds.days[0].date]
    for idx, (report, seg, seg_params) in zip((7, 0), results):
        day = ds.day_grid(idx)
        want = [run_controller(nominal, day, bank,
                               ControllerConfig(2, mode, clamp_predictions=False), CFG)
                for mode in (SEG_ONLY, SEG_PARAMS)]
        for got, plan in zip((seg, seg_params), want):
            assert got.switch_times == plan.switch_times and got.mode is plan.mode
            assert np.array_equal(got.params, plan.params)
        traces = [simulate_day(day, p, ic()) for p in (nominal, *want)]
        traces.append(lower_bound_delay(day, ic()))
        assert list(report.traces) == list(SCENARIOS)
        for name, trace in zip(SCENARIOS, traces):
            assert np.array_equal(report.traces[name].rates, trace.rates)
            assert report.traces[name].total == trace.total


def test_lower_bound_rate_never_exceeds_a_plan_rate(small):
    """Interval by interval, not only per day: the clairvoyant splits are
    at most each plan's delay rate on every interval of every day."""
    ds, _ = small
    profile = vector_to_grid(mean_profile(ds), ds.intervals_per_day, ds.n_movements)
    nominal = optimal_segmentation(profile, 4, CFG)
    cfg = ControllerConfig(window_halfwidth=2)
    bank = build_model_bank(ds, nominal, cfg, 2)
    ic = IntersectionConfig.default_for(ds.movements,
                                        analysis_period_hours=ds.interval_minutes / 60.0)
    results = evaluate_days(ds, list(range(ds.n_days)), nominal, bank, cfg, CFG, ic)
    checked = 0
    for report, _, _ in results:
        bound = report.traces["lower_bound"].rates
        for name in SCENARIOS[:3]:
            rates = report.traces[name].rates
            assert np.all(bound <= rates + 1e-9 * np.maximum(1.0, rates)), (report.date, name)
            checked += rates.size
    assert checked == 3 * ds.n_days * ds.intervals_per_day


@pytest.fixture(scope="module")
def small_bank(small):
    """The ``small`` dataset with a four-period nominal plan and a fitted bank."""
    ds, _ = small
    profile = vector_to_grid(mean_profile(ds), ds.intervals_per_day, ds.n_movements)
    nominal = optimal_segmentation(profile, 4, CFG)
    cfg = ControllerConfig(window_halfwidth=2)
    return ds, nominal, cfg, build_model_bank(ds, nominal, cfg, 2)


@pytest.mark.parametrize("budget", [7, 100, None], ids=["7", "100", "default"])
def test_batched_scoring_matches_the_per_day_loop(small_bank, budget, monkeypatch):
    """Chunks that cut through plan rows and through days (T = 48) change no
    bit of any trace or memo entry, and each chunk is one solve."""
    ds, nominal, cfg, bank = small_bank

    def ic():
        return IntersectionConfig.default_for(
            ds.movements, analysis_period_hours=ds.interval_minutes / 60.0)

    indices = list(range(ds.n_days))
    want_ic = ic()
    want = per_day_evaluate_days(ds, indices, nominal, bank, cfg, CFG, want_ic)
    if budget is not None:
        monkeypatch.setattr(delay, "_ROW_BUDGET", budget)
    sizes = []
    core = delay._solve_batch

    def counted(mu, ic):
        sizes.append(len(mu))
        return core(mu, ic)

    monkeypatch.setattr(delay, "_solve_batch", counted)
    got_ic = ic()
    got = evaluate_days(ds, indices, nominal, bank, cfg, CFG, got_ic)

    rows = len(want_ic._plan_greens) + ds.n_days * ds.intervals_per_day
    assert sum(sizes) == rows
    assert len(sizes) == math.ceil(rows / delay._ROW_BUDGET)
    assert list(got_ic._plan_greens) == list(want_ic._plan_greens)
    for key, greens in want_ic._plan_greens.items():
        assert np.array_equal(got_ic._plan_greens[key], greens)
    for (report, *plans), (ref, *ref_plans) in zip(got, want, strict=True):
        assert report.date == ref.date
        for name in SCENARIOS:
            assert np.array_equal(report.traces[name].rates, ref.traces[name].rates)
            assert report.traces[name].total == ref.traces[name].total
        for plan, ref_plan in zip(plans, ref_plans):
            assert plan.switch_times == ref_plan.switch_times
            assert np.array_equal(plan.params, ref_plan.params)


def test_bank_counts():
    day = step_day(t=40, m=2, peak=(12, 25))
    plan2 = optimal_segmentation(day, 2, CFG)
    plan_s_w = SegmentationPlan(
        n_periods=7, n_intervals=96,
        switch_times=(10, 24, 38, 52, 66, 80),
        params=np.zeros((7, 2)), total_cost=0.0)
    assert len(segment_window(plan2.switch_times[0], 1, 40)) == 3
    assert sum(len(segment_window(t, 3, 96)) for t in plan_s_w.switch_times) == 42


def _close(a, b, tol=1e-12):
    """``a`` equals ``b`` within ``tol`` of ``b``'s largest magnitude."""
    return np.abs(a - b).max(initial=0.0) <= tol * np.abs(b).max(initial=0.0)


@pytest.mark.parametrize("n_days, segments, halfwidth, n_components", [
    (None, 3, 2, 3),    # the small fixture, 24 days at T=48
    (132, 5, 3, 4),     # README sizes: 132 days at T=96, 12 movements
])
def test_bank_models_match_fit_pls_kernel(small, n_days, segments, halfwidth, n_components):
    """Each model of the shared-Gram bank is the fit ``fit_pls_kernel`` makes
    on its split, within 1e-12 relative: scores (up to sign), loadings,
    residual norms and predictions."""
    ds = small[0] if n_days is None else generate(SynthConfig(seed=3, n_days=n_days))[0]
    profile = vector_to_grid(mean_profile(ds), ds.intervals_per_day, ds.n_movements)
    nominal = optimal_segmentation(profile, segments, CFG)
    bank = build_model_bank(ds, nominal, ControllerConfig(window_halfwidth=halfwidth),
                            n_components)
    assert bank.n_models == (segments - 1) * (2 * halfwidth + 1)
    for key, model in bank.models.items():
        z, y = split_at(ds, model.split)
        fresh = fit_pls_kernel(z, y, n_components, split=model.split)
        assert (model.n_components, model.n_dropped) == (fresh.n_components, fresh.n_dropped)
        signs = np.sign(np.sum(model.scores * fresh.scores, axis=0))
        assert _close(model.scores, fresh.scores * signs), key
        assert _close(model.predictor_loadings, fresh.predictor_loadings * signs), key
        assert _close(model.predicted_loadings, fresh.predicted_loadings * signs), key
        assert _close(model.mean_z, fresh.mean_z) and _close(model.mean_y, fresh.mean_y), key
        for got, want in ((model.z_residual_norm, fresh.z_residual_norm),
                          (model.y_residual_norm, fresh.y_residual_norm)):
            assert abs(got - want) <= 1e-12 * want, key
        assert _close(predict(model, z), predict(fresh, z)), key


def test_build_model_bank_and_predictions(small):
    ds, _ = small
    profile = vector_to_grid(mean_profile(ds), ds.intervals_per_day, ds.n_movements)
    nominal = optimal_segmentation(profile, 3, CFG)
    cfg = ControllerConfig(window_halfwidth=1)
    bank = build_model_bank(ds, nominal, cfg, n_components=2)
    assert bank.n_models == 2 * 3
    horizons = plan_horizons(nominal)

    i, tau = 1, nominal.switch_times[0]
    spec = SplitSpec(cutoff_index=tau, predict_from=tau + 1,
                     predict_to=horizons[1])
    z, y = split_at(ds, spec)
    fresh = fit_pls_kernel(z, y, 2, split=spec)
    model = bank.models[(1, tau)]
    assert np.allclose(model.predictor_loadings, fresh.predictor_loadings, atol=1e-10)

    day = ds.day_grid(4)
    out = bank.predict_window(1, tau, horizons[1], day[:tau])
    assert out.shape == (horizons[1] - tau, ds.n_movements)
    direct = predict(fresh, day[:tau].T.reshape(-1))
    assert np.allclose(out, direct.reshape(ds.n_movements, -1).T, atol=1e-12)
    assert bank.prediction_id(1, tau) == f"pls:1:{tau}"


def test_bank_miss_is_reported(small):
    ds, _ = small
    profile = vector_to_grid(mean_profile(ds), ds.intervals_per_day, ds.n_movements)
    nominal = optimal_segmentation(profile, 3, CFG)
    narrow = build_model_bank(ds, nominal, ControllerConfig(window_halfwidth=1),
                              n_components=2)
    wide = ControllerConfig(window_halfwidth=2, mode=SEG_PARAMS)
    with pytest.raises(ValueError, match="no entry"):
        run_controller(nominal, ds.day_grid(0), narrow, wide, CFG)


def test_bank_rejects_mismatched_split(small):
    ds, _ = small
    spec = SplitSpec(cutoff_index=10, predict_from=11, predict_to=20)
    z, y = split_at(ds, spec)
    model = fit_pls_kernel(z, y, 2, split=spec)
    with pytest.raises(ValueError, match="mismatched split"):
        PlsModelBank({(1, 9): model}, horizons={1: 20}, n_movements=ds.n_movements)
    PlsModelBank({(1, 10): model}, horizons={1: 20}, n_movements=ds.n_movements)


def test_bank_json_round_trip(small, tmp_path):
    ds, _ = small
    profile = vector_to_grid(mean_profile(ds), ds.intervals_per_day, ds.n_movements)
    nominal = optimal_segmentation(profile, 3, CFG)
    cfg = ControllerConfig(window_halfwidth=1)
    bank = build_model_bank(ds, nominal, cfg, n_components=2)
    path = tmp_path / "bank.json"
    bank.to_json(path)
    back = PlsModelBank.from_json(path)
    assert back.n_models == bank.n_models
    assert back.horizons == bank.horizons
    i, tau = 1, nominal.switch_times[0]
    day = ds.day_grid(2)
    a = bank.predict_window(i, tau, bank.horizons[i], day[:tau])
    b = back.predict_window(i, tau, bank.horizons[i], day[:tau])
    assert np.abs(a - b).max() < 1e-12


def test_predictive_plan_validates_like_a_segmentation_plan():
    kwargs = dict(n_periods=3, n_intervals=24, mode=SEG_ONLY, interval_minutes=60)
    plan = PredictivePlan(switch_times=(8, 16), params=np.zeros((3, 2)), **kwargs)
    assert plan.periods() == [(1, 8), (9, 16), (17, 24)]
    assert plan.switch_times_hhmm == ["08:00", "16:00"]
    with pytest.raises(ValueError, match="expected 2 switch times"):
        PredictivePlan(switch_times=(8,), params=np.zeros((3, 2)), **kwargs)
    with pytest.raises(ValueError, match="partition"):
        PredictivePlan(switch_times=(16, 8), params=np.zeros((3, 2)), **kwargs)
    with pytest.raises(ValueError, match="parameter vectors"):
        PredictivePlan(switch_times=(8, 16), params=np.zeros((2, 2)), **kwargs)


@st.composite
def controller_cases(draw):
    """A nominal plan whose switch windows do not overlap, a measured day and
    a fixed prediction profile (the day itself or another one)."""
    h = draw(st.integers(0, 3))
    m = draw(st.integers(1, 3))
    middle = draw(st.lists(st.integers(2 * h + 1, 2 * h + 5), max_size=3))
    lengths = [draw(st.integers(1, 6)), *middle, draw(st.integers(1, 6))]
    *taus, t_total = itertools.accumulate(lengths)
    flows = st.floats(0.0, 300.0)
    nominal = SegmentationPlan(n_periods=len(lengths), n_intervals=t_total,
                               switch_times=taus, total_cost=0.0,
                               params=draw(arrays(float, (len(lengths), m), elements=flows)))
    day = draw(arrays(float, (t_total, m), elements=flows))
    profile = draw(st.one_of(st.just(day), arrays(float, (t_total, m), elements=flows)))
    return nominal, day, profile, h


@settings(max_examples=80, deadline=None)
@given(controller_cases())
def test_controller_invariants_on_random_plans(case):
    nominal, day, profile, h = case
    t_total = nominal.n_intervals
    for mode in (SEG_ONLY, SEG_PARAMS):
        cfg = ControllerConfig(window_halfwidth=h, mode=mode)
        result = run_controller(nominal, day, FixedProfileBank(profile), cfg, CFG)
        # one committed switch per nominal switch, inside its window, increasing
        assert len(result.switch_times) == len(nominal.switch_times)
        for committed, tau in zip(result.switch_times, nominal.switch_times):
            assert committed in segment_window(tau, h, t_total)
        assert all(a < b for a, b in zip(result.switch_times, result.switch_times[1:]))
        # the log moves forward in time and period, and each period's last
        # entry is its commit
        log = result.decision_log
        assert all(a["time"] < b["time"] and a["period"] <= b["period"]
                   for a, b in zip(log, log[1:]))
        for e in log:
            assert e["time"] in segment_window(nominal.switch_times[e["period"] - 1], h,
                                               t_total)
        for i, committed in enumerate(result.switch_times, start=1):
            assert [e["time"] for e in log if e["period"] == i][-1] == committed
        assert result.params[0].tobytes() == nominal.params[0].tobytes()
        if mode is SEG_ONLY:
            # what simulate_day's plan-row memo relies on to hit
            assert result.params.tobytes() == nominal.params.tobytes()
