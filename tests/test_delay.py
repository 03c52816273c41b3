import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowcast import (
    ControllerConfig,
    ControllerMode,
    DelayReport,
    FitConfig,
    FixedProfileBank,
    IntersectionConfig,
    green_splits,
    lower_bound_delay,
    lower_bound_delays,
    movement_delay,
    optimal_segmentation,
    run_controller,
    simulate_day,
)
from flowcast import delay
from flowcast.delay import SCENARIOS, DelayTrace
from flowcast.synth import movement_labels

from _oracles import golden_section, hcm_delay, scalar_green_splits

CFG = FitConfig(overflow_penalty=2.0)


def two_phase(**kw):
    kw.setdefault("analysis_period_hours", 0.25)
    return IntersectionConfig(phases=((0,), (1,)), n_movements=2, **kw)


def test_movement_delay_worked_example():
    ic = two_phase(cycle_seconds=60.0, lost_time_seconds=8.0)
    d = movement_delay(720.0, 1800.0, 0.5, ic)
    d1 = 0.5 * 60.0 * 0.25 / (1.0 - 0.8 * 0.5)
    assert d1 == pytest.approx(12.5, abs=1e-12)
    x = 720.0 / 900.0
    d2 = 900.0 * 0.25 * ((x - 1.0) + math.sqrt((x - 1.0) ** 2
                                               + 8.0 * 0.5 * 1.0 * x / (900.0 * 0.25)))
    assert d == pytest.approx(d1 + d2, rel=1e-12)


def test_movement_delay_limits():
    ic = two_phase()
    g = 0.4
    assert movement_delay(0.0, 1800.0, g, ic) == pytest.approx(
        0.5 * 120.0 * (1.0 - g) ** 2, rel=1e-12)
    assert movement_delay(500.0, 1800.0, 1.0, ic) == pytest.approx(
        900.0 * 0.25 * ((500.0 / 1800.0 - 1.0)
                        + math.sqrt((500.0 / 1800.0 - 1.0) ** 2
                                    + 4.0 * (500.0 / 1800.0) / (1800.0 * 0.25))),
        rel=1e-12)  # g=1: d1 drops out
    with pytest.raises(ValueError):
        movement_delay(100.0, 1800.0, 0.0, ic)
    with pytest.raises(ValueError):
        movement_delay(100.0, 1800.0, 1.2, ic)


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.just(0.0), st.floats(0.0, 4000.0)), st.floats(900.0, 2400.0),
       st.one_of(st.just(1.0), st.floats(0.01, 1.0)))
@example(2000.0, 1800.0, 1.0)  # X > 1 at full green: d1 is 0, not 0 / 0
@example(1800.0, 1800.0, 1.0)
@example(1500.0, 1800.0, 0.5)
def test_delay_kernel_matches_the_hcm_formula(flow, saturation, green):
    ic = two_phase()
    # For light demand d2's two terms of size max(1, X) cancel, so both forms
    # carry a rounding of about 900 T eps [s/veh] whatever d is.
    assert movement_delay(flow, saturation, green, ic) == pytest.approx(
        hcm_delay(flow, saturation, green, ic), rel=1e-12, abs=1e-12)


def test_movement_delay_monotone_grids():
    ic = two_phase()
    flows = np.linspace(0.0, 2400.0, 41)
    greens = np.linspace(0.1, 1.0, 19)
    for g in greens:
        ds = [movement_delay(f, 1800.0, g, ic) for f in flows]
        assert all(b >= a - 1e-9 for a, b in zip(ds, ds[1:]))
    for f in flows:
        ds = [movement_delay(f, 1800.0, g, ic) for g in greens]
        assert all(b <= a + 1e-9 for a, b in zip(ds, ds[1:]))
    # oversaturation blows up instead of erroring
    assert movement_delay(2400.0, 1800.0, 0.5, ic) > movement_delay(
        900.0, 1800.0, 0.5, ic) + 100.0


def test_intersection_config_validation():
    with pytest.raises(ValueError, match="partition"):
        IntersectionConfig(phases=((0,), (0, 1)), n_movements=2)
    with pytest.raises(ValueError, match="partition"):
        IntersectionConfig(phases=((0,),), n_movements=2)
    labels = movement_labels(12)
    for bad in (1.5, 2.0, True, "1"):
        phases = [[bad, 2, 4, 5], [0, 3], [7, 8, 10, 11], [6, 9]]
        with pytest.raises(ValueError, match="phases must hold integer movement indices"):
            IntersectionConfig(phases=phases, n_movements=12)
    ic = IntersectionConfig(phases=[[np.int64(1), 2, 4, 5], [0, 3], [7, 8, 10, 11], [6, 9]],
                            n_movements=12)
    assert ic.phases == IntersectionConfig.default_for(labels).phases
    assert all(type(m) is int for p in ic.phases for m in p)
    with pytest.raises(ValueError):
        two_phase(min_green_fraction=0.5)  # 2 * 0.5 > 1 - 16/120
    with pytest.raises(ValueError):
        two_phase(poisson_inflation=0.9)
    with pytest.raises(ValueError):
        two_phase(saturation_flow=0.0)
    with pytest.raises(ValueError, match="min_green_fraction must be positive"):
        two_phase(min_green_fraction=0.0)
    with pytest.raises(ValueError, match="min_green_fraction must be positive"):
        two_phase(min_green_fraction=(0.1, 0.0))
    for name, value in (("cycle_seconds", float("nan")), ("poisson_inflation", float("inf")),
                        ("saturation_flow", (1800.0, float("nan")))):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            two_phase(**{name: value})
    ic = two_phase(saturation_flow=(1800.0, 1600.0))
    assert ic.saturation_flow[1] == 1600.0
    assert ic.green_budget == pytest.approx(1.0 - 16.0 / 120.0, rel=1e-15)


def test_config_equality_and_hash_are_by_value():
    from dataclasses import replace
    labels = movement_labels(12)
    ic = IntersectionConfig.default_for(labels)
    same = IntersectionConfig(phases=ic.phases, n_movements=12,
                              saturation_flow=[1800.0] * 12, min_green_fraction=0.07)
    assert ic == same and hash(ic) == hash(same) and len({ic, same}) == 1
    for other in (replace(ic, cycle_seconds=90),
                  replace(ic, saturation_flow=[1800.0] * 11 + [1700.0]),
                  replace(ic, min_green_fraction=(0.07, 0.07, 0.07, 0.08)),
                  IntersectionConfig.default_for(labels[:4])):
        assert ic != other and len({ic, other}) == 2
    assert ic != "not a config"


def test_default_phase_structure():
    labels = movement_labels(12)
    ic = IntersectionConfig.default_for(labels)
    assert ic.n_phases == 4
    by_phase = [set(labels[m] for m in p) for p in ic.phases]
    assert {"NB T", "NB RT", "SB T", "SB RT"} in by_phase
    assert {"NB LT", "SB LT"} in by_phase
    assert {"EB LT", "WB LT"} in by_phase
    with pytest.raises(ValueError, match="phase"):
        IntersectionConfig.default_for(("NB LT", "sideways"))


def test_green_splits_two_phase_matches_golden_oracle():
    ic = two_phase()
    mu = np.array([600.0, 200.0])
    out = green_splits(mu, ic)
    budget = ic.green_budget
    q = 1.10 * mu

    def obj(g0):
        return (q[0] * movement_delay(q[0], 1800.0, g0, ic)
                + q[1] * movement_delay(q[1], 1800.0, budget - g0, ic))

    g_ref, _ = golden_section(obj, 0.07, budget - 0.07)
    assert abs(out.fractions[0] - g_ref) < 1e-4
    assert out.fractions.sum() == pytest.approx(budget, abs=1e-9)
    assert not out.saturated
    assert out.fractions[0] > out.fractions[1]  # heavier phase gets more green


def test_green_splits_symmetric_demand():
    labels = movement_labels(12)
    ic = IntersectionConfig.default_for(labels)
    mu = np.full(12, 300.0)
    out = green_splits(mu, ic)
    # north/south and east/west phase pairs carry identical demand
    assert abs(out.fractions[0] - out.fractions[2]) < 1e-6
    assert abs(out.fractions[1] - out.fractions[3]) < 1e-6


def test_green_splits_zero_demand_phase_at_min_green():
    ic = two_phase()
    out = green_splits(np.array([800.0, 0.0]), ic)
    assert out.fractions[1] == pytest.approx(0.07, abs=1e-9)
    assert out.fractions[0] == pytest.approx(ic.green_budget - 0.07, abs=1e-9)


def test_green_splits_saturated_flag():
    ic = two_phase()
    heavy = green_splits(np.array([5000.0, 100.0]), ic)
    assert heavy.saturated
    light = green_splits(np.array([400.0, 300.0]), ic)
    assert not light.saturated


def test_green_splits_rejects_negative_demand():
    with pytest.raises(ValueError):
        green_splits(np.array([-1.0, 10.0]), two_phase())


def test_zero_flow_day_has_zero_delay():
    day = np.zeros((8, 2))
    plan = optimal_segmentation(day, 2, CFG)
    ic = two_phase()
    assert simulate_day(day, plan, ic).total == 0.0
    assert lower_bound_delay(day, ic).total == 0.0


def test_constant_day_matches_lower_bound():
    day = np.tile(np.array([500.0, 250.0]), (12, 1))
    plan = optimal_segmentation(day, 1, CFG)
    ic = two_phase()
    sim = simulate_day(day, plan, ic)
    lb = lower_bound_delay(day, ic)
    assert abs(sim.total - lb.total) < 1e-9
    assert np.abs(sim.rates - lb.rates).max() < 1e-12


def test_lower_bound_matches_grid_oracle(rng):
    ic = two_phase()
    day = rng.uniform(0.0, 900.0, size=(6, 2))
    lb = lower_bound_delay(day, ic)
    budget = ic.green_budget
    total_ref = 0.0
    grid = np.arange(0.07, budget - 0.07 + 1e-12, 1e-3)
    for t in range(6):
        f = day[t]
        best = np.inf
        for g0 in grid:
            rate = 0.0
            for m, g in ((0, g0), (1, budget - g0)):
                if f[m] > 0:
                    d = movement_delay(1.10 * f[m], 1800.0, g, ic)
                    rate += f[m] * d / 3600.0
            best = min(best, rate)
        total_ref += best
    total_ref *= ic.analysis_period_hours
    assert lb.total <= total_ref + 1e-9
    assert abs(lb.total - total_ref) < 1e-2


def test_totals_integrate_rates_exactly(small):
    ds, _ = small
    ic = IntersectionConfig.default_for(ds.movements,
                                        analysis_period_hours=ds.interval_minutes / 60.0)
    day = ds.day_grid(3)
    plan = optimal_segmentation(day, 3, CFG)
    trace = simulate_day(day, plan, ic)
    assert trace.total == trace.rates.sum() * ic.analysis_period_hours
    assert np.all(trace.rates >= 0.0)
    assert trace.rates.shape == (ds.intervals_per_day,)


def test_lower_bound_below_scenarios(small):
    ds, _ = small
    ic = IntersectionConfig.default_for(ds.movements,
                                        analysis_period_hours=ds.interval_minutes / 60.0)
    from flowcast import mean_profile, vector_to_grid
    profile = vector_to_grid(mean_profile(ds), ds.intervals_per_day, ds.n_movements)
    nominal = optimal_segmentation(profile, 3, CFG)
    for idx in (0, 11, 23):
        day = ds.day_grid(idx)
        bank = FixedProfileBank(day)
        cfg = ControllerConfig(window_halfwidth=2,
                               mode=ControllerMode.SEGMENTATION_AND_PARAMS)
        pred = run_controller(nominal, day, bank, cfg, CFG)
        lb = lower_bound_delay(day, ic)
        for plan in (nominal, pred):
            trace = simulate_day(day, plan, ic)
            assert lb.total <= trace.total + 1e-6
            assert np.all(lb.rates <= trace.rates + 1e-6)


def test_report_table_shape():
    rates = np.array([1.0, 2.0])
    mk = lambda s: DelayTrace(rates=rates * s, total=float(rates.sum() * s * 0.25))
    report = DelayReport(date="2024-01-05", traces={
        "nominal": mk(4.0), "predictive_seg": mk(3.0),
        "predictive_seg_params": mk(2.0), "lower_bound": mk(1.0)})
    table = report.to_table()
    assert set(table) == {"date", *SCENARIOS,
                          "improvement_seg", "improvement_seg_params"}
    assert table["improvement_seg"] == pytest.approx(0.75)
    assert table["improvement_seg_params"] == pytest.approx(1.5)
    assert table["lower_bound"] == pytest.approx(0.75)
    later = DelayReport(date="2024-01-06", traces={s: mk(1.0) for s in SCENARIOS})
    doc = delay.report_document([report, later])
    assert doc["days"] == [table, later.to_table()]
    assert doc["mean"] == {"date": "mean", "nominal": 1.875, "predictive_seg": 1.5,
                           "predictive_seg_params": 1.125, "lower_bound": 0.75,
                           "improvement_seg": 0.375, "improvement_seg_params": 0.75}


# ---------------------------------------------------------------- batched solver

FOUR_PHASE = IntersectionConfig.default_for(movement_labels(12))
# Demands with zero-demand movements and oversaturation (capacity at the
# largest green is about 1800 * 0.8 / 1.1 = 1300 vph before inflation).
DEMAND = st.one_of(st.just(0.0), st.floats(0.0, 900.0), st.floats(1300.0, 4000.0))


def assert_matches_scalar(mu, ic):
    out = green_splits(mu, ic)
    ref = scalar_green_splits(mu, ic)
    assert out.objective == pytest.approx(ref.objective, rel=1e-9, abs=1e-12)
    assert out.saturated == ref.saturated
    assert np.all(out.fractions >= ic.min_green_fraction - 1e-12)
    assert out.fractions.sum() == pytest.approx(ic.green_budget, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(st.lists(DEMAND, min_size=2, max_size=2))
@example([0.0, 2.2250738585e-313])  # subnormal demand: the start must keep the budget
@example([1.0, 8.0])  # optimum at a minimum green: exact only with the bracket-end check
def test_batched_splits_match_scalar_two_phase(mu):
    assert_matches_scalar(np.array(mu), two_phase())


@settings(max_examples=15, deadline=None)
@given(st.lists(DEMAND, min_size=12, max_size=12),
       st.sets(st.integers(0, 3), max_size=3))
@example([0.0] * 9 + [1.0, 1300.0, 0.0], set())  # optimum at a minimum green
def test_batched_splits_match_scalar_four_phase(mu, idle_phases):
    mu = np.array(mu)
    for p in idle_phases:  # zero demand on whole phases
        mu[list(FOUR_PHASE.phases[p])] = 0.0
    assert_matches_scalar(mu, FOUR_PHASE)


def record_batches(monkeypatch):
    """Wrap the batch core; returns the list of (demand rows, greens,
    objectives) it saw."""
    calls = []
    core = delay._solve_batch

    def spy(mu, ic):
        g, obj = core(mu, ic)
        calls.append((np.array(mu), g.copy(), obj.copy()))
        return g, obj

    monkeypatch.setattr(delay, "_solve_batch", spy)
    return calls


@pytest.mark.parametrize("ic", [two_phase(), FOUR_PHASE], ids=["2-phase", "4-phase"])
def test_row_splits_do_not_depend_on_the_batch(ic, noisy, monkeypatch):
    # A full synthetic day: numpy lays out (and so may sum) a 96-row batch
    # differently from a single row.
    day = noisy[0].day_grid(33)[:, :ic.n_movements].copy()
    day[16] = 0.0
    day[40, list(ic.phases[0])] = 0.0
    day[64] *= 4.0  # oversaturated
    calls = record_batches(monkeypatch)
    lower_bound_delay(day, ic)
    (_, greens, objectives), = calls
    for t in range(0, 96, 8):
        alone = green_splits(day[t], ic)
        assert np.array_equal(alone.fractions, greens[t])
        assert alone.objective == objectives[t]


def test_one_solve_per_day_and_per_plan(small, monkeypatch):
    ds, _ = small
    ic = IntersectionConfig.default_for(ds.movements,
                                        analysis_period_hours=ds.interval_minutes / 60.0)
    day = ds.day_grid(4)
    plan = optimal_segmentation(day, 5, CFG)
    calls = record_batches(monkeypatch)
    lower_bound_delay(day, ic)
    assert len(calls) == 1 and calls[0][0].shape == (ds.intervals_per_day, ic.n_movements)
    simulate_day(day, plan, ic)
    assert len(calls) == 2 and calls[1][0].shape == (5, ic.n_movements)


def test_capped_solve_warns_once_with_the_count(monkeypatch):
    ic = two_phase()
    day = np.array([[600.0, 200.0], [0.0, 0.0], [300.0, 500.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lower_bound_delay(day, ic)  # converges well inside the cap
    monkeypatch.setattr(delay, "_MAX_SWEEPS", 1)
    with pytest.warns(RuntimeWarning, match="2 of 3 rows") as record:
        lower_bound_delay(day, ic)
    assert len(record) == 1


def test_bad_day_grid_fails_before_any_solve(monkeypatch):
    ic = two_phase()
    good = np.array([[600.0, 200.0], [0.0, 0.0], [300.0, 500.0]])
    plan = optimal_segmentation(good, 2, CFG)
    calls = record_batches(monkeypatch)
    for bad in (np.zeros((3, 3)), np.zeros(6), np.zeros((3, 2, 1))):
        with pytest.raises(ValueError, match=r"day grid must be \(T, 2\)"):
            lower_bound_delays([good, bad, good], ic, plans=(plan,))
    assert calls == [] and ic._plan_greens == {}
    assert lower_bound_delays([], ic) == [] and calls == []


def test_zero_demand_phase_keeps_a_positive_green():
    """A zero-demand period gives its phase the minimum green, so flow that
    shows up there on the measured day is still served."""
    profile = np.array([[500.0, 0.0]] * 4 + [[500.0, 300.0]] * 4)
    plan = optimal_segmentation(profile, 2, CFG)
    day = profile.copy()
    day[1, 1] = 40.0
    ic = two_phase(min_green_fraction=0.01)
    trace = simulate_day(day, plan, ic)
    assert np.all(np.isfinite(trace.rates)) and trace.rates[1] > trace.rates[0]
    assert lower_bound_delay(day, ic).total <= trace.total + 1e-9


# ---------------------------------------------------------------- plan-row memo

def control_day_plans(ds, idx):
    """The nominal plan and both predictive plans of one day, as in
    ``flowcast control`` with a perfect-foresight bank."""
    from flowcast import mean_profile, vector_to_grid
    profile = vector_to_grid(mean_profile(ds), ds.intervals_per_day, ds.n_movements)
    nominal = optimal_segmentation(profile, 4, CFG)
    day = ds.day_grid(idx)
    bank = FixedProfileBank(day)
    plans = [nominal]
    for mode in (ControllerMode.SEGMENTATION_ONLY, ControllerMode.SEGMENTATION_AND_PARAMS):
        cfg = ControllerConfig(window_halfwidth=2, mode=mode)
        plans.append(run_controller(nominal, day, bank, cfg, CFG))
    return day, plans


def small_ic(ds, **kw):
    return IntersectionConfig.default_for(
        ds.movements, analysis_period_hours=ds.interval_minutes / 60.0, **kw)


def test_memo_hits_are_exact(small):
    ds, _ = small
    warm = small_ic(ds)
    for idx in (11, 3):
        day, plans = control_day_plans(ds, idx)
        for plan in plans:
            got, want = simulate_day(day, plan, warm), simulate_day(day, plan, small_ic(ds))
            assert np.array_equal(got.rates, want.rates) and got.total == want.total


def test_memo_solves_only_new_plan_rows(small, monkeypatch):
    ds, _ = small
    ic = small_ic(ds)
    day, (nominal, seg, seg_params) = control_day_plans(ds, 3)
    assert np.array_equal(seg.params, nominal.params)
    assert not np.any(np.all(seg_params.params[1:, None] == nominal.params, axis=2))
    calls = record_batches(monkeypatch)
    simulate_day(day, nominal, ic)
    assert [c[0].shape[0] for c in calls] == [nominal.n_periods]
    simulate_day(day, seg, ic)
    assert len(calls) == 1
    simulate_day(day, seg_params, ic)
    assert [c[0].shape[0] for c in calls] == [nominal.n_periods, nominal.n_periods - 1]
    lower_bound_delay(day, ic)
    lower_bound_delay(day, ic)
    assert len(calls) == 4


def test_replaced_config_starts_with_an_empty_memo(small):
    from dataclasses import replace
    ds, _ = small
    ic = small_ic(ds)
    day, (nominal, _, _) = control_day_plans(ds, 3)
    simulate_day(day, nominal, ic)
    slower = replace(ic, cycle_seconds=90.0)
    assert slower._plan_greens == {}
    got = simulate_day(day, nominal, slower)
    want = simulate_day(day, nominal, small_ic(ds, cycle_seconds=90.0))
    assert np.array_equal(got.rates, want.rates)
    assert got.total != simulate_day(day, nominal, ic).total


def test_memo_does_not_change_equality_or_repr():
    ic, fresh = (IntersectionConfig.default_for(movement_labels(12)) for _ in range(2))
    day = np.array([[300.0] * 12] * 4 + [[900.0] * 12] * 4)
    simulate_day(day, optimal_segmentation(day, 2, CFG), ic)
    assert len(ic._plan_greens) == 2
    assert ic == fresh and hash(ic) == hash(fresh) and repr(ic) == repr(fresh)
    assert "_plan_greens" not in repr(ic)
