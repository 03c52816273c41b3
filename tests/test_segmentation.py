import json
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowcast import (
    FitConfig,
    SegmentationPlan,
    cost_table,
    fit_value,
    optimal_segmentation,
    segment_cost,
)
from flowcast import artifact, segmentation
from flowcast.segmentation import plan_from_json, plan_to_json

from _oracles import brute_force_plan, grid_minimize_1d, per_window_cost_table

CFG2 = FitConfig(overflow_penalty=2.0)


def test_fit_value_worked_example():
    x = np.array([[0.0], [10.0]])
    assert fit_value(x, 1, 2, np.array([4.0]), CFG2) == pytest.approx(88.0, abs=1e-12)
    # 0 sits 4 below (weight 1 -> 16); 10 sits 6 above (weight 2 -> 72)


def test_segment_cost_worked_example():
    x = np.array([[0.0], [10.0]])
    cost, mu = segment_cost(x, 1, 2, CFG2)
    assert mu[0] == pytest.approx(20.0 / 3.0, abs=1e-12)
    assert cost == pytest.approx(200.0 / 3.0, rel=1e-12)


def test_fit_value_empty_window_and_validation():
    x = np.arange(8.0).reshape(4, 2)
    mu = np.zeros(2)
    assert fit_value(x, 3, 2, mu, CFG2) == 0.0
    with pytest.raises(ValueError):
        fit_value(x, 0, 2, mu, CFG2)
    with pytest.raises(ValueError):
        fit_value(x, 1, 5, mu, CFG2)
    with pytest.raises(ValueError):
        fit_value(x, 1, 2, np.array([-1.0, 0.0]), CFG2)
    with pytest.raises(ValueError):
        fit_value(x, 1, 2, np.zeros(3), CFG2)
    with pytest.raises(ValueError):
        FitConfig(overflow_penalty=0.5)
    with pytest.raises(ValueError, match="overflow_penalty must be finite"):
        FitConfig(overflow_penalty=float("inf"))


def test_symmetric_penalty_gives_window_mean(rng):
    cfg = FitConfig(overflow_penalty=1.0)
    x = rng.uniform(0, 60, size=(20, 3))
    cost, mu = segment_cost(x, 4, 17, cfg)
    window = x[3:17]
    assert np.abs(mu - window.mean(axis=0)).max() < 1e-12
    assert cost == pytest.approx(((window - window.mean(0)) ** 2).sum(), rel=1e-12)


@pytest.mark.parametrize("penalty", [1.0, 2.0, 5.0])
def test_segment_cost_matches_grid_oracle(rng, penalty):
    cfg = FitConfig(overflow_penalty=penalty)
    for _ in range(4):
        x = rng.uniform(0, 8, size=(rng.integers(2, 12), 2))
        cost, mu = segment_cost(x, 1, x.shape[0], cfg)
        for col in range(2):
            g_mu, g_cost = grid_minimize_1d(x[:, col], penalty)
            assert abs(mu[col] - g_mu) < 1e-3
        per_col = [grid_minimize_1d(x[:, c], penalty)[1] for c in range(2)]
        assert cost <= sum(per_col) + 1e-9
        assert cost >= sum(per_col) - 1e-6 * max(1.0, sum(per_col))


def test_segment_cost_is_a_true_minimum(rng):
    x = rng.uniform(0, 40, size=(15, 4))
    cost, mu = segment_cost(x, 2, 13, CFG2)
    assert cost == pytest.approx(fit_value(x, 2, 13, mu, CFG2), rel=1e-12)
    for _ in range(30):
        bump = rng.normal(scale=0.5, size=4)
        other = np.maximum(mu + bump, 0.0)
        assert fit_value(x, 2, 13, other, CFG2) >= cost - 1e-9


@given(st.integers(0, 2 ** 32 - 1), st.floats(1.0, 6.0))
@settings(max_examples=60, deadline=None)
def test_fit_value_additive_in_time(seed, penalty):
    r = np.random.default_rng(seed)
    cfg = FitConfig(overflow_penalty=penalty)
    n = int(r.integers(2, 16))
    x = r.uniform(0, 100, size=(n, int(r.integers(1, 4))))
    mu = r.uniform(0, 100, size=x.shape[1])
    mid = int(r.integers(1, n))
    whole = fit_value(x, 1, n, mu, cfg)
    parts = fit_value(x, 1, mid, mu, cfg) + fit_value(x, mid + 1, n, mu, cfg)
    assert abs(whole - parts) <= 1e-9 * max(1.0, abs(whole))


def test_fit_value_quadratic_homogeneity(rng):
    x = rng.uniform(0, 30, size=(9, 2))
    mu = rng.uniform(0, 30, size=2)
    base = fit_value(x, 1, 9, mu, CFG2)
    for a in (0.5, 2.0, 7.0):
        scaled = fit_value(a * x, 1, 9, a * mu, CFG2)
        assert scaled == pytest.approx(a * a * base, rel=1e-12)


def within_bound(table, x, cfg, exact):
    """Every window's entry lies within ``_cost_bound`` of ``exact``'s."""
    bound = segmentation._cost_bound(x, table, cfg.overflow_penalty)
    windows = np.isfinite(exact)
    assert np.array_equal(np.isfinite(table), windows)
    return bool(np.all(np.abs(table[windows] - exact[windows]) <= bound[windows]))


def test_cost_table_matches_segment_cost(rng):
    x = rng.uniform(0, 20, size=(10, 2))
    ints = rng.integers(0, 5, size=(10, 2)).astype(float)
    table, int_table = cost_table(x, CFG2), cost_table(ints, CFG2)
    bound = segmentation._cost_bound(x, table, CFG2.overflow_penalty)
    for a, b in [(1, 1), (1, 10), (3, 7), (10, 10), (2, 9)]:
        assert abs(table[a, b] - segment_cost(x, a, b, CFG2)[0]) <= bound[a, b]
        assert int_table[a, b] == segment_cost(ints, a, b, CFG2)[0]  # exact sums
    assert np.isinf(table[5, 4])


def test_cost_is_independent_of_grid_layout(rng):
    x = rng.uniform(0, 400, size=(96, 4))
    layouts = (np.ascontiguousarray(x), np.asfortranarray(x))
    tables = [cost_table(g, CFG2) for g in layouts]
    assert np.array_equal(tables[0], tables[1])
    exact = np.full(tables[0].shape, np.inf)
    for a in range(1, 97):
        for b in range(a, 97):
            (c_cost, c_mu), (f_cost, f_mu) = (segment_cost(g, a, b, CFG2) for g in layouts)
            assert c_cost == f_cost
            assert np.array_equal(c_mu, f_mu)
            exact[a, b] = c_cost
    assert within_bound(tables[0], x, CFG2, exact)


def bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


@st.composite
def grids(draw):
    """Random, tied (small integers) and near-tied (a few ulps apart) grids
    in either memory layout."""
    r = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shape = (draw(st.integers(1, 14)), draw(st.integers(1, 4)))
    kind = draw(st.sampled_from(["random", "tied", "near-tied"]))
    if kind == "random":
        x = r.uniform(0, 500, size=shape)
    elif kind == "tied":
        x = r.integers(0, 3, size=shape).astype(float)
    else:
        base = r.uniform(1.0, 1e6, size=shape[1])
        x = base + r.integers(-3, 4, size=shape) * np.spacing(base)
    return np.asfortranarray(x) if draw(st.booleans()) else np.ascontiguousarray(x)


NEAR_TIE = 123456.789 + np.array([[-3.0], [-1.0], [0.0]]) * np.spacing(123456.789)
# On this grid, with penalty 3 and two periods, the DP on ``cost_table`` alone
# switches after interval 3 (exact cost 3.1613e-18); the exact table's plan
# switches after 2 (3.1607e-18).
NEAR_TIE_PLAN = 123456.789 + np.spacing(123456.789) * np.c_[[-34.0, -35.0, 77.0, -64.0]]
PENALTIES = st.one_of(st.sampled_from([1.0, 2.0, 3.0]), st.floats(1.0, 8.0))


@given(grids(), PENALTIES)
@example(NEAR_TIE, 3.0)  # window [1, 3]: the picked candidate is clipped into its bracket
@example(NEAR_TIE_PLAN, 3.0)
@settings(max_examples=150, deadline=None)
def test_cost_table_matches_per_window_oracle(x, penalty):
    """Every entry lies within the documented bound of the exact table, and
    on integer grids, whose sums are exact, it is the exact entry's bits."""
    cfg = FitConfig(overflow_penalty=penalty)
    table, exact = cost_table(x, cfg), per_window_cost_table(x, cfg)
    t = x.shape[0]
    assert all(exact[a, b] == segment_cost(x, a, b, cfg)[0]
               for a in range(1, t + 1) for b in range(a, t + 1))
    assert within_bound(table, x, cfg, exact)
    if np.array_equal(x, np.round(x)):
        assert np.array_equal(bits(table), bits(exact))


@given(grids(), PENALTIES)
@example(NEAR_TIE, 3.0)
@example(NEAR_TIE_PLAN, 3.0)
@settings(max_examples=150, deadline=None)
def test_plan_is_the_plan_of_the_exact_table(x, penalty):
    """Switch times, total cost and parameter bits equal those of the dynamic
    program on the exact table, rescored with ``segment_cost``."""
    cfg = FitConfig(overflow_penalty=penalty)
    exact = per_window_cost_table(x, cfg)
    table = cost_table(x, cfg)
    for s in range(1, min(4, x.shape[0]) + 1):
        plan = optimal_segmentation(x, s, cfg, costs=table)
        _, bounds = segmentation._suffix_dp(exact, s)
        fits = [segment_cost(x, lo + 1, hi, cfg) for lo, hi in zip(bounds, bounds[1:])]
        assert plan.switch_times == tuple(bounds[1:-1])
        assert plan.total_cost == sum(cost for cost, _ in fits)
        assert np.array_equal(bits(plan.params), bits(np.vstack([mu for _, mu in fits])))


def test_guard_decides_a_near_tied_plan():
    cfg = FitConfig(overflow_penalty=3.0)
    _, fast_only = segmentation._suffix_dp(cost_table(NEAR_TIE_PLAN, cfg), 2)
    _, exact = segmentation._suffix_dp(per_window_cost_table(NEAR_TIE_PLAN, cfg), 2)
    assert fast_only == [0, 3, 4] and exact == [0, 2, 4]
    assert optimal_segmentation(NEAR_TIE_PLAN, 2, cfg).switch_times == (2,)


def fit_cost(values, mu, penalty):
    d = values - mu
    return float(np.sum(np.where(d > 0, penalty, 1.0) * d * d))


@given(grids(), PENALTIES)
@example(NEAR_TIE, 3.0)
@settings(max_examples=150, deadline=None)
def test_window_minimizer_is_in_range_and_beats_every_clipped_candidate(x, penalty):
    """For every window and movement, the parameter lies within the window's
    values, up to the rounding of their mean, and no breakpoint candidate
    clipped into its own bracket fits better.  The candidates are recomputed
    here from correctly rounded sums.  The cost bound is 1e-12 relative plus
    what a parameter rounded by (n + 2) eps of the largest value may cost: a
    one-value window's candidate can round one ulp off the value, which
    costs penalty * ulp^2 against an exact 0."""
    t, m = x.shape
    for a in range(1, t + 1):
        for b in range(a, t + 1):
            windows = np.ascontiguousarray(x[a - 1 : b].T)
            costs, mus = segmentation._window_cost(windows[None], penalty)
            for col in range(m):
                vals = np.sort(windows[col])
                n, mu = len(vals), mus[0, col]
                lo = np.concatenate([[-np.inf], vals])
                hi = np.concatenate([vals, [np.inf]])
                slack = n * np.spacing(vals[-1])
                assert vals[0] - slack <= mu <= vals[-1] + slack
                rounding = penalty * n * ((n + 2) * np.finfo(float).eps * vals[-1]) ** 2
                for j in range(n + 1):
                    cand = ((math.fsum(vals[:j]) + penalty * math.fsum(vals[j:]))
                            / (j + penalty * (n - j)))
                    best = fit_cost(vals, min(max(cand, lo[j]), hi[j]), penalty)
                    assert costs[0, col] <= best * (1 + 1e-12) + rounding, (a, b, col, j)


def test_cost_table_memory_stays_small(rng):
    """One movement at a time: a T=288, M=12 table peaks well below the
    T(T+1)/2 x M x T values a batch of every window would hold."""
    x = rng.uniform(0, 600, size=(288, 12))
    tracemalloc.start()
    try:
        cost_table(x, CFG2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2 ** 20


def test_single_period_plan(rng):
    x = rng.uniform(0, 50, size=(12, 3))
    plan = optimal_segmentation(x, 1, CFG2)
    assert plan.switch_times == ()
    cost, mu = segment_cost(x, 1, 12, CFG2)
    assert plan.total_cost == pytest.approx(cost, rel=1e-12)
    assert np.allclose(plan.params[0], mu, atol=0)
    assert plan.periods() == [(1, 12)]


def test_dp_matches_brute_force(rng):
    for trial in range(25):
        t = int(rng.integers(3, 13))
        m = int(rng.integers(1, 3))
        s = int(rng.integers(2, min(4, t)))
        cfg = FitConfig(overflow_penalty=float(rng.choice([1.0, 2.0])))
        # small integers provoke exact cost ties
        x = rng.integers(0, 4, size=(t, m)).astype(float)
        plan = optimal_segmentation(x, s, cfg)
        bf_cost, bf_switches = brute_force_plan(x, s, cfg)
        assert abs(plan.total_cost - bf_cost) < 1e-9
        assert plan.switch_times == bf_switches


def test_tie_break_prefers_earliest_switches():
    x = np.full((8, 2), 7.0)  # constant day: every partition costs zero
    plan = optimal_segmentation(x, 3, CFG2)
    assert plan.switch_times == (1, 2)
    assert plan.total_cost == 0.0
    assert np.allclose(plan.params, 7.0, atol=0)


def test_cost_non_increasing_in_period_count(rng):
    x = rng.uniform(0, 80, size=(14, 2))
    costs = [optimal_segmentation(x, s, CFG2).total_cost for s in range(1, 7)]
    assert all(b <= a + 1e-9 for a, b in zip(costs, costs[1:]))


def test_precomputed_cost_table_reused(rng):
    x = rng.uniform(0, 30, size=(10, 2))
    table = cost_table(x, CFG2)
    direct = optimal_segmentation(x, 3, CFG2)
    cached = optimal_segmentation(x, 3, CFG2, costs=table)
    assert direct.switch_times == cached.switch_times
    assert direct.total_cost == cached.total_cost


def test_plan_structure_and_period_lookup(rng):
    x = rng.uniform(0, 60, size=(16, 2))
    plan = optimal_segmentation(x, 4, CFG2)
    periods = plan.periods()
    assert periods[0][0] == 1 and periods[-1][1] == 16
    assert all(a <= b for a, b in periods)
    covered = [t for a, b in periods for t in range(a, b + 1)]
    assert covered == list(range(1, 17))
    total = sum(segment_cost(x, a, b, CFG2)[0] for a, b in periods)
    assert plan.total_cost == pytest.approx(total, rel=1e-12)


def test_plan_validation():
    with pytest.raises(ValueError):
        SegmentationPlan(n_periods=3, n_intervals=8, switch_times=(4,),
                         params=np.zeros((3, 2)), total_cost=0.0)
    with pytest.raises(ValueError):
        SegmentationPlan(n_periods=3, n_intervals=8, switch_times=(5, 5),
                         params=np.zeros((3, 2)), total_cost=0.0)
    with pytest.raises(ValueError):
        SegmentationPlan(n_periods=2, n_intervals=8, switch_times=(8,),
                         params=np.zeros((2, 2)), total_cost=0.0)
    with pytest.raises(ValueError):
        SegmentationPlan(n_periods=2, n_intervals=8, switch_times=(4,),
                         params=np.zeros((3, 2)), total_cost=0.0)
    with pytest.raises(ValueError):
        optimal_segmentation(np.ones((5, 1)), 6, CFG2)


def test_optimal_segmentation_checks_its_inputs(rng):
    x = rng.uniform(0, 50, size=(6, 2))
    longer = cost_table(rng.uniform(0, 50, size=(8, 2)), CFG2)
    with pytest.raises(ValueError, match=r"\(9, 9\).*\(7, 7\)"):
        optimal_segmentation(x, 2, CFG2, costs=longer)
    for bad in (2.0, True, "2", None):
        with pytest.raises(ValueError, match="n_periods must be an integer"):
            optimal_segmentation(x, bad, CFG2)
    plan = optimal_segmentation(x, np.int64(2), CFG2)
    assert plan.switch_times == optimal_segmentation(x, 2, CFG2).switch_times
    # At 1e100 the window costs are finite but their rounding bound is not;
    # at 1e308 the cost table's own arithmetic overflows.  Either way the
    # plan is refused by name, without a floating-point warning.
    for penalty in (1e100, 1e308):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(f"overflow_penalty={penalty:g} is")):
                optimal_segmentation(x, 2, FitConfig(overflow_penalty=penalty))
    table = cost_table(x, CFG2)
    table[2, 5] = np.inf  # a window cost that is not finite
    with pytest.raises(ValueError, match="^overflow_penalty=2 is too large"):
        optimal_segmentation(x, 2, CFG2, costs=table)


def test_plan_json_round_trip(tmp_path, rng):
    x = rng.uniform(0, 90, size=(96, 3))
    plan = optimal_segmentation(x, 4, CFG2, interval_minutes=15)
    path = tmp_path / "plan.json"
    doc = plan_to_json(plan)
    artifact.write(doc, path)
    assert doc["kind"] == "segmentation_plan"
    hhmm = doc["switch_times_hhmm"]
    assert hhmm == [f"{t * 15 // 60:02d}:{t * 15 % 60:02d}" for t in plan.switch_times]
    back = plan_from_json(json.loads(path.read_text()))
    assert back.switch_times == plan.switch_times
    assert back.n_periods == plan.n_periods
    assert back.interval_minutes == 15
    assert np.array_equal(back.params, plan.params)
    assert back.total_cost == plan.total_cost
