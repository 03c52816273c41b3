"""Slow reference implementations used by unit and acceptance tests."""

import itertools

import numpy as np

from flowcast import FitConfig, fit_value, segment_cost
from flowcast.delay import (_GOLDEN, _MAX_SWEEPS, _SWEEP_TOL, GreenSplits,
                            movement_delay)


def brute_force_plan(x, n_periods, cfg):
    """Enumerate every partition; earliest switch tuple wins cost ties.

    Segment costs are accumulated back-to-front so float association matches
    the suffix dynamic program exactly, keeping tie decisions comparable.
    """
    t = x.shape[0]
    best_cost, best_switches = np.inf, None
    for combo in itertools.combinations(range(1, t), n_periods - 1):
        bounds = (0,) + combo + (t,)
        total = 0.0
        for lo, hi in zip(bounds[-2::-1], bounds[:0:-1]):
            total = segment_cost(x, lo + 1, hi, cfg)[0] + total
        if total < best_cost:
            best_cost, best_switches = total, combo
    return best_cost, best_switches


def grid_minimize_1d(values, penalty, step=1e-4):
    """Grid search for the asymmetric 1-D fit over one movement's window."""
    values = np.asarray(values, dtype=float)
    lo, hi = values.min(), values.max()
    grid = np.arange(lo, hi + step, step)
    diffs = values[:, None] - grid[None, :]
    w = np.where(diffs > 0, penalty, 1.0)
    costs = np.sum(w * diffs * diffs, axis=0)
    k = int(np.argmin(costs))
    return float(grid[k]), float(costs[k])


def joint_switch_and_params(x, window, t, mu_current, horizon_end, cfg):
    """Reference for the switching rule: minimize the full two-segment cost
    from the current period's start, jointly over the switch time and the
    next period's parameter (ties to the earliest admissible time)."""
    best = (np.inf, None, None)
    for u in window:
        if u < t:
            continue
        head = fit_value(x, t + 1, u, mu_current, cfg)
        if u + 1 <= horizon_end:
            tail, mu = segment_cost(x, u + 1, horizon_end, cfg)
        else:
            tail, mu = 0.0, None
        total = head + tail
        if total < best[0]:
            best = (total, u, mu)
    return best


def golden_section(fn, lo, hi, iters=90):
    """Plain golden-section minimizer for the 1-D split oracles."""
    inv = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv * (b - a)
    d = a + inv * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(iters):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - inv * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv * (b - a)
            fd = fn(d)
    x = (a + b) / 2.0
    return x, fn(x)


def _phase_objective(q, sat, members, g, ic):
    total = 0.0
    for m in members:
        if q[m] > 0.0:
            total += q[m] * movement_delay(q[m], sat[m], g, ic)
    return total


def _golden_min(fn, lo, hi, iters=60):
    a, b = lo, hi
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = fn(x1), fn(x2)
    for _ in range(iters):
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = fn(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = fn(x2)
    return (x1, f1) if f1 <= f2 else (x2, f2)


def scalar_green_splits(mu, ic):
    """The scalar pairwise-exchange green-split search, one demand vector at
    a time: the parity reference for ``flowcast.delay``'s batched solver."""
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (ic.n_movements,):
        raise ValueError(f"mu shape {mu.shape} != ({ic.n_movements},)")
    if np.any(mu < 0):
        raise ValueError("demand must be non-negative")
    q = ic.poisson_inflation * mu
    sat = ic.saturation_flow
    mins = ic.min_green_fraction
    budget = ic.green_budget
    free = budget - float(mins.sum())
    n = ic.n_phases

    crit = np.array([
        max((q[m] / sat[m] for m in members), default=0.0) for members in ic.phases
    ])
    if crit.sum() > 0:
        g = mins + free * crit / crit.sum()
    else:
        g = mins + free / n

    def phase_obj(p, gp):
        return _phase_objective(q, sat, ic.phases[p], gp, ic)

    obj = sum(phase_obj(p, g[p]) for p in range(n))
    for _ in range(_MAX_SWEEPS):
        sweep_start = obj
        for p in range(n):
            for r in range(p + 1, n):
                lo = -(g[r] - mins[r])
                hi = g[p] - mins[p]
                if hi - lo <= 0:
                    continue
                base = phase_obj(p, g[p]) + phase_obj(r, g[r])

                def pair(delta):
                    return phase_obj(p, g[p] - delta) + phase_obj(r, g[r] + delta)

                delta, val = _golden_min(pair, lo, hi)
                if val < base - 1e-15 * max(1.0, abs(base)):
                    g[p] -= delta
                    g[r] += delta
                    obj += val - base
        if sweep_start - obj <= _SWEEP_TOL * max(1.0, abs(sweep_start)):
            break

    obj = sum(phase_obj(p, g[p]) for p in range(n))
    phase_of = ic.phase_of()
    saturated = False
    for m in range(ic.n_movements):
        p = phase_of[m]
        g_max = budget - (float(mins.sum()) - mins[p])
        if q[m] >= sat[m] * g_max:
            saturated = True
            break
    return GreenSplits(fractions=g, saturated=saturated, objective=float(obj))
