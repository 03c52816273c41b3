"""Slow reference implementations used by unit and acceptance tests."""

import csv
import itertools
import math
import warnings
from dataclasses import replace

import numpy as np

from flowcast import FitConfig, fit_value, segment_cost
from flowcast.controller import ControllerMode, run_controller
from flowcast.delay import (_GOLDEN, _MAX_SWEEPS, _SWEEP_TOL, SCENARIOS, DelayReport,
                            GreenSplits, lower_bound_delay, movement_delay,
                            simulate_day)
from flowcast.flowdata import (CSV_HEADER, DayRecord, FlowDataset, ValidationError,
                               _split_grid, day_of_week_tag, split_at)
from flowcast.pls import LoocvRecord, fit_pls_kernel, predict


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


def hcm_delay(flow, saturation, green, ic):
    """HCM 2000 control delay [s/veh] of one movement, transcribed from
    ``flowcast.delay``'s module docstring (k = 0.5, I = 1); d1 is 0 at full
    green."""
    c = saturation * green
    x = flow / c
    t = ic.analysis_period_hours
    d1 = 0.0
    if green < 1.0:
        d1 = 0.5 * ic.cycle_seconds * (1 - green) ** 2 / (1 - min(1, x) * green)
    d2 = 900 * t * ((x - 1) + math.sqrt((x - 1) ** 2 + 8 * 0.5 * 1 * x / (c * t)))
    return d1 + d2


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


# ------------------------------------------------------------ segmentation

def window_cost(window: np.ndarray, penalty: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact per-movement minimum of the asymmetric fit over one window: the
    loop body that ``segmentation._window_cost`` batches.

    Returns (cost_per_movement, mu_per_movement) for a (n, M) window.  With
    values sorted ascending, the candidate parameter for the breakpoint scan
    with j values at or below it is a weighted average
    ``(sum_below + penalty * sum_above) / (j + penalty * (n - j))``.  The
    fit's derivative is nondecreasing, so the first candidate at or below its
    upper breakpoint, clipped up to its lower one, is the global minimizer.
    """
    n, m = window.shape
    vals = np.sort(window, axis=0)
    pref = np.vstack([np.zeros((1, m)), np.cumsum(vals, axis=0)])
    total = pref[-1]
    j = np.arange(n + 1, dtype=float)[:, None]
    cand = (pref + penalty * (total - pref)) / (j + penalty * (n - j))
    below = np.vstack([cand[:-1] <= vals, np.ones((1, m), dtype=bool)])
    pick = below.argmax(axis=0)
    cols = np.arange(m)
    mu = cand[pick, cols]
    lo = vals[np.maximum(pick - 1, 0), cols]
    mu = np.where((pick > 0) & (mu < lo), lo, mu)
    diff = window - mu
    w = np.where(diff > 0, penalty, 1.0)
    return np.sum(w * diff * diff, axis=0), mu


def per_window_cost_table(x, cfg):
    """The exact cost table, one window at a time with ``segment_cost``'s
    arithmetic: the reference for ``segmentation.cost_table``, whose entries
    lie within ``segmentation._cost_bound`` of it and equal it on integer
    grids, and for ``optimal_segmentation``, whose plans are the dynamic
    program's on it.  The grid is taken in column-major order, so each
    movement's window is contiguous and numpy sums it pairwise, the
    summation order ``segment_cost`` uses for every layout."""
    x = np.asfortranarray(x, dtype=float)
    t = x.shape[0]
    table = np.full((t + 1, t + 1), np.inf)
    for a in range(1, t + 1):
        for b in range(a, t + 1):
            costs, _ = window_cost(x[a - 1 : b], cfg.overflow_penalty)
            table[a, b] = costs.sum()
    return table


# ------------------------------------------------------------ CSV ingest

def rowwise_parse_rows(path, intervals_per_day):
    """Parse and validate the long-format CSV one row at a time, returning
    per-day cell maps: the parity reference for ``flowdata._parse_rows``.
    Its row-wise reader restates this logic; this copy stays apart from it,
    so that both of its readers, ``np.loadtxt`` on plain blocks and the
    row-wise one on the rest, are checked against code neither shares."""
    cells: dict[str, dict[tuple[str, int], float]] = {}
    observed: set[str] = set()
    header_seen = False
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                fields = next(csv.reader([line]))
            except csv.Error as exc:
                raise ValidationError(f"line {lineno}: malformed CSV row: {exc}") from exc
            fields = [f.strip() for f in fields]
            if not header_seen:
                if tuple(f.lower() for f in fields) != CSV_HEADER:
                    raise ValidationError(
                        f"line {lineno}: expected header {','.join(CSV_HEADER)!r}, "
                        f"got {line!r}"
                    )
                header_seen = True
                continue
            if len(fields) != 4:
                raise ValidationError(
                    f"line {lineno}: expected 4 fields, got {len(fields)}"
                )
            date_label, movement, interval_s, flow_s = fields
            try:
                day_of_week_tag(date_label)
            except ValidationError as exc:
                raise ValidationError(f"line {lineno}: {exc}") from exc
            if not movement:
                raise ValidationError(f"line {lineno}: empty movement label")
            try:
                interval = int(interval_s)
            except ValueError as exc:
                raise ValidationError(
                    f"line {lineno}: bad interval_index {interval_s!r}"
                ) from exc
            if not (1 <= interval <= intervals_per_day):
                raise ValidationError(
                    f"line {lineno}: interval_index {interval} outside "
                    f"[1, {intervals_per_day}]"
                )
            try:
                flow = float(flow_s)
            except ValueError as exc:
                raise ValidationError(f"line {lineno}: bad flow_vph {flow_s!r}") from exc
            if not np.isfinite(flow):
                raise ValidationError(f"line {lineno}: non-finite flow_vph")
            if flow < 0:
                raise ValidationError(f"line {lineno}: negative flow_vph {flow_s}")
            day = cells.setdefault(date_label, {})
            key = (movement, interval)
            if key in day:
                raise ValidationError(
                    f"line {lineno}: duplicate entry for ({date_label}, {movement}, "
                    f"{interval})"
                )
            day[key] = flow
            observed.add(movement)
    if not header_seen:
        raise ValidationError(f"{path}: empty file (missing header)")
    return cells, observed


def rowwise_save_dataset(ds, csv_path, manifest_hash=None):
    """The CSV half of ``flowdata.save_dataset``, one ``csv.writer`` row per
    cell: the byte reference for the block writer."""
    t = ds.intervals_per_day
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        if manifest_hash:
            fh.write(f"# manifest_hash={manifest_hash}\n")
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for i, rec in enumerate(ds.days):
            row = ds.flows[i]
            for m, movement in enumerate(ds.movements):
                for k in range(t):
                    writer.writerow(
                        [rec.date, movement, k + 1, repr(float(row[m * t + k]))]
                    )


def rowwise_load_csv(path, interval_minutes, movement_order=None):
    """``flowdata.load_csv`` on the row-by-row parser: its parity reference."""
    intervals_per_day = 1440 // interval_minutes
    cells, observed = rowwise_parse_rows(path, intervals_per_day)
    if movement_order is not None:
        movements = tuple(movement_order)
        if set(movements) != observed or len(set(movements)) != len(movements):
            raise ValidationError(
                "movement_order does not match the movements present in the file"
            )
    else:
        movements = tuple(sorted(observed))
    expected = intervals_per_day * len(movements)
    complete = {d: day for d, day in cells.items() if len(day) == expected}
    dropped = sorted(set(cells) - set(complete))
    if dropped:
        warnings.warn(
            f"dropping {len(dropped)} incomplete day(s): {', '.join(dropped)}",
            stacklevel=2,
        )
    if not complete:
        raise ValidationError(f"{path}: no complete days")
    dates = sorted(complete)
    flows = np.empty((len(dates), expected), dtype=float)
    for i, d in enumerate(dates):
        day = complete[d]
        for m, movement in enumerate(movements):
            for t in range(intervals_per_day):
                flows[i, m * intervals_per_day + t] = day[(movement, t + 1)]
    days = tuple(DayRecord(d) for d in dates)
    return FlowDataset(days=days, flows=flows, interval_minutes=interval_minutes,
                       movements=movements)


def rowwise_read_sample(path, ds, spec):
    """``flowdata.load_sample`` on the row-by-row parser."""
    cells, observed = rowwise_parse_rows(path, ds.intervals_per_day)
    if len(cells) != 1:
        raise ValidationError(f"sample file must hold exactly one date, got {len(cells)}")
    date_label, day = next(iter(cells.items()))
    missing = set(ds.movements) - observed
    if missing:
        raise ValidationError(f"sample is missing movements: {sorted(missing)}")
    grid = np.zeros((1, ds.n_movements, ds.intervals_per_day))
    for m, movement in enumerate(ds.movements):
        for t in range(1, spec.cutoff_index + 1):
            if (movement, t) not in day:
                raise ValidationError(
                    f"sample is missing ({movement}, interval {t})"
                )
            grid[0, m, t - 1] = day[(movement, t)]
    z, _ = _split_grid(grid, spec)
    return date_label, z[0]


def refit_loocv(ds, spec, n_components):
    """Leave-one-out by refitting each fold from its copied data matrices."""
    if ds.n_days < 3:
        raise ValueError("leave-one-out evaluation requires at least 3 days")
    z, y = split_at(ds, spec)
    records = []
    for d in range(ds.n_days):
        z_f = np.delete(z, d, axis=0)
        y_f = np.delete(y, d, axis=0)
        model = fit_pls_kernel(z_f, y_f, n_components, split=spec)
        y_hat = predict(model, z[d])
        e_pred = float(np.abs(y[d] - y_hat).sum())
        e_base = float(np.abs(y[d] - y_f.mean(axis=0)).sum())
        decrease = 0.0 if e_base == 0.0 else (e_base - e_pred) / e_base
        records.append(LoocvRecord(ds.days[d].date, e_pred, e_base, decrease))
    return records


def per_day_evaluate_days(ds, indices, nominal, bank, cfg, fit_cfg, ic):
    """Score the days one at a time: both controller modes, the three plan
    simulations and the lower bound of a day before the next day starts."""
    mode_cfgs = [replace(cfg, mode=mode) for mode in (ControllerMode.SEGMENTATION_ONLY,
                                                      ControllerMode.SEGMENTATION_AND_PARAMS)]
    results = []
    for idx in indices:
        day = ds.day_grid(idx)
        plans = [run_controller(nominal, day, bank, c, fit_cfg) for c in mode_cfgs]
        traces = [simulate_day(day, p, ic) for p in (nominal, *plans)]
        traces.append(lower_bound_delay(day, ic))
        results.append((DelayReport(ds.days[idx].date, dict(zip(SCENARIOS, traces))), *plans))
    return results
