"""Optimal partition of a day into time-of-day periods.

A candidate period ``[t_a, t_b]`` with a constant per-movement parameter
vector ``mu`` is scored by an asymmetric quadratic fit: intervals where flow
exceeds ``mu`` (demand overflowing the plan) are penalized
``overflow_penalty`` times harder than intervals below it.  The per-period
minimizer over ``mu`` is exact: the objective is a convex piecewise quadratic
in each movement's parameter, so the stationary point is found by scanning
breakpoint intervals of the sorted window.  Day-level plans with a fixed
number of periods are globally optimal by dynamic programming over period
end times.

The dynamic program reads a table of every window's cost.  ``cost_table``
builds it one movement at a time in O(T^2) working memory: the column is
sorted once, and (T+1) x (T+1) prefix tables of count and sum over (time,
global rank) give each window's count and sum below any rank.  The
minimizer is an expectile of level p / (1 + p) (Newey and Powell 1987), so
it depends only on those counts and sums, and one vectorized binary search
over global ranks finds it for every window at once.  Each window's cost is
then summed directly over its values.  The prefix sums round differently
from ``segment_cost``'s per-window sums, so an entry may differ from it by
the bound E of ``_cost_bound`` (about 1e-15 relative in practice, and not at
all on integer grids).  ``optimal_segmentation`` recomputes with
``segment_cost``'s arithmetic every entry that could decide its plan, so each
plan is exactly the plan of the exact table.

Time indices are 1-based and inclusive throughout; flow arrays are (T, M)
grids with row ``t-1`` holding interval ``t``.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import artifact

@dataclass(frozen=True)
class FitConfig:
    """Asymmetric fit weights: squared error above the parameter is scaled
    by ``overflow_penalty`` (>= 1); below it the weight is 1."""

    overflow_penalty: float = 2.0

    def __post_init__(self) -> None:
        if not (self.overflow_penalty >= 1.0):
            raise ValueError("overflow_penalty must be >= 1")
        if not np.isfinite(self.overflow_penalty):
            raise ValueError("overflow_penalty must be finite")


@dataclass(frozen=True)
class PeriodPlan:
    """A fixed-count partition of [1, T] with per-period parameter vectors.

    ``switch_times`` hold the last interval of each period except the final
    one (so ``n_periods - 1`` strictly increasing values in [1, T-1]);
    ``params`` is an (n_periods, M) array of per-period parameter vectors.
    Subclasses add their own fields, including ``interval_minutes``.
    """

    n_periods: int
    n_intervals: int
    switch_times: tuple[int, ...]
    params: np.ndarray

    def __post_init__(self) -> None:
        if not all(isinstance(t, Integral) and not isinstance(t, bool)
                   for t in self.switch_times):
            raise ValueError(f"switch_times {self.switch_times} must be integers")
        object.__setattr__(self, "switch_times", tuple(int(t) for t in self.switch_times))
        params = np.array(self.params, dtype=float)
        params.setflags(write=False)
        object.__setattr__(self, "params", params)
        s, t = self.n_periods, self.n_intervals
        if len(self.switch_times) != s - 1:
            raise ValueError(f"expected {s - 1} switch times, got {len(self.switch_times)}")
        bounds = (0,) + self.switch_times + (t,)
        if any(b <= a for a, b in zip(bounds, bounds[1:])):
            raise ValueError(f"switch times {self.switch_times} do not partition [1, {t}]")
        if params.shape[0] != s:
            raise ValueError(f"expected {s} parameter vectors, got {params.shape[0]}")
        if not np.all(np.isfinite(params)):
            raise ValueError("plan parameters must be finite")

    def periods(self) -> list[tuple[int, int]]:
        """Inclusive (start, end) interval ranges, covering [1, T]."""
        bounds = (0,) + self.switch_times + (self.n_intervals,)
        return [(a + 1, b) for a, b in zip(bounds, bounds[1:])]

    @property
    def switch_times_hhmm(self) -> list[str] | None:
        """Switch times as clock times (an interval t ends at t * delta), or
        None when the interval length is unknown."""
        if self.interval_minutes is None:
            return None
        return [artifact.render_hhmm(t, self.interval_minutes) for t in self.switch_times]

    def _json_fields(self) -> dict:
        """Document fields shared by every plan kind."""
        fields = {
            "n_periods": self.n_periods,
            "n_intervals": self.n_intervals,
            "switch_times": list(self.switch_times),
            "params": self.params.tolist(),
            "interval_minutes": self.interval_minutes,
        }
        if self.interval_minutes is not None:
            fields["switch_times_hhmm"] = self.switch_times_hhmm
        return fields


@dataclass(frozen=True)
class SegmentationPlan(PeriodPlan):
    """A time-of-day plan with its total fit cost."""

    total_cost: float
    interval_minutes: int | None = None


def _check_grid(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError("flow grid must be 2-D (intervals x movements)")
    return x


def fit_value(x: np.ndarray, t_a: int, t_b: int, mu: np.ndarray,
              cfg: FitConfig) -> float:
    """Asymmetric fit of constant ``mu`` to flows over ``[t_a, t_b]``.

    Empty windows (``t_b < t_a``) score 0.  ``mu`` must be entrywise >= 0.
    """
    x = _check_grid(x)
    if t_b < t_a:
        return 0.0
    if t_a < 1 or t_b > x.shape[0]:
        raise ValueError(f"window [{t_a}, {t_b}] outside the grid of {x.shape[0]} rows")
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (x.shape[1],):
        raise ValueError(f"mu shape {mu.shape} != ({x.shape[1]},)")
    if np.any(mu < 0):
        raise ValueError("mu must be entrywise non-negative")
    diff = x[t_a - 1 : t_b] - mu
    w = np.where(diff > 0, cfg.overflow_penalty, 1.0)
    return float(np.sum(w * diff * diff))


def _fit_cost(windows: np.ndarray, mu: np.ndarray, penalty: float) -> np.ndarray:
    """Asymmetric fit of ``mu`` (shape ``windows.shape[:-1]``) to the values
    along the last axis of ``windows``: weighted squares ``w * diff * diff``,
    w = penalty above mu and 1 below, summed along that axis.  As penalty >=
    1, ``w * diff`` is the larger of ``diff`` and ``penalty * diff``, with
    the bits of ``fit_value``'s product."""
    diff = windows - mu[..., None]
    sq = diff * penalty
    np.maximum(sq, diff, out=sq)
    sq *= diff
    return np.sum(sq, axis=-1)


def _window_cost(windows: np.ndarray, penalty: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact per-movement minimum of the asymmetric fit over a batch of windows.

    ``windows`` is a C-contiguous (B, M, n) array: B windows of n intervals
    each, one row per movement.  Returns (cost, mu), both (B, M).  With a
    row's values sorted ascending, the candidate parameter for the
    breakpoint scan with j values at or below it is a weighted average
    ``(sum_below + penalty * sum_above) / (j + penalty * (n - j))``, the
    stationary point of the fit on the bracket ``[vals[j-1], vals[j]]``.
    Every sum runs along the contiguous interval axis, so a window's cost
    depends neither on the memory layout of the grid it came from nor on
    the other windows in the batch.
    """
    b, m, n = windows.shape
    vals = np.sort(windows, axis=-1)
    pref = np.zeros((b, m, n + 1))
    np.cumsum(vals, axis=-1, out=pref[..., 1:])
    j = np.arange(n + 1, dtype=float)
    cand = pref[..., -1:] - pref
    cand *= penalty
    cand += pref
    cand /= j + penalty * (n - j)
    # The fit's derivative is nondecreasing, so the minimizer is the first
    # candidate at or below its bracket's top, clipped up to its bottom.
    below = np.ones(cand.shape, dtype=bool)
    np.less_equal(cand[..., :-1], vals, out=below[..., :-1])
    pick = below.argmax(axis=-1)[..., None]
    mu = np.take_along_axis(cand, pick, axis=-1)[..., 0]
    lo = np.take_along_axis(vals, np.maximum(pick - 1, 0), axis=-1)[..., 0]
    np.copyto(mu, lo, where=(pick[..., 0] > 0) & (mu < lo))
    return _fit_cost(windows, mu, penalty), mu


def segment_cost(x: np.ndarray, t_a: int, t_b: int,
                 cfg: FitConfig) -> tuple[float, np.ndarray]:
    """Minimum fit over constant parameters for the window ``[t_a, t_b]``.

    Returns ``(cost, mu)`` where ``mu`` is the exact per-movement minimizer.
    With ``overflow_penalty == 1`` the minimizer is the window mean.
    """
    x = _check_grid(x)
    if t_a > t_b:
        raise ValueError(f"empty window [{t_a}, {t_b}]")
    if t_a < 1 or t_b > x.shape[0]:
        raise ValueError(f"window [{t_a}, {t_b}] outside the grid of {x.shape[0]} rows")
    window = np.ascontiguousarray(x[t_a - 1 : t_b].T)[None]
    costs, mu = _window_cost(window, cfg.overflow_penalty)
    return float(costs[0].sum()), mu[0]


def _exact_windows(rows: np.ndarray, starts: np.ndarray, lengths: np.ndarray,
                   penalty: float) -> tuple[np.ndarray, np.ndarray]:
    """``_window_cost`` of the windows (0-based start, length) of the
    C-contiguous (M, T) grid ``rows``, batched by length: (cost, mu), both
    (B, M), with ``segment_cost``'s bits."""
    cost = np.empty((len(starts), rows.shape[0]))
    mu = np.empty_like(cost)
    for n in np.unique(lengths):
        pick = np.flatnonzero(lengths == n)
        windows = sliding_window_view(rows, n, axis=1)[:, starts[pick]].transpose(1, 0, 2)
        cost[pick], mu[pick] = _window_cost(np.ascontiguousarray(windows), penalty)
    return cost, mu


def _windows(t: int) -> tuple[np.ndarray, np.ndarray]:
    """(length, 0-based start) of every window of a T-interval day, ordered
    by length and then by start."""
    lengths = np.repeat(np.arange(1, t + 1), np.arange(t, 0, -1))
    return lengths, np.concatenate([np.arange(t - n + 1) for n in range(1, t + 1)])


def _window_minimizers(col: np.ndarray, lengths: np.ndarray, starts: np.ndarray,
                       penalty: float) -> np.ndarray:
    """Minimizer of the asymmetric fit of one movement's contiguous column
    over every window of ``_windows``, by one binary search over the
    column's global ranks.

    With ``xs`` the sorted column, the candidate at rank k is
    ``_window_cost``'s candidate for the window's values of rank below k.
    It is at or below ``xs[k]`` exactly when the fit's derivative at
    ``xs[k]`` is >= 0, which is monotone in k.  So the smallest such k
    brackets ``_window_cost``'s pick, its first candidate at or below its
    bracket's top, and that candidate is clipped up to ``xs[k-1]``: the
    bracket's bottom, or a value the candidate already exceeds.  Rounding
    can flip the test only where a candidate lies within rounding of the
    value it is tested against, and then ``_window_cost``'s own scan may
    flip too.  A window whose candidate at k or at k-1 lies that close is
    handed to ``_window_cost``, so where the sums are exact (a grid of
    small integers) every minimizer is ``_window_cost``'s to the bit.
    """
    t = len(col)
    order = np.argsort(col, kind="stable")
    xs = np.append(col[order], np.inf)
    # counts[i, k], sums[i, k]: intervals before row i whose global rank is
    # below k, and the sum of their values.
    counts = np.zeros((t + 1, t + 1))
    counts[order + 1, np.arange(1, t + 1)] = 1.0
    sums = np.zeros((t + 1, t + 1))
    sums[order + 1, np.arange(1, t + 1)] = col[order]
    for prefix in (counts, sums):
        np.cumsum(prefix, axis=1, out=prefix)
        np.cumsum(prefix, axis=0, out=prefix)
    counts, sums = counts.ravel(), sums.ravel()
    top = (starts + lengths) * (t + 1)
    bottom = starts * (t + 1)
    n = lengths.astype(float)
    total = sums[top + t] - sums[bottom + t]

    def candidate(k):
        j = counts[top + k] - counts[bottom + k]
        below = sums[top + k] - sums[bottom + k]
        cand = total - below
        cand *= penalty
        cand += below
        cand /= j + penalty * (n - j)
        return cand

    lo = np.zeros(len(lengths), dtype=np.intp)
    hi = np.full(len(lengths), t, dtype=np.intp)  # xs[t] = inf: rank t always qualifies
    for _ in range(t.bit_length()):
        mid = (lo + hi) >> 1
        ok = candidate(mid) <= xs[mid]
        np.copyto(hi, mid, where=ok)
        np.copyto(lo, mid + 1, where=~ok)
    mu = candidate(lo)
    prev = np.maximum(lo - 1, 0)
    floor = xs[prev]
    near = 4 * (penalty + 1) * np.finfo(float).eps * np.max(np.abs(col))
    unsure = np.abs(mu - xs[lo]) < near
    unsure |= (lo > 0) & (np.abs(candidate(prev) - floor) < near)
    np.copyto(mu, floor, where=(lo > 0) & (mu < floor))
    _, exact = _exact_windows(col[None], starts[unsure], lengths[unsure], penalty)
    mu[unsure] = exact[:, 0]
    return mu


def cost_table(x: np.ndarray, cfg: FitConfig) -> np.ndarray:
    """``segment_cost`` of every window, up to rounding: entry [a, b]
    (1-based), inf where b < a.

    One movement at a time: ``_window_minimizers`` finds every window's
    minimizer from the column's rank prefix sums, and the window's cost is
    summed directly over its values, as ``_window_cost`` sums it.  The
    movement costs of a window are summed as ``segment_cost`` sums them.
    Working memory is O(T^2) per movement plus the T(T+1)/2 x M movement
    costs.  An entry lies within ``_cost_bound`` of ``segment_cost``; on a
    grid of small integers both sums are exact and the entries equal it.
    """
    x = _check_grid(x)
    t, m = x.shape
    penalty = cfg.overflow_penalty
    lengths, starts = _windows(t)
    per_movement = np.empty((len(lengths), m))
    for j in range(m):
        col = np.concatenate([x[:, j], np.zeros(t)])
        mu = _window_minimizers(col[:t], lengths, starts, penalty)
        rows = sliding_window_view(col, t)  # rows[a, :n]: the n intervals from row a
        done = 0
        for n in range(1, t + 1):
            span = slice(done, done + t - n + 1)
            per_movement[span, j] = _fit_cost(rows[: t - n + 1, :n], mu[span], penalty)
            done = span.stop
    table = np.full((t + 1, t + 1), np.inf)
    table[starts + 1, starts + lengths] = per_movement.sum(axis=-1)
    return table


def _cost_bound(x: np.ndarray, table: np.ndarray, penalty: float) -> np.ndarray:
    """Bound E on ``|table[a, b] - segment_cost(x, a, b)[0]|`` for a
    ``cost_table`` of ``x``, to first order in eps; 0 off the windows.

    With n = b - a + 1, p the penalty, X_m the largest |value| of movement
    m and c the entry::

        E = (n + M + 4) eps c + sum_m p n D_m^2,
        D_m = (p + 1) (2p + 1) (T + 1)^2 eps X_m / n.

    D_m bounds how far either route's parameter lies from the exact
    minimizer.  A prefix sum adds at most T values of size X_m, so it is off
    by at most T^2 X_m eps / 2.  A candidate's numerator holds four of them
    at weight p and two at weight 1, and its denominator j + p (n - j) is
    at least n, which gives (2p + 1) (T + 1)^2 eps X_m / n; ``_window_cost``
    sums n values and stays within that.  Where rounding moves the pick across a breakpoint,
    the derivative there is within the candidate's error times 2pn, and
    the fit's curvature of at least 2n adds the factor p + 1.  The fit is
    convex with curvature at most 2pn, so a parameter D_m from the
    minimizer costs at most p n D_m^2: the second term.  The first covers
    the rounding of the costs summed from that point: n + 3 roundings in
    each movement's sum, M - 1 in the sum over movements, on both routes.
    """
    t, m = x.shape
    eps = np.finfo(float).eps
    a, b = np.triu_indices(t + 1)
    a, b = a[a > 0], b[a > 0]
    n = b - a + 1
    reach = (penalty + 1) * (2 * penalty + 1) * (t + 1) ** 2 * eps
    spread = penalty * reach ** 2 * np.sum(np.max(np.abs(x), axis=0) ** 2)
    bound = np.zeros(table.shape)
    bound[a, b] = (n + m + 4) * eps * table[a, b] + spread / n
    return bound


def _suffix_dp(table: np.ndarray, n_periods: int) -> tuple[np.ndarray, list[int]]:
    """Dynamic program over suffixes on ``table``.  Returns ``best``, where
    ``best[k, a]`` is the optimal cost of covering [a, T] with k periods,
    and the period bounds ``[0, tau_1, ..., T]`` of the optimal plan."""
    t = table.shape[0] - 1
    # end[k, a] is the smallest end of the first period that attains best[k, a].
    best = np.full((n_periods + 1, t + 2), np.inf)
    end = np.zeros((n_periods + 1, t + 2), dtype=int)
    best[1, 1 : t + 1] = table[1 : t + 1, t]
    for k in range(2, n_periods + 1):
        last = t - k + 1  # latest end that leaves k - 1 periods
        totals = table[1 : last + 1, 1 : last + 1] + best[k - 1, 2 : last + 2]
        totals[np.tri(last, k=-1, dtype=bool)] = np.inf  # ends before their start
        end[k, 1 : last + 1] = totals.argmin(axis=1) + 1
        best[k, 1 : last + 1] = totals.min(axis=1)
    bounds = [0]
    for k in range(n_periods, 1, -1):
        bounds.append(int(end[k, bounds[-1] + 1]))
    bounds.append(t)
    return best, bounds


def _near_best_windows(table: np.ndarray, best: np.ndarray,
                       margin: float) -> tuple[np.ndarray, np.ndarray]:
    """Windows (a, b) whose total lies within ``margin`` of the best of a
    state reachable from the plan's first state through such windows."""
    t = table.shape[0] - 1
    starts, ends = [], []
    frontier = np.array([1])
    for k in range(best.shape[0] - 1, 1, -1):
        last = t - k + 1
        e = np.arange(1, last + 1)
        totals = table[frontier[:, None], e] + best[k - 1, e + 1]
        totals[e < frontier[:, None]] = np.inf
        row, col = np.nonzero(totals <= best[k, frontier, None] + margin)
        starts.append(frontier[row])
        ends.append(e[col])
        frontier = np.unique(e[col] + 1)
    starts.append(frontier)
    ends.append(np.full(len(frontier), t))
    return np.concatenate(starts), np.concatenate(ends)


def optimal_segmentation(x: np.ndarray, n_periods: int, cfg: FitConfig,
                         interval_minutes: int | None = None,
                         costs: np.ndarray | None = None) -> SegmentationPlan:
    """Globally optimal partition of the day into ``n_periods`` periods.

    Dynamic programming over suffixes, recording each state's first optimal
    period end, so cost ties are broken toward the earliest switch times (the
    lexicographically smallest switch vector).  A precomputed ``cost_table``
    of ``x`` may be passed to amortize repeated calls with different period
    counts; it is not modified.

    The plan is the one the exact table (every entry ``segment_cost``'s)
    gives.  With S periods, E' the largest ``_cost_bound`` plus eps times
    the largest entry (the rounding of one addition of the program), every
    state's best on the table lies within k E' of its exact value at k
    periods.  So a window whose total lies more than 3 S E' above its
    state's best cannot win that state on any table whose entries are each
    within E of exact, and the exact winner, with every window tied with it,
    lies within that margin.  The program runs on the table, the windows
    within the margin of states reachable from the first state through such
    windows are recomputed with ``_window_cost``, batched by length, and the
    program runs again: each state it walks then takes the exact value and
    the exact first winner.
    """
    x = _check_grid(x)
    t = x.shape[0]
    if not isinstance(n_periods, Integral) or isinstance(n_periods, bool):
        raise ValueError(f"n_periods must be an integer, got {n_periods!r}")
    if not (1 <= n_periods <= t):
        raise ValueError(f"n_periods={n_periods} outside [1, {t}]")
    if costs is None:
        costs = cost_table(x, cfg)
    elif np.shape(costs) != (t + 1, t + 1):
        raise ValueError(f"cost table of shape {np.shape(costs)} does not fit a grid "
                         f"of {t} intervals, whose table has shape {(t + 1, t + 1)}")
    table = np.array(costs, dtype=float)
    best, _ = _suffix_dp(table, n_periods)
    finite = table[np.isfinite(table)]
    slack = (_cost_bound(x, table, cfg.overflow_penalty).max()
             + np.finfo(float).eps * finite.max(initial=0.0))
    a, b = _near_best_windows(table, best, 3 * n_periods * slack)
    exact, _ = _exact_windows(np.ascontiguousarray(x.T), a - 1, b - a + 1,
                              cfg.overflow_penalty)
    table[a, b] = exact.sum(axis=-1)
    _, bounds = _suffix_dp(table, n_periods)

    fits = [segment_cost(x, lo + 1, hi, cfg) for lo, hi in zip(bounds, bounds[1:])]
    return SegmentationPlan(
        n_periods=n_periods,
        n_intervals=t,
        switch_times=tuple(bounds[1:-1]),
        params=np.vstack([mu for _, mu in fits]),
        total_cost=sum(cost for cost, _ in fits),
        interval_minutes=interval_minutes,
    )


def plan_to_json(plan: SegmentationPlan, path: str | Path | None = None,
                 manifest_hash: str | None = None, **extra) -> dict:
    """Serialize a plan, rendering switch times as HH:MM when the interval
    length is known."""
    doc = artifact.document("segmentation_plan", {
        **plan._json_fields(), "total_cost": plan.total_cost, **extra}, manifest_hash)
    return artifact.write(doc, path)


def plan_from_json(source: str | Path | dict) -> SegmentationPlan:
    """Load a plan serialized by :func:`plan_to_json`.  Its parameters must
    be non-negative, as every fitted plan's are."""
    doc = artifact.read(source, "segmentation_plan")
    plan = SegmentationPlan(
        n_periods=artifact.typed(doc, "n_periods", int, "an integer"),
        n_intervals=artifact.typed(doc, "n_intervals", int, "an integer"),
        switch_times=artifact.typed(doc, "switch_times", list, "a list"),
        params=artifact.array(doc, "params", 2),
        total_cost=artifact.number(doc, "total_cost"),
        interval_minutes=artifact.typed(doc, "interval_minutes", (int, type(None)),
                                        "an integer or null"),
    )
    negative = np.argwhere(plan.params < 0)
    if len(negative):
        p, m = negative[0]
        raise ValueError(f"plan parameter of period {p + 1}, movement {m + 1} "
                         f"is negative: {float(plan.params[p, m])!r}")
    return plan
