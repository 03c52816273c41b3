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

# Grid values per batch of windows in ``cost_table``: enough to amortize
# numpy's per-call overhead, few enough that the kernel's temporaries stay in
# a 2 MiB L2 cache (on a 2-core x86_64, a T=288, M=12 table took 1.3 s at
# 1 << 15 and 2.2 s at 1 << 16).
_CHUNK_ELEMENTS = 1 << 15


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
    # Weighted squares w * diff * diff, w = penalty above mu and 1 below.
    diff = np.subtract(windows, mu[..., None], out=vals)
    sq = diff.copy()
    np.multiply(sq, penalty, out=sq, where=diff > 0)
    sq *= diff
    return np.sum(sq, axis=-1), mu


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


def cost_table(x: np.ndarray, cfg: FitConfig) -> np.ndarray:
    """Precompute ``segment_cost`` for every window: entry [a, b] (1-based).

    Windows of one length are scored together, in batches of about
    ``_CHUNK_ELEMENTS`` grid values, so working memory stays bounded.
    """
    x = _check_grid(x)
    t, m = x.shape
    table = np.full((t + 1, t + 1), np.inf)
    for n in range(1, t + 1):
        # (T - n + 1, M, n) view: starts[a, m] is movement m over rows a .. a+n-1.
        starts = sliding_window_view(x.T, n, axis=1).transpose(1, 0, 2)
        step = max(1, _CHUNK_ELEMENTS // max(1, m * n))
        for a0 in range(0, t - n + 1, step):
            batch = np.ascontiguousarray(starts[a0 : a0 + step])
            costs, _ = _window_cost(batch, cfg.overflow_penalty)
            a = np.arange(a0 + 1, a0 + 1 + len(batch))
            table[a, a + n - 1] = costs.sum(axis=-1)
    return table


def optimal_segmentation(x: np.ndarray, n_periods: int, cfg: FitConfig,
                         interval_minutes: int | None = None,
                         costs: np.ndarray | None = None) -> SegmentationPlan:
    """Globally optimal partition of the day into ``n_periods`` periods.

    Dynamic programming over suffixes, recording each state's first optimal
    period end, so cost ties are broken toward the earliest switch times (the
    lexicographically smallest switch vector).  A precomputed ``cost_table``
    may be passed to amortize repeated calls with different period counts.
    """
    x = _check_grid(x)
    t = x.shape[0]
    if not (1 <= n_periods <= t):
        raise ValueError(f"n_periods={n_periods} outside [1, {t}]")
    if costs is None:
        costs = cost_table(x, cfg)

    # best[k, a] = optimal cost of covering [a, T] with k periods, and
    # end[k, a] the smallest end of its first period that attains it.
    best = np.full((n_periods + 1, t + 2), np.inf)
    end = np.zeros((n_periods + 1, t + 2), dtype=int)
    best[1, 1 : t + 1] = costs[1 : t + 1, t]
    for k in range(2, n_periods + 1):
        last = t - k + 1  # latest end that leaves k - 1 periods
        totals = costs[1 : last + 1, 1 : last + 1] + best[k - 1, 2 : last + 2]
        totals[np.tri(last, k=-1, dtype=bool)] = np.inf  # ends before their start
        end[k, 1 : last + 1] = totals.argmin(axis=1) + 1
        best[k, 1 : last + 1] = totals.min(axis=1)

    bounds = [0]
    for k in range(n_periods, 1, -1):
        bounds.append(int(end[k, bounds[-1] + 1]))
    bounds.append(t)
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
    """Load a plan serialized by :func:`plan_to_json`."""
    doc = artifact.read(source, "segmentation_plan")
    return SegmentationPlan(
        n_periods=artifact.typed(doc, "n_periods", int, "an integer"),
        n_intervals=artifact.typed(doc, "n_intervals", int, "an integer"),
        switch_times=artifact.typed(doc, "switch_times", list, "a list"),
        params=artifact.array(doc, "params", 2),
        total_cost=artifact.number(doc, "total_cost"),
        interval_minutes=artifact.typed(doc, "interval_minutes", (int, type(None)),
                                        "an integer or null"),
    )
