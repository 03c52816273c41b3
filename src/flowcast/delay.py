"""Signalized-intersection delay under a time-of-day plan.

Movement control delay uses the Highway Capacity Manual 2000 form for a
pre-timed signal (progression factor 1, incremental-delay calibration
k = 0.5, isolated intersection I = 1):

    d1 = 0.5 * C * (1 - g)^2 / (1 - min(1, X) * g)          [uniform delay]
    d2 = 900 * T * ((X - 1) + sqrt((X - 1)^2 + 8 k I X / (c T)))
    d  = d1 + d2                                            [s/veh]

with cycle length C [s], effective green ratio g, capacity c = s * g [vph],
degree of saturation X = q / c, and analysis period T [h].  Green splits for
a period minimize total flow-weighted delay over phases subject to the green
budget (1 - lost time / cycle) and per-phase minimum greens; demand is
inflated by a Poisson safety factor before the optimization, and the same
inflated demand drives the per-vehicle delay wherever plans are evaluated.

Per-interval optimal splits would be a lower bound for any plan if each
search found the global optimum.  The search is a pairwise green exchange,
so it finds a local optimum: no single exchange between two phases lowers
the objective.  Each movement's delay has a concave kink at X = 1, so that
is not always the global one.  What checks soundness is the acceptance
battery's criterion 8 (the lower bound stays below every scenario on every
synthetic day), ``test_lower_bound_rate_never_exceeds_a_plan_rate`` (per
interval), and the benchmark's lower-bound gate on every evaluated day.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field, fields
from numbers import Integral

import numpy as np

K_INCREMENTAL = 0.5
I_FILTERING = 1.0
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# Sweep tolerance is relative to the objective; it must be tight enough that
# residual split error stays well under 1e-6 (symmetric demands should come
# out with equal greens) and that per-interval optimal splits remain a sound
# lower bound for whole-plan evaluations at reporting precision.
_SWEEP_TOL = 1e-13
_MAX_SWEEPS = 200
# Rows per ``_solve_batch`` call in ``lower_bound_delays``: a call's cost is
# mostly per-step overhead (about 0.11 s for 4 rows and 0.15 s for 96 on a
# 2-vCPU x86_64 VM, one OpenBLAS thread), while memory grows with the rows.
_ROW_BUDGET = 4096


@dataclass(frozen=True, eq=False)
class IntersectionConfig:
    """Signal timing structure and saturation flows.

    ``phases`` maps each phase to the movement indices it serves; every
    movement must appear in exactly one phase.  ``min_green_fraction`` and
    ``saturation_flow`` broadcast from scalars.  Equality and hash compare the
    init fields by value, arrays included.

    Each instance memoizes the greens of the plan rows ``lower_bound_delays``
    has solved (for itself or for ``simulate_day``), keyed by the row's
    bytes; it takes no part in equality, hash or repr, and
    ``dataclasses.replace`` starts a copy with an empty memo.
    """

    phases: tuple[tuple[int, ...], ...]
    n_movements: int
    saturation_flow: np.ndarray = 1800.0
    cycle_seconds: float = 120.0
    lost_time_seconds: float = 16.0
    min_green_fraction: np.ndarray = 0.07
    poisson_inflation: float = 1.10
    analysis_period_hours: float = 0.25
    _plan_greens: dict[bytes, np.ndarray] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for m in (m for p in self.phases for m in p):
            if not isinstance(m, Integral) or isinstance(m, bool):
                raise ValueError(f"phases must hold integer movement indices, got {m!r}")
        phases = tuple(tuple(int(m) for m in p) for p in self.phases)
        object.__setattr__(self, "phases", phases)
        seen = [m for p in phases for m in p]
        if sorted(seen) != list(range(self.n_movements)):
            raise ValueError("phases must partition the movement indices exactly once")
        sat = np.broadcast_to(
            np.asarray(self.saturation_flow, dtype=float), (self.n_movements,)
        ).copy()
        if np.any(sat <= 0):
            raise ValueError("saturation flows must be positive")
        sat.setflags(write=False)
        object.__setattr__(self, "saturation_flow", sat)
        ming = np.broadcast_to(
            np.asarray(self.min_green_fraction, dtype=float), (len(phases),)
        ).copy()
        if np.any(ming <= 0):
            raise ValueError("min_green_fraction must be positive")
        ming.setflags(write=False)
        object.__setattr__(self, "min_green_fraction", ming)
        if self.cycle_seconds <= 0 or self.lost_time_seconds < 0:
            raise ValueError("cycle_seconds must be positive, lost time non-negative")
        if self.poisson_inflation < 1.0:
            raise ValueError("poisson_inflation must be >= 1")
        if self.analysis_period_hours <= 0:
            raise ValueError("analysis_period_hours must be positive")
        for name in ("saturation_flow", "cycle_seconds", "lost_time_seconds",
                     "min_green_fraction", "poisson_inflation", "analysis_period_hours"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite")
        if float(ming.sum()) > self.green_budget + 1e-12:
            raise ValueError(
                "minimum greens plus lost time exceed the cycle "
                f"({ming.sum():.3f} > {self.green_budget:.3f})"
            )

    def _key(self) -> tuple:
        return tuple(v.tobytes() if isinstance(v, np.ndarray) else v
                     for v in (getattr(self, f.name) for f in fields(self) if f.init))

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    @property
    def green_budget(self) -> float:
        return 1.0 - self.lost_time_seconds / self.cycle_seconds

    @property
    def n_phases(self) -> int:
        return len(self.phases)

    def phase_of(self) -> np.ndarray:
        """Phase index per movement."""
        out = np.empty(self.n_movements, dtype=int)
        for p, members in enumerate(self.phases):
            for m in members:
                out[m] = p
        return out

    @classmethod
    def default_for(cls, movements: tuple[str, ...] | list[str],
                    **overrides) -> "IntersectionConfig":
        """Standard four-phase structure for ``"<leg> <turn>"`` labels.

        Phase 0: N/S through + right; phase 1: N/S left; phase 2: E/W
        through + right; phase 3: E/W left.  Empty phases are dropped.
        """
        groups: dict[int, list[int]] = {0: [], 1: [], 2: [], 3: []}
        for idx, label in enumerate(movements):
            parts = str(label).split()
            if len(parts) != 2 or parts[0] not in ("NB", "SB", "EB", "WB") \
                    or parts[1] not in ("LT", "T", "RT"):
                raise ValueError(
                    f"cannot infer a phase for movement {label!r}; pass phases explicitly"
                )
            ns = parts[0] in ("NB", "SB")
            left = parts[1] == "LT"
            groups[(0 if ns else 2) + (1 if left else 0)].append(idx)
        phases = tuple(tuple(g) for g in groups.values() if g)
        return cls(phases=phases, n_movements=len(movements), **overrides)


def _coefficients(flow, saturation, ic: IntersectionConfig) -> tuple:
    """The green-free terms of ``_delay`` for movements with demand ``flow``:
    ``a = q / s``, ``u = max(1 - a, tiny)`` and ``w = 8 k I a / (s T)``.

    With them ``1 - min(1, X) g = max(u, 1 - g)`` for every ``g < 1``, and
    ``8 k I X / (c T) = w / g^2``.  ``u`` is positive so d1 is 0 at full
    green even when ``a >= 1``.
    """
    a = flow / saturation
    w = 8.0 * K_INCREMENTAL * I_FILTERING * a / (saturation * ic.analysis_period_hours)
    return a, np.maximum(1.0 - a, np.finfo(float).tiny), w


def _delay(coef: tuple, green, ic: IntersectionConfig):
    """HCM d1 + d2 [s/veh], elementwise over broadcastable arrays, from
    ``_coefficients`` and the green ratios."""
    a, u, w = coef
    h = 1.0 - green
    y = a / green - 1.0
    return ((0.5 * ic.cycle_seconds) * (h * h) / np.maximum(u, h)
            + (900.0 * ic.analysis_period_hours) * (y + np.sqrt(y * y + w / (green * green))))


def movement_delay(flow: float, saturation: float, green_fraction: float,
                   ic: IntersectionConfig) -> float:
    """Control delay [s/veh] for one movement at the given green ratio."""
    if not (0.0 < green_fraction <= 1.0):
        raise ValueError(f"green_fraction {green_fraction} outside (0, 1]")
    return float(_delay(_coefficients(np.float64(flow), saturation, ic), green_fraction, ic))


@dataclass(frozen=True)
class GreenSplits:
    """Per-phase green fractions plus a saturation diagnostic."""

    fractions: np.ndarray
    saturated: bool
    objective: float

    def __post_init__(self) -> None:
        fr = np.array(self.fractions, dtype=float)
        fr.setflags(write=False)
        object.__setattr__(self, "fractions", fr)


def _row_sum(a: np.ndarray) -> np.ndarray:
    """Row sums accumulated in column order.  ``sum`` may reassociate with
    the array's layout and alignment; this way a row's sum does not depend on
    the rows that share its batch."""
    return np.add.accumulate(a, axis=1)[:, -1] if a.shape[1] else np.zeros(a.shape[0])


def _golden(fn, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Golden-section minimum of ``fn`` on [lo, hi], one bracket per row.

    40 steps shrink each bracket to 0.618^40 (about 4e-9) of its width.
    From about 1e-8, an interior minimum's objective varies by less than its
    rounding, so rounding, not ``fn``, decides which side is kept and more
    steps gain nothing.  A minimum at a bound (a minimum green) keeps that
    bound as an end of the bracket, so the better of the last two points is
    then compared with both ends, and such a minimum is returned exactly.
    """
    a, b = lo, hi
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = fn(x1), fn(x2)
    for _ in range(40):
        left = f1 <= f2
        a = np.where(left, a, x1)
        b = np.where(left, x2, b)
        step = _GOLDEN * (b - a)
        x = np.where(left, b - step, a + step)
        fx = fn(x)
        x1, x2 = np.where(left, x, x2), np.where(left, x1, x)
        f1, f2 = np.where(left, fx, f2), np.where(left, f1, fx)
    left = f1 <= f2
    x, fx = np.where(left, x1, x2), np.where(left, f1, f2)
    for end in (a, b):
        f_end = fn(end)
        lower = f_end < fx
        x, fx = np.where(lower, end, x), np.where(lower, f_end, fx)
    return x, fx


def _solve_batch(mu: np.ndarray, ic: IntersectionConfig) -> tuple[np.ndarray, np.ndarray]:
    """Optimal greens (B, P) and objectives (B,) for demand rows ``mu`` (B, M).

    Every row runs the steps of ``green_splits`` on its own, so its result
    does not depend on the other rows; a row leaves the batch after the
    sweep that converges it.
    """
    if np.any(mu < 0):
        raise ValueError("demand must be non-negative")
    q, sat, mins = ic.poisson_inflation * mu, ic.saturation_flow, ic.min_green_fraction
    members, phase_of = [list(p) for p in ic.phases], ic.phase_of()
    free = ic.green_budget - float(mins.sum())
    crit = np.stack([(q[:, m] / sat[m]).max(axis=1, initial=0.0) for m in members], axis=1)
    total = crit.sum(axis=1, keepdims=True)
    # crit / total first: subnormal demands would lose the budget in free * crit.
    g = np.where(total > 0, mins + free * (crit / np.where(total > 0, total, 1.0)),
                 mins + free / ic.n_phases)

    def cost(demand, coef, green):
        """Flow-weighted delay summed over each row."""
        return _row_sum(demand * _delay(coef, green, ic))

    coef = _coefficients(q, sat, ic)
    obj = cost(q, coef, g[:, phase_of])
    active = np.arange(q.shape[0])
    for _ in range(_MAX_SWEEPS):
        sweep_start = obj[active]
        for p, r in itertools.combinations(range(ic.n_phases), 2):
            lo = -(g[active, r] - mins[r])
            hi = g[active, p] - mins[p]
            ok = hi - lo > 0
            rows, cols = active[ok], members[p] + members[r]
            qc, gc = q[np.ix_(rows, cols)], g[np.ix_(rows, phase_of[cols])]
            sign = np.where(phase_of[cols] == p, 1.0, -1.0)  # +delta: green from p to r
            coef_c = _coefficients(qc, sat[cols], ic)

            def pair(delta):
                return cost(qc, coef_c, gc - sign * delta[:, None])

            base = pair(np.zeros(rows.size))
            delta, val = _golden(pair, lo[ok], hi[ok])
            better = val < base - 1e-15 * np.maximum(1.0, np.abs(base))
            moved = rows[better]
            g[moved, p] -= delta[better]
            g[moved, r] += delta[better]
            obj[moved] += val[better] - base[better]
        done = sweep_start - obj[active] <= _SWEEP_TOL * np.maximum(1.0, np.abs(sweep_start))
        active = active[~done]
        if not active.size:
            break
    if active.size:
        warnings.warn(f"green splits: {active.size} of {q.shape[0]} rows still improving "
                      f"after {_MAX_SWEEPS} sweeps", RuntimeWarning, stacklevel=3)
    return g, cost(q, coef, g[:, phase_of])


def green_splits(mu: np.ndarray, ic: IntersectionConfig) -> GreenSplits:
    """Delay-minimizing green fractions for a period demand vector.

    Minimizes ``sum_m q_m * delay_m`` over the simplex ``sum_p g_p = budget``
    with ``g_p >= min_green_fraction[p]``, where ``q`` is the Poisson-inflated
    demand.  Solved by projected coordinate search: Webster-style proportional
    start, then repeated pairwise green exchanges (each a golden-section line
    search) until a full sweep no longer improves the objective.
    """
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (ic.n_movements,):
        raise ValueError(f"mu shape {mu.shape} != ({ic.n_movements},)")
    g, obj = _solve_batch(mu[None, :], ic)
    mins = ic.min_green_fraction
    g_max = ic.green_budget - (float(mins.sum()) - mins)
    saturated = np.any(ic.poisson_inflation * mu >= ic.saturation_flow * g_max[ic.phase_of()])
    return GreenSplits(fractions=g[0], saturated=bool(saturated), objective=float(obj[0]))


@dataclass(frozen=True)
class DelayTrace:
    """Per-interval delay rates [veh.h per h] and their day total [veh.h]."""

    rates: np.ndarray
    total: float

    def __post_init__(self) -> None:
        r = np.array(self.rates, dtype=float)
        r.setflags(write=False)
        object.__setattr__(self, "rates", r)


def _trace(day: np.ndarray, greens: np.ndarray, ic: IntersectionConfig) -> DelayTrace:
    """Rates from per-interval phase greens (T, P): measured flow times the
    per-vehicle delay at the Poisson-inflated flow, over 3600."""
    coef = _coefficients(ic.poisson_inflation * day, ic.saturation_flow, ic)
    d = _delay(coef, greens[:, ic.phase_of()], ic)
    rates = _row_sum(np.where(day > 0.0, day * d / 3600.0, 0.0))
    return DelayTrace(rates=rates, total=float(rates.sum() * ic.analysis_period_hours))


def simulate_day(day_grid: np.ndarray, plan, ic: IntersectionConfig) -> DelayTrace:
    """Evaluate a plan (nominal or predictive) over one day of measured flows.

    Splits are computed once per period from its parameter vector (clipped
    at zero); each interval contributes ``sum_m flow_m * d_m / 3600`` to the
    rate.  The total is exactly ``sum(rates) * analysis_period_hours``.  Rows
    missing from ``ic``'s memo are solved by ``lower_bound_delays``; a row's
    greens do not depend on the rows that share its batch, so a memo hit is
    exact.
    """
    day = np.asarray(day_grid, dtype=float)
    t_total = plan.n_intervals
    if day.shape != (t_total, ic.n_movements) or plan.params.shape[1:] != day.shape[1:]:
        raise ValueError(f"day grid shape {day.shape} or plan params shape "
                         f"{plan.params.shape} does not fit ({t_total}, {ic.n_movements})")
    lower_bound_delays((), ic, plans=(plan,))
    memo = ic._plan_greens
    g = np.stack([memo[row.tobytes()] for row in np.maximum(plan.params, 0.0)])
    return _trace(day, np.repeat(g, [b - a + 1 for a, b in plan.periods()], axis=0), ic)


def lower_bound_delays(day_grids, ic: IntersectionConfig, plans=()) -> list[DelayTrace]:
    """Clairvoyant benchmark of each day: per-interval optimal splits on the
    true flows.

    Also solves the distinct plan rows (clipped at zero) of ``plans`` that
    ``ic``'s memo lacks, and memoizes them.  Plan rows come first, then every
    day's measured rows; they are solved in chunks of ``_ROW_BUDGET`` rows,
    so memory stays bounded and each chunk pays the solver's per-call
    overhead once.  Plan rows recur (the nominal plan on every day, its rows
    in a segmentation-only plan); measured rows do not, so they are not
    memoized.  Every day grid is checked before anything is solved.
    """
    days = [np.asarray(d, dtype=float) for d in day_grids]
    for day in days:
        if day.ndim != 2 or day.shape[1] != ic.n_movements:
            raise ValueError(f"day grid must be (T, {ic.n_movements})")
    memo = ic._plan_greens
    missing = {}
    for plan in plans:
        for row in np.maximum(plan.params, 0.0):
            key = row.tobytes()
            if key not in memo:
                missing.setdefault(key, row)
    rows = np.concatenate([np.reshape(list(missing.values()), (-1, ic.n_movements)), *days])
    greens = [_solve_batch(rows[i:i + _ROW_BUDGET], ic)[0]
              for i in range(0, len(rows), _ROW_BUDGET)]
    g = np.concatenate(greens) if greens else np.empty((0, ic.n_phases))
    memo.update(zip(missing, g[:len(missing)].copy()))
    ends = np.cumsum([len(missing)] + [len(day) for day in days])
    return [_trace(day, g[a:b], ic) for day, a, b in zip(days, ends[:-1], ends[1:])]


def lower_bound_delay(day_grid: np.ndarray, ic: IntersectionConfig) -> DelayTrace:
    """Clairvoyant benchmark of one day: ``lower_bound_delays`` of that day."""
    (trace,) = lower_bound_delays((day_grid,), ic)
    return trace


SCENARIOS = ("nominal", "predictive_seg", "predictive_seg_params", "lower_bound")


@dataclass(frozen=True)
class DelayReport:
    """Scenario comparison for one day (or one averaged table)."""

    date: str
    traces: dict[str, DelayTrace]

    def totals(self) -> dict[str, float]:
        return {name: self.traces[name].total for name in SCENARIOS}

    def improvements(self) -> dict[str, float]:
        t = self.totals()
        return {
            "improvement_seg": t["nominal"] - t["predictive_seg"],
            "improvement_seg_params": t["nominal"] - t["predictive_seg_params"],
        }

    def to_table(self) -> dict:
        """Four scenario rows plus the two improvement rows."""
        out = {"date": self.date}
        out.update(self.totals())
        out.update(self.improvements())
        return out


def report_document(reports: list[DelayReport]) -> dict:
    """The ``delay_report.json`` body: one table row per report under
    ``days`` and, under ``mean``, each column's mean over those rows."""
    table = [r.to_table() for r in reports]
    mean = {k: float(np.mean([row[k] for row in table])) for k in table[0] if k != "date"}
    return {"days": table, "mean": {"date": "mean", **mean}}
