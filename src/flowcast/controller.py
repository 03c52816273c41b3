"""Predictive time-of-day switching.

Starting from a nominal plan, the controller walks through the day one
interval at a time.  Inside a search window around each nominal switch time
it predicts the remaining flows up to the end of the next period, evaluates
every admissible switch time ``u >= t`` in the window by the asymmetric fit
(current period scored against the committed parameter vector, remainder
either re-optimized or scored against the nominal next parameters), and
commits the switch the first time the argmin coincides with the current
interval, as it must at the window's last interval.  Committed decisions
are never revisited.
"""

from __future__ import annotations

import enum
import functools
import itertools
from dataclasses import astuple, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import artifact
from .delay import SCENARIOS, DelayReport, IntersectionConfig, lower_bound_delays, simulate_day
from .flowdata import FlowDataset, SplitSpec, grid_to_vector, split_at, vector_to_grid
from .pls import PlsModel, fit_kernels, gram, predict, pls_to_json, pls_from_json
from .segmentation import FitConfig, PeriodPlan, SegmentationPlan, fit_value, segment_cost


class ControllerMode(enum.Enum):
    """What the controller may adapt beyond the nominal plan."""

    SEGMENTATION_ONLY = "segmentation_only"          # move switch times, keep nominal params
    SEGMENTATION_AND_PARAMS = "segmentation_and_params"  # also refit upcoming params


@dataclass(frozen=True)
class ControllerConfig:
    window_halfwidth: int = 3
    mode: ControllerMode = ControllerMode.SEGMENTATION_AND_PARAMS
    clamp_predictions: bool = True

    def __post_init__(self) -> None:
        if self.window_halfwidth < 0:
            raise ValueError("window_halfwidth must be >= 0")
        if not isinstance(self.clamp_predictions, bool):
            raise TypeError("clamp_predictions must be true or false")


def segment_window(tau: int, halfwidth: int, n_intervals: int) -> list[int]:
    """Candidate switch times {tau-h, ..., tau+h} clipped to [1, T-1]."""
    lo = max(1, tau - halfwidth)
    hi = min(n_intervals - 1, tau + halfwidth)
    return list(range(lo, hi + 1))


def validate_windows(plan: SegmentationPlan, halfwidth: int) -> None:
    """Search windows of consecutive nominal switches must not overlap."""
    taus = plan.switch_times
    for a, b in zip(taus, taus[1:]):
        if b - a <= 2 * halfwidth:
            raise ValueError(
                f"switch windows overlap: taus {a} and {b} with halfwidth {halfwidth}"
            )


def t_opt(t: int, window: list[int], y_hat: np.ndarray, mu_current: np.ndarray,
          horizon_end: int, fit_cfg: FitConfig, mode: ControllerMode,
          mu_next: np.ndarray | None = None) -> int:
    """Best admissible switch time in ``window`` at decision time ``t``.

    ``y_hat`` is a grid whose rows ``t+1 .. horizon_end`` hold the predicted
    flows (earlier rows are ignored).  Candidates ``u < t`` are gone and are
    excluded; ties go to the smallest ``u``.  With an empty admissible set
    (``t`` past the window) the current interval is returned, which forces
    the switch.
    """
    feasible = [u for u in window if u >= t]
    if not feasible:
        return t
    if mode is ControllerMode.SEGMENTATION_ONLY and mu_next is None:
        raise ValueError("mu_next is required in SEGMENTATION_ONLY mode")
    best_u, best_cost = feasible[0], np.inf
    for u in feasible:
        cost = fit_value(y_hat, t + 1, u, mu_current, fit_cfg)
        if u + 1 <= horizon_end:
            if mode is ControllerMode.SEGMENTATION_AND_PARAMS:
                cost += segment_cost(y_hat, u + 1, horizon_end, fit_cfg)[0]
            else:
                cost += fit_value(y_hat, u + 1, horizon_end, mu_next, fit_cfg)
        if cost < best_cost:
            best_u, best_cost = u, cost
    return best_u


class PlsModelBank:
    """Fitted predictors keyed by (period index, decision time).

    The model stored under ``(i, t)`` maps measured flows over ``[1, t]`` to
    predicted flows over ``[t+1, tau_{i+1}]``, where ``tau_{i+1}`` is the end
    of period ``i+1`` in the nominal plan (the last period ends at T).
    """

    def __init__(self, models: dict[tuple[int, int], PlsModel],
                 horizons: dict[int, int], n_movements: int):
        for (i, t), model in models.items():
            horizon = horizons.get(i)
            if model.split is None or astuple(model.split) != (t, t + 1, horizon, 1, 1):
                raise ValueError(f"model under key ({i}, {t}) has a mismatched split spec")
            dz, dy, n = n_movements * t, n_movements * (horizon - t), model.n_components
            if (model.predictor_loadings.shape, model.predicted_loadings.shape,
                    model.mean_z.shape, model.mean_y.shape) != ((dz, n), (dy, n), (dz,), (dy,)):
                raise ValueError(f"model under key ({i}, {t}) has shapes unfit for its split")
        self.models = models
        self.horizons = dict(horizons)
        self.n_movements = n_movements

    @property
    def n_models(self) -> int:
        return len(self.models)

    def predict_window(self, period: int, t: int, horizon_end: int,
                       measured_grid: np.ndarray) -> np.ndarray:
        """Predicted (horizon_end - t, M) grid for intervals t+1 .. horizon_end."""
        if (period, t) not in self.models or self.horizons[period] != horizon_end:
            raise ValueError(f"model bank has no entry for period {period}, time {t} "
                             f"and horizon {horizon_end}")
        y = predict(self.models[(period, t)], grid_to_vector(measured_grid))
        return vector_to_grid(y, horizon_end - t, self.n_movements)

    def prediction_id(self, period: int, t: int) -> str:
        return f"pls:{period}:{t}"

    def to_json(self, path: str | Path | None = None,
                manifest_hash: str | None = None) -> dict:
        doc = artifact.document("pls_model_bank", {
            "n_movements": self.n_movements,
            "horizons": {str(i): h for i, h in self.horizons.items()},
            "models": [
                {"period": i, "time": t, "model": pls_to_json(m)}
                for (i, t), m in sorted(self.models.items())
            ],
        }, manifest_hash)
        return artifact.write(doc, path, compact=True)

    @classmethod
    def from_json(cls, source: str | Path | dict) -> "PlsModelBank":
        doc = artifact.read(source, "pls_model_bank")
        models = {}
        for e in artifact.typed(doc, "models", list, "a list"):
            key = (artifact.typed(e, "period", int, "an integer"),
                   artifact.typed(e, "time", int, "an integer"))
            models[key] = pls_from_json(artifact.typed(e, "model", dict, "an object"))
        horizons = artifact.typed(doc, "horizons", dict, "an object")
        horizons = {int(k): artifact.typed(horizons, k, int, "an integer") for k in horizons}
        return cls(models, horizons, artifact.typed(doc, "n_movements", int, "an integer"))

    def check_fits(self, plan: SegmentationPlan, halfwidth: int, n_movements: int) -> None:
        """Raise ``ValueError`` unless this bank holds exactly the models and
        horizons ``run_controller`` needs for ``plan`` and ``halfwidth``."""
        if (self.n_movements, self.horizons, sorted(self.models)) != (
                n_movements, plan_horizons(plan), bank_keys(plan, halfwidth)):
            raise ValueError("bank does not fit the plan's switch windows or the data")


class FixedProfileBank:
    """Prediction oracle that always returns slices of one fixed day profile.

    Useful for perfect-foresight runs (pass the measured day) and for
    consistency checks (pass the nominal mean profile).
    """

    def __init__(self, profile_grid: np.ndarray):
        self.profile = np.asarray(profile_grid, dtype=float)

    def predict_window(self, period: int, t: int, horizon_end: int,
                       measured_grid: np.ndarray) -> np.ndarray:
        return self.profile[t:horizon_end]

    def prediction_id(self, period: int, t: int) -> str:
        return f"profile:{period}:{t}"


def plan_horizons(plan: SegmentationPlan) -> dict[int, int]:
    """End interval of period i+1 for each switch index i (1-based)."""
    taus = list(plan.switch_times) + [plan.n_intervals]
    return {i: taus[i] for i in range(1, plan.n_periods)}


def bank_keys(plan: SegmentationPlan, halfwidth: int) -> list[tuple[int, int]]:
    """Sorted (switch index, decision time) of every model the controller may use."""
    return [(i, t) for i, tau in enumerate(plan.switch_times, start=1)
            for t in segment_window(tau, halfwidth, plan.n_intervals)]


def _split_loadings(xc: np.ndarray, t: int, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(Zc^T w, Yc^T w)`` for the split at ``t`` of the centered grid ``xc``
    (D days, h intervals, M movements), from one product of the grid with the
    (D, n) scores ``w``; loadings are movement-major, like ``split_at``'s
    columns."""
    both = np.einsum("itm,in->nmt", xc, w)
    return tuple(np.ascontiguousarray(part.reshape(len(part), -1).T)
                 for part in (both[:, :, :t], both[:, :, t:]))


# Revision of the arithmetic ``build_model_bank`` fits with, part of the
# bank-cache key: a cache fitted by other arithmetic is refitted rather than
# read back with its bits (caches keyed without it are revision 1).  Raise it
# whenever a fit's bits move.
BANK_FIT_REVISION = 2


def build_model_bank(ds: FlowDataset, plan: SegmentationPlan, cfg: ControllerConfig,
                     n_components: int) -> PlsModelBank:
    """Fit one predictor per (nominal switch, decision time in its window).

    For a plan with S periods and window width W this is (S-1) * W fits; each
    model predicts ``[t+1, tau_{i+1}]`` from measurements ``[1, t]`` at raw
    resolution, as ``fit_pls_kernel(*split_at(ds, spec))`` would.  The splits
    share columns, so the (D, M, T) flow grid is centered once and its Gram
    is summed once, block by block between the bank's distinct decision times
    and horizons: a split's kernels are sums of blocks, and each model's
    loadings come from one product of the centered grid with its scores.
    """
    validate_windows(plan, cfg.window_halfwidth)
    if plan.n_intervals != ds.intervals_per_day:
        raise ValueError("plan and dataset disagree on intervals per day")
    horizons = plan_horizons(plan)
    keys = bank_keys(plan, cfg.window_halfwidth)
    d, m, n_intervals = ds.n_days, ds.n_movements, ds.intervals_per_day
    grid = ds.flows.reshape(d, m, n_intervals)
    mean = grid.mean(axis=0)
    by_interval = np.ascontiguousarray((grid - mean).transpose(0, 2, 1))
    cuts = sorted({0, *horizons.values(), *(t for _, t in keys)})
    blocks = [gram(by_interval[:, a:b].reshape(d, -1)) for a, b in zip(cuts, cuts[1:])]
    upto = dict(zip(cuts[1:], itertools.accumulate(blocks)))  # kernel of [1, cut]
    at = {cut: j for j, cut in enumerate(cuts)}
    models: dict[tuple[int, int], PlsModel] = {}
    for i, t in keys:
        h = horizons[i]
        spec = SplitSpec(cutoff_index=t, predict_from=t + 1, predict_to=h)
        try:
            models[(i, t)] = fit_kernels(
                upto[t], sum(blocks[at[t]:at[h]]), n_components,
                functools.partial(_split_loadings, by_interval[:, :h], t),
                mean[:, :t].ravel(), mean[:, t:h].ravel(), spec)
        except Exception as exc:
            raise ValueError(
                f"model fit failed for period {i}, decision time {t}: {exc}"
            ) from exc
    return PlsModelBank(models, horizons, ds.n_movements)


@dataclass(frozen=True)
class PredictivePlan(PeriodPlan):
    """Controller output: realized switch times, parameters, and a decision log."""

    mode: ControllerMode
    decision_log: tuple[dict, ...] = field(default=())
    interval_minutes: int | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(self, "decision_log", tuple(self.decision_log))


def run_controller(nominal: SegmentationPlan, day_grid: np.ndarray, bank,
                   cfg: ControllerConfig, fit_cfg: FitConfig) -> PredictivePlan:
    """Run the online switching loop over one day of measured flows.

    ``bank`` provides ``predict_window(period, t, horizon_end, measured)`` and
    ``prediction_id``.  The first period's parameters are taken from the
    nominal plan as-is.  Predictions are clamped at zero before evaluation
    when the config says so.  Deterministic: equal inputs give equal output.
    """
    day = np.asarray(day_grid, dtype=float)
    t_total = nominal.n_intervals
    m = nominal.params.shape[1]
    if day.shape != (t_total, m):
        raise ValueError(f"day grid shape {day.shape} != ({t_total}, {m})")
    validate_windows(nominal, cfg.window_halfwidth)

    committed: list[int] = []
    params: list[np.ndarray] = [np.array(nominal.params[0])]
    log: list[dict] = []
    for i, horizon in plan_horizons(nominal).items():
        window = segment_window(nominal.switch_times[i - 1], cfg.window_halfwidth, t_total)
        for t in window:
            y_hat = np.asarray(bank.predict_window(i, t, horizon, day[:t]), dtype=float)
            if y_hat.shape != (horizon - t, m):
                raise ValueError(
                    f"bank returned shape {y_hat.shape}, expected ({horizon - t}, {m})"
                )
            y_abs = np.zeros((horizon, m))
            y_abs[t:] = np.maximum(y_hat, 0.0) if cfg.clamp_predictions else y_hat
            u = t_opt(t, window, y_abs, params[i - 1], horizon, fit_cfg, cfg.mode,
                      mu_next=np.asarray(nominal.params[i]))
            log.append({
                "time": t,
                "period": i,
                "t_opt": u,
                "prediction": bank.prediction_id(i, t),
            })
            if u == t:  # always so at the window's last interval
                committed.append(t)
                if cfg.mode is ControllerMode.SEGMENTATION_AND_PARAMS:
                    params.append(segment_cost(y_abs, t + 1, horizon, fit_cfg)[1])
                else:
                    params.append(np.array(nominal.params[i]))
                break

    return PredictivePlan(
        n_periods=nominal.n_periods,
        n_intervals=t_total,
        switch_times=tuple(committed),
        params=np.vstack(params),
        mode=cfg.mode,
        decision_log=tuple(log),
        interval_minutes=nominal.interval_minutes,
    )


def evaluate_days(ds: FlowDataset, indices: list[int], nominal: SegmentationPlan, bank,
                  cfg: ControllerConfig, fit_cfg: FitConfig, ic: IntersectionConfig
                  ) -> list[tuple[DelayReport, PredictivePlan, PredictivePlan]]:
    """Score each day in ``indices`` under every delay scenario.

    Runs the controller in both modes (``cfg`` with its ``mode`` replaced)
    on every day first.  One ``lower_bound_delays`` call then solves every
    plan row ``ic``'s memo lacks together with the clairvoyant lower bounds
    of all days, so simulating the nominal plan and both predictive plans
    only reads the memo.  Returns ``(report, seg-only plan, seg+params
    plan)`` per day, in the order of ``indices``.
    """
    mode_cfgs = [replace(cfg, mode=mode) for mode in (ControllerMode.SEGMENTATION_ONLY,
                                                      ControllerMode.SEGMENTATION_AND_PARAMS)]
    days = [ds.day_grid(idx) for idx in indices]
    plans = [[run_controller(nominal, day, bank, c, fit_cfg) for c in mode_cfgs]
             for day in days]
    bounds = lower_bound_delays(days, ic, plans=[nominal, *itertools.chain(*plans)])
    results = []
    for idx, day, day_plans, bound in zip(indices, days, plans, bounds):
        traces = [simulate_day(day, p, ic) for p in (nominal, *day_plans)] + [bound]
        results.append((DelayReport(ds.days[idx].date, dict(zip(SCENARIOS, traces))),
                        *day_plans))
    return results


def predictive_plan_to_json(plan: PredictivePlan, path: str | Path | None = None,
                            manifest_hash: str | None = None, **extra) -> dict:
    """Serialize a controller run (decision log included)."""
    doc = artifact.document("predictive_plan", {
        **plan._json_fields(), "mode": plan.mode.value,
        "decision_log": list(plan.decision_log), **extra}, manifest_hash)
    return artifact.write(doc, path)
