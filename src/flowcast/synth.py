"""Deterministic synthetic flow datasets with planted low-rank structure.

Each day is ``mean + sum_i w_i * q_i + noise`` clamped at zero, with
orthonormal planted components ``q_i`` and per-day weights ``w_i``.  Every
component carries both a morning and an evening signature, so one weight
moves both ends of the day together and the rest of a day is genuinely
predictable from its morning.  Days marked as anomalies get their full
weight vector pinned to specified multiples of the per-component weight
scales (e.g. a multiplier of -3 on the commute component makes a snow-day).

Reproducibility: all randomness comes from ``numpy.random.default_rng(seed)``
(the PCG64 generator, stable across platforms) and draws happen in a fixed
documented order (mean amplitudes, component jitter, weights, noise).  Flows
are kept at exact binary64 precision — no rounding — and the CSV writer uses
the shortest round-trip decimal form, so noiseless datasets stay exactly
low-rank even after a save/load cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date as _date, timedelta

import numpy as np

from . import artifact
from .flowdata import DayRecord, FlowDataset, divide_day, grid_to_vector

_LEGS = ("NB", "SB", "EB", "WB")
_TURNS = ("LT", "T", "RT")
# Through movements carry most of the volume; turns are lighter.
_TURN_FACTOR = {"LT": 0.45, "T": 1.0, "RT": 0.55}

# Weight standard deviations per planted component (vph), geometric tail
# beyond the fourth component.
_BASE_WEIGHT_SCALES = (340.0, 240.0, 190.0, 150.0)


def movement_labels(n_movements: int) -> tuple[str, ...]:
    labels = [f"{leg} {turn}" for leg in _LEGS for turn in _TURNS]
    if n_movements <= len(labels):
        return tuple(labels[:n_movements])
    extra = [f"M{i:02d}" for i in range(len(labels) + 1, n_movements + 1)]
    return tuple(labels + extra)


def weight_scales(n_components: int) -> np.ndarray:
    scales = list(_BASE_WEIGHT_SCALES[:n_components])
    while len(scales) < n_components:
        scales.append(scales[-1] * 0.75)
    return np.asarray(scales)


@dataclass(frozen=True)
class SynthConfig:
    """Generator settings.

    ``anomaly_days`` entries are ``(day_index, multipliers)`` with one
    multiplier per planted component; that day's weights become
    ``multiplier_i * weight_scale_i`` instead of random draws.
    """

    seed: int = 0
    n_days: int = 132
    intervals_per_day: int = 96
    n_movements: int = 12
    n_components: int = 4
    noise_sigma: float = 10.0
    anomaly_days: tuple[tuple[int, tuple[float, ...]], ...] = ()
    start_date: str = "2024-01-01"

    def __post_init__(self) -> None:
        # Every setting is checked here: a wrong type is a TypeError, a bad
        # value a ValueError, each naming it.
        for name in ("seed", "n_days", "n_movements", "n_components"):
            if not artifact.is_a(getattr(self, name), int):
                raise TypeError(f"{name} must be an integer")
        if not artifact.is_a(self.noise_sigma, (int, float)):
            raise TypeError("noise_sigma must be a number")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.n_days < 2 or self.n_movements < 1:
            raise ValueError("need n_days >= 2 and n_movements >= 1")
        divide_day(self.intervals_per_day, "intervals_per_day")
        if not (1 <= self.n_components <= min(self.n_days - 1, 8)):
            raise ValueError("n_components outside [1, min(n_days - 1, 8)]")
        if not 0 <= self.noise_sigma < np.inf:
            raise ValueError("noise_sigma must be finite and >= 0")
        try:
            DayRecord(self.start_date)
            _date.fromisoformat(self.start_date) + timedelta(days=self.n_days - 1)
        except (ValueError, OverflowError) as exc:
            raise ValueError(f"start_date: {exc}") from None
        norm = []
        for day_index, mults in self.anomaly_days:
            if not artifact.is_a(day_index, int) or not 0 <= day_index < self.n_days:
                raise ValueError(f"anomaly_days: day index {day_index!r} is not an "
                                 f"integer in [0, {self.n_days})")
            mults = tuple(float(v) for v in mults)
            if len(mults) != self.n_components or not np.isfinite(mults).all():
                raise ValueError(f"anomaly_days: day {day_index} needs one finite "
                                 f"multiplier per component")
            norm.append((day_index, mults))
        object.__setattr__(self, "anomaly_days", tuple(norm))

    @property
    def interval_minutes(self) -> int:
        return divide_day(self.intervals_per_day, "intervals_per_day")


@dataclass(frozen=True)
class SynthTruth:
    """Planted ground truth: mean profile, orthonormal components, weights."""

    mean: np.ndarray
    components: np.ndarray
    weights: np.ndarray
    weight_scales: np.ndarray

    def to_json_dict(self) -> dict:
        return artifact.document("synth_ground_truth", {
            "mean": self.mean.tolist(),
            "components": self.components.tolist(),
            "weights": self.weights.tolist(),
            "weight_scales": self.weight_scales.tolist(),
        })


def _bump(hours: np.ndarray, center: float, width: float) -> np.ndarray:
    return np.exp(-0.5 * ((hours - center) / width) ** 2)


def _plateau(hours: np.ndarray) -> np.ndarray:
    """Smooth daytime activity level: up around 06:30, down around 21:30."""
    rise = 1.0 / (1.0 + np.exp(-(hours - 6.5) / 0.7))
    fall = 1.0 / (1.0 + np.exp((hours - 21.5) / 1.0))
    return rise * fall


def _mean_grid(cfg: SynthConfig, hours: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    t, m = cfg.intervals_per_day, cfg.n_movements
    labels = movement_labels(m)
    grid = np.empty((t, m))
    base = rng.uniform(40.0, 110.0, size=m)
    day_amp = rng.uniform(130.0, 190.0, size=m)
    am_amp = rng.uniform(260.0, 420.0, size=m)
    pm_amp = rng.uniform(280.0, 460.0, size=m)
    for j, label in enumerate(labels):
        turn = label.split()[-1] if " " in label else "T"
        factor = _TURN_FACTOR.get(turn, 0.8)
        grid[:, j] = factor * (
            base[j]
            + day_amp[j] * _plateau(hours)
            + am_amp[j] * _bump(hours, 7.6, 1.1)
            + pm_amp[j] * _bump(hours, 17.2, 1.4)
        )
    return grid


def _component_templates(cfg: SynthConfig, hours: np.ndarray,
                         rng: np.random.Generator) -> np.ndarray:
    """Raw (un-orthogonalized) component grids, shape (T, M, k).

    Template shapes: commuter peaks (AM+PM on opposing through movements),
    school run (narrow AM + mid-afternoon spikes), evening activity (broad PM
    bump with a small AM shoulder), midday (lunch bump with an AM shoulder).
    The shoulders keep every component identifiable from morning data.
    """
    t, m, k = cfg.intervals_per_day, cfg.n_movements, cfg.n_components
    labels = movement_labels(m)
    raw = np.zeros((t, m, k))
    # Component strength tracks each movement's volume (turn factors), so
    # light movements fluctuate proportionally less and never clip at zero.
    volume = np.array([
        _TURN_FACTOR.get(lab.split()[-1] if " " in lab else "T", 0.8) for lab in labels
    ])
    inbound = volume * np.array([
        1.0 if lab.startswith(("NB", "WB")) else 0.55 for lab in labels
    ])
    outbound = volume * np.array([
        1.0 if lab.startswith(("SB", "EB")) else 0.55 for lab in labels
    ])
    ns = volume * np.array([1.0 if lab.startswith(("NB", "SB")) else 0.35 for lab in labels])
    broad = volume.copy()

    shapes = [
        np.outer(_bump(hours, 7.5, 1.0), inbound) + np.outer(_bump(hours, 17.0, 1.2), outbound),
        np.outer(_bump(hours, 7.6, 0.35), ns) + np.outer(_bump(hours, 15.5, 0.4), ns),
        np.outer(0.2 * _bump(hours, 8.5, 1.0) + _bump(hours, 19.5, 1.5), broad),
        np.outer(0.25 * _bump(hours, 9.0, 0.8) + _bump(hours, 12.5, 1.3), broad),
    ]
    for i in range(k):
        if i < len(shapes):
            raw[:, :, i] = shapes[i]
        else:
            center = rng.uniform(10.0, 20.0)
            width = rng.uniform(0.8, 2.0)
            weights = rng.uniform(0.3, 1.0, size=m)
            raw[:, :, i] = np.outer(
                0.25 * _bump(hours, 8.0, 1.0) + _bump(hours, center, width), weights
            )
    return raw


def generate(cfg: SynthConfig) -> tuple[FlowDataset, SynthTruth]:
    """Build the dataset and its planted ground truth."""
    rng = np.random.default_rng(cfg.seed)
    t, m, d, k = cfg.intervals_per_day, cfg.n_movements, cfg.n_days, cfg.n_components
    hours = (np.arange(t) + 0.5) * cfg.interval_minutes / 60.0

    mean_vec = grid_to_vector(_mean_grid(cfg, hours, rng))

    raw = _component_templates(cfg, hours, rng)
    raw_mat = raw.transpose(1, 0, 2).reshape(t * m, k)  # movement-major rows
    q, _ = np.linalg.qr(raw_mat)
    for i in range(k):  # sign convention: largest-magnitude entry positive
        peak = int(np.argmax(np.abs(q[:, i])))
        if q[peak, i] < 0:
            q[:, i] = -q[:, i]

    scales = weight_scales(k)
    weights = rng.standard_normal((d, k)) * scales
    for day_index, mults in cfg.anomaly_days:
        weights[day_index] = np.asarray(mults) * scales

    clean = mean_vec + weights @ q.T
    if cfg.noise_sigma > 0:
        flows = clean + rng.standard_normal((d, t * m)) * cfg.noise_sigma
    else:
        flows = clean
    flows = np.maximum(flows, 0.0)

    start = _date.fromisoformat(cfg.start_date)
    ds = FlowDataset(
        days=tuple(DayRecord((start + timedelta(days=i)).isoformat()) for i in range(d)),
        flows=flows,
        interval_minutes=cfg.interval_minutes,
        movements=movement_labels(m),
    )
    truth = SynthTruth(mean=mean_vec, components=q, weights=weights,
                       weight_scales=scales)
    return ds, truth
