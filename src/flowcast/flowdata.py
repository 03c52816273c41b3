"""Flow data model: ingestion, day filtering, centering, and predictor/target splits.

A dataset holds one row per day.  Each row concatenates per-movement blocks of
length T (the number of intervals per day), i.e. column ``m * T + t`` is the
flow of movement ``m`` during interval ``t + 1``.  Flows are vehicles per hour
averaged over one recording interval.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from datetime import date as _date
from pathlib import Path

import numpy as np

from . import artifact

MINUTES_PER_DAY = 1440

DOW_TAGS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")

CSV_HEADER = ("date", "movement", "interval_index", "flow_vph")


class ValidationError(ValueError):
    """Input data violates the flow-data contract."""


def day_of_week_tag(date_label: str) -> str:
    """Return the three-letter weekday tag ("Mon".."Sun") for an ISO date."""
    try:
        d = _date.fromisoformat(date_label)
    except ValueError as exc:
        raise ValidationError(f"bad date label {date_label!r}: {exc}") from exc
    return DOW_TAGS[d.weekday()]


def vector_to_grid(x: np.ndarray, intervals_per_day: int, n_movements: int) -> np.ndarray:
    """Reshape a day vector (movement-major blocks) to a (T, M) grid."""
    x = np.asarray(x, dtype=float)
    if x.size != intervals_per_day * n_movements:
        raise ValueError(
            f"day vector has {x.size} entries, expected {intervals_per_day * n_movements}"
        )
    return x.reshape(n_movements, intervals_per_day).T


def grid_to_vector(grid: np.ndarray) -> np.ndarray:
    """Flatten a (T, M) grid back to the movement-major day vector."""
    return np.asarray(grid, dtype=float).T.reshape(-1)


@dataclass(frozen=True)
class DayRecord:
    """One recorded day: ISO date label plus derived weekday tag."""

    date: str
    day_of_week: str


@dataclass(frozen=True)
class FlowDataset:
    """Immutable matrix of daily flow profiles.

    Attributes
    ----------
    days : tuple of DayRecord, sorted by date
    flows : (D, T*M) float array, non-negative and finite
    interval_minutes : length of one recording interval
    movements : movement labels, one per column block
    """

    days: tuple[DayRecord, ...]
    flows: np.ndarray
    interval_minutes: int
    movements: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "days", tuple(self.days))
        object.__setattr__(self, "movements", tuple(str(m) for m in self.movements))
        flows = np.array(self.flows, dtype=float)
        if self.interval_minutes < 1 or MINUTES_PER_DAY % self.interval_minutes != 0:
            raise ValidationError(
                f"interval_minutes={self.interval_minutes} does not divide a day"
            )
        t = MINUTES_PER_DAY // self.interval_minutes
        if flows.ndim != 2 or flows.shape != (len(self.days), t * len(self.movements)):
            raise ValidationError(
                f"flow matrix shape {flows.shape} does not match "
                f"{len(self.days)} days x {t}*{len(self.movements)} columns"
            )
        if not np.all(np.isfinite(flows)):
            raise ValidationError("flow matrix contains non-finite entries")
        if np.any(flows < 0):
            raise ValidationError("flow matrix contains negative entries")
        if len(self.days) == 0:
            raise ValidationError("dataset has no days")
        flows.setflags(write=False)
        object.__setattr__(self, "flows", flows)

    @property
    def n_days(self) -> int:
        return len(self.days)

    @property
    def n_movements(self) -> int:
        return len(self.movements)

    @property
    def intervals_per_day(self) -> int:
        return MINUTES_PER_DAY // self.interval_minutes

    def day_index(self, date_label: str) -> int:
        for i, rec in enumerate(self.days):
            if rec.date == date_label:
                return i
        raise ValidationError(f"date {date_label!r} not in dataset")

    def day_vector(self, index: int) -> np.ndarray:
        return self.flows[index]

    def day_grid(self, index: int) -> np.ndarray:
        """Day ``index`` as a (T, M) grid: row t is interval t+1 across movements."""
        return vector_to_grid(self.flows[index], self.intervals_per_day, self.n_movements)


@dataclass(frozen=True)
class CenteredMatrix:
    """A dataset together with its day-mean profile and centered residuals."""

    base: FlowDataset
    mean: np.ndarray
    residuals: np.ndarray

    def __post_init__(self) -> None:
        mean = np.array(self.mean, dtype=float)
        resid = np.array(self.residuals, dtype=float)
        mean.setflags(write=False)
        resid.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "residuals", resid)


@dataclass(frozen=True)
class SplitSpec:
    """Where to cut a day into a predictor window and a predicted window.

    ``cutoff_index`` is the last observed interval (1-based).  The predicted
    window is ``[predict_from, predict_to]`` inclusive.  Strides aggregate
    consecutive intervals by their mean (stride 1 keeps raw resolution); each
    stride must divide its window length exactly.
    """

    cutoff_index: int
    predict_from: int
    predict_to: int
    predictor_stride: int = 1
    predicted_stride: int = 1

    def __post_init__(self) -> None:
        if self.cutoff_index < 1:
            raise ValidationError("cutoff_index must be >= 1")
        if not (self.cutoff_index < self.predict_from <= self.predict_to):
            raise ValidationError(
                "need cutoff_index < predict_from <= predict_to, got "
                f"{self.cutoff_index}, {self.predict_from}, {self.predict_to}"
            )
        if self.predictor_stride < 1 or self.predicted_stride < 1:
            raise ValidationError("strides must be >= 1")

    def validate_for(self, intervals_per_day: int) -> None:
        if self.predict_to > intervals_per_day:
            raise ValidationError(
                f"predict_to={self.predict_to} exceeds {intervals_per_day} intervals per day"
            )
        if self.cutoff_index % self.predictor_stride != 0:
            raise ValidationError(
                f"predictor_stride={self.predictor_stride} does not divide "
                f"cutoff_index={self.cutoff_index}"
            )
        width = self.predict_to - self.predict_from + 1
        if width % self.predicted_stride != 0:
            raise ValidationError(
                f"predicted_stride={self.predicted_stride} does not divide the "
                f"predicted window of length {width}"
            )

    @property
    def predictor_width(self) -> int:
        return self.cutoff_index // self.predictor_stride

    @property
    def predicted_width(self) -> int:
        return (self.predict_to - self.predict_from + 1) // self.predicted_stride


def _parse_rows(path: Path, intervals_per_day: int):
    """Parse and validate the long-format CSV, returning per-day cell maps."""
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


def load_csv(
    path: str | Path,
    interval_minutes: int,
    movement_order: list[str] | tuple[str, ...] | None = None,
) -> FlowDataset:
    """Load the long-format CSV ``date,movement,interval_index,flow_vph``.

    Days missing any (movement, interval) cell are dropped with a warning.
    Duplicate cells, negative flows, and malformed rows raise
    :class:`ValidationError` with the offending line number.  Lines starting
    with ``#`` are ignored.  Movements are ordered lexicographically unless an
    explicit ``movement_order`` is given (e.g. from a dataset sidecar), so the
    result does not depend on row order in the file.
    """
    path = Path(path)
    if interval_minutes < 1 or MINUTES_PER_DAY % interval_minutes != 0:
        raise ValidationError(f"interval_minutes={interval_minutes} does not divide a day")
    intervals_per_day = MINUTES_PER_DAY // interval_minutes

    cells, observed = _parse_rows(path, intervals_per_day)

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
    days = tuple(DayRecord(d, day_of_week_tag(d)) for d in dates)
    return FlowDataset(days=days, flows=flows, interval_minutes=interval_minutes,
                       movements=movements)


def save_dataset(
    ds: FlowDataset,
    csv_path: str | Path,
    meta_path: str | Path,
    manifest_hash: str | None = None,
) -> None:
    """Write a dataset as canonical CSV plus a JSON metadata sidecar."""
    csv_path, meta_path = Path(csv_path), Path(meta_path)
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
                    # repr of a float is its shortest round-trip decimal form,
                    # so load_csv recovers the exact binary64 value.
                    writer.writerow(
                        [rec.date, movement, k + 1, repr(float(row[m * t + k]))]
                    )
    meta = artifact.document(None, {
        "interval_minutes": ds.interval_minutes,
        "movements": list(ds.movements),
        "days": [{"date": r.date, "day_of_week": r.day_of_week} for r in ds.days],
    }, manifest_hash)
    artifact.write(meta, meta_path)


def load_dataset(csv_path: str | Path, meta_path: str | Path) -> FlowDataset:
    """Load a dataset written by :func:`save_dataset`, honoring sidecar ordering."""
    meta = artifact.read(meta_path, None)
    ds = load_csv(csv_path, int(meta["interval_minutes"]),
                  movement_order=meta["movements"])
    sidecar_dates = [d["date"] for d in meta["days"]]
    if sidecar_dates != [r.date for r in ds.days]:
        raise ValidationError("sidecar day list does not match the CSV contents")
    return ds


def filter_days(ds: FlowDataset, allowed: set[str] | frozenset[str]) -> FlowDataset:
    """Keep only days whose weekday tag is in ``allowed`` (e.g. {"Mon",..,"Thu"})."""
    if not allowed:
        raise ValidationError("allowed day-of-week set is empty")
    unknown = set(allowed) - set(DOW_TAGS)
    if unknown:
        raise ValidationError(f"unknown day-of-week tags: {sorted(unknown)}")
    keep = [i for i, rec in enumerate(ds.days) if rec.day_of_week in allowed]
    if not keep:
        raise ValidationError("no days match filter")
    return FlowDataset(
        days=tuple(ds.days[i] for i in keep),
        flows=ds.flows[keep],
        interval_minutes=ds.interval_minutes,
        movements=ds.movements,
    )


def mean_profile(ds: FlowDataset) -> np.ndarray:
    """Entrywise mean day profile over all days."""
    return ds.flows.mean(axis=0)


def center(ds: FlowDataset) -> CenteredMatrix:
    """Subtract the mean profile from every day.  Requires at least two days."""
    if ds.n_days < 2:
        raise ValidationError("centering requires at least 2 days")
    mean = mean_profile(ds)
    return CenteredMatrix(base=ds, mean=mean, residuals=ds.flows - mean)


def _aggregate(block: np.ndarray, stride: int) -> np.ndarray:
    """Mean-pool consecutive intervals: (D, M, W) -> (D, M, W // stride)."""
    if stride == 1:
        return block
    d, m, w = block.shape
    return block.reshape(d, m, w // stride, stride).mean(axis=3)


def _split_grid(grid: np.ndarray, spec: SplitSpec) -> tuple[np.ndarray, np.ndarray]:
    """Split (D, M, T) day grids into (D, dim_z) predictor and (D, dim_y)
    predicted rows, movement-major, each window mean-aggregated by its stride."""
    z = _aggregate(grid[:, :, : spec.cutoff_index], spec.predictor_stride)
    y = _aggregate(
        grid[:, :, spec.predict_from - 1 : spec.predict_to], spec.predicted_stride
    )
    return z.reshape(len(grid), -1), y.reshape(len(grid), -1)


def split_at(ds: FlowDataset, spec: SplitSpec) -> tuple[np.ndarray, np.ndarray]:
    """Split every day into predictor matrix Z and predicted matrix Y.

    Z rows hold intervals ``[1, cutoff_index]`` per movement (mean-aggregated
    by ``predictor_stride``); Y rows hold ``[predict_from, predict_to]``
    aggregated by ``predicted_stride``.  Column blocks stay movement-major.
    """
    spec.validate_for(ds.intervals_per_day)
    grid = ds.flows.reshape(ds.n_days, ds.n_movements, ds.intervals_per_day)
    return _split_grid(grid, spec)


def split_day_vector(x: np.ndarray, spec: SplitSpec, intervals_per_day: int,
                     n_movements: int) -> tuple[np.ndarray, np.ndarray]:
    """Apply the same split to one day vector, returning (z, y) sample vectors."""
    spec.validate_for(intervals_per_day)
    grid = np.asarray(x, dtype=float).reshape(1, n_movements, intervals_per_day)
    z, y = _split_grid(grid, spec)
    return z[0], y[0]
