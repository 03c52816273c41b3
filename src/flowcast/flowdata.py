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
from itertools import compress, islice, repeat
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import artifact

MINUTES_PER_DAY = 1440

DOW_TAGS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")

CSV_HEADER = ("date", "movement", "interval_index", "flow_vph")


class ValidationError(ValueError):
    """Input data violates the flow-data contract."""


def day_of_week_tag(date_label: str) -> str:
    """Return the three-letter weekday tag ("Mon".."Sun") for an ISO date
    written YYYY-MM-DD."""
    try:
        d = _date.fromisoformat(date_label)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"bad date label {date_label!r}: {exc}") from exc
    if d.isoformat() != date_label:
        # fromisoformat also reads forms such as 20240101 or 2024-W01-1,
        # which sort differently from the dates they name.
        raise ValidationError(f"bad date label {date_label!r}: not YYYY-MM-DD")
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


def _check_movement_labels(labels) -> None:
    """Reject labels that ``save_dataset`` could write but ``load_csv`` could
    not read back: it strips fields and reads one row per line."""
    seen: set[str] = set()
    for label in labels:
        if not isinstance(label, str):
            raise ValidationError(f"movement label {label!r} is not a string")
        if not label or label != label.strip() or "\n" in label or "\r" in label:
            raise ValidationError(
                f"movement label {label!r} is empty, has leading or trailing "
                f"whitespace, or holds a line break"
            )
        if label in seen:
            raise ValidationError(f"movement label {label!r} repeats")
        seen.add(label)


def _check_days(days) -> None:
    """Reject day records that ``save_dataset`` could write but
    ``load_dataset`` would not read back as they are: it derives each tag
    from the date and sorts the days."""
    previous = None
    for rec in days:
        tag = day_of_week_tag(rec.date)
        if rec.day_of_week != tag:
            raise ValidationError(
                f"day {rec.date}: weekday tag {rec.day_of_week!r} should be {tag!r}")
        if previous is not None and rec.date <= previous:
            raise ValidationError(f"day {rec.date} does not come after day {previous}")
        previous = rec.date


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
    days : tuple of DayRecord, YYYY-MM-DD dates strictly increasing, each
        tagged with its own weekday
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
        _check_days(self.days)
        object.__setattr__(self, "movements", tuple(str(m) for m in self.movements))
        _check_movement_labels(self.movements)
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


# Lines read at a time by ``_parse_rows``.  A block's fields exist as Python
# strings only while that block is parsed, so the parser's memory follows the
# row count (integer codes and a float per row), not the file's text.  A
# block's arrays (32 KiB each) stay below glibc's mmap threshold, so each
# block reuses the heap memory the previous one freed and a load faults in
# few fresh pages, whose cost varies with the host.
_BLOCK_LINES = 1 << 12


class _Rows(NamedTuple):
    """The validated data rows of a long-format CSV, one array entry per row."""

    dates: list[str]       # distinct date labels, in order of first appearance
    movements: list[str]   # distinct movement labels, likewise
    day: np.ndarray        # index into ``dates``
    movement: np.ndarray   # index into ``movements``
    interval: np.ndarray   # 0-based interval index
    flow: np.ndarray


def _parsed(parse, text: str):
    """``parse(text)``, or the ``ValueError`` it raises."""
    try:
        return parse(text)
    except ValueError as exc:
        return exc


def _movement_label(label: str) -> str:
    if not label:
        raise ValueError("empty movement label")
    return label


class _Column:
    """One text column's distinct stripped values, in order of first
    appearance, each parsed once; each distinct raw value is stripped once."""

    def __init__(self, parse) -> None:
        self.parse = parse
        self.values: list[str] = []
        self.parsed: list = []          # parse(value), or its ValueError
        self.failed: list[bool] = []
        self._code: dict[str, int] = {}      # stripped value -> index
        self._raw_code: dict[str, int] = {}  # raw value -> index

    def codes(self, raw: list[str]) -> np.ndarray:
        """The index of each raw value's stripped form, adding new values."""
        for text in dict.fromkeys(raw):
            if text in self._raw_code:
                continue
            value = text.strip()
            if value not in self._code:
                self._code[value] = len(self.values)
                self.values.append(value)
                self.parsed.append(_parsed(self.parse, value))
                self.failed.append(isinstance(self.parsed[-1], ValueError))
            self._raw_code[text] = self._code[value]
        return np.fromiter(map(self._raw_code.__getitem__, raw), np.intp, len(raw))


def _csv_fields(line: str) -> list[str] | csv.Error:
    try:
        return next(csv.reader([line]))
    except csv.Error as exc:
        return exc


def _split_fields(lines: list[str]) -> tuple[list[list[str]], tuple[int, str] | None]:
    """Split data lines into their four raw fields, as columns.

    A line with three commas, no quote and no field over the csv module's
    limit splits as ``str.split`` does; all such lines split in one call.
    The others go through the csv module one at a time.  When a line is not
    four CSV fields, the columns stop just before it and its index and error
    are returned too.
    """
    simple = np.fromiter(map(str.count, lines, repeat(",")), np.intp, len(lines)) == 3
    limit = csv.field_size_limit()
    if '"' in "".join(lines) or max(map(len, lines), default=0) > limit:
        simple &= np.array(['"' not in s and len(s) <= limit for s in lines], dtype=bool)
    cells = np.empty((len(lines), 4), dtype=object)
    if simple.any():
        flat = ",".join(compress(lines, simple)).split(",")
        cells[simple] = np.array(flat, dtype=object).reshape(-1, 4)
    n, broken = len(lines), None
    for i in np.flatnonzero(~simple):
        fields = _csv_fields(lines[i])
        if isinstance(fields, csv.Error):
            n, broken = i, (i, f"malformed CSV row: {fields}")
            break
        if len(fields) != 4:
            n, broken = i, (i, f"expected 4 fields, got {len(fields)}")
            break
        cells[i] = fields
    return [cells[:n, k].tolist() for k in range(4)], broken


def _parse_rows(path: Path, intervals_per_day: int) -> _Rows:
    """Parse and validate the long-format CSV, a block of lines at a time.

    Within a block each check runs over every row at once (dates, movements
    and interval indices once per distinct value), and the error raised is
    the one a row-by-row reader meets first: the earliest offending line,
    and on it the first failing check in column order.  Reading stops at
    the block holding that line.
    """
    dates, movements = _Column(day_of_week_tag), _Column(_movement_label)
    intervals = _Column(int)
    blocks = []          # (line numbers, day, movement, interval, flow) per block
    header_seen = False
    error = None         # (line number, message) of the earliest offending line
    first_lineno = 1
    with open(path, "r", encoding="utf-8", newline="") as fh:
        while error is None:
            # A file iterator ends a line at \n, \r\n or a lone \r.
            stripped = list(map(str.strip, islice(fh, _BLOCK_LINES)))
            if not stripped:
                break
            keep = [i for i, s in enumerate(stripped) if s and s[0] != "#"]
            lines = [stripped[i] for i in keep]
            linenos = np.array(keep, dtype=np.int64) + first_lineno
            first_lineno += len(stripped)
            if lines and not header_seen:
                header = _csv_fields(lines[0])
                if isinstance(header, csv.Error):
                    raise ValidationError(f"line {linenos[0]}: malformed CSV row: {header}")
                if tuple(f.strip().lower() for f in header) != CSV_HEADER:
                    raise ValidationError(f"line {linenos[0]}: expected header "
                                          f"{','.join(CSV_HEADER)!r}, got {lines[0]!r}")
                header_seen = True
                lines, linenos = lines[1:], linenos[1:]

            (date_s, movement_s, interval_s, flow_s), broken = _split_fields(lines)
            n = len(date_s)
            day = dates.codes(date_s)
            movement = movements.codes(movement_s)
            interval_code = intervals.codes(interval_s)
            index = np.array([v - 1 if not bad and 1 <= v <= intervals_per_day else -1
                              for v, bad in zip(intervals.parsed, intervals.failed)],
                             dtype=np.int64)
            interval = index[interval_code]
            # float() ignores surrounding whitespace, as the stripped field would.
            try:
                flow = np.fromiter(map(float, flow_s), float, n)
                bad_flow = np.zeros(n, dtype=bool)
            except ValueError:
                parsed = [_parsed(float, text) for text in flow_s]
                bad_flow = np.array([isinstance(v, ValueError) for v in parsed], dtype=bool)
                flow = np.array([0.0 if bad else v for v, bad in zip(parsed, bad_flow)],
                                dtype=float)

            bad_interval = np.array(intervals.failed, dtype=bool)[interval_code]
            checks = (
                (np.array(dates.failed, dtype=bool)[day],
                 lambda i: str(dates.parsed[day[i]])),
                (np.array(movements.failed, dtype=bool)[movement],
                 lambda i: str(movements.parsed[movement[i]])),
                (bad_interval,
                 lambda i: f"bad interval_index {intervals.values[interval_code[i]]!r}"),
                (~bad_interval & (interval < 0),
                 lambda i: f"interval_index {intervals.parsed[interval_code[i]]} outside "
                           f"[1, {intervals_per_day}]"),
                (bad_flow, lambda i: f"bad flow_vph {flow_s[i].strip()!r}"),
                (~np.isfinite(flow), lambda i: "non-finite flow_vph"),
                (flow < 0, lambda i: f"negative flow_vph {flow_s[i].strip()}"),
            )
            bad = np.logical_or.reduce([mask for mask, _ in checks])
            if bad.any():
                n = int(np.argmax(bad))
                describe = next(describe for mask, describe in checks if mask[n])
                error = (linenos[n], describe(n))
            elif broken:
                error = (linenos[broken[0]], broken[1])
            blocks.append((linenos[:n], day[:n], movement[:n], interval[:n], flow[:n]))
    if not header_seen:
        raise ValidationError(f"{path}: empty file (missing header)")

    linenos, day, movement, interval, flow = (np.concatenate(c) for c in zip(*blocks))
    # Every row read is valid: find the first repeated cell among them.
    key = (day * len(movements.values) + movement) * intervals_per_day + interval
    order = np.argsort(key, kind="stable")
    repeats = order[1:][key[order[1:]] == key[order[:-1]]]
    if repeats.size:
        i = int(repeats.min())
        raise ValidationError(
            f"line {linenos[i]}: duplicate entry for ({dates.values[day[i]]}, "
            f"{movements.values[movement[i]]}, {interval[i] + 1})")
    if error:
        raise ValidationError(f"line {error[0]}: {error[1]}")
    return _Rows(dates.values, movements.values, day, movement, interval, flow)


def load_csv(
    path: str | Path,
    interval_minutes: int,
    movement_order: list[str] | tuple[str, ...] | None = None,
) -> FlowDataset:
    """Load the long-format CSV ``date,movement,interval_index,flow_vph``.

    Days missing any (movement, interval) cell are dropped with a warning.
    Duplicate cells, negative flows, and malformed rows raise
    :class:`ValidationError` naming the earliest offending line.  Lines starting
    with ``#`` are ignored.  Movements are ordered lexicographically unless an
    explicit ``movement_order`` is given (e.g. from a dataset sidecar), so the
    result does not depend on row order in the file.
    """
    path = Path(path)
    if interval_minutes < 1 or MINUTES_PER_DAY % interval_minutes != 0:
        raise ValidationError(f"interval_minutes={interval_minutes} does not divide a day")
    intervals_per_day = MINUTES_PER_DAY // interval_minutes

    rows = _parse_rows(path, intervals_per_day)
    observed = set(rows.movements)

    if movement_order is not None:
        movements = tuple(movement_order)
        _check_movement_labels(movements)
        if set(movements) != observed:
            raise ValidationError(
                "movement_order does not match the movements present in the file"
            )
    else:
        movements = tuple(sorted(observed))

    # Cells are distinct, so a day is complete when it has every cell's row.
    expected = intervals_per_day * len(movements)
    complete = np.bincount(rows.day, minlength=len(rows.dates)) == expected
    dropped = sorted(d for d, ok in zip(rows.dates, complete) if not ok)
    if dropped:
        warnings.warn(
            f"dropping {len(dropped)} incomplete day(s): {', '.join(dropped)}",
            stacklevel=2,
        )
    if not complete.any():
        raise ValidationError(f"{path}: no complete days")

    dates = sorted(d for d, ok in zip(rows.dates, complete) if ok)
    day_pos = {d: i for i, d in enumerate(dates)}
    movement_pos = {mv: m for m, mv in enumerate(movements)}
    row_day = np.array([day_pos.get(d, -1) for d in rows.dates])[rows.day]
    row_col = (np.array([movement_pos[mv] for mv in rows.movements])[rows.movement]
               * intervals_per_day + rows.interval)
    keep = row_day >= 0
    flows = np.empty((len(dates), expected), dtype=float)
    flows[row_day[keep], row_col[keep]] = rows.flow[keep]
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
    """Load a dataset written by :func:`save_dataset`, honoring sidecar ordering.

    The sidecar's day list must match the CSV's days, each tagged with its
    own weekday.
    """
    meta = artifact.read(meta_path, None)
    ds = load_csv(csv_path, int(meta["interval_minutes"]),
                  movement_order=meta["movements"])
    sidecar_dates = [d["date"] for d in meta["days"]]
    if sidecar_dates != [r.date for r in ds.days]:
        raise ValidationError("sidecar day list does not match the CSV contents")
    for entry, rec in zip(meta["days"], ds.days):
        if entry["day_of_week"] != rec.day_of_week:
            raise ValidationError(f"sidecar tags {rec.date} {entry['day_of_week']!r}, "
                                  f"but it is a {rec.day_of_week}")
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
