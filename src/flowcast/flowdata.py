"""Flow data model: ingestion, day filtering, centering, and predictor/target splits.

A dataset holds one row per day.  Each row concatenates per-movement blocks of
length T (the number of intervals per day), i.e. column ``m * T + t`` is the
flow of movement ``m`` during interval ``t + 1``.  Flows are vehicles per hour
averaged over one recording interval.

CSV ingest has two readers.  A row-wise one owns every error message.  The
other, numpy's C reader ``np.loadtxt``, reads a block of lines at once, and
takes a block only where it cannot be more permissive than the row-wise one:

- every line is printable ASCII without a quote, but for its end: numpy ``S``
  fields drop a trailing NUL, ``loadtxt`` keeps quotes, and ``str.strip``
  then removes only spaces;
- no line is longer than ``csv.field_size_limit()``, which ``loadtxt`` does
  not enforce, or than 256, which bounds the movement field's width;
- ``loadtxt`` returns one row per line (it skips blank lines);
- every row passes every check, with each date field as it stands: a valid
  date has no spaces to strip, and its ``S11`` field did not cut it.

A block where ``loadtxt`` is stricter than ``int`` or ``float`` (``1_0``, a
20-digit interval) is read row-wise, to the same rows.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import warnings
from collections import Counter
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


def divide_day(k, name: str) -> int:
    """``MINUTES_PER_DAY // k``, which maps interval minutes to intervals per
    day and back.  ``k`` must be an integer (not a bool), at least 1, that
    divides a day; else a ``ValidationError`` names the setting ``name``."""
    if not artifact.is_a(k, int) or k < 1 or MINUTES_PER_DAY % k:
        raise ValidationError(f"{name}={k!r} does not divide a day")
    return MINUTES_PER_DAY // k


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
    ``load_dataset`` would not read back as they are: it sorts the days."""
    previous = None
    for rec in days:
        if previous is not None and rec.date <= previous:
            raise ValidationError(f"day {rec.date} does not come after day {previous}")
        previous = rec.date


@dataclass(frozen=True)
class DayRecord:
    """One recorded day, named by its ISO date (YYYY-MM-DD)."""

    date: str

    def __post_init__(self) -> None:
        day_of_week_tag(self.date)

    @property
    def day_of_week(self) -> str:
        return day_of_week_tag(self.date)


@dataclass(frozen=True)
class FlowDataset:
    """Immutable matrix of daily flow profiles.

    Attributes
    ----------
    days : tuple of DayRecord, dates strictly increasing
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
        t = divide_day(self.interval_minutes, "interval_minutes")
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

    def day_grid(self, index: int) -> np.ndarray:
        """Day ``index`` as a (T, M) grid: row t is interval t+1 across movements."""
        return vector_to_grid(self.flows[index], self.intervals_per_day, self.n_movements)


@dataclass(frozen=True)
class CenteredMatrix:
    """A dataset's day-mean profile and centered residuals."""

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
    def predicted_width(self) -> int:
        return (self.predict_to - self.predict_from + 1) // self.predicted_stride


# Lines read at a time after the header.  Each block's rows go straight into
# the cell grid, so the parser's memory follows the grid (a float and a flag
# per cell, at most one grid row per CSV row) plus one block's rows.
_BLOCK_LINES = 1 << 14
# The bytes of a plain line: printable ASCII but the quote, and line ends.
_PLAIN = bytes(range(32, 127)).replace(b'"', b"") + b"\r\n"


def _fields(line: str, lineno: int) -> list[str] | None:
    """The stripped CSV fields of a line read with ``surrogateescape``, or
    None for a blank or comment line."""
    if not line.isascii():
        try:   # decode the line's bytes, terminator dropped, to name the escaped ones
            line.rstrip("\r\n").encode("utf-8", "surrogateescape").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ValidationError(f"line {lineno}: not UTF-8: {exc}") from None
    text = line.strip()
    if not text or text[0] == "#":
        return None
    try:
        return [f.strip() for f in next(csv.reader([text]))]
    except csv.Error as exc:
        raise ValidationError(f"line {lineno}: malformed CSV row: {exc}") from None


def _row(fields: list[str], lineno: int, intervals_per_day: int):
    """A data line's (date, movement) pair, 0-based interval and flow."""
    try:
        if len(fields) != 4:
            raise ValueError(f"expected 4 fields, got {len(fields)}")
        date, movement, interval, flow = fields
        day_of_week_tag(date)
        if not movement:
            raise ValueError("empty movement label")
        try:
            k = int(interval)
        except ValueError:
            raise ValueError(f"bad interval_index {interval!r}") from None
        if not 1 <= k <= intervals_per_day:
            raise ValueError(f"interval_index {k} outside [1, {intervals_per_day}]")
        try:
            x = float(flow)
        except ValueError:
            raise ValueError(f"bad flow_vph {flow!r}") from None
        if not math.isfinite(x):
            raise ValueError("non-finite flow_vph")
        if x < 0:
            raise ValueError(f"negative flow_vph {flow}")
    except ValueError as exc:
        raise ValidationError(f"line {lineno}: {exc}") from None
    return (date, movement), k - 1, x


def _plain_rows(block: list[str], intervals_per_day: int):
    """A block's rows as ``np.loadtxt`` reads them, in the form that
    ``_Cells.fill`` takes, or None unless the block is plain and every row
    valid (see ``_parse_rows``)."""
    width = max(map(len, block))
    text = "".join(block)
    if (width > min(csv.field_size_limit(), 256) or not text.isascii()
            or text.encode("ascii").translate(None, _PLAIN)):
        return None
    try:
        with warnings.catch_warnings():
            # numpy < 2 reads an integer field such as 1.5 as a float with a
            # DeprecationWarning, and a block of blank lines warns too.
            warnings.simplefilter("error")
            rows = np.loadtxt(block, delimiter=",", comments=None, ndmin=1, dtype=[
                ("date", "S11"), ("movement", f"S{width}"), ("interval", "i8"), ("flow", "f8")])
    except (ValueError, Warning):
        return None
    interval, flow = rows["interval"] - 1, rows["flow"]
    if (len(rows) != len(block) or not ((0 <= interval) & (interval < intervals_per_day)).all()
            or not ((0 <= flow) & (flow < np.inf)).all()):
        return None
    # Dates and movements are decoded once per run of rows that share both.
    dates, movements = rows["date"], rows["movement"]
    head = np.concatenate(([True], (dates[1:] != dates[:-1])
                           | (movements[1:] != movements[:-1])))
    held = [(d.decode(), m.decode().strip())
            for d, m in zip(dates[head].tolist(), movements[head].tolist())]
    try:
        for date, movement in set(held):
            if not movement:
                return None
            day_of_week_tag(date)
    except ValidationError:
        return None
    return held, np.cumsum(head) - 1, interval, flow


class _Cells:
    """The grid row of each (date, movement) pair, and per grid row and
    interval the flow (0.0 where no row is) and whether a row set it."""

    def __init__(self, intervals_per_day: int) -> None:
        self.pairs: dict[tuple[str, str], int] = {}
        self.flow = np.zeros((0, intervals_per_day))
        self.seen = np.zeros((0, intervals_per_day), bool)

    def fill(self, held, which, interval, flow, linenos) -> None:
        """Set the cell of row i, pair ``held[which[i]]`` and 0-based
        ``interval[i]``, to ``flow[i]``.  The first row that repeats a cell,
        set before or by an earlier row, raises naming ``linenos[i]``."""
        # A pair takes the next grid row when first held; the grid doubles when full.
        row = np.array([self.pairs.setdefault(p, len(self.pairs)) for p in held], np.intp)
        if len(self.pairs) > len(self.flow):
            grow = ((0, max(len(self.flow), len(self.pairs) - len(self.flow))), (0, 0))
            self.flow, self.seen = np.pad(self.flow, grow), np.pad(self.seen, grow)
        cell = row[which] * self.flow.shape[1] + interval
        seen = self.seen.reshape(-1)
        if seen[cell].any() or np.bincount(cell - cell.min()).max() > 1:
            earlier = set()
            for i, c in enumerate(cell.tolist()):
                if seen[c] or c in earlier:
                    date, movement = held[which[i]]
                    raise ValidationError(f"line {linenos[i]}: duplicate entry for "
                                          f"({date}, {movement}, {interval[i] + 1})")
                earlier.add(c)
        self.flow.reshape(-1)[cell] = flow
        seen[cell] = True

    def read_rowwise(self, block: list[str], first: int) -> None:
        """Read a block a line at a time, its first line numbered ``first``:
        fill the rows before its first offending line, then raise its error."""
        rows, error = [], None
        try:
            for lineno, line in enumerate(block, first):
                if (fields := _fields(line, lineno)) is not None:
                    rows.append((*_row(fields, lineno, self.flow.shape[1]), lineno))
        except ValidationError as exc:
            error = exc
        if rows:
            held, interval, flow, linenos = zip(*rows)
            self.fill(held, np.arange(len(rows)), np.array(interval), np.array(flow), linenos)
        if error:
            raise error


def _parse_rows(path: Path, intervals_per_day: int
                ) -> tuple[dict[tuple[str, str], int], np.ndarray, np.ndarray]:
    """Parse and validate the long-format CSV into its cell grid: returns the
    grid row of each (date, movement) pair the rows hold, and the (grid row,
    interval) grids ``flow`` (0.0 where no row is) and ``seen``.

    Read as text with ``surrogateescape``, a line that is not UTF-8 is an
    offending line.  Lines up to the header go to the row-wise reader
    (``_fields`` and ``_row``); the rest go in blocks of ``_BLOCK_LINES`` to
    ``np.loadtxt`` where the module docstring's rule admits them, else to the
    row-wise reader.  The error raised is the one a row-by-row reader meets
    first: the earliest offending line's first failing check, raised once the
    rows before that line fill the grid, where a cell set twice is a duplicate.
    """
    cells = _Cells(intervals_per_day)
    with open(path, encoding="utf-8", errors="surrogateescape", newline="") as fh:
        for lineno, line in enumerate(fh, 1):
            if (fields := _fields(line, lineno)) is not None:
                break
        else:
            raise ValidationError(f"{path}: empty file (missing header)")
        if tuple(f.lower() for f in fields) != CSV_HEADER:
            raise ValidationError(f"line {lineno}: expected header "
                                  f"{','.join(CSV_HEADER)!r}, got {line.strip()!r}")
        while block := list(itertools.islice(fh, _BLOCK_LINES)):
            rows = _plain_rows(block, intervals_per_day)
            if rows is None:
                cells.read_rowwise(block, lineno + 1)
            else:
                cells.fill(*rows, range(lineno + 1, lineno + 1 + len(block)))
            lineno += len(block)
    n = len(cells.pairs)
    return cells.pairs, cells.flow[:n], cells.seen[:n]


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
    pairs, flow, seen = _parse_rows(path, divide_day(interval_minutes, "interval_minutes"))
    labels = {mv for _, mv in pairs}
    if movement_order is not None:
        movements = tuple(movement_order)
        _check_movement_labels(movements)
        if set(movements) != labels:
            raise ValidationError(
                "movement_order does not match the movements present in the file"
            )
    else:
        movements = tuple(sorted(labels))

    # A day is complete when each movement's grid row is seen throughout.
    full = seen.all(axis=1).tolist()
    count = Counter(d for (d, _), row in pairs.items() if full[row])
    keep = sorted(d for d, k in count.items() if k == len(labels))
    dropped = sorted({d for d, _ in pairs}.difference(keep))
    if dropped:
        warnings.warn(
            f"dropping {len(dropped)} incomplete day(s): {', '.join(dropped)}",
            stacklevel=2,
        )
    if not keep:
        raise ValidationError(f"{path}: no complete days")

    rows = [pairs[d, mv] for d in keep for mv in movements]
    return FlowDataset(days=tuple(map(DayRecord, keep)),
                       flows=flow[rows].reshape(len(keep), -1),
                       interval_minutes=interval_minutes, movements=movements)


def load_sample(path: str | Path, ds: FlowDataset, spec: SplitSpec) -> tuple[str, np.ndarray]:
    """Read the one day of a long-format CSV: its date and its predictor
    vector, split as ``split_at`` splits ``ds``.  Every cell of the
    predictor window must be present; other cells may be missing."""
    spec.validate_for(ds.intervals_per_day)
    pairs, flow, seen = _parse_rows(Path(path), ds.intervals_per_day)
    dates = {d for d, _ in pairs}
    if len(dates) != 1:
        raise ValidationError(f"sample file must hold exactly one date, got {len(dates)}")
    missing = set(ds.movements) - {mv for _, mv in pairs}
    if missing:
        raise ValidationError(f"sample is missing movements: {sorted(missing)}")
    (date_label,) = dates
    rows = [pairs[date_label, mv] for mv in ds.movements]
    gaps = np.argwhere(~seen[rows, : spec.cutoff_index])  # movement-major order
    if len(gaps):
        m, t = gaps[0]
        raise ValidationError(f"sample is missing ({ds.movements[m]}, interval {t + 1})")
    z, _ = _split_grid(flow[rows][None], spec)
    return date_label, z[0]


def dataset_csv(ds: FlowDataset) -> str:
    """A dataset's canonical CSV text, as the ``csv`` module writes it."""
    t = ds.intervals_per_day
    labels = []   # each label as the csv module writes it, quoted if need be
    for movement in ds.movements:
        cell = io.StringIO()
        csv.writer(cell).writerow([movement])
        labels.append(cell.getvalue()[:-2])
    # repr of a float is its shortest round-trip decimal form, so load_csv
    # recovers the exact binary64 value.
    return ",".join(CSV_HEADER) + "\r\n" + "".join(
        f"{rec.date},{label},{k},{flow!r}\r\n"
        for rec, row in zip(ds.days, ds.flows.tolist())
        for m, label in enumerate(labels)
        for k, flow in enumerate(row[m * t:(m + 1) * t], 1))


def dataset_sidecar(ds: FlowDataset) -> dict:
    """A dataset's JSON metadata sidecar: interval length, movement order and
    days with their weekday tags."""
    return artifact.document(None, {
        "interval_minutes": ds.interval_minutes,
        "movements": list(ds.movements),
        "days": [{"date": r.date, "day_of_week": r.day_of_week} for r in ds.days],
    })


def save_dataset(ds: FlowDataset, csv_path: str | Path, meta_path: str | Path) -> None:
    """Write a dataset as canonical CSV plus a JSON metadata sidecar."""
    artifact.write(dataset_csv(ds), csv_path)
    artifact.write(dataset_sidecar(ds), meta_path)


def load_dataset(csv_path: str | Path, meta_path: str | Path) -> FlowDataset:
    """Load a dataset written by :func:`save_dataset`, honoring sidecar ordering.

    The sidecar's day list must match the CSV's days, each tagged with its
    own weekday.
    """
    meta = artifact.read(meta_path, None)
    ds = load_csv(csv_path, artifact.typed(meta, "interval_minutes", int, "an integer"),
                  movement_order=artifact.typed(meta, "movements", list, "a list"))
    days = [(artifact.typed(entry, "date", str, "a string"),
             artifact.typed(entry, "day_of_week", str, "a string"))
            for entry in artifact.typed(meta, "days", list, "a list")]
    if [date for date, _ in days] != [r.date for r in ds.days]:
        raise ValidationError("sidecar day list does not match the CSV contents")
    for (_, tag), rec in zip(days, ds.days):
        if tag != rec.day_of_week:
            raise ValidationError(f"sidecar tags {rec.date} {tag!r}, "
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
    return CenteredMatrix(mean=mean, residuals=ds.flows - mean)


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
