"""Flow data model: ingestion, day filtering, centering, and predictor/target splits.

A dataset holds one row per day.  Each row concatenates per-movement blocks of
length T (the number of intervals per day), i.e. column ``m * T + t`` is the
flow of movement ``m`` during interval ``t + 1``.  Flows are vehicles per hour
averaged over one recording interval.
"""

from __future__ import annotations

import csv
import io
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


# Lines tokenized at a time by ``_parse_rows``.  The file is read as bytes,
# ``_BLOCK_LINES << 6`` at a time (more when a line is longer), and each
# block's line ends, commas and plain lines are found with numpy.  Python
# objects exist only for a block's distinct dates, movements and interval
# indices, its flows (one float each) and the few lines that are not plain.
# Each block's valid rows go into the cell grid, one row of intervals per
# (date, movement) pair they hold, so the parser's memory follows the grid
# (a float and a flag per cell, at most one grid row per CSV row) plus one
# block's rows, not the file's text.
_BLOCK_LINES = 1 << 14
# The longest line taken as plain, so a block's fixed-width field arrays stay
# below ``_BLOCK_LINES * _PLAIN_BYTES`` bytes each; a longer line is decoded.
_PLAIN_BYTES = 256


def _parsed(parse, text):
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
    """One text column's distinct stripped values, each parsed once; each
    distinct raw value is stripped once."""

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

    def cell_codes(self, cells: np.ndarray) -> np.ndarray:
        """``codes`` of fixed-width ASCII cells: only the distinct cells (run
        heads, then ``np.unique``) are decoded."""
        if not len(cells):
            return np.empty(0, np.intp)
        keys = cells.view(np.uint64) if cells.itemsize == 8 else cells
        heads = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
        distinct, inverse = np.unique(keys[heads], return_inverse=True)
        codes = self.codes([v.decode("ascii") for v in distinct.view(cells.dtype).tolist()])
        return np.repeat(codes[inverse], np.diff(heads, append=len(cells)))


def _csv_fields(line: str) -> list[str] | csv.Error:
    try:
        return next(csv.reader([line]))
    except csv.Error as exc:
        return exc


def _floats(texts: list) -> tuple[np.ndarray, np.ndarray]:
    """``float`` of each text (``str`` or ASCII ``bytes``, which it reads
    alike), with 0.0 and a set flag where it raises."""
    try:
        return np.fromiter(map(float, texts), float, len(texts)), np.zeros(len(texts), bool)
    except ValueError:
        parsed = [_parsed(float, text) for text in texts]
        bad = np.array([isinstance(v, ValueError) for v in parsed], dtype=bool)
        return np.array([0.0 if x else v for v, x in zip(parsed, bad)], dtype=float), bad


def _line_blocks(fh):
    """Yield a binary file as blocks of up to ``_BLOCK_LINES`` lines: the
    block's bytes and the offset just past each line.  A line ends at \\n,
    \\r\\n or a lone \\r, as a text-mode file with ``newline=""`` reads it."""
    rest = b""
    while True:
        data = fh.read(max(_BLOCK_LINES << 6, len(rest)))
        buf = rest + data
        b = np.frombuffer(buf, np.uint8)
        ends = np.flatnonzero(b == 10) + 1
        cr = np.flatnonzero(b == 13)
        lone = cr[b[np.minimum(cr + 1, len(b) - 1)] != 10]
        if len(lone):
            ends = np.sort(np.concatenate((ends, lone + 1)))
        if data:
            # A \r last in the buffer may begin a \r\n.  The lines after
            # the last whole block wait for the next read.
            ends = ends[ends < len(buf)]
            ends = ends[:len(ends) - len(ends) % _BLOCK_LINES]
        elif len(buf) > (ends[-1] if len(ends) else 0):
            ends = np.append(ends, len(buf))   # a last line without a terminator
        start = 0
        for i in range(0, len(ends), _BLOCK_LINES):
            block = ends[i:i + _BLOCK_LINES]
            yield buf[start:block[-1]], block - start
            start = int(block[-1])
        if not data:
            return
        rest = buf[start:]


def _tokenize(b: np.ndarray, ends: np.ndarray):
    """Per line of a block: content start and stop (terminator dropped), the
    index of its first comma in the block's comma offsets, those offsets,
    and masks of plain and of blank-or-comment lines.

    A plain line is printable ASCII with no quote, no space at either edge,
    exactly three commas and at most ``csv.field_size_limit()`` characters:
    ``str.strip`` leaves it as it is, and the csv module splits it at its
    commas.  A comment here is such a line starting with ``#``; every line
    that is neither plain, blank nor such a comment is decoded.
    """
    starts = np.concatenate(([0], ends[:-1]))
    last = b[ends - 1]
    stops = ends - ((last == 10) | (last == 13))
    stops -= (last == 10) & (stops > starts) & (b[stops - 1] == 13)
    # Per line, the count of commas and of odd bytes (a quote, or outside
    # 32..126, where b - 32 wraps) up to its end; no comma is in a
    # terminator, and every terminator byte is odd.
    commas = np.flatnonzero(b == 44)
    upto = np.searchsorted(commas, ends)
    first = np.concatenate(([0], upto[:-1]))
    odd = np.searchsorted(np.flatnonzero(((b - 32) > 94) | (b == 34)), ends)
    clean = ((np.diff(odd, prepend=0) == ends - stops)
             & (stops > starts) & (b[starts] != 32) & (b[stops - 1] != 32))
    comment = clean & (b[starts] == 35)
    plain = (clean & ~comment & (upto - first == 3)
             & (stops - starts <= min(csv.field_size_limit(), _PLAIN_BYTES)))
    return starts, stops, first, commas, plain, comment | (stops == starts)


def _cells(b: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The byte ranges ``[lo, hi)`` of ``b`` as a fixed-width bytes array,
    zero-padded to 8 bytes or more (8-byte cells compare as ``uint64``)."""
    width = max(int((hi - lo).max(initial=0)), 8)
    padded = np.concatenate((b, np.zeros(width, np.uint8)))
    cells = np.lib.stride_tricks.sliding_window_view(padded, width)[lo]
    cells *= np.arange(width) < (hi - lo)[:, None]
    return cells.view(f"S{width}")[:, 0]


def _decoded(raw: bytes, starts, stops, lines) -> tuple[dict[int, str], tuple | None]:
    """Decode and strip each of ``lines``, in order, up to the first that is
    not UTF-8.  Returns the text of each that is neither blank nor a comment,
    and that first line's index and error message, if any."""
    texts = {}
    for i in lines.tolist():
        try:
            text = raw[starts[i]:stops[i]].decode("utf-8").strip()
        except UnicodeDecodeError as exc:
            return texts, (i, f"not UTF-8: {exc}")
        if text and text[0] != "#":
            texts[i] = text
    return texts, None


def _parse_rows(path: Path, intervals_per_day: int
                ) -> tuple[dict[tuple[str, str], int], np.ndarray, np.ndarray]:
    """Parse and validate the long-format CSV into its cell grid, a block
    of lines at a time: returns the grid row of each (date, movement) pair
    the rows hold, and the (grid row, interval) grids ``flow`` (0.0 where
    no row is) and ``seen``.

    Plain lines (see ``_tokenize``) are split and their fields cut out as
    bytes; each other line is decoded, stripped and split by the csv
    module, in line order.  A line that is not UTF-8 is an offending line.
    Within a block each check runs over every row at once (dates, movements
    and interval indices once per distinct value), and the error raised is
    the one a row-by-row reader meets first: the earliest offending line,
    and on it the first failing check in column order.  The rows before
    that line fill the grid, where a cell set twice is a duplicate.
    """
    dates, movements = _Column(day_of_week_tag), _Column(_movement_label)
    intervals = _Column(int)
    pairs: dict[tuple[str, str], int] = {}
    grid, seen = np.zeros((0, intervals_per_day)), np.zeros((0, intervals_per_day), bool)
    header_seen = False
    first_lineno = 1
    with open(path, "rb") as fh:
        for raw, ends in _line_blocks(fh):
            b = np.frombuffer(raw, np.uint8)
            starts, stops, first, commas, keep, skip = _tokenize(b, ends)
            texts, broken = _decoded(raw, starts, stops, np.flatnonzero(~(keep | skip)))
            keep[list(texts)] = True
            if broken:
                keep[broken[0]:] = False
            if not header_seen and keep.any():
                h = int(np.argmax(keep))
                line = texts.pop(h, None) or raw[starts[h]:stops[h]].decode("ascii")
                header = _csv_fields(line)
                if isinstance(header, csv.Error):
                    raise ValidationError(f"line {h + first_lineno}: malformed CSV row: {header}")
                if tuple(f.strip().lower() for f in header) != CSV_HEADER:
                    raise ValidationError(f"line {h + first_lineno}: expected header "
                                          f"{','.join(CSV_HEADER)!r}, got {line!r}")
                header_seen = True
                keep[h] = False
            elif not header_seen and broken:
                raise ValidationError(f"line {broken[0] + first_lineno}: {broken[1]}")

            fields = {}   # the four fields of each kept other line
            for i, text in texts.items():
                parts = _csv_fields(text)
                if isinstance(parts, csv.Error):
                    broken = (i, f"malformed CSV row: {parts}")
                elif len(parts) != 4:
                    broken = (i, f"expected 4 fields, got {len(parts)}")
                else:
                    fields[i] = parts
                    continue
                keep[i:] = False
                break

            rows = np.flatnonzero(keep)
            n = len(rows)
            plain = np.isin(rows, list(fields), invert=True)
            other = [fields[i] for i in rows[~plain]]
            lines = rows[plain]
            c0 = commas[first[lines]]
            c1, c2 = commas[first[lines] + 1], commas[first[lines] + 2]
            columns = []
            for column, lo, hi, k in ((dates, starts[lines], c0, 0),
                                      (movements, c0 + 1, c1, 1),
                                      (intervals, c1 + 1, c2, 2)):
                codes = np.empty(n, np.intp)
                codes[plain] = column.cell_codes(_cells(b, lo, hi))
                codes[~plain] = column.codes([f[k] for f in other])
                columns.append(codes)
            day, movement, interval_code = columns
            index = np.array([v - 1 if not bad and 1 <= v <= intervals_per_day else -1
                              for v, bad in zip(intervals.parsed, intervals.failed)],
                             dtype=np.int64)
            interval = index[interval_code]
            # float() ignores the spaces a plain field may have at its edges;
            # another field may have characters str.strip removes and it does not.
            flow, bad_flow = np.empty(n), np.empty(n, bool)
            flow[plain], bad_flow[plain] = _floats(_cells(b, c2 + 1, stops[lines]).tolist())
            flow[~plain], bad_flow[~plain] = _floats([f[3].strip() for f in other])

            def flow_text(i):
                line = rows[i]
                if line in fields:
                    return fields[line][3].strip()
                return raw[commas[first[line] + 2] + 1:stops[line]].decode("ascii").strip()

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
                (bad_flow, lambda i: f"bad flow_vph {flow_text(i)!r}"),
                (~np.isfinite(flow), lambda i: "non-finite flow_vph"),
                (flow < 0, lambda i: f"negative flow_vph {flow_text(i)}"),
            )
            bad = np.logical_or.reduce([mask for mask, _ in checks])
            if bad.any():
                n = int(np.argmax(bad))
                describe = next(describe for mask, describe in checks if mask[n])
                broken = (rows[n], describe(n))

            # The n rows before the block's offending line are valid.  Each
            # (date, movement) pair takes the next grid row when a valid row
            # first holds it, and the grid doubles when full.  A row repeats a
            # cell set by an earlier block or an earlier row here.
            width = len(movements.values)
            distinct, inverse = np.unique(day[:n] * width + movement[:n], return_inverse=True)
            held = [(dates.values[k // width], movements.values[k % width])
                    for k in distinct.tolist()]
            row = np.array([pairs.setdefault(p, len(pairs)) for p in held], np.intp)[inverse]
            if len(pairs) > len(grid):
                grow = ((0, max(len(grid), len(pairs) - len(grid))), (0, 0))
                grid, seen = np.pad(grid, grow), np.pad(seen, grow)
            cell = row * intervals_per_day + interval[:n]
            order = np.argsort(cell, kind="stable")
            again = seen.reshape(-1)[cell]
            again[order[1:]] |= cell[order[1:]] == cell[order[:-1]]
            if again.any():
                i = int(np.argmax(again))
                raise ValidationError(
                    f"line {rows[i] + first_lineno}: duplicate entry for "
                    f"({dates.values[day[i]]}, {movements.values[movement[i]]}, "
                    f"{interval[i] + 1})")
            grid.reshape(-1)[cell] = flow[:n]
            seen.reshape(-1)[cell] = True
            if broken:
                raise ValidationError(f"line {broken[0] + first_lineno}: {broken[1]}")
            first_lineno += len(ends)
    if not header_seen:
        raise ValidationError(f"{path}: empty file (missing header)")
    return pairs, grid[:len(pairs)], seen[:len(pairs)]


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
        labels = []   # each label as the csv module writes it, quoted if need be
        for movement in ds.movements:
            cell = io.StringIO()
            csv.writer(cell).writerow([movement])
            labels.append(cell.getvalue()[:-2])
        for rec, row in zip(ds.days, ds.flows.tolist()):
            for m, label in enumerate(labels):
                # repr of a float is its shortest round-trip decimal form,
                # so load_csv recovers the exact binary64 value.
                fh.write("".join(f"{rec.date},{label},{k},{flow!r}\r\n"
                                 for k, flow in enumerate(row[m * t:(m + 1) * t], 1)))
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
