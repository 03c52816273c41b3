import csv
import datetime as dt
import io
import json
import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from flowcast import (
    FlowDataset,
    SplitSpec,
    ValidationError,
    center,
    filter_days,
    grid_to_vector,
    load_csv,
    load_dataset,
    mean_profile,
    split_at,
    vector_to_grid,
)
from flowcast import flowdata
from flowcast.flowdata import load_sample as _read_sample
from flowcast.flowdata import (
    CSV_HEADER,
    DayRecord,
    day_of_week_tag,
    save_dataset,
)

from _oracles import rowwise_load_csv, rowwise_read_sample, rowwise_save_dataset


def write_rows(path, rows, header="date,movement,interval_index,flow_vph"):
    lines = ([header] if header else []) + [",".join(str(f) for f in r) for r in rows]
    path.write_text("\n".join(lines) + "\n")


def tiny_rows(dates=("2024-03-04", "2024-03-05"), movements=("A", "B"), t=4):
    rows = []
    for i, d in enumerate(dates):
        for m, mv in enumerate(movements):
            for k in range(t):
                rows.append((d, mv, k + 1, float(100 * i + 10 * m + k)))
    return rows


def test_day_of_week_tag():
    assert day_of_week_tag("2024-03-04") == "Mon"
    assert day_of_week_tag("2024-03-10") == "Sun"
    with pytest.raises(ValidationError):
        day_of_week_tag("03/04/2024")
    with pytest.raises(ValidationError, match="not YYYY-MM-DD"):
        day_of_week_tag("20240304")  # fromisoformat reads it; it sorts differently


def test_load_csv_basic(tmp_path):
    p = tmp_path / "flows.csv"
    write_rows(p, tiny_rows())
    ds = load_csv(p, 360)
    assert ds.n_days == 2 and ds.n_movements == 2 and ds.intervals_per_day == 4
    assert ds.movements == ("A", "B")
    assert [r.date for r in ds.days] == ["2024-03-04", "2024-03-05"]
    assert ds.days[0].day_of_week == "Mon"
    # movement-major layout: column m*T + t
    assert ds.flows[0, 0] == 0.0
    assert ds.flows[0, 4 + 2] == 12.0
    assert ds.flows[1, 3] == 103.0


def test_load_csv_row_order_invariant(tmp_path):
    rows = tiny_rows()
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_rows(p1, rows)
    shuffled = list(rows)
    np.random.default_rng(1).shuffle(shuffled)
    write_rows(p2, shuffled)
    d1, d2 = load_csv(p1, 360), load_csv(p2, 360)
    assert d1.movements == d2.movements
    assert [r.date for r in d1.days] == [r.date for r in d2.days]
    assert np.array_equal(d1.flows, d2.flows)


def test_load_csv_skips_comments_and_blanks(tmp_path):
    p = tmp_path / "flows.csv"
    rows = tiny_rows()
    body = ["# a comment", "date,movement,interval_index,flow_vph", ""]
    body += [",".join(str(f) for f in r) for r in rows[: len(rows) // 2]]
    body += ["# mid-file note"]
    body += [",".join(str(f) for f in r) for r in rows[len(rows) // 2:]]
    p.write_text("\n".join(body) + "\n")
    assert load_csv(p, 360).n_days == 2


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda r: r.__setitem__(3, ("2024-03-04", "A", 1, 5.0)), "duplicate"),
        (lambda r: r.__setitem__(0, ("2024-03-04", "A", 0, 5.0)), "interval_index"),
        (lambda r: r.__setitem__(0, ("2024-03-04", "A", 9, 5.0)), "interval_index"),
        (lambda r: r.__setitem__(0, ("2024-03-04", "A", 1, -5.0)), "negative"),
        (lambda r: r.__setitem__(0, ("2024-03-04", "A", 1, "nan")), "non-finite"),
        (lambda r: r.__setitem__(0, ("2024-03-04", "A", 1, "abc")), "flow_vph"),
        (lambda r: r.__setitem__(0, ("not-a-date", "A", 1, 5.0)), "date"),
    ],
)
def test_load_csv_rejects_bad_rows(tmp_path, mutate, fragment):
    rows = tiny_rows(dates=("2024-03-04",))
    mutate(rows)
    p = tmp_path / "bad.csv"
    write_rows(p, rows)
    with pytest.raises(ValidationError) as err:
        load_csv(p, 360)
    assert fragment in str(err.value)
    assert "line " in str(err.value)


def test_load_csv_requires_header(tmp_path):
    p = tmp_path / "no_header.csv"
    write_rows(p, tiny_rows(), header=None)
    with pytest.raises(ValidationError):
        load_csv(p, 360)
    (tmp_path / "empty.csv").write_text("")
    with pytest.raises(ValidationError, match="empty file"):
        load_csv(tmp_path / "empty.csv", 360)


def test_load_csv_drops_incomplete_days(tmp_path):
    rows = tiny_rows()
    rows = [r for r in rows if not (r[0] == "2024-03-05" and r[2] == 3)]
    p = tmp_path / "gap.csv"
    write_rows(p, rows)
    with pytest.warns(UserWarning, match="2024-03-05"):
        ds = load_csv(p, 360)
    assert [r.date for r in ds.days] == ["2024-03-04"]

    # all days incomplete -> hard error
    rows = [r for r in tiny_rows() if r[2] != 4]
    write_rows(p, rows)
    with pytest.raises(ValidationError, match="no complete days"):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            load_csv(p, 360)


def test_load_csv_interval_minutes_must_divide_day(tmp_path):
    p = tmp_path / "flows.csv"
    write_rows(p, tiny_rows())
    with pytest.raises(ValidationError):
        load_csv(p, 7)


def test_dataset_validation():
    days = (DayRecord("2024-03-04"),)
    with pytest.raises(ValidationError):
        FlowDataset(days=days, flows=np.ones((1, 5)), interval_minutes=360,
                    movements=("A", "B"))  # 5 not divisible into 2 blocks of 4
    with pytest.raises(ValidationError):
        FlowDataset(days=days, flows=-np.ones((1, 8)), interval_minutes=360,
                    movements=("A", "B"))
    ds = FlowDataset(days=days, flows=np.ones((1, 8)), interval_minutes=360,
                     movements=("A", "B"))
    with pytest.raises(ValueError):
        ds.flows[0, 0] = 2.0  # locked


def test_save_load_round_trip_exact(tmp_path, noisy):
    ds, _ = noisy
    csv_path, meta_path = tmp_path / "f.csv", tmp_path / "f.meta.json"
    save_dataset(ds, csv_path, meta_path)
    back = load_dataset(csv_path, meta_path)
    assert back.movements == ds.movements
    assert [r.date for r in back.days] == [r.date for r in ds.days]
    assert np.array_equal(back.flows, ds.flows)
    meta = json.loads(meta_path.read_text())
    assert meta["interval_minutes"] == ds.interval_minutes


def test_ingest_memory_follows_the_flow_matrix_not_the_row_count(tmp_path, noisy):
    """Two saved files that differ only in their day count: the larger one's
    ``load_dataset`` peak may grow by the cells it adds (a float and a flag
    in the parser's grid, and the result), not by state kept per CSV row."""
    ds, _ = noisy
    peaks = []
    for n_days in (40, ds.n_days):
        part = FlowDataset(days=ds.days[:n_days], flows=ds.flows[:n_days],
                           interval_minutes=ds.interval_minutes, movements=ds.movements)
        csv_path, meta_path = tmp_path / f"{n_days}.csv", tmp_path / f"{n_days}.meta.json"
        save_dataset(part, csv_path, meta_path)
        load_dataset(csv_path, meta_path)
        tracemalloc.start()
        try:
            load_dataset(csv_path, meta_path)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    added_rows = (ds.n_days - 40) * ds.flows.shape[1]
    assert (peaks[1] - peaks[0]) / added_rows < 40


def test_ingest_memory_of_a_sparse_file_follows_its_row_count(tmp_path):
    """One row per date, each under its own movement: the parser's grid may
    grow by one row of intervals per CSV row read (a float and a flag per
    interval, doubled capacity), not by every date times every movement."""
    peaks = []
    for n_rows in (100, 400):
        rows = [((dt.date(2024, 1, 1) + dt.timedelta(days=i)).isoformat(), f"M{i}", 1, 1.0)
                for i in range(n_rows)]
        csv_path = tmp_path / f"{n_rows}.csv"
        write_rows(csv_path, rows)
        tracemalloc.start()
        try:
            with warnings.catch_warnings(), pytest.raises(ValidationError, match="no complete"):
                warnings.simplefilter("ignore")
                load_csv(csv_path, 15)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert (peaks[1] - peaks[0]) / 300 < 4 * 96 * 9


def test_sidecar_preserves_movement_order(tmp_path):
    # sidecar order wins over the lexicographic fallback
    rows = tiny_rows(movements=("B", "A"))
    csv_path = tmp_path / "f.csv"
    write_rows(csv_path, rows)
    ds = load_csv(csv_path, 360, movement_order=("B", "A"))
    assert ds.movements == ("B", "A")
    meta_path = tmp_path / "f.meta.json"
    save_dataset(ds, csv_path, meta_path)
    assert load_dataset(csv_path, meta_path).movements == ("B", "A")
    with pytest.raises(ValidationError):
        load_csv(csv_path, 360, movement_order=("B", "C"))


def test_filter_days():
    days = tuple(DayRecord(f"2024-03-{4 + i:02d}") for i in range(7))
    ds = FlowDataset(days=days, flows=np.arange(7.0)[:, None] * np.ones((7, 8)),
                     interval_minutes=360, movements=("A", "B"))
    wk = filter_days(ds, {"Mon", "Tue", "Wed", "Thu"})
    assert [r.day_of_week for r in wk.days] == ["Mon", "Tue", "Wed", "Thu"]
    assert np.array_equal(wk.flows, ds.flows[:4])
    with pytest.raises(ValidationError):
        filter_days(ds, {"Funday"})
    with pytest.raises(ValidationError):
        filter_days(wk, {"Sun"})


@given(st.integers(2, 8), st.integers(1, 6), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_grid_vector_round_trip(t, m, seed):
    x = np.random.default_rng(seed).uniform(0, 50, size=t * m)
    grid = vector_to_grid(x, t, m)
    assert grid.shape == (t, m)
    assert np.array_equal(grid_to_vector(grid), x)
    # column blocks are movement-major: block m holds that movement's day
    assert np.array_equal(grid[:, 0], x[:t])


def test_centering(noisy):
    ds, _ = noisy
    cm = center(ds)
    assert np.allclose(cm.residuals.mean(axis=0), 0.0, atol=1e-9)
    assert np.allclose(cm.mean + cm.residuals, ds.flows)
    one = FlowDataset(days=(DayRecord("2024-03-04"),),
                      flows=np.ones((1, 8)), interval_minutes=360,
                      movements=("A", "B"))
    with pytest.raises(ValidationError):
        center(one)


def test_split_at_partitions_day(noisy):
    ds, _ = noisy
    t, m = ds.intervals_per_day, ds.n_movements
    spec = SplitSpec(cutoff_index=40, predict_from=41, predict_to=t)
    z, y = split_at(ds, spec)
    assert z.shape == (ds.n_days, 40 * m)
    assert y.shape == (ds.n_days, (t - 40) * m)
    day = vector_to_grid(ds.flows[3], t, m)
    assert np.array_equal(z[3].reshape(m, 40).T, day[:40])
    assert np.array_equal(y[3].reshape(m, t - 40).T, day[40:])


def test_split_at_gap_between_windows(noisy):
    ds, _ = noisy
    spec = SplitSpec(cutoff_index=36, predict_from=49, predict_to=96)
    z, y = split_at(ds, spec)
    assert z.shape[1] == 36 * ds.n_movements
    assert y.shape[1] == 48 * ds.n_movements


def test_split_strides_aggregate_means(noisy):
    ds, _ = noisy
    spec = SplitSpec(cutoff_index=40, predict_from=41, predict_to=96,
                     predictor_stride=4, predicted_stride=2)
    z, y = split_at(ds, spec)
    assert z.shape[1] == 10 * ds.n_movements
    assert y.shape[1] == 28 * ds.n_movements
    day = vector_to_grid(ds.flows[0], 96, ds.n_movements)
    assert np.allclose(z[0][:10], day[:40, 0].reshape(10, 4).mean(axis=1))
    assert np.allclose(y[0][:28], day[40:, 0].reshape(28, 2).mean(axis=1))


def test_split_stride_commutes_with_aggregation(noisy):
    """Aggregating unit-stride split columns equals the strided split."""
    ds, _ = noisy
    base = SplitSpec(cutoff_index=40, predict_from=41, predict_to=96)
    strided = SplitSpec(cutoff_index=40, predict_from=41, predict_to=96,
                        predictor_stride=2, predicted_stride=4)
    z1, y1 = split_at(ds, base)
    z2, y2 = split_at(ds, strided)
    d, m = ds.n_days, ds.n_movements
    z1g = z1.reshape(d, m, 40).reshape(d, m, 20, 2).mean(axis=3).reshape(d, -1)
    y1g = y1.reshape(d, m, 56).reshape(d, m, 14, 4).mean(axis=3).reshape(d, -1)
    assert np.allclose(z1g, z2, atol=1e-12)
    assert np.allclose(y1g, y2, atol=1e-12)


def test_split_spec_validation():
    with pytest.raises(ValidationError):
        SplitSpec(cutoff_index=40, predict_from=40, predict_to=96)
    with pytest.raises(ValidationError):
        SplitSpec(cutoff_index=0, predict_from=1, predict_to=96)
    with pytest.raises(ValidationError):
        SplitSpec(cutoff_index=40, predict_from=41, predict_to=40)
    spec = SplitSpec(cutoff_index=40, predict_from=41, predict_to=96,
                     predictor_stride=3)
    with pytest.raises(ValidationError):  # 3 does not divide 40
        spec.validate_for(96)
    with pytest.raises(ValidationError):  # predict_to beyond the day
        SplitSpec(cutoff_index=40, predict_from=41, predict_to=97).validate_for(96)


def test_mean_profile_matches_numpy(noisy):
    ds, _ = noisy
    assert np.array_equal(mean_profile(ds), ds.flows.mean(axis=0))


# ---------------------------------------------------------------- ingest parity
#
# The parser against the row-by-row reference: equal flows bit for bit, equal
# warnings, and on bad input the same error message.  The parser reads the
# file in blocks of ``_BLOCK_LINES`` lines, each by numpy's C reader or its
# row-wise one; small blocks put the header, duplicates and bad rows in any
# block, or across two.

LABELS = ("NB T", "SB LT", "NB,L", 'S"B', '"q"', "#mv", "EB " + "x" * 70 + ",long",
          "\u00d6st\u00a0T")
PLAIN_LABELS = ("NB T", "SB LT", "#mv")
# Characters put at line and field edges: ASCII whitespace, non-ASCII
# whitespace, and \x1c-\x1f, which str.strip removes but float rejects.
EDGES = (("",), ("", " ", "\t"), ("", "\u00a0", "\u2002", "\u0085"), ("", "\x1c", "\x1f"))
# The csv module's field size limit while the parity tests run: lines with
# the long label are longer, and the "wide" corruption's field is too.
FIELD_LIMIT = 90
DATES = ("2024-01-01", "2024-01-02", "2024-02-29", "2023-12-31")
CORRUPTIONS = ("date", "other-date", "no-movement", "interval", "interval-range",
               "flow", "flow-nan", "flow-negative", "duplicate", "drop", "short",
               "long", "open-quote", "new-movement", "wide", "nul")


def csv_line(fields):
    buf = io.StringIO()
    csv.writer(buf).writerow(fields)
    return buf.getvalue().rstrip("\r\n")


@st.composite
def flow_files(draw, one_date=False):
    """(text, interval_minutes, movements) of a small long-format CSV with
    shuffled rows, comments, blank lines, quoted labels, padded lines and
    fields, mixed line endings and up to two corrupted rows."""
    minutes = draw(st.sampled_from([360, 480, 720]))
    # Half the files have only lines numpy's C reader takes, but for the
    # corrupted rows, inserted lines and line ends.
    plain = draw(st.booleans())
    edges = ("", " ") if plain else draw(st.sampled_from(EDGES))
    t = 1440 // minutes
    labels = PLAIN_LABELS if plain else LABELS
    movements = draw(st.lists(st.sampled_from(labels), min_size=1, max_size=3, unique=True))
    dates = draw(st.lists(st.sampled_from(DATES), min_size=1, max_size=1 if one_date else 3,
                          unique=True))
    r = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rows = []
    for d in dates:
        for mv in movements:
            for k in range(1, t + 1):
                flow = float(r.uniform(0, 2000)) * float(r.choice([1.0, 1e-7, 1e7]))
                pad = str(r.choice(edges))
                texts = [repr(flow), f"{flow:.3e}", str(int(flow)), f" {flow!r} ", "0",
                         "-0.0", f"{pad}{flow!r}{pad}"]
                intervals = [str(k), str(k), f" {k}", f"+{k}", f" +{k}", f"{pad}{k}",
                             "0" * 41 + str(k)]
                if not plain:   # forms the C reader rejects and float() or int() reads
                    texts.append(f"{int(flow):_}")
                    intervals.append(chr(0xFF10 + k))
                # Rarely, a 12-byte date, which an 11-byte field would cut,
                # and a label with spaces and a tab at its edges.
                odd = 0.0 if plain else 0.1
                date = f" {d} " if r.random() < odd else pad + d
                label = mv if '"' in mv or "," in mv else (
                    f" {mv}\t" if r.random() < odd else mv + pad)
                rows.append([date, label, str(r.choice(intervals)), str(r.choice(texts))])
    rows = [rows[i] for i in r.permutation(len(rows))]
    lines = [csv_line(row) for row in rows]
    for kind in draw(st.lists(st.sampled_from(CORRUPTIONS), max_size=2)):
        i = int(r.integers(len(rows)))
        row = list(rows[i])
        if kind == "date":
            # The last: an 11-byte field would cut it to a valid date.
            row[0] = str(r.choice(["2024-02-30", "x", "", "2024/01/01", f" {row[0].strip()}0"]))
        elif kind == "other-date":
            row[0] = "2024-03-01"
        elif kind == "no-movement":
            row[1] = ""
        elif kind == "interval":
            row[2] = str(r.choice(["abc", "1.5", "", " 2x "]))
        elif kind == "interval-range":
            row[2] = str(r.choice([0, -1, t + 1, 10 ** 30, 10 ** 41]))
        elif kind == "flow":
            row[3] = str(r.choice(["abc", "", "1,5"]))
        elif kind == "flow-nan":
            row[3] = str(r.choice(["nan", "inf", "-inf", "infinity", "1e309"]))
        elif kind == "flow-negative":
            row[3] = "-2.5"
        elif kind == "duplicate":
            row[:3] = rows[int(r.integers(len(rows)))][:3]
        elif kind == "new-movement":
            row[1] = "ZZ"
        elif kind == "wide":
            row[1] = "W" * (FIELD_LIMIT + 10)
        if kind == "drop":
            lines[i] = ""
        elif kind == "short":
            lines[i] = csv_line(row[:3])
        elif kind == "long":
            lines[i] = csv_line(row + ["7"])
        elif kind == "open-quote":
            lines[i] = f'{row[0]},"{row[1]},{row[2]},{row[3]}'
        elif kind == "nul":   # a NUL that ends a label, or one inside it
            label = "NB" if '"' in row[1] or "," in row[1] else row[1]
            lines[i] = ",".join([row[0], label + "\x00" + str(r.choice(["", "x"])), *row[2:]])
        else:
            lines[i] = csv_line(row)
    header = str(r.choice([",".join(CSV_HEADER), "Date, Movement ,interval_index,FLOW_VPH"]))
    lines.insert(0, header)
    for _ in range(int(r.integers(0, 4))):
        lines.insert(int(r.integers(len(lines) + 1)),
                     str(r.choice(["# note", "", "   ", "#", " \t"])))
    for i in r.choice(len(lines), size=int(r.integers(0, 3))):
        lines[i] = str(r.choice(edges)) + lines[i] + str(r.choice(edges))
    # One ending throughout, or \n with some lone \r among them.
    ends = [str(r.choice(["\n", "\r\n", "\r", "mixed"]))] * len(lines)
    if ends[0] == "mixed":
        ends = [str(e) for e in r.choice(["\n", "\n", "\n", "\r"], size=len(lines))]
    text = "".join(line + end for line, end in zip(lines, ends))
    return text if r.integers(0, 2) else text[:-len(ends[-1])], minutes, movements


def outcome(fn, *args):
    """Result bits, or the error message, plus the warnings on the way."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = fn(*args)
        except ValidationError as exc:
            result = ("error", str(exc))
    if isinstance(result, FlowDataset):
        result = (result.movements, result.days, result.flows.view(np.uint64).tobytes())
    elif isinstance(result, tuple) and result[0] != "error":
        result = (result[0], result[1].view(np.uint64).tobytes())
    return result, [str(w.message) for w in caught]


@pytest.fixture(scope="module")
def scratch_csv(tmp_path_factory):
    return tmp_path_factory.mktemp("ingest") / "flows.csv"


@pytest.fixture
def field_limit():
    """Lower the csv module's field size limit to ``FIELD_LIMIT``, then
    restore it."""
    old = csv.field_size_limit(FIELD_LIMIT)
    yield
    csv.field_size_limit(old)


BLOCK_LINES = st.sampled_from([1, 2, 3, 7, flowdata._BLOCK_LINES])
# ``field_limit`` holds for every example of a test, as intended.
PARITY = dict(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


@given(flow_files(), st.booleans(), BLOCK_LINES)
@settings(max_examples=200, **PARITY)
def test_load_csv_matches_row_by_row_parser(scratch_csv, field_limit, case, explicit_order,
                                            block):
    text, minutes, movements = case
    scratch_csv.write_text(text, encoding="utf-8", newline="")
    order = tuple(reversed(movements)) if explicit_order else None
    with mock.patch.object(flowdata, "_BLOCK_LINES", block):
        got = outcome(load_csv, scratch_csv, minutes, order)
    assert got == outcome(rowwise_load_csv, scratch_csv, minutes, order)


@given(flow_files(one_date=True), st.data(), BLOCK_LINES)
@settings(max_examples=150, **PARITY)
def test_read_sample_matches_row_by_row_parser(scratch_csv, field_limit, case, data, block):
    text, minutes, movements = case
    scratch_csv.write_text(text, encoding="utf-8", newline="")
    t = 1440 // minutes
    ds = FlowDataset(days=(DayRecord("2024-01-01"), DayRecord("2024-01-02")),
                     flows=np.zeros((2, t * len(movements))), interval_minutes=minutes,
                     movements=movements)
    cutoff = data.draw(st.integers(1, t - 1))
    spec = SplitSpec(cutoff_index=cutoff, predict_from=cutoff + 1, predict_to=t)
    with mock.patch.object(flowdata, "_BLOCK_LINES", block):
        got = outcome(_read_sample, scratch_csv, ds, spec)
    assert got == outcome(rowwise_read_sample, scratch_csv, ds, spec)


# Lines that numpy's C reader would read otherwise than the row-wise reader,
# each put in place of the row (2024-01-01, A, 3).
TRAPS = {
    "NUL ending a label": ["2024-01-01,A\x00,3,1.5"],   # numpy S fields drop it
    "NUL inside a label": ["2024-01-01,A\x00B,3,1.5"],
    "quoted label": ['2024-01-01,"A",3,1.5'],            # loadtxt keeps the quotes
    "field over the csv limit": ["2024-01-01," + "A" * (FIELD_LIMIT + 5) + ",3,1.5"],
    "date cut to a valid one": [" 2024-01-01x,A,3,1.5"],
    "blank line, then a repeated cell": ["", "2024-01-01,A,2,9.0"],
    "whitespace-only line": ["   "],
    "repeated cell": ["2024-01-01,A,2,9.0"],
    "empty label": ["2024-01-01, ,3,1.5"],
    "interval 0": ["2024-01-01,A,0,1.5"],
    "interval past the day": ["2024-01-01,A,5,1.5"],
    "interval as a float": ["2024-01-01,A,3.0,1.5"],   # numpy < 2 reads it as 3
    "interval with an underscore": ["2024-01-01,A,0_3,1.5"],
    "infinite flow": ["2024-01-01,A,3,inf"],
    "NaN flow": ["2024-01-01,A,3,nan"],
    "negative flow": ["2024-01-01,A,3,-1.5"],
}


@pytest.mark.parametrize("block", [1, 3, 7, flowdata._BLOCK_LINES])
@pytest.mark.parametrize("trap", sorted(TRAPS))
def test_lines_the_c_reader_would_misread_read_as_row_by_row(tmp_path, field_limit, trap,
                                                            block):
    lines = ["date,movement,interval_index,flow_vph"]
    lines += [f"{d},{mv},{k},{k}.5" for d in ("2024-01-01", "2024-01-02") for mv in "AB"
              for k in range(1, 5)]
    lines[3:4] = TRAPS[trap]
    p = tmp_path / "trap.csv"
    p.write_text("\r\n".join(lines) + "\r\n", encoding="utf-8", newline="")
    with mock.patch.object(flowdata, "_BLOCK_LINES", block):
        got = outcome(load_csv, p, 360)
    assert got == outcome(rowwise_load_csv, p, 360)


@pytest.mark.parametrize("label", ["", " NB", "NB ", "\tNB", "NB\nT", "NB\rT"])
def test_dataset_rejects_labels_csv_cannot_read_back(label):
    with pytest.raises(ValidationError, match=re.escape(repr(label))):
        FlowDataset(days=(DayRecord("2024-03-04"),), flows=np.ones((1, 8)),
                    interval_minutes=360, movements=("A", label))


def test_dataset_rejects_repeated_labels():
    with pytest.raises(ValidationError, match="'A' repeats"):
        FlowDataset(days=(DayRecord("2024-03-04"),), flows=np.ones((1, 12)),
                    interval_minutes=360, movements=("A", "B", "A"))


def test_labels_with_commas_and_quotes_round_trip(tmp_path):
    ds = FlowDataset(days=(DayRecord("2024-03-04"), DayRecord("2024-03-05")),
                     flows=np.arange(24.0).reshape(2, 12), interval_minutes=360,
                     movements=("NB,L", 'S"B', '"q"'))
    csv_path, meta_path = tmp_path / "f.csv", tmp_path / "f.meta.json"
    save_dataset(ds, csv_path, meta_path)
    back = load_dataset(csv_path, meta_path)
    assert back.movements == ds.movements
    assert np.array_equal(back.flows, ds.flows)


TWO_DAYS = ("2024-01-01", "2024-01-02")


@pytest.mark.parametrize("days, named", [
    (("2024-01-01", "junk"), "junk"),  # not a date
    (("2024-01-01", "20240102"), "20240102"),  # not YYYY-MM-DD
    (TWO_DAYS[::-1], "day 2024-01-01"),  # unsorted
    ((TWO_DAYS[0], TWO_DAYS[0]), "day 2024-01-01"),  # repeated
])
def test_dataset_rejects_days_that_do_not_round_trip(tmp_path, days, named):
    """Each case was accepted, then failed to load or loaded back changed."""
    flows = np.arange(16.0).reshape(2, 8)

    def dataset(dates):
        return FlowDataset(days=tuple(map(DayRecord, dates)), flows=flows,
                           interval_minutes=360, movements=("A", "B"))

    with pytest.raises(ValidationError, match=re.escape(named)):
        dataset(days)
    ds = dataset(TWO_DAYS)
    csv_path, meta_path = tmp_path / "f.csv", tmp_path / "f.meta.json"
    save_dataset(ds, csv_path, meta_path)
    back = load_dataset(csv_path, meta_path)
    assert back.days == ds.days and np.array_equal(back.flows, ds.flows)


@pytest.mark.parametrize("block", [1, 2, 3, 7])
def test_line_ends_are_read_as_a_text_mode_file_reads_them(tmp_path, block):
    """\\r\\n, a lone \\r (also one before \\r\\n, which leaves a blank line)
    and \\n, and a last line without an end, in blocks read by either
    reader.  The shifts move every byte along, as a longer first line does."""
    rows = [f"2024-01-0{d},{mv},{k},{k}.5".encode()
            for d in (1, 2) for mv in ("A", "d" * 70) for k in range(1, 5)]
    ends = (b"\r\n", b"\r", b"\n", b"\r\r\n")
    p = tmp_path / "lines.csv"
    for shift in range(0, (block << 6) + 3):
        for last in (b"", b"\r"):
            p.write_bytes(b"#" + b"a" * shift + b"\r\ndate,movement,interval_index,flow_vph\r\n"
                          + b"".join(row + ends[i % 4] for i, row in enumerate(rows[:-1]))
                          + rows[-1] + last)
            with mock.patch.object(flowdata, "_BLOCK_LINES", block):
                got = outcome(load_csv, p, 360)
            assert got == outcome(rowwise_load_csv, p, 360), shift
            assert got[0][1] == (DayRecord("2024-01-01"), DayRecord("2024-01-02"))


def test_saved_files_take_the_c_reader(tmp_path, noisy):
    """Every block of a file that ``save_dataset`` writes is plain, so the
    row-wise reader reads only the lines up to the header."""
    ds, _ = noisy
    csv_path, meta_path = tmp_path / "f.csv", tmp_path / "f.meta.json"
    save_dataset(ds, csv_path, meta_path)
    csv_path.write_bytes(b"# manifest_hash=ab12\n" + csv_path.read_bytes())  # as a run stamps it
    plain_rows, taken = flowdata._plain_rows, []

    def spy(*args):
        rows = plain_rows(*args)
        taken.append(rows is not None)
        return rows

    with mock.patch.object(flowdata, "_BLOCK_LINES", 100), \
            mock.patch.object(flowdata, "_plain_rows", spy):
        back = load_dataset(csv_path, meta_path)
    assert np.array_equal(back.flows, ds.flows)
    assert len(taken) == -(-ds.flows.size // 100) and all(taken)


@pytest.mark.parametrize("block", [1, 2, 3, 7, flowdata._BLOCK_LINES])
@pytest.mark.parametrize("bad, named", [
    ([], 4),                                   # only the line that is not UTF-8
    ([(3, "2024-01-01,A,1,-1.0")], 3),         # a bad row before it wins
    ([(5, "2024-01-01,A,1,-1.0")], 4),         # it wins over a bad row after it
    ([(3, "2024-01-01,A,1")], 3),              # so does a short row before it
])
def test_line_that_is_not_utf8_is_an_offending_line(tmp_path, block, bad, named):
    lines = [b"# note", b"date,movement,interval_index,flow_vph"]
    lines += [f"2024-01-01,A,{k},{k}.5".encode() for k in range(1, 5)]
    lines.insert(3, b"2024-01-01,\xffA,2,1.0")
    for i, line in bad:
        lines[i - 1] = line.encode()
    p = tmp_path / "bad.csv"
    p.write_bytes(b"\r\n".join(lines) + b"\r\n")
    with mock.patch.object(flowdata, "_BLOCK_LINES", block):
        with pytest.raises(ValidationError, match=rf"^line {named}: ") as err:
            load_csv(p, 360)
    assert ("not UTF-8" in str(err.value)) == (named == 4)


def test_header_that_is_not_utf8_is_an_offending_line(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_bytes(b"\n# note\ndate,movement,interval_index,flow_vph\xe9\n")
    with pytest.raises(ValidationError, match="^line 3: not UTF-8: .* position 37"):
        load_csv(p, 360)


def test_bytes_cut_short_by_a_line_end_are_named_without_it(tmp_path):
    """Decoded with its \\r\\n, the cut sequence would read as an invalid
    continuation byte; the message describes the line's own bytes."""
    p = tmp_path / "bad.csv"
    p.write_bytes(b"date,movement,interval_index,flow_vph\r\n2024-01-01,A\xe2\x80\r\n")
    with pytest.raises(ValidationError) as err:
        load_csv(p, 360)
    assert str(err.value) == ("line 2: not UTF-8: 'utf-8' codec can't decode bytes in "
                              "position 12-13: unexpected end of data")


FLOWS = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1e-310, 2.2250738585072014e-308,
                                   1.7976931348623157e308, 1e300, 0.1, 118.66]),
                  st.floats(0.0, 1e6))


@given(st.lists(st.sampled_from(LABELS), min_size=1, max_size=4, unique=True),
       st.sampled_from([1440, 720, 360, 240, 60]), st.integers(1, 3), st.data())
@settings(max_examples=60, deadline=None)
def test_save_dataset_writes_the_row_writer_bytes(scratch_csv, movements, minutes, n_days,
                                                  data):
    t = 1440 // minutes
    flows = data.draw(st.lists(FLOWS, min_size=n_days * t * len(movements),
                               max_size=n_days * t * len(movements)))
    dates = [f"2024-01-{d:02d}" for d in range(1, n_days + 1)]
    ds = FlowDataset(days=tuple(DayRecord(d) for d in dates),
                     flows=np.array(flows).reshape(n_days, -1), interval_minutes=minutes,
                     movements=tuple(movements))
    meta_path = scratch_csv.with_suffix(".meta.json")
    save_dataset(ds, scratch_csv, meta_path)
    written = scratch_csv.read_bytes()
    rowwise_save_dataset(ds, scratch_csv)
    assert written == scratch_csv.read_bytes()
    back = load_dataset(scratch_csv, meta_path)
    assert back.flows.view(np.uint64).tobytes() == ds.flows.view(np.uint64).tobytes()
