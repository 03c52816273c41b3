import csv
import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from flowcast.cli import _intersection_from_config, main
from flowcast.flowdata import (
    CSV_HEADER, DayRecord, FlowDataset, SplitSpec, load_dataset, split_at,
)
from flowcast.pls import fit_pls_kernel, predict
from flowcast.synth import movement_labels

README = Path(__file__).resolve().parents[1] / "README.md"

SYNTH_ARGS = ["synth", "--seed", "11", "--config"]


def write_synth_config(path: Path) -> Path:
    cfg = {"synth": {"n_days": 10, "intervals_per_day": 24, "n_movements": 4,
                     "n_components": 2, "noise_sigma": 5.0}}
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("cli_data")
    cfg = write_synth_config(root / "config.json")
    rc = main(["synth", "--seed", "11", "--config", str(cfg),
               "--out-dir", str(root / "synth")])
    assert rc == 0
    return root / "synth"


def read_manifest_hash(out_dir: Path) -> str:
    doc = json.loads((out_dir / "manifest.json").read_text())
    return doc["manifest_hash"]


def test_synth_artifacts_and_hash_stamps(dataset_dir):
    for name in ("flows.csv", "flows.meta.json", "ground_truth.json", "manifest.json"):
        assert (dataset_dir / name).exists()
    mhash = read_manifest_hash(dataset_dir)
    assert len(mhash) == 64
    first_line = (dataset_dir / "flows.csv").read_text().splitlines()[0]
    assert first_line == f"# manifest_hash={mhash}"
    truth = json.loads((dataset_dir / "ground_truth.json").read_text())
    assert truth["manifest_hash"] == mhash
    assert len(truth["weights"]) == 10


def test_pca_command(dataset_dir, tmp_path):
    out = tmp_path / "pca"
    rc = main(["pca", "--input", str(dataset_dir / "flows.csv"),
               "--out-dir", str(out), "--n-components", "2"])
    assert rc == 0
    mhash = read_manifest_hash(out)
    model = json.loads((out / "pca_model.json").read_text())
    assert model["manifest_hash"] == mhash
    with open(out / "explained_variance.csv") as fh:
        assert fh.readline() == f"# manifest_hash={mhash}\n"
        rows = list(csv.DictReader(fh))
    fractions = [float(r["fraction"]) for r in rows]
    assert len(fractions) == 2
    assert all(0.0 <= f <= 1.0 for f in fractions)
    assert fractions[0] >= fractions[1]
    with open(out / "weights.csv") as fh:
        fh.readline()
        assert len(list(csv.DictReader(fh))) == 10


def test_predict_holdout(dataset_dir, tmp_path):
    out = tmp_path / "pred"
    rc = main(["predict", "--input", str(dataset_dir / "flows.csv"),
               "--date", "2024-01-04", "--out-dir", str(out),
               "--n-components", "2"])
    assert rc == 0
    with open(out / "prediction.csv") as fh:
        fh.readline()
        rows = list(csv.DictReader(fh))
    # default split on a 24-interval day: observe 1..10, predict 11..24
    assert len(rows) == 4 * 14
    assert {r["movement"] for r in rows} == {"NB LT", "NB T", "NB RT", "SB LT"}
    assert min(int(r["interval"]) for r in rows) == 11
    for r in rows:
        assert r["actual"] != ""
        float(r["predicted"]), float(r["mean"])


def test_predict_external_sample(dataset_dir, tmp_path):
    ds = load_dataset(dataset_dir / "flows.csv", dataset_dir / "flows.meta.json")
    day = ds.day_grid(3)
    lines = [",".join(CSV_HEADER)] + [
        f"{ds.days[3].date},{movement},{t},{float(day[t - 1, m])!r}"
        for m, movement in enumerate(ds.movements) for t in range(1, 11)
    ]
    sample = tmp_path / "sample.csv"
    sample.write_text("\n".join(lines) + "\n")
    out = tmp_path / "pred"
    rc = main(["predict", "--input", str(dataset_dir / "flows.csv"),
               "--sample", str(sample), "--cutoff", "10", "--predictor-stride", "2",
               "--n-components", "2", "--out-dir", str(out)])
    assert rc == 0
    with open(out / "prediction.csv") as fh:
        fh.readline()
        predicted = [float(r["predicted"]) for r in csv.DictReader(fh)]
    spec = SplitSpec(cutoff_index=10, predict_from=11, predict_to=24, predictor_stride=2)
    z, y = split_at(ds, spec)
    expected = predict(fit_pls_kernel(z, y, 2, split=spec), z[3])
    assert predicted == pytest.approx(expected, abs=1e-6)


@pytest.mark.parametrize("sample, named", [
    ('{"kind": "sample"}\n', "line 1: expected header"),   # a JSON file
    (",".join(CSV_HEADER) + "\n2024-01-01,NB_T,1,1.0\n", "sample is missing movements"),
], ids=["json", "missing-movement"])
def test_predict_reads_its_sample_before_writing(sample, named, dataset_dir, tmp_path,
                                                 capsys):
    path = tmp_path / "sample.csv"
    path.write_text(sample)
    out = tmp_path / "pred"
    out.mkdir()
    (out / "keep.txt").write_text("kept")
    rc = main(["predict", "--input", str(dataset_dir / "flows.csv"), "--sample", str(path),
               "--out-dir", str(out)])
    err = capsys.readouterr().err
    assert rc == 1 and err.startswith("error:") and named in err and err.count("\n") == 1
    assert tree_bytes(out) == {Path("keep.txt"): b"kept"}


def test_predict_needs_date_or_sample(dataset_dir, tmp_path, capsys):
    rc = main(["predict", "--input", str(dataset_dir / "flows.csv"),
               "--out-dir", str(tmp_path / "x")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_segment_command(dataset_dir, tmp_path, capsys):
    out = tmp_path / "seg"
    rc = main(["segment", "--input", str(dataset_dir / "flows.csv"),
               "--out-dir", str(out), "--segments", "3"])
    assert rc == 0
    assert "3-period plan" in capsys.readouterr().out
    doc = json.loads((out / "plan.json").read_text())
    assert doc["kind"] == "segmentation_plan"
    times = doc["switch_times"]
    assert len(times) == 2 and times[0] < times[1]


def test_loocv_command(dataset_dir, tmp_path):
    out = tmp_path / "cv"
    rc = main(["loocv", "--input", str(dataset_dir / "flows.csv"),
               "--out-dir", str(out), "--n-components", "2"])
    assert rc == 0
    with open(out / "loocv.csv") as fh:
        fh.readline()
        rows = list(csv.DictReader(fh))
    assert len(rows) == 10
    summary = json.loads((out / "loocv_summary.json").read_text())
    assert summary["n_days"] == 10
    assert 0.0 <= summary["fraction_positive_decrease"] <= 1.0
    assert summary["n_positive_decrease"] == sum(
        1 for r in rows if float(r["decrease"]) > 0)


def test_loocv_component_count_outside_range_exits_1(dataset_dir, tmp_path, capsys):
    for n in (0, 9):  # 10 days: each fold has 9, so at most 8 components
        rc = main(["loocv", "--input", str(dataset_dir / "flows.csv"),
                   "--out-dir", str(tmp_path / "cv"), "--n-components", str(n)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: n_components={n} outside [1, 8] for 10 days\n")


def test_control_single_date(dataset_dir, tmp_path):
    out = tmp_path / "ctl"
    rc = main(["control", "--input", str(dataset_dir / "flows.csv"),
               "--out-dir", str(out), "--date", "2024-01-05",
               "--segments", "3", "--window", "1", "--n-components", "2"])
    assert rc == 0
    mhash = read_manifest_hash(out)
    assert (out / "plan.json").exists()
    assert list((out / "cache").glob("bank_*.json"))
    for suffix in ("seg", "seg_params"):
        doc = json.loads((out / f"predictive_plan_2024-01-05_{suffix}.json").read_text())
        assert doc["manifest_hash"] == mhash
    with open(out / "delay_2024-01-05.csv") as fh:
        assert fh.readline() == f"# manifest_hash={mhash}\n"
        rows = list(csv.DictReader(fh))
    assert len(rows) == 24
    report = json.loads((out / "delay_report.json").read_text())
    assert len(report["days"]) == 1
    day = report["days"][0]
    assert day["lower_bound"] <= day["nominal"] + 1e-6
    assert day["improvement_seg"] == pytest.approx(
        day["nominal"] - day["predictive_seg"])


def test_control_with_explicit_plan(dataset_dir, tmp_path):
    seg_out = tmp_path / "seg"
    main(["segment", "--input", str(dataset_dir / "flows.csv"),
          "--out-dir", str(seg_out), "--segments", "2"])
    out = tmp_path / "ctl"
    rc = main(["control", "--input", str(dataset_dir / "flows.csv"),
               "--out-dir", str(out), "--date", "2024-01-03",
               "--plan", str(seg_out / "plan.json"),
               "--window", "1", "--n-components", "2"])
    assert rc == 0
    assert not (out / "plan.json").exists()  # plan came from the file
    doc = json.loads((out / "predictive_plan_2024-01-03_seg.json").read_text())
    assert len(doc["switch_times"]) == 1


def tree_bytes(root: Path) -> dict:
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_damaged_bank_cache_is_rebuilt(dataset_dir, tmp_path, capsys):
    out = tmp_path / "ctl"
    argv = ["control", "--input", str(dataset_dir / "flows.csv"), "--out-dir", str(out),
            "--date", "2024-01-05", "--segments", "3", "--window", "1",
            "--n-components", "2"]
    assert main(argv) == 0
    first = tree_bytes(out)
    (cache_file,) = (out / "cache").glob("bank_*.json")
    text = cache_file.read_text()
    no_models = json.loads(text)
    del no_models["models"]
    no_time = json.loads(text)
    del no_time["models"][0]["time"]
    no_cutoff = json.loads(text)
    del no_cutoff["models"][0]["model"]["split"]["cutoff_index"]
    extra_key = json.loads(text)
    extra_key["models"][-1]["model"]["split"]["horizon"] = 3
    for damaged, why in ((text[: len(text) // 2], "invalid JSON"),  # truncated
                         (json.dumps(no_models), "'models'"),
                         (json.dumps(no_time), "'time'"),
                         (json.dumps(no_cutoff), "'cutoff_index' is missing"),
                         (json.dumps(extra_key), "'horizon' is unknown")):
        cache_file.write_text(damaged)
        capsys.readouterr()
        assert main(argv) == 0
        err = capsys.readouterr().err
        assert "damaged bank cache" in err and why in err
        assert tree_bytes(out) == first


def _null_time(doc):
    doc["models"][0]["time"] = None


def _null_n_dropped(doc):
    doc["models"][0]["model"]["n_dropped"] = None


def _empty_horizons(doc):
    doc["horizons"] = []


def _null_mean_z(doc):
    doc["models"][0]["model"]["mean_z"] = None


def _wrong_loading_shapes(doc):
    model = doc["models"][0]["model"]
    model["predictor_loadings"] = model["predictor_loadings"][:-1]


def _missing_model(doc):
    del doc["models"][-1]


def _wrong_n_movements(doc):
    doc["n_movements"] += 1


@pytest.mark.parametrize("damage", [_null_time, _null_n_dropped, _empty_horizons,
                                    _null_mean_z, _wrong_loading_shapes, _missing_model,
                                    _wrong_n_movements])
def test_damaged_bank_cache_is_refitted(damage, dataset_dir, tmp_path, capsys):
    """A cache that parses but does not fit the run is refitted and rewritten."""
    out = tmp_path / "ctl"
    argv = ["control", "--input", str(dataset_dir / "flows.csv"), "--out-dir", str(out),
            "--date", "2024-01-05", "--segments", "3", "--window", "1",
            "--n-components", "2"]
    assert main(argv) == 0
    first = tree_bytes(out)
    (cache_file,) = (out / "cache").glob("bank_*.json")
    doc = json.loads(cache_file.read_text())
    damage(doc)
    cache_file.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(argv) == 0
    err = capsys.readouterr().err
    assert err.startswith("warning: refitting damaged bank cache") and err.count("\n") == 1
    assert tree_bytes(out) == first  # cache rewritten, delay_report.json unchanged


def test_bank_cache_under_the_key_without_fit_revision_is_not_read(dataset_dir, tmp_path,
                                                                   monkeypatch, capsys):
    """A cache keyed as before the fit revision entered the key was fitted by
    the older arithmetic: the run refits instead of reading it."""
    from flowcast import __version__, cli
    from flowcast.segmentation import plan_to_json

    out = tmp_path / "ctl"
    argv = ["control", "--input", str(dataset_dir / "flows.csv"), "--out-dir", str(out),
            "--date", "2024-01-05", "--segments", "3", "--window", "1",
            "--n-components", "2"]
    seen, fits = [], []
    real_bank_for, real_build = cli._bank_for, cli.build_model_bank
    monkeypatch.setattr(cli, "_bank_for", lambda *a: seen.append(a) or real_bank_for(*a))
    monkeypatch.setattr(cli, "build_model_bank", lambda *a: fits.append(a) or real_build(*a))
    assert main(argv) == 0
    first = tree_bytes(out)
    ds, plan, ctrl_cfg, n_components, cache_dir = seen[0]
    (cache_file,) = cache_dir.glob("bank_*.json")
    old_material = json.dumps({
        "dataset": cli._dataset_hash(ds), "plan": plan_to_json(plan),
        "window_halfwidth": ctrl_cfg.window_halfwidth, "n_components": n_components,
        "tool_version": __version__}, sort_keys=True)
    old_file = cache_dir / f"bank_{hashlib.sha256(old_material.encode()).hexdigest()[:16]}.json"
    assert old_file != cache_file
    # A bank that fits the plan, so it would be used if its key matched.
    doc = json.loads(cache_file.read_text())
    for entry in doc["models"]:
        entry["model"]["predicted_loadings"] = (
            2.0 * np.array(entry["model"]["predicted_loadings"])).tolist()
    cache_file.rename(old_file)
    old_file.write_text(json.dumps(doc))
    old_bytes = old_file.read_bytes()
    capsys.readouterr()
    assert main(argv) == 0
    assert len(fits) == 2 and capsys.readouterr().err == ""
    assert old_file.read_bytes() == old_bytes
    old_file.unlink()
    assert tree_bytes(out) == first


def test_rerun_same_out_dir_is_byte_identical(tmp_path):
    cfg = write_synth_config(tmp_path / "config.json")
    out = tmp_path / "synth"
    argv = ["synth", "--seed", "3", "--config", str(cfg), "--out-dir", str(out)]
    assert main(argv) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
    assert main(argv) == 0
    after = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
    assert before == after


def test_exit_codes(dataset_dir, tmp_path, capsys):
    assert main(["pca", "--out-dir", str(tmp_path / "a")]) == 1  # no --input
    assert "error:" in capsys.readouterr().err
    assert main(["pca", "--input", str(tmp_path / "nope.csv"),
                 "--out-dir", str(tmp_path / "b")]) == 2  # missing file
    assert "i/o error:" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["synth", "--config", str(bad),
                 "--out-dir", str(tmp_path / "c")]) == 1
    assert main(["frobnicate"]) == 1  # unknown command is a usage error
    assert "error:" in capsys.readouterr().err
    rc = main(["segment", "--input", str(dataset_dir / "flows.csv"),
               "--out-dir", str(tmp_path / "d"), "--segments", "99"])
    assert rc == 1  # more periods than intervals
    capsys.readouterr()
    for command, block, key in (
            ("synth", {"synth": {"seeed": 3}}, "seeed"),  # unknown key
            ("control", {"intersection": {"cycle": 100}}, "cycle"),
            ("control", {"intersection": {"_plan_greens": {}}}, "_plan_greens"),  # not a setting
            ("synth", {"synth": {"n_days": "x"}}, "'synth'"),  # wrong type
            ("control", {"intersection": {"cycle_seconds": "x"}}, "'intersection'"),
            ("control", {"intersection": {"min_green_fraction": 0.0}}, "min_green"),
            ("control", {"controller": {"clamp_predictions": "no"}}, "clamp_predictions"),
            ("control", {"intersection": {"cycle_seconds": float("nan")}}, "cycle_seconds"),
            ("control", {"intersection": {"phases": [[1.5, 2], [0, 3]]}}, "phases"),
            ("synth", {"synth": {"noise_sigma": float("nan")}}, "noise_sigma"),
            ("synth", {"synth": {"noise_sigma": float("inf")}}, "noise_sigma"),
            ("synth", {"synth": {"anomaly_days": [[3, [float("nan"), 0, 0, 0]]]}},
             "anomaly_days"),
            ("synth", {"synth": {"anomaly_days": [[3, [float("inf"), 0, 0, 0]]]}},
             "anomaly_days"),
            ("synth", {"synth": {"anomaly_days": [[1.5, [1.0, 0, 0, 0]]]}}, "anomaly_days"),
            ("synth", {"synth": {"intervals_per_day": True}}, "intervals_per_day"),
            ("synth", {"synth": {"intervals_per_day": 0}}, "intervals_per_day")):
        cfg = tmp_path / f"{command}_bad.json"
        cfg.write_text(json.dumps(block))
        rc = main([command, "--input", str(dataset_dir / "flows.csv"),
                   "--config", str(cfg), "--out-dir", str(tmp_path / command)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err and err.count("\n") == 1
        assert not (tmp_path / command / "manifest.json").exists()  # rejected before it
    rc = main(["predict", "--input", str(dataset_dir / "flows.csv"), "--date", "2024-01-04",
               "--sample", str(dataset_dir / "flows.csv"), "--out-dir", str(tmp_path / "g")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--sample" in err and err.count("\n") == 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # rejected before any arithmetic
        rc = main(["segment", "--input", str(dataset_dir / "flows.csv"),
                   "--out-dir", str(tmp_path / "f"), "--overflow-penalty", "inf"])
    assert rc == 1
    assert capsys.readouterr().err == "error: overflow_penalty must be finite\n"
    plan = tmp_path / "plan.json"  # right kind and version, no fields
    plan.write_text(json.dumps({"format_version": 1, "kind": "segmentation_plan"}))
    rc = main(["control", "--input", str(dataset_dir / "flows.csv"), "--plan", str(plan),
               "--out-dir", str(tmp_path / "e")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'n_periods'" in err and err.count("\n") == 1


@pytest.mark.parametrize("extra", [
    ["control", "--segments", "7", "--window", "3"],  # switch windows overlap
    ["control", "--segments", "3", "--window", "1", "--date", "2099-01-01"],
    ["control", "--segments", "3", "--window", "1", "--date", "2099-01-01", "--plan", "PLAN"],
    ["control", "--plan", "PLAN", "--window", "20"],
    ["segment", "--segments", "500"],
    ["segment", "--date", "2099-01-01"],
])
def test_failed_run_writes_nothing(extra, dataset_dir, tmp_path, capsys):
    seg = tmp_path / "seg"
    assert main(["segment", "--input", str(dataset_dir / "flows.csv"),
                 "--segments", "3", "--out-dir", str(seg)]) == 0
    capsys.readouterr()
    argv = [str(seg / "plan.json") if a == "PLAN" else a for a in extra]
    out = tmp_path / "out"
    rc = main([*argv, "--input", str(dataset_dir / "flows.csv"), "--out-dir", str(out)])
    err = capsys.readouterr().err
    assert rc == 1 and err.startswith("error:") and err.count("\n") == 1, err
    assert not out.exists() or not any(out.rglob("*"))


def test_default_control_on_the_readme_data_exits_1_writing_nothing(tmp_path, capsys):
    data = tmp_path / "data"
    assert main(["synth", "--seed", "7", "--out-dir", str(data)]) == 0
    capsys.readouterr()
    out = tmp_path / "runs" / "ctl"
    rc = main(["control", "--input", str(data / "flows.csv"), "--out-dir", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == ("error: switch windows overlap: taus 22 and 26 "
                                       "with halfwidth 3\n")
    assert not out.exists()


@pytest.mark.parametrize("field, value, named", [
    ("n_periods", None, "'n_periods' must be an integer"),
    ("switch_times", None, "'switch_times' must be a list"),
    ("switch_times", [10.5], "switch_times [10.5] must be integers"),
    ("switch_times", [None], "switch_times [None] must be integers"),
    ("params", None, "'params' must be a 2-D array"),
    ("params", [[1.0, 2.0, 3.0, float("nan")], [1.0, 2.0, 3.0, 4.0]], "'params' must be"),
    ("interval_minutes", "15", "'interval_minutes' must be an integer"),
    ("interval_minutes", 30, "30-minute intervals"),
    ("n_intervals", 48, "plan has 48 intervals per day, the data 24"),
    ("params", [[1.0, -2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0]],
     "plan parameter of period 1, movement 2 is negative: -2.0"),
])
def test_bad_plan_exits_1(field, value, named, dataset_dir, tmp_path, capsys):
    seg = tmp_path / "seg"
    assert main(["segment", "--input", str(dataset_dir / "flows.csv"),
                 "--out-dir", str(seg), "--segments", "2"]) == 0
    doc = json.loads((seg / "plan.json").read_text())
    doc[field] = value
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(doc))
    capsys.readouterr()
    rc = main(["control", "--input", str(dataset_dir / "flows.csv"), "--plan", str(plan),
               "--out-dir", str(tmp_path / "ctl"), "--window", "1", "--n-components", "2"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err and err.count("\n") == 1
    assert not (tmp_path / "ctl").exists()


def test_a_warning_prints_as_one_line(dataset_dir, tmp_path, capsys):
    """Dropping an incomplete day is one ``warning:`` line, and the run writes
    the bytes it writes for the file without that day."""
    lines = (dataset_dir / "flows.csv").read_text().splitlines(keepends=True)
    flows, out = tmp_path / "flows.csv", tmp_path / "plan"   # no sidecar
    trees = []
    for kept, err in ((lines[:-1], "warning: dropping 1 incomplete day(s): 2024-01-10\n"),
                      ([x for x in lines if not x.startswith("2024-01-10,")], "")):
        flows.write_text("".join(kept))
        assert main(["segment", "--input", str(flows), "--interval-minutes", "60",
                     "--segments", "2", "--out-dir", str(out)]) == 0
        assert capsys.readouterr().err == err
        trees.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert trees[0] == trees[1] and "plan.json" in trees[0]


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "flowcast" in capsys.readouterr().out


def readme_block(heading: str, fence: str) -> str:
    """The first ``fence`` code block after ``heading`` in README.md."""
    text = README.read_text()
    after = text[text.index(heading):]
    start = after.index(f"```{fence}\n") + len(fence) + 4
    return after[start: after.index("```", start)]


def test_readme_data_format_header_matches_loader():
    header = readme_block("## Data format", "csv").splitlines()[0]
    assert header == ",".join(CSV_HEADER)


def test_readme_config_block_is_accepted(tmp_path):
    block = readme_block("### Config file", "json")
    cfg = tmp_path / "config.json"
    cfg.write_text(block)
    assert main(["synth", "--config", str(cfg), "--out-dir", str(tmp_path / "s")]) == 0
    ds = FlowDataset(days=(DayRecord("2024-01-01"), DayRecord("2024-01-02")),
                     flows=np.zeros((2, 96 * 12)), interval_minutes=15,
                     movements=movement_labels(12))
    ic = _intersection_from_config(ds, json.loads(block))
    assert ic.cycle_seconds == 120 and ic.n_phases == 4


# SHA-256 of the sorted ``sha256sum``-style listing of the tree the README
# command sequence writes (small synth config, relative paths), as recorded
# before the column-wise CSV parser and the batched cost table replaced their
# per-row and per-window loops, and re-pinned once when the leave-one-out
# evaluation moved to kernel space: that moved ``loocv_summary.json``'s
# ``mean_decrease`` by 2 ulps (every ``loocv.csv`` byte stayed), and once more
# when the green-split search moved to the coefficient-form delay kernel and a
# 40-step golden section: that moved ``delay_report.json``'s scenario totals
# by at most 4.6e-9 relative (every other file's bytes stayed), and once more
# when kernel PLS moved to rank-1 deflation, einsum Grams and one Gram pass
# for the model bank, whose cache key gained the fit revision: that renamed
# and moved the bank cache (at most 3.5e-12 relative per float) and moved one
# float each of ``loocv_summary.json`` and the seg+params plan by 1 ulp.  It
# holds at one and at two OpenBLAS threads.  A same-bytes refactor must keep it.
README_TREE_SHA256 = "f086005565a2f57ba54018350bad2d446240a773f5d31a7a8418d316259580cc"


def test_readme_sequence_tree_is_byte_identical(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_synth_config(Path("config.json"))
    inp = ["--input", "runs/data/flows.csv"]
    for argv in (
            ["synth", "--seed", "7", "--config", "config.json", "--out-dir", "runs/data"],
            ["pca", *inp, "--n-components", "2", "--out-dir", "runs/pca"],
            ["predict", *inp, "--date", "2024-01-04", "--n-components", "2",
             "--out-dir", "runs/pred"],
            ["segment", *inp, "--segments", "3", "--out-dir", "runs/plan"],
            ["loocv", *inp, "--n-components", "2", "--out-dir", "runs/cv"],
            ["control", *inp, "--segments", "3", "--window", "1", "--date", "2024-01-05",
             "--n-components", "2", "--out-dir", "runs/ctl"]):
        assert main(argv) == 0, argv
    listing = "".join(f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.as_posix()}\n"
                      for p in sorted(Path("runs").rglob("*")) if p.is_file())
    assert hashlib.sha256(listing.encode()).hexdigest() == README_TREE_SHA256, listing


def test_readme_control_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    """The README's ``loocv`` and single-date ``control`` on the README data
    write the same bytes at one and at two OpenBLAS threads.  OpenBLAS reads
    its thread count when numpy loads, so each count runs in its own process:
    exactly two subprocesses."""
    import flowcast

    data = tmp_path / "data"
    assert main(["synth", "--seed", "7", "--out-dir", str(data)]) == 0
    script = (
        "import sys\n"
        "from flowcast.cli import main\n"
        "inp = ['--input', sys.argv[1]]\n"
        "sys.exit(main(['loocv', *inp, '--n-components', '4', '--out-dir', 'runs/cv'])\n"
        "         or main(['control', *inp, '--segments', '5', '--window', '3',\n"
        "                  '--date', '2024-02-14', '--out-dir', 'runs/ctl']))\n")
    package_root = str(Path(flowcast.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    trees = []
    for threads in ("1", "2"):
        cwd = tmp_path / f"threads_{threads}"
        cwd.mkdir()
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": path}
        done = subprocess.run([sys.executable, "-c", script, str(data / "flows.csv")],
                              cwd=cwd, env=env, capture_output=True, text=True, timeout=600)
        assert done.returncode == 0, done.stderr
        trees.append(tree_bytes(cwd / "runs"))
    # loocv: manifest, table, summary; control: manifest, plan, bank cache,
    # delay CSV and report, two predictive plans
    assert trees[0].keys() == trees[1].keys() and len(trees[0]) == 10
    for name, content in trees[0].items():
        assert trees[1][name] == content, name


def test_sidecar_label_csv_cannot_read_back_exits_1(dataset_dir, tmp_path, capsys):
    """So do a sidecar weekday tag other than the date's, a sidecar
    without its movements, and a sidecar field of the wrong type: each is
    one ``error:`` line naming the fault."""
    data = tmp_path / "data"
    data.mkdir()
    (data / "flows.csv").write_bytes((dataset_dir / "flows.csv").read_bytes())
    original = (dataset_dir / "flows.meta.json").read_text()

    def relabel(meta):
        meta["movements"][0] = " " + meta["movements"][0]
        return repr(meta["movements"][0])

    def retag(meta):
        assert meta["days"][0] == {"date": "2024-01-01", "day_of_week": "Mon"}
        meta["days"][0]["day_of_week"] = "Fri"
        return "2024-01-01"

    def drop_movements(meta):
        del meta["movements"]
        return "'movements'"

    def setter(name, value, named):
        def edit(meta):
            meta[name] = value
            return named
        edit.__name__ = f"{name}={value!r}"
        return edit

    for edit in (relabel, retag, drop_movements,
                 setter("days", ["2024-01-01"], "'date'"),
                 setter("days", None, "'days'"),
                 setter("interval_minutes", None, "'interval_minutes'"),
                 setter("interval_minutes", "15", "'interval_minutes'"),
                 setter("movements", "NB T", "'movements'")):
        meta = json.loads(original)
        named = edit(meta)
        (data / "flows.meta.json").write_text(json.dumps(meta))
        rc = main(["pca", "--input", str(data / "flows.csv"),
                   "--out-dir", str(tmp_path / "o")])
        assert rc == 1, edit.__name__
        err = capsys.readouterr().err
        assert err.startswith("error:") and named in err, err
        assert err.count("\n") == 1


@pytest.mark.parametrize("bad_before", [False, True])
def test_line_that_is_not_utf8_exits_1_naming_it(dataset_dir, tmp_path, capsys, bad_before):
    """Through ``--input`` and ``predict --sample``: the earliest offending
    line is named, whether or not it is the one that is not UTF-8."""
    data = tmp_path / "data"
    data.mkdir()
    lines = (dataset_dir / "flows.csv").read_bytes().splitlines()
    assert lines[1] == b"date,movement,interval_index,flow_vph"
    lines[5] = lines[5].replace(b",", b",\xff", 1)
    if bad_before:
        lines[3] = lines[3].rsplit(b",", 1)[0] + b",-1.0"
    (data / "flows.csv").write_bytes(b"\r\n".join(lines))
    (data / "flows.meta.json").write_bytes((dataset_dir / "flows.meta.json").read_bytes())
    sample = tmp_path / "sample.csv"
    sample.write_bytes(b"\n".join(lines[1:]))
    named = "line 4: negative flow_vph -1.0" if bad_before else "line 6: not UTF-8:"
    named_in_sample = named.replace("line 4", "line 3").replace("line 6", "line 5")
    for argv, expected in (
        (["pca", "--input", str(data / "flows.csv")], named),
        (["predict", "--input", str(dataset_dir / "flows.csv"), "--sample", str(sample),
          "--cutoff", "10"], named_in_sample),
    ):
        rc = main(argv + ["--out-dir", str(tmp_path / "o")])
        assert rc == 1, argv[0]
        err = capsys.readouterr().err
        assert err.startswith(f"error: {expected}") and err.count("\n") == 1, err
