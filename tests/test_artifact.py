"""Golden bytes for every versioned JSON artifact, and the reader's checks.

Each artifact is built from a tiny hand-made object whose floats are exactly
representable, so the expected text below does not depend on BLAS or on
float formatting.  The texts were produced by the serializers before the
envelope moved into ``flowcast.artifact``; any byte change shows here.  The
writers stamp the hash as a CLI run's commit does (the bank cache is not
stamped).
"""

import json

import numpy as np
import pytest

from flowcast import artifact
from flowcast.cli import RunManifest, _stamped
from flowcast.controller import (
    ControllerMode,
    PlsModelBank,
    PredictivePlan,
    predictive_plan_to_json,
)
from flowcast.flowdata import (
    DayRecord, FlowDataset, SplitSpec, dataset_csv, dataset_sidecar, load_dataset,
)
from flowcast.lowrank import PcaModel, pca_from_json, pca_to_json
from flowcast.pls import PlsModel, pls_from_json, pls_to_json
from flowcast.segmentation import SegmentationPlan, plan_from_json, plan_to_json
from flowcast.synth import SynthTruth

H = "ab" * 32

SPLIT_JSON = ('{"cutoff_index": 1, "predict_from": 2, "predict_to": 3, '
              '"predicted_stride": 1, "predictor_stride": 1}')
PLS_FIELDS = ('"mean_y": [0.25, 1.5], "mean_z": [2.0], "n_dropped": 1, '
              '"predicted_loadings": [[0.5], [-1.25]], "predictor_loadings": [[1.0]], '
              '"scores": [[0.5], [-0.5]], "split": ' + SPLIT_JSON + ', '
              '"y_residual_norm": 0.5, "z_residual_norm": 0.25')

GOLDEN = {
    "pca_model": (
        '{"components": [[1.0], [0.0]], "format_version": 1, '
        f'"kind": "pca_model", "manifest_hash": "{H}", "mean": [0.5, 1.25], '
        '"singular_value_sum": 1.25, "singular_values": [0.75], '
        '"weights": [[0.5], [-0.5]]}\n'
    ),
    "pls_model": (
        f'{{"format_version": 1, "kind": "pls_model", "manifest_hash": "{H}", '
        + PLS_FIELDS + '}\n'
    ),
    "pls_model_bank": (
        '{"format_version": 1, "horizons": {"1": 3}, "kind": "pls_model_bank", '
        '"models": [{"model": {"format_version": 1, "kind": "pls_model", '
        + PLS_FIELDS + '}, "period": 1, "time": 1}], "n_movements": 1}\n'
    ),
    "segmentation_plan": f"""\
{{
  "format_version": 1,
  "interval_minutes": 360,
  "kind": "segmentation_plan",
  "manifest_hash": "{H}",
  "movements": [
    "NB T"
  ],
  "n_intervals": 4,
  "n_periods": 2,
  "params": [
    [
      0.5
    ],
    [
      1.25
    ]
  ],
  "switch_times": [
    2
  ],
  "switch_times_hhmm": [
    "12:00"
  ],
  "total_cost": 0.75
}}
""",
    "predictive_plan": f"""\
{{
  "date": "2024-01-01",
  "decision_log": [
    {{
      "period": 1,
      "prediction": "pls:1:3",
      "t_opt": 3,
      "time": 3
    }}
  ],
  "format_version": 1,
  "interval_minutes": 360,
  "kind": "predictive_plan",
  "manifest_hash": "{H}",
  "mode": "segmentation_only",
  "n_intervals": 4,
  "n_periods": 2,
  "params": [
    [
      0.5
    ],
    [
      1.5
    ]
  ],
  "switch_times": [
    3
  ],
  "switch_times_hhmm": [
    "18:00"
  ]
}}
""",
    "manifest": """\
{
  "command": "synth",
  "configs": {
    "synth": {
      "seed": 7
    }
  },
  "inputs": {},
  "manifest_hash": "3d0c42b32bca29b09d9f28f827cdf1f178f34b1d701693f53110a32b12e78679",
  "out_dir": "out",
  "seed": 7,
  "tool_version": "0.1.0"
}
""",
    "dataset_sidecar": f"""\
{{
  "days": [
    {{
      "date": "2024-01-01",
      "day_of_week": "Mon"
    }},
    {{
      "date": "2024-01-02",
      "day_of_week": "Tue"
    }}
  ],
  "format_version": 1,
  "interval_minutes": 720,
  "manifest_hash": "{H}",
  "movements": [
    "NB T"
  ]
}}
""",
    "synth_ground_truth": f"""\
{{
  "components": [
    [
      1.0
    ]
  ],
  "format_version": 1,
  "kind": "synth_ground_truth",
  "manifest_hash": "{H}",
  "mean": [
    0.5
  ],
  "weight_scales": [
    1.5
  ],
  "weights": [
    [
      0.25
    ]
  ]
}}
""",
}


def tiny_pls() -> PlsModel:
    return PlsModel(
        predictor_loadings=np.array([[1.0]]), predicted_loadings=np.array([[0.5], [-1.25]]),
        scores=np.array([[0.5], [-0.5]]), mean_z=np.array([2.0]),
        mean_y=np.array([0.25, 1.5]),
        split=SplitSpec(cutoff_index=1, predict_from=2, predict_to=3), n_dropped=1,
        z_residual_norm=0.25, y_residual_norm=0.5,
    )


def tiny_dataset() -> FlowDataset:
    return FlowDataset(
        days=(DayRecord("2024-01-01"), DayRecord("2024-01-02")),
        flows=[[0.5, 1.25], [2.0, 0.0]], interval_minutes=720, movements=("NB T",),
    )


def write_pca(path):
    model = PcaModel(mean=[0.5, 1.25], components=[[1.0], [0.0]],
                     weights=[[0.5], [-0.5]], singular_values=[0.75],
                     singular_value_sum=1.25)
    artifact.write(_stamped(pca_to_json(model), H), path)


def write_pls(path):
    artifact.write(_stamped(pls_to_json(tiny_pls()), H), path)


def write_bank(path):
    artifact.write(PlsModelBank({(1, 1): tiny_pls()}, {1: 3}, n_movements=1).to_json(), path)


def write_plan(path):
    plan = SegmentationPlan(n_periods=2, n_intervals=4, switch_times=(2,),
                            params=[[0.5], [1.25]], total_cost=0.75, interval_minutes=360)
    artifact.write(_stamped(plan_to_json(plan, movements=["NB T"]), H), path)


def write_predictive(path):
    plan = PredictivePlan(
        n_periods=2, n_intervals=4, switch_times=(3,), params=[[0.5], [1.5]],
        mode=ControllerMode.SEGMENTATION_ONLY,
        decision_log=({"time": 3, "period": 1, "t_opt": 3, "prediction": "pls:1:3"},),
        interval_minutes=360,
    )
    artifact.write(_stamped(predictive_plan_to_json(plan, date="2024-01-01"), H), path)


def write_manifest(path):
    artifact.write(RunManifest(command="synth", inputs={}, seed=7,
                               configs={"synth": {"seed": 7}}, out_dir="out",
                               tool_version="0.1.0").document(), path)


def write_sidecar(path):
    artifact.write(_stamped(dataset_csv(tiny_dataset()), H), path.with_suffix(".csv"))
    artifact.write(_stamped(dataset_sidecar(tiny_dataset()), H), path)


def write_truth(path):
    truth = SynthTruth(mean=np.array([0.5]), components=np.array([[1.0]]),
                       weights=np.array([[0.25]]), weight_scales=np.array([1.5]))
    artifact.write(_stamped(truth.to_json_dict(), H), path)


WRITERS = {
    "pca_model": write_pca,
    "pls_model": write_pls,
    "pls_model_bank": write_bank,
    "segmentation_plan": write_plan,
    "predictive_plan": write_predictive,
    "manifest": write_manifest,
    "dataset_sidecar": write_sidecar,
    "synth_ground_truth": write_truth,
}


@pytest.mark.parametrize("kind", sorted(WRITERS))
def test_golden_bytes(kind, tmp_path):
    path = tmp_path / f"{kind}.json"
    WRITERS[kind](path)
    assert path.read_text(encoding="utf-8") == GOLDEN[kind]
    # the atomic writer leaves no temporary file behind
    assert {p.name for p in tmp_path.iterdir()} <= {path.name, f"{kind}.csv"}


def test_golden_documents_load_back(tmp_path):
    for kind, load in (("pca_model", pca_from_json), ("pls_model", pls_from_json),
                       ("pls_model_bank", PlsModelBank.from_json),
                       ("segmentation_plan", plan_from_json)):
        path = tmp_path / f"{kind}.json"
        path.write_text(GOLDEN[kind])
        load(path)
        load(json.loads(GOLDEN[kind]))
    sidecar = tmp_path / "flows.meta.json"
    write_sidecar(sidecar)
    ds = load_dataset(sidecar.with_suffix(".csv"), sidecar)
    assert np.array_equal(ds.flows, tiny_dataset().flows)


@pytest.mark.parametrize("kind", ["pca_model", "pls_model", "pls_model_bank",
                                  "segmentation_plan"])
def test_reader_rejects_wrong_kind_version_and_truncation(kind, tmp_path):
    doc = json.loads(GOLDEN[kind])
    with pytest.raises(ValueError, match=f"not a version-1 {kind} document"):
        artifact.read({**doc, "kind": "other"}, kind)
    with pytest.raises(ValueError, match=f"not a version-1 {kind} document"):
        artifact.read({**doc, "format_version": 2}, kind)
    path = tmp_path / "list.json"
    path.write_text(json.dumps([doc]))
    with pytest.raises(ValueError, match="not a version-1"):
        artifact.read(path, kind)
    path = tmp_path / "truncated.json"
    path.write_text(GOLDEN[kind][: len(GOLDEN[kind]) // 2])
    with pytest.raises(ValueError, match="invalid JSON"):
        artifact.read(path, kind)
    assert artifact.read(doc, kind) == doc


@pytest.mark.parametrize("field, value, named", [
    ("mean", None, "'mean' must be a 1-D array"),
    ("components", [[2.0], [float("nan")]], "'components' must be a 2-D array"),
    ("weights", [[0.5], [float("inf")]], "'weights' must be a 2-D array"),
    ("singular_values", [[0.75]], "'singular_values' must be a 1-D array"),
    ("singular_value_sum", None, "'singular_value_sum' must be a number"),
    ("singular_value_sum", True, "'singular_value_sum' must be a number"),
])
def test_pca_reader_names_a_bad_field(field, value, named):
    doc = {**json.loads(GOLDEN["pca_model"]), field: value}
    with pytest.raises(ValueError, match=named):
        pca_from_json(doc)


@pytest.mark.parametrize("kind", ["pca_model", "predictive_plan", None])
def test_writer_refuses_a_non_finite_number(kind, tmp_path):
    """No reader takes one back, so a document holding one is not written."""
    for value in (float("inf"), float("-inf"), float("nan")):
        doc = artifact.document(kind, {"params": [[0.5, value]]})
        with pytest.raises(ValueError) as err:
            artifact.write(doc, tmp_path / "doc.json")
        assert str(err.value) == f"{kind or 'JSON'} document holds a non-finite number"
    assert not any(tmp_path.iterdir())


def test_reader_names_a_file_nested_too_deeply(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000)
    with pytest.raises(ValueError) as err:
        artifact.read(path, "pca_model")
    assert str(err.value).startswith(f"{path}: invalid JSON (maximum recursion depth")


def test_sidecar_has_no_kind():
    doc = json.loads(GOLDEN["dataset_sidecar"])
    assert artifact.read(doc, None) == doc
    with pytest.raises(ValueError, match="not a version-1 document"):
        artifact.read({**doc, "format_version": 2}, None)
    with pytest.raises(ValueError):
        artifact.read(doc, "pca_model")


def test_render_hhmm():
    assert artifact.render_hhmm(0, 15) == "00:00"
    assert artifact.render_hhmm(41, 15) == "10:15"
    assert artifact.render_hhmm(96, 15) == "24:00"
