import numpy as np
import pytest

from flowcast import (
    FlowDataset,
    center,
    explained_variance,
    fit_pca,
    project,
    reconstruct,
)
from flowcast import artifact
from flowcast.flowdata import DayRecord
from flowcast.lowrank import pca_from_json, pca_to_json


def make_dataset(flows, interval_minutes, movements):
    dates = [f"2024-01-{i + 1:02d}" for i in range(flows.shape[0])]
    days = tuple(DayRecord(d) for d in dates)
    return FlowDataset(days=days, flows=flows, interval_minutes=interval_minutes,
                       movements=movements)


def planted_rank2():
    """4 x 6 residual matrix with singular values exactly (3, 1)."""
    u1 = np.array([1.0, -1.0, 1.0, -1.0]) / 2.0
    u2 = np.array([1.0, 1.0, -1.0, -1.0]) / 2.0
    v1 = np.zeros(6)
    v1[0] = 1.0
    v2 = np.zeros(6)
    v2[3] = 1.0
    x = 3.0 * np.outer(u1, v1) + 1.0 * np.outer(u2, v2)
    return make_dataset(x + 100.0, 480, ("A", "B"))


def test_explained_variance_uses_singular_value_shares():
    ds = planted_rank2()
    model = fit_pca(center(ds), n_components=2)
    assert np.allclose(model.singular_values, [3.0, 1.0], atol=1e-9)
    ev = explained_variance(model)
    assert abs(ev[0] - 0.75) < 1e-9
    assert abs(ev[1] - 0.25) < 1e-9


def test_pca_matches_gram_eigendecomposition(small):
    ds, _ = small
    cm = center(ds)
    model = fit_pca(cm, n_components=5)

    lam, u = np.linalg.eigh(cm.residuals @ cm.residuals.T)
    lam, u = lam[::-1], u[:, ::-1]
    sigma = np.sqrt(np.clip(lam, 0.0, None))
    assert np.allclose(model.singular_values, sigma[:5], rtol=1e-10, atol=1e-8)
    assert abs(model.singular_value_sum - sigma.sum()) < 1e-6 * sigma.sum()
    for i in range(5):
        v = cm.residuals.T @ u[:, i] / sigma[i]
        assert abs(abs(v @ model.components[:, i]) - 1.0) < 1e-8


def test_components_orthonormal_and_sign_fixed(noisy):
    ds, _ = noisy
    model = fit_pca(center(ds), n_components=6)
    gram = model.components.T @ model.components
    assert np.allclose(gram, np.eye(6), atol=1e-10)
    for i in range(6):
        col = model.components[:, i]
        assert col[np.argmax(np.abs(col))] > 0
    assert np.all(np.diff(model.singular_values) <= 1e-12)


def test_weights_are_projections(noisy):
    ds, _ = noisy
    cm = center(ds)
    model = fit_pca(cm, n_components=4)
    assert np.allclose(model.weights, cm.residuals @ model.components, atol=1e-8)
    w = project(model, ds.flows[17])
    assert np.allclose(w, model.weights[17], atol=1e-8)


def test_reconstruction_error_monotone(noisy):
    ds, _ = noisy
    cm = center(ds)
    errs = []
    for n in (1, 2, 4, 8, 16):
        model = fit_pca(cm, n_components=n)
        approx = np.array([reconstruct(model, w) for w in model.weights])
        errs.append(np.linalg.norm(ds.flows - approx))
    assert all(b <= a + 1e-9 for a, b in zip(errs, errs[1:]))


def test_exact_rank_reconstruction(noiseless):
    ds, truth = noiseless
    model = fit_pca(center(ds), n_components=3)
    day = ds.flows[40]
    back = reconstruct(model, project(model, day))
    assert np.abs(back - day).max() < 1e-8
    ev = explained_variance(model)
    assert abs(ev.sum() - 1.0) < 1e-9


def test_fit_pca_bounds(small):
    ds, _ = small
    cm = center(ds)
    with pytest.raises(ValueError):
        fit_pca(cm, n_components=0)
    with pytest.raises(ValueError):
        fit_pca(cm, n_components=ds.n_days + 1)


def test_json_round_trip(small, tmp_path):
    ds, _ = small
    model = fit_pca(center(ds), n_components=3)
    artifact.write(pca_to_json(model), tmp_path / "pca.json")
    back = pca_from_json(tmp_path / "pca.json")
    for name in ("mean", "components", "weights", "singular_values"):
        assert np.array_equal(getattr(back, name), getattr(model, name)), name
    assert back.singular_value_sum == model.singular_value_sum
    x = reconstruct(model, model.weights[5])
    assert np.array_equal(reconstruct(back, back.weights[5]), x)
