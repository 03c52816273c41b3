import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowcast import (
    SplitSpec,
    fit_pls_kernel,
    loocv,
    predict,
    split_at,
)
from flowcast import artifact, pls
from flowcast.flowdata import DayRecord, FlowDataset
from flowcast.pls import LoocvRecord, pls_from_json, pls_to_json

from _oracles import fit_pls, refit_loocv


def random_instance(rng, d=12, dim_z=30, dim_y=18, rank=4, noise=0.05):
    """Z and a Y that depends on Z through a planted linear map."""
    z = rng.normal(size=(d, dim_z))
    b = rng.normal(size=(dim_z, dim_y)) * rng.binomial(1, 0.3, size=(dim_z, dim_y))
    y = z @ b + noise * rng.normal(size=(d, dim_y))
    return z, y


def assert_models_close(a, b, tol=1e-6):
    assert a.n_components == b.n_components
    scale = max(1.0, np.abs(a.predictor_loadings).max())
    assert np.abs(a.predictor_loadings - b.predictor_loadings).max() < tol * scale
    scale = max(1.0, np.abs(a.predicted_loadings).max())
    assert np.abs(a.predicted_loadings - b.predicted_loadings).max() < tol * scale
    assert np.abs(a.scores - b.scores).max() < tol


def test_kernel_fit_matches_the_direct_oracle(rng):
    for trial in range(5):
        z, y = random_instance(rng, d=10 + trial, rank=3 + trial % 2)
        direct = fit_pls(z, y, 4)
        kernel = fit_pls_kernel(z, y, 4)
        assert_models_close(direct, kernel)
        sample = rng.normal(size=z.shape[1])
        assert np.abs(predict(direct, sample) - predict(kernel, sample)).max() < 1e-6


def test_predict_training_mean_gives_target_mean(rng):
    z, y = random_instance(rng)
    for fitter in (fit_pls, fit_pls_kernel):
        model = fitter(z, y, 3)
        out = predict(model, z.mean(axis=0))
        assert np.abs(out - y.mean(axis=0)).max() < 1e-12


def test_scores_orthonormal(rng):
    z, y = random_instance(rng, d=15)
    for fitter in (fit_pls, fit_pls_kernel):
        model = fitter(z, y, 6)
        gram = model.scores.T @ model.scores
        assert np.abs(gram - np.eye(6)).max() < 1e-9


def test_loading_sign_convention(rng):
    z, y = random_instance(rng)
    for fitter in (fit_pls, fit_pls_kernel):
        model = fitter(z, y, 4)
        for i in range(model.n_components):
            p = model.predictor_loadings[:, i]
            lead = np.nonzero(np.abs(p) > 1e-12 * np.abs(p).max())[0][0]
            assert p[lead] > 0


def test_deflation_telescopes_to_zero(rng):
    """Full extraction reproduces the centered predictor matrix exactly."""
    d = 9
    z, y = random_instance(rng, d=d, dim_z=20, dim_y=12, noise=0.2)
    zc = z - z.mean(axis=0)
    for fitter in (fit_pls, fit_pls_kernel):
        model = fitter(z, y, d - 1)
        assert model.n_dropped == 0
        recon = model.scores @ model.predictor_loadings.T
        assert np.abs(recon - zc).max() < 1e-9 * max(1.0, np.abs(zc).max())
        assert model.z_residual_norm < 1e-8 * np.linalg.norm(zc)


def test_norm_bookkeeping(rng):
    """Squared norms removed by deflation telescope against the residual."""
    z, y = random_instance(rng, d=14)
    for fitter in (fit_pls, fit_pls_kernel):
        model = fitter(z, y, 5)
        zc = z - z.mean(axis=0)
        yc = y - y.mean(axis=0)
        removed = np.sum(model.predictor_loadings ** 2)
        total = np.linalg.norm(zc) ** 2
        assert abs(total - removed - model.z_residual_norm ** 2) < 1e-8 * total
        removed_y = np.sum(model.predicted_loadings ** 2)
        total_y = np.linalg.norm(yc) ** 2
        assert abs(total_y - removed_y - model.y_residual_norm ** 2) < 1e-8 * total_y


def test_prediction_is_affine(rng):
    z, y = random_instance(rng)
    model = fit_pls_kernel(z, y, 3)
    zbar, ybar = z.mean(axis=0), predict(model, z.mean(axis=0))
    s = z[4]
    for a in (0.25, 1.0, -2.0):
        lhs = predict(model, zbar + a * (s - zbar))
        rhs = ybar + a * (predict(model, s) - ybar)
        assert np.abs(lhs - rhs).max() < 1e-9 * max(1.0, np.abs(rhs).max())


def test_predict_batch_matches_rowwise(rng):
    z, y = random_instance(rng)
    model = fit_pls_kernel(z, y, 3)
    batch = predict(model, z[:5])
    assert batch.shape == (5, y.shape[1])
    for i in range(5):
        assert np.abs(batch[i] - predict(model, z[i])).max() < 1e-12
    with pytest.raises(ValueError):
        predict(model, np.zeros(z.shape[1] + 1))


def test_degenerate_target_stops_early(rng):
    z = rng.normal(size=(8, 10))
    y = np.ones((8, 6)) * 3.0  # constant: no covariance at all
    for fitter in (fit_pls, fit_pls_kernel):
        with pytest.warns(UserWarning, match="no covariance direction") as record:
            model = fitter(z, y, 2)
        assert not [w for w in record if w.category is RuntimeWarning]  # collapse, no cap
        assert model.n_components == 0
        assert model.n_dropped == 2
        assert np.abs(predict(model, z[0]) - 3.0).max() < 1e-12


def test_rank_deficient_predictor_drops_components(rng):
    u = rng.normal(size=(10, 1))
    z = u @ rng.normal(size=(1, 8))  # rank-1 predictors
    y = u @ rng.normal(size=(1, 5)) + 0.01 * rng.normal(size=(10, 5))
    for fitter in (fit_pls, fit_pls_kernel):
        with pytest.warns(UserWarning) as record:
            model = fitter(z, y, 4)
        assert not [w for w in record if w.category is RuntimeWarning]
        assert model.n_components == 1
        assert model.n_dropped == 3


@pytest.mark.parametrize("rank", [12, 4, 1])  # full-rank and rank-deficient PSD kernels
def test_rank1_deflation_matches_dense_projection(rng, rank):
    """``_deflate`` equals ``P K P`` with ``P = I - w w^T`` within 1e-12 of
    ``|K|``, step after step over several components: orthonormal directions,
    and the scores ``_kernel_scores`` itself takes from the deflated kernels."""
    d = 12
    a = rng.normal(size=(d, rank))
    k0 = a @ a.T
    scale = np.linalg.norm(k0)
    directions = list(np.linalg.qr(rng.normal(size=(d, d)))[0].T[:6])
    scores, _, _ = pls._kernel_scores(k0, k0, min(rank, 5), np.sqrt(np.trace(k0)))
    for omegas in (directions, scores):
        dense, rank1 = k0, k0
        for omega in omegas:
            proj = np.eye(d) - np.outer(omega, omega)
            dense = proj @ dense @ proj
            rank1 = pls._deflate(rank1, omega, omega @ rank1)
            assert np.abs(rank1 - dense).max() <= 1e-12 * scale
            assert np.array_equal(rank1, rank1.T)


def test_power_iteration_warns_only_when_the_restart_hits_the_cap(monkeypatch):
    kz, ky = np.diag([0.0, 2.0, 1.0]), np.eye(3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # The start e0 collapses to zero; the restart converges.
        v, lam = pls._power_leading_score(kz, ky, 1e-12)
    assert lam == pytest.approx(2.0) and abs(v[1]) == pytest.approx(1.0)
    monkeypatch.setattr(pls, "_POWER_MAX_ITER", 1)
    with pytest.warns(RuntimeWarning, match="did not converge in 1 iterations") as record:
        v, lam = pls._power_leading_score(np.diag([3.0, 2.0, 1.0]), ky, 1e-12)
    assert len(record) == 1 and v is not None


def test_fit_argument_validation(rng):
    z, y = random_instance(rng, d=6)
    with pytest.raises(ValueError, match="Z has 6 days but Y has 5"):
        fit_pls_kernel(z, y[:5], 2)
    with pytest.raises(ValueError, match="outside"):
        fit_pls_kernel(z, y, 0)
    with pytest.raises(ValueError, match="outside"):
        fit_pls_kernel(z, y, 6)  # needs n <= D - 1
    with pytest.raises(ValueError, match="2-D"):
        fit_pls_kernel(z[0], y[0], 1)
    with pytest.raises(ValueError, match="at least 2 days"):
        fit_pls_kernel(z[:1], y[:1], 1)


def test_planted_split_prediction(noiseless):
    """Rank-3 noiseless days are predicted exactly from their mornings."""
    ds, _ = noiseless
    spec = SplitSpec(cutoff_index=40, predict_from=41, predict_to=96)
    z, y = split_at(ds, spec)
    model = fit_pls_kernel(z, y, 3, split=spec)
    pred = predict(model, z)
    scale = np.abs(y).max()
    assert np.abs(pred - y).max() < 1e-8 * scale
    assert model.split == spec


def test_loocv_matches_manual_fold(small):
    ds, _ = small
    spec = SplitSpec(cutoff_index=20, predict_from=21, predict_to=48)
    records = loocv(ds, spec, n_components=2)
    assert len(records) == ds.n_days
    assert isinstance(records[0], LoocvRecord)

    z, y = split_at(ds, spec)
    hold = 7
    model = fit_pls_kernel(np.delete(z, hold, 0), np.delete(y, hold, 0), 2,
                           split=spec)
    e_pred = float(np.abs(y[hold] - predict(model, z[hold])).sum())
    e_base = float(np.abs(y[hold] - np.delete(y, hold, 0).mean(axis=0)).sum())
    rec = records[hold]
    assert rec.date == ds.days[hold].date
    assert rec.e_pred == pytest.approx(e_pred, abs=1e-9)
    assert rec.e_base == pytest.approx(e_base, abs=1e-9)
    assert rec.decrease == pytest.approx((e_base - e_pred) / e_base, abs=1e-12)


def test_loocv_uncorrelated_target_shows_no_skill(rng):
    """Independent targets: prediction cannot beat the fold mean on average."""
    from flowcast.flowdata import DayRecord, FlowDataset

    d, t, m = 30, 8, 2
    flows = np.abs(rng.normal(size=(d, t * m))) * 10 + 50
    dates = [f"2024-03-{i + 1:02d}" for i in range(d)]
    days = tuple(DayRecord(s) for s in dates)
    ds = FlowDataset(days=days, flows=flows, interval_minutes=180,
                     movements=("A", "B"))
    spec = SplitSpec(cutoff_index=4, predict_from=5, predict_to=8)
    records = loocv(ds, spec, n_components=2)
    assert np.mean([r.decrease for r in records]) < 0.05


@st.composite
def loocv_cases(draw):
    """Shape, split, kind and component count of one leave-one-out case.

    ``distinct`` movements carry data and ``copies`` more repeat them, so
    the predictors hold duplicated columns.  The component count may exceed
    the predictors' rank, so both routes must drop the directions that rest
    on deflation residue.
    """
    n_days = draw(st.integers(3, 20))
    t = draw(st.sampled_from((4, 6, 8, 12, 16, 24)))
    zs, ys = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    cutoff = draw(st.sampled_from(
        [c for c in range(zs, t) if c % zs == 0 and (t - c) % ys == 0]))
    kind = draw(st.sampled_from(("planted", "duplicated", "constant")))
    distinct = draw(st.integers(1, 4))
    copies = draw(st.integers(1, 3)) if kind == "duplicated" else 0
    return (n_days, t, cutoff, zs, ys, kind, distinct, copies,
            draw(st.integers(1, n_days - 2)), draw(st.integers(0, 2 ** 32 - 1)))


def loocv_case_data(n_days, t, cutoff, zs, ys, kind, distinct, copies, seed):
    rng = np.random.default_rng(seed)
    rank = int(rng.integers(1, 4))
    grid = 50.0 + 5.0 * rng.normal(size=(n_days, rank)) @ rng.normal(size=(rank, distinct * t))
    grid = np.abs(grid + rng.normal(size=grid.shape)).reshape(n_days, distinct, t)
    grid = grid[:, np.r_[np.arange(distinct), rng.integers(distinct, size=copies)], :]
    if kind == "constant":
        grid[:, :, cutoff:] = float(rng.integers(0, 100))
    m = grid.shape[1]
    dates = [f"2024-03-{i + 1:02d}" for i in range(n_days)]
    ds = FlowDataset(days=tuple(DayRecord(s) for s in dates),
                     flows=grid.reshape(n_days, m * t), interval_minutes=1440 // t,
                     movements=tuple(f"M{i}" for i in range(m)))
    spec = SplitSpec(cutoff_index=cutoff, predict_from=cutoff + 1, predict_to=t,
                     predictor_stride=zs, predicted_stride=ys)
    return ds, spec


def recorded(fn, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn(*args)
    return out, [(w.category, str(w.message)) for w in caught]


@settings(max_examples=60, deadline=None)
@given(loocv_cases())
# Rank-deficient predictors at full rank: 3 movements, two of them copies of
# the first, so 2 distinct predictor columns for 2 components.
@example((6, 8, 4, 2, 1, "duplicated", 1, 2, 2, 7))
@example((5, 6, 2, 1, 2, "constant", 2, 0, 3, 1))  # every component dropped
# Rank-1 predictors, 2 components: one fold's power iteration finds a second
# direction in deflation residue (score norm 2.2e-8 of the data's 0.6).
@example((4, 8, 1, 1, 1, "duplicated", 1, 2, 2, 3288865725))
def test_loocv_matches_refit_oracle(case):
    """Kernel-space folds give the refitted folds' errors and warnings."""
    *shape, n_components, seed = case
    ds, spec = loocv_case_data(*shape, seed)
    got, got_warnings = recorded(loocv, ds, spec, n_components)
    want, want_warnings = recorded(refit_loocv, ds, spec, n_components)
    assert got_warnings == want_warnings
    assert [r.date for r in got] == [r.date for r in want]
    for g, w in zip(got, want):
        assert abs(g.e_pred - w.e_pred) <= 1e-9 * w.e_pred, (g, w)
        assert abs(g.e_base - w.e_base) <= 1e-9 * w.e_base, (g, w)
        # A baseline error far below the data's size makes ``decrease`` large
        # and scales its rounding with it (both routes' e_base carry the
        # rounding of y - mean(y)), so the bound is relative beyond 1.
        assert abs(g.decrease - w.decrease) <= 1e-9 * max(1.0, abs(w.decrease)), (g, w)


def test_loocv_rejects_component_counts_before_any_gram(small, monkeypatch):
    ds, _ = small
    spec = SplitSpec(cutoff_index=20, predict_from=21, predict_to=48)

    def no_split(*args):
        raise AssertionError("split_at called before the component check")

    monkeypatch.setattr(pls, "split_at", no_split)
    for n in (0, 23):  # 24 days: each fold has 23, so at most 22 components
        with pytest.raises(ValueError) as info:
            loocv(ds, spec, n)
        assert str(info.value) == f"n_components={n} outside [1, 22] for 24 days"


def test_loocv_needs_three_days(small):
    ds, _ = small
    from flowcast.flowdata import FlowDataset

    two = FlowDataset(days=ds.days[:2], flows=ds.flows[:2],
                      interval_minutes=ds.interval_minutes, movements=ds.movements)
    with pytest.raises(ValueError):
        loocv(two, SplitSpec(cutoff_index=20, predict_from=21, predict_to=48), 1)


def test_json_round_trip(rng, tmp_path):
    z, y = random_instance(rng)
    spec = SplitSpec(cutoff_index=5, predict_from=6, predict_to=8)
    # the spec is about day intervals, irrelevant to raw arrays; keep metadata only
    model = fit_pls_kernel(z, y, 3, split=spec)
    path = tmp_path / "pls.json"
    artifact.write(pls_to_json(model), path)
    back = pls_from_json(path)
    assert back.split == spec
    assert np.allclose(back.predictor_loadings, model.predictor_loadings, atol=0)
    assert np.allclose(back.scores, model.scores, atol=0)
    s = rng.normal(size=z.shape[1])
    assert np.abs(predict(back, s) - predict(model, s)).max() < 1e-12


def test_json_split_fields_are_checked(rng):
    z, y = random_instance(rng)
    spec = SplitSpec(cutoff_index=5, predict_from=6, predict_to=8)
    doc = pls_to_json(fit_pls_kernel(z, y, 2, split=spec))
    for edit, named in ((lambda sp: sp.pop("predict_to"), "'predict_to' is missing"),
                        (lambda sp: sp.update(extra=1), "'extra' is unknown"),
                        (lambda sp: sp.update(cutoff_index="5"), "'cutoff_index' must be")):
        damaged = {**doc, "split": dict(doc["split"])}
        edit(damaged["split"])
        with pytest.raises(ValueError, match=named):
            pls_from_json(damaged)


def test_kernel_route_avoids_cross_product(rng, monkeypatch):
    """The kernel fitter must not build anything of size dim_z x dim_y."""
    d, dim_z, dim_y = 8, 30_000, 15_000
    z = rng.normal(size=(d, dim_z))
    y = z[:, :dim_y] + 0.1 * rng.normal(size=(d, dim_y))

    seen = []
    real_svd = np.linalg.svd

    def spy(a, *args, **kwargs):
        seen.append(np.asarray(a).shape)
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    tracemalloc.start()
    model = fit_pls_kernel(z, y, 2)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    big = min(dim_z, dim_y)
    assert all(min(shape) < big for shape in seen if len(shape) == 2)
    # the explicit cross-product alone would need 3.6 GB
    assert peak < 300 * 1024 * 1024
    assert model.n_components == 2
