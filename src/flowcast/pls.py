"""Covariance-maximizing latent projections for partial-day flow prediction.

Given per-day predictor samples Z (morning flows) and predicted samples Y
(rest-of-day flows), the fit extracts score directions that maximize the
empirical covariance between linear combinations of Z and Y columns, then
deflates and repeats.  Each iteration:

1. take the leading singular pair (r, s) of ``Zc.T @ Yc``;
2. normalize the score ``w = Zc r / ||Zc r||``;
3. project loadings ``p = Zc.T w`` and ``c = Yc.T w``;
4. deflate ``Zc <- Zc - w p.T`` and ``Yc <- Yc - w c.T``.

Prediction for a new sample z is ``(z - z_mean) @ pinv(P.T) @ C.T + y_mean``.

Two fit routes share this contract: :func:`fit_pls` forms the cross-product
matrix explicitly, while :func:`fit_pls_kernel` works only with the day-by-day
kernel matrices ``Zc @ Zc.T`` and ``Yc @ Yc.T``, which is much cheaper when
days are scarce relative to intervals.  The score equals the leading
eigenvector of ``Kz @ Ky``, found by power iteration.  :func:`loocv` runs the
same iteration on the fold blocks of one pair of Gram matrices per dataset.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass, fields
from functools import cached_property
from pathlib import Path

import numpy as np

from . import artifact
from .flowdata import FlowDataset, SplitSpec, split_at

# Power iteration controls (kernel route).
_POWER_TOL = 1e-10
_POWER_MAX_ITER = 10_000
_RESTART_SEED = 0x5EED

# Both fit routes drop a direction whose score norm is at most this fraction
# of the centered predictors' norm: above deflation residue, which scores near
# sqrt(eps) = 1.5e-8 of it, and below real components of noisy data (>1.8e-5).
_DEGENERATE_REL = 1e-6


@dataclass
class PlsModel:
    """Fitted latent-projection model.

    Attributes
    ----------
    predictor_loadings : (dim_z, N) array, one column per component.
    predicted_loadings : (dim_y, N) array.
    scores : (D, N) array of unit-norm, mutually orthogonal day scores.
    mean_z, mean_y : training column means.
    split : SplitSpec or None
        The day split the model was fitted on, when known.
    n_dropped : int
        Components requested but abandoned because no covariance direction
        remained (degenerate deflation).
    """

    predictor_loadings: np.ndarray
    predicted_loadings: np.ndarray
    scores: np.ndarray
    mean_z: np.ndarray
    mean_y: np.ndarray
    split: SplitSpec | None = None
    n_dropped: int = 0
    z_residual_norm: float = 0.0
    y_residual_norm: float = 0.0

    @property
    def n_components(self) -> int:
        return self.predictor_loadings.shape[1]

    @cached_property
    def _score_map(self) -> np.ndarray:
        """``pinv(P.T)``, which maps centered predictors to scores; computed
        once, as prediction is a fixed affine map."""
        return np.linalg.pinv(self.predictor_loadings.T)


def _loadings(zc, yc, omega):
    """The unit score ``omega`` with its loadings ``p = zc.T omega`` and
    ``c = yc.T omega``, all three flipped together so that the first nonzero
    entry of ``p`` is positive."""
    p, c = zc.T @ omega, yc.T @ omega
    mags = np.abs(p)
    scale = mags.max()
    if scale == 0:
        return omega, p, c
    idx = int(np.argmax(mags > 1e-12 * scale))
    if p[idx] < 0:
        return -omega, -p, -c
    return omega, p, c


def _stop(i: int, n_components: int, stacklevel: int) -> int:
    """Warn that the drop rule stopped the fit after ``i`` of
    ``n_components`` components; ``stacklevel`` counts from the caller, as in
    ``warnings.warn``.  Returns the number dropped."""
    dropped = n_components - i
    warnings.warn(f"stopping after {i} components: no covariance direction left "
                  f"({dropped} dropped)", stacklevel=stacklevel + 1)
    return dropped


def _centered_fit_args(z, y, n_components):
    """Checked fit arguments, centered: ``(zc, yc, mean_z, mean_y)``."""
    z = np.asarray(z, dtype=float)
    y = np.asarray(y, dtype=float)
    if z.ndim != 2 or y.ndim != 2:
        raise ValueError("Z and Y must be 2-D (days x features)")
    if z.shape[0] != y.shape[0]:
        raise ValueError(f"Z has {z.shape[0]} days but Y has {y.shape[0]}")
    d = z.shape[0]
    if d < 2:
        raise ValueError("fitting requires at least 2 days")
    if not (1 <= n_components <= d - 1):
        raise ValueError(f"n_components={n_components} outside [1, {d - 1}] for {d} days")
    mean_z, mean_y = z.mean(axis=0), y.mean(axis=0)
    return z - mean_z, y - mean_y, mean_z, mean_y


def fit_pls(z: np.ndarray, y: np.ndarray, n_components: int,
            split: SplitSpec | None = None) -> PlsModel:
    """Fit by explicitly forming the cross-product matrix each iteration.

    Parameters
    ----------
    z : (D, dim_z) array of predictor samples, one day per row.
    y : (D, dim_y) array of predicted samples.
    n_components : int in [1, D-1].
    split : optional SplitSpec recorded on the model.

    Returns
    -------
    PlsModel — with fewer than ``n_components`` components (and a warning)
    if deflation runs out of covariance directions early.
    """
    zc, yc, mean_z, mean_y = _centered_fit_args(z, y, n_components)
    z_scale = np.linalg.norm(zc)

    components = []
    dropped = 0
    for i in range(n_components):
        cross = zc.T @ yc
        u, s, _vt = np.linalg.svd(cross, full_matrices=False)
        r = u[:, 0]
        t_raw = zc @ r
        norm = np.linalg.norm(t_raw)
        if norm <= _DEGENERATE_REL * z_scale or s[0] == 0.0:
            dropped = _stop(i, n_components, stacklevel=2)
            break
        omega, p, c = _loadings(zc, yc, t_raw / norm)
        components.append((omega, p, c))
        zc = zc - np.outer(omega, p)
        yc = yc - np.outer(omega, c)

    return _assemble(zc.shape, components, mean_z, mean_y, split, dropped,
                     np.linalg.norm(zc), np.linalg.norm(yc))


def _assemble(shape, components, mean_z, mean_y, split, dropped, z_res, y_res):
    """The model of the ``(omega, p, c)`` triples fitted on ``shape``-shaped
    predictors."""
    (d, dim_z), n = shape, len(components)
    omegas, ps, cs = zip(*components) if n else ((), (), ())
    return PlsModel(
        predictor_loadings=np.column_stack(ps) if n else np.zeros((dim_z, 0)),
        predicted_loadings=np.column_stack(cs) if n else np.zeros((mean_y.size, 0)),
        scores=np.column_stack(omegas) if n else np.zeros((d, 0)),
        mean_z=np.asarray(mean_z, dtype=float),
        mean_y=np.asarray(mean_y, dtype=float),
        split=split,
        n_dropped=dropped,
        z_residual_norm=float(z_res),
        y_residual_norm=float(y_res),
    )


def _power_leading_score(kz: np.ndarray, ky: np.ndarray,
                         tiny: float) -> tuple[np.ndarray | None, float]:
    """Leading eigenvector of ``kz @ ky`` by power iteration.

    Starts from the first canonical basis vector; restarts once from a fixed
    seeded random vector if the iteration stagnates (the iterate collapses to
    zero, or ``_POWER_MAX_ITER`` iterations pass without convergence), and
    warns if the restart too runs out of iterations.  ``tiny`` is an absolute
    floor for iterate norms, derived from the *undeflated* kernels so that
    deflation residue (float junk left after projecting a direction out)
    cannot pass as signal.  Returns (vector, eigenvalue), or (None, 0.0) when
    no direction with positive eigenvalue exists.
    """
    d = kz.shape[0]

    def run(v0):
        """(v, eigenvalue, capped); v is None when the iterate collapses to zero."""
        w = kz @ (ky @ v0)
        lam_prev = np.inf
        for _ in range(_POWER_MAX_ITER):
            norm = np.linalg.norm(w)
            if norm <= tiny:
                return None, 0.0, False
            v = w / norm
            w = kz @ (ky @ v)  # the eigenvalue's matvec is the next iterate's
            lam = float(v @ w)
            if abs(lam - lam_prev) <= _POWER_TOL * max(1.0, abs(lam)):
                return v, lam, False
            lam_prev = lam
        return v, lam_prev, True

    v0 = np.zeros(d)
    v0[0] = 1.0
    v, lam, capped = run(v0)
    if v is None or capped:
        rng = np.random.default_rng(_RESTART_SEED)
        v0 = rng.standard_normal(d)
        v0 /= np.linalg.norm(v0)
        v2, lam2, capped = run(v0)
        if capped:
            warnings.warn(f"power iteration did not converge in {_POWER_MAX_ITER} "
                          f"iterations, also after its restart", RuntimeWarning,
                          stacklevel=4)
        if v2 is not None and (v is None or lam2 >= lam):
            v, lam = v2, lam2
    if v is None or lam <= tiny:
        return None, 0.0
    return v, lam


def _kernel_scores(kz: np.ndarray, ky: np.ndarray, n_components: int, z_scale: float,
                   residuals: bool = False
                   ) -> tuple[list[np.ndarray], int, tuple[float, float] | None]:
    """Unsigned day scores from centered kernels by power iteration and deflation.

    ``kz`` and ``ky`` are the centered day-by-day kernels and ``z_scale`` is
    the Frobenius norm of the centered predictors.  Each score is the leading
    eigenvector of the deflated ``kz @ ky``; deflation projects both kernels
    onto the orthogonal complement of the score.  A score's sign does not
    change the projection, so callers may fix signs afterwards.  Returns
    (scores, number dropped, residual norms), warning when components are
    dropped.  The residual norms of Z and Y come from the traces of the fully
    deflated kernels; without ``residuals`` they are None, and the kernels
    are deflated only while another score is wanted.
    """
    kz_cur, ky_cur = kz, ky
    tiny = np.finfo(float).eps * float(np.linalg.norm(kz) * np.linalg.norm(ky))
    omegas = []
    dropped = 0
    for i in range(n_components):
        omega, _lam = _power_leading_score(kz_cur, ky_cur, tiny)
        if omega is not None:
            # Measured on the deflated kernel, like the direct route's score.
            t_norm = float(np.sqrt(max(omega @ kz_cur @ omega, 0.0)))
            if t_norm <= _DEGENERATE_REL * z_scale:
                omega = None
        if omega is None:
            dropped = _stop(i, n_components, stacklevel=3)
            break
        omegas.append(omega)
        if residuals or i + 1 < n_components:
            proj = np.eye(len(omega)) - np.outer(omega, omega)
            kz_cur = proj @ kz_cur @ proj
            ky_cur = proj @ ky_cur @ proj
    if not residuals:
        return omegas, dropped, None
    return omegas, dropped, (np.sqrt(max(np.trace(kz_cur), 0.0)),
                             np.sqrt(max(np.trace(ky_cur), 0.0)))


def fit_pls_kernel(z: np.ndarray, y: np.ndarray, n_components: int,
                   split: SplitSpec | None = None) -> PlsModel:
    """Fit via day-by-day kernel matrices; contract identical to :func:`fit_pls`.

    The (dim_z x dim_y) cross-product matrix is never formed.  Scores come
    from power iteration on ``Kz @ Ky`` (both D x D); deflation projects the
    kernels onto the orthogonal complement of each score.  Loadings are
    recovered from the original centered matrices, which is exact because the
    scores are mutually orthogonal.
    """
    zc, yc, mean_z, mean_y = _centered_fit_args(z, y, n_components)
    scores, dropped, (z_res, y_res) = _kernel_scores(
        zc @ zc.T, yc @ yc.T, n_components, np.linalg.norm(zc), residuals=True)
    return _assemble(zc.shape, [_loadings(zc, yc, omega) for omega in scores],
                     mean_z, mean_y, split, dropped, z_res, y_res)


def predict(model: PlsModel, z_sample: np.ndarray) -> np.ndarray:
    """Predict the rest-of-day sample(s) for new predictor sample(s).

    Accepts a single (dim_z,) vector or a (k, dim_z) matrix; the output
    matches.  The map is affine: ``(z - mean_z) @ pinv(P.T) @ C.T + mean_y``.
    Predicting the training predictor mean returns the training target mean.
    """
    zs = np.asarray(z_sample, dtype=float)
    single = zs.ndim == 1
    zs2 = np.atleast_2d(zs)
    if zs2.shape[1] != model.mean_z.size:
        raise ValueError(
            f"predictor sample has {zs2.shape[1]} features, model expects "
            f"{model.mean_z.size}"
        )
    scores = (zs2 - model.mean_z) @ model._score_map
    out = scores @ model.predicted_loadings.T + model.mean_y
    return out[0] if single else out


@dataclass(frozen=True)
class LoocvRecord:
    """Held-out-day evaluation: one-norm errors and their normalized decrease."""

    date: str
    e_pred: float
    e_base: float
    decrease: float


def _fold_kernel(gram: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Kernel of the days ``keep``, centered on their own mean, from a Gram
    matrix of all days: with row means ``r`` and grand mean ``s`` of the fold
    block ``G``, it is ``G - r 1^T - 1 r^T + s``, which costs O(D^2)."""
    block = gram[np.ix_(keep, keep)]
    r = block.mean(axis=1)
    s = r.mean()
    return block - r[:, None] - r[None, :] + s


def loocv(ds: FlowDataset, spec: SplitSpec, n_components: int) -> list[LoocvRecord]:
    """Leave-one-out evaluation over every day of the dataset.

    Each fold makes the fit and the prediction :func:`fit_pls_kernel` and
    :func:`predict` make on the remaining days (fold means exclude the
    held-out day), without touching a (D, dim) data matrix.  Z and Y are
    centered once and multiplied into two D x D Gram matrices, whose fold
    blocks are recentered in O(D^2) and give the fold scores ``W``.  For the
    prediction, the R factor of ``Zg^T = QR`` stands in for the centered
    predictors: its rows ``r_i`` keep their inner products, so with ``L`` the
    fold's rows of ``R^T`` centered on the fold mean ``m``, the fold predicts
    ``y_f + a^T (Y_f - y_f)`` with ``a = W pinv(L^T W) (r_d - m)``.  That is
    ``W (W^T Kz W)^+ W^T k`` for the fold kernel ``Kz`` and the held-out
    day's cross row ``k``, without squaring the condition number of the
    fold loadings.

    ``e_pred`` is the one-norm prediction error on the held-out day's
    predicted window; ``e_base`` the one-norm error of the fold's mean target.
    ``decrease`` is ``(e_base - e_pred) / e_base`` and defined as 0 when the
    baseline error is 0.
    """
    n_days = ds.n_days
    if n_days < 3:
        raise ValueError("leave-one-out evaluation requires at least 3 days")
    if not (1 <= n_components <= n_days - 2):
        raise ValueError(f"n_components={n_components} outside [1, {n_days - 2}] "
                         f"for {n_days} days")
    z, y = split_at(ds, spec)
    zg = z - z.mean(axis=0)
    yg = y - y.mean(axis=0)
    gz, gy = zg @ zg.T, yg @ yg.T
    zr = np.linalg.qr(zg.T, mode="r").T
    # Row d maps the centered targets to day d's fold residual y_d - y_hat_d.
    # As y_d - y_f = yg_d * D / (D-1), its diagonal entry is (D - sum a) / (D-1).
    residual_map = np.zeros((n_days, n_days))
    for d in range(n_days):
        keep = np.delete(np.arange(n_days), d)
        kz = _fold_kernel(gz, keep)
        scores, _, _ = _kernel_scores(kz, _fold_kernel(gy, keep), n_components,
                                      float(np.sqrt(max(np.trace(kz), 0.0))))
        a = np.zeros(n_days - 1)
        if scores:
            w = np.column_stack(scores)
            rows = zr[keep]
            mean = rows.mean(axis=0)
            a = w @ ((zr[d] - mean) @ np.linalg.pinv(w.T @ (rows - mean)))
        residual_map[d, keep] = -a
        residual_map[d, d] = (n_days - a.sum()) / (n_days - 1)
    e_pred = np.abs(residual_map @ yg).sum(axis=1)
    e_base = np.abs(yg).sum(axis=1) * (n_days / (n_days - 1))
    records = []
    for d in range(n_days):
        ep, eb = float(e_pred[d]), float(e_base[d])
        decrease = 0.0 if eb == 0.0 else (eb - ep) / eb
        records.append(LoocvRecord(ds.days[d].date, ep, eb, decrease))
    return records


def pls_to_json(model: PlsModel, path: str | Path | None = None,
                manifest_hash: str | None = None) -> dict:
    """Serialize to a versioned JSON document (optionally written to disk)."""
    doc = artifact.document("pls_model", {
        "predictor_loadings": model.predictor_loadings.tolist(),
        "predicted_loadings": model.predicted_loadings.tolist(),
        "scores": model.scores.tolist(),
        "mean_z": model.mean_z.tolist(),
        "mean_y": model.mean_y.tolist(),
        "n_dropped": model.n_dropped,
        "z_residual_norm": model.z_residual_norm,
        "y_residual_norm": model.y_residual_norm,
        "split": None if model.split is None else asdict(model.split),
    }, manifest_hash)
    return artifact.write(doc, path, compact=True)


def _split_from_json(entry) -> SplitSpec:
    """The SplitSpec a model document records; a missing, unknown or
    non-integer field is a ``ValueError`` naming it."""
    if not isinstance(entry, dict):
        raise ValueError("model field 'split' must be an object or null")
    names = [f.name for f in fields(SplitSpec)]
    for key in entry:
        if key not in names:
            raise ValueError(f"split field {key!r} is unknown")
    return SplitSpec(**{name: artifact.typed(entry, name, int, "an integer") for name in names})


def pls_from_json(source: str | Path | dict) -> PlsModel:
    """Load a model serialized by :func:`pls_to_json`."""
    doc = artifact.read(source, "pls_model")
    split = None if doc["split"] is None else _split_from_json(doc["split"])
    return PlsModel(
        predictor_loadings=artifact.array(doc, "predictor_loadings", 2),
        predicted_loadings=artifact.array(doc, "predicted_loadings", 2),
        scores=artifact.array(doc, "scores", 2),
        mean_z=artifact.array(doc, "mean_z", 1),
        mean_y=artifact.array(doc, "mean_y", 1),
        split=split,
        n_dropped=artifact.typed(doc, "n_dropped", int, "an integer"),
        z_residual_norm=artifact.number(doc, "z_residual_norm"),
        y_residual_norm=artifact.number(doc, "y_residual_norm"),
    )
