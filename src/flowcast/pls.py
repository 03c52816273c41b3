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

:func:`fit_pls_kernel` never forms the cross-product matrix: it works only
with the day-by-day kernel matrices ``Zc @ Zc.T`` and ``Yc @ Yc.T``, which is
much cheaper when days are scarce relative to intervals (the kernel algorithm
of Lindgren, Geladi and Wold 1993).  The score equals the leading
eigenvector of ``Kz @ Ky``, found by power iteration.  :func:`loocv` runs the
same iteration on the fold blocks of one pair of Gram matrices per dataset.

Deflation is a rank-1 update of each kernel: with ``P = I - w w^T`` and
``k = K w``, ``P K P = K - w k^T - k w^T + (w^T k) w w^T``, which costs O(D^2)
per component where the two dense products ``P K P`` cost O(D^3).

Every product whose bits reach a written artifact takes a form whose bits do
not depend on the OpenBLAS thread count, each checked at 1 and 2 threads.
Threaded OpenBLAS splits the sums of ``x @ x.T``, of a (D, D) by (D, dim)
product and of the norm of a large array, and ``np.linalg.qr`` and
``np.linalg.svd`` change bits at some shapes (132 x 1200, for one).  So the
Grams, the loadings, LOOCV's row factor and its residual product go through
``np.einsum`` (numpy's own loops, no BLAS).  The (D, D) power-iteration
matvecs stay in BLAS as vector-matrix products (bits checked for D up to
511), and so do the small per-fold and per-prediction products (checked at
the README's sizes).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass, fields
from functools import cached_property
from pathlib import Path

import numpy as np

from . import artifact
from .flowdata import FlowDataset, SplitSpec, split_at

# Power iteration controls.
_POWER_TOL = 1e-10
_POWER_MAX_ITER = 10_000
_RESTART_SEED = 0x5EED

# A fit drops a direction whose score norm is at most this fraction of the
# centered predictors' norm: above deflation residue, which scores near
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


def gram(x: np.ndarray) -> np.ndarray:
    """``x @ x.T`` summed by ``np.einsum``, as a multi-threaded ``x @ x.T``
    splits its sums by thread.  Only the blocks on and above the diagonal are
    summed, 44 rows at a time, and mirrored: half the work, and each entry
    has the bits of the full ``np.einsum``."""
    d = x.shape[0]
    g = np.empty((d, d))
    for i in range(0, d, 44):
        block = np.einsum("ik,jk->ij", x[i:i + 44], x[i:])
        g[i:i + 44, i:] = block
        g[i:, i:i + 44] = block.T
    return g


def _project(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``x.T @ w`` for (D, dim) ``x`` and (D, n) ``w`` by ``np.einsum``, as a
    C-ordered (dim, n) array."""
    return np.ascontiguousarray(np.einsum("ik,in->nk", x, w).T)


def _columns(vectors, length: int) -> np.ndarray:
    """The ``length``-vectors as the columns of a C-ordered array."""
    return np.ascontiguousarray(np.reshape(vectors, (len(vectors), length)).T)


def _model(w, p, c, mean_z, mean_y, split, dropped, z_res, y_res) -> PlsModel:
    """The model of scores ``w`` and loadings ``p``, ``c`` (one column per
    component), each component's three columns flipped together so that the
    first entry of ``p`` above 1e-12 of its largest is positive."""
    mags = np.abs(p)
    first = np.argmax(mags > 1e-12 * mags.max(axis=0, initial=0.0), axis=0)
    flip = np.where(p[first, np.arange(p.shape[1])] < 0, -1.0, 1.0)
    return PlsModel(
        predictor_loadings=p * flip,
        predicted_loadings=c * flip,
        scores=w * flip,
        mean_z=np.asarray(mean_z, dtype=float),
        mean_y=np.asarray(mean_y, dtype=float),
        split=split,
        n_dropped=dropped,
        z_residual_norm=float(z_res),
        y_residual_norm=float(y_res),
    )


def check_components(n_components: int, n_days: int) -> None:
    """A fit on ``n_days`` days takes 1 to ``n_days - 1`` components, else ``ValueError``."""
    if not (1 <= n_components <= n_days - 1):
        raise ValueError(f"n_components={n_components} outside [1, {n_days - 1}] "
                         f"for {n_days} days")


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
        # Vector-matrix products (bits checked at 1 and 2 threads); ``.dot``
        # has the bits of ``@`` and ``np.linalg.norm`` with less call overhead.
        w = v0.dot(ky).dot(kz)
        lam_prev = np.inf
        for _ in range(_POWER_MAX_ITER):
            norm = math.sqrt(w.dot(w))
            if norm <= tiny:
                return None, 0.0, False
            v = w / norm
            w = v.dot(ky).dot(kz)  # the eigenvalue's matvec is the next iterate's
            lam = float(v.dot(w))
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


def _deflate(k: np.ndarray, omega: np.ndarray, k_omega: np.ndarray) -> np.ndarray:
    """``P k P`` for ``P = I - omega omega^T``, given the unit ``omega`` and
    ``k_omega = omega @ k``.  With ``u = k_omega - (omega^T k_omega / 2)
    omega`` it is ``k - omega u^T - u omega^T``, the rank-1 update
    ``k - omega k_omega^T - k_omega omega^T + (omega^T k_omega) omega omega^T``:
    O(D^2), and symmetric to the bit when ``k`` is."""
    u = k_omega - (0.5 * (omega @ k_omega)) * omega
    a = omega[:, None] * u
    a = a + a.T
    return np.subtract(k, a, out=a)  # in place of a third (D, D) temporary


def _kernel_scores(kz: np.ndarray, ky: np.ndarray, n_components: int, z_scale: float,
                   residuals: bool = False
                   ) -> tuple[list[np.ndarray], int, tuple[float, float] | None]:
    """Unsigned day scores from centered kernels by power iteration and deflation.

    ``kz`` and ``ky`` are the centered day-by-day kernels and ``z_scale`` is
    the Frobenius norm of the centered predictors.  Each score is the leading
    eigenvector of the deflated ``kz @ ky``; deflation projects both kernels
    onto the orthogonal complement of the score by the rank-1 update of
    :func:`_deflate`, O(D^2) per kernel where the dense ``P K P`` is O(D^3).
    Its ``K omega`` is the vector-matrix product ``omega @ K``, the form the
    power iteration uses, and the one of Z also measures the score.  A score's
    sign does not change the projection, so callers may fix signs afterwards.
    Returns (scores, number dropped, residual norms), warning when components
    are dropped.  The residual norms of Z and Y come from the traces of the
    fully deflated kernels; without ``residuals`` they are None, and the
    kernels are deflated only while another score is wanted.  The floor for
    power iterates scales with the kernels' Frobenius norms, summed by
    ``np.einsum`` because the norm of a large array splits its sum by thread.
    """
    kz_cur, ky_cur = kz, ky
    tiny = np.finfo(float).eps * float(np.sqrt(np.einsum("ij,ij->", kz, kz)
                                               * np.einsum("ij,ij->", ky, ky)))
    omegas = []
    dropped = 0
    for i in range(n_components):
        omega, _lam = _power_leading_score(kz_cur, ky_cur, tiny)
        if omega is not None:
            kz_omega = omega @ kz_cur
            # On the deflated kernel, the norm of the unnormalized score ``Zc r``.
            if np.sqrt(max(omega @ kz_omega, 0.0)) <= _DEGENERATE_REL * z_scale:
                omega = None
        if omega is None:
            dropped = n_components - i
            warnings.warn(f"stopping after {i} components: no covariance direction "
                          f"left ({dropped} dropped)", stacklevel=3)
            break
        omegas.append(omega)
        if residuals or i + 1 < n_components:
            kz_cur = _deflate(kz_cur, omega, kz_omega)
            ky_cur = _deflate(ky_cur, omega, omega @ ky_cur)
    if not residuals:
        return omegas, dropped, None
    return omegas, dropped, (np.sqrt(max(np.trace(kz_cur), 0.0)),
                             np.sqrt(max(np.trace(ky_cur), 0.0)))


def fit_kernels(kz: np.ndarray, ky: np.ndarray, n_components: int, loadings,
                mean_z: np.ndarray, mean_y: np.ndarray,
                split: SplitSpec | None = None) -> PlsModel:
    """The fit from the centered kernels ``kz`` and ``ky``.

    ``loadings(W)`` returns the products ``(Zc^T W, Yc^T W)`` of the centered
    predictors and targets with the (D, n) scores; loadings from the
    undeflated matrices are exact because the scores are mutually orthogonal.
    :func:`fit_pls_kernel` and ``controller.build_model_bank`` both fit
    through here.
    """
    scores, dropped, (z_res, y_res) = _kernel_scores(
        kz, ky, n_components, np.sqrt(max(np.trace(kz), 0.0)), residuals=True)
    w = _columns(scores, kz.shape[0])
    return _model(w, *loadings(w), mean_z, mean_y, split, dropped, z_res, y_res)


def fit_pls_kernel(z: np.ndarray, y: np.ndarray, n_components: int,
                   split: SplitSpec | None = None) -> PlsModel:
    """Fit predictors ``z`` (D, dim_z) to targets ``y`` (D, dim_y), one day
    per row, with ``n_components`` in [1, D-1]; ``split`` is recorded on the
    model.  The model has fewer components, with a warning, when deflation
    runs out of covariance directions early.

    The (dim_z x dim_y) cross-product matrix is never formed.  Scores come
    from power iteration on ``Kz @ Ky`` (both D x D); deflation projects the
    kernels onto the orthogonal complement of each score.  See
    :func:`fit_kernels`.
    """
    z = np.asarray(z, dtype=float)
    y = np.asarray(y, dtype=float)
    if z.ndim != 2 or y.ndim != 2:
        raise ValueError("Z and Y must be 2-D (days x features)")
    if z.shape[0] != y.shape[0]:
        raise ValueError(f"Z has {z.shape[0]} days but Y has {y.shape[0]}")
    if z.shape[0] < 2:
        raise ValueError("fitting requires at least 2 days")
    check_components(n_components, z.shape[0])
    mean_z, mean_y = z.mean(axis=0), y.mean(axis=0)
    zc, yc = z - mean_z, y - mean_y
    return fit_kernels(gram(zc), gram(yc), n_components,
                       lambda w: (_project(zc, w), _project(yc, w)), mean_z, mean_y, split)


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


def _row_factor(x: np.ndarray) -> np.ndarray:
    """A lower-triangular ``R`` whose rows keep the inner products of the rows
    of ``x`` (``R R^T = x x^T``): the ``R`` of ``x = RQ`` (an LQ
    factorization) by Householder reflections, as backward stable as a QR.
    Its products go through ``np.einsum`` because LAPACK's QR and SVD change
    bits with the BLAS thread count at some shapes (132 x 1200, for one)."""
    a = np.array(x, dtype=float)
    n = min(a.shape)
    for i in range(n):
        v = a[i, i:].copy()
        vv = np.einsum("i,i->", v, v)
        if vv == 0.0:
            continue
        v[0] += np.copysign(np.sqrt(vv), v[0])
        tail = a[i:, i:]
        scale = 2.0 / np.einsum("i,i->", v, v)
        tail -= np.outer(np.einsum("ij,j->i", tail, v) * scale, v)
    return np.tril(a[:, :n])


def _fold_kernel(g: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Kernel of the days ``keep``, centered on their own mean, from a Gram
    matrix of all days: with row means ``r`` and grand mean ``s`` of the fold
    block ``G``, it is ``G - r 1^T - 1 r^T + s``, which costs O(D^2)."""
    block = g[:, keep][keep]
    r = block.mean(axis=1)
    s = r.mean()
    block -= r[:, None]
    block -= r
    block += s
    return block


def loocv(ds: FlowDataset, spec: SplitSpec, n_components: int) -> list[LoocvRecord]:
    """Leave-one-out evaluation over every day of the dataset.

    Each fold makes the fit and the prediction :func:`fit_pls_kernel` and
    :func:`predict` make on the remaining days (fold means exclude the
    held-out day), without touching a (D, dim) data matrix.  Z and Y are
    centered once and multiplied into two D x D Gram matrices, whose fold
    blocks are recentered in O(D^2) and give the fold scores ``W``.  For the
    prediction, the lower-triangular factor ``R`` of ``Zg = RQ``
    (:func:`_row_factor`) stands in for the centered predictors: its rows
    ``r_i`` keep their inner products, so with ``L`` the fold's rows of ``R``
    centered on the fold mean ``m``, the fold predicts
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
    gz, gy = gram(zg), gram(yg)
    zr = _row_factor(zg)
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
    e_pred = np.abs(np.einsum("ij,jk->ik", residual_map, yg)).sum(axis=1)
    e_base = np.abs(yg).sum(axis=1) * (n_days / (n_days - 1))
    records = []
    for d in range(n_days):
        ep, eb = float(e_pred[d]), float(e_base[d])
        decrease = 0.0 if eb == 0.0 else (eb - ep) / eb
        records.append(LoocvRecord(ds.days[d].date, ep, eb, decrease))
    return records


def pls_to_json(model: PlsModel) -> dict:
    """A model as a versioned JSON document."""
    return artifact.document("pls_model", {
        "predictor_loadings": model.predictor_loadings.tolist(),
        "predicted_loadings": model.predicted_loadings.tolist(),
        "scores": model.scores.tolist(),
        "mean_z": model.mean_z.tolist(),
        "mean_y": model.mean_y.tolist(),
        "n_dropped": model.n_dropped,
        "z_residual_norm": model.z_residual_norm,
        "y_residual_norm": model.y_residual_norm,
        "split": None if model.split is None else asdict(model.split),
    })


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
