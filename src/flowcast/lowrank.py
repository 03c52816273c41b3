"""Low-rank decomposition of centered daily flow profiles.

The centered day matrix is factored by singular value decomposition into
day weights and orthonormal daily-profile components; truncating to the top
N components gives the best rank-N approximation in the Frobenius norm.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import artifact
from .flowdata import CenteredMatrix

_ORTHONORMAL_TOL = 1e-8


@dataclass(frozen=True)
class PcaModel:
    """Truncated SVD of a centered day matrix.

    Parameters
    ----------
    mean : (T*M,) array
        Mean day profile that was subtracted before the decomposition.
    components : (T*M, N) array
        Orthonormal daily-profile components, one per column.  Sign convention:
        the largest-magnitude entry of each component is positive.
    weights : (D, N) array
        Per-day component weights; ``weights @ components.T`` is the rank-N
        reconstruction of the centered matrix.
    singular_values : (N,) array
        Retained singular values, descending.
    singular_value_sum : float
        Sum over *all* singular values of the centered matrix, stored at fit
        time so explained-variance fractions remain well defined after
        truncation.
    """

    mean: np.ndarray
    components: np.ndarray
    weights: np.ndarray
    singular_values: np.ndarray
    singular_value_sum: float

    def __post_init__(self) -> None:
        for name in ("mean", "components", "weights", "singular_values"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        q = self.components
        gram = q.T @ q
        if not np.allclose(gram, np.eye(q.shape[1]), atol=_ORTHONORMAL_TOL):
            raise ValueError("components are not orthonormal")
        s = self.singular_values
        if np.any(np.diff(s) > 0):
            raise ValueError("singular values must be non-increasing")

    @property
    def n_components(self) -> int:
        return self.components.shape[1]


def _fix_signs(u: np.ndarray, vt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Largest-magnitude entry of each component made positive; the paired
    # weight column flips with it so the product is unchanged.
    for i in range(vt.shape[0]):
        j = int(np.argmax(np.abs(vt[i])))
        if vt[i, j] < 0:
            vt[i] = -vt[i]
            u[:, i] = -u[:, i]
    return u, vt


def fit_pca(cm: CenteredMatrix, n_components: int) -> PcaModel:
    """Fit the rank-``n_components`` decomposition of a centered day matrix.

    Parameters
    ----------
    cm : CenteredMatrix
        Centered dataset from :func:`flowcast.flowdata.center`.
    n_components : int
        Number of components to retain, ``1 <= n <= min(D, T*M)``.

    Returns
    -------
    PcaModel
    """
    resid = cm.residuals
    max_rank = min(resid.shape)
    if not (1 <= n_components <= max_rank):
        raise ValueError(
            f"n_components={n_components} outside [1, {max_rank}] for shape {resid.shape}"
        )
    u, s, vt = np.linalg.svd(resid, full_matrices=False)
    u, vt = _fix_signs(u, vt)
    return PcaModel(
        mean=cm.mean,
        components=vt[:n_components].T,
        weights=u[:, :n_components] * s[:n_components],
        singular_values=s[:n_components],
        singular_value_sum=float(s.sum()),
    )


def explained_variance(model: PcaModel) -> np.ndarray:
    """Fraction of total singular value mass per retained component.

    Fractions are ``sigma_i / sum_j sigma_j`` with the sum over all singular
    values of the centered matrix (not their squares).  A zero-residual matrix
    yields all-zero fractions.
    """
    total = model.singular_value_sum
    if total <= 0:
        return np.zeros_like(model.singular_values)
    return model.singular_values / total


def project(model: PcaModel, day_flow: np.ndarray) -> np.ndarray:
    """Weights of a single day profile on the model components."""
    x = np.asarray(day_flow, dtype=float)
    if x.shape != model.mean.shape:
        raise ValueError(f"day profile shape {x.shape} != {model.mean.shape}")
    return (x - model.mean) @ model.components


def reconstruct(model: PcaModel, weights: np.ndarray) -> np.ndarray:
    """Day profile reconstructed from component weights."""
    w = np.asarray(weights, dtype=float)
    if w.shape != (model.n_components,):
        raise ValueError(f"weights shape {w.shape} != ({model.n_components},)")
    return model.mean + model.components @ w


def pca_to_json(model: PcaModel) -> dict:
    """A model as a versioned JSON document."""
    return artifact.document("pca_model", {
        "mean": model.mean.tolist(),
        "components": model.components.tolist(),
        "weights": model.weights.tolist(),
        "singular_values": model.singular_values.tolist(),
        "singular_value_sum": model.singular_value_sum,
    })


def pca_from_json(source: str | Path | dict) -> PcaModel:
    """Load a model serialized by :func:`pca_to_json`."""
    doc = artifact.read(source, "pca_model")
    return PcaModel(
        mean=artifact.array(doc, "mean", 1),
        components=artifact.array(doc, "components", 2),
        weights=artifact.array(doc, "weights", 2),
        singular_values=artifact.array(doc, "singular_values", 1),
        singular_value_sum=artifact.number(doc, "singular_value_sum"),
    )
