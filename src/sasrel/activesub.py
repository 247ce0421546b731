"""Active-subspace identification from surrogate gradients.

The average-derivative matrix C = E[grad f grad f^T] is estimated by
quasi-Monte Carlo over Sobol points in standardized coordinates, using the
analytic gradient of a cheap sparse expansion instead of the true model.
Its dominant eigenspace defines the projection z = W1^T x onto the
directions of strongest output variability.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NumericalError, ParameterError
from .probspace import sobol_points

_GRAD_CHUNK = 4096


def estimate_c(grad_fn, samples: np.ndarray) -> np.ndarray:
    """Sample-mean estimate (1/n) sum_j grad_j grad_j^T of the derivative matrix.

    ``subspace_from_surrogate`` passes Sobol points, so the estimate is
    quasi-Monte Carlo.  ``grad_fn`` maps a (m, N) block of standardized
    points to (m, N) gradients.  Accumulation is chunked in a fixed schedule,
    so the result is deterministic for a fixed sample set.  Symmetrized
    before returning.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    n, dim = samples.shape
    if n < 1:
        raise ParameterError("need at least one gradient sample")
    c = np.zeros((dim, dim))
    for start in range(0, n, _GRAD_CHUNK):
        block = samples[start:start + _GRAD_CHUNK]
        g = np.atleast_2d(np.asarray(grad_fn(block), dtype=float))
        if g.shape != block.shape:
            raise DimensionError(
                f"gradient block has shape {g.shape}, expected {block.shape}")
        finite = np.isfinite(g).all(axis=1)
        if not finite.all():
            bad = start + int(np.argmin(finite))
            raise NumericalError(f"non-finite gradient at sample {bad}")
        c += g.T @ g
    c /= n
    return 0.5 * (c + c.T)


def eigendecompose(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of a symmetric matrix, sorted by descending eigenvalue.

    Returns (W, lam) with eigenvectors in columns.  Each eigenvector is signed
    so its largest-magnitude component is positive, which makes the
    decomposition reproducible across platforms.
    """
    c = np.asarray(c, dtype=float)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {c.shape}")
    scale = max(1.0, float(np.abs(c).max()))
    if float(np.abs(c - c.T).max()) > 1e-8 * scale:
        raise ParameterError("matrix is not symmetric")
    lam, vec = np.linalg.eigh(0.5 * (c + c.T))
    order = np.argsort(lam)[::-1]
    lam, vec = lam[order], vec[:, order]
    anchor = np.argmax(np.abs(vec), axis=0)
    flip = vec[anchor, np.arange(vec.shape[1])] < 0.0
    vec[:, flip] *= -1.0
    return vec, lam


def choose_rank(eigenvalues: np.ndarray, mu: float) -> int:
    """Smallest r whose leading eigenvalue mass reaches the threshold ``mu``."""
    if not 0.0 < mu < 1.0:
        raise ParameterError(f"threshold must lie in (0, 1), got {mu}")
    lam = np.asarray(eigenvalues, dtype=float)
    if np.any(np.diff(lam) > 1e-12 * max(1.0, float(np.abs(lam).max()))):
        raise ParameterError("eigenvalues must be sorted descending")
    lam = np.clip(lam, 0.0, None)
    total = float(lam.sum())
    if total <= 0.0:
        raise ParameterError("zero spectrum: the response carries no variability")
    ratio = np.cumsum(lam) / total
    return int(np.argmax(ratio >= mu - 1e-12)) + 1


def project(w1: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Reduced coordinates z = W1^T x for one point or a batch (rows)."""
    w1 = np.asarray(w1, dtype=float)
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != w1.shape[0]:
        raise DimensionError(
            f"points have {x.shape[-1]} coordinates, projector has {w1.shape[0]} rows")
    return x @ w1


def fd_cost(n_dim: int, n_grad_samples: int) -> int:
    """True-model evaluations a finite-difference gradient study would need."""
    if n_dim < 1 or n_grad_samples < 1:
        raise ParameterError("dimension and sample count must be positive")
    return n_grad_samples * (n_dim + 1)


@dataclass(frozen=True, eq=False)
class ActiveSubspace:
    """Spectrum and projection of an estimated derivative matrix.

    ``eigenvalues`` is the full descending spectrum; ``w1`` holds the leading
    ``r`` eigenvectors as columns.
    """

    eigenvalues: np.ndarray
    w1: np.ndarray
    r: int
    mu: float
    n_grad_samples: int

    def __post_init__(self) -> None:
        lam = np.asarray(self.eigenvalues, dtype=float)
        w1 = np.asarray(self.w1, dtype=float)
        if self.r < 1:
            raise ParameterError("active dimension must be at least 1")
        if w1.shape != (lam.shape[0], self.r):
            raise DimensionError(
                f"projector shape {w1.shape} inconsistent with N={lam.shape[0]}, r={self.r}")
        if float(np.abs(w1.T @ w1 - np.eye(self.r)).max()) > 1e-10:
            raise ParameterError("projection columns are not orthonormal")
        if float(lam.min()) < -1e-10 * max(1.0, float(lam.sum())):
            raise ParameterError("spectrum has a significantly negative eigenvalue")
        object.__setattr__(self, "eigenvalues", lam)
        object.__setattr__(self, "w1", w1)

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    def project(self, x: np.ndarray) -> np.ndarray:
        return project(self.w1, x)

    def to_json(self) -> str:
        return json.dumps({
            "eigenvalues": self.eigenvalues.tolist(),
            "W1": self.w1.tolist(),
            "r": self.r,
            "mu": self.mu,
            "n_grad_samples": self.n_grad_samples,
        }, indent=2)


def subspace_from_surrogate(model, mu: float, n_grad_samples: int | None = None,
                            skip: int = 0) -> ActiveSubspace:
    """Identify the active subspace of a fitted expansion.

    Gradient samples are fresh Sobol points (``skip`` past the start of the
    sequence, so a training design occupying the first points is not reused);
    default sample count is 10 per input dimension.  Surrogate gradients are
    analytic, so no true-model evaluations are spent here.
    """
    dim = model.dim
    if n_grad_samples is None:
        n_grad_samples = 10 * dim
    pts = 2.0 * sobol_points(n_grad_samples, dim, skip=skip) - 1.0
    c = estimate_c(model.gradient, pts)
    vec, lam = eigendecompose(c)
    r = choose_rank(lam, mu)
    return ActiveSubspace(eigenvalues=lam, w1=vec[:, :r], r=r, mu=mu,
                          n_grad_samples=n_grad_samples)
