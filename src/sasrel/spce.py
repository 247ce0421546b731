"""Sparse polynomial expansion fitted by least-angle regression.

The candidate set is the full total-degree Legendre basis in standardized
coordinates.  LAR builds a forward path of regressors ordered by correlation
with the running residual; every path model is refit by ordinary least squares
and scored by a corrected leave-one-out error, and the best-scoring model is
returned.  The fit is fully deterministic.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from typing import Iterator

import numpy as np
from scipy.linalg import cho_solve, solve_triangular

from .errors import DimensionError, ParameterError
from .polybasis import (
    BasisSet,
    basis_cardinality,
    eval_basis_gradient,
    eval_design_matrix,
    row_blocks,
)

# Columns whose residual norm falls below this fraction of the original norm
# are treated as linearly dependent.
_COLLINEAR_TOL = 1e-12

# Path models within this relative factor of the best LOO score are tied;
# the sparsest tied model wins.
_LOO_TIE_RTOL = 1e-8

# A LOO score this small means the data are fit to machine precision and the
# path cannot improve further.
_LOO_EXACT = 1e-14

_DESIGN_BYTES_LIMIT = 2_000_000_000


def loo_error(regressors: np.ndarray, y: np.ndarray) -> float:
    """Corrected leave-one-out error of an OLS fit, from a single factorization.

    ``regressors`` is the full design matrix of the fitted model including any
    constant column.  Uses the hat-matrix identity
    ``e_i = resid_i / (1 - h_i)``; the mean squared ``e`` is normalized by the
    response variance and multiplied by the finite-sample correction
    ``N/(N-P) * (1 + tr((M^T M)^{-1}))``.

    Returns ``+inf`` when any training point is interpolating (hat diagonal at
    1) or when there are at least as many parameters as points.
    """
    M = np.asarray(regressors, dtype=float)
    y = np.asarray(y, dtype=float)
    n, p = M.shape
    if n != y.shape[0]:
        raise DimensionError(f"{n} design rows vs {y.shape[0]} responses")
    if n <= p:
        return math.inf
    q, r_fact = np.linalg.qr(M)
    if np.min(np.abs(np.diag(r_fact))) <= _COLLINEAR_TOL * n:
        return math.inf
    h = np.einsum("ij,ij->i", q, q)
    if np.max(h) >= 1.0 - 1e-10:
        return math.inf
    resid = y - q @ (q.T @ y)
    e = resid / (1.0 - h)
    sum_sq = float(np.sum((y - y.mean()) ** 2))
    if sum_sq <= 1e-28 * n:
        return 0.0 if float(np.sum(e**2)) <= 1e-24 * n else math.inf
    r_inv = solve_triangular(r_fact, np.eye(p))
    correction = n / (n - p) * (1.0 + float(np.sum(r_inv**2)))
    return float(np.sum(e**2)) / sum_sq * correction


def lar_path(X: np.ndarray, y: np.ndarray,
             max_steps: int | None = None) -> Iterator[tuple[int, np.ndarray]]:
    """Least-angle regression path over centered unit-norm columns.

    Yields ``(column, residual)`` once per joined regressor, where ``residual``
    is the running LAR residual after the equiangular step.  Each step binds a
    new residual array and never writes into one already yielded, so callers
    may keep them without copying.  At each yielded state the active columns
    share the maximal absolute correlation with the residual.  Collinear
    candidates are skipped.  Ties in the correlation maximum resolve to the
    lowest column index.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, n_cols = X.shape
    if max_steps is None:
        max_steps = min(n_cols, n - 1)
    resid = y.copy()
    scale = max(1.0, float(np.linalg.norm(y)))
    active: list[int] = []
    excluded = np.zeros(n_cols, dtype=bool)
    chol = np.zeros((0, 0))

    while len(active) < max_steps and not excluded.all():
        c = X.T @ resid
        cmag = np.abs(c)
        cmag[excluded] = -1.0
        j = int(np.argmax(cmag))
        if cmag[j] <= 1e-12 * scale:
            break
        # grow the Cholesky factor of the active Gram matrix
        if active:
            g = X[:, active].T @ X[:, j]
            a_vec = solve_triangular(chol, g, lower=True)
            d2 = 1.0 - float(a_vec @ a_vec)
            if d2 <= _COLLINEAR_TOL:
                excluded[j] = True
                continue
            k = len(active)
            new = np.zeros((k + 1, k + 1))
            new[:k, :k] = chol
            new[k, :k] = a_vec
            new[k, k] = math.sqrt(d2)
            chol = new
        else:
            chol = np.ones((1, 1))
        active.append(j)
        excluded[j] = True

        s = np.sign(c[active])
        big_c = float(np.max(np.abs(c[active])))
        w0 = cho_solve((chol, True), s)
        denom = float(s @ w0)
        if denom <= 0.0:
            break
        aa = 1.0 / math.sqrt(denom)
        u = X[:, active] @ (aa * w0)
        corr_u = X.T @ u

        gamma = big_c / aa
        free = ~excluded
        if free.any():
            with np.errstate(divide="ignore", invalid="ignore"):
                cand = np.concatenate([
                    (big_c - c[free]) / (aa - corr_u[free]),
                    (big_c + c[free]) / (aa + corr_u[free]),
                ])
            cand = cand[np.isfinite(cand) & (cand > 1e-12)]
            if cand.size:
                gamma = min(gamma, float(np.min(cand)))
        resid = resid - gamma * u
        yield j, resid


@dataclass(frozen=True, eq=False)
class SparsePceModel:
    """Sparse orthonormal-Legendre expansion in standardized coordinates.

    ``indices`` holds the active multi-indices (the constant term is carried
    separately as ``intercept``); ``coefficients`` are in the orthonormal
    basis scale.  Immutable; prediction is safe to share across threads.
    """

    dim: int
    p_max: int
    indices: np.ndarray
    coefficients: np.ndarray
    intercept: float
    loo: float

    def __post_init__(self) -> None:
        idx = np.asarray(self.indices, dtype=np.int64).reshape(-1, self.dim)
        coef = np.asarray(self.coefficients, dtype=float).ravel()
        if idx.shape[0] != coef.shape[0]:
            raise DimensionError(
                f"{idx.shape[0]} active indices vs {coef.shape[0]} coefficients")
        if self.loo < 0.0:
            raise ParameterError("leave-one-out error cannot be negative")
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "coefficients", coef)

    @property
    def basis(self) -> BasisSet:
        return BasisSet(self.indices)

    @property
    def n_active(self) -> int:
        return self.indices.shape[0]

    def predict(self, xi: np.ndarray) -> np.ndarray:
        """Expansion value at points in [-1, 1]^dim; shape (n,)."""
        xi = np.atleast_2d(np.asarray(xi, dtype=float))
        if xi.shape[1] != self.dim:
            raise DimensionError(f"points have {xi.shape[1]} columns, model has {self.dim}")
        out = np.full(xi.shape[0], self.intercept)
        if self.n_active:
            basis = self.basis
            for rows in row_blocks(xi.shape[0], 8 * self.n_active):
                out[rows] += eval_design_matrix(basis, xi[rows]) @ self.coefficients
        return out

    def gradient(self, xi: np.ndarray) -> np.ndarray:
        """Gradient w.r.t. standardized coordinates at each point; shape (n, dim)."""
        xi = np.atleast_2d(np.asarray(xi, dtype=float))
        if xi.shape[1] != self.dim:
            raise DimensionError(f"points have {xi.shape[1]} columns, model has {self.dim}")
        if not self.n_active:
            return np.zeros_like(xi)
        grads = eval_basis_gradient(self.basis, xi)
        return np.einsum("njd,j->nd", grads, self.coefficients)

    def to_json(self) -> str:
        return json.dumps({
            "dim": self.dim,
            "p_max": self.p_max,
            "intercept": self.intercept,
            "active_indices": self.indices.tolist(),
            "coefficients": self.coefficients.tolist(),
            "loo_error": self.loo,
        }, indent=2)


def fit_lar(xi: np.ndarray, y: np.ndarray, p_max: int,
            max_terms: int | None = None) -> SparsePceModel:
    """Fit a sparse expansion on a standardized design of experiments.

    Runs the LAR path over the total-degree candidate basis (centered,
    unit-norm regressors), refits every path model by OLS and keeps the one
    with the smallest corrected leave-one-out error.  Near-ties resolve to the
    sparsest model.

    Args:
        xi: (N_s, dim) training points in [-1, 1]^dim.
        y: length-N_s responses, finite.
        p_max: total degree of the candidate basis, >= 1.
        max_terms: optional cap on the path length below the default
            min(cardinality - 1, N_s - 1); used to bound runtime on very large
            candidate sets.
    """
    xi = np.atleast_2d(np.asarray(xi, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    n = xi.shape[0]
    if n < 3:
        raise ParameterError(f"need at least 3 training points, got {n}")
    if y.shape[0] != n:
        raise DimensionError(f"{n} points vs {y.shape[0]} responses")
    if not np.all(np.isfinite(y)):
        raise ParameterError("responses must be finite")
    if p_max < 1:
        raise ParameterError(f"p_max must be >= 1, got {p_max}")
    dim = xi.shape[1]

    card = basis_cardinality(dim, p_max)
    est_bytes = 2.5 * 8 * n * card
    if est_bytes > _DESIGN_BYTES_LIMIT:
        raise ParameterError(
            f"candidate basis of {card} terms needs about "
            f"{est_bytes / 1e9:.1f} GB of design matrix; reduce p_max")
    candidates = BasisSet.total_degree(dim, p_max)

    def final_model(cols: list[int]) -> SparsePceModel:
        # path columns index phi[:, 1:]; shift past the constant column
        rows = sorted(1 + c for c in cols)
        design = np.column_stack([np.ones(n)] + [phi[:, c] for c in rows])
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        # discard path terms whose refit coefficient is numerically zero
        keep = np.abs(coef[1:]) > 1e-10 * float(np.abs(coef[1:]).max(initial=0.0))
        if not keep.all():
            rows = [r for r, k in zip(rows, keep) if k]
            design = np.column_stack([np.ones(n)] + [phi[:, c] for c in rows])
            coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        return SparsePceModel(
            dim=dim, p_max=p_max,
            indices=candidates.indices[rows],
            coefficients=coef[1:], intercept=float(coef[0]),
            loo=loo_error(design, y))

    if float(np.ptp(y)) <= 1e-14 * max(1.0, float(np.abs(y).max())):
        return SparsePceModel(dim=dim, p_max=p_max,
                              indices=np.empty((0, dim), dtype=np.int64),
                              coefficients=np.empty(0), intercept=float(y.mean()),
                              loo=0.0)

    phi = eval_design_matrix(candidates, xi)
    # centered unit-norm regressors, built in one array beside phi
    X = phi[:, 1:] - phi[:, 1:].mean(axis=0)
    norms = np.sqrt(np.einsum("ij,ij->j", X, X))  # no design-sized X * X
    usable = norms > 1e-12 * max(1.0, float(norms.max()))
    np.divide(X, np.where(usable, norms, 1.0), out=X)
    X[:, ~usable] = 0.0

    max_steps = min(int(np.sum(usable)), n - 1)
    if max_terms is not None:
        max_steps = min(max_steps, max_terms)

    # incremental QR state of the refit design [1 | selected raw columns]
    q_cols = np.empty((n, max_steps + 1))
    q_cols[:, 0] = 1.0 / math.sqrt(n)
    r_inv = np.zeros((max_steps + 1, max_steps + 1))
    r_inv[0, 0] = 1.0 / math.sqrt(n)
    hat = np.full(n, 1.0 / n)
    resid = y - y.mean()
    trace_inv = 1.0 / n
    sum_sq = float(np.sum((y - y.mean()) ** 2))

    def scored(k: int) -> float:
        # corrected LOO of the current k-term refit (k + 1 parameters)
        p = k + 1
        if n <= p or np.max(hat) >= 1.0 - 1e-10:
            return math.inf
        e = resid / (1.0 - hat)
        return float(np.sum(e**2)) / sum_sq * (n / (n - p)) * (1.0 + trace_inv)

    path_cols: list[int] = []
    scores = [scored(0)]
    best_k, best_score = 0, scores[0]

    for col, _ in lar_path(X, y - y.mean(), max_steps=max_steps):
        k = len(path_cols) + 1
        v = phi[:, 1 + col]
        w = q_cols[:, :k].T @ v
        v_perp = v - q_cols[:, :k] @ w
        w2 = q_cols[:, :k].T @ v_perp
        v_perp -= q_cols[:, :k] @ w2
        w += w2
        rho = float(np.linalg.norm(v_perp))
        if rho <= _COLLINEAR_TOL * max(1.0, float(np.linalg.norm(v))):
            warnings.warn("dropping linearly dependent regressor; path stopped",
                          RuntimeWarning)
            break
        q_new = v_perp / rho
        q_cols[:, k] = q_new
        hat = hat + q_new**2
        resid = resid - q_new * float(q_new @ resid)
        new_col = -r_inv[:k, :k] @ (w / rho)
        r_inv[:k, k] = new_col
        r_inv[k, k] = 1.0 / rho
        trace_inv += float(new_col @ new_col) + 1.0 / rho**2

        path_cols.append(col)
        score = scored(k)
        scores.append(score)
        if score < best_score:
            best_score, best_k = score, k
        if score <= _LOO_EXACT:
            break

    # prefer the sparsest model within a hair of the best score
    for k, s in enumerate(scores):
        if s <= best_score * (1.0 + _LOO_TIE_RTOL):
            best_k = k
            break

    if best_k == 0:
        return SparsePceModel(dim=dim, p_max=p_max,
                              indices=np.empty((0, dim), dtype=np.int64),
                              coefficients=np.empty(0), intercept=float(y.mean()),
                              loo=scores[0])
    return final_model(path_cols[:best_k])
