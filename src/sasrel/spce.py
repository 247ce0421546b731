"""Sparse polynomial expansion fitted by least-angle regression.

The candidate set is the full total-degree Legendre basis in standardized
coordinates.  LAR builds a forward path of regressors ordered by correlation
with the running residual.  One incremental QR of the joined columns gives
both the path's equiangular directions and the ordinary least-squares refit
of every path model, scored by a corrected leave-one-out error; no Gram
factor is kept beside it.  The best-scoring model is returned from the same
refit.  The fit is fully deterministic.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

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


class _IncrementalOls:
    """OLS fit of ``y`` on ``M = [1 | columns]``, grown one raw column at a time.

    Keeps a Gram-Schmidt QR of ``M`` (each column orthogonalized twice),
    ``R^-1``, the hat diagonal ``h`` and ``tr((M^T M)^-1)``, so one column
    costs O(n k).  The corrected leave-one-out error is the mean squared
    ``resid_i / (1 - h_i)`` over the response variance, times
    ``N/(N-P) * (1 + tr((M^T M)^-1))``; it is ``+inf`` when a point is
    interpolated (``h_i`` at 1) or there are at least as many parameters as
    points.
    """

    def __init__(self, y: np.ndarray, max_cols: int):
        n = y.shape[0]
        self.y = y
        self.k = 0  # columns added besides the constant
        self.max_cols = max_cols
        self.q = np.empty((n, max_cols + 1))
        self.q[:, 0] = 1.0 / math.sqrt(n)
        self.r_inv = np.zeros((max_cols + 1, max_cols + 1))
        self.r_inv[0, 0] = 1.0 / math.sqrt(n)
        self.hat = np.full(n, 1.0 / n)
        self.resid = y - y.mean()
        self.trace_inv = 1.0 / n
        self.sum_sq = float(np.sum(self.resid**2))

    def add(self, v: np.ndarray) -> bool:
        """Append column ``v``; False, with nothing changed, if it is dependent."""
        k = self.k + 1
        q = self.q[:, :k]
        w = q.T @ v
        v_perp = v - q @ w
        w2 = q.T @ v_perp
        v_perp -= q @ w2
        w += w2
        rho = float(np.linalg.norm(v_perp))
        if rho <= _COLLINEAR_TOL * max(1.0, float(np.linalg.norm(v))):
            return False
        q_new = v_perp / rho
        self.q[:, k] = q_new
        self.hat = self.hat + q_new**2
        self.resid = self.resid - q_new * float(q_new @ self.resid)
        new_col = -self.r_inv[:k, :k] @ (w / rho)
        self.r_inv[:k, k] = new_col
        self.r_inv[k, k] = 1.0 / rho
        self.trace_inv += float(new_col @ new_col) + 1.0 / rho**2
        self.k = k
        return True

    def coefficients(self) -> np.ndarray:
        """``R^-1 Q^T y``: the intercept, then one coefficient per added column."""
        p = self.k + 1
        return self.r_inv[:p, :p] @ (self.q[:, :p].T @ self.y)

    def loo(self) -> float:
        """Corrected leave-one-out error of the current fit."""
        n, p = self.y.shape[0], self.k + 1
        if n <= p or np.max(self.hat) >= 1.0 - 1e-10:
            return math.inf
        e = self.resid / (1.0 - self.hat)
        return float(np.sum(e**2)) / self.sum_sq * (n / (n - p)) * (1.0 + self.trace_inv)


def lar_path(raw: np.ndarray, norms: np.ndarray,
             ols: _IncrementalOls) -> Iterator[tuple[int, np.ndarray]]:
    """Least-angle regression path over the centered unit-norm candidates.

    The regressors are the columns of ``raw`` centered and divided by
    ``norms``, their centered norms; a column of norm 0 starts out excluded.
    ``ols`` fits the response on the constant alone.  The running residual
    and every equiangular direction are orthogonal to the constant, so a
    regressor's correlation with either is ``raw[:, j] @ v / norms[j]`` and
    the centered columns are never formed.  Each joining column is appended
    raw to ``ols``; the columns it rejects as dependent are skipped.  With the
    joined centered columns ``X_A = Q_1 R_1 D^-1`` (``Q_1``, ``R_1`` the QR
    blocks past the constant, ``D`` their norms), the equiangular direction is
    ``u = Q_1 v / |v|`` with ``v = R_1^-T D s``, ``s`` the signs of the active
    correlations.  The path ends when ``ols`` holds the columns it was sized
    for or no candidate correlates with the residual.

    Yields ``(column, residual)`` once per joined regressor, where ``residual``
    is the running LAR residual after the equiangular step.  Each step binds a
    new residual array and never writes into one already yielded, so callers
    may keep them without copying.  At each yielded state the active columns
    share the maximal absolute correlation with the residual.  Ties in the
    correlation maximum resolve to the lowest column index.
    """
    resid = ols.resid
    scale = max(1.0, float(np.linalg.norm(resid)))
    active: list[int] = []
    excluded = norms == 0.0
    # an excluded column's correlation is never read
    divisor = np.where(excluded, 1.0, norms)

    while ols.k < ols.max_cols and not excluded.all():
        c = raw.T @ resid / divisor
        cmag = np.abs(c)
        cmag[excluded] = -1.0
        j = int(np.argmax(cmag))
        if cmag[j] <= 1e-12 * scale:
            break
        excluded[j] = True
        if not ols.add(raw[:, j]):
            continue
        active.append(j)

        k = ols.k
        s = np.sign(c[active])
        big_c = float(np.max(np.abs(c[active])))
        v = ols.r_inv[1:k + 1, 1:k + 1].T @ (norms[active] * s)
        aa = 1.0 / float(np.linalg.norm(v))
        u = ols.q[:, 1:k + 1] @ (aa * v)
        corr_u = raw.T @ u / divisor

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
        return eval_basis_gradient(self.basis, xi, self.coefficients)

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
    unit-norm regressors, read from the one raw candidate design and its
    centered column norms); the path's incremental OLS refit of the raw joined
    columns scores every path model by its corrected leave-one-out error.  The
    sparsest model near the best score is replayed, in path order, through a
    fresh refit, which gives its coefficients and stored score; numerically
    zero terms are dropped by one more replay.

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
    # the fit peaks at 1.5 candidate designs: the design and its work blocks
    est_bytes = 1.5 * 8 * n * card
    if est_bytes > _DESIGN_BYTES_LIMIT:
        raise ParameterError(
            f"candidate basis of {card} terms needs about "
            f"{est_bytes / 1e9:.1f} GB of design matrix; reduce p_max")
    candidates = BasisSet.total_degree(dim, p_max)

    if float(np.ptp(y)) <= 1e-14 * max(1.0, float(np.abs(y).max())):
        return SparsePceModel(dim=dim, p_max=p_max,
                              indices=np.empty((0, dim), dtype=np.int64),
                              coefficients=np.empty(0), intercept=float(y.mean()),
                              loo=0.0)

    phi = eval_design_matrix(candidates, xi)
    raw = phi[:, 1:]  # path columns index the candidates past the constant
    # centered norms, one block of centered columns at a time
    mean = raw.mean(axis=0)
    norms = np.empty(card - 1)
    for cols in row_blocks(card - 1, 8 * n):
        centered = raw[:, cols] - mean[cols]
        norms[cols] = np.sqrt(np.einsum("ij,ij->j", centered, centered))
    norms[norms <= 1e-12 * max(1.0, float(norms.max()))] = 0.0

    max_steps = min(int(np.count_nonzero(norms)), n - 1)
    if max_terms is not None:
        max_steps = min(max_steps, max_terms)

    def refit(cols: list[int]) -> _IncrementalOls:
        ols = _IncrementalOls(y, len(cols))
        for c in cols:
            ols.add(raw[:, c])
        return ols

    path = _IncrementalOls(y, max_steps)
    path_cols: list[int] = []
    scores = [path.loo()]
    for col, _ in lar_path(raw, norms, path):
        path_cols.append(col)
        scores.append(path.loo())
        if scores[-1] <= _LOO_EXACT:
            break

    # the sparsest model within a hair of the best score
    best = min(scores)
    best_k = next(k for k, s in enumerate(scores) if s <= best * (1.0 + _LOO_TIE_RTOL))
    ols = refit(path_cols[:best_k])
    # discard path terms whose refit coefficient is numerically zero; the
    # kept columns are a subset of an independent prefix, so none is rejected
    size = np.abs(ols.coefficients()[1:])
    cols = [c for c, a in zip(path_cols, size) if a > 1e-10 * size.max(initial=0.0)]
    if len(cols) < best_k:
        ols = refit(cols)
    coef = ols.coefficients()
    order = np.argsort(cols)
    return SparsePceModel(
        dim=dim, p_max=p_max,
        indices=candidates.indices[1 + np.asarray(cols, dtype=np.int64)[order]],
        coefficients=coef[1:][order], intercept=float(coef[0]), loo=ols.loo())
