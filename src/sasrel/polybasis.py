"""Orthonormal Legendre polynomials and total-degree tensor bases.

The one-dimensional family is orthonormal with respect to the uniform
distribution on [-1, 1]: ``psi_k(t) = sqrt(2 k + 1) * P_k(t)`` with the
classical Legendre ``P_k``.  Multivariate basis functions are tensor products
``Phi_alpha(t) = prod_d psi_{alpha_d}(t_d)`` over multi-indices ``alpha``
truncated by total degree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionError, DomainError, ParameterError

_DOMAIN_TOL = 1e-12


def legendre_tables(t: np.ndarray, degree: int, derivatives: bool = False):
    """Tabulate psi_0 .. psi_degree (and optionally derivatives) at ``t``.

    Uses the three-term recurrence ``(k+1) P_{k+1} = (2k+1) t P_k - k P_{k-1}``
    and, for derivatives, ``P'_{k+1} = P'_{k-1} + (2k+1) P_k``, which stays
    well defined at the interval endpoints.

    Args:
        t: evaluation points, any shape.
        degree: highest polynomial degree tabulated.
        derivatives: also return the derivative table.

    Returns:
        Array of shape ``t.shape + (degree + 1,)``, or a tuple of two such
        arrays when ``derivatives`` is set.
    """
    if degree < 0:
        raise ParameterError(f"degree must be nonnegative, got {degree}")
    t = np.asarray(t, dtype=float)
    P = np.empty(t.shape + (degree + 1,))
    P[..., 0] = 1.0
    if degree >= 1:
        P[..., 1] = t
    for k in range(1, degree):
        P[..., k + 1] = ((2 * k + 1) * t * P[..., k] - k * P[..., k - 1]) / (k + 1)
    scale = np.sqrt(2.0 * np.arange(degree + 1) + 1.0)
    if not derivatives:
        return P * scale
    D = np.zeros_like(P)
    if degree >= 1:
        D[..., 1] = 1.0
    for k in range(1, degree):
        D[..., k + 1] = D[..., k - 1] + (2 * k + 1) * P[..., k]
    return P * scale, D * scale


@lru_cache(maxsize=64)
def total_degree_indices(dim: int, degree: int) -> np.ndarray:
    """All multi-indices with ``sum(alpha) <= degree``, graded-lexicographic.

    Within each total degree the leftmost coordinate dominates, so for two
    dimensions the order is (0,0), (1,0), (0,1), (2,0), (1,1), (0,2), ...
    The result is cached and returned read-only.
    """
    if dim < 1:
        raise ParameterError(f"dim must be positive, got {dim}")
    if degree < 0:
        raise ParameterError(f"degree must be nonnegative, got {degree}")
    rows = []
    for q in range(degree + 1):
        rows.extend(_compositions(q, dim))
    out = np.array(rows, dtype=np.int64)
    out.setflags(write=False)
    return out


def _compositions(total: int, dim: int) -> list[tuple[int, ...]]:
    # dim-tuples of nonnegative integers summing to total, first entry largest.
    if dim == 1:
        return [(total,)]
    out = []
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, dim - 1):
            out.append((first,) + rest)
    return out


def basis_cardinality(dim: int, degree: int) -> int:
    """Number of total-degree basis functions, ``C(dim + degree, degree)``."""
    return math.comb(dim + degree, degree)


@dataclass(frozen=True)
class BasisSet:
    """A fixed set of multivariate Legendre basis functions.

    ``indices`` has shape (cardinality, dim); row ``j`` holds the per-dimension
    degrees of basis function ``j``.  Row 0 of a total-degree set is the
    constant function.
    """

    indices: np.ndarray

    def __post_init__(self) -> None:
        idx = np.asarray(self.indices, dtype=np.int64)
        if idx.ndim != 2:
            raise DimensionError(f"index set must be 2-D, got shape {idx.shape}")
        if idx.size and idx.min() < 0:
            raise ParameterError("multi-index entries must be nonnegative")
        object.__setattr__(self, "indices", idx)

    @classmethod
    def total_degree(cls, dim: int, degree: int) -> "BasisSet":
        return cls(total_degree_indices(dim, degree))

    @property
    def cardinality(self) -> int:
        return self.indices.shape[0]

    @property
    def dim(self) -> int:
        return self.indices.shape[1]

    @property
    def max_degree(self) -> int:
        return int(self.indices.max(initial=0))

    def subset(self, rows) -> "BasisSet":
        return BasisSet(self.indices[np.asarray(rows)])


def _check_points(points: np.ndarray, dim: int, check_domain: bool) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != dim:
        raise DimensionError(f"points have {pts.shape[1]} columns, basis needs {dim}")
    if check_domain and np.any(np.abs(pts) > 1.0 + _DOMAIN_TOL):
        raise DomainError("evaluation points must lie in [-1, 1]^dim")
    return pts


def eval_design_matrix(basis: BasisSet, points: np.ndarray,
                       check_domain: bool = True) -> np.ndarray:
    """Design matrix ``Phi[i, j] = Phi_{alpha_j}(points[i])`` of shape (n, cardinality)."""
    pts = _check_points(points, basis.dim, check_domain)
    tables = legendre_tables(pts, basis.max_degree)  # (n, dim, deg+1)
    out = np.ones((pts.shape[0], basis.cardinality))
    for d in range(basis.dim):
        col = basis.indices[:, d]
        if col.any():
            out *= tables[:, d, col]
    return out


def eval_basis_gradient(basis: BasisSet, points: np.ndarray,
                        check_domain: bool = True) -> np.ndarray:
    """Gradients of every basis function at every point.

    Returns an array of shape (n, cardinality, dim),
    ``G[i, j, e] = d Phi_{alpha_j} / d t_e`` at ``points[i]``.  Built from
    prefix and suffix products of the per-dimension value tables so each
    dimension is touched once.
    """
    pts = _check_points(points, basis.dim, check_domain)
    n, dim, card = pts.shape[0], basis.dim, basis.cardinality
    tables, dtables = legendre_tables(pts, basis.max_degree, derivatives=True)

    vals = np.empty((dim, n, card))
    for d in range(dim):
        vals[d] = tables[:, d, basis.indices[:, d]]
    suffix = np.ones((n, card))
    suffixes = np.empty((dim, n, card))
    for d in range(dim - 1, -1, -1):
        suffixes[d] = suffix
        suffix = suffix * vals[d]

    grad = np.zeros((n, card, dim))
    prefix = np.ones((n, card))
    for d in range(dim):
        col = basis.indices[:, d]
        if col.any():  # all-zero exponents give identically zero derivatives
            grad[:, :, d] = prefix * dtables[:, d, col] * suffixes[d]
        prefix = prefix * vals[d]
    return grad
