"""Orthonormal Legendre polynomials and total-degree tensor bases.

The one-dimensional family is orthonormal with respect to the uniform
distribution on [-1, 1]: ``psi_k(t) = sqrt(2 k + 1) * P_k(t)`` with the
classical Legendre ``P_k``.  Multivariate basis functions are tensor products
``Phi_alpha(t) = prod_d psi_{alpha_d}(t_d)`` over multi-indices ``alpha``
truncated by total degree.
"""

from __future__ import annotations

import itertools
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
    tables = _tabulate(np.asarray(t, dtype=float)[..., None], degree, derivatives)
    if not derivatives:
        return tables[..., 0]
    return tables[0][..., 0], tables[1][..., 0]


def _tabulate(t: np.ndarray, degree: int, derivatives: bool = False):
    # The degree axis goes second to last: shape t.shape[:-1] + (degree + 1,)
    # + t.shape[-1:], so each (coordinate, degree) row over the last axis of
    # t is contiguous.
    if degree < 0:
        raise ParameterError(f"degree must be nonnegative, got {degree}")
    P = np.empty(t.shape[:-1] + (degree + 1,) + t.shape[-1:])
    P[..., 0, :] = 1.0
    if degree >= 1:
        P[..., 1, :] = t
    for k in range(1, degree):
        P[..., k + 1, :] = ((2 * k + 1) * t * P[..., k, :]
                            - k * P[..., k - 1, :]) / (k + 1)
    scale = np.sqrt(2.0 * np.arange(degree + 1) + 1.0)[:, None]
    if not derivatives:
        P *= scale
        return P
    D = np.zeros_like(P)
    if degree >= 1:
        D[..., 1, :] = 1.0
    for k in range(1, degree):
        D[..., k + 1, :] = D[..., k - 1, :] + (2 * k + 1) * P[..., k, :]
    # the D recurrence reads the unscaled P, so scale only now
    P *= scale
    D *= scale
    return P, D


@lru_cache(maxsize=64)
def total_degree_indices(dim: int, degree: int) -> np.ndarray:
    """All multi-indices with ``sum(alpha) <= degree``, graded-lexicographic.

    Within each total degree the leftmost coordinate dominates, so for two
    dimensions the order is (0,0), (1,0), (0,1), (2,0), (1,1), (0,2), ...
    That is the order of the key ``(sum(alpha), tuple(-a for a in alpha))``.
    The result is cached and returned read-only.
    """
    if dim < 1:
        raise ParameterError(f"dim must be positive, got {dim}")
    if degree < 0:
        raise ParameterError(f"degree must be nonnegative, got {degree}")
    blocks = []
    for q in range(degree + 1):
        # A degree-q index is a multiset of q coordinates; listing the
        # multisets as sorted tuples in lexicographic order puts the index
        # with more weight on the leftmost coordinate first.
        picks = np.array(list(itertools.combinations_with_replacement(range(dim), q)),
                         dtype=np.int64)
        block = np.zeros((picks.shape[0], dim), dtype=np.int64)
        rows = np.arange(picks.shape[0])
        for s in range(q):
            block[rows, picks[:, s]] += 1
        blocks.append(block)
    out = np.concatenate(blocks)
    out.setflags(write=False)
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


def _check_points(points: np.ndarray, dim: int, check_domain: bool) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != dim:
        raise DimensionError(f"points have {pts.shape[1]} columns, basis needs {dim}")
    if check_domain and np.any(np.abs(pts) > 1.0 + _DOMAIN_TOL):
        raise DomainError("evaluation points must lie in [-1, 1]^dim")
    return pts


def eval_design_matrix(basis: BasisSet, points: np.ndarray,
                       check_domain: bool = True) -> np.ndarray:
    """Design matrix ``Phi[i, j] = Phi_{alpha_j}(points[i])`` of shape (n, cardinality).

    Column ``j`` is the product of the univariate factors of the nonzero
    entries of ``alpha_j`` only, taken in ascending coordinate order; a zero
    row gives a column of ones.  The factors dropped are ``psi_0 = 1.0``
    exactly, so the work is proportional to the number of nonzero exponents,
    not to cardinality times dimension.
    """
    pts = _check_points(points, basis.dim, check_domain)
    n, card = pts.shape[0], basis.cardinality
    idx = basis.indices
    used = np.flatnonzero(idx.any(axis=0))
    deg = basis.max_degree
    # one row of n values per (used coordinate u, degree a): row u * (deg + 1) + a
    table = _tabulate(np.ascontiguousarray(pts[:, used].T), deg).reshape(
        used.size * (deg + 1), n)
    # row-major nonzeros list each column's factors in ascending coordinate order
    cols, u = np.nonzero(idx[:, used])
    factor = u * (deg + 1) + idx[cols, used[u]]
    count = np.bincount(cols, minlength=card)
    first = np.cumsum(count) - count
    out = np.ones((card, n))
    for k in np.unique(count[count > 0]):
        sel = np.flatnonzero(count == k)
        prod = table[factor[first[sel]]]
        for s in range(1, k):
            prod *= table[factor[first[sel] + s]]
        out[sel] = prod
    return out.T.copy()


# Fewest rows in a row block.  Blocks are powers of two, so whole multiples of
# this: every row meets the same BLAS kernel path (OpenBLAS gemv takes rows in
# groups) as in one unblocked call.
BLOCK_ROW_ALIGN = 64

# Byte budget of one prediction block (a rows x terms design or a rows x
# n_train cross-kernel), so that prediction memory does not grow with the
# point count or n_train.
BLOCK_BYTES = 8 * 2**20


def row_blocks(n_rows: int, row_bytes: int) -> list[slice]:
    """Slices cutting ``n_rows`` rows of ``row_bytes`` each into blocks.

    A block holds the largest power of two of rows that fits ``BLOCK_BYTES``,
    and at least ``BLOCK_ROW_ALIGN``.  Matrix products are not bitwise
    row-independent: OpenBLAS gemm computes the last rows of a call in a
    narrower kernel.  Power-of-two blocks no larger than a Monte Carlo sample
    block cut it at the same rows as they cut the whole chunk it belongs to,
    so a prediction on the block runs the same BLAS calls as on the chunk.
    """
    step = BLOCK_ROW_ALIGN
    while 2 * step * row_bytes <= BLOCK_BYTES:
        step *= 2
    return [slice(start, start + step) for start in range(0, n_rows, step)]


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
