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


def legendre_tables(t: np.ndarray, degree: int) -> np.ndarray:
    """Tabulate psi_0 .. psi_degree at ``t``.

    Uses the three-term recurrence ``(k+1) P_{k+1} = (2k+1) t P_k - k P_{k-1}``.

    Args:
        t: evaluation points, any shape.
        degree: highest polynomial degree tabulated.

    Returns:
        Array of shape ``t.shape + (degree + 1,)``.
    """
    t = np.asarray(t, dtype=float)
    rest = _tabulate(t[..., None], degree)[..., 0]
    return np.concatenate([np.ones(t.shape + (1,)), rest], axis=-1)


def _tabulate(t: np.ndarray, degree: int) -> np.ndarray:
    # psi_1 .. psi_degree; psi_0 = 1.0 is left out, as no product reads it.
    # The degree axis goes second to last: shape t.shape[:-1] + (degree,)
    # + t.shape[-1:], so each (coordinate, degree) row over the last axis of
    # t is contiguous.
    if degree < 0:
        raise ParameterError(f"degree must be nonnegative, got {degree}")
    P = np.empty(t.shape[:-1] + (degree,) + t.shape[-1:])
    if degree >= 1:
        P[..., 0, :] = t
    for k in range(1, degree):
        prev = P[..., k - 2, :] if k >= 2 else 1.0
        P[..., k, :] = ((2 * k + 1) * t * P[..., k - 1, :] - k * prev) / (k + 1)
    P *= np.sqrt(2.0 * np.arange(1, degree + 1) + 1.0)[:, None]
    return P


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


def eval_design_matrix(basis: BasisSet, points: np.ndarray,
                       check_domain: bool = True) -> np.ndarray:
    """Design matrix ``Phi[i, j] = Phi_{alpha_j}(points[i])`` of shape (n, cardinality).

    Column ``j`` is the product of the univariate factors of the nonzero
    entries of ``alpha_j`` only, taken in ascending coordinate order; a zero
    row gives a column of ones.  The factors dropped are ``psi_0 = 1.0``
    exactly, so the work is proportional to the number of nonzero exponents,
    not to cardinality times dimension.  The result is filled in
    ``row_blocks`` of at most ``BLOCK_BYTES / 16``, each block's products
    written straight into their columns, so the only design-sized array is
    the result.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != basis.dim:
        raise DimensionError(f"points have {pts.shape[1]} columns, basis needs {basis.dim}")
    if check_domain and np.any(np.abs(pts) > 1.0 + _DOMAIN_TOL):
        raise DomainError("evaluation points must lie in [-1, 1]^dim")
    n, card = pts.shape[0], basis.cardinality
    idx = basis.indices
    used = np.flatnonzero(idx.any(axis=0))
    deg = basis.max_degree
    # one row of n values per (used coordinate u, degree a >= 1): row u * deg + a - 1
    table = _tabulate(np.ascontiguousarray(pts[:, used].T), deg).reshape(
        used.size * deg, n)
    # row-major nonzeros list each column's factors in ascending coordinate order
    cols, u = np.nonzero(idx[:, used])
    factor = u * deg + idx[cols, used[u]] - 1
    count = np.bincount(cols, minlength=card)
    first = np.cumsum(count) - count
    out = np.ones((n, card))
    # Products go into the result a column at a time, which is fast only while
    # the block stays in a core's cache: a sixteenth of the budget (at 8192
    # rows of 50 terms, 3.7 ms a call against 9.1 ms in full-budget blocks).
    for rows in row_blocks(n, 16 * 8 * card):
        for k in np.unique(count[count > 0]):
            sel = np.flatnonzero(count == k)
            prod = table[factor[first[sel]], rows]
            for s in range(1, k):
                prod *= table[factor[first[sel] + s], rows]
            out[rows, sel] = prod.T
    return out


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
    and at least ``BLOCK_ROW_ALIGN``, and stops growing once it holds every
    row (so rows of zero bytes make one block).  Matrix products are not
    bitwise row-independent: OpenBLAS gemm computes the last rows of a call
    in a narrower kernel.  Power-of-two blocks no larger than a Monte Carlo sample
    block cut it at the same rows as they cut the whole chunk it belongs to,
    so a prediction on the block runs the same BLAS calls as on the chunk.
    """
    step = BLOCK_ROW_ALIGN
    while step < n_rows and 2 * step * row_bytes <= BLOCK_BYTES:
        step *= 2
    return [slice(start, start + step) for start in range(0, n_rows, step)]


def eval_basis_gradient(basis: BasisSet, points: np.ndarray,
                        coefficients: np.ndarray) -> np.ndarray:
    """Gradient of the expansion ``sum_j c_j Phi_{alpha_j}``; shape (n, dim).

    The derivative of an orthonormal Legendre function is an expansion in the
    same family, ``psi_k' = sqrt(2k+1) sum_{m<k, k-m odd} sqrt(2m+1) psi_m``,
    so ``d Phi_alpha / d t_e`` lowers ``alpha_e`` by 1, 3, 5, ... with those
    weights.  The lowered multi-indices of all terms, equal ones merged, form
    one basis and a coefficient matrix ``G`` (terms' x dim) whose column ``e``
    expands ``df / dt_e``; the gradient is that basis's design matrix times
    ``G``.
    """
    idx = basis.indices
    coef = np.asarray(coefficients, dtype=float).ravel()
    if coef.shape[0] != basis.cardinality:
        raise DimensionError(
            f"{coef.shape[0]} coefficients for {basis.cardinality} basis functions")
    term, e = np.nonzero(idx)
    k = idx[term, e]
    # one entry per (term, coordinate e, lowered degree m = k-1, k-3, ... >= 0)
    reps = (k + 1) // 2
    first = np.repeat(np.cumsum(reps) - reps, reps)
    term, e, k = np.repeat(term, reps), np.repeat(e, reps), np.repeat(k, reps)
    m = k - 1 - 2 * (np.arange(term.size) - first)
    lowered = idx[term]
    lowered[np.arange(term.size), e] = m
    weight = coef[term] * np.sqrt(2.0 * k + 1.0) * np.sqrt(2.0 * m + 1.0)
    derived, row = np.unique(lowered, axis=0, return_inverse=True)
    G = np.zeros((derived.shape[0], basis.dim))
    np.add.at(G, (row.ravel(), e), weight)
    return eval_design_matrix(BasisSet(derived), points) @ G
