"""Hybrid surrogate on reduced coordinates: component-function trend + GP residual.

The trend is a hierarchical expansion over component functions of at most M
variables, each carrying products of univariate orthonormal Legendre factors
of degree 1..b in all of its variables, so no column repeats across component
functions.  The trend coefficients are the minimum-norm GLS solution, one
least-squares solve on the whitened design.  A zero-mean Gaussian process with
an anisotropic squared-exponential kernel interpolates the trend residual; its
length scales are found by multi-start maximum likelihood.
"""

from __future__ import annotations

import itertools
import json
import math
import multiprocessing
import os
import threading
import time
import warnings
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy.linalg import cho_solve, lstsq, solve_triangular
from scipy.linalg.lapack import dpotrf
from scipy.optimize import minimize
from scipy.spatial.distance import cdist

from . import parallel
from .errors import DimensionError, NumericalError, ParameterError
from .polybasis import BasisSet, eval_design_matrix, row_blocks
from .probspace import sobol_points

_NUGGET_RETRIES = 3
THETA_BOUNDS = (1e-2, 1e2)  # box of every length scale that ``fit`` searches
_ZERO_STEP = 0.025  # simplex step at log theta = 0, as a share of the log box


@dataclass(frozen=True)
class HpcfeConfig:
    """Trend and kernel settings.

    M bounds the component-function interaction order, b the univariate
    degree inside each component.  The nugget is relative to the unit kernel
    diagonal.
    """

    M: int = 2
    b: int = 3
    nugget: float = 1e-8
    restarts: int = 8
    nm_max_evals: int | None = None  # per-start likelihood evaluation cap

    def __post_init__(self) -> None:
        if self.M < 1 or self.b < 1:
            raise ParameterError("interaction order and degree must be >= 1")
        if self.nugget <= 0.0:
            raise ParameterError("nugget must be positive")
        if self.restarts < 1:
            raise ParameterError("need at least one optimizer start")
        if self.nm_max_evals is not None and self.nm_max_evals < 1:
            raise ParameterError("likelihood evaluation cap must be >= 1")


def build_design_matrix(z: np.ndarray, config: HpcfeConfig) -> tuple[np.ndarray, np.ndarray]:
    """Trend design matrix and its multi-index map on standardized coordinates.

    Component functions are enumerated for every variable subset of size 1..M;
    each contributes products of univariate terms of degree 1..b in all of its
    own variables.  A product of nonzero degrees belongs to exactly one subset,
    so the component sets are disjoint and together hold every multi-index
    with 1..M nonzero entries of degree at most b; the constant is excluded.
    Returns (Psi of shape (n, q'), map of shape (q', r)).
    """
    z = np.atleast_2d(np.asarray(z, dtype=float))
    r = z.shape[1]
    rows = []
    for size in range(1, min(config.M, r) + 1):
        for subset in itertools.combinations(range(r), size):
            for degrees in itertools.product(range(1, config.b + 1), repeat=size):
                alpha = [0] * r
                for d, k in zip(subset, degrees):
                    alpha[d] = k
                rows.append(tuple(alpha))
    if not rows:
        raise ParameterError("extended basis is empty")
    rows.sort(key=lambda a: (sum(a), tuple(-x for x in a)))
    basis_map = np.asarray(rows, dtype=np.int64)
    psi = eval_design_matrix(BasisSet(basis_map), z, check_domain=False)
    return psi, basis_map


def _kernel_cross(z_new: np.ndarray, z_train: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Prediction cross-kernel exp(-|a - b|^2), a = z_new sqrt(theta), b likewise.

    The exponent is one GEMM, [2a, |a|^2, 1] @ [b, -1, -|b|^2]^T, at about
    half of cdist's cost per entry for r = 2-3.  The expanded form loses
    about eps (|a|^2 + |b|^2) to cancellation, so the exponent is clamped at
    0 to keep every entry <= 1.  ``correlation_matrix`` keeps the exact
    cdist build: its diagonal must be exactly 1 + nugget.
    """
    sq = np.sqrt(np.asarray(theta, dtype=float))
    a, b = z_new * sq, z_train * sq
    lhs = np.column_stack([2.0 * a, np.einsum("ij,ij->i", a, a), np.ones(a.shape[0])])
    rhs = np.column_stack([b, -np.ones(b.shape[0]), -np.einsum("ij,ij->i", b, b)])
    k = lhs @ rhs.T
    np.minimum(k, 0.0, out=k)
    return np.exp(k, out=k)


def correlation_matrix(z: np.ndarray, theta: np.ndarray, nugget: float) -> np.ndarray:
    """R_ij = exp(-sum_k theta_k (z_ik - z_jk)^2) plus nugget on the diagonal."""
    z = np.atleast_2d(np.asarray(z, dtype=float))
    theta = np.asarray(theta, dtype=float)
    if np.any(theta <= 0.0):
        raise ParameterError("length-scale parameters must be positive")
    if theta.shape[0] != z.shape[1]:
        raise DimensionError(f"{theta.shape[0]} length scales for {z.shape[1]} coordinates")
    zt = z * np.sqrt(theta)
    k = cdist(zt, zt, "sqeuclidean")
    np.negative(k, out=k)
    np.exp(k, out=k)
    k.flat[::z.shape[0] + 1] += nugget
    return k


def _chol_with_retries(z: np.ndarray, theta: np.ndarray,
                       nugget: float) -> tuple[np.ndarray, float]:
    """Cholesky factor of the correlation matrix, raising the nugget on failure.

    LAPACK ``dpotrf`` factors the matrix in place: R is exactly symmetric, so
    its transpose is a Fortran-ordered view of the same memory and nothing is
    copied.  The factor L is the lower triangle of the returned array; the
    upper triangle is left unzeroed and holds entries of R, so its readers,
    ``_profile_likelihood`` and ``_assemble``, take the lower triangle only
    (``lower=True`` solves, ``np.diag``).  No model keeps it.
    """
    eff = nugget
    for _ in range(_NUGGET_RETRIES + 1):
        chol, info = dpotrf(correlation_matrix(z, theta, eff).T, lower=1,
                            overwrite_a=1, clean=0)
        if info == 0:
            return chol, eff
        eff *= 10.0
    raise NumericalError(
        f"correlation matrix not positive definite with nugget up to {eff / 10:.1e}")


def homotopy_solve(x: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Minimum-norm least-squares solution x^+ b of x alpha = b by LAPACK gelsy.

    On the whitened design x = L^-1 Psi, b = L^-1 d this is the GLS trend, and
    rank-deficient or wide x take the same path.  The rank cutoff is pinv's
    1e-15: scipy's default, machine epsilon, kept numerically zero directions.
    """
    return lstsq(x, b, cond=1e-15, lapack_driver="gelsy")[0]


def _rescale(z: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Per-coordinate affine map of the box [lo, hi] onto [-1, 1]."""
    return 2.0 * (z - lo) / (hi - lo) - 1.0


@dataclass(frozen=True)
class StartRecord:
    """One Nelder-Mead start of ``fit``, in log10 theta.

    ``evals`` counts the distinct points at which the start evaluated the
    likelihood; scipy's ``nfev`` also counts the points the start's memo
    answered.  Both depend only on the start, not on the process that ran it
    (``pid``) or on the other starts.  ``seconds`` is the start's wall time.
    """

    start_log_theta: tuple[float, ...]
    log_theta: tuple[float, ...]
    ll: float
    evals: int
    nfev: int
    seconds: float
    pid: int


@dataclass(frozen=True, eq=False)
class HpcfeModel:
    """Fitted hybrid surrogate, built by ``fit`` or ``fit_fixed_theta``.

    The private fields are what ``predict_mean`` reads beyond the public
    ones: the rescaled training points and the residual weights
    R^-1 (d - Psi alpha) at the fitted length scales; no n_train x n_train
    array outlives the fit.  ``starts`` records the optimizer starts of
    ``fit`` in start order (none for ``fit_fixed_theta``); ``to_json`` does
    not write it.  Immutable; prediction is safe to share across threads.
    Equality is identity.
    """

    config: HpcfeConfig
    g0: float
    alpha: np.ndarray
    theta: np.ndarray
    sigma2: float
    z_train: np.ndarray
    d: np.ndarray
    basis_map: np.ndarray
    box_lo: np.ndarray
    box_hi: np.ndarray
    nugget: float
    fit_notes: tuple[str, ...]
    _zs: np.ndarray = field(repr=False)
    _w_resid: np.ndarray = field(repr=False)
    starts: tuple[StartRecord, ...] = field(default=(), repr=False)

    def _scaled(self, z: np.ndarray) -> np.ndarray:
        z = np.atleast_2d(np.asarray(z, dtype=float))
        if z.shape[1] != self.box_lo.shape[0]:
            raise DimensionError(
                f"points have {z.shape[1]} coordinates, model has {self.box_lo.shape[0]}")
        return _rescale(z, self.box_lo, self.box_hi)

    def predict_mean(self, z: np.ndarray) -> np.ndarray:
        """Predictive mean at reduced-space points; shape (n,).

        Rows go in ``polybasis.row_blocks`` of rows x n_train kernel entries.
        """
        zs = self._scaled(z)
        out = np.empty(zs.shape[0])
        basis = BasisSet(self.basis_map)
        for rows in row_blocks(zs.shape[0], 8 * self._zs.shape[0]):
            block = zs[rows]
            phi = eval_design_matrix(basis, block, check_domain=False)
            k = _kernel_cross(block, self._zs, self.theta)
            out[rows] = self.g0 + phi @ self.alpha + k @ self._w_resid
        return out

    def to_json(self) -> str:
        return json.dumps({
            "config": asdict(self.config),
            "g0": self.g0,
            "basis_map": self.basis_map.tolist(),
            "alpha": self.alpha.tolist(),
            "theta": self.theta.tolist(),
            "sigma2": self.sigma2,
            "Z_train": self.z_train.tolist(),
            "d": self.d.tolist(),
            "box": [self.box_lo.tolist(), self.box_hi.tolist()],
            "nugget_effective": self.nugget,
            "fit_notes": list(self.fit_notes),
        }, indent=2)


@dataclass(frozen=True)
class _TrainingData:
    """Validated training set: rescale box, centred responses, trend design."""

    z: np.ndarray
    zs: np.ndarray
    box_lo: np.ndarray
    box_hi: np.ndarray
    g0: float
    d: np.ndarray
    psi_d: np.ndarray  # [trend design | d], the right sides of one triangular solve
    basis_map: np.ndarray
    var_floor: float


def _training_data(z: np.ndarray, y: np.ndarray, config: HpcfeConfig) -> _TrainingData:
    z = np.atleast_2d(np.asarray(z, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    if z.shape[0] != y.shape[0]:
        raise DimensionError(f"{z.shape[0]} points vs {y.shape[0]} responses")
    if z.shape[0] < 4:
        raise ParameterError(f"need at least 4 training points, got {z.shape[0]}")
    if not np.all(np.isfinite(y)) or not np.all(np.isfinite(z)):
        raise ParameterError("training data must be finite")
    span = z.max(axis=0) - z.min(axis=0)
    span = np.where(span > 0.0, span, 1.0)  # flat coordinates keep unit span
    box_lo = z.min(axis=0) - 0.025 * span
    box_hi = z.max(axis=0) + 0.025 * span
    zs = _rescale(z, box_lo, box_hi)
    g0 = float(y.mean())
    d = y - g0
    psi, basis_map = build_design_matrix(zs, config)
    return _TrainingData(z=z, zs=zs, box_lo=box_lo, box_hi=box_hi, g0=g0, d=d,
                         psi_d=np.column_stack([psi, d]), basis_map=basis_map,
                         var_floor=max(float(np.var(y)), 1e-30) * 1e-16)


def _profile_likelihood(data: _TrainingData, theta: np.ndarray, nugget: float):
    """Concentrated log-likelihood and trend solve at fixed length scales.

    Returns (log-likelihood, alpha, sigma2, effective nugget, factor L of R).
    """
    n = data.zs.shape[0]
    chol, eff = _chol_with_retries(data.zs, theta, nugget)
    solved = solve_triangular(chol, data.psi_d, lower=True, check_finite=False)
    x, ld = solved[:, :-1], solved[:, -1]
    alpha = homotopy_solve(x, ld)
    lresid = ld - x @ alpha  # L^-1 (d - psi alpha)
    sigma2 = float(lresid @ lresid) / n
    ll = -0.5 * n * math.log(max(sigma2, data.var_floor)) \
        - float(np.sum(np.log(np.diag(chol))))
    return ll, alpha, sigma2, eff, chol


def _assemble(data: _TrainingData, theta: np.ndarray, config: HpcfeConfig,
              notes: list[str], starts: tuple[StartRecord, ...] = ()) -> HpcfeModel:
    """The fitted model at the given length scales; fit notes are appended.

    The factor of R forms the residual weights and is then dropped.
    """
    _, alpha, sigma2, eff, chol = _profile_likelihood(data, theta, config.nugget)
    if eff != config.nugget:
        notes.append(f"nugget raised to {eff:.1e} for factorization")
    w_resid = cho_solve((chol, True), data.d - data.psi_d[:, :-1] @ alpha)
    return HpcfeModel(config=config, g0=data.g0, alpha=alpha, theta=theta,
                      sigma2=sigma2, z_train=data.z, d=data.d,
                      basis_map=data.basis_map, box_lo=data.box_lo,
                      box_hi=data.box_hi, nugget=eff, fit_notes=tuple(notes),
                      _zs=data.zs, _w_resid=w_resid, starts=starts)


def fit_fixed_theta(z: np.ndarray, y: np.ndarray, theta: np.ndarray,
                    config: HpcfeConfig = HpcfeConfig()) -> HpcfeModel:
    """Fit trend and process variance with length scales held fixed."""
    return _assemble(_training_data(z, y, config), np.asarray(theta, dtype=float),
                     config, [])


@dataclass(frozen=True)
class _Search:
    """What every optimizer start of one ``fit`` shares: the training data,
    the nugget, the log10 theta box and the per-start evaluation cap."""

    data: _TrainingData
    nugget: float
    log_lo: float
    log_hi: float
    max_evals: int


def _one_start(search: _Search, x0: np.ndarray) -> StartRecord:
    """Bounded Nelder-Mead on the negative log-likelihood from ``x0`` (log10 theta).

    The start's own memo maps each log theta it evaluated to its negative
    log-likelihood (inf where non-finite): bounded Nelder-Mead can ask again
    for a point it clipped to a bound.  The initial simplex moves one
    coordinate per vertex to 1.05 times its value, as scipy does, but a
    coordinate at 0 by ``_ZERO_STEP`` of the log box: scipy would step it by
    2.5e-4, and the first Sobol start sits at log theta = 0 (theta = 1, the
    box centre) in every dimension.
    """
    t0 = time.perf_counter()
    memo: dict[bytes, float] = {}

    def neg_ll(log_theta: np.ndarray) -> float:
        log_theta = np.asarray(log_theta, dtype=float)
        key = log_theta.tobytes()
        if key not in memo:
            try:
                ll = _profile_likelihood(search.data, 10.0 ** log_theta, search.nugget)[0]
            except NumericalError:
                ll = -math.inf
            memo[key] = -ll if math.isfinite(ll) else math.inf
        return memo[key]

    r = x0.shape[0]
    moved = np.where(x0 != 0.0, 1.05 * x0, _ZERO_STEP * (search.log_hi - search.log_lo))
    simplex = np.vstack([x0, np.where(np.eye(r, dtype=bool), moved, x0)])
    res = minimize(neg_ll, x0, method="Nelder-Mead",
                   bounds=[(search.log_lo, search.log_hi)] * r,
                   options={"maxfev": search.max_evals, "xatol": 1e-3, "fatol": 1e-4,
                            "initial_simplex": simplex})
    return StartRecord(start_log_theta=tuple(x0.tolist()), log_theta=tuple(res.x.tolist()),
                       ll=-float(res.fun), evals=len(memo), nfev=int(res.nfev),
                       seconds=time.perf_counter() - t0, pid=os.getpid())


# The search of a pool worker process, set once by ``_start_worker`` when the
# process starts; never set in the process that calls ``fit``.
_worker_search: _Search | None = None


def _start_worker(search: _Search) -> None:
    global _worker_search
    _worker_search = search


def _pooled_start(x0: np.ndarray) -> StartRecord:
    return _one_start(_worker_search, x0)


def _fit_workers(starts: int) -> int:
    """Processes for ``starts`` optimizer starts.

    One per start, but no more than the usable cores hold processes of
    ``parallel.blas_threads()`` BLAS threads each: with OpenBLAS threads
    left unpinned, every process would spin one per core.
    """
    return max(1, min(starts, parallel.usable_cores() // parallel.blas_threads()))


def _run_starts(search: _Search, starts: np.ndarray) -> list[StartRecord]:
    """Every start's record, in start order.

    The starts are independent, so they run on a pool of ``_fit_workers``
    forked processes.  Forking shares the training data with the workers
    without pickling it; the pool forks all of its workers before it starts
    its own threads.  With one worker, without the fork start method, or
    while other threads run (a fork copies only the calling thread, and a
    lock another thread holds stays held in the child), the starts run here,
    one after the other.
    """
    workers = _fit_workers(len(starts))
    if workers == 1 or threading.active_count() > 1 \
            or "fork" not in multiprocessing.get_all_start_methods():
        return [_one_start(search, x0) for x0 in starts]
    pool = multiprocessing.get_context("fork").Pool(
        workers, initializer=_start_worker, initargs=(search,))
    try:
        records = pool.map(_pooled_start, starts, chunksize=1)
        pool.close()
    except BaseException:
        pool.terminate()
        raise
    finally:
        pool.join()
    return records


def fit(z: np.ndarray, y: np.ndarray, config: HpcfeConfig = HpcfeConfig()) -> HpcfeModel:
    """Train the hybrid surrogate on reduced coordinates.

    Training coordinates are affinely rescaled per dimension to [-1, 1] with a
    5% margin box (kept on the model; predictions outside it are legitimate
    extrapolation).  Length scales maximize the concentrated log-likelihood
    over Sobol-spread multi-starts in log space (``_run_starts``); best
    candidate by likelihood, then lexicographic theta, so the result does not
    depend on where or in which order the starts ran.
    """
    data = _training_data(z, y, config)
    r = data.z.shape[1]
    log_lo, log_hi = map(math.log10, THETA_BOUNDS)
    starts = log_lo + (log_hi - log_lo) * sobol_points(config.restarts, r)
    search = _Search(data=data, nugget=config.nugget, log_lo=log_lo, log_hi=log_hi,
                     max_evals=config.nm_max_evals or (60 + 40 * r))
    records = tuple(_run_starts(search, starts))
    candidates = [(-rec.ll, tuple(10.0 ** np.asarray(rec.log_theta)))
                  for rec in records if math.isfinite(rec.ll)]
    if not candidates:
        raise NumericalError("likelihood was non-finite for every optimizer start")
    candidates.sort(key=lambda c: (c[0], c[1]))
    best_theta = np.asarray(candidates[0][1], dtype=float)

    notes: list[str] = []
    log_best = np.log10(best_theta)
    edge = np.isclose(log_best, log_lo, atol=1e-6) | np.isclose(log_best, log_hi, atol=1e-6)
    if edge.any():
        msg = "length scale at optimization bound"
        warnings.warn(msg, RuntimeWarning)
        notes.append(msg)
    return _assemble(data, best_theta, config, notes, records)
