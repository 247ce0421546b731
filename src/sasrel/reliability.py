"""Failure-probability estimation and the reduced-surrogate pipeline.

Failure is the event g(x) < 0 (g = 0 counts as safe).  Direct Monte Carlo
evaluates the true limit state.  ``fit_training`` spends the surrogates'
true-model budget once, on a Sobol design, and fits a sparse expansion to it;
the ``spce`` baseline samples that expansion, and ``sas-hpcfe`` chains
gradient-based subspace -> hybrid surrogate on reduced coordinates ->
surrogate Monte Carlo.
"""

from __future__ import annotations

import math
import threading
import warnings
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.special import ndtri

from . import hpcfe as hp
from . import parallel
from .activesub import fd_cost, subspace_from_surrogate
from .errors import DimensionError, NumericalError, ParameterError
from .probspace import ProbabilisticModel, sobol_points, uniform_stream
from .spce import SparsePceModel, fit_lar

SCATTER_ROWS = 4096  # surrogate Monte-Carlo samples kept for the subspace scatter


@dataclass(frozen=True)
class LimitState:
    """A deterministic performance function; negative values mean failure.

    ``fn`` maps a (n, dim) block of physical-space points to n values.
    """

    name: str
    dim: int
    fn: Callable[[np.ndarray], np.ndarray]

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != self.dim:
            raise DimensionError(
                f"{self.name} expects {self.dim} variables, got {x.shape[1]}")
        g = np.asarray(self.fn(x), dtype=float)
        if g.size != x.shape[0]:
            raise DimensionError(
                f"{self.name} returned {g.size} values for {x.shape[0]} points")
        return g.reshape(x.shape[0])


class CountingLimitState:
    """Wrapper auditing how many true-model evaluations were spent."""

    def __init__(self, inner: LimitState):
        self.inner = inner
        self.n_evals = 0
        self._lock = threading.Lock()  # Monte Carlo blocks evaluate concurrently

    @property
    def name(self) -> str:
        return self.inner.name

    @property
    def dim(self) -> int:
        return self.inner.dim

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        out = self.inner.evaluate(x)
        with self._lock:
            self.n_evals += out.shape[0]
        return out


@dataclass(frozen=True)
class ReliabilityResult:
    """Outcome of one estimator run.

    ``beta`` is derived from ``pf`` by ``reliability_index``.  ``cov_pf`` is
    the Monte-Carlo estimator coefficient of variation sqrt((1 - pf) / (n pf));
    it is carried only by sampling estimators.
    """

    method: str
    pf: float
    n_model_evals: int
    n_surrogate_evals: int = 0
    cov_pf: float | None = None
    r: int | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.pf <= 1.0:
            raise ParameterError(f"failure probability {self.pf} outside [0, 1]")

    @property
    def beta(self) -> float:
        return reliability_index(self.pf)

    CSV_FIELDS = ("method", "pf", "beta", "n_model_evals", "n_surrogate_evals",
                  "cov_pf", "r", "seed")


def reliability_index(pf: float) -> float:
    """beta = Phi^{-1}(1 - pf), with signed-infinity sentinels at pf in {0, 1}."""
    if not 0.0 <= pf <= 1.0:
        raise ParameterError(f"failure probability {pf} outside [0, 1]")
    if pf == 0.0:
        return math.inf
    if pf == 1.0:
        return -math.inf
    return float(-ndtri(pf) + 0.0)  # norm.isf(pf), bitwise; + 0.0 turns -0.0 into 0.0


# Most Monte Carlo blocks evaluated at once, whatever the core count.  Each
# block under evaluation holds its samples, their transformed copy and the
# surrogate's work arrays (tracemalloc: at most about 16 MB per block on the
# beam study, 38 MB on the 100-dimensional g-function), so this cap bounds the
# pool's memory on many-core hosts.
MAX_POOL_WORKERS = 4


def _failure_probability(g, n: int, seed: int, dim: int,
                         what: str) -> tuple[float, float]:
    """Monte Carlo failure probability of ``g`` and its coefficient of variation.

    The ``n`` U(0,1) samples stream from ``uniform_stream(seed, n, dim)`` in
    blocks of at most ``probspace.SAMPLE_BLOCK`` rows, and ``g(u)`` maps one
    block to its limit-state values.  Blocks are evaluated on a pool of one
    thread per core, at most ``MAX_POOL_WORKERS``, with at most one block more
    than the pool in flight, so memory grows with neither the sample size nor
    the core count; ``g`` must be safe to call from several threads at once.
    Results are collected in stream order on the calling thread and the
    failure count is an integer sum, so the estimate does not depend on the
    pool size.  A non-finite value raises instead of counting as safe, naming
    the first such sample in stream order.  The CoV is
    sqrt((1 - pf) / (n pf)), infinite at pf = 0.
    """
    workers = min(parallel.usable_cores(), MAX_POOL_WORKERS)
    pool = ThreadPoolExecutor(max_workers=workers)
    pending = deque()  # (rows, future) per block in flight, in stream order
    failures = 0
    done = 0

    def collect_oldest() -> None:
        nonlocal failures, done
        rows, future = pending.popleft()
        values = np.asarray(future.result(), dtype=float).reshape(rows)
        finite = np.isfinite(values)
        if not finite.all():
            raise NumericalError(
                f"non-finite {what} at sample {done + int(np.argmin(finite))}")
        failures += int(np.count_nonzero(values < 0.0))
        done += rows

    try:
        for u in uniform_stream(seed, n, dim):
            pending.append((u.shape[0], pool.submit(g, u)))
            if len(pending) > workers:
                collect_oldest()
        while pending:
            collect_oldest()
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
    pf = failures / n
    return pf, (math.sqrt((1.0 - pf) / (n * pf)) if pf > 0.0 else math.inf)


def mcs_probability(limit_state, model: ProbabilisticModel, n: int,
                    seed: int) -> ReliabilityResult:
    """Direct Monte-Carlo failure probability with the indicator-mean estimator.

    The true limit state is evaluated on the seeded stream of
    ``_failure_probability``, mapped through ``model.to_physical``, so
    ``limit_state.evaluate`` must be safe to call from several threads at
    once.
    """
    pf, cov_pf = _failure_probability(
        lambda u: limit_state.evaluate(model.to_physical(u)), n, seed, model.dim,
        "limit state value")
    return ReliabilityResult(method="mcs", pf=pf, n_model_evals=n, cov_pf=cov_pf,
                             seed=seed)


@dataclass(frozen=True)
class PipelineConfig:
    """Settings for the reduced-surrogate pipeline.

    ``n_train`` is the entire true-model budget.  Every Monte Carlo estimator
    of a study, the reference ``mcs_probability`` included, samples the same
    ``n_mcs`` draws of the ``seed`` stream, so the estimates are paired.
    ``lar_max_terms`` caps the regression path on very large candidate sets;
    None leaves the standard path bound.
    """

    n_train: int
    p_max: int
    n_mcs: int
    mu: float = 0.98
    seed: int = 0
    hpcfe_config: hp.HpcfeConfig = field(default_factory=hp.HpcfeConfig)
    lar_max_terms: int | None = None

    def __post_init__(self) -> None:
        if self.n_train < 3:
            raise ParameterError("training budget must be at least 3")
        if self.p_max < 1:
            raise ParameterError("candidate degree p_max must be >= 1")
        if self.n_mcs < 1:
            raise ParameterError("Monte-Carlo sample size must be positive")
        if not 0.0 < self.mu < 1.0:
            raise ParameterError("subspace threshold must lie in (0, 1)")
        if self.seed < 0:
            raise ParameterError("seed must be nonnegative")
        if self.lar_max_terms is not None and self.lar_max_terms < 1:
            raise ParameterError("lar_max_terms must be None or >= 1")


@dataclass(frozen=True)
class Training:
    """The audited Sobol training design and the sparse expansion fitted to it.

    ``xi`` is the design in [-1, 1]^dim, ``y`` the true limit-state values
    there, and ``n_model_evals`` the audited count of true-model evaluations.
    Both surrogate pipelines start from one ``Training``.
    """

    model: ProbabilisticModel
    xi: np.ndarray
    y: np.ndarray
    spce_model: SparsePceModel
    n_model_evals: int


def fit_training(limit_state, model: ProbabilisticModel,
                 config: PipelineConfig) -> Training:
    """Spend the true-model budget on a Sobol design and fit LAR to it.

    True-model evaluations happen here only, once per point of the design;
    every later stage runs on surrogates.
    """
    if limit_state.dim != model.dim:
        raise DimensionError(
            f"limit state has {limit_state.dim} variables, model has {model.dim}")
    counter = CountingLimitState(limit_state)
    u = sobol_points(config.n_train, model.dim)
    y = counter.evaluate(model.to_physical(u))
    if not np.all(np.isfinite(y)):
        raise NumericalError("non-finite limit state value in the training design")
    xi = 2.0 * u - 1.0
    spce_model = fit_lar(xi, y, config.p_max, max_terms=config.lar_max_terms)
    return Training(model=model, xi=xi, y=y, spce_model=spce_model,
                    n_model_evals=counter.n_evals)


@dataclass(frozen=True)
class PipelineArtifacts:
    """Serialized-ready intermediate models and plot data from one ``sas-hpcfe`` run.

    ``scatter`` holds the first ``SCATTER_ROWS`` surrogate Monte-Carlo samples
    in subspace coordinates, with the surrogate's failure label as last column.
    """

    subspace: object
    hpcfe_model: object
    fd_gradient_cost: int
    scatter: np.ndarray


def sas_hpcfe_pipeline(training: Training,
                       config: PipelineConfig) -> tuple[ReliabilityResult, PipelineArtifacts]:
    """Subspace-reduced hybrid-surrogate reliability estimate.

    Gradients, reduced training and Monte Carlo all run on surrogates of
    ``training``, so ``n_model_evals`` is the training design's audited count.
    """
    model = training.model
    subspace = subspace_from_surrogate(training.spce_model, config.mu,
                                       skip=training.xi.shape[0])
    if subspace.r == model.dim:
        warnings.warn("no dimension reduction: subspace rank equals input dimension",
                      RuntimeWarning)

    reduced = hp.fit(subspace.project(training.xi), training.y, config.hpcfe_config)

    pf, cov_pf = _failure_probability(
        lambda u: reduced.predict_mean(subspace.project(2.0 * u - 1.0)), config.n_mcs,
        config.seed, model.dim, "surrogate prediction")
    result = ReliabilityResult(
        method="sas-hpcfe", pf=pf, n_model_evals=training.n_model_evals,
        n_surrogate_evals=config.n_mcs + subspace.n_grad_samples, cov_pf=cov_pf,
        r=subspace.r, seed=config.seed)
    # the head of the same seeded stream, predicted once more for the plot
    head = np.vstack(list(uniform_stream(config.seed, min(config.n_mcs, SCATTER_ROWS),
                                         model.dim)))
    z = subspace.project(2.0 * head - 1.0)
    scatter = np.column_stack([z, (reduced.predict_mean(z) < 0.0).astype(float)])
    artifacts = PipelineArtifacts(
        subspace=subspace, hpcfe_model=reduced,
        fd_gradient_cost=fd_cost(model.dim, subspace.n_grad_samples),
        scatter=scatter)
    return result, artifacts


def spce_only_pipeline(training: Training, config: PipelineConfig) -> ReliabilityResult:
    """Baseline: the training expansion on the full coordinates, then surrogate MCS."""
    pf, cov_pf = _failure_probability(
        lambda u: training.spce_model.predict(2.0 * u - 1.0), config.n_mcs,
        config.seed, training.model.dim, "surrogate prediction")
    return ReliabilityResult(
        method="spce", pf=pf, n_model_evals=training.n_model_evals,
        n_surrogate_evals=config.n_mcs, cov_pf=cov_pf, seed=config.seed)
