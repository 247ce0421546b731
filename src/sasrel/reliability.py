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
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.stats import norm

from . import hpcfe as hp
from .activesub import fd_cost, subspace_from_surrogate
from .errors import DimensionError, NumericalError, ParameterError
from .probspace import ProbabilisticModel, Space, sobol_points, transform, uniform_stream
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
        return np.asarray(self.fn(x), dtype=float).reshape(x.shape[0])


class CountingLimitState:
    """Wrapper auditing how many true-model evaluations were spent."""

    def __init__(self, inner: LimitState):
        self.inner = inner
        self.n_evals = 0

    @property
    def name(self) -> str:
        return self.inner.name

    @property
    def dim(self) -> int:
        return self.inner.dim

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        out = self.inner.evaluate(x)
        self.n_evals += out.shape[0]
        return out


@dataclass(frozen=True)
class ReliabilityResult:
    """Outcome of one estimator run.

    ``cov_pf`` is the Monte-Carlo estimator coefficient of variation
    sqrt((1 - pf) / (n pf)); it is carried only by sampling estimators.
    """

    method: str
    pf: float
    beta: float
    n_model_evals: int
    n_surrogate_evals: int = 0
    cov_pf: float | None = None
    r: int | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.pf <= 1.0:
            raise ParameterError(f"failure probability {self.pf} outside [0, 1]")
        if 0.0 < self.pf < 1.0:
            if abs(self.beta - float(norm.isf(self.pf))) > 1e-9 * max(1.0, abs(self.beta)):
                raise ParameterError("reliability index inconsistent with pf")

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
    return float(norm.isf(pf))


def _estimator_cov(pf: float, n: int) -> float:
    if pf == 0.0:
        return math.inf
    return math.sqrt((1.0 - pf) / (n * pf))


def _failure_fraction(stream, limit_state_values, what: str) -> float:
    """Fraction of streamed U(0,1) samples with g < 0.

    ``limit_state_values`` maps one chunk of ``stream`` to its g values; a
    non-finite value raises instead of counting as safe.
    """
    failures = 0
    done = 0
    for u in stream:
        g = np.asarray(limit_state_values(u), dtype=float).reshape(u.shape[0])
        finite = np.isfinite(g)
        if not finite.all():
            raise NumericalError(
                f"non-finite {what} at sample {done + int(np.argmin(finite))}")
        failures += int(np.count_nonzero(g < 0.0))
        done += u.shape[0]
    return failures / done


def mcs_probability(g_eval, model: ProbabilisticModel, n: int, seed: int,
                    method: str = "mcs") -> ReliabilityResult:
    """Direct Monte-Carlo failure probability with the indicator-mean estimator.

    Samples stream in fixed chunks from the same seeded substreams as
    ``mc_sample``, so the estimate is reproducible and identical to evaluating
    the one-shot sample matrix.
    """
    if n < 1:
        raise ParameterError(f"sample size must be positive, got {n}")
    evaluate = g_eval.evaluate if hasattr(g_eval, "evaluate") else g_eval

    def limit_state_values(u):
        return evaluate(np.column_stack(
            [m.ppf(u[:, i]) for i, m in enumerate(model.marginals)]))

    pf = _failure_fraction(uniform_stream(seed, n, model.dim), limit_state_values,
                           "limit state value")
    return ReliabilityResult(method=method, pf=pf, beta=reliability_index(pf),
                             n_model_evals=n, cov_pf=_estimator_cov(pf, n),
                             seed=seed)


@dataclass(frozen=True)
class PipelineConfig:
    """Settings for the reduced-surrogate pipeline.

    ``n_train`` is the entire true-model budget.  ``n_grad_samples`` of None
    means 10 per input dimension.  ``lar_max_terms`` caps the regression path
    on very large candidate sets; None leaves the standard path bound.
    """

    n_train: int
    p_max: int
    n_mcs: int
    mu: float = 0.98
    seed: int = 0
    hpcfe_config: hp.HpcfeConfig = field(default_factory=hp.HpcfeConfig)
    n_grad_samples: int | None = None
    lar_max_terms: int | None = None

    def __post_init__(self) -> None:
        if self.n_train < 3:
            raise ParameterError("training budget must be at least 3")
        if self.n_mcs < 1:
            raise ParameterError("Monte-Carlo sample size must be positive")
        if not 0.0 < self.mu < 1.0:
            raise ParameterError("subspace threshold must lie in (0, 1)")


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
    y = counter.evaluate(transform(u, Space.PHYSICAL, model).values)
    if not np.all(np.isfinite(y)):
        raise NumericalError("non-finite limit state value in the training design")
    xi = 2.0 * u.values - 1.0
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
                                       n_grad_samples=config.n_grad_samples,
                                       skip=training.xi.shape[0])
    if subspace.r == model.dim:
        warnings.warn("no dimension reduction: subspace rank equals input dimension",
                      RuntimeWarning)

    reduced = hp.fit(subspace.project(training.xi), training.y, config.hpcfe_config)

    scatter = []

    def predict(u):
        z = subspace.project(2.0 * u - 1.0)
        g = reduced.predict_mean(z)
        if not scatter:
            scatter.append(np.column_stack(
                [z[:SCATTER_ROWS], (g[:SCATTER_ROWS] < 0.0).astype(float)]))
        return g

    pf = _failure_fraction(uniform_stream(config.seed, config.n_mcs, model.dim),
                           predict, "surrogate prediction")
    result = ReliabilityResult(
        method="sas-hpcfe", pf=pf, beta=reliability_index(pf),
        n_model_evals=training.n_model_evals,
        n_surrogate_evals=config.n_mcs + subspace.n_grad_samples,
        cov_pf=_estimator_cov(pf, config.n_mcs),
        r=subspace.r, seed=config.seed)
    artifacts = PipelineArtifacts(
        subspace=subspace, hpcfe_model=reduced,
        fd_gradient_cost=fd_cost(model.dim, subspace.n_grad_samples),
        scatter=scatter[0])
    return result, artifacts


def spce_only_pipeline(training: Training, config: PipelineConfig) -> ReliabilityResult:
    """Baseline: the training expansion on the full coordinates, then surrogate MCS."""
    surrogate = training.spce_model
    pf = _failure_fraction(
        uniform_stream(config.seed, config.n_mcs, training.model.dim),
        lambda u: surrogate.predict(2.0 * u - 1.0), "surrogate prediction")
    return ReliabilityResult(
        method="spce", pf=pf, beta=reliability_index(pf),
        n_model_evals=training.n_model_evals, n_surrogate_evals=config.n_mcs,
        cov_pf=_estimator_cov(pf, config.n_mcs), seed=config.seed)
