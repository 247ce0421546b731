"""Marginal distributions, isoprobabilistic transforms and input sampling.

Random inputs are described by independent one-dimensional marginals.  Three
coordinate systems are used throughout the package:

* ``PHYSICAL``       -- the original engineering units,
* ``STD_UNIFORM``    -- per-dimension CDF values, uniform on (0, 1),
* ``STD_LEGENDRE``   -- the affine image ``2 u - 1`` on [-1, 1], the space in
  which the polynomial surrogates are built.

Because the marginals are independent, mapping any input vector through its
per-dimension CDF yields a uniform distribution on the unit cube, so the
standardized spaces are distribution-free.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, Sequence

import numpy as np
from scipy import stats
from scipy.stats import qmc

from .errors import DimensionError, DomainError, ParameterError

# Chunk size shared by every streamed sampler so that chunked and one-shot
# generation produce identical sample sets.
SAMPLE_CHUNK = 65536

_SOBOL_MAX_DIM = 1000


class Space(Enum):
    PHYSICAL = "physical"
    STD_UNIFORM = "std_uniform"
    STD_LEGENDRE = "std_legendre"


def moment_match(kind: str, mean: float, sd: float) -> dict:
    """Convert (mean, sd) of a variable into internal distribution parameters.

    For a lognormal variable the returned ``mu``/``sigma`` parameterize the
    underlying normal; for a (max-type) Gumbel variable the returned
    ``loc``/``scale`` follow from ``scale = sd * sqrt(6) / pi`` and
    ``loc = mean - gamma * scale`` with Euler's constant gamma.
    """
    if sd <= 0.0:
        raise ParameterError(f"sd must be positive, got {sd}")
    if kind == "normal":
        return {"loc": float(mean), "scale": float(sd)}
    if kind == "lognormal":
        if mean <= 0.0:
            raise ParameterError(f"lognormal mean must be positive, got {mean}")
        sigma2 = math.log(1.0 + (sd / mean) ** 2)
        mu = math.log(mean**2 / math.sqrt(mean**2 + sd**2))
        return {"mu": mu, "sigma": math.sqrt(sigma2)}
    if kind == "gumbel":
        scale = sd * math.sqrt(6.0) / math.pi
        loc = mean - np.euler_gamma * scale
        return {"loc": float(loc), "scale": float(scale)}
    raise ParameterError(f"moment matching not defined for kind {kind!r}")


@dataclass(frozen=True)
class Marginal:
    """One independent input variable.

    ``kind`` is one of ``uniform`` (parameterized by ``lo``/``hi``),
    ``normal``, ``lognormal`` or ``gumbel`` (parameterized by the mean and
    standard deviation of the variable itself).  An optional truncation
    interval ``[a, b]`` in physical units restricts the support; the CDF is
    renormalized to the retained probability mass.
    """

    kind: str
    mean: float = 0.0
    sd: float = 1.0
    lo: float = 0.0
    hi: float = 1.0
    truncation: tuple[float, float] | None = None
    name: str = ""

    def __post_init__(self) -> None:
        if self.kind not in ("uniform", "normal", "lognormal", "gumbel"):
            raise ParameterError(f"unknown marginal kind {self.kind!r}")
        if self.kind == "uniform":
            if not self.lo < self.hi:
                raise ParameterError(f"uniform needs lo < hi, got [{self.lo}, {self.hi}]")
        else:
            moment_match(self.kind, self.mean, self.sd)  # validates parameters
        if self.truncation is not None:
            a, b = self.truncation
            if not a < b:
                raise ParameterError(f"truncation interval must be ordered, got [{a}, {b}]")
            mass = self._base_dist().cdf(b) - self._base_dist().cdf(a)
            if mass <= 1e-12:
                raise ParameterError(
                    f"truncation [{a}, {b}] retains no probability mass for {self.kind}"
                )

    def _base_dist(self):
        if self.kind == "uniform":
            return stats.uniform(loc=self.lo, scale=self.hi - self.lo)
        p = moment_match(self.kind, self.mean, self.sd)
        if self.kind == "normal":
            return stats.norm(loc=p["loc"], scale=p["scale"])
        if self.kind == "lognormal":
            return stats.lognorm(s=p["sigma"], scale=math.exp(p["mu"]))
        return stats.gumbel_r(loc=p["loc"], scale=p["scale"])

    def support(self) -> tuple[float, float]:
        if self.truncation is not None:
            return self.truncation
        if self.kind == "uniform":
            return (self.lo, self.hi)
        if self.kind == "lognormal":
            return (0.0, math.inf)
        return (-math.inf, math.inf)

    def cdf(self, x):
        """CDF in physical units, renormalized over the truncation interval."""
        x = np.asarray(x, dtype=float)
        lo, hi = self.support()
        if np.any(x < lo) or np.any(x > hi):
            raise DomainError(
                f"value outside support [{lo}, {hi}] of marginal {self.name or self.kind}"
            )
        dist = self._base_dist()
        u = dist.cdf(x)
        if self.truncation is not None:
            ua, ub = dist.cdf(self.truncation[0]), dist.cdf(self.truncation[1])
            u = (u - ua) / (ub - ua)
        return np.clip(u, 0.0, 1.0)

    def ppf(self, u):
        u = np.asarray(u, dtype=float)
        if np.any(u < 0.0) or np.any(u > 1.0):
            raise DomainError("probability levels must lie in [0, 1]")
        dist = self._base_dist()
        if self.truncation is not None:
            ua, ub = dist.cdf(self.truncation[0]), dist.cdf(self.truncation[1])
            u = ua + u * (ub - ua)
        return dist.ppf(u)

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        d: dict = {"name": self.name, "kind": self.kind}
        if self.kind == "uniform":
            d["lo"], d["hi"] = self.lo, self.hi
        else:
            d["mean"], d["sd"] = self.mean, self.sd
        if self.truncation is not None:
            d["truncation"] = list(self.truncation)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "Marginal":
        trunc = tuple(d["truncation"]) if d.get("truncation") is not None else None
        if d["kind"] == "uniform":
            return cls(kind="uniform", lo=d["lo"], hi=d["hi"], truncation=trunc,
                       name=d.get("name", ""))
        return cls(kind=d["kind"], mean=d["mean"], sd=d["sd"], truncation=trunc,
                   name=d.get("name", ""))


@dataclass(frozen=True)
class ProbabilisticModel:
    """An ordered collection of independent marginals."""

    marginals: tuple[Marginal, ...]

    def __post_init__(self) -> None:
        if len(self.marginals) < 1:
            raise ParameterError("a probabilistic model needs at least one marginal")
        object.__setattr__(self, "marginals", tuple(self.marginals))

    @property
    def dim(self) -> int:
        return len(self.marginals)

    def to_json(self) -> str:
        return json.dumps({"marginals": [m.to_dict() for m in self.marginals]}, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ProbabilisticModel":
        data = json.loads(text)
        return cls(tuple(Marginal.from_dict(d) for d in data["marginals"]))


@dataclass(frozen=True)
class SampleMatrix:
    """A (n_samples, dim) matrix tagged with the space its entries live in."""

    values: np.ndarray
    space: Space

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2:
            raise DimensionError(f"sample matrix must be 2-D, got shape {v.shape}")
        object.__setattr__(self, "values", v)
        if self.space is Space.STD_UNIFORM and (np.any(v <= 0.0) or np.any(v >= 1.0)):
            raise DomainError("standard-uniform samples must lie strictly inside (0, 1)")
        if self.space is Space.STD_LEGENDRE and np.any(np.abs(v) > 1.0):
            raise DomainError("standardized samples must lie inside [-1, 1]")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]


def transform(x: SampleMatrix, to_space: Space, model: ProbabilisticModel) -> SampleMatrix:
    """Map a tagged sample matrix between physical and standardized spaces.

    The per-dimension maps are ``u = F_i(x_i)`` and ``xi = 2 u - 1`` together
    with their inverses; truncated marginals use the renormalized CDF.
    """
    if x.dim != model.dim:
        raise DimensionError(f"sample matrix has {x.dim} columns, model has {model.dim}")
    if x.space is to_space:
        return x

    v = x.values
    if x.space is Space.PHYSICAL:
        u = np.column_stack([m.cdf(v[:, i]) for i, m in enumerate(model.marginals)])
    elif x.space is Space.STD_UNIFORM:
        u = v
    else:
        u = 0.5 * (v + 1.0)

    if to_space is Space.STD_UNIFORM:
        out = u
    elif to_space is Space.STD_LEGENDRE:
        out = 2.0 * u - 1.0
    else:
        out = np.column_stack([m.ppf(u[:, i]) for i, m in enumerate(model.marginals)])
    # Endpoint round-off from the affine maps is tolerated; the open-interval
    # invariant is enforced only for freshly generated uniform samples.
    if to_space is Space.STD_LEGENDRE:
        out = np.clip(out, -1.0, 1.0)
    obj = object.__new__(SampleMatrix)
    object.__setattr__(obj, "values", np.asarray(out, dtype=float))
    object.__setattr__(obj, "space", to_space)
    return obj


def sobol_points(n: int, dim: int, skip: int = 0) -> SampleMatrix:
    """First ``n`` points of the ``dim``-dimensional Sobol sequence.

    The initial all-zeros point is always dropped (it maps to marginal infima
    under inverse-CDF transforms); ``skip`` discards that many further points,
    which is used to obtain fresh point sets disjoint from a training design.
    Deterministic.
    """
    if n < 1:
        raise ParameterError(f"need n >= 1 Sobol points, got {n}")
    if not 1 <= dim <= _SOBOL_MAX_DIM:
        raise ParameterError(
            f"Sobol direction numbers are provided for 1 <= dim <= {_SOBOL_MAX_DIM}, got {dim}"
        )
    sampler = qmc.Sobol(d=dim, scramble=False)
    sampler.fast_forward(1 + skip)
    with warnings.catch_warnings():
        # n is rarely a power of two here; the balance warning is expected.
        warnings.simplefilter("ignore", UserWarning)
        pts = sampler.random(n)
    return SampleMatrix(pts, Space.STD_UNIFORM)


def uniform_stream(seed: int, n: int, dim: int) -> Iterator[np.ndarray]:
    """Seeded pseudo-random U(0,1) samples in fixed-size chunks.

    Each chunk is drawn from its own spawned substream, so chunks may be
    consumed (or evaluated) independently while the overall sample set stays
    a pure function of ``seed``.
    """
    if n < 1:
        raise ParameterError(f"need n >= 1 samples, got {n}")
    n_chunks = (n + SAMPLE_CHUNK - 1) // SAMPLE_CHUNK
    children = np.random.SeedSequence(seed).spawn(n_chunks)
    for i, child in enumerate(children):
        rows = min(SAMPLE_CHUNK, n - i * SAMPLE_CHUNK)
        yield np.random.default_rng(child).random((rows, dim))


def mc_sample(model: ProbabilisticModel, n: int, seed: int) -> SampleMatrix:
    """``n`` i.i.d. physical-space draws via inverse-CDF of a seeded stream."""
    chunks = []
    for u in uniform_stream(seed, n, model.dim):
        chunks.append(np.column_stack(
            [m.ppf(u[:, i]) for i, m in enumerate(model.marginals)]
        ))
    return SampleMatrix(np.vstack(chunks), Space.PHYSICAL)
