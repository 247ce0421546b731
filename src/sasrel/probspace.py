"""Marginal distributions, the inverse-CDF map and input sampling.

Random inputs are described by independent one-dimensional marginals.  Every
sampler draws U(0,1) levels; ``ProbabilisticModel.to_physical`` maps an
``(n, dim)`` array of levels to physical units through the per-dimension
inverse CDFs.  The polynomial surrogates are built on ``2 u - 1`` in [-1, 1],
which callers form from the same levels.

Because the marginals are independent, the levels are uniform on the unit
cube whatever the marginals, so the surrogates' coordinates are
distribution-free.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np
import scipy
from scipy.special import ndtr, ndtri

from .errors import DimensionError, DomainError, ParameterError

# Rows per chunk of ``uniform_stream``, the package's Monte Carlo sampler: each
# chunk is one spawned substream, so this fixes the samples of a seed.
SAMPLE_CHUNK = 65536
# Most rows per array that ``uniform_stream`` yields, the Monte Carlo pool's
# unit of work.  A power of two dividing ``SAMPLE_CHUNK``: the surrogates'
# prediction blocks (``polybasis.row_blocks``) are powers of two too, so a
# surrogate whose blocks are at most this many rows predicts every row of a
# sample block bitwise as in one chunk-sized call.
SAMPLE_BLOCK = 8192

_SOBOL_MAX_DIM = 1000
# Bits per Sobol coordinate, as in ``scipy.stats.qmc.Sobol``: the sequence has
# 2**30 distinct points.
_SOBOL_BITS = 30
# The Joe & Kuo (2008) primitive polynomials and initial direction numbers
# that scipy ships for ``qmc.Sobol``; locating the file imports no
# ``scipy.stats``.
_SOBOL_TABLE = os.path.join(
    os.path.dirname(scipy.__file__), "stats", "_sobol_direction_numbers.npz")


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
    # base-CDF levels (ua, ub) of the truncation bounds, set by __post_init__
    _levels: tuple[float, float] | None = field(
        default=None, init=False, compare=False, repr=False)

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
            ua, ub = self._base_cdf(a), self._base_cdf(b)
            if ub - ua <= 1e-12:
                raise ParameterError(
                    f"truncation [{a}, {b}] retains no probability mass for {self.kind}"
                )
            object.__setattr__(self, "_levels", (ua, ub))

    def _base_cdf(self, x: float) -> float:
        """Untruncated CDF at one point in physical units.

        Each kind evaluates the closed form that the frozen ``scipy.stats``
        distribution's ``cdf`` evaluates, in the same order, so the level is
        bitwise scipy's; points outside the support give 0 or 1.
        """
        if self.kind == "uniform":
            return min(max((x - self.lo) / (self.hi - self.lo), 0.0), 1.0)
        p = moment_match(self.kind, self.mean, self.sd)
        if self.kind == "lognormal":
            if x <= 0.0:
                return 0.0
            return float(ndtr(np.log(x / math.exp(p["mu"])) / p["sigma"]))
        z = (x - p["loc"]) / p["scale"]
        if self.kind == "normal":
            return float(ndtr(z))
        return float(np.exp(-np.exp(-z)))

    def ppf(self, u):
        """Inverse CDF, renormalized over the truncation interval.

        Each kind evaluates the closed form that ``scipy.stats`` evaluates,
        the same operations in the same order, so the result is bitwise
        scipy's without building a frozen distribution per call.  Levels 0
        and 1 map to the support's ends, as in scipy.
        """
        u = np.asarray(u, dtype=float)
        if np.any(u < 0.0) or np.any(u > 1.0):
            raise DomainError("probability levels must lie in [0, 1]")
        if self._levels is not None:
            ua, ub = self._levels
            u = ua + u * (ub - ua)
        if self.kind == "uniform":
            return u * (self.hi - self.lo) + self.lo
        p = moment_match(self.kind, self.mean, self.sd)
        with np.errstate(divide="ignore"):
            if self.kind == "normal":
                return ndtri(u) * p["scale"] + p["loc"]
            if self.kind == "lognormal":
                return np.exp(p["sigma"] * ndtri(u)) * math.exp(p["mu"]) + 0.0
            return -np.log(-np.log(u)) * p["scale"] + p["loc"]


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

    def to_physical(self, u: np.ndarray) -> np.ndarray:
        """Map an ``(n, dim)`` array of U(0,1) levels to physical values.

        Column ``i`` goes through the inverse CDF of marginal ``i``; truncated
        marginals use the renormalized CDF.
        """
        if u.ndim != 2 or u.shape[1] != self.dim:
            raise DimensionError(
                f"sample block has shape {u.shape}, model has {self.dim} columns")
        return np.column_stack([m.ppf(u[:, i]) for i, m in enumerate(self.marginals)])


@functools.cache
def _sobol_directions() -> np.ndarray:
    """Direction integers of the first ``_SOBOL_MAX_DIM`` Sobol dimensions.

    Row ``j`` of the read-only ``(_SOBOL_BITS, _SOBOL_MAX_DIM)`` result holds
    direction number ``j + 1`` of every dimension as a ``_SOBOL_BITS``-bit
    integer.  Dimension ``d > 0`` starts from the Joe & Kuo initial numbers
    of its primitive polynomial of degree ``m``; number ``j >= m`` follows
    the recurrence of Bratley & Fox (1988), section 2, which scipy's
    ``_initialize_v`` evaluates.  Dimension 0 is all ones.  The table is read
    once per process.
    """
    with np.load(_SOBOL_TABLE) as table:
        poly = table["poly"][:_SOBOL_MAX_DIM]
        vinit = table["vinit"][:_SOBOL_MAX_DIM]
    deg = np.frexp(poly)[1] - 1  # bit length - 1
    max_deg = vinit.shape[1]
    # coef[d, k]: bit m - 1 - k of dimension d's polynomial, 0 for k >= m
    shift = deg[:, None] - 1 - np.arange(max_deg)
    coef = np.where(shift >= 0, poly[:, None] >> np.maximum(shift, 0) & 1, 0)
    v = np.zeros((_SOBOL_MAX_DIM, _SOBOL_BITS), dtype=np.int64)
    v[:, :max_deg] = vinit
    v[0] = 1
    rows = np.arange(_SOBOL_MAX_DIM)
    for j in range(1, _SOBOL_BITS):
        k = np.arange(min(j, max_deg))
        terms = coef[:, k] * (v[:, j - 1 - k] << (k + 1))
        new = v[rows, np.maximum(j - deg, 0)] ^ np.bitwise_xor.reduce(terms, axis=1)
        v[:, j] = np.where(deg <= j, new, v[:, j])
    v <<= np.arange(_SOBOL_BITS - 1, -1, -1)
    out = np.ascontiguousarray(v.T, dtype=np.uint32)
    out.flags.writeable = False
    return out


def sobol_points(n: int, dim: int, skip: int = 0) -> np.ndarray:
    """First ``n`` points of the ``dim``-dimensional Sobol sequence.

    The initial all-zeros point is always dropped (it maps to marginal infima
    under inverse-CDF transforms); ``skip`` discards that many further points,
    which is used to obtain fresh point sets disjoint from a training design.
    Deterministic: the points are bitwise those of unscrambled
    ``scipy.stats.qmc.Sobol`` after ``fast_forward(1 + skip)``.
    """
    if n < 1:
        raise ParameterError(f"need n >= 1 Sobol points, got {n}")
    if not 1 <= dim <= _SOBOL_MAX_DIM:
        raise ParameterError(
            f"Sobol direction numbers are provided for 1 <= dim <= {_SOBOL_MAX_DIM}, got {dim}"
        )
    if skip < 0:
        raise ParameterError(f"Sobol skip must be >= 0, got {skip}")
    first = 1 + skip
    if first + n > 2**_SOBOL_BITS:
        raise ParameterError(
            f"the Sobol sequence has 2**{_SOBOL_BITS} points; points {first} "
            f"to {first + n - 1} run past its end"
        )
    v = _sobol_directions()[:, :dim]
    # Point k is the XOR of the direction rows that the bits of its Gray code
    # k ^ (k >> 1) select; the codes of k and k + 1 differ in the lowest zero
    # bit of k, (k + 1) & ~k, whose exponent frexp returns.
    gray = first ^ (first >> 1)
    steps = np.empty((n, dim), dtype=np.uint32)
    steps[0] = np.bitwise_xor.reduce(
        v[[b for b in range(_SOBOL_BITS) if gray >> b & 1]], axis=0)
    k = np.arange(first, first + n - 1)
    steps[1:] = v[np.frexp((k + 1) & ~k)[1] - 1]
    np.bitwise_xor.accumulate(steps, axis=0, out=steps)
    return steps * 2.0**-_SOBOL_BITS


def uniform_stream(seed: int, n: int, dim: int) -> Iterator[np.ndarray]:
    """Seeded pseudo-random U(0,1) samples in blocks of at most ``SAMPLE_BLOCK`` rows.

    Each ``SAMPLE_CHUNK`` rows are drawn from their own spawned substream, so
    the overall sample set is a pure function of ``seed``.  A chunk is yielded
    as consecutive blocks drawn in order from its generator, which fills in C
    order, so the blocks of a chunk concatenate bitwise to one draw of the
    whole chunk.
    """
    if n < 1:
        raise ParameterError(f"need n >= 1 samples, got {n}")
    n_chunks = (n + SAMPLE_CHUNK - 1) // SAMPLE_CHUNK
    children = np.random.SeedSequence(seed).spawn(n_chunks)
    for i, child in enumerate(children):
        rng = np.random.default_rng(child)
        rows = min(SAMPLE_CHUNK, n - i * SAMPLE_CHUNK)
        for start in range(0, rows, SAMPLE_BLOCK):
            yield rng.random((min(SAMPLE_BLOCK, rows - start), dim))
