"""Product-form test function on the unit hypercube.

g(x) = prod_i (|4 x_i - 2| + a_i) / (1 + a_i) - b.  Each factor lies in
[a_i/(1+a_i), (2+a_i)/(1+a_i)]; small a_i make a coordinate influential,
large a_i freeze it near 1.  With a = (1, 1, 500, ...) and b = 0.35 only the
first two coordinates matter and the failure probability has the closed form
0.35 ln(0.7/0.5) - 0.1 (two independent U[0.5, 1.5] factors).
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import DomainError, ParameterError
from ..probspace import Marginal, ProbabilisticModel
from ..reliability import LimitState


def sobol_g(x: np.ndarray, a: np.ndarray, b: float = 0.0) -> np.ndarray:
    x = np.atleast_2d(np.asarray(x, dtype=float))
    a = np.asarray(a, dtype=float)
    if a.ndim != 1 or a.shape[0] != x.shape[1]:
        raise ParameterError(
            f"need one influence weight per coordinate, got {a.shape} for {x.shape[1]} inputs")
    if np.any(a < 0.0):
        raise ParameterError("influence weights must be nonnegative")
    if np.any(x < 0.0) or np.any(x > 1.0):
        raise DomainError("inputs must lie in the unit hypercube")
    factors = (np.abs(4.0 * x - 2.0) + a) / (1.0 + a)
    return np.prod(factors, axis=1) - b


def default_weights(m: int) -> np.ndarray:
    """Two influential coordinates (a=1), the rest almost inert (a=500)."""
    if m < 2:
        raise ParameterError("need at least two coordinates")
    a = np.full(m, 500.0)
    a[:2] = 1.0
    return a


# closed form for the default weights in the two-factor limit (a=500 terms ~ 1)
ANALYTIC_PF = 0.35 * math.log(0.7 / 0.5) - 0.1


def gfunction_state(m: int, b: float = 0.35) -> LimitState:
    a = default_weights(m)
    return LimitState(name=f"sobol-m{m}", dim=m,
                      fn=lambda x: sobol_g(x, a, b))


def gfunction_model(m: int) -> ProbabilisticModel:
    return ProbabilisticModel(tuple(
        Marginal(kind="uniform", lo=0.0, hi=1.0, name=f"x{i + 1}")
        for i in range(m)))
