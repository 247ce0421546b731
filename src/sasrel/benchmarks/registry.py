"""Named benchmark problems: each name's limit state and input model.

A study's run settings (training budget, degrees, Monte Carlo sizes, the
HPCFE settings) live in its config; the shipped ones are ``configs/<name>.json``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ParameterError
from ..probspace import ProbabilisticModel
from ..reliability import LimitState
from . import beam, gfunction, truss

BENCHMARK_NAMES = ("sobol-m10", "sobol-m40", "sobol-m100", "beam", "truss")


@dataclass(frozen=True)
class Benchmark:
    name: str
    limit_state: LimitState
    model: ProbabilisticModel


def get_benchmark(name: str, truncated: bool = False) -> Benchmark:
    if name not in BENCHMARK_NAMES:
        raise ParameterError(
            f"unknown benchmark {name!r}; available: {', '.join(BENCHMARK_NAMES)}")
    if name.startswith("sobol-m"):
        m = int(name.removeprefix("sobol-m"))
        state, model = gfunction.gfunction_state(m), gfunction.gfunction_model(m)
    elif name == "beam":
        state, model = beam.beam_state(), beam.beam_model(truncated=truncated)
    else:
        state, model = truss.truss_state(), truss.truss_model()
    return Benchmark(name=name, limit_state=state, model=model)
