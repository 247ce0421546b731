"""Named benchmark studies with their input models and tuned run settings."""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ParameterError
from ..hpcfe import HpcfeConfig
from ..probspace import ProbabilisticModel
from ..reliability import LimitState, PipelineConfig
from . import beam, gfunction, truss

BENCHMARK_NAMES = ("sobol-m10", "sobol-m40", "sobol-m100", "beam", "truss")


@dataclass(frozen=True)
class Benchmark:
    name: str
    limit_state: LimitState
    model: ProbabilisticModel
    mcs_n: int
    pipeline: PipelineConfig


# Each study's tuned pipeline settings and its reference MCS sample size, the
# one source of both: a benchmark config overrides only the keys it sets.
_STUDIES = {
    "sobol-m10": (PipelineConfig(n_train=800, p_max=5, n_mcs=100_000,
                                 lar_max_terms=30, hpcfe_config=HpcfeConfig(b=3)),
                  100_000),
    "sobol-m40": (PipelineConfig(n_train=900, p_max=2, n_mcs=100_000,
                                 lar_max_terms=30, hpcfe_config=HpcfeConfig(b=3)),
                  100_000),
    "sobol-m100": (PipelineConfig(n_train=1100, p_max=2, n_mcs=100_000,
                                  lar_max_terms=50, hpcfe_config=HpcfeConfig(b=3)),
                   100_000),
    "beam": (PipelineConfig(n_train=800, p_max=4, n_mcs=1_000_000,
                            lar_max_terms=50, hpcfe_config=HpcfeConfig(b=5)),
             1_000_000),
    "truss": (PipelineConfig(n_train=1000, p_max=3, n_mcs=100_000, lar_max_terms=120,
                             hpcfe_config=HpcfeConfig(b=4, nugget=1e-3, restarts=4,
                                                      nm_max_evals=150)),
              100_000),
}


def get_benchmark(name: str, truncated: bool = False) -> Benchmark:
    if name not in _STUDIES:
        raise ParameterError(
            f"unknown benchmark {name!r}; available: {', '.join(BENCHMARK_NAMES)}")
    pipeline, mcs_n = _STUDIES[name]
    if name.startswith("sobol-m"):
        m = int(name.removeprefix("sobol-m"))
        state, model = gfunction.gfunction_state(m), gfunction.gfunction_model(m)
    elif name == "beam":
        state, model = beam.beam_state(), beam.beam_model(truncated=truncated)
    else:
        state, model = truss.truss_state(), truss.truss_model()
    return Benchmark(name=name, limit_state=state, model=model,
                     mcs_n=mcs_n, pipeline=pipeline)
