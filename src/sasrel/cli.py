"""Command-line front end for running reliability studies.

``run`` executes the methods requested in a JSON study config against a named
benchmark (or a user plugin) and writes CSV tables plus serialized surrogate
models into the output directory.  ``report`` pretty-prints a results
directory.  Exit codes: 0 success, 2 configuration error (config, geometry
file, a setting or the limit state's output shape), 3 numerical error.
"""

from __future__ import annotations

import argparse
import csv
import importlib.util
import json
import math
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .benchmarks import BENCHMARK_NAMES, get_benchmark
from .benchmarks.truss import TrussGeometry, truss_state
from .errors import DimensionError, NumericalError, ParameterError
from .hpcfe import HpcfeConfig
from .probspace import ProbabilisticModel
from .reliability import (
    LimitState,
    PipelineConfig,
    ReliabilityResult,
    fit_training,
    mcs_probability,
    sas_hpcfe_pipeline,
    spce_only_pipeline,
)

VALID_METHODS = ("mcs", "spce", "sas-hpcfe")

RESULT_COLUMNS = ReliabilityResult.CSV_FIELDS + ("eps_vs_mcs_pct",)


class ConfigError(Exception):
    pass


# JSON config key -> the PipelineConfig field it sets
PIPELINE_KEYS = {
    "n_train": "n_train",
    "p_max": "p_max",
    "mu": "mu",
    "n_mcs_surrogate": "n_mcs",
    "seed": "seed",
    "max_terms": "lar_max_terms",
    "n_grad_samples": "n_grad_samples",
    "hpcfe": "hpcfe_config",
}


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _hpcfe_config(block, base: HpcfeConfig) -> HpcfeConfig:
    """``base`` with the keys set in a config's ``hpcfe`` object."""
    if not isinstance(block, dict):
        raise ConfigError("'hpcfe' must be an object")
    extra = set(block) - {f.name for f in fields(HpcfeConfig)}
    if extra:
        raise ConfigError(f"unknown hpcfe keys: {', '.join(sorted(extra))}")
    for key in ("M", "b", "restarts", "nm_max_evals"):
        v = block.get(key)
        if key in block and not (_is_int(v) or (key == "nm_max_evals" and v is None)):
            raise ConfigError(f"hpcfe: '{key}' must be an integer")
    if "nugget" in block and not _is_number(block["nugget"]):
        raise ConfigError("hpcfe: 'nugget' must be a number")
    if "theta_bounds" in block:
        bounds = block["theta_bounds"]
        if not (isinstance(bounds, list) and len(bounds) == 2
                and all(map(_is_number, bounds))):
            raise ConfigError("hpcfe: 'theta_bounds' must be a list of two numbers")
        block = {**block, "theta_bounds": tuple(bounds)}
    try:
        return replace(base, **block)
    except ParameterError as exc:
        raise ConfigError(f"hpcfe: {exc}")


@dataclass
class StudyConfig:
    """One study: its problem, its methods and the settings they run with.

    ``pipeline`` carries the study seed and every surrogate setting; ``n_mcs``
    is the sample size of the reference ``mcs`` method.
    """

    benchmark: str | None
    plugin: str | None
    methods: tuple[str, ...]
    pipeline: PipelineConfig
    n_mcs: int
    truncation: bool
    out_dir: Path
    geometry_file: str | None = None

    _KNOWN_KEYS = {
        "benchmark", "plugin", "methods", "n_mcs", "truncation", "out_dir",
        "geometry_file", *PIPELINE_KEYS,
    }

    @classmethod
    def from_file(cls, path: str) -> "StudyConfig":
        p = Path(path)
        if not p.is_file():
            raise ConfigError(f"config file not found: {path}")
        try:
            raw = json.loads(p.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}")
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: config must be a JSON object")
        try:
            return cls._from_dict(raw)
        except ConfigError as exc:
            raise ConfigError(f"{path}: {exc}")

    @classmethod
    def _from_dict(cls, raw: dict) -> "StudyConfig":
        unknown = set(raw) - cls._KNOWN_KEYS
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
        for key in ("plugin", "geometry_file", "out_dir"):
            if raw.get(key) is not None and not isinstance(raw[key], str):
                raise ConfigError(f"'{key}' must be a string")

        benchmark = raw.get("benchmark")
        plugin = raw.get("plugin")
        if (benchmark is None) == (plugin is None):
            raise ConfigError("exactly one of 'benchmark' or 'plugin' is required")
        if benchmark is not None and benchmark not in BENCHMARK_NAMES:
            raise ConfigError(
                f"unknown benchmark {benchmark!r}; "
                f"available: {', '.join(BENCHMARK_NAMES)}")
        if plugin is not None and not Path(plugin).is_file():
            raise ConfigError(f"plugin file not found: {plugin}")
        geometry_file = raw.get("geometry_file")
        if geometry_file is not None and not Path(geometry_file).is_file():
            raise ConfigError(f"geometry file not found: {geometry_file}")

        methods = raw.get("methods", ["mcs"])
        if not isinstance(methods, list) or not methods:
            raise ConfigError("'methods' must be a non-empty list")
        bad = [m for m in methods if m not in VALID_METHODS]
        if bad:
            raise ConfigError(f"unknown methods {bad}; valid: {', '.join(VALID_METHODS)}")
        if len(set(methods)) != len(methods):
            raise ConfigError(f"'methods' names a method more than once: {methods}")
        truncation = raw.get("truncation")
        if truncation is not None and not isinstance(truncation, bool):
            raise ConfigError("'truncation' must be true or false")

        if benchmark is None:  # a benchmark config takes the registry's values
            for key in ("n_train", "p_max", "n_mcs", "n_mcs_surrogate"):
                if key not in raw:
                    raise ConfigError(f"missing required key '{key}'")
        for key, minimum in (("n_train", 3), ("p_max", 1), ("n_mcs", 1),
                             ("n_mcs_surrogate", 1), ("seed", 0)):
            if key in raw and not (_is_int(raw[key]) and raw[key] >= minimum):
                raise ConfigError(f"'{key}' must be an integer >= {minimum}")
        for key in ("max_terms", "n_grad_samples"):
            v = raw.get(key)
            if v is not None and not (_is_int(v) and v >= 1):
                raise ConfigError(f"'{key}' must be a positive integer or null")
        if "mu" in raw and not (_is_number(raw["mu"]) and 0.0 < raw["mu"] < 1.0):
            raise ConfigError("'mu' must lie strictly between 0 and 1")

        bench = get_benchmark(benchmark) if benchmark is not None else None
        overrides = {field: raw[key] for key, field in PIPELINE_KEYS.items()
                     if key in raw}
        if "hpcfe" in raw:
            overrides["hpcfe_config"] = _hpcfe_config(
                raw["hpcfe"], bench.pipeline.hpcfe_config if bench else HpcfeConfig())
        try:
            pipeline = (replace(bench.pipeline, **overrides) if bench
                        else PipelineConfig(**overrides))
        except ParameterError as exc:
            raise ConfigError(str(exc))
        out_dir = raw.get("out_dir")
        return cls(benchmark=benchmark, plugin=plugin, methods=tuple(methods),
                   pipeline=pipeline,
                   n_mcs=raw["n_mcs"] if "n_mcs" in raw else bench.mcs_n,
                   truncation=bool(truncation),
                   out_dir=Path("results" if out_dir is None else out_dir),
                   geometry_file=geometry_file)


def _load_plugin(path: str) -> tuple[LimitState, ProbabilisticModel]:
    spec = importlib.util.spec_from_file_location("sasrel_user_plugin", path)
    if spec is None or spec.loader is None:
        raise ConfigError(f"cannot import plugin {path}")
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
        for attr in ("get_limit_state", "get_model"):
            if not callable(getattr(module, attr, None)):
                raise ConfigError(f"plugin {path} must define {attr}()")
        state = module.get_limit_state()
        model = module.get_model()
    except ConfigError:
        raise
    except Exception as exc:  # the plugin's own code failed
        raise ConfigError(f"plugin {path}: {type(exc).__name__}: {exc}") from exc
    if not isinstance(state, LimitState) or not isinstance(model, ProbabilisticModel):
        raise ConfigError(
            f"plugin {path}: get_limit_state()/get_model() returned wrong types")
    if state.dim != model.dim:
        raise ConfigError(
            f"plugin {path}: limit state has {state.dim} variables, "
            f"model has {model.dim}")
    return state, model


def _resolve_problem(cfg: StudyConfig) -> tuple[LimitState, ProbabilisticModel]:
    if cfg.plugin is not None:
        return _load_plugin(cfg.plugin)
    bench = get_benchmark(cfg.benchmark, truncated=cfg.truncation)
    state, model = bench.limit_state, bench.model
    if cfg.geometry_file is not None:
        if cfg.benchmark != "truss":
            raise ConfigError("geometry_file is only valid for the truss benchmark")
        try:
            geometry = TrussGeometry.from_file(cfg.geometry_file)
        except KeyError as exc:
            raise ConfigError(f"geometry file {cfg.geometry_file}: missing key {exc}")
        except (TypeError, ValueError) as exc:  # bad JSON or values, invalid truss
            raise ConfigError(f"geometry file {cfg.geometry_file}: {exc}")
        state = truss_state(geometry)
    return state, model


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _write_csv(path: Path, header, rows) -> None:
    """One CSV table; every cell goes through ``_fmt``, so pass Python scalars."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_fmt(v) for v in row] for row in rows)


def _result_row(res: ReliabilityResult, beta_ref: float | None) -> list:
    eps = None
    if beta_ref is not None and res.method != "mcs" and math.isfinite(beta_ref) \
            and beta_ref != 0.0 and math.isfinite(res.beta):
        eps = abs(beta_ref - res.beta) / abs(beta_ref) * 100.0
    return [getattr(res, name) for name in ReliabilityResult.CSV_FIELDS] + [eps]


def run_study(cfg: StudyConfig) -> int:
    state, model = _resolve_problem(cfg)
    out = cfg.out_dir
    out.mkdir(parents=True, exist_ok=True)

    rows: list[list] = []
    beta_ref = None
    training = None  # fitted once, shared by both surrogate methods
    # mcs runs first so the surrogate rows can carry the error column
    ordered = sorted(cfg.methods, key=lambda m: VALID_METHODS.index(m))
    for method in ordered:
        artifacts = None  # only sas-hpcfe has intermediate models to write
        try:
            if method == "mcs":
                res = mcs_probability(state, model, n=cfg.n_mcs, seed=cfg.pipeline.seed)
                beta_ref = res.beta
            else:
                if training is None:
                    training = fit_training(state, model, cfg.pipeline)
                    (out / "spce_model.json").write_text(training.spce_model.to_json())
                if method == "spce":
                    res = spce_only_pipeline(training, cfg.pipeline)
                else:
                    res, artifacts = sas_hpcfe_pipeline(training, cfg.pipeline)
        except (ParameterError, DimensionError, NumericalError,
                np.linalg.LinAlgError) as exc:
            print(f"error: {method} failed: {exc}", file=sys.stderr)
            _write_csv(out / "results.csv", RESULT_COLUMNS, rows)
            return 2 if isinstance(exc, (ParameterError, DimensionError)) else 3
        rows.append(_result_row(res, beta_ref))
        _write_csv(out / "results.csv", RESULT_COLUMNS, rows)
        if artifacts is not None:
            _write_artifacts(out, artifacts)
        print(f"{method}: pf={res.pf:.6g} beta={res.beta:.4f} "
              f"n_model_evals={res.n_model_evals}")
    return 0


def _write_artifacts(out: Path, artifacts) -> None:
    """The subspace, spectrum, reduced surrogate and scatter of ``sas-hpcfe``."""
    (out / "sas_hpcfe_subspace.json").write_text(artifacts.subspace.to_json())
    _write_csv(out / "eigenvalues.csv", ["index", "eigenvalue"],
               enumerate(artifacts.subspace.eigenvalues.tolist(), start=1))
    (out / "sas_hpcfe_hpcfe_model.json").write_text(artifacts.hpcfe_model.to_json())
    z, failed = artifacts.scatter[:, :-1], artifacts.scatter[:, -1]
    _write_csv(out / "reduced_scatter.csv",
               [f"z{i + 1}" for i in range(z.shape[1])] + ["failed"],
               (coords + [flag] for coords, flag in
                zip(z.tolist(), failed.astype(int).tolist())))


def report(results_dir: str) -> int:
    path = Path(results_dir)
    if not path.is_dir():
        print(f"error: {results_dir} is not a directory", file=sys.stderr)
        return 2
    csv_path = path / "results.csv"
    if not csv_path.is_file():
        print("no results")
        return 0
    with open(csv_path, newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    if not rows:
        print("no results")
        return 0
    rows.sort(key=lambda r: r["method"])
    print(f"{'method':<12} {'pf':>12} {'beta':>10} {'N':>10} {'cov':>8} "
          f"{'r':>3} {'eps%':>7}")
    for r in rows:
        pf = float(r["pf"])
        beta = float(r["beta"])
        cov = f"{float(r['cov_pf']):.4f}" if r.get("cov_pf") else "-"
        eps = f"{float(r['eps_vs_mcs_pct']):.2f}" if r.get("eps_vs_mcs_pct") else "-"
        rank = r.get("r") or "-"
        print(f"{r['method']:<12} {pf:>12.6f} {beta:>10.4f} "
              f"{r['n_model_evals']:>10} {cov:>8} {rank:>3} {eps:>7}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sasrel",
        description="Subspace-reduced surrogate reliability studies")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a study config")
    run_p.add_argument("--config", required=True, help="path to a JSON study config")
    run_p.add_argument("--out", default=None, help="output directory override")
    run_p.add_argument("--seed", type=int, default=None, help="seed override")

    report_p = sub.add_parser("report", help="summarize a results directory")
    report_p.add_argument("results_dir")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "report":
        return report(args.results_dir)
    try:
        cfg = StudyConfig.from_file(args.config)
        if args.out is not None:
            cfg.out_dir = Path(args.out)
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError("seed must be nonnegative")
            cfg.pipeline = replace(cfg.pipeline, seed=args.seed)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return run_study(cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
