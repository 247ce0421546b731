"""Command-line front end for running reliability studies.

``run`` executes the methods requested in a JSON study config against a named
benchmark (or a user plugin) and writes CSV tables plus serialized surrogate
models into the output directory.  ``report`` pretty-prints a results
directory.  Exit codes: 0 success, 2 configuration error, 3 numerical error.
"""

from __future__ import annotations

import argparse
import csv
import importlib.util
import json
import math
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .benchmarks import BENCHMARK_NAMES, get_benchmark
from .benchmarks.truss import TrussGeometry, truss_state
from .errors import NumericalError, ParameterError
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


@dataclass
class StudyConfig:
    benchmark: str | None
    plugin: str | None
    methods: tuple[str, ...]
    n_train: int
    p_max: int
    mu: float
    n_mcs: int
    n_mcs_surrogate: int
    seed: int
    truncation: bool
    hpcfe: HpcfeConfig
    out_dir: Path
    max_terms: int | None = None
    n_grad_samples: int | None = None
    geometry_file: str | None = None

    _KNOWN_KEYS = {
        "benchmark", "plugin", "methods", "n_train", "p_max", "mu", "n_mcs",
        "n_mcs_surrogate", "seed", "truncation", "hpcfe", "out_dir",
        "max_terms", "n_grad_samples", "geometry_file",
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
        unknown = set(raw) - cls._KNOWN_KEYS
        if unknown:
            raise ConfigError(f"{path}: unknown config keys: {', '.join(sorted(unknown))}")

        benchmark = raw.get("benchmark")
        plugin = raw.get("plugin")
        if (benchmark is None) == (plugin is None):
            raise ConfigError(f"{path}: exactly one of 'benchmark' or 'plugin' is required")
        if benchmark is not None and benchmark not in BENCHMARK_NAMES:
            raise ConfigError(
                f"{path}: unknown benchmark {benchmark!r}; "
                f"available: {', '.join(BENCHMARK_NAMES)}")
        if plugin is not None and not Path(plugin).is_file():
            raise ConfigError(f"{path}: plugin file not found: {plugin}")
        geometry_file = raw.get("geometry_file")
        if geometry_file is not None and not Path(geometry_file).is_file():
            raise ConfigError(f"{path}: geometry file not found: {geometry_file}")

        methods = raw.get("methods", ["mcs"])
        if not isinstance(methods, list) or not methods:
            raise ConfigError(f"{path}: 'methods' must be a non-empty list")
        bad = [m for m in methods if m not in VALID_METHODS]
        if bad:
            raise ConfigError(
                f"{path}: unknown methods {bad}; valid: {', '.join(VALID_METHODS)}")

        defaults = {}
        if benchmark is not None:
            bench = get_benchmark(benchmark)
            defaults = {
                "n_train": bench.pipeline.n_train,
                "p_max": bench.pipeline.p_max,
                "mu": bench.pipeline.mu,
                "n_mcs": bench.mcs_n,
                "n_mcs_surrogate": bench.pipeline.n_mcs,
                "max_terms": bench.pipeline.lar_max_terms,
                "hpcfe": bench.pipeline.hpcfe_config,
            }
        hp_cfg = defaults.get("hpcfe", HpcfeConfig())
        if "hpcfe" in raw:
            if not isinstance(raw["hpcfe"], dict):
                raise ConfigError(f"{path}: 'hpcfe' must be an object")
            extra = set(raw["hpcfe"]) - {f.name for f in fields(HpcfeConfig)}
            if extra:
                raise ConfigError(
                    f"{path}: unknown hpcfe keys: {', '.join(sorted(extra))}")
            merged = {**asdict(hp_cfg), **raw["hpcfe"]}
            merged["theta_bounds"] = tuple(merged["theta_bounds"])
            try:
                hp_cfg = HpcfeConfig(**merged)
            except (ParameterError, TypeError, ValueError) as exc:
                raise ConfigError(f"{path}: hpcfe: {exc}")

        def get_int(key, default, minimum):
            v = raw.get(key, default)
            if v is None and default is None:
                raise ConfigError(f"{path}: missing required key '{key}'")
            if not isinstance(v, int) or isinstance(v, bool) or v < minimum:
                raise ConfigError(f"{path}: '{key}' must be an integer >= {minimum}")
            return v

        mu = raw.get("mu", defaults.get("mu", 0.98))
        if not isinstance(mu, (int, float)) or not 0.0 < mu < 1.0:
            raise ConfigError(f"{path}: 'mu' must lie strictly between 0 and 1")
        max_terms = raw.get("max_terms", defaults.get("max_terms"))
        if max_terms is not None and (not isinstance(max_terms, int) or max_terms < 1):
            raise ConfigError(f"{path}: 'max_terms' must be a positive integer or null")
        n_grad = raw.get("n_grad_samples")
        if n_grad is not None and (not isinstance(n_grad, int) or n_grad < 1):
            raise ConfigError(f"{path}: 'n_grad_samples' must be a positive integer")

        try:
            return cls(
                benchmark=benchmark,
                plugin=plugin,
                methods=tuple(methods),
                n_train=get_int("n_train", defaults.get("n_train"), 3),
                p_max=get_int("p_max", defaults.get("p_max"), 1),
                mu=float(mu),
                n_mcs=get_int("n_mcs", defaults.get("n_mcs"), 1),
                n_mcs_surrogate=get_int("n_mcs_surrogate",
                                        defaults.get("n_mcs_surrogate"), 1),
                seed=get_int("seed", 0, 0),
                truncation=bool(raw.get("truncation", False)),
                hpcfe=hp_cfg,
                out_dir=Path(raw.get("out_dir", "results")),
                max_terms=max_terms,
                n_grad_samples=n_grad,
                geometry_file=geometry_file,
            )
        except ParameterError as exc:
            raise ConfigError(f"{path}: {exc}")


def _load_plugin(path: str) -> tuple[LimitState, ProbabilisticModel]:
    spec = importlib.util.spec_from_file_location("sasrel_user_plugin", path)
    if spec is None or spec.loader is None:
        raise ConfigError(f"cannot import plugin {path}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    for attr in ("get_limit_state", "get_model"):
        if not callable(getattr(module, attr, None)):
            raise ConfigError(f"plugin {path} must define {attr}()")
    state = module.get_limit_state()
    model = module.get_model()
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
        state = truss_state(TrussGeometry.from_file(cfg.geometry_file))
    return state, model


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _write_results_csv(path: Path, rows: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULT_COLUMNS)
        for row in rows:
            writer.writerow([_fmt(row.get(col)) for col in RESULT_COLUMNS])


def _result_row(res: ReliabilityResult, beta_ref: float | None) -> dict:
    row = {name: getattr(res, name) for name in ReliabilityResult.CSV_FIELDS}
    eps = None
    if beta_ref is not None and res.method != "mcs" and math.isfinite(beta_ref) \
            and beta_ref != 0.0 and math.isfinite(res.beta):
        eps = abs(beta_ref - res.beta) / abs(beta_ref) * 100.0
    row["eps_vs_mcs_pct"] = eps
    return row


def run_study(cfg: StudyConfig) -> int:
    state, model = _resolve_problem(cfg)
    out = cfg.out_dir
    out.mkdir(parents=True, exist_ok=True)

    pipe_cfg = PipelineConfig(
        n_train=cfg.n_train, p_max=cfg.p_max, n_mcs=cfg.n_mcs_surrogate,
        mu=cfg.mu, seed=cfg.seed, hpcfe_config=cfg.hpcfe,
        n_grad_samples=cfg.n_grad_samples, lar_max_terms=cfg.max_terms)

    rows: list[dict] = []
    beta_ref = None
    training = None  # fitted once, shared by both surrogate methods
    # mcs runs first so the surrogate rows can carry the error column
    ordered = sorted(cfg.methods, key=lambda m: VALID_METHODS.index(m))
    for method in ordered:
        artifacts = None  # only sas-hpcfe has intermediate models to write
        try:
            if method == "mcs":
                res = mcs_probability(state, model, n=cfg.n_mcs, seed=cfg.seed)
                beta_ref = res.beta
            else:
                if training is None:
                    training = fit_training(state, model, pipe_cfg)
                    (out / "spce_model.json").write_text(training.spce_model.to_json())
                if method == "spce":
                    res = spce_only_pipeline(training, pipe_cfg)
                else:
                    res, artifacts = sas_hpcfe_pipeline(training, pipe_cfg)
        except (NumericalError, np.linalg.LinAlgError) as exc:
            print(f"error: {method} failed: {exc}", file=sys.stderr)
            _write_results_csv(out / "results.csv", rows)
            return 3
        rows.append(_result_row(res, beta_ref))
        _write_results_csv(out / "results.csv", rows)
        if artifacts is not None:
            _write_artifacts(out, artifacts)
        print(f"{method}: pf={res.pf:.6g} beta={res.beta:.4f} "
              f"n_model_evals={res.n_model_evals}")
    return 0


def _write_artifacts(out: Path, artifacts) -> None:
    """The subspace, spectrum, reduced surrogate and scatter of ``sas-hpcfe``."""
    (out / "sas_hpcfe_subspace.json").write_text(artifacts.subspace.to_json())
    with open(out / "eigenvalues.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "eigenvalue"])
        for i, ev in enumerate(artifacts.subspace.eigenvalues):
            writer.writerow([i + 1, repr(float(ev))])
    (out / "sas_hpcfe_hpcfe_model.json").write_text(artifacts.hpcfe_model.to_json())
    n_coord = artifacts.scatter.shape[1] - 1
    with open(out / "reduced_scatter.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"z{i + 1}" for i in range(n_coord)] + ["failed"])
        for row in artifacts.scatter:
            writer.writerow([repr(float(v)) for v in row[:-1]]
                            + [str(int(row[-1]))])


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
    run_p.add_argument("--no-truncation", action="store_true",
                       help="ignore marginal truncation intervals")

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
            cfg.seed = args.seed
        if args.no_truncation:
            cfg.truncation = False
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
