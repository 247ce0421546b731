"""Stage-by-stage timing of the sasrel pipeline on the shipped benchmark studies.

    python3 bench/run_bench.py --label change --out BENCH_9.json sobol-m10 beam
    python3 bench/run_bench.py --src ../other-checkout/src --label parent \\
        --out BENCH_9.json sobol-m10 beam

Each study runs ``RUNS`` times at the settings of its config,
``configs/<name>.json`` in this checkout as read by the ``StudyConfig`` of
the ``sasrel`` under test (so a ``--src`` whose config keys differ from this
checkout's must be timed by its own checkout's script), each time in a fresh
child interpreter, so that peak RSS (``ru_maxrss``) belongs to that run alone, with OpenBLAS pinned to
one thread unless ``OPENBLAS_NUM_THREADS`` is already set.  The study's record holds the median over its runs of every
stage time, of peak RSS and of the minor page faults (``ru_minflt``), and
every run's own record under ``runs``.  The child imports ``sasrel`` from
``--src`` (default: this checkout's ``src``), calls the pipeline stages
directly, as ``sasrel run`` does, and times them:

- ``ref_mcs_s``: the reference Monte Carlo on the true model, on the same
  ``n_mcs`` draws of the seed stream as the two surrogate Monte Carlo stages
- ``doe_lar_s``: the Sobol training design and the LAR fit
- ``spce_mcs_s``: the Monte Carlo on the sparse expansion
- ``subspace_s``: the active subspace from the expansion's gradients
- ``hpcfe_fit_s``: the HPCFE fit (length-scale search and final assembly)
- ``hpcfe_predict_s``: the Monte Carlo on the HPCFE surrogate (wall time)

A run also records the minor page faults of the whole child (``minflt``,
import included) and of each of its four top-level stages (``stage_minflt``:
``ref_mcs``, ``doe_lar``, ``spce_mcs`` and ``sas``, the last with the HPCFE
fit and Monte Carlo), and the process's peak RSS after each of those four
stages (``stage_peak_rss_mb``, ``ru_maxrss``), so the stage that sets the
study's peak is the first whose value reaches it.

It also records each optimizer start as the fitted model records it
(``HpcfeModel.starts``: start and end log10 theta, final log-likelihood, the
distinct points at which it evaluated the likelihood, scipy's ``nfev``,
which also counts the points the start's memo answered, wall seconds and
process id), the
number of processes that ran the starts (``fit_workers``), their summed
seconds (``starts_s``), the likelihood evaluations (the starts' plus the
final assembly's one) and the final log-likelihood.  The starts may run in
forked worker processes, where counters in this process cannot see them, so
the total likelihood seconds and the correlation build and factor seconds
(``corr_chol_s``) of earlier records are no longer measured.  Beside the
study's peak RSS it records ``children_peak_rss_mb``, the largest peak RSS
of a finished worker process (``RUSAGE_CHILDREN``), then the fitted length
scales, the sparse expansion's active-term count and leave-one-out error,
pf/beta/r per method, the surrogates' beta error against the reference, the
BLAS thread setting, the numpy and scipy versions and whether the study
imported ``scipy.stats`` (``scipy_stats_imported``).  Before the studies it
times ``import sasrel.cli`` from ``--src`` in ``IMPORT_RUNS`` fresh
interpreters and records their median as ``import_s`` (each run in
``import_runs_s``); this is the start-up every ``sasrel`` command pays before
it reads its config.  The record goes into
the JSON file ``--out`` under ``runs[<label>]``; other labels already in the
file are kept, so a parent and a change can share one file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
IMPORT_RUNS = 5
RUNS = 3
# Times the package import alone, after the interpreter has started.
IMPORT_TIMER = """\
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import sasrel.cli
print(time.perf_counter() - start)
"""


def _timed(fn, seconds: dict, key: str):
    """``fn`` wrapped to add its wall time to ``seconds[key]``."""
    def wrapped(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            seconds[key] += time.perf_counter() - start
    return wrapped


def run_study(name: str, seed: int) -> dict:
    """One shipped study, stage by stage, in this interpreter."""
    import numpy as np
    import scipy

    from sasrel import hpcfe, reliability
    from sasrel.benchmarks import get_benchmark
    from sasrel.cli import StudyConfig

    study = StudyConfig.from_file(str(ROOT / "configs" / f"{name}.json"))
    bench = get_benchmark(name, truncated=study.truncation)
    cfg = replace(study.pipeline, seed=seed)
    seconds = dict.fromkeys(("subspace_s", "hpcfe_fit_s"), 0.0)
    hpcfe.fit = _timed(hpcfe.fit, seconds, "hpcfe_fit_s")
    reliability.subspace_from_surrogate = _timed(
        reliability.subspace_from_surrogate, seconds, "subspace_s")

    minflt = {}
    peak_rss = {}

    def stage(key, fn, *args):
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = time.perf_counter()
        out = fn(*args)
        seconds[key] = time.perf_counter() - start
        usage = resource.getrusage(resource.RUSAGE_SELF)
        minflt[key[:-2]] = usage.ru_minflt - faults
        peak_rss[key[:-2]] = round(usage.ru_maxrss / 1024, 1)
        return out

    ref = stage("ref_mcs_s", reliability.mcs_probability, bench.limit_state,
                bench.model, cfg.n_mcs, seed)
    training = stage("doe_lar_s", reliability.fit_training, bench.limit_state,
                     bench.model, cfg)
    spce = stage("spce_mcs_s", reliability.spce_only_pipeline, training, cfg)
    sas, artifacts = stage("sas_s", reliability.sas_hpcfe_pipeline, training, cfg)
    seconds["hpcfe_predict_s"] = \
        seconds.pop("sas_s") - seconds["subspace_s"] - seconds["hpcfe_fit_s"]

    def beta_err(res):
        return abs(res.beta - ref.beta) / abs(ref.beta) * 100.0

    model = artifacts.hpcfe_model
    return {
        "seed": seed,
        "stage_s": {k: round(v, 3) for k, v in seconds.items()},
        "fit_workers": len({s.pid for s in model.starts}),
        "likelihood_evals": sum(s.evals for s in model.starts) + 1,
        "starts_s": round(sum(s.seconds for s in model.starts), 3),
        "final_log_likelihood": max(s.ll for s in model.starts),
        "optimizer_starts": [asdict(s) for s in model.starts],
        "theta": model.theta.tolist(),
        "spce": {"n_active": training.spce_model.n_active,
                 "loo": training.spce_model.loo},
        "nugget": model.nugget,
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "minflt": resource.getrusage(resource.RUSAGE_SELF).ru_minflt,
        "stage_minflt": minflt,
        "stage_peak_rss_mb": peak_rss,
        "children_peak_rss_mb": round(
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, 1),
        "results": {res.method: {"pf": res.pf, "beta": res.beta, "r": res.r}
                    for res in (ref, spce, sas)},
        "beta_err_pct": {"spce": beta_err(spce), "sas-hpcfe": beta_err(sas)},
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "scipy_stats_imported": "scipy.stats" in sys.modules,
    }


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("studies", nargs="+", help="benchmark names, each with a config in configs/")
    ap.add_argument("--src", default=str(ROOT / "src"),
                    help="directory that holds the sasrel package to time")
    ap.add_argument("--seed", type=int, default=5, help="Monte Carlo seed")
    ap.add_argument("--label", default="run", help="key of this run in the output file")
    ap.add_argument("--out", help="JSON file to add the run to; stdout if omitted")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    src = str(Path(args.src).resolve())

    if args.child:
        sys.path.insert(0, src)
        print(json.dumps(run_study(args.studies[0], args.seed)))
        return 0

    env = dict(os.environ)
    env.setdefault("OPENBLAS_NUM_THREADS", "1")
    import_runs = [
        float(subprocess.run([sys.executable, "-c", IMPORT_TIMER, src], env=env,
                             capture_output=True, text=True, check=True).stdout)
        for _ in range(IMPORT_RUNS)]
    print(f"import_s: {statistics.median(import_runs):.3f}", file=sys.stderr)
    studies = {}
    for name in args.studies:
        cmd = [sys.executable, __file__, "--child", "--src", src,
               "--seed", str(args.seed), name]
        runs = []
        for _ in range(RUNS):
            done = subprocess.run(cmd, env=env, capture_output=True, text=True)
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                return done.returncode
            runs.append(json.loads(done.stdout.splitlines()[-1]))
        studies[name] = {
            "stage_s": {key: round(statistics.median(r["stage_s"][key] for r in runs), 3)
                        for key in runs[0]["stage_s"]},
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
            "stage_peak_rss_mb": {
                key: statistics.median(r["stage_peak_rss_mb"][key] for r in runs)
                for key in runs[0]["stage_peak_rss_mb"]},
            "minflt": statistics.median(r["minflt"] for r in runs),
            "runs": runs,
        }
        print(f"{name}: {json.dumps(studies[name]['stage_s'])}", file=sys.stderr)

    record = {
        "environment": {
            "cpu": _cpu_model(),
            "cores": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count(),
            "python": platform.python_version(),
        },
        "import_s": round(statistics.median(import_runs), 3),
        "import_runs_s": [round(t, 3) for t in import_runs],
        "studies": studies,
    }
    if args.out is None:
        print(json.dumps(record, indent=2))
        return 0
    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {"runs": {}}
    doc["runs"][args.label] = record
    out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
