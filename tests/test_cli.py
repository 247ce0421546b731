"""End-to-end tests for the command-line interface."""

import csv
import dataclasses
import importlib.util
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from sasrel import cli, reliability
from sasrel.benchmarks import BENCHMARK_NAMES, get_benchmark
from sasrel.cli import StudyConfig, main
from sasrel.reliability import CountingLimitState

CONFIG_DIR = pathlib.Path(__file__).resolve().parents[1] / "configs"
SRC_DIR = pathlib.Path(__file__).resolve().parents[1] / "src"
HOOKS_FILE = pathlib.Path(__file__).resolve().parents[1] / "studybench" / "hooks.py"

FAST_STUDY = {
    "benchmark": "sobol-m10",
    "methods": ["mcs", "spce", "sas-hpcfe"],
    "n_train": 250,
    "p_max": 3,
    "max_terms": 25,
    "n_mcs": 20000,
    "n_mcs_surrogate": 20000,
    "seed": 3,
    "hpcfe": {"M": 2, "b": 3, "restarts": 2, "nm_max_evals": 60},
}

PLUGIN_SOURCE = """\
import numpy as np
from sasrel.probspace import Marginal, ProbabilisticModel
from sasrel.reliability import LimitState

def get_limit_state():
    return LimitState(name="plane", dim=3,
                      fn=lambda x: x[:, 0] + x[:, 1] - 0.5)

def get_model():
    return ProbabilisticModel([Marginal("uniform", 0.0, 1.0)] * 3)
"""


def plugin_study(tmp_path, **overrides):
    """Config for all three methods on the 3-variable plane plugin."""
    plugin = tmp_path / "plane.py"
    plugin.write_text(PLUGIN_SOURCE)
    study = {"plugin": str(plugin), "methods": ["mcs", "spce", "sas-hpcfe"],
             "n_mcs": 5000, "n_train": 64, "p_max": 2, "n_mcs_surrogate": 5000,
             "seed": 5, "hpcfe": {"restarts": 1, "nm_max_evals": 40}}
    study.update(overrides)
    return study


def write_config(tmp_path, overrides=None, base=FAST_STUDY):
    cfg = dict(base)
    cfg.update(overrides or {})
    cfg.setdefault("out_dir", str(tmp_path / "out"))
    path = tmp_path / "study.json"
    path.write_text(json.dumps(cfg))
    return path, cfg["out_dir"]


def read_results(out_dir):
    with open(f"{out_dir}/results.csv", newline="") as fh:
        return list(csv.DictReader(fh))


def test_run_writes_results_and_artifacts(tmp_path):
    cfg_path, out = write_config(tmp_path)
    assert main(["run", "--config", str(cfg_path)]) == 0
    rows = read_results(out)
    assert [r["method"] for r in rows] == ["mcs", "spce", "sas-hpcfe"]
    mcs, spce, sas = rows
    assert mcs["eps_vs_mcs_pct"] == ""
    assert float(spce["eps_vs_mcs_pct"]) > 0.0
    assert float(sas["eps_vs_mcs_pct"]) > 0.0
    assert int(mcs["n_model_evals"]) == 20000
    assert int(sas["n_model_evals"]) == 250
    assert int(sas["r"]) >= 1
    for name in ("eigenvalues.csv", "reduced_scatter.csv", "spce_model.json",
                 "sas_hpcfe_subspace.json", "sas_hpcfe_hpcfe_model.json"):
        assert (tmp_path / "out" / name).is_file(), name
    # the shared expansion is written once, not once per surrogate method
    assert sorted(p.name for p in (tmp_path / "out").glob("*spce_model.json")) == [
        "spce_model.json"]


def test_error_column_matches_mcs_reference(tmp_path):
    cfg_path, out = write_config(tmp_path)
    main(["run", "--config", str(cfg_path)])
    rows = {r["method"]: r for r in read_results(out)}
    beta_ref = float(rows["mcs"]["beta"])
    for method in ("spce", "sas-hpcfe"):
        beta = float(rows[method]["beta"])
        expected = abs(beta_ref - beta) / beta_ref * 100.0
        assert float(rows[method]["eps_vs_mcs_pct"]) == pytest.approx(expected)


def test_rerun_is_byte_identical(tmp_path):
    cfg_path, _ = write_config(tmp_path, {"methods": ["mcs", "spce"]})
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "a")]) == 0
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "b")]) == 0
    for name in ("results.csv", "spce_model.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_blas_thread_count_keeps_results_and_nearly_keeps_theta(tmp_path):
    # BLAS threads change the summation order inside the HPCFE likelihood, so
    # the fitted length scales move at round-off; the estimates must not.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR),
                                                      env.get("PYTHONPATH")]))
    outs = {}
    for threads in ("1", "2"):
        env["OPENBLAS_NUM_THREADS"] = threads
        outs[threads] = tmp_path / f"threads{threads}"
        subprocess.run([sys.executable, "-m", "sasrel.cli", "run",
                        "--config", str(CONFIG_DIR / "sobol-m10.json"),
                        "--out", str(outs[threads]), "--seed", "5"],
                       env=env, check=True, capture_output=True, timeout=300)
    csvs = [(out / "results.csv").read_bytes() for out in outs.values()]
    assert csvs[0] == csvs[1]
    thetas = [json.loads((out / "sas_hpcfe_hpcfe_model.json").read_text())["theta"]
              for out in outs.values()]
    np.testing.assert_allclose(thetas[1], thetas[0], rtol=1e-2)


def test_seed_override_changes_estimate(tmp_path):
    # seeds 3 and 100 give distinct failure counts at this sample size
    cfg_path, _ = write_config(tmp_path, {"methods": ["mcs"]})
    main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "a")])
    main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "b"),
          "--seed", "100"])
    pf_a = read_results(tmp_path / "a")[0]["pf"]
    pf_b = read_results(tmp_path / "b")[0]["pf"]
    assert pf_a != pf_b
    assert read_results(tmp_path / "b")[0]["seed"] == "100"


def test_eigenvalue_table_is_full_spectrum(tmp_path):
    cfg_path, out = write_config(tmp_path, {"methods": ["sas-hpcfe"]})
    main(["run", "--config", str(cfg_path)])
    with open(f"{out}/eigenvalues.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 10
    assert (tmp_path / "out" / "spce_model.json").is_file()
    values = [float(r["eigenvalue"]) for r in rows]
    assert values == sorted(values, reverse=True)
    # symmetric eigensolve round-off can leave tiny negative tail values
    assert all(v >= -1e-12 * values[0] for v in values)


def test_scatter_has_reduced_coordinates_and_labels(tmp_path):
    cfg_path, out = write_config(tmp_path, {"methods": ["sas-hpcfe"]})
    main(["run", "--config", str(cfg_path)])
    rows = read_results(out)
    rank = int(rows[0]["r"])
    with open(f"{out}/reduced_scatter.csv", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        body = list(reader)
    assert header == [f"z{i + 1}" for i in range(rank)] + ["failed"]
    assert body
    assert {row[-1] for row in body} <= {"0", "1"}


@pytest.mark.parametrize("overrides, fragment", [
    ({"benchmark": "not-a-study"}, None),
    ({"methods": ["bogus"]}, None),
    ({"mu": 1.5}, None),
    ({"n_train": 1}, None),
    ({"hpcfe": {"restarts": 0}}, None),
    ({"surprise_key": 1}, None),
    ({"hpcfe": {"kernel": "anisotropic-squared-exponential"}}, "unknown hpcfe keys: kernel"),
    ({"hpcfe": {"theta_bounds": 5}}, "'theta_bounds' must be a list of two numbers"),
    ({"truncation": "no"}, "'truncation' must be true or false"),
    ({"out_dir": 5}, "'out_dir' must be a string"),
    ({"max_terms": True}, "'max_terms' must be a positive integer"),
    ({"n_grad_samples": True}, "'n_grad_samples' must be a positive integer"),
    ({"hpcfe": {"restarts": True}}, "hpcfe: 'restarts' must be an integer"),
    ({"hpcfe": {"nugget": True}}, "hpcfe: 'nugget' must be a number"),
    ({"methods": ["mcs", "mcs"]}, "'methods' names a method more than once"),
    ({"hpcfe": {"nm_max_evals": 0}}, "hpcfe: likelihood evaluation cap must be >= 1"),
])
def test_invalid_config_exits_2(tmp_path, capsys, overrides, fragment):
    cfg_path, _ = write_config(tmp_path, overrides)
    assert main(["run", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert fragment is None or fragment in err


def test_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not valid json")
    assert main(["run", "--config", str(path)]) == 2
    assert "line 1" in capsys.readouterr().err


def test_missing_config_file_exits_2(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.json")]) == 2
    assert "not found" in capsys.readouterr().err


def test_plugin_problem_runs(tmp_path):
    plugin = tmp_path / "plane.py"
    plugin.write_text(PLUGIN_SOURCE)
    cfg_path, out = write_config(tmp_path, base={
        "plugin": str(plugin), "methods": ["mcs"], "n_mcs": 50000,
        "n_train": 64, "p_max": 2, "n_mcs_surrogate": 1000, "seed": 5})
    assert main(["run", "--config", str(cfg_path)]) == 0
    pf = float(read_results(out)[0]["pf"])
    # P(x1 + x2 < 1/2) = 1/8 for independent U(0, 1)
    assert pf == pytest.approx(0.125, abs=0.01)


def test_plugin_missing_hook_exits_2(tmp_path, capsys):
    plugin = tmp_path / "bad.py"
    plugin.write_text("def get_limit_state():\n    return 1\n")
    cfg_path, _ = write_config(tmp_path, base={
        "plugin": str(plugin), "methods": ["mcs"], "n_mcs": 100,
        "n_train": 8, "p_max": 1, "n_mcs_surrogate": 100})
    assert main(["run", "--config", str(cfg_path)]) == 2
    assert "get_model" in capsys.readouterr().err


@pytest.mark.parametrize("source, fragment", [
    ("def get_limit_state(:\n    pass\n", "SyntaxError"),
    (PLUGIN_SOURCE.replace('return ProbabilisticModel([Marginal("uniform", 0.0, 1.0)] * 3)',
                           "raise KeyError('lognormal')"), "KeyError: 'lognormal'"),
], ids=["syntax-error", "get-model-raises"])
def test_plugin_that_fails_to_load_exits_2(tmp_path, capsys, source, fragment):
    plugin = tmp_path / "broken.py"
    plugin.write_text(source)
    cfg_path, _ = write_config(tmp_path, base={
        "plugin": str(plugin), "methods": ["mcs"], "n_mcs": 100,
        "n_train": 8, "p_max": 1, "n_mcs_surrogate": 100})
    assert main(["run", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: plugin {plugin}: ")
    assert fragment in err


def test_plugin_output_of_wrong_length_exits_2(tmp_path, capsys):
    plugin = tmp_path / "short.py"
    plugin.write_text(PLUGIN_SOURCE.replace("x[:, 0] + x[:, 1] - 0.5", "np.ones(3)"))
    cfg_path, out = write_config(tmp_path, base={
        "plugin": str(plugin), "methods": ["mcs"], "n_mcs": 100,
        "n_train": 8, "p_max": 1, "n_mcs_surrogate": 100})
    assert main(["run", "--config", str(cfg_path)]) == 2
    assert "error: mcs failed: plane returned 3 values for 100 points" \
        in capsys.readouterr().err
    assert read_results(out) == []


def test_plugin_output_of_one_column_runs(tmp_path):
    plugin = tmp_path / "column.py"
    plugin.write_text(PLUGIN_SOURCE.replace(
        "x[:, 0] + x[:, 1] - 0.5", "(x[:, 0] + x[:, 1] - 0.5)[:, None]"))
    cfg_path, out = write_config(tmp_path, base={
        "plugin": str(plugin), "methods": ["mcs"], "n_mcs": 20000,
        "n_train": 8, "p_max": 1, "n_mcs_surrogate": 100, "seed": 5})
    assert main(["run", "--config", str(cfg_path)]) == 0
    assert float(read_results(out)[0]["pf"]) == pytest.approx(0.125, abs=0.01)


@pytest.mark.parametrize("defect, fragment", [
    ("missing node", "references a missing node"),
    ("invalid json", "Expecting"),
    ("no loads", "missing key 'loads'"),
    ("unknown axis", "bad load placement for P1"),
    ("text nodes", "could not convert string to float"),
])
def test_malformed_geometry_file_exits_2(tmp_path, capsys, defect, fragment):
    payload = json.loads((SRC_DIR / "sasrel/benchmarks/data/truss25.json").read_text())
    if defect == "missing node":
        payload["elements"][0][1] = len(payload["nodes"])
    elif defect == "no loads":
        del payload["loads"]
    elif defect == "unknown axis":
        payload["loads"]["P1"][1] = "+w"
    elif defect == "text nodes":
        payload["nodes"] = "abc"
    text = "{not valid json" if defect == "invalid json" else json.dumps(payload)
    geometry = tmp_path / "geometry.json"
    geometry.write_text(text)
    cfg_path, _ = write_config(tmp_path, base={
        "benchmark": "truss", "methods": ["mcs"], "n_mcs": 100,
        "geometry_file": str(geometry)})
    assert main(["run", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert f"error: geometry file {geometry}:" in err
    assert fragment in err


def test_numerical_failure_exits_3_and_keeps_partial_results(tmp_path, capsys):
    plugin = tmp_path / "nan.py"
    plugin.write_text(PLUGIN_SOURCE.replace(
        "x[:, 0] + x[:, 1] - 0.5", "np.full(x.shape[0], np.nan)"))
    cfg_path, out = write_config(tmp_path, base={
        "plugin": str(plugin), "methods": ["mcs"], "n_mcs": 100,
        "n_train": 8, "p_max": 1, "n_mcs_surrogate": 100})
    assert main(["run", "--config", str(cfg_path)]) == 3
    assert "non-finite" in capsys.readouterr().err
    assert (tmp_path / "out" / "results.csv").is_file()


def test_setting_rejected_at_run_time_exits_2_and_keeps_partial_results(tmp_path, capsys):
    # p_max 12 in 10 variables is only found too large once LAR sizes its basis
    cfg_path, out = write_config(tmp_path, {
        "methods": ["mcs", "spce"], "p_max": 12, "n_mcs": 2000,
        "n_mcs_surrogate": 1000})
    assert main(["run", "--config", str(cfg_path)]) == 2
    assert "error: spce failed: candidate basis" in capsys.readouterr().err
    assert [r["method"] for r in read_results(out)] == ["mcs"]


def test_design_past_the_sobol_sequence_exits_2(tmp_path, capsys):
    # the Sobol sequence has 2**30 points; the check comes before any allocation
    cfg_path, out = write_config(tmp_path, {"methods": ["spce"], "n_train": 2**30})
    assert main(["run", "--config", str(cfg_path)]) == 2
    assert "error: spce failed: the Sobol sequence has 2**30 points" in \
        capsys.readouterr().err


def test_surrogate_methods_share_one_training_fit(tmp_path, monkeypatch):
    counters = []
    resolve = cli._resolve_problem

    def counted_problem(cfg):
        state, model = resolve(cfg)
        counters.append(CountingLimitState(state))
        return counters[-1], model

    lar_fits = []
    fit_lar = reliability.fit_lar

    def counted_fit_lar(*args, **kwargs):
        lar_fits.append(1)
        return fit_lar(*args, **kwargs)

    monkeypatch.setattr(cli, "_resolve_problem", counted_problem)
    monkeypatch.setattr(reliability, "fit_lar", counted_fit_lar)
    cfg_path, out = write_config(tmp_path, base=plugin_study(tmp_path))
    with pytest.warns(RuntimeWarning, match="optimization bound"):
        assert main(["run", "--config", str(cfg_path)]) == 0
    assert counters[0].n_evals == 5000 + 64
    assert len(lar_fits) == 1
    rows = {r["method"]: r for r in read_results(out)}
    assert rows["mcs"]["n_model_evals"] == "5000"
    assert rows["spce"]["n_model_evals"] == "64"
    assert rows["sas-hpcfe"]["n_model_evals"] == "64"


def test_nonfinite_surrogate_prediction_exits_3(tmp_path, capsys, monkeypatch):
    fit_lar = reliability.fit_lar

    def nan_fit_lar(*args, **kwargs):
        return dataclasses.replace(fit_lar(*args, **kwargs), intercept=math.nan)

    monkeypatch.setattr(reliability, "fit_lar", nan_fit_lar)
    cfg_path, out = write_config(tmp_path, base=plugin_study(tmp_path))
    assert main(["run", "--config", str(cfg_path)]) == 3
    assert "non-finite surrogate prediction" in capsys.readouterr().err
    assert [r["method"] for r in read_results(out)] == ["mcs"]


def test_truncation_key_reaches_the_model(tmp_path):
    base = {"benchmark": "beam", "methods": ["mcs"], "n_mcs": 50000,
            "n_train": 32, "p_max": 1, "n_mcs_surrogate": 100, "seed": 0}
    pf = {}
    for truncation in (True, False):
        out = tmp_path / str(truncation)
        cfg_path, _ = write_config(tmp_path, {"truncation": truncation, "out_dir": str(out)},
                                   base=base)
        assert main(["run", "--config", str(cfg_path)]) == 0
        pf[truncation] = float(read_results(out)[0]["pf"])
    # clipping the load tails removes most of the failure mass
    assert pf[False] > pf[True]


def test_report_prints_sorted_table(tmp_path, capsys):
    cfg_path, out = write_config(tmp_path, {"methods": ["mcs", "spce"]})
    main(["run", "--config", str(cfg_path)])
    capsys.readouterr()
    assert main(["report", str(out)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].split()[:3] == ["method", "pf", "beta"]
    methods = [line.split()[0] for line in lines[1:]]
    assert methods == sorted(methods)


def test_report_empty_directory(tmp_path, capsys):
    assert main(["report", str(tmp_path)]) == 0
    assert "no results" in capsys.readouterr().out


def test_report_missing_directory(tmp_path, capsys):
    assert main(["report", str(tmp_path / "ghost")]) == 2
    assert "not a directory" in capsys.readouterr().err


def test_shipped_configs_are_loadable():
    for name in BENCHMARK_NAMES:
        cfg = StudyConfig.from_file(str(CONFIG_DIR / f"{name}.json"))
        assert cfg.benchmark == name
        assert set(cfg.methods) == {"mcs", "spce", "sas-hpcfe"}


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_benchmark_configs_load_the_registry_settings(tmp_path, name):
    bench = get_benchmark(name)
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps({"benchmark": name, "methods": ["mcs", "spce"]}))
    # the shipped config spells out every setting; the bare one sets none
    for path in (CONFIG_DIR / f"{name}.json", bare):
        cfg = StudyConfig.from_file(str(path))
        assert cfg.pipeline == bench.pipeline
        assert cfg.n_mcs == bench.mcs_n


def test_config_keys_override_the_registry(tmp_path):
    cfg_path, _ = write_config(tmp_path, {"mu": 0.9, "n_grad_samples": 40})
    cfg = StudyConfig.from_file(str(cfg_path))
    registry = get_benchmark("sobol-m10").pipeline
    assert cfg.pipeline == dataclasses.replace(
        registry, n_train=250, p_max=3, lar_max_terms=25, n_mcs=20000, seed=3,
        mu=0.9, n_grad_samples=40,
        hpcfe_config=dataclasses.replace(registry.hpcfe_config, restarts=2,
                                         nm_max_evals=60))
    assert cfg.n_mcs == 20000


def test_study_benchmark_hooks_resolve(monkeypatch):
    """Every name the study benchmark patches still exists where callers look it up."""
    spec = importlib.util.spec_from_file_location("studybench_hooks", HOOKS_FILE)
    hooks = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, hooks)
    spec.loader.exec_module(hooks)
    assert hooks.HOOKS
    for _, owner_path, attr, _, _ in hooks.HOOKS:
        module_name, _, class_name = owner_path.partition(":")
        owner = importlib.import_module(module_name)
        if class_name:
            owner = getattr(owner, class_name)
            # the hook patches the class attribute itself, not an inherited one
            assert attr in vars(owner), f"{owner_path}.{attr}"
        else:
            assert callable(getattr(owner, attr, None)), f"{owner_path}.{attr}"


HOOKED_SUBSPACE_SCRIPT = """\
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("studybench_hooks", sys.argv[1])
hooks = importlib.util.module_from_spec(spec)
sys.modules[spec.name] = hooks
spec.loader.exec_module(hooks)
tracer = hooks.Tracer()
hooks.install(tracer)

from sasrel import reliability
from sasrel.probspace import sobol_points
from sasrel.spce import fit_lar

xi = 2.0 * sobol_points(64, 4) - 1.0
model = fit_lar(xi, xi[:, 0] + xi[:, 1] * xi[:, 2] ** 2, p_max=3)
reliability.subspace_from_surrogate(model, mu=0.98, n_grad_samples=40, skip=64)
print(json.dumps({"n_active": model.n_active,
                  "spans": [[s.name, s.rows, s.cols, s.parent] for s in tracer.spans]}))
"""


def test_study_benchmark_gradient_hook_fits_its_call():
    """A traced subspace run records the gradient span with its call's size."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR),
                                                      env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", HOOKED_SUBSPACE_SCRIPT, str(HOOKS_FILE)],
                          env=env, check=True, capture_output=True, text=True,
                          timeout=120)
    out = json.loads(done.stdout)
    spans = out["spans"]
    subspace = [i for i, s in enumerate(spans) if s[0] == "activesub.subspace"]
    gradient = [s for s in spans if s[0] == "polybasis.gradient"]
    assert len(subspace) == 1
    assert out["n_active"] > 0
    assert [s[1:] for s in gradient] == [[40, out["n_active"], subspace[0]]]
