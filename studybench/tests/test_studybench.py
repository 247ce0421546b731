"""Self-tests of the study benchmark's checks and harness.

    python3 -m pytest -q studybench/tests

The smoke test runs real studies on ``configs/sobol-m10.json`` (not one of the
benchmark's workloads) with one optimizer start, in about half a minute.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
REPO = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import hooks  # noqa: E402
import run  # noqa: E402

STUDY = {"n_train": 800, "n_mcs": 100000}
GOOD = (
    "method,pf,beta,n_model_evals,n_surrogate_evals,cov_pf,r,seed,eps_vs_mcs_pct\n"
    "mcs,0.0177,2.103752983766595,100000,0,0.0235,,1,\n"
    "spce,0.01887,2.0776674394215315,800,100000,0.0228,,1,1.2399528151047174\n"
    "sas-hpcfe,0.01833,2.0895304485302435,800,101000,0.0231,2,1,0.6760553803653864\n"
)


def tamper(old: str, new: str) -> str:
    assert old in GOOD
    return GOOD.replace(old, new)


def test_good_table_passes():
    assert checks.check_study(0, GOOD, STUDY, (2, 2)) == []


def test_wrong_model_evals_trips():
    text = tamper("sas-hpcfe,0.01833,2.0895304485302435,800,",
                  "sas-hpcfe,0.01833,2.0895304485302435,1600,")
    problems = checks.check_study(0, text, STUDY, (2, 2))
    assert problems and "n_model_evals" in problems[0]
    text = tamper("mcs,0.0177,2.103752983766595,100000,", "mcs,0.0177,2.103752983766595,99999,")
    assert checks.check_study(0, text, STUDY, (2, 2))


def test_five_percent_beta_error_trips():
    text = tamper(",2,1,0.6760553803653864", ",2,1,5.0")
    problems = checks.check_study(0, text, STUDY, (2, 2))
    assert problems == ["sas-hpcfe beta error 5.0% > 3.0%"]


def test_missing_row_trips():
    text = "".join(ln + "\n" for ln in GOOD.splitlines() if not ln.startswith("spce"))
    problems = checks.check_study(0, text, STUDY, (2, 2))
    assert problems and "expected rows" in problems[0]


def test_duplicate_row_and_bad_exit_trip():
    assert checks.check_study(0, GOOD + GOOD.splitlines()[-1] + "\n", STUDY, (2, 2))
    assert checks.check_study(3, GOOD, STUDY, (2, 2)) == ["sasrel run returned 3"]
    assert checks.check_study(0, None, STUDY, (2, 2))


def test_rank_outside_range_trips():
    assert checks.check_study(0, GOOD, STUDY, (3, 3))
    assert checks.check_study(0, GOOD, STUDY, (1, 9)) == []


def test_results_must_be_byte_identical():
    other = tamper("0.6760553803653864", "0.6760553803653865")
    records = [{"rc": 0, "results_csv": GOOD}, {"rc": 0, "results_csv": other}]
    problems, digest = run.check_records(records, STUDY, (2, 2), None)
    assert problems[0] == [] and problems[1]
    problems, _ = run.check_records(records[1:], STUDY, (2, 2), digest)
    assert problems[0]


def test_code_digest_follows_source_and_config(tmp_path):
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    module = tmp_path / "src" / "pkg" / "mod.py"
    module.write_text("x = 1\n")
    first = run.code_digest(tmp_path, STUDY)
    assert run.code_digest(tmp_path, STUDY) == first
    assert run.code_digest(tmp_path, {**STUDY, "n_mcs": 1}) != first
    (tmp_path / "src" / "pkg" / "__pycache__").mkdir()
    (tmp_path / "src" / "pkg" / "__pycache__" / "mod.pyc").write_bytes(b"\0")
    assert run.code_digest(tmp_path, STUDY) == first
    module.write_text("x = 2\n")
    assert run.code_digest(tmp_path, STUDY) != first


def test_unfired_hook_reports_null_and_name():
    tracer = hooks.Tracer()
    span = tracer.open("reliability.mcs")
    tracer.close(span)
    values, unfired = hooks.layer_metrics(tracer, study_s=1.0, n_train=10)
    assert set(values) == set(hooks.LAYER_METRICS)
    assert values["hpcfe.homotopy_s"] is None
    assert "sasrel.hpcfe.homotopy_solve" in unfired
    assert values["reliability.mcs_s"] is not None


def test_layer_map_covers_every_per_layer_metric():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    mapping = json.loads((BENCH / "layer_map.json").read_text())
    per_layer = [m["name"] for m in spec["per_layer"]]
    assert [e["metric"] for e in mapping["layers"]] == per_layer
    assert set(hooks.LAYER_METRICS) <= set(per_layer)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_refuses_directory_without_checkout(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "beam", "--seed", "0", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


def last_json(out: str) -> dict:
    return json.loads(out.strip().splitlines()[-1])


def test_smoke_sobol_m10_end_to_end(tmp_path, monkeypatch, capsys):
    (tmp_path / "src").symlink_to(REPO / "src")
    (tmp_path / "configs").symlink_to(REPO / "configs")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setitem(run.WORKLOADS, "smoke", run.Workload(
        "configs/sobol-m10.json", {"hpcfe": {"restarts": 1}}, (2, 2)))
    # A digest recorded by other code for the same workload, seed and thread
    # count must not fail this code's studies.
    state = tmp_path / ".studybench"
    state.mkdir()
    other = f"smoke/seed1/threads{run.BLAS_THREADS}/code-{'0' * 16}"
    (state / "digests.json").write_text(json.dumps({other: "0" * 64}))

    assert run.main(["--workload", "smoke", "--seed", "1", "--seconds", "0"]) == 0
    result = last_json(capsys.readouterr().out)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 1
    assert set(result["metrics"]) == {"study_s", "setup_s", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in result["metrics"].values())

    assert run.main(["--workload", "smoke", "--seed", "1", "--seconds", "0",
                     "--trace", "1"]) == 0
    out = capsys.readouterr().out
    result = last_json(out)
    # one traced study, checked against the untraced run's results.csv digest
    assert result["correct"] and result["attempted"] == 1
    layers = result["metrics"]
    assert set(hooks.LAYER_METRICS) <= set(layers)
    assert all(layers[name]["value"] is not None for name in hooks.LAYER_METRICS)
    assert 0 < layers["trace.overhead_s"]["value"] < layers["trace.study_s"]["value"]
    assert layers["spce.fit_lar_calls"]["value"] == 2
    assert layers["activesub.rank"]["value"] == 2
    # the DoE is evaluated once per surrogate method
    assert layers["benchmarks.evaluate_rows"]["value"] == 100000 + 2 * 800
    assert "never fired" not in out
    info = json.loads(out.strip().splitlines()[-2])
    env = info["environment"]
    assert env["blas_threads"] >= 1 and env["seed"] == 1
    assert info["run"]["studies"] == 1 and info["run"]["wall_s"] > 0

    digests = json.loads((state / "digests.json").read_text())
    study = run.study_config(tmp_path, run.WORKLOADS["smoke"])
    key = f"smoke/seed1/threads{env['blas_threads']}/code-{run.code_digest(tmp_path, study)[:16]}"
    assert sorted(digests) == sorted([other, key])


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
