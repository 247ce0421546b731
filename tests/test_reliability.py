import dataclasses
import math

import numpy as np
import pytest
from scipy.stats import norm

from sasrel.cli import RESULT_COLUMNS, _fmt
from sasrel.errors import DimensionError, NumericalError, ParameterError
from sasrel.hpcfe import HpcfeConfig, HpcfeModel
from sasrel.probspace import Marginal, ProbabilisticModel, mc_sample
from sasrel.reliability import (
    CountingLimitState,
    LimitState,
    PipelineConfig,
    ReliabilityResult,
    fit_training,
    mcs_probability,
    reliability_index,
    sas_hpcfe_pipeline,
    spce_only_pipeline,
)


def uniform_model(dim):
    return ProbabilisticModel(tuple(
        Marginal(kind="uniform", lo=0.0, hi=1.0, name=f"x{i}") for i in range(dim)))


def cheap_pipeline_config(**kw):
    kw.setdefault("hpcfe_config", HpcfeConfig(restarts=2, nm_max_evals=40))
    return PipelineConfig(**kw)


def test_reliability_index_sentinels():
    assert reliability_index(0.0) == math.inf
    assert reliability_index(1.0) == -math.inf
    with pytest.raises(ParameterError):
        reliability_index(-1e-9)
    with pytest.raises(ParameterError):
        reliability_index(1.0 + 1e-9)


def test_reliability_index_round_trip():
    for pf in [1e-8, 1e-4, 0.01, 0.1, 0.35, 0.5, 0.9, 1 - 1e-6]:
        beta = reliability_index(pf)
        assert abs(norm.sf(beta) - pf) <= 1e-12 * max(pf, 1e-12) + 1e-16


def test_result_validation_and_csv():
    res = ReliabilityResult(method="mcs", pf=0.1, beta=reliability_index(0.1),
                            n_model_evals=1000, cov_pf=0.09486, seed=7)
    row = [_fmt(getattr(res, name)) for name in ReliabilityResult.CSV_FIELDS]
    assert RESULT_COLUMNS[:len(row)] == ReliabilityResult.CSV_FIELDS
    assert row[0] == "mcs"
    assert row[1] == repr(0.1) and float(row[1]) == 0.1
    assert row[6] == ""  # r not set
    with pytest.raises(ParameterError):
        ReliabilityResult(method="mcs", pf=1.5, beta=0.0, n_model_evals=1)
    with pytest.raises(ParameterError):
        ReliabilityResult(method="mcs", pf=0.1, beta=3.0, n_model_evals=1)


def test_mcs_matches_analytic_threshold():
    model = uniform_model(1)
    ls = LimitState("step", 1, lambda x: x[:, 0] - 0.5)
    res = mcs_probability(ls, model, n=200_000, seed=11)
    assert abs(res.pf - 0.5) <= 4 * 0.5 / math.sqrt(200_000)
    assert res.n_model_evals == 200_000
    assert abs(res.beta - norm.isf(res.pf)) <= 1e-12
    assert res.cov_pf == pytest.approx(math.sqrt((1 - res.pf) / (200_000 * res.pf)))


def test_mcs_unbiased_across_seeds():
    model = uniform_model(1)
    ls = LimitState("step", 1, lambda x: x[:, 0] - 0.5)
    n, n_rep = 2000, 50
    estimates = [mcs_probability(ls, model, n=n, seed=s).pf for s in range(n_rep)]
    sd_mean = 0.5 / math.sqrt(n * n_rep)
    assert abs(np.mean(estimates) - 0.5) <= 4 * sd_mean


def test_mcs_deterministic_and_matches_batch_sample():
    model = uniform_model(3)
    ls = LimitState("corner", 3, lambda x: x.sum(axis=1) - 0.9)
    a = mcs_probability(ls, model, n=5000, seed=3)
    b = mcs_probability(ls, model, n=5000, seed=3)
    assert a.pf == b.pf
    x = mc_sample(model, 5000, seed=3).values
    pf_batch = np.mean(ls.evaluate(x) < 0.0)
    assert a.pf == pf_batch


def test_mcs_degenerate_probabilities():
    model = uniform_model(2)
    safe = mcs_probability(LimitState("safe", 2, lambda x: np.ones(len(x))),
                           model, n=500, seed=0)
    assert safe.pf == 0.0 and safe.beta == math.inf and safe.cov_pf == math.inf
    failed = mcs_probability(LimitState("failed", 2, lambda x: -np.ones(len(x))),
                             model, n=500, seed=0)
    assert failed.pf == 1.0 and failed.beta == -math.inf and failed.cov_pf == 0.0
    # boundary value g = 0 counts as safe
    onzero = mcs_probability(LimitState("zero", 2, lambda x: np.zeros(len(x))),
                             model, n=500, seed=0)
    assert onzero.pf == 0.0


def test_mcs_nonfinite_reports_sample_index():
    model = uniform_model(1)
    state = {"row": 0}

    def g(x):
        out = np.ones(len(x))
        lo, hi = state["row"], state["row"] + len(x)
        if lo <= 7 < hi:
            out[7 - lo] = np.nan
        state["row"] = hi
        return out

    with pytest.raises(NumericalError, match="sample 7"):
        mcs_probability(LimitState("bad", 1, g), model, n=100, seed=0)


def test_limit_state_dimension_check():
    ls = LimitState("plane", 4, lambda x: x.sum(axis=1))
    with pytest.raises(DimensionError):
        ls.evaluate(np.zeros((3, 5)))
    counted = CountingLimitState(ls)
    counted.evaluate(np.zeros((6, 4)))
    counted.evaluate(np.zeros((2, 4)))
    assert counted.n_evals == 8


def additive_plane_state():
    # g = x1 + x2 - 0.8 on U(0,1)^6: pf = 0.8^2 / 2 = 0.32, rank-1 gradient.
    return LimitState("plane6", 6, lambda x: x[:, 0] + x[:, 1] - 0.8)


def test_pipeline_recovers_analytic_pf():
    model = uniform_model(6)
    cfg = cheap_pipeline_config(n_train=64, p_max=2, n_mcs=100_000, seed=5)
    res, art = sas_hpcfe_pipeline(fit_training(additive_plane_state(), model, cfg), cfg)
    sd = math.sqrt(0.32 * 0.68 / cfg.n_mcs)
    assert abs(res.pf - 0.32) <= 4 * sd
    assert res.r == 1
    assert res.method == "sas-hpcfe"
    assert res.n_model_evals == 64
    assert res.n_surrogate_evals == cfg.n_mcs + 60
    assert art.fd_gradient_cost == 60 * 7
    assert art.scatter.shape[1] == 2  # one reduced coordinate plus failure flag
    assert set(np.unique(art.scatter[:, -1])) <= {0.0, 1.0}


def test_pipeline_audits_model_eval_budget():
    calls = {"n": 0}

    def g(x):
        calls["n"] += len(x)
        return x[:, 0] + x[:, 1] - 0.8

    model = uniform_model(6)
    cfg = cheap_pipeline_config(n_train=48, p_max=2, n_mcs=2000, seed=1)
    training = fit_training(LimitState("plane6", 6, g), model, cfg)
    assert calls["n"] == 48
    assert training.n_model_evals == 48
    res, _ = sas_hpcfe_pipeline(training, cfg)
    assert calls["n"] == 48
    assert res.n_model_evals == 48


def test_spce_only_pipeline():
    model = uniform_model(6)
    cfg = cheap_pipeline_config(n_train=64, p_max=2, n_mcs=100_000, seed=9)
    res = spce_only_pipeline(fit_training(additive_plane_state(), model, cfg), cfg)
    sd = math.sqrt(0.32 * 0.68 / cfg.n_mcs)
    assert abs(res.pf - 0.32) <= 4 * sd
    assert res.method == "spce"
    assert res.n_model_evals == 64
    assert res.r is None


def test_pipeline_rank_grows_with_threshold():
    # decaying directional weights spread the gradient spectrum
    w = np.array([1.0, 0.5, 0.25, 0.125])
    ls = LimitState("decay", 4, lambda x: x @ w - 0.6)
    model = uniform_model(4)
    ranks = []
    for mu in (0.6, 0.999):
        cfg = cheap_pipeline_config(n_train=40, p_max=2, n_mcs=1000, seed=2, mu=mu)
        res, _ = sas_hpcfe_pipeline(fit_training(ls, model, cfg), cfg)
        ranks.append(res.r)
    assert ranks[0] <= ranks[1]


def test_pipeline_warns_when_rank_equals_dimension():
    # isotropic curvature: equal eigenvalues force full rank at tight mu
    ls = LimitState("bowl", 3, lambda x: ((x - 0.5) ** 2).sum(axis=1) - 0.2)
    model = uniform_model(3)
    cfg = cheap_pipeline_config(n_train=40, p_max=2, n_mcs=1000, seed=4, mu=0.999)
    training = fit_training(ls, model, cfg)
    with pytest.warns(RuntimeWarning, match="no dimension reduction"):
        res, _ = sas_hpcfe_pipeline(training, cfg)
    assert res.r == 3


def test_pipeline_dimension_mismatch():
    model = uniform_model(5)
    cfg = cheap_pipeline_config(n_train=32, p_max=1, n_mcs=100)
    with pytest.raises(DimensionError):
        fit_training(additive_plane_state(), model, cfg)


def test_pipelines_reject_nonfinite_surrogate_prediction(monkeypatch):
    model = uniform_model(6)
    cfg = cheap_pipeline_config(n_train=48, p_max=2, n_mcs=2000, seed=1)
    training = fit_training(additive_plane_state(), model, cfg)
    nan_spce = dataclasses.replace(training.spce_model, intercept=math.nan)
    with pytest.raises(NumericalError, match="non-finite surrogate prediction at sample 0"):
        spce_only_pipeline(dataclasses.replace(training, spce_model=nan_spce), cfg)

    def predict_mean(self, z):
        out = np.ones(len(z))
        out[5] = np.inf
        return out

    monkeypatch.setattr(HpcfeModel, "predict_mean", predict_mean)
    with pytest.raises(NumericalError, match="non-finite surrogate prediction at sample 5"):
        sas_hpcfe_pipeline(training, cfg)


def test_pipeline_config_validation():
    with pytest.raises(ParameterError):
        PipelineConfig(n_train=2, p_max=1, n_mcs=100)
    with pytest.raises(ParameterError):
        PipelineConfig(n_train=10, p_max=1, n_mcs=0)
    with pytest.raises(ParameterError):
        PipelineConfig(n_train=10, p_max=1, n_mcs=100, mu=1.0)
