import dataclasses
import math
import threading
import time

import numpy as np
import pytest
from scipy.stats import norm

from sasrel import parallel, probspace, reliability
from sasrel.cli import RESULT_COLUMNS, _fmt
from sasrel.errors import DimensionError, NumericalError, ParameterError
from sasrel.hpcfe import HpcfeConfig, HpcfeModel
from sasrel.probspace import Marginal, ProbabilisticModel, uniform_stream
from sasrel.reliability import (
    SCATTER_ROWS,
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


def test_reliability_index_bitwise_equals_norm_isf():
    grid = np.concatenate([np.linspace(0.0, 1.0, 20001)[1:-1],
                           [0.5, 1e-300, 5e-324, 1e-10, 1.0 - 1e-16]])
    beta = np.array([reliability_index(float(pf)) for pf in grid])
    assert beta.tobytes() == norm.isf(grid).tobytes()
    assert math.copysign(1.0, reliability_index(0.5)) == 1.0  # 0.0, not -0.0


def test_result_validation_and_csv():
    res = ReliabilityResult(method="mcs", pf=0.1, n_model_evals=1000,
                            cov_pf=0.09486, seed=7)
    assert res.beta == reliability_index(0.1)
    row = [_fmt(getattr(res, name)) for name in ReliabilityResult.CSV_FIELDS]
    assert RESULT_COLUMNS[:len(row)] == ReliabilityResult.CSV_FIELDS
    assert row[0] == "mcs"
    assert row[1] == repr(0.1) and float(row[1]) == 0.1
    assert row[6] == ""  # r not set
    with pytest.raises(ParameterError):
        ReliabilityResult(method="mcs", pf=1.5, n_model_evals=1)


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
    x = np.vstack([model.to_physical(u) for u in uniform_stream(3, 5000, model.dim)])
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


@pytest.fixture
def small_chunks(monkeypatch):
    # 1000-row chunks of 256-row blocks make a many-chunk stream cheap, with
    # a ragged last block in every chunk and a ragged last chunk
    monkeypatch.setattr(probspace, "SAMPLE_CHUNK", 1000)
    monkeypatch.setattr(probspace, "SAMPLE_BLOCK", 256)


def test_pool_size_does_not_change_estimates_or_scatter(monkeypatch, small_chunks):
    model = uniform_model(6)
    cfg = cheap_pipeline_config(n_train=48, p_max=2, n_mcs=10_500, seed=3)
    training = fit_training(additive_plane_state(), model, cfg)
    threads = threading.active_count()
    outcomes = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(parallel, "usable_cores", lambda w=workers: w)
        mcs = mcs_probability(additive_plane_state(), model, n=10_500, seed=3)
        spce = spce_only_pipeline(training, cfg)
        with pytest.warns(RuntimeWarning, match="optimization bound"):
            sas, art = sas_hpcfe_pipeline(training, cfg)
        outcomes.append((mcs.pf, spce.pf, sas.pf, art.scatter.tobytes()))
        assert threading.active_count() == threads
        if workers == 1:
            # the scatter is the head of the stream, across chunks and blocks ...
            u = np.vstack(list(uniform_stream(cfg.seed, cfg.n_mcs, model.dim)))
            head = art.subspace.project(2.0 * u[:SCATTER_ROWS] - 1.0)
            assert art.scatter.shape == (SCATTER_ROWS, head.shape[1] + 1)
            assert art.scatter[:, :-1].tobytes() == head.tobytes()
            # ... also when block 0 finishes last on a pool
            predict_mean = HpcfeModel.predict_mean

            def block0_slow(self, z):
                if z[0, 0] == head[0, 0]:
                    time.sleep(0.2)
                return predict_mean(self, z)

            monkeypatch.setattr(HpcfeModel, "predict_mean", block0_slow)
    assert outcomes[0] == outcomes[1] == outcomes[2]


def test_pooled_nonfinite_names_first_sample_in_stream_order(monkeypatch, small_chunks):
    model = uniform_model(1)
    x = np.vstack(list(uniform_stream(0, 5000, model.dim)))[:, 0]
    # the ragged last block of chunk 2, and the first block of chunk 3
    first, later = x[2777], x[3004]
    assert np.count_nonzero(x == first) == np.count_nonzero(x == later) == 1

    def g(x):
        if np.any(x[:, 0] == first):
            time.sleep(0.2)  # on a pool, the later block finishes first
        out = np.ones(len(x))
        out[(x[:, 0] == first) | (x[:, 0] == later)] = np.nan
        return out

    threads = threading.active_count()
    for workers in (1, 3):
        monkeypatch.setattr(parallel, "usable_cores", lambda w=workers: w)
        with pytest.raises(NumericalError, match="sample 2777$"):
            mcs_probability(LimitState("bad", 1, g), model, n=5000, seed=0)
        assert threading.active_count() == threads


@pytest.mark.parametrize("cores, workers", [(2, 2), (64, reliability.MAX_POOL_WORKERS)])
def test_pool_draws_at_most_one_block_beyond_its_threads(monkeypatch, cores, workers):
    # on many cores the pool, and with it the blocks in flight, stops at the cap
    n_blocks = 2 * reliability.MAX_POOL_WORKERS + 2
    monkeypatch.setattr(parallel, "usable_cores", lambda: cores)
    drawn = []
    released = [threading.Event() for _ in range(n_blocks)]

    def stream(seed, n, dim):
        for i in range(n_blocks):
            drawn.append(i)
            yield np.full((10, 1), float(i))  # each block carries its index

    def g(u):
        i = int(u[0, 0])
        if not released[i].wait(timeout=10):
            raise TimeoutError(f"block {i} never released")
        return np.ones(u.shape[0])

    monkeypatch.setattr(reliability, "uniform_stream", stream)
    out = []
    runner = threading.Thread(target=lambda: out.append(
        reliability._failure_probability(g, 10 * n_blocks, 0, 1, "g")))
    runner.start()
    try:
        for i in range(n_blocks):
            time.sleep(0.05)
            # blocks i and later are held back, so at most i blocks are collected
            assert len(drawn) <= i + workers + 1
            released[i].set()
    finally:
        for event in released:
            event.set()
        runner.join(timeout=10)
    assert not runner.is_alive()
    assert out == [(0.0, math.inf)] and len(drawn) == n_blocks


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
    with pytest.warns(RuntimeWarning, match="optimization bound"):
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


def test_pipeline_audits_model_eval_budget(monkeypatch, small_chunks):
    calls = {"n": 0}

    def g(x):
        calls["n"] += len(x)
        return x[:, 0] + x[:, 1] - 0.8

    model = uniform_model(6)
    cfg = cheap_pipeline_config(n_train=48, p_max=2, n_mcs=2000, seed=1)
    training = fit_training(LimitState("plane6", 6, g), model, cfg)
    assert calls["n"] == 48
    assert training.n_model_evals == 48
    with pytest.warns(RuntimeWarning, match="optimization bound"):
        res, _ = sas_hpcfe_pipeline(training, cfg)
    assert calls["n"] == 48
    assert res.n_model_evals == 48
    # direct Monte Carlo on a pool counts every row of every block
    monkeypatch.setattr(parallel, "usable_cores", lambda: 3)
    counted = CountingLimitState(LimitState("plane6", 6, g))
    mcs_probability(counted, model, n=2500, seed=1)
    assert counted.n_evals == calls["n"] - 48 == 2500


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
        with pytest.warns(RuntimeWarning, match="optimization bound"):
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
    with pytest.warns(RuntimeWarning, match="optimization bound"), \
            pytest.raises(NumericalError, match="non-finite surrogate prediction at sample 5"):
        sas_hpcfe_pipeline(training, cfg)


def test_pipeline_config_validation():
    with pytest.raises(ParameterError):
        PipelineConfig(n_train=2, p_max=1, n_mcs=100)
    with pytest.raises(ParameterError):
        PipelineConfig(n_train=10, p_max=1, n_mcs=0)
    with pytest.raises(ParameterError):
        PipelineConfig(n_train=10, p_max=1, n_mcs=100, mu=1.0)
    with pytest.raises(ParameterError):
        PipelineConfig(n_train=10, p_max=0, n_mcs=100)
    with pytest.raises(ParameterError):
        PipelineConfig(n_train=10, p_max=1, n_mcs=100, seed=-1)


@pytest.mark.parametrize("name", ["lar_max_terms"])
def test_pipeline_config_counts_are_none_or_positive(name):
    for bad in (0, -3):
        with pytest.raises(ParameterError, match=name):
            PipelineConfig(n_train=10, p_max=1, n_mcs=100, **{name: bad})
    for good in (None, 1):
        assert getattr(PipelineConfig(n_train=10, p_max=1, n_mcs=100,
                                      **{name: good}), name) == good
