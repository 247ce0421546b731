import json
import math
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy import stats
from scipy.stats import qmc

from sasrel.benchmarks import BENCHMARK_NAMES, get_benchmark
from sasrel.errors import DimensionError, DomainError, ParameterError
from sasrel.polybasis import BLOCK_ROW_ALIGN
from sasrel.probspace import (
    SAMPLE_BLOCK,
    SAMPLE_CHUNK,
    Marginal,
    ProbabilisticModel,
    moment_match,
    sobol_points,
    uniform_stream,
)


SRC_DIR = pathlib.Path(__file__).resolve().parents[1] / "src"


def scipy_dist(m):
    """The frozen ``scipy.stats`` distribution of ``m`` before truncation."""
    if m.kind == "uniform":
        return stats.uniform(loc=m.lo, scale=m.hi - m.lo)
    p = moment_match(m.kind, m.mean, m.sd)
    if m.kind == "normal":
        return stats.norm(loc=p["loc"], scale=p["scale"])
    if m.kind == "lognormal":
        return stats.lognorm(s=p["sigma"], scale=math.exp(p["mu"]))
    return stats.gumbel_r(loc=p["loc"], scale=p["scale"])


def scipy_cdf(m, x):
    """Reference CDF of ``m`` in physical units, renormalized over its truncation."""
    dist = scipy_dist(m)
    u = dist.cdf(x)
    if m.truncation is not None:
        ua, ub = dist.cdf(m.truncation[0]), dist.cdf(m.truncation[1])
        u = (u - ua) / (ub - ua)
    return u


def make_model():
    return ProbabilisticModel((
        Marginal(kind="uniform", lo=0.0, hi=1.0, name="x1"),
        Marginal(kind="normal", mean=2.0, sd=0.5, name="x2"),
        Marginal(kind="lognormal", mean=30.0, sd=7.5, name="x3"),
        Marginal(kind="gumbel", mean=10.0, sd=2.0, name="x4"),
    ))


def test_moment_match_lognormal_roundtrip():
    p = moment_match("lognormal", 30.0, 7.5)
    d = stats.lognorm(s=p["sigma"], scale=math.exp(p["mu"]))
    assert d.mean() == pytest.approx(30.0, rel=1e-12)
    assert d.std() == pytest.approx(7.5, rel=1e-12)


def test_moment_match_gumbel_roundtrip():
    p = moment_match("gumbel", 10.0, 2.0)
    d = stats.gumbel_r(loc=p["loc"], scale=p["scale"])
    assert d.mean() == pytest.approx(10.0, rel=1e-12)
    assert d.std() == pytest.approx(2.0, rel=1e-12)
    # the mode of a max-type Gumbel carries CDF value exp(-1)
    assert d.cdf(p["loc"]) == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_moment_match_rejects_bad_parameters():
    with pytest.raises(ParameterError):
        moment_match("normal", 0.0, -1.0)
    with pytest.raises(ParameterError):
        moment_match("lognormal", -3.0, 1.0)
    with pytest.raises(ParameterError):
        moment_match("weibull", 1.0, 1.0)


def test_truncated_cdf_renormalization():
    m = Marginal(kind="normal", mean=0.0, sd=1.0, truncation=(-1.0, 2.0))
    np.testing.assert_allclose(m.ppf(np.array([0.0, 1.0])), [-1.0, 2.0], atol=1e-12)
    assert m.ppf(0.0) == pytest.approx(-1.0, abs=1e-12)
    assert m.ppf(1.0) == pytest.approx(2.0, abs=1e-12)
    u = np.linspace(0.0, 1.0, 101)
    np.testing.assert_allclose(scipy_cdf(m, m.ppf(u)), u, atol=1e-12)


def test_truncation_validation():
    with pytest.raises(ParameterError):
        Marginal(kind="normal", mean=0.0, sd=1.0, truncation=(2.0, -1.0))
    with pytest.raises(ParameterError):
        Marginal(kind="normal", mean=0.0, sd=1.0, truncation=(50.0, 60.0))


def test_transform_roundtrip_all_kinds():
    model = make_model()
    rng = np.random.default_rng(7)
    u = 0.02 + 0.96 * rng.random((200, model.dim))
    x = model.to_physical(u)
    assert x.shape == u.shape
    for i, m in enumerate(model.marginals):
        np.testing.assert_array_equal(x[:, i], m.ppf(u[:, i]))
        np.testing.assert_allclose(scipy_cdf(m, x[:, i]), u[:, i], atol=1e-9)
    with pytest.raises(DimensionError):
        model.to_physical(u[:, :3])
    with pytest.raises(DimensionError):
        model.to_physical(u[0])
    with pytest.raises(DomainError):
        model.to_physical(np.full((1, model.dim), 1.5))


@pytest.mark.parametrize("column", range(4))
@pytest.mark.parametrize("level", [-1e-12, 1.0 + 1e-12, -math.inf])
def test_to_physical_checks_the_levels_of_every_column(column, level):
    model = make_model()
    u = np.full((5, model.dim), 0.5)
    u[3, column] = level
    with pytest.raises(DomainError):
        model.to_physical(u)
    u[3, column] = math.nan  # passes the check, as in ppf
    x = model.to_physical(u)
    assert math.isnan(x[3, column])
    assert math.isnan(model.marginals[column].ppf(math.nan))


def test_transform_with_truncation():
    model = ProbabilisticModel((
        Marginal(kind="gumbel", mean=10.0, sd=2.0, truncation=(5.0, 19.0)),
    ))
    u = np.linspace(0.001, 0.999, 50)[:, None]
    x = model.to_physical(u)
    assert x.min() >= 5.0
    assert x.max() <= 19.0
    np.testing.assert_allclose(scipy_cdf(model.marginals[0], x[:, 0]), u[:, 0],
                               atol=1e-10)


@pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (-3.2, 7.1), (2.0, 2.5)])
def test_uniform_ppf_bitwise_equals_scipy(lo, hi):
    m = Marginal(kind="uniform", lo=lo, hi=hi)
    u = np.concatenate([[0.0, 1.0, 0.5], np.random.default_rng(3).random(1000)])
    assert m.ppf(u).tobytes() == scipy_dist(m).ppf(u).tobytes()
    assert m.ppf(0.5) == scipy_dist(m).ppf(0.5)
    with pytest.raises(DomainError):
        m.ppf(np.array([0.5, 1.5]))


@pytest.mark.parametrize("marginal", [
    Marginal(kind="normal", mean=2.0, sd=0.5),
    Marginal(kind="lognormal", mean=30.0, sd=7.5),
    Marginal(kind="gumbel", mean=10.0, sd=2.0),
    Marginal(kind="uniform", lo=-3.2, hi=7.1, truncation=(-1.0, 5.0)),
    Marginal(kind="normal", mean=2.0, sd=0.5, truncation=(1.0, 2.9)),
    Marginal(kind="lognormal", mean=30.0, sd=7.5, truncation=(20.0, 60.0)),
    Marginal(kind="gumbel", mean=10.0, sd=2.0, truncation=(5.0, 19.0)),
], ids=lambda m: m.kind + ("-truncated" if m.truncation else ""))
def test_closed_form_ppf_bitwise_equals_scipy(marginal):
    u = np.concatenate([[0.0, 1.0, 0.5], np.random.default_rng(3).random(1000)])
    dist = scipy_dist(marginal)
    levels = u
    if marginal.truncation is not None:
        ua, ub = dist.cdf(marginal.truncation[0]), dist.cdf(marginal.truncation[1])
        levels = ua + u * (ub - ua)
    assert marginal.ppf(u).tobytes() == dist.ppf(levels).tobytes()
    assert marginal.ppf(0.5) == dist.ppf(levels[2])
    with pytest.raises(DomainError):
        marginal.ppf(np.array([0.5, 1.5]))


def registry_truncations():
    """Every truncated marginal of the registry studies, plus edge cases:
    infinite bounds, a lognormal bound at or below 0, uniform bounds past
    the support's ends."""
    cases = [m for name in BENCHMARK_NAMES
             for m in get_benchmark(name, truncated=True).model.marginals
             if m.truncation is not None]
    cases += [
        Marginal(kind="normal", mean=2.0, sd=0.5, truncation=(-math.inf, 2.9)),
        Marginal(kind="normal", mean=2.0, sd=0.5, truncation=(1.0, math.inf)),
        Marginal(kind="gumbel", mean=10.0, sd=2.0, truncation=(-math.inf, math.inf)),
        Marginal(kind="gumbel", mean=10.0, sd=2.0, truncation=(-math.inf, 19.0)),
        Marginal(kind="lognormal", mean=30.0, sd=7.5, truncation=(-1.0, 40.0)),
        Marginal(kind="lognormal", mean=30.0, sd=7.5, truncation=(0.0, math.inf)),
        Marginal(kind="uniform", lo=-3.2, hi=7.1, truncation=(-5.0, 8.0)),
        Marginal(kind="uniform", lo=-3.2, hi=7.1, truncation=(-math.inf, 0.3)),
    ]
    return cases


def test_truncation_levels_bitwise_equal_scipy():
    for m in registry_truncations():
        dist = scipy_dist(m)
        expected = [dist.cdf(bound) for bound in m.truncation]
        assert np.array(m._levels).tobytes() == np.array(expected).tobytes(), m


def test_study_imports_no_scipy_stats(tmp_path):
    # A whole study in a fresh interpreter: the package draws its Sobol
    # points, truncation levels and beta without importing scipy.stats.
    config = {"benchmark": "sobol-m10", "methods": ["mcs", "spce", "sas-hpcfe"],
              "n_train": 800, "p_max": 5, "max_terms": 30,
              "n_mcs": 2000, "hpcfe": {"restarts": 1}}
    cfg_path = tmp_path / "study.json"
    cfg_path.write_text(json.dumps(config))
    script = (
        "import sys\n"
        "from sasrel.cli import main\n"
        f"code = main(['run', '--config', {str(cfg_path)!r}, '--out', "
        f"{str(tmp_path / 'out')!r}, '--seed', '5'])\n"
        "assert code == 0, code\n"
        "assert 'scipy.stats' not in sys.modules, sorted(\n"
        "    m for m in sys.modules if m.startswith('scipy.stats'))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR),
                                                      env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "out" / "results.csv").is_file()


def test_sobol_first_points_frozen():
    np.testing.assert_allclose(
        sobol_points(4, 1).ravel(), [0.5, 0.75, 0.25, 0.375])
    np.testing.assert_allclose(
        sobol_points(3, 3),
        [[0.5, 0.5, 0.5], [0.75, 0.25, 0.25], [0.25, 0.75, 0.75]])
    np.testing.assert_allclose(
        sobol_points(2, 1, skip=2).ravel(), [0.25, 0.375])


def scipy_sobol(n, dim, skip):
    sampler = qmc.Sobol(d=dim, scramble=False)
    sampler.fast_forward(1 + skip)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # n not a power of two
        return sampler.random(n)


@pytest.mark.parametrize("skip", [0, 2, 1100])
@pytest.mark.parametrize("dim", [1, 2, 3, 20, 100, 1000])
def test_sobol_points_bitwise_equal_scipy(dim, skip):
    for n in (1, 2, 7, 4097):
        assert sobol_points(n, dim, skip).tobytes() == scipy_sobol(n, dim, skip).tobytes()


def test_sobol_points_end_of_sequence():
    # In one dimension point k is the bit reversal of its Gray code over 2**30.
    last = sobol_points(2, 1, skip=2**30 - 3).ravel()
    np.testing.assert_array_equal(last, [0.5 + 2.0**-30, 2.0**-30])
    for n, skip in ((2, 2**30 - 2), (2, 2**30), (2**30, 0)):
        with pytest.raises(ParameterError):
            sobol_points(n, 1, skip=skip)
    with pytest.raises(ParameterError):
        sobol_points(2, 1, skip=-1)


def test_sobol_points_open_interval_and_deterministic():
    a = sobol_points(500, 20)
    b = sobol_points(500, 20)
    np.testing.assert_array_equal(a, b)
    assert a.shape == (500, 20)
    assert a.min() > 0.0
    assert a.max() < 1.0


def test_sobol_dimension_limits():
    sobol_points(2, 1000)
    with pytest.raises(ParameterError):
        sobol_points(2, 1001)
    with pytest.raises(ParameterError):
        sobol_points(2, 0)
    with pytest.raises(ParameterError):
        sobol_points(0, 3)


def mc_sample(model, n, seed):
    """``n`` physical-space draws: the seeded stream through the inverse CDFs."""
    return np.vstack([model.to_physical(u) for u in uniform_stream(seed, n, model.dim)])


def test_mc_sample_deterministic_and_prefix_stable():
    model = make_model()
    a = mc_sample(model, 200, seed=42)
    b = mc_sample(model, 200, seed=42)
    np.testing.assert_array_equal(a, b)
    assert a.shape == (200, model.dim)
    half = mc_sample(model, 100, seed=42)
    np.testing.assert_array_equal(a[:100], half)
    c = mc_sample(model, 200, seed=43)
    assert not np.array_equal(a, c)


def test_mc_sample_chunk_boundary_stable():
    model = ProbabilisticModel((Marginal(kind="uniform", lo=0.0, hi=1.0),))
    full = mc_sample(model, SAMPLE_CHUNK + 7, seed=3)
    head = mc_sample(model, SAMPLE_CHUNK, seed=3)
    np.testing.assert_array_equal(full[:SAMPLE_CHUNK], head)
    assert full.shape == (SAMPLE_CHUNK + 7, 1)


@pytest.mark.parametrize("n", [SAMPLE_CHUNK + 7, 3 * SAMPLE_BLOCK + 5])
def test_stream_blocks_concatenate_to_one_draw_per_chunk(n):
    dim = 3
    blocks = list(uniform_stream(11, n, dim))
    assert all(1 <= b.shape[0] <= SAMPLE_BLOCK and b.shape[1] == dim for b in blocks)
    children = np.random.SeedSequence(11).spawn(-(-n // SAMPLE_CHUNK))
    rows = [min(SAMPLE_CHUNK, n - i * SAMPLE_CHUNK) for i in range(len(children))]
    chunks = [np.random.default_rng(child).random((r, dim))
              for r, child in zip(rows, children)]
    assert np.vstack(blocks).tobytes() == np.vstack(chunks).tobytes()


def test_sample_block_is_aligned_and_divides_the_chunk():
    assert SAMPLE_BLOCK & (SAMPLE_BLOCK - 1) == 0  # a power of two
    assert SAMPLE_BLOCK % BLOCK_ROW_ALIGN == 0
    assert SAMPLE_CHUNK % SAMPLE_BLOCK == 0
