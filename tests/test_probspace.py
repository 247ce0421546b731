import math

import numpy as np
import pytest

from sasrel.errors import DomainError, ParameterError
from sasrel.probspace import (
    SAMPLE_CHUNK,
    Marginal,
    ProbabilisticModel,
    SampleMatrix,
    Space,
    mc_sample,
    moment_match,
    sobol_points,
    transform,
)


def make_model():
    return ProbabilisticModel((
        Marginal(kind="uniform", lo=0.0, hi=1.0, name="x1"),
        Marginal(kind="normal", mean=2.0, sd=0.5, name="x2"),
        Marginal(kind="lognormal", mean=30.0, sd=7.5, name="x3"),
        Marginal(kind="gumbel", mean=10.0, sd=2.0, name="x4"),
    ))


def test_moment_match_lognormal_roundtrip():
    from scipy import stats

    p = moment_match("lognormal", 30.0, 7.5)
    d = stats.lognorm(s=p["sigma"], scale=math.exp(p["mu"]))
    assert d.mean() == pytest.approx(30.0, rel=1e-12)
    assert d.std() == pytest.approx(7.5, rel=1e-12)


def test_moment_match_gumbel_roundtrip():
    from scipy import stats

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
    assert m.cdf(-1.0) == pytest.approx(0.0, abs=1e-15)
    assert m.cdf(2.0) == pytest.approx(1.0, abs=1e-15)
    assert m.ppf(0.0) == pytest.approx(-1.0, abs=1e-12)
    assert m.ppf(1.0) == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(DomainError):
        m.cdf(2.5)


def test_truncation_validation():
    with pytest.raises(ParameterError):
        Marginal(kind="normal", mean=0.0, sd=1.0, truncation=(2.0, -1.0))
    with pytest.raises(ParameterError):
        Marginal(kind="normal", mean=0.0, sd=1.0, truncation=(50.0, 60.0))


def test_transform_roundtrip_all_kinds():
    model = make_model()
    rng = np.random.default_rng(7)
    u = SampleMatrix(0.02 + 0.96 * rng.random((200, model.dim)), Space.STD_UNIFORM)
    x = transform(u, Space.PHYSICAL, model)
    assert x.space is Space.PHYSICAL
    xi = transform(x, Space.STD_LEGENDRE, model)
    assert xi.space is Space.STD_LEGENDRE
    np.testing.assert_allclose(xi.values, 2.0 * u.values - 1.0, atol=1e-9)
    back = transform(xi, Space.PHYSICAL, model)
    np.testing.assert_allclose(back.values, x.values, rtol=1e-9, atol=1e-9)


def test_transform_with_truncation():
    model = ProbabilisticModel((
        Marginal(kind="gumbel", mean=10.0, sd=2.0, truncation=(5.0, 19.0)),
    ))
    u = SampleMatrix(np.linspace(0.001, 0.999, 50)[:, None], Space.STD_UNIFORM)
    x = transform(u, Space.PHYSICAL, model)
    assert x.values.min() >= 5.0
    assert x.values.max() <= 19.0
    u2 = transform(x, Space.STD_UNIFORM, model)
    np.testing.assert_allclose(u2.values, u.values, atol=1e-10)


def test_sample_matrix_validation():
    with pytest.raises(DomainError):
        SampleMatrix(np.array([[0.0, 0.5]]), Space.STD_UNIFORM)
    with pytest.raises(DomainError):
        SampleMatrix(np.array([[1.5, 0.0]]), Space.STD_LEGENDRE)
    from sasrel.errors import DimensionError

    with pytest.raises(DimensionError):
        SampleMatrix(np.zeros(4), Space.PHYSICAL)


def test_sobol_first_points_frozen():
    np.testing.assert_allclose(
        sobol_points(4, 1).values.ravel(), [0.5, 0.75, 0.25, 0.375])
    np.testing.assert_allclose(
        sobol_points(3, 3).values,
        [[0.5, 0.5, 0.5], [0.75, 0.25, 0.25], [0.25, 0.75, 0.75]])
    np.testing.assert_allclose(
        sobol_points(2, 1, skip=2).values.ravel(), [0.25, 0.375])


def test_sobol_points_open_interval_and_deterministic():
    a = sobol_points(500, 20)
    b = sobol_points(500, 20)
    np.testing.assert_array_equal(a.values, b.values)
    assert a.values.min() > 0.0
    assert a.values.max() < 1.0
    assert a.space is Space.STD_UNIFORM


def test_sobol_dimension_limits():
    sobol_points(2, 1000)
    with pytest.raises(ParameterError):
        sobol_points(2, 1001)
    with pytest.raises(ParameterError):
        sobol_points(2, 0)
    with pytest.raises(ParameterError):
        sobol_points(0, 3)


def test_mc_sample_deterministic_and_prefix_stable():
    model = make_model()
    a = mc_sample(model, 200, seed=42)
    b = mc_sample(model, 200, seed=42)
    np.testing.assert_array_equal(a.values, b.values)
    assert a.space is Space.PHYSICAL
    half = mc_sample(model, 100, seed=42)
    np.testing.assert_array_equal(a.values[:100], half.values)
    c = mc_sample(model, 200, seed=43)
    assert not np.array_equal(a.values, c.values)


def test_mc_sample_chunk_boundary_stable():
    model = ProbabilisticModel((Marginal(kind="uniform", lo=0.0, hi=1.0),))
    full = mc_sample(model, SAMPLE_CHUNK + 7, seed=3)
    head = mc_sample(model, SAMPLE_CHUNK, seed=3)
    np.testing.assert_array_equal(full.values[:SAMPLE_CHUNK], head.values)
    assert full.n == SAMPLE_CHUNK + 7


def test_model_json_roundtrip():
    model = ProbabilisticModel((
        Marginal(kind="uniform", lo=-2.0, hi=3.0, name="a"),
        Marginal(kind="lognormal", mean=30.0, sd=7.5, truncation=(10.0, 60.0), name="b"),
    ))
    text = model.to_json()
    again = ProbabilisticModel.from_json(text)
    assert again == model
    assert again.marginals[1].truncation == (10.0, 60.0)
