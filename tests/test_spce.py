import json
import math

import numpy as np
import pytest

from sasrel.errors import DimensionError, ParameterError
from sasrel.polybasis import BasisSet, eval_design_matrix
from sasrel.probspace import sobol_points
from sasrel.spce import SparsePceModel, fit_lar, lar_path, loo_error


def std_doe(n, dim):
    return 2.0 * sobol_points(n, dim).values - 1.0


def test_linear_response_recovers_single_term():
    xi = std_doe(50, 5)
    y = 2.0 + 3.0 * xi[:, 0]
    model = fit_lar(xi, y, p_max=3)
    assert model.n_active == 1
    assert model.indices.tolist() == [[1, 0, 0, 0, 0]]
    # psi_1 = sqrt(3) t, so the orthonormal-scale coefficient is 3/sqrt(3)
    assert model.coefficients[0] == pytest.approx(math.sqrt(3.0), rel=1e-10)
    assert model.intercept == pytest.approx(2.0, rel=1e-10)
    assert model.loo <= 1e-12


def test_constant_response():
    xi = std_doe(30, 4)
    model = fit_lar(xi, np.full(30, 7.5), p_max=2)
    assert model.n_active == 0
    assert model.intercept == pytest.approx(7.5)
    assert model.loo == 0.0
    np.testing.assert_allclose(model.predict(xi), 7.5)
    np.testing.assert_array_equal(model.gradient(xi[:3]), 0.0)


def test_two_term_synthetic_exact_recovery():
    xi = std_doe(100, 2)
    basis = BasisSet.total_degree(2, 3)
    phi = eval_design_matrix(basis, xi)
    idx = basis.indices.tolist()
    y = 5.0 * phi[:, idx.index([2, 0])] + 0.5 * phi[:, idx.index([0, 1])]
    model = fit_lar(xi, y, p_max=3)
    assert sorted(model.indices.tolist()) == [[0, 1], [2, 0]]
    by_index = {tuple(i): c for i, c in zip(model.indices.tolist(), model.coefficients)}
    assert by_index[(2, 0)] == pytest.approx(5.0, abs=1e-8)
    assert by_index[(0, 1)] == pytest.approx(0.5, abs=1e-8)
    assert abs(model.intercept) <= 1e-8


def test_predict_linear_value_and_r2():
    xi = std_doe(50, 5)
    y = 2.0 + 3.0 * xi[:, 0]
    model = fit_lar(xi, y, p_max=3)
    probe = np.zeros(5)
    probe[0] = 1.0
    assert model.predict(probe)[0] == pytest.approx(5.0, rel=1e-9)
    pred = model.predict(xi)
    ss_res = np.sum((y - pred) ** 2)
    ss_tot = np.sum((y - y.mean()) ** 2)
    assert 1.0 - ss_res / ss_tot >= 1.0 - 1e-10


def test_gradient_linear_and_fd():
    xi = std_doe(50, 5)
    model = fit_lar(xi, 2.0 + 3.0 * xi[:, 0], p_max=3)
    g = model.gradient(np.zeros((1, 5)))[0]
    np.testing.assert_allclose(g, [3.0, 0, 0, 0, 0], atol=1e-9)


def test_gradient_matches_fd_on_random_sparse_model():
    rng = np.random.default_rng(5)
    basis = BasisSet.total_degree(4, 4)
    rows = rng.choice(np.arange(1, basis.cardinality), size=9, replace=False)
    model = SparsePceModel(dim=4, p_max=4, indices=basis.indices[rows],
                           coefficients=rng.uniform(-2, 2, size=9),
                           intercept=0.3, loo=0.0)
    pts = rng.uniform(-0.9, 0.9, size=(100, 4))
    grad = model.gradient(pts)
    h = 1e-6
    scale = max(1.0, np.abs(grad).max())
    for e in range(4):
        step = np.zeros(4)
        step[e] = h
        fd = (model.predict(pts + step) - model.predict(pts - step)) / (2 * h)
        assert np.max(np.abs(grad[:, e] - fd)) / scale <= 1e-5


def test_loo_noiseless_linear_near_zero():
    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, size=(30, 1))
    M = np.column_stack([np.ones(30), x[:, 0]])
    y = 1.0 + 2.0 * x[:, 0]
    assert loo_error(M, y) <= 1e-20


def test_loo_pure_noise_vs_constant_near_one():
    rng = np.random.default_rng(1)
    y = rng.standard_normal(400)
    err = loo_error(np.ones((400, 1)), y)
    assert err == pytest.approx(1.0, abs=0.05)


def test_loo_matches_brute_force_refits():
    rng = np.random.default_rng(2)
    x = rng.uniform(-1, 1, size=(20, 2))
    M = np.column_stack([np.ones(20), x[:, 0], x[:, 1], x[:, 0] * x[:, 1]])
    y = M @ np.array([0.5, 1.0, -2.0, 0.7]) + 0.3 * rng.standard_normal(20)
    errs = np.empty(20)
    for i in range(20):
        keep = np.arange(20) != i
        coef, *_ = np.linalg.lstsq(M[keep], y[keep], rcond=None)
        errs[i] = y[i] - M[i] @ coef
    n, p = M.shape
    correction = n / (n - p) * (1.0 + np.trace(np.linalg.inv(M.T @ M)))
    brute = np.sum(errs**2) / np.sum((y - y.mean()) ** 2) * correction
    assert loo_error(M, y) == pytest.approx(brute, rel=1e-10)


def test_loo_interpolating_design_is_infinite():
    rng = np.random.default_rng(3)
    M = np.column_stack([np.ones(4), rng.standard_normal((4, 3))])
    assert loo_error(M, rng.standard_normal(4)) == math.inf


def test_lar_equicorrelation_along_path():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((60, 25))
    X -= X.mean(axis=0)
    X /= np.linalg.norm(X, axis=0)
    beta = np.zeros(25)
    beta[[2, 7, 11, 19]] = [3.0, -2.0, 1.5, 0.8]
    y = X @ beta + 0.05 * rng.standard_normal(60)
    y -= y.mean()
    active = []
    for col, resid in lar_path(X, y, max_steps=12, record_residuals=True):
        active.append(col)
        c = np.abs(X.T @ resid)
        c_active = c[active]
        assert np.ptp(c_active) <= 1e-8
        inactive = np.setdiff1d(np.arange(25), active)
        assert c[inactive].max() <= c_active.max() + 1e-8


def test_exact_sparse_recovery_property():
    rng = np.random.default_rng(6)
    dim, k = 6, 5
    basis = BasisSet.total_degree(dim, 3)
    rows = rng.choice(np.arange(1, basis.cardinality), size=k, replace=False)
    coefs = rng.uniform(0.5, 5.0, size=k) * rng.choice([-1.0, 1.0], size=k)
    xi = std_doe(10 * k + 10, dim)
    y = eval_design_matrix(basis.subset(rows), xi) @ coefs
    model = fit_lar(xi, y, p_max=3)
    assert sorted(map(tuple, model.indices.tolist())) == \
        sorted(map(tuple, basis.indices[rows].tolist()))
    np.testing.assert_allclose(np.sort(model.coefficients), np.sort(coefs), atol=1e-8)


def test_fit_is_deterministic():
    rng = np.random.default_rng(8)
    xi = rng.uniform(-1, 1, size=(80, 3))
    y = np.sin(2 * xi[:, 0]) + 0.2 * xi[:, 1] ** 2 + 0.01 * rng.standard_normal(80)
    a = fit_lar(xi, y, p_max=4)
    b = fit_lar(xi, y, p_max=4)
    assert a.indices.tolist() == b.indices.tolist()
    np.testing.assert_array_equal(a.coefficients, b.coefficients)
    assert a.intercept == b.intercept and a.loo == b.loo


def test_max_terms_and_patience_cap_path():
    rng = np.random.default_rng(9)
    xi = rng.uniform(-1, 1, size=(120, 4))
    y = np.sin(3 * xi[:, 0]) * np.cos(2 * xi[:, 1]) + 0.05 * rng.standard_normal(120)
    capped = fit_lar(xi, y, p_max=5, max_terms=6)
    assert capped.n_active <= 6


def test_validation_errors():
    xi = np.zeros((2, 3))
    with pytest.raises(ParameterError):
        fit_lar(xi, np.zeros(2), p_max=2)
    with pytest.raises(ParameterError):
        fit_lar(np.zeros((5, 3)), np.array([1, 2, np.nan, 4, 5.0]), p_max=2)
    with pytest.raises(ParameterError):
        fit_lar(np.zeros((5, 3)), np.ones(5), p_max=0)
    with pytest.raises(DimensionError):
        fit_lar(np.zeros((5, 3)), np.ones(4), p_max=2)
    with pytest.raises(ParameterError):
        # candidate set would not fit in memory
        fit_lar(np.zeros((1000, 100)), np.ones(1000), p_max=5)


def test_json_roundtrip():
    xi = std_doe(60, 3)
    y = 1.0 + xi[:, 0] * xi[:, 1] + 0.5 * xi[:, 2]
    model = fit_lar(xi, y, p_max=3)
    again = SparsePceModel.from_json(model.to_json())
    assert again.indices.tolist() == model.indices.tolist()
    np.testing.assert_allclose(again.coefficients, model.coefficients)
    assert again.intercept == model.intercept
    assert json.loads(model.to_json())["p_max"] == 3
    probe = std_doe(10, 3)
    np.testing.assert_allclose(again.predict(probe), model.predict(probe))
