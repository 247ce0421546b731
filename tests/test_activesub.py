import json

import numpy as np
import pytest

from sasrel.activesub import (
    ActiveSubspace,
    choose_rank,
    eigendecompose,
    estimate_c,
    fd_cost,
    project,
    subspace_from_surrogate,
)
from sasrel.errors import DimensionError, NumericalError, ParameterError
from sasrel.probspace import sobol_points
from sasrel.spce import fit_lar


def test_constant_gradient_gives_outer_product():
    w = np.array([1.0, -2.0, 0.5])
    samples = np.random.default_rng(0).uniform(-1, 1, size=(40, 3))
    c = estimate_c(lambda x: np.tile(w, (x.shape[0], 1)), samples)
    np.testing.assert_allclose(c, np.outer(w, w), atol=1e-13)
    assert np.linalg.matrix_rank(c) == 1


def test_constant_function_gives_zero_matrix():
    samples = np.random.default_rng(1).uniform(-1, 1, size=(25, 4))
    c = estimate_c(lambda x: np.zeros_like(x), samples)
    np.testing.assert_array_equal(c, 0.0)


def test_ridge_function_is_numerically_rank_one():
    rng = np.random.default_rng(2)
    w = rng.standard_normal(10)
    w /= np.linalg.norm(w)

    def grad(x):
        # f(x) = sin(w.x) so grad f = cos(w.x) w
        return np.cos(x @ w)[:, None] * w

    samples = 2.0 * sobol_points(500, 10) - 1.0
    c = estimate_c(grad, samples)
    vec, lam = eigendecompose(c)
    assert lam[1] / lam[0] <= 1e-10
    cosine = abs(vec[:, 0] @ w)
    assert cosine == pytest.approx(1.0, abs=1e-10)


def test_estimate_c_flags_nonfinite_gradient():
    samples = np.zeros((10, 2))

    def grad(x):
        g = np.ones_like(x)
        g[-1, 0] = np.nan
        return g

    with pytest.raises(NumericalError, match="sample 9"):
        estimate_c(grad, samples)


def test_eigendecompose_diagonal():
    vec, lam = eigendecompose(np.diag([3.0, 1.0]))
    np.testing.assert_allclose(lam, [3.0, 1.0])
    np.testing.assert_allclose(vec, np.eye(2))


def test_eigendecompose_rank_one_closed_form():
    w = np.array([1.0, 1.0]) / np.sqrt(2.0)
    vec, lam = eigendecompose(np.outer(w, w))
    assert lam[0] == pytest.approx(1.0, rel=1e-12)
    assert lam[1] == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(vec[:, 0], w, atol=1e-12)


def test_eigendecompose_reconstruction():
    rng = np.random.default_rng(3)
    g = rng.standard_normal((50, 6))
    c = g.T @ g / 50
    vec, lam = eigendecompose(c)
    err = np.linalg.norm(vec @ np.diag(lam) @ vec.T - c)
    assert err <= 1e-10 * np.linalg.norm(c)


def test_eigendecompose_rejects_asymmetric():
    with pytest.raises(ParameterError):
        eigendecompose(np.array([[1.0, 0.5], [0.1, 1.0]]))


def test_estimated_c_is_psd():
    rng = np.random.default_rng(4)

    def grad(x):
        return np.cos(3 * x) + 0.5 * x**2

    samples = rng.uniform(-1, 1, size=(300, 8))
    c = estimate_c(grad, samples)
    lam = np.linalg.eigvalsh(c)
    assert lam.min() >= -1e-10 * np.trace(c)


def test_additive_function_eigenvalue_count():
    # f = sum of k nonconstant univariate terms -> exactly k active directions
    k, dim = 3, 7

    def grad(x):
        g = np.zeros_like(x)
        g[:, :k] = np.cos(x[:, :k]) + 1.5
        return g

    samples = 2.0 * sobol_points(400, dim) - 1.0
    c = estimate_c(grad, samples)
    _, lam = eigendecompose(c)
    assert int(np.sum(lam > 1e-8 * lam[0])) == k


def test_choose_rank_arithmetic():
    assert choose_rank(np.array([10.0, 0.1, 0.01]), 0.98) == 1
    assert choose_rank(np.array([1.0, 1.0, 0.0, 0.0]), 0.98) == 2
    assert choose_rank(np.array([1.0, 1.0]), 0.5) == 1


def test_choose_rank_validation():
    with pytest.raises(ParameterError):
        choose_rank(np.array([1.0, 0.5]), 1.0)
    with pytest.raises(ParameterError):
        choose_rank(np.array([0.0, 0.0]), 0.9)
    with pytest.raises(ParameterError):
        choose_rank(np.array([0.5, 1.0]), 0.9)


def test_choose_rank_monotone_in_mu():
    rng = np.random.default_rng(5)
    for _ in range(20):
        lam = np.sort(rng.exponential(size=8))[::-1]
        ranks = [choose_rank(lam, mu) for mu in (0.5, 0.7, 0.9, 0.98, 0.999)]
        assert all(a <= b for a, b in zip(ranks, ranks[1:]))


def test_project_identity_columns():
    w1 = np.eye(5)[:, :2]
    x = np.arange(5.0)
    np.testing.assert_array_equal(project(w1, x), [0.0, 1.0])
    batch = np.arange(10.0).reshape(2, 5)
    np.testing.assert_array_equal(project(w1, batch), batch[:, :2])


def test_projection_contracts_and_projector_idempotent():
    rng = np.random.default_rng(6)
    q, _ = np.linalg.qr(rng.standard_normal((9, 4)))
    for x in rng.standard_normal((100, 9)):
        assert np.linalg.norm(project(q, x)) <= np.linalg.norm(x) + 1e-12
    p = q @ q.T
    assert np.abs(p @ p - p).max() <= 1e-10


def test_fd_cost_formula():
    assert fd_cost(10, 100) == 1100
    assert fd_cost(100, 100) == 10100
    assert fd_cost(40, 50) == 2050
    with pytest.raises(ParameterError):
        fd_cost(0, 10)


def test_active_subspace_validation_and_json():
    lam = np.array([2.0, 1.0, 0.0])
    w1 = np.eye(3)[:, :2]
    sub = ActiveSubspace(eigenvalues=lam, w1=w1, r=2, mu=0.9, n_grad_samples=30)
    d = json.loads(sub.to_json())
    assert d["eigenvalues"] == lam.tolist()
    assert d["W1"] == w1.tolist()
    assert d["r"] == 2 and d["mu"] == 0.9 and d["n_grad_samples"] == 30
    twin = ActiveSubspace(eigenvalues=lam, w1=w1, r=2, mu=0.9, n_grad_samples=30)
    assert (sub == twin) is False and sub == sub  # equality is identity
    assert len({sub, twin, sub}) == 2

    with pytest.raises(ParameterError):
        ActiveSubspace(eigenvalues=lam, w1=np.ones((3, 2)), r=2, mu=0.9,
                       n_grad_samples=30)
    with pytest.raises(DimensionError):
        ActiveSubspace(eigenvalues=lam, w1=w1, r=3, mu=0.9, n_grad_samples=30)


def test_subspace_from_surrogate_ridge_round_trip():
    # a ridge response is recovered as a 1-D subspace, and a surrogate refit
    # in the reduced coordinate reproduces the response
    rng = np.random.default_rng(7)
    w = np.array([3.0, -1.0, 2.0, 0.5, 0.0, 0.0]) / np.linalg.norm(
        [3.0, -1.0, 2.0, 0.5, 0.0, 0.0])
    xi = 2.0 * sobol_points(200, 6) - 1.0
    y = (xi @ w) ** 3 + 2.0 * (xi @ w)
    surrogate = fit_lar(xi, y, p_max=3)
    sub = subspace_from_surrogate(surrogate, mu=0.98, skip=200)
    assert sub.r == 1
    assert abs(sub.w1[:, 0] @ w) == pytest.approx(1.0, abs=1e-6)
    # reduced coordinates span wider than [-1, 1]; rescale before refitting
    z = sub.project(xi)
    zs = 2.0 * (z - z.min(0)) / np.ptp(z, axis=0) - 1.0
    refit = fit_lar(zs, y, p_max=5)
    assert refit.loo <= 1e-6
    train_err = np.max(np.abs(refit.predict(zs) - y))
    assert train_err <= 1e-6 * np.abs(y).max()
