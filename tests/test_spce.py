import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.linalg import cho_solve, solve_triangular

from sasrel import polybasis, spce
from sasrel.errors import DimensionError, ParameterError
from sasrel.polybasis import (
    BasisSet,
    basis_cardinality,
    eval_design_matrix,
    total_degree_indices,
)
from sasrel.probspace import sobol_points
from sasrel.spce import SparsePceModel, _IncrementalOls, fit_lar, lar_path


def std_doe(n, dim):
    return 2.0 * sobol_points(n, dim) - 1.0


def loo_error(M, y):
    """Corrected LOO of the OLS fit of y on M, whose first column is constant."""
    ols = _IncrementalOls(y, M.shape[1] - 1)
    for v in M[:, 1:].T:
        assert ols.add(v)
    return ols.loo()


def brute_force_loo(M, y):
    """Corrected LOO from n refits, each leaving one point out."""
    n, p = M.shape
    errs = np.empty(n)
    for i in range(n):
        keep = np.arange(n) != i
        coef, *_ = np.linalg.lstsq(M[keep], y[keep], rcond=None)
        errs[i] = y[i] - M[i] @ coef
    correction = n / (n - p) * (1.0 + np.trace(np.linalg.inv(M.T @ M)))
    return np.sum(errs**2) / np.sum((y - y.mean()) ** 2) * correction


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


def test_blocked_prediction_equals_one_block(monkeypatch):
    rng = np.random.default_rng(3)
    idx = np.array([[1, 0, 0], [0, 2, 0], [1, 1, 1], [0, 0, 4], [3, 0, 1]])
    model = SparsePceModel(dim=3, p_max=4, indices=idx,
                           coefficients=rng.standard_normal(5), intercept=0.3, loo=0.0)
    probe = rng.uniform(-1, 1, size=(1000, 3))
    cases = (probe, probe[:0], probe[:1], probe[0])

    monkeypatch.setattr(polybasis, "BLOCK_BYTES", 2**40)
    one_block = [model.predict(p) for p in cases]

    block_rows = []
    design = spce.eval_design_matrix

    def counted(basis, points):
        block_rows.append(points.shape[0])
        return design(basis, points)

    monkeypatch.setattr(spce, "eval_design_matrix", counted)
    # 200 rows of 5 design entries fit the budget; blocks round down to 128 = 2**7 rows
    monkeypatch.setattr(polybasis, "BLOCK_BYTES", 8 * 5 * 200)
    for p, expected in zip(cases, one_block):
        assert model.predict(p).tobytes() == expected.tobytes()
    assert [out.shape for out in one_block] == [(1000,), (0,), (1,), (1,)]
    block_rows.clear()
    model.predict(probe)
    assert block_rows == [128] * 7 + [104]


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
    brute = brute_force_loo(M, y)
    assert loo_error(M, y) == pytest.approx(brute, rel=1e-10)


def test_loo_interpolating_design_is_infinite():
    rng = np.random.default_rng(3)
    M = np.column_stack([np.ones(4), rng.standard_normal((4, 3))])
    assert loo_error(M, rng.standard_normal(4)) == math.inf


def test_fit_loo_is_brute_force_loo_of_returned_model():
    # the stored score is the refit the selection compared, on the model's
    # own columns: check it against n leave-one-out refits
    rng = np.random.default_rng(10)
    xi = std_doe(60, 3)
    y = np.sin(2 * xi[:, 0]) + xi[:, 1] * xi[:, 2] + 0.05 * rng.standard_normal(60)
    model = fit_lar(xi, y, p_max=3)
    assert 0 < model.n_active < 19
    M = np.column_stack([np.ones(60), eval_design_matrix(model.basis, xi)])
    assert model.loo == pytest.approx(brute_force_loo(M, y), rel=1e-10)
    coef, *_ = np.linalg.lstsq(M, y, rcond=None)
    np.testing.assert_allclose(model.coefficients, coef[1:], rtol=1e-10)
    assert model.intercept == pytest.approx(coef[0], rel=1e-10)


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
    # X is already centered and unit-norm, so it is its own raw design
    for col, resid in lar_path(X, np.ones(25), X, _IncrementalOls(y, 12)):
        active.append(col)
        c = np.abs(X.T @ resid)
        c_active = c[active]
        assert np.ptp(c_active) <= 1e-8
        inactive = np.setdiff1d(np.arange(25), active)
        assert c[inactive].max() <= c_active.max() + 1e-8
    assert len(active) == 12


def cholesky_lar(X, y, max_steps):
    """Textbook LAR (Efron et al. 2004) over centered unit-norm columns.

    Grows a Cholesky factor of the active Gram matrix and skips a candidate
    whose squared distance from the active span is at most 1e-12.
    """
    resid = y.copy()
    scale = max(1.0, float(np.linalg.norm(y)))
    active = []
    excluded = np.zeros(X.shape[1], dtype=bool)
    chol = np.ones((1, 1))
    while len(active) < max_steps and not excluded.all():
        c = X.T @ resid
        cmag = np.abs(c)
        cmag[excluded] = -1.0
        j = int(np.argmax(cmag))
        if cmag[j] <= 1e-12 * scale:
            break
        excluded[j] = True
        if active:
            a = solve_triangular(chol, X[:, active].T @ X[:, j], lower=True)
            d2 = 1.0 - a @ a
            if d2 <= 1e-12:
                continue
            k = len(active)
            chol = np.block([[chol, np.zeros((k, 1))], [a[None, :], math.sqrt(d2)]])
        active.append(j)
        s = np.sign(c[active])
        big_c = np.abs(c[active]).max()
        w = cho_solve((chol, True), s)
        aa = 1.0 / math.sqrt(s @ w)
        u = X[:, active] @ (aa * w)
        corr_u = X.T @ u
        free = ~excluded
        with np.errstate(divide="ignore", invalid="ignore"):
            cand = np.concatenate([(big_c - c[free]) / (aa - corr_u[free]),
                                   (big_c + c[free]) / (aa + corr_u[free])])
        cand = cand[np.isfinite(cand) & (cand > 1e-12)]
        gamma = min([big_c / aa, *cand])
        resid = resid - gamma * u
        yield j, resid


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_qr_lar_path_matches_cholesky_lar(seed):
    rng = np.random.default_rng(seed)
    n, m = 50, 30
    raw = rng.uniform(-1.0, 1.0, size=(n, m)) + rng.uniform(-2.0, 2.0, size=m)
    raw[:, 9] = raw[:, 4]  # duplicates an earlier column
    raw[:, 21] = 2.0 * raw[:, 3] - raw[:, 15] + 1.0  # dependent once centered
    y = raw[:, [3, 4, 15, 20]] @ rng.uniform(1.0, 3.0, size=4)
    y += 0.1 * rng.standard_normal(n)
    norms = np.linalg.norm(raw - raw.mean(axis=0), axis=0)
    X = (raw - raw.mean(axis=0)) / norms

    path = list(lar_path(X, norms, raw, _IncrementalOls(y, m)))
    oracle = list(cholesky_lar(X, y - y.mean(), m))
    assert [col for col, _ in path] == [col for col, _ in oracle]
    # both dependent candidates are skipped and every other column joins
    assert sorted(col for col, _ in path) == sorted(set(range(m)) - {9, 21})
    for (_, r_qr), (_, r_oracle) in zip(path, oracle):
        np.testing.assert_allclose(r_qr, r_oracle, rtol=0.0, atol=1e-10)


def test_fit_continues_past_dependent_candidates(monkeypatch):
    # coordinate 1 copies coordinate 0: every candidate in x1 lies in the span
    # of the candidates in x0, x2 and x3 alone (19 besides the constant)
    xi = std_doe(80, 4)
    xi[:, 1] = xi[:, 0]
    y = np.sin(2.0 * xi[:, 0]) + xi[:, 2] * xi[:, 3] + 0.5 * xi[:, 2] ** 2
    joined = []
    path = spce.lar_path

    def recorded(*args, **kwargs):
        for col, resid in path(*args, **kwargs):
            joined.append(col)
            yield col, resid

    monkeypatch.setattr(spce, "lar_path", recorded)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        model = fit_lar(xi, y, p_max=3)
    basis = BasisSet(BasisSet.total_degree(4, 3).indices[1 + np.asarray(joined)])
    design = eval_design_matrix(basis, xi)
    assert len(joined) == 19
    assert np.linalg.matrix_rank(np.column_stack([np.ones(80), design])) == 20
    M = np.column_stack([np.ones(80), eval_design_matrix(model.basis, xi)])
    assert model.n_active > 0
    assert model.loo == pytest.approx(brute_force_loo(M, y), rel=1e-10)


def test_exact_sparse_recovery_property():
    rng = np.random.default_rng(6)
    dim, k = 6, 5
    basis = BasisSet.total_degree(dim, 3)
    rows = rng.choice(np.arange(1, basis.cardinality), size=k, replace=False)
    coefs = rng.uniform(0.5, 5.0, size=k) * rng.choice([-1.0, 1.0], size=k)
    xi = std_doe(10 * k + 10, dim)
    y = eval_design_matrix(BasisSet(basis.indices[rows]), xi) @ coefs
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
    assert (a == b) is False and a == a  # equality is identity
    assert len({a, b, a}) == 2


def test_max_terms_and_patience_cap_path():
    rng = np.random.default_rng(9)
    xi = rng.uniform(-1, 1, size=(120, 4))
    y = np.sin(3 * xi[:, 0]) * np.cos(2 * xi[:, 1]) + 0.05 * rng.standard_normal(120)
    capped = fit_lar(xi, y, p_max=5, max_terms=6)
    assert capped.n_active <= 6


def test_fit_peak_memory_is_a_few_designs():
    # the fit keeps two design-sized arrays, the candidate design and its
    # regressors; the transpose copy while the design is built adds less
    # than one more, and the column norms make no design-sized temporary
    n, dim, p_max = 300, 10, 4
    xi = std_doe(n, dim)
    y = np.sin(xi[:, 0]) + xi[:, 1] * xi[:, 2] + 0.1 * xi[:, 3] ** 3
    tracemalloc.start()
    try:
        fit_lar(xi, y, p_max=p_max, max_terms=50)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * 8 * n * basis_cardinality(dim, p_max)


def test_gradient_peak_memory_is_a_few_designs():
    # gfun-m100's shape: 1000 gradient points, dim 100, 50 terms of total
    # degree <= 2.  The gradient is one design of the derived basis (each
    # term with one exponent lowered by 1) times its coefficient matrix; the
    # design kernel holds the transposed points, a two-row value table per
    # coordinate and the design with its transposed copy, and the result is
    # (n, dim).  The (n, terms, dim) tensor of every term's gradient would be
    # 8 * 1000 * 50 * 100 = 40 MB.
    n, dim = 1000, 100
    rng = np.random.default_rng(8)
    candidates = total_degree_indices(dim, 2)
    indices = candidates[np.sort(rng.choice(np.arange(1, len(candidates)), 50,
                                            replace=False))]
    model = SparsePceModel(dim=dim, p_max=2, indices=indices,
                           coefficients=rng.uniform(-1.0, 1.0, 50), intercept=0.0,
                           loo=0.0)
    pts = rng.uniform(-1.0, 1.0, (n, dim))
    unit = np.eye(dim, dtype=np.int64)
    derived = {tuple(a - unit[e]) for a in indices for e in np.flatnonzero(a)}
    model.gradient(pts[:2])  # one-time allocations outside the kernel
    tracemalloc.start()
    try:
        model.gradient(pts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 * 8 * n * len(derived)


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
    d = json.loads(model.to_json())
    assert d["dim"] == 3 and d["p_max"] == 3
    assert d["active_indices"] == model.indices.tolist()
    assert d["coefficients"] == model.coefficients.tolist()
    assert d["intercept"] == model.intercept
    assert d["loo_error"] == model.loo
