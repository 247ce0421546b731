import dataclasses
import itertools
import math
import multiprocessing
import os

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from sasrel import hpcfe, parallel, polybasis
from sasrel.errors import DimensionError, NumericalError, ParameterError
from sasrel.hpcfe import (
    THETA_BOUNDS,
    HpcfeConfig,
    build_design_matrix,
    correlation_matrix,
    fit,
    fit_fixed_theta,
    homotopy_solve,
)
from sasrel.polybasis import BasisSet, eval_design_matrix
from sasrel.probspace import SAMPLE_BLOCK, SAMPLE_CHUNK
from sasrel.spce import SparsePceModel


def small_config(**kw):
    base = dict(restarts=2, nm_max_evals=40)
    base.update(kw)
    return HpcfeConfig(**base)


def fit_at_bound(z, y, config):
    """``fit`` on data whose likelihood optimum lies at a length-scale bound."""
    with pytest.warns(RuntimeWarning, match="optimization bound"):
        return fit(z, y, config)


def test_config_validation():
    with pytest.raises(ParameterError):
        HpcfeConfig(M=0)
    with pytest.raises(ParameterError):
        HpcfeConfig(nugget=0.0)
    for cap in (0, -5):
        with pytest.raises(ParameterError):
            HpcfeConfig(nm_max_evals=cap)
    assert HpcfeConfig(nm_max_evals=1).nm_max_evals == 1


def test_design_matrix_univariate_count():
    z = np.linspace(-1, 1, 5)[:, None]
    psi, basis_map = build_design_matrix(z, HpcfeConfig(M=1, b=2))
    assert basis_map.tolist() == [[1], [2]]
    assert psi.shape == (5, 2)


def test_design_matrix_two_dim_count_and_dedup():
    z = np.random.default_rng(0).uniform(-1, 1, size=(6, 2))
    psi, basis_map = build_design_matrix(z, HpcfeConfig(M=2, b=2))
    # 2*b univariate columns plus b^2 genuinely bivariate products
    assert psi.shape == (6, 8)
    rows = list(map(tuple, basis_map.tolist()))
    assert len(rows) == len(set(rows))  # component sets are disjoint
    assert (0, 0) not in rows
    totals = [sum(r) for r in rows]
    assert totals == sorted(totals)  # canonical graded order


@pytest.mark.parametrize("r, M, b", [(1, 1, 2), (2, 2, 3), (3, 1, 4), (3, 2, 5),
                                     (4, 3, 3), (5, 5, 2)])
def test_design_matrix_basis_map_matches_brute_force(r, M, b):
    z = np.random.default_rng(2).uniform(-1, 1, size=(4, r))
    _, basis_map = build_design_matrix(z, HpcfeConfig(M=M, b=b))
    brute = [a for a in itertools.product(range(b + 1), repeat=r)
             if 1 <= np.count_nonzero(a) <= M]
    brute.sort(key=lambda a: (sum(a), tuple(-x for x in a)))
    np.testing.assert_array_equal(basis_map, np.asarray(brute))


def test_correlation_matrix_formula():
    rng = np.random.default_rng(1)
    z = rng.uniform(-1, 1, size=(5, 3))
    theta = np.array([0.5, 2.0, 1.3])
    r = correlation_matrix(z, theta, nugget=0.0)
    brute = np.empty((5, 5))
    for i in range(5):
        for j in range(5):
            brute[i, j] = math.exp(-float(theta @ (z[i] - z[j]) ** 2))
    np.testing.assert_allclose(r, brute, atol=1e-14)
    np.testing.assert_allclose(np.diag(r), 1.0)


def test_correlation_decay_and_validation():
    z = np.array([[0.0], [100.0]])
    r = correlation_matrix(z, np.array([1.0]), nugget=0.0)
    assert r[0, 1] == 0.0
    with pytest.raises(ParameterError):
        correlation_matrix(z, np.array([-1.0]), nugget=0.0)
    with pytest.raises(DimensionError):
        correlation_matrix(z, np.array([1.0, 1.0]), nugget=0.0)


def test_correlation_matrix_bitwise_equals_kernel_plus_nugget_identity():
    rng = np.random.default_rng(12)
    z = rng.uniform(-1, 1, size=(40, 3))
    theta = np.array([0.7, 3.0, 11.0])
    zt = z * np.sqrt(theta)
    for nugget in (1e-8, 1e-3, 0.0):
        expected = np.exp(-cdist(zt, zt, "sqeuclidean")) + nugget * np.eye(40)
        r = correlation_matrix(z, theta, nugget)
        assert r.tobytes() == expected.tobytes()
        assert np.all(np.diag(r) == 1.0 + nugget)


@pytest.mark.parametrize("r", [1, 3, 9])
def test_kernel_cross_matches_cdist_form(r):
    rng = np.random.default_rng(20 + r)
    z_train = rng.uniform(-1, 1, size=(60, r))
    # points well outside the training box, and some on training points
    z_new = np.vstack([rng.uniform(-1.5, 1.5, size=(200, r)), z_train[:10]])
    theta = np.resize([0.7, 3.0, 11.0, 0.01], r)
    sq = np.sqrt(theta)
    reference = np.exp(-cdist(z_new * sq, z_train * sq, "sqeuclidean"))
    k = hpcfe._kernel_cross(z_new, z_train, theta)
    assert k.shape == (210, 60)
    assert np.abs(k - reference).max() <= 1e-14
    assert k.max() <= 1.0
    np.testing.assert_allclose(k[200:].diagonal(), 1.0, rtol=0.0, atol=1e-14)


def test_kernel_cross_error_scales_with_squared_norms_at_the_theta_bound():
    # the expanded form cancels |a|^2 + |b|^2 - 2 a.b, so its absolute error
    # grows with the squared norms; at theta = 100 in 9 coordinates they reach
    # ~2e3 and the error is above 1e-14, but within a few eps of them
    rng = np.random.default_rng(29)
    z_train = rng.uniform(-1, 1, size=(60, 9))
    z_new = np.vstack([rng.uniform(-1.5, 1.5, size=(200, 9)), z_train])
    theta = np.full(9, 100.0)
    a, b = z_new * 10.0, z_train * 10.0
    reference = np.exp(-cdist(a, b, "sqeuclidean"))
    k = hpcfe._kernel_cross(z_new, z_train, theta)
    scale = (a * a).sum(axis=1)[:, None] + (b * b).sum(axis=1)[None, :]
    assert np.all(np.abs(k - reference) <= 4 * np.finfo(float).eps * scale)
    assert k.max() <= 1.0


def test_factor_is_lower_cholesky_in_the_correlation_matrix(monkeypatch):
    rng = np.random.default_rng(13)
    z = rng.uniform(-1, 1, size=(30, 2))
    theta = np.array([2.0, 5.0])
    reference = np.linalg.cholesky(correlation_matrix(z, theta, 1e-6))

    built = []

    def kept(*args):
        built.append(correlation_matrix(*args))
        return built[-1]

    monkeypatch.setattr(hpcfe, "correlation_matrix", kept)
    chol, eff = hpcfe._chol_with_retries(z, theta, 1e-6)
    assert eff == 1e-6 and len(built) == 1
    np.testing.assert_allclose(np.tril(chol), reference, rtol=1e-10, atol=0.0)
    assert np.shares_memory(chol, built[0])  # factored in place, not a copy


def test_duplicated_points_escalate_nugget_and_note():
    # 1 + 1e-16 rounds to 1, so R is exactly singular until the nugget is 1e-15
    z = np.array([[0.0], [0.0], [0.5], [1.0]])
    y = np.array([1.0, 1.0, 2.0, 5.0])
    chol, eff = hpcfe._chol_with_retries(z, np.array([1.0]), 1e-16)
    assert eff == pytest.approx(1e-15, rel=1e-12)
    assert np.all(np.diag(chol) > 0.0)
    model = fit_fixed_theta(z, y, np.array([1.0]), small_config(M=1, b=1, nugget=1e-16))
    assert model.nugget == eff
    assert model.fit_notes == ("nugget raised to 1.0e-15 for factorization",)
    # the model predicts with the factor of the escalated nugget
    np.testing.assert_allclose(model.predict_mean(z), y, atol=1e-10 * np.ptp(y))


def test_fit_evaluates_each_requested_theta_once(monkeypatch):
    # a linear response drives both length scales to the lower bound, where
    # bounded Nelder-Mead asks again for points it clipped; one start, run in
    # this process (one core), so the counters see every evaluation
    monkeypatch.setattr(parallel, "usable_cores", lambda: 1)
    rng = np.random.default_rng(0)
    z = rng.uniform(-1, 1, size=(20, 2))
    y = z[:, 0] + 0.5 * z[:, 1] ** 2

    requested, evaluated, built = [], [], []
    minimize = hpcfe.minimize

    def recording_minimize(fun, x0, **kwargs):
        def recorded(x):
            requested.append(np.asarray(x, dtype=float).tobytes())
            return fun(x)
        return minimize(recorded, x0, **kwargs)

    profile = hpcfe._profile_likelihood

    def counted(data, theta, nugget):
        evaluated.append(theta.tobytes())
        return profile(data, theta, nugget)

    corr = hpcfe.correlation_matrix

    def counted_corr(*args):
        built.append(args[1])
        return corr(*args)

    monkeypatch.setattr(hpcfe, "minimize", recording_minimize)
    monkeypatch.setattr(hpcfe, "_profile_likelihood", counted)
    monkeypatch.setattr(hpcfe, "correlation_matrix", counted_corr)
    model = fit_at_bound(z, y, small_config(restarts=1))
    assert model.fit_notes == ("length scale at optimization bound",)
    assert len(set(requested)) < len(requested)  # the optimizer did repeat itself
    assert len(evaluated) == len(set(requested)) + 1  # plus the final assembly
    (start,) = model.starts
    assert (start.nfev, start.evals) == (len(requested), len(set(requested)))
    distinct = {(10.0 ** np.frombuffer(x)).tobytes() for x in requested}
    assert set(evaluated[:-1]) == distinct
    assert evaluated[-1] == model.theta.tobytes()
    # R is factored once per likelihood evaluation, and never for the model
    assert len(built) == len(evaluated)


def test_initial_simplex_steps_zero_coordinates_by_a_share_of_the_log_box(monkeypatch):
    rng = np.random.default_rng(0)
    z = rng.uniform(-1, 1, size=(20, 2))
    y = z[:, 0] + 0.5 * z[:, 1] ** 2
    simplices = []
    minimize = hpcfe.minimize
    monkeypatch.setattr(parallel, "usable_cores", lambda: 1)  # starts run here

    def recording_minimize(fun, x0, **kwargs):
        simplices.append((np.array(x0), kwargs["options"]["initial_simplex"]))
        return minimize(fun, x0, **kwargs)

    monkeypatch.setattr(hpcfe, "minimize", recording_minimize)
    # log10 theta in [-2, 2]: the Sobol starts are (0, 0) and (1, -1)
    model = fit(z, y, small_config(nm_max_evals=10))
    (zero, zero_simplex), (nonzero, nonzero_simplex) = simplices
    assert [s.start_log_theta for s in model.starts] == [tuple(zero), tuple(nonzero)]
    assert zero.tolist() == [0.0, 0.0] and np.all(nonzero != 0.0)
    step = 0.025 * 4.0  # 2.5% of the 4-decade log box
    np.testing.assert_array_equal(zero_simplex, [[0.0, 0.0], [step, 0.0], [0.0, step]])
    # scipy's own step, bit for bit, where the coordinate is not zero
    np.testing.assert_array_equal(
        nonzero_simplex, [nonzero, [1.05 * nonzero[0], nonzero[1]],
                          [nonzero[0], 1.05 * nonzero[1]]])


def test_each_start_counts_the_points_it_asked_for(monkeypatch):
    # noise data: every start ends on the lower bound, where starts ask for
    # the same point; a start's count does not depend on the starts before it
    rng = np.random.default_rng(0)
    z = rng.uniform(-1, 1, size=(20, 1))
    y = rng.normal(size=20)
    requested = []  # per start, the points its optimizer asked for
    minimize = hpcfe.minimize
    monkeypatch.setattr(parallel, "usable_cores", lambda: 1)  # starts run here

    def recording_minimize(fun, x0, **kwargs):
        asked = []
        requested.append(asked)

        def recorded(x):
            asked.append(np.asarray(x, dtype=float).tobytes())
            return fun(x)
        return minimize(recorded, x0, **kwargs)

    monkeypatch.setattr(hpcfe, "minimize", recording_minimize)
    model = fit_at_bound(z, y, small_config(restarts=3))
    assert set(requested[0]) & set(requested[2])
    assert [s.evals for s in model.starts] == [len(set(a)) for a in requested]


@pytest.fixture
def two_fit_workers(monkeypatch):
    """Two cores with one BLAS thread each: ``fit`` forks two workers.

    Returns the list of pids the fit's forks returned.
    """
    monkeypatch.setattr(parallel, "usable_cores", lambda: 2)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    forks = []
    fork = os.fork

    def counted_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted_fork)
    return forks


def three_start_data():
    rng = np.random.default_rng(4)
    z = rng.uniform(-1, 1, size=(30, 2))
    return z, np.sin(2.0 * z[:, 0]) + z[:, 1] ** 2


def test_pooled_fit_bitwise_equals_inline_fit(monkeypatch, two_fit_workers):
    z, y = three_start_data()
    cfg = small_config(restarts=3)
    pooled = fit(z, y, cfg)
    assert len(two_fit_workers) == 2
    assert {s.pid for s in pooled.starts} <= set(two_fit_workers)
    monkeypatch.setattr(parallel, "usable_cores", lambda: 1)
    inline = fit(z, y, cfg)
    assert len(two_fit_workers) == 2 and {s.pid for s in inline.starts} == {os.getpid()}
    for name in ("theta", "alpha", "_w_resid"):
        assert getattr(pooled, name).tobytes() == getattr(inline, name).tobytes()
    assert (pooled.sigma2, pooled.nugget, pooled.fit_notes) == \
        (inline.sigma2, inline.nugget, inline.fit_notes)
    assert pooled.to_json() == inline.to_json()
    probe = np.random.default_rng(5).uniform(-1.2, 1.2, size=(50, 2))
    assert pooled.predict_mean(probe).tobytes() == inline.predict_mean(probe).tobytes()
    # each start has its own memo, so its record does not depend on where it ran
    assert [dataclasses.replace(s, seconds=0.0, pid=0) for s in pooled.starts] == \
        [dataclasses.replace(s, seconds=0.0, pid=0) for s in inline.starts]


def test_fit_leaves_no_child_process(monkeypatch, two_fit_workers):
    z, y = three_start_data()
    fit(z, y, small_config(restarts=3))
    assert two_fit_workers and multiprocessing.active_children() == []

    def failed(data, theta, nugget):
        raise NumericalError("no factor")

    monkeypatch.setattr(hpcfe, "_profile_likelihood", failed)
    with pytest.raises(NumericalError, match="non-finite for every optimizer start"):
        fit(z, y, small_config(restarts=3))
    assert multiprocessing.active_children() == []

    def broken(data, theta, nugget):
        raise ZeroDivisionError("raised in a worker")

    monkeypatch.setattr(hpcfe, "_profile_likelihood", broken)
    with pytest.raises(ZeroDivisionError, match="raised in a worker"):
        fit(z, y, small_config(restarts=3))
    assert len(two_fit_workers) == 6 and multiprocessing.active_children() == []


@pytest.mark.parametrize("cores, blas, restarts", [
    (1, "1", 3),  # one core
    (2, None, 3),  # unpinned OpenBLAS runs a thread per core in each process
    (2, "2", 3),
    (4, "1", 1),  # one start
])
def test_one_fit_worker_forks_nothing(monkeypatch, cores, blas, restarts):
    monkeypatch.setattr(parallel, "usable_cores", lambda: cores)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(name, raising=False)
    if blas is not None:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", blas)

    def refused():
        raise AssertionError("fit forked a process")

    monkeypatch.setattr(os, "fork", refused)
    z, y = three_start_data()
    model = fit(z, y, small_config(restarts=restarts))
    assert len(model.starts) == restarts
    assert {s.pid for s in model.starts} == {os.getpid()}


def test_fit_workers_follow_cores_and_blas_threads(monkeypatch):
    monkeypatch.setattr(parallel, "usable_cores", lambda: 8)
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.setenv("OMP_NUM_THREADS", "2")
    assert hpcfe._fit_workers(8) == 4
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")  # read before OMP_NUM_THREADS
    assert (hpcfe._fit_workers(8), hpcfe._fit_workers(3)) == (8, 3)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "16")
    assert hpcfe._fit_workers(8) == 1
    for unset in ("0", "x"):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", unset)
        assert hpcfe._fit_workers(8) == 4


def test_singular_correlation_exhausts_nugget_retries():
    z = np.array([[0.0], [0.0], [0.5], [1.0]])  # duplicated point
    y = np.array([1.0, 1.0, 2.0, 5.0])
    with pytest.raises(NumericalError):
        fit(z, y, small_config(nugget=1e-20))


def test_homotopy_tall_full_rank_is_least_squares():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((30, 6))
    b = rng.standard_normal(30)
    alpha = homotopy_solve(x, b)
    np.testing.assert_allclose(alpha, np.linalg.pinv(x) @ b, rtol=1e-10)
    assert np.abs(x.T @ (x @ alpha - b)).max() <= 1e-10 * np.abs(x.T @ b).max()


def test_homotopy_tall_rank_deficient_is_minimum_norm():
    # rank 4 with 10 columns and an inconsistent right side; the product of
    # random factors is rank deficient only to rounding, which is what the
    # rank cutoff must see
    for seed in range(20):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((30, 4)) @ rng.standard_normal((4, 10))
        b = rng.standard_normal(30)
        np.testing.assert_allclose(homotopy_solve(x, b), np.linalg.pinv(x) @ b,
                                   atol=1e-8)


def test_homotopy_wide_is_minimum_norm_exact_solution():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((6, 15))
    b = rng.standard_normal(6)
    alpha = homotopy_solve(x, b)
    assert np.linalg.norm(x @ alpha - b) <= 1e-8 * np.linalg.norm(b)
    np.testing.assert_allclose(alpha, np.linalg.pinv(x) @ b, atol=1e-8)


def test_more_trend_columns_than_points_interpolates_with_minimum_norm_trend():
    rng = np.random.default_rng(15)
    z = rng.uniform(-1, 1, size=(20, 3))
    y = np.sin(2 * z[:, 0]) + z[:, 1] * z[:, 2]
    cfg = HpcfeConfig(M=2, b=3)
    model = fit_fixed_theta(z, y, np.array([2.0, 2.0, 2.0]), cfg)
    psi, _ = build_design_matrix(model._zs, cfg)
    assert psi.shape == (20, 36)
    np.testing.assert_allclose(model.predict_mean(z), y, atol=1e-10 * np.ptp(y))
    chol = np.linalg.cholesky(correlation_matrix(model._zs, model.theta, model.nugget))
    x = np.linalg.solve(chol, psi)
    np.testing.assert_allclose(model.alpha,
                               np.linalg.pinv(x) @ np.linalg.solve(chol, model.d),
                               atol=1e-10 * np.abs(model.alpha).max())


def test_trend_only_data_absorbed_by_trend():
    rng = np.random.default_rng(4)
    z = rng.uniform(-2, 3, size=(40, 2))
    cfg = small_config(M=2, b=2)
    # replicate the internal rescale box to construct data exactly in the
    # trend span; the sample must have zero trend mean so that centering by
    # g0 stays inside the span
    span = np.ptp(z, axis=0)
    zs = 2.0 * (z - (z.min(0) - 0.025 * span)) / (1.05 * span) - 1.0
    psi, _ = build_design_matrix(zs, cfg)
    c = rng.standard_normal(psi.shape[1])
    col_means = psi.mean(axis=0)
    c -= col_means * (col_means @ c) / (col_means @ col_means)
    y = 3.0 + psi @ c

    grid = np.column_stack([np.linspace(-2, 3, 30), np.linspace(3, -2, 30)])
    for theta in ([1.0, 1.0], [0.3, 3.0]):
        model = fit_fixed_theta(z, y, np.array(theta), cfg)
        assert model.sigma2 <= 1e-10 * np.var(y)
        np.testing.assert_allclose(model.alpha, c, atol=1e-7)
        np.testing.assert_allclose(model.predict_mean(z), y, atol=1e-8 * np.ptp(y))
        assert np.all(np.isfinite(model.predict_mean(grid)))


def test_degenerate_gp_limit_reduces_to_trend():
    # at the lower length-scale bound with vanishing process variance the
    # prediction is the trend itself
    rng = np.random.default_rng(14)
    z = rng.uniform(-1, 2, size=(30, 2))
    cfg = small_config(M=2, b=2)
    span = np.ptp(z, axis=0)
    zs = 2.0 * (z - (z.min(0) - 0.025 * span)) / (1.05 * span) - 1.0
    psi, basis_map = build_design_matrix(zs, cfg)
    c = rng.standard_normal(psi.shape[1])
    col_means = psi.mean(axis=0)
    c -= col_means * (col_means @ c) / (col_means @ col_means)
    y = 1.5 + psi @ c
    model = fit_fixed_theta(z, y, np.full(2, THETA_BOUNDS[0]), cfg)
    assert model.sigma2 <= 1e-8 * np.var(y)
    probe = rng.uniform(-1, 2, size=(50, 2))
    zs_probe = 2.0 * (probe - (z.min(0) - 0.025 * span)) / (1.05 * span) - 1.0
    trend = 1.5 + build_design_matrix(zs_probe, cfg)[0] @ c
    np.testing.assert_allclose(model.predict_mean(probe), trend,
                               atol=1e-5 * np.ptp(y))


def test_constant_response():
    z = np.random.default_rng(5).uniform(-1, 1, size=(10, 2))
    model = fit_at_bound(z, np.full(10, 4.2), small_config())
    assert model.g0 == pytest.approx(4.2)
    np.testing.assert_allclose(model.alpha, 0.0, atol=1e-12)
    assert model.sigma2 <= 1e-20
    np.testing.assert_allclose(model.predict_mean(z), 4.2, atol=1e-10)


def test_one_dim_sine_accuracy():
    z = np.linspace(-1.0, 1.0, 12)[:, None]
    y = np.sin(2.5 * z[:, 0])
    model = fit(z, y, HpcfeConfig(restarts=4))
    grid = np.linspace(-1.0, 1.0, 400)[:, None]
    err = np.abs(model.predict_mean(grid) - np.sin(2.5 * grid[:, 0]))
    assert err.max() <= 1e-2


def test_interpolation_property():
    rng = np.random.default_rng(6)
    z = rng.uniform(-1, 1, size=(30, 2))
    y = np.sin(3 * z[:, 0]) * np.cos(2 * z[:, 1]) + z[:, 0] ** 2
    model = fit_at_bound(z, y, small_config())
    err = np.abs(model.predict_mean(z) - y)
    assert err.max() <= 1e-5 * np.ptp(y)


def test_matches_brute_force_gls_oracle_on_four_points():
    z = np.array([[-0.8], [0.1], [0.4], [0.7]])
    y = np.array([1.0, -0.5, 0.3, 2.0])
    theta = np.array([1.7])
    nugget = 1e-8
    model = fit_fixed_theta(z, y, theta, HpcfeConfig(M=1, b=1, nugget=nugget))

    # the oracle works in the model's rescaled coordinates, with its one
    # trend column psi_1
    span = np.ptp(z, axis=0)
    lo, hi = z.min(0) - 0.025 * span, z.max(0) + 0.025 * span
    zs = 2.0 * (z - lo) / (hi - lo) - 1.0
    g0 = y.mean()
    d = y - g0
    r_mat = correlation_matrix(zs, theta, nugget)
    r_inv = np.linalg.inv(r_mat)
    psi = eval_design_matrix(BasisSet(np.array([[1]])), zs)
    alpha = np.linalg.solve(psi.T @ r_inv @ psi, psi.T @ r_inv @ d)

    probe = np.array([[-0.5], [0.0], [0.33], [0.9]])
    probe_s = 2.0 * (probe - lo) / (hi - lo) - 1.0
    phi_p = eval_design_matrix(BasisSet(np.array([[1]])), probe_s, check_domain=False)
    k = np.exp(-theta[0] * (probe_s - zs.T) ** 2)
    mu_oracle = g0 + phi_p @ alpha + k @ r_inv @ (d - psi @ alpha)
    np.testing.assert_allclose(model.predict_mean(probe), mu_oracle, atol=1e-10)


def concentrated_ll(model):
    """The concentrated log-likelihood at the model's length scales and nugget."""
    n = model.d.shape[0]
    floor = max(np.var(model.d + model.g0), 1e-30) * 1e-16
    chol = np.linalg.cholesky(correlation_matrix(model._zs, model.theta, model.nugget))
    return -0.5 * n * math.log(max(model.sigma2, floor)) \
        - float(np.sum(np.log(np.diag(chol))))


def test_likelihood_at_optimum_beats_every_start():
    from sasrel.probspace import sobol_points

    rng = np.random.default_rng(8)
    z = rng.uniform(-1, 1, size=(20, 2))
    y = np.sin(2 * z[:, 0]) + 0.5 * np.cos(3 * z[:, 1])
    cfg = small_config(restarts=4)
    model = fit_at_bound(z, y, cfg)
    best = concentrated_ll(model)
    lo, hi = np.log10(THETA_BOUNDS)
    starts = 10.0 ** (lo + (hi - lo) * sobol_points(cfg.restarts, 2))
    for theta0 in starts:
        assert best >= concentrated_ll(fit_fixed_theta(z, y, theta0, cfg)) - 1e-9


def test_one_start_reaches_the_eight_start_optimum():
    # the single start sits at log theta = 0 in every dimension
    rng = np.random.default_rng(8)
    z = rng.uniform(-1, 1, size=(20, 2))
    y = np.sin(2 * z[:, 0]) + 0.5 * np.cos(3 * z[:, 1])

    one = concentrated_ll(fit_at_bound(z, y, HpcfeConfig(restarts=1, nm_max_evals=60)))
    assert one >= concentrated_ll(fit_at_bound(z, y, HpcfeConfig(restarts=8))) - 1e-4


def test_fixed_theta_reproduces_fit_at_its_optimum():
    # an interior optimum: fit records no bound note that fixed theta lacks
    rng = np.random.default_rng(8)
    z = rng.uniform(-1, 1, size=(30, 2))
    y = np.sin(2 * z[:, 0]) + 0.5 * np.cos(3 * z[:, 1])
    cfg = small_config()
    model = fit(z, y, cfg)
    fixed = fit_fixed_theta(z, y, model.theta, cfg)
    assert fixed.alpha.tobytes() == model.alpha.tobytes()
    assert fixed.sigma2 == model.sigma2
    assert fixed.nugget == model.nugget
    assert fixed.fit_notes == model.fit_notes == ()


def test_extrapolated_prediction_is_finite_and_model_is_frozen():
    rng = np.random.default_rng(9)
    z = rng.uniform(0, 1, size=(15, 2))
    model = fit_at_bound(z, z[:, 0] + z[:, 1] ** 2, small_config())
    assert np.all(np.isfinite(model.predict_mean(np.array([[5.0, 5.0]]))))
    with pytest.raises(dataclasses.FrozenInstanceError):
        model.theta = np.ones(2)


def test_models_compare_by_identity_and_hash():
    rng = np.random.default_rng(10)
    z = rng.uniform(-1, 1, size=(15, 2))
    cfg = small_config()
    model = fit_at_bound(z, z[:, 0] - z[:, 1] ** 2, cfg)
    fixed = fit_fixed_theta(z, z[:, 0] - z[:, 1] ** 2, model.theta, cfg)
    assert (model == fixed) is False
    assert model == model
    assert len({model, fixed, model}) == 2


def test_blocked_prediction_equals_one_block(monkeypatch):
    rng = np.random.default_rng(11)
    z = rng.uniform(-1, 1, size=(25, 2))
    model = fit_at_bound(z, np.tanh(z[:, 0]) + 0.3 * z[:, 1] ** 2, small_config())
    probe = rng.uniform(-1.1, 1.1, size=(1000, 2))
    cases = (probe, probe[:0], probe[:1], probe[0])

    monkeypatch.setattr(polybasis, "BLOCK_BYTES", 2**40)
    one_block = [model.predict_mean(p) for p in cases]

    block_rows = []
    kernel_cross = hpcfe._kernel_cross

    def counted(z_new, z_train, theta):
        block_rows.append(z_new.shape[0])
        return kernel_cross(z_new, z_train, theta)

    monkeypatch.setattr(hpcfe, "_kernel_cross", counted)
    # 200 rows of 25 kernel entries fit the budget; blocks round down to 128 = 2**7 rows
    monkeypatch.setattr(polybasis, "BLOCK_BYTES", 8 * 25 * 200)
    for p, mean in zip(cases, one_block):
        assert model.predict_mean(p).tobytes() == mean.tobytes()
    assert [mean.shape for mean in one_block] == [(1000,), (0,), (1,), (1,)]
    block_rows.clear()
    model.predict_mean(probe)
    assert block_rows == [128] * 7 + [104]


def test_fitted_model_holds_no_training_set_squared_array():
    # the Monte Carlo pool shares the fitted model for the whole estimate, so
    # its arrays must grow with n_train only linearly, not with the n x n
    # correlation factor of the fit
    rng = np.random.default_rng(16)
    n, r = 300, 2
    z = rng.uniform(-1, 1, size=(n, r))
    model = fit_fixed_theta(z, np.sin(3 * z[:, 0]) * z[:, 1], np.array([2.0, 5.0]),
                            small_config())
    arrays = {f.name: getattr(model, f.name) for f in dataclasses.fields(model)
              if isinstance(getattr(model, f.name), np.ndarray)}
    assert {"_zs", "_w_resid", "alpha"} <= arrays.keys()
    assert all(a.size != n * n for a in arrays.values())
    q = model.basis_map.shape[0]
    assert q == 15
    assert sum(a.nbytes for a in arrays.values()) <= 3 * 8 * n * (q + r)


def test_surrogates_predict_a_chunk_bitwise_as_its_sample_blocks():
    # the Monte Carlo pool evaluates a chunk of the sample stream as blocks of
    # SAMPLE_BLOCK rows; the estimates stay the chunk-at-once ones only if
    # every row is predicted bitwise as in one call on the whole chunk
    rng = np.random.default_rng(12)
    dim = 4
    idx = np.array(list(itertools.product(range(5), repeat=dim)))
    idx = idx[(idx.sum(axis=1) > 0) & (idx.sum(axis=1) <= 4)]
    pce = SparsePceModel(dim=dim, p_max=4, indices=idx,
                         coefficients=rng.standard_normal(len(idx)), intercept=0.3,
                         loo=0.0)
    z = rng.uniform(-1, 1, size=(300, 2))
    gp = fit_at_bound(z, np.tanh(z[:, 0]) + 0.3 * z[:, 1] ** 2, small_config())
    chunk = rng.uniform(-1, 1, size=(SAMPLE_CHUNK, dim))
    # the GP's gemm cross-kernel, whose last rows per call round differently,
    # is cut into several calls per sample block
    assert polybasis.row_blocks(SAMPLE_CHUNK, 8 * z.shape[0])[0].stop < SAMPLE_BLOCK
    for predict, points in ((pce.predict, chunk), (gp.predict_mean, chunk[:, :2])):
        blocks = [predict(points[start:start + SAMPLE_BLOCK])
                  for start in range(0, SAMPLE_CHUNK, SAMPLE_BLOCK)]
        assert np.concatenate(blocks).tobytes() == predict(points).tobytes()


def test_fit_validation():
    with pytest.raises(ParameterError):
        fit(np.zeros((3, 1)), np.zeros(3), small_config())
    with pytest.raises(DimensionError):
        fit(np.zeros((5, 1)), np.zeros(4), small_config())
    with pytest.raises(ParameterError):
        fit(np.random.uniform(size=(6, 1)), np.array([1, 2, np.inf, 0, 1, 2.0]),
            small_config())
