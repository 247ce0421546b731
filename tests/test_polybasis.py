import itertools
import math

import numpy as np
import pytest
from scipy.special import eval_legendre

from sasrel import polybasis
from sasrel.errors import DimensionError, DomainError, ParameterError
from sasrel.hpcfe import HpcfeConfig, build_design_matrix
from sasrel.polybasis import (
    BasisSet,
    basis_cardinality,
    eval_basis_gradient,
    eval_design_matrix,
    legendre_tables,
    total_degree_indices,
)
from sasrel.spce import SparsePceModel


def test_values_match_scipy():
    t = np.linspace(-1.0, 1.0, 41)
    table = legendre_tables(t, 8)
    for k in range(9):
        np.testing.assert_allclose(
            table[:, k], math.sqrt(2 * k + 1) * eval_legendre(k, t), atol=1e-12)


def one_term_gradients(t, degree):
    """d psi_k / dt for k = 0 .. degree, each as the one-term expansion [[k]]."""
    pts = np.asarray(t, dtype=float)[:, None]
    return np.column_stack([eval_basis_gradient(BasisSet([[k]]), pts, [1.0])[:, 0]
                            for k in range(degree + 1)])


def test_derivatives_match_finite_differences():
    t = np.linspace(-0.95, 0.95, 31)
    h = 1e-6
    fd = (legendre_tables(t + h, 7) - legendre_tables(t - h, 7)) / (2 * h)
    np.testing.assert_allclose(one_term_gradients(t, 7), fd, atol=1e-5)


def test_derivatives_at_endpoints():
    # P'_k(1) = k (k+1) / 2, and the odd/even reflection at -1
    dtab = one_term_gradients(np.array([1.0, -1.0]), 6)
    for k in range(7):
        expect = k * (k + 1) / 2 * math.sqrt(2 * k + 1)
        assert dtab[0, k] == pytest.approx(expect, rel=1e-12)
        assert dtab[1, k] == pytest.approx((-1.0) ** (k + 1) * expect, rel=1e-12)


def test_orthonormal_under_uniform_measure():
    # Gauss-Legendre quadrature integrates degree <= 2*24-1 exactly
    nodes, weights = np.polynomial.legendre.leggauss(24)
    table = legendre_tables(nodes, 10)
    gram = (table.T * weights) @ table / 2.0
    np.testing.assert_allclose(gram, np.eye(11), atol=1e-12)


def test_graded_lex_order_frozen():
    assert total_degree_indices(2, 2).tolist() == [
        [0, 0], [1, 0], [0, 1], [2, 0], [1, 1], [0, 2]]
    assert total_degree_indices(3, 1).tolist() == [
        [0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert total_degree_indices(1, 4).tolist() == [[0], [1], [2], [3], [4]]


def test_cardinality_matches_binomial():
    for dim in (1, 2, 5, 20, 60, 100):
        for degree in (0, 1, 2):
            assert len(total_degree_indices(dim, degree)) == basis_cardinality(dim, degree)
    for dim in (1, 3, 8, 20):
        for degree in (3, 4, 5):
            assert len(total_degree_indices(dim, degree)) == basis_cardinality(dim, degree)


def test_graded_lex_is_graded_and_lexicographic():
    idx = total_degree_indices(4, 3)
    totals = idx.sum(axis=1)
    assert np.all(np.diff(totals) >= 0)
    for a, b in zip(idx[:-1], idx[1:]):
        if a.sum() == b.sum():
            diff = a - b
            first = diff[diff != 0][0]
            assert first > 0  # leftmost coordinate dominates


def test_total_degree_indices_match_brute_force():
    for dim in range(1, 7):
        for degree in range(5):
            rows = [a for a in itertools.product(range(degree + 1), repeat=dim)
                    if sum(a) <= degree]
            rows.sort(key=lambda a: (sum(a), tuple(-x for x in a)))
            idx = total_degree_indices(dim, degree)
            assert idx.tolist() == [list(a) for a in rows], (dim, degree)
            assert idx.dtype == np.int64
            assert not idx.flags.writeable


def dense_design(basis, points):
    """Reference: every column takes a factor from every coordinate any row uses."""
    tables = legendre_tables(points, basis.max_degree)
    out = np.ones((points.shape[0], basis.cardinality))
    for d in range(basis.dim):
        col = basis.indices[:, d]
        if col.any():
            out *= tables[:, d, col]
    return out


def _subset_20_4(n_points=40):
    idx = total_degree_indices(20, 4)
    rows = np.random.default_rng(4).choice(len(idx), 50, replace=False)
    return BasisSet(idx[rows]), np.random.default_rng(5).uniform(-1.0, 1.0, (n_points, 20))


def _trend_r3_b5():
    z = np.random.default_rng(6).uniform(-1.4, 1.4, (64, 3))
    _, basis_map = build_design_matrix(z, HpcfeConfig(M=2, b=5))
    return BasisSet(basis_map), z


DESIGN_CASES = {
    "total-degree-100-2": lambda: (
        BasisSet.total_degree(100, 2),
        np.random.default_rng(3).uniform(-1.0, 1.0, (64, 100))),
    "subset-20-4": _subset_20_4,
    # 300 rows in 64-row blocks (the test's budget): four full, one ragged
    "row-blocks-20-4": lambda: _subset_20_4(300),
    "trend-r3-b5-outside": _trend_r3_b5,
    "zero-rows": lambda: (
        BasisSet(np.empty((0, 4), dtype=np.int64)), np.zeros((5, 4))),
    "constant-only": lambda: (
        BasisSet(np.zeros((1, 3), dtype=np.int64)),
        np.random.default_rng(7).uniform(-1.0, 1.0, (6, 3))),
}


@pytest.mark.parametrize("case", sorted(DESIGN_CASES))
def test_design_matrix_equals_dense_reference_bitwise(case, monkeypatch):
    # the kernel fills blocks of a sixteenth of the budget: 64 rows of 50
    # terms here; the other cases have at most 64 rows
    monkeypatch.setattr(polybasis, "BLOCK_BYTES", 16 * 8 * 50 * 64)
    basis, pts = DESIGN_CASES[case]()
    phi = eval_design_matrix(basis, pts, check_domain=False)
    assert phi.dtype == np.float64
    assert phi.shape == (pts.shape[0], basis.cardinality)
    assert phi.flags.c_contiguous
    assert phi.tobytes() == dense_design(basis, pts).tobytes()


def test_design_matrix_tensor_product():
    basis = BasisSet.total_degree(2, 3)
    pts = np.array([[0.3, -0.7], [-1.0, 1.0], [0.0, 0.0]])
    phi = eval_design_matrix(basis, pts)
    t1 = legendre_tables(pts[:, 0], 3)
    t2 = legendre_tables(pts[:, 1], 3)
    for j, (a1, a2) in enumerate(basis.indices):
        np.testing.assert_allclose(phi[:, j], t1[:, a1] * t2[:, a2], atol=1e-13)
    assert phi.shape == (3, basis.cardinality)
    np.testing.assert_allclose(phi[:, 0], 1.0)


def test_design_matrix_domain_check():
    basis = BasisSet.total_degree(2, 2)
    bad = np.array([[1.2, 0.0]])
    with pytest.raises(DomainError):
        eval_design_matrix(basis, bad)
    eval_design_matrix(basis, bad, check_domain=False)
    with pytest.raises(DimensionError):
        eval_design_matrix(basis, np.zeros((3, 5)))


def test_gradient_matches_finite_differences():
    basis = BasisSet.total_degree(3, 4)
    rng = np.random.default_rng(11)
    pts = 0.9 * (2.0 * rng.random((12, 3)) - 1.0)
    coef = rng.uniform(-2.0, 2.0, basis.cardinality)
    grad = eval_basis_gradient(basis, pts, coef)
    assert grad.shape == (12, 3)
    h = 1e-6
    for e in range(3):
        step = np.zeros(3)
        step[e] = h
        fd = (eval_design_matrix(basis, pts + step, check_domain=False)
              - eval_design_matrix(basis, pts - step, check_domain=False)) @ coef / (2 * h)
        np.testing.assert_allclose(grad[:, e], fd, atol=1e-5)


def test_gradient_skips_inactive_dimensions():
    # basis functions constant in one coordinate have zero derivative there
    indices = np.array([[0, 2, 0], [0, 1, 0], [0, 0, 0]])
    basis = BasisSet(indices)
    pts = np.array([[0.4, -0.2, 0.9]])
    grad = eval_basis_gradient(basis, pts, [1.5, -0.5, 2.0])
    np.testing.assert_array_equal(grad[:, 0], 0.0)
    np.testing.assert_array_equal(grad[:, 2], 0.0)
    assert abs(grad[0, 1]) > 0.0


def dense_gradient(basis, points):
    """Reference: every basis function's gradient, shape (n, cardinality, dim).

    Prefix and suffix products of the per-coordinate value tables, with the
    derivative table from ``P'_{k+1} = P'_{k-1} + (2k+1) P_k``.
    """
    n, dim, card = points.shape[0], basis.dim, basis.cardinality
    deg = basis.max_degree
    scale = np.sqrt(2.0 * np.arange(deg + 1) + 1.0)
    tables = legendre_tables(points, deg)
    plain = tables / scale  # the classical P_k
    dtables = np.zeros_like(tables)
    if deg >= 1:
        dtables[..., 1] = 1.0
    for k in range(1, deg):
        dtables[..., k + 1] = dtables[..., k - 1] + (2 * k + 1) * plain[..., k]
    dtables *= scale

    vals = np.empty((dim, n, card))
    for d in range(dim):
        vals[d] = tables[:, d, basis.indices[:, d]]
    suffix = np.ones((n, card))
    suffixes = np.empty((dim, n, card))
    for d in range(dim - 1, -1, -1):
        suffixes[d] = suffix
        suffix = suffix * vals[d]
    grad = np.zeros((n, card, dim))
    prefix = np.ones((n, card))
    for d in range(dim):
        col = basis.indices[:, d]
        if col.any():
            grad[:, :, d] = prefix * dtables[:, d, col] * suffixes[d]
        prefix = prefix * vals[d]
    return grad


def random_sparse_model(dim, n_terms, seed):
    """Distinct terms of 1 to 4 nonzero exponents (at most dim), each 1 to 5."""
    rng = np.random.default_rng(seed)
    rows = set()
    while len(rows) < n_terms:
        alpha = np.zeros(dim, dtype=np.int64)
        used = rng.choice(dim, int(rng.integers(1, min(4, dim) + 1)), replace=False)
        alpha[used] = rng.integers(1, 6, used.size)
        rows.add(tuple(alpha))
    indices = np.array(sorted(rows))
    return SparsePceModel(dim=dim, p_max=int(indices.sum(axis=1).max()),
                          indices=indices, coefficients=rng.uniform(-2.0, 2.0, n_terms),
                          intercept=0.3, loo=0.0)


@pytest.mark.parametrize("dim", [3, 20, 100])
def test_model_gradient_equals_dense_reference(dim):
    model = random_sparse_model(dim, 40, seed=dim)
    # the models include terms in as many coordinates as the generator allows
    assert np.count_nonzero(model.indices, axis=1).max() == min(4, dim)
    pts = np.random.default_rng(dim + 1).uniform(-1.0, 1.0, (200, dim))
    expect = np.einsum("njd,j->nd", dense_gradient(model.basis, pts), model.coefficients)
    grad = model.gradient(pts)
    assert grad.shape == (200, dim)
    assert np.abs(grad - expect).max() <= 1e-13 * np.abs(expect).max()


def test_invalid_inputs():
    with pytest.raises(ParameterError):
        legendre_tables(np.array([0.0]), -1)
    with pytest.raises(ParameterError):
        total_degree_indices(0, 2)
    with pytest.raises(ParameterError):
        BasisSet(np.array([[0, -1]]))
