import json
import math

import numpy as np
import pytest

from sasrel.benchmarks import BENCHMARK_NAMES, get_benchmark
from sasrel.benchmarks.beam import (
    MEAN_VALUES,
    beam_limit_state_values,
    beam_model,
    beam_state,
    beam_stress,
    section_constant,
)
from sasrel.benchmarks.gfunction import (
    ANALYTIC_PF,
    default_weights,
    gfunction_model,
    gfunction_state,
    sobol_g,
)
from sasrel.benchmarks.truss import (
    TRUSS_MEAN_VALUES,
    TrussGeometry,
    default_geometry,
    truss_limit_state_values,
    truss_model,
    truss_solve,
    truss_state,
)
from sasrel.errors import DimensionError, DomainError, ParameterError
from sasrel.reliability import mcs_probability


# ---------------------------------------------------------------- g-function

def test_sobol_g_hand_values():
    assert sobol_g([[0.5, 0.5]], [1.0, 1.0], 0.0) == pytest.approx(0.25)
    # a zero weight and the midpoint collapse one factor to zero
    assert sobol_g([[0.5, 0.3]], [0.0, 1.0], 0.35)[0] == pytest.approx(-0.35)
    # at a corner each factor hits its upper bound (2 + a) / (1 + a)
    g = sobol_g([[0.0, 1.0]], [1.0, 3.0], 0.0)
    assert g[0] == pytest.approx(1.5 * 1.25)


def test_sobol_g_factor_bounds():
    rng = np.random.default_rng(0)
    m = 7
    a = rng.uniform(0.0, 10.0, m)
    x = rng.uniform(0.0, 1.0, (1000, m))
    vals = sobol_g(x, a, 0.0)
    lo = np.prod(a / (1.0 + a))
    hi = np.prod((2.0 + a) / (1.0 + a))
    assert np.all(vals >= lo - 1e-12)
    assert np.all(vals <= hi + 1e-12)


def test_sobol_g_validation():
    with pytest.raises(DomainError):
        sobol_g([[1.2, 0.5]], [1.0, 1.0])
    with pytest.raises(ParameterError):
        sobol_g([[0.2, 0.5]], [1.0, -1.0])
    with pytest.raises(ParameterError):
        sobol_g([[0.2, 0.5]], [1.0, 1.0, 1.0])
    with pytest.raises(ParameterError):
        default_weights(1)


def test_gfunction_mcs_matches_analytic():
    res = mcs_probability(gfunction_state(10), gfunction_model(10),
                          n=200_000, seed=7)
    sd = math.sqrt(ANALYTIC_PF * (1 - ANALYTIC_PF) / 200_000)
    assert abs(res.pf - ANALYTIC_PF) <= 4 * sd


# -------------------------------------------------------------------- beam

def beam_oracle(x):
    """Independent scalar re-derivation of the transformed-section stress."""
    (a, b, c, d, l1, l2, l3, l4, l5, l6, span,
     p1, p2, p3, p4, p5, p6, ea, ew, s) = [float(v) for v in x]
    m_ratio = ea / ew
    area_wood = a * b
    area_alu = m_ratio * c * d
    # neutral axis from the top fibre via the first moment of the two parts
    first_moment = area_wood * (b / 2.0) + area_alu * (b + d / 2.0)
    k = first_moment / (area_wood + area_alu)
    i_wood = a * b**3 / 12.0 + area_wood * (k - b / 2.0) ** 2
    i_alu = m_ratio * c * d**3 / 12.0 + area_alu * (b + d / 2.0 - k) ** 2
    loads = [(p1, l1), (p2, l2), (p3, l3), (p4, l4), (p5, l5), (p6, l6)]
    r_left = sum(p * (span - li) for p, li in loads) / span
    moment = r_left * l3 - p1 * (l3 - l1) - p2 * (l3 - l2)
    sigma = moment * k / (i_wood + i_alu) * 1000.0
    return k, sigma, s - sigma


def test_beam_matches_independent_oracle_at_mean():
    k_ref, sigma_ref, g_ref = beam_oracle(MEAN_VALUES)
    k = section_constant(*MEAN_VALUES[[0, 1, 2, 3, 17, 18]])
    assert abs(k - k_ref) <= 1e-10 * abs(k_ref)
    sigma = beam_stress(MEAN_VALUES)[0]
    assert abs(sigma - sigma_ref) <= 1e-10 * abs(sigma_ref)
    g = beam_limit_state_values(MEAN_VALUES)[0]
    assert abs(g - g_ref) <= 1e-10 * abs(g_ref)


def test_beam_matches_independent_oracle_random():
    rng = np.random.default_rng(3)
    x = MEAN_VALUES * rng.uniform(0.9, 1.1, (50, 20))
    g = beam_limit_state_values(x)
    for i in range(50):
        _, _, g_ref = beam_oracle(x[i])
        assert abs(g[i] - g_ref) <= 1e-10 * max(1.0, abs(g_ref))


def test_beam_zero_loads():
    x = MEAN_VALUES.copy()
    x[11:17] = 0.0
    assert beam_stress(x)[0] == 0.0
    assert beam_limit_state_values(x)[0] == x[19]


def test_beam_stress_homogeneous_in_loads():
    rng = np.random.default_rng(5)
    x = MEAN_VALUES * rng.uniform(0.95, 1.05, (10, 20))
    scaled = x.copy()
    scaled[:, 11:17] *= 3.7
    ratio = beam_stress(scaled) / beam_stress(x)
    assert np.allclose(ratio, 3.7, rtol=1e-12)


def test_beam_degenerate_section_rejected():
    x = MEAN_VALUES.copy()
    x[0] = -100.0
    x[3] = -20.0
    with pytest.raises(DomainError):
        beam_stress(x)


def test_beam_model_structure():
    model = beam_model(truncated=True)
    assert model.dim == 20
    names = [m.name for m in model.marginals]
    assert names[0] == "A" and names[10] == "L" and names[19] == "S"
    assert model.marginals[11].kind == "gumbel"
    assert model.marginals[11].truncation == (5.0, 19.0)
    plain = beam_model(truncated=False)
    assert all(m.truncation is None for m in plain.marginals)
    assert beam_state().dim == 20


# -------------------------------------------------------------------- truss

def single_bar_geometry(length=2.0):
    # one bar along x; the far node may only translate axially
    return TrussGeometry(
        nodes=np.array([[0.0, 0.0, 0.0], [length, 0.0, 0.0]]),
        elements=np.array([[0, 1]]),
        supports=(0, 1, 2, 4, 5),
        loads=(("P1", 1, 0, 1.0),))


def test_single_bar_axial_displacement():
    length, load, e_mod, area = 2.0, 750.0, 1e7, 0.3
    geo = single_bar_geometry(length)
    horiz, vert = truss_solve([[load, e_mod, area]], geo)
    assert horiz[0] == pytest.approx(load * length / (e_mod * area), rel=1e-14)
    assert vert[0] == 0.0


def test_truss_linearity_scaling():
    geo = default_geometry()
    x = TRUSS_MEAN_VALUES.copy()
    h0, v0 = truss_solve(x, geo)
    doubled_areas = x.copy()
    doubled_areas[8:] *= 2.0
    h, v = truss_solve(doubled_areas, geo)
    assert h[0] == pytest.approx(h0[0] / 2.0, rel=1e-12)
    assert v[0] == pytest.approx(v0[0] / 2.0, rel=1e-12)
    doubled_loads = x.copy()
    doubled_loads[:7] *= 2.0
    h, v = truss_solve(doubled_loads, geo)
    assert h[0] == pytest.approx(2.0 * h0[0], rel=1e-12)
    assert v[0] == pytest.approx(2.0 * v0[0], rel=1e-12)


def dense_fe_oracle(x, geo):
    """Independent full-matrix assembly and solve, scalar loops throughout."""
    n_nodes = geo.nodes.shape[0]
    n_loads = len(geo.loads)
    ndof = 3 * n_nodes
    k_full = np.zeros((ndof, ndof))
    e_mod = float(x[n_loads])
    for e, (i, j) in enumerate(geo.elements):
        d = geo.nodes[j] - geo.nodes[i]
        length = math.sqrt(float(d @ d))
        lam = d / length
        coef = e_mod * float(x[n_loads + 1 + e]) / length
        dof = [3 * i, 3 * i + 1, 3 * i + 2, 3 * j, 3 * j + 1, 3 * j + 2]
        for p in range(6):
            for q in range(6):
                sp = 1.0 if (p < 3) == (q < 3) else -1.0
                k_full[dof[p], dof[q]] += coef * sp * lam[p % 3] * lam[q % 3]
    f_full = np.zeros(ndof)
    for col, (_, node, axis, sign) in enumerate(geo.loads):
        f_full[3 * node + axis] += sign * float(x[col])
    mask = np.ones(ndof, dtype=bool)
    mask[list(geo.supports)] = False
    u = np.linalg.solve(k_full[np.ix_(mask, mask)], f_full[mask])
    axes = np.arange(ndof)[mask] % 3
    return np.abs(u[axes != 2]).max(), np.abs(u[axes == 2]).max(), u, mask


def test_truss_matches_independent_fe_oracle():
    geo = default_geometry()
    rng = np.random.default_rng(11)
    for _ in range(5):
        x = TRUSS_MEAN_VALUES * rng.uniform(0.8, 1.2, 33)
        h_ref, v_ref, _, _ = dense_fe_oracle(x, geo)
        h, v = truss_solve(x, geo)
        assert abs(h[0] - h_ref) <= 1e-8 * abs(h_ref)
        assert abs(v[0] - v_ref) <= 1e-8 * abs(v_ref)


def test_truss_equilibrium_residual():
    geo = default_geometry()
    rng = np.random.default_rng(13)
    x = TRUSS_MEAN_VALUES * rng.uniform(0.8, 1.2, (20, 33))
    # rebuild the reduced system exactly as the oracle does and check Ku = F
    for row in x:
        _, _, u, mask = dense_fe_oracle(row, geo)
        n_loads = len(geo.loads)
        ndof = 3 * geo.nodes.shape[0]
        f_full = np.zeros(ndof)
        for col, (_, node, axis, sign) in enumerate(geo.loads):
            f_full[3 * node + axis] += sign * row[col]
        k_full = np.zeros((ndof, ndof))
        e_mod = row[n_loads]
        for e, (i, j) in enumerate(geo.elements):
            d = geo.nodes[j] - geo.nodes[i]
            length = np.linalg.norm(d)
            lam = d / length
            block = np.outer(lam, lam)
            coef = e_mod * row[n_loads + 1 + e] / length
            dof = np.r_[3 * i + np.arange(3), 3 * j + np.arange(3)]
            kk = coef * np.block([[block, -block], [-block, block]])
            k_full[np.ix_(dof, dof)] += kk
        k_red = k_full[np.ix_(mask, mask)]
        assert np.allclose(k_red, k_red.T, atol=1e-10 * np.abs(k_red).max())
        resid = np.linalg.norm(k_red @ u - f_full[mask])
        assert resid <= 1e-10 * np.linalg.norm(f_full[mask])


def test_truss_limit_state_values():
    geo = default_geometry()
    x = TRUSS_MEAN_VALUES.copy()
    x[:7] = 0.0
    assert truss_limit_state_values(x, geo)[0] == pytest.approx(0.4)
    scaled = TRUSS_MEAN_VALUES.copy()
    scaled[:7] *= 10.0
    assert truss_limit_state_values(scaled, geo)[0] < 0.0
    assert truss_state().dim == 33


def test_truss_input_validation():
    geo = default_geometry()
    with pytest.raises(DimensionError):
        truss_solve(np.ones((2, 30)), geo)
    bad_modulus = TRUSS_MEAN_VALUES.copy()
    bad_modulus[7] = 0.0
    with pytest.raises(DomainError):
        truss_solve(bad_modulus, geo)
    bad_area = TRUSS_MEAN_VALUES.copy()
    bad_area[12] = -0.1
    with pytest.raises(DomainError):
        truss_solve(bad_area, geo)


def test_truss_geometry_validation():
    nodes = np.zeros((2, 3))
    nodes[1, 0] = 1.0
    with pytest.raises(ParameterError):
        TrussGeometry(nodes=nodes, elements=np.array([[0, 5]]),
                      supports=(0, 1, 2), loads=())
    with pytest.raises(ParameterError):
        TrussGeometry(nodes=nodes, elements=np.array([[1, 1]]),
                      supports=(0, 1, 2), loads=())
    with pytest.raises(ParameterError):
        TrussGeometry(nodes=nodes, elements=np.array([[0, 1]]),
                      supports=tuple(range(6)), loads=())
    with pytest.raises(ParameterError):
        TrussGeometry(nodes=nodes, elements=np.array([[0, 1]]),
                      supports=(0,), loads=(("P1", 5, 0, 1.0),))


def test_truss_load_on_fixed_dof_rejected():
    geo = single_bar_geometry()
    bad = TrussGeometry(nodes=geo.nodes, elements=geo.elements,
                        supports=geo.supports, loads=(("P1", 0, 0, 1.0),))
    with pytest.raises(ParameterError, match="fixed"):
        truss_solve([[100.0, 1e7, 0.3]], bad)


def test_truss_mechanism_detected():
    # bar along x but the transverse DOFs of the far node are left free
    geo = TrussGeometry(
        nodes=np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]]),
        elements=np.array([[0, 1]]),
        supports=(0, 1, 2),
        loads=(("P1", 1, 0, 1.0),))
    with pytest.raises(Exception, match="mechanism"):
        truss_solve([[100.0, 1e7, 0.3]], geo)


def test_default_geometry_shape():
    geo = default_geometry()
    assert geo.nodes.shape == (10, 3)
    assert geo.elements.shape == (25, 2)
    assert len(geo.supports) == 12
    assert geo.n_free == 18
    assert [lab for lab, *_ in geo.loads] == [f"P{i}" for i in range(1, 8)]
    # mean-value constrained stiffness must be SPD
    _, _, u, _ = dense_fe_oracle(TRUSS_MEAN_VALUES, geo)
    assert np.all(np.isfinite(u))


def test_truss_geometry_json_round_trip(tmp_path):
    geo = default_geometry()
    payload = {
        "nodes": geo.nodes.tolist(),
        "elements": geo.elements.tolist(),
        "supports": list(geo.supports),
        "loads": {lab: [int(node), ("-" if sign < 0 else "+") + "xyz"[axis]]
                  for lab, node, axis, sign in geo.loads},
    }
    path = tmp_path / "geo.json"
    path.write_text(json.dumps(payload))
    loaded = TrussGeometry.from_file(path)
    assert np.array_equal(loaded.nodes, geo.nodes)
    assert np.array_equal(loaded.elements, geo.elements)
    assert loaded.supports == geo.supports
    assert loaded.loads == geo.loads


def test_truss_model_structure():
    model = truss_model()
    assert model.dim == 33
    assert model.marginals[0].kind == "lognormal"
    assert model.marginals[0].mean == 1000.0
    assert model.marginals[2].kind == "normal"
    assert model.marginals[7].mean == 1e7
    assert model.marginals[8].mean == 0.4
    assert model.marginals[32].mean == 3.4
    assert all(m.truncation is None for m in model.marginals)


# ----------------------------------------------------------------- registry

def test_registry_names_and_dimensions():
    dims = {"sobol-m10": 10, "sobol-m40": 40, "sobol-m100": 100,
            "beam": 20, "truss": 33}
    for name in BENCHMARK_NAMES:
        bench = get_benchmark(name)
        assert bench.limit_state.dim == dims[name]
        assert bench.model.dim == dims[name]
        assert bench.pipeline.n_train >= 100
    with pytest.raises(ParameterError):
        get_benchmark("sobol-m11")
