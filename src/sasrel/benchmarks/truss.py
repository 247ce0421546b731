"""Pin-jointed 3-D truss solver and the 25-element tower benchmark.

A bar between nodes i and j with direction cosines lambda contributes
(E A / L) [[ll, -ll], [-ll, ll]] to the global stiffness, ll = lambda
lambda^T.  Supports are applied by eliminating the fixed rows and columns.
The benchmark geometry ships as a JSON file and is user-replaceable; the
performance function compares the peak horizontal and vertical nodal
displacements against an allowable value.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

import numpy as np

from ..errors import DimensionError, DomainError, NumericalError, ParameterError
from ..probspace import Marginal, ProbabilisticModel
from ..reliability import LimitState

_AXES = {"x": 0, "y": 1, "z": 2}

ALLOWABLE_DISPLACEMENT = 0.4


@dataclass(frozen=True)
class TrussGeometry:
    """Node coordinates, connectivity, fixed DOFs and named load placements.

    ``loads`` is an ordered tuple (label, node, axis, sign); the order defines
    which input column drives which force component.
    """

    nodes: np.ndarray
    elements: np.ndarray
    supports: tuple[int, ...]
    loads: tuple[tuple[str, int, int, float], ...]

    def __post_init__(self) -> None:
        nodes = np.asarray(self.nodes, dtype=float)
        elements = np.asarray(self.elements, dtype=np.int64)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "elements", elements)
        if nodes.ndim != 2 or nodes.shape[1] != 3:
            raise ParameterError(f"nodes must be (n, 3), got {nodes.shape}")
        if elements.ndim != 2 or elements.shape[1] != 2:
            raise ParameterError(f"elements must be (m, 2), got {elements.shape}")
        n = nodes.shape[0]
        if np.any(elements < 0) or np.any(elements >= n):
            raise ParameterError("element connectivity references a missing node")
        if np.any(elements[:, 0] == elements[:, 1]):
            raise ParameterError("zero-length element (both ends on one node)")
        ndof = 3 * n
        if any(not 0 <= s < ndof for s in self.supports):
            raise ParameterError("support DOF index out of range")
        if len(set(self.supports)) >= ndof:
            raise ParameterError("every DOF is fixed; nothing to solve")
        for label, node, axis, sign in self.loads:
            if not 0 <= node < n or axis not in (0, 1, 2) or sign not in (-1.0, 1.0):
                raise ParameterError(f"bad load placement for {label}")

    @classmethod
    def from_dict(cls, d: dict) -> "TrussGeometry":
        loads = []
        for label in sorted(d["loads"], key=lambda s: (len(s), s)):
            node, direction = d["loads"][label]
            sign = -1.0 if direction.startswith("-") else 1.0
            axis = _AXES.get(direction.lstrip("+-"))  # None fails validation
            loads.append((label, int(node), axis, sign))
        return cls(nodes=np.asarray(d["nodes"], dtype=float),
                   elements=np.asarray(d["elements"], dtype=np.int64),
                   supports=tuple(int(s) for s in d["supports"]),
                   loads=tuple(loads))

    @classmethod
    def from_file(cls, path) -> "TrussGeometry":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


def default_geometry() -> TrussGeometry:
    text = resources.files("sasrel.benchmarks").joinpath("data/truss25.json").read_text()
    return TrussGeometry.from_dict(json.loads(text))


def truss_solve(x: np.ndarray, geometry: TrussGeometry):
    """Displacements under the sampled loads, modulus and member areas.

    Returns (u_horizontal, u_vertical): per sample, the largest absolute x/y
    and z nodal displacement components over the free DOFs.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    n_elems = geometry.elements.shape[0]
    n_loads = len(geometry.loads)
    if x.shape[1] != n_loads + 1 + n_elems:
        raise DimensionError(
            f"expected {n_loads + 1 + n_elems} inputs ({n_loads} loads, modulus, "
            f"{n_elems} areas), got {x.shape[1]}")
    modulus = x[:, n_loads]
    areas = x[:, n_loads + 1:]
    if np.any(modulus <= 0.0):
        raise DomainError("modulus must be positive")
    if np.any(areas <= 0.0):
        raise DomainError("member areas must be positive")

    nodes, elements = geometry.nodes, geometry.elements
    vec = nodes[elements[:, 1]] - nodes[elements[:, 0]]
    lengths = np.linalg.norm(vec, axis=1)
    lam = vec / lengths[:, None]
    ll = lam[:, :, None] * lam[:, None, :]
    blocks = np.concatenate(
        [np.concatenate([ll, -ll], axis=2), np.concatenate([-ll, ll], axis=2)],
        axis=1)  # (n_elems, 6, 6)

    ndof = 3 * nodes.shape[0]
    free = np.setdiff1d(np.arange(ndof), np.asarray(geometry.supports, dtype=np.int64))
    g2f = np.full(ndof, -1, dtype=np.int64)
    g2f[free] = np.arange(free.size)

    n = x.shape[0]
    nf = free.size
    stiffness = np.zeros((n, nf, nf))
    dofs = np.empty((n_elems, 6), dtype=np.int64)
    dofs[:, :3] = 3 * elements[:, :1] + np.arange(3)
    dofs[:, 3:] = 3 * elements[:, 1:] + np.arange(3)
    for e in range(n_elems):
        fd = g2f[dofs[e]]
        keep = fd >= 0
        if not keep.any():
            continue
        idx = fd[keep]
        sub = blocks[e][np.ix_(keep, keep)]
        coef = modulus * areas[:, e] / lengths[e]
        stiffness[:, idx[:, None], idx[None, :]] += coef[:, None, None] * sub

    force = np.zeros((n, nf))
    for col, (label, node, axis, sign) in enumerate(geometry.loads):
        fd = g2f[3 * node + axis]
        if fd < 0:
            raise ParameterError(f"load {label} acts on a fixed DOF")
        force[:, fd] += sign * x[:, col]

    try:
        disp = np.linalg.solve(stiffness, force[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"mechanism: constrained stiffness is singular ({exc})")
    if not np.all(np.isfinite(disp)):
        raise NumericalError("mechanism: constrained stiffness is singular")

    axis_of_free = free % 3
    horiz_part = np.abs(disp[:, axis_of_free != 2])
    vert_part = np.abs(disp[:, axis_of_free == 2])
    horiz = horiz_part.max(axis=1) if horiz_part.shape[1] else np.zeros(n)
    vert = vert_part.max(axis=1) if vert_part.shape[1] else np.zeros(n)
    return horiz, vert


def truss_limit_state_values(x: np.ndarray, geometry: TrussGeometry,
                             u0: float = ALLOWABLE_DISPLACEMENT) -> np.ndarray:
    horiz, vert = truss_solve(x, geometry)
    return u0 - np.maximum(horiz, vert)


def truss_state(geometry: TrussGeometry | None = None,
                u0: float = ALLOWABLE_DISPLACEMENT) -> LimitState:
    geo = geometry if geometry is not None else default_geometry()
    return LimitState(name="truss", dim=8 + geo.elements.shape[0],
                      fn=lambda x: truss_limit_state_values(x, geo, u0))


# (name, mean, sd, kind) in input order P1..P7, E, A1..A25
def _truss_table():
    rows = [("P1", 1000.0, 100.0, "lognormal")]
    rows += [(f"P{i}", 10000.0, 500.0, "normal") for i in range(2, 6)]
    rows += [("P6", 600.0, 60.0, "lognormal"), ("P7", 500.0, 50.0, "lognormal"),
             ("E", 1e7, 5e5, "lognormal")]
    area_groups = [(1, 1, 0.4), (2, 5, 0.1), (6, 9, 3.4), (10, 11, 0.4),
                   (12, 13, 1.3), (14, 17, 0.9), (18, 21, 1.0), (22, 25, 3.4)]
    for lo, hi, mean in area_groups:
        rows += [(f"A{i}", mean, 0.1 * mean, "lognormal") for i in range(lo, hi + 1)]
    return rows


def truss_model() -> ProbabilisticModel:
    return ProbabilisticModel(tuple(
        Marginal(kind=kind, mean=mean, sd=sd, name=name)
        for name, mean, sd, kind in _truss_table()))


TRUSS_MEAN_VALUES = np.array([row[1] for row in _truss_table()])
