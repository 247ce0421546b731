"""Simply supported two-material beam under six point loads.

A rectangular wood section A x B carries an aluminium strip C x D fastened to
its bottom face.  Using the transformed-section method (aluminium scaled by
the modular ratio Ea/Ew), K is the neutral-axis depth measured from the top
fibre and I_eff the transformed second moment of area.  The bending stress is
evaluated at the third load position.

Units: lengths mm, loads kN, moduli GPa; kN mm / mm^3 = GPa, so stress is
scaled by 1000 into MPa to compare against the allowable stress S.
"""

from __future__ import annotations

import numpy as np

from ..errors import DomainError
from ..probspace import Marginal, ProbabilisticModel
from ..reliability import LimitState

# (name, mean, sd, kind, truncation interval)
_TABLE = (
    ("A", 100.0, 0.2, "normal", (99.4, 100.6)),
    ("B", 200.0, 0.2, "normal", (199.4, 200.6)),
    ("C", 80.0, 0.2, "normal", (79.4, 80.6)),
    ("D", 20.0, 0.2, "normal", (19.4, 20.6)),
    ("L1", 200.0, 1.0, "normal", (197.0, 203.0)),
    ("L2", 400.0, 1.0, "normal", (397.0, 403.0)),
    ("L3", 600.0, 1.0, "normal", (597.0, 603.0)),
    ("L4", 800.0, 1.0, "normal", (797.0, 803.0)),
    ("L5", 1000.0, 1.0, "normal", (997.0, 1003.0)),
    ("L6", 1200.0, 1.0, "normal", (1197.0, 1203.0)),
    ("L", 1400.0, 2.0, "normal", (1394.0, 1406.0)),
    ("P1", 15.0, 1.5, "gumbel", (5.0, 19.0)),
    ("P2", 15.0, 1.5, "gumbel", (5.0, 19.0)),
    ("P3", 15.0, 1.5, "gumbel", (5.0, 19.0)),
    ("P4", 15.0, 1.5, "gumbel", (5.0, 19.0)),
    ("P5", 15.0, 1.5, "gumbel", (5.0, 19.0)),
    ("P6", 15.0, 1.5, "gumbel", (5.0, 19.0)),
    ("Ea", 70.0, 7.0, "normal", (49.0, 91.0)),
    ("Ew", 8.75, 0.875, "normal", (6.125, 11.375)),
    ("S", 21.0, 2.1, "gumbel", (16.0, 35.0)),
)

MEAN_VALUES = np.array([row[1] for row in _TABLE])


def section_constant(a, b, c, d, ea, ew):
    """Neutral-axis depth of the transformed two-material section."""
    ratio = ea / ew
    denom = a * b + ratio * d * c
    if np.any(denom <= 0.0):
        raise DomainError("degenerate cross section: nonpositive transformed area")
    return (0.5 * a * b**2 + ratio * d * c * (b + 0.5 * d)) / denom


def beam_stress(x: np.ndarray) -> np.ndarray:
    """Bending stress in MPa at the third load position."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    a, b, c, d = x[:, 0], x[:, 1], x[:, 2], x[:, 3]
    li = x[:, 4:10]
    span = x[:, 10]
    p = x[:, 11:17]
    ea, ew = x[:, 17], x[:, 18]
    ratio = ea / ew
    k = section_constant(a, b, c, d, ea, ew)
    i_eff = (a * b**3 / 12.0 + a * b * (k - 0.5 * b) ** 2
             + ratio * c * d**3 / 12.0 + ratio * d * c * (b + 0.5 * d - k) ** 2)
    if np.any(i_eff <= 0.0):
        raise DomainError("degenerate cross section: nonpositive second moment")
    l3 = li[:, 2]
    reaction = np.sum(p * (span[:, None] - li), axis=1) / span
    moment = reaction * l3 - p[:, 0] * (l3 - li[:, 0]) - p[:, 1] * (l3 - li[:, 1])
    return moment * k / i_eff * 1000.0


def beam_limit_state_values(x: np.ndarray) -> np.ndarray:
    x = np.atleast_2d(np.asarray(x, dtype=float))
    return x[:, 19] - beam_stress(x)


def beam_state() -> LimitState:
    return LimitState(name="beam", dim=20, fn=beam_limit_state_values)


def beam_model(truncated: bool = True) -> ProbabilisticModel:
    marginals = []
    for name, mean, sd, kind, interval in _TABLE:
        marginals.append(Marginal(kind=kind, mean=mean, sd=sd,
                                  truncation=interval if truncated else None,
                                  name=name))
    return ProbabilisticModel(tuple(marginals))
