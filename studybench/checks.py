"""Correctness checks on one study's ``results.csv``.

A study passes when ``sasrel run`` returned 0 and its table holds exactly the
``mcs``, ``spce`` and ``sas-hpcfe`` rows with the audited true-model budget,
the expected subspace rank, and a ``sas-hpcfe`` reliability index within
``BETA_ERR_GATE_PCT`` of the same run's Monte Carlo reference (the gate of
the acceptance tests AC3-AC5).  Byte-identity across studies of one seed and
BLAS thread count is checked by the caller, which sees every study.
"""

from __future__ import annotations

import csv
import io

METHODS = ("mcs", "spce", "sas-hpcfe")
BETA_ERR_GATE_PCT = 3.0


def parse_results(text: str) -> dict[str, dict[str, str]]:
    rows = list(csv.DictReader(io.StringIO(text)))
    return {row["method"]: row for row in rows}


def check_study(rc: int | None, text: str | None, study: dict,
                rank: tuple[int, int]) -> list[str]:
    """Reasons this study failed; empty when it passed.

    ``study`` is the config the study ran with; ``rank`` the inclusive range
    the ``sas-hpcfe`` subspace rank must fall in.
    """
    if rc != 0:
        return [f"sasrel run returned {rc}"]
    if text is None:
        return ["results.csv missing"]
    lines = [ln for ln in text.splitlines()[1:] if ln.strip()]
    rows = parse_results(text)
    if len(lines) != len(METHODS) or sorted(rows) != sorted(METHODS):
        return [f"expected rows {list(METHODS)}, got {[ln.split(',')[0] for ln in lines]}"]
    problems = []
    budget = {"mcs": study["n_mcs"], "spce": study["n_train"],
              "sas-hpcfe": study["n_train"]}
    for method, expected in budget.items():
        got = rows[method]["n_model_evals"]
        if got != str(expected):
            problems.append(f"{method} n_model_evals {got} != {expected}")
    r = rows["sas-hpcfe"]["r"]
    lo, hi = rank
    if not r.isdigit() or not lo <= int(r) <= hi:
        problems.append(f"sas-hpcfe r={r or 'missing'} outside [{lo}, {hi}]")
    err = beta_err_pct(rows, "sas-hpcfe")
    if err is None or not err <= BETA_ERR_GATE_PCT:
        problems.append(f"sas-hpcfe beta error {err}% > {BETA_ERR_GATE_PCT}%")
    return problems


def beta_err_pct(rows: dict[str, dict[str, str]], method: str) -> float | None:
    """The ``eps_vs_mcs_pct`` column of one row, or None when blank."""
    value = rows.get(method, {}).get("eps_vs_mcs_pct", "")
    return float(value) if value else None
