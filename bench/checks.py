"""Output checks for every benchmark operation.

The tolerances are the theorem suites' own (ccfour.verifier), never looser.
The Newtonian oracle here is written out again from the squared distances,
so that it does not share code with the program it checks.  Every check
returns a list of problems; an operation with any problem has failed.
"""

from __future__ import annotations

import json
import math

import numpy as np

ORACLE_TOL = 1e-8  # run_theorem1_suite's oracle_tol
RATIO_TOL = 1e-9  # run_theorem2_suite's ratio tolerance
KITE_LABELS = {"kite_axis_34", "rhombus", "square"}
RHOMBUS_LABELS = {"rhombus", "square"}


def newtonian_oracle(sq, alpha: float, beta: float) -> tuple[float, float]:
    """(lambda, relative misfit) of M^-1 grad U = lambda q for masses
    (1, 1, alpha, beta) on the points trilaterated from (a, b, c, d, e, f).

    Bodies 1 and 2 sit at opposite vertices.  A state whose r34^2 does not
    match its trilateration is not planar; the mismatch then counts as
    misfit.
    """
    a, b, c, d, e, f = (float(v) for v in sq)
    if min(a, b, c, d, e, f) <= 0:
        return math.nan, math.inf
    r12 = math.sqrt(a)
    x3 = (a + b - d) / (2.0 * r12)
    x4 = (a + c - e) / (2.0 * r12)
    y3_sq, y4_sq = b - x3 * x3, c - x4 * x4
    if y3_sq <= 0 or y4_sq <= 0:
        return math.nan, math.inf
    q = np.array([[0.0, 0.0], [r12, 0.0], [x3, math.sqrt(y3_sq)],
                  [x4, -math.sqrt(y4_sq)]])
    w = np.array([1.0, 1.0, alpha, beta])
    q -= (w[:, None] * q).sum(axis=0) / w.sum()
    g = np.zeros((4, 2))
    for i in range(4):
        for j in range(4):
            if i != j:
                dq = q[j] - q[i]
                g[i] += w[j] * dq / float(np.linalg.norm(dq)) ** 3
    lam = float(g.ravel() @ q.ravel() / (q.ravel() @ q.ravel()))
    misfit = float(np.linalg.norm(g - lam * q) / np.linalg.norm(g))
    planarity = abs(float(np.sum((q[2] - q[3]) ** 2)) - f) / (
        (a + b + c + d + e + f) / 6.0)
    return lam, max(misfit, planarity)


def state_problems(sq, nu: float, label: str, alpha: float, beta: float,
                   ratio_ref: float | None) -> list[str]:
    """Label, nu > 0, oracle and (for alpha = beta) the rhombus ratio."""
    problems = []
    labels = RHOMBUS_LABELS if alpha == beta else KITE_LABELS
    if label not in labels:
        problems.append(f"label {label!r} not in {sorted(labels)}")
    if not nu > 0:
        problems.append(f"nu = {nu!r} is not positive")
    lam, resid = newtonian_oracle(sq, alpha, beta)
    if not (resid <= ORACLE_TOL and lam < 0):
        problems.append(f"oracle residual {resid:.3e}, lambda {lam:.6g}")
    if alpha == beta:
        ratio = math.sqrt(float(sq[5]) / float(sq[0]))  # r/p = r34 / r12
        if not abs(ratio - ratio_ref) <= RATIO_TOL:
            problems.append(f"rhombus ratio {ratio!r} vs {ratio_ref!r}")
    return problems


def census_problems(doc: dict, alpha: float, beta: float,
                    ratio_ref: float | None) -> list[str]:
    """Checks on a census report in its JSON form (CLI or to_json_dict)."""
    classes = doc.get("classes", [])
    if len(classes) != 1:
        return [f"{len(classes)} classes, expected 1"]
    cls = classes[0]
    state = cls["state"]
    return state_problems(state["sq"], state["nu"], cls["symmetry"],
                          alpha, beta, ratio_ref)


def cli_census_problems(returncode: int, stdout: str, alpha: float,
                        beta: float, ratio_ref: float | None) -> list[str]:
    """Checks on one `ccfour census` process: exit status, then output."""
    if returncode != 0:
        return [f"exit status {returncode}"]
    try:
        doc = json.loads(stdout)
    except ValueError as exc:
        return [f"output is not JSON: {exc}"]
    return census_problems(doc, alpha, beta, ratio_ref)


def sweep_row_problems(row: dict, ratio_ref: float | None) -> list[str]:
    """Checks on one SweepCell.to_row() row."""
    if row["symmetry"] == "failed":
        return [f"cell ({row['alpha']}, {row['beta']}) failed"]
    sq = [row[k] for k in "abcdef"]
    return state_problems(sq, row["nu"], row["symmetry"], row["alpha"],
                          row["beta"], ratio_ref)
