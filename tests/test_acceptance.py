"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The two census grids (criteria 2 and 3) are computed once in module-scoped
fixtures and their converged states are reused by the oracle, lemma and
identity criteria (4, 6, 7).
"""

import math
import time

import numpy as np
import pytest

from ccfour import (MassVector, balanced_residuals, cayley_gradient,
                    census, cc_residuals, check_lemma2_albouy,
                    check_lemma3_sign, check_lemma4_orderings, dilate_state,
                    newton_solve, newtonian_oracle, oriented_areas, psi_prime,
                    q_residuals, realize, scaling_transform, seed_state,
                    sign_det, solve_kite, squared_distances, t_values)
from ccfour.jsonio import dumps
from ccfour.verifier import potential
from conftest import random_convex_config

RESOLUTION = 8

THEOREM1_GRID = [(round(0.2 * i, 1), round(0.2 * j, 1))
                 for i in range(1, 6) for j in range(1, 11)]
THEOREM2_GRID = [round(0.1 * k, 1) for k in range(1, 31)]


def report(criterion: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion} ({description}): {status}"
          + (f"  [{detail}]" if detail else ""))
    assert ok, f"criterion {criterion} ({description}): {detail}"


@pytest.fixture(scope="module")
def theorem1_census():
    out = {}
    for alpha, beta in THEOREM1_GRID:
        m = MassVector(alpha=alpha, beta=beta)
        out[(alpha, beta)] = census(m, RESOLUTION)
    return out


@pytest.fixture(scope="module")
def theorem2_census():
    out = {}
    for alpha in THEOREM2_GRID:
        m = MassVector(alpha=alpha, beta=alpha)
        out[alpha] = census(m, RESOLUTION)
    return out


@pytest.fixture(scope="module")
def square_report():
    m = MassVector(alpha=1.0, beta=1.0)
    base = np.array([1.0, 0.5, 0.5, 0.5, 0.5, 1.0])
    perturbed = base * (1.0 + 1e-2 * np.array([0.6, -0.9, 0.3, -0.2,
                                               0.8, -0.5]))
    return newton_solve(seed_state(perturbed, m), m)


def all_states(theorem1_census, theorem2_census, square_report):
    pairs = [(square_report.state, MassVector(alpha=1.0, beta=1.0))]
    for (alpha, beta), rep in theorem1_census.items():
        m = MassVector(alpha=alpha, beta=beta)
        pairs.extend((cls.state, m) for cls in rep.classes)
    for alpha, rep in theorem2_census.items():
        m = MassVector(alpha=alpha, beta=alpha)
        pairs.extend((cls.state, m) for cls in rep.classes)
    return pairs


def test_criterion_1_square_golden_values(square_report):
    start = time.perf_counter()
    st = square_report.state
    ok = square_report.converged and square_report.symmetry == "square"
    # rescale the inertia-one solution to unit side
    unit = dilate_state(st, 1.0 / math.sqrt(st.sq.b))
    nu_exact = 1.0 - 2.0 ** -1.5
    xi_exact = -(2.0 ** -2.5) - nu_exact / 4.0
    err_nu = abs(unit.nu - nu_exact)
    err_xi = abs(unit.xi - xi_exact)
    m = MassVector(alpha=1.0, beta=1.0)
    lam, _ = newtonian_oracle(realize(unit.sq, m), m)
    err_lam = abs(lam - (-(4.0 + math.sqrt(2.0)) / 2.0))
    elapsed = time.perf_counter() - start
    ok = ok and err_nu < 1e-9 and err_xi < 1e-9 and err_lam < 1e-9
    report(1, "square golden values", ok,
           f"nu err {err_nu:.2e}, xi err {err_xi:.2e}, "
           f"lambda err {err_lam:.2e}, {elapsed:.2f}s")


def test_criterion_2_theorem1_census(theorem1_census):
    kite_family = {"kite_axis_34", "rhombus", "square"}
    worst_gap = 0.0
    failures = []
    for (alpha, beta), rep in theorem1_census.items():
        if len(rep.classes) != 1:
            failures.append(f"({alpha},{beta}): {len(rep.classes)} classes")
            continue
        cls = rep.classes[0]
        if cls.symmetry.label not in kite_family:
            failures.append(f"({alpha},{beta}): label {cls.symmetry.label}")
        scale_sq = float(np.mean(cls.state.sq))
        gap = abs(cls.state.areas[0] - cls.state.areas[1]) / scale_sq
        worst_gap = max(worst_gap, gap)
        if gap > 1e-8:
            failures.append(f"({alpha},{beta}): delta gap {gap:.2e}")
    report(2, "theorem 1 census, unique kite", not failures,
           failures[0] if failures else
           f"{len(theorem1_census)} points, worst delta gap {worst_gap:.2e}")


def test_criterion_3_theorem2_census(theorem2_census):
    failures = []
    worst = 0.0
    for alpha, rep in theorem2_census.items():
        if len(rep.classes) != 1:
            failures.append(f"alpha={alpha}: {len(rep.classes)} classes")
            continue
        cls = rep.classes[0]
        want = "square" if alpha == 1.0 else "rhombus"
        if cls.symmetry.label != want:
            failures.append(f"alpha={alpha}: label {cls.symmetry.label}")
        r = np.sqrt(np.asarray(cls.state.sq))
        scale = math.sqrt(float(np.mean(cls.state.sq)))
        gap = (max(r[1:5]) - min(r[1:5])) / scale
        worst = max(worst, gap)
        if gap > 1e-9:
            failures.append(f"alpha={alpha}: side gap {gap:.2e}")
    report(3, "theorem 2 census, unique rhombus", not failures,
           failures[0] if failures else
           f"{len(theorem2_census)} points, worst side gap {worst:.2e}")


def test_criterion_4_oracle_equivalence(theorem1_census, theorem2_census,
                                        square_report):
    worst_resid = 0.0
    worst_energy = 0.0
    failures = []
    for st, m in all_states(theorem1_census, theorem2_census, square_report):
        p = realize(st.sq, m)
        lam, resid = newtonian_oracle(p, m)
        worst_resid = max(worst_resid, resid)
        if resid > 1e-8 or lam >= 0:
            failures.append(f"oracle resid {resid:.2e}, lambda {lam:.3e}")
        u = potential(p, m)
        rel = abs(lam * p.moment_of_inertia() + u) / abs(u)
        worst_energy = max(worst_energy, rel)
        if rel > 1e-10:
            failures.append(f"lambda*I + U relative {rel:.2e}")
    report(4, "Newtonian oracle equivalence", not failures,
           failures[0] if failures else
           f"worst oracle resid {worst_resid:.2e}, "
           f"worst lambda*I+U {worst_energy:.2e}")


def test_criterion_5_dziobek_gradient(rng):
    pairs = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
    worst = 0.0
    for _ in range(100):
        p = random_convex_config(rng)
        sq = squared_distances(p)
        areas = np.asarray(oriented_areas(p))
        grad = cayley_gradient(sq)
        expected = np.array([32.0 * areas[i] * areas[j] for i, j in pairs])
        rel = float(np.max(np.abs(grad - expected) / np.abs(expected)))
        worst = max(worst, rel)
    report(5, "Dziobek gradient identity", worst < 1e-6,
           f"worst relative error {worst:.2e} over 100 quadrilaterals")


def test_criterion_6_lemma_suites(theorem1_census, theorem2_census,
                                  square_report):
    pairs = all_states(theorem1_census, theorem2_census, square_report)
    failures = []
    min_nu = min(st.nu for st, _ in pairs)
    if min_nu <= 0:
        failures.append(f"min nu {min_nu:.3e}")
    albouy = check_lemma2_albouy(pairs)
    if not albouy.passed:
        failures.append(f"Albouy violation {albouy.worst_violation:.2e}")
    lemma3 = check_lemma3_sign(trials=1000)
    if not lemma3.passed:
        failures.append(f"lemma 3 violation {lemma3.worst_violation:.2e}")
    spot = sign_det(3, 2, 1, psi_prime(3), psi_prime(2), psi_prime(1))
    if abs(spot - 0.2426717) > 1e-6:
        failures.append(f"spot value {spot:.8f}")
    lemma4 = check_lemma4_orderings(trials=1000, states=pairs)
    if not lemma4.passed:
        failures.append(f"lemma 4 violation {lemma4.worst_violation:.2e}")
    report(6, "lemma suites", not failures,
           failures[0] if failures else
           f"min nu {min_nu:.3f}, {len(pairs)} states, "
           f"spot value {spot:.7f}")


def test_criterion_7_balanced_identities(theorem1_census, theorem2_census,
                                         square_report):
    worst = 0.0
    failures = []
    for st, m in all_states(theorem1_census, theorem2_census, square_report):
        scale = math.sqrt(float(np.mean(st.sq)))
        q = np.max(np.abs(q_residuals(t_values(st.sq, st.areas),
                                      st.areas, m)))
        ap1 = np.max(np.abs(balanced_residuals(st.sq, m, form="appendix1")))
        ap2 = np.max(np.abs(balanced_residuals(st.sq, m, form="appendix2")))
        rearranged = np.max(np.abs(balanced_residuals(
            st.sq, m, form="appendix2")[2:4]))
        top = max(q, ap1, ap2, rearranged) / scale
        worst = max(worst, top)
        if top > 1e-9:
            failures.append(f"residual {top:.2e} at masses {m.masses}")
    report(7, "balanced-configuration identities", not failures,
           failures[0] if failures else f"worst residual {worst:.2e}")


def test_criterion_8_scaling_invariance(square_report):
    m_sq = MassVector(alpha=1.0, beta=1.0)
    kite = solve_kite(MassVector(alpha=0.5, beta=0.8))
    cases = [(square_report.state, m_sq),
             (kite.state, MassVector(alpha=0.5, beta=0.8))]
    failures = []
    worst_res = 0.0
    worst_lam = 0.0
    for st, m in cases:
        lam0, _ = newtonian_oracle(realize(st.sq, m), m)
        for eta in (0.1, 8.0, 1000.0):
            st2, m2 = scaling_transform(st, m, eta)
            # residuals compared at the scale of the transformed equations
            res = np.max(np.abs(cc_residuals(st2, m2)))
            rel = res / np.max(np.abs([psi_prime(s) for s in st2.sq]))
            worst_res = max(worst_res, rel)
            if rel > 1e-12:
                failures.append(f"eta={eta}: cc residual {rel:.2e}")
            lam2, _ = newtonian_oracle(realize(st2.sq, m2), m2)
            dl = abs(lam2 - lam0) / abs(lam0)
            worst_lam = max(worst_lam, dl)
            if dl > 1e-10:
                failures.append(f"eta={eta}: lambda drift {dl:.2e}")
    report(8, "scaling invariance", not failures,
           failures[0] if failures else
           f"worst residual {worst_res:.2e}, worst lambda drift "
           f"{worst_lam:.2e}")


def test_criterion_9_determinism():
    m = MassVector(alpha=0.5, beta=0.8)
    first = dumps(census(m, resolution=6).to_json_dict())
    second = dumps(census(m, resolution=6).to_json_dict())
    ok = first == second
    report(9, "census determinism", ok,
           f"{len(first)} bytes, byte-identical" if ok else "outputs differ")
