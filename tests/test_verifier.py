import math

import numpy as np
import pytest

from ccfour import (CollisionError, DziobekState, MassVector, OrientedAreas,
                    PlanarConfig, SquaredDistances,
                    balanced_residuals, check_lemma1_nu_positive,
                    check_lemma2_albouy, check_lemma3_sign,
                    check_lemma4_orderings, check_theorem_identities,
                    newtonian_oracle, psi_prime, realize,
                    run_theorem1_suite, run_theorem2_suite, solve_kite,
                    solve_rhombus)
from ccfour.verifier import (lemma4_product_chain_violation, potential)
from conftest import unit_square_config

EQUAL = MassVector(alpha=1.0, beta=1.0)


def test_newtonian_oracle_square():
    lam, resid = newtonian_oracle(unit_square_config(), EQUAL)
    # unit side square: lambda = -(4 + sqrt 2)/2 at moment of inertia 2,
    # here rescaled to inertia 1, so multiplied by 2**1.5
    expected = -(4.0 + math.sqrt(2.0)) / 2.0
    side = math.dist(unit_square_config().points[0],
                     unit_square_config().points[2])
    assert lam * side ** 3 == pytest.approx(expected, rel=1e-12)
    assert resid < 1e-14


def test_newtonian_oracle_non_cc_has_misfit():
    pts = [[-1.0, 0.0], [1.0, 0.0], [0.3, 0.9], [0.1, -0.4]]
    _, resid = newtonian_oracle(PlanarConfig.from_points(pts, EQUAL), EQUAL)
    assert resid > 1e-2


def test_newtonian_oracle_collision():
    pts = [[-1.0, 0.0], [1.0, 0.0], [0.0, 5e-11], [0.0, -5e-11]]
    with pytest.raises(CollisionError):
        newtonian_oracle(PlanarConfig.from_points(pts, EQUAL), EQUAL)


def test_potential_square():
    val = potential(unit_square_config(), EQUAL)
    side = math.dist(unit_square_config().points[0],
                     unit_square_config().points[2])
    assert val == pytest.approx((4.0 + math.sqrt(2.0)) / side, rel=1e-12)


def test_oracle_at_kite_solution():
    m = MassVector(alpha=0.5, beta=0.8)
    st = solve_kite(m).state
    lam, resid = newtonian_oracle(realize(st.sq, m), m)
    assert resid < 1e-12
    assert lam < 0


def sample_states():
    out = []
    for alpha, beta in ((0.3, 0.9), (0.5, 0.8), (1.0, 1.0), (0.9, 0.2)):
        m = MassVector(alpha=alpha, beta=beta)
        out.append((solve_kite(m).state, m))
    return out


def test_lemma1_nu_positive_on_solutions():
    states = [st for st, _ in sample_states()]
    result = check_lemma1_nu_positive(states)
    assert result.passed
    assert result.details["min_nu"] > 0


def test_lemma1_flags_nonpositive_nu():
    bad = DziobekState(sq=SquaredDistances(2, 1, 1, 1, 1, 2),
                       areas=OrientedAreas(-0.5, -0.5, 0.5, 0.5),
                       nu=-1.0, xi=0.0)
    result = check_lemma1_nu_positive([bad])
    assert not result.passed
    assert result.worst_violation == -1.0


def test_lemma2_albouy_on_solutions():
    result = check_lemma2_albouy(sample_states())
    assert result.passed
    assert result.worst_violation <= 1e-12


def test_lemma2_flags_violation():
    # Delta ordering opposite to mass-scaled ordering is impossible at a
    # c.c.; construct it by hand
    st = DziobekState(sq=SquaredDistances(2, 1, 1, 1, 1, 2),
                      areas=OrientedAreas(-0.5, -0.5, 0.3, 0.7),
                      nu=1.0, xi=-1.0)
    m = MassVector(alpha=0.01, beta=10.0)
    result = check_lemma2_albouy([(st, m)])
    assert not result.passed


def test_lemma3_sign_randomized():
    result = check_lemma3_sign(trials=2000, rng_seed=7)
    assert result.passed
    assert result.details["trials"] == 2000


def test_lemma3_deterministic_given_seed():
    r1 = check_lemma3_sign(trials=200, rng_seed=11)
    r2 = check_lemma3_sign(trials=200, rng_seed=11)
    assert r1.worst_violation == r2.worst_violation


def test_lemma4_product_chain_case_a():
    # subcase d1 + d4 < 0
    assert lemma4_product_chain_violation([-1.0, -0.4, 0.6, 0.8], "a") <= 0
    # subcase d1 + d4 > 0
    assert lemma4_product_chain_violation([-0.7, -0.2, 0.1, 0.8], "a") <= 0
    # tie subcase d1 = -d4, d2 = -d3
    assert lemma4_product_chain_violation([-0.8, -0.3, 0.3, 0.8], "a") <= 0


def test_lemma4_rejects_wrong_case():
    with pytest.raises(ValueError):
        lemma4_product_chain_violation([-1.0, -0.4, 0.6, 0.8], "b")


def test_lemma4_randomized_all_cases():
    result = check_lemma4_orderings(trials=500, rng_seed=3)
    assert result.passed
    assert result.worst_violation <= 0


def test_lemma4_distance_chains_vacuous_at_solutions():
    result = check_lemma4_orderings(trials=50, rng_seed=3,
                                    states=sample_states())
    assert result.passed
    # kite solutions have Delta_1 = Delta_2, so no strict case applies
    assert result.details["distance_chain_vacuous"]


def test_theorem_identities_at_solutions():
    for st, m in sample_states():
        result = check_theorem_identities(st, m)
        assert result.passed, result.witnesses
        assert result.worst_violation < 1e-9


def test_theorem_identities_report_closed_form_error():
    m = MassVector(alpha=0.5, beta=0.8)
    st = solve_kite(m).state
    sq = list(st.sq)
    sq[3] = sq[1] * (1 + 1e-11)  # near-kite: bB - dD cancels to a few ulps
    doctored = DziobekState(sq=SquaredDistances(*sq), areas=st.areas,
                            nu=st.nu, xi=st.xi)
    b, d = sq[1], sq[3]
    bb, dd = b * psi_prime(b), d * psi_prime(d)
    want = 0.5 * (math.sqrt(b) - math.sqrt(d)) / math.sqrt(b * d)
    # the identity holds exactly; its error is a rounding of |bB| + |dD|
    closed_err = abs(bb - dd - want) / (abs(bb) + abs(dd))
    assert closed_err < 1e-13
    rearranged = balanced_residuals(sq, m, form="appendix2")[2:4]
    rearranged_err = np.max(np.abs(rearranged)) / math.sqrt(np.mean(sq))
    result = check_theorem_identities(doctored, m)
    assert result.passed, result.witnesses
    assert result.worst_violation == max(rearranged_err, closed_err)


def test_theorem1_suite_small_grid():
    grid = [(0.4, 0.7), (1.0, 0.6), (0.8, 0.8)]
    result = run_theorem1_suite(grid, resolution=4)
    assert result.passed, result.witnesses
    assert result.details["points"] == 3
    assert result.worst_violation < 1e-8


def test_theorem2_suite_small_grid():
    result = run_theorem2_suite([0.3, 1.0, 2.5], resolution=4)
    assert result.passed, result.witnesses
    assert result.worst_violation < 1e-9


def test_check_result_json():
    result = check_lemma3_sign(trials=50, rng_seed=1)
    d = result.to_json_dict()
    assert set(d) == {"name", "passed", "worst_violation", "witnesses",
                      "details"}
