import dataclasses
import json
import math

import numpy as np
import pytest

from ccfour import (CollisionError, DomainError, DziobekState,
                    LeftConvexRegion, MassVector, OrientedAreas, PlanarConfig,
                    SingularJacobian, SquaredDistances, SymmetryLabel,
                    balanced_residuals, census, check_lemma1_nu_positive,
                    check_lemma2_albouy, check_lemma3_sign,
                    check_lemma4_orderings, check_theorem_identities,
                    newton_solve, newtonian_oracle, psi_prime, realize,
                    run_theorem1_suite, run_theorem2_suite, solve_kite,
                    solve_rhombus)
from ccfour import cli, verifier
from ccfour.verifier import (_CASE_PERMUTATION,
                             lemma4_product_chain_violation)
from conftest import potential, unit_square_config

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


# case-(a) patterns Delta_1 < Delta_2 < 0 < Delta_3 < Delta_4: s > 0 and
# s < 0 with a chain that holds and one that fails, an exact tie and a
# tie within TIE_TOL
LEMMA4_PATTERNS = [(-6.0, -4.0, 3.0, 7.0), (-1.0, -0.4, 0.6, 0.8),
                   (-1.0, -0.9, 0.1, 0.2), (-0.8, -0.3, 0.3, 0.8),
                   (-0.8, -0.3, 0.3 + 2.0 ** -45, 0.8 - 2.0 ** -44)]


@pytest.mark.parametrize("case", "abcd")
def test_lemma4_violation_scales_with_the_quadruple(case):
    """Scaling a quadruple by 2**-43 scales its violation by exactly
    2**-86, the products' scale, ties included: (-6, -4, 3, 7) 1e-13 is
    no tie and holds its chain."""
    for pattern in LEMMA4_PATTERNS + [tuple(1e-13 * d
                                            for d in LEMMA4_PATTERNS[0])]:
        deltas = [0.0] * 4
        for p, d in zip(_CASE_PERMUTATION[case], pattern):
            deltas[p] = d
        scaled = [d * 2.0 ** -43 for d in deltas]
        assert (lemma4_product_chain_violation(scaled, case)
                == lemma4_product_chain_violation(deltas, case) * 2.0 ** -86)
    assert lemma4_product_chain_violation(deltas, case) <= 0


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


def test_lemma4_distance_chain_flags_a_case_a_state():
    """A state whose areas order as case (a), strictly, is checked against
    that case's distance chain: here d = 4 exceeds a = 3."""
    st = DziobekState(sq=SquaredDistances(3, 2, 1, 4, 2.5, 3.5),
                      areas=OrientedAreas(-2, -1, 1, 2.0001), nu=1.0, xi=0.0)
    result = check_lemma4_orderings(trials=10, rng_seed=3,
                                    states=[(st, EQUAL)])
    assert not result.passed
    assert result.details["distance_chain_states_checked"] == 1
    assert result.details["distance_chain_vacuous"] is False
    assert result.witnesses == [{"case": "a", "distance_chain": True,
                                 "state": st.to_json_dict(),
                                 "violation": 1}]
    assert result.worst_violation == 1


def test_theorem_identities_flag_a_state_off_the_kite():
    m = MassVector(alpha=0.5, beta=0.8)
    st = solve_kite(m).state
    sq = list(st.sq)
    sq[1] *= 1.01
    result = check_theorem_identities(
        dataclasses.replace(st, sq=SquaredDistances(*sq)), m)
    assert not result.passed
    assert "rearranged_residuals" in result.witnesses[0]
    assert result.worst_violation > 1e-3


def test_newton_solve_raises_on_a_seed_that_does_not_trilaterate():
    m = MassVector(alpha=0.5, beta=0.8)
    st = solve_kite(m).state
    seed = dataclasses.replace(st, sq=SquaredDistances(1, 1, 1, 4, 1, 1))
    with pytest.raises(LeftConvexRegion, match="^seed does not trilaterate "
                       "to a convex quadrilateral$"):
        newton_solve(seed, m)


def test_newton_solve_raises_when_the_iterate_leaves_the_convex_region(
        monkeypatch):
    """The unit square with the (0.5, 0.8) kite's multipliers converges,
    but its full first step leaves the convex region, so with one trial
    a step the iterate leaves it."""
    m = MassVector(alpha=0.5, beta=0.8)
    st = solve_kite(m).state
    seed = dataclasses.replace(st, sq=SquaredDistances(2, 1, 1, 1, 1, 2))
    assert newton_solve(seed, m).converged
    monkeypatch.setattr("ccfour.solver._MAX_BACKTRACKS", 1)
    with pytest.raises(LeftConvexRegion,
                       match="^iterate left the convex region$"):
        newton_solve(seed, m)


@pytest.mark.parametrize("field, value", [("nu", math.nan), ("xi", math.inf),
                                          ("nu", -math.inf)])
def test_newton_solve_refuses_a_multiplier_that_is_not_finite(field, value):
    m = MassVector(alpha=0.5, beta=0.8)
    seed = dataclasses.replace(solve_kite(m).state, **{field: value})
    with pytest.raises(DomainError, match="must be finite"):
        newton_solve(seed, m)


def test_newton_solve_raises_on_a_singular_jacobian(monkeypatch):
    """A linear solve that gives no finite correction, here every one."""
    m = MassVector(alpha=0.5, beta=0.8)
    st = solve_kite(m).state
    seed = dataclasses.replace(st, xi=st.xi * 1.01)
    monkeypatch.setattr("ccfour.solver._solve_linear", lambda jac, rhs: (
        np.full_like(rhs, np.nan), np.ones(rhs.shape[0], dtype=bool)))
    with pytest.raises(SingularJacobian):
        newton_solve(seed, m)


@pytest.fixture(scope="module")
def suite_reports():
    """The resolution-4 census at each theorem's point, (0.5, 0.8) and
    (0.7, 0.7): one kite and one rhombus class."""
    return {point: census(MassVector(*point), 4)
            for point in ((0.5, 0.8), (0.7, 0.7))}


def theorem1_doctorings(cls):
    """Each witness key of the theorem 1 suite and census classes that
    give it."""
    areas = list(cls.state.areas)
    areas[0] *= 1.01
    return {
        "classes": [cls, cls],
        "label": [dataclasses.replace(
            cls, symmetry=SymmetryLabel("asymmetric"))],
        "delta1_minus_delta2": [dataclasses.replace(cls, state=(
            dataclasses.replace(cls.state, areas=OrientedAreas(*areas))))],
        # a square is a central configuration only at equal masses
        "oracle_residual": [dataclasses.replace(cls, config=(
            unit_square_config(MassVector(alpha=0.5, beta=0.8))))],
    }


def theorem2_doctorings(cls):
    """Each witness key of the theorem 2 suite and census classes that
    give it."""
    sq = list(cls.state.sq)
    sq[1] *= 1.01
    return {
        "classes": [cls, cls],
        "label": [dataclasses.replace(
            cls, symmetry=SymmetryLabel("kite_axis_34"))],
        "side_gap": [dataclasses.replace(cls, state=(
            dataclasses.replace(cls.state, sq=SquaredDistances(*sq))))],
        "ratio": [dataclasses.replace(cls, frame=(
            dataclasses.replace(cls.frame, t=cls.frame.t * 1.01)))],
    }


@pytest.mark.parametrize("suite, point, doctorings, grid", [
    (run_theorem1_suite, (0.5, 0.8), theorem1_doctorings, [(0.5, 0.8)]),
    (run_theorem2_suite, (0.7, 0.7), theorem2_doctorings, [0.7]),
], ids=["theorem1", "theorem2"])
def test_theorem_suites_report_each_witness(monkeypatch, suite_reports,
                                            suite, point, doctorings, grid):
    """Each suite, given a census with two classes, a wrong label or a
    class that breaks one of its tests, fails with that witness only."""
    report = suite_reports[point]
    assert suite(grid, resolution=4).passed
    for key, classes in doctorings(report.classes[0]).items():
        bad = dataclasses.replace(report, classes=classes)
        monkeypatch.setattr(verifier, "census", lambda m, resolution: bad)
        result = suite(grid, resolution=4)
        assert not result.passed, key
        assert [key in w for w in result.witnesses] == [True], key


def test_verify_exits_1_with_a_theorem_witness(monkeypatch, capsys,
                                               suite_reports):
    report = suite_reports[(0.5, 0.8)]
    bad = dataclasses.replace(report, classes=report.classes * 2)
    monkeypatch.setattr(verifier, "census", lambda m, resolution: bad)
    code = cli.main(["verify", "--trials", "10", "--theorem1-grid",
                     "0.5,0.8"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 1
    assert doc["all_passed"] is False
    check = doc["checks"][-1]
    assert (check["name"], check["passed"]) == ("theorem1_unique_kite", False)
    assert check["witnesses"] == [{"alpha": 0.5, "beta": 0.8, "classes": 2}]
