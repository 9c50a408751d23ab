import math

import numpy as np
import pytest

from ccfour import (DomainError, DziobekState, LeftConvexRegion, MassVector,
                    NoConvergence, OrientedAreas, SolveOptions,
                    SquaredDistances, cc_residuals, cayley, newton_solve,
                    newtonian_oracle, realize, rhombus_ratio, seed_state,
                    solve_kite, solve_rhombus, squared_distances, sweep)
from ccfour.dziobek import pair_residuals_many
from ccfour.geometry import trilaterated_areas_many
from ccfour.solver import (SweepCell, _residual_factory, seed_vector,
                           seed_vectors)
from conftest import random_convex_config

EQUAL = MassVector(alpha=1.0, beta=1.0)

# converged kite solution for (alpha, beta) = (0.5, 0.8), inertia one
KITE_SQ_05_08 = (0.9807551505367796, 0.6067691337878958, 0.6752286543612014,
                 0.6067691337878958, 0.6752286543612014, 1.580274671743504)
KITE_NU_05_08 = 1.816393978573303
KITE_XI_05_08 = -0.6907363815275088


def inertia(sq, m: MassVector) -> float:
    m1, m2, m3, m4 = m.masses
    w = np.array([m1 * m2, m1 * m3, m1 * m4,
                  m2 * m3, m2 * m4, m3 * m4]) / m.mprime
    return float(np.asarray(sq) @ w)


def test_solve_options_validation():
    with pytest.raises(ValueError):
        SolveOptions(residual_tol=0.0)
    with pytest.raises(ValueError):
        SolveOptions(max_iterations=0)
    with pytest.raises(ValueError):
        SolveOptions(normalization="fix_b_two")


def test_solve_kite_equal_masses_is_square():
    report = solve_kite(EQUAL)
    assert report.converged
    assert report.symmetry == "square"
    assert np.allclose(report.state.sq, (1, 0.5, 0.5, 0.5, 0.5, 1),
                       atol=1e-12)


def test_solve_kite_frozen_solution():
    m = MassVector(alpha=0.5, beta=0.8)
    report = solve_kite(m)
    assert report.converged
    assert report.symmetry == "kite_axis_34"
    assert np.allclose(report.state.sq, KITE_SQ_05_08, rtol=1e-10)
    assert report.state.nu == pytest.approx(KITE_NU_05_08, rel=1e-10)
    assert report.state.xi == pytest.approx(KITE_XI_05_08, rel=1e-10)
    assert report.final_residual < 1e-12


def test_solve_kite_solution_properties():
    m = MassVector(alpha=0.5, beta=0.8)
    st = solve_kite(m).state
    assert st.sq.b == st.sq.d and st.sq.c == st.sq.e
    assert st.nu > 0
    assert inertia(st.sq, m) == pytest.approx(1.0, abs=1e-12)
    assert abs(cayley(st.sq)) < 1e-10
    assert np.max(np.abs(cc_residuals(st, m))) < 1e-12
    lam, rel = newtonian_oracle(realize(st.sq, m), m)
    assert rel < 1e-10
    assert lam < 0


def test_newton_solve_from_perturbed_kite():
    m = MassVector(alpha=0.5, beta=0.8)
    sq = np.asarray(KITE_SQ_05_08) * (1.0 + 1e-2 * np.array(
        [0.7, -0.4, 0.9, 0.2, -0.8, 0.5]))
    report = newton_solve(seed_state(sq, m), m)
    assert report.converged
    assert np.allclose(report.state.sq, KITE_SQ_05_08, rtol=1e-9)
    assert report.final_residual < 1e-12


def test_newton_solve_exact_seed_zero_iterations():
    m = MassVector(alpha=0.5, beta=0.8)
    exact = solve_kite(m).state
    report = newton_solve(exact, m)
    assert report.iterations == 0
    assert report.converged


def test_newton_solve_iteration_cap():
    m = MassVector(alpha=0.5, beta=0.8)
    sq = np.asarray(KITE_SQ_05_08) * (1.0 + 5e-2)
    sq[0] *= 1.05
    with pytest.raises(NoConvergence):
        newton_solve(seed_state(sq, m), m, SolveOptions(max_iterations=1))


def test_newton_solve_fix_a_one():
    m = MassVector(alpha=0.5, beta=0.8)
    opts = SolveOptions(normalization="fix_a_one")
    sq = np.asarray(KITE_SQ_05_08) / KITE_SQ_05_08[0]
    report = newton_solve(seed_state(sq, m), m, opts)
    assert report.state.sq.a == pytest.approx(1.0, abs=1e-12)
    # same shape as the inertia-one solution, up to the dilation
    ratio = np.asarray(report.state.sq) / np.asarray(KITE_SQ_05_08)
    assert np.ptp(ratio) < 1e-9


def test_seed_state_rejects_degenerate_distances():
    with pytest.raises(LeftConvexRegion):
        seed_state((4.0, 1.0, 1.0, 1.0, 1.0, 0.01), EQUAL)


def test_seed_vectors_mark_rows_outside_the_convex_region():
    # r12 = r13 + r23 = 2: the face triangle 1-2-3 is degenerate
    bad = (4.0, 1.0, 1.0, 1.0, 1.0, 0.01)
    good = (1, 0.5, 0.5, 0.5, 0.5, 1)
    rows = seed_vectors(np.array([good, bad]), EQUAL)
    assert np.isfinite(rows[0]).all()
    assert np.isnan(rows[1, 6:]).all()
    assert rows[1, :6].tolist() == list(bad)
    with pytest.raises(LeftConvexRegion):
        seed_vector(bad, EQUAL)


def test_seed_vector_fits_multipliers():
    x = seed_vector((1, 0.5, 0.5, 0.5, 0.5, 1), EQUAL)
    st = seed_state((1, 0.5, 0.5, 0.5, 0.5, 1), EQUAL)
    assert np.max(np.abs(cc_residuals(st, EQUAL))) < 1e-12
    assert x[6] == pytest.approx(st.nu)


def test_rhombus_ratio_equal_masses():
    assert rhombus_ratio(1.0) == pytest.approx(1.0, abs=1e-12)


def test_rhombus_ratio_frozen_values():
    assert rhombus_ratio(0.5) == pytest.approx(1.3789615318543218, rel=1e-12)
    assert rhombus_ratio(2.0) == pytest.approx(0.72518339119676301, rel=1e-12)


def test_rhombus_ratio_relabel_symmetry(rng):
    for _ in range(25):
        alpha = float(rng.uniform(0.05, 20.0))
        assert rhombus_ratio(1.0 / alpha) == pytest.approx(
            1.0 / rhombus_ratio(alpha), rel=1e-10)


def test_rhombus_ratio_monotone_decreasing(rng):
    alphas = np.sort(rng.uniform(0.1, 10.0, size=30))
    ratios = [rhombus_ratio(a) for a in alphas]
    assert all(x > y for x, y in zip(ratios, ratios[1:]))


def test_rhombus_ratio_rejects_nonpositive():
    with pytest.raises(DomainError):
        rhombus_ratio(-1.0)


def test_solve_rhombus_matches_kite_solver():
    rep_r = solve_rhombus(0.7)
    rep_k = solve_kite(MassVector(alpha=0.7, beta=0.7))
    assert rep_r.symmetry == rep_k.symmetry == "rhombus"
    assert np.allclose(rep_r.state.sq, rep_k.state.sq, rtol=1e-10)
    assert rep_r.state.nu == pytest.approx(rep_k.state.nu, rel=1e-10)


def test_solve_rhombus_residuals(rng):
    for _ in range(10):
        alpha = float(rng.uniform(0.2, 5.0))
        m = MassVector(alpha=alpha, beta=alpha)
        st = solve_rhombus(alpha).state
        assert np.max(np.abs(cc_residuals(st, m))) < 1e-12
        assert inertia(st.sq, m) == pytest.approx(1.0, abs=1e-12)
        assert st.sq.b == st.sq.c == st.sq.d == st.sq.e


def test_solve_rhombus_fix_a_one():
    st = solve_rhombus(0.7, SolveOptions(normalization="fix_a_one")).state
    assert st.sq.a == 1.0


@pytest.mark.parametrize("alpha", [0.7, 1.0])
def test_solve_rhombus_and_kite_agree_at_fix_a_one(alpha):
    opts = SolveOptions(normalization="fix_a_one")
    rhombus = solve_rhombus(alpha, opts).state
    kite = solve_kite(MassVector(alpha=alpha, beta=alpha), opts).state
    assert np.allclose(rhombus.sq, kite.sq, rtol=1e-10)
    assert np.allclose(rhombus.areas, kite.areas, rtol=1e-10)
    assert rhombus.nu == pytest.approx(kite.nu, rel=1e-10)
    assert rhombus.xi == pytest.approx(kite.xi, rel=1e-10)


def random_sq(rng, m):
    return list(squared_distances(random_convex_config(rng, m)))


def test_seed_vector_is_a_row_of_seed_vectors(rng):
    m = MassVector(alpha=0.5, beta=0.8)
    sq = np.array([random_sq(rng, m) for _ in range(7)])
    rows = seed_vectors(sq, m)
    assert rows.shape == (7, 8)
    for k in range(7):
        assert seed_vector(sq[k], m).tolist() == rows[k].tolist()


def test_cc_residuals_are_the_newton_pair_rows(rng):
    """Scalar cc_residuals, the batched pair equations and the first six
    rows of Newton's residual are one computation."""
    m = MassVector(alpha=0.4, beta=1.3)
    x = seed_vectors(np.array([random_sq(rng, m) for _ in range(5)]), m)
    _, areas = trilaterated_areas_many(x[:, :6])
    batched = pair_residuals_many(x, areas, 1.0 / m.pair_weights)
    newton, valid = _residual_factory(m, "fix_inertia_one")(x)
    assert valid.all()
    assert newton[:, :6].tolist() == batched.tolist()
    for row, area_row, want in zip(x, areas, batched):
        state = DziobekState(SquaredDistances(*row[:6]),
                             OrientedAreas(*area_row), row[6], row[7])
        assert cc_residuals(state, m).tolist() == want.tolist()


def test_cc_residuals_rejects_nonpositive_distance():
    state = DziobekState(SquaredDistances(1, 1, 1, 1, 1, 0),
                         OrientedAreas(-0.5, -0.5, 0.5, 0.5), 1.0, -1.0)
    with pytest.raises(DomainError):
        cc_residuals(state, EQUAL)


def test_sweep_small_grid():
    cells = sweep([0.5, 1.0], [0.8, 1.0])
    assert len(cells) == 4
    assert [(c.alpha, c.beta) for c in cells] == [
        (0.5, 0.8), (0.5, 1.0), (1.0, 0.8), (1.0, 1.0)]
    assert all(c.report is not None and c.report.converged for c in cells)
    first = cells[0]
    assert np.allclose(first.report.state.sq, KITE_SQ_05_08, rtol=1e-9)
    last = cells[-1]
    assert last.report.symmetry == "square"


def test_sweep_row_schema():
    cell = sweep([0.5], [0.8])[0]
    row = cell.to_row()
    assert set(row) == {"alpha", "beta", "a", "b", "c", "d", "e", "f",
                        "nu", "xi", "lambda_cc", "symmetry", "iterations",
                        "residual"}
    assert row["lambda_cc"] < 0
    failed = SweepCell(0.5, 0.8, None, error="x").to_row()
    assert failed["symmetry"] == "failed"
    assert math.isnan(failed["nu"])


def test_sweep_rejects_bad_grids():
    with pytest.raises(ValueError):
        sweep([], [1.0])
    with pytest.raises(DomainError):
        sweep([0.5, -0.1], [1.0])
