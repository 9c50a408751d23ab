import math
import tracemalloc

import numpy as np
import pytest

from ccfour import (DomainError, DziobekState, LeftConvexRegion, MassVector,
                    NoConvergence, OrientedAreas, SolveOptions,
                    SquaredDistances, cc_residuals, cayley, newton_solve,
                    newtonian_oracle, realize, rhombus_ratio, seed_state,
                    solve_kite, solve_rhombus, squared_distances, sweep)
from ccfour.dziobek import cayley_many, pair_residuals_many, unit_inertia_sq
from ccfour.census import _seed_vectors, seed_grid
from ccfour.geometry import trilaterated_areas_many
from ccfour.solver import (_AREA_ORDER, _BLOCK, _BOUNDARY_PROBE,
                           _KITE_EMBED, _KITE_EQS, _MAX_BACKTRACKS, CONVERGED,
                           LEFT_CONVEX, NEAR_BOUNDARY, NO_CONVERGENCE,
                           SINGULAR, Residuals, SweepCell, _backtrack,
                           _brentq, _kite_seed_vectors, _newton_batch,
                           _polish, _rhombus_equation, _solve_linear,
                           seed_vector, seed_vectors)
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
    for bad in (0.0, -1e-12, math.inf, math.nan):
        with pytest.raises(ValueError, match="residual_tol"):
            SolveOptions(residual_tol=bad)
    for bad in (0, 2.5, 8.0, "8"):
        with pytest.raises(ValueError, match="max_iterations"):
            SolveOptions(max_iterations=bad)
    with pytest.raises(ValueError):
        SolveOptions(normalization="fix_b_two")
    assert SolveOptions(max_iterations=np.int64(5)).max_iterations == 5


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
    for alpha in (-1.0, 0.0, -math.inf, math.inf, math.nan):
        with pytest.raises(DomainError, match="positive and finite"):
            rhombus_ratio(alpha)


# 10^4 log-spaced masses, every mass of both acceptance grids and the ends
# of the float range
BRENT_ALPHAS = ([float(a) for a in np.geomspace(1e-8, 1e8, 10_001)]
                + [round(0.1 * k, 1) for k in range(1, 31)]
                + [5e-324, 1e-300, 1e300, 1.7e308])


def test_rhombus_ratio_is_scipy_brentq_bitwise():
    brentq = pytest.importorskip("scipy.optimize").brentq
    for alpha in BRENT_ALPHAS:
        want = brentq(lambda x: _rhombus_equation(x, alpha), 1e-6, 1e6,
                      xtol=1e-15, rtol=8.9e-16, maxiter=100)
        assert rhombus_ratio(alpha).hex() == want.hex(), alpha


def nan_above_two(x):
    return math.nan if x > 2.0 else x - 3.0


@pytest.mark.parametrize("f, bracket, maxiter, message", [
    (lambda x: _rhombus_equation(x, 0.5), (2.0, 1e6), 100, "no sign change"),
    (lambda x: _rhombus_equation(x, 0.5), (1e-6, 1e6), 3, "within 3 "),
    (nan_above_two, (1.0, 1e6), 100, "NaN"),
], ids=["no-sign-change", "no-convergence", "nan"])
def test_brentq_failures_are_domain_errors_where_scipy_raises(
        f, bracket, maxiter, message):
    brentq = pytest.importorskip("scipy.optimize").brentq
    with pytest.raises((ValueError, RuntimeError)):
        brentq(f, *bracket, xtol=1e-15, rtol=8.9e-16, maxiter=maxiter)
    with pytest.raises(DomainError, match=message) as exc:
        _brentq(f, *bracket, xtol=1e-15, rtol=8.9e-16, maxiter=maxiter)
    assert "\n" not in str(exc.value)


def test_brentq_returns_an_exact_zero_at_an_end():
    assert _brentq(lambda x: x - 1.0, 1.0, 2.0, 1e-15, 8.9e-16, 100) == 1.0
    assert _brentq(lambda x: x - 2.0, 1.0, 2.0, 1e-15, 8.9e-16, 100) == 2.0


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
    newton, valid = Residuals(m, "fix_inertia_one")(x)
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


def central_jacobian(fun, x, h_rel=1e-6):
    """Central differences of fun's residuals, one column at a time."""
    jac = np.empty(x.shape + (x.shape[1],))
    for j in range(x.shape[1]):
        h = h_rel * np.maximum(1.0, np.abs(x[:, j]))
        up, dn = x.copy(), x.copy()
        up[:, j] += h
        dn[:, j] -= h
        jac[:, :, j] = (fun(up)[0] - fun(dn)[0]) / (2.0 * h)[:, None]
    return jac


def assert_jacobian_matches_central_differences(fun, x):
    exact, near = fun.linearize(x)
    assert not near.any()
    oracle = central_jacobian(fun, x)
    assert np.isfinite(oracle).all()
    scale = np.abs(oracle).max(axis=(1, 2))
    err = np.abs(exact - oracle).max(axis=(1, 2))
    assert (err <= 1e-8 * scale).all(), err / scale


@pytest.mark.parametrize("normalization", ["fix_inertia_one", "fix_a_one"])
def test_exact_jacobian_of_the_full_system(rng, normalization):
    m = MassVector(alpha=0.4, beta=1.3)
    x = seed_vectors(np.array([random_sq(rng, m) for _ in range(20)]), m)
    x[:, 6:] *= rng.uniform(0.5, 2.0, size=(20, 2))  # off the fitted values
    fun = Residuals(m, normalization)
    assert_jacobian_matches_central_differences(fun, x)


@pytest.mark.parametrize("normalization", ["fix_inertia_one", "fix_a_one"])
def test_exact_jacobian_of_the_kite_system(normalization):
    m = MassVector(alpha=0.5, beta=0.8)
    fun = Residuals(m, normalization, eq_indices=_KITE_EQS,
                    embed=_KITE_EMBED)
    assert_jacobian_matches_central_differences(fun, _kite_seed_vectors(m))


def residuals_of_every_row(fun, x):
    """Reference for Residuals.__call__: every row evaluated, then NaN on
    the rows outside the convex region."""
    xf = x if fun.embed is None else x[:, fun.embed]
    sq = xf[:, :6]
    valid, areas = trilaterated_areas_many(sq)
    with np.errstate(all="ignore"):
        res = np.empty((x.shape[0], 8))
        res[:, :6] = pair_residuals_many(xf, areas, fun.inv_mm)
        res[:, 6] = cayley_many(sq) / 32.0
        gauged = np.multiply(sq.T, fun.gauge[:, None], order="C")
        res[:, 7] = gauged.sum(axis=0) - 1.0
    if fun.sel is not None:
        res = res[:, fun.sel]
    res[~valid] = np.nan
    return res, valid


def kite_lattice(m):
    """Kite seeds from near the axis to far from it, whose iterates reach
    the boundaries y3 = 0 and y4 = 0."""
    g = np.geomspace(0.05, 5.0, 8)
    sq = np.array([unit_inertia_sq([1.0, 0.25 + t * t, 0.25 + s * s,
                                    0.25 + t * t, 0.25 + s * s, (t + s) ** 2],
                                   m) for t in g for s in g])
    return seed_vectors(sq, m)[:, [0, 1, 2, 5, 6, 7]]


def first_newton_trials(fun, x0):
    """The line search's first four trial points, lam = 1 to 1/8, from the
    rows of x0 that Newton steps from."""
    res, valid = fun(x0)
    jac, near = fun.linearize(x0[valid])
    dx, singular = _solve_linear(jac, -res[valid][~near])
    x, dx = x0[valid][~near][~singular], dx[~singular]
    lam = 0.5 ** np.arange(4)
    return (x + lam[:, None, None] * dx).reshape(-1, x.shape[1])


def systems_and_trials(m, normalization):
    """Full system on the resolution-6 census lattice, kite system on
    kite_lattice, each with its first Newton trial points."""
    full = Residuals(m, normalization)
    kite = Residuals(m, normalization, eq_indices=_KITE_EQS,
                     embed=_KITE_EMBED)
    yield full, first_newton_trials(full, _seed_vectors(seed_grid(6, m), m))
    yield kite, first_newton_trials(kite, kite_lattice(m))


@pytest.mark.parametrize("normalization", ["fix_inertia_one", "fix_a_one"])
def test_residuals_evaluate_only_the_rows_inside_the_region(
        monkeypatch, normalization):
    """On trial points on both sides of the convex region's edge, the
    residuals are bitwise those of every row evaluated, NaN included, and
    the Cayley kernel sees exactly the rows inside."""
    seen = []

    def recorded(sq):
        seen.append(sq.copy())
        return cayley_many(sq)

    m = MassVector(alpha=0.5, beta=0.8)
    for fun, x in systems_and_trials(m, normalization):
        want, valid = residuals_of_every_row(fun, x)
        assert 0.1 < valid.mean() < 0.9
        seen.clear()
        monkeypatch.setattr("ccfour.solver.cayley_many", recorded)
        got, got_valid = fun(x)
        monkeypatch.undo()
        assert got.tobytes() == want.tobytes()
        assert got_valid.tolist() == valid.tolist()
        xf = x if fun.embed is None else x[:, fun.embed]
        assert len(seen) == 1
        assert seen[0].tobytes() == np.ascontiguousarray(
            xf[valid, :6]).tobytes()


@pytest.mark.parametrize("area", [1, 2, 3, 4])
def test_linearize_returns_the_jacobians_of_the_rows_it_keeps(area):
    """Across each area's boundary threshold, where linearize retires the
    rows nearest the edge, and on Newton trial points inside the region,
    its Jacobians are bitwise those of the rows it does not retire,
    linearized together and each alone (every row at the threshold, about
    64 spread over the trial points)."""
    m = MassVector(alpha=0.5, beta=0.8)
    cases = [(fun, x, True) for fun, x in rows_across_the_threshold(m, area)]
    if area == 1:
        cases += [(fun, x[fun(x)[1]], False)
                  for fun, x in systems_and_trials(m, "fix_inertia_one")]
    for fun, x, retires in cases:
        jac, near = fun.linearize(x)
        kept = np.flatnonzero(~near)
        assert kept.size and near.any() == retires
        again, again_near = fun.linearize(x[kept])
        assert not again_near.any()
        assert again.tobytes() == jac.tobytes()
        for j in range(0, kept.size, -(-kept.size // 64)):
            alone = fun.linearize(x[kept[j]:kept[j] + 1])[0]
            assert alone.tobytes() == jac[j].tobytes(), j


class Halfplane:
    """Residual x with the region x[1] < 1 as the convex region."""

    def __call__(self, x):
        valid = x[:, 1] < 1.0
        res = x.copy()
        res[~valid] = np.nan
        return res, valid


def sequential_backtrack(fun, x, dx, base2):
    """Reference: one row at a time, one halving per residual call."""
    n, k = x.shape
    accepted = np.zeros(n, dtype=bool)
    last_invalid = np.zeros(n, dtype=bool)
    x_new, res_new = x.copy(), np.full((n, k), np.nan)
    norm_new = np.full(n, np.nan)
    for i in range(n):
        lam = 1.0
        for _ in range(_MAX_BACKTRACKS):
            xt = x[i:i + 1] + lam * dx[i:i + 1]
            rt, vt = fun(xt)
            nt2 = np.sqrt(np.nansum(rt * rt, axis=1))
            if vt[0] and nt2[0] <= (1.0 - 1e-4 * lam) * base2[i]:
                accepted[i], last_invalid[i] = True, False
                x_new[i], res_new[i], norm_new[i] = xt[0], rt[0], nt2[0]
                break
            last_invalid[i] = not vt[0]
            lam *= 0.5
    return accepted, x_new, res_new, norm_new, last_invalid


# (x, dx) rows for Halfplane and the step each takes
CRAFTED_STEPS = [
    ((1.0, 0.0), (-1.0, 0.0), 1.0),            # full step
    ((1.0, 0.0), (-10.0, 0.0), 0.125),         # overshoots until lam = 1/8
    ((1.0, 0.0), (-1.0, 3.0), 0.125),          # invalid until lam = 1/4
    ((1.0, 0.0), (1.0, 0.0), None),            # ascent: NO_CONVERGENCE
    ((1.0, 0.5), (1.0, 1.0), None),            # invalid, then ascent
    ((1.0, 1.0 - 1e-13), (0.0, 1.0), None),    # never valid: LEFT_CONVEX
]


@pytest.mark.parametrize("budget", [6, 7, 64, 4096])
def test_batched_backtracking_matches_sequential_halving(rng, budget):
    fun = Halfplane()
    x = np.array([row[0] for row in CRAFTED_STEPS])
    dx = np.array([row[1] for row in CRAFTED_STEPS])
    extra_x = rng.uniform(-1.0, 0.99, size=(30, 2))
    extra_dx = rng.normal(size=(30, 2)) * 10.0 ** rng.uniform(-3, 3, (30, 1))
    x = np.concatenate([x, extra_x])
    dx = np.concatenate([dx, extra_dx])
    base2 = np.sqrt((x * x).sum(axis=1))
    got = _backtrack(fun, x, dx, base2, max(budget, x.shape[0]))
    want = sequential_backtrack(fun, x, dx, base2)
    for g, w in zip(got, want):
        assert np.array_equal(g, w, equal_nan=True)
    accepted, x_new, _, _, last_invalid = got
    for k, (x0, step, lam) in enumerate(CRAFTED_STEPS):
        if lam is None:
            assert not accepted[k]
        else:
            assert accepted[k]
            assert x_new[k].tolist() == (np.array(x0)
                                         + lam * np.array(step)).tolist()
    assert last_invalid[:6].tolist() == [False] * 5 + [True]
    assert not accepted[4:6].any()


def newton_rows(fun, x0, opts):
    """Final vector, status, iterations and residual of each row of
    _newton_batch, as bytes so that equality is bitwise."""
    x, status, iters, norm = _newton_batch(fun, x0, opts)
    return [(x[i].tobytes(), status[i], iters[i], norm[i].tobytes())
            for i in range(x0.shape[0])]


@pytest.mark.parametrize("normalization", ["fix_inertia_one", "fix_a_one"])
def test_each_row_of_newton_is_the_row_solved_alone(normalization):
    """A seed's Newton result does not depend on its batch mates: sampled
    census seeds of the full system and the kite seeds, each solved alone
    and inside its batch."""
    m = MassVector(alpha=0.5, beta=0.8)
    opts = SolveOptions(normalization=normalization)
    census_seeds = _seed_vectors(seed_grid(8, m), m)
    kite_fun = Residuals(m, normalization, eq_indices=_KITE_EQS,
                         embed=_KITE_EMBED)
    for fun, x0, sample in [
            (Residuals(m, normalization), census_seeds, range(0, 4096, 64)),
            (kite_fun, _kite_seed_vectors(m), range(9))]:
        batched = newton_rows(fun, x0, opts)
        for i in sample:
            assert newton_rows(fun, x0[i:i + 1], opts) == [batched[i]], i


def test_newton_linearizes_at_most_a_block_of_rows(monkeypatch):
    """A resolution-8 census lattice (4,096 seeds) is linearized in blocks
    of _BLOCK rows, never more, and every row ends bitwise as when the
    whole batch is one block."""
    rows = []
    linearize = Residuals.linearize

    def counted(self, x):
        rows.append(x.shape[0])
        return linearize(self, x)

    m = MassVector(alpha=0.5, beta=0.8)
    fun = Residuals(m, "fix_inertia_one")
    x0 = _seed_vectors(seed_grid(8, m), m)
    monkeypatch.setattr(Residuals, "linearize", counted)
    blocked = newton_rows(fun, x0, SolveOptions())
    assert max(rows) == _BLOCK
    monkeypatch.setattr("ccfour.solver._BLOCK", x0.shape[0])
    assert newton_rows(fun, x0, SolveOptions()) == blocked


def test_newton_rows_of_two_blocks_are_the_rows_solved_alone():
    """_BLOCK + 1 census seeds from across the lattice, two blocks: each
    row solved alone equals its row of the batch, on the rows next to the
    block edge and every 8th row (all 1,025 rows alone take 4.6 s on a
    2-vCPU machine)."""
    m = MassVector(alpha=0.5, beta=0.8)
    fun = Residuals(m, "fix_inertia_one")
    opts = SolveOptions()
    x0 = _seed_vectors(seed_grid(8, m), m)
    x0 = x0[np.linspace(0, x0.shape[0] - 1, _BLOCK + 1).round().astype(int)]
    batched = newton_rows(fun, x0, opts)
    for i in [0, _BLOCK - 1, _BLOCK, *range(1, _BLOCK, 8)]:
        assert newton_rows(fun, x0[i:i + 1], opts) == [batched[i]], i


def test_newton_peak_memory_is_bounded_by_the_block():
    """tracemalloc peak of Newton on the 4,096 seeds of a resolution-8
    census: 4.6 MB in blocks of 1,024 rows, 10.7 MB in one block."""
    m = MassVector(alpha=0.5, beta=0.8)
    fun = Residuals(m, "fix_inertia_one")
    x0 = _seed_vectors(seed_grid(8, m), m)
    tracemalloc.start()
    try:
        _newton_batch(fun, x0, SolveOptions())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6e6, peak


class Steered(Halfplane):
    """Halfplane with a chosen Jacobian for each of the first rows, and the
    rows among them that the boundary probe retires; as Residuals.linearize
    does, it returns the Jacobians of the other rows only."""

    def __init__(self, jac, near):
        self.jac, self.near = jac, near

    def linearize(self, x):
        near = self.near[:x.shape[0]]
        return self.jac[:x.shape[0]][~near], near


def test_newton_statuses_of_exhausted_and_singular_rows():
    """-I makes dx = x, an ascent direction: a row that stays valid ends
    NO_CONVERGENCE, one whose every trial leaves the region LEFT_CONVEX; a
    zero Jacobian is SINGULAR; +I converges in one step; a retired row is
    NEAR_BOUNDARY, and its NaN Jacobian, which would make any row it
    reached SINGULAR, is never solved."""
    x0 = np.array([(1.0, 0.0), (1.0, 0.0), (1.0, 1.0 - 1e-13), (1.0, 0.0),
                   (1.0, 0.5)])
    jac = np.array([-np.eye(2), np.full((2, 2), np.nan), -np.eye(2),
                    np.zeros((2, 2)), np.eye(2)])
    near = np.array([False, True, False, False, False])
    _, status, iters, _ = _newton_batch(Steered(jac, near), x0,
                                        SolveOptions(max_iterations=1))
    assert status.tolist() == [NO_CONVERGENCE, NEAR_BOUNDARY, LEFT_CONVEX,
                               SINGULAR, CONVERGED]
    assert iters.tolist() == [0, 0, 0, 0, 1]


# q3 and q4 of a convex quadrilateral with q1 = (0, 0) and q2 = (1, 0) that
# is `gap` away from the boundary where the area Delta_k vanishes: the
# diagonals cross gap short of q2 (k = 1) or past q1 (k = 2), or q4 (k = 3)
# or q3 (k = 4) is gap from the axis q1-q2
NEAR_AREA_ZERO = {
    1: lambda gap: ((1.2, 1.0), (0.8 - 2 * gap, -1.0)),
    2: lambda gap: ((-0.2, 1.0), (0.2 + 2 * gap, -1.0)),
    3: lambda gap: ((0.5, 1.0), (0.5, -gap)),
    4: lambda gap: ((0.5, gap), (0.5, -1.0)),
}


def near_boundary_vector(m, area, gap):
    """The start vector of the NEAR_AREA_ZERO quadrilateral."""
    pts = np.array([(0.0, 0.0), (1.0, 0.0), *NEAR_AREA_ZERO[area](gap)])
    sq = [float(((pts[i] - pts[j]) ** 2).sum()) for i, j in
          ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))]
    return seed_vector(sq, m)


def test_row_within_the_boundary_probe_is_near_boundary():
    m = MassVector(alpha=0.5, beta=0.8)
    fun = Residuals(m, "fix_inertia_one")
    x = np.array([near_boundary_vector(m, 1, 1e-9),
                  near_boundary_vector(m, 1, 1e-2)])
    assert fun(x)[1].all()
    assert fun.linearize(x)[1].tolist() == [True, False]
    _, status, _, _ = _newton_batch(fun, x[:1], SolveOptions())
    assert status.tolist() == [NEAR_BOUNDARY]
    with pytest.raises(LeftConvexRegion):
        _polish(x[0], m, SolveOptions())


def probed_near_boundary(fun, x):
    """Reference boundary probe: the rows of which one of the copies with
    one reduced unknown j that moves a squared distance moved by
    +-_BOUNDARY_PROBE * max(1, |x_j|) leaves the residuals' validity mask."""
    n, k = x.shape
    probes = np.repeat(x[None], 2 * fun.sq_cols.size, axis=0)
    for p, j in enumerate(fun.sq_cols):
        h = _BOUNDARY_PROBE * np.maximum(1.0, np.abs(x[:, j]))
        probes[2 * p, :, j] += h
        probes[2 * p + 1, :, j] -= h
    return ~fun(probes.reshape(-1, k))[1].reshape(-1, n).all(axis=0)


class ProbeChecked(Residuals):
    """Residuals whose linearize checks its mask against the reference
    probe, and that it returns one Jacobian for each row not marked, on
    every call, and counts the rows it saw and marked."""

    rows = marked = 0

    def linearize(self, x):
        jac, near = super().linearize(x)
        assert near.tolist() == probed_near_boundary(self, x).tolist()
        k = x.shape[1]
        assert jac.shape == (x.shape[0] - near.sum(), k, k)
        self.rows += x.shape[0]
        self.marked += int(near.sum())
        return jac, near


def test_boundary_test_matches_the_probe_on_every_census_iterate():
    m = MassVector(alpha=0.5, beta=0.8)
    fun = ProbeChecked(m, "fix_inertia_one")
    x0 = _seed_vectors(seed_grid(6, m), m)
    _, status, _, _ = _newton_batch(fun, x0, SolveOptions())
    assert fun.marked == (status == NEAR_BOUNDARY).sum() > 0
    assert fun.rows > x0.shape[0]


def test_boundary_test_matches_the_probe_on_every_kite_iterate():
    """Kite lattices from near the axis to far from it, so that iterates
    reach the boundaries y3 = 0 and y4 = 0."""
    m = MassVector(alpha=0.5, beta=0.8)
    x0 = kite_lattice(m)
    for normalization in ("fix_inertia_one", "fix_a_one"):
        fun = ProbeChecked(m, normalization, eq_indices=_KITE_EQS,
                           embed=_KITE_EMBED)
        _, status, _, _ = _newton_batch(fun, x0, SolveOptions())
        assert fun.marked == (status == NEAR_BOUNDARY).sum() > 0


# 24 gaps a decade, from well inside each threshold (about 7e-8 for Delta_1
# and Delta_2, 3e-4 for Delta_3 and Delta_4) to well outside it
THRESHOLD_GAPS = {1: np.geomspace(1.3e-10, 1.3e-2, 193),
                  3: np.geomspace(1.3e-6, 1.3e-1, 121)}
THRESHOLD_GAPS[2], THRESHOLD_GAPS[4] = THRESHOLD_GAPS[1], THRESHOLD_GAPS[3]


def rows_across_the_threshold(m, area):
    """Full and, where the quadrilateral is a kite, kite-reduced residual
    maps with rows across the boundary test's threshold of one area."""
    x = np.array([near_boundary_vector(m, area, gap)
                  for gap in THRESHOLD_GAPS[area]])
    yield Residuals(m, "fix_inertia_one"), x
    if area in (3, 4):
        yield (Residuals(m, "fix_inertia_one", eq_indices=_KITE_EQS,
                         embed=_KITE_EMBED), x[:, [0, 1, 2, 5, 6, 7]])


@pytest.mark.parametrize("area", [1, 2, 3, 4])
def test_boundary_test_matches_the_probe_across_each_area_threshold(area):
    m = MassVector(alpha=0.5, beta=0.8)
    for fun, x in rows_across_the_threshold(m, area):
        assert fun(x)[1].all()
        near = fun.linearize(x)[1]
        assert near.tolist() == probed_near_boundary(fun, x).tolist()
        assert near[0] and not near[-1]


@pytest.mark.parametrize("area", [1, 2, 3, 4])
def test_area_orders_are_pinned_by_the_probe(monkeypatch, area):
    """Halving Delta_3's or Delta_4's order of 2, or doubling Delta_1's or
    Delta_2's order of 1, moves the mask off the probe's."""
    m = MassVector(alpha=0.5, beta=0.8)
    order = _AREA_ORDER.copy()
    order[area - 1] = 3.0 - order[area - 1]
    monkeypatch.setattr("ccfour.solver._AREA_ORDER", order)
    for fun, x in rows_across_the_threshold(m, area):
        assert (fun.linearize(x)[1]
                != probed_near_boundary(fun, x)).any()
