import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ccfour import (CanonicalFrame, DomainError, DziobekState,
                    LeftConvexRegion, MassVector, NoConvergence,
                    OrientedAreas, SolveOptions, SquaredDistances,
                    cc_residuals, cayley, census, newton_solve,
                    newtonian_oracle, realize, rhombus_ratio, seed_state,
                    solve_kite, solve_rhombus, squared_distances, sweep)
from ccfour.dziobek import (_FACE_PARTNERS, PAIR_I, PAIR_J, cayley_many,
                            pair_residual_rows, psi_double_prime_many,
                            psi_prime_many)
from ccfour.census import _seed_vectors, seed_grid
from ccfour.cli import parse_grid
from ccfour.geometry import (trilaterated_area_derivative_rows,
                             trilaterated_area_rows)
from ccfour.solver import (_AREA_ORDER, _BLOCK, _BOUNDARY_PROBE,
                           _KITE_EMBED, _MAX_BACKTRACKS, CONVERGED,
                           LEFT_CONVEX, NEAR_BOUNDARY, NO_CONVERGENCE,
                           REJECTED, SINGULAR, Residuals, SweepCell,
                           _backtrack, _brentq, _kite_seed_vectors,
                           _newton_batch, _norm2, _norm_inf,
                           _polish, _rhombus_equation, _seed_vector,
                           _solve_linear, gauge_weights, gauged_sq,
                           seed_vectors, solve_batch)
from conftest import (derandomized, random_convex_config, seed_record,
                      trilaterate)

EQUAL = MassVector(alpha=1.0, beta=1.0)


def to_kite(x):
    """The kite system's unknowns (a, b, c, f, nu, xi) of full (n, 8)
    vectors."""
    return x[:, Residuals(EQUAL, "fix_a_one", embed=_KITE_EMBED).reduced]

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
    with pytest.raises(ValueError, match="^unknown normalization 'fix_b_two'$"):
        SolveOptions(normalization="fix_b_two")
    with pytest.raises(ValueError, match="^unknown normalization 'fix_b_two'$"):
        gauge_weights(EQUAL, "fix_b_two")
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
    rows, valid, _ = seed_vectors(np.array([good, bad]), EQUAL)
    assert valid.tolist() == [True, False]
    assert np.isfinite(rows[0]).all()
    assert np.isnan(rows[1, 6:]).all()
    assert rows[1, :6].tolist() == list(bad)
    with pytest.raises(LeftConvexRegion):
        _seed_vector(bad, EQUAL)


def test_seed_vector_fits_multipliers():
    x = _seed_vector((1, 0.5, 0.5, 0.5, 0.5, 1), EQUAL)[0][0]
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
    rows, valid, tri = seed_vectors(sq, m)
    assert rows.shape == (7, 8) and valid.all()
    for k in range(7):
        x, _, tri_k = _seed_vector(sq[k], m)
        assert x[0].tolist() == rows[k].tolist()
        assert tri_k[:, 0].tobytes() == tri[:, k].tobytes()


def test_cc_residuals_are_the_newton_pair_rows(rng):
    """Scalar cc_residuals, the batched pair equations and the first six
    rows of Newton's residual are one computation."""
    m = MassVector(alpha=0.4, beta=1.3)
    x = seed_vectors(np.array([random_sq(rng, m) for _ in range(5)]), m)[0]
    areas = trilaterated_area_rows(x[:, :6].T)[1][5:].T
    batched = pair_residual_rows(x.T, areas.T, 1.0 / m.pair_weights).T
    newton, valid, _ = Residuals(m, "fix_inertia_one")(x)
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


def realized_row(cell):
    """Reference for SweepCell.to_row: the oracle's lambda on the state
    realized again from its squared distances."""
    st = cell.report.state
    m = MassVector(alpha=cell.alpha, beta=cell.beta)
    lam_cc, _ = newtonian_oracle(realize(st.sq, m), m)
    return {"alpha": cell.alpha, "beta": cell.beta,
            **dict(zip("abcdef", st.sq)), "nu": st.nu, "xi": st.xi, "lambda_cc": lam_cc,
            "symmetry": cell.report.symmetry,
            "iterations": cell.report.iterations,
            "residual": cell.report.final_residual}


def bits(row):
    """A row with its floats as hex, so that equality is bitwise."""
    return [(k, v.hex() if isinstance(v, float) else v)
            for k, v in row.items()]


def test_to_row_is_the_realized_reference_on_the_readme_sweep():
    """Every cell of the README's sweep (alpha 0.2:1.0:0.2, beta
    0.2:2.0:0.2): to_row, from the configuration that solve_batch realized
    once, equals the row of the state realized again, bit for bit and key
    for key, and so do the points; as do the reports of solve_kite and
    solve_rhombus."""
    cells = sweep(parse_grid("0.2:1.0:0.2"), parse_grid("0.2:2.0:0.2"))
    assert len(cells) == 50 and all(c.report is not None for c in cells)
    m = MassVector(alpha=0.7, beta=0.7)
    cells += [SweepCell(0.7, 0.7, solve_kite(m)),
              SweepCell(0.7, 0.7, solve_rhombus(0.7))]
    for cell in cells:
        assert bits(cell.to_row()) == bits(realized_row(cell))
        m = MassVector(alpha=cell.alpha, beta=cell.beta)
        assert (cell.report.config.points.tobytes()
                == realize(cell.report.state.sq, m).points.tobytes())
        assert cell.report.config.masses == m


def test_sweep_rejects_bad_grids():
    with pytest.raises(ValueError):
        sweep([], [1.0])
    with pytest.raises(DomainError):
        sweep([0.5, -0.1], [1.0])


def report_bits(report):
    """A report's JSON fields, its floats as hex, and its points' bytes."""
    doc = report.to_json_dict()
    state = doc.pop("state")
    return (bits(doc), [bits(dict(enumerate(v))) if isinstance(v, list)
                        else v.hex() for v in state.values()],
            report.config.points.tobytes())


@pytest.mark.parametrize("alpha, beta, tol", [
    (0.2, 0.2, 1e-12), (0.4, 1.6, 1e-12), (1.0, 2.0, 1e-12),
    (0.6, 0.6, 1e-12), (3.0, 3.0, 1e-12), (0.1, 0.3, 1e-5),
    (0.5, 0.8, 1e-5)])
def test_solve_kite_is_the_first_accepted_row_of_the_nine_seeds(
        monkeypatch, alpha, beta, tol):
    """solve_kite solves seed 0 alone, and seeds 1-8 in one batch only
    where seed 0 is not accepted; its report is bitwise that of the first
    accepted row of the nine seeds in one batch, as solve_batch gives it
    from their trilateration afresh.  Seed 0 is accepted at every point;
    at tol 1e-5, at (0.1, 0.3) and (0.5, 0.8), all nine seeds converge,
    which planar rows alone may do.  With seed 0 marked as one that does
    not trilaterate, the second batch runs and reports seed 1."""
    m = MassVector(alpha=alpha, beta=beta)
    opts = SolveOptions(residual_tol=tol)
    fun = Residuals(m, opts.normalization, embed=_KITE_EMBED)
    x = _kite_seed_vectors(m)[0]
    nine = solve_batch(fun, seed_record(fun, to_kite(x)), m, opts)
    assert nine.status[0] == CONVERGED
    if tol == 1e-5:
        assert (nine.status == CONVERGED).all()
    batches = []

    def recorded(fun, seeds, *args):
        batches.append(seeds[0].shape[0])
        return solve_batch(fun, seeds, *args)

    monkeypatch.setattr("ccfour.solver.solve_batch", recorded)
    assert report_bits(solve_kite(m, opts)) == report_bits(nine.report(0))
    assert batches == [1]

    def spoilt(m):
        """The nine seeds' record, seed 0 marked as not trilaterating."""
        _, valid, tri = seed_record(fun, to_kite(x))
        valid[0] = False
        return x, valid, tri

    _, valid, tri = spoilt(m)
    nine = solve_batch(fun, (to_kite(x), valid, tri), m, opts)
    assert nine.status[0] == LEFT_CONVEX and nine.accepted[0] == 1
    monkeypatch.setattr("ccfour.solver._kite_seed_vectors", spoilt)
    assert report_bits(solve_kite(m, opts)) == report_bits(nine.report(0))
    assert batches == [1, 1, 8]


def row_bytes(sq):
    """The rows of (6, n) squared distances, as a set of bytes."""
    return {row.tobytes() for row in np.ascontiguousarray(sq.T)}


def test_each_seed_of_a_sweep_cell_and_a_census_is_trilaterated_once(
        monkeypatch):
    """The rows of each trilaterated_area_rows call of a two-cell sweep row
    and of a resolution-2 census.  The sweep's first cell fits the nine
    kite seeds (one call of 9 rows), solves seed 0 from that trilateration
    in 5 line-search calls, and polishes the kite with the full system
    from one trilateration of its state, converged at iteration 0; the
    warm-started cell fits its seed (one call) and takes 4 line-search
    calls.  The census's 16 seeds reach Newton with the trilateration
    that fitted them, so they are in the first call only.  The cells of
    a 20-cell sweep row are bitwise those of _polish from a fresh
    trilateration of each neighbour's seed vector; and the residuals of
    the census seeds under both gauges, and of the nine kite seeds through
    the kite embedding, from their fit's trilateration are bitwise those
    from a fresh one."""
    m = MassVector(alpha=0.5, beta=0.8)
    seeds = _seed_vectors(seed_grid(2, m).rows, m)[0][:, :6].T
    seen = []

    def counted(sq):
        seen.append(sq.copy())
        return trilaterated_area_rows(sq)

    monkeypatch.setattr("ccfour.solver.trilaterated_area_rows", counted)
    cells = sweep([0.5], [0.8, 0.9])
    assert [c.report.iterations for c in cells] == [0, 4]
    assert [sq.shape[1] for sq in seen] == [9] + [1] * 5 + [1] + [1] + [1] * 4
    seen.clear()
    census(m, 2)
    assert row_bytes(seen[0]) == row_bytes(seeds)
    assert not any(row_bytes(seeds) & row_bytes(sq) for sq in seen[1:])
    assert (len(seen), sum(sq.shape[1] for sq in seen)) == (213, 3095)
    monkeypatch.undo()
    opts = SolveOptions()
    cells = sweep([0.5], [round(0.1 * k, 1) for k in range(1, 21)], opts)
    for prev, cell in zip(cells, cells[1:]):
        m = MassVector(alpha=cell.alpha, beta=cell.beta)
        x0 = seed_vectors(np.asarray(prev.report.state.sq)[None, :], m)[0]
        fresh = seed_record(Residuals(m, opts.normalization), x0)
        assert report_bits(cell.report) == report_bits(_polish(fresh, m, opts))
    m = MassVector(alpha=0.5, beta=0.8)
    x, valid, tri = _kite_seed_vectors(m)
    for normalization in ("fix_inertia_one", "fix_a_one"):
        kite = Residuals(m, normalization, embed=_KITE_EMBED)
        for fun, (x0, *seed) in [
                (Residuals(m, normalization),
                 _seed_vectors(seed_grid(8, m).rows, m)),
                (kite, (x[:, kite.reduced], valid, tri))]:
            for got, want in zip(fun(x0, seed), fun(x0)):
                assert got.tobytes() == want.tobytes()


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


def linearized(fun, x):
    """fun.linearize of (n, k) rows, from the trilateration of their
    seed_record."""
    return fun.linearize(x, seed_record(fun, x)[2])


def assert_jacobian_matches_central_differences(fun, x):
    exact, near = linearized(fun, x)
    assert not near.any()
    oracle = central_jacobian(fun, x)
    assert np.isfinite(oracle).all()
    scale = np.abs(oracle).max(axis=(1, 2))
    err = np.abs(exact - oracle).max(axis=(1, 2))
    assert (err <= 1e-8 * scale).all(), err / scale


@pytest.mark.parametrize("normalization", ["fix_inertia_one", "fix_a_one"])
def test_exact_jacobian_of_the_full_system(rng, normalization):
    m = MassVector(alpha=0.4, beta=1.3)
    x = seed_vectors(np.array([random_sq(rng, m) for _ in range(20)]),
                     m)[0]
    x[:, 6:] *= rng.uniform(0.5, 2.0, size=(20, 2))  # off the fitted values
    fun = Residuals(m, normalization)
    assert_jacobian_matches_central_differences(fun, x)


@pytest.mark.parametrize("normalization", ["fix_inertia_one", "fix_a_one"])
def test_exact_jacobian_of_the_kite_system(normalization):
    m = MassVector(alpha=0.5, beta=0.8)
    fun = Residuals(m, normalization, embed=_KITE_EMBED)
    assert_jacobian_matches_central_differences(
        fun, to_kite(_kite_seed_vectors(m)[0]))


UNKNOWNS = ("a", "b", "c", "d", "e", "f", "nu", "xi")
EQUATIONS = ("cc12", "cc13", "cc14", "cc23", "cc24", "cc34", "S", "norm")


def test_kite_system_is_one_column_map():
    """On the kite (b = d, c = e), the first full column of each reduced
    unknown picks both the unknowns (a, b, c, f, nu, xi) and the equations
    kept; the equation of every full column is, through embed, that of
    its reduced column's first: cc23 and cc24 stand for their mirror
    images cc13 and cc14 under the swap of bodies 1 and 2."""
    fun = Residuals(EQUAL, "fix_inertia_one", embed=_KITE_EMBED)
    assert [UNKNOWNS[col] for col in fun.reduced] == [
        "a", "b", "c", "f", "nu", "xi"]
    assert [EQUATIONS[col] for col in fun.reduced] == [
        "cc12", "cc13", "cc14", "cc34", "S", "norm"]
    assert [EQUATIONS[fun.reduced[col]] for col in fun.embed] == [
        "cc12", "cc13", "cc14", "cc13", "cc14", "cc34", "S", "norm"]
    assert Residuals(EQUAL, "fix_inertia_one").reduced is None


@pytest.mark.parametrize("normalization", ["fix_inertia_one", "fix_a_one"])
def test_mirror_equations_repeat_at_solve_kite_states(normalization):
    """At solve_kite's state on acceptance points, the full system's rows
    cc23 and cc24 equal cc13 and cc14, and every full equation that of its
    reduced column's first full column, within 1e-15 of the residual
    scale: the largest term, |psi'(s)| or |xi|."""
    opts = SolveOptions(normalization=normalization)
    for alpha, beta in [(0.2, 0.2), (0.5, 0.8), (1.0, 2.0), (2.6, 2.6)]:
        m = MassVector(alpha=alpha, beta=beta)
        st = solve_kite(m, opts).state
        x = np.array([[*st.sq, st.nu, st.xi]])
        res, valid, _ = Residuals(m, normalization)(x)
        assert valid.all()
        scale = max(np.abs(psi_prime_many(x[:, :6])).max(), abs(st.xi))
        tol = 1e-15 * scale
        assert np.abs(res[0, 3:5] - res[0, 1:3]).max() <= tol
        kite = Residuals(m, normalization, embed=_KITE_EMBED)
        assert np.abs(res[0] - res[0, kite.reduced[kite.embed]]).max() <= tol


def residuals_of_every_row(fun, x):
    """Reference for Residuals.__call__: every row evaluated on (n, 8)
    columns, then NaN on the rows outside the convex region."""
    xf = x if fun.embed is None else x[:, fun.embed]
    sq = xf[:, :6]
    valid, tri = trilaterated_area_rows(sq.T)
    areas = tri[5:].T
    with np.errstate(all="ignore"):
        res = np.empty((x.shape[0], 8))
        res[:, :6] = (psi_prime_many(sq)
                      - xf[:, 6:7] * fun.inv_mm * areas[:, PAIR_I]
                      * areas[:, PAIR_J] - xf[:, 7:8])
        res[:, 6] = cayley_many(sq) / 32.0
        # along each row of (n, 6), as the kernel sums its (6, n) rows:
        # numpy sums six values left to right in either layout
        res[:, 7] = (sq * fun.gauge).sum(axis=1) - 1.0
    if fun.reduced is not None:
        res = res[:, fun.reduced]
    res[~valid] = np.nan
    return res, valid


def kite_lattice(m):
    """Kite seeds from near the axis to far from it, whose iterates reach
    the boundaries y3 = 0 and y4 = 0."""
    g = np.geomspace(0.05, 5.0, 8)
    sq = np.array([gauged_sq([1.0, 0.25 + t * t, 0.25 + s * s,
                              0.25 + t * t, 0.25 + s * s, (t + s) ** 2],
                             m, "fix_inertia_one") for t in g for s in g])
    return to_kite(seed_vectors(sq, m)[0])


def first_newton_trials(fun, x0):
    """The line search's first four trial points, lam = 1 to 1/8, from the
    rows of x0 that Newton steps from."""
    res, valid, _ = fun(x0)
    jac, near = linearized(fun, x0[valid])
    dx, singular = _solve_linear(jac, -res[valid][~near])
    x, dx = x0[valid][~near][~singular], dx[~singular]
    lam = 0.5 ** np.arange(4)
    return (x + lam[:, None, None] * dx).reshape(-1, x.shape[1])


def systems_and_trials(m, normalization):
    """Full system on the resolution-6 census lattice, kite system on
    kite_lattice, each with its first Newton trial points."""
    full = Residuals(m, normalization)
    kite = Residuals(m, normalization, embed=_KITE_EMBED)
    yield full, first_newton_trials(full,
                                    _seed_vectors(seed_grid(6, m).rows, m)[0])
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
        got, got_valid, _ = fun(x)
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
        jac, near = linearized(fun, x)
        kept = np.flatnonzero(~near)
        assert kept.size and near.any() == retires
        again, again_near = linearized(fun, x[kept])
        assert not again_near.any()
        assert again.tobytes() == jac.tobytes()
        for j in range(0, kept.size, -(-kept.size // 64)):
            alone = linearized(fun, x[kept[j]:kept[j] + 1])[0]
            assert alone.tobytes() == jac[j].tobytes(), j


class Halfplane:
    """Residual x with the region x[1] < 1 as the convex region, and x.T
    in place of the trilateration that Newton carries."""

    def __call__(self, x, seed=None):
        valid = x[:, 1] < 1.0
        res = x.copy()
        res[~valid] = np.nan
        return res, valid, x.T.copy()

    def planar(self, x, res):
        """Newton's planarity test: every row passes."""
        return np.ones(x.shape[0], dtype=bool)


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
            rt, vt, _ = fun(xt)
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
    accepted, x_new, _, _, last_invalid, tri_new = got
    # Halfplane's stand-in trilateration is x.T, picked with x
    assert tri_new[:, accepted].tobytes() == x_new[accepted].T.tobytes()
    for k, (x0, step, lam) in enumerate(CRAFTED_STEPS):
        if lam is None:
            assert not accepted[k]
        else:
            assert accepted[k]
            assert x_new[k].tolist() == (np.array(x0)
                                         + lam * np.array(step)).tolist()
    assert last_invalid[:6].tolist() == [False] * 5 + [True]
    assert not accepted[4:6].any()


def reference_norms(r):
    """The numpy reductions that _norm2 and _norm_inf stand for: the
    2-norm without NaN entries and the inf-norm with NaN propagated."""
    with np.errstate(all="ignore"):
        return (np.sqrt(np.nansum(r * r, axis=1)),
                np.max(np.abs(r), axis=1))


EDGE_ENTRIES = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
                2.2250738585072014e-308, -1.5e-310, 1.7976931348623157e308]


@pytest.mark.filterwarnings(
    "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
@derandomized(200)
@given(n=st.sampled_from([0, 1, 7, 4096]), k=st.sampled_from([6, 8]),
       seed=st.integers(0, 2 ** 32 - 1),
       edge_frac=st.sampled_from([0.0, 0.01, 0.3, 1.0]),
       nan_rows=st.integers(0, 3),
       low=st.integers(-160, 160), span=st.integers(0, 320),
       drawn=st.lists(st.floats(), max_size=16))
def test_norm_helpers_are_the_numpy_reductions_bitwise(
        n, k, seed, edge_frac, nan_rows, low, span, drawn):
    """_norm2 and _norm_inf equal the reductions they replace bit for bit
    on C-ordered (n, k) residuals with magnitudes from 1e-160 to 1e160,
    NaN, +-inf, +-0 and subnormal entries, all-NaN rows and drawn floats."""
    rng = np.random.default_rng(seed)
    exp = rng.uniform(low, min(low + span, 160), size=(n, k))
    r = rng.choice([-1.0, 1.0], size=(n, k)) * 10.0 ** exp
    edge = rng.random((n, k)) < edge_frac
    r[edge] = rng.choice(EDGE_ENTRIES, size=edge.sum())
    r[rng.integers(0, n, size=nan_rows if n else 0)] = math.nan
    r.flat[:len(drawn)] = drawn[:r.size]
    norm2, norm_inf = reference_norms(r)
    with np.errstate(all="ignore"):
        assert _norm2(r).tobytes() == norm2.tobytes()
        assert _norm_inf(r).tobytes() == norm_inf.tobytes()


def test_nan_multiplier_seed_never_converges():
    """The seeds of a resolution-2 census at (0.5, 0.8), inside the convex
    region, with nu = NaN: their S and gauge rows are within the tolerance,
    but a NaN entry makes a row's inf-norm NaN, so no row converges at
    iteration 0; each ends SINGULAR, with residual NaN."""
    m = MassVector(alpha=0.5, beta=0.8)
    fun = Residuals(m, "fix_inertia_one")
    x0, valid, tri = _seed_vectors(seed_grid(2, m).rows, m)
    res, valid, _ = fun(x0, (valid, tri))
    assert valid.all() and (np.abs(res[:, 6:]) < 1e-12).all()
    x0[:, 6] = math.nan
    x, status, iters, norm, *_ = _newton_batch(fun, (x0, valid, tri),
                                               SolveOptions())
    assert (status == SINGULAR).all() and (iters == 0).all()
    assert np.isnan(norm).all()


def solved_alone(jac, rhs):
    """Reference for _solve_linear: np.linalg.solve on each row alone, NaN
    where the row is not finite or its matrix is singular."""
    dx = np.full_like(rhs, np.nan)
    for i in range(rhs.shape[0]):
        if np.isfinite(jac[i]).all() and np.isfinite(rhs[i]).all():
            try:
                dx[i] = np.linalg.solve(jac[i], rhs[i])
            except np.linalg.LinAlgError:
                pass
    return dx, ~np.isfinite(dx).all(axis=1)


def test_solve_linear_is_each_row_solved_alone():
    """Newton blocks of a census lattice: all finite, solved in one call;
    with an exactly singular matrix, which makes the batched solve raise;
    and with that matrix, a NaN Jacobian and an inf right-hand side.  dx
    is each row's own np.linalg.solve bitwise, and exactly the rows left
    without one are singular."""
    m = MassVector(alpha=0.5, beta=0.8)
    fun = Residuals(m, "fix_inertia_one")
    x = _seed_vectors(seed_grid(4, m).rows, m)[0]
    res, valid, _ = fun(x)
    jac, near = linearized(fun, x[valid])
    rhs = -res[valid][~near]
    assert jac.shape[0] > 100
    singular_jac = jac.copy()
    singular_jac[11, 4] = 0.0  # a zero row: LAPACK raises on it
    mixed_jac, mixed_rhs = singular_jac.copy(), rhs.copy()
    mixed_jac[3, 2, 5] = math.nan
    mixed_rhs[7, 1] = math.inf
    for jac, rhs, want_singular in [(jac, rhs, []),
                                    (singular_jac, rhs, [11]),
                                    (mixed_jac, mixed_rhs, [3, 7, 11])]:
        dx, singular = _solve_linear(jac, rhs)
        want_dx, want_mask = solved_alone(jac, rhs)
        assert np.flatnonzero(want_mask).tolist() == want_singular
        assert singular.tolist() == want_mask.tolist()
        assert dx.tobytes() == want_dx.tobytes()


def test_solve_linear_on_the_jacobian_view_is_that_of_a_c_ordered_copy():
    """linearize returns the (n, k, k) transposed view of its (k, k, n)
    assembly, and the batched solve copies each matrix into LAPACK's
    layout, so dx is bitwise that of a C-ordered copy: on the first Newton
    block of a resolution-8 census, and on the fallback paths of a block
    with an exactly singular matrix, a NaN Jacobian and an inf
    right-hand side."""
    m = MassVector(alpha=0.5, beta=0.8)
    fun = Residuals(m, "fix_inertia_one")
    x = _seed_vectors(seed_grid(8, m).rows, m)[0][:_BLOCK]
    res, valid, _ = fun(x)
    jac, near = linearized(fun, x[valid])
    rhs = -res[valid][~near]
    assert not jac.flags.c_contiguous and jac.shape[0] > 500
    mixed = jac.transpose(1, 2, 0).copy().transpose(2, 0, 1)
    mixed[11, 4] = 0.0
    mixed[3, 2, 5] = math.nan
    mixed_rhs = rhs.copy()
    mixed_rhs[7, 1] = math.inf
    for view, b in [(jac, rhs), (mixed, mixed_rhs)]:
        assert view.transpose(1, 2, 0).flags.c_contiguous
        dx, singular = _solve_linear(view, b)
        want_dx, want_singular = _solve_linear(np.ascontiguousarray(view), b)
        assert dx.tobytes() == want_dx.tobytes()
        assert singular.tolist() == want_singular.tolist()
    assert np.flatnonzero(singular).tolist() == [3, 7, 11]


def newton_rows(fun, x0, opts):
    """Final vector, status, iterations and residual of each row of
    _newton_batch from their seed_record, as bytes so that equality is
    bitwise."""
    x, status, iters, norm, *_ = _newton_batch(fun, seed_record(fun, x0),
                                               opts)
    return [(x[i].tobytes(), status[i], iters[i], norm[i].tobytes())
            for i in range(x0.shape[0])]


@pytest.mark.parametrize("normalization", ["fix_inertia_one", "fix_a_one"])
def test_each_row_of_newton_is_the_row_solved_alone(normalization):
    """A seed's Newton result does not depend on its batch mates: sampled
    census seeds of the full system and the kite seeds, each solved alone
    and inside its batch."""
    m = MassVector(alpha=0.5, beta=0.8)
    opts = SolveOptions(normalization=normalization)
    census_seeds = _seed_vectors(seed_grid(8, m).rows, m)[0]
    kite_fun = Residuals(m, normalization, embed=_KITE_EMBED)
    for fun, x0, sample in [
            (Residuals(m, normalization), census_seeds, range(0, 4096, 64)),
            (kite_fun, to_kite(_kite_seed_vectors(m)[0]), range(9))]:
        batched = newton_rows(fun, x0, opts)
        for i in sample:
            assert newton_rows(fun, x0[i:i + 1], opts) == [batched[i]], i


class CountedCalls(Residuals):
    """Residuals that counts its calls."""

    calls = 0

    def __call__(self, x, seed=None):
        self.calls += 1
        return super().__call__(x, seed)


def test_rows_of_whole_and_backtracking_batches_are_the_rows_alone():
    """Four kites at (0.5, 0.8) moved by up to 1% take lam = 1 on every row
    at each of their three iterations, so each line search is one residual
    call and Newton adopts its arrays whole; with two census seeds beside
    them, one that backtracks and one that ends NEAR_BOUNDARY, rows step
    apart.  Either way each row ends bitwise as when solved alone."""
    m = MassVector(alpha=0.5, beta=0.8)
    opts = SolveOptions()
    kite = np.array([*KITE_SQ_05_08, KITE_NU_05_08, KITE_XI_05_08])
    rng = np.random.default_rng(3)
    moved = seed_vectors(kite[:6] * (1 + 1e-2 * rng.uniform(-1, 1, (4, 6))),
                         m)[0]
    seeds = _seed_vectors(seed_grid(8, m).rows, m)[0][[485, 194]]
    whole = CountedCalls(m, "fix_inertia_one")
    rows = newton_rows(whole, moved, opts)
    assert [(status, iters) for _, status, iters, _ in rows] == \
        [(CONVERGED, 3)] * 4
    assert whole.calls == 1 + 3
    mixed = CountedCalls(m, "fix_inertia_one")
    x0 = np.concatenate([moved, seeds])
    rows = newton_rows(mixed, x0, opts)
    assert [status for _, status, _, _ in rows] == \
        [CONVERGED] * 5 + [NEAR_BOUNDARY]
    assert mixed.calls > 1 + max(iters for _, _, iters, _ in rows)
    for i, row in enumerate(rows):
        assert newton_rows(whole, x0[i:i + 1], opts) == [row], i


def test_newton_linearizes_at_most_a_block_of_rows(monkeypatch):
    """A resolution-8 census lattice (4,096 seeds) is linearized in blocks
    of _BLOCK rows, never more, and every row ends bitwise as when the
    whole batch is one block."""
    rows = []
    linearize = Residuals.linearize

    def counted(self, x, tri):
        rows.append(x.shape[0])
        return linearize(self, x, tri)

    m = MassVector(alpha=0.5, beta=0.8)
    fun = Residuals(m, "fix_inertia_one")
    x0 = _seed_vectors(seed_grid(8, m).rows, m)[0]
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
    x0 = _seed_vectors(seed_grid(8, m).rows, m)[0]
    x0 = x0[np.linspace(0, x0.shape[0] - 1, _BLOCK + 1).round().astype(int)]
    batched = newton_rows(fun, x0, opts)
    for i in [0, _BLOCK - 1, _BLOCK, *range(1, _BLOCK, 8)]:
        assert newton_rows(fun, x0[i:i + 1], opts) == [batched[i]], i


def test_newton_peak_memory_is_bounded_by_the_block():
    """tracemalloc peak of Newton on the 4,096 seeds of a resolution-8
    census: 5.3 MB in blocks of 1,024 rows, 10.3 MB in one block."""
    m = MassVector(alpha=0.5, beta=0.8)
    fun = Residuals(m, "fix_inertia_one")
    seeds = _seed_vectors(seed_grid(8, m).rows, m)
    tracemalloc.start()
    try:
        _newton_batch(fun, seeds, SolveOptions())
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

    def linearize(self, x, tri):
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
    fun = Steered(jac, near)
    _, status, iters, *_ = _newton_batch(fun, (x0, *fun(x0)[1:]),
                                         SolveOptions(max_iterations=1))
    assert status.tolist() == [NO_CONVERGENCE, NEAR_BOUNDARY, LEFT_CONVEX,
                               SINGULAR, CONVERGED]
    assert iters.tolist() == [0, 0, 0, 0, 1]


class Offplane(Steered):
    """Steered whose planarity test passes only the rows with x[0] = 0,
    and records the rows it is given."""

    def __init__(self, jac, near):
        super().__init__(jac, near)
        self.tested = []

    def planar(self, x, res):
        self.tested.append(x.tolist())
        return x[:, 0] == 0.0


@pytest.mark.parametrize("tol", [1e-12, 1e300])
def test_newton_stops_only_on_planar_rows(tol):
    """+I takes both rows to 0 in one step.  Below the tolerance, a row
    with x[0] = 0 converges where it starts, and one with x[0] = 1 steps
    on; the planarity test sees only the rows below the tolerance."""
    x0 = np.array([(0.0, 0.5), (1.0, 0.5)])
    fun = Offplane(np.array([np.eye(2)] * 2), np.zeros(2, dtype=bool))
    _, status, iters, *_ = _newton_batch(fun, (x0, *fun(x0)[1:]),
                                         SolveOptions(residual_tol=tol))
    assert status.tolist() == [CONVERGED, CONVERGED]
    if tol == 1e300:
        assert iters.tolist() == [0, 1]
        assert fun.tested == [x0.tolist(), [[0.0, 0.0]]]
    else:
        assert iters.tolist() == [1, 1]
        assert fun.tested == [[[0.0, 0.0], [0.0, 0.0]]]


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
    return _seed_vector(sq, m)[0][0]


def test_row_within_the_boundary_probe_is_near_boundary():
    m = MassVector(alpha=0.5, beta=0.8)
    fun = Residuals(m, "fix_inertia_one")
    x = np.array([near_boundary_vector(m, 1, 1e-9),
                  near_boundary_vector(m, 1, 1e-2)])
    assert fun(x)[1].all()
    assert linearized(fun, x)[1].tolist() == [True, False]
    _, status, *_ = _newton_batch(fun, seed_record(fun, x[:1]),
                                  SolveOptions())
    assert status.tolist() == [NEAR_BOUNDARY]
    with pytest.raises(LeftConvexRegion):
        _polish(seed_record(fun, x[:1]), m, SolveOptions())


def probed_near_boundary(fun, x):
    """Reference boundary probe: the rows of which one of the copies with
    one reduced unknown j that moves a squared distance (every unknown but
    nu and xi) moved by +-_BOUNDARY_PROBE * max(1, |x_j|) leaves the
    residuals' validity mask."""
    n, k = x.shape
    probes = np.repeat(x[None], 2 * (k - 2), axis=0)
    for j in range(k - 2):
        h = _BOUNDARY_PROBE * np.maximum(1.0, np.abs(x[:, j]))
        probes[2 * j, :, j] += h
        probes[2 * j + 1, :, j] -= h
    return ~fun(probes.reshape(-1, k))[1].reshape(-1, n).all(axis=0)


class ProbeChecked(Residuals):
    """Residuals whose linearize checks its mask against the reference
    probe, and that it returns one Jacobian for each row not marked, on
    every call, and counts the rows it saw and marked."""

    rows = marked = 0

    def linearize(self, x, tri):
        jac, near = super().linearize(x, tri)
        assert near.tolist() == probed_near_boundary(self, x).tolist()
        k = x.shape[1]
        assert jac.shape == (x.shape[0] - near.sum(), k, k)
        self.rows += x.shape[0]
        self.marked += int(near.sum())
        return jac, near


def test_boundary_test_matches_the_probe_on_every_census_iterate():
    m = MassVector(alpha=0.5, beta=0.8)
    fun = ProbeChecked(m, "fix_inertia_one")
    seeds = _seed_vectors(seed_grid(6, m).rows, m)
    _, status, *_ = _newton_batch(fun, seeds, SolveOptions())
    assert fun.marked == (status == NEAR_BOUNDARY).sum() > 0
    assert fun.rows > seeds[0].shape[0]


def test_boundary_test_matches_the_probe_on_every_kite_iterate():
    """Kite lattices from near the axis to far from it, so that iterates
    reach the boundaries y3 = 0 and y4 = 0."""
    m = MassVector(alpha=0.5, beta=0.8)
    x0 = kite_lattice(m)
    for normalization in ("fix_inertia_one", "fix_a_one"):
        fun = ProbeChecked(m, normalization, embed=_KITE_EMBED)
        _, status, *_ = _newton_batch(fun, seed_record(fun, x0),
                                      SolveOptions())
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
        yield (Residuals(m, "fix_inertia_one", embed=_KITE_EMBED), to_kite(x))


@pytest.mark.parametrize("area", [1, 2, 3, 4])
def test_boundary_test_matches_the_probe_across_each_area_threshold(area):
    m = MassVector(alpha=0.5, beta=0.8)
    for fun, x in rows_across_the_threshold(m, area):
        assert fun(x)[1].all()
        near = linearized(fun, x)[1]
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
        assert (linearized(fun, x)[1]
                != probed_near_boundary(fun, x)).any()


# Reference for Residuals.linearize, in the dense (n, ...) layout: each
# derivative of the areas taken along the full unit vectors of (a..f), the
# (n, 6, 8) pair Jacobian with its zero columns, and the Cayley gradient
# summed along (n, 6) rows.

# True where the derivative of Delta_k along column j of (a..f) is not
# identically zero: Delta_1 and Delta_2 move with a..e, Delta_3 with a, c
# and e, Delta_4 with a, b and d
AREA_DERIVATIVE_MOVES = np.zeros((4, 6), dtype=bool)
AREA_DERIVATIVE_MOVES[:2, :5] = True
AREA_DERIVATIVE_MOVES[2, [0, 2, 4]] = True
AREA_DERIVATIVE_MOVES[3, [0, 1, 3]] = True


def dense_area_derivatives(sq):
    """(n, 4, 6) derivatives of the trilaterated areas of (n, 6) squared
    distances with respect to (a..f)."""
    pts, _ = trilaterate(sq)
    r12, x3, y3, x4, y4m = (v[:, None] for v in (
        pts[:, 1, 0], pts[:, 2, 0], pts[:, 2, 1], pts[:, 3, 0],
        -pts[:, 3, 1]))
    with np.errstate(all="ignore"):
        half = 0.5 / r12
        unit = np.eye(6)
        dr12 = half * unit[0]
        dx3 = half * (unit[0] + unit[1] - unit[3]) - (x3 / r12) * dr12
        dx4 = half * (unit[0] + unit[2] - unit[4]) - (x4 / r12) * dr12
        dy3 = (0.5 * unit[1] - x3 * dx3) / y3
        dy4m = (0.5 * unit[2] - x4 * dx4) / y4m
        dmag2 = 0.5 * (dx3 * y4m + x3 * dy4m + dx4 * y3 + x4 * dy3)
        dmag3 = 0.5 * (dr12 * y4m + r12 * dy4m)
        dmag4 = 0.5 * (dr12 * y3 + r12 * dy3)
        dmag1 = dmag3 + dmag4 - dmag2
    return np.stack([-dmag1, -dmag2, dmag3, dmag4], axis=1)


def dense_pair_jacobian(x, areas, d_areas, inv_mm):
    """(n, 6, 8) derivatives of the pair equations of (n, 8) vectors."""
    di, dj = areas[:, PAIR_I], areas[:, PAIR_J]
    d_product = (d_areas[:, PAIR_I] * dj[:, :, None]
                 + di[:, :, None] * d_areas[:, PAIR_J])
    jac = np.empty((x.shape[0], 6, 8))
    jac[:, :, :6] = -(x[:, 6, None] * inv_mm)[:, :, None] * d_product
    jac[:, np.arange(6), np.arange(6)] += psi_double_prime_many(x[:, :6])
    jac[:, :, 6] = -inv_mm * di * dj
    jac[:, :, 7] = -1.0
    return jac


def dense_cayley_gradient(x):
    """Gradients of S on (n, 6) columns, each 6- and 3-wide sum taken
    along a row."""
    y = x[:, ::-1]
    s = x.sum(axis=1, keepdims=True)
    xy = x * y
    faces = x[:, _FACE_PARTNERS].prod(axis=3).sum(axis=2)
    return -2.0 * (y * (s - 3.0 * x - 2.0 * y)
                   + xy[:, :3].sum(axis=1, keepdims=True) - xy - faces)


def dense_fold(fun, a):
    """Sum the last-axis columns of full unknowns into reduced ones."""
    if fun.embed is None:
        return a
    folded = np.zeros(a.shape[:-1] + (fun.embed.max() + 1,))
    for full_col, col in enumerate(fun.embed[:a.shape[-1]]):
        folded[..., col] += a[..., full_col]
    return folded


def dense_linearize(fun, x):
    """Reference for Residuals.linearize on (n, k) rows."""
    xf = x if fun.embed is None else x[:, fun.embed]
    areas = trilaterated_area_rows(xf[:, :6].T)[1][5:].T
    d_areas = dense_area_derivatives(xf[:, :6])
    # the identically zero derivatives are +-0 on every row
    assert not d_areas[:, ~AREA_DERIVATIVE_MOVES].any()
    n_sq = x.shape[1] - 2  # the unknowns that move a squared distance
    xs = x[:, :n_sq]
    h = _BOUNDARY_PROBE * np.maximum(1.0, np.abs(xs))
    with np.errstate(all="ignore"):
        reach = (_AREA_ORDER[:, None] * h[:, None, :]
                 * np.abs(dense_fold(fun, d_areas)[:, :, :n_sq]))
        near = ((xs <= h).any(axis=1)
                | (np.abs(areas)[:, :, None] <= reach).any(axis=(1, 2)))
        keep = ~near
        xf, areas, d_areas = xf[keep], areas[keep], d_areas[keep]
        jac = np.zeros((xf.shape[0], 8, 8))
        jac[:, :6] = dense_pair_jacobian(xf, areas, d_areas, fun.inv_mm)
        jac[:, 6, :6] = dense_cayley_gradient(xf[:, :6]) / 32.0
        jac[:, 7, :6] = fun.gauge
    if fun.reduced is not None:
        jac = jac[:, fun.reduced]
    return dense_fold(fun, jac), near


def assert_bitwise(got, want):
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class ReferenceChecked(Residuals):
    """Residuals that check every call against the dense reference,
    bitwise: the residuals, C-ordered, with their 8-wide norms as Newton
    sums them, and linearize's Jacobians, views of C-ordered (k, k, n)
    arrays, and boundary mask."""

    calls = rows = 0

    def __call__(self, x, seed=None):
        res, valid, tri = super().__call__(x, seed)
        want, want_valid = residuals_of_every_row(self, x)
        assert valid.tolist() == want_valid.tolist()
        assert res.flags.c_contiguous
        assert_bitwise(res, want)
        with np.errstate(all="ignore"):
            assert_bitwise(np.nansum(res * res, axis=1),
                           np.nansum(want * want, axis=1))
        return res, valid, tri

    def linearize(self, x, tri):
        jac, near = super().linearize(x, tri)
        want, want_near = dense_linearize(self, x)
        assert near.tolist() == want_near.tolist()
        # the (n, k, k) view of a C-ordered (k, k, n) assembly
        assert jac.transpose(1, 2, 0).flags.c_contiguous
        assert_bitwise(jac, want)
        self.calls += 1
        self.rows += x.shape[0]
        return jac, near


# Rows at the edges of the boundary test, with the mask each must get.
# Squared distances of a few units of 5e-324, where an area underflows to
# -0 (Delta_1 or Delta_2) or +0 (Delta_3 or Delta_4); the converged kite
# with f exactly at its probe threshold h = 1e-7 and one ulp above it; and
# rows at a scale of about 1e-6, found by search, whose |Delta_k| is
# exactly _AREA_ORDER[k] h_j |dDelta_k / dx_j| for one pair (k, j).
SUBNORMAL_UNITS = [
    (2, 8, 7, 8, 10, 30),  # Delta_2 = -0
    (1, 1, 10, 1, 8, 14),  # Delta_1 = -0 and Delta_4 = +0
    (1, 3, 1, 3, 1, 5),    # a kite: Delta_1 = Delta_2 = -0, Delta_3 = +0
    (1, 9, 1, 9, 1, 13),   # a kite: Delta_3 = +0
]
ON_THE_AREA_THRESHOLD = [  # (the row's floats as hex, k, j)
    ("1.1f2db17cc1571p-23 1.48516aa3301d3p-23 1.bbb7cdb3c4857p-23 "
     "1.6dae6da91c89ap-23 1.ae9e3ece15399p-24 1.01895b5ec3cfap-21 "
     "1.377a1d3f9d16ep+78 -1.b5b22e239e810p+32", 0, 4),
    ("1.15bb4b1723f47p-21 1.13bee140e3619p-22 1.b1fd25b370fd6p-24 "
     "1.10022d7750e33p-22 1.b6295766798efp-22 1.e585d03f95f55p-22 "
     "1.84398410f0ee6p+76 -1.d85d41947315dp+31", 2, 2),
    ("1.dd37f5698c2cfp-21 1.5c5e9c1c68e25p-21 1.95a2c3ccea597p-21 "
     "1.f04ead4f0ca98p-24 1.59fbc51fb8d3dp-20 1.ad7f29abcaf54p-20 "
     "1.5f58b6e4dbe37p+74 -1.26123f522a079p+30", 3, 3),
    # kite-reduced (a, b, c, f, nu, xi)
    ("1.4f8b588e368e7p-19 1.853b3dc3afed2p-21 1.e9e50b87f37e5p-19 "
     "1.1b88f28268fb1p-18 1.c004967881992p+67 -1.4f3c24ea8eadep+27", 3, 1),
]


def boundary_edge_rows():
    """The full and the kite-reduced edge rows, and their masks."""
    sub = np.array(SUBNORMAL_UNITS) * 5e-324
    f_edge = np.array([KITE_SQ_05_08] * 2)
    f_edge[:, 5] = [1e-7, np.nextafter(1e-7, 1.0)]
    multipliers = np.array([(KITE_NU_05_08, KITE_XI_05_08)])
    sq = np.concatenate([sub, f_edge])
    full = np.concatenate([sq, multipliers.repeat(sq.shape[0], axis=0)],
                          axis=1)
    on = [np.array([float.fromhex(v) for v in row.split()])
          for row, _, _ in ON_THE_AREA_THRESHOLD]
    kites = np.array([0, 0, 1, 1, 1, 1])  # the rows of sq that are kites
    yield (np.concatenate([full, on[:3]]),
           [True] * 4 + [True, False] + [True] * 3)
    yield (np.concatenate([to_kite(full[kites == 1]),
                           on[3:]]),
           [True] * 2 + [True, False] + [True])


def zero_delta_2_with_nan_moving_derivatives(tri):
    """trilaterated_area_derivative_rows, with Delta_2 set to -0 in the
    trilateration and its derivatives that are not identically zero NaN,
    on every row."""
    d = trilaterated_area_derivative_rows(tri)
    tri[6] = -0.0
    d[1, AREA_DERIVATIVE_MOVES[1]] = math.nan
    return d


def on_the_area_threshold(fun, x, k, j):
    """|Delta_k| == _AREA_ORDER[k] h_j |dDelta_k / dx_j| at row x, in the
    24-entry form of dense_linearize."""
    xf = x if fun.embed is None else x[fun.embed]
    area = trilaterated_area_rows(xf[:6, None])[1][5 + k, 0]
    d = dense_fold(fun, dense_area_derivatives(xf[None, :6]))[0, k, j]
    h = _BOUNDARY_PROBE * max(1.0, abs(x[j]))
    return abs(area) == (_AREA_ORDER[k] * h) * abs(d)


@pytest.mark.parametrize("normalization", ["fix_inertia_one", "fix_a_one"])
def test_linearize_is_the_dense_reference_on_every_census_call(
        monkeypatch, normalization):
    """Every residual and linearize call of a resolution-8 census at
    (0.5, 0.8), and of the solve_kite Newton run, equals the dense
    reference bitwise, and so do the Newton results; and so do the
    boundary_edge_rows of the full and the kite system, which get their
    masks.  A row whose Delta_2 is -0 is near through the derivatives
    that are identically zero alone."""
    m = MassVector(alpha=0.5, beta=0.8)
    opts = SolveOptions(normalization=normalization)
    kite = dict(embed=_KITE_EMBED)
    for kw, x0 in [({}, _seed_vectors(seed_grid(8, m).rows, m)[0]),
                   (kite, to_kite(_kite_seed_vectors(m)[0]))]:
        fun = ReferenceChecked(m, normalization, **kw)
        checked = newton_rows(fun, x0, opts)
        assert fun.calls > 1 and fun.rows > x0.shape[0]
        assert checked == newton_rows(Residuals(m, normalization, **kw),
                                      x0, opts)
    edges = [ReferenceChecked(m, normalization),
             ReferenceChecked(m, normalization, **kite)]
    # the kernels run under their caller's error state
    with np.errstate(all="ignore"):
        zero_areas = trilaterated_area_rows(
            np.array(SUBNORMAL_UNITS).T * 5e-324)[1][5:] == 0
        assert zero_areas.any(axis=0).all()
        for fun, (x, want_near) in zip(edges, boundary_edge_rows()):
            assert fun(x)[1].all()
            assert linearized(fun, x)[1].tolist() == want_near
        for row, k, j in ON_THE_AREA_THRESHOLD:
            x = np.array([float.fromhex(v) for v in row.split()])
            assert on_the_area_threshold(edges[x.size == 6], x, k, j)
        # inside the region a zero area is caught by its moving
        # derivatives; with those NaN, the 24-entry form still marks
        # Delta_2 = -0 through the zero derivative along f:
        # |-0| <= (c h_f) |-0| = 0
        monkeypatch.setattr(
            "ccfour.solver.trilaterated_area_derivative_rows",
            zero_delta_2_with_nan_moving_derivatives)
        for fun, (x, _) in zip(edges, boundary_edge_rows()):
            assert Residuals.linearize(fun, x, seed_record(fun, x)[2])[1].all()


class CarriedChecked(Residuals):
    """Residuals whose linearize checks, on every call, that the
    trilateration Newton hands it is that of its rows, and that the
    Jacobians and mask it gives from it are those of linearize from
    scratch, bitwise."""

    calls = 0

    def linearize(self, x, tri):
        jac, near = super().linearize(x, tri)
        fresh = seed_record(self, x)[2]
        assert_bitwise(tri, fresh)
        scratch, scratch_near = super().linearize(x, fresh)
        assert near.tolist() == scratch_near.tolist()
        assert_bitwise(jac, scratch)
        self.calls += 1
        return jac, near


@pytest.mark.parametrize("normalization", ["fix_inertia_one", "fix_a_one"])
def test_linearize_of_the_carried_trilateration_is_from_scratch(
        normalization):
    """Every linearize call of a resolution-8 census at (0.5, 0.8), of the
    solve_kite run and of the kite lattice, whose iterates reach the
    boundary: the trilateration carried from the residual call that
    accepted each row is the row's own, bit for bit, and linearize gives
    from it the Jacobians and mask, signed zeros included, that it gives
    from scratch; and Newton ends as with Residuals."""
    m = MassVector(alpha=0.5, beta=0.8)
    opts = SolveOptions(normalization=normalization)
    kite = dict(embed=_KITE_EMBED)
    for kw, x0 in [({}, _seed_vectors(seed_grid(8, m).rows, m)[0]),
                   (kite, to_kite(_kite_seed_vectors(m)[0])),
                   (kite, kite_lattice(m))]:
        fun = CarriedChecked(m, normalization, **kw)
        assert newton_rows(fun, x0, opts) == newton_rows(
            Residuals(m, normalization, **kw), x0, opts)
        assert fun.calls > 1


def log_uniform(low, high):
    return st.floats(math.log(low), math.log(high)).map(math.exp)


@pytest.mark.filterwarnings(
    "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
@derandomized(100)
@given(u=log_uniform(0.2, 5.0), v=log_uniform(0.2, 5.0),
       t=log_uniform(0.2, 5.0), s=log_uniform(0.2, 5.0),
       theta=st.floats(0.2 * math.pi, 0.8 * math.pi),
       alpha=log_uniform(1e-3, 1e3), beta=log_uniform(1e-3, 1e3),
       gap=log_uniform(1e-12, 1e-1), scale=log_uniform(1e-150, 1e150),
       normalization=st.sampled_from(["fix_inertia_one", "fix_a_one"]))
def test_linearize_is_the_dense_reference_over_scales(
        u, v, t, s, theta, alpha, beta, gap, scale, normalization):
    """A drawn quadrilateral and the four NEAR_AREA_ZERO ones, gap from
    their boundaries (inside the boundary probe for the smaller gaps),
    with squared distances times scale from 1e-150 to 1e150 and fitted
    multipliers: the full and the kite system's residuals, Jacobians and
    masks equal the dense reference bitwise.  Below a scale of about 1e-7
    every row is within the probe (x_j <= h_j), so there only the masks
    and residuals compare."""
    m = MassVector(alpha=alpha, beta=beta)
    frame = CanonicalFrame(u, v, t, s, theta)
    quads = [frame.reconstruct(m).points] + [
        np.array([(0.0, 0.0), (1.0, 0.0), *NEAR_AREA_ZERO[k](gap)])
        for k in (1, 2, 3, 4)]
    sq = np.array([[float(((q[i] - q[j]) ** 2).sum()) for i, j in
                    ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))]
                   for q in quads]) * scale
    x = seed_vectors(sq, m)[0]
    full = ReferenceChecked(m, normalization)
    kite = ReferenceChecked(m, normalization, embed=_KITE_EMBED)
    # the kernels run under their caller's error state
    with np.errstate(all="ignore"):
        x = x[full(x)[1]]
        linearized(full, x)
        xk = to_kite(x)
        linearized(kite, xk[kite(xk)[1]])


def test_every_residual_call_counts_its_rows_in_cayley_many(monkeypatch):
    """bench/tracer.py and test_census_pinned_counts_at_kite_masses count
    the rows of each call of ccfour.solver.cayley_many as len(sq): each
    residual call passes it, by that name, one (rows, 6) array of the rows
    inside the convex region, in the full and the kite system."""
    shapes = []

    def recorded(sq):
        shapes.append(np.shape(sq))
        return cayley_many(sq)

    class Counted(Residuals):
        valid_rows = []

        def __call__(self, x, seed=None):
            res, valid, tri = super().__call__(x, seed)
            self.valid_rows.append(np.count_nonzero(valid))
            return res, valid, tri

    m = MassVector(alpha=0.5, beta=0.8)
    for fun, x in systems_and_trials(m, "fix_inertia_one"):
        valid = fun(x)[1]
        shapes.clear()
        monkeypatch.setattr("ccfour.solver.cayley_many", recorded)
        fun(x)
        linearized(fun, x[valid])
        monkeypatch.undo()
        assert shapes == [(np.count_nonzero(valid), 6)]
    monkeypatch.setattr("ccfour.solver.cayley_many", recorded)
    for kw, x0 in [({}, _seed_vectors(seed_grid(4, m).rows, m)[0]),
                   (dict(embed=_KITE_EMBED),
                    kite_lattice(m))]:
        shapes.clear()
        fun = Counted(m, "fix_inertia_one", **kw)
        fun.valid_rows = []
        _newton_batch(fun, seed_record(fun, x0), SolveOptions())
        assert shapes == [(rows, 6) for rows in fun.valid_rows]
