import itertools
import math

import numpy as np
import pytest

from ccfour import (DomainError, DziobekState, MassVector, NotPlanar,
                    OrientedAreas, SquaredDistances, balanced_residuals,
                    cayley, cayley_gradient, cc_residuals, dilate_state,
                    oriented_areas, psi, psi_prime, q_residuals,
                    scaling_transform, sign_det, solve_kite,
                    squared_distances, t_values)
from ccfour.dziobek import (PAIRS, cayley_gradient_many, cayley_many,
                            chord_value, planar_many)
from conftest import random_convex_config

EQUAL = MassVector(alpha=1.0, beta=1.0)
SQUARE_SQ = SquaredDistances(2, 1, 1, 1, 1, 2)
SQUARE_AREAS = OrientedAreas(-0.5, -0.5, 0.5, 0.5)
SQUARE_NU = 1.0 - 2.0 ** -1.5          # from psi'(2) - psi'(1) = nu/2
SQUARE_XI = -(2.0 ** -2.5) - SQUARE_NU / 4.0


def square_state(nu=SQUARE_NU, xi=SQUARE_XI):
    return DziobekState(sq=SQUARE_SQ, areas=SQUARE_AREAS, nu=nu, xi=xi)


def test_pair_weights_are_the_mass_products_in_pair_order():
    m = MassVector(alpha=0.3, beta=1.7, delta=1.1)
    m1, m2, m3, m4 = m.masses
    assert m.pair_weights.tolist() == [m1 * m2, m1 * m3, m1 * m4,
                                       m2 * m3, m2 * m4, m3 * m4]


@pytest.mark.parametrize("alpha, beta, delta", [
    (math.nan, 1.0, 1.0), (1.0, math.inf, 1.0), (1.0, 1.0, -math.inf),
    (1e308, 1e308, 1.0), (1.0, 1e200, 1e200), (1e-200, 1e-200, 1.0),
    (0.0, 1.0, 1.0), (1e-300, 1e-20, 1.0), (1e-144, 1e-173, 1.0),
    (np.nextafter(np.finfo(float).tiny, 0.0), 1.0, 1.0)])
def test_mass_vector_rejects_nonfinite_and_overflowing_masses(alpha, beta,
                                                              delta):
    with pytest.raises(DomainError):
        MassVector(alpha=alpha, beta=beta, delta=delta)


def test_mass_vector_accepts_the_smallest_normal_pair_product():
    smallest = MassVector(alpha=np.finfo(float).tiny, beta=1.0)
    assert np.isfinite(1.0 / smallest.pair_weights).all()


def test_psi_values():
    assert psi(1.0) == 1.0
    assert psi(4.0) == 0.5
    assert psi(2.0) == pytest.approx(2.0 ** -0.5)
    assert psi_prime(1.0) == -0.5
    assert psi_prime(2.0) == pytest.approx(-(2.0 ** -2.5))
    assert psi_prime(4.0) == -0.0625
    for bad in (0.0, -1.0):
        with pytest.raises(DomainError):
            psi(bad)
        with pytest.raises(DomainError):
            psi_prime(bad)


def test_psi_prime_monotone_increasing(rng):
    s = rng.uniform(0.01, 50.0, size=(1000, 2))
    lo, hi = s.min(axis=1), s.max(axis=1)
    keep = hi - lo > 1e-9
    assert all(psi_prime(h) > psi_prime(l)
               for l, h in zip(lo[keep], hi[keep]))


def test_cayley_square_is_planar():
    assert abs(cayley(SQUARE_SQ)) < 1e-12


def test_cayley_regular_tetrahedron():
    # |S| = 288 V^2 with V = 1/(6 sqrt 2); the sign is fixed by the
    # gradient identity below, which makes S negative on tetrahedra.
    s = cayley((1, 1, 1, 1, 1, 1))
    vol = 1.0 / (6.0 * math.sqrt(2.0))
    assert abs(s) == pytest.approx(288.0 * vol * vol, rel=1e-12)
    assert s == pytest.approx(-4.0, rel=1e-12)


def test_cayley_vanishes_on_planar_configs(rng):
    for _ in range(50):
        p = random_convex_config(rng)
        sq = squared_distances(p)
        scale_sq = np.mean(sq)
        assert abs(cayley(sq)) < 1e-9 * scale_sq ** 2


def dziobek_gradient(areas):
    """32 Delta_i Delta_j in PAIRS order."""
    return np.array([32.0 * areas[i] * areas[j] for i, j in PAIRS])


def finite_difference_gradient(sq, step_rel=1e-6):
    """Central differences of cayley_many, independent of the closed-form
    gradient."""
    x = np.asarray(sq, dtype=float)
    h = step_rel * float(np.mean(x))
    steps = h * np.eye(6)
    return (cayley_many(x + steps) - cayley_many(x - steps)) / (2.0 * h)


def bordered_cayley_matrix(sq):
    """The symmetric bordered matrix with r_ij^2 at (i+1, j+1) and
    (j+1, i+1); S is minus its determinant."""
    M = [[0, 1, 1, 1, 1]] + [[1, 0, 0, 0, 0] for _ in range(4)]
    for (i, j), x in zip(PAIRS, sq):
        M[i + 1][j + 1] = M[j + 1][i + 1] = x
    return M


def test_cayley_closed_form_is_the_bordered_determinant_exactly():
    """S and its gradient have degree <= 2 in each squared distance, so
    equality on {0, 1, 2, 3}^6 makes them the same polynomials; float
    arithmetic on these small integers is exact."""
    import sympy

    symbols = sympy.symbols("a:f")
    S = -sympy.Matrix(bordered_cayley_matrix(symbols)).det()
    exact = sympy.lambdify(symbols,
                           [S, *(sympy.diff(S, x) for x in symbols)])
    grid = np.array(list(itertools.product(range(4), repeat=6)))
    want = np.array(exact(*grid.T)).T
    assert (cayley_many(grid.astype(float)) == want[:, 0]).all()
    assert (cayley_gradient_many(grid.astype(float)) == want[:, 1:]).all()


def test_cayley_closed_form_matches_linalg_det(rng):
    """Against the bordered determinant and twice its signed cofactors,
    dS/dr_ij^2 = 2 (-1)^(i+j+1) det of M without row i+1 and column j+1, on
    tetrahedral and planar rows."""
    tetrahedra = [rng.normal(size=(4, 3)) for _ in range(50)]
    rows = [[float(np.sum((p[i] - p[j]) ** 2)) for i, j in PAIRS]
            for p in tetrahedra]
    rows += [squared_distances(random_convex_config(rng)) for _ in range(50)]
    for sq in rows:
        M = np.array(bordered_cayley_matrix(sq), dtype=float)
        cofactors = [2.0 * (-1) ** (i + j + 1)
                     * np.linalg.det(np.delete(np.delete(M, i + 1, 0),
                                               j + 1, 1))
                     for i, j in PAIRS]
        scale = max(sq)
        assert abs(cayley_many(sq)[0] + np.linalg.det(M)) < 1e-13 * scale ** 3
        assert (np.max(np.abs(cayley_gradient_many(sq)[0] - cofactors))
                < 1e-13 * scale ** 2)


def test_cayley_gradient_square():
    grad = cayley_gradient(SQUARE_SQ)
    assert grad[0] == pytest.approx(8.0, rel=1e-14)
    assert grad[1] == pytest.approx(-8.0, rel=1e-14)
    assert np.allclose(grad, dziobek_gradient(SQUARE_AREAS), rtol=1e-14,
                       atol=0.0)


def test_cayley_gradient_matches_dziobek_identity(rng):
    for _ in range(100):
        p = random_convex_config(rng)
        expected = dziobek_gradient(np.asarray(oriented_areas(p)))
        grad = cayley_gradient(squared_distances(p))
        assert np.max(np.abs(grad - expected) / np.abs(expected)) < 1e-12


def test_cayley_gradient_matches_finite_differences(rng):
    for _ in range(100):
        sq = squared_distances(random_convex_config(rng))
        assert np.allclose(cayley_gradient(sq),
                           finite_difference_gradient(sq), rtol=1e-6)


def test_cayley_gradient_is_a_row_of_cayley_gradient_many(rng):
    sq = np.array([squared_distances(random_convex_config(rng))
                   for _ in range(20)])
    rows = cayley_gradient_many(sq)
    assert rows.shape == (20, 6)
    for k in range(20):
        assert cayley_gradient(sq[k]).tolist() == rows[k].tolist()


@pytest.mark.parametrize("mean_sq", [1e-9, 1.0, 1e8, 1e90])
def test_planarity_test_is_scale_invariant(rng, mean_sq):
    """S has degree 3: rescaled planar rows stay planar and a rescaled
    regular tetrahedron (S = -4 s^3 at squared edge s) stays non-planar."""
    sq = np.array([squared_distances(random_convex_config(rng))
                   for _ in range(20)])
    sq *= mean_sq / sq.mean(axis=1, keepdims=True)
    assert planar_many(sq).all()
    assert not planar_many(np.full(6, mean_sq))[0]


@pytest.mark.parametrize("sq", [(1, 1, 1, 1, 1, 1), (2, 1, 1, 1, 1, math.inf),
                                (2, 1, 1, 1, 1, math.nan),
                                (2, 1, 1, 1, 1, 1e300)])
def test_cayley_gradient_rejects_nonplanar_and_nonfinite(sq):
    assert not planar_many(sq)[0]
    with pytest.raises(NotPlanar):
        cayley_gradient(sq)


def test_cc_residuals_square_closed_form():
    res = cc_residuals(square_state(), EQUAL)
    assert np.max(np.abs(res)) < 1e-12


def test_cc_residuals_nu_zero_nonzero():
    res = cc_residuals(square_state(nu=0.0), EQUAL)
    psiv = np.array([psi_prime(s) for s in SQUARE_SQ])
    assert np.allclose(res, psiv - SQUARE_XI)
    assert np.max(np.abs(res)) > 0.1


def test_t_values_square_zero():
    t = t_values(SQUARE_SQ, SQUARE_AREAS)
    assert np.allclose(t, 0.0, atol=1e-15)


def test_t_values_equal_on_any_planar_config(rng):
    # sum Delta_i = 0 and sum Delta_i q_i = 0 make t_k = sum Delta_i |q_i|^2
    # for every k, so equality of the t's holds on all planar configs
    for _ in range(20):
        p = random_convex_config(rng)
        t = t_values(squared_distances(p), oriented_areas(p))
        common = float(sum(a * np.dot(q, q)
                           for a, q in zip(oriented_areas(p), p.points)))
        assert np.allclose(t, common, atol=1e-10 * p.scale ** 4 + 1e-12)


def test_t_spread_detects_nonplanar_sq():
    t = t_values((1, 1, 1, 1, 1, 1), SQUARE_AREAS)
    assert t.max() - t.min() > 0.1


def test_t_area_weighted_sum_vanishes_on_planar(rng):
    # sum_k Delta_k t_k = 2 sum_{i<j} Delta_i Delta_j r_ij^2 = (1/16) sq . grad S,
    # and S is homogeneous of degree 3, so this is 3S/16 = 0 on planar configs.
    pairs = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
    for _ in range(50):
        p = random_convex_config(rng)
        sq = squared_distances(p)
        areas = list(oriented_areas(p))
        t = t_values(sq, areas)
        weighted = sum(areas[k] * t[k] for k in range(4))
        pairwise = 2.0 * sum(areas[i] * areas[j] * sq[k]
                             for k, (i, j) in enumerate(pairs))
        assert weighted == pytest.approx(pairwise, rel=1e-12, abs=1e-12)
        assert abs(weighted) < 1e-9 * p.scale ** 4


def test_q_identity_zero_for_equal_t():
    t = [1.3, 1.3, 1.3, 1.3]
    areas = [-0.4, -0.3, 0.35, 0.35]
    assert np.allclose(q_residuals(t, areas, EQUAL), 0.0, atol=1e-15)


def test_q_identity_square_zero():
    t = t_values(SQUARE_SQ, SQUARE_AREAS)
    assert np.allclose(q_residuals(t, SQUARE_AREAS, EQUAL), 0.0, atol=1e-15)


def test_q_identity_generic_nonzero():
    t = [0.1, 0.7, -0.3, 0.4]
    areas = [-0.5, -0.2, 0.3, 0.4]
    # Q_123 = det [[1, 1, 1], [t_1, t_2, t_3], [Delta_1, Delta_2, Delta_3]]
    q123 = np.linalg.det([[1, 1, 1], t[:3], areas[:3]])
    q = q_residuals(t, areas, EQUAL)
    assert q[3] == pytest.approx(q123, rel=1e-12)
    assert abs(q[3]) > 1e-3


@pytest.mark.parametrize("form", ["expanded", "appendix1", "appendix2"])
def test_balanced_residuals_square(form):
    res = balanced_residuals(SQUARE_SQ, EQUAL, form=form)
    assert np.max(np.abs(res)) < 1e-10


@pytest.mark.parametrize("form", ["expanded", "appendix1", "appendix2"])
def test_balanced_residuals_kite(form):
    m = MassVector(alpha=0.5, beta=0.8)
    st = solve_kite(m).state
    scale = math.sqrt(np.mean(st.sq))
    res = balanced_residuals(st.sq, m, form=form)
    assert np.max(np.abs(res)) < 1e-9 * scale


def test_balanced_residuals_generic_nonzero(rng):
    p = random_convex_config(rng)
    sq = squared_distances(p)
    res = balanced_residuals(sq, EQUAL)
    assert np.max(np.abs(res)) > 1e-6


def test_balanced_residuals_unknown_form():
    with pytest.raises(ValueError):
        balanced_residuals(SQUARE_SQ, EQUAL, form="nope")


def test_sign_det_collinear_zero():
    assert sign_det(3, 2, 1, 3, 2, 1) == pytest.approx(0.0)


def test_sign_det_psi_prime_spot_value():
    d = sign_det(3, 2, 1, psi_prime(3), psi_prime(2), psi_prime(1))
    assert d == pytest.approx(0.2426717, abs=1e-6)


def test_sign_det_antisymmetric(rng):
    for _ in range(100):
        u, v, w, U, V, W = rng.normal(size=6)
        assert sign_det(u, v, w, U, V, W) == pytest.approx(
            -sign_det(w, v, u, W, V, U), abs=1e-12)


def test_sign_det_concavity_property(rng):
    count = 0
    while count < 1000:
        vals = np.sort(rng.uniform(0.01, 20.0, size=3))
        w, v, u = vals
        if u - v < 1e-6 or v - w < 1e-6:
            continue
        count += 1
        assert sign_det(u, v, w, psi_prime(u), psi_prime(v),
                        psi_prime(w)) > 0


def test_chord_identity(rng):
    for _ in range(100):
        w, v, u = np.sort(rng.uniform(0.1, 10.0, size=3))
        U, V, W = rng.normal(size=3)
        vp = chord_value(u, w, U, W, v)
        assert sign_det(u, v, w, U, V, W) == pytest.approx(
            (u - w) * (V - vp), rel=1e-10, abs=1e-12)


def test_closure_term_sign_and_forms(rng):
    # for d > b > 0:  b psi'(b) - d psi'(d) = (1/2)(sqrt b - sqrt d)/sqrt(bd) < 0
    for _ in range(200):
        lo, hi = np.sort(rng.uniform(0.01, 20.0, size=2))
        if hi - lo < 1e-9:
            continue
        b, d = lo, hi
        direct = b * psi_prime(b) - d * psi_prime(d)
        closed = 0.5 * (math.sqrt(b) - math.sqrt(d)) / math.sqrt(b * d)
        assert direct < 0
        assert direct == pytest.approx(closed, rel=1e-14)


def test_scaling_transform_identity():
    st = square_state()
    st2, m2 = scaling_transform(st, EQUAL, 1.0)
    assert np.allclose(np.asarray(st2.sq), np.asarray(st.sq))
    assert m2.masses == EQUAL.masses


def test_scaling_transform_square():
    st2, m2 = scaling_transform(square_state(), EQUAL, 8.0)
    assert m2.masses == (0.125, 0.125, 0.125, 0.125)
    assert np.allclose(np.asarray(st2.sq), np.asarray(SQUARE_SQ) / 4.0)
    assert np.max(np.abs(cc_residuals(st2, m2))) < 1e-12


def test_scaling_transform_group_property():
    st1, m1 = scaling_transform(square_state(), EQUAL, 3.0)
    st2, m2 = scaling_transform(st1, m1, 5.0)
    st3, m3 = scaling_transform(square_state(), EQUAL, 15.0)
    assert np.allclose(np.asarray(st2.sq), np.asarray(st3.sq), rtol=1e-14)
    assert st2.nu == pytest.approx(st3.nu, rel=1e-14)
    assert m2.masses == pytest.approx(m3.masses, rel=1e-14)


def test_scaling_transform_rejects_nonpositive():
    with pytest.raises(DomainError):
        scaling_transform(square_state(), EQUAL, 0.0)


def test_dilate_state_preserves_residuals():
    st = dilate_state(square_state(), 2.5)
    assert np.max(np.abs(cc_residuals(st, EQUAL))) < 1e-12


@pytest.mark.parametrize("k", [1e-50, 1e200, math.nan])
def test_dilate_state_rejects_a_state_out_of_float_range(k):
    with pytest.raises(DomainError):
        dilate_state(square_state(), k)


def test_state_derived_quantities():
    st = square_state()
    assert st.lambda_dz == st.nu / 32.0
    assert st.mu(EQUAL) == st.xi * 4.0

