"""Property tests of the geometry round trip and the two scaling
covariances, over hypothesis-drawn convex quadrilaterals and masses."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccfour import (CanonicalFrame, DziobekState, MassVector, cc_residuals,
                    congruent, dilate_state, oriented_areas, psi_prime,
                    realize, scaling_transform, squared_distances)
from ccfour.dziobek import PAIRS

# hypothesis reports a failing example through libcst, whose import warns
no_libcst_warning = pytest.mark.filterwarnings(
    "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
derandomized = settings(derandomize=True, deadline=None, max_examples=100)


def log_uniform(low, high):
    return st.floats(math.log(low), math.log(high)).map(math.exp)


masses = st.builds(MassVector, alpha=log_uniform(1e-3, 1e3),
                   beta=log_uniform(1e-3, 1e3))
frames = st.builds(CanonicalFrame, u=log_uniform(0.2, 5.0),
                   v=log_uniform(0.2, 5.0), t=log_uniform(0.2, 5.0),
                   s=log_uniform(0.2, 5.0),
                   theta=st.floats(0.2 * math.pi, 0.8 * math.pi))
multipliers = st.tuples(log_uniform(0.1, 10.0), st.floats(-10.0, 10.0))


def state_of(frame, m, nu_xi):
    """A state on the frame's quadrilateral with the given multipliers,
    which need not solve the equations."""
    p = frame.reconstruct(m)
    return DziobekState(sq=squared_distances(p), areas=oriented_areas(p),
                        nu=nu_xi[0], xi=nu_xi[1])


def residual_scale(state, m):
    """The largest term of the six equations, the scale their rounding
    error is relative to."""
    w = np.asarray(m.pair_weights)
    areas = np.asarray(state.areas)
    pairs = np.array([areas[i] * areas[j] for i, j in PAIRS])
    return max(max(abs(psi_prime(s)) for s in state.sq), abs(state.xi),
               float(np.max(np.abs(state.nu * pairs / w))))


@no_libcst_warning
@derandomized
@given(frame=frames, m=masses)
def test_realize_inverts_squared_distances(frame, m):
    p = frame.reconstruct(m)
    sq = squared_distances(p)
    back = realize(sq, m)
    assert np.allclose(squared_distances(back), sq, rtol=1e-10)
    assert congruent(back, p)


@no_libcst_warning
@derandomized
@given(frame=frames, m=masses, nu_xi=multipliers, k=log_uniform(1e-3, 1e3))
def test_dilation_scales_the_residuals_by_k_to_the_minus_3(frame, m, nu_xi,
                                                           k):
    """dilate_state(st, k) is the state of the quadrilateral dilated by k,
    and its residuals are those of st times k**-3."""
    state = state_of(frame, m, nu_xi)
    dilated = dilate_state(state, k)
    p = realize(dilated.sq, m)
    assert np.allclose(squared_distances(p), dilated.sq, rtol=1e-10)
    assert np.allclose(oriented_areas(p), dilated.areas, rtol=1e-9)
    tol = 1e-12 * residual_scale(dilated, m)
    assert np.allclose(cc_residuals(dilated, m),
                       cc_residuals(state, m) * k ** -3, rtol=0, atol=tol)


@no_libcst_warning
@derandomized
@given(frame=frames, m=masses, nu_xi=multipliers, eta=log_uniform(1e-3, 1e3))
def test_mass_scaling_scales_the_residuals_by_eta(frame, m, nu_xi, eta):
    """Masses over eta and lengths times eta**(-1/3) multiply the residuals
    by eta, and leave the configuration's shape alone."""
    state = state_of(frame, m, nu_xi)
    scaled, m2 = scaling_transform(state, m, eta)
    assert m2.masses == pytest.approx([w / eta for w in m.masses],
                                      rel=1e-15)
    tol = 1e-12 * residual_scale(scaled, m2)
    assert np.allclose(cc_residuals(scaled, m2),
                       cc_residuals(state, m) * eta, rtol=0, atol=tol)
    shape = realize(np.asarray(scaled.sq) * eta ** (2.0 / 3.0), m)
    assert congruent(shape, realize(state.sq, m))
