import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccfour import (Degenerate, MassVector, NotConvex, NotPlanar,
                    PlanarConfig, canonicalize, congruent, oriented_areas,
                    realize, squared_distances)
from ccfour.dziobek import PAIRS
from ccfour.geometry import (canonicalize_many, convex_many,
                             oriented_areas_many, realize_many,
                             squared_distances_many)
from conftest import random_convex_config, unit_square_config

EQUAL = MassVector(alpha=1.0, beta=1.0)


def rotated(p: PlanarConfig, angle: float) -> PlanarConfig:
    c, s = math.cos(angle), math.sin(angle)
    rot = np.array([[c, -s], [s, c]])
    return PlanarConfig.from_points(p.points @ rot.T, p.masses)


def test_planar_config_rejects_offset_centroid():
    pts = [[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, -1.0]]
    with pytest.raises(ValueError, match="centroid"):
        PlanarConfig(points=np.array(pts), masses=EQUAL)
    # from_points recenters the same data
    PlanarConfig.from_points(pts, EQUAL)


def test_planar_config_rejects_coincident_points():
    pts = [[-1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [-1.0, 0.0]]
    with pytest.raises(ValueError, match="coincide"):
        PlanarConfig.from_points(pts, EQUAL)


def test_oriented_areas_square():
    areas = oriented_areas(unit_square_config())
    assert np.allclose(areas, [-0.5, -0.5, 0.5, 0.5], atol=1e-15)


def test_oriented_areas_sum_to_zero(rng):
    for _ in range(50):
        p = random_convex_config(rng)
        areas = oriented_areas(p)
        assert abs(sum(areas)) < 1e-12 * p.scale ** 2


def test_oriented_areas_collinear_degenerate():
    pts = [[-3.0, 0.0], [3.0, 0.0], [1.0, 0.0], [-1.0, 0.0]]
    p = PlanarConfig.from_points(pts, EQUAL)
    with pytest.raises(Degenerate):
        oriented_areas(p)


def test_oriented_areas_point_inside_triangle_not_convex():
    pts = [[0.0, 0.0], [2.0, 0.0], [1.0, 2.0], [1.0, 0.5]]
    p = PlanarConfig.from_points(pts, EQUAL)
    with pytest.raises(NotConvex):
        oriented_areas(p)


def test_convex_needs_q1_q2_and_q3_q4_to_be_the_diagonals():
    points = np.array([
        [[-1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],  # diagonals
        [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],  # opposite sides
        [[0.0, 0.0], [2.0, 0.0], [1.0, 2.0], [1.0, 0.5]],  # q4 inside
        [[0.0, 0.0], [1.0, 1.0], [1.0, 0.0], [0.0, 1.0]],  # diagonals
    ])
    assert convex_many(points).tolist() == [True, False, False, True]
    with pytest.raises(NotConvex):
        oriented_areas(PlanarConfig.from_points(points[1], EQUAL))


def test_oriented_areas_scale_quadratically(rng):
    p = random_convex_config(rng)
    k = 3.7
    scaled = PlanarConfig.from_points(p.points * k, p.masses)
    assert np.allclose(np.asarray(oriented_areas(scaled)),
                       k * k * np.asarray(oriented_areas(p)), rtol=1e-12)


def test_squared_distances_square():
    sq = squared_distances(unit_square_config())
    assert np.allclose(sq, [2, 1, 1, 1, 1, 2], atol=1e-15)


def test_squared_distances_rhombus():
    p_half, r_half = 1.3, 0.6
    pts = [[-p_half, 0], [p_half, 0], [0, r_half], [0, -r_half]]
    sq = squared_distances(PlanarConfig.from_points(pts, EQUAL))
    side = p_half ** 2 + r_half ** 2
    assert np.allclose(sq, [4 * p_half ** 2, side, side, side, side,
                            4 * r_half ** 2], rtol=1e-14)


def six_pair_squared_distances(points):
    """Reference for squared_distances_many: each pair's difference,
    squared and summed, the six stacked."""
    diffs = [points[..., i, :] - points[..., j, :] for i, j in PAIRS]
    return np.stack([(d ** 2).sum(axis=-1) for d in diffs], axis=-1)


EDGE_COORDINATES = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, math.nan,
                    math.inf, -math.inf]


@pytest.mark.filterwarnings(
    "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
@settings(derandomize=True, deadline=None, max_examples=200)
@given(shape=st.sampled_from([(), (1,), (7,), (3, 5)]),
       seed=st.integers(0, 2 ** 32 - 1), low=st.integers(-150, 150),
       span=st.integers(0, 300), edge_frac=st.sampled_from([0.0, 0.1, 1.0]))
def test_squared_distances_many_is_the_six_pair_reference(
        shape, seed, low, span, edge_frac):
    """The one gather of squared_distances_many equals the six pair
    differences stacked, bit for bit, on (..., 4, 2) points with
    coordinates from 1e-150 to 1e150, +-0, subnormals, NaN and +-inf."""
    rng = np.random.default_rng(seed)
    shape = shape + (4, 2)
    exp = rng.uniform(low, min(low + span, 150), size=shape)
    pts = rng.choice([-1.0, 1.0], size=shape) * 10.0 ** exp
    edge = rng.random(shape) < edge_frac
    pts[edge] = rng.choice(EDGE_COORDINATES, size=edge.sum())
    with np.errstate(all="ignore"):
        got = squared_distances_many(pts)
        want = six_pair_squared_distances(pts)
    assert got.shape == want.shape == shape[:-2] + (6,)
    assert got.tobytes() == want.tobytes()


def test_squared_distances_homogeneous(rng):
    p = random_convex_config(rng)
    k = 0.42
    scaled = PlanarConfig.from_points(p.points * k, p.masses)
    assert np.allclose(np.asarray(squared_distances(scaled)),
                       k * k * np.asarray(squared_distances(p)), rtol=1e-12)


def test_realize_square():
    p = realize((2, 1, 1, 1, 1, 2), EQUAL)
    assert congruent(p, unit_square_config(), tol=1e-10)


def test_realize_tetrahedron_not_planar():
    with pytest.raises(NotPlanar):
        realize((1, 1, 1, 1, 1, 1), EQUAL)


def test_realize_planarity_is_scale_invariant(rng):
    """A convex configuration with mean squared distance 1e8 is planar, a
    regular tetrahedron with squared edge 1e-9 is not."""
    for _ in range(20):
        sq = np.asarray(squared_distances(random_convex_config(rng)))
        sq *= 1e8 / sq.mean()
        assert np.allclose(squared_distances(realize(sq, EQUAL)), sq,
                           rtol=1e-10, atol=0.0)
    with pytest.raises(NotPlanar):
        realize((1e-9,) * 6, EQUAL)


@pytest.mark.parametrize("sq", [(2, 1, 1, 1, 1, math.inf),
                                (2, 1, 1, 1, 1, math.nan),
                                (2, 1, 1, 1, 1, 1e300),
                                (math.inf, 1, 1, 1, 1, 2)])
def test_realize_rejects_nonfinite_and_overflowing_distances(sq):
    with pytest.raises(NotPlanar):
        realize(sq, EQUAL)
    _, ok = realize_many(np.array([sq, (2, 1, 1, 1, 1, 2)]), EQUAL)
    assert ok.tolist() == [False, True]


def test_realize_round_trip(rng):
    for _ in range(100):
        p = random_convex_config(rng)
        sq = squared_distances(p)
        back = squared_distances(realize(sq, p.masses))
        assert np.allclose(np.asarray(back), np.asarray(sq), rtol=1e-10)


def test_canonicalize_square_frame():
    frame = canonicalize(unit_square_config())
    assert frame.u == pytest.approx(frame.v, abs=1e-12)
    assert frame.t == pytest.approx(frame.s, abs=1e-12)
    assert frame.theta == pytest.approx(math.pi / 2, abs=1e-12)
    assert frame.reconstruct(EQUAL).moment_of_inertia() == pytest.approx(
        1.0, abs=1e-12)


def test_canonicalize_quotients_symmetries(rng):
    p = random_convex_config(rng)
    f0 = canonicalize(p).as_vector()
    moved = rotated(p, 1.0)
    moved = PlanarConfig.from_points(moved.points * 7.0, p.masses)
    reflected = PlanarConfig.from_points(moved.points * [1, -1], p.masses)
    assert np.allclose(canonicalize(reflected).as_vector(), f0, atol=1e-10)


def test_canonicalize_separates_shapes(rng):
    p = random_convex_config(rng)
    pts = p.points.copy()
    pts[2] += [1e-3, -1e-3]
    q = PlanarConfig.from_points(pts, p.masses)
    gap = np.abs(canonicalize(p).as_vector() - canonicalize(q).as_vector())
    assert gap.max() > 1e-6


def test_congruent_examples(rng):
    p = random_convex_config(rng)
    assert congruent(p, rotated(p, 1.0))
    assert congruent(p, PlanarConfig.from_points(p.points * 7.0, p.masses))
    square = unit_square_config()
    rhombus = realize((3, 1, 1, 1, 1, 1.0), EQUAL)  # theta = pi/3 rhombus
    assert not congruent(square, rhombus)


def reference_frame(q, m):
    """Canonical frame of one convex configuration, written out point by
    point: crossing, rotation, reflection, then the unit-inertia rescale."""
    d12, d34, rhs = q[1] - q[0], q[3] - q[2], q[2] - q[0]
    lam = ((rhs[0] * d34[1] - rhs[1] * d34[0])
           / (d12[0] * d34[1] - d12[1] * d34[0]))
    shifted = q - (q[0] + lam * d12)
    phi = math.atan2(shifted[1][1], shifted[1][0])
    rot = np.array([[math.cos(-phi), -math.sin(-phi)],
                    [math.sin(-phi), math.cos(-phi)]])
    aligned = shifted @ rot.T
    if aligned[2][1] < 0:
        aligned[:, 1] = -aligned[:, 1]
    u, v = float(-aligned[0][0]), float(aligned[1][0])
    t, s = float(np.hypot(*aligned[2])), float(np.hypot(*aligned[3]))
    theta = math.atan2(aligned[2][1], aligned[2][0])
    ct, st = math.cos(theta), math.sin(theta)
    pts = np.array([[-u, 0.0], [v, 0.0], [t * ct, t * st], [-s * ct, -s * st]])
    w = np.asarray(m.masses)
    pts = pts - (w[:, None] * pts).sum(axis=0) / w.sum()
    k = 1.0 / math.sqrt(float((w * (pts ** 2).sum(axis=1)).sum()))
    return (u * k, v * k, t * k, s * k, theta)


def test_canonicalize_many_equals_canonicalize_bitwise(rng):
    for m in (EQUAL, MassVector(alpha=0.5, beta=0.8)):
        configs = [rotated(random_convex_config(rng, m),
                           rng.uniform(0, 2 * math.pi)) for _ in range(200)]
        frames, ok = canonicalize_many(
            np.stack([p.points for p in configs]), m)
        assert ok.all()
        for p, row in zip(configs, frames):
            assert tuple(row) == reference_frame(p.points, m)
            assert tuple(canonicalize(p).as_vector()) == tuple(row)


def test_realize_many_equals_realize_bitwise(rng):
    m = MassVector(alpha=0.7, beta=1.3)
    sq = np.array([squared_distances(random_convex_config(rng, m))
                   for _ in range(100)])
    points, ok = realize_many(sq, m)
    areas, areas_ok = oriented_areas_many(points)
    assert ok.all() and areas_ok.all()
    for row, pts, signed in zip(sq, points, areas):
        p = realize(row, m)
        assert (p.points == pts).all()
        assert tuple(oriented_areas(p)) == tuple(signed)
