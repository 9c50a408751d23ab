import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ccfour import (CanonicalFrame, CollisionError, Degenerate, MassVector,
                    NotConvex, NotPlanar, PlanarConfig, canonicalize,
                    congruent, newtonian_oracle, oriented_areas, realize,
                    squared_distances)
from ccfour.dziobek import PAIRS, scale_sq_many
from ccfour.geometry import _sub_triangles as sub_triangles
from ccfour.geometry import _valid_frames as valid_frames
from ccfour.geometry import (canonicalize_many, newtonian_oracle_many,
                             oriented_areas_many, realize_convex_many,
                             reconstruct_many, squared_distances_many,
                             trilaterated_area_rows)
from ccfour.solver import Residuals
from conftest import (derandomized, random_convex_config, realize_many,
                      unit_square_config)

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
    """A collision, which is also a ValueError."""
    pts = [[-1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [-1.0, 0.0]]
    with pytest.raises(CollisionError, match="^points 1 and 4 coincide$"):
        PlanarConfig.from_points(pts, EQUAL)
    assert issubclass(CollisionError, ValueError)


@pytest.mark.parametrize("row", [
    (1.0, 1.0, 1.0, 1.0, 1.0), (math.nan, 1.0, 1.0, 1.0, 1.0),
    (math.inf, 1.0, 1.0, 1.0, 1.0), (1.0, 1.0, 1.0, -math.inf, 1.0),
    (1.0, 0.0, 1.0, 1.0, 1.0), (1.0, 1.0, -2.0, 1.0, 1.0),
    (1.0, 1.0, 1.0, 1.0, 0.0), (1.0, 1.0, 1.0, 1.0, math.pi),
    (1.0, 1.0, 1.0, 1.0, math.nan), (1.0, 1.0, 1.0, 1.0, math.inf)])
def test_canonical_frame_accepts_the_rows_valid_frames_accepts(row):
    if valid_frames(np.array(row)):
        CanonicalFrame(*row)
    else:
        with pytest.raises(ValueError):
            CanonicalFrame(*row)


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


def test_oriented_areas_makes_one_sub_triangle_pass(monkeypatch):
    """oriented_areas is the one row of oriented_areas_many, one
    _sub_triangles pass on a batch of one, and a degenerate quadrilateral
    that is also not convex raises Degenerate."""
    calls = []

    def counted(points):
        calls.append(points.shape)
        return sub_triangles(points)

    collinear = [[-3.0, 0.0], [3.0, 0.0], [1.0, 0.0], [-1.0, 0.0]]
    p = PlanarConfig.from_points(collinear, EQUAL)
    assert not sub_triangles(p.points)[1]
    monkeypatch.setattr("ccfour.geometry._sub_triangles", counted)
    oriented_areas(unit_square_config())
    assert calls == [(1, 4, 2)]
    with pytest.raises(Degenerate):
        oriented_areas(p)
    assert len(calls) == 2


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
    assert sub_triangles(points)[1].tolist() == [True, False, False, True]
    with pytest.raises(NotConvex):
        oriented_areas(PlanarConfig.from_points(points[1], EQUAL))
    # canonicalize raises NotConvex before any other error, also where the
    # frame is NaN, as on four collinear points
    collinear = [[-3.0, 0.0], [3.0, 0.0], [1.0, 0.0], [-1.0, 0.0]]
    for q in (points[1], points[2], collinear):
        with pytest.raises(NotConvex):
            canonicalize(PlanarConfig.from_points(q, EQUAL))


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
@derandomized(200)
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
    """realize refuses them, and so does the batch path: the residual
    call's trilateration, Newton's planarity test and
    realize_convex_many."""
    with pytest.raises(NotPlanar):
        realize(sq, EQUAL)
    rows = np.array([(*sq, 1.0, -1.0), (2, 1, 1, 1, 1, 2, 1.0, -1.0)],
                    dtype=float)
    fun = Residuals(EQUAL, "fix_inertia_one")
    with np.errstate(all="ignore"):
        res, valid, tri = fun(rows)
        planar = fun.planar(rows, res)
        _, _, ok = realize_convex_many(tri[:5], EQUAL)
    assert (valid & planar & ok).tolist() == [False, True]
    assert realize_many(rows[:, :6], EQUAL)[2].tolist() == [False, True]


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
        pts = np.stack([p.points for p in configs])
        frames, ok = canonicalize_many(pts, m)
        areas, proper, convex = oriented_areas_many(
            pts, scale_sq_many(squared_distances_many(pts)))
        assert ok.all() and proper.all() and convex.all()
        # the one-row calls oriented_areas and CanonicalFrame.reconstruct
        rebuilt = reconstruct_many(frames, m)
        for p, row, signed, q in zip(configs, frames, areas, rebuilt):
            assert tuple(row) == reference_frame(p.points, m)
            frame = canonicalize(p)
            assert tuple(frame.as_vector()) == tuple(row)
            assert np.array(oriented_areas(p)).tobytes() == signed.tobytes()
            assert frame.reconstruct(m).points.tobytes() == q.tobytes()


def test_realize_many_equals_realize_bitwise(rng):
    m = MassVector(alpha=0.7, beta=1.3)
    sq = np.array([squared_distances(random_convex_config(rng, m))
                   for _ in range(100)])
    points, areas, ok = realize_many(sq, m)
    assert ok.all()
    valid, tri = trilaterated_area_rows(sq.T)
    with np.errstate(all="ignore"):
        once = realize_convex_many(tri[:5], m)
    assert valid.all() and once[2].all()
    assert once[0].tobytes() == points.tobytes()
    assert once[1].tobytes() == areas.tobytes()
    for row, pts, signed in zip(sq, points, areas):
        p = realize(row, m)
        assert (p.points == pts).all()
        assert tuple(oriented_areas(p)) == tuple(signed)


def reference_oracle(q: np.ndarray, m: MassVector):
    """The scalar Newtonian oracle, a double loop over the bodies: g_i adds
    m_j (q_j - q_i) / r_ij^3 from zero in j order, with r_ij from
    np.linalg.norm and its cube a Python float power.  Returns (g, lambda,
    relative misfit), or raises CollisionError at the first pair closer
    than 1e-9 times the RMS mutual distance."""
    w = np.asarray(m.masses)
    scale = math.sqrt(scale_sq_many(squared_distances_many(q)))
    g = np.zeros((4, 2))
    for i in range(4):
        for j in range(4):
            if i == j:
                continue
            dq = q[j] - q[i]
            rij = float(np.linalg.norm(dq))
            if rij <= 1e-9 * scale:
                raise CollisionError(f"bodies {i + 1} and {j + 1} collide")
            g[i] += w[j] * dq / rij ** 3
    gf, qf = g.ravel(), q.ravel()
    lam = float(gf @ qf / (qf @ qf))
    k = -math.frexp(float(np.abs(gf).max()))[1]
    residual = float(np.linalg.norm(np.ldexp(gf - lam * qf, k))
                     / np.linalg.norm(np.ldexp(gf, k)))
    return g, lam, residual


@pytest.mark.parametrize("alpha, beta", [(0.5, 0.8), (1e-3, 7.0),
                                         (1e150, 1.0), (1e150, 1e150)])
def test_newtonian_oracle_many_is_the_scalar_loop_bitwise(rng, alpha, beta):
    """Random configurations at scales 10^-9..10^9, and masses up to 1e150,
    where the squares in the misfit's norms would overflow without the
    ldexp rescale: every row of one batched call is the scalar loop's,
    bit for bit, and so is newtonian_oracle.  Among the distances are some
    whose cube numpy's power rounds otherwise than the C library's."""
    m = MassVector(alpha=alpha, beta=beta)
    points = (rng.normal(size=(500, 4, 2))
              * 10.0 ** rng.uniform(-9, 9, (500, 1, 1)))
    g, lam, residual, collided = newtonian_oracle_many(points, m)
    assert not collided.any()
    for q, *row in zip(points, g, lam, residual):
        want_g, want_lam, want_residual = reference_oracle(q, m)
        assert row[0].tobytes() == want_g.tobytes()
        assert (row[1], row[2]) == (want_lam, want_residual)
        p = PlanarConfig.from_points(q, m)
        assert newtonian_oracle(p, m) == reference_oracle(p.points, m)[1:]
    r = np.array([float(np.linalg.norm(q[j] - q[i]))
                  for q in points for i, j in PAIRS])
    assert (r ** 3 != [x ** 3 for x in r.tolist()]).any()


def test_newtonian_oracle_collision_is_one_line():
    """A collision raises one line naming the first pair of the scalar
    loop, and in a batch marks its ordered pairs and leaves the other rows
    as the scalar loop gives them."""
    for pts, pair in [([[-1.0, 0.0], [1.0, 0.0], [0.0, 5e-11],
                        [0.0, -5e-11]], "3 and 4"),
                      ([[-1.0, 0.0], [1.0, 0.0], [0.0, 1.0],
                        [-1.0, 1e-10]], "1 and 4")]:
        p = PlanarConfig.from_points(pts, EQUAL)
        with pytest.raises(CollisionError) as exc:
            newtonian_oracle(p, EQUAL)
        assert str(exc.value) == f"bodies {pair} collide"
        with pytest.raises(CollisionError, match=f"^bodies {pair} collide$"):
            reference_oracle(p.points, EQUAL)
    square = unit_square_config().points
    _, lam, residual, collided = newtonian_oracle_many(
        np.stack([square, p.points]), EQUAL)
    assert collided.sum(axis=1).tolist() == [0, 2]
    assert (lam[0], residual[0]) == reference_oracle(square, EQUAL)[1:]


def test_newtonian_oracle_rescales_far_and_near_rows_alone():
    """Rows whose cubes of distances overflow (x 1e103) or underflow
    (x 1e-110) are rescaled by a power of two: their misfit stays finite
    and at the unscaled level, g and lambda are the unscaled ones times
    the scale's powers -2 and -3, and the other rows keep the scalar
    loop's bits, which overflows on the far row.  newtonian_oracle raises
    OverflowError only where lambda, about 2.7e330 at x 1e-110, is not
    finite."""
    square = unit_square_config().points
    factors = [1.0, 1e103, 1e-3, 1e-110]
    points = np.stack([square * f for f in factors])
    g, lam, residual, collided = newtonian_oracle_many(points, EQUAL)
    assert not collided.any()
    for k in (0, 2):
        want_g, *want = reference_oracle(points[k], EQUAL)
        assert g[k].tobytes() == want_g.tobytes()
        assert [lam[k], residual[k]] == want
    with pytest.raises(OverflowError):
        reference_oracle(points[1], EQUAL)
    assert (residual < 1e-15).all()
    for k in (1, 3):
        assert g[k] / factors[k] ** -2 == pytest.approx(g[0], rel=1e-13)
    assert lam[1] / 1e-309 == pytest.approx(lam[0], rel=1e-12)
    assert lam[3] == -math.inf
    far = newtonian_oracle(PlanarConfig(points[1], EQUAL), EQUAL)
    assert far == (lam[1], residual[1])
    with pytest.raises(OverflowError, match="^lambda leaves"):
        newtonian_oracle(PlanarConfig(points[3], EQUAL), EQUAL)
