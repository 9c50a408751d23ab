import math

import numpy as np
import pytest

from ccfour import (CCFourError, Degenerate, DziobekState, MassVector,
                    NotConvex, NotPlanar, NotRealizable, OrientedAreas,
                    PlanarConfig, SquaredDistances, canonicalize, census,
                    classify_symmetry, oriented_areas, realize, seed_grid,
                    solve_kite, squared_distances)
from ccfour.census import DEDUPE_TOL, MAX_RESOLUTION, _dedupe, _seed_vectors
from ccfour.dziobek import cayley_many, planar_many, scale_sq_many
from ccfour.geometry import (_sub_triangles, canonicalize_many,
                             reconstruct_many, squared_distances_many)
from ccfour.solver import (_KITE_EMBED, CONVERGED, LEFT_CONVEX,
                           NEAR_BOUNDARY, NO_CONVERGENCE, REJECTED, Residuals,
                           SolveOptions, solve_batch)
from conftest import random_convex_config, realize_many, seed_record

# smallest sub-triangle area over mean squared distance that a seed frame
# must clear; the lattice clears it by a factor of 40
AREA_MARGIN = 1e-3


def state_from_sq(sq):
    # areas are irrelevant for distance-equality classification
    return DziobekState(sq=SquaredDistances(*sq),
                        areas=OrientedAreas(-0.5, -0.5, 0.5, 0.5),
                        nu=1.0, xi=-1.0)


def test_classify_square():
    assert classify_symmetry(state_from_sq((2, 1, 1, 1, 1, 2))).label == \
        "square"


def test_classify_rhombus():
    assert classify_symmetry(state_from_sq((4, 2, 2, 2, 2, 1))).label == \
        "rhombus"


def test_classify_kites():
    assert classify_symmetry(
        state_from_sq((1.0, 0.7, 0.8, 0.7, 0.8, 1.4))).label == "kite_axis_34"
    assert classify_symmetry(
        state_from_sq((1.0, 0.7, 0.7, 0.8, 0.8, 1.4))).label == "kite_axis_12"


def test_classify_asymmetric():
    assert classify_symmetry(
        state_from_sq((1.0, 0.7, 0.8, 0.9, 1.1, 1.4))).label == "asymmetric"


def test_classify_tolerance_is_scale_relative():
    base = np.array([2, 1, 1, 1, 1, 2], dtype=float)
    wobble = base * (1 + 1e-8)
    wobble[1] += 1e-8
    big = classify_symmetry(state_from_sq(wobble * 1e6))
    assert big.label == "square"


def test_seed_grid_counts_and_margin():
    frames = seed_grid(3)
    assert 0 < len(frames) <= 81
    from ccfour import oriented_areas

    m = MassVector(alpha=1.0, beta=1.0)
    for frame in frames:
        p = frame.reconstruct(m)
        assert p.moment_of_inertia() == pytest.approx(1.0, abs=1e-10)
        areas = np.abs(np.asarray(oriented_areas(p)))
        assert areas.min() > 0.5 * AREA_MARGIN * p.scale ** 2


@pytest.mark.parametrize("resolution", [2, 3, 4, 5, 6])
def test_seed_grid_has_every_lattice_point(resolution):
    assert len(seed_grid(resolution)) == resolution ** 4


def test_seed_lattice_is_far_from_degenerate():
    rows = np.array([f.as_vector() for f in seed_grid(8)])
    pts = reconstruct_many(rows, MassVector(alpha=1.0, beta=1.0))
    ratio = (_sub_triangles(pts)[0].min(axis=1)
             / scale_sq_many(squared_distances_many(pts)))
    assert ratio.min() >= 0.0397


def test_seed_grid_rejects_small_resolution():
    with pytest.raises(ValueError):
        seed_grid(1)


def test_seed_grid_rejects_resolution_above_the_cap(monkeypatch):
    # a lattice this large must fail before it is built
    monkeypatch.setattr(np, "geomspace", None)
    for resolution in (MAX_RESOLUTION + 1, 10 ** 9):
        with pytest.raises(ValueError, match=f"from 2 to {MAX_RESOLUTION}"):
            seed_grid(resolution)


def test_seed_grid_and_census_reject_a_non_integer_resolution():
    m = MassVector(alpha=0.5, beta=0.8)
    for resolution in (8.0, 2.5):
        for build in (lambda: seed_grid(resolution, m),
                      lambda: census(m, resolution)):
            with pytest.raises(ValueError,
                               match=f"from 2 to {MAX_RESOLUTION}"):
                build()
    assert len(seed_grid(np.int64(2), m)) == 16


def test_census_equal_masses_single_square_class():
    m = MassVector(alpha=1.0, beta=1.0)
    report = census(m, resolution=5)
    assert report.seeds_total > 0
    assert report.seeds_converged > 0.5 * report.seeds_total
    assert len(report.classes) == 1
    cls = report.classes[0]
    assert cls.symmetry.label == "square"
    assert cls.basin == report.seeds_converged
    assert np.allclose(cls.state.sq, (1, 0.5, 0.5, 0.5, 0.5, 1), atol=1e-9)
    assert not report.outside_theorem_hypothesis


def test_census_kite_masses_single_class():
    m = MassVector(alpha=0.5, beta=0.8)
    report = census(m, resolution=5)
    assert len(report.classes) == 1
    cls = report.classes[0]
    assert cls.symmetry.label == "kite_axis_34"
    expected = solve_kite(m).state
    assert np.allclose(cls.state.sq, expected.sq, rtol=1e-8)


def test_census_outside_hypothesis_flag():
    report = census(MassVector(alpha=1.5, beta=2.0), resolution=3)
    assert report.outside_theorem_hypothesis


def test_census_deterministic_json():
    from ccfour.jsonio import dumps

    m = MassVector(alpha=0.6, beta=0.9)
    r1 = dumps(census(m, resolution=4).to_json_dict())
    r2 = dumps(census(m, resolution=4).to_json_dict())
    assert r1 == r2


def test_census_report_json_shape():
    report = census(MassVector(alpha=1.0, beta=1.0), resolution=3)
    d = report.to_json_dict()
    assert set(d) == {"masses", "classes", "seeds_total", "seeds_converged",
                      "outside_theorem_hypothesis"}
    assert d["masses"] == [1.0, 1.0, 1.0, 1.0]
    cls = d["classes"][0]
    assert set(cls) == {"frame", "state", "symmetry", "basin"}


def reference_seed_grid(resolution, m):
    """The lattice frame by frame: raw points, the area margin on them, then
    the unit-inertia rescale about the weighted centroid."""
    w = np.asarray(m.masses)
    frames = []
    radii = np.geomspace(0.35, 2.8, resolution).tolist()
    angles = np.linspace(0.3 * math.pi, 0.7 * math.pi, resolution).tolist()
    for v in np.geomspace(0.5, 2.0, resolution).tolist():
        for t in radii:
            for s in radii:
                for th in angles:
                    ct, st = math.cos(th), math.sin(th)
                    pts = np.array([[-1.0, 0.0], [v, 0.0], [t * ct, t * st],
                                    [-s * ct, -s * st]])
                    sq = [float(np.sum((pts[i] - pts[j]) ** 2))
                          for i in range(4) for j in range(i + 1, 4)]
                    areas = [0.5 * abs((q[0] - p[0]) * (r[1] - p[1])
                                       - (q[1] - p[1]) * (r[0] - p[0]))
                             for p, q, r in (pts[[1, 2, 3]], pts[[0, 2, 3]],
                                             pts[[0, 1, 3]], pts[[0, 1, 2]])]
                    if min(areas) < AREA_MARGIN * (sum(sq) / 6.0):
                        continue
                    centered = pts - (w[:, None] * pts).sum(axis=0) / w.sum()
                    inertia = float((w * (centered ** 2).sum(axis=1)).sum())
                    k = 1.0 / math.sqrt(inertia)
                    frames.append((1.0 * k, v * k, t * k, s * k, th))
    return frames


def reference_seed_sq(frame, m):
    """Squared distances of one frame's points about the weighted centroid."""
    u, v, t, s, th = frame
    ct, st = math.cos(th), math.sin(th)
    pts = np.array([[-u, 0.0], [v, 0.0], [t * ct, t * st], [-s * ct, -s * st]])
    w = np.asarray(m.masses)
    pts = pts - (w[:, None] * pts).sum(axis=0) / w.sum()
    return [float(np.sum((pts[i] - pts[j]) ** 2))
            for i in range(4) for j in range(i + 1, 4)]


@pytest.mark.parametrize("resolution", [2, 3, 5])
@pytest.mark.parametrize("masses", [(1.0, 1.0), (0.5, 0.8)])
def test_seed_lattice_matches_per_frame_recipe_bitwise(resolution, masses):
    m = MassVector(*masses)
    expected = reference_seed_grid(resolution, m)
    frames = seed_grid(resolution, m)
    assert [(f.u, f.v, f.t, f.s, f.theta) for f in frames] == expected
    x0 = _seed_vectors(frames, m)[0]
    assert x0[:, :6].tolist() == [reference_seed_sq(f, m) for f in expected]


def sq_row(points, m, nu=1.0, xi=-1.0):
    sq = squared_distances(PlanarConfig.from_points(points, m))
    return [*sq, nu, xi]


# every residual is below this tolerance, so every planar row inside the
# convex region converges where it starts and the acceptance pass sees the
# rows as given; a row 1% off the plane, after its one step, is still not
# planar and ends NO_CONVERGENCE
AT_START = SolveOptions(residual_tol=1e300, max_iterations=1)


def test_accept_keeps_exactly_the_rows_scalar_postprocessing_keeps(rng):
    m = MassVector(alpha=0.5, beta=0.8)
    good = solve_kite(m).state
    base = [*good.sq, good.nu, good.xi]
    rows = [base]
    rows += [sq_row(random_convex_config(rng, m).points, m)
             for _ in range(5)]
    nonplanar = list(base)
    nonplanar[5] *= 1.01
    rows.append(nonplanar)
    for nu in (0.0, -good.nu):  # nu <= 0 is not a central configuration
        rows.append([*good.sq, nu, good.xi])
    # diagonal q3-q4 misses the segment q1-q2
    rows.append(sq_row([[-1.0, 0.0], [1.0, 0.0], [2.0, 1.0], [2.0, -1.0]], m))
    # q2 almost on the diagonal q3-q4: triangle (q2, q3, q4) has no area
    rows.append(sq_row([[-1.0, 0.0], [1e-13, 0.0], [0.0, 1.0], [0.0, -1.0]],
                       m))
    # four collinear points: planar, but no face triangle has area
    rows.append([1.0, 4.0, 9.0, 1.0, 4.0, 1.0, 1.0, -1.0])
    rows.append([-1.0, *base[1:]])
    x = np.array(rows)

    expected, configs, areas, frames, errors = [], [], [], [], set()
    for i, row in enumerate(x):
        try:
            config = realize(row[:6], m)
            row_areas = oriented_areas(config)
            frame = canonicalize(config)
        except CCFourError as exc:
            errors.add(type(exc))
            continue
        if row[6] > 0:
            expected.append(i)
            configs.append(config.points.tolist())
            areas.append(tuple(row_areas))
            frames.append(tuple(frame.as_vector()))
    assert {NotPlanar, NotConvex, Degenerate, NotRealizable} <= errors
    fun = Residuals(m, "fix_inertia_one")
    batch = solve_batch(fun, seed_record(fun, x), m, AT_START)
    assert batch.accepted.tolist() == expected
    assert batch.x[batch.accepted].tolist() == x[expected].tolist()
    assert batch.points.tolist() == configs
    assert [tuple(a) for a in batch.areas] == areas
    got, ok = canonicalize_many(batch.points, m)
    assert ok.all() and [tuple(f) for f in got] == frames
    # Newton does not stop on the nonplanar row; the converged rows that
    # fail: nu = 0, nu < 0, degenerate
    assert batch.status[6] == NO_CONVERGENCE
    assert np.flatnonzero(batch.status == REJECTED).tolist() == [7, 8, 10]
    assert set(batch.status.tolist()) == {CONVERGED, REJECTED, LEFT_CONVEX,
                                          NO_CONVERGENCE}


def test_accept_through_the_kite_embedding():
    m = MassVector(alpha=0.5, beta=0.8)
    good = solve_kite(m).state
    reduced = [good.sq.a, good.sq.b, good.sq.c, good.sq.f, good.nu, good.xi]
    nonplanar = list(reduced)
    nonplanar[3] *= 1.01
    x = np.array([nonplanar, [*reduced[:4], -good.nu, good.xi], reduced])
    fun = Residuals(m, "fix_inertia_one", embed=_KITE_EMBED)
    batch = solve_batch(fun, seed_record(fun, x), m, AT_START)
    assert batch.status.tolist() == [NO_CONVERGENCE, REJECTED, CONVERGED]
    assert batch.accepted.tolist() == [2]
    full = x[2, list(_KITE_EMBED)]
    config = realize(full[:6], m)
    assert batch.report(0).state == DziobekState(
        sq=SquaredDistances(*full[:6].tolist()),
        areas=oriented_areas(config), nu=good.nu, xi=good.xi)
    assert batch.points.tolist() == [config.points.tolist()]


def test_dedupe_matches_sequential_matching(rng):
    centres = rng.uniform(0.5, 2.0, (4, 5))
    labels = rng.integers(0, 4, 300)
    jitter = rng.uniform(-1, 1, (300, 5)) * DEDUPE_TOL / 5
    frames = centres[labels] + jitter
    reps, members = [], []
    for i, vec in enumerate(frames):
        for k, rep in enumerate(reps):
            if np.linalg.norm(vec - rep) < DEDUPE_TOL:
                members[k].append(i)
                break
        else:
            reps.append(vec)
            members.append([i])
    assert [g.tolist() for g in _dedupe(frames)] == members


def test_census_pinned_counts_at_kite_masses(monkeypatch):
    """Seed and status counts, and the Cayley kernel's calls and rows: only
    the rows inside the convex region reach it (216,856 rows when every
    line-search trial was evaluated)."""
    calls, rows = [], []

    def counted(sq):
        calls.append(1)
        rows.append(len(sq))
        return cayley_many(sq)

    monkeypatch.setattr("ccfour.solver.cayley_many", counted)
    m = MassVector(alpha=0.5, beta=0.8)
    report = census(m, resolution=8)
    assert (len(calls), sum(rows)) == (132, 120_151)
    assert report.seeds_total == 4096
    assert report.seeds_converged == 2710
    assert [(c.symmetry.label, c.basin) for c in report.classes] == \
        [("kite_axis_34", 2710)]
    batch = solve_batch(Residuals(m, "fix_inertia_one"),
                        _seed_vectors(seed_grid(8, m), m), m, SolveOptions())
    codes, counts = np.unique(batch.status, return_counts=True)
    assert dict(zip(codes.tolist(), counts.tolist())) == {
        CONVERGED: 2710, NEAR_BOUNDARY: 1361, NO_CONVERGENCE: 25}


def test_census_acceptance_takes_every_cayley_determinant_from_newton(
        monkeypatch):
    """A resolution-8 census at (0.5, 0.8): 205 of its 2,710 converged
    rows end with S / 32 exactly +-0, where 32 times it is not S to the
    bit, yet on every converged row Newton's planarity test decides as
    planar_many does with S afresh.  Newton takes S from its residual, so
    dziobek.cayley_many, which planar_many calls for S otherwise, runs no
    time."""
    calls = []

    def counted(sq):
        calls.append(len(sq))
        return cayley_many(sq)

    m = MassVector(alpha=0.5, beta=0.8)
    fun = Residuals(m, "fix_inertia_one")
    batch = solve_batch(fun, _seed_vectors(seed_grid(8, m), m), m,
                        SolveOptions())
    x = batch.x[batch.status == CONVERGED]
    res = fun(x)[0]
    s32 = res[:, 6]
    assert (x.shape[0], np.count_nonzero(s32 == 0)) == (2710, 205)
    with np.errstate(all="ignore"):
        assert (fun.planar(x, res) == planar_many(x[:, :6])).all()
    monkeypatch.setattr("ccfour.dziobek.cayley_many", counted)
    assert census(m, resolution=8).seeds_converged == 2710
    assert calls == []


# the default tolerance's seeds_converged at resolution 8
DEFAULT_TOL_CONVERGED = {(0.5, 0.8): 2710, (0.1, 0.3): 3379, (1.0, 1.4): 2669}


@pytest.mark.parametrize("tol", [1e-5, 1e-8])
@pytest.mark.parametrize("alpha, beta", list(DEFAULT_TOL_CONVERGED))
def test_census_at_a_loose_tolerance_converges_the_default_seeds(alpha, beta,
                                                                  tol):
    """Newton stops a row only where it is planar, so a looser tolerance
    loses no seed; the acceptance pass took planarity apart once and lost
    most of them at 1e-5 (975, 870 and 1,118)."""
    report = census(MassVector(alpha, beta), resolution=8,
                    opts=SolveOptions(residual_tol=tol))
    assert report.seeds_converged == DEFAULT_TOL_CONVERGED[alpha, beta]


@pytest.mark.parametrize("tol", [1e-12, 1e-8])
def test_accepted_points_and_areas_are_realize_many_bitwise(tol):
    """solve_batch places the converged rows from Newton's trilateration
    and takes one pass of squared distances for its centroid, coincidence
    and area tests; on the census seeds at (0.5, 0.8) its acceptance, points
    and areas are bitwise those of the reference realize_many on the final
    vectors, which accepts every converged row, planarity included, at
    both tolerances, and the checking constructor accepts each reported
    configuration."""
    m = MassVector(alpha=0.5, beta=0.8)
    batch = solve_batch(Residuals(m, "fix_inertia_one"),
                        _seed_vectors(seed_grid(8, m), m), m,
                        SolveOptions(residual_tol=tol))
    conv = np.flatnonzero(np.isin(batch.status, [CONVERGED, REJECTED]))
    points, areas, ok = realize_many(batch.x[conv, :6], m)
    ok &= batch.x[conv, 6] > 0
    assert conv[ok].tolist() == batch.accepted.tolist()
    assert ok.all() and conv.size == 2710
    assert points[ok].tobytes() == batch.points.tobytes()
    assert areas[ok].tobytes() == batch.areas.tobytes()
    for k, pts in enumerate(batch.points):
        assert np.shares_memory(batch.report(k).config.points, pts)
        PlanarConfig(pts, m)
