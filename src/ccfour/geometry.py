"""Planar configurations, oriented areas, the distance <-> point maps and
the direct Newtonian oracle.

The ``*_many`` functions work on whole batches: squared distances as (n, 6)
arrays, points as (n, 4, 2) and canonical frames as (n, 5) rows
(u, v, t, s, theta).  They return a validity mask where the scalar function
would raise.  The scalar functions share their code, so each formula exists
once and both paths give the same bits.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .dziobek import (PAIRS, MassVector, OrientedAreas, SquaredDistances,
                      cayley, planar_many, scale_sq_many)
from .errors import (CollisionError, Degenerate, NotConvex, NotPlanar,
                     NotRealizable)

COINCIDENCE_TOL = 1e-12
CENTROID_TOL = 1e-12
AREA_TOL = 1e-12


@dataclass(frozen=True)
class PlanarConfig:
    """Four labeled points with the weighted centroid at the origin."""

    points: np.ndarray  # shape (4, 2)
    masses: MassVector

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.shape != (4, 2):
            raise ValueError(f"points must have shape (4, 2), got {pts.shape}")
        object.__setattr__(self, "points", pts)
        centered, apart = _config_checks(pts, self.masses)
        if not centered:
            raise ValueError("weighted centroid is not at the origin")
        if not apart.all():
            i, j = PAIRS[int(np.argmin(apart))]
            raise ValueError(f"points {i + 1} and {j + 1} coincide")

    @classmethod
    def from_points(cls, points, masses: MassVector) -> "PlanarConfig":
        """Translate arbitrary points to the weighted centroid frame."""
        pts = np.asarray(points, dtype=float).reshape(4, 2)
        return cls(points=_recenter(pts, masses), masses=masses)

    @property
    def scale(self) -> float:
        """RMS mutual distance."""
        return math.sqrt(scale_sq_many(squared_distances_many(self.points)))

    def moment_of_inertia(self) -> float:
        """I = (1/m') sum m_i m_j r_ij^2 = sum m_i |q_i|^2 (centroid at 0)."""
        return float(_inertia(self.points, self.masses))

    def to_json_dict(self) -> dict:
        return {
            "masses": list(self.masses.masses),
            "points": [[float(x), float(y)] for x, y in self.points],
        }


def _centroid(points: np.ndarray, masses: MassVector) -> np.ndarray:
    w = np.asarray(masses.masses)
    return (w[:, None] * points).sum(axis=-2) / w.sum()


def _recenter(points: np.ndarray, masses: MassVector) -> np.ndarray:
    """(..., 4, 2) points translated to their weighted centroid."""
    return points - _centroid(points, masses)[..., None, :]


def _inertia(points: np.ndarray, masses: MassVector) -> np.ndarray:
    w = np.asarray(masses.masses)
    return (w * (points ** 2).sum(axis=-1)).sum(axis=-1)


def _config_checks(points: np.ndarray, masses: MassVector):
    """PlanarConfig's checks on (..., 4, 2) points: whether the weighted
    centroid is at the origin, and which of the six pairs are apart."""
    sq = squared_distances_many(points)
    scale = np.sqrt(scale_sq_many(sq))
    centered = (np.linalg.norm(_centroid(points, masses), axis=-1)
               <= CENTROID_TOL * np.maximum(scale, 1e-300))
    apart = np.sqrt(sq) > COINCIDENCE_TOL * scale[..., None]
    return centered, apart


def _signed_area(p, q, r):
    """Signed area of the triangle pqr; p, q, r are (..., 2) arrays."""
    return 0.5 * ((q[..., 0] - p[..., 0]) * (r[..., 1] - p[..., 1])
                  - (q[..., 1] - p[..., 1]) * (r[..., 0] - p[..., 0]))


def _sub_triangles(points: np.ndarray):
    """triangle_areas_many and convex_many of (..., 4, 2) points, from one
    pass over the signed Delta_i: the diagonals cross where Delta_1 and
    Delta_2 differ in sign (q1 and q2 lie on opposite sides of the line
    q3-q4), and so do Delta_3 and Delta_4."""
    q1, q2, q3, q4 = (points[..., i, :] for i in range(4))
    d = np.stack([_signed_area(q2, q3, q4),
                  _signed_area(q1, q3, q4),
                  _signed_area(q1, q2, q4),
                  _signed_area(q1, q2, q3)], axis=-1)
    return np.abs(d), (d[..., 0] * d[..., 1] < 0) & (d[..., 2] * d[..., 3] < 0)


def convex_many(points: np.ndarray) -> np.ndarray:
    """True where the open diagonals q1-q2 and q3-q4 properly intersect."""
    return _sub_triangles(points)[1]


def _check_convex(p: PlanarConfig) -> None:
    if not convex_many(p.points):
        raise NotConvex("diagonals q1-q2 and q3-q4 do not properly intersect")


def triangle_areas_many(points: np.ndarray) -> np.ndarray:
    """|Delta_i|, the area of the triangle on the three vertices other than
    i, for (..., 4, 2) points; shape (..., 4)."""
    return _sub_triangles(points)[0]


def _nondegenerate(points: np.ndarray, mags: np.ndarray) -> np.ndarray:
    scale_sq = scale_sq_many(squared_distances_many(points))
    return mags.min(axis=-1) >= AREA_TOL * scale_sq


def oriented_areas_many(points: np.ndarray):
    """Signed (-, -, +, +) areas of (n, 4, 2) points, and the mask of rows
    that oriented_areas accepts (no degenerate sub-triangle, convex)."""
    mags, convex = _sub_triangles(points)
    ok = _nondegenerate(points, mags) & convex
    return mags * np.array([-1.0, -1.0, 1.0, 1.0]), ok


def oriented_areas(p: PlanarConfig) -> OrientedAreas:
    """Signed sub-triangle areas with the convention (-, -, +, +).

    |Delta_i| is the area of the triangle on the three vertices other than i.
    """
    mags = triangle_areas_many(p.points)
    if not _nondegenerate(p.points, mags):
        raise Degenerate("a sub-triangle has numerically zero area")
    _check_convex(p)
    return OrientedAreas(-mags[0], -mags[1], mags[2], mags[3])


def squared_distances_many(points: np.ndarray) -> np.ndarray:
    """(..., 4, 2) points -> (..., 6) squared distances (a, ..., f)."""
    diffs = [points[..., i, :] - points[..., j, :] for i, j in PAIRS]
    return np.stack([(d ** 2).sum(axis=-1) for d in diffs], axis=-1)


def squared_distances(p: PlanarConfig) -> SquaredDistances:
    return SquaredDistances(*(float(x)
                              for x in squared_distances_many(p.points)))


def _trilateration(sq: np.ndarray):
    """The mask of (..., 6) rows with positive entries and both face
    triangles proper, and the coordinates r12, x3, y3, x4, -y4 of the
    placed q2 = (r12, 0), q3 = (x3, y3) and q4 = (x4, -y4).  Rows outside
    the mask get finite placeholders.  Call under np.errstate."""
    a, b, c, d, e = (sq[..., k] for k in range(5))
    ok = np.all(sq > 0, axis=-1)
    r12 = np.sqrt(np.where(ok, a, 1.0))
    x3 = (a + b - d) / (2.0 * r12)
    y3_sq = b - x3 * x3
    x4 = (a + c - e) / (2.0 * r12)
    y4_sq = c - x4 * x4
    ok &= (y3_sq > 0) & (y4_sq > 0)
    return (ok, r12, x3, np.sqrt(np.where(ok, y3_sq, 1.0)), x4,
            np.sqrt(np.where(ok, y4_sq, 1.0)))


def trilaterate_many(sq: np.ndarray):
    """Points of (n, 6) squared distances alone (f is not used), q1 at the
    origin, q2 on the positive x-axis, q3 above and q4 below it, and the
    mask of rows with positive entries and proper face triangles."""
    pts = np.zeros(sq.shape[:-1] + (4, 2))
    with np.errstate(all="ignore"):
        ok, r12, x3, y3, x4, y4m = _trilateration(sq)
        pts[..., 1, 0] = r12
        pts[..., 2, 0] = x3
        pts[..., 2, 1] = y3
        pts[..., 3, 0] = x4
        pts[..., 3, 1] = -y4m
    return pts, ok


def trilaterated_areas_many(sq: np.ndarray):
    """Oriented (-, -, +, +) areas of (n, 6) squared distances placed as
    trilaterate_many places them, and the mask of the rows it accepts
    whose diagonal q3-q4 crosses the open segment q1-q2.  f is not used.

    This is the geometry of every Newton iterate, so it works on the
    trilateration coordinates directly rather than on (n, 4, 2) points.
    """
    with np.errstate(all="ignore"):
        valid, areas, _ = _trilaterated_areas(sq)
    return valid, areas


def _trilaterated_areas(sq: np.ndarray):
    """trilaterated_areas_many, plus the coordinates (r12, x3, y3, x4, y4m)
    the areas are taken from.  Call under np.errstate."""
    valid, r12, x3, y3, x4, y4m = _trilateration(sq)
    xc = x3 + (x4 - x3) * y3 / (y3 + y4m)
    valid &= (xc > 0) & (xc < r12)
    mag1 = 0.5 * np.abs((x3 - r12) * (-y4m) - y3 * (x4 - r12))
    mag2 = 0.5 * np.abs(x3 * (-y4m) - y3 * x4)
    mag3 = 0.5 * r12 * y4m
    mag4 = 0.5 * r12 * y3
    return (valid, np.stack([-mag1, -mag2, mag3, mag4], axis=1),
            (r12, x3, y3, x4, y4m))


def trilaterated_area_derivatives_many(sq: np.ndarray):
    """trilaterated_areas_many, plus the (n, 4, 6) derivatives of the areas
    with respect to (a, ..., f); the f column is zero.

    On valid rows xc lies in (0, r12), so the magnitudes are
    mag2 = (x3 y4m + x4 y3) / 2, mag3 = r12 y4m / 2, mag4 = r12 y3 / 2 and
    mag1 = mag3 + mag4 - mag2, differentiated through r12 = sqrt(a),
    x3 = (a + b - d) / (2 r12), y3 = sqrt(b - x3^2),
    x4 = (a + c - e) / (2 r12) and y4m = sqrt(c - x4^2).
    """
    with np.errstate(all="ignore"):
        valid, areas, (r12, x3, y3, x4, y4m) = _trilaterated_areas(sq)
        r12, x3, y3, x4, y4m = (v[:, None] for v in (r12, x3, y3, x4, y4m))
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
    return valid, areas, np.stack([-dmag1, -dmag2, dmag3, dmag4], axis=1)


def realize(sq: Sequence[float], m: MassVector) -> PlanarConfig:
    """Inverse of squared_distances, up to congruence.

    Checks planarity via the Cayley determinant before trilaterating, and
    recenters on the weighted centroid.
    """
    sqt = SquaredDistances(*sq)
    if not planar_many(sqt)[0]:
        with np.errstate(all="ignore"):
            s_val = cayley(sqt)
        raise NotPlanar("squared distances do not embed in the plane "
                        f"(Cayley determinant {s_val:.3e})")
    if min(sqt) <= 0:
        raise NotRealizable("squared distances must be positive")
    pts, ok = trilaterate_many(np.asarray(sqt, dtype=float))
    if not ok:
        raise NotRealizable("a face triangle inequality is violated")
    return PlanarConfig.from_points(pts, m)


def realize_many(sq: np.ndarray, m: MassVector):
    """Recentered points of (n, 6) squared distances, and the mask of rows
    that realize accepts: planar, trilaterable, and passing PlanarConfig's
    centroid and coincidence checks."""
    pts, ok = trilaterate_many(sq)
    with np.errstate(all="ignore"):
        ok &= planar_many(sq)
        pts = _recenter(pts, m)
        centered, apart = _config_checks(pts, m)
    return pts, ok & centered & apart.all(axis=-1)


@dataclass(frozen=True)
class CanonicalFrame:
    """Representative of a configuration modulo rotation, translation,
    reflection and dilation.

    The diagonal q1-q2 lies on the x-axis with the diagonal crossing at the
    origin and q1 on the negative side; q3 sits in the upper half-plane at
    angle theta; the scale is fixed by moment of inertia I = 1.
    """

    u: float
    v: float
    t: float
    s: float
    theta: float

    def __post_init__(self):
        if min(self.u, self.v, self.t, self.s) <= 0:
            raise ValueError("frame radii must be positive")
        if not 0.0 < self.theta < math.pi:
            raise ValueError("theta must lie in (0, pi)")

    def as_vector(self) -> np.ndarray:
        return np.array([self.u, self.v, self.t, self.s, self.theta])

    def reconstruct(self, m: MassVector) -> PlanarConfig:
        return PlanarConfig.from_points(frame_points_many(self.as_vector()),
                                        m)

    def rescaled_to_unit_inertia(self, m: MassVector) -> "CanonicalFrame":
        row, ok = unit_inertia_many(self.as_vector(), m)
        if not ok:
            raise ValueError("frame does not reconstruct to four distinct "
                             "centered points")
        return CanonicalFrame(*(float(x) for x in row))

    def to_json_dict(self) -> dict:
        return asdict(self)


def frame_points_many(frames: np.ndarray) -> np.ndarray:
    """Uncentered points of (..., 5) frame rows (u, v, t, s, theta)."""
    u, v, t, s, theta = (frames[..., k] for k in range(5))
    ct, st = np.cos(theta), np.sin(theta)
    pts = np.zeros(frames.shape[:-1] + (4, 2))
    pts[..., 0, 0] = -u
    pts[..., 1, 0] = v
    pts[..., 2, 0] = t * ct
    pts[..., 2, 1] = t * st
    pts[..., 3, 0] = -s * ct
    pts[..., 3, 1] = -s * st
    return pts


def reconstruct_many(frames: np.ndarray, m: MassVector) -> np.ndarray:
    """Points of (..., 5) frame rows, recentered as CanonicalFrame.reconstruct
    does."""
    return _recenter(frame_points_many(frames), m)


def unit_inertia_many(frames: np.ndarray, m: MassVector):
    """(..., 5) frame rows dilated to moment of inertia one, and the mask of
    rows whose reconstruction passes PlanarConfig's checks."""
    pts = reconstruct_many(frames, m)
    centered, apart = _config_checks(pts, m)
    k = 1.0 / np.sqrt(_inertia(pts, m))
    out = np.array(frames, dtype=float)
    out[..., :4] *= k[..., None]
    return out, centered & apart.all(axis=-1)


def _atan2(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Elementwise math.atan2.  numpy's SIMD arctan2 can differ from the C
    library in the last bit; frames keep the C library's bits."""
    y, x = np.broadcast_arrays(y, x)
    out = map(math.atan2, y.ravel().tolist(), x.ravel().tolist())
    return np.fromiter(out, dtype=float, count=y.size).reshape(y.shape)


def _frames_from_points(points: np.ndarray) -> np.ndarray:
    """Canonical frames of (..., 4, 2) convex points, before the inertia
    rescale."""
    q1, q2, q3, q4 = (points[..., i, :] for i in range(4))
    # diagonal crossing: q1 + lam (q2 - q1) on segment q3-q4
    d12 = q2 - q1
    d34 = q4 - q3
    denom = d12[..., 0] * d34[..., 1] - d12[..., 1] * d34[..., 0]
    rhs = q3 - q1
    lam = (rhs[..., 0] * d34[..., 1] - rhs[..., 1] * d34[..., 0]) / denom
    cross = q1 + lam[..., None] * d12
    shifted = points - cross[..., None, :]
    # rotate q1-q2 onto the x-axis, q1 negative side
    phi = _atan2(shifted[..., 1, 1], shifted[..., 1, 0])
    c, s = np.cos(-phi), np.sin(-phi)
    rot = np.stack([np.stack([c, -s], axis=-1),
                    np.stack([s, c], axis=-1)], axis=-2)
    aligned = shifted @ np.swapaxes(rot, -1, -2)
    # reflect so q3 is in the upper half-plane
    aligned[..., 1] *= np.where(aligned[..., 2, 1] < 0, -1.0, 1.0)[..., None]
    return np.stack([-aligned[..., 0, 0], aligned[..., 1, 0],
                     np.hypot(aligned[..., 2, 0], aligned[..., 2, 1]),
                     np.hypot(aligned[..., 3, 0], aligned[..., 3, 1]),
                     _atan2(aligned[..., 2, 1], aligned[..., 2, 0])], axis=-1)


def _valid_frames(frames: np.ndarray) -> np.ndarray:
    """CanonicalFrame's checks on (..., 5) rows, which must also be finite."""
    theta = frames[..., 4]
    return (np.isfinite(frames).all(axis=-1)
            & (frames[..., :4] > 0).all(axis=-1)
            & (0.0 < theta) & (theta < math.pi))


def canonicalize_many(points: np.ndarray, m: MassVector):
    """Unit-inertia canonical frames of (n, 4, 2) centered points, and the
    mask of rows that canonicalize accepts: convex, with a valid frame whose
    reconstruction passes PlanarConfig's checks."""
    with np.errstate(all="ignore"):
        raw = _frames_from_points(points)
        frames, ok = unit_inertia_many(raw, m)
    ok &= convex_many(points) & _valid_frames(raw) & _valid_frames(frames)
    return frames, ok


def canonicalize(p: PlanarConfig) -> CanonicalFrame:
    """Map a convex configuration (1, 2 opposite) to its canonical frame."""
    _check_convex(p)
    raw = _frames_from_points(p.points)
    frame = CanonicalFrame(*(float(x) for x in raw))
    return frame.rescaled_to_unit_inertia(p.masses)


def congruent(p1: PlanarConfig, p2: PlanarConfig, tol: float = 1e-8) -> bool:
    """True iff the canonical frames agree componentwise within tol."""
    f1 = canonicalize(p1).as_vector()
    f2 = canonicalize(p2).as_vector()
    return bool(np.all(np.abs(f1 - f2) <= tol))


def newtonian_oracle(p: PlanarConfig, m: MassVector) -> tuple[float, float]:
    """Least-squares multiplier and relative misfit of M^-1 grad U = lambda q.

    Independent of the squared-distance formulation: works directly on the
    planar positions and the Newtonian pairwise forces.
    """
    q = p.points
    w = np.asarray(m.masses)
    scale = p.scale
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
    gf = g.ravel()
    qf = q.ravel()
    lam = float(gf @ qf / (qf @ qf))
    # divide by a power of two near max |gf|: exact, and the squares in the
    # norms cannot overflow when a mass is huge
    k = -math.frexp(float(np.abs(gf).max()))[1]
    residual = float(np.linalg.norm(np.ldexp(gf - lam * qf, k))
                     / np.linalg.norm(np.ldexp(gf, k)))
    return lam, residual
