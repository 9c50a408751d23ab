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

from .dziobek import (PAIR_I, PAIR_J, PAIRS, MassVector, OrientedAreas,
                      SquaredDistances, cayley, planar_many, scale_sq_many)
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


# the vertices (p, q, r) of the triangle without vertex i, for i = 0..3
_TRIANGLES = np.array([(1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2)]).T


def _sub_triangles(points: np.ndarray):
    """triangle_areas_many and convex_many of (..., 4, 2) points, from one
    pass over the signed Delta_i: the diagonals cross where Delta_1 and
    Delta_2 differ in sign (q1 and q2 lie on opposite sides of the line
    q3-q4), and so do Delta_3 and Delta_4."""
    d = _signed_area(*(points[..., v, :] for v in _TRIANGLES))
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
    d = points[..., PAIR_I, :] - points[..., PAIR_J, :]
    return (d ** 2).sum(axis=-1)


def squared_distances(p: PlanarConfig) -> SquaredDistances:
    return SquaredDistances(*(float(x)
                              for x in squared_distances_many(p.points)))


def _trilateration(rows: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The mask of (6, ...) rows a..f with positive entries and both face
    triangles proper; writes r12 and the coordinates (x3, x4) and
    (y3, -y4) of the placed q2 = (r12, 0), q3 = (x3, y3) and q4 = (x4, y4)
    into out[0], out[1:3] and out[3:5]: q3 is placed from (b, d), rows 1
    and 3, as q4 is from (c, e), rows 2 and 4.  Entries outside the mask
    get finite placeholders.  Call under np.errstate."""
    a = rows[0]
    ok = np.logical_and.reduce(rows > 0, axis=0)
    np.sqrt(np.where(ok, a, 1.0), out=out[:1])
    x = np.divide(a + rows[1:3] - rows[3:5], 2.0 * out[0], out=out[1:3])
    y_sq = rows[1:3] - x * x
    ok &= np.logical_and.reduce(y_sq > 0, axis=0)
    np.sqrt(np.where(ok, y_sq, 1.0), out=out[3:5])
    return ok


def trilaterate_many(sq: np.ndarray):
    """Points of (n, 6) squared distances alone (f is not used), q1 at the
    origin, q2 on the positive x-axis, q3 above and q4 below it, and the
    mask of rows with positive entries and proper face triangles."""
    tri = np.empty((5,) + sq.shape[:-1])
    with np.errstate(all="ignore"):
        ok = _trilateration(np.moveaxis(sq, -1, 0), tri)
    r12, x3, x4, y3, y4m = tri
    zero = np.zeros_like(r12)
    pts = np.stack([zero, zero, r12, zero, x3, y3, x4, -y4m], axis=-1)
    return pts.reshape(sq.shape[:-1] + (4, 2)), ok


def trilaterated_areas_many(sq: np.ndarray):
    """Oriented (-, -, +, +) areas of (n, 6) squared distances placed as
    trilaterate_many places them, and the mask of the rows it accepts
    whose diagonal q3-q4 crosses the open segment q1-q2.  f is not used.
    The (n, 4) areas are a view of trilaterated_area_rows' rows."""
    valid, tri = trilaterated_area_rows(sq.T)
    return valid, tri[5:].T


def trilaterated_area_rows(sq: np.ndarray):
    """trilaterated_areas_many in row layout: the mask of the (6, n) rows
    a..f and their (9, n) trilateration, the rows r12, x3, x4, y3 and y4m
    of trilaterate_many's placed points, then the areas (tri[5:]).

    This is the geometry of every Newton iterate, so it works on the
    trilateration coordinates directly rather than on (n, 4, 2) points,
    and trilaterated_area_derivative_rows takes it as it is.
    """
    tri = np.empty((9,) + sq.shape[1:])
    with np.errstate(all="ignore"):
        valid = _trilateration(sq, tri)
        r12, (x3, x4), (y3, y4m) = tri[0], tri[1:3], tri[3:5]
        xc = x3 + (x4 - x3) * y3 / (y3 + y4m)
        valid &= (xc > 0) & (xc < r12)
        # -mag1 and -mag2; (-0.5) t is -(0.5 t) to the bit
        np.multiply(-0.5, np.abs((x3 - r12) * -y4m - y3 * (x4 - r12)),
                    out=tri[5])
        np.multiply(-0.5, np.abs(x3 * -y4m - y3 * x4), out=tri[6])
        # mag3 = r12 y4m / 2 and mag4 = r12 y3 / 2
        np.multiply(0.5 * r12, tri[4:2:-1], out=tri[7:])
    return valid, tri


# dx[k] and dy[k] below are the derivatives of (x3, x4) and (y3, y4m)
# along a, (b, c) and (d, e) for k = 0, 1, 2; y = sqrt((b, c) - x^2), so
# dy = (d(b, c) / 2 - x dx) / y, whose constant term is 0.5 along (b, c)
_DY_CONST = np.array([0.0, 0.5, 0.0])[:, None, None]
# columns of the derivatives of mag4 and mag3 along k = 0, 1, 2
_MAG4_COLS = np.array([0, 1, 3])
_MAG3_COLS = np.array([0, 2, 4])
# True where the derivative of Delta_k along column j of (a..f) is not
# identically zero: Delta_1 and Delta_2 move with a..e, Delta_3 with a, c
# and e, Delta_4 with a, b and d
AREA_DERIVATIVE_MOVES = np.zeros((4, 6), dtype=bool)
AREA_DERIVATIVE_MOVES[:2, :5] = True
AREA_DERIVATIVE_MOVES[2, _MAG3_COLS] = True
AREA_DERIVATIVE_MOVES[3, _MAG4_COLS] = True


def trilaterated_area_derivative_rows(tri: np.ndarray) -> np.ndarray:
    """The (4, 6, n) derivatives of the areas with respect to (a, ..., f),
    from the (9, n) trilateration of trilaterated_area_rows.

    On valid rows xc lies in (0, r12), so mag2 = (x3 y4m + x4 y3) / 2,
    mag3 = r12 y4m / 2, mag4 = r12 y3 / 2 and mag1 = mag3 + mag4 - mag2,
    through r12 = sqrt(a), x3 = (a + b - d) / (2 r12), y3 = sqrt(b - x3^2),
    x4 = (a + c - e) / (2 r12) and y4m = sqrt(c - x4^2).  Only 16 of the
    24 derivatives are not identically zero: mag1 and mag2 move with
    a..e, mag3 with a, c and e, mag4 with a, b and d.  The mirror image
    q3 <-> q4, (b, d) <-> (c, e), maps one side's formulas on the other's,
    so each is taken for both sides at once, by the chain rule with the
    operations, in order, of the derivative along the full unit vector,
    less the zero terms.  That changes no bit, but in the mag2 derivatives
    along d and e where -y3 / (2 r12) or -y4m / (2 r12) underflows to -0.
    The identically zero ones are left as allocated, and the rows of
    Delta_1 = -mag1 and Delta_2 = -mag2 are negated whole, so their f
    column is -0, as along the full unit vector.
    """
    r12, x, y = tri[0], tri[1:3], tri[3:5]
    with np.errstate(all="ignore"):
        half = 0.5 / r12  # dr12/da
        dx = np.empty((3,) + x.shape)
        np.subtract(half, (x / r12) * half, out=dx[0])
        dx[1] = half
        dx[2] = -half
        dy = (_DY_CONST - x * dx) / y
        # mag4 and mag3 along a, (b, c) and (d, e); r12 moves with a alone
        dr12_y = np.zeros(dy.shape)
        np.multiply(half, y, out=dr12_y[0])
        dmag43 = 0.5 * (dr12_y + r12 * dy)
        # mag2 along (b, c) and (d, e), then along a
        dmag2 = 0.5 * (dx[1:] * y[::-1] + x[::-1] * dy[1:])
        t, u = dx[0] * y[::-1], x * dy[0, ::-1]
        d = np.zeros((4, 6) + r12.shape)
        d[1, 0] = 0.5 * (t[0] + u[0] + t[1] + u[1])
        d[1, 1:5] = dmag2.reshape((4,) + r12.shape)
        d[3, _MAG4_COLS] = dmag43[:, 0]
        d[2, _MAG3_COLS] = dmag43[:, 1]
        np.subtract(d[2] + d[3], d[1], out=d[0])
        np.negative(d[:2], out=d[:2])
    return d


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
