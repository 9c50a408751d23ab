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
_TINY, _HUGE = np.finfo(float).tiny, 2.0 ** 1020  # normal; six sum finite


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
        with np.errstate(over="ignore"):  # far rows are checked rescaled
            centered, apart, _ = _config_checks(pts, self.masses)
        if not centered:
            raise ValueError("weighted centroid is not at the origin")
        if not apart.all():
            i, j = PAIRS[int(np.argmin(apart))]
            raise CollisionError(f"points {i + 1} and {j + 1} coincide")

    @classmethod
    def trusted(cls, points: np.ndarray, masses: MassVector) -> "PlanarConfig":
        """The config of (4, 2) float points that realize_convex_many has
        accepted at these masses, built without checking them again."""
        config = object.__new__(cls)
        config.__dict__.update(points=points, masses=masses)
        return config

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
    centroid is at the origin, which pairs are apart, and their scale_sq.
    A row with a squared distance outside [_TINY, _HUGE] is checked at its
    points times 2^e, in the unit square.  Call under np.errstate."""
    sq = squared_distances_many(points)
    scale_sq = checked = scale_sq_many(sq)
    if not _TINY <= sq.min(initial=1.0) <= sq.max(initial=1.0) <= _HUGE:
        points = _unit_scaled(
            points, ~((sq >= _TINY) & (sq <= _HUGE)).all(axis=-1))[0]
        sq = squared_distances_many(points)
        checked = scale_sq_many(sq)
    scale = np.sqrt(checked)
    centered = (np.linalg.norm(_centroid(points, masses), axis=-1)
               <= CENTROID_TOL * np.maximum(scale, 1e-300))
    apart = np.sqrt(sq) > COINCIDENCE_TOL * scale[..., None]
    return centered, apart, scale_sq


def _unit_scaled(points: np.ndarray, far: np.ndarray):
    """Points with each far row times 2^e, in the unit square, and e."""
    e = np.where(far, -np.frexp(np.abs(points).max(axis=(-2, -1)))[1], 0)
    return np.ldexp(points, e[..., None, None]), e


def _signed_area(p, q, r):
    """Signed area of the triangle pqr; p, q, r are (..., 2) arrays."""
    return 0.5 * ((q[..., 0] - p[..., 0]) * (r[..., 1] - p[..., 1])
                  - (q[..., 1] - p[..., 1]) * (r[..., 0] - p[..., 0]))


# the vertices (p, q, r) of the triangle without vertex i, for i = 0..3
_TRIANGLES = np.array([(1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2)]).T


def _sub_triangles(points: np.ndarray):
    """|Delta_i| of (..., 4, 2) points, the areas of the triangles without
    vertex i, and where the open diagonals q1-q2 and q3-q4 cross: where
    Delta_1 and Delta_2 differ in sign (q1 and q2 lie on opposite sides of
    the line q3-q4), and so do Delta_3 and Delta_4."""
    d = _signed_area(*(points[..., v, :] for v in _TRIANGLES))
    return np.abs(d), (d[..., 0] * d[..., 1] < 0) & (d[..., 2] * d[..., 3] < 0)


def _check_convex(convex: bool) -> None:
    if not convex:
        raise NotConvex("diagonals q1-q2 and q3-q4 do not properly intersect")


def oriented_areas_many(points: np.ndarray, scale_sq: np.ndarray):
    """Signed (-, -, +, +) areas of (n, 4, 2) points, and the masks of the
    rows with no degenerate sub-triangle and of the convex rows; scale_sq
    is the rows' mean squared distance."""
    mags, convex = _sub_triangles(points)
    proper = mags.min(axis=-1) >= AREA_TOL * scale_sq
    return mags * np.array([-1.0, -1.0, 1.0, 1.0]), proper, convex


def oriented_areas(p: PlanarConfig) -> OrientedAreas:
    """Signed sub-triangle areas with the convention (-, -, +, +), the one
    row of oriented_areas_many; raises Degenerate, then NotConvex.

    |Delta_i| is the area of the triangle on the three vertices other than i.
    """
    pts = p.points[None]
    areas, proper, convex = oriented_areas_many(
        pts, scale_sq_many(squared_distances_many(pts)))
    if not proper[0]:
        raise Degenerate("a sub-triangle has numerically zero area")
    _check_convex(convex[0])
    return OrientedAreas(*areas[0])


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


def _placed(tri: np.ndarray) -> np.ndarray:
    """(..., 4, 2) points of the trilateration rows r12, x3, x4, y3, y4m."""
    pts = np.zeros(tri.shape[1:] + (4, 2))
    pts[..., 1, 0], pts[..., 2, 0], pts[..., 3, 0] = tri[:3]
    pts[..., 2, 1], pts[..., 3, 1] = tri[3], -tri[4]
    return pts


def trilaterated_area_rows(sq: np.ndarray):
    """The mask of the (6, n) rows a..f that _trilateration accepts and
    whose diagonal q3-q4 crosses the open segment q1-q2 (f is not used),
    and their (9, n) trilateration: the rows r12, x3, x4, y3 and y4m that
    _placed places, then the oriented (-, -, +, +) areas (tri[5:]).

    This is the geometry of every Newton iterate, so it works on the
    trilateration coordinates directly rather than on (n, 4, 2) points,
    and trilaterated_area_derivative_rows takes it as it is.  Call under
    np.errstate.
    """
    tri = np.empty((9,) + sq.shape[1:])
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
    column is -0, as along the full unit vector.  Call under np.errstate.
    """
    r12, x, y = tri[0], tri[1:3], tri[3:5]
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

    Checks planarity via the Cayley determinant before trilaterating, puts
    q4 on the side of q1-q2 whose r34^2 is nearer f, and recenters on the
    weighted centroid.
    """
    sqt = SquaredDistances(*sq)
    tri = np.empty(5)
    with np.errstate(all="ignore"):
        if not planar_many(sqt)[0]:
            raise NotPlanar("squared distances do not embed in the plane "
                            f"(Cayley determinant {cayley(sqt):.3e})")
        if min(sqt) <= 0:
            raise NotRealizable("squared distances must be positive")
        ok = _trilateration(np.asarray(sqt, dtype=float), tri)
        dx2 = (tri[1] - tri[2]) ** 2
        if abs(dx2 + (tri[3] - tri[4]) ** 2 - sqt.f) < abs(
                dx2 + (tri[3] + tri[4]) ** 2 - sqt.f):
            tri[4] = -tri[4]  # q4 on q3's side
    if not ok:
        raise NotRealizable("a face triangle inequality is violated")
    return PlanarConfig.from_points(_placed(tri), m)


def realize_convex_many(tri: np.ndarray, m: MassVector):
    """The (n, 4, 2) recentered points, (n, 4) oriented areas and mask of
    the rows that realize and oriented_areas accept, of planar squared
    distances placed from tri, their (5, n) trilateration as
    trilaterated_area_rows gives it; one squared-distance pass serves all
    the tests.  The caller tests planarity.  Call under np.errstate."""
    pts = _recenter(_placed(tri), m)
    centered, apart, scale_sq = _config_checks(pts, m)
    areas, proper, convex = oriented_areas_many(pts, scale_sq)
    return pts, areas, centered & apart.all(axis=-1) & proper & convex


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
        if not valid_frames_many(self.as_vector()):
            raise ValueError("frame radii must be positive and finite and "
                             "theta must lie in (0, pi)")

    def as_vector(self) -> np.ndarray:
        return np.array([self.u, self.v, self.t, self.s, self.theta])

    def reconstruct(self, m: MassVector) -> PlanarConfig:
        """The one row of reconstruct_many."""
        return PlanarConfig(reconstruct_many(self.as_vector(), m), m)

    def to_json_dict(self) -> dict:
        return asdict(self)


def reconstruct_many(frames: np.ndarray, m: MassVector) -> np.ndarray:
    """Points of (..., 5) frame rows (u, v, t, s, theta), recentered."""
    u, v, t, s, theta = (frames[..., k] for k in range(5))
    ct, st = np.cos(theta), np.sin(theta)
    pts = np.zeros(frames.shape[:-1] + (4, 2))
    pts[..., 0, 0] = -u
    pts[..., 1, 0] = v
    pts[..., 2, 0] = t * ct
    pts[..., 2, 1] = t * st
    pts[..., 3, 0] = -s * ct
    pts[..., 3, 1] = -s * st
    return _recenter(pts, m)


def unit_inertia_many(frames: np.ndarray, m: MassVector):
    """(..., 5) frame rows dilated to moment of inertia one, and their
    reconstruction before the dilation."""
    pts = reconstruct_many(frames, m)
    k = 1.0 / np.sqrt(_inertia(pts, m))
    out = np.array(frames, dtype=float)
    out[..., :4] *= k[..., None]
    return out, pts


def _libm(fn, *args: np.ndarray) -> np.ndarray:
    """Elementwise fn, a function of the math module, on arrays of one
    shape.  numpy's SIMD arctan2 and power can differ from the C library in
    the last bit; frames and the oracle keep the C library's bits."""
    out = map(fn, *(a.ravel().tolist() for a in args))
    return np.fromiter(out, dtype=float,
                       count=args[0].size).reshape(args[0].shape)


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
    phi = _libm(math.atan2, shifted[..., 1, 1], shifted[..., 1, 0])
    c, s = np.cos(-phi), np.sin(-phi)
    rot = np.stack([np.stack([c, -s], axis=-1),
                    np.stack([s, c], axis=-1)], axis=-2)
    aligned = shifted @ np.swapaxes(rot, -1, -2)
    # reflect so q3 is in the upper half-plane
    aligned[..., 1] *= np.where(aligned[..., 2, 1] < 0, -1.0, 1.0)[..., None]
    return np.stack([-aligned[..., 0, 0], aligned[..., 1, 0],
                     np.hypot(aligned[..., 2, 0], aligned[..., 2, 1]),
                     np.hypot(aligned[..., 3, 0], aligned[..., 3, 1]),
                     _libm(math.atan2, aligned[..., 2, 1],
                           aligned[..., 2, 0])], axis=-1)


def valid_frames_many(frames: np.ndarray) -> np.ndarray:
    """The mask of the (..., 5) rows that pass CanonicalFrame's checks."""
    theta = frames[..., 4]
    return (np.isfinite(frames).all(axis=-1)
            & (frames[..., :4] > 0).all(axis=-1)
            & (0.0 < theta) & (theta < math.pi))


def canonicalize_many(points: np.ndarray, m: MassVector):
    """Unit-inertia canonical frames of (n, 4, 2) centered convex points,
    and the mask of rows with a valid frame whose reconstruction passes
    PlanarConfig's checks."""
    with np.errstate(all="ignore"):
        raw = _frames_from_points(points)
        frames, pts = unit_inertia_many(raw, m)
        centered, apart, _ = _config_checks(pts, m)
    ok = (centered & apart.all(axis=-1)
          & valid_frames_many(raw) & valid_frames_many(frames))
    return frames, ok


def canonicalize(p: PlanarConfig) -> CanonicalFrame:
    """Map a convex configuration (1, 2 opposite) to its canonical frame."""
    _check_convex(_sub_triangles(p.points)[1])
    frames, ok = canonicalize_many(p.points[None], p.masses)
    if not ok[0]:
        raise ValueError("the configuration has no valid canonical frame")
    return CanonicalFrame(*frames[0].tolist())


def congruent(p1: PlanarConfig, p2: PlanarConfig, tol: float = 1e-8) -> bool:
    """True iff the canonical frames agree componentwise within tol."""
    f1 = canonicalize(p1).as_vector()
    f2 = canonicalize(p2).as_vector()
    return bool(np.all(np.abs(f1 - f2) <= tol))


# the ordered pairs (i, j), i != j, in the order of a loop over i, then j
_ORACLE_I, _ORACLE_J = np.nonzero(~np.eye(4, dtype=bool))


def newtonian_oracle_many(points: np.ndarray, m: MassVector):
    """M^-1 grad U = lambda q on (n, 4, 2) points, independent of the
    squared-distance formulation: the (n, 4, 2) accelerations g, the
    least-squares lambda and relative misfit |g - lambda q| / |g|, and the
    (n, 12) mask of the pairs (_ORACLE_I, _ORACLE_J) closer than 1e-9 times
    the RMS mutual distance (a row with such a pair has no meaningful
    values).  A row with a distance outside [2^-340, 2^341), where r^3 is
    not finite and normal, is taken at its points times 2^e, in the unit
    square, and its g and lambda scaled back by 2^2e and 2^3e.  A row's
    bits do not depend on its batch: r^3 is the C library's pow, g_i adds
    its terms from zero in j order, and norms and dot products are vecdot's."""
    n, w = len(points), np.asarray(m.masses)
    with np.errstate(all="ignore"):
        dq = points[:, _ORACLE_J] - points[:, _ORACLE_I]
        r = np.sqrt(np.vecdot(dq, dq))
        far = ((r < 2.0 ** -340) | (r >= 2.0 ** 341)).any(axis=1)
        if far.any():
            points, e = _unit_scaled(points, far)
            dq = points[:, _ORACLE_J] - points[:, _ORACLE_I]
            r = np.sqrt(np.vecdot(dq, dq))
        scale = np.sqrt(scale_sq_many(squared_distances_many(points)))
        r3 = _libm(math.pow, r, np.full(r.shape, 3.0))
        terms = (w[_ORACLE_J, None] * dq / r3[..., None]).reshape(n, 4, 3, 2)
        g = np.zeros((n, 4, 2))
        for j in range(3):
            g += terms[:, :, j]
        gf, qf = g.reshape(n, 8), points.reshape(n, 8)
        lam = np.vecdot(gf, qf) / np.vecdot(qf, qf)
        # divide by a power of two near max |gf|: exact, and the squares in
        # the norms cannot overflow when a mass is huge
        k = -np.frexp(np.abs(gf).max(axis=1))[1][:, None]
        misfit, gf = np.ldexp(gf - lam[:, None] * qf, k), np.ldexp(gf, k)
        residual = (np.sqrt(np.vecdot(misfit, misfit))
                    / np.sqrt(np.vecdot(gf, gf)))
        if far.any():
            g, lam = np.ldexp(g, 2 * e[:, None, None]), np.ldexp(lam, 3 * e)
    return g, lam, residual, r <= 1e-9 * scale[:, None]


def newtonian_oracle(p: PlanarConfig, m: MassVector) -> tuple[float, float]:
    """newtonian_oracle_many's lambda and misfit of one configuration;
    raises CollisionError naming its first close pair, and OverflowError
    where lambda is not finite."""
    _, lam, residual, close = newtonian_oracle_many(p.points[None], m)
    if close.any():
        k = np.argmax(close[0])
        raise CollisionError(f"bodies {_ORACLE_I[k] + 1} and "
                             f"{_ORACLE_J[k] + 1} collide")
    if not np.isfinite(lam[0]):
        raise OverflowError("lambda leaves the double range at this scale")
    return float(lam[0]), float(residual[0])
