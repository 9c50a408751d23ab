import math

import numpy as np
import pytest
from hypothesis import Phase, settings

from ccfour import CanonicalFrame, MassVector, PlanarConfig
from ccfour.dziobek import planar_many, scale_sq_many
from ccfour.geometry import (_config_checks, _placed, _recenter,
                             _trilateration, oriented_areas_many,
                             squared_distances_many, trilaterated_area_rows)


def derandomized(max_examples: int) -> settings:
    """Hypothesis settings of every drawn test: the same examples on each
    run, no deadline, and no shrinking, so that a failing example is
    reported as drawn rather than after minutes of shrinking."""
    return settings(derandomize=True, deadline=None,
                    max_examples=max_examples,
                    phases=[p for p in Phase if p is not Phase.shrink])


@pytest.fixture
def rng():
    return np.random.default_rng(20250823)


def random_convex_config(rng, masses: MassVector | None = None) -> PlanarConfig:
    """Random convex quadrilateral with vertices 1,2 and 3,4 on the diagonals."""
    if masses is None:
        masses = MassVector(alpha=1.0, beta=1.0)
    frame = CanonicalFrame(
        u=float(rng.uniform(0.5, 2.0)),
        v=float(rng.uniform(0.5, 2.0)),
        t=float(rng.uniform(0.5, 2.0)),
        s=float(rng.uniform(0.5, 2.0)),
        theta=float(rng.uniform(0.35 * math.pi, 0.65 * math.pi)),
    )
    return frame.reconstruct(masses)


def unit_square_config(masses: MassVector | None = None) -> PlanarConfig:
    if masses is None:
        masses = MassVector(alpha=1.0, beta=1.0)
    h = math.sqrt(2.0) / 2.0
    pts = [[-h, 0.0], [h, 0.0], [0.0, h], [0.0, -h]]
    return PlanarConfig.from_points(pts, masses)


def potential(p: PlanarConfig, m: MassVector) -> float:
    """The Newtonian potential U = sum m_i m_j / r_ij, the reference of the
    acceptance check lambda I + U = 0."""
    q = p.points
    w = m.masses
    total = 0.0
    for i in range(4):
        for j in range(i + 1, 4):
            total += w[i] * w[j] / float(np.linalg.norm(q[i] - q[j]))
    return total


def trilaterate(sq: np.ndarray):
    """Points of (n, 6) squared distances alone (f is not used), placed by
    geometry._trilateration and _placed, and the mask of rows with
    positive entries and proper face triangles."""
    tri = np.empty((5, len(sq)))
    with np.errstate(all="ignore"):
        ok = _trilateration(sq.T, tri)
    return _placed(tri), ok


def seed_record(fun, x: np.ndarray) -> tuple:
    """The record (x, valid, tri) that Newton starts from, of hand-built
    (n, k) starts of the residual map fun: the trilaterated_area_rows of
    their squared distances, embedded in full vectors through fun.embed,
    under the error state of seed_vectors."""
    xf = x if fun.embed is None else x[:, fun.embed]
    with np.errstate(all="ignore"):
        return (x, *trilaterated_area_rows(xf[:, :6].T))


def realize_many(sq: np.ndarray, m: MassVector):
    """The reference for geometry.realize_convex_many: recentered points of
    (n, 6) squared distances, trilaterated from them alone, their oriented
    areas, and the mask of rows that realize and oriented_areas accept."""
    with np.errstate(all="ignore"):
        pts, ok = trilaterate(sq)
        pts = _recenter(pts, m)
        centered, apart, _ = _config_checks(pts, m)
        areas, proper, convex = oriented_areas_many(
            pts, scale_sq_many(squared_distances_many(pts)))
    ok &= planar_many(sq) & centered & apart.all(axis=-1) & proper & convex
    return pts, areas, ok
