"""Global search for convex central configurations at fixed masses.

Seeds a deterministic lattice over canonical frames, polishes every seed
with the damped-Newton core, then groups the converged states into
congruence classes and labels their symmetry.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dziobek import DziobekState, MassVector
from .geometry import (CanonicalFrame, canonicalize_many, oriented_areas_many,
                       realize_many, reconstruct_many, squared_distances_many,
                       unit_inertia_many)
# census() calls the batched Newton core itself, on the whole seed lattice
from .solver import (CONVERGED, Residuals, SolveOptions, _newton_batch,
                     seed_vectors, state_from_vector)

DEDUPE_TOL = 1e-6
CLASSIFY_TOL = 1e-6
# the largest resolution whose resolution**4 seeds stay within 10**6
MAX_RESOLUTION = 31


@dataclass(frozen=True)
class SymmetryLabel:
    """One of square, rhombus, kite_axis_34, kite_axis_12, asymmetric."""

    label: str

    def __str__(self) -> str:  # pragma: no cover
        return self.label


def classify_symmetry(st: DziobekState) -> SymmetryLabel:
    """Distance-equality classification on scale-normalized distances, at
    relative tolerance CLASSIFY_TOL.

    square dominates rhombus dominates kite dominates asymmetric.
    """
    r = np.sqrt(np.asarray(st.sq, dtype=float))
    scale = math.sqrt(st.sq.scale_sq)
    ra, rb, rc, rd, re, rf = r
    eq = lambda x, y: abs(x - y) < CLASSIFY_TOL * scale
    sides_equal = eq(rb, rc) and eq(rb, rd) and eq(rb, re) and eq(rc, rd)
    if sides_equal and eq(ra, rf):
        return SymmetryLabel("square")
    if sides_equal:
        return SymmetryLabel("rhombus")
    if eq(rb, rd) and eq(rc, re):
        return SymmetryLabel("kite_axis_34")
    if eq(rb, rc) and eq(rd, re):
        return SymmetryLabel("kite_axis_12")
    return SymmetryLabel("asymmetric")


def seed_grid(resolution: int,
              m: MassVector | None = None) -> list[CanonicalFrame]:
    """Deterministic lattice over the convex canonical-frame moduli.

    u is gauge-fixed to 1 before the inertia normalization; the remaining
    four parameters (v, t, s, theta) each take `resolution` values, from 2
    to MAX_RESOLUTION, so there are resolution**4 frames.  Every one is
    convex and far from degenerate: over the whole box the smallest
    sub-triangle area is 0.0398 of the mean squared distance, at the mirror
    corners (v, t, s, theta) = (0.5, 2.8, 0.35, 0.3 pi) and
    (0.5, 0.35, 2.8, 0.7 pi).
    """
    return [CanonicalFrame(*row)
            for row in _seed_lattice(resolution, m).tolist()]


def _seed_lattice(resolution: int, m: MassVector | None) -> np.ndarray:
    """The frames of seed_grid as (n, 5) rows (u, v, t, s, theta), in the
    same order, built in whole-lattice array passes."""
    if not (isinstance(resolution, numbers.Integral)
            and 2 <= resolution <= MAX_RESOLUTION):
        raise ValueError(
            f"resolution must be an integer from 2 to {MAX_RESOLUTION}")
    if m is None:
        m = MassVector(alpha=1.0, beta=1.0)
    axes = (np.geomspace(0.5, 2.0, resolution),
            np.geomspace(0.35, 2.8, resolution),
            np.geomspace(0.35, 2.8, resolution),
            np.linspace(0.3 * math.pi, 0.7 * math.pi, resolution))
    v, t, s, th = (g.ravel() for g in np.meshgrid(*axes, indexing="ij"))
    frames = np.stack([np.ones_like(v), v, t, s, th], axis=1)
    return unit_inertia_many(frames, m)[0]


@dataclass(frozen=True)
class CensusClass:
    frame: CanonicalFrame
    state: DziobekState
    symmetry: SymmetryLabel
    basin: int

    def to_json_dict(self) -> dict:
        return {
            "frame": self.frame.to_json_dict(),
            "state": self.state.to_json_dict(),
            "symmetry": self.symmetry.label,
            "basin": self.basin,
        }


@dataclass(frozen=True)
class CensusReport:
    masses: MassVector
    classes: list[CensusClass]
    seeds_total: int
    seeds_converged: int

    @property
    def outside_theorem_hypothesis(self) -> bool:
        return min(self.masses.alpha, self.masses.beta) > self.masses.delta

    def to_json_dict(self) -> dict:
        return {
            "masses": list(self.masses.masses),
            "classes": [c.to_json_dict() for c in self.classes],
            "seeds_total": self.seeds_total,
            "seeds_converged": self.seeds_converged,
            "outside_theorem_hypothesis": self.outside_theorem_hypothesis,
        }


def _seed_vectors(frames: Sequence[CanonicalFrame],
                  m: MassVector) -> np.ndarray:
    """Newton start vectors (a..f, nu, xi) of unit-inertia frames."""
    rows = np.array([(f.u, f.v, f.t, f.s, f.theta) for f in frames])
    return seed_vectors(squared_distances_many(reconstruct_many(rows, m)), m)


def _accept(x: np.ndarray, m: MassVector):
    """Indices of the rows of converged vectors x that are genuine convex
    central configurations, and their unit-inertia canonical frames.

    A row is kept iff nu > 0 and every check of realize, oriented_areas and
    canonicalize passes on it, so exactly the rows on which the scalar
    state_from_vector and canonicalize(realize(...)) succeed.
    """
    points, ok = realize_many(x[:, :6], m)
    ok &= oriented_areas_many(points)[1]
    frames, frame_ok = canonicalize_many(points, m)
    keep = np.flatnonzero(ok & frame_ok & (x[:, 6] > 0))
    return keep, frames[keep]


def _dedupe(frames: np.ndarray) -> list[np.ndarray]:
    """Group frame rows into classes: the first remaining row takes every
    remaining row within DEDUPE_TOL of it, until none remain.  This is the
    grouping of matching each row, in order, against the classes so far."""
    groups = []
    rest = np.arange(frames.shape[0])
    while rest.size:
        near = (np.linalg.norm(frames[rest] - frames[rest[0]], axis=1)
                < DEDUPE_TOL)
        groups.append(rest[near])
        rest = rest[~near]
    return groups


def census(m: MassVector, resolution: int = 8,
           opts: SolveOptions = SolveOptions()) -> CensusReport:
    """Polish every seed, keep converged convex states with nu > 0, and
    group them by canonical-frame distance (dedupe tolerance 1e-6)."""
    x0 = _seed_vectors(seed_grid(resolution, m), m)
    fun = Residuals(m, opts.normalization)
    x, status, _, _ = _newton_batch(fun, x0, opts)
    x = x[status == CONVERGED]
    keep, frames = _accept(x, m)
    classes = []
    for members in _dedupe(frames):
        state = state_from_vector(x[keep[members[0]]], m)
        frame = CanonicalFrame(*frames[members[0]].tolist())
        classes.append(CensusClass(frame=frame, state=state,
                                   symmetry=classify_symmetry(state),
                                   basin=int(members.size)))
    classes.sort(key=lambda c: -c.basin)
    return CensusReport(masses=m, classes=classes,
                        seeds_total=x0.shape[0],
                        seeds_converged=int(keep.size))
