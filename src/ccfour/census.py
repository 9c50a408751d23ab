"""Global search for convex central configurations at fixed masses.

Seeds a deterministic lattice over canonical frames, polishes every seed
with the damped-Newton core, then groups the converged states into
congruence classes and labels their symmetry.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .dziobek import DziobekState, MassVector, SymmetryLabel
from .geometry import (CanonicalFrame, PlanarConfig, canonicalize_many,
                       reconstruct_many, squared_distances_many,
                       unit_inertia_many, valid_frames_many)
from .solver import Residuals, SolveOptions, seed_vectors, solve_batch

DEDUPE_TOL = 1e-6
# the largest resolution whose resolution**4 seeds stay within 10**6
MAX_RESOLUTION = 31


@dataclass(frozen=True, eq=False)
class SeedGrid(Sequence):
    """The frames of a seed lattice: a read-only sequence over their (n, 5)
    rows (u, v, t, s, theta), which builds each frame as it is read."""

    rows: np.ndarray

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, k):
        rows = self.rows[k].tolist()
        return ([CanonicalFrame(*row) for row in rows]
                if isinstance(k, slice) else CanonicalFrame(*rows))


def seed_grid(resolution: int, m: MassVector | None = None) -> SeedGrid:
    """Deterministic lattice over the convex canonical-frame moduli.

    u is gauge-fixed to 1 before the inertia normalization; the remaining
    four parameters (v, t, s, theta) each take `resolution` values, from 2
    to MAX_RESOLUTION, so there are resolution**4 frames.  Every one is
    convex and far from degenerate: over the whole box the smallest
    sub-triangle area is 0.0398 of the mean squared distance, at the mirror
    corners (v, t, s, theta) = (0.5, 2.8, 0.35, 0.3 pi) and
    (0.5, 0.35, 2.8, 0.7 pi).  The rows are built in whole-lattice array
    passes, and a row that CanonicalFrame rejects raises its ValueError.
    """
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
    rows = unit_inertia_many(np.stack([np.ones_like(v), v, t, s, th],
                                      axis=1), m)[0]
    bad = ~valid_frames_many(rows)
    if bad.any():
        CanonicalFrame(*rows[np.argmax(bad)].tolist())  # raises
    return SeedGrid(rows)


@dataclass(frozen=True)
class CensusClass:
    frame: CanonicalFrame
    state: DziobekState
    symmetry: SymmetryLabel
    basin: int
    config: PlanarConfig = field(compare=False, repr=False)  # not in JSON

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
        m = self.masses  # Theorem 2 covers every alpha = beta
        return m.alpha != m.beta and min(m.alpha, m.beta) > m.delta

    def to_json_dict(self) -> dict:
        return {
            "masses": list(self.masses.masses),
            "classes": [c.to_json_dict() for c in self.classes],
            "seeds_total": self.seeds_total,
            "seeds_converged": self.seeds_converged,
            "outside_theorem_hypothesis": self.outside_theorem_hypothesis,
        }


def _seed_vectors(rows: np.ndarray, m: MassVector) -> tuple:
    """The seed_vectors record of (n, 5) unit-inertia frame rows."""
    return seed_vectors(squared_distances_many(reconstruct_many(rows, m)), m)


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
    """Polish every seed, keep those solve_batch accepts as convex central
    configurations and canonicalize_many accepts, and group them by
    canonical-frame distance (dedupe tolerance 1e-6)."""
    seeds = _seed_vectors(seed_grid(resolution, m).rows, m)
    batch = solve_batch(Residuals(m, opts.normalization), seeds, m, opts)
    frames, ok = canonicalize_many(batch.points, m)
    keep = np.flatnonzero(ok)
    classes = []
    for members in _dedupe(frames[keep]):
        first = keep[members[0]]
        report = batch.report(first)
        frame = CanonicalFrame(*frames[first].tolist())
        classes.append(CensusClass(frame=frame, state=report.state,
                                   symmetry=SymmetryLabel(report.symmetry),
                                   basin=int(members.size),
                                   config=report.config))
    classes.sort(key=lambda c: -c.basin)
    return CensusReport(masses=m, classes=classes,
                        seeds_total=batch.x.shape[0],
                        seeds_converged=int(keep.size))
