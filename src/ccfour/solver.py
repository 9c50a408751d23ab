"""Newton solution of the Dziobek system and symmetry-reduced variants.

The damped-Newton core is vectorized over a batch of starting points so the
census grids run at numpy speed; the public solvers wrap batches of size 1.
"""

from __future__ import annotations

import contextlib
import math
import numbers
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .dziobek import (PAIR_I, PAIR_J, DziobekState, MassVector,
                      OrientedAreas, SquaredDistances, cayley_gradient_rows,
                      cayley_many, classify_symmetry, dilate_state,
                      pair_jacobian_rows, pair_residual_rows, planar_many,
                      psi_prime, psi_prime_many)
from .errors import (DomainError, LeftConvexRegion, NoConvergence,
                     SingularJacobian)
from .geometry import (PlanarConfig, newtonian_oracle, realize,
                       realize_convex_many, trilaterated_area_derivative_rows,
                       trilaterated_area_rows)

# batch status codes
RUNNING = 0
CONVERGED = 1
NO_CONVERGENCE = 2
LEFT_CONVEX = 3
SINGULAR = 4
NEAR_BOUNDARY = 5
REJECTED = 6  # converged, but nu <= 0 or not convex: see solve_batch

# A row retires as NEAR_BOUNDARY when moving one squared distance x_j by
# h_j = _BOUNDARY_PROBE max(1, |x_j|) takes x_j or, to first order, an area
# out of the convex region.  Delta_1 and Delta_2 change sign there (the
# diagonals cross at q2 or q1); Delta_3 and Delta_4 vanish like the square
# root of y^2, so the order 2 of _AREA_ORDER makes Delta^2 the linear one.
_BOUNDARY_PROBE = 1e-7
_AREA_ORDER = np.array([1.0, 1.0, 2.0, 2.0])
_MAX_BACKTRACKS = 40
# Newton linearizes and solves at most _BLOCK rows at a time.  At (0.5,
# 0.8), resolution 8 (4,096 seeds), blocks of 256, 512, 1,024, 2,048 and
# 4,096 rows took _newton_batch 173, 152, 158, 164 and 182 ms (best of 21,
# one core of a 2-vCPU machine), at tracemalloc peaks of 5.3, 5.3, 5.3, 6.2
# and 10.3 MB; up to 1,024 rows the line search sets the peak.
_BLOCK = 1024
# the scale gauges, each a linear condition sq . w = 1 on the squared
# distances; gauge_weights gives w
NORMALIZATIONS = ("fix_inertia_one", "fix_a_one")


def _check_normalization(normalization: str) -> None:
    if normalization not in NORMALIZATIONS:
        raise ValueError(f"unknown normalization {normalization!r}")


def gauge_weights(m: MassVector, normalization: str) -> np.ndarray:
    """The weights w of the gauge sq . w = 1: m_i m_j / m', whose sum over
    the pairs is the moment of inertia, or the unit vector along a."""
    _check_normalization(normalization)
    return (m.inertia_weights if normalization == "fix_inertia_one"
            else np.eye(6)[0])


def gauged_sq(sq: Sequence[float], m: MassVector,
              normalization: str) -> np.ndarray:
    """Six squared distances dilated onto the gauge sq . w = 1."""
    sq = np.asarray(sq, dtype=float)
    return sq / (sq @ gauge_weights(m, normalization))


@dataclass(frozen=True)
class SolveOptions:
    max_iterations: int = 100
    residual_tol: float = 1e-12
    normalization: str = "fix_inertia_one"

    def __post_init__(self):
        if not (self.residual_tol > 0 and math.isfinite(self.residual_tol)):
            raise ValueError("residual_tol must be positive and finite")
        if not (isinstance(self.max_iterations, numbers.Integral)
                and self.max_iterations >= 1):
            raise ValueError("max_iterations must be an integer of at least 1")
        _check_normalization(self.normalization)


@dataclass(frozen=True)
class SolveReport:
    state: DziobekState
    iterations: int
    final_residual: float
    converged: bool
    symmetry: str
    config: PlanarConfig = field(compare=False, repr=False)  # not in JSON

    def to_json_dict(self) -> dict:
        return {
            "state": self.state.to_json_dict(),
            "iterations": self.iterations,
            "final_residual": self.final_residual,
            "converged": self.converged,
            "symmetry": self.symmetry,
        }


class Residuals:
    """The residual map of the damped-Newton core, and its linearization:
    the exact Jacobian and the boundary test.

    The unreduced unknown vector is (a, b, c, d, e, f, nu, xi); its column l
    is column embed[l] of the reduced vector.  embed must reach every
    reduced column, and the first six the columns 0, 1, ... of the squared
    distances.  `reduced` is the first full column of each reduced column:
    it projects full vectors onto reduced ones and selects the equations
    kept, those of the reduced unknowns' first full columns (on the kite,
    cc23 and cc24 repeat cc13 and cc14).  Both maps take and return (n, k)
    arrays, but copy x.T once into (8, n) rows of the unreduced unknowns
    and do their arithmetic on those rows, so that each numpy call runs
    over the n rows rather than over 6 or 8 columns.
    """

    def __init__(self, m: MassVector, normalization: str,
                 embed: Sequence[int] | None = None):
        self.inv_mm = 1.0 / m.pair_weights
        # the normalization residual is sq . gauge - 1
        self.gauge = gauge_weights(m, normalization)
        self.embed = self.reduced = None
        if embed is not None:
            embed = list(embed)
            self.embed = np.array(embed)
            self.reduced = np.array([embed.index(c)
                                     for c in range(max(embed) + 1)])

    def _rows(self, x: np.ndarray) -> np.ndarray:
        """The (8, n) C-ordered rows of the unreduced unknowns of x."""
        if self.embed is None:
            return np.ascontiguousarray(x.T)
        return x.T[self.embed]

    def __call__(self, x: np.ndarray, seed: tuple | None = None):
        """(residuals, valid, tri) of (n, k) vectors: invalid rows are NaN,
        and only the valid rows are evaluated past their areas; tri is the
        (9, n) trilaterated_area_rows of every row, for linearize, or the
        seed's (valid, tri) where given.  The residuals are C-ordered: a
        row's 8-wide sums do not depend on n.  Call under np.errstate."""
        xr = self._rows(x)
        valid, tri = seed or trilaterated_area_rows(xr[:6])
        areas = tri[5:]
        # no copies where every row is valid, as in most one-row calls
        whole = np.count_nonzero(valid) == valid.size
        if not whole:
            xr = np.compress(valid, xr, axis=1)
            areas = np.compress(valid, areas, axis=1)
        res = np.empty((8, xr.shape[1]))
        res[:6] = pair_residual_rows(xr, areas, self.inv_mm)
        # cayley_many takes (rows, 6), as the bench counts its rows
        res[6] = cayley_many(xr[:6].T) / 32.0
        # numpy sums the six rows of a (6, n) array left to right, whatever
        # n, so a row's bits do not depend on its batch as they do in a
        # matrix-vector product
        res[7] = (xr[:6] * self.gauge[:, None]).sum(axis=0) - 1.0
        if self.reduced is not None:
            res = res[self.reduced]
        if whole:
            return np.ascontiguousarray(res.T), valid, tri
        out = np.full((valid.size, res.shape[0]), np.nan)
        out[valid] = res.T
        return out, valid, tri

    def planar(self, x: np.ndarray, res: np.ndarray) -> np.ndarray:
        """planar_many of the full squared distances of (n, k) rows, with S
        32 times their residuals' S / 32: S, or within 2**-1070 of it where
        S / 32 is subnormal or +-0, which can move the decision only below
        a mean squared distance of about 5e-100.  Call under np.errstate."""
        col = 6 if self.embed is None else self.embed[6]  # S's row is nu's
        return planar_many(self._rows(x)[:6].T, 32.0 * res[:, col])

    def linearize(self, x: np.ndarray, tri: np.ndarray):
        """(jac, near) of (n, k) rows inside the convex region, from their
        (9, n) trilateration, a residual call's.  near marks the rows within
        the boundary probe: x_j <= h_j, or |Delta_k| <= _AREA_ORDER[k] h_j
        |dDelta_k / dx_j| for an area k and a reduced unknown j that moves
        a squared distance (every unknown but nu and xi).  jac is the exact
        (n - near.sum(), k, k) Jacobian at the other rows, in order,
        assembled as (8, 8, n) rows and transposed once, C-ordered for the
        batched solve.  Call under np.errstate."""
        xr = self._rows(x)
        areas = tri[5:]
        d_areas = trilaterated_area_derivative_rows(tri)
        xs = np.ascontiguousarray(x.T[:-2])  # C-ordered: tests along n rows
        h = _BOUNDARY_PROBE * np.maximum(1.0, np.abs(xs))
        reach = ((_AREA_ORDER[:, None, None] * h)
                 * np.abs(_fold(d_areas, self.embed)))
        near = ((xs <= h).any(axis=0)
                | (np.abs(areas)[:, None] <= reach).any(axis=(0, 1)))
        if np.count_nonzero(near):
            keep = ~near
            xr = np.compress(keep, xr, axis=1)
            areas = np.compress(keep, areas, axis=1)
            d_areas = d_areas[:, :, keep]
        jac = np.empty((8, 8, xr.shape[1]))
        pair_jacobian_rows(xr, areas, d_areas, self.inv_mm, out=jac[:6])
        jac[6, :6] = cayley_gradient_rows(xr[:6]) / 32.0
        jac[7, :6] = self.gauge[:, None]
        jac[6:, 6:] = 0.0
        if self.reduced is not None:
            jac = jac[self.reduced]
        jac = _fold(jac, self.embed)
        return np.ascontiguousarray(jac.transpose(2, 0, 1)), near


def _fold(a: np.ndarray, embed: np.ndarray | None) -> np.ndarray:
    """Sum the columns (axis 1) of full unknowns into those of reduced
    ones, each from zero (0.0 + -0.0 is 0.0) in column order."""
    if embed is None:
        return a
    cols = embed[:a.shape[1]]
    folded = np.zeros((a.shape[0], cols.max() + 1, *a.shape[2:]))
    np.add.at(folded, (slice(None), cols), a)
    return folded


def _norm2(r: np.ndarray) -> np.ndarray:
    """The 2-norms of the rows of (n, k) residuals, k <= 8, NaN entries
    left out: bitwise np.sqrt(np.nansum(r * r, axis=1)) on C-ordered r.
    numpy sums a row of 8 pairwise and a shorter one left to right; here
    the columns are added in that order, each addition over all n rows."""
    q = r * r
    np.fmax(q, 0.0, out=q)  # NaN -> 0; a square is never -0
    if q.shape[1] == 8:
        q = q[:, 0::2] + q[:, 1::2]
        q = q[:, 0::2] + q[:, 1::2]
        s = q[:, 0] + q[:, 1]
    else:
        s = q[:, 0].copy()
        for j in range(1, q.shape[1]):
            s += q[:, j]
    return np.sqrt(s, out=s)


def _norm_inf(r: np.ndarray) -> np.ndarray:
    """The inf-norms of the rows of (n, k) residuals: bitwise
    np.max(np.abs(r), axis=1), so a NaN entry makes the row's norm NaN.
    The maximum is exact, so the order of the columns does not matter:
    halves while the width is even, then the columns left one by one."""
    a = np.abs(r)
    while a.shape[1] % 2 == 0:
        a = np.maximum(a[:, :a.shape[1] // 2], a[:, a.shape[1] // 2:])
    s = a[:, 0]
    for j in range(1, a.shape[1]):
        s = np.maximum(s, a[:, j])
    return s


def _solve_linear(jac: np.ndarray, rhs: np.ndarray):
    """Batched solve with per-item fallback; returns dx and the mask of
    singular rows, those left without a finite dx.  A block whose every
    Jacobian and right-hand side is finite, the usual one, is solved in one
    call; otherwise only its finite rows are solved."""
    idx = None  # every row
    if not (np.isfinite(jac).all() and np.isfinite(rhs).all()):
        idx = np.flatnonzero(np.isfinite(jac).all(axis=(1, 2))
                             & np.isfinite(rhs).all(axis=1))
    try:
        if idx is None:
            dx = np.linalg.solve(jac, rhs[:, :, None])[:, :, 0]
        else:
            dx = np.full_like(rhs, np.nan)
            if idx.size:
                dx[idx] = np.linalg.solve(jac[idx], rhs[idx, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        dx = np.full_like(rhs, np.nan)
        for i in range(rhs.shape[0]) if idx is None else idx:
            with contextlib.suppress(np.linalg.LinAlgError):
                dx[i] = np.linalg.solve(jac[i], rhs[i])
    finite = np.isfinite(dx)  # all, in the usual block: no row reduction
    return dx, (~finite.all(axis=1) if not finite.all()
                else np.zeros(dx.shape[0], dtype=bool))


def _backtrack(fun, x: np.ndarray, dx: np.ndarray, base2: np.ndarray,
               budget: int):
    """Armijo line search along x + lam dx over lam = 1, 1/2, 1/4, ...,
    at most _MAX_BACKTRACKS trials a row.  Each row takes the first lam in
    that order with nt2 <= (1 - 1e-4 lam) base2.

    Each call tries the next min(max(1, budget // rows left),
    _MAX_BACKTRACKS - tried) lams on every row left, so no call has more
    than max(budget, len(x)) rows.  The first call thus already takes
    min(40, budget // rows) lams a row, and in the tail of a Newton run,
    where budget // rows >= 40, every row tries all 40 in one call.
    Returns the mask of rows that took a step, their new x, residuals and
    residual 2-norms, for the other rows whether their last trial left
    the convex region, and the (9, n) trilateration columns of the rows
    that took a step, picked from the residual calls.  Where every row
    takes lam = 1 in a first call of one lam, that call's arrays are
    returned as they are, and nothing else is allocated.  Call under
    np.errstate.  ROADMAP.md lists the schedules measured and not adopted.
    """
    n, k = x.shape
    rem = np.arange(n)  # the rows left, whose x, dx and base2 are carried
    tried = 0
    while rem.size and tried < _MAX_BACKTRACKS:
        c = min(max(1, budget // rem.size), _MAX_BACKTRACKS - tried)
        lam = 0.5 ** np.arange(tried, tried + c)
        xt = (x + lam[:, None, None] * dx).reshape(-1, k)
        rt, vt, tt = fun(xt)
        nt2 = _norm2(rt)
        ok = vt.reshape(c, -1) & (nt2.reshape(c, -1)
                                  <= (1.0 - 1e-4 * lam)[:, None] * base2)
        hit = ok[0] if c == 1 else ok.any(axis=0)  # c = 1: no reduction
        if not tried:
            if c == 1 and np.count_nonzero(hit) == n:
                return hit, xt, rt, nt2, ~hit, tt
            accepted = np.zeros(n, dtype=bool)
            last_invalid = np.zeros(n, dtype=bool)
            x_new = x.copy()
            res_new = np.full((n, k), np.nan)  # the Newton system is square
            norm_new = np.full(n, np.nan)
            tri_new = np.empty((tt.shape[0], n))
        pick = np.flatnonzero(hit)
        if c > 1:  # the first lam each row takes
            pick += ok.argmax(axis=0)[hit] * rem.size
        take = rem[hit]
        accepted[take] = True
        x_new[take] = xt[pick]
        res_new[take] = rt[pick]
        norm_new[take] = nt2[pick]
        tri_new[:, take] = tt[:, pick]
        del xt, rt, tt  # free this call's trials before the next call
        miss = ~hit
        last_invalid[rem] = miss & ~vt[(c - 1) * rem.size:]
        rem, x, dx, base2 = rem[miss], x[miss], dx[miss], base2[miss]
        tried += c
    return accepted, x_new, res_new, norm_new, last_invalid, tri_new


def _newton_batch(fun, seeds: tuple, opts: SolveOptions):
    """Damped Newton from the record (x0, valid, tri) of seed_vectors, with
    the exact Jacobian and halving backtracking on the residual 2-norm.

    Each iteration first retires the rows within the boundary probe of the
    convex region's edge as NEAR_BOUNDARY; SINGULAR marks rows whose linear
    solve gives no finite dx.  Each step is linearized and solved in blocks
    of at most _BLOCK = 1,024 rows, and a block's Jacobians are freed
    before the next block is linearized.  The line search then takes the
    whole batch; none of its calls has more rows than the first residual
    evaluation.  Each iterate's trilateration is carried from the record
    (whose tri Newton updates in place) or the residual call that gave it
    to the next linearization; where every row of the batch steps, the
    line search's arrays are taken whole, and a block or step of every
    row takes views.  A row's result depends neither on its batch mates
    nor on its block.
    A row converges where its inf-norm residual is below the tolerance
    and fun.planar, run on those rows alone, accepts it.  Returns (x,
    status, iterations, final inf-norm residual, tri of each final x).
    Call under np.errstate: rows that leave the convex region are NaN.
    """
    x0, valid, tri = seeds
    x = np.array(x0, dtype=float)
    n = x.shape[0]
    status = np.full(n, RUNNING, dtype=int)
    iters = np.zeros(n, dtype=int)
    tol = opts.residual_tol
    res, valid, tri = fun(x, (valid, tri))
    norm_inf, norm2 = _norm_inf(res), _norm2(res)
    status[~valid] = LEFT_CONVEX
    ids, moved_inf = np.flatnonzero(valid), norm_inf[valid]
    for it in range(1, opts.max_iterations + 2):
        under = ids[moved_inf < tol]  # of the rows just evaluated
        if under.size:
            status[under[fun.planar(x[under], res[under])]] = CONVERGED
        act = np.flatnonzero(status == RUNNING)
        if act.size == 0 or it > opts.max_iterations:
            break
        ids, steps = [], []
        for lo in range(0, act.size, _BLOCK):
            block = act[lo:lo + _BLOCK]
            rows = slice(None) if block.size == n else block
            jac, near = fun.linearize(x[rows], tri[:, rows])
            if np.count_nonzero(near):
                status[block[near]] = NEAR_BOUNDARY
                block = rows = block[~near]
            dx, singular = _solve_linear(jac, -res[rows])
            del jac  # free the Jacobians before the next block
            if np.count_nonzero(singular):
                status[block[singular]] = SINGULAR
                block, dx = block[~singular], dx[~singular]
            ids.append(block)
            steps.append(dx)
        ids, dx = ((ids[0], steps[0]) if len(ids) == 1
                   else (np.concatenate(ids), np.concatenate(steps)))
        if ids.size == 0:  # every active row retired
            break
        rows = slice(None) if ids.size == n else ids
        accepted, x_new, res_new, norm_new, last_invalid, tri_new = (
            _backtrack(fun, x[rows], dx, norm2[rows], n))
        if np.count_nonzero(accepted) < ids.size:
            stuck = ~accepted
            status[ids[stuck]] = np.where(last_invalid[stuck],
                                          LEFT_CONVEX, NO_CONVERGENCE)
            ids, x_new, res_new, norm_new, tri_new = (
                ids[accepted], x_new[accepted], res_new[accepted],
                norm_new[accepted], tri_new[:, accepted])
        rows = slice(None) if ids.size == n else ids
        if ids.size == n:  # the whole batch stepped: take its arrays
            x, res, norm2, tri = x_new, res_new, norm_new, tri_new
        else:
            x[ids] = x_new
            res[ids] = res_new
            norm2[ids] = norm_new
            tri[:, ids] = tri_new
        norm_inf[rows] = moved_inf = _norm_inf(res_new)
        iters[rows] = it
    status[status == RUNNING] = NO_CONVERGENCE
    return x, status, iters, norm_inf, tri


def _state(xf: np.ndarray, areas: Sequence[float]) -> DziobekState:
    """The state of an unknown vector (a..f, nu, xi) with its areas."""
    return DziobekState(sq=SquaredDistances(*(float(v) for v in xf[:6])),
                        areas=OrientedAreas(*(float(v) for v in areas)),
                        nu=float(xf[6]), xi=float(xf[7]))


def seed_state(sq: Sequence[float], m: MassVector) -> DziobekState:
    """Seed for newton_solve from squared distances alone.

    Unlike realized states this skips the planarity check (seeds are
    generally not planar in f); areas come from trilateration, which never
    uses f, and the multipliers from a least-squares fit.
    """
    x, _, tri = _seed_vector(sq, m)
    return _state(x[0], tri[5:, 0])


def seed_vectors(sq: np.ndarray, m: MassVector) -> tuple:
    """The record (x, valid, tri) that Newton starts from, of (n, 6)
    squared distances: x the unknown vectors (a..f, nu, xi), with the
    multipliers fitted by least squares to the six c.c. equations at the
    areas of (valid, tri), the trilaterated_area_rows of sq.  Rows that do
    not trilaterate to a convex quadrilateral get NaN multipliers."""
    inv_mm = 1.0 / m.pair_weights
    # extreme mass ratios overflow the sums; such a row gets nu = 0 (where
    # denom is not a positive number) or a non-finite fit, and no warning
    with np.errstate(all="ignore"):
        valid, tri = trilaterated_area_rows(sq.T)
        areas = tri[5:].T
        g = inv_mm * areas[:, PAIR_I] * areas[:, PAIR_J]
        y = psi_prime_many(sq)
        n = 6.0
        sg = g.sum(axis=1)
        sy = y.sum(axis=1)
        sgg = (g * g).sum(axis=1)
        sgy = (g * y).sum(axis=1)
        denom = n * sgg - sg * sg
        nu = np.where(np.abs(denom) > 0, (n * sgy - sg * sy) / denom, 0.0)
        xi = (sy - nu * sg) / n
    multipliers = np.stack([nu, xi], axis=1)
    multipliers[~valid] = np.nan
    return np.concatenate([sq, multipliers], axis=1), valid, tri


def _seed_vector(sq: Sequence[float], m: MassVector,
                 multipliers: tuple[float, float] | None = None) -> tuple:
    """The one-row seed_vectors record of squared distances, with the
    multipliers fitted or given; raises LeftConvexRegion where sq does not
    trilaterate or nu is NaN."""
    seed = x, valid, _ = seed_vectors(np.asarray(sq, dtype=float)[None], m)
    if multipliers is not None:
        x[0, 6:] = multipliers
    if not valid[0] or np.isnan(x[0, 6]):
        raise LeftConvexRegion("seed does not trilaterate to a convex "
                               "quadrilateral")
    return seed


@dataclass(frozen=True)
class BatchResult:
    """What solve_batch found at masses: the full vector (a..f, nu, xi),
    status, iterations and final inf-norm residual of every seed, then the
    indices of the accepted seeds and, in order, their points and areas."""

    x: np.ndarray
    status: np.ndarray
    iterations: np.ndarray
    residual: np.ndarray
    accepted: np.ndarray
    points: np.ndarray
    areas: np.ndarray
    masses: MassVector

    def report(self, k: int) -> SolveReport:
        """The SolveReport of the k-th accepted seed."""
        seed = self.accepted[k]
        state = _state(self.x[seed], self.areas[k])
        return SolveReport(state=state, iterations=int(self.iterations[seed]),
                           final_residual=float(self.residual[seed]),
                           converged=True,
                           symmetry=classify_symmetry(state).label,
                           config=PlanarConfig.trusted(self.points[k],
                                                       self.masses))


def solve_batch(fun: Residuals, seeds: tuple, m: MassVector,
                opts: SolveOptions) -> BatchResult:
    """Newton from every row of the record (x0, valid, tri) of seed_vectors,
    x0 in fun's unknowns, then the one test of which converged rows, planar
    by Newton's test, are convex central configurations (nu > 0, and
    realize_convex_many accepts their trilateration); others end REJECTED."""
    # Newton's NaN rows, and the areas of a converged row that realize
    # rejects, which may overflow, must not warn
    with np.errstate(all="ignore"):
        x, status, iters, norm, tri = _newton_batch(fun, seeds, opts)
        if fun.embed is not None:
            x = x[:, fun.embed]
        conv = np.flatnonzero(status == CONVERGED)
        rows = slice(None) if conv.size == x.shape[0] else conv
        points, areas, ok = realize_convex_many(tri[:5, rows], m)
    ok &= x[rows, 6] > 0
    status[conv[~ok]] = REJECTED
    return BatchResult(x=x, status=status, iterations=iters, residual=norm,
                       accepted=conv[ok], points=points[ok], areas=areas[ok],
                       masses=m)


def _polish(seed: tuple, m: MassVector, opts: SolveOptions) -> SolveReport:
    """Full Newton from the one-row record of a start vector (a..f, nu,
    xi); raises unless it converges to a convex central configuration."""
    batch = solve_batch(Residuals(m, opts.normalization), seed, m, opts)
    status = batch.status[0]
    if status == LEFT_CONVEX:
        raise LeftConvexRegion("iterate left the convex region")
    if status == NEAR_BOUNDARY:
        raise LeftConvexRegion("iterate reached the boundary of the convex "
                               "region")
    if status == SINGULAR:
        raise SingularJacobian("Newton correction could not be computed")
    if status == REJECTED:
        raise NoConvergence("converged to a point that is not a convex "
                            "central configuration")
    if status != CONVERGED:
        raise NoConvergence(
            f"residual {batch.residual[0]:.3e} after {opts.max_iterations} "
            f"iterations (tol {opts.residual_tol:.1e})")
    return batch.report(0)


def newton_solve(seed: DziobekState, m: MassVector,
                 opts: SolveOptions = SolveOptions()) -> SolveReport:
    """Damped Newton on (a..f, nu, xi) with the six c.c. equations, S = 0
    and the chosen normalization; areas recomputed from trilateration at
    every iterate.  A seed with a multiplier that is not finite raises
    DomainError, and one that does not trilaterate LeftConvexRegion."""
    if not (math.isfinite(seed.nu) and math.isfinite(seed.xi)):
        raise DomainError("seed multipliers nu and xi must be finite")
    return _polish(_seed_vector(seed.sq, m, (seed.nu, seed.xi)), m, opts)


# (a, b, c, f, nu, xi) -> (a, b, c, d=b, e=c, f, nu, xi)
_KITE_EMBED = (0, 1, 2, 1, 2, 3, 4, 5)


def _kite_seed_vectors(m: MassVector):
    """seed_vectors of a deterministic family of symmetric seeds, full
    vectors (a..f, nu, xi) on the inertia gauge whatever the solve's gauge."""
    sq = [gauged_sq([4.0, 1.0 + t * t, 1.0 + s * s,
                     1.0 + t * t, 1.0 + s * s, (t + s) ** 2], m,
                    "fix_inertia_one")
          for t in (0.6, 1.0, 1.6) for s in (0.6, 1.0, 1.6)]
    return seed_vectors(np.array(sq), m)


def solve_kite(m: MassVector,
               opts: SolveOptions = SolveOptions()) -> SolveReport:
    """Solve the kite-reduced system (b = d and c = e by construction) from
    nine fixed seeds; report the first that converges to a convex central
    configuration: seed 0 alone, then seeds 1-8 if need be, which as rows
    do not depend on their batch mates give the report of all nine."""
    fun = Residuals(m, opts.normalization, embed=_KITE_EMBED)
    x, valid, tri = _kite_seed_vectors(m)
    for rows in (slice(0, 1), slice(1, None)):
        batch = solve_batch(fun, (x[rows, fun.reduced], valid[rows],
                                  tri[:, rows]), m, opts)
        if batch.accepted.size:
            return batch.report(0)
    raise NoConvergence("no kite seed converged to a convex central "
                        "configuration")


def _brentq(f, xa: float, xb: float, xtol: float, rtol: float,
            maxiter: int) -> float:
    """A root of f between xa and xb by Brent's method (Brent, Algorithms
    for Minimization without Derivatives, 1973, ch. 4).

    A step-for-step port of scipy's C brentq, so the root is bitwise
    scipy.optimize.brentq's; where scipy raises (no sign change, no
    convergence within maxiter steps, a NaN value) this raises DomainError.
    """
    def value(x):
        fx = f(x)
        if math.isnan(fx):
            raise DomainError(f"root bracket function is NaN at x={x}")
        return fx

    xpre, xcur = xa, xb
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise DomainError(f"no sign change between {xa:g} and {xb:g}")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        # the tolerance is 2 delta
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis  # bisect
        else:
            spre = scur = sbis  # bisect
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur)
    raise DomainError(f"root not found within {maxiter} iterations")


def _rhombus_equation(x: float, alpha: float) -> float:
    """psi'(4) - psi'(1+x^2) - alpha [psi'(4 x^2) - psi'(1+x^2)], zero at
    the rhombus ratio x = r/p."""
    return (psi_prime(4.0) - psi_prime(1.0 + x * x)
            - alpha * (psi_prime(4.0 * x * x) - psi_prime(1.0 + x * x)))


def rhombus_ratio(alpha: float) -> float:
    """Diagonal half-length ratio r/p of the rhombus solution, from a 1-D
    bracketing root-find on the combined residual.

    With q1 = (-p, 0), q2 = (p, 0), q3 = (0, r), q4 = (0, -r) and x = r/p,
    eliminating nu and xi from the three distinct equations leaves
    psi'(4) - psi'(1+x^2) = alpha [psi'(4 x^2) - psi'(1+x^2)].
    """
    if not (alpha > 0 and math.isfinite(alpha)):
        raise DomainError("alpha must be positive and finite")
    return float(_brentq(lambda x: _rhombus_equation(x, alpha), 1e-6, 1e6,
                         xtol=1e-15, rtol=8.9e-16, maxiter=100))


def solve_rhombus(alpha: float,
                  opts: SolveOptions = SolveOptions()) -> SolveReport:
    """Rhombus ansatz b = c = d = e; independent of the Newton machinery.

    Solved at half-diagonal p = 1 (a = 4), then dilated to the chosen gauge.
    """
    x = rhombus_ratio(alpha)
    m = MassVector(alpha=alpha, beta=alpha)
    side = 1.0 + x * x
    sq = SquaredDistances(a=4.0, b=side, c=side, d=side, e=side,
                          f=4.0 * x * x)
    # Delta_1 Delta_2 = (p r)^2 = x^2 at p = 1
    nu = ((psi_prime(4.0) - psi_prime(side)) * alpha
          / (x * x * (alpha + 1.0)))
    xi = psi_prime(4.0) - nu * x * x
    areas = OrientedAreas(-x, -x, x, x)
    state = DziobekState(sq=sq, areas=areas, nu=nu, xi=xi)
    w = gauge_weights(m, opts.normalization)
    state = dilate_state(state, 1.0 / math.sqrt(np.asarray(sq) @ w))
    return SolveReport(state=state, iterations=0,
                       final_residual=0.0, converged=True,
                       symmetry=classify_symmetry(state).label,
                       config=realize(state.sq, m))


@dataclass(frozen=True)
class SweepCell:
    alpha: float
    beta: float
    report: SolveReport | None
    error: str | None = None

    def to_row(self) -> dict:
        row = {"alpha": self.alpha, "beta": self.beta}
        if self.report is None:
            return {**row, **dict.fromkeys([*"abcdef", "nu", "xi",
                                            "lambda_cc"], math.nan),
                    "symmetry": "failed", "iterations": 0,
                    "residual": math.nan}
        st, config = self.report.state, self.report.config
        lam_cc, _ = newtonian_oracle(config, config.masses)
        row.update(dict(zip("abcdef", st.sq)))
        row.update({"nu": st.nu, "xi": st.xi, "lambda_cc": lam_cc,
                    "symmetry": self.report.symmetry,
                    "iterations": self.report.iterations,
                    "residual": self.report.final_residual})
        return row


def sweep(alpha_grid: Sequence[float], beta_grid: Sequence[float],
          opts: SolveOptions = SolveOptions()) -> list[SweepCell]:
    """Mass-parameter sweep with warm starts along each alpha row.

    Each cell is polished by the full (unreduced) Newton solve, as in
    newton_solve; failures are recorded per cell and do not abort the
    sweep.
    """
    if not len(alpha_grid) or not len(beta_grid):
        raise ValueError("grids must be non-empty")
    if min(alpha_grid) <= 0 or min(beta_grid) <= 0:
        raise DomainError("grid masses must be positive")
    cells: list[SweepCell] = []
    for alpha in alpha_grid:
        prev: DziobekState | None = None
        for beta in beta_grid:
            m = MassVector(alpha=float(alpha), beta=float(beta))
            try:
                if prev is None:
                    report = newton_solve(solve_kite(m, opts).state, m, opts)
                else:
                    report = _polish(_seed_vector(prev.sq, m), m, opts)
                cells.append(SweepCell(float(alpha), float(beta), report))
                prev = report.state
            except (NoConvergence, LeftConvexRegion, SingularJacobian) as exc:
                cells.append(SweepCell(float(alpha), float(beta), None,
                                       error=str(exc)))
                prev = None
    return cells
