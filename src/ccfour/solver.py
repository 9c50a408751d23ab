"""Newton solution of the Dziobek system and symmetry-reduced variants.

The damped-Newton core is vectorized over a batch of starting points so the
census grids run at numpy speed; the public solvers wrap batches of size 1.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.optimize import brentq

from .dziobek import (PAIR_I, PAIR_J, DziobekState, MassVector,
                      SquaredDistances, cayley_many, dilate_state,
                      pair_residuals_many, psi_prime, psi_prime_many,
                      sq_inertia, unit_inertia_sq)
from .errors import (DomainError, LeftConvexRegion, NoConvergence,
                     SingularJacobian)
from .geometry import (OrientedAreas, oriented_areas, realize,
                       trilaterated_areas_many)

# batch status codes
RUNNING = 0
CONVERGED = 1
NO_CONVERGENCE = 2
LEFT_CONVEX = 3
SINGULAR = 4

_FD_STEP = 1e-7
_MAX_BACKTRACKS = 40


@dataclass(frozen=True)
class SolveOptions:
    max_iterations: int = 100
    residual_tol: float = 1e-12
    damping: float = 1.0
    normalization: str = "fix_inertia_one"

    def __post_init__(self):
        if self.residual_tol <= 0:
            raise ValueError("residual_tol must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if not 0.0 < self.damping <= 1.0:
            raise ValueError("damping must lie in (0, 1]")
        if self.normalization not in ("fix_inertia_one", "fix_a_one"):
            raise ValueError(f"unknown normalization {self.normalization!r}")


@dataclass(frozen=True)
class SolveReport:
    state: DziobekState
    iterations: int
    final_residual: float
    converged: bool
    symmetry: str

    def to_json_dict(self) -> dict:
        return {
            "state": self.state.to_json_dict(),
            "iterations": self.iterations,
            "final_residual": self.final_residual,
            "converged": self.converged,
            "symmetry": self.symmetry,
        }


def _residual_factory(m: MassVector, normalization: str,
                      eq_indices: Sequence[int] | None = None,
                      embed: Callable[[np.ndarray], np.ndarray] | None = None):
    """Build fun(x) -> (residuals, valid) for the damped-Newton core.

    The unreduced unknown vector is (a, b, c, d, e, f, nu, xi); `embed` maps
    a reduced vector onto it and `eq_indices` selects the equations kept.
    """
    inv_mm = 1.0 / m.pair_weights
    w_inertia = m.pair_weights / m.mprime
    sel = None if eq_indices is None else np.asarray(eq_indices)

    def fun(x: np.ndarray):
        xf = x if embed is None else embed(x)
        sq = xf[:, :6]
        valid, areas = trilaterated_areas_many(sq)
        with np.errstate(all="ignore"):
            res = np.empty((x.shape[0], 8))
            res[:, :6] = pair_residuals_many(xf, areas, inv_mm)
            res[:, 6] = cayley_many(sq) / 32.0
            if normalization == "fix_inertia_one":
                res[:, 7] = sq @ w_inertia - 1.0
            else:
                res[:, 7] = sq[:, 0] - 1.0
        if sel is not None:
            res = res[:, sel]
        res[~valid] = np.nan
        return res, valid

    return fun


def _fd_jacobian(fun, x: np.ndarray) -> np.ndarray:
    n, k = x.shape
    jac = np.empty((n, k, k))
    for j in range(k):
        h = _FD_STEP * np.maximum(1.0, np.abs(x[:, j]))
        up = x.copy()
        dn = x.copy()
        up[:, j] += h
        dn[:, j] -= h
        f_up, _ = fun(up)
        f_dn, _ = fun(dn)
        jac[:, :, j] = (f_up - f_dn) / (2.0 * h)[:, None]
    return jac


def _solve_linear(jac: np.ndarray, rhs: np.ndarray):
    """Batched solve with per-item fallback; returns dx and the mask of
    singular rows, those left without a finite dx."""
    dx = np.full_like(rhs, np.nan)
    finite = np.isfinite(jac).all(axis=(1, 2)) & np.isfinite(rhs).all(axis=1)
    idx = np.flatnonzero(finite)
    if idx.size:
        try:
            dx[idx] = np.linalg.solve(jac[idx], rhs[idx, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            for i in idx:
                with contextlib.suppress(np.linalg.LinAlgError):
                    dx[i] = np.linalg.solve(jac[i], rhs[i])
    return dx, ~np.isfinite(dx).all(axis=1)


def _newton_batch(fun, x0: np.ndarray, opts: SolveOptions):
    """Damped Newton with halving backtracking on the residual 2-norm.

    Returns (x, status, iterations, final inf-norm residual).
    """
    x = np.array(x0, dtype=float)
    n = x.shape[0]
    status = np.full(n, RUNNING, dtype=int)
    iters = np.zeros(n, dtype=int)

    res, valid = fun(x)
    status[~valid] = LEFT_CONVEX
    with np.errstate(all="ignore"):
        norm_inf = np.nanmax(np.abs(res), axis=1)
        norm2 = np.sqrt(np.nansum(res * res, axis=1))
    status[(status == RUNNING) & (norm_inf < opts.residual_tol)] = CONVERGED

    for it in range(1, opts.max_iterations + 1):
        act = np.flatnonzero(status == RUNNING)
        if act.size == 0:
            break
        xa = x[act]
        ra = res[act]
        jac = _fd_jacobian(fun, xa)
        dx, singular = _solve_linear(jac, -ra)
        status[act[singular]] = SINGULAR
        live = np.flatnonzero(~singular)
        if live.size == 0:
            continue
        ids = act[live]
        xl = xa[live]
        dxl = dx[live]
        base2 = norm2[ids]
        lam = np.full(live.size, opts.damping)
        accepted = np.zeros(live.size, dtype=bool)
        last_invalid = np.zeros(live.size, dtype=bool)
        for _ in range(_MAX_BACKTRACKS):
            rem = np.flatnonzero(~accepted)
            if rem.size == 0:
                break
            xt = xl[rem] + lam[rem, None] * dxl[rem]
            rt, vt = fun(xt)
            with np.errstate(all="ignore"):
                nt2 = np.sqrt(np.nansum(rt * rt, axis=1))
            ok = vt & (nt2 <= (1.0 - 1e-4 * lam[rem]) * base2[rem])
            take = rem[ok]
            if take.size:
                xl[take] = xt[ok]
                x[ids[take]] = xt[ok]
                res[ids[take]] = rt[ok]
                norm2[ids[take]] = nt2[ok]
                with np.errstate(all="ignore"):
                    norm_inf[ids[take]] = np.max(np.abs(rt[ok]), axis=1)
                accepted[take] = True
            fail = rem[~ok]
            lam[fail] *= 0.5
            last_invalid[fail] = ~vt[~ok]
        stuck = ~accepted
        status[ids[stuck & last_invalid]] = LEFT_CONVEX
        status[ids[stuck & ~last_invalid]] = NO_CONVERGENCE
        moved = ids[accepted]
        iters[moved] = it
        status[moved[norm_inf[moved] < opts.residual_tol]] = CONVERGED

    status[status == RUNNING] = NO_CONVERGENCE
    return x, status, iters, norm_inf


def _lsq_multipliers(sq: np.ndarray, areas: np.ndarray,
                     m: MassVector) -> np.ndarray:
    """Least-squares (nu, xi) from the six c.c. equations at fixed geometry."""
    inv_mm = 1.0 / m.pair_weights
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
    return np.stack([nu, xi], axis=1)


def state_from_vector(xf: np.ndarray, m: MassVector) -> DziobekState:
    """The realized state of an unknown vector (a..f, nu, xi); raises where
    realize or oriented_areas does."""
    sq = SquaredDistances(*(float(v) for v in xf[:6]))
    config = realize(sq, m)
    areas = oriented_areas(config)
    return DziobekState(sq=sq, areas=areas, nu=float(xf[6]), xi=float(xf[7]))


def _classify(st: DziobekState) -> str:
    from .census import classify_symmetry

    return classify_symmetry(st).label


def seed_state(sq: Sequence[float], m: MassVector) -> DziobekState:
    """Seed for newton_solve from squared distances alone.

    Unlike realized states this skips the planarity check (seeds are
    generally not planar in f); areas come from trilateration, which never
    uses f, and the multipliers from a least-squares fit.
    """
    x = seed_vector(sq, m)
    valid, areas = trilaterated_areas_many(x[None, :6])
    if not valid[0]:
        raise LeftConvexRegion("seed does not trilaterate to a convex "
                               "quadrilateral")
    return DziobekState(sq=SquaredDistances(*(float(s) for s in x[:6])),
                        areas=OrientedAreas(*(float(v) for v in areas[0])),
                        nu=float(x[6]), xi=float(x[7]))


def seed_vectors(sq: np.ndarray, m: MassVector) -> np.ndarray:
    """Unknown vectors (a..f, nu, xi) of (n, 6) squared distances, with the
    multipliers fitted by least squares at the trilaterated areas."""
    _, areas = trilaterated_areas_many(sq)
    return np.concatenate([sq, _lsq_multipliers(sq, areas, m)], axis=1)


def seed_vector(sq: Sequence[float], m: MassVector) -> np.ndarray:
    """Full unknown vector (a..f, nu, xi) from squared distances alone."""
    return seed_vectors(np.asarray(sq, dtype=float)[None, :], m)[0]


def _polish(x0: np.ndarray, m: MassVector, opts: SolveOptions) -> SolveReport:
    """Full Newton from one start vector (a..f, nu, xi); raises unless it
    converges to a state with nu > 0."""
    fun = _residual_factory(m, opts.normalization)
    x, status, iters, norm = _newton_batch(fun, x0[None, :], opts)
    if status[0] == LEFT_CONVEX:
        raise LeftConvexRegion("iterate left the convex region")
    if status[0] == SINGULAR:
        raise SingularJacobian("Newton correction could not be computed")
    if status[0] != CONVERGED:
        raise NoConvergence(
            f"residual {norm[0]:.3e} after {opts.max_iterations} iterations "
            f"(tol {opts.residual_tol:.1e})")
    state = state_from_vector(x[0], m)
    if state.nu <= 0:
        raise NoConvergence("converged to a state with nu <= 0 (not a c.c.)")
    return SolveReport(state=state, iterations=int(iters[0]),
                       final_residual=float(norm[0]), converged=True,
                       symmetry=_classify(state))


def newton_solve(seed: DziobekState, m: MassVector,
                 opts: SolveOptions = SolveOptions()) -> SolveReport:
    """Damped Newton on (a..f, nu, xi) with the six c.c. equations, S = 0
    and the chosen normalization; areas recomputed from trilateration at
    every iterate."""
    return _polish(np.array([*seed.sq, seed.nu, seed.xi], dtype=float),
                   m, opts)


def _kite_embed(x: np.ndarray) -> np.ndarray:
    """(a, b, c, f, nu, xi) -> (a, b, c, d=b, e=c, f, nu, xi)."""
    return x[:, [0, 1, 2, 1, 2, 3, 4, 5]]


_KITE_EQS = (0, 1, 2, 5, 6, 7)  # cc12, cc13, cc14, cc34, S, normalization


def _kite_seed_vectors(m: MassVector) -> np.ndarray:
    """Deterministic family of symmetric seeds, inertia-normalized."""
    sq = [unit_inertia_sq([4.0, 1.0 + t * t, 1.0 + s * s,
                           1.0 + t * t, 1.0 + s * s, (t + s) ** 2], m)
          for t in (0.6, 1.0, 1.6) for s in (0.6, 1.0, 1.6)]
    return seed_vectors(np.array(sq), m)[:, [0, 1, 2, 5, 6, 7]]


def solve_kite(m: MassVector,
               opts: SolveOptions = SolveOptions()) -> SolveReport:
    """Solve the kite-reduced system (b = d and c = e by construction)."""
    fun = _residual_factory(m, opts.normalization,
                            eq_indices=_KITE_EQS, embed=_kite_embed)
    seeds = _kite_seed_vectors(m)
    x, status, iters, norm = _newton_batch(fun, seeds, opts)
    for i in range(seeds.shape[0]):
        if status[i] != CONVERGED:
            continue
        state = state_from_vector(_kite_embed(x[i:i + 1])[0], m)
        if state.nu <= 0:
            continue
        return SolveReport(state=state, iterations=int(iters[i]),
                           final_residual=float(norm[i]), converged=True,
                           symmetry=_classify(state))
    raise NoConvergence("no kite seed converged")


def rhombus_ratio(alpha: float) -> float:
    """Diagonal half-length ratio r/p of the rhombus solution, from a 1-D
    bracketing root-find on the combined residual.

    With q1 = (-p, 0), q2 = (p, 0), q3 = (0, r), q4 = (0, -r) and x = r/p,
    eliminating nu and xi from the three distinct equations leaves
    psi'(4) - psi'(1+x^2) = alpha [psi'(4 x^2) - psi'(1+x^2)].
    """
    if alpha <= 0:
        raise DomainError("alpha must be positive")

    def g(x):
        return (psi_prime(4.0) - psi_prime(1.0 + x * x)
                - alpha * (psi_prime(4.0 * x * x) - psi_prime(1.0 + x * x)))

    return float(brentq(g, 1e-6, 1e6, xtol=1e-15, rtol=8.9e-16))


def solve_rhombus(alpha: float,
                  opts: SolveOptions = SolveOptions()) -> SolveReport:
    """Rhombus ansatz b = c = d = e; independent of the Newton machinery.

    Solved at half-diagonal p = 1 (a = 4), then dilated to the chosen gauge.
    """
    x = rhombus_ratio(alpha)
    side = 1.0 + x * x
    sq = SquaredDistances(a=4.0, b=side, c=side, d=side, e=side,
                          f=4.0 * x * x)
    # Delta_1 Delta_2 = (p r)^2 = x^2 at p = 1
    nu = ((psi_prime(4.0) - psi_prime(side)) * alpha
          / (x * x * (alpha + 1.0)))
    xi = psi_prime(4.0) - nu * x * x
    areas = OrientedAreas(-x, -x, x, x)
    state = DziobekState(sq=sq, areas=areas, nu=nu, xi=xi)
    if opts.normalization == "fix_inertia_one":
        k = 1.0 / math.sqrt(sq_inertia(sq, MassVector(alpha=alpha,
                                                      beta=alpha)))
    else:
        k = 0.5  # a = 4 k^2 = 1
    state = dilate_state(state, k)
    return SolveReport(state=state, iterations=0,
                       final_residual=0.0, converged=True,
                       symmetry=_classify(state))


@dataclass(frozen=True)
class SweepCell:
    alpha: float
    beta: float
    report: SolveReport | None
    error: str | None = None

    def to_row(self) -> dict:
        row = {"alpha": self.alpha, "beta": self.beta}
        if self.report is None:
            row.update({k: math.nan for k in
                        ("a", "b", "c", "d", "e", "f", "nu", "xi",
                         "lambda_cc")})
            row.update({"symmetry": "failed", "iterations": 0,
                        "residual": math.nan})
            return row
        st = self.report.state
        from .verifier import newtonian_oracle

        m = MassVector(alpha=self.alpha, beta=self.beta)
        lam_cc, _ = newtonian_oracle(realize(st.sq, m), m)
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
                    report = _polish(seed_vector(prev.sq, m), m, opts)
                cells.append(SweepCell(float(alpha), float(beta), report))
                prev = report.state
            except (NoConvergence, LeftConvexRegion, SingularJacobian) as exc:
                cells.append(SweepCell(float(alpha), float(beta), None,
                                       error=str(exc)))
                prev = None
    return cells
