"""Algebra of the planar four-body problem in squared-distance coordinates.

The six squared mutual distances (a, b, c, d, e, f) are the primary
variables.  Everything here is a pure function of those six numbers, the
oriented areas and the two multipliers (nu, xi); no geometry is realized
in this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import DomainError, NotPlanar

_TINY = float(np.finfo(float).tiny)  # the least positive normal float


@dataclass(frozen=True)
class MassVector:
    """Masses (delta, delta, alpha, beta) with the equal pair at vertices 1, 2.

    The default normalization is delta = 1; mass-scaling transforms produce
    general delta.
    """

    alpha: float
    beta: float
    delta: float = 1.0

    def __post_init__(self):
        with np.errstate(over="ignore", under="ignore"):
            weights = (*self.masses, self.mprime)
            products = self.pair_weights.tolist()
        # NaN fails both tests, and so does an overflowing sum or product; a
        # subnormal product fails the second, as its reciprocal overflows
        if not (all(0.0 < w < math.inf for w in weights)
                and all(_TINY <= p < math.inf for p in products)):
            raise DomainError("masses must be strictly positive and finite, "
                              "and so must their sum; their pair products "
                              "must be finite normal floats")

    @property
    def masses(self) -> tuple[float, float, float, float]:
        return (self.delta, self.delta, self.alpha, self.beta)

    @property
    def mprime(self) -> float:
        return 2.0 * self.delta + self.alpha + self.beta

    @property
    def pair_weights(self) -> np.ndarray:
        """The six products m_i m_j, in PAIRS order."""
        w = self.masses
        return np.array([w[i] * w[j] for i, j in PAIRS], dtype=float)

    @property
    def inertia_weights(self) -> np.ndarray:
        """The weights m_i m_j / m' of the moment of inertia
        (1/m') sum m_i m_j r_ij^2, in PAIRS order."""
        return self.pair_weights / self.mprime


class SquaredDistances(NamedTuple):
    """a=r12^2, b=r13^2, c=r14^2, d=r23^2, e=r24^2, f=r34^2."""

    a: float
    b: float
    c: float
    d: float
    e: float
    f: float

    @property
    def scale_sq(self) -> float:
        """Mean squared distance; the natural area-like scale."""
        return _mean_of_six(self)


def _mean_of_six(x):
    """(x[0] + ... + x[5]) / 6, added left to right as written, of floats
    in pure Python or of arrays elementwise (sum() of floats is
    compensated from Python 3.12 on, which would change the bits)."""
    return (x[0] + x[1] + x[2] + x[3] + x[4] + x[5]) / 6.0


def scale_sq_many(sq: np.ndarray) -> np.ndarray:
    """SquaredDistances.scale_sq along the last axis, with the same bits."""
    return _mean_of_six([sq[..., k] for k in range(6)])


class OrientedAreas(NamedTuple):
    """Signed areas of the four sub-triangles, convention (-, -, +, +)."""

    d1: float
    d2: float
    d3: float
    d4: float


# index pairs for (a, b, c, d, e, f), zero-based vertex labels
PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
PAIR_I, PAIR_J = np.array(PAIRS).T

# |S| may be at most this fraction of scale_sq**3 for planar squared distances
PLANARITY_TOL = 1e-8


@dataclass(frozen=True)
class DziobekState:
    """Squared distances + oriented areas + the two multipliers."""

    sq: SquaredDistances
    areas: OrientedAreas
    nu: float
    xi: float

    @property
    def lambda_dz(self) -> float:
        return self.nu / 32.0

    def mu(self, m: MassVector) -> float:
        return self.xi * m.mprime

    def to_json_dict(self) -> dict:
        return {
            "sq": list(self.sq),
            "areas": list(self.areas),
            "nu": self.nu,
            "xi": self.xi,
        }


CLASSIFY_TOL = 1e-6


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


def psi(s: float) -> float:
    """s**(-1/2), the pair potential as a function of squared distance."""
    if s <= 0:
        raise DomainError(f"psi requires s > 0, got {s}")
    return s ** -0.5


def psi_prime(s: float) -> float:
    """Derivative of psi: -(1/2) s**(-3/2).  Negative, increasing, concave."""
    if s <= 0:
        raise DomainError(f"psi_prime requires s > 0, got {s}")
    return -0.5 * s ** -1.5


def cayley_many(sq: np.ndarray) -> np.ndarray:
    """Vectorized Cayley determinant over rows of a (n, 6) array.

    Sign convention: dS/d(r_ij^2) = +32 Delta_i Delta_j with the oriented
    areas signed (-, -, +, +) on convex quadrilaterals; this is the negative
    of the symmetric bordered determinant, so S = -288 V^2 for tetrahedral
    distance sets.  In closed form S = -2P with the cubic P = 144 V^2,

        P = af(b+c+d+e-a-f) + be(a+c+d+f-b-e) + cd(a+b+e+f-c-d)
            - abd - ace - bcf - def,

    whose last four terms are the faces 123, 124, 134 and 234.
    """
    a, b, c, d, e, f = np.atleast_2d(np.asarray(sq, dtype=float)).T
    return -2.0 * (a * f * (b + c + d + e - a - f)
                   + b * e * (a + c + d + f - b - e)
                   + c * d * (a + b + e + f - c - d)
                   - a * b * d - a * c * e - b * c * f - d * e * f)


def cayley(sq: Sequence[float]) -> float:
    """Cayley determinant S of the six squared distances; S=0 iff planar."""
    return float(cayley_many(np.asarray(sq, dtype=float)[None, :])[0])


def planar_many(sq: np.ndarray,
                cayley: np.ndarray | None = None) -> np.ndarray:
    """True where rows of (n, 6) squared distances are finite and embed in
    the plane, |S| <= PLANARITY_TOL * scale_sq**3.  S has degree 3 in the
    squared distances, so the test is scale-invariant.  It is taken as
    |S| / scale_sq / scale_sq <= PLANARITY_TOL * scale_sq, so nothing
    overflows, and a non-finite S fails it.  cayley, where given, is the
    caller's S, taken in place of cayley_many(sq)."""
    sq = np.atleast_2d(np.asarray(sq, dtype=float))
    with np.errstate(all="ignore"):
        scale = np.abs(scale_sq_many(sq))
        s = cayley_many(sq) if cayley is None else cayley
        ratio = np.abs(s) / scale / scale
        return (np.isfinite(sq).all(axis=1) & np.isfinite(scale)
                & (ratio <= PLANARITY_TOL * scale))


# for each squared distance, the other two edges of each face through it
_FACE_PARTNERS = np.array([[[1, 3], [2, 4]], [[0, 3], [2, 5]],
                           [[0, 4], [1, 5]], [[0, 1], [4, 5]],
                           [[0, 2], [3, 5]], [[1, 2], [3, 4]]])


def cayley_gradient_rows(x: np.ndarray) -> np.ndarray:
    """Exact gradients of S = -2P with respect to (a, ..., f), in row
    layout: (6, n) rows a..f in, (6, n) rows of dS/da, ..., dS/df out.

    For a squared distance x with opposite pair y (a-f, b-e, c-d, which is
    the reversed PAIRS order) and s the sum of all six,

        dP/dx = y(s - 3x - 2y) + (af + be + cd - xy) - (the products of the
                other two edges of each face through x),

    so dP/da = f(s - 3a - 2f) + be + cd - bd - ce.  No planarity check: this
    is also the S row of Newton's Jacobian, off the plane.
    """
    y = x[::-1]
    s = x.sum(axis=0)
    xy = x * y
    faces = (x[_FACE_PARTNERS[:, 0, 0]] * x[_FACE_PARTNERS[:, 0, 1]]
             + x[_FACE_PARTNERS[:, 1, 0]] * x[_FACE_PARTNERS[:, 1, 1]])
    return -2.0 * (y * (s - 3.0 * x - 2.0 * y) + (xy[0] + xy[1] + xy[2])
                   - xy - faces)


def cayley_gradient(sq: Sequence[float]) -> np.ndarray:
    """Exact gradient of S with respect to (a, ..., f), a column of
    cayley_gradient_rows.

    Raises NotPlanar when the input does not (numerically) embed in the
    plane, since the Dziobek identity dS/dr_ij^2 = 32 Delta_i Delta_j is
    only meaningful there.
    """
    x = np.asarray(sq, dtype=float)
    if not planar_many(x)[0]:
        raise NotPlanar("cayley_gradient requires planar squared distances")
    return cayley_gradient_rows(x[:, None])[:, 0]


def psi_prime_many(sq: np.ndarray) -> np.ndarray:
    """psi' elementwise; NaN where s <= 0."""
    return -0.5 * np.where(sq > 0, sq, np.nan) ** -1.5


def psi_double_prime_many(sq: np.ndarray) -> np.ndarray:
    """psi'' = (3/4) s**(-5/2) elementwise; NaN where s <= 0."""
    return 0.75 * np.where(sq > 0, sq, np.nan) ** -2.5


def pair_residual_rows(x: np.ndarray, areas: np.ndarray,
                       inv_mm: np.ndarray) -> np.ndarray:
    """The six central-configuration equations in row layout: (8, n) rows
    (a..f, nu, xi) and (4, n) rows of oriented areas in, (6, n) rows out;
    inv_mm is 1 / pair_weights.

    Entry for pair (i, j):  psi'(r_ij^2) - nu * Delta_i Delta_j / (m_i m_j) - xi.
    """
    return (psi_prime_many(x[:6])
            - x[6] * inv_mm[:, None] * areas[PAIR_I] * areas[PAIR_J]
            - x[7])


_DIAG = np.arange(6)


def pair_jacobian_rows(x: np.ndarray, areas: np.ndarray,
                       d_areas: np.ndarray, inv_mm: np.ndarray,
                       out: np.ndarray) -> None:
    """Write into out, of shape (6, 8, n), the derivatives of
    pair_residual_rows with respect to (a..f, nu, xi), given the (4, 6, n)
    derivatives of the areas with respect to (a..f)."""
    di, dj = areas[PAIR_I], areas[PAIR_J]
    # d(Delta_i Delta_j) = dDelta_i Delta_j + Delta_i dDelta_j, in place
    d_product = d_areas[PAIR_I]
    d_product *= dj[:, None]
    d_j = d_areas[PAIR_J]
    d_j *= di[:, None]
    d_product += d_j
    np.multiply(-(x[6] * inv_mm[:, None])[:, None], d_product,
                out=out[:, :6])
    out[_DIAG, _DIAG] += psi_double_prime_many(x[:6])
    out[:, 6] = -inv_mm[:, None] * di * dj
    out[:, 7] = -1.0


def cc_residuals(st: DziobekState, m: MassVector) -> np.ndarray:
    """The six central-configuration equations, left minus right."""
    if min(st.sq) <= 0:
        raise DomainError(f"psi_prime requires s > 0, got {min(st.sq)}")
    x = np.array([*st.sq, st.nu, st.xi], dtype=float)[:, None]
    areas = np.array(st.areas, dtype=float)[:, None]
    return pair_residual_rows(x, areas, 1.0 / m.pair_weights)[:, 0]


def t_values(sq: Sequence[float], areas: Iterable[float]) -> np.ndarray:
    """t_k = sum_i Delta_i r_ik^2 (with r_kk = 0); all equal at a c.c."""
    a, b, c, d, e, f = sq
    d1, d2, d3, d4 = areas
    return np.array([
        d2 * a + d3 * b + d4 * c,
        d1 * a + d3 * d + d4 * e,
        d1 * b + d2 * d + d4 * f,
        d1 * c + d2 * e + d3 * f,
    ])


def _det3(r1, r2, r3) -> float:
    return float(np.linalg.det(np.array([r1, r2, r3], dtype=float)))


def q_residuals(t: Sequence[float], areas: Iterable[float],
                m: MassVector) -> np.ndarray:
    """The four determinants Q_234, Q_134, Q_124, Q_123, where Q_ijk has
    rows 1, (t_i, t_j, t_k) and Delta/m at i, j, k; zero whenever
    t_i = t_j = t_k."""
    scaled = [x / w for x, w in zip(areas, m.masses)]
    return np.array([_det3([1.0, 1.0, 1.0], [t[p] for p in idx],
                           [scaled[p] for p in idx])
                     for idx in ((1, 2, 3), (0, 2, 3), (0, 1, 3),
                                 (0, 1, 2))])


def balanced_residuals(sq: Sequence[float], m: MassVector,
                       form: str = "expanded") -> np.ndarray:
    """Left minus right of the four balanced-configuration identities, with
    A..F = psi'(a)..psi'(f).  All vanish at states with equal t_k.

    form names one of the paper's three written forms: "expanded", the
    determinant system as printed (with the corrected third-equation entry
    a-e-c), and "appendix1" and "appendix2", the two rewritten families.
    They are one polynomial in (a..f, A..F, alpha/delta, beta/delta), as
    tests/test_proofs.py proves, so every name gives the same array,
    evaluated as appendix2 writes it.
    """
    if form not in ("expanded", "appendix1", "appendix2"):
        raise ValueError(f"unknown form {form!r}")
    a, b, c, d, e, f = sq
    A, B, C, D, E, F = (psi_prime(s) for s in sq)
    al, be = m.alpha / m.delta, m.beta / m.delta
    one = [1.0, 1.0, 1.0]
    return np.array([
        (1 + be) * _det3(one, [f, e, d], [F, E, D])
        - (1 - al) * (F * (d - e) + e * E - d * D)
        - (be - al) * (D * (e - f) + f * F - e * E)
        - _det3(one, [a, b, c], [A, B, C])
        - _det3(one, [f, e, d], [A, B, C]),
        (be + 1) * _det3(one, [f, b, c], [F, B, C])
        - (1 - al) * (F * (c - b) + b * B - c * C)
        - (be - al) * (B * (f - c) + c * C - f * F)
        - _det3(one, [a, e, d], [A, E, D])
        - _det3(one, [f, b, c], [A, E, D]),
        (be + 1) * _det3(one, [a, e, c], [A, E, C])
        - (be - 1) * (A * (c - e) + e * E - c * C)
        - al * _det3(one, [a, e, c], [F, B, D])
        - al * _det3(one, [f, b, d], [F, B, D]),
        (al + 1) * _det3(one, [a, b, d], [A, B, D])
        - (al - 1) * (A * (d - b) + b * B - d * D)
        - be * _det3(one, [f, e, c], [F, E, C])
        - be * _det3(one, [a, b, d], [F, E, C]),
    ])


def sign_det(u: float, v: float, w: float,
             U: float, V: float, W: float) -> float:
    """det [[1,1,1],[u,v,w],[U,V,W]]: twice the oriented area of the triangle
    with vertices (u,U), (v,V), (w,W)."""
    return _det3([1.0, 1.0, 1.0], [u, v, w], [U, V, W])


def chord_value(u: float, w: float, U: float, W: float, v: float) -> float:
    """Value at v of the line through (u, U) and (w, W)."""
    return (v - w) / (u - w) * U + (u - v) / (u - w) * W


def dilate_state(st: DziobekState, k: float) -> DziobekState:
    """Dilate all lengths by k (masses fixed): sq, areas, nu, xi rescale so
    the central-configuration equations are preserved.  A dilated value
    that overflows raises DomainError."""
    if k <= 0:
        raise DomainError("dilation factor must be positive")
    try:
        nu, xi = st.nu * k ** -7, st.xi * k ** -3
    except OverflowError:
        nu = xi = math.inf
    sq = SquaredDistances(*(s * k * k for s in st.sq))
    areas = OrientedAreas(*(x * k * k for x in st.areas))
    if not all(map(math.isfinite, (*sq, *areas, nu, xi))):
        raise DomainError(f"dilation by {k:g} overflows the state")
    return DziobekState(sq=sq, areas=areas, nu=nu, xi=xi)


def scaling_transform(st: DziobekState, m: MassVector,
                      eta: float) -> tuple[DziobekState, MassVector]:
    """Simultaneous mass/length scaling that fixes the c.c. parameter lambda.

    Masses are divided by eta, squared distances multiplied by eta**(-2/3);
    nu and xi are recomputed so the residual equations transform covariantly.
    """
    if eta <= 0:
        raise DomainError("eta must be positive")
    k2 = eta ** (-2.0 / 3.0)
    sq = SquaredDistances(*(s * k2 for s in st.sq))
    areas = OrientedAreas(*(x * k2 for x in st.areas))
    new_state = DziobekState(sq=sq, areas=areas,
                             nu=st.nu * eta ** (1.0 / 3.0),
                             xi=st.xi * eta)
    new_m = MassVector(alpha=m.alpha / eta, beta=m.beta / eta,
                       delta=m.delta / eta)
    return new_state, new_m
