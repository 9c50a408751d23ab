"""Executable checks: the lemma/theorem suites that, with the direct
Newtonian oracle of ccfour.geometry, tie the squared-distance pipeline back
to first principles."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .dziobek import (DziobekState, MassVector, balanced_residuals,
                      chord_value, psi_prime, sign_det)
from .census import census
from .geometry import newtonian_oracle
from .solver import rhombus_ratio

DEFAULT_SEED = 1405
ALBOUY_TOL = 1e-12  # Lemma 2 products and orderings, relative to scale_sq
TIE_TOL = 1e-12  # Lemma 4 ties, relative to max(-Delta_1, Delta_4)
IDENTITY_TOL = 1e-9  # rearranged balanced identities, relative to scale
ORACLE_TOL = 1e-8  # Newtonian oracle misfit at census solutions


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    worst_violation: float
    witnesses: list = field(default_factory=list)
    details: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return asdict(self)


def check_lemma1_nu_positive(
        states: Iterable[DziobekState]) -> CheckResult:
    witnesses = []
    worst = math.inf
    for st in states:
        worst = min(worst, st.nu)
        if st.nu <= 0:
            witnesses.append(st.to_json_dict())
    return CheckResult(name="lemma1_nu_positive", passed=not witnesses,
                       worst_violation=min(0.0, worst), witnesses=witnesses,
                       details={"min_nu": worst})


def check_lemma2_albouy(
        states: Iterable[tuple[DziobekState, MassVector]]) -> CheckResult:
    """(Delta_i/m_i - Delta_j/m_j)(Delta_i - Delta_j) >= 0 for all pairs,
    plus sign agreement of the two orderings."""
    witnesses = []
    worst = 0.0
    for st, m in states:
        areas = np.asarray(st.areas)
        masses = np.asarray(m.masses)
        scale_sq = st.sq.scale_sq
        for i in range(4):
            for j in range(i + 1, 4):
                d_plain = areas[i] - areas[j]
                d_scaled = areas[i] / masses[i] - areas[j] / masses[j]
                prod = d_scaled * d_plain
                worst = min(worst, prod)
                if prod < -ALBOUY_TOL * scale_sq ** 2:
                    witnesses.append({"pair": [i + 1, j + 1],
                                      "product": prod,
                                      "state": st.to_json_dict()})
                # the equivalence: strict orderings must agree in sign
                if (abs(d_plain) > ALBOUY_TOL * scale_sq
                        and abs(d_scaled) > ALBOUY_TOL * scale_sq
                        and d_plain * d_scaled < 0):
                    witnesses.append({"pair": [i + 1, j + 1],
                                      "sign_disagreement": True,
                                      "state": st.to_json_dict()})
    return CheckResult(name="lemma2_albouy", passed=not witnesses,
                       worst_violation=-worst, witnesses=witnesses)


def check_lemma3_sign(trials: int = 1000,
                      rng_seed: int = DEFAULT_SEED) -> CheckResult:
    """All four clauses of the sign determinant lemma on random triples."""
    rng = np.random.default_rng(rng_seed)
    worst = 0.0
    witnesses = []
    done = 0
    while done < trials:
        vals = np.sort(rng.uniform(0.01, 10.0, size=3))
        w, v, u = (float(x) for x in vals)
        if u - v < 1e-6 or v - w < 1e-6:
            continue
        done += 1
        U, W = (float(x) for x in rng.normal(0.0, 1.0, size=2))
        vp = chord_value(u, w, U, W, v)
        # clause 1: chord identity, arbitrary V
        V = float(rng.normal(0.0, 1.0))
        d = sign_det(u, v, w, U, V, W)
        ref = (u - w) * (V - vp)
        err = abs(d - ref) / max(1.0, abs(ref))
        worst = max(worst, err)
        if err > 1e-12:
            witnesses.append({"clause": 1, "triple": [u, v, w], "err": err})
        # clauses 2 and 3: strictly above / below the chord
        off = float(rng.uniform(0.1, 2.0))
        d_up = sign_det(u, v, w, U, vp + off, W)
        d_dn = sign_det(u, v, w, U, vp - off, W)
        if d_up <= 0 or d_dn >= 0:
            witnesses.append({"clause": "2/3", "triple": [u, v, w],
                              "d_up": d_up, "d_dn": d_dn})
            worst = max(worst, abs(min(d_up, -d_dn)))
        # clause 4: strict concavity of psi'
        d4 = sign_det(u, v, w, psi_prime(u), psi_prime(v), psi_prime(w))
        if d4 <= 0:
            witnesses.append({"clause": 4, "triple": [u, v, w], "d": d4})
            worst = max(worst, -d4)
    return CheckResult(name="lemma3_sign", passed=not witnesses,
                       worst_violation=worst, witnesses=witnesses,
                       details={"trials": trials, "rng_seed": rng_seed})


_CASE_PERMUTATION = {
    "a": (0, 1, 2, 3),
    "b": (1, 0, 2, 3),
    "c": (0, 1, 3, 2),
    "d": (1, 0, 3, 2),
}


def lemma4_product_chain_violation(deltas: Sequence[float],
                                   case: str) -> float:
    """Largest violation of the pairwise-product ordering chain for the
    given Delta-ordering case; <= 0 means the chain holds.

    The quadruple is first mapped to the case (a) pattern
    Delta_1 < Delta_2 < 0 < Delta_3 < Delta_4; the chain branches on the
    sign of Delta_1 + Delta_4 exactly as in the proof's subcases, with
    the ties taken relative to the quadruple's scale max(-Delta_1, Delta_4).
    """
    perm = _CASE_PERMUTATION[case]
    d1, d2, d3, d4 = (deltas[p] for p in perm)
    if not (d1 < d2 < 0 < d3 < d4):
        raise ValueError(f"quadruple does not match case {case!r}")
    p12, p13, p14 = d1 * d2, d1 * d3, d1 * d4
    p23, p24, p34 = d2 * d3, d2 * d4, d3 * d4
    s, scale = d1 + d4, max(-d1, d4)
    chain = ([p14, p24, p13, p23, 0.0, p12] if s > TIE_TOL * scale
             else [p14, p13, p24, p23, 0.0, p12, p34])
    worst = max(chain[k] - chain[k + 1] for k in range(len(chain) - 1))
    if abs(s) <= TIE_TOL * scale:  # subcase 1 ties: p13 = p24, p12 = p34
        tie = TIE_TOL * scale * scale
        worst = max(worst, abs(p13 - p24) - tie, abs(p12 - p34) - tie)
    return worst


_DISTANCE_CHAINS = {
    # squared-distance ordering implied in each case: low group, middle, high
    "a": (("c",), ("b", "e"), ("d",), ("a", "f")),
    "b": (("e",), ("c", "d"), ("b",), ("a", "f")),
    "c": (("b",), ("c", "d"), ("e",), ("a", "f")),
    "d": (("d",), ("b", "e"), ("c",), ("a", "f")),
}


def _distance_chain_violation(sq, case: str) -> float:
    vals = dict(zip("abcdef", sq))
    (lo,), mid, (pv,), high = ([vals[k] for k in group]
                               for group in _DISTANCE_CHAINS[case])
    return max(lo - min(mid), max(mid) - pv, pv - min(high))


def _case_of(deltas) -> str | None:
    # strict orderings only: ties at roundoff level (symmetric states)
    # match no case, leaving the distance chains vacuous there
    margin = 1e-9 * max(abs(d) for d in deltas)
    for case, perm in _CASE_PERMUTATION.items():
        e1, e2, e3, e4 = (deltas[p] for p in perm)
        if e1 < e2 - margin and e2 < -margin and margin < e3 < e4 - margin:
            return case
    return None


def check_lemma4_orderings(trials: int = 1000,
                           rng_seed: int = DEFAULT_SEED,
                           states: Sequence[tuple[DziobekState, MassVector]] = ()
                           ) -> CheckResult:
    """Product-ordering chains on random Delta quadruples in every case and
    subcase, plus the distance chains on any supplied converged state that
    actually exhibits an asymmetric ordering (vacuous at theorem solutions).
    """
    rng = np.random.default_rng(rng_seed)
    worst = 0.0
    witnesses = []
    for case in "abcd":
        for k in range(trials):
            if k % 3 == 2:
                # subcase 1 construction: d1 = -d4, d2 = -d3
                d4 = float(rng.uniform(0.5, 1.5))
                d3 = float(rng.uniform(0.05, d4 * 0.9))
                pattern = (-d4, -d3, d3, d4)
            else:
                d2n = -float(rng.uniform(0.1, 1.0))
                d1n = d2n - float(rng.uniform(0.05, 1.0))
                total = -(d1n + d2n)
                frac = float(rng.uniform(0.05, 0.45))
                pattern = (d1n, d2n, frac * total, (1 - frac) * total)
            perm = _CASE_PERMUTATION[case]
            deltas = [0.0] * 4
            for slot, p in enumerate(perm):
                deltas[p] = pattern[slot]
            v = lemma4_product_chain_violation(deltas, case)
            worst = max(worst, v)
            if v > 0:
                witnesses.append({"case": case, "deltas": deltas,
                                  "violation": v})
    checked_states = 0
    for st, m in states:
        case = _case_of(list(st.areas))
        if case is None:
            continue  # symmetric state: the lemma's hypothesis is empty
        checked_states += 1
        v = _distance_chain_violation(st.sq, case)
        worst = max(worst, v)
        if v > 0:
            witnesses.append({"case": case, "distance_chain": True,
                              "state": st.to_json_dict(), "violation": v})
    return CheckResult(name="lemma4_orderings", passed=not witnesses,
                       worst_violation=worst, witnesses=witnesses,
                       details={"trials_per_case": trials,
                                "rng_seed": rng_seed,
                                "distance_chain_states_checked": checked_states,
                                "distance_chain_vacuous": checked_states == 0})


def check_theorem_identities(st: DziobekState, m: MassVector) -> CheckResult:
    """The two rearranged balanced identities and the auxiliary closed
    forms used alongside them."""
    scale = math.sqrt(st.sq.scale_sq)
    rearranged = balanced_residuals(st.sq, m, form="appendix2")
    worst = float(np.max(np.abs(rearranged[2:4]))) / scale
    witnesses = []
    if worst > IDENTITY_TOL:
        witnesses.append({"rearranged_residuals": list(rearranged[2:4])})
    a, b, c, d, e, f = st.sq
    A, B, C, D, E, F = (psi_prime(x) for x in st.sq)
    if A >= 0:
        witnesses.append({"A_not_negative": A})
    # xX - yY = (sqrt(x) - sqrt(y)) / (2 sqrt(xy)), with the error taken
    # relative to |xX| + |yY|: the difference cancels near kites
    for x, X, y, Y, nm in ((b, B, d, D, "bB-dD"), (e, E, c, C, "eE-cC")):
        got = x * X - y * Y
        want = 0.5 * (math.sqrt(x) - math.sqrt(y)) / math.sqrt(x * y)
        err = abs(got - want) / (abs(x * X) + abs(y * Y))
        worst = max(worst, err)
        if err > 1e-13:
            witnesses.append({nm: got, "closed_form": want})
    return CheckResult(name="theorem_identities", passed=not witnesses,
                       worst_violation=worst, witnesses=witnesses)


def run_theorem1_suite(mass_grid: Sequence[tuple[float, float]],
                       resolution: int = 8) -> CheckResult:
    """Census at every grid point: exactly one class, kite-symmetric about
    the 3-4 axis, Delta_1 = Delta_2, and the Newtonian oracle agrees."""
    witnesses = []
    worst = 0.0
    kite_labels = {"kite_axis_34", "rhombus", "square"}
    for alpha, beta in mass_grid:
        m = MassVector(alpha=float(alpha), beta=float(beta))
        report = census(m, resolution)
        point = {"alpha": alpha, "beta": beta}
        if len(report.classes) != 1:
            witnesses.append({**point, "classes": len(report.classes)})
            continue
        cls = report.classes[0]
        if cls.symmetry.label not in kite_labels:
            witnesses.append({**point, "label": cls.symmetry.label})
        st = cls.state
        delta_gap = abs(st.areas[0] - st.areas[1]) / st.sq.scale_sq
        worst = max(worst, delta_gap)
        if delta_gap > 1e-8:
            witnesses.append({**point, "delta1_minus_delta2": delta_gap})
        lam, resid = newtonian_oracle(cls.config, m)
        worst = max(worst, resid)
        if resid > ORACLE_TOL or lam >= 0:
            witnesses.append({**point, "oracle_residual": resid,
                              "lambda_cc": lam})
    return CheckResult(name="theorem1_unique_kite", passed=not witnesses,
                       worst_violation=worst, witnesses=witnesses,
                       details={"points": len(mass_grid),
                                "resolution": resolution})


def run_theorem2_suite(alpha_grid: Sequence[float],
                       resolution: int = 8) -> CheckResult:
    """Census with both off-axis masses equal: one rhombus class whose
    diagonal ratio matches the independent 1-D root-find."""
    witnesses = []
    worst = 0.0
    for alpha in alpha_grid:
        m = MassVector(alpha=float(alpha), beta=float(alpha))
        report = census(m, resolution)
        point = {"alpha": alpha}
        if len(report.classes) != 1:
            witnesses.append({**point, "classes": len(report.classes)})
            continue
        cls = report.classes[0]
        if cls.symmetry.label not in ("rhombus", "square"):
            witnesses.append({**point, "label": cls.symmetry.label})
        st = cls.state
        scale = math.sqrt(st.sq.scale_sq)
        r = np.sqrt(np.asarray(st.sq))
        side_gap = (max(r[1], r[2], r[3], r[4])
                    - min(r[1], r[2], r[3], r[4])) / scale
        worst = max(worst, side_gap)
        if side_gap > 1e-9:
            witnesses.append({**point, "side_gap": side_gap})
        ratio = cls.frame.t / cls.frame.u
        ratio_oracle = rhombus_ratio(float(alpha))
        gap = abs(ratio - ratio_oracle)
        worst = max(worst, gap)
        if gap > 1e-9:
            witnesses.append({**point, "ratio": ratio,
                              "ratio_oracle": ratio_oracle})
    return CheckResult(name="theorem2_unique_rhombus", passed=not witnesses,
                       worst_violation=worst, witnesses=witnesses,
                       details={"points": len(alpha_grid),
                                "resolution": resolution})
