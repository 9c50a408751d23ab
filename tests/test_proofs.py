"""Proofs of the verifier's algebra, each tied to the package's own code.

Each claim here is a polynomial or rational identity, or an inequality
that follows from one, so sympy proves it rather than sampling it.  A
proof of a restatement does not prove the code, so each restatement is
also tied to the package: the package's function runs on sympy symbols or
on exact Fractions where it is pure arithmetic, and elsewhere it is
compared with the exact value at a few points.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp

from ccfour import MassVector, balanced_residuals, psi_prime
from ccfour.dziobek import PAIRS, cayley_gradient_rows, chord_value
from ccfour.verifier import (_CASE_PERMUTATION, TIE_TOL,
                             lemma4_product_chain_violation)

FORMS = ("expanded", "appendix1", "appendix2")


def _det3(r1, r2, r3):
    return sp.Matrix([r1, r2, r3]).det()


def printed_forms(a, b, c, d, e, f, A, B, C, D, E, F, al, be):
    """The paper's three written forms of the balanced-configuration
    identities, left minus right, with A..F standing for psi'(a)..psi'(f)
    and al, be for alpha/delta, beta/delta: the determinant system as
    printed (with the corrected third-equation entry a-e-c) and the two
    appendix rewrites."""
    one = [1, 1, 1]
    diag = [a + f, b + e, c + d]
    return {
        "expanded": [
            _det3(one, [f - e - d, al * (e - d - f), be * (d - f - e)],
                  [F, E, D]) - _det3(one, diag, [A, B, C]),
            _det3(one, [f - c - b, be * (b - f - c), al * (c - b - f)],
                  [F, B, C]) - _det3(one, diag, [A, E, D]),
            _det3(one, [be * (a - e - c), e - c - a, c - a - e], [A, E, C])
            - al * _det3(one, diag, [F, B, D]),
            _det3(one, [al * (a - d - b), b - a - d, d - b - a], [A, B, D])
            - be * _det3(one, diag, [F, E, C]),
        ],
        "appendix1": [
            -(1 - al) * (f - e - d) * (D - E)
            + (be - al) * (d - f - e) * (F - E)
            + 2 * al * _det3(one, [f, e, d], [F, E, D])
            - _det3(one, [a, b, c], [A, B, C])
            - _det3(one, [f, e, d], [A, B, C]),
            -(1 - al) * (f - c - b) * (C - B)
            + (be - al) * (b - f - c) * (C - F)
            + 2 * al * _det3(one, [f, b, c], [F, B, C])
            - _det3(one, [a, e, d], [A, E, D])
            - _det3(one, [f, b, c], [A, E, D]),
            -(be - 1) * (a - e - c) * (C - E)
            + 2 * _det3(one, [a, e, c], [A, E, C])
            - al * _det3(one, [a, e, c], [F, B, D])
            - al * _det3(one, [f, b, d], [F, B, D]),
            -(al - 1) * (a - d - b) * (D - B)
            + 2 * _det3(one, [a, b, d], [A, B, D])
            - be * _det3(one, [f, e, c], [F, E, C])
            - be * _det3(one, [a, b, d], [F, E, C]),
        ],
        "appendix2": [
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
        ],
    }


BALANCED_SYMBOLS = sp.symbols("a b c d e f A B C D E F alpha beta")


def test_the_three_balanced_forms_are_one_polynomial():
    forms = printed_forms(*BALANCED_SYMBOLS)
    for name in ("expanded", "appendix1"):
        for k, (lhs, rhs) in enumerate(zip(forms[name], forms["appendix2"])):
            assert sp.expand(lhs - rhs) == 0, (name, k)


def test_balanced_residuals_is_the_proved_polynomial():
    """At random states, with A..F the package's psi' of the squared
    distances, every form name gives the exact value of the polynomial to
    1e-12 of its largest component."""
    rng = np.random.default_rng(20260909)
    exact_form = printed_forms(*BALANCED_SYMBOLS)["appendix2"]
    for _ in range(20):
        sq = [float(x) for x in rng.uniform(0.2, 5.0, size=6)]
        alpha, beta, delta = (float(x) for x in rng.uniform(0.1, 3.0, 3))
        m = MassVector(alpha=alpha, beta=beta, delta=delta)
        values = [*sq, *(psi_prime(s) for s in sq)]
        point = dict(zip(BALANCED_SYMBOLS,
                         [*map(sp.Rational, values),
                          sp.Rational(alpha) / sp.Rational(delta),
                          sp.Rational(beta) / sp.Rational(delta)]))
        exact = [component.xreplace(point) for component in exact_form]
        largest = max(map(abs, exact))
        for form in FORMS:
            got = balanced_residuals(sq, m, form=form)
            for k in range(4):
                assert (abs(sp.Rational(float(got[k])) - exact[k])
                        <= sp.Rational(1e-12) * largest), (form, k, sq)


def test_lemma3_clause1_is_a_rational_identity_of_chord_value():
    """det [[1,1,1],[u,v,w],[U,V,W]] = (u - w)(V - chord(v)), with the
    package's chord_value run on the symbols.  For u > w the sign of the
    determinant is therefore that of V - chord(v): clauses 2 and 3."""
    u, v, w, U, V, W = sp.symbols("u v w U V W")
    det = _det3([1, 1, 1], [u, v, w], [U, V, W])
    assert sp.cancel(det - (u - w) * (V - chord_value(u, w, U, W, v))) == 0


def test_lemma3_clause4_psi_prime_is_strictly_concave():
    """(psi')'' = -15/8 s**(-7/2) < 0 for s > 0, so psi' lies strictly
    above each of its chords; with clause 1 the determinant on
    (u, psi'(u)), (v, psi'(v)), (w, psi'(w)) is positive for u > v > w.
    The package's psi_prime is -s**(-3/2)/2 at exact points."""
    s = sp.symbols("s", positive=True)
    restated = -s ** sp.Rational(-3, 2) / 2
    second = sp.diff(restated, s, 2)
    assert sp.simplify(
        second + sp.Rational(15, 8) * s ** sp.Rational(-7, 2)) == 0
    assert second.is_negative
    for x in (0.25, 1.0, 4.0, 16.0):
        assert psi_prime(x) == float(restated.subs(s, sp.Rational(x)))


# Lemma 4, case (a): Delta_1 < Delta_2 < 0 < Delta_3 < Delta_4 with
# sum 0, split by the sign of s = Delta_1 + Delta_4.  Each part is the
# image of positive (a, g, h) under its pattern, and LEMMA4_INVERSES takes
# each point of the part back to positive (a, g, h): there each of a, g
# and h is -Delta_2, Delta_3, |s| or a later Delta minus an earlier one.
LEMMA4_SUBCASES = {
    "s<0": lambda a, g, h: (-(a + 2 * g + h), -a, a + g, a + g + h),
    "s>0": lambda a, g, h: (-(a + g + h), -(a + g), a, a + 2 * g + h),
    "s=0": lambda a, g, h: (-(a + g), -a, a, a + g),
}
LEMMA4_INVERSES = {
    "s<0": lambda d1, d2, d3, d4: (-d2, d2 + d3, d4 - d3),
    "s>0": lambda d1, d2, d3, d4: (d3, -(d2 + d3), d2 - d1),
    "s=0": lambda d1, d2, d3, d4: (d3, d4 - d3, 1),
}
# the product chains in case (a), each entry at most the next; "0" is 0
LEMMA4_CHAINS = {
    "s<0": ("14", "13", "24", "23", "0", "12", "34"),
    "s>0": ("14", "24", "13", "23", "0", "12"),
    "s=0": ("14", "13", "24", "23", "0", "12", "34"),
}
LEMMA4_TIES = (("13", "24"), ("12", "34"))  # equalities of subcase s = 0
# the cases: the paper's ordering of Delta_1..Delta_4, lowest first
LEMMA4_CASES = {"a": (1, 2, 3, 4), "b": (2, 1, 3, 4), "c": (1, 2, 4, 3),
                "d": (2, 1, 4, 3)}


def lemma4_deltas(case, subcase, a, g, h):
    """The quadruple (Delta_1..Delta_4) of a case whose ordered values are
    the subcase's case-(a) pattern."""
    deltas = [0] * 4
    for label, value in zip(LEMMA4_CASES[case],
                            LEMMA4_SUBCASES[subcase](a, g, h)):
        deltas[label - 1] = value
    return deltas


def lemma4_gaps(case, subcase, deltas):
    """Each entry of the case's chain minus the next, and the ties of
    s = 0; the chain's labels are the case-(a) labels read through the
    case's ordering."""
    order = LEMMA4_CASES[case]

    def product(pair):
        if pair == "0":
            return 0
        i, j = (order[int(k) - 1] - 1 for k in pair)
        return deltas[i] * deltas[j]

    chain = [product(pair) for pair in LEMMA4_CHAINS[subcase]]
    ties = ([product(p) - product(q) for p, q in LEMMA4_TIES]
            if subcase == "s=0" else [])
    return [x - y for x, y in zip(chain, chain[1:])], ties


def test_lemma4_subcases_cover_the_cone():
    """Each pattern, at its inverse of a point of its part, is the point:
    with Delta_1 = -(Delta_2 + Delta_3 + Delta_4), and Delta_3 = -Delta_2
    where s = 0."""
    d2, d3, d4 = sp.symbols("d2 d3 d4")
    for subcase, pattern in LEMMA4_SUBCASES.items():
        point = ((-d4, d2, -d2, d4) if subcase == "s=0"
                 else (-(d2 + d3 + d4), d2, d3, d4))
        image = pattern(*LEMMA4_INVERSES[subcase](*point))
        assert all(sp.expand(x - y) == 0 for x, y in zip(image, point))


def test_lemma4_cases_are_the_package_permutations():
    assert {case: tuple(k + 1 for k in perm)
            for case, perm in _CASE_PERMUTATION.items()} == LEMMA4_CASES


@pytest.mark.parametrize("case", "abcd")
def test_lemma4_product_chains_hold_on_the_whole_cone(case):
    """Every gap of the chain is a polynomial in positive (a, g, h) with
    no positive coefficient, so it is at most 0, and the ties of s = 0
    are identities."""
    a, g, h = sp.symbols("a g h", positive=True)
    for subcase in LEMMA4_SUBCASES:
        gaps, ties = lemma4_gaps(case, subcase,
                                 lemma4_deltas(case, subcase, a, g, h))
        for k, gap in enumerate(gaps):
            coefficients = sp.Poly(sp.expand(gap), a, g, h).coeffs()
            assert all(c <= 0 for c in coefficients), (subcase, k, gap)
        assert all(sp.expand(tie) == 0 for tie in ties), subcase


@pytest.mark.parametrize("case", "abcd")
def test_lemma4_product_chain_violation_is_the_restated_chain(case):
    """On exact quadruples of each subcase the package's chain gives the
    restated chain's largest gap, to the bit.  The quadruples are dyadic,
    so the float 0.0 of the package's chain rounds no gap."""
    for subcase in LEMMA4_SUBCASES:
        for a, g, h in itertools.product(
                (Fraction(1, 4), Fraction(2), Fraction(7, 8)), repeat=3):
            deltas = lemma4_deltas(case, subcase, a, g, h)
            gaps, ties = lemma4_gaps(case, subcase, deltas)
            low, *_, high = LEMMA4_SUBCASES[subcase](a, g, h)
            tie_tol = TIE_TOL * max(-low, high) * max(-low, high)
            want = max(gaps + [abs(tie) - tie_tol for tie in ties])
            got = lemma4_product_chain_violation(deltas, case)
            assert got == want and got <= 0, (subcase, deltas)
    assert lemma4_product_chain_violation(
        lemma4_deltas(case, "s<0", 3, 1, 2), case) == -3


def test_dziobek_identity_holds_on_the_closed_form_gradient():
    """For four points in the plane, the package's closed-form gradient
    of S is 32 Delta_i Delta_j on pair (i, j), with Delta = +-(A_0, -A_1,
    A_2, -A_3) and A_i the signed area of the triangle on the other three
    vertices, taken in increasing order."""
    coords = sp.symbols("x0:4 y0:4")
    x, y = coords[:4], coords[4:]
    sq = np.empty((6, 1), dtype=object)
    for k, (i, j) in enumerate(PAIRS):
        sq[k, 0] = sp.Poly((x[i] - x[j]) ** 2 + (y[i] - y[j]) ** 2, *coords)
    areas = []
    for i in range(4):
        rest = [k for k in range(4) if k != i]
        areas.append(_det3([1, 1, 1], [x[k] for k in rest],
                           [y[k] for k in rest]) / 2)
    deltas = [sp.Poly((-1) ** i * area, *coords)
              for i, area in enumerate(areas)]
    gradient = cayley_gradient_rows(sq)[:, 0]
    for k, (i, j) in enumerate(PAIRS):
        assert (gradient[k] - 32 * deltas[i] * deltas[j]).is_zero, (i, j)
