"""Independent closed-form constructions and classical-coordinate oracles.

These are written straight from the label-level display formulas, not
through the generic word machinery, so that agreement with the engine is
a genuine two-route check.  Nonexistent variables (occurrence indices
beyond the letter's count) contribute zero and are skipped.
"""

from __future__ import annotations

from fractions import Fraction

from .qtorus import QOperator, bracket, exponent, operator_from_brackets
from .rootdata import CartanDatum
from .words import ReducedWord, good_word, occurrence_positions


def _label_positions(word: ReducedWord) -> dict[tuple[int, int], int]:
    out = {}
    for letter in set(word.letters):
        for k, pos in enumerate(occurrence_positions(word, letter), start=1):
            out[(letter, k)] = pos
    return out


def closed_form_An(datum: CartanDatum, i: int) -> tuple[QOperator, QOperator, QOperator]:
    """(E_i, F_i, K_i) for type A on the standard word, termwise.

    E_i = sum_{k=1}^{n-i+1} [u_{i+k-1}^k - u_{i+k}^k]
              e(sum_{l=1}^k (p_{i+l-1}^{l-1} - p_{i+l-1}^l))
    F_i = sum_{k=1}^{i} [u_i^k - sum_{l=k}^{i}(2u_i^l - u_{i-1}^l - u_{i+1}^{l+1})
              - 2 lam_i] e(p_i^k)
    K_i = exp(pi b (sum_k (u_{i-1}^k + u_{i+1}^k - 2u_i^k) - 2 lam_i)),
          the sum over all existing occurrences.
    """
    if datum.family != "A":
        raise ValueError("closed forms here are for type A")
    n = datum.rank
    word = good_word(datum)
    pos = _label_positions(word)

    def u(label, k, coef, acc):
        if (label, k) in pos:
            t = pos[(label, k)]
            acc[t] = acc.get(t, 0) + coef

    e_terms = []
    for k in range(1, n - i + 2):
        alpha: dict[int, int] = {}
        u(i + k - 1, k, 1, alpha)
        u(i + k, k, -1, alpha)
        shift: dict[int, int] = {}
        for l in range(1, k + 1):
            u(i + l - 1, l - 1, 1, shift)
            u(i + l - 1, l, -1, shift)
        e_terms.append(bracket(l_alpha=alpha, shift=shift))
    f_terms = []
    for k in range(1, i + 1):
        alpha = {}
        u(i, k, 1, alpha)
        for l in range(k, i + 1):
            u(i, l, -2, alpha)
            u(i - 1, l, 1, alpha)
            u(i + 1, l + 1, 1, alpha)
        shift = {}
        u(i, k, 1, shift)
        f_terms.append(bracket(l_alpha=alpha, l_ell={i: -2}, shift=shift))
    k_alpha: dict[int, int] = {}
    for k in range(1, n + 1):
        u(i - 1, k, 1, k_alpha)
        u(i + 1, k, 1, k_alpha)
        u(i, k, -2, k_alpha)
    k_op = QOperator.monomial(exponent(k_alpha, ell={i: -2}))
    return (
        operator_from_brackets(e_terms),
        operator_from_brackets(f_terms),
        k_op,
    )


def closed_form_Dn(datum: CartanDatum, i: int) -> QOperator:
    """E_i for type D on its catalog word, termwise.

    For the fork letters (i = 0, 1) the action is the alternating two-sum
    with tail bounds s1(k) = 2*ceil(k/2) - 1 and s2(k) = 2*floor(k/2); for
    chain letters i >= 2 it is the single alternating sum with the sign
    (-1)^k inside the weight.
    """
    if datum.family != "D":
        raise ValueError("closed forms here are for type D")
    n = datum.rank
    word = good_word(datum)
    pos = _label_positions(word)

    def u(label, k, coef, acc):
        if (label, k) in pos:
            t = pos[(label, k)]
            acc[t] = acc.get(t, 0) + coef

    def s1(k):
        return 2 * ((k + 1) // 2) - 1

    def s2(k):
        return 2 * (k // 2)

    terms = []
    if i in (0, 1):
        for k in range(1, n):
            alpha: dict[int, int] = {}
            u((k + i - 1) % 2, k, 1, alpha)
            u(2, 2 * k - 1, -1, alpha)
            shift: dict[int, int] = {}
            for l0 in range(1, s1(k) + 1):
                u(i, l0, (-1) ** l0, shift)
            for l1 in range(1, s2(k) + 1):
                u(1 - i, l1, -((-1) ** l1), shift)
            for l2 in range(1, 2 * k - 1):
                u(2, l2, -((-1) ** l2), shift)
            terms.append(bracket(l_alpha=alpha, shift=shift))
        for k in range(1, n - 1):
            alpha = {}
            u(2, 2 * k, 1, alpha)
            u((k + i) % 2, k, -1, alpha)
            shift = {}
            for l0 in range(1, s1(k) + 1):
                u(i, l0, (-1) ** l0, shift)
            for l1 in range(1, s2(k) + 1):
                u(1 - i, l1, -((-1) ** l1), shift)
            for l2 in range(1, 2 * k + 1):
                u(2, l2, -((-1) ** l2), shift)
            terms.append(bracket(l_alpha=alpha, shift=shift))
    else:
        for k in range(1, 2 * n - 2 * i):
            sign = (-1) ** k
            alpha = {}
            u(i + 1, k, sign, alpha)
            u(i, k, -sign, alpha)
            shift = {}
            for l0 in range(1, s1(k) + 1):
                u(i, l0, (-1) ** l0, shift)
            for l1 in range(1, s2(k) + 1):
                u(i + 1, l1, -((-1) ** l1), shift)
            terms.append(bracket(l_alpha=alpha, shift=shift))
    return operator_from_brackets(terms)


# ---------------------------------------------------------------------------
# Cluster <-> Lusztig coordinate maps for type A.
# ---------------------------------------------------------------------------

class ClusterCoordinateMap:
    """Exact monomial maps between Lusztig data x_i^j and initial minors X_{i,j}.

    x labels are (i, j) with 1 <= j <= i <= n; X labels are (a, b) with
    1 <= a < b <= n+1 and boundary minors X_{a,a} = X_{a,0} = X_{0,b} = 1.
    Both transition matrices are integer and mutually inverse.
    """

    def __init__(self, n: int):
        self.n = n
        self.x_labels = [(i, j) for i in range(1, n + 1) for j in range(1, i + 1)]
        self.X_labels = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 2)]

    def _check_X(self, a: int, b: int) -> bool:
        # boundary minors are 1 and drop out of exponent arithmetic
        if a == b or a == 0 or b == 0:
            return False
        if not (1 <= a < b <= self.n + 1):
            raise ValueError(f"initial minor index ({a},{b}) out of range")
        return True

    def X_in_x(self, a: int, b: int) -> dict[tuple[int, int], int]:
        """X_{a,b} as a monomial in the x's: the rectangle double product."""
        if not self._check_X(a, b):
            return {}
        j = b - a
        out: dict[tuple[int, int], int] = {}
        for m in range(1, j + 1):
            for nn in range(1, a + 1):
                key = (m + nn - 1, nn)
                out[key] = out.get(key, 0) + 1
        return out

    def x_in_X(self, i: int, j: int) -> dict[tuple[int, int], int]:
        """x_i^j as a ratio of initial minors."""
        if not (1 <= j <= i <= self.n):
            raise ValueError(f"Lusztig label x_{i}^{j} out of range")
        out: dict[tuple[int, int], int] = {}
        for (a, b), c in (
            ((j, i + 1), 1), ((j - 1, i - 1), 1), ((j, i), -1), ((j - 1, i), -1),
        ):
            if self._check_X(a, b):
                out[(a, b)] = out.get((a, b), 0) + c
        return {k: v for k, v in out.items() if v}

    def to_cluster(self, x_expo: dict[tuple[int, int], int]) -> dict[tuple[int, int], int]:
        out: dict[tuple[int, int], int] = {}
        for (i, j), c in x_expo.items():
            for key, e in self.x_in_X(i, j).items():
                out[key] = out.get(key, 0) + c * e
        return {k: v for k, v in out.items() if v}

    def from_cluster(self, X_expo: dict[tuple[int, int], int]) -> dict[tuple[int, int], int]:
        out: dict[tuple[int, int], int] = {}
        for (a, b), c in X_expo.items():
            for key, e in self.X_in_x(a, b).items():
                out[key] = out.get(key, 0) + c * e
        return {k: v for k, v in out.items() if v}


# ---------------------------------------------------------------------------
# Classical positive coordinates.
# ---------------------------------------------------------------------------

def classical_flip(a: Fraction, b: Fraction, c: Fraction) -> tuple[Fraction, Fraction, Fraction]:
    """The positive coordinate change across one braid move:

        (a, b, c) -> (bc/(a+c), a+c, ab/(a+c)).
    """
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    if a <= 0 or b <= 0 or c <= 0:
        raise ValueError("classical flip needs positive coordinates")
    s = a + c
    return (b * c / s, s, a * b / s)


def classical_move(values: list[Fraction], move) -> list[Fraction]:
    """Apply a braid/commutation move to a positive coordinate tuple."""
    out = list(values)
    p, kind = move
    if kind == "commute":
        out[p], out[p + 1] = out[p + 1], out[p]
    else:
        out[p], out[p + 1], out[p + 2] = classical_flip(out[p], out[p + 1], out[p + 2])
    return out
