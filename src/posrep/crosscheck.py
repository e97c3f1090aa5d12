"""Independent closed-form constructions of the generators.

These are written straight from the label-level display formulas, not
through the generic word machinery, so that agreement with the engine is
a genuine two-route check.  Nonexistent variables (occurrence indices
beyond the letter's count) contribute zero and are skipped.
"""

from __future__ import annotations

from functools import partial

from .qtorus import QOperator, bracket, exponent, operator_from_brackets
from .rootdata import CartanDatum
from .words import ReducedWord, good_word, lusztig_labels


def _label_positions(word: ReducedWord) -> dict[tuple[int, int], int]:
    return {label: t for t, label in enumerate(lusztig_labels(word))}


def _add_u(pos: dict[tuple[int, int], int], label: int, k: int, coef: int, acc: dict[int, int]) -> None:
    """acc += coef * u_label^k, where ``pos`` has the label's position."""
    if (label, k) in pos:
        t = pos[(label, k)]
        acc[t] = acc.get(t, 0) + coef


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
    u = partial(_add_u, _label_positions(good_word(datum)))

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
    u = partial(_add_u, _label_positions(good_word(datum)))

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
