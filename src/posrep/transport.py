"""Braid-move and commutation-move transformation of operators.

A braid move at positions (t, t+1, t+2) acts on operators in three exact
steps, all inside the monomial algebra:

1. inner conjugation by the monomial Z with exponent
   pi*b*(2p_w - 2p_u - u + v - w) over the frame coordinates
   (u, v, w) = (t, t+1, t+2);
2. outer conjugation by Y (same exponent with the u-part negated);
3. a lattice relabeling: u-parts transform by T^t and p-parts by T^{-1},
   with T = [[-1,1,0],[1,0,1],[1,0,0]], which preserves every commutation
   exponent.

Conjugating a monomial m that q-commutes with the argument X at an even
exponent s multiplies it on the left by a product of binomials
(1 + q^c X); negative s produces the reciprocal of such a product.  The
reciprocals are never materialized: terms are brought over a common
binomial denominator and the assembled numerator is divided out exactly,
ray by ray, at the end of each conjugation step.  A nonzero remainder
means the input was not transportable and raises NonPolynomialError.

A commutation move only exchanges the labels of two positions.  While a
path is folded, exponents are therefore indexed by fixed *slots*, and a
list ``slot[position]`` records which slot each position currently has:
a commutation move swaps two entries of that list and touches no
exponent, and a braid move at t runs on the slots of positions t, t+1,
t+2, wherever they lie.  Positions are restored in one relabel pass after
the last move.
"""

from __future__ import annotations

import os
from bisect import bisect_left
from operator import itemgetter
from typing import Iterable

from .qtorus import QExponent, QOperator, VLaurent
from .words import BraidMove, ReducedWord, apply_move


class OddPairingError(ArithmeticError):
    """A monomial q-commutes with a conjugation argument at an odd exponent."""


class NonPolynomialError(ArithmeticError):
    """A conjugation left a non-cancelling binomial denominator."""


class TermBudgetError(RuntimeError):
    """A transport exceeded the configured monomial budget.

    ``peak`` is the monomial count that broke the budget and ``step`` the
    index of the move in the path that produced it.
    """

    def __init__(self, peak: int, step: int, move: BraidMove, budget: int):
        super().__init__(
            f"operator grew to {peak} monomials at step {step} "
            f"({move.kind}@{move.pos}; budget {budget})"
        )
        self.peak = peak
        self.step = step


DEFAULT_MAX_TERMS = 5_000_000


def term_budget() -> int:
    return int(os.environ.get("POSREP_MAX_TERMS", DEFAULT_MAX_TERMS))


def conjugation_factor(s: int, direction: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Binomial factors (1 + q^c X) for conjugating at even exponent s.

    Returns (numerator_powers, denominator_powers); each power c stands for
    the factor (1 + q^c X).  ``direction`` is "inner" for g*(X) . g(X) and
    "outer" for g(X) . g*(X); the two directions are reciprocal.
    """
    if direction not in ("inner", "outer"):
        raise ValueError(f"unknown direction {direction!r}")
    if s % 2:
        raise OddPairingError(f"odd commutation exponent {s}")
    k = abs(s) // 2
    if k == 0:
        return (), ()
    falling = tuple(1 - 2 * j for j in range(1, k + 1))   # q^-1, q^-3, ...
    rising = tuple(2 * j - 1 for j in range(1, k + 1))    # q^1, q^3, ...
    if direction == "inner":
        return (falling, ()) if s > 0 else ((), rising)
    return ((), falling) if s > 0 else (rising, ())


# ---------------------------------------------------------------------------
# Local (three-coordinate) form of one braid move.
#
# A braid move only reads and writes the frame positions, so each monomial
# splits into an inert remainder and a 6-tuple of local u/p entries.  The
# whole conjugate-divide-relabel pipeline runs on those 6-tuples, grouped
# by remainder; identical local groups are served from a cache.
# ---------------------------------------------------------------------------

_Z_LOC = ((-1, 1, -1), (-1, 0, 1))
_Y_LOC = ((1, -1, 1), (-1, 0, 1))

LocalKey = tuple  # (au, av, aw, gu, gv, gw)


def _pair_loc(a1, g1, a2, g2) -> int:
    return (
        a1[0] * g2[0] + a1[1] * g2[1] + a1[2] * g2[2]
        - g1[0] * a2[0] - g1[1] * a2[1] - g1[2] * a2[2]
    )


def _mul_binomial_loc(terms: dict, x, c: int) -> dict:
    (xa, xg) = x
    out = dict(terms)
    for loc, coef in terms.items():
        a = (loc[0], loc[1], loc[2])
        g = (loc[3], loc[4], loc[5])
        s = _pair_loc(xa, xg, a, g)
        loc2 = (a[0] + xa[0], a[1] + xa[1], a[2] + xa[2],
                g[0] + xg[0], g[1] + xg[1], g[2] + xg[2])
        c2 = coef.shift(2 * c + s)
        prev = out.get(loc2)
        out[loc2] = c2 if prev is None else prev + c2
    return {l: cf for l, cf in out.items() if cf.coeffs}


def _div_binomial_loc(terms: dict, x, c: int) -> dict:
    (xa, xg) = x
    c0 = xa[0]  # first coordinate of both frame arguments is nonzero
    rays: dict[tuple, dict[int, VLaurent]] = {}
    for loc, coef in terms.items():
        k = loc[0] // c0
        base = (loc[0] - k * xa[0], loc[1] - k * xa[1], loc[2] - k * xa[2],
                loc[3] - k * xg[0], loc[4] - k * xg[1], loc[5] - k * xg[2])
        rays.setdefault(base, {})[k] = coef
    out: dict[tuple, VLaurent] = {}
    for base, slots in rays.items():
        s0 = _pair_loc(xa, xg, base[:3], base[3:])
        step = 2 * c + s0
        kmin, kmax = min(slots), max(slots)
        prev = None
        for k in range(kmin, kmax + 1):
            r = slots.get(k, VLaurent.zero())
            if prev is not None and prev.coeffs:
                r = r - prev.shift(step)
            if k == kmax:
                if r.coeffs:
                    raise NonPolynomialError(
                        f"residue survives division by (1 + q^{c} X)"
                    )
                break
            if r.coeffs:
                out[(base[0] + k * xa[0], base[1] + k * xa[1], base[2] + k * xa[2],
                     base[3] + k * xg[0], base[4] + k * xg[1], base[5] + k * xg[2])] = r
            prev = r
    return out


def _conjugate_loc(terms: dict, x, direction: str) -> dict:
    (xa, xg) = x
    groups: dict[int, dict] = {}
    for loc, coef in terms.items():
        s = _pair_loc(xa, xg, loc[:3], loc[3:])
        groups.setdefault(s, {})[loc] = coef
    denom: tuple[int, ...] = ()
    for s in groups:
        _, d = conjugation_factor(s, direction)
        if len(d) > len(denom):
            denom = d
    acc: dict[tuple, VLaurent] = {}
    for s, sub in groups.items():
        numer, d = conjugation_factor(s, direction)
        for c in numer:
            sub = _mul_binomial_loc(sub, x, c)
        for c in denom[len(d):]:
            sub = _mul_binomial_loc(sub, x, c)
        for loc, coef in sub.items():
            prev = acc.get(loc)
            acc[loc] = coef if prev is None else prev + coef
    acc = {l: cf for l, cf in acc.items() if cf.coeffs}
    for c in denom:
        acc = _div_binomial_loc(acc, x, c)
    return acc


def _braid_pipeline_loc(group: tuple) -> tuple:
    """Conjugate + relabel a group of (local key, coeff) pairs."""
    terms = dict(group)
    terms = _conjugate_loc(terms, _Z_LOC, "inner")
    terms = _conjugate_loc(terms, _Y_LOC, "outer")
    out = []
    for (au, av, aw, gu, gv, gw), coef in terms.items():
        out.append(((-au + av + aw, au, av, gw, gu + gw, gv - gw), coef))
    return tuple(out)


_PIPELINE_CACHE: dict[tuple, tuple] = {}
_PIPELINE_CACHE_MAX = 200_000


# ---------------------------------------------------------------------------
# Slot-indexed application of moves.
#
# A frame is the three slots (s0, s1, s2) of a braid move in increasing
# order; the local pipeline sees them in the order of the positions
# (u, v, w), which a slot permutation may have shuffled.
# ---------------------------------------------------------------------------

def _take(vec: tuple, s0: int, s1: int, s2: int) -> tuple:
    """Remove the entries at slots s0 < s1 < s2: (rest, x0, x1, x2)."""
    n = len(vec)
    i0 = bisect_left(vec, (s0,))
    if i0 == n or vec[i0][0] > s2:
        return vec, 0, 0, 0
    x0 = x1 = x2 = 0
    j0 = i0
    if vec[i0][0] == s0:
        x0, j0 = vec[i0][1], i0 + 1
    i1 = j1 = bisect_left(vec, (s1,), j0)
    if i1 < n and vec[i1][0] == s1:
        x1, j1 = vec[i1][1], i1 + 1
    i2 = j2 = bisect_left(vec, (s2,), j1)
    if i2 < n and vec[i2][0] == s2:
        x2, j2 = vec[i2][1], i2 + 1
    if j0 == i1 and j1 == i2:
        return vec[:i0] + vec[j2:], x0, x1, x2
    return vec[:i0] + vec[j0:i1] + vec[j1:i2] + vec[j2:], x0, x1, x2


def _put(rest: tuple, s0: int, s1: int, s2: int, y0: int, y1: int, y2: int) -> tuple:
    """Insert the nonzero values y0, y1, y2 at slots s0 < s1 < s2 into ``rest``."""
    out = list(rest)
    for s, y in ((s0, y0), (s1, y1), (s2, y2)):
        if y:
            out.insert(bisect_left(out, (s,)), (s, y))
    return tuple(out)


def _braid_inplace(terms: dict, frame: tuple[int, int, int]) -> None:
    """Apply one braid move to a slot-indexed term dict.

    ``frame`` holds the slots of the move's positions (u, v, w).  Monomials
    with no entries at the frame slots are fixed by the whole pipeline and
    are left untouched.
    """
    order = sorted(range(3), key=frame.__getitem__)
    s0, s1, s2 = (frame[r] for r in order)
    rank = [order.index(r) for r in range(3)]
    to_roles = itemgetter(*rank, *(3 + r for r in rank))
    to_slots = itemgetter(*order, *(3 + r for r in order))
    groups: dict[tuple, list] = {}
    stale: list[QExponent] = []
    for e, coef in terms.items():
        a_rest, a0, a1, a2 = _take(e.alpha, s0, s1, s2)
        g_rest, g0, g1, g2 = _take(e.gamma, s0, s1, s2)
        if not (a0 or a1 or a2 or g0 or g1 or g2):
            continue
        rem = (a_rest, g_rest, e.ell, e.const)
        groups.setdefault(rem, []).append((to_roles((a0, a1, a2, g0, g1, g2)), coef))
        stale.append(e)
    for e in stale:
        del terms[e]
    for (a_rest, g_rest, ell, const), pairs in groups.items():
        key = tuple(sorted(pairs))
        result = _PIPELINE_CACHE.get(key)
        if result is None:
            result = _braid_pipeline_loc(key)
            if len(_PIPELINE_CACHE) < _PIPELINE_CACHE_MAX:
                _PIPELINE_CACHE[key] = result
        for loc, coef in result:
            a0, a1, a2, g0, g1, g2 = to_slots(loc)
            expo = QExponent(
                _put(a_rest, s0, s1, s2, a0, a1, a2),
                _put(g_rest, s0, s1, s2, g0, g1, g2),
                ell, const,
            )
            prev = terms.get(expo)
            if prev is None:
                terms[expo] = coef
            else:
                total = prev + coef
                if total.coeffs:
                    terms[expo] = total
                else:
                    del terms[expo]


def _apply(terms: dict, slot: list[int], move: BraidMove) -> None:
    """Apply one move to slot-indexed terms and the slot list."""
    p = move.pos
    if move.kind == "commute":
        slot[p], slot[p + 1] = slot[p + 1], slot[p]
    else:
        _braid_inplace(terms, (slot[p], slot[p + 1], slot[p + 2]))


def _relabel(terms: dict, slot: list[int]) -> dict:
    """Map slot-indexed terms back to positions, draining ``terms``.

    Each distinct (slot, value) entry is relabelled once, and the new
    (position, value) tuple is shared by every exponent that holds it.
    """
    position = {s: p for p, s in enumerate(slot) if s != p}
    if not position:
        return terms
    entries: dict[tuple, tuple] = {}

    def relabel(vec: tuple) -> tuple:
        out = []
        for entry in vec:
            new = entries.get(entry)
            if new is None:
                s = entry[0]
                new = entries[entry] = (position[s], entry[1]) if s in position else entry
            out.append(new)
        out.sort()
        return tuple(out)

    out: dict[QExponent, VLaurent] = {}
    while terms:
        e, coef = terms.popitem()
        out[QExponent(relabel(e.alpha), relabel(e.gamma), e.ell, e.const)] = coef
    return out


def _one_move(op: QOperator, move: BraidMove) -> QOperator:
    terms = dict(op.terms)
    slot = list(range(move.pos + 3))
    _apply(terms, slot, move)
    return QOperator(_relabel(terms, slot))


def braid_conjugate(op: QOperator, pos: int) -> QOperator:
    """Transform an operator across one braid move at positions pos..pos+2."""
    return _one_move(op, BraidMove(pos, "braid"))


def commutation_move(op: QOperator, pos: int) -> QOperator:
    """Swap the position labels pos and pos+1 in all exponents."""
    return _one_move(op, BraidMove(pos, "commute"))


def transport(
    op: QOperator,
    word: ReducedWord,
    path: Iterable[BraidMove],
    max_terms: int | None = None,
    trace: list | None = None,
) -> tuple[QOperator, ReducedWord]:
    """Fold a move path over an operator, tracking the word as it changes.

    ``trace``, when given, receives one (move, word, n_monomials) triple per
    step.  Raises TermBudgetError when the monomial count exceeds the
    budget (default from POSREP_MAX_TERMS).
    """
    budget = term_budget() if max_terms is None else max_terms
    terms = dict(op.terms)
    slot = list(range(len(word)))
    for step, move in enumerate(path):
        word = apply_move(word, move)  # validates the pattern
        _apply(terms, slot, move)
        if trace is not None:
            trace.append((move, word, len(terms)))
        if len(terms) > budget:
            raise TermBudgetError(len(terms), step, move, budget)
    return QOperator(_relabel(terms, slot)), word


def format_trace(trace: list) -> str:
    """Render a transport trace: word, move, monomial count per step."""
    lines = []
    for move, word, n in trace:
        lines.append(f"{move.kind}@{move.pos}\t{n}\t{word}")
    return "\n".join(lines)
