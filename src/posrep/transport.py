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
(1 + q^c X); negative s produces the reciprocal of such a product.  As
s(X, X) = 0, every monomial on a ray m + kX has the same s, so one
conjugation is polynomial arithmetic in X, ray by ray: each ray's
coefficients are multiplied by its binomials, or divided by them exactly.
A nonzero remainder means the input was not transportable and raises
NonPolynomialError.

A commutation move only exchanges the labels of two positions.  While a
path is folded, exponents are therefore indexed by fixed *slots*, and a
list ``slot[position]`` records which slot each position currently has:
a commutation move swaps two entries of that list and touches no
exponent, and a braid move at t runs on the slots of positions t, t+1,
t+2, wherever they lie.

An exponent is (alpha, gamma, ell): the packed u/p ints of ``qtorus``
(field layout, bias and overflow rule in its module docstring) and the
lambda part, which no move touches.  Inside a transport each monomial is
keyed by one int

    key = alpha + (gamma << SLOT_BITS*m) + (index << 2*SLOT_BITS*m) + B_2m,

so field k of the key holds the u-entry of slot k and field m + k its
p-entry, each plus SLOT_BIAS (B_2m is the bias of 2m fields); m is at
least the word length and covers every field of the input, and ``index``
numbers the distinct lambda parts of the call.  A braid move reads its six
frame fields, the u- and p-fields of its three slots, with one mask,
groups the monomials on what is left, and adds the image fields back: the
remainder and the image are one int each.  Within one move each distinct (frame fields, coefficient)
is decoded once, into a record that carries its local 6-tuple and
coefficient; a group of one monomial is its record itself, and becomes a
tuple of records only when a second member arrives.  The move runs as two
drains: the monomials it touches are taken out of the term dict as they
are read (the rest stay where they are), and then the groups are popped
one by one, each writing its images before the next is read, so old keys
and groups are freed as the move runs.  Images are memoised per pipeline
result; one group's images never meet another's or an untouched
monomial, so they are written without a merge.  Braid images are checked
when they are computed: an entry that does not fit raises
SlotOverflowError.

The input is written in the slot order the path ends at, so the output
needs no relabel: the path's commutation swaps turn the identity list
into ``end``, the moves start from the inverse of ``end``, and field q of
the input takes its field end[q].  That is one ``qtorus.permute_fields``
call on the input's distinct u/p ints before they are joined into keys;
fields past the slot list stay.  The keys are split back into exponents
only when the operator is returned, and the key dict is drained as they
are, so the two are never both whole.

The word is tracked as a plain letter list: each move is checked against
the letters (the checks and MoveError messages of ``words.apply_move``)
and applied in place, and a ReducedWord is built once at the end, or once
per step when a trace is requested, by ``ReducedWord._moved``: checked
moves keep the word a reduced word of w0, so it is not checked again.
"""

from __future__ import annotations

import os
from typing import Iterable

from .qtorus import (
    SLOT_BIAS,
    SLOT_BITS,
    QExponent,
    QOperator,
    VLaurent,
    check_entry,
    field_bias,
    field_count,
    permute_fields,
)
from .words import BraidMove, ReducedWord, _apply_move_letters, _check_move


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
    """The monomial budget from POSREP_MAX_TERMS, a positive integer."""
    text = os.environ.get("POSREP_MAX_TERMS")
    if text is None:
        return DEFAULT_MAX_TERMS
    try:
        budget = int(text)
    except ValueError:
        budget = 0
    if budget < 1:
        raise ValueError(f"POSREP_MAX_TERMS must be a positive integer, got {text!r}")
    return budget


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
# whole conjugate-relabel pipeline runs on those 6-tuples, grouped
# by remainder; identical local groups are served from a cache.
# ---------------------------------------------------------------------------

_Z_LOC = ((-1, 1, -1), (-1, 0, 1))
_Y_LOC = ((1, -1, 1), (-1, 0, 1))


def _conjugate_loc(terms: dict, x, direction: str) -> dict:
    """Conjugate local terms by the quantum dilogarithm of X, ray by ray.

    Each term lies on one ray base + kX, and every term of a ray has the
    exponent s of base with X, so the ray is a polynomial in X that is
    multiplied by the binomials (1 + q^c X) of ``conjugation_factor(s)``,
    or divided by them exactly.  Every ray's s is checked before any
    division, so an odd exponent raises ahead of a remainder.
    """
    xs = x[0] + x[1]
    rays: dict[tuple, dict[int, VLaurent]] = {}
    for loc, coef in terms.items():
        k = loc[0] // xs[0]
        rays.setdefault(tuple(e - k * d for e, d in zip(loc, xs)), {})[k] = coef
    work = []
    for base, ray in rays.items():
        s = sum(xs[i] * base[i + 3] - xs[i + 3] * base[i] for i in range(3))
        work.append((base, ray, s, *conjugation_factor(s, direction)))
    out: dict[tuple, VLaurent] = {}
    for base, ray, s, numer, denom in work:
        low = min(ray)
        poly = [ray.get(k, VLaurent.zero()) for k in range(low, max(ray) + 1)]
        for c in numer:
            poly.append(VLaurent.zero())
            for j in range(len(poly) - 1, 0, -1):
                poly[j] = poly[j] + poly[j - 1].shift(2 * c + s)
        for c in denom:
            for j in range(1, len(poly)):
                poly[j] = poly[j] - poly[j - 1].shift(2 * c + s)
            if poly.pop():
                raise NonPolynomialError(f"residue survives division by (1 + q^{c} X)")
        for k, coef in enumerate(poly, low):
            if coef:
                out[tuple(b + k * d for b, d in zip(base, xs))] = coef
    return out


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


_FIELD_MASK = (1 << SLOT_BITS) - 1


def _braid_inplace(terms: dict, frame: tuple[int, ...]) -> None:
    """Apply one braid move to terms keyed by packed ints.

    ``frame`` holds the six key fields the move reads and writes: the
    u-fields of the slots of its positions (u, v, w), then their p-fields.
    Every field of a key holds its value + SLOT_BIAS, so one mask reads all
    six.  Monomials whose six frame entries are all zero are fixed by the
    whole pipeline and stay where they are; the others are taken out of
    ``terms`` as they are read and grouped on their remainders (the key
    minus its frame fields).  Each distinct (frame fields,
    coefficient) is decoded once, into a record [(local 6-tuple,
    coefficient), image]; a group is its one record until a second member
    makes it a tuple of records.  A singleton's image is memoised on its
    record, and every image once per pipeline result.  Adding an image's
    biased fields to a remainder gives the key of the image.

    Images never meet an existing key: the images of distinct remainders
    differ off the frame, and an image of a group without a zero local
    tuple has none itself (conjugation fixes the ray through zero and the
    relabel is invertible), so it misses every untouched monomial.  The
    count check at the end guards that.
    """
    mask, bias = _FIELD_MASK, SLOT_BIAS
    u, v, w, x, y, z = frame
    su, sv, sw = SLOT_BITS * u, SLOT_BITS * v, SLOT_BITS * w
    tu, tv, tw = SLOT_BITS * x, SLOT_BITS * y, SLOT_BITS * z
    ones = (1 << su) | (1 << sv) | (1 << sw) | (1 << tu) | (1 << tv) | (1 << tw)
    frame_mask, frame_zero = mask * ones, bias * ones
    # (frame fields, id(coef)) -> record; the record holds the coefficient,
    # so the id is not reused while the record lives
    records: dict[tuple, list] = {}
    groups: dict[int, list | tuple] = {}  # remainder -> record(s)
    keys = list(terms)
    take = terms.pop
    for i, key in enumerate(keys):
        f = key & frame_mask
        if f == frame_zero:
            continue
        coef = take(key)
        keys[i] = None  # the old key is freed once ``key`` moves on
        rkey = (f, id(coef))
        record = records.get(rkey)
        if record is None:
            loc = (
                ((f >> su) & mask) - bias, ((f >> sv) & mask) - bias, ((f >> sw) & mask) - bias,
                ((f >> tu) & mask) - bias, ((f >> tv) & mask) - bias, ((f >> tw) & mask) - bias,
            )
            record = records[rkey] = [(loc, coef), None]
        rest = key - f
        group = groups.setdefault(rest, record)
        if group is not record:
            groups[rest] = (group, record) if group.__class__ is list else group + (record,)
    del keys
    size = len(terms)
    # id of a pipeline result -> its image; results stay in _PIPELINE_CACHE
    images: dict[int, list] = {}
    while groups:
        rest, group = groups.popitem()
        if group.__class__ is list:
            image = group[1]
            if image is None:
                local = (group[0],)
        else:
            image = None
            local = tuple(sorted([record[0] for record in group]))
        if image is None:
            result = _PIPELINE_CACHE.get(local)
            if result is None:
                result = _braid_pipeline_loc(local)
                for loc, _ in result:
                    for value in loc:
                        check_entry(value, "from a braid move")
                _PIPELINE_CACHE[local] = result
            image = images.get(id(result))
            if image is None:
                image = images[id(result)] = [
                    (
                        ((au + bias) << su) + ((av + bias) << sv) + ((aw + bias) << sw)
                        + ((gu + bias) << tu) + ((gv + bias) << tv) + ((gw + bias) << tw),
                        coef,
                    )
                    for (au, av, aw, gu, gv, gw), coef in result
                ]
            if group.__class__ is list:
                group[1] = image
        for d, coef in image:
            terms[rest + d] = coef
        size += len(image)
    if len(terms) != size:
        raise RuntimeError(f"braid images met existing monomials at fields {frame}")


def _pack(terms: dict, end: list[int]) -> tuple[dict, int, list]:
    """``terms`` keyed by one biased int per monomial, with field p of
    every u/p part read from field end[p]; fields past ``end`` stay.

    Returns the keyed terms, the field count m of a u/p part (at least
    len(end), and covering every field of the input) and the lambda parts
    by index.  Each distinct u/p int is permuted once.
    """
    copies = [(p, q) for p, q in enumerate(end) if p != q]
    distinct = dict.fromkeys(x for e in terms for x in e[:2])
    m = max(len(end), field_count(max(map(abs, distinct), default=0)))
    bias = field_bias(m)
    moved = {x: y + bias for x, y in zip(distinct, permute_fields(distinct, m, copies))}
    shift, top = SLOT_BITS * m, 2 * SLOT_BITS * m
    index: dict = {}  # lambda part -> its index << top
    keyed = {}
    for (a, g, ell), coef in terms.items():
        lam = index.get(ell)
        if lam is None:
            lam = index[ell] = len(index) << top
        keyed[moved[a] + (moved[g] << shift) + lam] = coef
    return keyed, m, list(index)


def _unpack(keyed: dict, m: int, parts: list) -> dict:
    """The {QExponent: coefficient} terms of keys made by ``_pack``.

    ``keyed`` is drained as it is read, so each key is freed once its
    exponent is made.
    """
    shift = SLOT_BITS * m
    bias, low, make = field_bias(m), (1 << shift) - 1, tuple.__new__
    out = {}
    pop = keyed.popitem
    while keyed:
        key, coef = pop()
        high = key >> shift  # the p-fields and the lambda index
        out[make(QExponent, ((key & low) - bias, (high & low) - bias, parts[high >> shift]))] = coef
    return out


def _start(op: QOperator, n: int, path: list) -> tuple[dict, int, list, list[int]]:
    """``op``'s packed terms in slots (with ``_pack``'s m and lambda parts)
    and the slot list ``path`` turns into the identity; a swap out of range
    is left to the move check at its step."""
    end = list(range(n))
    for p, kind in path:
        if kind == "commute" and 0 <= p < n - 1:
            end[p], end[p + 1] = end[p + 1], end[p]
    return (*_pack(op.terms, end), sorted(range(n), key=end.__getitem__))


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
    path = list(path)
    datum = word.datum
    letters = list(word.letters)
    terms, m, parts, slot = _start(op, len(letters), path)
    for step, move in enumerate(path):
        _check_move(datum, letters, move)
        _apply_move_letters(letters, move)
        p = move.pos
        if move.kind == "commute":
            slot[p], slot[p + 1] = slot[p + 1], slot[p]
        else:
            u, v, w = slot[p : p + 3]
            _braid_inplace(terms, (u, v, w, u + m, v + m, w + m))
        if trace is not None:
            trace.append((move, ReducedWord._moved(datum, letters), len(terms)))
        if len(terms) > budget:
            raise TermBudgetError(len(terms), step, move, budget)
    return QOperator(_unpack(terms, m, parts)), ReducedWord._moved(datum, letters)


def format_trace(trace: list) -> str:
    """Render a transport trace: word, move, monomial count per step."""
    lines = []
    for move, word, n in trace:
        lines.append(f"{move.kind}@{move.pos}\t{n}\t{word}")
    return "\n".join(lines)
