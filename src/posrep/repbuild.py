"""Direct construction of generator actions from a reduced word.

For a reduced word of the longest element:

* ``E_i`` is the single weight-shift term [u_i^1] e(-p_i^1) on a word
  ending in ``i``, transported to the requested word move by move;
* ``F_i`` is the sum of [W_k - 2 lam_i] e(p_i^k) over the occurrences i.k
  of ``i``, with W_k the suffix sum u_t - 2 (u_i^k + u_i^(k+1) + ...) + the
  u of each letter adjacent to i left of t, the position of i.k.  Every
  position enters once, so W_k has entries in {-2, -1, 0, 1} and W_k.e_t = -1;
* ``K_i`` is the single monomial exp(-pi*b*(sum_k a(i, r(k)) u_k + 2 lam_i)).

All generators are stored in the rescaled convention, in which the master
relation reads  e_i f_i - f_i e_i = (q - q^-1)(K_i^-1 - K_i).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .qtorus import (
    SLOT_BITS,
    BracketTerm,
    QExponent,
    QOperator,
    RebracketError,
    VLaurent,
    entries,
    rebracket,
)
from .rootdata import CartanDatum, _check_datum
from .transport import transport
from .words import ReducedWord, lusztig_labels, path_to_word_ending_in


class GeneratorTriple(NamedTuple):
    E: QOperator
    F: QOperator
    K: QOperator


@dataclass(frozen=True)
class Representation:
    datum: CartanDatum
    word: ReducedWord
    gens: dict[int, GeneratorTriple]

    def generator(self, kind: str, i: int) -> QOperator:
        return getattr(self.gens[i], kind)

    def all_operators(self):
        for i, triple in self.gens.items():
            yield from ((("E", i), triple.E), (("F", i), triple.F), (("K", i), triple.K))


def build_E_rightmost(word: ReducedWord, i: int) -> QOperator:
    """[u_i^1] e(-p_i^1) on a word ending in i; L.P = -1, so both coefficients are 1."""
    if word.letters[-1] != i:
        raise ValueError(f"word does not end in {i}: {word}")
    unit, one = 1 << (SLOT_BITS * (len(word.letters) - 1)), VLaurent.one()
    return QOperator({QExponent(unit, -unit, ()): one, QExponent(-unit, -unit, ()): one})


def f_brackets(word: ReducedWord, i: int) -> list[BracketTerm]:
    """F_i's brackets, i.1 (the rightmost) first, from one left-to-right pass."""
    adjacent, one, ell = word.datum.adjacent, VLaurent.one(), ((i, -2),)
    suffix, out = 0, []
    for t, j in enumerate(word.letters):
        unit = 1 << (SLOT_BITS * t)
        if j == i:
            suffix -= 2 * unit
            out.append(BracketTerm(one, suffix + unit, ell, unit))
        elif adjacent(j, i):
            suffix += unit
    out.reverse()
    return out


def build_F(word: ReducedWord, i: int) -> QOperator:
    """F_i monomial by monomial; W.e_t = -1 gives every monomial coefficient 1."""
    word.datum.check_labels((i,))
    one, plus, minus = VLaurent.one(), ((i, -2),), ((i, 2),)
    terms = {}
    for term in f_brackets(word, i):
        terms[QExponent(term.l_alpha, term.shift, plus)] = one
        terms[QExponent(-term.l_alpha, term.shift, minus)] = one
    return QOperator(terms)


def build_K(word: ReducedWord, i: int) -> QOperator:
    word.datum.check_labels((i,))
    a = word.datum.a
    alpha = sum(-a(i, j) << (SLOT_BITS * t) for t, j in enumerate(word.letters))
    return QOperator.monomial(QExponent(alpha, 0, ((i, -2),)))


def build_E(word: ReducedWord, i: int) -> QOperator:
    """E_i on an arbitrary word: built on a word ending in i, then moved back."""
    moves, end_word = path_to_word_ending_in(word, i)
    op = build_E_rightmost(end_word, i)
    op, back = transport(op, end_word, reversed(moves))
    if back.letters != word.letters:
        raise ValueError(f"the path back from {end_word} ends at {back}, not at {word}")
    return op


def build_rep(datum: CartanDatum, word: ReducedWord) -> Representation:
    """Assemble the full family of generator actions on ``word``."""
    _check_datum(datum, word.datum, "the word")
    gens = {i: GeneratorTriple(build_E(word, i), build_F(word, i), build_K(word, i))
            for i in datum.labels}
    return Representation(datum, word, gens)


# ---------------------------------------------------------------------------
# Rendering.
# ---------------------------------------------------------------------------

def position_names(word: ReducedWord) -> list[str]:
    return [f"{lab.letter}.{lab.occurrence}" for lab in lusztig_labels(word)]


def _past_the_word(op: QOperator, n: int) -> ValueError:
    """The error for an entry of ``op`` at or past position ``n``: the first
    such entry of the monomials' u- then p-parts, in the canonical order."""
    parts = (x for expo in op.exponents() for x in (expo.alpha, expo.gamma))
    t, value = next((t, v) for x in parts for t, v in entries(x) if t >= n)
    return ValueError(f"u/p entry {value} at position {t} lies past the {n} positions of the word")


def _linear_form_text(form) -> str:
    """Render (name, nonzero coefficient) pairs as a signed sum; the empty
    name is the constant term."""
    parts = []
    for name, coef in form:
        mag = abs(coef)
        body = name if mag == 1 and name else f"{mag}{name}"
        sign = ("- " if coef < 0 else "+ ") if parts else ("-" if coef < 0 else "")
        parts.append(sign + body)
    return " ".join(parts) if parts else "0"


def _scalar_head(scalar: VLaurent) -> str:
    return "" if scalar.is_unit_monomial() and scalar.val == 0 else f"({scalar.fmt_q()}) "


def _weight_form(term: BracketTerm, names: list[str]) -> list:
    """The u- and lambda-parts of a bracket weight as (name, coefficient)."""
    return [(f"u{names[t]}", c) for t, c in entries(term.l_alpha)] + [
        (f"L{s}", c) for s, c in term.l_ell
    ]


def bracket_text(term: BracketTerm, names: list[str]) -> str:
    body = _linear_form_text(_weight_form(term, names))
    shift = _linear_form_text((f"p{names[t]}", c) for t, c in entries(term.shift))
    return f"{_scalar_head(term.scalar)}[{body}] e({shift})"


def monomial_text(expo, coeff: VLaurent, names: list[str]) -> str:
    # ordered by index first, then u, p and L
    form = [((t, 0), f"u{names[t]}", c) for t, c in entries(expo.alpha)]
    form += [((t, 1), f"p{names[t]}", 2 * c) for t, c in entries(expo.gamma)]
    form += [((s, 2), f"L{s}", c) for s, c in expo.ell]
    body = _linear_form_text((name, c) for _, name, c in sorted(form, key=lambda x: x[0]))
    return f"{_scalar_head(coeff)}E^(pi b({body}))"


def operator_text(op: QOperator, word: ReducedWord) -> str:
    """Weight-shift-term rendering, falling back to raw monomials."""
    if op.is_zero():
        return "0"
    names = position_names(word)
    try:
        try:
            return " + ".join(bracket_text(t, names) for t in rebracket(op))
        except RebracketError:
            return " + ".join(monomial_text(e, c, names) for e, c in op.monomials())
    except IndexError:
        raise _past_the_word(op, len(names)) from None


def classical_render(op: QOperator, word: ReducedWord) -> str:
    """Finite-difference rendering of a bracket-form operator.

    Inverting the quantization rule term by term, scalar*[L]e(P) prints as
    the classical shift operator (1 + L) f(u - P): the quantized weight
    becomes an affine multiplier and the momentum shift a unit displacement
    of the shifted arguments.
    """
    if op.is_zero():
        return ""
    names = position_names(word)
    lines = []
    try:
        for term in rebracket(op):
            weight = _linear_form_text([("", 1)] + _weight_form(term, names))
            args = [f"u{names[t]} {'-' if c > 0 else '+'} {abs(c)}" for t, c in entries(term.shift)]
            lines.append(f"{_scalar_head(term.scalar)}({weight}) f({', '.join(args)})")
    except IndexError:
        raise _past_the_word(op, len(names)) from None
    return " + ".join(lines)
