"""Direct construction of generator actions from a reduced word.

For a reduced word of the longest element:

* ``E_i`` is the single weight-shift term [u_i^1] e(-p_i^1) on a word
  ending in ``i``, transported to the requested word move by move;
* ``F_i`` is the occurrence sum with weights accumulated from the letters
  lying between consecutive occurrences of ``i`` (the leftmost segment
  extends to the start of the word);
* ``K_i`` is the single monomial exp(-pi*b*(sum_k a(i, r(k)) u_k + 2 lam_i)).

All generators are stored in the rescaled convention, in which the master
relation reads  e_i f_i - f_i e_i = (q - q^-1)(K_i^-1 - K_i).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .qtorus import (
    BracketTerm,
    QOperator,
    RebracketError,
    VLaurent,
    bracket,
    expand_bracket,
    entries,
    exponent,
    operator_from_brackets,
    rebracket,
)
from .rootdata import CartanDatum
from .transport import transport
from .words import (
    ReducedWord,
    check_longest,
    lusztig_labels,
    occurrence_positions,
    path_to_word_ending_in,
)


class GeneratorTriple(NamedTuple):
    E: QOperator
    F: QOperator
    K: QOperator


@dataclass(frozen=True)
class Representation:
    datum: CartanDatum
    word: ReducedWord
    lam_mode: str  # "formal" | "normalized"
    gens: dict[int, GeneratorTriple]

    def generator(self, kind: str, i: int) -> QOperator:
        return getattr(self.gens[i], kind)

    def all_operators(self):
        for i, triple in self.gens.items():
            yield from ((("E", i), triple.E), (("F", i), triple.F), (("K", i), triple.K))


def build_E_rightmost(word: ReducedWord, i: int) -> QOperator:
    """[u_i^1] e(-p_i^1) on a word whose last letter is i."""
    if word.letters[-1] != i:
        raise ValueError(f"word does not end in {i}: {word}")
    last = len(word.letters) - 1
    return expand_bracket(bracket(l_alpha={last: 1}, shift={last: -1}))


def f_brackets(word: ReducedWord, i: int) -> list[BracketTerm]:
    """The weight-shift terms of F_i, one per occurrence of i."""
    letters = word.letters
    pos = occurrence_positions(word, i)  # pos[k-1] is the position of i.k
    n = len(pos)
    datum = word.datum
    out = []
    for k in range(1, n + 1):
        alpha = {pos[k - 1]: 1}
        for l in range(k, n + 1):
            alpha[pos[l - 1]] = alpha.get(pos[l - 1], 0) - 2
            left = pos[l] if l < n else -1
            for t in range(left + 1, pos[l - 1]):
                if datum.adjacent(letters[t], i):
                    alpha[t] = alpha.get(t, 0) + 1
        out.append(bracket(l_alpha=alpha, l_ell={i: -2}, shift={pos[k - 1]: 1}))
    return out


def build_F(word: ReducedWord, i: int) -> QOperator:
    return operator_from_brackets(f_brackets(word, i))


def build_K(word: ReducedWord, i: int) -> QOperator:
    datum = word.datum
    alpha = {t: -datum.a(i, j) for t, j in enumerate(word.letters) if datum.a(i, j)}
    return QOperator.monomial(exponent(alpha, ell={i: -2}))


def build_E(word: ReducedWord, i: int) -> QOperator:
    """E_i on an arbitrary word: built on a word ending in i, then moved back."""
    moves, end_word = path_to_word_ending_in(word, i)
    op = build_E_rightmost(end_word, i)
    op, back = transport(op, end_word, reversed(moves))
    assert back.letters == word.letters
    return op


def build_rep(datum: CartanDatum, word: ReducedWord, lam_mode: str = "formal") -> Representation:
    """Assemble the full family of generator actions on ``word``."""
    check_longest(word)
    gens = {}
    for i in datum.labels:
        gens[i] = GeneratorTriple(build_E(word, i), build_F(word, i), build_K(word, i))
        k = gens[i].K
        assert len(k) == 1 and k.single_monomial().coeff.is_unit_monomial()
    rep = Representation(datum, word, "formal", gens)
    if lam_mode == "normalized":
        from .moddouble import normalize_lambda

        rep = normalize_lambda(rep).rep
    elif lam_mode != "formal":
        raise ValueError(f"unknown lambda mode {lam_mode!r}")
    return rep


# ---------------------------------------------------------------------------
# Rendering.
# ---------------------------------------------------------------------------

def position_names(word: ReducedWord) -> list[str]:
    return [f"{lab.letter}.{lab.occurrence}" for lab in lusztig_labels(word)]


def _linear_form_text(entries, fmt) -> str:
    parts = []
    for key, coef in entries:
        if coef == 0:
            continue
        mag = abs(coef)
        head = "" if mag == 1 else f"{mag}"
        name = fmt(key)
        if not parts:
            parts.append(("-" if coef < 0 else "") + head + name)
        else:
            parts.append(("- " if coef < 0 else "+ ") + head + name)
    return " ".join(parts) if parts else "0"


def bracket_text(term: BracketTerm, names: list[str]) -> str:
    form = [((0, t), c) for t, c in entries(term.l_alpha)]
    form += [((1, s), c) for s, c in term.l_ell]
    if term.l_const:
        form.append(((2, 0), term.l_const))
    body = _linear_form_text(
        form,
        lambda key: {0: lambda t: f"u{names[t]}", 1: lambda s: f"L{s}", 2: lambda _: "1"}[key[0]](key[1]),
    )
    shift = _linear_form_text(
        [((0, t), c) for t, c in entries(term.shift)], lambda key: f"p{names[key[1]]}"
    )
    head = "" if term.scalar.is_unit_monomial() and term.scalar.val == 0 else f"({term.scalar.fmt_q()}) "
    return f"{head}[{body}] e({shift})"


def monomial_text(expo, coeff: VLaurent, names: list[str]) -> str:
    form = [((0, t), c) for t, c in entries(expo.alpha)]
    form += [((1, t), 2 * c) for t, c in entries(expo.gamma)]
    form += [((2, s), c) for s, c in expo.ell]
    if expo.const:
        form.append(((3, 0), expo.const))
    body = _linear_form_text(
        sorted(form, key=lambda kv: (kv[0][1], kv[0][0])),
        lambda key: {
            0: lambda t: f"u{names[t]}",
            1: lambda t: f"p{names[t]}",
            2: lambda s: f"L{s}",
            3: lambda _: "1",
        }[key[0]](key[1]),
    )
    head = "" if coeff.is_unit_monomial() and coeff.val == 0 else f"({coeff.fmt_q()}) "
    return f"{head}E^(pi b({body}))"


def operator_text(op: QOperator, word: ReducedWord) -> str:
    """Weight-shift-term rendering, falling back to raw monomials."""
    if op.is_zero():
        return "0"
    names = position_names(word)
    try:
        terms = rebracket(op)
    except RebracketError:
        return " + ".join(monomial_text(e, c, names) for e, c in op.monomials())
    return " + ".join(bracket_text(t, names) for t in terms)


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
    for term in rebracket(op):
        form = [((2, 0), 1 + term.l_const)]
        form += [((0, t), c) for t, c in entries(term.l_alpha)]
        form += [((1, s), c) for s, c in term.l_ell]
        weight = _linear_form_text(
            form,
            lambda key: {0: lambda t: f"u{names[t]}", 1: lambda s: f"L{s}", 2: lambda _: "1"}[
                key[0]
            ](key[1]),
        )
        args = []
        for t, c in entries(term.shift):
            args.append(f"u{names[t]} {'-' if c > 0 else '+'} {abs(c)}")
        head = "" if term.scalar.is_unit_monomial() and term.scalar.val == 0 else f"({term.scalar.fmt_q()}) "
        lines.append(f"{head}({weight}) f({', '.join(args)})")
    return " + ".join(lines)
