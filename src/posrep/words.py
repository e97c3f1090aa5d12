"""Reduced words for the longest element, braid moves, and move paths.

A word is a left-to-right sequence of node labels.  Position ``t`` of a
word carries the coordinate pair (u_t, p_t) of the exponent lattice; the
occurrence label ``i.k`` attached to a position counts occurrences of its
letter from the right end of the word.

The catalog words for E_6, E_7 and E_8 are the first 36, 63 and 120
letters of one stored E_8 word, ``_E8_WORD``; A_n and D_n catalog words are
generated.  The end, start and bad words are completions by one routine,
``_completed``: fixed head and tail letters around a greedy reduced word of
the rest of the longest element.

Every ``ReducedWord`` is a reduced word of the longest element w0: the
constructor checks it once (``check_longest``, a length test and one Weyl
pass).  A braid or commutation move replaces a factor of the word by an
equal product of the same length, so it keeps the word reduced and keeps
its element; the words that checked moves make (``apply_move``,
``transport``, ``path_to_word_ending_in``, ``enumerate_words``) are built
by ``ReducedWord._moved``, which skips the pass.  Nothing downstream checks
a word again.

The reduced words of the longest element fall into two classes, an even
and an odd number of moves from the good word: every move reverses an odd
number of adjacent roots in the reflection order, so it changes the class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, NamedTuple, Sequence

from .rootdata import (
    CartanDatum,
    positive_root_count,
    right_descents,
    weyl_from_word,
    weyl_right_mul,
    is_positive,
)


class NotReducedError(ValueError):
    pass


class MoveError(ValueError):
    """A braid/commutation move does not apply at the requested position."""


@dataclass(frozen=True)
class ReducedWord:
    """A reduced word of the longest element w0 of ``datum``: the
    constructor raises NotReducedError on any other word.  ``_moved``
    builds the word that checked moves give without the check.
    """

    datum: CartanDatum
    letters: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "letters", tuple(self.letters))
        self.datum.check_labels(self.letters)
        check_longest(self)

    @classmethod
    def _moved(cls, datum: CartanDatum, letters: Sequence[int]) -> ReducedWord:
        """The word ``letters`` reached from a ReducedWord by checked moves."""
        word = object.__new__(cls)
        object.__setattr__(word, "datum", datum)
        object.__setattr__(word, "letters", tuple(letters))
        return word

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return ",".join(str(i) for i in self.letters)


class BraidMove(NamedTuple):
    pos: int
    kind: Literal["braid", "commute"]


class LusztigLabel(NamedTuple):
    letter: int
    occurrence: int  # 1 at the rightmost occurrence of this letter


def check_longest(word: ReducedWord) -> None:
    """Raise NotReducedError unless ``word`` is a reduced word of w0.

    A word of N letters (N = l(w0), the number of positive roots) whose
    product is w0 is reduced, and w0 is the one element that sends every
    simple root negative: a length test and one Weyl pass decide it.
    """
    datum, n = word.datum, positive_root_count(word.datum)
    if len(word.letters) != n or any(map(is_positive, weyl_from_word(datum, word.letters))):
        raise NotReducedError(
            f"{word} is not a reduced word of the longest element of"
            f" {datum.family}_{datum.rank}, which has {n} letters"
        )


def lusztig_labels(word: ReducedWord) -> tuple[LusztigLabel, ...]:
    """Per-position (letter, occurrence-from-the-right) labels."""
    seen: dict[int, int] = {}
    out: list[LusztigLabel] = []
    for i in reversed(word.letters):
        seen[i] = seen.get(i, 0) + 1
        out.append(LusztigLabel(i, seen[i]))
    return tuple(reversed(out))


# ---------------------------------------------------------------------------
# Moves.
# ---------------------------------------------------------------------------

def _check_move(datum: CartanDatum, letters: Sequence[int], move: BraidMove) -> None:
    p, kind = move
    if kind == "commute":
        if p < 0 or p + 1 >= len(letters):
            raise MoveError(f"commutation position {p} out of range")
        a, b = letters[p], letters[p + 1]
        if a == b or datum.adjacent(a, b):
            raise MoveError(f"letters {a},{b} at position {p} do not commute")
    elif kind == "braid":
        if p < 0 or p + 2 >= len(letters):
            raise MoveError(f"braid position {p} out of range")
        a, b, c = letters[p : p + 3]
        if a != c or not datum.adjacent(a, b):
            raise MoveError(f"no braid pattern at position {p}: {a},{b},{c}")
    else:
        raise MoveError(f"unknown move kind {kind!r}")


def _apply_move_letters(letters: list[int], move: BraidMove) -> None:
    p, kind = move
    if kind == "commute":
        letters[p], letters[p + 1] = letters[p + 1], letters[p]
    else:
        a, b = letters[p], letters[p + 1]
        letters[p : p + 3] = [b, a, b]


def apply_move(word: ReducedWord, move: BraidMove) -> ReducedWord:
    _check_move(word.datum, word.letters, move)
    letters = list(word.letters)
    _apply_move_letters(letters, move)
    return ReducedWord._moved(word.datum, letters)


def available_moves(word: ReducedWord) -> list[BraidMove]:
    datum = word.datum
    out = []
    for p in range(len(word.letters) - 1):
        a, b = word.letters[p], word.letters[p + 1]
        if a != b and not datum.adjacent(a, b):
            out.append(BraidMove(p, "commute"))
        if p + 2 < len(word.letters) and word.letters[p + 2] == a and datum.adjacent(a, b):
            out.append(BraidMove(p, "braid"))
    return out


def enumerate_words(datum: CartanDatum) -> list[ReducedWord]:
    """All reduced words of the longest element, by closure under moves.

    Only intended for small ranks (the count explodes quickly).
    """
    start = good_word(datum)
    seen = {start.letters}
    queue = [start]
    while queue:
        w = queue.pop()
        for move in available_moves(w):
            nxt = apply_move(w, move)
            if nxt.letters not in seen:
                seen.add(nxt.letters)
                queue.append(nxt)
    return [ReducedWord._moved(datum, l) for l in sorted(seen)]


MAX_FRUITLESS_WALKS = 1000
WALK_MOVES = 60


def random_longest_words(datum: CartanDatum, count: int, seed: int = 0) -> list[ReducedWord]:
    """Distinct reduced words of the longest element via random move walks.

    The walks from the good word take WALK_MOVES + 1 and WALK_MOVES moves
    in turn, so the words alternate between the two classes, odd class
    first; the good word is never returned.  Raises ValueError when
    MAX_FRUITLESS_WALKS walks in a row end on words already found (every
    walk does on A_1, whose one word admits no move).
    """
    import random

    rng = random.Random(seed)
    good = good_word(datum)
    words = []
    seen = {good.letters}
    fruitless = 0
    while len(words) < count:
        w = good
        for _ in range(WALK_MOVES + 1 - len(words) % 2):
            if moves := available_moves(w):
                w = apply_move(w, rng.choice(moves))
        if w.letters not in seen:
            seen.add(w.letters)
            words.append(w)
            fruitless = 0
        else:
            fruitless += 1
            if fruitless == MAX_FRUITLESS_WALKS:
                raise ValueError(
                    f"{fruitless} walks in a row found no new word of {datum.family}_{datum.rank};"
                    f" found {len(words)} of {count} words"
                )
    return words


# ---------------------------------------------------------------------------
# Catalog words.
# ---------------------------------------------------------------------------

# The E_8 catalog word; its first 36 and 63 letters are the E_6 and E_7 words.
_E8_WORD = (
    4, 3, 4, 0, 3, 4, 2, 3, 0, 4, 3, 2, 1, 2, 3, 4, 0, 3, 2, 1, 5, 4, 3, 2, 1,
    0, 3, 2, 4, 3, 0, 5, 4, 3, 2, 1, 6, 5, 4, 3, 2, 0, 3, 4, 5, 6, 1, 2, 3, 4,
    5, 0, 3, 4, 2, 3, 0, 1, 2, 3, 4, 5, 6, 7, 6, 5, 4, 3, 2, 1, 0, 3, 2, 4, 3,
    5, 4, 6, 5, 0, 3, 4, 2, 3, 0, 1, 2, 3, 4, 5, 6, 7, 6, 5, 4, 3, 2, 0, 3, 4,
    5, 6, 1, 2, 3, 4, 5, 0, 3, 4, 2, 3, 0, 1, 2, 3, 4, 5, 6, 7,
)


def _a_word(chain: Sequence[int]) -> tuple[int, ...]:
    """The standard A_n word on the path ``chain``, its nodes taken as 1..n."""
    n = len(chain)
    return tuple(chain[i - 1] for k in range(1, n + 1) for i in range(n, k - 1, -1))


def good_word(datum: CartanDatum) -> ReducedWord:
    """The catalog word: standard for A_n, the symmetric-prefix word for D_n,
    and prefixes of ``_E8_WORD`` for E_6/E_7/E_8."""
    if datum.family == "A":
        letters = _a_word(datum.labels)
    elif datum.family == "D":
        n = datum.rank
        letters = [0, 1, 2, 0, 1, 2]
        for m in range(3, n):
            letters.extend(range(m, 2, -1))
            letters.extend((2, 0, 1, 2))
            letters.extend(range(3, m + 1))
    else:
        letters = _E8_WORD[: positive_root_count(datum)]
    return ReducedWord(datum, tuple(letters))


def bad_word(datum: CartanDatum) -> ReducedWord:
    """A deliberately expensive word: the completion of (A-chain longest
    word + fork letter 0) to a reduced word of the longest element.

    The suffix forces every chain generator to act through the trailing
    fork letter.  The constructed word is returned so callers can report
    exactly what was used.
    """
    if datum.family == "A":
        raise UnsupportedBadWord("bad words are defined for types D and E only")
    return _completed(datum, (), _a_word([i for i in datum.labels if i != 0]) + (0,))


class UnsupportedBadWord(ValueError):
    pass


def _greedy_word(datum: CartanDatum, elem) -> list[int]:
    """A reduced word for ``elem``, built right-to-left from least descents."""
    letters: list[int] = []
    while descents := right_descents(datum, elem):
        i = min(descents)
        letters.append(i)
        elem = weyl_right_mul(datum, elem, i)
    letters.reverse()
    return letters


def _completed(datum: CartanDatum, head: tuple[int, ...], tail: tuple[int, ...]) -> ReducedWord:
    """head + a greedy word of head^-1 w0 tail^-1 + tail, which the
    constructor checks to be a reduced word of w0."""
    elem = weyl_from_word(datum, head[::-1] + good_word(datum).letters + tail[::-1])
    return ReducedWord(datum, head + tuple(_greedy_word(datum, elem)) + tail)


def word_ending_in(datum: CartanDatum, i: int) -> ReducedWord:
    """A reduced word for the longest element whose last letter is ``i``."""
    datum.check_labels((i,))
    return _completed(datum, (), (i,))


def word_starting_with(datum: CartanDatum, i: int) -> ReducedWord:
    """A reduced word for the longest element whose first letter is ``i``."""
    datum.check_labels((i,))
    return _completed(datum, (i,), ())


# ---------------------------------------------------------------------------
# Move paths between reduced words.
# ---------------------------------------------------------------------------

def _force_first(datum, letters: list[int], start: int, target: int, moves: list[BraidMove]) -> None:
    """Emit moves making letters[start] == target.

    Precondition: target is a left descent of the element of
    letters[start:], which holds whenever some reduced word of that
    element begins with target.

    With j = letters[start] != target, the moves first make
    letters[start + 1] == target; then a commute at start when j and
    target commute, and otherwise moves that make letters[start + 2] == j
    and a braid at start.  That recursion runs on an explicit stack, so
    its depth is not bounded by the interpreter's: a call waiting for its
    commute-or-braid step is (start, j, target), and one waiting for its
    braid is (~start, j, target).
    """
    j = letters[start]
    if j == target:
        return
    adjacent = datum.adjacent
    stack = []
    while True:
        while j != target:
            stack.append((start, j, target))
            start += 1
            j = letters[start]
        while stack:
            p, j, t = stack.pop()
            if p < 0:
                p = ~p
                letters[p : p + 3] = t, j, t
                moves.append(BraidMove(p, "braid"))
            elif not adjacent(j, t):
                letters[p], letters[p + 1] = t, j
                moves.append(BraidMove(p, "commute"))
            else:
                stack.append((~p, j, t))
                start, target = p + 2, j
                j = letters[start]
                break
        else:
            return


def braid_path(src: ReducedWord, dst: ReducedWord) -> list[BraidMove]:
    """A move sequence transforming ``src`` into ``dst``.

    Two words over one datum are both reduced words of w0, so a path
    exists.  It aligns prefixes left to right; every intermediate word
    stays reduced because only valid moves are emitted.
    """
    if src.datum != dst.datum:
        raise ValueError("words live over different Cartan data")
    letters = list(src.letters)
    moves: list[BraidMove] = []
    for t, target in enumerate(dst.letters):
        if letters[t] != target:
            _force_first(src.datum, letters, t, target, moves)
    if tuple(letters) != dst.letters:
        raise ValueError(f"the move path from {src} ends at {tuple(letters)}, not at {dst}")
    return moves


def path_to_word_ending_in(word: ReducedWord, i: int) -> tuple[list[BraidMove], ReducedWord]:
    """Moves from ``word`` to some reduced word ending in ``i``; every
    letter is a right descent of w0, so such a word exists.

    Replaying the returned moves in reverse transforms the end word back
    into ``word`` (every move is its own inverse).  The moves are those that
    bring ``i`` to the front of the reversed word, mirrored: a commute at p
    becomes one at n - 2 - p and a braid at p one at n - 3 - p.
    """
    word.datum.check_labels((i,))
    letters = list(reversed(word.letters))
    mirrored: list[BraidMove] = []
    _force_first(word.datum, letters, 0, i, mirrored)
    n = len(letters)
    moves = [BraidMove(n - 2 - p if kind == "commute" else n - 3 - p, kind) for p, kind in mirrored]
    return moves, ReducedWord._moved(word.datum, reversed(letters))
