import hashlib
import sys

import pytest

from posrep.repbuild import build_K, build_rep
from posrep.rootdata import build_cartan, positive_root_count, positive_roots
from posrep.transport import transport
from posrep.words import (
    MAX_FRUITLESS_WALKS,
    BraidMove,
    MoveError,
    NotReducedError,
    ReducedWord,
    _apply_move_letters,
    apply_move,
    bad_word,
    braid_path,
    check_longest,
    enumerate_words,
    good_word,
    lusztig_labels,
    path_to_word_ending_in,
    random_longest_words,
    word_ending_in,
    word_starting_with,
)

A2 = build_cartan("A", 2)
A3 = build_cartan("A", 3)
D4 = build_cartan("D", 4)


@pytest.mark.parametrize(
    "datum,letters",
    [
        (A2, (1, 1, 2)),
        (A2, (1, 1, 2, 1)),
        (D4, (0, 0, 2, 0, 1, 2, 3, 2, 0, 1, 2, 3)),  # the good word with s_0 s_0 cancelling
        (A2, (2, 2, 1, 2, 1)),  # its product is w0, but it has 5 letters
    ],
)
def test_only_reduced_words_of_w0_are_words(datum, letters):
    # the constructor stops these words, so no builder ever sees one
    n, name = positive_root_count(datum), f"{datum.family}_{datum.rank}"
    spelled = ",".join(map(str, letters))
    with pytest.raises(
        NotReducedError,
        match=f"^{spelled} is not a reduced word of the longest element of {name}, which has {n} letters$",
    ):
        ReducedWord(datum, letters)


def test_good_words_explicit():
    assert good_word(A3).letters == (3, 2, 1, 3, 2, 3)
    assert good_word(D4).letters == (0, 1, 2, 0, 1, 2, 3, 2, 0, 1, 2, 3)


E6_WORD = (4, 3, 4, 0, 3, 4, 2, 3, 0, 4, 3, 2, 1, 2, 3, 4, 0, 3, 2, 1, 5, 4, 3, 2, 1,
           0, 3, 2, 4, 3, 0, 5, 4, 3, 2, 1)
E7_WORD = E6_WORD + (6, 5, 4, 3, 2, 0, 3, 4, 5, 6, 1, 2, 3, 4, 5, 0, 3, 4, 2, 3, 0, 1, 2, 3,
                     4, 5, 6)
E8_WORD = E7_WORD + (7, 6, 5, 4, 3, 2, 1, 0, 3, 2, 4, 3, 5, 4, 6, 5, 0, 3, 4, 2, 3, 0, 1, 2,
                     3, 4, 5, 6, 7, 6, 5, 4, 3, 2, 0, 3, 4, 5, 6, 1, 2, 3, 4, 5, 0, 3, 4, 2,
                     3, 0, 1, 2, 3, 4, 5, 6, 7)


@pytest.mark.parametrize("rank,letters", [(6, E6_WORD), (7, E7_WORD), (8, E8_WORD)])
def test_e_catalog_words_explicit(rank, letters):
    assert good_word(build_cartan("E", rank)).letters == letters


@pytest.mark.parametrize(
    "family,rank", [("A", 4), ("A", 5), ("D", 5), ("D", 6), ("E", 6), ("E", 7), ("E", 8)]
)
def test_good_words_are_longest(family, rank):
    datum = build_cartan(family, rank)
    word = good_word(datum)
    assert len(word.letters) == positive_root_count(datum)
    check_longest(word)


def test_e6_letter_counts():
    # per-letter occurrence counts in the catalog word
    word = good_word(build_cartan("E", 6))
    counts = [sum(1 for x in word.letters if x == i) for i in range(6)]
    assert counts == [5, 4, 7, 10, 8, 2]


def test_lusztig_labels():
    labels = lusztig_labels(ReducedWord(A3, (3, 2, 1, 3, 2, 3)))
    assert [(l.letter, l.occurrence) for l in labels] == [
        (3, 3), (2, 2), (1, 1), (3, 2), (2, 1), (3, 1),
    ]
    assert lusztig_labels(ReducedWord(build_cartan("A", 1), (1,)))[0] == (1, 1)
    assert [tuple(l) for l in lusztig_labels(ReducedWord(A2, (1, 2, 1)))] == [
        (1, 2), (2, 1), (1, 1),
    ]


def test_occurrence_positions():
    # i.k sits at the k-th occurrence of i from the right
    labels = lusztig_labels(ReducedWord(A3, (3, 2, 1, 3, 2, 3)))
    assert [labels.index((3, k)) for k in (1, 2, 3)] == [5, 3, 0]


def test_apply_move():
    w = apply_move(ReducedWord(A2, (1, 2, 1)), BraidMove(0, "braid"))
    assert w.letters == (2, 1, 2)
    w2 = apply_move(w, BraidMove(0, "braid"))
    assert w2.letters == (1, 2, 1)
    w3 = apply_move(ReducedWord(A3, (1, 3, 2, 1, 3, 2)), BraidMove(0, "commute"))
    assert w3.letters == (3, 1, 2, 1, 3, 2)


def test_apply_move_errors():
    with pytest.raises(MoveError):
        apply_move(ReducedWord(A2, (1, 2, 1)), BraidMove(0, "commute"))
    with pytest.raises(MoveError):
        apply_move(ReducedWord(A3, (1, 3, 2, 1, 3, 2)), BraidMove(0, "braid"))
    with pytest.raises(MoveError):
        apply_move(ReducedWord(A2, (1, 2, 1)), BraidMove(5, "braid"))


@pytest.mark.parametrize("datum,i", [(build_cartan("A", 1), 1), (A2, 1), (A2, 2), (D4, 3), (D4, 0)])
def test_word_ending_in(datum, i):
    word = word_ending_in(datum, i)
    assert word.letters[-1] == i
    check_longest(word)


@pytest.mark.parametrize("datum,i", [(A2, 1), (A3, 2), (D4, 0)])
def test_word_starting_with(datum, i):
    word = word_starting_with(datum, i)
    assert word.letters[0] == i
    check_longest(word)


def test_braid_path_trivial_and_a2():
    w = good_word(A2)
    assert braid_path(w, w) == []
    other = ReducedWord(A2, (1, 2, 1))
    path = braid_path(w, other)
    assert path == [BraidMove(0, "braid")]


def test_braid_path_rejects_junk():
    with pytest.raises(NotReducedError):
        braid_path(ReducedWord(A2, (1, 2, 1)), ReducedWord(A2, (1, 2)))
    with pytest.raises(ValueError):
        braid_path(ReducedWord(A3, (1, 2, 1)), ReducedWord(A3, (2, 3, 2)))


@pytest.mark.parametrize(
    "build",
    [word_ending_in, word_starting_with, lambda d, i: path_to_word_ending_in(good_word(d), i)],
    ids=["word_ending_in", "word_starting_with", "path_to_word_ending_in"],
)
def test_word_builders_reject_a_label_off_the_diagram(build):
    with pytest.raises(ValueError, match=r"letters \[9\] are not node labels of A_2"):
        build(A2, 9)


DIGEST_TYPES = (
    [("A", n) for n in range(1, 9)]
    + [("D", n) for n in range(4, 10)]
    + [("E", n) for n in (6, 7, 8)]
)


def test_word_and_root_digest():
    # every catalog, bad, end and start word and every root set on A1-A8,
    # D4-D9 and E6-E8, pinned to the words the builders gave before they
    # shared one completion routine
    h, items = hashlib.sha256(), 0
    for family, rank in DIGEST_TYPES:
        datum = build_cartan(family, rank)
        words = [good_word(datum)] + ([bad_word(datum)] if family != "A" else [])
        words += [word_ending_in(datum, i) for i in datum.labels]
        words += [word_starting_with(datum, i) for i in datum.labels]
        for data in [w.letters for w in words] + [positive_roots(datum)]:
            h.update(repr(data).encode())
            items += 1
    assert items == 235
    assert h.hexdigest() == "e196f0018f36f814bd2793058a670f174b3ab90ec12ce831a95ff3ca705ce51e"


def test_braid_path_checks_where_it_ends(monkeypatch):
    # a move search that emits nothing leaves the source word unchanged
    monkeypatch.setattr("posrep.words._force_first", lambda *args: None)
    with pytest.raises(ValueError, match=r"the move path from 3,2,1,3,2,3 ends at"):
        braid_path(good_word(A3), word_ending_in(A3, 1))


def test_words_reject_letters_off_the_diagram_and_mixed_data():
    with pytest.raises(ValueError, match=r"letters \[9\] are not node labels of A_2"):
        ReducedWord(A2, (1, 9))
    with pytest.raises(ValueError, match="different Cartan data"):
        braid_path(good_word(A2), good_word(A3))


def test_words_store_their_letters_as_a_tuple():
    listed = ReducedWord(A2, [2, 1, 2])
    assert listed == ReducedWord(A2, (2, 1, 2))
    assert hash(listed) == hash(ReducedWord(A2, (2, 1, 2)))
    assert braid_path(ReducedWord(A2, (1, 2, 1)), listed) == [BraidMove(0, "braid")]
    assert build_rep(A2, ReducedWord(A2, [1, 2, 1])).word.letters == (1, 2, 1)
    assert ReducedWord(A2, (i for i in (1, 2, 1))).letters == (1, 2, 1)


def test_enumerate_a2_a3():
    assert len(enumerate_words(A2)) == 2
    words = enumerate_words(A3)
    assert len(words) == 16  # reduced words of the longest element of S_4


def test_braid_path_all_pairs_a3():
    words = enumerate_words(A3)
    n = len(words[0].letters)
    for src in words:
        for dst in words:
            path = braid_path(src, dst)
            cur = src
            for move in path:
                cur = apply_move(cur, move)
            assert cur.letters == dst.letters
            assert len(path) <= n**3


def test_braid_path_random_d4():
    words = random_longest_words(D4, 5, seed=3)
    base = good_word(D4)
    for w in words:
        cur = base
        for move in braid_path(base, w):
            cur = apply_move(cur, move)
        assert cur.letters == w.letters


def test_path_to_word_ending_in():
    moves, end = path_to_word_ending_in(good_word(D4), 0)
    assert end.letters[-1] == 0
    cur = good_word(D4)
    for move in moves:
        cur = apply_move(cur, move)
    assert cur.letters == end.letters
    # replaying in reverse returns to the start
    for move in reversed(moves):
        cur = apply_move(cur, move)
    assert cur.letters == good_word(D4).letters


# ---------------------------------------------------------------------------
# the move paths against the recursions they replaced
# ---------------------------------------------------------------------------

def _force_first_oracle(datum, letters, start, target, moves):
    """The recursive form: make letters[start] == target."""
    j = letters[start]
    if j == target:
        return
    _force_first_oracle(datum, letters, start + 1, target, moves)
    if not datum.adjacent(j, target):
        move = BraidMove(start, "commute")
    else:
        _force_first_oracle(datum, letters, start + 2, j, moves)
        move = BraidMove(start, "braid")
    _apply_move_letters(letters, move)
    moves.append(move)


def _force_last_oracle(datum, letters, end, target, moves):
    """The recursive mirror: make letters[end - 1] == target."""
    j = letters[end - 1]
    if j == target:
        return
    _force_last_oracle(datum, letters, end - 1, target, moves)
    if not datum.adjacent(j, target):
        move = BraidMove(end - 2, "commute")
    else:
        _force_last_oracle(datum, letters, end - 2, j, moves)
        move = BraidMove(end - 3, "braid")
    _apply_move_letters(letters, move)
    moves.append(move)


@pytest.mark.parametrize(
    "family,rank",
    [("A", r) for r in range(3, 8)] + [("D", r) for r in range(4, 9)] + [("E", r) for r in (6, 7, 8)],
)
def test_move_paths_match_the_recursive_oracles(family, rank):
    datum = build_cartan(family, rank)
    words = [good_word(datum)] + random_longest_words(datum, 3, seed=rank)
    for word in words:
        for i in datum.labels:
            letters, expected = list(word.letters), []
            _force_last_oracle(datum, letters, len(letters), i, expected)
            moves, end = path_to_word_ending_in(word, i)
            assert moves == expected and end.letters == tuple(letters)
    for src in words:
        for dst in words:
            letters, expected = list(src.letters), []
            for t in range(len(letters)):
                _force_first_oracle(datum, letters, t, dst.letters[t], expected)
            assert braid_path(src, dst) == expected


def test_move_paths_past_the_recursion_limit():
    # A46's longest word has 1081 letters; bringing 1 to its end takes a
    # chain of calls as long as the word
    datum = build_cartan("A", 46)
    word = good_word(datum)
    moves, end = path_to_word_ending_in(word, 1)
    assert len(word.letters) > sys.getrecursionlimit() and end.letters[-1] == 1
    for path, src, dst in ((moves, word, end), (braid_path(end, word), end, word)):
        letters = list(src.letters)
        for move in path:
            _apply_move_letters(letters, move)
        assert tuple(letters) == dst.letters


# ---------------------------------------------------------------------------
# random words
# ---------------------------------------------------------------------------

def test_random_longest_words_pinned():
    # recorded when the walks began to alternate 61 and 60 moves
    assert [w.letters for w in random_longest_words(D4, 3, seed=0)] == [
        (2, 0, 1, 2, 3, 1, 0, 2, 1, 0, 2, 3),
        (1, 0, 3, 2, 0, 3, 1, 2, 1, 3, 0, 2),
        (1, 0, 2, 3, 1, 2, 0, 2, 3, 1, 2, 3),
    ]


def test_random_longest_words_raise_without_a_new_word():
    # A1's one word admits no move, so every walk ends on the good word
    with pytest.raises(
        ValueError, match=f"{MAX_FRUITLESS_WALKS} walks in a row found no new word of A_1; found 0 of 1 words"
    ):
        random_longest_words(build_cartan("A", 1), 1)
    # A2's two words lie in opposite classes: the first walk finds the
    # other word, and the second, of even length, only the good word
    assert [w.letters for w in random_longest_words(A2, 1)] == [(1, 2, 1)]
    with pytest.raises(ValueError, match="found 1 of 2 words"):
        random_longest_words(A2, 2)
    # A3's 16 words split 8 + 8, so 15 alternating draws take all but the
    # good word, and a 16th even-class draw finds nothing new
    words = random_longest_words(A3, 15)
    assert {w.letters for w in words} == {w.letters for w in enumerate_words(A3)} - {good_word(A3).letters}
    assert len(words) == 15
    with pytest.raises(ValueError, match="found 15 of 16 words"):
        random_longest_words(A3, 16)


@pytest.mark.parametrize("family,rank", [("D", 4), ("D", 5), ("E", 6), ("E", 7), ("E", 8)])
def test_random_longest_words_alternate_classes(family, rank):
    # every move is an odd permutation of the reflection order, so the
    # parity of any move path from the good word is the word's class
    datum = build_cartan(family, rank)
    good = good_word(datum)
    words = random_longest_words(datum, 5, seed=rank)
    paths = [braid_path(good, w) for w in words]
    assert [len(path) % 2 for path in paths] == [1, 0, 1, 0, 1]
    # the words that moves make skip the constructor's check; each one
    # equals, and hashes like, the same letters checked afresh
    reached, trace = list(words), []
    for path in paths:
        reached.append(transport(build_K(good, datum.labels[0]), good, path, trace=trace)[1])
    reached += [word for _, word, _ in trace]
    reached += [path_to_word_ending_in(w, i)[1] for w in words for i in datum.labels]
    for w in reached:
        checked = ReducedWord(w.datum, w.letters)
        assert w == checked and hash(w) == hash(checked)


def test_bad_word_shape():
    datum = build_cartan("E", 6)
    word = bad_word(datum)
    check_longest(word)
    assert word.letters[-1] == 0
    # the 15 letters before the final fork letter form an A_5 longest word
    tail = word.letters[-16:-1]
    assert sorted(set(tail)) == [1, 2, 3, 4, 5]
    assert len(tail) == 15
