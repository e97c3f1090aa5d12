import pytest

from posrep.rootdata import build_cartan, positive_root_count, weyl_from_word
from posrep.words import (
    BraidMove,
    MoveError,
    NotReducedError,
    ReducedWord,
    apply_move,
    bad_word,
    braid_path,
    check_longest,
    enumerate_words,
    good_word,
    is_reduced,
    lusztig_labels,
    occurrence_positions,
    path_to_word_ending_in,
    random_longest_words,
    word_ending_in,
    word_starting_with,
)

A2 = build_cartan("A", 2)
A3 = build_cartan("A", 3)
D4 = build_cartan("D", 4)


def test_is_reduced():
    assert is_reduced(ReducedWord(A2, (1, 2, 1)))
    assert not is_reduced(ReducedWord(A2, (1, 1)))
    assert not is_reduced(ReducedWord(A3, (1, 2, 1, 2)))


def test_good_words_explicit():
    assert good_word(A3).letters == (3, 2, 1, 3, 2, 3)
    assert good_word(D4).letters == (0, 1, 2, 0, 1, 2, 3, 2, 0, 1, 2, 3)


@pytest.mark.parametrize(
    "family,rank", [("A", 4), ("A", 5), ("D", 5), ("D", 6), ("E", 6), ("E", 7), ("E", 8)]
)
def test_good_words_are_longest(family, rank):
    datum = build_cartan(family, rank)
    word = good_word(datum)
    assert len(word.letters) == positive_root_count(datum)
    assert is_reduced(word)


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
    word = ReducedWord(A3, (3, 2, 1, 3, 2, 3))
    assert occurrence_positions(word, 3) == [5, 3, 0]


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


def test_braid_path_rejects_a_target_that_is_not_reduced():
    base = good_word(D4)
    letters = list(base.letters)
    letters[1] = letters[0]  # same length, but s_i s_i cancels
    target = ReducedWord(D4, tuple(letters))
    assert is_reduced(base) and not is_reduced(target)
    with pytest.raises(NotReducedError, match=f"word {target} is not reduced"):
        braid_path(base, target)


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


def test_bad_word_shape():
    datum = build_cartan("E", 6)
    word = bad_word(datum)
    check_longest(word)
    assert word.letters[-1] == 0
    # the 15 letters before the final fork letter form an A_5 longest word
    tail = word.letters[-16:-1]
    assert sorted(set(tail)) == [1, 2, 3, 4, 5]
    assert len(tail) == 15
