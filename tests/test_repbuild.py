import random

import pytest

from posrep.qtorus import (
    QOperator,
    VLaurent,
    bracket,
    entries,
    expand_bracket,
    exponent,
    operator_from_brackets,
    rebracket,
    term_count,
)
from posrep.repbuild import (
    build_E,
    build_E_rightmost,
    build_F,
    build_K,
    build_rep,
    classical_render,
    f_brackets,
    operator_text,
)
from posrep.rootdata import build_cartan
from posrep.words import (
    ReducedWord,
    apply_move,
    available_moves,
    bad_word,
    check_longest,
    good_word,
    lusztig_labels,
)
from conftest import flipped

A1 = build_cartan("A", 1)
A2 = build_cartan("A", 2)
A3 = build_cartan("A", 3)
D4 = build_cartan("D", 4)
W1 = ReducedWord(A1, (1,))


def test_e_rightmost():
    assert build_E_rightmost(W1, 1) == expand_bracket(bracket(l_alpha={0: 1}, shift={0: -1}))
    word = ReducedWord(A3, (3, 2, 1, 3, 2, 3))
    assert build_E_rightmost(word, 3) == expand_bracket(
        bracket(l_alpha={5: 1}, shift={5: -1})
    )
    with pytest.raises(ValueError):
        build_E_rightmost(word, 1)


def test_f_a1():
    # [-u - 2 lam] e(p)
    assert build_F(W1, 1) == expand_bracket(
        bracket(l_alpha={0: -1}, l_ell={1: -2}, shift={0: 1})
    )


def test_k_a1():
    k = build_K(W1, 1).single_monomial()
    assert entries(k.expo.alpha) == ((0, -2),)
    assert dict(k.expo.ell) == {1: -2}
    assert not k.expo.gamma and k.coeff == VLaurent.one()


@pytest.mark.parametrize("build", [build_E, build_F, build_K])
def test_builders_reject_a_label_off_the_diagram(build):
    with pytest.raises(ValueError, match=r"letters \[9\] are not node labels of A_2"):
        build(good_word(A2), 9)


def test_build_e_checks_the_path_back(monkeypatch):
    # a transport that does not move leaves E_1 on the word ending in 1
    monkeypatch.setattr("posrep.repbuild.transport", lambda op, word, moves: (op, word))
    with pytest.raises(ValueError, match=r"ends at 2,3,1,2,3,1, not at 3,2,1,3,2,3"):
        build_E(good_word(A3), 1)


def test_f_term_counts_match_occurrences():
    for datum in (A2, A3, D4):
        word = good_word(datum)
        for i in datum.labels:
            occ = sum(1 for x in word.letters if x == i)
            assert term_count(build_F(word, i)) == occ


def test_a1_master_relation_by_hand():
    # the four monomial products of the rank-one generators, expanded by hand
    e = build_E(W1, 1)
    f = build_F(W1, 1)
    k = build_K(W1, 1)
    lhs = e * f - f * e
    q_minus = VLaurent.q_power(1) - VLaurent.q_power(-1)
    k_inv = QOperator.monomial(exponent({0: 2}, {}, {1: 2}))
    assert lhs == (k_inv - k).scale(q_minus)


def test_f_conventions_via_closed_pattern_a2():
    # on (2,1,2): F_1 = [-u1.1 + u2.2 - 2 lam_1] e(p1.1)
    word = good_word(A2)
    assert build_F(word, 1) == expand_bracket(
        bracket(l_alpha={1: -1, 0: 1}, l_ell={1: -2}, shift={1: 1})
    )
    # F_2 = [-u2.1 + u1.1 - 2u2.2 - 2 lam_2] e(p2.1) + [-u2.2 - 2 lam_2] e(p2.2)
    assert build_F(word, 2) == operator_from_brackets(
        [
            bracket(l_alpha={2: -1, 1: 1, 0: -2}, l_ell={2: -2}, shift={2: 1}),
            bracket(l_alpha={0: -1}, l_ell={2: -2}, shift={0: 1}),
        ]
    )


def test_build_rep_term_counts():
    rep = build_rep(A2, good_word(A2))
    assert [term_count(rep.gens[i].E) for i in A2.labels] == [2, 1]
    rep4 = build_rep(D4, good_word(D4))
    assert [term_count(rep4.gens[i].E) for i in D4.labels] == [5, 5, 3, 1]


@pytest.mark.parametrize(
    "family,rank,word_of",
    [("E", 6, bad_word), ("D", 8, bad_word), ("E", 8, good_word)],
    ids=["E6 bad word", "D8 bad word", "E8 catalog word"],
)
def test_u_p_entries_stay_far_inside_their_fields(family, rank, word_of):
    # the headroom of the packed fields: every |entry| must stay below
    # SLOT_BIAS, which is 128 at 8-bit slots, and none here exceeds 2
    datum = build_cartan(family, rank)
    rep = build_rep(datum, word_of(datum))
    largest = max(abs(value) for _, op in rep.all_operators() for e in op.terms
                  for x in (e.alpha, e.gamma) for _, value in entries(x))
    assert largest == 2


def test_unit_coefficients():
    for datum in (A2, D4):
        rep = build_rep(datum, good_word(datum))
        for _, op in rep.all_operators():
            for mono in op.monomials():
                assert mono.coeff.is_unit_monomial()


def test_rendering():
    word = ReducedWord(A3, (3, 2, 1, 3, 2, 3))
    rep = build_rep(A3, word)
    assert operator_text(rep.gens[3].E, word) == "[u3.1] e(-p3.1)"
    assert operator_text(build_F(W1, 1), W1) == "[-u1.1 - 2L1] e(p1.1)"
    assert operator_text(QOperator(), W1) == "0"


def test_classical_render():
    word = ReducedWord(A3, (3, 2, 1, 3, 2, 3))
    rep = build_rep(A3, word)
    text = classical_render(rep.gens[3].E, word)
    assert text == "(1 + u3.1) f(u3.1 + 1)"
    assert classical_render(QOperator(), word) == ""
    f_text = classical_render(build_F(W1, 1), W1)
    assert f_text == "(1 - u1.1 - 2L1) f(u1.1 - 1)"


PAST_A2 = r"u/p entry -2 at position 3 lies past the 3 positions of the word"


@pytest.mark.parametrize(
    "op",
    [build_F(good_word(A3), 3), QOperator.monomial(exponent({0: 1}, {3: -2}))],
    ids=["brackets", "monomials"],
)
def test_operator_text_rejects_an_entry_past_the_word(op):
    with pytest.raises(ValueError, match=PAST_A2):
        operator_text(op, good_word(A2))


def test_classical_render_rejects_an_entry_past_the_word():
    with pytest.raises(ValueError, match=PAST_A2):
        classical_render(build_F(good_word(A3), 3), good_word(A2))


def test_build_rep_rejects_a_word_over_another_datum():
    with pytest.raises(ValueError, match=r"the word is over D_5 with .*, not over D_4 with"):
        build_rep(D4, good_word(build_cartan("D", 5)))


def test_build_rep_rejects_a_flipped_datum():
    with pytest.raises(
        ValueError,
        match=r"the word is over D_4 with bipartition \{0: 0, 1: 0, 2: 1, 3: 0\}, "
        r"not over D_4 with bipartition \{0: 1, 1: 1, 2: 0, 3: 1\}",
    ):
        build_rep(flipped(D4), good_word(D4))


# ---------------------------------------------------------------------------
# The packed one-pass builders against the O(n*N) builders they replaced.
# ---------------------------------------------------------------------------

def _f_brackets_oracle(word, i):
    """F_i's brackets, segment by segment: the weight of i.k holds u at
    i.k, -2u at each of i.k, ..., i.n and +u at each letter adjacent to i
    between consecutive occurrences, from i.k to the start of the word."""
    letters = word.letters
    at = {label: t for t, label in enumerate(lusztig_labels(word))}
    pos = [at[i, k] for k in range(1, word.letters.count(i) + 1)]  # pos[k-1]: i.k
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


def _build_K_oracle(word, i):
    datum = word.datum
    alpha = {t: -datum.a(i, j) for t, j in enumerate(word.letters) if datum.a(i, j)}
    return QOperator.monomial(exponent(alpha, ell={i: -2}))


def _walk(word, rng, moves=40):
    for _ in range(moves):
        word = apply_move(word, rng.choice(sorted(available_moves(word))))
    return word


ORACLE_TYPES = (
    [("A", r) for r in range(2, 7)] + [("D", r) for r in range(4, 9)] + [("E", r) for r in (6, 7, 8)]
)


def _oracle_words():
    rng = random.Random(1401)
    for family, rank in ORACLE_TYPES:
        datum = build_cartan(family, rank)
        word = good_word(datum)
        yield f"{family}{rank}.good", word
        for k in range(2):
            word = _walk(word, rng)
            yield f"{family}{rank}.walk{k}", word
    for family, rank in (("E", 6), ("D", 5), ("D", 8)):
        yield f"{family}{rank}.bad", bad_word(build_cartan(family, rank))


ORACLE_WORDS = dict(_oracle_words())


@pytest.mark.parametrize("word", ORACLE_WORDS.values(), ids=ORACLE_WORDS.keys())
def test_packed_builders_match_the_oracles(word):
    check_longest(word)
    for i in word.datum.labels:
        terms = f_brackets(word, i)
        oracle = _f_brackets_oracle(word, i)
        assert terms == oracle
        assert build_F(word, i) == operator_from_brackets(oracle)
        assert build_K(word, i) == _build_K_oracle(word, i)
        for term in terms:
            assert all(-2 <= c <= 1 for _, c in entries(term.l_alpha))
            assert dict(entries(term.l_alpha))[entries(term.shift)[0][0]] == -1
