import hashlib
import importlib
import itertools
import os
import random
import resource
from collections import Counter
from fractions import Fraction
from operator import itemgetter
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from posrep import qtorus, repbuild
from posrep.cli import main
from posrep.qtorus import (
    SLOT_BIAS,
    SLOT_BITS,
    QExponent,
    QOperator,
    SlotOverflowError,
    VLaurent,
    add,
    bracket,
    check_entry,
    entries,
    expand_bracket,
    exponent,
    field_bias,
    field_count,
    operator_from_brackets,
    pack,
    pack_entries,
    pairing_matrix,
    rebracket,
    unpack,
)
from posrep.repbuild import build_E, build_E_rightmost, build_F, build_K, build_rep
from posrep.rootdata import build_cartan
from posrep.transport import (
    NonPolynomialError,
    OddPairingError,
    TermBudgetError,
    _PIPELINE_CACHE,
    _Y_LOC,
    _Z_LOC,
    _braid_inplace,
    _braid_pipeline_loc,
    _conjugate_loc,
    _pack,
    _unpack,
    conjugation_factor,
    term_budget,
    transport,
    transport_bundle,
)
from posrep.words import (
    BraidMove,
    MoveError,
    ReducedWord,
    apply_move,
    available_moves,
    bad_word,
    braid_path,
    enumerate_words,
    good_word,
    path_to_word_ending_in,
    random_longest_words,
)

transport_module = importlib.import_module("posrep.transport")

TWO_Q = VLaurent.q_power(1) + VLaurent.q_power(-1)
# the A2 word whose braid frame is positions 0, 1, 2, and its one braid move
A2_WORD = ReducedWord(build_cartan("A", 2), (1, 2, 1))
BRAID_0 = [BraidMove(0, "braid")]


def test_conjugation_factor_table():
    assert conjugation_factor(0, "inner") == ((), ())
    assert conjugation_factor(2, "inner") == ((-1,), ())
    assert conjugation_factor(-2, "inner") == ((), (1,))
    assert conjugation_factor(2, "outer") == ((), (-1,))
    assert conjugation_factor(-2, "outer") == ((1,), ())
    assert conjugation_factor(4, "inner") == ((-1, -3), ())
    assert conjugation_factor(-4, "outer") == ((1, 3), ())
    with pytest.raises(OddPairingError):
        conjugation_factor(3, "inner")
    with pytest.raises(ValueError, match="unknown direction 'sideways'"):
        conjugation_factor(2, "sideways")


def test_quartic_factor_middle_coefficient():
    # (1 + q^-1 X)(1 + q^-3 X): the X coefficient is [2]_q * q^-2
    mid = VLaurent.q_power(-1) + VLaurent.q_power(-3)
    assert mid == TWO_Q * VLaurent.q_power(-2)


def test_single_braid_rule():
    # [w]e(-p_w) -> [u]e(-p_u - p_v + p_w) + [v - w]e(-p_v)
    op = expand_bracket(bracket(l_alpha={2: 1}, shift={2: -1}))
    out, _ = transport(op, A2_WORD, BRAID_0)
    assert out == operator_from_brackets(
        [
            bracket(l_alpha={0: 1}, shift={0: -1, 1: -1, 2: 1}),
            bracket(l_alpha={1: 1, 2: -1}, shift={1: -1}),
        ]
    )


def test_single_braid_involution():
    op = expand_bracket(bracket(l_alpha={2: 1}, shift={2: -1}))
    out, moved = transport(op, A2_WORD, BRAID_0)
    assert transport(out, moved, BRAID_0)[0] == op


def test_double_braid_expansion():
    # [w - u]e(p_v - p_w) picks up a [2]_q term through the quartic factors;
    # the naive doubled-variable quantization would miss the middle term.
    op = expand_bracket(bracket(l_alpha={0: -1, 2: 1}, shift={1: 1, 2: -1}))
    out, moved = transport(op, A2_WORD, BRAID_0)
    expected = operator_from_brackets(
        [
            bracket(l_alpha={1: 1, 2: -2}, shift={0: 1, 1: -1}),
            bracket(l_alpha={0: 1, 2: -1}, shift={1: -1, 2: 1}, scalar=TWO_Q),
            bracket(l_alpha={0: 2, 1: -1}, shift={0: -1, 1: -1, 2: 2}),
        ]
    )
    assert out == expected
    assert transport(out, moved, BRAID_0)[0] == op


def test_double_braid_output_pairings_even():
    op = expand_bracket(bracket(l_alpha={0: -1, 2: 1}, shift={1: 1, 2: -1}))
    expos = [m.expo for m in transport(op, A2_WORD, BRAID_0)[0].monomials()]
    for a, row in enumerate(pairing_matrix(expos, expos)):
        for b in range(a + 1, len(expos)):
            assert row[b] % 2 == 0


def test_frame_relabel_preserves_pairing():
    ops = [
        expand_bracket(bracket(l_alpha={2: 1}, shift={2: -1})),
        expand_bracket(bracket(l_alpha={0: 1, 1: -1}, l_ell={1: -2}, shift={1: 1})),
    ]
    before = [m.expo for op in ops for m in op.monomials()]
    after = [m.expo for op in ops for m in transport(op, A2_WORD, BRAID_0)[0].monomials()]
    # conjugation + relabeling is symplectic on these frames
    n = len(before)
    s_before, s_after = pairing_matrix(before, before), pairing_matrix(after, after)
    for a in range(n):
        for b in range(n):
            assert (s_before[a][b] - s_after[a][b]) % 2 == 0


def test_odd_pairing_rejected():
    op = QOperator.monomial(
        expand_bracket(bracket(l_alpha={2: 1}, shift={2: -1})).monomials()[0].expo
    )
    bad = QOperator.monomial(op.single_monomial().expo._replace(gamma=pack_entries({2: -2})))
    with pytest.raises(OddPairingError):
        transport(bad, A2_WORD, BRAID_0)


def test_unbalanced_sum_is_not_transportable():
    # one half of a transformed pair alone leaves a binomial denominator
    op = expand_bracket(bracket(l_alpha={2: 1}, shift={2: -1}))
    full, moved = transport(op, A2_WORD, BRAID_0)
    half = QOperator.monomial(full.monomials()[0].expo)
    with pytest.raises(NonPolynomialError):
        transport(half, moved, BRAID_0)


# ---------------------------------------------------------------------------
# The local pipeline's own images on a grid of small groups.
# ---------------------------------------------------------------------------

GRID = [loc for loc in itertools.product((-1, 0, 1), repeat=6) if any(loc)]
# sha256 of the images (or exception class names) of _grid_groups(), in order,
# as given by the pipeline that brought each conjugation over a common
# binomial denominator before dividing it out
PIPELINE_DIGEST = "c2df4f220e07369e34e0796d6753a701d04bf381e8723e038755514d707a74dc"


def _grid_groups() -> list[tuple]:
    """Each grid point alone, then each paired with each of the next 8 grid
    points at coefficients 1 and -1: 728 + 2 * 5788 groups."""
    one = VLaurent.one()
    groups = [((loc, one),) for loc in GRID]
    for i, loc in enumerate(GRID):
        for other in GRID[i + 1 : i + 9]:
            groups += [((loc, one), (other, one)), ((loc, one), (other, -one))]
    return groups


def test_pipeline_images_match_the_recorded_digest():
    digest, counts = hashlib.sha256(), Counter()
    for group in _grid_groups():
        try:
            image = _braid_pipeline_loc(group)
            text, kind = repr(sorted((loc, c.val, c.coeffs) for loc, c in image)), "image"
        except (NonPolynomialError, OddPairingError) as exc:
            text = kind = type(exc).__name__
        counts[kind] += 1
        digest.update(text.encode() + b"\n")
    assert counts == {"image": 1027, "OddPairingError": 9106, "NonPolynomialError": 2171}
    assert digest.hexdigest() == PIPELINE_DIGEST


def test_outer_conjugation_undoes_inner():
    one = VLaurent.one()
    undone = 0
    for x, loc in itertools.product((_Z_LOC, _Y_LOC), GRID):
        try:
            inner = _conjugate_loc({loc: one}, x, "inner")
        except (NonPolynomialError, OddPairingError):
            continue
        assert _conjugate_loc(inner, x, "outer") == {loc: one}
        undone += 1
    assert undone == 514


def test_commutation_move_involution():
    # the D4 catalog word: letters 0 and 1 commute at positions 0 and 8
    d4 = ReducedWord(build_cartan("D", 4), (0, 1, 2, 0, 1, 2, 3, 2, 0, 1, 2, 3))
    op = expand_bracket(bracket(l_alpha={0: 1, 3: -2}, shift={0: -1}))
    swapped, moved = transport(op, d4, [BraidMove(0, "commute")])
    assert swapped != op
    assert transport(swapped, moved, [BraidMove(0, "commute")])[0] == op
    # positions not involved are untouched
    assert transport(op, d4, [BraidMove(8, "commute")])[0] == op


def test_transport_empty_path():
    datum = build_cartan("A", 2)
    word = good_word(datum)
    op = expand_bracket(bracket(l_alpha={2: 1}, shift={2: -1}))
    out, back = transport(op, word, [])
    assert out == op and back.letters == word.letters


def test_transport_e2_across_braid():
    datum = build_cartan("A", 2)
    src = ReducedWord(datum, (2, 1, 2))
    dst = ReducedWord(datum, (1, 2, 1))
    op = build_E(src, 2)
    out, word = transport(op, src, braid_path(src, dst))
    assert word.letters == dst.letters
    assert out == operator_from_brackets(
        [
            bracket(l_alpha={0: 1}, shift={0: -1, 1: -1, 2: 1}),
            bracket(l_alpha={1: 1, 2: -1}, shift={1: -1}),
        ]
    )


@pytest.mark.parametrize("family,rank", [("A", 2), ("A", 3)])
def test_transported_f_and_k_match_direct(family, rank):
    datum = build_cartan(family, rank)
    words = enumerate_words(datum) if rank == 2 else enumerate_words(datum)[:6]
    base = good_word(datum)
    for target in words:
        path = braid_path(base, target)
        ops = [build(base, i) for i in datum.labels for build in (build_F, build_K)]
        outs, _ = transport_bundle(ops, base, path)
        assert list(outs) == [build(target, i) for i in datum.labels for build in (build_F, build_K)]


def test_commutation_move_matches_direct_build():
    datum = build_cartan("A", 3)
    src = ReducedWord(datum, (2, 1, 3, 2, 1, 3))
    dst = ReducedWord(datum, (2, 3, 1, 2, 1, 3))
    assert src.letters[1:3] == (1, 3) and dst.letters[1:3] == (3, 1)
    swap = [BraidMove(1, "commute")]
    for i in datum.labels:
        assert transport(build_F(src, i), src, swap) == (build_F(dst, i), dst)
        assert transport(build_E(src, i), src, swap) == (build_E(dst, i), dst)


E6_GREEDY = (3, 4, 2, 3, 1, 2, 0, 3, 4, 5, 4, 3, 2, 0, 3, 4, 1, 2, 3, 0,
             5, 4, 3, 2, 1, 5, 4, 3, 2, 5, 4, 3, 5, 4, 5, 0)


def test_budget_abort_names_peak_and_step(monkeypatch):
    monkeypatch.setenv("POSREP_MAX_TERMS", "500")
    word = ReducedWord(build_cartan("E", 6), E6_GREEDY)
    moves, end_word = path_to_word_ending_in(word, 3)
    op = build_E_rightmost(end_word, 3)
    trace: list = []
    with pytest.raises(TermBudgetError) as info:
        transport(op, end_word, reversed(moves), trace=trace)
    exc = info.value
    # the abort comes at the first step over budget, which the trace ends on
    assert exc.step == len(trace) - 1 > 0
    assert exc.peak == trace[-1][2] > 500
    assert all(n <= 500 for _, _, n in trace[:-1])
    move = trace[-1][0]
    assert str(exc) == (
        f"operator grew to {exc.peak} monomials at step {exc.step} "
        f"({move.kind}@{move.pos}; budget 500)"
    )


# ---------------------------------------------------------------------------
# Deferred relabel: transport keeps exponents in slot coordinates and only
# restores positions after the last move.
# ---------------------------------------------------------------------------

TYPES = [("D", 4), ("D", 5), ("E", 6)]


def _random_path(data, word: ReducedWord, length: int) -> tuple[list, ReducedWord]:
    path = []
    for _ in range(length):
        move = data.draw(st.sampled_from(sorted(available_moves(word))))
        path.append(move)
        word = apply_move(word, move)
    return path, word


def _random_case(data):
    family, rank = data.draw(st.sampled_from(TYPES))
    datum = build_cartan(family, rank)
    # D bad words blow up mildly, so braid frames there often straddle
    # other occupied slots once commutation moves have permuted them
    starts = [good_word(datum)] + ([bad_word(datum)] if family == "D" else [])
    start = data.draw(st.sampled_from(starts))
    start = _random_path(data, start, data.draw(st.integers(0, 30)))[1]
    kind = data.draw(st.sampled_from(["E", "F", "K"]))
    label = data.draw(st.sampled_from(datum.labels))
    op = {"E": build_E, "F": build_F, "K": build_K}[kind](start, label)
    path, end = _random_path(data, start, data.draw(st.integers(1, 25)))
    return op, start, path, end


def _slot_permutation(n: int, path) -> list[int]:
    slot = list(range(n))
    for move in path:
        if move.kind == "commute":
            slot[move.pos], slot[move.pos + 1] = slot[move.pos + 1], slot[move.pos]
    return slot


def _fold(op, word, path):
    """Apply a path one transport per move, carrying the word: each move
    relabels on its own, where ``transport`` relabels once for the path."""
    for move in path:
        op, word = transport(op, word, [move])
    return op


PROPERTY = settings(max_examples=30, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@PROPERTY
@given(st.data())
def test_transport_equals_fold_of_single_moves(data):
    op, start, path, end = _random_case(data)
    out, word = transport(op, start, path)
    assert word.letters == end.letters
    assert out == _fold(op, start, path)


@PROPERTY
@given(st.data())
def test_transport_there_and_back_is_exact(data):
    op, start, path, end = _random_case(data)
    assume(_slot_permutation(len(start), path) != list(range(len(start))))
    out_trace: list = []
    back_trace: list = []
    mid, word = transport(op, start, path, trace=out_trace)
    assert word.letters == end.letters
    back, home = transport(mid, end, reversed(path), trace=back_trace)
    assert home.letters == start.letters
    assert back == op
    # one trace step per move, every intermediate count within the budget,
    # and every traced word the word an apply_move replay reaches
    budget = term_budget()
    for trace, moves, first in ((out_trace, path, start), (back_trace, path[::-1], end)):
        assert [move for move, _, _ in trace] == moves
        assert all(0 < n <= budget for _, _, n in trace)
        replay = first
        for move, traced, _ in trace:
            replay = apply_move(replay, move)
            assert traced == replay
    assert word == end and home == start


@pytest.mark.parametrize(
    "bad",
    [BraidMove(1, "commute"), BraidMove(3, "braid"), BraidMove(11, "commute"),
     BraidMove(-1, "braid"), BraidMove(2, "swap")],
    ids=str,
)
def test_invalid_move_mid_path_raises_the_apply_move_error(bad):
    datum = build_cartan("D", 4)
    start = good_word(datum)
    op = build_F(start, 2)
    before = QOperator(dict(op.terms))
    valid = sorted(available_moves(start))[:2]
    word = start
    for move in valid:
        word = apply_move(word, move)
    with pytest.raises(MoveError) as expected:
        apply_move(word, bad)
    with pytest.raises(MoveError) as raised:
        transport(op, start, valid + [bad] + valid)
    assert str(raised.value) == str(expected.value)
    assert op == before


@pytest.mark.parametrize("rank", [5, 6])
def test_transport_equals_fold_on_d_bad_word(rank):
    # E2 on the D bad word: the transport that builds it moves braid frames
    # across slots that commutation moves have pulled apart
    word = bad_word(build_cartan("D", rank))
    moves, end_word = path_to_word_ending_in(word, 2)
    op = build_E_rightmost(end_word, 2)
    out, back = transport(op, end_word, reversed(moves))
    assert back.letters == word.letters
    assert out == _fold(op, end_word, reversed(moves))
    assert len(out) == {5: 94, 6: 328}[rank]
    assert transport(out, word, moves)[0] == op


# ---------------------------------------------------------------------------
# Packed slots: transport reads field k of the qtorus packing as slot k and
# permutes fields back into positions after the last move.
# ---------------------------------------------------------------------------

FIELD_MAX = SLOT_BIAS - 1
N_SLOTS = 12

field_values = st.one_of(
    st.sampled_from([FIELD_MAX, -FIELD_MAX, 1, -1]),
    st.integers(-FIELD_MAX, FIELD_MAX).filter(bool),
)
sparse_vecs = st.dictionaries(st.integers(0, N_SLOTS - 1), field_values, max_size=6)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(sparse_vecs, sparse_vecs, st.integers(-2, 2)), max_size=8),
    st.permutations(range(N_SLOTS)),
)
def test_pack_unpack_round_trip(parts, slot):
    for a, g, c in parts:
        e = exponent(a, g)
        assert (dict(entries(e.alpha)), dict(entries(e.gamma))) == (a, g)
    terms = {exponent(a, g): VLaurent(c, (1,)) for a, g, c in parts}
    assert _relabeled(terms, list(range(N_SLOTS))) == terms
    # under a slot permutation, position p reads the field of slot[p]
    position = {s: p for p, s in enumerate(slot)}

    def moved(x):
        return pack_entries({position[s]: v for s, v in entries(x)})

    assert _relabeled(terms, list(slot)) == {
        QExponent(moved(e.alpha), moved(e.gamma), e.ell): c for e, c in terms.items()
    }


def _relabeled(terms: dict, slot: list[int]) -> dict:
    """``terms`` packed with field p of each u/p part read from field
    slot[p], and unpacked again."""
    (out,) = _unpack(*_pack([terms], slot), 1)
    return out


def _dense_relabel(terms: dict, slot: list[int]) -> dict:
    """The relabel oracle: unpack every packed int to a dense row, permute
    the row with itemgetter and pack it again."""
    n = max([len(slot)] + [field_count(x) for key in terms for x in key[:2]])
    take = itemgetter(*slot, *range(len(slot), n))
    return {
        QExponent(pack(take(unpack(a, n))), pack(take(unpack(g, n))), ell): coef
        for (a, g, ell), coef in terms.items()
    }


@st.composite
def relabel_cases(draw):
    """A slot list of 2..120 slots and packed terms on a few more fields."""
    size = draw(st.integers(2, 120))
    slot = draw(st.one_of(st.just(list(range(size))), st.permutations(range(size))))
    vecs = st.dictionaries(st.integers(0, size + 3), field_values, max_size=8)
    parts = draw(st.lists(st.tuples(vecs, vecs, st.integers(-2, 2)), max_size=12))
    terms = {exponent(a, g): VLaurent(c, (1,)) for a, g, c in parts}
    return list(slot), terms


@settings(max_examples=100, deadline=None)
@given(relabel_cases(), st.sampled_from([1, 2, 3, qtorus._PERMUTE_BLOCK]))
def test_relabel_matches_the_dense_oracle(case, block):
    slot, terms = case
    expected = _dense_relabel(terms, slot)
    with mock.patch.object(qtorus, "_PERMUTE_BLOCK", block):
        assert _relabeled(terms, slot) == expected


def test_relabel_crosses_a_block_boundary():
    block = qtorus._PERMUTE_BLOCK
    slot = list(range(40))[::-1]
    # the low and high base-FIELD_MAX digits of k sit at positions k % 40
    # and 40 (the high one is 0 while k < FIELD_MAX): every u-part differs
    terms = {
        exponent(
            {k % 40: k % FIELD_MAX - FIELD_MAX, 40: k // FIELD_MAX, 41: -FIELD_MAX},
            {(7 * k) % 40: 1},
        ): VLaurent.one()
        for k in range(block + block // 2)
    }
    assert len({x for key in terms for x in key[:2]}) > block
    assert _relabeled(terms, slot) == _dense_relabel(terms, slot)
    assert _relabeled({}, slot) == {}


def test_pack_grows_to_the_highest_index():
    expo = exponent(alpha={7: -1, 0: 2}, gamma={2: 1})
    assert len(unpack(expo.alpha)) == 8 and unpack(expo.alpha)[7] == -1
    # fields past the slot list stay where they are
    out = _relabeled({expo: VLaurent.one()}, [1, 0, 2])
    assert out == {exponent(alpha={7: -1, 1: 2}, gamma={2: 1}): VLaurent.one()}


# The edges of the field and the edges of the former 16-bit field, which
# an 8-bit field must reject as well.
@pytest.mark.parametrize(
    "value", [SLOT_BIAS, -SLOT_BIAS, 3 * SLOT_BIAS, 1 << 15, -(1 << 15), 3 << 15]
)
def test_pack_rejects_entries_outside_the_field(value):
    with pytest.raises(SlotOverflowError):
        exponent(alpha={1: 1}, gamma={2: value})


# ---------------------------------------------------------------------------
# The braid kernel against the kernel it replaced, on slot-coordinate terms.
# ---------------------------------------------------------------------------

def _braid_oracle(terms: dict, frame: tuple[int, int, int]) -> None:
    """The previous braid kernel: every touched monomial is decoded and
    grouped in a list, the old keys are deleted after the scan, and every
    image is merged into ``terms`` (adding coefficients, dropping zeros)."""
    mask, bias = (1 << SLOT_BITS) - 1, SLOT_BIAS
    su, sv, sw = (SLOT_BITS * s for s in frame)
    frame_mask = (mask << su) | (mask << sv) | (mask << sw)
    frame_zero = (bias << su) | (bias << sv) | (bias << sw)
    read = field_bias(max(frame) + 1)
    groups: dict[tuple, list] = {}
    stale: list[tuple] = []
    for key, coef in terms.items():
        a, g, ell = key
        fa = (a + read) & frame_mask
        fg = (g + read) & frame_mask
        if fa == frame_zero and fg == frame_zero:
            continue
        loc = (
            ((fa >> su) & mask) - bias, ((fa >> sv) & mask) - bias, ((fa >> sw) & mask) - bias,
            ((fg >> su) & mask) - bias, ((fg >> sv) & mask) - bias, ((fg >> sw) & mask) - bias,
        )
        groups.setdefault((a - fa, g - fg, ell), []).append((loc, coef))
        stale.append(key)
    for key in stale:
        del terms[key]
    written: dict[tuple, list] = {}
    for (a, g, ell), pairs in groups.items():
        local = tuple(sorted(pairs))
        image = written.get(local)
        if image is None:
            result = _PIPELINE_CACHE.get(local)
            if result is None:
                result = _braid_pipeline_loc(local)
                for loc, _ in result:
                    for value in loc:
                        check_entry(value, "from a braid move")
                _PIPELINE_CACHE[local] = result
            image = written[local] = [
                (
                    ((au + bias) << su) + ((av + bias) << sv) + ((aw + bias) << sw),
                    ((gu + bias) << su) + ((gv + bias) << sv) + ((gw + bias) << sw),
                    coef,
                )
                for (au, av, aw, gu, gv, gw), coef in result
            ]
        for da, dg, coef in image:
            key = (a + da, g + dg, ell)
            prev = terms.get(key)
            if prev is None:
                terms[key] = coef
            else:
                total = prev + coef
                if total.coeffs:
                    terms[key] = total
                else:
                    del terms[key]


def _braid(terms: dict, frame: tuple[int, int, int]) -> dict:
    """``_braid_inplace`` on ``terms`` packed with the slot list the
    identity through the frame, unpacked again."""
    keyed, m, parts = _pack([terms], list(range(max(frame) + 1)))
    _braid_inplace(keyed, frame + tuple(s + m for s in frame))
    (out,) = _unpack(keyed, m, parts, 1)
    return out


def _local_groups() -> list[tuple]:
    """Local groups the pipeline accepts: each single monomial on the
    {-1, 0, 1} grid whose conjugations divide out, and its image."""
    groups = []
    for loc in itertools.product((-1, 0, 1), repeat=6):
        if not any(loc):
            continue
        single = ((loc, VLaurent.one()),)
        try:
            image = _braid_pipeline_loc(single)
        except (NonPolynomialError, OddPairingError):
            continue
        groups += [single, image]
    return groups


# the images of these two singletons share two terms, which cancel in
# their difference
CANCELLING = (((-1, 0, -1, -1, 1, 0), VLaurent.one()), ((0, -1, 0, 0, 1, -1), -VLaurent.one()))
LOCAL_GROUPS = _local_groups() + [CANCELLING]
UNTOUCHED = (((0,) * 6, VLaurent.one()),)
SCALES = [VLaurent.one(), -VLaurent.one(), VLaurent(-2, (1,)), TWO_Q, VLaurent(1, (3,))]


@st.composite
def braid_cases(draw):
    """A frame of three distinct slots in any order, a few remainders with
    fields around and past the frame, and parts placed on them: a local
    group (or an untouched monomial) times a scale, with coefficients
    that are shared objects or fresh equal ones."""
    frame = tuple(draw(st.lists(st.integers(0, 60), min_size=3, max_size=3, unique=True)))
    free = [k for k in range(max(frame) + 4) if k not in frame]
    vecs = st.dictionaries(st.sampled_from(free), field_values, max_size=4)
    ells = st.sampled_from([(), ((1, 2),)])
    remainders = draw(st.lists(st.tuples(vecs, vecs, ells), min_size=1, max_size=4))
    part = st.tuples(
        st.integers(0, len(remainders) - 1),
        st.one_of(st.just(UNTOUCHED), st.sampled_from(LOCAL_GROUPS)),
        st.integers(0, len(SCALES) - 1),
        st.booleans(),
    )
    return frame, remainders, draw(st.lists(part, max_size=8))


def _build(frame, remainders, parts) -> dict:
    """The terms of a case, built with new coefficient objects: one per
    value, or a fresh one for each monomial of a part marked fresh.  Parts
    on one remainder merge, so groups get several members and values
    repeat across remainders."""
    shared: dict[VLaurent, VLaurent] = {}
    terms: dict = {}
    for r, group, s, fresh in parts:
        ra, rg, ell = remainders[r]
        for loc, coef in group:
            value = coef * SCALES[s]
            value = VLaurent(value.val, value.coeffs) if fresh else shared.setdefault(value, value)
            alpha = {**ra, **dict(zip(frame, loc[:3]))}
            gamma = {**rg, **dict(zip(frame, loc[3:]))}
            key = exponent(alpha, gamma, ell)
            total = terms[key] + value if key in terms else value
            if total.coeffs:
                terms[key] = total
            else:
                del terms[key]
    return terms


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(braid_cases())
def test_braid_kernel_matches_the_oracle(case):
    expected = _build(*case)
    _braid_oracle(expected, case[0])
    assert _braid(_build(*case), case[0]) == expected


def test_braid_kernel_on_cancelling_and_repeated_values():
    frame = (9, 2, 30)
    remainders = [
        ({0: 5}, {}, ()), ({31: -FIELD_MAX}, {3: 1}, ((1, 2),)), ({}, {}, ()), ({}, {1: 2}, ()),
    ]
    parts = [
        (0, CANCELLING, 0, False), (1, CANCELLING, 0, False),  # one shared value, two remainders
        (2, CANCELLING, 0, True),                             # equal values, distinct objects
        (0, UNTOUCHED, 3, False), (3, LOCAL_GROUPS[0], 0, True),
    ]
    expected = _build(frame, remainders, parts)
    _braid_oracle(expected, frame)
    terms = _braid(_build(frame, remainders, parts), frame)
    assert terms == expected
    # the members' images share two terms, which cancel in each copy
    images = [_braid_pipeline_loc(((loc, VLaurent.one()),)) for loc, _ in CANCELLING]
    per_copy = len(images[0]) + len(images[1]) - 4
    lone = len(_braid_pipeline_loc(LOCAL_GROUPS[0]))
    assert len(terms) == 3 * per_copy + 1 + lone


def test_braid_images_that_meet_a_monomial_raise(monkeypatch):
    # a forged pipeline result sends the touched monomial onto the key of
    # the untouched one, which a true image never does
    loc = (0, 0, 1, 0, 0, 0)
    forged = {((loc, VLaurent.one()),): (((0,) * 6, VLaurent.one()),)}
    monkeypatch.setattr(transport_module, "_PIPELINE_CACHE", forged)
    terms = {
        exponent({5: 1}): VLaurent.one(),
        exponent({5: 1, 2: 1}): VLaurent.one(),
    }
    with pytest.raises(RuntimeError, match="braid images met existing monomials"):
        _braid(terms, (0, 1, 2))


def test_braid_output_outside_the_field_raises():
    # in range on the way in, but the braid image holds -SLOT_BIAS at u
    loc = (0, -FIELD_MAX, 0, -1, 0, -1)
    image = _braid_pipeline_loc(((loc, VLaurent.one()),))
    assert min(v for out, _ in image for v in out) == -SLOT_BIAS
    op = QOperator.monomial(exponent(alpha={0: 0, 1: -FIELD_MAX}, gamma={0: -1, 2: -1}))
    with pytest.raises(SlotOverflowError):
        transport(op, A2_WORD, BRAID_0)
    assert ((loc, VLaurent.one()),) not in _PIPELINE_CACHE


def test_overflow_exits_2_through_the_cli(capsys, monkeypatch):
    def out_of_range(word, i):
        last = len(word) - 1
        return QOperator.monomial(exponent(alpha={last: SLOT_BIAS}, gamma={last: -1}))

    monkeypatch.setattr(repbuild, "build_E_rightmost", out_of_range)
    assert main(["construct", "A", "2", "--gen", "E1"]) == 2
    err = capsys.readouterr().err
    assert err == (
        f"error: exponent entry {SLOT_BIAS} at position 2 does not fit a slot field of {SLOT_BITS} bits\n"
    )


@pytest.mark.skipif(os.environ.get("POSREP_LONG") != "1",
                    reason="the E7 bad word takes about 35 s and 0.3 GB; set POSREP_LONG=1")
def test_e7_bad_word_under_default_budget(e7_bad_word_e3):
    op = e7_bad_word_e3
    terms = rebracket(op)
    assert len(op) == 2 * len(terms)
    # the greedy bad word; criterion 7 records 77565 for another word
    assert len(terms) == 160957
    # ru_maxrss (KiB on Linux) is the peak of the whole process, so this
    # gate means what it says only in a process that builds nothing larger;
    # the other user of the fixture (criterion 7 on E7) holds no more
    assert resource.getrusage(resource.RUSAGE_SELF).ru_maxrss < 325 * 1024


# ---------------------------------------------------------------------------
# The slot start: transport writes its input in the slot order the path
# ends at, so the moves finish on the identity slot list.
# ---------------------------------------------------------------------------

def _mixed_path(word: ReducedWord, rng, length: int) -> list[BraidMove]:
    """A random path of ``length`` moves that holds both kinds."""
    path = []
    for _ in range(length):
        move = rng.choice(sorted(available_moves(word)))
        path.append(move)
        word = apply_move(word, move)
    assert {move.kind for move in path} == {"commute", "braid"}
    return path


@pytest.mark.parametrize(
    "bad",
    [BraidMove(11, "commute"), BraidMove(10**6, "commute"), BraidMove(-3, "commute"),
     BraidMove(0, "commute"), BraidMove(0, "braid")],
    ids=str,
)
def test_invalid_move_late_in_a_path_raises_at_its_step(bad):
    # 20 valid moves of both kinds, then the bad one, then more: the move
    # check raises the apply_move message at the bad move's step, after the
    # trace has recorded every step before it
    datum = build_cartan("D", 4)
    start = good_word(datum)
    rng = random.Random(3)
    valid = _mixed_path(start, rng, 20)
    word = start
    for move in valid:
        word = apply_move(word, move)
    with pytest.raises(MoveError) as expected:
        apply_move(word, bad)
    tail = _mixed_path(word, rng, 5) if bad.kind == "braid" else valid[:5]
    op = build_E(start, 2)
    before = QOperator(dict(op.terms))
    trace: list = []
    with pytest.raises(MoveError) as raised:
        transport(op, start, iter(valid + [bad] + tail), trace=trace)
    assert str(raised.value) == str(expected.value)
    assert [move for move, _, _ in trace] == valid
    assert op == before


def test_fields_past_the_word_stay_where_they_are():
    datum = build_cartan("D", 4)
    start = good_word(datum)
    n = len(start)
    path = _mixed_path(start, random.Random(4), 30)
    extra_a, extra_g = pack_entries({n: 3, n + 2: -5}), pack_entries({n + 1: 7})
    for build in (build_E, build_F, build_K):
        op = build(start, 2)
        lifted = QOperator({e._replace(alpha=e.alpha + extra_a, gamma=e.gamma + extra_g): c
                            for e, c in op.terms.items()})
        out, _ = transport(op, start, path)
        lifted_out, _ = transport(lifted, start, path)
        assert lifted_out == QOperator({e._replace(alpha=e.alpha + extra_a, gamma=e.gamma + extra_g): c
                                        for e, c in out.terms.items()})


@pytest.mark.parametrize("family,rank,seed", [("D", 5, 5), ("E", 6, 6), ("E", 7, 7)])
def test_transport_equals_the_step_by_step_composition(family, rank, seed):
    datum = build_cartan(family, rank)
    rng = random.Random(seed)
    start = good_word(datum)
    path = _mixed_path(start, rng, 60)
    for i in datum.labels[:3]:
        for build in (build_E, build_F, build_K):
            op = build(start, i)
            out, end = transport(op, start, path)
            assert out == _fold(op, start, path)
            assert out == build(end, i)


# ---------------------------------------------------------------------------
# One packed int per monomial: the u-part, the p-part and the index of the
# lambda part share a key, and each case below goes there and back exactly.
# ---------------------------------------------------------------------------

def _there_and_back(op, start, path):
    """``op`` moved along ``path`` and back, and the operator between."""
    mid, end = transport(op, start, path)
    back, home = transport(mid, end, reversed(path))
    assert home == start
    return mid, back


def test_distinct_lambda_parts_go_there_and_back():
    # lambda parts are central, so a sum over several moves part by part:
    # three copies of E2 (the empty part, negative values, Fractions) and
    # F1, whose two parts are negatives of each other
    datum = build_cartan("D", 4)
    start = good_word(datum)
    path = _mixed_path(start, random.Random(8), 30)
    ells = [(), ((0, -2), (3, 1)), ((1, Fraction(1, 3)), (2, Fraction(-5, 2)))]
    e2 = build_E(start, 2)
    parts = [QOperator({e._replace(ell=ell): c for e, c in e2.terms.items()}) for ell in ells]
    parts.append(build_F(start, 1))
    op = add(*parts)
    assert len({e.ell for e in op.terms}) == 5 and len(op) == sum(map(len, parts))
    mid, back = _there_and_back(op, start, path)
    assert back == op
    assert mid == add(*(transport(part, start, path)[0] for part in parts))


def test_entries_at_the_field_edges_go_there_and_back():
    # commutation moves relabel entries of any size; braid moves keep the
    # entries past the word as they are, the last one negative
    datum = build_cartan("D", 4)
    start = good_word(datum)
    n = len(start)
    edge = {0: FIELD_MAX, 1: -FIELD_MAX, 8: -FIELD_MAX, 9: FIELD_MAX}
    op = QOperator.monomial(exponent(edge, {0: -FIELD_MAX, 9: FIELD_MAX}, {1: -1}))
    swaps = [BraidMove(0, "commute"), BraidMove(8, "commute")]
    mid, back = _there_and_back(op, start, swaps)
    assert back == op
    assert mid == QOperator.monomial(
        exponent({1: FIELD_MAX, 0: -FIELD_MAX, 9: -FIELD_MAX, 8: FIELD_MAX},
                 {1: -FIELD_MAX, 8: FIELD_MAX}, {1: -1})
    )
    past_a = pack_entries({n: FIELD_MAX, n + 1: -FIELD_MAX})
    past_g = pack_entries({n: -FIELD_MAX, n + 2: -FIELD_MAX})
    lifted = QOperator({e._replace(alpha=e.alpha + past_a, gamma=e.gamma + past_g): c
                        for e, c in build_E(start, 2).terms.items()})
    assert _there_and_back(lifted, start, _mixed_path(start, random.Random(9), 30))[1] == lifted


def test_the_empty_operator_goes_there_and_back():
    start = good_word(build_cartan("E", 6))
    path = _mixed_path(start, random.Random(10), 20)
    mid, back = _there_and_back(QOperator(), start, path)
    assert mid == back == QOperator()


def test_fields_past_the_word_go_there_and_back_and_fail_to_render(capsys, monkeypatch):
    # E2 built on a word ending in 2 with an entry past the word: moved to
    # the catalog word and back it is exact, and construct names the entry
    datum = build_cartan("D", 4)
    start = good_word(datum)
    n = len(start)

    def past_the_word(word, i):
        op = build_E_rightmost(word, i)
        return QOperator({e._replace(gamma=e.gamma + pack_entries({n + 1: -3})): c
                          for e, c in op.terms.items()})

    moves, end_word = path_to_word_ending_in(start, 2)
    op = past_the_word(end_word, 2)
    assert _there_and_back(op, end_word, list(reversed(moves)))[1] == op
    monkeypatch.setattr(repbuild, "build_E_rightmost", past_the_word)
    assert main(["construct", "D", "4", "--gen", "E2"]) == 2
    assert capsys.readouterr().err == (
        f"error: u/p entry -3 at position {n + 1} lies past the {n} positions of the word\n"
    )


# ---------------------------------------------------------------------------
# Bundles: transport_bundle moves several operators along one path in one
# pass, and each output equals the operator's own transport.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("family,rank,seed", [("D", 5, 11), ("E", 6, 12)])
def test_bundle_of_every_generator_equals_the_per_operator_transport(family, rank, seed):
    datum = build_cartan(family, rank)
    start, target = random_longest_words(datum, 2, seed=seed)
    path = braid_path(start, target)
    ops = [op for _, op in build_rep(datum, start).all_operators()]
    outs, end = transport_bundle(ops, start, path)
    assert end == target
    assert list(outs) == [transport(op, start, path)[0] for op in ops]


def test_bundle_keeps_repeated_empty_and_differently_shaped_operators():
    # F2 twice (two equal outputs, not one merged sum), the empty operator,
    # E2 with Fraction lambda parts, and K1 lifted past the word, so the
    # bundle's field count is larger than the word's
    datum = build_cartan("D", 4)
    start = good_word(datum)
    n = len(start)
    path = _mixed_path(start, random.Random(21), 40)
    ell = ((1, Fraction(1, 3)), (2, Fraction(-5, 2)))
    e2 = QOperator({e._replace(ell=ell): c for e, c in build_E(start, 2).terms.items()})
    past = pack_entries({n + 3: -FIELD_MAX})
    k1 = QOperator({e._replace(alpha=e.alpha + past): c for e, c in build_K(start, 1).terms.items()})
    f2 = build_F(start, 2)
    ops = [f2, f2, QOperator(), e2, k1]
    outs, end = transport_bundle(ops, start, path)
    singles = [transport(op, start, path) for op in ops]
    assert outs == tuple(out for out, _ in singles)
    assert all(word == end for _, word in singles)
    assert outs[0] == outs[1] == build_F(end, 2) and outs[2] == QOperator()


def test_one_operator_and_empty_bundles():
    datum = build_cartan("E", 6)
    start = good_word(datum)
    path = _mixed_path(start, random.Random(22), 30)
    op = build_E(start, 3)
    out, end = transport(op, start, path)
    assert transport_bundle([op], start, path) == ((out,), end)
    assert transport_bundle((), start, path) == ((), end)
    # an empty bundle still checks its moves
    with pytest.raises(MoveError):
        transport_bundle((), start, path + [BraidMove(len(start), "braid")])


def test_budget_and_trace_count_the_whole_bundle():
    datum = build_cartan("D", 5)
    start = bad_word(datum)
    path = _mixed_path(start, random.Random(20), 40)
    ops = [build_E(start, 2), build_F(start, 3)]
    single_traces: list[list] = [[] for _ in ops]
    for op, single in zip(ops, single_traces):
        transport(op, start, path, trace=single)
    trace: list = []
    transport_bundle(ops, start, path, trace=trace)
    assert [(move, word) for move, word, _ in trace] == [(move, word) for move, word, _ in single_traces[0]]
    counts = [sum(step) for step in zip(*([n for _, _, n in t] for t in single_traces))]
    assert [n for _, _, n in trace] == counts
    # a budget that each operator keeps on its own and the bundle breaks
    budget = max(n for t in single_traces for _, _, n in t)
    for op in ops:
        transport(op, start, path, max_terms=budget)
    with pytest.raises(TermBudgetError) as info:
        transport_bundle(ops, start, path, max_terms=budget)
    step = next(k for k, n in enumerate(counts) if n > budget)
    assert (info.value.peak, info.value.step) == (counts[step], step)
