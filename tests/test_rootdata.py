import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from posrep import rootdata
from posrep.rootdata import (
    UnsupportedTypeError,
    build_cartan,
    integer_echelon,
    is_positive,
    langlands_b_vectors,
    positive_root_count,
    positive_roots,
    right_descents,
    weyl_from_word,
    weyl_right_mul,
)
from posrep.words import _greedy_word, good_word
from conftest import flipped

ALL_TYPES = [("A", n) for n in range(1, 6)] + [("D", 4), ("D", 5), ("E", 6), ("E", 7), ("E", 8)]


def test_a2_matrix():
    datum = build_cartan("A", 2)
    assert datum.cartan_matrix() == ((2, -1), (-1, 2))


def test_d4_fork():
    datum = build_cartan("D", 4)
    assert {j for j in datum.labels if datum.adjacent(2, j)} == {0, 1, 3}
    assert {j for j in datum.labels if datum.adjacent(0, j)} == {2}


def test_e6_fork():
    datum = build_cartan("E", 6)
    assert {j for j in datum.labels if datum.adjacent(0, j)} == {3}
    assert {j for j in datum.labels if datum.adjacent(3, j)} == {0, 2, 4}


@pytest.mark.parametrize("family,rank", ALL_TYPES)
def test_matrix_invariants(family, rank):
    datum = build_cartan(family, rank)
    a = datum.cartan_matrix()
    for i in range(rank):
        assert a[i][i] == 2
        for j in range(rank):
            if i != j:
                assert a[i][j] in (0, -1)
                assert a[i][j] == a[j][i]


@pytest.mark.parametrize("family,rank", ALL_TYPES)
def test_cartan_table_matches_edges(family, rank):
    datum = build_cartan(family, rank)
    for i in datum.labels:
        for j in datum.labels:
            edge = frozenset((i, j)) in datum.edges
            assert datum.adjacent(i, j) == edge
            assert datum.a(i, j) == (2 if i == j else -1 if edge else 0)
    assert not datum.adjacent(datum.labels[0], 99)


def test_cartan_datum_equality_ignores_the_table():
    a, b = build_cartan("E", 6), build_cartan("E", 6)
    assert a == b and hash(a) == hash(b)
    assert a != flipped(a)
    assert "_cartan" not in repr(a) and "label_set" not in repr(a)
    assert hash(a) == hash((a.family, a.rank, a.labels, a.edges, a.bipartition))


@pytest.mark.parametrize("family,rank", [("A", 0), ("D", 3), ("E", 5), ("E", 9), ("B", 2)])
def test_unsupported_types(family, rank):
    with pytest.raises(UnsupportedTypeError):
        build_cartan(family, rank)


@pytest.mark.parametrize(
    "family,rank,count",
    [("A", 3, 6), ("A", 4, 10), ("D", 4, 12), ("D", 5, 20), ("E", 6, 36), ("E", 7, 63), ("E", 8, 120)],
)
def test_positive_root_counts(family, rank, count):
    assert positive_root_count(build_cartan(family, rank)) == count


def _reflection_closure(datum) -> tuple[tuple[int, ...], ...]:
    """The positive roots by breadth-first closure of the simple roots under
    the simple reflections (the package's former root routine)."""

    def reflect(label, vec):
        c = sum(datum.a(label, j) * vec[k] for k, j in enumerate(datum.labels))
        i = datum.index(label)
        return tuple(v - c if k == i else v for k, v in enumerate(vec))

    roots = {tuple(int(j == i) for j in datum.labels) for i in datum.labels}
    frontier = set(roots)
    while frontier:
        new = set()
        for vec in frontier:
            for i in datum.labels:
                img = reflect(i, vec)
                if is_positive(img) and img not in roots:
                    new.add(img)
        roots |= new
        frontier = new
    return tuple(sorted(roots))


ROOT_TYPES = (
    [("A", n) for n in range(1, 9)] + [("D", n) for n in range(4, 10)]
    + [("E", 6), ("E", 7), ("E", 8)]
)


@pytest.mark.parametrize("family,rank", ROOT_TYPES)
def test_positive_roots_match_the_reflection_closure(family, rank):
    datum = build_cartan(family, rank)
    assert positive_roots(datum) == _reflection_closure(datum)


@pytest.mark.parametrize("family,rank", ROOT_TYPES)
def test_longest_element(family, rank):
    datum = build_cartan(family, rank)
    w0 = weyl_from_word(datum, good_word(datum).letters)
    # w0 sends every simple root negative, and its length is the root count
    assert right_descents(datum, w0) == list(datum.labels)
    assert len(_greedy_word(datum, w0)) == positive_root_count(datum)


@pytest.mark.parametrize("family,rank", ALL_TYPES)
def test_bipartition_proper(family, rank):
    datum = build_cartan(family, rank)
    assert datum.n_weight(datum.labels[0]) == 0
    for datum in (datum, flipped(datum)):
        for i in datum.labels:
            assert datum.n_weight(i) in (0, 1)
            for j in datum.labels:
                if datum.adjacent(i, j):
                    assert abs(datum.n_weight(i) - datum.n_weight(j)) == 1


def test_b_vectors_small():
    assert langlands_b_vectors(build_cartan("A", 1)) == [(Fraction(1, 2),)]
    assert langlands_b_vectors(build_cartan("A", 2)) == [
        (Fraction(2, 3), Fraction(1, 3)),
        (Fraction(1, 3), Fraction(2, 3)),
    ]


def test_b_vectors_reject_a_wrong_echelon_form(monkeypatch):
    # one L-column entry of row 0 off by one: b^0 no longer solves A b = e_0
    def skewed(rows):
        echelon, pivots = integer_echelon(rows)
        n = len(echelon)
        echelon[0][n] = echelon[0].get(n, 0) + 1
        return echelon, pivots

    monkeypatch.setattr(rootdata, "integer_echelon", skewed)
    with pytest.raises(ArithmeticError, match="does not solve"):
        langlands_b_vectors(build_cartan("A", 3))


@pytest.mark.parametrize("family,rank", ALL_TYPES)
def test_b_vectors_defining_equation(family, rank):
    datum = build_cartan(family, rank)
    a = datum.cartan_matrix()
    for k, b in enumerate(langlands_b_vectors(datum)):
        for i in range(rank):
            assert sum(a[i][j] * b[j] for j in range(rank)) == (1 if i == k else 0)


def _row_reduce_oracle(rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Dense fraction-free Gauss-Jordan elimination (the package's former
    rank routine): ``len(pivots)`` is the rank over Q."""

    def primitive(row: list[int]) -> list[int]:
        g = gcd(*row)
        return row if g <= 1 else [x // g for x in row]

    rows = [primitive(list(row)) for row in rows if any(row)]
    cols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    for c in range(cols):
        r = len(pivots)
        piv = next((k for k in range(r, len(rows)) if rows[k][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        prow = rows[r]
        p = prow[c]
        for k, row in enumerate(rows):
            f = row[c]
            if k != r and f:
                rows[k] = primitive([p * x - f * y for x, y in zip(row, prow)])
        pivots.append(c)
    return rows[: len(pivots)], pivots


def _sparse(row) -> dict[int, int]:
    return {c: x for c, x in enumerate(row) if x}


def _residue(row: dict, echelon: list[dict], pivots: list[int]) -> dict:
    """``row`` reduced in Q against the echelon rows, pivot by pivot."""
    row = {c: Fraction(x) for c, x in row.items()}
    for prow, c in zip(echelon, pivots):
        f = Fraction(row.get(c, 0), prow[c])
        for k, y in prow.items():
            row[k] = row.get(k, 0) - f * y
    return {c: x for c, x in row.items() if x}


def _check_echelon(rows: list[list[int]]) -> list[int]:
    echelon, pivots = integer_echelon([_sparse(row) for row in rows])
    assert len(pivots) == len(_row_reduce_oracle(rows)[1])
    assert all(a < b for a, b in zip(pivots, pivots[1:]))
    for prow, c in zip(echelon, pivots):
        assert min(prow) == c and prow[c] > 0 and 0 not in prow.values()
        assert gcd(*prow.values()) == 1
    for row in rows:
        assert _residue(_sparse(row), echelon, pivots) == {}
    return pivots


def test_integer_echelon():
    rows = [[2, 4, 6], [0, 0, 0], [1, 2, 3], [0, 3, 3], [1, -1, 0]]
    assert _check_echelon(rows) == [0, 1]
    echelon, _ = integer_echelon([_sparse(row) for row in rows])
    assert echelon == [{0: 1, 1: -1}, {1: 1, 2: 1}]  # sparsest row first
    assert integer_echelon([]) == ([], [])
    assert integer_echelon([{0: 0, 1: 0}]) == ([], [])
    # a negative leading entry is made positive; the input dicts are not touched
    row = {3: -4, 5: 6}
    assert integer_echelon([row]) == ([{3: 2, 5: -3}], [3])
    assert row == {3: -4, 5: 6}
    # full column rank after two rows: the rest are spanned
    assert _check_echelon([[1, 0], [0, 1], [5, 7], [0, 0], [-3, 2]]) == [0, 1]


# small entries (zeros among them) twice as often as large ones of either sign
matrix_entries = st.one_of(
    st.integers(-3, 3), st.integers(-3, 3), st.integers(-(10**12), 10**12),
)


@st.composite
def integer_matrices(draw):
    """Tall or wide integer matrices with zero, duplicated and dependent rows."""
    cols = draw(st.integers(1, 9))
    rows = draw(st.lists(st.lists(matrix_entries, min_size=cols, max_size=cols), max_size=10))
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["zero", "copy", "combination"]))
        if kind == "zero" or not rows:
            extra = [0] * cols
        elif kind == "copy":
            extra = list(draw(st.sampled_from(rows)))
        else:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(st.integers(-5, 5)), draw(st.integers(-5, 5))
            extra = [s * x + t * y for x, y in zip(a, b)]
        rows.insert(draw(st.integers(0, len(rows))), extra)
    return rows


@settings(max_examples=200, deadline=None)
@given(integer_matrices())
def test_integer_echelon_matches_the_dense_oracle(rows):
    _check_echelon(rows)


def test_longest_element_length():
    datum = build_cartan("A", 3)
    # the greedy reduced word has one letter per unit of length
    assert len(_greedy_word(datum, weyl_from_word(datum, (3, 2, 1, 3, 2, 3)))) == 6
    assert _greedy_word(datum, weyl_from_word(datum, (1, 1))) == []


def _full_row_right_mul(datum, w, label):
    """w * s_label with every image recomputed from the full Cartan row."""
    i = datum.index(label)
    return tuple(
        tuple(x - datum.a(label, j) * y for x, y in zip(w[k], w[i]))
        for k, j in enumerate(datum.labels)
    )


@pytest.mark.parametrize("family,rank", [("A", 5), ("D", 6), ("E", 8)])
def test_weyl_right_mul_matches_the_full_row(family, rank):
    datum = build_cartan(family, rank)
    rng = random.Random(rank)
    for _ in range(20):
        w = weyl_from_word(datum, [rng.choice(datum.labels) for _ in range(rng.randrange(40))])
        for label in datum.labels:
            assert weyl_right_mul(datum, w, label) == _full_row_right_mul(datum, w, label)
