import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from posrep import verify
from posrep.qtorus import (
    MAX_COEFF_SPAN,
    SLOT_BIAS,
    SLOT_BITS,
    BracketTerm,
    CoefficientSpanError,
    QExponent,
    QMonomial,
    QOperator,
    RebracketError,
    SlotOverflowError,
    VLaurent,
    bracket,
    expand_bracket,
    entries,
    exponent,
    nested_q_commutator,
    operator_from_brackets,
    pack,
    pack_entries,
    pairing_matrix,
    q_commutator,
    rebracket,
    term_count,
    unpack,
)
from posrep.qtorus import (
    EXP_ONE, _Rows, _check_products, _dot, _monomial_name, _pairing_rows, _rows_of, canonical_order,
    field_count, permute_fields, sparse, sparse_add, sparse_neg, sparse_scale,
)
from posrep.repbuild import build_rep
from posrep.rootdata import build_cartan
from posrep.words import good_word

ONE = VLaurent.one()


def mono(alpha=(), gamma=(), ell=(), coeff=ONE):
    return QOperator({exponent(dict(alpha), dict(gamma), dict(ell)): coeff})


# ---------------------------------------------------------------------------
# coefficients
# ---------------------------------------------------------------------------

def test_vlaurent_normalization():
    assert VLaurent(0, (0, 1, 0)) == VLaurent(1, (1,))
    assert VLaurent(3, ()) == VLaurent.zero()
    assert not VLaurent.zero()
    assert VLaurent.q_power(1) == VLaurent(2, (1,))


def test_vlaurent_arithmetic():
    two_q = VLaurent.q_power(1) + VLaurent.q_power(-1)
    assert two_q.fmt_q() == "q + q^-1"
    assert (two_q * VLaurent(3, (1,))).val == 1
    assert two_q - two_q == VLaurent.zero()
    assert VLaurent(1, (1,)) * VLaurent(-1, (1,)) == ONE


@settings(deadline=None)
@given(st.lists(st.tuples(st.integers(-4, 4), st.integers(-3, 3)), max_size=4),
       st.lists(st.tuples(st.integers(-4, 4), st.integers(-3, 3)), max_size=4))
def test_vlaurent_mul_commutative(a, b):
    pa = sum((VLaurent(e, (c,)) for e, c in a), VLaurent.zero())
    pb = sum((VLaurent(e, (c,)) for e, c in b), VLaurent.zero())
    assert pa * pb == pb * pa


# ---------------------------------------------------------------------------
# lambda parts against a dense dict oracle
# ---------------------------------------------------------------------------

lam_values = st.one_of(
    st.integers(-3, 3), st.sampled_from([Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2), Fraction(-5, 4)])
)
lam_dicts = st.dictionaries(st.integers(0, 6), lam_values, max_size=5)


def _assert_sparse(vec, expected: dict):
    # the nonzero entries, labels sorted, integral values as ints
    assert vec == tuple(sorted((k, v) for k, v in expected.items() if v != 0))
    assert all(v.__class__ is int for _, v in vec if Fraction(v).denominator == 1)


@settings(deadline=None)
@given(lam_dicts, lam_dicts, st.booleans(), lam_values)
def test_sparse_helpers_match_a_dense_oracle(a, b, cancel, c):
    if cancel:  # b cancels a at its even labels, so those sums drop out
        b.update({k: -v for k, v in a.items() if k % 2 == 0})
    sa, sb = sparse(a), sparse(b)
    _assert_sparse(sa, a)
    _assert_sparse(sparse_add(sa, sb), {k: a.get(k, 0) + b.get(k, 0) for k in {*a, *b}})
    _assert_sparse(sparse_neg(sa), {k: -v for k, v in a.items()})
    _assert_sparse(sparse_scale(sa, c), {k: c * v for k, v in a.items()})


def test_sparse_sums_that_cancel_or_become_integral():
    half = sparse({1: Fraction(1, 2), 2: Fraction(1, 2)})
    assert sparse_add(half, sparse_neg(half)) == ()
    assert sparse_add(half, half) == ((1, 1), (2, 1)) and type(sparse_add(half, half)[0][1]) is int
    assert sparse_scale(half, 0) == () and sparse_scale(half, Fraction(4)) == ((1, 2), (2, 2))
    assert type(sparse_scale(half, 4)[0][1]) is int


# ---------------------------------------------------------------------------
# commutation exponents and the multiplication cocycle
# ---------------------------------------------------------------------------

def test_commutation_exponent_basic():
    u = exponent(alpha={0: 1})
    p2 = exponent(gamma={0: 1})           # e^{2 pi b p}
    ubar = exponent(alpha={0: 2})
    (u_p2, u_u), (ubar_p2, _) = pairing_matrix([u, ubar], [p2, u])
    assert u_p2 == 1
    # full torus pair: e^{2 pi b u} and e^{2 pi b p} q^2-commute
    assert ubar_p2 == 2
    assert u_u == 0


def test_mul_cocycle():
    # e^{pi b u} * e^{2 pi b p} = q^{1/2} e^{pi b(u + 2p)}
    out = mono(alpha={0: 1}) * mono(gamma={0: 1})
    assert out == mono(alpha={0: 1}, gamma={0: 1}, coeff=VLaurent(1, (1,)))


def test_identity_neutral():
    m = mono(alpha={0: 1, 2: -1}, gamma={1: 2}, ell={1: Fraction(-2)})
    assert QOperator.one() * m == m
    assert m * QOperator.one() == m


def test_mul_vs_commutation_consistency():
    m1 = mono(alpha={0: 1, 1: -2}, gamma={0: -1})
    m2 = mono(alpha={1: 1}, gamma={0: 1, 1: 1})
    [[s]] = pairing_matrix([m1.single_monomial().expo], [m2.single_monomial().expo])
    assert m1 * m2 == (m2 * m1).scale_v(2 * s)


small_vec = st.dictionaries(st.integers(0, 3), st.integers(-2, 2), max_size=3)


@settings(deadline=None)
@given(small_vec, small_vec, small_vec, small_vec, small_vec, small_vec)
def test_mul_associative(a1, g1, a2, g2, a3, g3):
    m1, m2, m3 = (mono(alpha=a, gamma=g) for a, g in ((a1, g1), (a2, g2), (a3, g3)))
    assert (m1 * m2) * m3 == m1 * (m2 * m3)


@settings(deadline=None)
@given(small_vec, small_vec, small_vec, small_vec)
def test_pairing_antisymmetric(a1, g1, a2, g2):
    e1, e2 = exponent(a1, g1), exponent(a2, g2)
    (_, s12), (s21, _) = pairing_matrix([e1, e2], [e1, e2])
    assert s12 == -s21


@settings(deadline=None)
@given(small_vec, small_vec, small_vec, small_vec, small_vec, small_vec)
def test_pairing_bilinear(a1, g1, a2, g2, a3, g3):
    e1, e2, e3 = exponent(a1, g1), exponent(a2, g2), exponent(a3, g3)
    e23 = (QOperator.monomial(e2) * QOperator.monomial(e3)).single_monomial().expo
    [(s2, s3, s23)] = pairing_matrix([e1], [e2, e3, e23])
    assert s23 == s2 + s3


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------

def test_zero_and_cancellation():
    m = mono(alpha={0: 1})
    assert (m - m).is_zero()
    assert q_commutator(m, m).is_zero()


def test_sum_order_independent():
    parts = [mono(alpha={0: 1}), mono(gamma={1: -1}), mono(alpha={0: 1}, coeff=VLaurent(2, (1,)))]
    fwd = parts[0] + parts[1] + parts[2]
    rev = parts[2] + parts[1] + parts[0]
    assert fwd == rev
    assert len(fwd) == 2


def test_canonical_order_deterministic():
    op = mono(alpha={0: -1}) + mono(alpha={0: 1}) + mono(gamma={0: 1})
    # dense order on (alpha, gamma): u-entry -1, then 0 (with gamma 1), then 1
    listed = [(entries(m.expo.alpha), entries(m.expo.gamma)) for m in op.monomials()]
    assert listed == [(((0, -1),), ()), ((), ((0, 1),)), (((0, 1),), ())]


def _dense(vec, width=6):
    row = [0] * width
    for k, v in vec:
        row[k] = v
    return row


FIELD_MAX = SLOT_BIAS - 1
field_values = st.one_of(
    st.sampled_from([FIELD_MAX, -FIELD_MAX, 1, -1, 0]), st.integers(-FIELD_MAX, FIELD_MAX)
)
packed_dicts = st.dictionaries(st.integers(0, 5), field_values, max_size=4)
ell_dicts = st.dictionaries(
    st.integers(0, 5), st.sampled_from([-2, -1, 1, 2, Fraction(1, 2), Fraction(-3, 2)]), max_size=4
)


@settings(deadline=None)
@given(st.lists(st.tuples(packed_dicts, packed_dicts, ell_dicts), max_size=12))
def test_canonical_order_is_dense_lexicographic(parts):
    # monomials() lists exponents by (alpha, gamma, ell), each part
    # compared as a dense vector with missing entries 0
    dense = {
        exponent(a, g, l): (_dense(a.items()), _dense(g.items()), _dense(l.items()))
        for a, g, l in parts
    }
    op = QOperator({e: ONE for e in dense})
    assert [m.expo for m in op.monomials()] == sorted(op.terms, key=dense.__getitem__)
    assert op.exponents() is op.exponents()  # sorted once per operator


@settings(max_examples=100, deadline=None)
@given(st.lists(field_values, max_size=40))
def test_pack_unpack_dense_rows(row):
    x = pack(row)
    assert x == sum(v << (SLOT_BITS * k) for k, v in enumerate(row))  # signed-linear
    assert unpack(x, len(row)) == tuple(row)
    last = max((k for k, v in enumerate(row) if v), default=-1)
    assert unpack(x)[: last + 1] == tuple(row[: last + 1]) and not any(unpack(x)[last + 1:])
    assert entries(x) == tuple((k, v) for k, v in enumerate(row) if v)
    assert pack_entries(dict(entries(x))) == x
    assert unpack(-x, len(row)) == tuple(-v for v in row)


# The edges of the field and the edges of the former 16-bit field, which
# an 8-bit field must reject as well.
@pytest.mark.parametrize(
    "value", [SLOT_BIAS, -SLOT_BIAS, 3 * SLOT_BIAS, 1 << 15, -(1 << 15), 3 << 15]
)
def test_pack_rejects_out_of_range_entries(value):
    with pytest.raises(SlotOverflowError, match=f"exponent entry {value} at position 2"):
        pack([0, 1, value])


@pytest.mark.parametrize("value", [1.0, Fraction(1, 2), "1", None])
def test_pack_rejects_non_integer_entries(value):
    with pytest.raises(ValueError, match="must be integers"):
        pack_entries({3: value})


def test_malformed_operands_raise():
    with pytest.raises(ValueError, match="negative position -1"):
        pack_entries({-1: 1})
    with pytest.raises(TypeError):
        hash(QOperator())
    with pytest.raises(ValueError, match="must not be identically zero"):
        expand_bracket(BracketTerm(ONE, 0, (), 0))
    with pytest.raises(ValueError, match="found 0"):
        QOperator().single_monomial()


laurent = st.lists(st.tuples(st.integers(-4, 4), st.integers(-3, 3)), min_size=1, max_size=3).map(
    lambda pairs: sum((VLaurent(e, (c,)) for e, c in pairs), VLaurent.zero())
)
monomial = st.builds(
    lambda a, g, l, c: QMonomial(exponent(a, g, l), c),
    small_vec, small_vec, st.dictionaries(st.integers(1, 2), st.integers(-2, 2), max_size=2), laurent,
)
operator = st.lists(monomial, max_size=4).map(QOperator.from_monomials)


@settings(deadline=None)
@given(operator, operator, st.integers(-6, 6))
def test_q_commutator_matches_products(x, y, t):
    assert q_commutator(x, y, t) == x * y - (y * x).scale_v(t)


# ---------------------------------------------------------------------------
# the pairing kernel against a dense-row oracle
# ---------------------------------------------------------------------------

WIDTH = 6
small_entries = st.dictionaries(st.integers(0, 2), st.integers(-3, 3), max_size=3)
edge_values = st.sampled_from([FIELD_MAX, -FIELD_MAX, FIELD_MAX - 1, 1, -1])


def _kernel_dicts(edge_positions):
    # entries near the field limit sit where the other part is zero, so
    # they reach every overflow check while the exponents s stay small
    # (v**s is a dense Laurent polynomial)
    return st.tuples(small_entries, st.dictionaries(st.sampled_from(edge_positions), edge_values)).map(
        lambda parts: {k: v for part in parts for k, v in part.items() if v}
    )


kernel_ells = st.dictionaries(st.integers(1, 2), st.sampled_from([-2, 1, Fraction(1, 2), Fraction(-3, 2)]),
                              max_size=2)
kernel_ops = st.lists(
    st.tuples(_kernel_dicts([3, 4]), _kernel_dicts([5]), kernel_ells, laurent.filter(bool)),
    max_size=4,
    unique_by=lambda m: tuple(frozenset(d.items()) for d in m[:3]),
)


def _operator(parts):
    return QOperator({exponent(a, g, l): c for a, g, l, c in parts})


def _pairing(a1, g1, a2, g2):
    return sum(a1[k] * g2[k] - g1[k] * a2[k] for k in range(WIDTH))


def _oracle(xparts, yparts, twist):
    """x*y (twist None) or x*y - v**twist * y*x from dense rows; None when
    some exponent sum has an entry outside its field."""
    out = []
    for a1, g1, l1, c1 in xparts:
        for a2, g2, l2, c2 in yparts:
            ra1, rg1, ra2, rg2 = (_dense(d.items(), WIDTH) for d in (a1, g1, a2, g2))
            s = _pairing(ra1, rg1, ra2, rg2)
            f = VLaurent(s, (1,))
            if twist is not None:
                f = f - VLaurent(twist - s, (1,))
            rows = [p + q for p, q in zip(ra1, ra2)], [p + q for p, q in zip(rg1, rg2)]
            ell = {j: l1.get(j, 0) + l2.get(j, 0) for j in {*l1, *l2}}
            out.append((rows, ell, c1 * c2 * f))
    if any(abs(v) >= SLOT_BIAS for rows, _, _ in out for row in rows for v in row):
        return None
    return QOperator.from_monomials(
        (exponent(dict(enumerate(ra)), dict(enumerate(rg)), ell), c) for (ra, rg), ell, c in out
    )


@settings(max_examples=100, deadline=None)
@given(kernel_ops, kernel_ops, st.one_of(st.none(), st.integers(-6, 6)))
def test_pairing_kernel_matches_dense_oracle(xparts, yparts, twist):
    x, y = _operator(xparts), _operator(yparts)
    expected = _oracle(xparts, yparts, twist)
    if expected is None:
        with pytest.raises(SlotOverflowError):
            x * y if twist is None else q_commutator(x, y, twist)
    elif twist is None:
        assert x * y == expected
    else:
        assert q_commutator(x, y, twist) == expected


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(packed_dicts, packed_dicts), max_size=8),
       st.lists(st.tuples(packed_dicts, packed_dicts), max_size=8))
def test_pairing_matrix_matches_dense_oracle(xparts, yparts):
    # full-range entries: l1(x) * bound(y) is at most 8 * FIELD_MAX**2, so
    # the packed columns reach 32-bit fields at 8-bit slots, no wider
    xrows, yrows = ([(_dense(a.items(), WIDTH), _dense(g.items(), WIDTH)) for a, g in parts]
                    for parts in (xparts, yparts))
    assert pairing_matrix([exponent(a, g) for a, g in xparts], [exponent(a, g) for a, g in yparts]) == [
        tuple(_pairing(*x, *y) for y in yrows) for x in xrows
    ]


def _paired(xs, ys):
    """The pairing rows of xs with ys, and y's rows with the columns packed for them."""
    ty = _Rows(ys)
    return list(_pairing_rows(_Rows(xs), ty)), ty


FULL_3 = dict.fromkeys(range(3), FIELD_MAX)


@pytest.mark.parametrize(
    "xs,ys,scale",
    [
        # l1(x) * bound(y) = FIELD_MAX: columns as wide as a slot
        ([exponent({0: 1}), exponent(gamma={1: -1})],
         [exponent(gamma={0: FIELD_MAX}), exponent({1: -FIELD_MAX}, {0: 3})], 1),
        # FIELD_MAX**2, twice a slot wide
        ([exponent({0: FIELD_MAX}), exponent({0: 1}, {1: 1})],
         [exponent({1: FIELD_MAX}, {0: -FIELD_MAX})], 2),
        # 3 * FIELD_MAX**2, four times a slot wide
        ([exponent(FULL_3)], [exponent(gamma=FULL_3), exponent(gamma={k: -v for k, v in FULL_3.items()})], 4),
    ],
    ids=[f"{k * SLOT_BITS}-bit columns" for k in (1, 2, 4)],
)
def test_pairing_rows_pick_each_column_width(xs, ys, scale):
    rows, ty = _paired(xs, ys)
    assert set(ty._columns) == {scale * SLOT_BITS}
    dense = [[unpack(x, WIDTH) for x in (e.alpha, e.gamma)] for e in (*xs, *ys)]
    xrows, yrows = dense[: len(xs)], dense[len(xs):]
    assert rows == [tuple(_pairing(*x, *y) for y in yrows) for x in xrows]
    # the largest |exponent| would not fit a column half as wide
    assert max(abs(s) for row in rows for s in row) >= 1 << (scale * SLOT_BITS // 2 - 1)


def test_pairing_columns_hold_y_when_every_x_row_is_zero():
    # l1(x) = 0 bounds no exponent, but the columns still pack y's
    # entries: the width is chosen from max(l1, 1) * bound(y)
    ys = [exponent({0: FIELD_MAX}, {1: -FIELD_MAX}), exponent(gamma={0: 1})]
    rows, ty = _paired([EXP_ONE], ys)
    assert rows == [(0, 0)]
    (width,) = ty._columns
    for cols, yrows in zip(ty.columns(ty.n, width), (ty.alpha, ty.gamma)):
        assert [unpack(col, len(ys), width) for col in cols] == list(zip(*yrows))
    y = QOperator.monomial(ys[0])
    assert QOperator.one() * y == y == y * QOperator.one()


def test_product_reaching_the_field_limit_raises_before_any_term():
    x = mono(alpha={1: FIELD_MAX})
    with pytest.raises(SlotOverflowError, match=f"entry {SLOT_BIAS} at position 1 of a product"):
        x * mono(alpha={1: 1}, gamma={0: 1})
    # every pair of this commutator cancels (s = 0), yet the check comes first
    with pytest.raises(SlotOverflowError):
        q_commutator(x, mono(alpha={1: 1}))
    with pytest.raises(SlotOverflowError, match=f"entry {-SLOT_BIAS} at position 0"):
        mono(gamma={0: -FIELD_MAX}) * mono(gamma={0: -1})
    # one short of the limit, and fields next to it, do not wrap
    out = mono(alpha={0: -FIELD_MAX + 1, 1: FIELD_MAX - 1}) * mono(alpha={0: -1, 1: 1}, gamma={2: -FIELD_MAX})
    expo = out.single_monomial().expo
    assert entries(expo.alpha) == ((0, -FIELD_MAX), (1, FIELD_MAX))
    assert entries(expo.gamma) == ((2, -FIELD_MAX),)


# ---------------------------------------------------------------------------
# the packed coefficient sums against the kernel they replaced
# ---------------------------------------------------------------------------

def _pair_sum_oracle(x: QOperator, y: QOperator, twist: int | None) -> QOperator:
    """The previous pair kernel: each pair adds a VLaurent to its exponent's sum."""
    tx, ty = _rows_of(x), _rows_of(y)
    _check_products(tx, ty)
    coeffs: dict[VLaurent, int] = {}
    centrals: dict[tuple, int] = {}

    def intern(op: QOperator) -> list[tuple]:
        return [
            (e.alpha, e.gamma, centrals.setdefault(e.ell, len(centrals)),
             coeffs.setdefault(c, len(coeffs)))
            for e, c in op.terms.items()
        ]

    xs, ys = intern(x), intern(y)
    coeff_of, central_of = list(coeffs), list(centrals)
    central_sums: dict[int, list] = {}
    for cx in {ce for _, _, ce, _ in xs}:
        sums = central_sums[cx] = [None] * len(central_of)
        for cy in {ce for _, _, ce, _ in ys}:
            sums[cy] = sparse_add(central_of[cx], central_of[cy])
    if twist is None:
        skip = None

        def factor(c: VLaurent, s: int) -> VLaurent:
            return c.shift(s)
    else:
        skip = twist // 2 if twist % 2 == 0 else None

        def factor(c: VLaurent, s: int) -> VLaurent:
            return c * (VLaurent(s, (1,)) - VLaurent(twist - s, (1,)))

    memos: dict[int, dict] = {}
    acc: dict[tuple, VLaurent] = {}
    for (a1, g1, ce1, co1), srow in zip(xs, _pairing_rows(tx, ty)):
        sums = central_sums[ce1]
        memo = memos.setdefault(co1, {})
        c1 = coeff_of[co1]
        for (a2, g2, ce2, co2), s in zip(ys, srow):
            if s == skip:
                continue
            c = memo.get((s, co2))
            if c is None:
                c = memo[(s, co2)] = factor(c1 * coeff_of[co2], s)
            key = (a1 + a2, g1 + g2, sums[ce2])
            prev = acc.get(key)
            acc[key] = c if prev is None else prev + c
    make = QExponent._make
    return QOperator({make(key): c for key, c in acc.items()})


def _assert_same(out: QOperator, expected: QOperator):
    # equal terms, listed in the same insertion order
    assert out.terms == expected.terms
    assert list(out.terms) == list(expected.terms)


BIG = 1 << 40
big_laurent = st.lists(
    st.tuples(st.integers(-5, 5), st.one_of(st.integers(-3, 3), st.integers(-BIG, BIG),
                                             st.sampled_from([BIG, -BIG]))),
    min_size=1, max_size=4,
).map(lambda pairs: sum((VLaurent(e, (c,)) for e, c in pairs), VLaurent.zero()))
oracle_monomial = st.builds(
    lambda a, g, l, c: QMonomial(exponent(a, g, l), c),
    small_vec, small_vec, st.dictionaries(st.integers(1, 2), st.sampled_from([-1, 1, Fraction(1, 2)]),
                                          max_size=2),
    big_laurent,
)
oracle_operator = st.lists(oracle_monomial, max_size=6).map(QOperator.from_monomials)


@settings(max_examples=100, deadline=None)
@given(oracle_operator, st.one_of(oracle_operator, st.none()), st.integers(-7, 7))
def test_pair_kernel_matches_the_vlaurent_oracle(x, y, t):
    # y None: y is x, so x*x collapses pairs and [x, x]_0 cancels to zero
    y = x if y is None else y
    _assert_same(x * y, _pair_sum_oracle(x, y, None))
    _assert_same(q_commutator(x, y, t), _pair_sum_oracle(x, y, t))


def test_pair_kernel_cancellation_and_wide_fields():
    x = (mono(alpha={0: 1}, coeff=VLaurent(0, (BIG, -3, BIG)))
         + mono(gamma={0: 1}, coeff=VLaurent(2, (-BIG,)))
         + mono(alpha={1: 1}, gamma={0: -1}, coeff=VLaurent(-1, (7,))))
    assert q_commutator(x, x).is_zero()  # every key sums to an exact zero
    _assert_same(q_commutator(x, x), _pair_sum_oracle(x, x, 0))
    for t in (-3, -2, 0, 1, 2):
        _assert_same(q_commutator(x, x, t), _pair_sum_oracle(x, x, t))
    _assert_same(x * x, _pair_sum_oracle(x, x, None))
    zero = QOperator()
    for a, b in ((x, zero), (zero, x), (zero, zero)):
        assert (a * b).is_zero() and q_commutator(a, b, 2).is_zero()


def test_pair_kernel_replays_the_e6_relation_suite(monkeypatch):
    datum = build_cartan("E", 6)
    rep = build_rep(datum, good_word(datum))
    calls, nested_calls = [], []

    def replay(x, y, t=0):
        out = q_commutator(x, y, t)
        _assert_same(out, _pair_sum_oracle(x, y, t))
        calls.append(len(out))
        return out

    def replay_nested(x, y, s, t):
        out = nested_q_commutator(x, y, s, t)
        assert out.terms == _pair_sum_oracle(x, _pair_sum_oracle(x, y, s), t).terms
        nested_calls.append(len(x) * len(y))
        return out

    monkeypatch.setattr(verify, "q_commutator", replay)
    monkeypatch.setattr(verify, "nested_q_commutator", replay_nested)
    assert verify.check_relations(rep)["status"] == "pass"
    # per node: master and 2 * 6 K-relations; 30 e_f, 15 K_K, 2 * 10
    # non-adjacent pairs; and 10 ordered adjacent pairs * 2 Serre relations
    assert len(calls) == 6 * 13 + 30 + 15 + 20 == 143 and any(calls)
    assert len(nested_calls) == 20 and all(nested_calls)


# u- and p-entries of FIELD_MAX on enough positions that s passes
# MAX_COEFF_SPAN: five positions at 8-bit fields, where s is 80,645
SPAN_POSITIONS = MAX_COEFF_SPAN // FIELD_MAX**2 + 1
FULL = dict.fromkeys(range(SPAN_POSITIONS), FIELD_MAX)


def test_coefficient_span_is_checked_before_any_term():
    x, y = mono(alpha=FULL), mono(gamma=FULL)
    s = SPAN_POSITIONS * FIELD_MAX * FIELD_MAX
    assert s > MAX_COEFF_SPAN
    start = time.perf_counter()
    with pytest.raises(CoefficientSpanError, match=f"more than {MAX_COEFF_SPAN} powers of v"):
        q_commutator(x, y)
    past = SPAN_POSITIONS  # a position past the full ones: s spans 0 .. s
    with pytest.raises(CoefficientSpanError):
        (x + mono(alpha={past: 1})) * (y + mono(gamma={past: 1}))
    assert time.perf_counter() - start < 1.0
    # one pair has a one-power window, however large s is
    assert x * y == mono(alpha=FULL, gamma=FULL, coeff=VLaurent(s, (1,)))


# ---------------------------------------------------------------------------
# the nested kernel against nested q-commutators
# ---------------------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(oracle_operator, st.one_of(oracle_operator, st.none()), st.integers(-7, 7), st.integers(-7, 7))
def test_nested_kernel_matches_nested_q_commutators(x, y, s, t):
    # y None: y is x; terms may come out in another order, so compare dicts
    y = x if y is None else y
    assert nested_q_commutator(x, y, s, t).terms == q_commutator(x, q_commutator(x, y, s), t).terms


def test_nested_kernel_zero_operands_and_cancellation():
    x = (mono(alpha={0: 1}, coeff=VLaurent(0, (BIG, -3, BIG)))
         + mono(gamma={0: 1}, coeff=VLaurent(2, (-BIG,)))
         + mono(alpha={1: 1}, gamma={0: -1}, coeff=VLaurent(-1, (7,))))
    zero = QOperator()
    for a, b in ((x, zero), (zero, x), (zero, zero)):
        assert nested_q_commutator(a, b, 2, -2).is_zero()
    assert nested_q_commutator(x, x, 0, 3).is_zero()  # [x, x]_0 = 0
    for s, t in ((2, -2), (-4, 0), (1, 1), (0, 0)):
        assert nested_q_commutator(x, x, s, t).terms == q_commutator(x, q_commutator(x, x, s), t).terms
    # a field reaches the width bound: 2 * BIG**3 at v**0
    x, y = mono(alpha={0: 1}, coeff=VLaurent(0, (BIG,))), mono(alpha={1: 1}, coeff=VLaurent(0, (BIG,)))
    out = nested_q_commutator(x, y, 2, -2)
    assert out.terms == q_commutator(x, q_commutator(x, y, 2), -2).terms
    assert out.single_monomial().coeff == VLaurent(-2, (-BIG**3, 0, 2 * BIG**3, 0, -BIG**3))


def test_nested_kernel_checks_fields_before_any_term():
    # x+y fits (h + 1), x+x+y does not (2h + 1): every s = 0, and a nested
    # [x, [x, y]_0] would be zero, but the check still comes first
    h = SLOT_BIAS // 2 + 1
    x, y = mono(alpha={1: h}), mono(alpha={1: 1})
    with pytest.raises(SlotOverflowError, match=f"entry {2 * h + 1} at position 1 of a product"):
        nested_q_commutator(x, y, 0, 0)
    # past y's last position, x+x alone overflows
    with pytest.raises(SlotOverflowError, match=f"entry {-2 * h} at position 3 of a product"):
        nested_q_commutator(mono(gamma={3: -h}), mono(alpha={0: 1}), 2, -2)
    # x+y leaves its field: that check comes first, as in the inner
    # q-commutator, and before the window (s is FIELD_MAX**2 here)
    x = mono(alpha={1: FIELD_MAX}, gamma={0: FIELD_MAX})
    with pytest.raises(SlotOverflowError, match=f"entry {SLOT_BIAS} at position 1 of a product"):
        nested_q_commutator(x, mono(alpha={0: FIELD_MAX, 1: 1}), 2, -2)
    with pytest.raises(SlotOverflowError, match=f"entry {SLOT_BIAS} at position 1"):
        q_commutator(x, mono(alpha={0: FIELD_MAX, 1: 1}), 2)
    # x+x+y one short of the limit does not wrap
    x, y = mono(alpha={0: 1, 1: FIELD_MAX // 2}), mono(alpha={1: 1}, gamma={0: 1})
    out = nested_q_commutator(x, y, 0, 0)
    assert out.terms == q_commutator(x, q_commutator(x, y)).terms
    assert [entries(e.alpha) for e in out.terms] == [((0, 2), (1, FIELD_MAX))]


def test_nested_kernel_checks_the_span_before_any_term():
    x, y = mono(alpha=FULL), mono(gamma=FULL)
    start = time.perf_counter()
    with pytest.raises(CoefficientSpanError, match=f"more than {MAX_COEFF_SPAN} powers of v"):
        nested_q_commutator(x, y, 0, 0)
    with pytest.raises(CoefficientSpanError):
        q_commutator(x, y)  # the inner call of the nested form
    assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# brackets
# ---------------------------------------------------------------------------

def test_expand_simple_bracket():
    # [u] e(-p) -> e^{pi b(u - 2p)} + e^{pi b(-u - 2p)}, both with coefficient 1
    op = expand_bracket(bracket(l_alpha={0: 1}, shift={0: -1}))
    assert op == mono(alpha={0: 1}, gamma={0: -1}) + mono(alpha={0: -1}, gamma={0: -1})


def test_expand_central_bracket():
    # [2 lam] e(0) -> v * Lam^2 + v^-1 * Lam^-2
    op = expand_bracket(bracket(l_ell={1: 2}))
    assert op == mono(ell={1: 2}, coeff=VLaurent(1, (1,))) + mono(
        ell={1: -2}, coeff=VLaurent(-1, (1,))
    )


def test_expand_two_variable_bracket():
    # [v - w] e(-p_v): pairing s = -1, so both coefficients are 1
    op = expand_bracket(bracket(l_alpha={1: 1, 2: -1}, shift={1: -1}))
    assert op == mono(alpha={1: 1, 2: -1}, gamma={1: -1}) + mono(
        alpha={1: -1, 2: 1}, gamma={1: -1}
    )


def test_zero_weight_bracket_rejected():
    with pytest.raises(ValueError):
        bracket(l_alpha={}, shift={0: 1})


def test_rebracket_round_trip():
    terms = [
        bracket(l_alpha={0: 1}, shift={0: -1}),
        bracket(l_alpha={1: -1, 2: 2}, l_ell={1: -2}, shift={1: 1}),
        bracket(l_alpha={0: 1, 2: -1}, shift={1: -1, 2: 1},
                scalar=VLaurent.q_power(1) + VLaurent.q_power(-1)),
    ]
    op = operator_from_brackets(terms)
    back = rebracket(op)
    assert operator_from_brackets(back) == op
    assert term_count(op) == 3


def test_rebracket_orphan():
    with pytest.raises(RebracketError):
        rebracket(mono(alpha={0: 1}, gamma={0: -1}))


def test_rebracket_zero_weight_monomial():
    with pytest.raises(RebracketError):
        rebracket(mono(gamma={0: -1}))


def test_rebracket_errors_name_a_monomial_past_the_digit_limit():
    # a packed int with field 1000 set has over 4,800 decimal digits, more
    # than int-to-str conversion allows; the messages name the entries
    far = 1000
    with pytest.raises(RebracketError, match=r"^unpaired monomial: u \(\(1000, 1\),\), p \(\), lambda \(\)$"):
        rebracket(mono(alpha={far: 1}))
    with pytest.raises(RebracketError, match=r"^monomial with zero weight part: u \(\), p \(\(1000, -1\),\)"):
        rebracket(mono(gamma={far: -1}))
    pair = mono(alpha={far: 1}, ell={2: Fraction(1, 2)}) + mono(
        alpha={far: -1}, ell={2: Fraction(-1, 2)}, coeff=VLaurent(5, (1,))
    )
    with pytest.raises(
        RebracketError,
        match=r"^no bracket orientation fits the pair at u \(\(1000, -1\),\), p \(\), lambda \(\(2, Fraction\(-1, 2\)\),\)$",
    ):
        rebracket(pair)


def test_term_count_zero():
    assert term_count(QOperator()) == 0


# ---------------------------------------------------------------------------
# The sort by permuted fields and the pairing over a copy of the term dict
# that canonical_order and rebracket replaced, kept as oracles.
# ---------------------------------------------------------------------------

def oracle_canonical_order(exponents) -> tuple[QExponent, ...]:
    exps = list(exponents)
    parts = dict.fromkeys(x for e in exps for x in (e.alpha, e.gamma))
    n = max(map(field_count, parts), default=1)
    keys = dict(zip(parts, permute_fields(parts, n, [(p, n - 1 - p) for p in range(n)])))
    ells = dict.fromkeys(e.ell for e in exps)
    labels = sorted({k for ell in ells for k, _ in ell})
    for ell in ells:
        row = dict(ell)
        ells[ell] = tuple([row.get(k, 0) for k in labels])
    return tuple(sorted(exps, key=lambda e: (keys[e.alpha], keys[e.gamma], ells[e.ell])))


def oracle_rebracket(op: QOperator) -> list[BracketTerm]:
    remaining = dict(op.terms)
    out = []
    for e in oracle_canonical_order(op.terms):
        if e not in remaining:
            continue
        partner = QExponent(-e.alpha, e.gamma, sparse_neg(e.ell))
        if partner == e:
            raise RebracketError(f"monomial with zero weight part: {_monomial_name(e)}")
        c1 = remaining.pop(e)
        c2 = remaining.pop(partner, None)
        if c2 is None:
            raise RebracketError(f"unpaired monomial: {_monomial_name(e)}")
        s = _dot(e.alpha, e.gamma)
        if c1 == c2.shift(2 * (1 + s)):
            plus, scalar = e, c1.shift(-1 - s)
        elif c2 == c1.shift(2 * (1 - s)):
            plus, scalar = partner, c2.shift(-1 + s)
        else:
            raise RebracketError(f"no bracket orientation fits the pair at {_monomial_name(e)}")
        out.append(BracketTerm(scalar, plus.alpha, plus.ell, plus.gamma))
    return out


def _rebracket_outcome(fn, op: QOperator):
    """The terms ``fn`` finds, or its RebracketError message."""
    try:
        return fn(op)
    except RebracketError as exc:
        return str(exc)


FAR = 1000  # a packed int with field 1000 set passes the int-to-str digit limit
edge_entries = st.one_of(
    st.integers(-2, 2), st.sampled_from([SLOT_BIAS - 1, 1 - SLOT_BIAS])
).filter(bool)
far_parts = st.dictionaries(st.one_of(st.integers(0, 6), st.just(FAR)), edge_entries, max_size=4)
lambda_parts = st.dictionaries(
    st.integers(0, 4), st.one_of(st.integers(-2, 2), st.fractions(-2, 2, max_denominator=4)).filter(bool),
    max_size=3,
)
laurents = st.builds(
    VLaurent, st.integers(-4, 4), st.lists(st.integers(-2, 2), min_size=1, max_size=3)
).filter(bool)


@st.composite
def rebracket_inputs(draw) -> QOperator:
    """Sums of brackets, some with stray monomials (unpaired or of zero
    weight) added or one coefficient shifted (no orientation fits)."""
    terms = draw(st.lists(st.tuples(far_parts, lambda_parts, far_parts, laurents), max_size=6))
    op = operator_from_brackets([bracket(a, ell, p, c) for a, ell, p, c in terms if a or ell])
    for a, g, ell, c in draw(st.lists(st.tuples(far_parts, far_parts, lambda_parts, laurents), max_size=2)):
        op = op + QOperator({exponent(a, g, ell): c})
    if op.terms and draw(st.booleans()):
        e = draw(st.sampled_from(list(op.terms)))
        op = QOperator({**op.terms, e: op.terms[e].shift(draw(st.integers(1, 3)))})
    return op


@settings(max_examples=200, deadline=None)
@given(rebracket_inputs())
def test_order_and_rebracket_match_the_oracles(op):
    assert canonical_order(op.terms) == oracle_canonical_order(op.terms)
    assert _rebracket_outcome(rebracket, op) == _rebracket_outcome(oracle_rebracket, op)


def test_rebracket_oracle_cases():
    """The cases the property test must reach, pinned: both orientations,
    entries of +-127, Fraction and several lambda parts, field 1000, and
    each of the three errors."""
    top = SLOT_BIAS - 1
    brackets = [
        bracket({0: top, FAR: -1}, {1: Fraction(1, 3), 2: -2}, {FAR: -top}, VLaurent(-3, (1, 0, 2))),
        bracket({1: -top}, {}, {0: 1, FAR: top}),
        bracket({}, {3: Fraction(-1, 2)}, {2: 1}),
    ]
    ok = operator_from_brackets(brackets)
    pair = mono(alpha={FAR: 1}, ell={2: Fraction(1, 2)}) + mono(
        alpha={FAR: -1}, ell={2: Fraction(-1, 2)}, coeff=VLaurent(5, (1,))
    )
    cases = [
        (ok, None),
        (mono(gamma={FAR: -top}), "monomial with zero weight part: "),
        (mono(alpha={0: -top}, ell={1: Fraction(1, 2), 3: 2}), "unpaired monomial: "),
        (pair, "no bracket orientation fits the pair at "),
    ]
    for op, error in cases:
        got = _rebracket_outcome(rebracket, op)
        assert got == _rebracket_outcome(oracle_rebracket, op)
        assert canonical_order(op.terms) == oracle_canonical_order(op.terms)
        if error is None:
            assert set(got) == set(brackets)
        else:
            assert got.startswith(error)
