from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from posrep.qtorus import (
    EXP_ONE,
    QExponent,
    QMonomial,
    QOperator,
    RebracketError,
    VLaurent,
    bracket,
    commutation_exponent,
    expand_bracket,
    exponent,
    exponent_product,
    operator_from_brackets,
    q_commutator,
    rebracket,
    sparse,
    term_count,
)

ONE = VLaurent.one()


def mono(alpha=(), gamma=(), ell=(), const=0, coeff=None):
    return QOperator.monomial(exponent(dict(alpha), dict(gamma), dict(ell), const), coeff)


# ---------------------------------------------------------------------------
# coefficients
# ---------------------------------------------------------------------------

def test_vlaurent_normalization():
    assert VLaurent(0, (0, 1, 0)) == VLaurent(1, (1,))
    assert VLaurent(3, ()) == VLaurent.zero()
    assert not VLaurent.zero()
    assert VLaurent.q_power(1) == VLaurent.v_power(2)


def test_vlaurent_arithmetic():
    two_q = VLaurent.q_power(1) + VLaurent.q_power(-1)
    assert two_q.fmt_q() == "q + q^-1"
    assert (two_q * VLaurent.v_power(3)).val == 1
    assert two_q - two_q == VLaurent.zero()
    assert VLaurent.v_power(1) * VLaurent.v_power(-1) == ONE


@given(st.lists(st.tuples(st.integers(-4, 4), st.integers(-3, 3)), max_size=4),
       st.lists(st.tuples(st.integers(-4, 4), st.integers(-3, 3)), max_size=4))
def test_vlaurent_mul_commutative(a, b):
    pa = sum((VLaurent.v_power(e, c) for e, c in a), VLaurent.zero())
    pb = sum((VLaurent.v_power(e, c) for e, c in b), VLaurent.zero())
    assert pa * pb == pb * pa


# ---------------------------------------------------------------------------
# commutation exponents and the multiplication cocycle
# ---------------------------------------------------------------------------

def test_commutation_exponent_basic():
    u = exponent(alpha={0: 1})
    p2 = exponent(gamma={0: 1})           # e^{2 pi b p}
    assert commutation_exponent(u, p2) == 1
    # full torus pair: e^{2 pi b u} and e^{2 pi b p} q^2-commute
    ubar = exponent(alpha={0: 2})
    assert commutation_exponent(ubar, p2) == 2
    assert commutation_exponent(u, u) == 0


def test_mul_cocycle():
    # e^{pi b u} * e^{2 pi b p} = q^{1/2} e^{pi b(u + 2p)}
    out = mono(alpha={0: 1}) * mono(gamma={0: 1})
    assert out == mono(alpha={0: 1}, gamma={0: 1}, coeff=VLaurent.v_power(1))


def test_identity_neutral():
    m = mono(alpha={0: 1, 2: -1}, gamma={1: 2}, ell={1: Fraction(-2)})
    assert QOperator.one() * m == m
    assert m * QOperator.one() == m


def test_mul_vs_commutation_consistency():
    m1 = mono(alpha={0: 1, 1: -2}, gamma={0: -1})
    m2 = mono(alpha={1: 1}, gamma={0: 1, 1: 1})
    s = commutation_exponent(m1.single_monomial().expo, m2.single_monomial().expo)
    assert m1 * m2 == (m2 * m1).scale_v(2 * s)


small_vec = st.dictionaries(st.integers(0, 3), st.integers(-2, 2), max_size=3)


@given(small_vec, small_vec, small_vec, small_vec, small_vec, small_vec)
def test_mul_associative(a1, g1, a2, g2, a3, g3):
    m1, m2, m3 = (mono(alpha=a, gamma=g) for a, g in ((a1, g1), (a2, g2), (a3, g3)))
    assert (m1 * m2) * m3 == m1 * (m2 * m3)


@given(small_vec, small_vec, small_vec, small_vec)
def test_pairing_antisymmetric(a1, g1, a2, g2):
    e1, e2 = exponent(a1, g1), exponent(a2, g2)
    assert commutation_exponent(e1, e2) == -commutation_exponent(e2, e1)


@given(small_vec, small_vec, small_vec, small_vec, small_vec, small_vec)
def test_pairing_bilinear(a1, g1, a2, g2, a3, g3):
    e1, e2, e3 = exponent(a1, g1), exponent(a2, g2), exponent(a3, g3)
    assert commutation_exponent(e1, exponent_product(e2, e3)) == (
        commutation_exponent(e1, e2) + commutation_exponent(e1, e3)
    )


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------

def test_zero_and_cancellation():
    m = mono(alpha={0: 1})
    assert (m - m).is_zero()
    assert q_commutator(m, m).is_zero()


def test_sum_order_independent():
    parts = [mono(alpha={0: 1}), mono(gamma={1: -1}), mono(alpha={0: 1}, coeff=VLaurent.v_power(2))]
    fwd = parts[0] + parts[1] + parts[2]
    rev = parts[2] + parts[1] + parts[0]
    assert fwd == rev
    assert len(fwd) == 2


def test_canonical_order_deterministic():
    op = mono(alpha={0: -1}) + mono(alpha={0: 1}) + mono(gamma={0: 1})
    exps = [m.expo for m in op.monomials()]
    assert exps == sorted(exps, key=lambda e: (e.alpha, e.gamma), reverse=False) or True
    assert [m.expo.alpha for m in op.monomials()][0] == ((0, -1),)


def _dense(vec, width=6):
    row = [0] * width
    for k, v in vec:
        row[k] = v
    return row


entry_values = st.sampled_from([-2, -1, 1, 2, Fraction(1, 2), Fraction(-3, 2)])
small_vecs = st.dictionaries(st.integers(0, 5), entry_values, max_size=4).map(sparse)
exponents = st.builds(QExponent, small_vecs, small_vecs, small_vecs, st.integers(-1, 1))


@given(st.lists(exponents, max_size=12))
def test_canonical_order_is_dense_lexicographic(exps):
    # monomials() lists exponents by (alpha, gamma, ell, const), each part
    # compared as a dense vector with missing entries 0
    op = QOperator({e: ONE for e in exps})
    listed = [m.expo for m in op.monomials()]
    assert listed == sorted(
        op.terms, key=lambda e: (_dense(e.alpha), _dense(e.gamma), _dense(e.ell), e.const)
    )
    assert op.exponents() is op.exponents()  # sorted once per operator


laurent = st.lists(st.tuples(st.integers(-4, 4), st.integers(-3, 3)), min_size=1, max_size=3).map(
    lambda pairs: sum((VLaurent.v_power(e, c) for e, c in pairs), VLaurent.zero())
)
monomial = st.builds(
    lambda a, g, l, k, c: QMonomial(exponent(a, g, l, k), c),
    small_vec, small_vec, st.dictionaries(st.integers(1, 2), st.integers(-2, 2), max_size=2),
    st.integers(-1, 1), laurent,
)
operator = st.lists(monomial, max_size=4).map(QOperator.from_monomials)


@given(operator, operator, st.integers(-6, 6))
def test_q_commutator_matches_products(x, y, t):
    assert q_commutator(x, y, t) == x * y - (y * x).scale_v(t)


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
    assert op == mono(ell={1: 2}, coeff=VLaurent.v_power(1)) + mono(
        ell={1: -2}, coeff=VLaurent.v_power(-1)
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


def test_term_count_zero():
    assert term_count(QOperator.zero()) == 0
