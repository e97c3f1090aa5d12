from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from posrep import moddouble
from posrep.moddouble import (
    _generator_monomials,
    _k_power,
    _odd_pairs,
    build_modified,
    check_modified_relations,
    commutant_check,
    cross_parity_certificate,
    apply_lambda_shifts,
    distinguished_lambda_forms,
    lambda_shifts,
    qtori_certificate,
    reflection_substitution,
    substitute_lambda,
    verify_weyl_pattern,
    weyl_reflect_lambda,
)
from posrep.qtorus import (
    SLOT_BIAS,
    SLOT_BITS,
    QOperator,
    SlotOverflowError,
    VLaurent,
    commutation_exponent,
    entries,
    exponent,
    operator_from_brackets,
    pairing_matrix,
    q_commutator,
    rebracket,
    sparse,
    sparse_add,
    unpack,
)
from posrep.repbuild import build_E, build_F, build_rep, operator_text
from posrep.rootdata import build_cartan
from posrep.words import ReducedWord, good_word
from test_rootdata import _row_reduce_oracle


def rep_for(family, rank, flip=False):
    datum = build_cartan(family, rank, flip_bipartition=flip)
    return build_rep(datum, good_word(datum))


def test_k_power_reaching_the_field_limit_raises():
    k = QOperator.monomial(exponent({0: 1, 1: -(SLOT_BIAS // 2)}, ell={1: Fraction(1, 2)}))
    with pytest.raises(SlotOverflowError, match=f"entry {SLOT_BIAS} at position 1 of a power"):
        _k_power(k, -2)
    # at the limit (7 divides SLOT_BIAS - 1 at 16-bit fields) nothing
    # wraps into position 2
    step = (SLOT_BIAS - 1) // 7
    k = QOperator.monomial(exponent({1: -step}, {2: 5}, {1: Fraction(1, 2)}))
    expo = _k_power(k, 7).single_monomial().expo
    assert entries(expo.alpha) == ((1, -7 * step),)
    assert entries(expo.gamma) == ((2, 35),) and expo.ell == sparse({1: Fraction(7, 2)})


def test_modified_a1_shape():
    # with n_1 = 1: Ebar = q e K, Kbar = K^2
    rep = rep_for("A", 1, flip=True)
    assert rep.datum.n_weight(1) == 1
    mrep = build_modified(rep)
    e, _, k = rep.gens[1]
    assert mrep.gens[1].E == (e * k).scale_v(2)
    assert mrep.gens[1].K == k * k


def test_modified_a1_master_by_hand():
    # n_1 = 1: Ebar Fbar - q^-2 Fbar Ebar = (1 - q^-2)(1 - Kbar)
    mrep = build_modified(rep_for("A", 1, flip=True))
    eb, fb, kb = mrep.gens[1]
    lhs = eb * fb - (fb * eb).scale_v(-4)
    rhs = (QOperator.one() - kb).scale(VLaurent.one() - VLaurent.q_power(-2))
    assert lhs == rhs


@pytest.mark.parametrize(
    "family,rank,flip",
    [("A", 1, False), ("A", 2, False), ("A", 2, True), ("A", 3, False), ("D", 4, False), ("D", 4, True)],
)
def test_modified_relations(family, rank, flip):
    mrep = build_modified(rep_for(family, rank, flip))
    assert check_modified_relations(mrep)["status"] == "pass"


@pytest.mark.parametrize(
    "family,rank,label,relation",
    [("A", 2, 1, "Eb_Fb"), ("D", 4, 0, "modified_master")],
)
def test_modified_relations_detect_shifted_coefficient(family, rank, label, relation):
    mrep = build_modified(rep_for(family, rank))
    eb = mrep.gens[label].E
    broken = QOperator(
        {expo: (coeff.shift(2) if k == 0 else coeff) for k, (expo, coeff) in enumerate(eb.monomials())}
    )
    gens = dict(mrep.gens)
    gens[label] = gens[label]._replace(E=broken)
    report = check_modified_relations(replace(mrep, gens=gens))
    assert report["status"] == "fail"
    assert [w["relation"] for w in report["witnesses"]] == [relation]
    assert report["witnesses"][0]["monomials"] == 1


@pytest.mark.parametrize(
    "kind,relation", [("E", "Eb_Eb"), ("F", "Fb_Fb"), ("K", "Kb_Kb")]
)
def test_modified_relations_check_non_adjacent_pairs(kind, relation):
    # D4 nodes 0 and 1 are not adjacent; Ebar_1 (Fbar_1) gains the first
    # monomial of Fbar_0 (Ebar_0), and Kbar_1 is multiplied by that of
    # Ebar_0, none of which commutes with node 0's generator of its kind
    mrep = build_modified(rep_for("D", 4))
    other = {"E": "F", "F": "E", "K": "E"}[kind]
    extra = QOperator.monomial(getattr(mrep.gens[0], other).monomials()[0].expo)
    op = getattr(mrep.gens[1], kind)
    broken = op * extra if kind == "K" else op + extra
    gens = {**mrep.gens, 1: mrep.gens[1]._replace(**{kind: broken})}
    report = check_modified_relations(replace(mrep, gens=gens))
    assert report["status"] == "fail"
    witness = {(w["i"], w["j"]): w for w in report["witnesses"] if w["relation"] == relation}[0, 1]
    residue = q_commutator(getattr(mrep.gens[0], kind), broken)
    assert witness["monomials"] == len(residue) > 0
    assert witness["residue"] == operator_text(residue, mrep.word)


@pytest.mark.parametrize(
    "family,rank,flip",
    [("A", 1, False), ("A", 2, False), ("A", 2, True), ("A", 3, False), ("D", 4, False), ("D", 4, True)],
)
def test_cross_parity(family, rank, flip):
    mrep = build_modified(rep_for(family, rank, flip))
    assert cross_parity_certificate(mrep)["status"] == "pass"


def test_unmodified_odd_witness_a2():
    report = cross_parity_certificate(rep_for("A", 2))
    assert report["status"] == "fail"
    assert report["witnesses"][0]["exponent"] % 2 == 1


def _odd_pairs_oracle(monos):
    """The full pairing matrix, scanned for odd entries above the diagonal
    (the package's former scanner)."""
    expos = [expo for _, expo in monos]
    return [
        {"pair": [monos[a][0], monos[b][0]], "exponent": s}
        for a, row in enumerate(pairing_matrix(expos, expos))
        for b, s in enumerate(row[a + 1:], a + 1)
        if s % 2
    ]


family_parts = st.dictionaries(st.integers(0, 6), st.integers(-40, 40), max_size=5)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("EFK"), family_parts, family_parts), max_size=24))
def test_odd_pairs_match_the_dense_oracle(family):
    monos = [(f"{kind}{m}", exponent(alpha, gamma)) for m, (kind, alpha, gamma) in enumerate(family)]
    assert _odd_pairs(monos) == _odd_pairs_oracle(monos)


@pytest.mark.parametrize("family,rank,count", [("A", 2, 28), ("D", 4, 340), ("E", 6, 2544)])
def test_odd_pairs_match_the_oracle_on_unmodified_reps(family, rank, count):
    monos = _generator_monomials(rep_for(family, rank).gens)
    witnesses = _odd_pairs(monos)
    assert witnesses == _odd_pairs_oracle(monos)
    assert len(witnesses) == count


def test_cross_parity_names_an_odd_u_entry():
    # one u-entry of K2 made odd in the modified D4 family: the certificate
    # names exactly the pairs with K2 whose exponent is odd, with that exponent
    mrep = build_modified(rep_for("D", 4))
    expo = mrep.gens[2].K.single_monomial().expo
    pos = next(p for p, x in enumerate(unpack(expo.alpha, 12)) if x % 2 == 0)
    odd_k = QOperator.monomial(expo._replace(alpha=expo.alpha + (1 << (SLOT_BITS * pos))))
    gens = {**mrep.gens, 2: mrep.gens[2]._replace(K=odd_k)}
    report = cross_parity_certificate(replace(mrep, gens=gens))
    assert report["status"] == "fail"
    monos = _generator_monomials(gens)
    expected = [
        {"pair": [monos[a][0], monos[b][0]], "exponent": s}
        for a in range(len(monos))
        for b in range(a + 1, len(monos))
        if "K2" in (monos[a][0], monos[b][0])
        for s in [commutation_exponent(monos[a][1], monos[b][1])]
        if s % 2
    ]
    assert report["witnesses"] == expected != []


def test_unmodified_a1_has_no_odd_witness():
    assert cross_parity_certificate(rep_for("A", 1))["status"] == "pass"


@pytest.mark.parametrize("family,rank", [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("D", 4)])
def test_qtori_certificate(family, rank):
    for flip in (False, True):
        mrep = build_modified(rep_for(family, rank, flip))
        assert check_modified_relations(mrep)["status"] == "pass"
        report = qtori_certificate(mrep)
        assert report["status"] == "pass"
        assert report["rank"] == report["full_rank"] == 2 * len(mrep.word.letters)


def test_qtori_rank_a1():
    report = qtori_certificate(build_modified(rep_for("A", 1)))
    assert report["rank"] == 2 and report["full_rank"] == 2


def test_qtori_fails_below_full_rank():
    # without label 1's triple the A2 family spans a rank-5 lattice, not 6
    mrep = build_modified(rep_for("A", 2))
    partial = replace(mrep, gens={2: mrep.gens[2]})
    report = qtori_certificate(partial)
    assert not report["witnesses"]
    assert (report["rank"], report["full_rank"]) == (5, 6)
    assert report["status"] == "fail"

    # without label 3's triple (the trivalent node) the E6 family spans 67 of 72
    mrep = build_modified(rep_for("E", 6))
    partial = replace(mrep, gens={i: t for i, t in mrep.gens.items() if i != 3})
    rows = [unpack(e.alpha, 36) + unpack(e.gamma, 36) for _, e in _generator_monomials(partial.gens)]
    oracle_rank = len(_row_reduce_oracle(rows)[1])
    report = qtori_certificate(partial)
    assert not report["witnesses"]
    assert (report["rank"], report["full_rank"]) == (oracle_rank, 72) == (67, 72)
    assert report["status"] == "fail"


# ---------------------------------------------------------------------------
# commutant
# ---------------------------------------------------------------------------

def test_commutant_a1_pairings():
    datum = build_cartan("A", 1)
    mrep = build_modified(build_rep(datum, good_word(datum)))
    report = commutant_check(datum, mrep)
    assert report["status"] == "pass"
    col = report["columns"][0]
    assert col["b_vector"] == ["1/2"]
    assert col["pairings"]["E1"] == [2]
    assert col["pairings"]["F1"] == [-2]
    assert col["pairings"]["K1"] == [0]


@pytest.mark.parametrize("family,rank", [("A", 2), ("A", 3), ("D", 4)])
def test_commutant_delta_pattern(family, rank):
    datum = build_cartan(family, rank)
    mrep = build_modified(build_rep(datum, good_word(datum)))
    report = commutant_check(datum, mrep)
    assert report["status"] == "pass"
    for col in report["columns"]:
        target = col["column"]
        for name, values in col["pairings"].items():
            if name == f"E{target}":
                assert values == [2]
            elif name == f"F{target}":
                assert values == [-2]
            else:
                assert values == [0]
    for entry in report["plain_k_witnesses"]:
        assert entry["witness"] is not None


def test_commutant_fails_on_swapped_e_generators():
    # Ebar_1 and Ebar_2 trade places: every pairing stays even, but the
    # b-vector columns of nodes 1 and 2 meet the wrong E
    datum = build_cartan("D", 4)
    mrep = build_modified(build_rep(datum, good_word(datum)))
    gens = dict(mrep.gens)
    gens[1], gens[2] = gens[1]._replace(E=gens[2].E), gens[2]._replace(E=gens[1].E)
    report = commutant_check(datum, replace(mrep, gens=gens))
    assert (report["status"], report["all_even"], report["delta_pattern"]) == ("fail", True, False)


# ---------------------------------------------------------------------------
# Weyl action on the parameters
# ---------------------------------------------------------------------------

def test_weyl_reflect_lambda():
    datum = build_cartan("A", 2)
    lam1 = sparse({1: 1})
    assert weyl_reflect_lambda(datum, lam1, 1) == sparse({1: -1})
    assert weyl_reflect_lambda(datum, sparse({2: 1}), 1) == sparse({1: 1, 2: 1})
    twice = weyl_reflect_lambda(datum, weyl_reflect_lambda(datum, lam1, 2), 2)
    assert twice == lam1


@pytest.mark.parametrize("family,rank,i", [("A", 1, 1), ("A", 2, 1), ("A", 2, 2)])
def test_weyl_pattern(family, rank, i):
    datum = build_cartan(family, rank)
    report = verify_weyl_pattern(datum, i)
    assert report["status"] == "pass", report


def test_weyl_pattern_reports_a_lambda_dependent_e(monkeypatch):
    # E_j with a lambda_j term: s_1 changes lam_1 and lam_2 on A2
    def build_e_with_lambda(word, j):
        return build_E(word, j) + QOperator.monomial(exponent(ell={j: 1}))

    monkeypatch.setattr(moddouble, "build_E", build_e_with_lambda)
    report = verify_weyl_pattern(build_cartan("A", 2), 1)
    assert report["status"] == "fail"
    assert report["witnesses"] == [
        {"generator": "E1", "kind": "lambda_dependence"},
        {"generator": "E2", "kind": "lambda_dependence"},
    ]


def test_weyl_pattern_reports_a_wrong_reflection(monkeypatch):
    # lam_j -> lam_j - lam_i for j adjacent to i is still an involution, but
    # it is not s_i: only the F_j weights of the neighbours mismatch
    def wrong_substitution(datum, i):
        subs = reflection_substitution(datum, i)
        return {j: form if j == i else sparse({j: 1, i: -1}) for j, form in subs.items()}

    monkeypatch.setattr(moddouble, "reflection_substitution", wrong_substitution)
    report = verify_weyl_pattern(build_cartan("A", 3), 2)
    assert report["status"] == "fail"
    kinds = {(w["generator"], w["kind"]) for w in report["witnesses"]}
    assert kinds == {("F1", "pattern_mismatch"), ("F3", "pattern_mismatch")}


def test_weyl_pattern_reports_an_unexpected_weight(monkeypatch):
    # every F bracket gains lam_1 in its weight, so no F_j weight is -2 lam_j
    def build_f_with_lambda(word, j):
        terms = rebracket(build_F(word, j))
        return operator_from_brackets(t._replace(l_ell=sparse_add(t.l_ell, ((1, 1),))) for t in terms)

    monkeypatch.setattr(moddouble, "build_F", build_f_with_lambda)
    report = verify_weyl_pattern(build_cartan("A", 2), 1)
    assert report["status"] == "fail"
    assert {(w["generator"], w["kind"]) for w in report["witnesses"]} == {
        ("F1", "unexpected_weight"), ("F2", "unexpected_weight"),
    }


def test_reflect_representation_involution():
    rep = rep_for("A", 2)
    subs = reflection_substitution(rep.datum, 1)
    for _, op in rep.all_operators():
        assert substitute_lambda(substitute_lambda(op, subs), subs) == op


# ---------------------------------------------------------------------------
# lambda normalization
# ---------------------------------------------------------------------------

def test_normalize_a1():
    datum = build_cartan("A", 1)
    word = ReducedWord(datum, (1,))
    shifts, betas = lambda_shifts(word)
    assert betas == {0: 1}
    assert shifts[0] == sparse({1: 1})  # u -> u - lam
    k = apply_lambda_shifts(build_rep(datum, word).gens[1].K, shifts).single_monomial()
    assert entries(k.expo.alpha) == ((0, -2),) and not k.expo.ell


@pytest.mark.parametrize("family,rank", [("A", 2), ("A", 3), ("D", 4)])
def test_normalize_good_words(family, rank):
    datum = build_cartan(family, rank)
    rep = build_rep(datum, good_word(datum))
    shifts, betas = lambda_shifts(rep.word)
    assert all(b >= 1 for b in betas.values())
    for i in datum.labels:
        assert not apply_lambda_shifts(rep.gens[i].K, shifts).single_monomial().expo.ell
    forms = distinguished_lambda_forms(rep)
    assert 1 <= len(forms) <= datum.rank


def test_normalize_preserves_pairings():
    datum = build_cartan("A", 2)
    rep = build_rep(datum, good_word(datum))
    shifts, _ = lambda_shifts(rep.word)
    for i in datum.labels:
        before = [m.expo for m in rep.gens[i].E.monomials()]
        after = [m.expo for m in apply_lambda_shifts(rep.gens[i].E, shifts).monomials()]
        for b, a in zip(before, after):
            assert (b.alpha, b.gamma) == (a.alpha, a.gamma)
