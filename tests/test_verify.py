import importlib

import pytest

from posrep.moddouble import build_modified, check_modified_relations
from posrep.qtorus import (
    QOperator,
    VLaurent,
    bracket,
    nested_q_commutator,
    operator_from_brackets,
    q_commutator,
)
from posrep.repbuild import GeneratorTriple, Representation, build_F, build_rep, operator_text
from posrep.rootdata import build_cartan
from posrep.verify import check_relations, path_independence, q2_chain_certificate
from posrep.words import ReducedWord, braid_path, enumerate_words, good_word, random_longest_words

A1 = build_cartan("A", 1)
A2 = build_cartan("A", 2)
A3 = build_cartan("A", 3)


@pytest.mark.parametrize(
    "datum,letters",
    [
        (A1, (1,)),
        (A2, (2, 1, 2)),
        (A2, (1, 2, 1)),
        (A3, (3, 2, 1, 3, 2, 3)),
    ],
)
def test_relations_pass(datum, letters):
    rep = build_rep(datum, ReducedWord(datum, letters))
    assert check_relations(rep)["status"] == "pass"


# The full failing-suite reports on E_label with its first monomial's
# coefficient multiplied by q, as produced by the three-product relation
# suite that the q-commutator form replaced.
CORRUPTED_REPORTS = {
    (A2, 1): [
        {
            "relation": "e_f", "i": 1, "j": 2, "monomials": 1,
            "residue": "(-q^2 + q + 1 - q^-1) E^(pi b(-2u2.2 - 2p1.1 + 2p2.1 - 2L2))",
        },
    ],
    (build_cartan("D", 4), 2): [
        {
            "relation": "master", "i": 2, "j": 2, "monomials": 1,
            "residue": "(-q^2 + q + 1 - q^-1) E^(pi b(u0.3 + u1.3 - 2u2.4 - 2L2"
                       " + u0.2 + u1.2 - 2u2.3 - 2p3.2 + 2p2.2 - 2p2.1 + 2p3.1))",
        },
    ],
}


def test_corrupted_rep_detected():
    for (datum, label), pinned in CORRUPTED_REPORTS.items():
        rep = build_rep(datum, good_word(datum))
        e = rep.gens[label].E
        broken = QOperator(
            {
                expo: (coeff.shift(2) if k == 0 else coeff)
                for k, (expo, coeff) in enumerate(e.monomials())
            }
        )
        gens = dict(rep.gens)
        gens[label] = GeneratorTriple(broken, rep.gens[label].F, rep.gens[label].K)
        report = check_relations(Representation(rep.word, gens))
        assert report == {"check": "relations", "status": "fail", "witnesses": pinned}


def _serre_broken_d4() -> Representation:
    # E_2 gains the inverse of E_0's first monomial; shifting, negating or
    # dropping the first monomial of any E_i leaves every Serre residue zero
    datum = build_cartan("D", 4)
    rep = build_rep(datum, good_word(datum))
    first = rep.gens[0].E.monomials()[0].expo
    gens = dict(rep.gens)
    gens[2] = GeneratorTriple(gens[2].E + QOperator.monomial(first.power(-1)), gens[2].F, gens[2].K)
    return Representation(rep.word, gens)


SERRE_WITNESSES = {(0, 2): 55, (1, 2): 55, (2, 0): 70, (2, 1): 70, (2, 3): 14, (3, 2): 3}
MODIFIED_SERRE_WITNESSES = {(0, 2): 55, (1, 2): 55, (2, 0): 45, (2, 1): 45, (2, 3): 10, (3, 2): 3}


def test_serre_relation_failure_is_reported():
    rep = _serre_broken_d4()
    report = check_relations(rep)
    assert report["status"] == "fail"
    serre = [w for w in report["witnesses"] if w["relation"] == "serre_e"]
    assert {(w["i"], w["j"]): w["monomials"] for w in serre} == SERRE_WITNESSES
    for w in serre:
        e_i, e_j = rep.gens[w["i"]].E, rep.gens[w["j"]].E
        nested = q_commutator(e_i, q_commutator(e_i, e_j, 2), -2)
        assert nested_q_commutator(e_i, e_j, 2, -2) == nested
        assert w["residue"] == operator_text(nested, rep.word)


def test_modified_serre_relation_failure_is_reported():
    mrep = build_modified(_serre_broken_d4())
    report = check_modified_relations(mrep)
    assert report["status"] == "fail"
    serre = [w for w in report["witnesses"] if w["relation"] == "modified_serre_e"]
    assert {(w["i"], w["j"]): w["monomials"] for w in serre} == MODIFIED_SERRE_WITNESSES
    for w in serre:
        eb_i, eb_j = mrep.gens[w["i"]].E, mrep.gens[w["j"]].E
        s = 4 * (2 * mrep.datum.n_weight(w["i"]) - 1)
        # [[y, x]_s, x]_0 = v^s [x, [x, y]_-s]_0
        nested = q_commutator(q_commutator(eb_j, eb_i, s), eb_i)
        assert nested_q_commutator(eb_i, eb_j, -s, 0).scale_v(s) == nested
        assert len(nested) == w["monomials"]


def test_q2_chain_small():
    rep = build_rep(A1, ReducedWord(A1, (1,)))
    cert = q2_chain_certificate(rep.gens[1].E)
    assert cert["status"] == "pass" and len(cert["order"]) == 2
    # K is a single monomial: trivially ordered
    assert q2_chain_certificate(rep.gens[1].K)["status"] == "pass"


def test_q2_chain_a2():
    rep = build_rep(A2, ReducedWord(A2, (2, 1, 2)))
    cert = q2_chain_certificate(rep.gens[1].E)
    assert cert["status"] == "pass"
    assert len(cert["order"]) == 4


def test_q2_chain_reports_failure():
    from posrep.qtorus import exponent

    op = QOperator.monomial(exponent({0: 1})) + QOperator.monomial(exponent({1: 1}))
    cert = q2_chain_certificate(op)
    assert cert["status"] == "no_chain"
    assert cert["exponents"] == [0]
    assert cert["even"]


def test_path_independence_a2():
    report = path_independence(A2, ReducedWord(A2, (2, 1, 2)), ReducedWord(A2, (1, 2, 1)))
    assert report["status"] == "pass"


def test_path_independence_same_word():
    w = good_word(A3)
    assert path_independence(A3, w, w)["status"] == "pass"


def test_path_independence_rejects_words_over_another_datum():
    # a D5 word under D4 would check only four of its five nodes
    w = good_word(build_cartan("D", 5))
    with pytest.raises(ValueError, match=r"the word is over D_5 with .*, not over D_4 with"):
        path_independence(build_cartan("D", 4), w, w)


def test_path_independence_rejects_a_target_over_another_datum():
    # only the second word is over D5; the D4 source word is fine
    d4 = build_cartan("D", 4)
    with pytest.raises(ValueError, match=r"the word is over D_5 with .*, not over D_4 with"):
        path_independence(d4, good_word(d4), good_word(build_cartan("D", 5)))


@pytest.mark.parametrize(
    "family,rank,seed", [("D", 4, 5), ("E", 6, 6), ("E", 7, 7), ("E", 8, 8)],
    ids=["D4", "E6", "E7", "E8"],
)
def test_path_independence_on_sampled_words(family, rank, seed):
    datum = build_cartan(family, rank)
    base = good_word(datum)
    for word in random_longest_words(datum, 5, seed=seed):
        assert word.letters != base.letters
        assert path_independence(datum, base, word)["status"] == "pass", word


# ---------------------------------------------------------------------------
# Negative controls: path_independence reports a corrupted generator or a
# corrupted braid move.
# ---------------------------------------------------------------------------

verify_module = importlib.import_module("posrep.verify")
transport_module = importlib.import_module("posrep.transport")
D4 = build_cartan("D", 4)


def _f_right_to_left(word: ReducedWord, i: int) -> QOperator:
    """A wrong F_i: the suffix sums of its weights taken from the right
    end of the word instead of the left."""
    adjacent = word.datum.adjacent
    weight: dict[int, int] = {}
    terms = []
    for t in range(len(word.letters) - 1, -1, -1):
        j = word.letters[t]
        if j == i:
            weight[t] = -2
            terms.append(bracket(l_alpha={**weight, t: -1}, l_ell={i: -2}, shift={t: 1}))
        elif adjacent(j, i):
            weight[t] = 1
    return operator_from_brackets(terms)


def test_path_independence_fails_on_a_corrupted_f(monkeypatch):
    # the F_label built directly on the target is wrong; the transported
    # generators are not
    base = good_word(D4)
    (target,) = random_longest_words(D4, 1, seed=5)
    label = next(i for i in D4.labels if _f_right_to_left(target, i) != build_F(target, i))

    def build_a_wrong_f(word, i):
        if word.letters == target.letters and i == label:
            return _f_right_to_left(word, i)
        return build_F(word, i)

    monkeypatch.setattr(verify_module, "build_F", build_a_wrong_f)
    report = path_independence(D4, base, target)
    assert report["status"] == "fail"
    assert [(w["generator"], w["kind"]) for w in report["witnesses"]] == [(f"F{label}", "vs_direct")]


def test_path_independence_fails_on_a_corrupted_braid_move(monkeypatch):
    # the first braid move of the first bundle (E, F and K of the first
    # label along the first path) multiplies the whole bundle by q; every
    # other move is exact
    base = good_word(D4)
    (target,) = random_longest_words(D4, 1, seed=5)
    assert any(move.kind == "braid" for move in braid_path(base, target))
    kernel, inner = transport_module._braid_inplace, verify_module.transport_bundle
    state = {"bundles": 0, "armed": False}

    def scaled_once(terms, frame):
        kernel(terms, frame)
        if state["armed"]:
            state["armed"] = False
            for key, coef in terms.items():
                terms[key] = coef.shift(2)

    def arm_the_first(ops, word, path, *args):
        state["bundles"] += 1
        state["armed"] = state["bundles"] == 1
        return inner(ops, word, path, *args)

    monkeypatch.setattr(transport_module, "_braid_inplace", scaled_once)
    monkeypatch.setattr(verify_module, "transport_bundle", arm_the_first)
    report = path_independence(D4, base, target)
    assert report["status"] == "fail"
    first = D4.labels[0]
    assert [(w["generator"], w["kind"]) for w in report["witnesses"]] == [
        (f"{kind}{first}", check) for kind in "EFK" for check in ("two_paths", "vs_direct")
    ]
