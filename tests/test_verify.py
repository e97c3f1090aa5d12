import pytest

from posrep.qtorus import QOperator, VLaurent
from posrep.repbuild import GeneratorTriple, Representation, build_rep
from posrep.rootdata import build_cartan
from posrep.verify import check_relations, path_independence, q2_chain_certificate
from posrep.words import ReducedWord, enumerate_words, good_word, random_longest_words

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
        report = check_relations(Representation(rep.datum, rep.word, rep.lam_mode, gens))
        assert report == {"check": "relations", "status": "fail", "witnesses": pinned}


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


@pytest.mark.parametrize(
    "family,rank,seed", [("D", 4, 5), ("E", 6, 6), ("E", 7, 7), ("E", 8, 8)],
    ids=["D4", "E6", "E7", "E8"],
)
def test_path_independence_on_sampled_words(family, rank, seed):
    datum = build_cartan(family, rank)
    base = good_word(datum)
    for word in random_longest_words(datum, 3, seed=seed):
        assert word.letters != base.letters
        assert path_independence(datum, base, word)["status"] == "pass", word
