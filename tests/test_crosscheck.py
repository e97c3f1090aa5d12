import pytest

from posrep.crosscheck import closed_form_An, closed_form_Dn
from posrep.qtorus import term_count
from posrep.repbuild import build_rep
from posrep.rootdata import build_cartan
from posrep.words import good_word


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_closed_form_An_matches_engine(n):
    datum = build_cartan("A", n)
    rep = build_rep(datum, good_word(datum))
    for i in datum.labels:
        assert closed_form_An(datum, i) == tuple(rep.gens[i])


def test_closed_form_An_term_counts():
    datum = build_cartan("A", 3)
    counts = [term_count(closed_form_An(datum, i)[0]) for i in datum.labels]
    assert counts == [3, 2, 1]


@pytest.mark.parametrize("n", [4, 5])
def test_closed_form_Dn_matches_engine(n):
    datum = build_cartan("D", n)
    rep = build_rep(datum, good_word(datum))
    for i in datum.labels:
        assert closed_form_Dn(datum, i) == rep.gens[i].E


def test_closed_form_Dn_term_counts():
    datum = build_cartan("D", 4)
    assert term_count(closed_form_Dn(datum, 3)) == 1
    assert term_count(closed_form_Dn(datum, 0)) == 5
    assert term_count(closed_form_Dn(datum, 1)) == 5
