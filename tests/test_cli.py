import json

import pytest

from posrep import moddouble
from posrep.cli import main, operator_to_json, dump_json
from posrep.qtorus import QOperator, bracket, expand_bracket, exponent
from posrep.repbuild import build_rep, classical_render, operator_text
from posrep.rootdata import build_cartan
from posrep.words import good_word


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_construct_e(capsys):
    code, out = run_cli(capsys, "construct", "A", "3", "--word", "good", "--gen", "E3")
    assert code == 0
    assert out.strip() == "[u3.1] e(-p3.1)"


def test_construct_f(capsys):
    code, out = run_cli(capsys, "construct", "A", "1", "--word", "good", "--gen", "F1")
    assert code == 0
    assert out.strip() == "[-u1.1 - 2L1] e(p1.1)"


def test_construct_json_round_trip(capsys):
    code, out = run_cli(capsys, "construct", "A", "2", "--gen", "E1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    datum = build_cartan("A", 2)
    word = good_word(datum)
    op = build_rep(datum, word).gens[1].E
    # the command serializes the operator it builds, canonically
    assert dump_json(operator_to_json(op, word)) == dump_json(payload["operator"])
    assert payload["word"] == list(word.letters)


def test_non_bracket_operator_renders_raw_monomials():
    word = good_word(build_cartan("A", 2))
    # an unpaired monomial: rebracket raises RebracketError
    op = QOperator.monomial(exponent({0: 1}, {0: -1})) + QOperator.monomial(exponent({2: 1}))
    assert operator_text(op, word) == "E^(pi b(u2.1)) + E^(pi b(u2.2 - 2p2.2))"
    payload = operator_to_json(op, word)
    assert "brackets" not in payload


@pytest.mark.parametrize("const,text", [(3, "u2.2 + 3"), (-3, "u2.2 - 3"), (1, "u2.2 + 1"), (-1, "u2.2 - 1")])
def test_monomial_constant_renders_as_its_value(const, text):
    word = good_word(build_cartan("A", 2))
    op = QOperator.monomial(exponent({0: 1}, const=const))
    assert operator_text(op, word) == f"E^(pi b({text}))"
    assert operator_text(QOperator.monomial(exponent(const=const)), word) == f"E^(pi b({const}))"


def test_bracket_constant_renders_as_its_value():
    word = good_word(build_cartan("A", 2))
    op = expand_bracket(bracket(l_alpha={0: 1}, l_const=2, shift={0: 1}))
    assert operator_text(op, word) == "[u2.2 + 2] e(p2.2)"
    assert classical_render(op, word) == "(3 + u2.2) f(u2.2 - 1)"
    op = expand_bracket(bracket(l_alpha={0: 1}, l_const=-3, shift={0: 1}))
    assert classical_render(op, word) == "(-2 + u2.2) f(u2.2 - 1)"


def test_invalid_word_rejected(capsys):
    code = main(["construct", "A", "2", "--word", "1,1,2", "--gen", "E1"])
    err = capsys.readouterr().err
    assert code == 2
    assert "reduced" in err


@pytest.mark.parametrize("spec", ["end:9", "start:x", "1,2,x", ""])
def test_malformed_word_rejected(capsys, spec):
    code = main(["construct", "A", "2", "--word", spec, "--gen", "E1"])
    err = capsys.readouterr().err
    assert code == 2
    assert err == (
        "error: word must be good, bad, end:<label>, start:<label> or comma-separated"
        f" node labels of A_2, got {spec!r}\n"
    )


@pytest.mark.parametrize("gen", ["E9", "X1", "E"])
def test_unknown_generator_rejected(capsys, gen):
    code = main(["construct", "A", "2", "--gen", gen])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: generator must be E/F/K + a node label of A_2, got {gen!r}\n"


def test_tables(capsys):
    code, out = run_cli(capsys, "tables", "E", "6")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1].split() == ["total", "43", "36"]


def test_verify_cmd(capsys):
    code, out = run_cli(capsys, "verify", "A", "3", "--word", "good")
    assert code == 0
    report = json.loads(out)
    assert report["relations"]["status"] == "pass"
    assert all(c["status"] == "pass" for c in report["q2_chains"].values())


def test_transport_cmd(capsys):
    code, out = run_cli(
        capsys, "transport", "A", "2", "--from", "2,1,2", "--to", "1,2,1", "--gen", "E2"
    )
    assert code == 0
    assert out.strip() == "[u1.2] e(-p1.2 - p2.1 + p1.1) + [u2.1 - u1.1] e(-p2.1)"


def test_commutant_cmd(capsys):
    code, out = run_cli(capsys, "commutant", "A", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["b_vectors"] == [["2/3", "1/3"], ["1/3", "2/3"]]
    assert payload["report"]["status"] == "pass"


def test_commutant_runs_modified_relation_suite(capsys, monkeypatch):
    build_modified = moddouble.build_modified

    def shifted_coefficient(rep):
        # one Ebar_1 coefficient times v^2: only the Eb_Fb relation breaks,
        # and the commutant certificate alone still passes
        mrep = build_modified(rep)
        eb = mrep.gens[1].E
        broken = QOperator(
            {expo: (coeff.shift(2) if k == 0 else coeff) for k, (expo, coeff) in enumerate(eb.monomials())}
        )
        gens = dict(mrep.gens)
        gens[1] = gens[1]._replace(E=broken)
        return moddouble.ModifiedRep(mrep.base, gens)

    monkeypatch.setattr(moddouble, "build_modified", shifted_coefficient)
    code = main(["commutant", "A", "2"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: modified relation suite failed: [{'relation': 'Eb_Fb'")


def test_normalize_lambda_cmd(capsys):
    code, out = run_cli(capsys, "normalize-lambda", "A", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["betas"] == {"1.1": 1}
    assert payload["K"]["1"] == "E^(pi b(-2u1.1))"


def test_classical_cmd(capsys):
    code, out = run_cli(capsys, "classical", "A", "3", "--word", "good", "--gen", "E3")
    assert code == 0
    assert out.strip() == "(1 + u3.1) f(u3.1 + 1)"


@pytest.mark.parametrize("value", ["abc", "1e6", "0", "-5"])
def test_bad_term_budget_exits_2(capsys, monkeypatch, value):
    monkeypatch.setenv("POSREP_MAX_TERMS", value)
    code = main(["construct", "A", "2", "--gen", "E1"])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: POSREP_MAX_TERMS must be a positive integer, got {value!r}\n"
