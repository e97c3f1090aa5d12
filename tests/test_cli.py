import json
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import posrep
from posrep import moddouble
from posrep.cli import main, operator_to_json
from posrep.qtorus import (
    SLOT_BIAS,
    QOperator,
    RebracketError,
    VLaurent,
    bracket,
    entries,
    exponent,
    operator_from_brackets,
    rebracket,
)
from posrep.repbuild import build_F, build_K, build_rep, operator_text, position_names
from posrep.rootdata import build_cartan
from posrep.words import bad_word, good_word


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
    # the command writes the text of the operator it builds, verbatim
    text = operator_to_json(op, word)
    assert json.loads(text) == payload["operator"]
    assert f'"operator":{text},' in out
    assert payload["word"] == list(word.letters)


@pytest.mark.parametrize("gen", ["E02", "e2"])
def test_construct_json_names_the_generator_canonically(capsys, gen):
    code, out = run_cli(capsys, "construct", "A", "2", "--gen", gen, "--format", "json")
    assert code == 0
    assert json.loads(out)["generator"] == "E2"


def test_non_bracket_operator_renders_raw_monomials():
    word = good_word(build_cartan("A", 2))
    # an unpaired monomial: rebracket raises RebracketError
    op = QOperator.monomial(exponent({0: 1}, {0: -1})) + QOperator.monomial(exponent({2: 1}))
    assert operator_text(op, word) == "E^(pi b(u2.1)) + E^(pi b(u2.2 - 2p2.2))"
    assert json.loads(operator_to_json(op, word)) == {
        "monomials": [
            {"alpha": {"2.1": 1}, "coeff": [[0, 1]], "const": 0, "ell": {}, "gamma": {}},
            {"alpha": {"2.2": 1}, "coeff": [[0, 1]], "const": 0, "ell": {}, "gamma": {"2.2": -1}},
        ]
    }


@pytest.mark.parametrize("value", [2, -2])
def test_entry_past_the_word_raises(value):
    word = good_word(build_cartan("A", 2))
    op = QOperator.monomial(exponent({0: 1}, {3: value}))
    with pytest.raises(ValueError, match=f"u/p entry {value} at position 3 lies past the 3 positions"):
        operator_to_json(op, word)


# The dict-then-dump rendering that the direct encoder replaced, kept as the
# oracle the encoder must match byte for byte.

def oracle_operator_json(op: QOperator, word) -> str:
    names = position_names(word)

    def by_name(x: int) -> dict:
        return {names[t]: c for t, c in entries(x)}

    def pairs(c: VLaurent) -> list:
        return [[c.val + k, a] for k, a in enumerate(c.coeffs) if a]

    out = {
        "monomials": [
            {
                "alpha": by_name(e.alpha),
                "gamma": by_name(e.gamma),
                "ell": {str(s): str(v) for s, v in e.ell},
                "const": 0,
                "coeff": pairs(c),
            }
            for e, c in op.monomials()
        ]
    }
    try:
        out["brackets"] = [
            {
                "scalar": pairs(t.scalar),
                "L": {"u": by_name(t.l_alpha), "lambda": {str(s): str(v) for s, v in t.l_ell},
                      "const": 0},
                "P": by_name(t.shift),
            }
            for t in rebracket(op)
        ]
    except RebracketError:
        pass
    return json.dumps(out, sort_keys=True, separators=(",", ":"))


# E6's good word has occurrences 1..10 of letter 3, so its position names
# sort apart from its positions ("3.10" before "3.2").
E6_WORD = good_word(build_cartan("E", 6))
N_POS = len(E6_WORD.letters)

entry = st.one_of(st.integers(-3, 3), st.sampled_from([SLOT_BIAS - 1, 1 - SLOT_BIAS, 10, -10])).filter(bool)
parts = st.dictionaries(st.integers(0, N_POS - 1), entry, max_size=6)
lambdas = st.dictionaries(
    st.integers(0, 5),
    st.one_of(st.integers(-3, 3), st.fractions(-2, 2, max_denominator=6)).filter(bool),
    max_size=3,
)
coeffs = st.builds(  # several terms, with zero gaps
    VLaurent, st.integers(-5, 5), st.lists(st.integers(-2, 2), min_size=1, max_size=5)
).filter(bool)


@st.composite
def monomial_operators(draw) -> QOperator:
    shared = draw(coeffs)
    terms = {}
    for alpha, gamma, ell, c in draw(st.lists(
        st.tuples(parts, parts, lambdas, st.one_of(st.none(), coeffs)), max_size=10
    )):
        terms[exponent(alpha, gamma, ell)] = shared if c is None else c
    return QOperator(terms)


@st.composite
def bracket_operators(draw) -> QOperator:
    shared = draw(coeffs)
    terms = []
    for l_alpha, l_ell, shift, c in draw(st.lists(
        st.tuples(parts, lambdas, parts, st.one_of(st.none(), coeffs)), max_size=8
    )):
        if l_alpha or l_ell:
            terms.append(bracket(l_alpha, l_ell, shift, shared if c is None else c))
    return operator_from_brackets(terms)


@settings(max_examples=150, deadline=None)
@given(st.one_of(monomial_operators(), bracket_operators()))
def test_encoder_matches_dict_oracle(op):
    assert operator_to_json(op, E6_WORD) == oracle_operator_json(op, E6_WORD)


def test_encoder_oracle_cases():
    """The cases the property test must reach, pinned."""
    word = E6_WORD
    names = position_names(word)
    at = names.index
    assert sorted(names) != names
    gappy = VLaurent(-2, (1, 0, -3))
    zero = QOperator()
    raw = QOperator({
        exponent({0: -2, 30: 5}, ell={1: Fraction(-1, 4)}): gappy,
        exponent({at("3.2"): -1, at("3.10"): 1, at("3.1"): 2}, {0: 1}): gappy,
    })
    bracketed = operator_from_brackets([
        bracket({0: 1}, {3: Fraction(1, 2)}, {at("3.10"): -1}, gappy),
        bracket({5: -1}, (), {}),
    ])
    for op, has_brackets in ((zero, True), (raw, False), (bracketed, True)):
        text = operator_to_json(op, word)
        assert text == oracle_operator_json(op, word)
        assert ("brackets" in json.loads(text)) == has_brackets
    assert operator_to_json(zero, word) == '{"brackets":[],"monomials":[]}'
    assert '{"3.1":2,"3.10":1,"3.2":-1}' in operator_to_json(raw, word)


def test_invalid_word_rejected(capsys):
    code = main(["construct", "A", "2", "--word", "1,2", "--gen", "E1"])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "error: 1,2 is not a reduced word of the longest element of A_2, which has 3 letters\n"


@pytest.mark.parametrize(
    "argv",
    [
        "construct A 2 --word 1,1,2 --gen E1",
        "verify A 2 --word 1,1,2",
        "transport A 2 --from 1,1,2 --to good --gen E1",
        "transport A 2 --from good --to 1,1,2 --gen E1",
        "normalize-lambda A 2 --word 1,1,2",
        "classical A 2 --word 1,1,2 --gen E1",
    ],
)
def test_a_word_that_is_not_a_word_of_w0_exits_2(capsys, argv):
    assert main(argv.split()) == 2
    assert capsys.readouterr() == (
        "", "error: 1,1,2 is not a reduced word of the longest element of A_2, which has 3 letters\n"
    )


@pytest.mark.parametrize("spec", ["end:9", "start:x", "1,2,x", "", "1,²,1"])
def test_malformed_word_rejected(capsys, spec):
    code = main(["construct", "A", "2", "--word", spec, "--gen", "E1"])
    err = capsys.readouterr().err
    assert code == 2
    assert err == (
        "error: word must be good, bad, end:<label>, start:<label> or comma-separated"
        f" node labels of A_2, got {spec!r}\n"
    )


@pytest.mark.parametrize("argv", ["tables A 3 --badword", "construct A 3 --word bad --gen E1"])
def test_bad_word_on_type_a_rejected(capsys, argv):
    assert main(argv.split()) == 2
    assert capsys.readouterr().err == "error: bad words are defined for types D and E only\n"


@pytest.mark.parametrize("gen", ["E9", "X1", "E", "E²"])
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


def test_transport_trace_of_an_empty_path_prints_no_line(capsys):
    code, out = run_cli(
        capsys, "transport", "A", "2", "--from", "1,2,1", "--to", "1,2,1", "--gen", "E2", "--trace"
    )
    assert code == 0
    assert out == "[u1.2] e(-p1.2 - p2.1 + p1.1) + [u2.1 - u1.1] e(-p2.1)\n"


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
        return replace(mrep, gens=gens)

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


def test_classical_rejects_a_k_generator(capsys, monkeypatch):
    # K_i is one monomial, with no finite-difference form: rejected before
    # anything is built
    def no_build(*args):
        raise AssertionError("classical built a generator")

    monkeypatch.setattr("posrep.repbuild.build_K", no_build)
    code = main(["classical", "A", "3", "--gen", "k2"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == (
        "error: classical rendering is defined for E and F generators, not for K2"
        " (a single monomial has no finite-difference form)\n"
    )


@pytest.mark.parametrize("value", ["abc", "1e6", "0", "-5"])
def test_bad_term_budget_exits_2(capsys, monkeypatch, value):
    monkeypatch.setenv("POSREP_MAX_TERMS", value)
    code = main(["construct", "A", "2", "--gen", "E1"])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: POSREP_MAX_TERMS must be a positive integer, got {value!r}\n"


def test_budget_abort_exits_2_with_its_message(capsys, monkeypatch):
    monkeypatch.setenv("POSREP_MAX_TERMS", "50")
    code = main(["construct", "E", "6", "--word", "bad", "--gen", "E3"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: operator grew to 54 monomials at step 47 (braid@21; budget 50)\n"


@pytest.mark.parametrize(
    "argv",
    ["verify E 6 --word bad", "transport E 6 --from bad --to good --gen F1",
     "commutant E 6", "classical E 6 --word bad --gen E3",
     "construct E 6 --word bad --gen E3 --lam normalized"],
)
def test_budget_abort_exits_2_from_every_subcommand(capsys, monkeypatch, argv):
    monkeypatch.setenv("POSREP_MAX_TERMS", "1")
    code = main(argv.split())
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: operator grew to ") and " at step " in err


def test_badword_table_reports_an_abort_and_exits_1(capsys, monkeypatch):
    monkeypatch.setenv("POSREP_MAX_TERMS", "50")
    code, out = run_cli(capsys, "tables", "E", "6", "--badword")
    assert code == 1
    assert out.splitlines()[-1] == "aborted: operator grew to 54 monomials at step 47 (braid@21; budget 50)"


@pytest.mark.parametrize("gen", ["F3", "K3"])
def test_explicit_generators_print_on_the_e8_bad_word_under_a_small_budget(capsys, monkeypatch, gen):
    # F_i and K_i need no transport, so construct builds them alone
    monkeypatch.setenv("POSREP_MAX_TERMS", "50")
    code, out = run_cli(capsys, "construct", "E", "8", "--word", "bad", "--gen", gen, "--format", "json")
    assert code == 0
    word = bad_word(build_cartan("E", 8))
    op = {"F": build_F, "K": build_K}[gen[0]](word, 3)
    payload = json.loads(out)
    assert payload["word"] == list(word.letters)
    assert payload["operator"] == json.loads(operator_to_json(op, word))


@pytest.mark.parametrize(
    "argv",
    ["normalize-lambda E 8 --word bad", "construct E 8 --word bad --gen F1 --lam normalized",
     "classical E 8 --word bad --gen F1"],
)
def test_commands_printing_f_or_k_transport_nothing(capsys, monkeypatch, argv):
    # each builds only the F_i or K_i it prints, so no E_i is moved along
    # the E8 bad word and the tiny budget is never reached
    monkeypatch.setenv("POSREP_MAX_TERMS", "50")
    code = main(argv.split())
    captured = capsys.readouterr()
    assert code == 0 and captured.err == "" and captured.out


def test_construct_on_a_word_past_the_recursion_limit(capsys):
    # A46's longest word has 1081 letters; E1 is built on a word ending in
    # 1 and moved back along a path found without recursion
    code, out = run_cli(capsys, "construct", "A", "46", "--gen", "E1")
    assert code == 0 and out.startswith("[u46.46] e(")


def test_construct_k_past_the_int_digit_limit(capsys):
    # D33's longest word has 1056 letters, so K1's packed u-part has more
    # digits than int-to-str conversion allows; rebracket's error message
    # must not convert it, and K1 prints as one monomial
    code, out = run_cli(capsys, "construct", "D", "33", "--gen", "K1")
    assert code == 0 and out.count("E^(pi b(") == 1


def run_module(*argv):
    """``python -m posrep *argv`` in a fresh interpreter that imports this
    copy of the package."""
    env = dict(os.environ)
    src = str(Path(posrep.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "posrep", *argv],
                          capture_output=True, text=True, env=env, timeout=60)


def test_module_entry_point():
    result = run_module("construct", "A", "1", "--gen", "F1")
    assert (result.returncode, result.stdout) == (0, "[-u1.1 - 2L1] e(p1.1)\n")
    result = run_module("construct", "A", "0", "--gen", "E1")
    assert result.returncode == 2 and result.stderr == "error: unsupported type A_0\n"
