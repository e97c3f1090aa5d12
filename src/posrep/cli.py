"""Command-line surface: construction, tables, verification, transport.

Subcommands
    construct        print one generator action (text or JSON)
    tables           per-generator term counts (optionally the bad word)
    verify           relation suite + chain certificates, JSON report
    transport        move one generator between two explicit words
    commutant        inverse-Cartan K-combination certificate
    normalize-lambda lambda-removing substitution report
    classical        finite-difference rendering of a generator

Exit codes: 2 when a ValueError, an ArithmeticError or a term-budget abort
("operator grew to <n> monomials at step <k> ...") ends the command (the
message goes to stderr), 1 when a requested check fails, 0 otherwise.
``verify`` exits 0 iff the relation suite passes and the q^2-chain
certificate of every E_i and F_i is either ``pass`` or ``no_chain`` with
all commutation exponents even.  ``commutant`` first runs the modified
relation suite on the twisted generators and exits 2 when it fails; it
then exits 0 iff its certificate passes.  ``tables --badword`` exits 1
when the term budget aborts the blow-up run.  ``classical`` rejects K
generators, which have no finite-difference form, with exit code 2.

``construct --format json`` writes as it renders: the text goes to stdout
in order, a bounded chunk per write, and only after the operator has been
rebracketed and every u/p entry checked to lie within the word, so a
command that exits 2 has written nothing to stdout.

``construct`` (under both ``--lam`` values), ``transport`` and
``classical`` build only the generator they print, and ``normalize-lambda``
builds only the K_i: an F_i or K_i needs no transport.  ``verify``,
``tables`` and ``commutant`` build the whole family.

Variable naming: text output writes u<i>.<k>, p<i>.<k> for position data
and L<i> for the parameters.  JSON keys the u/p parts (``alpha``, ``gamma``,
``u``, ``P``) by the position name <i>.<k> and the lambda parts (``ell``,
``lambda``) by the node label, with rational strings ("-1/4") as values.
The bad-word experiment is bounded by POSREP_MAX_TERMS (default 5000000).
"""

from __future__ import annotations

import argparse
import json
import struct
import sys
from functools import cache
from operator import getitem

from . import moddouble, repbuild, verify
from .qtorus import (
    SLOT_BIAS,
    SLOT_BITS,
    BracketTerm,
    QExponent,
    QOperator,
    RebracketError,
    field_bias,
    rebracket,
    term_count,
)
from .repbuild import _past_the_word, build_rep, classical_render, operator_text, position_names
from .rootdata import build_cartan, langlands_b_vectors
from .transport import TermBudgetError, format_trace, transport
from .words import (
    ReducedWord,
    bad_word,
    braid_path,
    good_word,
    word_ending_in,
    word_starting_with,
)


# ---------------------------------------------------------------------------
# JSON serialization: u/p parts keyed by position name <i>.<k>, lambda parts
# keyed by node label with rational-string values, every object's keys in
# sorted order (the text ``dump_json`` writes for the same data).
# ---------------------------------------------------------------------------

# an exponent has no constant term: both templates write a literal 0 for
# it, kept so that the format stays stable
_MONOMIAL = '{"alpha":%s,"coeff":%s,"const":0,"ell":%s,"gamma":%s}'
_BRACKET = '{"L":{"const":0,"lambda":%s,"u":%s},"P":%s,"scalar":%s}'
_CHUNK = 1024  # monomials or brackets per write
_GROUP = 16  # fields per lookup in a part's text


def operator_to_json(op: QOperator, word: ReducedWord, write, head: str = "", tail: str = "") -> None:
    """Write ``head``, the JSON text of ``op`` and ``tail`` through ``write``.

    The text holds ``op``'s monomials in the canonical order and, when
    ``rebracket`` succeeds, its weight-shift terms.  Nothing is written
    when the call raises: the check that every u/p entry lies within the
    word and ``rebracket`` both run first.  The text goes out in order,
    one write per _CHUNK monomials or brackets; the u/p parts of a chunk
    are encoded together, and each distinct lambda part and coefficient
    once.
    """
    n = len(word.letters)
    exps = op.exponents()
    # a field past the word is nonzero exactly when x + B_n leaves n fields;
    # the brackets' parts are parts of the monomials
    parts, bias = [x for e in exps for x in (e.alpha, e.gamma)], field_bias(n)
    if parts and (max(parts) + bias >> SLOT_BITS * n or min(parts) + bias < 0):
        raise _past_the_word(op, n)
    try:
        terms = rebracket(op)
    except RebracketError:
        terms = None
    encode = _part_encoder(word)
    lam = cache(lambda ell: dump_json({str(s): str(c) for s, c in ell}))
    # keyed by (val, coeffs): a VLaurent hashes and compares in Python
    coeff = cache(lambda val, cs: dump_json([[val + k, a] for k, a in enumerate(cs) if a]))

    def monomials(chunk: tuple[QExponent, ...]) -> list[str]:
        alphas, gammas = encode([e.alpha for e in chunk]), encode([e.gamma for e in chunk])
        return [_MONOMIAL % (a, coeff(c.val, c.coeffs), lam(e.ell), g)
                for e, c, a, g in zip(chunk, map(op.terms.__getitem__, chunk), alphas, gammas)]

    def brackets(chunk: list[BracketTerm]) -> list[str]:
        ls, ps = encode([t.l_alpha for t in chunk]), encode([t.shift for t in chunk])
        return [_BRACKET % (lam(t.l_ell), l, p, coeff(t.scalar.val, t.scalar.coeffs))
                for t, l, p in zip(chunk, ls, ps)]

    if terms is None:
        _write_list(write, exps, monomials, head + '{"monomials":[', "]}" + tail)
    else:
        _write_list(write, terms, brackets, head + '{"brackets":[', '],"monomials":[')
        _write_list(write, exps, monomials, "", "]}" + tail)


def _write_list(write, items, render, head: str, tail: str) -> None:
    """Write ``head``, the texts of ``items`` joined by commas and ``tail``:
    one write per _CHUNK items, and one in all when there are none."""
    text = head
    for start in range(0, len(items), _CHUNK):
        if start:
            write(text)
            text = ","
        text += ",".join(render(items[start : start + _CHUNK]))
    write(text + tail)


class _Group(dict):
    """The text of a group of u/p fields: '"<name>":<value>' for each
    nonzero one, keyed by the group's biased bytes and made on first use."""

    __slots__ = ("names",)

    def __init__(self, names: list[str]):
        super().__init__()
        self.names = names  # each '"<name>":'

    def __missing__(self, group: bytes) -> str:
        text = self[group] = ",".join(
            [name + str(b - SLOT_BIAS) for name, b in zip(self.names, group) if b != SLOT_BIAS]
        )
        return text


def _part_encoder(word: ReducedWord):
    """An encoder of lists of packed u/p parts over ``word`` as JSON objects.

    Keys are position names in sorted string order ("3.10" before "3.2").
    One call writes each x + B_n as a row of biased bytes, one per field
    (qtorus checks SLOT_BITS == 8), copies the columns into name order,
    and reads each row as groups of _GROUP fields; each group's text is
    looked up in a table per group of names, filled on first use.
    """
    names = position_names(word)
    n = len(names)
    order = sorted(range(n), key=names.__getitem__)
    keys = [json.dumps(names[t]) + ":" for t in order]
    tables = [_Group(keys[i : i + _GROUP]) for i in range(0, n, _GROUP)]
    full, rest = divmod(n, _GROUP)
    groups = struct.Struct(f"{_GROUP}s" * full + (f"{rest}s" if rest else ""))
    bias = field_bias(n)

    def encode(xs: list[int]) -> list[str]:
        rows = b"".join([(x + bias).to_bytes(n, "little") for x in xs])
        named = bytearray(len(rows))
        for column, t in enumerate(order):
            named[column::n] = rows[t::n]
        return ["{%s}" % ",".join(filter(None, map(getitem, tables, row)))
                for row in groups.iter_unpack(named)]

    return encode


def dump_json(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Shared argument handling.
# ---------------------------------------------------------------------------

def _add_type_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("family", choices=["A", "D", "E"])
    p.add_argument("rank", type=int)


def _node_label(datum, text: str) -> int | None:
    """The node label spelled by ``text`` in ASCII digits, or None if it names no node."""
    ok = text.isascii() and text.isdigit()
    return int(text) if ok and int(text) in datum.labels else None


def _resolve_word(datum, spec: str) -> ReducedWord:
    if spec == "good":
        return good_word(datum)
    if spec == "bad":
        return bad_word(datum)
    head, _, tail = spec.rpartition(":")
    letters = [_node_label(datum, x.strip()) for x in tail.split(",")]
    if head not in ("", "end", "start") or None in letters or (head and len(letters) != 1):
        raise ValueError(
            "word must be good, bad, end:<label>, start:<label> or comma-separated"
            f" node labels of {datum.family}_{datum.rank}, got {spec!r}"
        )
    if head == "end":
        return word_ending_in(datum, letters[0])
    if head == "start":
        return word_starting_with(datum, letters[0])
    return ReducedWord(datum, tuple(letters))


def _parse_gen(datum, spec: str) -> tuple[str, int]:
    kind, label = spec[:1].upper(), _node_label(datum, spec[1:])
    if kind not in ("E", "F", "K") or label is None:
        raise ValueError(
            f"generator must be E/F/K + a node label of {datum.family}_{datum.rank}, got {spec!r}"
        )
    return kind, label


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------

def _build_generator(kind: str, word: ReducedWord, label: int) -> QOperator:
    """The one generator ``kind``/``label`` on ``word`` (``build_E``, ``build_F`` or ``build_K``)."""
    return getattr(repbuild, f"build_{kind}")(word, label)


def cmd_construct(args) -> int:
    datum = build_cartan(args.family, args.rank)
    kind, label = _parse_gen(datum, args.gen)
    word = _resolve_word(datum, args.word)  # a checked longest word
    op = _build_generator(kind, word, label)
    if args.lam == "normalized":
        shifts, _ = moddouble.lambda_shifts(word)
        op = moddouble.apply_lambda_shifts(op, shifts)
    if args.format == "json":
        # sorted keys, as dump_json writes them, with the operator between
        head = dump_json({"family": datum.family, "generator": f"{kind}{label}"})
        tail = dump_json({"rank": datum.rank, "word": list(word.letters)})
        operator_to_json(op, word, sys.stdout.write, f'{head[:-1]},"operator":', f",{tail[1:]}\n")
    else:
        print(operator_text(op, word))
    return 0


def cmd_tables(args) -> int:
    datum = build_cartan(args.family, args.rank)
    if args.badword:
        return _badword_report(datum)
    word = good_word(datum)
    rep = build_rep(datum, word)
    e_counts = {i: term_count(rep.gens[i].E) for i in datum.labels}
    f_counts = {i: term_count(rep.gens[i].F) for i in datum.labels}
    print("generator  E-terms  F-terms")
    for i in datum.labels:
        print(f"{i:<10} {e_counts[i]:<8} {f_counts[i]}")
    print(f"total      {sum(e_counts.values()):<8} {sum(f_counts.values())}")
    return 0


def _badword_report(datum) -> int:
    word = bad_word(datum)
    target = 2 if datum.family == "D" else 3
    print(f"bad word: {word}")
    try:
        op = repbuild.build_E(word, target)
    except TermBudgetError as exc:
        print(f"aborted: {exc}")
        return 1
    print(f"E{target} term count: {term_count(op)}")
    return 0


def cmd_verify(args) -> int:
    datum = build_cartan(args.family, args.rank)
    word = _resolve_word(datum, args.word)
    rep = build_rep(datum, word)
    report = verify.check_relations(rep)
    chains = {}
    for i in datum.labels:
        for kind in ("E", "F"):
            chains[f"{kind}{i}"] = verify.q2_chain_certificate(rep.generator(kind, i))
    ok = report["status"] == "pass" and all(
        c["status"] == "pass" or c["even"] for c in chains.values()
    )
    print(dump_json({"relations": report, "q2_chains": chains}))
    return 0 if ok else 1


def cmd_transport(args) -> int:
    datum = build_cartan(args.family, args.rank)
    src = _resolve_word(datum, args.src)
    dst = _resolve_word(datum, args.dst)
    kind, label = _parse_gen(datum, args.gen)
    path = braid_path(src, dst)
    trace: list | None = [] if args.trace else None
    op, word = transport(_build_generator(kind, src, label), src, path, trace=trace)
    if trace:
        print(format_trace(trace))
    print(operator_text(op, word))
    return 0


def cmd_commutant(args) -> int:
    datum = build_cartan(args.family, args.rank)
    rep = build_rep(datum, good_word(datum))
    mrep = moddouble.build_modified(rep)
    relations = moddouble.check_modified_relations(mrep)
    if relations["status"] != "pass":
        raise ArithmeticError(f"modified relation suite failed: {relations['witnesses']}")
    report = moddouble.commutant_check(datum, mrep)
    bvecs = langlands_b_vectors(datum)
    print(dump_json({"b_vectors": [[str(x) for x in b] for b in bvecs], "report": report}))
    return 0 if report["status"] == "pass" else 1


def cmd_normalize_lambda(args) -> int:
    datum = build_cartan(args.family, args.rank)
    word = _resolve_word(datum, args.word)
    shifts, betas = moddouble.lambda_shifts(word)
    k = {i: moddouble.apply_lambda_shifts(repbuild.build_K(word, i), shifts) for i in datum.labels}
    names = position_names(word)
    payload = {
        "word": list(word.letters),
        "betas": {names[t]: b for t, b in betas.items()},
        "shifts": {
            names[t]: {str(s): str(c) for s, c in form} for t, form in shifts.items()
        },
        "K": {str(i): operator_text(op, word) for i, op in k.items()},
    }
    print(dump_json(payload))
    return 0


def cmd_classical(args) -> int:
    datum = build_cartan(args.family, args.rank)
    kind, label = _parse_gen(datum, args.gen)
    if kind == "K":
        raise ValueError(
            f"classical rendering is defined for E and F generators, not for K{label}"
            " (a single monomial has no finite-difference form)"
        )
    word = _resolve_word(datum, args.word)
    print(classical_render(_build_generator(kind, word, label), word))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="posrep", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="print one generator action")
    _add_type_args(p)
    p.add_argument("--word", default="good")
    p.add_argument("--gen", required=True)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--lam", choices=["formal", "normalized"], default="formal")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("tables", help="per-generator term counts")
    _add_type_args(p)
    p.add_argument("--badword", action="store_true")
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("verify", help="relation suite report")
    _add_type_args(p)
    p.add_argument("--word", default="good")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("transport", help="move a generator between words")
    _add_type_args(p)
    p.add_argument("--from", dest="src", required=True)
    p.add_argument("--to", dest="dst", required=True)
    p.add_argument("--gen", required=True)
    p.add_argument("--trace", action="store_true")
    p.set_defaults(func=cmd_transport)

    p = sub.add_parser("commutant", help="Langlands commutant certificate")
    _add_type_args(p)
    p.set_defaults(func=cmd_commutant)

    p = sub.add_parser("normalize-lambda", help="lambda normalization report")
    _add_type_args(p)
    p.add_argument("--word", default="good")
    p.set_defaults(func=cmd_normalize_lambda)

    p = sub.add_parser("classical", help="finite-difference rendering")
    _add_type_args(p)
    p.add_argument("--word", default="good")
    p.add_argument("--gen", required=True)
    p.set_defaults(func=cmd_classical)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ArithmeticError, TermBudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
