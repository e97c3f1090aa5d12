"""Relation suites and structural certificates for constructed representations.

Everything here is exact: a relation holds iff its residue operator is
identically zero in the monomial algebra.  Reports are plain dicts so the
CLI can emit them as JSON.

``relation_suite`` is the one relation loop: ``check_relations`` and
``moddouble.check_modified_relations`` differ only in its parameters.
"""

from __future__ import annotations

from .qtorus import QOperator, VLaurent, nested_q_commutator, pairing_matrix, q_commutator
from .repbuild import Representation, build_E, build_F, build_K, build_rep, operator_text
from .rootdata import _check_datum
from .transport import transport_bundle
from .words import ReducedWord, braid_path


def _residue_entry(name: str, i, j, op: QOperator, word: ReducedWord) -> dict:
    return {
        "relation": name,
        "i": i,
        "j": j,
        "monomials": len(op),
        "residue": operator_text(op, word),
    }


def _report(check: str, ok: bool, witnesses: list, **extra) -> dict:
    """A pass/fail certificate: its check name, status and witnesses."""
    return {"check": check, "status": "pass" if ok else "fail", "witnesses": witnesses, **extra}


# Witness names of the nine relation kinds, in the order of ``relation_suite``.
STANDARD_NAMES = ("master", "K_e", "K_f", "e_f", "K_K", "e_e", "f_f", "serre_e", "serre_f")


def relation_suite(rep: Representation, check: str, names, node) -> dict:
    """Evaluate every relation of ``rep`` as a q-commutator [x, y]_t = x y - v^t y x.

    ``node(i, K_i)`` gives node i's master twist t and right-hand side R
    ([E_i, F_i]_t = R), the unit u of the K-twists [K_i, E_j]_(u a_ij) and
    [K_i, F_j]_(-u a_ij), and the (s, t) of the Serre relations
    [E_i, [E_i, E_j]_s]_t and [F_i, [F_i, F_j]_s]_t (i, j adjacent).  All
    other pairs commute: E_i, F_j (i != j); K_i, K_j; E_i, E_j and F_i, F_j
    (i, j not adjacent).  ``names`` are the nine witness names, in the
    order of ``STANDARD_NAMES``; each witness also carries its residue.
    """
    datum = rep.datum
    master, k_e, k_f, e_f, k_k, e_e, f_f, serre_e, serre_f = names
    failures: list[dict] = []

    def record(name, i, j, residue):
        if not residue.is_zero():
            failures.append(_residue_entry(name, i, j, residue, rep.word))

    for i in datum.labels:
        e_i, f_i, k_i = rep.gens[i]
        master_twist, master_rhs, unit, (s_e, t_e), (s_f, t_f) = node(i, k_i)
        record(master, i, i, q_commutator(e_i, f_i, master_twist) - master_rhs)
        for j in datum.labels:
            e_j, f_j, k_j = rep.gens[j]
            a = unit * datum.a(i, j)
            record(k_e, i, j, q_commutator(k_i, e_j, a))
            record(k_f, i, j, q_commutator(k_i, f_j, -a))
            if i == j:
                continue
            record(e_f, i, j, q_commutator(e_i, f_j))
            if i < j:
                record(k_k, i, j, q_commutator(k_i, k_j))
                if not datum.adjacent(i, j):
                    record(e_e, i, j, q_commutator(e_i, e_j))
                    record(f_f, i, j, q_commutator(f_i, f_j))
            if datum.adjacent(i, j):
                record(serre_e, i, j, nested_q_commutator(e_i, e_j, s_e, t_e))
                record(serre_f, i, j, nested_q_commutator(f_i, f_j, s_f, t_f))
    return _report(check, not failures, failures)


def check_relations(rep: Representation) -> dict:
    """Verify the full defining-relation suite with exact zero residues.

    In the rescaled convention the suite is:
      e_i f_i - f_i e_i = (q - q^-1)(K_i^-1 - K_i)
      e_i f_j = f_j e_i                       (i != j)
      K_i e_j = q^(a_ij) e_j K_i,  K_i f_j = q^(-a_ij) f_j K_i
      K_i K_j = K_j K_i
      e_i e_j = e_j e_i,  f_i f_j = f_j f_i   (i, j not adjacent)
      e_i^2 e_j - (q + q^-1) e_i e_j e_i + e_j e_i^2 = 0   (i, j adjacent)
      and the same for f.

    Serre is the nested form [e_i, [e_i, e_j]_2]_-2, which expands to the
    same element as the three-product sum above and is summed in one pass
    (``nested_q_commutator``).
    """
    q_minus = VLaurent.q_power(1) - VLaurent.q_power(-1)

    def node(i, k_i):
        k_inv = QOperator.monomial(k_i.single_monomial().expo.power(-1))
        return 0, (k_inv - k_i).scale(q_minus), 2, (2, -2), (2, -2)

    return relation_suite(rep, "relations", STANDARD_NAMES, node)


def q2_chain_certificate(op: QOperator) -> dict:
    """Order the monomials into a chain with every ordered pair at exponent +2.

    Returns {"status": "pass", "order": [...]} when such a total order
    exists; otherwise the commutation-exponent multiset is reported, along
    with whether it is at least all-even.
    """
    expos = op.exponents()
    exps = pairing_matrix(expos, expos)
    multiset = sorted(s for a, row in enumerate(exps) for s in row[a + 1:])
    all_even = all(s % 2 == 0 for s in multiset)
    chain = all(abs(s) == 2 for s in multiset)
    if chain:
        # exponents are antisymmetric, so a row's +2 entries are its wins
        order = sorted(range(len(expos)), key=lambda a: -exps[a].count(2))
        ok = all(exps[a][b] == 2 for pos, a in enumerate(order) for b in order[pos + 1 :])
        if ok:
            return {"check": "q2_chain", "status": "pass", "order": order, "even": True}
    return {
        "check": "q2_chain",
        "status": "no_chain",
        "exponents": multiset,
        "even": all_even,
    }


def path_independence(datum, word_a: ReducedWord, word_b: ReducedWord) -> dict:
    """Transport the representation along two paths and compare everything.

    Checks (exactly):
      * transported generators agree between the two paths;
      * transported generators agree with those built directly on the target.

    Each label's E, F and K move along a path as one bundle; the direct
    generators on ``word_b`` are built one by one as they are compared.
    """
    _check_datum(datum, word_b.datum, "the word")
    rep = build_rep(datum, word_a)
    path1 = braid_path(word_a, word_b)
    path2 = list(reversed(braid_path(word_b, word_a)))
    mismatches = []
    for i in datum.labels:
        outs1, _ = transport_bundle(rep.gens[i], word_a, path1)
        outs2, _ = transport_bundle(rep.gens[i], word_a, path2)
        for kind, out1, out2, build in zip("EFK", outs1, outs2, (build_E, build_F, build_K)):
            if out1 != out2:
                mismatches.append({"generator": f"{kind}{i}", "kind": "two_paths"})
            direct = build(word_b, i)
            if out1 != direct:
                mismatches.append(
                    {
                        "generator": f"{kind}{i}",
                        "kind": "vs_direct",
                        "transported": operator_text(out1, word_b),
                        "direct": operator_text(direct, word_b),
                    }
                )
    return _report("path_independence", not mismatches, mismatches)
