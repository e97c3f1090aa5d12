"""Modified generators, parity certificates, commutant, and lambda machinery.

The modified generators twist by K-powers along the bipartition weights
n_i of the Dynkin diagram:

    Ebar_i = q^(n_i) e_i K_i^(n_i)
    Fbar_i = q^(1-n_i) f_i K_i^(n_i - 1)
    Kbar_i = K_i^2 if n_i = 1 else K_i^-2

with Q = q^2 and Q_i = Q if n_i = 1 else Q^-1.  In the rescaled
convention the modified master relation becomes

    Ebar_i Fbar_i - Q_i^-1 Fbar_i Ebar_i = c_i (1 - Kbar_i),
    c_i = 1 - q^-2 if n_i = 1 else 1 - q^2.

The modified generators form an ordinary ``Representation``.
``check_modified_relations`` runs them through ``verify.relation_suite``,
the loop of the standard suite, with the modified twists: besides the
master, K-twist, Ebar_i Fbar_j and Serre relations, Kbar_i commutes with
Kbar_j, and for i, j not adjacent Ebar_i with Ebar_j and Fbar_i with
Fbar_j.

The b <-> 1/b cross-copy is never materialized: a monomial of one copy
commutes with a monomial of the other iff their commutation exponent is
even, so parity of the integer exponent data is exactly the checkable
content of the modular-double statements.

Both parity certificates share one odd-pair scanner, ``_odd_pairs``: a
bit-sliced XOR over per-position parity columns that computes exact
exponents only for the pairs it finds.  The q-tori rank comes from
``rootdata.integer_echelon`` on the sparse u/p rows of the generators.

Lambda normalization is a shift of the u-coordinates that depends only on
the word (``lambda_shifts``); ``apply_lambda_shifts`` applies it to one
operator, so a caller normalizes exactly the generators it needs.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from functools import reduce
from math import lcm

from .qtorus import (
    QExponent,
    QOperator,
    VLaurent,
    entries,
    pairing_matrix,
    rebracket,
    sparse,
    sparse_add,
    sparse_neg,
    sparse_scale,
)
from .rootdata import CartanDatum, _check_datum, integer_echelon, langlands_b_vectors
from .repbuild import GeneratorTriple, Representation, build_E, build_F, build_K, f_brackets
from .verify import _report, relation_suite
from .words import ReducedWord, good_word, word_starting_with

# Witness names of the modified suite, in the order of ``verify.STANDARD_NAMES``.
MODIFIED_NAMES = ("modified_master", "Kb_Eb", "Kb_Fb", "Eb_Fb", "Kb_Kb", "Eb_Eb", "Fb_Fb",
                  "modified_serre_e", "modified_serre_f")


def _k_power(k: QOperator, n: int) -> QOperator:
    return QOperator.monomial(k.single_monomial().expo.power(n))


def build_modified(rep: Representation) -> Representation:
    """Twist the generators along the bipartition.

    No relation is checked here: ``check_modified_relations`` is the
    verification, run by ``posrep commutant`` and the tests.
    """
    gens = {}
    for i in rep.datum.labels:
        e, f, k = rep.gens[i]
        n = rep.datum.n_weight(i)
        gens[i] = GeneratorTriple(
            (e * _k_power(k, n)).scale_v(2 * n) if n else e,
            (f * _k_power(k, n - 1)).scale_v(2 * (1 - n)),
            _k_power(k, 2 if n else -2),
        )
    return Representation(rep.word, gens)


def check_modified_relations(mrep: Representation) -> dict:
    """The relation suite of the modified generators (``verify.relation_suite``).

    With eps_i = 2 n_i - 1 (+1 where Q_i = Q, -1 where Q_i = Q^-1), node i
    has the master relation [Ebar_i, Fbar_i]_(-4 eps_i) = c_i (1 - Kbar_i)
    and the K-twist unit 4 eps_i.  Its Serre relations are
    [[y, x]_s, x]_0 = v^s [x, [x, y]_-s]_0 = 0 with s = 4 eps_i for the
    Ebar-chain and s = -4 eps_i for the Fbar-chain.
    """
    datum = mrep.datum
    one = QOperator.one()

    def node(i, kb_i):
        eps = 2 * datum.n_weight(i) - 1
        c_i = VLaurent.one() - VLaurent.q_power(-2 * eps)
        return -4 * eps, (one - kb_i).scale(c_i), 4 * eps, (-4 * eps, 0), (4 * eps, 0)

    return relation_suite(mrep, "modified_relations", MODIFIED_NAMES, node)


# ---------------------------------------------------------------------------
# Parity and q-tori certificates.
# ---------------------------------------------------------------------------

def _generator_monomials(rep: Representation) -> list[tuple[str, QExponent]]:
    return [
        (f"{kind}{i}", mono.expo)
        for (kind, i), op in rep.all_operators()
        for mono in op.monomials()
    ]


def _odd_pairs(monos: list[tuple[str, QExponent]]) -> list[dict]:
    """Every pair of generator monomials whose commutation exponent is odd.

    Bit-sliced over the monomials: per position k, ``u_odd[k]`` marks the
    monomials with an odd u-entry at k and ``p_odd[k]`` those with an odd
    p-entry.  Modulo 2 the exponent of (a, b) is the sum over k of
    u_a[k] p_b[k] + p_a[k] u_b[k], so a's odd partners are the XOR of the
    p-columns at a's odd u-entries and the u-columns at its odd p-entries.
    Exact exponents are computed only for the monomials that have a
    partner past themselves, one pairing row each.
    """
    expos = [expo for _, expo in monos]
    odd = [
        ([k for k, x in entries(e.alpha) if x & 1], [k for k, x in entries(e.gamma) if x & 1])
        for e in expos
    ]
    u_odd: dict[int, int] = defaultdict(int)
    p_odd: dict[int, int] = defaultdict(int)
    for m, (us, ps) in enumerate(odd):
        for k in us:
            u_odd[k] |= 1 << m
        for k in ps:
            p_odd[k] |= 1 << m
    partners = {}
    for a, (us, ps) in enumerate(odd):
        mask = 0
        for k in us:
            mask ^= p_odd[k]
        for k in ps:
            mask ^= u_odd[k]
        if mask >> (a + 1):
            partners[a] = mask >> (a + 1) << (a + 1)
    if not partners:
        return []
    rows = pairing_matrix([expos[a] for a in partners], expos)
    witnesses = []
    for (a, mask), row in zip(partners.items(), rows):
        while mask:
            b = (mask & -mask).bit_length() - 1
            mask &= mask - 1
            witnesses.append({"pair": [monos[a][0], monos[b][0]], "exponent": row[b]})
    return witnesses


def cross_parity_certificate(rep: Representation) -> dict:
    """All pairwise commutation exponents across the generators are even.

    Evenness is exactly strong commutation against the 1/b copy: the cross
    phase of a pair is (-1)^s.  The modified generators pass; on the
    unmodified ones the odd pairs are the witnesses that the twist is
    needed.
    """
    odd = _odd_pairs(_generator_monomials(rep))
    return _report("cross_parity", not odd, odd)


def qtori_certificate(mrep: Representation) -> dict:
    """Even symplectic Gram matrix + full lattice rank for modified generators.

    Even pairings mean the exponent lattice sits inside a torus algebra
    with parameter q^2.  The spanned u/p lattice must have full rank, twice
    the word length (the central lambda slots are scalars, not torus
    directions): a family missing a generator spans less and fails.
    """
    monos = _generator_monomials(mrep)
    odd = _odd_pairs(monos)
    n_pos = len(mrep.word.letters)
    rows = [
        {**dict(entries(expo.alpha)), **{n_pos + k: x for k, x in entries(expo.gamma)}}
        for _, expo in monos
    ]
    rank = len(integer_echelon(rows)[1])
    return _report("qtori", not odd and rank == 2 * n_pos, odd, rank=rank, full_rank=2 * n_pos)


# ---------------------------------------------------------------------------
# Langlands commutant.
# ---------------------------------------------------------------------------

def commutant_check(datum: CartanDatum, mrep: Representation) -> dict:
    """Certify the inverse-Cartan K-combinations against all generators.

    For each column b^k of the inverse Cartan matrix the combination
    prod_j (K_j^2)^(b_j^k)  (equivalently Kbar_j^(eps_j b_j^k)) pairs

        +2 delta_{ik} with every monomial of Ebar_i,
        -2 delta_{ik} with every monomial of Fbar_i,
         0            with every Kbar_i,

    so the pairing is even everywhere and the 1/b-copy combination
    commutes strongly with the whole modified family.  Pairings of each
    plain Kbar_j are reported with a non-commuting witness (no single
    Kbar_j centralizes the family).
    """
    _check_datum(datum, mrep.datum, "the representation")
    bvecs = langlands_b_vectors(datum)
    labels = datum.labels
    monos = _generator_monomials(mrep)
    # plain[j][m]: the u-part of Kbar_j against the p-part of monomial m
    kbars = [QExponent(mrep.gens[j].K.single_monomial().expo.alpha, 0, ()) for j in labels]
    plain = pairing_matrix(kbars, [expo for _, expo in monos])
    results = []
    all_even = True
    pattern_ok = True
    for target, b in zip(labels, bvecs):
        # Kbar_j^(eps_j b_j) = (K_j^2)^(b_j); the pairing is linear in the
        # u-part, so the combination pairs as the weighted plain pairings,
        # here over the common denominator d of the b_j
        d = lcm(*(b_j.denominator for b_j in b))
        weights = [int(b_j * (2 * datum.n_weight(j) - 1) * d) for j, b_j in zip(labels, b)]
        expected = {f"E{target}": 2, f"F{target}": -2}
        pairings = {}
        for m, (name, _) in enumerate(monos):
            total = sum(w * row[m] for w, row in zip(weights, plain))
            s = total // d if total % d == 0 else Fraction(total, d)
            pairings.setdefault(name, set()).add(s)
            all_even = all_even and s % 2 == 0
            if name[0] in "EF" and s != expected.get(name, 0):
                pattern_ok = False
        results.append(
            {
                "column": target,
                "b_vector": [str(x) for x in b],
                "pairings": {n: sorted(v) for n, v in sorted(pairings.items())},
            }
        )
    # plain Kbar_j witnesses
    witnesses = []
    for j, row in zip(labels, plain):
        pairs = zip((name for name, _ in monos), row)
        witness = next(({"against": n, "exponent": s} for n, s in pairs if s), None)
        witnesses.append({"generator": f"K{j}", "witness": witness})
    status = "pass" if (all_even and pattern_ok) else "fail"
    return {
        "check": "commutant",
        "status": status,
        "all_even": all_even,
        "delta_pattern": pattern_ok,
        "columns": results,
        "plain_k_witnesses": witnesses,
    }


# ---------------------------------------------------------------------------
# Weyl action on the parameters.
# ---------------------------------------------------------------------------

LambdaForm = tuple  # sparse tuple ((label, Fraction), ...)


def weyl_reflect_lambda(datum: CartanDatum, form: LambdaForm, i: int) -> LambdaForm:
    """s_i on a lambda linear form: lam_j -> lam_j - a_ij lam_i, extended
    linearly, so a form f picks up -(sum_j a_ij f_j) lam_i."""
    form = sparse(dict(form))
    c = sum(datum.a(i, j) * coef for j, coef in form)
    if not c:
        return form
    return sparse_add(form, sparse({i: -c}))


def substitute_lambda(op: QOperator, subs: dict[int, LambdaForm]) -> QOperator:
    """Apply a substitution lam_i -> linear form to all monomial exponents."""

    def substitute(ell: LambdaForm) -> LambdaForm:
        terms = (sparse_scale(subs[i], v) if i in subs else ((i, v),) for i, v in ell)
        return reduce(sparse_add, terms, ())

    return QOperator.from_monomials(
        (e._replace(ell=substitute(e.ell)), c) for e, c in op.terms.items()
    )


def reflection_substitution(datum: CartanDatum, i: int) -> dict[int, LambdaForm]:
    """The substitution lam -> s_i(lam): lam_i -> -lam_i and lam_j -> lam_j + lam_i
    for j adjacent to i."""
    subs = {i: sparse({i: -1})}
    for j in datum.labels:
        if datum.adjacent(i, j):
            subs[j] = sparse({j: 1, i: 1})
    return subs


def verify_weyl_pattern(datum: CartanDatum, i: int) -> dict:
    """Compare the generators at lambda and at s_i(lambda).

    No E may change, and the lambda-part of every F_j weight must move by
    the Weyl action on forms (``weyl_reflect_lambda``), its u-part fixed:
    a sign flip of lam_i in every F_i weight, lam_j -> lam_j + lam_i in
    every F_j weight for j adjacent to i, no change elsewhere.  Applying
    the reflection twice must restore everything.

    F_j and K_j are built directly on a word starting with i.  E_j is
    checked on the catalog word, which needs no long transport: E_j has no
    lambda-part on any word, since ``build_E_rightmost`` writes none and no
    move creates one.
    """
    word, catalog = word_starting_with(datum, i), good_word(datum)
    subs = reflection_substitution(datum, i)
    failures, ops = [], []
    for j in datum.labels:
        e0, f0 = build_E(catalog, j), build_F(word, j)
        ops += [e0, f0, build_K(word, j)]
        if substitute_lambda(e0, subs) != e0:
            failures.append({"generator": f"E{j}", "kind": "lambda_dependence"})
        # match brackets by their momentum shift (one per occurrence of j)
        before = {t.shift: t for t in rebracket(f0)}
        after = {t.shift: t for t in rebracket(substitute_lambda(f0, subs))}
        expected_ell = {j: -2}
        for shift, t0 in before.items():
            t1 = after[shift]
            if dict(t0.l_ell) != expected_ell:
                failures.append({"generator": f"F{j}", "kind": "unexpected_weight",
                                 "ell": [list(x) for x in t0.l_ell]})
                continue
            want = weyl_reflect_lambda(datum, t0.l_ell, i)
            if t1.l_ell != want or t1.l_alpha != t0.l_alpha:
                failures.append({"generator": f"F{j}", "kind": "pattern_mismatch"})
    if any(substitute_lambda(substitute_lambda(op, subs), subs) != op for op in ops):
        failures.append({"kind": "not_involutive"})
    return _report("weyl_pattern", not failures, failures, node=i)


# ---------------------------------------------------------------------------
# Lambda normalization.
# ---------------------------------------------------------------------------

def _shifted_ell(shifts: dict[int, LambdaForm], alpha: tuple, ell: LambdaForm) -> LambdaForm:
    """The lambda-part of alpha.u + ell.lam after u_t -> u_t - shifts[t],
    for the (position, value) entries ``alpha``."""
    terms = (sparse_scale(shifts[t], -c) for t, c in alpha if t in shifts)
    return reduce(sparse_add, terms, ell)


def lambda_shifts(word: ReducedWord) -> tuple[dict[int, LambdaForm], dict[int, int]]:
    """The shifts of the u-coordinates that make every K_i lambda-free.

    Walking the word left to right, position t carries the unique F-weight
    supported on positions <= t with unit coefficient at t.  Its running
    lambda-part lam', with beta = (sum of lam'-coefficients) - 1, dictates
    the shift u_t -> u_t - (beta/(beta+1)) lam'.  Every beta must be a
    positive integer; the final weights draw their lambda-parts from at
    most rank-many distinguished forms.  Returns (position -> lambda form
    subtracted from u, position -> beta).
    """
    datum = word.datum
    # weight of the F-bracket shifting at position t: W = -L
    weights: dict[int, tuple] = {}
    for i in datum.labels:
        for term in f_brackets(word, i):
            ((t, _),) = entries(term.shift)
            weights[t] = (entries(-term.l_alpha), sparse_neg(term.l_ell))
    shifts: dict[int, LambdaForm] = {}
    betas: dict[int, int] = {}
    for t in range(len(word.letters)):
        w_alpha, w_ell = weights[t]
        if dict(w_alpha).get(t) != 1:
            raise ArithmeticError(f"the F-weight at position {t} has no unit entry there")
        if any(pos > t for pos, _ in w_alpha):
            raise ArithmeticError(f"the F-weight at position {t} reaches past it")
        ell = _shifted_ell(shifts, w_alpha, w_ell)
        beta = sum(c for _, c in ell) - 1
        if not (beta == int(beta) and beta > 0):
            raise ArithmeticError(f"beta at position {t} is {beta}, not a positive integer")
        betas[t] = int(beta)
        shifts[t] = sparse_scale(ell, Fraction(beta, beta + 1))
    for lab in datum.labels:
        if apply_lambda_shifts(build_K(word, lab), shifts).single_monomial().expo.ell:
            raise ArithmeticError(f"K{lab} still depends on lambda after normalization")
    return shifts, betas


def apply_lambda_shifts(op: QOperator, shifts: dict[int, LambdaForm]) -> QOperator:
    """``op`` after the shifts u_t -> u_t - shifts[t] of ``lambda_shifts``."""
    return QOperator.from_monomials(
        (e._replace(ell=_shifted_ell(shifts, entries(e.alpha), e.ell)), c)
        for e, c in op.terms.items()
    )


def distinguished_lambda_forms(rep: Representation) -> set:
    """Distinct nonzero lambda-parts over all E/F weights of ``rep`` after
    lambda normalization."""
    shifts, _ = lambda_shifts(rep.word)
    forms = set()
    for (kind, _), op in rep.all_operators():
        if kind == "K":
            continue
        for term in rebracket(apply_lambda_shifts(op, shifts)):
            if term.l_ell:
                forms.add(sparse_neg(term.l_ell))
    return forms
