"""Exact symbolic engine for positive principal series representations of
simply-laced split real quantum groups.

Generators act as finite sums of q-commuting exponential monomials on an
integer symplectic exponent lattice indexed by the positions of a reduced
word for the longest Weyl group element; all coefficients live in
Z[v, v^-1] with v^2 = q, so every check in the package is exact.
"""

from .qtorus import (
    BracketTerm,
    QExponent,
    QMonomial,
    QOperator,
    VLaurent,
    bracket,
    expand_bracket,
    nested_q_commutator,
    operator_from_brackets,
    q_commutator,
    rebracket,
    term_count,
)
from .rootdata import (
    CartanDatum,
    build_cartan,
    langlands_b_vectors,
    positive_root_count,
)
from .words import (
    BraidMove,
    ReducedWord,
    apply_move,
    bad_word,
    braid_path,
    enumerate_words,
    good_word,
    is_reduced,
    lusztig_labels,
    random_longest_words,
    word_ending_in,
    word_starting_with,
)
from .repbuild import (
    Representation,
    build_E,
    build_E_rightmost,
    build_F,
    build_K,
    build_rep,
    classical_render,
    operator_text,
)
from .transport import conjugation_factor
from .crosscheck import closed_form_An, closed_form_Dn
from .moddouble import (
    cross_parity_certificate,
    distinguished_lambda_forms,
    qtori_certificate,
    verify_weyl_pattern,
)
from .verify import path_independence

__all__ = [
    "BracketTerm",
    "QExponent",
    "QMonomial",
    "QOperator",
    "VLaurent",
    "bracket",
    "expand_bracket",
    "nested_q_commutator",
    "operator_from_brackets",
    "q_commutator",
    "rebracket",
    "term_count",
    "CartanDatum",
    "build_cartan",
    "langlands_b_vectors",
    "positive_root_count",
    "BraidMove",
    "ReducedWord",
    "apply_move",
    "bad_word",
    "braid_path",
    "enumerate_words",
    "good_word",
    "is_reduced",
    "lusztig_labels",
    "random_longest_words",
    "word_ending_in",
    "word_starting_with",
    "Representation",
    "build_E",
    "build_E_rightmost",
    "build_F",
    "build_K",
    "build_rep",
    "classical_render",
    "operator_text",
    "conjugation_factor",
    "closed_form_An",
    "closed_form_Dn",
    "cross_parity_certificate",
    "distinguished_lambda_forms",
    "qtori_certificate",
    "verify_weyl_pattern",
    "path_independence",
]
__version__ = "0.1.0"
