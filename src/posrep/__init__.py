"""Exact symbolic engine for positive principal series representations of
simply-laced split real quantum groups.

Generators act as finite sums of q-commuting exponential monomials on an
integer symplectic exponent lattice indexed by the positions of a reduced
word for the longest Weyl group element; all coefficients live in
Z[v, v^-1] with v^2 = q, so every check in the package is exact.

The package re-exports nothing: each name is imported from its own module,
e.g. ``from posrep.transport import transport_bundle``.
"""
