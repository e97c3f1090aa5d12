"""Exact arithmetic for q-commuting exponential monomials.

Everything in this engine is a finite sum of monomials

    c * exp(pi*b*(alpha.u + 2*gamma.p + ell.lam + const)),

where ``u`` and ``p`` are coordinate/momentum variables indexed by word
positions with [p_k, u_k] = 1/(2*pi*i), ``lam`` are central parameters
indexed by node labels, and ``const`` is a central integer slot.  The
coefficient ``c`` lives in the ring of integer Laurent polynomials in
``v`` with v**2 = q; this keeps every identity in the package exact.

Multiplying two monomials adds exponents and picks up the cocycle
q**(s/2) = v**s with

    s = alpha1.gamma2 - gamma1.alpha2,

so that m1*m2 = q**s * m2*m1.  A weight-shift term ``[L]e(P)`` (scalar
times a quantized weight times a momentum shift) expands to exactly two
monomials:

    scalar * (v**(1+s) * m(L + 2P) + v**(-1-s) * m(-L + 2P)),  s = L_u.P,

and ``rebracket`` reverses this expansion on canonical operators.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple


class RebracketError(ValueError):
    """An operator is not a sum of weight-shift terms."""


# ---------------------------------------------------------------------------
# Coefficient ring: integer Laurent polynomials in v, with v**2 = q.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VLaurent:
    """An integer Laurent polynomial in v, stored as valuation + dense coeffs.

    >>> VLaurent.v_power(2) + VLaurent.v_power(-2)   # [2]_q
    VLaurent('v^2 + v^-2')
    >>> VLaurent.q_power(1) * VLaurent.v_power(-2)
    VLaurent('1')
    """

    val: int
    coeffs: tuple[int, ...]

    def __init__(self, val: int, coeffs: Iterable[int]):
        coeffs = list(coeffs)
        lo, hi = 0, len(coeffs)
        while lo < hi and coeffs[lo] == 0:
            lo += 1
            val += 1
        while lo < hi and coeffs[hi - 1] == 0:
            hi -= 1
        if lo == hi:
            val = 0
        object.__setattr__(self, "val", val)
        object.__setattr__(self, "coeffs", tuple(coeffs[lo:hi]))

    @staticmethod
    def zero() -> VLaurent:
        return VLaurent(0, ())

    @staticmethod
    def one() -> VLaurent:
        return VLaurent(0, (1,))

    @staticmethod
    def v_power(k: int, coef: int = 1) -> VLaurent:
        return VLaurent(k, (coef,))

    @staticmethod
    def q_power(k: int, coef: int = 1) -> VLaurent:
        return VLaurent(2 * k, (coef,))

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_unit_monomial(self) -> bool:
        """True when the coefficient is a single power of v with coefficient 1."""
        return self.coeffs == (1,)

    def shift(self, k: int) -> VLaurent:
        """Multiply by v**k."""
        if not self.coeffs:
            return self
        return VLaurent(self.val + k, self.coeffs)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __neg__(self) -> VLaurent:
        return VLaurent(self.val, tuple(-c for c in self.coeffs))

    def __add__(self, other: VLaurent) -> VLaurent:
        if not self.coeffs:
            return other
        if not other.coeffs:
            return self
        lo = min(self.val, other.val)
        hi = max(self.val + len(self.coeffs), other.val + len(other.coeffs))
        acc = [0] * (hi - lo)
        for i, c in enumerate(self.coeffs):
            acc[self.val - lo + i] += c
        for i, c in enumerate(other.coeffs):
            acc[other.val - lo + i] += c
        return VLaurent(lo, acc)

    def __sub__(self, other: VLaurent) -> VLaurent:
        return self + (-other)

    def __mul__(self, other: VLaurent) -> VLaurent:
        if not self.coeffs or not other.coeffs:
            return VLaurent.zero()
        if self.coeffs == (1,):
            return other.shift(self.val)
        if other.coeffs == (1,):
            return self.shift(other.val)
        acc = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    acc[i + j] += a * b
        return VLaurent(self.val + other.val, acc)

    def __repr__(self) -> str:
        return f"VLaurent('{self.fmt()}')"

    def fmt(self, var: str = "v") -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            e = self.val + i
            if e == 0:
                mono = str(abs(c))
            else:
                head = "" if abs(c) == 1 else f"{abs(c)}*"
                mono = f"{head}{var}" + (f"^{e}" if e != 1 else "")
            if not parts:
                parts.append(("-" if c < 0 else "") + mono)
            else:
                parts.append(("- " if c < 0 else "+ ") + mono)
        return " ".join(parts)

    def fmt_q(self) -> str:
        """Format in q = v**2 when all exponents are even, else in v."""
        if self.coeffs and all(
            c == 0 or (self.val + i) % 2 == 0 for i, c in enumerate(self.coeffs)
        ):
            half = VLaurent(self.val // 2, self.coeffs[::2]) if self.coeffs else self
            return half.fmt("q")
        return self.fmt("v")


# ---------------------------------------------------------------------------
# Sparse exponent vectors.
# ---------------------------------------------------------------------------

SparseVec = tuple  # tuple[(index, value), ...] sorted by index, values nonzero


def sparse(entries: dict | Iterable) -> SparseVec:
    """Normalize {index: value} (or pairs) into a sorted sparse tuple."""
    if not isinstance(entries, dict):
        entries = dict(entries)
    out = []
    for k in sorted(entries):
        value = entries[k]
        if value.__class__ is Fraction and value.denominator == 1:
            value = int(value)
        if value != 0:
            out.append((k, value))
    return tuple(out)


def sparse_add(a: SparseVec, b: SparseVec) -> SparseVec:
    if not a:
        return b
    if not b:
        return a
    out = []
    ia = ib = 0
    na, nb = len(a), len(b)
    while ia < na and ib < nb:
        ka, va = a[ia]
        kb, vb = b[ib]
        if ka < kb:
            out.append(a[ia])
            ia += 1
        elif kb < ka:
            out.append(b[ib])
            ib += 1
        else:
            v = va + vb
            if v.__class__ is Fraction and v.denominator == 1:
                v = int(v)
            if v != 0:
                out.append((ka, v))
            ia += 1
            ib += 1
    out.extend(a[ia:])
    out.extend(b[ib:])
    return tuple(out)


def sparse_neg(a: SparseVec) -> SparseVec:
    return tuple((k, -v) for k, v in a)


def sparse_scale(a: SparseVec, c) -> SparseVec:
    if c == 0:
        return ()
    out = []
    for k, v in a:
        value = c * v
        if value.__class__ is Fraction and value.denominator == 1:
            value = int(value)
        if value != 0:
            out.append((k, value))
    return tuple(out)


def sparse_dot(a: SparseVec, b: SparseVec):
    if not a or not b:
        return 0
    acc = 0
    ia = ib = 0
    na, nb = len(a), len(b)
    while ia < na and ib < nb:
        ka = a[ia][0]
        kb = b[ib][0]
        if ka < kb:
            ia += 1
        elif kb < ka:
            ib += 1
        else:
            acc += a[ia][1] * b[ib][1]
            ia += 1
            ib += 1
    return acc


# ---------------------------------------------------------------------------
# Monomials and operators.
# ---------------------------------------------------------------------------

class QExponent(NamedTuple):
    """Exponent data of one monomial: u-part, p-part, lambda-part, constant."""

    alpha: SparseVec
    gamma: SparseVec
    ell: SparseVec
    const: int

    def inverse(self) -> QExponent:
        return QExponent(
            sparse_neg(self.alpha), sparse_neg(self.gamma),
            sparse_neg(self.ell), -self.const,
        )


EXP_ONE = QExponent((), (), (), 0)


def exponent(alpha=(), gamma=(), ell=(), const=0) -> QExponent:
    return QExponent(sparse(dict(alpha)), sparse(dict(gamma)), sparse(dict(ell)), const)


def commutation_exponent(e1: QExponent, e2: QExponent) -> int:
    """s with m1*m2 = q**s * m2*m1; the lambda and constant slots are central."""
    return sparse_dot(e1.alpha, e2.gamma) - sparse_dot(e1.gamma, e2.alpha)


def pair_exponents(expos: list[QExponent]) -> dict[tuple[int, int], int]:
    """The commutation exponent of every pair (a, b), a < b, of ``expos``."""
    return {
        (a, b): commutation_exponent(expos[a], expos[b])
        for a in range(len(expos))
        for b in range(a + 1, len(expos))
    }


def exponent_product(e1: QExponent, e2: QExponent) -> QExponent:
    return QExponent(
        sparse_add(e1.alpha, e2.alpha),
        sparse_add(e1.gamma, e2.gamma),
        sparse_add(e1.ell, e2.ell),
        e1.const + e2.const,
    )


class _EntryOrder(dict):
    """Sparse entry (k, v) -> its code in the dense lexicographic order.

    Two sparse vectors compare as dense ones (missing entries 0) when each
    becomes its sequence of entry codes closed by ``_PART_END``: at the
    first index where they differ, a negative entry (0, k, v) sorts below
    an absent one and a positive entry (2, -k, v) above it.  The codes are
    built once per sort and shared by every exponent that holds the entry.
    """

    def __missing__(self, entry: tuple) -> tuple:
        k, v = entry
        code = self[entry] = (0, k, v) if v < 0 else (2, -k, v)
        return code


_PART_END = (1,)


def canonical_order(exponents: Iterable[QExponent]) -> tuple[QExponent, ...]:
    """Exponents sorted by (alpha, gamma, ell) as dense vectors, then const.

    The order only fixes the order in which monomials and brackets are
    listed and printed.
    """
    code = _EntryOrder().__getitem__

    def key(e: QExponent) -> tuple:
        return (*map(code, e.alpha), _PART_END, *map(code, e.gamma), _PART_END,
                *map(code, e.ell), _PART_END, e.const)

    return tuple(sorted(exponents, key=key))


class QMonomial(NamedTuple):
    expo: QExponent
    coeff: VLaurent


class QOperator:
    """A canonical finite sum of q-commuting monomials.

    Stored as a mapping exponent -> nonzero coefficient; equality is exact.
    Instances are immutable by convention: algorithms always build fresh
    term dictionaries, so the canonical order is sorted once and kept.
    """

    __slots__ = ("terms", "_order")

    def __init__(self, terms: dict[QExponent, VLaurent] | None = None):
        clean: dict[QExponent, VLaurent] = {}
        if terms:
            for e, c in terms.items():
                if c.coeffs:
                    clean[e] = c
        self.terms = clean
        self._order: tuple[QExponent, ...] | None = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> QOperator:
        return QOperator()

    @staticmethod
    def one() -> QOperator:
        return QOperator({EXP_ONE: VLaurent.one()})

    @staticmethod
    def monomial(expo: QExponent, coeff: VLaurent | None = None) -> QOperator:
        return QOperator({expo: coeff if coeff is not None else VLaurent.one()})

    @staticmethod
    def from_monomials(monos: Iterable[tuple[QExponent, VLaurent]]) -> QOperator:
        """Sum (exponent, coefficient) pairs, merging equal exponents."""
        acc: dict[QExponent, VLaurent] = {}
        for expo, coeff in monos:
            prev = acc.get(expo)
            acc[expo] = coeff if prev is None else prev + coeff
        return QOperator(acc)

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __len__(self) -> int:
        return len(self.terms)

    def exponents(self) -> tuple[QExponent, ...]:
        """Exponents in the canonical (lexicographic on exponents) order."""
        if self._order is None:
            self._order = canonical_order(self.terms)
        return self._order

    def monomials(self) -> list[QMonomial]:
        """Terms in the canonical order."""
        return [QMonomial(e, self.terms[e]) for e in self.exponents()]

    def single_monomial(self) -> QMonomial:
        if len(self.terms) != 1:
            raise ValueError(f"expected a single monomial, found {len(self.terms)}")
        ((e, c),) = self.terms.items()
        return QMonomial(e, c)

    def __eq__(self, other) -> bool:
        return isinstance(other, QOperator) and self.terms == other.terms

    def __hash__(self):
        raise TypeError("QOperator is not hashable")

    def __repr__(self) -> str:
        n = len(self.terms)
        return f"<QOperator with {n} monomial{'s' if n != 1 else ''}>"

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: QOperator) -> QOperator:
        return add(self, other)

    def __neg__(self) -> QOperator:
        return QOperator({e: -c for e, c in self.terms.items()})

    def __sub__(self, other: QOperator) -> QOperator:
        return self + (-other)

    def scale(self, coeff: VLaurent) -> QOperator:
        if not coeff.coeffs:
            return QOperator()
        return QOperator({e: c * coeff for e, c in self.terms.items()})

    def scale_v(self, k: int) -> QOperator:
        """Multiply by v**k."""
        return QOperator({e: c.shift(k) for e, c in self.terms.items()})

    def __mul__(self, other: QOperator) -> QOperator:
        return QOperator.from_monomials(
            (exponent_product(e1, e2), (c1 * c2).shift(commutation_exponent(e1, e2)))
            for e1, c1 in self.terms.items()
            for e2, c2 in other.terms.items()
        )


def add(*ops: QOperator) -> QOperator:
    return QOperator.from_monomials(mono for op in ops for mono in op.terms.items())


def q_commutator(x: QOperator, y: QOperator, v_twist: int = 0) -> QOperator:
    """x*y - v**v_twist * y*x in one pass over the monomial pairs.

    v_twist=0 is the plain commutator.  For monomials m1, m2 with
    m1*m2 = q**s * m2*m1 both products land on the same exponent, so the
    pair contributes c1*c2*(v**s - v**(v_twist - s)) there; pairs with
    2*s == v_twist cancel exactly and are skipped.
    """
    acc: dict[QExponent, VLaurent] = {}
    diffs: dict[int, VLaurent] = {}
    for e1, c1 in x.terms.items():
        for e2, c2 in y.terms.items():
            s = commutation_exponent(e1, e2)
            if 2 * s == v_twist:
                continue
            diff = diffs.get(s)
            if diff is None:
                diff = diffs[s] = VLaurent.v_power(s) - VLaurent.v_power(v_twist - s)
            c = c1 * c2 * diff
            e = exponent_product(e1, e2)
            prev = acc.get(e)
            acc[e] = c if prev is None else prev + c
    return QOperator(acc)


# ---------------------------------------------------------------------------
# Weight-shift terms ("brackets").
# ---------------------------------------------------------------------------

class BracketTerm(NamedTuple):
    """scalar * [L] e(P): L is a linear form, P an integer momentum shift."""

    scalar: VLaurent
    l_alpha: SparseVec  # u-coefficients of L (integers)
    l_ell: SparseVec    # lambda-coefficients of L (rationals)
    l_const: int
    shift: SparseVec    # P

    def weight(self) -> tuple[SparseVec, SparseVec, int]:
        """The bracket content as-is: (u-part, lambda-part, constant) of L."""
        return (self.l_alpha, self.l_ell, self.l_const)


def bracket(l_alpha=(), l_ell=(), l_const=0, shift=(), scalar: VLaurent | None = None) -> BracketTerm:
    term = BracketTerm(
        scalar if scalar is not None else VLaurent.one(),
        sparse(dict(l_alpha)), sparse(dict(l_ell)), l_const, sparse(dict(shift)),
    )
    if not (term.l_alpha or term.l_ell or term.l_const):
        raise ValueError("bracket linear form must not be identically zero")
    return term


def expand_bracket(term: BracketTerm) -> QOperator:
    """Expand scalar*[L]e(P) into its two monomials."""
    if not (term.l_alpha or term.l_ell or term.l_const):
        raise ValueError("bracket linear form must not be identically zero")
    s = sparse_dot(term.l_alpha, term.shift)
    plus = QExponent(term.l_alpha, term.shift, term.l_ell, term.l_const)
    minus = QExponent(
        sparse_neg(term.l_alpha), term.shift, sparse_neg(term.l_ell), -term.l_const
    )
    return QOperator.from_monomials(
        ((plus, term.scalar.shift(1 + s)), (minus, term.scalar.shift(-1 - s)))
    )


def operator_from_brackets(terms: Iterable[BracketTerm]) -> QOperator:
    return add(*(expand_bracket(t) for t in terms))


def rebracket(op: QOperator) -> list[BracketTerm]:
    """Decompose a canonical operator into weight-shift terms.

    Monomials are matched in pairs with equal momentum shift and opposite
    (u, lambda, const) parts; the orientation of each pair is fixed by the
    coefficient ratio v**(2*(1+s)).  Raises RebracketError when a monomial
    has no partner or no orientation is consistent.
    """
    remaining = dict(op.terms)
    out: list[BracketTerm] = []
    for e in op.exponents():
        if e not in remaining:
            continue
        partner = e.inverse()._replace(gamma=e.gamma)
        if partner == e:
            raise RebracketError(f"monomial with zero weight part: {e!r}")
        c1 = remaining.pop(e)
        c2 = remaining.pop(partner, None)
        if c2 is None:
            raise RebracketError(f"unpaired monomial: {e!r}")
        s = sparse_dot(e.alpha, e.gamma)
        if c1 == c2.shift(2 * (1 + s)):
            plus, scalar = e, c1.shift(-1 - s)
        elif c2 == c1.shift(2 * (1 - s)):
            plus, scalar = partner, c2.shift(-1 + s)
        else:
            raise RebracketError(f"no bracket orientation fits the pair at {e!r}")
        out.append(BracketTerm(scalar, plus.alpha, plus.ell, plus.const, plus.gamma))
    return out


def term_count(op: QOperator) -> int:
    """Number of weight-shift terms of a bracket-form operator."""
    return len(rebracket(op))
