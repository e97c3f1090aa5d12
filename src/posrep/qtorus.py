"""Exact arithmetic for q-commuting exponential monomials.

Everything in this engine is a finite sum of monomials

    c * exp(pi*b*(alpha.u + 2*gamma.p + ell.lam)),

where ``u`` and ``p`` are coordinate/momentum variables indexed by word
positions with [p_k, u_k] = 1/(2*pi*i) and ``lam`` are central parameters
indexed by node labels, so an exponent is (alpha, gamma, ell).  The
coefficient ``c`` lives in the ring of integer Laurent polynomials in
``v`` with v**2 = q; this keeps every identity in the package exact, and
a scalar factor never needs a constant term in the exponent.

Multiplying two monomials adds exponents and picks up the cocycle
q**(s/2) = v**s with

    s = alpha1.gamma2 - gamma1.alpha2,

so that m1*m2 = q**s * m2*m1.  A weight-shift term ``[L]e(P)`` (scalar
times a quantized weight times a momentum shift) expands to exactly two
monomials:

    scalar * (v**(1+s) * m(L + 2P) + v**(-1-s) * m(-L + 2P)),  s = L_u.P,

and ``rebracket`` reverses this expansion on canonical operators.

The u-part ``alpha`` and the p-part ``gamma`` of an exponent are packed
into one Python int each.  Position k owns the SLOT_BITS-bit field k, and
the int is the signed-linear sum

    alpha = sum_k alpha_k << (SLOT_BITS * k),

so the zero vector is 0 and adding, negating or scaling vectors is a
single int operation.  Fields are read by adding the bias B_n, which
holds SLOT_BIAS = 2**(SLOT_BITS - 1) in each of the fields 0..n-1: field k
of alpha + B_n is alpha_k + SLOT_BIAS, a value in [1, 2**SLOT_BITS), so no
field borrows from its neighbour.  The overflow rule is that every entry
satisfies |alpha_k| < SLOT_BIAS.  ``pack`` checks its input, and a
product, a power or a braid image with an entry out of range raises
SlotOverflowError before any term is formed; nothing wraps into a
neighbouring field.  The lambda part ``ell`` may hold Fractions, so it
stays a sparse (label, value) tuple, normalized by ``sparse``.

``permute_fields`` is the one routine that rewrites fields in bulk: it
writes each x + B_n as a row of n unsigned SLOT_BITS-bit fields and copies
whole columns.  A transport's relabel permutes positions with it, and
``canonical_order`` keys a u/p part by its fields reversed, position 0 in
the top field, so that int order is dense lexicographic order.

The pair kernel behind ``QOperator.__mul__`` and ``q_commutator`` sums
coefficients with the same signed-linear rule.  One call first fixes its
window [lo, hi) of v-powers, from the lowest and highest powers of the
coefficients and the extremes of the commutation exponents, and a field
width w one bit above the l1 bound (sum of |coefficients| over x) times
(the same over y), which no field sum can exceed.  A coefficient sum then
packs to sum_k c_k << (w * (k - lo)), the coefficient of v**k in field
k - lo, and sums of packed ints stay exact.  Each distinct sum is decoded
once, by adding the bias that holds 2**(w-1) in each of its hi - lo
fields and masking every field out (``unpack``).  The window is a checked
bound: when hi - lo exceeds MAX_COEFF_SPAN the call raises
CoefficientSpanError before it packs anything.  VLaurent itself stays
dense.

The nested kernel ``nested_q_commutator`` sums [x, [x, y]_s]_t without
forming [x, y]_s.  Since the commutation exponent of m_a with m(e_b + e_c)
is s_ab + s_ac, monomials m_a, m_b of x and m_c of y add
c_a*c_b*c_c*g(a, b, c) * m(e_a + e_b + e_c), with

    g(a, b, c) = (v**s_bc - v**(s - s_bc)) * (v**(s_ab + s_ac) - v**(t - s_ab - s_ac)).

The sum runs over unordered pairs a <= b of x's monomials, with the
factor g(a, b, c) + g(b, a, c) for a != b and g(a, a, c) for a == b.  g
has two positive and two negative powers of v, so no coefficient of g
exceeds 2 in size and one ordered triple adds at most
2*l1(c_a)*l1(c_b)*l1(c_c) to a field: the width is one bit above
2 * l1(x)**2 * l1(y), with l1(x) the sum of |coefficients| over x.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import compress, islice, zip_longest
from operator import mul
from typing import Iterable, NamedTuple


class RebracketError(ValueError):
    """An operator is not a sum of weight-shift terms."""


# ---------------------------------------------------------------------------
# Coefficient ring: integer Laurent polynomials in v, with v**2 = q.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VLaurent:
    """An integer Laurent polynomial in v, stored as valuation + dense coeffs.

    >>> VLaurent.q_power(1) + VLaurent.q_power(-1)   # [2]_q
    VLaurent('v^2 + v^-2')
    >>> VLaurent.q_power(1) * VLaurent(-2, (1,))
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
    def q_power(k: int) -> VLaurent:
        return VLaurent(2 * k, (1,))

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
# Packed u/p vectors (layout and overflow rule in the module docstring).
# ---------------------------------------------------------------------------

SLOT_BITS = 16
SLOT_BIAS = 1 << (SLOT_BITS - 1)
_FIELD_CODES = {16: "h", 32: "i", 64: "q"}  # struct codes of signed fields by width


class SlotOverflowError(ArithmeticError):
    """An exponent entry does not fit its packed field (|value| < SLOT_BIAS)."""


MAX_COEFF_SPAN = 1 << 16


class CoefficientSpanError(ArithmeticError):
    """A product or q-commutator would spread its coefficients over more
    than MAX_COEFF_SPAN powers of v."""


@lru_cache(maxsize=512)
def _layout(n: int, width: int = SLOT_BITS) -> tuple[struct.Struct | None, int]:
    """The struct of n signed little-endian ``width``-bit fields (None for a
    width with no struct code), and the bias that holds 2**(width-1) in
    each of the n fields."""
    bias = ((1 << (width * n)) - 1) // ((1 << width) - 1) << (width - 1)
    code = _FIELD_CODES.get(width)
    return (struct.Struct(f"<{n}{code}") if code else None), bias


def field_bias(n: int) -> int:
    """B_n, which holds SLOT_BIAS in each of the fields 0..n-1: field k of
    x + B_n is x_k + SLOT_BIAS for every k < n."""
    return _layout(n)[1]


def field_count(x: int) -> int:
    """A field count that covers every nonzero field of x."""
    return abs(x).bit_length() // SLOT_BITS + 1


def check_entry(value, where: str) -> None:
    """Raise unless ``value`` is an int that fits a packed field."""
    if value.__class__ is not int:
        raise ValueError(f"u/p exponent entries must be integers, got {value!r} {where}")
    if not -SLOT_BIAS < value < SLOT_BIAS:
        raise SlotOverflowError(
            f"exponent entry {value} {where} does not fit a {SLOT_BITS}-bit slot field"
        )


def pack(row, width: int = SLOT_BITS) -> int:
    """The packed int of a dense row: position k holds row[k].

    Only the pairing kernel passes a wider ``width``, to pack columns of
    SLOT_BITS-bit entries.
    """
    layout, bias = _layout(len(row), width)
    try:
        if row and min(row) <= -SLOT_BIAS:
            raise ValueError
        # flipping the top bit of each two's-complement field gives value + bias
        return (int.from_bytes(layout.pack(*row), "little") ^ bias) - bias
    except (ValueError, TypeError, struct.error):
        for k, value in enumerate(row):
            check_entry(value, f"at position {k}")
        raise


def unpack(x: int, n: int | None = None, width: int = SLOT_BITS) -> tuple[int, ...]:
    """Fields 0..n-1 of a packed int (default: through its last nonzero field).

    Any ``width`` works; 16, 32 and 64 decode through ``struct``."""
    if n is None:
        n = field_count(x)
    layout, bias = _layout(n, width)
    if layout is None:
        # x + bias holds value + 2**(width-1) in every field: mask each out
        mask, half, x = (1 << width) - 1, 1 << (width - 1), x + bias
        return tuple([((x >> shift) & mask) - half for shift in range(0, n * width, width)])
    # flipping each field's top bit of x + bias gives the two's-complement field
    return layout.unpack(((x + bias) ^ bias).to_bytes(layout.size, "little"))


_PERMUTE_BLOCK = 4096  # packed ints per permute_fields buffer


def permute_fields(xs: Iterable[int], n: int, copies: list[tuple[int, int]]) -> list[int]:
    """The packed ints xs with field p of each read from field q, for every
    (p, q) in ``copies``; every other field of the n stays where it is.

    Each x + B_n is written as a row of n unsigned SLOT_BITS-bit fields, and
    one strided copy per pair moves column q of the rows into column p.
    Rows go through in blocks of _PERMUTE_BLOCK, which bounds the buffers.
    """
    bias, width = field_bias(n), n * SLOT_BITS // 8
    code = _FIELD_CODES[SLOT_BITS].upper()
    out: list[int] = []
    xs = iter(xs)
    while block := list(islice(xs, _PERMUTE_BLOCK)):
        src = b"".join([(x + bias).to_bytes(width, "little") for x in block])
        dst = bytearray(src)
        rows, cols = memoryview(src).cast(code), memoryview(dst).cast(code)
        for p, q in copies:
            cols[p::n] = rows[q::n]
        view = memoryview(dst)
        out += [
            int.from_bytes(view[r : r + width], "little") - bias
            for r in range(0, len(dst), width)
        ]
    return out


def pack_entries(items) -> int:
    """The packed int of {position: value} or of (position, value) pairs."""
    items = dict(items)
    if not items:
        return 0
    if min(items) < 0:
        raise ValueError(f"negative position {min(items)} in a u/p vector")
    row = [0] * (max(items) + 1)
    for k, value in items.items():
        row[k] = value
    return pack(row)


def entries(x: int) -> tuple[tuple[int, int], ...]:
    """The nonzero (position, value) entries of a packed int, by position."""
    fields = unpack(x)
    return tuple(compress(enumerate(fields), fields))


def _dot(x: int, y: int) -> int:
    n = max(field_count(x), field_count(y))
    return sum(map(mul, unpack(x, n), unpack(y, n)))


# ---------------------------------------------------------------------------
# Lambda parts: sparse (label, value) vectors whose values may be Fractions.
# ---------------------------------------------------------------------------

SparseVec = tuple  # tuple[(label, value), ...] sorted by label, values nonzero


def sparse(entries: dict | Iterable) -> SparseVec:
    """Normalize {label: value} (or pairs) into a sorted sparse tuple."""
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
    total = dict(a)
    for k, v in b:
        total[k] = total.get(k, 0) + v
    return sparse(total)


def sparse_neg(a: SparseVec) -> SparseVec:
    return tuple((k, -v) for k, v in a)


def sparse_scale(a: SparseVec, c) -> SparseVec:
    return sparse({k: c * v for k, v in a})


# ---------------------------------------------------------------------------
# Monomials and operators.
# ---------------------------------------------------------------------------

class QExponent(NamedTuple):
    """Exponent data of one monomial: packed u-part, packed p-part,
    lambda-part."""

    alpha: int
    gamma: int
    ell: SparseVec

    def power(self, n: int) -> QExponent:
        """The exponent of the n-th power; SlotOverflowError if an entry
        would leave its field."""
        for x in (self.alpha, self.gamma):
            k, value = max(enumerate(unpack(x)), key=lambda kv: abs(kv[1]))
            check_entry(n * value, f"at position {k} of a power")
        return QExponent(n * self.alpha, n * self.gamma, sparse_scale(self.ell, n))


EXP_ONE = QExponent(0, 0, ())


def exponent(alpha=(), gamma=(), ell=()) -> QExponent:
    """An exponent from {position: value} u- and p-parts and a {label: value} lambda part."""
    return QExponent(pack_entries(alpha), pack_entries(gamma), sparse(ell))


class _Rows:
    """Decoded u/p rows of a list of exponents: the pairing kernel's input.

    ``alpha[i]`` and ``gamma[i]`` are the dense rows of exponent i over
    ``n`` positions, and ``bound`` is the largest |entry|.  The nonzero
    entries of the rows and the column packings are built on first use.
    """

    __slots__ = ("n", "alpha", "gamma", "bound", "_sparse", "_columns")

    def __init__(self, expos):
        n = max((field_count(x) for e in expos for x in (e.alpha, e.gamma)), default=0)
        self.n = n
        self.alpha = [unpack(e.alpha, n) for e in expos]
        self.gamma = [unpack(e.gamma, n) for e in expos]
        self.bound = max((max(max(r), -min(r)) for r in (*self.alpha, *self.gamma)), default=0)
        self._sparse = None
        self._columns: dict[int, tuple[list[int], list[int]]] = {}

    def sparse(self) -> tuple[list, int]:
        """Per row, its nonzero (position, value) u- and p-entries; and the
        largest sum of |entries| over one row."""
        if self._sparse is None:
            shared: dict[tuple, tuple] = {}  # one (position, value) tuple per distinct entry
            rows = [
                tuple([shared.setdefault(kv, kv) for kv in compress(enumerate(row), row)]
                      for row in pair)
                for pair in zip(self.alpha, self.gamma)
            ]
            l1 = max((sum(map(abs, a)) + sum(map(abs, g)) for a, g in zip(self.alpha, self.gamma)),
                     default=0)
            self._sparse = rows, l1
        return self._sparse

    def columns(self, n: int, width: int) -> tuple[list[int], list[int]]:
        """Column k of the u- and of the p-rows, each packed into one int
        with a ``width``-bit field per row; zero columns past ``self.n`` pad
        the lists to n."""
        cols = self._columns.get(width)
        if cols is None:
            cols = self._columns[width] = tuple(
                [pack(col, width) for col in zip(*rows)] for rows in (self.alpha, self.gamma)
            )
        pad = [0] * (n - self.n)
        return cols[0] + pad, cols[1] + pad


def _pairing_rows(tx: _Rows, ty: _Rows):
    """Yield, per x-row, its commutation exponents with every y-row.

    y's p-rows are packed column-wise, one ``width``-bit field per y-row,
    so an x u-entry times one column int adds that entry's products with
    all y-rows at once; one unpack reads the row of exponents.  ``width``
    bounds every |exponent| (row sum of |x entries| times y's bound), so
    no field carries into the next.
    """
    rows, l1 = tx.sparse()
    limit = l1 * ty.bound
    width = next(w for w in _FIELD_CODES if limit < 1 << (w - 1))
    acols, gcols = ty.columns(max(tx.n, ty.n), width)
    m = len(ty.alpha)
    for ea, eg in rows:
        total = 0
        for k, v in ea:
            total += v * gcols[k]
        for k, v in eg:
            total -= v * acols[k]
        yield unpack(total, m, width)


def _check_products(tx: _Rows, ty: _Rows, nx: int = 1) -> None:
    """SlotOverflowError when the sum of ``nx`` x-exponents and one
    y-exponent has an entry outside its field.  Exact: it compares column
    extremes, and only when the bounds allow an overflow at all."""
    if nx * tx.bound + ty.bound < SLOT_BIAS:
        return
    for xrows, yrows in ((tx.alpha, ty.alpha), (tx.gamma, ty.gamma)):
        for k, (xc, yc) in enumerate(zip_longest(zip(*xrows), zip(*yrows), fillvalue=(0,))):
            for value in (nx * max(xc) + max(yc), nx * min(xc) + min(yc)):
                check_entry(value, f"at position {k} of a product")


def pairing_matrix(xs, ys) -> list[tuple[int, ...]]:
    """commutation_exponent(x, y) for every x of ``xs`` (rows) and y of ``ys``."""
    return list(_pairing_rows(_Rows(xs), _Rows(ys)))


def commutation_exponent(e1: QExponent, e2: QExponent) -> int:
    """s with m1*m2 = q**s * m2*m1; the lambda part is central."""
    return pairing_matrix((e1,), (e2,))[0][0]


def canonical_order(exponents: Iterable[QExponent]) -> tuple[QExponent, ...]:
    """Exponents sorted by (alpha, gamma, ell) as dense vectors.

    The order only fixes the order in which monomials and brackets are
    listed and printed.  A u- or p-part sorts by its fields reversed
    (``permute_fields``), so that position 0 holds the top field: every
    field is biased, so over a common field count int order of the result
    is dense lexicographic order.  A lambda part sorts as its dense vector
    over the labels that occur in any of the exponents.
    """
    exps = list(exponents)
    parts = dict.fromkeys(x for e in exps for x in (e.alpha, e.gamma))
    n = max(map(field_count, parts), default=1)
    keys = dict(zip(parts, permute_fields(parts, n, [(p, n - 1 - p) for p in range(n)])))

    ells = dict.fromkeys(e.ell for e in exps)
    labels = sorted({k for ell in ells for k, _ in ell})
    for ell in ells:
        row = dict(ell)
        ells[ell] = tuple([row.get(k, 0) for k in labels])

    def key(e: QExponent) -> tuple:
        return keys[e.alpha], keys[e.gamma], ells[e.ell]

    return tuple(sorted(exps, key=key))


class QMonomial(NamedTuple):
    expo: QExponent
    coeff: VLaurent


class QOperator:
    """A canonical finite sum of q-commuting monomials.

    Stored as a mapping exponent -> nonzero coefficient; equality is exact.
    Instances are immutable by convention: algorithms always build fresh
    term dictionaries, so the canonical order is sorted once and kept, and
    so are the decoded u/p rows the pairing kernel reads.
    """

    __slots__ = ("terms", "_order", "_rows")

    def __init__(self, terms: dict[QExponent, VLaurent] | None = None):
        clean: dict[QExponent, VLaurent] = {}
        if terms:
            for e, c in terms.items():
                if c.coeffs:
                    clean[e] = c
        self.terms = clean
        self._order: tuple[QExponent, ...] | None = None
        self._rows: _Rows | None = None

    # -- constructors ------------------------------------------------------

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
        return _pair_sum(self, other, None)


def _rows_of(op: QOperator) -> _Rows:
    """The decoded u/p rows of an operator's terms, in ``terms`` order."""
    if op._rows is None:
        op._rows = _Rows(list(op.terms))
    return op._rows


def add(*ops: QOperator) -> QOperator:
    return QOperator.from_monomials(mono for op in ops for mono in op.terms.items())


def q_commutator(x: QOperator, y: QOperator, v_twist: int = 0) -> QOperator:
    """x*y - v**v_twist * y*x in one pass over the monomial pairs.

    v_twist=0 is the plain commutator.  For monomials m1, m2 with
    m1*m2 = q**s * m2*m1 both products land on the same exponent, so the
    pair contributes c1*c2*(v**s - v**(v_twist - s)) there; pairs with
    2*s == v_twist cancel exactly and are skipped.
    """
    return _pair_sum(x, y, v_twist)


class _Sums:
    """Per-call state that the pair and nested kernels share.

    The terms of x and y are interned: each distinct coefficient and
    central lambda part gets an id, so each coefficient is packed once and
    each lambda sum is formed once.  A kernel sums packed coefficients
    under the key (alpha, gamma, lambda id); ``window`` fixes
    the v-power window and the field width (module docstring), and
    ``decode`` reads each distinct nonzero sum once.
    """

    def __init__(self, x: QOperator, y: QOperator):
        coeffs: dict[VLaurent, int] = {}
        self.centrals: dict[tuple, int] = {}
        centrals = self.centrals
        self.terms = [
            [(e.alpha, e.gamma, centrals.setdefault(e.ell, len(centrals)),
              coeffs.setdefault(c, len(coeffs)))
             for e, c in op.terms.items()]
            for op in (x, y)
        ]
        self.ids = [{ce for _, _, ce, _ in terms} for terms in self.terms]
        self.coeff_of = list(coeffs)

    def central_sums(self, lefts, rights) -> dict[int, dict[int, int]]:
        """{l: {r: id of lambda part l + lambda part r}} over the ids given."""
        centrals = self.centrals
        part_of = list(centrals)
        table: dict[int, dict[int, int]] = {}
        for cl in lefts:
            row = table[cl] = {}
            for cr in rights:
                row[cr] = centrals.setdefault(sparse_add(part_of[cl], part_of[cr]), len(centrals))
        return table

    def window(self, nx: int, plo: int, phi: int, factor_max: int) -> None:
        """Fix the window of v-powers of nx x-coefficients times one
        y-coefficient times a factor with powers in [plo, phi], and a field
        width for |field sum| <= factor_max * l1(x)**nx * l1(y), where
        factor_max bounds the factor's coefficients; CoefficientSpanError
        when the window is wider than MAX_COEFF_SPAN."""
        l1 = [sum(map(abs, c.coeffs)) for c in self.coeff_of]

        def bounds(terms: list[tuple]) -> tuple[int, int, int]:
            # lowest power, highest power, and the sum of |coefficients| over the terms
            cos = [co for *_, co in terms]
            used = [self.coeff_of[co] for co in set(cos)]
            return (min(c.val for c in used), max(c.val + len(c.coeffs) - 1 for c in used),
                    sum(map(l1.__getitem__, cos)))

        (xlo, xhi, xl1), (ylo, yhi, yl1) = map(bounds, self.terms)
        lo, hi = nx * xlo + ylo + plo, nx * xhi + yhi + phi + 1
        if hi - lo > MAX_COEFF_SPAN:
            raise CoefficientSpanError(
                f"coefficients would span v^{lo}..v^{hi - 1}, more than {MAX_COEFF_SPAN} powers of v"
            )
        self.lo, self.span = lo, hi - lo
        self.width = width = (factor_max * xl1**nx * yl1).bit_length() + 1  # plus a sign bit
        self.packed = [sum(k << (width * i) for i, k in enumerate(c.coeffs)) for c in self.coeff_of]
        self.vals = [c.val for c in self.coeff_of]

    def decode(self, acc: dict[tuple, int]) -> QOperator:
        """The operator of the packed sums, in key order; zero sums form no term."""
        part_of = list(self.centrals)
        decoded: dict[int, VLaurent] = {}  # one VLaurent per distinct nonzero sum
        terms: dict[QExponent, VLaurent] = {}
        for (alpha, gamma, ce), total in acc.items():
            if total:
                c = decoded.get(total)
                if c is None:
                    c = decoded[total] = VLaurent(self.lo, unpack(total, self.span, self.width))
                terms[QExponent(alpha, gamma, part_of[ce])] = c
        return QOperator(terms)


def _pair_sum(x: QOperator, y: QOperator, twist: int | None) -> QOperator:
    """Sum of c1*c2*f(s) * m(e1 + e2) over the monomial pairs of x and y.

    f(s) = v**s gives the product x*y (``twist`` None) and
    f(s) = v**s - v**(twist - s) the q-commutator.  Each distinct factor
    c1*c2*f(s) is packed once per (s, coefficient pair), a pair adds its
    factor's int to its exponent's sum, and each distinct nonzero sum is
    decoded once at the end (``_Sums``).  A factor that packs to 0
    (2*s == twist) forms no term, so terms come out in the order of their
    first nonzero pair.  SlotOverflowError and CoefficientSpanError are
    raised before any term is formed.
    """
    if not (x.terms and y.terms):
        return QOperator()
    tx, ty = _rows_of(x), _rows_of(y)
    _check_products(tx, ty)
    sums = _Sums(x, y)
    xs, ys = sums.terms
    central_sums = sums.central_sums(*sums.ids)
    srows = list(_pairing_rows(tx, ty))
    smin, smax = min(map(min, srows)), max(map(max, srows))
    if twist is not None:
        smin, smax = min(smin, twist - smax), max(smax, twist - smin)
    sums.window(1, smin, smax, 1)
    packed, vals, width, lo = sums.packed, sums.vals, sums.width, sums.lo

    # c1*c2*v**p packs to packed[co1]*packed[co2] shifted to the field of
    # v**(val1 + val2 + p), which is field val1 + val2 + p - lo
    if twist is None:
        def factor(co1: int, co2: int, s: int) -> int:
            return packed[co1] * packed[co2] << width * (vals[co1] + vals[co2] - lo + s)
    else:
        def factor(co1: int, co2: int, s: int) -> int:
            base = vals[co1] + vals[co2] - lo
            return packed[co1] * packed[co2] * (
                (1 << width * (base + s)) - (1 << width * (base + twist - s))
            )

    memos: dict[int, dict] = {}
    acc: dict[tuple, int] = {}
    get = acc.get
    for (a1, g1, ce1, co1), srow in zip(xs, srows):
        ces = central_sums[ce1]
        memo = memos.setdefault(co1, {})
        for (a2, g2, ce2, co2), s in zip(ys, srow):
            f = memo.get((s, co2))
            if f is None:
                f = memo[(s, co2)] = factor(co1, co2, s)
            if f:
                key = (a1 + a2, g1 + g2, ces[ce2])
                acc[key] = get(key, 0) + f
    return sums.decode(acc)


def nested_q_commutator(x: QOperator, y: QOperator, s: int, t: int) -> QOperator:
    """[x, [x, y]_s]_t in one pass over the unordered pairs a <= b of x's
    monomials and the monomials c of y, without forming [x, y]_s (the
    triple sum is in the module docstring).

    Each distinct factor is packed once per (s_ab, a's and b's
    coefficients, a == b) and (s_ac, s_bc, c's coefficient).
    SlotOverflowError (an entry of some x+y or x+x+y exponent leaves its
    field) and CoefficientSpanError are raised before any term is formed,
    so the call raises wherever the nested q_commutator calls raise.
    """
    if not (x.terms and y.terms):
        return QOperator()
    tx, ty = _rows_of(x), _rows_of(y)
    _check_products(tx, ty)
    sums = _Sums(x, y)
    xs, ys = sums.terms
    xids, yids = sums.ids
    ab_sums = sums.central_sums(xids, xids)
    abc_sums = sums.central_sums({ce for row in ab_sums.values() for ce in row.values()}, yids)
    ab_rows = list(_pairing_rows(tx, tx))
    ac_rows = list(_pairing_rows(tx, ty))
    # the powers of g are u + w, u + t - w, s - u + w and s + t - u - w,
    # with u = s_bc and w = s_ab + s_ac
    ulo, uhi = min(map(min, ac_rows)), max(map(max, ac_rows))
    wlo, whi = ulo + min(map(min, ab_rows)), uhi + max(map(max, ab_rows))
    plo = min(ulo + wlo, ulo + t - whi, s - uhi + wlo, s + t - uhi - whi)
    phi = max(uhi + whi, uhi + t - wlo, s - ulo + whi, s + t - ulo - wlo)
    sums.window(2, plo, phi, 2)  # no coefficient of g exceeds 2
    _check_products(tx, ty, 2)
    packed, vals, width, lo = sums.packed, sums.vals, sums.width, sums.lo

    def factor(sab: int, coa: int, cob: int, diagonal: bool, sac: int, sbc: int, coc: int) -> int:
        base = vals[coa] + vals[cob] + vals[coc] - lo

        def g(u: int, w: int) -> int:
            return ((1 << width * (base + u + w)) - (1 << width * (base + u + t - w))
                    - (1 << width * (base + s - u + w)) + (1 << width * (base + s + t - u - w)))

        p = g(sbc, sab + sac) if diagonal else g(sbc, sab + sac) + g(sac, sbc - sab)
        return packed[coa] * packed[cob] * packed[coc] * p

    memos: dict[tuple, dict] = {}
    acc: dict[tuple, int] = {}
    get = acc.get
    for a, ((a1, g1, cea, coa), ab_row, ac_row) in enumerate(zip(xs, ab_rows, ac_rows)):
        ces_a = ab_sums[cea]
        for b in range(a, len(xs)):
            a2, g2, ceb, cob = xs[b]
            sab, diagonal = ab_row[b], a == b
            memo = memos.setdefault((sab, coa, cob, diagonal), {})
            ces = abc_sums[ces_a[ceb]]
            alpha, gamma = a1 + a2, g1 + g2
            for (a3, g3, cec, coc), sac, sbc in zip(ys, ac_row, ac_rows[b]):
                f = memo.get((sac, sbc, coc))
                if f is None:
                    f = memo[(sac, sbc, coc)] = factor(sab, coa, cob, diagonal, sac, sbc, coc)
                if f:
                    key = (alpha + a3, gamma + g3, ces[cec])
                    acc[key] = get(key, 0) + f
    return sums.decode(acc)


# ---------------------------------------------------------------------------
# Weight-shift terms ("brackets").
# ---------------------------------------------------------------------------

class BracketTerm(NamedTuple):
    """scalar * [L] e(P): L is a linear form, P an integer momentum shift."""

    scalar: VLaurent
    l_alpha: int        # packed u-coefficients of L (integers)
    l_ell: SparseVec    # lambda-coefficients of L (rationals)
    shift: int          # packed P


def bracket(l_alpha=(), l_ell=(), shift=(), scalar: VLaurent | None = None) -> BracketTerm:
    term = BracketTerm(
        scalar if scalar is not None else VLaurent.one(),
        pack_entries(l_alpha), sparse(l_ell), pack_entries(shift),
    )
    if not (term.l_alpha or term.l_ell):
        raise ValueError("bracket linear form must not be identically zero")
    return term


def expand_bracket(term: BracketTerm) -> QOperator:
    """Expand scalar*[L]e(P) into its two monomials."""
    if not (term.l_alpha or term.l_ell):
        raise ValueError("bracket linear form must not be identically zero")
    s = _dot(term.l_alpha, term.shift)
    plus = QExponent(term.l_alpha, term.shift, term.l_ell)
    minus = QExponent(-term.l_alpha, term.shift, sparse_neg(term.l_ell))
    return QOperator.from_monomials(
        ((plus, term.scalar.shift(1 + s)), (minus, term.scalar.shift(-1 - s)))
    )


def operator_from_brackets(terms: Iterable[BracketTerm]) -> QOperator:
    return add(*(expand_bracket(t) for t in terms))


def rebracket(op: QOperator) -> list[BracketTerm]:
    """Decompose a canonical operator into weight-shift terms.

    Monomials are matched in pairs with equal momentum shift and opposite
    (u, lambda) parts; the orientation of each pair is fixed by the
    coefficient ratio v**(2*(1+s)).  Raises RebracketError when a monomial
    has no partner or no orientation is consistent; the message names the
    monomial by its nonzero (position, value) u- and p-entries and its
    lambda part.
    """
    remaining = dict(op.terms)
    out: list[BracketTerm] = []
    for e in op.exponents():
        if e not in remaining:
            continue
        partner = QExponent(-e.alpha, e.gamma, sparse_neg(e.ell))
        if partner == e:
            raise RebracketError(f"monomial with zero weight part: {_monomial_name(e)}")
        c1 = remaining.pop(e)
        c2 = remaining.pop(partner, None)
        if c2 is None:
            raise RebracketError(f"unpaired monomial: {_monomial_name(e)}")
        s = _dot(e.alpha, e.gamma)
        if c1 == c2.shift(2 * (1 + s)):
            plus, scalar = e, c1.shift(-1 - s)
        elif c2 == c1.shift(2 * (1 - s)):
            plus, scalar = partner, c2.shift(-1 + s)
        else:
            raise RebracketError(f"no bracket orientation fits the pair at {_monomial_name(e)}")
        out.append(BracketTerm(scalar, plus.alpha, plus.ell, plus.gamma))
    return out


def _monomial_name(e: QExponent) -> str:
    # packed ints of long words pass the int-to-str digit limit; entries do not
    return f"u {entries(e.alpha)}, p {entries(e.gamma)}, lambda {e.ell}"


def term_count(op: QOperator) -> int:
    """Number of weight-shift terms of a bracket-form operator."""
    return len(rebracket(op))
