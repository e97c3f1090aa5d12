"""Simply-laced Cartan data, positive roots, and Weyl group elements.

Node labels follow the diagram conventions used throughout the package:

    A_n:  1 - 2 - ... - n
    D_n:  1 - 2 - 3 - ... - (n-1)   with node 0 attached below node 2
    E_n:  1 - 2 - 3 - ... - (n-1)   with node 0 attached below node 3

Roots are integer coordinate vectors over the simple roots (ordered by
label).  Weyl group elements are stored as the tuple of images of the
simple roots, which makes right multiplication and descent tests cheap at
rank <= 8.

``integer_echelon`` is the package's one exact linear-algebra routine: a
sparse fraction-free forward elimination over Z.  It gives the q-tori
lattice rank (598 x 240 on the E8 catalog word) and, with a rational
back-substitution, the inverse Cartan matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import gcd


class UnsupportedTypeError(ValueError):
    """Requested (family, rank) outside A_n (n>=1), D_n (n>=4), E_6/E_7/E_8."""


@dataclass(frozen=True)
class CartanDatum:
    family: str
    rank: int
    labels: tuple[int, ...]
    edges: frozenset[frozenset[int]]
    bipartition: tuple[tuple[int, int], ...]  # (label, n_weight) pairs
    # derived from labels and edges; left out of equality and hashing
    label_set: frozenset[int] = field(init=False, repr=False, compare=False)
    _cartan: dict[tuple[int, int], int] = field(init=False, repr=False, compare=False)
    # label i -> (index of i, the (index of j, a(i, j)) with a(i, j) != 0)
    _rows: dict[int, tuple[int, tuple[tuple[int, int], ...]]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        object.__setattr__(self, "label_set", frozenset(self.labels))
        object.__setattr__(self, "_cartan", {
            (i, j): 2 if i == j else -1 if frozenset((i, j)) in self.edges else 0
            for i in self.labels for j in self.labels
        })
        object.__setattr__(self, "_rows", {
            i: (k, tuple((t, self._cartan[i, j]) for t, j in enumerate(self.labels)
                         if self._cartan[i, j]))
            for k, i in enumerate(self.labels)
        })

    def index(self, label: int) -> int:
        return self.labels.index(label)

    def adjacent(self, i: int, j: int) -> bool:
        return self._cartan.get((i, j)) == -1

    def a(self, i: int, j: int) -> int:
        """Cartan matrix entry, indexed by node labels."""
        return self._cartan[i, j]

    def cartan_matrix(self) -> tuple[tuple[int, ...], ...]:
        return tuple(
            tuple(self.a(i, j) for j in self.labels) for i in self.labels
        )

    def n_weight(self, label: int) -> int:
        return dict(self.bipartition)[label]


def _edges(family: str, rank: int) -> list[tuple[int, int]]:
    if family == "A":
        return [(i, i + 1) for i in range(1, rank)]
    if family == "D":
        return [(i, i + 1) for i in range(1, rank - 1)] + [(0, 2)]
    return [(i, i + 1) for i in range(1, rank - 1)] + [(0, 3)]


def build_cartan(family: str, rank: int, flip_bipartition: bool = False) -> CartanDatum:
    """Construct the Cartan datum for a simply-laced type.

    The bipartition weights alternate along edges; by default the smallest
    label gets weight 0, and ``flip_bipartition`` selects the other
    orientation.
    """
    family = family.upper()
    ok = (
        (family == "A" and rank >= 1)
        or (family == "D" and rank >= 4)
        or (family == "E" and rank in (6, 7, 8))
    )
    if not ok:
        raise UnsupportedTypeError(f"unsupported type {family}_{rank}")
    labels = tuple(range(1, rank + 1)) if family == "A" else tuple(range(rank))
    edges = _edges(family, rank)
    adj = {i: set() for i in labels}
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    # Proper 2-coloring by BFS from the smallest label (the diagram is a tree).
    color = {labels[0]: 1 if flip_bipartition else 0}
    queue = [labels[0]]
    while queue:
        i = queue.pop()
        for j in adj[i]:
            if j not in color:
                color[j] = 1 - color[i]
                queue.append(j)
    return CartanDatum(
        family, rank, labels,
        frozenset(frozenset(e) for e in edges),
        tuple((i, color[i]) for i in labels),
    )


# ---------------------------------------------------------------------------
# Roots.
# ---------------------------------------------------------------------------

def simple_root(datum: CartanDatum, label: int) -> tuple[int, ...]:
    return tuple(1 if l == label else 0 for l in datum.labels)


def reflect(datum: CartanDatum, label: int, vec: tuple[int, ...]) -> tuple[int, ...]:
    """Apply the simple reflection for ``label`` to a root vector."""
    c = sum(datum.a(label, j) * vec[k] for k, j in enumerate(datum.labels))
    i = datum.index(label)
    return tuple(v - c if k == i else v for k, v in enumerate(vec))


def is_positive(vec: tuple[int, ...]) -> bool:
    return any(v > 0 for v in vec)


@lru_cache(maxsize=None)
def positive_roots(datum: CartanDatum) -> tuple[tuple[int, ...], ...]:
    """All positive roots, generated by reflection closure from the simple ones."""
    roots = {simple_root(datum, i) for i in datum.labels}
    frontier = set(roots)
    while frontier:
        new = set()
        for vec in frontier:
            for i in datum.labels:
                img = reflect(datum, i, vec)
                if is_positive(img) and img not in roots:
                    new.add(img)
        roots |= new
        frontier = new
    return tuple(sorted(roots))


def positive_root_count(datum: CartanDatum) -> int:
    return len(positive_roots(datum))


def integer_echelon(rows) -> tuple[list[dict[int, int]], list[int]]:
    """Sparse fraction-free forward elimination over the integers.

    ``rows`` are ``{column: value}`` dicts.  Returns ``(echelon, pivots)``:
    ``echelon[r]`` has leading (lowest) column ``pivots[r]``, the pivots
    increase strictly, and every row of the input is a rational
    combination of the echelon rows, so ``len(pivots)`` is the rank over Q.

    Rows are taken sparsest first, which keeps fill-in low.  A row whose
    leading column already has a pivot row is reduced against it: both
    are scaled by the gcd of the two leading entries, and the difference
    is divided by the gcd of its own entries, so the integers stay small
    without leaving Z.  Elimination stops once the rank equals the number
    of columns that occur.
    """
    rows = [{c: x for c, x in row.items() if x} for row in rows]  # working copies
    ncols = len(set().union(*rows))
    by_lead: dict[int, dict[int, int]] = {}  # pivot column -> its row, leading entry > 0
    for row in sorted(rows, key=len):
        while row:
            lead = min(row)
            prow = by_lead.get(lead)
            if prow is None:
                g = gcd(*row.values())
                g = -g if row[lead] < 0 else g
                by_lead[lead] = row if g == 1 else {c: x // g for c, x in row.items()}
                break
            a, p = row[lead], prow[lead]
            g = gcd(a, p)
            a, p = a // g, p // g
            if p != 1:
                for c in row:
                    row[c] *= p
            for c, y in prow.items():
                x = row.get(c, 0) - a * y
                if x:
                    row[c] = x
                else:
                    del row[c]
            g = gcd(*row.values())
            if g > 1:
                row = {c: x // g for c, x in row.items()}
        if len(by_lead) == ncols:
            break
    pivots = sorted(by_lead)
    return [by_lead[c] for c in pivots], pivots


def langlands_b_vectors(datum: CartanDatum) -> list[tuple[Fraction, ...]]:
    """Columns b^k of the inverse Cartan matrix, as exact rationals.

    The echelon form [U | L] of [A | I] has U upper triangular (A is
    invertible), and b^k is column k of U^-1 L, found by back-substitution.
    Each b^k must solve A b = e_k; the equation is re-verified before
    returning.
    """
    n = datum.rank
    a = datum.cartan_matrix()
    aug = [{**{j: x for j, x in enumerate(a[i]) if x}, n + i: 1} for i in range(n)]
    echelon, _ = integer_echelon(aug)  # A is invertible: pivot i sits in column i
    x: list[list[Fraction]] = [[]] * n  # row i of A^-1
    for i in range(n - 1, -1, -1):
        row = echelon[i]
        x[i] = [
            (row.get(n + k, 0) - sum(row.get(j, 0) * x[j][k] for j in range(i + 1, n)))
            / Fraction(row[i])
            for k in range(n)
        ]
    out = []
    for k in range(n):
        b = tuple(x[i][k] for i in range(n))
        for i in range(n):
            if sum(a[i][j] * b[j] for j in range(n)) != (1 if i == k else 0):
                raise ArithmeticError(f"b^{k} does not solve A b = e_{k} at row {i}")
        out.append(b)
    return out


# ---------------------------------------------------------------------------
# Weyl group elements.
# ---------------------------------------------------------------------------

WeylElement = tuple  # tuple of image vectors of the simple roots, by label order


def weyl_identity(datum: CartanDatum) -> WeylElement:
    return tuple(simple_root(datum, i) for i in datum.labels)


def weyl_right_mul(datum: CartanDatum, w: WeylElement, label: int) -> WeylElement:
    """w * s_label.

    (w s_i)(alpha_j) = w(alpha_j) - a(i, j) w(alpha_i), so only the images
    with a(i, j) != 0 (alpha_i and its neighbours) change.
    """
    i, row = datum._rows[label]
    wi = w[i]
    out = list(w)
    for k, a in row:
        out[k] = tuple([x - a * y for x, y in zip(w[k], wi)])
    return tuple(out)


def weyl_from_word(datum: CartanDatum, letters) -> WeylElement:
    w = weyl_identity(datum)
    for i in letters:
        w = weyl_right_mul(datum, w, i)
    return w


def right_descents(datum: CartanDatum, w: WeylElement) -> list[int]:
    """Labels i with l(w s_i) < l(w), i.e. w(alpha_i) negative."""
    return [i for i in datum.labels if not is_positive(w[datum.index(i)])]
