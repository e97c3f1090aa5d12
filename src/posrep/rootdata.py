"""Simply-laced Cartan data, positive roots, and Weyl group elements.

Node labels follow the diagram conventions used throughout the package:

    A_n:  1 - 2 - ... - n
    D_n:  1 - 2 - 3 - ... - (n-1)   with node 0 attached below node 2
    E_n:  1 - 2 - 3 - ... - (n-1)   with node 0 attached below node 3

Roots are integer coordinate vectors over the simple roots (ordered by
label).  Weyl group elements are stored as the tuple of images of the
simple roots, which makes descent tests and length computations cheap at
rank <= 8.
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
    datum = CartanDatum(
        family, rank, labels,
        frozenset(frozenset(e) for e in edges),
        tuple((i, color[i]) for i in labels),
    )
    for i, j in edges:
        assert abs(color[i] - color[j]) == 1
    return datum


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


def integer_row_reduce(rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free Gauss-Jordan elimination over the integers.

    Returns ``(reduced, pivots)``: ``reduced[r]`` is nonzero at column
    ``pivots[r]`` and every other reduced row is zero there; rows that
    reduce to zero are dropped, so ``len(pivots)`` is the rank over Q.
    Each row is divided by the gcd of its entries after every step, which
    keeps the integers small without leaving Z.
    """

    def primitive(row: list[int]) -> list[int]:
        g = gcd(*row)
        return row if g <= 1 else [x // g for x in row]

    rows = [primitive(list(row)) for row in rows if any(row)]
    cols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    for c in range(cols):
        r = len(pivots)
        piv = next((k for k in range(r, len(rows)) if rows[k][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        prow = rows[r]
        p = prow[c]
        for k, row in enumerate(rows):
            f = row[c]
            if k != r and f:
                rows[k] = primitive([p * x - f * y for x, y in zip(row, prow)])
        pivots.append(c)
    return rows[: len(pivots)], pivots


def langlands_b_vectors(datum: CartanDatum) -> list[tuple[Fraction, ...]]:
    """Columns b^k of the inverse Cartan matrix, as exact rationals.

    Each b^k solves A b = e_k; the defining equation is re-verified before
    returning.
    """
    n = datum.rank
    a = datum.cartan_matrix()
    aug = [list(a[i]) + [1 if i == j else 0 for j in range(n)] for i in range(n)]
    reduced, _ = integer_row_reduce(aug)  # A is invertible: pivot i sits in column i
    out = []
    for k in range(n):
        b = tuple(Fraction(reduced[i][n + k], reduced[i][i]) for i in range(n))
        for i in range(n):
            check = sum(a[i][j] * b[j] for j in range(n))
            assert check == (1 if i == k else 0)
        out.append(b)
    return out


# ---------------------------------------------------------------------------
# Weyl group elements.
# ---------------------------------------------------------------------------

WeylElement = tuple  # tuple of image vectors of the simple roots, by label order


def weyl_identity(datum: CartanDatum) -> WeylElement:
    return tuple(simple_root(datum, i) for i in datum.labels)


def weyl_act(datum: CartanDatum, w: WeylElement, vec: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * datum.rank
    for k, coef in enumerate(vec):
        if coef:
            img = w[k]
            for t in range(datum.rank):
                out[t] += coef * img[t]
    return tuple(out)


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


def weyl_compose(datum: CartanDatum, w: WeylElement, v: WeylElement) -> WeylElement:
    """The element w v (first apply v, then w)."""
    return tuple(weyl_act(datum, w, img) for img in v)


def weyl_from_word(datum: CartanDatum, letters) -> WeylElement:
    w = weyl_identity(datum)
    for i in letters:
        w = weyl_right_mul(datum, w, i)
    return w


def weyl_length(datum: CartanDatum, w: WeylElement) -> int:
    count = 0
    for beta in positive_roots(datum):
        if not is_positive(weyl_act(datum, w, beta)):
            count += 1
    return count


def right_descents(datum: CartanDatum, w: WeylElement) -> list[int]:
    """Labels i with l(w s_i) < l(w), i.e. w(alpha_i) negative."""
    return [i for i in datum.labels if not is_positive(w[datum.index(i)])]
