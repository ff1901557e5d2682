"""Exact graded linear algebra over the rationals.

Everything in this package is a finite formal sum of graded basis elements
with Fraction coefficients.  Permutations act with Koszul signs, determinant
lines keep track of reordering parities, and group averaging moves between
invariants and coinvariants.  No floats anywhere.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Sequence

Q = Fraction
ZERO = Q(0)
ONE = Q(1)


# --------------------------------------------------------------------------
# permutations
#
# A permutation of k positions is a tuple p with p[i] = image of position i.

Perm = tuple


def identity_perm(n: int) -> Perm:
    return tuple(range(n))


def compose(p: Perm, q: Perm) -> Perm:
    """The permutation 'p after q'."""
    return tuple(p[q[i]] for i in range(len(q)))


def invert(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def perm_sign(p: Perm) -> int:
    sign = 1
    seen = [False] * len(p)
    for i in range(len(p)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def long_cycle(k: int) -> Perm:
    """The cycle 0 -> 1 -> ... -> k-1 -> 0 on k positions."""
    return tuple((i + 1) % k for i in range(k))


def all_perms(n: int) -> list[Perm]:
    return [tuple(p) for p in itertools.permutations(range(n))]


def koszul_sign(p: Perm, degrees: Sequence[int]) -> int:
    """Koszul sign of sending factor i (of the given degree) to slot p[i].

    Each crossing of two odd factors contributes -1.
    """
    sign = 1
    n = len(p)
    for i in range(n):
        for j in range(i + 1, n):
            if p[i] > p[j] and degrees[i] % 2 and degrees[j] % 2:
                sign = -sign
    return sign


def permute_factors(p: Perm, factors: Sequence) -> tuple[int, tuple]:
    """Permute tensor factors so output[p[i]] = input[i], with Koszul sign.

    Each factor must expose a `degree` attribute.
    """
    degs = [f.degree for f in factors]
    sign = koszul_sign(p, degs)
    out = [None] * len(factors)
    for i, f in enumerate(factors):
        out[p[i]] = f
    return sign, tuple(out)


# --------------------------------------------------------------------------
# wedge words
#
# A wedge word is a tuple of distinct hashable generators, all of odd degree:
# swapping two adjacent generators flips the sign, repeats give zero.


def wedge_normalize(word: Iterable[Hashable]) -> tuple[int, tuple]:
    """Sort a wedge word, returning (sign, sorted word); sign 0 on repeats."""
    items = list(word)
    sign = 1
    # insertion sort, counting transpositions
    for i in range(1, len(items)):
        j = i
        while j > 0 and repr(items[j - 1]) > repr(items[j]):
            items[j - 1], items[j] = items[j], items[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(items, items[1:]):
        if a == b:
            return 0, ()
    return sign, tuple(items)


def wedge_reorder_sign(src: Sequence, dst: Sequence) -> int:
    """Parity of the permutation carrying the word src onto dst.

    Both words must contain the same distinct generators.
    """
    pos = {g: i for i, g in enumerate(dst)}
    p = tuple(pos[g] for g in src)
    return perm_sign(p)


def wedge_extract(word: Sequence, gen: Hashable) -> tuple[int, tuple]:
    """Sign to move `gen` to the front of the word, and the remaining word."""
    idx = list(word).index(gen)
    rest = tuple(g for i, g in enumerate(word) if i != idx)
    return (-1) ** idx, rest


# --------------------------------------------------------------------------
# graded vectors


@dataclass(frozen=True)
class GradedBasisElement:
    """A named basis element with a fixed integer degree."""

    ident: Hashable
    degree: int

    def shifted(self, k: int) -> "GradedBasisElement":
        return GradedBasisElement(self.ident, self.degree + k)


BE = GradedBasisElement


class GradedVector:
    """Finite formal sum of basis elements with exact rational coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[BE, Fraction] | None = None):
        data = {}
        if terms:
            for be, c in terms.items():
                c = Q(c)
                if c:
                    data[be] = c
        self.terms = data

    @classmethod
    def unit(cls, be: BE, coeff: Fraction | int = 1) -> "GradedVector":
        return cls({be: Q(coeff)})

    @classmethod
    def zero(cls) -> "GradedVector":
        return cls()

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "GradedVector") -> "GradedVector":
        data = dict(self.terms)
        for be, c in other.terms.items():
            data[be] = data.get(be, ZERO) + c
        return GradedVector(data)

    def __sub__(self, other: "GradedVector") -> "GradedVector":
        return self + other.scale(-1)

    def __neg__(self) -> "GradedVector":
        return self.scale(-1)

    def scale(self, c: Fraction | int) -> "GradedVector":
        c = Q(c)
        if not c:
            return GradedVector()
        return GradedVector({be: c * v for be, v in self.terms.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, GradedVector) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __iter__(self) -> Iterator[tuple[BE, Fraction]]:
        return iter(sorted(self.terms.items(), key=lambda kv: repr(kv[0])))

    def __len__(self) -> int:
        return len(self.terms)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = [f"{c}*{be.ident}" for be, c in self]
        return " + ".join(bits)

    def coeff(self, be: BE) -> Fraction:
        return self.terms.get(be, ZERO)

    def homogeneous_degree(self) -> int | None:
        degs = {be.degree for be in self.terms}
        if len(degs) == 1:
            return degs.pop()
        return None

    def map_basis(self, f: Callable[[BE], "GradedVector"]) -> "GradedVector":
        """Apply a linear map given on basis elements."""
        acc: dict = {}
        for be, c in self.terms.items():
            for img, d in f(be).terms.items():
                acc[img] = acc.get(img, ZERO) + c * d
        return GradedVector(acc)


def vec(*pairs: tuple[BE, Fraction | int]) -> GradedVector:
    return GradedVector({be: Q(c) for be, c in pairs})


# --------------------------------------------------------------------------
# tensors of two factors and the Koszul swap

def tensor2(a: GradedVector, b: GradedVector) -> GradedVector:
    """Tensor product over pair basis elements (factor data kept in the id)."""
    out = {}
    for x, cx in a.terms.items():
        for y, cy in b.terms.items():
            be = BE((("t2",), (x.ident, x.degree), (y.ident, y.degree)),
                    x.degree + y.degree)
            out[be] = out.get(be, ZERO) + cx * cy
    return GradedVector(out)


def koszul_swap(a: GradedVector, b: GradedVector) -> GradedVector:
    """(-1)^{deg a deg b} b (x) a on basis elements, extended bilinearly."""
    out = GradedVector()
    for x, cx in a.terms.items():
        for y, cy in b.terms.items():
            sign = -1 if (x.degree % 2 and y.degree % 2) else 1
            out = out + tensor2(GradedVector.unit(y), GradedVector.unit(x)).scale(sign * cx * cy)
    return out


def swap_pair_vector(v: GradedVector) -> GradedVector:
    """Koszul swap applied to a vector over pair basis elements."""
    out = {}
    for be, c in v.terms.items():
        tag, (ia, da), (ib, db) = be.ident
        sign = -1 if (da % 2 and db % 2) else 1
        nbe = BE((tag, (ib, db), (ia, da)), be.degree)
        out[nbe] = out.get(nbe, ZERO) + sign * c
    return GradedVector(out)


def suspend(v: GradedVector, k: int) -> GradedVector:
    """Shift every basis degree by k; coefficients unchanged."""
    return GradedVector({be.shifted(k): c for be, c in v.terms.items()})


# --------------------------------------------------------------------------
# determinant lines


@dataclass(frozen=True)
class Line:
    """A one-dimensional graded space with an ordered generator word.

    The permutation character is the reorder parity of the word; the degree
    records the total grading of the chosen basis vector.
    """

    degree: int
    word: tuple

    def char(self, mapping: Mapping) -> int:
        """Sign of the permutation the mapping induces on the word."""
        image = [mapping[g] for g in self.word]
        return wedge_reorder_sign(image, self.word)


def det_line(s: Iterable) -> Line:
    """Det of a finite set: degree -|S|, permutations act by their sign."""
    word = tuple(sorted(s, key=repr))
    return Line(-len(word), word)


def det_merge_sign(s: Iterable, t: Iterable) -> int:
    """Sign of det(S) (x) det(T) -> det(S u T) for disjoint S, T."""
    ws = tuple(sorted(s, key=repr))
    wt = tuple(sorted(t, key=repr))
    merged = tuple(sorted(ws + wt, key=repr))
    return wedge_reorder_sign(ws + wt, merged)


# --------------------------------------------------------------------------
# group actions and averaging


class GroupAction:
    """A finite group acting linearly on graded basis elements.

    Group elements are opaque hashables; `apply_basis(g, e)` must return the
    image of basis element e as a GradedVector and preserve degree.  For
    cyclic flavors the distinguished long-cycle generator is stored in `t`.
    """

    def __init__(self, elements: Sequence, apply_basis: Callable[[Hashable, BE], GradedVector],
                 t: Hashable | None = None):
        self.elements = list(elements)
        self._apply_basis = apply_basis
        self.t = t
        self._cache: dict = {}

    def apply_basis(self, g, be: BE) -> GradedVector:
        try:
            key = (g, be)
            hash(key)
        except TypeError:
            key = (repr(g), be)
        if key not in self._cache:
            self._cache[key] = self._apply_basis(g, be)
        return self._cache[key]

    def apply(self, g, v: GradedVector) -> GradedVector:
        return v.map_basis(lambda be: self.apply_basis(g, be))

    def order(self) -> int:
        return len(self.elements)


def average(action: GroupAction, v: GradedVector,
            char: Callable[[Hashable], int] | None = None) -> GradedVector:
    """(1/|G|) sum_g char(g) g.v; an idempotent projector onto the invariants.

    `char` is a sign character of the group (default: trivial); the result
    is then the projection onto the char-isotypic part.
    """
    acc: dict = {}
    for g in action.elements:
        s = char(g) if char else 1
        for be, c in v.terms.items():
            for img, d in action.apply_basis(g, be).terms.items():
                acc[img] = acc.get(img, ZERO) + s * c * d
    scale = Q(1, action.order())
    return GradedVector({be: c * scale for be, c in acc.items()})


def cyclic_operator_N(action: GroupAction, v: GradedVector, n: int) -> GradedVector:
    """(1 + T + ... + T^n) v for the distinguished generator T."""
    if action.t is None:
        raise ValueError("action has no distinguished cyclic generator")
    total = GradedVector()
    cur = v
    for _ in range(n + 1):
        total = total + cur
        cur = action.apply(action.t, cur)
    return total


# --------------------------------------------------------------------------
# small exact linear algebra (sparse elimination over dict rows; dense rref)


def rref(mat: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Row-reduce in place-free style; returns (rref, pivot columns)."""
    mat = [row[:] for row in mat]
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = ONE / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(rows):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return mat, pivots


def _axpy(acc: dict, f: Fraction, row: Mapping, fresh: list | None = None) -> None:
    """acc -= f * row over the nonzero entries of row; zeros are dropped.

    Keys that were not in acc before are appended to `fresh`.
    """
    for k, c in row.items():
        x = acc.get(k)
        if x is None:
            acc[k] = -f * c
            if fresh is not None:
                fresh.append(k)
        else:
            x -= f * c
            if x:
                acc[k] = x
            else:
                del acc[k]


class _Echelon:
    """Dict rows in echelon form, built by forward elimination.

    Row j is 1 at its pivot key pivots[j] (stored without that entry) and 0
    at every earlier pivot, so reducing a vector by the rows in pivot order
    clears each pivot for good.  Only nonzero entries are stored or touched,
    and only the rows whose pivot the vector meets are visited.  When
    tracking, combos[j] writes row j in the added vectors, by their index.
    """

    def __init__(self, track: bool = False):
        self.pivots: list = []
        self.position: dict = {}  # pivot key -> j
        self.rows: list[dict] = []
        self.combos: list[dict] | None = [] if track else None

    def reduce(self, v: dict, taken: dict | None = None) -> None:
        """Reduce v in place; add to `taken` the combination removed."""
        position = self.position
        todo = [position[k] for k in v if k in position]
        heapq.heapify(todo)
        while todo:
            j = heapq.heappop(todo)
            f = v.pop(self.pivots[j], None)
            if f is None:
                continue  # queued twice, or already cancelled
            fresh: list = []
            _axpy(v, f, self.rows[j], fresh)
            for k in fresh:
                if k in position:  # a later pivot
                    heapq.heappush(todo, position[k])
            if taken is not None:
                _axpy(taken, -f, self.combos[j])

    def add(self, v: Mapping, index: int = 0) -> bool:
        """Add vector number `index`; False when it is in the span already."""
        r = {k: c for k, c in v.items() if c}
        taken = {} if self.combos is not None else None
        self.reduce(r, taken)
        if not r:
            return False
        piv = next(iter(r))
        inv = ONE / r.pop(piv)
        self.position[piv] = len(self.pivots)
        self.pivots.append(piv)
        self.rows.append({k: c * inv for k, c in r.items()})
        if taken is not None:
            combo = {index: inv}
            combo.update((i, -c * inv) for i, c in taken.items())
            self.combos.append(combo)
        return True


def independent_rows(vectors: Sequence[Mapping]) -> list[int]:
    """Indices of the greedy earliest-independent rows.

    Row i is selected exactly when it is not in the span of rows 0..i-1, so
    the selected rows are a basis of the span of all rows.
    """
    ech = _Echelon()
    return [i for i, v in enumerate(vectors) if ech.add(v)]


def rank_of(vectors: Sequence[Mapping]) -> int:
    """Dimension of the span of the rows (dicts key -> coefficient)."""
    return len(independent_rows(vectors))


def coords_in_span(basis: Sequence[Mapping], target: Mapping) -> list[Fraction] | None:
    """Exact coordinates of target in the span of basis, or None.

    The solution returned is the one supported on `independent_rows(basis)`:
    a member that is a combination of earlier members gets coordinate 0.
    None means target is not in the span.
    """
    ech = _Echelon(track=True)
    for i, b in enumerate(basis):
        ech.add(b, i)
    r = {k: c for k, c in target.items() if c}
    taken: dict = {}
    ech.reduce(r, taken)
    if r:
        return None
    coords = [ZERO] * len(basis)
    for i, c in taken.items():
        coords[i] = c
    return coords


def in_span(vectors: Sequence[Mapping], target: Mapping) -> bool:
    return coords_in_span(vectors, target) is not None

