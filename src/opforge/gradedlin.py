"""Exact graded linear algebra over the rationals.

Everything in this package is a finite formal sum of graded basis elements
with Fraction coefficients.  Permutations act with Koszul signs, determinant
lines keep track of reordering parities, and group averaging moves between
invariants and coinvariants.  No floats anywhere.
"""

from __future__ import annotations

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
        out = GradedVector()
        for be, c in self.terms.items():
            out = out + f(be).scale(c)
        return out


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


def average(action: GroupAction, v: GradedVector) -> GradedVector:
    """(1/|G|) sum_g g.v; an idempotent projector onto the invariants."""
    total = GradedVector()
    for g in action.elements:
        total = total + action.apply(g, v)
    return total.scale(Q(1, action.order()))


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
# small exact linear algebra (dense over Fractions)


def to_dense(vectors: Sequence[Mapping], keys: Sequence | None = None):
    if keys is None:
        seen = set()
        for v in vectors:
            seen.update(v.keys())
        keys = sorted(seen, key=repr)
    index = {k: i for i, k in enumerate(keys)}
    mat = []
    for v in vectors:
        row = [ZERO] * len(keys)
        for k, c in v.items():
            row[index[k]] = Q(c)
        mat.append(row)
    return list(keys), mat


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


def rank_of(vectors: Sequence[Mapping]) -> int:
    if not vectors:
        return 0
    _, mat = to_dense(vectors)
    if not mat or not mat[0]:
        return 0
    _, pivots = rref(mat)
    return len(pivots)


def coords_in_span(basis: Sequence[Mapping], target: Mapping) -> list[Fraction] | None:
    """Exact coordinates of target in the span of basis, or None."""
    keys, mat = to_dense(list(basis) + [target])
    if not keys:
        return [ZERO] * len(basis)
    # solve A^T x = b by reducing the augmented transpose
    n = len(basis)
    aug = []
    for j in range(len(keys)):
        aug.append([mat[i][j] for i in range(n)] + [mat[n][j]])
    red, pivots = rref(aug) if aug else ([], [])
    coords = [ZERO] * n
    for row, c in zip(red, pivots):
        if c == n:
            return None  # inconsistent: pivot in the augmented column
    for row in red:
        lead = next((j for j, x in enumerate(row) if x), None)
        if lead is None:
            continue
        if lead == n:
            return None
        coords[lead] = row[n]
    return coords


def in_span(vectors: Sequence[Mapping], target: Mapping) -> bool:
    return coords_in_span(vectors, target) is not None

