"""Exact graded linear algebra over the rationals.

Everything in this package is a finite formal sum of graded basis elements
with Fraction coefficients.  Permutations act with Koszul signs, wedge words
keep track of reordering parities, and group averaging moves between
invariants and coinvariants.  No floats anywhere.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Hashable, Iterator, Mapping, Sequence

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


def adjacent_transpositions(n: int) -> list[Perm]:
    """s_0, ..., s_{n-2}, where s_i swaps positions i and i + 1."""
    out = []
    for i in range(n - 1):
        p = list(range(n))
        p[i], p[i + 1] = p[i + 1], p[i]
        out.append(tuple(p))
    return out


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


def wedge_reorder_sign(src: Sequence, dst: Sequence) -> int:
    """Parity of the permutation carrying the word src onto dst.

    Both words must contain the same distinct generators.
    """
    pos = {g: i for i, g in enumerate(dst)}
    p = tuple(pos[g] for g in src)
    return perm_sign(p)


# --------------------------------------------------------------------------
# graded vectors


@dataclass(frozen=True)
class GradedBasisElement:
    """A named basis element with a fixed integer degree."""

    ident: Hashable
    degree: int


BE = GradedBasisElement


class GradedVector:
    """Finite formal sum of basis elements with exact rational coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[BE, Fraction] | None = None):
        data = {}
        if terms:
            for be, c in terms.items():
                if not isinstance(c, Q):
                    c = Q(c)
                if c:
                    data[be] = c
        self.terms = data

    @classmethod
    def unit(cls, be: BE, coeff: Fraction | int = 1) -> "GradedVector":
        return cls({be: Q(coeff)})

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
# group actions and averaging


class GroupAction:
    """A finite group acting linearly on graded basis elements.

    Group elements are opaque hashables; `apply_basis(g, e)` must return the
    image of basis element e as a GradedVector and preserve degree.  Images
    are cached per (g, e); an unhashable g, such as a (vmap, fmap) pair of
    dicts a caller builds, is cached by its repr.  The rotation of a cyclic
    component is not stored: `StructureInstance.t_rot` derives it from the
    arity.

    `generators`, when given, are involutive permutations of range(n) that
    generate the group of `elements`, `apply_basis` is a homomorphism or an
    anti-homomorphism, and `average` walks from the identity by generators
    (see `average`).  Without generators `average` loops over `elements`;
    the graph automorphism groups of `decorate`, the S_n x S_m bimodule
    actions and the actions read from a table have none.
    """

    def __init__(self, elements: Sequence, apply_basis: Callable[[Hashable, BE], GradedVector],
                 generators: Sequence[Perm] = ()):
        self.elements = list(elements)
        self._apply_basis = apply_basis
        self.generators = tuple(generators)
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


def symmetric_action(n: int, apply_basis: Callable[[Perm, BE], GradedVector]
                     ) -> GroupAction:
    """S_n acting through `apply_basis`, generated by the adjacent
    transpositions s_0, ..., s_{n-2}.

    `apply_basis` must be a homomorphism or an anti-homomorphism of S_n;
    `average` then reaches each of the n! elements as one generator applied
    to an element one step nearer the identity, so it applies only the
    generators to basis elements.  A single element still acts through
    `apply_basis` directly.
    """
    return GroupAction(all_perms(n), apply_basis,
                       generators=adjacent_transpositions(n))


@functools.lru_cache(maxsize=None)
def _cayley_tree(generators: tuple, n: int) -> tuple:
    """Breadth-first spanning tree of the Cayley graph of the permutations
    of range(n) that the generators generate, rooted at the identity.

    Level k lists the elements at distance k + 1 as (parent slot, generator
    index, element): the element is generators[index] after the element at
    the parent slot of level k - 1 (of the root, for level 0).
    """
    seen = {identity_perm(n)}
    frontier = [identity_perm(n)]
    levels = []
    while frontier:
        level = []
        for slot, g in enumerate(frontier):
            for k, s in enumerate(generators):
                h = compose(s, g)
                if h not in seen:
                    seen.add(h)
                    level.append((slot, k, h))
        if level:
            levels.append(tuple(level))
        frontier = [h for _, _, h in level]
    return tuple(levels)


def average(action: GroupAction, v: GradedVector,
            char: Callable[[Hashable], int] | None = None) -> GradedVector:
    """(1/|G|) sum_g char(g) g.v; an idempotent projector onto the invariants.

    `char` is a sign character of the group (default: trivial); the result
    is then the projection onto the char-isotypic part.

    Both ways of summing scale v by the common denominator den of its
    coefficients (`_integer_terms`), keep the sums in ints while the images
    have integer coefficients, and divide by |G| * den once at the end.

    An action with `generators` (the S_n actions of `symmetric_action`) is
    summed along a breadth-first walk of its Cayley graph: each element's
    image is one generator applied to its parent's image, so only generator
    images of basis elements are computed, each once.  For a homomorphism
    the node of the word s_k ... s_1 carries g.v with g = s_k ... s_1.  For
    an anti-homomorphism it carries g^-1.v, as the generators are
    involutions; g -> g^-1 is a bijection of the group and
    char(g^-1) = char(g), so the sum is the same.  Actions without
    generators (graph automorphism groups, S_n x S_m bimodule actions,
    tables) loop over their elements.

    The S_n walk remains where an averaged element is used again: the
    inputs of `bv_verify`, `project_coinvariants` and the series that
    `certify_dg_algebra` maps out of.  A free construction decides zero
    and equality of coinvariant classes without it (`coinvariant_class`).
    """
    terms, den = _integer_terms(v)
    if action.generators:
        acc = _walk_sum(action, terms, char)
    else:
        acc = {}
        for g in action.elements:
            s = char(g) if char else 1
            for be, c in terms:
                c *= s
                for img, d in action.apply_basis(g, be).terms.items():
                    acc[img] = acc.get(img, 0) + c * _int_if_whole(d)
    n = action.order() * den
    return GradedVector({be: Q(c, n) for be, c in acc.items() if c})


def _integer_terms(v: GradedVector) -> tuple[list, int]:
    """([(be, den * c)], den) with den the common denominator of v's
    coefficients, so every den * c is an int."""
    den = math.lcm(*(c.denominator for c in v.terms.values()))
    return [(be, c.numerator * (den // c.denominator))
            for be, c in v.terms.items()], den


def _int_if_whole(c: Fraction):
    """c as an int when it is one, so sums of such stay in ints."""
    return c.numerator if c.denominator == 1 else c


def _walk_sum(action: GroupAction, scaled: list, char) -> dict:
    """sum_g char(g) g.v along the walk of `average`, for v given by its
    integer-scaled terms `scaled`.

    The elements come level by level from `_cayley_tree`, and only the
    vectors of one level are held at a time.
    """
    gens = action.generators
    n = len(gens[0])
    levels = _cayley_tree(gens, n)
    if 1 + sum(map(len, levels)) != action.order():
        raise ValueError("the generators do not reach every element")
    # basis elements are numbered on first sight, so the sums hash ints
    number: dict = {}
    named: list = []

    def number_of(be):
        i = number.get(be)
        if i is None:
            i = number[be] = len(named)
            named.append(be)
        return i

    root = {number_of(be): c for be, c in scaled}
    acc: dict = {}

    def add(terms, s):
        for i, c in terms.items():
            acc[i] = acc.get(i, 0) + s * c

    images = [{} for _ in gens]  # generator -> number -> [(number, coeff)]
    add(root, char(identity_perm(n)) if char else 1)
    frontier = [root]
    for level in levels:
        nxt = []
        for slot, k, g in level:
            img: dict = {}
            known = images[k]
            for i, c in frontier[slot].items():
                terms = known.get(i)
                if terms is None:
                    image = action.apply_basis(gens[k], named[i])
                    terms = known[i] = [(number_of(be), _int_if_whole(d))
                                        for be, d in image.terms.items()]
                for j, d in terms:
                    img[j] = img.get(j, 0) + c * d
            img = {j: c for j, c in img.items() if c}
            nxt.append(img)
            add(img, char(g) if char else 1)
        frontier = nxt
    return {named[i]: c for i, c in acc.items()}


def invariant_basis(action: GroupAction, basis: Sequence[BE],
                    char: Callable[[Hashable], int] | None = None) -> list:
    """A basis of the invariants spanned by averaging the basis elements.

    Each element is averaged (`average`, with the character); the nonzero
    averages independent of the earlier ones are kept, as (index in
    `basis`, average).
    """
    avgs = [(i, average(action, GradedVector.unit(be), char))
            for i, be in enumerate(basis)]
    avgs = [(i, avg) for i, avg in avgs if not avg.is_zero()]
    return [avgs[k] for k in independent_rows([avg.terms for _, avg in avgs])]


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


class Span:
    """The span of dict rows, in echelon form by forward elimination; it is
    built once and answers `coords_in_span` for many targets unchanged.

    Row j is 1 at its pivot key pivots[j] (stored without that entry) and 0
    at every earlier pivot, so reducing a vector by the rows in pivot order
    clears each pivot for good.  Only nonzero entries are stored or touched,
    and only the rows whose pivot the vector meets are visited.  When
    tracking, combos[j] writes row j in the given rows, by their index.
    len() counts the given rows; `independent` indexes the earliest
    independent ones.
    """

    def __init__(self, rows: Sequence[Mapping], track: bool = True):
        self.pivots: list = []
        self.position: dict = {}  # pivot key -> j
        self.rows: list[dict] = []
        self.combos: list[dict] | None = [] if track else None
        self.independent = [i for i, v in enumerate(rows) if self.add(v, i)]
        self.size = len(rows)

    def __len__(self) -> int:
        return self.size

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

    def add(self, v: Mapping, index: int) -> bool:
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
    return Span(vectors, track=False).independent


def rank_of(vectors: Sequence[Mapping]) -> int:
    """Dimension of the span of the rows (dicts key -> coefficient)."""
    return len(independent_rows(vectors))


def coords_in_span(basis: Span | Sequence[Mapping],
                   target: Mapping) -> list[Fraction] | None:
    """Exact coordinates of target in the span of basis, or None.

    The solution returned is the one supported on `independent_rows(basis)`:
    a member that is a combination of earlier members gets coordinate 0.
    None means target is not in the span.
    """
    span = basis if isinstance(basis, Span) else Span(basis)
    r = {k: c for k, c in target.items() if c}
    taken: dict = {}
    span.reduce(r, taken)
    if r:
        return None
    return [taken.get(i, ZERO) for i in range(len(span))]
