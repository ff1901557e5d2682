"""Twist cocycles on graphs: evaluation lines, characters and gluing signs.

A cocycle assigns to every graph a one-dimensional graded line with an
automorphism character, together with identification signs for edge
contractions.  Lines are realized as wedge words of named odd generators
(plus an even shift), so characters and gluing signs come out of reorder
parities instead of hand-entered tables.

Standard cocycles: K (determinant of the edge set), T (edge orientation
lines), DetH1 (determinant of the cycle space), L (flags over tails), and
the coboundaries D[s], D[st], D[Sigma], D[s_out] induced from vertex lines.
DetH1 needs no cycle basis: the cellular chain complex
0 -> H1 -> C1 -> C0 -> H0 -> 0 makes it T times the determinants of the
vertices and of the components, det C0^{-1} (x) det H0.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError, MissingVertexType
from .gradedlin import perm_sign, wedge_reorder_sign
from . import graphs as G


@dataclass
class LineData:
    """Degree and automorphism character of a one-dimensional line."""

    degree: int
    char: callable  # (vmap, fmap) -> +1 / -1


class TwistCocycle:
    name = "?"

    def line(self, graph) -> LineData:
        raise NotImplementedError

    def glue_sign(self, graph, blocks) -> int:
        """Sign of D(g/blocks) (x) prod_v D(block_v) -> D(g).

        `blocks` partitions the vertices; all intra-block edges contract.
        """
        raise NotImplementedError

    def __mul__(self, other):
        return TensorCocycle(self, other)

    def inverse(self):
        return InverseCocycle(self)

    def __repr__(self):
        return f"<twist {self.name}>"


def _edge_key(e):
    return tuple(sorted(e))


def _perm_sign_of(items, image):
    return wedge_reorder_sign(list(image), sorted(items))


class EdgeDeterminant(TwistCocycle):
    """Det of the edge set: degree -|E|, edge permutations act by sign."""

    name = "K"

    def line(self, graph) -> LineData:
        edges = sorted(_edge_key(e) for e in graph.edges())

        def char(vmap, fmap):
            image = [tuple(sorted((fmap[a], fmap[b]))) for a, b in edges]
            return _perm_sign_of(edges, image)

        return LineData(-len(edges), char)

    def glue_sign(self, graph, blocks) -> int:
        word = _block_edge_word(graph, blocks)
        return wedge_reorder_sign(word, sorted(word))


class EdgeOrientations(EdgeDeterminant):
    """Det of the sum of the per-edge orientation lines Or(e).

    Degree -|E|; an automorphism acts by its K character times -1 for every
    edge whose image runs against the sorted order of its flags.  Gluing
    signs are those of K: both reorder the same edge word.
    """

    name = "T"

    def line(self, graph) -> LineData:
        k = super().line(graph)
        edges = [_edge_key(e) for e in graph.edges()]

        def char(vmap, fmap):
            flips = sum(fmap[a] > fmap[b] for a, b in edges)
            return k.char(vmap, fmap) * (-1) ** flips

        return LineData(k.degree, char)


class FlagsOverTails(TwistCocycle):
    """Det(Flags) Det^{-1}(Tails): degree -2|E|."""

    name = "L"

    def line(self, graph) -> LineData:
        flags = sorted(graph.flags)
        tails = sorted(graph.tails())

        def char(vmap, fmap):
            s1 = _perm_sign_of(flags, [fmap[f] for f in flags])
            s2 = _perm_sign_of(tails, [fmap[f] for f in tails])
            return s1 * s2

        return LineData(-2 * len(graph.edges()), char)

    def glue_sign(self, graph, blocks) -> int:
        # flag word: the non-tail flags, grouped exactly like the edges
        word = []
        for e in _block_edge_word(graph, blocks):
            word.extend(e)
        flat = [f for pair in sorted((tuple(x) for x in
                                      (_edge_key(e) for e in graph.edges())))
                for f in pair]
        return wedge_reorder_sign(tuple(word), tuple(flat))


def _block_edge_word(graph, blocks):
    """Edge word ordered as: surviving edges, then each block's internal
    edges in block order; the identification target is the sorted word."""
    block_of = {}
    for i, blk in enumerate(blocks):
        for v in blk:
            block_of[v] = i
    internal = {i: [] for i in range(len(blocks))}
    survive = []
    for e in graph.edges():
        a, b = e
        va, vb = graph.boundary[a], graph.boundary[b]
        if block_of[va] == block_of[vb]:
            internal[block_of[va]].append(_edge_key(e))
        else:
            survive.append(_edge_key(e))
    word = sorted(survive)
    for i in range(len(blocks)):
        word.extend(sorted(internal[i]))
    return tuple(word)


class CycleDeterminant(TwistCocycle):
    """Det of the cycle space H1, read off the cellular chain complex
    0 -> H1 -> C1 -> C0 -> H0 -> 0 of the graph.

    det H1 = det C1 (x) det C0^{-1} (x) det H0, so the degree is -b1 and an
    automorphism acts by its T character (det C1 on oriented edges) times
    the sign of its permutation of the vertices and the sign of its
    permutation of the components.
    """

    name = "DetH1"

    def line(self, graph) -> LineData:
        t = EdgeOrientations().line(graph).char
        vertices = list(graph.vertices)
        comps = graph.components()
        comp_of = {v: i for i, comp in enumerate(comps) for v in comp}
        reps = [next(iter(comp)) for comp in comps]

        def char(vmap, fmap):
            return (t(vmap, fmap)
                    * wedge_reorder_sign([vmap[v] for v in vertices], vertices)
                    * perm_sign(tuple(comp_of[vmap[v]] for v in reps)))

        return LineData(-graph.first_betti(), char)

    def glue_sign(self, graph, blocks) -> int:
        # the identification of the cycle spaces is taken with sign +1
        return 1


# --------------------------------------------------------------------------
# coboundaries


@dataclass
class CoboundaryData:
    """A line per vertex type, realized by generators on the local flags.

    gens(graph, v) lists (name, degree) generator pairs for the vertex line;
    shift(graph, v) is the even part of the degree.  The same recipe applied
    to the graph's total type gives the outer line.
    """

    name: str
    gens: callable        # (graph, vertex or None) -> list of (name, +-1)
    shift: callable       # (graph, vertex or None) -> int


def _flag_gens(sign):
    def gens(graph, v):
        flags = graph.vertex_flags(v) if v is not None else graph.tails()
        return [(("f" if v is not None else "t", f), sign) for f in sorted(flags)]

    return gens


def _vertex_genus(graph, v):
    if v is not None:
        return graph.g_of(v)
    if not graph.is_connected():
        raise MissingVertexType("total type needs a connected graph")
    return G.total_genus(graph)


def suspension_coboundary() -> CoboundaryData:
    # value on a type (g, S): degree -2(g-1) - |S|, sign character
    def shift(graph, v):
        g = _vertex_genus(graph, v)
        return -2 * (g - 1)

    return CoboundaryData("s", _flag_gens(-1), shift)


def tilde_suspension_coboundary() -> CoboundaryData:
    # value on a type: degree -|S|, sign character
    return CoboundaryData("st", _flag_gens(-1), lambda graph, v: 0)


def naive_shift_coboundary() -> CoboundaryData:
    def gens(graph, v):
        return [(("z", v if v is not None else "*total*"), 1)]

    return CoboundaryData("Sigma", gens, lambda graph, v: 0)


def out_shift_coboundary() -> CoboundaryData:
    # value on an (n, m) type: degree m, sign character on the outputs
    def gens(graph, v):
        if graph.orientation is None:
            raise MissingVertexType("D[s_out] needs an orientation")
        flags = graph.vertex_flags(v) if v is not None else graph.tails()
        outs = [f for f in sorted(flags) if graph.orientation[f] == "out"]
        return [(("f" if v is not None else "t", f), 1) for f in outs]

    return CoboundaryData("s_out", gens, lambda graph, v: 0)


COBOUNDARIES = {
    "s": suspension_coboundary,
    "st": tilde_suspension_coboundary,
    "Sigma": naive_shift_coboundary,
    "s_out": out_shift_coboundary,
}


class Coboundary(TwistCocycle):
    """D_l(Gamma) = l(total type) (x) prod_v l(vertex type)^{-1}."""

    def __init__(self, data: CoboundaryData):
        self.data = data
        self.name = f"D[{data.name}]"

    def _words(self, graph):
        outer = self.data.gens(graph, None)
        per_vertex = [[(n, -d) for n, d in self.data.gens(graph, v)]
                      for v in graph.vertices]
        return outer, per_vertex

    def line(self, graph) -> LineData:
        outer, per_vertex = self._words(graph)
        degree = (sum(d for _, d in outer) + self.data.shift(graph, None)
                  + sum(sum(d for _, d in w) for w in per_vertex)
                  - sum(self.data.shift(graph, v) for v in graph.vertices))
        word = [n for n, _ in outer]
        for w in per_vertex:
            word.extend(n for n, _ in w)
        # the word's own sign does not depend on the automorphism
        order = sorted(word, key=repr)
        sign = wedge_reorder_sign(word, order)

        def char(vmap, fmap):
            def move(name):
                tag, x = name
                if tag == "t" or tag == "f":
                    return (tag, fmap[x])
                if tag == "z" and x != "*total*":
                    return (tag, vmap[x])
                return name

            return wedge_reorder_sign([move(n) for n in word], order) * sign

        return LineData(degree, char)

    def glue_sign(self, graph, blocks) -> int:
        # the vertex lines of the quotient cancel the outer lines of the
        # blocks pairwise; with sorted words each cancellation is the
        # canonical dual pairing, so only reorder parities remain
        return 1


# --------------------------------------------------------------------------
# combinators


class TensorCocycle(TwistCocycle):
    def __init__(self, a: TwistCocycle, b: TwistCocycle):
        self.a = a
        self.b = b
        self.name = f"{a.name}*{b.name}"

    def line(self, graph) -> LineData:
        la = self.a.line(graph)
        lb = self.b.line(graph)
        return LineData(la.degree + lb.degree,
                        lambda vmap, fmap: la.char(vmap, fmap) * lb.char(vmap, fmap))

    def glue_sign(self, graph, blocks) -> int:
        return self.a.glue_sign(graph, blocks) * self.b.glue_sign(graph, blocks)


class InverseCocycle(TwistCocycle):
    def __init__(self, a: TwistCocycle):
        self.a = a
        self.name = f"inv({a.name})"

    def line(self, graph) -> LineData:
        la = self.a.line(graph)
        return LineData(-la.degree, la.char)

    def glue_sign(self, graph, blocks) -> int:
        return self.a.glue_sign(graph, blocks)


class TrivialCocycle(TwistCocycle):
    name = "1"

    def line(self, graph) -> LineData:
        return LineData(0, lambda vmap, fmap: 1)

    def glue_sign(self, graph, blocks) -> int:
        return 1


# --------------------------------------------------------------------------
# construction and parsing


def standard_twist(name: str) -> TwistCocycle:
    if name == "K":
        return EdgeDeterminant()
    if name == "T":
        return EdgeOrientations()
    if name == "DetH1":
        return CycleDeterminant()
    if name == "L":
        return FlagsOverTails()
    if name == "1":
        return TrivialCocycle()
    raise InputError(f"unknown twist {name!r}")


def parse_twist(expr: str) -> TwistCocycle:
    """Grammar: K | T | DetH1 | L | D[s] | D[st] | D[Sigma] | D[s_out]
    | inv(e) | e*e."""
    tokens = expr.replace(" ", "")

    def parse(s: str) -> TwistCocycle:
        factors = []
        depth = 0
        start = 0
        for i, ch in enumerate(s):
            if ch in "([":
                depth += 1
            elif ch in ")]":
                depth -= 1
            elif ch == "*" and depth == 0:
                factors.append(s[start:i])
                start = i + 1
        factors.append(s[start:])
        if len(factors) > 1:
            out = parse(factors[0])
            for f in factors[1:]:
                out = TensorCocycle(out, parse(f))
            return out
        s = factors[0]
        if not s:
            raise InputError("empty twist expression")
        if s.startswith("inv(") and s.endswith(")"):
            return InverseCocycle(parse(s[4:-1]))
        if s.startswith("D[") and s.endswith("]"):
            key = s[2:-1]
            if key not in COBOUNDARIES:
                raise InputError(f"unknown coboundary {key!r}")
            return Coboundary(COBOUNDARIES[key]())
        return standard_twist(s)

    return parse(tokens)


# --------------------------------------------------------------------------
# comparison over graph families


@dataclass
class IsoReport:
    ok: bool
    graphs_checked: int
    mismatch: dict | None


def verify_isomorphism(a: TwistCocycle, b: TwistCocycle, family: str,
                       max_edges: int, max_tails: int = 4) -> IsoReport:
    """Compare (degree, character) of two cocycles on every isomorphism
    class of the family, a name in `G.GRAPH_CLASSES`, within the bound;
    report the first mismatch."""
    checked = 0
    for graph in _family_graphs(family, max_edges, max_tails):
        la = a.line(graph)
        lb = b.line(graph)
        checked += 1
        if la.degree != lb.degree:
            return IsoReport(False, checked,
                             {"graph": graph.to_json(), "kind": "degree",
                              "a": la.degree, "b": lb.degree})
        for vmap, fmap in G.automorphisms(graph):
            ca, cb = la.char(vmap, fmap), lb.char(vmap, fmap)
            if ca != cb:
                return IsoReport(False, checked,
                                 {"graph": graph.to_json(), "kind": "character",
                                  "vmap": vmap, "a": ca, "b": cb})
    return IsoReport(True, checked, None)


def _family_graphs(kind: str, max_edges, max_tails):
    signatures = []
    directed = kind.startswith("directed") or "rooted" in kind
    if directed:
        for n_in in range(0, max_tails + 1):
            for n_out in range(0 if "rooted" not in kind else 1,
                               max_tails - n_in + 1):
                if "rooted" in kind and n_out != 1:
                    continue
                signatures.append({
                    "in_labels": [str(i + 1) for i in range(n_in)],
                    "out_labels": [f"o{j + 1}" for j in range(n_out)]})
    elif kind == "stable-graph":
        for n in range(0, max_tails + 1):
            for g in (0, 1):
                signatures.append({"labels": [str(i + 1) for i in range(n)],
                                   "genus": g})
    else:
        for n in range(0, max_tails + 1):
            signatures.append({"labels": [str(i + 1) for i in range(n)]})
    for sig in signatures:
        for graph in G.enumerate_graphs(kind, sig, max_edges):
            yield graph


# --------------------------------------------------------------------------
# gluing tower check


def contract_blocks(graph, blocks):
    """Contract all intra-block edges; returns the quotient graph."""
    g = graph
    # repeatedly contract an intra-block edge until none remain
    block_of = {}
    for i, blk in enumerate(blocks):
        for v in blk:
            block_of[v] = i
    while True:
        target = None
        for e in g.edges():
            a, b = e
            va, vb = g.boundary[a], g.boundary[b]
            if block_of.get(va) == block_of.get(vb):
                target = e
                break
        if target is None:
            return g
        a, b = target
        va, vb = g.boundary[a], g.boundary[b]
        keep = min(va, vb)
        g = G.contract_edge(g, target)
        if va != vb:
            blk = block_of.pop(max(va, vb))
            block_of[keep] = blk


def subgraph_on(graph, vertices):
    """Induced subgraph: internal edges stay, crossing flags become tails."""
    vs = set(vertices)
    flags = [f for f in graph.flags if graph.boundary[f] in vs]
    fset = set(flags)
    involution = {}
    for f in flags:
        p = graph.involution[f]
        involution[f] = p if p in fset else f
    return G.Graph(sorted(vs), flags, involution,
                   {f: graph.boundary[f] for f in flags},
                   genus={v: k for v, k in graph.genus.items() if v in vs},
                   orientation=({f: graph.orientation[f] for f in flags}
                                if graph.orientation else None))


def tower_consistent(cocycle: TwistCocycle, graph, fine_blocks,
                     coarse_blocks) -> bool:
    """Associativity of the gluing identifications on a two-step tower.

    Contracting the fine blocks first and then the induced partition of the
    quotient must carry the same total sign as contracting the coarse
    blocks directly, with each coarse block assembled from its fine pieces.
    """
    s_fine = cocycle.glue_sign(graph, fine_blocks)
    mid = contract_blocks(graph, fine_blocks)
    coarse_of = {}
    for i, blk in enumerate(coarse_blocks):
        for v in blk:
            coarse_of[v] = i
    mid_blocks: dict = {}
    for v in mid.vertices:
        mid_blocks.setdefault(coarse_of[v], []).append(v)
    s_mid = cocycle.glue_sign(mid, [sorted(b)
                                    for _, b in sorted(mid_blocks.items())])
    route1 = s_fine * s_mid
    s_direct = cocycle.glue_sign(graph, coarse_blocks)
    inner = 1
    for blk in coarse_blocks:
        piece = subgraph_on(graph, blk)
        sub_partition = [sorted(set(b) & set(blk)) for b in fine_blocks
                         if set(b) & set(blk)]
        inner *= cocycle.glue_sign(piece, sub_partition)
    route2 = s_direct * inner
    return route1 == route2
