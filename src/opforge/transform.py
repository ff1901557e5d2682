"""Free twisted constructions, the Feynman transform, and master equations.

The free construction decorates isomorphism classes of graphs with generator
components, tensors on the twist line (realized as an ordered edge word), and
takes automorphism coinvariants via the averaging projector, a loop over
Aut(Gamma).  Its S_n action relabels tails; `average` sums it along the
Cayley graph of the adjacent transpositions, so projecting to S_n
coinvariants glues only the generator images of each basis element.
Deciding whether coinvariant classes vanish or agree needs no S_n at all:
`coinvariant_class` drops the tail labels and projects each term into the
block of its unlabelled graph, whose automorphisms may move tails.  The
Feynman transform is the free odd construction on the dual generators with
the edge-insertion differential, assembled as the transpose of the one-edge
contraction operator.  Master-equation series are checked two independent
ways: the direct left-hand side, and the condition that the series is a dg
map f out of the Feynman transform of E(W).  `FreeTwisted.evaluate` extends
f from the generators to one-edge elements by contracting in E(V), and
`morphism_defects` compares f(d phi) with d_V f(phi) on every generator.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from . import graphs as G
from .brackets import SumElement, cyclic_bracket, delta
from .errors import (DegreeError, KindMismatch, NonInvertibleTwist,
                     TruncationExceeded, UnsupportedKind)
from .gradedlin import (BE, ZERO, GradedVector, GroupAction, Q, Span,
                        all_perms, average, coords_in_span, invariant_basis,
                        invert, koszul_sign, symmetric_action,
                        wedge_reorder_sign)
from .smodules import (BilinearForm, ModularE, StructureInstance, decorate,
                       decoration, decoration_factors, kind_flavor,
                       kind_has_box, kind_is_odd, local_flag_order,
                       local_index, local_move, merge_into, rotation_order,
                       rotation_order2, row_move, transport)
from .twists import EdgeDeterminant


class GeneratorInstance(StructureInstance):
    """An S-module with no compositions, used as generator data."""

    def __init__(self, kind: str, components: dict, actions: dict):
        self.kind = kind
        self._components = components
        self._actions = actions
        super().__init__()

    def _build_component(self, idx):
        return list(self._components.get(idx, []))

    def _build_action(self, idx):
        return self._actions[idx]


def _trivial_generator(kind, types, degree) -> GeneratorInstance:
    """One-dimensional trivial generators of the given degree, one per
    type: a (g, n) pair or an arity n, with the identifier ("gen", *type)."""
    comps, acts = {}, {}
    for t in types:
        key = t if isinstance(t, tuple) else (t,)
        comps[t] = [BE(("gen",) + key, degree)]
        acts[t] = symmetric_action(key[-1], lambda p, a: GradedVector.unit(a))
    return GeneratorInstance(kind, comps, acts)


def trivial_modular_generator(types, degree=0) -> GeneratorInstance:
    """One-dimensional trivial generators at the given (g, n) types."""
    return _trivial_generator("modular", [tuple(t) for t in types], degree)


# --------------------------------------------------------------------------
# free twisted construction


@dataclass
class _GraphBlock:
    graph: object
    key: object
    idx: object  # its component; None for a `coinvariant_class` block
    locs: list  # each vertex's `local_index`, in vertex order
    raw_basis: list
    aut: GroupAction
    inv_bes: list
    inv_vectors: list  # dicts raw BE -> Fraction
    span: Span  # of inv_vectors: project_raw solves against it
    char: object  # twist character of aut, folded into averages; or None
    projections: dict = field(default_factory=dict)  # project_raw's, by raw


@dataclass
class _GluePlan:
    """What a gluing computes without looking at a decoration."""
    block: _GraphBlock  # the result's, or a class block
    canon: object  # the canonical glued graph
    wsign: int  # of the edge word
    pieces: list  # per piece: vertex names on canon, local moves, edges


def _position_label(i: int) -> str:
    return f"p{i}"


class FreeTwisted(StructureInstance):
    """The free twisted construction on modular-flavored generators.

    Components are direct sums over isomorphism classes of genus-labeled
    graphs of (generators(Gamma) (x) twist(Gamma))_{Aut}.  The twist line is
    the determinant of the edge set with edges of the configured degree; the
    trivial twist has no line at all.  Operations raise TruncationExceeded
    when they leave the edge bound.

    Each block (one graph's summand) depends only on its graph and is kept
    by canonical key.  A gluing builds the one block it lands in, when
    missing; a component is enumerated only when a caller asks for it
    (`component`, `blocks`), and it reuses the blocks already built.

    Each gluing is planned once per instance and key: ("self", key, s, t),
    ("circ_st", a key, b key, s, t), ("circ", a key, b key, i), ("box",
    a key, b key), ("act", key, p) for the S_n action, ("bare", key) for
    `coinvariant_class` (see `_GluePlan`); a call only transports its
    decorations, and a gluing past the edge bound raises on every call.
    `project_raw` keeps its answers on the block, by the whole raw vector.
    Plans and answers live on the instance and its blocks only.  A block
    also keeps its component (`idx`) and the `local_index` of each vertex
    (`locs`), so no term works either out from the graph again.
    """

    def __init__(self, gen: StructureInstance, kind: str, max_edges: int,
                 edge_degree: int = -1):
        self.gen = gen
        self.kind = kind
        self.max_edges = max_edges
        self.edge_degree = edge_degree
        self.odd = kind_is_odd(kind)
        self._blocks: dict = {}
        self._by_key: dict = {}
        self._class_blocks: dict = {}  # `coinvariant_class`'s, by key
        self._plans: dict = {}  # gluing plans, by operation and blocks
        super().__init__()

    # -- component assembly -------------------------------------------------

    def _graph_class(self, idx):
        """The graphs of component idx as `G.enumerate_graphs` takes them:
        (graph class, signature, allowed (genus or gamma, valence) types)."""
        g, n = idx
        labels = [_position_label(i) for i in range(n)]
        types = set(getattr(self.gen, "_components", {})) or None
        if kind_flavor(self.kind) == "nc-modular":
            return "graph", {"labels": labels, "gamma": g}, types
        return "connected-graph", {"labels": labels, "genus": g}, types

    def _graphs_for(self, idx):
        cls, sig, types = self._graph_class(idx)
        return G.enumerate_graphs(cls, sig, self.max_edges,
                                  vertex_types=types)

    def _in_component(self, idx, graph) -> bool:
        """Whether `_graphs_for(idx)` holds the class of `graph`, a glued
        graph within the edge bound: its class, index, vertex types and
        vertex count are those the enumeration admits."""
        cls, sig, types = self._graph_class(idx)
        label = graph.gamma_of if "gamma" in sig else graph.g_of
        return (G.classify(graph, cls) and self._index_of_graph(graph) == idx
                and len(graph.vertices)
                <= max(1, len(graph.tails()) + 2 * len(graph.edges()))
                and (types is None
                     or all((label(v), len(graph.vertex_flags(v))) in types
                            for v in graph.vertices)))

    def _block(self, graph, idx) -> _GraphBlock:
        """The block of `graph` in component idx, kept in `_by_key` by
        canonical key; with idx None, a class block in `_class_blocks`."""
        table = self._class_blocks if idx is None else self._by_key
        key = graph.canonical_key()
        if key in table:
            return table[key]
        flavor = kind_flavor(self.kind)
        basis, aut, _ = decorate(self.gen, graph, flavor)
        char = self._twist_char(graph)  # folded into the averages
        invs = invariant_basis(aut, basis, char)
        inv_vectors = [dict(avg.terms) for _, avg in invs]
        shift = self.edge_degree * len(graph.edges())
        inv_bes = [BE(("fc", key, j), basis[i].degree + shift)
                   for j, (i, _) in enumerate(invs)]
        locs = [local_index(flavor, graph, v) for v in graph.vertices]
        block = _GraphBlock(graph, key, idx, locs, basis, aut, inv_bes,
                            inv_vectors, Span(inv_vectors), char)
        table[key] = block
        return block

    def _build_component(self, idx):
        blocks = [self._block(graph, idx) for graph in self._graphs_for(idx)]
        self._blocks[idx] = blocks
        out = []
        for b in blocks:
            out.extend(b.inv_bes)
        return out

    def blocks(self, idx):
        if idx not in self._blocks:
            self.component(idx)
        return self._blocks[idx]

    def _twist_char(self, graph):
        """The character of Aut(graph) on the twist line; None when the
        twist is trivial.  Built once per block and kept on it."""
        if not self.odd:
            return None
        char = EdgeDeterminant().line(graph).char
        return lambda phi: char(*phi)

    # -- raw <-> invariant bookkeeping ---------------------------------------

    def expand(self, idx, be: BE):
        """Invariant basis element -> (block, raw GradedVector).  The block
        comes from the element alone: idx is unread, and stays because its
        callers, `bench/workloads.py` among them, pass it."""
        _, key, j = be.ident
        block = self._by_key[key]
        return block, GradedVector(block.inv_vectors[j])

    def project_raw(self, block: _GraphBlock, raw: GradedVector) -> GradedVector:
        """Average a raw vector (twist-weighted) and express it in the
        invariant basis of its block, solved against the block's span.
        The answer is kept on the block by the whole raw vector."""
        key = frozenset(raw.terms.items())
        out = block.projections.get(key)
        if out is None:
            avg = average(block.aut, raw, block.char)
            coords = [] if avg.is_zero() else coords_in_span(block.span,
                                                             avg.terms)
            if coords is None:
                raise AssertionError("projection left the invariant span")
            out = block.projections[key] = GradedVector(
                {be: c for be, c in zip(block.inv_bes, coords) if c})
        return out

    def project_blocks(self, raws) -> GradedVector:
        """The sum of `project_raw` over (block, raw dict) pairs, one pair
        per block: distinct blocks have disjoint invariant bases."""
        out: dict = {}
        for block, raw in raws:
            raw = GradedVector(raw)
            if not raw.is_zero():
                out.update(self.project_raw(block, raw).terms)
        return GradedVector(out)

    # -- gluing plans ---------------------------------------------------------

    def _glue(self, key, build, *raws) -> GradedVector:
        """The pipeline shared by every gluing and by the S_n action: the
        plan of `key`, the raw decorations on its graph, and their
        projection into the invariant basis of its block."""
        plan = self._plan(key, build)
        acc = self._glue_decorations(plan, raws)
        return self.project_blocks([(plan.block, acc)])

    def _plan(self, key, build) -> _GluePlan:
        """The plan of `key`, made once from `build()`, which gives
        (glued graph, pieces, new edge, result component).  A gluing past
        the edge bound is kept as its message and raises on every call."""
        plan = self._plans.get(key)
        if plan is None:
            try:
                plan = self._make_plan(*build())
            except TruncationExceeded as exc:
                plan = str(exc)
            self._plans[key] = plan
        if isinstance(plan, str):
            raise TruncationExceeded(plan)
        return plan

    def _make_plan(self, glued, pieces, new_edge, ridx) -> _GluePlan:
        """`glued` was built from the graphs of the pieces, each given as
        (block, vmap, fmap): vmap/fmap send the block graph's vertex/flag
        ids to those of `glued` (None: unchanged).  `new_edge` is the edge
        the gluing created, as two flags of `glued`, or None.  The result
        lands in component `ridx`, or in a class block when it is None."""
        if len(glued.edges()) > self.max_edges:
            raise TruncationExceeded("gluing leaves the edge bound")
        canon, relabel = G.canonical_form(glued)
        block = (self._block(canon, None) if ridx is None
                 else self._result_block(ridx, canon))
        vnew, fnew = relabel["vertices"], relabel["flags"]
        flavor = kind_flavor(self.kind)
        word = [] if new_edge is None else [tuple(sorted(fnew[f]
                                                         for f in new_edge))]
        planned = []
        for piece, vmap, fmap in pieces:
            graph = piece.graph
            vto = {v: vnew[vmap[v] if vmap else v] for v in graph.vertices}
            fto = {f: fnew[fmap[f] if fmap else f] for f in graph.flags}
            word += [tuple(sorted((fto[a], fto[b]))) for a, b in graph.edges()]
            moves = [local_move(flavor, canon, vto[v],
                                [fto[f] for f in local_flag_order(flavor,
                                                                  graph, v)])
                     for v in graph.vertices]
            planned.append(([vto[v] for v in graph.vertices], moves,
                            len(graph.edges())))
        wsign = 1
        if self.odd:
            wsign = wedge_reorder_sign(
                word, sorted(tuple(sorted(e)) for e in canon.edges()))
        return _GluePlan(block, canon, wsign, planned)

    def _glue_decorations(self, plan: _GluePlan, raws) -> dict:
        """The raw decorations of a gluing on its canonical graph, as a
        dict: every decoration of each piece's raw vector is transported by
        the plan's moves and merged with the edge-word and Koszul signs."""
        moved = [[(dec, c, (names, transport(
            self.gen, decoration_factors(dec), moves)))
            for dec, c in raw.terms.items()]
            for (names, moves, _), raw in zip(plan.pieces, raws)]
        acc: dict = {}
        for combo in itertools.product(*moved):
            coeff = Q(plan.wsign)
            earlier = 0  # degree of the earlier pieces' decorations
            for (dec, c, _), (_, _, ne) in zip(combo, plan.pieces):
                coeff *= c
                # a piece's edges pass the earlier decorations
                if self.odd and ne % 2 and earlier % 2:
                    coeff = -coeff
                earlier += dec.degree
            merge_into(acc, plan.canon, [part for _, _, part in combo], coeff)
        return acc

    def _result_block(self, ridx, canon) -> _GraphBlock:
        """The block of component `ridx` whose graph is `canon`, a canonical
        form (its key is cached, so the lookup does not search again).

        Blocks are built lazily by key: on a miss only this block is built,
        from `canon`, and the component is not enumerated.  A graph that the
        component does not hold raises TruncationExceeded.
        """
        block = self._by_key.get(canon.canonical_key())
        if block is None:
            if not self._in_component(ridx, canon):
                raise TruncationExceeded("glued graph missing from the "
                                         "component")
            block = self._block(canon, ridx)
        return block

    def _relabel_positions(self, graph, label_map):
        labels = {f: label_map.get(l, l) for f, l in graph.labels.items()}
        return G.Graph(graph.vertices, graph.flags, graph.involution,
                       graph.boundary, genus=graph.genus, gamma=graph.gamma,
                       orientation=graph.orientation, labels=labels)

    def _graft(self, key, ridx, ai, a, amap, bi, b, bmap) -> GradedVector:
        """Glue the tail of a labelled "glue-a" by `amap` to the tail of b
        labelled "glue-b" by `bmap`; the maps relabel the other positions.
        key is (operation, positions), planned with the block keys."""
        block_a, raw_a = self.expand(ai, a)
        block_b, raw_b = self.expand(bi, b)

        def build():
            ga = self._relabel_positions(block_a.graph, amap)
            gb = self._relabel_positions(block_b.graph, bmap)
            sf, tf = _flag_labelled(ga, "glue-a"), _flag_labelled(gb, "glue-b")
            glued, vmap, fmap = G.graft_with_maps(ga, sf, gb, tf)
            return (glued, [(block_a, None, None), (block_b, vmap, fmap)],
                    (sf, fmap[tf]), ridx)

        return self._glue((key[0], block_a.key, block_b.key) + key[1:], build,
                          raw_a, raw_b)

    def circ_st_basis(self, ai, a, s, bi, b, t) -> GradedVector:
        # surviving positions: a's after s, then b's after t
        amap = {_position_label(p): _position_label(new)
                for new, p in enumerate(rotation_order(ai[1], s))}
        bmap = {_position_label(p): _position_label(ai[1] - 1 + new)
                for new, p in enumerate(rotation_order(bi[1], t))}
        amap[_position_label(s)] = "glue-a"
        bmap[_position_label(t)] = "glue-b"
        return self._graft(("circ_st", s, t), self.circ_st_index(ai, bi),
                           ai, a, amap, bi, b, bmap)

    def self_basis(self, ai, a, s, t) -> GradedVector:
        block_a, raw_a = self.expand(ai, a)

        def build():
            label_map = {_position_label(p): _position_label(new)
                         for new, p in enumerate(rotation_order2(ai[1], s, t))}
            label_map[_position_label(s)] = "glue-a"
            label_map[_position_label(t)] = "glue-b"
            ga = self._relabel_positions(block_a.graph, label_map)
            sf, tf = _flag_labelled(ga, "glue-a"), _flag_labelled(ga, "glue-b")
            glued = G.self_glue(ga, sf, tf)
            return (glued, [(block_a, None, None)], (sf, tf),
                    self._index_of_graph(glued))

        return self._glue(("self", block_a.key, s, t), build, raw_a)

    def box_basis(self, ai, a, bi, b) -> GradedVector:
        if not kind_has_box(self.kind):
            raise KindMismatch(f"{self.kind} has no horizontal composition")
        block_a, raw_a = self.expand(ai, a)
        block_b, raw_b = self.expand(bi, b)

        def build():
            gb = self._relabel_positions(
                block_b.graph, {_position_label(i): _position_label(ai[1] + i)
                                for i in range(bi[1])})
            union, vmap, fmap = G.disjoint_union_with_maps(block_a.graph, gb)
            return (union, [(block_a, None, None), (block_b, vmap, fmap)],
                    None, self._index_of_graph(union))

        return self._glue(("box", block_a.key, block_b.key), build, raw_a,
                          raw_b)

    def _index_of_graph(self, graph):
        flavor = kind_flavor(self.kind)
        n = len(graph.tails())
        if flavor == "nc-modular":
            return (G.additive_gamma(graph), n)
        return (G.total_genus(graph), n)

    def component_of_basis(self, be):
        if not (isinstance(be.ident, tuple) and be.ident[0] == "fc"):
            return None
        return self._by_key[be.ident[1]].idx

    def _build_action(self, idx):
        def apply_basis(p, a):
            block, raw = self.expand(idx, a)

            def build():
                moved = self._relabel_positions(
                    block.graph, {_position_label(i): _position_label(p[i])
                                  for i in range(len(p))})
                return moved, [(block, None, None)], None, idx

            return self._glue(("act", block.key, p), build, raw)

        return symmetric_action(self.arity(idx), apply_basis)

    def coinvariant_class(self, idx, v: GradedVector) -> GradedVector:
        """The S_n-coinvariant class of v, without walking S_n.

        Each term's graph drops its tail labels, by the plan of ("bare",
        block key); the sum is projected into the blocks of the unlabelled
        canonical graphs, whose automorphisms may move tails.  These blocks
        stay out of `_by_key`, so their basis elements name no component.
        """
        raws: dict = {}
        for be, c in v.terms.items():
            block, raw = self.expand(idx, be)
            g = block.graph
            plan = self._plan(("bare", block.key), lambda: (G.Graph(
                g.vertices, g.flags, g.involution, g.boundary, genus=g.genus,
                gamma=g.gamma, orientation=g.orientation),
                [(block, None, None)], None, None))
            into = raws.setdefault(plan.block.key, (plan.block, {}))[1]
            for dec, x in self._glue_decorations(plan, [raw.scale(c)]).items():
                into[dec] = into.get(dec, ZERO) + x
        return self.project_blocks(raws.values())

    # -- the universal property ---------------------------------------------

    def evaluate(self, idx, v: GradedVector, target, gen_map) -> GradedVector:
        """The image of v under the morphism into `target` that sends the
        generator x at a vertex of type loc to gen_map(loc, x), an
        equivariant map of degree 0.

        Only connected graphs with at most one edge: the edge is contracted
        in the target by a `_ContractionPlan`, one per block, so the image
        of circ_st_basis(a, s, b, t) is the target's circ_st of the images,
        and likewise for self_basis.  The result lies in the target's
        component idx, its factors in the order of the tail labels.
        """
        flavor = kind_flavor(self.kind)
        act = target.action(idx)
        pos = {_position_label(i): i for i in range(self.arity(idx))}
        plans: dict = {}  # block key -> (plan or None, order)
        acc: dict = {}
        for be, c in v.terms.items():
            block, raw = self.expand(idx, be)
            if block.key not in plans:
                graph, plan = block.graph, None
                edges = graph.edges()
                if len(edges) > 1 or len(graph.vertices) > len(edges) + 1:
                    raise UnsupportedKind("evaluate takes connected graphs "
                                          "with at most one edge")
                if edges:
                    plan = _ContractionPlan(target, graph, edges[0])
                canon = plan.canon if plan else graph
                (vertex,) = canon.vertices
                plans[block.key] = (plan, tuple(
                    pos[canon.labels[f]]
                    for f in local_flag_order(flavor, canon, vertex)))
            plan, order = plans[block.key]
            for dec, cd in raw.terms.items():
                factors = decoration_factors(dec)
                for combo in itertools.product(*[
                        gen_map(loc, x).terms.items()
                        for loc, x in zip(block.locs, factors)]):
                    coeff = c * cd
                    for _, ci in combo:
                        coeff *= ci
                    images = tuple(y for y, _ in combo)
                    out = (plan.contract(images) if plan
                           else GradedVector.unit(decoration(images)))
                    for y, cy in out.terms.items():
                        (z,) = decoration_factors(y)
                        for b, cb in act.apply_basis(order, z).terms.items():
                            acc[b] = acc.get(b, ZERO) + coeff * cy * cb
        return GradedVector(acc)


def _flag_labelled(graph, label):
    return next(f for f, l in graph.labels.items() if l == label)


def free_construct(gen: StructureInstance, kind: str, twist: str,
                   bound: int) -> FreeTwisted:
    """Free (twisted) instance on the generators, truncated at `bound` edges.

    twist "K" builds the odd version (edge determinant line, edges of degree
    -1), twist "1" the even one; a K-twisted kind needs twist "K".
    """
    if twist not in ("K", "1"):
        raise NonInvertibleTwist(f"unsupported twist {twist!r}")
    if kind not in ("modular", "k-modular", "nc-modular", "nc-k-modular"):
        raise UnsupportedKind(kind)
    if twist == "1":
        if kind_is_odd(kind):
            raise NonInvertibleTwist(f"{kind} needs the twist K, not 1")
        return FreeTwisted(gen, kind, bound, edge_degree=0)
    odd_kind = {"modular": "k-modular", "nc-modular": "nc-k-modular"}
    return FreeTwisted(gen, odd_kind.get(kind, kind), bound, edge_degree=-1)


def nc_extension(o: StructureInstance) -> StructureInstance:
    """The free nc version: disconnected composition graphs with box = union."""
    if isinstance(o, FreeTwisted):
        kind = {"modular": "nc-modular", "k-modular": "nc-k-modular"}.get(
            o.kind, o.kind)
        return FreeTwisted(o.gen, kind, o.max_edges, edge_degree=o.edge_degree)
    return NcTensorExtension(o)


class _BlockWords(StructureInstance):
    """Words of blocks over a base instance.

    A block is (component index, factor, labels): a basis element of that
    component of the base, whose k-th position carries the label labels[k];
    the blocks of a word partition the labels 0..n-1.  A block is stored on
    its sorted labels, and `normalize` puts the blocks of a word in their
    stored order.  `_words` is the only way a word becomes basis elements:
    the actions, `_concat` and every gluing return through it.
    """

    base_flavor = ""

    def __init__(self, base: StructureInstance):
        if kind_flavor(base.kind) != self.base_flavor:
            raise UnsupportedKind(base.kind)
        self.base = base
        super().__init__()

    def normalize(self, blocks):
        """(sign, the blocks in their stored order): here, as they come."""
        return 1, blocks

    def _words(self, words) -> GradedVector:
        """The sum of c times each word of blocks, for (c, blocks) in words.

        Each block is rewritten onto its sorted labels by the base action
        (`row_move`), then `normalize` orders the blocks.
        """
        acc: dict = {}
        for c, blocks in words:
            moves = [row_move(idx, labels) for idx, _, labels in blocks]
            for c2, factors in transport(self.base, [x for _, x, _ in blocks],
                                         moves):
                sign, norm = self.normalize(
                    [(idx, x, tuple(sorted(labels)))
                     for (idx, _, labels), x in zip(blocks, factors)])
                be = self._be(norm)
                acc[be] = acc.get(be, ZERO) + sign * c * c2
        return GradedVector(acc)

    def _relabeled(self, blocks, p) -> GradedVector:
        """The word with label l renamed p[l]."""
        return self._words([(1, [(idx, x, tuple(p[l] for l in labels))
                                 for idx, x, labels in blocks])])

    def _concat(self, a: BE, shift, b: BE, most) -> GradedVector:
        """a's blocks, then b's with their labels moved up by shift; a word
        of more than `most` blocks lies past the truncation."""
        blocks = self._split(a) + [(idx, x, tuple(l + shift for l in labels))
                                   for idx, x, labels in self._split(b)]
        if len(blocks) > most:
            raise TruncationExceeded("too many factors")
        return self._words([(1, blocks)])

    def _build_action(self, idx):
        def apply_basis(p, a):
            return self._relabeled(self._split(a), p)

        return symmetric_action(self.arity(idx), apply_basis)


class NcTensorExtension(_BlockWords):
    """Tensor-model nc extension of a connected modular-kind instance.

    Components are indexed by (gamma, n) with gamma the sum of the factors'
    genus labels; basis elements are words of blocks (`_BlockWords`) whose
    block list is sorted by representation, with the Koszul sign of the
    sorting.  Every gluing, the box product and the action answer in this
    basis, save a word with a block of no labels (a closed factor), which
    the components do not list.
    """

    base_flavor = "modular"

    def __init__(self, base: StructureInstance, max_factors: int = 2):
        self.max_factors = max_factors
        self.kind = "nc-k-modular" if kind_is_odd(base.kind) else "nc-modular"
        super().__init__(base)

    def _be(self, blocks):
        ident = ("ncb", tuple((idx, (b.ident, b.degree), labels)
                              for idx, b, labels in blocks))
        return BE(ident, sum(b.degree for _, b, _ in blocks))

    def _split(self, a: BE):
        return [(idx, BE(i, d), labels) for idx, (i, d), labels in a.ident[1]]

    def normalize(self, blocks):
        """Sort blocks by their representation, tracking the Koszul sign."""
        keyed = sorted(range(len(blocks)), key=lambda i: repr(blocks[i]))
        perm = [0] * len(blocks)
        for newpos, i in enumerate(keyed):
            perm[i] = newpos
        sign = koszul_sign(tuple(perm), [b.degree for _, b, _ in blocks])
        return sign, [blocks[i] for i in keyed]

    def _build_component(self, idx):
        gamma, n = idx
        out = []
        seen = set()
        for k in range(1, self.max_factors + 1):
            for parts in _ordered_partitions(list(range(n)), k):
                for gs in _compositions(gamma, k):
                    for combo in itertools.product(
                            *[self.base.component((g, len(p)))
                              for g, p in zip(gs, parts)]):
                        blocks = [((g, len(p)), b, tuple(p))
                                  for g, p, b in zip(gs, parts, combo)]
                        sign, norm = self.normalize(blocks)
                        be = self._be(norm)
                        if sign == 1 and be.ident not in seen:
                            seen.add(be.ident)
                            out.append(be)
        return out

    def box_basis(self, ai, a, bi, b) -> GradedVector:
        return self._concat(a, ai[1], b, self.max_factors)

    def self_basis(self, ai, a, s, t) -> GradedVector:
        blocks = self._split(a)
        ps = _locate(blocks, s)
        pt = _locate(blocks, t)
        if ps[0] == pt[0]:
            return self._internal_glue(ai, blocks, ps, pt)
        return self._cross_glue(ai, blocks, ps, pt)

    def _dress(self, blocks, upto):
        """Sign for the odd gluing operator passing the earlier blocks."""
        if not kind_is_odd(self.kind):
            return 1
        d = sum(blocks[i][1].degree for i in range(upto))
        return -1 if d % 2 else 1

    def _renumber(self, n_total, s, t):
        order = rotation_order2(n_total, s, t)
        return {old: new for new, old in enumerate(order)}

    def _internal_glue(self, ai, blocks, ps, pt):
        bi, si = ps
        _, ti = pt
        idx, x, labels = blocks[bi]
        glued = self.base.self_basis(idx, x, min(si, ti), max(si, ti))
        rest = rotation_order2(len(labels), min(si, ti), max(si, ti))
        relabel = self._renumber(ai[1], labels[si], labels[ti])
        new_labels = tuple(relabel[labels[i]] for i in rest)
        dress = self._dress(blocks, bi)
        return self._rebuild(blocks, bi, None, glued,
                             (idx[0] + 1, idx[1] - 2), new_labels, dress,
                             relabel)

    def _cross_glue(self, ai, blocks, ps, pt):
        (bi, si), (bj, tj) = ps, pt
        idx_i, x, labels_i = blocks[bi]
        idx_j, y, labels_j = blocks[bj]
        glued = self.base.circ_st(idx_i, GradedVector.unit(x), si,
                                  idx_j, GradedVector.unit(y), tj)
        order_i = rotation_order(len(labels_i), si)
        order_j = rotation_order(len(labels_j), tj)
        relabel = self._renumber(ai[1], labels_i[si], labels_j[tj])
        new_labels = tuple([relabel[labels_i[k]] for k in order_i]
                           + [relabel[labels_j[k]] for k in order_j])
        dress = self._dress(blocks, min(bi, bj))
        ridx = (idx_i[0] + idx_j[0], idx_i[1] + idx_j[1] - 2)
        return self._rebuild(blocks, bi, bj, glued, ridx, new_labels, dress,
                             relabel)

    def _rebuild(self, blocks, bi, bj, glued: GradedVector, ridx, new_labels,
                 dress, relabel):
        """The word of the untouched blocks and the glued one, whose
        positions carry new_labels."""
        rest = [(ix, b, tuple(relabel[l] for l in ls))
                for k, (ix, b, ls) in enumerate(blocks) if k not in (bi, bj)]
        return self._words([(c2 * dress, rest + [(ridx, b2, new_labels)])
                            for b2, c2 in glued.terms.items()])

    def circ_st_basis(self, ai, a, s, bi, b, t) -> GradedVector:
        return self.self_glue(self.box_index(ai, bi),
                              self.box_basis(ai, a, bi, b), s, ai[1] + t)

    def component_of_basis(self, be):
        if not (isinstance(be.ident, tuple) and be.ident[0] == "ncb"):
            return None
        blocks = self._split(be)
        gamma = sum(idx[0] for idx, _, _ in blocks)
        n = sum(len(labels) for _, _, labels in blocks)
        return (gamma, n)


def _locate(blocks, pos):
    """(i, j) with pos the j-th label of blocks[i], whose labels come last."""
    for i, block in enumerate(blocks):
        if pos in block[-1]:
            return i, block[-1].index(pos)
    raise ValueError(pos)


def _ordered_partitions(items, k):
    """Partitions of the ordered items into k nonempty ordered blocks."""
    if k == 1:
        yield [tuple(items)]
        return
    n = len(items)
    for mask in itertools.product(range(k), repeat=n):
        if set(mask) != set(range(k)):
            continue
        blocks = [tuple(items[i] for i in range(n) if mask[i] == j)
                  for j in range(k)]
        yield blocks


def _compositions(total, k):
    if k == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, k - 1):
            yield (first,) + rest


# --------------------------------------------------------------------------
# free operad on rooted trees


class FreeOperad(FreeTwisted):
    """Free operad: generator-decorated rooted trees with labeled leaves.

    Leaf-labeled rooted trees have no automorphisms, so the averaging
    projector is the identity and components are plain direct sums over
    isomorphism classes.  Composition grafts the root of the second tree
    into a leaf of the first.
    """

    def __init__(self, gen: StructureInstance, max_edges: int):
        super().__init__(gen, "operad", max_edges, edge_degree=0)

    def _graph_class(self, n):
        # a rooted-tree vertex of in-arity a has valence a + 1
        types = {(0, a + 1) for a in getattr(self.gen, "_components", {})}
        sig = {"in_labels": [_position_label(i) for i in range(n)],
               "out_labels": ["r"]}
        return "rooted-tree", sig, types

    def _index_of_graph(self, graph):
        return len(graph.tails()) - 1

    def circ_basis(self, ai, a, i, bi, b) -> GradedVector:
        # b's leaves take the place of leaf i; later leaves of a move up
        amap = {_position_label(k): _position_label(k + bi - 1)
                for k in range(i, ai)}
        amap[_position_label(i - 1)] = "glue-a"
        bmap = {_position_label(k): _position_label(i - 1 + k)
                for k in range(bi)}
        bmap["r"] = "glue-b"
        return self._graft(("circ", i), ai + bi - 1, ai, a, amap, bi, b, bmap)


def free_operad(gen: StructureInstance, max_edges: int) -> FreeOperad:
    return FreeOperad(gen, max_edges)


def trivial_operadic_generator(arities, degree=0) -> GeneratorInstance:
    return _trivial_generator("operad", arities, degree)


# --------------------------------------------------------------------------
# dg instances and the Feynman transform


class DgInstance:
    """A structure instance with a degree +1 differential.

    The differential is a callable (idx, GradedVector) -> GradedVector; it
    must square to zero and be a derivation for the compositions.
    """

    def __init__(self, inst: StructureInstance, diff=None):
        self.inst = inst
        self.diff = diff or (lambda idx, v: GradedVector())

    def d(self, idx, v: GradedVector) -> GradedVector:
        return self.diff(idx, v)

    def check_square(self, idxs) -> bool:
        for idx in idxs:
            for be in self.inst.component(idx):
                dd = self.d(idx, self.d(idx, GradedVector.unit(be)))
                if not dd.is_zero():
                    return False
        return True


def modular_e_differential(E, d_space: dict):
    """Extend a differential on the space to E(V) tensors as a derivation."""

    def diff(idx, v: GradedVector) -> GradedVector:
        acc: dict = {}
        for be, c in v.terms.items():
            word = E._split(be)
            for i, f in enumerate(word):
                img = d_space.get(f.ident, GradedVector())
                if img.is_zero():
                    continue
                sign = -1 if sum(x.degree for x in word[:i]) % 2 else 1
                for nf, c2 in img.terms.items():
                    nbe = E._be(word[:i] + (nf,) + word[i + 1:], *idx)
                    acc[nbe] = acc.get(nbe, 0) + c * c2 * sign
        return GradedVector(acc)

    return diff


def dual_generator_instance(o: StructureInstance, window) -> GeneratorInstance:
    """Componentwise duals with the contragredient action."""
    comps = {}
    acts = {}
    for idx in window:
        basis = o.component(idx)
        comps[idx] = [BE(("dl", b.ident), -b.degree) for b in basis]
        acts[idx] = _dual_action(o, idx, basis)
    return GeneratorInstance(o.kind, comps, acts)


def _dual_action(o, idx, basis):
    def apply_basis(g, phi: BE):
        # (g phi)(x) = phi(g^{-1} x).  The source's action is looked up on o
        # here: it is built over a weak proxy of o, so this closure must
        # hold o itself to keep the source alive
        act = o.action(idx)
        primal, ginv = phi.ident[1], invert(g)
        acc: dict = {}
        for b in basis:
            for b2, c in act.apply_basis(ginv, b).terms.items():
                if b2.ident == primal:
                    dual = BE(("dl", b.ident), -b.degree)
                    acc[dual] = acc.get(dual, ZERO) + c
        return GradedVector(acc)

    return GroupAction(o.action(idx).elements, apply_basis)


def _dual_decoration(ident) -> BE:
    """The dual of the primal decoration with factors ((ident, degree), ...)."""
    return decoration([BE(("dl", i), -d) for i, d in ident])


def closed_window(requested, max_edges: int):
    """Close a set of (g, n) types under edge contraction within the bound.

    Contracting an inserted edge can merge vertices into types with fewer
    flags or lower genus; the free components only cancel pairwise in the
    differential when all such intermediate types are present.
    """
    gmax = max(g for g, _ in requested)
    nmax = max(n for _, n in requested) + 2 * max_edges
    return [(g, n) for g in range(gmax + 1) for n in range(nmax + 1)]


class _ContractionPlan:
    """Contraction of edge e of ghat onto canon, the canonical form of
    ghat/e, with the vertices of ghat decorated by factors of o.

    Everything that does not depend on the factors is worked out once:
    canon, the sign of the edge word (e taken out of ghat's sorted word,
    the rest carried onto canon's), the flag positions s, t of e's ends, the
    flags the glued factor keeps, the merged vertex, the vertices and
    `local_move`s of the other factors.
    `contract` glues the factors at the ends of e by o's own composition,
    then transports the result and the untouched factors onto canon and
    merges them in its vertex order.
    """

    def __init__(self, o, ghat, e):
        flavor = kind_flavor(o.kind)
        canon, relabel = G.canonical_form(G.contract_edge(ghat, e))
        self.o, self.canon = o, canon
        vnew, fnew = relabel["vertices"], relabel["flags"]
        word = sorted(tuple(sorted(x)) for x in ghat.edges())
        key = tuple(sorted(e))
        rest = [tuple(sorted((fnew[a], fnew[b]))) for a, b in word
                if (a, b) != key]
        self.word_sign = (-1) ** word.index(key) * wedge_reorder_sign(
            rest, sorted(tuple(sorted(x)) for x in canon.edges()))
        f1, f2 = e
        v1, v2 = ghat.boundary[f1], ghat.boundary[f2]
        old_vs = list(ghat.vertices)
        self.p1 = old_vs.index(v1)
        self.idx1 = local_index(flavor, ghat, v1)
        o1 = local_flag_order(flavor, ghat, v1)
        if v1 == v2:
            self.p2 = None
            self.s, self.t = sorted((o1.index(f1), o1.index(f2)))
            glued_flags = [o1[k] for k in rotation_order2(len(o1), self.s,
                                                          self.t)]
            self.others = [i for i in range(len(old_vs)) if i != self.p1]
        else:
            self.p2 = old_vs.index(v2)
            self.idx2 = local_index(flavor, ghat, v2)
            o2 = local_flag_order(flavor, ghat, v2)
            self.s, self.t = o1.index(f1), o2.index(f2)
            # bring the two factors to the front in (p1, p2) order
            self.others = [i for i in range(len(old_vs))
                           if i not in (self.p1, self.p2)]
            front = [self.p1, self.p2] + self.others
            self.perm = tuple(front.index(i) for i in range(len(old_vs)))
            glued_flags = ([o1[k] for k in rotation_order(len(o1), self.s)]
                           + [o2[k] for k in rotation_order(len(o2), self.t)])
        merged_v = canon.boundary[fnew[glued_flags[0]]] \
            if glued_flags else vnew[min(v1, v2)]
        # the glued factor sits at the merged vertex, the others move along
        slots = [(merged_v, [fnew[f] for f in glued_flags])] + [
            (vnew[old_vs[i]],
             [fnew[f] for f in local_flag_order(flavor, ghat, old_vs[i])])
            for i in self.others]
        self.names = [v for v, _ in slots]
        self.moves = [local_move(flavor, canon, v, flags)
                      for v, flags in slots]

    def contract(self, dec) -> GradedVector:
        """The contraction of the decoration with per-vertex factors dec."""
        o = self.o
        if self.p2 is None:
            glued = o.self_basis(self.idx1, dec[self.p1], self.s, self.t)
            sign0 = 1
        else:
            glued = o.circ_st_basis(self.idx1, dec[self.p1], self.s,
                                    self.idx2, dec[self.p2], self.t)
            sign0 = koszul_sign(self.perm, [x.degree for x in dec])
        rest = [dec[i] for i in self.others]
        acc: dict = {}
        for gbe, gc in glued.terms.items():
            terms = transport(o, [gbe] + rest, self.moves)
            merge_into(acc, self.canon, [(self.names, terms)], sign0 * gc)
        return GradedVector(acc)


class FeynmanTransform:
    """Free odd construction on the dual generators with the edge-insertion
    differential; edges carry degree +1 so the differential has degree +1.

    The one-edge matrix elements are adjoint to the source gluings: the
    coefficient of the dual decoration of x in d(phi) is the coefficient of
    phi's primal decoration in the contraction of x along the new edge.
    `d_edge` reads them from an index of each component's contractions by
    the block they land in, and projects into a block by solving against
    its one `Span`.  The index is built with one `_ContractionPlan` per
    (block, edge), shared by every decoration of the block.  Dual and
    primal words are paired factor by factor with no Koszul sign, in the
    internal part too, so (d* phi)(x) = -phi(dx) on each factor (see
    `_dual_diff`).
    """

    def __init__(self, source: DgInstance, window, max_edges: int,
                 close_window: bool = True):
        if kind_flavor(source.inst.kind) != "modular":
            raise UnsupportedKind(f"the Feynman transform of a {source.inst.kind}"
                                  " instance: the source must be modular")
        if getattr(source.inst, "form", None) is not None \
                and source.inst.form.degree % 2:
            raise NonInvertibleTwist("transform needs an even-degree gluing")
        if kind_is_odd(source.inst.kind):
            # its transform needs an untwisted target, which is not built
            raise UnsupportedKind(f"the Feynman transform of a "
                                  f"{source.inst.kind} instance")
        self.source = source
        self.window = (closed_window(window, max_edges) if close_window
                       else list(window))
        self.gen = dual_generator_instance(source.inst, self.window)
        self.free = FreeTwisted(self.gen, "k-modular", max_edges,
                                edge_degree=+1)
        self._targets: dict = {}  # idx -> see `_contractions_into`
        self._dual_diffs: dict = {}  # loc -> primal ident -> d* image

    # -- primal one-edge contraction ------------------------------------

    def _contract_data(self, bhat: _GraphBlock, e):
        """(contracted canonical graph, word sign, primal ident -> image)."""
        o = self.source.inst
        plan = _ContractionPlan(o, bhat.graph, e)
        raw_map = {}
        for dec in itertools.product(*[o.component(loc) for loc in bhat.locs]):
            ident = tuple((x.ident, x.degree) for x in dec)
            raw_map[ident] = plan.contract(dec)
        return plan.canon, plan.word_sign, raw_map

    def _contractions_into(self, idx) -> dict:
        """The one-edge contractions in component idx by the key of the
        block they land in: [(bhat, word sign, phi -> [(x*, c)])], with c
        the coefficient of phi's primal in x contracted.  Built once."""
        if idx not in self._targets:
            index: dict = {}
            for bhat in self.free.blocks(idx):
                for e in bhat.graph.edges():
                    canon, word_sign, raw_map = self._contract_data(bhat, e)
                    by_phi: dict = {}
                    for xident, vec in raw_map.items():
                        x_dual = _dual_decoration(xident)
                        for pbe, pc in vec.terms.items():
                            by_phi.setdefault(_dual_decoration(pbe.ident[1]),
                                              []).append((x_dual, pc))
                    index.setdefault(canon.canonical_key(), []).append(
                        (bhat, word_sign, by_phi))
            self._targets[idx] = index
        return self._targets[idx]

    # -- the differential --------------------------------------------------

    def d_edge(self, x: SumElement) -> SumElement:
        """Edge insertion: each term reads only the contractions onto its
        block; the raw images are summed per block and projected once."""
        parts = {}
        for idx, v in x.items():
            index = self._contractions_into(idx)
            per_block: dict = {}
            for be, c in v.terms.items():
                block, raw = self.free.expand(idx, be)
                for bhat, word_sign, by_phi in index.get(block.key, ()):
                    psi = per_block.setdefault(bhat.key, (bhat, {}))[1]
                    for phi, cp in raw.terms.items():
                        for xd, cx in by_phi.get(phi, ()):
                            psi[xd] = psi.get(xd, 0) + word_sign * c * cp * cx
            parts[idx] = self.free.project_blocks(per_block.values())
        return SumElement(parts)

    def d_internal(self, x: SumElement) -> SumElement:
        """Dual of the source differential, extended as a derivation.

        It acts on decorations only, so each term stays in the block of the
        graph it came from; raw decorations alone do not name the graph.
        """
        parts = {}
        F = self.free
        for idx, v in x.items():
            per_block: dict = {}
            for be, c in v.terms.items():
                block, raw = F.expand(idx, be)
                acc = per_block.setdefault(block.key, (block, {}))[1]
                nE = len(block.graph.edges())
                for dec, cd in raw.terms.items():
                    factors = decoration_factors(dec)
                    for slot in range(len(factors)):
                        img = self._dual_diff(block.locs[slot], factors[slot])
                        if img.is_zero():
                            continue
                        sign = (-1) ** (nE + sum(f.degree for f
                                                 in factors[:slot]))
                        for nf, c2 in img.terms.items():
                            nbe = decoration(
                                factors[:slot] + (nf,) + factors[slot + 1:])
                            acc[nbe] = acc.get(nbe, ZERO) + c * cd * c2 * sign
            parts[idx] = F.project_blocks(per_block.values())
        return SumElement(parts)

    def _dual_diff(self, loc, phi: BE) -> GradedVector:
        """(d* phi)(x) = -phi(dx).

        No parity factor (-1)^{|phi|}: dual and primal words are paired
        factor by factor, as in `d_edge`, and the Koszul sign of
        moving d past the edges and the earlier factors is applied in
        `d_internal`.
        """
        if loc not in self._dual_diffs:
            # d* of every dual of the component, by the primal's ident
            by_primal: dict = {}
            for b in self.source.inst.component(loc):
                dual = BE(("dl", b.ident), -b.degree)
                img = self.source.d(loc, GradedVector.unit(b))
                for b2, c in img.terms.items():
                    acc = by_primal.setdefault(b2.ident, {})
                    acc[dual] = acc.get(dual, ZERO) - c
            self._dual_diffs[loc] = {ident: GradedVector(acc)
                                     for ident, acc in by_primal.items()}
        return self._dual_diffs[loc].get(phi.ident[1], GradedVector())

    def d(self, x: SumElement) -> SumElement:
        return self.d_internal(x) + self.d_edge(x)


# --------------------------------------------------------------------------
# master equation

@dataclass
class MasterSeries:
    """Terms m_{g,n}: invariant degree-0 vectors in the carrier components."""

    terms: dict  # (g, n) -> GradedVector

    def as_sum(self) -> SumElement:
        return SumElement(dict(self.terms))

    def term(self, idx) -> GradedVector:
        return self.terms.get(idx, GradedVector())


def build_master_carrier(w_space, w_form_entries, v_space, v_form_entries,
                         v_diff: dict, max_flags=8, max_genus=3):
    """The carrier E(W (x) V) for checking master equations.

    W carries an even symmetric form, V an odd one plus a differential; the
    product form is odd, so the carrier is a k-modular E-instance.  Returns
    (carrier, U-space basis, differential function, (W form, V form)).
    """
    bw = BilinearForm(w_space, w_form_entries, degree=0, symmetry="sym")
    bv = BilinearForm(v_space, v_form_entries, degree=1, symmetry="sym")
    u_space = []
    for w in w_space:
        for v in v_space:
            u_space.append(BE(("u", w.ident, v.ident), w.degree + v.degree))
    entries = {}
    for w1 in w_space:
        for v1 in v_space:
            for w2 in w_space:
                for v2 in v_space:
                    c = bw.value(w1, w2) * bv.value(v1, v2)
                    if c:
                        sign = -1 if (v1.degree % 2 and w2.degree % 2) else 1
                        entries[(("u", w1.ident, v1.ident),
                                 ("u", w2.ident, v2.ident))] = sign * c
    bu = BilinearForm(u_space, entries, degree=1, symmetry="sym")
    carrier = ModularE(u_space, bu, max_flags=max_flags, max_genus=max_genus)

    du = {}
    for w in w_space:
        for v in v_space:
            img = v_diff.get(v.ident, GradedVector())
            if img.is_zero():
                continue
            sign = -1 if w.degree % 2 else 1
            out = GradedVector()
            for v2, c in img.terms.items():
                out = out + GradedVector.unit(
                    BE(("u", w.ident, v2.ident), w.degree + v2.degree),
                    sign * c)
            du[("u", w.ident, v.ident)] = out
    d_fun = modular_e_differential(carrier, du)
    return carrier, u_space, d_fun, (bw, bv)


def invariant_degree_basis(inst, idx, degree=0):
    """Basis of the degree-`degree` invariants of a component."""
    return [avg for _, avg in invariant_basis(
        inst.action(idx),
        [be for be in inst.component(idx) if be.degree == degree])]


def master_lhs(series: MasterSeries, carrier, d_fun) -> SumElement:
    """dS + Delta S + (1/2){S (.) S}, componentwise over (g, n).

    The genus index realizes the lambda-grading: Delta raises it by one and
    the bracket adds it, so keeping components separate is the refined form.
    """
    S = series.as_sum()
    for idx, v in S.items():
        if v.homogeneous_degree() not in (0, None):
            raise DegreeError("master series must be degree 0")
        if v.homogeneous_degree() is None:
            raise DegreeError("master series terms must be homogeneous")
    dS = SumElement({idx: d_fun(idx, v) for idx, v in S.items()})
    lhs = dS + delta(S, carrier) + cyclic_bracket(S, S, carrier).scale(Q(1, 2))
    return lhs


def master_lhs_components(series, carrier, d_fun, window) -> dict:
    lhs = master_lhs(series, carrier, d_fun)
    return {idx: lhs.parts.get(idx, GradedVector()) for idx in window}


def random_series(carrier, window, seed: int) -> MasterSeries:
    """Random degree-0 invariants, coefficients -3..3 on each basis vector."""
    import random as _random
    rng = _random.Random(seed)
    terms = {}
    for idx in window:
        basis = invariant_degree_basis(carrier, idx, 0)
        v = GradedVector()
        for b in basis:
            v = v + b.scale(Q(rng.randrange(-3, 4)))
        if not v.is_zero():
            terms[idx] = v
    return MasterSeries(terms)


# -- verdict (b): a dg map out of the real Feynman transform


def morphism_defects(series: MasterSeries, forms, v_diff: dict,
                     window) -> dict:
    """f(d phi) + d_V f(phi) for each generator phi of the window, if not 0.

    F is the Feynman transform of E(W) on the window and the series types,
    with one edge.  The series gives the morphism f: F -> E(V) that sends
    the generator phi of type (g, n) to n!·2^g·<phi, m_{g,n}>, the pairing
    of phi with the W-words of m_{g,n}.  The factor matches the counts: the
    left-hand side sums a loop over the C(n+2, 2) flag pairs of its term and
    a bridge over the (n1+1)(n2+1) flag pairs of an ordered pair of terms,
    while d_F sums over one-edge graphs with labelled tails.  The defect is
    then (-1)^{|phi|}·n!·2^g·<phi, LHS_{g,n}> with the left-hand side
    averaged over S_n, so it sees the coinvariants of the left-hand side.
    Returns {(idx, ident of the E(W) basis element dual to phi): defect}.
    """
    bw, bv = forms
    types = sorted(set(window) | set(series.terms))
    bounds = {"max_flags": max((n for _, n in types), default=0),
              "max_genus": max((g for g, _ in types), default=0)}
    target = ModularE(bv.space, bv, **bounds)
    d_v = modular_e_differential(target, v_diff)
    ft = FeynmanTransform(DgInstance(ModularE(bw.space, bw, **bounds)),
                          types, 1, close_window=False)
    tables = {loc: _pairing_table(series.term(loc), loc, bw.space, target)
              for loc in types}

    def gen_map(loc, x):
        return tables[loc].get(tuple(i for i, _ in x.ident[1][2]),
                               GradedVector())

    defects = {}
    for idx in window:
        (corolla,) = [b for b in ft.free.blocks(idx) if not b.graph.edges()]
        for phi in corolla.inv_bes:
            x = GradedVector.unit(phi)
            dx = ft.d(SumElement.single(idx, x)).parts.get(idx, GradedVector())
            defect = ft.free.evaluate(idx, _koszul_bridges(ft.free, idx, dx),
                                      target, gen_map) \
                + d_v(idx, ft.free.evaluate(idx, x, target, gen_map))
            if not defect.is_zero():
                (dec,) = ft.free.expand(idx, phi)[1].terms
                (dual,) = decoration_factors(dec)
                defects[(idx, dual.ident[1])] = defect
    return defects


def _koszul_bridges(free: FreeTwisted, idx, v: GradedVector) -> GradedVector:
    """v with each term on a bridge signed (-1)^{|x1||x2|} by the degrees of
    the generators at its ends; loops and corollas keep their sign.

    d_F transposes the contraction of E(W) pairing dual and primal words
    factor by factor, with no Koszul sign.  In E(W (x) V) the contraction of
    two unzipped terms W1 V1 and W2 V2 moves W2 past V1, and |V1| = |W1| =
    -|x1| mod 2, as every term of a series has degree 0: the sign is
    (-1)^{|x1||x2|}.  A loop contracts one term in place, and nothing
    passes.
    """
    out = {}
    for be, c in v.terms.items():
        dec = next(iter(free.expand(idx, be)[1].terms))
        degrees = [x.degree for x in decoration_factors(dec)]
        bridge_odd = len(degrees) == 2 and degrees[0] * degrees[1] % 2
        out[be] = -c if bridge_odd else c
    return GradedVector(out)


def _pairing_table(m: GradedVector, idx, w_space, target) -> dict:
    """W-word idents -> n!·2^g·<w*, m> in the target E(V), for m in E(W (x) V)
    at idx = (g, n): each U-word is unzipped into its W- and V-words."""
    g, n = idx
    wdeg = {w.ident: w.degree for w in w_space}
    scale = math.factorial(n) * 2 ** g
    out: dict = {}
    for be, c in m.terms.items():
        ws = [BE(u[1], wdeg[u[1]]) for u, _ in be.ident[2]]
        vs = [BE(u[2], d - wdeg[u[1]]) for u, d in be.ident[2]]
        acc = out.setdefault(tuple(w.ident for w in ws), {})
        b = target._be(vs, g, n)
        acc[b] = acc.get(b, ZERO) + scale * c * _unzip_sign(ws, vs)
    return {word: GradedVector(acc) for word, acc in out.items()}


def _unzip_sign(ws, vs):
    """Koszul sign of [w1 v1 w2 v2 ...] -> [w1 w2 ... v1 v2 ...]: v_i passes
    every w_j with i < j, so it is the parity of sum_{i<j} |v_i||w_j|."""
    odd = passed = 0  # passed: the degree of the v's so far
    for w, v in zip(ws, vs):
        odd += passed * w.degree
        passed += v.degree
    return -1 if odd % 2 else 1


@dataclass
class CertifyReport:
    lhs_zero: bool
    morphism_ok: bool
    agree: bool
    lhs_witness: dict | None
    morphism_witness: dict | None


def certify_dg_algebra(series: MasterSeries, carrier, d_fun, forms,
                       v_diff: dict, window) -> CertifyReport:
    """Two independent verdicts that the theorem says must agree: the
    left-hand side vanishes, and the series is a dg map out of the Feynman
    transform (`morphism_defects`).  Both read the S_n-coinvariants: a
    component of the left-hand side counts as vanishing when its
    coinvariant class does, though its raw terms (the witness counts) may
    not.  The morphism is built from the averaged series, as f is
    S_n-equivariant only for invariant terms."""
    comps = master_lhs_components(series, carrier, d_fun, window)
    lhs_zero = all(carrier.coinvariant_class(idx, v).is_zero()
                   for idx, v in comps.items())
    witness = None
    if not lhs_zero:
        witness = {str(idx): len(v.terms) for idx, v in comps.items()
                   if not v.is_zero()}
    averaged = MasterSeries({idx: carrier.average(idx, v)
                             for idx, v in series.terms.items()})
    defects = morphism_defects(averaged, forms, v_diff, window)
    morphism_ok = not defects
    mwitness = None if morphism_ok else \
        {str(k): len(v.terms) for k, v in list(defects.items())[:3]}
    return CertifyReport(lhs_zero, morphism_ok, lhs_zero == morphism_ok,
                         witness, mwitness)


def solve_master_series(carrier, d_fun, window, seed=0, seed_component=None):
    """Search for a nonzero series solving the master equation by obstruction
    lifting: seed one component with a d-closed term, then solve d m = -rest
    exactly at each later component."""
    import random as _random
    rng = _random.Random(seed)
    order = sorted(window, key=lambda gn: (gn[0], gn[1]))
    terms: dict = {}
    first = seed_component or order[0]
    order = [first] + [idx for idx in order if idx != first]
    basis = invariant_degree_basis(carrier, first, 0)
    kernel = [b for b in basis if d_fun(first, b).is_zero()]
    if not kernel:
        return None
    terms[first] = kernel[rng.randrange(len(kernel))]
    for idx in order[1:]:
        partial = MasterSeries(dict(terms))
        lhs = master_lhs(partial, carrier, d_fun)
        rest = lhs.parts.get(idx, GradedVector())
        if rest.is_zero():
            continue
        basis = invariant_degree_basis(carrier, idx, 0)
        images = [d_fun(idx, v).terms for v in basis]
        target = {b: -c for b, c in rest.terms.items()}
        coords = coords_in_span(images, target)
        if coords is None:
            return None
        fix = GradedVector()
        for c, v in zip(coords, basis):
            if c:
                fix = fix + v.scale(c)
        terms[idx] = terms.get(idx, GradedVector()) + fix
    final = MasterSeries(terms)
    comps = master_lhs_components(final, carrier, d_fun, window)
    if not all(v.is_zero() for v in comps.values()):
        return None
    return final


# --------------------------------------------------------------------------
# the PROP generated by an operad, and the free nc-operad


class _RowWords(_BlockWords):
    """Words of rows over an operad.

    A row is a block (`_BlockWords`) of an operad factor of arity k, with k
    input labels; the rows of a word partition the inputs and keep their
    order.  The identifier leaves out each row's component, its number of
    labels.
    """

    base_flavor = "operadic"
    row_tag = ""

    def _be(self, rows):
        ident = (self.row_tag, tuple(((b.ident, b.degree), labels)
                                     for _, b, labels in rows))
        return BE(ident, sum(b.degree for _, b, _ in rows))

    def _split(self, a: BE):
        return [(len(labels), BE(i, d), labels)
                for (i, d), labels in a.ident[1]]

    def from_operad(self, n, b: BE) -> BE:
        """The one-row word of an operad element of arity n."""
        return self._be([(n, b, tuple(range(n)))])

    def _row_words(self, n, m):
        """The rows of every word of m rows on the inputs 0..n-1."""
        arities = sorted(k for k in getattr(self.base, "_components", {})) \
            or list(range(0, n + 1))
        for sizes in itertools.product(arities, repeat=m):
            if sum(sizes) != n:
                continue
            for assign in _ordered_partitions_sized(list(range(n)), sizes):
                for combo in itertools.product(
                        *[self.base.component(k) for k in sizes]):
                    yield [(k, x, tuple(p))
                           for k, x, p in zip(sizes, combo, assign)]

    def _insert(self, na, rows_a, i, rows_b, j) -> GradedVector:
        """Insert row j of b into input i (0-based) of a, which has na inputs.

        The row of a owning input i takes the operadic composite; a's later
        inputs move down by one, b's inputs follow a's, and b's other rows
        follow a's rows.
        """
        p, slot = _locate(rows_a, i)
        _, target, labels_t = rows_a[p]
        _, src, labels_s = rows_b[j]
        glued = self.base.circ(len(labels_t), GradedVector.unit(target),
                               slot + 1, len(labels_s),
                               GradedVector.unit(src))
        # koszul: src moves past the factors after row p and b's rows before j
        passed = sum(x.degree for _, x, _ in rows_a[p + 1:]) \
            + sum(x.degree for _, x, _ in rows_b[:j])
        sign = -1 if (src.degree % 2 and passed % 2) else 1

        def of_a(labels):
            return tuple(l if l < i else l - 1 for l in labels)

        def of_b(labels):
            return tuple(na - 1 + l for l in labels)

        new_labels = (of_a(labels_t[:slot]) + of_b(labels_s)
                      + of_a(labels_t[slot + 1:]))
        head = [(k, x, of_a(ls)) for k, x, ls in rows_a[:p]]
        tail = ([(k, x, of_a(ls)) for k, x, ls in rows_a[p + 1:]]
                + [(k, x, of_b(ls))
                   for m, (k, x, ls) in enumerate(rows_b) if m != j])
        return self._words([(gc * sign,
                             head + [(len(new_labels), gb, new_labels)] + tail)
                            for gb, gc in glued.terms.items()])


class PropFromOperad(_RowWords):
    """Induced bimodule: rows of operad elements with distributed inputs.

    A basis element of component (n, m) is a word of m rows on the inputs
    0..n-1.  Restriction to (n, 1) recovers the operad.
    """

    kind = "prop"
    row_tag = "pr"

    def __init__(self, base: StructureInstance, max_in: int = 4,
                 max_out: int = 3):
        self.max_in = max_in
        self.max_out = max_out
        super().__init__(base)

    def _build_component(self, idx):
        n, m = idx
        if n > self.max_in or m > self.max_out:
            raise TruncationExceeded(str(idx))
        return [self._be(rows) for rows in self._row_words(n, m)]

    def _build_action(self, idx):
        n, m = idx

        def apply_basis(g, a):
            p, q = g
            rows = self._split(a)
            # outputs move the rows with the Koszul sign, inputs act inside
            sign = koszul_sign(q, [b.degree for _, b, _ in rows])
            moved = [None] * m
            for i, row in enumerate(rows):
                moved[q[i]] = row
            return self._relabeled(moved, p).scale(sign)

        elements = [(p, q) for p in all_perms(n) for q in all_perms(m)]
        return GroupAction(elements, apply_basis)

    def circ_st_basis(self, ai, a, i, bi, b, j) -> GradedVector:
        """Dioperadic gluing: input position i of a to output j of b."""
        ridx = self.circ_st_index(ai, bi)
        if ridx[0] > self.max_in or ridx[1] > self.max_out:
            raise TruncationExceeded(str(ridx))
        return self._insert(ai[0], self._split(a), i, self._split(b), j)

    def box_basis(self, ai, a, bi, b) -> GradedVector:
        if ai[0] + bi[0] > self.max_in:
            raise TruncationExceeded(str(self.box_index(ai, bi)))
        return self._concat(a, ai[0], b, self.max_out)

    def restrict_to_operad(self, a: BE):
        """(n, 1) components carry the original operad."""
        rows = self._split(a)
        if len(rows) != 1:
            raise KindMismatch("not an (n, 1) element")
        return rows[0][1]


def _ordered_partitions_sized(items, sizes):
    """Ordered partitions of items into sorted blocks of the given sizes."""
    if not sizes:
        if not items:
            yield []
        return
    k = sizes[0]
    for block in itertools.combinations(items, k):
        rest = [x for x in items if x not in block]
        for tail in _ordered_partitions_sized(rest, sizes[1:]):
            yield [sorted(block)] + tail


class NcOperad(_RowWords):
    """Free nc-extension of an operad: words of up to FACTORS rows, with
    box = concatenation and insertion summed over the factor roots."""

    kind = "nc-operad"
    row_tag = "nco"
    FACTORS = 3

    def __init__(self, base: StructureInstance, max_in: int = 5):
        self.max_in = max_in
        super().__init__(base)

    def box_basis(self, ai, a, bi, b) -> GradedVector:
        return self._concat(a, ai, b, self.FACTORS)

    def circ_basis(self, ai, a, i, bi, b) -> GradedVector:
        """Insert b into slot i of a, summing over the roots of b's rows."""
        rows_a, rows_b = self._split(a), self._split(b)
        out = GradedVector()
        for j in range(len(rows_b)):
            out = out + self._insert(ai, rows_a, i - 1, rows_b, j)
        return out

    def _build_component(self, n):
        if n > self.max_in:
            raise TruncationExceeded(str(n))
        return [self._be(rows) for m in range(1, self.FACTORS + 1)
                for rows in self._row_words(n, m)]
