"""Free twisted constructions, the Feynman transform, and master equations.

The free construction decorates isomorphism classes of graphs with generator
components, tensors on the twist line (realized as an ordered edge word), and
takes automorphism coinvariants via the averaging projector.  The Feynman
transform is the free odd construction on the dual generators with the
edge-insertion differential, assembled as the transpose of the one-edge
contraction operator.  Master-equation series are checked two independent
ways: the direct left-hand side, and the dg-morphism condition on transform
generators.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass

from . import graphs as G
from .brackets import SumElement, cyclic_bracket, delta
from .errors import (DegreeError, KindMismatch, NonInvertibleTwist,
                     TruncationExceeded, UnsupportedKind)
from .gradedlin import (BE, GradedVector, GroupAction, Q, all_perms, average,
                        coords_in_span, independent_rows, invert, koszul_sign,
                        permute_factors, wedge_reorder_sign)
from .smodules import (StructureInstance, contract_word, decorate,
                       kind_flavor, kind_has_box, kind_is_odd,
                       local_flag_order, local_index, rotation_order,
                       rotation_order2)


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


def trivial_modular_generator(types, degree=0) -> GeneratorInstance:
    """One-dimensional trivial generators at the given (g, n) types."""
    comps = {}
    acts = {}
    for (g, n) in types:
        be = BE(("gen", g, n), degree)
        comps[(g, n)] = [be]

        def apply_basis(p, a):
            return GradedVector.unit(a)

        acts[(g, n)] = GroupAction(all_perms(n), apply_basis)
    return GeneratorInstance("modular", comps, acts)


# --------------------------------------------------------------------------
# free twisted construction


@dataclass
class _GraphBlock:
    graph: object
    key: object
    raw_basis: list
    aut: GroupAction
    inv_bes: list
    inv_vectors: list  # dicts raw-ident -> Fraction


def _position_label(i: int) -> str:
    return f"p{i}"


class FreeTwisted(StructureInstance):
    """The free twisted construction on modular-flavored generators.

    Components are direct sums over isomorphism classes of genus-labeled
    graphs of (generators(Gamma) (x) twist(Gamma))_{Aut}.  The twist line is
    the determinant of the edge set with edges of the configured degree; the
    trivial twist has no line at all.  Operations raise TruncationExceeded
    when they leave the edge bound.
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
        super().__init__()

    # -- component assembly -------------------------------------------------

    def _graphs_for(self, idx):
        g, n = idx
        labels = [_position_label(i) for i in range(n)]
        flavor = kind_flavor(self.kind)
        gen_types = set()
        for key in getattr(self.gen, "_components", {}):
            gen_types.add(key)

        def vertex_ok(graph, v):
            if flavor == "nc-modular":
                loc = (graph.gamma_of(v), len(graph.vertex_flags(v)))
            else:
                loc = (graph.g_of(v), len(graph.vertex_flags(v)))
            return loc in gen_types if gen_types else True

        counts = sorted({n_ for (_, n_) in gen_types}) if gen_types else None
        if flavor == "nc-modular":
            sig = {"labels": labels, "gamma": g}
            cls = "graph"
        else:
            sig = {"labels": labels, "genus": g}
            cls = "connected-graph"
        if counts:
            sig["flag_counts"] = counts
        return G.enumerate_graphs(cls, sig, self.max_edges,
                                  vertex_ok=vertex_ok)

    def _block(self, idx, graph) -> _GraphBlock:
        key = graph.canonical_key()
        if key in self._by_key:
            return self._by_key[key]
        basis, aut, vorder = decorate(self.gen, graph)
        twist_char = self._twist_char(graph)
        # average with the twist character folded in; keep the averages
        # that are independent of the earlier ones
        avgs = [(be, average(aut, GradedVector.unit(be), twist_char))
                for be in basis]
        avgs = [(be, avg) for be, avg in avgs if not avg.is_zero()]
        keep = independent_rows([{b.ident: c for b, c in avg.terms.items()}
                                 for _, avg in avgs])
        inv_vectors = [dict(avgs[i][1].terms) for i in keep]
        shift = self.edge_degree * len(graph.edges())
        inv_bes = [BE(("fc", key, j), avgs[i][0].degree + shift)
                   for j, i in enumerate(keep)]
        block = _GraphBlock(graph, key, basis, aut, inv_bes, inv_vectors)
        self._by_key[key] = block
        return block

    def _build_component(self, idx):
        blocks = [self._block(idx, graph) for graph in self._graphs_for(idx)]
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
        if not self.odd:
            return lambda phi: 1
        edges = sorted(tuple(sorted(e)) for e in graph.edges())

        def char(phi):
            vmap, fmap = phi
            image = [tuple(sorted((fmap[a], fmap[b]))) for a, b in edges]
            return wedge_reorder_sign(image, edges)

        return char

    # -- raw <-> invariant bookkeeping ---------------------------------------

    def expand(self, idx, be: BE):
        """Invariant basis element -> (block, raw GradedVector)."""
        _, key, j = be.ident
        block = self._by_key[key]
        return block, GradedVector(block.inv_vectors[j])

    def project_raw(self, idx, block: _GraphBlock, raw: GradedVector) -> GradedVector:
        """Average a raw vector (twist-weighted) and express it in the
        invariant basis of its block."""
        avg = average(block.aut, raw, self._twist_char(block.graph))
        if avg.is_zero():
            return GradedVector()
        target = {b.ident: c for b, c in avg.terms.items()}
        basis = [{b.ident: c for b, c in vec.items()}
                 for vec in block.inv_vectors]
        coords = coords_in_span(basis, target)
        if coords is None:
            raise AssertionError("projection left the invariant span")
        return GradedVector(dict(zip(block.inv_bes, coords)))

    # -- raw gluing ----------------------------------------------------------

    def _glue(self, ridx, glued, pieces, new_edge=None) -> GradedVector:
        """The pipeline shared by every gluing and by the S_n action.

        `glued` was built from the graphs of the pieces, each given as
        (block, raw vector, vmap, fmap): vmap/fmap send the block graph's
        vertex/flag ids to those of `glued` (None: unchanged).  `new_edge`
        is the edge the gluing created, as two flags of `glued`.  The result
        is canonicalized, every decoration is transported onto it and merged
        with the edge-word and Koszul signs, and the sum is projected into
        the invariant basis of its block in component `ridx`.
        """
        if len(glued.edges()) > self.max_edges:
            raise TruncationExceeded("gluing leaves the edge bound")
        canon, relabel = G.canonical_form(glued)
        rblock = self._result_block(ridx, glued)
        vnew, fnew = relabel["vertices"], relabel["flags"]
        flavor = kind_flavor(self.kind)
        word = [] if new_edge is None else [tuple(sorted(fnew[f]
                                                         for f in new_edge))]
        moved = []
        for block, raw, vmap, fmap in pieces:
            graph = block.graph
            vto = {v: vnew[vmap[v] if vmap else v] for v in graph.vertices}
            fto = {f: fnew[fmap[f] if fmap else f] for f in graph.flags}
            word += [tuple(sorted((fto[a], fto[b]))) for a, b in graph.edges()]
            slots = [(vto[v],
                      [fto[f] for f in local_flag_order(flavor, graph, v)])
                     for v in graph.vertices]
            names = [v for v, _ in slots]
            moved.append([(dec, c, (names, _transport(self.gen, flavor, canon,
                                                      slots, _factors(dec))))
                          for dec, c in raw.terms.items()])
        wsign = 1
        if self.odd:
            wsign = wedge_reorder_sign(
                word, sorted(tuple(sorted(e)) for e in canon.edges()))
        n_edges = [len(block.graph.edges()) for block, _, _, _ in pieces]
        acc: dict = {}
        for combo in itertools.product(*moved):
            coeff = Q(wsign)
            earlier = 0  # degree of the earlier pieces' decorations
            for (dec, c, _), ne in zip(combo, n_edges):
                coeff *= c
                # a piece's edges pass the earlier decorations
                if self.odd and ne % 2 and earlier % 2:
                    coeff = -coeff
                earlier += dec.degree
            _merge_into(acc, canon, [part for _, _, part in combo], coeff)
        out = GradedVector(acc)
        return self.project_raw(ridx, rblock, out) if not out.is_zero() else out

    def _result_block(self, ridx, graph) -> _GraphBlock:
        """The block of component `ridx` holding a graph.

        The graph must have been through `G.canonical_form`, which caches
        its canonical key, so the lookup does not canonicalize again.
        """
        self.blocks(ridx)
        block = self._by_key.get(graph.canonical_key())
        if block is None:
            raise TruncationExceeded("glued graph missing from the component")
        return block

    def _relabel_positions(self, graph, label_map):
        labels = {f: label_map.get(l, l) for f, l in graph.labels.items()}
        return G.Graph(graph.vertices, graph.flags, graph.involution,
                       graph.boundary, genus=graph.genus, gamma=graph.gamma,
                       orientation=graph.orientation, labels=labels)

    def circ_st_basis(self, ai, a, s, bi, b, t) -> GradedVector:
        block_a, raw_a = self.expand(ai, a)
        block_b, raw_b = self.expand(bi, b)
        # surviving positions: a's after s, then b's after t
        amap = {_position_label(p): _position_label(new)
                for new, p in enumerate(rotation_order(ai[1], s))}
        bmap = {_position_label(p): _position_label(ai[1] - 1 + new)
                for new, p in enumerate(rotation_order(bi[1], t))}
        amap[_position_label(s)] = "glue-a"
        bmap[_position_label(t)] = "glue-b"
        ga = self._relabel_positions(block_a.graph, amap)
        gb = self._relabel_positions(block_b.graph, bmap)
        sf, tf = _flag_labelled(ga, "glue-a"), _flag_labelled(gb, "glue-b")
        glued, vmap, fmap = G.graft_with_maps(ga, sf, gb, tf)
        return self._glue(self.circ_st_index(ai, bi), glued,
                          [(block_a, raw_a, None, None),
                           (block_b, raw_b, vmap, fmap)],
                          new_edge=(sf, fmap[tf]))

    def self_basis(self, ai, a, s, t) -> GradedVector:
        block_a, raw_a = self.expand(ai, a)
        label_map = {_position_label(p): _position_label(new)
                     for new, p in enumerate(rotation_order2(ai[1], s, t))}
        label_map[_position_label(s)] = "glue-a"
        label_map[_position_label(t)] = "glue-b"
        ga = self._relabel_positions(block_a.graph, label_map)
        sf, tf = _flag_labelled(ga, "glue-a"), _flag_labelled(ga, "glue-b")
        glued = G.self_glue(ga, sf, tf)
        return self._glue(self._index_of_graph(glued), glued,
                          [(block_a, raw_a, None, None)], new_edge=(sf, tf))

    def box_basis(self, ai, a, bi, b) -> GradedVector:
        if not kind_has_box(self.kind):
            raise KindMismatch(f"{self.kind} has no horizontal composition")
        block_a, raw_a = self.expand(ai, a)
        block_b, raw_b = self.expand(bi, b)
        gb = self._relabel_positions(
            block_b.graph, {_position_label(i): _position_label(ai[1] + i)
                            for i in range(bi[1])})
        union, vmap, fmap = G.disjoint_union_with_maps(block_a.graph, gb)
        return self._glue(self._index_of_graph(union), union,
                          [(block_a, raw_a, None, None),
                           (block_b, raw_b, vmap, fmap)])

    def _index_of_graph(self, graph):
        flavor = kind_flavor(self.kind)
        n = len(graph.tails())
        if flavor == "nc-modular":
            return (G.additive_gamma(graph), n)
        return (G.total_genus(graph), n)

    def component_of_basis(self, be):
        if not (isinstance(be.ident, tuple) and be.ident[0] == "fc"):
            return None
        block = self._by_key[be.ident[1]]
        return self._index_of_graph(block.graph)

    def _build_action(self, idx):
        # the action and its image cache are stored on self; a weak
        # reference keeps that from being a cycle, so dropping the
        # instance frees the cache at once instead of at a full collection
        this = weakref.proxy(self)

        def apply_basis(p, a):
            block, raw = this.expand(idx, a)
            moved = this._relabel_positions(
                block.graph, {_position_label(i): _position_label(p[i])
                              for i in range(len(p))})
            return this._glue(idx, moved, [(block, raw, None, None)])

        return GroupAction(all_perms(self.arity(idx)), apply_basis)


def _flag_labelled(graph, label):
    return next(f for f, l in graph.labels.items() if l == label)


def _factors(dec: BE) -> tuple:
    """The per-vertex factors of a raw decoration ("dec", factors)."""
    return tuple(BE(i, d) for i, d in dec.ident[1])


def _transport(inst, flavor, canon, slots, factors) -> list:
    """Move decoration factors onto vertices of a canonical graph.

    slots[i] is (vertex of canon, canon flags of factor i in the factor's
    own position order); where that order differs from the local flag
    order at the vertex, factor i is moved by the action of `inst`.
    Returns [(coeff, factors)], the factors still in slot order.
    """
    terms = [(Q(1), list(factors))]
    for slot, (v, flags) in enumerate(slots):
        dst_order = local_flag_order(flavor, canon, v)
        p = tuple(dst_order.index(f) for f in flags)
        if p == tuple(range(len(p))):
            continue
        act = inst.action(local_index(flavor, canon, v))
        new_terms = []
        for c, fs in terms:
            img = act.apply_basis(p, fs[slot])
            for be2, c2 in img.terms.items():
                nf = list(fs)
                nf[slot] = be2
                new_terms.append((c * c2, nf))
        terms = new_terms
    return terms


def _merge_into(acc: dict, canon, parts, scale) -> None:
    """Interleave transported parts into canonical vertex order.

    Each part is (vertex names, [(coeff, factors)]); the concatenated
    factor list moves to the canonical vertex order with a Koszul sign, and
    each product of terms is added to acc as a raw decoration, times scale.
    """
    pos = {v: i for i, v in enumerate(canon.vertices)}
    perm = tuple(pos[v] for names, _ in parts for v in names)
    for combo in itertools.product(*[terms for _, terms in parts]):
        coeff = scale
        seq = []
        for c, fs in combo:
            coeff *= c
            seq.extend(fs)
        sign, moved = permute_factors(perm, tuple(seq))
        be = BE(("dec", tuple((x.ident, x.degree) for x in moved)),
                sum(x.degree for x in moved))
        acc[be] = acc.get(be, Q(0)) + coeff * sign


def free_construct(gen: StructureInstance, kind: str, twist: str,
                   bound: int) -> FreeTwisted:
    """Free (twisted) instance on the generators, truncated at `bound` edges.

    twist "K" builds the odd version (edge determinant line, edges of degree
    -1), twist "1" the even one.
    """
    if twist not in ("K", "1"):
        raise NonInvertibleTwist(f"unsupported twist {twist!r}")
    if kind not in ("modular", "k-modular", "nc-modular", "nc-k-modular"):
        raise UnsupportedKind(kind)
    odd = twist == "K"
    kind_map = {
        ("modular", False): "modular", ("modular", True): "k-modular",
        ("k-modular", True): "k-modular",
        ("nc-modular", False): "nc-modular",
        ("nc-modular", True): "nc-k-modular",
        ("nc-k-modular", True): "nc-k-modular",
    }
    actual = kind_map.get((kind, odd), kind)
    return FreeTwisted(gen, actual, bound, edge_degree=-1 if odd else 0)


def nc_extension(o: StructureInstance, bound: int | None = None) -> StructureInstance:
    """The free nc version: disconnected composition graphs with box = union."""
    if isinstance(o, FreeTwisted):
        kind = {"modular": "nc-modular", "k-modular": "nc-k-modular"}.get(
            o.kind, o.kind)
        return FreeTwisted(o.gen, kind, o.max_edges if bound is None else bound,
                           edge_degree=o.edge_degree)
    return NcTensorExtension(o, bound or 2)


class NcTensorExtension(StructureInstance):
    """Tensor-model nc extension of a connected modular-kind instance.

    Components are indexed by (gamma, n) with gamma the sum of the factors'
    genus labels; basis elements are tuples of factors with disjoint ordered
    position blocks, normalized so the block list is sorted (with the Koszul
    sign of the sorting).
    """

    def __init__(self, base: StructureInstance, max_factors: int = 2):
        if kind_flavor(base.kind) != "modular":
            raise UnsupportedKind(base.kind)
        self.base = base
        self.max_factors = max_factors
        self.kind = "nc-k-modular" if kind_is_odd(base.kind) else "nc-modular"
        super().__init__()

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
                        if sign == 0:
                            continue
                        be = self._be(norm)
                        if sign == 1 and be.ident not in seen:
                            seen.add(be.ident)
                            out.append(be)
        return out

    def _build_action(self, idx):
        gamma, n = idx

        def apply_basis(p, a):
            blocks = self._split(a)
            new_blocks = []
            for bidx, b, labels in blocks:
                new_labels = tuple(p[l] for l in labels)
                order = sorted(range(len(new_labels)),
                               key=lambda i: new_labels[i])
                local = tuple(order.index(i) for i in range(len(new_labels)))
                img = self.base.act(bidx, local, GradedVector.unit(b))
                new_blocks.append((bidx, img, tuple(sorted(new_labels))))
            out = GradedVector()
            for combo in itertools.product(
                    *[[(b2, c2) for b2, c2 in img.terms.items()]
                      for _, img, _ in new_blocks]):
                coeff = Q(1)
                blocks2 = []
                for (bidx, _, labels), (b2, c2) in zip(new_blocks, combo):
                    coeff *= c2
                    blocks2.append((bidx, b2, labels))
                sign, norm = self.normalize(blocks2)
                if sign:
                    out = out + GradedVector.unit(self._be(norm), sign * coeff)
            return out

        return GroupAction(all_perms(n), apply_basis)

    def box_basis(self, ai, a, bi, b) -> GradedVector:
        blocks_a = self._split(a)
        blocks_b = self._split(b)
        na = ai[1]
        shifted_b = [(idx, x, tuple(l + na for l in labels))
                     for idx, x, labels in blocks_b]
        if len(blocks_a) + len(shifted_b) > self.max_factors:
            raise TruncationExceeded("too many horizontal factors")
        sign, norm = self.normalize(blocks_a + shifted_b)
        if not sign:
            return GradedVector()
        return GradedVector.unit(self._be(norm), sign)

    def self_basis(self, ai, a, s, t) -> GradedVector:
        blocks = self._split(a)
        ps = self._locate(blocks, s)
        pt = self._locate(blocks, t)
        if ps[0] == pt[0]:
            return self._internal_glue(ai, blocks, ps, pt)
        return self._cross_glue(ai, blocks, ps, pt)

    def _locate(self, blocks, pos):
        for bi, (_, _, labels) in enumerate(blocks):
            if pos in labels:
                return (bi, labels.index(pos))
        raise ValueError(pos)

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
        rest = [(ix, b, tuple(relabel[l] for l in ls))
                for k, (ix, b, ls) in enumerate(blocks) if k not in (bi, bj)]
        out = GradedVector()
        for b2, c2 in glued.terms.items():
            blocks2 = rest + [(ridx, b2, new_labels)]
            sign, norm = self.normalize(blocks2)
            if sign:
                out = out + GradedVector.unit(self._be(norm),
                                              sign * c2 * dress)
        return out

    def circ_st_basis(self, ai, a, s, bi, b, t) -> GradedVector:
        prod = self.box_basis(ai, a, bi, b)
        out = GradedVector()
        for be, c in prod.terms.items():
            out = out + self.self_basis(self.box_index(ai, bi), be, s,
                                        ai[1] + t).scale(c)
        return out

    def component_of_basis(self, be):
        if not (isinstance(be.ident, tuple) and be.ident[0] == "ncb"):
            return None
        blocks = self._split(be)
        gamma = sum(idx[0] for idx, _, _ in blocks)
        n = sum(len(labels) for _, _, labels in blocks)
        return (gamma, n)


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
        super().__init__(gen, "modular", max_edges, edge_degree=0)
        self.kind = "operad"
        self.odd = False

    def _graphs_for(self, n):
        arities = sorted(idx for idx in getattr(self.gen, "_components", {}))

        def vertex_ok(graph, v):
            ins = [f for f in graph.vertex_flags(v)
                   if graph.orientation[f] == "in"]
            return len(ins) in arities

        sig = {"in_labels": [_position_label(i) for i in range(n)],
               "out_labels": ["r"]}
        return G.enumerate_graphs("rooted-tree", sig, self.max_edges,
                                  vertex_ok=vertex_ok)

    def _index_of_graph(self, graph):
        return len(graph.tails()) - 1

    def circ_basis(self, ai, a, i, bi, b) -> GradedVector:
        block_a, raw_a = self.expand(ai, a)
        block_b, raw_b = self.expand(bi, b)
        # b's leaves take the place of leaf i; later leaves of a move up
        amap = {_position_label(k): _position_label(k + bi - 1)
                for k in range(i, ai)}
        amap[_position_label(i - 1)] = "glue-a"
        bmap = {_position_label(k): _position_label(i - 1 + k)
                for k in range(bi)}
        bmap["r"] = "glue-b"
        ga = self._relabel_positions(block_a.graph, amap)
        gb = self._relabel_positions(block_b.graph, bmap)
        sf, tf = _flag_labelled(ga, "glue-a"), _flag_labelled(gb, "glue-b")
        glued, vmap, fmap = G.graft_with_maps(ga, sf, gb, tf)
        return self._glue(ai + bi - 1, glued,
                          [(block_a, raw_a, None, None),
                           (block_b, raw_b, vmap, fmap)],
                          new_edge=(sf, fmap[tf]))


def free_operad(gen: StructureInstance, max_edges: int) -> FreeOperad:
    return FreeOperad(gen, max_edges)


def trivial_operadic_generator(arities, degree=0) -> GeneratorInstance:
    comps = {}
    acts = {}
    for n in arities:
        be = BE(("gen", n), degree)
        comps[n] = [be]

        def apply_basis(p, a):
            return GradedVector.unit(a)

        acts[n] = GroupAction(all_perms(n), apply_basis)
    return GeneratorInstance("operad", comps, acts)


# --------------------------------------------------------------------------
# dg instances and the Feynman transform


class DgInstance:
    """A structure instance with a degree +1 differential.

    The differential is a callable (idx, GradedVector) -> GradedVector; it
    must square to zero and be a derivation for the compositions.
    """

    def __init__(self, inst: StructureInstance, diff=None, twist: str = "1"):
        self.inst = inst
        self.diff = diff or (lambda idx, v: GradedVector())
        self.twist = twist

    def d(self, idx, v: GradedVector) -> GradedVector:
        return self.diff(idx, v)

    def check_square(self, idxs) -> bool:
        for idx in idxs:
            for be in self.inst.component(idx):
                dd = self.d(idx, self.d(idx, GradedVector.unit(be)))
                if not dd.is_zero():
                    return False
        return True

    def check_derivation(self, pairs) -> bool:
        """d(a o b) = da o b + (-1)^{deg a} a o db on the given samples.

        This is the rule for compositions of degree 0, as in the source
        instances. In a free odd construction, o_st inserts an edge of
        degree `edge_degree` at the front of the edge word, so a
        differential there satisfies the rule up to (-1)^edge_degree.
        """
        o = self.inst
        for (ia, a, s, ib, b, t) in pairs:
            lhs = self.d(o.circ_st_index(ia, ib),
                         o.circ_st_basis(ia, a, s, ib, b, t))
            da = self.d(ia, GradedVector.unit(a))
            db = self.d(ib, GradedVector.unit(b))
            sign = -1 if a.degree % 2 else 1
            rhs = o.circ_st(ia, da, s, ib, GradedVector.unit(b), t) + \
                o.circ_st(ia, GradedVector.unit(a), s, ib, db, t).scale(sign)
            if lhs != rhs:
                return False
        return True


def modular_e_differential(E, d_space: dict):
    """Extend a differential on the space to E(V) tensors as a derivation."""

    def diff(idx, v: GradedVector) -> GradedVector:
        out = GradedVector()
        for be, c in v.terms.items():
            word = E._split(be)
            for i, f in enumerate(word):
                img = d_space.get(f.ident, GradedVector())
                if img.is_zero():
                    continue
                sign = -1 if sum(x.degree for x in word[:i]) % 2 else 1
                for nf, c2 in img.terms.items():
                    nw = word[:i] + (nf,) + word[i + 1:]
                    out = out + GradedVector.unit(
                        E._be(nw, *idx), c * c2 * sign)
        return out

    return diff


def dual_generator_instance(o: StructureInstance, window) -> GeneratorInstance:
    """Componentwise duals with the contragredient action."""
    comps = {}
    acts = {}
    for idx in window:
        basis = o.component(idx)
        comps[idx] = [BE(("dl", b.ident), -b.degree) for b in basis]
        acts[idx] = _dual_action(o, idx, basis)
    return GeneratorInstance(o.kind if not kind_is_odd(o.kind) else o.kind,
                             comps, acts)


def _dual_action(o, idx, basis):
    act = o.action(idx)

    def apply_basis(g, phi: BE):
        primal = phi.ident[1]
        # (g phi)(x) = phi(g^{-1} x); with permutation groups the inverse of
        # g is found by searching the element list once
        ginv = _group_inverse(o, idx, g)
        out = GradedVector()
        for b in basis:
            img = act.apply_basis(ginv, b)
            for b2, c in img.terms.items():
                if b2.ident == primal:
                    out = out + GradedVector.unit(BE(("dl", b.ident),
                                                     -b.degree), c)
        return out

    return GroupAction(act.elements, apply_basis, t=act.t)


def _group_inverse(o, idx, g):
    if isinstance(g, tuple) and g and isinstance(g[0], int):
        return invert(g)
    if isinstance(g, tuple) and len(g) == 2:
        return (invert(g[0]), invert(g[1]))
    raise KindMismatch("cannot invert group element")


def closed_window(requested, max_edges: int):
    """Close a set of (g, n) types under edge contraction within the bound.

    Contracting an inserted edge can merge vertices into types with fewer
    flags or lower genus; the free components only cancel pairwise in the
    differential when all such intermediate types are present.
    """
    gmax = max(g for g, _ in requested)
    nmax = max(n for _, n in requested) + 2 * max_edges
    return [(g, n) for g in range(gmax + 1) for n in range(nmax + 1)]


class FeynmanTransform:
    """Free odd construction on the dual generators with the edge-insertion
    differential; edges carry degree +1 so the differential has degree +1.

    The one-edge matrix elements are adjoint to the source gluings: the
    coefficient of the dual decoration of x in d(phi) is the coefficient of
    phi's primal decoration in the contraction of x along the new edge.
    Dual and primal words are paired factor by factor, with no Koszul sign
    for the pairing; the internal part uses the same pairing, so
    (d* phi)(x) = -phi(dx) on each factor (see `_dual_diff`).
    """

    def __init__(self, source: DgInstance, window, max_edges: int,
                 close_window: bool = True):
        if getattr(source.inst, "form", None) is not None \
                and source.inst.form.degree % 2:
            raise NonInvertibleTwist("transform needs an even-degree gluing")
        self.source = source
        self.window = (closed_window(window, max_edges) if close_window
                       else list(window))
        self.gen = dual_generator_instance(source.inst, self.window)
        self.free = FreeTwisted(self.gen, "k-modular", max_edges,
                                edge_degree=+1)
        self._contractions: dict = {}

    # -- primal one-edge contraction ------------------------------------

    def _contract_data(self, bhat: _GraphBlock, e):
        key = (bhat.key, e)
        if key in self._contractions:
            return self._contractions[key]
        o = self.source.inst
        ghat = bhat.graph
        target = G.contract_edge(ghat, e)
        canon, relabel = G.canonical_form(target)
        # edge word sign: extract e from ghat's word, remaining must match
        edges_hat = sorted(tuple(sorted(x)) for x in ghat.edges())
        epos = edges_hat.index(tuple(sorted(e)))
        sign_extract = (-1) ** epos
        rest = [x for x in edges_hat if x != tuple(sorted(e))]
        image = [tuple(sorted((relabel["flags"][a], relabel["flags"][b])))
                 for a, b in rest]
        word_sign = sign_extract * wedge_reorder_sign(
            image, sorted(tuple(sorted(x)) for x in canon.edges()))

        flavor = kind_flavor(o.kind)
        raw_map = {}
        for dec in itertools.product(*[o.component(local_index(flavor, ghat, v))
                                       for v in ghat.vertices]):
            ident = tuple((x.ident, x.degree) for x in dec)
            raw_map[ident] = self._contract_dec(o, ghat, dec, e, canon,
                                                relabel)
        data = (canon, word_sign, raw_map)
        self._contractions[key] = data
        return data

    def _contract_dec(self, o, ghat, dec, e, canon, relabel) -> GradedVector:
        """Contract edge e of the decorated graph (ghat, dec) in the source.

        The factors at the ends of e are glued by the source's own
        composition; the result and the untouched factors are transported
        onto the canonical contracted graph and merged in its vertex order.
        """
        flavor = kind_flavor(o.kind)
        f1, f2 = e
        v1, v2 = ghat.boundary[f1], ghat.boundary[f2]
        old_vs = list(ghat.vertices)
        p1 = old_vs.index(v1)
        if v1 == v2:
            order = local_flag_order(flavor, ghat, v1)
            s, t = sorted((order.index(f1), order.index(f2)))
            glued = o.self_basis(local_index(flavor, ghat, v1), dec[p1], s, t)
            glued_flags = [order[k] for k in rotation_order2(len(order), s, t)]
            others = [i for i in range(len(old_vs)) if i != p1]
            sign0 = 1
        else:
            p2 = old_vs.index(v2)
            o1 = local_flag_order(flavor, ghat, v1)
            o2 = local_flag_order(flavor, ghat, v2)
            s, t = o1.index(f1), o2.index(f2)
            # bring the two factors to the front in (p1, p2) order
            others = [i for i in range(len(old_vs)) if i not in (p1, p2)]
            perm_target = [p1, p2] + others
            perm = tuple(perm_target.index(i) for i in range(len(old_vs)))
            sign0 = koszul_sign(perm, [x.degree for x in dec])
            glued = o.circ_st_basis(local_index(flavor, ghat, v1), dec[p1], s,
                                    local_index(flavor, ghat, v2), dec[p2], t)
            glued_flags = ([o1[k] for k in rotation_order(len(o1), s)]
                           + [o2[k] for k in rotation_order(len(o2), t)])
        vnew, fnew = relabel["vertices"], relabel["flags"]
        merged_v = canon.boundary[fnew[glued_flags[0]]] \
            if glued_flags else vnew[min(v1, v2)]
        # the glued factor sits at the merged vertex, the others move along
        slots = [(merged_v, [fnew[f] for f in glued_flags])] + [
            (vnew[old_vs[i]],
             [fnew[f] for f in local_flag_order(flavor, ghat, old_vs[i])])
            for i in others]
        names = [v for v, _ in slots]
        rest = [dec[i] for i in others]
        acc: dict = {}
        for gbe, gc in glued.terms.items():
            terms = _transport(o, flavor, canon, slots, [gbe] + rest)
            _merge_into(acc, canon, [(names, terms)], sign0 * gc)
        return GradedVector(acc)

    # -- the differential --------------------------------------------------

    def d_edge(self, x: SumElement) -> SumElement:
        out = SumElement()
        for idx, v in x.items():
            acc: dict = {}
            for be, c in v.terms.items():
                for be2, c2 in self._d_edge_basis(idx, be).terms.items():
                    acc[be2] = acc.get(be2, Q(0)) + c * c2
            out = out + SumElement.single(idx, GradedVector(acc))
        return out

    def _d_edge_basis(self, idx, be: BE) -> GradedVector:
        F = self.free
        block, raw = F.expand(idx, be)
        phi_coeffs = {}
        for dec, c in raw.terms.items():
            primal = tuple((i[1], -d) for i, d in dec.ident[1])
            phi_coeffs[primal] = c
        out = GradedVector()
        for bhat in F.blocks(idx):
            if len(bhat.graph.edges()) != len(block.graph.edges()) + 1:
                continue
            for e in bhat.graph.edges():
                canon, word_sign, raw_map = self._contract_data(bhat, e)
                if canon.canonical_key() != block.key:
                    continue
                psi = GradedVector()
                for xident, vec in raw_map.items():
                    coeff = Q(0)
                    for pbe, pc in vec.terms.items():
                        key = pbe.ident[1]
                        if key in phi_coeffs:
                            coeff += pc * phi_coeffs[key]
                    if coeff:
                        dual = tuple((("dl", i), -d) for i, d in xident)
                        dbe = BE(("dec", dual), -sum(d for _, d in xident))
                        psi = psi + GradedVector.unit(dbe, coeff)
                if not psi.is_zero():
                    out = out + F.project_raw(idx, bhat,
                                              psi.scale(word_sign))
        return out

    def d_internal(self, x: SumElement) -> SumElement:
        """Dual of the source differential, extended as a derivation.

        It acts on decorations only, so each term stays in the block of the
        graph it came from; raw decorations alone do not name the graph.
        """
        out = SumElement()
        F = self.free
        flavor = kind_flavor(self.source.inst.kind)
        for idx, v in x.items():
            per_block: dict = {}
            for be, c in v.terms.items():
                block, raw = F.expand(idx, be)
                acc = per_block.setdefault(block.key, (block, {}))[1]
                nE = len(block.graph.edges())
                locs = [local_index(flavor, block.graph, w)
                        for w in block.graph.vertices]
                for dec, cd in raw.terms.items():
                    factors = _factors(dec)
                    for slot in range(len(factors)):
                        img = self._dual_diff(locs[slot], factors[slot])
                        if img.is_zero():
                            continue
                        sign = (-1) ** (nE + sum(f.degree for f
                                                 in factors[:slot]))
                        for nf, c2 in img.terms.items():
                            nfs = factors[:slot] + (nf,) + factors[slot + 1:]
                            nbe = BE(("dec",
                                      tuple((x.ident, x.degree) for x in nfs)),
                                     sum(x.degree for x in nfs))
                            acc[nbe] = acc.get(nbe, Q(0)) + c * cd * c2 * sign
            for block, acc in per_block.values():
                raw_img = GradedVector(acc)
                if not raw_img.is_zero():
                    out = out + SumElement.single(
                        idx, F.project_raw(idx, block, raw_img))
        return out

    def _dual_diff(self, loc, phi: BE) -> GradedVector:
        """(d* phi)(x) = -phi(dx).

        No parity factor (-1)^{|phi|}: dual and primal words are paired
        factor by factor, as in `_d_edge_basis`, and the Koszul sign of
        moving d past the edges and the earlier factors is applied in
        `d_internal`.
        """
        o = self.source.inst
        primal_ident = phi.ident[1]
        out = GradedVector()
        for b in o.component(loc):
            img = self.source.d(loc, GradedVector.unit(b))
            for b2, c in img.terms.items():
                if b2.ident == primal_ident:
                    out = out + GradedVector.unit(
                        BE(("dl", b.ident), -b.degree), -c)
        return out

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
    (carrier, U-space data, differential function, W/V split helpers).
    """
    from .smodules import BilinearForm, ModularE
    bw = BilinearForm(w_space, w_form_entries, degree=0, symmetry="sym")
    bv = BilinearForm(v_space, v_form_entries, degree=1, symmetry="sym")
    u_space = []
    for w in w_space:
        for v in v_space:
            u_space.append(BE(("u", w.ident, v.ident), w.degree + v.degree))
    entries = {}
    wdeg = {w.ident: w.degree for w in w_space}
    vdeg = {v.ident: v.degree for v in v_space}
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
    avgs = [inst.average(idx, GradedVector.unit(be))
            for be in inst.component(idx) if be.degree == degree]
    avgs = [avg for avg in avgs if not avg.is_zero()]
    return [avgs[i] for i in independent_rows([avg.terms for avg in avgs])]


def master_lhs(series: MasterSeries, carrier, d_fun, lam: bool = True) -> SumElement:
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


def random_series(carrier, window, seed: int, scale=3) -> MasterSeries:
    import random as _random
    rng = _random.Random(seed)
    terms = {}
    for idx in window:
        basis = invariant_degree_basis(carrier, idx, 0)
        v = GradedVector()
        for b in basis:
            v = v + b.scale(Q(rng.randrange(-scale, scale + 1)))
        if not v.is_zero():
            terms[idx] = v
    return MasterSeries(terms)


# -- verdict (b): the dg-morphism condition on transform generators


class MorphismChecker:
    """Checks that the structure maps extracted from a series commute with
    the differentials on every generator in the window.

    The edge part of the differential acts on a generator as a sum over
    unbiased gluing data; each datum contracts series terms and pairs the
    W-half of the result against the generator, while the right-hand side
    pushes the extracted map through the V-differential.  None of the
    direct left-hand side's component assembly (delta, bracket, genus
    bookkeeping) is reused.
    """

    def __init__(self, w_space, w_form_entries, v_space, v_form_entries,
                 v_diff, window, u_form):
        self.w_space = list(w_space)
        self.v_space = list(v_space)
        self.bu = u_form
        self.v_diff = v_diff
        self.window = list(window)

    # -- structure map on one dual generator

    def _unzip(self, uword):
        ws = tuple(BE(u.ident[1], _deg_of(self.w_space, u.ident[1]))
                   for u in uword)
        vs = tuple(BE(u.ident[2], _deg_of(self.v_space, u.ident[2]))
                   for u in uword)
        return ws, vs, _unzip_sign(list(ws), list(vs))

    def m_hat(self, series: MasterSeries, idx, psi_ident):
        """Pair a dual W-tensor against the series term: a V-tensor table."""
        m = series.term(idx)
        out = {}
        for be, c in m.terms.items():
            word = tuple(BE(i, d) for i, d in be.ident[2])
            ws, vs, sign = self._unzip(word)
            if tuple(w.ident for w in ws) != tuple(i for i, _ in psi_ident):
                continue
            key = tuple((v.ident, v.degree) for v in vs)
            out[key] = out.get(key, Q(0)) + c * sign
        return {k: v for k, v in out.items() if v}

    def _match_and_store(self, out, ures, phi_ident, coeff):
        for cu, uword in ures:
            ws, vs, sign = self._unzip(uword)
            if tuple(w.ident for w in ws) != tuple(i for i, _ in phi_ident):
                continue
            key = tuple((v.ident, v.degree) for v in vs)
            out[key] = out.get(key, Q(0)) + coeff * cu * sign

    def _loop_part(self, series, idx, phi_ident):
        g, n = idx
        if g == 0:
            return {}
        out = {}
        for be, c in series.term((g - 1, n + 2)).terms.items():
            word = tuple(BE(i, d) for i, d in be.ident[2])
            for s, t in itertools.combinations(range(n + 2), 2):
                rest = rotation_order2(n + 2, s, t)
                ures = contract_word(word, s, t,
                                     lambda a, b: self.bu.value(a, b), rest)
                self._match_and_store(out, ures, phi_ident, c)
        return {k: v for k, v in out.items() if v}

    def _glue_part(self, series, idx, phi_ident):
        g, n = idx
        out = {}
        for g1 in range(g + 1):
            g2 = g - g1
            for n1 in range(1, n + 2):
                n2 = n + 2 - n1
                m1 = series.term((g1, n1))
                m2 = series.term((g2, n2))
                if m1.is_zero() or m2.is_zero():
                    continue
                for be1, c1 in m1.terms.items():
                    w1 = tuple(BE(i, d) for i, d in be1.ident[2])
                    for be2, c2 in m2.terms.items():
                        w2 = tuple(BE(i, d) for i, d in be2.ident[2])
                        word = w1 + w2
                        for s in range(n1):
                            for t in range(n2):
                                rest = (rotation_order(n1, s)
                                        + [n1 + k
                                           for k in rotation_order(n2, t)])
                                ures = contract_word(
                                    word, s, n1 + t,
                                    lambda a, b: self.bu.value(a, b), rest)
                                self._match_and_store(out, ures, phi_ident,
                                                      Q(1, 2) * c1 * c2)
        return {k: v for k, v in out.items() if v}

    def d_v_tensor(self, table: dict) -> dict:
        """Derivation extension of the V-differential on tail tensors."""
        out: dict = {}
        for key, c in table.items():
            word = tuple(BE(i, d) for i, d in key)
            for i, f in enumerate(word):
                img = self.v_diff.get(f.ident, GradedVector())
                for nf, c2 in img.terms.items():
                    sign = -1 if sum(x.degree for x in word[:i]) % 2 else 1
                    nw = word[:i] + (nf,) + word[i + 1:]
                    k2 = tuple((x.ident, x.degree) for x in nw)
                    out[k2] = out.get(k2, Q(0)) + c * c2 * sign
        return {k: v for k, v in out.items() if v}

    def generator_defects(self, series: MasterSeries):
        """d_V(m(phi)) + edge terms, per dual W-basis generator."""
        defects = {}
        for idx in self.window:
            g, n = idx
            for combo in itertools.product(self.w_space, repeat=n):
                phi_ident = tuple((w.ident, w.degree) for w in combo)
                mphi = self.m_hat(series, idx, phi_ident)
                rhs = self.d_v_tensor(mphi)
                defect = dict(rhs)
                for k, v in self._loop_part(series, idx, phi_ident).items():
                    defect[k] = defect.get(k, Q(0)) + v
                for k, v in self._glue_part(series, idx, phi_ident).items():
                    defect[k] = defect.get(k, Q(0)) + v
                defect = {k: v for k, v in defect.items() if v}
                if defect:
                    defects[(idx, phi_ident)] = defect
        return defects


def _deg_of(space, ident):
    for b in space:
        if b.ident == ident:
            return b.degree
    raise KeyError(ident)


def _unzip_sign(ws, vs):
    """Koszul sign of [w1 v1 w2 v2 ...] -> [w1 w2 ... v1 v2 ...]."""
    inter = []
    for w, v in zip(ws, vs):
        inter.append(w)
        inter.append(v)
    n = len(ws)
    perm = []
    for i in range(n):
        perm.append(i)        # w_i -> slot i
        perm.append(n + i)    # v_i -> slot n+i
    return koszul_sign(tuple(perm), [x.degree for x in inter])


@dataclass
class CertifyReport:
    lhs_zero: bool
    morphism_ok: bool
    agree: bool
    lhs_witness: dict | None
    morphism_witness: dict | None


def certify_dg_algebra(series: MasterSeries, carrier, d_fun,
                       checker: MorphismChecker, window) -> CertifyReport:
    """Two independent verdicts that the theorem says must agree."""
    comps = master_lhs_components(series, carrier, d_fun, window)
    lhs_zero = all(v.is_zero() for v in comps.values())
    witness = None
    if not lhs_zero:
        witness = {str(idx): len(v.terms) for idx, v in comps.items()
                   if not v.is_zero()}
    defects = checker.generator_defects(series)
    morphism_ok = not defects
    mwitness = None if morphism_ok else \
        {str(k): len(v) for k, v in list(defects.items())[:3]}
    return CertifyReport(lhs_zero, morphism_ok, lhs_zero == morphism_ok,
                         witness, mwitness)


def solve_master_series(carrier, d_fun, window, seed_term=None, seed=0,
                        seed_component=None):
    """Search for a nonzero series solving the master equation by obstruction
    lifting: seed one component with a d-closed term, then solve d m = -rest
    exactly at each later component."""
    import random as _random
    rng = _random.Random(seed)
    order = sorted(window, key=lambda gn: (gn[0], gn[1]))
    terms: dict = {}
    first = seed_component or order[0]
    order = [first] + [idx for idx in order if idx != first]
    if seed_term is not None:
        terms[first] = seed_term
    else:
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
        images = [{b: c for b, c in d_fun(idx, v).terms.items()}
                  for v in basis]
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


class PropFromOperad(StructureInstance):
    """Induced bimodule: rows of operad elements with distributed inputs.

    A basis element of component (n, m) is an m-tuple of operad basis
    elements together with an ordered block of input labels for each factor,
    the blocks partitioning {0..n-1}.  Restriction to (n, 1) recovers the
    operad.
    """

    kind = "prop"

    def __init__(self, base: StructureInstance, max_in: int = 4,
                 max_out: int = 3):
        if kind_flavor(base.kind) != "operadic":
            raise UnsupportedKind(base.kind)
        self.base = base
        self.max_in = max_in
        self.max_out = max_out
        super().__init__()

    def _be(self, rows):
        ident = ("pr", tuple(((b.ident, b.degree), labels)
                             for b, labels in rows))
        return BE(ident, sum(b.degree for b, _ in rows))

    def _split(self, a: BE):
        return [(BE(i, d), labels) for (i, d), labels in a.ident[1]]

    def _build_component(self, idx):
        n, m = idx
        if n > self.max_in or m > self.max_out:
            raise TruncationExceeded(str(idx))
        arities = sorted(k for k in getattr(self.base, "_components", {})) \
            or list(range(0, n + 1))
        out = []
        for sizes in itertools.product(arities, repeat=m):
            if sum(sizes) != n:
                continue
            for assign in _ordered_partitions_sized(list(range(n)), sizes):
                for combo in itertools.product(
                        *[self.base.component(k) for k in sizes]):
                    rows = list(zip(combo, [tuple(p) for p in assign]))
                    out.append(self._be(rows))
        return out

    def _build_action(self, idx):
        n, m = idx

        def apply_basis(g, a):
            p, q = g
            rows = self._split(a)
            # outputs permute the factors with Koszul
            perm = tuple(q[i] for i in range(m))
            factors = [b for b, _ in rows]
            sign, _ = permute_factors(perm, tuple(factors))
            moved = [None] * m
            for i, row in enumerate(rows):
                moved[q[i]] = row
            out = GradedVector()
            # inputs act inside the blocks through the base action
            terms = [(Q(sign), [])]
            for b, labels in moved:
                new_labels = tuple(p[l] for l in labels)
                order = sorted(range(len(new_labels)),
                               key=lambda i: new_labels[i])
                local = tuple(order.index(i) for i in range(len(new_labels)))
                img = self.base.act(len(labels), local, GradedVector.unit(b))
                new_terms = []
                for c, acc in terms:
                    for b2, c2 in img.terms.items():
                        new_terms.append((c * c2,
                                          acc + [(b2, tuple(sorted(new_labels)))]))
                terms = new_terms
            for c, acc in terms:
                out = out + GradedVector.unit(self._be(acc), c)
            return out

        elements = [(p, q) for p in all_perms(n) for q in all_perms(m)]
        return GroupAction(elements, apply_basis)

    def circ_st_basis(self, ai, a, i, bi, b, j) -> GradedVector:
        """Dioperadic gluing: input position i of a to output j of b."""
        na, ma = ai
        nb, mb = bi
        ridx = self.circ_st_index(ai, bi)
        if ridx[0] > self.max_in or ridx[1] > self.max_out:
            raise TruncationExceeded(str(ridx))
        rows_a = self._split(a)
        rows_b = self._split(b)
        p, slot = self._locate(rows_a, i)
        target, labels_t = rows_a[p]
        src, labels_s = rows_b[j]
        # operadic insertion into the owning factor
        glued = self.base.circ(len(labels_t), GradedVector.unit(target),
                               slot + 1, len(labels_s),
                               GradedVector.unit(src))
        # koszul: src moves past the factors after row p and b's rows before j
        passed = sum(x.degree for x, _ in rows_a[p + 1:]) \
            + sum(x.degree for x, _ in rows_b[:j])
        sign = -1 if (src.degree % 2 and passed % 2) else 1
        # relabel: a-labels keep 0..na-1 minus i (shifted), b-labels shift up
        lmap_a = {}
        new = 0
        for l in range(na):
            if l == i:
                continue
            lmap_a[l] = new
            new += 1

        def lmap_b(l):
            return na - 1 + l

        out = GradedVector()
        for gb, gc in glued.terms.items():
            new_labels = (tuple(lmap_a[l] for l in labels_t[:slot])
                          + tuple(lmap_b(l) for l in labels_s)
                          + tuple(lmap_a[l] for l in labels_t[slot + 1:]))
            new_rows = ([(x, tuple(lmap_a[l] for l in ls))
                         for x, ls in rows_a[:p]]
                        + [(gb, new_labels)]
                        + [(x, tuple(lmap_a[l] for l in ls))
                           for x, ls in rows_a[p + 1:]]
                        + [(x, tuple(lmap_b(l) for l in ls))
                           for k, (x, ls) in enumerate(rows_b) if k != j])
            for c, rows in _normalize_rows(self.base, new_rows):
                out = out + GradedVector.unit(self._be(rows), gc * sign * c)
        return out

    @staticmethod
    def _locate(rows, pos):
        for p, (_, labels) in enumerate(rows):
            if pos in labels:
                return p, labels.index(pos)
        raise ValueError(pos)

    def box_basis(self, ai, a, bi, b) -> GradedVector:
        na, ma = ai
        nb, mb = bi
        ridx = self.box_index(ai, bi)
        if ridx[0] > self.max_in or ridx[1] > self.max_out:
            raise TruncationExceeded(str(ridx))
        rows_a = self._split(a)
        rows_b = self._split(b)
        shifted = [(x, tuple(l + na for l in ls)) for x, ls in rows_b]
        return GradedVector.unit(self._be(rows_a + shifted))

    def restrict_to_operad(self, n, a: BE):
        """(n, 1) components carry the original operad."""
        rows = self._split(a)
        if len(rows) != 1:
            raise KindMismatch("not an (n, 1) element")
        return rows[0][0]


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


def _normalize_rows(base, rows):
    """Rewrite each row onto its sorted-label representative.

    A row (x, labels) equals (x transported by the sorting permutation,
    sorted labels) in the slot-order quotient; returns a GradedVector over
    normalized row tuples.
    """
    terms = [(Q(1), [])]
    for x, labels in rows:
        target = tuple(sorted(labels))
        if target == tuple(labels):
            terms = [(c, acc + [(x, target)]) for c, acc in terms]
            continue
        p = tuple(target.index(l) for l in labels)
        img = base.act(len(labels), p, GradedVector.unit(x))
        new_terms = []
        for c, acc in terms:
            for b2, c2 in img.terms.items():
                new_terms.append((c * c2, acc + [(b2, target)]))
        terms = new_terms
    return terms


def prop_generated_by_operad(base: StructureInstance, max_in=4,
                             max_out=3) -> PropFromOperad:
    return PropFromOperad(base, max_in, max_out)


class NcOperad(StructureInstance):
    """Free nc-extension of an operad: tensor rows with box = concatenation
    and insertion summed over the factor roots."""

    kind = "nc-operad"

    def __init__(self, base: StructureInstance, max_in: int = 5,
                 max_factors: int = 3):
        if kind_flavor(base.kind) != "operadic":
            raise UnsupportedKind(base.kind)
        self.base = base
        self.max_in = max_in
        self.max_factors = max_factors
        super().__init__()

    def _be(self, rows):
        ident = ("nco", tuple(((b.ident, b.degree), labels)
                              for b, labels in rows))
        return BE(ident, sum(b.degree for b, _ in rows))

    def _split(self, a: BE):
        return [(BE(i, d), labels) for (i, d), labels in a.ident[1]]

    def box_basis(self, ai, a, bi, b) -> GradedVector:
        rows_a = self._split(a)
        rows_b = self._split(b)
        if len(rows_a) + len(rows_b) > self.max_factors:
            raise TruncationExceeded("too many factors")
        shifted = [(x, tuple(l + ai for l in ls)) for x, ls in rows_b]
        return GradedVector.unit(self._be(rows_a + shifted))

    def circ_basis(self, ai, a, i, bi, b) -> GradedVector:
        """Insert b into slot i of a, summing over the roots of b's rows."""
        rows_a = self._split(a)
        rows_b = self._split(b)
        p, slot = PropFromOperad._locate(rows_a, i - 1)
        target, labels_t = rows_a[p]
        out = GradedVector()
        lmap_a = {}
        new = 0
        for l in range(ai):
            if l == i - 1:
                continue
            lmap_a[l] = new
            new += 1

        def lmap_b(l):
            return ai - 1 + l

        for r, (src, labels_s) in enumerate(rows_b):
            glued = self.base.circ(len(labels_t), GradedVector.unit(target),
                                   slot + 1, len(labels_s),
                                   GradedVector.unit(src))
            passed = sum(x.degree for x, _ in rows_a[p + 1:]) \
                + sum(x.degree for x, _ in rows_b[:r])
            sign = -1 if (src.degree % 2 and passed % 2) else 1
            for gb, gc in glued.terms.items():
                new_labels = (tuple(lmap_a[l] for l in labels_t[:slot])
                              + tuple(lmap_b(l) for l in labels_s)
                              + tuple(lmap_a[l] for l in labels_t[slot + 1:]))
                new_rows = ([(x, tuple(lmap_a[l] for l in ls))
                             for x, ls in rows_a[:p]]
                            + [(gb, new_labels)]
                            + [(x, tuple(lmap_a[l] for l in ls))
                               for x, ls in rows_a[p + 1:]]
                            + [(x, tuple(lmap_b(l) for l in ls))
                               for k, (x, ls) in enumerate(rows_b) if k != r])
                for c, rows in _normalize_rows(self.base, new_rows):
                    out = out + GradedVector.unit(self._be(rows),
                                                  gc * sign * c)
        return out

    def from_operad(self, n, b: BE) -> BE:
        return self._be([(b, tuple(range(n)))])

    def _build_component(self, n):
        if n > self.max_in:
            raise TruncationExceeded(str(n))
        arities = sorted(k for k in getattr(self.base, "_components", {})) \
            or list(range(0, n + 1))
        out = []
        for m in range(1, self.max_factors + 1):
            for sizes in itertools.product(arities, repeat=m):
                if sum(sizes) != n:
                    continue
                for assign in _ordered_partitions_sized(list(range(n)), sizes):
                    for combo in itertools.product(
                            *[self.base.component(k) for k in sizes]):
                        rows = list(zip(combo, [tuple(p) for p in assign]))
                        out.append(self._be(rows))
        return out

    def _build_action(self, n):
        def apply_basis(p, a):
            rows = self._split(a)
            relabeled = [(x, tuple(p[l] for l in ls)) for x, ls in rows]
            out = GradedVector()
            for c, nrows in _normalize_rows(self.base, relabeled):
                out = out + GradedVector.unit(self._be(nrows), c)
            return out

        return GroupAction(all_perms(n), apply_basis)


def nc_operad(base: StructureInstance, **kw) -> NcOperad:
    return NcOperad(base, **kw)
