"""Abstract graphs: flags with an involution, plus the structural operations.

A graph is a finite set of vertices, a finite set of flags (half edges), a
self-inverse map on flags and a boundary map flags -> vertices.  Two-element
orbits of the involution are edges, fixed points are tails.  Optional
decorations: genus and gamma labels on vertices, orientation on flags, and
an injective labeling of tails.

A graph is immutable after construction.  The one state it carries is
`Graph._canon`, where the first call of `canonical_key`,
`canonical_form` or `automorphisms` caches the result of the single
canonical search (`_search`); every later call reads that cache.
"""

from __future__ import annotations

import itertools
import json

from .errors import MissingDecoration, NotAnEdge, NotATail, NotConnected

GRAPH_CLASSES = (
    "rooted-tree", "planar-rooted-tree", "tree", "planar-tree",
    "stable-graph", "directed-no-wheels", "directed-connected-no-wheels",
    "directed-tree", "directed-forest", "directed-wheeled",
    "directed-connected-wheeled", "forest", "nc-stable-graph",
    "connected-graph", "graph",
)


class GraphClass:
    """A decidable membership predicate, named by its kind."""

    def __init__(self, kind: str):
        if kind not in GRAPH_CLASSES:
            raise ValueError(f"unknown graph class {kind!r}")
        self.kind = kind

    def __repr__(self):
        return f"GraphClass({self.kind!r})"

    def contains(self, g: "Graph") -> bool:
        return classify(g, self.kind)


class Graph:
    """Immutable abstract graph with optional decorations."""

    __slots__ = ("vertices", "flags", "involution", "boundary", "genus",
                 "gamma", "orientation", "labels", "_canon")

    def __init__(self, vertices, flags, involution, boundary, genus=None,
                 gamma=None, orientation=None, labels=None):
        self.vertices = tuple(sorted(vertices))
        self.flags = tuple(sorted(flags))
        self.involution = dict(involution)
        self.boundary = dict(boundary)
        self.genus = dict(genus) if genus else {}
        self.gamma = dict(gamma) if gamma is not None else None
        self.orientation = dict(orientation) if orientation is not None else None
        self.labels = dict(labels) if labels else {}
        self._canon = None
        self._validate()

    def _validate(self):
        vs, fs = set(self.vertices), set(self.flags)
        if len(vs) != len(self.vertices) or len(fs) != len(self.flags):
            raise ValueError("duplicate identifiers")
        for f in self.flags:
            if self.involution.get(self.involution.get(f)) != f:
                raise ValueError("involution is not self-inverse")
            if self.boundary.get(f) not in vs:
                raise ValueError(f"flag {f!r} has no boundary vertex")
        for f in self.involution:
            if f not in fs:
                raise ValueError("involution defined on unknown flag")
        for v, g in self.genus.items():
            if v not in vs or g < 0:
                raise ValueError("bad genus entry")
        if self.gamma is not None:
            for v, g in self.gamma.items():
                if v not in vs or g < 0:
                    raise ValueError("bad gamma entry")
        if self.orientation is not None:
            for f in self.flags:
                if self.orientation.get(f) not in ("in", "out"):
                    raise ValueError("orientation must cover all flags")
            for f in self.flags:
                p = self.involution[f]
                if p != f and self.orientation[f] == self.orientation[p]:
                    raise ValueError("edge flags must have opposite orientation")
        seen = set()
        for f, lab in self.labels.items():
            if self.involution[f] != f:
                raise ValueError("labels are only defined on tails")
            if lab in seen:
                raise ValueError("tail labels must be injective")
            seen.add(lab)

    # -- basic views ------------------------------------------------------

    def tails(self) -> tuple:
        return tuple(f for f in self.flags if self.involution[f] == f)

    def edges(self) -> tuple:
        out = []
        for f in self.flags:
            p = self.involution[f]
            if p != f and f < p:
                out.append((f, p))
        return tuple(out)

    def vertex_flags(self, v) -> tuple:
        return tuple(f for f in self.flags if self.boundary[f] == v)

    def g_of(self, v) -> int:
        return self.genus.get(v, 0)

    def gamma_of(self, v) -> int:
        return (self.gamma or {}).get(v, 0)

    def loops_at(self, v) -> int:
        n = 0
        for f, p in self.edges():
            if self.boundary[f] == v and self.boundary[p] == v:
                n += 1
        return n

    def components(self) -> list[set]:
        parent = {v: v for v in self.vertices}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for f, p in self.edges():
            a, b = find(self.boundary[f]), find(self.boundary[p])
            if a != b:
                parent[a] = b
        comps: dict = {}
        for v in self.vertices:
            comps.setdefault(find(v), set()).add(v)
        return sorted(comps.values(), key=lambda s: sorted(s))

    def is_connected(self) -> bool:
        return len(self.components()) <= 1

    def first_betti(self) -> int:
        return len(self.edges()) - len(self.vertices) + len(self.components())

    def has_cycle(self) -> bool:
        return self.first_betti() > 0

    def has_oriented_cycle(self) -> bool:
        if self.orientation is None:
            raise MissingDecoration("orientation required")
        succ: dict = {v: [] for v in self.vertices}
        for f, p in self.edges():
            # edge goes from the vertex of its "out" flag to that of its "in" flag
            if self.orientation[f] == "out":
                succ[self.boundary[f]].append(self.boundary[p])
            else:
                succ[self.boundary[p]].append(self.boundary[f])
        color = {v: 0 for v in self.vertices}

        def visit(v):
            color[v] = 1
            for w in succ[v]:
                if color[w] == 1 or (color[w] == 0 and visit(w)):
                    return True
            color[v] = 2
            return False

        return any(color[v] == 0 and visit(v) for v in self.vertices)

    def __eq__(self, other):
        return (isinstance(other, Graph)
                and self.vertices == other.vertices and self.flags == other.flags
                and self.involution == other.involution and self.boundary == other.boundary
                and self.genus == other.genus and self.gamma == other.gamma
                and self.orientation == other.orientation and self.labels == other.labels)

    def __hash__(self):
        return hash(self.canonical_key())

    def __repr__(self):
        return (f"Graph(V={len(self.vertices)}, E={len(self.edges())}, "
                f"tails={len(self.tails())})")

    def canonical_key(self):
        if self._canon is None:
            self._canon = _search(self)
        return self._canon[2]

    # -- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        verts = []
        for v in self.vertices:
            rec = {"id": v}
            if v in self.genus:
                rec["genus"] = self.genus[v]
            if self.gamma is not None and v in self.gamma:
                rec["gamma"] = self.gamma[v]
            verts.append(rec)
        flags = []
        for f in self.flags:
            rec = {"id": f, "vertex": self.boundary[f]}
            if self.orientation is not None:
                rec["orientation"] = self.orientation[f]
            if f in self.labels:
                rec["label"] = self.labels[f]
            flags.append(rec)
        return {"vertices": verts, "flags": flags,
                "edges": [list(e) for e in self.edges()]}

    @classmethod
    def from_json(cls, data: dict) -> "Graph":
        vertices = [v["id"] for v in data["vertices"]]
        genus = {v["id"]: v["genus"] for v in data["vertices"] if "genus" in v}
        gamma = {v["id"]: v["gamma"] for v in data["vertices"] if "gamma" in v}
        flags = [f["id"] for f in data["flags"]]
        boundary = {f["id"]: f["vertex"] for f in data["flags"]}
        orientation = None
        if any("orientation" in f for f in data["flags"]):
            orientation = {f["id"]: f["orientation"] for f in data["flags"]}
        labels = {f["id"]: f["label"] for f in data["flags"] if "label" in f}
        involution = {f: f for f in flags}
        for a, b in data.get("edges", []):
            involution[a] = b
            involution[b] = a
        return cls(vertices, flags, involution, boundary, genus=genus,
                   gamma=gamma or None, orientation=orientation, labels=labels)


# --------------------------------------------------------------------------
# constructors


def corolla(vertex, tails, genus=0, gamma=None, orientation=None, labels=None):
    """One-vertex graph with only tails."""
    tails = list(tails)
    return Graph([vertex], tails, {t: t for t in tails},
                 {t: vertex for t in tails},
                 genus={vertex: genus} if genus else {},
                 gamma={vertex: gamma} if gamma is not None else None,
                 orientation=orientation, labels=labels)


# --------------------------------------------------------------------------
# structural operations


def _fresh(base, taken):
    if base not in taken:
        return base
    k = 1
    while f"{base}~{k}" in taken:
        k += 1
    return f"{base}~{k}"


def disjoint_union_with_maps(g1: Graph, g2: Graph):
    """Disjoint union; colliding identifiers of g2 are freshly renamed.

    Returns (graph, vmap2, fmap2) recording how g2's ids appear in the union.
    """
    vmap2 = {}
    taken_v = set(g1.vertices)
    for v in g2.vertices:
        nv = _fresh(v, taken_v)
        vmap2[v] = nv
        taken_v.add(nv)
    fmap2 = {}
    taken_f = set(g1.flags)
    for f in g2.flags:
        nf = _fresh(f, taken_f)
        fmap2[f] = nf
        taken_f.add(nf)
    vertices = list(g1.vertices) + [vmap2[v] for v in g2.vertices]
    flags = list(g1.flags) + [fmap2[f] for f in g2.flags]
    involution = dict(g1.involution)
    involution.update({fmap2[f]: fmap2[p] for f, p in g2.involution.items()})
    boundary = dict(g1.boundary)
    boundary.update({fmap2[f]: vmap2[v] for f, v in g2.boundary.items()})
    genus = dict(g1.genus)
    genus.update({vmap2[v]: k for v, k in g2.genus.items()})
    gamma = None
    if g1.gamma is not None or g2.gamma is not None:
        gamma = dict(g1.gamma or {})
        gamma.update({vmap2[v]: k for v, k in (g2.gamma or {}).items()})
    orientation = None
    if g1.orientation is not None and g2.orientation is not None:
        orientation = dict(g1.orientation)
        orientation.update({fmap2[f]: o for f, o in g2.orientation.items()})
    labels = dict(g1.labels)
    labels.update({fmap2[f]: l for f, l in g2.labels.items()})
    union = Graph(vertices, flags, involution, boundary, genus=genus,
                  gamma=gamma, orientation=orientation, labels=labels)
    return union, vmap2, fmap2


def graft_with_maps(g1: Graph, s, g2: Graph, t):
    if g1.involution.get(s) != s:
        raise NotATail(f"{s!r} is not a tail of the first graph")
    if g2.involution.get(t) != t:
        raise NotATail(f"{t!r} is not a tail of the second graph")
    union, vmap2, fmap2 = disjoint_union_with_maps(g1, g2)
    t2 = fmap2[t]
    involution = dict(union.involution)
    involution[s] = t2
    involution[t2] = s
    labels = {f: l for f, l in union.labels.items() if f not in (s, t2)}
    out = Graph(union.vertices, union.flags, involution, union.boundary,
                genus=union.genus, gamma=union.gamma,
                orientation=union.orientation, labels=labels)
    return out, vmap2, fmap2


def graft(g1: Graph, s, g2: Graph, t) -> Graph:
    """Glue tail s of g1 to tail t of g2 into one new edge."""
    return graft_with_maps(g1, s, g2, t)[0]


def self_glue(g: Graph, s, t) -> Graph:
    """Pair two tails of the same graph into a new edge."""
    if g.involution.get(s) != s or g.involution.get(t) != t or s == t:
        raise NotATail("self_glue needs two distinct tails")
    involution = dict(g.involution)
    involution[s] = t
    involution[t] = s
    labels = {f: l for f, l in g.labels.items() if f not in (s, t)}
    return Graph(g.vertices, g.flags, involution, g.boundary, genus=g.genus,
                 gamma=g.gamma, orientation=g.orientation, labels=labels)


def contract_edge(g: Graph, e) -> Graph:
    """Contract one edge; merging vertices adds genus, a loop adds one."""
    f1, f2 = tuple(e)
    if g.involution.get(f1) != f2 or f1 == f2:
        raise NotAnEdge(f"{e!r} is not an edge")
    v1, v2 = g.boundary[f1], g.boundary[f2]
    flags = [f for f in g.flags if f not in (f1, f2)]
    involution = {f: p for f, p in g.involution.items() if f in flags}
    genus = dict(g.genus)
    gamma = dict(g.gamma) if g.gamma is not None else None
    if v1 == v2:
        vertices = list(g.vertices)
        boundary = {f: g.boundary[f] for f in flags}
        genus[v1] = genus.get(v1, 0) + 1
        if gamma is not None:
            gamma[v1] = gamma.get(v1, 0) + 1
    else:
        keep, drop = sorted((v1, v2))
        vertices = [v for v in g.vertices if v != drop]
        boundary = {f: (keep if g.boundary[f] == drop else g.boundary[f])
                    for f in flags}
        gsum = genus.pop(keep, 0) + genus.pop(drop, 0)
        if gsum:
            genus[keep] = gsum
        if gamma is not None:
            gam = gamma.pop(keep, 0) + gamma.pop(drop, 0)
            if gam:
                gamma[keep] = gam
    orientation = None
    if g.orientation is not None:
        orientation = {f: g.orientation[f] for f in flags}
    return Graph(vertices, flags, involution, boundary, genus=genus,
                 gamma=gamma, orientation=orientation,
                 labels={f: l for f, l in g.labels.items() if f in set(flags)})


def merge_vertices(g1: Graph, v, g2: Graph, v2) -> Graph:
    """Disjoint union with the two vertices identified; genus adds."""
    if v not in g1.vertices:
        raise ValueError(f"{v!r} not a vertex of the first graph")
    if v2 not in g2.vertices:
        raise ValueError(f"{v2!r} not a vertex of the second graph")
    union, vmap2, _ = disjoint_union_with_maps(g1, g2)
    w = vmap2[v2]
    vertices = [u for u in union.vertices if u != w]
    boundary = {f: (v if u == w else u) for f, u in union.boundary.items()}
    genus = dict(union.genus)
    gsum = genus.pop(v, 0) + genus.pop(w, 0)
    if gsum:
        genus[v] = gsum
    gamma = dict(union.gamma) if union.gamma is not None else None
    if gamma is not None:
        gm = gamma.pop(v, 0) + gamma.pop(w, 0)
        if gm:
            gamma[v] = gm
    return Graph(vertices, union.flags, union.involution, boundary,
                 genus=genus, gamma=gamma, orientation=union.orientation,
                 labels=union.labels)


def total_genus(g: Graph) -> int:
    """Sum of vertex genera plus the cycle rank; the graph must be connected."""
    if not g.is_connected():
        raise NotConnected("total genus needs a connected graph")
    return sum(g.g_of(v) for v in g.vertices) + g.first_betti()


def total_gamma(g: Graph) -> int:
    """1 - chi + sum of gamma labels, chi = |V| - |E|; disconnected allowed."""
    chi = len(g.vertices) - len(g.edges())
    return 1 - chi + sum(g.gamma_of(v) for v in g.vertices)


def additive_gamma(g: Graph) -> int:
    """First Betti number plus the gamma labels.

    Unlike total_gamma this is additive under disjoint union, which is what
    the nc composition bookkeeping needs; the two agree on connected graphs.
    """
    return g.first_betti() + sum(g.gamma_of(v) for v in g.vertices)


# --------------------------------------------------------------------------
# classification


def vertex_stable(g: Graph, v, use_gamma=False) -> bool:
    label = g.gamma_of(v) if use_gamma else g.g_of(v)
    return 2 * label - 2 + len(g.vertex_flags(v)) > 0


def classify(g: Graph, kind) -> bool:
    """Membership of g in one of the named graph classes."""
    if isinstance(kind, GraphClass):
        kind = kind.kind
    if kind not in GRAPH_CLASSES:
        raise ValueError(f"unknown graph class {kind!r}")
    directed = kind.startswith("directed") or "rooted" in kind
    if directed and g.orientation is None:
        raise MissingDecoration(f"class {kind!r} needs an orientation")
    if kind == "graph":
        return True
    if kind == "connected-graph":
        return g.is_connected()
    if kind in ("tree", "planar-tree"):
        return g.is_connected() and g.first_betti() == 0
    if kind == "forest":
        return g.first_betti() == 0
    if kind in ("rooted-tree", "planar-rooted-tree"):
        if not (g.is_connected() and g.first_betti() == 0):
            return False
        # exactly one outgoing flag per vertex makes the out-tail a root
        return all(sum(1 for f in g.vertex_flags(v) if g.orientation[f] == "out") == 1
                   for v in g.vertices)
    if kind == "stable-graph":
        return g.is_connected() and all(vertex_stable(g, v) for v in g.vertices)
    if kind == "nc-stable-graph":
        return all(vertex_stable(g, v, use_gamma=True) for v in g.vertices)
    if kind == "directed-tree":
        return g.is_connected() and g.first_betti() == 0
    if kind == "directed-forest":
        return g.first_betti() == 0
    if kind == "directed-no-wheels":
        return not g.has_oriented_cycle()
    if kind == "directed-connected-no-wheels":
        return g.is_connected() and not g.has_oriented_cycle()
    if kind == "directed-wheeled":
        return True
    if kind == "directed-connected-wheeled":
        return g.is_connected()
    raise ValueError(kind)


# --------------------------------------------------------------------------
# canonical form


def _vertex_invariant(g: Graph, v):
    fl = g.vertex_flags(v)
    tail_keys = sorted((g.orientation[f] if g.orientation else "",
                        g.labels.get(f, "")) for f in fl if g.involution[f] == f)
    orient_profile = sorted(g.orientation[f] for f in fl) if g.orientation else []
    return (g.g_of(v), g.gamma_of(v) if g.gamma is not None else -1,
            len(fl), g.loops_at(v), tuple(tail_keys), tuple(orient_profile))


def _refined_classes(g: Graph):
    """Order-invariant vertex partition, refined by neighbor multisets."""
    inv = {v: _vertex_invariant(g, v) for v in g.vertices}
    for _ in range(len(g.vertices)):
        nbr = {}
        for v in g.vertices:
            around = []
            for f in g.vertex_flags(v):
                p = g.involution[f]
                if p != f:
                    around.append(inv[g.boundary[p]])
            nbr[v] = (inv[v], tuple(sorted(map(repr, around))))
        if all(nbr[v] == nbr[w] for v in g.vertices for w in g.vertices
               if inv[v] == inv[w]) and len(set(nbr.values())) == len(set(inv.values())):
            break
        inv = nbr
    classes: dict = {}
    for v in g.vertices:
        classes.setdefault(repr(inv[v]), []).append(v)
    return [sorted(classes[k]) for k in sorted(classes)]


def _flag_groups(g: Graph, vorder):
    """The flags vertex by vertex, in runs that share a vertex, orientation,
    label and neighbour position: a flag order may permute only inside a run."""
    vpos = {v: i for i, v in enumerate(vorder)}
    runs = []
    for v in vorder:
        groups: dict = {}
        for f in g.vertex_flags(v):
            p = g.involution[f]
            o = g.orientation[f] if g.orientation else ""
            key = ((0, o, g.labels.get(f, ""), -1) if p == f
                   else (1, o, "", vpos[g.boundary[p]]))
            groups.setdefault(key, []).append(f)
        runs.extend(sorted(groups[k]) for k in sorted(groups))
    return runs


def _search(g: Graph):
    """The one search behind canonical forms and automorphisms.

    Tries every vertex order that respects the refined classes and, for
    each, every flag order that permutes only inside the `_flag_groups`
    runs.  An ordering's code is (vertex record, flag record, edge record).
    The first two, the head, depend only on the vertex order, so the head
    is built once per vertex order, a vertex order whose head exceeds the
    best one is skipped whole, and only the edge record is recomputed per
    flag order.  (The refined classes already fix every vertex's genus,
    gamma and flag types, so today all vertex orders of a graph share one
    head; comparing it keeps the search exact if the refinement changes.)
    Returns (vorder, forder, code, ties): the first ordering with the least
    code and every ordering whose code equals it, that one included.
    """
    edges = g.edges()
    best_head = best_erec = None
    ties = []
    classes = _refined_classes(g)
    for vchoice in itertools.product(*map(itertools.permutations, classes)):
        vorder = [v for cls in vchoice for v in cls]
        vpos = {v: i for i, v in enumerate(vorder)}
        runs = _flag_groups(g, vorder)
        head = (tuple((g.g_of(v), g.gamma_of(v) if g.gamma is not None else -1)
                      for v in vorder),
                tuple((vpos[g.boundary[f]],
                       {"in": 0, "out": 1}.get((g.orientation or {}).get(f), 2),
                       g.labels.get(f, "")) for run in runs for f in run))
        if best_head is not None and head > best_head:
            continue
        if best_head is None or head < best_head:
            best_head, best_erec, ties = head, None, []
        for choice in itertools.product(*map(itertools.permutations, runs)):
            forder = [f for run in choice for f in run]
            fpos = {f: i for i, f in enumerate(forder)}
            erec = tuple(sorted(tuple(sorted((fpos[a], fpos[b])))
                                for a, b in edges))
            if best_erec is None or erec < best_erec:
                best_erec, ties = erec, [(vorder, forder)]
            elif erec == best_erec:
                ties.append((vorder, forder))
    vorder, forder = ties[0]
    return vorder, forder, best_head + (best_erec,), ties


def canonical_form(g: Graph):
    """Deterministic representative of the isomorphism class of g.

    Returns (canonical graph, relabeling) where the relabeling maps the old
    vertex/flag identifiers to the new ones.  Isomorphic graphs (with equal
    tail labels) produce identical canonical graphs.
    """
    g.canonical_key()
    vorder, forder = g._canon[:2]
    vmap = {v: f"v{i}" for i, v in enumerate(vorder)}
    fmap = {f: f"f{i}" for i, f in enumerate(forder)}
    vertices = [vmap[v] for v in vorder]
    flags = [fmap[f] for f in forder]
    involution = {fmap[f]: fmap[g.involution[f]] for f in g.flags}
    boundary = {fmap[f]: vmap[g.boundary[f]] for f in g.flags}
    genus = {vmap[v]: k for v, k in g.genus.items()}
    gamma = ({vmap[v]: k for v, k in g.gamma.items()}
             if g.gamma is not None else None)
    orientation = ({fmap[f]: o for f, o in g.orientation.items()}
                   if g.orientation is not None else None)
    labels = {fmap[f]: l for f, l in g.labels.items()}
    canon = Graph(vertices, flags, involution, boundary, genus=genus,
                  gamma=gamma, orientation=orientation, labels=labels)
    relabel = {"vertices": vmap, "flags": fmap}
    return canon, relabel


# --------------------------------------------------------------------------
# automorphisms


def automorphisms(g: Graph) -> list[tuple[dict, dict]]:
    """All automorphisms fixing labeled tails pointwise, as (vmap, fmap).

    Two orderings with equal codes differ by exactly one automorphism, so
    Aut is the map from the best ordering of `_search` to each tie.  The
    list is sorted by the vertex images, taken class by class in refined
    order, then by the flag images, taken vertex by vertex and inside a
    vertex by (tail, orientation, label) and identifier.
    """
    g.canonical_key()
    vorder, forder, _, ties = g._canon
    vkeys = [v for cls in _refined_classes(g) for v in cls]
    vidx = {v: i for i, v in enumerate(g.vertices)}
    fkeys = sorted(g.flags, key=lambda f: (
        vidx[g.boundary[f]], g.involution[f] == f,
        (g.orientation or {}).get(f, ""), g.labels.get(f, ""), f))
    results = []
    for tv, tf in ties:
        vmap, fmap = dict(zip(vorder, tv)), dict(zip(forder, tf))
        results.append(({v: vmap[v] for v in vkeys},
                        {f: fmap[f] for f in fkeys}))
    results.sort(key=lambda a: (tuple(a[0].values()), tuple(a[1].values())))
    return results


# --------------------------------------------------------------------------
# enumeration


def _distributions(total: int, parts: int):
    """All tuples of `parts` non-negative integers summing to total."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _distributions(total - first, parts - 1):
            yield (first,) + rest


def enumerate_graphs(cls, signature: dict, max_edges: int,
                     vertex_ok=None) -> list[Graph]:
    """One canonical representative per isomorphism class in the given class.

    The signature fixes the tails: either `labels` (undirected classes) or
    `in_labels`/`out_labels` (directed classes), plus `genus` for stable
    graphs or `gamma` for nc classes.  `vertex_ok(graph, v)` may restrict
    the allowed local vertex types.
    """
    if isinstance(cls, GraphClass):
        cls = cls.kind
    directed = cls.startswith("directed") or "rooted" in cls
    if directed:
        in_labels = list(signature.get("in_labels", []))
        out_labels = list(signature.get("out_labels", []))
        tails = [("in", l) for l in in_labels] + [("out", l) for l in out_labels]
    else:
        tails = [(None, l) for l in signature.get("labels", [])]
    g_target = signature.get("genus")
    gamma_target = signature.get("gamma")
    want_connected = cls in ("tree", "planar-tree", "rooted-tree",
                             "planar-rooted-tree", "stable-graph",
                             "directed-tree", "directed-connected-no-wheels",
                             "directed-connected-wheeled", "connected-graph")
    flag_counts = signature.get("flag_counts")
    allow_bare = signature.get(
        "allow_bare",
        (g_target is not None or gamma_target is not None)
        and not flag_counts)
    seen = {}
    for k in range(max_edges + 1):
        nv_max = max(1, len(tails) + 2 * k)
        if want_connected:
            nv_max = min(nv_max, k + 1)
        if flag_counts:
            lo, hi = min(flag_counts), max(flag_counts)
            total = len(tails) + 2 * k
            nv_lo = max(1, -(-total // hi)) if hi else 1
            nv_hi = total // lo if lo else nv_max
            nv_range = range(nv_lo, min(nv_max, nv_hi) + 1)
        else:
            nv_range = range(1, nv_max + 1)
        for nv in nv_range:
            pairs = list(itertools.combinations_with_replacement(range(nv), 2))
            for edge_ms in itertools.combinations_with_replacement(pairs, k):
                if want_connected and not _connected_quick(nv, edge_ms, len(tails)):
                    continue
                for tail_assign in _tail_assignments(nv, edge_ms, len(tails),
                                                     flag_counts):
                    if not _usage_ok(nv, edge_ms, tail_assign, allow_bare):
                        continue
                    for built in _build_graphs(cls, nv, edge_ms, tails,
                                               tail_assign, g_target,
                                               gamma_target, directed):
                        if built is None:
                            continue
                        try:
                            if not classify(built, cls):
                                continue
                        except MissingDecoration:
                            continue
                        if vertex_ok is not None and not all(
                                vertex_ok(built, v) for v in built.vertices):
                            continue
                        canon, _ = canonical_form(built)
                        seen.setdefault(built.canonical_key(), canon)
    return [seen[k] for k in sorted(seen)]


def _tail_assignments(nv, edge_ms, n_tails, flag_counts):
    """Assignments of the tails to vertices, pruned by allowed flag counts."""
    if not flag_counts:
        yield from itertools.product(range(nv), repeat=n_tails)
        return
    edge_deg = [0] * nv
    for a, b in edge_ms:
        edge_deg[a] += 1
        edge_deg[b] += 1
    hi = max(flag_counts)
    caps = [hi - d for d in edge_deg]
    if any(c < 0 for c in caps) or sum(caps) < 0:
        return
    allowed = set(flag_counts)

    def rec(i, counts):
        if i == n_tails:
            if all(edge_deg[v] + counts[v] in allowed for v in range(nv)):
                yield ()
            return
        for v in range(nv):
            if counts[v] < caps[v]:
                counts[v] += 1
                for rest in rec(i + 1, counts):
                    yield (v,) + rest
                counts[v] -= 1

    yield from rec(0, [0] * nv)


def _connected_quick(nv, edge_ms, n_tails):
    if nv == 1:
        return True
    parent = list(range(nv))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edge_ms:
        parent[find(a)] = find(b)
    return len({find(v) for v in range(nv)}) == 1


def _usage_ok(nv, edge_ms, tail_assign, allow_bare):
    """Prune assignments: no silent bare vertices (unless decorations may
    stabilize them) and first occurrences in canonical order, which removes
    the pure vertex-renaming duplicates before canonicalization."""
    used = [False] * nv
    first_seen = []
    for a, b in edge_ms:
        for v in (a, b):
            if not used[v]:
                used[v] = True
                first_seen.append(v)
    for v in tail_assign:
        if not used[v]:
            used[v] = True
            first_seen.append(v)
    if not allow_bare and not all(used):
        return False
    return _is_first_use_monotone(first_seen)


def _is_first_use_monotone(first_seen):
    expect = 0
    for v in first_seen:
        if v == expect:
            expect += 1
        elif v > expect:
            return False
    return True


def _build_graphs(cls, nv, edge_ms, tails, tail_assign, g_target,
                  gamma_target, directed):
    vertices = [f"v{i}" for i in range(nv)]
    flags, involution, boundary, labels = [], {}, {}, {}
    orientation = {} if directed else None
    for idx, ((o, lab), vi) in enumerate(zip(tails, tail_assign)):
        f = f"t{idx}"
        flags.append(f)
        involution[f] = f
        boundary[f] = vertices[vi]
        if lab is not None:
            labels[f] = lab
        if directed:
            orientation[f] = o
    edge_flag_pairs = []
    for eidx, (a, b) in enumerate(edge_ms):
        fa, fb = f"e{eidx}a", f"e{eidx}b"
        flags += [fa, fb]
        involution[fa], involution[fb] = fb, fa
        boundary[fa], boundary[fb] = vertices[a], vertices[b]
        edge_flag_pairs.append((fa, fb))

    def orientations():
        if not directed:
            yield None
            return
        for bits in itertools.product(("in", "out"), repeat=len(edge_flag_pairs)):
            od = dict(orientation)
            for (fa, fb), o in zip(edge_flag_pairs, bits):
                od[fa] = o
                od[fb] = "out" if o == "in" else "in"
            yield od

    use_gamma = gamma_target is not None
    for od in orientations():
        base = Graph(vertices, flags, involution, boundary,
                     orientation=od, labels=labels,
                     gamma={} if use_gamma else None)
        if g_target is None and gamma_target is None:
            yield base
            continue
        if use_gamma:
            leftover = gamma_target - base.first_betti()
        else:
            if not base.is_connected():
                continue
            leftover = g_target - base.first_betti()
        if leftover < 0:
            continue
        for dist in _distributions(leftover, nv):
            dec = {v: d for v, d in zip(vertices, dist) if d}
            if use_gamma:
                yield Graph(vertices, flags, involution, boundary,
                            orientation=od, labels=labels, gamma=dec)
            else:
                yield Graph(vertices, flags, involution, boundary, genus=dec,
                            orientation=od, labels=labels)


def graph_to_bytes(g: Graph) -> bytes:
    """Canonical JSON serialization, sorted arrays, stable bytes."""
    canon, _ = canonical_form(g)
    return json.dumps(canon.to_json(), sort_keys=True,
                      separators=(",", ":")).encode()
