"""Abstract graphs: flags with an involution, plus the structural operations.

A graph is a finite set of vertices, a finite set of flags (half edges), a
self-inverse map on flags and a boundary map flags -> vertices.  Two-element
orbits of the involution are edges, fixed points are tails.  Optional
decorations: genus and gamma labels on vertices, orientation on flags, and
an injective labeling of tails.

A graph is immutable after construction.  It carries three caches:
`Graph._vflags`, the vertex -> flags index the first `vertex_flags` call
builds; `Graph._vinv`, each vertex's `_vertex_invariant`, worked out by
the first `_invariants` call or handed down by whoever built the graph;
and `Graph._canon`, the result of the single canonical search (`_search`)
that the first call of `canonical_key`, `canonical_form` or
`automorphisms` makes; every later call reads it, and `canonical_form`
hands the canonical graph the same search and invariants, renamed.  Once
a vertex order is fixed, the edge record splits into one block per run of
interchangeable flags, each least on its own (the individualization idea
of McKay and Piperno, "Practical graph isomorphism, II"), so the search
writes each least record down and finds the same least code and tied
orderings, in the same order, as trying every flag order.

`enumerate_graphs` grows graphs edge by edge: an edge insertion, the
inverse of `contract_edge`, takes each graph with k edges to those with
k + 1, and `canonical_key()` removes the duplicates.  Stable graphs take
the stable (genus or gamma, valence) pairs as vertex types, so no
insertion builds an unstable vertex, and in a class closed under
contraction a candidate is built only when no edge has a greater
isomorphism-invariant key than its new one (the last-edge test).
"""

from __future__ import annotations

import itertools

from .errors import MissingDecoration, NotAnEdge, NotATail, NotConnected

GRAPH_CLASSES = (
    "rooted-tree", "planar-rooted-tree", "tree", "planar-tree",
    "stable-graph", "directed-no-wheels", "directed-connected-no-wheels",
    "directed-tree", "directed-forest", "directed-wheeled",
    "directed-connected-wheeled", "forest", "nc-stable-graph",
    "connected-graph", "graph",
)


class Graph:
    """Immutable abstract graph with optional decorations."""

    __slots__ = ("vertices", "flags", "involution", "boundary", "genus",
                 "gamma", "orientation", "labels", "_canon", "_vflags",
                 "_vinv")

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
        self._canon = self._vflags = self._vinv = None
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
        """The flags at v, in the order of `flags`."""
        if self._vflags is None:
            vflags = {u: [] for u in self.vertices}
            for f in self.flags:
                vflags[self.boundary[f]].append(f)
            self._vflags = {u: tuple(fl) for u, fl in vflags.items()}
        return self._vflags.get(v, ())

    def g_of(self, v) -> int:
        return self.genus.get(v, 0)

    def gamma_of(self, v) -> int:
        return (self.gamma or {}).get(v, 0)

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
        # depth-first search: 1 while on the path, 2 when done
        color = {v: 0 for v in self.vertices}
        for root in self.vertices:
            if color[root]:
                continue
            color[root] = 1
            path = [(root, iter(succ[root]))]
            while path:
                v, todo = path[-1]
                for w in todo:
                    if color[w] == 1:
                        return True
                    if color[w] == 0:
                        color[w] = 1
                        path.append((w, iter(succ[w])))
                        break
                else:
                    color[v] = 2
                    path.pop()
        return False

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
    """`graft`, and the maps of `disjoint_union_with_maps`."""
    if g1.involution.get(s) != s:
        raise NotATail(f"{s!r} is not a tail of the first graph")
    if g2.involution.get(t) != t:
        raise NotATail(f"{t!r} is not a tail of the second graph")
    union, vmap2, fmap2 = disjoint_union_with_maps(g1, g2)
    return self_glue(union, s, fmap2[t]), vmap2, fmap2


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


def _label_sum(labels, keep, drop, extra=0):
    """A copy of a vertex-label dict (genus or gamma) with drop's label and
    `extra` added onto keep's; a zero sum leaves no entry."""
    if labels is None:
        return None
    out = dict(labels)
    total = out.pop(keep, 0) + out.pop(drop, 0) + extra
    if total:
        out[keep] = total
    return out


def contract_edge(g: Graph, e) -> Graph:
    """Contract one edge; merging vertices adds genus, a loop adds one."""
    f1, f2 = tuple(e)
    if g.involution.get(f1) != f2 or f1 == f2:
        raise NotAnEdge(f"{e!r} is not an edge")
    v1, v2 = g.boundary[f1], g.boundary[f2]
    flags = [f for f in g.flags if f not in (f1, f2)]
    involution = {f: p for f, p in g.involution.items() if f in flags}
    # a loop keeps its vertex (keep == drop) and adds one to its labels
    keep, drop = sorted((v1, v2))
    loop = int(v1 == v2)
    vertices = [v for v in g.vertices if v != drop or loop]
    boundary = {f: (keep if g.boundary[f] == drop else g.boundary[f])
                for f in flags}
    orientation = None
    if g.orientation is not None:
        orientation = {f: g.orientation[f] for f in flags}
    return Graph(vertices, flags, involution, boundary,
                 genus=_label_sum(g.genus, keep, drop, loop),
                 gamma=_label_sum(g.gamma, keep, drop, loop),
                 orientation=orientation,
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
    return Graph(vertices, union.flags, union.involution, boundary,
                 genus=_label_sum(union.genus, v, w),
                 gamma=_label_sum(union.gamma, v, w),
                 orientation=union.orientation, labels=union.labels)


def total_genus(g: Graph) -> int:
    """Sum of vertex genera plus the cycle rank; the graph must be connected."""
    if not g.is_connected():
        raise NotConnected("total genus needs a connected graph")
    return sum(g.g_of(v) for v in g.vertices) + g.first_betti()


def additive_gamma(g: Graph) -> int:
    """First Betti number plus the gamma labels.

    It is additive under disjoint union, which is what the nc composition
    bookkeeping needs; on a connected graph it is 1 - chi plus the labels.
    """
    return g.first_betti() + sum(g.gamma_of(v) for v in g.vertices)


# --------------------------------------------------------------------------
# classification


def vertex_stable(g: Graph, v, use_gamma=False) -> bool:
    label = g.gamma_of(v) if use_gamma else g.g_of(v)
    return 2 * label - 2 + len(g.vertex_flags(v)) > 0


def classify(g: Graph, kind: str) -> bool:
    """Membership of g in one of the named graph classes."""
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
    return _invariant(v, g.vertex_flags(v), g.g_of(v),
                      g.gamma_of(v) if g.gamma is not None else -1,
                      g.involution, g.boundary, g.orientation, g.labels)


def _invariant(v, fl, genus, gamma, involution, boundary, orientation,
               labels):
    """The isomorphism invariant of a vertex v with flags fl, read from a
    graph's parts, which need not make a `Graph` yet: its labels, valence,
    loops and multisets of tail (orientation, label) and flag orientation."""
    tail_keys = sorted((orientation[f] if orientation else "",
                        labels.get(f, "")) for f in fl if involution[f] == f)
    orient_profile = sorted(orientation[f] for f in fl) if orientation else []
    loops = sum(1 for f in fl if involution[f] != f
                and boundary[involution[f]] == v) // 2
    return (genus, gamma, len(fl), loops, tuple(tail_keys),
            tuple(orient_profile))


def _invariants(g: Graph) -> dict:
    """Each vertex's `_vertex_invariant`, cached on g."""
    if g._vinv is None:
        g._vinv = {v: _vertex_invariant(g, v) for v in g.vertices}
    return g._vinv


def _refined_classes(g: Graph):
    """Order-invariant vertex partition, refined by neighbor multisets."""
    inv = _invariants(g)
    if len(set(inv.values())) == len(inv):  # nothing left to refine
        return [[v] for v in sorted(inv, key=lambda v: repr(inv[v]))]
    around = {v: [g.boundary[g.involution[f]] for f in g.vertex_flags(v)
                  if g.involution[f] != f] for v in g.vertices}
    for _ in range(len(g.vertices)):
        text = {v: repr(k) for v, k in inv.items()}
        nbr = {v: (inv[v], tuple(sorted(text[u] for u in around[v])))
               for v in g.vertices}
        # nbr refines inv, so equally many classes means the same partition
        if len(set(nbr.values())) == len(set(inv.values())):
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

    Its orderings are the vertex orders that respect the refined classes
    and, for each, the flag orders that permute only inside the
    `_flag_groups` runs.  An ordering's code is (vertex record, flag
    record, edge record).  The first two, the head, are the same for every
    such ordering: `_refined_classes` gives each vertex of a class the
    same genus, gamma, valence and multisets of tail (orientation, label)
    and flag orientations, and a run holds flags of one vertex,
    orientation and label.  So only the edge records are compared, and the
    head is built once, from the best ordering.  A vertex order's least
    edge record (`_least_record`) is found once per order of the classes
    with flags, since a flagless class's order does not change it, and
    flag orders are built for the least vertex orders alone
    (`_least_flag_orders`).  Returns (vorder, forder, code, ties,
    classes): the first ordering with the least code, every ordering whose
    code equals it, in the order of `itertools.product` over the classes'
    and runs' permutations, and the refined classes.
    """
    classes, partner = _refined_classes(g), g.involution
    flagged = [i for i, cls in enumerate(classes) if g.vertex_flags(cls[0])]
    best_erec, least, found = None, [], {}
    for vchoice in itertools.product(*map(itertools.permutations, classes)):
        vorder = [v for cls in vchoice for v in cls]
        key = tuple(vchoice[i] for i in flagged)
        if key not in found:
            groups = _flag_groups(g, vorder)
            starts = _run_starts(groups, partner)
            found[key] = _least_record(groups, starts, partner), groups, starts
        erec = found[key][0]
        if best_erec is None or erec < best_erec:
            best_erec, least = erec, []
        if erec == best_erec:
            least.append((vorder, key))
    forders = {key: _least_flag_orders(*found[key][1:], partner)
               for key in dict.fromkeys(key for _, key in least)}
    ties = [(vorder, forder) for vorder, key in least
            for forder in forders[key]]
    vorder, forder = ties[0]
    vpos = {v: i for i, v in enumerate(vorder)}
    rank, orient = {"in": 0, "out": 1}, g.orientation or {}
    head = (tuple((g.g_of(v), g.gamma_of(v) if g.gamma is not None else -1)
                  for v in vorder),
            tuple((vpos[g.boundary[f]], rank.get(orient.get(f), 2),
                   g.labels.get(f, "")) for f in forder))
    return vorder, forder, head + (best_erec,), ties, classes


def _run_starts(runs, partner):
    """Each run's (s, t): the first position of the run and of the run
    that holds its flags' partners; t = s for tails and undirected loops."""
    start, s = {}, 0
    for run in runs:
        start.update(dict.fromkeys(run, s))
        s += len(run)
    return [(start[run[0]], start[partner[run[0]]]) for run in runs]


def _least_record(runs, starts, partner):
    """The least edge record of the flag orders that permute only inside
    `runs`, which start at `starts`.  A record lists an (i, j) per edge,
    i < j the positions of its flags, sorted by i.  A run's flags partner
    those of one run, so the record splits into blocks of fixed length,
    one per run, each set by that run's order and its partners' alone:
    each block is least on its own.  A run of m flags at s whose partners
    start later, at t, gives (s + k, t + k) for k < m; a run of undirected
    loops gives (s + 2k, s + 2k + 1); the other runs give nothing."""
    record = []
    for run, (s, t) in zip(runs, starts):
        if s < t:
            record += zip(range(s, s + len(run)), range(t, t + len(run)))
        elif s == t and partner[run[0]] != run[0]:
            record += zip(range(s, s + len(run), 2),
                          range(s + 1, s + len(run), 2))
    return tuple(record)


def _least_flag_orders(runs, starts, partner):
    """The flag orders with the `_least_record`, in `itertools.product`
    order over the runs' permutations: a tail run or one that opens edges
    takes every order, one that closes edges follows its partners, and a
    run of undirected loops puts each loop's flags side by side."""
    choices, plan, opener = [], [], {}
    for run, (s, t) in zip(runs, starts):
        if t < s:  # the flags of its opener's pick, mapped to partners
            plan.append((opener[s], True))
            continue
        if s < t:
            opener[t] = len(choices)
        plan.append((len(choices), False))
        choices.append(itertools.permutations(run)
                       if s < t or partner[run[0]] == run[0]
                       else _paired_orders(run, partner))
    return [[partner[f] if mapped else f
             for k, mapped in plan for f in pick[k]]
            for pick in itertools.product(*choices)]


def _paired_orders(run, partner):
    """The orders of a run of k undirected loops that put each loop's
    flags side by side, 2^k k! of them, in `itertools.permutations` order."""
    if not run:
        yield ()
    for f in run:
        rest = [x for x in run if x != f and x != partner[f]]
        for more in _paired_orders(rest, partner):
            yield (f, partner[f]) + more


def canonical_form(g: Graph):
    """Deterministic representative of the isomorphism class of g.

    Returns (canonical graph, relabeling) where the relabeling maps the old
    vertex/flag identifiers to the new ones.  Isomorphic graphs (with equal
    tail labels) produce identical canonical graphs.  The canonical graph
    inherits the search and the vertex invariants through the relabeling,
    so it is never searched.
    """
    g.canonical_key()
    vorder, forder, code, ties, classes = g._canon
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
    # the orderings of g with the least code, renamed, are those of canon;
    # its vertex tuple is sorted as strings ("v10" < "v2"), so the best
    # ordering is `vertices`, not `canon.vertices`; the refined classes do
    # not depend on names, and each is sorted as `_refined_classes` sorts it
    canon._canon = (vertices, flags, code,
                    [([vmap[v] for v in tv], [fmap[f] for f in tf])
                     for tv, tf in ties],
                    [sorted(vmap[v] for v in cls) for cls in classes])
    canon._vinv = {vmap[v]: k for v, k in g._vinv.items()}
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
    vorder, forder, _, ties, classes = g._canon
    vkeys = [v for cls in classes for v in cls]
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

_CONNECTED = frozenset({
    "rooted-tree", "planar-rooted-tree", "tree", "planar-tree",
    "stable-graph", "directed-tree", "directed-connected-no-wheels",
    "directed-connected-wheeled", "connected-graph"})


def enumerate_graphs(cls, signature: dict, max_edges: int,
                     vertex_types=None) -> list[Graph]:
    """One canonical representative per isomorphism class in the given class,
    generated by edge insertion (`_Insertions`) and sorted by canonical key.

    The signature fixes the tails: either `labels` (undirected classes) or
    `in_labels`/`out_labels` (directed classes), plus `genus` (then the
    graph is connected of that total genus) or `gamma` (first Betti number
    plus vertex gammas).  `vertex_types` is a set of allowed (genus or
    gamma, valence) pairs; without it every vertex with a flag is allowed,
    and a flagless one only when a genus or gamma is given.
    """
    return _Insertions(cls, signature, max_edges, vertex_types).run()


class _Insertions:
    """The graphs with k + 1 edges are those one edge insertion makes from
    the graphs with k edges, deduplicated by `canonical_key()`.  An
    insertion splits a vertex along a new edge, dividing its flags and
    its genus or gamma between the ends, or adds a loop, which lowers a
    tracked genus or gamma by one; a directed edge gets both orientations.
    A graph stays in its level only while it can still reach the output:
    a class closed under contraction must hold it, and the summed vertex
    needs (`_need_table`) must fit the edges left.  Without given vertex
    types, `stable-graph` with a genus and `nc-stable-graph` with a gamma
    take the stable pairs (2l - 2 + n > 0): an insertion then keeps every
    vertex stable and the graph connected, so only seeds are classified.
    A candidate whose new edge some edge's key exceeds (`_last`) is
    dropped before it is built, in every class: an insertion at v changes
    the invariants of v and the new vertex alone, so the keys come from the
    parent's invariants and those two, and a candidate that is built is
    handed them all.  No class is lost: for H of the next level and x an
    edge of greatest key, H/x is in this level.  A level of a closed class
    holds every graph of the class whose needs fit, and H/x is in the
    class; a level of any other class is not filtered by the class at all.
    Either way need(merged) <= 1 + need(a) + need(b), and inserting x into
    H/x gives H.  The canonical keys decide ties.  An output graph has
    max(1, tails + 2 edges) vertices at most.
    """

    def __init__(self, cls, signature, max_edges, vertex_types):
        if cls not in GRAPH_CLASSES:
            raise ValueError(f"unknown graph class {cls!r}")
        if max_edges < 0:
            raise ValueError(f"negative edge bound {max_edges}")
        self.cls, self.max_edges = cls, max_edges
        self.directed = cls.startswith("directed") or "rooted" in cls
        if self.directed:
            self.tails = ([("in", l) for l in signature.get("in_labels", [])]
                          + [("out", l) for l in signature.get("out_labels", [])])
        else:
            self.tails = [(None, l) for l in signature.get("labels", [])]
        gamma, genus = signature.get("gamma"), signature.get("genus")
        self.field = ("gamma" if gamma is not None
                      else "genus" if genus is not None else None)
        self.target = {"gamma": gamma, "genus": genus}.get(self.field, 0)
        self.connected = cls in _CONNECTED or self.field == "genus"
        # contracting an edge can close an oriented cycle, and a contracted
        # loop keeps a vertex stable only by raising the label stability reads
        self.closed = {"directed-no-wheels": False,
                       "directed-connected-no-wheels": False,
                       "stable-graph": self.field == "genus",
                       "nc-stable-graph": self.field == "gamma"}.get(cls, True)
        self.stable = (cls in ("stable-graph", "nc-stable-graph")
                       and self.closed and vertex_types is None)
        self.need, self.first = self._need_table(vertex_types)

    def _need_table(self, types):
        """need[(label, valence)]: the fewest insertions that turn such a
        vertex into allowed ones; first[...]: the least summed need of the
        ends one insertion leaves.  Both stop at the edge bound.  Round r
        finds the needs equal to r: their first insertion leaves ends of
        needs found in earlier rounds."""
        over = self.max_edges + 1
        kinds = [(l, n) for l in range(self.target + 1)
                 for n in range(len(self.tails) + 2 * over)]
        need = {(l, n): 0 for l, n in kinds
                if ((l, n) in types if types is not None
                    else 2 * l - 2 + n > 0 if self.stable else n or self.field)}
        for r in range(1, over + 1):
            first = {}
            for l, n in kinds:
                loop = l - 1 if self.field else l
                costs = [need.get((loop, n + 2), over) if loop >= 0 else over]
                costs += [need.get((l - lw, n - m + 1), over)
                          + need.get((lw, m + 1), over)
                          for m in range(max(n, 1)) for lw in range(l + 1)]
                if min(costs) < over:
                    first[l, n] = min(costs)
            need = {**{k: r for k, c in first.items() if c < r}, **need}
        return need, first

    def _local(self, g: Graph):
        """Each vertex's label and its flags."""
        return ({v: g.gamma_of(v) if self.field == "gamma" else g.g_of(v)
                 for v in g.vertices},
                {v: g.vertex_flags(v) for v in g.vertices})

    def _graph(self, vertices, flags, involution, boundary, labels,
               orientation, tail_labels, inv=None) -> Graph:
        """A graph whose vertex labels go to the tracked decoration, and
        whose vertex invariants are `inv` when given."""
        dec = {v: l for v, l in labels.items() if l}
        g = Graph(vertices, flags, involution, boundary,
                  genus=dec if self.field == "genus" else None,
                  gamma=dec if self.field == "gamma" else None,
                  orientation=orientation, labels=tail_labels)
        g._vinv = inv
        return g

    def _decoration(self, label):
        """(genus, gamma) as `_vertex_invariant` reads them off a vertex of
        `_graph` with this label."""
        return (label if self.field == "genus" else 0,
                label if self.field == "gamma" else -1)

    def _seeds(self):
        """The edgeless graphs: a vertex per block of tails, and tailless
        vertices.  The block kinds come first, pruned by their needs, and
        only then the tails."""
        n = len(self.tails)
        if self.connected:
            specs = [((n, self.target),)]
        else:
            kinds = [(size, l, c) for (l, size), c in
                     sorted(self.need.items(), reverse=True) if size <= n]
            specs = _multisets(kinds, n, self.target, self.max_edges,
                               max(1, n + 2 * self.max_edges))
        flags = [f"t{i}" for i in range(n)]
        orientation = ({f: o for f, (o, _) in zip(flags, self.tails)}
                       if self.directed else None)
        tail_labels = {f: l for f, (_, l) in zip(flags, self.tails)
                       if l is not None}
        for spec in specs:
            vertices = [f"v{i}" for i in range(len(spec))]
            for cut in _cuts(tuple(range(n)), spec):
                yield self._graph(
                    vertices, flags, {f: f for f in flags},
                    {flags[i]: v for v, block in zip(vertices, cut)
                     for i in block},
                    {v: l for v, (_, l) in zip(vertices, spec)}, orientation,
                    tail_labels)

    def _insertions(self, level, left: int):
        """(graph, new edge) for every graph one insertion makes from a
        graph of `level` whose need fits `left`."""
        ends = (("out", "in"), ("in", "out")) if self.directed else (None,)
        for g in level:
            labels, vflags = self._local(g)
            need = {v: self.need.get((labels[v], len(fl)), left + 1)
                    for v, fl in vflags.items()}
            edges, ginv = g.edges(), _invariants(g)
            e, w = f"e{len(edges)}", f"v{len(g.vertices)}"
            new = (e + "a", e + "b")
            bare = set()  # flagless vertices of one label are interchangeable
            for v, fl in vflags.items():
                lab, rest = labels[v], sum(need.values()) - need[v]
                if rest + self.first.get((lab, len(fl)), left + 1) > left or (
                        not fl and lab in bare):
                    continue
                bare.update(() if fl else (lab,))
                loop = lab - 1 if self.field else lab
                made = [(v, (), loop, loop)] if loop >= 0 and rest + \
                    self.need.get((loop, len(fl) + 2), left + 1) <= left else []
                made += [(w, moved, lab - lw, lw)
                         for r in range(max(len(fl), 1))
                         for moved in itertools.combinations(fl[1:], r)
                         for lw in range(lab + 1)
                         if rest + self.need.get((lw, r + 1), left + 1)
                         + self.need.get((lab - lw, len(fl) - r + 1), left + 1)
                         <= left]
                others = {x: k for x, k in ginv.items() if x != v}
                for u, moved, lv, lu in made:
                    boundary = {**g.boundary, **{f: u for f in moved},
                                new[0]: v, new[1]: u}
                    involution = {**g.involution, new[0]: new[1],
                                  new[1]: new[0]}
                    at = {x: [f for f in fl + new if boundary[f] == x]
                          for x in (v, u)}
                    for end in ends:
                        orientation = end and {**g.orientation,
                                               new[0]: end[0], new[1]: end[1]}
                        inv = {**others, **{x: _invariant(
                            x, at[x], *self._decoration(l), involution,
                            boundary, orientation, g.labels)
                            for x, l in {v: lv, u: lu}.items()}}
                        if self._last(inv, boundary, orientation, edges, new):
                            yield self._graph(
                                g.vertices + (() if u == v else (u,)),
                                g.flags + new, involution, boundary,
                                {**labels, v: lv, u: lu}, orientation,
                                g.labels, inv), new

    def _last(self, inv, boundary, orientation, edges, new) -> bool:
        """Whether no edge of a candidate has a greater key than `new`; the
        candidate, not yet built, is given by its vertex invariants, its
        boundary and orientation maps and its other `edges`.  An edge's key
        is its ends' invariants: (out end, in end) in a directed class,
        sorted otherwise."""

        def key(f, p):
            a, b = inv[boundary[f]], inv[boundary[p]]
            if self.directed:
                return (a, b) if orientation[f] == "out" else (b, a)
            return (a, b) if a <= b else (b, a)

        top = key(*new)
        return all(key(f, p) <= top for f, p in edges)

    def run(self) -> list[Graph]:
        candidates, seen = ((h, None) for h in self._seeds()), {}
        for k in range(self.max_edges + 1):
            level = {}  # canonical key -> canonical form
            for h, new in candidates:
                # past the seeds, stable vertex types stand in for classify
                if self.closed and not (new and self.stable
                                        or classify(h, self.cls)):
                    continue
                if h.canonical_key() not in level:
                    level[h.canonical_key()] = canonical_form(h)[0]
            for key, g in level.items():
                labels, vflags = self._local(g)
                if (1 <= len(g.vertices) <= max(1, len(self.tails) + 2 * k)
                        and all(self.need.get((labels[v], len(fl))) == 0
                                for v, fl in vflags.items())
                        and classify(g, self.cls)):
                    seen[key] = g
            candidates = self._insertions(list(level.values()),
                                          self.max_edges - k - 1)
        return [seen[k] for k in sorted(seen)]


def _multisets(kinds, size: int, label: int, budget: int, count: int):
    """Non-increasing tuples of at most `count` (size, label) pairs from
    `kinds`, a list of (size, label, need), whose sizes sum to `size`,
    labels to `label` and needs to at most `budget`."""
    if not size and not label:
        yield ()
    for i, (n, l, c) in enumerate(kinds if count else ()):
        if n <= size and l <= label and c <= budget:
            for rest in _multisets(kinds[i:], size - n, label - l,
                                   budget - c, count - 1):
                yield ((n, l),) + rest


def _cuts(items: tuple, spec: tuple, prev=None, floor=-1):
    """The ways to cut `items` into blocks of the sizes in `spec`, in its
    order.  Equal entries of `spec` are interchangeable, so their blocks
    come in increasing order of least item."""
    if not spec:
        yield ()
        return
    low = floor if spec[0] == prev else -1
    for block in itertools.combinations(items, spec[0][0]):
        if not block or block[0] > low:
            left = tuple(x for x in items if x not in block)
            for more in _cuts(left, spec[1:], spec[0], block and block[0]):
                yield (block,) + more
