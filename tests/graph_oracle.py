"""Brute-force oracles for `graphs.enumerate_graphs` and `graphs._search`.

`brute_enumerate_graphs` builds every edge multiset on every number of
vertices, every tail assignment, every genus or gamma distribution and
every orientation, then filters by class and vertex types and keeps one
canonical form per isomorphism class.  `brute_search` tries every flag
order inside the refined runs, with no cut.  Both are exponential and meant
for small graphs only.  `last_edge` is the enumerator's last-edge test
worked out on a built graph, every vertex invariant recomputed.
"""

import itertools

from opforge.graphs import (Graph, _flag_groups, _refined_classes,
                            _vertex_invariant, canonical_form, classify)

CONNECTED = ("tree", "planar-tree", "rooted-tree", "planar-rooted-tree",
             "stable-graph", "directed-tree", "directed-connected-no-wheels",
             "directed-connected-wheeled", "connected-graph")


def _distributions(total, parts):
    """All tuples of `parts` non-negative integers summing to total."""
    return [d for d in itertools.product(range(total + 1), repeat=parts)
            if sum(d) == total]


def brute_enumerate_graphs(cls, signature, max_edges, vertex_types=None):
    """What `enumerate_graphs` returns, found by filtering candidates."""
    directed = cls.startswith("directed") or "rooted" in cls
    if directed:
        tails = ([("in", l) for l in signature.get("in_labels", [])]
                 + [("out", l) for l in signature.get("out_labels", [])])
    else:
        tails = [(None, l) for l in signature.get("labels", [])]
    gamma, genus = signature.get("gamma"), signature.get("genus")
    field = "gamma" if gamma is not None else "genus" if genus is not None \
        else None
    target = gamma if gamma is not None else genus
    if vertex_types is None:
        allow_bare = field is not None
    else:
        allow_bare = any(n == 0 for _, n in vertex_types)
    connected = cls in CONNECTED or field == "genus"
    seen = {}
    for k in range(max_edges + 1):
        nv_max = max(1, len(tails) + 2 * k)
        if connected:
            nv_max = min(nv_max, k + 1)
        for nv in range(1, nv_max + 1):
            pairs = list(itertools.combinations_with_replacement(range(nv), 2))
            for edge_ms in itertools.combinations_with_replacement(pairs, k):
                for assign in itertools.product(range(nv), repeat=len(tails)):
                    if not _usage_ok(nv, edge_ms, assign, allow_bare):
                        continue
                    for g in _decorated(nv, edge_ms, tails, assign, field,
                                        target, directed):
                        if not classify(g, cls):
                            continue
                        if vertex_types is not None and not all(
                                (_label(g, v, field),
                                 len(g.vertex_flags(v))) in vertex_types
                                for v in g.vertices):
                            continue
                        canon, _ = canonical_form(g)
                        seen.setdefault(g.canonical_key(), canon)
    return [seen[k] for k in sorted(seen)]


def _usage_ok(nv, edge_ms, assign, allow_bare):
    """No unused vertex unless flagless ones are allowed, and vertices used
    for the first time in increasing order, which drops the candidates that
    only rename vertices."""
    first_seen = []
    for v in [v for e in edge_ms for v in e] + list(assign):
        if v not in first_seen:
            first_seen.append(v)
    if not allow_bare and len(first_seen) < nv:
        return False
    expect = 0
    for v in first_seen:
        if v > expect:
            return False
        expect += v == expect
    return True


def _label(g, v, field):
    return g.gamma_of(v) if field == "gamma" else g.g_of(v)


def _decorated(nv, edge_ms, tails, assign, field, target, directed):
    vertices = [f"v{i}" for i in range(nv)]
    flags, involution, boundary, labels = [], {}, {}, {}
    orientation = {} if directed else None
    for idx, ((o, lab), vi) in enumerate(zip(tails, assign)):
        f = f"t{idx}"
        flags.append(f)
        involution[f] = f
        boundary[f] = vertices[vi]
        if lab is not None:
            labels[f] = lab
        if directed:
            orientation[f] = o
    edge_flags = []
    for eidx, (a, b) in enumerate(edge_ms):
        fa, fb = f"e{eidx}a", f"e{eidx}b"
        flags += [fa, fb]
        involution[fa], involution[fb] = fb, fa
        boundary[fa], boundary[fb] = vertices[a], vertices[b]
        edge_flags.append((fa, fb))
    for bits in itertools.product(("in", "out"),
                                  repeat=len(edge_flags) if directed else 0):
        od = None
        if directed:
            od = dict(orientation)
            for (fa, fb), o in zip(edge_flags, bits):
                od[fa], od[fb] = o, "out" if o == "in" else "in"
        base = Graph(vertices, flags, involution, boundary, orientation=od,
                     labels=labels, gamma={} if field == "gamma" else None)
        if field is None:
            yield base
            continue
        if field == "genus" and not base.is_connected():
            continue
        leftover = target - base.first_betti()
        if leftover < 0:
            continue
        for dist in _distributions(leftover, nv):
            dec = {v: d for v, d in zip(vertices, dist) if d}
            yield Graph(vertices, flags, involution, boundary,
                        genus=dec if field == "genus" else None,
                        gamma=dec if field == "gamma" else None,
                        orientation=od, labels=labels)


def brute_search(g: Graph):
    """What `graphs._search` returns, found by trying every flag order."""
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


def last_edge(h: Graph, new, directed: bool) -> bool:
    """Whether no edge of h has a greater key than `new`.  An edge's key is
    its ends' `_vertex_invariant`s: (out end, in end) when directed, sorted
    otherwise."""
    inv = {v: _vertex_invariant(h, v) for v in h.vertices}

    def key(f, p):
        a, b = inv[h.boundary[f]], inv[h.boundary[p]]
        if directed:
            return (a, b) if h.orientation[f] == "out" else (b, a)
        return (a, b) if a <= b else (b, a)

    top = key(*new)
    return all(key(f, p) <= top for f, p in h.edges())
