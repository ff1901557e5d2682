import itertools
import json
import random
import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graph_oracle import brute_enumerate_graphs, brute_search, last_edge
from opforge import graphs as G
from opforge.errors import NotAnEdge, NotATail, NotConnected
from opforge.graphs import (GRAPH_CLASSES, Graph, additive_gamma,
                            automorphisms, canonical_form, classify,
                            contract_edge, corolla, enumerate_graphs, graft,
                            merge_vertices, self_glue, total_genus)


def theta():
    return Graph(["a", "b"], ["f1", "f2", "f3", "g1", "g2", "g3"],
                 {"f1": "g1", "g1": "f1", "f2": "g2", "g2": "f2",
                  "f3": "g3", "g3": "f3"},
                 {"f1": "a", "f2": "a", "f3": "a",
                  "g1": "b", "g2": "b", "g3": "b"})


def loop_graph(extra_tails=0, genus=0):
    flags = ["s", "t"] + [f"x{i}" for i in range(extra_tails)]
    inv = {"s": "t", "t": "s"}
    inv.update({f"x{i}": f"x{i}" for i in range(extra_tails)})
    return Graph(["v"], flags, inv, {f: "v" for f in flags},
                 genus={"v": genus} if genus else {})


# -- structural operations ---------------------------------------------------

def test_graft_corollas():
    c1 = corolla("u", ["a", "b", "c"])
    c2 = corolla("w", ["d", "e"])
    g = graft(c1, "c", c2, "d")
    assert len(g.vertices) == 2
    assert g.edges() == (("c", "d"),)
    assert sorted(g.tails()) == ["a", "b", "e"]


def test_graft_dumbbell():
    g = graft(corolla("u", ["s"]), "s", corolla("w", ["t"]), "t")
    assert len(g.edges()) == 1 and not g.tails()


def test_graft_requires_tails():
    g = theta()
    with pytest.raises(NotATail):
        graft(g, "f1", corolla("w", ["t"]), "t")


def test_graft_rooted_trees_stays_rooted():
    r1 = corolla("u", ["r", "l1", "l2"],
                 orientation={"r": "out", "l1": "in", "l2": "in"})
    r2 = corolla("w", ["r2", "m1"],
                 orientation={"r2": "out", "m1": "in"})
    g = graft(r1, "l1", r2, "r2")
    assert classify(g, "rooted-tree")


def test_contract_edge_merges_and_adds_genus():
    c1 = corolla("u", ["a", "b", "c"], genus=1)
    c2 = corolla("w", ["d", "e"], genus=2)
    g = graft(c1, "c", c2, "d")
    c = contract_edge(g, g.edges()[0])
    assert len(c.vertices) == 1
    assert sorted(c.tails()) == ["a", "b", "e"]
    assert c.genus[c.vertices[0]] == 3


def test_contract_loop_increments_genus():
    c = contract_edge(loop_graph(), ("s", "t"))
    assert c.genus == {"v": 1}
    assert not c.flags


def test_contract_requires_edge():
    with pytest.raises(NotAnEdge):
        contract_edge(corolla("u", ["a"]), ("a", "a"))


def test_contract_tree_confluence():
    # contracting all edges in any order yields the same canonical corolla
    g = graft(graft(corolla("u", ["a", "b", "c"]), "c",
                    corolla("w", ["d", "e"]), "d"),
              "e", corolla("z", ["p", "q"]), "p")
    results = set()
    for order in itertools.permutations(range(2)):
        h = g
        for _ in order:
            h = contract_edge(h, h.edges()[_ if _ < len(h.edges()) else 0])
        results.add(canonical_form(h)[0].canonical_key())
    assert len(results) == 1
    once = contract_edge(g, g.edges()[0])
    final = contract_edge(once, once.edges()[0])
    assert len(final.vertices) == 1


def test_merge_vertices():
    m = merge_vertices(corolla("u", ["a", "b"]), "u", corolla("w", ["c"]), "w")
    assert len(m.vertices) == 1
    assert sorted(m.tails()) == ["a", "b", "c"]
    # merger never changes edge or tail counts
    t = theta()
    m2 = merge_vertices(t, "a", corolla("w", ["c"]), "w")
    assert len(m2.edges()) == len(t.edges())
    assert len(m2.tails()) == len(t.tails()) + 1


def test_merge_rooted_corollas_gives_two_out_tails():
    r1 = corolla("u", ["r1", "a"], orientation={"r1": "out", "a": "in"})
    r2 = corolla("w", ["r2", "b"], orientation={"r2": "out", "b": "in"})
    m = merge_vertices(r1, "u", r2, "w")
    outs = [f for f in m.flags if m.orientation[f] == "out"]
    assert len(outs) == 2


def test_graft_then_contract_equals_merger_plus_flag_deletion():
    rng = random.Random(7)
    for _ in range(25):
        n1 = rng.randrange(1, 4)
        n2 = rng.randrange(1, 4)
        c1 = corolla("u", [f"a{i}" for i in range(n1)] + ["s"], genus=rng.randrange(2))
        c2 = corolla("w", [f"b{i}" for i in range(n2)] + ["t"], genus=rng.randrange(2))
        g = contract_edge(graft(c1, "s", c2, "t"), ("s", "t"))
        m = merge_vertices(corolla("u", [f"a{i}" for i in range(n1)],
                                   genus=c1.genus.get("u", 0)), "u",
                           corolla("w", [f"b{i}" for i in range(n2)],
                                   genus=c2.genus.get("w", 0)), "w")
        assert canonical_form(g)[0] == canonical_form(m)[0]


# -- genus bookkeeping --------------------------------------------------------

def test_total_genus():
    assert total_genus(theta()) == 2
    tree = graft(corolla("u", ["a", "c"]), "c", corolla("w", ["d", "e"]), "d")
    assert total_genus(tree) == 0
    assert total_genus(loop_graph(genus=1)) == 2
    two = Graph(["a", "b"], ["f", "g"], {"f": "f", "g": "g"},
                {"f": "a", "g": "b"})
    with pytest.raises(NotConnected):
        total_genus(two)


def test_additive_gamma():
    # two disjoint genus-0 loops: one cycle each
    g = Graph(["a", "b"], ["s1", "t1", "s2", "t2"],
              {"s1": "t1", "t1": "s1", "s2": "t2", "t2": "s2"},
              {"s1": "a", "t1": "a", "s2": "b", "t2": "b"}, gamma={})
    assert additive_gamma(g) == 2
    # connected, gamma = genus equals total genus
    t = theta()
    tg = Graph(t.vertices, t.flags, t.involution, t.boundary,
               gamma={v: 0 for v in t.vertices})
    assert additive_gamma(tg) == total_genus(t)
    assert additive_gamma(corolla("v", ["a"], gamma=3)) == 3


# -- classification -----------------------------------------------------------

def test_classify():
    dumbbell = graft(corolla("u", ["s"]), "s", corolla("w", ["t"]), "t")
    assert classify(dumbbell, "tree")
    assert not classify(loop_graph(), "tree")
    assert not classify(theta(), "tree")
    assert classify(theta(), "stable-graph")
    assert not classify(corolla("v", ["a", "b"]), "stable-graph")
    assert classify(corolla("v", ["a", "b", "c"]), "stable-graph")
    oriented = graft(corolla("u", ["a"], orientation={"a": "out"}), "a",
                     corolla("w", ["b"], orientation={"b": "in"}), "b")
    assert classify(oriented, "directed-no-wheels")
    assert classify(oriented, "directed-tree")


def test_classify_wheel():
    # single vertex with an oriented loop is a wheel
    w = Graph(["v"], ["s", "t"], {"s": "t", "t": "s"}, {"s": "v", "t": "v"},
              orientation={"s": "out", "t": "in"})
    assert not classify(w, "directed-no-wheels")
    assert classify(w, "directed-wheeled")


def test_stability_closed_under_contraction():
    graphs = enumerate_graphs("stable-graph", {"labels": ["1", "2"], "genus": 1}, 2)
    for g in graphs:
        for e in g.edges():
            h = contract_edge(g, e)
            assert classify(h, "stable-graph")


# -- canonical form -----------------------------------------------------------

def test_canonical_idempotent():
    g = theta()
    c1, _ = canonical_form(g)
    c2, _ = canonical_form(c1)
    assert c1 == c2


def test_canonical_form_of_relabelings():
    g2 = Graph(["x", "y"], ["p1", "p2", "p3", "q1", "q2", "q3"],
               {"p1": "q1", "q1": "p1", "p2": "q2", "q2": "p2",
                "p3": "q3", "q3": "p3"},
               {"p1": "x", "p2": "x", "p3": "x",
                "q1": "y", "q2": "y", "q3": "y"})
    assert canonical_form(theta())[0] == canonical_form(g2)[0]


def _random_graph(rng, max_vertices=5, max_edges=5, decorate=0.3):
    """A random graph that carries genus, gamma, an orientation and tail
    labels, each with probability `decorate` (decoration dicts hold
    nonzero entries only)."""
    nv = rng.randrange(2, max_vertices + 1)
    vertices = [f"v{i}" for i in range(nv)]
    flags, involution, boundary, orientation = [], {}, {}, {}
    for e in range(rng.randrange(1, max_edges + 1)):
        a, b = rng.randrange(nv), rng.randrange(nv)
        fa, fb = f"e{e}a", f"e{e}b"
        flags += [fa, fb]
        involution[fa], involution[fb] = fb, fa
        boundary[fa], boundary[fb] = vertices[a], vertices[b]
        orientation[fa], orientation[fb] = rng.sample(("in", "out"), 2)
    for t in range(rng.randrange(0, 3)):
        f = f"t{t}"
        flags.append(f)
        involution[f] = f
        boundary[f] = vertices[rng.randrange(nv)]
        orientation[f] = rng.choice(("in", "out"))
    tails = [f for f in flags if involution[f] == f]
    labels = ({f: str(i) for i, f in enumerate(tails) if rng.random() < 0.7}
              if rng.random() < decorate else {})
    genus = ({v: rng.randrange(1, 3) for v in vertices if rng.random() < 0.3}
             if rng.random() < decorate else {})
    gamma = ({v: rng.randrange(1, 3) for v in vertices if rng.random() < 0.3}
             if rng.random() < decorate else None)
    return Graph(vertices, flags, involution, boundary, genus=genus,
                 gamma=gamma, labels=labels,
                 orientation=orientation if rng.random() < decorate else None)


def _relabel(g, rng):
    vs = list(g.vertices)
    fs = list(g.flags)
    vmap = dict(zip(vs, rng.sample([f"w{i}" for i in range(len(vs))], len(vs))))
    fmap = dict(zip(fs, rng.sample([f"h{i}" for i in range(len(fs))], len(fs))))
    return Graph([vmap[v] for v in vs], [fmap[f] for f in fs],
                 {fmap[f]: fmap[p] for f, p in g.involution.items()},
                 {fmap[f]: vmap[v] for f, v in g.boundary.items()},
                 genus={vmap[v]: k for v, k in g.genus.items()},
                 gamma=({vmap[v]: k for v, k in g.gamma.items()}
                        if g.gamma is not None else None),
                 orientation=({fmap[f]: o for f, o in g.orientation.items()}
                              if g.orientation is not None else None),
                 labels={fmap[f]: l for f, l in g.labels.items()})


def test_canonical_form_random_relabelings():
    rng = random.Random(99)
    for trial in range(10):
        g = _random_graph(rng)
        keys = set()
        for _ in range(10):
            keys.add(canonical_form(_relabel(g, rng))[0].canonical_key())
        assert len(keys) == 1


def _brute_isomorphic(g1, g2):
    """Permutation-search isomorphism oracle, independent of canonical_form."""
    if (len(g1.vertices) != len(g2.vertices)
            or len(g1.flags) != len(g2.flags)
            or (g1.gamma is None) != (g2.gamma is None)
            or (g1.orientation is None) != (g2.orientation is None)):
        return False
    orient1, orient2 = g1.orientation or {}, g2.orientation or {}
    for vperm in itertools.permutations(g2.vertices):
        vmap = dict(zip(g1.vertices, vperm))
        if any(g1.g_of(v) != g2.g_of(vmap[v])
               or g1.gamma_of(v) != g2.gamma_of(vmap[v]) for v in g1.vertices):
            continue
        flag_pools = {}
        ok = True
        for v in g1.vertices:
            src = sorted(g1.vertex_flags(v))
            dst = sorted(g2.vertex_flags(vmap[v]))
            if len(src) != len(dst):
                ok = False
                break
            flag_pools[v] = (src, dst)
        if not ok:
            continue
        pools = [[dict(zip(flag_pools[v][0], p))
                  for p in itertools.permutations(flag_pools[v][1])]
                 for v in g1.vertices]
        for choice in itertools.product(*pools):
            fmap = {}
            for d in choice:
                fmap.update(d)
            if all(fmap[g1.involution[f]] == g2.involution[fmap[f]]
                   and g1.labels.get(f, "") == g2.labels.get(fmap[f], "")
                   and orient1.get(f) == orient2.get(fmap[f])
                   for f in g1.flags):
                return True
    return False


def test_canonical_form_agrees_with_brute_force_oracle():
    rng = random.Random(41)
    graphs = [_random_graph(rng) for _ in range(8)]
    for g1, g2 in itertools.combinations(graphs, 2):
        if len(g1.flags) > 8 or len(g2.flags) > 8:
            continue
        same = canonical_form(g1)[0] == canonical_form(g2)[0]
        assert same == _brute_isomorphic(g1, g2)
    for g in graphs:
        assert _brute_isomorphic(g, canonical_form(g)[0])


# -- automorphisms ------------------------------------------------------------

def test_automorphisms():
    labeled = corolla("v", ["a", "b"], labels={"a": "1", "b": "2"})
    assert len(automorphisms(labeled)) == 1
    assert len(automorphisms(theta())) == 12
    assert len(automorphisms(loop_graph())) == 2


def test_automorphisms_closed_under_composition():
    auts = automorphisms(theta())
    table = {tuple(sorted(f.items())) for _, f in auts}
    for _, f1 in auts:
        for _, f2 in auts:
            comp = {k: f1[v] for k, v in f2.items()}
            assert tuple(sorted(comp.items())) in table


def _nx_model(nx, g):
    """Vertices and flags as nodes carrying their decorations; boundary and
    involution as edges.  Its isomorphisms are exactly those of g."""
    m = nx.Graph()
    for v in g.vertices:
        m.add_node(("v", v), genus=g.g_of(v),
                   gamma=None if g.gamma is None else g.gamma_of(v))
    for f in g.flags:
        m.add_node(("f", f), orientation=(g.orientation or {}).get(f),
                   label=g.labels.get(f))
        m.add_edge(("f", f), ("v", g.boundary[f]), kind="boundary")
        if g.involution[f] != f:
            m.add_edge(("f", f), ("f", g.involution[f]), kind="involution")
    return m


def _redecorations(g, rng):
    """Copies of g that keep its structure and change one decoration each:
    a genus, a gamma, the orientation of one flag and its partner, or the
    labels of two tails."""
    def copy(genus=g.genus, gamma=g.gamma, orientation=g.orientation,
             labels=g.labels):
        return Graph(g.vertices, g.flags, g.involution, g.boundary,
                     genus=genus, gamma=gamma, orientation=orientation,
                     labels=labels)

    v, f = rng.choice(g.vertices), rng.choice(g.flags)
    out = [copy(genus={**g.genus, v: g.g_of(v) + 1})]
    if g.gamma is not None:
        out.append(copy(gamma={**g.gamma, v: g.gamma_of(v) + 1}))
    if g.orientation is not None:
        flip = {"in": "out", "out": "in"}
        out.append(copy(orientation={
            **g.orientation,
            **{h: flip[g.orientation[h]] for h in (f, g.involution[f])}}))
    if len(g.labels) > 1:
        a, b = rng.sample(sorted(g.labels), 2)
        out.append(copy(labels={**g.labels, a: g.labels[b], b: g.labels[a]}))
    return out


def test_search_agrees_with_networkx_model():
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher

    def matcher(m1, m2):
        return GraphMatcher(m1, m2, node_match=lambda a, b: a == b,
                            edge_match=lambda a, b: a == b)

    rng = random.Random(5543)
    # small decorated graphs, copies that differ from them in one
    # decoration only, and relabelled copies of both
    graphs = [_random_graph(rng, 3, 3, decorate=0.6) for _ in range(40)]
    graphs += [h for g in graphs for h in _redecorations(g, rng)]
    graphs += [_relabel(g, rng) for g in graphs]
    models = [_nx_model(nx, g) for g in graphs]
    for g, m in zip(graphs, models):
        assert len(automorphisms(g)) == sum(
            1 for _ in matcher(m, m).isomorphisms_iter())
    sizes: dict = {}
    for i, g in enumerate(graphs):
        sizes.setdefault((len(g.vertices), len(g.flags)), []).append(i)
    isomorphic_pairs = 0
    for same_size in sizes.values():
        for i, j in itertools.combinations(same_size, 2):
            same = matcher(models[i], models[j]).is_isomorphic()
            assert (canonical_form(graphs[i])[0]
                    == canonical_form(graphs[j])[0]) == same
            assert (graphs[i].canonical_key()
                    == graphs[j].canonical_key()) == same
            isomorphic_pairs += same
    assert isomorphic_pairs >= len(graphs) // 2


@settings(deadline=None, max_examples=60)
@given(st.randoms(use_true_random=False))
def test_automorphisms_preserve_structure_and_survive_relabelling(rng):
    g = _random_graph(rng, 4, 4)
    auts = automorphisms(g)
    distinct = {(tuple(v.items()), tuple(f.items())) for v, f in auts}
    assert len(distinct) == len(auts)
    for vmap, fmap in auts:
        assert sorted(vmap) == sorted(vmap.values()) == list(g.vertices)
        assert sorted(fmap) == sorted(fmap.values()) == list(g.flags)
        for v in g.vertices:
            assert g.g_of(vmap[v]) == g.g_of(v)
            assert g.gamma_of(vmap[v]) == g.gamma_of(v)
        for f in g.flags:
            assert fmap[g.involution[f]] == g.involution[fmap[f]]
            assert g.boundary[fmap[f]] == vmap[g.boundary[f]]
            assert g.labels.get(fmap[f]) == g.labels.get(f)
            if g.orientation is not None:
                assert g.orientation[fmap[f]] == g.orientation[f]
    assert len(automorphisms(_relabel(g, rng))) == len(auts)


# -- the pruned search against trying every flag order --------------------------

@st.composite
def _small_graphs(draw):
    """At most three vertices and four edges, loops and multi-edges
    included; tails labelled or not; an orientation, a genus and a gamma
    each maybe; flags named in a random order, so the runs' candidate
    order varies."""
    nv = draw(st.integers(1, 3))
    vertex = st.integers(0, nv - 1)
    ends = draw(st.lists(st.tuples(vertex, vertex), max_size=4))
    tails = draw(st.lists(st.tuples(vertex, st.booleans()), max_size=3))
    names = draw(st.permutations(range(2 * len(ends) + len(tails))))
    flags = [f"h{k}" for k in names]
    involution, boundary, orientation, labels = {}, {}, {}, {}
    for e, (a, b) in enumerate(ends):
        fa, fb = flags[2 * e], flags[2 * e + 1]
        involution[fa], involution[fb] = fb, fa
        boundary[fa], boundary[fb] = f"v{a}", f"v{b}"
        orientation[fa], orientation[fb] = draw(
            st.sampled_from((("in", "out"), ("out", "in"))))
    for t, (v, labelled) in enumerate(tails):
        f = flags[2 * len(ends) + t]
        involution[f], boundary[f] = f, f"v{v}"
        orientation[f] = draw(st.sampled_from(("in", "out")))
        if labelled:
            labels[f] = str(t)
    vertices = [f"v{i}" for i in range(nv)]
    label = st.lists(st.integers(0, 2), min_size=nv, max_size=nv)
    genus = dict(zip(vertices, draw(label)))
    gamma = dict(zip(vertices, draw(label))) if draw(st.booleans()) else None
    return Graph(vertices, flags, involution, boundary, genus=genus,
                 gamma=gamma, labels=labels,
                 orientation=orientation if draw(st.booleans()) else None)


def _assert_search_matches_brute_force(g):
    vorder, forder, code, ties = G._search(g)[:4]
    want = brute_search(g)
    assert (vorder, forder, code) == want[:3]
    assert ties == want[3]  # the same orderings, in the same order


@settings(deadline=None, max_examples=200)
@given(_small_graphs())
def test_search_matches_brute_force_oracle(g):
    _assert_search_matches_brute_force(g)


@pytest.mark.parametrize("k", range(1, 5))
def test_search_matches_brute_force_on_roses_and_bananas(k):
    _assert_search_matches_brute_force(Graph.from_json(_one_vertex_graph(k)))
    _assert_search_matches_brute_force(Graph.from_json(_banana(k)))


def _multigraph(edges, tails=(), bare=(), genus=None, directed=False):
    """`Graph.from_json` data: edges (a, b), from a to b when directed,
    unlabelled tails (vertex, orientation), flagless vertices `bare` and a
    genus per vertex.  Edge i joins a{i} to b{n - 1 - i}, so the order of
    a run and that of its partners' differ."""
    flags, pairs = [], []
    for i, (a, b) in enumerate(edges):
        fa, fb = f"a{i}", f"b{len(edges) - 1 - i}"
        flags += [{"id": fa, "vertex": a, "orientation": "out"},
                  {"id": fb, "vertex": b, "orientation": "in"}]
        pairs.append([fa, fb])
    flags += [{"id": f"t{i}", "vertex": v, "orientation": o}
              for i, (v, o) in enumerate(tails)]
    if not directed:
        flags = [{k: x for k, x in f.items() if k != "orientation"}
                 for f in flags]
    vertices = sorted({f["vertex"] for f in flags} | set(bare))
    return {"vertices": [{"id": v, "genus": (genus or {}).get(v, 0)}
                         for v in vertices],
            "flags": flags, "edges": pairs}


@pytest.mark.parametrize("graph", [
    # a directed rose: its in run opens the loops, its out run closes them
    *(_multigraph([("v", "v")] * k, directed=True) for k in (1, 2, 3)),
    # directed edges both ways: two opener runs at x, each closed at y
    _multigraph([("x", "y"), ("x", "y"), ("y", "x")], directed=True),
    # a tail run beside loop runs, directed and not
    _multigraph([("v", "v")] * 2, [("v", "in"), ("v", "in")], directed=True),
    _multigraph([("v", "v")] * 2, [("v", "in"), ("v", "in")]),
    # flagless vertices of one genus: their orders share one record
    _multigraph([("x", "y")] * 3, bare=["z0", "z1"],
                genus={"z0": 1, "z1": 1}),
    # a loop beside a parallel pair at one vertex, undirected and directed
    _multigraph([("x", "x"), ("x", "y"), ("x", "y")]),
    _multigraph([("x", "x"), ("x", "y"), ("y", "x")], directed=True),
], ids=["directed-rose-1", "directed-rose-2", "directed-rose-3",
        "both-ways", "directed-rose-tails", "rose-tails", "banana-bare",
        "loop-and-pair", "directed-loop-and-pair"])
def test_search_matches_brute_force_on_each_run_shape(graph):
    _assert_search_matches_brute_force(Graph.from_json(graph))


def _one_vertex_graph(loops):
    flags = [f"f{i}" for i in range(2 * loops)]
    return {"vertices": [{"id": "v"}],
            "flags": [{"id": f, "vertex": "v"} for f in flags],
            "edges": [flags[i:i + 2] for i in range(0, 2 * loops, 2)]}


def _banana(edges):
    flags = [{"id": f"{side}{i}", "vertex": side}
             for i in range(edges) for side in ("x", "y")]
    return {"vertices": [{"id": "x"}, {"id": "y"}], "flags": flags,
            "edges": [[f"x{i}", f"y{i}"] for i in range(edges)]}


@pytest.mark.parametrize("graph, order", [
    (_one_vertex_graph(5), 2 ** 5 * 120),  # trying every order: 10! orders
    (_banana(6), 2 * 720),                 # and 2 * 6! * 6!
    (_banana(7), 2 * 5040),                # and 2 * 7! * 7!
])
def test_search_past_brute_force_reach(graph, order):
    rng = random.Random(order)
    start = time.perf_counter()
    g = Graph.from_json(graph)
    a, b = (canonical_form(_relabel(g, rng))[0] for _ in range(2))
    assert a == b
    assert len(automorphisms(g)) == order
    assert time.perf_counter() - start < 1.0


def test_one_vertex_refinement_per_search(monkeypatch):
    # the search keeps its refined classes; `automorphisms` and the
    # canonical graph read them instead of refining again
    calls = {"refine": 0, "search": 0}
    refine, search = G._refined_classes, G._search

    def counting(name, fn):
        def wrapper(g):
            calls[name] += 1
            return fn(g)
        return wrapper

    monkeypatch.setattr(G, "_refined_classes", counting("refine", refine))
    monkeypatch.setattr(G, "_search", counting("search", search))
    found = enumerate_graphs("stable-graph",
                             {"labels": ["1", "2"], "genus": 1}, 3)
    rng = random.Random(7)
    for g in found:
        automorphisms(g)
        automorphisms(canonical_form(_relabel(g, rng))[0])
    assert calls["search"] > len(found)
    assert calls["refine"] == calls["search"]
    for g in found:  # canonical forms: the handed-down classes are theirs
        assert g._canon[4] == refine(g)


# -- enumeration --------------------------------------------------------------

def test_enumerate_stable_04():
    res = enumerate_graphs("stable-graph",
                           {"labels": ["1", "2", "3", "4"], "genus": 0}, 1)
    assert len(res) == 4
    shapes = sorted(len(g.vertices) for g in res)
    assert shapes == [1, 2, 2, 2]


def test_enumerate_zero_edges_gives_corolla():
    res = enumerate_graphs("stable-graph",
                           {"labels": ["1", "2", "3"], "genus": 0}, 0)
    assert len(res) == 1 and len(res[0].vertices) == 1


def _count_rooted_trees_oracle(n_leaves, max_edges, min_arity=1):
    """Recursive enumeration of rooted trees with labeled leaves.

    Counts isomorphism classes of rooted trees with the given labeled
    leaves, every internal vertex of arity >= min_arity, and at most
    max_edges internal edges.
    """

    def trees(leaves, edges_left):
        # a tree is either a single leaf (no vertex) or a root vertex with
        # a set partition of the leaves into >= min_arity child subtrees
        out = set()
        out.add(("leaf", leaves[0]) if len(leaves) == 1 else None)
        out.discard(None)
        if len(leaves) >= 1:
            for parts in _set_partitions(leaves):
                if len(parts) < min_arity:
                    continue
                child_sets = []
                for part in parts:
                    opts = set()
                    if len(part) == 1:
                        opts.add(("leaf", part[0]))
                    if edges_left > 0:
                        opts |= {t for t in trees(part, edges_left - 1)
                                 if t[0] != "leaf"}
                    child_sets.append(sorted(opts))
                for combo in itertools.product(*child_sets):
                    used = sum(1 for t in combo if t[0] != "leaf")
                    if used <= edges_left:
                        out.add(("node", tuple(sorted(combo))))
        return out

    return len([t for t in trees(tuple(sorted(str(i) for i in range(1, n_leaves + 1))), max_edges)
                if t[0] == "node"])


def _set_partitions(items):
    items = list(items)
    if len(items) == 1:
        yield [tuple(items)]
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [tuple(sorted((first,) + part[i]))] + part[i + 1:]
        yield [(first,)] + part


def test_enumerate_rooted_trees_vs_recursive_oracle():
    # in-arity >= 1: with 2 leaves and at most 1 edge, valence 2 or 3
    for max_edges in (0, 1):
        got = enumerate_graphs(
            "rooted-tree",
            {"in_labels": ["1", "2"], "out_labels": ["r"]}, max_edges,
            vertex_types={(0, 2), (0, 3)})
        assert len(got) == _count_rooted_trees_oracle(2, max_edges)


def _oracle_signatures(cls, n_tails):
    """The signatures the insertion enumerator is checked on: every tail
    split for directed classes, and genus or gamma 0-2 where a class reads
    one (gamma on the classes the nc construction uses)."""
    if cls.startswith("directed") or "rooted" in cls:
        return [{"in_labels": [str(i) for i in range(n_in)],
                 "out_labels": [f"o{j}" for j in range(n_tails - n_in)]}
                for n_in in range(n_tails + 1)]
    labels = {"labels": [str(i) for i in range(n_tails)]}
    sigs = [] if cls == "stable-graph" else [labels]
    if cls in ("stable-graph", "connected-graph"):
        sigs += [{**labels, "genus": g} for g in range(3)]
    if cls in ("nc-stable-graph", "graph"):
        sigs += [{**labels, "gamma": g} for g in range(3)]
    return sigs


@pytest.mark.parametrize("cls", GRAPH_CLASSES)
def test_enumerate_matches_brute_force_class_by_class(cls):
    # the oracle's cost grows with the vertices a flagless-vertex or
    # orientation choice allows
    n_max = 2 if cls.startswith("directed") or "graph" in cls else 3
    for n in range(n_max + 1):
        for sig in _oracle_signatures(cls, n):
            for e in range(3):
                fast = [g.to_json() for g in enumerate_graphs(cls, sig, e)]
                slow = [g.to_json() for g in
                        brute_enumerate_graphs(cls, sig, e)]
                assert fast == slow, (sig, e)


@pytest.mark.parametrize("cls, sig, types, max_edges", [
    ("graph", {"labels": ["1", "2", "3"], "gamma": 1}, {(0, 3), (1, 1)}, 2),
    ("graph", {"labels": ["1", "2"], "gamma": 2}, {(0, 3), (1, 1), (1, 0)},
     2),
    ("graph", {"labels": ["1", "2"], "gamma": 1}, {(0, 3)}, 3),
    ("connected-graph", {"labels": ["1", "2"], "genus": 1},
     {(0, 3), (1, 1)}, 2),
    # the seed (1,2) needs two insertions under {(0,3)}: a loop, then a split
    ("connected-graph", {"labels": ["1", "2"], "genus": 1}, {(0, 3)}, 3),
    ("connected-graph", {"labels": [], "genus": 2}, {(0, 3), (2, 0)}, 3),
    ("rooted-tree", {"in_labels": ["1", "2", "3"], "out_labels": ["r"]},
     {(0, 3), (0, 4)}, 2),
    ("forest", {"labels": ["1", "2", "3"]}, {(0, 1), (0, 3), (0, 0)}, 2),
    ("graph", {"labels": ["1"]}, {(0, 3), (0, 0)}, 2),
])
def test_enumerate_vertex_types_match_brute_force(cls, sig, types, max_edges):
    fast = [g.to_json() for g in enumerate_graphs(cls, sig, max_edges, types)]
    slow = [g.to_json()
            for g in brute_enumerate_graphs(cls, sig, max_edges, types)]
    assert fast and fast == slow


def _brute_enumerate_oracle(labels, genus, max_edges):
    """Quotient all boundary/involution tables by brute-force isomorphism."""
    reps = []
    for k in range(max_edges + 1):
        flags = list(labels) + [f"e{i}{c}" for i in range(k) for c in "ab"]
        if len(flags) > 8:
            continue
        pair_sets = [[(f"e{i}a", f"e{i}b") for i in range(k)]]
        for nv in range(1, k + 2):
            for bnd in itertools.product(range(nv), repeat=len(flags)):
                if set(bnd) != set(range(nv)):
                    continue
                inv = {f: f for f in labels}
                for a, b in pair_sets[0]:
                    inv[a], inv[b] = b, a
                for extra in (e for d in range(genus + 1)
                              for e in _distribute(d, nv)):
                    try:
                        g = Graph([f"v{i}" for i in range(nv)], flags, inv,
                                  {f: f"v{i}" for f, i in zip(flags, bnd)},
                                  genus={f"v{i}": d for i, d in enumerate(extra) if d},
                                  labels={l: l for l in labels})
                    except ValueError:
                        continue
                    if not g.is_connected():
                        continue
                    if total_genus(g) != genus:
                        continue
                    if not classify(g, "stable-graph"):
                        continue
                    if not any(_brute_isomorphic(g, r) for r in reps):
                        reps.append(g)
    return reps


def _distribute(total, parts):
    if parts == 0:
        if total == 0:
            yield ()
        return
    for x in range(total + 1):
        for rest in _distribute(total - x, parts - 1):
            yield (x,) + rest


def test_enumerate_agrees_with_brute_force():
    for labels, genus, k in [(["1", "2", "3"], 0, 1), (["1"], 1, 1),
                             (["1", "2"], 1, 1)]:
        fast = enumerate_graphs("stable-graph",
                                {"labels": labels, "genus": genus}, k)
        slow = _brute_enumerate_oracle(labels, genus, k)
        assert len(fast) == len(slow)


def test_enumeration_deterministic():
    a = enumerate_graphs("stable-graph", {"labels": ["1", "2", "3"], "genus": 1}, 2)
    b = enumerate_graphs("stable-graph", {"labels": ["1", "2", "3"], "genus": 1}, 2)
    assert [g.canonical_key() for g in a] == [g.canonical_key() for g in b]


def test_each_enumerated_class_is_searched_once(monkeypatch):
    # `canonical_form` hands the canonical graph the search that built it:
    # a kept graph's key, canonical form and automorphisms, and the blocks
    # of a free construction on it, run no second search.  Six tails and
    # three edges make twelve flags, so "f10" sorts before "f2".
    from opforge.transform import free_construct, trivial_modular_generator

    searched = []
    search = G._search

    def counted(g):
        searched.append(g)
        return search(g)

    monkeypatch.setattr(G, "_search", counted)
    kept = enumerate_graphs("stable-graph",
                            {"labels": [f"p{i}" for i in range(6)],
                             "genus": 0}, 3)
    assert max(len(g.flags) for g in kept) == 12
    fresh = [Graph(g.vertices, g.flags, g.involution, g.boundary,
                   genus=g.genus, labels=g.labels) for g in kept]
    searched.clear()
    for g in kept:
        canon, relabel = canonical_form(g)
        assert canon == g and set(relabel["flags"].items()) == {
            (f, f) for f in g.flags}
        assert automorphisms(g) and g.canonical_key()
    assert not searched
    for g, h in zip(kept, fresh):
        assert automorphisms(g) == automorphisms(h)
        assert g.canonical_key() == h.canonical_key()
    free = free_construct(trivial_modular_generator([(0, 3), (1, 1)]),
                          "modular", "K", 2)
    searched.clear()
    blocks = free.blocks((1, 2))
    assert len(blocks) > 1
    assert not [g for g in searched if any(g is b.graph for b in blocks)]


# -- the last-edge test -------------------------------------------------------

def _every_candidate():
    """The last-edge test switched off: every insertion candidate is kept."""
    return mock.patch.object(G._Insertions, "_last",
                             lambda self, *candidate: True)


def _same_with_every_candidate(cls, sig, max_edges, types=None):
    fast = [g.to_json() for g in enumerate_graphs(cls, sig, max_edges, types)]
    with _every_candidate():
        full = [g.to_json()
                for g in enumerate_graphs(cls, sig, max_edges, types)]
    assert fast == full, (cls, sig, max_edges, types)


@pytest.mark.parametrize("cls", GRAPH_CLASSES)
def test_last_edge_test_loses_no_class(cls):
    # every signature the insertion enumerator is checked on, and
    # `stable-graph` without a genus, at one more edge: `run` uses the test
    # in every class, closed under contraction or not; `graph` with a gamma
    # is checked with no tail at gamma 0-2 and one tail at gamma 0-1, and
    # left out with one tail at gamma 2 and with two or three tails (one
    # tail at gamma 2 alone takes 5 s, two tails at gamma 0 another 5 s)
    directed = cls.startswith("directed") or "rooted" in cls
    checked = 0
    for n in range(3 if directed else 4):
        sigs = _oracle_signatures(cls, n)
        if cls == "stable-graph":
            sigs.append({"labels": [str(i) for i in range(n)]})
        for sig in sigs:
            if not (cls == "graph" and "gamma" in sig
                    and (n > 1 or sig["gamma"] + n > 2)):
                _same_with_every_candidate(cls, sig, 3)
                checked += 1
    assert checked


def test_last_edge_test_on_larger_stable_windows_and_free_blocks():
    from opforge.transform import free_construct, trivial_modular_generator

    for genus, n, max_edges in ((1, 4, 4), (0, 6, 3), (2, 1, 3)):
        _same_with_every_candidate(
            "stable-graph", {"labels": [str(i + 1) for i in range(n)],
                             "genus": genus}, max_edges)
    for gamma in (1, 2):
        _same_with_every_candidate(
            "nc-stable-graph", {"labels": ["1", "2"], "gamma": gamma}, 3)
    free = free_construct(trivial_modular_generator([(0, 3), (1, 1)]),
                          "modular", "K", 3)
    for idx in ((0, 3), (0, 5), (1, 2), (2, 0)):
        cls, sig, types = free._graph_class(idx)
        assert cls == "connected-graph" and types
        _same_with_every_candidate(cls, sig, free.max_edges, types)


def test_the_switch_reaches_the_last_edge_test():
    # a test that drops every candidate past the seeds loses classes, so a
    # switch that did not reach it would compare a run with itself
    with mock.patch.object(G._Insertions, "_last",
                           lambda self, *candidate: False):
        with pytest.raises(AssertionError):
            _same_with_every_candidate(
                "stable-graph", {"labels": ["1", "2"], "genus": 1}, 2)


def test_last_edge_test_drops_candidates_before_their_search():
    seen = []
    last = G._Insertions._last

    def counted(self, *candidate):
        seen.append(last(self, *candidate))
        return seen[-1]

    with mock.patch.object(G._Insertions, "_last", counted):
        found = enumerate_graphs("stable-graph",
                                 {"labels": ["1", "2", "3", "4"], "genus": 1},
                                 4)
    assert len(found) == 163
    assert seen.count(False) > len(found)


def _check_every_candidate(cls, sig, max_edges, types=None):
    """Build every insertion candidate, dropped ones too, and check on the
    built graph the vertex invariants it was handed and the last-edge
    decision taken before it was built.  Returns the decisions."""
    last, insertions = G._Insertions._last, G._Insertions._insertions
    pending, decisions = [], []

    def deciding(self, *candidate):
        pending.append(last(self, *candidate))
        return True

    def checking(self, level, left):
        for h, new in insertions(self, level, left):
            assert h._vinv == {v: G._vertex_invariant(h, v)
                               for v in h.vertices}
            decisions.append(pending.pop())
            assert decisions[-1] == last_edge(h, new, self.directed)
            yield h, new

    with mock.patch.object(G._Insertions, "_last", deciding), \
            mock.patch.object(G._Insertions, "_insertions", checking):
        enumerate_graphs(cls, sig, max_edges, types)
    assert not pending
    return decisions


def test_handed_down_invariants_and_early_decisions_match_the_built_graph():
    from opforge.transform import free_construct, trivial_modular_generator

    free = free_construct(trivial_modular_generator([(0, 3), (1, 1)]),
                          "modular", "K", 3)
    cls, sig, types = free._graph_class((1, 2))
    windows = [
        ("stable-graph", {"labels": ["1", "2", "3", "4"], "genus": 1}, 4),
        ("stable-graph", {"labels": [str(i + 1) for i in range(6)],
                          "genus": 0}, 3),
        ("directed-connected-wheeled",
         {"in_labels": ["1"], "out_labels": ["o0"]}, 3),
        ("nc-stable-graph", {"labels": ["1", "2"], "gamma": 2}, 3),
        (cls, sig, free.max_edges, types)]
    for window in windows:
        assert set(_check_every_candidate(*window)) == {True, False}, window


def test_each_candidate_is_built_to_be_searched_once_per_vertex_invariant():
    # no machine dependence: a candidate is built only when it will be
    # searched, and a vertex invariant is worked out once, on the one seed
    graph, key, invariant = (G._Insertions._graph, Graph.canonical_key,
                             G._vertex_invariant)
    built, keyed, held, evaluated = [], {}, [], {}

    def building(self, *args):
        built.append(graph(self, *args))
        return built[-1]

    def keying(g):
        keyed[id(g)] = g  # keeps ids from being reused
        return key(g)

    def evaluating(g, v):
        held.append(g)  # keeps ids from being reused
        evaluated[id(g), v] = evaluated.get((id(g), v), 0) + 1
        return invariant(g, v)

    with mock.patch.object(G._Insertions, "_graph", building), \
            mock.patch.object(Graph, "canonical_key", keying), \
            mock.patch.object(G, "_vertex_invariant", evaluating):
        found = enumerate_graphs(
            "stable-graph", {"labels": ["1", "2", "3", "4"], "genus": 1}, 4)
    assert len(found) == 163
    assert len(built) > len(found)
    assert [id(h) in keyed for h in built] == [True] * len(built)
    assert max(evaluated.values()) == 1
    # only on the seed: every other graph is handed its invariants
    assert len({g for g, _ in evaluated}) == 1


def test_stable_windows_match_brute_force_at_three_edges():
    for labels, genus in (([], 2), (["1", "2", "3"], 1)):
        sig = {"labels": labels, "genus": genus}
        fast = [g.to_json() for g in enumerate_graphs("stable-graph", sig, 3)]
        assert fast == [g.to_json() for g in
                        brute_enumerate_graphs("stable-graph", sig, 3)]
        assert len(fast) == {2: 7, 1: 23}[genus]
    # the labelled trees with 6 leaves and internal vertices of valence at
    # least 3: 236, Schroeder's fourth problem
    assert len(enumerate_graphs(
        "stable-graph", {"labels": [str(i) for i in range(6)], "genus": 0},
        3)) == 236


# -- serialization ------------------------------------------------------------

def graph_to_bytes(g: Graph) -> bytes:
    """Canonical JSON serialization, sorted arrays, stable bytes."""
    canon, _ = canonical_form(g)
    return json.dumps(canon.to_json(), sort_keys=True,
                      separators=(",", ":")).encode()


def test_json_roundtrip():
    g = theta()
    data = g.to_json()
    h = Graph.from_json(json.loads(json.dumps(data)))
    assert canonical_form(g)[0] == canonical_form(h)[0]
    assert graph_to_bytes(g) == graph_to_bytes(h)
