import itertools
import math

import pytest

from opforge import graphs as G
from opforge.errors import InputError
from opforge.gradedlin import (ONE, ZERO, Span, all_perms, coords_in_span,
                               perm_sign, rref, wedge_reorder_sign)
from opforge.twists import (COBOUNDARIES, Coboundary, CoboundaryData,
                            contract_blocks, parse_twist, standard_twist,
                            tower_consistent, verify_isomorphism)


def theta():
    return G.Graph(["a", "b"], ["f1", "f2", "f3", "g1", "g2", "g3"],
                   {"f1": "g1", "g1": "f1", "f2": "g2", "g2": "f2",
                    "f3": "g3", "g3": "f3"},
                   {"f1": "a", "f2": "a", "f3": "a",
                    "g1": "b", "g2": "b", "g3": "b"})


def loop_with_tails(n=2, genus=0):
    flags = ["s", "t"] + [f"x{i}" for i in range(n)]
    inv = {"s": "t", "t": "s"}
    inv.update({f"x{i}": f"x{i}" for i in range(n)})
    return G.Graph(["v"], flags, inv, {f: "v" for f in flags},
                   genus={"v": genus} if genus else {},
                   labels={f"x{i}": str(i + 1) for i in range(n)})


def all_chars(cocycle, graph):
    line = cocycle.line(graph)
    return sorted({line.char(v, f) for v, f in G.automorphisms(graph)})


# -- standard evaluations -------------------------------------------------------

def test_edge_determinant():
    K = standard_twist("K")
    assert K.line(theta()).degree == -3
    assert all_chars(K, theta()) == [-1, 1]
    corolla = G.corolla("v", ["1", "2"], labels={"1": "1", "2": "2"})
    assert K.line(corolla).degree == 0
    assert all_chars(K, corolla) == [1]


def test_k_squared_trivial_character():
    K = standard_twist("K")
    KK = K * K
    assert KK.line(theta()).degree == -6
    assert all_chars(KK, theta()) == [1]


def test_k_times_inverse_trivial():
    K = standard_twist("K")
    expr = K * K.inverse()
    assert expr.line(theta()).degree == 0
    assert all_chars(expr, theta()) == [1]


def test_orientation_twist_flip_sign():
    T = standard_twist("T")
    loop = loop_with_tails()
    line = T.line(loop)
    assert line.degree == -1
    flips = [line.char(v, f) for v, f in G.automorphisms(loop)
             if any(f[k] != k for k in f)]
    assert -1 in flips  # the loop swap acts by -1 on its orientation line


def test_cycle_determinant():
    Det = standard_twist("DetH1")
    assert Det.line(theta()).degree == -2
    tree = G.graft(G.corolla("u", ["a", "c"]), "c",
                   G.corolla("w", ["d", "e"]), "d")
    assert Det.line(tree).degree == 0
    assert all_chars(Det, tree) == [1]


def test_flags_over_tails():
    L = standard_twist("L")
    assert L.line(theta()).degree == -6


# -- coboundaries ----------------------------------------------------------------

def test_coboundary_trivial_on_corolla():
    corolla = G.corolla("v", ["1", "2", "3"],
                        labels={"1": "1", "2": "2", "3": "3"})
    for name in ("s", "st", "Sigma"):
        line = Coboundary(COBOUNDARIES[name]()).line(corolla)
        deg, char = line.degree, line.char
        assert deg == 0
        for vm, fm in G.automorphisms(corolla):
            assert char(vm, fm) == 1


def test_suspension_line_value_on_star():
    # the underlying line on a single ((n))-vertex of genus g has degree
    # -2(g-1) - n with the sign character; the coboundary divides it out
    from opforge.twists import suspension_coboundary, _vertex_genus
    data = suspension_coboundary()
    star = G.corolla("v", ["1", "2", "3"], genus=1)
    gens = data.gens(star, "v")
    shift = data.shift(star, "v")
    assert sum(d for _, d in gens) + shift == -2 * (1 - 1) - 3


def test_sigma_coboundary_tree_degree():
    # n-vertex tree of genus 0: degree 1 - n
    DSig = parse_twist("D[Sigma]")
    g1 = G.corolla("u", ["a", "b", "c"])
    assert DSig.line(g1).degree == 0
    two = G.graft(G.corolla("u", ["a", "b", "c"]), "c",
                  G.corolla("w", ["d", "e"]), "d")
    assert DSig.line(two).degree == 1 - 2


def _rose_and_banana():
    rose = G.Graph(["v"], [f"h{i}" for i in range(8)],
                   {f"h{i}": f"h{i ^ 1}" for i in range(8)},
                   {f"h{i}": "v" for i in range(8)})
    # the banana's flags interleave at its vertices, so the sign of the
    # word against its sorted copy is -1 for D[s] and D[st]
    flags = [f"h{i}" for i in range(10)]
    banana = G.Graph(["a", "b"], flags,
                     {f: flags[i ^ 1] for i, f in enumerate(flags)},
                     {f: "ba"[i % 2] for i, f in enumerate(flags)})
    return rose, banana


def _char_by_the_first_formula(cocycle, graph, vmap, fmap):
    """A coboundary's character as first written: both signs worked out
    again for each automorphism."""
    outer, per_vertex = cocycle._words(graph)
    word = [n for n, _ in outer] + [n for w in per_vertex for n, _ in w]

    def move(name):
        tag, x = name
        if tag == "t" or tag == "f":
            return (tag, fmap[x])
        if tag == "z" and x != "*total*":
            return (tag, vmap[x])
        return name

    image = [move(n) for n in word]
    return wedge_reorder_sign(image, sorted(word, key=repr)) * \
        wedge_reorder_sign(list(word), sorted(word, key=repr))


@pytest.mark.parametrize("name", ["s", "st", "Sigma"])
def test_coboundary_character_matches_the_first_formula(name):
    cocycle = Coboundary(COBOUNDARIES[name]())
    for graph in _rose_and_banana():
        line = cocycle.line(graph)
        auts = G.automorphisms(graph)
        assert len(auts) in (384, 240)
        assert [line.char(*a) for a in auts] == [
            _char_by_the_first_formula(cocycle, graph, *a) for a in auts]


def test_d_s_squared_trivial():
    Ds = parse_twist("D[s]")
    rep = verify_isomorphism(Ds * Ds, standard_twist("1"), "stable-graph",
                             3, max_tails=4)
    assert rep.ok


# -- relations -------------------------------------------------------------------

K = standard_twist("K")
T = standard_twist("T")
L = standard_twist("L")
Det = standard_twist("DetH1")
Ds = parse_twist("D[s]")
Dst = parse_twist("D[st]")
DSig = parse_twist("D[Sigma]")


@pytest.mark.parametrize("name,a,b", [
    ("K ~ T*D[s]", K, T * Ds),
    ("Det ~ T*inv(D[Sigma])", Det, T * DSig.inverse()),
    ("Det ~ K*inv(D[s])*inv(D[Sigma])", Det, K * Ds.inverse() * DSig.inverse()),
    ("D[s] ~ inv(L)*K*K", Ds, L.inverse() * K * K),
    ("D[st] ~ inv(L)", Dst, L.inverse()),
])
def test_relations_on_stable_graphs(name, a, b):
    rep = verify_isomorphism(a, b, "stable-graph", 3, max_tails=4)
    assert rep.ok, (name, rep.mismatch)


def test_isomorphism_lemma_rooted_trees():
    rep = verify_isomorphism(DSig * Ds, K, "rooted-tree", 3, max_tails=4)
    assert rep.ok


def test_isomorphism_lemma_directed():
    Dout = parse_twist("D[s_out]")
    rep = verify_isomorphism(Dout, K, "directed-no-wheels", 2, max_tails=3)
    assert rep.ok


def test_tree_only_isomorphism_with_loop_counterexample():
    rep = verify_isomorphism(K, DSig * Ds, "tree", 3, max_tails=4)
    assert rep.ok
    loop = loop_with_tails(3)
    assert K.line(loop).degree != (DSig * Ds).line(loop).degree


def test_k_gauge_witness_on_trees():
    # the two edge-degree gauges differ by the square coboundary on trees
    Kinv = K.inverse()
    alt = K * DSig.inverse() * DSig.inverse()
    rep = verify_isomorphism(Kinv, alt, "tree", 3, max_tails=4)
    assert rep.ok
    loop = loop_with_tails(3)
    la, lb = Kinv.line(loop), alt.line(loop)
    assert (la.degree, ) != (lb.degree, )


# -- combinators and parsing -----------------------------------------------------

def test_combine():
    g = theta()
    a = K * K
    assert a.line(g).degree == -6
    b = K.inverse()
    assert b.line(g).degree == 3


def test_tensor_associativity_degrees():
    g = theta()
    lhs = (K * T) * L
    rhs = K * (T * L)
    assert lhs.line(g).degree == rhs.line(g).degree
    for vm, fm in G.automorphisms(g):
        assert lhs.line(g).char(vm, fm) == rhs.line(g).char(vm, fm)


def test_parser():
    assert parse_twist("K").name == "K"
    assert parse_twist("K*T").line(theta()).degree == -6
    assert parse_twist("inv(K)").line(theta()).degree == 3
    assert parse_twist("D[Sigma]*D[s]").name == "D[Sigma]*D[s]"
    assert parse_twist("DetH1").line(theta()).degree == -2
    with pytest.raises(InputError):
        parse_twist("Q")
    with pytest.raises(InputError):
        parse_twist("D[nope]")


# -- gluing towers ----------------------------------------------------------------

def _three_vertex_chain():
    g = G.graft(G.graft(G.corolla("u", ["a", "b", "c"], genus=0), "c",
                        G.corolla("w", ["d", "e", "f"], genus=0), "d"),
                "f", G.corolla("z", ["p", "q", "r"], genus=0), "p")
    return g


def test_contract_blocks():
    g = _three_vertex_chain()
    mid = contract_blocks(g, [["u", "w"], ["z"]])
    assert len(mid.vertices) == 2
    assert len(mid.edges()) == 1


def test_gluing_tower_consistency():
    chain = _three_vertex_chain()
    fine = [["u", "w"], ["z"]]
    coarse = [["u", "w", "z"]]
    for expr in ("K", "T", "L", "DetH1", "D[s]", "D[Sigma]"):
        cocycle = parse_twist(expr)
        assert tower_consistent(cocycle, chain, fine, coarse), expr
    # a theta-shaped tower with parallel edges
    th = theta()
    assert tower_consistent(parse_twist("K"), th, [["a"], ["b"]],
                            [["a", "b"]])


def test_unit_normalization_all_cocycles():
    corolla = G.corolla("v", ["1", "2"], genus=1,
                        labels={"1": "1", "2": "2"})
    for expr in ("K", "T", "L", "DetH1", "D[s]", "D[st]", "D[Sigma]"):
        line = parse_twist(expr).line(corolla)
        assert line.degree == 0, expr
        for vm, fm in G.automorphisms(corolla):
            assert line.char(vm, fm) == 1


# -- the cycle-space determinant --------------------------------------------


def _leibniz(mat):
    n = len(mat)
    return sum(perm_sign(p) * math.prod(mat[i][p[i]] for i in range(n))
               for p in all_perms(n))


def _cycle_space(graph):
    """A basis of H1 = ker(C1 -> C0), the edges oriented by their sorted
    flags, as dicts edge -> coefficient, from the rref of the boundary."""
    edges = sorted(tuple(sorted(e)) for e in graph.edges())
    rows = [[ZERO] * len(edges) for _ in graph.vertices]
    where = {v: i for i, v in enumerate(graph.vertices)}
    for j, (a, b) in enumerate(edges):
        rows[where[graph.boundary[b]]][j] += ONE
        rows[where[graph.boundary[a]]][j] -= ONE
    red, pivots = rref(rows)
    basis = []
    for j in (j for j in range(len(edges)) if j not in pivots):
        vec = {edges[j]: ONE}
        for r, p in enumerate(pivots):
            if red[r][j]:
                vec[edges[p]] = -red[r][j]
        basis.append(vec)
    return basis


def _cycle_char(basis, fmap):
    """The sign of the determinant of the automorphism on the basis."""
    span = Span(basis)
    mat = []
    for vec in basis:
        moved = {}
        for (a, b), c in vec.items():
            ta, tb = fmap[a], fmap[b]
            key = tuple(sorted((ta, tb)))
            moved[key] = moved.get(key, ZERO) + (c if ta < tb else -c)
        mat.append(coords_in_span(span, moved))
    det = _leibniz(mat)
    return (det > 0) - (det < 0)


def _small_unions():
    def rose(k):
        flags = [f"h{i}" for i in range(2 * k)]
        return G.Graph(["v"], flags, {f: flags[i ^ 1]
                                      for i, f in enumerate(flags)},
                       dict.fromkeys(flags, "v"))

    small = [rose(1), rose(2), banana(2), banana(3)]
    for a, b in itertools.combinations_with_replacement(small, 2):
        yield G.disjoint_union_with_maps(a, b)[0]


def _cycle_corpus():
    for n in range(3):
        labels = [str(i + 1) for i in range(n)]
        yield from G.enumerate_graphs("graph", {"labels": labels}, 3)
        yield from G.enumerate_graphs("stable-graph",
                                      {"labels": labels, "genus": 1}, 2)
    yield from _small_unions()


def test_cycle_determinant_matches_the_cycle_space_oracle():
    # the corpus holds disconnected graphs whose automorphisms swap
    # components, where the sign of the component permutation counts
    disconnected = 0
    for graph in _cycle_corpus():
        basis = _cycle_space(graph)
        line = Det.line(graph)
        assert line.degree == -len(basis)
        disconnected += not graph.is_connected()
        for vmap, fmap in G.automorphisms(graph):
            assert line.char(vmap, fmap) == _cycle_char(basis, fmap), \
                (graph, vmap)
    assert disconnected


def banana(k):
    """Two vertices a, b joined by k edges (f_i, g_i)."""
    fs, gs = [f"f{i}" for i in range(k)], [f"g{i}" for i in range(k)]
    return G.Graph(["a", "b"], fs + gs,
                   {**dict(zip(fs, gs)), **dict(zip(gs, fs))},
                   {**dict.fromkeys(fs, "a"), **dict.fromkeys(gs, "b")})


@pytest.mark.parametrize("k", [2, 3, 4])
def test_cycle_determinant_is_the_sign_of_the_edge_permutation(k):
    # H1 of k parallel edges is the standard representation of S_k, whose
    # determinant is the sign; swapping the two vertices reverses every
    # edge, which is -1 on H1 of dimension k - 1.
    line = Det.line(banana(k))
    auts = G.automorphisms(banana(k))
    assert len(auts) == 2 * math.factorial(k)
    for vmap, fmap in auts:
        swapped = vmap["a"] == "b"
        edges = tuple(int(fmap[f"f{i}"][1:]) for i in range(k))
        want = perm_sign(edges) * (-1) ** ((k - 1) * swapped)
        assert line.char(vmap, fmap) == want
