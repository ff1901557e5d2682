import functools
import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opforge.errors import DegenerateForm, KindMismatch, TruncationExceeded
from opforge.gradedlin import (BE, ONE, GradedVector, Q, all_perms, invert,
                               long_cycle)
from opforge.smodules import (BilinearForm, CyclicEnd, EndOperad, EndProp,
                              ModularE, TableInstance, Transported,
                              TrivialCyclic, block_insert, check_axioms,
                              _ident_to_str, decorate, decoration_factors,
                              dump_instance, kind_is_odd, local_flag_order,
                              local_move, merge_into, naive_shift,
                              operadic_suspension, tensor_structures,
                              transport)

V2 = [BE("x", 0), BE("y", 0)]
K1 = [BE("x", 0)]


def sym_form(space=V2):
    return BilinearForm(space, {(a.ident, a.ident): 1 for a in space},
                        degree=0, symmetry="sym")


def symplectic_form():
    return BilinearForm(V2, {("x", "y"): 1, ("y", "x"): -1},
                        degree=0, symmetry="antisym")


def odd_sym_form():
    space = [BE("x", 0), BE("y", -1)]
    return space, BilinearForm(space, {("x", "y"): 1, ("y", "x"): 1},
                               degree=1, symmetry="sym")


# -- endomorphism operad -------------------------------------------------

def test_end_dimensions():
    o = EndOperad(V2, max_arity=3)
    for n in (1, 2, 3):
        assert len(o.component(n)) == 2 ** (n + 1)


def test_end_axioms_dim1_and_dim2():
    assert check_axioms(EndOperad(K1, max_arity=6), 3).ok
    assert check_axioms(EndOperad(V2, max_arity=4), 3).ok


def _as_function(o, be):
    """Independent evaluator: a basis map as a literal python function."""
    out, ins = o._split(be)

    def f(*args):
        return out if tuple(a.ident for a in args) == \
            tuple(i.ident for i in ins) else None

    return f, len(ins)


def test_end_composition_matches_multilinear_substitution():
    o = EndOperad(V2, max_arity=4)
    rng = random.Random(2)
    for _ in range(40):
        n, m = rng.choice([1, 2]), rng.choice([1, 2, 3])
        a = rng.choice(o.component(n))
        b = rng.choice(o.component(m))
        i = rng.randrange(1, n + 1)
        composed = o.circ_basis(n, a, i, m, b)
        fa, _ = _as_function(o, a)
        fb, _ = _as_function(o, b)
        for args in itertools.product(V2, repeat=n + m - 1):
            inner = fb(*args[i - 1:i - 1 + m])
            direct = None
            if inner is not None:
                direct = fa(*args[:i - 1], inner, *args[i - 1 + m:])
            table = GradedVector()
            for be, c in composed.terms.items():
                fo, _ = _as_function(o, be)
                val = fo(*args)
                if val is not None:
                    table = table + GradedVector.unit(val, c)
            expect = GradedVector.unit(direct) if direct is not None \
                else GradedVector()
            assert table == expect


def test_corrupted_table_fails_with_pinpointed_triple():
    o = EndOperad(K1, max_arity=4)
    data = dump_instance(o, [1, 2, 3])
    for rec in data["compositions"]:
        if rec["i"] == 2 and rec["result"]:
            rec["result"][0][1] = "-1"
            break
    bad = TableInstance(json.loads(json.dumps(data)))
    rep = check_axioms(bad, max_arity=3)
    assert not rep.ok
    assert rep.first_failure()["check"] == "associativity"


def test_dumped_tables_act_and_rotate_like_their_source():
    # odd factors show every action sign: a table read back from
    # `dump_instance` acts by the same permutations on as many flags,
    # rotates like its source and passes the same axiom checks
    odd = [BE("p", 1), BE("q", -1)]
    form = BilinearForm(odd, {("p", "q"): 1}, symmetry="antisym")
    for o in (EndOperad(odd, max_arity=3), CyclicEnd(odd, form, max_arity=3),
              TrivialCyclic(3)):
        table = TableInstance(json.loads(json.dumps(
            dump_instance(o, [1, 2, 3]))))
        assert check_axioms(table, 3).ok
        for idx in (1, 2, 3):
            by_ident = table._by_ident[idx]

            def read(v):
                return GradedVector({by_ident[_ident_to_str(b.ident)]: c
                                     for b, c in v.terms.items()})

            assert table.action(idx).order() == o.action(idx).order()
            for be in o.component(idx):
                v = GradedVector.unit(be)
                for p in o.action(idx).elements:
                    assert table.act(idx, p, read(v)) == read(o.act(idx, p, v))
                if o.kind != "operad":
                    assert table.t_rot(idx, read(v)) == read(o.t_rot(idx, v))


def test_unit_laws():
    o = EndOperad(V2, max_arity=3)
    ui, uv = o.unit
    for n in (1, 2):
        for a in o.component(n):
            va = GradedVector.unit(a)
            assert o.circ(ui, uv, 1, n, va) == va
            for i in range(1, n + 1):
                assert o.circ(n, va, i, ui, uv) == va


# -- cyclic / anti-cyclic ----------------------------------------------------

def test_cyclic_end_requires_form():
    with pytest.raises(DegenerateForm):
        BilinearForm(V2, {("x", "x"): 1}, degree=0, symmetry="sym")


def test_cyclic_and_anticyclic_axioms():
    assert check_axioms(CyclicEnd(V2, sym_form(), max_arity=4), 3).ok
    acy = CyclicEnd(V2, symplectic_form(), max_arity=4)
    assert acy.kind == "anti-cyclic"
    assert check_axioms(acy, 3).ok


def test_suspension_flips_cyclic():
    cy = CyclicEnd(V2, sym_form(), max_arity=4)
    s = operadic_suspension(cy)
    assert s.kind == "anti-cyclic"
    assert check_axioms(s, 3).ok
    ss = operadic_suspension(s)
    assert ss.kind == "cyclic"


def test_suspension_degrees_and_characters():
    o = EndOperad(V2, max_arity=4)
    so = operadic_suspension(o)
    assert {b.degree for b in so.component(3)} == {2}
    assert check_axioms(so, 3).ok
    act = so.action(2)
    swap = (1, 0)
    a = so.component(2)[0]
    img = act.apply_basis(swap, a)
    # the action must carry the sign representation twist
    base_img = o.action(2).apply_basis(swap, o.component(2)[0])
    (b1, c1), = img.terms.items()
    (b2, c2), = base_img.terms.items()
    assert c1 == -c2


def test_naive_shift_roundtrip_and_oddness():
    o = EndOperad(V2, max_arity=4)
    so = operadic_suspension(o)
    sso = naive_shift(so, "sigma")
    assert sso.kind == "odd-operad"
    assert {b.degree for b in sso.component(3)} == {3}  # |a| = deg + n
    assert check_axioms(sso, 3).ok
    back = naive_shift(sso, "sigma-inv")
    assert back.kind == "operad"
    assert {b.degree for b in back.component(3)} == {2}


def test_odd_instance_fails_even_axioms():
    o = EndOperad(V2, max_arity=4)
    sso = naive_shift(operadic_suspension(o), "sigma")
    even_view = Transported(sso, "operad", lambda n: 0, lambda n, g: 1,
                            {"circ": lambda ai, x, i, bi, y: 1})
    rep = check_axioms(even_view, 3)
    assert not rep.ok


def test_prop_shift_data():
    # s_in o s_out^{-1} matches the full suspension degrees and characters
    P = EndProp(V2, max_in=3, max_out=3)
    s1 = naive_shift(naive_shift(P, "out-inv"), "in")
    for idx in [(1, 1), (2, 1), (2, 2), (3, 2)]:
        n, m = idx
        degs1 = {b.degree for b in s1.component(idx)}
        degs_expect = {b.degree + n - m for b in P.component(idx)}
        assert degs1 == degs_expect
    sw = ((1, 0), (0, 1))
    a = P.component((2, 1))[0]
    img = s1.action((2, 1)).apply_basis(sw, s1.component((2, 1))[0])
    (b1, c1), = img.terms.items()
    base = P.action((2, 1)).apply_basis(sw, a)
    (b2, c2), = base.terms.items()
    assert c1 == -c2  # sgn on the input side


# -- tensor products ----------------------------------------------------------

def test_tensor_kind_rules():
    cy = CyclicEnd(V2, sym_form(), max_arity=3)
    acy = CyclicEnd(V2, symplectic_form(), max_arity=3)
    assert tensor_structures(cy, acy).kind == "anti-cyclic"
    assert tensor_structures(cy, cy).kind == "cyclic"
    assert tensor_structures(acy, acy).kind == "cyclic"


def test_tensor_with_trivial_is_identity_on_tables():
    acy = CyclicEnd(V2, symplectic_form(), max_arity=3)
    triv = TrivialCyclic(max_arity=3)
    t = tensor_structures(triv, acy)
    assert t.kind == "anti-cyclic"
    a = acy.component(2)[0]
    ta = t.component(2)[acy.component(2).index(a)]
    lhs = t.circ_basis(2, ta, 1, 2, ta)
    rhs = acy.circ_basis(2, a, 1, 2, a)
    assert len(lhs.terms) == len(rhs.terms)
    for (b1, c1), (b2, c2) in zip(sorted(lhs.terms.items(), key=repr),
                                  sorted(rhs.terms.items(), key=repr)):
        assert c1 == c2


def test_comm_tensor_symplectic_end_is_anticyclic():
    # the Lie bracket carrier: trivial cyclic (x) symplectic End
    triv = TrivialCyclic(max_arity=3)
    acy = CyclicEnd(V2, symplectic_form(), max_arity=3)
    t = tensor_structures(triv, acy)
    assert check_axioms(t, 3).ok


# -- modular E(V) -------------------------------------------------------------

def test_modular_e_tags():
    space, b1 = odd_sym_form()
    e = ModularE(space, b1)
    assert e.kind == "k-modular"
    assert e.twist_tag == "K^1"
    e0 = ModularE(V2, sym_form())
    assert e0.kind == "modular"
    assert e0.twist_tag == "K^0"
    anti = ModularE(V2, symplectic_form())
    assert anti.twist_tag == "K^-2*L"


def test_modular_exchange_axioms():
    space, b1 = odd_sym_form()
    assert check_axioms(ModularE(space, b1, max_flags=6, max_genus=4), 5).ok
    assert check_axioms(ModularE(V2, sym_form(), max_flags=6, max_genus=4),
                        5).ok


def test_truncation_errors():
    o = EndOperad(V2, max_arity=3)
    a = o.component(2)[0]
    with pytest.raises(TruncationExceeded):
        o.circ_basis(2, a, 1, 3, o.component(3)[0])


# -- decorate -----------------------------------------------------------------

def theta_graph():
    from opforge.graphs import Graph
    return Graph(["a", "b"], ["f1", "f2", "f3", "g1", "g2", "g3"],
                 {"f1": "g1", "g1": "f1", "f2": "g2", "g2": "f2",
                  "f3": "g3", "g3": "f3"},
                 {"f1": "a", "f2": "a", "f3": "a",
                  "g1": "b", "g2": "b", "g3": "b"})


def test_decorate_dimensions():
    from opforge.graphs import corolla, graft
    e0 = ModularE(V2, sym_form(), max_flags=6, max_genus=2)
    single = corolla("v", ["a", "b", "c"])
    basis, act, _ = decorate(e0, single, "modular")
    assert len(basis) == len(e0.component((0, 3)))
    two = graft(corolla("u", ["a", "b", "c"]), "c",
                corolla("w", ["d", "e", "f"]), "d")
    basis2, _, _ = decorate(e0, two, "modular")
    assert len(basis2) == len(e0.component((0, 3))) ** 2


def test_decorate_theta_action_is_signed_permutation():
    e0 = ModularE(V2, sym_form(), max_flags=6, max_genus=2)
    basis, act, _ = decorate(e0, theta_graph(), "modular")
    order = len(act.elements)
    assert order == 12
    for phi in act.elements:
        seen = {}
        for be in basis:
            img = act.apply_basis(phi, be)
            assert len(img.terms) == 1
            (tgt, c), = img.terms.items()
            assert c in (1, -1)
            seen[be] = tgt
        assert len(set(seen.values())) == len(basis)
    # functoriality: applying an automorphism twice matches composition
    phi = act.elements[1]
    for be in basis[:4]:
        once = act.apply(phi, act.apply(phi, GradedVector.unit(be)))
        assert len(once.terms) == 1


def _odd_plane_form():
    space = [BE("p", 1), BE("q", -1)]
    return space, BilinearForm(space, {("p", "q"): 1}, symmetry="antisym")


def _nc_banana():
    """Two gamma-1 vertices joined by two edges, one unlabelled tail each:
    Aut swaps the edges and swaps the vertices."""
    from opforge.graphs import Graph
    flags = ["f1", "f2", "g1", "g2", "t1", "t2"]
    return Graph(["a", "b"], flags,
                 {"f1": "g1", "g1": "f1", "f2": "g2", "g2": "f2",
                  "t1": "t1", "t2": "t2"},
                 {"f1": "a", "f2": "a", "t1": "a",
                  "g1": "b", "g2": "b", "t2": "b"}, gamma={"a": 1, "b": 1})


def _two_corollas():
    from opforge.graphs import corolla, graft
    return graft(corolla("u", ["a", "b", "c"]), "c",
                 corolla("w", ["d", "e", "f"]), "d")


# name -> (source, graph, flavor, |Aut|); every factor is odd, so each
# Koszul sign of a move shows in the images
DECORATED = {
    "theta": (lambda: ModularE(*_odd_plane_form(), max_flags=6, max_genus=3),
              theta_graph, "modular", 12),
    "nc-banana": (
        lambda: ModularE(*_odd_plane_form(), max_flags=6, max_genus=3),
        _nc_banana, "nc-modular", 4),
    "cyclic-tree": (lambda: CyclicEnd(*_odd_plane_form(), max_arity=4),
                    _two_corollas, "cyclic", 8),
}


@functools.cache
def _decorated(name):
    make, graph, flavor, order = DECORATED[name]
    src, graph = make(), graph()
    basis, act, vorder = decorate(src, graph, flavor)
    assert len(act.elements) == order
    return src, graph, flavor, basis, act, vorder


def _after(g, h):
    """The automorphism g after h."""
    return ({v: g[0][w] for v, w in h[0].items()},
            {f: g[1][x] for f, x in h[1].items()})


@pytest.mark.parametrize("name", DECORATED)
def test_identity_moves_nothing_through_the_generic_path(name):
    # the moves, transport and merge of every other automorphism, run on
    # the identity, leave each decoration as it is: the shortcut that skips
    # them for the identity gives the same images
    src, graph, flavor, basis, act, vorder = _decorated(name)
    identity = ({v: v for v in graph.vertices}, {f: f for f in graph.flags})
    assert identity in act.elements
    moves = [local_move(flavor, graph, v, local_flag_order(flavor, graph, v))
             for v in vorder]
    for a in basis:
        acc: dict = {}
        merge_into(acc, graph, [(vorder, transport(
            src, decoration_factors(a), moves))], ONE)
        assert GradedVector(acc) == GradedVector.unit(a)
        assert act.apply_basis(identity, a) == GradedVector.unit(a)


@pytest.mark.parametrize("name", DECORATED)
@settings(deadline=None, max_examples=25)
@given(data=st.data())
def test_decorated_action_is_a_homomorphism(name, data):
    _, graph, _, basis, act, _ = _decorated(name)
    # a fresh copy of the identity too: the shortcut compares by value
    identity = ({v: v for v in graph.vertices}, {f: f for f in graph.flags})
    pick = st.sampled_from(act.elements + [identity])
    g, h = data.draw(pick), data.draw(pick)
    a = data.draw(st.sampled_from(basis))
    assert act.apply(g, act.apply_basis(h, a)) \
        == act.apply_basis(_after(g, h), a)


@pytest.mark.parametrize("name", DECORATED)
def test_decorated_automorphisms_key_the_image_cache(name):
    # each element hashes by its images, worked out once, and still equals
    # its (vmap, fmap) pair; a pair of dicts is keyed by its repr instead
    from opforge.graphs import automorphisms
    _, graph, _, basis, act, _ = _decorated(name)
    assert act.elements == automorphisms(graph)
    assert len(set(act.elements)) == len(act.elements)
    for g in act.elements:
        act.apply_basis(g, basis[0])
        assert (g, basis[0]) in act._cache


# -- equivariance helper -------------------------------------------------------

def test_block_insert_is_group_like():
    rng = random.Random(8)
    for _ in range(30):
        n, m = rng.randrange(1, 4), rng.randrange(1, 4)
        sigma = tuple(rng.sample(range(n), n))
        tau = tuple(rng.sample(range(m), m))
        i = rng.randrange(1, n + 1)
        pi = block_insert(sigma, i, tau)
        assert sorted(pi) == list(range(n + m - 1))


def test_equivariance_explicit():
    o = EndOperad(V2, max_arity=4)
    sigma = (1, 0)
    tau = (0, 1)
    a = o.component(2)[3]
    b = o.component(2)[5]
    lhs = o.circ(2, o.act(2, sigma, GradedVector.unit(a)), 1,
                 2, o.act(2, tau, GradedVector.unit(b)))
    i0 = invert(sigma)[0] + 1
    inner = o.circ_basis(2, a, i0, 2, b)
    rhs = o.act(3, block_insert(sigma, 1, tau), inner)
    assert lhs == rhs
