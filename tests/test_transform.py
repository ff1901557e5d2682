import contextlib
import functools
import gc
import itertools
import math
import random
import weakref

import pytest
from feynman_oracle import scan_d_edge_basis
from master_oracle import MorphismChecker

from opforge.brackets import (SumElement, _summed, boxminus, bv_verify,
                              coinvariant_class, cyclic_bracket, delta,
                              deviation_bracket, dioperadic_product,
                              lie_bracket, prelie, project_coinvariants)
from opforge.errors import (NonInvertibleTwist, TruncationExceeded,
                            UnsupportedKind)
from opforge.graphs import enumerate_graphs
from opforge.gradedlin import (BE, GradedVector, GroupAction, Q, all_perms,
                               koszul_sign, rank_of)
from opforge.smodules import (BilinearForm, EndOperad, ModularE, check_axioms,
                              contract_word, rotation_order2)
from opforge.transform import (DgInstance, FeynmanTransform,
                               GeneratorInstance, MasterSeries, NcOperad,
                               NcTensorExtension, PropFromOperad,
                               build_master_carrier, certify_dg_algebra,
                               closed_window, free_construct, free_operad,
                               invariant_degree_basis, master_lhs,
                               master_lhs_components, modular_e_differential,
                               morphism_defects, nc_extension, random_series,
                               solve_master_series,
                               trivial_modular_generator,
                               trivial_operadic_generator)


def single(idx, be, c=1):
    return SumElement.single(idx, GradedVector.unit(be, c))


# -- free constructions --------------------------------------------------------

def test_free_k_modular_04_dimension():
    gen = trivial_modular_generator([(0, 3)])
    F = free_construct(gen, "modular", "K", 1)
    comp = F.component((0, 4))
    assert len(comp) == 3
    assert {b.degree for b in comp} == {-1}


def test_free_bound_zero_is_generators():
    gen = trivial_modular_generator([(0, 3)])
    F = free_construct(gen, "modular", "K", 0)
    assert len(F.component((0, 3))) == 1
    assert len(F.component((0, 4))) == 0


def test_free_operad_binary_dimensions():
    gen = trivial_operadic_generator([2])
    F = free_operad(gen, 3)
    assert [len(F.component(n)) for n in (2, 3, 4)] == [1, 3, 15]


def _count_rooted_trees(n_leaves):
    # labeled binary rooted trees: (2k-3)!!
    out = 1
    for k in range(3, 2 * n_leaves - 2, 2):
        out *= k
    return out


def test_free_operad_matches_double_factorial_oracle():
    gen = trivial_operadic_generator([2])
    F = free_operad(gen, 4)
    for n in (3, 4):
        assert len(F.component(n)) == _count_rooted_trees(n)


def test_free_operad_triple_laws():
    gen = trivial_operadic_generator([2])
    F = free_operad(gen, 3)
    assert check_axioms(F, max_arity=4).ok


def test_free_operad_acts_on_generators_by_input_permutations():
    # S_2 acts on a binary generator; the root is not one of its positions
    def apply_basis(p, a):
        assert len(p) == 2, p
        return GradedVector.unit(a)

    gen = GeneratorInstance("operad", {2: [BE(("gen", 2), 0)]},
                            {2: GroupAction(all_perms(2), apply_basis)})
    assert check_axioms(free_operad(gen, 3), 3).ok


def test_nc_free_construction_keeps_higher_genus_generators():
    # the corolla of the (1,1) generator and the (0,3) generator with a
    # loop; a vertex of an nc graph is decorated by its gamma label
    gen = trivial_modular_generator([(0, 3), (1, 1)])
    F = free_construct(gen, "modular", "K", 1)
    NC = nc_extension(F)
    assert len(F.component((1, 1))) == 2
    assert len(NC.component((1, 1))) == 2


def test_free_component_dimension_matches_burnside():
    gen = trivial_modular_generator([(0, 3)])
    F = free_construct(gen, "modular", "K", 2)
    for idx in [(0, 4), (1, 2), (0, 5)]:
        total = Q(0)
        dim = 0
        for block in F.blocks(idx):
            char = F._twist_char(block.graph)
            tr = Q(0)
            for phi in block.aut.elements:
                t = Q(0)
                for be in block.raw_basis:
                    img = block.aut.apply_basis(phi, be)
                    t += img.coeff(be)
                tr += t * char(phi)
            dim += tr / len(block.aut.elements)
        assert dim == len(F.component(idx))


def test_free_delta_squares_and_negative_control():
    gen = trivial_modular_generator([(0, 3)])
    F = free_construct(gen, "modular", "K", 3)
    for idx in [(0, 4), (1, 2)]:
        for be in F.component(idx):
            assert delta(delta(single(idx, be), F), F).is_zero()
    Fe = free_construct(gen, "modular", "1", 3)
    assert any(not delta(delta(single((0, 4), be), Fe), Fe).is_zero()
               for be in Fe.component((0, 4)))


def test_free_truncation_errors():
    gen = trivial_modular_generator([(0, 3)])
    F = free_construct(gen, "modular", "K", 1)
    a = F.component((0, 4))[0]
    with pytest.raises(TruncationExceeded):
        F.circ_st_basis((0, 4), a, 0, (0, 4), F.component((0, 4))[1], 1)


def test_free_gluing_associativity():
    # (a o_0 b) o_3 c = (-1)^{edge_degree} a o_0 (b o_2 c) on three (0,3)
    # generators: both sides are the same tree, and the edges of degree
    # edge_degree are created in the opposite order
    gen = trivial_modular_generator([(0, 3)])
    for twist in ("K", "1"):
        F = free_construct(gen, "modular", twist, 2)
        g = F.component((0, 3))[0]
        unit = GradedVector.unit(g)
        ab = F.circ_st_basis((0, 3), g, 0, (0, 3), g, 0)
        lhs = F.circ_st((0, 4), ab, 3, (0, 3), unit, 0)
        bc = F.circ_st_basis((0, 3), g, 2, (0, 3), g, 0)
        rhs = F.circ_st((0, 3), unit, 0, (0, 4), bc, 0)
        assert not lhs.is_zero(), twist
        assert lhs == rhs.scale((-1) ** (F.edge_degree % 2)), twist


def test_free_construction_axioms_with_self_gluing():
    # the exhaustive axiom check, including the exchange law of self_basis
    # with the other gluings, on both twists
    gen = trivial_modular_generator([(0, 3)])
    for twist in ("K", "1"):
        rep = check_axioms(free_construct(gen, "modular", twist, 3), 6)
        assert rep.ok, (twist, rep.first_failure())
        assert rep.checked > 0


def test_free_box_past_edge_bound_raises():
    gen = trivial_modular_generator([(0, 3)])
    NC = nc_extension(free_construct(gen, "modular", "K", 1))
    a, b = NC.component((0, 4))[:2]
    assert all(len(NC._by_key[x.ident[1]].graph.edges()) == 1
               for x in (a, b))
    with pytest.raises(TruncationExceeded):
        NC.box_basis((0, 4), a, (0, 4), b)


# -- nc extensions ---------------------------------------------------------------

def test_nc_extension_of_free_is_disconnected_family():
    gen = trivial_modular_generator([(0, 3)])
    F = free_construct(gen, "modular", "K", 2)
    NC = nc_extension(F)
    assert NC.kind == "nc-k-modular"
    assert len(NC.component((0, 6))) > 0


def test_bv_suite_on_nc_free_k_modular():
    gen = trivial_modular_generator([(0, 3)])
    F = free_construct(gen, "modular", "K", 3)
    NC = nc_extension(F)
    els = [single((0, 3), NC.component((0, 3))[0])]
    rep = bv_verify(NC, els)
    assert rep.ok, rep.failures


# -- blocks built on demand ------------------------------------------------------

def _blocks_built_on_demand(F):
    """The blocks a gluing built, outside every enumerated component."""
    built = {b.key for blocks in F._blocks.values() for b in blocks}
    return [b for key, b in F._by_key.items() if key not in built]


def _assert_matches_eager(F, eager, order=True):
    on_demand = _blocks_built_on_demand(F)
    assert on_demand
    for block in on_demand:
        idx = F._index_of_graph(block.graph)
        (twin,) = [b for b in eager.blocks(idx) if b.key == block.key]
        for field in ("graph", "key", "raw_basis", "inv_bes", "inv_vectors"):
            assert getattr(block, field) == getattr(twin, field), field
        assert block.aut.elements == twin.aut.elements
    if not order:
        return
    for idx in {F._index_of_graph(b.graph) for b in on_demand}:
        # enumerating afterwards reuses the blocks and keeps their order
        assert [b.key for b in F.blocks(idx)] == \
            [b.key for b in eager.blocks(idx)]
        assert all(F._by_key[b.key] is b for b in F.blocks(idx))


def test_gluings_build_only_their_blocks_and_match_the_eager_ones():
    # the corolla's gluings land in graphs of at most 2 edges, so they
    # build the same blocks at edge bounds 2 and 3, and the eager instance
    # at bound 2 holds them all (at bound 3 its (0,9) component alone has
    # 14 770 blocks)
    gen = trivial_modular_generator([(0, 3)])
    lazy = {}
    for bound in (3, 2):
        NC = nc_extension(free_construct(gen, "modular", "K", bound))
        assert bv_verify(NC, [single((0, 3), NC.component((0, 3))[0])]).ok
        assert list(NC._blocks) == [(0, 3)]
        lazy[bound] = NC
    assert [b.key for b in _blocks_built_on_demand(lazy[3])] == \
        [b.key for b in _blocks_built_on_demand(lazy[2])]
    eager = nc_extension(free_construct(gen, "modular", "K", 2))
    _assert_matches_eager(lazy[3], eager, order=False)
    _assert_matches_eager(lazy[2], eager)


def test_free_operad_gluings_build_blocks_that_match_the_eager_ones():
    gen = trivial_operadic_generator([2, 3])
    F = free_operad(gen, 2)
    b2, b3 = F.component(2)[0], F.component(3)[0]
    ab = F.circ_basis(2, b2, 1, 3, b3)
    (c,) = ab.terms
    abc = F.circ(4, ab, 4, 2, GradedVector.unit(b2))
    assert not abc.is_zero()
    for i in (1, 2):
        assert not F.circ_basis(3, b3, i, 4, c).is_zero()
    assert list(F._blocks) == [2, 3]
    _assert_matches_eager(F, free_operad(gen, 2))


def test_a_graph_outside_the_component_raises():
    gen = trivial_modular_generator([(0, 3)])
    F = free_construct(gen, "modular", "K", 2)
    four = {"labels": [f"p{i}" for i in range(4)], "genus": 0}
    tree = enumerate_graphs("connected-graph", four, 1,
                            vertex_types={(0, 3)})[0]
    # a graph of (0,4) asked for in (1,2)
    with pytest.raises(TruncationExceeded):
        F._result_block((1, 2), tree)
    assert F._by_key == {}
    assert F._result_block((0, 4), tree).key == tree.canonical_key()
    # a vertex of type (0,4), which no generator has
    (quad,) = enumerate_graphs("connected-graph", four, 0)
    with pytest.raises(TruncationExceeded):
        F._result_block((0, 4), quad)
    # two corollas, not connected
    pair = enumerate_graphs("graph", {"labels": [f"p{i}" for i in range(6)],
                                      "gamma": 0}, 0, vertex_types={(0, 3)})[0]
    assert len(pair.vertices) == 2
    with pytest.raises(TruncationExceeded):
        F._result_block((0, 6), pair)
    assert len(F._by_key) == 1


def test_two_flagless_corollas_leave_the_nc_component():
    # the enumeration keeps at most max(1, tails + 2 edges) vertices, so
    # the union of two flagless corollas is not in the (2,0) component
    gen = trivial_modular_generator([(1, 0), (2, 0)])
    NC = nc_extension(free_construct(gen, "modular", "1", 1))
    (a,) = NC.component((1, 0))
    assert len(NC.component((2, 0))) == 1
    with pytest.raises(TruncationExceeded):
        NC.box_basis((1, 0), a, (1, 0), a)


@pytest.mark.parametrize("flavor", ["modular", "nc-modular", "operad"])
def test_component_membership_is_the_enumeration(flavor):
    # every graph of the class without vertex types: in the component
    # exactly when the enumeration with the generator types keeps it
    if flavor == "operad":
        F = free_operad(trivial_operadic_generator([2, 3]), 3)
        idxs = [1, 2, 3, 4]
    else:
        F = free_construct(trivial_modular_generator([(0, 3), (1, 1)]),
                           "modular", "K", 2)
        if flavor == "nc-modular":
            F = nc_extension(F)
        # (0,4) has 1 897 nc graphs without vertex types
        idxs = [(0, 3), (1, 1), (1, 2), (2, 0)] if flavor == "nc-modular" \
            else [(0, 3), (0, 4), (1, 1), (1, 2), (2, 0)]
    outside = 0
    for idx in idxs:
        cls, sig, _ = F._graph_class(idx)
        keys = {g.canonical_key() for g in F._graphs_for(idx)}
        for g in enumerate_graphs(cls, sig, F.max_edges):
            assert F._in_component(idx, g) == (g.canonical_key() in keys)
            outside += g.canonical_key() not in keys
    assert outside


def test_free_construction_is_freed_without_the_cycle_collector():
    # the S_n action is cached on the instance: it must not hold the
    # instance (and the action's cache) in a reference cycle
    gen = trivial_modular_generator([(0, 3)])
    gc.disable()
    try:
        NC = nc_extension(free_construct(gen, "modular", "K", 1))
        x = single((0, 3), NC.component((0, 3))[0])
        assert project_coinvariants(x, NC) == x
        # and a gluing that builds its block on demand
        g = NC.component((0, 3))[0]
        assert not NC.circ_st_basis((0, 3), g, 0, (0, 3), g, 0).is_zero()
        assert list(NC._blocks) == [(0, 3)] and len(NC._by_key) == 2
        ref = weakref.ref(NC)
        del NC
        assert ref() is None
    finally:
        gc.enable()


def test_graph_enumeration_leaves_no_cycle_for_the_collector():
    # building a component enumerates graphs restricted to the generator
    # types; nothing of it may wait for the cycle collector
    gen = trivial_modular_generator([(0, 3), (1, 1)])
    gc.collect()
    gc.disable()
    try:
        F = free_construct(gen, "modular", "K", 2)
        assert F.component((1, 2))
        del F
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_oriented_cycle_check_leaves_no_cycle_for_the_collector():
    graphs = enumerate_graphs("directed-wheeled", {"in_labels": ["i"],
                                                   "out_labels": ["o"]}, 2)
    gc.collect()
    gc.disable()
    try:
        verdicts = [g.has_oriented_cycle() for g in graphs]
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert True in verdicts and False in verdicts


def test_free_construction_keeps_flagless_generator_corollas():
    # F(V) contains V, so a (2,0) generator gives the decorated corolla
    gen = trivial_modular_generator([(2, 0)])
    F = free_construct(gen, "modular", "1", 1)
    assert len(F.component((2, 0))) == 1


def test_modular_e_is_freed_without_the_cycle_collector():
    # the same holds for every instance whose action is cached on itself
    space = [BE("x", 0)]
    form = BilinearForm(space, {("x", "x"): 1}, degree=0, symmetry="sym")
    gc.disable()
    try:
        E = ModularE(space, form, max_flags=4, max_genus=1)
        x = GradedVector.unit(E.component((0, 3))[0])
        assert E.average((0, 3), x) == x
        ref = weakref.ref(E)
        del E
        assert ref() is None
    finally:
        gc.enable()


def test_nc_tensor_extension_single_factor_is_base():
    space = [BE("x", 0), BE("y", -1)]
    form = BilinearForm(space, {("x", "y"): 1, ("y", "x"): 1}, degree=1,
                        symmetry="sym")
    E = ModularE(space, form, max_flags=6, max_genus=3)
    NC = NcTensorExtension(E, max_factors=2)
    base_dim = len(E.component((0, 3)))
    one_block = [b for b in NC.component((0, 3))
                 if len(b.ident[1]) == 1]
    assert len(one_block) == base_dim


def _outside(NC, vectors):
    """The terms of the vectors that are not basis elements of the
    component their identifier names."""
    basis = functools.cache(lambda idx: set(NC.component(idx)))
    return [be for v in vectors for be in v.terms
            if be not in basis(NC.component_of_basis(be))]


def _closed(NC, be):
    """Whether a word has a block without labels (a closed factor)."""
    return any(not labels for _, _, labels in NC._split(be))


def _gluings(NC, indices, pairs):
    for idx in indices:
        act = NC.action(idx)
        for a in NC.component(idx):
            for g in act.elements:
                yield act.apply_basis(g, a)
            for s, t in itertools.combinations(range(idx[1]), 2):
                yield NC.self_basis(idx, a, s, t)
    for ai, bi in pairs:
        for a, b in itertools.product(NC.component(ai), NC.component(bi)):
            with contextlib.suppress(TruncationExceeded):
                yield NC.box_basis(ai, a, bi, b)
            for s, t in itertools.product(range(ai[1]), range(bi[1])):
                with contextlib.suppress(TruncationExceeded):
                    yield NC.circ_st_basis(ai, a, s, bi, b, t)


def test_nc_gluings_answer_in_their_own_basis(master_setup):
    # every answer lies in the component its identifier names, and every
    # basis element is a fixed point of the word kernel; on the odd line
    # (every factor odd) and the odd plane of the pinned corpus, the plane
    # gluing across components only at (0,3), (0,3).  The one exception is
    # a word with a closed factor, the self-gluing of a two-label block
    # next to another block: the basis has no such word
    line = [BE("y", 1)]
    plane = [BE("x", 0), BE("y", -1)]
    indices = [(0, 3), (0, 4)]
    for space, form, pairs, closed in (
            (line, BilinearForm(line, {("y", "y"): 1}, degree=-2,
                                symmetry="antisym"),
             list(itertools.product(indices, repeat=2)), 9),
            (plane, BilinearForm(plane, {("x", "y"): 1, ("y", "x"): 1},
                                 degree=1, symmetry="sym"),
             [((0, 3), (0, 3))], 60)):
        # eight flags, so that the box answers at (0,7) and (0,8) have a
        # component to lie in
        NC = NcTensorExtension(ModularE(space, form, max_flags=8,
                                        max_genus=3), 2)
        outside = _outside(NC, _gluings(NC, indices, pairs))
        assert all(_closed(NC, be) for be in outside)
        assert len(outside) == closed
        for idx in indices:
            for be in NC.component(idx):
                assert NC._words([(1, NC._split(be))]) == GradedVector.unit(be)
    # Delta of the box square of a degree-0 series on (0,3)
    carrier = master_setup[0]
    NC = NcTensorExtension(carrier, max_factors=2)
    Snc = _nc_embed(NC, random_series(carrier, [(0, 3)], 0).as_sum())
    answer = delta(boxminus(Snc, Snc, NC), NC)
    assert sum(len(NC._split(be)) == 1 for _, v in answer.items()
               for be in v.terms) == 12
    assert not _outside(NC, (v for _, v in answer.items()))
    # the row words of the PROP and of the nc operad
    for degree in (0, 1):
        o = EndOperad([BE("x", degree)], max_arity=8)
        for inst, row_indices in ((PropFromOperad(o, 4, 3),
                                   [(2, 1), (2, 2), (3, 2)]),
                                  (NcOperad(o), [1, 2, 3, 4])):
            for idx in row_indices:
                for be in inst.component(idx):
                    assert inst._words([(1, inst._split(be))]) == \
                        GradedVector.unit(be)


def test_nc_operad_derivation_identities():
    o = EndOperad([BE("x", 0)], max_arity=8)
    NC = NcOperad(o)
    x2 = o.component(2)[0]
    x1 = o.component(1)[0]
    a = NC.from_operad(2, x2)
    b = NC.from_operad(2, x2)
    c = NC.from_operad(1, x1)
    ea, eb, ec = (single(i, z) for i, z in ((2, a), (2, b), (1, c)))
    bc = boxminus(eb, ec, NC)
    (ibc, vbc), = bc.items()
    for i in (1, 2):
        lhs = SumElement.single(NC.circ_index(2, ibc),
                                NC.circ(2, GradedVector.unit(a), i, ibc, vbc))
        rhs = boxminus(SumElement.single(3, NC.circ_basis(2, a, i, 2, b)),
                       ec, NC) + \
            boxminus(SumElement.single(2, NC.circ_basis(2, a, i, 1, c)),
                     eb, NC)
        assert project_coinvariants(lhs, NC) == project_coinvariants(rhs, NC)
    ab = boxminus(ea, eb, NC)
    (iab, vab), = ab.items()
    for i in (1, 3):
        lhs = SumElement.single(NC.circ_index(iab, 1),
                                NC.circ(iab, vab, i, 1, GradedVector.unit(c)))
        if i <= 2:
            rhs = boxminus(SumElement.single(
                2, NC.circ_basis(2, a, i, 1, c)), eb, NC)
        else:
            rhs = boxminus(ea, SumElement.single(
                2, NC.circ_basis(2, b, i - 2, 1, c)), NC)
        assert project_coinvariants(lhs, NC) == project_coinvariants(rhs, NC)


# -- the PROP generated by an operad ---------------------------------------------

def test_prop_from_operad_dimensions_match_induction_count():
    o = EndOperad([BE("x", 0)], max_arity=8)
    P = PropFromOperad(o, max_in=4, max_out=3)

    def induced(n, m):
        total = 0
        for sizes in itertools.product(range(n + 1), repeat=m):
            if sum(sizes) != n:
                continue
            mult = math.factorial(n)
            for s in sizes:
                mult //= math.factorial(s)
            total += mult
        return total

    for idx in [(2, 1), (2, 2), (3, 2), (1, 3)]:
        assert len(P.component(idx)) == induced(*idx)


def test_prop_from_operad_restricts_to_operad():
    o = EndOperad([BE("x", 0)], max_arity=8)
    P = PropFromOperad(o, max_in=5, max_out=2)
    a = single((2, 1), P.component((2, 1))[0])
    dp = dioperadic_product(a, a, P)
    (idx, v), = dp.items()
    assert idx == (3, 1)
    (be, c), = v.terms.items()
    assert c == 2
    assert P.restrict_to_operad(be).ident == o.component(3)[0].ident


def test_operadic_bracket_maps_to_dioperadic():
    o = EndOperad([BE("x", 0)], max_arity=8)
    P = PropFromOperad(o, max_in=5, max_out=2)

    def incl(n, vec):
        return GradedVector({P.from_operad(n, be): c
                             for be, c in vec.terms.items()})

    f2 = single(2, o.component(2)[0])
    f3 = single(3, o.component(3)[0])
    br = lie_bracket(f2, f3, o)
    lifted = SumElement({(n, 1): incl(n, v) for n, v in br.parts.items()})
    a = SumElement.single((2, 1), incl(2, f2.parts[2]))
    b = SumElement.single((3, 1), incl(3, f3.parts[3]))
    from opforge.brackets import dioperadic_bracket
    assert dioperadic_bracket(a, b, P) == lifted


# -- Feynman transform -------------------------------------------------------------

def _e_dim1():
    V = [BE("x", 0)]
    form = BilinearForm(V, {("x", "x"): 1}, degree=0, symmetry="sym")
    return ModularE(V, form, max_flags=10, max_genus=4)


def _e_dim2():
    V = [BE("x", 0), BE("y", 0)]
    form = BilinearForm(V, {("x", "x"): 1, ("y", "y"): 1}, degree=0,
                        symmetry="sym")
    return ModularE(V, form, max_flags=10, max_genus=4)


def test_feynman_d_squared_dim1_exhaustive():
    ft = FeynmanTransform(DgInstance(_e_dim1()), [(0, 3)], 2)
    for idx in [(0, 2), (0, 3), (1, 1)]:
        for be in ft.free.component(idx):
            x = single(idx, be)
            assert ft.d(ft.d(x)).is_zero(), f"d^2 != 0 on {idx} {be}"


def test_feynman_d_squared_dim2_sampled():
    ft = FeynmanTransform(DgInstance(_e_dim2()), [(0, 3)], 2)
    rng = random.Random(1)
    for idx in [(0, 2), (1, 1)]:
        comp = ft.free.component(idx)
        sample = comp if len(comp) <= 40 else rng.sample(comp, 40)
        for be in sample:
            assert ft.d(ft.d(single(idx, be))).is_zero(), \
                f"d^2 != 0 on {idx} {be}"


def test_feynman_flagless_components_square_to_zero():
    # the closed window holds (g, 0) types, acted on by the group of no
    # positions
    space = [BE("x", 0)]
    E = ModularE(space, BilinearForm(space, {("x", "x"): 1}), max_flags=6,
                 max_genus=2)
    F = FeynmanTransform(DgInstance(E), [(1, 1)], 1)
    for idx in [(0, 0), (1, 0)]:
        comp = F.free.component(idx)
        assert comp
        for be in comp:
            assert F.d(F.d(single(idx, be))).is_zero()


def test_feynman_zero_differential_when_no_refinement():
    # a window with only (0, 3) vertices: a (0, 3)-generator cannot split
    E = _e_dim1()
    ft = FeynmanTransform(DgInstance(E), [(0, 3)], 1, close_window=False)
    comp = ft.free.component((0, 3))
    gens = [be for be in comp
            if not ft.free._by_key[be.ident[1]].graph.edges()]
    for be in gens:
        assert ft.d(single((0, 3), be)).is_zero()


def test_feynman_adjointness_oracle():
    """The one-edge matrix elements dualize the gluings: the pairing of
    d(phi) against a raw one-edge decoration equals the pairing of phi
    against the direct contraction, uniformly per graph class."""
    E = _e_dim2()
    ft = FeynmanTransform(DgInstance(E), [(0, 2), (0, 3)], 1,
                          close_window=False)
    F = ft.free
    idx = (0, 3)
    comp = F.component(idx)
    gens = [be for be in comp
            if not F._by_key[be.ident[1]].graph.edges()]
    one_edge_blocks = [b for b in F.blocks(idx) if len(b.graph.edges()) == 1]
    for bhat in one_edge_blocks:
        graph = bhat.graph
        e, = graph.edges()
        ratios = set()
        for gen_be in gens:
            dphi = ft.d_edge(single(idx, gen_be))
            block_part = dphi.parts.get(idx, GradedVector())
            # expand into raw dual decorations of bhat
            raw_dphi = GradedVector()
            for be, c in block_part.terms.items():
                if be.ident[1] != bhat.key:
                    continue
                blk, raw = F.expand(idx, be)
                raw_dphi = raw_dphi + raw.scale(c)
            # oracle: direct contraction of each primal decoration
            gen_block, gen_raw = F.expand(idx, gen_be)
            (gen_dec, gcoef), = gen_raw.terms.items()
            # one dual factor ("dl", ("T", g, word)); the contraction
            # oracle returns bare tensor words, so compare with `word`
            ((_, (_, _, phi_word)), _), = gen_dec.ident[1]
            for dec in itertools.product(
                    *[E.component((graph.g_of(v),
                                   len(graph.vertex_flags(v))))
                      for v in graph.vertices]):
                direct = _direct_contraction(E, graph, dec)
                want = Q(0)
                for key, c in direct.items():
                    if key == phi_word:
                        want += c * gcoef
                dual_ident = ("dec", tuple((("dl", x.ident), -x.degree)
                                           for x in dec))
                got = Q(0)
                for be, c in raw_dphi.terms.items():
                    if be.ident == dual_ident:
                        got += c
                if want and got:
                    ratios.add(got / want)
                elif bool(want) != bool(got):
                    ratios.add(None)
        # at least one nonzero pairing per block, so a key-shape mismatch
        # cannot make every expected value vanish
        assert ratios, f"no nonzero pairing for block {bhat.key}"
        assert None not in ratios, f"support mismatch on block {bhat.key}"
        assert len(ratios) == 1, f"ratios {ratios} on block {bhat.key}"
        assert ratios.pop() in (1, -1)


def _direct_contraction(E, graph, dec):
    """Independent gluing oracle: contract the decorations' tensor slots
    matched by the graph's edge, tails ordered by position label."""
    slots = []
    for v, x in zip(graph.vertices, dec):
        order = sorted(graph.vertex_flags(v))
        word = tuple(BE(i, d) for i, d in x.ident[2])
        for f, fac in zip(order, word):
            slots.append((f, fac))
    (f1, f2), = graph.edges()
    p = next(i for i, (f, _) in enumerate(slots) if f == f1)
    q = next(i for i, (f, _) in enumerate(slots) if f == f2)
    factors = [x for _, x in slots]
    rest = [i for i in range(len(slots)) if i not in (p, q)]
    res = contract_word(factors, p, q,
                        lambda a, b: E.form.value(a, b), rest)
    if not res:
        return {}
    c, word = res[0]
    kept = [slots[i][0] for i in rest]
    order = sorted(range(len(kept)),
                   key=lambda i: int(graph.labels[kept[i]][1:]))
    perm = tuple(order.index(i) for i in range(len(kept)))
    ks = koszul_sign(perm, [x.degree for x in word])
    word = tuple(word[i] for i in order)
    return {tuple((x.ident, x.degree) for x in word): c * ks}


def test_feynman_leibniz_for_edge_differential():
    E = _e_dim1()
    ft = FeynmanTransform(DgInstance(E), [(0, 2), (0, 3)], 2,
                          close_window=False)
    F = ft.free
    gens3 = [be for be in F.component((0, 3))
             if not F._by_key[be.ident[1]].graph.edges()]
    gens2 = [be for be in F.component((0, 2))
             if not F._by_key[be.ident[1]].graph.edges()]
    phi, psi = gens3[0], gens2[0]
    x = single((0, 3), phi)
    y = single((0, 2), psi)
    xy = SumElement.single((0, 3), F.circ_st_basis((0, 3), phi, 0,
                                                   (0, 2), psi, 0))
    lhs = ft.d(xy)
    sign = -1 if phi.degree % 2 else 1
    rhs = SumElement()
    for be, c in ft.d(x).parts.get((0, 3), GradedVector()).terms.items():
        rhs = rhs + SumElement.single(
            (0, 3), F.circ_st((0, 3), GradedVector.unit(be, c), 0,
                              (0, 2), GradedVector.unit(psi), 0))
    for be, c in ft.d(y).parts.get((0, 2), GradedVector()).terms.items():
        rhs = rhs + SumElement.single(
            (0, 3), F.circ_st((0, 3), GradedVector.unit(phi), 0,
                              (0, 2), GradedVector.unit(be, c), 0)).scale(sign)
    # circ_st inserts an edge of degree edge_degree in front of the edge
    # word, so d passes over it with the sign (-1)^edge_degree
    assert lhs == rhs.scale((-1) ** (F.edge_degree % 2))


def test_feynman_internal_differential_keeps_each_graph():
    # component (0,2) at two edges has three graphs whose vertex types are
    # (0,1), (0,2), (0,3), so their raw decorations share identifiers; the
    # internal differential acts on decorations only and must leave every
    # term in the block of the graph it came from
    def trivial(n):
        return GroupAction(all_perms(n), lambda p, a: GradedVector.unit(a))

    u, w = BE("u", 0), BE("w", 1)
    src = GeneratorInstance(
        "modular", {(0, 1): [u, w], (0, 2): [BE("e2", 0)],
                    (0, 3): [BE("e3", 0)]},
        {(0, 1): trivial(1), (0, 2): trivial(2), (0, 3): trivial(3)})

    def d(idx, v):
        return GradedVector({w: c for be, c in v.terms.items() if be == u})

    types = [(0, 1), (0, 2), (0, 3)]
    ft = FeynmanTransform(DgInstance(src, d), types, 2, close_window=False)
    idx = (0, 2)
    shared = {}
    for block in ft.free.blocks(idx):
        types_of = tuple(sorted((block.graph.g_of(v),
                                 len(block.graph.vertex_flags(v)))
                                for v in block.graph.vertices))
        shared[types_of] = shared.get(types_of, 0) + 1
    assert shared[tuple(types)] == 3
    images = 0
    for be in ft.free.component(idx):
        img = ft.d_internal(single(idx, be)).parts.get(idx, GradedVector())
        for term in img.terms:
            images += 1
            assert term.ident[1] == be.ident[1], f"{be} -> {term}"
    assert images == 4


def _dg_e4():
    # a 4-dim space with an even form and a compatible differential, as in
    # the feynman benchmark workload
    V = [BE("a", -1), BE("b", 0), BE("c", 0), BE("z", 1)]
    form = BilinearForm(V, {("a", "z"): 1, ("b", "c"): 1},
                        degree=0, symmetry="sym")
    E = ModularE(V, form, max_flags=6, max_genus=2)
    d_space = {"a": GradedVector.unit(BE("b", 0)),
               "c": GradedVector.unit(BE("z", 1))}
    return DgInstance(E, modular_e_differential(E, d_space))


def test_feynman_transform_refuses_an_odd_source():
    # an odd source needs an untwisted target with edges of degree 0
    free = free_construct(trivial_modular_generator([(0, 3)]), "modular",
                          "K", 1)
    with pytest.raises(UnsupportedKind):
        FeynmanTransform(DgInstance(free), [(0, 3)], 1)
    # an odd form keeps its own error, checked first
    V = [BE("x", 0), BE("y", -1)]
    odd = ModularE(V, BilinearForm(V, {("x", "y"): 1}, degree=1))
    assert odd.kind == "k-modular"
    with pytest.raises(NonInvertibleTwist):
        FeynmanTransform(DgInstance(odd), [(0, 3)], 1)


def test_feynman_internal_differential():
    dg = _dg_e4()
    # compatibility with the form: d is a derivation of the gluings
    assert dg.check_square([(0, 2), (0, 3)])
    ft = FeynmanTransform(dg, [(0, 2)], 1, close_window=False)
    for be in ft.free.component((0, 2)):
        assert ft.d(ft.d(single((0, 2), be))).is_zero(), \
            f"d^2 != 0 on (0, 2) {be}"


def _com_transform(g, n):
    """The Feynman transform of Com (E of one even x, x.x = 1, d = 0) on
    the stable types that fit in a stable graph of type (g, n), with room
    for all of its 3g - 3 + n edges."""
    window = [(h, m) for h in range(g + 1) for m in range(2 * g + n + 1)
              if 0 < 2 * h - 2 + m <= 2 * g - 2 + n]
    return FeynmanTransform(DgInstance(_e_dim1()), window, 3 * g - 3 + n,
                            close_window=False)


@pytest.mark.parametrize("make, idx", [
    (lambda: FeynmanTransform(_dg_e4(), [(0, 2)], 1, close_window=False),
     (0, 2)),
    (lambda: _com_transform(0, 5), (0, 5)),
    (lambda: _com_transform(1, 3), (1, 3)),
    (lambda: _com_transform(2, 1), (2, 1)),
], ids=["e4-0-2", "com-0-5", "com-1-3", "com-2-1"])
def test_d_edge_matches_the_scanning_oracle(make, idx):
    ft = make()
    contractions: dict = {}
    nonzero = 0
    for be in ft.free.component(idx):
        got = ft.d_edge(single(idx, be)).parts.get(idx, GradedVector())
        assert got.terms == scan_d_edge_basis(ft, idx, be, contractions), be
        nonzero += not got.is_zero()
    assert nonzero


def _homology_by_edges(ft, idx):
    """Ranks of the homology of component idx, by degree = edge count."""
    by_edges = {k: [] for k in range(ft.free.max_edges + 1)}
    for be in ft.free.component(idx):
        block, _ = ft.free.expand(idx, be)
        by_edges[len(block.graph.edges())].append(be)
    ranks = [rank_of([ft.d(single(idx, be)).parts.get(idx, GradedVector()).terms
                      for be in bes]) for bes in by_edges.values()]
    return [len(by_edges[k]) - ranks[k] - (ranks[k - 1] if k else 0)
            for k in by_edges]


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_feynman_com_genus_zero_homology_is_lie(n):
    # Getzler-Kapranov: H(F Com)((0, n)) has rank (n - 2)!, all in the top
    # degree n - 3
    assert _homology_by_edges(_com_transform(0, n), (0, n)) \
        == [0] * (n - 3) + [math.factorial(n - 2)]


@pytest.mark.parametrize("n, rank", [(1, 0), (2, 0), (3, 1), (4, 3)])
def test_feynman_com_genus_one_homology(n, rank):
    # Chan-Galatius-Payne: acyclic for n = 1, 2, else (n - 1)!/2 in one
    # degree
    ranks = _homology_by_edges(_com_transform(1, n), (1, n))
    assert sum(ranks) == rank and sum(map(bool, ranks)) == (rank > 0)


@pytest.mark.parametrize("g, n, ranks", [
    (3, 0, [0, 0, 0, 0, 0, 0, 1]),  # the wheel K_4 (Chan-Galatius-Payne)
    (2, 0, [0, 0, 0, 0]),  # regression values, no closed form cited
    (2, 1, [0, 0, 0, 0, 0]),
])
def test_feynman_com_homology_without_enough_tails(g, n, ranks):
    assert _homology_by_edges(_com_transform(g, n), (g, n)) == ranks


# -- master equation ----------------------------------------------------------------

W_SPACE = [BE("wp", 1), BE("wm", -1)]
W_FORM = {("wp", "wm"): 1}
V_SPACE = [BE("x", 0), BE("y", -1)]
V_FORM = {("x", "y"): 1}
V_DIFF = {"y": GradedVector.unit(BE("x", 0))}
WINDOW = [(0, 3), (0, 4), (1, 1), (1, 2)]


@pytest.fixture(scope="module")
def master_setup():
    carrier, u_space, d_fun, forms = build_master_carrier(
        W_SPACE, W_FORM, V_SPACE, V_FORM, V_DIFF)
    oracle = MorphismChecker(W_SPACE, V_SPACE, V_DIFF, WINDOW, carrier.form)
    return carrier, d_fun, forms, oracle


def _certify(series, setup):
    """The verdict of `certify_dg_algebra`, after checking that the oracle
    gives the same morphism verdict."""
    carrier, d_fun, forms, oracle = setup
    rep = certify_dg_algebra(series, carrier, d_fun, forms, V_DIFF, WINDOW)
    assert rep.morphism_ok == (not oracle.generator_defects(series))
    return rep


def _genuine_series(carrier, d_fun):
    for seed in range(8):
        sol = solve_master_series(carrier, d_fun, WINDOW, seed=seed,
                                  seed_component=(0, 4))
        if sol and any(not v.is_zero() for v in sol.terms.values()):
            if any(not v.is_zero()
                   for _, v in delta(sol.as_sum(), carrier).items()):
                return sol
    raise AssertionError("no genuine series found")


def test_master_zero_series(master_setup):
    carrier, d_fun, _, _ = master_setup
    S0 = MasterSeries({})
    comps = master_lhs_components(S0, carrier, d_fun, WINDOW)
    assert all(v.is_zero() for v in comps.values())
    rep = _certify(S0, master_setup)
    assert rep.lhs_zero and rep.morphism_ok and rep.agree


def test_master_single_closed_term(master_setup):
    carrier, d_fun, _, _ = master_setup
    basis = invariant_degree_basis(carrier, (0, 3), 0)
    kernel = [b for b in basis if d_fun((0, 3), b).is_zero()]
    m03 = kernel[0]
    S = MasterSeries({(0, 3): m03})
    lhs = master_lhs(S, carrier, d_fun)
    # the single-term series is certified exactly when all its own
    # obstruction components vanish; at least d m = 0 by construction
    assert lhs.parts.get((0, 3), GradedVector()).is_zero()


def test_master_degree_guard(master_setup):
    carrier, d_fun, _, _ = master_setup
    bad_vec = GradedVector.unit(carrier.component((0, 3))[1])
    if bad_vec.homogeneous_degree() == 0:
        bad_vec = GradedVector.unit(
            next(b for b in carrier.component((0, 3)) if b.degree != 0))
    from opforge.errors import DegreeError
    with pytest.raises(DegreeError):
        master_lhs(MasterSeries({(0, 3): bad_vec}), carrier, d_fun)


def test_master_genuine_certifies_and_corruption_fails(master_setup):
    carrier, d_fun, _, _ = master_setup
    sol = _genuine_series(carrier, d_fun)
    rep = _certify(sol, master_setup)
    assert rep.lhs_zero and rep.morphism_ok and rep.agree
    terms = dict(sol.terms)
    be0 = sorted(terms[(0, 4)].terms, key=repr)[0]
    terms[(0, 4)] = terms[(0, 4)] + GradedVector.unit(be0, Q(1))
    rep2 = _certify(MasterSeries(terms), master_setup)
    assert not rep2.lhs_zero and not rep2.morphism_ok and rep2.agree
    assert rep2.lhs_witness  # localized nonzero components


def test_master_verdicts_agree_on_random_series(master_setup):
    for seed in range(25):
        S = random_series(master_setup[0], WINDOW, seed)
        rep = _certify(S, master_setup)
        assert rep.agree, seed


def _assert_defects_are_the_averaged_lhs(S, carrier, d_fun, forms, oracle,
                                         w_space, v_diff, window):
    """f(d phi) + d_V f(phi) = (-1)^{|phi|} n! 2^g <phi, avg_{S_n} LHS_{g,n}>
    as vectors, on every generator phi of the window; returns how many
    right-hand sides are nonzero."""
    lhs = master_lhs(S, carrier, d_fun)
    defects = morphism_defects(S, forms, v_diff, window)
    nonzero = 0
    for idx in window:
        g, n = idx
        avg = MasterSeries({idx: carrier.average(
            idx, lhs.parts.get(idx, GradedVector()))})
        for combo in itertools.product(w_space, repeat=n):
            word = tuple((w.ident, w.degree) for w in combo)
            scale = (-1) ** sum(d for _, d in word) \
                * math.factorial(n) * 2 ** g
            want = {k: scale * c
                    for k, c in oracle.m_hat(avg, idx, word).items()}
            got = defects.pop((idx, ("T", g, word)), GradedVector())
            assert {b.ident[2]: c for b, c in got.terms.items()} == want, \
                (idx, word)
            nonzero += bool(want)
    assert not defects
    return nonzero


def test_morphism_defects_are_the_averaged_lhs(master_setup):
    """The identity on the 30 generators of the window, for six series.

    Every letter of W is odd, so (-1)^{|phi|} is (-1)^n here.  The identity
    needs the average: at (0,4) the raw left-hand side can be nonzero where
    its S_4-average is 0 (seeds 0, 20 and 21).
    """
    carrier, d_fun, forms, oracle = master_setup
    assert sum(len(W_SPACE) ** n for _, n in WINDOW) == 30
    for seed in range(6):
        S = random_series(carrier, WINDOW, seed)
        assert _assert_defects_are_the_averaged_lhs(
            S, carrier, d_fun, forms, oracle, W_SPACE, V_DIFF, WINDOW)


def test_morphism_defects_with_even_and_odd_letters():
    # W has an even letter, so bridges join generators of every parity pair
    # and (-1)^{|phi|} differs from (-1)^n; a series at (0,3) alone keeps
    # the left-hand side cheap
    w_space = [BE("a", 0)] + W_SPACE
    w_form = {("a", "a"): 1, **W_FORM}
    window = [(0, 3), (0, 4), (1, 1)]
    carrier, _, d_fun, forms = build_master_carrier(
        w_space, w_form, V_SPACE, V_FORM, V_DIFF)
    oracle = MorphismChecker(w_space, V_SPACE, V_DIFF, window, carrier.form)
    S = random_series(carrier, [(0, 3)], 0)
    assert _assert_defects_are_the_averaged_lhs(
        S, carrier, d_fun, forms, oracle, w_space, V_DIFF, window) == 22


def test_evaluate_commutes_with_the_free_gluings(master_setup):
    # the universal property of the free construction on one edge: the
    # images of a bridge and of a loop are the target's gluings of the
    # images, for the equivariant generator map of an invariant series
    carrier, _, (bw, bv), oracle = master_setup
    S = random_series(carrier, WINDOW, 1)
    target = ModularE(V_SPACE, bv, max_flags=4, max_genus=1)
    ft = FeynmanTransform(
        DgInstance(ModularE(W_SPACE, bw, max_flags=4, max_genus=1)), WINDOW,
        1, close_window=False)
    free = ft.free

    def gen_map(loc, x):
        table = oracle.m_hat(S, loc, x.ident[1][2])
        return GradedVector({target._be([BE(i, d) for i, d in k], *loc): c
                             for k, c in table.items()})

    def f(idx, v):
        return free.evaluate(idx, v, target, gen_map)

    def gens(idx):
        (corolla,) = [b for b in free.blocks(idx) if not b.graph.edges()]
        return [GradedVector.unit(be) for be in corolla.inv_bes]

    nonzero = 0
    for a, b in itertools.product(gens((0, 3)), repeat=2):
        (x,), (y,) = a.terms, b.terms
        for s, t in itertools.product(range(3), repeat=2):
            want = target.circ_st((0, 3), f((0, 3), a), s, (0, 3),
                                  f((0, 3), b), t)
            got = f((0, 4), free.circ_st_basis((0, 3), x, s, (0, 3), y, t))
            assert got == want, (x, s, y, t)
            nonzero += not want.is_zero()
    for a in gens((0, 4)):
        (x,) = a.terms
        for s, t in itertools.combinations(range(4), 2):
            want = target.self_glue((0, 4), f((0, 4), a), s, t)
            assert f((1, 2), free.self_basis((0, 4), x, s, t)) == want
            nonzero += not want.is_zero()
    assert nonzero


def test_morphism_defects_see_only_the_averaged_lhs(master_setup):
    # seed 0: the (0,4) component of the left-hand side is nonzero but
    # averages to 0, and no generator of type (0,4) has a defect
    carrier, d_fun, forms, _ = master_setup
    S = random_series(carrier, WINDOW, 0)
    raw = master_lhs(S, carrier, d_fun).parts.get((0, 4), GradedVector())
    assert not raw.is_zero() and carrier.average((0, 4), raw).is_zero()
    defects = morphism_defects(S, forms, V_DIFF, WINDOW)
    assert not [k for k in defects if k[0] == (0, 4)]


def test_lhs_zero_reads_the_averaged_lhs(master_setup):
    # the genuine series plus the word wm.x wp.x wp.y wp.y at (0,4), which
    # is not S_4-invariant (the corrupted series `forge master` pins): the
    # left-hand side has 2 raw terms at (0,4) that average to 0, and 1 at
    # (1,2) that does not
    carrier, d_fun, forms, _ = master_setup
    sol = _genuine_series(carrier, d_fun)
    word = tuple((("u", w, v), d) for w, v, d in (
        ("wm", "x", -1), ("wp", "x", 1), ("wp", "y", 0), ("wp", "y", 0)))
    (extra,) = [b for b in carrier.component((0, 4)) if b.ident[2] == word]
    S = MasterSeries({**sol.terms,
                      (0, 4): sol.terms[(0, 4)] + GradedVector.unit(extra)})
    comps = master_lhs_components(S, carrier, d_fun, WINDOW)
    assert len(comps[(0, 4)].terms) == 2
    assert carrier.average((0, 4), comps[(0, 4)]).is_zero()
    assert not carrier.average((1, 2), comps[(1, 2)]).is_zero()
    rep = certify_dg_algebra(S, carrier, d_fun, forms, V_DIFF, WINDOW)
    assert not rep.lhs_zero
    assert rep.lhs_witness == {"(0, 4)": 2, "(1, 2)": 1}  # raw term counts
    # without (1,2) the left-hand side vanishes on coinvariants
    rep = certify_dg_algebra(S, carrier, d_fun, forms, V_DIFF,
                             [(0, 3), (0, 4), (1, 1)])
    assert rep.lhs_zero and rep.lhs_witness is None
    # and the morphism, built from the averaged series, agrees
    assert rep.morphism_ok and rep.agree


def _nc_block_differential(NC, d_fun):
    def terms(x: SumElement):
        for idx, v in x.items():
            for be, c in v.terms.items():
                blocks = NC._split(be)
                for k, (bidx, b, labels) in enumerate(blocks):
                    sign = -1 if sum(bb.degree for _, bb, _
                                     in blocks[:k]) % 2 else 1
                    img = d_fun(bidx, GradedVector.unit(b))
                    yield idx, NC._words(
                        [(c * c2 * sign,
                          blocks[:k] + [(bidx, b2, labels)] + blocks[k + 1:])
                         for b2, c2 in img.terms.items()])

    return lambda x: _summed(NC, terms(x))


def _nc_embed(NC, x: SumElement) -> SumElement:
    """Each component of x as one-block words."""
    return SumElement({idx: NC._words(
        [(c, [(idx, be, tuple(range(idx[1])))]) for be, c in v.terms.items()])
        for idx, v in x.items()})


def test_exponential_identity_order_two(master_setup):
    # (d + Delta) e^S truncated at two box-powers reproduces the master
    # left-hand side on single-block components, as NC coinvariant classes
    carrier, d_fun, _, _ = master_setup
    NC = NcTensorExtension(carrier, max_factors=2)
    d_nc = _nc_block_differential(NC, d_fun)
    for seed in (0, 3):
        S = random_series(carrier, [(0, 3), (0, 4)], seed)
        Snc = _nc_embed(NC, S.as_sum())
        e2 = Snc + boxminus(Snc, Snc, NC).scale(Q(1, 2))
        total = d_nc(e2) + delta(e2, NC)
        want = _nc_embed(NC, master_lhs(S, carrier, d_fun))
        for idx in [(0, 3), (0, 4), (1, 1), (1, 2)]:
            got = total.parts.get(idx, GradedVector())
            got = GradedVector({be: c for be, c in got.terms.items()
                                if len(NC._split(be)) == 1})
            assert NC.coinvariant_class(idx, got) == NC.coinvariant_class(
                idx, want.parts.get(idx, GradedVector())), (seed, idx)


def test_closed_window():
    w = closed_window([(1, 3)], 2)
    assert (0, 0) in w and (1, 7) in w


# -- coinvariant classes -----------------------------------------------------------

def _class_cases():
    # at edge bound 3 the (1,4) class of a (1,1) generator and two (0,3)
    # ones is reached with an odd reordering of the edges, so a class path
    # without the edge-word sign fails here
    cases = []
    for twist in "K1":
        for types in ([(0, 3)], [(0, 3), (1, 1)]):
            def free(twist=twist, types=types):
                return free_construct(trivial_modular_generator(types),
                                      "modular", twist, 3)
            idxs = [(0, 4), (0, 5), (1, 1), (1, 2), (1, 4), (2, 1)]
            cases.append(pytest.param(free, idxs, id=f"free-{twist}-{types}"))
            cases.append(pytest.param(lambda free=free: nc_extension(free()),
                                      idxs + [(0, 6)],
                                      id=f"nc-{twist}-{types}"))
    cases.append(pytest.param(
        lambda: FeynmanTransform(DgInstance(_e_dim2()),
                                 [(0, 3), (0, 4), (1, 2)], 1).free,
        [(0, 3), (0, 4), (1, 2)], id="feynman-dual"))
    return cases


@pytest.mark.parametrize("build,idxs", _class_cases())
def test_coinvariant_class_matches_the_s_n_average(build, idxs):
    # the class decides zero and equality exactly as the S_n average does,
    # and does not see the S_n action
    F, rng = build(), random.Random(19)
    for idx in idxs:
        basis, act = F.component(idx), F.action(idx)
        if not basis:
            continue

        def rand_vector():
            terms = rng.sample(basis, min(len(basis), rng.randint(1, 4)))
            return GradedVector({be: rng.choice([-2, -1, 1, 3])
                                 for be in terms})

        def rand_g():
            return tuple(rng.sample(range(F.arity(idx)), F.arity(idx)))

        vs = []
        for _ in range(4):
            v, u = rand_vector(), rand_vector()
            g = rand_g()
            # same class as v, and class zero
            vs += [v, act.apply(g, v), v + u - act.apply(rand_g(), u),
                   u - act.apply(g, u), v.scale(2)]
        classes = [F.coinvariant_class(idx, v) for v in vs]
        avgs = [F.average(idx, v) for v in vs]
        for c, a in zip(classes, avgs):
            assert c.is_zero() == a.is_zero()
        for (ci, ai), (cj, aj) in itertools.combinations(zip(classes, avgs),
                                                          2):
            assert (ci == cj) == (ai == aj)
        for v, c in zip(vs, classes):
            assert F.coinvariant_class(idx, act.apply(rand_g(), v)) == c


def test_bv_verify_walks_no_s_n_on_seven_tails():
    # the coinvariants benchmark's input: its defects land in (0,7) and
    # (1,7), which the class path decides with one gluing per term
    nc = nc_extension(free_construct(trivial_modular_generator([(0, 3)]),
                                     "modular", "K", 2))
    acted, terms, glued = [], [], []
    action, cls = nc.action, nc.coinvariant_class
    glue_decorations = nc._glue_decorations
    deciding = []

    def counted_action(idx):
        acted.append(idx)
        return action(idx)

    def counted_class(idx, v):
        terms.append(len(v.terms))
        deciding.append(True)
        try:
            return cls(idx, v)
        finally:
            deciding.pop()

    def counted_glue(*args):
        if deciding:
            glued.append(args)
        return glue_decorations(*args)

    nc.action, nc.coinvariant_class = counted_action, counted_class
    nc._glue_decorations = counted_glue
    rep = bv_verify(nc, [single((0, 3), nc.component((0, 3))[0])])
    assert rep.ok
    assert acted and all(nc.arity(idx) < 7 for idx in acted)
    assert {(0, 7), (1, 7)} <= set(nc._built_components) | {
        nc._index_of_graph(b.graph) for b in nc._by_key.values()}
    assert 0 < len(glued) <= sum(terms)


def test_deviation_verdicts_on_odd_inputs_agree_with_the_average():
    # one basis element each of (0,3), (0,4) and (1,1), of degrees 0, -1
    # and -1: where the first input is odd and the bracket is not zero, the
    # deviation bracket is minus the rotation-summed bracket, by both paths
    nc = nc_extension(free_construct(trivial_modular_generator([(0, 3)]),
                                     "modular", "K", 4))
    rng = random.Random(0)
    reps = [project_coinvariants(single(idx, rng.choice(nc.component(idx))),
                                 nc) for idx in [(0, 3), (0, 4), (1, 1)]]
    verdicts, negated = {}, set()
    for (i, a), (j, b) in itertools.product(enumerate(reps), repeat=2):
        dev, br = deviation_bracket(a, b, nc), cyclic_bracket(a, b, nc)
        by_class = coinvariant_class(dev, nc) == coinvariant_class(br, nc)
        by_average = (project_coinvariants(dev, nc)
                      == project_coinvariants(br, nc))
        assert by_class == by_average, (i, j)
        verdicts[i, j] = by_class
        if not by_class and coinvariant_class(dev + br, nc).is_zero():
            negated.add((i, j))
    assert {p for p, ok in verdicts.items() if not ok} == \
        negated == {(1, 2), (2, 0), (2, 1)}
