import gc
import itertools
import math
import random
import weakref

import pytest

from opforge.brackets import (SumElement, boxminus, bv_verify, cyclic_bracket,
                              delta, dioperadic_product, lie_bracket, prelie,
                              project_coinvariants)
from opforge.errors import TruncationExceeded, UnsupportedKind
from opforge.gradedlin import (BE, GradedVector, GroupAction, Q, all_perms,
                               koszul_sign)
from opforge.smodules import (BilinearForm, EndOperad, ModularE, check_axioms,
                              contract_word, rotation_order2)
from opforge.transform import (DgInstance, FeynmanTransform,
                               GeneratorInstance, MasterSeries,
                               MorphismChecker, NcTensorExtension,
                               build_master_carrier, certify_dg_algebra,
                               closed_window, free_construct, free_operad,
                               invariant_degree_basis, master_lhs,
                               master_lhs_components, modular_e_differential,
                               nc_extension, nc_operad,
                               prop_generated_by_operad, random_series,
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
    F = free_construct(gen, "modular", "K", 2)
    NC = nc_extension(F)
    els = [single((0, 3), NC.component((0, 3))[0])]
    rep = bv_verify(NC, els)
    assert rep.ok, rep.failures


def test_free_construction_is_freed_without_the_cycle_collector():
    # the S_n action is cached on the instance: it must not hold the
    # instance (and the action's cache) in a reference cycle
    gen = trivial_modular_generator([(0, 3)])
    gc.disable()
    try:
        NC = nc_extension(free_construct(gen, "modular", "K", 1))
        x = single((0, 3), NC.component((0, 3))[0])
        assert project_coinvariants(x, NC) == x
        ref = weakref.ref(NC)
        del NC
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


def test_nc_operad_derivation_identities():
    o = EndOperad([BE("x", 0)], max_arity=8)
    NC = nc_operad(o)
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
        rhs = boxminus(single(3, None) if False else
                       SumElement.single(3, NC.circ_basis(2, a, i, 2, b)),
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
    P = prop_generated_by_operad(o, max_in=4, max_out=3)

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
    P = prop_generated_by_operad(o, max_in=5, max_out=2)
    a = single((2, 1), P.component((2, 1))[0])
    dp = dioperadic_product(a, a, P)
    (idx, v), = dp.items()
    assert idx == (3, 1)
    (be, c), = v.terms.items()
    assert c == 2
    assert P.restrict_to_operad(3, be).ident == o.component(3)[0].ident


def test_operadic_bracket_maps_to_dioperadic():
    o = EndOperad([BE("x", 0)], max_arity=8)
    P = prop_generated_by_operad(o, max_in=5, max_out=2)

    def incl(n, vec):
        out = GradedVector()
        for be, c in vec.terms.items():
            out = out + GradedVector.unit(
                P._be([(be, tuple(range(n)))]), c)
        return out

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


def test_feynman_internal_differential():
    # a 4-dim space with an even form and a compatible differential
    V = [BE("a", -1), BE("b", 0), BE("c", 0), BE("z", 1)]
    form = BilinearForm(V, {("a", "z"): 1, ("b", "c"): 1},
                        degree=0, symmetry="sym")
    E = ModularE(V, form, max_flags=6, max_genus=2)
    d_space = {"a": GradedVector.unit(BE("b", 0)),
               "c": GradedVector.unit(BE("z", 1))}
    diff = modular_e_differential(E, d_space)
    # compatibility with the form: d is a derivation of the gluings
    dg = DgInstance(E, diff)
    assert dg.check_square([(0, 2), (0, 3)])
    ft = FeynmanTransform(dg, [(0, 2)], 1, close_window=False)
    for be in ft.free.component((0, 2)):
        assert ft.d(ft.d(single((0, 2), be))).is_zero(), \
            f"d^2 != 0 on (0, 2) {be}"


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
    checker = MorphismChecker(W_SPACE, W_FORM, V_SPACE, V_FORM, V_DIFF,
                              WINDOW, carrier.form)
    return carrier, d_fun, checker


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
    carrier, d_fun, checker = master_setup
    S0 = MasterSeries({})
    comps = master_lhs_components(S0, carrier, d_fun, WINDOW)
    assert all(v.is_zero() for v in comps.values())
    rep = certify_dg_algebra(S0, carrier, d_fun, checker, WINDOW)
    assert rep.lhs_zero and rep.morphism_ok and rep.agree


def test_master_single_closed_term(master_setup):
    carrier, d_fun, checker = master_setup
    basis = invariant_degree_basis(carrier, (0, 3), 0)
    kernel = [b for b in basis if d_fun((0, 3), b).is_zero()]
    m03 = kernel[0]
    S = MasterSeries({(0, 3): m03})
    lhs = master_lhs(S, carrier, d_fun)
    # the single-term series is certified exactly when all its own
    # obstruction components vanish; at least d m = 0 by construction
    assert lhs.parts.get((0, 3), GradedVector()).is_zero()


def test_master_degree_guard(master_setup):
    carrier, d_fun, checker = master_setup
    bad_vec = GradedVector.unit(carrier.component((0, 3))[1])
    if bad_vec.homogeneous_degree() == 0:
        bad_vec = GradedVector.unit(
            next(b for b in carrier.component((0, 3)) if b.degree != 0))
    from opforge.errors import DegreeError
    with pytest.raises(DegreeError):
        master_lhs(MasterSeries({(0, 3): bad_vec}), carrier, d_fun)


def test_master_genuine_certifies_and_corruption_fails(master_setup):
    carrier, d_fun, checker = master_setup
    sol = _genuine_series(carrier, d_fun)
    rep = certify_dg_algebra(sol, carrier, d_fun, checker, WINDOW)
    assert rep.lhs_zero and rep.morphism_ok and rep.agree
    terms = dict(sol.terms)
    be0 = sorted(terms[(0, 4)].terms, key=repr)[0]
    terms[(0, 4)] = terms[(0, 4)] + GradedVector.unit(be0, Q(1))
    rep2 = certify_dg_algebra(MasterSeries(terms), carrier, d_fun, checker,
                              WINDOW)
    assert not rep2.lhs_zero and not rep2.morphism_ok and rep2.agree
    assert rep2.lhs_witness  # localized nonzero components


def test_master_verdicts_agree_on_random_series(master_setup):
    carrier, d_fun, checker = master_setup
    for seed in range(25):
        S = random_series(carrier, WINDOW, seed)
        rep = certify_dg_algebra(S, carrier, d_fun, checker, WINDOW)
        assert rep.agree, seed


def _nc_block_differential(NC, d_fun):
    def diff(x: SumElement) -> SumElement:
        out = SumElement()
        for idx, v in x.items():
            acc = GradedVector()
            for be, c in v.terms.items():
                blocks = NC._split(be)
                for k, (bidx, b, labels) in enumerate(blocks):
                    img = d_fun(bidx, GradedVector.unit(b))
                    if img.is_zero():
                        continue
                    sign = -1 if sum(bb.degree for _, bb, _
                                     in blocks[:k]) % 2 else 1
                    for b2, c2 in img.terms.items():
                        nb = blocks[:k] + [(bidx, b2, labels)] + blocks[k + 1:]
                        s2, norm = NC.normalize(nb)
                        if s2:
                            acc = acc + GradedVector.unit(
                                NC._be(norm), c * c2 * sign * s2)
            from opforge.brackets import _bucketed
            out = out + _bucketed(NC, idx, acc)
        return out

    return diff


def _nc_embed(NC, S: MasterSeries) -> SumElement:
    out = SumElement()
    for idx, v in S.terms.items():
        acc = GradedVector()
        for be, c in v.terms.items():
            acc = acc + GradedVector.unit(
                NC._be([(idx, be, tuple(range(idx[1])))]), c)
        out = out + SumElement.single(idx, acc)
    return out


def _one_block_part(NC, x: SumElement) -> dict:
    """Single-block components unwrapped back to carrier vectors."""
    out = {}
    for idx, v in x.items():
        acc = GradedVector()
        for be, c in v.terms.items():
            blocks = NC._split(be)
            if len(blocks) != 1:
                continue
            bidx, b, labels = blocks[0]
            p = tuple(labels.index(k) for k in range(len(labels)))
            img = NC.base.act(bidx, p, GradedVector.unit(b))
            acc = acc + img.scale(c)
        if not acc.is_zero():
            out[idx] = acc
    return out


def test_exponential_identity_order_two(master_setup):
    # (d + Delta) e^S truncated at two box-powers reproduces the master
    # left-hand side on single-block components
    carrier, d_fun, checker = master_setup
    NC = NcTensorExtension(carrier, max_factors=2)
    d_nc = _nc_block_differential(NC, d_fun)
    for seed in (0, 3):
        S = random_series(carrier, {(0, 3): None, (0, 4): None} and
                          [(0, 3), (0, 4)], seed)
        Snc = _nc_embed(NC, S)
        e2 = Snc + boxminus(Snc, Snc, NC).scale(Q(1, 2))
        total = d_nc(e2) + delta(e2, NC)
        got = _one_block_part(NC, total)
        want = master_lhs(S, carrier, d_fun)
        for idx in [(0, 3), (0, 4), (1, 1), (1, 2)]:
            g = carrier.average(idx, got.get(idx, GradedVector()))
            w = carrier.average(idx, want.parts.get(idx, GradedVector()))
            assert g == w, (seed, idx)


def test_closed_window():
    w = closed_window([(1, 3)], 2)
    assert (0, 0) in w and (1, 7) in w
