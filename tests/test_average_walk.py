"""`average` along the Cayley-graph walk against the element loop.

Every built-in S_n action is built by `symmetric_action`, and `average`
reaches its elements by applying adjacent transpositions only.  The oracle
is the same elements and the same `apply_basis` summed one element at a
time: a `GroupAction` without generators.  Both sums scale to integers and
divide once; they are also checked against the plain `Fraction` sum on an
action whose images have non-unit rational coefficients.
"""

import functools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opforge.gradedlin import (BE, GradedVector, GroupAction, Q, all_perms,
                               average, perm_sign, symmetric_action)
from opforge.smodules import (BilinearForm, CyclicEnd, EndOperad, ModularE,
                              TableInstance, TrivialCyclic, dump_instance,
                              operadic_suspension, tensor_structures)
from opforge.transform import (NcOperad, NcTensorExtension, free_construct,
                               free_operad, nc_extension,
                               trivial_modular_generator,
                               trivial_operadic_generator)

V = [BE("x", 0), BE("y", 1)]
W = [BE("p", 1), BE("q", -1)]


def _sym_form():
    return BilinearForm([BE("x", 0)], {("x", "x"): 1})


def _symplectic():
    return BilinearForm(W, {("p", "q"): 1}, symmetry="antisym")


def _free(twist, nc):
    o = free_construct(trivial_modular_generator([(0, 3), (1, 1)]),
                       "modular", twist, 2)
    return nc_extension(o) if nc else o


# case -> (instance factory, component indices); the components reach S_6
CASES = {
    "free-K": (lambda: _free("K", False), [(0, 5), (1, 3)]),
    "free-1": (lambda: _free("1", False), [(0, 5), (1, 3)]),
    "nc-free-K": (lambda: _free("K", True), [(0, 6), (1, 4)]),
    "nc-free-1": (lambda: _free("1", True), [(0, 6), (1, 4)]),
    "nc-tensor": (lambda: NcTensorExtension(ModularE(W, _symplectic()), 2),
                  [(0, 4)]),
    "modular-e": (lambda: ModularE(W, _symplectic()), [(0, 5)]),
    "end": (lambda: EndOperad(V, 4), [3, 4]),
    "cyclic-end": (lambda: CyclicEnd([BE("x", 0)], _sym_form(), 4), [3]),
    "anti-cyclic-end": (lambda: CyclicEnd(W, _symplectic(), 4), [2, 3]),
    "trivial-cyclic": (lambda: TrivialCyclic(), [3]),
    "suspended-end": (lambda: operadic_suspension(EndOperad(V, 4)), [3]),
    "suspended-cyclic-end": (
        lambda: operadic_suspension(CyclicEnd(W, _symplectic(), 4)), [3]),
    "tensor": (lambda: tensor_structures(EndOperad(V, 4),
                                         EndOperad([BE("z", 1)], 4)), [3]),
    "tensor-cyclic": (
        lambda: tensor_structures(CyclicEnd(W, _symplectic(), 4),
                                  CyclicEnd([BE("x", 0)], _sym_form(), 4)),
        [2, 3]),
    "nc-operad": (lambda: NcOperad(EndOperad([BE("x", 0)], 4), max_in=4),
                  [3, 4]),
    "free-operad": (lambda: free_operad(trivial_operadic_generator([2]), 3),
                    [3, 4]),
}


def _loop(act):
    return GroupAction(act.elements, act._apply_basis)


@functools.cache
def _setup(case, idx):
    """The instance, its action on the component, the loop twin, the basis.

    The instance is kept: its actions hold it only weakly."""
    make, _ = CASES[case]
    inst = make()
    act = inst.action(idx)
    return inst, act, _loop(act), inst.component(idx)


@pytest.mark.parametrize("case,idx", [(case, idx)
                                      for case, (_, idxs) in CASES.items()
                                      for idx in idxs])
@settings(deadline=None, max_examples=12)
@given(data=st.data())
def test_walk_average_equals_the_element_loop(case, idx, data):
    _, act, loop, basis = _setup(case, idx)
    assert act.generators and not loop.generators
    terms = data.draw(st.lists(st.tuples(
        st.sampled_from(basis), st.integers(-4, 4), st.integers(1, 4)),
        min_size=1, max_size=4))
    v = GradedVector()
    for be, num, den in terms:
        v = v + GradedVector.unit(be, Q(num, den))
    char = perm_sign if data.draw(st.booleans()) else None
    assert average(act, v, char) == average(loop, v, char)


def test_table_actions_and_their_tensors_keep_the_loop():
    table = TableInstance(json.loads(json.dumps(
        dump_instance(EndOperad([BE("x", 0)], 3), [1, 2, 3]))))
    both = tensor_structures(table, EndOperad(V, 3))
    for inst in (table, both):
        act = inst.action(3)
        assert not act.generators
        v = GradedVector.unit(inst.component(3)[0])
        assert average(act, v) == average(_loop(act), v)


def test_s7_average_glues_each_generator_image_once():
    # the coinvariants benchmark's group: a loop over S_7 glues every image
    # of every term, 5040 per term; the walk glues each (generator, basis
    # element) pair at most once, so at most 6 * 105 times on (0,7)
    nc = nc_extension(free_construct(trivial_modular_generator([(0, 3)]),
                                     "modular", "K", 2))
    idx = (0, 7)
    basis = nc.component(idx)
    assert len(basis) == 105
    calls = []
    project_raw = nc.project_raw

    def counted(*args):
        calls.append(args)
        return project_raw(*args)

    nc.project_raw = counted
    v = GradedVector({be: Q(i + 1, 2) for i, be in enumerate(basis[:6])})
    avg = nc.average(idx, v)
    assert 0 < len(calls) <= 6 * 105
    assert not avg.is_zero()
    # the loop makes 5040 gluings per term, so it is compared on one term
    one = GradedVector.unit(basis[0])
    assert nc.average(idx, one) == average(_loop(nc.action(idx)), one)


# the permutation representation of S_3 conjugated by a rational diagonal:
# g e_i = (w[g(i)] / w[i]) e_g(i), a homomorphism with non-unit images; its
# sign-twisted copy has a sign-isotypic part, where the untwisted has none
WEIGHTS = (Q(1), Q(-2, 3), Q(5, 4))
E3 = [BE(("e", i), i % 2) for i in range(3)]


def _scaled(g, be):
    i = be.ident[1]
    return GradedVector.unit(E3[g[i]], WEIGHTS[g[i]] / WEIGHTS[i])


def _scaled_signed(g, be):
    return _scaled(g, be).scale(perm_sign(g))


def _direct_average(act, v, char):
    """(1/|G|) sum_g char(g) g.v, term by term in Fractions."""
    out = GradedVector()
    for g in act.elements:
        out = out + act.apply(g, v).scale(char(g) if char else 1)
    return out.scale(Q(1, act.order()))


@pytest.mark.parametrize("apply_basis", [_scaled, _scaled_signed])
@settings(deadline=None, max_examples=30)
@given(coeffs=st.lists(st.fractions(min_value=-3, max_value=3,
                                    max_denominator=6),
                       min_size=3, max_size=3),
       sign=st.booleans())
def test_average_matches_the_direct_fraction_sum(apply_basis, coeffs, sign):
    v = GradedVector(dict(zip(E3, coeffs)))
    char = perm_sign if sign else None
    listed = GroupAction(all_perms(3), apply_basis)
    walked = symmetric_action(3, apply_basis)
    want = _direct_average(listed, v, char)
    assert average(listed, v, char) == want
    assert average(walked, v, char) == want
    if (apply_basis is _scaled_signed) == sign:
        # the isotypic part averaged onto is not zero
        assert not _direct_average(listed, GradedVector.unit(E3[0]),
                                   char).is_zero()
