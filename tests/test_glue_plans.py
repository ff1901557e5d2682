"""Gluing plans and the projection memo against fresh instances.

A free construction works out each gluing once per (operation, blocks,
positions) and keeps each block's projections by raw vector.  An instance
that already answered calls must answer every call as a fresh instance
does, a gluing past the edge bound included, which raises every time.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from opforge.errors import KindMismatch, TruncationExceeded
from opforge.gradedlin import GradedVector, all_perms
from opforge.transform import (free_construct, free_operad, nc_extension,
                               trivial_modular_generator,
                               trivial_operadic_generator)


def _nc_free():
    return nc_extension(free_construct(trivial_modular_generator([(0, 3)]),
                                       "modular", "K", 2))


def _odd_free():
    # odd generators: the Koszul flip of a gluing shows in the answers
    gen = trivial_modular_generator([(0, 3), (0, 4)], degree=1)
    return free_construct(gen, "modular", "K", 2)


INSTANCES = {
    "nc-free": (_nc_free, [(0, 3), (0, 4), (1, 1), (1, 2)]),
    "odd-free": (_odd_free, [(0, 3), (0, 4), (0, 5)]),
    "odd-nc-free": (lambda: nc_extension(_odd_free()),
                    [(0, 3), (0, 4), (0, 5)]),
    "free-operad": (lambda: free_operad(trivial_operadic_generator([2, 3]),
                                         2), [2, 3, 4]),
}

MODULAR_OPS = ("circ_st", "self", "box", "act", "class", "project")


def _pick(o, indices, k, j):
    idx = indices[k % len(indices)]
    basis = o.component(idx)
    return idx, basis[j % len(basis)] if basis else None


def _answer(o, indices, call):
    """The answer of `call` on o: a vector, or the class of what it raised;
    None for a call on an empty component or a self-gluing with s = t."""
    op, k1, j1, k2, j2, s, t, coeffs = call
    ai, a = _pick(o, indices, k1, j1)
    bi, b = _pick(o, indices, k2, j2)
    if a is None or b is None:
        return None
    try:
        if op == "circ":
            return o.circ_basis(ai, a, 1 + s % ai, bi, b)
        n, m = o.arity(ai), o.arity(bi)
        if op == "circ_st":
            return o.circ_st_basis(ai, a, s % n, bi, b, t % m)
        if op == "self":
            s, t = s % n, t % n
            return None if s == t else o.self_basis(ai, a, s, t)
        if op == "box":
            return o.box_basis(ai, a, bi, b)
        if op == "act":
            perms = all_perms(n)
            return o.action(ai).apply_basis(perms[s % len(perms)], a)
        if op == "class":
            basis = o.component(ai)
            return o.coinvariant_class(ai, GradedVector(
                {be: c for be, c in zip(basis[j1 % len(basis):], coeffs)}))
        block = o.blocks(ai)[j1 % len(o.blocks(ai))]
        return o.project_raw(block, GradedVector(dict(zip(
            block.raw_basis, coeffs))))
    except (TruncationExceeded, KindMismatch) as exc:
        return type(exc)


COLD: dict = {}  # (instance, call) -> the answer of a fresh instance


def _cold(name, call):
    if (name, call) not in COLD:
        make, indices = INSTANCES[name]
        COLD[name, call] = _answer(make(), indices, call)
    return COLD[name, call]


def _sweep(call):
    """The call, then at every pair of positions below 5 and against eight
    other second blocks, or at six permutations for the action: calls
    whose plans differ only there follow each other."""
    op, k1, j1, k2, j2, s, t, coeffs = call
    if op == "act":
        return [(op, k1, j1, k2, j2, s + p, t, coeffs) for p in range(6)]
    out = [call]
    if op in ("circ_st", "self", "circ"):
        out += [(op, k1, j1, k2, j2, p, q, coeffs)
                for p in range(5) for q in range(5 if op != "circ" else 1)]
    if op in ("circ_st", "box", "circ"):
        out += [(op, k1, j1, k, j2 + q, s, t, coeffs)
                for k in range(4) for q in range(2)]
    return out


def _calls(ops):
    # sampled_from draws evenly, where integers() favours the ends
    comp, elem = st.sampled_from(range(4)), st.sampled_from(range(25))
    return st.lists(st.tuples(
        st.sampled_from(ops), comp, elem, comp, elem,
        st.sampled_from(range(120)), st.sampled_from(range(5)),
        st.lists(st.integers(-3, 3), min_size=1, max_size=3).map(tuple)),
        min_size=1, max_size=6)


def _check(name, calls):
    make, indices = INSTANCES[name]
    warm = make()
    for call in calls:
        for swept in _sweep(call):
            first = _answer(warm, indices, swept)
            assert _answer(warm, indices, swept) == first
            assert _cold(name, swept) == first


@settings(deadline=None, max_examples=30)
@given(st.sampled_from(["nc-free", "odd-free", "odd-nc-free"]),
       _calls(MODULAR_OPS))
def test_a_warm_free_construction_answers_as_a_fresh_one(name, calls):
    _check(name, calls)


@settings(deadline=None, max_examples=10)
@given(_calls(("circ",)))
def test_a_warm_free_operad_grafts_as_a_fresh_one(calls):
    _check("free-operad", calls)


def test_a_gluing_past_the_edge_bound_raises_on_every_call():
    for name, op in (("nc-free", "circ_st"), ("nc-free", "box"),
                     ("odd-free", "circ_st"), ("odd-free", "self"),
                     ("odd-nc-free", "box"),
                     ("free-operad", "circ")):
        make, indices = INSTANCES[name]
        probe = make()
        sizes = [len(probe.component(idx)) for idx in indices]
        past = [c for k1, n1 in enumerate(sizes) for k2, n2 in enumerate(sizes)
                for j1 in range(n1) for j2 in range(min(n2, 3))
                for c in [(op, k1, j1, k2, j2, 0, 1, (1,))]
                if _answer(probe, indices, c) is TruncationExceeded]
        assert past, (name, op)
        o = make()
        for call in past[:3] * 2:
            assert _answer(o, indices, call) is TruncationExceeded
