import itertools
import random
from fractions import Fraction as Q

from hypothesis import given, settings
from hypothesis import strategies as st

from opforge.gradedlin import (BE, GradedVector, GroupAction, all_perms,
                               average, compose, coords_in_span,
                               cyclic_operator_N, det_line, det_merge_sign,
                               identity_perm, independent_rows, invert,
                               in_span, koszul_sign, koszul_swap, long_cycle,
                               perm_sign, permute_factors, rank_of, rref,
                               suspend,
                               swap_pair_vector, tensor2, wedge_extract,
                               wedge_normalize, wedge_reorder_sign)


def test_exact_arithmetic_roundtrip():
    a = GradedVector.unit(BE("a", 0), Q(1, 3))
    b = GradedVector.unit(BE("b", 2), Q(5, 7))
    assert (a + b - b) == a
    assert (a + b - b - a).is_zero()


def test_perm_basics():
    p = (1, 2, 0)
    assert compose(p, invert(p)) == identity_perm(3)
    assert perm_sign(p) == 1
    assert perm_sign((1, 0, 2)) == -1
    assert long_cycle(4) == (1, 2, 3, 0)


def test_koszul_sign_against_bubble_count():
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randrange(1, 6)
        p = tuple(rng.sample(range(n), n))
        degs = [rng.randrange(0, 3) for _ in range(n)]
        # independent oracle: perform adjacent swaps and multiply signs
        arr = list(range(n))
        sign = 1
        target = [0] * n
        for i, j in enumerate(p):
            target[j] = i
        for i in range(n):
            j = arr.index(target[i])
            while j > i:
                s1, s2 = degs[arr[j - 1]], degs[arr[j]]
                if s1 % 2 and s2 % 2:
                    sign = -sign
                arr[j - 1], arr[j] = arr[j], arr[j - 1]
                j -= 1
        assert koszul_sign(p, degs) == sign


def test_koszul_swap_signs():
    one = BE("u", 1)
    assert koszul_swap(GradedVector.unit(one), GradedVector.unit(BE("v", 1))) \
        .terms[next(iter(koszul_swap(GradedVector.unit(one), GradedVector.unit(BE("v", 1))).terms))] == -1
    # deg 0 x deg k -> +1
    v = koszul_swap(GradedVector.unit(BE("a", 0)), GradedVector.unit(BE("b", 5)))
    assert list(v.terms.values()) == [Q(1)]


def test_koszul_swap_involutive():
    for da, db in itertools.product(range(3), repeat=2):
        v = tensor2(GradedVector.unit(BE("a", da)), GradedVector.unit(BE("b", db)))
        assert swap_pair_vector(swap_pair_vector(v)) == v


def test_suspend_roundtrip_and_degree():
    v = GradedVector.unit(BE("a", 2), Q(3))
    assert suspend(suspend(v, 1), -1) == v
    assert next(iter(suspend(v, 4).terms)).degree == 6


def test_det_line():
    l3 = det_line(["a", "b", "c"])
    assert l3.degree == -3
    assert l3.char({"a": "b", "b": "a", "c": "c"}) == -1
    assert det_line([]).degree == 0
    # factorization sign oracle on |S| <= 5: explicit permutation parity
    for k in range(1, 5):
        s = [f"s{i}" for i in range(k)]
        t = [f"t{i}" for i in range(5 - k)]
        word = tuple(sorted(s)) + tuple(sorted(t))
        merged = tuple(sorted(word))
        assert det_merge_sign(s, t) == wedge_reorder_sign(word, merged)


def test_det_factorization_commutes_with_actions():
    # permuting S and T separately then merging equals merging then permuting
    s = ["a", "b"]
    t = ["c", "d", "e"]
    full = det_line(s + t)
    rng = random.Random(5)
    for _ in range(20):
        ps = rng.sample(s, len(s))
        pt = rng.sample(t, len(t))
        m = dict(zip(s, ps))
        m.update(dict(zip(t, pt)))
        lhs = det_line(s).char({k: m[k] for k in s}) * \
            det_line(t).char({k: m[k] for k in t})
        assert lhs == full.char(m)


def test_wedge_utilities():
    assert wedge_normalize(["e2", "e1"]) == (-1, ("e1", "e2"))
    assert wedge_normalize(["e1", "e1"]) == (0, ())
    sign, rest = wedge_extract(("a", "b", "c"), "c")
    assert sign == 1 and rest == ("a", "b")
    sign, rest = wedge_extract(("a", "b", "c"), "b")
    assert sign == -1 and rest == ("a", "c")


def _swap_action(n=2):
    # swap two basis vectors e0, e1
    e = [BE(f"e{i}", 0) for i in range(n)]

    def apply_basis(g, be):
        if g == "id":
            return GradedVector.unit(be)
        i = int(be.ident[1])
        return GradedVector.unit(e[(i + 1) % 2])

    return e, GroupAction(["id", "swap"], apply_basis)


def test_average_swap():
    e, act = _swap_action()
    v = average(act, GradedVector.unit(e[0]))
    assert v == (GradedVector.unit(e[0], Q(1, 2)) + GradedVector.unit(e[1], Q(1, 2)))
    assert average(act, v) == v  # idempotent, invariant fixed


def test_average_dimension_matches_coinvariants_oracle():
    # random signed permutation actions of a cyclic group on dim <= 6
    rng = random.Random(23)
    for trial in range(15):
        dim = rng.randrange(1, 7)
        order = rng.randrange(1, 5)
        e = [BE(f"e{i}", 0) for i in range(dim)]
        perm = tuple(rng.sample(range(dim), dim))
        signs = [rng.choice([1, -1]) for _ in range(dim)]

        def apply_one(be):
            i = int(be.ident[1:])
            return GradedVector.unit(e[perm[i]], signs[i])

        def apply_k(k, be):
            v = GradedVector.unit(be)
            for _ in range(k):
                v = v.map_basis(apply_one)
            return v

        # close the cyclic group generated by the map
        powers = [0]
        k = 1
        while True:
            if all(apply_k(k, b) == GradedVector.unit(b) for b in e):
                break
            powers.append(k)
            k += 1
            if k > 24:
                break
        act = GroupAction(powers, lambda g, be: apply_k(g, be))
        inv_dim = rank_of([dict(average(act, GradedVector.unit(b)).terms) for b in e])
        # coinvariants: quotient by span{g.v - v}
        diffs = []
        for g in act.elements:
            for b in e:
                d = act.apply(g, GradedVector.unit(b)) - GradedVector.unit(b)
                if not d.is_zero():
                    diffs.append(dict(d.terms))
        coinv_dim = dim - rank_of(diffs)
        assert inv_dim == coinv_dim


def test_cyclic_operator_n():
    e = [BE(f"e{i}", 0) for i in range(3)]

    def apply_basis(g, be):
        i = int(be.ident[1])
        return GradedVector.unit(e[(i + g) % 3])

    act = GroupAction([0, 1, 2], apply_basis, t=1)
    v = GradedVector.unit(e[0])
    nv = cyclic_operator_N(act, v, 2)
    assert nv == sum((GradedVector.unit(x) for x in e), GradedVector())
    # T N = N
    assert act.apply(1, nv) == nv
    # identity action: N = (n+1) id
    act_id = GroupAction([0], lambda g, be: GradedVector.unit(be), t=0)
    assert cyclic_operator_N(act_id, v, 2) == v.scale(3)
    # N^2 = (n+1) N on invariant inputs
    assert cyclic_operator_N(act, nv, 2) == nv.scale(3)


def test_linear_algebra():
    assert rank_of([{"a": Q(1), "b": Q(2)}, {"a": Q(2), "b": Q(4)}]) == 1
    assert in_span([{"a": Q(1)}, {"b": Q(1)}], {"a": Q(3), "b": Q(5)})
    assert not in_span([{"a": Q(1), "b": Q(1)}], {"a": Q(1), "b": Q(2)})
    coords = coords_in_span([{"a": Q(2)}, {"b": Q(3)}], {"a": Q(1), "b": Q(1)})
    assert coords == [Q(1, 2), Q(1, 3)]
    # a dependent basis: later dependent members get 0, zero members too
    basis = [{}, {"a": 1}, {"a": 2}, {"b": Q(1, 2)}, {"a": 1, "b": 1}]
    coords = coords_in_span(basis, {"a": 3, "b": 1})
    assert coords == [0, 3, 0, 2, 0]
    assert all(isinstance(c, Q) for c in coords)
    assert independent_rows(basis) == [1, 3]
    assert rank_of(basis) == 2
    assert coords_in_span(basis, {"c": 1}) is None
    assert coords_in_span(basis, {"a": 0}) == [0] * 5


# --------------------------------------------------------------------------
# oracle: the sparse elimination against dense rref on random matrices

KEYS = ["a", "b", "c", ("d", 1), 5, "f"]
COEFFS = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def _dense(vectors):
    keys = sorted({k for v in vectors for k in v}, key=repr)
    return keys, [[Q(v.get(k, 0)) for k in keys] for v in vectors]


def _dense_rank(vectors):
    _, mat = _dense(vectors)
    return len(rref(mat)[1]) if mat else 0


def _dense_greedy(vectors):
    keep = []
    for i, v in enumerate(vectors):
        if _dense_rank([vectors[j] for j in keep] + [v]) > len(keep):
            keep.append(i)
    return keep


def _dense_coords(basis, target):
    """Solve basis^T x = target by reducing the augmented transpose."""
    keys, mat = _dense(list(basis) + [target])
    n = len(basis)
    coords = [Q(0)] * n
    if not keys:
        return coords
    aug = [[mat[i][j] for i in range(n + 1)] for j in range(len(keys))]
    red, pivots = rref(aug)
    if n in pivots:
        return None
    for row, c in zip(red, pivots):
        coords[c] = row[n]
    return coords


def _combination(draw, rows):
    out = {}
    for row in draw(st.lists(st.sampled_from(rows), min_size=1, max_size=3)):
        c = draw(COEFFS)
        for k, x in row.items():
            out[k] = out.get(k, Q(0)) + c * x
    return out


@st.composite
def sparse_rows(draw, max_rows=7):
    """Rows with zero rows, explicit zeros, repeats and combinations."""
    rows = []
    for _ in range(draw(st.integers(0, max_rows))):
        kinds = ["fresh", "zero", "repeat", "combination"] if rows \
            else ["fresh", "zero"]
        kind = draw(st.sampled_from(kinds))
        if kind == "fresh":
            keys = draw(st.lists(st.sampled_from(KEYS), max_size=4,
                                 unique=True))
            row = {k: draw(COEFFS) for k in keys}
        elif kind == "zero":
            row = draw(st.sampled_from([{}, {"a": Q(0)}]))
        elif kind == "repeat":
            row = dict(draw(st.sampled_from(rows)))
        else:
            row = _combination(draw, rows)
        rows.append(row)
    return rows


@settings(deadline=None)
@given(sparse_rows())
def test_rank_of_matches_dense_rref(rows):
    assert rank_of(rows) == _dense_rank(rows)


@settings(deadline=None)
@given(sparse_rows())
def test_independent_rows_matches_greedy_dense_selection(rows):
    assert independent_rows(rows) == _dense_greedy(rows)


@settings(deadline=None)
@given(sparse_rows(), st.data())
def test_coords_in_span_matches_dense_transposed_solve(basis, data):
    if basis and data.draw(st.booleans()):
        target = _combination(data.draw, basis)
    else:
        keys = data.draw(st.lists(st.sampled_from(KEYS), max_size=4,
                                  unique=True))
        target = {k: data.draw(COEFFS) for k in keys}
    got = coords_in_span(basis, target)
    assert got == _dense_coords(basis, target)
    if got is not None:
        assert all(isinstance(c, Q) for c in got)
        rebuilt = {}
        for c, row in zip(got, basis):
            for k, x in row.items():
                rebuilt[k] = rebuilt.get(k, Q(0)) + c * x
        assert {k: x for k, x in rebuilt.items() if x} == \
            {k: x for k, x in target.items() if x}
