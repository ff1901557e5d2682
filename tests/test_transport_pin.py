"""Pinned answers of every construction that moves tensor factors.

Vertex words (graph decorations, the free construction's gluings and S_n
action) and row words (the PROP generated by an operad, the nc operad, the
nc tensor extension) act on their factors by one rule: move the factors,
then act on each factor by the permutation its positions went through.
Each corpus below dumps every group element on every basis element and
every gluing over its listed indices, sorted, and compares the sha256 of
the dump with a digest recorded while five separate loops implemented the
rule, before they became `smodules.transport`.  The `brackets` corpus
dumps the brackets, Delta and the horizontal product on basis elements and
on sums of them, as they were while each kept its own summing loop.  The
`contractions` and `evaluate` corpora dump the Feynman transform's
one-edge contraction index and the free construction's `evaluate`, as they
were while every decoration contracted its edge on its own.

The `nc_tensor` and `brackets` digests were recorded again when the nc
tensor extension's gluings began to answer in its own basis, each glued
block stored on its sorted labels.  Of the 6 656 `nc_tensor` records, 131
changed (90 `self`, 41 `circ_st`); of the 3 666 `brackets` records, 36 (30
distinct, every one an `nc-tensor` `cyclic_bracket`).  Each changed record
equals the old one sent through the extension's action at the identity
permutation, component by component; the action and box records did not
change.
"""

import contextlib
import hashlib
import inspect
import io

import pytest
from master_oracle import MorphismChecker

from opforge import brackets as B
from opforge import cli
from opforge import graphs as G
from opforge.brackets import SumElement
from opforge.errors import KindMismatch, TruncationExceeded
from opforge.gradedlin import BE, GradedVector
from opforge.smodules import (BilinearForm, CyclicEnd, EndOperad, EndProp,
                              ModularE, decorate, naive_shift,
                              operadic_suspension)
from opforge.transform import (DgInstance, FeynmanTransform, NcOperad,
                               NcTensorExtension, PropFromOperad,
                               build_master_carrier, free_construct,
                               modular_e_differential, nc_extension,
                               random_series, trivial_modular_generator)


def _vec(v):
    return tuple(sorted((repr(b.ident), b.degree, str(c))
                        for b, c in v.terms.items()))


def _try(f):
    try:
        return _vec(f())
    except (TruncationExceeded, KindMismatch) as exc:
        return type(exc).__name__


def _digest(records):
    text = "\n".join(sorted(repr(r) for r in records))
    return hashlib.sha256(text.encode()).hexdigest()


def _actions(o, indices, records):
    for idx in indices:
        act = o.action(idx)
        for be in o.component(idx):
            records.append(("basis", idx, repr(be.ident), be.degree))
            for g in act.elements:
                records.append(("act", idx, g, repr(be.ident),
                                _vec(act.apply_basis(g, be))))


def _pairs(o, indices):
    for ai in indices:
        for bi in indices:
            for a in o.component(ai):
                for b in o.component(bi):
                    yield ai, a, bi, b


def _odd_line():
    # one odd vector y with y.y = 1: every factor is odd, so every Koszul
    # sign of a move shows in the answers
    space = [BE("y", 1)]
    return space, BilinearForm(space, {("y", "y"): 1}, degree=-2,
                               symmetry="antisym")


def _odd_plane():
    space = [BE("x", 0), BE("y", -1)]
    return space, BilinearForm(space, {("x", "y"): 1, ("y", "x"): 1},
                               degree=1, symmetry="sym")


def prop_records():
    records = []
    for degree in (0, 1):
        P = PropFromOperad(EndOperad([BE("x", degree)]), 4, 3)
        indices = [(2, 1), (2, 2), (3, 2)]
        _actions(P, indices, records)
        for ai, a, bi, b in _pairs(P, indices):
            for i in range(ai[0]):
                for j in range(bi[1]):
                    records.append(("circ_st", degree, ai, a.ident, i, bi,
                                    b.ident, j, _try(lambda: P.circ_st_basis(
                                        ai, a, i, bi, b, j))))
            records.append(("box", degree, ai, a.ident, bi, b.ident,
                            _try(lambda: P.box_basis(ai, a, bi, b))))
    return records


def nc_operad_records():
    records = []
    for degree in (0, 1):
        N = NcOperad(EndOperad([BE("x", degree)], max_arity=8))
        indices = [1, 2, 3, 4]
        _actions(N, indices, records)
        for ai, a, bi, b in _pairs(N, indices):
            if ai + bi - 1 in indices:
                for i in range(1, ai + 1):
                    records.append(("circ", degree, ai, a.ident, i, bi,
                                    b.ident, _try(lambda: N.circ_basis(
                                        ai, a, i, bi, b))))
            if ai + bi in indices:
                records.append(("box", degree, ai, a.ident, bi, b.ident,
                                _try(lambda: N.box_basis(ai, a, bi, b))))
    return records


def nc_tensor_records():
    records = []
    for space, form in (_odd_line(), _odd_plane()):
        E = ModularE(space, form, max_flags=6, max_genus=3)
        NC = NcTensorExtension(E, 2)
        indices = [(0, 3), (0, 4)]
        _actions(NC, indices, records)
        for ai in indices:
            for a in NC.component(ai):
                for s in range(ai[1]):
                    for t in range(s + 1, ai[1]):
                        records.append(("self", ai, a.ident, s, t, _try(
                            lambda: NC.self_basis(ai, a, s, t))))
        if len(space) > 1:
            continue  # the plane's 400 000 gluings would take 12 s
        for ai, a, bi, b in _pairs(NC, indices):
            for s in range(ai[1]):
                for t in range(bi[1]):
                    records.append(("circ_st", ai, a.ident, s, bi, b.ident, t,
                                    _try(lambda: NC.circ_st_basis(
                                        ai, a, s, bi, b, t))))
            records.append(("box", ai, a.ident, bi, b.ident,
                            _try(lambda: NC.box_basis(ai, a, bi, b))))
    return records


def _decorate(src, graph):
    """decorate in the source's own flavor, with or without the argument
    that names it."""
    if "flavor" in inspect.signature(decorate).parameters:
        return decorate(src, graph, "modular")
    return decorate(src, graph)


def theta_graph():
    return G.Graph(["a", "b"], ["f1", "f2", "f3", "g1", "g2", "g3"],
                   {"f1": "g1", "g1": "f1", "f2": "g2", "g2": "f2",
                    "f3": "g3", "g3": "f3"},
                   {"f1": "a", "f2": "a", "f3": "a",
                    "g1": "b", "g2": "b", "g3": "b"})


def decorate_records():
    records = []
    two = G.graft(G.corolla("u", ["a", "b", "c"]), "c",
                  G.corolla("w", ["d", "e", "f"]), "d")
    for name, graph in (("theta", theta_graph()), ("graft", two)):
        for space, form in (_odd_line(), _odd_plane()):
            E = ModularE(space, form, max_flags=6, max_genus=3)
            basis, act, vorder = _decorate(E, graph)
            records.append(("vorder", name, tuple(vorder)))
            for be in basis:
                records.append(("basis", name, repr(be.ident), be.degree))
                for vmap, fmap in act.elements:
                    g = (tuple(sorted(vmap.items())),
                         tuple(sorted(fmap.items())))
                    records.append(("act", name, g, repr(be.ident),
                                    _vec(act.apply_basis((vmap, fmap), be))))
    return records


def nc_free_records():
    records = []
    NC = free_construct(trivial_modular_generator([(0, 3)]), "nc-modular",
                        "K", 2)
    indices = [(0, 3), (0, 4), (1, 1), (1, 2)]
    for idx in indices:
        for block in NC.blocks(idx):
            records.append(("block", idx, block.key,
                            tuple(repr(b.ident) for b in block.raw_basis),
                            tuple(tuple(sorted((repr(b.ident), str(c))
                                               for b, c in vec.items()))
                                  for vec in block.inv_vectors)))
    _actions(NC, indices, records)
    for ai, a, bi, b in _pairs(NC, indices):
        for s in range(ai[1]):
            for t in range(bi[1]):
                records.append(("circ_st", ai, a.ident, s, bi, b.ident, t,
                                _try(lambda: NC.circ_st_basis(
                                    ai, a, s, bi, b, t))))
        records.append(("box", ai, a.ident, bi, b.ident,
                        _try(lambda: NC.box_basis(ai, a, bi, b))))
    for ai in indices:
        for a in NC.component(ai):
            for s in range(ai[1]):
                for t in range(s + 1, ai[1]):
                    records.append(("self", ai, a.ident, s, t,
                                    _try(lambda: NC.self_basis(ai, a, s, t))))
    return records


def odd_free_records():
    """The free K-modular construction on odd (0,3) and (0,4) generators:
    a piece with an odd number of edges glued after an odd decoration
    takes the Koszul sign of the edges passing it.  Its box is that of the
    nc version, since the connected kind has none."""
    records = []
    F = free_construct(trivial_modular_generator([(0, 3), (0, 4)], degree=1),
                       "modular", "K", 2)
    NC = nc_extension(F)
    indices = [(0, 3), (0, 4), (0, 5)]
    _actions(F, indices, records)
    for ai, a, bi, b in _pairs(F, indices):
        for s in range(ai[1]):
            for t in range(bi[1]):
                records.append(("circ_st", ai, a.ident, s, bi, b.ident, t,
                                _try(lambda: F.circ_st_basis(
                                    ai, a, s, bi, b, t))))
        records.append(("box", ai, a.ident, bi, b.ident,
                        _try(lambda: F.box_basis(ai, a, bi, b))))
    for ai, a, bi, b in _pairs(NC, indices):
        records.append(("nc-box", ai, a.ident, bi, b.ident,
                        _try(lambda: NC.box_basis(ai, a, bi, b))))
    for ai in indices:
        for a in F.component(ai):
            for s in range(ai[1]):
                for t in range(s + 1, ai[1]):
                    records.append(("self", ai, a.ident, s, t,
                                    _try(lambda: F.self_basis(ai, a, s, t))))
    return records


def feynman_records():
    records = []
    for space, form in (_odd_line(), ([BE("x", 0)], BilinearForm(
            [BE("x", 0)], {("x", "x"): 1}, degree=0, symmetry="sym"))):
        E = ModularE(space, form, max_flags=8, max_genus=2)
        window = [(0, 3), (0, 4), (1, 1), (1, 2)]
        F = FeynmanTransform(DgInstance(E), window, 2)
        for idx in window:
            for be in F.free.component(idx):
                x = SumElement.single(idx, GradedVector.unit(be))
                records.append(("d", idx, repr(be.ident), tuple(
                    (i, _vec(v)) for i, v in sorted(F.d(x).items()))))
    return records


def contraction_records():
    """The one-edge contraction index of component (0,2) of the Feynman
    transform of a dg E(V): V has basis a, b, c, z of degrees -1, 0, 0, 1,
    the even form pairs a with z and b with c, and d a = b, d c = z."""
    space = [BE("a", -1), BE("b", 0), BE("c", 0), BE("z", 1)]
    form = BilinearForm(space, {("a", "z"): 1, ("b", "c"): 1}, degree=0,
                        symmetry="sym")
    E = ModularE(space, form, max_flags=6, max_genus=2)
    diff = modular_e_differential(E, {
        "a": GradedVector.unit(BE("b", 0)), "c": GradedVector.unit(BE("z", 1))})
    F = FeynmanTransform(DgInstance(E, diff), [(0, 2)], 1, close_window=False)
    records = []
    for key, entries in F._contractions_into((0, 2)).items():
        for bhat, word_sign, by_phi in entries:
            records.append(("contract", repr(key), repr(bhat.key), word_sign))
            for phi, images in by_phi.items():
                records.append(("by_phi", repr(key), repr(bhat.key),
                                repr(phi.ident), phi.degree, tuple(sorted(
                                    (repr(x.ident), x.degree, str(c))
                                    for x, c in images))))
    return records


def evaluate_records():
    """`FreeTwisted.evaluate` on every basis element of the window and on
    the gluings of the generators, for the generator map of a random
    series of the master-equation carrier E(W (x) V)."""
    w_space, v_space = [BE("wp", 1), BE("wm", -1)], [BE("x", 0), BE("y", -1)]
    v_diff = {"y": GradedVector.unit(BE("x", 0))}
    window = [(0, 3), (0, 4), (1, 1), (1, 2)]
    carrier, _, _, (bw, bv) = build_master_carrier(
        w_space, {("wp", "wm"): 1}, v_space, {("x", "y"): 1}, v_diff)
    oracle = MorphismChecker(w_space, v_space, v_diff, window, carrier.form)
    series = random_series(carrier, window, 1)
    target = ModularE(v_space, bv, max_flags=4, max_genus=1)
    free = FeynmanTransform(
        DgInstance(ModularE(w_space, bw, max_flags=4, max_genus=1)), window,
        1, close_window=False).free

    def gen_map(loc, x):
        table = oracle.m_hat(series, loc, x.ident[1][2])
        return GradedVector({target._be([BE(i, d) for i, d in k], *loc): c
                             for k, c in table.items()})

    inputs = [(idx, GradedVector.unit(be))
              for idx in window for be in free.component(idx)]
    gens = [be for be in free.component((0, 3))
            if not free.expand((0, 3), be)[0].graph.edges()]
    inputs += [((0, 4), free.circ_st_basis((0, 3), x, s, (0, 3), y, t))
               for x in gens for y in gens for s in range(3) for t in range(3)]
    inputs += [((1, 2), free.self_basis((0, 4), x, s, t))
               for x in free.component((0, 4))
               if not free.expand((0, 4), x)[0].graph.edges()
               for s in range(4) for t in range(s + 1, 4)]
    return [("evaluate", idx, _vec(v),
             _vec(free.evaluate(idx, v, target, gen_map)))
            for idx, v in inputs]


def _sum_parts(f):
    try:
        return tuple((repr(idx), _vec(v)) for idx, v in f().items())
    except (TruncationExceeded, KindMismatch) as exc:
        return type(exc).__name__


def _bracket_inputs(o, indices):
    """Every basis element alone, the sum over each component with distinct
    coefficients, and the sum of those: sums make gluings of different
    basis pairs and different components land on the same terms."""
    singles = [SumElement.single(idx, GradedVector.unit(be))
               for idx in indices for be in o.component(idx)]
    totals = [SumElement({idx: GradedVector(
        {be: k + 1 for k, be in enumerate(o.component(idx))})})
        for idx in indices]
    grand = SumElement()
    for t in totals:
        grand = grand + t
    return singles + totals + [grand]


def _shifted_plane():
    space = [BE("x", 1), BE("y", -1)]
    return space, BilinearForm(space, {("x", "y"): 1}, degree=0,
                               symmetry="sym")


def brackets_records():
    space, form = _shifted_plane()
    E = EndOperad(space, max_arity=3)
    wheeled = EndProp([BE("x", 0), BE("y", 1)], max_in=4, max_out=4,
                      wheeled=True)
    bimodule = (B.dioperadic_product, B.dioperadic_bracket, B.boxminus)
    instances = (
        ("end", E, [1, 2], (B.prelie, B.lie_bracket), ()),
        ("odd-end", naive_shift(operadic_suspension(E), "sigma"), [1, 2],
         (B.prelie, B.odd_bracket), ()),
        ("cyclic", CyclicEnd(space, form, max_arity=3), [1, 2],
         (B.prelie, B.lie_bracket, B.cyclic_bracket), ()),
        ("odd-modular", ModularE(*_odd_plane(), max_flags=6, max_genus=3),
         [(0, 2), (0, 3)], (B.cyclic_bracket,), (B.delta,)),
        ("wheeled", wheeled, [(1, 1), (2, 1)], bimodule, (B.delta,)),
        ("odd-wheeled", naive_shift(wheeled, "out"), [(1, 1), (2, 1)],
         bimodule, (B.delta,)),
        ("nc-tensor", NcTensorExtension(
            ModularE(*_odd_line(), max_flags=6, max_genus=3), 4),
         [(0, 2), (0, 3), (1, 1)], (B.cyclic_bracket, B.boxminus),
         (B.delta,)),
        # the nc free construction of the coinvariants benchmark
        ("nc-free", nc_extension(free_construct(
            trivial_modular_generator([(0, 3)]), "modular", "K", 2)),
         [(0, 3), (0, 4), (1, 1)], (B.cyclic_bracket, B.boxminus),
         (B.delta,)),
    )
    records = []
    for name, o, indices, binary, unary in instances:
        xs = _bracket_inputs(o, indices)
        for x in xs:
            for op in unary:
                records.append((name, op.__name__, repr(x),
                                _sum_parts(lambda: op(x, o))))
            for y in xs:
                for op in binary:
                    records.append((name, op.__name__, repr(x), repr(y),
                                    _sum_parts(lambda: op(x, y, o))))
    return records


FREE_INPUT = '{"types": [[0, 3]], "report": [[0, 3], [0, 4], [1, 1], [1, 2]]}'
FEYNMAN_INPUT = ('{"builtin": {"name": "modular-e", "space": [["x", 0]],'
                 ' "max_flags": 8, "max_genus": 2, "form": {"entries":'
                 ' {"x|x": 1}, "degree": 0, "symmetry": "sym"}}}')


def cli_records(tmp_path, monkeypatch):
    (tmp_path / "g.json").write_text(FREE_INPUT, encoding="utf-8")
    (tmp_path / "e.json").write_text(FEYNMAN_INPUT, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    records = []
    for argv in (("free", "--generators", "g.json", "--kind", "nc-modular",
                  "--twist", "K", "--bound", "2"),
                 ("free", "--generators", "g.json", "--twist", "1",
                  "--bound", "3"),
                 ("--seed", "3", "feynman", "--in", "e.json", "--max-edges",
                  "2", "--samples", "5", "--window", "[[0, 3], [1, 1]]")):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(list(argv))
        records.append((argv, code, out.getvalue()))
    return records


PINNED = {
    "prop":
    "eaa677bda933377d3d6f548849ad90811ee469e476fff5f63d268c9264b60a86",
    "nc_operad":
    "16fb943ecd6ca8fb4749fd7251066f91d6ee9e0342a3b7ab0efacfb26c12438e",
    "nc_tensor":
    "36eb09807ba40e979a60bbe4a0ff867f027977d7b482a9892ce782ebaae765d4",
    "decorate":
    "8601279b2291fb499897506c14ba74b632d38c9e9a088843899b42a07f9ef45c",
    "nc_free":
    "18cfdfd36a115405f43be9cd29aa7544a8caa9eb49afceb73178925a203b6f33",
    "odd_free":
    "a919d97fb57b4932bf80b357a14ee9c32d96f30ab67fae38b8e0231a39463dee",
    "feynman":
    "daafce5cde83d8faf18e0ffc542fd8f6e4680ca3b41e1313645b47bf0da94ee0",
    "brackets":
    "fb6301573bf91fd0b9e89cf8b819bb4ebf0592514d9cd6944aa972f496dd07c1",
    "contractions":
    "7670024a336a293aaa6e9deab62c86e86e27cbd895ae5b2fbef5afca816380d9",
    "evaluate":
    "64dfe4efebc185caf81ebba38ee1078fd0aa000a59103be769e9b7e0d19c00a9",
}


@pytest.mark.parametrize("name, dump", [
    ("prop", prop_records),
    ("nc_operad", nc_operad_records),
    ("nc_tensor", nc_tensor_records),
    ("decorate", decorate_records),
    ("nc_free", nc_free_records),
    ("odd_free", odd_free_records),
    ("feynman", feynman_records),
    ("brackets", brackets_records),
    ("contractions", contraction_records),
    ("evaluate", evaluate_records),
])
def test_factor_moves_match_the_pinned_dump(name, dump):
    assert _digest(dump()) == PINNED[name]


def test_free_and_feynman_print_the_pinned_bytes(tmp_path, monkeypatch):
    assert _digest(cli_records(tmp_path, monkeypatch)) == (
        "f8983b9d34d34bab1aedb1ced8cd9baa3634f1ac85e2b46a8e9a30a9c2ee63fe")

