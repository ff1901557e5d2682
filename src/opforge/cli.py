"""Batch front-end: parse files, dispatch verifications, emit reports.

Exit codes: 0 all-pass, 1 mathematical failure (counterexample in the
report), 2 malformed input.  All randomized suites take --seed and identical
inputs with the same seed produce byte-identical reports.  Every number in a
report is an exact fraction rendered as "p/q".
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys

from . import graphs as G
from . import twists
from .brackets import (SumElement, coinvariant_class, cyclic_bracket,
                       lie_bracket)
from .errors import ForgeError, InputError, TruncationExceeded
from .gradedlin import BE, GradedVector, Q
from .smodules import (KINDS, BilinearForm, CyclicEnd, EndOperad, EndProp,
                       ModularE, TableInstance, _ident_to_str, check_axioms)
from .transform import (DgInstance, FeynmanTransform, MasterSeries,
                        build_master_carrier, certify_dg_algebra,
                        free_construct, master_lhs_components,
                        trivial_modular_generator)

PASS, FAIL, BADINPUT = 0, 1, 2


def _max_dim_cap() -> int:
    raw = os.environ.get("FORGE_MAX_DIM", "").strip()
    if not raw:
        return 20000
    try:
        return int(raw)
    except ValueError:
        raise InputError("FORGE_MAX_DIM must be an integer")


def _required(value, flag: str):
    if value is None:
        raise InputError(f"{flag} is required")
    return value


def _count(text: str, least: int = 0) -> int:
    """An argparse type: an integer of at least `least` (0 by default)."""
    n = int(text)
    if n < least:
        raise argparse.ArgumentTypeError(f"{text} is less than {least}")
    return n


def _positive(text: str) -> int:
    """An argparse type: a count of at least 1, for a bound that checks."""
    return _count(text, 1)


def _load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}")


def _load_graph(path: str | None) -> G.Graph:
    data = _load_json(_required(path, "--in"))
    try:
        return G.Graph.from_json(data)
    except (ValueError, KeyError, TypeError) as exc:
        raise InputError(f"malformed graph in {path}: {exc!r}")


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(report, sort_keys=True,
                                    separators=(",", ":")) + "\n")
    else:
        for k in sorted(report):
            sys.stdout.write(f"{k}: {report[k]}\n")


def _space_from(data) -> list[BE]:
    return [BE(i, d) for i, d in data]


def _form_entries(data) -> dict:
    """A form or structure map keyed "a|b", as {(a, b): coefficient}."""
    return {tuple(k.split("|")): Q(v) for k, v in data.items()}


def _form_from(space, spec: dict, path: str) -> BilinearForm:
    try:
        form = spec["form"]
        entries = _form_entries(form["entries"])
        degree, symmetry = form.get("degree", 0), form.get("symmetry", "sym")
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise InputError(f"malformed form in {path}: {exc!r}")
    return BilinearForm(space, entries, degree=degree, symmetry=symmetry)


def _index_pairs(data, what: str) -> list[tuple]:
    """A list of [genus, arity] pairs of integers, as tuples."""
    try:
        pairs = [(g, n) for g, n in data]
    except (TypeError, ValueError) as exc:
        raise InputError(f"{what} must be a list of [g, n] pairs: {exc!r}")
    if not all(type(x) is int for p in pairs for x in p):
        raise InputError(f"{what} must be a list of [g, n] pairs")
    return pairs


def load_instance(path: str):
    data = _load_json(path)
    if "builtin" in data:
        spec = data["builtin"]
        name = spec.get("name")
        space = _space_from(spec.get("space", [["x", 0]]))
        if name == "end-operad":
            return EndOperad(space, max_arity=spec.get("max_arity", 4))
        if name == "cyclic-end":
            form = _form_from(space, spec, path)
            return CyclicEnd(space, form, max_arity=spec.get("max_arity", 4))
        if name == "modular-e":
            form = _form_from(space, spec, path)
            return ModularE(space, form,
                            max_flags=spec.get("max_flags", 6),
                            max_genus=spec.get("max_genus", 3))
        if name == "end-prop":
            return EndProp(space, max_in=spec.get("max_in", 3),
                           max_out=spec.get("max_out", 3),
                           wheeled=spec.get("wheeled", False))
        raise InputError(f"unknown builtin {name!r}")
    if "components" in data:
        if data.get("kind") not in KINDS:
            raise InputError(f"{path}: kind must be one of {', '.join(KINDS)}")
        try:
            return TableInstance(data, source=path)
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise InputError(f"malformed instance table in {path}: {exc!r}")
    raise InputError("instance file needs 'builtin' or 'components'")


# --------------------------------------------------------------------------
# subcommands


def cmd_graphs(args) -> int:
    if args.action == "enumerate":
        cls = {"stable": "stable-graph"}.get(args.graph_class,
                                             args.graph_class)
        sig = {}
        if args.labels:
            sig["labels"] = [str(i + 1) for i in range(args.labels)]
        if args.g is not None:
            sig["genus"] = args.g
        found = G.enumerate_graphs(cls, sig, args.max_edges)
        report = {"check": "graphs-enumerate", "class": cls,
                  "count": len(found),
                  "graphs": [g.to_json() for g in found],
                  "status": "ok"}
        _emit(report, args.format)
        return PASS
    if args.action == "canon":
        g = _load_graph(args.infile)
        canon, relabel = G.canonical_form(g)
        _emit({"check": "graphs-canon", "graph": canon.to_json(),
               "relabel": relabel, "status": "ok"}, args.format)
        return PASS
    if args.action == "auto":
        g = _load_graph(args.infile)
        auts = G.automorphisms(g)
        _emit({"check": "graphs-automorphisms", "order": len(auts),
               "elements": [{"vertices": v, "flags": f} for v, f in auts],
               "status": "ok"}, args.format)
        return PASS
    raise InputError(f"unknown graphs action {args.action!r}")


def cmd_twist(args) -> int:
    if args.action == "eval":
        cocycle = twists.parse_twist(_required(args.expr, "--expr"))
        g = _load_graph(args.infile)
        line = cocycle.line(g)
        chars = {}
        for vmap, fmap in G.automorphisms(g):
            key = json.dumps([sorted(vmap.items()), sorted(fmap.items())])
            chars[key] = line.char(vmap, fmap)
        _emit({"check": "twist-eval", "expr": args.expr,
               "degree": line.degree, "characters": chars,
               "status": "ok"}, args.format)
        return PASS
    if args.action == "verify":
        a = twists.parse_twist(_required(args.a, "--a"))
        b = twists.parse_twist(_required(args.b, "--b"))
        rep = twists.verify_isomorphism(a, b, args.family, args.max_edges,
                                        max_tails=args.max_tails)
        report = {"check": "twist-isomorphism", "a": args.a, "b": args.b,
                  "family": args.family, "bound": args.max_edges,
                  "graphs": rep.graphs_checked,
                  "status": "ok" if rep.ok else "fail"}
        if not rep.ok:
            report["counterexample"] = rep.mismatch
        _emit(report, args.format)
        return PASS if rep.ok else FAIL
    raise InputError(f"unknown twist action {args.action!r}")


def cmd_verify(args) -> int:
    inst = load_instance(args.infile)
    try:
        rep = check_axioms(inst, max_arity=args.max_arity)
    except TruncationExceeded as exc:
        raise InputError(f"{exc}; lower --max-arity") from None
    report = {"check": "axioms", "instance": args.infile,
              "bound": args.max_arity, "checked": rep.checked,
              "status": "ok" if rep.ok else "fail"}
    if not rep.ok:
        report["counterexample"] = {
            k: (str(v) if not isinstance(v, (int, str, list)) else v)
            for k, v in rep.first_failure().items()}
    _emit(report, args.format)
    return PASS if rep.ok else FAIL


def cmd_bracket(args) -> int:
    rng = random.Random(args.seed)
    if args.action == "witt":
        o = EndOperad([BE("x", 0)], max_arity=2 * args.max)
        for n in range(1, args.max + 1):
            for m in range(1, args.max + 1):
                fn = SumElement.single(n, GradedVector.unit(o.component(n)[0]))
                fm = SumElement.single(m, GradedVector.unit(o.component(m)[0]))
                br = lie_bracket(fn, fm, o)
                want = SumElement.single(
                    n + m - 1,
                    GradedVector.unit(o.component(n + m - 1)[0], n - m))
                if br != want:
                    _emit({"check": "bracket-witt", "status": "fail",
                           "counterexample": {"n": n, "m": m}}, args.format)
                    return FAIL
        _emit({"check": "bracket-witt", "bound": args.max, "status": "ok",
               "seed": args.seed}, args.format)
        return PASS
    if args.action == "jacobi":
        inst = load_instance(_required(args.infile, "--in"))
        failures = []
        checked = 0
        for _ in range(args.samples):
            ns = [rng.choice([1, 2]) for _ in range(3)]
            els = []
            for n in ns:
                comp = inst.component(n)
                els.append(SumElement.single(
                    n, GradedVector.unit(comp[rng.randrange(len(comp))],
                                         rng.randrange(1, 4))))
            degs = [v.homogeneous_degree() for e in els
                    for _, v in e.items()]
            a, b, c = els
            da, db, dc = degs
            t1 = cyclic_bracket(a, cyclic_bracket(b, c, inst), inst) \
                .scale((-1) ** ((da * dc) % 2))
            t2 = cyclic_bracket(b, cyclic_bracket(c, a, inst), inst) \
                .scale((-1) ** ((da * db) % 2))
            t3 = cyclic_bracket(c, cyclic_bracket(a, b, inst), inst) \
                .scale((-1) ** ((dc * db) % 2))
            defect = coinvariant_class(t1 + t2 + t3, inst)
            checked += 1
            if not defect.is_zero():
                failures.append({"arities": ns})
                break
        report = {"check": "bracket-jacobi", "instance": args.infile,
                  "seed": args.seed, "samples": checked,
                  "status": "ok" if not failures else "fail"}
        if failures:
            report["counterexample"] = failures[0]
        _emit(report, args.format)
        return PASS if not failures else FAIL
    raise InputError(f"unknown bracket action {args.action!r}")


def cmd_free(args) -> int:
    data = _load_json(args.generators)
    if not isinstance(data, dict) or "types" not in data:
        raise InputError(f"{args.generators} needs 'types'")
    types = _index_pairs(data["types"], "types")
    report = _index_pairs(data.get("report", [[0, 3], [0, 4], [1, 1], [1, 2]]),
                          "report")
    gen = trivial_modular_generator(types, degree=data.get("degree", 0))
    inst = free_construct(gen, args.kind, args.twist, args.bound)
    dims = {}
    cap = _max_dim_cap()
    for idx in report:
        comp = inst.component(idx)
        if len(comp) > cap:
            raise InputError("component exceeds FORGE_MAX_DIM")
        dims[json.dumps(list(idx))] = {
            "dimension": len(comp),
            "degrees": sorted({b.degree for b in comp})}
    _emit({"check": "free-construct", "kind": inst.kind,
           "twist": args.twist, "bound": args.bound,
           "components": dims, "status": "ok"}, args.format)
    return PASS


def cmd_feynman(args) -> int:
    inst = load_instance(args.infile)
    if args.twist != "K":
        raise InputError("only the edge determinant twist is supported")
    src = DgInstance(inst)
    window = _index_pairs(args.window or [[0, 3]], "--window")
    ft = FeynmanTransform(src, window, args.max_edges)
    report = {"check": "feynman", "instance": args.infile,
              "bound": args.max_edges, "status": "ok"}
    if args.check == "d2":
        rng = random.Random(args.seed)
        bad = None
        for idx in window:
            comp = ft.free.component(idx)
            sample = comp if len(comp) <= args.samples else \
                rng.sample(comp, args.samples)
            for be in sample:
                x = SumElement.single(idx, GradedVector.unit(be))
                if not ft.d(ft.d(x)).is_zero():
                    bad = {"component": list(idx), "element": str(be.ident)}
                    break
            if bad:
                break
        report["status"] = "ok" if bad is None else "fail"
        if bad:
            report["counterexample"] = bad
    _emit(report, args.format)
    return PASS if report["status"] == "ok" else FAIL


def _load_master(args):
    """The spaces, forms, differential, window and series rows of `master`."""
    struct = _load_json(args.structure)
    space = _load_json(args.space)
    series_data = _load_json(args.series)
    try:
        w_space = _space_from(struct["w_space"])
        w_form = _form_entries(struct["w_form"])
        v_space = _space_from(space["basis"])
        v_form = _form_entries(space["form"])
        degree = {be.ident: be.degree for be in v_space}
        v_diff = {}
        for src, rows in space.get("differential", {}).items():
            vec = GradedVector()
            for ident, c in rows:
                if ident not in degree:
                    raise InputError(f"the differential of {src!r} names "
                                     f"{ident!r}, which is not in the basis")
                vec = vec + GradedVector.unit(BE(ident, degree[ident]), Q(c))
            v_diff[src] = vec
        window = [tuple(t) for t in struct.get(
            "window", [[0, 3], [0, 4], [1, 1], [1, 2]])]
        terms = series_data.get("terms", {})
        idxs = _index_pairs([json.loads(key) for key in terms], "series keys")
        rows = {idx: [(name, Q(c)) for name, c in terms[key]]
                for idx, key in zip(idxs, terms)}
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise InputError(f"malformed master input: {exc!r}")
    return w_space, w_form, v_space, v_form, v_diff, window, rows


def cmd_master(args) -> int:
    w_space, w_form, v_space, v_form, v_diff, window, rows = _load_master(args)
    carrier, u_space, d_fun, forms = build_master_carrier(
        w_space, w_form, v_space, v_form, v_diff)
    terms = {}
    for idx, named in rows.items():
        by_name = {_ident_to_str(be.ident): be
                   for be in carrier.component(idx)}
        vec = GradedVector()
        for name, c in named:
            if name not in by_name:
                raise InputError(f"series term {name} is not a basis "
                                 f"element of component {list(idx)}")
            vec = vec + GradedVector.unit(by_name[name], c)
        terms[idx] = vec
    series = MasterSeries(terms)
    comps = master_lhs_components(series, carrier, d_fun, window)
    rep = certify_dg_algebra(series, carrier, d_fun, forms, v_diff, window)
    report = {"check": "master", "lambda": bool(args.use_lambda),
              "components": {json.dumps(list(i)): len(v.terms)
                             for i, v in comps.items()},
              "lhs_zero": rep.lhs_zero, "morphism_ok": rep.morphism_ok,
              "verdicts_agree": rep.agree,
              "status": "ok" if rep.lhs_zero and rep.agree else "fail"}
    if not rep.lhs_zero:
        report["counterexample"] = rep.lhs_witness
    _emit(report, args.format)
    return PASS if report["status"] == "ok" else FAIL


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `forge` parser, built once per process; parsing leaves it as is."""
    ap = argparse.ArgumentParser(
        prog="forge",
        description="exact verifier for operad-like structures")
    ap.add_argument("--format", choices=("json", "text"), default="json")
    ap.add_argument("--seed", type=int, default=0)
    sub = ap.add_subparsers(dest="verb", required=True)

    g = sub.add_parser("graphs")
    g.add_argument("action", choices=("enumerate", "canon", "auto"))
    g.add_argument("--class", dest="graph_class", default="stable",
                   choices=("stable",) + G.GRAPH_CLASSES)
    g.add_argument("--g", type=_count, default=None)
    g.add_argument("--labels", type=_count, default=0)
    g.add_argument("--max-edges", type=_count, default=1)
    g.add_argument("--in", dest="infile")
    g.set_defaults(fn=cmd_graphs)

    t = sub.add_parser("twist")
    t.add_argument("action", choices=("eval", "verify"))
    t.add_argument("--expr")
    t.add_argument("--a")
    t.add_argument("--b")
    t.add_argument("--family", default="stable-graph",
                   choices=G.GRAPH_CLASSES)
    t.add_argument("--max-edges", type=_count, default=2)
    t.add_argument("--max-tails", type=_count, default=3)
    t.add_argument("--in", dest="infile")
    t.set_defaults(fn=cmd_twist)

    v = sub.add_parser("verify")
    v.add_argument("action", choices=("axioms",))
    v.add_argument("--in", dest="infile", required=True)
    v.add_argument("--max-arity", type=_positive, default=3)
    v.set_defaults(fn=cmd_verify)

    b = sub.add_parser("bracket")
    b.add_argument("action", choices=("witt", "jacobi"))
    b.add_argument("--in", dest="infile")
    b.add_argument("--max", type=_positive, default=4)
    b.add_argument("--samples", type=_positive, default=5)
    b.set_defaults(fn=cmd_bracket)

    f = sub.add_parser("free")
    f.add_argument("--generators", required=True)
    f.add_argument("--kind", default="modular")
    f.add_argument("--twist", default="K")
    f.add_argument("--bound", type=_count, default=2)
    f.set_defaults(fn=cmd_free)

    fe = sub.add_parser("feynman")
    fe.add_argument("--in", dest="infile", required=True)
    fe.add_argument("--twist", default="K")
    fe.add_argument("--max-edges", type=_count, default=2)
    fe.add_argument("--check", choices=("d2",), default="d2")
    fe.add_argument("--samples", type=_positive, default=25)
    fe.add_argument("--window", type=json.loads, default=None)
    fe.set_defaults(fn=cmd_feynman)

    m = sub.add_parser("master")
    m.add_argument("--structure", required=True)
    m.add_argument("--space", required=True)
    m.add_argument("--series", required=True)
    m.add_argument("--lambda", dest="use_lambda", action="store_true")
    m.set_defaults(fn=cmd_master)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return BADINPUT if exc.code not in (0,) else 0
    try:
        return args.fn(args)
    except InputError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return BADINPUT
    except ForgeError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return BADINPUT
    except OSError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return BADINPUT


if __name__ == "__main__":
    sys.exit(main())
