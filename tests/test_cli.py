"""The forge command-line contract, run in-process through `cli.main`.

Exit 0 means pass, 1 a mathematical failure, 2 bad input; bad input gets a
message on stderr and never a traceback, and the same input and seed give
byte-identical reports.
"""

import argparse
import contextlib
import hashlib
import io
import itertools
import json

import pytest

from opforge import cli

LOOP = {"vertices": [{"id": "v"}],
        "flags": [{"id": "a", "vertex": "v"}, {"id": "b", "vertex": "v"}],
        "edges": [["a", "b"]]}
DANGLING_FLAG = {"vertices": [{"id": "v"}],
                 "flags": [{"id": "a", "vertex": "w"}]}
NO_FLAGS = {"vertices": [{"id": "v"}]}
# the 4-loop rose and the 5-edge banana, with scrambled identifiers
ROSE = {"vertices": [{"id": "v322"}],
        "flags": [{"id": f, "vertex": "v322"} for f in (
            "h343", "h962", "h597", "h193", "h211", "h938", "h408", "h437")],
        "edges": [["h211", "h437"], ["h962", "h343"], ["h597", "h408"],
                  ["h193", "h938"]]}
BANANA = {"vertices": [{"id": "v266"}, {"id": "v644"}],
          "flags": [{"id": f, "vertex": v} for f, v in (
              ("h408", "v644"), ("h787", "v266"), ("h418", "v644"),
              ("h696", "v266"), ("h81", "v266"), ("h366", "v644"),
              ("h771", "v266"), ("h647", "v644"), ("h178", "v644"),
              ("h430", "v266"))],
          "edges": [["h81", "h366"], ["h430", "h647"], ["h771", "h178"],
                    ["h418", "h787"], ["h408", "h696"]]}
# one loop and two tails: the one input here whose automorphisms the search
# finds in another order than the one `graphs auto` prints
TADPOLE = {"vertices": [{"id": "w98"}],
           "flags": [{"id": f, "vertex": "w98"}
                     for f in ("h15", "h38", "h83", "h92")],
           "edges": [["h83", "h92"]]}
MODULAR_E = {"builtin": {"name": "modular-e", "space": [["x", 0]],
                         "max_flags": 6, "max_genus": 2,
                         "form": {"entries": {"x|x": 1}, "degree": 0,
                                  "symmetry": "sym"}}}
# E(W (x) V) for `forge master`: W = wp(1), wm(-1) with wp.wm = 1, and
# V = x(0), y(-1) with x.y = 1 and d y = x
MASTER_STRUCTURE = {"w_space": [["wp", 1], ["wm", -1]],
                    "w_form": {"wp|wm": 1}}
MASTER_SPACE = {"basis": [["x", 0], ["y", -1]], "form": {"x|y": 1},
                "differential": {"y": [["x", 1]]}}
# a table instance: the operad with one element of arity 1
TABLE = {"kind": "operad",
         "components": {"1": {"basis": [{"id": "a", "degree": 0}],
                              "generators": []}},
         "compositions": []}


def _tensor_word(genus, letters):
    """The carrier ident of a word of (w, v, degree) letters, as a string."""
    return json.dumps(["T", genus, [[["u", w, v], d] for w, v, d in letters]],
                      separators=(",", ":"))


def _genuine_series():
    """A nonzero solution of the master equation (`solve_master_series`,
    seed 0, seeded at (0,4)): in (0,4), wm.x and wp.x among two wp.y with
    coefficient -1/12 when wm.x comes first and 1/12 otherwise; in (1,2),
    wp.y twice."""
    a, b, y = ("wm", "x", -1), ("wp", "x", 1), ("wp", "y", 0)
    rows = []
    for i, j in itertools.permutations(range(4), 2):
        word = [y] * 4
        word[i], word[j] = a, b
        rows.append([_tensor_word(0, word), "-1/12" if i < j else "1/12"])
    return {"terms": {"[0, 4]": rows,
                      "[1, 2]": [[_tensor_word(1, [y, y]), "1"]]}}


def _corrupted_series():
    """The genuine series plus the basis element wm.x wp.x wp.y wp.y at
    (0,4), which is not S_4-invariant: the left-hand side is nonzero at
    (0,4) and (1,2)."""
    series = _genuine_series()
    word = [("wm", "x", -1), ("wp", "x", 1), ("wp", "y", 0), ("wp", "y", 0)]
    series["terms"]["[0, 4]"].append([_tensor_word(0, word), "1"])
    return series


INPUTS = {
    "dangling.json": DANGLING_FLAG,
    "no_flags.json": NO_FLAGS,
    "rose.json": ROSE,
    "banana.json": BANANA,
    "tadpole.json": TADPOLE,
    "g03.json": {"types": [[0, 3]]},
    "g03-11.json": {"types": [[0, 3], [1, 1]]},
    "e.json": MODULAR_E,
    "structure.json": MASTER_STRUCTURE,
    "space.json": MASTER_SPACE,
    "zero.json": {"terms": {}},
    "genuine.json": _genuine_series(),
    "corrupted.json": _corrupted_series(),
    # a genus-0 word filed under (1,2), where every word has genus 1
    "unknown-term.json": {"terms": {"[1, 2]": [
        [_tensor_word(0, [("wp", "y", 0)] * 2), "1"]]}},
    "key-not-json.json": {"terms": {"oops": []}},
    "short-key.json": {"terms": {"[0]": []}},
    "no-w-space.json": {"w_form": {"wp|wm": 1}},
    "unknown-diff.json": {**MASTER_SPACE, "differential": {"y": [["q", 1]]}},
    "empty.json": {},
    "short-index.json": {"types": [[0, 3]], "report": [[0]]},
    "e-no-form.json": {"builtin": {"name": "modular-e",
                                   "space": [["x", 0]]}},
    "table-no-kind.json": {k: v for k, v in TABLE.items() if k != "kind"},
    "table-no-degree.json": {**TABLE, "components": {"1": {
        "basis": [{"id": "a"}], "generators": []}}},
    "table-bad-kind.json": {**TABLE, "kind": "nosuch"},
    "table-int-id.json": {**TABLE, "components": {"1": {
        "basis": [{"id": 1, "degree": 0}], "generators": []}}},
    "table-no-matrix.json": {**TABLE, "components": {
        **TABLE["components"],
        "2": {"basis": [{"id": "b", "degree": 0}], "generators": [{}]}}},
    # components 1 and 2 only, below the default --max-arity 3
    "table-12.json": {**TABLE, "components": {
        **TABLE["components"],
        "2": {"basis": [{"id": "b", "degree": 0}],
              "generators": [{"matrix": {"b": [["b", "1"]]}}]}}},
    "end-operad.json": {"builtin": {"name": "end-operad"}},
    "cyclic-end.json": {"builtin": {"name": "cyclic-end", "form": {
        "entries": {"x|x": 1}}}},
    "cyclic-end-no-form.json": {"builtin": {"name": "cyclic-end"}},
    "end-prop.json": {"builtin": {"name": "end-prop", "max_out": 6}},
    "table-prop.json": {**TABLE, "kind": "prop", "components": {"[1, 1]": {
        "basis": [{"id": "a", "degree": 0}], "generators": []}}},
    "cyclic-end-anti.json": {"builtin": {
        "name": "cyclic-end", "space": [["x", 0], ["y", 0]],
        "form": {"entries": {"x|y": 1, "y|x": -1}, "symmetry": "anti"}}},
}
MASTER = ("master", "--structure", "structure.json", "--space", "space.json")


def forge(*argv):
    """Run one invocation; return (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def write(tmp_path):
    def _write(name, data):
        path = tmp_path / name
        path.write_text(json.dumps(data), encoding="utf-8")
        return str(path)

    return _write


@pytest.fixture
def inputs(tmp_path, monkeypatch):
    """Every file of INPUTS, in a fresh working directory: relative paths
    keep the bytes of reports that print their input path (`feynman`)."""
    for name, data in INPUTS.items():
        (tmp_path / name).write_text(json.dumps(data), encoding="utf-8")
    monkeypatch.chdir(tmp_path)


def test_graphs_canon_valid_exits_0(write):
    code, out, _ = forge("graphs", "canon", "--in", write("loop.json", LOOP))
    assert code == 0
    assert json.loads(out)["status"] == "ok"


def test_twist_verify_mismatch_exits_1():
    code, out, _ = forge("twist", "verify", "--a", "K", "--b", "D[s]",
                         "--family", "stable-graph", "--max-edges", "1",
                         "--max-tails", "2")
    assert code == 1
    report = json.loads(out)
    assert report["status"] == "fail" and "counterexample" in report


BAD_INPUT = [
    ("graphs", "canon", "--in", "dangling.json"),
    ("graphs", "canon", "--in", "no_flags.json"),
    ("graphs", "auto", "--in", "dangling.json"),
    ("graphs", "auto", "--in", "no_flags.json"),
    ("twist", "eval", "--expr", "K", "--in", "dangling.json"),
    ("twist", "eval", "--expr", "K", "--in", "no_flags.json"),
    ("graphs", "canon", "--in", "missing.json"),
    ("graphs", "canon"),
    ("graphs", "enumerate", "--class", "nosuch"),
    MASTER + ("--series", "unknown-term.json"),
    MASTER + ("--series", "key-not-json.json"),
    MASTER + ("--series", "short-key.json"),
    ("master", "--structure", "no-w-space.json", "--space", "space.json",
     "--series", "zero.json"),
    ("master", "--structure", "structure.json", "--space",
     "unknown-diff.json", "--series", "zero.json"),
    ("free", "--generators", "empty.json"),
    ("free", "--generators", "short-index.json"),
    ("feynman", "--in", "e-no-form.json"),
    ("verify", "axioms", "--in", "e-no-form.json"),
    ("bracket", "jacobi", "--in", "e-no-form.json"),
    ("verify", "axioms", "--in", "table-no-kind.json"),
    ("verify", "axioms", "--in", "table-no-degree.json"),
    ("verify", "axioms", "--in", "table-bad-kind.json"),
    ("verify", "axioms", "--in", "table-int-id.json", "--max-arity", "1"),
    ("verify", "axioms", "--in", "table-no-matrix.json", "--max-arity", "2"),
    ("verify", "axioms", "--in", "end-operad.json", "--max-arity", "-1"),
    ("bracket", "witt", "--max", "-1"),
    ("bracket", "jacobi", "--in", "end-operad.json", "--samples", "-1"),
    ("verify", "axioms", "--in", "end-operad.json", "--max-arity", "0"),
    ("bracket", "witt", "--max", "0"),
    ("bracket", "jacobi", "--in", "end-operad.json", "--samples", "0"),
    ("bracket", "jacobi", "--in", "table-no-kind.json"),
    ("bracket", "jacobi", "--in", "table-no-degree.json"),
    ("bracket", "jacobi", "--in", "table-bad-kind.json"),
    ("feynman", "--in", "end-operad.json"),
    ("feynman", "--in", "cyclic-end.json"),
    ("feynman", "--in", "end-prop.json", "--max-edges", "1"),
    ("verify", "axioms", "--in", "table-12.json"),
    ("twist", "verify", "--a", "K", "--b", "K", "--family", "nosuch"),
    ("twist", "verify", "--a", "K"),
    ("twist", "eval", "--in", "rose.json"),
    ("bracket", "jacobi"),
    ("graphs", "enumerate", "--g", "-1", "--labels", "2"),
    ("graphs", "enumerate", "--max-edges", "-1", "--g", "0", "--labels", "3"),
    ("free", "--generators", "g03.json", "--bound", "-1"),
    ("feynman", "--in", "e.json", "--max-edges", "-1"),
    ("feynman", "--in", "e.json", "--window", "5"),
    ("feynman", "--in", "e.json", "--max-edges", "1", "--samples", "-1"),
    # a K-twisted kind under the trivial twist
    ("free", "--generators", "g03.json", "--kind", "k-modular", "--twist",
     "1"),
    ("free", "--generators", "g03.json", "--kind", "nc-k-modular",
     "--twist", "1"),
    ("feynman", "--in", "e.json", "--max-edges", "1", "--samples", "0"),
    ("verify", "axioms", "--in", "cyclic-end-no-form.json"),
    ("bracket", "jacobi", "--in", "cyclic-end-no-form.json"),
    # flavors with no axiom check, which once passed with nothing checked
    ("verify", "axioms", "--in", "end-prop.json"),
    ("verify", "axioms", "--in", "table-prop.json"),
]


@pytest.mark.parametrize("argv", BAD_INPUT)
def test_bad_input_exits_2_with_a_message(argv, inputs):
    code, out, err = forge(*argv)
    assert code == 2
    assert out == ""
    assert err.strip() and "Traceback" not in err


def test_a_table_without_a_checked_component_is_named(inputs):
    code, _, err = forge("verify", "axioms", "--in", "table-12.json")
    assert code == 2
    assert "table-12.json has no component 3; lower --max-arity" in err
    assert forge("verify", "axioms", "--in", "table-12.json",
                 "--max-arity", "2")[0] == 0


def test_same_input_and_seed_give_identical_reports(write):
    inst = write("e.json", MODULAR_E)
    graph = write("loop.json", LOOP)
    for argv in (("--seed", "5", "feynman", "--in", inst, "--max-edges", "1",
                  "--samples", "4", "--window", "[[0, 3]]"),
                 ("--seed", "5", "twist", "eval", "--expr", "K",
                  "--in", graph)):
        first, second = forge(*argv), forge(*argv)
        assert first[0] == 0
        assert first[1] == second[1]


def test_twist_eval_reports_every_automorphism(write):
    # one vertex with one loop: swapping the loop's flags fixes the vertex,
    # so |Aut| = 2 although both automorphisms have the same vertex map
    code, out, _ = forge("twist", "eval", "--expr", "K",
                         "--in", write("loop.json", LOOP))
    assert code == 0
    assert len(json.loads(out)["characters"]) == 2


def test_graphs_enumerate_keeps_the_stable_alias():
    alias = forge("graphs", "enumerate", "--class", "stable", "--g", "0",
                  "--labels", "3", "--max-edges", "1")
    full = forge("graphs", "enumerate", "--class", "stable-graph", "--g",
                 "0", "--labels", "3", "--max-edges", "1")
    assert alias[0] == full[0] == 0
    assert alias[1] == full[1]


# sha256 of stdout; a change of any byte, the order of the automorphisms
# included, is a change of the CLI contract
PINNED_STDOUT = [
    (("graphs", "canon", "--in", "rose.json"),
     "78362f703f1fcc5a0d210ea093f21b7baacf78ba75c96af31abb9b0d0eed83a3"),
    (("graphs", "auto", "--in", "rose.json"),
     "3be9f72bdc9303f94c5d0e319e69ffd49e08a214d6766041c2b68049ec5dcc9e"),
    (("twist", "eval", "--expr", "K", "--in", "rose.json"),
     "ee371819210fa9ab6e3d01b59a7d5bcc2f8ea7c7c40616c908cfb434332f30e2"),
    (("twist", "eval", "--expr", "D[s]", "--in", "rose.json"),
     "a55db5f923cedb3febc8f892e401b786e6656f84e77e4265987bbf73d0e24367"),
    (("graphs", "canon", "--in", "banana.json"),
     "31a5010d6ba87c54c64c434c9aef21aca0dec51e7ef9c671ba5282a619a75d7c"),
    (("graphs", "auto", "--in", "banana.json"),
     "3b291478f8dd27580c3c91aef92299404cb4e9d244196e1857cd2087570f81b8"),
    (("twist", "eval", "--expr", "K", "--in", "banana.json"),
     "89dc8a53c5c511cd810732b9d973e95b382eddb0347de182d4835fcd797cf912"),
    (("twist", "eval", "--expr", "D[s]", "--in", "banana.json"),
     "be3ca4b7fa125f14e7e7594a417aa4f7819e0716422bd1b254aead6152ddfcd5"),
    (("graphs", "auto", "--in", "tadpole.json"),
     "12421afa91230e51f30f32088683b96b9fed2bf9f99bc1fe1ced6b32bfd58890"),
    (("graphs", "enumerate", "--class", "stable", "--g", "1", "--labels", "4",
      "--max-edges", "3"),
     "2cf9bd5c24509cf04da4a371a57dd2794669287a1ad398d2734d486a9776ee38"),
    (("graphs", "enumerate", "--class", "tree", "--labels", "3",
      "--max-edges", "2"),
     "2b5db7ef7dc600b687a4cd5f8e24b96c854f3c702fa11ad0efae72ecc5927396"),
    (("graphs", "enumerate", "--class", "forest", "--labels", "3",
      "--max-edges", "2"),
     "f3dc7170340b1ec51e9d571c21db0ec6c48ad46a14fa59b65a93d71197efaefd"),
    (("graphs", "enumerate", "--class", "connected-graph", "--labels", "3",
      "--max-edges", "2"),
     "40bfaf1431de269db1aa9d64c01d2af17b0aaf4d2aee19301ac487063f766ba6"),
    (("graphs", "enumerate", "--class", "graph", "--labels", "3",
      "--max-edges", "2"),
     "e4385c3dc83fb277ee3e88dd88ecfb79d574aa0e4214cc0bc89a9856da38adc9"),
    # the constructions on top of graph enumeration
    (("free", "--generators", "g03.json", "--twist", "K", "--bound", "2"),
     "ad50455bf74f125f9bc117c0bf16995c474f3fef459ab44b577ef2a1db8c2415"),
    (("free", "--generators", "g03-11.json", "--twist", "K", "--bound", "2"),
     "7dd140ea212651acd7c5a55c10f73ef6ba947e48e271840acf1da421913712bb"),
    (("free", "--generators", "g03.json", "--kind", "nc-modular", "--twist",
      "K", "--bound", "2"),
     "fc1046d29e399a86474e77d5e3c505cc93a657bc53d0a3f3264352c1930ef34e"),
    (("--seed", "7", "feynman", "--in", "e.json", "--max-edges", "1",
      "--samples", "6", "--window", "[[0, 3], [1, 1]]"),
     "07aceb9a632828f7c2284b7735ff841b1b54e9c6a5dacc25334e3e84f6411a34"),
    (MASTER + ("--series", "zero.json"),
     "8b76a852a72c7ed0dd7c65cb53fe584e50a6a875753cd5792ba4d829072c7f39"),
    (MASTER + ("--series", "genuine.json"),
     "8b76a852a72c7ed0dd7c65cb53fe584e50a6a875753cd5792ba4d829072c7f39"),
    # the benchmark's `graphs` jobs, digests taken before stable vertex types
    # and the last-edge test entered the enumeration
    (("graphs", "enumerate", "--class", "stable", "--g", "1", "--labels", "4",
      "--max-edges", "4"),
     "1d2f8c2a13e2cad090eadd506ea0a346a57ef4725f4545c78ef8f991e8b88d18"),
    (("graphs", "enumerate", "--class", "stable", "--g", "0", "--labels", "6",
      "--max-edges", "3"),
     "0b2d9b1bfd273941098926eecb4318b12a7f4526c605f140a9c9016c26c07178"),
    (("twist", "verify", "--a", "K", "--b", "T*D[s]", "--family",
      "stable-graph", "--max-edges", "3", "--max-tails", "4"),
     "565f85343198b2a4116bfcd7bab543cc42f8d9888efb858a70ecbe2448802b81"),
    # the bracket verbs, and one report in the text format
    (("bracket", "witt"),
     "7a386e053410a67af4d02216a94b96b50a8b44f8871a164e1ada6cdf6faca28a"),
    (("--seed", "3", "bracket", "jacobi", "--in", "cyclic-end-anti.json"),
     "7fe803c55abf06b5c228697da56d10a2574d3cdf3813b4fc559a5818148b1635"),
    (("--format", "text", "verify", "axioms", "--in", "end-operad.json"),
     "3448ccd594474e5c5349aad6d8dc8b7a387787d0b7bd8d7814322456efed4bd3"),
]


@pytest.mark.parametrize("argv, digest", PINNED_STDOUT)
def test_graph_verbs_print_pinned_bytes(argv, digest, inputs):
    code, out, _ = forge(*argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_master_on_a_failing_series_prints_pinned_bytes(inputs):
    # both verdicts fail and agree; the digest was taken before the
    # morphism verdict moved onto the Feynman transform
    code, out, _ = forge(*MASTER, "--series", "corrupted.json")
    assert code == 1
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "a62e9cffd06827e7f753a13df2a3a6606dd5ddc36dfcc71fc3fea582d248912b"


def test_jacobi_on_a_symmetric_cyclic_end_prints_pinned_bytes(inputs):
    code, out, _ = forge("--seed", "3", "bracket", "jacobi",
                         "--in", "cyclic-end.json")
    assert code == 1
    assert json.loads(out)["counterexample"] == {"arities": [1, 1, 2]}
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "6cf9a9ba121da81c70bd648dadf7e1b9cd10a2bcbfc55e35a4637b60bc890000"


def _verb_and_action(argv):
    """(verb, action) of an argv, skipping the global options."""
    words = list(argv)
    while words and words[0] in ("--seed", "--format"):
        words = words[2:]
    return tuple(words[:2])


def test_every_verb_and_action_has_a_pinned_case():
    parser = cli.build_parser()
    verbs = next(a for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction)).choices
    # every case of PINNED_STDOUT and BAD_INPUT checks an exit code
    cases = [argv for argv, _ in PINNED_STDOUT] + BAD_INPUT
    covered = {_verb_and_action(argv) for argv in cases}
    covered |= {case[:1] for case in covered}
    missing = []
    for verb, sub in verbs.items():
        actions = [a.choices for a in sub._actions if a.dest == "action"]
        for action in (actions[0] if actions else [None]):
            want = (verb, action) if action else (verb,)
            if want not in covered:
                missing.append(want)
    assert not missing, missing
