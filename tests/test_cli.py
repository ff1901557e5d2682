"""The forge command-line contract, run in-process through `cli.main`.

Exit 0 means pass, 1 a mathematical failure, 2 bad input; bad input gets a
message on stderr and never a traceback, and the same input and seed give
byte-identical reports.
"""

import contextlib
import hashlib
import io
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


@pytest.mark.parametrize("argv", [
    ("graphs", "canon", "--in", "{dangling}"),
    ("graphs", "canon", "--in", "{no_flags}"),
    ("graphs", "auto", "--in", "{dangling}"),
    ("graphs", "auto", "--in", "{no_flags}"),
    ("twist", "eval", "--expr", "K", "--in", "{dangling}"),
    ("twist", "eval", "--expr", "K", "--in", "{no_flags}"),
    ("graphs", "canon", "--in", "{missing}"),
    ("graphs", "canon"),
    ("graphs", "enumerate", "--class", "nosuch"),
])
def test_bad_input_exits_2_with_a_message(argv, write, tmp_path):
    paths = {"dangling": write("dangling.json", DANGLING_FLAG),
             "no_flags": write("no_flags.json", NO_FLAGS),
             "missing": str(tmp_path / "missing.json")}
    code, out, err = forge(*[a.format(**paths) for a in argv])
    assert code == 2
    assert out == ""
    assert err.strip() and "Traceback" not in err


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
    (("graphs", "canon", "--in", "{rose}"),
     "78362f703f1fcc5a0d210ea093f21b7baacf78ba75c96af31abb9b0d0eed83a3"),
    (("graphs", "auto", "--in", "{rose}"),
     "3be9f72bdc9303f94c5d0e319e69ffd49e08a214d6766041c2b68049ec5dcc9e"),
    (("twist", "eval", "--expr", "K", "--in", "{rose}"),
     "ee371819210fa9ab6e3d01b59a7d5bcc2f8ea7c7c40616c908cfb434332f30e2"),
    (("twist", "eval", "--expr", "D[s]", "--in", "{rose}"),
     "a55db5f923cedb3febc8f892e401b786e6656f84e77e4265987bbf73d0e24367"),
    (("graphs", "canon", "--in", "{banana}"),
     "31a5010d6ba87c54c64c434c9aef21aca0dec51e7ef9c671ba5282a619a75d7c"),
    (("graphs", "auto", "--in", "{banana}"),
     "3b291478f8dd27580c3c91aef92299404cb4e9d244196e1857cd2087570f81b8"),
    (("twist", "eval", "--expr", "K", "--in", "{banana}"),
     "89dc8a53c5c511cd810732b9d973e95b382eddb0347de182d4835fcd797cf912"),
    (("twist", "eval", "--expr", "D[s]", "--in", "{banana}"),
     "be3ca4b7fa125f14e7e7594a417aa4f7819e0716422bd1b254aead6152ddfcd5"),
    (("graphs", "auto", "--in", "{tadpole}"),
     "12421afa91230e51f30f32088683b96b9fed2bf9f99bc1fe1ced6b32bfd58890"),
    (("graphs", "enumerate", "--class", "stable", "--g", "1", "--labels", "4",
      "--max-edges", "3"),
     "2cf9bd5c24509cf04da4a371a57dd2794669287a1ad398d2734d486a9776ee38"),
]


@pytest.mark.parametrize("argv, digest", PINNED_STDOUT)
def test_graph_verbs_print_pinned_bytes(argv, digest, write):
    paths = {"rose": write("rose.json", ROSE),
             "banana": write("banana.json", BANANA),
             "tadpole": write("tadpole.json", TADPOLE)}
    code, out, _ = forge(*[a.format(**paths) for a in argv])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
