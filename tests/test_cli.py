"""The forge command-line contract, run in-process through `cli.main`.

Exit 0 means pass, 1 a mathematical failure, 2 bad input; bad input gets a
message on stderr and never a traceback, and the same input and seed give
byte-identical reports.
"""

import contextlib
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
