"""No function, class or assignment of `opforge` goes unused.

Every `def` and `class` name in `src/opforge/*.py` that does not start with
a double underscore must be used somewhere: as a name, an attribute or an
import in `src/`, `bench/` or `tests/`.  A definition alone is not a use.
Inside a function, an assignment must bind some name that the function (or
a function nested in it) reads.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _trees(*dirs):
    for d in dirs:
        for path in sorted((ROOT / d).rglob("*.py")):
            yield path, ast.parse(path.read_text(encoding="utf-8"))


def _defined():
    out = {}
    for path, tree in _trees("src/opforge"):
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)) \
                    and not node.name.startswith("__"):
                out.setdefault(node.name, f"{path.name}:{node.lineno}")
    return out


def _used():
    out = set()
    for _, tree in _trees("src", "bench", "tests"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif isinstance(node, ast.alias):
                out.add(node.name.split(".")[-1])
    return out


def test_every_definition_is_used():
    used = _used()
    dead = sorted(f"{name} ({where})" for name, where in _defined().items()
                  if name not in used)
    assert not dead, dead


def _assigned(stmt):
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
    return {node.id for t in targets for node in ast.walk(t)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}


def _dead_assignments(func):
    read = {node.id for node in ast.walk(func) if isinstance(node, ast.Name)
            and not isinstance(node.ctx, ast.Store)}
    read |= {name for node in ast.walk(func)
             if isinstance(node, (ast.Global, ast.Nonlocal))
             for name in node.names}
    for stmt in ast.walk(func):
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            names = _assigned(stmt)
            if names and not names & read:
                yield stmt


def test_no_assignment_is_dead():
    dead = []
    for path, tree in _trees("src/opforge"):
        # the outermost functions: a nested one's reads count for its parent
        funcs = [node for node in ast.walk(tree)
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        ids = {id(f) for f in funcs}
        inner = {id(sub) for f in funcs for sub in ast.walk(f)
                 if sub is not f and id(sub) in ids}
        for func in funcs:
            if id(func) not in inner:
                dead += [f"{path.name}:{stmt.lineno}"
                         for stmt in _dead_assignments(func)]
    assert not dead, dead
