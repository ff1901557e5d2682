"""No function or class of `opforge` goes unused.

Every `def` and `class` name in `src/opforge/*.py` that does not start with
a double underscore must be used somewhere: as a name, an attribute or an
import in `src/`, `bench/` or `tests/`.  A definition alone is not a use.
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
