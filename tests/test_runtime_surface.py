"""Every top-level function and class of the runtime has a use.

A definition in ``src/flocpriv`` must be exported in ``flocpriv.__all__``
or be named somewhere else in ``src/flocpriv`` or ``perfbench``: code no
step calls is a twin to keep in step, and belongs in a test oracle or
nowhere. Names count as code references (names, attributes, imports) or
as dotted-name strings such as perfbench's span targets, never as words
in a docstring.
"""

import ast
from collections import Counter
from pathlib import Path

import flocpriv

ROOT = Path(__file__).resolve().parents[1]
RUNTIME = ROOT / "src" / "flocpriv"
SEARCHED = [*sorted(RUNTIME.glob("*.py")), *sorted((ROOT / "perfbench").glob("*.py"))]

#: (module, name) kept without a caller, each with its reason.
ALLOWED: set[tuple[str, str]] = set()


def _references(tree: ast.AST) -> Counter:
    """How often each name is referenced in code or named by a string."""
    names: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name.rpartition(".")[2]] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.replace(".", "").isidentifier():  # prose has spaces
                names.update(node.value.split("."))
    return names


def test_every_runtime_definition_has_a_use():
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in SEARCHED}
    references = sum((_references(tree) for tree in trees.values()), Counter())
    defined = set()
    unused = []
    for path in sorted(RUNTIME.glob("*.py")):
        for node in trees[path].body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            defined.add((path.stem, node.name))
            if node.name in flocpriv.__all__ or (path.stem, node.name) in ALLOWED:
                continue
            if not references[node.name]:
                unused.append(f"{path.stem}.{node.name}")
    assert unused == []
    assert ALLOWED <= defined  # no stale exception
