"""Every public name of the library is used somewhere.

A public module-level function or class of ``src/codazzi``, or a public
method of such a class, must be referenced at least once outside its own
definition, in ``src/``, ``tests/``, ``demos/`` or ``perfbench/``.  A
reference is a name or an attribute in the parsed code, so docstrings,
comments and ``__all__`` strings do not count.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEARCHED = ("src", "tests", "demos", "perfbench")


def _public_definitions():
    for path in sorted((ROOT / "src" / "codazzi").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            yield f"{path.stem}.{node.name}", node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{path.stem}.{node.name}.{item.name}", item.name


def _referenced_names():
    names = set()
    for top in SEARCHED:
        for path in (ROOT / top).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
    return names


def test_no_public_name_is_unreferenced():
    used = _referenced_names()
    unused = [full for full, name in _public_definitions() if name not in used]
    assert not unused, f"public names nothing references: {unused}"
