"""No wol module imports an underscore-prefixed name from another."""

import ast
from pathlib import Path

import wol


def test_no_private_cross_module_imports():
    offending = []
    for path in sorted(Path(wol.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("wol"):
                continue
            offending += [
                f"{path.name}: {alias.name}"
                for alias in node.names
                if alias.name.startswith("_")
            ]
    assert offending == []
