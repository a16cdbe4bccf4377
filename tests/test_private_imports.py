"""Import boundaries between wol modules: no private names cross modules,
the brute-force oracles of ``wol.verify`` stay out of the library, and
numpy stays in the modules that build Hecke matrices."""

import ast
from pathlib import Path

import wol


def parsed_modules():
    for path in sorted(Path(wol.__file__).parent.glob("*.py")):
        yield path.name, ast.parse(path.read_text(), filename=str(path))


def test_no_private_cross_module_imports():
    offending = []
    for name, tree in parsed_modules():
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("wol"):
                continue
            offending += [
                f"{name}: {alias.name}"
                for alias in node.names
                if alias.name.startswith("_")
            ]
    assert offending == []


def imported_modules(node: ast.AST) -> set[str]:
    """The dotted names an import statement may read a ``wol`` module from."""
    if isinstance(node, ast.Import):
        return {alias.name for alias in node.names}
    if not isinstance(node, ast.ImportFrom):
        return set()
    base = ".".join(filter(None, ["wol" if node.level else None, node.module]))
    return {base} | {f"{base}.{alias.name}" for alias in node.names}


def identifiers(node: ast.AST) -> set:
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    if isinstance(node, ast.alias):
        return {node.name, node.asname}
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, ast.Constant):
        return {node.value}
    return set()


def in_function_bodies(tree: ast.AST) -> set[int]:
    """The ids of the nodes that run only when a function is called."""
    return {
        id(node)
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for stmt in func.body
        for node in ast.walk(stmt)
    }


def test_verify_oracles_stay_out_of_the_library():
    """Only the CLI imports ``wol.verify``, and only inside a function
    body, so that importing wol never loads the oracles; only ``verify``
    names the isomorphism search ``hasse_isos``."""
    importers, namers = [], []
    for name, tree in parsed_modules():
        nodes = list(ast.walk(tree))
        deferred = in_function_bodies(tree) if name == "cli.py" else set()
        importers += [
            f"{name}:{node.lineno}"
            for node in nodes
            if "wol.verify" in imported_modules(node) and id(node) not in deferred
        ]
        if name != "verify.py" and any("hasse_isos" in identifiers(n) for n in nodes):
            namers.append(name)
    assert importers == [] and namers == []


def test_dense_products_stay_in_verify():
    """The library multiplies generators by sparse columns; the dense
    ``@``, ``np.dot`` and ``np.matmul`` are the oracle's, in ``verify``."""
    offending = []
    for name, tree in parsed_modules():
        if name == "verify.py":
            continue
        for node in ast.walk(tree):
            named = isinstance(node, (ast.Name, ast.Attribute, ast.alias))
            if isinstance(node, ast.MatMult) or named and identifiers(node) & {"dot", "matmul"}:
                offending.append(f"{name}:{getattr(node, 'lineno', '?')}")
    assert offending == []


def test_numpy_stays_in_the_matrix_modules():
    """The shell commands other than ``verify`` run without numpy: only the
    modules that build or read Hecke matrices import it, and neither
    ``import wol`` nor ``wol.cli`` imports those."""
    importers = {
        name
        for name, tree in parsed_modules()
        for node in ast.walk(tree)
        if any(module.split(".")[0] == "numpy" for module in imported_modules(node))
    }
    assert sorted(importers) == ["hecke.py", "module_json.py", "verify.py"]
