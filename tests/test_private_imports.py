"""Import boundaries between wol modules: no private names cross modules,
the brute-force oracles of ``wol.verify`` stay out of the library,
numpy stays in the modules that build Hecke matrices, and every
definition is used by the library, not only by its tests."""

import ast
import re
from pathlib import Path
from typing import Iterator

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
    assert sorted(importers) == ["hecke.py", "verify.py"]


def definitions(tree: ast.Module) -> Iterator[tuple[str, str, ast.AST]]:
    """(label, name, node) of each module-level function, class and
    UPPER_CASE constant, and of each public method of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name, item
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and re.fullmatch(r"_?[A-Z][A-Z0-9_]*", target.id):
                    yield target.id, target.id, node


def test_every_definition_is_used_by_the_library():
    """A name that only tests call is code no ``wol`` command needs: each
    definition (verify's ``check_*`` rows, which ``SUITES`` runs, aside)
    is read by name somewhere in ``src/wol`` outside its own body."""
    modules = list(parsed_modules())  # kept alive, so that no node id is reused
    uses: dict[str, set[int]] = {}
    for _, tree in modules:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses.setdefault(node.id, set()).add(id(node))
            elif isinstance(node, ast.Attribute):
                uses.setdefault(node.attr, set()).add(id(node))
    unused = []
    for module, tree in modules:
        if module == "__init__.py":
            continue
        for label, name, node in definitions(tree):
            if module == "verify.py" and name.startswith("check_"):
                continue
            inside = {id(n) for n in ast.walk(node)}
            if not uses.get(name, set()) - inside:
                unused.append(f"{module[:-3]}.{label}")
    assert unused == []
