"""
The JSON form of a 0-Hecke module: n, the basis labels (a permutation in
one-line notation, or a filling as its n, cells and entries) and the
generator matrices pi_1..pi_{n-1}, column j holding the image of basis
vector j.  The reader takes integer entries in the int8 range, the range
in which ``wol.hecke`` stores generators, and nothing else.

No shell command reads or writes module JSON, so neither ``import wol``
nor ``wol.cli`` imports this module; import it by name.
"""

from __future__ import annotations

import json
from itertools import chain

import numpy as np

from .diagrams import Diagram, Filling, filling_to_json
from .errors import DomainError
from .hecke import INT8, HeckeModule, check_relations
from .permutations import format_perm, parse_perm

__all__ = ["module_to_json", "module_from_json"]


def module_to_json(M: HeckeModule) -> str:
    def label(b):
        if isinstance(b, tuple):
            return format_perm(b)
        return json.loads(filling_to_json(b))

    return json.dumps(
        {
            "n": M.n,
            "basis": [label(b) for b in M.basis],
            "pi": [A.tolist() for A in M.pis],
        }
    )


def _filling(data: dict) -> Filling:
    diagram = Diagram(frozenset(tuple(c) for c in data["cells"]))
    return Filling(diagram, tuple(tuple(e) for e in data["entries"]))


def _generator(i: int, rows, dim: int) -> np.ndarray:
    """pi_i of the JSON text as a dim x dim int8 matrix.  Every entry must
    be a JSON integer (not a float, a bool or a string) in the int8 range;
    a DomainError says which one is not."""
    try:
        shape = np.shape(rows)
    except ValueError:
        raise DomainError(f"pi_{i} is not a rectangular integer matrix") from None
    if shape != (dim, dim):
        raise DomainError(f"pi_{i} has shape {shape}, not {dim} x {dim} for the basis")
    for entry in chain.from_iterable(rows):
        if isinstance(entry, bool) or not isinstance(entry, int):
            raise DomainError(f"pi_{i} has the entry {json.dumps(entry)}, not an integer")
        if not INT8.min <= entry <= INT8.max:
            raise DomainError(
                f"pi_{i} has the entry {entry}, outside the int8 range {INT8.min}..{INT8.max}"
            )
    return np.array(rows, dtype=np.int8)


def module_from_json(text: str) -> HeckeModule:
    """The module of ``module_to_json``'s text, its generators checked:
    a DomainError for malformed input, and the relations by
    ``check_relations``."""
    data = json.loads(text)
    basis = tuple(parse_perm(b) if isinstance(b, str) else _filling(b) for b in data["basis"])
    n, dim = int(data["n"]), len(basis)
    if n < 1:
        raise DomainError(f"a module needs n >= 1, got n = {n}")
    if len(set(basis)) != dim:
        raise DomainError("the basis repeats a label")
    if len(data["pi"]) != n - 1:
        raise DomainError(f"a module for n = {n} needs {n - 1} generators, got {len(data['pi'])}")
    pis = tuple(_generator(i, A, dim) for i, A in enumerate(data["pi"], start=1))
    M = HeckeModule(n, basis, pis)
    check_relations(M)
    return M
