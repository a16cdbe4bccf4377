"""
0-Hecke modules as explicit integer generator matrices: interval modules,
poset modules, the peak-tableau module, twists and intertwiners.

Matrices always represent the idempotent generators pi_1..pi_{n-1}
(column j holds the image of basis vector j); a construction that acts
naturally through pi-bar = pi - 1 is converted to pi as it is built.
Every generator built here has entries in {-1, 0, 1}, so generators are
stored as int8, one byte per entry; ``check_relations`` refuses any other
dtype, and a construction whose entry would leave the int8 range raises
InternalError instead of storing a wrapped value.  The relations and
intertwiners are checked by products that read only the nonzero entries
of the right-hand factor, as int64, so no product multiplies two int8
numbers and every product is exact: a column of the generators built
here holds at most two nonzeros, so a product costs O(dim^2), not the
O(dim^3) of a dense one.

No shell command but ``verify`` imports this module or numpy: the hull
and cover formulas, which build no module, are in ``hulls``.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Sequence

import numpy as np

from .compositions import is_peak, validate_composition
from .classes import dp_iso_find
from .diagrams import Filling
from .errors import DomainError, InternalError, ShapeError
from .frozen import Frozen
from .permutations import LEFT, Perm, WeakInterval, descents, mult_s_left
from .posets import Poset, linear_extensions_L
from .tableaux import enumerate_family

__all__ = [
    "HeckeModule",
    "module_B",
    "module_Bbar",
    "module_M",
    "module_SPIT",
    "check_relations",
    "twist_theta_chi",
    "intertwiner_from_dp_iso",
    "signed_intertwiner",
]

INT8 = np.iinfo(np.int8)


class HeckeModule(Frozen):
    """A finite-dimensional module given by its int8 pi-generator matrices,
    equal only to itself."""

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, n: int, basis: tuple, pis: tuple[np.ndarray, ...]):
        self.__dict__.update(n=n, basis=basis, pis=pis)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def __repr__(self) -> str:
        return f"HeckeModule(n={self.n}, dim={self.dim})"


def _as_int8(A: np.ndarray, what: str) -> np.ndarray:
    """The integer array A as int8: an entry outside the int8 range raises
    InternalError, so that no wrapped value is ever stored."""
    if A.size and (A.min() < INT8.min or A.max() > INT8.max):
        raise InternalError(f"{what} has an entry outside the int8 range {INT8.min}..{INT8.max}")
    return A.astype(np.int8)


def _columns(B: np.ndarray) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The nonzero entries of the square matrix B as layers (columns,
    rows, int64 values), with at most one entry per column in each layer:
    layer k holds the k-th nonzero of every column that has more than k."""
    cols, rows = np.nonzero(B.T)  # sorted by column, then by row
    vals = B[rows, cols].astype(np.int64)
    rank = np.arange(cols.size) - np.searchsorted(cols, cols)
    layers = []
    for k in range(rank.max(initial=-1) + 1):
        at = rank == k
        layers.append((cols[at], rows[at], vals[at]))
    return layers


def _product(A: np.ndarray, layers) -> np.ndarray:
    """A @ B, exactly in int64, for B given by ``_columns(B)``: column c
    of the product gains v times column r of A for each entry (r, c, v)
    of B.  The values v are int64, so an int8 A is widened before it is
    multiplied.  The cost is O(k dim^2) for k the most nonzeros in a column."""
    out = np.zeros(A.shape, dtype=np.int64)
    for cols, rows, vals in layers:
        out[:, cols] += A[:, rows] * vals
    return out


def check_relations(M: HeckeModule) -> None:
    """Verify that there are n - 1 generators, each a dim x dim int8
    matrix, idempotence, the braid relation, and far commutation.

    Raises InternalError on failure; constructors call this and it must
    never fire on well-formed input.
    """
    mats = M.pis
    if len(mats) != M.n - 1:
        raise InternalError(f"expected {M.n - 1} generators for n = {M.n}, got {len(mats)}")
    for i, A in enumerate(mats, start=1):
        if A.shape != (M.dim, M.dim):
            raise InternalError(f"pi_{i} is not a {M.dim} x {M.dim} matrix")
        if A.dtype != np.int8:
            raise InternalError(f"pi_{i} has dtype {A.dtype}, not int8")
    layers = [_columns(A) for A in mats]
    for i, (A, L) in enumerate(zip(mats, layers), start=1):
        if not np.array_equal(_product(A, L), A):
            raise InternalError(f"pi_{i} is not idempotent")
    for i in range(1, M.n - 1):
        A, B = mats[i - 1], mats[i]
        LA, LB = layers[i - 1], layers[i]
        if not np.array_equal(_product(_product(A, LB), LA), _product(_product(B, LA), LB)):
            raise InternalError(f"braid relation fails at {i}")
    for i in range(1, M.n - 1):
        for j in range(i + 2, M.n):
            A, B = mats[i - 1], mats[j - 1]
            if not np.array_equal(_product(A, layers[j - 1]), _product(B, layers[i - 1])):
                raise InternalError(f"far commutation fails at ({i}, {j})")


def _module_from_action(n, basis, act):
    """Assemble int8 matrices from an action callback act(i, b) -> list of
    (coefficient, basis element); the coefficients of each entry are
    summed exactly before the sum is stored."""
    index = {b: k for k, b in enumerate(basis)}
    dim = len(basis)
    pis = []
    for i in range(1, n):
        entries: Counter = Counter()
        for b, col in index.items():
            for coeff, image in act(i, b):
                entries[index[image], col] += coeff
        A = np.zeros((dim, dim), dtype=np.int8)
        if entries:
            rows, cols = zip(*entries)
            A[rows, cols] = _as_int8(np.array(list(entries.values())), f"pi_{i}")
        pis.append(A)
    M = HeckeModule(n, tuple(basis), tuple(pis))
    check_relations(M)
    return M


def _interval_action(elements: frozenset[Perm]):
    def act(i: int, g: Perm):
        if i in descents(g, LEFT):
            return [(1, g)]
        h = mult_s_left(g, i)
        return [(1, h)] if h in elements else []

    return act


def module_B(I: WeakInterval) -> HeckeModule:
    """The weak Bruhat interval module B(I) in its permutation basis."""
    if I.side != LEFT:
        raise DomainError("interval modules take left intervals")
    basis = I.elements
    return _module_from_action(I.n, basis, _interval_action(frozenset(basis)))


def module_Bbar(I: WeakInterval) -> HeckeModule:
    """The negative interval module: pi-bar fixes descents with sign -1."""
    if I.side != LEFT:
        raise DomainError("interval modules take left intervals")
    basis = I.elements
    elements = frozenset(basis)

    def act(i: int, g: Perm):
        # pi = pi_bar + 1: pi-bar negates g at a descent and otherwise
        # sends g to s_i g, or to 0 when s_i g leaves the interval.
        if i in descents(g, LEFT):
            return []
        h = mult_s_left(g, i)
        return [(1, g), (1, h)] if h in elements else [(1, g)]

    return _module_from_action(I.n, basis, act)


def module_M(P: Poset) -> HeckeModule:
    """The poset module on the left linear extensions of P."""
    basis = linear_extensions_L(P)
    return _module_from_action(P.n, basis, _interval_action(frozenset(basis)))


def module_SPIT(alpha: Iterable[int]) -> HeckeModule:
    """The peak-immaculate-tableau module for a peak composition.

    pi-bar negates a tableau when i sits strictly below i+1, moves it to
    the swapped tableau when that stays in the family, and kills it
    otherwise.
    """
    alpha = validate_composition(alpha)
    if not is_peak(alpha):
        raise ShapeError(f"{alpha} is not a peak composition")
    basis = enumerate_family("SPIT", alpha)
    members = set(basis)
    n = sum(alpha)

    def swap_tab(T: Filling, i: int) -> Filling:
        swap = {i: i + 1, i + 1: i}
        return Filling(T.diagram, tuple((x, y, swap.get(v, v)) for x, y, v in T.entries))

    def act(i: int, T: Filling):
        # pi = pi_bar + 1
        yi = T.cell_of(i)[1]
        yj = T.cell_of(i + 1)[1]
        if yi < yj:
            return []  # pi_bar gives -T, so pi gives 0
        out = [(1, T)]
        if yi > yj:
            moved = swap_tab(T, i)
            if moved in members:
                out.append((1, moved))
        return out

    return _module_from_action(n, basis, act)


def twist_theta_chi(M: HeckeModule) -> HeckeModule:
    """The dual-space twist: the new pi-bar matrices are the transposes
    of the negated pi matrices.  The difference is taken in int16, where
    it is exact for int8 generators, and stored as int8."""
    eye = np.eye(M.dim, dtype=np.int16)
    pis = tuple(_as_int8(eye - A.T, f"the twist of pi_{i}") for i, A in enumerate(M.pis, start=1))
    out = HeckeModule(M.n, M.basis, pis)
    check_relations(out)
    return out


def _bijection(pairing: Sequence[tuple[int, int]], dim: int) -> dict[int, int]:
    """``pairing`` as a dict, checked in O(dim) to be a bijection of
    range(dim); a DomainError says what is wrong otherwise."""
    indices = range(dim)
    to2: dict[int, int] = {}
    images: set[int] = set()
    for k, image in pairing:
        if k not in indices or image not in indices:
            raise DomainError(f"pairing ({k}, {image}) leaves the basis indices 0..{dim - 1}")
        if k in to2:
            raise DomainError(f"pairing sends basis index {k} twice")
        if image in images:
            raise DomainError(f"pairing sends two basis indices to {image}")
        to2[k] = image
        images.add(image)
    if len(to2) != dim:
        missing = next(k for k in indices if k not in to2)
        raise DomainError(f"pairing misses basis index {missing}")
    return to2


def signed_intertwiner(
    M1: HeckeModule, M2: HeckeModule, pairing: Sequence[tuple[int, int]]
) -> dict[int, int] | None:
    """Signs eps making the signed permutation matrix Phi (sending basis
    k of M1 to eps[k] times basis pairing[k] of M2) intertwine all
    generators, or None.

    Signs are propagated from connected components and then fully
    verified.  A pairing that is not a bijection of the basis indices
    raises DomainError.
    """
    if M1.n != M2.n or M1.dim != M2.dim:
        return None
    dim = M1.dim
    to2 = _bijection(pairing, dim)
    # Relative signs between basis vectors linked by any generator entry.
    edges: dict[int, list[tuple[int, int]]] = {k: [] for k in range(dim)}
    for A, B in zip(M1.pis, M2.pis):
        for a in range(dim):
            for b in range(dim):
                if a == b:
                    continue
                t = A[b, a]
                if t == 0:
                    continue
                # as Python ints, whose abs cannot wrap at -128
                t, u = int(t), int(B[to2[b], to2[a]])
                if u == 0 or abs(t) != abs(u):
                    return None
                rel = 1 if t == u else -1
                edges[a].append((b, rel))
                edges[b].append((a, rel))
    eps: dict[int, int] = {}
    for root in range(dim):
        if root in eps:
            continue
        eps[root] = 1
        stack = [root]
        while stack:
            a = stack.pop()
            for b, rel in edges[a]:
                if b not in eps:
                    eps[b] = eps[a] * rel
                    stack.append(b)
    phi = np.zeros((dim, dim), dtype=np.int8)
    for a in range(dim):
        phi[to2[a], a] = eps[a]
    phi_layers = _columns(phi)
    for A, B in zip(M1.pis, M2.pis):
        if not np.array_equal(_product(phi, _columns(A)), _product(B, phi_layers)):
            return None
    return eps


def intertwiner_from_dp_iso(I: WeakInterval, J: WeakInterval) -> dict[Perm, Perm] | None:
    """The descent-preserving isomorphism I -> J, right translation by
    lo_I^-1 lo_J, when its basis bijection intertwines B(I) and B(J);
    None when I and J are inequivalent or it does not intertwine.  The
    generators of B have entries 0 and 1, so every sign found by
    ``signed_intertwiner`` is +1."""
    mapping = dp_iso_find(I, J)
    if mapping is None:
        return None
    MI, MJ = module_B(I), module_B(J)
    index_J = {g: k for k, g in enumerate(MJ.basis)}
    pairing = [(k, index_J[mapping[g]]) for k, g in enumerate(MI.basis)]
    return mapping if signed_intertwiner(MI, MJ, pairing) is not None else None
