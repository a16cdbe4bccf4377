"""
Box diagrams in the first quadrant, standard fillings, reading words, the
canonical and northeast-rectified fillings, and standard tableaux with
their weak-order comparison and the star action.

Cells are (column, row) pairs, both 1-based, rows counted from the
bottom.  A diagram of n cells is valid when the smallest enclosing
rectangle has no empty row or column.
"""

from __future__ import annotations

import json
from functools import cached_property
from typing import Iterable, Mapping

from .compositions import Composition, validate_composition
from .errors import DomainError, ShapeError, cap_exceeded, resolve_cap
from .frozen import Frozen
from .permutations import Perm, validate_perm, weak_leq
from .posets import Poset

__all__ = [
    "Diagram",
    "Filling",
    "diagram_of",
    "reflect",
    "profiles",
    "canonical_fill",
    "tableau_T",
    "fill_ne",
    "poset_of_filling",
    "reading",
    "enumerate_ST",
    "count_ST",
    "is_standard_tableau",
    "st_leq",
    "hecke_star",
    "is_free_upper_right",
    "free_violation",
    "diagram_to_json",
]

Cell = tuple[int, int]

ST_CAP = 100_000


class Diagram(Frozen):
    """A finite cell set with no empty row or column in its bounding box."""

    def __init__(self, cells: Iterable[Cell]):
        cells = frozenset((int(x), int(y)) for x, y in cells)
        self.__dict__.update(cells=cells, _key=(cells,))
        if not cells:
            raise ShapeError("diagram must be nonempty")
        if any(x < 1 or y < 1 for x, y in cells):
            raise ShapeError(f"cells must lie in the first quadrant: {sorted(cells)}")
        xs = {x for x, _ in cells}
        ys = {y for _, y in cells}
        if min(xs) != 1 or min(ys) != 1:
            raise ShapeError("diagram must touch column 1 and row 1")
        if xs != set(range(1, max(xs) + 1)) or ys != set(range(1, max(ys) + 1)):
            raise ShapeError("diagram has an empty row or column in its bounding box")

    @property
    def n(self) -> int:
        return len(self.cells)

    @property
    def n_cols(self) -> int:
        return max(x for x, _ in self.cells)

    @property
    def n_rows(self) -> int:
        return max(y for _, y in self.cells)

    def column(self, x: int) -> list[Cell]:
        return sorted(c for c in self.cells if c[0] == x)

    def row(self, y: int) -> list[Cell]:
        return sorted(c for c in self.cells if c[1] == y)

    def __repr__(self) -> str:
        return f"Diagram({sorted(self.cells)})"


def _normalized(cells: Iterable[Cell]) -> frozenset[Cell]:
    cells = list(cells)
    dx = min(x for x, _ in cells) - 1
    dy = min(y for _, y in cells) - 1
    return frozenset((x - dx, y - dy) for x, y in cells)


class Filling(Frozen):
    """A bijective assignment of 1..n to the cells of a diagram."""

    def __init__(self, diagram: Diagram, entries: Iterable[tuple[int, int, int]]):
        entries = tuple(sorted((int(x), int(y), int(v)) for x, y, v in entries))
        self.__dict__.update(diagram=diagram, entries=entries, _key=(diagram, entries))
        cells = frozenset((x, y) for x, y, _ in entries)
        if cells != self.diagram.cells:
            raise ShapeError("entries do not cover the diagram cells exactly")
        values = sorted(v for _, _, v in entries)
        if values != list(range(1, self.diagram.n + 1)):
            raise ShapeError(f"entries must be 1..{self.diagram.n}, each once")

    @property
    def n(self) -> int:
        return self.diagram.n

    @cached_property
    def _by_cell(self) -> dict[Cell, int]:
        return {(x, y): v for x, y, v in self.entries}

    @cached_property
    def _by_value(self) -> dict[int, Cell]:
        return {v: (x, y) for x, y, v in self.entries}

    def value_at(self, x: int, y: int) -> int:
        return self._by_cell[(x, y)]

    def cell_of(self, v: int) -> Cell:
        return self._by_value[v]

    def __repr__(self) -> str:
        return f"Filling({sorted(self.entries)})"


def fill_from_map(diagram: Diagram, mapping: Mapping[Cell, int]) -> Filling:
    return Filling(diagram, tuple((x, y, v) for (x, y), v in mapping.items()))


def diagram_of(alpha: Iterable[int], kind: str) -> Diagram:
    """The composition diagram tcd(alpha) or ribbon diagram trd(alpha).

    tcd: row i from the bottom holds alpha_i left-justified cells.
    trd: column i from the left holds alpha_i cells, consecutive columns
    overlapping in exactly one row, anchored at the lower-left.

    >>> sorted(diagram_of((1, 3, 2), "composition").cells)
    [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 2)]
    """
    alpha = validate_composition(alpha)
    if not alpha:
        raise ShapeError("diagram of the empty composition is undefined")
    if kind == "composition":
        cells = {(x, y) for y, part in enumerate(alpha, start=1) for x in range(1, part + 1)}
    elif kind == "ribbon":
        ell = len(alpha)
        offsets = [sum(part - 1 for part in alpha[i:]) for i in range(1, ell + 1)]
        cells = {
            (i, j + offsets[i - 1])
            for i in range(1, ell + 1)
            for j in range(1, alpha[i - 1] + 1)
        }
    else:
        raise DomainError(f"unknown diagram kind {kind!r}")
    return Diagram(frozenset(cells))


def _reflect_cell(op: str, x: int, y: int, n_rows: int, n_cols: int) -> Cell:
    if op == "transpose":
        return (y, x)
    if op == "x_axis":
        return (x, n_rows + 1 - y)
    if op == "star":
        return (n_rows + 1 - y, n_cols + 1 - x)
    raise DomainError(f"unknown reflection {op!r}")


def reflect(obj, op: str):
    """Reflect a diagram or filling: transpose, star, x_axis, or bar.

    star is the reflection across the antidiagonal; bar (fillings only)
    replaces each entry v with n+1-v in place.  All four are involutions
    and results are renormalized to touch row 1 and column 1.
    """
    if isinstance(obj, Diagram):
        if op == "bar":
            raise DomainError("bar acts on fillings, not diagrams")
        r, c = obj.n_rows, obj.n_cols
        return Diagram(_normalized(_reflect_cell(op, x, y, r, c) for x, y in obj.cells))
    if isinstance(obj, Filling):
        if op == "bar":
            n = obj.n
            return Filling(obj.diagram, tuple((x, y, n + 1 - v) for x, y, v in obj.entries))
        new_diag = reflect(obj.diagram, op)
        r, c = obj.diagram.n_rows, obj.diagram.n_cols
        moved = {_reflect_cell(op, x, y, r, c): v for x, y, v in obj.entries}
        dx = min(x for x, _ in moved) - 1
        dy = min(y for _, y in moved) - 1
        return Filling(new_diag, tuple((x - dx, y - dy, v) for (x, y), v in moved.items()))
    raise DomainError(f"cannot reflect object of type {type(obj).__name__}")


def profiles(D: Diagram) -> tuple[Composition, Composition]:
    """(r(D), c(D)): cells per row from the top, and per column from the left.

    >>> profiles(diagram_of((3,), "composition"))
    ((3,), (1, 1, 1))
    """
    r = tuple(len(D.row(y)) for y in range(D.n_rows, 0, -1))
    c = tuple(len(D.column(x)) for x in range(1, D.n_cols + 1))
    return r, c


def _fill_in_order(D: Diagram, cells_in_order: list[Cell]) -> Filling:
    return Filling(D, tuple((x, y, v) for v, (x, y) in enumerate(cells_in_order, start=1)))


def canonical_fill(D: Diagram, kind: str) -> Filling:
    """F^down or F^right.

    down: 1..n placed down each column, top to bottom, leftmost column
    first.  right: across each row, left to right, topmost row first.
    """
    if kind == "down":
        order = sorted(D.cells, key=lambda c: (c[0], -c[1]))
    elif kind == "right":
        order = sorted(D.cells, key=lambda c: (-c[1], c[0]))
    else:
        raise DomainError(f"unknown canonical fill kind {kind!r}")
    return _fill_in_order(D, order)


def tableau_T(D: Diagram, primed: bool) -> Filling:
    """T'_D (primed: columns bottom to top, leftmost first) or T_D
    (rows left to right, bottommost first)."""
    if primed:
        order = sorted(D.cells, key=lambda c: (c[0], c[1]))
    else:
        order = sorted(D.cells, key=lambda c: (c[1], c[0]))
    return _fill_in_order(D, order)


def poset_of_filling(F: Filling) -> Poset:
    """The poset with i <= j when i's cell is weakly below and left of j's."""
    n = F.n
    pos = F._by_value
    rels = []
    for i in range(1, n + 1):
        xi, yi = pos[i]
        for j in range(1, n + 1):
            if i != j:
                xj, yj = pos[j]
                if xi <= xj and yi <= yj:
                    rels.append((i, j))
    return Poset(n, rels)


def _noncovering_pair(pos: Mapping[int, Cell], j: int, x: int) -> bool:
    """True when j <= x in the filling's poset but not as a cover."""
    xj, yj = pos[j]
    xx, yx = pos[x]
    if not (xj <= xx and yj <= yx):
        return False
    return any(
        k != j and k != x and xj <= cx <= xx and yj <= cy <= yx
        for k, (cx, cy) in pos.items()
    )


def fill_ne(D: Diagram) -> Filling:
    """The northeast-rectified filling F^ne, built from F^down.

    Step i looks for an entry x > i strictly above and right of i such
    that every j in i..x-1 sits strictly below, weakly left of x and the
    pair (j, x) is comparable but not covering; the uppermost such x
    (leftmost on ties) absorbs i: entries i..x-1 shift up by one and i
    lands in x's cell.
    """
    pos: dict[int, Cell] = dict(canonical_fill(D, "down")._by_value)
    n = D.n
    for i in range(1, n + 1):
        xi, yi = pos[i]
        candidates = []
        for x in range(i + 1, n + 1):
            cx, cy = pos[x]
            if not (cx > xi and cy > yi):
                continue
            if all(
                pos[j][1] < cy and pos[j][0] <= cx and _noncovering_pair(pos, j, x)
                for j in range(i, x)
            ):
                candidates.append(x)
        if candidates:
            target = min(candidates, key=lambda x: (-pos[x][1], pos[x][0]))
            cell = pos[target]
            for j in range(target - 1, i - 1, -1):
                pos[j + 1] = pos[j]
            pos[i] = cell
    return Filling(D, tuple((x, y, v) for v, (x, y) in pos.items()))


_READING_ORDERS = {
    "TBLR": lambda c: (c[0], -c[1]),
    "LRTB": lambda c: (-c[1], c[0]),
    "LRBT": lambda c: (c[1], c[0]),
    "BTLR": lambda c: (c[0], c[1]),
    "RLBT": lambda c: (c[1], -c[0]),
    "BTRL": lambda c: (-c[0], c[1]),
}


def _composition_shape(D: Diagram) -> Composition:
    """The composition alpha with D = tcd(alpha), or raise ShapeError."""
    alpha = []
    for y in range(1, D.n_rows + 1):
        row = D.row(y)
        if [x for x, _ in row] != list(range(1, len(row) + 1)):
            raise ShapeError("diagram is not a composition diagram")
        alpha.append(len(row))
    return tuple(alpha)


def reading(F: Filling, scheme: str) -> Perm:
    """Read the entries of ``F`` under the named scheme, as a permutation.

    The two-letter pairs name the inner and outer sweep: e.g. TBLR reads
    top to bottom in each column, columns left to right.  RLBTBT and DR
    apply only to composition-diagram shapes.

    >>> F = canonical_fill(diagram_of((2, 1), "composition"), "right")
    >>> reading(F, "TBLR")
    (1, 2, 3)
    """
    if scheme in _READING_ORDERS:
        order = sorted(F.diagram.cells, key=_READING_ORDERS[scheme])
        return validate_perm(tuple(F.value_at(x, y) for x, y in order))
    if scheme == "RLBTBT":
        _composition_shape(F.diagram)
        body = sorted(
            (c for c in F.diagram.cells if c[0] > 1), key=lambda c: (c[1], -c[0])
        )
        column1 = sorted(c for c in F.diagram.cells if c[0] == 1)
        word = [F.value_at(x, y) for x, y in body] + [F.value_at(x, y) for x, y in column1]
        return validate_perm(tuple(word))
    if scheme == "DR":
        return _reading_dr(F)
    raise ShapeError(f"unknown reading scheme {scheme!r}")


def _reading_dr(F: Filling) -> Perm:
    """Diagonal reading for peak-shaped composition fillings: the pairs
    (1, j), (2, j-1) down the first two columns, then the row tails from
    the top row down."""
    alpha = _composition_shape(F.diagram)
    ell = len(alpha)
    if any(part < 2 for part in alpha[:-1]):
        raise ShapeError("DR reading needs a peak composition shape")
    word = []
    for j in range(1, ell + 1):
        word.append(F.value_at(1, j))
        if j >= 2 and (2, j - 1) in F.diagram.cells:
            word.append(F.value_at(2, j - 1))
    for j in range(ell, 0, -1):
        start = 2 if j == ell else 3
        for x in range(start, alpha[j - 1] + 1):
            word.append(F.value_at(x, j))
    return validate_perm(tuple(word))


def is_standard_tableau(F: Filling) -> bool:
    """Entries weakly increase toward the upper right in the product order."""
    pos = F._by_value
    n = F.n
    for i in range(1, n + 1):
        xi, yi = pos[i]
        for j in range(1, n + 1):
            xj, yj = pos[j]
            if xi <= xj and yi <= yj and i > j and (xi, yi) != (xj, yj):
                return False
    return True


def enumerate_ST(D: Diagram, cap: int | None = None) -> tuple[Filling, ...]:
    """All standard tableaux on D, by recursive placement of n, n-1, ...
    at cells maximal among those not yet used.  Output in ascending TBLR
    reading order; raises ResourceCapError (with the partial count) past
    the cap."""
    limit = resolve_cap(cap, ST_CAP)
    cells = sorted(D.cells)
    results: list[dict[Cell, int]] = []
    assignment: dict[Cell, int] = {}
    remaining = set(cells)

    def place(v: int) -> None:
        if v == 0:
            if len(results) >= limit:
                raise cap_exceeded("standard tableau count", "count", limit, cap, len(results))
            results.append(dict(assignment))
            return
        for c in sorted(remaining):
            cx, cy = c
            if any(o != c and o[0] >= cx and o[1] >= cy for o in remaining):
                continue
            assignment[c] = v
            remaining.remove(c)
            place(v - 1)
            remaining.add(c)
            del assignment[c]

    place(D.n)
    fillings = [fill_from_map(D, m) for m in results]
    fillings.sort(key=lambda F: reading(F, "TBLR"))
    return tuple(fillings)


def count_ST(D: Diagram, cap: int | None = None) -> int:
    """|ST(D)| without enumeration: linear extensions of the cell poset,
    counted by dynamic programming over its down-sets.

    The cap bounds the number of down-sets visited.
    """
    limit = resolve_cap(cap, ST_CAP)
    cells = sorted(D.cells)
    n = len(cells)
    preds = []
    for x, y in cells:
        mask = 0
        for k, (cx, cy) in enumerate(cells):
            if (cx, cy) != (x, y) and cx <= x and cy <= y:
                mask |= 1 << k
        preds.append(mask)
    counts = {0: 1}
    frontier = {0}
    for _ in range(n):
        nxt: dict[int, int] = {}
        for S in frontier:
            ways = counts[S]
            for k in range(n):
                bit = 1 << k
                if S & bit or (preds[k] & ~S):
                    continue
                T = S | bit
                nxt[T] = nxt.get(T, 0) + ways
        counts.update(nxt)
        if len(counts) > limit:
            raise cap_exceeded("down-set count", "count", limit, cap, len(counts))
        frontier = set(nxt)
    return counts[(1 << n) - 1]


def st_leq(T: Filling, U: Filling) -> bool:
    """The order on ST(D): compare TBLR reading words in the left weak order."""
    if T.diagram != U.diagram:
        raise ShapeError("tableaux must share a shape")
    return weak_leq(reading(T, "TBLR"), reading(U, "TBLR"), "L")


def hecke_star(i: int, T: Filling) -> Filling | None:
    """The star action of the i-th idempotent generator on a standard tableau.

    Returns the swapped tableau when i is strictly upper-left of i+1,
    None (zero) when i is weakly lower-left of i+1, and T itself
    otherwise.
    """
    if not 1 <= i <= T.n - 1:
        raise DomainError(f"generator index {i} out of range")
    xi, yi = T.cell_of(i)
    xj, yj = T.cell_of(i + 1)
    if xi < xj and yi > yj:
        swap = {i: i + 1, i + 1: i}
        return Filling(T.diagram, tuple((x, y, swap.get(v, v)) for x, y, v in T.entries))
    if xi <= xj and yi <= yj:
        return None
    return T


def free_violation(D: Diagram) -> tuple[Cell, Cell] | None:
    """The first strictly upper-right pair with an otherwise empty
    enclosing rectangle, or None when D is free of the configuration."""
    cells = sorted(D.cells)
    for x1, y1 in cells:
        for x2, y2 in cells:
            if x1 < x2 and y1 < y2:
                if not any(
                    (cx, cy) not in ((x1, y1), (x2, y2))
                    and x1 <= cx <= x2
                    and y1 <= cy <= y2
                    for cx, cy in cells
                ):
                    return ((x1, y1), (x2, y2))
    return None


def is_free_upper_right(D: Diagram) -> bool:
    """True when no two cells span an otherwise empty rectangle upward-right.

    >>> is_free_upper_right(Diagram(frozenset({(1, 1), (2, 2)})))
    False
    """
    return free_violation(D) is None


def diagram_to_json(D: Diagram) -> str:
    return json.dumps({"n": D.n, "cells": [list(c) for c in sorted(D.cells)]})
