"""
Diagram constructions attached to lower and upper descent intervals and to
the module families, plus the min/max descriptions of their classes.

A lower descent interval [w_0(S), rho]_L gets the diagram D_{S;rho};
an upper descent interval [sigma, w_1(S)]_L gets D_{sigma;S}, realized
as the antidiagonal reflection of D_{S^c; w_0 sigma}.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .compositions import Composition, is_peak, validate_composition
from .errors import DomainError, InternalError, OrderError, ShapeError
from .diagrams import (
    Diagram,
    Filling,
    diagram_of,
    fill_ne,
    poset_of_filling,
    reflect,
)
from .permutations import (
    LEFT,
    Perm,
    WeakInterval,
    compose,
    descents,
    longest_element,
    longest_parabolic,
    validate_perm,
    w1,
    weak_interval,
    weak_leq,
)
from .posets import sigma_L_interval

__all__ = [
    "UpperDiagram",
    "build_D_S_rho",
    "build_D_sigma_S",
    "fill_sw",
    "family_diagram",
    "interval_of_filling",
    "lower_minmax",
    "upper_minmax",
]


def build_D_S_rho(S: Iterable[int], rho: Perm) -> Diagram:
    """The diagram of the lower descent interval [w_0(S), rho]_L.

    Step 1 groups the window of rho into the blocks cut by S^c; step 2
    groups positions by the left descents of rho; a cell (i, j) appears
    when block i meets descent run j.

    >>> sorted(build_D_S_rho({2, 5}, (2, 3, 1, 5, 6, 4)).cells)
    [(1, 2), (2, 1), (2, 2), (3, 3), (4, 2), (4, 3)]
    """
    rho = validate_perm(rho)
    n = len(rho)
    S = frozenset(S)
    if not weak_leq(longest_parabolic(S, n), rho, LEFT):
        raise OrderError("w_0(S) must be below rho in the left weak order")
    z = [0] + sorted(frozenset(range(1, n)) - S) + [n]
    blocks = [
        frozenset(rho[r - 1] for r in range(z[i - 1] + 1, z[i] + 1))
        for i in range(1, len(z))
    ]
    q = [0] + sorted(descents(rho, LEFT)) + [n]
    runs = [
        frozenset(range(q[j - 1] + 1, q[j] + 1)) for j in range(1, len(q))
    ]
    cells = {
        (i, j)
        for i, block in enumerate(blocks, start=1)
        for j, run in enumerate(runs, start=1)
        if block & run
    }
    return Diagram(frozenset(cells))


class UpperDiagram(NamedTuple):
    """D_{sigma;S} with its construction parameters kept alongside.

    The southwest filling depends on (sigma, S), not on the cell set
    alone, so the provenance travels with the diagram.
    """

    diagram: Diagram
    sigma: Perm
    s_set: frozenset[int]


def build_D_sigma_S(sigma: Perm, S: Iterable[int]) -> UpperDiagram:
    """The diagram of the upper descent interval [sigma, w_1(S)]_L,
    realized as the antidiagonal reflection of D_{S^c; w_0 sigma}."""
    sigma = validate_perm(sigma)
    n = len(sigma)
    S = frozenset(S)
    if not weak_leq(sigma, w1(S, n), LEFT):
        raise OrderError("sigma must be below w_1(S) in the left weak order")
    comp_S = frozenset(range(1, n)) - S
    lower = build_D_S_rho(comp_S, compose(longest_element(n), sigma))
    return UpperDiagram(reflect(lower, "star"), sigma, S)


def fill_sw(ud: UpperDiagram) -> Filling:
    """The southwest-rectified filling of D_{sigma;S}: the star reflection
    of the northeast filling of the complementary lower diagram."""
    if not isinstance(ud, UpperDiagram):
        raise DomainError(
            "fill_sw needs the diagram's (sigma, S) provenance; "
            "pass the result of build_D_sigma_S"
        )
    n = len(ud.sigma)
    comp_S = frozenset(range(1, n)) - ud.s_set
    lower = build_D_S_rho(comp_S, compose(longest_element(n), ud.sigma))
    filled = fill_ne(lower)
    result = reflect(filled, "star")
    if result.diagram != ud.diagram:
        raise InternalError("southwest filling landed on the wrong diagram")
    return result


def _v_family_diagram(alpha: Composition) -> Diagram:
    ell = len(alpha)
    offsets = [sum(part - 1 for part in alpha[i:]) for i in range(1, ell + 1)]
    cells = {(i, 1) for i in range(1, ell + 1)}
    cells |= {
        (i, j + offsets[i - 1])
        for i in range(1, ell + 1)
        for j in range(2, alpha[i - 1] + 1)
    }
    return Diagram(frozenset(cells))


def _q_family_diagram(alpha: Composition) -> Diagram:
    if not is_peak(alpha):
        raise ShapeError(f"{alpha} is not a peak composition")
    ell = len(alpha)
    # Tail offset for row j; the stated index range stops at ell-2 but the
    # construction needs it for every row below the top.
    def k(j: int) -> int:
        return (ell - 1) + sum(alpha[r - 1] - 2 for r in range(j + 1, ell + 1))

    cells = set()
    for j in range(1, ell + 1):
        if j == ell:
            cells |= {(j + x - 1, j) for x in range(1, alpha[ell - 1] + 1)}
        else:
            cells |= {(j, j), (j + 1, j)}
            cells |= {(k(j) + x, j) for x in range(3, alpha[j - 1] + 1)}
    return Diagram(frozenset(cells))


def _shat_diagram(alpha: Composition) -> Diagram:
    """The diagram of the canonical Young-composition class, by the
    row-regrouping algorithm on tcd(alpha)."""
    ell = len(alpha)
    tcd = diagram_of(alpha, "composition").cells

    def boxes_above(x: int, y: int) -> bool:
        return any(alpha[yy - 1] >= x for yy in range(y + 1, ell + 1))

    bb_col1 = [
        (1, y)
        for y in range(1, ell + 1)
        if (y < ell and alpha[y - 1] > 1) or y == ell
    ]
    bb_rest = sorted(
        (x, y)
        for x, y in tcd
        if x > 1 and not boxes_above(x, y) and not boxes_above(x - 1, y)
    )
    bb = bb_col1 + bb_rest

    assigned: set[tuple[int, int]] = set()
    groups: list[list[tuple[int, int]]] = []
    prev_col1_row = 0
    for b, d in bb:
        if b == 1:
            group = [(1, y) for y in range(d, prev_col1_row, -1)]
            prev_col1_row = d
        else:
            group = [(b, d)]
        assigned.update(group)
        # Chain: keep absorbing the lowermost free box of the next column
        # strictly below the last box taken.
        while True:
            cx, cy = group[-1]
            below = [
                y
                for x, y in tcd
                if x == cx + 1 and y < cy and (x, y) not in assigned
            ]
            if not below:
                break
            nxt = (cx + 1, min(below))
            group.append(nxt)
            assigned.add(nxt)
        groups.append(group)
    if assigned != tcd:
        raise InternalError(f"unassigned boxes remain for alpha={alpha}")
    cells = {
        (row, j)
        for j, group in enumerate(groups, start=1)
        for _, row in group
    }
    return Diagram(frozenset(cells))


_FAMILY_BUILDERS = {
    "P": lambda alpha: diagram_of(alpha, "ribbon"),
    "V": _v_family_diagram,
    "X": lambda alpha: reflect(diagram_of(alpha, "composition"), "transpose"),
    "Shat": _shat_diagram,
    "Q": _q_family_diagram,
}


def family_diagram(kind: str, alpha: Iterable[int]) -> Diagram:
    """The diagram attached to one of the module families P, V, X, Shat, Q.

    >>> sorted(family_diagram("Q", (3, 2, 3, 1)).cells)
    [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3), (4, 3), (4, 4), (5, 3), (6, 1)]
    """
    alpha = validate_composition(alpha)
    if not alpha:
        raise ShapeError("family diagrams need a nonempty composition")
    if kind not in _FAMILY_BUILDERS:
        raise DomainError(f"unknown family {kind!r}")
    return _FAMILY_BUILDERS[kind](alpha)


def interval_of_filling(F: Filling) -> WeakInterval:
    """Sigma_L of the filling's poset, as a left weak interval."""
    return sigma_L_interval(poset_of_filling(F))


def lower_minmax(S: Iterable[int], rho: Perm) -> tuple[WeakInterval, WeakInterval]:
    """min and max of the class of the lower descent interval [w_0(S), rho]_L.

    The minimum is the interval itself; the maximum is read off the
    northeast-rectified filling of D_{S;rho}.
    """
    rho = validate_perm(rho)
    S = frozenset(S)
    D = build_D_S_rho(S, rho)
    lo = weak_interval(longest_parabolic(S, len(rho)), rho, LEFT)
    hi = interval_of_filling(fill_ne(D))
    return lo, hi


def upper_minmax(sigma: Perm, S: Iterable[int]) -> tuple[WeakInterval, WeakInterval]:
    """min and max of the class of the upper descent interval
    [sigma, w_1(S)]_L; the minimum comes from the southwest filling."""
    sigma = validate_perm(sigma)
    S = frozenset(S)
    ud = build_D_sigma_S(sigma, S)
    lo = interval_of_filling(fill_sw(ud))
    hi = weak_interval(sigma, w1(S, len(sigma)), LEFT)
    return lo, hi
