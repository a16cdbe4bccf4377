"""
The descent-preserving equivalence on left weak Bruhat intervals: one-step
moves, class enumeration by right translation, the equivalence test by
the class minimum, and the class order.

Two intervals are equivalent when a poset isomorphism between them
preserves every left descent set.  The one-step move multiplies an
interval on the right by s_i whenever (i, i+1) is a comparable
non-covering pair of its regular poset.  A class is the closure under
moves; it is enumerated as the right weak interval of its lower
endpoints, translated by the class's fixed xi.  Two intervals are
equivalent exactly when they share the class minimum and xi, and right
translation is then the isomorphism.  ``verify`` checks the enumeration
against the closure by BFS and the equivalence test against a search
for isomorphisms.
"""

from __future__ import annotations

import json
from typing import NamedTuple

from .errors import DomainError, InternalError, cap_exceeded, resolve_cap
from .permutations import (
    LEFT,
    Perm,
    WeakInterval,
    compose,
    format_perm,
    inv_mask,
    inverse,
    mult_s_right,
    right_interval_bfs,
    weak_interval,
)

__all__ = [
    "EquivClass",
    "one_step_moves",
    "equiv_class",
    "class_key",
    "dp_iso_exists",
    "dp_iso_find",
    "class_to_json",
    "hasse_dot",
]

CLASS_CAP = 100_000


def _has_move(lo: Perm, hi: Perm, i: int) -> bool:
    """Whether [lo, hi]_L has a one-step move at i, in O(n): (i, i+1) is
    comparable when lo and hi order it the same way, and not covering
    when some k lies strictly between it in both lo and hi."""
    a, b, c, d = lo[i - 1], lo[i], hi[i - 1], hi[i]
    if (a < b) != (c < d):
        return False  # incomparable
    if a > b:
        a, b, c, d = b, a, d, c
    return b - a > 1 and d - c > 1 and any(a < x < b and c < y < d for x, y in zip(lo, hi))


def one_step_moves(I: WeakInterval) -> list[tuple[int, WeakInterval]]:
    """All legal moves (i, I s_i) out of a left interval [sigma, rho]_L:
    one at each i where (i, i+1) is a comparable pair that is not a
    covering pair in the interval's poset, x <_P y iff sigma(x) < sigma(y)
    and rho(x) < rho(y).  A move keeps lo <=_L hi, so the targets are
    built unchecked."""
    if I.side != LEFT:
        raise DomainError("one_step_moves expects a left interval")
    lo, hi = I.lo, I.hi
    return [
        (i, WeakInterval.unchecked(LEFT, mult_s_right(lo, i), mult_s_right(hi, i)))
        for i in range(1, I.n)
        if _has_move(lo, hi, i)
    ]


class EquivClass(NamedTuple):
    """One equivalence class, in canonical member order.

    Members are sorted by (lo, hi); hasse edges (a, b, i) record
    members[a] s_i = members[b] with a < b; xi is hi lo^-1, the same for
    every member.
    """

    n: int
    members: tuple[WeakInterval, ...]
    xi: Perm
    hasse: tuple[tuple[int, int, int], ...]
    min_index: int
    max_index: int

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def min(self) -> WeakInterval:
        return self.members[self.min_index]

    @property
    def max(self) -> WeakInterval:
        return self.members[self.max_index]


def _walk_to_end(lo: Perm, xi: Perm, down: bool) -> Perm:
    """The lower endpoint of the class minimum (down) or maximum (up),
    reached from [lo, xi lo]_L by moves at right descents (down) or
    ascents (up) of the lower endpoint, taken in any order.  A move at i
    swaps positions i and i+1 of both windows and keeps the pairs
    (lo(k), hi(k)), so only the moves at i-1 and i+1 change: O(n) a step."""
    lo = list(lo)
    hi = [xi[x - 1] for x in lo]
    n = len(lo)
    todo = list(range(1, n))
    while todo:
        i = todo.pop()
        if (lo[i - 1] > lo[i]) != down or not _has_move(lo, hi, i):
            continue
        lo[i - 1], lo[i] = lo[i], lo[i - 1]
        hi[i - 1], hi[i] = hi[i], hi[i - 1]
        todo += [j for j in (i - 1, i + 1) if 0 < j < n]
    return tuple(lo)


def equiv_class(I: WeakInterval, cap: int | None = None) -> EquivClass:
    """The class of a left interval, enumerated by right translation.

    By Kim-Lee-Oh the lower endpoints of the class form the right weak
    interval [sigma_min, sigma_max]_R, and each member is
    [lambda, xi lambda]_L with the fixed xi = hi lo^-1.  So the class is
    found by walking down and up by moves to sigma_min and sigma_max and
    listing that right interval with ``right_interval_bfs``, whose covers
    are the Hasse edges.  By length additivity lambda <=_L xi lambda iff
    no value pair inverted by lambda is inverted by xi: an O(1) check on
    the BFS mask.  The closure under one-step moves by BFS, which defines
    the class, is ``verify.class_by_moves``; verify checks against it.

    Raises ResourceCapError once the class passes ``cap`` members.
    """
    limit = resolve_cap(cap, CLASS_CAP)
    if I.side != LEFT:
        raise DomainError("equiv_class expects a left interval")
    xi = compose(I.hi, inverse(I.lo))
    xi_mask = inv_mask(xi)
    bottom = _walk_to_end(I.lo, xi, down=True)
    top = _walk_to_end(I.lo, xi, down=False)
    found = []
    for lo, mask, covers in right_interval_bfs(bottom, top):
        # The class always has its first member, so a cap below 1 acts as 1.
        if len(found) >= max(limit, 1):
            raise cap_exceeded("class size", "count", limit, cap, len(found))
        if mask & xi_mask:
            raise InternalError(f"{format_perm(lo)} is not below xi times it in the class of {I}")
        found.append((lo, mask, covers))
    found.sort()
    index = {mask: k for k, (_, mask, _) in enumerate(found)}
    hasse = sorted((a, index[up], i) for a, (_, _, covers) in enumerate(found) for i, up in covers)
    members = tuple(WeakInterval.unchecked(LEFT, lo, compose(xi, lo)) for lo, _, _ in found)
    # A right cover is lexicographically later: sigma_min first, sigma_max last.
    return EquivClass(I.n, members, xi, tuple(hasse), 0, len(members) - 1)


def class_key(I: WeakInterval) -> tuple[Perm, Perm]:
    """(sigma_min, xi): the lower endpoint of the class minimum and the
    class's fixed xi, which together name the class of I."""
    if I.side != LEFT:
        raise DomainError("descent-preserving equivalence expects left intervals")
    xi = compose(I.hi, inverse(I.lo))
    return _walk_to_end(I.lo, xi, down=True), xi


def dp_iso_find(I: WeakInterval, J: WeakInterval) -> dict[Perm, Perm] | None:
    """A descent-preserving poset isomorphism I -> J, or None.

    I and J are equivalent exactly when they have the same class key, and
    then right translation g -> g gamma with gamma = lo_I^-1 lo_J is the
    isomorphism; ``verify`` checks it against a search for isomorphisms.
    """
    if class_key(I) != class_key(J):
        return None
    gamma = compose(inverse(I.lo), J.lo)
    return {g: compose(g, gamma) for g in I.elements}


def dp_iso_exists(I: WeakInterval, J: WeakInterval) -> bool:
    """Whether some descent-preserving poset isomorphism I -> J exists.

    >>> I = weak_interval((1, 2, 3), (2, 1, 3), "L")
    >>> J = weak_interval((1, 2, 3), (1, 3, 2), "L")
    >>> dp_iso_exists(I, J)
    False
    """
    return class_key(I) == class_key(J)


def class_to_json(C: EquivClass) -> str:
    return json.dumps(
        {
            "xi": format_perm(C.xi),
            "members": [[format_perm(J.lo), format_perm(J.hi)] for J in C.members],
            "hasse": [list(e) for e in C.hasse],
            "min": C.min_index,
            "max": C.max_index,
        }
    )


def hasse_dot(C: EquivClass) -> str:
    """DOT rendering of the class Hasse diagram, edges labeled s_i.  Members
    are sorted by (lo, hi), and lo s_i is lexicographically later than lo
    exactly when i is an ascent of lo, so an edge (a, b, i), a < b, points up."""
    lines = ["digraph hasse {"]
    for k, J in enumerate(C.members):
        lines.append(f'  m{k} [label="{J}"];')
    for a, b, i in C.hasse:
        lines.append(f'  m{a} -> m{b} [label="s{i}"];')
    lines.append("}")
    return "\n".join(lines)
