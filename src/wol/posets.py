"""
Posets on the ground set {1..n}: regularity, linear extensions, and the
correspondence with left weak Bruhat intervals.

The relation is stored densely as one bitmask per element (bit j-1 of
``up[i-1]`` set when i <= j in the poset); the reflexive-transitive
closure is taken at construction and antisymmetry is checked.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import DomainError, OrderError, cap_exceeded, resolve_cap
from .permutations import (
    LEFT,
    Perm,
    WeakInterval,
    weak_interval,
)

__all__ = [
    "Poset",
    "COVERING",
    "COMPARABLE_NONCOVERING",
    "INCOMPARABLE",
    "chain",
    "linear_extensions_L",
    "is_regular",
    "interval_to_poset",
    "extremes_of_regular",
    "sigma_L_interval",
    "classify_pair",
    "relabel",
    "bar",
]

COVERING = "covering"
COMPARABLE_NONCOVERING = "comparable_noncovering"
INCOMPARABLE = "incomparable"

LINEAR_EXTENSION_N_CAP = 9


class Poset:
    """A finite poset on {1..n}."""

    __slots__ = ("n", "_up")

    def __init__(self, n: int, relations: Iterable[tuple[int, int]] = ()):
        if n < 1:
            raise DomainError(f"ground set must be nonempty, got n={n}")
        up = [1 << i for i in range(n)]
        for a, b in relations:
            if not (1 <= a <= n and 1 <= b <= n):
                raise DomainError(f"relation ({a}, {b}) out of range for n={n}")
            up[a - 1] |= 1 << (b - 1)
        # Warshall closure over the bitmask rows.
        for k in range(n):
            bit = 1 << k
            for i in range(n):
                if up[i] & bit:
                    up[i] |= up[k]
        for i in range(n):
            for j in range(i + 1, n):
                if up[i] >> j & 1 and up[j] >> i & 1:
                    raise DomainError(f"relation is not antisymmetric: {i + 1} ~ {j + 1}")
        self.n = n
        self._up = tuple(up)

    def leq(self, i: int, j: int) -> bool:
        return bool(self._up[i - 1] >> (j - 1) & 1)

    def comparable(self, i: int, j: int) -> bool:
        return self.leq(i, j) or self.leq(j, i)

    def up_set(self, i: int) -> frozenset[int]:
        return frozenset(j + 1 for j in range(self.n) if self._up[i - 1] >> j & 1)

    def down_set(self, j: int) -> frozenset[int]:
        return frozenset(i + 1 for i in range(self.n) if self._up[i - 1] >> (j - 1) & 1)

    def strict_pairs(self) -> Iterator[tuple[int, int]]:
        for i in range(1, self.n + 1):
            for j in self.up_set(i):
                if j != i:
                    yield (i, j)

    def is_cover(self, i: int, j: int) -> bool:
        """True when j covers i: i < j with nothing strictly between."""
        if i == j or not self.leq(i, j):
            return False
        between = self._up[i - 1] & self._down_mask(j)
        return between == (1 << (i - 1)) | (1 << (j - 1))

    def _down_mask(self, j: int) -> int:
        mask = 0
        for i in range(self.n):
            if self._up[i] >> (j - 1) & 1:
                mask |= 1 << i
        return mask

    def covers(self) -> list[tuple[int, int]]:
        return sorted(
            (i, j) for i, j in self.strict_pairs() if self.is_cover(i, j)
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, Poset) and self.n == other.n and self._up == other._up

    def __hash__(self) -> int:
        return hash((self.n, self._up))

    def __repr__(self) -> str:
        return f"Poset({self.n}, covers={self.covers()})"


def chain(n: int) -> Poset:
    return Poset(n, [(i, i + 1) for i in range(1, n)])


def linear_extensions_L(P: Poset, cap: int | None = None) -> tuple[Perm, ...]:
    """Sigma_L(P): all sigma with sigma(i) <= sigma(j) whenever i <=_P j.

    Enumerated by backtracking over topological orders; each order
    (e_1, ..., e_n) yields sigma with sigma(e_k) = k.  Sorted output.
    The ground-set size is capped (default 9) against factorial blowup.
    """
    limit = resolve_cap(cap, LINEAR_EXTENSION_N_CAP)
    if P.n > limit:
        raise cap_exceeded(f"linear extension ground set {P.n}", "ground-set size", limit, cap)
    n = P.n
    preds = [P._down_mask(j + 1) & ~(1 << j) for j in range(n)]
    out: list[Perm] = []
    sigma = [0] * n
    placed = 0

    def extend(k: int) -> None:
        nonlocal placed
        if k > n:
            out.append(tuple(sigma))
            return
        for e in range(n):
            bit = 1 << e
            if placed & bit or (preds[e] & ~placed):
                continue
            sigma[e] = k
            placed |= bit
            extend(k + 1)
            placed &= ~bit

    extend(1)
    return tuple(sorted(out))


def is_regular(P: Poset) -> bool:
    """Betweenness condition: x <=_P z and y between x, z as integers
    implies x <=_P y or y <=_P z."""
    for x, z in P.strict_pairs():
        lo, hi = min(x, z), max(x, z)
        for y in range(lo + 1, hi):
            if not (P.leq(x, y) or P.leq(y, z)):
                return False
    return True


def interval_to_poset(I: WeakInterval) -> Poset:
    """The unique regular poset P with Sigma_L(P) = I, for a left interval.

    Strict relations are the pairs (x, y) with sigma(x) < sigma(y) and
    rho(x) < rho(y).
    """
    if I.side != LEFT:
        raise DomainError("interval_to_poset expects a left interval")
    lo, hi = I.lo, I.hi
    n = I.n
    rels = [
        (x, y)
        for x in range(1, n + 1)
        for y in range(1, n + 1)
        if x != y and lo[x - 1] < lo[y - 1] and hi[x - 1] < hi[y - 1]
    ]
    return Poset(n, rels)


def extremes_of_regular(P: Poset) -> tuple[Perm, Perm]:
    """The endpoints (delta, eta) with Sigma_L(P) = [delta, eta]_L.

    delta(k) counts the elements below k together with the incomparable
    ones smaller than k; eta uses the incomparable ones larger than k.
    """
    if not is_regular(P):
        raise OrderError("poset is not regular")
    n = P.n
    delta = []
    eta = []
    for k in range(1, n + 1):
        below = P.down_set(k)
        incomp = [x for x in range(1, n + 1) if not P.comparable(x, k)]
        delta.append(len(below) + sum(1 for x in incomp if x < k))
        eta.append(len(below) + sum(1 for x in incomp if x > k))
    return tuple(delta), tuple(eta)


def sigma_L_interval(P: Poset) -> WeakInterval:
    """Sigma_L(P) as a left weak interval (P must be regular)."""
    delta, eta = extremes_of_regular(P)
    return weak_interval(delta, eta, LEFT)


def classify_pair(P: Poset, i: int) -> str:
    """Classify the pair (i, i+1): covering, comparable non-covering, or
    incomparable."""
    if not 1 <= i <= P.n - 1:
        raise DomainError(f"pair index {i} out of range for n={P.n}")
    j = i + 1
    if not P.comparable(i, j):
        return INCOMPARABLE
    lo, hi = (i, j) if P.leq(i, j) else (j, i)
    return COVERING if P.is_cover(lo, hi) else COMPARABLE_NONCOVERING


def relabel(P: Poset, i: int) -> Poset:
    """s_i . P: the poset with labels i and i+1 exchanged."""
    if not 1 <= i <= P.n - 1:
        raise DomainError(f"pair index {i} out of range for n={P.n}")
    swap = {i: i + 1, i + 1: i}
    rels = [
        (swap.get(a, a), swap.get(b, b)) for a, b in P.strict_pairs()
    ]
    return Poset(P.n, rels)


def bar(P: Poset) -> Poset:
    """The label-complemented poset: u <= v iff n+1-u <=_P n+1-v."""
    n = P.n
    rels = [(n + 1 - a, n + 1 - b) for a, b in P.strict_pairs()]
    return Poset(n, rels)
