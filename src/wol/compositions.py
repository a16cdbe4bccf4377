"""
Compositions of n, the four involutive operations, and subset conversions.

A composition is a tuple of positive integers; the empty tuple is the
unique composition of 0.  Subsets of {1..n-1} are frozensets.

>>> set_of((1, 3, 2))
frozenset({1, 4})
>>> comp_of({2, 5}, 6)
(2, 3, 1)
"""

from __future__ import annotations

from typing import Iterable

from .errors import DomainError, ShapeError

__all__ = [
    "Composition",
    "all_compositions",
    "set_of",
    "comp_of",
    "reverse",
    "complement",
    "transpose",
    "sort_parts",
    "subset_reverse",
    "subset_transpose",
    "is_peak",
    "conjugate_partition",
]

Composition = tuple[int, ...]


def validate_composition(alpha: Iterable[int]) -> Composition:
    alpha = tuple(alpha)
    if any(part < 1 for part in alpha):
        raise ShapeError(f"composition parts must be positive: {alpha}")
    return alpha


def all_compositions(n: int) -> list[Composition]:
    """All 2^(n-1) compositions of n, by their subsets in sorted order."""
    if n == 0:
        return [()]
    out = []
    for mask in range(1 << (n - 1)):
        subset = frozenset(i + 1 for i in range(n - 1) if mask >> i & 1)
        out.append(comp_of(subset, n))
    return sorted(out)


def set_of(alpha: Iterable[int]) -> frozenset[int]:
    """set(alpha): the partial sums of alpha, excluding n itself.

    >>> sorted(set_of((4, 2, 3)))
    [4, 6]
    """
    alpha = validate_composition(alpha)
    total = 0
    out = []
    for part in alpha[:-1]:
        total += part
        out.append(total)
    return frozenset(out)


def comp_of(I: Iterable[int], n: int) -> Composition:
    """comp(I): the composition of n with partial sums I.

    >>> comp_of({4, 6}, 9)
    (4, 2, 3)
    """
    points = sorted(I)
    if any(not 1 <= i <= n - 1 for i in points):
        raise DomainError(f"subset elements must lie in 1..{n - 1}: {points}")
    if n == 0:
        return ()
    bounds = [0] + points + [n]
    return tuple(b - a for a, b in zip(bounds, bounds[1:]))


def reverse(alpha: Iterable[int]) -> Composition:
    """alpha^r."""
    return tuple(reversed(validate_composition(alpha)))


def complement(alpha: Iterable[int]) -> Composition:
    """alpha^c, with set(alpha^c) the complement of set(alpha).

    >>> complement((6,))
    (1, 1, 1, 1, 1, 1)
    """
    alpha = validate_composition(alpha)
    n = sum(alpha)
    return comp_of(frozenset(range(1, n)) - set_of(alpha), n)


def transpose(alpha: Iterable[int]) -> Composition:
    """alpha^t = (alpha^r)^c.

    >>> transpose((4, 2, 3))
    (1, 1, 2, 2, 1, 1, 1)
    """
    return complement(reverse(alpha))


def sort_parts(alpha: Iterable[int]) -> Composition:
    """The underlying partition: parts in weakly decreasing order."""
    return tuple(sorted(validate_composition(alpha), reverse=True))


def subset_reverse(I: Iterable[int], n: int) -> frozenset[int]:
    """I^r = set(comp(I)^r) = {n - i : i in I}."""
    return set_of(reverse(comp_of(I, n)))


def subset_transpose(I: Iterable[int], n: int) -> frozenset[int]:
    """I^t = set(comp(I)^t)."""
    return set_of(transpose(comp_of(I, n)))


def is_peak(alpha: Iterable[int]) -> bool:
    """True if every part except possibly the last is at least 2.

    >>> is_peak((3, 2, 3, 1))
    True
    >>> is_peak((1, 2))
    False
    """
    alpha = validate_composition(alpha)
    return all(part >= 2 for part in alpha[:-1])


def conjugate_partition(mu: Iterable[int]) -> Composition:
    """Conjugate of a partition: column lengths of its Young diagram."""
    mu = tuple(mu)
    if any(a < b for a, b in zip(mu, mu[1:])):
        raise ShapeError(f"not weakly decreasing: {mu}")
    if not mu:
        return ()
    return tuple(sum(1 for part in mu if part >= j) for j in range(1, mu[0] + 1))
