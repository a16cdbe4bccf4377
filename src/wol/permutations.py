"""
Permutations of {1, ..., n} in one-line notation, and the weak Bruhat orders.

A permutation is a tuple ``w`` of length n containing each of 1..n exactly
once, with ``w[i-1]`` the image of i.  All values and positions are 1-based
to match the usual combinatorial conventions; only tuple indexing is
0-based.

>>> compose((3, 2, 1), (3, 2, 1))
(1, 2, 3)
>>> length((2, 3, 1, 5, 6, 4))
4
>>> sorted(descents((2, 3, 1, 5, 6, 4), "L"))
[1, 4]
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations, permutations as _itertools_permutations
from typing import Iterable, Iterator, Literal

from .errors import DomainError, OrderError
from .frozen import Frozen

__all__ = [
    "Perm",
    "Side",
    "LEFT",
    "RIGHT",
    "WeakInterval",
    "identity",
    "is_perm",
    "all_perms",
    "compose",
    "inverse",
    "length",
    "mult_s_left",
    "mult_s_right",
    "descents",
    "longest_element",
    "longest_parabolic",
    "w1",
    "weak_leq",
    "inv_mask",
    "covers_up",
    "right_interval_bfs",
    "weak_interval",
    "descent_class",
    "coset_decompose",
    "format_perm",
    "parse_perm",
    "parse_subset",
]

Perm = tuple[int, ...]
Side = Literal["L", "R"]
LEFT: Side = "L"
RIGHT: Side = "R"

N_CAP = 20  # window entries stay small machine integers


def _check_side(side: str) -> None:
    if side not in ("L", "R"):
        raise DomainError(f"side must be 'L' or 'R', got {side!r}")


def identity(n: int) -> Perm:
    """The identity permutation of S_n.

    >>> identity(4)
    (1, 2, 3, 4)
    """
    if not 1 <= n <= N_CAP:
        raise DomainError(f"window size must be in 1..{N_CAP}, got {n}")
    return tuple(range(1, n + 1))


def is_perm(w: Iterable[int]) -> bool:
    """Check that ``w`` is a bijection of {1..n} in one-line notation.

    >>> [is_perm(w) for w in [(1,), (2, 1), (1, 1), (0, 1)]]
    [True, True, False, False]
    """
    w = tuple(w)
    return sorted(w) == list(range(1, len(w) + 1))


def validate_perm(w: Iterable[int]) -> Perm:
    w = tuple(w)
    if not is_perm(w):
        raise DomainError(f"not a permutation window: {w}")
    if len(w) > N_CAP:
        raise DomainError(f"window size {len(w)} exceeds cap {N_CAP}")
    return w


def all_perms(n: int) -> Iterator[Perm]:
    """All of S_n in lexicographic order."""
    return _itertools_permutations(range(1, n + 1))


def compose(u: Perm, v: Perm) -> Perm:
    """The product uv, acting as (uv)(i) = u(v(i)).

    >>> compose((6, 5, 4, 3, 2, 1), (1, 3, 2, 4, 6, 5))
    (6, 4, 5, 3, 1, 2)
    """
    if len(u) != len(v):
        raise DomainError(f"size mismatch: {len(u)} vs {len(v)}")
    return tuple(u[x - 1] for x in v)


def inverse(u: Perm) -> Perm:
    """The inverse permutation.

    >>> inverse((2, 3, 1))
    (3, 1, 2)
    """
    inv = [0] * len(u)
    for i, x in enumerate(u):
        inv[x - 1] = i + 1
    return tuple(inv)


def length(u: Perm) -> int:
    """Coxeter length = number of inversion pairs.

    >>> length((2, 3, 1, 5, 6, 4))
    4
    """
    return inv_mask(u).bit_count()


def inv_mask(u: Perm) -> int:
    """Bitmask of position-inversion pairs of the window.

    Bit for (i, j), i < j, is set when u(i) > u(j).  This is the one
    inversion-set kernel: :func:`length` is its popcount and
    :func:`weak_leq` is mask containment, u <=_L v iff inv_mask(u) is a
    subset of inv_mask(v); on inverses it gives the right order.
    """
    mask = 0
    bit = 0
    for i, x in enumerate(u, 1):
        for y in u[i:]:
            if x > y:
                mask |= 1 << bit
            bit += 1
    return mask


def mult_s_left(u: Perm, i: int) -> Perm:
    """s_i u: swaps the values i and i+1 in the window."""
    swap = {i: i + 1, i + 1: i}
    return tuple(swap.get(x, x) for x in u)


def mult_s_right(u: Perm, i: int) -> Perm:
    """u s_i: swaps the window entries at positions i and i+1."""
    return u[: i - 1] + (u[i], u[i - 1]) + u[i + 1 :]


def descents(u: Perm, side: Side) -> frozenset[int]:
    """Left or right descent set of ``u``.

    Right descents are the positions i with u(i) > u(i+1); left descents
    are the right descents of the inverse.  Both agree with the
    length-drop definition.

    >>> sorted(descents((2, 3, 1, 5, 6, 4), "R"))
    [2, 5]
    """
    _check_side(side)
    if side == LEFT:
        u = inverse(u)
    return frozenset(i + 1 for i in range(len(u) - 1) if u[i] > u[i + 1])


def longest_element(n: int) -> Perm:
    """w_0, the order-reversing permutation."""
    return tuple(range(n, 0, -1))


def _check_subset(S: Iterable[int], n: int) -> frozenset[int]:
    S = frozenset(S)
    if not all(1 <= i <= n - 1 for i in S):
        raise DomainError(f"generator indices must lie in 1..{n - 1}: {sorted(S)}")
    return S


def longest_parabolic(S: Iterable[int], n: int) -> Perm:
    """w_0(S), the longest element of the parabolic subgroup S_S.

    Reverses each maximal block of consecutive generator indices.

    >>> longest_parabolic({2, 5}, 6)
    (1, 3, 2, 4, 6, 5)
    """
    S = _check_subset(S, n)
    w = list(range(1, n + 1))
    i = 1
    while i <= n - 1:
        if i in S:
            j = i
            while j + 1 <= n - 1 and j + 1 in S:
                j += 1
            w[i - 1 : j + 1] = reversed(w[i - 1 : j + 1])
            i = j + 2
        else:
            i += 1
    return tuple(w)


def w1(T: Iterable[int], n: int) -> Perm:
    """w_1(T) = w_0 w_0(T^c): the longest minimal-length coset representative.

    >>> w1({3}, 6)
    (4, 5, 6, 1, 2, 3)
    """
    T = _check_subset(T, n)
    comp = frozenset(range(1, n)) - T
    return compose(longest_element(n), longest_parabolic(comp, n))


def weak_leq(u: Perm, v: Perm, side: Side) -> bool:
    """Weak Bruhat order test by inversion-set containment.

    Left order: inv_mask(u) is a subset of inv_mask(v); the right order
    applies the same test to the inverses.

    >>> weak_leq((1, 3, 2, 4, 6, 5), (2, 3, 1, 5, 6, 4), "L")
    True
    >>> weak_leq((2, 1, 3), (1, 3, 2), "L")
    False
    """
    _check_side(side)
    if len(u) != len(v):
        raise DomainError(f"size mismatch: {len(u)} vs {len(v)}")
    if side == RIGHT:
        u, v = inverse(u), inverse(v)
    return inv_mask(u) & ~inv_mask(v) == 0


def covers_up(u: Perm, side: Side) -> list[tuple[int, Perm]]:
    """Upward covers of ``u``: the pairs (i, s_i u) or (i, u s_i)."""
    _check_side(side)
    ds = descents(u, side)
    mult = mult_s_left if side == LEFT else mult_s_right
    return [(i, mult(u, i)) for i in range(1, len(u)) if i not in ds]


class WeakInterval(Frozen):
    """A nonempty weak Bruhat interval [lo, hi] with a side tag.

    The order relation lo <= hi is checked at construction, except by
    :meth:`unchecked`; the element list is computed on demand and cached,
    sorted lexicographically by one-line notation.
    """

    def __init__(self, side: Side, lo: Perm, hi: Perm):
        _check_side(side)
        validate_perm(lo)
        validate_perm(hi)
        if not weak_leq(lo, hi, side):
            raise OrderError(
                f"{format_perm(lo)} is not below {format_perm(hi)} in the {side} weak order"
            )
        self.__dict__.update(side=side, lo=lo, hi=hi, _key=(side, lo, hi))

    @property
    def n(self) -> int:
        return len(self.lo)

    @classmethod
    def unchecked(cls, side: Side, lo: Perm, hi: Perm) -> "WeakInterval":
        """[lo, hi] built without the checks of construction, for a caller that knows lo <= hi."""
        interval = object.__new__(cls)
        interval.__dict__.update(side=side, lo=lo, hi=hi, _key=(side, lo, hi))
        return interval

    @cached_property
    def elements(self) -> tuple[Perm, ...]:
        """The members, sorted, by :func:`right_interval_bfs`; a left
        interval runs it on the inverses."""
        if self.side == RIGHT:
            return tuple(sorted(g for g, _, _ in right_interval_bfs(self.lo, self.hi)))
        above = right_interval_bfs(inverse(self.lo), inverse(self.hi))
        return tuple(sorted(inverse(g) for g, _, _ in above))

    @property
    def size(self) -> int:
        return len(self.elements)

    def __repr__(self) -> str:
        return f"WeakInterval(side={self.side!r}, lo={self.lo!r}, hi={self.hi!r})"

    def __str__(self) -> str:
        return f"[{format_perm(self.lo)}, {format_perm(self.hi)}]_{self.side}"


def right_interval_bfs(lo: Perm, hi: Perm) -> Iterator[tuple[Perm, int, list]]:
    """The members of [lo, hi]_R, for lo <=_R hi, in BFS order from lo.

    Yields (g, mask, covers), mask = inv_mask(inverse(g)): the bit of the
    value pair a < b is set when b stands left of a.  A cover g -> g s_i
    at an ascent i sets the bit of the pair (g(i), g(i+1)), so it stays
    below hi iff hi's mask has that bit.  covers lists (i, mask of g s_i)
    for all such covers, into members seen before too: the Hasse edges.
    Lazy, so that a caller with a size cap can stop early.
    """
    n = len(lo)
    # pair_bit[a][b]: the mask bit of the value pair a < b, in inv_mask's pair order.
    pair_bit = [[0] * (n + 1) for _ in range(n + 1)]
    for k, (a, b) in enumerate(combinations(range(1, n + 1), 2)):
        pair_bit[a][b] = 1 << k
    hi_mask = inv_mask(inverse(hi))
    lo_mask = inv_mask(inverse(lo))
    seen = {lo_mask}
    queue = [(lo, lo_mask)]
    for g, mask in queue:  # the loop reads the members it appends
        covers = []
        for i in range(1, n):
            a, b = g[i - 1], g[i]
            if a > b:  # i is a right descent of g
                continue
            bit = pair_bit[a][b]
            if not hi_mask & bit:
                continue
            up = mask | bit
            covers.append((i, up))
            if up not in seen:
                seen.add(up)
                queue.append((g[: i - 1] + (b, a) + g[i + 1 :], up))
        yield g, mask, covers


def weak_interval(lo: Perm, hi: Perm, side: Side) -> WeakInterval:
    """The weak Bruhat interval from lo to hi; rejects lo not below hi.

    >>> weak_interval((1, 2, 3), (3, 1, 2), "L").elements
    ((1, 2, 3), (2, 1, 3), (3, 1, 2))
    """
    return WeakInterval(side, validate_perm(lo), validate_perm(hi))


def descent_class(S: Iterable[int], T: Iterable[int], n: int) -> WeakInterval:
    """The descent class {w : S <= Des_R(w) <= T} as [w_0(S), w_1(T)]_L.

    >>> str(descent_class({2, 5}, {1, 2, 4, 5}, 6))
    '[132465, 653421]_L'
    """
    S = _check_subset(S, n)
    T = _check_subset(T, n)
    if not S <= T:
        raise OrderError(f"S must be contained in T: {sorted(S)} vs {sorted(T)}")
    return weak_interval(longest_parabolic(S, n), w1(T, n), LEFT)


def coset_decompose(w: Perm, S: Iterable[int]) -> tuple[Perm, Perm]:
    """Write w = z u with u in S_S, Des_R(z) in S^c, l(w) = l(z) + l(u).

    >>> z, u = coset_decompose((2, 3, 1, 5, 6, 4), {1})
    >>> compose(z, u)
    (2, 3, 1, 5, 6, 4)
    """
    n = len(w)
    S = _check_subset(S, n)
    z = validate_perm(w)
    u = identity(n)
    while True:
        i = next((i for i in sorted(S) if z[i - 1] > z[i]), None)
        if i is None:
            return z, u
        z = mult_s_right(z, i)
        u = mult_s_left(u, i)


def format_perm(w: Perm) -> str:
    """One-line text form: digit string for n <= 9, comma-separated above.

    >>> format_perm((2, 3, 1, 5, 6, 4))
    '231564'
    >>> format_perm(tuple(range(1, 11)))
    '1,2,3,4,5,6,7,8,9,10'
    """
    return ("" if len(w) <= 9 else ",").join(map(str, w))


def parse_perm(text: str) -> Perm:
    """Inverse of :func:`format_perm`.

    >>> parse_perm("231564")
    (2, 3, 1, 5, 6, 4)
    """
    text = text.strip()
    try:
        w = tuple(int(part) for part in (text.split(",") if "," in text else text))
    except ValueError:
        raise DomainError(f"not a permutation: {text!r}") from None
    return validate_perm(w)


def parse_subset(text: str) -> frozenset[int]:
    """A generator subset written as "{2,5}", or "{}" for the empty set.

    >>> sorted(parse_subset("{2,5}"))
    [2, 5]
    """
    text = text.strip()
    if text.startswith("{") and text.endswith("}"):
        text = text[1:-1]
    text = text.strip()
    if not text:
        return frozenset()
    try:
        return frozenset(int(part) for part in text.split(","))
    except ValueError:
        raise DomainError(f"not a generator subset: {text!r}") from None
