"""Permutation arithmetic, descents, weak orders, and interval enumeration."""

import pytest
from hypothesis import given, strategies as st

from wol.errors import DomainError, OrderError
from wol.permutations import (
    LEFT,
    RIGHT,
    all_perms,
    compose,
    coset_decompose,
    covers_up,
    descent_class,
    descents,
    format_perm,
    identity,
    inv_mask,
    inverse,
    length,
    longest_element,
    longest_parabolic,
    mult_s_left,
    parse_perm,
    parse_subset,
    right_interval_bfs,
    w1,
    weak_interval,
    weak_leq,
)

perms = st.integers(1, 6).flatmap(
    lambda n: st.permutations(list(range(1, n + 1))).map(tuple)
)


def brute_inversions(w):
    return sum(
        1 for i in range(len(w)) for j in range(i + 1, len(w)) if w[i] > w[j]
    )


def word_length_oracle(n):
    """Minimal generator word lengths via BFS from the identity."""
    dist = {identity(n): 0}
    frontier = [identity(n)]
    while frontier:
        nxt = []
        for u in frontier:
            for i in range(1, n):
                v = mult_s_left(u, i)
                if v not in dist:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return dist


def test_compose_examples():
    assert compose(identity(3), (2, 3, 1)) == (2, 3, 1)
    assert compose((3, 2, 1), (3, 2, 1)) == (1, 2, 3)
    # w0 * w0(T^c) for T = {1,3,4} lands on the coset top element
    assert compose(longest_element(6), parse_perm("132465")) == parse_perm("645312")


def test_compose_rejects_size_mismatch():
    with pytest.raises(DomainError):
        compose((1, 2), (1, 2, 3))


def test_length_examples():
    assert length((1, 2, 3)) == 0
    assert length(longest_element(4)) == 6
    assert length(parse_perm("231564")) == 4 == brute_inversions(parse_perm("231564"))


@pytest.mark.parametrize("n", range(1, 6))
def test_length_equals_word_length(n):
    dist = word_length_oracle(n)
    for w in all_perms(n):
        assert length(w) == dist[w]


def test_descents_examples():
    assert descents((1, 2, 3, 4, 5, 6), LEFT) == frozenset()
    assert descents(parse_perm("231564"), LEFT) == frozenset({1, 4})
    assert descents(parse_perm("231564"), RIGHT) == frozenset({2, 5})


@pytest.mark.parametrize("n", range(1, 7))
def test_descent_left_right_symmetry(n):
    for w in all_perms(n):
        assert descents(w, LEFT) == descents(inverse(w), RIGHT)


def test_longest_parabolic_examples():
    assert longest_parabolic(set(), 4) == (1, 2, 3, 4)
    assert longest_parabolic({2, 5}, 6) == parse_perm("132465")
    assert longest_parabolic(set(range(1, 6)), 6) == longest_element(6)
    with pytest.raises(DomainError):
        longest_parabolic({7}, 6)


@pytest.mark.parametrize("n", range(2, 8))
def test_w0_w1_identities(n):
    from itertools import chain, combinations

    ground = list(range(1, n))
    for S in chain.from_iterable(combinations(ground, k) for k in range(n)):
        S = frozenset(S)
        ws = longest_parabolic(S, n)
        assert compose(ws, ws) == identity(n)
        assert descents(ws, LEFT) == S == descents(ws, RIGHT)
        comp = frozenset(ground) - S
        assert w1(S, n) == compose(longest_element(n), longest_parabolic(comp, n))


def test_w1_examples():
    assert w1({3}, 6) == parse_perm("456123")
    assert w1({1, 3, 4}, 6) == parse_perm("645312")
    assert w1(set(), 5) == identity(5)


def test_weak_leq_examples():
    u = parse_perm("3142")
    assert weak_leq(u, u, LEFT)
    assert weak_leq(parse_perm("132465"), parse_perm("231564"), LEFT)
    assert not weak_leq((2, 1, 3), (1, 3, 2), LEFT)


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("side", [LEFT, RIGHT])
def test_weak_leq_matches_cover_reachability(n, side):
    reach = {}

    def reachable(u):
        if u not in reach:
            acc = {u}
            for _, v in covers_up(u, side):
                acc |= reachable(v)
            reach[u] = acc
        return reach[u]

    for u in all_perms(n):
        for v in all_perms(n):
            assert weak_leq(u, v, side) == (v in reachable(u))


same_size_pairs = st.integers(1, 6).flatmap(
    lambda n: st.tuples(*[st.permutations(list(range(1, n + 1))).map(tuple)] * 2)
)


@given(same_size_pairs)
def test_inv_mask_containment_is_left_order(pair):
    # Reference: length additivity, with lengths counted independently of inv_mask.
    u, v = pair

    def additive(x, y, side):
        quot = compose(y, inverse(x)) if side == LEFT else compose(inverse(x), y)
        return brute_inversions(x) + brute_inversions(quot) == brute_inversions(y)

    # The products are comparable to u whenever their lengths add.
    for side, w in ((LEFT, compose(v, u)), (RIGHT, compose(u, v))):
        for y in (v, w):
            assert weak_leq(u, y, side) == additive(u, y, side)


@pytest.mark.parametrize("n", range(1, 6))
def test_left_order_below_a_left_translate_is_mask_disjointness(n):
    # lo <=_L xi lo exactly when no value pair inverted by lo is inverted by xi
    perms = list(all_perms(n))
    for lo in perms:
        lo_mask = inv_mask(inverse(lo))
        for xi in perms:
            assert weak_leq(lo, compose(xi, lo), LEFT) == (lo_mask & inv_mask(xi) == 0)


def test_right_interval_bfs_masks_and_covers():
    perms = list(all_perms(4))
    for lo in perms:
        for hi in perms:
            if not weak_leq(lo, hi, RIGHT):
                continue
            walk = list(right_interval_bfs(lo, hi))
            members = {g for g, _, _ in walk}
            assert len(members) == len(walk)
            assert members == set(weak_interval(lo, hi, RIGHT).elements)
            mask_of = {inv_mask(inverse(g)): g for g in members}
            for g, mask, covers in walk:
                assert mask_of[mask] == g
                expected = [
                    (i, h) for i, h in covers_up(g, RIGHT) if weak_leq(h, hi, RIGHT)
                ]
                assert [(i, mask_of[up]) for i, up in covers] == expected


def test_weak_interval_examples():
    u = parse_perm("2314")
    assert weak_interval(u, u, LEFT).elements == (u,)
    got = weak_interval((1, 2, 3), (3, 1, 2), LEFT).elements
    assert got == ((1, 2, 3), (2, 1, 3), (3, 1, 2))


def test_weak_interval_rejects_unrelated():
    with pytest.raises(OrderError):
        weak_interval((2, 1, 3), (1, 3, 2), LEFT)


def test_weak_interval_lex_sorted_and_closed():
    I = weak_interval(parse_perm("132456"), parse_perm("142563"), LEFT)
    assert list(I.elements) == sorted(I.elements)
    members = set(I.elements)
    assert I.lo in members and I.hi in members
    for g in members:
        for _, h in covers_up(g, LEFT):
            if weak_leq(h, I.hi, LEFT):
                assert h in members


@pytest.mark.parametrize("side", [LEFT, RIGHT])
def test_elements_match_brute_force_filter(side):
    perms = list(all_perms(4))
    for lo in perms:
        for hi in perms:
            if weak_leq(lo, hi, side):
                expected = tuple(
                    g for g in perms if weak_leq(lo, g, side) and weak_leq(g, hi, side)
                )
                assert weak_interval(lo, hi, side).elements == expected


def test_descent_class_examples():
    n = 4
    top = descent_class(set(), set(), n)
    assert top.elements == (identity(n),)
    small = descent_class(set(), {1}, 3)
    assert small.elements == ((1, 2, 3), (2, 1, 3), (3, 1, 2))
    assert descent_class({2, 5}, {1, 2, 4, 5}, 6).lo == parse_perm("132465")
    with pytest.raises(OrderError):
        descent_class({2}, {3}, 5)


@pytest.mark.parametrize("n", range(1, 6))
def test_descent_class_is_descent_filter(n):
    from itertools import chain, combinations

    ground = list(range(1, n))
    subsets = [
        frozenset(c)
        for c in chain.from_iterable(combinations(ground, k) for k in range(n))
    ]
    for T in subsets:
        for S in subsets:
            if not S <= T:
                continue
            expected = sorted(w for w in all_perms(n) if S <= descents(w, RIGHT) <= T)
            assert list(descent_class(S, T, n).elements) == expected


def test_coset_decompose_examples():
    w = parse_perm("231564")
    assert coset_decompose(w, set()) == (w, identity(6))
    w0s = longest_parabolic({2, 5}, 6)
    assert coset_decompose(w0s, {2, 5}) == (identity(6), w0s)
    z, u = coset_decompose(w, {1})
    assert compose(z, u) == w
    assert length(z) + length(u) == length(w) == 4
    assert u in {identity(6), mult_s_left(identity(6), 1)}


@given(perms, st.sets(st.integers(1, 5)))
def test_coset_decompose_properties(w, S):
    n = len(w)
    S = frozenset(i for i in S if i < n)
    z, u = coset_decompose(w, S)
    assert compose(z, u) == w
    assert length(z) + length(u) == length(w)
    assert descents(z, RIGHT) <= frozenset(range(1, n)) - S


def test_text_formats():
    assert format_perm(parse_perm("231564")) == "231564"
    big = tuple([2, 1] + list(range(3, 15)))
    assert parse_perm(format_perm(big)) == big
    assert parse_subset("{2,5}") == frozenset({2, 5})
    assert parse_subset("{}") == frozenset()
    assert str(weak_interval((1, 2, 3), (3, 1, 2), LEFT)) == "[123, 312]_L"


@given(perms)
def test_parse_format_roundtrip(w):
    assert parse_perm(format_perm(w)) == w


@given(perms, perms, perms)
def test_compose_associative(u, v, w):
    if not len(u) == len(v) == len(w):
        return
    assert compose(compose(u, v), w) == compose(u, compose(v, w))


@given(perms)
def test_inverse_involutive(w):
    assert inverse(inverse(w)) == w
    assert compose(w, inverse(w)) == identity(len(w))
