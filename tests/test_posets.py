"""Posets on [n]: regularity, linear extensions, and the interval correspondence."""

import pytest

from wol.errors import DomainError, OrderError, ResourceCapError
from wol.permutations import (
    LEFT,
    all_perms,
    identity,
    longest_element,
    parse_perm,
    weak_interval,
)
from wol.posets import (
    COMPARABLE_NONCOVERING,
    COVERING,
    INCOMPARABLE,
    Poset,
    bar,
    chain,
    classify_pair,
    extremes_of_regular,
    interval_to_poset,
    is_regular,
    linear_extensions_L,
    relabel,
    sigma_L_interval,
)
from wol.verify import all_left_intervals, hasse_isos


def five_node_poset() -> Poset:
    # Hasse: 3 < 2 < {5, 4}, 1 < 4.
    return Poset(5, [(3, 2), (2, 5), (2, 4), (1, 4)])


def test_poset_construction_and_closure():
    P = Poset(3, [(1, 2), (2, 3)])
    assert P.leq(1, 3)
    assert P.covers() == [(1, 2), (2, 3)]
    with pytest.raises(DomainError):
        Poset(2, [(1, 2), (2, 1)])
    with pytest.raises(DomainError):
        Poset(2, [(1, 3)])


def test_linear_extensions_examples():
    n = 4
    assert linear_extensions_L(chain(n)) == (identity(n),)
    assert linear_extensions_L(Poset(n)) == tuple(sorted(all_perms(n)))
    # the poset of the canonical filling for S = {2,5}, rho = 231564
    I = weak_interval(parse_perm("132465"), parse_perm("231564"), LEFT)
    P = interval_to_poset(I)
    assert linear_extensions_L(P) == I.elements


def test_linear_extension_cap():
    with pytest.raises(ResourceCapError):
        linear_extensions_L(Poset(10))
    assert len(linear_extensions_L(chain(10), cap=10)) == 1


def test_is_regular_examples():
    assert is_regular(chain(5))
    assert is_regular(Poset(4))
    assert not is_regular(Poset(3, [(1, 3)]))
    for I in all_left_intervals(4):
        assert is_regular(interval_to_poset(I))


def test_interval_to_poset_examples():
    n = 4
    assert interval_to_poset(weak_interval(identity(n), identity(n), LEFT)) == chain(n)
    assert interval_to_poset(
        weak_interval(identity(n), longest_element(n), LEFT)
    ) == Poset(n)


def test_extremes_examples():
    n = 5
    assert extremes_of_regular(chain(n)) == (identity(n), identity(n))
    assert extremes_of_regular(Poset(n)) == (identity(n), longest_element(n))
    I = weak_interval(parse_perm("132465"), parse_perm("231564"), LEFT)
    assert extremes_of_regular(interval_to_poset(I)) == (I.lo, I.hi)
    with pytest.raises(OrderError):
        extremes_of_regular(Poset(3, [(1, 3)]))


@pytest.mark.parametrize("n", range(1, 5))
def test_roundtrip_exhaustive(n):
    for I in all_left_intervals(n):
        P = interval_to_poset(I)
        back = sigma_L_interval(P)
        assert (back.lo, back.hi) == (I.lo, I.hi)
        assert tuple(linear_extensions_L(P)) == I.elements


def test_classify_pair_examples():
    assert classify_pair(chain(4), 2) == COVERING
    assert classify_pair(Poset(4), 1) == INCOMPARABLE
    P = five_node_poset()
    assert classify_pair(P, 3) == COMPARABLE_NONCOVERING
    assert classify_pair(P, 2) == COVERING
    assert classify_pair(P, 1) == INCOMPARABLE
    assert classify_pair(P, 4) == INCOMPARABLE
    with pytest.raises(DomainError):
        classify_pair(P, 5)


def test_relabel_examples():
    P = five_node_poset()
    for i in range(1, 5):
        assert relabel(relabel(P, i), i) == P
    # swapping an incomparable pair permutes relations accordingly
    Q = relabel(P, 4)  # swap labels 4 and 5
    assert Q.leq(2, 4) and Q.leq(2, 5) and Q.leq(1, 5)


def test_relabel_tracks_interval_translation():
    # the worked 6-cell ladder: relabeling 3 <-> 4 moves the interval by s_3,
    # and equals the poset of the filling with entries 3 and 4 exchanged
    from wol.descent_diagrams import build_D_S_rho
    from wol.diagrams import Filling, canonical_fill, poset_of_filling
    from wol.permutations import mult_s_right

    D = build_D_S_rho({2, 5}, parse_perm("231564"))
    down = canonical_fill(D, "down")
    P = poset_of_filling(down)
    moved = sigma_L_interval(relabel(P, 3))
    assert moved.lo == mult_s_right(parse_perm("132465"), 3)
    assert moved.hi == mult_s_right(parse_perm("231564"), 3)
    swap = {3: 4, 4: 3}
    z2 = Filling(D, tuple((x, y, swap.get(v, v)) for x, y, v in down.entries))
    assert relabel(P, 3) == poset_of_filling(z2)


def test_bar_examples():
    n = 4
    assert bar(Poset(n)) == Poset(n)
    flipped = bar(chain(n))
    assert flipped.leq(n, 1)
    from wol.permutations import compose

    w0 = longest_element(3)
    for I in all_left_intervals(3):
        P = interval_to_poset(I)
        assert bar(bar(P)) == P
        lhs = sorted(linear_extensions_L(bar(P)))
        rhs = sorted(compose(g, w0) for g in linear_extensions_L(P))
        assert lhs == rhs


def test_hasse_isos_yields_every_coloured_isomorphism():
    def hasse(P, colour=lambda x: 0, strict=lambda a, b: a > b):
        return {
            x: (colour(x), frozenset((a, strict(a, b)) for a, b in P.covers() if b == x))
            for x in range(1, P.n + 1)
        }

    flat = hasse(Poset(3))
    assert len(list(hasse_isos(flat, flat))) == 6
    assert list(hasse_isos(flat, hasse(Poset(3), colour=lambda x: x == 1))) == []
    P = five_node_poset()
    assert list(hasse_isos(hasse(P), hasse(P))) == [{x: x for x in range(1, 6)}]
    assert list(hasse_isos(hasse(P), hasse(relabel(P, 4)))) == [
        {1: 1, 2: 2, 3: 3, 4: 5, 5: 4}
    ]
    # Swapping labels 2 and 3 keeps the shape but makes the edge 3 < 2 weak.
    assert list(hasse_isos(hasse(P), hasse(relabel(P, 2)))) == []
    plain = {"strict": lambda a, b: None}
    assert len(list(hasse_isos(hasse(P, **plain), hasse(relabel(P, 2), **plain)))) == 1
    assert list(hasse_isos(hasse(P), hasse(chain(5)))) == []
