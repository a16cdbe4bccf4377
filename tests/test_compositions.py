"""Composition operations and their involutions."""

import pytest
from hypothesis import given, strategies as st

from wol.compositions import (
    all_compositions,
    comp_of,
    complement,
    conjugate_partition,
    is_peak,
    reverse,
    set_of,
    sort_parts,
    subset_reverse,
    subset_transpose,
    transpose,
)
from wol.errors import DomainError

compositions = st.lists(st.integers(1, 5), min_size=1, max_size=5).map(tuple)


def test_set_of_examples():
    assert set_of((6,)) == frozenset()
    assert set_of((1, 3, 2)) == frozenset({1, 4})
    assert set_of((4, 2, 3)) == frozenset({4, 6})


def test_comp_of_examples():
    assert comp_of(set(), 5) == (5,)
    assert comp_of(set(), 0) == ()
    assert comp_of({2, 5}, 6) == (2, 3, 1)
    assert comp_of({4, 6}, 9) == (4, 2, 3)
    with pytest.raises(DomainError):
        comp_of({9}, 9)


@pytest.mark.parametrize("n", range(0, 9))
def test_involutions_exhaustive(n):
    for alpha in all_compositions(n):
        assert reverse(reverse(alpha)) == alpha
        if alpha:
            assert complement(complement(alpha)) == alpha
            assert transpose(transpose(alpha)) == alpha
            assert set_of(complement(alpha)) == frozenset(range(1, n)) - set_of(alpha)
        assert comp_of(set_of(alpha), n) == alpha if alpha else True
    subsets = {frozenset(set_of(a)) for a in all_compositions(n)} if n else set()
    for I in subsets:
        assert set_of(comp_of(I, n)) == I


def test_is_peak_examples():
    assert is_peak((3, 2, 3, 1))
    assert not is_peak((1, 2))
    assert is_peak((7,))


def test_subset_operations():
    # I^r reverses positions; I^t composes reverse and complement
    assert subset_reverse({4, 6}, 9) == frozenset({3, 5})
    assert subset_transpose({1, 3}, 4) == frozenset({2})
    for alpha in all_compositions(6):
        if alpha:
            assert subset_reverse(set_of(alpha), 6) == set_of(reverse(alpha))
            assert subset_transpose(set_of(alpha), 6) == set_of(transpose(alpha))


def test_conjugate_partition():
    assert conjugate_partition((4, 3, 2)) == (3, 3, 2, 1)
    assert conjugate_partition(()) == ()
    with pytest.raises(Exception):
        conjugate_partition((2, 3))


@given(compositions)
def test_sort_is_partition(alpha):
    mu = sort_parts(alpha)
    assert sorted(mu, reverse=True) == list(mu)
    assert conjugate_partition(conjugate_partition(mu)) == mu
