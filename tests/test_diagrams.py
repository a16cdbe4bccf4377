"""Diagrams, fillings, reading words, standard tableaux, and the star action."""

import json
from itertools import permutations as _perms

import pytest

from wol.compositions import all_compositions, set_of
from wol.descent_diagrams import family_diagram
from wol.diagrams import (
    Diagram,
    canonical_fill,
    count_ST,
    diagram_of,
    diagram_to_json,
    enumerate_ST,
    fill_from_map,
    fill_ne,
    hecke_star,
    is_free_upper_right,
    is_standard_tableau,
    poset_of_filling,
    profiles,
    reading,
    reflect,
    st_leq,
    tableau_T,
)
from wol.errors import ResourceCapError, ShapeError
from wol.permutations import format_perm, longest_parabolic, w1
from wol.posets import chain, is_regular
from wol.verify import random_diagrams

SIX_CELL = Diagram(frozenset({(1, 2), (2, 1), (2, 2), (3, 3), (4, 2), (4, 3)}))
FREE_SIX = Diagram(frozenset({(1, 1), (2, 1), (2, 2), (3, 2), (4, 2), (5, 1)}))


def test_diagram_validation():
    with pytest.raises(ShapeError):
        Diagram(frozenset())
    with pytest.raises(ShapeError):
        Diagram(frozenset({(2, 1)}))  # empty column 1
    with pytest.raises(ShapeError):
        Diagram(frozenset({(1, 1), (3, 1)}))  # empty column 2
    with pytest.raises(ShapeError):
        Diagram(frozenset({(1, 1), (1, 1), (0, 1)}))


def test_diagram_of_examples():
    tcd = diagram_of((1, 3, 2), "composition")
    assert sorted(tcd.cells) == [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 2)]
    trd = diagram_of((1, 3, 2), "ribbon")
    assert sorted(trd.cells) == [(1, 4), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2)]
    row = diagram_of((5,), "composition")
    assert sorted(row.cells) == [(x, 1) for x in range(1, 6)]
    assert sorted(diagram_of((5,), "ribbon").cells) == [(1, y) for y in range(1, 6)]


def test_reflect_examples():
    for op in ("transpose", "star", "x_axis"):
        assert reflect(reflect(SIX_CELL, op), op) == SIX_CELL
    expected = {(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (3, 4)}
    assert reflect(diagram_of((3, 2, 4), "composition"), "transpose").cells == expected
    F = canonical_fill(SIX_CELL, "down")
    assert poset_of_filling(reflect(F, "transpose")) == poset_of_filling(F)
    assert reflect(reflect(F, "bar"), "bar") == F


def test_star_filling_identity():
    for D in random_diagrams(25, 8, seed=7):
        down_star = reflect(canonical_fill(D, "down"), "star")
        assert down_star == canonical_fill(reflect(D, "star"), "right")


def test_profiles_examples():
    row = diagram_of((6,), "composition")
    assert profiles(row) == ((6,), (1,) * 6)
    assert profiles(diagram_of((1, 3, 2), "ribbon"))[1] == (1, 3, 2)
    assert profiles(family_diagram("Q", (3, 2, 3, 1)))[0] == (1, 3, 2, 3)


def test_canonical_fill_examples():
    down = canonical_fill(SIX_CELL, "down")
    assert sorted(down.entries) == [
        (1, 2, 1), (2, 1, 3), (2, 2, 2), (3, 3, 4), (4, 2, 6), (4, 3, 5),
    ]
    col = diagram_of((1, 1, 1), "composition")
    assert canonical_fill(col, "down") == canonical_fill(col, "right")
    right = canonical_fill(FREE_SIX, "right")
    assert sorted(right.entries) == [
        (1, 1, 4), (2, 1, 5), (2, 2, 1), (3, 2, 2), (4, 2, 3), (5, 1, 6),
    ]


def test_fill_ne_examples():
    col = diagram_of((1, 1, 1, 1), "composition")
    assert fill_ne(col) == canonical_fill(col, "down")
    ne = fill_ne(SIX_CELL)
    assert sorted(ne.entries) == [
        (1, 2, 1), (2, 1, 6), (2, 2, 2), (3, 3, 3), (4, 2, 5), (4, 3, 4),
    ]
    free = [D for D in random_diagrams(120, 7, seed=3) if is_free_upper_right(D)]
    assert len(free) >= 50
    for D in free[:50]:
        assert fill_ne(D) == canonical_fill(D, "right")


def test_poset_of_filling_examples():
    row = diagram_of((4,), "composition")
    assert poset_of_filling(canonical_fill(row, "right")) == chain(4)
    for D in random_diagrams(40, 8, seed=11):
        assert is_regular(poset_of_filling(canonical_fill(D, "down")))
        assert is_regular(poset_of_filling(canonical_fill(D, "right")))


def test_reading_examples():
    from wol.tableaux import sink_source

    assert format_perm(reading(sink_source("SIT", (3, 2, 4), "sink"), "RLBT")) == "981726543"
    assert format_perm(reading(sink_source("SET", (3, 2, 4), "source"), "BTRL")) == "938257146"
    cell = Diagram(frozenset({(1, 1)}))
    F = canonical_fill(cell, "down")
    for scheme in ("TBLR", "LRTB", "LRBT", "BTLR", "RLBT", "BTRL"):
        assert reading(F, scheme) == (1,)
    with pytest.raises(ShapeError):
        reading(canonical_fill(SIX_CELL, "down"), "RLBTBT")
    with pytest.raises(ShapeError):
        reading(canonical_fill(SIX_CELL, "down"), "DR")


def test_tableau_T_reading_identities():
    for D in random_diagrams(40, 7, seed=5):
        n = D.n
        r_prof, c_prof = profiles(D)
        assert reading(tableau_T(D, False), "LRTB") == w1(set_of(r_prof), n)
        comp = frozenset(range(1, n)) - set_of(c_prof)
        assert reading(tableau_T(D, True), "TBLR") == longest_parabolic(comp, n)
    col = diagram_of((1, 1), "composition")
    assert tableau_T(col, True) == tableau_T(col, False)


def brute_standard_tableaux(D):
    cells = sorted(D.cells)
    out = []
    for perm in _perms(range(1, D.n + 1)):
        F = fill_from_map(D, dict(zip(cells, perm)))
        if is_standard_tableau(F):
            out.append(F)
    return out


def test_enumerate_ST_examples():
    row = diagram_of((4,), "composition")
    assert len(enumerate_ST(row)) == 1
    square = diagram_of((2, 2), "composition")
    got = enumerate_ST(square)
    assert len(got) == 2
    assert sorted(got, key=lambda F: F.entries) == sorted(
        brute_standard_tableaux(square), key=lambda F: F.entries
    )
    for D in random_diagrams(12, 6, seed=13):
        enum = enumerate_ST(D)
        assert sorted(F.entries for F in enum) == sorted(
            F.entries for F in brute_standard_tableaux(D)
        )
        assert len(enum) == count_ST(D)
        words = [reading(F, "TBLR") for F in enum]
        assert words == sorted(words)


def test_enumerate_ST_cap():
    wide = Diagram(frozenset((x, 1) for x in range(1, 3)))
    assert len(enumerate_ST(wide, cap=5)) == 1
    tall = diagram_of((1,) * 8, "composition")
    big = reflect(tall, "transpose")
    with pytest.raises(ResourceCapError) as info:
        enumerate_ST(Diagram(frozenset((x, y) for x in range(1, 4) for y in range(1, 4))), cap=3)
    assert info.value.count == 3


def test_st_count_golden():
    G = family_diagram("Q", (3, 2, 3, 1))
    assert len(enumerate_ST(reflect(G, "x_axis"))) == 594


def test_st_leq_and_minimum():
    D = FREE_SIX
    Dx = reflect(D, "x_axis")
    tabs = enumerate_ST(Dx)
    root = tableau_T(Dx, primed=True)
    for T in tabs:
        assert st_leq(T, T)
        assert st_leq(root, T)
    with pytest.raises(ShapeError):
        st_leq(tabs[0], canonical_fill(D, "down"))


def test_hecke_star_cases():
    col = diagram_of((1, 1), "composition")
    T = tableau_T(col, primed=True)  # 1 below 2
    assert hecke_star(1, T) is None
    Dx = reflect(FREE_SIX, "x_axis")
    for T in enumerate_ST(Dx):
        for i in range(1, T.n):
            res = hecke_star(i, T)
            if res is not None and res != T:
                xi, yi = T.cell_of(i)
                xj, yj = T.cell_of(i + 1)
                assert xi < xj and yi > yj
                assert is_standard_tableau(res)


def test_star_braid_relation():
    for D in random_diagrams(20, 8, seed=21):
        Dx = reflect(D, "x_axis")
        try:
            tabs = enumerate_ST(Dx, cap=200)
        except ResourceCapError:
            continue

        def act(word, T):
            for i in reversed(word):
                if T is None:
                    return None
                T = hecke_star(i, T)
            return T

        for T in tabs:
            for i in range(1, D.n - 1):
                assert act([i, i + 1, i], T) == act([i + 1, i, i + 1], T)


def test_is_free_upper_right_examples():
    assert not is_free_upper_right(Diagram(frozenset({(1, 1), (2, 2)})))
    for n in range(1, 9):
        for alpha in all_compositions(n):
            assert is_free_upper_right(diagram_of(alpha, "ribbon"))
    assert is_free_upper_right(family_diagram("V", (3, 2, 4)))
    assert not is_free_upper_right(SIX_CELL)


def test_json_roundtrips():
    data = json.loads(diagram_to_json(SIX_CELL))
    assert Diagram(frozenset(tuple(c) for c in data["cells"])) == SIX_CELL
    assert diagram_to_json(FREE_SIX) == (
        '{"n": 6, "cells": [[1, 1], [2, 1], [2, 2], [3, 2], [4, 2], [5, 1]]}'
    )
