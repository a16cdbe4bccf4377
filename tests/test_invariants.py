"""Cross-module structural invariants and doctest collection."""

import doctest

import pytest

import wol.compositions
import wol.descent_diagrams
import wol.diagrams
import wol.errors
import wol.permutations
import wol.posets
from wol.classes import equiv_class
from wol.compositions import all_compositions, set_of
from wol.descent_diagrams import build_D_S_rho, build_D_sigma_S, lower_minmax
from wol.diagrams import (
    Diagram,
    Filling,
    canonical_fill,
    diagram_of,
    enumerate_ST,
    is_free_upper_right,
    poset_of_filling,
    reading,
    reflect,
    tableau_T,
)
from wol.errors import OrderError, ResourceCapError
from wol.hulls import hull_or_cover
from wol.permutations import (
    LEFT,
    WeakInterval,
    parse_perm,
    w1,
    weak_interval,
    weak_leq,
)
from wol.tableaux import family_class
from wol.verify import (
    check_class_oracle,
    check_descent_diagram_invariants,
    check_relabel_classification,
    random_diagrams,
    subsets,
)

DOCTEST_MODULES = [
    wol.permutations,
    wol.compositions,
    wol.posets,
    wol.diagrams,
    wol.descent_diagrams,
    wol.errors,
]


@pytest.mark.parametrize("module", DOCTEST_MODULES, ids=lambda m: m.__name__)
def test_doctests(module):
    result = doctest.testmod(module)
    assert result.failed == 0


def test_ribbons_are_connected():
    def connected(D):
        cells = set(D.cells)
        seen = {next(iter(cells))}
        frontier = list(seen)
        while frontier:
            x, y = frontier.pop()
            for nbr in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
                if nbr in cells and nbr not in seen:
                    seen.add(nbr)
                    frontier.append(nbr)
        return seen == cells

    for n in range(1, 9):
        for alpha in all_compositions(n):
            assert connected(diagram_of(alpha, "ribbon")), alpha


def test_upper_left_matches_noncovering_on_free_diagrams():
    # for free D and T in ST(D^x): i strictly upper-left of i+1 in T
    # iff i lies below i+1 in the poset of T^x without covering it.
    # (The pair can also be comparable non-covering the other way around,
    # with i+1 below i; those are not star-swaps.)
    checked = 0
    for D in random_diagrams(60, 7, seed=23):
        if not is_free_upper_right(D):
            continue
        Dx = reflect(D, "x_axis")
        try:
            tabs = enumerate_ST(Dx, cap=80)
        except ResourceCapError:
            continue
        for T in tabs:
            P = poset_of_filling(reflect(T, "x_axis"))
            for i in range(1, D.n):
                xi, yi = T.cell_of(i)
                xj, yj = T.cell_of(i + 1)
                upper_left = xi < xj and yi > yj
                below_noncover = P.leq(i, i + 1) and not P.is_cover(i, i + 1)
                assert upper_left == below_noncover
        checked += 1
        if checked >= 20:
            break
    assert checked >= 20


def test_primed_tableau_is_st_minimum():
    checked = 0
    for D in random_diagrams(80, 7, seed=29):
        if not is_free_upper_right(D):
            continue
        Dx = reflect(D, "x_axis")
        try:
            tabs = enumerate_ST(Dx, cap=80)
        except ResourceCapError:
            continue
        root = tableau_T(Dx, primed=True)
        from wol.diagrams import st_leq

        assert all(st_leq(root, T) for T in tabs)
        checked += 1
        if checked >= 20:
            break
    assert checked >= 20


def test_lower_max_reading_formula_when_free():
    # max C_{S;rho} = [readingLRTB(T'_D), w1(set(r(D)))]_L for free D
    from wol.diagrams import profiles
    from wol.permutations import all_perms, longest_parabolic

    n = 4
    for S in subsets(list(range(1, n))):
        w0S = longest_parabolic(S, n)
        for rho in all_perms(n):
            if not weak_leq(w0S, rho, LEFT):
                continue
            D = build_D_S_rho(S, rho)
            if not is_free_upper_right(D):
                continue
            _, hi = lower_minmax(S, rho)
            assert hi.lo == reading(tableau_T(D, primed=True), "LRTB")
            assert hi.hi == w1(set_of(profiles(D)[0]), n)


def test_relabel_classification_full_n5():
    ok, detail = check_relabel_classification(5, 0)
    assert ok, detail


def test_class_oracle_samples_whole_s5():
    # Seed 101 samples S5 intervals of more than 60 elements; no cap applies.
    ok, detail = check_class_oracle(5, 101)
    assert ok, detail


def test_descent_diagram_invariants_n5():
    ok, detail = check_descent_diagram_invariants(5, 0)
    assert ok, detail


def test_star_down_equals_right_of_star_sampled():
    # (F_down of D)^* = F_right of D^* on a wider sample
    for D in random_diagrams(100, 8, seed=31):
        assert reflect(canonical_fill(D, "down"), "star") == canonical_fill(
            reflect(D, "star"), "right"
        )


# The plain records are named tuples: built like the frozen dataclasses
# they replace, immutable, and equal and hashed by value.
RECORDS = {
    "EquivClass": lambda: equiv_class(
        weak_interval(parse_perm("132456"), parse_perm("142563"), LEFT)
    ),
    "UpperDiagram": lambda: build_D_sigma_S(parse_perm("546213"), {1, 3, 4}),
    "ClassSummary": lambda: family_class("Q", (3, 2, 3, 1)),
    "HullCoverResult": lambda: hull_or_cover("lower", S={2}, rho=parse_perm("142563")),
}


@pytest.mark.parametrize("record", list(RECORDS))
def test_records_are_immutable_values(record):
    a, b = RECORDS[record](), RECORDS[record]()
    assert type(a).__name__ == record
    assert a is not b and a == b and hash(a) == hash(b)
    for field in a._fields:
        with pytest.raises(AttributeError):
            setattr(a, field, None)
    changed = a._replace(**{a._fields[0]: None})
    assert changed != a and a == b


def test_record_properties():
    C = RECORDS["EquivClass"]()
    # bench/tracing.py counts class members by ``result.size``.
    assert C.size == len(C.members) == 9
    assert (C.min, C.max) == (C.members[C.min_index], C.members[C.max_index])
    hull = RECORDS["HullCoverResult"]()
    assert hull.lower_set == hull.upper_set == frozenset({3})
    assert hull.is_projective_indecomposable is True


# The value classes keep the behaviour of the frozen dataclasses they
# replace; each entry is (build, field names, repr at that replacement).
VALUES = {
    "WeakInterval": (
        lambda: WeakInterval(LEFT, parse_perm("132456"), parse_perm("142563")),
        ("side", "lo", "hi"),
        "WeakInterval(side='L', lo=(1, 3, 2, 4, 5, 6), hi=(1, 4, 2, 5, 6, 3))",
    ),
    "Diagram": (
        lambda: Diagram(frozenset({(2, 1), (1, 1), (1, 2)})),
        ("cells",),
        "Diagram([(1, 1), (1, 2), (2, 1)])",
    ),
    "Filling": (
        lambda: Filling(Diagram({(2, 1), (1, 1), (1, 2)}), ((1, 2, 1), (1, 1, 2), (2, 1, 3))),
        ("diagram", "entries"),
        "Filling([(1, 1, 2), (1, 2, 1), (2, 1, 3)])",
    ),
}


@pytest.mark.parametrize("name", list(VALUES))
def test_value_classes_behave_as_frozen_dataclasses(name):
    build, fields, text = VALUES[name]
    a, b = build(), build()
    values = tuple(getattr(a, field) for field in fields)
    assert a is not b and a == b and hash(a) == hash(b) == hash(values)
    assert a != values and values != a and a.__eq__(values) is NotImplemented
    for field in (*fields, "other"):
        with pytest.raises(AttributeError):
            setattr(a, field, None)
        with pytest.raises(AttributeError):
            delattr(a, field)
    assert a == b and repr(a) == text


def test_unchecked_interval_equals_the_checked_one(monkeypatch):
    lo, hi = parse_perm("132456"), parse_perm("142563")
    I = WeakInterval.unchecked(LEFT, lo, hi)
    assert I == WeakInterval(LEFT, lo, hi) and hash(I) == hash(WeakInterval(LEFT, lo, hi))
    with pytest.raises(OrderError):
        WeakInterval(LEFT, hi, lo)
    assert WeakInterval.unchecked(LEFT, hi, lo).lo == hi
    bfs = wol.permutations.right_interval_bfs
    calls = []
    monkeypatch.setattr(
        wol.permutations, "right_interval_bfs", lambda *args: calls.append(args) or bfs(*args)
    )
    assert I.elements is I.elements and I.size == 4 and len(calls) == 1
