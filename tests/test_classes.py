"""Equivalence classes: moves, enumeration by translation, and the tableau
bijection."""

import json

import pytest

from wol import classes, permutations, verify
from wol.classes import (
    class_to_json,
    dp_iso_exists,
    dp_iso_find,
    equiv_class,
    hasse_dot,
    one_step_moves,
)
from wol.compositions import all_compositions, is_peak
from wol.descent_diagrams import build_D_S_rho
from wol.errors import DomainError, ResourceCapError
from wol.permutations import (
    LEFT,
    RIGHT,
    all_perms,
    compose,
    descents,
    identity,
    inverse,
    length,
    longest_element,
    mult_s_right,
    parse_perm,
    weak_interval,
    weak_leq,
)
from wol.posets import COMPARABLE_NONCOVERING, classify_pair, interval_to_poset
from wol.tableaux import FAMILY_MODULES, family_class
from wol.verify import (
    all_left_intervals,
    check_class_oracle,
    class_by_moves,
    class_census,
    class_tableau_bijection,
)

NINE_MEMBERS = [
    ("132456", "142563"),
    ("134256", "145263"),
    ("134526", "145623"),
    ("312456", "412563"),
    ("314256", "415263"),
    ("314526", "415623"),
    ("341256", "451263"),
    ("341526", "451623"),
    ("345126", "456123"),
]

# Edges redrawn from the worked figure, as (from, to, generator).
NINE_EDGES = {
    ("132456", "312456", 1),
    ("132456", "134256", 3),
    ("312456", "314256", 3),
    ("134256", "314256", 1),
    ("134256", "134526", 4),
    ("314256", "341256", 2),
    ("314256", "314526", 4),
    ("134526", "314526", 1),
    ("341256", "341526", 4),
    ("314526", "341526", 2),
    ("341526", "345126", 3),
}


def nine_class():
    return equiv_class(weak_interval(parse_perm("132456"), parse_perm("142563"), LEFT))


def test_one_step_moves_examples():
    n = 4
    full = weak_interval(identity(n), longest_element(n), LEFT)
    assert one_step_moves(full) == []
    I = weak_interval(parse_perm("132465"), parse_perm("231564"), LEFT)
    assert [i for i, _ in one_step_moves(I)] == [3]
    J = weak_interval(parse_perm("132456"), parse_perm("142563"), LEFT)
    assert [i for i, _ in one_step_moves(J)] == [1, 3]


def left_intervals(n):
    perms = list(all_perms(n))
    return [weak_interval(u, v, LEFT) for u in perms for v in perms if weak_leq(u, v, LEFT)]


def poset_moves(I):
    """The move indices by the poset route: classify (i, i+1) in P(I)."""
    P = interval_to_poset(I)
    return [i for i in range(1, I.n) if classify_pair(P, i) == COMPARABLE_NONCOVERING]


def right_translate(I, i):
    """[lo s_i, hi s_i]_L, built with the order check of construction."""
    return weak_interval(mult_s_right(I.lo, i), mult_s_right(I.hi, i), LEFT)


def test_one_step_moves_match_pair_classification():
    intervals = left_intervals(5)
    assert len(intervals) == 1899
    for I in intervals:
        moves = one_step_moves(I)
        assert [i for i, _ in moves] == poset_moves(I)
        assert all(J == right_translate(I, i) for i, J in moves)


def reference_class(I):
    """Members, hasse, min and max of the class of I, by a BFS over
    right translation and the poset classification of each member."""
    seen = {(I.lo, I.hi)}
    edges = set()
    frontier = [I]
    while frontier:
        nxt = []
        for J in frontier:
            for i in poset_moves(J):
                K = right_translate(J, i)
                a, b = sorted([(J.lo, J.hi), (K.lo, K.hi)])
                edges.add((a, b, i))
                if (K.lo, K.hi) not in seen:
                    seen.add((K.lo, K.hi))
                    nxt.append(K)
        frontier = nxt
    keys = sorted(seen)
    index = {key: k for k, key in enumerate(keys)}
    hasse = sorted((index[a], index[b], i) for a, b, i in edges)
    los = [lo for lo, _ in keys]
    bottom = next(k for k, u in enumerate(los) if all(weak_leq(u, v, RIGHT) for v in los))
    top = next(k for k, v in enumerate(los) if all(weak_leq(u, v, RIGHT) for u in los))
    return keys, hasse, bottom, top


def test_equiv_class_matches_reference_bfs():
    for I in left_intervals(4):
        C = equiv_class(I)
        keys, hasse, bottom, top = reference_class(I)
        assert [(J.lo, J.hi) for J in C.members] == keys
        assert list(C.hasse) == hasse
        assert (C.min_index, C.max_index) == (bottom, top)


def test_equiv_class_matches_move_closure():
    intervals = left_intervals(5)
    assert len(intervals) == 1899
    for I in intervals:
        assert equiv_class(I) == class_by_moves(I), I


@pytest.mark.parametrize("n", range(1, 7))
def test_equiv_class_matches_move_closure_on_families(n):
    for alpha in all_compositions(n):
        for kind in FAMILY_MODULES:
            if kind == "Q" and not is_peak(alpha):
                continue
            I = family_class(kind, alpha).min_interval
            assert equiv_class(I) == class_by_moves(I), (kind, alpha)


def test_class_oracle_detects_a_dropped_right_cover(monkeypatch):
    assert check_class_oracle(4, 0)[0]
    target = next(I for I in left_intervals(4) if equiv_class(I).hasse)
    translated = verify.equiv_class

    def dropped_cover(I, cap=None):
        # the class of one interval loses one right cover
        C = translated(I, cap)
        return C._replace(hasse=C.hasse[1:]) if I == target else C

    monkeypatch.setattr(verify, "equiv_class", dropped_cover)
    assert check_class_oracle(4, 0) == (
        False,
        f"translation and move closure disagree at {target}",
    )


def test_equiv_class_singleton():
    n = 6
    C = equiv_class(weak_interval(identity(n), longest_element(n), LEFT))
    assert C.size == 1 and C.min_index == C.max_index == 0


def test_equiv_class_nine_member_golden():
    from wol.permutations import format_perm

    C = nine_class()
    assert [(format_perm(J.lo), format_perm(J.hi)) for J in C.members] == NINE_MEMBERS
    assert C.min_index == 0
    assert C.members[C.max_index].lo == parse_perm("345126")
    got_edges = {
        (
            "".join(map(str, C.members[a].lo)),
            "".join(map(str, C.members[b].lo)),
            i,
        )
        for a, b, i in C.hasse
    }
    normalized = {
        (min(x, y), max(x, y), i) for x, y, i in got_edges
    }
    assert normalized == {(min(x, y), max(x, y), i) for x, y, i in NINE_EDGES}
    assert C.xi == compose(parse_perm("142563"), inverse(parse_perm("132456")))


def test_equiv_class_four_chain_golden():
    # the worked ladder: four members joined by the moves s_3, s_4, s_5
    from wol.permutations import format_perm

    C = equiv_class(weak_interval(parse_perm("132465"), parse_perm("231564"), LEFT))
    assert [(format_perm(J.lo), format_perm(J.hi)) for J in C.members] == [
        ("132465", "231564"),
        ("134265", "235164"),
        ("134625", "235614"),
        ("134652", "235641"),
    ]
    assert C.hasse == ((0, 1, 3), (1, 2, 4), (2, 3, 5))
    assert (C.min_index, C.max_index) == (0, 3)


def test_equiv_class_cap():
    with pytest.raises(ResourceCapError):
        equiv_class(
            weak_interval(parse_perm("132456"), parse_perm("142563"), LEFT), cap=3
        )


def test_xi_constant_and_descents():
    C = nine_class()
    for J in C.members:
        assert compose(J.hi, inverse(J.lo)) == C.xi
        assert descents(J.lo, LEFT) == descents(C.min.lo, LEFT)


def test_dp_iso_examples():
    I = weak_interval(parse_perm("132465"), parse_perm("231564"), LEFT)
    assert dp_iso_exists(I, I)
    J = weak_interval(parse_perm("134652"), parse_perm("235641"), LEFT)
    assert dp_iso_exists(I, J)
    A = weak_interval((1, 2, 3), (2, 1, 3), LEFT)
    B = weak_interval((1, 2, 3), (1, 3, 2), LEFT)
    assert not dp_iso_exists(A, B)
    mapping = dp_iso_find(I, J)
    gamma = compose(inverse(I.lo), J.lo)
    assert mapping == {g: compose(g, gamma) for g in I.elements}
    for g, h in mapping.items():
        assert descents(g, LEFT) == descents(h, LEFT)
    assert dp_iso_find(A, B) is None
    R = weak_interval((1, 2, 3), (2, 1, 3), RIGHT)
    for decide in (dp_iso_exists, dp_iso_find):
        with pytest.raises(DomainError):
            decide(R, R)
        with pytest.raises(DomainError):
            decide(A, R)


def test_dp_iso_cap():
    # The equivalence test has no size cap: the whole of S5 and of S6.
    for n in (5, 6):
        big = weak_interval(identity(n), longest_element(n), LEFT)
        assert dp_iso_exists(big, big)
    assert big.size == 720


@pytest.mark.parametrize("n", range(1, 6))
def test_all_left_intervals_keeps_the_pair_order(n):
    # the order of the loop over all pairs, which seeded samples depend on
    perms = list(all_perms(n))
    pairs = [(lo, hi) for lo in perms for hi in perms if weak_leq(lo, hi, LEFT)]
    assert [(I.lo, I.hi) for I in all_left_intervals(n)] == pairs


# (classes, intervals) of Int(n) for n = 1..6
CENSUS = [(1, 1), (3, 3), (15, 17), (108, 151), (1026, 1899), (12183, 31711)]


@pytest.mark.parametrize("n, counts", enumerate(CENSUS, start=1))
def test_class_census_goldens(n, counts):
    assert class_census(n) == (*counts, None)


def test_equiv_class_checks_members_in_constant_calls(monkeypatch):
    calls = {"inv_mask": 0, "validate_perm": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, wrapper)

    for module, name in (
        (permutations, "inv_mask"),
        (classes, "inv_mask"),
        (permutations, "validate_perm"),
    ):
        counted(module, name)
    counts = []
    for w in ("21436587", "12345678"):
        I = weak_interval(parse_perm(w), parse_perm(w), LEFT)
        calls.update(inv_mask=0, validate_perm=0)
        size = equiv_class(I).size
        counts.append((size, dict(calls)))
    (big, big_calls), (small, small_calls) = counts
    assert big == 1385 and small == 1
    assert big_calls == small_calls


def test_class_oracle_detects_a_wrong_class_key(monkeypatch):
    assert check_class_oracle(4, 0)[0]

    def lower_endpoint_key(I):
        # the lower endpoint of I in place of the class minimum's
        return I.lo, compose(I.hi, inverse(I.lo))

    monkeypatch.setattr(classes, "class_key", lower_endpoint_key)
    ok, detail = check_class_oracle(4, 0)
    assert not ok and detail.startswith("oracle disagrees at ")


def test_class_tableau_bijection_trivial():
    n = 3
    C = equiv_class(weak_interval(identity(n), longest_element(n), LEFT))
    D = build_D_S_rho(frozenset(), longest_element(n))
    assert class_tableau_bijection(C, D) is None
    assert C.size == 1


def test_class_tableau_bijection_nine():
    C = nine_class()
    D = build_D_S_rho({2}, parse_perm("142563"))
    assert class_tableau_bijection(C, D) is None
    assert C.size == 9


def test_class_tableau_bijection_mismatch_report():
    C = nine_class()
    wrong = build_D_S_rho({2, 5}, parse_perm("231564"))
    assert class_tableau_bijection(C, wrong) == "|ST(D^x)| = 16 but |C| = 9"


def test_class_json_and_dot():
    C = nine_class()
    data = json.loads(class_to_json(C))
    assert data["xi"] == "124563"
    assert data["members"][data["min"]] == ["132456", "142563"]
    assert data["members"][data["max"]] == ["345126", "456123"]
    assert len(data["hasse"]) == 11
    dot = hasse_dot(C)
    assert dot.startswith("digraph")
    assert dot.count("->") == 11
    assert '[label="s3"]' in dot


def test_hasse_edges_point_up_in_length():
    # hasse_dot draws every edge (a, b, i) from member a to member b.
    for I in all_left_intervals(4):
        C = equiv_class(I)
        assert all(length(C.members[a].lo) < length(C.members[b].lo) for a, b, _ in C.hasse)


def test_one_step_moves_rejects_right_intervals():
    with pytest.raises(DomainError):
        one_step_moves(weak_interval((1, 2, 3), (2, 1, 3), "R"))
