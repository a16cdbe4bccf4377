"""
Named verification sweeps: each checks a batch of structural identities
against brute-force oracles at small n and reports pass/fail.

The CLI ``verify`` command runs these; the acceptance tests call them
with the sizes fixed by the project contract.
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import chain, combinations
from typing import Callable, Iterator, Mapping

import numpy as np

from . import hecke, tableaux
from .classes import (
    EquivClass,
    class_key,
    class_tableau_bijection,
    dp_iso_exists,
    dp_iso_find,
    equiv_class,
    one_step_moves,
)
from .compositions import (
    all_compositions,
    is_peak,
    reverse,
    set_of,
    subset_reverse,
    subset_transpose,
)
from .descent_diagrams import (
    build_D_S_rho,
    build_D_sigma_S,
    family_diagram,
    lower_minmax,
    upper_minmax,
)
from .diagrams import (
    Diagram,
    canonical_fill,
    diagram_of,
    enumerate_ST,
    fill_ne,
    hecke_star,
    is_free_upper_right,
    poset_of_filling,
    profiles,
    reading,
    reflect,
    tableau_T,
)
from .errors import DomainError, ResourceCapError
from .permutations import (
    LEFT,
    RIGHT,
    Perm,
    WeakInterval,
    all_perms,
    compose,
    coset_decompose,
    covers_up,
    descent_class,
    descents,
    identity,
    inv_mask,
    inverse,
    length,
    longest_element,
    longest_parabolic,
    mult_s_left,
    mult_s_right,
    w1,
    weak_interval,
    weak_leq,
)
from .posets import (
    COMPARABLE_NONCOVERING,
    COVERING,
    Poset,
    bar,
    classify_pair,
    extremes_of_regular,
    interval_to_poset,
    is_regular,
    linear_extensions_L,
    relabel,
    sigma_L_interval,
)

Check = tuple[str, Callable[[int, int], tuple[bool, str]]]


def subsets(ground: list[int]) -> Iterator[frozenset[int]]:
    return map(
        frozenset, chain.from_iterable(combinations(ground, k) for k in range(len(ground) + 1))
    )


def all_left_intervals(n: int) -> Iterator[WeakInterval]:
    """Int(n) sorted by (lo, hi): each lo with the members of [lo, w0]_L."""
    w0 = longest_element(n)
    for lo in all_perms(n):
        for hi in WeakInterval(LEFT, lo, w0).elements:
            yield WeakInterval.unchecked(LEFT, lo, hi)


def edge_decorated_covers(P: Poset) -> frozenset[tuple[int, int, bool]]:
    """Covers with their strict/weak decoration (strict when the larger
    poset element carries the smaller label)."""
    return frozenset((a, b, a > b) for a, b in P.covers())


def hasse_isos(A: Mapping, B: Mapping) -> Iterator[dict]:
    """Every isomorphism of two coloured Hasse diagrams.

    Each diagram maps an element to its colour and the set of its
    (lower cover, edge colour) pairs.  A bijection is yielded when it
    keeps element colours and carries each lower-cover set exactly onto
    the lower-cover set of the image; such a map is a poset isomorphism
    that also keeps edge colours.  Elements of ``A`` are matched bottom-up,
    in their given order within each height, against candidates of ``B``
    in their given order.
    """
    if len(A) != len(B):
        return
    height: dict = {}

    def level(x) -> int:
        if x not in height:
            height[x] = 1 + max((level(c) for c, _ in A[x][1]), default=-1)
        return height[x]

    order = sorted(A, key=level)
    targets: dict = {}
    for y, (colour, _) in B.items():
        targets.setdefault(colour, []).append(y)
    mapping: dict = {}
    used: set = set()

    def extend(k: int) -> Iterator[dict]:
        if k == len(order):
            yield dict(mapping)
            return
        x = order[k]
        colour, below = A[x]
        want = frozenset((mapping[c], e) for c, e in below)
        for y in targets.get(colour, ()):
            if y in used or B[y][1] != want:
                continue
            mapping[x] = y
            used.add(y)
            yield from extend(k + 1)
            del mapping[x]
            used.remove(y)

    yield from extend(0)


def decorated_iso_exists(P: Poset, Q: Poset) -> bool:
    """Isomorphism of posets carrying strict edges to strict edges and
    weak to weak (labels otherwise forgotten)."""

    def colours(R: Poset) -> dict[int, tuple[int, int]]:
        return {x: (len(R.down_set(x)), len(R.up_set(x))) for x in range(1, R.n + 1)}

    def hasse(R: Poset, colour: dict) -> dict:
        below: dict[int, set] = {x: set() for x in colour}
        for a, b, strict in edge_decorated_covers(R):
            below[b].add((a, strict))
        return {x: (colour[x], frozenset(below[x])) for x in colour}

    if P.n != Q.n:
        return False
    colours_P, colours_Q = colours(P), colours(Q)
    if Counter(colours_P.values()) != Counter(colours_Q.values()):
        return False
    return next(hasse_isos(hasse(P, colours_P), hasse(Q, colours_Q)), None) is not None


def dp_isos(I: WeakInterval, J: WeakInterval) -> Iterator[dict[Perm, Perm]]:
    """Every descent-preserving poset isomorphism I -> J, by search over
    the Hasse diagrams coloured by (rank, Des_L): the oracle for
    ``dp_iso_exists`` and ``dp_iso_find``, which decide by the class key."""

    def colours(K: WeakInterval) -> dict[Perm, tuple[int, frozenset[int]]]:
        base = length(K.lo)
        return {g: (length(g) - base, descents(g, LEFT)) for g in K.elements}

    def hasse(colour: dict) -> dict:
        # The lower covers of g in the left order are the s_i g, i in Des_L(g).
        diagram = {}
        for g, (rank, des) in colour.items():
            below = (mult_s_left(g, i) for i in des)
            diagram[g] = ((rank, des), frozenset((h, None) for h in below if h in colour))
        return diagram

    if I.n != J.n or I.size != J.size:
        return
    colours_I, colours_J = colours(I), colours(J)
    # Reject on the colour multiset before building covers, which cost more.
    if Counter(colours_I.values()) != Counter(colours_J.values()):
        return
    yield from hasse_isos(hasse(colours_I), hasse(colours_J))


def lower_descent_intervals(n: int) -> Iterator[tuple[frozenset[int], Perm]]:
    """The pairs (S, rho) with w_0(S) <=_L rho: lower descent intervals of S_n."""
    for S in subsets(list(range(1, n))):
        w0S = longest_parabolic(S, n)
        for rho in all_perms(n):
            if weak_leq(w0S, rho, LEFT):
                yield S, rho


def upper_descent_intervals(n: int) -> Iterator[tuple[Perm, frozenset[int]]]:
    """The pairs (sigma, S) with sigma <=_L w_1(S): upper descent intervals of S_n."""
    for S in subsets(list(range(1, n))):
        top = w1(S, n)
        for sigma in all_perms(n):
            if weak_leq(sigma, top, LEFT):
                yield sigma, S


def random_left_interval(rng: random.Random, perms: list[Perm]) -> WeakInterval:
    """A left interval [lo, hi]: lo uniform in perms, hi uniform above lo."""
    lo = rng.choice(perms)
    return weak_interval(lo, rng.choice([v for v in perms if weak_leq(lo, v, LEFT)]), LEFT)


def random_diagrams(count: int, max_cells: int, seed: int) -> list[Diagram]:
    """Deterministic sample of valid diagrams with up to max_cells cells."""
    rng = random.Random(seed)
    out: list[Diagram] = []
    while len(out) < count:
        n_cells = rng.randint(2, max_cells)
        width = rng.randint(1, min(4, n_cells))
        height = rng.randint(max(1, (n_cells + width * 2 - 1) // (width * 2)), 4)
        grid = [(x, y) for x in range(1, width + 1) for y in range(1, height + 1)]
        if len(grid) < n_cells:
            continue
        cells = frozenset(rng.sample(grid, n_cells))
        try:
            out.append(Diagram(cells))
        except Exception:
            continue
    return out


# --- perm suite ----------------------------------------------------------


def check_descent_symmetry(nmax: int, seed: int) -> tuple[bool, str]:
    for n in range(1, min(nmax, 6) + 1):
        for w in all_perms(n):
            if descents(w, LEFT) != descents(inverse(w), RIGHT):
                return False, f"Des_L mismatch at {w}"
            lw = length(w)
            for i in range(1, n):
                swap = {i: i + 1, i + 1: i}
                left_drop = length(tuple(swap.get(x, x) for x in w)) < lw
                if (i in descents(w, LEFT)) != left_drop:
                    return False, f"length-drop mismatch at {w}, {i}"
    return True, "descent sets match inverse/right and length drops"


def check_weak_order_oracle(nmax: int, seed: int) -> tuple[bool, str]:
    for n in range(1, min(nmax, 5) + 1):
        perms = list(all_perms(n))
        for side in (LEFT, RIGHT):
            reach: dict[Perm, set[Perm]] = {}

            def reachable(u: Perm) -> set[Perm]:
                if u not in reach:
                    acc = {u}
                    for _, v in covers_up(u, side):
                        acc |= reachable(v)
                    reach[u] = acc
                return reach[u]

            for u in reversed(perms):
                reachable(u)
            for u in perms:
                for v in perms:
                    if weak_leq(u, v, side) != (v in reachable(u)):
                        return False, f"weak_leq oracle fails at {u}, {v}, {side}"
    return True, "inversion-set containment matches cover reachability"


def check_w0_w1_identities(nmax: int, seed: int) -> tuple[bool, str]:
    for n in range(1, min(nmax, 7) + 1):
        w0 = longest_element(n)
        for S in subsets(list(range(1, n))):
            ws = longest_parabolic(S, n)
            if compose(ws, ws) != identity(n):
                return False, f"w0({sorted(S)}) not an involution"
            if descents(ws, LEFT) != S or descents(ws, RIGHT) != S:
                return False, f"descents of w0({sorted(S)}) wrong"
            comp = frozenset(range(1, n)) - S
            if w1(S, n) != compose(w0, longest_parabolic(comp, n)):
                return False, f"w1({sorted(S)}) identity fails"
    return True, "parabolic longest elements and w1 identities hold"


def check_descent_class_oracle(nmax: int, seed: int) -> tuple[bool, str]:
    for n in range(1, min(nmax, 5) + 1):
        for T in subsets(list(range(1, n))):
            for S in subsets(sorted(T)):
                expected = sorted(
                    w for w in all_perms(n) if S <= descents(w, RIGHT) <= T
                )
                got = descent_class(S, T, n).elements
                if list(got) != expected:
                    return False, f"descent class ({sorted(S)}, {sorted(T)}, {n})"
    return True, "descent classes equal brute-force descent filters"


def check_coset_decomposition(nmax: int, seed: int) -> tuple[bool, str]:
    for n in range(2, min(nmax, 5) + 1):
        for S in subsets(list(range(1, n))):
            parabolic = {u for u in all_perms(n) if descents_support(u) <= S}
            for w in all_perms(n):
                z, u = coset_decompose(w, S)
                if compose(z, u) != w:
                    return False, f"zu != w at {w}"
                if length(z) + length(u) != length(w):
                    return False, f"length additivity fails at {w}, {sorted(S)}"
                if u not in parabolic:
                    return False, f"u outside parabolic at {w}"
                if not descents(z, RIGHT) <= frozenset(range(1, n)) - S:
                    return False, f"z has a right descent in S at {w}"
    return True, "coset decompositions are length-additive and well-placed"


def descents_support(u: Perm) -> frozenset[int]:
    """Generator indices moved by u: i with u not fixing [1..i] setwise."""
    n = len(u)
    moved = set()
    for i in range(1, n):
        if set(u[:i]) != set(range(1, i + 1)):
            moved.add(i)
    return frozenset(moved)


def check_interval_closure(nmax: int, seed: int) -> tuple[bool, str]:
    rng = random.Random(seed)
    n = min(nmax, 6)
    perms = list(all_perms(n))
    for _ in range(50):
        I = random_left_interval(rng, perms)
        members = set(I.elements)
        for g in members:
            for i, h in covers_up(g, LEFT):
                if weak_leq(h, I.hi, LEFT) and h not in members:
                    return False, f"interval not closed at {g} -> {h}"
    return True, "interval element sets are closed under in-range covers"


# --- poset suite ---------------------------------------------------------


def check_interval_poset_roundtrip(nmax: int, seed: int) -> tuple[bool, str]:
    for n in range(1, min(nmax, 5) + 1):
        for I in all_left_intervals(n):
            P = interval_to_poset(I)
            if not is_regular(P):
                return False, f"P_I not regular for {I}"
            if tuple(linear_extensions_L(P)) != I.elements:
                return False, f"Sigma_L(P_I) != I for {I}"
            back = sigma_L_interval(P)
            if (back.lo, back.hi) != (I.lo, I.hi):
                return False, f"extremes disagree for {I}"
    return True, "interval -> regular poset -> interval round-trips"


def check_extremes_formula(nmax: int, seed: int) -> tuple[bool, str]:
    for n in range(1, min(nmax, 5) + 1):
        for I in all_left_intervals(n):
            P = interval_to_poset(I)
            exts = linear_extensions_L(P)
            lo, hi = extremes_of_regular(P)
            by_len = sorted(exts, key=length)
            if lo != by_len[0] or hi != by_len[-1]:
                return False, f"extremes not extreme for {I}"
            if any(
                not (weak_leq(lo, g, LEFT) and weak_leq(g, hi, LEFT)) for g in exts
            ):
                return False, f"extremes not bounds for {I}"
    return True, "counting formulas give the weak-order min and max"


def check_relabel_classification(nmax: int, seed: int) -> tuple[bool, str]:
    for n in range(2, min(nmax, 5) + 1):
        for I in all_left_intervals(n):
            P = interval_to_poset(I)
            kinds = [classify_pair(P, i) for i in range(1, n)]
            noncovering = [i for i, k in enumerate(kinds, 1) if k == COMPARABLE_NONCOVERING]
            if [i for i, _ in one_step_moves(I)] != noncovering:
                return False, f"one-step moves disagree with pair classification at {I}"
            for i, kind in enumerate(kinds, 1):
                Q = relabel(P, i)
                if relabel(Q, i) != P:
                    return False, "relabel is not an involution"
                if kind == COMPARABLE_NONCOVERING:
                    if not is_regular(Q):
                        return False, f"s_i P not regular at {I}, {i}"
                    moved = sigma_L_interval(Q)
                    if (moved.lo, moved.hi) != (
                        mult_s_right(I.lo, i),
                        mult_s_right(I.hi, i),
                    ):
                        return False, f"Sigma_L(s_i P) != I s_i at {I}, {i}"
                    if not decorated_iso_exists(P, Q):
                        return False, f"edge decoration changed at {I}, {i}"
                elif kind == COVERING:
                    if not is_regular(Q):
                        return False, f"covering relabel broke regularity at {I}, {i}"
                    if decorated_iso_exists(P, Q):
                        return False, f"covering relabel kept decorations at {I}, {i}"
                else:
                    if not decorated_iso_exists(P, Q):
                        return False, f"incomparable relabel changed poset at {I}, {i}"
    return True, "label swaps behave per pair classification"


def check_bar_involution(nmax: int, seed: int) -> tuple[bool, str]:
    n = min(nmax, 5)
    w0 = longest_element(n)
    for I in all_left_intervals(n):
        P = interval_to_poset(I)
        if bar(bar(P)) != P:
            return False, f"bar not involutive at {I}"
        flipped = sorted(compose(g, w0) for g in linear_extensions_L(P))
        if list(linear_extensions_L(bar(P))) != flipped:
            return False, f"Sigma_L(bar P) != Sigma_L(P) w0 at {I}"
    return True, "label complement matches right w0-translation"


# --- diagram suite -------------------------------------------------------


def check_reflections(nmax: int, seed: int) -> tuple[bool, str]:
    for D in random_diagrams(50, 8, seed):
        for op in ("transpose", "star", "x_axis"):
            if reflect(reflect(D, op), op) != D:
                return False, f"{op} not involutive on {D}"
        F = canonical_fill(D, "down")
        for op in ("transpose", "star", "x_axis", "bar"):
            if reflect(reflect(F, op), op) != F:
                return False, f"{op} not involutive on filling of {D}"
        if poset_of_filling(reflect(F, "transpose")) != poset_of_filling(F):
            return False, f"P_F != P_F^t on {D}"
        star_down = reflect(canonical_fill(D, "down"), "star")
        if star_down != canonical_fill(reflect(D, "star"), "right"):
            return False, f"(F_down)^* != F_right of D^* on {D}"
    return True, "reflections are involutive with the stated identities"


def check_two_kinds(nmax: int, seed: int) -> tuple[bool, str]:
    for D in random_diagrams(40, 7, seed):
        down = sigma_L_interval(poset_of_filling(canonical_fill(D, "down")))
        right = sigma_L_interval(poset_of_filling(canonical_fill(D, "right")))
        tprime, t = tableau_T(D, True), tableau_T(D, False)
        if (down.lo, down.hi) != (reading(tprime, "TBLR"), reading(t, "TBLR")):
            return False, f"down interval readings fail on {D}"
        if (right.lo, right.hi) != (reading(tprime, "LRTB"), reading(t, "LRTB")):
            return False, f"right interval readings fail on {D}"
        r_prof, c_prof = profiles(D)
        n = D.n
        if reading(t, "LRTB") != w1(set_of(r_prof), n):
            return False, f"LRTB(T_D) != w1(set(r(D))) on {D}"
        if reading(tprime, "TBLR") != longest_parabolic(
            frozenset(range(1, n)) - set_of(c_prof), n
        ):
            return False, f"TBLR(T'_D) != w0(set(c(D))^c) on {D}"
    return True, "canonical fillings give the stated descent intervals"


def _cell_decorations(F) -> dict[tuple, bool]:
    """Strictness of each cell-poset cover edge under the filling's labels."""
    cells = sorted(F.diagram.cells)

    def leq(c, d):
        return c[0] <= d[0] and c[1] <= d[1]

    out = {}
    for c in cells:
        for d in cells:
            if c != d and leq(c, d) and not any(
                e not in (c, d) and leq(c, e) and leq(e, d) for e in cells
            ):
                out[(c, d)] = F.value_at(*c) > F.value_at(*d)
    return out


def check_fill_ne(nmax: int, seed: int) -> tuple[bool, str]:
    for D in random_diagrams(40, 7, seed):
        down = canonical_fill(D, "down")
        ne = fill_ne(D)
        if _cell_decorations(down) != _cell_decorations(ne):
            return False, f"fill_ne changed the edge-decorated poset on {D}"
        if not decorated_iso_exists(poset_of_filling(down), poset_of_filling(ne)):
            return False, f"fill_ne posets not decoration-isomorphic on {D}"
        Q = poset_of_filling(ne)
        for i in range(1, D.n):
            if Q.leq(i, i + 1) and not Q.is_cover(i, i + 1):
                return False, f"non-covering i <= i+1 survives in F_ne on {D}"
        if is_free_upper_right(D) and ne != canonical_fill(D, "right"):
            return False, f"free diagram but F_ne != F_right on {D}"
    return True, "northeast filling keeps decorations and covers consecutive pairs"


def check_star_action_relations(nmax: int, seed: int) -> tuple[bool, str]:
    for D in random_diagrams(25, 8, seed):
        Dx = reflect(D, "x_axis")
        try:
            tabs = enumerate_ST(Dx, cap=300)
        except ResourceCapError:
            continue
        for T in tabs:
            for i in range(1, D.n):
                once = hecke_star(i, T)
                if once is not None and hecke_star(i, once) != once:
                    return False, f"star idempotence fails on {D}"
            for i in range(1, D.n - 1):
                lhs = _star_word(T, [i, i + 1, i])
                rhs = _star_word(T, [i + 1, i, i + 1])
                if lhs != rhs:
                    return False, f"star braid fails on {D}"
            for i in range(1, D.n - 1):
                for j in range(i + 2, D.n):
                    if _star_word(T, [i, j]) != _star_word(T, [j, i]):
                        return False, f"star commutation fails on {D}"
    return True, "star action satisfies the 0-Hecke relations"


def _star_word(T, word):
    cur = T
    for i in reversed(word):
        if cur is None:
            return None
        cur = hecke_star(i, cur)
    return cur


def check_descent_diagram_invariants(nmax: int, seed: int) -> tuple[bool, str]:
    for n in range(1, min(nmax, 5) + 1):
        for S, rho in lower_descent_intervals(n):
            D = build_D_S_rho(S, rho)
            got = sigma_L_interval(poset_of_filling(canonical_fill(D, "down")))
            if (got.lo, got.hi) != (longest_parabolic(S, n), rho):
                return False, f"F_down interval wrong for ({sorted(S)}, {rho})"
        for sigma, S in upper_descent_intervals(n):
            ud = build_D_sigma_S(sigma, S)
            got = sigma_L_interval(poset_of_filling(canonical_fill(ud.diagram, "right")))
            if (got.lo, got.hi) != (sigma, w1(S, n)):
                return False, f"F_right interval wrong for ({sigma}, {sorted(S)})"
    return True, "descent diagrams realize their intervals"


def check_ribbons_free(nmax: int, seed: int) -> tuple[bool, str]:
    for n in range(1, min(nmax, 8) + 1):
        for alpha in all_compositions(n):
            D = diagram_of(alpha, "ribbon")
            if not is_free_upper_right(D):
                return False, f"ribbon {alpha} not free"
            if _has_two_by_two(D):
                return False, f"ribbon {alpha} has a 2x2 block"
    return True, "ribbon diagrams are free and have no 2x2 blocks"


def _has_two_by_two(D: Diagram) -> bool:
    return any(
        {(x, y), (x + 1, y), (x, y + 1), (x + 1, y + 1)} <= D.cells
        for x, y in D.cells
    )


# --- class suite ---------------------------------------------------------


def class_by_moves(I: WeakInterval) -> EquivClass:
    """The class of a left interval as its closure under one-step moves,
    by BFS: the definition that ``equiv_class`` is checked against.

    Members are sorted by (lo, hi), the hasse edges are the moves between
    them, and min and max are the members of least and greatest lower
    length.  Nothing here assumes that xi is constant or that the lower
    endpoints form a right interval; ``check_class_oracle`` checks both.
    """
    seen = {(I.lo, I.hi): I}
    edges = set()
    frontier = [I]
    while frontier:
        nxt = []
        for J in frontier:
            src = (J.lo, J.hi)
            for i, K in one_step_moves(J):
                key = (K.lo, K.hi)
                edges.add((src, key, i) if src < key else (key, src, i))
                if key not in seen:
                    seen[key] = K
                    nxt.append(K)
        frontier = nxt
    keys = sorted(seen)
    index = {key: k for k, key in enumerate(keys)}
    hasse = tuple(sorted((index[a], index[b], i) for a, b, i in edges))
    lengths = [length(lo) for lo, _ in keys]
    return EquivClass(
        I.n,
        tuple(seen[key] for key in keys),
        compose(I.hi, inverse(I.lo)),
        hasse,
        lengths.index(min(lengths)),
        lengths.index(max(lengths)),
    )


def check_class_oracle(nmax: int, seed: int, samples: int = 500) -> tuple[bool, str]:
    for n in range(1, min(nmax, 5) + 1):
        for I in all_left_intervals(n):
            ref = class_by_moves(I)
            if any(compose(J.hi, inverse(J.lo)) != ref.xi for J in ref.members):
                return False, f"xi changes along a move in the class of {I}"
            bottom, top = ref.min.lo, ref.max.lo
            if not weak_leq(bottom, top, RIGHT) or [J.lo for J in ref.members] != list(
                weak_interval(bottom, top, RIGHT).elements
            ):
                return False, f"lower endpoints of the class of {I} are not a right interval"
            if equiv_class(I) != ref:
                return False, f"translation and move closure disagree at {I}"
    intervals = list(all_left_intervals(min(nmax, 4)))
    pairs = [(a, b) for a in intervals for b in intervals]
    if nmax >= 5:
        rng = random.Random(seed)
        five = list(all_left_intervals(5))
        pairs += [(rng.choice(five), rng.choice(five)) for _ in range(samples)]
    for a, b in pairs:
        iso = next(dp_isos(a, b), None)
        if dp_iso_exists(a, b) != (iso is not None):
            return False, f"oracle disagrees at {a}, {b}"
        if iso is not None and dp_iso_find(a, b) != iso:
            return False, f"translation is not the oracle's isomorphism at {a}, {b}"
    return True, "class membership coincides with descent-preserving isomorphism"


def class_census(n: int) -> tuple[int, int, str | None]:
    """Int(n) partitioned by ``class_key`` and, independently, by
    union-find over one-step moves: (classes, intervals, first failure).

    The two partitions must agree, and each key group must be the
    members of ``equiv_class``, listed from the same sigma_min, with that
    sigma_min and the walk's sigma_max as the group's least and greatest
    lower endpoints in the right order.  An interval [lo, hi] is named by
    the number index(lo) * n! + index(hi), which keeps Int(7) in memory.
    """
    perms = list(all_perms(n))
    index = {w: k for k, w in enumerate(perms)}
    right_mask = [inv_mask(inverse(w)) for w in perms]
    size = len(perms)
    parent: dict[int, int] = {}

    def root(x: int) -> int:
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    groups: dict[tuple[int, int], list[int]] = {}
    for I in all_left_intervals(n):
        x = index[I.lo] * size + index[I.hi]
        sigma_min, xi = class_key(I)
        groups.setdefault((index[sigma_min], index[xi]), []).append(x)
        for _, J in one_step_moves(I):
            parent[root(index[J.lo] * size + index[J.hi])] = root(x)
        root(x)
    intervals = sum(map(len, groups.values()))

    def failure(detail: str) -> tuple[int, int, str]:
        return len(groups), intervals, detail

    if len(parent) != intervals or len({root(x) for x in list(parent)}) != len(groups):
        return failure("the key and the move closure count different classes")
    for (sigma_min, _), group in groups.items():
        members = [(perms[x // size], perms[x % size]) for x in group]
        first = WeakInterval.unchecked(LEFT, *members[0])
        if len({root(x) for x in group}) != 1:
            return failure(f"the key group of {first} splits under moves")
        C = equiv_class(first)
        if [(J.lo, J.hi) for J in C.members] != members:
            return failure(f"the key group of {first} is not its class")
        bottom, top = (right_mask[index[J.lo]] for J in (C.min, C.max))
        masks = [right_mask[x // size] for x in group]
        if index[C.min.lo] != sigma_min or any(bottom & ~m or m & ~top for m in masks):
            return failure(f"the walk misses the extremes of the class of {first}")
    return len(groups), intervals, None


def check_class_census(nmax: int, seed: int) -> tuple[bool, str]:
    counts = []
    for n in range(1, min(nmax, 7) + 1):
        classes, intervals, failure = class_census(n)
        if failure:
            return False, f"n = {n}: {failure}"
        counts.append(f"{classes}/{intervals}")
    swept = f"n = 1..{len(counts)}: {', '.join(counts)}"
    return True, f"key and move closure agree, classes/intervals for {swept}"


def check_class_structure(nmax: int, seed: int) -> tuple[bool, str]:
    for n in range(1, min(nmax, 5) + 1):
        for S, rho in lower_descent_intervals(n):
            I = weak_interval(longest_parabolic(S, n), rho, LEFT)
            C = equiv_class(I)
            if (C.min.lo, C.min.hi) != (I.lo, I.hi):
                return False, f"min C is not the lower interval at {I}"
            lowers = [
                J
                for J in C.members
                if any(J.lo == longest_parabolic(T, n) for T in subsets(list(range(1, n))))
            ]
            if len(lowers) != 1:
                return False, f"lower descent interval not unique in C({I})"
            lo2, hi2 = lower_minmax(S, rho)
            if (lo2.lo, lo2.hi) != (C.min.lo, C.min.hi):
                return False, f"lower_minmax min mismatch at {I}"
            if (hi2.lo, hi2.hi) != (C.max.lo, C.max.hi):
                return False, f"lower_minmax max mismatch at {I}"
        for sigma, S in upper_descent_intervals(n):
            I = weak_interval(sigma, w1(S, n), LEFT)
            C = equiv_class(I)
            if (C.max.lo, C.max.hi) != (I.lo, I.hi):
                return False, f"max C is not the upper interval at {I}"
            lo2, hi2 = upper_minmax(sigma, S)
            if (lo2.lo, lo2.hi) != (C.min.lo, C.min.hi):
                return False, f"upper_minmax min mismatch at {I}"
            if (hi2.lo, hi2.hi) != (C.max.lo, C.max.hi):
                return False, f"upper_minmax max mismatch at {I}"
    return True, "lower/upper classes have the stated extremes"


def check_move_preserves_descents(nmax: int, seed: int) -> tuple[bool, str]:
    n = min(nmax, 5)
    rng = random.Random(seed)
    perms = list(all_perms(n))
    for _ in range(60):
        I = random_left_interval(rng, perms)
        for i, J in one_step_moves(I):
            for g in I.elements:
                if descents(g, LEFT) != descents(mult_s_right(g, i), LEFT):
                    return False, f"move s_{i} changed descents in {I}"
    return True, "one-step moves preserve left descent sets elementwise"


# --- family suite --------------------------------------------------------


def _valid_family_kinds(alpha) -> list[str]:
    kinds = ["P", "F", "V", "X", "Shat"]
    if is_peak(alpha):
        kinds.append("Q")
    return kinds


def check_family_vs_bfs(nmax: int, seed: int) -> tuple[bool, str]:
    for n in range(1, min(nmax, 5) + 1):
        for alpha in all_compositions(n):
            for kind in _valid_family_kinds(alpha):
                summary = tableaux.family_class(kind, alpha)
                C = equiv_class(summary.min_interval)
                if (C.min.lo, C.min.hi) != (
                    summary.min_interval.lo,
                    summary.min_interval.hi,
                ):
                    return False, f"{kind}({alpha}) min mismatch"
                if (C.max.lo, C.max.hi) != (
                    summary.max_interval.lo,
                    summary.max_interval.hi,
                ):
                    return False, f"{kind}({alpha}) max mismatch"
                if C.size != summary.size:
                    return False, f"{kind}({alpha}) size mismatch"
    return True, "closed-form classes agree with BFS"


def check_family_freeness(nmax: int, seed: int) -> tuple[bool, str]:
    for n in range(1, min(nmax, 7) + 1):
        for alpha in all_compositions(n):
            for kind in ("P", "V", "X", "Shat"):
                if not is_free_upper_right(family_diagram(kind, alpha)):
                    return False, f"{kind}({alpha}) diagram not free"
            if is_peak(alpha) and not is_free_upper_right(family_diagram("Q", alpha)):
                return False, f"Q({alpha}) diagram not free"
    return True, "family diagrams are free of the configuration"


def check_singleton_class(nmax: int, seed: int) -> tuple[bool, str]:
    for n in range(1, min(nmax, 5) + 1):
        for alpha in all_compositions(n):
            summary = tableaux.family_class("F", alpha)
            C = equiv_class(summary.min_interval)
            if any(J.lo != J.hi for J in C.members):
                return False, f"F({alpha}) class has non-singletons"
            srt = tableaux.enumerate_family("SRT", alpha)
            if len(srt) != C.size or C.size != summary.size:
                return False, f"F({alpha}) class size != |SRT|"
            lo = longest_parabolic(frozenset(range(1, n)) - set_of(alpha), n)
            hi = compose(longest_parabolic(set_of(alpha), n), longest_element(n))
            expected = set(weak_interval(lo, hi, RIGHT).elements)
            if {J.lo for J in C.members} != expected:
                return False, f"F({alpha}) members differ from descent class"
    return True, "singleton classes sweep their right descent class"


def check_twisted_translates(nmax: int, seed: int) -> tuple[bool, str]:
    for n in range(1, min(nmax, 5) + 1):
        w0 = longest_element(n)
        for alpha in all_compositions(n):
            for kind in ("V", "X", "Shat"):
                base = tableaux.family_class(kind, alpha)
                twisted = tableaux.family_class("R" + kind, alpha)
                base_members = equiv_class(base.min_interval).members
                expected = sorted(
                    (compose(J.hi, w0), compose(J.lo, w0)) for J in base_members
                )
                got = equiv_class(twisted.min_interval).members
                if [(J.lo, J.hi) for J in got] != expected:
                    return False, f"R{kind}({alpha}) is not the w0-translate"
    return True, "twisted classes are elementwise right w0-translates"


def check_tableau_bijection_sweep(nmax: int, seed: int) -> tuple[bool, str]:
    for n in range(1, min(nmax, 5) + 1):
        for S, rho in lower_descent_intervals(n):
            D = build_D_S_rho(S, rho)
            if not is_free_upper_right(D):
                continue
            C = equiv_class(weak_interval(longest_parabolic(S, n), rho, LEFT))
            if not class_tableau_bijection(C, D):
                return False, f"bijection fails for ({sorted(S)}, {rho})"
        for sigma, S in upper_descent_intervals(n):
            ud = build_D_sigma_S(sigma, S)
            if not is_free_upper_right(ud.diagram):
                continue
            C = equiv_class(weak_interval(sigma, w1(S, n), LEFT))
            if not class_tableau_bijection(C, ud.diagram):
                return False, f"bijection fails for ({sigma}, {sorted(S)})"
    return True, "free-diagram classes match their standard tableaux"


# --- module suite --------------------------------------------------------


def dense_relation_failure(M: hecke.HeckeModule) -> str | None:
    """The first 0-Hecke relation that M's generators break, in the words
    of ``hecke.check_relations``, or None: the same three relations by
    dense matrix products, the oracle of the library's sparse products."""
    mats = M.pis
    for i, A in enumerate(mats, start=1):
        if not np.array_equal(A @ A, A):
            return f"pi_{i} is not idempotent"
    for i in range(1, M.n - 1):
        A, B = mats[i - 1], mats[i]
        if not np.array_equal(A @ B @ A, B @ A @ B):
            return f"braid relation fails at {i}"
    for i in range(1, M.n - 1):
        for j in range(i + 2, M.n):
            A, B = mats[i - 1], mats[j - 1]
            if not np.array_equal(A @ B, B @ A):
                return f"far commutation fails at ({i}, {j})"
    return None


def check_module_relations(nmax: int, seed: int) -> tuple[bool, str]:
    # Relation checking runs inside every constructor; the dense oracle
    # checks every module with n <= 4 once more.
    small = []
    for n in range(1, min(nmax, 6) + 1):
        for alpha in all_compositions(n):
            s_comp = frozenset(range(1, n)) - set_of(alpha)
            sigma = longest_parabolic(s_comp, n)
            built = [
                hecke.module_B(descent_class(s_comp, s_comp, n)),
                hecke.module_B(weak_interval(sigma, sigma, LEFT)),
            ]
            if is_peak(alpha):
                built.append(hecke.module_SPIT(alpha))
            if n <= 4:
                small += built
    n = min(nmax, 4)
    for I in all_left_intervals(n):
        M = hecke.module_B(I)
        small += [
            M,
            hecke.module_Bbar(I),
            hecke.module_M(interval_to_poset(I)),
            hecke.twist_theta_chi(M),
        ]
    for M in small:
        failure = dense_relation_failure(M)
        if failure is not None:
            return False, f"{M!r}: {failure}"
    return True, "all constructed modules satisfy the 0-Hecke relations"


def check_one_dimensional_action(nmax: int, seed: int) -> tuple[bool, str]:
    n = min(nmax, 5)
    for sigma in all_perms(n):
        M = hecke.module_B(weak_interval(sigma, sigma, LEFT))
        des = descents(sigma, LEFT)
        for i in range(1, n):
            expected = 1 if i in des else 0
            if M.pis[i - 1][0, 0] != expected:
                return False, f"B([{sigma},{sigma}]) acts wrongly at {i}"
    return True, "singleton interval modules act by descent indicators"


def check_dimension_audits(nmax: int, seed: int) -> tuple[bool, str]:
    for n in range(1, min(nmax, 6) + 1):
        for alpha in all_compositions(n):
            s_comp = frozenset(range(1, n)) - set_of(alpha)
            w0c = longest_parabolic(s_comp, n)
            sit = tableaux.enumerate_family("SIT", alpha)
            sink_sit = tableaux.sink_source("SIT", alpha, "sink")
            if len(sit) != weak_interval(w0c, reading(sink_sit, "RLBT"), LEFT).size:
                return False, f"SIT({alpha}) dimension audit fails"
            srt = tableaux.enumerate_family("SRT", alpha)
            if len(srt) != descent_class(s_comp, s_comp, n).size:
                return False, f"SRT({alpha}) dimension audit fails"
            sett = tableaux.enumerate_family("SET", alpha)
            sink_set = tableaux.sink_source("SET", alpha, "sink")
            if len(sett) != weak_interval(w0c, reading(sink_set, "RLBT"), LEFT).size:
                return False, f"SET({alpha}) dimension audit fails"
            if is_peak(alpha):
                spit = tableaux.enumerate_family("SPIT", alpha)
                sink_spit = tableaux.sink_source("SPIT", alpha, "sink")
                if subset_reverse(set_of(alpha), n) != set_of(reverse(alpha)):
                    return False, f"set(alpha)^r != set(alpha^r) at {alpha}"
                hi = w1(set_of(reverse(alpha)), n)
                size = weak_interval(reading(sink_spit, "LRTB"), hi, LEFT).size
                if len(spit) != size:
                    return False, f"SPIT({alpha}) dimension audit fails"
                if hecke.module_SPIT(alpha).dim != size:
                    return False, f"SPIT({alpha}) module dimension mismatch"
    return True, "family cardinalities equal their interval dimensions"


def check_twist_consistency(nmax: int, seed: int) -> tuple[bool, str]:
    n = min(nmax, 4)
    w0 = longest_element(n)
    for I in all_left_intervals(n):
        M = hecke.module_B(I)
        T = hecke.twist_theta_chi(M)
        J = weak_interval(compose(I.hi, w0), compose(I.lo, w0), LEFT)
        MJ = hecke.module_B(J)
        index = {g: k for k, g in enumerate(MJ.basis)}
        pairing = [(k, index[compose(g, w0)]) for k, g in enumerate(T.basis)]
        if hecke.signed_intertwiner(T, MJ, pairing) is None:
            return False, f"twist of B({I}) does not match B({J})"
        TT = hecke.twist_theta_chi(T)
        identity_pairing = [(k, k) for k in range(M.dim)]
        if hecke.signed_intertwiner(TT, M, identity_pairing) is None:
            return False, f"double twist of B({I}) not the identity"
    return True, "theta-chi twists land on the reversed intervals"


def check_intertwiner_ladder(nmax: int, seed: int) -> tuple[bool, str]:
    n = min(nmax, 5)
    rng = random.Random(seed)
    perms = list(all_perms(n))
    for _ in range(20):
        I = random_left_interval(rng, perms)
        for i, J in one_step_moves(I):
            mapping = hecke.intertwiner_from_dp_iso(I, J)
            if mapping is None:
                return False, f"no intertwiner along move s_{i} from {I}"
            if mapping != {g: mult_s_right(g, i) for g in I.elements}:
                return False, f"intertwiner along s_{i} from {I} is not right translation"
    return True, "adjacent class members intertwine by right translation"


def family_closed_form(
    kind: str, alpha: tuple[int, ...]
) -> tuple[frozenset[int], frozenset[int] | None]:
    """The (A, B) of a family hull or cover [w_0(A), w_1(B)]_L by the
    paper's closed forms, for checking against ``hecke.hull_or_cover``.

    B is None for Q-cover, whose closed form fixes only A.  Shat has no
    closed form of its own, so RShat is read off the transposed Shat hull.
    """
    n, ell = sum(alpha), len(alpha)
    if kind in ("RV", "RX", "RShat"):
        base = kind[1:]
        if base == "Shat":
            hull_lower = hecke.hull_or_cover(base, alpha=alpha).lower_set
        else:
            hull_lower = family_closed_form(base, alpha)[0]
        r_set = set_of(profiles(family_diagram(base, alpha))[0])
        return subset_transpose(r_set, n), subset_transpose(hull_lower, n)
    if kind == "V":
        # Each part of size >= 2 contributes the descent run
        # beta_i - alpha_i + 2 .. beta_i - 1, with beta_i the i-th partial
        # sum minus i, and n - ell is a descent when any part exceeds 1.
        A: set[int] = set()
        for i, part in enumerate(alpha, start=1):
            if part >= 2:
                beta = sum(alpha[:i]) - i
                A.update(range(beta - part + 2, beta))
        if n > ell:
            A.add(n - ell)
        return frozenset(A), set_of(profiles(family_diagram("V", alpha))[0])
    if kind == "X":
        S = set_of(profiles(family_diagram("X", alpha))[0])
        return S, S
    if kind == "Q-hull":
        S = set_of(reverse(alpha))
        return S, S
    if kind == "Q-cover":
        return frozenset(range(2, 2 * ell - 1, 2)), None
    raise DomainError(f"no closed form for family kind {kind!r}")


def check_hull_cover_families(nmax: int, seed: int) -> tuple[bool, str]:
    for n in range(1, min(nmax, 7) + 1):
        for alpha in all_compositions(n):
            kinds = ["V", "X", "Shat", "RV", "RX", "RShat"]
            if is_peak(alpha):
                kinds += ["Q-hull", "Q-cover"]
            for kind in kinds:
                result = hecke.hull_or_cover(kind, alpha=alpha)
                if not result.lower_set <= result.upper_set:
                    return False, f"{kind}({alpha}) is not a descent class"
                if kind == "Shat":
                    continue
                A, B = family_closed_form(kind, alpha)
                if result.lower_set != A or (B is not None and result.upper_set != B):
                    return False, (
                        f"{kind}({alpha}): closed form {sorted(A)}, "
                        f"{sorted(B) if B is not None else '-'} differs from the general "
                        f"formula {sorted(result.lower_set)}, {sorted(result.upper_set)}"
                    )
    return True, "family hulls and covers match the general formulas"


def check_projective_decompositions(nmax: int, seed: int) -> tuple[bool, str]:
    for n in range(1, min(nmax, 6) + 1):
        full = frozenset(range(1, n))
        for T in subsets(list(range(1, n))):
            for S in subsets(sorted(T)):
                total = sum(
                    descent_class(full - set_of(a), full - set_of(a), n).size
                    for a in hecke.projective_decomposition(S, T, n)
                )
                expected = descent_class(S, T, n).size
                if total != expected:
                    return False, (
                        f"projective dimensions for S={sorted(S)}, T={sorted(T)} "
                        f"sum to {total}, descent class has {expected}"
                    )
    return True, "projective summand dimensions audit cleanly"


SUITES: dict[str, list[Check]] = {
    "perm": [
        ("descent symmetry", check_descent_symmetry),
        ("weak order oracle", check_weak_order_oracle),
        ("w0/w1 identities", check_w0_w1_identities),
        ("descent class oracle", check_descent_class_oracle),
        ("coset decomposition", check_coset_decomposition),
        ("interval closure", check_interval_closure),
    ],
    "poset": [
        ("interval/poset round trip", check_interval_poset_roundtrip),
        ("extremes formula", check_extremes_formula),
        ("relabel classification", check_relabel_classification),
        ("bar involution", check_bar_involution),
    ],
    "diagram": [
        ("reflections", check_reflections),
        ("canonical fill intervals", check_two_kinds),
        ("northeast filling", check_fill_ne),
        ("star action relations", check_star_action_relations),
        ("descent diagram intervals", check_descent_diagram_invariants),
        ("ribbons free", check_ribbons_free),
    ],
    "class": [
        ("iso oracle", check_class_oracle),
        ("class structure", check_class_structure),
        ("class census", check_class_census),
        ("moves preserve descents", check_move_preserves_descents),
    ],
    "family": [
        ("closed forms vs BFS", check_family_vs_bfs),
        ("diagram freeness", check_family_freeness),
        ("singleton classes", check_singleton_class),
        ("twisted translates", check_twisted_translates),
        ("tableau bijections", check_tableau_bijection_sweep),
    ],
    "module": [
        ("relation suite", check_module_relations),
        ("one-dimensional actions", check_one_dimensional_action),
        ("dimension audits", check_dimension_audits),
        ("twist consistency", check_twist_consistency),
        ("intertwiner ladder", check_intertwiner_ladder),
        ("hulls and covers", check_hull_cover_families),
        ("projective decompositions", check_projective_decompositions),
    ],
}


def run_suite(name: str, nmax: int, seed: int = 0) -> list[tuple[str, bool, str]]:
    """Run one suite (or 'all'); returns (check name, ok, detail) rows."""
    if nmax < 1:
        raise DomainError(f"nmax must be at least 1, got {nmax}")
    names = list(SUITES) if name == "all" else [name]
    rows = []
    for suite in names:
        if suite not in SUITES:
            raise KeyError(f"unknown suite {suite!r}")
        for check_name, fn in SUITES[suite]:
            ok, detail = fn(nmax, seed)
            rows.append((f"{suite}:{check_name}", ok, detail))
    return rows
