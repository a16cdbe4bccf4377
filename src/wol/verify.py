"""
Named verification sweeps: one table of checks, each comparing
structural identities with brute-force oracles at small n, and one
runner.

A row of the table (:class:`Check`) has a name, a pass text and one or
more parts.  A part is a *domain*, which gives the cases at each n (the
permutations of S_n, Int(n) with each interval's poset, compositions,
descent intervals, seeded samples, ...), an n bound, and a *predicate*,
which returns the failure text of one case or None.  ``@row`` makes the
predicate below it a row; each ``check_*`` name is that row, callable
alone as ``check(nmax, seed)``.

:func:`run_check` alone reads ``nmax``: it sweeps n up to the bound,
stops at the first failure, fails a check that met no case or raised,
and ends a pass detail with what it swept, e.g. ``(1,899 cases, n = 1..5)``.
:func:`run_suite` runs a suite, or all, and builds each domain once per n.
The CLI ``verify`` command and the acceptance tests call these.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from functools import cache
from itertools import chain, combinations
from typing import Callable, Iterable, Iterator, Mapping

import numpy as np

from . import hecke, hulls, tableaux
from .classes import (
    EquivClass,
    class_key,
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
from .errors import DomainError, InternalError, ResourceCapError
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

# A domain gives the cases at n for a seed; a predicate, the failure text of a case or None.
Domain = Callable[[int, int], Iterable]
Predicate = Callable[..., str | None]

# Pairs of Int(5) that the iso oracle draws; below n = 5 it takes every pair.
ISO_SAMPLES = 500


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


# --- domains: the argument tuples of the cases at n, for a seed -----------


def symmetric_group(n: int, seed: int) -> Iterator[tuple[Perm]]:
    return ((w,) for w in all_perms(n))


def compositions_of(n: int, seed: int) -> Iterator[tuple[tuple[int, ...]]]:
    return ((alpha,) for alpha in all_compositions(n))


def generator_subsets(n: int, seed: int) -> Iterator[tuple[frozenset[int], int]]:
    """(S, n) for every S <= {1..n-1}."""
    return ((S, n) for S in subsets(list(range(1, n))))


def subset_pairs(n: int, seed: int) -> Iterator[tuple[frozenset[int], frozenset[int], int]]:
    """(S, T, n) for every S <= T <= {1..n-1}, T outer."""
    return ((S, T, n) for T in subsets(list(range(1, n))) for S in subsets(sorted(T)))


def lower_intervals(n: int, seed: int) -> Iterator[tuple[frozenset[int], Perm]]:
    """The pairs (S, rho) with w_0(S) <=_L rho: lower descent intervals of S_n."""
    for S in subsets(list(range(1, n))):
        w0S = longest_parabolic(S, n)
        for rho in all_perms(n):
            if weak_leq(w0S, rho, LEFT):
                yield S, rho


def upper_intervals(n: int, seed: int) -> Iterator[tuple[Perm, frozenset[int]]]:
    """The pairs (sigma, S) with sigma <=_L w_1(S): upper descent intervals of S_n."""
    for S in subsets(list(range(1, n))):
        top = w1(S, n)
        for sigma in all_perms(n):
            if weak_leq(sigma, top, LEFT):
                yield sigma, S


def free_lower_intervals(n: int, seed: int) -> Iterator[tuple[frozenset[int], Perm, Diagram]]:
    """(S, rho, D_{S;rho}) for the lower descent intervals whose diagram is free."""
    for S, rho in lower_intervals(n, seed):
        D = build_D_S_rho(S, rho)
        if is_free_upper_right(D):
            yield S, rho, D


def free_upper_intervals(n: int, seed: int) -> Iterator[tuple[Perm, frozenset[int], Diagram]]:
    """(sigma, S, D_{sigma;S}) for the upper descent intervals whose diagram is free."""
    for sigma, S in upper_intervals(n, seed):
        D = build_D_sigma_S(sigma, S).diagram
        if is_free_upper_right(D):
            yield sigma, S, D


def generated_intervals(n: int, seed: int) -> Iterator[tuple[WeakInterval]]:
    """Every I in Int(n) for n >= 2, where B(I) has a generator."""
    return ((I,) for I in all_left_intervals(n)) if n >= 2 else iter(())


def intervals_with_posets(n: int, seed: int) -> Iterator[tuple[WeakInterval, Poset]]:
    """(I, P_I) for every I in Int(n)."""
    return ((I, interval_to_poset(I)) for I in all_left_intervals(n))


def interval_pairs(n: int, seed: int) -> list[tuple[WeakInterval, WeakInterval]]:
    """Every pair of Int(n) for n <= 4; above, ISO_SAMPLES pairs drawn
    from ``random.Random(seed)``."""
    intervals = list(all_left_intervals(n))
    if n <= 4:
        return [(a, b) for a in intervals for b in intervals]
    rng = random.Random(seed)
    return [(rng.choice(intervals), rng.choice(intervals)) for _ in range(ISO_SAMPLES)]


def whole_n(n: int, seed: int) -> tuple[tuple[int]]:
    """The one case n, for a check that takes all of Int(n) at once."""
    return ((n,),)


@cache
def random_intervals(count: int) -> Domain:
    """``count`` left intervals of S_n drawn by ``random_left_interval``
    from a fresh ``random.Random(seed)`` at each n, so that the cases at n
    do not depend on the n below.  Equal arguments give one domain."""

    def domain(n: int, seed: int) -> list[tuple[WeakInterval]]:
        rng = random.Random(seed)
        pool = list(all_perms(n))
        return [(random_left_interval(rng, pool),) for _ in range(count)]

    return domain


@cache
def sampled_diagrams(count: int, max_cells: int) -> Domain:
    """The diagrams with n cells in ``random_diagrams(count, max_cells, seed)``;
    equal arguments give one domain."""

    def domain(n: int, seed: int) -> list[tuple[Diagram]]:
        return [(D,) for D in random_diagrams(count, max_cells, seed) if D.n == n]

    return domain


# --- the table and the runner --------------------------------------------


@dataclass(frozen=True)
class Check:
    """One row of the table: parts (domain, bound, predicate), swept from
    n = nmin.  A ``sample`` row sweeps a seeded sample of fixed size, whose
    n does not grow with nmax, to its bound whatever nmax is."""

    name: str
    passed: str
    parts: tuple[tuple[Domain, int, Predicate], ...]
    nmin: int = 1
    sample: bool = False

    def __call__(self, nmax: int, seed: int) -> tuple[bool, str]:
        return run_check(self, nmax, seed)


SUITES: dict[str, list[Check]] = {}


def row(
    suite: str, name: str, domain: Domain, bound: int, passed: str, *more, nmin=1, sample=False
) -> Callable[[Predicate], Check]:
    """Decorator: the row ``name`` of ``SUITES[suite]``, whose first part is the
    predicate below on ``domain``; the ``more`` parts follow it at each n."""

    def register(predicate: Predicate) -> Check:
        check = Check(name, passed, ((domain, bound, predicate), *more), nmin, sample)
        SUITES.setdefault(suite, []).append(check)
        return check

    return register


def run_check(check: Check, nmax: int, seed: int, cases: dict | None = None) -> tuple[bool, str]:
    """(ok, detail) of one check.  ``cases`` holds the cases of each
    (domain, n); ``run_suite`` shares one among its checks.  An exception
    from a domain or a predicate fails the check with its type and
    message, so that the rows after it still run."""
    cases = {} if cases is None else cases
    top = max(bound for _, bound, _ in check.parts)
    if not check.sample:
        top = min(nmax, top)
    count = 0
    try:
        for n in range(check.nmin, top + 1):
            for domain, bound, predicate in check.parts:
                if n > bound:
                    continue
                if (domain, n) not in cases:
                    cases[domain, n] = list(domain(n, seed))
                for case in cases[domain, n]:
                    failure = predicate(*case)
                    if failure is not None:
                        return False, failure
                    count += 1
    except Exception as exc:
        return False, f"{type(exc).__name__}: {exc}"
    if not count:
        return False, f"no cases for n <= {nmax}"
    return True, f"{check.passed} ({count:,} cases, n = {check.nmin}..{top})"


def run_suite(name: str, nmax: int, seed: int = 0) -> list[tuple[str, bool, str]]:
    """Run one suite (or 'all'); returns (check name, ok, detail) rows."""
    if nmax < 1:
        raise DomainError(f"nmax must be at least 1, got {nmax}")
    names = list(SUITES) if name == "all" else [name]
    cases: dict = {}
    rows = []
    for suite in names:
        if suite not in SUITES:
            raise KeyError(f"unknown suite {suite!r}")
        for check in SUITES[suite]:
            ok, detail = run_check(check, nmax, seed, cases)
            rows.append((f"{suite}:{check.name}", ok, detail))
    return rows


@row("perm", "descent symmetry", symmetric_group, 6,
     "descent sets match inverse/right and length drops")
def check_descent_symmetry(w: Perm) -> str | None:
    if descents(w, LEFT) != descents(inverse(w), RIGHT):
        return f"Des_L mismatch at {w}"
    lw = length(w)
    for i in range(1, len(w)):
        swap = {i: i + 1, i + 1: i}
        left_drop = length(tuple(swap.get(x, x) for x in w)) < lw
        if (i in descents(w, LEFT)) != left_drop:
            return f"length-drop mismatch at {w}, {i}"


@row("perm", "weak order oracle", symmetric_group, 5,
     "inversion-set containment matches cover reachability")
def check_weak_order_oracle(u: Perm) -> str | None:
    for side in (LEFT, RIGHT):
        reach, frontier = {u}, {u}
        while frontier:
            frontier = {v for g in frontier for _, v in covers_up(g, side)} - reach
            reach |= frontier
        for v in all_perms(len(u)):
            if weak_leq(u, v, side) != (v in reach):
                return f"weak_leq oracle fails at {u}, {v}, {side}"


@row("perm", "w0/w1 identities", generator_subsets, 7,
     "parabolic longest elements and w1 identities hold")
def check_w0_w1_identities(S: frozenset[int], n: int) -> str | None:
    ws = longest_parabolic(S, n)
    if compose(ws, ws) != identity(n):
        return f"w0({sorted(S)}) not an involution"
    if descents(ws, LEFT) != S or descents(ws, RIGHT) != S:
        return f"descents of w0({sorted(S)}) wrong"
    comp = frozenset(range(1, n)) - S
    if w1(S, n) != compose(longest_element(n), longest_parabolic(comp, n)):
        return f"w1({sorted(S)}) identity fails"


@row("perm", "descent class oracle", subset_pairs, 5,
     "descent classes equal brute-force descent filters")
def check_descent_class_oracle(S: frozenset[int], T: frozenset[int], n: int) -> str | None:
    expected = sorted(w for w in all_perms(n) if S <= descents(w, RIGHT) <= T)
    if list(descent_class(S, T, n).elements) != expected:
        return f"descent class ({sorted(S)}, {sorted(T)}, {n})"


@row("perm", "coset decomposition", generator_subsets, 5,
     "coset decompositions are length-additive and well-placed", nmin=2)
def check_coset_decomposition(S: frozenset[int], n: int) -> str | None:
    for w in all_perms(n):
        z, u = coset_decompose(w, S)
        if compose(z, u) != w:
            return f"zu != w at {w}"
        if length(z) + length(u) != length(w):
            return f"length additivity fails at {w}, {sorted(S)}"
        # u is in the parabolic subgroup of S iff it fixes [1..i] setwise for each i not in S.
        if any(set(u[:i]) != set(range(1, i + 1)) for i in range(1, n) if i not in S):
            return f"u outside parabolic at {w}"
        if not descents(z, RIGHT) <= frozenset(range(1, n)) - S:
            return f"z has a right descent in S at {w}"


@row("perm", "interval closure", random_intervals(50), 6,
     "interval element sets are closed under in-range covers")
def check_interval_closure(I: WeakInterval) -> str | None:
    members = set(I.elements)
    for g in members:
        for i, h in covers_up(g, LEFT):
            if weak_leq(h, I.hi, LEFT) and h not in members:
                return f"interval not closed at {g} -> {h}"


@row("poset", "interval/poset round trip", intervals_with_posets, 5,
     "interval -> regular poset -> interval round-trips")
def check_interval_poset_roundtrip(I: WeakInterval, P: Poset) -> str | None:
    if not is_regular(P):
        return f"P_I not regular for {I}"
    if tuple(linear_extensions_L(P)) != I.elements:
        return f"Sigma_L(P_I) != I for {I}"
    back = sigma_L_interval(P)
    if (back.lo, back.hi) != (I.lo, I.hi):
        return f"extremes disagree for {I}"


@row("poset", "extremes formula", intervals_with_posets, 5,
     "counting formulas give the weak-order min and max")
def check_extremes_formula(I: WeakInterval, P: Poset) -> str | None:
    exts = linear_extensions_L(P)
    lo, hi = extremes_of_regular(P)
    by_len = sorted(exts, key=length)
    if lo != by_len[0] or hi != by_len[-1]:
        return f"extremes not extreme for {I}"
    if any(not (weak_leq(lo, g, LEFT) and weak_leq(g, hi, LEFT)) for g in exts):
        return f"extremes not bounds for {I}"


@row("poset", "relabel classification", intervals_with_posets, 5,
     "label swaps behave per pair classification", nmin=2)
def check_relabel_classification(I: WeakInterval, P: Poset) -> str | None:
    kinds = [classify_pair(P, i) for i in range(1, I.n)]
    noncovering = [i for i, k in enumerate(kinds, 1) if k == COMPARABLE_NONCOVERING]
    if [i for i, _ in one_step_moves(I)] != noncovering:
        return f"one-step moves disagree with pair classification at {I}"
    for i, kind in enumerate(kinds, 1):
        Q = relabel(P, i)
        if relabel(Q, i) != P:
            return "relabel is not an involution"
        if kind == COMPARABLE_NONCOVERING:
            if not is_regular(Q):
                return f"s_i P not regular at {I}, {i}"
            moved = sigma_L_interval(Q)
            if (moved.lo, moved.hi) != (mult_s_right(I.lo, i), mult_s_right(I.hi, i)):
                return f"Sigma_L(s_i P) != I s_i at {I}, {i}"
            if not decorated_iso_exists(P, Q):
                return f"edge decoration changed at {I}, {i}"
        elif kind == COVERING:
            if not is_regular(Q):
                return f"covering relabel broke regularity at {I}, {i}"
            if decorated_iso_exists(P, Q):
                return f"covering relabel kept decorations at {I}, {i}"
        elif not decorated_iso_exists(P, Q):
            return f"incomparable relabel changed poset at {I}, {i}"


@row("poset", "bar involution", intervals_with_posets, 5,
     "label complement matches right w0-translation")
def check_bar_involution(I: WeakInterval, P: Poset) -> str | None:
    if bar(bar(P)) != P:
        return f"bar not involutive at {I}"
    w0 = longest_element(I.n)
    flipped = sorted(compose(g, w0) for g in linear_extensions_L(P))
    if list(linear_extensions_L(bar(P))) != flipped:
        return f"Sigma_L(bar P) != Sigma_L(P) w0 at {I}"


@row("diagram", "reflections", sampled_diagrams(50, 8), 8,
     "reflections are involutive with the stated identities", nmin=2, sample=True)
def check_reflections(D: Diagram) -> str | None:
    for op in ("transpose", "star", "x_axis"):
        if reflect(reflect(D, op), op) != D:
            return f"{op} not involutive on {D}"
    F = canonical_fill(D, "down")
    for op in ("transpose", "star", "x_axis", "bar"):
        if reflect(reflect(F, op), op) != F:
            return f"{op} not involutive on filling of {D}"
    if poset_of_filling(reflect(F, "transpose")) != poset_of_filling(F):
        return f"P_F != P_F^t on {D}"
    star_down = reflect(canonical_fill(D, "down"), "star")
    if star_down != canonical_fill(reflect(D, "star"), "right"):
        return f"(F_down)^* != F_right of D^* on {D}"


@row("diagram", "canonical fill intervals", sampled_diagrams(40, 7), 7,
     "canonical fillings give the stated descent intervals", nmin=2, sample=True)
def check_two_kinds(D: Diagram) -> str | None:
    down = sigma_L_interval(poset_of_filling(canonical_fill(D, "down")))
    right = sigma_L_interval(poset_of_filling(canonical_fill(D, "right")))
    tprime, t = tableau_T(D, True), tableau_T(D, False)
    if (down.lo, down.hi) != (reading(tprime, "TBLR"), reading(t, "TBLR")):
        return f"down interval readings fail on {D}"
    if (right.lo, right.hi) != (reading(tprime, "LRTB"), reading(t, "LRTB")):
        return f"right interval readings fail on {D}"
    r_prof, c_prof = profiles(D)
    n = D.n
    if reading(t, "LRTB") != w1(set_of(r_prof), n):
        return f"LRTB(T_D) != w1(set(r(D))) on {D}"
    if reading(tprime, "TBLR") != longest_parabolic(frozenset(range(1, n)) - set_of(c_prof), n):
        return f"TBLR(T'_D) != w0(set(c(D))^c) on {D}"


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


@row("diagram", "northeast filling", sampled_diagrams(40, 7), 7,
     "northeast filling keeps decorations and covers consecutive pairs", nmin=2, sample=True)
def check_fill_ne(D: Diagram) -> str | None:
    down = canonical_fill(D, "down")
    ne = fill_ne(D)
    if _cell_decorations(down) != _cell_decorations(ne):
        return f"fill_ne changed the edge-decorated poset on {D}"
    if not decorated_iso_exists(poset_of_filling(down), poset_of_filling(ne)):
        return f"fill_ne posets not decoration-isomorphic on {D}"
    Q = poset_of_filling(ne)
    for i in range(1, D.n):
        if Q.leq(i, i + 1) and not Q.is_cover(i, i + 1):
            return f"non-covering i <= i+1 survives in F_ne on {D}"
    if is_free_upper_right(D) and ne != canonical_fill(D, "right"):
        return f"free diagram but F_ne != F_right on {D}"


def _star_word(T, word):
    cur = T
    for i in reversed(word):
        if cur is None:
            return None
        cur = hecke_star(i, cur)
    return cur


@row("diagram", "star action relations", sampled_diagrams(25, 8), 8,
     "star action satisfies the 0-Hecke relations", nmin=2, sample=True)
def check_star_action_relations(D: Diagram) -> str | None:
    try:
        tabs = enumerate_ST(reflect(D, "x_axis"), cap=300)
    except ResourceCapError:
        return None
    for T in tabs:
        for i in range(1, D.n):
            once = hecke_star(i, T)
            if once is not None and hecke_star(i, once) != once:
                return f"star idempotence fails on {D}"
        for i in range(1, D.n - 1):
            if _star_word(T, [i, i + 1, i]) != _star_word(T, [i + 1, i, i + 1]):
                return f"star braid fails on {D}"
        for i in range(1, D.n - 1):
            for j in range(i + 2, D.n):
                if _star_word(T, [i, j]) != _star_word(T, [j, i]):
                    return f"star commutation fails on {D}"


def _upper_diagram_interval(sigma: Perm, S: frozenset[int]) -> str | None:
    ud = build_D_sigma_S(sigma, S)
    got = sigma_L_interval(poset_of_filling(canonical_fill(ud.diagram, "right")))
    if (got.lo, got.hi) != (sigma, w1(S, len(sigma))):
        return f"F_right interval wrong for ({sigma}, {sorted(S)})"


@row("diagram", "descent diagram intervals", lower_intervals, 5,
     "descent diagrams realize their intervals", (upper_intervals, 5, _upper_diagram_interval))
def check_descent_diagram_invariants(S: frozenset[int], rho: Perm) -> str | None:
    D = build_D_S_rho(S, rho)
    got = sigma_L_interval(poset_of_filling(canonical_fill(D, "down")))
    if (got.lo, got.hi) != (longest_parabolic(S, len(rho)), rho):
        return f"F_down interval wrong for ({sorted(S)}, {rho})"


@row("diagram", "ribbons free", compositions_of, 8,
     "ribbon diagrams are free and have no 2x2 blocks")
def check_ribbons_free(alpha: tuple[int, ...]) -> str | None:
    D = diagram_of(alpha, "ribbon")
    if not is_free_upper_right(D):
        return f"ribbon {alpha} not free"
    if any({(x, y), (x + 1, y), (x, y + 1), (x + 1, y + 1)} <= D.cells for x, y in D.cells):
        return f"ribbon {alpha} has a 2x2 block"


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


def _dp_isos_agree(a: WeakInterval, b: WeakInterval) -> str | None:
    iso = next(dp_isos(a, b), None)
    if dp_iso_exists(a, b) != (iso is not None):
        return f"oracle disagrees at {a}, {b}"
    if iso is not None and dp_iso_find(a, b) != iso:
        return f"translation is not the oracle's isomorphism at {a}, {b}"


@row("class", "iso oracle", intervals_with_posets, 5,
     "class membership coincides with descent-preserving isomorphism",
     (interval_pairs, 5, _dp_isos_agree))
def check_class_oracle(I: WeakInterval, P: Poset) -> str | None:
    ref = class_by_moves(I)
    if any(compose(J.hi, inverse(J.lo)) != ref.xi for J in ref.members):
        return f"xi changes along a move in the class of {I}"
    bottom, top, los = ref.min.lo, ref.max.lo, [J.lo for J in ref.members]
    if not weak_leq(bottom, top, RIGHT) or los != list(weak_interval(bottom, top, RIGHT).elements):
        return f"lower endpoints of the class of {I} are not a right interval"
    if equiv_class(I) != ref:
        return f"translation and move closure disagree at {I}"


def _upper_class_extremes(sigma: Perm, S: frozenset[int]) -> str | None:
    I = weak_interval(sigma, w1(S, len(sigma)), LEFT)
    C = equiv_class(I)
    if (C.max.lo, C.max.hi) != (I.lo, I.hi):
        return f"max C is not the upper interval at {I}"
    lo2, hi2 = upper_minmax(sigma, S)
    if (lo2.lo, lo2.hi) != (C.min.lo, C.min.hi):
        return f"upper_minmax min mismatch at {I}"
    if (hi2.lo, hi2.hi) != (C.max.lo, C.max.hi):
        return f"upper_minmax max mismatch at {I}"


@row("class", "class structure", lower_intervals, 5,
     "lower/upper classes have the stated extremes", (upper_intervals, 5, _upper_class_extremes))
def check_class_structure(S: frozenset[int], rho: Perm) -> str | None:
    n = len(rho)
    I = weak_interval(longest_parabolic(S, n), rho, LEFT)
    C = equiv_class(I)
    if (C.min.lo, C.min.hi) != (I.lo, I.hi):
        return f"min C is not the lower interval at {I}"
    lower_ends = {longest_parabolic(T, n) for T in subsets(list(range(1, n)))}
    if sum(J.lo in lower_ends for J in C.members) != 1:
        return f"lower descent interval not unique in C({I})"
    lo2, hi2 = lower_minmax(S, rho)
    if (lo2.lo, lo2.hi) != (C.min.lo, C.min.hi):
        return f"lower_minmax min mismatch at {I}"
    if (hi2.lo, hi2.hi) != (C.max.lo, C.max.hi):
        return f"lower_minmax max mismatch at {I}"


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


@row("class", "class census", whole_n, 7, "key and move closure agree on the classes of Int(n)")
def check_class_census(n: int) -> str | None:
    failure = class_census(n)[2]
    if failure:
        return f"n = {n}: {failure}"


@row("class", "moves preserve descents", random_intervals(60), 5,
     "one-step moves preserve left descent sets elementwise")
def check_move_preserves_descents(I: WeakInterval) -> str | None:
    for i, J in one_step_moves(I):
        for g in I.elements:
            if descents(g, LEFT) != descents(mult_s_right(g, i), LEFT):
                return f"move s_{i} changed descents in {I}"


@row("family", "closed forms vs BFS", compositions_of, 5, "closed-form classes agree with BFS")
def check_family_vs_bfs(alpha: tuple[int, ...]) -> str | None:
    kinds = ["P", "F", "V", "X", "Shat"]
    if is_peak(alpha):
        kinds.append("Q")
    for kind in kinds:
        summary = tableaux.family_class(kind, alpha)
        C = equiv_class(summary.min_interval)
        if (C.min.lo, C.min.hi) != (summary.min_interval.lo, summary.min_interval.hi):
            return f"{kind}({alpha}) min mismatch"
        if (C.max.lo, C.max.hi) != (summary.max_interval.lo, summary.max_interval.hi):
            return f"{kind}({alpha}) max mismatch"
        if C.size != summary.size:
            return f"{kind}({alpha}) size mismatch"


@row("family", "diagram freeness", compositions_of, 7,
     "family diagrams are free of the configuration")
def check_family_freeness(alpha: tuple[int, ...]) -> str | None:
    for kind in ("P", "V", "X", "Shat"):
        if not is_free_upper_right(family_diagram(kind, alpha)):
            return f"{kind}({alpha}) diagram not free"
    if is_peak(alpha) and not is_free_upper_right(family_diagram("Q", alpha)):
        return f"Q({alpha}) diagram not free"


@row("family", "singleton classes", compositions_of, 5,
     "singleton classes sweep their right descent class")
def check_singleton_class(alpha: tuple[int, ...]) -> str | None:
    n = sum(alpha)
    summary = tableaux.family_class("F", alpha)
    C = equiv_class(summary.min_interval)
    if any(J.lo != J.hi for J in C.members):
        return f"F({alpha}) class has non-singletons"
    srt = tableaux.enumerate_family("SRT", alpha)
    if len(srt) != C.size or C.size != summary.size:
        return f"F({alpha}) class size != |SRT|"
    lo = longest_parabolic(frozenset(range(1, n)) - set_of(alpha), n)
    hi = compose(longest_parabolic(set_of(alpha), n), longest_element(n))
    if {J.lo for J in C.members} != set(weak_interval(lo, hi, RIGHT).elements):
        return f"F({alpha}) members differ from descent class"


@row("family", "twisted translates", compositions_of, 5,
     "twisted classes are elementwise right w0-translates")
def check_twisted_translates(alpha: tuple[int, ...]) -> str | None:
    w0 = longest_element(sum(alpha))
    for kind in ("V", "X", "Shat"):
        base = tableaux.family_class(kind, alpha)
        twisted = tableaux.family_class("R" + kind, alpha)
        base_members = equiv_class(base.min_interval).members
        expected = sorted((compose(J.hi, w0), compose(J.lo, w0)) for J in base_members)
        got = equiv_class(twisted.min_interval).members
        if [(J.lo, J.hi) for J in got] != expected:
            return f"R{kind}({alpha}) is not the w0-translate"


def class_tableau_bijection(C: EquivClass, D: Diagram) -> str | None:
    """Why T -> Sigma_L(P_{T^x}) is not an order isomorphism from
    (ST(D^x), <=) onto (C, <=), or None when it is.

    The pairwise order comparison tests inversion-set containment on
    masks computed once per tableau and member.
    """
    tabs = enumerate_ST(reflect(D, "x_axis"))
    if len(tabs) != C.size:
        return f"|ST(D^x)| = {len(tabs)} but |C| = {C.size}"
    members = {(J.lo, J.hi) for J in C.members}
    matched = {}  # (lo, hi) -> the image interval, in tableau order
    for T in tabs:
        J = sigma_L_interval(poset_of_filling(reflect(T, "x_axis")))
        key = (J.lo, J.hi)
        if key not in members:
            return f"tableau maps outside the class: {J}"
        if key in matched:
            return f"two tableaux map to {J}"
        matched[key] = J
    images = list(matched.values())
    # T <= U in ST(D^x) iff readingTBLR(T) <=_L readingTBLR(U); the class
    # order compares lower endpoints on the right.
    word_masks = [inv_mask(reading(T, "TBLR")) for T in tabs]
    lo_masks = [inv_mask(inverse(J.lo)) for J in images]
    for a in range(len(tabs)):
        for b in range(len(tabs)):
            st_le = word_masks[a] & ~word_masks[b] == 0
            cls_le = lo_masks[a] & ~lo_masks[b] == 0
            if st_le != cls_le:
                return f"order mismatch at {images[a]} vs {images[b]}"
    return None


def _upper_bijection(sigma: Perm, S: frozenset[int], D: Diagram) -> str | None:
    C = equiv_class(weak_interval(sigma, w1(S, len(sigma)), LEFT))
    failure = class_tableau_bijection(C, D)
    if failure is not None:
        return f"bijection fails for ({sigma}, {sorted(S)}): {failure}"


@row("family", "tableau bijections", free_lower_intervals, 5,
     "free-diagram classes match their standard tableaux",
     (free_upper_intervals, 5, _upper_bijection))
def check_tableau_bijection_sweep(S: frozenset[int], rho: Perm, D: Diagram) -> str | None:
    C = equiv_class(weak_interval(longest_parabolic(S, len(rho)), rho, LEFT))
    failure = class_tableau_bijection(C, D)
    if failure is not None:
        return f"bijection fails for ({sorted(S)}, {rho}): {failure}"


def dense_relation_failure(M: hecke.HeckeModule) -> str | None:
    """The first 0-Hecke relation that M's generators break, in the words
    of ``hecke.check_relations``, or None: the same three relations by
    dense matrix products, the oracle of the library's sparse products.
    The int8 generators are widened to int64 first, so no product wraps."""
    mats = [A.astype(np.int64) for A in M.pis]
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


def _dense_failure(modules: list[hecke.HeckeModule]) -> str | None:
    for M in modules:
        failure = dense_relation_failure(M)
        if failure is not None:
            return f"{M!r}: {failure}"


def _interval_module_relations(I: WeakInterval, P: Poset) -> str | None:
    M = hecke.module_B(I)
    return _dense_failure([M, hecke.module_Bbar(I), hecke.module_M(P), hecke.twist_theta_chi(M)])


def _corrupted_module_rejected(I: WeakInterval) -> str | None:
    # The negative control: B(I) with pi_1[0, 0] set to 2.  The generators
    # of B are nonnegative, so (pi_1^2)[0, 0] >= 4 and pi_1 is no longer
    # idempotent; both checkers must say so, in the same words.
    M = hecke.module_B(I)
    pi_1 = M.pis[0].copy()
    pi_1[0, 0] = 2
    bad = hecke.HeckeModule(M.n, M.basis, (pi_1, *M.pis[1:]))
    expected = "pi_1 is not idempotent"
    try:
        hecke.check_relations(bad)
    except InternalError as exc:
        if str(exc) != expected:
            return f"check_relations on B({I}) with pi_1[0, 0] = 2 says {exc}"
    else:
        return f"check_relations accepts B({I}) with pi_1[0, 0] = 2"
    failure = dense_relation_failure(bad)
    if failure != expected:
        return f"the dense oracle on B({I}) with pi_1[0, 0] = 2 says {failure}"


@row("module", "relation suite", compositions_of, 6,
     "all constructed modules satisfy the 0-Hecke relations",
     (intervals_with_posets, 4, _interval_module_relations),
     (generated_intervals, 4, _corrupted_module_rejected))
def check_module_relations(alpha: tuple[int, ...]) -> str | None:
    # Relation checking runs inside every constructor; the dense oracle
    # checks every module with n <= 4 once more.
    n = sum(alpha)
    s_comp = frozenset(range(1, n)) - set_of(alpha)
    sigma = longest_parabolic(s_comp, n)
    built = [
        hecke.module_B(descent_class(s_comp, s_comp, n)),
        hecke.module_B(weak_interval(sigma, sigma, LEFT)),
    ]
    if is_peak(alpha):
        built.append(hecke.module_SPIT(alpha))
    if n <= 4:
        return _dense_failure(built)


@row("module", "one-dimensional actions", symmetric_group, 5,
     "singleton interval modules act by descent indicators")
def check_one_dimensional_action(sigma: Perm) -> str | None:
    M = hecke.module_B(weak_interval(sigma, sigma, LEFT))
    des = descents(sigma, LEFT)
    for i in range(1, len(sigma)):
        if M.pis[i - 1][0, 0] != (1 if i in des else 0):
            return f"B([{sigma},{sigma}]) acts wrongly at {i}"


@row("module", "dimension audits", compositions_of, 6,
     "family cardinalities equal their interval dimensions")
def check_dimension_audits(alpha: tuple[int, ...]) -> str | None:
    n = sum(alpha)
    s_comp = frozenset(range(1, n)) - set_of(alpha)
    w0c = longest_parabolic(s_comp, n)
    sit = tableaux.enumerate_family("SIT", alpha)
    sink_sit = tableaux.sink_source("SIT", alpha, "sink")
    if len(sit) != weak_interval(w0c, reading(sink_sit, "RLBT"), LEFT).size:
        return f"SIT({alpha}) dimension audit fails"
    srt = tableaux.enumerate_family("SRT", alpha)
    if len(srt) != descent_class(s_comp, s_comp, n).size:
        return f"SRT({alpha}) dimension audit fails"
    sett = tableaux.enumerate_family("SET", alpha)
    sink_set = tableaux.sink_source("SET", alpha, "sink")
    if len(sett) != weak_interval(w0c, reading(sink_set, "RLBT"), LEFT).size:
        return f"SET({alpha}) dimension audit fails"
    if is_peak(alpha):
        spit = tableaux.enumerate_family("SPIT", alpha)
        sink_spit = tableaux.sink_source("SPIT", alpha, "sink")
        if subset_reverse(set_of(alpha), n) != set_of(reverse(alpha)):
            return f"set(alpha)^r != set(alpha^r) at {alpha}"
        hi = w1(set_of(reverse(alpha)), n)
        size = weak_interval(reading(sink_spit, "LRTB"), hi, LEFT).size
        if len(spit) != size:
            return f"SPIT({alpha}) dimension audit fails"
        if hecke.module_SPIT(alpha).dim != size:
            return f"SPIT({alpha}) module dimension mismatch"


@row("module", "twist consistency", intervals_with_posets, 4,
     "theta-chi twists land on the reversed intervals")
def check_twist_consistency(I: WeakInterval, P: Poset) -> str | None:
    w0 = longest_element(I.n)
    M = hecke.module_B(I)
    T = hecke.twist_theta_chi(M)
    J = weak_interval(compose(I.hi, w0), compose(I.lo, w0), LEFT)
    MJ = hecke.module_B(J)
    index = {g: k for k, g in enumerate(MJ.basis)}
    pairing = [(k, index[compose(g, w0)]) for k, g in enumerate(T.basis)]
    if hecke.signed_intertwiner(T, MJ, pairing) is None:
        return f"twist of B({I}) does not match B({J})"
    TT = hecke.twist_theta_chi(T)
    if hecke.signed_intertwiner(TT, M, [(k, k) for k in range(M.dim)]) is None:
        return f"double twist of B({I}) not the identity"


@row("module", "intertwiner ladder", random_intervals(20), 5,
     "adjacent class members intertwine by right translation")
def check_intertwiner_ladder(I: WeakInterval) -> str | None:
    for i, J in one_step_moves(I):
        mapping = hecke.intertwiner_from_dp_iso(I, J)
        if mapping is None:
            return f"no intertwiner along move s_{i} from {I}"
        if mapping != {g: mult_s_right(g, i) for g in I.elements}:
            return f"intertwiner along s_{i} from {I} is not right translation"


def family_closed_form(
    kind: str, alpha: tuple[int, ...]
) -> tuple[frozenset[int], frozenset[int] | None]:
    """The (A, B) of a family hull or cover [w_0(A), w_1(B)]_L by the
    paper's closed forms, for checking against ``hulls.hull_or_cover``.

    B is None for Q-cover, whose closed form fixes only A.  Shat has no
    closed form of its own, so RShat is read off the transposed Shat hull.
    """
    n, ell = sum(alpha), len(alpha)
    if kind in ("RV", "RX", "RShat"):
        base = kind[1:]
        if base == "Shat":
            hull_lower = hulls.hull_or_cover(base, alpha=alpha).lower_set
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


@row("module", "hulls and covers", compositions_of, 7,
     "family hulls and covers match the general formulas")
def check_hull_cover_families(alpha: tuple[int, ...]) -> str | None:
    kinds = ["V", "X", "Shat", "RV", "RX", "RShat"]
    if is_peak(alpha):
        kinds += ["Q-hull", "Q-cover"]
    for kind in kinds:
        result = hulls.hull_or_cover(kind, alpha=alpha)
        if not result.lower_set <= result.upper_set:
            return f"{kind}({alpha}) is not a descent class"
        if kind == "Shat":
            continue
        A, B = family_closed_form(kind, alpha)
        if result.lower_set != A or (B is not None and result.upper_set != B):
            return (
                f"{kind}({alpha}): closed form {sorted(A)}, "
                f"{sorted(B) if B is not None else '-'} differs from the general "
                f"formula {sorted(result.lower_set)}, {sorted(result.upper_set)}"
            )


@row("module", "projective decompositions", subset_pairs, 6,
     "projective summand dimensions audit cleanly")
def check_projective_decompositions(S: frozenset[int], T: frozenset[int], n: int) -> str | None:
    full = frozenset(range(1, n))
    summands = hulls.projective_decomposition(S, T, n)
    total = sum(descent_class(full - set_of(a), full - set_of(a), n).size for a in summands)
    expected = descent_class(S, T, n).size
    if total != expected:
        return (
            f"projective dimensions for S={sorted(S)}, T={sorted(T)} "
            f"sum to {total}, descent class has {expected}"
        )
