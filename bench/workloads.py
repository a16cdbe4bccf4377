"""The benchmark's workloads: seeded inputs, timed operations and
the correctness gate each answer must pass.

Every workload is a list of ``Op``.  ``Op.call`` is the timed call into
``wol``; it looks its target up on the module at call time, so that the
tracer's wrappers are used when they are installed, and it builds its
intervals afresh, so that no pass reuses a cached element list of an
earlier one.  ``Op.gate`` runs outside the timed region and returns the
reasons the answer is wrong (none when it is right).  Inputs come only
from ``random.Random(seed)`` and the sizes fixed here; ``wol`` gets the
generated inputs and nothing else.
"""

from __future__ import annotations

import io
import json
import math
import random
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from itertools import permutations as all_orders
from typing import Callable

from wol import cli, classes, compositions, descent_diagrams, diagrams, hecke
from wol import permutations, posets, tableaux

LEFT = permutations.LEFT


@dataclass
class Op:
    kind: str
    call: Callable[[], object]  # the answer, or a generator that returns it
    gate: Callable[[object], list[str]]
    sample: bool = True  # one latency sample of op_p50_ms / op_p95_ms


@dataclass
class Workload:
    name: str
    ops: list[Op]
    census: dict = field(default_factory=dict)
    reference: str = "python"  # the speed kernel its times are scaled by


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    """The seeded inputs of one workload; ``tiny`` shrinks every size."""
    workload = BUILDERS[name](seed, tiny)
    workload.census["ops"] = dict(Counter(op.kind for op in workload.ops))
    return workload


def warm_up(name: str) -> None:
    """One small operation of the workload's kind, run before timing."""
    if name == "cli-queries":
        _cli_call(["family", "--kind", "P", "--alpha", "(2,1)"])
    else:
        hecke.module_B(permutations.weak_interval((1, 2, 3), (3, 2, 1), LEFT))


# --- shared helpers -------------------------------------------------------


def _fmt(w) -> str:
    return "".join(map(str, w))


def _fmt_set(S) -> str:
    return "{" + ",".join(map(str, sorted(S))) + "}"


def _inv_mask(w) -> int:
    """Position-inversion bits; containment is the left weak order.

    Computed here rather than by ``wol`` so that interval sizes used by
    the gates do not come from the code under test.
    """
    mask, bit, n = 0, 0, len(w)
    for i in range(n):
        for j in range(i + 1, n):
            if w[i] > w[j]:
                mask |= 1 << bit
            bit += 1
    return mask


def _compose(u, v):
    return tuple(u[x - 1] for x in v)


def _inverse(u):
    inv = [0] * len(u)
    for i, x in enumerate(u):
        inv[x - 1] = i + 1
    return tuple(inv)


def _left_intervals_by_size(n: int) -> dict[int, list[tuple[tuple, tuple]]]:
    """Every left weak interval of S_n, grouped by its number of elements.

    [u, v]_L is isomorphic to [e, v u^-1]_L, so one table of lower-ideal
    sizes gives every interval's size.
    """
    perms = list(all_orders(range(1, n + 1)))
    masks = {w: _inv_mask(w) for w in perms}
    ideal = {x: sum(1 for w in perms if masks[w] & ~masks[x] == 0) for x in perms}
    out: dict[int, list] = {}
    for u in perms:
        mu, ui = masks[u], _inverse(u)
        for v in perms:
            if mu & ~masks[v] == 0:
                out.setdefault(ideal[_compose(v, ui)], []).append((u, v))
    return out


def _failure(cond: bool, reason: str) -> list[str]:
    return [] if cond else [reason]


# --- cli-queries ----------------------------------------------------------


def _cli_call(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.run(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def _cli_op(kind: str, argv: list[str], expect: Callable[[str], list[str]]) -> Op:
    def gate(answer) -> list[str]:
        code, text = answer
        if code != 0:
            return [f"{' '.join(argv)}: exit {code}"]
        try:
            return [f"{' '.join(argv)}: {r}" for r in expect(text)]
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return [f"{' '.join(argv)}: unreadable output ({exc})"]

    return Op(kind, lambda: _cli_call(argv), gate)


def _pair(interval) -> list[str]:
    return [_fmt(interval.lo), _fmt(interval.hi)]


def _cli_queries(seed: int, tiny: bool) -> Workload:
    """A seeded, stratified stream of in-process ``wol`` CLI calls."""
    rng = random.Random(seed)
    family_ns = (4, 5) if tiny else (7, 8)
    interval_n = 4 if tiny else 7
    per_kind = 1 if tiny else 6  # family queries per kind and per n
    class_strata = 4 if tiny else 120
    per_side = 2 if tiny else 20  # minmax and diagram queries per side
    free_per_side = 1 if tiny else 10  # hull (lower) and cover (upper) queries
    hasse_count = 2 if tiny else 20

    population = []  # every (kind, alpha) of the family sizes
    for n in family_ns:
        for alpha in compositions.all_compositions(n):
            for kind in tableaux.FAMILY_MODULES:
                if kind != "Q" or compositions.is_peak(alpha):
                    population.append((kind, alpha))
    summaries = {key: tableaux.family_class(*key) for key in population}

    ops: list[Op] = []
    for kind in tableaux.FAMILY_MODULES:
        for n in family_ns:
            keys = [k for k in population if k[0] == kind and sum(k[1]) == n]
            for key in rng.sample(keys, min(per_kind, len(keys))):
                ops.append(_family_op(key, summaries[key]))

    # Class queries: the population sorted by class size and cut into
    # strata of equal count; from each, a family like the stratum's
    # median one: same class size, same interval size.  BFS cost follows
    # both, and the top stratum alone spans 917 to 1,385 members, so a
    # free draw would let the seed move the tail latency; this way seeds
    # only exchange families of equal cost.
    ordered = sorted(population, key=lambda k: (summaries[k].size, k))
    class_sizes = []
    for s in range(class_strata):
        stratum = ordered[s * len(ordered) // class_strata:(s + 1) * len(ordered) // class_strata]
        median = summaries[stratum[len(stratum) // 2]]
        key = rng.choice([k for k in stratum if summaries[k].size == median.size
                          and summaries[k].min_interval.size == median.min_interval.size])
        class_sizes.append(median.size)
        ops.append(_class_op(summaries[key]))

    perms = list(all_orders(range(1, interval_n + 1)))
    masks = {w: _inv_mask(w) for w in perms}
    for side in ("lower", "upper"):
        for _ in range(per_side):
            S, w = _descent_interval(rng, side, interval_n, perms, masks)
            ops.append(_minmax_op(side, S, w, interval_n))
            S, w = _descent_interval(rng, side, interval_n, perms, masks)
            ops.append(_diagram_op(side, S, w, interval_n))
        for _ in range(free_per_side):
            while True:
                S, w = _descent_interval(rng, side, interval_n, perms, masks)
                if side == "lower":
                    D = descent_diagrams.build_D_S_rho(S, w)
                else:
                    D = descent_diagrams.build_D_sigma_S(w, S).diagram
                if diagrams.is_free_upper_right(D):
                    break
            ops.append(_hull_cover_op(side, S, w))
    for _ in range(hasse_count):
        ops.append(_hasse_op(_small_diagram(rng, 3 if tiny else 5)))
    rng.shuffle(ops)

    census = {
        "seed": seed,
        "family_n": list(family_ns),
        "interval_n": interval_n,
        "class_size_log2_histogram": {f"2^{b}": count for b, count in sorted(
            Counter(int(math.log2(size)) for size in class_sizes).items())},
        "class_members_total": sum(class_sizes),
    }
    return Workload("cli-queries", ops, census)


def _family_op(key, summary) -> Op:
    kind, alpha = key
    argv = ["family", "--kind", kind, "--alpha", "(" + ",".join(map(str, alpha)) + ")"]

    def expect(text: str) -> list[str]:
        data = json.loads(text)
        return (
            _failure(data["size"] == summary.size, "size differs from the closed form")
            + _failure(data["min"] == _pair(summary.min_interval), "min interval differs")
            + _failure(data["max"] == _pair(summary.max_interval), "max interval differs")
            + _failure(len(data["diagram"]["cells"]) == sum(alpha), "diagram size != n")
        )

    return _cli_op("family", argv, expect)


def _class_op(summary) -> Op:
    lo, hi = _pair(summary.min_interval)
    argv = ["class", "--lo", lo, "--hi", hi]

    def expect(text: str) -> list[str]:
        # The paper's characterization: the BFS class has the family's
        # closed-form size and its min/max intervals.
        data = json.loads(text)
        members = data["members"]
        return (
            _failure(len(members) == summary.size,
                     f"{len(members)} members, closed form says {summary.size}")
            + _failure(members[data["min"]] == _pair(summary.min_interval),
                       "class min is not the family min")
            + _failure(members[data["max"]] == _pair(summary.max_interval),
                       "class max is not the family max")
        )

    return _cli_op("class", argv, expect)


def _descent_interval(rng, side: str, n: int, perms, masks):
    """A random lower ([w0(S), rho]) or upper ([sigma, w1(S)]) descent
    interval of S_n, as (S, rho) or (S, sigma)."""
    S = frozenset(i for i in range(1, n) if rng.random() < 0.4)
    if side == "lower":
        bottom = masks[permutations.longest_parabolic(S, n)]
        return S, rng.choice([w for w in perms if bottom & ~masks[w] == 0])
    top = masks[permutations.w1(S, n)]
    return S, rng.choice([w for w in perms if masks[w] & ~top == 0])


def _side_args(side: str, S, w) -> list[str]:
    return ["--S", _fmt_set(S), "--rho" if side == "lower" else "--sigma", _fmt(w)]


def _minmax_op(side: str, S, w, n: int) -> Op:
    argv = ["minmax", *_side_args(side, S, w)]
    if side == "lower":
        queried, end = [_fmt(permutations.longest_parabolic(S, n)), _fmt(w)], "min"
    else:
        queried, end = [_fmt(w), _fmt(permutations.w1(S, n))], "max"

    def expect(text: str) -> list[str]:
        # A lower descent interval is the min of its class, an upper one the max.
        data = json.loads(text)
        return _failure(data[end] == queried, f"{end} is not the queried interval")

    return _cli_op("minmax", argv, expect)


def _diagram_op(side: str, S, w, n: int) -> Op:
    def expect(text: str) -> list[str]:
        data = json.loads(text)
        return _failure(data["n"] == n and len(data["cells"]) == n, "diagram does not have n cells")

    return _cli_op("diagram", ["diagram", *_side_args(side, S, w)], expect)


def _hull_cover_op(side: str, S, w) -> Op:
    command = "hull" if side == "lower" else "cover"
    want = "injective_hull" if side == "lower" else "projective_cover"

    def expect(text: str) -> list[str]:
        data = json.loads(text)
        return (
            _failure(data["kind"] == want, f"kind {data['kind']}")
            + _failure(set(data["lower_set"]) <= set(data["upper_set"]),
                       "interval is not a descent class")
        )

    return _cli_op(command, [command, *_side_args(side, S, w)], expect)


def _small_diagram(rng, max_cells: int) -> list[list[int]]:
    """Cells of a random valid diagram with 2..max_cells cells."""
    while True:
        k = rng.randint(2, max_cells)
        grid = [(x, y) for x in range(1, 4) for y in range(1, 4)]
        cells = rng.sample(grid, k)
        xs, ys = {x for x, _ in cells}, {y for _, y in cells}
        if xs == set(range(1, max(xs) + 1)) and ys == set(range(1, max(ys) + 1)):
            return sorted([x, y] for x, y in cells)


def _hasse_op(cells: list[list[int]]) -> Op:
    expected = diagrams.count_ST(diagrams.Diagram(frozenset(map(tuple, cells))))

    def expect(text: str) -> list[str]:
        nodes = sum(1 for line in text.splitlines() if "[label=" in line)
        return (
            _failure(text.startswith("digraph"), "not a DOT digraph")
            + _failure(nodes == expected, f"{nodes} nodes, ST(D) has {expected}")
        )

    return _cli_op("hasse", ["hasse", "--cells", json.dumps(cells)], expect)


# --- module-build ---------------------------------------------------------


# One interval per dimension of S_6, drawn per exact dimension so that
# the dense dim x dim work is the same on every seed.  Dim 360 (a 7 s
# chain) and the full dim-720 interval are left out: an op that long
# spans the machine's speed phases and cannot be scaled steadily.
MODULE_DIMS = (60, 72, 90, 120, 144, 180, 240)
INTERTWINER_DIMS = (24, 40, 48, 60)  # under the size-60 oracle cap
TINY_MODULE_DIMS = (4, 6, 8, 12)
TINY_INTERTWINER_DIMS = (2, 4)


def _module_build(seed: int, tiny: bool) -> Workload:
    rng = random.Random(seed)
    n = 4 if tiny else 6
    by_size = _left_intervals_by_size(n)
    w0 = tuple(range(n, 0, -1))
    dims = TINY_MODULE_DIMS if tiny else MODULE_DIMS
    iso_dims = TINY_INTERTWINER_DIMS if tiny else INTERTWINER_DIMS
    ops: list[Op] = []
    for dim in dims:
        lo, hi = rng.choice(by_size[dim])
        ops.append(Op("chain", _chain_call(lo, hi, w0), _chain_gate(lo, hi, dim)))
    for dim in iso_dims:
        for lo, hi in rng.sample(by_size[dim], len(by_size[dim])):
            moves = classes.one_step_moves(permutations.weak_interval(lo, hi, LEFT))
            if moves:
                break
        else:
            raise ValueError(f"no interval of size {dim} has a one-step move")
        i, J = rng.choice(moves)
        ops.append(Op("intertwiner", _intertwiner_call(lo, hi, J.lo, J.hi),
                      _intertwiner_gate(lo, hi, i, dim), sample=False))
    census = {
        "seed": seed,
        "n": n,
        "chain_dim_histogram": {str(d): 1 for d in dims},
        "intertwiner_dims": list(iso_dims),
        "dim_sum": sum(dims),
    }
    return Workload("module-build", ops, census, reference="numpy")


def _chain_call(lo, hi, w0):
    """B(I), Bbar(I), M(P_I), the theta-chi twist of B(I), and its signed
    intertwiner with B of the w0-reversed interval (as
    ``check_twist_consistency`` does).  A generator: it yields between
    steps, where the runner may time its speed kernel."""
    def steps():
        P = permutations
        I = P.weak_interval(lo, hi, LEFT)
        B = hecke.module_B(I)
        yield
        Bbar = hecke.module_Bbar(I)
        yield
        M = hecke.module_M(posets.interval_to_poset(I))
        yield
        T = hecke.twist_theta_chi(B)
        yield
        J = P.weak_interval(P.compose(I.hi, w0), P.compose(I.lo, w0), LEFT)
        MJ = hecke.module_B(J)
        yield
        index = {g: k for k, g in enumerate(MJ.basis)}
        pairing = [(k, index[P.compose(g, w0)]) for k, g in enumerate(T.basis)]
        eps = hecke.signed_intertwiner(T, MJ, pairing)
        return B.dim, Bbar.dim, M.dim, T.dim, MJ.dim, eps is not None
    return steps


def _chain_gate(lo, hi, dim: int):
    where = f"[{_fmt(lo)}, {_fmt(hi)}]_L"

    def gate(answer) -> list[str]:
        *dims, found = answer
        return (
            _failure(all(d == dim for d in dims),
                     f"{where}: module dims {dims}, interval size {dim}")
            + _failure(found, f"{where}: twist does not intertwine with the reversed B")
        )
    return gate


def _intertwiner_call(lo, hi, jlo, jhi):
    def call():
        P = permutations
        I = P.weak_interval(lo, hi, LEFT)
        J = P.weak_interval(jlo, jhi, LEFT)
        return hecke.intertwiner_from_dp_iso(I, J)
    return call


def _intertwiner_gate(lo, hi, i: int, dim: int):
    where = f"[{_fmt(lo)}, {_fmt(hi)}]_L along s_{i}"

    def gate(mapping) -> list[str]:
        if mapping is None:
            return [f"{where}: no intertwiner found"]
        return _failure(len(mapping) == dim and len(set(mapping.values())) == dim,
                        f"{where}: intertwiner is not a bijection of {dim} elements")
    return gate


BUILDERS = {
    "cli-queries": _cli_queries,
    "module-build": _module_build,
}
NAMES = tuple(BUILDERS)
