"""
The tableau families SRT, SIT, SET, SPIT on ribbon and composition
diagrams, their sink and source members, and closed-form class summaries
for the module families.

All enumerations return fillings in ascending LRTB reading order.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .compositions import (
    Composition,
    conjugate_partition,
    is_peak,
    reverse,
    set_of,
    sort_parts,
    validate_composition,
)
from .descent_diagrams import build_D_S_rho, family_diagram
from .diagrams import (
    Diagram,
    Filling,
    count_ST,
    diagram_of,
    enumerate_ST,
    fill_from_map,
    is_standard_tableau,
    profiles,
    reading,
    reflect,
    tableau_T,
)
from .errors import DomainError, InternalError, ShapeError
from .permutations import (
    LEFT,
    WeakInterval,
    compose,
    longest_element,
    longest_parabolic,
    w1,
    weak_interval,
)

__all__ = [
    "enumerate_family",
    "sink_source",
    "is_family_member",
    "family_class",
    "ClassSummary",
]


def _tcd(alpha: Composition) -> Diagram:
    return diagram_of(alpha, "composition")


def is_family_member(family: str, alpha: Composition, F: Filling) -> bool:
    """Membership test for one of the four tableau families."""
    alpha = validate_composition(alpha)
    if family == "SRT":
        return F.diagram == diagram_of(alpha, "ribbon") and is_standard_tableau(F)
    if F.diagram != _tcd(alpha):
        return False
    rows_increase = all(
        F.value_at(x, y) < F.value_at(x + 1, y)
        for x, y in F.diagram.cells
        if (x + 1, y) in F.diagram.cells
    )
    if not rows_increase:
        return False
    if family == "SET":
        for x in range(1, F.diagram.n_cols + 1):
            col = [F.value_at(cx, cy) for cx, cy in F.diagram.column(x)]
            if col != sorted(col):
                return False
        return True
    col1 = [F.value_at(1, y) for y in range(1, len(alpha) + 1)]
    if col1 != sorted(col1):
        return False
    if family == "SIT":
        return True
    if family == "SPIT":
        if not is_peak(alpha):
            return False
        counts = [0] * len(alpha)
        for v in range(1, F.n + 1):
            _, y = F.cell_of(v)
            counts[y - 1] += 1
            occupied = [c for c in counts if c > 0]
            if len(occupied) != max(
                (i + 1 for i, c in enumerate(counts) if c > 0), default=0
            ):
                return False  # a row gap
            if any(c < 2 for c in occupied[:-1]):
                return False
        return True
    raise DomainError(f"unknown family {family!r}")


def _enumerate_on_tcd(family: str, alpha: Composition) -> list[Filling]:
    """Generate SIT / SET / SPIT by placing 1..n with the family's
    prefix-legal cells."""
    ell = len(alpha)
    diagram = _tcd(alpha)
    counts = [0] * ell
    placement: dict[tuple[int, int], int] = {}
    out: list[Filling] = []

    def legal_rows(top: int) -> list[int]:
        rows = []
        for y in range(1, ell + 1):
            x = counts[y - 1] + 1
            if x > alpha[y - 1]:
                continue
            if x == 1:
                if y > 1 and counts[y - 2] == 0:
                    continue
                if family == "SPIT" and y > 1 and counts[y - 2] < 2:
                    continue
            if family == "SET" and any(
                counts[yy - 1] < x
                for yy in range(1, y)
                if alpha[yy - 1] >= x
            ):
                continue
            rows.append(y)
        return rows

    def place(v: int) -> None:
        if v > sum(alpha):
            out.append(fill_from_map(diagram, placement))
            return
        for y in legal_rows(v):
            x = counts[y - 1] + 1
            counts[y - 1] += 1
            placement[(x, y)] = v
            place(v + 1)
            del placement[(x, y)]
            counts[y - 1] -= 1

    place(1)
    return out


def enumerate_family(family: str, alpha: Iterable[int]) -> tuple[Filling, ...]:
    """All members of the family on shape alpha, by ascending LRTB reading.

    >>> len(enumerate_family("SPIT", (2, 2)))
    1
    """
    alpha = validate_composition(alpha)
    if not alpha:
        raise ShapeError("family enumeration needs a nonempty composition")
    if family == "SRT":
        members = list(enumerate_ST(diagram_of(alpha, "ribbon")))
    elif family in ("SIT", "SET", "SPIT"):
        if family == "SPIT" and not is_peak(alpha):
            raise ShapeError(f"{alpha} is not a peak composition")
        members = _enumerate_on_tcd(family, alpha)
    else:
        raise DomainError(f"unknown family {family!r}")
    members.sort(key=lambda F: reading(F, "LRTB"))
    return tuple(members)


def _sink_sit(alpha: Composition) -> Filling:
    ell = len(alpha)
    mapping = {(1, y): y for y in range(1, ell + 1)}
    v = ell + 1
    for y in range(ell, 0, -1):
        for x in range(2, alpha[y - 1] + 1):
            mapping[(x, y)] = v
            v += 1
    return fill_from_map(_tcd(alpha), mapping)


def _sink_spit(alpha: Composition) -> Filling:
    ell = len(alpha)
    mapping = {(1, y): 2 * y - 1 for y in range(1, ell + 1)}
    col2_rows = ell if alpha[-1] >= 2 else ell - 1
    for y in range(1, col2_rows + 1):
        mapping[(2, y)] = 2 * y
    v = ell + col2_rows + 1
    for y in range(ell, 0, -1):
        for x in range(3, alpha[y - 1] + 1):
            mapping[(x, y)] = v
            v += 1
    return fill_from_map(_tcd(alpha), mapping)


def sink_source(family: str, alpha: Iterable[int], which: str) -> Filling:
    """The distinguished sink or source tableau of a family.

    Sources fill rows left to right from the bottom row up (the ribbon
    for SRT, the composition diagram otherwise).  Sinks are the
    family-specific extremal constructions; membership is re-verified.
    """
    alpha = validate_composition(alpha)
    if which not in ("sink", "source"):
        raise DomainError(f"which must be 'sink' or 'source', got {which!r}")
    if family == "SRT":
        shape = diagram_of(alpha, "ribbon")
        result = tableau_T(shape, primed=(which == "sink"))
    elif family in ("SIT", "SET", "SPIT"):
        if family == "SPIT" and not is_peak(alpha):
            raise ShapeError(f"{alpha} is not a peak composition")
        if which == "source":
            result = tableau_T(_tcd(alpha), primed=False)
        elif family == "SIT":
            result = _sink_sit(alpha)
        elif family == "SET":
            result = tableau_T(_tcd(alpha), primed=True)
        else:
            result = _sink_spit(alpha)
    else:
        raise DomainError(f"unknown family {family!r}")
    if not is_family_member(family, alpha, result):
        raise InternalError(f"{which} of {family}({alpha}) fails membership")
    return result


class ClassSummary(NamedTuple):
    """Closed-form description of a module family's equivalence class."""

    family: str
    alpha: Composition
    min_interval: WeakInterval
    max_interval: WeakInterval
    size: int
    diagram: Diagram


FAMILY_MODULES = ("P", "F", "V", "X", "Shat", "Q", "RV", "RX", "RShat")


def family_class(kind: str, alpha: Iterable[int]) -> ClassSummary:
    """The class of a module family, from the closed-form descriptions.

    The twisted families RV, RX, RShat are the right-w_0 translates of
    V, X, Shat, carried by the transposed diagrams.
    """
    alpha = validate_composition(alpha)
    if not alpha:
        raise ShapeError("family classes need a nonempty composition")
    n = sum(alpha)
    ell = len(alpha)
    w0 = longest_element(n)

    if kind in ("RV", "RX", "RShat"):
        base = family_class(kind[1:], alpha)
        return ClassSummary(
            kind,
            alpha,
            min_interval=weak_interval(
                compose(base.max_interval.hi, w0), compose(base.max_interval.lo, w0), LEFT
            ),
            max_interval=weak_interval(
                compose(base.min_interval.hi, w0), compose(base.min_interval.lo, w0), LEFT
            ),
            size=base.size,
            diagram=reflect(base.diagram, "transpose"),
        )

    s_comp = frozenset(range(1, n)) - set_of(alpha)
    if kind == "P":
        interval = weak_interval(longest_parabolic(s_comp, n), w1(s_comp, n), LEFT)
        return ClassSummary(kind, alpha, interval, interval, 1, family_diagram("P", alpha))
    if kind == "F":
        lo = longest_parabolic(s_comp, n)
        hi = compose(longest_parabolic(set_of(alpha), n), w0)
        size = weak_interval(lo, hi, "R").size
        singleton_lo = weak_interval(lo, lo, LEFT)
        singleton_hi = weak_interval(hi, hi, LEFT)
        return ClassSummary(
            kind, alpha, singleton_lo, singleton_hi, size, build_D_S_rho(s_comp, lo)
        )
    if kind == "V":
        diagram = family_diagram("V", alpha)
        lo_min = longest_parabolic(s_comp, n)
        hi_min = reading(sink_source("SIT", alpha, "sink"), "RLBT")
        lo_max = reading(sink_source("SIT", alpha, "source"), "RLBTBT")
        hi_max = w1(frozenset(range(1, n - ell + 1)), n)
        min_interval = weak_interval(lo_min, hi_min, LEFT)
        max_interval = weak_interval(lo_max, hi_max, LEFT)
    elif kind == "X":
        diagram = family_diagram("X", alpha)
        lo_min = longest_parabolic(s_comp, n)
        hi_min = reading(sink_source("SET", alpha, "sink"), "RLBT")
        lo_max = reading(sink_source("SET", alpha, "source"), "BTRL")
        hi_max = w1(set_of(reverse(conjugate_partition(sort_parts(alpha)))), n)
        min_interval = weak_interval(lo_min, hi_min, LEFT)
        max_interval = weak_interval(lo_max, hi_max, LEFT)
    elif kind == "Shat":
        diagram = family_diagram("Shat", alpha)
        min_interval = weak_interval(
            longest_parabolic(s_comp, n),
            reading(tableau_T(diagram, primed=False), "TBLR"),
            LEFT,
        )
        r_profile, _ = profiles(diagram)
        max_interval = weak_interval(
            reading(tableau_T(diagram, primed=True), "LRTB"),
            w1(set_of(r_profile), n),
            LEFT,
        )
    elif kind == "Q":
        if not is_peak(alpha):
            raise ShapeError(f"{alpha} is not a peak composition")
        diagram = family_diagram("Q", alpha)
        min_interval = weak_interval(
            longest_parabolic(frozenset(2 * k for k in range(1, ell)), n),
            reading(sink_source("SPIT", alpha, "source"), "DR"),
            LEFT,
        )
        max_interval = weak_interval(
            reading(sink_source("SPIT", alpha, "sink"), "LRTB"),
            w1(set_of(reverse(alpha)), n),
            LEFT,
        )
    else:
        raise DomainError(f"unknown family module {kind!r}")
    size = count_ST(reflect(diagram, "x_axis"))
    return ClassSummary(kind, alpha, min_interval, max_interval, size, diagram)
