"""
The injective-hull and projective-cover interval formulas, and projective
decompositions of descent classes.

These are diagram combinatorics: the hull of a free lower descent
interval's module and the cover of a free upper one are descent classes
read off the diagram's canonical fillings and profiles, and no module is
built.  So the shell commands ``hull`` and ``cover`` run without numpy;
the modules themselves live in ``hecke``.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .compositions import Composition, all_compositions, set_of, validate_composition
from .descent_diagrams import build_D_S_rho, build_D_sigma_S, family_diagram
from .diagrams import Diagram, canonical_fill, free_violation, profiles, reading, reflect
from .errors import DomainError, InternalError, OrderError
from .permutations import LEFT, WeakInterval, descents, longest_parabolic, w1, weak_interval

__all__ = [
    "HullCoverResult",
    "hull_interval",
    "cover_interval",
    "hull_or_cover",
    "projective_decomposition",
]


class HullCoverResult(NamedTuple):
    """An injective hull or projective cover, as a descent-class interval."""

    kind: str  # "injective_hull" | "projective_cover"
    interval: WeakInterval
    lower_set: frozenset[int]
    upper_set: frozenset[int]

    @property
    def is_projective_indecomposable(self) -> bool:
        return self.lower_set == self.upper_set


def _require_free(D: Diagram) -> None:
    violation = free_violation(D)
    if violation is not None:
        raise OrderError(
            f"diagram is not free of a strictly upper-right configuration: {violation}"
        )


def _descent_class_result(
    kind: str, A: frozenset[int], B: frozenset[int], n: int
) -> HullCoverResult:
    """The hull or cover [w_0(A), w_1(B)]_L, a descent class when A <= B."""
    if not A <= B:
        raise InternalError(f"{kind} interval is not a descent class")
    return HullCoverResult(
        kind,
        weak_interval(longest_parabolic(A, n), w1(B, n), LEFT),
        frozenset(A),
        frozenset(B),
    )


def hull_interval(D: Diagram) -> HullCoverResult:
    """Injective hull of the module of a free diagram's lower interval:
    [w_0(Des_L(readingBTLR(F^right))), w_1(set(r(D)))]_L."""
    _require_free(D)
    A = descents(reading(canonical_fill(D, "right"), "BTLR"), LEFT)
    B = set_of(profiles(D)[0])
    return _descent_class_result("injective_hull", A, B, D.n)


def cover_interval(D: Diagram) -> HullCoverResult:
    """Projective cover of the module of a free diagram's upper interval:
    [w_0(set(c(D))^c), w_1(Des_L(readingLRBT(F^down)))]_L."""
    _require_free(D)
    A = frozenset(range(1, D.n)) - set_of(profiles(D)[1])
    B = descents(reading(canonical_fill(D, "down"), "LRBT"), LEFT)
    return _descent_class_result("projective_cover", A, B, D.n)


# family kind -> (general formula, family diagram, whether it is transposed);
# the twisted families RV, RX, RShat live on the transposed base diagrams.
_FAMILY_FORMULAS = {
    "V": (hull_interval, "V", False),
    "X": (hull_interval, "X", False),
    "Shat": (hull_interval, "Shat", False),
    "Q-hull": (hull_interval, "Q", False),
    "Q-cover": (cover_interval, "Q", False),
    "RV": (cover_interval, "V", True),
    "RX": (cover_interval, "X", True),
    "RShat": (cover_interval, "Shat", True),
}


def hull_or_cover(kind: str, **params) -> HullCoverResult:
    """Hulls and covers by the paper's general formula.

    kind "lower" takes S and rho; "upper" takes sigma and S.  The family
    kinds take alpha and run the general formula on the family's diagram;
    the families' closed forms are checked against it in ``verify``.
    A missing parameter is a DomainError naming the kind and the parameter.
    """
    descent_params = {"lower": ("S", "rho"), "upper": ("sigma", "S")}
    if kind not in descent_params and kind not in _FAMILY_FORMULAS:
        raise DomainError(f"unknown hull/cover kind {kind!r}")
    missing = [name for name in descent_params.get(kind, ("alpha",)) if name not in params]
    if missing:
        raise DomainError(f"hull/cover kind {kind!r} needs parameter {missing[0]!r}")
    if kind == "lower":
        S, rho = frozenset(params["S"]), params["rho"]
        return hull_interval(build_D_S_rho(S, rho))
    if kind == "upper":
        sigma, S = params["sigma"], frozenset(params["S"])
        return cover_interval(build_D_sigma_S(sigma, S).diagram)
    alpha = validate_composition(params["alpha"])
    formula, family, transposed = _FAMILY_FORMULAS[kind]
    D = family_diagram(family, alpha)
    return formula(reflect(D, "transpose") if transposed else D)


def projective_decomposition(
    S: Iterable[int], T: Iterable[int], n: int
) -> list[Composition]:
    """Compositions alpha of n with S <= set(alpha)^c <= T: the projective
    indecomposable summands of B over the descent class [w_0(S), w_1(T)]_L."""
    S, T = frozenset(S), frozenset(T)
    if not S <= T:
        raise OrderError(f"S must be contained in T: {sorted(S)} vs {sorted(T)}")
    full = frozenset(range(1, n))
    return [alpha for alpha in all_compositions(n) if S <= full - set_of(alpha) <= T]
