"""Weak Bruhat intervals, descent-preserving classes, and 0-Hecke modules."""

from .permutations import (
    LEFT,
    RIGHT,
    Perm,
    WeakInterval,
    compose,
    coset_decompose,
    descent_class,
    descents,
    identity,
    inverse,
    length,
    longest_element,
    longest_parabolic,
    parse_perm,
    format_perm,
    w1,
    weak_interval,
    weak_leq,
)
from .compositions import comp_of, is_peak, set_of
from .posets import (
    Poset,
    classify_pair,
    extremes_of_regular,
    interval_to_poset,
    is_regular,
    linear_extensions_L,
    relabel,
    sigma_L_interval,
)
from .diagrams import (
    Diagram,
    Filling,
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
    st_leq,
    tableau_T,
)
from .descent_diagrams import (
    build_D_S_rho,
    build_D_sigma_S,
    family_diagram,
    fill_sw,
    lower_minmax,
    upper_minmax,
)
from .classes import EquivClass, dp_iso_exists, equiv_class, one_step_moves
from .tableaux import enumerate_family, family_class, sink_source
from .hulls import hull_or_cover, projective_decomposition

# The 0-Hecke modules are in wol.hecke, which needs numpy; it is not
# imported here, so that the shell commands run without numpy.

__version__ = "0.1.0"
