"""0-Hecke modules: constructions, relations, twists, hulls, and covers."""

import re

import numpy as np
import pytest

from wol import hecke, hulls
from wol.compositions import all_compositions, comp_of, is_peak, set_of

from wol.diagrams import reading
from wol.errors import DomainError, InternalError, OrderError
from wol.hecke import (
    HeckeModule,
    check_relations,
    intertwiner_from_dp_iso,
    module_B,
    module_Bbar,
    module_M,
    module_SPIT,
    signed_intertwiner,
    twist_theta_chi,
)
from wol.hulls import hull_or_cover, projective_decomposition
from wol.permutations import (
    LEFT,
    all_perms,
    compose,
    descent_class,
    descents,
    longest_element,
    longest_parabolic,
    parse_perm,
    w1,
    weak_interval,
)
from wol.posets import interval_to_poset
from wol.tableaux import enumerate_family, sink_source
from wol import verify
from wol.verify import (
    all_left_intervals,
    check_hull_cover_families,
    check_module_relations,
    dense_relation_failure,
    family_closed_form,
)


def test_singleton_module_is_descent_indicator():
    sigma = parse_perm("231564")
    M = module_B(weak_interval(sigma, sigma, LEFT))
    des = descents(sigma, LEFT)
    for i in range(1, 6):
        assert M.pis[i - 1][0, 0] == (1 if i in des else 0)


def test_projective_module_dimension():
    # B over the full descent class of alpha has the projective dimension;
    # the dimensions over all alpha sum to n!.
    for n in range(1, 6):
        total = 0
        for alpha in all_compositions(n):
            s_comp = frozenset(range(1, n)) - set_of(alpha)
            M = module_B(descent_class(s_comp, s_comp, n))
            total += M.dim
        assert total == len(list(all_perms(n)))


def test_module_m_equals_module_b_on_intervals():
    I = weak_interval(parse_perm("132465"), parse_perm("231564"), LEFT)
    MB = module_B(I)
    MM = module_M(interval_to_poset(I))
    assert MB.basis == MM.basis
    assert all(np.array_equal(a, b) for a, b in zip(MB.pis, MM.pis))


def test_bbar_is_signed_version():
    I = weak_interval(parse_perm("1324"), parse_perm("3421"), LEFT)
    M, Mbar = module_B(I), module_Bbar(I)
    for i in range(1, 4):
        bar = Mbar.pis[i - 1] - np.eye(Mbar.dim, dtype=np.int64)
        for col, g in enumerate(Mbar.basis):
            if i in descents(g, LEFT):
                assert bar[col, col] == -1
            else:
                assert bar[col, col] == 0
    check_relations(Mbar)


def test_module_spit_golden():
    M = module_SPIT((3, 2, 3, 1))
    lo = reading(sink_source("SPIT", (3, 2, 3, 1), "sink"), "LRTB")
    from wol.compositions import reverse

    I = weak_interval(lo, w1(set_of(reverse((3, 2, 3, 1))), 9), LEFT)
    assert M.dim == I.size == len(enumerate_family("SPIT", (3, 2, 3, 1)))
    with pytest.raises(Exception):
        module_SPIT((1, 2))


@pytest.mark.parametrize("alpha", [(2,), (2, 2), (3, 1), (2, 2, 1), (3, 2)])
def test_module_spit_matches_bbar(alpha):
    # reading words carry the tableau basis onto the negative interval module
    M = module_SPIT(alpha)
    n = sum(alpha)
    lo = reading(sink_source("SPIT", alpha, "sink"), "LRTB")
    from wol.compositions import reverse

    I = weak_interval(lo, w1(set_of(reverse(alpha)), n), LEFT)
    B = module_Bbar(I)
    index = {g: k for k, g in enumerate(B.basis)}
    pairing = [(k, index[reading(T, "LRTB")]) for k, T in enumerate(M.basis)]
    signs = signed_intertwiner(M, B, pairing)
    assert signs is not None
    assert set(signs.values()) == {1}


def test_twist_of_one_dimensional():
    # F_alpha modules twist to F_{alpha^c}
    n = 5
    for alpha in all_compositions(n):
        sigma = longest_parabolic(frozenset(range(1, n)) - set_of(alpha), n)
        M = module_B(weak_interval(sigma, sigma, LEFT))
        T = twist_theta_chi(M)
        for i in range(1, n):
            assert T.pis[i - 1][0, 0] == 1 - M.pis[i - 1][0, 0]


def test_twist_matches_reversed_interval():
    n = 4
    w0 = longest_element(n)
    for I in all_left_intervals(n):
        T = twist_theta_chi(module_B(I))
        J = weak_interval(compose(I.hi, w0), compose(I.lo, w0), LEFT)
        MJ = module_B(J)
        index = {g: k for k, g in enumerate(MJ.basis)}
        pairing = [(k, index[compose(g, w0)]) for k, g in enumerate(T.basis)]
        assert signed_intertwiner(T, MJ, pairing) is not None


def test_double_twist_identity():
    n = 4
    for I in all_left_intervals(n):
        M = module_B(I)
        TT = twist_theta_chi(twist_theta_chi(M))
        assert signed_intertwiner(TT, M, [(k, k) for k in range(M.dim)]) is not None


def test_intertwiner_from_dp_iso():
    I = weak_interval(parse_perm("132465"), parse_perm("231564"), LEFT)
    same = intertwiner_from_dp_iso(I, I)
    assert same == {g: g for g in I.elements}
    # adjacent member of the class: the s_3 translate
    from wol.classes import one_step_moves

    (i, K), = one_step_moves(I)
    mapping = intertwiner_from_dp_iso(I, K)
    assert mapping is not None
    # equal-size but inequivalent pair
    A = weak_interval((1, 2, 3), (2, 1, 3), LEFT)
    B = weak_interval((1, 2, 3), (1, 3, 2), LEFT)
    assert intertwiner_from_dp_iso(A, B) is None


def test_hull_interval_golden():
    result = hull_or_cover("lower", S={2}, rho=parse_perm("142563"))
    assert result.kind == "injective_hull"
    # max C = [345126, 456123]; r(D) = (3,3) and the right descents of the
    # max's lower end give {3}, so the hull is projective indecomposable
    assert result.upper_set == {3} == set_of((3, 3))
    assert result.lower_set == descents(parse_perm("345126"), "R")
    assert result.interval.lo == longest_parabolic({3}, 6)
    assert result.interval.hi == w1({3}, 6)
    assert result.is_projective_indecomposable
    with pytest.raises(OrderError):
        hull_or_cover("lower", S={2, 5}, rho=parse_perm("231564"))


def test_cover_interval_golden():
    result = hull_or_cover("upper", sigma=parse_perm("345126"), S={3})
    assert result.kind == "projective_cover"
    assert result.interval.lo == longest_parabolic({2}, 6)
    assert result.interval.hi == w1({2, 5}, 6)
    assert not result.is_projective_indecomposable


def test_family_hull_goldens():
    x = hull_or_cover("X", alpha=(3, 2, 4))
    assert x.lower_set == x.upper_set == {1, 3, 6}
    assert x.is_projective_indecomposable
    v = hull_or_cover("V", alpha=(3, 2, 4))
    assert v.lower_set == {1, 4, 5, 6}
    assert v.upper_set == set(range(1, 7))
    q = hull_or_cover("Q-hull", alpha=(3, 2, 3, 1))
    assert q.lower_set == q.upper_set == {1, 4, 6}
    assert q.is_projective_indecomposable
    qc = hull_or_cover("Q-cover", alpha=(3, 2, 3, 1))
    assert qc.lower_set == {2, 4, 6}
    with pytest.raises(DomainError):
        hull_or_cover("bogus", alpha=(2,))
    with pytest.raises(DomainError, match="unknown hull/cover kind 'bogus'"):
        hull_or_cover("bogus")


@pytest.mark.parametrize(
    "kind, params, missing",
    [
        ("lower", {"S": {1}}, "rho"),
        ("upper", {"S": {1}}, "sigma"),
        ("V", {}, "alpha"),
    ],
    ids=["lower", "upper", "family"],
)
def test_hull_or_cover_missing_parameter(kind, params, missing):
    with pytest.raises(DomainError, match=f"'{kind}'.*'{missing}'"):
        hull_or_cover(kind, **params)


@pytest.mark.parametrize("n", range(1, 8))
def test_hull_cover_shortcuts_agree(n):
    # the general formula gives the (A, B) of the paper's closed forms
    for alpha in all_compositions(n):
        kinds = ["V", "X", "RV", "RX", "RShat"]
        if is_peak(alpha):
            kinds += ["Q-hull", "Q-cover"]
        for kind in kinds:
            result = hull_or_cover(kind, alpha=alpha)
            A, B = family_closed_form(kind, alpha)
            assert result.lower_set == A, (kind, alpha)
            if B is not None:
                assert result.upper_set == B, (kind, alpha)
            assert result.interval == descent_class(A, result.upper_set, n)
        shat = hull_or_cover("Shat", alpha=alpha)
        assert shat.lower_set <= shat.upper_set


def test_hull_cover_family_check_detects_a_wrong_interval(monkeypatch):
    assert check_hull_cover_families(5, 0)[0]
    general = hulls.hull_or_cover

    def wrong_for_x(kind, **params):
        # the V interval in place of the X one
        return general("V" if kind == "X" else kind, **params)

    monkeypatch.setattr(hulls, "hull_or_cover", wrong_for_x)
    ok, detail = check_hull_cover_families(5, 0)
    assert not ok
    assert detail.startswith("X(")


def test_projective_decomposition_examples():
    assert projective_decomposition({1, 3}, {1, 3}, 4) == [comp_of({2}, 4)]
    assert len(projective_decomposition(set(), set(range(1, 5)), 5)) == 16
    got = projective_decomposition({1}, {1, 3}, 4)
    assert sorted(got) == [(2, 1, 1), (2, 2)]
    with pytest.raises(OrderError):
        projective_decomposition({2}, {1}, 4)


def test_modules_are_equal_only_to_themselves():
    pis = (np.array([[1]], dtype=np.int8),)
    a, b = HeckeModule(2, ("a",), pis), HeckeModule(2, ("a",), pis)
    assert a == a and a != b and hash(a) == object.__hash__(a)
    assert len({a, b}) == 2
    with pytest.raises(AttributeError):
        a.n = 3
    with pytest.raises(AttributeError):
        del a.basis


def test_relation_checker_detects_breakage():
    bad = HeckeModule(
        3,
        ("a", "b"),
        (np.array([[1, 1], [0, 1]], dtype=np.int8), np.array([[0, 0], [0, 0]], dtype=np.int8)),
    )
    with pytest.raises(InternalError, match="pi_1 is not idempotent"):
        check_relations(bad)


def builder_modules() -> dict[str, HeckeModule]:
    I = weak_interval(parse_perm("1324"), parse_perm("3421"), LEFT)
    M = module_B(I)
    return {
        "B": M,
        "Bbar": module_Bbar(I),
        "M": module_M(interval_to_poset(I)),
        "SPIT": module_SPIT((3, 2, 2)),
        "twist": twist_theta_chi(M),
        "twisted Bbar": twist_theta_chi(module_Bbar(I)),
    }


@pytest.mark.parametrize("name", list(builder_modules()))
def test_builders_store_int8_generators(name):
    M = builder_modules()[name]
    assert M.dim > 1
    assert all(A.dtype == np.int8 for A in M.pis)
    assert all(set(np.unique(A)) <= {-1, 0, 1} for A in M.pis)


def test_relation_checker_refuses_a_wider_dtype():
    M = module_B(weak_interval((1, 2, 3), (3, 2, 1), LEFT))
    wide = HeckeModule(M.n, M.basis, tuple(A.astype(np.int64) for A in M.pis))
    with pytest.raises(InternalError, match="pi_1 has dtype int64, not int8"):
        check_relations(wide)


def test_sparse_product_is_exact_on_int8_factors():
    # 100 * 2 and 100 + 100 + 100 both leave int8; the product must not wrap.
    A = np.full((3, 3), 100, dtype=np.int8)
    B = np.array([[2, 1, 0], [0, 1, -1], [0, 1, 0]], dtype=np.int8)
    got = hecke._product(A, hecke._columns(B))
    assert got.dtype == np.int64
    assert np.array_equal(got, A.astype(np.int64) @ B.astype(np.int64))
    assert got[0, 0] == 200 and got[0, 1] == 300
    assert not np.array_equal(got, A @ B)  # the int8 product wraps


def test_a_construction_that_leaves_int8_raises():
    def act(i, b):
        return [(1, "a")] * 128

    with pytest.raises(InternalError, match=r"pi_1 has an entry outside the int8 range -128\.\.127"):
        hecke._module_from_action(2, ("a",), act)
    edge = HeckeModule(2, ("a",), (np.array([[-128]], dtype=np.int8),))
    with pytest.raises(InternalError, match="the twist of pi_1 has an entry outside the int8 range"):
        twist_theta_chi(edge)


def test_relation_suite_fails_when_either_checker_is_dead(monkeypatch):
    assert check_module_relations(4, 0)[0]
    with monkeypatch.context() as m:
        m.setattr(hecke, "check_relations", lambda M: None)
        ok, detail = check_module_relations(4, 0)
        assert not ok
        assert detail == "check_relations accepts B([12, 12]_L) with pi_1[0, 0] = 2"
    monkeypatch.setattr(verify, "dense_relation_failure", lambda M: None)
    ok, detail = check_module_relations(4, 0)
    assert not ok
    assert detail == "the dense oracle on B([12, 12]_L) with pi_1[0, 0] = 2 says None"


def sparse_case(name: str, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """A random int64 pair (A, B) whose B has the property ``name``."""
    dim = 1 if name == "dim 1" else 9
    A = rng.integers(-9, 10, size=(dim, dim))
    B = rng.integers(-4, 5, size=(dim, dim)) * (rng.random((dim, dim)) < 0.3)
    if name == "negative entries":
        B = -np.abs(B) + np.eye(dim, dtype=np.int64)
    elif name == "empty columns":
        B[:, ::2] = 0
    elif name == "all-zero B":
        B[:] = 0
    elif name == "dense columns":
        B[:, 1] = rng.integers(1, 5, size=dim)
        B[:4, 3] = [-1, 2, -3, 4]
    return A, B


@pytest.mark.parametrize(
    "name", ["negative entries", "empty columns", "all-zero B", "dense columns", "dim 1"]
)
def test_sparse_product_equals_dense(name):
    rng = np.random.default_rng(2024)
    for _ in range(20):
        A, B = sparse_case(name, rng)
        layers = hecke._columns(B)
        if name == "all-zero B":
            assert layers == []
        if name == "dense columns":
            assert len(layers) >= 4
        got = hecke._product(A, layers)
        assert got.dtype == np.int64
        assert np.array_equal(got, A @ B)


def four_strand_module(pi_1, pi_2, pi_3) -> HeckeModule:
    pis = tuple(np.array(A, dtype=np.int8) for A in (pi_1, pi_2, pi_3))
    return HeckeModule(4, ("a", "b"), pis)


# Idempotents of the plane with AB = A and BA = B: braids with the
# identity, but neither braids nor commutes with each other.
FLAT_A = [[1, 1], [0, 0]]
FLAT_B = [[0, 0], [1, 1]]
IDENTITY = [[1, 0], [0, 1]]


@pytest.mark.parametrize(
    "pis, relation",
    [
        ((FLAT_A, [[2, 0], [0, 1]], IDENTITY), "pi_2 is not idempotent"),
        ((FLAT_A, FLAT_B, IDENTITY), "braid relation fails at 1"),
        ((FLAT_A, IDENTITY, FLAT_B), r"far commutation fails at \(1, 3\)"),
    ],
    ids=["idempotence", "braid", "far commutation"],
)
def test_relation_checker_names_the_broken_relation(pis, relation):
    M = four_strand_module(*pis)
    with pytest.raises(InternalError, match=relation):
        check_relations(M)
    assert re.fullmatch(relation, dense_relation_failure(M))


@pytest.mark.parametrize(
    "pi_1", [[[1, 0, 0], [0, 1, 0]], [[0, 0, 0], [0, 0, 0]], [[1]]], ids=["2x3", "zero 2x3", "1x1"]
)
def test_relation_checker_rejects_a_generator_of_the_wrong_shape(pi_1):
    M = HeckeModule(2, ("a", "b"), (np.array(pi_1, dtype=np.int8),))
    with pytest.raises(InternalError, match="pi_1 is not a 2 x 2 matrix"):
        check_relations(M)


def test_relation_checker_counts_the_generators():
    M = HeckeModule(3, ("a",), (np.array([[1]], dtype=np.int8),))
    with pytest.raises(InternalError, match="expected 2 generators for n = 3, got 1"):
        check_relations(M)


def test_signed_intertwiner_rejects_a_pairing_that_is_not_a_bijection():
    M = module_B(weak_interval((1, 2, 3), (3, 2, 1), LEFT))
    assert M.dim == 6
    many_to_one = list(enumerate((1, 1, 3, 3, 5, 5)))
    with pytest.raises(DomainError, match="sends two basis indices to 1"):
        signed_intertwiner(M, M, many_to_one)
    with pytest.raises(DomainError, match="misses basis index 5"):
        signed_intertwiner(M, M, [(k, k) for k in range(5)])
    with pytest.raises(DomainError, match="sends basis index 0 twice"):
        signed_intertwiner(M, M, [(0, 0), (0, 1)] + [(k, k) for k in range(2, 6)])
    with pytest.raises(DomainError, match=r"pairing \(5, 6\) leaves the basis indices 0..5"):
        signed_intertwiner(M, M, [(k, k + 1) for k in range(6)])
    assert signed_intertwiner(M, M, [(k, k) for k in range(6)]) == {k: 1 for k in range(6)}


def test_signed_intertwiner_rejects_a_non_intertwining_pairing():
    # One-dimensional modules with different descent sets: no edge
    # constrains the sign, so the product check decides.
    one_dim = [module_B(weak_interval(g, g, LEFT)) for g in ((1, 2, 4, 3), (2, 1, 3, 4))]
    assert signed_intertwiner(one_dim[0], one_dim[1], [(0, 0)]) is None
    assert signed_intertwiner(one_dim[0], one_dim[0], [(0, 0)]) == {0: 1}
    I = weak_interval((1, 2, 3, 4), (2, 3, 1, 4), LEFT)
    M = module_B(I)
    swapped = [(k, M.dim - 1 - k) for k in range(M.dim)]
    assert signed_intertwiner(M, M, swapped) is None


def test_full_s6_module_twists_onto_the_reversed_interval():
    # [e, w0]_L is its own reverse, so the twist of B matches B along g -> g w0
    w0 = longest_element(6)
    I = weak_interval(tuple(range(1, 7)), w0, LEFT)
    M = module_B(I)
    assert M.dim == 720
    T = twist_theta_chi(M)
    index = {g: k for k, g in enumerate(M.basis)}
    pairing = [(k, index[compose(g, w0)]) for k, g in enumerate(T.basis)]
    eps = signed_intertwiner(T, M, pairing)
    assert eps is not None and len(eps) == 720
