import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gquot as gq
from gquot import groups
from gquot.catalog import GROUP_SPECS
from gquot.errors import SizeBoundError, ValidationError
from gquot.groups import format_group_table, parse_group_table


def brute_force_subgroups(G):
    """Independent oracle: subsets containing the identity, of size dividing
    the order, closed under product and inverse."""
    found = []
    rest = [g for g in G.elements() if g != 0]
    for size in range(1, G.n + 1):
        if G.n % size:
            continue
        for extra in itertools.combinations(rest, size - 1):
            elems = (0,) + extra
            eset = set(elems)
            if all(G.mul(a, b) in eset for a in elems for b in elems) and all(
                G.inv(a) in eset for a in elems
            ):
                found.append(elems)
    return sorted(found)


def test_cyclic_one_is_trivial():
    G = gq.cyclic(1)
    assert G.n == 1 and G.mul(0, 0) == 0


def test_klein_group():
    G = gq.direct_product(gq.cyclic(2), gq.cyclic(2))
    assert G.n == 4
    assert sorted(G.order_census().items()) == [(1, 1), (2, 3)]


def test_quaternion_has_unique_involution():
    Q8 = gq.quaternion8()
    orders = [Q8.order_of(g) for g in Q8.elements()]
    assert orders.count(2) == 1
    assert sorted(Q8.order_census().items()) == [(1, 1), (2, 1), (4, 6)]


def test_dihedral_and_symmetric_structure():
    D4 = gq.dihedral(4)
    assert D4.n == 8 and not D4.is_abelian
    S3 = gq.symmetric(3)
    assert S3.n == 6
    assert gq.are_isomorphic(S3, gq.dihedral(3)).isomorphic
    with pytest.raises(SizeBoundError):
        gq.symmetric(5)


def test_bad_table_rejected_with_triple():
    table = [[0, 1, 2], [1, 2, 0], [2, 1, 0]]  # not associative / not a group
    with pytest.raises(ValidationError):
        gq.from_table(table)
    with pytest.raises(ValidationError, match="identity"):
        gq.from_table([[1, 0], [0, 1]])


def test_associativity_error_names_triple():
    tab = np.array([[0, 1], [1, 1]])  # 1*1=1 breaks invertibility/associativity
    with pytest.raises(ValidationError):
        gq.from_table(tab)


@pytest.mark.parametrize(
    "spec", ["C1", "C4", "C6", "C12", "C2xC2", "C2xC4", "C3xC3", "D4", "S3", "Q8", "C2xC2xC2"]
)
def test_subgroups_match_brute_force(spec):
    G = gq.make_group(spec)
    fast = sorted(H.elements for H in gq.subgroups(G))
    assert fast == brute_force_subgroups(G)


@pytest.mark.parametrize("spec", ["C16", "C4xC4", "D8", "C2xC2xC2xC2"])
def test_subgroups_match_brute_force_order_16(spec):
    G = gq.make_group(spec)
    fast = sorted(H.elements for H in gq.subgroups(G))
    assert fast == brute_force_subgroups(G)


def reference_subgroups(G):
    """The layer-by-layer lattice that cyclic extension replaced: join each
    subgroup with every element it misses, closing under both-sided products
    with all its elements through ``G.mul``."""

    def closure(seed):
        out = set(seed) | {0}
        frontier = list(out)
        while frontier:
            x = frontier.pop()
            for g in list(out):
                for y in (G.mul(x, g), G.mul(g, x)):
                    if y not in out:
                        out.add(y)
                        frontier.append(y)
        return out

    seen = {(0,)}
    frontier = [(0,)]
    while frontier:
        nxt = []
        for elems in frontier:
            for g in G.elements():
                if g not in elems:
                    bigger = tuple(sorted(closure(set(elems) | {g})))
                    if bigger not in seen:
                        seen.add(bigger)
                        nxt.append(bigger)
        frontier = nxt
    return sorted(seen, key=lambda e: (len(e), e))


@pytest.mark.parametrize("spec", list(GROUP_SPECS) + ["C2xC2xC2xC2xC2", "C4xC8", "D16", "Q8xC4"])
def test_subgroups_match_reference(spec):
    G = gq.make_group(spec)
    assert [H.elements for H in gq.subgroups(G)] == reference_subgroups(G)


def _relabeled(G, perm):
    """G with element g renamed perm[g]; perm fixes the identity 0."""
    table = np.empty_like(G.table)
    table[np.ix_(perm, perm)] = perm[G.table]
    return gq.from_table(table)


@given(st.sampled_from(["C12", "C2xC2xC2", "C2xC6", "C3xC3", "D6", "Q8", "S4", "C4xC4"]), st.data())
@settings(max_examples=30, deadline=None)
def test_subgroups_invariant_under_relabeling(spec, data):
    G = gq.make_group(spec)
    perm = np.array([0] + data.draw(st.permutations(range(1, G.n))))
    H = _relabeled(G, perm)
    mapped = sorted(tuple(sorted(perm[list(K.elements)].tolist())) for K in gq.subgroups(G))
    assert mapped == sorted(K.elements for K in gq.subgroups(H))


def test_subgroups_memoized_per_instance(monkeypatch):
    builds = []
    build = groups._cyclic_extension
    monkeypatch.setattr(groups, "_cyclic_extension", lambda G: builds.append(G) or build(G))
    G = gq.make_group("C2xC4")
    first = gq.subgroups(G)
    first.pop()
    second = gq.subgroups(G)
    assert [H.elements for H in second] == reference_subgroups(G)
    assert len(gq.normal_subgroups(G)) == len(second) == 8
    with pytest.raises(SizeBoundError):
        gq.subgroups(G, bound=4)
    assert builds == [G]
    gq.subgroups(gq.make_group("C2xC4"))  # a fresh instance builds its own lattice
    assert len(builds) == 2


def test_normal_subgroups_examples():
    C4 = gq.cyclic(4)
    assert [N.order for N in gq.normal_subgroups(C4)] == [1, 2, 4]
    klein = gq.make_group("C2xC2")
    assert len(gq.normal_subgroups(klein)) == 5
    assert [N.order for N in gq.normal_subgroups(gq.trivial_group())] == [1]
    S3 = gq.symmetric(3)
    assert [N.order for N in gq.normal_subgroups(S3)] == [1, 3, 6]
    with pytest.raises(SizeBoundError):
        gq.subgroups(gq.cyclic(12), bound=8)


def test_quotient_examples():
    C4 = gq.cyclic(4)
    N = gq.generated_subgroup(C4, [2])
    Q, proj = gq.quotient(C4, N)
    assert Q.n == 2 and proj.kernel().elements == N.elements
    whole = gq.Subgroup(C4, tuple(range(4)))
    assert gq.quotient(C4, whole)[0].n == 1
    Q8 = gq.quaternion8()
    Qq, _ = gq.quotient(Q8, gq.center(Q8))
    assert gq.are_isomorphic(Qq, gq.make_group("C2xC2")).isomorphic


def test_quotient_requires_normal():
    S3 = gq.symmetric(3)
    H = next(h for h in gq.subgroups(S3) if h.order == 2)
    from gquot.errors import NormalityError

    with pytest.raises(NormalityError):
        gq.quotient(S3, H)


def test_coset_action_trivial_and_regular():
    G = gq.symmetric(3)
    whole = gq.Subgroup(G, tuple(range(6)))
    act = gq.coset_action(G, whole)
    assert act.image_group.n == 1 and len(act.cosets) == 1
    act2 = gq.coset_action(G, gq.Subgroup(G, (0,)))
    assert act2.is_faithful() and act2.is_transitive() and act2.image_group.n == 6


def test_coset_action_s3_on_three_points():
    G = gq.symmetric(3)
    H = next(h for h in gq.subgroups(G) if h.order == 2)
    act = gq.coset_action(G, H)
    assert len(act.cosets) == 3
    assert act.is_transitive()
    assert act.image_group.n == 6


def test_coset_action_kernel_is_largest_normal_inside():
    for spec in ["S3", "D4", "Q8", "C2xC4"]:
        G = gq.make_group(spec)
        normals = gq.normal_subgroups(G)
        for H in gq.subgroups(G):
            act = gq.coset_action(G, H)
            ker = set(act.kernel().elements)
            assert ker <= set(H.elements)
            inside = [set(N.elements) for N in normals if set(N.elements) <= set(H.elements)]
            assert ker == max(inside, key=len)
            if H.is_normal():
                assert ker == set(H.elements)


def test_abelian_invariants():
    assert gq.abelian_invariants(gq.cyclic(6)).invariants == (6,)
    dec = gq.abelian_invariants(gq.make_group("C2xC4"))
    assert dec.invariants == (2, 4)
    G = gq.make_group("C2xC4")
    for inv, g in zip(dec.invariants, dec.generators):
        assert G.order_of(g) == inv
    span = gq.generated_subgroup(G, dec.generators)
    assert span.order == G.n
    assert gq.abelian_invariants(gq.symmetric(3)) is None
    assert gq.abelian_invariants(gq.make_group("C6xC6")).invariants == (6, 6)


def test_homocyclic_squarefree():
    assert gq.is_homocyclic_squarefree(gq.make_group("C2xC2"))
    assert gq.is_homocyclic_squarefree(gq.make_group("C6xC6"))
    assert not gq.is_homocyclic_squarefree(gq.make_group("C4xC4"))
    assert not gq.is_homocyclic_squarefree(gq.make_group("C2xC4"))


def test_are_isomorphic_examples():
    r = gq.are_isomorphic(gq.cyclic(4), gq.make_group("C2xC2"))
    assert not r.isomorphic and "census" in r.reason
    r2 = gq.are_isomorphic(gq.cyclic(6), gq.make_group("C2xC3"))
    assert r2.isomorphic
    images = r2.hom.images
    assert sorted(images) == list(range(6))
    G = gq.make_group("C4xC4")
    Q1, _ = gq.quotient(G, gq.generated_subgroup(G, [4]))
    Q2, _ = gq.quotient(G, gq.generated_subgroup(G, [8, 2]))
    assert not gq.are_isomorphic(Q1, Q2).isomorphic


def test_inverse_is_involution():
    for spec in ["C6", "S4", "Q8", "D5"]:
        G = gq.make_group(spec)
        for g in G.elements():
            assert G.inv(G.inv(g)) == g
            assert G.mul(g, G.inv(g)) == 0


def test_table_format_round_trip():
    for spec in ["C5", "S3", "Q8"]:
        G = gq.make_group(spec)
        back = parse_group_table(format_group_table(G))
        assert back == G
        assert back.labels == G.labels


def test_table_format_errors_name_line():
    with pytest.raises(ValidationError, match="line 2"):
        parse_group_table("2\n0 x\n1 0\n")
    with pytest.raises(ValidationError, match="line"):
        parse_group_table("2\n0 1\n1 0 0\n")
