import numpy as np
import pytest

import gquot as gq
from gquot.cocycles import CocycleTable, standard_nondegenerate
from gquot.errors import DomainError, SizeBoundError
from gquot import groups
from gquot.groups import abelian_group_from_invariants, generating_sequence, invariant_factor_sequences
from gquot.lagrangians import (
    IYBWitness,
    automorphism_group,
    crossed_product_iff_lagrangian,
    is_isotropic,
    iyb_witness_search,
    lagrangian_quotient_is_iyb,
    lagrangian_scan,
    maximal_elementary_quotients,
    minimal_isotropic,
    sylow_decomposition,
    _bijective_cocycle,
    _compose_perm,
)
from gquot.mackey import mackey_decompose
from gquot.twisted import TwistedAlgebra


def test_isotropy_trivial_class_any_subgroup():
    S3 = gq.symmetric(3)
    t = CocycleTable.trivial(S3)
    for H in gq.subgroups(S3):
        assert is_isotropic(S3, t, H).isotropic


def test_isotropy_spec_cases():
    a44 = standard_nondegenerate([4])
    G = a44.group
    assert is_isotropic(G, a44, gq.generated_subgroup(G, [4])).isotropic
    a = standard_nondegenerate([2])
    assert not is_isotropic(a.group, a, gq.Subgroup(a.group, tuple(range(4)))).isotropic


def test_isotropy_witness_is_checkable():
    a44 = standard_nondegenerate([4])
    G = a44.group
    rep = is_isotropic(G, a44, gq.generated_subgroup(G, [8, 2]))
    assert rep.isotropic and rep.witness is not None
    assert rep.one_dim_blocks == 4 and rep.block_dims == (1, 1, 1, 1)


def test_lagrangian_scan_c2xc2():
    a = standard_nondegenerate([2])
    reports = lagrangian_scan(a.group, a)
    assert len(reports) == 3
    assert all(r.is_lagrangian and r.normal for r in reports)


def test_lagrangian_scan_c4xc4_contains_both_types():
    a = standard_nondegenerate([4])
    G = a.group
    found = {r.subgroup.elements for r in lagrangian_scan(G, a) if r.is_lagrangian}
    assert gq.generated_subgroup(G, [4]).elements in found  # the cyclic <x>
    assert gq.generated_subgroup(G, [8, 2]).elements in found  # the Klein <x^2, y^2>
    kinds = set()
    for elems in found:
        sub, _ = gq.Subgroup(G, elems).as_group()
        kinds.add(gq.abelian_invariants(sub))
    assert kinds == {(4,), (2, 2)}


def test_lagrangian_scan_requires_square_and_nondegenerate():
    with pytest.raises(DomainError):
        lagrangian_scan(gq.cyclic(2), CocycleTable.trivial(gq.cyclic(2)))
    G = gq.make_group("C2xC2")
    with pytest.raises(DomainError):
        lagrangian_scan(G, CocycleTable.trivial(G))


def test_crossed_product_iff_lagrangian_cases():
    a = standard_nondegenerate([2])
    G = a.group
    assert crossed_product_iff_lagrangian(G, a, gq.generated_subgroup(G, [2]))
    a44 = standard_nondegenerate([4])
    G44 = a44.group
    L = gq.generated_subgroup(G44, [8, 2])
    assert crossed_product_iff_lagrangian(G44, a44, L)
    Q, _ = gq.quotient(G44, L)
    assert gq.are_isomorphic(Q, gq.make_group("C2xC2")).isomorphic
    # an order-2 kernel fails the size condition
    assert not crossed_product_iff_lagrangian(G44, a44, gq.generated_subgroup(G44, [8]))


def test_crossed_product_iff_lagrangian_rejects_a_foreign_decomposition():
    a44 = standard_nondegenerate([4])
    G = a44.group
    L, other = gq.generated_subgroup(G, [8, 2]), gq.generated_subgroup(G, [8])
    dec = mackey_decompose(G, a44, other)
    assert crossed_product_iff_lagrangian(G, a44, L, dec=mackey_decompose(G, a44, L))
    with pytest.raises(DomainError, match="different"):
        crossed_product_iff_lagrangian(G, a44, L, dec=dec)  # another subgroup
    with pytest.raises(DomainError, match="different"):
        crossed_product_iff_lagrangian(G, a44, other, dec=dec, seed=1)  # another seed
    a = standard_nondegenerate([2])
    N = gq.generated_subgroup(a.group, [2])
    with pytest.raises(DomainError, match="different"):
        crossed_product_iff_lagrangian(a.group, a, N, dec=mackey_decompose(G, a44, L))  # another group


def test_biconditional_full_sweep_c2xc2():
    a = standard_nondegenerate([2])
    for N in gq.subgroups(a.group):
        crossed_product_iff_lagrangian(a.group, a, N)  # raises on any one-sided disagreement


def test_maximal_elementary_quotients_c2xc2():
    a = standard_nondegenerate([2])
    rep = maximal_elementary_quotients(a.group, a)
    assert len(rep.maximal_normals) == 3
    assert rep.unique_maximal_class
    assert all(Q.n == 2 for Q in rep.quotient_groups)


def test_maximal_elementary_quotients_builds_lattice_once(monkeypatch):
    from gquot import groups

    builds = []
    build = groups._cyclic_extension
    monkeypatch.setattr(groups, "_cyclic_extension", lambda G: builds.append(G) or build(G))
    a = standard_nondegenerate([2])
    maximal_elementary_quotients(a.group, a)
    assert builds == [a.group]


def test_maximal_elementary_quotients_c4xc4():
    a = standard_nondegenerate([4])
    rep = maximal_elementary_quotients(a.group, a)
    assert not rep.unique_maximal_class
    kinds = {gq.abelian_invariants(Q) for Q in rep.quotient_groups}
    assert kinds == {(4,), (2, 2)}


def test_ecp_maximality_no_smaller_elementary_kernel():
    # |G| must divide |N|^2 for an elementary quotient, so no proper subgroup
    # of a Lagrangian has one
    a = standard_nondegenerate([2])
    rep = maximal_elementary_quotients(a.group, a)
    lag_sets = [set(N.elements) for N in rep.maximal_normals]
    for N in rep.elementary_normals:
        ns = set(N.elements)
        for ls in lag_sets:
            assert not ns < ls or a.group.n > N.order ** 2


def test_elementary_quotient_contains_lagrangian():
    # a nilpotent kernel with elementary quotient contains a Lagrangian
    for invs in ([2], [4]):
        a = standard_nondegenerate(invs)
        G = a.group
        rep = maximal_elementary_quotients(G, a)
        lagrangians = [set(r.subgroup.elements) for r in lagrangian_scan(G, a) if r.is_lagrangian]
        for N in rep.elementary_normals:
            ns = set(N.elements)
            assert any(ls <= ns for ls in lagrangians)


def test_sylow_decomposition():
    C12 = gq.cyclic(12)
    sylows = sylow_decomposition(C12)
    assert sorted(s.order for s in sylows) == [3, 4]
    S3 = gq.symmetric(3)
    assert sylow_decomposition(S3) is None


def test_minimal_isotropic_cases():
    a = standard_nondegenerate([2])
    G = a.group
    H = minimal_isotropic(G, a)
    assert H.order == 2 and G.n // H.order == 2
    t = CocycleTable.trivial(G)
    assert minimal_isotropic(G, t).order == G.n
    with pytest.raises(DomainError):
        minimal_isotropic(gq.symmetric(3), CocycleTable.trivial(gq.symmetric(3)))
    with pytest.raises(SizeBoundError, match="bounded at order 32"):
        minimal_isotropic(gq.cyclic(33), CocycleTable.trivial(gq.cyclic(33)))


def test_minimal_isotropic_on_restricted_cocycle():
    a44 = standard_nondegenerate([4])
    G = a44.group
    # <x^2, y> is an order-8 subgroup carrying a degenerate restriction
    sub8 = gq.generated_subgroup(G, [8, 1])
    rest, subg, _ = a44.restrict(sub8)
    H = minimal_isotropic(subg, rest)
    oracle = min(TwistedAlgebra(subg, rest).wedderburn(seed=0).dims)
    assert subg.n // H.order == oracle


def test_invariant_factor_sequences():
    assert invariant_factor_sequences(1) == [()]
    assert invariant_factor_sequences(12) == [(2, 6), (12,)]
    assert invariant_factor_sequences(8) == [(2, 2, 2), (2, 4), (8,)]


# -- reference code: the hom searches that groups.homomorphisms replaced ------


def reference_homs(H, T):
    """Every homomorphism H -> T, by generator-image backtracking, each one
    re-checked for multiplicativity over all pairs."""
    gens = generating_sequence(H) if H.n > 1 else []
    if not gens:
        yield gq.GroupHom(H, T, (0,) * H.n)
        return
    orders_T = T.element_orders()
    orders_H = [H.order_of(g) for g in gens]
    cands = [[t for t in T.elements() if orders_H[i] % orders_T[t] == 0] for i in range(len(gens))]

    def hom_ok(mapping):
        return all(
            mapping[H.mul(a, b)] == T.mul(mapping[a], mapping[b])
            for a in H.elements()
            for b in H.elements()
        )

    def rec(level, pairs):
        if level == len(gens):
            mapping = groups._extend_hom(H, T, pairs)
            if mapping is not None and len(mapping) == H.n and hom_ok(mapping):
                yield gq.GroupHom(H, T, tuple(mapping[g] for g in H.elements()))
            return
        for t in cands[level]:
            trial = pairs + [(gens[level], t)]
            if groups._extend_hom(H, T, trial) is not None:
                yield from rec(level + 1, trial)

    yield from rec(0, [])


def reference_automorphism_group(A):
    """Automorphisms of an abelian group from generator images closed under
    right multiplication, as (composition group, ordered permutations)."""
    gens = generating_sequence(A) if A.n > 1 else []
    orders = A.element_orders()

    def endomorphism(images):
        known = {0: 0}
        frontier = [0]
        pairs = list(zip(gens, images))
        while frontier:
            x = frontier.pop()
            for g, img in pairs:
                xg, val = A.mul(x, g), A.mul(known[x], img)
                if xg in known:
                    if known[xg] != val:
                        return None
                else:
                    known[xg] = val
                    frontier.append(xg)
        if len(known) != A.n:
            return None
        return tuple(known[x] for x in A.elements())

    perms = set()
    if not gens:
        perms.add(tuple(range(A.n)))
    cands = [[x for x in A.elements() if orders[g] % orders[x] == 0] for g in gens]

    def build(level, images):
        if level == len(gens):
            perm = endomorphism(images)
            if perm is not None and len(set(perm)) == A.n:
                perms.add(perm)
            return
        for img in cands[level]:
            build(level + 1, images + [img])

    if gens:
        build(0, [])
    ident = tuple(range(A.n))
    ordered = sorted(perms, key=lambda p: (p != ident, p))
    pos = {p: i for i, p in enumerate(ordered)}
    table = np.array([[pos[_compose_perm(p, q)] for q in ordered] for p in ordered], dtype=np.int64)
    return gq.FiniteGroup(table, name=f"Aut({A.name or A.n})"), ordered


def reference_iyb_search(H):
    """iyb_witness_search over the reference automorphism group and homs:
    (modules tried, actions tried, module invariants, delta, action)."""
    modules_tried = actions_tried = 0
    for invs in invariant_factor_sequences(H.n):
        A = abelian_group_from_invariants(invs)
        modules_tried += 1
        aut_group, aut_perms = reference_automorphism_group(A)
        for hom in reference_homs(H, aut_group):
            actions_tried += 1
            action = tuple(aut_perms[hom.images[h]] for h in H.elements())
            delta = _bijective_cocycle(H, A, action)
            if delta is not None:
                assert IYBWitness(H, tuple(invs), A, action, delta).verify()
                return modules_tried, actions_tried, tuple(invs), delta, action
    return modules_tried, actions_tried, None, None, None


_HOM_SPECS = ["C1", "C2", "C3", "C4", "C2xC2", "C6", "S3", "C8", "C2xC4", "C2xC2xC2", "D4", "Q8"]


@pytest.mark.parametrize("source", _HOM_SPECS)
def test_homomorphisms_match_reference(source):
    H = gq.make_group(source)
    for target in _HOM_SPECS:
        T = gq.make_group(target)
        expected = [h.images for h in reference_homs(H, T)]
        assert [h.images for h in gq.homomorphisms(H, T)] == expected


@pytest.mark.parametrize(
    "invs",
    [(), (2,), (3,), (4,), (5,), (6,), (7,), (8,), (2, 2), (2, 4), (2, 6), (3, 3), (2, 2, 2), (2, 2, 4)],
    ids=lambda invs: "x".join(f"C{k}" for k in invs) or "C1",
)
def test_automorphism_group_matches_reference(invs):
    A = abelian_group_from_invariants(invs)
    aut_group, perms = automorphism_group(A)
    ref_group, ref_perms = reference_automorphism_group(A)
    assert perms == ref_perms
    assert np.array_equal(aut_group.table, ref_group.table)


@pytest.mark.parametrize(
    "spec", ["C1", "C2", "C3", "C4", "C2xC2", "C5", "C6", "S3", "C7", "C8", "C2xC4", "C2xC2xC2", "D4", "Q8"]
)
def test_iyb_witness_search_matches_reference(spec):
    H = gq.make_group(spec)
    res = iyb_witness_search(H)
    w = res.witness
    got = (res.modules_tried, res.actions_tried) + (
        (w.module_invariants, w.delta, w.action) if w is not None else (None, None, None)
    )
    assert got == reference_iyb_search(H)


def test_automorphism_group_orders():
    assert automorphism_group(abelian_group_from_invariants([2, 2]))[0].n == 6
    assert automorphism_group(abelian_group_from_invariants([6]))[0].n == 2
    assert automorphism_group(abelian_group_from_invariants([4]))[0].n == 2


def test_iyb_witnesses_small_abelian():
    for spec, invs in [("C2", (2,)), ("C2xC2", (2, 2)), ("C4", (4,)), ("C6", (6,))]:
        H = gq.make_group(spec)
        res = iyb_witness_search(H)
        assert res.witness is not None
        assert res.witness.verify()
    # abelian groups admit the identity cocycle with trivial action
    res2 = iyb_witness_search(gq.make_group("C2xC2"))
    assert res2.witness.module_invariants == (2, 2)
    assert res2.witness.delta == tuple(range(4))


def test_iyb_witness_s3_needs_nontrivial_action():
    S3 = gq.symmetric(3)
    res = iyb_witness_search(S3)
    assert res.witness is not None and res.witness.verify()
    assert res.witness.module_invariants == (6,)
    identity_perm = tuple(range(6))
    assert any(p != identity_perm for p in res.witness.action)


def test_iyb_bound():
    with pytest.raises(SizeBoundError):
        iyb_witness_search(gq.cyclic(13))


def test_lagrangian_quotients_are_iyb():
    a = standard_nondegenerate([2])
    G = a.group
    res = lagrangian_quotient_is_iyb(G, a, gq.generated_subgroup(G, [2]))
    assert res.witness is not None
    a44 = standard_nondegenerate([4])
    res2 = lagrangian_quotient_is_iyb(a44.group, a44, gq.generated_subgroup(a44.group, [4]))
    assert res2.witness is not None and res2.witness.group.n == 4
    a66 = standard_nondegenerate([6])
    L = gq.generated_subgroup(a66.group, [7])
    res3 = lagrangian_quotient_is_iyb(a66.group, a66, L)
    assert res3.witness is not None and res3.witness.group.n == 6
    with pytest.raises(DomainError):
        lagrangian_quotient_is_iyb(G, a, gq.Subgroup(G, (0,)))
