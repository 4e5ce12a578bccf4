import dataclasses
import functools
import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gquot as gq
from gquot.catalog import GROUP_SPECS
from gquot import lagrangians, smith, twisted
from gquot.cocycles import Bicharacter, CocycleTable, OneCochain, coboundary, standard_nondegenerate
from gquot.errors import DomainError, SizeBoundError, TheoremCheckError
from gquot import groups
from gquot.groups import abelian_group_from_invariants, generating_sequence, invariant_factor_sequences
from gquot.lagrangians import (
    IYB_BOUND,
    IYBWitness,
    automorphism_group,
    crossed_product_iff_lagrangian,
    is_isotropic,
    iyb_witness_search,
    lagrangian_quotient_is_iyb,
    lagrangian_scan,
    maximal_elementary_quotients,
    _bijective_cocycle,
)
from gquot.mackey import MackeyContext
from gquot.twisted import BlockOracle, TwistedAlgebra


def test_isotropy_trivial_class_any_subgroup():
    S3 = gq.symmetric(3)
    t = CocycleTable.trivial(S3)
    context = MackeyContext(t)
    for H in gq.subgroups(S3):
        assert is_isotropic(context, H).isotropic


def test_isotropy_spec_cases():
    a44 = standard_nondegenerate([4])
    G = a44.group
    assert is_isotropic(MackeyContext(a44), gq.generated_subgroup(G, [4])).isotropic
    a = standard_nondegenerate([2])
    assert not is_isotropic(MackeyContext(a), gq.Subgroup(a.group, tuple(range(4)))).isotropic


def test_isotropy_witness_is_checkable():
    a44 = standard_nondegenerate([4])
    G = a44.group
    rep = is_isotropic(MackeyContext(a44), gq.generated_subgroup(G, [8, 2]))
    assert rep.isotropic and rep.witness is not None
    assert rep.one_dim_blocks == 4 and rep.block_dims == (1, 1, 1, 1)


def test_lagrangian_scan_c2xc2():
    a = standard_nondegenerate([2])
    reports = lagrangian_scan(MackeyContext(a))
    assert len(reports) == 3
    assert all(r.is_lagrangian and r.normal for r in reports)


def test_lagrangian_scan_c4xc4_contains_both_types():
    a = standard_nondegenerate([4])
    G = a.group
    found = {r.subgroup.elements for r in lagrangian_scan(MackeyContext(a)) if r.is_lagrangian}
    assert gq.generated_subgroup(G, [4]).elements in found  # the cyclic <x>
    assert gq.generated_subgroup(G, [8, 2]).elements in found  # the Klein <x^2, y^2>
    kinds = set()
    for elems in found:
        kinds.add(gq.abelian_invariants(gq.Subgroup(G, elems).as_group()))
    assert kinds == {(4,), (2, 2)}


def test_lagrangian_scan_requires_square_and_nondegenerate():
    with pytest.raises(DomainError):
        lagrangian_scan(MackeyContext(CocycleTable.trivial(gq.cyclic(2))))
    G = gq.make_group("C2xC2")
    with pytest.raises(DomainError):
        lagrangian_scan(MackeyContext(CocycleTable.trivial(G)))


def test_crossed_product_iff_lagrangian_cases():
    a = standard_nondegenerate([2])
    G = a.group
    assert crossed_product_iff_lagrangian(MackeyContext(a), gq.generated_subgroup(G, [2]))
    a44 = standard_nondegenerate([4])
    G44 = a44.group
    L = gq.generated_subgroup(G44, [8, 2])
    assert crossed_product_iff_lagrangian(MackeyContext(a44), L)
    Q, _ = gq.quotient(G44, L)
    assert gq.are_isomorphic(Q, gq.make_group("C2xC2")).isomorphic
    # an order-2 kernel fails the size condition
    assert not crossed_product_iff_lagrangian(MackeyContext(a44), gq.generated_subgroup(G44, [8]))


@pytest.mark.parametrize("oracle", [None, BlockOracle()], ids=["own registry", "caller registry"])
def test_crossed_product_iff_lagrangian_splits_each_algebra_once(monkeypatch, oracle):
    """The decomposition and the isotropy check share the context's block
    oracle, whether the context builds its own registry or takes the
    caller's: on nd_C4xC4 with the Klein Lagrangian, each distinct
    (table, scale, exponents) is split exactly once, counted per algebra at
    the one entry every split goes through."""
    splits = []
    original = twisted.split_algebras

    def counted(algebras, seed):
        splits.extend((A.group.table.tobytes(), A.cocycle.scale, A.cocycle.exps.tobytes()) for A in algebras)
        return original(algebras, seed)

    monkeypatch.setattr(twisted, "split_algebras", counted)
    a44 = standard_nondegenerate([4])
    L = gq.generated_subgroup(a44.group, [8, 2])
    assert crossed_product_iff_lagrangian(MackeyContext(a44, oracle=oracle), L)
    assert len(splits) == len(set(splits)) == 3  # C^a G, C^a L and the trivial obstruction on C1


def test_crossed_product_iff_lagrangian_shares_one_context_across_subgroups():
    """One context serves every N of alpha; a subgroup asked again
    is a memo hit."""
    a44 = standard_nondegenerate([4])
    G = a44.group
    L, other = gq.generated_subgroup(G, [8, 2]), gq.generated_subgroup(G, [8])
    context = MackeyContext(a44)
    assert crossed_product_iff_lagrangian(context, L)
    assert not crossed_product_iff_lagrangian(context, other)
    dec = context.decompose(L)
    assert crossed_product_iff_lagrangian(context, L)
    assert context.decompose(L) is dec


def test_crossed_product_iff_lagrangian_rejects_a_foreign_context():
    """A subgroup of another group than the context's is refused before any
    decomposition or isotropy work, in either direction."""
    a44 = standard_nondegenerate([4])
    a = standard_nondegenerate([2])
    foreign = "^subgroup belongs to a different group$"
    with pytest.raises(DomainError, match=foreign):
        crossed_product_iff_lagrangian(MackeyContext(a44), gq.generated_subgroup(a.group, [2]))
    context = MackeyContext(a)
    with pytest.raises(DomainError, match=foreign):
        crossed_product_iff_lagrangian(context, gq.generated_subgroup(a44.group, [8, 2]))
    assert not context.isotropy


def test_a_context_reads_its_group_off_the_cocycle():
    a = standard_nondegenerate([4])
    context = MackeyContext(a)
    assert context.group is a.group and context.cocycle is a


def test_maximal_elementary_quotients_rejects_a_foreign_context():
    """The one Lagrangian question that names its class apart from its
    context checks the two against each other, a seed that is passed
    against the context's oracle, and the class against A; a context whose
    oracle is at the asked seed, or asked with no seed, is accepted and
    gives what a fresh one at its oracle's seed gives."""
    a44 = standard_nondegenerate([4])
    G = a44.group
    context = MackeyContext(a44)
    foreign = r"^Mackey context is for a different \(group, cocycle, seed\)$"
    with pytest.raises(DomainError, match=foreign):
        maximal_elementary_quotients(G, a44, seed=1, context=context)  # another seed
    at_one = MackeyContext(a44, oracle=BlockOracle(1))
    with pytest.raises(DomainError, match=foreign):
        maximal_elementary_quotients(G, a44, seed=0, context=at_one)  # seed 0 on a seed-1 oracle
    fresh = maximal_elementary_quotients(G, a44, seed=1)
    unseeded = maximal_elementary_quotients(G, a44, context=MackeyContext(a44, oracle=BlockOracle(1)))
    report = maximal_elementary_quotients(G, a44, seed=1, context=at_one)
    def points(report):
        return {key: [p.coeffs.tobytes() for p in dec.points] for key, dec in report.decompositions.items()}

    for got in (unseeded, report):  # no seed: the given context's own seed
        assert [N.elements for N in got.maximal_normals] == [N.elements for N in fresh.maximal_normals]
        assert got.decompositions.keys() == fresh.decompositions.keys()
        assert points(got) == points(fresh)
    assert points(maximal_elementary_quotients(G, a44, context=context)) != points(fresh)  # seed 0 draws others
    inverse = CocycleTable(G, a44.scale, -a44.exps % a44.scale)  # another non-degenerate class
    with pytest.raises(DomainError, match=foreign):
        maximal_elementary_quotients(G, inverse, context=context)  # another cocycle
    a = standard_nondegenerate([2])
    with pytest.raises(DomainError, match=foreign):
        maximal_elementary_quotients(a.group, a, context=context)  # another group
    with pytest.raises(DomainError, match="^cocycle lives on a different group$"):
        maximal_elementary_quotients(a.group, a44)


def test_biconditional_full_sweep_c2xc2():
    a = standard_nondegenerate([2])
    for N in gq.subgroups(a.group):
        crossed_product_iff_lagrangian(MackeyContext(a), N)  # raises on any one-sided disagreement


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


def test_theorem_d_on_an_equal_copy_of_the_carrier_builds_one_lattice(monkeypatch):
    """A carrier passed as another object with the same table is decomposed
    and scanned on the one lattice of the context's group."""
    builds = []
    build = groups._cyclic_extension
    monkeypatch.setattr(groups, "_cyclic_extension", lambda G: builds.append(G) or build(G))
    a = standard_nondegenerate([2])
    copy = gq.FiniteGroup(a.group.table)
    assert copy is not a.group and copy == a.group
    maximal_elementary_quotients(copy, a)
    assert len(builds) == 1


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
        lagrangians = [set(r.subgroup.elements) for r in lagrangian_scan(MackeyContext(a)) if r.is_lagrangian]
        for N in rep.elementary_normals:
            ns = set(N.elements)
            assert any(ls <= ns for ls in lagrangians)


# -- isotropy verdicts kept per context, and Theorem D under relabeling ----------


def counted_isotropy(monkeypatch):
    """The subgroups ``is_isotropic`` is asked about, in call order."""
    asked, isotropic = [], lagrangians.is_isotropic

    def counted(context, H):
        asked.append(H.elements)
        return isotropic(context, H)

    monkeypatch.setattr(lagrangians, "is_isotropic", counted)
    return asked


def test_isotropy_verdicts_are_certified_once_per_context(monkeypatch):
    """Criterion 3's biconditional over every N, a scan, and the scan again
    on one context certify each subgroup of order sqrt|G| once; the scan
    reports the verdicts ``is_isotropic`` gives, and a new context certifies
    them again."""
    a = standard_nondegenerate([4])
    G = a.group
    asked = counted_isotropy(monkeypatch)
    context = MackeyContext(a)
    for N in gq.subgroups(G):
        crossed_product_iff_lagrangian(context, N)
    first = lagrangian_scan(context)
    again = lagrangian_scan(context)
    squares = [H.elements for H in gq.subgroups(G) if H.order**2 == G.n]
    assert asked == squares and len(first) == len(again) == len(squares)
    fresh = MackeyContext(a)
    for r, s in zip(first, again):
        assert (r.subgroup, r.isotropic, r.normal) == (s.subgroup, s.isotropic, s.normal)
        assert r.isotropic == is_isotropic(fresh, r.subgroup).isotropic
    assert set(context.isotropy) == set(squares)
    asked.clear()
    lagrangian_scan(MackeyContext(a))
    assert asked == squares


def test_a_scan_on_a_new_context_certifies_each_candidate_once(monkeypatch):
    """A scan on a new context reads the verdicts it certifies there: the
    reports equal those of a scan on another context, and ``is_isotropic``
    is asked once per subgroup of order sqrt|G|."""
    a = standard_nondegenerate([2, 4])
    G = a.group
    expected = [(r.subgroup, r.isotropic, r.normal) for r in lagrangian_scan(MackeyContext(a))]
    asked = counted_isotropy(monkeypatch)
    reports = lagrangian_scan(MackeyContext(a))
    assert [(r.subgroup, r.isotropic, r.normal) for r in reports] == expected
    assert asked == [H.elements for H in gq.subgroups(G) if H.order**2 == G.n]


def test_the_iyb_bridge_reads_what_its_scan_certified(monkeypatch):
    """After a scan, ``lagrangian_quotient_is_iyb`` on the scan's context
    builds no second context and certifies no subgroup again."""
    a = standard_nondegenerate([4])
    context = MackeyContext(a)
    lagrangian_normals = [r.subgroup for r in lagrangian_scan(context) if r.is_lagrangian and r.normal]
    asked, built = counted_isotropy(monkeypatch), []
    init = MackeyContext.__init__

    def counted_init(self, *args, **kw):
        built.append(args)
        init(self, *args, **kw)

    monkeypatch.setattr(MackeyContext, "__init__", counted_init)
    for N in lagrangian_normals:
        assert lagrangian_quotient_is_iyb(context, N).witness is not None
    assert len(lagrangian_normals) == 7 and asked == [] and built == []


# -- the isotropy cross-checks fire ------------------------------------------------


def scanned_context(monkeypatch):
    """A context on C2^4 whose scan factored every coboundary system of its
    Lagrangian candidates (15 of the 35 are isotropic); from then on a
    factorization is a failure, so every later solve on it is a replay."""
    a = standard_nondegenerate([2, 2])
    context = MackeyContext(a)
    lagrangian_scan(context)
    assert context.factors
    forbid_factoring(monkeypatch)
    return context


def forbid_factoring(monkeypatch):
    monkeypatch.setattr(smith, "_eliminate", lambda *args: pytest.fail("a system was factored again"))


def candidates(context, isotropic):
    """The scanned subgroups of order sqrt|G| with the given verdict."""
    kept = context.isotropy
    return [H for H in gq.subgroups(context.group) if H.elements in kept and kept[H.elements].isotropic == isotropic]


class DimsOracle:
    """A block oracle whose every answer reports the given dims."""

    def __init__(self, dims):
        self.dims = dims

    def wedderburn(self, cocycle, seed=0):
        return SimpleNamespace(dims=self.dims)


def test_a_replayed_verdict_meets_the_bicharacter_check(monkeypatch):
    """Replays certify as fresh solves do: each replayed report equals the
    bare call's, witness included, and a bicharacter that reads the other way
    fires the check on a replayed verdict."""
    context = scanned_context(monkeypatch)
    G, a = context.group, context.cocycle
    scanned = candidates(context, True) + candidates(context, False)
    monkeypatch.undo()  # a call on a new context factors its own system
    bares = [is_isotropic(MackeyContext(a), H) for H in scanned]
    forbid_factoring(monkeypatch)
    for H, bare in zip(scanned, bares):
        replayed = is_isotropic(context, H)
        assert (replayed.isotropic, replayed.block_dims) == (bare.isotropic, bare.block_dims)
        assert replayed.witness == bare.witness
    zero = Bicharacter.is_zero
    monkeypatch.setattr(Bicharacter, "is_zero", lambda self: not zero(self))
    with pytest.raises(TheoremCheckError, match="^bicharacter and coboundary certificates disagree$"):
        is_isotropic(context, candidates(context, True)[0])


def test_a_corrupt_replay_meets_the_bicharacter_check(monkeypatch):
    """A replay that reads a trivial class as unsolvable is refused by the
    bicharacter certificate."""
    context = scanned_context(monkeypatch)
    monkeypatch.setattr(smith, "_replay", lambda *args: None)
    with pytest.raises(TheoremCheckError, match="^bicharacter and coboundary certificates disagree$"):
        is_isotropic(context, candidates(context, True)[0])


def test_abelian_isotropy_fires_when_the_oracle_misses_a_block(monkeypatch):
    """An isotropic abelian H must show |H| one-dimensional blocks."""
    context = scanned_context(monkeypatch)
    H = candidates(context, True)[0]
    monkeypatch.setattr(context, "oracle", DimsOracle((1,) * (H.order - 1)))
    with pytest.raises(TheoremCheckError, match="^abelian isotropy: oracle disagrees with exact solve$"):
        is_isotropic(context, H)


def test_isotropy_fires_when_the_oracle_finds_a_module_the_exact_solve_refutes(monkeypatch):
    """A non-isotropic abelian H with one one-dimensional block passes the
    abelian count and fails the exact-against-oracle check, on a replay."""
    context = scanned_context(monkeypatch)
    H = candidates(context, False)[0]
    monkeypatch.setattr(context, "oracle", DimsOracle((1,)))
    with pytest.raises(TheoremCheckError, match=r"^isotropy certificates disagree \(exact vs oracle\)$"):
        is_isotropic(context, H)


def test_non_abelian_isotropy_fires_when_the_exact_verdict_flips(monkeypatch):
    """On a non-abelian H only the exact-against-oracle check applies."""
    G = gq.symmetric(3)
    context, H = MackeyContext(CocycleTable.trivial(G)), gq.Subgroup(G, tuple(range(G.n)))
    assert is_isotropic(context, H).isotropic
    monkeypatch.setattr(lagrangians, "is_cohomologically_trivial", lambda *args, **kw: (False, None))
    with pytest.raises(TheoremCheckError, match=r"^isotropy certificates disagree \(exact vs oracle\)$"):
        is_isotropic(context, H)


def test_isotropy_refuses_a_subgroup_of_another_group():
    a = standard_nondegenerate([2])
    with pytest.raises(DomainError, match="^subgroup belongs to a different group$"):
        is_isotropic(MackeyContext(a), gq.Subgroup(gq.cyclic(4), (0, 2)))


# -- the theorem checks fire -------------------------------------------------------


def flipped(monkeypatch, name):
    """Replace ``lagrangians.<name>`` by its negation."""
    original = getattr(lagrangians, name)
    monkeypatch.setattr(lagrangians, name, lambda *args: not original(*args))


def test_theorem_c_biconditional_fires_when_the_ecp_verdict_flips(monkeypatch):
    a = standard_nondegenerate([2])
    N = gq.generated_subgroup(a.group, [2])
    flipped(monkeypatch, "is_ecp_quotient")
    with pytest.raises(
        TheoremCheckError, match="^biconditional violated on N of order 2: ECP=False, Lagrangian=True$"
    ):
        crossed_product_iff_lagrangian(MackeyContext(a), N)


def test_theorem_d_fires_when_the_elementary_verdicts_flip(monkeypatch):
    a = standard_nondegenerate([2])
    flipped(monkeypatch, "is_elementary_quotient")
    with pytest.raises(TheoremCheckError, match="^maximal elementary quotients differ from Lagrangian kernels$"):
        maximal_elementary_quotients(a.group, a)


def test_theorem_d_fires_when_the_ecp_verdicts_flip(monkeypatch):
    a = standard_nondegenerate([2])
    flipped(monkeypatch, "is_ecp_quotient")
    with pytest.raises(TheoremCheckError, match="^a maximal elementary quotient is not a crossed product$"):
        maximal_elementary_quotients(a.group, a)


def test_iyb_search_refuses_a_witness_that_fails_verification(monkeypatch):
    """The raise that lets criterion 10 count every returned witness as verified."""
    monkeypatch.setattr(IYBWitness, "verify", lambda self: False)
    with pytest.raises(TheoremCheckError, match="^IYB witness failed exact verification$"):
        iyb_witness_search(gq.cyclic(2))


THEOREM_D_INVARIANTS = [(2, 2), (4,), (2, 4), (8,)]


@functools.cache
def theorem_d_report(invariants):
    a = standard_nondegenerate(list(invariants))
    return a, maximal_elementary_quotients(a.group, a, seed=0)


def relabeled_and_twisted(a, perm, shifts):
    """alpha on the group with element g renamed perm[g], times the
    coboundary of the cochain ``shifts``."""
    G, m = a.group, a.scale
    table = np.empty_like(G.table)
    table[np.ix_(perm, perm)] = perm[G.table]
    H = gq.FiniteGroup(table)
    exps = np.empty_like(a.exps)
    exps[np.ix_(perm, perm)] = a.exps
    return CocycleTable(H, m, exps).mul(coboundary(OneCochain(H, m, [0] + shifts)))


@given(st.sampled_from(THEOREM_D_INVARIANTS), st.data())
@settings(max_examples=12, deadline=None)
def test_theorem_d_is_invariant_under_relabeling_and_coboundary_twist(invariants, data):
    """Renaming the elements and moving alpha by a coboundary moves the
    elementary, Lagrangian and maximal kernels through the renaming, and
    keeps the uniqueness verdict."""
    a, report = theorem_d_report(invariants)
    G = a.group
    perm = np.array([0] + data.draw(st.permutations(range(1, G.n))))
    shifts = data.draw(st.lists(st.integers(0, a.scale - 1), min_size=G.n - 1, max_size=G.n - 1))
    b = relabeled_and_twisted(a, perm, shifts)
    moved = maximal_elementary_quotients(b.group, b, seed=0)

    def renamed(kernels):
        return {tuple(sorted(perm[list(N.elements)].tolist())) for N in kernels}

    assert renamed(report.elementary_normals) == {N.elements for N in moved.elementary_normals}
    assert renamed(report.lagrangian_normals) == {N.elements for N in moved.lagrangian_normals}
    assert renamed(report.maximal_normals) == {N.elements for N in moved.maximal_normals}
    assert moved.unique_maximal_class == report.unique_maximal_class


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
            mapping = groups.extend_hom(H, T, pairs)
            if mapping is not None and len(mapping) == H.n and hom_ok(mapping):
                yield gq.GroupHom(H, T, tuple(mapping[g] for g in H.elements()))
            return
        for t in cands[level]:
            trial = pairs + [(gens[level], t)]
            if groups.extend_hom(H, T, trial) is not None:
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


def _compose_perm(p, q):
    return tuple(p[x] for x in q)


def reference_bijective_cocycle(H, A, action):
    """The backtracking search ``_bijective_cocycle`` replaced: generator
    values in lexicographic order, each closed by propagating the cocycle
    identity and pruned on a conflict or a repeated value."""
    gens = generating_sequence(H)
    if not gens:
        return (0,) if A.n == 1 else None

    def propagate(assign):
        delta = {0: 0}
        used = {0}
        frontier = [0]
        while frontier:
            x = frontier.pop()
            for g, vg in zip(gens, assign):
                xg = H.mul(x, g)
                val = A.mul(delta[x], action[x][vg])
                if xg in delta:
                    if delta[xg] != val:
                        return None
                else:
                    if val in used:
                        return None
                    delta[xg] = val
                    used.add(val)
                    frontier.append(xg)
        if len(delta) != H.n:
            return None
        return tuple(delta[h] for h in H.elements())

    def rec(level, assign):
        if level == len(gens):
            return propagate(assign)
        for a in A.elements():
            found = rec(level + 1, assign + [a])
            if found is not None:
                return found
        return None

    return rec(0, [])


def reference_verify(w):
    """The element loops ``IYBWitness.verify`` replaced."""
    H, A = w.group, w.module
    if sorted(w.delta) != list(range(A.n)):
        return False
    if w.delta[0] != 0:
        return False
    for h1 in H.elements():
        act1 = w.action[h1]
        for h2 in H.elements():
            if w.delta[H.mul(h1, h2)] != A.mul(w.delta[h1], act1[w.delta[h2]]):
                return False
    for h in H.elements():
        perm = w.action[h]
        for a in A.elements():
            for b in A.elements():
                if perm[A.mul(a, b)] != A.mul(perm[a], perm[b]):
                    return False
    for h1 in H.elements():
        for h2 in H.elements():
            if _compose_perm(w.action[h1], w.action[h2]) != w.action[H.mul(h1, h2)]:
                return False
    return True


def reference_iyb_search(H):
    """iyb_witness_search over the reference automorphism group, homs and
    cocycle search: (modules tried, actions tried, module invariants, delta,
    action)."""
    modules_tried = actions_tried = 0
    for invs in invariant_factor_sequences(H.n):
        A = abelian_group_from_invariants(invs)
        modules_tried += 1
        aut_group, aut_perms = reference_automorphism_group(A)
        for hom in reference_homs(H, aut_group):
            actions_tried += 1
            action = tuple(aut_perms[hom.images[h]] for h in H.elements())
            delta = reference_bijective_cocycle(H, A, action)
            if delta is not None:
                assert reference_verify(IYBWitness(H, tuple(invs), A, action, delta))
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


# every catalog group of order at most IYB_BOUND, and one product outside the catalog
IYB_SPECS = [name for name in GROUP_SPECS if gq.make_group(name).n <= IYB_BOUND] + ["C2xC2xC3"]


@pytest.mark.parametrize("spec", IYB_SPECS)
def test_iyb_witness_search_matches_reference(spec):
    H = gq.make_group(spec)
    res = iyb_witness_search(H)
    w = res.witness
    got = (res.modules_tried, res.actions_tried) + (
        (w.module_invariants, w.delta, w.action) if w is not None else (None, None, None)
    )
    assert got == reference_iyb_search(H)


def _actions(H):
    """Every module of order |H| with every action on it, as the search meets them."""
    for invs in invariant_factor_sequences(H.n):
        A = abelian_group_from_invariants(invs)
        aut_group, aut_perms = automorphism_group(A)
        for hom in gq.homomorphisms(H, aut_group):
            yield invs, A, tuple(aut_perms[hom.images[h]] for h in H.elements())


@pytest.mark.parametrize("spec", IYB_SPECS)
def test_bijective_cocycle_matches_reference_on_every_action(spec):
    """Every action of every module, the ones with no bijective cocycle included."""
    H = gq.make_group(spec)
    for _, A, action in _actions(H):
        assert _bijective_cocycle(H, A, action) == reference_bijective_cocycle(H, A, action)



def test_bijective_cocycle_needs_a_module_of_the_group_order():
    """delta = (0, 2) on C2 -> C4 is an injective cocycle, not a bijection.
    (The reference returned it; the search only asks for modules of order |H|.)"""
    C2, C4 = gq.cyclic(2), gq.cyclic(4)
    assert _bijective_cocycle(C2, C4, (tuple(C4.elements()),) * 2) is None

def _mutations(w):
    """Witnesses near w: delta with two entries swapped, each action replaced
    by the identity, and each action composed with a map that is not an
    automorphism (a transposition of two module elements)."""
    H, A = w.group, w.module
    ident = tuple(A.elements())
    for i, j in itertools.combinations(range(H.n), 2):
        d = list(w.delta)
        d[i], d[j] = d[j], d[i]
        yield dataclasses.replace(w, delta=tuple(d))
    for h in H.elements():
        action = list(w.action)
        action[h] = ident
        yield dataclasses.replace(w, action=tuple(action))
        for a, b in itertools.combinations(range(1, A.n), 2):
            swap = list(ident)
            swap[a], swap[b] = b, a
            action = list(w.action)
            action[h] = _compose_perm(w.action[h], swap)
            yield dataclasses.replace(w, action=tuple(action))


@pytest.mark.parametrize("spec", ["C2", "C3", "C4", "C2xC2", "C6", "S3", "C8", "C2xC4", "D4", "Q8", "C3xC3", "D6"])
def test_verify_matches_reference_on_mutated_witnesses(spec):
    H = gq.make_group(spec)
    w = iyb_witness_search(H).witness
    assert w.verify() and reference_verify(w)
    verdicts = [(m.verify(), reference_verify(m)) for m in _mutations(w)]
    assert all(new == old for new, old in verdicts)
    assert {new for new, _ in verdicts} == {True, False}


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
    res = lagrangian_quotient_is_iyb(MackeyContext(a), gq.generated_subgroup(G, [2]))
    assert res.witness is not None
    a44 = standard_nondegenerate([4])
    res2 = lagrangian_quotient_is_iyb(MackeyContext(a44), gq.generated_subgroup(a44.group, [4]))
    assert res2.witness is not None and res2.witness.group.n == 4
    a66 = standard_nondegenerate([6])
    L = gq.generated_subgroup(a66.group, [7])
    res3 = lagrangian_quotient_is_iyb(MackeyContext(a66), L)
    assert res3.witness is not None and res3.witness.group.n == 6
    with pytest.raises(DomainError):
        lagrangian_quotient_is_iyb(MackeyContext(a), gq.Subgroup(G, (0,)))
