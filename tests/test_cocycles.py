import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gquot as gq
from gquot.catalog import NONDEGENERATE_CARRIERS
from gquot.cocycles import (
    CocycleTable,
    OneCochain,
    bicharacter_of,
    coboundary,
    cohomologous,
    is_cohomologically_trivial,
    is_nondegenerate,
    parse_cocycle,
    standard_nondegenerate,
)
from gquot.errors import DomainError, ValidationError
from gquot.twisted import TwistedAlgebra


def format_cocycle(a: CocycleTable) -> str:
    """The cocycle text format that ``parse_cocycle`` reads."""
    lines = [f"{a.scale} {a.group.n}"]
    for g in range(a.group.n):
        lines.append(" ".join(str(int(x)) for x in a.exps[g]))
    return "\n".join(lines) + "\n"


def test_coboundary_of_zero_is_trivial():
    G = gq.make_group("C2xC2")
    c = OneCochain(G, 4, (0, 0, 0, 0))
    assert coboundary(c).is_trivial_table()
    t = gq.trivial_group()
    assert coboundary(OneCochain(t, 7, (0,))).is_trivial_table()


@given(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)))
@settings(max_examples=50, deadline=None)
def test_coboundary_is_cocycle_and_trivial_class(vals):
    G = gq.make_group("C2xC2")
    c = OneCochain(G, 4, (0,) + vals)
    table = coboundary(c)  # construction re-checks the identity on all 64 triples
    ok, witness = is_cohomologically_trivial(table)
    assert ok
    lifted = table.rescale(witness.scale)
    assert np.array_equal(coboundary(witness).exps, lifted.exps)


def test_cohomologous_reflexive_with_zero_witness():
    a = standard_nondegenerate([2])
    same, witness = cohomologous(a, a)
    assert same and all(v == 0 for v in witness.exps)


def test_nondegenerate_not_trivial_class_with_block_oracle():
    a = standard_nondegenerate([2])
    triv = CocycleTable.trivial(a.group)
    assert not cohomologous(triv, a)[0]
    # independent oracle: block structures differ
    assert TwistedAlgebra(a.group, triv).wedderburn(seed=0).dims == (1, 1, 1, 1)
    assert TwistedAlgebra(a.group, a).wedderburn(seed=0).dims == (2,)


def test_bicharacter_examples():
    G = gq.make_group("C2xC2")
    assert bicharacter_of(CocycleTable.trivial(G)).is_zero()
    a = standard_nondegenerate([2])
    b = bicharacter_of(a)
    # x = (1,0) is index 2, phi(x) = (0,1) is index 1; value is -1, i.e. m/2
    assert b.exps[2, 1] % 2 == a.scale // 2
    assert b.radical().order == 1


@given(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)))
@settings(max_examples=40, deadline=None)
def test_bicharacter_is_class_invariant(vals):
    a = standard_nondegenerate([2]).rescale(4)
    c = OneCochain(a.group, 4, (0,) + vals)
    assert bicharacter_of(a.mul(coboundary(c))) == bicharacter_of(a)


def test_bicharacter_requires_abelian():
    S3 = gq.symmetric(3)
    with pytest.raises(DomainError):
        bicharacter_of(CocycleTable.trivial(S3))


def test_radical_examples():
    G = gq.make_group("C2xC2")
    assert bicharacter_of(CocycleTable.trivial(G)).radical().order == G.n
    a44 = standard_nondegenerate([4])
    # the order-4 subgroup <x^2, y^2> is isotropic: the restricted form vanishes,
    # so its radical is the whole subgroup (it is one of the Lagrangians)
    L = gq.generated_subgroup(a44.group, [8, 2])
    rest, sub, _ = a44.restrict(L)
    assert bicharacter_of(rest).radical().order == sub.n
    assert is_cohomologically_trivial(rest)[0]


def test_standard_nondegenerate_families():
    for n in range(1, 7):
        a = standard_nondegenerate([n])
        assert a.group.n == n * n
        assert bicharacter_of(a).radical().order == 1
    a22 = standard_nondegenerate([2, 2])
    assert a22.group.n == 16 and bicharacter_of(a22).radical().order == 1


def test_restriction_examples():
    a44 = standard_nondegenerate([4])
    G = a44.group
    triv = CocycleTable.trivial(G, 4)
    rest, sub, _ = triv.restrict(gq.generated_subgroup(G, [4]))
    assert rest.is_trivial_table()
    restx, subx, _ = a44.restrict(gq.generated_subgroup(G, [4]))
    assert is_cohomologically_trivial(restx)[0]


def test_restriction_to_sub_products_stays_nondegenerate():
    # the generator-indexed sub-products of the reference class stay non-degenerate
    a = standard_nondegenerate([2, 2])
    G = a.group  # factors ordered x1, x2, phi(x1), phi(x2)
    gens = {0: 8, 1: 4, 2: 2, 3: 1}  # generator indices of the four cyclic factors
    for B in [(0,), (1,), (0, 1)]:
        seeds = [gens[i] for i in B] + [gens[i + 2] for i in B]
        H = gq.generated_subgroup(G, seeds)
        rest, sub, _ = a.restrict(H)
        assert bicharacter_of(rest).radical().order == 1


def test_is_nondegenerate_paths_agree():
    # the exact radical criterion and the block oracle must coincide on
    # every abelian catalog class, trivial and non-degenerate alike
    for invs in ([2], [3], [4], [5], [6], [2, 2]):
        a = standard_nondegenerate(invs)
        radical_verdict = bicharacter_of(a).radical().order == 1
        oracle_verdict = len(TwistedAlgebra(a.group, a).wedderburn(seed=0).dims) == 1
        assert radical_verdict == oracle_verdict == is_nondegenerate(a.group, a)
        t = CocycleTable.trivial(a.group)
        assert (
            (bicharacter_of(t).radical().order == 1)
            == (len(TwistedAlgebra(a.group, t).wedderburn(seed=0).dims) == 1)
            == is_nondegenerate(a.group, t)
        )
    G = gq.make_group("C3xC3")
    assert not is_nondegenerate(G, CocycleTable.trivial(G))


def test_is_nondegenerate_c6xc6():
    a = standard_nondegenerate([6])
    assert is_nondegenerate(a.group, a)
    assert TwistedAlgebra(a.group, a).wedderburn(seed=0).dims == (6,)


def test_cohomologous_is_equivalence_on_samples():
    G = gq.make_group("C2xC2")
    rng = np.random.default_rng(3)
    samples = [CocycleTable.trivial(G, 2), standard_nondegenerate([2])]
    for _ in range(3):
        c = OneCochain(G, 4, (0,) + tuple(int(x) for x in rng.integers(0, 4, 3)))
        samples.append(samples[-1].rescale(4).mul(coboundary(c)))
    for a in samples:
        assert cohomologous(a, a)[0]
    for a in samples:
        for b in samples:
            ab = cohomologous(a, b)[0]
            assert ab == cohomologous(b, a)[0]
            for c in samples:
                if ab and cohomologous(b, c)[0]:
                    assert cohomologous(a, c)[0]


def _certified_cohomologous(a, b):
    """cohomologous(a, b), with its witness re-checked here at the solve scale."""
    same, witness = cohomologous(a, b)
    if same:
        m = witness.scale
        assert np.array_equal(coboundary(witness).exps, (b.rescale(m).exps - a.rescale(m).exps) % m)
    return same


@given(st.data())
@settings(max_examples=4, deadline=None)
def test_coboundary_twist_and_relabeling_at_order_128(data):
    # the bilinear class zeta_8^(x1 y2) on C2 x C8 x C8, element g = (g // 64, g // 8 % 8, g % 8)
    G = gq.make_group("C2xC8xC8")
    coords = np.array([(g // 64, g // 8 % 8, g % 8) for g in range(G.n)])
    a = CocycleTable(G, 8, np.outer(coords[:, 1], coords[:, 2]))
    c = OneCochain(G, 8, [0] + data.draw(st.lists(st.integers(0, 7), min_size=G.n - 1, max_size=G.n - 1)))
    b = a.mul(coboundary(c))
    assert _certified_cohomologous(a, b)
    perm = np.array([0] + data.draw(st.permutations(range(1, G.n))))
    table = np.empty_like(G.table)
    table[np.ix_(perm, perm)] = perm[G.table]
    H = gq.from_table(table)
    moved = []
    for t in (a, b):
        exps = np.empty_like(t.exps)
        exps[np.ix_(perm, perm)] = t.exps
        moved.append(CocycleTable(H, t.scale, exps))
    assert _certified_cohomologous(*moved)
    assert not _certified_cohomologous(CocycleTable.trivial(H, 8), moved[1])


def test_scale_reconciliation():
    G = gq.cyclic(2)
    a = CocycleTable.trivial(G, 2)
    b = CocycleTable.trivial(G, 3)
    assert cohomologous(a, b)[0]
    with pytest.raises(DomainError):
        cohomologous(a, CocycleTable.trivial(gq.cyclic(3), 2))


def inflate(a, proj):
    """Pull a cocycle on a quotient back along the projection."""
    if proj.target != a.group:
        raise DomainError("projection target does not carry the cocycle")
    idx = np.asarray(proj.images)
    return CocycleTable(proj.source, a.scale, a.exps[np.ix_(idx, idx)])


def test_inflate():
    G = gq.make_group("C4xC4")
    N = gq.generated_subgroup(G, [8, 2])
    Q, proj = gq.quotient(G, N)
    aq = standard_nondegenerate([2])
    iso = gq.are_isomorphic(Q, aq.group)
    assert iso.isomorphic
    # pull back along quotient-then-isomorphism; inflation of the identity-class
    relabeled = CocycleTable(Q, aq.scale, aq.exps[np.ix_(iso.hom.images, iso.hom.images)])
    lifted = inflate(relabeled, proj)
    assert lifted.group == G
    # inflation of a trivial table is trivial
    assert inflate(CocycleTable.trivial(Q, 5), proj).is_trivial_table()


def test_cocycle_file_round_trip_and_errors():
    a = standard_nondegenerate([3])
    assert parse_cocycle(format_cocycle(a), a.group) == a
    klein = gq.make_group("C2xC2")
    with pytest.raises(ValidationError, match="line"):
        parse_cocycle("2 4\n0 0 0 0\n0 0 x 0\n0 0 0 0\n0 0 0 0\n", klein)
    with pytest.raises(ValidationError):
        parse_cocycle("2 3\n0 0 0\n0 0 0\n0 0 0\n", klein)


def test_invalid_cocycle_rejected():
    G = gq.cyclic(3)
    bad = np.zeros((3, 3), dtype=int)
    bad[1, 1] = 1  # breaks the cocycle identity for scale 2
    with pytest.raises(ValidationError):
        CocycleTable(G, 2, bad)
    with pytest.raises(ValidationError, match="normalized"):
        CocycleTable(G, 2, np.ones((3, 3), dtype=int))


def reference_first_bad_triple(exps, m, mul):
    """The full (n, n, n) check the slab-wise validator replaced."""
    left = exps[:, :, None] + exps[mul, :]
    right = exps[None, :, :] + exps[:, mul]
    bad = (left - right) % m
    return tuple(int(x) for x in np.argwhere(bad)[0]) if bad.any() else None


@given(
    st.sampled_from(["nd_C2xC2", "nd_C3xC3", "nd_C2xC2xC2xC2", "S3", "Q8"]),
    st.data(),
)
@settings(max_examples=40, deadline=None)
def test_corrupted_table_reports_reference_triple(name, data):
    if name.startswith("nd_"):
        a = standard_nondegenerate(NONDEGENERATE_CARRIERS[name[3:]])
    else:
        a = CocycleTable.trivial(gq.make_group(name), 4)
    n, m = a.group.n, a.scale
    exps = a.exps.copy()
    for _ in range(data.draw(st.integers(1, 3))):
        g, h = data.draw(st.integers(1, n - 1)), data.draw(st.integers(1, n - 1))
        exps[g, h] = (exps[g, h] + data.draw(st.integers(1, m - 1))) % m
    triple = reference_first_bad_triple(exps, m, a.group.table)
    if triple is None:
        CocycleTable(a.group, m, exps)
    else:
        with pytest.raises(ValidationError, match=re.escape(f"triple ({triple[0]},{triple[1]},{triple[2]})")):
            CocycleTable(a.group, m, exps)
