import numpy as np
import pytest

import gquot as gq
from gquot.cocycles import CocycleTable, standard_nondegenerate
from gquot.errors import CertificationError, SizeBoundError
from gquot.twisted import (
    TwistedAlgebra,
    central_idempotents,
    conjugate_idempotent,
    match_idempotent,
    same_orbit,
)


def conjugacy_class_count(G):
    """Independent class count by plain orbit enumeration."""
    seen, count = set(), 0
    for g in G.elements():
        if g in seen:
            continue
        orbit = {G.conjugate(h, g) for h in G.elements()}
        seen |= orbit
        count += 1
    return count


def test_regular_rep_trivial_cases():
    t = gq.trivial_group()
    A = TwistedAlgebra(t, CocycleTable.trivial(t))
    assert np.allclose(A.u_matrix(0), np.eye(1))
    C2 = gq.cyclic(2)
    A2 = TwistedAlgebra(C2, CocycleTable.trivial(C2))
    U = A2.u_matrix(1)
    assert np.allclose(U, np.array([[0, 1], [1, 0]]))


def test_twisted_multiplication_is_exact():
    a = standard_nondegenerate([2])
    A = TwistedAlgebra(a.group, a)
    for g in a.group.elements():
        for h in a.group.elements():
            lhs = A.u_matrix(g) @ A.u_matrix(h)
            rhs = A.phases[g, h] * A.u_matrix(a.group.mul(g, h))
            assert np.allclose(lhs, rhs, atol=1e-14)


def test_nondegenerate_center_is_one_dimensional():
    a = standard_nondegenerate([2])
    assert TwistedAlgebra(a.group, a).center_dimension() == 1


def test_wedderburn_examples():
    C3 = gq.cyclic(3)
    assert TwistedAlgebra(C3, CocycleTable.trivial(C3)).wedderburn(seed=0).dims == (1, 1, 1)
    a = standard_nondegenerate([2])
    assert TwistedAlgebra(a.group, a).wedderburn(seed=0).dims == (2,)
    S3 = gq.symmetric(3)
    AS3 = TwistedAlgebra(S3, CocycleTable.trivial(S3))
    assert AS3.wedderburn(seed=0).dims == (1, 1, 2)
    assert AS3.center_dimension() == conjugacy_class_count(S3)


@pytest.mark.parametrize("spec", ["C1", "C6", "C2xC4", "S3", "S4", "D4", "D6", "Q8"])
def test_sum_of_squares_exact(spec):
    G = gq.make_group(spec)
    data = TwistedAlgebra(G, CocycleTable.trivial(G)).wedderburn(seed=1)
    assert sum(d * d for d in data.dims) == G.n
    assert data.residual <= 1e-9
    assert TwistedAlgebra(G, CocycleTable.trivial(G)).center_dimension() == conjugacy_class_count(G)


def test_wedderburn_deterministic():
    S3 = gq.symmetric(3)
    t = CocycleTable.trivial(S3)
    d1 = TwistedAlgebra(S3, t).wedderburn(seed=7)
    d2 = TwistedAlgebra(S3, t).wedderburn(seed=7)
    assert d1.dims == d2.dims
    for p, q in zip(d1.blocks, d2.blocks):
        assert np.array_equal(p.coeffs, q.coeffs)
    assert TwistedAlgebra(S3, t).wedderburn(seed=8).dims == d1.dims


def test_size_bound():
    with pytest.raises(SizeBoundError):
        TwistedAlgebra(gq.cyclic(10), CocycleTable.trivial(gq.cyclic(10)), bound=8)


def test_central_idempotents_of_c2():
    C2 = gq.cyclic(2)
    pts = central_idempotents(C2, CocycleTable.trivial(C2), seed=3)
    got = sorted(tuple(np.round(p.coeffs.real, 9)) for p in pts)
    assert got == [(0.5, -0.5), (0.5, 0.5)]
    assert all(p.dim == 1 for p in pts)


def test_central_idempotent_of_nondegenerate_is_identity():
    a = standard_nondegenerate([2])
    pts = central_idempotents(a.group, a, seed=0)
    assert len(pts) == 1 and pts[0].dim == 2
    assert np.allclose(pts[0].coeffs, [1, 0, 0, 0], atol=1e-9)


def test_isotropic_restriction_gives_four_lines():
    a44 = standard_nondegenerate([4])
    rest, sub, _ = a44.restrict(gq.generated_subgroup(a44.group, [4]))
    pts = central_idempotents(sub, rest, seed=0)
    assert sorted(p.dim for p in pts) == [1, 1, 1, 1]


def test_conjugation_fixes_in_abelian_and_inside_n():
    a = standard_nondegenerate([2])
    G = a.group
    triv = CocycleTable.trivial(G)
    A = TwistedAlgebra(G, triv)
    N = gq.Subgroup(G, tuple(range(4)))
    pts = central_idempotents(G, triv, seed=0)
    for p in pts:
        for g in G.elements():
            assert conjugate_idempotent(A, N, g, p, pts) == p


def test_orbit_swap_under_nondegenerate_class():
    a = standard_nondegenerate([2])
    G = a.group
    A = TwistedAlgebra(G, a)
    N = gq.generated_subgroup(G, [2])
    rest, sub, _ = a.restrict(N)
    pts = central_idempotents(sub, rest, seed=0)
    assert same_orbit(A, N, pts[0], pts[1], pts)
    # u_y (index 1) realizes the swap
    moved = conjugate_idempotent(A, N, 1, pts[0], pts)
    assert moved == pts[1]


def test_q8_center_orbits_are_fixed():
    Q8 = gq.quaternion8()
    t = CocycleTable.trivial(Q8)
    A = TwistedAlgebra(Q8, t)
    Z = gq.center(Q8)
    rest, sub, _ = t.restrict(Z)
    pts = central_idempotents(sub, rest, seed=0)
    assert not same_orbit(A, Z, pts[0], pts[1], pts)
    for g in Q8.elements():
        assert conjugate_idempotent(A, Z, g, pts[0], pts) == pts[0]


def test_idempotent_set_closed_under_conjugation():
    for spec, alpha_maker in [("S4", None), ("Q8", None), ("C4xC4", lambda: standard_nondegenerate([4]))]:
        if alpha_maker is None:
            G = gq.make_group(spec)
            alpha = CocycleTable.trivial(G)
        else:
            alpha = alpha_maker()
            G = alpha.group
        A = TwistedAlgebra(G, alpha)
        for N in gq.normal_subgroups(G):
            rest, sub, _ = alpha.restrict(N)
            pts = central_idempotents(sub, rest, seed=0)
            for p in pts:
                for g in G.elements():
                    conjugate_idempotent(A, N, g, p, pts)  # raises if it escapes


def test_transitive_action_for_nondegenerate():
    from gquot.cocycles import is_cohomologically_trivial

    a = standard_nondegenerate([4])
    G = a.group
    A = TwistedAlgebra(G, a)
    for N in list(gq.normal_subgroups(G))[:6]:
        rest, sub, _ = a.restrict(N)
        pts = central_idempotents(sub, rest, seed=0)
        dims = {p.dim for p in pts}
        assert len(dims) == 1
        for p in pts:
            assert same_orbit(A, N, pts[0], p, pts)
        # an isotropic kernel forces one-dimensional modules
        if is_cohomologically_trivial(rest)[0]:
            assert dims == {1}


def test_match_idempotent_rejects_garbage():
    C2 = gq.cyclic(2)
    pts = central_idempotents(C2, CocycleTable.trivial(C2), seed=0)
    with pytest.raises(CertificationError):
        match_idempotent(np.array([0.3 + 0j, 0.1]), pts)


def test_irreducible_rep_of_s3_block():
    S3 = gq.symmetric(3)
    A = TwistedAlgebra(S3, CocycleTable.trivial(S3))
    data = A.wedderburn(seed=1)
    block = next(p for p in data.blocks if p.dim == 2)
    rho = A.irreducible_rep(block, seed=2)
    assert rho.shape == (6, 2, 2)
    for g in S3.elements():
        for h in S3.elements():
            assert np.allclose(rho[g] @ rho[h], rho[S3.mul(g, h)], atol=1e-9)


def test_irreducible_rep_respects_twisting():
    a = standard_nondegenerate([2])
    A = TwistedAlgebra(a.group, a)
    block = A.wedderburn(seed=0).blocks[0]
    rho = A.irreducible_rep(block, seed=0)
    for g in a.group.elements():
        for h in a.group.elements():
            assert np.allclose(
                rho[g] @ rho[h], A.phases[g, h] * rho[a.group.mul(g, h)], atol=1e-9
            )


def test_rep_defect_is_the_worst_twisted_product_entry():
    a = standard_nondegenerate([2, 3])
    G = a.group
    A = TwistedAlgebra(G, a)
    rho = A.irreducible_rep(A.wedderburn(seed=0).blocks[0], seed=0)
    rho[7] = rho[7] * (1 + 1e-4)

    def loop_defect(r):
        return max(
            float(np.max(np.abs(r[g] @ r[h] - A.phases[g, h] * r[G.mul(g, h)])))
            for g in G.elements()
            for h in G.elements()
        )

    assert A._rep_defect(rho) == pytest.approx(loop_defect(rho), rel=1e-9)
    assert A._rep_defect(rho) > 1e-8
