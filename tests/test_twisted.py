import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gquot as gq
from gquot import twisted
from gquot.catalog import GROUP_SPECS, NONDEGENERATE_CARRIERS
from gquot.cocycles import CocycleTable, OneCochain, coboundary, standard_nondegenerate
from gquot.errors import CertificationError, SizeBoundError, ValidationError
from gquot.groups import generating_sequence
from gquot.mackey import mackey_decompose
from gquot.suite import sweep_cases
from gquot.twisted import (
    MAX_ATTEMPTS,
    TOL_CLUSTER,
    TOL_ROUND,
    BlockOracle,
    CenterClass,
    IrrPoint,
    TwistedAlgebra,
    is_nondegenerate,
    match_idempotents,
    _cluster,
)


def conjugate(G, h, g):
    """h g h^-1, one product at a time."""
    return G.mul(G.mul(h, g), G.inv(h))


def conjugacy_class_count(G):
    """Independent class count by plain orbit enumeration."""
    seen, count = set(), 0
    for g in G.elements():
        if g in seen:
            continue
        orbit = {conjugate(G, h, g) for h in G.elements()}
        seen |= orbit
        count += 1
    return count


def u_matrix(A, g):
    """The matrix of u_g on the regular representation."""
    return A.left_regular(np.eye(A.n, dtype=np.complex128)[g])


def test_regular_rep_trivial_cases():
    t = gq.trivial_group()
    A = TwistedAlgebra(t, CocycleTable.trivial(t))
    assert np.allclose(u_matrix(A, 0), np.eye(1))
    C2 = gq.cyclic(2)
    A2 = TwistedAlgebra(C2, CocycleTable.trivial(C2))
    U = u_matrix(A2, 1)
    assert np.allclose(U, np.array([[0, 1], [1, 0]]))


def test_twisted_multiplication_is_exact():
    a = standard_nondegenerate([2])
    A = TwistedAlgebra(a.group, a)
    for g in a.group.elements():
        for h in a.group.elements():
            lhs = u_matrix(A, g) @ u_matrix(A, h)
            rhs = A.phases[g, h] * u_matrix(A, a.group.mul(g, h))
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
    C257 = gq.cyclic(257)
    with pytest.raises(SizeBoundError, match="bounded at order 256, group has 257"):
        TwistedAlgebra(C257, CocycleTable.trivial(C257))
    with pytest.raises(SizeBoundError, match="bounded at order 256"):
        is_nondegenerate(CocycleTable.trivial(C257))


def test_complex_cocycle_is_refused():
    a = standard_nondegenerate([2])
    with pytest.raises(ValidationError, match="takes a CocycleTable, not ndarray"):
        TwistedAlgebra(a.group, a.value_matrix())


# -- the idempotent orbit step one pair at a time, as the tests below use it ---


def central_idempotents(G_N, alpha_N, seed=0):
    """Primitive central idempotents of C^a N, one per irreducible type."""
    return TwistedAlgebra(G_N, alpha_N).wedderburn(seed=seed).blocks


def conjugate_idempotent(A, N, g, point, points):
    """The idempotent u_g iota u_g^-1 of the g-twisted module, matched against
    the known set; raises if conjugation leaves N."""
    pos = {n: i for i, n in enumerate(N.elements)}
    raw = np.zeros(len(N.elements), dtype=np.complex128)
    G, W = A.group, A.phases
    for i, n in enumerate(N.elements):
        target, gn, ginv = conjugate(G, g, n), G.mul(g, n), G.inv(g)
        assert target in pos, f"conjugating {n} by {g} leaves N"
        raw[pos[target]] = point.coeffs[i] * W[g, n] * W[gn, ginv] / W[g, ginv]
    (index,) = match_idempotents(raw[None, None], np.array([[p.coeffs for p in points]]))
    if isinstance(index, CertificationError):
        raise index
    return points[index[0]]


def same_orbit(A, N, p1, p2, points):
    """Whether two idempotents are conjugate under the ambient group.

    Both the explicit conjugation orbit and the two-sided non-vanishing
    criterion iota2 * C^a G * iota1 != 0 are evaluated; they must agree.
    """
    by_conj = any(conjugate_idempotent(A, N, g, p1, points) == p2 for g in A.group.elements())
    emb1, emb2 = _embed(A, N.elements, p1.coeffs), _embed(A, N.elements, p2.coeffs)
    # column g of the product is iota2 * u_g * iota1
    by_product = float(np.max(np.abs(A.right_regular(emb1) @ A.left_regular(emb2)))) > TOL_ROUND
    assert by_conj == by_product, "orbit criteria disagree: conjugation vs non-vanishing product"
    return by_conj


def _embed(A, N_elems, coeffs):
    out = np.zeros(A.n, dtype=np.complex128)
    out[list(N_elems)] = coeffs
    return out


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
    rest = a44.restrict(gq.generated_subgroup(a44.group, [4]))
    pts = central_idempotents(rest.group, rest, seed=0)
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
    rest = a.restrict(N)
    pts = central_idempotents(rest.group, rest, seed=0)
    assert same_orbit(A, N, pts[0], pts[1], pts)
    # u_y (index 1) realizes the swap
    moved = conjugate_idempotent(A, N, 1, pts[0], pts)
    assert moved == pts[1]


def test_q8_center_orbits_are_fixed():
    Q8 = gq.quaternion8()
    t = CocycleTable.trivial(Q8)
    A = TwistedAlgebra(Q8, t)
    Z = gq.center(Q8)
    rest = t.restrict(Z)
    pts = central_idempotents(rest.group, rest, seed=0)
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
            rest = alpha.restrict(N)
            pts = central_idempotents(rest.group, rest, seed=0)
            for p in pts:
                for g in G.elements():
                    conjugate_idempotent(A, N, g, p, pts)  # raises if it escapes


def test_transitive_action_for_nondegenerate():
    from gquot.cocycles import is_cohomologically_trivial

    a = standard_nondegenerate([4])
    G = a.group
    A = TwistedAlgebra(G, a)
    for N in list(gq.normal_subgroups(G))[:6]:
        rest = a.restrict(N)
        pts = central_idempotents(rest.group, rest, seed=0)
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
    (outcome,) = match_idempotents(np.array([[[0.3 + 0j, 0.1]]]), np.array([[p.coeffs for p in pts]]))
    assert isinstance(outcome, CertificationError)


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
    rho = A.irreducible_rep(A.wedderburn(seed=0).blocks[0], seed=0).copy()  # the result is read-only
    rho[7] = rho[7] * (1 + 1e-4)

    def loop_defect(r):
        return max(
            float(np.max(np.abs(r[g] @ r[h] - A.phases[g, h] * r[G.mul(g, h)])))
            for g in G.elements()
            for h in G.elements()
        )

    assert reference_rep_defect(A, rho) == pytest.approx(loop_defect(rho), rel=1e-9)
    assert reference_rep_defect(A, rho) > 1e-8
    assert A._rep_defect_bound(rho) > 1e-8


# -- reference: the all-pairs projective law the generator-column bound replaced


def reference_rep_defect(A, rho):
    """max |rho(g) rho(h) - phase(g, h) rho(gh)| over all n^2 pairs, one batched product per row g."""
    table = A.group.table
    return max(
        float(np.max(np.abs(rho[g] @ rho - A.phases[g, :, None, None] * rho[table[g]])))
        for g in range(A.n)
    )


def reference_generator_bound(A, rho):
    """max(||rho(e) - I||_F, (2L - 1) eps_gen) one pair at a time, with the
    word lengths from a breadth-first search over Python sets."""
    G = A.group
    gens = generating_sequence(G)
    length, frontier, depth = {0: 0}, [0], 0
    while frontier:
        depth += 1
        frontier = sorted({G.mul(h, s) for h in frontier for s in gens} - set(length))
        length.update((w, depth) for w in frontier)
    assert len(length) == G.n
    eps_gen = max(
        (
            float(np.linalg.norm(rho[x] @ rho[s] - A.phases[x, s] * rho[G.mul(x, s)]))
            for x in G.elements()
            for s in gens
        ),
        default=0.0,
    )
    identity = float(np.linalg.norm(rho[0] - np.eye(rho.shape[1])))
    return max(identity, (2 * max(length.values()) - 1) * eps_gen), length


def _law_cases():
    for gname, _, cname, a in sweep_cases():
        yield f"{gname}/{cname}", a
    for spec in ["S4xC2xC2", "D8xC4xC2"]:
        yield spec, CocycleTable.trivial(gq.make_group(spec))
    for inv in ([2, 8], [4, 4], [16]):
        yield f"standard_nondegenerate({inv})", standard_nondegenerate(inv)


LAW_CASES = dict(_law_cases())


@pytest.mark.parametrize("name", list(LAW_CASES))
def test_generator_column_bound_dominates_the_all_pairs_defect(name):
    """Every module of every block passes the all-pairs law within 1e-8, and
    the generator-column bound the extraction certifies is at least the
    all-pairs entry defect; scaling the module at the deepest element that
    is not a generator by 1 + 1e-6 is rejected."""
    a = LAW_CASES[name]
    A = TwistedAlgebra(a.group, a)
    for p in A.wedderburn(seed=0).blocks:
        rho = A.irreducible_rep(p, seed=0)
        bound, length = reference_generator_bound(A, rho)
        assert A._rep_defect_bound(rho) == pytest.approx(bound, rel=1e-9, abs=1e-15)
        reference = reference_rep_defect(A, rho)
        assert reference <= 1e-8
        assert reference <= bound
        deepest = max(length, key=length.get)
        if length[deepest] > 1:
            broken = rho.copy()
            broken[deepest] *= 1 + 1e-6
            assert A._rep_defect_bound(broken) > 1e-8


# -- reference: the breadth-first class search the table routine replaced -------


def reference_kappa_exp(A, h, g):
    c, m, G = A.cocycle.exps, A.cocycle.scale, A.group
    hg, hinv = G.mul(h, g), G.inv(h)
    return int(c[h, g] + c[hg, hinv] - c[h, hinv]) % m


def reference_class_exact(A, g0):
    G, m = A.group, A.cocycle.scale
    expo = {g0: 0}
    queue = [g0]
    consistent = True
    while queue:
        g = queue.pop()
        for h in range(A.n):
            g2 = conjugate(G, h, g)
            e2 = (expo[g] + reference_kappa_exp(A, h, g)) % m
            if g2 in expo:
                if expo[g2] != e2:
                    consistent = False
            else:
                expo[g2] = e2
                queue.append(g2)
    elems = tuple(sorted(expo))
    if not consistent:
        return CenterClass(elems, None)
    return CenterClass(elems, np.exp(2j * np.pi * np.array([expo[g] for g in elems]) / m))


def reference_center_classes(A):
    seen, out = set(), []
    for g0 in range(A.n):
        if g0 in seen:
            continue
        cls = reference_class_exact(A, g0)
        seen.update(cls.elements)
        out.append(cls)
    return out


def _center_cases():
    rng = np.random.default_rng(0)

    def perturbed(a):
        f = OneCochain(a.group, 4, [0] + rng.integers(0, 4, a.group.n - 1).tolist())
        return a.mul(coboundary(f))

    for spec in list(GROUP_SPECS) + ["S4xC2", "D8xC2", "Q8xC2", "D4xD4"]:
        t = CocycleTable.trivial(gq.make_group(spec))
        yield spec, t
        yield spec + "+coboundary", perturbed(t)
    for carrier, inv in NONDEGENERATE_CARRIERS.items():
        a = standard_nondegenerate(inv)
        yield "nd_" + carrier, a
        yield "nd_" + carrier + "+coboundary", perturbed(a)


def _obstruction_algebras():
    """Exact obstruction cocycles as they arrive from Mackey orbits."""
    for name, a, N in [
        ("nd_C2xC2", standard_nondegenerate([2]), (0,)),
        ("nd_C4xC4", standard_nondegenerate([4]), (0,)),
        ("Q8", CocycleTable.trivial(gq.quaternion8()), gq.center(gq.quaternion8()).elements),
    ]:
        for o in mackey_decompose(a, gq.Subgroup(a.group, N), seed=0).orbits:
            yield f"omega of {name}/{N}", TwistedAlgebra(o.omega.group, o.omega)


def test_center_classes_match_reference():
    cases = [(name, TwistedAlgebra(a.group, a)) for name, a in _center_cases()]
    cases += list(_obstruction_algebras())
    assert len(cases) == 2 * (len(GROUP_SPECS) + 4 + len(NONDEGENERATE_CARRIERS)) + 4
    for name, A in cases:
        got, want = A.center_classes(), reference_center_classes(A)
        assert [c.elements for c in got] == [c.elements for c in want], name
        for c, r in zip(got, want):
            assert (c.phases is None) == (r.phases is None), (name, c.elements)
            if c.phases is None:
                continue
            assert c.phases[0] == 1, (name, c.elements)  # the smallest element anchors the class
            assert np.array_equal(c.phases, r.phases), (name, c.elements)


# -- reference: the per-element loops the table-driven regular representation replaced


def reference_left_regular(A, x):
    out = np.zeros((A.n, A.n), dtype=np.complex128)
    cols = np.arange(A.n)
    for g in range(A.n):
        if x[g] != 0:
            out[A.group.table[g], cols] += x[g] * A.phases[g]
    return out


def reference_right_regular(A, x):
    out = np.zeros((A.n, A.n), dtype=np.complex128)
    for h in range(A.n):
        if x[h] != 0:
            out[A.group.table[:, h], np.arange(A.n)] += x[h] * A.phases[:, h]
    return out


def reference_multiply(A, x, y):
    out = np.zeros(A.n, dtype=np.complex128)
    for g in range(A.n):
        if x[g] != 0:
            np.add.at(out, A.group.table[g], x[g] * y * A.phases[g])
    return out


def reference_u_matrix(A, g):
    v = np.zeros(A.n, dtype=np.complex128)
    v[g] = 1.0
    return reference_left_regular(A, v)


def reference_irreducible_rep(A, point, seed):
    """The extraction with one dense u_g matrix per element, on the block
    basis the point carries, the identity for a simple algebra's block."""
    d, B = point.dim, np.eye(A.n) if point.basis is None else point.basis
    rng = np.random.default_rng(seed)
    for _ in range(MAX_ATTEMPTS):
        R = reference_right_regular(A, rng.standard_normal(A.n) + 1j * rng.standard_normal(A.n))
        evals, evecs = np.linalg.eigh(B.conj().T @ (R + R.conj().T) @ B)
        clusters = _cluster(evals, TOL_CLUSTER * max(1.0, float(np.max(np.abs(evals)))))
        chosen = next((idx for idx in clusters if len(idx) == d), None)
        if chosen is None:
            continue
        Q = B @ evecs[:, chosen]
        rho = np.array([Q.conj().T @ reference_u_matrix(A, g) @ Q for g in range(A.n)])
        if reference_rep_defect(A, rho) <= 1e-8:
            return rho
    raise CertificationError("reference extraction failed")


def reference_match_idempotent(coeffs, points):
    hits = [p for p in points if float(np.max(np.abs(p.coeffs - coeffs))) <= TOL_ROUND]
    if len(hits) != 1:
        raise CertificationError(f"idempotent match found {len(hits)} candidates within {TOL_ROUND}")
    return hits[0]


def reference_match_rows(rows, points):
    return tuple(reference_match_idempotent(r, points).index for r in rows)


def _regular_rep_algebras():
    for spec in GROUP_SPECS:
        G = gq.make_group(spec)
        yield spec, TwistedAlgebra(G, CocycleTable.trivial(G))
    for carrier, inv in NONDEGENERATE_CARRIERS.items():
        a = standard_nondegenerate(inv)
        yield "nd_" + carrier, TwistedAlgebra(a.group, a)
    for spec in ["S4xC2xC2", "D8xC4xC2"]:
        G = gq.make_group(spec)
        yield spec, TwistedAlgebra(G, CocycleTable.trivial(G))
    for inv in ([8], [2, 8], [4, 4]):
        a = standard_nondegenerate(inv)
        yield f"standard_nondegenerate({inv})", TwistedAlgebra(a.group, a)
    yield from _obstruction_algebras()


REGULAR_REP_ALGEBRAS = dict(_regular_rep_algebras())


@pytest.mark.parametrize("name", list(REGULAR_REP_ALGEBRAS))
def test_regular_representation_matches_reference(name):
    """Both regular representations equal the loops exactly; products,
    the same-orbit identity and the extracted representations agree to 1e-12."""
    A = REGULAR_REP_ALGEBRAS[name]
    rng = np.random.default_rng(A.n)
    x, y = (rng.standard_normal(A.n) + 1j * rng.standard_normal(A.n) for _ in range(2))
    x[rng.random(A.n) < 0.3] = 0  # the loops skip zero coefficients
    for v in (x, y):
        assert np.array_equal(A.left_regular(v), reference_left_regular(A, v))
        assert np.array_equal(A.right_regular(v), reference_right_regular(A, v))
    for g in rng.choice(A.n, min(A.n, 8), replace=False):
        assert np.array_equal(u_matrix(A, g), reference_u_matrix(A, g))
    assert np.max(np.abs(A.left_regular(x) @ y - reference_multiply(A, x, y))) <= 1e-12
    both = A.right_regular(y) @ A.left_regular(x)  # column g: x * u_g * y
    for g in rng.choice(A.n, min(A.n, 4), replace=False):
        want = reference_multiply(A, reference_multiply(A, x, np.eye(A.n)[g]), y)
        assert np.max(np.abs(both[:, g] - want)) <= 1e-12
    blocks = A.wedderburn(seed=0).blocks
    for p in {blocks[0], blocks[-1]}:
        residual = A.left_regular(p.coeffs) @ p.coeffs - p.coeffs
        assert np.max(np.abs(residual - (reference_multiply(A, p.coeffs, p.coeffs) - p.coeffs))) <= 1e-12
        rho = A.irreducible_rep(p, seed=1)
        assert np.max(np.abs(rho - reference_irreducible_rep(A, p, seed=1))) <= 1e-12


@pytest.mark.parametrize("name", list(REGULAR_REP_ALGEBRAS))
def test_block_basis_spans_the_block(name):
    """Each point's basis is orthonormal and spans the image of left
    multiplication by its idempotent: its projector is the SVD projector of
    that matrix.  A simple algebra's one block carries no basis, standing
    for the standard basis of the whole algebra, which is what that
    projector then is.  The algebras include the four of the certify
    workload (S4xC2xC2, D8xC4xC2, and the non-degenerate classes on
    (C2xC8)^2 and (C4xC4)^2)."""
    A = REGULAR_REP_ALGEBRAS[name]
    for p in A.wedderburn(seed=0).blocks:
        if p.basis is None:  # the whole algebra in its standard basis
            assert p.dim**2 == A.n and A.center_dimension() == 1
            B = np.eye(A.n)
        else:
            B = p.basis
            assert B.shape == (A.n, p.dim**2) and not B.flags.writeable
        assert np.max(np.abs(B.conj().T @ B - np.eye(p.dim**2))) <= 1e-12
        U = np.linalg.svd(reference_left_regular(A, p.coeffs))[0][:, : p.dim**2]
        assert np.max(np.abs(B @ B.conj().T - U @ U.conj().T)) <= 1e-12


def _match_outcome(rows, points):
    try:
        return reference_match_rows(rows, points)
    except CertificationError as exc:
        return str(exc)


@pytest.mark.parametrize("spec", ["C4", "S3", "Q8", "C2xC2xC2", "S4"])
def test_match_idempotent_matches_reference(spec):
    """Stacked matches equal the one-point loop, errors included: rows near
    no point, near one, and near two (the points plus a twin 1e-9 from the
    first)."""
    G = gq.make_group(spec)
    points = TwistedAlgebra(G, CocycleTable.trivial(G)).wedderburn(seed=0).blocks
    twin = IrrPoint(points[0].coeffs + 1e-9, points[0].dim, len(points), basis=points[0].basis)
    known = np.array([p.coeffs for p in points])
    rng = np.random.default_rng(0)
    exact = known[rng.permutation(len(points))]
    near = exact + 1e-9 * rng.standard_normal(exact.shape)
    stacks = [exact, near, exact[:1]]
    for garbage in (np.zeros(G.n), (known[0] + known[-1]) / 2, np.full(G.n, np.nan), rng.standard_normal(G.n)):
        stacks.append(np.vstack([exact, garbage]))
        stacks.append(np.vstack([garbage, exact]))
    for rows in stacks:
        for known_points in (points, points + (twin,)):
            (got,) = match_idempotents(rows[None], np.array([[p.coeffs for p in known_points]]))
            got = str(got) if isinstance(got, CertificationError) else tuple(got.tolist())
            assert got == _match_outcome(rows, known_points)


# -- the block oracle registry --------------------------------------------------


def test_block_oracle_splits_each_exact_input_once(monkeypatch):
    """A repeated (group table, scale, exponents) is a hit on one oracle; any
    change is a miss, and an oracle at another seed splits the same input
    again, at its own seed, while the first still hits."""
    calls = []
    original = twisted.split_algebras

    def counted(algebras, seed):
        calls.extend((A.n, seed) for A in algebras)
        return original(algebras, seed)

    monkeypatch.setattr(twisted, "split_algebras", counted)
    oracle = BlockOracle()
    a = standard_nondegenerate([2])
    first = oracle.wedderburn(a)
    assert oracle.wedderburn(a) is first and len(calls) == 1
    # an equal table in another group object, with an equal exponent table, is the same input
    H = gq.FiniteGroup(a.group.table.copy(), name="relabeled")
    assert oracle.wedderburn(CocycleTable(H, a.scale, a.exps.copy())) is first and len(calls) == 1
    BlockOracle(1).wedderburn(a)  # another seed, on another oracle
    assert calls[-1] == (a.group.n, 1) and len(calls) == 2
    assert oracle.wedderburn(a) is first and len(calls) == 2
    oracle.wedderburn(a.rescale(4))  # another scale, the same values
    oracle.wedderburn(CocycleTable.trivial(a.group, a.scale))  # other exponents
    assert len(calls) == 4
    assert oracle.wedderburn(a.rescale(4)).dims == first.dims
    ((rho, _),) = oracle.irreducible_reps([(a, 0)])
    assert oracle.irreducible_reps([(a, 0)])[0][0] is rho and len(calls) == 4
    assert np.array_equal(rho, TwistedAlgebra(a.group, a).irreducible_rep(first.blocks[0], seed=0))


def test_block_oracle_measures_each_module_law_once(monkeypatch):
    """A module's projective-law bound is measured once, by the extraction
    that certifies it: one ``_rep_defect_bound`` call per certified module,
    hits included, and the kept bound is what a fresh measurement reads."""
    calls = []
    original = TwistedAlgebra._rep_defect_bound

    def counted(self, rho):
        calls.append(self.n)
        return original(self, rho)

    monkeypatch.setattr(TwistedAlgebra, "_rep_defect_bound", counted)
    oracle = BlockOracle()
    names = ["S3/trivial", "Q8/trivial", "D4/trivial", "C4xC4/nd_C4xC4", "standard_nondegenerate([2, 8])", "S4xC2xC2"]
    modules = 0
    for name in names:
        a = LAW_CASES[name]
        for index in range(len(oracle.wedderburn(a).blocks)):
            for _ in range(2):
                ((rho, bound),) = oracle.irreducible_reps([(a, index)])
                assert bound == original(TwistedAlgebra(a.group, a), rho)
            modules += 1
    assert modules > 20 and len(calls) == modules == len(oracle._modules)
    # the obstruction passes read the kept bounds: a decomposition adds one
    # call per module it certifies, none per bound it charges
    G = gq.make_group("Q8xC2xC2")
    before = len(calls)
    context = gq.MackeyContext(CocycleTable.trivial(G), oracle=oracle)
    for N in gq.normal_subgroups(G)[:6]:
        context.decompose(N)
    assert len(calls) - before == len(oracle._modules) - modules > 0


# -- give-up raises: every attempt fails a certificate -------------------------


def _s3_algebra():
    S3 = gq.symmetric(3)
    return TwistedAlgebra(S3, CocycleTable.trivial(S3))


@pytest.mark.parametrize(
    "clusters, reason",
    [
        (lambda vals, tol: [list(range(len(vals)))], "cluster count 1 != center dimension 3"),
        (lambda vals, tol: [[0, 1], [2], [3, 4, 5]], "block trace 2.000000000000 does not certify as a square"),
        (lambda vals, tol: [[0], [1], [2]], "sum of squared dimensions misses the group order"),
    ],
)
def test_block_oracle_gives_up_after_every_attempt_fails(monkeypatch, clusters, reason):
    """No draw of the central sample certifies: wedderburn raises after
    MAX_ATTEMPTS with the last attempt's reason."""
    draws = []
    monkeypatch.setattr(twisted, "_cluster", lambda vals, tol: draws.append(tol) or clusters(vals, tol))
    with pytest.raises(CertificationError) as info:
        _s3_algebra().wedderburn(seed=0)
    assert str(info.value) == f"block oracle failed after {MAX_ATTEMPTS} attempts: {reason}"
    assert len(draws) == MAX_ATTEMPTS


def test_irreducible_extraction_gives_up_without_a_cluster_of_the_module_dimension(monkeypatch):
    A = _s3_algebra()
    block = next(p for p in A.wedderburn(seed=0).blocks if p.dim == 2)
    monkeypatch.setattr(twisted, "_cluster", lambda vals, tol: [[i] for i in range(len(vals))])
    with pytest.raises(CertificationError) as info:
        A.irreducible_rep(block, seed=0)
    assert str(info.value) == "irreducible extraction failed: no eigencluster of the module dimension"


def test_irreducible_extraction_gives_up_when_the_product_law_fails(monkeypatch):
    A = _s3_algebra()
    block = next(p for p in A.wedderburn(seed=0).blocks if p.dim == 2)
    bounds = []
    monkeypatch.setattr(TwistedAlgebra, "_rep_defect_bound", lambda self, rho: bounds.append(rho) or 2e-8)
    with pytest.raises(CertificationError) as info:
        A.irreducible_rep(block, seed=0)
    assert str(info.value) == "irreducible extraction failed: extracted matrices fail the twisted product law"
    assert len(bounds) == MAX_ATTEMPTS
    # the bound comes back only with a certified module: the failed one returns its error alone
    (outcome,) = twisted.extract_modules([(A, block)], 0)
    assert isinstance(outcome, CertificationError) and str(outcome) == str(info.value)
    assert len(bounds) == 2 * MAX_ATTEMPTS


# -- simple algebras: the one block read off the exact center ------------------


def _simple_algebras():
    """Every algebra of the regular-representation list with a center of
    dimension one, and the non-degenerate obstructions of the sweep."""
    for name, A in REGULAR_REP_ALGEBRAS.items():
        if A.center_dimension() == 1:
            yield name, A
    for gname, _, cname, a in sweep_cases():
        context = gq.MackeyContext(a)
        for N in gq.normal_subgroups(a.group):
            for i, o in enumerate(context.decompose(N).orbits):
                if o.omega_nondegenerate and o.omega.group.n > 1:
                    yield f"omega {i} of {gname}/{cname}/N{list(N.elements)}", TwistedAlgebra(o.omega.group, o.omega)


SIMPLE_ALGEBRAS = dict(_simple_algebras())


@pytest.mark.parametrize("name", list(SIMPLE_ALGEBRAS))
def test_simple_block_matches_a_forced_eigensplit(name):
    """With center dimension one, ``wedderburn`` reads the block off exactly:
    dims (sqrt n,), idempotent u_e, the standard basis (``basis`` None),
    residual 0.  The numeric split it skips, forced on the same algebra
    through the stacked stage of ``split_algebras`` at k = 1, gives the same
    dims and an idempotent within TOL_ROUND of u_e, and a module cut out of
    either block passes the projective law."""
    A = SIMPLE_ALGEBRAS[name]
    exact = A.wedderburn(seed=0)
    split = twisted._Split(A, 0)
    twisted._stacked_attempts([split], "")
    forced = split.outcome
    d = int(round(A.n**0.5))
    assert split.k == 1
    assert exact.dims == forced.dims == (d,) and exact.residual == 0.0
    (point,) = exact.blocks
    assert (point.dim, point.index) == (d, 0)
    assert np.array_equal(point.coeffs, np.eye(A.n)[0]) and point.basis is None
    assert not point.coeffs.flags.writeable
    assert np.max(np.abs(forced.blocks[0].coeffs - point.coeffs)) <= TOL_ROUND
    if A.n <= 64:
        for p in (point, forced.blocks[0]):
            assert A.irreducible_rep(p, seed=1).shape == (A.n, d, d)


def test_simple_blocks_cover_the_catalog_carriers():
    """The cases above include every non-degenerate carrier, the order-256
    algebras of the certify workload and obstructions of several sizes."""
    names = set(SIMPLE_ALGEBRAS)
    assert {"nd_" + c for c in NONDEGENERATE_CARRIERS} <= names
    assert {"standard_nondegenerate([2, 8])", "standard_nondegenerate([4, 4])"} <= names
    assert len({A.n for A in SIMPLE_ALGEBRAS.values()}) >= 4


def test_a_simple_algebra_of_non_square_dimension_raises(monkeypatch):
    """Fault injection: a center reported as one-dimensional on C2, whose
    algebra C + C is not simple, meets the square certificate."""
    C2 = gq.cyclic(2)
    A = TwistedAlgebra(C2, CocycleTable.trivial(C2))
    rep, kept, phases = A._twisted_classes()
    assert A.wedderburn(seed=0).dims == (1, 1)
    monkeypatch.setattr(TwistedAlgebra, "_twisted_classes", lambda self: (rep, np.array([True, False]), phases))
    with pytest.raises(CertificationError) as raised:
        A.wedderburn(seed=0)
    assert str(raised.value) == "simple algebra of dimension 2 is not a square"


@pytest.mark.parametrize("name", list(SIMPLE_ALGEBRAS))
def test_a_simple_block_cuts_the_module_of_the_identity_basis(name):
    """The simple block stores no n x n identity: the module it cuts out
    uncompressed equals, by value, the one cut out through the identity
    basis it stood for, on every catalog square, the order-256 algebras of
    the certify workload and the sweep's non-degenerate obstructions."""
    A = SIMPLE_ALGEBRAS[name]
    (point,) = A.wedderburn(seed=0).blocks
    dense = IrrPoint(point.coeffs, point.dim, point.index, np.eye(A.n, dtype=np.complex128))
    assert np.array_equal(A.irreducible_rep(point, seed=0), A.irreducible_rep(dense, seed=0))


# -- stacked splits: one eigh per order and attempt -----------------------------


def reference_eigensplit(A, seed):
    """The numeric split with one eigh per algebra and attempt, as it was
    before the samples of one order were stacked."""
    rep, kept, phases = A._twisted_classes()
    reps = np.unique(rep[kept])
    slot, phases = np.searchsorted(reps, rep[kept]), phases[kept]
    k = len(reps)
    rng = np.random.default_rng(seed)
    for _ in range(MAX_ATTEMPTS):
        coeffs = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        z = np.zeros(A.n, dtype=np.complex128)
        z[kept] = coeffs[slot] * phases
        Z = A.left_regular(z)
        evals, evecs = np.linalg.eigh(Z + Z.conj().T)
        clusters = _cluster(evals, TOL_CLUSTER * max(1.0, float(np.max(np.abs(evals)))))
        if len(clusters) != k:
            continue
        points = []
        for ci, idx in enumerate(clusters):
            V = evecs[:, idx]
            d = np.sqrt(max(float(np.vdot(V, V).real), 0.0))
            if round(d) < 1 or abs(d - round(d)) > TOL_ROUND:
                break
            points.append(IrrPoint(V @ V[0].conj(), int(round(d)), ci, V))
        else:
            if sum(p.dim**2 for p in points) != A.n:
                continue
            residual = max(float(np.max(np.abs(A.left_regular(p.coeffs) @ p.coeffs - p.coeffs))) for p in points)
            if residual > twisted.TOL_IDEMPOTENT:
                continue
            points.sort(key=lambda p: (p.dim, p.index))
            blocks = tuple(IrrPoint(p.coeffs, p.dim, rank, p.basis) for rank, p in enumerate(points))
            return twisted.WedderburnData(tuple(p.dim for p in points), blocks, residual)
    raise CertificationError("reference split failed")


def _lattice_algebras():
    """One algebra per exact input among the restrictions of the sweep's
    classes to their normal subgroups and of both theorem_d carriers'
    classes, on C8xC8 and C2xC4xC2xC4, to every subgroup: orders 1 to 64."""
    seen = {}
    cases = [(a, gq.normal_subgroups(a.group)) for _, _, _, a in sweep_cases()]
    cases += [(a, gq.subgroups(a.group)) for a in map(standard_nondegenerate, ([8], [2, 4]))]
    for a, normals in cases:
        for N in normals:
            r = a.restrict(N)
            seen.setdefault((r.group.table.tobytes(), r.scale, r.exps.tobytes()), r)
    return [TwistedAlgebra(r.group, r) for r in seen.values()]


LATTICE_ALGEBRAS = _lattice_algebras()


def assert_same_split(got, want):
    """Equal dims and residual, and every point equal bit for bit."""
    assert isinstance(got, twisted.WedderburnData) and got.dims == want.dims and got.residual == want.residual
    assert len(got.blocks) == len(want.blocks)
    for p, q in zip(got.blocks, want.blocks):
        assert (p.index, p.dim, p.coeffs.tobytes()) == (q.index, q.dim, q.coeffs.tobytes())
        assert (p.basis is None and q.basis is None) or p.basis.tobytes() == q.basis.tobytes()


@pytest.mark.parametrize("budget", [twisted.SPLIT_BUDGET, 700])
def test_a_stacked_split_equals_each_algebra_split_alone(monkeypatch, budget):
    """One ``split_algebras`` pass over the lattice algebras, in stacks of
    the module budget and of one that cuts every order above 8 into stacks
    of two or of one, equals each algebra split alone, and each numeric
    split equals the one-eigh-per-algebra reference, bit for bit."""
    algebras = LATTICE_ALGEBRAS
    numeric = [A for A in algebras if A.center_dimension() > 1]
    orders = {}
    for A in numeric:
        orders[A.n] = orders.get(A.n, 0) + 1
    assert len(orders) >= 5 and any(count > max(1, budget // (n * n)) for n, count in orders.items())
    stacks, eigh = [], np.linalg.eigh
    monkeypatch.setattr(twisted, "SPLIT_BUDGET", budget)
    monkeypatch.setattr(np.linalg, "eigh", lambda a: stacks.append(len(a)) or eigh(a))
    outcomes = twisted.split_algebras(algebras, 1)
    monkeypatch.undo()
    assert len(stacks) < len(numeric) and max(stacks) > 1  # the samples were stacked
    for A, got in zip(algebras, outcomes):
        assert_same_split(got, A.wedderburn(seed=1))
        if A.center_dimension() > 1:
            assert_same_split(got, reference_eigensplit(A, 1))


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(1, 40)), max_size=30), st.integers(1, 100), st.booleans())
@settings(max_examples=300, deadline=None)
def test_stacks_cut_each_key_greedily_within_the_budget(pairs, budget, uniform):
    """Over random keys, costs and budgets: each key's stacks, joined, give
    its items in order, keys in order of first appearance; every stack is
    within the budget or holds a single item; every stack but a key's last
    would pass the budget with the key's next item; and for a uniform cost c
    every such stack holds max(1, budget // c) items."""
    if uniform and pairs:
        pairs = [(key, pairs[0][1]) for key, _ in pairs]
    entries = [(key, cost, i) for i, (key, cost) in enumerate(pairs)]
    cost = {i: c for _, c, i in entries}
    cut = twisted.stacks(entries, budget)
    keys = list(dict.fromkeys(key for key, _, _ in entries))
    assert [key for key, _ in cut] == sorted((key for key, _ in cut), key=keys.index)
    for key in keys:
        own = [items for k, items in cut if k == key]
        assert [i for items in own for i in items] == [i for k, _, i in entries if k == key]
        for items, following in zip(own, own[1:]):
            assert sum(cost[i] for i in items) + cost[following[0]] > budget
            if uniform:
                assert len(items) == max(1, budget // pairs[0][1])
    assert all(sum(cost[i] for i in items) <= budget or len(items) == 1 for _, items in cut)


def never_certifies(monkeypatch, bad):
    """Fault injection: the algebra on the cocycle ``bad`` draws the zero
    sample on every attempt, whose one eigencluster misses its center
    dimension; every other algebra draws as before."""
    sample = twisted._Split.sample
    monkeypatch.setattr(
        twisted._Split, "sample", lambda self: sample(self) * (0 if self.algebra.cocycle == bad else 1)
    )


def test_an_algebra_that_never_certifies_leaves_its_stack_alone(monkeypatch):
    """One algebra of a stack fails every attempt: the others equal their
    lone splits, the failing one gets the error it raises alone, the oracle
    keeps every outcome, the failing one's error too, and its next
    ``wedderburn`` raises that error without splitting again."""
    algebras = [A for A in LATTICE_ALGEBRAS if A.n == 16]
    bad = next(A for A in algebras if A.center_dimension() > 2)
    alone = {id(A): A.wedderburn(seed=0) for A in algebras if A is not bad}
    never_certifies(monkeypatch, bad.cocycle)
    with pytest.raises(CertificationError) as lone:
        bad.wedderburn(seed=0)
    message = f"block oracle failed after {MAX_ATTEMPTS} attempts: cluster count 1 != center dimension "
    assert str(lone.value) == message + str(bad.center_dimension())
    outcomes = twisted.split_algebras(algebras, 0)
    for A, got in zip(algebras, outcomes):
        if A is bad:
            assert isinstance(got, CertificationError) and str(got) == str(lone.value)
        else:
            assert_same_split(got, alone[id(A)])
    oracle = BlockOracle(0)
    for A, got in zip(algebras, oracle.wedderburn_all([A.cocycle for A in algebras])):
        if A is bad:
            assert isinstance(got, CertificationError) and str(got) == str(lone.value)
        else:
            assert_same_split(got, alone[id(A)])
    assert len(oracle._blocks) == len(algebras)
    assert str(oracle._blocks[oracle._key(bad.cocycle)]) == str(lone.value)
    calls, split = [], twisted.split_algebras
    monkeypatch.setattr(twisted, "split_algebras", lambda algs, seed: calls.append(algs) or split(algs, seed))
    with pytest.raises(CertificationError) as kept:
        oracle.wedderburn(bad.cocycle)
    assert str(kept.value) == str(lone.value) and calls == []


# -- stacked module extraction --------------------------------------------------


def reference_module(A, point, seed):
    """The extraction with one eigh per attempt and rho built one element at
    a time, with the bound it passed."""
    d, B = point.dim, point.basis
    rng = np.random.default_rng(seed)
    for _ in range(MAX_ATTEMPTS):
        R = A.right_regular(rng.standard_normal(A.n) + 1j * rng.standard_normal(A.n))
        M = R + R.conj().T
        if B is not None:
            M = B.conj().T @ M @ B
        evals, evecs = np.linalg.eigh(M)
        clusters = _cluster(evals, TOL_CLUSTER * max(1.0, float(np.max(np.abs(evals)))))
        chosen = next((idx for idx in clusters if len(idx) == d), None)
        if chosen is None:
            continue
        Q = evecs[:, chosen] if B is None else B @ evecs[:, chosen]
        rho = np.empty((A.n, d, d), dtype=np.complex128)
        for g, row in enumerate(A.group.table):
            rho[g] = (Q[row].conj().T * A.phases[g]) @ Q
        defect = A._rep_defect_bound(rho)
        if defect <= 1e-8:
            return rho, defect
    raise CertificationError("reference extraction failed")


def assert_same_module(got, want):
    """Equal bound, and the module equal bit for bit and read-only."""
    assert isinstance(got, tuple) and got[1] == want[1]
    assert got[0].tobytes() == want[0].tobytes() and not got[0].flags.writeable


@pytest.mark.parametrize("budget", [twisted.MODULE_BUDGET, 700, 1])
def test_a_stacked_extraction_equals_each_module_extracted_alone(monkeypatch, budget):
    """One ``extract_modules`` call over every module of the lattice
    algebras, with rho built in chunks of the module budget, of 700 gather
    entries (chunks of 5 elements and a remainder of 2 at n = 32, d = 4) and
    of one element, equals each module extracted alone and the reference
    extraction, bit for bit, bound included; the d^2 x d^2 samples of one d
    share their eigh calls."""
    modules = [(A, p) for A in LATTICE_ALGEBRAS for p in A.wedderburn(seed=0).blocks]
    assert {p.dim for _, p in modules} >= {1, 2, 4}
    stacks, eigh = [], np.linalg.eigh
    monkeypatch.setattr(twisted, "MODULE_BUDGET", budget)
    monkeypatch.setattr(np.linalg, "eigh", lambda a: stacks.append(len(a)) or eigh(a))
    outcomes = twisted.extract_modules(modules, 2)
    assert len(stacks) < len(modules) and max(stacks) > 1
    for (A, p), got in zip(modules, outcomes):
        (alone,) = twisted.extract_modules([(A, p)], 2)
        assert_same_module(got, alone)
        assert_same_module(got, reference_module(A, p, 2))


def test_order_256_modules_are_built_in_chunks_bit_for_bit():
    """The modules of the certify workload's algebras, orders 96 to 256 and
    d up to 16, extracted in one call, equal the reference bit for bit.  At
    n = 256, d = 16 a chunk gathers 4 elements, 2^14 entries of Q[t], so
    building rho holds a few MiB at most (rho itself is 1 MiB), never the
    16 MiB of the whole gather."""
    algebras = [TwistedAlgebra(a.group, a) for a in map(standard_nondegenerate, ([2, 8], [4, 4]))]
    algebras += [TwistedAlgebra(G, CocycleTable.trivial(G)) for G in map(gq.make_group, ["S4xC2xC2", "D8xC4xC2"])]
    modules = [(A, max(A.wedderburn(seed=0).blocks, key=lambda p: p.dim)) for A in algebras]
    assert [(A.n, p.dim) for A, p in modules] == [(256, 16), (256, 16), (96, 3), (128, 2)]
    for (A, p), got in zip(modules, twisted.extract_modules(modules, 0)):
        assert_same_module(got, reference_module(A, p, 0))
    A = algebras[0]
    Q = np.linalg.qr(np.random.default_rng(0).standard_normal((256, 16)) + 0j)[0]
    tracemalloc.start()
    rho = A._module_matrices(Q)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 4 << 20
    for g, row in enumerate(A.group.table):
        assert rho[g].tobytes() == ((Q[row].conj().T * A.phases[g]) @ Q).tobytes()


def test_a_module_that_never_certifies_leaves_its_stack_alone(monkeypatch):
    """One module of a stack draws the zero sample on every attempt, whose
    one eigencluster is the whole block: the others equal their lone
    extractions, the failing one gets the error it raises alone, the
    oracle keeps every outcome, the failing one's error too, its list call
    raises that error, and so does its next ``irreducible_reps`` without
    extracting again."""
    algebras = [A for A in LATTICE_ALGEBRAS if A.n == 16]
    modules = [(A, p) for A in algebras for p in A.wedderburn(seed=0).blocks]
    bad = next((A, p) for A, p in modules if p.dim == 2)
    alone = [twisted.extract_modules([m], 0)[0] for m in modules]

    def is_bad(A, p):  # by exact input, so the oracle's own copies of the bad module fail too
        return A.cocycle == bad[0].cocycle and p.index == bad[1].index

    sample = twisted._Module.sample
    monkeypatch.setattr(
        twisted._Module, "sample",
        lambda self: sample(self) * (0 if is_bad(self.algebra, self.point) else 1),
    )
    (lone,) = twisted.extract_modules([bad], 0)
    assert str(lone) == "irreducible extraction failed: no eigencluster of the module dimension"
    for m, got, want in zip(modules, twisted.extract_modules(modules, 0), alone):
        if is_bad(*m):
            assert isinstance(got, CertificationError) and str(got) == str(lone)
        else:
            assert_same_module(got, want)
    oracle = BlockOracle(0)
    oracle.wedderburn_all([A.cocycle for A in algebras])
    with pytest.raises(CertificationError) as listed:
        oracle.irreducible_reps([(A.cocycle, p.index) for A, p in modules])
    assert str(listed.value) == str(lone)
    bad_key = (*oracle._key(bad[0].cocycle), bad[1].index)
    assert len(oracle._modules) == len(modules) and str(oracle._modules[bad_key]) == str(lone)
    for (A, p), want in zip(modules, alone):
        if not is_bad(A, p):
            assert_same_module(oracle._modules[(*oracle._key(A.cocycle), p.index)], want)
    calls, extract = [], twisted.extract_modules
    monkeypatch.setattr(twisted, "extract_modules", lambda mods, seed: calls.append(mods) or extract(mods, seed))
    with pytest.raises(CertificationError) as kept:
        oracle.irreducible_reps([(bad[0].cocycle, bad[1].index)])
    assert str(kept.value) == str(lone) and calls == []


def test_a_negative_seed_is_refused_where_it_enters():
    """numpy's ``default_rng`` refuses a negative seed with a built-in
    ValueError; the oracle, the split routine and the module routine refuse
    it first, naming it, so a context on such an oracle is never built."""
    message = "seed must be a non-negative integer, got -1"
    A = _s3_algebra()
    block = A.wedderburn(seed=0).blocks[-1]
    calls = [
        lambda: BlockOracle(-1),
        lambda: gq.MackeyContext(CocycleTable.trivial(A.group), oracle=BlockOracle(-1)),
        lambda: twisted.split_algebras([A], -1),
        lambda: twisted.extract_modules([(A, block)], -1),
        lambda: A.wedderburn(seed=-1),
        lambda: A.irreducible_rep(block, seed=-1),
    ]
    for call in calls:
        with pytest.raises(ValidationError) as info:
            call()
        assert str(info.value) == message
