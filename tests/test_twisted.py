import numpy as np
import pytest

import gquot as gq
from gquot.catalog import GROUP_SPECS, NONDEGENERATE_CARRIERS
from gquot.cocycles import CocycleTable, OneCochain, coboundary, is_nondegenerate, standard_nondegenerate
from gquot.errors import CertificationError, SizeBoundError, ValidationError
from gquot.mackey import mackey_decompose
from gquot.twisted import (
    MAX_ATTEMPTS,
    TOL_CLUSTER,
    TOL_PHASE_EQ,
    TOL_PHASE_NEQ,
    TOL_ROUND,
    CenterClass,
    TwistedAlgebra,
    match_idempotent,
    _cluster,
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
        is_nondegenerate(C257, CocycleTable.trivial(C257))


# -- the idempotent orbit step one pair at a time, as the tests below use it ---


def central_idempotents(G_N, alpha_N, seed=0):
    """Primitive central idempotents of C^a N, one per irreducible type."""
    return TwistedAlgebra(G_N, alpha_N).wedderburn(seed=seed).blocks


def conjugate_idempotent(A, N, g, point, points):
    """The idempotent u_g iota u_g^-1 of the g-twisted module, matched against
    the known set; raises if conjugation leaves N."""
    pos = {n: i for i, n in enumerate(N.elements)}
    raw = np.zeros(len(N.elements), dtype=np.complex128)
    for i, n in enumerate(N.elements):
        target, kappa = A.conjugation(g, n)
        assert int(target) in pos, f"conjugating {n} by {g} leaves N"
        raw[pos[int(target)]] = point.coeffs[i] * kappa
    return match_idempotent(raw[None], points)[0]


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
        match_idempotent(np.array([[0.3 + 0j, 0.1]]), pts)


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


# -- reference: the breadth-first class search the table routine replaced -------


def reference_kappa(A, h, g):
    G = A.group
    hg, hinv = G.mul(h, g), G.inv(h)
    return A.phases[h, g] * A.phases[hg, hinv] / A.phases[h, hinv]


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
            g2 = G.conjugate(h, g)
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


def reference_class_complex(A, g0):
    G = A.group
    val = {g0: 1.0 + 0j}
    queue = [g0]
    consistent = True
    while queue:
        g = queue.pop()
        for h in range(A.n):
            g2 = G.conjugate(h, g)
            v2 = val[g] * reference_kappa(A, h, g)
            if g2 in val:
                gap = abs(val[g2] - v2)
                if gap > TOL_PHASE_NEQ:
                    consistent = False
                elif gap > TOL_PHASE_EQ:
                    raise CertificationError(f"ambiguous conjugation phase (gap {gap:.2e}) on class of {g0}")
            else:
                val[g2] = v2
                queue.append(g2)
    elems = tuple(sorted(val))
    if not consistent:
        return CenterClass(elems, None)
    return CenterClass(elems, np.array([val[g] for g in elems], dtype=np.complex128))


def reference_center_classes(A):
    seen, out = set(), []
    for g0 in range(A.n):
        if g0 in seen:
            continue
        cls = reference_class_exact(A, g0) if A.exact else reference_class_complex(A, g0)
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
    """Complex cocycles as they arrive from Mackey obstructions."""
    for name, a, N in [
        ("nd_C2xC2", standard_nondegenerate([2]), (0,)),
        ("nd_C4xC4", standard_nondegenerate([4]), (0,)),
        ("Q8", CocycleTable.trivial(gq.quaternion8()), gq.center(gq.quaternion8()).elements),
    ]:
        for o in mackey_decompose(a.group, a, gq.Subgroup(a.group, N), seed=0).orbits:
            yield f"omega of {name}/{N}", TwistedAlgebra(o.omega_group, o.omega)


def test_center_classes_match_reference():
    """Exact algebras agree bit for bit; complex ones up to rounding, since
    the scalar and the vectorized complex products may round differently."""
    cases = [
        (f"{name} {kind}", TwistedAlgebra(a.group, table))
        for name, a in _center_cases()
        for kind, table in (("exact", a), ("complex", a.value_matrix()))
    ]
    cases += list(_obstruction_algebras())
    W = CocycleTable.trivial(gq.symmetric(3)).value_matrix()
    W[0, 1:] *= np.exp(1e-9j)  # normalized only within tolerance
    cases.append(("S3 nearly normalized", TwistedAlgebra(gq.symmetric(3), W)))
    assert len(cases) == 2 * 2 * (len(GROUP_SPECS) + 4 + len(NONDEGENERATE_CARRIERS)) + 5
    for name, A in cases:
        got, want = A.center_classes(), reference_center_classes(A)
        assert [c.elements for c in got] == [c.elements for c in want], name
        for c, r in zip(got, want):
            assert (c.phases is None) == (r.phases is None), (name, c.elements)
            if c.phases is None:
                continue
            assert c.phases[0] == 1, (name, c.elements)  # the smallest element anchors the class
            if A.exact:
                assert np.array_equal(c.phases, r.phases), (name, c.elements)
            else:
                assert np.max(np.abs(c.phases - r.phases)) <= 1e-12, (name, c.elements)


@pytest.mark.parametrize("spec, entry", [("C2xC2", (1, 2)), ("S3", (1, 2)), ("Q8", (2, 3))])
def test_ambiguous_conjugation_phase_raises(spec, entry):
    G = gq.make_group(spec)
    A = TwistedAlgebra(G, CocycleTable.trivial(G).value_matrix())
    A.center_classes()  # the unperturbed algebra certifies
    phases = A.phases.copy()
    phases[entry] *= np.exp(1j * 1e-5)  # one loop gap of about 1e-5, inside (EQ, NEQ]
    A.phases = phases
    with pytest.raises(CertificationError, match="ambiguous conjugation phase"):
        A.center_classes()
    with pytest.raises(CertificationError):
        reference_center_classes(A)


def reference_complex_cocycle_ok(W, mul):
    left = W[:, :, None] * W[mul, :]
    right = W[None, :, :] * W[:, mul]
    return np.max(np.abs(left - right)) <= TOL_PHASE_EQ


@pytest.mark.parametrize("size", [1e-9, 1e-6, 1e-2])
def test_complex_cocycle_check_matches_full_check(size):
    a = standard_nondegenerate([2, 2])
    mul = a.group.table
    rng = np.random.default_rng(1)
    for _ in range(4):
        W = a.value_matrix()
        g, h = rng.integers(1, a.group.n, 2)
        W[g, h] *= np.exp(1j * size)
        want = reference_complex_cocycle_ok(W, mul)
        if want:
            TwistedAlgebra(a.group, W)
        else:
            with pytest.raises(ValidationError, match="2-cocycle identity"):
                TwistedAlgebra(a.group, W)


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
    """The extraction with one dense u_g matrix per element."""
    d = point.dim
    U, s, _ = np.linalg.svd(reference_left_regular(A, point.coeffs))
    B = U[:, : d * d]
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
        if A._rep_defect(rho) <= 1e-8:
            return rho
    raise CertificationError("reference extraction failed")


def reference_match_idempotent(coeffs, points, tol=TOL_ROUND):
    hits = [p for p in points if float(np.max(np.abs(p.coeffs - coeffs))) <= tol]
    if len(hits) != 1:
        raise CertificationError(f"idempotent match found {len(hits)} candidates within {tol}")
    return hits[0]


def reference_match_rows(rows, points, tol=TOL_ROUND):
    return tuple(reference_match_idempotent(r, points, tol).index for r in rows)


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


def _match_outcome(match, rows, points, tol):
    try:
        return match(rows, points, tol)
    except CertificationError as exc:
        return str(exc)


@pytest.mark.parametrize("spec", ["C4", "S3", "Q8", "C2xC2xC2", "S4"])
def test_match_idempotent_matches_reference(spec):
    """Stacked matches equal the one-point loop, errors included."""
    G = gq.make_group(spec)
    points = TwistedAlgebra(G, CocycleTable.trivial(G)).wedderburn(seed=0).blocks
    known = np.array([p.coeffs for p in points])
    rng = np.random.default_rng(0)
    exact = known[rng.permutation(len(points))]
    near = exact + 1e-9 * rng.standard_normal(exact.shape)
    stacks = [exact, near, exact[:1]]
    for garbage in (np.zeros(G.n), (known[0] + known[-1]) / 2, np.full(G.n, np.nan), rng.standard_normal(G.n)):
        stacks.append(np.vstack([exact, garbage]))
        stacks.append(np.vstack([garbage, exact]))
    for rows in stacks:
        for tol in (TOL_ROUND, 0.3, 10.0):
            got = _match_outcome(match_idempotent, rows, points, tol)
            want = _match_outcome(reference_match_rows, rows, points, tol)
            if isinstance(got, tuple):
                got = tuple(p.index for p in got)
            assert got == want
