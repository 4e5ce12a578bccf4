import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gquot as gq
from gquot.catalog import GROUP_SPECS, NONDEGENERATE_CARRIERS
from gquot.cocycles import (
    CocycleTable,
    OneCochain,
    coboundary,
    cohomologous,
    standard_nondegenerate,
)
from gquot.errors import CertificationError, DomainError, NormalityError
from gquot.gradings import descriptor_dims, is_equidimensional_induced
from gquot.lagrangians import maximal_elementary_quotients
from gquot.mackey import (
    TOL_GAP,
    TOL_NULL,
    TOL_SCALAR,
    MackeyContext,
    _certify_irreducible,
    is_ecp_quotient,
    is_elementary_quotient,
    is_simple_quotient,
    mackey_decompose,
)
from gquot.suite import sweep_cases
from gquot.twisted import TOL_ROUND, TwistedAlgebra


def snap_to_table(values, group, scale: int, tol: float = 1e-6):
    """Convert a complex cocycle table to exact exponents, or None.

    Succeeds only when every value is within ``tol`` of a ``scale``-th root
    of unity; this is the gate for exact class comparison of numerically
    produced cocycles (obstruction tables carry a floating gauge and need
    not snap).
    """
    values = np.asarray(values, dtype=np.complex128)
    exps = np.round(np.angle(values) * scale / (2 * np.pi)).astype(np.int64) % scale
    if np.max(np.abs(np.exp(2j * np.pi * exps / scale) - values)) > tol:
        return None
    return CocycleTable(group, scale, exps)


def test_trivial_kernel_recovers_the_class():
    a = standard_nondegenerate([2])
    G = a.group
    dec = mackey_decompose(G, a, gq.Subgroup(G, (0,)), seed=0)
    assert len(dec.orbits) == 1
    o = dec.orbits[0]
    assert o.dim == 1 and o.inertia.order == G.n
    assert o.x.mults == ((0, 1),)
    # the obstruction table snaps to exponents and is cohomologous to the input
    snapped = snap_to_table(o.omega, o.omega_group, a.scale)
    assert snapped is not None
    relabeled = CocycleTable(G, a.scale, snapped.exps[np.ix_(o.omega_embed, o.omega_embed)])
    assert cohomologous(relabeled, a)[0]


def test_lagrangian_kernel_gives_ecp():
    a = standard_nondegenerate([2])
    G = a.group
    N = gq.generated_subgroup(G, [2])
    dec = mackey_decompose(G, a, N, seed=0)
    assert len(dec.orbits) == 1
    o = dec.orbits[0]
    assert len(o.point_indices) == 2 and o.dim == 1 and o.inertia.order == 1
    assert [k for _, k in o.x.mults] == [1, 1]
    assert is_ecp_quotient(dec) and is_elementary_quotient(dec) and is_simple_quotient(dec)


def test_quaternion_center_quotient():
    Q8 = gq.quaternion8()
    t = CocycleTable.trivial(Q8)
    dec = mackey_decompose(Q8, t, gq.center(Q8), seed=0)
    assert len(dec.orbits) == 2
    kinds = sorted((o.dim, o.inertia.order, o.omega_blocks) for o in dec.orbits)
    assert kinds == [(1, 4, (1, 1, 1, 1)), (1, 4, (2,))]
    trivial_orbit = next(o for o in dec.orbits if o.omega_trivial)
    nondeg_orbit = next(o for o in dec.orbits if o.omega_nondegenerate)
    assert trivial_orbit is not nondeg_orbit
    assert dec.oracle_dims == dec.reconstructed_dims == (1, 1, 1, 1, 2)
    assert not is_simple_quotient(dec)
    assert not is_elementary_quotient(dec)


def test_whole_group_kernel():
    a = standard_nondegenerate([2])
    G = a.group
    dec = mackey_decompose(G, a, gq.Subgroup(G, tuple(range(4))), seed=0)
    assert len(dec.orbits) == 1 and is_simple_quotient(dec)
    t = CocycleTable.trivial(G)
    dec2 = mackey_decompose(G, t, gq.Subgroup(G, tuple(range(4))), seed=0)
    assert len(dec2.orbits) == 4  # one orbit per character


def test_normality_enforced():
    S3 = gq.symmetric(3)
    H = next(h for h in gq.subgroups(S3) if h.order == 2)
    with pytest.raises(NormalityError):
        mackey_decompose(S3, CocycleTable.trivial(S3), H, seed=0)


@pytest.mark.parametrize("spec", ["C6", "C2xC4", "S3", "S4", "D4", "D6", "Q8", "C12"])
def test_reconstruction_across_catalog(spec):
    G = gq.make_group(spec)
    t = CocycleTable.trivial(G)
    for N in gq.normal_subgroups(G):
        dec = mackey_decompose(G, t, N, seed=0)
        assert dec.oracle_dims == dec.reconstructed_dims
        assert sum(o.delta for o in dec.orbits) == G.n
        assert sum(o.dim ** 2 * len(o.transversal) for o in dec.orbits) == N.order
        for o in dec.orbits:
            assert len(o.transversal) * o.inertia.order == dec.quotient_group.n
            # the elementary character puts multiplicity d on each transversal point
            assert all(k == o.dim for _, k in o.x.mults)
            assert [e for e, _ in o.x.mults] == sorted(o.transversal)


def test_quotient_components_all_have_dimension_n():
    a = standard_nondegenerate([4])
    G = a.group
    for N in list(gq.normal_subgroups(G))[:8]:
        dec = mackey_decompose(G, a, N, seed=0)
        dims = descriptor_dims(dec.descriptor)
        assert {dims.get(q, 0) for q in dec.quotient_group.elements()} == {N.order}
        for o in dec.orbits:
            verdict, _ = is_equidimensional_induced(o.x, o.inertia)
            assert verdict


def test_simple_quotient_dimension_identity():
    # for one orbit: |N|^2 |I| = d^2 |G| (checked inside is_simple_quotient)
    a = standard_nondegenerate([6])
    G = a.group
    N = gq.generated_subgroup(G, [7])  # (1,1) generates a diagonal C6
    dec = mackey_decompose(G, a, N, seed=0)
    assert is_simple_quotient(dec)
    assert is_ecp_quotient(dec)


def test_elementary_iff_free_action_cube_free_case():
    a = standard_nondegenerate([2])
    G = a.group
    for N in gq.subgroups(G):
        dec = mackey_decompose(G, a, N, seed=0)
        elementary = is_elementary_quotient(dec)
        assert elementary == gq.groups.squarefree(G.n // N.order)
        if elementary:
            for o in dec.orbits:
                assert o.dim ** 2 * G.n == N.order ** 2


def test_doubly_nondegenerate_has_ct_quotient():
    a = standard_nondegenerate([2, 2])
    G = a.group
    from gquot.cocycles import bicharacter_of

    hits = 0
    for N in gq.subgroups(G):
        rest, sub, _ = a.restrict(N)
        if bicharacter_of(rest).radical().order != 1:
            continue
        hits += 1
        dec = mackey_decompose(G, a, N, seed=0)
        assert len(dec.orbits) == 1
        o = dec.orbits[0]
        q = dec.quotient_group.n
        assert o.inertia.order == q
        assert o.omega_nondegenerate
        assert o.omega_blocks == (int(round(q ** 0.5)),)
    assert hits >= 3  # {e}, the whole group, and symplectic sub-products


def test_determinism_of_decomposition():
    Q8 = gq.quaternion8()
    t = CocycleTable.trivial(Q8)
    Z = gq.center(Q8)
    d1 = mackey_decompose(Q8, t, Z, seed=5)
    d2 = mackey_decompose(Q8, t, Z, seed=5)
    assert d1.oracle_dims == d2.oracle_dims
    for o1, o2 in zip(d1.orbits, d2.orbits):
        assert np.array_equal(o1.omega, o2.omega)


def test_whole_group_kernel_at_order_256():
    # the only inertia element is the identity, whose intertwiner is I
    a = standard_nondegenerate([2, 8])
    G = a.group
    dec = mackey_decompose(G, a, gq.Subgroup(G, tuple(G.elements())), seed=0)
    assert dec.oracle_dims == dec.reconstructed_dims == (16,)
    assert len(dec.orbits) == 1 and dec.orbits[0].inertia.order == 1


def test_reducible_module_fails_the_character_norm():
    a = standard_nondegenerate([2])
    A = TwistedAlgebra(a.group, a)
    point = A.wedderburn(seed=0).blocks[0]
    rho = A.irreducible_rep(point, seed=0)
    _certify_irreducible(rho)
    doubled = np.zeros((A.n, 2 * point.dim, 2 * point.dim), dtype=np.complex128)
    doubled[:, : point.dim, : point.dim] = rho
    doubled[:, point.dim :, point.dim :] = rho
    with pytest.raises(CertificationError, match="not irreducible"):
        _certify_irreducible(doubled)


def assert_same_decomposition(got, want):
    assert got.group == want.group and got.normal == want.normal
    assert got.quotient_group == want.quotient_group
    assert got.oracle_dims == want.oracle_dims
    assert got.reconstructed_dims == want.reconstructed_dims
    assert len(got.orbits) == len(want.orbits)
    for o, w in zip(got.orbits, want.orbits):
        assert (o.point_indices, o.dim, o.inertia, o.transversal, o.x, o.delta) == (
            w.point_indices, w.dim, w.inertia, w.transversal, w.x, w.delta
        )
        assert np.array_equal(o.omega, w.omega)  # bit-equal, not within a tolerance
        assert (o.omega_embed, o.omega_blocks) == (w.omega_embed, w.omega_blocks)
    assert got.descriptor.group == want.descriptor.group
    for s, w in zip(got.descriptor.summands, want.descriptor.summands, strict=True):
        assert (s.x, s.fine) == (w.x, w.fine) and np.array_equal(s.cocycle, w.cocycle)


@pytest.mark.parametrize("case", sweep_cases(), ids=lambda c: f"{c[0]}/{c[2]}")
def test_shared_context_matches_fresh_decompositions(case):
    """One context per (G, alpha) across every normal N gives what a fresh
    algebra and oracle per N give."""
    _, G, _, a = case
    context = MackeyContext(G, a, 0)
    A_G = TwistedAlgebra(G, a)
    assert context.oracle.dims == A_G.wedderburn(seed=0).dims
    for h in G.elements():
        conj, kappa = A_G.conjugation(h, np.arange(G.n))
        assert np.array_equal(context.conj[h], conj) and np.array_equal(context.kappa[h], kappa)
    for N in gq.normal_subgroups(G):
        assert_same_decomposition(context.decompose(N), mackey_decompose(G, a, N, seed=0))
    assert context.decompose(N) is context.decompose(N)


def test_context_refuses_a_subgroup_of_another_group():
    context = MackeyContext(gq.make_group("C4"), CocycleTable.trivial(gq.make_group("C4")), 0)
    other = gq.make_group("C2xC2")
    with pytest.raises(DomainError):
        context.decompose(gq.Subgroup(other, (0, 1)))


def test_theorem_d_certifies_the_ambient_oracle_once(monkeypatch):
    a = standard_nondegenerate([2, 4])
    original = TwistedAlgebra.wedderburn
    ambient_calls = []

    def counted(self, *args, **kwargs):
        if self.exact and self.cocycle == a:
            ambient_calls.append(self.n)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(TwistedAlgebra, "wedderburn", counted)
    report = maximal_elementary_quotients(a.group, a, seed=0)
    assert len(report.decompositions) == len(gq.subgroups(a.group)) > 1
    assert ambient_calls == [64]


# -- reference: the per-element obstruction the table-driven one replaced -------


def reference_solve_intertwiner(rho, rho_g, d):
    eye = np.eye(d)
    rows = [np.kron(rho_g[n], eye) - np.kron(eye, rho[n].T) for n in range(rho.shape[0])]
    _, s, Vh = np.linalg.svd(np.vstack(rows), full_matrices=False)
    scale = max(1.0, float(s[0])) if len(s) else 1.0
    assert int(np.sum(s < TOL_NULL * scale)) == 1
    assert len(s) == 1 or s[-2] >= TOL_GAP * scale
    P = Vh[-1].conj().reshape(d, d)
    P = P * (np.sqrt(d) / np.linalg.norm(P))
    lead = next(v for v in P.ravel() if abs(v) > 1e-6)
    return P * (abs(lead) / lead)


def reference_kappa(A, h, g):
    G = A.group
    hg, hinv = G.mul(h, g), G.inv(h)
    return A.phases[h, g] * A.phases[hg, hinv] / A.phases[h, hinv]


def reference_obstruction(A_G, A_N, N_embed, point, inertia, section, seed):
    G = A_G.group
    N_pos = {h: i for i, h in enumerate(N_embed)}
    I_group, I_embed = inertia.as_group()
    k, d = I_group.n, point.dim
    rho = A_N.irreducible_rep(point, seed=seed)
    intertwiners = []
    for li in range(k):
        g = section[I_embed[li]]
        rho_g = np.empty_like(rho)
        for nl in range(A_N.n):
            n_parent = N_embed[nl]
            rho_g[nl] = reference_kappa(A_G, g, n_parent) * rho[N_pos[G.conjugate(g, n_parent)]]
        intertwiners.append(reference_solve_intertwiner(rho, rho_g, d))
    q = len(section)
    T = []
    for li in range(k):
        g = section[I_embed[li]]
        P_inv = intertwiners[li].conj().T
        M = np.zeros((q * d, q * d), dtype=np.complex128)
        for i, t_i in enumerate(section):
            prod = G.mul(t_i, g)
            j = next(j for j, t in enumerate(section) if G.mul(G.inv(t), prod) in N_pos)
            t_j = section[j]
            n2 = G.mul(G.inv(t_j), prod)
            phase = A_G.phases[t_i, g] / A_G.phases[t_j, n2]
            M[j * d : (j + 1) * d, i * d : (i + 1) * d] = phase * (rho[N_pos[n2]] @ P_inv)
        T.append(M)
    omega = np.empty((k, k), dtype=np.complex128)
    for a in range(k):
        for b in range(k):
            composed, target = T[b] @ T[a], T[I_group.mul(a, b)]
            lam = np.vdot(target, composed) / float(np.vdot(target, target).real)
            assert np.max(np.abs(composed - lam * target)) <= TOL_SCALAR * max(1.0, float(np.max(np.abs(composed))))
            omega[a, b] = lam / abs(lam)
    return omega


def _cocycle(name):
    """nd_<carrier> for a catalog non-degenerate class, else the trivial class."""
    if name.startswith("nd_"):
        return standard_nondegenerate(NONDEGENERATE_CARRIERS[name[3:]])
    return CocycleTable.trivial(gq.make_group(name))


@pytest.mark.parametrize("name", [f"nd_{c}" for c in NONDEGENERATE_CARRIERS] + ["S4", "Q8", "D4", "D6"])
def test_obstruction_matches_reference(name):
    a = _cocycle(name)
    G = a.group
    A_G = TwistedAlgebra(G, a)
    orbits = 0
    for N in gq.normal_subgroups(G):
        dec = mackey_decompose(G, a, N, seed=0)
        alpha_N, N_group, N_embed = a.restrict(N)
        A_N = TwistedAlgebra(N_group, alpha_N)
        section = gq.coset_space(G, N).representatives
        for o in dec.orbits:
            point = dec.points[o.point_indices[0]]
            omega = reference_obstruction(A_G, A_N, N_embed, point, o.inertia, section, 0)
            assert np.max(np.abs(o.omega - omega)) <= 1e-12, N.elements
            assert TwistedAlgebra(o.omega_group, omega).wedderburn(seed=0).dims == o.omega_blocks
            orbits += 1
    assert orbits >= len(gq.normal_subgroups(G))


def _orbit_signature(dec):
    return sorted((o.dim, o.inertia.order, o.omega_blocks) for o in dec.orbits)


@given(
    st.sampled_from(["nd_C2xC2", "nd_C4xC4", "nd_C6xC6", "nd_C2xC2xC2xC2", "S3", "S4", "Q8", "D4", "C2xC4"]),
    st.data(),
)
@settings(max_examples=40, deadline=None)
def test_invariants_under_relabeling_and_coboundary_twist(name, data):
    a = _cocycle(name)
    G, m = a.group, a.scale
    perm = np.array([0] + data.draw(st.permutations(range(1, G.n))))
    table = np.empty_like(G.table)
    table[np.ix_(perm, perm)] = perm[G.table]
    H = gq.from_table(table)
    exps = np.empty_like(a.exps)
    exps[np.ix_(perm, perm)] = a.exps
    f = OneCochain(H, m, [0] + data.draw(st.lists(st.integers(0, m - 1), min_size=H.n - 1, max_size=H.n - 1)))
    b = CocycleTable(H, m, exps).mul(coboundary(f))
    A, B = TwistedAlgebra(G, a), TwistedAlgebra(H, b)
    assert A.center_dimension() == B.center_dimension()
    assert A.wedderburn(seed=0).dims == B.wedderburn(seed=0).dims
    N = data.draw(st.sampled_from(gq.normal_subgroups(G)))
    N_moved = gq.Subgroup(H, tuple(sorted(perm[list(N.elements)].tolist())))
    assert _orbit_signature(mackey_decompose(G, a, N, seed=0)) == _orbit_signature(
        mackey_decompose(H, b, N_moved, seed=0)
    )


# -- reference: the orbit search and one-point matching the table reads replaced --


def reference_orbits(perms, count):
    seen = [False] * count
    orbits = []
    for i in range(count):
        if seen[i]:
            continue
        orbit = {i}
        frontier = [i]
        while frontier:
            x = frontier.pop()
            for row in perms:
                y = row[x]
                if y not in orbit:
                    orbit.add(y)
                    frontier.append(y)
        for x in orbit:
            seen[x] = True
        orbits.append(tuple(sorted(orbit)))
    return orbits


def conjugate_idempotent_coeffs(A, N_elems, g, coeffs):
    """Coefficients of u_g * iota * u_g^{-1} for iota supported on N.

    ``coeffs`` may stack several idempotents along leading axes.
    """
    N = np.asarray(N_elems)
    target, kappa = A.conjugation(g, N)
    pos = np.full(A.n, -1)
    pos[N] = np.arange(len(N))
    live = np.any(coeffs != 0, axis=tuple(range(coeffs.ndim - 1)))
    where = pos[target[live]]
    if (where < 0).any():
        raise DomainError("conjugation leaves the subgroup; N must be normal")
    out = np.zeros(coeffs.shape, dtype=np.complex128)
    out[..., where] = coeffs[..., live] * kappa[live]
    return out


def products_nonzero(A, N, points, reps):
    """nonzero[i, j]: whether iota_j * C^a G * iota_i != 0.

    Column g of ``right_regular(iota_i)`` is u_g iota_i.  One g per coset of N
    suffices: iota_i is central in C^a N, so iota_j u_gn iota_i is a phase
    times iota_j u_g iota_i u_n, which vanishes exactly when iota_j u_g iota_i
    does.
    """
    embedded = np.zeros((len(points), A.n), dtype=np.complex128)
    embedded[:, list(N.elements)] = [p.coeffs for p in points]
    moved = np.array([A.right_regular(e)[:, list(reps)] for e in embedded])
    return np.array(
        [[float(np.abs(A.left_regular(e2) @ m).max()) > TOL_ROUND for e2 in embedded] for m in moved]
    )


def reference_match_rows(rows, points):
    out = []
    for r in rows:
        hits = [p for p in points if float(np.max(np.abs(p.coeffs - r))) <= TOL_ROUND]
        if len(hits) != 1:
            raise CertificationError(f"idempotent match found {len(hits)} candidates within {TOL_ROUND}")
        out.append(hits[0].index)
    return tuple(out)


def _orbit_cases():
    for spec in GROUP_SPECS:
        G = gq.make_group(spec)
        yield spec, CocycleTable.trivial(G), gq.normal_subgroups(G)
    for carrier in NONDEGENERATE_CARRIERS:
        a = _cocycle("nd_" + carrier)
        yield "nd_" + carrier, a, gq.normal_subgroups(a.group)
    for name, a in [
        ("S4xC2xC2", CocycleTable.trivial(gq.make_group("S4xC2xC2"))),
        ("D8xC4xC2", CocycleTable.trivial(gq.make_group("D8xC4xC2"))),
        ("standard_nondegenerate([8])", standard_nondegenerate([8])),
        ("standard_nondegenerate([2, 8])", standard_nondegenerate([2, 8])),
        ("standard_nondegenerate([4, 4])", standard_nondegenerate([4, 4])),
    ]:
        G = a.group
        normals = [gq.generated_subgroup(G, [g]) for g in (1, 2, G.n - 1)]
        if not G.is_abelian:
            normals.append(gq.center(G))
        yield name, a, [N for N in normals if N.is_normal()]


ORBIT_CASES = {name: (a, normals) for name, a, normals in _orbit_cases()}


@pytest.mark.parametrize("name", list(ORBIT_CASES))
def test_orbits_match_reference(name):
    """Orbits, inertia groups and transversals equal the search over the
    coset representatives of G/N, matched one point at a time; and two points
    share an orbit exactly when iota2 * C^a G * iota1 != 0."""
    a, normals = ORBIT_CASES[name]
    G = a.group
    A_G = TwistedAlgebra(G, a)
    for N in normals:
        dec = mackey_decompose(G, a, N, seed=0)
        Q = dec.quotient_group
        reps = gq.coset_space(G, N).representatives
        stacked = np.array([p.coeffs for p in dec.points])
        perms = [
            reference_match_rows(conjugate_idempotent_coeffs(A_G, N.elements, g, stacked), dec.points)
            for g in reps
        ]
        assert [o.point_indices for o in dec.orbits] == reference_orbits(perms, len(dec.points))
        orbit_of = {i: o.point_indices for o in dec.orbits for i in o.point_indices}
        shared = np.array([[j in orbit_of[i] for j in range(len(dec.points))] for i in range(len(dec.points))])
        assert np.array_equal(products_nonzero(A_G, N, dec.points, reps), shared)
        for o in dec.orbits:
            rep = o.point_indices[0]
            assert o.inertia.elements == tuple(q for q in Q.elements() if perms[q][rep] == rep)
            assert o.transversal == gq.coset_space(Q, o.inertia).representatives
