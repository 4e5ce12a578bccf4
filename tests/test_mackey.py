import cmath
import dataclasses
import itertools
import math

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
from gquot.errors import CertificationError, DomainError, NormalityError, TheoremCheckError, ValidationError
from gquot.gradings import descriptor_dims, is_equidimensional_induced
from gquot.groups import cayley_tree, generating_sequence
from gquot.lagrangians import maximal_elementary_quotients
import gquot.mackey as mackey
from gquot.mackey import (
    TOL_SCALAR,
    MackeyContext,
    MackeyDecomposition,
    _intertwiners,
    is_ecp_quotient,
    is_elementary_quotient,
    is_simple_quotient,
    mackey_decompose,
)
import gquot.suite as suite
import gquot.twisted as twisted
from gquot.suite import sweep_cases
from gquot.twisted import MAX_ATTEMPTS, TOL_ROUND, BlockOracle, TwistedAlgebra


def test_trivial_kernel_recovers_the_class():
    a = standard_nondegenerate([2])
    G = a.group
    dec = mackey_decompose(a, gq.Subgroup(G, (0,)), seed=0)
    assert len(dec.orbits) == 1
    o = dec.orbits[0]
    assert o.dim == 1 and o.inertia.order == G.n
    assert o.x.mults == ((0, 1),)
    # the obstruction is exact, of scale |I|, and cohomologous to the input
    assert o.omega.group == o.inertia.as_group() and o.omega.scale == G.n
    relabeled = CocycleTable(G, G.n, o.omega.exps[np.ix_(o.inertia.elements, o.inertia.elements)])
    assert cohomologous(relabeled, a)[0]


def test_lagrangian_kernel_gives_ecp():
    a = standard_nondegenerate([2])
    G = a.group
    N = gq.generated_subgroup(G, [2])
    dec = mackey_decompose(a, N, seed=0)
    assert len(dec.orbits) == 1
    o = dec.orbits[0]
    assert len(o.point_indices) == 2 and o.dim == 1 and o.inertia.order == 1
    assert [k for _, k in o.x.mults] == [1, 1]
    assert is_ecp_quotient(dec) and is_elementary_quotient(dec) and is_simple_quotient(dec)


def test_quaternion_center_quotient():
    Q8 = gq.quaternion8()
    t = CocycleTable.trivial(Q8)
    dec = mackey_decompose(t, gq.center(Q8), seed=0)
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
    dec = mackey_decompose(a, gq.Subgroup(G, tuple(range(4))), seed=0)
    assert len(dec.orbits) == 1 and is_simple_quotient(dec)
    t = CocycleTable.trivial(G)
    dec2 = mackey_decompose(t, gq.Subgroup(G, tuple(range(4))), seed=0)
    assert len(dec2.orbits) == 4  # one orbit per character


def test_normality_enforced():
    S3 = gq.symmetric(3)
    H = next(h for h in gq.subgroups(S3) if h.order == 2)
    with pytest.raises(NormalityError):
        mackey_decompose(CocycleTable.trivial(S3), H, seed=0)


@pytest.mark.parametrize("spec", ["C6", "C2xC4", "S3", "S4", "D4", "D6", "Q8", "C12"])
def test_reconstruction_across_catalog(spec):
    G = gq.make_group(spec)
    t = CocycleTable.trivial(G)
    for N in gq.normal_subgroups(G):
        dec = mackey_decompose(t, N, seed=0)
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
        dec = mackey_decompose(a, N, seed=0)
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
    dec = mackey_decompose(a, N, seed=0)
    assert is_simple_quotient(dec)
    assert is_ecp_quotient(dec)


def test_elementary_iff_free_action_cube_free_case():
    a = standard_nondegenerate([2])
    G = a.group
    for N in gq.subgroups(G):
        dec = mackey_decompose(a, N, seed=0)
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
        rest = a.restrict(N)
        if bicharacter_of(rest).radical().order != 1:
            continue
        hits += 1
        dec = mackey_decompose(a, N, seed=0)
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
    d1 = mackey_decompose(t, Z, seed=5)
    d2 = mackey_decompose(t, Z, seed=5)
    assert d1.oracle_dims == d2.oracle_dims
    for o1, o2 in zip(d1.orbits, d2.orbits):
        assert o1.omega == o2.omega


def test_whole_group_kernel_at_order_256():
    # the only inertia element is the identity, whose intertwiner is I
    a = standard_nondegenerate([2, 8])
    G = a.group
    dec = mackey_decompose(a, gq.Subgroup(G, tuple(G.elements())), seed=0)
    assert dec.oracle_dims == dec.reconstructed_dims == (16,)
    assert len(dec.orbits) == 1 and dec.orbits[0].inertia.order == 1


def test_reducible_module_fails_the_character_norm():
    a = standard_nondegenerate([2])
    A = TwistedAlgebra(a.group, a)
    point = A.wedderburn(seed=0).blocks[0]
    rho = A.irreducible_rep(point, seed=0)
    P, _ = _intertwiners(rho[None], rho[None, None])
    assert np.allclose(P[0], np.eye(point.dim))
    doubled = np.zeros((A.n, 2 * point.dim, 2 * point.dim), dtype=np.complex128)
    doubled[:, : point.dim, : point.dim] = rho
    doubled[:, point.dim :, point.dim :] = rho
    # the identity twist of rho + rho pairs to <chi, chi> = 4
    with pytest.raises(CertificationError, match="character inner product .* is 4.0"):
        _intertwiners(doubled[None], doubled[None, None])


def test_non_isomorphic_twist_fails_the_character_pairing():
    S4 = gq.make_group("S4")
    A = TwistedAlgebra(S4, CocycleTable.trivial(S4))
    blocks = A.wedderburn(seed=0).blocks
    sign = next(
        r[:, 0, 0] for r in (A.irreducible_rep(p, seed=0) for p in blocks if p.dim == 1) if not np.allclose(r, 1)
    )
    rho = A.irreducible_rep(next(p for p in blocks if p.dim == 3), seed=0)
    # the two 3-dimensional irreducibles differ by the sign character, so the pairing is 0
    with pytest.raises(CertificationError, match="character inner product .* is 0.0"):
        _intertwiners(rho[None], np.stack([rho, sign[:, None, None] * rho])[None])


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
        assert o.omega == w.omega  # the same exact table
        assert o.omega_blocks == w.omega_blocks
    assert got.descriptor.group == want.descriptor.group
    for s, w in zip(got.descriptor.summands, want.descriptor.summands, strict=True):
        assert (s.x, s.fine, s.cocycle) == (w.x, w.fine, w.cocycle)


@pytest.mark.parametrize("case", sweep_cases(), ids=lambda c: f"{c[0]}/{c[2]}")
def test_shared_context_matches_fresh_decompositions(case):
    """One context per (G, alpha) across every normal N gives what a fresh
    algebra and oracle per N give.  Its conjugation table equals the
    per-element Python-integer one, and its phases the product of three
    cocycle values, within 1e-12."""
    _, G, _, a = case
    context = MackeyContext(a)
    A_G = TwistedAlgebra(G, a)
    assert context.blocks.dims == A_G.wedderburn(seed=0).dims
    _, kappa = a.conjugation()
    c, m = a.exps.tolist(), a.scale
    for h in G.elements():
        for g in G.elements():
            hg, hinv = G.mul(h, g), G.inv(h)
            assert context.conj[h, g] == reference_conjugate(G, h, g)
            assert kappa[h, g] == (c[h][g] + c[hg][hinv] - c[h][hinv]) % m
            assert abs(context.kappa[h, g] - reference_kappa(A_G, h, g)) <= 1e-12
    for N in gq.normal_subgroups(G):
        assert_same_decomposition(context.decompose(N), mackey_decompose(a, N, seed=0))
    assert context.decompose(N) is context.decompose(N)


@pytest.fixture(scope="module")
def shared_oracle():
    """One registry for every case below, as the battery shares one per run."""
    return BlockOracle()


THEOREM_D_CARRIERS = ((8,), (2, 4))  # the order-64 carriers of the Theorem-D workload


@pytest.mark.parametrize(
    "case",
    [(f"{c[0]}/{c[2]}", c[3]) for c in sweep_cases()]
    + [(f"standard_nondegenerate({list(i)})", standard_nondegenerate(i)) for i in THEOREM_D_CARRIERS],
    ids=lambda c: c[0],
)
def test_shared_oracle_matches_fresh_decompositions(case, shared_oracle):
    """Decomposing through one registry shared across every case gives, for
    every normal N, what a fresh registry per decomposition gives, down to
    the bits of every point coefficient."""
    _, a = case
    G = a.group
    context = MackeyContext(a, oracle=shared_oracle)
    assert context.oracle is shared_oracle
    for N in gq.normal_subgroups(G):
        got, want = context.decompose(N), mackey_decompose(a, N, seed=0)
        assert_same_decomposition(got, want)
        assert [o.inertia.elements for o in got.orbits] == [o.inertia.elements for o in want.orbits]
        for o, w in zip(got.orbits, want.orbits):
            assert np.array_equal(o.omega.exps, w.omega.exps) and o.omega.scale == w.omega.scale
        assert [(p.index, p.dim) for p in got.points] == [(p.index, p.dim) for p in want.points]
        for p, q in zip(got.points, want.points):
            assert np.array_equal(p.coeffs, q.coeffs)


def test_shared_results_are_read_only():
    """A caller cannot write into a module or a point another caller shares."""
    a = standard_nondegenerate([2])
    oracle = BlockOracle()
    ((rho, _),) = oracle.irreducible_reps([(a, 0)])
    point = oracle.wedderburn(a).blocks[0]
    before_rho, before_point = rho.copy(), point.coeffs.copy()
    with pytest.raises(ValueError):
        rho[0, 0, 0] = 5.0
    with pytest.raises(ValueError):
        rho[1] *= 2
    with pytest.raises(ValueError):
        point.coeffs[0] = 5.0
    ((again, _),) = oracle.irreducible_reps([(a, 0)])
    assert again is rho and np.array_equal(again, before_rho)
    assert np.array_equal(oracle.wedderburn(a).blocks[0].coeffs, before_point)
    context = MackeyContext(a, oracle=oracle)
    dec = context.decompose(gq.Subgroup(a.group, (0,)))
    with pytest.raises(ValueError):
        dec.points[0].coeffs[0] = 5.0


def test_context_refuses_a_subgroup_of_another_group():
    context = MackeyContext(CocycleTable.trivial(gq.make_group("C4")))
    other = gq.make_group("C2xC2")
    with pytest.raises(DomainError):
        context.decompose(gq.Subgroup(other, (0, 1)))


def test_theorem_d_certifies_the_ambient_oracle_once(monkeypatch):
    a = standard_nondegenerate([2, 4])
    original = twisted.split_algebras
    ambient_calls = []

    def counted(algebras, seed):
        ambient_calls.extend(A.n for A in algebras if A.cocycle == a)
        return original(algebras, seed)

    monkeypatch.setattr(twisted, "split_algebras", counted)
    report = maximal_elementary_quotients(a.group, a, seed=0)
    assert len(report.decompositions) == len(gq.subgroups(a.group)) > 1
    assert ambient_calls == [64]


def test_a_split_that_fails_in_a_scan_gives_its_n_the_lone_error(monkeypatch):
    """One restriction of the nd_C4xC4 lattice never certifies (its sample
    is zero on every attempt): the scan's one stacked split pass leaves it
    unkept, every N on it gets the error it raises decomposed alone, and
    every other N the decomposition a scan without the fault gives."""
    a = standard_nondegenerate([4])
    lattice = gq.subgroups(a.group)
    restrictions = [a.restrict(N) for N in lattice]
    bad = next(r for r in restrictions if 1 < TwistedAlgebra(r.group, r).center_dimension() < r.group.n)
    clean = MackeyContext(a)
    clean.decompose_all(lattice)
    sample = twisted._Split.sample
    monkeypatch.setattr(
        twisted._Split, "sample", lambda self: sample(self) * (0 if self.algebra.cocycle == bad else 1)
    )
    context = MackeyContext(a)
    context.decompose_all(lattice)
    failing = {N.elements for N in lattice if a.restrict(N) == bad}
    assert 0 < len(failing) < len(lattice)
    for N in lattice:
        if N.elements in failing:
            with pytest.raises(CertificationError) as alone:
                MackeyContext(a).decompose(N)
            with pytest.raises(CertificationError) as kept:
                context.decompose(N)
            assert str(kept.value) == str(alone.value)
            assert str(alone.value).startswith(f"block oracle failed after {MAX_ATTEMPTS} attempts: cluster count 1")
        else:
            assert_same_decomposition(context.decompose(N), clean.decompose(N))


# -- reference: the per-element obstruction the table-driven one replaced -------


REFERENCE_TOL_NULL = 1e-8
REFERENCE_TOL_GAP = 1e-4


def reference_solve_intertwiner(rho, rho_g, d):
    """The Kronecker-system SVD the Reynolds projector replaced: a certified
    one-dimensional nullspace, well separated from the rest of the spectrum."""
    eye = np.eye(d)
    rows = [np.kron(rho_g[n], eye) - np.kron(eye, rho[n].T) for n in range(rho.shape[0])]
    _, s, Vh = np.linalg.svd(np.vstack(rows), full_matrices=False)
    scale = max(1.0, float(s[0])) if len(s) else 1.0
    assert int(np.sum(s < REFERENCE_TOL_NULL * scale)) == 1
    assert len(s) == 1 or s[-2] >= REFERENCE_TOL_GAP * scale
    P = Vh[-1].conj().reshape(d, d)
    P = P * (np.sqrt(d) / np.linalg.norm(P))
    lead = next(v for v in P.ravel() if abs(v) > 1e-6)
    return P * (abs(lead) / lead)


def reference_conjugate(G, h, g):
    """h g h^-1, one product at a time."""
    return G.mul(G.mul(h, g), G.inv(h))


def reference_kappa(A, h, g):
    """kappa(h, g) as the product of three complex cocycle values."""
    G = A.group
    hg, hinv = G.mul(h, g), G.inv(h)
    return A.phases[h, g] * A.phases[hg, hinv] / A.phases[h, hinv]


def reference_obstruction(A_G, A_N, N_embed, point, inertia, section, seed):
    G = A_G.group
    N_pos = {h: i for i, h in enumerate(N_embed)}
    I_group, I_embed = inertia.as_group(), inertia.elements
    k, d = I_group.n, point.dim
    rho = A_N.irreducible_rep(point, seed=seed)
    characters = np.trace(rho, axis1=1, axis2=2)
    assert abs(np.vdot(characters, characters).real / A_N.n - 1.0) <= TOL_ROUND  # rho is irreducible
    intertwiners = []
    for li in range(k):
        g = section[I_embed[li]]
        rho_g = np.empty_like(rho)
        for nl in range(A_N.n):
            n_parent = N_embed[nl]
            rho_g[nl] = reference_kappa(A_G, g, n_parent) * rho[N_pos[reference_conjugate(G, g, n_parent)]]
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


INTERTWINER_CASES = [(f"{c[0]}/{c[2]}", c[3]) for c in sweep_cases()] + [
    ("standard_nondegenerate([8])", standard_nondegenerate([8])),
    ("standard_nondegenerate([2, 4])", standard_nondegenerate([2, 4])),
]


def check_trivial_inertia_orbit(a, N, dec, orbit):
    """An orbit with trivial inertia gets the trivial table of scale 1, and the
    per-element reference obstruction of its module, which must pass the
    character-norm check, is [[1]]."""
    assert orbit.omega == CocycleTable.trivial(orbit.inertia.as_group())
    alpha_N = a.restrict(N)
    section = gq.coset_space(a.group, N).representatives
    point = dec.points[orbit.point_indices[0]]
    A_G, A_N = TwistedAlgebra(a.group, a), TwistedAlgebra(alpha_N.group, alpha_N)
    omega = reference_obstruction(A_G, A_N, N.elements, point, orbit.inertia, section, 0)
    assert np.max(np.abs(omega - 1.0)) <= 1e-12, N.elements


@pytest.mark.parametrize("name, a", INTERTWINER_CASES, ids=[n for n, _ in INTERTWINER_CASES])
def test_intertwiners_match_reference(monkeypatch, name, a):
    """Every intertwiner the Reynolds projector gives, on every orbit of every
    normal N with non-trivial inertia, is the SVD's, gauge included; every
    orbit with trivial inertia builds none and matches the reference.  A
    class of orbits shares one call, recorded module by module."""
    calls = []

    def recorded(rho, rho_g):
        P, residual = _intertwiners(rho, rho_g)
        calls.extend(zip(rho, rho_g, P, strict=True))
        return P, residual

    monkeypatch.setattr(mackey, "_intertwiners", recorded)
    G = a.group
    orbits = trivial = 0
    for N in gq.normal_subgroups(G):
        dec = mackey_decompose(a, N, seed=0)
        for o in dec.orbits:
            if o.inertia.order > 1:
                orbits += 1
            else:
                check_trivial_inertia_orbit(a, N, dec, o)
                trivial += 1
    assert len(calls) == orbits and orbits + trivial > 0
    for rho, rho_g, P in calls:
        d = rho.shape[1]
        for twist, got in zip(rho_g, P, strict=True):
            assert np.max(np.abs(got - reference_solve_intertwiner(rho, twist, d))) <= 1e-12


CARRIERS = {**NONDEGENERATE_CARRIERS, "C2xC4xC2xC4": (2, 4)}


def _cocycle(name):
    """nd_<carrier> for a standard non-degenerate class, else the trivial class."""
    if name.startswith("nd_"):
        return standard_nondegenerate(CARRIERS[name[3:]])
    return CocycleTable.trivial(gq.make_group(name))


def reference_gauge(group, omega):
    """A representative of omega's class with |group|-th roots of unity as
    values, one entry at a time: the k-th root of F(a) = prod_c omega(a, c)
    is taken with argument in [0, 2 pi / k), not the principal one, so the
    table differs from the module's gauge by an exact coboundary; the root at
    the identity is 1, which keeps the table normalized."""
    k = group.n
    root = [cmath.exp(1j * (cmath.phase(complex(np.prod(omega[a]))) % (2 * math.pi)) / k) for a in range(k)]
    root[0] = 1
    exps = np.zeros((k, k), dtype=np.int64)
    for a in range(k):
        for b in range(k):
            value = omega[a, b] * root[group.mul(a, b)] / (root[a] * root[b])
            exps[a, b] = round(cmath.phase(value) * k / (2 * math.pi)) % k
            assert abs(cmath.exp(2j * math.pi * exps[a, b] / k) - value) <= 1e-9
    return CocycleTable(group, k, exps)


# the named cases reach nd_C5xC5 and nd_C6xC6, above sweep_cases' order bound;
# every other intertwiner case follows under its own name
OBSTRUCTION_CASES = [
    (name, _cocycle(name)) for name in [f"nd_{c}" for c in NONDEGENERATE_CARRIERS] + ["S4", "Q8", "D4", "D6"]
]
OBSTRUCTION_CASES += [(name, a) for name, a in INTERTWINER_CASES if all(a != b for _, b in OBSTRUCTION_CASES)]


@pytest.mark.parametrize("name, a", OBSTRUCTION_CASES, ids=[n for n, _ in OBSTRUCTION_CASES])
def test_obstruction_matches_reference(monkeypatch, name, a):
    """On every orbit of every normal N with non-trivial inertia, the
    composition scalars are the per-element reference's, and the exact table
    the gauge makes of them is in the class of the reference gauged
    independently, with the same blocks; every orbit with trivial inertia
    gauges nothing and matches the reference.  A class of orbits shares one
    gauge, recorded module by module in class order."""
    raw = []
    exact_cocycle = mackey._exact_cocycle

    def recorded(group, omega):
        raw.extend(omega)
        return exact_cocycle(group, omega)

    monkeypatch.setattr(mackey, "_exact_cocycle", recorded)
    G = a.group
    A_G = TwistedAlgebra(G, a)
    orbits = trivial = 0
    for N in gq.normal_subgroups(G):
        dec = mackey_decompose(a, N, seed=0)
        alpha_N = a.restrict(N)
        A_N = TwistedAlgebra(alpha_N.group, alpha_N)
        section = gq.coset_space(G, N).representatives
        twisted = in_class_order(dec.orbits)
        for o in dec.orbits:
            if o.inertia.order == 1:
                check_trivial_inertia_orbit(a, N, dec, o)
                trivial += 1
        assert len(raw) == orbits + len(twisted)
        for o, scalars in zip(twisted, raw[orbits:], strict=True):
            point = dec.points[o.point_indices[0]]
            omega = reference_obstruction(A_G, A_N, N.elements, point, o.inertia, section, 0)
            assert np.max(np.abs(scalars - omega)) <= 1e-12, N.elements
            reference = reference_gauge(o.omega.group, omega)
            assert o.omega.scale == o.inertia.order and cohomologous(o.omega, reference)[0], N.elements
            assert TwistedAlgebra(o.omega.group, reference).wedderburn(seed=0).dims == o.omega_blocks
        orbits += len(twisted)
    assert orbits + trivial >= len(gq.normal_subgroups(G))


def in_class_order(orbits):
    """The orbits with non-trivial inertia in the order their obstructions
    are computed: class by class, a class being the orbits that share the
    inertia group and the module dimension, classes by their first orbit."""
    classes = {}
    for o in orbits:
        if o.inertia.order > 1:
            classes.setdefault((o.inertia.elements, o.dim), []).append(o)
    return [o for members in classes.values() for o in members]


# -- reference: the block endomorphisms the d x d intertwiners replaced ---------


def reference_block_endomorphisms(G, phases, section, block_of, N_elements, rho, gs, P):
    """The degree-g endomorphisms T_g of the induced module C^alpha G (x) M,
    one per inertia lift g in ``gs``, as ``_obstruction`` assembled them before
    reading the scalars off the d x d intertwiners.  T_g is block-monomial,
    kept as (j, B): coset block i (t_i N) goes to block j[g, i] = block_of(t_i g),
    with t_i g = t_j n2, by the d x d block B[g, i]."""
    N_pos = np.full(G.n, -1)
    N_pos[list(N_elements)] = np.arange(len(N_elements))
    P_inv = P.conj().transpose(0, 2, 1)
    prod = G.table[section, gs[:, None]]
    j = block_of[prod]
    t_j = section[j]
    n2 = G.table[G.inverse_table[t_j], prod]
    phase = phases[section, gs[:, None]] / phases[t_j, n2]
    return j, phase[:, :, None, None] * (rho[N_pos[n2]] @ P_inv[:, None])


def reference_all_pairs(group, j, B):
    """The all-pairs composition of the block endomorphisms: row a composes
    T_b T_a for every b at once; the unit scalars lambda / |lambda|."""
    k = group.n
    norms = (np.abs(B) ** 2).sum(axis=(1, 2, 3))
    omega = np.empty((k, k), dtype=np.complex128)
    for a in range(k):
        ab = group.table[a]
        assert (j[:, j[a]] == j[ab]).all()
        composed = B[:, j[a]] @ B[a]
        lam = np.einsum("bipq,bipq->b", B[ab].conj(), composed) / norms[ab]
        omega[a] = lam / np.abs(lam)
    return omega


def composition_defect(group, j, B, omega, pairs):
    """The largest Frobenius norm of T_b T_a - omega(a, b) T_ab over ``pairs``."""
    return max(float(np.linalg.norm(B[b, j[a]] @ B[a] - omega[a, b] * B[group.mul(a, b)])) for a, b in pairs)


def intertwiner_defect(group, P, rho, n, c, pairs, omega=None):
    """The largest ||P_a P_b - nu P_ab rho(n(a, b))||_F over ``pairs``, one pair
    at a time: nu = c(a, b) conj(omega(a, b)), or mu / |mu| for mu the
    projection of P_a P_b onto P_ab rho(n(a, b)) when no omega is given."""
    worst = 0.0
    for a, b in pairs:
        composed, target = P[a] @ P[b], P[group.mul(a, b)] @ rho[n[a, b]]
        if omega is None:
            mu = np.vdot(target, composed) / np.vdot(target, target).real
            nu = mu / abs(mu)
        else:
            nu = c[a, b] * np.conj(omega[a, b])
        worst = max(worst, float(np.linalg.norm(composed - nu * target)))
    return worst


def reference_columns(group):
    """The columns {e} and the generating sequence, the depth L of a
    breadth-first search over Python sets, and an element at depth L."""
    gens = generating_sequence(group)
    length, frontier, depth = {0: 0}, [0], 0
    while frontier:
        depth += 1
        frontier = sorted({group.mul(h, s) for h in frontier for s in gens} - set(length))
        length.update((w, depth) for w in frontier)
    columns = [(a, s) for s in [0, *gens] for a in group.elements()]
    return columns, max(length.values()), max(length, key=length.get)


@pytest.mark.parametrize("name, a", OBSTRUCTION_CASES, ids=[n for n, _ in OBSTRUCTION_CASES])
def test_column_bound_dominates_the_all_pairs_defect(monkeypatch, name, a):
    """The cases include both Theorem-D carriers, standard_nondegenerate([8])
    and ([2, 4]), whose normal subgroups are all their subgroups.  On every
    orbit with non-trivial inertia of every normal N:

    - the tree-extended scalars are those of the block endomorphisms of the
      induced module, composed for all pairs, within 1e-12;
    - the all-pairs d x d defect is at most (2L - 1) eps_gen, eps_gen the
      column defect, up to the roundoff of extending the scalars along the
      tree (the bound is exact arithmetic; each layer's three products of
      unit scalars add a few ulps), and sqrt(|G : N|) (2L - 1) eps_gen is
      within TOL_SCALAR;
    - scaling the intertwiner at the deepest element of the inertia group's
      Cayley tree by 1 + 1e-6 raises on the modulus, and the column defect
      of that input, times sqrt(|G : N|), is the column defect of the block
      endomorphisms built from it, within 1e-9 relative plus 64 ulps: both
      are differences of unit-size entries, so their last few ulps differ;
    - a perturbation of the same shape whose block-endomorphism defect is
      half the threshold TOL_SCALAR / (2L - 1) passes, and one at 1.5 times
      it raises, so the check compares that defect.

    A class of orbits shares one call, recorded module by module in class
    order, with the module's own n and c; each perturbation is composed as
    that one module, a stack of one.
    """
    compose, calls = mackey._composition_scalars, []

    def recorded(group, P, rho, n, c, cosets, delta):
        omega = compose(group, P, rho, n, c, cosets, delta)
        for module in zip(P, rho, delta, n, c, omega, strict=True):
            calls.append((group, *module[:5], cosets, module[5]))
        return omega

    def compose_one(group, P, rho, n, c, cosets, delta):
        return compose(group, P[None], rho[None], n[None], c[None], cosets, np.array([delta]))

    monkeypatch.setattr(mackey, "_composition_scalars", recorded)
    G = a.group
    phases = a.value_matrix()
    context = MackeyContext(a)
    seen = 0
    for N in gq.normal_subgroups(G):
        dec = context.decompose(N)
        block_of = np.asarray(dec.projection.images)
        section = np.asarray(mackey._first_occurrences(dec.projection.images))
        twisted = in_class_order(dec.orbits)
        for o, (group, P, rho, delta, n, c, cosets, omega) in zip(twisted, calls[seen:], strict=True):
            assert cosets == len(section)
            gs = section[list(o.inertia.elements)]
            j, B = reference_block_endomorphisms(G, phases, section, block_of, N.elements, rho, gs, P)
            assert np.max(np.abs(omega - reference_all_pairs(group, j, B))) <= 1e-12
            columns, L, deepest = reference_columns(group)
            bound = (2 * L - 1) * intertwiner_defect(group, P, rho, n, c, columns, omega)
            assert np.sqrt(cosets) * bound <= TOL_SCALAR
            pairs = itertools.product(group.elements(), repeat=2)
            roundoff = 4 * L * np.sqrt(P.shape[1]) * np.finfo(float).eps  # a few ulps per extension layer
            assert intertwiner_defect(group, P, rho, n, c, pairs, omega) <= bound + roundoff
            broken = P.copy()
            broken[deepest] *= 1 + 1e-6
            with pytest.raises(CertificationError, match="obstruction scalar has modulus"):
                compose_one(group, broken, rho, n, c, cosets, delta)
            got = np.sqrt(cosets) * intertwiner_defect(group, broken, rho, n, c, columns)
            j, B = reference_block_endomorphisms(G, phases, section, block_of, N.elements, rho, gs, broken)
            want = composition_defect(group, j, B, reference_all_pairs(group, j, B), columns)
            assert abs(got - want) <= 1e-9 * want + 64 * np.finfo(float).eps
            for factor in (0.5, 1.5):  # the induced-module defect against TOL_SCALAR / (2L - 1)
                near = P.copy()
                near[deepest] *= 1 + 1e-6 * factor * TOL_SCALAR / ((2 * L - 1) * want)
                if factor > 1:
                    with pytest.raises(CertificationError, match="obstruction scalar has modulus"):
                        compose_one(group, near, rho, n, c, cosets, delta)
                else:
                    compose_one(group, near, rho, n, c, cosets, delta)
        seen += len(twisted)
    assert seen == len(calls) and (calls or G.n == 1)  # N = 1 has inertia G


def test_gauge_recovers_the_class_and_refuses_a_perturbed_table():
    """A unit cocycle moved off the roots of unity by an arbitrary coboundary
    is gauged back into its class; one entry moved by 1e-5 is refused."""
    a = standard_nondegenerate([2, 2])
    G = a.group
    rng = np.random.default_rng(0)
    f = np.exp(1j * rng.uniform(0, 2 * np.pi, G.n))
    f[0] = 1
    omega = a.value_matrix() * np.outer(f, f) / f[G.table]
    (gauged,) = mackey._exact_cocycle(G, omega[None])
    assert gauged.scale == G.n and cohomologous(gauged, a)[0]
    omega[3, 5] *= np.exp(1e-5j)
    with pytest.raises(CertificationError, match="away from the .I.-th roots of unity"):
        mackey._exact_cocycle(G, omega[None])


# -- reference: one obstruction pass per orbit, as before orbits were batched ---


def per_orbit_obstruction(context, alpha_N, N, index, inertia, section):
    """The obstruction of the one orbit whose module is ``index``, as the
    context computed it before the orbits of a class shared one pass: the
    module goes through the helpers alone, as a stack of one module."""
    I_group = inertia.as_group()
    if I_group.n == 1:
        return CocycleTable.trivial(I_group)
    G = context.group
    N_embed = np.asarray(N.elements)
    N_pos = np.full(G.n, -1)
    N_pos[N_embed] = np.arange(len(N_embed))
    ((rho, law),) = context.oracle.irreducible_reps([(alpha_N, index)])
    gs = section[list(inertia.elements)]
    conj = context.conj[np.ix_(gs, N_embed)]
    kappa = context.kappa[np.ix_(gs, N_embed)]
    P, residual = mackey._intertwiners(rho[None], (kappa[:, :, None, None] * rho[N_pos[conj]])[None])
    s_ab = gs[I_group.table]
    n = G.table[G.inverse_table[s_ab], G.table[gs[:, None], gs]]
    if (N_pos[n] < 0).any():
        raise CertificationError("lifts of the inertia group do not compose inside N")
    c = context.phases[gs[:, None], gs] / context.phases[s_ab, n]
    delta = residual + 2 * law
    omega = mackey._composition_scalars(I_group, P, rho[None], N_pos[n][None], c[None], len(section), delta)
    return mackey._exact_cocycle(I_group, omega)[0]


def per_orbit_inputs(context, N):
    """What ``per_orbit_obstruction`` reads besides the orbit: alpha on N and
    the minimal-index section of G/N."""
    dec = context.decompose(N)
    return context.cocycle.restrict(N), np.asarray(mackey._first_occurrences(dec.projection.images))


@pytest.mark.parametrize("name, a", OBSTRUCTION_CASES, ids=[n for n, _ in OBSTRUCTION_CASES])
def test_batched_obstructions_match_the_per_orbit_path(name, a):
    """The cases hold every sweep case and both Theorem-D carriers, whose
    normal subgroups are all their subgroups.  On every orbit of every
    normal N, the table of the class pass has the scale, the exponent bytes
    and the blocks of the orbit's own pass."""
    G = a.group
    context = MackeyContext(a)
    for N in gq.normal_subgroups(G):
        dec = context.decompose(N)
        alpha_N, section = per_orbit_inputs(context, N)
        for o in dec.orbits:
            want = per_orbit_obstruction(context, alpha_N, N, o.point_indices[0], o.inertia, section)
            assert o.omega.scale == want.scale and o.omega.exps.tobytes() == want.exps.tobytes()
            assert o.omega_blocks == context.oracle.wedderburn(want).dims


@pytest.mark.parametrize("name", ["nd_C4xC4", "S4"])
def test_the_oracle_seed_reaches_every_cache_miss(monkeypatch, name):
    """The seed is named once, in the block oracle: every split and every
    module a context's oracle certifies is drawn at the oracle's seed, each
    decomposition is the one ``mackey_decompose`` gives at that seed, and a
    seed passed to the context in the oracle's place is refused."""
    a = dict(OBSTRUCTION_CASES)[name]
    seeds = []
    split_algebras, extract_modules = twisted.split_algebras, twisted.extract_modules

    def split(algebras, seed):
        seeds.extend(("wedderburn", seed) for _ in algebras)
        return split_algebras(algebras, seed)

    def extract(modules, seed):
        modules = list(modules)
        seeds.extend(("extract_modules", seed) for _ in modules)
        return extract_modules(modules, seed)

    monkeypatch.setattr(twisted, "split_algebras", split)
    monkeypatch.setattr(twisted, "extract_modules", extract)
    context = MackeyContext(a, oracle=BlockOracle(7))
    normals = gq.normal_subgroups(a.group)
    context.decompose_all(normals)
    assert {kind for kind, _ in seeds} == {"wedderburn", "extract_modules"}
    assert all(seed == 7 for _, seed in seeds)
    for N in normals:
        assert_same_decomposition(context.decompose(N), mackey_decompose(a, N, seed=7))
    with pytest.raises(TypeError):
        MackeyContext(a, 0)


def two_module_class():
    """The trivial class on C2xC2 with N of order 2: the quotient fixes both
    points, so two d = 1 orbits share the inertia group Q."""
    G = gq.make_group("C2xC2")
    context = MackeyContext(CocycleTable.trivial(G))
    return context, gq.generated_subgroup(G, [1])


@pytest.mark.parametrize(
    "mutation, message",
    [
        ("twist", "character inner product of twist 1 with the module is"),
        ("scale", "obstruction scalar has modulus"),
    ],
)
def test_a_broken_last_member_fails_its_class_as_it_fails_alone(monkeypatch, mutation, message):
    """Breaking only the last module of a two-module class, by a twist that
    is not isomorphic to it or by scaling its intertwiner at the deepest
    element of the inertia group's Cayley tree by 1 + 1e-6, makes the class
    pass raise what the per-orbit pass raises on that module alone."""
    context, N = two_module_class()
    dec = context.decompose(N)
    assert [(o.dim, o.inertia.order) for o in dec.orbits] == [(1, 2), (1, 2)]
    last = dec.orbits[-1]
    deepest = int(np.argmax(cayley_tree(last.inertia.as_group()).depth))
    alpha_N, section = per_orbit_inputs(context, N)
    intertwiners, batches = mackey._intertwiners, []

    def broken(rho, rho_g):  # the last module of the stack
        batches.append(len(rho))
        if mutation == "twist":  # twist 1 times the sign character of N = {e, x}
            rho_g = rho_g.copy()
            rho_g[-1, 1, 1] *= -1
        P, residual = intertwiners(rho, rho_g)
        if mutation == "scale":
            P = P.copy()
            P[-1, deepest] *= 1 + 1e-6
        return P, residual

    monkeypatch.setattr(mackey, "_intertwiners", broken)
    fresh, _ = two_module_class()
    with pytest.raises(CertificationError, match=message) as batched:
        fresh.decompose(N)
    with pytest.raises(CertificationError) as alone:
        per_orbit_obstruction(context, alpha_N, N, last.point_indices[0], last.inertia, section)
    assert batches == [2, 1]
    assert str(batched.value) == str(alone.value)


@pytest.mark.parametrize("carrier", [(2,), (4,)])
def test_intertwining_residual_is_charged_to_the_obstruction_bound(monkeypatch, carrier):
    """On standard_nondegenerate(carrier) with N = 1 every element is an
    inertia element, the module is [[1]] and every intertwiner is 1.
    Turning kappa(g, e) of the last lift by 0.75 TOL_SCALAR radians leaves
    that twist's intertwining residual within the per-entry limit
    TOL_SCALAR of ``_intertwiners``, which alone accepts it, but above
    TOL_SCALAR / (sqrt(|G|) (L - 1)), the most the column bound leaves for it
    with no column defect; the decomposition must raise."""
    a = standard_nondegenerate(list(carrier))
    G = a.group
    context = MackeyContext(a)
    context.kappa = context.kappa.copy()
    context.kappa[G.n - 1, 0] *= np.exp(0.75j * TOL_SCALAR)
    intertwiners, residuals = mackey._intertwiners, []

    def recorded(rho, rho_g):
        P, residual = intertwiners(rho, rho_g)
        residuals.append(float(residual.max()))
        return P, residual

    monkeypatch.setattr(mackey, "_intertwiners", recorded)
    with pytest.raises(CertificationError, match="intertwining residuals charge"):
        context.decompose(gq.Subgroup(G, (0,)))
    L = cayley_tree(G).height
    assert TOL_SCALAR / (np.sqrt(G.n) * (L - 1)) < residuals[0] < TOL_SCALAR


def test_each_module_as_a_stack_of_one_gives_its_slice(monkeypatch):
    """Each module of a pass, passed as a stack of one, gives the bits of
    its slice of the pass: intertwiners, intertwining residual, composition
    scalars and exact table.  The passes include the two d = 1 modules of
    the two-module class and two d = 2 modules of Q8xC2xC2 over a normal
    subgroup of order 16, each pass one class, and the six d = 1 modules of
    the three subgroups of order 2 of C2xC2, stacked by ``decompose_all``
    across three classes."""
    G = gq.make_group("Q8xC2xC2")
    trivial = CocycleTable.trivial(G)
    probe = MackeyContext(trivial)
    N = next(M for M in gq.normal_subgroups(G) if M.order == 16 and max(o.dim for o in probe.decompose(M).orbits) == 2)
    context, _ = two_module_class()
    order_two = [M for M in gq.subgroups(context.group) if M.order == 2]
    intertwiners, compose = mackey._intertwiners, mackey._composition_scalars
    shapes = []
    cases = ((context, order_two[:1]), (MackeyContext(trivial), [N]), (two_module_class()[0], order_two))
    for context, normals in cases:
        calls = []
        monkeypatch.setattr(mackey, "_intertwiners", lambda *args: calls.append(args) or intertwiners(*args))
        monkeypatch.setattr(mackey, "_composition_scalars", lambda *args: calls.append(args) or compose(*args))
        context.decompose_all(normals)
        monkeypatch.undo()
        for (rho, rho_g), (group, _, _, n, c, cosets, delta) in zip(calls[::2], calls[1::2], strict=True):
            shapes.append(rho.shape[::3])
            P, residual = intertwiners(rho, rho_g)
            omega = compose(group, P, rho, n, c, cosets, delta)
            tables = mackey._exact_cocycle(group, omega)
            for m in range(len(rho)):
                one = slice(m, m + 1)
                alone_P, alone_residual = intertwiners(rho[one], rho_g[one])
                assert alone_P.tobytes() == P[m].tobytes() and alone_residual == residual[m]
                alone = compose(group, P[one], rho[one], n[one], c[one], cosets, delta[one])
                assert alone.tobytes() == omega[m].tobytes()
                assert mackey._exact_cocycle(group, alone) == [tables[m]]
    assert {(2, 1), (2, 2), (6, 1)} <= set(shapes)  # (modules, d)


# -- every raise of the obstruction pass fires ----------------------------------


def obstruction_error(decompose):
    """The message of the CertificationError ``decompose()`` raises."""
    with pytest.raises(CertificationError) as info:
        decompose()
    return str(info.value)


def test_lifts_that_leave_n_fail_the_lift_check(monkeypatch):
    """On the two-module class, a staged section whose identity lift is the
    lift of the other coset, outside N, makes n(e, e) = s_e leave N; the
    twists of an abelian group with the trivial class are the module itself,
    so the intertwiners pass and the lift check raises."""
    context, N = two_module_class()
    stage_stack = MackeyContext._stage_stack

    def staged(self, kernels):
        (out,) = stage_stack(self, kernels)
        assert out.normal.order == 2 and out.section[1] not in out.normal.elements
        out.section = np.array([out.section[1], out.section[1]])
        return [out]

    monkeypatch.setattr(MackeyContext, "_stage_stack", staged)
    assert obstruction_error(lambda: context.decompose(N)) == "lifts of the inertia group do not compose inside N"


def four_points_over_c4():
    """C4xC4 with the trivial class over its second factor N: the quotient is
    C4 with the table of Z/4, and C^alpha N has four points of dimension 1,
    each fixed by conjugation.  A fresh context, so nothing is kept yet."""
    G = gq.make_group("C4xC4")
    N = gq.Subgroup(G, (0, 1, 2, 3))
    Q, _ = gq.quotient(G, N)
    assert np.array_equal(Q.table, (np.arange(4)[:, None] + np.arange(4)) % 4)
    probe = MackeyContext(CocycleTable.trivial(G)).decompose(N)
    assert [o.point_indices for o in probe.orbits] == [(0,), (1,), (2,), (3,)]
    return MackeyContext(CocycleTable.trivial(G)), N


# perms[q, i], the point conjugation by the lift of q sends point i to, given by
# its columns i; points 2 and 3 stay fixed
STAGING_FAULTS = [
    pytest.param([[1, 1, 1, 1], [1, 1, 1, 1]], False, "point orbits do not partition the points", id="partition"),
    pytest.param([[0, 1, 0, 1], [1, 0, 1, 0]], True, "orbit members disagree on module dimension", id="dims"),
    # point 0 is fixed by q = 0, 1, 2 and moved by q = 3: |T| |I| = 2 * 3 != 4
    pytest.param([[0, 0, 0, 1], [1, 1, 1, 0]], False, "orbit-stabilizer bookkeeping failed", id="stabilizer"),
    # point 0 is fixed by I = {1, 2}, T = (0, 1): 2 * 2 = 4, but T + I = {1, 2, 3} misses 0
    pytest.param([[1, 0, 0, 1], [0, 1, 1, 0]], False, "transversal cosets do not cover the quotient", id="cover"),
]


@pytest.mark.parametrize("columns, second_point_of_dim_two, message", STAGING_FAULTS)
def test_each_staging_check_fires_with_its_message(monkeypatch, columns, second_point_of_dim_two, message):
    """Each check ``_classify`` makes on the point action raises on the four
    points over C4 once the value it reads is made wrong: the action table
    of the one kernel of the stack (``_point_actions``), and for the
    dimension check also the dimension of point 1."""
    context, N = four_points_over_c4()
    perms = np.array(columns + [[2] * 4, [3] * 4]).T
    monkeypatch.setattr(MackeyContext, "_point_actions", lambda self, kernels: [perms] * len(kernels))
    if second_point_of_dim_two:
        wedderburn_all = context.oracle.wedderburn_all

        def wider(data):
            blocks = list(data.blocks)
            blocks[1] = dataclasses.replace(blocks[1], dim=2)
            return dataclasses.replace(data, blocks=tuple(blocks))

        monkeypatch.setattr(
            context.oracle, "wedderburn_all",
            lambda cocycles: [wider(data) if c.group.n == N.order else data
                              for c, data in zip(cocycles, wedderburn_all(cocycles))],
        )
    with pytest.raises(TheoremCheckError) as raised:
        context.decompose(N)
    assert str(raised.value) == message


def d2_module_with_inertia():
    """Q8xC2 over the subgroup of its even elements, of order 8: its one d = 2
    module has inertia of order 2 and is a pass of its own."""
    G = gq.make_group("Q8xC2")
    N, trivial = gq.Subgroup(G, tuple(range(0, 16, 2))), CocycleTable.trivial(G)
    probe = MackeyContext(trivial).decompose(N)
    assert [(o.dim, o.inertia.order) for o in probe.orbits if o.dim == 2] == [(2, 2)]
    return MackeyContext(trivial), N


def test_a_non_scalar_intertwiner_fails_the_composition(monkeypatch):
    """Right-multiplying the d = 2 module's intertwiner at the non-trivial
    inertia element by diag(1, i) keeps it unitary, but its square is no
    longer a scalar multiple of P_e rho(n)."""
    context, N = d2_module_with_inertia()
    intertwiners = mackey._intertwiners

    def broken(rho, rho_g):
        P, residual = intertwiners(rho, rho_g)
        if rho.shape[-1] == 2:
            P = P.copy()
            P[-1, 1] = P[-1, 1] @ np.diag([1.0, 1j])
        return P, residual

    monkeypatch.setattr(mackey, "_intertwiners", broken)
    assert obstruction_error(lambda: context.decompose(N)) == "intertwiner composition is not a scalar multiple"


def test_a_non_unitary_similar_twist_fails_the_unitarity_check(monkeypatch):
    """The identity twist of the d = 2 module replaced by S rho S^-1, S =
    diag(1, 2), keeps the character pairing at 1, but its intertwiner is S
    scaled to Frobenius norm sqrt(2), so P P^H - I = diag(-0.6, 0.6)."""
    context, N = d2_module_with_inertia()
    intertwiners = mackey._intertwiners

    def similar(rho, rho_g):
        if rho.shape[-1] == 2:
            S = np.diag([1.0, 2.0])
            rho_g = rho_g.copy()
            rho_g[-1, 0] = S @ rho_g[-1, 0] @ np.linalg.inv(S)
        return intertwiners(rho, rho_g)

    monkeypatch.setattr(mackey, "_intertwiners", similar)
    assert obstruction_error(lambda: context.decompose(N)) == "intertwiner is not unitary (defect 6.00e-01)"


def test_a_twist_off_by_a_small_phase_fails_the_residual():
    """On the two-module class, kappa(s, n) of the non-trivial lift s and the
    non-trivial n of N turned by 1e-6 radians moves the character pairing of
    each module's twist by sin(5e-7), within TOL_ROUND, and leaves each
    intertwiner 1; its residual |e^(1e-6 i) - 1| is ten times TOL_SCALAR."""
    context, N = two_module_class()
    section = np.asarray(mackey._first_occurrences(gq.quotient(context.group, N)[1].images))
    context.kappa = context.kappa.copy()
    context.kappa[section[1], N.elements[1]] *= np.exp(1e-6j)
    assert obstruction_error(lambda: context.decompose(N)) == "intertwiner residual 1.00e-06 beyond tolerance"


# -- decompose_all: one obstruction pass per class across a scan ----------------


@pytest.mark.parametrize("name, a", OBSTRUCTION_CASES, ids=[n for n, _ in OBSTRUCTION_CASES])
def test_decompose_all_matches_each_subgroup_alone(name, a):
    """On every orbit of every normal N, the decomposition the stacked scan
    keeps has the table (scale and exponent bytes), the blocks and the orbit
    data that decomposing N alone in a fresh context gives; the fresh
    contexts share one registry of their own."""
    G = a.group
    normals = gq.normal_subgroups(G)
    context = MackeyContext(a)
    assert context.decompose_all(normals) is None
    oracle = BlockOracle()
    for N in normals:
        got = context.decompose(N)
        want = MackeyContext(a, oracle=oracle).decompose(N)
        assert got.normal == N
        assert_same_decomposition(got, want)
        for o, w in zip(got.orbits, want.orbits):
            assert o.omega.scale == w.omega.scale and o.omega.exps.tobytes() == w.omega.exps.tobytes()
            assert o.inertia.elements == w.inertia.elements


def recorded_passes(monkeypatch):
    """Every non-trivial obstruction pass, as (inertia group, |N| per class,
    d, modules per class, modules whose lifts are per class)."""
    passes, obstructions = [], MackeyContext._obstructions

    def recorded(self, group, classes):
        if group.n > 1:
            d = {stage.points[indices[0]].dim for stage, _, indices in classes}
            passes.append((group, [stage.normal.order for stage, _, _ in classes], d, [len(i) for _, _, i in classes]))
        return obstructions(self, group, classes)

    monkeypatch.setattr(MackeyContext, "_obstructions", recorded)
    return passes


@pytest.mark.parametrize("invariants", THEOREM_D_CARRIERS)
def test_stacked_passes_fill_the_budget_by_inertia_table_d_and_order(monkeypatch, invariants):
    """On a Theorem-D carrier, each pass holds classes of one inertia table,
    one d and one |N|; passes of one key are filled in order, each closed
    only when the next class would take it past OBSTRUCTION_BUDGET, so a
    key has more than one pass only when its classes exceed the budget.
    Decomposing N by N makes one pass per class instead."""
    a = standard_nondegenerate(invariants)
    lattice = gq.subgroups(a.group)
    passes = recorded_passes(monkeypatch)
    MackeyContext(a).decompose_all(lattice)
    stacked = list(passes)
    by_key = {}
    for group, orders, d, sizes in stacked:
        assert len(set(orders)) == 1 and len(d) == 1
        by_key.setdefault((group, orders[0], d.pop()), []).append(sizes)
    for (group, order, d), batches in by_key.items():
        per_module = group.n * order * d * d
        for batch, following in zip(batches, batches[1:]):
            assert per_module * (sum(batch) + following[0]) > mackey.OBSTRUCTION_BUDGET
        assert all(per_module * sum(batch) <= mackey.OBSTRUCTION_BUDGET or len(batch) == 1 for batch in batches)
    passes.clear()
    context = MackeyContext(a)
    for N in lattice:
        context.decompose(N)
    assert len(stacked) < len(passes) == sum(len(sizes) for _, _, _, sizes in stacked)


def break_order_two_obstructions(monkeypatch):
    """On the trivial class of C2xC2, every obstruction pass reads kappa(1, 2)
    as -1.  Of the subgroups of order 2 only N = {0, 2}, lifted by 1, reads
    it, so N's twist becomes the other character of N; the points and orbits
    of every N, staged before any pass, are untouched."""
    obstructions = MackeyContext._obstructions

    def broken(self, group, classes):
        kappa = self.kappa
        self.kappa = kappa.copy()
        self.kappa[1, 2] *= -1
        try:
            return obstructions(self, group, classes)
        finally:
            self.kappa = kappa

    monkeypatch.setattr(MackeyContext, "_obstructions", broken)


def test_a_broken_subgroup_in_a_stacked_pass_fails_as_it_fails_alone(monkeypatch):
    """The three subgroups of order 2 of C2xC2 share one stacked pass.  With
    the module of N = {0, 2} broken, that pass raises and each class is
    passed alone right away; N keeps the message it raises alone, the other
    two decompose as they do alone, reading them makes no fifth pass, and
    criterion 1/2 records N only."""
    context, _ = two_module_class()
    order_two = [N for N in gq.subgroups(context.group) if N.order == 2]
    broken = order_two[1]
    assert broken.elements == (0, 2)
    want = {N.elements: two_module_class()[0].decompose(N) for N in order_two if N != broken}
    break_order_two_obstructions(monkeypatch)
    message = "character inner product of twist 1 with the module is -?0.0"
    with pytest.raises(CertificationError, match=message) as alone:
        two_module_class()[0].decompose(broken)
    passes = recorded_passes(monkeypatch)
    context.decompose_all(order_two)
    assert [orders for _, orders, _, _ in passes] == [[2, 2, 2], [2], [2], [2]]  # the stacked pass, then each N's own
    with pytest.raises(CertificationError) as stacked:
        context.decompose(broken)
    assert str(stacked.value) == str(alone.value)
    for N in order_two:
        if N != broken:
            assert_same_decomposition(context.decompose(N), want[N.elements])
    assert len(passes) == 4

    run = suite._Run(0)
    monkeypatch.setattr(suite, "_sweep_pairs", lambda group: [("C2xC2", "trivial")])
    c1, c2 = suite.criterion_1_and_2(run)
    assert c1.records == [("cases", "5"), ("C2xC2/trivial/N[0, 2]", f"decomposition failed: {alone.value}")]
    assert c2.records == [("cases", "5")] and not c1.passed and not c2.passed


def recorded_stages_and_passes(monkeypatch):
    """Every staging, as (context, elements of N), in the stacks of
    ``_stage_stack``, and the inertia group of every obstruction pass,
    trivial or not."""
    staged, groups = [], []
    stage_stack, obstructions = MackeyContext._stage_stack, MackeyContext._obstructions

    def recorded_stage(self, kernels):
        staged.extend((self, N.elements) for N, _ in kernels)
        return stage_stack(self, kernels)

    def recorded_obstructions(self, group, classes):
        groups.append(group)
        return obstructions(self, group, classes)

    monkeypatch.setattr(MackeyContext, "_stage_stack", recorded_stage)
    monkeypatch.setattr(MackeyContext, "_obstructions", recorded_obstructions)
    return staged, groups


def test_a_failing_subgroup_is_staged_once_per_context(monkeypatch):
    """With the module of N = {0, 2} broken, the context keeps N's error:
    decomposing N again, alone or in a second scan, raises the message N
    raises alone and stages and passes nothing more."""
    context, _ = two_module_class()
    order_two = [N for N in gq.subgroups(context.group) if N.order == 2]
    broken = order_two[1]
    break_order_two_obstructions(monkeypatch)
    with pytest.raises(CertificationError) as alone:
        two_module_class()[0].decompose(broken)
    staged, groups = recorded_stages_and_passes(monkeypatch)
    context.decompose_all(order_two)
    assert (len(staged), len(groups)) == (3, 4)
    for _ in range(2):
        with pytest.raises(CertificationError) as kept:
            context.decompose(broken)
        assert str(kept.value) == str(alone.value)
    context.decompose_all(order_two)
    assert (len(staged), len(groups)) == (3, 4)


def test_a_battery_round_stages_each_kernel_once(monkeypatch):
    """One seed-1 battery round stages each (context, N) once, 350 in all,
    and makes 108 obstruction passes, none of them on a trivial inertia
    group, whose classes take the trivial table when staged; neither
    Theorem-D carrier passes a trivial group either."""
    staged, groups = recorded_stages_and_passes(monkeypatch)
    suite.run_battery(1)
    assert len(staged) == len(set(staged)) == 350
    assert len(groups) == 108 and all(group.n > 1 for group in groups)
    for invariants in THEOREM_D_CARRIERS:
        a = standard_nondegenerate(invariants)
        maximal_elementary_quotients(a.group, a, seed=0)
    assert all(group.n > 1 for group in groups)


# -- staged stacks: kernels of one shape staged together -------------------------


class Staged(Exception):
    """Raised by the spy on ``_stacked_obstructions`` once it has the stages."""


def reference_stage(context, N):
    """The per-N staging: the quotient from the coset space, the
    minimal-index section, the points, and the conjugated points of this one
    kernel matched against its own points; (table, labels, name, images,
    section, points, perms)."""
    G = context.group
    cs = gq.coset_space(G, N)
    reps = np.array(cs.representatives)
    table = np.asarray(cs.block_of)[G.table[reps[:, None], reps]]
    section = np.asarray(mackey._first_occurrences(cs.block_of))
    points = context.oracle.wedderburn(context.cocycle.restrict(N)).blocks
    N_elems = np.asarray(N.elements)
    stacked = np.array([p.coeffs for p in points])
    targets = mackey._positions(G, N)[context.conj[section[:, None], N_elems]]
    phases = context.kappa[section[:, None], N_elems]
    raw = np.empty((len(section), *stacked.shape), dtype=np.complex128)
    raw[np.arange(len(section))[:, None, None], np.arange(len(points))[:, None], targets[:, None]] = (
        stacked * phases[:, None]
    )
    hits = np.abs(stacked - raw.reshape(-1, N.order)[:, None]).max(axis=2) <= TOL_ROUND
    assert (hits.sum(axis=1) == 1).all()
    perms = hits.argmax(axis=1).reshape(len(section), len(points))
    labels = [G.label(r) + "N" for r in cs.representatives]
    return table.tobytes(), labels, (G.name or "G") + "/N", cs.block_of, section.tolist(), points, perms.tolist()


def staged_scan(monkeypatch, a):
    """The stages and point actions of one scan of every normal N of
    ``a.group``, in a fresh context, stopped before the obstruction passes;
    with the sizes of the stacks staged."""
    stages, actions, stacks = [], {}, []
    stage_stack, point_actions = MackeyContext._stage_stack, MackeyContext._point_actions

    def stacked(self, kernels):
        stacks.append(len(kernels))
        return stage_stack(self, kernels)

    def acted(self, kernels):
        out = point_actions(self, kernels)
        actions.update((N.elements, perms.tolist()) for (N, _, _), perms in zip(kernels, out))
        return out

    def stop(self, staged):
        stages.extend(staged)
        raise Staged

    monkeypatch.setattr(MackeyContext, "_stage_stack", stacked)
    monkeypatch.setattr(MackeyContext, "_point_actions", acted)
    monkeypatch.setattr(MackeyContext, "_stacked_obstructions", stop)
    context = MackeyContext(a)
    normals = gq.normal_subgroups(a.group)
    with pytest.raises(Staged):
        context.decompose_all(normals)
    monkeypatch.undo()
    return context, normals, stages, actions, stacks


STAGING_CASES = [(f"{c[0]}/{c[2]}", c[3]) for c in sweep_cases()] + [
    (f"standard_nondegenerate({list(i)})", standard_nondegenerate(i)) for i in THEOREM_D_CARRIERS
]


@pytest.mark.parametrize("budget", [1, 1 << 62], ids=["one kernel per stack", "unbounded"])
def test_staged_stacks_match_the_per_kernel_reference(monkeypatch, budget):
    """Over the sweep and both Theorem-D carriers, every N of a scan is
    staged, in scan order, with the quotient table, labels, name and
    projection, the section, the points and the point action of the per-N
    reference, and the classes, inertia groups and trivial tables its
    classification of those gives; with stacks of one kernel and with one
    stack per shape."""
    stacks_seen = []
    for _, a in STAGING_CASES:
        monkeypatch.setattr(mackey, "MATCH_BUDGET", budget)
        context, normals, stages, actions, stacks = staged_scan(monkeypatch, a)
        stacks_seen += stacks
        assert [stage.normal.elements for stage in stages] == [N.elements for N in normals]
        for N, stage in zip(normals, stages):
            table, labels, name, images, section, points, perms = reference_stage(context, N)
            Q, proj = stage.quotient_group, stage.projection
            assert (Q.table.tobytes(), Q.labels, Q.name, proj.images) == (table, labels, name, images)
            assert stage.section.tolist() == section and actions[N.elements] == perms
            assert all(p is q for p, q in zip(stage.points, points)) and len(stage.points) == len(points)
            want = mackey._classify(N, points, Q, proj, np.array(section), np.array(perms))
            assert stage.classes == want.classes and stage.inertia == want.inertia
            assert stage.omegas.keys() == want.omegas.keys()
            for key, tables in stage.omegas.items():
                assert [t.exps.tobytes() for t in tables] == [t.exps.tobytes() for t in want.omegas[key]]
    assert max(stacks_seen) == 1 if budget == 1 else max(stacks_seen) > 10


def test_an_ambiguous_match_fails_its_kernel_alone(monkeypatch):
    """C2xC2xC2 with the trivial class: its seven subgroups of order 2 are
    one stack of shape (2, 2).  With the second point of one of them made a
    twin of the first, every conjugated point of that kernel lies near two
    points: it keeps the error it raises alone, and the six beside it get
    the decompositions of a fresh context."""
    G = gq.make_group("C2xC2xC2")
    a = CocycleTable.trivial(G)
    order_two = [N for N in gq.subgroups(G) if N.order == 2]
    bad = order_two[3]

    def twinned():
        context = MackeyContext(a)
        wedderburn_all = context.oracle.wedderburn_all

        def twin(cocycle, data):
            if cocycle.group is not bad.as_group():
                return data
            first, second = data.blocks
            return dataclasses.replace(data, blocks=(first, dataclasses.replace(second, coeffs=first.coeffs)))

        monkeypatch.setattr(
            context.oracle, "wedderburn_all",
            lambda cocycles: [twin(c, data) for c, data in zip(cocycles, wedderburn_all(cocycles))],
        )
        return context

    with pytest.raises(CertificationError) as alone:
        twinned().decompose(bad)
    assert str(alone.value) == f"idempotent match found 2 candidates within {TOL_ROUND}"
    stacks, stage_stack = [], MackeyContext._stage_stack
    monkeypatch.setattr(
        MackeyContext, "_stage_stack", lambda self, kernels: stacks.append(len(kernels)) or stage_stack(self, kernels)
    )
    context = twinned()
    context.decompose_all(order_two)
    assert stacks == [7]
    with pytest.raises(CertificationError) as kept:
        context.decompose(bad)
    assert str(kept.value) == str(alone.value)
    fresh = MackeyContext(a)
    for N in order_two:
        if N is not bad:
            assert_same_decomposition(context.decompose(N), fresh.decompose(N))


def test_a_bad_table_in_a_gauged_stack_raises_its_own_triple(monkeypatch):
    """A stack of gauged obstruction tables on C2xC2 that holds two
    normalized tables failing the 2-cocycle identity, with row products 1 so
    the gauge keeps them, raises the message of the first bad table alone,
    which names its own triple; a stack of valid tables is built with no
    table validated on its own."""
    a = standard_nondegenerate([2])
    group, k = a.group, a.group.n
    good = a.rescale(k).exps
    bad, worse = np.zeros((2, k, k), dtype=np.int64)
    bad[1, 1], bad[1, 2] = 1, 3
    worse[2, 3], worse[2, 2] = 1, 3
    omega = np.exp(2j * np.pi * np.stack([good, bad, worse, good]) / k)
    messages = []
    for table in (bad, worse):
        with pytest.raises(ValidationError) as lone:
            CocycleTable(group, k, table)
        messages.append(str(lone.value))
    assert messages[0] != messages[1] and messages[0].startswith("2-cocycle identity fails at triple (")
    with pytest.raises(ValidationError) as stacked:
        mackey._exact_cocycle(group, omega)
    assert str(stacked.value) == messages[0]
    validated, validate = [], CocycleTable._validate
    monkeypatch.setattr(CocycleTable, "_validate", lambda self: validated.append(self) or validate(self))
    tables = mackey._exact_cocycle(group, omega[[0, 3]])
    assert validated == [] and [t.exps.tobytes() for t in tables] == [good.tobytes()] * 2


def test_decompose_all_keeps_every_subgroup_that_decomposes():
    """A non-normal subgroup in the list keeps its own NormalityError, which
    ``decompose`` raises, and the others keep their decompositions, which a
    second scan leaves as they are; a subgroup of another group is refused
    first."""
    S3 = gq.make_group("S3")
    context = MackeyContext(CocycleTable.trivial(S3))
    normals = gq.normal_subgroups(S3)
    not_normal = next(H for H in gq.subgroups(S3) if not H.is_normal())
    context.decompose_all([normals[0], not_normal, *normals[1:]])
    with pytest.raises(NormalityError) as stacked:
        context.decompose(not_normal)
    with pytest.raises(NormalityError) as alone:
        mackey_decompose(CocycleTable.trivial(S3), not_normal)
    assert str(stacked.value) == str(alone.value)
    kept = [context.decompose(N) for N in normals]
    assert all(isinstance(dec, MackeyDecomposition) for dec in kept)
    context.decompose_all(normals)
    assert all(context.decompose(N) is dec for N, dec in zip(normals, kept))
    with pytest.raises(DomainError):
        context.decompose_all([normals[0], gq.Subgroup(gq.cyclic(6), (0,))])


# -- the decomposition checks fire ----------------------------------------------


def klein_by_itself():
    """The decomposition of C2xC2 with the trivial class by N = G: a trivial
    quotient and four orbits of dimension one, so |N| = 4 on its one element."""
    G = gq.make_group("C2xC2")
    return mackey_decompose(CocycleTable.trivial(G), gq.Subgroup(G, tuple(range(4))))


def with_first_orbit(dec, **changes):
    return dataclasses.replace(dec, orbits=(dataclasses.replace(dec.orbits[0], **changes),) + dec.orbits[1:])


def test_each_decomposition_check_fires_with_its_message():
    """Each check of ``_check_decomposition`` raises on a real decomposition
    with the one quantity it reads made wrong, and passes on the real one."""
    dec = klein_by_itself()
    mackey._check_decomposition(dec)
    three_summands = dataclasses.replace(dec.descriptor, summands=dec.descriptor.summands[1:])
    broken = [
        (with_first_orbit(dec, delta=2), "summand dimensions do not add up to |G|"),
        (with_first_orbit(dec, dim=2), "orbit dimension count does not reproduce |N|"),
        (dataclasses.replace(dec, descriptor=three_summands), "quotient grading is not constantly |N|: [3]"),
        (
            dataclasses.replace(dec, oracle_dims=(1,) * 5),
            "reconstruction mismatch: oracle (1, 1, 1, 1, 1) vs summands (1, 1, 1, 1)",
        ),
    ]
    for wrong, message in broken:
        with pytest.raises(TheoremCheckError) as raised:
            mackey._check_decomposition(wrong)
        assert str(raised.value) == message


def test_the_graded_simple_identity_fires():
    """The one orbit of nd_C2xC2 by the trivial N has |N|^2 |I| = d^2 |G| = 4;
    with d = 2 the identity fails."""
    a = standard_nondegenerate([2])
    dec = mackey_decompose(a, gq.Subgroup(a.group, (0,)))
    assert is_simple_quotient(dec)
    with pytest.raises(TheoremCheckError) as raised:
        is_simple_quotient(with_first_orbit(dec, dim=2))
    assert str(raised.value) == "graded-simple dimension identity failed"


def test_a_reconstruction_mismatch_fails_both_sweep_criteria(monkeypatch):
    """Criteria 1 and 2 read the checks the context ran: with every
    reconstruction wrong, each sweep kernel fails both criteria with its
    ``decomposition failed`` record."""
    monkeypatch.setattr(mackey, "_reconstructed_dims", lambda orbits: (0,))
    c1, c2 = suite.criterion_1_and_2(suite._Run(0))
    assert not c1.passed and not c2.passed
    (_, cases), *failed = c1.records
    assert c2.records == [("cases", cases)] and len(failed) == int(cases) == 312
    assert all(record.startswith("decomposition failed: reconstruction mismatch: oracle (") for _, record in failed)
    assert all(record.endswith(") vs summands (0,)") for _, record in failed)


def _orbit_signature(dec):
    return sorted((o.dim, o.inertia.order, o.omega_blocks) for o in dec.orbits)


@given(
    st.sampled_from(
        ["nd_C2xC2", "nd_C4xC4", "nd_C6xC6", "nd_C2xC2xC2xC2", "S3", "S4", "Q8", "D4", "C2xC4", "S4xC2", "nd_C2xC4xC2xC4"]
    ),
    st.data(),
)
@settings(max_examples=40, deadline=None)
def test_invariants_under_relabeling_and_coboundary_twist(name, data):
    a = _cocycle(name)
    G, m = a.group, a.scale
    perm = np.array([0] + data.draw(st.permutations(range(1, G.n))))
    table = np.empty_like(G.table)
    table[np.ix_(perm, perm)] = perm[G.table]
    H = gq.FiniteGroup(table)
    exps = np.empty_like(a.exps)
    exps[np.ix_(perm, perm)] = a.exps
    f = OneCochain(H, m, [0] + data.draw(st.lists(st.integers(0, m - 1), min_size=H.n - 1, max_size=H.n - 1)))
    b = CocycleTable(H, m, exps).mul(coboundary(f))
    A, B = TwistedAlgebra(G, a), TwistedAlgebra(H, b)
    assert A.center_dimension() == B.center_dimension()
    assert A.wedderburn(seed=0).dims == B.wedderburn(seed=0).dims
    N = data.draw(st.sampled_from(gq.normal_subgroups(G)))
    N_moved = gq.Subgroup(H, tuple(sorted(perm[list(N.elements)].tolist())))
    assert _orbit_signature(mackey_decompose(a, N, seed=0)) == _orbit_signature(
        mackey_decompose(b, N_moved, seed=0)
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
    target = np.array([reference_conjugate(A.group, g, n) for n in N_elems])
    kappa = np.array([reference_kappa(A, g, n) for n in N_elems])
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
        dec = mackey_decompose(a, N, seed=0)
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
