"""Decomposition of quotient gradings of twisted group algebras.

Given (G, alpha, N normal), the quotient G/N-grading of C^alpha G splits
into simply-graded summands indexed by the G/N-orbits of the primitive
central idempotents of C^alpha N.  Each orbit carries an inertia subgroup, a
transversal, an elementary character d * sum(t), and an obstruction cocycle
on the inertia group.

Each step reads a table built once.  ``quotient`` tests normality; the
image list of its projection labels the coset block of every element, and
the first element of each block gives the minimal-index section Q -> G.  One
algebra C^alpha N gives the points and the module.  Matching the conjugated
points in one distance table per section element gives the action table
perms[q, i] of all of Q, so the orbit of point i is column i (the columns
must partition the points), the inertia group is where it is fixed, and the
first q reaching each orbit point forms the transversal.

The obstruction is computed, not postulated: an irreducible module of the
base algebra is realized explicitly, intertwiners between the module and its
coset twists are solved for, and the degree-gamma endomorphisms built from
them are composed.  Their composition scalars form the cocycle, so the
2-cocycle identity and the class are structural, while the raw table depends
on the stated deterministic gauge.

Everything the decomposition claims is cross-checked against the independent
block oracle: the ungraded Wedderburn multiset of C^alpha G must equal the
multiset reconstructed from the summands, and the quotient grading must be
equi-dimensional with every homogeneous component of dimension |N|.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cocycles import CocycleTable
from .errors import CertificationError, TheoremCheckError
from .gradings import (
    Character,
    GradingClassDescriptor,
    Summand,
    descriptor_dims,
    is_elementary_crossed_product,
)
from .groups import FiniteGroup, GroupHom, Subgroup, quotient
from .twisted import IrrPoint, TwistedAlgebra, conjugate_idempotent_coeffs, match_idempotent

TOL_NULL = 1e-8
TOL_GAP = 1e-4
TOL_SCALAR = 1e-7


@dataclass(frozen=True)
class MackeyOrbit:
    """One simply-graded summand of the quotient grading."""

    point_indices: tuple[int, ...]
    dim: int
    inertia: Subgroup
    transversal: tuple[int, ...]
    x: Character
    delta: int
    omega: np.ndarray
    omega_group: FiniteGroup
    omega_embed: tuple[int, ...]
    omega_blocks: tuple[int, ...]
    omega_trivial: bool
    omega_nondegenerate: bool


@dataclass(frozen=True)
class MackeyDecomposition:
    group: FiniteGroup
    cocycle: CocycleTable
    normal: Subgroup
    quotient_group: FiniteGroup
    projection: GroupHom
    points: tuple[IrrPoint, ...]
    orbits: tuple[MackeyOrbit, ...]
    descriptor: GradingClassDescriptor
    oracle_dims: tuple[int, ...]
    reconstructed_dims: tuple[int, ...]
    seed: int


def mackey_decompose(
    G: FiniteGroup, alpha: CocycleTable, N: Subgroup, seed: int = 0
) -> MackeyDecomposition:
    """Full decomposition of [C^alpha G / N] with all consistency checks."""
    Q, proj = quotient(G, N)
    block_of = np.asarray(proj.images)
    section = np.asarray(_first_occurrences(proj.images))  # minimal-index lift Q -> G, identity first

    A_G = TwistedAlgebra(G, alpha)
    alpha_N, N_group, N_embed = alpha.restrict(N)
    A_N = TwistedAlgebra(N_group, alpha_N)
    points = A_N.wedderburn(seed=seed).blocks

    perms = _conjugation_permutations(A_G, N, points, section)
    orbit_of = [frozenset(col) for col in perms.T.tolist()]
    if any(i not in o or any(orbit_of[j] != o for j in o) for i, o in enumerate(orbit_of)):
        raise TheoremCheckError("point orbits do not partition the points")

    orbits = []
    for orbit in sorted({tuple(sorted(o)) for o in orbit_of}):
        rep = orbit[0]
        d = points[rep].dim
        if any(points[i].dim != d for i in orbit):
            raise TheoremCheckError("orbit members disagree on module dimension")
        images = perms[:, rep]
        inertia = Subgroup(Q, tuple(np.flatnonzero(images == rep).tolist()))
        transversal = _first_occurrences(images.tolist())  # one minimal q per coset q * inertia
        if len(transversal) * inertia.order != Q.n:
            raise TheoremCheckError("orbit-stabilizer bookkeeping failed")
        if len(set(Q.table[np.ix_(transversal, inertia.elements)].ravel().tolist())) != Q.n:
            raise TheoremCheckError("transversal cosets do not cover the quotient")
        delta_num = G.n * G.n * d * d
        delta_den = N.order * N.order * inertia.order
        if delta_num % delta_den:
            raise TheoremCheckError("summand dimension is not an integer")
        delta = delta_num // delta_den
        x = Character.from_dict(Q, {t: d for t in transversal})
        omega, I_group, I_embed = _obstruction(
            A_G, A_N, N_embed, points[rep], inertia, section, block_of, seed
        )
        blocks = TwistedAlgebra(I_group, omega).wedderburn(seed=seed).dims
        orbits.append(
            MackeyOrbit(
                point_indices=orbit,
                dim=d,
                inertia=inertia,
                transversal=transversal,
                x=x,
                delta=delta,
                omega=omega,
                omega_group=I_group,
                omega_embed=I_embed,
                omega_blocks=blocks,
                omega_trivial=all(f == 1 for f in blocks),
                omega_nondegenerate=len(blocks) == 1,
            )
        )

    descriptor = GradingClassDescriptor(
        Q, tuple(Summand(o.x, o.inertia, o.omega) for o in orbits)
    )
    oracle = A_G.wedderburn(seed=seed).dims
    reconstructed = _reconstructed_dims(orbits)
    dec = MackeyDecomposition(
        group=G,
        cocycle=alpha,
        normal=N,
        quotient_group=Q,
        projection=proj,
        points=points,
        orbits=tuple(orbits),
        descriptor=descriptor,
        oracle_dims=oracle,
        reconstructed_dims=reconstructed,
        seed=seed,
    )
    _check_decomposition(dec)
    return dec


def _first_occurrences(labels) -> tuple[int, ...]:
    """The smallest index carrying each distinct label, in increasing order."""
    first = {}
    for i, label in enumerate(labels):
        first.setdefault(label, i)
    return tuple(first.values())


def _conjugation_permutations(A_G, N, points, section):
    """perms[q, i]: the point that conjugation by section[q] sends point i to."""
    stacked = np.array([p.coeffs for p in points])
    rows = (conjugate_idempotent_coeffs(A_G, N.elements, g, stacked) for g in section)
    return np.array([[p.index for p in match_idempotent(raw, points)] for raw in rows])


def _obstruction(A_G, A_N, N_embed, point, inertia, section, block_of, seed):
    """The obstruction cocycle on the inertia group, by endomorphism composition.

    For each inertia element a degree-homogeneous endomorphism of
    C^alpha G (x) M is assembled from a solved intertwiner; composing two of
    them is a scalar multiple of the one for the product, and those scalars
    are returned as a table over the inertia group.  Each endomorphism moves
    whole coset blocks, so it is built and composed one d x d block per coset.
    """
    G = A_G.group
    N_embed = np.asarray(N_embed)
    N_pos = np.full(G.n, -1)
    N_pos[N_embed] = np.arange(len(N_embed))
    I_group, I_embed = inertia.as_group()
    k = I_group.n
    d = point.dim
    rho = A_N.irreducible_rep(point, seed=seed)
    gs = section[list(I_embed)]

    # rho_g(n) = kappa(g, n) rho(g n g^-1), one row of the conjugation tables per g
    conj, kappa = A_G.conjugation(gs[:, None], N_embed)
    P_inv = np.array(
        [
            _solve_intertwiner(rho, kappa[li][:, None, None] * rho[N_pos[conj[li]]], d).conj().T
            for li in range(k)
        ]
    )

    # The degree-g endomorphism T_g sends coset block i (t_i N) to block
    # j = block_of(t_i g), t_i g = t_j n2, by the d x d block B[g, i]; T_g is
    # block-monomial, so it is kept as (j, B) and composed blockwise.
    prod = G.table[section, gs[:, None]]
    j = block_of[prod]
    t_j = section[j]
    n2 = G.table[G.inverse_table[t_j], prod]
    phase = A_G.phases[section, gs[:, None]] / A_G.phases[t_j, n2]
    B = phase[:, :, None, None] * (rho[N_pos[n2]] @ P_inv[:, None])
    norms = (np.abs(B) ** 2).sum(axis=(1, 2, 3))

    omega = np.empty((k, k), dtype=np.complex128)
    for a in range(k):
        ab = I_group.table[a]
        composed = B[:, j[a]] @ B[a]  # row b: apply degree-a first, then degree-b
        target = B[ab]
        lam = np.einsum("bipq,bipq->b", target.conj(), composed) / norms[ab]
        defect = np.abs(composed - lam[:, None, None, None] * target).max(axis=(1, 2, 3))
        scale = np.maximum(1.0, np.abs(composed).max(axis=(1, 2, 3)))
        not_scalar = (j[:, j[a]] != j[ab]).any(axis=1) | (defect > TOL_SCALAR * scale)
        fails = np.flatnonzero(not_scalar | (np.abs(np.abs(lam) - 1.0) > TOL_SCALAR))
        if fails.size:
            if not_scalar[fails[0]]:
                raise CertificationError("endomorphism composition is not a scalar multiple")
            raise CertificationError(f"obstruction scalar has modulus {abs(lam[fails[0]]):.12f}")
        omega[a] = lam / np.abs(lam)
    return omega, I_group, I_embed


def _solve_intertwiner(rho, rho_g, d):
    """The unique-up-to-scalar P with rho_g(n) P = P rho(n), unit-normalized.

    Row-major vectorization: (rho_g(n) (x) I - I (x) rho(n)^T) vec(P) = 0,
    the Kronecker products formed by broadcasting against the identity.
    The nullspace must be exactly one-dimensional and P must be unitary
    after scaling; anything else fails certification.
    """
    eye = np.eye(d)
    rho_t = rho.transpose(0, 2, 1)
    K = (
        rho_g[:, :, None, :, None] * eye[:, None, :]
        - eye[:, None, :, None] * rho_t[:, None, :, None, :]
    ).reshape(-1, d * d)
    _, s, Vh = np.linalg.svd(K, full_matrices=False)
    scale = max(1.0, float(s[0])) if len(s) else 1.0
    null = int(np.sum(s < TOL_NULL * scale))
    if null != 1:
        raise CertificationError(f"intertwiner nullspace has dimension {null}, expected 1")
    if len(s) > 1 and s[-2] < TOL_GAP * scale:
        raise CertificationError("intertwiner nullspace is not well separated")
    P = Vh[-1].conj().reshape(d, d)
    P = P * (np.sqrt(d) / np.linalg.norm(P))
    defect = float(np.max(np.abs(P @ P.conj().T - eye)))
    if defect > TOL_SCALAR * 10:
        raise CertificationError(f"intertwiner is not unitary (defect {defect:.2e})")
    flat = P.ravel()
    lead = next((v for v in flat if abs(v) > 1e-6), None)
    if lead is None:
        raise CertificationError("intertwiner vanished after normalization")
    P = P * (abs(lead) / lead)
    return P


def _reconstructed_dims(orbits) -> tuple[int, ...]:
    out = []
    for o in orbits:
        r = o.dim * len(o.transversal)
        out.extend(r * f for f in o.omega_blocks)
    return tuple(sorted(out))


def _check_decomposition(dec: MackeyDecomposition) -> None:
    G, N, Q = dec.group, dec.normal, dec.quotient_group
    if sum(o.delta for o in dec.orbits) != G.n:
        raise TheoremCheckError("summand dimensions do not add up to |G|")
    if sum(o.dim * o.dim * len(o.transversal) for o in dec.orbits) != N.order:
        raise TheoremCheckError("orbit dimension count does not reproduce |N|")
    dims = descriptor_dims(dec.descriptor)
    values = {dims.get(q, 0) for q in Q.elements()}
    if values != {N.order}:
        raise TheoremCheckError(f"quotient grading is not constantly |N|: {sorted(values)}")
    if dec.oracle_dims != dec.reconstructed_dims:
        raise TheoremCheckError(
            f"reconstruction mismatch: oracle {dec.oracle_dims} vs summands {dec.reconstructed_dims}"
        )


# -- verdicts ----------------------------------------------------------------


def is_simple_quotient(dec: MackeyDecomposition) -> bool:
    """Graded-simple iff one orbit; asserts |N|^2 |I| = d^2 |G| when so."""
    simple = len(dec.orbits) == 1
    if simple:
        o = dec.orbits[0]
        if dec.normal.order ** 2 * o.inertia.order != o.dim ** 2 * dec.group.n:
            raise TheoremCheckError("graded-simple dimension identity failed")
    return simple


def is_elementary_quotient(dec: MackeyDecomposition) -> bool:
    """Elementary iff every inertia group is trivial."""
    return all(o.inertia.order == 1 for o in dec.orbits)


def is_ecp_quotient(dec: MackeyDecomposition) -> bool:
    return is_elementary_crossed_product(dec.descriptor)
