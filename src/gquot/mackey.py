"""Decomposition of quotient gradings of twisted group algebras.

Given (G, alpha, N normal), the quotient G/N-grading of C^alpha G splits
into simply-graded summands indexed by the G/N-orbits of the primitive
central idempotents of C^alpha N.  Each orbit carries an inertia subgroup, a
transversal, an elementary character d * sum(t), and an obstruction cocycle
on the inertia group.

What does not depend on N is built once, in a ``MackeyContext`` for one
(G, alpha, seed): the certified blocks of C^alpha G and the twisted
conjugation tables conj[h, g] = h g h^-1 and kappa(h, g), read exactly from
``CocycleTable.conjugation``, kappa then turned into phases by one
exponential.  The caller builds the context and passes it every N of a scan
(Theorem D decomposes every subgroup of one (G, alpha));
``mackey_decompose`` builds a fresh one for its one N.  Every block and
module the decomposition needs (C^alpha G, C^alpha N, the obstruction
algebra of each orbit) comes from the context's ``BlockOracle``, a registry
keyed by each algebra's exact inputs.  A context takes the registry from its
caller or makes its own; the acceptance battery shares one registry among
all its contexts and its isotropy and non-degeneracy checks for one run, so
an algebra that several kernels, orbits or checks meet is split once, with
the certificates of its first split.

Each step reads a table built once.  ``quotient`` tests normality; the
image list of its projection labels the coset block of every element, and
the first element of each block gives the minimal-index section Q -> G.  One
algebra C^alpha N gives the points and the module.  Matching the conjugated
points, read off the context's conjugation tables and matched in one batch,
gives the action table perms[q, i] of all of Q, so the orbit of point i is
column i (the columns must partition the points), the inertia group is where
it is fixed, and the first q reaching each orbit point forms the
transversal.

The obstruction is computed, not postulated: an irreducible module rho of the
base algebra is realized explicitly, and for every inertia element g at once
the intertwiner from rho to its coset twist rho_g is read off the Reynolds
average of X -> rho_g(n) X rho(n)^-1 over N, which is the orthogonal
projector onto Hom_N(rho, rho_g).  Its trace, the character inner product
<chi_{rho_g}, chi_rho>, must be 1: at the identity that certifies rho
irreducible, elsewhere that the twist is isomorphic to rho, so each
intertwiner is unique up to a scalar.  The degree-gamma endomorphisms T_g
built from the intertwiners are composed, and their composition scalars form
a unit-modulus cocycle omega on the inertia group I.  The block permutations
of T_b T_a and T_ab are compared exactly for every pair, but the blocks are
composed only for b in {e} and the generators of I: a defect within
TOL_SCALAR / (2L - 1) on those columns, L the depth of I's Cayley tree,
bounds the defect of every pair by TOL_SCALAR, and omega is extended along
the tree by omega(a, bs) = omega(a, b) omega(ab, s) / omega(b, s).
H^2(I, C*) is killed by k = |I|, so omega is moved by a coboundary onto a
table of k-th roots of unity, snapped to exponents within TOL_SCALAR and
validated exactly as a 2-cocycle; the orbit's obstruction is that exact
CocycleTable of scale |I|, and its blocks come from the exact algebra.  A
trivial inertia group carries only the trivial table of scale 1, so such an
orbit builds no module.

Everything the decomposition claims is cross-checked against the independent
block oracle: the ungraded Wedderburn multiset of C^alpha G must equal the
multiset reconstructed from the summands, for every N, and the quotient
grading must be equi-dimensional with every homogeneous component of
dimension |N|.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cocycles import CocycleTable
from .errors import CertificationError, DomainError, TheoremCheckError
from .gradings import (
    Character,
    GradingClassDescriptor,
    Summand,
    descriptor_dims,
    is_elementary_crossed_product,
)
from .groups import FiniteGroup, GroupHom, Subgroup, cayley_tree, quotient
from .twisted import TOL_ROUND, BlockOracle, IrrPoint, match_idempotent

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
    omega: CocycleTable
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


class MackeyContext:
    """The part of every decomposition of one (G, alpha, seed) that does not
    depend on N, built once by the caller and passed to each normal N.

    It holds the cocycle values ``alpha.value_matrix()``, the n x n twisted
    conjugation tables conj[h, g] = h g h^-1 and kappa(h, g) of
    ``alpha.conjugation()``, kappa as unit complex phases, and ``oracle``, the
    :class:`BlockOracle` that certifies the blocks of C^alpha G (``blocks``)
    and every algebra a decomposition meets.  ``oracle`` is the caller's
    registry when one is passed, so contexts and checks of one run share it,
    else a new one owned by this context.  ``decompose`` keeps each
    decomposition by the elements of N, for as long as the caller keeps the
    context.
    """

    def __init__(self, G: FiniteGroup, alpha: CocycleTable, seed: int = 0, oracle: BlockOracle | None = None):
        self.group = G
        self.cocycle = alpha
        self.seed = seed
        self.oracle = BlockOracle() if oracle is None else oracle
        self.blocks = self.oracle.wedderburn(alpha, seed)
        self.phases = alpha.value_matrix()
        self.conj, kappa = alpha.conjugation()
        self.kappa = np.exp(2j * np.pi * kappa / alpha.scale)
        self._decompositions: dict[tuple[int, ...], MackeyDecomposition] = {}

    def decompose(self, N: Subgroup) -> MackeyDecomposition:
        """Full decomposition of [C^alpha G / N] with all consistency checks."""
        if N.group != self.group:
            raise DomainError("subgroup belongs to a different group")
        dec = self._decompositions.get(N.elements)
        if dec is None:
            dec = self._decompositions[N.elements] = self._decompose(N)
        return dec

    def _decompose(self, N: Subgroup) -> MackeyDecomposition:
        G, seed = self.group, self.seed
        Q, proj = quotient(G, N)
        block_of = np.asarray(proj.images)
        section = np.asarray(_first_occurrences(proj.images))  # minimal-index lift Q -> G, identity first

        alpha_N = self.cocycle.restrict(N)  # for N = G this is alpha, whose blocks are self.blocks
        points = self.oracle.wedderburn(alpha_N, seed).blocks

        perms = self._conjugation_permutations(N, points, section)
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
            omega = self._obstruction(alpha_N, N, rep, inertia, section, block_of)
            blocks = self.oracle.wedderburn(omega, seed).dims
            orbits.append(
                MackeyOrbit(
                    point_indices=orbit,
                    dim=d,
                    inertia=inertia,
                    transversal=transversal,
                    x=x,
                    delta=delta,
                    omega=omega,
                    omega_blocks=blocks,
                    omega_trivial=all(f == 1 for f in blocks),
                    omega_nondegenerate=len(blocks) == 1,
                )
            )

        descriptor = GradingClassDescriptor(
            Q, tuple(Summand(o.x, o.inertia, o.omega) for o in orbits)
        )
        dec = MackeyDecomposition(
            group=G,
            cocycle=self.cocycle,
            normal=N,
            quotient_group=Q,
            projection=proj,
            points=points,
            orbits=tuple(orbits),
            descriptor=descriptor,
            oracle_dims=self.blocks.dims,
            reconstructed_dims=_reconstructed_dims(orbits),
            seed=seed,
        )
        _check_decomposition(dec)
        return dec

    def _conjugation_permutations(self, N, points, section):
        """perms[q, i]: the point that conjugation by section[q] sends point i to.

        u_g iota u_g^-1 moves the coefficient of iota at n to g n g^-1, times
        kappa(g, n); N is normal (``quotient`` checked it), so every target
        lies in N.  All |Q| P conjugated points are matched in one call; its
        temporary holds |Q| P^2 |N| <= |G| |N|^2 entries, no more than one
        match at N = G reaches on its own (|G|^3 for an abelian G with the
        trivial class).
        """
        N_elems = np.asarray(N.elements)
        pos = np.full(self.group.n, -1)
        pos[N_elems] = np.arange(len(N_elems))
        stacked = np.array([p.coeffs for p in points])
        targets = pos[self.conj[np.ix_(section, N_elems)]]
        phases = self.kappa[np.ix_(section, N_elems)]
        raw = np.empty((len(section), *stacked.shape), dtype=np.complex128)
        raw[np.arange(len(section))[:, None, None], np.arange(len(points))[:, None], targets[:, None]] = (
            stacked * phases[:, None]
        )
        matched = match_idempotent(raw.reshape(-1, len(N_elems)), points)
        return np.array([p.index for p in matched]).reshape(len(section), len(points))

    def _obstruction(self, alpha_N, N, index, inertia, section, block_of):
        """The obstruction cocycle on the inertia group, by endomorphism composition.

        For each inertia element a degree-homogeneous endomorphism of
        C^alpha G (x) M is assembled from its intertwiner; composing two of
        them is a scalar multiple of the one for the product.  Those scalars
        are measured on generator columns and extended along the inertia
        group's Cayley tree (``_composition_scalars``), then gauged into an
        exact table over the inertia group by ``_exact_cocycle``.  Each
        endomorphism moves whole coset blocks, so it is built and composed
        one d x d block per coset.
        """
        I_group = inertia.as_group()
        if I_group.n == 1:
            return CocycleTable.trivial(I_group)
        G, phases = self.group, self.phases
        N_embed = np.asarray(N.elements)
        N_pos = np.full(G.n, -1)
        N_pos[N_embed] = np.arange(len(N_embed))
        rho = self.oracle.irreducible_rep(alpha_N, index, self.seed)
        gs = section[list(inertia.elements)]

        # rho_g(n) = kappa(g, n) rho(g n g^-1), one row of the conjugation tables per g
        conj = self.conj[np.ix_(gs, N_embed)]
        kappa = self.kappa[np.ix_(gs, N_embed)]
        rho_g = kappa[:, :, None, None] * rho[N_pos[conj]]
        P_inv = _intertwiners(rho, rho_g).conj().transpose(0, 2, 1)

        # The degree-g endomorphism T_g sends coset block i (t_i N) to block
        # j = block_of(t_i g), t_i g = t_j n2, by the d x d block B[g, i]; T_g is
        # block-monomial, so it is kept as (j, B) and composed blockwise.
        prod = G.table[section, gs[:, None]]
        j = block_of[prod]
        t_j = section[j]
        n2 = G.table[G.inverse_table[t_j], prod]
        phase = phases[section, gs[:, None]] / phases[t_j, n2]
        B = phase[:, :, None, None] * (rho[N_pos[n2]] @ P_inv[:, None])
        return _exact_cocycle(I_group, _composition_scalars(I_group, j, B))


def _composition_scalars(group: FiniteGroup, j: np.ndarray, B: np.ndarray) -> np.ndarray:
    """The unit scalars omega(a, b) with T_b T_a = omega(a, b) T_ab on a
    non-trivial group, certified on generator columns.

    Each T_g is block-monomial and kept as (j[g], B[g]): coset block i goes to
    block j[g, i] by the d x d block B[g, i].  The block permutations must
    compose exactly, j[b, j[a]] == j[ab], for every pair (an integer check).
    The blocks are composed only for the r + 1 columns s in {e} and
    ``generating_sequence(group)``, all in one batch of (r + 1) k q d^2
    entries, r <= log2 k: lambda(a, s) = <T_as, T_s T_a> / ||T_as||^2 and
    omega(a, s) = lambda / |lambda|.

    Let E(a, b) = T_b T_a - omega(a, b) T_ab and eps_gen the largest
    Frobenius norm of E(a, s) over every a and every column s.  Along the
    Cayley BFS tree of the group (``cayley_tree``, depth L), omega is
    extended by omega(a, bs) = omega(a, b) omega(ab, s) / omega(b, s), one
    vectorized step per tree layer.  Writing T_bs from E(b, s) and T_s T_ab
    from E(ab, s) gives

        E(a, bs) = conj(omega(b, s)) [omega(a, b) E(ab, s) + T_s E(a, b) - E(b, s) T_a],

    and each T is unitary (a permutation of unitary blocks), so
    ||T X||_F = ||X T||_F = ||X||_F and e(l) <= e(l - 1) + 2 eps_gen for the
    largest ||E(a, w)||_F over words w of length l, with e(1) = eps_gen; the
    column e covers b = e.  So every ||E(a, b)||_F, and with it every entry,
    is at most (2L - 1) eps_gen, and requiring eps_gen <= TOL_SCALAR / (2L - 1)
    on the columns is no weaker than the entrywise all-pairs test against
    TOL_SCALAR.  Since lambda projects T_s T_a onto T_as, ||E(a, s)||_F^2 is
    ||T_s T_a - lambda T_as||_F^2 plus (|lambda| - 1)^2 ||T_as||_F^2 with
    ||T_as||_F >= 1, so the modulus check ||lambda| - 1| <= TOL_SCALAR / (2L - 1)
    is part of the same test.  A column whose distance to lambda T_as alone
    exceeds the threshold is not a scalar multiple; otherwise a failing column
    has the wrong modulus.

    Rounding, and the unitarity check of ``_intertwiners`` (10 TOL_SCALAR
    per entry of P P^H - I), leave each T unitary only up to
    ||T||_2 <= 1 + eta; the recursion then reads
    e(l) <= (1 + eta) e(l - 1) + (2 + eta) eps_gen, and the bound grows by at
    most the factor (1 + eta)^L.  For eta of the order of the unit roundoff
    that is below 1 + 1e-10; the most the unitarity check admits,
    eta <= 5e-7 d, gives about 1 + 5e-7 d L.  ``_exact_cocycle`` then
    validates the whole gauged table exactly.
    """
    k = group.n
    rows = max(1, 2**16 // (k * j.shape[1]))  # the exact law on all pairs, 2^16 entries at a time
    for a in range(0, k, rows):
        if (j[np.arange(k)[:, None], j[a : a + rows, None]] != j[group.table[a : a + rows]]).any():
            raise CertificationError("endomorphism composition is not a scalar multiple")
    tree = cayley_tree(group)
    tol = TOL_SCALAR / (2 * tree.height - 1)
    norms = (np.abs(B) ** 2).sum(axis=(1, 2, 3))
    cols = np.array((0, *tree.generators))
    composed = B[cols[:, None, None], j] @ B  # [c, a]: apply degree a first, then degree cols[c]
    products = group.table[:, cols].T  # [c, a] = a cols[c]
    target, target_norms = B[products], norms[products]
    lam = np.einsum("caipq,caipq->ca", target.conj(), composed) / target_norms
    residual = np.sqrt((np.abs(composed - lam[..., None, None, None] * target) ** 2).sum(axis=(2, 3, 4)))
    defect = np.sqrt(residual**2 + (np.abs(lam) - 1.0) ** 2 * target_norms)  # ||E(a, cols[c])||_F
    fails = np.argwhere(defect.T > tol)  # row-major: the first failing a, then its first column
    if fails.size:
        a, c = fails[0]
        if residual[c, a] > tol:
            raise CertificationError("endomorphism composition is not a scalar multiple")
        raise CertificationError(f"obstruction scalar has modulus {abs(lam[c, a]):.12f}")
    omega = np.empty((k, k), dtype=np.complex128)
    omega[:, cols] = (lam / np.abs(lam)).T
    for level in range(2, tree.height + 1):
        b = np.flatnonzero(tree.depth == level)
        p, s = tree.parent[b], tree.edge[b]
        omega[:, b] = omega[:, p] * omega[group.table[:, p], s] / omega[p, s]
    return omega


def mackey_decompose(
    G: FiniteGroup, alpha: CocycleTable, N: Subgroup, seed: int = 0
) -> MackeyDecomposition:
    """Full decomposition of [C^alpha G / N] with all consistency checks.

    Builds a context, with a new block oracle, for this one N; to decompose
    several N of the same (G, alpha), build one ``MackeyContext`` and call
    its ``decompose``.
    """
    return MackeyContext(G, alpha, seed).decompose(N)


def _first_occurrences(labels) -> tuple[int, ...]:
    """The smallest index carrying each distinct label, in increasing order."""
    first = {}
    for i, label in enumerate(labels):
        first.setdefault(label, i)
    return tuple(first.values())


def _exact_cocycle(group: FiniteGroup, omega: np.ndarray) -> CocycleTable:
    """The unit-modulus cocycle table omega on ``group`` as exponents of |group|-th
    roots of unity, in its class.

    With k = |group| and F(a) = prod_c omega(a, c), the cocycle identity gives
    omega(a, b)^k = F(a) F(b) / F(ab), so for c the principal k-th root of F
    the cohomologous table omega(a, b) c(ab) / (c(a) c(b)) has k-th roots of
    unity as values (Karpilovsky, *Projective Representations of Finite
    Groups*, 1985).  Each value is snapped to the nearest one, which must lie
    within TOL_SCALAR, and the exponent table is validated as a 2-cocycle.
    """
    k = group.n
    c = np.exp(1j * np.angle(omega.prod(axis=1)) / k)
    gauged = omega * c[group.table] / np.outer(c, c)
    exps = np.round(np.angle(gauged) * k / (2 * np.pi)).astype(np.int64) % k
    residual = float(np.abs(np.exp(2j * np.pi * exps / k) - gauged).max())
    if residual > TOL_SCALAR:
        raise CertificationError(f"obstruction is {residual:.2e} away from the |I|-th roots of unity")
    return CocycleTable(group, k, exps)


def _intertwiners(rho, rho_g):
    """The unitary P[g] with rho_g[g](n) P[g] = P[g] rho(n), for every twist at once.

    X -> rho_g(n) X rho(n)^-1 is a unitary representation of N, because rho_g
    and rho carry the same cocycle, so its average
    R_g = (1/|N|) sum_n rho_g(n) (x) conj(rho(n)) on row-major vec is the
    orthogonal projector onto Hom_N(rho, rho_g) (Serre, section 2).  Its trace
    <chi_{rho_g}, chi_rho> must be 1 within TOL_ROUND, which for the identity
    twist is the character norm of rho.  P is the largest column of R_g,
    scaled to Frobenius norm sqrt(d) with its first entry above 1e-6 made real
    positive; it must be unitary and must intertwine.
    """
    k, n, d, _ = rho_g.shape
    R = rho_g.reshape(k, n, d * d).transpose(0, 2, 1) @ rho.conj().reshape(n, d * d)
    R = R.reshape(k, d, d, d, d).transpose(0, 1, 3, 2, 4).reshape(k, d * d, d * d) / n
    pairing = np.trace(R, axis1=1, axis2=2)
    bad = np.flatnonzero(np.abs(pairing - 1.0) > TOL_ROUND)
    if bad.size:
        raise CertificationError(
            f"character inner product of twist {bad[0]} with the module is "
            f"{pairing[bad[0]]:.12f}, expected 1"
        )
    column = np.linalg.norm(R, axis=1).argmax(axis=1)
    P = R[np.arange(k), :, column].reshape(k, d, d)
    P *= np.sqrt(d) / np.linalg.norm(P, axis=(1, 2))[:, None, None]
    flat = P.reshape(k, d * d)
    lead = flat[np.arange(k), (np.abs(flat) > 1e-6).argmax(axis=1)]
    P *= (np.abs(lead) / lead)[:, None, None]
    unitary = float(np.abs(P @ P.conj().transpose(0, 2, 1) - np.eye(d)).max())
    if unitary > TOL_SCALAR * 10:
        raise CertificationError(f"intertwiner is not unitary (defect {unitary:.2e})")
    residual = float(np.abs(rho_g @ P[:, None] - P[:, None] @ rho).max())
    if residual > TOL_SCALAR:
        raise CertificationError(f"intertwiner residual {residual:.2e} beyond tolerance")
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
