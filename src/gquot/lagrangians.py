"""Isotropic subgroups, Lagrangians, and the bridge to bijective 1-cocycles.

A subgroup is isotropic when the cocycle class restricts trivially to it;
a Lagrangian is a normal isotropic subgroup of square-root order under a
non-degenerate class.  Quotients by Lagrangians are exactly the elementary
crossed products, which ties twisted gradings to the groups admitting
bijective 1-cocycles (set-theoretic Yang-Baxter solutions).

Every verdict is double-certified: the exact coboundary solver and the
numeric block oracle must agree, and every theorem-level equivalence is
computed on both sides and compared, raising on any disagreement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .cocycles import CocycleTable, bicharacter_of, is_cohomologically_trivial, is_nondegenerate
from .errors import DomainError, SizeBoundError, TheoremCheckError
from .groups import (
    FiniteGroup,
    Subgroup,
    abelian_group_from_invariants,
    are_isomorphic,
    generating_sequence,
    homomorphisms,
    invariant_factor_sequences,
    permutation_group,
    quotient,
    subgroups,
)
from .mackey import (
    MackeyContext,
    MackeyDecomposition,
    is_ecp_quotient,
    is_elementary_quotient,
    mackey_decompose,
)
from .twisted import BlockOracle

IYB_BOUND = 12  # largest order the bijective 1-cocycle search accepts


@dataclass(frozen=True)
class IsotropyReport:
    subgroup: Subgroup
    isotropic: bool
    witness: object          # OneCochain when the class is trivial, else None
    one_dim_blocks: int
    block_dims: tuple[int, ...]


@dataclass(frozen=True)
class LagrangianReport:
    subgroup: Subgroup
    isotropic: bool
    witness: object
    normal: bool

    @property
    def is_lagrangian(self) -> bool:
        return self.isotropic


def is_isotropic(
    G: FiniteGroup, alpha: CocycleTable, H: Subgroup, seed: int = 0, oracle: BlockOracle | None = None
) -> IsotropyReport:
    """Whether the class restricts trivially to H, with two certificates.

    The exact certificate solves the coboundary system over Z/m; the numeric
    one asks the block oracle (``oracle``, or a new registry) for a
    one-dimensional block of the restricted algebra (existence of a
    one-dimensional module is equivalent to a trivial restricted class, for
    abelian and non-abelian H alike).  The two must agree.
    """
    if alpha.group != G:
        raise DomainError("cocycle lives on a different group")
    rest, H_group, _ = alpha.restrict(H)
    trivial, witness = is_cohomologically_trivial(rest)
    dims = (BlockOracle() if oracle is None else oracle).wedderburn(rest, seed).dims
    ones = sum(1 for d in dims if d == 1)
    oracle_verdict = ones >= 1
    if H_group.is_abelian:
        zero_form = bicharacter_of(rest).is_zero()
        if zero_form != trivial:
            raise TheoremCheckError("bicharacter and coboundary certificates disagree")
        if trivial != (ones == H_group.n):
            raise TheoremCheckError("abelian isotropy: oracle disagrees with exact solve")
    if trivial != oracle_verdict:
        raise TheoremCheckError("isotropy certificates disagree (exact vs oracle)")
    return IsotropyReport(H, trivial, witness, ones, dims)


def lagrangian_scan(
    G: FiniteGroup, alpha: CocycleTable, normal_only: bool = False, seed: int = 0,
    oracle: BlockOracle | None = None,
) -> list[LagrangianReport]:
    """All (normal) subgroups of order sqrt|G| with isotropy verdicts.

    Exhaustive over the subgroup lattice, so completeness is by construction.
    Every block-oracle question goes to ``oracle``, or to one new registry.
    """
    root = math.isqrt(G.n)
    if root * root != G.n:
        raise DomainError(f"|G| = {G.n} is not a perfect square")
    if oracle is None:
        oracle = BlockOracle()
    if not is_nondegenerate(G, alpha, seed=seed, oracle=oracle):
        raise DomainError("lagrangian_scan expects a non-degenerate class")
    out = []
    for H in subgroups(G):
        if H.order != root:
            continue
        normal = H.is_normal()
        if normal_only and not normal:
            continue
        rep = is_isotropic(G, alpha, H, seed=seed, oracle=oracle)
        out.append(LagrangianReport(H, rep.isotropic, rep.witness, normal))
    return out


def crossed_product_iff_lagrangian(
    G: FiniteGroup, alpha: CocycleTable, N: Subgroup, seed: int = 0, dec: MackeyDecomposition | None = None,
    oracle: BlockOracle | None = None,
) -> bool:
    """ECP verdict of the quotient equals the Lagrangian verdict of N.

    Both sides are computed independently; disagreement is an implementation
    bug and raises.  Returns the shared verdict.  A ``dec`` passed in must be
    the decomposition of (G, alpha, N, seed).  The isotropy check asks
    ``oracle``, or a new registry.
    """
    if dec is None:
        dec = mackey_decompose(G, alpha, N, seed=seed)
    elif (dec.group, dec.cocycle, dec.normal, dec.seed) != (G, alpha, N, seed):
        raise DomainError("Mackey decomposition is for a different (group, cocycle, subgroup, seed)")
    ecp = is_ecp_quotient(dec)
    lag = N.order * N.order == G.n and is_isotropic(G, alpha, N, seed=seed, oracle=oracle).isotropic
    if ecp != lag:
        raise TheoremCheckError(
            f"biconditional violated on N of order {N.order}: ECP={ecp}, Lagrangian={lag}"
        )
    return ecp


@dataclass(frozen=True)
class MaximalElementaryReport:
    group: FiniteGroup
    elementary_normals: tuple[Subgroup, ...]
    maximal_normals: tuple[Subgroup, ...]
    lagrangian_normals: tuple[Subgroup, ...]
    quotient_groups: tuple[FiniteGroup, ...]
    unique_maximal_class: bool
    decompositions: dict


def maximal_elementary_quotients(
    A: FiniteGroup, alpha: CocycleTable, seed: int = 0, context: MackeyContext | None = None
) -> MaximalElementaryReport:
    """Maximal elementary quotient classes of a non-degenerate abelian class.

    Scans every subgroup (all are normal), decides elementarity through the
    decomposition, takes inclusion-minimal kernels (which are the maximal
    classes under the quotient order), and compares the result against the
    Lagrangian characterization.  Uniqueness is isomorphism of all maximal
    quotient groups, which determines the elementary crossed product class.
    Every subgroup is decomposed through one ``MackeyContext`` for
    (A, alpha, seed): ``context`` when the caller holds one, else a new one.
    The Lagrangian scan asks the context's ``BlockOracle``, so it reuses the
    blocks the decompositions certified.
    """
    if not A.is_abelian:
        raise DomainError("maximal_elementary_quotients expects an abelian group")
    if not is_nondegenerate(A, alpha, seed=seed):
        raise DomainError("expects a non-degenerate class")
    if context is None:
        context = MackeyContext(A, alpha, seed)
    elif (context.group, context.cocycle, context.seed) != (A, alpha, seed):
        raise DomainError("Mackey context is for a different (group, cocycle, seed)")
    decs: dict = {}
    elementary = []
    for N in subgroups(A):
        dec = decs[N.elements] = context.decompose(N)
        if is_elementary_quotient(dec):
            elementary.append(N)
    elem_sets = [set(N.elements) for N in elementary]
    maximal = [
        N
        for i, N in enumerate(elementary)
        if not any(j != i and elem_sets[j] < elem_sets[i] for j in range(len(elementary)))
    ]
    lagrangians = [
        r.subgroup for r in lagrangian_scan(A, alpha, seed=seed, oracle=context.oracle) if r.is_lagrangian
    ]
    if {N.elements for N in maximal} != {N.elements for N in lagrangians}:
        raise TheoremCheckError("maximal elementary quotients differ from Lagrangian kernels")
    for N in maximal:
        if not is_ecp_quotient(decs[N.elements]):
            raise TheoremCheckError("a maximal elementary quotient is not a crossed product")
    quots = tuple(decs[N.elements].quotient_group for N in maximal)
    unique = all(
        are_isomorphic(quots[0], Q).isomorphic for Q in quots[1:]
    ) if quots else True
    return MaximalElementaryReport(
        group=A,
        elementary_normals=tuple(elementary),
        maximal_normals=tuple(maximal),
        lagrangian_normals=tuple(lagrangians),
        quotient_groups=quots,
        unique_maximal_class=unique,
        decompositions=decs,
    )


# -- bijective 1-cocycles -------------------------------------------------------


@dataclass(frozen=True)
class IYBWitness:
    """A verified bijective 1-cocycle from H into an abelian H-module."""

    group: FiniteGroup
    module_invariants: tuple[int, ...]
    module: FiniteGroup
    action: tuple[tuple[int, ...], ...]   # permutation of module elements per H element
    delta: tuple[int, ...]                # module element per H element

    def verify(self) -> bool:
        H, A = self.group, self.module
        if sorted(self.delta) != list(range(A.n)):
            return False
        if self.delta[0] != 0:
            return False
        for h1 in H.elements():
            act1 = self.action[h1]
            for h2 in H.elements():
                lhs = self.delta[H.mul(h1, h2)]
                rhs = A.mul(self.delta[h1], act1[self.delta[h2]])
                if lhs != rhs:
                    return False
        # the action must be by automorphisms and be a homomorphism
        for h in H.elements():
            perm = self.action[h]
            for a in A.elements():
                for b in A.elements():
                    if perm[A.mul(a, b)] != A.mul(perm[a], perm[b]):
                        return False
        for h1 in H.elements():
            for h2 in H.elements():
                p = _compose_perm(self.action[h1], self.action[h2])
                if p != self.action[H.mul(h1, h2)]:
                    return False
        return True


def _compose_perm(p, q):
    return tuple(p[x] for x in q)


@dataclass(frozen=True)
class IYBSearchResult:
    group: FiniteGroup
    witness: IYBWitness | None
    modules_tried: int
    actions_tried: int


def automorphism_group(A: FiniteGroup):
    """All automorphisms of an abelian group as permutations, plus the
    composition group (identity first)."""
    if not A.is_abelian:
        raise DomainError("automorphism enumeration implemented for abelian groups")
    autos = [h.images for h in homomorphisms(A, A, injective=True)]
    aut_group, _ = permutation_group(autos, name=f"Aut({A.name or A.n})")
    return aut_group, sorted(autos)  # the group's element order


def iyb_witness_search(H: FiniteGroup) -> IYBSearchResult:
    """Search for a bijective 1-cocycle from H into an abelian module.

    Modules are enumerated by ascending invariant factors, actions by
    generator images into the automorphism group, and cocycles by
    backtracking over generator values with the cocycle identity as
    propagation and injectivity as pruning.  A returned witness verifies
    exactly; exhaustion is a bounded certificate, not a proof of absence.
    """
    if H.n > IYB_BOUND:
        raise SizeBoundError(f"IYB search bounded at order {IYB_BOUND}")
    modules_tried = 0
    actions_tried = 0
    for invs in invariant_factor_sequences(H.n):
        A = abelian_group_from_invariants(invs)
        modules_tried += 1
        aut_group, aut_perms = automorphism_group(A)
        for hom in homomorphisms(H, aut_group):
            actions_tried += 1
            action = tuple(aut_perms[hom.images[h]] for h in H.elements())
            delta = _bijective_cocycle(H, A, action)
            if delta is not None:
                witness = IYBWitness(H, tuple(invs), A, action, delta)
                if not witness.verify():
                    raise TheoremCheckError("IYB witness failed exact verification")
                return IYBSearchResult(H, witness, modules_tried, actions_tried)
    return IYBSearchResult(H, None, modules_tried, actions_tried)


def _bijective_cocycle(H: FiniteGroup, A: FiniteGroup, action) -> tuple[int, ...] | None:
    """Backtracking search for a bijective delta with delta(xy) = delta(x) + x.delta(y)."""
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


def lagrangian_quotient_is_iyb(
    G: FiniteGroup, alpha: CocycleTable, N: Subgroup, seed: int = 0
) -> IYBSearchResult:
    """For a normal Lagrangian N, the quotient must admit a bijective 1-cocycle."""
    if not crossed_product_iff_lagrangian(G, alpha, N, seed=seed):
        raise DomainError("N is not a Lagrangian; the IYB consequence does not apply")
    Q, _ = quotient(G, N)
    if Q.n > IYB_BOUND:
        raise SizeBoundError(f"quotient order {Q.n} beyond IYB search bound {IYB_BOUND}")
    return iyb_witness_search(Q)
