"""Isotropic subgroups, Lagrangians, and the bridge to bijective 1-cocycles.

A subgroup is isotropic when the cocycle class restricts trivially to it;
a Lagrangian is an isotropic subgroup of square-root order under a
non-degenerate class, normal or not.  The normal Lagrangians are exactly the
kernels of the elementary crossed-product quotients, which ties twisted
gradings to the groups admitting bijective 1-cocycles (set-theoretic
Yang-Baxter solutions).

Every isotropy verdict is double-certified: the exact coboundary solver and
the numeric block oracle must agree, and every theorem-level equivalence is
computed on both sides and compared, raising on any disagreement.  The
non-degeneracy a scan starts from is read off the exact center
(``is_nondegenerate``).  A question about one class names it once, by its
``MackeyContext``, which holds the class, its group ``alpha.group``, the
block oracle (which holds the seed) and the registries: ``is_isotropic``,
``lagrangian_scan``, ``crossed_product_iff_lagrangian`` and
``lagrangian_quotient_is_iyb`` take the context and nothing it holds.  They
read the isotropy verdicts and the decompositions, quotients included, that
the context keeps, so nothing is certified twice on one context.
``maximal_elementary_quotients`` also takes (A, alpha, seed), builds a
context on a ``BlockOracle(seed)`` (seed 0 when None) when given none, and
checks a given one against (A, alpha), and its oracle's seed against a seed
that is passed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cocycles import CocycleTable, bicharacter_of, is_cohomologically_trivial
from .errors import DomainError, SizeBoundError, TheoremCheckError
from .groups import (
    FiniteGroup,
    Subgroup,
    abelian_group_from_invariants,
    are_isomorphic,
    extend_hom,
    generating_sequence,
    homomorphisms,
    invariant_factor_sequences,
    permutation_group,
    subgroups,
)
from .mackey import (
    MackeyContext,
    is_ecp_quotient,
    is_elementary_quotient,
)
from .twisted import BlockOracle, is_nondegenerate

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


def is_isotropic(context: MackeyContext, H: Subgroup) -> IsotropyReport:
    """Whether the class of ``context`` restricts trivially to H, with two
    certificates.

    The exact certificate solves the coboundary system over Z/m in the
    context's registry of factored systems, ``context.factors``
    (``cohomologous``), so subgroups with one table share one factorization;
    a replayed verdict meets the same cross-checks as a fresh one.  The
    numeric one asks the context's block oracle, at the oracle's seed, for a
    one-dimensional block of the restricted algebra (existence of a
    one-dimensional module is equivalent to a trivial restricted class, for
    abelian and non-abelian H alike).  The two must agree.  An H of another
    group is refused by ``CocycleTable.restrict``.  Building the context
    splits C^alpha G once, so a lone question about a small H pays for that
    split; scans and the suite ask every question of one context.
    """
    rest = context.cocycle.restrict(H)
    trivial, witness = is_cohomologically_trivial(rest, factors=context.factors)
    dims = context.oracle.wedderburn(rest).dims
    ones = sum(1 for d in dims if d == 1)
    oracle_verdict = ones >= 1
    if rest.group.is_abelian:
        zero_form = bicharacter_of(rest).is_zero()
        if zero_form != trivial:
            raise TheoremCheckError("bicharacter and coboundary certificates disagree")
        if trivial != (ones == H.order):
            raise TheoremCheckError("abelian isotropy: oracle disagrees with exact solve")
    if trivial != oracle_verdict:
        raise TheoremCheckError("isotropy certificates disagree (exact vs oracle)")
    return IsotropyReport(H, trivial, witness, ones, dims)


def lagrangian_scan(context: MackeyContext, normal_only: bool = False) -> list[LagrangianReport]:
    """All (normal) subgroups of order sqrt|G| of the class of ``context``,
    with isotropy verdicts.

    Exhaustive over the subgroup lattice, so completeness is by construction.
    Every verdict is the one the context keeps, so a scan repeated on one
    context certifies nothing twice, and every block-oracle question goes to
    the context's ``BlockOracle``.
    """
    G = context.group
    root = math.isqrt(G.n)
    if root * root != G.n:
        raise DomainError(f"|G| = {G.n} is not a perfect square")
    if not is_nondegenerate(context.cocycle):
        raise DomainError("lagrangian_scan expects a non-degenerate class")
    out = []
    for H in subgroups(G):
        if H.order != root:
            continue
        normal = H.is_normal()
        if normal_only and not normal:
            continue
        rep = _isotropy(context, H)
        out.append(LagrangianReport(H, rep.isotropic, rep.witness, normal))
    return out


def _isotropy(context: MackeyContext, H: Subgroup) -> IsotropyReport:
    """The isotropy verdict of H that ``context`` keeps, certified by
    ``is_isotropic`` on first use."""
    report = context.isotropy.get(H.elements)
    if report is None:
        report = context.isotropy[H.elements] = is_isotropic(context, H)
    return report


def crossed_product_iff_lagrangian(context: MackeyContext, N: Subgroup) -> bool:
    """ECP verdict of the quotient by N equals the Lagrangian verdict of N,
    for the class of ``context``.

    Both sides are computed independently; disagreement is an implementation
    bug and raises.  Returns the shared verdict.  N is decomposed through the
    context, so a scan over many N shares its work, and the isotropy verdict
    is the one the context keeps (``lagrangian_scan`` reads the same ones).
    """
    ecp = is_ecp_quotient(context.decompose(N))
    lag = N.order * N.order == context.group.n and _isotropy(context, N).isotropic
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
    A: FiniteGroup, alpha: CocycleTable, seed: int | None = None, context: MackeyContext | None = None
) -> MaximalElementaryReport:
    """Maximal elementary quotient classes of a non-degenerate abelian class.

    Scans every subgroup (all are normal), decides elementarity through the
    decomposition, takes inclusion-minimal kernels (which are the maximal
    classes under the quotient order), and compares the result against the
    Lagrangian characterization.  Uniqueness is isomorphism of all maximal
    quotient groups, which determines the elementary crossed product class.
    Every subgroup is decomposed through one ``MackeyContext`` for alpha,
    ``context`` when the caller holds one, else a new one on a block oracle
    at ``seed`` (0 when None), in one ``decompose_all`` call, so the
    obstruction passes are shared across the whole lattice; the first N, in
    lattice order, that fails raises its error.  The Lagrangian scan runs on
    the same context, so it reuses the blocks the decompositions certified
    and the isotropy verdicts the context keeps.  This is the one Lagrangian
    question that names its class apart from a context, so it is the one
    that checks a caller's context against (A, alpha), and its oracle's seed
    against ``seed`` when one is passed: a given context draws at its own
    oracle's seed.
    """
    if not A.is_abelian:
        raise DomainError("maximal_elementary_quotients expects an abelian group")
    if alpha.group != A:
        raise DomainError("cocycle lives on a different group")
    if not is_nondegenerate(alpha):
        raise DomainError("expects a non-degenerate class")
    if context is None:
        context = MackeyContext(alpha, oracle=BlockOracle(0 if seed is None else seed))
    elif context.cocycle != alpha or (seed is not None and seed != context.oracle.seed):
        raise DomainError("Mackey context is for a different (group, cocycle, seed)")
    lattice = subgroups(context.group)  # the scan below reads the same lattice
    context.decompose_all(lattice)
    decs = {N.elements: context.decompose(N) for N in lattice}
    elementary = [N for N in lattice if is_elementary_quotient(decs[N.elements])]
    elem_sets = [set(N.elements) for N in elementary]
    maximal = [
        N
        for i, N in enumerate(elementary)
        if not any(j != i and elem_sets[j] < elem_sets[i] for j in range(len(elementary)))
    ]
    lagrangians = [r.subgroup for r in lagrangian_scan(context) if r.is_lagrangian]
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
        """The cocycle and action laws as identities of the group tables.

        delta is a bijection fixing 0; each h acts by an endomorphism,
        h.(a + b) = h.a + h.b; h -> action[h] is a homomorphism,
        h1.(h2.a) = (h1 h2).a; and delta(h1 h2) = delta(h1) + h1.delta(h2).
        """
        H, A = self.group, self.module
        act, d = np.asarray(self.action), np.asarray(self.delta)
        return (
            sorted(self.delta) == list(A.elements())
            and self.delta[0] == 0
            and np.array_equal(act[:, A.table], A.table[act[:, :, None], act[:, None, :]])
            and np.array_equal(act[np.arange(H.n)[:, None, None], act], act[H.table])
            and np.array_equal(d[H.table], A.table[d[:, None], act[:, d]])
        )


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

    Modules are enumerated by ascending invariant factors, actions as the
    homomorphisms into the automorphism group, and cocycles as the
    homomorphisms h -> (delta(h), h) into A ⋊ H (``_bijective_cocycle``).
    A returned witness verifies exactly, by table identities that do not use
    A ⋊ H; exhaustion is a bounded certificate, not a proof of absence.
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
    """The first bijective delta with delta(xy) = delta(x) + x.delta(y), or None.

    A 1-cocycle is exactly a homomorphism h -> (delta(h), h) into
    S = A ⋊ H, where (a, h)(b, k) = (a + h.b, hk), numbered a |H| + h.  So
    the generators' values are chosen one at a time, in lexicographic order,
    and each partial choice is closed by ``extend_hom`` on the span of the
    generators chosen so far.  Every completion keeps that closure, so a
    conflict or two equal A-components there rules them all out; the first
    full choice that survives is a bijection when |A| = |H|.  A bijective
    delta sends e to 0, so a generator's value is never 0.
    """
    n = H.n
    # entry [a, h, b, k] is (a + h.b) |H| + hk
    table = A.table[:, np.asarray(action), None] * n + H.table[:, None, :]
    S = FiniteGroup(table.reshape(A.n * n, A.n * n), _trusted=True)
    gens = generating_sequence(H)

    def rec(pairs):
        hom = extend_hom(H, S, pairs)
        if hom is None or len({s // n for s in hom.values()}) < len(hom):
            return None
        if len(pairs) == len(gens):
            return tuple(hom[x] // n for x in H.elements()) if A.n == n else None
        g = gens[len(pairs)]
        for v in range(1, A.n):
            found = rec(pairs + [(g, v * n + g)])
            if found is not None:
                return found
        return None

    return rec([])


def lagrangian_quotient_is_iyb(context: MackeyContext, N: Subgroup) -> IYBSearchResult:
    """For a normal Lagrangian N of the class of ``context``, the quotient
    must admit a bijective 1-cocycle.

    N's verdicts and its quotient are the ones the context keeps, so a
    caller that scanned on the context first certifies nothing again."""
    if not crossed_product_iff_lagrangian(context, N):
        raise DomainError("N is not a Lagrangian; the IYB consequence does not apply")
    Q = context.decompose(N).quotient_group
    if Q.n > IYB_BOUND:
        raise SizeBoundError(f"quotient order {Q.n} beyond IYB search bound {IYB_BOUND}")
    return iyb_witness_search(Q)
