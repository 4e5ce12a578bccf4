"""Decomposition of quotient gradings of twisted group algebras.

Given (G, alpha, N normal), the quotient G/N-grading of C^alpha G splits
into simply-graded summands indexed by the G/N-orbits of the primitive
central idempotents of C^alpha N.  Each orbit carries an inertia subgroup, a
transversal, an elementary character d * sum(t), and an obstruction cocycle
on the inertia group.

What does not depend on N is built once, in a ``MackeyContext`` for one
class alpha.  Its group G is ``alpha.group``, so a context cannot disagree
with its own cocycle.  It holds the certified blocks of C^alpha G and the
twisted conjugation tables conj[h, g] = h g h^-1 and kappa(h, g), read
exactly from ``CocycleTable.conjugation``, kappa then turned into phases by
one exponential.  The caller builds the context and passes it every N of a
scan (Theorem D decomposes every subgroup of one class); the Lagrangian
questions of ``lagrangians`` take the same context as the one name of their
class, and ``mackey_decompose`` builds a fresh one for its one N.  Every
block and module the decomposition needs (C^alpha G, C^alpha N, the
obstruction algebra of each orbit) comes from the context's
``BlockOracle``, a registry keyed by each algebra's exact inputs.  The seed
of the oracle's random draws belongs to the registry, so a context names no
seed and cannot disagree with its oracle.  A context takes the registry from
its caller or makes its own; the acceptance battery shares one registry
among all its contexts and their isotropy checks for one run, so an algebra
that several kernels, orbits or checks meet is split once, with the
certificates of its first split.

Each step reads a table built once.  ``quotients`` tests normality; the
image list of each projection labels the coset block of every element, and
the first element of each block gives the minimal-index section Q -> G.  One
algebra C^alpha N gives the points and the module.  Matching the conjugated
points, read off the context's conjugation tables, gives the action table
perms[q, i] of all of Q, so the orbit of point i is column i (the columns
must partition the points), the inertia group is where it is fixed, and the
first q reaching each orbit point forms the transversal.

The obstruction is computed, not postulated: an irreducible module rho of the
base algebra is realized explicitly, and for every inertia element g at once
the intertwiner from rho to its coset twist rho_g is read off the Reynolds
average of X -> rho_g(n) X rho(n)^-1 over N, which is the orthogonal
projector onto Hom_N(rho, rho_g).  Its trace, the character inner product
<chi_{rho_g}, chi_rho>, must be 1: at the identity that certifies rho
irreducible, elsewhere that the twist is isomorphic to rho, so each
intertwiner is unique up to a scalar.  For lifts s_a of the inertia
elements, n(a, b) = s_ab^-1 s_a s_b lies in N and the intertwiners compose
as P_a P_b = mu(a, b) P_ab rho(n(a, b)) (Clifford theory; Isaacs, *Character
Theory of Finite Groups*, ch. 11), so omega(a, b), alpha(s_a, s_b) conj(mu)
over alpha(s_ab, n(a, b)), is a unit-modulus cocycle on the inertia group I.
The products are formed only for b in {e} and the generators of I: a defect
within TOL_SCALAR / (2L - 1) on those columns, L the depth of I's Cayley
tree, bounds the defect of every pair by TOL_SCALAR once the measured
intertwining and projective-law residuals are charged to it, and omega is
extended along the tree by omega(a, bs) = omega(a, b) omega(ab, s) /
omega(b, s).  H^2(I, C*) is killed by k = |I|, so omega is moved by a
coboundary onto a table of k-th roots of unity, snapped to exponents within
TOL_SCALAR and validated exactly as a 2-cocycle; the orbit's obstruction is
that exact CocycleTable of scale |I|, and its blocks come from the exact
algebra.  A trivial inertia group carries only the trivial table of scale 1,
so such an orbit builds no module.

Only the module and the lifts depend on the orbit; the Cayley tree depends
on the inertia group's table alone.  So a scan is staged: ``decompose_all``
first splits the algebras C^alpha N of every kernel N of the scan in one
stacked oracle pass (``BlockOracle.wedderburn_all``), whose outcomes give
each N its points or the error of its split, then stages the kernels of one
shape, |N| and the point count P, together, in scan order, in stacks that
stop before their |G| P^2 match entries per kernel pass MATCH_BUDGET (a
kernel beyond it alone is a stack of its own; ``twisted.stacks`` cuts these
stacks and the batches below by that one rule).  A stack takes its
quotients in one ``quotients`` call and matches the conjugated points of
all its normal kernels in one
``match_idempotents`` call; each kernel keeps its own normality error or
match error, and each N's orbits and their classes (the orbits with the same
inertia group and module dimension) are then computed for that N, with one
Subgroup per inertia group; a class with trivial inertia takes the trivial
tables.  The scan then computes the other obstructions in one pass per batch
of classes, across all the kernels, that share the inertia group's table,
the module dimension d and |N|: the modules of a pass extracted in one
oracle call (``BlockOracle.irreducible_reps``) and stacked along a
leading axis through the intertwiners, the composition scalars and the
gauge, the conjugation gathers, n(a, b) and c(a, b) read once per class and
stacked along the same axis, and the gauged tables validated as one stack.
A batch stops before its |I| |N| d^2 entries per module pass
OBSTRUCTION_BUDGET, so a scan holds no larger arrays than a few small
classes do.  Each module keeps its own certificates with the thresholds
above, and each check reports its first failing module.  A batch that raises
is passed again right away one class at a time, so every N gets exactly the
decomposition, or the error, it gets alone, and the context keeps it for
``decompose(N)``.

Everything the decomposition claims is cross-checked against the independent
block oracle: the ungraded Wedderburn multiset of C^alpha G must equal the
multiset reconstructed from the summands, for every N, and the quotient
grading must be equi-dimensional with every homogeneous component of
dimension |N|.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cocycles import CocycleTable, cocycles_hold
from .errors import CertificationError, DomainError, GquotError, TheoremCheckError
from .gradings import (
    Character,
    GradingClassDescriptor,
    Summand,
    descriptor_dims,
    is_elementary_crossed_product,
)
from .groups import FiniteGroup, GroupHom, Subgroup, cayley_tree, quotients
from .twisted import TOL_ROUND, BlockOracle, IrrPoint, match_idempotents, stacks

TOL_SCALAR = 1e-7
OBSTRUCTION_BUDGET = 1 << 13  # rho_g entries, |I| |N| d^2 per module, one stacked obstruction pass may hold
MATCH_BUDGET = 1 << 14  # match entries, |G:N| P^2 |N| per kernel of P points, one staged stack may compare


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


@dataclass
class _Stage:
    """What the decomposition of one N computes before its obstructions: the
    quotient, its minimal-index section, the points of C^alpha N, the
    classes of orbits by (inertia elements, d) in orbit order with their
    members (orbit, transversal, delta), one Subgroup per inertia group, and
    each class's obstruction tables (trivial ones from the start) or the
    error of its pass.  A scan stages every N before any pass, so a stage
    keeps nothing a pass can rebuild in a few gathers (alpha on N, the
    positions of N's elements)."""

    normal: Subgroup
    quotient_group: FiniteGroup
    projection: GroupHom
    section: np.ndarray
    points: tuple[IrrPoint, ...]
    classes: dict
    inertia: dict
    omegas: dict


class MackeyContext:
    """The part of every decomposition of one class alpha that does not
    depend on N, built once by the caller and passed to each normal N;
    ``group`` is ``alpha.group``.

    It holds the cocycle values ``alpha.value_matrix()``, the n x n twisted
    conjugation tables conj[h, g] = h g h^-1 and kappa(h, g) of
    ``alpha.conjugation()``, kappa as unit complex phases, and ``oracle``, the
    :class:`BlockOracle` that certifies the blocks of C^alpha G (``blocks``)
    and every algebra a decomposition meets.  ``oracle`` is the caller's
    registry when one is passed, so contexts and checks of one run share it,
    else a new one at seed 0 owned by this context.  The seed belongs to the
    oracle, so a context takes none; ``oracle`` is keyword-only, so a second
    positional argument, such as a seed, is refused where it is passed.
    ``decompose_all`` keeps each N's decomposition or error by the elements
    of N, and ``isotropy`` holds the isotropy verdicts ``lagrangians``
    certifies on this class, by the elements of the subgroup, for as long as
    the caller keeps the context.  ``factors`` is the registry of factored
    coboundary systems those isotropy checks share (``cohomologous``): the
    restrictions of alpha to subgroups with one table pose one system,
    factored once per context.
    """

    def __init__(self, alpha: CocycleTable, *, oracle: BlockOracle | None = None):
        self.group = alpha.group
        self.cocycle = alpha
        self.oracle = BlockOracle() if oracle is None else oracle
        self.blocks = self.oracle.wedderburn(alpha)
        self.phases = alpha.value_matrix()
        self.conj, kappa = alpha.conjugation()
        self.kappa = np.exp(2j * np.pi * kappa / alpha.scale)
        self.isotropy: dict[tuple[int, ...], object] = {}
        self.factors: dict = {}
        self._outcomes: dict[tuple[int, ...], MackeyDecomposition | GquotError] = {}

    def decompose(self, N: Subgroup) -> MackeyDecomposition:
        """Full decomposition of [C^alpha G / N] with all consistency checks,
        or its error raised, as kept by ``decompose_all([N])`` on first use."""
        if N.group != self.group or N.elements not in self._outcomes:
            self.decompose_all([N])
        outcome = self._outcomes[N.elements]
        if isinstance(outcome, GquotError):
            raise outcome
        return outcome

    def decompose_all(self, subgroups) -> None:
        """Decompose every N of ``subgroups`` not kept yet, with all
        consistency checks, and keep each outcome for ``decompose``.

        alpha is restricted once to every such N, and the oracle splits all
        the restrictions it has not kept in one ``BlockOracle.wedderburn_all``
        pass, whose outcomes are read in order.  An N whose restriction
        failed to split keeps the error of that split, the one the oracle
        keeps for it, or the NormalityError of its quotient, which comes
        first.  The other kernels are staged in ``twisted.stacks`` of one
        shape, |N| and the point count P, in scan order, each stack within
        MATCH_BUDGET entries of its match array, |G| P^2 per kernel
        (``_stage_stack``).  The obstruction passes then run across all
        the stages, in scan order (``_stacked_obstructions``), and each N is
        finished.  An N that fails keeps the error it raises when decomposed
        alone, so it is staged once per context.  A subgroup of another group
        raises DomainError before any work.
        """
        subgroups = list(subgroups)
        if any(N.group != self.group for N in subgroups):
            raise DomainError("subgroup belongs to a different group")
        todo = {}
        for N in subgroups:
            if N.elements not in self._outcomes:
                todo.setdefault(N.elements, N)
        splits = self.oracle.wedderburn_all([self.cocycle.restrict(N) for N in todo.values()])
        kernels = []
        for (key, N), data in zip(todo.items(), splits):
            if isinstance(data, GquotError):
                (normality,) = quotients(self.group, [N])
                self._outcomes[key] = normality if isinstance(normality, GquotError) else data
            else:  # for N = G, the blocks of alpha
                P = len(data.blocks)
                kernels.append(((N.order, P), self.group.n * P * P, (N, data.blocks)))
        staged = {}
        for _, stack in stacks(kernels, MATCH_BUDGET):
            for (N, _), outcome in zip(stack, self._stage_stack(stack)):
                if isinstance(outcome, GquotError):
                    self._outcomes[N.elements] = outcome
                else:
                    staged[N.elements] = outcome
        stages = {key: staged[key] for key in todo if key in staged}  # scan order, as the passes batch it
        self._stacked_obstructions(stages.values())
        for key, stage in stages.items():
            try:
                self._outcomes[key] = self._finish(stage)
            except GquotError as exc:
                self._outcomes[key] = exc

    def _stage_stack(self, kernels) -> list:
        """The stage of every (N, points) of ``kernels``, all of one |N| and
        point count, or the error its staging raises: the quotients in one
        ``quotients`` call, the point actions of the normal kernels in one
        match (``_point_actions``), and then each N's orbits and classes
        (``_classify``).  The section of a quotient, the least element of
        each coset in coset order, is read off its projection's images
        sorted stably, at every |N|-th place."""
        outcomes = quotients(self.group, [N for N, _ in kernels])
        normal = [i for i, outcome in enumerate(outcomes) if not isinstance(outcome, GquotError)]
        if not normal:
            return outcomes
        images = np.array([outcomes[i][1].images for i in normal])
        sections = np.argsort(images, axis=1, kind="stable")[:, :: kernels[0][0].order]
        actions = self._point_actions([(*kernels[i], section) for i, section in zip(normal, sections)])
        for i, section, perms in zip(normal, sections, actions):
            if isinstance(perms, GquotError):
                outcomes[i] = perms
                continue
            try:
                outcomes[i] = _classify(*kernels[i], *outcomes[i], section, perms)
            except GquotError as exc:
                outcomes[i] = exc
        return outcomes

    def _point_actions(self, kernels) -> list:
        """perms[q, i], the point that conjugation by section[q] sends point
        i to, for every (N, points, section) of ``kernels``, all of one |N|
        and point count, or the CertificationError of its match.

        u_g iota u_g^-1 moves the coefficient of iota at n to g n g^-1, times
        kappa(g, n); N is normal (``quotients`` checked it), so every target
        lies in N.  The |Q| P conjugated points of every kernel are matched
        in one ``match_idempotents`` call, which compares |Q| P^2 |N| =
        |G| P^2 entries per kernel, |G| P at a time; ``decompose_all`` keeps
        a stack within MATCH_BUDGET of them, or at one kernel.
        """
        N_elems = np.array([N.elements for N, _, _ in kernels])  # (B, |N|)
        coeffs = np.array([[p.coeffs for p in points] for _, points, _ in kernels])  # (B, P, |N|)
        lifts = np.array([section for _, _, section in kernels])  # (B, |Q|)
        (B, n), q, P = N_elems.shape, lifts.shape[1], coeffs.shape[1]
        positions = np.full((B, self.group.n), -1)
        positions[np.arange(B)[:, None], N_elems] = np.arange(n)
        g, h, b = lifts[:, :, None], N_elems[:, None], np.arange(B)[:, None, None]
        targets = positions[b, self.conj[g, h]]  # (B, |Q|, |N|)
        raw = np.empty((B, q, P, n), dtype=np.complex128)
        raw[b[..., None], np.arange(q)[:, None, None], np.arange(P)[:, None], targets[:, :, None]] = (
            coeffs[:, None] * self.kappa[g, h][:, :, None]
        )
        matched = match_idempotents(raw.reshape(B, q * P, n), coeffs)
        return [m if isinstance(m, GquotError) else m.reshape(q, P) for m in matched]

    def _stacked_obstructions(self, stages) -> None:
        """One obstruction pass per batch of classes, across all ``stages``,
        that share the table of the inertia group, the module dimension d and
        |N|, cut by ``twisted.stacks``: a batch takes classes in stage and
        class order while its |I| |N| d^2 entries per module stay within
        OBSTRUCTION_BUDGET, and a class beyond it alone is a batch of its
        own.

        A batch's tables, or the errors of ``_stacked_pass``, go to its
        classes' stages; classes with trivial inertia need no pass.
        """
        classes = []
        for stage in stages:
            for (I, d), members in stage.classes.items():
                if len(I) > 1:
                    group, order = stage.inertia[I].as_group(), stage.normal.order
                    classes.append(((group, d, order), group.n * order * d * d * len(members), (stage, (I, d))))
        for (group, _, _), batch in stacks(classes, OBSTRUCTION_BUDGET):
            self._stacked_pass(group, batch)

    def _stacked_pass(self, group: FiniteGroup, batch) -> None:
        """One ``_obstructions`` pass over the classes ``batch`` of (stage,
        (inertia elements, d)); the tables go to the stages.  When it raises,
        a lone class keeps the error, which is its own, and a larger batch is
        passed again one class at a time."""
        classes = [(stage, stage.inertia[cls[0]], _modules(stage.classes[cls])) for stage, cls in batch]
        try:
            tables = iter(self._obstructions(group, classes))
        except GquotError as exc:
            if len(batch) == 1:
                stage, cls = batch[0]
                stage.omegas[cls] = exc
            else:
                for entry in batch:
                    self._stacked_pass(group, [entry])
            return
        for stage, cls in batch:
            stage.omegas[cls] = [next(tables) for _ in stage.classes[cls]]

    def _finish(self, stage: _Stage) -> MackeyDecomposition:
        """The orbits of one staged N from its classes' tables, and the
        decomposition with all its checks; the first class holding an error
        raises it."""
        G, Q = self.group, stage.quotient_group
        orbits = []
        for (I, d), members in stage.classes.items():
            inertia = stage.inertia[I]
            omegas = stage.omegas[(I, d)]
            if isinstance(omegas, GquotError):
                raise omegas
            for (orbit, transversal, delta), omega in zip(members, omegas):
                blocks = self.oracle.wedderburn(omega).dims
                orbits.append(
                    MackeyOrbit(
                        point_indices=orbit,
                        dim=d,
                        inertia=inertia,
                        transversal=transversal,
                        x=Character.from_dict(Q, {t: d for t in transversal}),
                        delta=delta,
                        omega=omega,
                        omega_blocks=blocks,
                        omega_trivial=all(f == 1 for f in blocks),
                        omega_nondegenerate=len(blocks) == 1,
                    )
                )
        orbits.sort(key=lambda o: o.point_indices)

        descriptor = GradingClassDescriptor(
            Q, tuple(Summand(o.x, o.inertia, o.omega) for o in orbits)
        )
        dec = MackeyDecomposition(
            group=G,
            cocycle=self.cocycle,
            normal=stage.normal,
            quotient_group=Q,
            projection=stage.projection,
            points=stage.points,
            orbits=tuple(orbits),
            descriptor=descriptor,
            oracle_dims=self.blocks.dims,
            reconstructed_dims=_reconstructed_dims(orbits),
        )
        _check_decomposition(dec)
        return dec

    def _obstructions(self, group: FiniteGroup, classes):
        """The obstruction cocycles on the non-trivial inertia group ``group`` of
        every module of ``classes``, in one pass, in class and module order.

        Each class is (stage, inertia, indices): the modules ``indices`` of
        C^alpha N for the staged N, all of one dimension d, whose inertia
        group in G/N is ``inertia``, with the table of ``group``; every class
        has the same d and |N|.  The M modules of the pass are stacked as
        rho[module, n], and one loop over the classes fills, for each class's
        slice of that leading axis, the twists rho_g[module, a], and for the
        lifts s_a = section[a] the positions n[module, a, b] in N of
        n(a, b) = s_ab^-1 s_a s_b and the phases c[module, a, b] =
        alpha(s_a, s_b) / alpha(s_ab, n(a, b)).  Every n(a, b) must lie in N,
        and for each module P_a P_b is a scalar multiple of P_ab rho(n(a, b)).
        The stacks go through ``_intertwiners``, ``_composition_scalars`` and
        ``_exact_cocycle`` along that axis.  Each module keeps its own
        certificates, and each check reports its first failing module.
        """
        G, k = self.group, group.n
        alphas = [self.cocycle.restrict(stage.normal) for stage, _, _ in classes]
        modules = self.oracle.irreducible_reps([(a, i) for a, (_, _, ind) in zip(alphas, classes) for i in ind])
        rho = np.stack([module for module, _ in modules])
        rho_g = np.empty((len(rho), k, *rho.shape[1:]), dtype=np.complex128)
        n = np.empty((len(rho), k, k), dtype=np.int64)
        c = np.empty((len(rho), k, k), dtype=np.complex128)
        start = 0
        for stage, inertia, indices in classes:
            gs = stage.section[list(inertia.elements)]
            N_pos = _positions(G, stage.normal)
            # rho_g(n) = kappa(g, n) rho(g n g^-1), one row of the conjugation tables per g
            N_embed = np.asarray(stage.normal.elements)
            conj = self.conj[gs[:, None], N_embed]
            kappa = self.kappa[gs[:, None], N_embed]
            stop = start + len(indices)
            rho_g[start:stop] = kappa[:, :, None, None] * rho[start:stop, N_pos[conj]]
            s_ab = gs[group.table]
            n_ab = G.table[G.inverse_table[s_ab], G.table[gs[:, None], gs]]  # n(a, b) = s_ab^-1 s_a s_b
            n[start:stop] = N_pos[n_ab]
            c[start:stop] = self.phases[gs[:, None], gs] / self.phases[s_ab, n_ab]
            start = stop
        P, residual = _intertwiners(rho, rho_g)
        del rho_g
        if (n < 0).any():
            raise CertificationError("lifts of the inertia group do not compose inside N")
        law = np.array([bound for _, bound in modules])
        cosets = G.n // classes[0][0].normal.order
        omega = _composition_scalars(group, P, rho, n, c, cosets, residual + 2 * law)
        return _exact_cocycle(group, omega)


def _classify(N, points, Q, proj, section, perms) -> _Stage:
    """The stage of one N from its quotient Q, projection and section, its
    points and their action table perms[q, i]: the orbit of point i is
    column i (the columns must partition the points), the inertia group is
    where it is fixed, and the first q reaching each orbit point forms the
    transversal."""
    orbit_of = [frozenset(col) for col in perms.T.tolist()]
    if any(i not in o or any(orbit_of[j] != o for j in o) for i, o in enumerate(orbit_of)):
        raise TheoremCheckError("point orbits do not partition the points")
    classes: dict[tuple, list] = {}  # (inertia elements, d) -> its orbits, in orbit order
    for orbit in sorted({tuple(sorted(o)) for o in orbit_of}):
        rep = orbit[0]
        d = points[rep].dim
        if any(points[i].dim != d for i in orbit):
            raise TheoremCheckError("orbit members disagree on module dimension")
        images = perms[:, rep]
        inertia = tuple(np.flatnonzero(images == rep).tolist())
        transversal = _first_occurrences(images.tolist())  # one minimal q per coset q * inertia
        if len(transversal) * len(inertia) != Q.n:
            raise TheoremCheckError("orbit-stabilizer bookkeeping failed")
        if len(set(Q.table[np.array(transversal)[:, None], inertia].ravel().tolist())) != Q.n:
            raise TheoremCheckError("transversal cosets do not cover the quotient")
        # the summand dimension |G|^2 d^2 / (|N|^2 |I|) is |Q| |T| d^2, an integer:
        # |G| = |N| |Q| (the cosets of N partition G) and |Q| = |T| |I| (checked above)
        classes.setdefault((inertia, d), []).append((orbit, transversal, Q.n * len(transversal) * d * d))
    inertia = {I: Subgroup(Q, I) for I, _ in classes}  # one Subgroup per inertia group
    omegas = {(I, d): [CocycleTable.trivial(inertia[I].as_group())] * len(members)  # a trivial I needs no pass
              for (I, d), members in classes.items() if len(I) == 1}
    return _Stage(N, Q, proj, section, points, classes, inertia, omegas)


def _composition_scalars(group, P, rho, n, c, cosets, delta):
    """The unit scalars omega[module, a, b] of the intertwiners of M modules
    on one non-trivial inertia group, certified on generator columns.

    For module m, P[m, a] intertwines the lift s_a, n[m, a, b] is the
    position in N of n(a, b) = s_ab^-1 s_a s_b, c[m, a, b] =
    alpha(s_a, s_b) / alpha(s_ab, n(a, b)), and delta[m] is what one tree
    step below may add to the defect; P is (M, k, d, d), rho (M, |N|, d, d),
    n and c (M, k, k), delta (M,), and ``cosets`` = |G : N| and the tree are
    shared.  Only the columns s in
    {e} and ``generating_sequence(group)``, r + 1 <= 1 + log2 k of them, are
    multiplied out: mu(a, s) = <P_as rho(n), P_a P_s> / ||P_as rho(n)||_F^2
    with n = n(a, s), and omega(a, s) = c(a, s) conj(mu) / |mu|.

    The bound, in d x d terms.  For unit omega the unitary
    Y(a, b) = omega(a, b) conj(c(a, b)) P_a P_b (P_ab rho(n(a, b)))^-1 is I
    exactly when P_a P_b = c(a, b) conj(omega(a, b)) P_ab rho(n(a, b)); let
    D(a, b) = ||Y(a, b) - I||_F, the distance of the two sides.  On a column
    mu is a projection, so D(a, s)^2 is ||P_a P_s - mu P_as rho(n)||_F^2 plus
    (|mu| - 1)^2 ||P_as rho(n)||_F^2; eps_gen is the largest D(a, s).  Along
    the Cayley BFS tree of the group (``cayley_tree``, depth L), omega is
    extended by omega(a, bs) = omega(a, b) omega(ab, s) / omega(b, s), one
    vectorized step per layer.  Writing P_a P_b P_s both ways, moving
    rho(n(a, b)) past P_s by the intertwining relation and collecting phases
    by the cocycle identity of alpha gives, for such omega, exact
    intertwiners and an exact module,

        Y(a, bs) = P_a Y(b, s)^-1 P_a^-1 Y(a, b) Y(ab, s).

    Neither is exact.  With m = s^-1 n(a, b) s, rho(n(a, b)) P_s is
    conj(kappa(s, m)) (P_s rho(m) + rho_s(m) P_s - P_s rho(m)), and the last
    two terms are the intertwining residual, of Frobenius norm at most r, the
    largest ``_intertwiners`` measured for the module.  Merging
    rho(n(ab, s)) rho(m) on one side and rho(n(a, bs)) rho(n(b, s)) on the
    other uses the module's projective law twice, each time within eps_rep,
    the bound ``BlockOracle.irreducible_reps`` keeps with it.  Every other
    factor is unitary, so the identity holds up to a term of norm at most
    delta = r + 2 eps_rep.  For unitaries ||UV - I||_F <= ||U - I||_F +
    ||V - I||_F, and conjugation by P_a keeps the norm, so
    e(l) <= e(l - 1) + 2 eps_gen + delta for the largest D(a, w) over words w
    of length l, e(1) = eps_gen (the column e covers b = e): every D(a, b) is
    at most (2L - 1) eps_gen + (L - 1) delta.  The module induced to G
    carries D once per coset block, so the claim, every pair within
    TOL_SCALAR there, holds when each column's sqrt(cosets) D(a, s) plus the
    charge sqrt(cosets) (L - 1) delta / (2L - 1) is within
    TOL_SCALAR / (2L - 1).  The charge is the measured delta, not a limit:
    ``_intertwiners`` accepts up to TOL_SCALAR per entry, which alone would
    exceed the threshold whenever L > 1.  A column whose distance to
    mu P_as rho(n) alone exceeds the threshold is not a scalar multiple, one
    whose defect alone exceeds it has the wrong modulus; otherwise the charge
    leaves no room for the defect.

    Rounding, and the unitarity check of ``_intertwiners`` (10 TOL_SCALAR
    per entry of P P^H - I), leave ||P||_2, ||P^-1||_2 <= 1 + eta; each step
    then grows by at most (1 + eta)^2, below 1 + 1e-10 over L steps for eta
    near the unit roundoff and about 1 + 1e-6 d L at the check's limit
    eta <= 5e-7 d.  ``_exact_cocycle`` then validates the whole gauged table
    exactly.
    """
    k = group.n
    tree = cayley_tree(group)
    steps = tree.height
    tol = TOL_SCALAR / (2 * steps - 1)
    cols = np.array((0, *tree.generators))
    composed = P[:, :, None] @ P[:, None, cols]  # [m, a, s]: P_a P_s
    rho_n = rho[np.arange(len(rho))[:, None, None], n[:, :, cols]]  # module m reads its own rows of n
    target = P[:, group.table[:, cols]] @ rho_n  # [m, a, s]: P_as rho(n(a, s))
    norms = (np.abs(target) ** 2).sum(axis=(-2, -1))
    mu = np.einsum("masij,masij->mas", target.conj(), composed) / norms
    residual = np.sqrt(cosets * (np.abs(composed - mu[..., None, None] * target) ** 2).sum(axis=(-2, -1)))
    defect = np.sqrt(residual**2 + cosets * (np.abs(mu) - 1.0) ** 2 * norms)
    charged = defect + (np.sqrt(cosets) * (steps - 1) / (2 * steps - 1) * delta)[:, None, None]
    fails = np.flatnonzero(charged > tol)  # row-major: the first failing module, a, then column
    if fails.size:
        i = fails[0]
        if residual.flat[i] > tol:
            raise CertificationError("intertwiner composition is not a scalar multiple")
        if defect.flat[i] > tol:
            raise CertificationError(f"obstruction scalar has modulus {abs(mu.flat[i]):.12f}")
        raise CertificationError(
            f"intertwining residuals charge the column defect to {charged.flat[i]:.2e}, beyond {tol:.2e}"
        )
    omega = np.empty((len(mu), k, k), dtype=np.complex128)
    omega[:, :, cols] = c[:, :, cols] * (mu / np.abs(mu)).conj()
    for level in range(2, steps + 1):
        b = np.flatnonzero(tree.depth == level)
        p, s = tree.parent[b], tree.edge[b]
        omega[:, :, b] = omega[:, :, p] * omega[:, group.table[:, p], s] / omega[:, None, p, s]
    return omega


def mackey_decompose(alpha: CocycleTable, N: Subgroup, seed: int = 0) -> MackeyDecomposition:
    """Full decomposition of [C^alpha G / N], G = ``alpha.group``, with all
    consistency checks.

    Builds a context, with a new block oracle at ``seed``, for this one N;
    to decompose several N of the same class, build one ``MackeyContext``
    and call its ``decompose``.
    """
    return MackeyContext(alpha, oracle=BlockOracle(seed)).decompose(N)


def _positions(G: FiniteGroup, N: Subgroup) -> np.ndarray:
    """The position of each element of G in N's element tuple, -1 outside N."""
    pos = np.full(G.n, -1)
    pos[list(N.elements)] = np.arange(N.order)
    return pos


def _modules(members) -> list[int]:
    """The module of each orbit of a class: the index of its first point."""
    return [orbit[0] for orbit, _, _ in members]


def _first_occurrences(labels) -> tuple[int, ...]:
    """The smallest index carrying each distinct label, in increasing order."""
    first = {}
    for i, label in enumerate(labels):
        first.setdefault(label, i)
    return tuple(first.values())


def _exact_cocycle(group: FiniteGroup, omega: np.ndarray) -> list[CocycleTable]:
    """The unit-modulus cocycle tables omega[module] on ``group``, (M, k, k), as
    exponents of |group|-th roots of unity, each in its class: the list of the
    M modules' tables.

    With k = |group| and F(a) = prod_c omega(a, c), the cocycle identity gives
    omega(a, b)^k = F(a) F(b) / F(ab), so for c the principal k-th root of F
    the cohomologous table omega(a, b) c(ab) / (c(a) c(b)) has k-th roots of
    unity as values (Karpilovsky, *Projective Representations of Finite
    Groups*, 1985).  Each value is snapped to the nearest one, which must lie
    within TOL_SCALAR.  The exponent tables are validated as 2-cocycles in
    one stack (``cocycles_hold``) and built trusted; only a stack that fails
    is validated table by table, so the first failing table raises with its
    own triple.
    """
    k = group.n
    c = np.exp(1j * np.angle(omega.prod(axis=-1)) / k)
    gauged = omega * c[:, group.table] / (c[:, :, None] * c[:, None, :])
    exps = np.round(np.angle(gauged) * k / (2 * np.pi)).astype(np.int64) % k
    residual = np.abs(np.exp(2j * np.pi * exps / k) - gauged).max(axis=(-2, -1))
    bad = np.flatnonzero(residual > TOL_SCALAR)
    if bad.size:
        raise CertificationError(f"obstruction is {residual[bad[0]]:.2e} away from the |I|-th roots of unity")
    trusted = cocycles_hold(group, k, exps)
    return [CocycleTable(group, k, e, _trusted=trusted) for e in exps]


def _intertwiners(rho, rho_g):
    """The unitary P[m, g] with rho_g[m, g](n) P[m, g] = P[m, g] rho[m](n), for
    every twist of every module at once, and each module's intertwining
    residual.

    rho holds M modules (M, n, d, d) and rho_g their k twists (M, k, n, d, d);
    P is (M, k, d, d) and the residual (M,).
    X -> rho_g(n) X rho(n)^-1 is a unitary representation of N, because rho_g
    and rho carry the same cocycle, so its average
    R_g = (1/|N|) sum_n rho_g(n) (x) conj(rho(n)) on row-major vec is the
    orthogonal projector onto Hom_N(rho, rho_g) (Serre, section 2).  Its trace
    <chi_{rho_g}, chi_rho> must be 1 within TOL_ROUND, which for the identity
    twist is the character norm of rho.  P is the largest column of R_g,
    scaled to Frobenius norm sqrt(d) with its first entry above 1e-6 made real
    positive; it must be unitary and must intertwine within TOL_SCALAR per
    entry.  The residual returned is the largest ||rho_g(n) P - P rho(n)||_F
    over the twists and n, which ``_composition_scalars`` charges to its
    bound.  A failure names the first failing module's first failing twist,
    counted within its module.
    """
    M, k, n, d, _ = rho_g.shape
    rho = rho[:, None]
    m, twists = np.arange(M)[:, None], np.arange(k)
    R = rho_g.reshape(M, k, n, d * d).swapaxes(-1, -2) @ rho.conj().reshape(M, 1, n, d * d)
    R = R.reshape(M, k, d, d, d, d).swapaxes(-3, -2).reshape(M, k, d * d, d * d)
    R /= n
    pairing = np.trace(R, axis1=-2, axis2=-1)
    bad = np.flatnonzero(np.abs(pairing - 1.0) > TOL_ROUND)
    if bad.size:
        raise CertificationError(
            f"character inner product of twist {bad[0] % k} with the module is "
            f"{np.round(pairing.flat[bad[0]], 12) + 0:.12f}, expected 1"  # + 0 turns -0.0 into 0.0
        )
    P = R[m, twists, :, np.linalg.norm(R, axis=-2).argmax(axis=-1)].reshape(M, k, d, d)
    P *= np.sqrt(d) / np.linalg.norm(P, axis=(-2, -1))[..., None, None]
    flat = P.reshape(M, k, d * d)
    first = flat[m, twists, (np.abs(flat) > 1e-6).argmax(axis=-1)]
    P *= (np.abs(first) / first)[..., None, None]
    unitary = np.abs(P @ P.conj().swapaxes(-1, -2) - np.eye(d)).max(axis=(-3, -2, -1))
    bad = np.flatnonzero(unitary > TOL_SCALAR * 10)
    if bad.size:
        raise CertificationError(f"intertwiner is not unitary (defect {unitary[bad[0]]:.2e})")
    del R  # a stacked pass holds as few arrays of the size of rho_g as it can
    error = rho_g @ P[:, :, None]
    error -= P[:, :, None] @ rho
    error = np.abs(error)
    entry = error.max(axis=(-4, -3, -2, -1))
    bad = np.flatnonzero(entry > TOL_SCALAR)
    if bad.size:
        raise CertificationError(f"intertwiner residual {entry[bad[0]]:.2e} beyond tolerance")
    residual = np.sqrt((error**2).sum(axis=(-2, -1))).max(axis=(-2, -1))
    return P, residual


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
