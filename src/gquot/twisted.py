"""Twisted group algebras as concrete semisimple algebras, read off tables.

The algebra C^a G is realized on the basis {u_g} with u_g u_h = a(g,h) u_gh.
Every product reads the multiplication table t[g, h] = gh and the phases
a(g, h) once (the table idiom of Holt, Eick and O'Brien, *Handbook of
Computational Group Theory*, ch. 3-4).  Left multiplication by
x = sum(x_g u_g) is the matrix with entry (gh, h) equal to x_g a(g, h), and
right multiplication has entry (gh, g) equal to x_h a(g, h); every row and
column of the table is a permutation, so each is one scatter with no entry
written twice, and the product xy is ``left_regular(x) @ y``.  A module with
orthonormal basis Q gives rho[g] = Q^H u_g Q (Serre, *Linear Representations
of Finite Groups*, section 2), read from the rows Q[t[g]] one element at a
time, never through an n x n matrix per element.  No floating error enters
before eigendecomposition beyond the unit-modulus phases themselves.

The cocycle is always an exact :class:`CocycleTable`, exponents mod m of an
m-th root of unity; obstruction cocycles arrive in that form too, gauged into
the |I|-th roots of unity on their inertia group I (``mackey``).

The block oracle works in two exact-first stages.  The center is read off
the two n x n integer tables of ``CocycleTable.conjugation``: conj[h, g] =
h g h^-1 and kappa(h, g), the exponent mod m with
u_h u_g u_h^-1 = zeta_m^kappa(h, g) u_{hgh^-1}.  A vector sum(x_g u_g)
is central iff x_{hgh^-1} = zeta_m^kappa(h, g) x_g for all h, g.  The
twisted conjugacy class of g is the column conj[:, g], listed from its
smallest element r; the candidate exponent at each member is kappa from r,
and the class supports a central vector iff every edge (h, g) agrees with
them mod m, all edges compared in one integer array operation.  The number
of simple blocks is therefore known exactly before any numerics, and the
random central sample is written straight from these arrays, one
coefficient per element of a kept class.
A center of dimension one needs no numerics at all: the algebra is simple,
so its one block is the whole algebra in its standard basis, with
idempotent u_e and dimension sqrt(|G|), read off exactly; no n x n identity
is stored for it.  Otherwise floating point enters only to split a random
self-adjoint central sample into eigenprojectors, which are then certified
against the exact center dimension and the integer identity
sum(d_i^2) = |G|.  Every split goes through ``split_algebras``, which takes
a list of algebras at one seed: each algebra draws its samples from its own
random stream, as it would alone, the samples of one order share one
stacked eigh per attempt, and each algebra passes its own certificates, so
a list splits each algebra to the bits of its lone split at a fraction of
the per-call cost.  Each block keeps the
orthonormal eigenvectors that span it as ``IrrPoint.basis``: its idempotent
and trace are read from them without an n x n projector, and its module is
cut out of them without a second factorization of the block.  The trace
certificate gives the basis exactly d^2 columns, so no rank check is needed
(``irreducible_rep``).  A module is certified by the twisted product law on
generator columns: the defect of rho(x) rho(s) against a(x, s) rho(xs) for
every x and every generator s, scaled by the depth of the Cayley
breadth-first tree, bounds the defect of every pair (the derivation is in
``irreducible_rep``).

A :class:`BlockOracle` holds the certified blocks and modules of every
algebra a computation asks about, keyed by the algebra's exact inputs, so an
identical algebra is split once per registry; ``wedderburn_all`` splits a
whole list of misses in one stacked pass.  The caller creates it and
passes it along.  ``is_nondegenerate`` never asks it: the exact center
dimension decides simplicity.  NUMERIC_BOUND caps the order of every algebra
here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .cocycles import CocycleTable, bicharacter_of
from .errors import CertificationError, DomainError, SizeBoundError, TheoremCheckError, ValidationError
from .groups import ORDER_BOUND, FiniteGroup, cayley_tree

TOL_CLUSTER = 1e-9      # eigenvalue clustering
TOL_ROUND = 1e-6        # integer certification guard
TOL_IDEMPOTENT = 1e-8   # idempotent residual a certified block may carry
MAX_ATTEMPTS = 8
SPLIT_BUDGET = 1 << 14  # sample entries, n^2 per algebra, one stacked eigh of ``split_algebras`` may hold
NUMERIC_BOUND = ORDER_BOUND  # largest order for the twisted algebra and its block oracle


@dataclass(frozen=True)
class CenterClass:
    """A twisted conjugacy class; phases is None when the class supports no
    central vector (some conjugation loop has a non-trivial phase)."""

    elements: tuple[int, ...]
    phases: np.ndarray | None


@dataclass(frozen=True)
class IrrPoint:
    """A primitive central idempotent standing for one irreducible type.

    basis holds dim^2 orthonormal columns spanning the block (the image of
    left multiplication by the idempotent), as ``wedderburn`` certified them;
    ``irreducible_rep`` cuts the module out of it.  It is None for the one
    block of a simple algebra: the whole algebra in its standard basis.
    """

    coeffs: np.ndarray
    dim: int
    index: int
    basis: np.ndarray | None

    def __post_init__(self):
        self.coeffs.setflags(write=False)  # points are shared through a BlockOracle
        if self.basis is not None:
            self.basis.setflags(write=False)

    def __eq__(self, other):
        return isinstance(other, IrrPoint) and self.index == other.index and self.dim == other.dim

    def __hash__(self):
        return hash((self.index, self.dim))


@dataclass(frozen=True)
class WedderburnData:
    """Certified block data: dims is the sorted multiset with sum of squares
    exactly the group order; residual is the worst idempotency defect."""

    dims: tuple[int, ...]
    blocks: tuple[IrrPoint, ...]
    residual: float


class TwistedAlgebra:
    """C^a G for a finite group G and a normalized 2-cocycle a, given as an
    exact :class:`CocycleTable`; phases holds its complex values, computed
    on first use, so the exact center never pays for them."""

    def __init__(self, group: FiniteGroup, cocycle: CocycleTable):
        if group.n > NUMERIC_BOUND:
            raise SizeBoundError(f"twisted algebra bounded at order {NUMERIC_BOUND}, group has {group.n}")
        if not isinstance(cocycle, CocycleTable):
            raise ValidationError(f"a twisted algebra takes a CocycleTable, not {type(cocycle).__name__}")
        if cocycle.group != group:
            raise DomainError("cocycle lives on a different group")
        self.group = group
        self.n = group.n
        self.cocycle = cocycle
        self.last_rep_defect: float | None = None  # the bound the last extracted module passed

    @cached_property
    def phases(self) -> np.ndarray:
        return self.cocycle.value_matrix()

    # -- the regular representation ------------------------------------------

    def left_regular(self, x: np.ndarray) -> np.ndarray:
        """The matrix of left multiplication by sum(x_g u_g): entry (gh, h) is x_g a(g, h)."""
        out = np.empty((self.n, self.n), dtype=np.complex128)
        out[self.group.table, np.arange(self.n)] = x[:, None] * self.phases
        return out

    def right_regular(self, x: np.ndarray) -> np.ndarray:
        """The matrix of right multiplication by sum(x_h u_h): entry (gh, g) is x_h a(g, h)."""
        out = np.empty((self.n, self.n), dtype=np.complex128)
        out[self.group.table, np.arange(self.n)[:, None]] = x * self.phases
        return out

    # -- exact center --------------------------------------------------------

    def center_classes(self) -> list[CenterClass]:
        """Twisted conjugacy classes with their coefficient phases, in the
        order of their smallest elements; the derivation is in
        ``_twisted_classes``."""
        rep, kept, phases = self._twisted_classes()
        order = np.argsort(rep, kind="stable")
        starts = np.flatnonzero(np.diff(rep[order])) + 1
        return [
            CenterClass(tuple(cls.tolist()), phases[cls] if kept[cls[0]] else None)
            for cls in np.split(order, starts)
        ]

    def center_dimension(self) -> int:
        rep, kept, _ = self._twisted_classes()
        return len(np.unique(rep[kept]))

    def _twisted_classes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """For every element g: the smallest element r of its twisted class,
        whether that class supports a central vector, and the phase of g's
        coefficient in it.

        A central vector must satisfy x_{hgh^-1} = zeta_m^kappa(h,g) x_g, with
        both tables from ``CocycleTable.conjugation``.  A class is listed from
        its smallest element r, which gets exponent 0; the exponent at g is
        kappa(h, r) for the smallest h with h r h^-1 = g.  Every edge (h, g) is
        then re-checked mod m, so a class is kept exactly when all its loops
        are phase-consistent.
        """
        conj, kappa = self.cocycle.conjugation()
        m = self.cocycle.scale
        rep = conj.min(axis=0)
        first = np.argmax(conj[:, rep] == np.arange(self.n), axis=0)  # smallest h with h rep h^-1 = g
        val = kappa[first, rep]
        bad = (val + kappa) % m != val[conj]
        broken = np.zeros(self.n, dtype=bool)
        broken[rep[bad.any(axis=0)]] = True
        return rep, ~broken[rep], np.exp(2j * np.pi * val / m)

    # -- block oracle ----------------------------------------------------------

    def wedderburn(self, seed: int = 0) -> WedderburnData:
        """Simple-block dimensions and primitive central idempotents:
        ``split_algebras`` on this algebra alone, its error raised.

        A random self-adjoint central sample is eigensplit; the cluster count
        must reproduce the exact center dimension and every block trace must
        round to a square within the guard band, otherwise a fresh
        deterministic draw is made.  Failures raise, never degrade.

        A cluster's orthonormal eigenvectors V span its block, whose
        projector V V^H is left multiplication by the block's idempotent e,
        so e = V V^H u_e = V conj(V[0]) and the trace is ||V||_F^2; neither
        forms the n x n projector.  Each point keeps V as its ``basis``.

        A center of dimension k = 1 needs no eigensplit.  C^a G is
        semisimple, and a semisimple algebra with center C is simple
        (Karpilovsky, *Projective Representations of Finite Groups*, 1985),
        so it is M_d(C) with d^2 = n: its one block is the whole algebra,
        whose idempotent is u_e (u_e u_e = a(e, e) u_e = u_e, a being
        normalized), in the standard basis (``basis`` None), with residual
        exactly 0.  An n that is not a square contradicts that and raises.
        """
        (data,) = split_algebras([self], seed)
        if isinstance(data, CertificationError):
            raise data
        return data

    def _simple_block(self) -> WedderburnData:
        """The one block of a simple C^a G, read off the exact center: the
        derivation is in ``wedderburn``."""
        d = math.isqrt(self.n)
        if d * d != self.n:
            raise CertificationError(f"simple algebra of dimension {self.n} is not a square")
        unit = np.zeros(self.n, dtype=np.complex128)
        unit[0] = 1.0
        return WedderburnData((d,), (IrrPoint(unit, d, 0, None),), 0.0)

    # -- irreducible representation extraction ---------------------------------

    def irreducible_rep(self, point: IrrPoint, seed: int = 0) -> np.ndarray:
        """Unitary matrices rho[g] with rho[g] rho[h] = a(g,h) rho[gh].

        One copy of the simple module is cut out of the block by the
        eigenspace of a random self-adjoint right multiplication, which
        commutes with the left action, compressed onto ``point.basis``; a
        simple algebra's block is the whole algebra in its standard basis
        (``basis`` None), so there it is not compressed at all.

        The basis has exactly d^2 orthonormal columns, so the block needs no
        rank check.  For a simple algebra the standard basis has n = d^2
        columns.  Otherwise its c columns are the eigenvectors of one eigh
        cluster, orthonormal up to a small multiple of n times the unit roundoff, so
        the trace ||V||_F^2 that ``wedderburn`` certified is c within 1e-9.
        Its square certificate |sqrt(tr) - d| <= TOL_ROUND = 1e-6 gives
        |tr - d^2| <= 2e-6 d + 1e-12 < 1e-4, as d <= 16 (c <= n <= 256);
        c and d^2 are integers less than 1/2 apart, so c = d^2.

        The projective law is certified on generator columns only.  Let
        E(g, h) = rho(g) rho(h) - a(g, h) rho(gh), eps_gen the largest
        Frobenius norm of E(x, s) over every x and every s in
        ``generating_sequence(G)``, and L the depth of the Cayley BFS tree
        along those generators (``cayley_tree``).  Writing rho(hs) from
        E(h, s) and using the cocycle identity a(g, h) a(gh, s) =
        a(g, hs) a(h, s) gives

            E(g, hs) = conj(a(h, s)) [a(g, h) E(gh, s) + E(g, h) rho(s) - rho(g) E(h, s)].

        Each rho(x) = Q^H u_x Q compresses the unitary u_x by the isometry Q,
        so its spectral norm is at most 1, and ||A B||_F <= ||A||_F ||B||_2
        turns the identity into e(l) <= e(l - 1) + 2 eps_gen for the largest
        ||E(g, w)||_F over words w of length l, with e(1) = eps_gen.  So
        ||E(g, w)||_F <= (2 l(w) - 1) eps_gen for w != e, while
        E(g, e) = rho(g) (rho(e) - I) has norm at most ||rho(e) - I||_F.
        The check requires max(||rho(e) - I||_F, (2L - 1) eps_gen) <= 1e-8,
        which bounds every entry of every E(g, h), so it is no weaker than
        the entrywise all-pairs test, at r batched products instead of n.

        Rounding enters through the columns of Q, which are orthonormal only
        up to eta = ||Q^H Q - I||_2 after the two eigh calls, and through the
        products that form each rho(x); both are of order n times the unit
        roundoff.  Then ||rho(x)||_2 <= 1 + eta, the recursion reads
        e(l) <= (1 + eta) e(l - 1) + (2 + eta) eps_gen, and the bound grows to
        (2L - 1) eps_gen (1 + eta)^(L - 1): below 1 + 1e-10 times the stated
        one for L < 256 and eta < 1e-13, far inside the threshold.

        The accepted bound is kept as ``last_rep_defect``, so a caller that
        keeps the module with its bound (``BlockOracle``) reads it there
        instead of measuring it again.
        """
        d, B = point.dim, point.basis
        rng = np.random.default_rng(seed)
        last = "no attempt"
        for _ in range(MAX_ATTEMPTS):
            raw = rng.standard_normal(self.n) + 1j * rng.standard_normal(self.n)
            R = self.right_regular(raw)
            M = R + R.conj().T
            if B is not None:
                M = B.conj().T @ M @ B
            evals, evecs = np.linalg.eigh(M)
            clusters = _cluster(evals, TOL_CLUSTER * max(1.0, float(np.max(np.abs(evals)))))
            chosen = next((idx for idx in clusters if len(idx) == d), None)
            if chosen is None:
                last = "no eigencluster of the module dimension"
                continue
            Q = evecs[:, chosen] if B is None else B @ evecs[:, chosen]
            rho = np.empty((self.n, d, d), dtype=np.complex128)
            for g, row in enumerate(self.group.table):
                # rho[g] = Q^H u_g Q, and row gh of u_g Q is a(g, h) Q[h]
                rho[g] = (Q[row].conj().T * self.phases[g]) @ Q
            defect = self._rep_defect_bound(rho)
            if defect > 1e-8:
                last = "extracted matrices fail the twisted product law"
                continue
            rho.setflags(write=False)  # modules are shared through a BlockOracle
            self.last_rep_defect = defect
            return rho
        raise CertificationError(f"irreducible extraction failed: {last}")

    def _rep_defect_bound(self, rho: np.ndarray) -> float:
        """max(||rho(e) - I||_F, (2L - 1) eps_gen), which bounds every entry of
        rho(g) rho(h) - a(g, h) rho(gh); the derivation is in ``irreducible_rep``."""
        G = self.group
        tree = cayley_tree(G)
        eps_gen = 0.0
        for s in tree.generators:  # column s: E(x, s) for every x at once
            defect = rho @ rho[s] - self.phases[:, s, None, None] * rho[G.table[:, s]]
            eps_gen = max(eps_gen, float(np.linalg.norm(defect, axis=(1, 2)).max()))
        return max(float(np.linalg.norm(rho[0] - np.eye(rho.shape[1]))), (2 * tree.height - 1) * eps_gen)


def split_algebras(algebras, seed: int) -> list[WedderburnData | CertificationError]:
    """The certified blocks of every algebra of ``algebras``, in order, each
    as ``TwistedAlgebra.wedderburn(seed)`` gives it alone, or the
    CertificationError that call raises.

    A simple algebra takes its one block off the exact center.  Every other
    algebra draws its central samples from its own
    ``np.random.default_rng(seed)`` stream, exactly as it would alone, and
    the samples of one order n go into one stacked ``np.linalg.eigh`` per
    attempt, in stacks of at most SPLIT_BUDGET entries (a sample beyond it
    alone is a stack of its own).  Each algebra is then certified by its own
    checks in ``_Split.certify``, and one that fails redraws from its
    stream on its next attempt, so a failure elsewhere in its stack never
    moves its draws.  numpy's stacked eigh solves each matrix of a stack on
    its own and returns the bits of a lone call (checked against lone splits
    over the sweep's restrictions and the Theorem-D lattices), so the result
    of each algebra does not depend on the others it was split with.
    """
    splits = [_Split(A, seed) for A in algebras]
    for s in splits:
        if s.k == 1:
            try:
                s.outcome = s.algebra._simple_block()
            except CertificationError as exc:
                s.outcome = exc
    _stacked_eigensplits([s for s in splits if s.k > 1])
    return [s.outcome for s in splits]


def _stacked_eigensplits(splits) -> None:
    """The numeric stage of ``split_algebras``: every split of ``splits``
    gets its blocks, or its CertificationError, as its ``outcome``; the
    stacking is described there."""
    orders: dict[int, list[_Split]] = {}
    for s in splits:
        orders.setdefault(s.algebra.n, []).append(s)
    for n, pending in orders.items():
        per_stack = max(1, SPLIT_BUDGET // (n * n))
        for _ in range(MAX_ATTEMPTS):
            pending = [s for s in pending if s.outcome is None]
            for start in range(0, len(pending), per_stack):
                stack = pending[start:start + per_stack]
                evals, evecs = np.linalg.eigh(np.stack([s.sample() for s in stack]))
                for s, values, vectors in zip(stack, evals, evecs):
                    s.certify(values, vectors)
        for s in pending:
            if s.outcome is None:
                s.outcome = CertificationError(f"block oracle failed after {MAX_ATTEMPTS} attempts: {s.last}")


class _Split:
    """One algebra of ``split_algebras``: the exact classes of
    ``_twisted_classes`` with k, the center dimension, its own random
    stream, the reason its last attempt failed, and its ``outcome``, the
    certified blocks or the error, None while it is pending."""

    def __init__(self, algebra: TwistedAlgebra, seed: int):
        rep, kept, phases = algebra._twisted_classes()
        reps = np.unique(rep[kept])  # one central basis vector per kept class, by smallest element
        self.algebra, self.kept = algebra, kept
        self.slot, self.phases = np.searchsorted(reps, rep[kept]), phases[kept]
        self.k = len(reps)
        self.rng = np.random.default_rng(seed)
        self.last = "no attempt"
        self.outcome: WedderburnData | CertificationError | None = None

    def sample(self) -> np.ndarray:
        """The next random self-adjoint central sample, as a left multiplication."""
        # complex draws keep conjugate blocks apart after self-adjointing
        coeffs = self.rng.standard_normal(self.k) + 1j * self.rng.standard_normal(self.k)
        z = np.zeros(self.algebra.n, dtype=np.complex128)
        z[self.kept] = coeffs[self.slot] * self.phases
        Z = self.algebra.left_regular(z)
        return Z + Z.conj().T

    def certify(self, evals, evecs) -> None:
        """Keep the blocks of the sample's eigensplit as ``outcome`` when
        every check passes, else the failing check as ``last``."""
        A = self.algebra
        clusters = _cluster(evals, TOL_CLUSTER * max(1.0, float(np.max(np.abs(evals)))))
        if len(clusters) != self.k:
            self.last = f"cluster count {len(clusters)} != center dimension {self.k}"
            return
        points = []
        for ci, idx in enumerate(clusters):
            V = evecs[:, idx]
            tr = float(np.vdot(V, V).real)
            d = np.sqrt(max(tr, 0.0))
            di = int(round(d))
            if di < 1 or abs(d - di) > TOL_ROUND:
                self.last = f"block trace {tr:.12f} does not certify as a square"
                return
            points.append(IrrPoint(V @ V[0].conj(), di, ci, V))
        if sum(p.dim * p.dim for p in points) != A.n:
            self.last = "sum of squared dimensions misses the group order"
            return
        residual = 0.0
        for p in points:
            defect = A.left_regular(p.coeffs) @ p.coeffs - p.coeffs
            residual = max(residual, float(np.max(np.abs(defect))))
        if residual > TOL_IDEMPOTENT:
            self.last = f"idempotent residual {residual:.2e} beyond tolerance"
            return
        points.sort(key=lambda p: (p.dim, p.index))
        blocks = tuple(IrrPoint(p.coeffs, p.dim, rank, p.basis) for rank, p in enumerate(points))
        self.outcome = WedderburnData(tuple(p.dim for p in blocks), blocks, residual)


class BlockOracle:
    """Certified blocks and modules of twisted group algebras at one seed,
    keyed by their exact inputs: the group (which compares and hashes by its
    table) and the cocycle's scale and exponent bytes.

    The seed fixes the oracle's random draws, its only free input; it is
    named once, here, so every split and every module of one registry is
    drawn at it, and a context or caller built on the registry cannot
    disagree with it.  A miss builds the algebra and calls its
    ``wedderburn`` or ``irreducible_rep`` at ``seed``, with every
    certificate those calls carry, and a module keeps the projective-law
    bound it was certified with; a hit returns what was certified on an
    identical input, which the deterministic oracle would reproduce exactly.
    ``wedderburn_all`` splits every miss of a list in one
    ``split_algebras`` pass, one stacked eigh per order and attempt with
    each algebra on its own random stream, so each kept result is the one
    ``wedderburn`` would have split alone.  It keeps only certified results:
    an algebra that fails in the pass is left unkept, and the next
    ``wedderburn`` on it splits it alone and raises that split's error.
    Only oracle results are kept, never an exact solve, so an exact
    certificate checked against the oracle stays independent of it.  Results
    are shared between callers, so they are read-only: point coefficients,
    block bases and module matrices are frozen.  Every module is cut out of
    the basis its kept point carries.  The caller creates the registry,
    passes it to every computation that should share it, and drops it when
    done; nothing is kept at module level.
    """

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._blocks: dict[tuple, WedderburnData] = {}
        self._modules: dict[tuple, tuple[np.ndarray, float]] = {}

    @staticmethod
    def _key(cocycle: CocycleTable) -> tuple:
        return (cocycle.group, cocycle.scale, cocycle.exps.tobytes())

    def wedderburn(self, cocycle: CocycleTable) -> WedderburnData:
        """The certified blocks of C^cocycle G, G the cocycle's group."""
        key = self._key(cocycle)
        data = self._blocks.get(key)
        if data is None:
            data = self._blocks[key] = TwistedAlgebra(cocycle.group, cocycle).wedderburn(seed=self.seed)
        return data

    def wedderburn_all(self, cocycles) -> None:
        """Split every algebra of ``cocycles`` not kept yet in one
        ``split_algebras`` pass, and keep the certified ones; an algebra
        that fails is left unkept, for ``wedderburn`` to split alone."""
        misses = {}
        for cocycle in cocycles:
            key = self._key(cocycle)
            if key not in self._blocks:
                misses.setdefault(key, cocycle)
        algebras = [TwistedAlgebra(c.group, c) for c in misses.values()]
        for key, data in zip(misses, split_algebras(algebras, self.seed)):
            if isinstance(data, WedderburnData):
                self._blocks[key] = data

    def irreducible_rep(self, cocycle: CocycleTable, index: int) -> np.ndarray:
        """The certified module of block ``index`` of ``wedderburn(cocycle)``."""
        return self._module(cocycle, index)[0]

    def rep_defect(self, cocycle: CocycleTable, index: int) -> float:
        """The projective-law bound ``TwistedAlgebra._rep_defect_bound`` of
        that module, measured once, by the extraction that certified it."""
        return self._module(cocycle, index)[1]

    def _module(self, cocycle: CocycleTable, index: int) -> tuple[np.ndarray, float]:
        key = (*self._key(cocycle), index)
        module = self._modules.get(key)
        if module is None:
            point = self.wedderburn(cocycle).blocks[index]
            algebra = TwistedAlgebra(cocycle.group, cocycle)
            rho = algebra.irreducible_rep(point, seed=self.seed)
            module = self._modules[key] = rho, algebra.last_rep_defect
        return module


def is_nondegenerate(a: CocycleTable) -> bool:
    """Whether the twisted group algebra of ``a`` on ``a.group`` is a full
    matrix algebra.

    C^a G is semisimple, and a semisimple algebra is simple exactly when its
    center is C, so the verdict is an exact center dimension of one
    (Karpilovsky, *Projective Representations of Finite Groups*, 1985); no
    numerics enter.  On abelian G the independent radical criterion (the
    commutator bicharacter has a trivial radical) must give the same
    verdict, and a disagreement raises.
    """
    G = a.group
    if G.n > NUMERIC_BOUND:
        raise SizeBoundError(f"non-degeneracy bounded at order {NUMERIC_BOUND}")
    simple = TwistedAlgebra(G, a).center_dimension() == 1
    if G.is_abelian and simple != (bicharacter_of(a).radical().order == 1):
        raise TheoremCheckError("non-degeneracy: center dimension and bicharacter radical disagree")
    return simple


def _cluster(sorted_vals: np.ndarray, tol: float) -> list[list[int]]:
    clusters: list[list[int]] = []
    for i, v in enumerate(sorted_vals):
        if clusters and abs(v - sorted_vals[clusters[-1][-1]]) <= tol:
            clusters[-1].append(i)
        else:
            clusters.append([i])
    return clusters


# -- idempotents matched against a certified set ------------------------------


def match_idempotent(rows: np.ndarray, points: tuple[IrrPoint, ...]) -> tuple[IrrPoint, ...]:
    """The unique point within TOL_ROUND of each stacked row; ambiguity raises, never guesses."""
    known = np.array([p.coeffs for p in points])
    hits = np.abs(known - rows[:, None]).max(axis=2) <= TOL_ROUND  # hits[r, i]: row r is near point i
    counts = hits.sum(axis=1)
    bad = np.flatnonzero(counts != 1)
    if bad.size:
        raise CertificationError(f"idempotent match found {counts[bad[0]]} candidates within {TOL_ROUND}")
    return tuple(points[i] for i in hits.argmax(axis=1))
