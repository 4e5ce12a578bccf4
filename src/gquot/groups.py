"""Finite groups as dense multiplication tables.

Every group lives on element indices ``0..n-1`` with ``0`` the identity, so
``G.table[a, b]`` is the product and ``G.inverse_table[a]`` the inverse.
Every question about a subgroup H is answered by indexing these arrays with
the element tuple of H (Holt, Eick and O'Brien, *Handbook of Computational
Group Theory*, ch. 3-4):

- closure: ``table[H][:, H]`` and ``inverse_table[H]`` stay inside H;
- normality: ``table[table[:, H], inverse_table[:, None]]`` holds every
  conjugate g h g^-1, row g, and must stay inside H;
- left cosets: the rows of ``table[:, H]`` are the cosets gH, and a row's
  minimum is its coset representative;
- G/N and the standalone copy of H are those arrays re-indexed through
  the coset (or position) labels.

A table is certified once, not once per group.  Every ``FiniteGroup`` holds
a table core, shared by all live groups whose tables have the same entries
(``subgroups``' copies and quotients relabel into positional order, so the
copies of one abstract subgroup met across a lattice often do): the
read-only table, its inverse table, certified when the core is first built,
its hash, and, on first use, its row lists, ``is_abelian``, its element
orders and its Cayley tree.  Sharing is safe because the core holds only
what the entries determine, all of it read-only, and a core is found only
by a table with its very entries (the registry compares entries whenever
hashes match); it holds no labels, name or lattice, which stay on each
group, since a lattice's subgroups belong to one group object.  Cores are
kept weakly, so a core goes with the last group holding it.  A table from
outside (a file, a public constructor without ``_trusted``) is validated in
full whether or not its core is live.  Two groups are equal exactly when
they share a core.  Homomorphisms are certified on generator columns, and
normality on an abelian group needs no conjugates.  What is closed or
multiplicative by construction is not checked again: the lattice's
subgroups come out of ``_closure`` and the projection of ``quotient`` out
of the cosets of a normal N, each with its proof where it is built.

Scalar walks read ``G.rows``, the table as Python row lists
(``table.tolist()``), built on a core's first scalar walk and kept: ``mul``,
``prod`` and the element orders step through them, and so does subgroup
generation, a breadth-first search over the cosets of a known subgroup
whose step from y is ``[rows[b][y] for b in base]``, with no numpy scalar
conversion per step.  The subgroup lattice is built by Neubüser's cyclic
extension (join each subgroup H with every cyclic subgroup it misses, once
per coset of H, layer by layer) and memoized on the group instance;
enumeration is refused above order ENUM_BOUND (64), checked on every call.
A descriptor or table file is refused above order ORDER_BOUND (256) before
any table is built, a file before any row is read.
``cayley_tree`` is the breadth-first spanning tree of the Cayley graph along
``generating_sequence``, which turns all-pairs checks into checks on
generator columns.  Groups of permutations
(symmetric groups, automorphism groups) get their table from
``permutation_group``.  Abelian invariants need no lattice: they are read
off the counts of elements whose order divides p^k.

``homomorphisms`` is the one homomorphism search: it backtracks over images
of a generating sequence, closes each partial assignment multiplicatively and
prunes on the first conflict (Holt, Eick and O'Brien, 4.6).  Isomorphism
testing and automorphism enumeration are that search with ``injective=True``.
"""

from __future__ import annotations

import itertools
import math
import weakref
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import NormalityError, SizeBoundError, ValidationError
from .smith import prime_powers

ENUM_BOUND = 64  # largest order for subgroup enumeration and isomorphism search
ORDER_BOUND = 256  # largest order of a group read from a descriptor or a table file


class _TableKey:
    """A table as a key of the core registry: its hash, and equality by its
    entries, so two tables whose hashes collide stay two keys.  It holds the
    core's own read-only table, no copy of it."""

    __slots__ = ("table", "hash")

    def __init__(self, table: np.ndarray, hash_: int):
        self.table, self.hash = table, hash_

    def __hash__(self) -> int:
        return self.hash

    def __eq__(self, other) -> bool:
        return np.array_equal(self.table, other.table)


def _table_hash(table: np.ndarray) -> int:
    return hash((len(table), table.tobytes()))


class _TableCore:
    """What a multiplication table determines, certified or built once per
    table and shared by every group whose table has the same entries: the
    read-only table and its certified inverse table, the hash, and, on first
    use, the row lists, ``is_abelian``, the element orders and the Cayley
    tree."""

    def __init__(self, table: np.ndarray, hash_: int):
        self.table, self.n, self.hash = table, len(table), hash_

    def _validate(self):
        """Range, identity, then Light's associativity test (Clifford and
        Preston, *The Algebraic Theory of Semigroups* I, 1.2): (x s) y = x (s y)
        for all x, y and only the middle elements s in A, one n x n slab each.

        That is enough: the s that pass form a submagma holding e, since for
        a, b passing x ((ab) y) = x (a (b y)) = (x a)(b y) = ((x a) b) y = (x (ab)) y.
        A grows by a plain closure of {e} under right multiplication (no group
        axiom assumed), each new s the smallest element not yet reached, until
        it reaches every element; that closure lies in every submagma holding
        e and A.  When some s fails, the a-slab scan over all triples names the
        first failing triple in (a, b, c) order.

        In a group the closure of A is the subgroup A generates, and H with a
        new s outside the subgroup H generates a subgroup holding H and the
        disjoint coset H s, so each middle at least doubles the closure: a
        group needs at most floor(log2 n) middles.  A table whose closure is short of n after that
        many is not a group, so it goes straight to the a-slab scan; if that
        finds no triple, the table is associative and the inverse check
        after this one names an element with no inverse.
        """
        table, n = self.table, self.n
        if table.min() < 0 or table.max() >= n:
            raise ValidationError("table entries out of range")
        if not (np.array_equal(table[0], np.arange(n)) and np.array_equal(table[:, 0], np.arange(n))):
            raise ValidationError("element 0 is not a two-sided identity")
        middles, reached = [], {0}
        while len(reached) < n and len(middles) < n.bit_length() - 1:
            middles.append(next(x for x in range(n) if x not in reached))
            reached = _closure(self, middles)
        if len(reached) == n and all(np.array_equal(table[table[:, s]], table[:, table[s]]) for s in middles):
            return
        for a in range(n):  # (a*b)*c against a*(b*c), one (b, c) slab per a
            bad = table[table[a]] != table[a][table]
            if bad.any():
                b, c = (int(x) for x in np.argwhere(bad)[0])
                raise ValidationError(f"not associative: ({a}*{b})*{c} != {a}*({b}*{c})")
        if len(reached) == n:
            raise AssertionError("a middle element failed Light's test but no triple does")

    def _certify_inverses(self):
        """Set the inverse table, or raise ValidationError naming an element without one.

        g has an inverse iff row g holds exactly one 0, at h say, and h*g = 0
        too.  The entries lie in range(n), so a row's 0 is its least entry;
        when every row meets a 0 there, whose column meets a 0 back, and the
        table holds n zeros, each row holds exactly one."""
        table, n = self.table, self.n
        inv = table.argmin(axis=1)
        at, back = table[np.arange(n), inv], table[inv, np.arange(n)]
        if at.any() or back.any() or np.count_nonzero(table == 0) != n:
            bad = (np.count_nonzero(table == 0, axis=1) != 1) | (at != 0) | (back != 0)
            raise ValidationError(f"element {int(bad.argmax())} has no two-sided inverse")
        self.inverse_table = inv

    @cached_property
    def rows(self) -> list[list[int]]:
        return self.table.tolist()

    @cached_property
    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.table, self.table.T))

    @cached_property
    def element_orders(self) -> tuple[int, ...]:
        rows, orders = self.rows, []
        for a in range(self.n):  # step x -> x a until e
            x, k = a, 1
            while x != 0:
                x = rows[x][a]
                k += 1
            orders.append(k)
        return tuple(orders)

    @cached_property
    def tree(self) -> "CayleyTree":
        return _cayley_tree(self)


# every live table core, by its table: a core goes when the last group holding it does
_CORES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _table_core(table: np.ndarray, trusted: bool) -> _TableCore:
    """The core of ``table``: the live one with the same entries, or a new one.

    An untrusted table is validated whether or not its core is live, so a
    table from outside raises exactly what it raised alone.  A new core
    certifies its inverses before it is kept, so a table with an element
    that has no inverse never gets into the registry, and a kept core
    answers only for tables with its very entries."""
    key = _TableKey(table, _table_hash(table))
    core = _CORES.get(key)
    fresh = core is None
    if fresh:
        core = _TableCore(table, key.hash)
    if not trusted:
        core._validate()
    if fresh:
        core._certify_inverses()
        table.setflags(write=False)
        core.inverse_table.setflags(write=False)
        _CORES[key] = core
    return core


class FiniteGroup:
    """A finite group given by its full multiplication table.

    ``table[a, b]`` is the index of the product ``a*b``.  Index 0 must be a
    two-sided identity; associativity and invertibility are checked at
    construction unless the table was produced by a trusted constructor.

    The table and what it determines live in a core shared by every group
    with the same table (``core``); the group itself holds its ``labels``,
    ``name`` and subgroup lattice.  Two groups are equal exactly when they
    share a core, that is, when their tables are equal.
    """

    __slots__ = ("core", "table", "n", "inverse_table", "labels", "name", "_lattice")

    def __init__(self, table, labels=None, name=None, _trusted=False):
        table = np.ascontiguousarray(np.asarray(table, dtype=np.int64))
        if table.ndim != 2 or table.shape[0] != table.shape[1]:
            raise ValidationError(f"multiplication table must be square, got shape {table.shape}")
        if table.shape[0] == 0:
            raise ValidationError("group must have at least one element")
        core = self.core = _table_core(table, _trusted)
        self.table, self.n, self.inverse_table = core.table, core.n, core.inverse_table
        if labels is not None:
            labels = [str(x) for x in labels]
            if len(labels) != self.n:
                raise ValidationError("label count does not match group order")
        self.labels = labels
        self.name = name
        self._lattice = None  # tuple of all subgroups, built by the first subgroups() call

    # -- basic operations --------------------------------------------------

    @property
    def rows(self) -> list[list[int]]:
        """The table as Python row lists, ``rows[a][b]`` the product a*b as an
        int; built on the core's first use and kept, and only read, like the
        read-only table it copies.  Scalar walks (``mul``, ``prod``, the
        element orders, closures) read these, which costs no numpy scalar
        conversion per step."""
        return self.core.rows

    def identity(self) -> int:
        return 0

    def mul(self, a: int, b: int) -> int:
        return self.core.rows[a][b]

    def inv(self, a: int) -> int:
        return self.inverse_table.item(a)

    def prod(self, elements) -> int:
        """The product of a sequence, left to right; the identity when empty."""
        rows, out = self.core.rows, 0
        for a in elements:
            out = rows[out][a]
        return out

    def order_of(self, a: int) -> int:
        return self.core.element_orders[a]

    def elements(self) -> range:
        return range(self.n)

    def element_orders(self) -> tuple[int, ...]:
        """The order of every element, by index: walked once per table core
        and kept, read-only, since it depends on the table alone."""
        return self.core.element_orders

    def order_census(self) -> Counter:
        return Counter(self.element_orders())

    @property
    def is_abelian(self) -> bool:
        return self.core.is_abelian

    def label(self, a: int) -> str:
        return self.labels[a] if self.labels is not None else str(a)

    def __len__(self) -> int:
        return self.n

    def __eq__(self, other) -> bool:
        return isinstance(other, FiniteGroup) and self.core is other.core

    def __hash__(self):
        return self.core.hash

    def __repr__(self):
        return f"FiniteGroup({self.name or 'order ' + str(self.n)})"


@dataclass(frozen=True)
class Subgroup:
    """A subgroup stored as a sorted tuple of element indices."""

    group: FiniteGroup
    elements: tuple[int, ...]
    _copy: FiniteGroup | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        elems = tuple(sorted(int(x) for x in set(self.elements)))
        object.__setattr__(self, "elements", elems)
        _check_range(elems, self.group.n)
        if not elems or elems[0] != 0:
            raise ValidationError("subgroup does not contain the identity")
        # row a: column 0 is "a^-1 inside", column 1 + j is "a * elems[j] inside",
        # so the first failure in row-major order tests a^-1 before a's products
        E = np.array(elems)
        inside = self._inside()
        bad = ~np.column_stack([inside[self.group.inverse_table[E]], inside[self.group.table[E[:, None], E]]])
        if bad.any():
            i, j = np.unravel_index(np.argmax(bad), bad.shape)
            if j == 0:
                raise ValidationError(f"subgroup not closed under inversion at {elems[i]}")
            raise ValidationError(f"subgroup not closed under product {elems[i]}*{elems[j - 1]}")

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, g: int) -> bool:
        return g in set(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def _inside(self) -> np.ndarray:
        """Membership as a boolean vector over the elements of the group."""
        inside = np.zeros(self.group.n, dtype=bool)
        inside[list(self.elements)] = True
        return inside

    def is_normal(self) -> bool:
        return self.violating_conjugation() is None

    def violating_conjugation(self):
        """The first pair (g, h), g-major, with g h g^-1 outside the subgroup, else
        None; on an abelian group g h g^-1 = h, so there is none."""
        if self.group.is_abelian:
            return None
        t, inv = self.group.table, self.group.inverse_table
        conj = t[t[:, list(self.elements)], inv[:, None]]  # conj[g, i] = g h_i g^-1
        bad = ~self._inside()[conj]
        if not bad.any():
            return None
        g, i = np.unravel_index(np.argmax(bad), bad.shape)
        return int(g), self.elements[i]

    def as_group(self) -> FiniteGroup:
        """This subgroup as a standalone group: its element i is ``elements[i]``
        of the parent, so the identity stays at index 0.  The copy is built
        once and kept, so its own caches (generating sequence, Cayley tree)
        serve every caller."""
        if self._copy is None:
            elems = np.array(self.elements)
            pos = np.zeros(self.group.n, dtype=np.int64)
            pos[elems] = np.arange(len(elems))
            table = pos[self.group.table[elems[:, None], elems]]
            copy = FiniteGroup(table, labels=[self.group.label(g) for g in self.elements], _trusted=True)
            object.__setattr__(self, "_copy", copy)
        return self._copy


@dataclass(frozen=True)
class GroupHom:
    """A homomorphism given by the image of every source element.

    It is certified at construction on generator columns: f(e) = e and
    f(x s) = f(x) f(s) for every x and every s in ``generating_sequence(source)``,
    n r compares for r generators instead of n^2.  That is enough: if
    f(x y) = f(x) f(y) for every x, then f(x y s) = f((x y) s) = f(x y) f(s)
    = f(x) f(y) f(s) = f(x) f(y s), and f(x e) = f(x) = f(x) f(e), so by
    induction on the length of a word for y in the generators (in a finite
    group every element is a positive word) f is multiplicative on all
    pairs.  When a column fails, the all-pairs scan names the first failing
    pair (a, b) in row-major order.
    """

    source: FiniteGroup
    target: FiniteGroup
    images: tuple[int, ...]

    def __post_init__(self):
        images = tuple(int(x) for x in self.images)
        object.__setattr__(self, "images", images)
        if len(images) != self.source.n:
            raise ValidationError("homomorphism image list has wrong length")
        if images[0] != 0:
            raise ValidationError("homomorphism does not fix the identity")
        img = np.asarray(images, dtype=np.int64)
        if img.min() < 0 or img.max() >= self.target.n:
            raise ValidationError("homomorphism image outside the target")
        source, target = self.source.table, self.target.table
        gens = list(cayley_tree(self.source).generators)
        if not np.array_equal(img[source[:, gens]], target[img[:, None], img[gens]]):
            bad = img[source] != target[img[:, None], img[None, :]]
            a, b = (int(x) for x in np.argwhere(bad)[0])
            raise ValidationError(f"not multiplicative at ({a},{b})")

    def __call__(self, g: int) -> int:
        return self.images[g]

    def kernel(self) -> Subgroup:
        return Subgroup(self.source, tuple(g for g in self.source.elements() if self.images[g] == 0))

    def is_surjective(self) -> bool:
        return len(set(self.images)) == self.target.n


def _proved(cls, **fields):
    """An instance of the frozen dataclass ``cls`` (``Subgroup`` or
    ``GroupHom``) with every field given in its normal form, built without
    its ``__post_init__`` check; each caller proves what that check tests."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


@dataclass(frozen=True)
class CosetSpace:
    """Left cosets of a subgroup: a partition with chosen representatives."""

    group: FiniteGroup
    subgroup: Subgroup
    blocks: tuple[tuple[int, ...], ...]
    representatives: tuple[int, ...]
    block_of: tuple[int, ...]

    def __len__(self):
        return len(self.blocks)


# -- constructors ----------------------------------------------------------


def trivial_group() -> FiniteGroup:
    return FiniteGroup(np.zeros((1, 1), dtype=np.int64), labels=["e"], name="C1", _trusted=True)


def cyclic(n: int) -> FiniteGroup:
    if n < 1:
        raise ValidationError("cyclic order must be positive")
    idx = np.arange(n)
    table = (idx[:, None] + idx[None, :]) % n
    labels = ["e"] + [f"g{'' if k == 1 else k}" for k in range(1, n)]
    return FiniteGroup(table, labels=labels[:n], name=f"C{n}", _trusted=True)


def direct_product(*groups: FiniteGroup) -> FiniteGroup:
    if not groups:
        return trivial_group()
    if len(groups) == 1:
        return groups[0]
    first, rest = groups[0], direct_product(*groups[1:])
    n1, n2 = first.n, rest.n
    a1, b1 = np.divmod(np.arange(n1 * n2)[:, None], n2)
    a2, b2 = np.divmod(np.arange(n1 * n2)[None, :], n2)
    table = first.table[a1, a2] * n2 + rest.table[b1, b2]
    labels = [f"({first.label(a)},{rest.label(b)})" for a in range(n1) for b in range(n2)]
    name = f"{first.name}x{rest.name}" if first.name and rest.name else None
    return FiniteGroup(table, labels=labels, name=name, _trusted=True)


def dihedral(n: int) -> FiniteGroup:
    """Dihedral group of order 2n: indices 0..n-1 rotations, n..2n-1 reflections."""
    if n < 1:
        raise ValidationError("dihedral parameter must be positive")
    f, r = np.divmod(np.arange(2 * n), n)  # reflection flag and rotation index
    ra, fa = r[:, None], f[:, None]
    table = np.where(fa, ra - r, ra + r) % n + n * (fa ^ f)
    labels = [f"r{k}" for k in range(n)] + [f"sr{k}" for k in range(n)]
    return FiniteGroup(table, labels=labels, name=f"D{n}", _trusted=True)


def permutation_group(perms, name: str | None = None) -> tuple[FiniteGroup, list[int]]:
    """The group of the distinct permutations among ``perms``, plus the
    element each input permutation became.

    The permutations of ``0..k-1`` given must be closed under composition.
    Elements are numbered in lexicographic order, so the identity comes
    first; the product p*q is the composite ``p[q]`` (q first), and each
    element is labelled by its images written out.
    """
    rows = [tuple(p) for p in np.asarray(perms).tolist()]
    ordered = sorted(set(rows))
    pos = {p: i for i, p in enumerate(ordered)}
    arr = np.array(ordered)
    table = [[pos[tuple(pq)] for pq in p[arr].tolist()] for p in arr]
    labels = ["".join(map(str, p)) for p in ordered]
    return FiniteGroup(table, labels=labels, name=name, _trusted=True), [pos[p] for p in rows]


def symmetric(n: int) -> FiniteGroup:
    """Symmetric group on n letters, n <= 4, elements ordered lexicographically."""
    if not 1 <= n <= 4:
        raise SizeBoundError("symmetric(n) supported for n <= 4 only")
    return permutation_group(list(itertools.permutations(range(n))), name=f"S{n}")[0]


def quaternion8() -> FiniteGroup:
    """The quaternion group {1, i, j, k, -1, -i, -j, -k}."""
    # element 4 s + x is (-1)^s times the unit x of 1, i, j, k; the unit of a
    # product is x_a XOR x_b, and neg[x_a, x_b] is its extra sign
    neg = np.array([[0, 0, 0, 0], [0, 1, 0, 1], [0, 1, 1, 0], [0, 0, 1, 1]])
    s, x = np.divmod(np.arange(8), 4)
    table = 4 * (s[:, None] ^ s ^ neg[x[:, None], x]) + (x[:, None] ^ x)
    labels = ["1", "i", "j", "k", "-1", "-i", "-j", "-k"]
    return FiniteGroup(table, labels=labels, name="Q8", _trusted=True)


def make_group(spec: str) -> FiniteGroup:
    """Construct a catalog group from a short descriptor.

    Accepted forms: ``C<n>``, products like ``C2xC4``, ``D<n>`` (order 2n),
    ``S<n>`` for n <= 4, and ``Q8``.  The order the descriptor names is
    checked against ORDER_BOUND before any table is built.
    """
    parts = [_descriptor_part(part) for part in spec.strip().replace(" ", "").split("x")]
    # a factor of order 0 counts as 1, so the others stay bounded; its constructor refuses it
    if math.prod(max(_PART_ORDER[kind](k), 1) for kind, k in parts) > ORDER_BOUND:
        raise SizeBoundError(f"group descriptor {spec!r} names a group of order above {ORDER_BOUND}")
    return direct_product(*(_PART_GROUP[kind](k) for kind, k in parts))


def _descriptor_part(spec: str) -> tuple[str, int]:
    """The kind letter and number of one factor of a descriptor."""
    if not spec:
        raise ValidationError("empty group descriptor")
    kind, rest = spec[0].upper(), spec[1:]
    if rest.isascii() and rest.isdigit() and kind in _PART_GROUP and (kind != "Q" or int(rest) == 8):
        return kind, int(rest)
    raise ValidationError(f"unrecognized group descriptor {spec!r}")


# S k counts as 6! = 720 past k = 6: over the bound already, without a factorial of k
_PART_ORDER = {"C": lambda k: k, "D": lambda k: 2 * k, "S": lambda k: math.factorial(min(k, 6)), "Q": lambda k: k}
_PART_GROUP = {"C": cyclic, "D": dihedral, "S": symmetric, "Q": lambda k: quaternion8()}


# -- subgroup machinery ----------------------------------------------------


def _check_range(elems, n: int) -> None:
    """Raise unless every index in the sorted ``elems`` lies in 0..n-1."""
    if elems and (elems[0] < 0 or elems[-1] >= n):
        x = elems[0] if elems[0] < 0 else elems[-1]
        raise ValidationError(f"subgroup element {x} outside the group of order {n}")


def generated_subgroup(G: FiniteGroup, gens) -> Subgroup:
    _check_range(sorted(int(g) for g in gens), G.n)
    # closed under products, so under inverses too: G is finite
    return _proved(Subgroup, group=G, elements=tuple(sorted(_closure(G, gens))), _copy=None)


def subgroups(G: FiniteGroup) -> list[Subgroup]:
    """All subgroups, sorted by (order, elements), as a fresh list.

    The lattice comes from ``_cyclic_extension`` and is built once per group
    instance; the size bound is checked on every call, cached or not.
    """
    if G.n > ENUM_BOUND:
        raise SizeBoundError(f"subgroup enumeration bounded at order {ENUM_BOUND}, group has {G.n}")
    if G._lattice is None:
        G._lattice = tuple(_cyclic_extension(G))
    return list(G._lattice)


def _cyclic_extension(G: FiniteGroup) -> list[Subgroup]:
    """Neubüser's cyclic extension: layer k holds the joins of k cyclic subgroups.

    Each new subgroup, kept with the generators that built it, is joined with
    every distinct cyclic subgroup it does not contain, once per left coset:
    <H, c> = <H, ch> for every h in H, so a generator c whose coset cH an
    earlier generator already met would only repeat that earlier join
    (Neubüser, *Numer. Math.* 2, 1960).  Skipping it drops no subgroup and
    keeps the order of discovery, so the rule stays complete for every
    group, non-solvable tables included.  The met cosets are marked in a
    ``bytearray``, each coset cH read off the row list ``G.rows[c]``.

    Every set kept is a subgroup, so its ``Subgroup`` skips the closure
    check.  By induction, each key K is ``<gens>`` for its kept generators
    ``gens``: {e} = <()>, and a new K is ``_closure(G, gens, H)`` with
    gens = gens(H) + (c,), so H = <gens(H)> lies in <gens>.  That closure
    holds H and is closed under right multiplication by ``gens`` (its
    docstring), so it holds every positive word in ``gens``, which in a
    finite group is all of <gens> (s^-1 = s^(ord s - 1)); and every element
    it reaches is h w with h in H and w such a word, inside <gens>.  So K is
    the subgroup <gens>: closed, holding e, its entries table indices.
    """
    cyclic_gens: dict[frozenset, int] = {}
    for g in G.elements():
        cyclic_gens.setdefault(frozenset(_closure(G, (g,))), g)
    lattice = {frozenset((0,)): ()}
    layer = [frozenset((0,))]
    while layer:
        nxt = []
        for H in layer:
            base = sorted(H)
            met = bytearray(G.n)  # the union of the cosets cH joined so far, H included
            for h in base:
                met[h] = 1
            for c in cyclic_gens.values():
                if not met[c]:
                    row = G.rows[c]
                    for h in base:
                        met[row[h]] = 1
                    gens = lattice[H] + (c,)
                    K = frozenset(_closure(G, gens, base))
                    if K not in lattice:
                        lattice[K] = gens
                        nxt.append(K)
        layer = nxt
    lattice = (_proved(Subgroup, group=G, elements=tuple(sorted(K)), _copy=None) for K in lattice)
    return sorted(lattice, key=lambda s: (s.order, s.elements))


def _closure(G: FiniteGroup, seed, base=(0,)) -> set[int]:
    """The subgroup generated by ``seed``, given a subgroup ``base`` of it.

    Breadth-first search over right cosets of ``base``, stepping along the
    row lists ``G.rows`` (G a group or a table core) at the columns of
    ``seed``; with the default trivial base it visits elements and is the
    plain closure of {e} under right multiplication by ``seed``.
    """
    gens = sorted({int(g) for g in seed} - {0})
    T = G.rows
    base = list(base)
    closure = set(base)
    reps = [0]
    for x in reps:
        row = T[x]
        for g in gens:
            y = row[g]
            if y not in closure:
                closure.update((y,) if len(base) == 1 else [T[b][y] for b in base])  # a trivial base: y alone
                reps.append(y)
    return closure


def normal_subgroups(G: FiniteGroup) -> list[Subgroup]:
    return [H for H in subgroups(G) if H.is_normal()]


def center(G: FiniteGroup) -> Subgroup:
    """The elements whose row of the table equals their column."""
    t = G.table
    return Subgroup(G, tuple(np.flatnonzero((t == t.T).all(axis=1)).tolist()))


def coset_space(G: FiniteGroup, H: Subgroup) -> CosetSpace:
    """Left cosets gH with minimal-index representatives, identity coset first.

    Row g of ``G.table[:, H]`` is the coset gH, and its minimum is the
    representative; cosets are numbered in increasing representative order.
    """
    cosets = G.table[:, list(H.elements)]
    rep_of = cosets.min(axis=1)
    reps = np.flatnonzero(rep_of == np.arange(G.n))
    blocks = np.sort(cosets[reps], axis=1)
    block_of = np.searchsorted(reps, rep_of)
    return CosetSpace(G, H, tuple(map(tuple, blocks.tolist())), tuple(reps.tolist()), tuple(block_of.tolist()))


def quotient(G: FiniteGroup, N: Subgroup) -> tuple[FiniteGroup, GroupHom]:
    """The quotient group G/N plus the projection homomorphism: ``quotients``
    on N alone."""
    return quotients(G, [N])[0]


def quotients(G: FiniteGroup, subgroups) -> list[tuple[FiniteGroup, GroupHom]]:
    """For each N of ``subgroups``, all of one order, the quotient group G/N
    plus the projection homomorphism; one array pass serves the whole list.
    The first non-normal N of the list raises the NormalityError it raises
    alone, naming its first pair (g, h), g-major, with g h g^-1 outside N.

    Row b of ``table[table[:, E], inverse_table]``, E the element rows of the
    list, holds the conjugates of N_b (none on an abelian G, where each is
    h).  The left cosets of N_b are the rows of ``table[:, E_b]``, each
    numbered by its minimum, its representative, in increasing order, as in
    ``coset_space``, so the identity coset comes first.  The projection
    p(g) = ``block_of[g]`` is multiplicative by construction, so its
    ``GroupHom`` skips the generator-column check.  Coset i of the table is r_i N with r_i its
    representative, and the table's entry (i, j) is the coset of r_i r_j.
    For g in r_i N and h in r_j N, normality gives g h in r_i N r_j N =
    r_i r_j N, so p(g h) is entry (p(g), p(h)): p(g h) = p(g) p(h).  And
    p(e) = 0, the identity coset's representative being e, the least
    element.
    """
    E = np.array([N.elements for N in subgroups], dtype=np.int64)
    if not len(E):
        return []
    if not G.is_abelian:
        inside = np.zeros((len(E), G.n), dtype=bool)
        inside[np.arange(len(E))[:, None], E] = True
        conj = G.table[G.table[:, E], G.inverse_table[:, None, None]]  # conj[g, b, i] = g h g^-1, h = E[b, i]
        bad = ~inside[np.arange(len(E))[:, None, None], conj.transpose(1, 0, 2)]  # [b, g, i]
        if bad.any():  # the first non-normal N_b, and its first pair g-major
            b, g, i = np.unravel_index(np.argmax(bad), bad.shape)
            raise NormalityError(f"N is not normal: conjugating {E[b, i]} by {g} leaves N")
    rep_of = G.table[:, E].min(axis=2).T  # [b, g]: the least element of g N_b
    is_rep = rep_of == np.arange(G.n)
    block_of = np.take_along_axis(np.cumsum(is_rep, axis=1) - 1, rep_of, axis=1)
    reps = np.nonzero(is_rep)[1].reshape(len(E), -1)
    products = G.table[reps[:, :, None], reps[:, None, :]].reshape(len(E), -1)
    tables = np.take_along_axis(block_of, products, axis=1).reshape(len(E), reps.shape[1], -1)
    name = (G.name or "G") + "/N"
    out = []
    for table, r, images in zip(tables, reps.tolist(), block_of.tolist()):
        Q = FiniteGroup(table, labels=[G.label(x) + "N" for x in r], name=name, _trusted=True)
        out.append((Q, _proved(GroupHom, source=G, target=Q, images=tuple(images))))
    return out


# -- abelian invariants ----------------------------------------------------


def abelian_invariants(G: FiniteGroup) -> tuple[int, ...] | None:
    """Invariant factors n1 | n2 | ... | nr of an abelian group, None if non-abelian.

    If the p-part of G is C_{p^e1} x ... x C_{p^es}, the elements of order
    dividing p^k number p^(r_1 + ... + r_k), where r_j counts the factors of
    order at least p^j.  So exact counts taken from the element-order census
    give every r_j, and with them the p-power factors; the j-th largest
    invariant factor is the product over p of the j-th largest p-power
    factors.
    """
    if not G.is_abelian:
        return None
    census = G.order_census()
    primary = []  # per prime, its p-power factors, largest first
    for p, _ in prime_powers(G.n):
        ranks, below, q = [], 1, p  # ranks[j - 1] = r_j, below = count at p^(j - 1)
        while True:
            count = sum(c for order, c in census.items() if q % order == 0)
            if count == below:  # q is past the exponent of the p-part
                break
            ranks.append(_exact_log(count // below, p))
            below, q = count, q * p
        primary.append([p ** sum(r > i for r in ranks) for i in range(ranks[0])])
    return tuple(math.prod(col) for col in itertools.zip_longest(*primary, fillvalue=1))[::-1]


def _exact_log(x: int, p: int) -> int:
    """k with p^k = x, for x a power of p."""
    k = 0
    while x > 1:
        x //= p
        k += 1
    return k


def is_homocyclic_squarefree(G: FiniteGroup) -> bool:
    """True when all invariant factors coincide and are square-free.

    This is the exact condition under which the maximal elementary quotients
    of a non-degenerate twisted class over the group all coincide.
    """
    invariants = abelian_invariants(G)
    if invariants is None:
        return False
    if not invariants:
        return True
    q = invariants[-1]
    return all(x == q for x in invariants) and squarefree(q)


def squarefree(n: int) -> bool:
    """Whether n >= 1 is divisible by no prime square (False for n < 1)."""
    return n >= 1 and all(e == 1 for _, e in prime_powers(n))


def invariant_factor_sequences(n: int) -> list[tuple[int, ...]]:
    """All chains n1 | n2 | ... | nk with product n, ascending lexicographic.

    The depth-first recursion tries each next factor in ascending order, so
    it emits every chain once and already in that order.
    """
    out: list[tuple[int, ...]] = []

    def rec(remaining: int, last: int, acc: list[int]):
        if remaining == 1:
            out.append(tuple(acc))
            return
        d = max(last, 2)
        while d <= remaining:
            if (last == 1 or d % last == 0) and remaining % d == 0:
                rec(remaining // d, d, acc + [d])
            d += 1

    rec(n, 1, [])
    return out


def abelian_group_from_invariants(invariants) -> FiniteGroup:
    """The direct product of cyclic groups of the given orders (C1 when empty)."""
    if not invariants:
        return trivial_group()
    return direct_product(*(cyclic(k) for k in invariants))


# -- isomorphism testing ---------------------------------------------------


@dataclass(frozen=True)
class IsomorphismResult:
    isomorphic: bool
    hom: GroupHom | None
    reason: str


def generating_sequence(G: FiniteGroup) -> list[int]:
    """Generators of G, each the smallest element outside the span of those
    before: the generators of ``cayley_tree(G)``."""
    return list(cayley_tree(G).generators)


@dataclass(frozen=True)
class CayleyTree:
    """The breadth-first spanning tree of the Cayley graph of G along
    ``generators = generating_sequence(G)``, rooted at the identity.

    Every g != e is ``parent[g] * edge[g]`` with ``edge[g]`` a generator, and
    ``depth[g]`` is the length of the shortest word for g in the generators
    (-1 marks the identity's parent and edge).  ``height`` is the tree's depth.
    """

    generators: tuple[int, ...]
    parent: np.ndarray
    edge: np.ndarray
    depth: np.ndarray

    @property
    def height(self) -> int:
        return int(self.depth.max())


def cayley_tree(G: FiniteGroup) -> CayleyTree:
    """The Cayley BFS tree of G, one layer per step along ``table[:, s]``.

    Each generator is the smallest element outside the span of those before.
    Every element of depth l > 0 is h s for some h of depth l - 1 and some
    generator s; its parent edge is the first such (h, s), with h in the
    order the search reached it and s in generator order.  The tree depends
    on the table alone, so it is built once per table core and shared by
    every group with that table, its arrays read-only.
    """
    return G.core.tree


def _cayley_tree(core: _TableCore) -> CayleyTree:
    n = core.n
    gens, span = [], {0}
    while len(span) < n:
        gens.append(next(x for x in range(n) if x not in span))
        span = _closure(core, gens, base=sorted(span))
    rows = core.table[:, gens].tolist()
    parent, edge, depth = [-1] * n, [-1] * n, [-1] * n
    depth[0] = 0
    frontier = [0]
    while frontier:
        reached = []
        for h in frontier:
            for s, g in zip(gens, rows[h]):
                if depth[g] < 0:
                    parent[g], edge[g], depth[g] = h, s, depth[h] + 1
                    reached.append(g)
        frontier = reached
    arrays = np.array([parent, edge, depth])
    arrays.setflags(write=False)  # shared by every caller of this table's tree
    return CayleyTree(tuple(gens), *arrays)


def extend_hom(G1: FiniteGroup, G2: FiniteGroup, pairs: list[tuple[int, int]]):
    """Grow a partial map f, f(a) = b for each pair, by closing under right
    products f(x a) = f(x) b; None on conflict.

    Right products suffice.  The closure reaches every positive word in the
    a's, which in a finite group is the whole subgroup they generate.  With
    no conflict left, f(x a) = f(x) f(a) for every reached x, so by induction
    on k, f(x a_1 ... a_k) = f(x a_1 ... a_{k-1}) f(a_k)
    = f(x) f(a_1 ... a_{k-1}) f(a_k) = f(x) f(a_1 ... a_k): f is a homomorphism.
    """
    mapping = {0: 0}
    frontier = [0]
    for a, b in pairs:
        if mapping.get(a, b) != b:
            return None
        mapping[a] = b
        frontier.append(a)
    while frontier:
        x = frontier.pop()
        for a, b in pairs:
            u, v = G1.mul(x, a), G2.mul(mapping[x], b)
            if u in mapping:
                if mapping[u] != v:
                    return None
            else:
                mapping[u] = v
                frontier.append(u)
    return mapping


def homomorphisms(G: FiniteGroup, T: FiniteGroup, injective: bool = False):
    """Every homomorphism G -> T (only the injective ones if asked), in order.

    Generators come from ``generating_sequence(G)``; a generator's candidate
    images are the elements of T, in index order, whose order divides its
    order (equals it, when ``injective``).  Each partial assignment is closed
    by ``extend_hom`` and dropped on conflict, so a complete assignment is
    already multiplicative; ``GroupHom`` certifies it once more.
    """
    gens = generating_sequence(G)
    orders_T = T.element_orders()
    cands = []
    for g in gens:
        k = G.order_of(g)
        cands.append([t for t in T.elements() if (orders_T[t] == k if injective else k % orders_T[t] == 0)])

    def rec(level: int, pairs: list[tuple[int, int]], mapping: dict[int, int]):
        if level == len(gens):
            images = tuple(mapping[g] for g in G.elements())
            if not injective or len(set(images)) == G.n:
                yield GroupHom(G, T, images)
            return
        for t in cands[level]:
            trial = pairs + [(gens[level], t)]
            extended = extend_hom(G, T, trial)
            if extended is not None:
                yield from rec(level + 1, trial, extended)

    yield from rec(0, [], {0: 0})


def are_isomorphic(G1: FiniteGroup, G2: FiniteGroup) -> IsomorphismResult:
    """Decide isomorphism with an explicit witness or a distinguishing invariant."""
    if max(G1.n, G2.n) > ENUM_BOUND:
        raise SizeBoundError(f"isomorphism search bounded at order {ENUM_BOUND}")
    if G1.n != G2.n:
        return IsomorphismResult(False, None, f"orders differ: {G1.n} vs {G2.n}")
    if G1.order_census() != G2.order_census():
        return IsomorphismResult(False, None, "element-order census differs")
    if G1.is_abelian != G2.is_abelian:
        return IsomorphismResult(False, None, "one group is abelian, the other is not")
    hom = next(homomorphisms(G1, G2, injective=True), None)
    if hom is None:
        return IsomorphismResult(False, None, "generator-image search exhausted")
    return IsomorphismResult(True, hom, "explicit isomorphism found")


# -- text format -----------------------------------------------------------


def format_group_table(G: FiniteGroup) -> str:
    """Serialize to the group-table text format (bit-exact round trip)."""
    lines = [str(G.n)]
    for g in range(G.n):
        lines.append(" ".join(str(int(x)) for x in G.table[g]))
    if G.labels is not None:
        for i, lab in enumerate(G.labels):
            lines.append(f"# {i} {lab}")
    return "\n".join(lines) + "\n"


def parse_group_table(text) -> FiniteGroup:
    """Parse the group-table text format, validating the table fully.

    ``text`` is the whole text or an iterable of its lines, read in order;
    the order on the header line is checked against ORDER_BOUND before the
    next line is read, and a row past the n-th raises at its line, as does
    a row entry that is not an integer (``parse_row``).
    """
    rows: list[list[int]] = []
    labels: dict[int, tuple[int, str]] = {}  # index -> (line, label)
    n = None
    for lineno, raw in enumerate(text.splitlines() if isinstance(text, str) else text, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line[1:].split(None, 1)
            if len(parts) != 2 or not (parts[0].isascii() and parts[0].isdigit()):
                raise ValidationError(f"line {lineno}: malformed label line")
            index = int(parts[0])
            if index in labels:
                raise ValidationError(f"line {lineno}: label index {index} repeats line {labels[index][0]}")
            labels[index] = (lineno, parts[1])
            continue
        if n is None:
            if not (line.isascii() and line.isdigit()):
                raise ValidationError(f"line {lineno}: expected group order")
            n = int(line)
            if n > ORDER_BOUND:
                raise SizeBoundError(f"line {lineno}: group order {n} above the bound {ORDER_BOUND}")
            continue
        if len(rows) == n:
            raise ValidationError(f"line {lineno}: table row past the {n} rows of the group")
        row = parse_row(line, lineno, "table entry")
        if len(row) != n:
            raise ValidationError(f"line {lineno}: expected {n} entries, got {len(row)}")
        rows.append(row)
    if n is None or len(rows) != n:
        raise ValidationError(f"expected {n or '?'} table rows, got {len(rows)}")
    for index, (lineno, _) in labels.items():
        if index >= n:
            raise ValidationError(f"line {lineno}: label index {index} outside the group of order {n}")
    label_list = None
    if labels:
        label_list = [labels[i][1] if i in labels else str(i) for i in range(n)]
    # checked as Python integers, before an entry no int64 holds reaches numpy
    if any(not 0 <= x < n for row in rows for x in row):
        raise ValidationError("table entries out of range")
    return FiniteGroup(rows, labels=label_list)


def is_integer_token(tok: str) -> bool:
    """Whether ``tok`` is ASCII digits after an optional minus sign, the
    integer token of the group-table, cocycle and subgroup formats: ``int``
    alone would also read ``٣`` as 3, ``1_0`` as 10 and ``+1`` as 1, so a
    typo could silently change a table, a class or a subgroup."""
    return tok.isascii() and tok.removeprefix("-").isdigit()


def parse_row(line: str, lineno: int, entry: str) -> list[int]:
    """The integers of one table row at line ``lineno``; a token that is no
    integer token, or that ``int`` refuses for its length, raises
    ValidationError naming the line and, as ``entry``, what the row holds."""
    tokens = line.split()
    bad = next((tok for tok in tokens if not is_integer_token(tok)), None)
    if bad is not None:
        raise ValidationError(f"line {lineno}: non-integer {entry} {bad!r}")
    try:
        return [int(tok) for tok in tokens]
    except ValueError:  # int refuses a digit string past its length limit
        raise ValidationError(f"line {lineno}: non-integer {entry}") from None


def parse_subgroup(G: FiniteGroup, spec: str) -> Subgroup:
    """The subgroup of G listed by ``spec``, element indices separated by
    commas or blanks.  A comma-separated field with no token, between two
    commas or at either end, and a token that is not an integer token
    (``is_integer_token``) raise ValidationError; Subgroup refuses an index
    out of range."""
    fields = spec.split(",")
    empty = next((i for i, f in enumerate(fields) if not f.strip()), None) if len(fields) > 1 else None
    if empty is not None:
        raise ValidationError(f"subgroup element field {empty + 1} of {spec!r} is empty")
    tokens = spec.replace(",", " ").split()
    for tok in tokens:
        if not is_integer_token(tok):
            raise ValidationError(f"subgroup element {tok!r} is not an integer")
    return Subgroup(G, tuple(int(tok) for tok in tokens))
