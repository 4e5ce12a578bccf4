import collections
import functools
import itertools
import math
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gquot as gq
from gquot import cocycles, groups
from gquot.catalog import GROUP_SPECS
from gquot.cocycles import standard_nondegenerate
from gquot.errors import NormalityError, SizeBoundError, ValidationError
from gquot.groups import format_group_table, parse_group_table


def brute_force_subgroups(G):
    """Independent oracle: subsets containing the identity, of size dividing
    the order, closed under product and inverse."""
    found = []
    rest = [g for g in G.elements() if g != 0]
    for size in range(1, G.n + 1):
        if G.n % size:
            continue
        for extra in itertools.combinations(rest, size - 1):
            elems = (0,) + extra
            eset = set(elems)
            if all(G.mul(a, b) in eset for a in elems for b in elems) and all(
                G.inv(a) in eset for a in elems
            ):
                found.append(elems)
    return sorted(found)


def test_cyclic_one_is_trivial():
    G = gq.cyclic(1)
    assert G.n == 1 and G.mul(0, 0) == 0


def test_equality_by_table():
    a, b = gq.make_group("C2xC4"), gq.make_group("C2xC4")
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    other = gq.make_group("C8")
    assert other.n == a.n and other != a and a != other
    assert a != a.table and a != "C2xC4" and a != None  # noqa: E711
    assert gq.cyclic(2) != gq.cyclic(3)


def test_klein_group():
    G = gq.direct_product(gq.cyclic(2), gq.cyclic(2))
    assert G.n == 4
    assert sorted(G.order_census().items()) == [(1, 1), (2, 3)]


def test_quaternion_has_unique_involution():
    Q8 = gq.quaternion8()
    orders = [Q8.order_of(g) for g in Q8.elements()]
    assert orders.count(2) == 1
    assert sorted(Q8.order_census().items()) == [(1, 1), (2, 1), (4, 6)]


def test_dihedral_and_symmetric_structure():
    D4 = gq.dihedral(4)
    assert D4.n == 8 and not D4.is_abelian
    S3 = gq.symmetric(3)
    assert S3.n == 6
    assert gq.are_isomorphic(S3, gq.dihedral(3)).isomorphic
    with pytest.raises(SizeBoundError):
        gq.symmetric(5)


def reference_dihedral_table(n):
    """The element loop ``groups.dihedral`` replaced."""
    m = 2 * n
    table = np.empty((m, m), dtype=np.int64)
    for a in range(m):
        for b in range(m):
            ra, fa = a % n, a >= n
            rb, fb = b % n, b >= n
            if not fa:
                r, f = (ra + rb) % n, fb
            else:
                r, f = (ra - rb) % n, not fb
            table[a, b] = r + (n if f else 0)
    return table


@pytest.mark.parametrize("n", range(1, 12))
def test_dihedral_table_matches_reference(n):
    table = gq.dihedral(n).table
    assert table.dtype == np.int64 and np.array_equal(table, reference_dihedral_table(n))


def reference_quaternion8_table():
    """The (sign, axis) loop ``groups.quaternion8`` replaced."""
    mul_axis = {
        (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
        (1, 0): (1, 1), (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
        (2, 0): (1, 2), (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
        (3, 0): (1, 3), (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0),
    }
    table = np.empty((8, 8), dtype=np.int64)
    for a in range(8):
        for b in range(8):
            sa, xa = (1 if a < 4 else -1), a % 4
            sb, xb = (1 if b < 4 else -1), b % 4
            s, x = mul_axis[(xa, xb)]
            table[a, b] = x if sa * sb * s == 1 else x + 4
    return table


def test_quaternion8_table_matches_reference():
    table = gq.quaternion8().table
    assert table.dtype == np.int64 and np.array_equal(table, reference_quaternion8_table())


def reference_invariant_factor_sequences(n):
    """The recursion as it was, deduplicated and sorted afterwards."""
    if n == 1:
        return [()]
    out = []

    def rec(remaining, last, acc):
        if remaining == 1:
            out.append(tuple(acc))
            return
        d = max(last, 2)
        while d <= remaining:
            if (last == 1 or d % last == 0) and remaining % d == 0:
                rec(remaining // d, d, acc + [d])
            d += 1

    rec(n, 1, [])
    return sorted(set(out))


def test_invariant_factor_sequences_match_reference():
    for n in range(1, 400):
        assert groups.invariant_factor_sequences(n) == reference_invariant_factor_sequences(n), n


def test_bad_table_rejected_with_triple():
    table = [[0, 1, 2], [1, 2, 0], [2, 1, 0]]  # not associative / not a group
    with pytest.raises(ValidationError):
        gq.FiniteGroup(table)
    with pytest.raises(ValidationError, match="identity"):
        gq.FiniteGroup([[1, 0], [0, 1]])


def test_associativity_error_names_triple():
    # a loop of order 5: identity 0, every row and column a permutation, so
    # only associativity fails
    tab = np.array([[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]])
    with pytest.raises(ValidationError, match=r"^not associative: \(1\*1\)\*2 != 1\*\(1\*2\)$"):
        gq.FiniteGroup(tab)


def reference_table_error(table):
    """The first error of the all-triples validation, None for a group: range,
    identity, then every (a*b)*c against a*(b*c) in two (n, n, n) arrays,
    then inverses."""
    table = np.asarray(table, dtype=np.int64)
    n = len(table)
    if table.min() < 0 or table.max() >= n:
        return "table entries out of range"
    if not (np.array_equal(table[0], np.arange(n)) and np.array_equal(table[:, 0], np.arange(n))):
        return "element 0 is not a two-sided identity"
    left, right = table[table, :], table[:, table]
    if not np.array_equal(left, right):
        a, b, c = (int(x) for x in np.argwhere(left != right)[0])
        return f"not associative: ({a}*{b})*{c} != {a}*({b}*{c})"
    try:
        gq.FiniteGroup(table, _trusted=True)
    except ValidationError as exc:
        return str(exc)
    return None


def _table_variants(G, rng):
    """A relabeled copy of G's table, and copies with one entry moved, two
    entries of a row swapped, and two rows swapped off the identity column;
    plus the monoid x*y = x (x, y != e), associative without inverses, which
    its middle elements reach one at a time."""
    n = G.n
    perm = np.concatenate([[0], 1 + rng.permutation(n - 1)])
    relabeled = np.empty_like(G.table)
    relabeled[np.ix_(perm, perm)] = perm[G.table]
    out = [relabeled]
    if n > 3:
        x, y, z = (int(v) for v in 1 + rng.choice(n - 1, 3, replace=False))
        moved = relabeled.copy()
        moved[x, y] = (moved[x, y] + 1) % n
        swapped = relabeled.copy()
        swapped[x, [y, z]] = swapped[x, [z, y]]
        rows = relabeled.copy()
        rows[[x, y], 1:] = rows[[y, x], 1:]
        out += [moved, swapped, rows]
    monoid = np.repeat(np.arange(n)[:, None], n, axis=1)
    monoid[0] = np.arange(n)
    return out + [monoid]


def test_table_validation_gives_the_full_verdict():
    """Every table of ``_table_variants`` on every catalog group, and the
    order-64 carrier: the middle-element check accepts exactly the tables
    the all-triples check accepts, and rejects the others with its message."""
    tables = [(spec, gq.make_group(spec)) for spec in GROUP_SPECS]
    tables.append(("nd_C8xC8", standard_nondegenerate([8]).group))
    rejected = 0
    for spec, G in tables:
        for table in _table_variants(G, np.random.default_rng(G.n)):
            want = reference_table_error(table)
            try:
                gq.FiniteGroup(table)
                got = None
            except ValidationError as exc:
                got = str(exc)
            assert got == want, spec
            rejected += want is not None
    assert rejected > len(tables)


def test_table_validation_peak_memory_at_order_256():
    text = format_group_table(standard_nondegenerate([4, 4]).group)
    parse_group_table(text)  # first-use allocations of numpy stay out of the measurement
    tracemalloc.start()
    try:
        G = parse_group_table(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the all-triples check built two 256^3 int64 arrays, 128 MiB each
    assert G.n == 256 and peak < 8 * 2**20


def test_descriptor_past_the_order_bound_builds_nothing():
    """C4096 names a 4096^2 int64 table, 128 MiB; the descriptor's order is
    checked before anything is built."""
    gq.make_group("C4")  # first-use allocations stay out of the measurement
    tracemalloc.start()
    try:
        with pytest.raises(SizeBoundError, match="'C4096' names a group of order above 256"):
            gq.make_group("C4096")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("spec", ["C257", "D129", "S6", "C2xC2xC2xC2xC2xC2xC2xC2xC2", "Q8xD17", "C0xC300"])
def test_descriptors_past_the_order_bound_raise(spec):
    with pytest.raises(SizeBoundError, match="order above 256"):
        gq.make_group(spec)


@pytest.mark.parametrize("spec", ["C256", "D128", "Q8xD16", "C2xC2xC2xC2xC2xC2xC2xC2"])
def test_descriptors_at_the_order_bound_build(spec):
    assert gq.make_group(spec).n == groups.ORDER_BOUND == 256


def test_table_header_past_the_order_bound_raises_before_the_rows():
    """The header is checked before any row is read: the malformed row
    after it is never reached."""
    with pytest.raises(SizeBoundError, match="line 2: group order 257 above the bound 256"):
        parse_group_table("# 0 e\n257\nnot a row\n")
    assert parse_group_table(format_group_table(gq.cyclic(256))) == gq.cyclic(256)


def test_table_validation_stops_at_log2_n_middles_on_a_monoid(monkeypatch):
    """The monoid x*y = x (x, y != e) of order 256 would take 255 middle
    elements; a group needs at most floor(log2 256) = 8, so validation stops
    there and the inverse check names the element with no inverse."""
    n = 256
    monoid = np.repeat(np.arange(n)[:, None], n, axis=1)
    monoid[0] = np.arange(n)
    calls = []
    closure = groups._closure
    monkeypatch.setattr(groups, "_closure", lambda *args: calls.append(args) or closure(*args))
    with pytest.raises(ValidationError) as exc:
        gq.FiniteGroup(monoid)
    assert str(exc.value) == "element 1 has no two-sided inverse"
    assert len(calls) <= 8


def reference_inverse_table(table):
    """The per-row loop the inverse table was first built by."""
    inv = np.empty(len(table), dtype=np.int64)
    for g in range(len(table)):
        hits = np.flatnonzero(table[g] == 0)
        if len(hits) != 1 or table[hits[0], g] != 0:
            raise ValidationError(f"element {g} has no two-sided inverse")
        inv[g] = hits[0]
    return inv


@pytest.mark.parametrize("spec", GROUP_SPECS)
def test_inverse_table_matches_row_loop(spec):
    G = gq.make_group(spec)
    assert np.array_equal(gq.FiniteGroup(G.table).inverse_table, reference_inverse_table(G.table))


@pytest.mark.parametrize("spec", [s for s in GROUP_SPECS if gq.make_group(s).n <= 64] + ["C8xC8", "C2xC4xC2xC4"])
def test_copies_and_quotients_have_the_row_loop_inverses(spec):
    """Every subgroup copy and every quotient by a normal subgroup is built
    trusted, each inverse read at its row's least entry: they equal the row
    loop's on its own table."""
    G = gq.make_group(spec)
    for H in groups.subgroups(G):
        copy = H.as_group()
        assert np.array_equal(copy.inverse_table, reference_inverse_table(copy.table))
        if H.is_normal():
            Q, _ = groups.quotient(G, H)
            assert np.array_equal(Q.inverse_table, reference_inverse_table(Q.table))


@pytest.mark.parametrize(
    "table",
    [
        [[0, 1], [1, 1]],  # associative, but 1 has no inverse
        [[0, 1, 2], [1, 0, 0], [2, 1, 1]],  # row 1 has two zeros, row 2 none
        [[0, 1, 2], [1, 2, 0], [2, 2, 1]],  # 1*2 = 0 but 2*1 != 0
        [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 0], [3, 2, 1, 1]],  # 1 is fine; 2 has two zeros
        [[0, 1, 2], [1, 0, 0], [2, 0, 0]],  # every row's least entry is a 0 with a 0 back; 1 has two zeros
    ],
)
def test_missing_inverse_reported_like_row_loop(table):
    with pytest.raises(ValidationError) as expected:
        reference_inverse_table(np.array(table))
    # trusted: the table reaches the inverse check even where it is not associative
    with pytest.raises(ValidationError, match=re.escape(str(expected.value))):
        groups.FiniteGroup(table, _trusted=True)


@pytest.mark.parametrize(
    "spec", ["C1", "C4", "C6", "C12", "C2xC2", "C2xC4", "C3xC3", "D4", "S3", "Q8", "C2xC2xC2"]
)
def test_subgroups_match_brute_force(spec):
    G = gq.make_group(spec)
    fast = sorted(H.elements for H in gq.subgroups(G))
    assert fast == brute_force_subgroups(G)


@pytest.mark.parametrize("spec", ["C16", "C4xC4", "D8", "C2xC2xC2xC2"])
def test_subgroups_match_brute_force_order_16(spec):
    G = gq.make_group(spec)
    fast = sorted(H.elements for H in gq.subgroups(G))
    assert fast == brute_force_subgroups(G)


def reference_subgroups(G):
    """The layer-by-layer lattice that cyclic extension replaced: join each
    subgroup with every element it misses, closing under both-sided products
    with all its elements through ``G.mul``."""

    def closure(seed):
        out = set(seed) | {0}
        frontier = list(out)
        while frontier:
            x = frontier.pop()
            for g in list(out):
                for y in (G.mul(x, g), G.mul(g, x)):
                    if y not in out:
                        out.add(y)
                        frontier.append(y)
        return out

    seen = {(0,)}
    frontier = [(0,)]
    while frontier:
        nxt = []
        for elems in frontier:
            for g in G.elements():
                if g not in elems:
                    bigger = tuple(sorted(closure(set(elems) | {g})))
                    if bigger not in seen:
                        seen.add(bigger)
                        nxt.append(bigger)
        frontier = nxt
    return sorted(seen, key=lambda e: (len(e), e))


@pytest.mark.parametrize("spec", list(GROUP_SPECS) + ["C2xC2xC2xC2xC2", "C4xC8", "D16", "Q8xC4"])
def test_subgroups_match_reference(spec):
    G = gq.make_group(spec)
    assert [H.elements for H in gq.subgroups(G)] == reference_subgroups(G)


def _relabeled(G, perm):
    """G with element g renamed perm[g]; perm fixes the identity 0."""
    table = np.empty_like(G.table)
    table[np.ix_(perm, perm)] = perm[G.table]
    return gq.FiniteGroup(table)


@given(st.sampled_from(["C12", "C2xC2xC2", "C2xC6", "C3xC3", "D6", "Q8", "S4", "C4xC4"]), st.data())
@settings(max_examples=30, deadline=None)
def test_subgroups_invariant_under_relabeling(spec, data):
    G = gq.make_group(spec)
    perm = np.array([0] + data.draw(st.permutations(range(1, G.n))))
    H = _relabeled(G, perm)
    mapped = sorted(tuple(sorted(perm[list(K.elements)].tolist())) for K in gq.subgroups(G))
    assert mapped == sorted(K.elements for K in gq.subgroups(H))


def test_subgroups_memoized_per_instance(monkeypatch):
    builds = []
    build = groups._cyclic_extension
    monkeypatch.setattr(groups, "_cyclic_extension", lambda G: builds.append(G) or build(G))
    G = gq.make_group("C2xC4")
    first = gq.subgroups(G)
    first.pop()
    second = gq.subgroups(G)
    assert [H.elements for H in second] == reference_subgroups(G)
    assert len(gq.normal_subgroups(G)) == len(second) == 8
    assert builds == [G]
    gq.subgroups(gq.make_group("C2xC4"))  # a fresh instance builds its own lattice
    assert len(builds) == 2


# -- reference: cyclic extension without the one-join-per-coset rule ----------


def reference_cyclic_extension(G):
    """The cyclic extension the coset rule replaced: every new subgroup is
    joined with every distinct cyclic subgroup it does not contain, each join
    through ``groups._closure``."""
    cyclic_gens = {}
    for g in G.elements():
        cyclic_gens.setdefault(frozenset(groups._closure(G, (g,))), g)
    lattice = {frozenset((0,)): ()}
    layer = [frozenset((0,))]
    while layer:
        nxt = []
        for H in layer:
            base = sorted(H)
            for c in cyclic_gens.values():
                if c not in H:
                    gens = lattice[H] + (c,)
                    K = frozenset(groups._closure(G, gens, base))
                    if K not in lattice:
                        lattice[K] = gens
                        nxt.append(K)
        layer = nxt
    return sorted((gq.Subgroup(G, tuple(K)) for K in lattice), key=lambda s: (s.order, s.elements))


def alternating5():
    """A5, a perfect group of order 60, from the 60 even permutations of five points."""
    even = [p for p in itertools.permutations(range(5)) if sum(a > b for a, b in itertools.combinations(p, 2)) % 2 == 0]
    return groups.permutation_group(even, "A5")[0]


@pytest.mark.parametrize("name", list(GROUP_SPECS) + ["C8xC8", "C2xC4xC2xC4", "S4xC2", "Q8xC4", "D16", "A5"])
def test_cyclic_extension_matches_reference(name):
    """One join per coset cH finds the reference's subgroups, element for element."""
    G = alternating5() if name == "A5" else gq.make_group(name)
    got = [H.elements for H in groups._cyclic_extension(G)]
    assert got == [H.elements for H in reference_cyclic_extension(G)]
    if name == "A5":  # no subgroup of order 15, 20 or 30
        census = {m: sum(len(H) == m for H in got) for m in {len(H) for H in got}}
        assert census == {1: 1, 2: 15, 3: 10, 4: 5, 5: 6, 6: 10, 10: 6, 12: 5, 60: 1}


def test_cyclic_extension_counts_the_subgroups_of_c2_6():
    """C2^6 has 2,825 subgroups, the Gaussian binomials [6, k]_2 by order 2^k."""
    G = gq.make_group("C2xC2xC2xC2xC2xC2")
    orders = [H.order for H in gq.subgroups(G)]
    assert len(orders) == 2825
    assert [orders.count(2**k) for k in range(7)] == [1, 63, 651, 1395, 651, 63, 1]


def test_cyclic_extension_joins_once_per_coset(monkeypatch):
    """On C2xC4xC2xC4 the coset rule makes 2,116 joins, against the
    reference's 8,061, which join every (H, cyclic subgroup) pair."""
    G = gq.make_group("C2xC4xC2xC4")
    calls = []
    closure = groups._closure
    monkeypatch.setattr(groups, "_closure", lambda *args: calls.append(args) or closure(*args))
    groups._cyclic_extension(G)
    joins = len(calls) - G.n  # the first G.n calls list the cyclic subgroups
    calls.clear()
    reference_cyclic_extension(G)
    reference_joins = len(calls) - G.n
    assert (joins, reference_joins) == (2116, 8061)


def test_normal_subgroups_examples():
    C4 = gq.cyclic(4)
    assert [N.order for N in gq.normal_subgroups(C4)] == [1, 2, 4]
    klein = gq.make_group("C2xC2")
    assert len(gq.normal_subgroups(klein)) == 5
    assert [N.order for N in gq.normal_subgroups(gq.trivial_group())] == [1]
    S3 = gq.symmetric(3)
    assert [N.order for N in gq.normal_subgroups(S3)] == [1, 3, 6]
    assert len(gq.normal_subgroups(gq.cyclic(64))) == 7
    C65 = gq.cyclic(65)
    with pytest.raises(SizeBoundError, match="bounded at order 64, group has 65"):
        gq.normal_subgroups(C65)
    with pytest.raises(SizeBoundError, match="isomorphism search bounded at order 64"):
        gq.are_isomorphic(C65, C65)


def test_quotient_examples():
    C4 = gq.cyclic(4)
    N = gq.generated_subgroup(C4, [2])
    Q, proj = gq.quotient(C4, N)
    assert Q.n == 2 and proj.kernel().elements == N.elements
    whole = gq.Subgroup(C4, tuple(range(4)))
    assert gq.quotient(C4, whole)[0].n == 1
    Q8 = gq.quaternion8()
    Qq, _ = gq.quotient(Q8, gq.center(Q8))
    assert gq.are_isomorphic(Qq, gq.make_group("C2xC2")).isomorphic


def test_quotient_requires_normal():
    S3 = gq.symmetric(3)
    H = next(h for h in gq.subgroups(S3) if h.order == 2)
    from gquot.errors import NormalityError

    with pytest.raises(NormalityError):
        gq.quotient(S3, H)


class CosetAction:
    """The permutation action of a group on the left cosets of a subgroup.

    ``perms[g]`` is the permutation of coset indices induced by g; the hom
    into the symmetric group is realized onto its image, the group of the
    distinct permutations.
    """

    def __init__(self, G, H):
        cs = gq.coset_space(G, H)
        self.group = G
        self.subgroup = H
        self.cosets = cs
        self.perms = np.asarray(cs.block_of)[G.table[:, list(cs.representatives)]]
        self.image_group, image = groups.permutation_group(self.perms, name="image")
        self.hom = gq.GroupHom(G, self.image_group, image)

    def kernel(self):
        return self.hom.kernel()

    def is_transitive(self):
        return len(set(self.perms[:, 0].tolist())) == len(self.cosets)

    def is_faithful(self):
        return self.kernel().order == 1


def test_coset_action_trivial_and_regular():
    G = gq.symmetric(3)
    whole = gq.Subgroup(G, tuple(range(6)))
    act = CosetAction(G, whole)
    assert act.image_group.n == 1 and len(act.cosets) == 1
    act2 = CosetAction(G, gq.Subgroup(G, (0,)))
    assert act2.is_faithful() and act2.is_transitive() and act2.image_group.n == 6


def test_coset_action_s3_on_three_points():
    G = gq.symmetric(3)
    H = next(h for h in gq.subgroups(G) if h.order == 2)
    act = CosetAction(G, H)
    assert len(act.cosets) == 3
    assert act.is_transitive()
    assert act.image_group.n == 6


def test_coset_action_kernel_is_largest_normal_inside():
    for spec in ["S3", "D4", "Q8", "C2xC4"]:
        G = gq.make_group(spec)
        normals = gq.normal_subgroups(G)
        for H in gq.subgroups(G):
            act = CosetAction(G, H)
            ker = set(act.kernel().elements)
            assert ker <= set(H.elements)
            inside = [set(N.elements) for N in normals if set(N.elements) <= set(H.elements)]
            assert ker == max(inside, key=len)
            if H.is_normal():
                assert ker == set(H.elements)


# -- reference code: the element loops that table indexing replaced ---------


def reference_closure_error(G, elems):
    """The element-by-element closure check: its message, or None."""
    eset = set(elems)
    if 0 not in eset:
        return "subgroup does not contain the identity"
    for a in sorted(eset):
        if G.inv(a) not in eset:
            return f"subgroup not closed under inversion at {a}"
        for b in sorted(eset):
            if G.mul(a, b) not in eset:
                return f"subgroup not closed under product {a}*{b}"
    return None


def reference_violating_conjugation(H):
    G = H.group
    eset = set(H.elements)
    for g in G.elements():
        for h in H.elements:
            if G.mul(G.mul(g, h), G.inv(g)) not in eset:
                return g, h
    return None


def reference_as_group(H):
    """(table, labels) of H as a standalone group, element i at H.elements[i]."""
    elems = list(H.elements)
    pos = {g: i for i, g in enumerate(elems)}
    table = [[pos[H.group.mul(a, b)] for b in elems] for a in elems]
    return table, [H.group.label(g) for g in elems]


def reference_coset_space(G, H):
    """(blocks, representatives, block_of), first-seen coset order."""
    block_of = [-1] * G.n
    blocks, reps = [], []
    for g in G.elements():
        if block_of[g] >= 0:
            continue
        block = tuple(sorted(G.mul(g, h) for h in H.elements))
        for x in block:
            block_of[x] = len(blocks)
        blocks.append(block)
        reps.append(block[0])
    return tuple(blocks), tuple(reps), tuple(block_of)


def reference_quotient(G, N):
    """(table, labels, projection images) of G/N."""
    _, reps, block_of = reference_coset_space(G, N)
    table = [[block_of[G.mul(a, b)] for b in reps] for a in reps]
    return table, [G.label(r) + "N" for r in reps], block_of


def reference_coset_permutations(G, H):
    _, reps, block_of = reference_coset_space(G, H)
    return [tuple(block_of[G.mul(g, r)] for r in reps) for g in G.elements()]


def reference_coset_image(perms):
    """The CosetAction image builder: distinct permutations in first-seen
    order, sorted identity first, composed pairwise; (table, labels, images)."""
    order = list(dict.fromkeys(perms))
    ident = tuple(range(len(perms[0])))
    order.sort(key=lambda p: (p != ident, p))
    pos = {p: i for i, p in enumerate(order)}
    table = [[pos[tuple(p[x] for x in q)] for q in order] for p in order]
    return table, ["".join(map(str, p)) for p in order], [pos[p] for p in perms]


def reference_automorphism_builder(autos):
    """The automorphism_group builder: (table, ordered permutations)."""
    ident = tuple(range(len(autos[0])))
    ordered = sorted(autos, key=lambda p: (p != ident, p))
    pos = {p: i for i, p in enumerate(ordered)}
    table = [[pos[tuple(p[x] for x in q)] for q in ordered] for p in ordered]
    return table, ordered


def reference_center(G):
    return tuple(g for g in G.elements() if all(G.mul(g, h) == G.mul(h, g) for h in G.elements()))


def _closure_message(G, elems):
    try:
        gq.Subgroup(G, tuple(elems))
    except ValidationError as exc:
        return str(exc)
    return None


def _corruptions(G, H):
    """Subsets near H: without its largest element, with the smallest element
    it misses, both at once, and without the identity."""
    elems = set(H.elements)
    outside = [g for g in G.elements() if g not in elems]
    out = [elems - {0}]
    if H.order > 1:
        out.append(elems - {max(elems)})
    if outside:
        out.append(elems | {outside[0]})
        if H.order > 1:
            out.append((elems - {max(elems)}) | {outside[0]})
    return out


_TABLE_GROUPS = {spec: (lambda spec=spec: gq.make_group(spec)) for spec in GROUP_SPECS}
_TABLE_GROUPS.update({spec: (lambda spec=spec: gq.make_group(spec)) for spec in ["S4xC2", "D8xC2", "Q8xC2", "D4xD4"]})
_TABLE_GROUPS["nd_C8xC8"] = lambda: standard_nondegenerate([8]).group


@pytest.mark.parametrize("name", list(_TABLE_GROUPS))
def test_table_routines_match_reference(name):
    G = _TABLE_GROUPS[name]()
    assert gq.center(G).elements == reference_center(G)
    for H in gq.subgroups(G):
        for elems in _corruptions(G, H):
            assert _closure_message(G, elems) == reference_closure_error(G, elems)
        bad = reference_violating_conjugation(H)
        assert H.violating_conjugation() == bad
        assert H.is_normal() == (bad is None)
        sub = H.as_group()
        assert (sub.table.tolist(), sub.labels) == reference_as_group(H)
        cs = gq.coset_space(G, H)
        assert (cs.blocks, cs.representatives, cs.block_of) == reference_coset_space(G, H)
        if bad is None:
            Q, proj = gq.quotient(G, H)
            assert (Q.table.tolist(), Q.labels, proj.images) == reference_quotient(G, H)
        else:
            with pytest.raises(NormalityError, match=rf"^N is not normal: conjugating {bad[1]} by {bad[0]} leaves N$"):
                gq.quotient(G, H)
        act = CosetAction(G, H)
        perms = reference_coset_permutations(G, H)
        assert [tuple(p) for p in act.perms.tolist()] == perms
        image = act.image_group
        assert (image.table.tolist(), image.labels, list(act.hom.images)) == reference_coset_image(perms)
    # one ``quotients`` call per order, normal and other subgroups mixed, gives what each N gets alone
    orders = {}
    for H in gq.subgroups(G):
        orders.setdefault(H.order, []).append(H)
    for same in orders.values():
        for H, got in zip(same, groups.quotients(G, same)):
            assert quotient_outcome(got) == quotient_outcome(lone_quotient(G, H))


def lone_quotient(G, H):
    try:
        return gq.quotient(G, H)
    except NormalityError as exc:
        return exc


def quotient_outcome(outcome):
    """(table, labels, name, projection images) of a quotient, or its error's message."""
    if isinstance(outcome, NormalityError):
        return str(outcome)
    Q, proj = outcome
    return Q.table.tobytes(), Q.labels, Q.name, proj.images


@pytest.mark.parametrize("spec", ["C1", "C2", "C4", "C6", "C2xC2", "C2xC4", "C3xC3", "C2xC2xC2", "C2xC2xC4"])
def test_permutation_group_matches_automorphism_builder(spec):
    A = gq.make_group(spec)
    autos = [h.images for h in gq.homomorphisms(A, A, injective=True)]
    table, ordered = reference_automorphism_builder(autos)
    group, image = groups.permutation_group(autos)
    assert [ordered[i] for i in image] == autos
    assert group.table.tolist() == table
    # the coset-action builder gives the same table on the same permutations
    assert reference_coset_image(autos)[0] == table


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_symmetric_matches_permutation_loop(n):
    perms = sorted(itertools.permutations(range(n)))
    pos = {p: i for i, p in enumerate(perms)}
    G = gq.symmetric(n)
    assert G.table.tolist() == [[pos[tuple(p[q[x]] for x in range(n))] for q in perms] for p in perms]
    assert G.labels == ["".join(str(x) for x in p) for p in perms]


@given(st.sampled_from(["C2", "C4", "C2xC2", "S3", "D4", "Q8", "C2xC4"]), st.data())
@settings(max_examples=60, deadline=None)
def test_closure_check_matches_loop_on_random_subsets(spec, data):
    G = gq.make_group(spec)
    elems = data.draw(st.sets(st.integers(0, G.n - 1), min_size=1))
    assert _closure_message(G, elems) == reference_closure_error(G, elems)


@given(st.sampled_from(["C12", "C2xC6", "D6", "Q8", "S4", "C4xC4", "D4xC2", "Q8xC2"]), st.data())
@settings(max_examples=30, deadline=None)
def test_normal_subgroups_and_quotients_invariant_under_relabeling(spec, data):
    G = gq.make_group(spec)
    perm = np.array([0] + data.draw(st.permutations(range(1, G.n))))
    H = _relabeled(G, perm)

    def quotient_profile(K):
        return sorted(
            (len(N), sorted(gq.quotient(K, N)[0].order_census().items())) for N in gq.normal_subgroups(K)
        )

    assert quotient_profile(G) == quotient_profile(H)


@pytest.mark.parametrize("elems, bad", [((0, 9), 9), ((0, -2), -2), ((-1, 0, 1, 2, 3, 4), -1), ((0, 4), 4)])
def test_subgroup_rejects_indices_outside_the_group(elems, bad):
    with pytest.raises(ValidationError, match=rf"^subgroup element {bad} outside the group of order 4$"):
        gq.Subgroup(gq.cyclic(4), elems)


@pytest.mark.parametrize("gens, bad", [([9], 9), ([-1], -1), ([2, 9], 9), ([-3, 2], -3)])
def test_generated_subgroup_rejects_indices_outside_the_group(gens, bad):
    with pytest.raises(ValidationError, match=rf"^subgroup element {bad} outside the group of order 4$"):
        gq.generated_subgroup(gq.cyclic(4), gens)


@pytest.mark.parametrize("spec", [spec for spec in GROUP_SPECS if gq.make_group(spec).n <= 24])
def test_generated_subgroup_equals_the_checked_subgroup(spec, monkeypatch):
    """Every one- and two-element generator set of the catalog groups up to
    order 24: the closure, built without the closure check, is the subgroup
    the checked constructor accepts on the same elements."""
    G = gq.make_group(spec)
    gen_sets = [(g,) for g in range(G.n)] + list(itertools.combinations(range(G.n), 2))
    checks = []
    check = groups.Subgroup.__post_init__
    monkeypatch.setattr(groups.Subgroup, "__post_init__", lambda self: checks.append(self))
    built = [gq.generated_subgroup(G, gens) for gens in gen_sets]
    assert not checks
    monkeypatch.setattr(groups.Subgroup, "__post_init__", check)
    for gens, H in zip(gen_sets, built):
        checked = gq.Subgroup(G, tuple(groups._closure(G, gens)))
        assert H == checked and H.elements == checked.elements and set(gens) <= set(H.elements)
        assert all(type(x) is int for x in H.elements) and H.as_group() == checked.as_group()


def reference_abelian_split(G):
    """The lattice-scan decomposition (invariants, generators): a maximal-order
    element generates a direct factor, a complement is found by scanning
    ``subgroups(G)``, and recursion handles the rest."""
    if G.n == 1:
        return [], []
    orders = G.element_orders()
    g = max(G.elements(), key=lambda x: (orders[x], -x))
    m = orders[g]
    cyc = set(gq.generated_subgroup(G, [g]).elements)
    complement = next(K for K in gq.subgroups(G) if K.order == G.n // m and len(set(K.elements) & cyc) == 1)
    H, embed = complement.as_group(), complement.elements
    rest_invs, rest_gens = reference_abelian_split(H)
    return rest_invs + [m], [embed[x] for x in rest_gens] + [g]


_BEYOND_THE_LATTICE_BOUND = {
    "C128": (128,),
    "C2xC64": (2, 64),
    "C2xC8xC8": (2, 8, 8),
    "C2xC2xC2xC2xC2xC2xC2": (2,) * 7,
}


@pytest.mark.parametrize("spec", list(_BEYOND_THE_LATTICE_BOUND))
def test_abelian_invariants_beyond_the_lattice_bound(spec):
    assert gq.abelian_invariants(gq.make_group(spec)) == _BEYOND_THE_LATTICE_BOUND[spec]


_ABELIAN_LADDER = [
    "C32", "C2xC16", "C4xC8", "C2xC2xC8", "C2xC4xC4", "C2xC2xC2xC4", "C2xC2xC2xC2xC2",
    "C64", "C2xC32", "C4xC16", "C8xC8", "C2xC2xC16", "C2xC4xC8", "C4xC4xC4", "C2xC2xC2xC8",
    "C2xC2xC4xC4", "C2xC2xC2xC2xC4", "C2xC2xC2xC2xC2xC2", "C3xC9", "C2xC3xC6", "C6xC10", "C3xC3xC3",
]


@pytest.mark.parametrize("spec", list(GROUP_SPECS) + _ABELIAN_LADDER)
def test_abelian_invariants_match_lattice_scan(spec):
    G = gq.make_group(spec)
    expected = tuple(reference_abelian_split(G)[0]) if G.is_abelian else None
    assert gq.abelian_invariants(G) == expected


@pytest.mark.parametrize("spec", [s for s in GROUP_SPECS if gq.make_group(s).is_abelian] + ["C2xC8xC8"])
@given(data=st.data())
@settings(max_examples=5, deadline=None)
def test_abelian_invariants_invariant_under_relabeling(spec, data):
    G = gq.make_group(spec)
    perm = np.array([0] + data.draw(st.permutations(range(1, G.n))))
    assert gq.abelian_invariants(_relabeled(G, perm)) == gq.abelian_invariants(G)


def test_abelian_invariants():
    assert gq.abelian_invariants(gq.cyclic(6)) == (6,)
    invariants = gq.abelian_invariants(gq.make_group("C2xC4"))
    assert invariants == (2, 4)
    G = gq.make_group("C2xC4")
    # generators of the factors come from the lattice-scan reference, which
    # must agree on the invariants
    ref_invariants, generators = reference_abelian_split(G)
    assert tuple(ref_invariants) == invariants
    for inv, g in zip(invariants, generators):
        assert G.order_of(g) == inv
    span = gq.generated_subgroup(G, generators)
    assert span.order == G.n
    assert gq.abelian_invariants(gq.symmetric(3)) is None
    assert gq.abelian_invariants(gq.make_group("C6xC6")) == (6, 6)
    assert gq.abelian_invariants(gq.make_group("C2xC32")) == (2, 32)


def test_homocyclic_squarefree():
    assert gq.is_homocyclic_squarefree(gq.make_group("C2xC2"))
    assert gq.is_homocyclic_squarefree(gq.make_group("C6xC6"))
    assert not gq.is_homocyclic_squarefree(gq.make_group("C4xC4"))
    assert not gq.is_homocyclic_squarefree(gq.make_group("C2xC4"))


def test_squarefree():
    assert [n for n in range(-2, 13) if gq.groups.squarefree(n)] == [1, 2, 3, 5, 6, 7, 10, 11]
    assert gq.groups.squarefree(2 * 3 * 5 * 7 * 11 * 13) and not gq.groups.squarefree(2 * 3 * 49)


def test_are_isomorphic_examples():
    r = gq.are_isomorphic(gq.cyclic(4), gq.make_group("C2xC2"))
    assert not r.isomorphic and "census" in r.reason
    r2 = gq.are_isomorphic(gq.cyclic(6), gq.make_group("C2xC3"))
    assert r2.isomorphic
    images = r2.hom.images
    assert sorted(images) == list(range(6))
    G = gq.make_group("C4xC4")
    Q1, _ = gq.quotient(G, gq.generated_subgroup(G, [4]))
    Q2, _ = gq.quotient(G, gq.generated_subgroup(G, [8, 2]))
    assert not gq.are_isomorphic(Q1, Q2).isomorphic


@pytest.mark.parametrize("spec", list(GROUP_SPECS) + ["S4xC2xC2", "D8xC4xC2", "C16xC16"])
def test_word_lengths_are_cayley_distances(spec):
    """The depths of ``cayley_tree`` start at 0 on the identity, grow by at
    most 1 along each generator, and every element of depth l > 0 is reached
    from one of depth l - 1: exactly the distances from e in the Cayley
    graph.  Each tree edge is a generator step one layer down."""
    G = gq.make_group(spec)
    gens = groups.generating_sequence(G)
    tree = groups.cayley_tree(G)
    lengths = tree.depth
    assert tree.generators == tuple(gens) and tree.height == lengths.max()
    assert lengths[0] == 0 and (lengths[1:] > 0).all()
    products = G.table[:, gens]  # products[h, i] = h * gens[i]
    assert (lengths[products] <= lengths[:, None] + 1).all()
    reached = np.zeros(G.n, dtype=bool)
    reached[products[lengths[products] == lengths[:, None] + 1]] = True
    assert reached[1:].all()
    assert tree.parent[0] == tree.edge[0] == -1
    g = np.arange(1, G.n)
    assert np.isin(tree.edge[g], gens).all()
    assert (G.table[tree.parent[g], tree.edge[g]] == g).all()
    assert (lengths[tree.parent[g]] == lengths[g] - 1).all()


@pytest.mark.parametrize("spec", ["C1", "C6", "S4", "C2xC2xC2xC2"])
def test_cayley_tree_is_built_once_per_group(spec):
    """The tree is kept on its group: every call returns the same object,
    whose arrays are read-only since callers share them, and
    ``generating_sequence`` is a fresh list of its generators, each the
    smallest element outside the subgroup the ones before generate."""
    G = gq.make_group(spec)
    tree = groups.cayley_tree(G)
    assert groups.cayley_tree(G) is tree
    assert not any(a.flags.writeable for a in (tree.parent, tree.edge, tree.depth))
    groups.generating_sequence(G).append(0)
    assert groups.generating_sequence(G) == list(tree.generators)
    span = {0}
    for i, s in enumerate(tree.generators):
        assert s == min(set(G.elements()) - span)
        span = set(gq.generated_subgroup(G, tree.generators[: i + 1]).elements)
    assert len(span) == G.n


def reference_isomorphism(G1, G2):
    """The generator-image backtrack that ``homomorphisms`` replaced in
    ``are_isomorphic``: the images of an isomorphism G1 -> G2, or None."""
    if G1.n != G2.n or G1.order_census() != G2.order_census() or G1.is_abelian != G2.is_abelian:
        return None
    gens = groups.generating_sequence(G1)
    orders1 = G1.element_orders()
    orders2 = G2.element_orders()
    candidates = [[h for h in G2.elements() if orders2[h] == orders1[g]] for g in gens]

    def is_full_isomorphism(mapping):
        if len(mapping) != G1.n or len(set(mapping.values())) != G1.n:
            return False
        return all(
            mapping[G1.mul(a, b)] == G2.mul(mapping[a], mapping[b])
            for a in G1.elements()
            for b in G1.elements()
        )

    def backtrack(level, pairs):
        if level == len(gens):
            mapping = groups.extend_hom(G1, G2, pairs)
            if mapping is None or not is_full_isomorphism(mapping):
                return None
            return mapping
        for h in candidates[level]:
            trial = pairs + [(gens[level], h)]
            if groups.extend_hom(G1, G2, trial) is None:
                continue
            found = backtrack(level + 1, trial)
            if found is not None:
                return found
        return None

    mapping = backtrack(0, [])
    return None if mapping is None else tuple(mapping[g] for g in G1.elements())


_ORDER = {s: gq.make_group(s).n for s in GROUP_SPECS}


@pytest.mark.parametrize(
    "spec1, spec2",
    [(s1, s2) for s1 in GROUP_SPECS for s2 in GROUP_SPECS if _ORDER[s1] == _ORDER[s2]]
    + [("C2xC4xC4", "C4xC4xC2"), ("C2xC4xC4", "C2xC2xC8")],
)
def test_are_isomorphic_matches_reference(spec1, spec2):
    G1, G2 = gq.make_group(spec1), gq.make_group(spec2)
    r = gq.are_isomorphic(G1, G2)
    assert (r.hom.images if r.isomorphic else None) == reference_isomorphism(G1, G2)


def reference_extend_hom(G1, G2, pairs):
    """The two-sided closure ``extend_hom`` replaced: each partial map is
    closed under both x a and a x; None on conflict."""
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
            for u, v in ((G1.mul(x, a), G2.mul(mapping[x], b)), (G1.mul(a, x), G2.mul(b, mapping[x]))):
                if u in mapping:
                    if mapping[u] != v:
                        return None
                else:
                    mapping[u] = v
                    frontier.append(u)
    return mapping


_UP_TO_8 = [s for s in GROUP_SPECS if _ORDER[s] <= 8]


@pytest.mark.parametrize("spec", _UP_TO_8)
def test_one_sided_closure_matches_the_two_sided_one(monkeypatch, spec):
    """Every closure the search asks for, from ``spec`` into each catalog group
    up to order 8, equals the two-sided one, and so do the homomorphism lists."""
    one_sided = groups.extend_hom
    calls = []

    def compared(G1, G2, pairs):
        got = one_sided(G1, G2, pairs)
        assert got == reference_extend_hom(G1, G2, pairs)
        calls.append(pairs)
        return got

    G = gq.make_group(spec)
    for T in map(gq.make_group, _UP_TO_8):
        for injective in (False, True):
            with monkeypatch.context() as m:
                m.setattr(groups, "extend_hom", reference_extend_hom)
                want = [h.images for h in gq.homomorphisms(G, T, injective=injective)]
            with monkeypatch.context() as m:
                m.setattr(groups, "extend_hom", compared)
                assert [h.images for h in gq.homomorphisms(G, T, injective=injective)] == want
    assert calls or G.n == 1


def test_homomorphisms_examples():
    S3, C2 = gq.symmetric(3), gq.cyclic(2)
    assert len(list(gq.homomorphisms(S3, S3, injective=True))) == 6
    assert len(list(gq.homomorphisms(S3, C2))) == 2
    assert len(list(gq.homomorphisms(C2, S3))) == 4
    assert len(list(gq.homomorphisms(gq.cyclic(4), gq.make_group("C2xC2")))) == 4
    assert not list(gq.homomorphisms(gq.cyclic(4), gq.make_group("C2xC2"), injective=True))
    trivial = list(gq.homomorphisms(gq.trivial_group(), S3))
    assert [h.images for h in trivial] == [(0,)]
    assert all(isinstance(h, gq.GroupHom) for h in gq.homomorphisms(gq.quaternion8(), C2))


@given(
    st.sampled_from(["C4", "C6", "C2xC2", "S3", "D4", "Q8", "C2xC4"]),
    st.sampled_from(["C2", "C4", "C2xC2", "S3", "D4", "Q8", "C2xC4"]),
    st.data(),
)
@settings(max_examples=25, deadline=None)
def test_hom_count_invariant_under_relabeling(source, target, data):
    G, T = gq.make_group(source), gq.make_group(target)
    pG = np.array([0] + data.draw(st.permutations(range(1, G.n))))
    pT = np.array([0] + data.draw(st.permutations(range(1, T.n))))
    G2, T2 = _relabeled(G, pG), _relabeled(T, pT)
    for injective in (False, True):
        count = sum(1 for _ in gq.homomorphisms(G, T, injective=injective))
        assert count == sum(1 for _ in gq.homomorphisms(G2, T2, injective=injective))


def test_group_hom_rejects_images_outside_target():
    C2 = gq.cyclic(2)
    with pytest.raises(ValidationError, match="outside the target"):
        gq.GroupHom(C2, C2, (0, 2))
    with pytest.raises(ValidationError, match="outside the target"):
        gq.GroupHom(C2, C2, (0, -1))


def reference_first_bad_pair(G, T, images):
    """The pair-by-pair multiplicativity loop that the vectorized check in
    ``GroupHom`` replaced: the first (a, b) in row-major order, or None."""
    for a in G.elements():
        for b in G.elements():
            if images[G.mul(a, b)] != T.mul(images[a], images[b]):
                return a, b
    return None


@given(
    st.sampled_from(["C2", "C4", "C2xC2", "S3", "Q8"]),
    st.sampled_from(["C2", "C4", "C2xC2", "S3"]),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_group_hom_check_matches_loop(source, target, data):
    G, T = gq.make_group(source), gq.make_group(target)
    rest = data.draw(st.lists(st.integers(0, T.n - 1), min_size=G.n - 1, max_size=G.n - 1))
    images = (0,) + tuple(rest)
    bad = reference_first_bad_pair(G, T, images)
    if bad is None:
        assert gq.GroupHom(G, T, images).images == images
    else:
        with pytest.raises(ValidationError, match=rf"not multiplicative at \({bad[0]},{bad[1]}\)$"):
            gq.GroupHom(G, T, images)


def test_inverse_is_involution():
    for spec in ["C6", "S4", "Q8", "D5"]:
        G = gq.make_group(spec)
        for g in G.elements():
            assert G.inv(G.inv(g)) == g
            assert G.mul(g, G.inv(g)) == 0


# -- products of sequences against the fold of mul ------------------------------

_catalog_group = functools.cache(gq.make_group)


@pytest.mark.parametrize("spec", GROUP_SPECS)
def test_mul_and_inv_read_the_tables(spec):
    G = _catalog_group(spec)
    for a in G.elements():
        assert type(G.inv(a)) is int and G.inv(a) == int(G.inverse_table[a])
        for b in G.elements():
            assert type(G.mul(a, b)) is int and G.mul(a, b) == int(G.table[a, b])


@pytest.mark.parametrize("spec", GROUP_SPECS)
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_prod_matches_the_mul_fold(spec, data):
    G = _catalog_group(spec)
    seq = data.draw(st.lists(st.integers(0, G.n - 1), max_size=30))
    got = G.prod(iter(seq))
    assert type(got) is int and got == functools.reduce(G.mul, seq, 0)


@pytest.mark.parametrize("spec", ["S3", "D4", "Q8"])
def test_prod_keeps_the_order_in_non_abelian_groups(spec):
    G = _catalog_group(spec)
    a, b = next((a, b) for a in G.elements() for b in G.elements() if G.mul(a, b) != G.mul(b, a))
    assert G.prod([a, b]) == G.mul(a, b) != G.prod([b, a])
    assert G.prod([]) == G.identity() == 0


def test_prod_and_mul_refuse_indices_outside_the_table():
    G = gq.cyclic(4)
    for call in (lambda: G.prod([1, 4]), lambda: G.mul(4, 0), lambda: G.mul(0, 4), lambda: G.inv(4)):
        with pytest.raises(IndexError):
            call()


# -- row lists against the numpy tables ------------------------------------------


def reference_order(G, a):
    """The order of a by repeated numpy indexing of the table."""
    x, k = a, 1
    while x != 0:
        x = int(G.table[x, a])
        k += 1
    return k


def reference_closure(G, seed, base=(0,)):
    """The closure the row lists replaced: the same coset walk, reading
    ``G.table[:, gens]`` and ``G.table[base, y]`` through numpy."""
    gens = sorted({int(g) for g in seed} - {0})
    rows = G.table[:, gens].tolist()
    base = list(base)
    closure, reps = set(base), [0]
    for x in reps:
        for y in rows[x]:
            if y not in closure:
                closure.update(G.table[base, y].tolist())
                reps.append(y)
    return closure


@pytest.mark.parametrize("spec", GROUP_SPECS)
def test_row_lists_match_the_tables(spec):
    """The row lists are the table, built once per table core; mul, prod and
    order_of read them and agree with numpy indexing of the table, as Python
    ints."""
    G = gq.make_group(spec)
    core = groups._TableCore(G.table, hash(G))  # a core no group holds yet
    assert "rows" not in vars(core)  # nothing builds them before the first scalar walk
    assert core.rows == G.table.tolist() and core.rows is core.rows
    assert G.rows == G.table.tolist() and G.rows is G.rows is G.core.rows
    for a in G.elements():
        assert type(G.order_of(a)) is int and G.order_of(a) == reference_order(G, a)
        for b in G.elements():
            assert G.mul(a, b) == int(G.table[a, b])
    seq = [int(x) for x in np.random.default_rng(G.n).integers(0, G.n, 3 * G.n)]
    want = 0
    for a in seq:
        want = int(G.table[want, a])
    assert G.prod(seq) == want


@pytest.mark.parametrize("spec", list(GROUP_SPECS) + ["C8xC8", "C2xC4xC2xC4", "D32"])
def test_element_orders_are_walked_once_per_core(spec):
    """The element orders are the walk's, kept read-only on the table core:
    every group with the table reads the same tuple, and a core builds it on
    the first call only."""
    G = gq.make_group(spec)
    core = groups._TableCore(G.table, hash(G))  # a core no group holds yet
    assert "element_orders" not in vars(core)
    assert core.element_orders == tuple(reference_order(G, a) for a in G.elements())
    assert core.element_orders is core.element_orders
    orders = G.element_orders()
    assert type(orders) is tuple and all(type(k) is int for k in orders)
    assert orders == core.element_orders and orders is G.element_orders() is G.core.element_orders
    twin = gq.FiniteGroup(G.table.copy(), name="twin")
    assert twin.element_orders() is orders
    assert G.order_census() == collections.Counter(orders)
    assert cocycles.group_exponent(G) == math.lcm(*orders)


@pytest.mark.parametrize("spec", [s for s in GROUP_SPECS if gq.make_group(s).n <= 16] + ["C2xC4xC2xC4"])
def test_closure_on_row_lists_matches_the_numpy_walk(spec):
    """On every subgroup H as base and every element as a new generator, the
    row-list closure is the numpy walk's."""
    G = gq.make_group(spec)
    lattice = gq.subgroups(G)
    if G.n > 16:
        lattice = lattice[:: max(1, len(lattice) // 12)]
    for H in lattice:
        gens = list(H.elements[1:2])
        for c in G.elements():
            assert groups._closure(G, gens + [c], H.elements) == reference_closure(G, gens + [c], H.elements)


def test_equality_and_hash_keep_no_copy_of_the_table():
    """Groups compare and hash by their tables; the hash is kept as an int on
    the table core both share, and the core registry keys each core by its
    own table, no copy of it."""
    G, H = gq.make_group("D4"), gq.make_group("D4")
    assert G is not H and G == H and hash(G) == hash(H) and G.core.hash == hash(G)
    assert G.core is H.core and G.table is H.table
    assert not hasattr(G, "_key") and not hasattr(G.core, "_key")
    assert all(key.table is core.table for key, core in groups._CORES.items())
    assert G != gq.make_group("Q8") and G != gq.make_group("C8") and G != "D4"
    assert len({G, H, gq.make_group("Q8")}) == 2


def test_as_group_is_built_once_per_subgroup(monkeypatch):
    G = gq.make_group("D4")
    H = gq.center(G)
    sub = H.as_group()
    monkeypatch.setattr(groups, "FiniteGroup", None)  # a second build would fail here
    assert H.as_group() is sub
    twin = gq.Subgroup(G, H.elements)
    assert twin == H and hash(twin) == hash(H) and repr(twin) == repr(H)


def test_table_format_round_trip():
    for spec in ["C5", "S3", "Q8"]:
        G = gq.make_group(spec)
        back = parse_group_table(format_group_table(G))
        assert back == G
        assert back.labels == G.labels


def test_table_format_errors_name_line():
    with pytest.raises(ValidationError, match="line 2"):
        parse_group_table("2\n0 x\n1 0\n")
    with pytest.raises(ValidationError, match="line"):
        parse_group_table("2\n0 1\n1 0 0\n")
    with pytest.raises(ValidationError, match="line 4: label index 5 outside the group of order 2"):
        parse_group_table("2\n0 1\n1 0\n# 5 ghost\n")
    with pytest.raises(ValidationError, match="line 5: label index 1 repeats line 4"):
        parse_group_table("2\n0 1\n1 0\n# 1 a\n# 1 b\n")


@pytest.mark.parametrize(
    "text, record",
    [
        ("2\n0 ١\n+1 0_0\n", "line 2: non-integer table entry '١'"),
        ("2\n0 1\n+1 0\n", "line 3: non-integer table entry '+1'"),
        ("2\n0 1\n1 0_0\n", "line 3: non-integer table entry '0_0'"),
        ("2\n0 1\n1 ０\n", "line 3: non-integer table entry '０'"),
        ("2\n0 -1\n1 0\n", "table entries out of range"),
    ],
)
def test_table_rows_take_ascii_digits_only(text, record):
    """A row entry must be ASCII digits after an optional minus sign, which
    ``int`` alone does not require: it read the first text as the C2 table.
    A minus sign still reaches the range check, as before."""
    with pytest.raises(ValidationError) as raised:
        parse_group_table(text)
    assert str(raised.value) == record


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="int reads digits of any length")
def test_a_row_entry_past_the_int_digit_limit_names_its_line():
    """An entry of ASCII digits that ``int`` refuses for its length is
    refused at its line, in group tables and cocycle files alike."""
    huge = "9" * (sys.get_int_max_str_digits() + 1)
    with pytest.raises(ValidationError) as raised:
        parse_group_table(f"2\n0 1\n1 {huge}\n")
    assert str(raised.value) == "line 3: non-integer table entry"
    with pytest.raises(ValidationError) as raised:
        cocycles.parse_cocycle(f"2 2\n0 0\n0 {huge}\n", gq.cyclic(2))
    assert str(raised.value) == "line 3: non-integer entry"


# -- table cores and generator-column homomorphism checks ---------------------


def reference_hom_error(G, T, images):
    """The first error of the all-pairs homomorphism check, the one ``GroupHom``
    made before it read generator columns: every (a, b) in row-major order."""
    if len(images) != G.n:
        return "homomorphism image list has wrong length"
    if images[0] != 0:
        return "homomorphism does not fix the identity"
    img = np.asarray(images, dtype=np.int64)
    if img.min() < 0 or img.max() >= T.n:
        return "homomorphism image outside the target"
    bad = img[G.table] != T.table[img[:, None], img[None, :]]
    if bad.any():
        a, b = (int(x) for x in np.argwhere(bad)[0])
        return f"not multiplicative at ({a},{b})"
    return None


def _hom_error(G, T, images):
    try:
        gq.GroupHom(G, T, images)
    except ValidationError as exc:
        return str(exc)
    return None


def _perturbed(images, n_target, rng):
    """An image list with one entry moved, one with two entries swapped, and
    one composed with a permutation of the target that fixes the identity."""
    out = []
    if len(images) > 1:
        moved = list(images)
        p = int(rng.integers(1, len(images)))
        moved[p] = (moved[p] + 1 + int(rng.integers(0, max(n_target - 1, 1)))) % n_target
        out.append(tuple(moved))
    if len(images) > 2:
        swapped = list(images)
        p, q = (int(x) for x in 1 + rng.choice(len(images) - 1, 2, replace=False))
        swapped[p], swapped[q] = swapped[q], swapped[p]
        out.append(tuple(swapped))
    perm = np.concatenate([[0], 1 + rng.permutation(n_target - 1)])
    out.append(tuple(int(perm[x]) for x in images))
    return out


@pytest.mark.parametrize("spec", GROUP_SPECS)
def test_generator_columns_decide_homomorphisms_like_all_pairs(spec):
    """On every quotient projection of a catalog group, every homomorphism
    ``homomorphisms`` finds into a few small targets, and perturbed copies of
    both, the generator-column check accepts exactly what the all-pairs check
    accepts, and names the same first failing pair with the same message."""
    G, rng = gq.make_group(spec), np.random.default_rng(len(spec) * 1009 + 7)
    cases = []
    for N in gq.normal_subgroups(G):
        Q, proj = gq.quotient(G, N)
        cases += [(Q, proj.images)] + [(Q, images) for images in _perturbed(proj.images, Q.n, rng)]
    if G.n <= 16:
        for T in map(gq.make_group, ["C2", "C4", "C2xC2", "S3"]):
            for hom in itertools.islice(gq.homomorphisms(G, T), 24):
                cases += [(T, hom.images)] + [(T, images) for images in _perturbed(hom.images, T.n, rng)]
    for T, images in cases:
        assert _hom_error(G, T, images) == reference_hom_error(G, T, images), (spec, images)
    assert reference_hom_error(G, *cases[0]) is None  # the projection onto G/{e}


def test_a_failing_generator_column_names_the_first_failing_pair():
    """On C4 = <1>, f = (0, 1, 2, 0) first fails on the generator column at
    (2, 1), but the first failing pair in row-major order is (1, 2), off the
    generator columns: the all-pairs scan names it."""
    C4 = gq.cyclic(4)
    assert groups.generating_sequence(C4) == [1]
    with pytest.raises(ValidationError) as raised:
        gq.GroupHom(C4, C4, (0, 1, 2, 0))
    assert str(raised.value) == "not multiplicative at (1,2)" == reference_hom_error(C4, C4, (0, 1, 2, 0))


def _fully_validated(table) -> np.ndarray:
    """The untrusted validation of a table on a core of its own, no registry:
    Light's test, then the inverse certificate; returns the inverse table."""
    core = groups._TableCore(np.array(table), 0)
    core._validate()
    core._certify_inverses()
    return core.inverse_table


@pytest.mark.parametrize("name", list(GROUP_SPECS) + ["nd_C2xC2xC2xC2xC2xC2"])
def test_every_lattice_subgroup_copy_and_quotient_passes_full_validation(name):
    """Every subgroup of the lattice, its standalone copy, and, for a normal
    one, its quotient and projection, pass the full validation that untrusted
    input gets, on a core of their own: closure element by element (and the
    ``Subgroup`` closure check, which the lattice skips), Light's test and the
    inverse certificate on each table, and the all-pairs homomorphism check
    (which ``quotient`` skips); C2^6 has 2,825 subgroups."""
    G = standard_nondegenerate([2, 2, 2]).group if name.startswith("nd_") else gq.make_group(name)
    lattice = gq.subgroups(G)
    if name.startswith("nd_"):
        assert len(lattice) == 2825
    for H in lattice:
        if G.n <= 24:
            assert reference_closure_error(G, H.elements) is None
        assert type(H.elements) is tuple and list(H.elements) == sorted(set(H.elements))
        assert gq.Subgroup(G, H.elements) == H  # the closure check the lattice skips by its proof
        copy = H.as_group()
        assert np.array_equal(_fully_validated(copy.table), copy.inverse_table)
        if H.is_normal():
            Q, proj = gq.quotient(G, H)
            assert np.array_equal(_fully_validated(Q.table), Q.inverse_table)
            assert reference_hom_error(G, Q, proj.images) is None


def test_lattice_and_quotients_skip_the_checks_their_construction_proves(monkeypatch):
    """Building a lattice runs no ``Subgroup`` closure check and a quotient no
    ``GroupHom`` check; a subgroup or a map from a caller still gets both."""
    checks = collections.Counter()
    for cls in (groups.Subgroup, groups.GroupHom):
        original = cls.__post_init__
        monkeypatch.setattr(cls, "__post_init__", lambda self, f=original, c=cls.__name__: checks.update([c]) or f(self))
    G = gq.FiniteGroup(gq.make_group("S4").table.copy())  # a lattice of its own
    lattice = gq.subgroups(G)
    for N in lattice:
        if N.is_normal():
            gq.quotient(G, N)
    assert len(lattice) == 30 and checks == {}
    gq.Subgroup(G, lattice[1].elements)
    gq.GroupHom(G, gq.trivial_group(), (0,) * G.n)
    assert checks == {"Subgroup": 1, "GroupHom": 1}
    with pytest.raises(ValidationError, match="not closed"):
        gq.Subgroup(G, (0, 1, 2))


def test_equal_tables_share_one_core_and_keep_their_own_labels_and_lattices():
    """A relabelled copy of a table shares its core, the table and what it
    determines, and keeps its own labels, name and lattice, whose subgroups
    belong to it."""
    G = gq.make_group("D4")
    H = gq.FiniteGroup(G.table.copy(), labels=[f"h{g}" for g in G.elements()], name="copy")
    assert H.core is G.core and H == G and hash(H) == hash(G)
    assert H.table is G.table and H.inverse_table is G.inverse_table and H.rows is G.rows
    assert groups.cayley_tree(H) is groups.cayley_tree(G)
    assert (G.name, H.name) == ("D4", "copy") and G.labels != H.labels
    LG, LH = gq.subgroups(G), gq.subgroups(H)
    assert [S.elements for S in LG] == [S.elements for S in LH]
    assert all(S.group is G for S in LG) and all(S.group is H for S in LH)
    assert [S.as_group().labels for S in LH] == [[H.label(g) for g in S.elements] for S in LH]
    Q, proj = gq.quotient(H, LH[1])
    assert Q.labels[0] == "h0N" and proj.source is H


def test_a_dropped_groups_core_goes_with_it(monkeypatch):
    """The registry holds its cores weakly: once the last group with a table
    is collected, its core is gone, and the next group with that table gets a
    new core, certified anew."""
    import gc
    import weakref

    table = _relabeled(gq.make_group("C2xC2xC3"), np.array([0, 11, 1, 10, 2, 9, 3, 8, 4, 7, 5, 6])).table.copy()
    gc.collect()
    assert not any(np.array_equal(key.table, table) for key in list(groups._CORES.keys()))
    G = gq.FiniteGroup(table)
    gq.subgroups(G)  # the lattice holds the group through its subgroups: a cycle only gc clears
    groups.cayley_tree(G)
    old = weakref.ref(G.core)
    del G
    gc.collect()
    assert old() is None
    assert not any(np.array_equal(key.table, table) for key in list(groups._CORES.keys()))
    certified = []
    certify = groups._TableCore._certify_inverses
    monkeypatch.setattr(groups._TableCore, "_certify_inverses", lambda core: certified.append(core) or certify(core))
    G = gq.FiniteGroup(table)
    assert certified == [G.core]


def test_tables_whose_hashes_collide_stay_apart(monkeypatch):
    """With every table hashing alike, distinct tables keep distinct cores and
    compare unequal, and an equal table still finds its core."""
    import gc

    monkeypatch.setattr(groups, "_table_hash", lambda table: 0)
    perm = np.array([0, 5, 3, 1, 4, 2])
    A, B = (_relabeled(gq.make_group(spec), perm) for spec in ["C6", "S3"])
    assert hash(A) == hash(B) == 0
    assert A.core is not B.core and A != B and B != A and len({A, B}) == 2
    again = gq.FiniteGroup(A.table.copy())
    assert again.core is A.core and again == A != B
    del A, B, again
    gc.collect()
    assert all(core.hash != 0 for core in list(groups._CORES.values()))


def test_untrusted_tables_are_validated_even_when_their_core_is_live():
    """A table from outside is validated whether or not a group with its
    entries is live: a non-associative table built trusted gets a core, and
    the same entries untrusted still raise the associativity error."""
    tab = np.array([[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]])
    loop = groups.FiniteGroup(tab, _trusted=True)  # a loop: inverses, no associativity
    with pytest.raises(ValidationError, match=r"^not associative: \(1\*1\)\*2 != 1\*\(1\*2\)$"):
        gq.FiniteGroup(tab)
    assert loop.core in list(groups._CORES.values())


def test_normality_on_an_abelian_group_reads_no_conjugates(monkeypatch):
    """On an abelian group every subgroup is normal, answered without the
    n x |H| conjugation gather; on a non-abelian one the gather still runs."""
    lattice, not_normal = gq.subgroups(gq.make_group("C4xC4")), gq.subgroups(gq.make_group("S3"))[1]
    assert not_normal.violating_conjugation() == (2, 1)
    monkeypatch.setattr(groups.Subgroup, "_inside", None)  # the gather reads it: it would fail here
    assert all(H.violating_conjugation() is None for H in lattice)
    with pytest.raises(TypeError):
        not_normal.violating_conjugation()
