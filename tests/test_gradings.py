import math
import re

import numpy as np
import pytest

import gquot as gq
from gquot.catalog import GROUP_SPECS
from gquot.cocycles import CocycleTable, cohomologous, standard_nondegenerate
from gquot import gradings
from gquot.errors import DomainError, TheoremCheckError, ValidationError
from gquot.gradings import (
    Character,
    GradingClassDescriptor,
    Summand,
    coset_masses,
    descriptor_dims,
    induced_dims,
    is_connected,
    is_elementary,
    is_elementary_crossed_product,
    is_equidimensional_induced,
    parse_descriptor,
    _cocycle_is_trivial_on_trivial_group,
)


def total_dimension(d: GradingClassDescriptor) -> int:
    return sum(s.dimension() for s in d.summands)


def format_descriptor(d: GradingClassDescriptor) -> str:
    """Serialize a descriptor with trivial cocycles back to the text format."""
    lines = []
    for s in d.summands:
        xs = " ".join(f"{e}^{k}" if k > 1 else str(e) for e, k in s.x.mults)
        h = "e" if s.fine is None else " ".join(str(e) for e in s.fine.elements)
        if s.cocycle is not None and not (
            isinstance(s.cocycle, CocycleTable) and s.cocycle.is_trivial_table()
        ):
            raise DomainError("descriptor serialization supports trivial cocycles only")
        lines.append(f"x: {xs} | H: {h} | alpha: trivial")
    return "\n".join(lines) + "\n"


def test_induced_dims_examples():
    C2 = gq.cyclic(2)
    point = Character.point(C2)
    assert induced_dims(point, {0: 1}, C2) == {0: 1}
    ecp = Character.from_dict(C2, {0: 1, 1: 1})
    assert induced_dims(ecp, {0: 1}, C2) == {0: 2, 1: 2}
    lopsided = Character.from_dict(C2, {0: 2, 1: 1})
    assert induced_dims(lopsided, {0: 1}, C2) == {0: 5, 1: 4}


def reference_induced_dims(x, fine_dims, group):
    """The triple loop the table gather replaced, one ``mul`` per product."""
    out = {}
    for g1, n1 in x.mults:
        for g2, d2 in fine_dims.items():
            if d2 == 0:
                continue
            left = group.mul(g1, g2)
            for g3, n3 in x.mults:
                g0 = group.mul(left, group.inv(g3))
                out[g0] = out.get(g0, 0) + n1 * d2 * n3
    return out


def reference_gather_dims(x, fine_dims, group):
    """The int64 table gather the row-list walk replaced: every product read
    in one gather over the triples (g1, g2, g3), summed by ``np.add.at``,
    keys in first-reached order by ``np.unique``."""
    base = [(g, d) for g, d in fine_dims.items() if d != 0]
    if not base:
        return {}
    g1, n1 = np.array(x.mults, dtype=np.int64).T
    g2, d2 = np.array(base, dtype=np.int64).T
    T = group.table
    g0 = T[T[g1[:, None], g2][:, :, None], group.inverse_table[g1]].ravel()  # [g1, g2, g3]
    totals = np.zeros(group.n, dtype=np.int64)
    np.add.at(totals, g0, (n1[:, None, None] * d2[:, None] * n1).ravel())
    keys = g0[np.sort(np.unique(g0, return_index=True)[1])]
    return dict(zip(keys.tolist(), totals[keys].tolist()))


GATHER_LADDER = ["C16", "C4xC8", "D16", "Q8xC4", "S4xC2", "C2xC2xC2xC2xC3", "C8xC8", "C2xC4xC2xC4", "D32"]


@pytest.mark.parametrize("spec", list(GROUP_SPECS) + GATHER_LADDER)
def test_induced_dims_match_the_int64_gather(spec):
    """Keys, their order and values equal the gather's across the catalog and
    a ladder up to order 64: small characters as the battery makes them,
    larger ones, and multiplicities that bring eps(x)^2 * sum(base dims) to
    just under INT64_MAX, where the gather still holds every sum."""
    G = gq.make_group(spec)
    rng = np.random.default_rng(G.n * 31 + len(spec))
    for trial in range(12):
        size = int(rng.integers(1, min(G.n, 4 if trial < 6 else 9) + 1))
        support = [int(g) for g in rng.choice(G.n, size=size, replace=False)]
        base = {int(g): int(rng.integers(0, 4)) for g in rng.choice(G.n, size=rng.integers(1, G.n + 1))}
        if not any(base.values()):
            base[0] = 1
        mults = [int(k) for k in rng.integers(1, 5, size=size)]
        if trial % 3 == 2:  # scale eps(x) up to the largest the bound allows
            eps = math.isqrt(gradings.INT64_MAX // sum(base.values()))
            weights = [int(w) for w in rng.integers(1, 1000, size=size)]
            mults = [eps * w // sum(weights) for w in weights]  # eps - size < sum(mults) <= eps
            assert (eps - size) ** 2 * sum(base.values()) < sum(mults) ** 2 * sum(base.values()) <= gradings.INT64_MAX
        x = Character(G, tuple(zip(support, mults)))
        got, want = induced_dims(x, base, G), reference_gather_dims(x, base, G)
        assert list(got.items()) == list(want.items())
        assert all(type(k) is int and type(v) is int for k, v in got.items())


@pytest.mark.parametrize("spec", ["C1", "C6", "S3", "Q8", "D6", "C2xC2xC2", "S4"])
def test_induced_dims_match_the_triple_loop(spec):
    """Keys, their order and values equal the loop's, on random characters
    and base gradings with zero, repeated and large dimensions."""
    G = gq.make_group(spec)
    rng = np.random.default_rng(G.n)
    for _ in range(20):
        support = rng.choice(G.n, size=rng.integers(1, min(G.n, 6) + 1), replace=False)
        x = Character.from_dict(G, {int(g): int(rng.integers(1, 5)) for g in support})
        base = {int(g): int(rng.choice([0, 1, 3, 10**6])) for g in rng.choice(G.n, size=rng.integers(1, G.n + 1))}
        got, want = induced_dims(x, base, G), reference_induced_dims(x, base, G)
        assert list(got.items()) == list(want.items())
        assert all(type(k) is int and type(v) is int for k, v in got.items())
    assert induced_dims(Character.point(G), {0: 0}, G) == {}


def test_augmentation_dimension_law():
    rng = np.random.default_rng(0)
    for spec in ["C4", "S3", "C2xC4"]:
        G = gq.make_group(spec)
        for _ in range(5):
            support = rng.choice(G.n, size=rng.integers(1, 4), replace=False)
            x = Character.from_dict(G, {int(g): int(rng.integers(1, 4)) for g in support})
            H = gq.generated_subgroup(G, [int(rng.integers(0, G.n))])
            dims = induced_dims(x, {e: 1 for e in H.elements}, G)
            assert sum(dims.values()) == x.eps ** 2 * H.order


def test_identity_component_dominates():
    # induced from an equi-dimensional base, the identity component is maximal
    rng = np.random.default_rng(1)
    for spec in ["C6", "S3"]:
        G = gq.make_group(spec)
        for _ in range(6):
            support = rng.choice(G.n, size=rng.integers(1, 4), replace=False)
            x = Character.from_dict(G, {int(g): int(rng.integers(1, 3)) for g in support})
            H = gq.generated_subgroup(G, [int(rng.integers(0, G.n))])
            dims = induced_dims(x, {e: 1 for e in H.elements}, G)
            assert all(v <= dims.get(0, 0) for v in dims.values())


def test_composition_law_on_dims():
    rng = np.random.default_rng(2)
    for spec in ["C4", "C2xC2", "S3"]:
        G = gq.make_group(spec)
        for _ in range(5):
            x1 = Character.from_dict(G, {int(rng.integers(0, G.n)): int(rng.integers(1, 3))})
            x2 = Character.from_dict(
                G,
                {
                    int(rng.integers(0, G.n)): 1,
                    int(rng.integers(0, G.n)): int(rng.integers(1, 3)),
                },
            )
            base = {0: 1}
            two_step = induced_dims(x1, induced_dims(x2, base, G), G)
            one_step = induced_dims(x1.product(x2), base, G)
            assert two_step == one_step


def test_connectedness_examples():
    t = gq.trivial_group()
    assert is_connected(GradingClassDescriptor(t, (Summand(Character.point(t)),)))
    C4 = gq.cyclic(4)
    half = GradingClassDescriptor(C4, (Summand(Character.from_dict(C4, {0: 1, 2: 1})),))
    assert not is_connected(half)


def reference_support(d):
    """The support as products g1 * g2 * g3^-1 over x.mults and the fine elements."""
    G, out = d.group, set()
    for s in d.summands:
        for g1, _ in s.x.mults:
            for g2 in s.fine_elements():
                left = G.mul(g1, g2)
                for g3, _ in s.x.mults:
                    out.add(G.mul(left, G.inv(g3)))
    return out


def reference_generates(G, gens):
    """Whether ``gens`` generate G, by growing the set of products of generators."""
    reached, frontier = {0}, [0]
    while frontier:
        g = frontier.pop()
        for s in gens:
            h = G.mul(g, s)
            if h not in reached:
                reached.add(h)
                frontier.append(h)
    return len(reached) == G.n


def random_descriptors(rng):
    """Descriptors with one to three summands, random characters, and fine
    parts that are trivial, cyclic or any subgroup of the grading group."""
    for spec in ["C4", "C6", "S3", "C2xC2", "C2xC4", "D4", "Q8"]:
        G = gq.make_group(spec)
        lattice = gq.subgroups(G)
        for _ in range(8):
            summands = []
            for _ in range(int(rng.integers(1, 4))):
                support = rng.choice(G.n, size=rng.integers(1, 4), replace=False)
                x = Character.from_dict(G, {int(g): int(rng.integers(1, 4)) for g in support})
                kind = int(rng.integers(0, 3))
                if kind == 0:
                    fine = None
                elif kind == 1:
                    fine = gq.generated_subgroup(G, [int(rng.integers(0, G.n))])
                else:
                    fine = lattice[int(rng.integers(0, len(lattice)))]
                summands.append(Summand(x, fine))
            yield GradingClassDescriptor(G, tuple(summands))


def test_connectedness_matches_the_support_reference():
    rng = np.random.default_rng(3)
    verdicts = set()
    for d in random_descriptors(rng):
        support = reference_support(d)
        assert set(descriptor_dims(d)) == support
        verdict = reference_generates(d.group, support)
        assert is_connected(d) == verdict
        verdicts.add(verdict)
    assert verdicts == {True, False}


def pushforward(x, mapping):
    """Apply a homomorphism (e.g. a quotient projection) to a character pointwise."""
    acc: dict = {}
    for e, k in x.mults:
        img = mapping(e)
        acc[img] = acc.get(img, 0) + k
    return Character.from_dict(mapping.target, acc)


def character_mod(x, N):
    """Reduce a character over a finite group modulo a normal subgroup."""
    _, proj = gq.quotient(x.group, N)
    return pushforward(x, proj)


def test_character_mod():
    C4 = gq.cyclic(4)
    x = Character.from_dict(C4, {0: 1, 1: 1})
    N = gq.generated_subgroup(C4, [2])
    reduced = character_mod(x, N)
    assert reduced.eps == x.eps
    assert reduced.mults == ((0, 1), (1, 1))
    trivial_n = gq.Subgroup(C4, (0,))
    assert character_mod(x, trivial_n).mults == x.mults


@pytest.mark.parametrize("elem", [-1, 4, 9, "a", "1", 1.0, True, None])
def test_a_character_refuses_an_element_that_is_not_an_index(elem):
    """An element outside 0..n-1 or not an integer raises ValidationError
    naming it and the group order: no -1 read as 3 by ``induced_dims`` or
    ``coset_masses``, and no numpy IndexError for 9.  numpy integers are
    indices too, and ``parse_descriptor`` keeps its own message."""
    C4 = gq.cyclic(4)
    message = f"^character element {re.escape(repr(elem))} is not an index of the group of order 4$"
    with pytest.raises(ValidationError, match=message):
        Character(C4, ((elem, 2),))
    with pytest.raises(ValidationError, match=message):
        Character.from_dict(C4, {0: 1, elem: 1})
    assert Character(C4, ((np.int64(3), 1), (0, 1))).mults == ((0, 1), (3, 1))
    with pytest.raises(ValidationError, match="^line 1: element 9 out of range$"):
        parse_descriptor("x: 9\n", C4)


def test_a_descriptor_refuses_a_character_over_another_group():
    """A summand whose character lives on another group raises DomainError
    when the descriptor is built, not an IndexError in ``induced_dims``."""
    C4, C8 = gq.cyclic(4), gq.cyclic(8)
    with pytest.raises(DomainError, match="^summand character lives on another group than the grading group$"):
        GradingClassDescriptor(C4, (Summand(Character.point(C4)), Summand(Character.point(C8, 5))))


def test_a_summand_refuses_parts_on_other_groups():
    """A fine subgroup of another group than the character's, a cocycle on
    another group than the fine subgroup, or a cocycle on a non-trivial
    group with no fine subgroup raises DomainError when the summand is
    built, not an IndexError in ``descriptor_dims`` or a wrong verdict of
    ``is_elementary``; parts on the right groups are kept."""
    C4, C8 = gq.cyclic(4), gq.cyclic(8)
    with pytest.raises(DomainError, match="^fine subgroup lives on another group than the summand character$"):
        GradingClassDescriptor(C4, (Summand(Character.point(C4), gq.Subgroup(C8, (0, 2, 4, 6))),))
    cocycle = "^summand cocycle lives on another group than its fine subgroup$"
    with pytest.raises(DomainError, match=cocycle):
        Summand(Character.point(C4), gq.Subgroup(C4, (0, 2)), CocycleTable.trivial(gq.cyclic(3)))
    with pytest.raises(DomainError, match=cocycle):
        Summand(Character.point(C4), None, CocycleTable.trivial(gq.cyclic(3), 3))
    G = gq.make_group("C2xC4")
    H = gq.generated_subgroup(G, [1])  # cyclic of order 4
    with pytest.raises(DomainError, match=cocycle):  # the order of H, another table
        Summand(Character.point(G), H, CocycleTable.trivial(gq.make_group("C2xC2")))
    kept = [
        Summand(Character.point(G), H, CocycleTable.trivial(H.as_group(), 4)),
        Summand(Character.point(G), H, CocycleTable.trivial(gq.cyclic(4))),  # an equal table
        Summand(Character.point(G), None, CocycleTable.trivial(gq.trivial_group(), 3)),
        Summand(Character.point(G), gq.Subgroup(G, (0,)), CocycleTable.trivial(gq.trivial_group())),
    ]
    assert [s.has_trivial_fine() for s in kept] == [False, False, True, True]


def test_equidimensional_criterion_both_paths():
    C2 = gq.cyclic(2)
    He = gq.Subgroup(C2, (0,))
    ok, masses = is_equidimensional_induced(Character.from_dict(C2, {0: 1, 1: 1}), He)
    assert ok and sorted(masses.values()) == [1, 1]
    bad, masses2 = is_equidimensional_induced(Character.from_dict(C2, {0: 2, 1: 1}), He)
    assert not bad and sorted(masses2.values()) == [1, 2]
    S3 = gq.symmetric(3)
    a3 = gq.Subgroup(S3, tuple(g for g in range(6) if S3.order_of(g) in (1, 3)))
    transposition = next(g for g in range(6) if S3.order_of(g) == 2)
    x = Character.from_dict(S3, {0: 1, transposition: 1})
    ok3, masses3 = is_equidimensional_induced(x, a3)
    assert ok3 and sorted(masses3.values()) == [1, 1]


def test_coset_mass_check_fires_when_the_masses_flip(monkeypatch):
    """Masses that read unequal against equal direct dimensions raise."""
    C2 = gq.cyclic(2)
    masses = gradings.coset_masses
    monkeypatch.setattr(gradings, "coset_masses", lambda x, H: {**masses(x, H), 0: 2})
    with pytest.raises(
        TheoremCheckError, match=r"^coset-mass criterion \(False\) disagrees with direct dimensions \(True\)$"
    ):
        is_equidimensional_induced(Character.regular(C2), gq.Subgroup(C2, (0,)))


def test_elementary_and_ecp_recognition():
    C2 = gq.cyclic(2)
    ecp = GradingClassDescriptor(C2, (Summand(Character.regular(C2)),))
    assert is_elementary(ecp) and is_elementary_crossed_product(ecp)
    disconnected = GradingClassDescriptor(C2, (Summand(Character.from_dict(C2, {0: 2})),))
    assert is_elementary(disconnected)
    assert not is_elementary_crossed_product(disconnected)
    assert not is_connected(disconnected)
    a = standard_nondegenerate([2])
    K = a.group
    fine = GradingClassDescriptor(
        K, (Summand(Character.point(K), gq.Subgroup(K, tuple(range(4))), a),)
    )
    assert not is_elementary(fine) and not is_elementary_crossed_product(fine)


def test_coset_masses():
    C4 = gq.cyclic(4)
    H = gq.generated_subgroup(C4, [2])
    x = Character.from_dict(C4, {0: 2, 1: 1, 2: 1})
    masses = coset_masses(x, H)
    assert masses == {0: 3, 1: 1}


def descriptors_equivalent(d1, d2):
    """Equivalence over the same finite group: summand permutation, right
    coset translation of elementary parts, cohomologous cocycles."""
    if d1.group != d2.group or len(d1.summands) != len(d2.summands):
        return False
    used = [False] * len(d2.summands)
    for s1 in d1.summands:
        j = next(
            (j for j, s2 in enumerate(d2.summands) if not used[j] and _summands_equivalent(s1, s2)),
            None,
        )
        if j is None:
            return False
        used[j] = True
    return True


def _summands_equivalent(s1, s2):
    if s1.fine_order() != s2.fine_order():
        return False
    if set(s1.fine_elements()) != set(s2.fine_elements()):
        return False
    if s1.fine is None or s1.fine_order() == 1:
        trivial1 = _cocycle_is_trivial_on_trivial_group(s1.cocycle)
        return s1.x.mults == s2.x.mults and trivial1 == _cocycle_is_trivial_on_trivial_group(s2.cocycle)
    H = s1.fine
    if coset_masses(s1.x, H) != coset_masses(s2.x, H):
        return False
    t1, t2 = (CocycleTable.trivial(H.as_group()) if c is None else c for c in (s1.cocycle, s2.cocycle))
    return cohomologous(t1, t2)[0]


def test_descriptor_equivalence_up_to_coset_moves():
    C4 = gq.cyclic(4)
    H = gq.generated_subgroup(C4, [2])
    sub = H.as_group()
    x1 = Character.from_dict(C4, {0: 1, 1: 1})
    x2 = Character.from_dict(C4, {2: 1, 3: 1})  # same coset masses
    d1 = GradingClassDescriptor(C4, (Summand(x1, H, CocycleTable.trivial(sub)),))
    d2 = GradingClassDescriptor(C4, (Summand(x2, H, None),))
    assert descriptors_equivalent(d1, d2)
    x3 = Character.from_dict(C4, {0: 2})
    d3 = GradingClassDescriptor(C4, (Summand(x3, H, None),))
    assert not descriptors_equivalent(d1, d3)


def test_descriptor_dims_sum():
    a = standard_nondegenerate([2])
    G = a.group
    d = GradingClassDescriptor(
        G,
        (
            Summand(Character.point(G), gq.Subgroup(G, tuple(range(4))), a),
            Summand(Character.from_dict(G, {0: 1, 1: 1})),
        ),
    )
    dims = descriptor_dims(d)
    assert sum(dims.values()) == total_dimension(d) == 4 + 4


def test_descriptor_text_round_trip():
    C4 = gq.cyclic(4)
    H = gq.generated_subgroup(C4, [2])
    d = GradingClassDescriptor(
        C4,
        (
            Summand(Character.from_dict(C4, {0: 2, 1: 1}), H, None),
            Summand(Character.point(C4)),
        ),
    )
    text = format_descriptor(d)
    back = parse_descriptor(text, C4)
    assert descriptors_equivalent(d, back)
    assert back.summands[0].x.mults == d.summands[0].x.mults
    with pytest.raises(ValidationError):
        parse_descriptor("H: 0 | alpha: trivial\n", C4)
