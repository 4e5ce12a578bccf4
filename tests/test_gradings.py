import numpy as np
import pytest

import gquot as gq
from gquot.cocycles import CocycleTable, cohomologous, standard_nondegenerate
from gquot.errors import DomainError, ValidationError
from gquot.gradings import (
    Character,
    FactorFine,
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
from gquot.words import FactorMap, FreeProductGroup


def total_dimension(d: GradingClassDescriptor) -> int:
    return sum(s.dimension(d.group) for s in d.summands)


def format_descriptor(d: GradingClassDescriptor) -> str:
    """Serialize a descriptor with trivial cocycles back to the text format."""
    lines = []
    for s in d.summands:
        xs = " ".join(f"{e}^{k}" if k > 1 else str(e) for e, k in s.x.mults)
        if isinstance(s.fine, gq.Subgroup):
            h = " ".join(str(e) for e in s.fine.elements)
        elif s.fine is None:
            h = "e"
        else:
            raise DomainError("only finite-group descriptors serialize")
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
    free = FreeProductGroup((gq.cyclic(2), gq.cyclic(2)))
    summands = tuple(Summand(Character.point(free), FactorFine(i), None) for i in range(2))
    assert is_connected(GradingClassDescriptor(free, summands))


def character_mod(x, N):
    """Reduce a character over a finite group modulo a normal subgroup."""
    _, proj = gq.quotient(x.group, N)
    return x.pushforward(proj)


def test_character_mod():
    C4 = gq.cyclic(4)
    x = Character.from_dict(C4, {0: 1, 1: 1})
    N = gq.generated_subgroup(C4, [2])
    reduced = character_mod(x, N)
    assert reduced.eps == x.eps
    assert reduced.mults == ((0, 1), (1, 1))
    trivial_n = gq.Subgroup(C4, (0,))
    assert character_mod(x, trivial_n).mults == x.mults


def test_character_pushforward_collapses_free_product():
    gamma = FreeProductGroup((gq.cyclic(2), gq.make_group("C2xC2")))
    x = Character.from_dict(gamma, {gamma.identity(): 1, gamma.letter(0, 1): 1, gamma.letter(1, 3): 1})
    target = gq.trivial_group()
    maps = tuple(gq.GroupHom(f, target, (0,) * f.n) for f in gamma.factors)
    assert x.pushforward(FactorMap(gamma, target, maps)).mults == ((0, 3),)


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


def test_equidimensional_requires_equidimensional_base():
    C2 = gq.cyclic(2)
    with pytest.raises(DomainError):
        is_equidimensional_induced(
            Character.point(C2), gq.Subgroup(C2, (0, 1)), base_dims={0: 2, 1: 1}
        )


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
            (j for j, s2 in enumerate(d2.summands) if not used[j] and _summands_equivalent(s1, s2, d1.group)),
            None,
        )
        if j is None:
            return False
        used[j] = True
    return True


def _summands_equivalent(s1, s2, group):
    if s1.fine_order(group) != s2.fine_order(group):
        return False
    if set(s1.fine_elements(group)) != set(s2.fine_elements(group)):
        return False
    if s1.fine is None or s1.fine_order(group) == 1:
        trivial1 = _cocycle_is_trivial_on_trivial_group(s1.cocycle)
        return s1.x.mults == s2.x.mults and trivial1 == _cocycle_is_trivial_on_trivial_group(s2.cocycle)
    H = s1.fine if isinstance(s1.fine, gq.Subgroup) else None
    if H is None:
        raise DomainError("free-product summand equivalence is out of scope")
    if coset_masses(s1.x, H) != coset_masses(s2.x, H):
        return False
    t1, t2 = _as_table(s1.cocycle, H), _as_table(s2.cocycle, H)
    if t1 is None or t2 is None:
        raise DomainError("cocycle class comparison needs exact root-of-unity tables")
    return cohomologous(t1, t2)[0]


def _as_table(c, H):
    if isinstance(c, CocycleTable):
        return c
    if c is None:
        return CocycleTable.trivial(H.as_group()[0])
    return None


def test_descriptor_equivalence_up_to_coset_moves():
    C4 = gq.cyclic(4)
    H = gq.generated_subgroup(C4, [2])
    sub, _ = H.as_group()
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
