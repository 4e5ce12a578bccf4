import functools
import itertools

import pytest
from hypothesis import given, settings, strategies as st

import gquot as gq
from gquot.errors import DomainError, ValidationError
from gquot.words import (
    FactorMap,
    FreeProductGroup,
    Word,
    enumerate_words,
)


def c2_free_square():
    return FreeProductGroup((gq.cyclic(2), gq.cyclic(2)), name="C2*C2")


def c3_free_c2():
    return FreeProductGroup((gq.cyclic(3), gq.cyclic(2)), name="C3*C2")


def test_normal_form_examples():
    F = c2_free_square()
    a = F.letter(0, 1)
    assert a.mul(a).is_identity()
    b = F.letter(1, 1)
    aba = a.mul(b).mul(a)
    assert aba.syllables == ((0, 1), (1, 1), (0, 1))
    F32 = c3_free_c2()
    g = F32.letter(0, 1)
    assert g.mul(g).mul(g).is_identity()
    assert g.mul(g).syllables == ((0, 2),)


def test_word_inverse():
    F32 = c3_free_c2()
    g, h = F32.letter(0, 1), F32.letter(1, 1)
    w = g.mul(h).mul(g.mul(g))
    assert w.mul(w.inv()).is_identity()
    assert w.inv().syllables == ((0, 1), (1, 1), (0, 2))


@given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 2)), max_size=12))
@settings(max_examples=100, deadline=None)
def test_normal_form_idempotent_and_reduced(sylls):
    F32 = c3_free_c2()
    clipped = [(fi, p % (3 if fi == 0 else 2)) for fi, p in sylls]
    w = Word(F32, tuple(clipped))
    assert Word(F32, w.syllables) == w
    for (f1, p1), (f2, p2) in zip(w.syllables, w.syllables[1:]):
        assert f1 != f2
    for fi, p in w.syllables:
        assert p != 0


@given(
    st.lists(st.tuples(st.integers(0, 1), st.integers(1, 2)), max_size=6),
    st.lists(st.tuples(st.integers(0, 1), st.integers(1, 2)), max_size=6),
    st.lists(st.tuples(st.integers(0, 1), st.integers(1, 2)), max_size=6),
)
@settings(max_examples=60, deadline=None)
def test_word_multiplication_associative(s1, s2, s3):
    F32 = c3_free_c2()

    def mk(s):
        return Word(F32, tuple((fi, p % (3 if fi == 0 else 2)) for fi, p in s))

    w1, w2, w3 = mk(s1), mk(s2), mk(s3)
    assert w1.mul(w2).mul(w3) == w1.mul(w2.mul(w3))


def test_cross_group_multiplication_rejected():
    with pytest.raises(DomainError):
        c2_free_square().identity().mul(c3_free_c2().identity())


def test_factor_map_examples():
    F = c2_free_square()
    C2 = gq.cyclic(2)
    onto = gq.GroupHom(gq.cyclic(2), C2, (0, 1))
    psi3 = FactorMap(F, C2, (onto, onto))
    a, b = F.letter(0, 1), F.letter(1, 1)
    assert psi3(a) == 1 and psi3(b) == 1
    assert psi3(a.mul(b)) == 0
    assert psi3(F.identity()) == 0
    # a -> involution, b -> identity
    phi1 = FactorMap(F, C2, (onto, gq.GroupHom(gq.cyclic(2), C2, (0, 0))))
    assert phi1(a.mul(b).mul(a)) == 0
    assert phi1.is_surjective()


def test_factor_map_validation():
    F = c2_free_square()
    C3 = gq.cyclic(3)
    with pytest.raises(ValidationError):
        FactorMap(F, C3, (gq.GroupHom(gq.cyclic(2), C3, (0, 0)),))  # wrong arity
    with pytest.raises(ValidationError):
        FactorMap(F, C3, (2, 2))  # target elements, not homomorphisms
    onto = gq.GroupHom(gq.cyclic(2), gq.cyclic(2), (0, 1))
    with pytest.raises(ValidationError):
        FactorMap(FreeProductGroup((gq.cyclic(6),)), gq.cyclic(2), (onto,))  # source is not the factor


def test_factor_map_rejects_words_of_another_free_product():
    """The C2*C2 map psi3 read the syllables of a C3*C2 word as its own: h
    went to 1 silently and g^2 raised IndexError."""
    C2 = gq.cyclic(2)
    onto = gq.GroupHom(gq.cyclic(2), C2, (0, 1))
    psi3 = FactorMap(c2_free_square(), C2, (onto, onto))
    other = c3_free_c2()
    for w in (other.letter(1, 1), other.letter(0, 2), other.identity()):
        with pytest.raises(DomainError, match="words from different free products"):
            psi3(w)
    # an equal free product built separately is the same group
    assert psi3(c2_free_square().letter(0, 1)) == 1


def test_words_distinguished_by_finite_quotients():
    # distinct normal forms in C2*C2 map to distinct elements of a large
    # enough dihedral quotient
    F = c2_free_square()
    D8 = gq.dihedral(8)
    # a -> reflection s, b -> s r (two reflections generating D8)
    s = 8
    sr = 9
    ha = gq.GroupHom(gq.cyclic(2), D8, (0, s))
    hb = gq.GroupHom(gq.cyclic(2), D8, (0, sr))
    fm = FactorMap(F, D8, (ha, hb))
    words = list(enumerate_words(F, 4))
    images = [fm(w) for w in words]
    assert len(set(images)) == len(words)


def test_enumerate_words_counts():
    F = c2_free_square()
    assert len(list(enumerate_words(F, 6))) == 13  # 1 + 2 per length
    F32 = c3_free_c2()
    assert len(list(enumerate_words(F32, 2))) == 8  # e, g, g2, h, gh, g2h, hg, hg2


def test_factor_index_checked_at_the_public_entries():
    F = FreeProductGroup((gq.cyclic(2), gq.cyclic(3)))
    # a negative index used to wrap around and give an unequal copy of (1, 1)
    with pytest.raises(ValidationError):
        F.word([(-1, 1)])
    with pytest.raises(ValidationError):
        F.word([(5, 1)])
    with pytest.raises(ValidationError):
        F.letter(2, 1)
    with pytest.raises(ValidationError):
        Word(F, ((-2, 0),))
    with pytest.raises(ValidationError):
        F.word([(1, 3)])


# -- trusted products against the renormalizing constructor ------------------

MIXED = FreeProductGroup((gq.cyclic(3), gq.cyclic(2), gq.symmetric(3), gq.cyclic(4)))


def raw_syllable(fi, p):
    return (fi, p % MIXED.factors[fi].n)


def raw_inverse(sylls):
    """The inverse of an unreduced syllable list, itself unreduced."""
    return [(fi, MIXED.factors[fi].inv(p)) for fi, p in reversed(sylls)]


# zero payloads, runs of one factor, and a non-abelian factor
raw_syllables = st.lists(
    st.builds(raw_syllable, st.integers(0, 3), st.integers(0, 5)), max_size=10
)


@given(raw_syllables, raw_syllables, raw_syllables)
@settings(max_examples=200, deadline=None)
def test_mul_matches_renormalizing_constructor(s1, core, s2):
    # ``core`` and its inverse meet at the junction, so cancellation can reach
    # through several syllables of both factors
    a = Word(MIXED, tuple(s1 + core))
    b = Word(MIXED, tuple(raw_inverse(core) + s2))
    for x, y in ((a, b), (b, a), (a, a), (a, a.inv())):
        assert x.mul(y) == Word(MIXED, x.syllables + y.syllables)
    assert a.mul(b) == Word(MIXED, tuple(s1 + s2))


@given(raw_syllables)
@settings(max_examples=200, deadline=None)
def test_inv_matches_renormalizing_constructor(sylls):
    a = Word(MIXED, tuple(sylls))
    assert a.inv() == Word(MIXED, tuple(raw_inverse(sylls)))
    assert a.inv() == Word(MIXED, tuple(raw_inverse(list(a.syllables))))
    assert a.inv().inv() == a
    assert a.mul(a.inv()).is_identity() and a.inv().mul(a).is_identity()


def test_enumerated_words_are_reduced():
    for w in enumerate_words(MIXED, 3):
        assert Word(MIXED, w.syllables) == w


@pytest.mark.parametrize("F", [c2_free_square(), c3_free_c2(), MIXED], ids=["C2*C2", "C3*C2", "mixed"])
def test_enumerate_words_yields_in_sort_key_order(F):
    words = list(enumerate_words(F, 4))
    assert words == sorted(words, key=Word.sort_key)
    assert len({w.syllables for w in words}) == len(words)


def test_enumerate_words_is_lazy(monkeypatch):
    """The first words of a long bound come without building whole levels: a
    generator that built ahead fails at its first extra word."""
    built = 0
    reduced = Word._reduced.__func__

    def counted(cls, group, syllables):
        nonlocal built
        built += 1
        assert built <= 4, "words were built before they were asked for"
        return reduced(cls, group, syllables)

    monkeypatch.setattr(Word, "_reduced", classmethod(counted))
    words = enumerate_words(c3_free_c2(), 50)
    assert [w.syllables for w in itertools.islice(words, 4)] == [(), ((0, 1),), ((0, 2),), ((1, 1),)]
    assert built == 4  # one per word, the identity included


# -- products of sequences against the fold of Word.mul --------------------------

PROD_GROUPS = {
    "C2*C2": c2_free_square(),
    "C3*C2": c3_free_c2(),
    "C6*C2": FreeProductGroup((gq.cyclic(6), gq.cyclic(2))),
    "S3*C2": FreeProductGroup((gq.symmetric(3), gq.cyclic(2))),  # merged syllables are not commutative
}


def reduced_word(F):
    """Reduced words of F, any length up to 8, built through the validating constructor."""
    syllable = st.integers(0, len(F.factors) - 1).flatmap(
        lambda fi: st.tuples(st.just(fi), st.integers(0, F.factors[fi].n - 1))
    )
    return st.lists(syllable, max_size=8).map(lambda sylls: Word(F, tuple(sylls)))


@pytest.mark.parametrize("name", list(PROD_GROUPS))
@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_prod_matches_the_mul_fold(name, data):
    F = PROD_GROUPS[name]
    words = data.draw(st.lists(reduced_word(F), max_size=8))
    got = F.prod(iter(words))
    assert got == functools.reduce(Word.mul, words, F.identity())
    assert got == Word(F, tuple(s for w in words for s in w.syllables))
    assert got.group is F


@pytest.mark.parametrize("name", list(PROD_GROUPS))
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_prod_of_a_word_and_its_inverse_cancels_through(name, data):
    # every syllable of the middle pair cancels, so the stack pops all the way down
    F = PROD_GROUPS[name]
    u, v = data.draw(reduced_word(F)), data.draw(reduced_word(F))
    assert F.prod([u, v, v.inv(), u.inv()]).is_identity()
    assert F.prod([u, v, v.inv()]) == u


def test_prod_of_nothing_is_the_identity():
    for F in PROD_GROUPS.values():
        assert F.prod([]) == F.identity() and F.prod([]).is_identity()
        assert F.prod([F.identity(), F.identity()]).is_identity()


def test_prod_rejects_words_of_another_free_product():
    F, other = c2_free_square(), c3_free_c2()
    with pytest.raises(DomainError):
        F.prod([F.letter(0, 1), other.letter(0, 1)])
    with pytest.raises(DomainError):
        F.prod([other.identity()])
    # an equal free product built separately is the same group
    assert F.prod([c2_free_square().letter(0, 1)]) == F.letter(0, 1)


def reference_factor_map(fm, w) -> int:
    """The image of a word, as a left fold of target products over its syllables."""
    out = 0
    for fi, p in w.syllables:
        out = fm.target.mul(out, fm.maps[fi](p))
    return out


def test_factor_map_matches_the_syllable_fold():
    F = PROD_GROUPS["S3*C2"]
    S3 = gq.symmetric(3)
    onto_s3 = gq.GroupHom(S3, S3, tuple(range(6)))
    involution = next(g for g in S3.elements() if S3.order_of(g) == 2)
    c2_in_s3 = gq.GroupHom(gq.cyclic(2), S3, (0, involution))
    fm = FactorMap(F, S3, (onto_s3, c2_in_s3))
    for w in enumerate_words(F, 4):
        assert fm(w) == reference_factor_map(fm, w)


def test_factor_maps_of_the_rank5_diagram_match_the_prod_fold():
    """Every factor map of the rank-5 diagram, on every word of at most six
    syllables of its source, against ``target.prod`` of the factor images."""
    from gquot.pullbacks import rank5_pullback

    edges = [(i, m) for (i, _), m in rank5_pullback().diagram.edges.items() if isinstance(m, FactorMap)]
    assert sorted({m.source.name for _, m in edges}) == ["C2*C2", "C3*C2"]
    for i, fm in edges:
        for w in enumerate_words(fm.source, 6):
            assert fm(w) == fm.target.prod(fm.maps[fi](p) for fi, p in w.syllables)
