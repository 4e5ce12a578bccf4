import functools
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from gquot import pullbacks
from gquot.errors import CertificationError, DomainError
from gquot.groups import cyclic, invariant_factor_sequences
from gquot.pullbacks import (
    SIGMA,
    SIGMA_TAU,
    CheckRecord,
    DiagonalClass,
    ProductGroup,
    Pullback,
    _q5_certificate,
    _free22_words,
    enumerate_admissible_rank4,
    enumerate_admissible_rank5,
    express_rank4,
    express_rank5,
    maximal_gradings_diagonal,
    pi1_report,
    rank4_pullback,
    rank5_pullback,
    verify_presentation_h4,
    verify_presentation_h5,
)
from gquot.words import FactorMap, FreeProductGroup, Word, enumerate_words


# componentwise arithmetic on tuples over mixed groups, as free functions of
# the sources: the helpers ``ProductGroup`` replaced


def reference_tuple_mul(sources, t1, t2):
    return tuple(g.mul(a, b) for g, a, b in zip(sources, t1, t2))


def reference_tuple_inv(sources, t):
    return tuple(g.inv(a) for g, a in zip(sources, t))


def reference_tuple_identity(sources):
    return tuple(g.identity() for g in sources)


def reference_tuple_pow(sources, t, k: int):
    return tuple(g.prod([a] * k) for g, a in zip(sources, t))


def reference_evaluate(pb, word) -> tuple:
    """The tuple named by a word, as a left fold of whole-tuple products."""
    sources = pb.diagram.sources
    out = reference_tuple_identity(sources)
    for name in word:
        out = reference_tuple_mul(sources, out, pb.generators[name])
    return out


RANK4 = rank4_pullback()
RANK5 = rank5_pullback()


@given(st.lists(st.sampled_from(["z1", "z2", "z3"]), max_size=40))
@settings(max_examples=150, deadline=None)
def test_rank4_evaluate_matches_the_tuple_fold(word):
    assert RANK4.evaluate(word) == reference_evaluate(RANK4, word)


@given(st.lists(st.sampled_from(["w", "b", "c", "g"]), max_size=40))
@settings(max_examples=150, deadline=None)
def test_rank5_evaluate_matches_the_tuple_fold(word):
    assert RANK5.evaluate(word) == reference_evaluate(RANK5, word)


def reference_evaluate_by_mul(pb, word) -> tuple:
    """The tuple named by a word, each component a left fold of its group's ``mul``."""
    gens = [pb.generators[name] for name in word]
    return tuple(
        functools.reduce(g.mul, (gen[i] for gen in gens), g.identity())
        for i, g in enumerate(pb.diagram.sources)
    )


def reference_factor_map(fm, w) -> int:
    """The image of a word, as a left fold of target products over its syllables."""
    out = 0
    for fi, p in w.syllables:
        out = fm.target.mul(out, fm.maps[fi](p))
    return out


def assert_matches_the_folds(pb, t, word):
    assert pb.evaluate(word) == reference_evaluate_by_mul(pb, word) == t
    for (i, _), mapping in pb.diagram.edges.items():
        if isinstance(mapping, FactorMap):
            assert mapping(t[i]) == reference_factor_map(mapping, t[i])


def test_rank4_expressions_match_the_folds():
    triples = enumerate_admissible_rank4(40)
    assert len(triples) == 324
    for t in triples:
        assert_matches_the_folds(RANK4, t, express_rank4(t, RANK4))


def test_rank5_expressions_match_the_folds():
    for t in enumerate_admissible_rank5(4, 4):
        assert_matches_the_folds(RANK5, t, express_rank5(t, RANK5))


def reference_power_loop(sources, t, k):
    out = reference_tuple_identity(sources)
    for _ in range(k):
        out = reference_tuple_mul(sources, out, t)
    return out


@pytest.mark.parametrize("pb", [RANK4, RANK5], ids=["rank4", "rank5"])
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_product_group_matches_the_tuple_helpers(pb, data):
    """``mul``, ``inv``, ``identity`` and ``prod`` (powers k = -1..8 among
    them) against the free functions, on values of random generator words."""
    S, P = pb.diagram.sources, pb.group
    assert P == ProductGroup(S)
    word = st.lists(st.sampled_from(sorted(pb.generators)), max_size=12)
    s, t = reference_evaluate(pb, data.draw(word)), reference_evaluate(pb, data.draw(word))
    assert P.identity() == reference_tuple_identity(S)
    assert P.mul(s, t) == reference_tuple_mul(S, s, t)
    assert P.inv(t) == reference_tuple_inv(S, t)
    tuples = [reference_evaluate(pb, w) for w in data.draw(st.lists(word, max_size=5))]
    fold = functools.reduce(functools.partial(reference_tuple_mul, S), tuples, reference_tuple_identity(S))
    assert P.prod(tuples) == fold
    for k in range(-1, 9):
        assert P.prod([t] * k) == reference_tuple_pow(S, t, k) == reference_power_loop(S, t, k)


def generator_sequences(pb, length):
    """Every sequence of ``length`` tuples from the generators and their inverses."""
    steps = [s for t in pb.generators.values() for s in (t, pb.group.inv(t))]
    return itertools.product(steps, repeat=length)


@pytest.mark.parametrize("pb", [RANK4, RANK5], ids=["rank4", "rank5"])
@pytest.mark.parametrize("length", range(5))
def test_product_group_prod_matches_the_mul_fold(pb, length):
    """``prod`` by columns against a left fold of ``mul`` from the identity,
    on every sequence of generators and inverses of length 0 to 4."""
    P = pb.group
    for tuples in generator_sequences(pb, length):
        assert P.prod(tuples) == functools.reduce(P.mul, tuples, P.identity())
        assert P.prod(iter(tuples)) == P.prod(list(tuples))


@pytest.mark.parametrize("pb", [RANK4, RANK5], ids=["rank4", "rank5"])
def test_product_group_prod_refuses_tuples_of_the_wrong_length(pb):
    """A short or long tuple anywhere in the sequence of ``prod``, as either
    argument of ``mul`` or as the argument of ``inv`` raises; ``zip`` never
    truncates it."""
    P = pb.group
    t = pb.generators[sorted(pb.generators)[0]]
    for bad in (t[:-1], t + t[-1:], ()):
        for tuples in ([bad], [t, bad], [bad, t], [t, bad, t], [bad, bad]):
            with pytest.raises(DomainError, match="^tuple length does not match the product's factors$"):
                P.prod(tuples)
        for s, u in ((bad, t), (t, bad), (bad, bad)):
            with pytest.raises(DomainError, match="^tuple length does not match the product's factors$"):
                P.mul(s, u)
        with pytest.raises(DomainError, match="^tuple length does not match the product's factors$"):
            P.inv(bad)


def test_pullbacks_share_their_source_groups():
    """Two pull-backs of each rank have the same source and target objects,
    and the rank-5 sources extend the rank-4 ones; each call has its own
    generators dict."""
    first, second = rank4_pullback(), rank4_pullback()
    assert all(a is b for a, b in zip(first.diagram.sources, second.diagram.sources, strict=True))
    assert first.diagram.targets["y"] is second.diagram.targets["y"]
    assert first.generators is not second.generators and first.generators == second.generators
    five, again = rank5_pullback(), rank5_pullback()
    assert all(a is b for a, b in zip(five.diagram.sources, again.diagram.sources, strict=True))
    assert all(a is b for a, b in zip(five.diagram.sources, first.diagram.sources))
    assert five.generators is not again.generators


def test_expressions_compare_no_group_tables(monkeypatch):
    """Tuples enumerated on one pull-back and expressed with another reach
    no ``FiniteGroup.__eq__`` that compares two distinct groups' tables."""
    from gquot.groups import FiniteGroup

    compared, eq = [], FiniteGroup.__eq__

    def counted(self, other):
        if self is not other:
            compared.append((self, other))
        return eq(self, other)

    rank4, rank5 = enumerate_admissible_rank4(60), enumerate_admissible_rank5(6, 6)
    pb4, pb5 = rank4_pullback(), rank5_pullback()
    monkeypatch.setattr(FiniteGroup, "__eq__", counted)
    for t in rank4:
        express_rank4(t, pb4)
    for t in rank5:
        express_rank5(t, pb5)
    assert compared == []


def test_unknown_generator_names_raise_key_error():
    with pytest.raises(KeyError):
        RANK4.generators["w"]
    with pytest.raises(KeyError):
        RANK5.generators["z1"]
    with pytest.raises(KeyError):
        RANK5.evaluate(["w", "gen_w"])


def reference_is_admissible(diagram, t) -> bool:
    """The per-target scan ``is_admissible`` replaced: for each target, the
    list of its edges' images and their set."""
    for key in diagram.targets:
        images = [mapping(t[i]) for (i, k), mapping in diagram.edges.items() if k == key]
        if len(set(images)) > 1:
            return False
    return True


@pytest.mark.parametrize(
    "pb, tuples",
    [(RANK4, enumerate_admissible_rank4(60)), (RANK5, enumerate_admissible_rank5(6, 6))],
    ids=["rank4", "rank5"],
)
def test_is_admissible_matches_the_per_target_scan(pb, tuples):
    """Every listed tuple, and each with one finite component changed."""
    diagram = pb.diagram
    rejected = 0
    for t in tuples:
        assert diagram.is_admissible(t) and reference_is_admissible(diagram, t)
        for i in (0, 1):
            for x in diagram.sources[i].elements():
                u = t[:i] + (x,) + t[i + 1:]
                assert diagram.is_admissible(u) == reference_is_admissible(diagram, u)
                rejected += not reference_is_admissible(diagram, u)
    assert rejected > 0


def test_admissibility_examples():
    pb = rank4_pullback()
    free22 = pb.diagram.sources[2]
    a = free22.letter(0, 1)
    assert pb.diagram.is_admissible((1, 2, a))  # (x, sigma, a)
    assert pb.diagram.is_admissible((2, 3, free22.identity()))  # (x^2, sigma tau, e)
    assert not pb.diagram.is_admissible((1, 0, free22.identity()))  # (x, e, e)


def test_express_rank4_examples():
    pb = rank4_pullback()
    e22 = pb.diagram.sources[2].identity()
    assert express_rank4(pb.generators["z3"], pb) == ["z3"]
    assert express_rank4((2, 0, e22), pb) == ["z1", "z1"]
    with pytest.raises(DomainError):
        express_rank4((1, 0, e22), pb)


def test_express_rank4_exhaustive():
    pb = rank4_pullback()
    triples = enumerate_admissible_rank4(6)
    assert len(triples) == 52
    for t in triples:
        word = express_rank4(t, pb)
        assert pb.evaluate(word) == t


def reference_admissible_rank4(max_syllables):
    """The brute-force list: the product of the candidate pools in the
    enumerator's loop order (free word, C4, Klein), filtered by admissibility."""
    pb = rank4_pullback()
    c4, klein, free22 = pb.diagram.sources
    pools = (_free22_words(free22, max_syllables), c4.elements(), klein.elements())
    return [(g1, g2, w) for w, g1, g2 in itertools.product(*pools) if pb.diagram.is_admissible((g1, g2, w))]


def reference_admissible_rank5(max_len_22, max_len_32):
    """The brute-force list in the loop order (C2*C2 word, C3*C2 word, C4, Klein)."""
    pb = rank5_pullback()
    c4, klein, free22, free32 = pb.diagram.sources
    pools = (
        _free22_words(free22, max_len_22),
        enumerate_words(free32, max_len_32),
        c4.elements(),
        klein.elements(),
    )
    return [
        (g1, g2, w3, w4)
        for w3, w4, g1, g2 in itertools.product(*pools)
        if pb.diagram.is_admissible((g1, g2, w3, w4))
    ]


@pytest.mark.parametrize("length", [*range(13), 40])
def test_rank4_fibres_match_the_brute_force_product(length):
    assert enumerate_admissible_rank4(length) == reference_admissible_rank4(length)


@pytest.mark.parametrize("len22", range(7))
def test_rank5_fibres_match_the_brute_force_product(len22):
    for len32 in range(7):
        assert enumerate_admissible_rank5(len22, len32) == reference_admissible_rank5(len22, len32)


def test_rank4_presentation_passes():
    rep = verify_presentation_h4()
    assert rep.all_passed
    names = {c.name for c in rep.checks}
    assert {"z3_order_2", "z3_central", "z1sq_equals_z2sq", "beta4_kernel"} <= names


def test_rank5_admissible_and_exhaustive():
    pb = rank5_pullback()
    quads = enumerate_admissible_rank5(4, 4)
    assert len(quads) == 404
    for t in quads:
        word = express_rank5(t, pb)
        assert pb.evaluate(word) == t


def test_express_rank5_examples():
    pb = rank5_pullback()
    free22, free32 = pb.diagram.sources[2:]
    e22 = free22.identity()
    e32 = free32.identity()
    assert express_rank5((0, 0, e22, free32.letter(0, 1)), pb) == ["g"]
    # the central element identity from the construction
    stau = (0, 3, e22, e32)
    S = pb.diagram.sources
    assert stau == reference_tuple_mul(S, pb.generators["c"], reference_tuple_pow(S, pb.generators["b"], 2))
    word = express_rank5(stau, pb)
    assert pb.evaluate(word) == stau


def reference_express_rank4(t, pb):
    """The rank-4 procedure as it checked itself before the shared
    construction: the residue on all three components, a closing test and
    an exact evaluation."""
    if not pb.diagram.is_admissible(t):
        raise DomainError("triple is not admissible")
    word = ["z1" if fi == 0 else "z2" for fi, _ in t[2].syllables]
    sources = pb.diagram.sources
    residue = reference_tuple_mul(sources, reference_tuple_inv(sources, t), pb.evaluate(word))
    if residue[1] == SIGMA_TAU:
        word.append("z3")
        residue = reference_tuple_mul(sources, residue, pb.generators["z3"])
    if residue[1] != 0:
        raise CertificationError("Klein residue escaped the projection kernel")
    if residue[0] == 2:
        word.extend(["z1", "z1"])
        residue = reference_tuple_mul(sources, residue, reference_tuple_pow(sources, pb.generators["z1"], 2))
    if residue != reference_tuple_identity(sources):
        raise CertificationError("rank-4 expression did not close")
    if pb.evaluate(word) != t:
        raise CertificationError("rank-4 expression failed verification")
    return word


def reference_express_rank5(t, pb):
    """The rank-5 procedure through the verified public rank-4 entry."""
    if not pb.diagram.is_admissible(t):
        raise DomainError("tuple is not admissible")
    word4 = reference_express_rank4((t[0], t[1], t[2]), RANK4)
    mapped = ["w" if s == "z1" else ("b" if s == "z2" else "c") for s in word4]
    target = list(t[3].syllables)
    needed_h = sum(1 for fi, _ in target if fi == 1)
    while sum(1 for s in mapped if s == "w") < needed_h:
        mapped.extend(["w", "w", "w", "w"])
    out = []
    si = 0
    for sym in mapped:
        if sym == "w":
            while si < len(target) and target[si][0] == 0:
                out.extend(["g"] * target[si][1])
                si += 1
            if si < len(target) and target[si][0] == 1:
                si += 1
        out.append(sym)
    while si < len(target) and target[si][0] == 0:
        out.extend(["g"] * target[si][1])
        si += 1
    if si != len(target):
        raise CertificationError("fourth component could not be spelled")
    if pb.evaluate(out) != t:
        raise CertificationError("rank-5 expression failed verification")
    return out


@pytest.mark.parametrize("length, count", [(6, 52), (40, 324), (60, 484)])
def test_express_rank4_matches_the_reference(length, count):
    """The battery's tuples (lengths 6 and 40) and the benchmark's (60)."""
    triples = enumerate_admissible_rank4(length)
    assert len(triples) == count
    for t in triples:
        assert express_rank4(t, RANK4) == reference_express_rank4(t, RANK4)


@pytest.mark.parametrize("lengths, count", [((4, 4), 404), ((6, 6), 1316)])
def test_express_rank5_matches_the_reference(lengths, count):
    """The battery's tuples (4, 4) and the benchmark's (6, 6)."""
    quads = enumerate_admissible_rank5(*lengths)
    assert len(quads) == count
    for t in quads:
        assert express_rank5(t, RANK5) == reference_express_rank5(t, RANK5)


def test_final_checks_catch_a_construction_without_z3(monkeypatch):
    """With the z3 correction dropped from the shared construction, each
    public entry's one exact check must refuse every tuple that needed it."""
    original = pullbacks._rank4_word

    def without_z3(pb, t, names):
        return [s for s in original(pb, t, names) if s != names[2]]

    monkeypatch.setattr(pullbacks, "_rank4_word", without_z3)
    triples = [t for t in enumerate_admissible_rank4(8) if "z3" in reference_express_rank4(t, RANK4)]
    quads = [t for t in enumerate_admissible_rank5(3, 3) if "c" in reference_express_rank5(t, RANK5)]
    assert triples and quads
    for t in triples:
        with pytest.raises(CertificationError, match="rank-4 expression failed verification"):
            express_rank4(t, RANK4)
    for t in quads:
        with pytest.raises(CertificationError, match="rank-5 expression failed verification"):
            express_rank5(t, RANK5)


def corrupted_rank4(name, value):
    """The rank-4 pull-back with the generator ``name`` replaced by ``value``."""
    return Pullback(RANK4.diagram, {**RANK4.generators, name: value})


def test_a_z3_off_the_klein_kernel_leaves_a_klein_residue():
    """z3 = (x^2, sigma tau, e) corrects the Klein residue sigma tau; with
    its Klein component sigma instead, the residue of the admissible triple
    z3 itself becomes tau, outside the projection kernel."""
    pb = corrupted_rank4("z3", (2, SIGMA, RANK4.diagram.sources[2].identity()))
    with pytest.raises(CertificationError, match="^Klein residue escaped the projection kernel$"):
        express_rank4(RANK4.generators["z3"], pb)


def test_a_z1_with_an_even_c4_component_does_not_close():
    """z1 = (x, sigma, a) spells the letter a; with the C4 component x^2
    instead, the C4 residue of the admissible triple z1 itself is x, which
    neither z3 nor z1^2 can correct."""
    pb = corrupted_rank4("z1", (2, SIGMA, RANK4.diagram.sources[2].letter(0, 1)))
    with pytest.raises(CertificationError, match="^rank-4 expression did not close$"):
        express_rank4(RANK4.generators["z1"], pb)


C3C2 = FreeProductGroup((cyclic(3), cyclic(2)))
F22 = RANK4.diagram.sources[2]
F32 = RANK5.diagram.sources[3]


@pytest.mark.parametrize(
    "t",
    [
        (1, SIGMA, C3C2.word([(0, 2)])),  # a C3*C2 payload outside C2
        (1, SIGMA, C3C2.letter(1, 1)),  # h: admissible by its image, but foreign
        (7, 0, F22.identity()),
        (-1, 0, F22.identity()),
        (1, SIGMA + 4, F22.letter(0, 1)),
        (1.0, SIGMA, F22.letter(0, 1)),
        (1, SIGMA, (0, 1)),
    ],
    ids=["foreign-payload", "foreign-word", "c4-range", "negative", "klein-range", "float", "bare-syllable"],
)
def test_rank4_components_outside_their_sources_raise(t):
    with pytest.raises(DomainError, match="is not an element of its source"):
        express_rank4(t, RANK4)


@pytest.mark.parametrize(
    "t",
    [
        (1, SIGMA, F22.letter(1, 1), F22.letter(0, 1)),  # a in C2*C2 where C3*C2 belongs
        (1, SIGMA, C3C2.letter(1, 1), F32.letter(1, 1)),
        (4, 0, F22.identity(), F32.identity()),
    ],
    ids=["foreign-fourth", "foreign-third", "c4-range"],
)
def test_rank5_components_outside_their_sources_raise(t):
    with pytest.raises(DomainError, match="is not an element of its source"):
        express_rank5(t, RANK5)


def test_members_of_an_equal_free_product_are_accepted():
    """Membership compares free products by their factors, as products do."""
    other = FreeProductGroup((cyclic(2), cyclic(2)), name="C2*C2")
    t = (1, SIGMA, other.letter(0, 1))
    assert t[2].group is not F22
    assert express_rank4(t, RANK4) == ["z1"]


def test_rank5_presentation_statuses():
    rep = verify_presentation_h5(q5_len=8)
    by_name = {c.name: c for c in rep.checks}
    for name in (
        "central_element_identity",
        "central_element_commutes",
        "central_element_order_2",
        "zbar6_wbar2",
        "kernel_b_squared",
        "h5_meets_center_trivially",
        "beta5_kernel",
    ):
        assert by_name[name].passed, name
    # the free-product certificate finds the genuine length-8 relation in the
    # pull-back (the fiber product is not the claimed free product)
    q5 = by_name["q5_free_product"]
    assert not q5.passed
    assert "alternating relation found" in q5.detail
    assert not rep.all_passed


@pytest.mark.parametrize("verify", [verify_presentation_h4, verify_presentation_h5])
@pytest.mark.parametrize("length", [0, -3])
def test_certificates_below_length_one_raise(verify, length):
    """Below length 1 no word is tried, so the bounded checks would pass vacuously."""
    with pytest.raises(DomainError, match="at least 1"):
        verify(length)


def test_q5_certificate_passes_below_the_relation_length():
    rep = verify_presentation_h5(q5_len=7)
    q5 = next(c for c in rep.checks if c.name == "q5_free_product")
    assert q5.passed


def reference_q5_certificate(pb, max_syllables):
    """The breadth-first word generator ``_q5_certificate`` replaced: every
    alternating word of each length, built from the level before with a
    fresh power of u1u2 per node, checked a whole level at a time."""
    f22, f32 = pb.diagram.sources[2:]
    sources = (f22, f32)
    u12 = (f22.letter(1, 1), f32.letter(0, 1))
    u3 = (f22.letter(0, 1), f32.letter(1, 1))
    ident = reference_tuple_identity(sources)
    orders_ok = (
        all(reference_tuple_pow(sources, u12, k) != ident for k in range(1, 6))
        and reference_tuple_pow(sources, u12, 6) == ident
        and reference_tuple_pow(sources, u3, 2) == ident
    )
    if not orders_ok:
        return CheckRecord("q5_free_product", False, "generator orders are wrong")
    frontier = [(ident, "start", ())]
    for _ in range(max_syllables):
        nxt = []
        for elem, last, path in frontier:
            if last != "u12":
                for k in range(1, 6):
                    step = reference_tuple_pow(sources, u12, k)
                    nxt.append((reference_tuple_mul(sources, elem, step), "u12", path + (f"(u1u2)^{k}",)))
            if last != "u3":
                nxt.append((reference_tuple_mul(sources, elem, u3), "u3", path + ("u3",)))
        for elem, _, path in nxt:
            if elem == ident:
                return CheckRecord(
                    "q5_free_product",
                    False,
                    "alternating relation found: " + " ".join(path) + " = e",
                )
        frontier = nxt
    return CheckRecord(
        "q5_free_product",
        True,
        f"no alternating relation up to {max_syllables} syllables; orders 6 and 2 verified",
    )


@pytest.mark.parametrize("length", range(10))
def test_q5_certificate_matches_reference(length):
    assert _q5_certificate(RANK5, length) == reference_q5_certificate(RANK5, length)


def test_q5_certificate_stops_at_the_first_relation(monkeypatch):
    """A long bound costs what the shortest relation costs: the words are
    built lazily and the search ends at the length-8 collapse.  A search that
    built words beyond length 8 fails at the first one, not after them all."""
    free62 = FreeProductGroup((cyclic(6), cyclic(2)))
    bound = sum(1 for _ in enumerate_words(free62, 8))
    built = 0
    reduced = Word._reduced.__func__

    def counted(cls, group, syllables):
        nonlocal built
        if tuple(f.n for f in group.factors) == (6, 2):  # not the pull-back's own products
            built += 1
            assert built <= bound, "words beyond the first relation were built"
        return reduced(cls, group, syllables)

    monkeypatch.setattr(Word, "_reduced", classmethod(counted))
    record = _q5_certificate(RANK5, 30)
    assert record == reference_q5_certificate(RANK5, 8)
    assert not record.passed and 0 < built


def reference_free22_words(free22, max_syllables):
    words = [free22.identity()]
    for start in (0, 1):
        for length in range(1, max_syllables + 1):
            words.append(Word(free22, tuple(((start + i) % 2, 1) for i in range(length))))
    return words


def reference_free32_words(free32, max_syllables):
    words = [free32.identity()]
    frontier = [free32.identity()]
    for _ in range(max_syllables):
        nxt = []
        for w in frontier:
            last = w.syllables[-1][0] if w.syllables else None
            for fi, payloads in ((0, (1, 2)), (1, (1,))):
                if fi != last:
                    nxt.extend(Word(free32, w.syllables + ((fi, p),)) for p in payloads)
        words.extend(nxt)
        frontier = nxt
    return words


@pytest.mark.parametrize("length", range(9))
def test_word_lists_match_the_hand_built_lists(length):
    """Same words in the same order, so the admissible lists keep their order."""
    free22, free32 = rank5_pullback().diagram.sources[2:]
    got22 = [w.syllables for w in _free22_words(free22, length)]
    assert got22 == [w.syllables for w in reference_free22_words(free22, length)]
    got32 = [w.syllables for w in enumerate_words(free32, length)]
    assert got32 == [w.syllables for w in reference_free32_words(free32, length)]


def reference_maximal_gradings_diagonal(n):
    """The enumerator the one recursion replaced: the partitions of n with at
    most one unit part, the product of the abelian types of each partition's
    non-trivial parts, deduplicated by a ``seen`` set, then sorted."""

    def partitions(remaining, maximum, acc):
        if remaining == 0:
            yield tuple(acc)
            return
        for part in range(min(remaining, maximum), 0, -1):
            if part == 1 and acc and acc[-1] == 1:
                continue  # at most one trivial factor
            yield from partitions(remaining - part, part, acc + [part])

    out = []
    for partition in partitions(n, n, []):
        nontrivial = [p for p in partition if p > 1]
        seen = set()
        for combo in itertools.product(*(invariant_factor_sequences(k) for k in nontrivial)):
            key = tuple(sorted(combo))
            if key not in seen:
                seen.add(key)
                out.append(DiagonalClass(factor_invariants=key, has_trivial_part=len(nontrivial) != len(partition)))
    out.sort(key=lambda c: (c.factor_invariants, c.has_trivial_part))
    return out


@pytest.mark.parametrize("n", range(2, 13))
def test_diagonal_recursion_matches_the_partition_enumerator(n):
    assert maximal_gradings_diagonal(n) == reference_maximal_gradings_diagonal(n)


def brute_force_diagonal_count(n):
    """Independent enumeration: multisets of abelian types with total order n
    and at most one trivial part, generated by direct recursion."""

    def types(k):
        return invariant_factor_sequences(k)

    seen = set()

    def rec(remaining, min_order, acc):
        if remaining == 0:
            seen.add(tuple(sorted(acc)))
            return
        for k in range(min_order, remaining + 1):
            if k == 1:
                if any(t == () for t in acc):
                    continue
                rec(remaining - 1, 1, acc + [()])
                continue
            for t in types(k):
                rec(remaining - k, k, acc + [t])

    rec(n, 1, [])
    return len(seen)


@pytest.mark.parametrize("n,count", [(2, 1), (3, 2), (4, 4), (5, 5)])
def test_diagonal_counts_match_the_lists(n, count):
    import math

    classes = maximal_gradings_diagonal(n)
    assert len(classes) == count
    for c in classes:
        total = sum(math.prod(invs) for invs in c.factor_invariants)
        assert total + (1 if c.has_trivial_part else 0) == n


@pytest.mark.parametrize("n", range(2, 13))
def test_diagonal_counts_match_brute_force(n):
    assert len(maximal_gradings_diagonal(n)) == brute_force_diagonal_count(n)


def test_diagonal_rank4_exact_list():
    labels = sorted(c.label for c in maximal_gradings_diagonal(4))
    assert labels == ["C2 * C2", "C2xC2", "C3 + C", "C4"]


def test_diagonal_rank5_exact_list():
    labels = sorted(c.label for c in maximal_gradings_diagonal(5))
    assert labels == ["C2 * C2 + C", "C2 * C3", "C2xC2 + C", "C4 + C", "C5"]


def test_pi1_reports():
    assert pi1_report(2).structure == "C2"
    assert pi1_report(3).structure == "C3 x C2"
    r4 = pi1_report(4)
    assert r4.structure == "H4 x C6" and r4.verified
    r5 = pi1_report(5)
    assert r5.structure == "H5 x C10"
    # rank 5 carries the documented failing free-product certificate
    assert not r5.verified
    with pytest.raises(DomainError):
        pi1_report(6)
