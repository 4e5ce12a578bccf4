import pytest

from gquot.errors import DomainError
from gquot.gradings import is_connected
from gquot.pullbacks import (
    _free22_words,
    enumerate_admissible_rank4,
    enumerate_admissible_rank5,
    express_rank4,
    express_rank5,
    maximal_gradings_diagonal,
    pi1_report,
    rank4_pullback,
    rank5_pullback,
    tuple_mul,
    tuple_pow,
    verify_presentation_h4,
    verify_presentation_h5,
)
from gquot.words import Word, enumerate_words


def test_admissibility_examples():
    pb = rank4_pullback()
    a = pb.free22.letter(0, 1)
    assert pb.diagram.is_admissible((1, 2, a))  # (x, sigma, a)
    assert pb.diagram.is_admissible((2, 3, pb.free22.identity()))  # (x^2, sigma tau, e)
    assert not pb.diagram.is_admissible((1, 0, pb.free22.identity()))  # (x, e, e)


def test_express_rank4_examples():
    pb = rank4_pullback()
    assert express_rank4(pb.z3, pb) == ["z3"]
    assert express_rank4((2, 0, pb.free22.identity()), pb) == ["z1", "z1"]
    with pytest.raises(DomainError):
        express_rank4((1, 0, pb.free22.identity()), pb)


def test_express_rank4_exhaustive():
    pb = rank4_pullback()
    triples = enumerate_admissible_rank4(6)
    assert len(triples) == 52
    for t in triples:
        word = express_rank4(t, pb)
        assert pb.evaluate(word) == t


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
    e22 = pb.rank4.free22.identity()
    e32 = pb.free32.identity()
    assert express_rank5((0, 0, e22, pb.free32.letter(0, 1)), pb) == ["g"]
    # the central element identity from the construction
    stau = (0, 3, e22, e32)
    S = pb.sources
    assert stau == tuple_mul(S, pb.gen_c, tuple_pow(S, pb.gen_b, 2))
    word = express_rank5(stau, pb)
    assert pb.evaluate(word) == stau


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


def test_q5_certificate_passes_below_the_relation_length():
    rep = verify_presentation_h5(q5_len=7)
    q5 = next(c for c in rep.checks if c.name == "q5_free_product")
    assert q5.passed


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
    free22, free32 = rank4_pullback().free22, rank5_pullback().free32
    got22 = [w.syllables for w in _free22_words(free22, length)]
    assert got22 == [w.syllables for w in reference_free22_words(free22, length)]
    got32 = [w.syllables for w in enumerate_words(free32, length)]
    assert got32 == [w.syllables for w in reference_free32_words(free32, length)]


def brute_force_diagonal_count(n):
    """Independent enumeration: multisets of abelian types with total order n
    and at most one trivial part, generated by direct recursion."""
    from gquot.groups import invariant_factor_sequences

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
        assert is_connected(c.descriptor)
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
