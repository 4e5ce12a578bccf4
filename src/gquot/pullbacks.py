"""Pull-backs of grading-group diagrams and the rank-4/5 diagonal algebras.

The maximal connected gradings of the diagonal algebra C^n are free products
of group algebras of abelian groups.  Their maximal common quotients, for
n = 4 and 5, form small diagrams whose pull-backs are computed here at the
word level: admissible tuples are expressed in explicit generators by the
rewriting procedure that proves the generation claims, and the presentation
data of the resulting central extensions is verified by direct word
computation with bounded-length certificates for the freeness claims.

Each diagram (which classes share which quotients) is stated once, as the
edge maps of a ``GroupDiagram``; deriving it from first principles is out
of scope.  The admissible-tuple enumerators read the fibres of those maps.

The two expression entries, ``express_rank4`` and ``express_rank5``, each
check a tuple once on entry (every component an element of its source, all
images in each common quotient equal) and once at the end (the word
evaluates to the tuple).  Between them runs one construction, ``_rank4_word``,
which reads the C2*C2 component letter by letter and decides the z3 and
z1^2 corrections on the finite components only.  The rank-5 diagram
contains the rank-4 edges, and on the first three components w, b and c
are z1, z2 and z3 while g is trivial, so the final rank-5 check also
verifies the rank-4 word inside it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import CertificationError, DomainError, ValidationError
from .groups import (
    FiniteGroup,
    GroupHom,
    cyclic,
    direct_product,
    invariant_factor_sequences,
)
from .words import FactorMap, FreeProductGroup, Word, enumerate_words

H5_WORD_LEN = 6  # word length of the bounded <w,b,g> certificate in verify_presentation_h5

# the field of each pull-back's tuple behind a generator name
_RANK4_FIELDS = {"z1": "z1", "z2": "z2", "z3": "z3"}
_RANK5_FIELDS = {"w": "gen_w", "b": "gen_b", "c": "gen_c", "g": "gen_g"}


# -- componentwise arithmetic on tuples over mixed groups ---------------------


def tuple_mul(sources, t1, t2):
    return tuple(g.mul(a, b) for g, a, b in zip(sources, t1, t2))


def tuple_inv(sources, t):
    return tuple(g.inv(a) for g, a in zip(sources, t))


def tuple_identity(sources):
    return tuple(g.identity() for g in sources)


def tuple_pow(sources, t, k: int):
    return tuple(g.prod([a] * k) for g, a in zip(sources, t))


# -- diagrams ------------------------------------------------------------------


@dataclass(frozen=True)
class Edge:
    source_index: int
    target_key: str
    mapping: object  # GroupHom for finite sources, FactorMap for free products


@dataclass(frozen=True)
class GroupDiagram:
    sources: tuple
    targets: dict
    edges: tuple[Edge, ...]

    def __post_init__(self):
        for e in self.edges:
            target = self.targets[e.target_key]
            m = e.mapping
            if not isinstance(m, (GroupHom, FactorMap)):
                raise ValidationError("edge mapping must be a GroupHom or FactorMap")
            if not (m.target == target and m.is_surjective()):
                raise ValidationError(f"edge into {e.target_key!r} is not a verified epimorphism")

    def is_admissible(self, t) -> bool:
        """Whether the images of ``t`` agree in every common quotient; a
        tuple of the wrong length or with a component outside its source
        raises ``DomainError``."""
        if len(t) != len(self.sources):
            raise DomainError("tuple length does not match diagram sources")
        for i, (group, x) in enumerate(zip(self.sources, t)):
            if not _is_element(group, x):
                raise DomainError(f"tuple component {i} is not an element of its source")
        for key in self.targets:
            images = [e.mapping(t[e.source_index]) for e in self.edges if e.target_key == key]
            if len(set(images)) > 1:
                return False
        return True

    def edge_maps(self) -> dict:
        """Each edge's mapping, keyed by (source_index, target_key)."""
        return {(e.source_index, e.target_key): e.mapping for e in self.edges}


def _is_element(group, x) -> bool:
    """Membership in a source: a reduced word of that free product, or an
    int in ``range(n)`` for a finite group."""
    if isinstance(group, FreeProductGroup):
        return isinstance(x, Word) and (x.group is group or x.group == group)
    return isinstance(x, int) and 0 <= x < group.n


def _fibres(mapping, elements) -> dict:
    """The elements by their image under an edge map, each fibre in the given order."""
    out: dict = {}
    for x in elements:
        out.setdefault(mapping(x), []).append(x)
    return out


def _finite_pairs_over_y(diagram: GroupDiagram) -> dict:
    """The admissible (C4, Klein) components over each element of the common
    quotient y: the product of the two fibres, in index order."""
    maps = diagram.edge_maps()
    c4, klein = (_fibres(maps[i, "y"], diagram.sources[i].elements()) for i in (0, 1))
    return {y: [(g1, g2) for g1 in c4[y] for g2 in klein[y]] for y in c4}


# -- the rank-4 diagram ---------------------------------------------------------


class _GeneratedPullback:
    """A pull-back of a diagram with named generators; subclasses define
    ``diagram`` and ``generator(name)``."""

    @property
    def sources(self):
        return self.diagram.sources

    def evaluate(self, word) -> tuple:
        """The tuple named by a word in the generators: each component is
        one ``prod`` of its own group."""
        gens = [self.generator(name) for name in word]
        return tuple(g.prod(gen[i] for gen in gens) for i, g in enumerate(self.sources))


@dataclass(frozen=True)
class Rank4Pullback(_GeneratedPullback):
    """Sources C4, C2xC2, C2*C2 over a common C2 quotient, with generators."""

    diagram: GroupDiagram
    c4: FiniteGroup
    klein: FiniteGroup
    free22: FreeProductGroup
    z1: tuple
    z2: tuple
    z3: tuple

    def generator(self, name: str):
        return getattr(self, _RANK4_FIELDS[name])


SIGMA = 2      # (1,0) in C2xC2
TAU = 1        # (0,1)
SIGMA_TAU = 3  # (1,1)


def rank4_pullback() -> Rank4Pullback:
    c4 = cyclic(4)
    klein = direct_product(cyclic(2), cyclic(2))
    free22 = FreeProductGroup((cyclic(2), cyclic(2)), name="C2*C2")
    c2 = cyclic(2)
    psi1 = GroupHom(c4, c2, (0, 1, 0, 1))
    psi2 = GroupHom(klein, c2, (0, 1, 1, 0))
    psi3 = FactorMap(free22, c2, (GroupHom(cyclic(2), c2, (0, 1)), GroupHom(cyclic(2), c2, (0, 1))))
    diagram = GroupDiagram(
        sources=(c4, klein, free22),
        targets={"y": c2},
        edges=(Edge(0, "y", psi1), Edge(1, "y", psi2), Edge(2, "y", psi3)),
    )
    a = free22.letter(0, 1)
    b = free22.letter(1, 1)
    return Rank4Pullback(
        diagram=diagram,
        c4=c4,
        klein=klein,
        free22=free22,
        z1=(1, SIGMA, a),
        z2=(1, SIGMA, b),
        z3=(2, SIGMA_TAU, free22.identity()),
    )


def enumerate_admissible_rank4(max_syllables: int) -> list[tuple]:
    """Every admissible triple whose free component has bounded length: for
    each free word w, the finite components from the fibres over its image."""
    pb = rank4_pullback()
    to_y = pb.diagram.edge_maps()[2, "y"]
    pairs = _finite_pairs_over_y(pb.diagram)
    return [(g1, g2, w) for w in _free22_words(pb.free22, max_syllables) for g1, g2 in pairs[to_y(w)]]


def _free22_words(free22: FreeProductGroup, max_syllables: int) -> list:
    """The words of C2 * C2 in the order the admissible lists have always used:
    the identity, then by first letter, then by length."""
    return sorted(enumerate_words(free22, max_syllables), key=lambda w: (w.syllables[:1], len(w.syllables)))


def _rank4_word(pb: Rank4Pullback, t) -> list[str]:
    """The generating procedure on an admissible triple, unverified.

    The free component fixes the word letter by letter, z1 for a and z2 for
    b, so the word's own free component is t[2] and only the residue
    t^-1 * value(word) on the C4 and Klein components is left.  It is
    corrected first by z3 (kernel of the Klein projection) and then by z1^2
    (kernel of the C4 projection).
    """
    word = ["z1" if fi == 0 else "z2" for fi, _ in t[2].syllables]
    c4, klein = pb.c4, pb.klein
    gens = [pb.generator(name) for name in word]
    x = c4.mul(c4.inv(t[0]), c4.prod(gen[0] for gen in gens))
    k = klein.mul(klein.inv(t[1]), klein.prod(gen[1] for gen in gens))
    if k == SIGMA_TAU:
        word.append("z3")
        x, k = c4.mul(x, pb.z3[0]), klein.mul(k, pb.z3[1])
    if k != 0:
        raise CertificationError("Klein residue escaped the projection kernel")
    if x == 2:
        word.extend(["z1", "z1"])
        x = c4.prod((x, pb.z1[0], pb.z1[0]))
    if x != 0:
        raise CertificationError("rank-4 expression did not close")
    return word


def express_rank4(t, pb: Rank4Pullback | None = None) -> list[str]:
    """Write an admissible triple as a word in z1, z2, z3.

    Checks membership and admissibility on entry, builds the word by
    ``_rank4_word`` and verifies exactly that it evaluates to ``t``.
    """
    pb = pb or rank4_pullback()
    if not pb.diagram.is_admissible(t):
        raise DomainError("triple is not admissible")
    word = _rank4_word(pb, t)
    if pb.evaluate(word) != t:
        raise CertificationError("rank-4 expression failed verification")
    return word


# -- the rank-5 diagram ----------------------------------------------------------


@dataclass(frozen=True)
class Rank5Pullback(_GeneratedPullback):
    diagram: GroupDiagram
    rank4: Rank4Pullback
    free32: FreeProductGroup
    gen_w: tuple       # (x, sigma, a, h)
    gen_b: tuple       # (x, sigma, b, e)
    gen_c: tuple       # (x^2, sigma tau, e, e)
    gen_g: tuple       # (e, e, e, g)

    def generator(self, name: str):
        return getattr(self, _RANK5_FIELDS[name])


def rank5_pullback() -> Rank5Pullback:
    pb4 = rank4_pullback()
    free32 = FreeProductGroup((cyclic(3), cyclic(2)), name="C3*C2")
    c2k = cyclic(2)
    # red sub-diagram: a and h to the common involution, b and g to the identity
    phi1 = FactorMap(
        pb4.free22, c2k, (GroupHom(cyclic(2), c2k, (0, 1)), GroupHom(cyclic(2), c2k, (0, 0)))
    )
    phi2 = FactorMap(
        free32, c2k, (GroupHom(cyclic(3), c2k, (0, 0, 0)), GroupHom(cyclic(2), c2k, (0, 1)))
    )
    d4 = pb4.diagram
    diagram = GroupDiagram(
        sources=(pb4.c4, pb4.klein, pb4.free22, free32),
        targets={"y": d4.targets["y"], "kappa": c2k},
        edges=(*d4.edges, Edge(2, "kappa", phi1), Edge(3, "kappa", phi2)),
    )
    a = pb4.free22.letter(0, 1)
    b = pb4.free22.letter(1, 1)
    g = free32.letter(0, 1)
    h = free32.letter(1, 1)
    e32 = free32.identity()
    e22 = pb4.free22.identity()
    return Rank5Pullback(
        diagram=diagram,
        rank4=pb4,
        free32=free32,
        gen_w=(1, SIGMA, a, h),
        gen_b=(1, SIGMA, b, e32),
        gen_c=(2, SIGMA_TAU, e22, e32),
        gen_g=(0, 0, e22, g),
    )


def enumerate_admissible_rank5(max_len_22: int, max_len_32: int) -> list[tuple]:
    """Every admissible 4-tuple whose free components have bounded lengths: for
    each C2*C2 word w3, the C3*C2 words from the fibre over its image in kappa
    and the finite components from the fibres over its image in y."""
    pb = rank5_pullback()
    maps = pb.diagram.edge_maps()
    pairs = _finite_pairs_over_y(pb.diagram)
    words32 = _fibres(maps[3, "kappa"], enumerate_words(pb.free32, max_len_32))
    out = []
    for w3 in _free22_words(pb.rank4.free22, max_len_22):
        finite = pairs[maps[2, "y"](w3)]
        out.extend((g1, g2, w3, w4) for w4 in words32.get(maps[2, "kappa"](w3), ()) for g1, g2 in finite)
    return out


def express_rank5(t, pb: Rank5Pullback | None = None) -> list[str]:
    """Write an admissible 4-tuple in the four rank-5 generators.

    The first three components go through the rank-4 construction
    ``_rank4_word``, with z1, z2, z3 renamed w, b, c; copies of (e,e,e,g) are
    inserted coherently from left to right to spell the fourth component,
    with h-slots provided by the w-generator and padded four at a time (its
    fourth power is the identity tuple).

    Membership and admissibility are checked once on entry: the rank-5
    diagram contains the rank-4 edges, so the first three components are
    rank-4 admissible.  The one exact check at the end covers the rank-4
    word as well: on the first three components w, b, c agree with z1, z2,
    z3 and g is trivial, so the word's value there is the rank-4 word's.
    """
    pb = pb or rank5_pullback()
    if not pb.diagram.is_admissible(t):
        raise DomainError("tuple is not admissible")
    word4 = _rank4_word(pb.rank4, t[:3])
    mapped = ["w" if s == "z1" else ("b" if s == "z2" else "c") for s in word4]
    target = list(t[3].syllables)  # word in g (factor 0) and h (factor 1)
    needed_h = sum(1 for fi, _ in target if fi == 1)
    while sum(1 for s in mapped if s == "w") < needed_h:
        mapped.extend(["w", "w", "w", "w"])
    out: list[str] = []
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


# -- presentation verification -----------------------------------------------


@dataclass(frozen=True)
class CheckRecord:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class PresentationReport:
    checks: tuple[CheckRecord, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _bounded_subgroup(sources, gens, max_len: int) -> set:
    """The elements named by words of length <= max_len in the generators
    and their inverses, by breadth-first search from the identity."""
    steps = [s for g in gens for s in (g, tuple_inv(sources, g))]
    seen = frontier = {tuple_identity(sources)}
    for _ in range(max_len):
        frontier = {tuple_mul(sources, e, g) for e in frontier for g in steps} - seen
        seen = seen | frontier
    return seen


def _is_central(sources, x, gens) -> bool:
    """Whether x commutes with every tuple in gens."""
    return all(tuple_mul(sources, x, g) == tuple_mul(sources, g, x) for g in gens)


def verify_presentation_h4(max_len: int = 8) -> PresentationReport:
    """Relation, kernel and centrality checks for the rank-4 pull-back; the
    bounded checks need ``max_len`` >= 1, as no word is tried below it."""
    if max_len < 1:
        raise DomainError(f"certificate length must be at least 1, got {max_len}")
    pb = rank4_pullback()
    S = pb.sources
    ident = tuple_identity(S)
    z1sq = tuple_pow(S, pb.z1, 2)
    h4 = _bounded_subgroup(S, (pb.z1, pb.z2), max_len)
    commutator = tuple_mul(S, tuple_mul(S, pb.z3, pb.z1), tuple_mul(S, tuple_inv(S, pb.z3), tuple_inv(S, pb.z1)))
    checks = (
        CheckRecord("z3_order_2", tuple_pow(S, pb.z3, 2) == ident, "z3^2 = e"),
        CheckRecord("z3_central", _is_central(S, pb.z3, (pb.z1, pb.z2)), "z3 commutes with z1 and z2"),
        CheckRecord("z1sq_equals_z2sq", z1sq == tuple_pow(S, pb.z2, 2) == (2, 0, pb.free22.identity()),
                    "z1^2 = z2^2 = (x^2,e,e)"),
        CheckRecord("kernel_generator_central_order_2",
                    tuple_pow(S, z1sq, 2) == ident and _is_central(S, z1sq, (pb.z1, pb.z2, pb.z3)),
                    "(x^2,e,e) is central of order 2"),
        CheckRecord("h4_meets_z3_trivially", pb.z3 not in h4,
                    f"<z1,z2> avoids z3 on words of length <= {max_len} ({len(h4)} elements)"),
        CheckRecord("beta4_kernel", all(elem in (ident, z1sq) for elem in h4 if elem[2].is_identity()),
                    "bounded words with trivial free component lie in <(x^2,e,e)>"),
        CheckRecord("z3_z1_commutator", commutator == ident, "[z3, z1] = e"),
    )
    return PresentationReport(checks)


def verify_presentation_h5(q5_len: int = 8) -> PresentationReport:
    """Relation, kernel, centrality and freeness checks for the rank-5 pull-back;
    the free-product certificate needs ``q5_len`` >= 1, as no word is tried below it."""
    if q5_len < 1:
        raise DomainError(f"certificate length must be at least 1, got {q5_len}")
    pb = rank5_pullback()
    S = pb.sources
    ident = tuple_identity(S)
    e22, e32 = pb.rank4.free22.identity(), pb.free32.identity()
    stau = (0, SIGMA_TAU, e22, e32)
    zbar = tuple_mul(S, pb.gen_b, pb.gen_g)  # (x, sigma, b, g)
    kernel_elem = (2, 0, e22, e32)
    h5 = _bounded_subgroup(S, (pb.gen_w, pb.gen_b, pb.gen_g), H5_WORD_LEN)
    checks = (
        CheckRecord("central_element_identity", stau == tuple_mul(S, pb.gen_c, tuple_pow(S, pb.gen_b, 2)),
                    "(e,st,e,e) = (x^2,st,e,e) * (x,s,b,e)^2"),
        CheckRecord("central_element_commutes", _is_central(S, stau, (pb.gen_w, pb.gen_b, pb.gen_c, pb.gen_g)),
                    "(e,st,e,e) is central"),
        CheckRecord("central_element_order_2", tuple_pow(S, stau, 2) == ident, "order 2"),
        CheckRecord("zbar6_wbar2", tuple_pow(S, zbar, 6) == kernel_elem == tuple_pow(S, pb.gen_w, 2),
                    "zbar^6 = wbar^2 = (x^2,e,e,e)"),
        CheckRecord("kernel_b_squared", tuple_pow(S, pb.gen_b, 2) == kernel_elem, "(x,s,b,e)^2 = (x^2,e,e,e)"),
        CheckRecord("h5_meets_center_trivially", stau not in h5,
                    f"<w,b,g> avoids (e,st,e,e) on words of length <= {H5_WORD_LEN} ({len(h5)} elements)"),
        CheckRecord(
            "beta5_kernel",
            all(elem in (ident, kernel_elem) for elem in h5 if elem[2].is_identity() and elem[3].is_identity()),
            "bounded words with trivial free components lie in <(x^2,e,e,e)>",
        ),
        _q5_certificate(pb, q5_len),
    )
    return PresentationReport(checks)


def _q5_certificate(pb: Rank5Pullback, max_syllables: int) -> CheckRecord:
    """Bounded free-product certificate for the red sub-diagram pull-back.

    The claim under test: (b,g) of order 6 and (a,h) of order 2 generate a
    free product, i.e. no non-empty alternating word of bounded syllable
    length is the identity.  A collapsing word is reported verbatim: it is
    an explicit relation in the pull-back, refuting the free-product claim
    at that length.  (One exists at syllable length 8: with c = u3 u1 u3
    carried by the first component only and u2 by the second only, c and u2
    commute and c^2 = u2^3 = e, so u2^2 u3 u1 u3 u2 u3 u1 u3 collapses,
    while its image pattern in C6 * C2 is a reduced alternating word.)
    """
    f22, f32 = pb.rank4.free22, pb.free32
    sources = (f22, f32)
    u12 = (f22.letter(1, 1), f32.letter(0, 1))
    u3 = (f22.letter(0, 1), f32.letter(1, 1))
    ident = tuple_identity(sources)
    orders_ok = (
        all(tuple_pow(sources, u12, k) != ident for k in range(1, 6))
        and tuple_pow(sources, u12, 6) == ident
        and tuple_pow(sources, u3, 2) == ident
    )
    if not orders_ok:
        return CheckRecord("q5_free_product", False, "generator orders are wrong")
    # the alternating words are the reduced words of C6 * C2: the syllable
    # (0, k) stands for (u1u2)^k and (1, 1) for u3.  enumerate_words yields
    # them lazily by length, so the first collapse is a shortest one and ends
    # the search; each word is its prefix's value times the step of its last
    # syllable
    steps = {(0, k): (tuple_pow(sources, u12, k), f"(u1u2)^{k}") for k in range(1, 6)}
    steps[1, 1] = (u3, "u3")
    values = {(): ident}
    words = enumerate_words(FreeProductGroup((cyclic(6), cyclic(2))), max_syllables)
    next(words)  # the identity
    for w in words:
        syl = w.syllables
        elem = values[syl] = tuple_mul(sources, values[syl[:-1]], steps[syl[-1]][0])
        if elem == ident:
            return CheckRecord(
                "q5_free_product",
                False,
                "alternating relation found: " + " ".join(steps[x][1] for x in syl) + " = e",
            )
    return CheckRecord(
        "q5_free_product",
        True,
        f"no alternating relation up to {max_syllables} syllables; orders 6 and 2 verified",
    )


# -- maximal gradings of diagonal algebras -------------------------------------


@dataclass(frozen=True)
class DiagonalClass:
    """A maximal connected grading class of C^n: a free product of group
    algebras of abelian groups, with at most one extra trivially-graded line."""

    factor_invariants: tuple[tuple[int, ...], ...]
    has_trivial_part: bool

    @property
    def label(self) -> str:
        names = ["x".join(f"C{k}" for k in invs) for invs in self.factor_invariants]
        parts = " * ".join(names) if names else ""
        if self.has_trivial_part:
            parts = parts + " + C" if parts else "C"
        return parts


def maximal_gradings_diagonal(n: int) -> list[DiagonalClass]:
    """All maximal connected grading classes of the rank-n diagonal algebra.

    One recursion picks non-trivial abelian types (invariant factor
    sequences) in non-decreasing order, so each multiset comes once and a
    class comes before its extensions: the list is sorted.  The remainder of
    n, 0 or 1, says whether there is a trivial part.
    """
    if not 2 <= n <= 12:
        raise DomainError("diagonal enumeration supported for 2 <= n <= 12")
    types = sorted((t, math.prod(t)) for k in range(2, n + 1) for t in invariant_factor_sequences(k))
    out = []

    def rec(start: int, remaining: int, acc: tuple):
        if remaining <= 1:
            out.append(DiagonalClass(factor_invariants=acc, has_trivial_part=remaining == 1))
        for i in range(start, len(types)):
            t, order = types[i]
            if order <= remaining:
                rec(i, remaining - order, acc + (t,))

    rec(0, n, ())
    return out


# -- intrinsic fundamental group reports ----------------------------------------


@dataclass(frozen=True)
class Pi1Report:
    rank: int
    structure: str
    maximal_class_labels: tuple[str, ...]
    presentation: PresentationReport | None

    @property
    def verified(self) -> bool:
        return self.presentation is None or self.presentation.all_passed


def pi1_report(n: int) -> Pi1Report:
    """Structure of the intrinsic fundamental group of the rank-n diagonal.

    Ranks 2 and 3 split as direct products of the maximal grading groups
    (all common quotients are trivial); ranks 4 and 5 carry the verified
    central extensions over the free-product pull-backs, with the cyclic
    complement contributed by the classes with trivial common quotients.
    """
    labels = tuple(c.label for c in maximal_gradings_diagonal(n)) if n >= 2 else ()
    if n == 2:
        return Pi1Report(2, "C2", labels, None)
    if n == 3:
        return Pi1Report(3, "C3 x C2", labels, None)
    if n == 4:
        return Pi1Report(4, "H4 x C6", labels, verify_presentation_h4())
    if n == 5:
        return Pi1Report(5, "H5 x C10", labels, verify_presentation_h5())
    raise DomainError("intrinsic fundamental group reports cover ranks 2..5")
