"""Pull-backs of grading-group diagrams and the rank-4/5 diagonal algebras.

The maximal connected gradings of the diagonal algebra C^n are free products
of group algebras of abelian groups.  Their maximal common quotients, for
n = 4 and 5, form small diagrams whose pull-backs are computed here at the
word level: admissible tuples are expressed in explicit generators by the
rewriting procedure that proves the generation claims, and the presentation
data of the resulting central extensions is verified by direct word
computation with bounded-length certificates for the freeness claims.

Each diagram (which classes share which quotients) is stated once, as the
edge dict of a ``GroupDiagram``, one map per (source index, target key);
deriving it from first principles is out of scope.  The source and quotient
groups (C2, C3, C4, C2xC2, C2*C2 and C3*C2) are built once, at import, and
every diagram is built on them, so tuples enumerated on one pull-back and
expressed with another meet the same group objects and membership, factor
maps and word products compare groups by identity; each ``rank4_pullback()``
or ``rank5_pullback()`` call still builds its own diagram, maps and
generators.  The admissible-tuple enumerators read the fibres of those maps;
a factor map reads a word's image off its factors' image tables, one lookup
per syllable.  A ``Pullback`` names generator tuples over the sources, and
one ``ProductGroup`` multiplies tuples componentwise with the element
protocol of finite groups and free products (``identity``, ``mul``, ``inv``,
``prod``): a word in the generators is one ``prod`` per component, over the
columns of its tuples, and t^k is the ``prod`` of k copies of t.

The two expression entries, ``express_rank4`` and ``express_rank5``, each
check a tuple once on entry (every component an element of its source, all
images in each common quotient equal) and once at the end (the word
evaluates to the tuple).  Between them runs one construction, ``_rank4_word``,
which reads the C2*C2 component letter by letter and decides the z3 and
z1^2 corrections on the finite components only.  The rank-5 diagram
contains the rank-4 edges, and on the first three components w, b and c
are z1, z2 and z3 while g is trivial, so the construction runs on them
under those names and the final rank-5 check also verifies the rank-4 word.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import CertificationError, DomainError, ValidationError
from .groups import GroupHom, cyclic, direct_product, invariant_factor_sequences
from .words import FactorMap, FreeProductGroup, Word, enumerate_words

H5_WORD_LEN = 6  # word length of the bounded <w,b,g> certificate in verify_presentation_h5
_WIDTH_ERROR = "tuple length does not match the product's factors"


# -- diagrams ------------------------------------------------------------------


@dataclass(frozen=True)
class ProductGroup:
    """The direct product of finite groups and free products: the element
    protocol on tuples, one component per factor.  A tuple whose length is
    not the number of factors raises ``DomainError`` in ``mul``, ``inv`` and
    ``prod``."""

    factors: tuple

    def identity(self) -> tuple:
        return tuple(g.identity() for g in self.factors)

    def mul(self, s, t) -> tuple:
        if not len(s) == len(t) == len(self.factors):
            raise DomainError(_WIDTH_ERROR)
        return tuple(g.mul(a, b) for g, a, b in zip(self.factors, s, t))

    def inv(self, t) -> tuple:
        if len(t) != len(self.factors):
            raise DomainError(_WIDTH_ERROR)
        return tuple(g.inv(a) for g, a in zip(self.factors, t))

    def prod(self, tuples) -> tuple:
        """The product of a sequence of tuples, one ``prod`` per component
        over the columns of the sequence; the identity when empty."""
        tuples = list(tuples)
        if not tuples:
            return self.identity()
        if any(len(t) != len(self.factors) for t in tuples):
            raise DomainError(_WIDTH_ERROR)
        return tuple(g.prod(col) for g, col in zip(self.factors, zip(*tuples), strict=True))


@dataclass(frozen=True)
class GroupDiagram:
    sources: tuple
    targets: dict
    edges: dict  # (source_index, target_key) -> GroupHom for finite sources, FactorMap for free products

    def __post_init__(self):
        for (_, key), m in self.edges.items():
            if not isinstance(m, (GroupHom, FactorMap)):
                raise ValidationError("edge mapping must be a GroupHom or FactorMap")
            if not (m.target == self.targets[key] and m.is_surjective()):
                raise ValidationError(f"edge into {key!r} is not a verified epimorphism")

    def is_admissible(self, t) -> bool:
        """Whether the images of ``t`` agree in every common quotient, by one
        pass over the edges against the first image in each target; a tuple
        of the wrong length or with a component outside its source raises
        ``DomainError``."""
        if len(t) != len(self.sources):
            raise DomainError("tuple length does not match diagram sources")
        for i, (group, x) in enumerate(zip(self.sources, t)):
            if not _is_element(group, x):
                raise DomainError(f"tuple component {i} is not an element of its source")
        first: dict = {}
        for (i, key), m in self.edges.items():
            image = m(t[i])
            if first.setdefault(key, image) != image:
                return False
        return True


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
    c4, klein = (_fibres(diagram.edges[i, "y"], diagram.sources[i].elements()) for i in (0, 1))
    return {y: [(g1, g2) for g1 in c4[y] for g2 in klein[y]] for y in c4}


@dataclass(frozen=True)
class Pullback:
    """A pull-back of a diagram with named generator tuples, multiplied in
    the product group of the diagram's sources."""

    diagram: GroupDiagram
    generators: dict
    group: ProductGroup = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "group", ProductGroup(self.diagram.sources))

    def evaluate(self, word) -> tuple:
        """The tuple named by a word in the generators."""
        return self.group.prod(self.generators[name] for name in word)


# -- the rank-4 diagram ---------------------------------------------------------


SIGMA = 2      # (1,0) in C2xC2
TAU = 1        # (0,1)
SIGMA_TAU = 3  # (1,1)


# the source and quotient groups of both diagrams, shared by every pull-back
_C2, _C3, _C4 = cyclic(2), cyclic(3), cyclic(4)
_KLEIN = direct_product(_C2, _C2)
_FREE22 = FreeProductGroup((_C2, _C2), name="C2*C2")
_FREE32 = FreeProductGroup((_C3, _C2), name="C3*C2")


def rank4_pullback() -> Pullback:
    """Sources C4, C2xC2, C2*C2 over a common C2 quotient, with generators z1, z2, z3."""
    onto = GroupHom(_C2, _C2, (0, 1))
    diagram = GroupDiagram(
        sources=(_C4, _KLEIN, _FREE22),
        targets={"y": _C2},
        edges={
            (0, "y"): GroupHom(_C4, _C2, (0, 1, 0, 1)),
            (1, "y"): GroupHom(_KLEIN, _C2, (0, 1, 1, 0)),
            (2, "y"): FactorMap(_FREE22, _C2, (onto, onto)),
        },
    )
    return Pullback(diagram, {
        "z1": (1, SIGMA, _FREE22.letter(0, 1)),       # (x, sigma, a)
        "z2": (1, SIGMA, _FREE22.letter(1, 1)),       # (x, sigma, b)
        "z3": (2, SIGMA_TAU, _FREE22.identity()),     # (x^2, sigma tau, e)
    })


def enumerate_admissible_rank4(max_syllables: int) -> list[tuple]:
    """Every admissible triple whose free component has bounded length: for
    each free word w, the finite components from the fibres over its image."""
    diagram = rank4_pullback().diagram
    to_y = diagram.edges[2, "y"]
    pairs = _finite_pairs_over_y(diagram)
    return [(g1, g2, w) for w in _free22_words(diagram.sources[2], max_syllables) for g1, g2 in pairs[to_y(w)]]


def _free22_words(free22: FreeProductGroup, max_syllables: int) -> list:
    """The words of C2 * C2 in the order the admissible lists have always used:
    the identity, then by first letter, then by length."""
    return sorted(enumerate_words(free22, max_syllables), key=lambda w: (w.syllables[:1], len(w.syllables)))


def _rank4_word(pb: Pullback, t, names) -> list[str]:
    """The generating procedure on the first three components of an
    admissible tuple, unverified, in the generators ``names`` that play
    z1, z2 and z3.

    The free component fixes the word letter by letter, z1 for a and z2 for
    b, so the word's own free component is t[2] and only the residue
    t^-1 * value(word) on the C4 and Klein components is left.  It is
    corrected first by z3 (kernel of the Klein projection) and then by z1^2
    (kernel of the C4 projection).
    """
    z1, z2, z3 = names
    word = [z1 if fi == 0 else z2 for fi, _ in t[2].syllables]
    c4, klein = pb.diagram.sources[:2]
    gens = [pb.generators[name] for name in word]
    x = c4.mul(c4.inv(t[0]), c4.prod(gen[0] for gen in gens))
    k = klein.mul(klein.inv(t[1]), klein.prod(gen[1] for gen in gens))
    if k == SIGMA_TAU:
        word.append(z3)
        x, k = c4.mul(x, pb.generators[z3][0]), klein.mul(k, pb.generators[z3][1])
    if k != 0:
        raise CertificationError("Klein residue escaped the projection kernel")
    if x == 2:
        word.extend([z1, z1])
        x = c4.prod((x, pb.generators[z1][0], pb.generators[z1][0]))
    if x != 0:
        raise CertificationError("rank-4 expression did not close")
    return word


def express_rank4(t, pb: Pullback | None = None) -> list[str]:
    """Write an admissible triple as a word in z1, z2, z3.

    Checks membership and admissibility on entry, builds the word by
    ``_rank4_word`` and verifies exactly that it evaluates to ``t``.
    """
    pb = pb or rank4_pullback()
    if not pb.diagram.is_admissible(t):
        raise DomainError("triple is not admissible")
    word = _rank4_word(pb, t, ("z1", "z2", "z3"))
    if pb.evaluate(word) != t:
        raise CertificationError("rank-4 expression failed verification")
    return word


# -- the rank-5 diagram ----------------------------------------------------------


def rank5_pullback() -> Pullback:
    """The rank-4 sources and C3*C2 over the quotients y and kappa, with generators w, b, c, g."""
    d4 = rank4_pullback().diagram
    # red sub-diagram: a and h to the common involution, b and g to the identity
    diagram = GroupDiagram(
        sources=(*d4.sources, _FREE32),
        targets={**d4.targets, "kappa": _C2},
        edges={
            **d4.edges,
            (2, "kappa"): FactorMap(_FREE22, _C2, (GroupHom(_C2, _C2, (0, 1)), GroupHom(_C2, _C2, (0, 0)))),
            (3, "kappa"): FactorMap(_FREE32, _C2, (GroupHom(_C3, _C2, (0, 0, 0)), GroupHom(_C2, _C2, (0, 1)))),
        },
    )
    e22, e32 = _FREE22.identity(), _FREE32.identity()
    return Pullback(diagram, {
        "w": (1, SIGMA, _FREE22.letter(0, 1), _FREE32.letter(1, 1)),  # (x, sigma, a, h)
        "b": (1, SIGMA, _FREE22.letter(1, 1), e32),                    # (x, sigma, b, e)
        "c": (2, SIGMA_TAU, e22, e32),                                # (x^2, sigma tau, e, e)
        "g": (0, 0, e22, _FREE32.letter(0, 1)),                       # (e, e, e, g)
    })


def enumerate_admissible_rank5(max_len_22: int, max_len_32: int) -> list[tuple]:
    """Every admissible 4-tuple whose free components have bounded lengths: for
    each C2*C2 word w3, the C3*C2 words from the fibre over its image in kappa
    and the finite components from the fibres over its image in y."""
    diagram = rank5_pullback().diagram
    maps = diagram.edges
    pairs = _finite_pairs_over_y(diagram)
    words32 = _fibres(maps[3, "kappa"], enumerate_words(diagram.sources[3], max_len_32))
    out = []
    for w3 in _free22_words(diagram.sources[2], max_len_22):
        finite = pairs[maps[2, "y"](w3)]
        out.extend((g1, g2, w3, w4) for w4 in words32.get(maps[2, "kappa"](w3), ()) for g1, g2 in finite)
    return out


def express_rank5(t, pb: Pullback | None = None) -> list[str]:
    """Write an admissible 4-tuple in the four rank-5 generators.

    The first three components go through the rank-4 construction
    ``_rank4_word`` in w, b, c; copies of (e,e,e,g) are inserted coherently
    from left to right to spell the fourth component, with h-slots provided
    by the w-generator and padded four at a time (its fourth power is the
    identity tuple).

    Membership and admissibility are checked once on entry: the rank-5
    diagram contains the rank-4 edges, so the first three components are
    rank-4 admissible.  The one exact check at the end covers the rank-4
    word as well: on the first three components w, b, c agree with z1, z2,
    z3 and g is trivial, so the word's value there is the rank-4 word's.
    """
    pb = pb or rank5_pullback()
    if not pb.diagram.is_admissible(t):
        raise DomainError("tuple is not admissible")
    word4 = _rank4_word(pb, t, ("w", "b", "c"))
    target = list(t[3].syllables)  # word in g (factor 0) and h (factor 1)
    needed_h = sum(1 for fi, _ in target if fi == 1)
    while sum(1 for s in word4 if s == "w") < needed_h:
        word4.extend(["w", "w", "w", "w"])
    out: list[str] = []
    si = 0
    for sym in word4:
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


def _bounded_subgroup(P: ProductGroup, gens, max_len: int) -> set:
    """The elements named by words of length <= max_len in the generators
    and their inverses, by breadth-first search from the identity."""
    steps = [s for g in gens for s in (g, P.inv(g))]
    seen = frontier = {P.identity()}
    for _ in range(max_len):
        frontier = {P.mul(e, g) for e in frontier for g in steps} - seen
        seen = seen | frontier
    return seen


def _is_central(P: ProductGroup, x, gens) -> bool:
    """Whether x commutes with every tuple in gens."""
    return all(P.mul(x, g) == P.mul(g, x) for g in gens)


def verify_presentation_h4(max_len: int = 8) -> PresentationReport:
    """Relation, kernel and centrality checks for the rank-4 pull-back; the
    bounded checks need ``max_len`` >= 1, as no word is tried below it."""
    if max_len < 1:
        raise DomainError(f"certificate length must be at least 1, got {max_len}")
    pb = rank4_pullback()
    P = pb.group
    z1, z2, z3 = (pb.generators[name] for name in ("z1", "z2", "z3"))
    ident = P.identity()
    z1sq = P.prod((z1, z1))
    h4 = _bounded_subgroup(P, (z1, z2), max_len)
    commutator = P.prod((z3, z1, P.inv(z3), P.inv(z1)))
    checks = (
        CheckRecord("z3_order_2", P.prod((z3, z3)) == ident, "z3^2 = e"),
        CheckRecord("z3_central", _is_central(P, z3, (z1, z2)), "z3 commutes with z1 and z2"),
        CheckRecord("z1sq_equals_z2sq", z1sq == P.prod((z2, z2)) == (2, 0, ident[2]), "z1^2 = z2^2 = (x^2,e,e)"),
        CheckRecord("kernel_generator_central_order_2",
                    P.prod((z1sq, z1sq)) == ident and _is_central(P, z1sq, (z1, z2, z3)),
                    "(x^2,e,e) is central of order 2"),
        CheckRecord("h4_meets_z3_trivially", z3 not in h4,
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
    P = pb.group
    w, b, c, g = (pb.generators[name] for name in "wbcg")
    ident = P.identity()
    e22, e32 = ident[2:]
    stau = (0, SIGMA_TAU, e22, e32)
    zbar = P.mul(b, g)  # (x, sigma, b, g)
    kernel_elem = (2, 0, e22, e32)
    h5 = _bounded_subgroup(P, (w, b, g), H5_WORD_LEN)
    checks = (
        CheckRecord("central_element_identity", stau == P.prod((c, b, b)),
                    "(e,st,e,e) = (x^2,st,e,e) * (x,s,b,e)^2"),
        CheckRecord("central_element_commutes", _is_central(P, stau, (w, b, c, g)), "(e,st,e,e) is central"),
        CheckRecord("central_element_order_2", P.prod((stau, stau)) == ident, "order 2"),
        CheckRecord("zbar6_wbar2", P.prod([zbar] * 6) == kernel_elem == P.prod((w, w)),
                    "zbar^6 = wbar^2 = (x^2,e,e,e)"),
        CheckRecord("kernel_b_squared", P.prod((b, b)) == kernel_elem, "(x,s,b,e)^2 = (x^2,e,e,e)"),
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


def _q5_certificate(pb: Pullback, max_syllables: int) -> CheckRecord:
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
    f22, f32 = pb.diagram.sources[2:]
    Q = ProductGroup((f22, f32))
    u12 = (f22.letter(1, 1), f32.letter(0, 1))
    u3 = (f22.letter(0, 1), f32.letter(1, 1))
    ident = Q.identity()
    orders_ok = (
        all(Q.prod([u12] * k) != ident for k in range(1, 6))
        and Q.prod([u12] * 6) == ident
        and Q.prod((u3, u3)) == ident
    )
    if not orders_ok:
        return CheckRecord("q5_free_product", False, "generator orders are wrong")
    # the alternating words are the reduced words of C6 * C2: the syllable
    # (0, k) stands for (u1u2)^k and (1, 1) for u3.  enumerate_words yields
    # them lazily by length, so the first collapse is a shortest one and ends
    # the search; each word is its prefix's value times the step of its last
    # syllable
    steps = {(0, k): (Q.prod([u12] * k), f"(u1u2)^{k}") for k in range(1, 6)}
    steps[1, 1] = (u3, "u3")
    values = {(): ident}
    words = enumerate_words(FreeProductGroup((cyclic(6), cyclic(2))), max_syllables)
    next(words)  # the identity
    for w in words:
        syl = w.syllables
        elem = values[syl] = Q.mul(values[syl[:-1]], steps[syl[-1]][0])
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
