"""Pull-backs of grading-group diagrams and the rank-4/5 diagonal algebras.

The maximal connected gradings of the diagonal algebra C^n are free products
of group algebras of abelian groups.  Their maximal common quotients, for
n = 4 and 5, form small diagrams whose pull-backs are computed here at the
word level: admissible tuples are expressed in explicit generators by the
rewriting procedure that proves the generation claims, and the presentation
data of the resulting central extensions is verified by direct word
computation with bounded-length certificates for the freeness claims.

The diagrams themselves (which classes share which quotients) are encoded
as fixed data; deriving them from first principles is out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import product as iproduct

from .errors import CertificationError, DomainError, ValidationError
from .gradings import Character, FactorFine, GradingClassDescriptor, Summand
from .groups import (
    FiniteGroup,
    GroupHom,
    abelian_group_from_invariants,
    cyclic,
    direct_product,
    invariant_factor_sequences,
)
from .words import FactorMap, FreeProductGroup, enumerate_words

H5_WORD_LEN = 6  # word length of the bounded <w,b,g> certificate in verify_presentation_h5


# -- componentwise arithmetic on tuples over mixed groups ---------------------


def tuple_mul(sources, t1, t2):
    return tuple(g.mul(a, b) for g, a, b in zip(sources, t1, t2))


def tuple_inv(sources, t):
    return tuple(g.inv(a) for g, a in zip(sources, t))


def tuple_identity(sources):
    return tuple(g.identity() for g in sources)


def tuple_pow(sources, t, k: int):
    out = tuple_identity(sources)
    if k < 0:
        t, k = tuple_inv(sources, t), -k
    for _ in range(k):
        out = tuple_mul(sources, out, t)
    return out


# -- diagrams ------------------------------------------------------------------


@dataclass(frozen=True)
class Edge:
    source_index: int
    target_key: str
    mapping: object  # GroupHom for finite sources, FactorMap for free products

    def apply(self, component):
        return self.mapping(component)


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
        if len(t) != len(self.sources):
            raise DomainError("tuple length does not match diagram sources")
        for key in self.targets:
            images = [e.apply(t[e.source_index]) for e in self.edges if e.target_key == key]
            if len(set(images)) > 1:
                return False
        return True


# -- the rank-4 diagram ---------------------------------------------------------


class _GeneratedPullback:
    """A pull-back of a diagram with named generators; subclasses define
    ``diagram`` and ``generator(name)``."""

    @property
    def sources(self):
        return self.diagram.sources

    def evaluate(self, word) -> tuple:
        """The tuple named by a word in the generators: each component is
        folded once, by its own group's ``mul``."""
        gens = [self.generator(name) for name in word]
        return tuple(
            reduce(g.mul, (gen[i] for gen in gens), g.identity())
            for i, g in enumerate(self.sources)
        )


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
        return {"z1": self.z1, "z2": self.z2, "z3": self.z3}[name]


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
    """Every admissible triple whose free component has bounded length."""
    pb = rank4_pullback()
    out = []
    for w in _free22_words(pb.free22, max_syllables):
        parity = len(w.syllables) % 2
        for g1 in range(4):
            if g1 % 2 != parity:
                continue
            for g2 in range(4):
                if (0, 1, 1, 0)[g2] != parity:
                    continue
                t = (g1, g2, w)
                if not pb.diagram.is_admissible(t):
                    raise CertificationError("parity filter disagrees with admissibility")
                out.append(t)
    return out


def _free22_words(free22: FreeProductGroup, max_syllables: int) -> list:
    """The words of C2 * C2 in the order the admissible lists have always used:
    the identity, then by first letter, then by length."""
    return sorted(enumerate_words(free22, max_syllables), key=lambda w: (w.syllables[:1], len(w.syllables)))


def express_rank4(t, pb: Rank4Pullback | None = None) -> list[str]:
    """Write an admissible triple as a word in z1, z2, z3.

    Follows the generating procedure: substitute the free word, then correct
    the residue first by z3 (kernel of the Klein projection) and then by
    z1^2 (kernel of the C4 projection).  The result is verified exactly.
    """
    pb = pb or rank4_pullback()
    if not pb.diagram.is_admissible(t):
        raise DomainError("triple is not admissible")
    word = ["z1" if fi == 0 else "z2" for fi, _ in t[2].syllables]
    sources = pb.sources
    residue = tuple_mul(sources, tuple_inv(sources, t), pb.evaluate(word))
    if residue[1] == SIGMA_TAU:
        word.append("z3")
        residue = tuple_mul(sources, residue, pb.z3)
    if residue[1] != 0:
        raise CertificationError("Klein residue escaped the projection kernel")
    if residue[0] == 2:
        word.extend(["z1", "z1"])
        residue = tuple_mul(sources, residue, tuple_pow(sources, pb.z1, 2))
    if residue != tuple_identity(sources):
        raise CertificationError("rank-4 expression did not close")
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
        return {"w": self.gen_w, "b": self.gen_b, "c": self.gen_c, "g": self.gen_g}[name]


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
        edges=(
            Edge(0, "y", d4.edges[0].mapping),
            Edge(1, "y", d4.edges[1].mapping),
            Edge(2, "y", d4.edges[2].mapping),
            Edge(2, "kappa", phi1),
            Edge(3, "kappa", phi2),
        ),
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
        gen_g=(0, 0, e22, free32.letter(0, 1)),
    )


def enumerate_admissible_rank5(max_len_22: int, max_len_32: int) -> list[tuple]:
    pb = rank5_pullback()
    out = []
    words32 = enumerate_words(pb.free32, max_len_32)
    for w3 in _free22_words(pb.rank4.free22, max_len_22):
        parity = len(w3.syllables) % 2
        a_count = sum(1 for fi, _ in w3.syllables if fi == 0) % 2
        for w4 in words32:
            h_count = sum(1 for fi, _ in w4.syllables if fi == 1) % 2
            if h_count != a_count:
                continue
            for g1 in range(4):
                if g1 % 2 != parity:
                    continue
                for g2 in range(4):
                    if (0, 1, 1, 0)[g2] != parity:
                        continue
                    t = (g1, g2, w3, w4)
                    if not pb.diagram.is_admissible(t):
                        raise CertificationError("admissibility filter mismatch")
                    out.append(t)
    return out


def express_rank5(t, pb: Rank5Pullback | None = None) -> list[str]:
    """Write an admissible 4-tuple in the four rank-5 generators.

    The first three components are expressed through the rank-4 procedure;
    copies of (e,e,e,g) are inserted coherently from left to right to spell
    the fourth component, with h-slots provided by the w-generator and
    padded four at a time (its fourth power is the identity tuple).
    """
    pb = pb or rank5_pullback()
    if not pb.diagram.is_admissible(t):
        raise DomainError("tuple is not admissible")
    word4 = express_rank4((t[0], t[1], t[2]), pb.rank4)
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


def _bounded_subgroup(sources, gens: dict, max_len: int) -> dict:
    """Elements reachable by words of bounded length, with one witness word."""
    ident = tuple_identity(sources)
    seen = {ident: ()}
    frontier = [ident]
    steps = []
    for name, g in gens.items():
        steps.append((name, g))
        steps.append((name + "^-1", tuple_inv(sources, g)))
    for _ in range(max_len):
        nxt = []
        for e in frontier:
            for name, g in steps:
                prod = tuple_mul(sources, e, g)
                if prod not in seen:
                    seen[prod] = seen[e] + (name,)
                    nxt.append(prod)
        frontier = nxt
    return seen


def verify_presentation_h4(max_len: int = 8) -> PresentationReport:
    """Relation, kernel and centrality checks for the rank-4 pull-back."""
    pb = rank4_pullback()
    S = pb.sources
    ident = tuple_identity(S)
    checks = []

    z1sq = tuple_pow(S, pb.z1, 2)
    checks.append(CheckRecord("z3_order_2", tuple_pow(S, pb.z3, 2) == ident, "z3^2 = e"))
    central = all(
        tuple_mul(S, pb.z3, g) == tuple_mul(S, g, pb.z3) for g in (pb.z1, pb.z2)
    )
    checks.append(CheckRecord("z3_central", central, "z3 commutes with z1 and z2"))
    checks.append(
        CheckRecord("z1sq_equals_z2sq", z1sq == tuple_pow(S, pb.z2, 2) == (2, 0, pb.free22.identity()),
                    "z1^2 = z2^2 = (x^2,e,e)")
    )
    checks.append(
        CheckRecord(
            "kernel_generator_central_order_2",
            tuple_pow(S, z1sq, 2) == ident
            and all(tuple_mul(S, z1sq, g) == tuple_mul(S, g, z1sq) for g in (pb.z1, pb.z2, pb.z3)),
            "(x^2,e,e) is central of order 2",
        )
    )
    h4 = _bounded_subgroup(S, {"z1": pb.z1, "z2": pb.z2}, max_len)
    checks.append(
        CheckRecord(
            "h4_meets_z3_trivially",
            pb.z3 not in h4,
            f"<z1,z2> avoids z3 on words of length <= {max_len} ({len(h4)} elements)",
        )
    )
    kernel_ok = all(
        elem in (ident, z1sq) for elem in h4 if elem[2].is_identity()
    )
    checks.append(
        CheckRecord(
            "beta4_kernel",
            kernel_ok,
            "bounded words with trivial free component lie in <(x^2,e,e)>",
        )
    )
    commutator = tuple_mul(
        S, tuple_mul(S, pb.z3, pb.z1), tuple_mul(S, tuple_inv(S, pb.z3), tuple_inv(S, pb.z1))
    )
    checks.append(CheckRecord("z3_z1_commutator", commutator == ident, "[z3, z1] = e"))
    return PresentationReport(tuple(checks))


def verify_presentation_h5(q5_len: int = 8) -> PresentationReport:
    """Relation, kernel, centrality and freeness checks for the rank-5 pull-back."""
    pb = rank5_pullback()
    S = pb.sources
    ident = tuple_identity(S)
    checks = []

    stau = (0, SIGMA_TAU, pb.rank4.free22.identity(), pb.free32.identity())
    checks.append(
        CheckRecord(
            "central_element_identity",
            stau == tuple_mul(S, pb.gen_c, tuple_pow(S, pb.gen_b, 2)),
            "(e,st,e,e) = (x^2,st,e,e) * (x,s,b,e)^2",
        )
    )
    central = all(
        tuple_mul(S, stau, g) == tuple_mul(S, g, stau)
        for g in (pb.gen_w, pb.gen_b, pb.gen_c, pb.gen_g)
    )
    checks.append(CheckRecord("central_element_commutes", central, "(e,st,e,e) is central"))
    checks.append(CheckRecord("central_element_order_2", tuple_pow(S, stau, 2) == ident, "order 2"))

    zbar = tuple_mul(S, pb.gen_b, pb.gen_g)  # (x, sigma, b, g)
    kernel_elem = (2, 0, pb.rank4.free22.identity(), pb.free32.identity())
    checks.append(
        CheckRecord(
            "zbar6_wbar2",
            tuple_pow(S, zbar, 6) == kernel_elem == tuple_pow(S, pb.gen_w, 2),
            "zbar^6 = wbar^2 = (x^2,e,e,e)",
        )
    )
    checks.append(
        CheckRecord(
            "kernel_b_squared",
            tuple_pow(S, pb.gen_b, 2) == kernel_elem,
            "(x,s,b,e)^2 = (x^2,e,e,e)",
        )
    )
    h5 = _bounded_subgroup(S, {"w": pb.gen_w, "b": pb.gen_b, "g": pb.gen_g}, H5_WORD_LEN)
    checks.append(
        CheckRecord(
            "h5_meets_center_trivially",
            stau not in h5,
            f"<w,b,g> avoids (e,st,e,e) on words of length <= {H5_WORD_LEN} ({len(h5)} elements)",
        )
    )
    kernel_ok = all(
        elem in (ident, kernel_elem)
        for elem in h5
        if elem[2].is_identity() and elem[3].is_identity()
    )
    checks.append(
        CheckRecord(
            "beta5_kernel",
            kernel_ok,
            "bounded words with trivial free components lie in <(x^2,e,e,e)>",
        )
    )
    checks.append(_q5_certificate(pb, q5_len))
    return PresentationReport(tuple(checks))


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
    # alternating words: nonzero powers of u1u2 separated by single u3 letters
    frontier = [(ident, "start", ())]
    for _ in range(max_syllables):
        nxt = []
        for elem, last, path in frontier:
            if last != "u12":
                for k in range(1, 6):
                    nxt.append(
                        (tuple_mul(sources, elem, tuple_pow(sources, u12, k)), "u12", path + (f"(u1u2)^{k}",))
                    )
            if last != "u3":
                nxt.append((tuple_mul(sources, elem, u3), "u3", path + ("u3",)))
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


# -- maximal gradings of diagonal algebras -------------------------------------


@dataclass(frozen=True)
class DiagonalClass:
    """A maximal connected grading class of C^n: a free product of group
    algebras of abelian groups, with at most one extra trivially-graded line."""

    factor_invariants: tuple[tuple[int, ...], ...]
    has_trivial_part: bool
    descriptor: GradingClassDescriptor

    @property
    def label(self) -> str:
        names = ["x".join(f"C{k}" for k in invs) for invs in self.factor_invariants]
        parts = " * ".join(names) if names else ""
        if self.has_trivial_part:
            parts = parts + " + C" if parts else "C"
        return parts


def maximal_gradings_diagonal(n: int) -> list[DiagonalClass]:
    """All maximal connected grading classes of the rank-n diagonal algebra.

    Multisets of abelian group orders summing to n with at most one trivial
    part, each order contributing every abelian isomorphism type.
    """
    if not 2 <= n <= 12:
        raise DomainError("diagonal enumeration supported for 2 <= n <= 12")
    out = []
    for partition in _partitions_at_most_one_unit(n):
        nontrivial = [p for p in partition if p > 1]
        has_trivial = len(nontrivial) != len(partition)
        for combo in _type_combinations(nontrivial):
            groups = [abelian_group_from_invariants(invs) for invs in combo]
            gamma = FreeProductGroup(tuple(groups), name="*".join(g.name or "?" for g in groups) or "C1")
            summands = [
                Summand(Character.point(gamma), FactorFine(i), None) for i in range(len(groups))
            ]
            if has_trivial:
                summands.append(Summand(Character.point(gamma), None, None))
            out.append(
                DiagonalClass(
                    factor_invariants=tuple(sorted(combo)),
                    has_trivial_part=has_trivial,
                    descriptor=GradingClassDescriptor(gamma, tuple(summands)),
                )
            )
    out.sort(key=lambda c: (c.factor_invariants, c.has_trivial_part))
    return out


def _partitions_at_most_one_unit(n: int) -> list[tuple[int, ...]]:
    out = []

    def rec(remaining, maximum, acc):
        if remaining == 0:
            out.append(tuple(acc))
            return
        for part in range(min(remaining, maximum), 0, -1):
            if part == 1 and acc and acc[-1] == 1:
                continue  # at most one trivial factor
            rec(remaining - part, part, acc + [part])

    rec(n, n, [])
    return out


def _type_combinations(orders: list[int]):
    per_order = {}
    for k in set(orders):
        per_order[k] = invariant_factor_sequences(k)
    pools = [per_order[k] for k in orders]
    seen = set()
    for combo in iproduct(*pools):
        key = tuple(sorted(combo))
        if key not in seen:
            seen.add(key)
            yield key


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
