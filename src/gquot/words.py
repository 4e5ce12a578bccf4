"""Free products of finite groups and free letters, with reduced words.

Words are kept in normal form at all times: no identity syllables, no two
adjacent syllables from the same factor.  Equality of group elements is then
literal equality of syllable tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import DomainError, ValidationError
from .groups import FiniteGroup, GroupHom, generated_subgroup


@dataclass(frozen=True)
class FreeFactor:
    """A symbolic infinite-cyclic factor (one free letter)."""

    name: str


class FreeProductGroup:
    """An ordered free product of finite groups and free letters."""

    def __init__(self, factors, name=None):
        factors = tuple(factors)
        if not factors:
            raise ValidationError("free product needs at least one factor")
        for f in factors:
            if not isinstance(f, (FiniteGroup, FreeFactor)):
                raise ValidationError("factors must be finite groups or free letters")
        self.factors = factors
        self.name = name

    def identity(self) -> "Word":
        return Word(self, ())

    def letter(self, factor_index: int, payload: int) -> "Word":
        """A one-syllable word: a factor element, or a power of a free letter."""
        return Word(self, ((factor_index, int(payload)),))

    def word(self, syllables) -> "Word":
        return Word(self, tuple((int(a), int(b)) for a, b in syllables))

    def mul(self, w1: "Word", w2: "Word") -> "Word":
        return w1.mul(w2)

    def inv(self, w: "Word") -> "Word":
        return w.inv()

    def __eq__(self, other):
        return isinstance(other, FreeProductGroup) and self.factors == other.factors

    def __hash__(self):
        return hash(self.factors)

    def __repr__(self):
        parts = [f.name if isinstance(f, FreeFactor) else (f.name or f"G{f.n}") for f in self.factors]
        return " * ".join(parts)


def _combine(factor, p: int, q: int) -> int:
    if isinstance(factor, FreeFactor):
        return p + q
    return factor.mul(p, q)


def _invert_payload(factor, p: int) -> int:
    if isinstance(factor, FreeFactor):
        return -p
    return factor.inv(p)


@dataclass(frozen=True)
class Word:
    """A reduced word; construction renormalizes whatever it is given."""

    group: FreeProductGroup
    syllables: tuple[tuple[int, int], ...]

    def __post_init__(self):
        stack: list[tuple[int, int]] = []
        for fi, p in self.syllables:
            factor = self.group.factors[fi]
            if not isinstance(factor, FreeFactor) and not (0 <= p < factor.n):
                raise ValidationError(f"syllable payload {p} out of range for factor {fi}")
            if p == 0:
                continue
            if stack and stack[-1][0] == fi:
                merged = _combine(factor, stack[-1][1], p)
                stack.pop()
                if merged != 0:
                    stack.append((fi, merged))
            else:
                stack.append((fi, p))
        object.__setattr__(self, "syllables", tuple(stack))

    def is_identity(self) -> bool:
        return not self.syllables

    def syllable_length(self) -> int:
        return len(self.syllables)

    def mul(self, other: "Word") -> "Word":
        if self.group != other.group:
            raise DomainError("words from different free products")
        return Word(self.group, self.syllables + other.syllables)

    def inv(self) -> "Word":
        return Word(
            self.group,
            tuple(
                (fi, _invert_payload(self.group.factors[fi], p))
                for fi, p in reversed(self.syllables)
            ),
        )

    def pow(self, k: int) -> "Word":
        if k < 0:
            return self.inv().pow(-k)
        out = self.group.identity()
        for _ in range(k):
            out = out.mul(self)
        return out

    def sort_key(self):
        return (len(self.syllables), self.syllables)

    def __repr__(self):
        if not self.syllables:
            return "<e>"
        parts = []
        for fi, p in self.syllables:
            f = self.group.factors[fi]
            if isinstance(f, FreeFactor):
                parts.append(f.name if p == 1 else f"{f.name}^{p}")
            else:
                parts.append(f"{f.name or 'F' + str(fi)}:{f.label(p)}")
        return "<" + " ".join(parts) + ">"


@dataclass(frozen=True)
class FactorMap:
    """A homomorphism from a free product to a finite group.

    Finite factors carry full homomorphisms (so factor relations are checked
    at build time); free letters carry the image of the letter.
    """

    source: FreeProductGroup
    target: FiniteGroup
    maps: tuple

    def __post_init__(self):
        if len(self.maps) != len(self.source.factors):
            raise ValidationError("one map per factor required")
        for f, m in zip(self.source.factors, self.maps):
            if isinstance(f, FreeFactor):
                if not isinstance(m, int) or not (0 <= m < self.target.n):
                    raise ValidationError("free letter image must be a target element")
            else:
                if not isinstance(m, GroupHom) or m.source != f or m.target != self.target:
                    raise ValidationError("finite factor needs a homomorphism into the target")

    def __call__(self, w: Word) -> int:
        out = 0
        for fi, p in w.syllables:
            m = self.maps[fi]
            img = self.target.power(m, p) if isinstance(m, int) else m(p)
            out = self.target.mul(out, img)
        return out

    def is_surjective(self) -> bool:
        gens = set()
        for f, m in zip(self.source.factors, self.maps):
            if isinstance(f, FreeFactor):
                gens.add(m)
            else:
                gens.update(m.images)
        return generated_subgroup(self.target, gens).order == self.target.n


def enumerate_words(group: FreeProductGroup, max_syllables: int, free_exponent_bound: int = 1):
    """All reduced words with at most the given number of syllables.

    Finite factors contribute every non-identity element per syllable; free
    letters contribute exponents up to the stated bound (they are unbounded
    in the group itself, so enumeration needs a cutoff).
    """
    out = [group.identity()]
    frontier: list[Word] = [group.identity()]
    for _ in range(max_syllables):
        nxt = []
        for w in frontier:
            last = w.syllables[-1][0] if w.syllables else None
            for fi in range(len(group.factors)):
                if fi == last:
                    continue
                f = group.factors[fi]
                if isinstance(f, FreeFactor):
                    choices = [k for a in range(1, free_exponent_bound + 1) for k in (a, -a)]
                else:
                    choices = list(range(1, f.n))
                for p in choices:
                    nxt.append(Word(group, w.syllables + ((fi, p),)))
        out.extend(nxt)
        frontier = nxt
    return _dedupe(out)


def _dedupe(words: list[Word]) -> list[Word]:
    seen = {}
    for w in words:
        seen.setdefault(w.syllables, w)
    return sorted(seen.values(), key=Word.sort_key)


def syllable_generators_cover(group: FreeProductGroup, words) -> bool:
    """Whether the single-syllable words among ``words`` generate the product.

    For each finite factor the appearing payloads must generate it; for each
    free letter the gcd of appearing exponents must be 1.
    """
    per_factor: dict[int, list[int]] = {i: [] for i in range(len(group.factors))}
    for w in words:
        if w.syllable_length() == 1:
            fi, p = w.syllables[0]
            per_factor[fi].append(p)
    for fi, f in enumerate(group.factors):
        payloads = per_factor[fi]
        if isinstance(f, FreeFactor):
            if not payloads or gcd(*(abs(p) for p in payloads)) != 1:
                return False
        else:
            if generated_subgroup(f, payloads).order != f.n:
                return False
    return True
