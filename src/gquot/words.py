"""Free products of finite groups, with reduced words.

A word is kept reduced at all times: no identity syllables, no two adjacent
syllables from the same factor.  Equality of group elements is then literal
equality of syllable tuples.

Input is validated at the public entries only (``Word(...)``,
``FreeProductGroup.word`` and ``FreeProductGroup.letter``): every factor
index and payload is range-checked, and the syllables are reduced by one
stack pass.  Products of words that are already reduced skip both steps.
By the reduced-word argument for free products (Magnus, Karrass and
Solitar, *Combinatorial Group Theory*, section 4.1) only the junction of two
reduced words can cancel or merge, so ``mul`` resolves the junction and
copies the rest; ``inv`` and the extensions in ``enumerate_words``
build their results the same way, without renormalizing.  ``prod``, the
product of a sequence of words, is one stack pass over their concatenated
syllables under the same argument: only syllables that meet at a junction
cancel or merge, so each syllable is pushed and popped at most once.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError, ValidationError
from .groups import FiniteGroup, GroupHom, generated_subgroup


class FreeProductGroup:
    """An ordered free product of finite groups."""

    def __init__(self, factors, name=None):
        factors = tuple(factors)
        if not factors:
            raise ValidationError("free product needs at least one factor")
        for f in factors:
            if not isinstance(f, FiniteGroup):
                raise ValidationError("factors must be finite groups")
        self.factors = factors
        self.name = name

    def identity(self) -> "Word":
        return Word._reduced(self, ())

    def letter(self, factor_index: int, payload: int) -> "Word":
        """A one-syllable word: one element of one factor."""
        return Word(self, ((factor_index, int(payload)),))

    def word(self, syllables) -> "Word":
        return Word(self, tuple((int(a), int(b)) for a, b in syllables))

    def mul(self, w1: "Word", w2: "Word") -> "Word":
        return w1.mul(w2)

    def prod(self, words) -> "Word":
        """The product of a sequence of reduced words, by one stack pass; the
        identity when empty."""
        syllables: list[tuple[int, int]] = []
        for w in words:
            if w.group is not self and w.group != self:
                raise DomainError("words from different free products")
            syllables += w.syllables
        return Word._reduced(self, _reduce(self.factors, syllables))

    def inv(self, w: "Word") -> "Word":
        return w.inv()

    def __eq__(self, other):
        return isinstance(other, FreeProductGroup) and self.factors == other.factors

    def __hash__(self):
        return hash(self.factors)

    def __repr__(self):
        return " * ".join(f.name or f"G{f.n}" for f in self.factors)


def _validate(factors, syllables) -> None:
    for fi, p in syllables:
        if not 0 <= fi < len(factors):
            raise ValidationError(f"syllable factor index {fi} out of range for {len(factors)} factors")
        if not 0 <= p < factors[fi].n:
            raise ValidationError(f"syllable payload {p} out of range for factor {fi}")


def _reduce(factors, syllables) -> tuple:
    """The reduced form of a validated syllable sequence, by one stack pass."""
    stack: list[tuple[int, int]] = []
    for fi, p in syllables:
        if p == 0:
            continue
        if stack and stack[-1][0] == fi:
            merged = factors[fi].mul(stack.pop()[1], p)
            if merged != 0:
                stack.append((fi, merged))
        else:
            stack.append((fi, p))
    return tuple(stack)


@dataclass(frozen=True)
class Word:
    """A reduced word of a free product.

    ``Word(group, syllables)`` validates the syllables and reduces them.
    Products of reduced words resolve only the junction of their factors;
    they are built by ``_reduced``, which trusts its input.
    """

    group: FreeProductGroup
    syllables: tuple[tuple[int, int], ...]

    def __post_init__(self):
        factors = self.group.factors
        _validate(factors, self.syllables)
        object.__setattr__(self, "syllables", _reduce(factors, self.syllables))

    @classmethod
    def _reduced(cls, group: FreeProductGroup, syllables: tuple) -> "Word":
        """A word from syllables that are already reduced: no check, no pass."""
        w = object.__new__(cls)
        object.__setattr__(w, "group", group)
        object.__setattr__(w, "syllables", syllables)
        return w

    def is_identity(self) -> bool:
        return not self.syllables

    def mul(self, other: "Word") -> "Word":
        group = self.group
        if group is not other.group and group != other.group:
            raise DomainError("words from different free products")
        left, right = self.syllables, other.syllables
        i, j = len(left), 0
        while i and j < len(right) and left[i - 1][0] == right[j][0]:
            fi = right[j][0]
            merged = group.factors[fi].mul(left[i - 1][1], right[j][1])
            i -= 1
            j += 1
            if merged != 0:
                return Word._reduced(group, left[:i] + ((fi, merged),) + right[j:])
        return Word._reduced(group, left[:i] + right[j:])

    def inv(self) -> "Word":
        factors = self.group.factors
        return Word._reduced(
            self.group,
            tuple((fi, factors[fi].inv(p)) for fi, p in reversed(self.syllables)),
        )

    def sort_key(self):
        return (len(self.syllables), self.syllables)

    def __repr__(self):
        if not self.syllables:
            return "<e>"
        factors = self.group.factors
        parts = (f"{factors[fi].name or 'F' + str(fi)}:{factors[fi].label(p)}" for fi, p in self.syllables)
        return "<" + " ".join(parts) + ">"


@dataclass(frozen=True)
class FactorMap:
    """A homomorphism from a free product to a finite group.

    Each factor carries a full homomorphism, so factor relations are checked
    at build time.
    """

    source: FreeProductGroup
    target: FiniteGroup
    maps: tuple

    def __post_init__(self):
        if len(self.maps) != len(self.source.factors):
            raise ValidationError("one map per factor required")
        for f, m in zip(self.source.factors, self.maps):
            if not isinstance(m, GroupHom) or m.source != f or m.target != self.target:
                raise ValidationError("finite factor needs a homomorphism into the target")

    def __call__(self, w: Word) -> int:
        if w.group is not self.source and w.group != self.source:
            raise DomainError("words from different free products")
        return self.target.prod(self.maps[fi](p) for fi, p in w.syllables)

    def is_surjective(self) -> bool:
        gens = {g for m in self.maps for g in m.images}
        return generated_subgroup(self.target, gens).order == self.target.n


def enumerate_words(group: FreeProductGroup, max_syllables: int):
    """Yield all reduced words with at most the given number of syllables:
    each syllable is a non-identity element of a factor other than its
    neighbour's.

    The words come lazily in ``Word.sort_key`` order, by length and then
    syllables: each level extends the one before, in its order, by last
    syllables in increasing order.  A caller that stops early builds only
    the words it has seen.
    """
    frontier: list[Word] = [group.identity()]
    yield frontier[0]
    for _ in range(max_syllables):
        nxt = []
        for w in frontier:
            last = w.syllables[-1][0] if w.syllables else None
            for fi in range(len(group.factors)):
                if fi == last:
                    continue
                for p in range(1, group.factors[fi].n):
                    nxt.append(Word._reduced(group, w.syllables + ((fi, p),)))
                    yield nxt[-1]
        frontier = nxt

