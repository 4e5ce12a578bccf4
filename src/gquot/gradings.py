"""Grading classes as data: characters, summands, dimensions, recognition.

A grading class of a semisimple algebra is a list of simply-graded summands,
each an elementary character x over the grading group together with a fine
part: a subgroup carrying a 2-cocycle.  The grading group is either a
FiniteGroup (elements are indices) or a FreeProductGroup of finite groups
(elements are reduced words); only operations that never enumerate the
group are offered over free products.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cocycles import CocycleTable, parse_cocycle
from .errors import DomainError, TheoremCheckError, ValidationError
from .groups import FiniteGroup, GroupHom, Subgroup, coset_space, generated_subgroup
from .words import FactorMap, Word, syllable_generators_cover


def _sort_key(elem):
    return elem.sort_key() if isinstance(elem, Word) else elem


@dataclass(frozen=True)
class Character:
    """An element of N[Gamma]: finitely many elements with multiplicities >= 1."""

    group: object
    mults: tuple[tuple[object, int], ...]

    def __post_init__(self):
        acc: dict = {}
        for elem, k in self.mults:
            k = int(k)
            if k < 1:
                raise ValidationError("character multiplicities must be >= 1")
            acc[elem] = acc.get(elem, 0) + k
        items = tuple(sorted(acc.items(), key=lambda kv: _sort_key(kv[0])))
        object.__setattr__(self, "mults", items)
        if not items:
            raise ValidationError("character must have non-empty support")

    @staticmethod
    def from_dict(group, d) -> "Character":
        return Character(group, tuple(d.items()))

    @staticmethod
    def point(group, elem=None, mult: int = 1) -> "Character":
        if elem is None:
            elem = group.identity()
        return Character(group, ((elem, mult),))

    @staticmethod
    def regular(group: FiniteGroup) -> "Character":
        """The sum of all group elements, each with multiplicity one."""
        return Character(group, tuple((g, 1) for g in group.elements()))

    @property
    def eps(self) -> int:
        return sum(k for _, k in self.mults)

    def support(self) -> tuple:
        return tuple(e for e, _ in self.mults)

    def get(self, elem) -> int:
        for e, k in self.mults:
            if e == elem:
                return k
        return 0

    def pushforward(self, mapping) -> "Character":
        """Apply an element mapping (e.g. a quotient projection) pointwise."""
        acc: dict = {}
        for e, k in self.mults:
            img = mapping(e)
            acc[img] = acc.get(img, 0) + k
        return Character.from_dict(_target_of(mapping), acc)

    def product(self, other: "Character") -> "Character":
        """Semiring product in N[Gamma]."""
        if other.group != self.group:
            raise DomainError("characters over different groups")
        acc: dict = {}
        for a, ka in self.mults:
            for b, kb in other.mults:
                ab = self.group.mul(a, b)
                acc[ab] = acc.get(ab, 0) + ka * kb
        return Character.from_dict(self.group, acc)


def _target_of(mapping):
    if isinstance(mapping, (GroupHom, FactorMap)):
        return mapping.target
    raise DomainError("pushforward needs a GroupHom or FactorMap")


@dataclass(frozen=True)
class FactorFine:
    """A fine part that is one finite factor of a free-product grading group."""

    factor_index: int


@dataclass(frozen=True)
class Summand:
    """A simply-graded summand: elementary character, fine subgroup, cocycle.

    ``fine`` is None for a trivial fine part, a Subgroup of a finite grading
    group, or a FactorFine naming a finite factor of a free product.
    ``cocycle`` is None (trivial), a CocycleTable, or a complex table on the
    fine group.
    """

    x: Character
    fine: object = None
    cocycle: object = None

    def fine_order(self, group) -> int:
        if self.fine is None:
            return 1
        if isinstance(self.fine, Subgroup):
            return self.fine.order
        if isinstance(self.fine, FactorFine):
            return group.factors[self.fine.factor_index].n
        raise DomainError("unrecognized fine part")

    def fine_elements(self, group) -> tuple:
        if self.fine is None:
            return (group.identity(),)
        if isinstance(self.fine, Subgroup):
            return self.fine.elements
        if isinstance(self.fine, FactorFine):
            fi = self.fine.factor_index
            factor = group.factors[fi]
            return (group.identity(),) + tuple(group.letter(fi, p) for p in range(1, factor.n))
        raise DomainError("unrecognized fine part")

    def has_trivial_fine(self, group) -> bool:
        if self.fine_order(group) != 1:
            return False
        return _cocycle_is_trivial_on_trivial_group(self.cocycle)

    def dimension(self, group) -> int:
        return self.x.eps ** 2 * self.fine_order(group)


def _cocycle_is_trivial_on_trivial_group(cocycle) -> bool:
    if cocycle is None:
        return True
    if isinstance(cocycle, CocycleTable):
        return cocycle.group.n == 1 or cocycle.is_trivial_table()
    values = np.asarray(cocycle)
    return values.size == 1 or bool(np.max(np.abs(values - 1)) < 1e-9)


@dataclass(frozen=True)
class GradingClassDescriptor:
    group: object
    summands: tuple[Summand, ...]


# -- dimensions of induced gradings -----------------------------------------


def induced_dims(x: Character, fine_dims: dict, group: FiniteGroup) -> dict:
    """Homogeneous dimensions of the grading induced by x from a base grading.

    dim at g0 = sum over g1 * g2 * g3^-1 = g0 of n_{g1} * dim(base_{g2}) * n_{g3}.
    """
    if not isinstance(group, FiniteGroup):
        raise DomainError("induced dimensions require a finite grading group")
    out: dict = {}
    for g1, n1 in x.mults:
        for g2, d2 in fine_dims.items():
            if d2 == 0:
                continue
            left = group.mul(g1, g2)
            for g3, n3 in x.mults:
                g0 = group.mul(left, group.inv(g3))
                out[g0] = out.get(g0, 0) + n1 * d2 * n3
    return out


def summand_dims(s: Summand, group: FiniteGroup) -> dict:
    fine_dims = {e: 1 for e in s.fine_elements(group)}
    return induced_dims(s.x, fine_dims, group)


def descriptor_dims(d: GradingClassDescriptor) -> dict:
    out: dict = {}
    for s in d.summands:
        for g, v in summand_dims(s, d.group).items():
            out[g] = out.get(g, 0) + v
    return out


def induced_support(x: Character, fine_elements, group):
    """Support of the induced grading: products g1 * g2 * g3^-1."""
    out = set()
    for g1, _ in x.mults:
        for g2 in fine_elements:
            left = group.mul(g1, g2)
            for g3, _ in x.mults:
                out.add(group.mul(left, group.inv(g3)))
    return out


def descriptor_support(d: GradingClassDescriptor) -> set:
    out = set()
    for s in d.summands:
        out |= induced_support(s.x, s.fine_elements(d.group), d.group)
    return out


def is_connected(d: GradingClassDescriptor) -> bool:
    """Whether the support generates the grading group.

    Finite groups use subgroup closure.  Free products use syllable
    coverage: the single-syllable part of the support must generate every
    factor; when it does not but longer words remain, the question is
    declared out of scope rather than guessed.
    """
    supp = descriptor_support(d)
    if isinstance(d.group, FiniteGroup):
        return generated_subgroup(d.group, supp).order == d.group.n
    if syllable_generators_cover(d.group, supp):
        return True
    if all(w.syllable_length() <= 1 for w in supp):
        return False
    raise DomainError("connectedness is undecided for multi-syllable support without coverage")


# -- equi-dimensionality ------------------------------------------------------


def coset_masses(x: Character, H: Subgroup) -> dict[int, int]:
    """Total multiplicity of x on each left coset gH, keyed by representative."""
    cs = coset_space(x.group, H)
    out = {rep: 0 for rep in cs.representatives}
    for g, k in x.mults:
        out[cs.representatives[cs.block_of[g]]] += k
    return out


def is_equidimensional_induced(x: Character, H: Subgroup, base_dims: dict | None = None):
    """Coset-mass criterion for equi-dimensionality of an induced grading.

    Requires an equi-dimensional base; the verdict is cross-checked against
    the directly computed homogeneous dimensions.
    Returns (verdict, masses).
    """
    G = x.group
    if base_dims is None:
        base_dims = {e: 1 for e in H.elements}
    vals = {base_dims.get(e, 0) for e in H.elements}
    if len(vals) != 1:
        raise DomainError("base grading is not equi-dimensional")
    base_common = vals.pop()
    masses = coset_masses(x, H)
    verdict = len(set(masses.values())) == 1
    dims = induced_dims(x, {e: base_common for e in H.elements}, G)
    full = {g: dims.get(g, 0) for g in G.elements()}
    direct = len(set(full.values())) == 1
    if direct != verdict:
        raise TheoremCheckError(
            f"coset-mass criterion ({verdict}) disagrees with direct dimensions ({direct})"
        )
    return verdict, masses


# -- recognition ---------------------------------------------------------------


def is_elementary(d: GradingClassDescriptor) -> bool:
    """Induced from the trivial grading: every fine part trivial."""
    return all(s.has_trivial_fine(d.group) for s in d.summands)


def is_elementary_crossed_product(d: GradingClassDescriptor) -> bool:
    """Elementary with a single summand whose character covers the group once."""
    if not is_elementary(d) or len(d.summands) != 1:
        return False
    x = d.summands[0].x
    if not isinstance(d.group, FiniteGroup):
        return False
    return x.eps == d.group.n and all(k == 1 for _, k in x.mults) and len(x.mults) == d.group.n


# -- text format ------------------------------------------------------------


def parse_descriptor(text: str, group: FiniteGroup, base_dir=None) -> GradingClassDescriptor:
    """Parse the one-summand-per-line descriptor format.

    Each line reads ``x: elem^mult ... | H: elems | alpha: FILE-or-trivial``;
    elements are group indices, H may be omitted or ``e`` for a trivial fine
    part, and alpha paths are resolved relative to ``base_dir``.
    """
    summands = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split("|")]
        fields = {}
        for part in parts:
            key, _, value = part.partition(":")
            fields[key.strip().lower()] = value.strip()
        if "x" not in fields:
            raise ValidationError(f"line {lineno}: summand needs an x field")
        mults: dict = {}
        for tok in fields["x"].split():
            elem, _, mult = tok.partition("^")
            try:
                e = int(elem)
                k = int(mult) if mult else 1
            except ValueError:
                raise ValidationError(f"line {lineno}: bad character token {tok!r}") from None
            if not 0 <= e < group.n:
                raise ValidationError(f"line {lineno}: element {e} out of range")
            mults[e] = mults.get(e, 0) + k
        x = Character.from_dict(group, mults)
        h_field = fields.get("h", "")
        if h_field in ("", "e", "0", "trivial"):
            fine = None
        else:
            elems = tuple(int(t) for t in h_field.replace(",", " ").split())
            fine = Subgroup(group, elems)
        alpha_field = fields.get("alpha", "trivial")
        if alpha_field == "trivial" or fine is None:
            cocycle = None
        else:
            path = Path(base_dir or ".") / alpha_field
            sub, _ = fine.as_group()
            cocycle = parse_cocycle(path.read_text(), sub)
        summands.append(Summand(x, fine, cocycle))
    if not summands:
        raise ValidationError("descriptor has no summands")
    return GradingClassDescriptor(group, tuple(summands))
