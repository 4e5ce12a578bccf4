"""Grading classes as data: characters, summands, dimensions, recognition.

A grading class of a semisimple algebra is a list of simply-graded summands,
each an elementary character x over the grading group together with a fine
part: a subgroup carrying a 2-cocycle.  The grading group is a FiniteGroup,
so elements are indices and every question is settled by enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cocycles import CocycleTable, parse_cocycle
from .errors import DomainError, GquotError, SizeBoundError, TheoremCheckError, ValidationError
from .groups import FiniteGroup, Subgroup, coset_space, generated_subgroup, parse_subgroup

INT64_MAX = 2**63 - 1  # the largest total dimension ``induced_dims`` accepts


@dataclass(frozen=True)
class Character:
    """An element of N[Gamma]: finitely many elements with multiplicities >= 1.

    Each element is an integer index 0..n-1 of the group of order n; any
    other element raises ValidationError naming it and the group order."""

    group: FiniteGroup
    mults: tuple[tuple[int, int], ...]

    def __post_init__(self):
        acc: dict = {}
        n = self.group.n
        for elem, k in self.mults:
            if isinstance(elem, bool) or not isinstance(elem, (int, np.integer)) or not 0 <= elem < n:
                raise ValidationError(f"character element {elem!r} is not an index of the group of order {n}")
            k = int(k)
            if k < 1:
                raise ValidationError("character multiplicities must be >= 1")
            acc[elem] = acc.get(elem, 0) + k
        items = tuple(sorted(acc.items()))
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


@dataclass(frozen=True)
class Summand:
    """A simply-graded summand: elementary character, fine subgroup, cocycle.

    ``fine`` is None for a trivial fine part, or a Subgroup of the grading
    group ``x.group``.  ``cocycle`` is None (trivial) or a CocycleTable on
    the fine group ``fine.as_group()``, or on the trivial group when
    ``fine`` is None; a Mackey summand carries its orbit's exact
    obstruction, of scale |I|.  Any other fine part or cocycle raises
    DomainError.
    """

    x: Character
    fine: Subgroup | None = None
    cocycle: CocycleTable | None = None

    def __post_init__(self):
        if self.fine is not None and self.fine.group != self.x.group:
            raise DomainError("fine subgroup lives on another group than the summand character")
        if self.cocycle is not None and not (
            self.cocycle.group.n == 1 if self.fine is None else self.cocycle.group == self.fine.as_group()
        ):
            raise DomainError("summand cocycle lives on another group than its fine subgroup")

    def fine_order(self) -> int:
        return 1 if self.fine is None else self.fine.order

    def fine_elements(self) -> tuple[int, ...]:
        return (0,) if self.fine is None else self.fine.elements

    def has_trivial_fine(self) -> bool:
        return self.fine_order() == 1 and _cocycle_is_trivial_on_trivial_group(self.cocycle)

    def dimension(self) -> int:
        return self.x.eps ** 2 * self.fine_order()


def _cocycle_is_trivial_on_trivial_group(cocycle: CocycleTable | None) -> bool:
    return cocycle is None or cocycle.group.n == 1 or cocycle.is_trivial_table()


@dataclass(frozen=True)
class GradingClassDescriptor:
    """Simply-graded summands over one grading group; a summand whose
    character lives on another group raises DomainError."""

    group: FiniteGroup
    summands: tuple[Summand, ...]

    def __post_init__(self):
        if any(s.x.group != self.group for s in self.summands):
            raise DomainError("summand character lives on another group than the grading group")


# -- dimensions of induced gradings -----------------------------------------


def induced_dims(x: Character, fine_dims: dict, group: FiniteGroup) -> dict:
    """Homogeneous dimensions of the grading induced by x from a base grading.

    dim at g0 = sum over g1 * g2 * g3^-1 = g0 of n_{g1} * dim(base_{g2}) * n_{g3}.
    The triples (g1, g2, g3) are walked g1-major on the row lists
    ``group.rows``, base elements of dimension 0 left out, so the keys come
    in the order those triples first reach them; every product and sum is a
    Python int, so nothing overflows.  A total dimension
    eps(x)^2 * sum(base dims) above INT64_MAX is refused with SizeBoundError
    before the walk: an input bound on gradings, not an overflow guard.
    """
    base = [(g, int(d)) for g, d in fine_dims.items() if d != 0]
    if not base:
        return {}
    if x.eps**2 * sum(d for _, d in base) > INT64_MAX:
        raise SizeBoundError(f"induced grading of total dimension above {INT64_MAX}")
    rows = group.rows
    right = [(group.inv(g3), n3) for g3, n3 in x.mults]  # g0 = (g1 g2) g3^-1
    out: dict = {}
    for g1, n1 in x.mults:
        row1 = rows[g1]
        for g2, d2 in base:
            row, w = rows[row1[g2]], n1 * d2
            for h, n3 in right:
                g0 = row[h]
                out[g0] = out.get(g0, 0) + w * n3
    return out


def summand_dims(s: Summand, group: FiniteGroup) -> dict:
    fine_dims = {e: 1 for e in s.fine_elements()}
    return induced_dims(s.x, fine_dims, group)


def descriptor_dims(d: GradingClassDescriptor) -> dict:
    out: dict = {}
    for s in d.summands:
        for g, v in summand_dims(s, d.group).items():
            out[g] = out.get(g, 0) + v
    return out


def is_connected(d: GradingClassDescriptor) -> bool:
    """Whether the support generates the grading group.

    Every homogeneous dimension ``descriptor_dims`` reports is positive, so
    its keys are exactly the support.
    """
    return generated_subgroup(d.group, descriptor_dims(d)).order == d.group.n


# -- equi-dimensionality ------------------------------------------------------


def coset_masses(x: Character, H: Subgroup) -> dict[int, int]:
    """Total multiplicity of x on each left coset gH, keyed by representative."""
    cs = coset_space(x.group, H)
    out = {rep: 0 for rep in cs.representatives}
    for g, k in x.mults:
        out[cs.representatives[cs.block_of[g]]] += k
    return out


def is_equidimensional_induced(x: Character, H: Subgroup):
    """Coset-mass criterion for equi-dimensionality of a grading induced by x
    from the base grading of H in which every element has dimension one.

    The verdict is cross-checked against the directly computed homogeneous
    dimensions.  Returns (verdict, masses).
    """
    G = x.group
    masses = coset_masses(x, H)
    verdict = len(set(masses.values())) == 1
    dims = induced_dims(x, {e: 1 for e in H.elements}, G)
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
    return all(s.has_trivial_fine() for s in d.summands)


def is_elementary_crossed_product(d: GradingClassDescriptor) -> bool:
    """Elementary with a single summand whose character covers the group once."""
    if not is_elementary(d) or len(d.summands) != 1:
        return False
    x = d.summands[0].x
    return x.eps == d.group.n and all(k == 1 for _, k in x.mults) and len(x.mults) == d.group.n


# -- text format ------------------------------------------------------------


def parse_descriptor(text: str, group: FiniteGroup, base_dir=None) -> GradingClassDescriptor:
    """Parse the one-summand-per-line descriptor format.

    Each line reads ``x: elem^mult ... | H: elems | alpha: FILE-or-trivial``;
    elements are group indices, H may be omitted or ``e`` for a trivial fine
    part, and alpha paths are resolved relative to ``base_dir``.  Keys are
    read case-insensitively; a repeated field or another key raises, naming
    its line, and so does an x token whose element or multiplicity is not
    ASCII digits (``int`` would read ``1_0`` as 10, ``٣`` as 3 and ``+1`` as
    1) or an H token ``parse_subgroup`` refuses, so a typo cannot silently
    change the grading class.
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
            key = key.strip()
            if key.lower() not in ("x", "h", "alpha"):
                raise ValidationError(f"line {lineno}: unknown field {key!r}")
            if key.lower() in fields:
                raise ValidationError(f"line {lineno}: repeated field {key!r}")
            fields[key.lower()] = value.strip()
        if "x" not in fields:
            raise ValidationError(f"line {lineno}: summand needs an x field")
        try:  # the x and H fields; an error in building them names this line
            mults: dict = {}
            for tok in fields["x"].split():
                elem, caret, mult = tok.partition("^")
                if not all(p.isascii() and p.isdigit() for p in ((elem, mult) if caret else (elem,))):
                    raise ValidationError(f"bad character token {tok!r}")
                e, k = int(elem), int(mult) if caret else 1
                if not 0 <= e < group.n:
                    raise ValidationError(f"element {e} out of range")
                mults[e] = mults.get(e, 0) + k
            x = Character.from_dict(group, mults)
            h_field = fields.get("h", "")
            if h_field in ("", "e", "0", "trivial"):
                fine = None
            else:
                fine = parse_subgroup(group, h_field)
        except (GquotError, ValueError) as exc:  # int refuses a digit string past its length limit
            raise ValidationError(f"line {lineno}: {exc}") from None
        alpha_field = fields.get("alpha", "trivial")
        if alpha_field == "trivial" or fine is None:
            cocycle = None
        else:
            path = Path(base_dir or ".") / alpha_field
            cocycle = parse_cocycle(path.read_text(), fine.as_group())
        summands.append(Summand(x, fine, cocycle))
    if not summands:
        raise ValidationError("descriptor has no summands")
    return GradingClassDescriptor(group, tuple(summands))
