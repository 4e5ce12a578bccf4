"""2-cocycles with root-of-unity values and the abelian bicharacter calculus.

A cocycle is stored additively: the value at (g, h) is zeta_m^c(g,h) for a
fixed primitive m-th root of unity, and c is an integer table modulo m.
This turns cohomology questions into exact linear algebra over Z/m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ScaleError, SizeBoundError, ValidationError
from .groups import FiniteGroup, Subgroup, direct_product, cyclic
from .smith import solve_mod


class CocycleTable:
    """A normalized 2-cocycle as an exponent table modulo ``scale``."""

    __slots__ = ("group", "scale", "exps")

    def __init__(self, group: FiniteGroup, scale: int, exps, _trusted=False):
        if scale < 1:
            raise ValidationError("scale must be a positive integer")
        exps = np.asarray(exps, dtype=np.int64) % scale
        if exps.shape != (group.n, group.n):
            raise ValidationError(f"cocycle table shape {exps.shape} does not match group order {group.n}")
        self.group = group
        self.scale = int(scale)
        self.exps = exps
        if not _trusted:
            self._validate()
        self.exps.setflags(write=False)

    def _validate(self):
        exps, m, mul = self.exps, self.scale, self.group.table
        if exps[0].any() or exps[:, 0].any():
            raise ValidationError("cocycle is not normalized at the identity")
        # one (h, k) slab per g keeps the check at O(n^2) memory
        for g in range(self.group.n):
            bad = (exps[g, :, None] + exps[mul[g], :] - exps - exps[g, mul]) % m
            if bad.any():
                h, k = (int(x) for x in np.argwhere(bad)[0])
                raise ValidationError(f"2-cocycle identity fails at triple ({g},{h},{k})")

    @staticmethod
    def trivial(group: FiniteGroup, scale: int = 1) -> "CocycleTable":
        return CocycleTable(group, scale, np.zeros((group.n, group.n), dtype=np.int64), _trusted=True)

    def is_trivial_table(self) -> bool:
        return not self.exps.any()

    def value_matrix(self) -> np.ndarray:
        """The complex values exp(2*pi*i*c/m) as an (n, n) array."""
        return np.exp(2j * np.pi * self.exps / self.scale)

    def value(self, g: int, h: int) -> complex:
        return complex(np.exp(2j * np.pi * int(self.exps[g, h]) / self.scale))

    def rescale(self, new_scale: int) -> "CocycleTable":
        if new_scale % self.scale != 0:
            raise ScaleError(f"cannot rescale modulus {self.scale} to non-multiple {new_scale}")
        k = new_scale // self.scale
        return CocycleTable(self.group, new_scale, self.exps * k, _trusted=True)

    def mul(self, other: "CocycleTable") -> "CocycleTable":
        a, b = reconcile_scales(self, other)
        return CocycleTable(a.group, a.scale, (a.exps + b.exps) % a.scale, _trusted=True)

    def restrict(self, H: Subgroup) -> tuple["CocycleTable", FiniteGroup, list[int]]:
        """Restrict to a subgroup, returned on the subgroup as a standalone group."""
        if H.group is not self.group and H.group != self.group:
            raise DomainError("subgroup belongs to a different group")
        sub, embed = H.as_group()
        idx = np.asarray(embed)
        table = self.exps[np.ix_(idx, idx)]
        return CocycleTable(sub, self.scale, table, _trusted=True), sub, embed

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CocycleTable)
            and self.group == other.group
            and self.scale == other.scale
            and np.array_equal(self.exps, other.exps)
        )

    def __hash__(self):
        return hash((self.scale, self.exps.tobytes()))

    def __repr__(self):
        return f"CocycleTable(order {self.group.n}, scale {self.scale})"


def reconcile_scales(a: CocycleTable, b: CocycleTable) -> tuple[CocycleTable, CocycleTable]:
    if a.group != b.group:
        raise DomainError("cocycles live on different groups")
    m = math.lcm(a.scale, b.scale)
    return a.rescale(m), b.rescale(m)


@dataclass(frozen=True)
class OneCochain:
    """An exponent per element, zero at the identity."""

    group: FiniteGroup
    scale: int
    exps: tuple[int, ...]

    def __post_init__(self):
        exps = tuple(int(x) % self.scale for x in self.exps)
        object.__setattr__(self, "exps", exps)
        if len(exps) != self.group.n:
            raise ValidationError("cochain length does not match group order")
        if exps[0] != 0:
            raise ValidationError("cochain is not normalized at the identity")


def coboundary(c: OneCochain) -> CocycleTable:
    """The coboundary (delta c)(g, h) = c(g) + c(h) - c(gh)."""
    v = np.asarray(c.exps, dtype=np.int64)
    mul = c.group.table
    exps = (v[:, None] + v[None, :] - v[mul]) % c.scale
    return CocycleTable(c.group, c.scale, exps, _trusted=True)


def group_exponent(G: FiniteGroup) -> int:
    out = 1
    for g in G.elements():
        out = math.lcm(out, G.order_of(g))
    return out


def cohomologous(a: CocycleTable, b: CocycleTable) -> tuple[bool, OneCochain | None]:
    """Decide whether two cocycles represent the same class over C*.

    The additive system  c(g) + c(h) - c(gh) = (b - a)(g, h)  is solved
    exactly at the scale m * exponent(G).  The enlarged scale is provably
    sufficient: any complex solution automatically takes values that are
    ord(g) * m -th roots of unity, so solvability over C* and over
    Z/(m * exp) coincide.  (At scale m alone the test would be wrong:
    u_t^2 = -1 on C_2 is trivial over C* with witness f(t) = i.)
    The witness is re-checked against the target before returning.
    """
    a, b = reconcile_scales(a, b)
    lift = a.scale * group_exponent(a.group)
    a, b = a.rescale(lift), b.rescale(lift)
    n, m = a.group.n, a.scale
    target = (b.exps - a.exps) % m
    mul = a.group.table
    rows, rhs = [], []
    for g in range(1, n):
        for h in range(1, n):
            coeff = [0] * (n - 1)
            coeff[g - 1] += 1
            coeff[h - 1] += 1
            gh = int(mul[g, h])
            if gh != 0:
                coeff[gh - 1] -= 1
            rows.append(coeff)
            rhs.append(int(target[g, h]))
    x = solve_mod(rows, rhs, m)
    if x is None:
        return False, None
    witness = OneCochain(a.group, m, (0,) + tuple(x))
    if not np.array_equal(coboundary(witness).exps, target):
        raise ValidationError("coboundary witness failed verification")  # solver bug guard
    return True, witness


def is_cohomologically_trivial(a: CocycleTable) -> tuple[bool, OneCochain | None]:
    return cohomologous(CocycleTable.trivial(a.group, a.scale), a)


class Bicharacter:
    """Alternating bicharacter of an abelian group, stored as exponents mod m."""

    __slots__ = ("group", "scale", "exps")

    def __init__(self, group: FiniteGroup, scale: int, exps, _trusted=False):
        exps = np.asarray(exps, dtype=np.int64) % scale
        self.group = group
        self.scale = int(scale)
        self.exps = exps
        if not _trusted:
            self._validate()
        self.exps.setflags(write=False)

    def _validate(self):
        if not self.group.is_abelian:
            raise DomainError("bicharacters are defined on abelian groups")
        exps, m, mul = self.exps, self.scale, self.group.table
        if ((exps + exps.T) % m).any():
            raise ValidationError("bicharacter is not antisymmetric")
        if (np.diagonal(exps) % m).any():
            raise ValidationError("bicharacter is not alternating on the diagonal")
        # additivity in the first argument: b(s*t, u) = b(s, u) + b(t, u)
        lhs = exps[mul, :]
        rhs = exps[:, None, :] + exps[None, :, :]
        if ((lhs - rhs) % m).any():
            raise ValidationError("bicharacter is not additive in the first argument")

    def is_zero(self) -> bool:
        return not self.exps.any()

    def radical(self) -> Subgroup:
        """Elements pairing trivially with everything; always a subgroup."""
        elems = tuple(int(g) for g in range(self.group.n) if not self.exps[g].any())
        return Subgroup(self.group, elems)

    def __eq__(self, other):
        return (
            isinstance(other, Bicharacter)
            and self.group == other.group
            and self.scale == other.scale
            and np.array_equal(self.exps, other.exps)
        )

    def __hash__(self):
        return hash((self.scale, self.exps.tobytes()))


def bicharacter_of(a: CocycleTable) -> Bicharacter:
    """The alternating form b(s, t) = c(s, t) - c(t, s); a class invariant."""
    if not a.group.is_abelian:
        raise DomainError("bicharacter_of requires an abelian group")
    return Bicharacter(a.group, a.scale, (a.exps - a.exps.T) % a.scale)


def standard_nondegenerate(invariants) -> CocycleTable:
    """The reference non-degenerate cocycle on (C_n1 x ... x C_nr)^2.

    The carrier group is the direct product with the first r factors the
    x-generators and the last r their phi-images; the cocycle pairs the
    x-exponents of the first argument with the phi-exponents of the second,
    so its alternating form is the standard symplectic one.
    """
    invariants = [int(x) for x in invariants]
    if not invariants or any(x < 1 for x in invariants):
        raise DomainError("invariants must be a non-empty list of positive integers")
    m = math.lcm(*invariants)
    factors = [cyclic(k) for k in invariants] + [cyclic(k) for k in invariants]
    G = direct_product(*factors)
    r = len(invariants)
    sizes = invariants + invariants
    coords = np.empty((G.n, 2 * r), dtype=np.int64)
    for g in range(G.n):
        x = g
        for j in range(2 * r - 1, -1, -1):
            coords[g, j] = x % sizes[j]
            x //= sizes[j]
    weights = np.array([m // k for k in invariants], dtype=np.int64)
    first = coords[:, :r] * weights  # weighted x-exponents
    second = coords[:, r:]           # phi-exponents
    exps = (first @ second.T) % m
    return CocycleTable(G, m, exps, _trusted=True)


NUMERIC_BOUND = 256  # largest order for the twisted algebra and its block oracle


def is_nondegenerate(G: FiniteGroup, a: CocycleTable, seed: int = 0) -> bool:
    """Whether the twisted group algebra over ``a`` is a full matrix algebra.

    Abelian groups use the exact radical criterion; the general case asks
    the numeric block oracle for a single simple block.
    """
    if G.n > NUMERIC_BOUND:
        raise SizeBoundError(f"non-degeneracy bounded at order {NUMERIC_BOUND}")
    if a.group != G:
        raise DomainError("cocycle lives on a different group")
    if G.is_abelian:
        return bicharacter_of(a).radical().order == 1
    from .twisted import TwistedAlgebra

    return len(TwistedAlgebra(G, a).wedderburn(seed=seed).dims) == 1


# -- text format -----------------------------------------------------------


def parse_cocycle(text: str, group: FiniteGroup) -> CocycleTable:
    """Parse the cocycle text format and validate against the given group."""
    rows: list[list[int]] = []
    header = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if header is None:
            parts = line.split()
            if len(parts) != 2 or not all(p.isdigit() for p in parts):
                raise ValidationError(f"line {lineno}: expected header 'm n'")
            header = (int(parts[0]), int(parts[1]))
            if header[1] != group.n:
                raise ValidationError(f"line {lineno}: cocycle is for order {header[1]}, group has {group.n}")
            continue
        try:
            row = [int(tok) for tok in line.split()]
        except ValueError:
            raise ValidationError(f"line {lineno}: non-integer entry") from None
        if len(row) != group.n:
            raise ValidationError(f"line {lineno}: expected {group.n} entries, got {len(row)}")
        rows.append(row)
    if header is None or len(rows) != group.n:
        raise ValidationError("cocycle file is incomplete")
    return CocycleTable(group, header[0], rows)
