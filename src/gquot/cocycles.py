"""2-cocycles with root-of-unity values and the abelian bicharacter calculus.

A cocycle is stored additively: the value at (g, h) is zeta_m^c(g,h) for a
fixed primitive m-th root of unity, and c is an integer table modulo m.
This turns cohomology questions into exact linear algebra over Z/m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ScaleError, ValidationError
from .groups import FiniteGroup, Subgroup, cyclic, direct_product, generating_sequence, parse_row
from .smith import SystemRows, solve_mod

# Exponents are int64 residues below MAX_SCALE, so every exponent expression
# here, at most two residues added and two subtracted, stays inside int64.
MAX_SCALE = 2**62 - 1


def _check_scale(scale: int) -> None:
    if scale < 1:
        raise ValidationError("scale must be a positive integer")
    if scale > MAX_SCALE:
        raise ValidationError(f"scale {scale} exceeds the int64 bound {MAX_SCALE}")


class CocycleTable:
    """A normalized 2-cocycle as an exponent table modulo ``scale``."""

    __slots__ = ("group", "scale", "exps")

    def __init__(self, group: FiniteGroup, scale: int, exps, _trusted=False):
        _check_scale(scale)
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
        """Normalization, then the 2-cocycle identity
        (dc)(g, h, k) = c(g, h) + c(gh, k) - c(h, k) - c(g, hk) = 0 on the
        columns k = s in ``generating_sequence(G)`` only, one (g, h) slab each.

        That is enough.  The 3-coboundary of dc vanishes:
        dc(h, k, s) - dc(gh, k, s) + dc(g, hk, s) - dc(g, h, ks) + dc(g, h, k) = 0,
        so once column s vanishes dc(g, h, ks) = dc(g, h, k), and normalization
        gives dc(g, h, e) = 0; by induction on the word length of k every
        column vanishes.  When a column fails, the g-slab scan over all
        triples names the first failing triple in (g, h, k) order.
        """
        exps, m, mul = self.exps, self.scale, self.group.table
        if exps[0].any() or exps[:, 0].any():
            raise ValidationError("cocycle is not normalized at the identity")
        if cocycles_hold(self.group, m, exps):
            return
        # one (h, k) slab per g keeps the scan at O(n^2) memory
        for g in range(self.group.n):
            bad = (exps[g, :, None] + exps[mul[g], :] - exps - exps[g, mul]) % m
            if bad.any():
                h, k = (int(x) for x in np.argwhere(bad)[0])
                raise ValidationError(f"2-cocycle identity fails at triple ({g},{h},{k})")
        raise AssertionError("a generator column of the 2-cocycle identity failed but no triple does")

    @staticmethod
    def trivial(group: FiniteGroup, scale: int = 1) -> "CocycleTable":
        return CocycleTable(group, scale, np.zeros((group.n, group.n), dtype=np.int64), _trusted=True)

    def is_trivial_table(self) -> bool:
        return not self.exps.any()

    def value_matrix(self) -> np.ndarray:
        """The complex values exp(2*pi*i*c/m) as an (n, n) array."""
        return np.exp(2j * np.pi * self.exps / self.scale)

    def rescale(self, new_scale: int) -> "CocycleTable":
        if new_scale % self.scale != 0:
            raise ScaleError(f"cannot rescale modulus {self.scale} to non-multiple {new_scale}")
        if new_scale > MAX_SCALE:
            raise ScaleError(f"cannot rescale to {new_scale}, beyond the int64 bound {MAX_SCALE}")
        k = new_scale // self.scale
        return CocycleTable(self.group, new_scale, self.exps * k, _trusted=True)

    def mul(self, other: "CocycleTable") -> "CocycleTable":
        a, b = reconcile_scales(self, other)
        return CocycleTable(a.group, a.scale, (a.exps + b.exps) % a.scale, _trusted=True)

    def conjugation(self) -> tuple[np.ndarray, np.ndarray]:
        """The n x n tables conj[h, g] = h g h^-1 and kappa[h, g], the exponent
        with u_h u_g u_h^-1 = zeta_m^kappa u_{hgh^-1}: as u_h^-1 is
        zeta_m^-c(h, h^-1) u_{h^-1}, kappa = c(h, g) + c(hg, h^-1) - c(h, h^-1) mod m."""
        t, inv, c = self.group.table, self.group.inverse_table[:, None], self.exps
        kappa = (c + c[t, inv] - c[np.arange(self.group.n)[:, None], inv]) % self.scale
        return t[t, inv], kappa

    def restrict(self, H: Subgroup) -> "CocycleTable":
        """Restrict to H, on ``H.as_group()``, whose element i is ``H.elements[i]``."""
        if H.group is not self.group and H.group != self.group:
            raise DomainError("subgroup belongs to a different group")
        rows = np.array(H.elements)
        return CocycleTable(H.as_group(), self.scale, self.exps[rows[:, None], rows], _trusted=True)

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


def cocycles_hold(group: FiniteGroup, scale: int, exps: np.ndarray) -> bool:
    """Whether every exponent table of ``exps``, one (n, n) table or a stack
    (..., n, n) of them, is normalized and satisfies the 2-cocycle identity
    mod ``scale`` on the generator columns, in one array pass per generator:
    by ``CocycleTable._validate``, exactly when every table is a normalized
    2-cocycle."""
    mul = group.table
    if exps[..., 0, :].any() or exps[..., :, 0].any():
        return False
    return not any(
        ((exps + exps[..., mul, s] - exps[..., None, :, s] - exps[..., :, mul[:, s]]) % scale).any()
        for s in generating_sequence(group)
    )


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
        _check_scale(self.scale)
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
    return math.lcm(*G.element_orders())


def cohomologous(
    a: CocycleTable, b: CocycleTable, factors: dict | None = None
) -> tuple[bool, OneCochain | None]:
    """Decide whether two cocycles represent the same class over C*.

    The additive system  c(g) + c(h) - c(gh) = t(g, h),  t = b - a,  is
    solved exactly at the scale M = m * exponent(G).  The enlarged scale is
    provably sufficient: any complex solution automatically takes values that
    are ord(g) * m -th roots of unity, so solvability over C* and over Z/M
    coincide.  (At scale m alone the test would be wrong: u_t^2 = -1 on C_2
    is trivial over C* with witness f(t) = i.)

    M splits as M1 * M2, where M1 is the part of M whose primes divide
    n = |G|, found by repeated gcd with n; M2 is coprime to n.

    - **Mod M1** the system goes to ``solve_mod``.  It has one row per pair
      (g, h) of non-identity elements, g-major, and one unknown per
      non-identity element (``_coboundary_rows``): the rows are one int8
      array and the right-hand side t one int64 array, with no Python
      object per equation.  The rows depend only on
      the table of G and M1 only on that table and the scale; only the
      right-hand side depends on the cocycles.  So a caller that asks about
      many cocycles on one table passes ``factors``, a dict it keeps: the
      rows are built once per (table core, M1) and kept in it, with the
      registry key ``solve_mod`` derives from them, and ``solve_mod``
      factors each system once in it and replays it for every later call
      (``smith``, "factor once, replay per right-hand side"), with the
      verdict and witness a fresh solve gives.
    - **Mod M2** there is nothing to solve: H^2(G, Z/p^e) = 0 for p not
      dividing n (Brown, *Cohomology of Groups*, III.10), and the witness is
      explicit.  Summing the cocycle identity
      t(h, k) - t(gh, k) + t(g, hk) - t(g, h) = 0 over k gives
      n t(g, h) = S(g) + S(h) - S(gh) with the row sum S(g) = sum_k t(g, k),
      so c = n^-1 S mod M2 (and S(e) = 0).  Two normalized solutions mod M2
      differ by a homomorphism G -> Z/M2, which is 0 as M2 is coprime to n:
      c is the one solution, the one a solve mod M2 would return.

    The two parts are glued by the Chinese remainder theorem, and the witness
    is re-checked against the target before returning.
    """
    a, b = reconcile_scales(a, b)
    lift = a.scale * group_exponent(a.group)
    a, b = a.rescale(lift), b.rescale(lift)
    n, m = a.group.n, a.scale
    target = (b.exps - a.exps) % m
    m2 = m
    while (d := math.gcd(m2, n)) > 1:
        m2 //= d
    m1 = m // m2
    rows = None if factors is None else factors.get((a.group.core, m1))
    if rows is None:
        rows = _coboundary_rows(a.group)
        if factors is not None:
            factors[(a.group.core, m1)] = rows
    x = solve_mod(rows, target[1:, 1:].ravel(), m1, factors=factors)
    if x is None:
        return False, None
    # x + m1 * y is x mod m1 and n^-1 S mod m2 when y = (n^-1 S - x) m1^-1 mod m2
    n_inv, m1_inv = pow(n, -1, m2), pow(m1, -1, m2)
    sums = (sum(row) for row in target[1:].tolist())
    x = [xi + m1 * ((s * n_inv - xi) * m1_inv % m2) for xi, s in zip(x, sums)]
    witness = OneCochain(a.group, m, (0,) + tuple(x))
    if not np.array_equal(coboundary(witness).exps, target):
        raise ValidationError("coboundary witness failed verification")  # solver bug guard
    return True, witness


def _coboundary_rows(G: FiniteGroup) -> SystemRows:
    """The rows c(g) + c(h) - c(gh) of the coboundary system on G, one per
    pair (g, h) of non-identity elements, g-major, over the non-identity
    unknowns.  The entries are -1, 1 and 2, so they are built as one int8
    array by three scatters (the g, h and gh columns) and handed over as
    that one array, read-only, in ``SystemRows``."""
    n = G.n
    g, h = (x.ravel() for x in np.indices((n - 1, n - 1)) + 1)
    gh = G.table[g, h]
    eq = np.arange(len(g))
    rows = np.zeros((len(g), n - 1), dtype=np.int8)
    rows[eq, g - 1] = 1
    rows[eq, h - 1] += 1  # 2 on the diagonal g = h
    live = gh != 0  # c(e) = 0 is not an unknown; gh = g or h only when the other is e
    rows[eq[live], gh[live] - 1] -= 1
    return SystemRows(rows)


def is_cohomologically_trivial(a: CocycleTable, factors: dict | None = None) -> tuple[bool, OneCochain | None]:
    """``cohomologous`` against the trivial class, with the same ``factors``."""
    return cohomologous(CocycleTable.trivial(a.group, a.scale), a, factors=factors)


class Bicharacter:
    """Alternating bicharacter of an abelian group, stored as exponents mod m."""

    __slots__ = ("group", "scale", "exps")

    def __init__(self, group: FiniteGroup, scale: int, exps):
        _check_scale(scale)
        self.group = group
        self.scale = int(scale)
        self.exps = np.asarray(exps, dtype=np.int64) % scale
        self._validate()
        self.exps.setflags(write=False)

    def _validate(self):
        """Antisymmetry, zero diagonal, then additivity in the first argument,
        b(x t, u) = b(x, u) + b(t, u), for t in ``generating_sequence(G)`` only.

        That is enough.  x = e gives b(e, u) = 0, and if additivity holds for
        y then b(x y t, u) = b(x y, u) + b(t, u) = b(x, u) + b(y t, u), so by
        induction on the word length of y it holds for every y.
        """
        if not self.group.is_abelian:
            raise DomainError("bicharacters are defined on abelian groups")
        exps, m, mul = self.exps, self.scale, self.group.table
        if ((exps + exps.T) % m).any():
            raise ValidationError("bicharacter is not antisymmetric")
        if (np.diagonal(exps) % m).any():
            raise ValidationError("bicharacter is not alternating on the diagonal")
        for t in generating_sequence(self.group):
            if ((exps[mul[:, t]] - exps - exps[t]) % m).any():
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
    coords = np.stack(np.unravel_index(np.arange(G.n), sizes), axis=1)
    weights = np.array([m // k for k in invariants], dtype=np.int64)
    first = coords[:, :r] * weights  # weighted x-exponents
    second = coords[:, r:]           # phi-exponents
    exps = (first @ second.T) % m
    return CocycleTable(G, m, exps, _trusted=True)


# -- text format -----------------------------------------------------------


def parse_cocycle(text, group: FiniteGroup) -> CocycleTable:
    """Parse the cocycle text format and validate against the given group.

    ``text`` is the whole text or an iterable of its lines, read in order; a
    row past the n-th raises at its line, as does a row entry that is not an
    integer (``groups.parse_row``; a negative exponent is read mod m).
    """
    rows: list[list[int]] = []
    header = None
    for lineno, raw in enumerate(text.splitlines() if isinstance(text, str) else text, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if header is None:
            parts = line.split()
            if len(parts) != 2 or not all(p.isascii() and p.isdigit() for p in parts):
                raise ValidationError(f"line {lineno}: expected header 'm n'")
            header = (int(parts[0]), int(parts[1]))
            if header[1] != group.n:
                raise ValidationError(f"line {lineno}: cocycle is for order {header[1]}, group has {group.n}")
            continue
        if len(rows) == group.n:
            raise ValidationError(f"line {lineno}: cocycle row past the {group.n} rows of the table")
        row = parse_row(line, lineno, "entry")
        if len(row) != group.n:
            raise ValidationError(f"line {lineno}: expected {group.n} entries, got {len(row)}")
        rows.append(row)
    if header is None or len(rows) != group.n:
        raise ValidationError("cocycle file is incomplete")
    m = header[0]
    _check_scale(m)
    # reduced as Python integers, so an entry no int64 holds is read mod m too
    return CocycleTable(group, m, [[x % m for x in row] for row in rows])
