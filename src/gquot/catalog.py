"""The built-in group and cocycle catalog, built by the constructors.

Groups: cyclic up to order 16, small direct products (including the square
carriers of the standard non-degenerate cocycles), dihedral groups up to
order 16, the symmetric groups on 3 and 4 letters, and the quaternion
group.  Cocycles: the standard non-degenerate class on B x B for every
abelian B of order at most 6.
"""

from __future__ import annotations

from pathlib import Path

from .cocycles import CocycleTable, parse_cocycle, standard_nondegenerate
from .errors import ValidationError
from .groups import FiniteGroup, make_group, parse_group_table

GROUP_SPECS = (
    [f"C{n}" for n in range(1, 17)]
    + ["C2xC2", "C2xC4", "C2xC6", "C2xC2xC2", "C3xC3", "C4xC4", "C5xC5", "C6xC6", "C2xC2xC2xC2"]
    + [f"D{n}" for n in range(3, 9)]
    + ["S3", "S4", "Q8"]
)

# invariant factors of B for the standard non-degenerate class on B x B,
# keyed by the carrier group's catalog name
NONDEGENERATE_CARRIERS = {
    "C2xC2": (2,),
    "C3xC3": (3,),
    "C4xC4": (4,),
    "C5xC5": (5,),
    "C6xC6": (6,),
    "C2xC2xC2xC2": (2, 2),
}


def build_group(name: str) -> FiniteGroup:
    if name not in GROUP_SPECS:
        raise ValidationError(f"{name!r} is not a catalog group")
    return make_group(name)


def build_cocycle(name: str) -> tuple[str, CocycleTable]:
    """A catalog cocycle plus the name of its carrier group."""
    if not name.startswith("nd_") or name[3:] not in NONDEGENERATE_CARRIERS:
        raise ValidationError(f"{name!r} is not a catalog cocycle")
    carrier = name[3:]
    return carrier, standard_nondegenerate(NONDEGENERATE_CARRIERS[carrier])


def resolve_group(token: str) -> FiniteGroup:
    """A group from a file path or a catalog/constructor descriptor.

    A file is read line by line, the lines ``str.splitlines`` would give, so
    a header above the order bound raises before any row is read.
    """
    p = Path(token)
    if p.exists() and p.is_file():
        with p.open() as f:
            return parse_group_table(line for raw in f for line in raw.splitlines())
    return make_group(token)


def resolve_cocycle(token: str, group: FiniteGroup) -> CocycleTable:
    """A cocycle from a file path, the word 'trivial', or a catalog name.

    A file is read line by line, as in ``resolve_group``, so a row past the
    table raises before the next line is read.
    """
    if token == "trivial":
        return CocycleTable.trivial(group)
    p = Path(token)
    if p.exists() and p.is_file():
        with p.open() as f:
            return parse_cocycle((line for raw in f for line in raw.splitlines()), group)
    if token.startswith("nd_"):
        return catalog_cocycle(token, group)
    raise ValidationError(f"cannot resolve cocycle {token!r}")


def catalog_cocycle(name: str, group: FiniteGroup) -> CocycleTable:
    """The catalog cocycle ``name``, "trivial" or "nd_<carrier>", on ``group``
    itself; a carrier with another table raises.

    A Mackey context reads its group off its cocycle, so a class built on the
    caller's group object shares that object's subgroup lattice with every
    other question the caller asks about the group.
    """
    if name == "trivial":
        return CocycleTable.trivial(group)
    carrier, table = build_cocycle(name)
    if table.group != group:
        raise ValidationError(f"catalog cocycle {name} lives on {carrier}, not this group")
    return CocycleTable(group, table.scale, table.exps, _trusted=True)  # validated on an equal table
