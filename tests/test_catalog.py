from types import ModuleType

import pytest

import gquot as gq
from gquot.catalog import (
    NONDEGENERATE_CARRIERS,
    build_cocycle,
    build_group,
    resolve_cocycle,
    resolve_group,
)
from gquot.cocycles import bicharacter_of
from gquot.errors import ValidationError


def cocycle_names() -> list[str]:
    return [f"nd_{carrier}" for carrier in NONDEGENERATE_CARRIERS]


def test_catalog_cocycles_are_nondegenerate():
    for name in cocycle_names():
        carrier, table = build_cocycle(name)
        assert table.group == build_group(carrier)
        assert bicharacter_of(table).radical().order == 1


def test_resolvers(tmp_path):
    assert resolve_group("D4") == gq.dihedral(4)
    G = gq.make_group("C2xC2")
    assert resolve_cocycle("trivial", G).is_trivial_table()
    assert resolve_cocycle("nd_C2xC2", G).group == G
    with pytest.raises(ValidationError):
        resolve_cocycle("nd_C2xC2", gq.cyclic(4))
    with pytest.raises(ValidationError):
        resolve_cocycle("nonsense", G)
    with pytest.raises(ValidationError):
        build_group("C99")


def test_package_exports_no_submodules():
    assert gq.__all__ and [name for name in gq.__all__ if isinstance(getattr(gq, name), ModuleType)] == []
