import tracemalloc
from types import ModuleType

import pytest

import gquot as gq
from gquot.catalog import (
    NONDEGENERATE_CARRIERS,
    build_cocycle,
    build_group,
    catalog_cocycle,
    resolve_cocycle,
    resolve_group,
)
from gquot.cli import main
from gquot.cocycles import bicharacter_of
from gquot.errors import ValidationError
from gquot.groups import format_group_table, parse_group_table


def cocycle_names() -> list[str]:
    return [f"nd_{carrier}" for carrier in NONDEGENERATE_CARRIERS]


def test_catalog_cocycles_are_nondegenerate():
    for name in cocycle_names():
        carrier, table = build_cocycle(name)
        assert table.group == build_group(carrier)
        assert bicharacter_of(table).radical().order == 1


def test_a_catalog_class_lives_on_the_callers_group():
    """A Mackey context reads its group off its cocycle, so a catalog class
    is built on the very group object it was asked for: the context then
    shares that object's subgroup lattice."""
    G = build_group("C4xC4")
    for name in ("trivial", "nd_C4xC4"):
        assert catalog_cocycle(name, G).group is G
        assert resolve_cocycle(name, G).group is G
    assert catalog_cocycle("nd_C4xC4", G) == build_cocycle("nd_C4xC4")[1]
    with pytest.raises(ValidationError, match="^catalog cocycle nd_C2xC2 lives on C2xC2, not this group$"):
        catalog_cocycle("nd_C2xC2", G)


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


def test_group_file_past_the_order_bound_is_refused_at_its_header(tmp_path, capsys):
    """A 20 MB file whose header says 100000 exits 2 at line 1, having read
    little more than that line: the traced peak stays under 1 MiB."""
    path = tmp_path / "huge.txt"
    row = " ".join(["0"] * 1000) + "\n"
    with path.open("w") as f:
        f.write("100000\n")
        f.writelines([row] * (20_000_000 // len(row)))
    assert path.stat().st_size >= 19_000_000
    main(["group", "show", "--group", "C2"])  # first-use allocations stay out of the measurement
    capsys.readouterr()
    tracemalloc.start()
    try:
        code = main(["group", "show", "--group", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert "SizeBoundError: line 1: group order 100000 above the bound 256" in capsys.readouterr().out
    assert peak < 2**20


@pytest.mark.parametrize(
    "text", [format_group_table(gq.make_group("S3")), "# 0 e\r\n2\r\n0 1\r\n1 0\r\n", "2\x0c0 1\n1 0"]
)
def test_group_file_lines_are_the_text_lines(tmp_path, text):
    """Read line by line, a file parses as its whole text does, line
    separators other than newline included."""
    path = tmp_path / "g.txt"
    path.write_bytes(text.encode())
    assert resolve_group(str(path)) == parse_group_table(path.read_text())


@pytest.mark.parametrize(
    "command, header",
    [
        (["group", "info", "--group"], "2\n0 1\n1 0\n"),
        (["cocycle", "check", "--group", "C2", "--cocycle"], "2 2\n0 0\n0 1\n"),
    ],
    ids=["group", "cocycle"],
)
def test_rows_past_the_table_are_refused_at_the_first(tmp_path, capsys, command, header):
    """A 1.2 MB group or cocycle file for C2 with 300,000 rows past its two
    exits 2 at line 4, the first extra row, having read little more than
    that line: the traced peak stays under 1 MiB."""
    path = tmp_path / "long.txt"
    path.write_text(header + "0 1\n" * 300_000)
    main([*command, str(path)])  # first-use allocations stay out of the measurement
    capsys.readouterr()
    tracemalloc.start()
    try:
        code = main([*command, str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert capsys.readouterr().out.startswith("error: ValidationError: line 4: ")
    assert peak < 2**20
