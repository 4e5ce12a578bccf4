import pytest

import gquot as gq
from gquot.cli import main
from gquot.groups import format_group_table, parse_group_table


def run_cli(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr().out
    return code, out


def test_group_info(capsys):
    code, out = run_cli(capsys, "group", "info", "--group", "C2xC4")
    assert code == 0
    assert "order: 8" in out and "invariants: [2, 4]" in out


def test_group_show_round_trips(capsys):
    code, out = run_cli(capsys, "group", "show", "--group", "S3")
    assert code == 0
    assert parse_group_table(out) == gq.symmetric(3)


def test_group_file_input(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text(format_group_table(gq.dihedral(4)))
    code, out = run_cli(capsys, "group", "info", "--group", str(path))
    assert code == 0 and "order: 8" in out


def test_malformed_group_file_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("2\n0 1\n1 x\n")
    code, out = run_cli(capsys, "group", "info", "--group", str(path))
    assert code == 2
    assert "line 3" in out


def test_invalid_cocycle_file_exits_2(tmp_path, capsys):
    path = tmp_path / "bad_cocycle.txt"
    path.write_text("2 2\n0 1\n0 0\n")  # value at (e, g): not normalized
    code, out = run_cli(capsys, "cocycle", "check", "--group", "C2", "--cocycle", str(path))
    assert code == 2
    assert "error" in out and "normalized" in out


def test_cocycle_commands(capsys):
    code, out = run_cli(capsys, "cocycle", "nondeg", "--group", "C2xC2", "--cocycle", "nd_C2xC2")
    assert code == 0 and "nondegenerate: True" in out
    code, out = run_cli(capsys, "cocycle", "nondeg", "--group", "C2xC2", "--cocycle", "trivial")
    assert code == 0 and "nondegenerate: False" in out
    code, out = run_cli(
        capsys,
        "cocycle",
        "cohomologous",
        "--group",
        "C2xC2",
        "--cocycle",
        "trivial",
        "--cocycle2",
        "nd_C2xC2",
    )
    assert code == 0 and "cohomologous: False" in out
    code, out = run_cli(capsys, "cocycle", "bichar", "--group", "C2xC2", "--cocycle", "nd_C2xC2")
    assert code == 0 and "radical: [0]" in out


def test_twisted_wedderburn_has_no_tolerance_option(capsys):
    # the clustering tolerance is fixed: a user cannot loosen the oracle's certificate
    with pytest.raises(SystemExit) as exc:
        main(["twisted", "wedderburn", "--group", "S3", "--tol", "0"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol 0" in capsys.readouterr().err


def test_twisted_and_mackey(capsys):
    code, out = run_cli(capsys, "twisted", "wedderburn", "--group", "Q8", "--seed", "4")
    assert code == 0 and "blocks: [1, 1, 1, 1, 2]" in out and "seed: 4" in out
    code, out = run_cli(
        capsys,
        "mackey",
        "decompose",
        "--group",
        "C2xC2",
        "--cocycle",
        "nd_C2xC2",
        "--normal",
        "0,2",
    )
    assert code == 0
    assert "orbits: 1" in out and "elementary_crossed_product: True" in out
    assert "reconstruction_check: True" in out


@pytest.mark.parametrize("normal, bad", [("0,9", 9), ("0,-2", -2)])
def test_mackey_subgroup_outside_group_exits_2(capsys, normal, bad):
    code, out = run_cli(capsys, "mackey", "decompose", "--group", "C4", "--normal", normal)
    assert code == 2
    assert f"error: ValidationError: subgroup element {bad} outside the group of order 4" in out


@pytest.mark.parametrize("spec", ["C2xC64", "C2xC2xC2xC2xC2xC2xC2"])
def test_group_info_beyond_the_enumeration_bound_exits_2(capsys, spec):
    code, out = run_cli(capsys, "group", "info", "--group", spec)
    assert code == 2
    assert out == (
        "order: 128\nabelian: True\n"
        "error: SizeBoundError: subgroup enumeration bounded at order 64, group has 128\n"
    )


def test_mackey_deterministic_output(capsys):
    args = ["mackey", "decompose", "--group", "Q8", "--cocycle", "trivial", "--normal", "0,4", "--seed", "3"]
    _, out1 = run_cli(capsys, *args)
    _, out2 = run_cli(capsys, *args)
    assert out1 == out2


def test_grading_subcommands(tmp_path, capsys):
    desc = tmp_path / "d.txt"
    desc.write_text("x: 0 1 | H: e | alpha: trivial\n")
    code, out = run_cli(
        capsys, "grading", "classify", "--group", "C2", "--descriptor", str(desc)
    )
    assert code == 0
    assert "elementary: True" in out and "elementary_crossed_product: True" in out
    code, out = run_cli(capsys, "grading", "dims", "--group", "C2", "--descriptor", str(desc))
    assert code == 0 and "dim_0: 2" in out and "dim_1: 2" in out
    code, out = run_cli(capsys, "grading", "equidim", "--group", "C2", "--descriptor", str(desc))
    assert code == 0 and "equidimensional: True" in out
    code, out = run_cli(capsys, "grading", "connected", "--group", "C2", "--descriptor", str(desc))
    assert code == 0 and "connected: True" in out


def test_lagrangian_subcommands(capsys):
    code, out = run_cli(capsys, "lagrangian", "scan", "--group", "C2xC2", "--cocycle", "nd_C2xC2")
    assert code == 0 and "candidates: 3" in out
    code, out = run_cli(
        capsys,
        "lagrangian",
        "theoremC",
        "--group",
        "C2xC2",
        "--cocycle",
        "nd_C2xC2",
        "--normal",
        "0,2",
    )
    assert code == 0 and "ecp_iff_lagrangian: True" in out
    code, out = run_cli(capsys, "lagrangian", "iyb", "--group", "S3")
    assert code == 0 and "witness_found: True" in out


def test_pi1_subcommands(capsys):
    code, out = run_cli(capsys, "pi1", "report", "--n", "3")
    assert code == 0 and "pi1: C3 x C2" in out
    code, out = run_cli(capsys, "pi1", "maximal", "--n", "4")
    assert code == 0 and "count: 4" in out
    code, out = run_cli(capsys, "pi1", "verify", "--which", "H4")
    assert code == 0 and "overall: pass" in out
    # the rank-5 verification carries the documented failing certificate
    code, out = run_cli(capsys, "pi1", "verify", "--which", "H5")
    assert code == 1 and "check: q5_free_product\nstatus: fail" in out
    assert "witness: alternating relation found" in out


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.txt"
    code, _ = run_cli(
        capsys, "twisted", "wedderburn", "--group", "S3", "--out", str(target)
    )
    assert code == 0
    assert "blocks: [1, 1, 2]" in target.read_text()
