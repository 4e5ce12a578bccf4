import dataclasses

import pytest

import gquot as gq
from gquot.cli import main
from gquot.groups import format_group_table, parse_group_table
from gquot import twisted


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


def test_cocycle_scale_beyond_int64_exits_2(tmp_path, capsys):
    path = tmp_path / "huge_scale.txt"
    path.write_text(f"{2**63} 2\n0 0\n0 1\n")
    code, out = run_cli(capsys, "cocycle", "check", "--group", "C2", "--cocycle", str(path))
    assert code == 2
    assert "error: ValidationError" in out and str(2**63) in out


def test_cohomologous_lift_beyond_int64_exits_2(tmp_path, capsys):
    # the scale itself fits; cohomologous lifts it to 2**61 * exp(C2) = 2**62
    path = tmp_path / "large_scale.txt"
    path.write_text(f"{2**61} 2\n0 0\n0 1\n")
    code, out = run_cli(capsys, "cocycle", "check", "--group", "C2", "--cocycle", str(path))
    assert code == 0 and f"scale: {2**61}" in out
    code, out = run_cli(
        capsys, "cocycle", "cohomologous", "--group", "C2", "--cocycle", str(path), "--cocycle2", "trivial"
    )
    assert code == 2
    assert "error: ScaleError" in out


def test_cocycle_scale_from_2_62_exits_2(tmp_path, capsys):
    # a sum of two exponents below 2**62 could leave int64, so the bound is 2**62 - 1
    path = tmp_path / "scale.txt"
    path.write_text(f"{2**62} 2\n0 0\n0 1\n")
    code, out = run_cli(capsys, "cocycle", "check", "--group", "C2", "--cocycle", str(path))
    assert code == 2
    assert out == f"error: ValidationError: scale {2**62} exceeds the int64 bound {2**62 - 1}\n"


def test_cocycle_entry_beyond_int64_exits_2(tmp_path, capsys):
    # 2**64 is read mod 3, as 1, so the identity row is not normalized
    path = tmp_path / "huge_entry.txt"
    path.write_text(f"3 3\n0 {2**64} 0\n0 0 0\n0 0 0\n")
    code, out = run_cli(capsys, "cocycle", "check", "--group", "C3", "--cocycle", str(path))
    assert code == 2
    assert out == "error: ValidationError: cocycle is not normalized at the identity\n"
    path.write_text(f"3 3\n0 0 0\n0 {3 * 2**64} 0\n0 0 0\n")  # 0 mod 3: the trivial cocycle
    code, out = run_cli(capsys, "cocycle", "check", "--group", "C3", "--cocycle", str(path))
    assert code == 0 and "scale: 3" in out


def test_group_entry_beyond_int64_exits_2(tmp_path, capsys):
    path = tmp_path / "huge_entry.txt"
    path.write_text(f"2\n0 1\n1 {2**64}\n")
    code, out = run_cli(capsys, "group", "info", "--group", str(path))
    assert code == 2
    assert out == "error: ValidationError: table entries out of range\n"


def test_table_rows_with_non_ascii_digits_exit_2(tmp_path, capsys):
    """Group and cocycle files that ``int`` read as valid tables (C2, and the
    class with exponents [[0, 0], [0, 1]]) are refused at their line."""
    path = tmp_path / "rows.txt"
    path.write_text("2\n0 ١\n+1 0_0\n")
    code, out = run_cli(capsys, "group", "info", "--group", str(path))
    assert code == 2 and out == "error: ValidationError: line 2: non-integer table entry '١'\n"
    path.write_text("2 2\n0 0\n0 ١\n")
    code, out = run_cli(capsys, "cocycle", "check", "--group", "C2", "--cocycle", str(path))
    assert code == 2 and out == "error: ValidationError: line 3: non-integer entry '١'\n"


def test_cocycle_commands(capsys):
    code, out = run_cli(capsys, "cocycle", "nondeg", "--group", "C2xC2", "--cocycle", "nd_C2xC2")
    assert code == 0 and out == "nondegenerate: True\n"
    code, out = run_cli(capsys, "cocycle", "nondeg", "--group", "C2xC2", "--cocycle", "trivial")
    assert code == 0 and out == "nondegenerate: False\n"
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


def test_cocycle_has_no_seed_option(capsys):
    # every cocycle action is exact, so no seed could change its report
    with pytest.raises(SystemExit) as exc:
        main(["cocycle", "nondeg", "--group", "S3", "--seed", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 5" in capsys.readouterr().err


def test_twisted_wedderburn_has_no_tolerance_option(capsys):
    # the clustering tolerance is fixed: a user cannot loosen the oracle's certificate
    with pytest.raises(SystemExit) as exc:
        main(["twisted", "wedderburn", "--group", "S3", "--tol", "0"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol 0" in capsys.readouterr().err


def test_twisted_wedderburn_certifies_every_accepted_residual(capsys, monkeypatch):
    # the oracle accepts an idempotent residual up to 1e-8; the CLI reads the same threshold
    original = twisted.split_algebras
    monkeypatch.setattr(
        twisted,
        "split_algebras",
        lambda algebras, seed: [dataclasses.replace(data, residual=5e-9) for data in original(algebras, seed)],
    )
    code, out = run_cli(capsys, "twisted", "wedderburn", "--group", "S3")
    assert code == 0
    assert "residual_below: 5.000e-09" in out and "certified: True" in out


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


@pytest.mark.parametrize("normal, bad", [("0,9", 9), ("0,-2", -2), ("0,99", 99), ("0,-1", -1)])
def test_mackey_subgroup_outside_group_exits_2(capsys, normal, bad):
    code, out = run_cli(capsys, "mackey", "decompose", "--group", "C4", "--normal", normal)
    assert code == 2
    assert f"error: ValidationError: subgroup element {bad} outside the group of order 4" in out


@pytest.mark.parametrize("token", ["a", "²", "١", "1.5", "1_0", "+1", "--1"])
def test_normal_tokens_that_are_not_integers_exit_2(capsys, token):
    """Only ASCII digits after an optional minus sign read as an element index;
    ``int`` alone would read a non-ASCII digit such as ``١`` as 1."""
    record = f"error: ValidationError: subgroup element {token!r} is not an integer\n"
    code, out = run_cli(capsys, "mackey", "decompose", "--group", "C4", f"--normal=0,{token}")
    assert (code, out) == (2, record)
    theorem_c = ["lagrangian", "theoremC", "--group", "C2xC2", "--cocycle", "nd_C2xC2"]
    code, out = run_cli(capsys, *theorem_c, f"--normal=0,{token}")
    assert (code, out) == (2, "seed: 0\n" + record)


@pytest.mark.parametrize("normal, field", [("0,,2", 2), (",0,2", 1), ("0,2,", 3), ("0 , ,2", 2)])
def test_normal_lists_with_an_empty_field_exit_2(capsys, normal, field):
    """An empty field between two commas or at either end is refused, naming
    its place, where splitting on commas and blanks would drop it and
    decompose N = {0, 2}; blanks around a comma stay allowed."""
    record = f"error: ValidationError: subgroup element field {field} of {normal!r} is empty\n"
    code, out = run_cli(capsys, "mackey", "decompose", "--group", "C4", f"--normal={normal}")
    assert (code, out) == (2, record)
    theorem_c = ["lagrangian", "theoremC", "--group", "C2xC2", "--cocycle", "nd_C2xC2"]
    code, out = run_cli(capsys, *theorem_c, f"--normal={normal}")
    assert (code, out) == (2, "seed: 0\n" + record)
    blanks = run_cli(capsys, "mackey", "decompose", "--group", "C4", "--normal=0 , 2")
    assert blanks == run_cli(capsys, "mackey", "decompose", "--group", "C4", "--normal=0,2") and blanks[0] == 0


@pytest.mark.parametrize(
    "argv, echo",
    [
        (["twisted", "wedderburn", "--group", "C4", "--seed", "-1"], "seed: -1\n"),
        (["mackey", "decompose", "--group", "C4", "--normal", "0,2", "--seed", "-1"], "seed: -1\n"),
        (["lagrangian", "scan", "--group", "C2xC2", "--cocycle", "nd_C2xC2", "--seed", "-1"], "seed: -1\n"),
        (["lagrangian", "theoremD", "--group", "C2xC2", "--cocycle", "nd_C2xC2", "--seed", "-1"], "seed: -1\n"),
        (["lagrangian", "iyb", "--group", "C2xC2", "--seed", "-1"], "seed: -1\n"),
        (["suite", "--seed", "-3"], ""),
    ],
    ids=["wedderburn", "decompose", "scan", "theoremD", "iyb", "suite"],
)
def test_a_negative_seed_exits_2(capsys, argv, echo):
    """A negative seed is refused where it enters the block oracle, with an
    input error naming it, instead of numpy's built-in ValueError."""
    seed = argv[-1]
    code, out = run_cli(capsys, *argv)
    assert (code, out) == (2, f"{echo}error: ValidationError: seed must be a non-negative integer, got {seed}\n")


@pytest.mark.parametrize("spec", ["C2xC64", "C2xC2xC2xC2xC2xC2xC2"])
def test_group_info_beyond_the_enumeration_bound_exits_2(capsys, spec):
    code, out = run_cli(capsys, "group", "info", "--group", spec)
    assert code == 2
    assert out == (
        "order: 128\nabelian: True\n"
        "error: SizeBoundError: subgroup enumeration bounded at order 64, group has 128\n"
    )


@pytest.mark.parametrize("spec", ["C100000", "x".join(["C2"] * 20)], ids=["C100000", "C2^20"])
def test_group_descriptor_past_the_order_bound_exits_2(capsys, spec):
    code, out = run_cli(capsys, "group", "show", "--group", spec)
    assert code == 2
    assert out == f"error: SizeBoundError: group descriptor {spec!r} names a group of order above 256\n"


def test_group_file_past_the_order_bound_exits_2(tmp_path, capsys):
    path = tmp_path / "big.txt"
    path.write_text("100000\n" + " ".join(["0"] * 100000) + "\n")
    code, out = run_cli(capsys, "group", "show", "--group", str(path))
    assert code == 2
    assert out == "error: SizeBoundError: line 1: group order 100000 above the bound 256\n"


def test_group_show_at_the_order_bound(capsys):
    code, out = run_cli(capsys, "group", "show", "--group", "C2xC2xC2xC2xC2xC2xC2xC2")
    assert code == 0
    assert parse_group_table(out) == gq.make_group("C2xC2xC2xC2xC2xC2xC2xC2")


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


@pytest.mark.parametrize("action", ["dims", "classify", "equidim"])
@pytest.mark.parametrize("x", ["0^4611686018427387904 1^4611686018427387904", "0^99999999999999999999"])
def test_descriptor_dimension_beyond_int64_exits_2(tmp_path, capsys, action, x):
    """A total dimension eps(x)^2 above 2^63 - 1 is refused before the int64
    gather, which wrapped the first descriptor's dimensions to 0 and could
    not hold the second's multiplicity."""
    desc = tmp_path / "d.txt"
    desc.write_text(f"x: {x}\n")
    code, out = run_cli(capsys, "grading", action, "--group", "C2", "--descriptor", str(desc))
    assert code == 2
    assert out.splitlines()[-1].startswith("error: SizeBoundError: ")


@pytest.mark.parametrize(
    "line, record",
    [
        ("x: 0 1 | H: 0 a", "line 2: subgroup element 'a' is not an integer"),
        ("x: 0 1 | H: 0 9", "line 2: subgroup element 9 outside the group of order 4"),
        ("x: 0 1 | H: 0 1", "line 2: subgroup not closed under inversion at 1"),
        ("x: 0 1 | H: 0,,2", "line 2: subgroup element field 2 of '0,,2' is empty"),
        ("x: 0^0", "line 2: character multiplicities must be >= 1"),
        ("x: ", "line 2: character must have non-empty support"),
        ("x: 0 | x: 1", "line 2: repeated field 'x'"),
        ("x: 0 1 | H: 0 2 | H: 0", "line 2: repeated field 'H'"),
        ("x: 1 | alhpa: c.txt", "line 2: unknown field 'alhpa'"),
        ("x: 1 | garbage", "line 2: unknown field 'garbage'"),
    ],
    ids=["H token", "H element", "H inverses", "H empty field", "x multiplicity", "x support", "x repeated",
         "H repeated", "misspelt key", "no key"],
)
def test_descriptor_field_errors_name_their_line(tmp_path, capsys, line, record):
    """An error in building a line's x or H field names that line, and so
    does a repeated field or a key other than x, H and alpha, which would
    otherwise change the grading class without a word."""
    desc = tmp_path / "d.txt"
    desc.write_text(f"# one summand\n{line}\n")
    code, out = run_cli(capsys, "grading", "dims", "--group", "C4", "--descriptor", str(desc))
    assert (code, out) == (2, f"error: ValidationError: {record}\n")


@pytest.mark.parametrize(
    "line, record",
    [
        ("x: 1_0", "line 2: bad character token '1_0'"),
        ("x: ٣", "line 2: bad character token '٣'"),
        ("x: +1", "line 2: bad character token '+1'"),
        ("x: 1^+2", "line 2: bad character token '1^+2'"),
        ("x: 1^", "line 2: bad character token '1^'"),
        ("x: -1", "line 2: bad character token '-1'"),
        ("x: 1 | H: 0 ٦", "line 2: subgroup element '٦' is not an integer"),
        ("x: 1 | H: 0 +6", "line 2: subgroup element '+6' is not an integer"),
    ],
    ids=["x underscore", "x Arabic-Indic digit", "x plus sign", "multiplicity plus sign", "empty multiplicity",
         "x minus sign", "H Arabic-Indic digit", "H plus sign"],
)
def test_descriptor_tokens_take_ascii_digits_only(tmp_path, capsys, line, record):
    """``int`` reads ``1_0`` as 10, ``٣`` as 3 and ``+1`` as 1, so on C12 each
    of these lines would name another grading class than it was typed as;
    an element index or multiplicity is ASCII digits, and an H token is
    refused as ``--normal`` refuses it."""
    desc = tmp_path / "d.txt"
    desc.write_text(f"# one summand\n{line}\n")
    code, out = run_cli(capsys, "grading", "dims", "--group", "C12", "--descriptor", str(desc))
    assert (code, out) == (2, f"error: ValidationError: {record}\n")


@pytest.mark.parametrize(
    "command, text, record",
    [
        (["group", "info", "--group"], "²\n0\n", "line 1: expected group order"),
        (["group", "info", "--group"], "2\n0 1\n1 0\n# ² a\n", "line 4: malformed label line"),
        (["cocycle", "check", "--group", "C2", "--cocycle"], "2 ²\n0 0\n0 1\n", "line 1: expected header 'm n'"),
    ],
    ids=["group order", "label index", "cocycle header"],
)
def test_unicode_digits_in_headers_are_refused_at_their_line(tmp_path, capsys, command, text, record):
    """``str.isdigit`` accepts a superscript two, which ``int`` refuses; a
    header or label index takes ASCII digits only."""
    path = tmp_path / "input.txt"
    path.write_text(text)
    code, out = run_cli(capsys, *command, str(path))
    assert (code, out) == (2, f"error: ValidationError: {record}\n")


def test_unicode_digit_in_a_group_descriptor_is_unrecognized(capsys):
    code, out = run_cli(capsys, "group", "info", "--group", "C²")
    assert (code, out) == (2, "error: ValidationError: unrecognized group descriptor 'C²'\n")


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


def test_lagrangian_iyb_reads_no_cocycle(capsys):
    """The IYB search asks about the group alone, so a ``--cocycle`` on
    another group is never resolved and changes no byte."""
    code, out = run_cli(capsys, "lagrangian", "iyb", "--group", "C6")
    assert code == 0 and "witness_found: True" in out
    assert run_cli(capsys, "lagrangian", "iyb", "--group", "C6", "--cocycle", "nd_C2xC2") == (0, out)


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


@pytest.mark.parametrize("which", ["H4", "H5"])
@pytest.mark.parametrize("length", ["0", "-3"])
def test_pi1_verify_below_length_one_exits_2(capsys, which, length):
    """A bounded certificate that tries no word would pass vacuously."""
    code, out = run_cli(capsys, "pi1", "verify", "--which", which, "--max-len", length)
    assert code == 2
    assert out == f"error: DomainError: certificate length must be at least 1, got {length}\n"


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.txt"
    code, _ = run_cli(
        capsys, "twisted", "wedderburn", "--group", "S3", "--out", str(target)
    )
    assert code == 0
    assert "blocks: [1, 1, 2]" in target.read_text()
