"""Malformed group, cocycle and descriptor files, and ``--normal`` texts,
through the command line.

Each file is a valid one with up to three edits (a token replaced, a line
deleted, repeated or inserted), or lines of noise.  It goes through
``cli.main`` with a command that only parses and validates it (``group
info``, ``cocycle check``, ``grading dims``, ``classify`` and ``equidim``,
none of which runs the numeric oracle).  A ``--normal`` text is a list of
tokens, some of them no integer, or noise; it goes to ``mackey decompose``
on C4 and ``lagrangian theoremC`` on C2xC2, which decompose the few texts
that name a normal subgroup.  Every run exits 0 or 2, never 1 and
never with an exception, and an exit of 2 ends in an ``error: <Name>:``
record whose ``<Name>`` is a subclass of ``GquotError``: an input the
parsers do not catch themselves surfaces as a ``ValueError`` or another
built-in error there, and fails.
"""

import re

import pytest
from hypothesis import example, given, settings, strategies as st

import gquot as gq
from gquot import errors
from gquot.cli import main
from gquot.groups import format_group_table

# small values, the values near and past the int64 bound, and one with 21 digits
INTS = st.one_of(st.integers(-2, 8), st.integers(2**62, 2**64), st.just(10**20))
TOKENS = st.one_of(INTS.map(str), st.sampled_from(["x", "1.5", "e", "^", "#", "0x1", "²", "1_0", "-", "|", ":"]))
NOISE = st.one_of(
    st.lists(TOKENS, max_size=5).map(" ".join),
    st.builds("# {} {}".format, INTS, st.sampled_from(["e", "a", ""])),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=12),
)
EDITS = st.lists(
    st.tuples(st.sampled_from(["replace", "delete", "repeat", "insert"]), st.integers(0, 99), TOKENS, NOISE),
    max_size=3,
)


def edited(text, edits, sep):
    """``text`` with each edit (kind, position, token, line) applied, its
    lines joined by ``sep``."""
    lines = text.splitlines()
    for kind, at, token, line in edits:
        i = at % (len(lines) + 1)
        if kind == "insert" or i == len(lines):
            lines.insert(i, line)
        elif kind == "delete":
            del lines[i]
        elif kind == "repeat":
            lines.insert(i, lines[i])
        else:
            tokens = lines[i].split() or [""]
            tokens[at % len(tokens)] = token
            lines[i] = " ".join(tokens)
    return sep.join(lines)


def files(valid):
    """A file from one of the ``valid`` texts with up to three edits, or noise."""
    return st.one_of(
        st.builds(edited, st.sampled_from(valid), EDITS, st.sampled_from(["\n", "\r\n", "\r", "\x0c"])),
        st.lists(NOISE, max_size=6).map("\n".join),
    )


GROUP_FILES = files([format_group_table(gq.make_group(spec)) for spec in ("C1", "C2", "C3", "C2xC2", "S3")])
COCYCLE_FILES = files(["2 2\n0 0\n0 1\n", "4 2\n# a comment\n0 0\n0 3\n", "1 2\n0 0\n0 0\n"])
DESCRIPTOR_FILES = files(
    [
        "x: 0 1 | H: e | alpha: trivial\n",
        "x: 0^2 1\n# a comment\nx: 1 | H: 0 1\n",
        "x: 0 | H: 0 3 | alpha: c.txt\nx: 1^3 2 | H: 0\n",
        "x: 0 1 2 3 4 5 | H: 0 1 2 | alpha: trivial\n",
    ]
)
ERROR_NAMES = {
    name for name, cls in vars(errors).items()
    if isinstance(cls, type) and issubclass(cls, errors.GquotError) and cls is not errors.GquotError
}
FUZZ = settings(derandomize=True, max_examples=300, deadline=None)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    (path / "c.txt").write_text("2 2\n0 0\n0 1\n")  # the cocycle a descriptor's alpha field names
    return path


def run(workdir, text, *command):
    """``main`` on ``text`` written as the file the command reads."""
    path = workdir / "input.txt"
    path.write_bytes(text.encode())
    run_main(workdir, *command, str(path))


def run_main(workdir, *argv):
    """``main`` on ``argv``; the exit must be 0 or 2, and an exit of 2 must end
    in an ``error: <Name>:`` record naming a ``GquotError`` subclass."""
    out = workdir / "out.txt"
    out.unlink(missing_ok=True)
    code = main([*argv, "--out", str(out)])
    assert code in (0, 2)
    if code == 2:
        record = out.read_text().splitlines()[-1]
        match = re.match(r"error: (\w+): ", record)
        assert match and match[1] in ERROR_NAMES, record


@FUZZ
@given(text=GROUP_FILES)
@example(text="2\n0 1\n1 0\n" + "0 1\n" * 3)
@example(text="²\n0\n")
@example(text="2\n0 1\n1 0\n# ² a\n")
@example(text="2\n0 ١\n+1 0_0\n")
def test_group_files(workdir, text):
    run(workdir, text, "group", "info", "--group")


@FUZZ
@given(text=COCYCLE_FILES)
@example(text="2 2\n0 0\n0 1\n" + "0 1\n" * 3)
@example(text="2 ²\n0 0\n0 1\n")
@example(text="2 2\n0 0\n0 ١\n")
def test_cocycle_files(workdir, text):
    run(workdir, text, "cocycle", "check", "--group", "C2", "--cocycle")


# --normal texts: index lists with commas and blanks, some tokens no integer
NORMAL_TEXTS = st.one_of(
    st.builds(
        str.join,
        st.sampled_from([",", " ", ", "]),
        st.lists(st.one_of(TOKENS, st.sampled_from(["١", "+1", "--1", ""])), max_size=5),
    ),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=8),
)


@pytest.mark.parametrize(
    "command",
    [
        ["mackey", "decompose", "--group", "C4"],
        ["lagrangian", "theoremC", "--group", "C2xC2", "--cocycle", "nd_C2xC2"],
    ],
    ids=["mackey", "theoremC"],
)
@FUZZ
@given(text=NORMAL_TEXTS)
@example(text="0,a")
@example(text="0,²")
@example(text="0,١")
@example(text="0,x")
@example(text="0,,2")
def test_normal_texts(workdir, command, text):
    """The text goes as ``--normal=TEXT``, so a leading minus sign starts no option."""
    run_main(workdir, *command, f"--normal={text}")


@pytest.mark.parametrize("action", ["dims", "classify", "equidim"])
@FUZZ
@given(group=st.sampled_from(["C2", "S3", "C2xC4"]), text=DESCRIPTOR_FILES)
@example(group="C2", text="x: 0^4611686018427387904 1^4611686018427387904")
@example(group="C2", text="x: 0^99999999999999999999")
@example(group="C²", text="x: 0 1\n")
@example(group="C2", text="x: 0 | x: 1\nx: 1 | alhpa: c.txt\n")
@example(group="C12", text="x: 1_0\n")
@example(group="C12", text="x: ٣\n")
@example(group="C12", text="x: +1\n")
@example(group="C12", text="x: 1^+2\n")
@example(group="C12", text="x: 1 | H: 0 ٦\n")
def test_descriptor_files(workdir, action, group, text):
    run(workdir, text, "grading", action, "--group", group, "--descriptor")
