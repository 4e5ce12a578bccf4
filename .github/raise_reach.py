"""Which `raise` statements of src/gquot the Tier-1 tests reach, per exception
class: Tier-1 runs in this process under a `sys.settrace` line tracer that
follows src/gquot frames only, and a raise counts as reached when a line of
its statement ran.

    PYTHONPATH=src python .github/raise_reach.py            # the report after the test output
    PYTHONPATH=src python .github/raise_reach.py SUMMARY    # the report appended to the file SUMMARY

The report is a table of reached and total raise sites per exception class
(the name a raise calls or names; a bare re-raise or a raised variable counts
as `other`), then each unreached site as `module:line class`.  It exits 0
whatever the tests do: it reports and does not gate.
"""

import ast
import builtins
import os
import pathlib
import sys

import pytest

SRC = pathlib.Path("src/gquot").resolve()
PREFIX = str(SRC) + os.sep


def exception_name(node: ast.Raise) -> str:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    name = exc.id if isinstance(exc, ast.Name) else exc.attr if isinstance(exc, ast.Attribute) else ""
    builtin = getattr(builtins, name, None)
    if name.endswith("Error") or (isinstance(builtin, type) and issubclass(builtin, BaseException)):
        return name
    return "other"


def raise_sites() -> list[tuple[str, int, int, str]]:
    """(file, first line, last line, exception class) of every raise in src/gquot."""
    sites = []
    for path in sorted(SRC.glob("*.py")):
        raises = [node for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Raise)]
        sites += [(str(path), node.lineno, node.end_lineno, exception_name(node)) for node in raises]
    return sorted(sites)


ran: set[tuple[str, int]] = set()


def trace_lines(frame, event, arg):
    if event == "line":
        ran.add((frame.f_code.co_filename, frame.f_lineno))
    return trace_lines


def trace_calls(frame, event, arg):
    return trace_lines if frame.f_code.co_filename.startswith(PREFIX) else None


sys.settrace(trace_calls)
try:
    status = pytest.main(["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"])
finally:
    sys.settrace(None)

counts: dict[str, list[int]] = {}
unreached = []
for path, first, last, name in raise_sites():
    reached = any((path, line) in ran for line in range(first, last + 1))
    tally = counts.setdefault(name, [0, 0])
    tally[0] += reached
    tally[1] += 1
    if not reached:
        unreached.append(f"{pathlib.Path(path).name}:{first} {name}")

lines = [
    f"raise sites of src/gquot reached by Tier-1 (pytest exit {int(status)}):",
    "",
    "| exception | reached | total |",
    "|---|---|---|",
    *(f"| `{name}` | {r} | {t} |" for name, (r, t) in sorted(counts.items())),
    f"| all | {sum(r for r, _ in counts.values())} | {sum(t for _, t in counts.values())} |",
    "",
    "unreached:",
    "```",
    *unreached,
    "```",
]
report = "\n".join(lines) + "\n"
if len(sys.argv) > 1:
    with open(sys.argv[1], "a") as out:
        out.write(report)
else:
    sys.stdout.write(report)
