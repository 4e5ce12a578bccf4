"""Lines of src/gquot outside docstrings (module, class and function
docstrings, found with ast).

    python .github/line_count.py         # the working tree
    python .github/line_count.py BASE    # the commit BASE, read with git show, and the working tree,
                                         # then each module whose text differs, as `name: base → here`;
                                         # a module missing on one side counts 0
"""

import ast
import pathlib
import subprocess
import sys

KINDS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def outside_docstrings(text: str) -> int:
    total = len(text.splitlines())
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, KINDS) and ast.get_docstring(node, clean=False) is not None:
            total -= node.body[0].end_lineno - node.body[0].lineno + 1
    return total


def git(*args: str) -> str:
    return subprocess.run(["git", *args], check=True, capture_output=True, text=True).stdout


def at_commit(rev: str) -> dict[str, str]:
    """The text of each module of src/gquot at the commit ``rev``, by file name."""
    names = git("ls-tree", "--name-only", f"{rev}:src/gquot").split()
    return {name: git("show", f"{rev}:src/gquot/{name}") for name in names if name.endswith(".py")}


head = {path.name: path.read_text() for path in sorted(pathlib.Path("src/gquot").glob("*.py"))}
count = {name: outside_docstrings(text) for name, text in head.items()}
if len(sys.argv) > 1:
    base = at_commit(sys.argv[1])
    base_count = {name: outside_docstrings(text) for name, text in base.items()}
    print(f"src/gquot outside docstrings: {sum(base_count.values())} → {sum(count.values())}")
    for name in sorted(base.keys() | head.keys()):
        if base.get(name) != head.get(name):
            print(f"{name}: {base_count.get(name, 0)} → {count.get(name, 0)}")
else:
    print(f"src/gquot outside docstrings: {sum(count.values())} lines")
