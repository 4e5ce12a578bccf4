"""Lines of src/gquot outside docstrings (module, class and function
docstrings, found with ast).

    python .github/line_count.py         # the working tree
    python .github/line_count.py BASE    # the commit BASE, read with git show, and the working tree
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


def at_commit(rev: str) -> int:
    names = subprocess.run(
        ["git", "ls-tree", "--name-only", f"{rev}:src/gquot"], check=True, capture_output=True, text=True
    ).stdout.split()
    return sum(
        outside_docstrings(
            subprocess.run(["git", "show", f"{rev}:src/gquot/{name}"], check=True, capture_output=True, text=True).stdout
        )
        for name in names
        if name.endswith(".py")
    )


head = sum(outside_docstrings(path.read_text()) for path in sorted(pathlib.Path("src/gquot").glob("*.py")))
if len(sys.argv) > 1:
    print(f"src/gquot outside docstrings: {at_commit(sys.argv[1])} → {head}")
else:
    print(f"src/gquot outside docstrings: {head} lines")
