"""The package's modules form layers: the import graph of ``src/gquot`` has no cycle.

Every import is read from the source with ``ast``, wherever it stands: at
module level, inside a function, or under ``if TYPE_CHECKING``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "gquot"


def _imported_modules(node: ast.AST) -> set[str]:
    """The gquot modules one import statement names."""
    if isinstance(node, ast.ImportFrom):
        if node.level == 0:
            parts = (node.module or "").split(".")
            return {parts[1]} if parts[0] == "gquot" and len(parts) > 1 else set()
        if node.module:
            return {node.module.split(".")[0]}
        return {alias.name for alias in node.names}  # from . import x
    if isinstance(node, ast.Import):
        return {a.name.split(".")[1] for a in node.names if a.name.startswith("gquot.")}
    return set()


def import_graph() -> dict[str, set[str]]:
    """Module name -> the package modules it imports anywhere in its source."""
    graph = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        graph[path.stem] = set().union(*(_imported_modules(node) for node in ast.walk(tree)))
    return graph


def find_cycle(graph: dict[str, set[str]]) -> list[str] | None:
    """One cycle as a closed path of module names, else None (depth-first search)."""
    state: dict[str, str] = {}  # "open" on the current path, "done" once finished
    path: list[str] = []

    def visit(m):
        state[m] = "open"
        path.append(m)
        for t in sorted(graph.get(m, ())):
            if state.get(t) == "open":
                return path[path.index(t):] + [t]
            if t not in state:
                found = visit(t)
                if found:
                    return found
        path.pop()
        state[m] = "done"
        return None

    for m in sorted(graph):
        if m not in state:
            found = visit(m)
            if found:
                return found
    return None


def test_import_graph_is_read_from_every_kind_of_import():
    graph = {
        "a": set().union(*(_imported_modules(n) for n in ast.walk(ast.parse(
            "from .b import x\n"
            "import gquot.c\n"
            "from gquot.d import y\n"
            "from . import e\n"
            "if TYPE_CHECKING:\n    from .f import z\n"
            "def g():\n    from .h import w\n"
        ))))
    }
    assert graph["a"] == {"b", "c", "d", "e", "f", "h"}
    assert find_cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]


def test_package_import_graph_is_acyclic():
    graph = import_graph()
    assert "cocycles" in graph["twisted"] and "groups" in graph["cocycles"]  # the reader sees the package
    assert find_cycle(graph) is None, " -> ".join(find_cycle(graph))
