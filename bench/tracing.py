"""Spans around gquot's layer boundaries, installed at run time.

``Tracer.install`` replaces each traced function by a wrapper in every
loaded ``gquot`` module that holds it (the defining module and every
``from .x import f``), and the traced ``TwistedAlgebra`` methods on the
class; ``uninstall`` puts the originals back, so untraced rounds run the
unmodified program.  Spans stay in memory with their parent span and are
written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import zlib

# (module, function, counted metrics, counts taken from the call's arguments and result)
FUNCTIONS = [
    ("groups", "subgroups", ("distinct_groups",),
     lambda args, result: {"group": zlib.crc32(args[0].table.tobytes())}),
    ("groups", "abelian_invariants", (), None),
    ("groups", "are_isomorphic", (), None),
    ("groups", "quotient", (), None),
    ("smith", "solve_mod", ("rows", "cols"),
     lambda args, result: {"rows": len(args[0]), "cols": len(args[0][0]) if args[0] else 0}),
    ("cocycles", "cohomologous", (), None),
    ("mackey", "mackey_decompose", ("orbits",), lambda args, result: {"orbits": len(result.orbits)}),
    ("lagrangians", "is_isotropic", (), None),
    ("lagrangians", "lagrangian_scan", (), None),
    ("lagrangians", "maximal_elementary_quotients", (), None),
    ("lagrangians", "iyb_witness_search", ("actions_tried",),
     lambda args, result: {"actions_tried": result.actions_tried}),
    ("pullbacks", "verify_presentation_h4", (), None),
    ("pullbacks", "verify_presentation_h5", (), None),
    ("pullbacks", "express_rank4", (), None),
    ("pullbacks", "express_rank5", (), None),
    ("pullbacks", "maximal_gradings_diagonal", (), None),
]
METHODS = [("twisted", "TwistedAlgebra", m) for m in ("center_classes", "wedderburn", "irreducible_rep")]
CRITERIA = ["criterion_1_and_2"] + [f"criterion_{k}" for k in range(3, 11)]


def layer_metrics() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run reports, with its unit."""
    spans = [(f"{m}.{f}", counted) for m, f, counted, _ in FUNCTIONS]
    spans += [(f"{m}.{meth}", ()) for m, _, meth in METHODS]
    out = []
    for name, counted in spans:
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
        out += [(f"{name}.{c}", "count") for c in counted]
    out += [(f"suite.{c}.wall_s", "s") for c in CRITERIA]
    out.append(("trace.overhead_s", "s"))
    return out


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [id, parent id, name, start, end, counts]
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _wrap(self, name: str, fn, count):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else None, name, 0.0, 0.0, None]
            spans.append(span)
            stack.append(span[0])
            span[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                stack.pop()
            if count is not None:
                span[5] = count(args, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for k, m in list(sys.modules.items()) if k == "gquot" or k.startswith("gquot.")]
        targets = [(m, f, c) for m, f, _, c in FUNCTIONS] + [("suite", c, None) for c in CRITERIA]
        for modname, fname, count in targets:
            original = getattr(importlib.import_module(f"gquot.{modname}"), fname)
            wrapper = self._wrap(f"{modname}.{fname}", original, count)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._restore.append((mod, attr, original))
        for modname, clsname, meth in METHODS:
            cls = getattr(importlib.import_module(f"gquot.{modname}"), clsname)
            original = cls.__dict__[meth]
            setattr(cls, meth, self._wrap(f"{modname}.{meth}", original, None))
            self._restore.append((cls, meth, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def summarize(self, first: int, last: int) -> dict[str, float]:
        """Per-layer metrics of the spans with ids in [first, last)."""
        spans = self.spans[first:last]
        child_time: dict[int, float] = {}
        for _, parent, _, start, end, _ in spans:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        out = {name: 0 for name, _ in layer_metrics()}
        groups: set[int] = set()
        for sid, _, name, start, end, counts in spans:
            if name.startswith("suite."):
                out[f"{name}.wall_s"] += end - start
                continue
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += (end - start) - child_time.get(sid, 0.0)
            for key, value in (counts or {}).items():
                if key == "group":
                    groups.add(value)
                else:
                    out[f"{name}.{key}"] += value
        out["groups.subgroups.distinct_groups"] = len(groups)
        return out

    def write(self, path, meta: dict) -> None:
        with open(path, "w") as fh:
            json.dump({**meta, "spans": self.spans}, fh)
