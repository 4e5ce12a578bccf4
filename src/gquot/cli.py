"""Command-line entry point emitting line-oriented `key: value` records.

Exit codes: 0 all checks passed, 1 a theorem-consistency or certification
check failed, 2 input errors.  Every oracle-invoking subcommand takes a seed
(defaulted and echoed) so reports are reproducible byte for byte.
``lagrangian scan`` and ``theoremC`` ask their question of one
``MackeyContext`` built on the resolved class and a ``BlockOracle`` at that
seed, ``theoremD`` hands (group, cocycle, seed) to
``maximal_elementary_quotients``, and
``lagrangian iyb`` asks about the group alone, so it resolves no
``--cocycle``.  Every ``lagrangian`` subcommand, ``iyb`` included, refuses
a negative seed with the oracle's own check before it asks anything.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .catalog import resolve_cocycle, resolve_group
from .cocycles import bicharacter_of, cohomologous
from .errors import CertificationError, GquotError, TheoremCheckError
from .gradings import (
    descriptor_dims,
    is_connected,
    is_elementary,
    is_elementary_crossed_product,
    is_equidimensional_induced,
    parse_descriptor,
)
from .groups import Subgroup, abelian_invariants, format_group_table, normal_subgroups, parse_subgroup
from .lagrangians import (
    crossed_product_iff_lagrangian,
    iyb_witness_search,
    lagrangian_scan,
    maximal_elementary_quotients,
)
from .mackey import MackeyContext, is_ecp_quotient, is_elementary_quotient, is_simple_quotient, mackey_decompose
from .pullbacks import maximal_gradings_diagonal, pi1_report, verify_presentation_h4, verify_presentation_h5
from .suite import run_all
from .twisted import TOL_IDEMPOTENT, BlockOracle, TwistedAlgebra, _check_seed, is_nondegenerate


class _Emitter:
    def __init__(self, out_path=None):
        self.lines = []
        self.out_path = out_path

    def emit(self, key, value):
        self.lines.append(f"{key}: {value}")

    def flush(self):
        text = "\n".join(self.lines) + "\n"
        if self.out_path:
            Path(self.out_path).write_text(text)
        else:
            sys.stdout.write(text)


def _add_common(p, group=True, cocycle=True, seed=True, out=True):
    if group:
        p.add_argument("--group", required=True, help="group file, or a descriptor like C4, C2xC2, D4, S3, Q8")
    if cocycle:
        p.add_argument("--cocycle", default="trivial", help="cocycle file, catalog name (nd_C2xC2), or 'trivial'")
    if seed:
        p.add_argument("--seed", type=int, default=0)
    if out:
        p.add_argument("--out", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gquot", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("group", help="inspect or emit groups")
    g.add_argument("action", choices=["info", "show"])
    _add_common(g, cocycle=False, seed=False)

    c = sub.add_parser("cocycle", help="validate and classify 2-cocycles")
    c.add_argument("action", choices=["check", "nondeg", "cohomologous", "bichar"])
    _add_common(c, seed=False)
    c.add_argument("--cocycle2", default=None, help="second cocycle for 'cohomologous'")

    t = sub.add_parser("twisted", help="block structure of twisted group algebras")
    t.add_argument("action", choices=["wedderburn"])
    _add_common(t)

    gr = sub.add_parser("grading", help="analyze grading class descriptors")
    gr.add_argument("action", choices=["dims", "connected", "equidim", "classify"])
    _add_common(gr, cocycle=False, seed=False)
    gr.add_argument("--descriptor", required=True, help="descriptor file")

    m = sub.add_parser("mackey", help="decompose quotient gradings")
    m.add_argument("action", choices=["decompose"])
    _add_common(m)
    m.add_argument("--normal", required=True, help="comma-separated element indices of N")

    l = sub.add_parser("lagrangian", help="isotropy, Lagrangians, and related theorems")
    l.add_argument("action", choices=["scan", "theoremC", "theoremD", "iyb"])
    _add_common(l)
    l.add_argument("--normal", default=None, help="subgroup elements for theoremC")
    l.add_argument("--normal-only", action="store_true")

    p = sub.add_parser("pi1", help="diagonal-algebra fundamental group reports")
    p.add_argument("action", choices=["report", "verify", "maximal"])
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--which", choices=["H4", "H5"], default="H4")
    p.add_argument("--max-len", type=int, default=8)
    p.add_argument("--out", default=None)

    s = sub.add_parser("suite", help="run the acceptance battery")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", default=None)
    return parser


def _cmd_group(args, em: _Emitter) -> int:
    G = resolve_group(args.group)
    if args.action == "show":
        for line in format_group_table(G).rstrip("\n").split("\n"):
            em.lines.append(line)
        return 0
    em.emit("order", G.n)
    em.emit("abelian", G.is_abelian)
    normals = normal_subgroups(G)  # raises beyond the enumeration bound, before the invariants print
    invariants = abelian_invariants(G)
    em.emit("invariants", "non-abelian" if invariants is None else list(invariants))
    em.emit("normal_subgroups", len(normals))
    em.emit("order_census", sorted(G.order_census().items()))
    return 0


def _cmd_cocycle(args, em: _Emitter) -> int:
    G = resolve_group(args.group)
    alpha = resolve_cocycle(args.cocycle, G)
    if args.action == "check":
        em.emit("cocycle", "valid")
        em.emit("scale", alpha.scale)
        return 0
    if args.action == "nondeg":
        em.emit("nondegenerate", is_nondegenerate(alpha))
        return 0
    if args.action == "cohomologous":
        if args.cocycle2 is None:
            raise GquotError("cohomologous needs --cocycle2")
        beta = resolve_cocycle(args.cocycle2, G)
        same, witness = cohomologous(alpha, beta)
        em.emit("cohomologous", same)
        if witness is not None:
            em.emit("witness_scale", witness.scale)
            em.emit("witness", list(witness.exps))
        return 0
    b = bicharacter_of(alpha)
    em.emit("scale", b.scale)
    for g in range(G.n):
        em.emit(f"row_{g}", " ".join(str(int(x)) for x in b.exps[g]))
    em.emit("radical", list(b.radical().elements))
    return 0


def _cmd_twisted(args, em: _Emitter) -> int:
    G = resolve_group(args.group)
    alpha = resolve_cocycle(args.cocycle, G)
    em.emit("seed", args.seed)
    data = TwistedAlgebra(G, alpha).wedderburn(seed=args.seed)
    em.emit("blocks", list(data.dims))
    for p in data.blocks:
        em.emit(f"block_{p.index}", f"dim={p.dim}")
    em.emit("sum_of_squares", sum(d * d for d in data.dims))
    em.emit("residual_below", "1e-9" if data.residual <= 1e-9 else f"{data.residual:.3e}")
    em.emit("certified", data.residual <= TOL_IDEMPOTENT)
    return 0


def _cmd_grading(args, em: _Emitter) -> int:
    G = resolve_group(args.group)
    path = Path(args.descriptor)
    d = parse_descriptor(path.read_text(), G, base_dir=path.parent)
    if args.action == "dims":
        dims = descriptor_dims(d)
        for g in G.elements():
            em.emit(f"dim_{g}", dims.get(g, 0))
        em.emit("total", sum(dims.values()))
        return 0
    if args.action == "connected":
        em.emit("connected", is_connected(d))
        return 0
    if args.action == "equidim":
        status = True
        for i, s in enumerate(d.summands):
            fine = Subgroup(G, (0,)) if s.fine is None else s.fine
            verdict, masses = is_equidimensional_induced(s.x, fine)
            em.emit(f"summand_{i}_masses", sorted(masses.values()))
            em.emit(f"summand_{i}_equidimensional", verdict)
            status = status and verdict
        em.emit("equidimensional", status)
        return 0
    em.emit("elementary", is_elementary(d))
    em.emit("elementary_crossed_product", is_elementary_crossed_product(d))
    em.emit("connected", is_connected(d))
    return 0


def _cmd_mackey(args, em: _Emitter) -> int:
    G = resolve_group(args.group)
    alpha = resolve_cocycle(args.cocycle, G)
    N = parse_subgroup(G, args.normal)
    em.emit("seed", args.seed)
    dec = mackey_decompose(alpha, N, seed=args.seed)
    em.emit("orbits", len(dec.orbits))
    for i, o in enumerate(dec.orbits):
        em.emit(f"orbit_{i}", f"d={o.dim} inertia_order={o.inertia.order} transversal_size={len(o.transversal)}")
        if o.omega_trivial:
            kind = "trivial"
        elif o.omega_nondegenerate:
            kind = "nondegenerate"
        else:
            kind = f"blocks={list(o.omega_blocks)}"
        em.emit(f"orbit_{i}_obstruction", kind)
        em.emit(f"orbit_{i}_character", " ".join(f"{t}^{k}" for t, k in o.x.mults))
    em.emit("reconstruction_check", dec.oracle_dims == dec.reconstructed_dims)
    em.emit("oracle_blocks", list(dec.oracle_dims))
    em.emit("simple", is_simple_quotient(dec))
    em.emit("elementary", is_elementary_quotient(dec))
    em.emit("elementary_crossed_product", is_ecp_quotient(dec))
    return 0


def _cmd_lagrangian(args, em: _Emitter) -> int:
    G = resolve_group(args.group)
    alpha = None if args.action == "iyb" else resolve_cocycle(args.cocycle, G)  # iyb asks about G alone
    em.emit("seed", args.seed)
    _check_seed(args.seed)
    if args.action == "iyb":
        result = iyb_witness_search(G)
        em.emit("witness_found", result.witness is not None)
        em.emit("modules_tried", result.modules_tried)
        em.emit("actions_tried", result.actions_tried)
        if result.witness is not None:
            em.emit("module_invariants", list(result.witness.module_invariants))
            em.emit("delta", list(result.witness.delta))
            em.emit("verified", result.witness.verify())
        return 0
    if args.action == "theoremD":
        report = maximal_elementary_quotients(G, alpha, seed=args.seed)
        em.emit("elementary_quotients", len(report.elementary_normals))
        em.emit("maximal", len(report.maximal_normals))
        for N in report.maximal_normals:
            em.emit(f"maximal_{','.join(map(str, N.elements))}", "lagrangian")
        em.emit("unique_maximal_class", report.unique_maximal_class)
        return 0
    if args.action == "scan":
        reports = lagrangian_scan(MackeyContext(alpha, oracle=BlockOracle(args.seed)), normal_only=args.normal_only)
        em.emit("candidates", len(reports))
        for r in reports:
            em.emit(
                f"subgroup_{','.join(map(str, r.subgroup.elements))}",
                f"isotropic={r.isotropic} normal={r.normal} lagrangian={r.is_lagrangian}",
            )
        return 0
    if args.normal is None:
        raise GquotError("theoremC needs --normal")
    N = parse_subgroup(G, args.normal)
    context = MackeyContext(alpha, oracle=BlockOracle(args.seed))
    em.emit("ecp_iff_lagrangian", crossed_product_iff_lagrangian(context, N))
    return 0


def _cmd_pi1(args, em: _Emitter) -> int:
    if args.action == "report":
        rep = pi1_report(args.n)
        em.emit("pi1", rep.structure)
        em.emit("maximal_classes", "; ".join(rep.maximal_class_labels))
        if rep.presentation is not None:
            for c in rep.presentation.checks:
                em.emit(f"check_{c.name}", "pass" if c.passed else f"FAIL ({c.detail})")
        em.emit("verified", rep.verified)
        return 0 if rep.verified else 1
    if args.action == "verify":
        rep = (
            verify_presentation_h4(max_len=args.max_len)
            if args.which == "H4"
            else verify_presentation_h5(q5_len=args.max_len)
        )
        for c in rep.checks:
            em.emit("check", c.name)
            em.emit("status", "pass" if c.passed else "fail")
            em.emit("witness", c.detail)
        em.emit("overall", "pass" if rep.all_passed else "fail")
        return 0 if rep.all_passed else 1
    classes = maximal_gradings_diagonal(args.n)
    em.emit("count", len(classes))
    for i, c in enumerate(classes):
        em.emit(f"class_{i}", c.label)
    return 0


def _cmd_suite(args, em: _Emitter) -> int:
    results, report = run_all(seed=args.seed)
    for line in report.rstrip("\n").split("\n"):
        em.lines.append(line)
    return 0 if all(r.passed for r in results) else 1


_COMMANDS = {"group": _cmd_group, "cocycle": _cmd_cocycle, "twisted": _cmd_twisted, "grading": _cmd_grading,
             "mackey": _cmd_mackey, "lagrangian": _cmd_lagrangian, "pi1": _cmd_pi1, "suite": _cmd_suite}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)  # the subcommand is required, so it is a key of _COMMANDS
    em = _Emitter(getattr(args, "out", None))
    try:
        code = _COMMANDS[args.command](args, em)
    except (CertificationError, TheoremCheckError) as exc:
        em.emit("error", f"{type(exc).__name__}: {exc}")
        em.flush()
        return 1
    except (GquotError, OSError, ValueError) as exc:
        em.emit("error", f"{type(exc).__name__}: {exc}")
        em.flush()
        return 2
    em.flush()
    return code


if __name__ == "__main__":
    raise SystemExit(main())
