"""The acceptance battery: every criterion as an executable, reportable check.

Each criterion returns a structured result with stable line records, so the
battery can be asserted by tests and emitted by the command line runner with
byte-identical output for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .catalog import GROUP_SPECS, NONDEGENERATE_CARRIERS, build_cocycle, build_group
from .cocycles import CocycleTable, bicharacter_of
from .errors import GquotError, TheoremCheckError
from .gradings import descriptor_dims, is_equidimensional_induced
from .groups import abelian_invariants, is_homocyclic_squarefree, quotient, squarefree, subgroups
from .lagrangians import (
    IYB_BOUND,
    crossed_product_iff_lagrangian,
    iyb_witness_search,
    lagrangian_scan,
    maximal_elementary_quotients,
)
from .mackey import MackeyContext, is_elementary_quotient
from .pullbacks import (
    enumerate_admissible_rank4,
    enumerate_admissible_rank5,
    express_rank4,
    express_rank5,
    maximal_gradings_diagonal,
    rank4_pullback,
    rank5_pullback,
    verify_presentation_h4,
    verify_presentation_h5,
)


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    records: list[tuple[str, str]] = field(default_factory=list)

    def line(self) -> str:
        return f"criterion {self.number} [{self.name}]: {'PASS' if self.passed else 'FAIL'}"


def _context(contexts: dict, gname: str, G, cname: str, alpha, seed: int) -> MackeyContext:
    """The battery's one Mackey context for (group name, cocycle name)."""
    if (gname, cname) not in contexts:
        contexts[(gname, cname)] = MackeyContext(G, alpha, seed)
    return contexts[(gname, cname)]


def sweep_cases(max_order: int = 24):
    """Catalog (group, cocycle) pairs within the order bound.

    Every group carries the trivial cocycle; the square carriers addition-
    ally carry their standard non-degenerate class.
    """
    out = []
    for name in GROUP_SPECS:
        G = build_group(name)
        if G.n > max_order:
            continue
        out.append((name, G, "trivial", CocycleTable.trivial(G)))
        if name in NONDEGENERATE_CARRIERS:
            _, alpha = build_cocycle(f"nd_{name}")
            out.append((name, G, f"nd_{name}", alpha))
    return out


def criterion_1_and_2(seed: int, contexts: dict) -> tuple[CriterionResult, CriterionResult]:
    """Block reconstruction and quotient equi-dimensionality, one sweep."""
    rec1, rec2 = [], []
    ok1 = ok2 = True
    cases = 0
    for gname, G, cname, alpha in sweep_cases():
        for N in subgroups(G):
            if not N.is_normal():
                continue
            cases += 1
            tag = f"{gname}/{cname}/N{list(N.elements)}"
            try:
                dec = _context(contexts, gname, G, cname, alpha, seed).decompose(N)
            except GquotError as exc:
                ok1 = ok2 = False
                rec1.append((tag, f"decomposition failed: {exc}"))
                continue
            recon_ok = dec.oracle_dims == dec.reconstructed_dims
            delta_ok = sum(o.delta for o in dec.orbits) == G.n
            if not (recon_ok and delta_ok):
                ok1 = False
                rec1.append((tag, f"recon={recon_ok} delta={delta_ok}"))
            dims = descriptor_dims(dec.descriptor)
            equi_ok = {dims.get(q, 0) for q in dec.quotient_group.elements()} == {N.order}
            masses_ok = True
            for o in dec.orbits:
                verdict, _ = is_equidimensional_induced(o.x, o.inertia)
                masses_ok = masses_ok and verdict
            if not (equi_ok and masses_ok):
                ok2 = False
                rec2.append((tag, f"component_dims={equi_ok} coset_masses={masses_ok}"))
    rec1.insert(0, ("cases", str(cases)))
    rec2.insert(0, ("cases", str(cases)))
    c1 = CriterionResult(1, "quotient decomposition reconstruction", ok1, rec1)
    c2 = CriterionResult(2, "quotient equi-dimensionality", ok2, rec2)
    return c1, c2


def criterion_3(seed: int, contexts: dict) -> CriterionResult:
    """Crossed-product-iff-Lagrangian over the abelian CT square catalog."""
    records = []
    ok = True
    groups = ("C2xC2", "C4xC4", "C2xC2xC2xC2", "C6xC6")
    for gname in groups:
        G = build_group(gname)
        _, alpha = build_cocycle(f"nd_{gname}")
        context = _context(contexts, gname, G, f"nd_{gname}", alpha, seed)
        agree = 0
        for N in subgroups(G):
            dec = context.decompose(N)
            try:
                crossed_product_iff_lagrangian(G, alpha, N, seed=seed, dec=dec)
                agree += 1
            except TheoremCheckError as exc:
                ok = False
                records.append((f"{gname}/N{list(N.elements)}", str(exc)))
        records.append((gname, f"subgroups={agree} disagreements=0" if ok else f"subgroups={agree}"))
    return CriterionResult(3, "crossed product iff Lagrangian", ok, records)


def criterion_4(seed: int, contexts: dict) -> CriterionResult:
    """Maximal elementary quotients and the uniqueness criterion."""
    records = []
    ok = True
    for gname in NONDEGENERATE_CARRIERS:
        G = build_group(gname)
        cname = f"nd_{gname}"
        _, alpha = build_cocycle(cname)
        try:
            context = _context(contexts, gname, G, cname, alpha, seed)
            report = maximal_elementary_quotients(G, alpha, seed=seed, context=context)
        except GquotError as exc:
            ok = False
            records.append((gname, f"failed: {exc}"))
            continue
        expected_unique = is_homocyclic_squarefree(G)
        if report.unique_maximal_class != expected_unique:
            ok = False
        records.append(
            (
                gname,
                f"maximal={len(report.maximal_normals)} unique={report.unique_maximal_class} "
                f"homocyclic_squarefree={expected_unique}",
            )
        )
        if gname == "C4xC4":
            kinds = {abelian_invariants(Q) for Q in report.quotient_groups}
            if not {(4,), (2, 2)} <= kinds:
                ok = False
            records.append(("C4xC4.quotient_types", str(sorted(kinds))))
        if gname == "C2xC2xC2xC2" and not report.unique_maximal_class:
            ok = False
    return CriterionResult(4, "maximal elementary uniqueness", ok, records)


def criterion_5(seed: int, contexts: dict) -> CriterionResult:
    """Doubly non-degenerate cases: one orbit, full inertia, non-deg obstruction."""
    records = []
    ok = True
    cases = 0
    for gname in NONDEGENERATE_CARRIERS:
        G = build_group(gname)
        cname = f"nd_{gname}"
        _, alpha = build_cocycle(cname)
        for N in subgroups(G):
            rest, sub, _ = alpha.restrict(N)
            if not sub.is_abelian or not bicharacter_of(rest).radical().order == 1:
                continue
            cases += 1
            dec = _context(contexts, gname, G, cname, alpha, seed).decompose(N)
            o = dec.orbits[0]
            q = dec.quotient_group.n
            root = int(round(q ** 0.5))
            good = (
                len(dec.orbits) == 1
                and o.inertia.order == q
                and o.omega_nondegenerate
                and root * root == q
                and o.omega_blocks == (root,)
            )
            if not good:
                ok = False
                records.append(
                    (
                        f"{gname}/N{list(N.elements)}",
                        f"orbits={len(dec.orbits)} inertia={o.inertia.order}/{q} blocks={o.omega_blocks}",
                    )
                )
    records.insert(0, ("doubly_nondegenerate_cases", str(cases)))
    return CriterionResult(5, "doubly non-degenerate CT quotients", ok, records)


def criterion_6(seed: int, contexts: dict) -> CriterionResult:
    """Cube-free law: elementary iff |G/N| square-free."""
    records = []
    ok = True
    for gname in ("C2xC2", "C6xC6"):
        G = build_group(gname)
        cname = f"nd_{gname}"
        _, alpha = build_cocycle(cname)
        checked = 0
        for N in subgroups(G):
            dec = _context(contexts, gname, G, cname, alpha, seed).decompose(N)
            elem = is_elementary_quotient(dec)
            predicted = squarefree(G.n // N.order)
            checked += 1
            if elem != predicted:
                ok = False
                records.append(
                    (f"{gname}/N{list(N.elements)}", f"elementary={elem} squarefree={predicted}")
                )
        records.append((gname, f"normal_subgroups={checked}"))
    return CriterionResult(6, "cube-free law", ok, records)


def criterion_7() -> CriterionResult:
    """Rank-4 presentation checks and exhaustive expression of admissibles."""
    records = []
    rep = verify_presentation_h4()
    ok = rep.all_passed
    for c in rep.checks:
        records.append((c.name, f"{'pass' if c.passed else 'FAIL'} ({c.detail})"))
    pb = rank4_pullback()
    triples = enumerate_admissible_rank4(6)
    expressed = 0
    for t in triples:
        try:
            express_rank4(t, pb)
            expressed += 1
        except GquotError:
            ok = False
    records.append(("admissible_triples_len6", f"{expressed}/{len(triples)} expressed"))
    wide = enumerate_admissible_rank4(40)
    wide_done = sum(1 for t in wide if express_rank4(t, pb) is not None)
    records.append(("admissible_triples_len40", f"{wide_done}/{len(wide)} expressed"))
    if expressed != len(triples) or wide_done != len(wide):
        ok = False
    return CriterionResult(7, "rank-4 pull-back presentation", ok, records)


def criterion_8() -> CriterionResult:
    """Rank-5 presentation checks (including the Q5 certificate) and expressions.

    The Q5 bounded free-product certificate at syllable length 8 fails on an
    explicit relation in the pull-back; see the q5_free_product record.  The
    remaining checks and the exhaustive expression sweep pass.
    """
    records = []
    rep = verify_presentation_h5(q5_len=8)
    ok = rep.all_passed
    for c in rep.checks:
        records.append((c.name, f"{'pass' if c.passed else 'FAIL'} ({c.detail})"))
    pb = rank5_pullback()
    quads = enumerate_admissible_rank5(4, 4)
    expressed = 0
    for t in quads:
        try:
            express_rank5(t, pb)
            expressed += 1
        except GquotError:
            ok = False
    records.append(("admissible_tuples_len4", f"{expressed}/{len(quads)} expressed"))
    if expressed != len(quads):
        ok = False
    return CriterionResult(8, "rank-5 pull-back presentation", ok, records)


EXPECTED_DIAGONAL = {
    2: ["C2"],
    3: ["C2 + C", "C3"],
    4: ["C2 * C2", "C2xC2", "C3 + C", "C4"],
    5: ["C2 * C2 + C", "C2 * C3", "C2xC2 + C", "C4 + C", "C5"],
}


def criterion_9() -> CriterionResult:
    """Maximal connected gradings of the diagonal algebras, element by element."""
    records = []
    ok = True
    for n, expected in EXPECTED_DIAGONAL.items():
        got = sorted(c.label for c in maximal_gradings_diagonal(n))
        match = got == sorted(expected)
        ok = ok and match
        records.append((f"n={n}", f"{got} {'==' if match else '!='} {sorted(expected)}"))
    return CriterionResult(9, "diagonal maximal gradings", ok, records)


def criterion_10(seed: int) -> CriterionResult:
    """Every normal Lagrangian quotient in the abelian catalog is IYB-witnessed."""
    records = []
    ok = True
    inconclusive = 0
    for gname in NONDEGENERATE_CARRIERS:
        G = build_group(gname)
        _, alpha = build_cocycle(f"nd_{gname}")
        found = 0
        for rep in lagrangian_scan(G, alpha, seed=seed):
            if not rep.is_lagrangian:
                continue
            Q, _ = quotient(G, rep.subgroup)
            if Q.n > IYB_BOUND:
                continue
            result = iyb_witness_search(Q)
            if result.witness is None:
                inconclusive += 1
                records.append((f"{gname}/N{list(rep.subgroup.elements)}", "inconclusive"))
            else:
                if not result.witness.verify():
                    ok = False
                    records.append((f"{gname}/N{list(rep.subgroup.elements)}", "witness failed"))
                found += 1
        records.append((gname, f"lagrangian_quotients_witnessed={found}"))
    records.append(("inconclusive", str(inconclusive)))
    return CriterionResult(10, "Lagrangian quotients are IYB", ok, records)


def run_battery(seed: int = 0) -> list[CriterionResult]:
    contexts: dict = {}  # one MackeyContext per (group name, cocycle name)
    c1, c2 = criterion_1_and_2(seed, contexts)
    results = [
        c1,
        c2,
        criterion_3(seed, contexts),
        criterion_4(seed, contexts),
        criterion_5(seed, contexts),
        criterion_6(seed, contexts),
        criterion_7(),
        criterion_8(),
        criterion_9(),
        criterion_10(seed),
    ]
    return results


def render_report(results: list[CriterionResult], seed: int) -> str:
    lines = [f"seed: {seed}"]
    for r in results:
        lines.append(r.line())
        for key, value in r.records:
            lines.append(f"  {key}: {value}")
    lines.append(f"overall: {'PASS' if all(r.passed for r in results) else 'FAIL'}")
    return "\n".join(lines) + "\n"


def run_all(seed: int = 0) -> tuple[list[CriterionResult], str]:
    """The full battery including the determinism double run (criterion 11)."""
    first = render_report(run_battery(seed), seed)
    second_results = run_battery(seed)
    second = render_report(second_results, seed)
    same = first == second
    c11 = CriterionResult(
        11, "determinism", same, [("byte_identical", str(same)), ("report_bytes", str(len(first)))]
    )
    results = second_results + [c11]
    return results, render_report(results, seed)
