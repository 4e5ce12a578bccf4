"""The benchmark's workloads: inputs from a seed, one round of gquot calls, checks.

Each workload has three steps.  ``build(seed)`` makes the inputs and the
independently computed answers once per process.  ``prepare(spec)`` makes
fresh gquot objects for one round, so no round reuses objects a previous
round computed on.  ``run(spec, objs, tally)`` is the timed round: every
call into gquot and the check of every answer.
"""

from __future__ import annotations

import numpy as np

import checks
from checks import Mismatch, require
# gquot functions are called through their modules, so the tracer's
# run-time wrappers on those module attributes see the calls.
from gquot import cocycles, lagrangians, pullbacks, suite
from gquot.catalog import GROUP_SPECS, NONDEGENERATE_CARRIERS, build_cocycle, build_group
from gquot.cocycles import CocycleTable, standard_nondegenerate
from gquot.errors import GquotError
from gquot.groups import make_group
from gquot.twisted import TwistedAlgebra


class Tally:
    """Operations attempted and failed; an operation fails when gquot raises
    or when its answer does not pass the independent check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.errors: list[str] = []

    def op(self, label: str, call, check):
        """Call gquot, check the answer; the answer when it passed, else None."""
        self.attempted += 1
        try:
            answer = call()
            check(answer)
        except GquotError as exc:
            self.failed += 1
            self.errors.append(f"{label}: {type(exc).__name__}: {exc}")
        except Mismatch as exc:
            self.failed += 1
            self.wrong.append(f"{label}: {exc}")
        else:
            return answer
        return None


# -- battery ------------------------------------------------------------------

SWEEP_MAX_ORDER = 24  # criteria 1 and 2 sweep the catalog up to this order
CT_SQUARES = ("C2xC2", "C3xC3", "C4xC4", "C5xC5", "C6xC6", "C2xC2xC2xC2")
CRITERION_3_GROUPS = ("C2xC2", "C4xC4", "C2xC2xC2xC2", "C6xC6")
CRITERION_6_GROUPS = ("C2xC2", "C6xC6")


def _square_data(gname: str):
    """Own table, commutator form and scale of the standard class on a catalog square."""
    _, alpha = build_cocycle(f"nd_{gname}")
    table = checks.table_of(gname)
    require(np.array_equal(alpha.group.table, table), f"{gname} is not the expected group")
    return table, checks.alternating_form(alpha.exps, alpha.scale), alpha.scale


class Battery:
    why = "the acceptance battery, criteria 1-10 on the catalog: every layer, many small groups"

    def build(self, seed: int) -> dict:
        cases = 0
        for name in GROUP_SPECS:
            G = build_group(name)
            if G.n <= SWEEP_MAX_ORDER:
                classes = 2 if name in NONDEGENERATE_CARRIERS else 1  # trivial, and nd on squares
                cases += classes * len(checks.normal_subgroups(G.table))
        expected = {"cases": cases, "maximal": {}, "doubly_nondegenerate": 0}
        for gname in CT_SQUARES:
            table, form, scale = _square_data(gname)
            lags = checks.lagrangians(table, form, scale)
            parts = [int(p[1:]) for p in gname.split("x")]
            unique = checks.homocyclic_squarefree(checks.invariant_factors(parts))
            expected["maximal"][gname] = (len(lags), unique)
            subs = checks.all_subgroups_abelian(table)
            expected["doubly_nondegenerate"] += sum(checks.nondegenerate_on(form, H) for H in subs)
            if gname == "C4xC4":
                expected["c4xc4_quotient_types"] = {
                    (4,) if checks.quotient_is_cyclic(table, set(L)) else (2, 2) for L in lags
                }
        count = {g: len(checks.all_subgroups_abelian(checks.table_of(g))) for g in CRITERION_3_GROUPS}
        expected["subgroups"] = count
        expected["normal_subgroups"] = {g: count[g] for g in CRITERION_6_GROUPS}
        return {"seed": seed, "expected": expected}

    def prepare(self, spec: dict) -> None:
        return None

    def run(self, spec: dict, objs, tally: Tally) -> None:
        try:
            results = {r.number: r for r in suite.run_battery(spec["seed"])}
        except GquotError as exc:
            results = exc  # every criterion of this round fails with it

        def criterion(num):
            if isinstance(results, GquotError):
                raise results
            return results.get(num)

        for num in range(1, 11):
            tally.op(
                f"criterion {num}",
                lambda: criterion(num),
                lambda r: checks.check_criterion(r, spec["expected"]),
            )


# -- theorem_d ----------------------------------------------------------------

THEOREM_D_CARRIERS = ((8,), (2, 4))  # C8xC8 and C2xC4xC2xC4, both of order 64


class TheoremD:
    why = "maximal elementary quotients at order 64: a large subgroup lattice built per carrier"

    def build(self, seed: int) -> dict:
        carriers = []
        for invs in THEOREM_D_CARRIERS:
            alpha = standard_nondegenerate(invs)
            table = checks.table_of("x".join(f"C{k}" for k in invs + invs))
            require(np.array_equal(alpha.group.table, table), f"carrier {invs} is not the expected group")
            form = checks.alternating_form(alpha.exps, alpha.scale)
            carriers.append(
                {
                    "invariants": invs,
                    "lagrangians": checks.lagrangians(table, form, alpha.scale),
                    "unique": checks.homocyclic_squarefree(checks.invariant_factors(invs + invs)),
                }
            )
        return {"seed": seed, "carriers": carriers}

    def prepare(self, spec: dict) -> list:
        return [standard_nondegenerate(c["invariants"]) for c in spec["carriers"]]

    def run(self, spec: dict, objs, tally: Tally) -> None:
        for carrier, alpha in zip(spec["carriers"], objs):
            tally.op(
                f"maximal_elementary_quotients{carrier['invariants']}",
                lambda: lagrangians.maximal_elementary_quotients(alpha.group, alpha, seed=spec["seed"]),
                lambda report: check_theorem_d(report, carrier),
            )


def check_theorem_d(report, carrier: dict) -> None:
    lags = carrier["lagrangians"]
    maximal = {N.elements for N in report.maximal_normals}
    require(maximal == lags, f"{len(maximal)} maximal kernels, {len(lags)} Lagrangians enumerated")
    lagrangian = {N.elements for N in report.lagrangian_normals}
    require(lagrangian == lags, "reported Lagrangians differ from the enumeration")
    require(report.unique_maximal_class == carrier["unique"], "unique_maximal_class is wrong")


# -- certify ------------------------------------------------------------------

S4_DEGREES = (1, 1, 2, 3, 3)
D8_DEGREES = (1, 1, 1, 1, 2, 2, 2)  # dihedral of order 16


class Certify:
    why = "exact coboundary solves at orders 64-128 and the block oracle at orders 96-256"

    def build(self, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        pairs = []
        for invs in THEOREM_D_CARRIERS:
            alpha = standard_nondegenerate(invs)
            spec = "x".join(f"C{k}" for k in invs + invs)
            pairs.append(self._perturbed(rng, spec, alpha.exps, alpha.scale))
            trivial = np.zeros_like(alpha.exps)
            pairs.append((spec, trivial, 1, np.asarray(alpha.exps), alpha.scale, False))
        # order 128: the bilinear class zeta_8^(x1 y2) on C2 x C8 x C8, perturbed
        coords = np.array([(g // 64, g // 8 % 8, g % 8) for g in range(128)])
        pairs.append(self._perturbed(rng, "C2xC8xC8", np.outer(coords[:, 1], coords[:, 2]) % 8, 8))
        algebras = []
        for invs in ((2, 8), (4, 4)):
            spec = "x".join(f"C{k}" for k in invs + invs)
            root = int(np.prod(invs))
            algebras.append((spec, invs, (root,), (root,)))
        for spec, factor_degrees in (("S4xC2xC2", (S4_DEGREES, (1, 1), (1, 1))),
                                     ("D8xC4xC2", (D8_DEGREES, (1, 1, 1, 1), (1, 1)))):
            dims = checks.degrees_of_product(*factor_degrees)
            algebras.append((spec, None, dims, tuple(sorted(set(dims)))))
        tables = {s: checks.table_of(s) for s in {p[0] for p in pairs} | {a[0] for a in algebras}}
        for spec, table in tables.items():
            require(np.array_equal(make_group(spec).table, table), f"{spec} is not the expected group")
        return {"seed": seed, "pairs": pairs, "algebras": algebras, "tables": tables}

    @staticmethod
    def _perturbed(rng, spec: str, exps, scale: int):
        """(alpha, alpha * delta c) with c a random normalized cochain mod scale."""
        table = checks.table_of(spec)
        c = rng.integers(0, scale, len(table))
        c[0] = 0
        moved = (exps + c[:, None] + c[None, :] - c[table]) % scale
        return spec, np.asarray(exps), scale, moved, scale, True

    def prepare(self, spec: dict):
        pairs = []
        for gspec, a_exps, a_scale, b_exps, b_scale, positive in spec["pairs"]:
            G = make_group(gspec)
            pairs.append((CocycleTable(G, a_scale, a_exps), CocycleTable(G, b_scale, b_exps)))
        algebras = []
        for gspec, invs, _, _ in spec["algebras"]:
            if invs is None:
                G = make_group(gspec)
                algebras.append((G, CocycleTable.trivial(G)))
            else:
                alpha = standard_nondegenerate(invs)
                algebras.append((alpha.group, alpha))
        return pairs, algebras

    def run(self, spec: dict, objs, tally: Tally) -> None:
        seed, tables = spec["seed"], spec["tables"]
        pairs, algebras = objs
        for (gspec, a_exps, a_scale, b_exps, b_scale, positive), (a, b) in zip(spec["pairs"], pairs):
            check = checks.check_coboundary_witness if positive else checks.check_not_cohomologous
            tally.op(
                f"cohomologous {gspec} {'perturbed' if positive else 'trivial vs nd'}",
                lambda: cocycles.cohomologous(a, b),
                lambda res: check(res, a_exps, a_scale, b_exps, b_scale, tables[gspec]),
            )
        for (gspec, _, dims, rep_dims), (G, alpha) in zip(spec["algebras"], algebras):
            algebra = TwistedAlgebra(G, alpha)
            blocks = tally.op(
                f"wedderburn {gspec}",
                lambda: algebra.wedderburn(seed=seed),
                lambda w: checks.check_block_dims(w.dims, dims),
            )
            if blocks is None:
                continue
            for d in rep_dims:
                block = next(p for p in blocks.blocks if p.dim == d)
                tally.op(
                    f"irreducible_rep {gspec} d={d}",
                    lambda: algebra.irreducible_rep(block, seed=seed),
                    lambda rho: checks.check_projective_rep(
                        rho, d, alpha.exps, alpha.scale, tables[gspec]
                    ),
                )


# -- pi1 ----------------------------------------------------------------------

RANK4_SYLLABLES = 60       # admissible triples with free component of length <= 60
RANK5_SYLLABLES = (6, 6)   # admissible 4-tuples, lengths in C2*C2 and C3*C2
DIAGONAL_RANKS = range(2, 13)
PI1_STRUCTURE = {4: "H4 x C6", 5: "H5 x C10"}


class Pi1:
    why = "the C^4 and C^5 fundamental groups: word-level certificates, no numerics"

    def build(self, seed: int) -> dict:
        rank4 = pullbacks.enumerate_admissible_rank4(RANK4_SYLLABLES)
        rank5 = pullbacks.enumerate_admissible_rank5(*RANK5_SYLLABLES)
        require(len(rank4) == checks.admissible_count_rank4(RANK4_SYLLABLES), "rank-4 inputs")
        require(len(rank5) == checks.admissible_count_rank5(*RANK5_SYLLABLES), "rank-5 inputs")
        classes = {n: checks.diagonal_classes(n) for n in DIAGONAL_RANKS}
        return {"seed": seed, "rank4": rank4, "rank5": rank5, "classes": classes}

    def prepare(self, spec: dict) -> None:
        return None

    def run(self, spec: dict, objs, tally: Tally) -> None:
        for n in (4, 5):
            tally.op(f"pi1_report({n})", lambda: pullbacks.pi1_report(n), lambda r: check_pi1(r, n, spec["classes"][n]))
        for n in DIAGONAL_RANKS:
            tally.op(
                f"maximal_gradings_diagonal({n})",
                lambda: pullbacks.maximal_gradings_diagonal(n),
                lambda got: check_diagonal(got, spec["classes"][n]),
            )
        pb4, pb5 = pullbacks.rank4_pullback(), pullbacks.rank5_pullback()
        for t in spec["rank4"]:
            tally.op(
                "express_rank4",
                lambda: pullbacks.express_rank4(t, pb4),
                lambda w: checks.check_expression(t, w, checks.RANK4_GENERATORS),
            )
        for t in spec["rank5"]:
            tally.op(
                "express_rank5",
                lambda: pullbacks.express_rank5(t, pb5),
                lambda w: checks.check_expression(t, w, checks.RANK5_GENERATORS),
            )


def check_diagonal(got, classes) -> None:
    found = [(c.factor_invariants, c.has_trivial_part) for c in got]
    require(len(found) == len(classes), f"{len(found)} maximal gradings, M(n) + M(n-1) = {len(classes)}")
    require(set(found) == classes, "maximal grading classes differ from the enumeration")


def check_pi1(report, n: int, classes) -> None:
    require(report.structure == PI1_STRUCTURE[n], f"structure {report.structure!r}")
    require(len(report.maximal_class_labels) == len(classes), "maximal class count")
    for c in report.presentation.checks:
        if c.name == "q5_free_product":
            require(not c.passed, "the rank-5 free-product certificate passed")
            checks.check_q5_relation(c.detail)
        else:
            require(c.passed, f"presentation check {c.name} failed: {c.detail}")


WORKLOADS = {"battery": Battery(), "theorem_d": TheoremD(), "certify": Certify(), "pi1": Pi1()}
