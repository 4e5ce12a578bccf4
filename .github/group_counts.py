"""How many groups, table cores, homomorphism checks, subgroup closure checks
and Cayley trees one Theorem-D call builds, how many block splits it makes
numerically and exactly, and in how many stacked eigh calls, on each carrier
of the `theorem_d` benchmark workload (C8xC8 and C2xC4xC2xC4) at seed 0:
ROADMAP items 6 and 12.

    PYTHONPATH=src python .github/group_counts.py            # the report on standard output
    PYTHONPATH=src python .github/group_counts.py SUMMARY    # the report appended to the file SUMMARY

Counts are taken by wrapping the constructors for the duration of one
`maximal_elementary_quotients` call; the carrier and its cocycle are built
before.  A `GroupHom` check compares n r entries, n the order of its source
and r its generators; the all-pairs check it replaced compared n^2.  A
`Subgroup` closure check is one run of its `__post_init__`; the lattice and
quotient projections skip theirs by proof.  Every split goes through
`twisted.split_algebras`, which takes a list of algebras; each algebra of
the list splits exactly when its center is one-dimensional (one block) and
by an eigensplit otherwise, and the eigensplits of one order share one
stacked `np.linalg.eigh` call per attempt, counted as the eigh calls on a
stack of matrices (the module extractions make theirs on single matrices).
The garbage collector is disabled for the counted
call: ``groups._CORES`` keeps table cores weakly, so a collection during the
call could drop a core that a later group of the same table then builds
again, and the core and tree counts would move with the collector rather
than with the code.  The script reports and does not gate.
"""

import gc
import sys

import numpy as np

from gquot import groups, twisted
from gquot.cocycles import standard_nondegenerate
from gquot.lagrangians import maximal_elementary_quotients

CARRIERS = ((8,), (2, 4))


def counted_call(alpha) -> dict:
    counts = dict.fromkeys(["groups", "cores", "homs", "compares", "all_pairs", "trees", "subgroups",
                            "numeric", "exact", "stacked_eigh"], 0)
    tables = set()
    group_init, core_init = groups.FiniteGroup.__init__, groups._TableCore.__init__
    hom_check, build_tree = groups.GroupHom.__post_init__, groups._cayley_tree
    subgroup_check, split, eigh = groups.Subgroup.__post_init__, twisted.split_algebras, np.linalg.eigh

    def count_group(self, *args, **kwargs):
        group_init(self, *args, **kwargs)
        counts["groups"] += 1
        tables.add(self.table.tobytes())

    def count_core(self, *args):
        core_init(self, *args)
        counts["cores"] += 1

    def count_hom(self):
        hom_check(self)
        n = self.source.n
        counts["homs"] += 1
        counts["compares"] += n * len(groups.cayley_tree(self.source).generators)
        counts["all_pairs"] += n * n

    def count_tree(core):
        counts["trees"] += 1
        return build_tree(core)

    def count_subgroup(self):
        subgroup_check(self)
        counts["subgroups"] += 1

    def count_split(algebras, seed):
        outcomes = split(algebras, seed)
        for data in outcomes:
            if isinstance(data, twisted.WedderburnData):
                counts["exact" if len(data.blocks) == 1 else "numeric"] += 1
        return outcomes

    def count_eigh(a, *args, **kwargs):
        counts["stacked_eigh"] += np.ndim(a) == 3
        return eigh(a, *args, **kwargs)

    patches = [(groups.FiniteGroup, "__init__", count_group), (groups._TableCore, "__init__", count_core),
               (groups.GroupHom, "__post_init__", count_hom), (groups, "_cayley_tree", count_tree),
               (groups.Subgroup, "__post_init__", count_subgroup), (twisted, "split_algebras", count_split),
               (np.linalg, "eigh", count_eigh)]
    originals = [(owner, name, getattr(owner, name)) for owner, name, _ in patches]
    for owner, name, wrapper in patches:
        setattr(owner, name, wrapper)
    gc.disable()
    try:
        maximal_elementary_quotients(alpha.group, alpha, seed=0)
    finally:
        gc.enable()
        for owner, name, original in originals:
            setattr(owner, name, original)
    return {**counts, "tables": len(tables)}


def report() -> str:
    lines = [
        "Theorem D at seed 0 (ROADMAP items 6 and 12): groups built against their distinct tables and the cores"
        " built, the checks run, the block splits made numerically and exactly, and the stacked eigh calls"
        " of the numeric ones",
        "",
        "| carrier | FiniteGroups | distinct tables | cores built | GroupHom checks | compares (all pairs) "
        "| Subgroup closure checks | Cayley trees | splits numeric / exact | stacked eigh calls |",
        "|---|---|---|---|---|---|---|---|---|---|",
    ]
    for invariants in CARRIERS:
        alpha = standard_nondegenerate(invariants)
        c = counted_call(alpha)
        name = "x".join(f"C{k}" for k in invariants + invariants)
        lines.append(f"| {name} | {c['groups']} | {c['tables']} | {c['cores']} | {c['homs']} "
                     f"| {c['compares']} ({c['all_pairs']}) | {c['subgroups']} | {c['trees']} "
                     f"| {c['numeric']} / {c['exact']} | {c['stacked_eigh']} |")
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    text = report()
    if len(sys.argv) > 1:
        with open(sys.argv[1], "a") as fh:
            fh.write(text)
    else:
        print(text, end="")
