"""How many groups, table cores, homomorphism checks and Cayley trees one
Theorem-D call builds, on each carrier of the `theorem_d` benchmark workload
(C8xC8 and C2xC4xC2xC4) at seed 0: ROADMAP item 6's construction and
validation counts.

    PYTHONPATH=src python .github/group_counts.py            # the report on standard output
    PYTHONPATH=src python .github/group_counts.py SUMMARY    # the report appended to the file SUMMARY

Counts are taken by wrapping the constructors for the duration of one
`maximal_elementary_quotients` call; the carrier and its cocycle are built
before.  A `GroupHom` check compares n r entries, n the order of its source
and r its generators; the all-pairs check it replaced compared n^2.  The
script reports and does not gate.
"""

import sys

from gquot import groups
from gquot.cocycles import standard_nondegenerate
from gquot.lagrangians import maximal_elementary_quotients

CARRIERS = ((8,), (2, 4))


def counted_call(alpha) -> dict:
    counts = dict.fromkeys(["groups", "cores", "homs", "compares", "all_pairs", "trees"], 0)
    tables = set()
    group_init, core_init = groups.FiniteGroup.__init__, groups._TableCore.__init__
    hom_check, build_tree = groups.GroupHom.__post_init__, groups._cayley_tree

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

    patches = [(groups.FiniteGroup, "__init__", count_group), (groups._TableCore, "__init__", count_core),
               (groups.GroupHom, "__post_init__", count_hom), (groups, "_cayley_tree", count_tree)]
    originals = [(owner, name, getattr(owner, name)) for owner, name, _ in patches]
    for owner, name, wrapper in patches:
        setattr(owner, name, wrapper)
    try:
        maximal_elementary_quotients(alpha.group, alpha, seed=0)
    finally:
        for owner, name, original in originals:
            setattr(owner, name, original)
    return {**counts, "tables": len(tables)}


def report() -> str:
    lines = [
        "Theorem D at seed 0 (ROADMAP item 6): groups built against their distinct tables and the cores built",
        "",
        "| carrier | FiniteGroups | distinct tables | cores built | GroupHom checks | compares (all pairs) | Cayley trees |",
        "|---|---|---|---|---|---|---|",
    ]
    for invariants in CARRIERS:
        alpha = standard_nondegenerate(invariants)
        c = counted_call(alpha)
        name = "x".join(f"C{k}" for k in invariants + invariants)
        lines.append(f"| {name} | {c['groups']} | {c['tables']} | {c['cores']} | {c['homs']} "
                     f"| {c['compares']} ({c['all_pairs']}) | {c['trees']} |")
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    text = report()
    if len(sys.argv) > 1:
        with open(sys.argv[1], "a") as fh:
            fh.write(text)
    else:
        print(text, end="")
