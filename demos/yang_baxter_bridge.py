"""Bijective 1-cocycles for quotient groups of Lagrangian kernels.

A finite group with a bijective 1-cocycle into one of its abelian modules is
the group-theoretic skeleton of a set-theoretic Yang-Baxter solution.  Every
group arising as a crossed-product quotient of a non-degenerate twisted
class admits one, and the search here finds explicit witnesses by
backtracking over modules, actions, and generator values.
"""

import gquot as gq
from gquot.cocycles import standard_nondegenerate
from gquot.lagrangians import iyb_witness_search, lagrangian_quotient_is_iyb, lagrangian_scan
from gquot.mackey import MackeyContext

# Direct searches.  Abelian groups are witnessed by the identity cocycle on
# themselves; the symmetric group on three letters needs a twisted action on
# the cyclic module of order 6.
for spec in ["C2", "C2xC2", "C4", "C6", "S3", "D4"]:
    H = gq.make_group(spec)
    res = iyb_witness_search(H)
    w = res.witness
    status = (
        f"module C{'xC'.join(map(str, w.module_invariants))}, "
        f"{'trivial' if all(p == tuple(range(w.module.n)) for p in w.action) else 'non-trivial'} action"
        if w
        else "no witness in bounds"
    )
    print(f"{spec}: {status}")

# The bridge: every Lagrangian quotient of a non-degenerate abelian class
# must be witnessed, and is.  The scan and the bridge share one context per
# carrier, so the bridge reads the Lagrangian verdict the scan certified.
print()
for invs, name in [([2], "C2xC2"), ([4], "C4xC4"), ([6], "C6xC6")]:
    context = MackeyContext(standard_nondegenerate(invs))
    for rep in lagrangian_scan(context):
        if not rep.is_lagrangian:
            continue
        res = lagrangian_quotient_is_iyb(context, rep.subgroup)
        print(f"{name} / {rep.subgroup.elements}: witness on module "
              f"C{'xC'.join(map(str, res.witness.module_invariants))}")
        break  # one representative per carrier keeps the demo short
