"""Lagrangian kernels are exactly the elementary-crossed-product quotients.

A subgroup is isotropic when the cocycle class dies on it; a Lagrangian is a
normal isotropic subgroup of square-root order under a non-degenerate class.
Quotienting by a Lagrangian produces the elementary crossed product grading
of the quotient group, and nothing else does.  On abelian carriers the
maximal elementary quotients are precisely these, and they are all
equivalent exactly when the group is homocyclic of square-free exponent.
"""

import gquot as gq
from gquot.cocycles import standard_nondegenerate
from gquot.lagrangians import (
    crossed_product_iff_lagrangian,
    lagrangian_scan,
    maximal_elementary_quotients,
)
from gquot.mackey import MackeyContext

# Scan C4 x C4: seven Lagrangians, of two different isomorphism types.  One
# context names the class, and every question about it below reads the
# verdicts and decompositions that context keeps.
context = MackeyContext(standard_nondegenerate([4]))
G = context.group
print("Lagrangians of the non-degenerate class on C4xC4:")
for rep in lagrangian_scan(context):
    if rep.is_lagrangian:
        invs = gq.abelian_invariants(rep.subgroup.as_group())
        print(f"  {rep.subgroup.elements}  =~ C{'xC'.join(map(str, invs))}")

# The two-sided check: quotient is a crossed product over the quotient group
# if and only if the kernel is a Lagrangian.  Both sides are computed.
L = gq.generated_subgroup(G, [8, 2])  # <x^2, y^2>
print(f"\n<x^2,y^2> verdict (both sides agree): {crossed_product_iff_lagrangian(context, L)}")
print(f"order-2 kernel verdict: {crossed_product_iff_lagrangian(context, gq.generated_subgroup(G, [8]))}")

# Maximal elementary quotients: C4xC4 yields two inequivalent ones (C4 and
# C2xC2 quotients), while homocyclic square-free carriers yield exactly one.
# Each carrier has one context, C4xC4 the one scanned above.
carriers = {
    "C4xC4": context,
    "C2xC2": MackeyContext(standard_nondegenerate([2])),
    "C6xC6": MackeyContext(standard_nondegenerate([6])),
}
for name, c in carriers.items():
    rep = maximal_elementary_quotients(c.group, c.cocycle, context=c)
    kinds = sorted({gq.abelian_invariants(Q) for Q in rep.quotient_groups})
    print(
        f"\n{name}: {len(rep.maximal_normals)} maximal elementary quotients, "
        f"types {kinds}, unique class: {rep.unique_maximal_class}"
    )
