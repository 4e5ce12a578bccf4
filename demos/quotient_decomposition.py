"""How a quotient grading of a twisted algebra splits into simple summands.

Coarsening the natural G-grading of C^alpha G by a normal subgroup N gives a
G/N-grading whose simply-graded summands correspond to the orbits of the
irreducible types of C^alpha N under conjugation.  Each orbit carries an
inertia group, a transversal character, and an obstruction cocycle on the
inertia group; the whole decomposition is cross-checked against the block
oracle of the ungraded algebra.
"""

import gquot as gq
from gquot.cocycles import CocycleTable, standard_nondegenerate
from gquot.mackey import is_ecp_quotient, is_elementary_quotient, mackey_decompose


def show(dec, title):
    print(f"\n== {title}")
    print(f"quotient group order {dec.quotient_group.n}, orbits: {len(dec.orbits)}")
    for i, o in enumerate(dec.orbits):
        kind = "trivial" if o.omega_trivial else (
            "non-degenerate" if o.omega_nondegenerate else f"blocks {list(o.omega_blocks)}"
        )
        print(
            f"  orbit {i}: module dim {o.dim}, inertia order {o.inertia.order}, "
            f"transversal {len(o.transversal)}, obstruction {kind}"
        )
    print(f"oracle blocks {list(dec.oracle_dims)} == reconstructed {list(dec.reconstructed_dims)}")
    print(f"elementary: {is_elementary_quotient(dec)}, crossed product over the quotient: {is_ecp_quotient(dec)}")


# The quaternion group over its center: the two central characters are both
# fixed, so there are two summands.  One inherits a trivial obstruction (the
# commutative part C[Q8/Z] = C[C2xC2]), the other a non-degenerate one (the
# 2x2 block), and together they rebuild the block structure 1,1,1,1,2.
Q8 = gq.quaternion8()
show(mackey_decompose(CocycleTable.trivial(Q8), gq.center(Q8), seed=0), "Q8 over its center")

# A non-degenerate class on C2xC2 over an order-2 kernel: the two characters
# of the kernel are swapped, inertia is trivial, and the quotient grading is
# the elementary crossed product of C2 -- the 2x2 matrix units picture.
alpha = standard_nondegenerate([2])
G = alpha.group
show(mackey_decompose(alpha, gq.generated_subgroup(G, [2]), seed=0), "twisted C2xC2 over <x>")

# Order 36: the kernel <(x^3, y^3)> of order 4 carries a non-degenerate
# restriction, so the quotient group of order 9 must again carry a
# non-degenerate obstruction (it is again a central-type group).
alpha66 = standard_nondegenerate([6])
G66 = alpha66.group
N4 = gq.generated_subgroup(G66, [3 * 6 + 0, 0 * 6 + 3])  # <x^3, y^3>
show(mackey_decompose(alpha66, N4, seed=0), "twisted C6xC6 over an order-4 kernel")
