"""Quotient gradings of twisted group algebras at desk scale.

The package computes, for a finite group G with a root-of-unity valued
2-cocycle and a normal subgroup N, the decomposition of the quotient grading
of the twisted group algebra into simply-graded summands (inertia groups,
transversals, obstruction cocycles), recognizes elementary and
elementary-crossed-product quotients via isotropic and Lagrangian subgroups,
and verifies the free-product pull-back presentations behind the intrinsic
fundamental groups of the diagonal algebras of ranks 4 and 5.
"""

from types import ModuleType as _ModuleType

from .cocycles import (
    Bicharacter,
    CocycleTable,
    OneCochain,
    bicharacter_of,
    coboundary,
    cohomologous,
    is_cohomologically_trivial,
    standard_nondegenerate,
)
from .gradings import (
    Character,
    GradingClassDescriptor,
    Summand,
    coset_masses,
    descriptor_dims,
    induced_dims,
    is_connected,
    is_elementary,
    is_elementary_crossed_product,
    is_equidimensional_induced,
)
from .groups import (
    CosetSpace,
    FiniteGroup,
    GroupHom,
    IsomorphismResult,
    Subgroup,
    abelian_invariants,
    are_isomorphic,
    center,
    coset_space,
    cyclic,
    dihedral,
    direct_product,
    generated_subgroup,
    homomorphisms,
    is_homocyclic_squarefree,
    make_group,
    normal_subgroups,
    quaternion8,
    quotient,
    subgroups,
    symmetric,
    trivial_group,
)
from .lagrangians import (
    IYBWitness,
    crossed_product_iff_lagrangian,
    is_isotropic,
    iyb_witness_search,
    lagrangian_quotient_is_iyb,
    lagrangian_scan,
    maximal_elementary_quotients,
)
from .mackey import (
    MackeyContext,
    MackeyDecomposition,
    MackeyOrbit,
    is_ecp_quotient,
    is_elementary_quotient,
    is_simple_quotient,
    mackey_decompose,
)
from .pullbacks import (
    maximal_gradings_diagonal,
    pi1_report,
    verify_presentation_h4,
    verify_presentation_h5,
)
from .twisted import BlockOracle, IrrPoint, TwistedAlgebra, WedderburnData, is_nondegenerate
from .words import FreeProductGroup, Word

# the imports above also bind each submodule (``mackey``, ``twisted``, ...) here; leave those out
__all__ = [name for name in dir() if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)]
