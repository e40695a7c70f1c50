"""Exact computation of G-relations, regulator constants of integral group
lattices, factorisability data, and factor-equivalence criteria for unit
lattices.

Everything is computed over the integers and rationals with no floating
point anywhere; all decisions are exact equalities.
"""

from .checker import (
    ArithmeticProfile,
    ClassData,
    Verdict,
    bouc_condition_check,
    brauer_kuroda_check,
    brauer_kuroda_residual,
    minkowski_factor_check,
    p_part_factor_check,
    unit_regulator_constant,
)
from .errors import (
    DataError,
    FactoreqError,
    ParseError,
    ResourceError,
    ValidationError,
)
from .factorisable import (
    Division,
    SubgroupFunction,
    abelian_characters,
    character_kernel,
    division_transform,
    divisions,
    factorisable_quotient,
    function_from_character_data,
    is_factorisable_abelian,
)
from .groups import (
    Group,
    SubgroupClass,
    Subquotient,
    cyclic_group,
    dihedral_group,
    direct_product,
    elementary_abelian_group,
    group_from_generators,
    heisenberg_group,
    make_subquotient,
    quaternion_group,
    quotient_group,
    semidirect_product,
    subgroup_as_group,
    subgroup_generators,
)
from .lattices import (
    GLattice,
    Pairing,
    RegulatorValue,
    augmentation_lattice,
    averaged_pairing,
    coset_lattice,
    cyclic_quotient_lattice,
    direct_sum,
    fixed_sublattice,
    index_ratio_check,
    inflate_lattice,
    regular_lattice,
    regulator_constant,
    restrict_lattice,
    tower_lattice,
    tower_target_constant,
    trivial_lattice,
)
from .relations import (
    CharacterVector,
    GRelation,
    bouc_generators,
    induce_inflate,
    induce_relation,
    is_relation,
    permutation_character,
    relation_basis,
    relation_span_basis,
    spans_match,
    spans_relation_lattice,
)

__version__ = "0.1.0"
