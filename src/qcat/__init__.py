"""Q-systems in braided C* tensor categories: axioms, centres, braided
products, full centres, modules, and boundary condition classification."""
from __future__ import annotations

from .category import (
    CategoryData,
    ModularData,
    ValidationReport,
    build_category,
    deligne_product,
    load_category,
    modular_data,
    pair_label,
    validate_category,
)
from .errors import QcatError
from .fixtures import emit_fixture, fixture_category
from .frobenius import (
    AlgebraPresentation,
    AxiomReport,
    QSystem,
    check_commutative,
    check_qsystem,
    ising_q,
    make_special_standard,
    matrix_qsystem,
    qsystem_as_json,
    qsystem_from_json,
    qsystems_equivalent,
    trivial_qsystem_in,
)
from .decompose import (
    ReducedQSystem,
    central_decomposition,
    check_intermediate,
    direct_sum_qsystems,
    irreducible_decomposition,
    reduced_qsystem,
)
from .braided import (
    braided_product,
    canonical_qsystem,
    centre_projections,
    centre_qsystem,
    full_centre,
    z_matrix,
)
from .modules import (
    BoundaryReport,
    Module,
    ModuleReport,
    bimodule_tensor,
    boundary_conditions,
    d_intertwiner,
    decompose_module,
    enumerate_bimodules,
    enumerate_modules,
    free_module,
    morphism_space,
    validate_module,
)
from .morphisms import (
    Morphism,
    ObjectExpr,
    braiding,
    compose,
    hom_basis,
    identity,
    left_trace,
    standard_pair,
    tensor,
    trace,
)

__version__ = "0.1.0"
