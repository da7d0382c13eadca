"""Finite right near-ring workbench.

Construct finite near-rings from Cayley tables, classify their elements
(regular, unit-regular, strongly regular, left morphic, with witnesses),
and check a catalog of structural theorems on concrete instances.
"""

from .core import (
    AxiomViolation,
    CapExceeded,
    FiniteGroup,
    InvariantError,
    NearRing,
    NearRingFlags,
    TableFormatError,
    build_extension,
    build_M0,
    build_product,
    emit_table,
    from_document,
    load_nearring,
    parse_table,
    to_document,
    validate_group,
    validate_nearring,
)
from .catalog import builtin, catalog_names, default_corpus
from .nmodules import (
    IdealVerdict,
    NModule,
    annihilator,
    enumerate_left_ideals,
    hom_from_cyclic_generator,
    is_ideal,
    is_N_ideal,
    modules_isomorphic,
    orbit,
    quotient_module,
    regular_representation,
    validate_module,
)
from .classify import (
    ElementProfile,
    MorphicVerdict,
    NonUnitalError,
    StructureProfile,
    all_element_profiles,
    class_verdict,
    element_profile,
    is_left_morphic,
    structure_profile,
    units,
)
from .theorems import (
    SuiteReport,
    TheoremReport,
    check,
    run_suite,
    theorem_catalog,
)

__all__ = [
    "AxiomViolation", "CapExceeded", "FiniteGroup", "InvariantError", "NearRing",
    "NearRingFlags",
    "TableFormatError", "build_extension", "build_M0", "build_product",
    "emit_table", "from_document", "load_nearring", "parse_table", "to_document",
    "validate_group", "validate_nearring",
    "builtin", "catalog_names", "default_corpus",
    "IdealVerdict", "NModule", "annihilator", "enumerate_left_ideals",
    "hom_from_cyclic_generator", "is_ideal", "is_N_ideal", "modules_isomorphic",
    "orbit", "quotient_module", "regular_representation", "validate_module",
    "ElementProfile", "MorphicVerdict", "NonUnitalError", "StructureProfile",
    "all_element_profiles", "class_verdict", "element_profile", "is_left_morphic",
    "structure_profile", "units",
    "SuiteReport", "TheoremReport", "check", "run_suite", "theorem_catalog",
]
