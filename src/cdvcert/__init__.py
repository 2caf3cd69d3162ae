"""Exact-arithmetic certificates for spectral lower bounds on graph invariants.

The package certifies facts about discrete Schrodinger operators on graphs
without any floating point: scalars live in Q or a real quadratic extension
Q[sqrt(d)], and every verdict (inertia, corank, transversality rank) is the
result of exact elimination.
"""

from .exactfield import (
    MixedRadicals,
    ParseError,
    QuadScalar,
    parse_scalar,
)
from .exactlinalg import (
    ExactMatrix,
    Inertia,
    IntPolynomial,
    charpoly,
    inertia_symmetric,
    kernel_basis,
    poly_expand_product,
)
from .groups import (
    CosetTable,
    Presentation,
    coset_enumerate,
    element_order,
    gamma10,
    left_action,
    parse_presentation,
)
from .maps import (
    CombinatorialMap,
    SimpleGraph,
    build_map_from_cosets,
    counterexample_range,
    genus10_map,
    heawood_gamma,
    map_report,
)
from .cdvcore import (
    SapCertificate,
    SchrodingerOperator,
    build_bipartite_operator,
    build_operator,
    build_sap_witness,
    build_shift_operator,
    check_membership,
    check_sap,
    complete_bipartite,
    verify_sap_witness,
)

__version__ = "0.1.0"

__all__ = [
    "MixedRadicals",
    "ParseError",
    "QuadScalar",
    "parse_scalar",
    "ExactMatrix",
    "Inertia",
    "IntPolynomial",
    "charpoly",
    "inertia_symmetric",
    "kernel_basis",
    "poly_expand_product",
    "CosetTable",
    "Presentation",
    "coset_enumerate",
    "element_order",
    "gamma10",
    "left_action",
    "parse_presentation",
    "CombinatorialMap",
    "SimpleGraph",
    "build_map_from_cosets",
    "counterexample_range",
    "genus10_map",
    "heawood_gamma",
    "map_report",
    "SapCertificate",
    "SchrodingerOperator",
    "build_bipartite_operator",
    "build_operator",
    "build_sap_witness",
    "build_shift_operator",
    "check_membership",
    "check_sap",
    "complete_bipartite",
    "verify_sap_witness",
    "__version__",
]
