"""Exact-rational divisor calculus and positivity certificates for moduli
of pointed rational curves and of pointed degree-1 stable maps to the line."""

from .combinat import (
    FourPartition,
    PartitionShape,
    Subset,
    canonical_key,
    enumerate_four_partitions,
    enumerate_shapes,
)
from .kmaps import (
    BoundaryCombo,
    ChsDecision,
    KDivisor,
    beta_degrees,
    boundary_keys,
    canonical_class,
    chs_ample,
    pullback_alpha,
    pullback_beta,
)
from .logfano import (
    Bounds,
    FeasibilityResult,
    LinearForm,
    SearchOutcome,
    WitnessReport,
    WitnessVerdict,
    generate_constraints,
    search_witness,
    solve_feasibility,
    verify_witness,
)
from .mcurves import (
    FULTON_MAX_MARKINGS,
    AmpDecision,
    FValue,
    MDivisor,
    Verdict,
    f_curve_value,
    f_positivity,
)
from .rationals import as_rational, parse_rational
from .strata import DivisorCorrespondence, phi_divisor_map

__all__ = [
    "AmpDecision",
    "BoundaryCombo",
    "Bounds",
    "ChsDecision",
    "DivisorCorrespondence",
    "FULTON_MAX_MARKINGS",
    "FValue",
    "FeasibilityResult",
    "FourPartition",
    "KDivisor",
    "LinearForm",
    "MDivisor",
    "PartitionShape",
    "SearchOutcome",
    "Subset",
    "Verdict",
    "WitnessReport",
    "WitnessVerdict",
    "as_rational",
    "beta_degrees",
    "boundary_keys",
    "canonical_class",
    "canonical_key",
    "chs_ample",
    "enumerate_four_partitions",
    "enumerate_shapes",
    "f_curve_value",
    "f_positivity",
    "generate_constraints",
    "parse_rational",
    "phi_divisor_map",
    "pullback_alpha",
    "pullback_beta",
    "search_witness",
    "solve_feasibility",
    "verify_witness",
]

__version__ = "0.1.0"
