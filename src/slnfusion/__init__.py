"""Exact tensor-product, polytope, and fusion-product computations for sl_n."""

from .typea import (
    Root,
    Weight,
    dominant_weight_multiplicities,
    pairing,
    positive_roots,
    root_as_weight,
    weight_multiplicities,
    weyl_dim,
    weyl_orbit,
)
from .tensor import (
    DecompositionMap,
    lr_coefficients,
    schur_positive,
)
from .dyck import (
    BoundVector,
    DyckPath,
    LatticePoint,
    bounds_from_pair,
    bounds_from_weight,
    dominant_points,
    dyck_paths,
    inequalities,
    lattice_points,
)
from .cases import (
    CaseReport,
    is_much_greater,
    large_case_mults,
    pieri_column,
    pieri_row,
    proven_regime,
    rect_hw_points,
    rect_mults_formula,
    sl2_mults,
    verify_case,
)
from .fusion import (
    DimensionCapError,
    ExplicitModule,
    GradedDecomposition,
    build_irrep,
    fusion_graded,
    peel_character,
)
from .poset import (
    PosetReport,
    WeightPair,
    WeylModulePrediction,
    enumerate_pairs,
    maximal_pair,
    order_leq,
    poset_report,
    weyl_character_prediction,
)
from .suite import CheckResult, run_all
from . import fusion, tensor, typea

__version__ = "0.1.0"


def cache_info() -> dict[str, dict[str, int]]:
    """Hits, misses and current size of each weight-keyed cache, by the name
    of the cached function.  The caches are unbounded and live for the
    process; this reads them and changes nothing."""
    caches = (
        fusion._build_irrep,
        tensor._lr_cached,
        typea._orbit_parts,
        typea._weyl_dim_parts,
        typea._dominant_mults_by_parts,
    )
    return {
        f.__name__: {"hits": i.hits, "misses": i.misses, "currsize": i.currsize}
        for f in caches
        for i in (f.cache_info(),)
    }


__all__ = [
    "BoundVector",
    "CaseReport",
    "CheckResult",
    "DecompositionMap",
    "DimensionCapError",
    "DyckPath",
    "ExplicitModule",
    "GradedDecomposition",
    "LatticePoint",
    "PosetReport",
    "Root",
    "Weight",
    "WeightPair",
    "WeylModulePrediction",
    "bounds_from_pair",
    "bounds_from_weight",
    "build_irrep",
    "cache_info",
    "dominant_points",
    "dominant_weight_multiplicities",
    "dyck_paths",
    "enumerate_pairs",
    "fusion_graded",
    "inequalities",
    "is_much_greater",
    "large_case_mults",
    "lattice_points",
    "lr_coefficients",
    "maximal_pair",
    "order_leq",
    "pairing",
    "peel_character",
    "pieri_column",
    "pieri_row",
    "poset_report",
    "positive_roots",
    "proven_regime",
    "rect_hw_points",
    "rect_mults_formula",
    "root_as_weight",
    "run_all",
    "schur_positive",
    "sl2_mults",
    "verify_case",
    "weight_multiplicities",
    "weyl_character_prediction",
    "weyl_dim",
    "weyl_orbit",
]
