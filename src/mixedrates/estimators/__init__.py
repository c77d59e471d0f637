"""Finite-sample estimators: bridge-penalized regression, shortest-half
interval, and two-cluster k-means."""

from .lasso import (
    DesignError,
    LassoConfig,
    LassoFit,
    check_bridge_params,
    fit_bridge_lasso,
    fit_bridge_lasso_block,
    generate_lasso_design,
    generate_lasso_designs,
    minimizer_box,
)
from .shorth import (
    ShorthFit,
    ShorthPopulation,
    fit_shorth,
    fit_shorth_sorted,
    shorth_population,
)
from .kmeans import (
    INIT_CENTERS,
    KmeansCoords,
    KmeansGlobalResult,
    KmeansWorkspace,
    centers_from_coords,
    fit_kmeans2,
    fit_kmeans2_global,
    within_ss,
)

__all__ = [
    "DesignError",
    "LassoConfig",
    "LassoFit",
    "check_bridge_params",
    "fit_bridge_lasso",
    "fit_bridge_lasso_block",
    "generate_lasso_design",
    "generate_lasso_designs",
    "minimizer_box",
    "ShorthFit",
    "ShorthPopulation",
    "fit_shorth",
    "fit_shorth_sorted",
    "shorth_population",
    "INIT_CENTERS",
    "KmeansCoords",
    "KmeansGlobalResult",
    "KmeansWorkspace",
    "centers_from_coords",
    "fit_kmeans2",
    "fit_kmeans2_global",
    "within_ss",
]
