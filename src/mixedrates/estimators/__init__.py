"""Finite-sample estimators: bridge-penalized regression, shortest-half
interval, and two-cluster k-means."""

from .lasso import (
    DesignError,
    LassoConfig,
    LassoFit,
    fit_bridge_lasso,
    generate_lasso_design,
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
    assign_clusters,
    centers_from_coords,
    fit_kmeans2,
    fit_kmeans2_global,
    update_centers,
    within_ss,
)

__all__ = [
    "DesignError",
    "LassoConfig",
    "LassoFit",
    "fit_bridge_lasso",
    "generate_lasso_design",
    "minimizer_box",
    "ShorthFit",
    "ShorthPopulation",
    "fit_shorth",
    "fit_shorth_sorted",
    "shorth_population",
    "INIT_CENTERS",
    "KmeansCoords",
    "KmeansGlobalResult",
    "assign_clusters",
    "centers_from_coords",
    "fit_kmeans2",
    "fit_kmeans2_global",
    "update_centers",
    "within_ss",
]
