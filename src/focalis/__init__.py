"""Finite-truncation geometry of isoparametric submanifolds.

Regularized spectral traces, focal radii and parallel shape operators on
joint eigen grids, an explicit product-of-spheres model, matrix-group
transport and holonomy, restricted-root decompositions, and spectral Green
operators, with a CLI front-end (`focalis`).
"""

__version__ = "0.1.0"

from .errors import OracleUndefinedError, SingularOperatorError, ValidationError
from .focal import (FOCAL, EigenGrid, Window, equifocal_check, focal_radii_pair,
                    focal_set, isoparametric_check, jacobi_amplitude,
                    parallel_reg_mean_curvature, parallel_shape_eigenvalue,
                    weakly_isoparametric_check)
from .spectral import (DIVERGENT, SpectralData, TailModel, is_regularizable,
                       reg_trace, trace_square, zeta_trace)

__all__ = [
    "__version__",
    "OracleUndefinedError", "SingularOperatorError", "ValidationError",
    "FOCAL", "EigenGrid", "Window", "equifocal_check",
    "focal_radii_pair", "focal_set", "isoparametric_check",
    "jacobi_amplitude", "parallel_reg_mean_curvature",
    "parallel_shape_eigenvalue", "weakly_isoparametric_check",
    "DIVERGENT", "SpectralData", "TailModel", "is_regularizable", "reg_trace",
    "trace_square", "zeta_trace",
]
