"""Pearcey integral evaluation.

P(x, y) = integral_0^inf exp(-t^4 - x t^2) cos(y t) dt for complex x, y,
via a saddle-point asymptotic expansion for large |y| and two independent
quadrature oracles for ground truth.
"""

from .asymptotics import (
    Dominance,
    ExpansionResult,
    Region,
    classify_region,
    normalize,
    pearcey_asymptotic,
    stokes_classification,
)
from .coefficients import (
    build_table,
    moment_coeff,
    moment_coeff_closed,
    series_coeff,
)
from .geometry import phase, saddle_points, tail_decay_rate
from .quadrature import (
    CONTOUR,
    REAL_AXIS,
    ConvergenceError,
    QuadratureConfig,
    pearcey_bar,
    pearcey_quadrature,
    relative_error,
)
from .tables import PRESETS, table_rows

__version__ = "0.1.0"

__all__ = [
    "CONTOUR",
    "REAL_AXIS",
    "ConvergenceError",
    "Dominance",
    "ExpansionResult",
    "PRESETS",
    "QuadratureConfig",
    "Region",
    "build_table",
    "classify_region",
    "moment_coeff",
    "moment_coeff_closed",
    "normalize",
    "pearcey_asymptotic",
    "pearcey_bar",
    "pearcey_quadrature",
    "phase",
    "relative_error",
    "saddle_points",
    "series_coeff",
    "stokes_classification",
    "table_rows",
    "tail_decay_rate",
]
