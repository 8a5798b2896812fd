"""Spectral solvers and regularity probes for planar Beltrami-type
equations on a flat torus.

Fields are represented as c*z + d*conj(z) + P with P periodic; all
singular-integral machinery is realized as exact Fourier multipliers on
the periodic part, which removes boundary-truncation error and makes the
contraction solvers' convergence rates match their operator-norm bounds.
"""

import os
import sys
# numpy's OpenBLAS reads this variable once, as it loads, to size a worker
# pool beltrami never calls (0.06-0.14 s of CPU per process); a caller's value wins.
if "numpy" not in sys.modules and "OPENBLAS_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

from .grid import (
    DerivedPair,
    GridField,
    GridSpec,
    lp_norm,
    read_field,
    write_field,
    z_grid,
    zero_field,
)
from .operators import (
    antiderivative_zbar,
    beurling,
    derivative_pair,
    resample,
)
from .fixedpoint import SolveReport
from .constant_coefficient import (
    CCParams,
    ChangeOfVars,
    cc_residual,
    compute_mu_nu,
    mu_nu_printed_formula,
    reduction_residual,
    solve_cc_changevar,
    solve_cc_neumann,
    verify_transform,
)
from .autonomous import (
    AutonomousMap,
    abs_map,
    linear_map,
    residual,
    smooth_saturating_map,
    solve_autonomous,
)
from .fullnonlinear import (
    ConditionReport,
    FullMap,
    FullStructure,
    check_conditions,
    fit_bound_constants,
    from_autonomous,
    solve_full,
)
from .analysis import (
    CoefficientFields,
    DistortionStats,
    GradientCheckResult,
    HodographResult,
    RegularityReport,
    directional_derivative_fields,
    directional_family_max_distortion,
    distortion_stats,
    gradient_equation_check,
    hodograph_check,
    recover_coefficients,
    second_order_probe,
    sobolev_probe,
)
from .synth import (
    radial_extremal_field,
    radial_extremal_pair,
    random_trig_field,
    random_waves,
    trig_field,
)

__version__ = "0.2.0"
