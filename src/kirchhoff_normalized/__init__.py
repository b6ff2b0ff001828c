"""Numerical toolkit for normalized solutions of Kirchhoff-type equations.

Radial discretization, threshold constants, ground-state shooting,
Moser-sequence energy bounds, and constrained solvers for

    -M(|grad u|_2^2) Lap u = lambda u + f(u),   |u|_2^2 = c^2  on R^N.
"""

from .radial_grid import (
    RadialGrid,
    RadialFunction,
    make_grid,
    from_nodes,
    fiber_scale,
    normalize_mass,
    read_profile_csv,
    write_profile_csv,
)
from .models import (
    Model,
    affine_coefficient,
    general_coefficient,
    power_nonlinearity,
    make_exp_critical,
    check_hypotheses,
)
from .functional import (
    EnergyBreakdown,
    CriticalPointCandidate,
    energy,
    pohozaev,
    fiber_energy,
    l2_gradient,
    multiplier_estimate,
)
from .gn_ground_state import GroundStateProfile, ground_state, gn_constant, gn_quotient, shoot
from .omega_thresholds import (
    OmegaQuery,
    ThresholdSet,
    omega,
    omega_closed_form,
    sobolev_constant,
    existence_condition,
    nonexistence_c0,
    threshold_set,
)
from .moser_sequence import (
    MoserFunction,
    MoserBoundReport,
    moser,
    make_moser_grid,
    g_fiber,
    mp_bound,
    mp_bound_check,
)
from .constrained_solver import (
    SolveParams,
    SolveReport,
    ClassificationRecord,
    FiberMonotoneError,
    minimize_on_sphere,
    mountain_pass,
    pohozaev_project,
    classify,
    gn_fiber_energy,
    gn_fiber_min,
    gn_fiber_well,
    gn_fiber_barrier,
    recommended_grid,
)

__all__ = [
    "RadialGrid",
    "RadialFunction",
    "make_grid",
    "from_nodes",
    "fiber_scale",
    "normalize_mass",
    "read_profile_csv",
    "write_profile_csv",
    "Model",
    "affine_coefficient",
    "general_coefficient",
    "power_nonlinearity",
    "make_exp_critical",
    "check_hypotheses",
    "EnergyBreakdown",
    "CriticalPointCandidate",
    "energy",
    "pohozaev",
    "fiber_energy",
    "l2_gradient",
    "multiplier_estimate",
    "GroundStateProfile",
    "ground_state",
    "gn_constant",
    "gn_quotient",
    "shoot",
    "OmegaQuery",
    "ThresholdSet",
    "omega",
    "omega_closed_form",
    "sobolev_constant",
    "existence_condition",
    "nonexistence_c0",
    "threshold_set",
    "MoserFunction",
    "MoserBoundReport",
    "moser",
    "make_moser_grid",
    "g_fiber",
    "mp_bound",
    "mp_bound_check",
    "SolveParams",
    "SolveReport",
    "ClassificationRecord",
    "FiberMonotoneError",
    "minimize_on_sphere",
    "mountain_pass",
    "pohozaev_project",
    "classify",
    "gn_fiber_energy",
    "gn_fiber_min",
    "gn_fiber_well",
    "gn_fiber_barrier",
    "recommended_grid",
]

__version__ = "0.1.0"
