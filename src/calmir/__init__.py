"""Casimir pressure between planar multilayer magnetodielectric mirrors.

Dimensionless units throughout: frequencies over a reference Omega, lengths
in c/Omega, temperature tau = k_B T/(hbar Omega), pressures as F d^3 in
units of hbar Omega.
"""

from .errors import ConvergenceError, ScenarioError, UnsupportedConfigurationError
from .materials import (
    Kind,
    PERFECT_ELECTRIC,
    PERFECT_MAGNETIC,
    ResponseModel,
    VACUUM,
    epsilon_i,
    mu_i,
)
from .reflection import (
    Kinematics,
    Layer,
    MirrorStack,
    Pol,
    fresnel,
    kappa_in_medium,
    stack_reflection,
)
from .lifshitz import (
    ForceResult,
    QuadratureConfig,
    bound_envelope,
    force_finite_T,
    force_sweep,
    force_zero_T,
    integrand,
    matsubara_xi,
)
from .asymptotics import (
    AsymptoticReport,
    Regime,
    build_report,
    hamaker_c3,
    ideal_limits,
    matched_media_force,
    nonretarded_R,
    polylog2,
    polylog3,
    thermal_wavelength,
    upper_gamma,
)
from .scenario import Scenario, SweepGrid, parse, serialize
from .presets import PRESET_NAMES, preset, preset_scenario

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError",
    "ScenarioError",
    "UnsupportedConfigurationError",
    "Kind",
    "ResponseModel",
    "VACUUM",
    "PERFECT_ELECTRIC",
    "PERFECT_MAGNETIC",
    "epsilon_i",
    "mu_i",
    "Kinematics",
    "Layer",
    "MirrorStack",
    "Pol",
    "fresnel",
    "kappa_in_medium",
    "stack_reflection",
    "ForceResult",
    "QuadratureConfig",
    "bound_envelope",
    "force_finite_T",
    "force_sweep",
    "force_zero_T",
    "integrand",
    "matsubara_xi",
    "AsymptoticReport",
    "Regime",
    "build_report",
    "hamaker_c3",
    "ideal_limits",
    "matched_media_force",
    "nonretarded_R",
    "polylog2",
    "polylog3",
    "thermal_wavelength",
    "upper_gamma",
    "Scenario",
    "SweepGrid",
    "parse",
    "serialize",
    "PRESET_NAMES",
    "preset",
    "preset_scenario",
    "__version__",
]
