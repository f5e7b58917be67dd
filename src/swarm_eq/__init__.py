"""Equilibria, stability, and dynamics of a two-species aggregation model.

Kernels combine Newtonian (logarithmic) repulsion with quadratic attraction,
so steady states are piecewise-constant on disks and annuli.  The package
constructs them exactly, tests energy minimality, computes boundary-mode
stability spectra, integrates the interacting particle system, and solves the
weak-coupling species-separation relations.
"""

__version__ = "0.1.0"

from .equilibria import EquilibriumConfig, EquilibriumKind, build_equilibrium, velocity_residual
from .errors import SwarmEqError
from .linear_stability import (
    ModeSpectrum,
    StabilityReport,
    build_Q,
    mode_spectrum,
    region_Um,
    stability_report,
)
from .model import (
    DensityQuadruple,
    InteractionParams,
    PhasePoint,
    RegionId,
    classify_region,
    equilibrium_densities,
    kernel_grad_cross,
    kernel_grad_self,
    to_phase_point,
)
from .particles import (
    ParticleState,
    RunDiagnostics,
    forces,
    init_from_equilibrium,
    init_random_disk,
    morphology,
    run,
    step,
)
from .variational import (
    LambdaProfile,
    MinimizerVerdict,
    lambda_profile,
    lambda_quadrature_oracle,
    minimizer_verdict,
    second_variation,
    target_nonminimizer_boundary,
)
from .weak_cross import SeparationSolution, ab_ratio_of_d, curve_sample, d_of_ab_ratio

__all__ = [
    "__version__",
    "DensityQuadruple",
    "EquilibriumConfig",
    "EquilibriumKind",
    "InteractionParams",
    "LambdaProfile",
    "MinimizerVerdict",
    "ModeSpectrum",
    "ParticleState",
    "PhasePoint",
    "RegionId",
    "RunDiagnostics",
    "SeparationSolution",
    "StabilityReport",
    "SwarmEqError",
    "ab_ratio_of_d",
    "build_Q",
    "build_equilibrium",
    "classify_region",
    "curve_sample",
    "d_of_ab_ratio",
    "equilibrium_densities",
    "forces",
    "init_from_equilibrium",
    "init_random_disk",
    "kernel_grad_cross",
    "kernel_grad_self",
    "lambda_profile",
    "lambda_quadrature_oracle",
    "minimizer_verdict",
    "mode_spectrum",
    "morphology",
    "region_Um",
    "run",
    "second_variation",
    "stability_report",
    "step",
    "to_phase_point",
    "velocity_residual",
]
