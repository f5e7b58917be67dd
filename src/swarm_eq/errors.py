"""Exception types raised by the swarm_eq library."""


class SwarmEqError(Exception):
    """Base class for all swarm_eq errors."""


class SingularEvaluation(SwarmEqError):
    """Kernel gradient requested at (or too close to) the origin."""


class CoexistenceSingular(SwarmEqError):
    """Coexistence densities undefined: self- and cross-repulsion coincide."""


class DegenerateMassRatio(SwarmEqError):
    """Operation requires M1 != M2 (formula divides by quantities vanishing at M = 1)."""


class SampleOutsideSupport(SwarmEqError):
    """Sample radius lies outside the support of both species."""


class UnsupportedKind(SwarmEqError):
    """No closed-form profile is available for the requested configuration."""


class QuadratureNonConvergence(SwarmEqError):
    """Adaptive quadrature failed to reach the requested tolerance."""


class FOutOfRange(SwarmEqError):
    """Non-minimizer boundary function left the admissible interval (1/M, M)."""


class ConstraintViolated(SwarmEqError):
    """Perturbation violates the zero-mass or zero-joint-moment constraints."""


class EquilibriumMissing(SwarmEqError):
    """Requested operation needs an equilibrium that does not exist at these parameters."""


class NonFiniteResult(SwarmEqError):
    """A closed form overflowed to inf or nan at finite, valid parameters."""


class ZeroMode(SwarmEqError):
    """Contour integral undefined for Fourier index mu = 0."""


class NearSingularAlpha(SwarmEqError):
    """Radius ratio too close to 1 for the alpha != 1 contour formula."""


class SpectrumMismatch(SwarmEqError):
    """Eigensolver and closed-form polynomial roots disagree beyond tolerance."""


class ParticleCollision(SwarmEqError):
    """Two particles came closer than the minimum admissible distance."""


class StepUnderflow(SwarmEqError):
    """Adaptive time step shrank below the hard lower limit."""


class InvariantViolated(SwarmEqError):
    """A particle run raised its energy or moved its centre of mass beyond rounding."""


class TooFewParticles(SwarmEqError):
    """Not enough particles per species for a robust morphology estimate."""


class OutOfRange(SwarmEqError):
    """Argument outside the interval on which the relation is defined."""


class BracketingFailure(SwarmEqError):
    """Root bracket invalid: the sampled map is not monotone on the interval."""
