"""Model parameters, interaction kernels, phase plane, and admissible equilibrium densities.

The two species interact through logarithmic (Newtonian, in 2D) repulsion and
quadratic attraction:

    K_self(x)  = -a_s ln|x| + (b_s/2) |x|^2
    K_cross(x) = -a_c ln|x| + (b_c/2) |x|^2

with the cross kernel optionally rescaled by a weak-coupling factor eta.
Everything downstream is controlled by the dimensionless ratios
A = eta*a_c/a_s, B = eta*b_c/b_s and M = M1/M2, which partition the (A, B)
plane into six open regions D1..D6 separated by the diagonal B = A and the
reciprocal curves A = c1(B) and A = c2(B) = 1/c1(B).

``region_tag_grid`` is the one implementation of that partition, over numpy
arrays: ``classify_region`` reads the tag of one point from it and
``region_code_grid`` folds its four boundary tags into one code for sweeps.
``target_geometry`` likewise holds the only copy of the target radii and the
single-species densities, and ``attraction_weights`` of the mass-weighted
attraction sums they are built from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import CoexistenceSingular, SingularEvaluation

#: Default relative tolerance of the region-boundary band.
TAU_REGION = 1e-9

#: Region code of every boundary tag in ``region_code_grid``; the open region D_k has code k.
BOUNDARY = 0

#: Pairwise distances below this (absolute, in length units) are treated as singular.
DELTA_MIN = 1e-12

#: Relative threshold under which a_s^2 - (eta*a_c)^2 counts as zero.
COEXIST_SINGULAR_RTOL = 1e-13


@dataclass(frozen=True)
class InteractionParams:
    """Physical coefficients of the two-species model.

    a_s, a_c are the self/cross repulsion strengths, b_s, b_c the self/cross
    attraction strengths, M1 >= M2 > 0 the species masses, and eta in (0, 1]
    a scale factor applied to the cross kernel (1 = full-strength coupling).
    """

    a_s: float
    a_c: float
    b_s: float
    b_c: float
    M1: float
    M2: float
    eta: float = 1.0

    def __post_init__(self):
        for name in ("a_s", "a_c", "b_s", "b_c", "M1", "M2"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        if not (0.0 < self.eta <= 1.0):
            raise ValueError(f"eta must lie in (0, 1], got {self.eta}")
        if self.M1 < self.M2:
            raise ValueError(
                f"M1 must be >= M2 (mass-ratio convention M >= 1); got M1={self.M1}, M2={self.M2}"
            )

    @property
    def ac_eff(self) -> float:
        """Cross repulsion after eta scaling."""
        return self.eta * self.a_c

    @property
    def bc_eff(self) -> float:
        """Cross attraction after eta scaling."""
        return self.eta * self.b_c


@dataclass(frozen=True)
class PhasePoint:
    """Dimensionless coordinates (A, B, M) of a parameter set."""

    A: float
    B: float
    M: float

    def __post_init__(self):
        if not (0.0 < self.A < math.inf and 0.0 < self.B < math.inf):
            raise ValueError(f"A and B must be finite and > 0, got A={self.A}, B={self.B}")
        if not 1.0 <= self.M < math.inf:
            raise ValueError(f"M must be finite and >= 1, got {self.M}")


class RegionId(str, Enum):
    """Phase-plane region of a point, or the boundary curve it sits on."""

    D1 = "D1"
    D2 = "D2"
    D3 = "D3"
    D4 = "D4"
    D5 = "D5"
    D6 = "D6"
    BOUNDARY_DIAGONAL = "BoundaryDiagonal"
    BOUNDARY_C1 = "BoundaryC1"
    BOUNDARY_C2 = "BoundaryC2"
    TRIPLE_POINT = "TriplePoint"

    @property
    def is_boundary(self) -> bool:
        return self in (
            RegionId.BOUNDARY_DIAGONAL,
            RegionId.BOUNDARY_C1,
            RegionId.BOUNDARY_C2,
            RegionId.TRIPLE_POINT,
        )

    @property
    def code(self) -> int:
        """Code in ``region_code_grid``: k for D_k, ``BOUNDARY`` for every boundary tag."""
        return BOUNDARY if self.is_boundary else int(self.value[1:])


#: Every region tag; ``region_tag_grid`` returns positions in this tuple.
REGION_TAGS = tuple(RegionId)
_D1, _D2, _D3, _D4, _D5, _D6, _DIAG, _C1, _C2, _TRIPLE = range(len(REGION_TAGS))

_TAG_CODES = np.array([t.code for t in REGION_TAGS], dtype=np.int8)


@dataclass(frozen=True)
class DensityQuadruple:
    """The four admissible (rho1, rho2) pairs of a piecewise-constant steady state.

    ``outside`` is (0, 0), ``only2``/``only1`` hold where a single species is
    present, and ``coexist`` where the supports overlap.  Densities are mass
    per unit area; cross coefficients enter eta-scaled.
    """

    outside: tuple[float, float]
    only2: tuple[float, float]
    only1: tuple[float, float]
    coexist: tuple[float, float]


def curve_c1(B, M):
    """A-coordinate of the c1 boundary curve at attraction ratio B."""
    return (1.0 + M * B) / (B + M)


def curve_c2(B, M):
    """A-coordinate of the c2 boundary curve at attraction ratio B (reciprocal of c1)."""
    return (B + M) / (1.0 + M * B)


def to_phase_point(p: InteractionParams) -> PhasePoint:
    """Reduce physical coefficients to the dimensionless phase point (A, B, M)."""
    return PhasePoint(A=p.ac_eff / p.a_s, B=p.bc_eff / p.b_s, M=p.M1 / p.M2)


def region_tag_grid(A, B, M, tau_region: float = TAU_REGION) -> np.ndarray:
    """Region tag of each (A, B), for floats or broadcastable arrays, as positions in ``REGION_TAGS``.

    This is the one implementation of the phase-plane partition.  A point
    within ``tau_region`` (relative) of a boundary curve is reported as that
    boundary, never silently assigned to a neighboring open region; near
    (1, 1), where all three curves intersect, it is the triple point.  For
    M = 1 the curves c1 and c2 coincide on the line A = 1 and matches are
    reported as BoundaryC1.
    """
    c1 = curve_c1(B, M)
    c2 = curve_c2(B, M)
    # builtin abs and operators, so scalar inputs stay cheap numpy scalars
    band = tau_region * np.maximum(1.0, np.maximum(abs(A), abs(B)))
    near_diag = abs(A - B) <= band
    near_c1 = abs(A - c1) <= band
    near_c2 = abs(A - c2) <= band
    # distinct curves only cross at (1, 1)
    triple = (near_c1 & near_c2 & (M - 1.0 > band)) | (near_diag & (near_c1 | near_c2))

    tag = np.where(
        B < A,
        np.where(A < c1, _D1, np.where(A < c2, _D2, _D3)),
        np.where(A > c1, _D4, np.where(A > c2, _D5, _D6)),
    )
    tag = np.where(near_c2, _C2, tag)
    tag = np.where(near_c1, _C1, tag)
    tag = np.where(near_diag, _DIAG, tag)
    return np.where(triple, _TRIPLE, tag).astype(np.int8)


def classify_region(q: PhasePoint, tau_region: float = TAU_REGION) -> RegionId:
    """Classify a phase point into D1..D6 or a boundary tag (see ``region_tag_grid``)."""
    return REGION_TAGS[int(region_tag_grid(q.A, q.B, q.M, tau_region))]


def region_code_grid(A, B, M: float) -> np.ndarray:
    """Region codes of each (A, B): k in D_k and ``BOUNDARY`` for all four boundary tags."""
    return _TAG_CODES[region_tag_grid(A, B, M)]


def attraction_weights(b_s, b_c, M1, M2):
    """Mass-weighted attraction sums (b_s M1 + b_c M2, b_c M1 + b_s M2): pi a_s times rho1, rho2 of ``target_geometry``."""
    return b_s * M1 + b_c * M2, b_c * M1 + b_s * M2


def target_geometry(a_s, a_c, b_s, b_c, M1, M2):
    """Squared radii (r2^2, r1^2, r0^2) and densities (rho1, rho2) of the light-inside target.

    Species 2 fills the disk of radius r2 at density rho2 and species 1 the
    annulus r1 <= |x| <= r0 at density rho1; these are also the densities of
    either species where it is alone.  Cross coefficients enter eta-scaled.
    Plain arithmetic, so floats or broadcastable arrays work alike; the
    heavy-inside target is the same call with M1 and M2 swapped.
    """
    w1, w2 = attraction_weights(b_s, b_c, M1, M2)
    r2sq = a_s * M2 / w2
    r1sq = a_c * M2 / w1
    r0sq = (a_s * M1 + a_c * M2) / w1
    rho1 = w1 / (math.pi * a_s)
    rho2 = w2 / (math.pi * a_s)
    return r2sq, r1sq, r0sq, rho1, rho2


def _density_quadruple(a_s, a_c, b_s, b_c, M1, M2) -> DensityQuadruple:
    *_, rho1, rho2 = target_geometry(a_s, a_c, b_s, b_c, M1, M2)
    only2 = (0.0, rho2)
    only1 = (rho1, 0.0)
    denom = a_s * a_s - a_c * a_c
    if abs(denom) < COEXIST_SINGULAR_RTOL * max(a_s * a_s, a_c * a_c):
        raise CoexistenceSingular(
            f"a_s^2 - (eta*a_c)^2 is numerically zero (a_s={a_s}, eta*a_c={a_c})"
        )
    coexist = (
        ((a_s * b_s - a_c * b_c) * M1 + (a_s * b_c - a_c * b_s) * M2) / (math.pi * denom),
        ((a_s * b_c - a_c * b_s) * M1 + (a_s * b_s - a_c * b_c) * M2) / (math.pi * denom),
    )
    return DensityQuadruple(outside=(0.0, 0.0), only2=only2, only1=only1, coexist=coexist)


def equilibrium_densities(p: InteractionParams) -> DensityQuadruple:
    """Admissible steady-state density values for these parameters.

    Raises CoexistenceSingular when the coexistence pair is undefined
    (self- and effective cross-repulsion coincide).
    """
    return _density_quadruple(p.a_s, p.ac_eff, p.b_s, p.bc_eff, p.M1, p.M2)


def _kernel_grad(a: float, b: float, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    r2 = float(x[0] * x[0] + x[1] * x[1])
    if r2 < DELTA_MIN * DELTA_MIN:
        raise SingularEvaluation(f"kernel gradient at |x| = {math.sqrt(r2):.3e} < {DELTA_MIN}")
    return -a * x / r2 + b * x


def kernel_grad_self(p: InteractionParams, x) -> np.ndarray:
    """Gradient of the self-interaction kernel at displacement x (2-vector)."""
    return _kernel_grad(p.a_s, p.b_s, x)


def kernel_grad_cross(p: InteractionParams, x) -> np.ndarray:
    """Gradient of the (eta-scaled) cross-interaction kernel at displacement x."""
    return _kernel_grad(p.ac_eff, p.bc_eff, x)
