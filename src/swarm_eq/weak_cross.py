"""Species separation under weak cross-interactions.

When the cross kernel is scaled by a small eta, each species relaxes fast to
a uniform disk of radius R = sqrt(a_s/b_s) and the disks then drift apart on
the slow timescale until the cross forces balance.  The equilibrium
centre-of-mass separation d obeys closed or implicit relations in the single
ratio A/B: full mixing for A/B <= 1, an implicit overlap branch for
1 < A/B < 4, and d/R = sqrt(A/B) for A/B >= 4.  Mass ratios never enter.

The implicit branch rests on one integral over the lens edge of the two
disks, written once in closed form (a power series at small d/R); the tests
hold it to an adaptive-quadrature oracle and to mpmath.  The force balance it
encodes is held to ``cross_condition_residual``, the net cross force between
the two disks as one boundary integral on the periodic trapezoid rule.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .equilibria import _disk_coeffs
from .errors import BracketingFailure, OutOfRange
from .model import InteractionParams
from .quadrature import ORACLE_TOL, periodic_trapezoid

#: Solutions on the implicit branch must satisfy the relation to this residual.
RESIDUAL_TOL = 1e-10

#: Points used by the startup monotonicity scan of the implicit branch.
MONOTONE_SCAN_POINTS = 201

#: The lens edge integral uses its power series below this d/R, where the closed form's
#: relative error grows as 1/r, and the closed form above; both are within 5e-16 at 0.1.
SERIES_BELOW = 0.1

#: Terms of that series; the first one dropped is below 1e-17 at SERIES_BELOW.
SERIES_TERMS = 12


@dataclass(frozen=True)
class SeparationSolution:
    """Separation d/R at a repulsion/attraction ratio A/B, with its regime."""

    ratio_AB: float
    d_over_R: float
    regime: str
    residual: float


def _edge_log_integral(r: float) -> float:
    """Integral of ln(1 + r^2 - 2 r cos t) cos t over the lens edge window |t| <= gamma = acos(r/2).

    By parts, I = -(1 + r^2) gamma/r - 2 sin gamma + (2|1 - r^2|/r) atan((1 + r)/|1 - r| tan(gamma/2)).
    Splitting gamma/2 off the arctangent gives, with q = min(r, 1/r) and u = tan(gamma/2),
    I = -2 q gamma - 2 sin gamma + (2 (1 - q^2)/q) atan(2 q u/((1 - q) + (1 + q) u^2)),
    whose terms are all O(1) and which needs no case at r = 1.  Below ``SERIES_BELOW``,
    where I ~ -pi r, the power series keeps the relative accuracy.
    """
    gamma = math.acos(min(1.0, 0.5 * r))
    if r < SERIES_BELOW:
        # ln(1 + r^2 - 2 r cos t) = -2 sum_n r^n cos(nt)/n, integrated against cos t term by term
        total = 0.0
        for n in range(SERIES_TERMS, 0, -1):
            lower = gamma if n == 1 else math.sin((n - 1) * gamma) / (n - 1)
            total += r**n / n * (lower + math.sin((n + 1) * gamma) / (n + 1))
        return -2.0 * total
    u, q = math.tan(0.5 * gamma), min(r, 1.0 / r)
    atan_term = math.atan(2.0 * q * u / ((1.0 - q) + (1.0 + q) * u * u))
    return -2.0 * q * gamma - 2.0 * math.sin(gamma) + 2.0 * (1.0 - q * q) / q * atan_term


def ab_ratio_of_d(d_over_R: float) -> float:
    """Ratio A/B at which two unit-radius species disks equilibrate at separation d.

    Small branch for d <= R, overlap branch for R < d <= 2R; the two agree at
    the seam.  Raises OutOfRange outside (0, 2].
    """
    r = float(d_over_R)
    if not (0.0 < r <= 2.0):
        raise OutOfRange(f"d/R must lie in (0, 2], got {r}")
    gamma = math.acos(r / 2.0)
    lens = gamma - (r / 4.0) * math.sqrt(4.0 - r * r)
    log_term = _edge_log_integral(r)
    if r <= 1.0:
        denom = math.pi * r + r * lens + 0.5 * log_term
        return math.pi * r / denom
    denom = 1.0 + (r * r / math.pi) * lens + (r / (2.0 * math.pi)) * log_term
    return r * r / denom


@lru_cache(maxsize=1)
def _monotone_scan():
    """Verify (once) that ab_ratio_of_d increases on (0, 2); return the samples."""
    ds = np.linspace(1e-6, 2.0, MONOTONE_SCAN_POINTS)
    vals = np.array([ab_ratio_of_d(d) for d in ds])
    diffs = np.diff(vals)
    if np.any(diffs <= 0.0):
        i = int(np.argmin(diffs))
        raise BracketingFailure(
            f"separation relation not monotone on d/R in [{ds[i]:.6f}, {ds[i+1]:.6f}]"
        )
    return ds, vals


def d_of_ab_ratio(ratio_AB: float) -> SeparationSolution:
    """Equilibrium separation d/R for a given A/B.

    d = 0 exactly for ratios at or below the mixing threshold 1 (the regime
    tag distinguishes below-threshold from at-threshold); the overlap range
    (1, 4) is solved by bracketed root finding on the implicit relation, with
    monotonicity verified by a startup scan; sqrt(A/B) beyond 4.
    """
    ratio = float(ratio_AB)
    if not 0.0 < ratio < math.inf:
        raise OutOfRange(f"A/B must be finite and > 0, got {ratio}")
    if ratio < 1.0:
        return SeparationSolution(ratio, 0.0, "full-mix", 0.0)
    if ratio == 1.0:
        return SeparationSolution(ratio, 0.0, "small", 0.0)
    if ratio >= 4.0:
        d = math.sqrt(ratio)
        return SeparationSolution(ratio, d, "separated" if d > 2.0 else "intermediate", 0.0)
    from scipy.optimize import brentq

    _monotone_scan()
    d = brentq(lambda x: ab_ratio_of_d(x) - ratio, 1e-9, 2.0, xtol=1e-14, rtol=8.9e-16)
    residual = abs(ab_ratio_of_d(d) - ratio)
    if residual > RESIDUAL_TOL:
        raise BracketingFailure(f"root residual {residual:.3e} exceeds {RESIDUAL_TOL}")
    regime = "small" if d <= 1.0 else "intermediate"
    return SeparationSolution(ratio, d, regime, residual)


def curve_sample(ratio_min: float, ratio_max: float, n_points: int) -> list[SeparationSolution]:
    """Sample the separation curve on a ratio range (monotone non-decreasing)."""
    if not (0.0 < ratio_min < ratio_max < math.inf):
        raise OutOfRange("need 0 < ratio_min < ratio_max < inf")
    ratios = np.linspace(ratio_min, ratio_max, int(n_points))
    return [d_of_ab_ratio(r) for r in ratios]


def leading_order_densities(p: InteractionParams):
    """Leading-order steady state for weak coupling: one uniform disk per species.

    Returns ((rho1, R), (rho2, R)) with rho_i = b_s M_i / (pi a_s) and
    R = sqrt(a_s/b_s).  Deviations from the coupled two-species densities are
    O(eta); a warning is issued when eta > 0.1.
    """
    if p.eta > 0.1:
        warnings.warn(
            f"leading-order densities assume weak coupling; eta={p.eta} > 0.1",
            stacklevel=2,
        )
    R = math.sqrt(p.a_s / p.b_s)
    rho1 = p.b_s * p.M1 / (math.pi * p.a_s)
    rho2 = p.b_s * p.M2 / (math.pi * p.a_s)
    return (rho1, R), (rho2, R)


def force_balance_residual(d: float, R: float, a_c: float, b_c: float) -> float:
    """Residual of the dimensional force-balance form of the separation relation.

    Zero exactly when d solves the overlap-branch (or small-branch) relation
    for the given coefficients; used to cross-check the ratio form.
    """
    if not (0.0 < d <= 2.0 * R):
        raise OutOfRange(f"d must lie in (0, 2R], got {d}")
    gamma = math.acos(d / (2.0 * R))
    lens = R * R * gamma - (d / 4.0) * math.sqrt(4.0 * R * R - d * d)
    log_term = _edge_log_integral(d / R)
    out = -a_c * math.pi * d * lens - a_c * math.pi * R**3 * 0.5 * log_term + b_c * math.pi**2 * R**4 * d
    if d > R:
        out += -a_c * math.pi**2 * R**4 / d
    else:
        out += -a_c * math.pi**2 * d * R**2
    return out


def cross_condition_residual(d_over_R: float, ratio_AB: float) -> float:
    """Net cross force between two offset uniform unit disks, by Gauss's theorem.

    Disk 2 sits at (d, 0) and acts on disk 1 through the cross kernel with
    a_c = ratio_AB and b_c = 1.  The force on disk 1, the integral of
    -grad Phi_2 over it, equals -oint Phi_2 n ds over its boundary, where
    Phi_2 = c0 + c2 rho^2 + cl ln rho is disk 2's potential at distance rho
    from its centre (``equilibria._disk_coeffs``, inside and outside form).
    On the unit circle rho^2 = 1 + d^2 - 2 d cos(theta), so the e1 component
    is the integral of -Phi_2 cos(theta); the e2 component vanishes by
    symmetry.  Phi_2 changes form where the circle crosses disk 2's edge,
    |theta| = gamma = acos(d/2), so the even integrand is split there into
    two arcs, each analytic, both mapped onto one period and summed in one
    rule with nodes clustered at the arcs' ends.  The log is taken on the
    outer arc only, where rho >= 1.
    """
    d, a_c = float(d_over_R), float(ratio_AB)
    gamma = math.acos(min(1.0, 0.5 * d))

    def minus_potential_cos(theta, inside):
        c0, c2, cl = _disk_coeffs(1.0, a_c, 1.0, 1.0, inside)
        rho_sq = (1.0 - d) ** 2 + 4.0 * d * np.sin(0.5 * theta) ** 2
        potential = c0 + c2 * rho_sq + (0.0 if inside else 0.5 * cl * np.log(rho_sq))
        return -potential * np.cos(theta)

    def f(t):
        # 2 (int_0^gamma + int_gamma^pi), each arc mapped from t in [0, 2 pi)
        u = t / (2.0 * math.pi)
        inner = gamma * minus_potential_cos(gamma * u, True)
        outer = (math.pi - gamma) * minus_potential_cos(gamma + (math.pi - gamma) * u, False)
        return (inner + outer) / math.pi

    return float(periodic_trapezoid(f, ORACLE_TOL, cluster_at=0.0))
