"""First-order integrals over Fourier-perturbed disks, with quadrature oracles.

The perturbed boundary of mode m is  p(theta) = R e^{i theta} (1 +
eps_N cos(m theta) + i eps_T sin(m theta)), written once in
``PerturbedDisk`` over floats or numpy arrays of angles: ``boundary`` gives
p and p' from one evaluation of e^{i theta}, cos(m theta) and sin(m theta)
per node set, which is what the oracles integrate, and ``boundary_point``
gives p alone.  The closed forms here are exact to first order in the eps
amplitudes; each is paired with an oracle that integrates the
defining expression numerically over the true perturbed domain (exact
boundary element, no truncation), so agreement degrades only at O(eps^2).

Every oracle is one call of ``quadrature.periodic_trapezoid`` on an
integrand evaluated over whole arrays of angles: the plain rule for the
smooth area and moment integrands, and nodes clustered at phi = 0 (the
contour integrals) or at the probe's angle (repulsion) where the integrand
has a log singularity or a sharp peak.  The contour and repulsion oracles
ask the rule for ``quadrature.ORACLE_TOL`` absolute or 1e-11 relative.

The first-order repulsion and attraction closed forms are written once, on
Python complex scalars (x = x_1 + i x_2), in ``_repulsion`` and
``_attraction``.  ``repulsion_integral`` and ``attraction_integral`` wrap
them and return geometric results as (x, y) vectors;
``linear_stability.build_Q_from_integrals`` calls the complex core directly.
The circle-harmonic contour integrals, which are genuinely complex-valued,
return complex.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import NearSingularAlpha, ZeroMode
from .quadrature import ORACLE_TOL, periodic_trapezoid

#: Amplitudes above this leave the first-order regime the formulas target.
EPS_MAX = 0.05

#: Radius ratios closer to 1 than this must use the same-circle branch.
ALPHA_GUARD = 1e-6


@dataclass(frozen=True)
class PerturbedDisk:
    """Disk of radius R whose boundary carries a mode-m normal/tangential ripple."""

    R: float
    m: int
    eps_N: float = 0.0
    eps_T: float = 0.0

    def __post_init__(self):
        if self.R <= 0.0:
            raise ValueError(f"R must be > 0, got {self.R}")
        if self.m < 1:
            raise ValueError(f"mode m must be >= 1, got {self.m}")
        if max(abs(self.eps_N), abs(self.eps_T)) > EPS_MAX:
            raise ValueError(
                f"amplitudes must satisfy |eps| <= {EPS_MAX} (first-order regime)"
            )

    def _point(self, theta):
        """R e^{i theta}, cos(m theta), sin(m theta) and the ripple factor of p(theta), each evaluated once."""
        m = self.m
        phase, cos_m, sin_m = self.R * np.exp(1j * theta), np.cos(m * theta), np.sin(m * theta)
        return phase, cos_m, sin_m, 1.0 + self.eps_N * cos_m + 1j * self.eps_T * sin_m

    def boundary_point(self, theta):
        """p(theta) at a float or an array of angles."""
        phase, _, _, radial = self._point(theta)
        return phase * radial

    def boundary(self, theta):
        """(p(theta), p'(theta)) at a float or an array of angles, sharing one evaluation of the angles."""
        m = self.m
        phase, cos_m, sin_m, radial = self._point(theta)
        ripple = -m * self.eps_N * sin_m + 1j * m * self.eps_T * cos_m
        return phase * radial, phase * (1j * radial + ripple)

    def boundary_derivative(self, theta):
        """p'(theta) at a float or an array of angles."""
        return self.boundary(theta)[1]


def _as_vec(z: complex) -> np.ndarray:
    return np.array([z.real, z.imag])


def _attraction(x: complex, disk: PerturbedDisk) -> complex:
    """``attraction_integral`` at the point x = x_1 + i x_2, as a complex number."""
    out = math.pi * disk.R**2 * x
    if disk.m == 1:
        out -= math.pi * disk.R**3 * disk.eps_N
    return out


def _repulsion(probe: PerturbedDisk, domain: PerturbedDisk, phase: complex, cos_m: float, sin_m: float) -> complex:
    """``repulsion_integral`` as a complex number, given e^{i theta0}, cos(m theta0) and sin(m theta0)."""
    rj, rl = probe.R, domain.R
    ejn, ejt = probe.eps_N, probe.eps_T
    eln = domain.eps_N
    if abs(rl - rj) <= ALPHA_GUARD * max(rl, rj):
        return math.pi * rj * phase * (1.0 + (ejn + ejt) * 1j * sin_m)
    # domain inside the probe's circle: beta = rl/rj, power m + 1 and the normal term negated
    inside = rl < rj
    beta, power, sign = (rl / rj, probe.m + 1, -1.0) if inside else (rj / rl, probe.m - 1, 1.0)
    normal = sign * (beta * ejn - beta**power * eln) * cos_m
    return math.pi * rl * phase * (beta + normal + (beta * ejt + beta**power * eln) * 1j * sin_m)


def attraction_integral(x, disk: PerturbedDisk) -> np.ndarray:
    """First-order integral of (x - y) over the perturbed disk, at the point x = (x_1, x_2).

    The area perturbation is second order, so the result is x*pi*R^2 except
    for the mode-1 first-moment shift.
    """
    x1, x2 = np.asarray(x, dtype=float).tolist()
    return _as_vec(_attraction(complex(x1, x2), disk))


def repulsion_integral(probe: PerturbedDisk, theta0: float, domain: PerturbedDisk) -> np.ndarray:
    """First-order Newtonian integral of (x-y)/|x-y|^2 over a perturbed disk.

    The evaluation point is x = probe.boundary_point(theta0); probe and
    domain must carry the same mode.  The three branches (domain strictly
    inside, same circle, strictly outside) reduce to one another in the
    appropriate limits.
    """
    if probe.m != domain.m:
        raise ValueError("probe and domain must use the same Fourier mode")
    m = probe.m
    return _as_vec(_repulsion(probe, domain, cmath.exp(1j * theta0), math.cos(m * theta0), math.sin(m * theta0)))


def log_contour_integral(alpha: float, mu: int, theta0: float) -> complex:
    """Closed form of the circle-harmonic log integral; valid for any alpha > 0."""
    if mu == 0:
        raise ZeroMode("log contour integral requires mu != 0")
    if alpha <= 0.0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    power = alpha ** abs(mu) if alpha <= 1.0 else alpha ** (-abs(mu))
    return -(2.0 * math.pi / abs(mu)) * cmath.exp(1j * mu * theta0) * power


def rational_contour_integral(alpha: float, mu: int, theta0: float) -> complex:
    """Closed form of the circle-harmonic Poisson-type integral (alpha != 1)."""
    if alpha <= 0.0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    if abs(alpha - 1.0) <= ALPHA_GUARD:
        raise NearSingularAlpha(f"alpha={alpha} too close to 1; use the same-circle branch")
    if alpha < 1.0:
        factor = alpha ** abs(mu) / (1.0 - alpha * alpha)
    else:
        factor = alpha ** (-abs(mu)) / (alpha * alpha - 1.0)
    return 2.0 * math.pi * cmath.exp(1j * mu * theta0) * factor


def same_circle_rational_part(R: float, m: int, eps_N: float, eps_T: float, theta0: float) -> complex:
    """First-order rational part when the probe sits on the perturbed circle itself.

    Equals the two-sided alpha -> 1 limit of the distinct-circle expression;
    the apparent pole is compensated by the numerator.
    """
    if m == 1:
        return complex(-(R / 2.0) * math.pi * (eps_N + eps_T), 0.0)
    return -R * math.pi * eps_T * cmath.exp(-1j * (m - 1) * theta0)


# --------------------------------------------------------------------------
# Quadrature oracles


def _contour_distance(alpha, phi):
    """1 + alpha^2 - 2 alpha cos(phi), written without cancellation at alpha = 1 and phi = 0."""
    return (1.0 - alpha) ** 2 + 4.0 * alpha * np.sin(0.5 * phi) ** 2


def oracle_log_contour(alpha: float, mu: int, theta0: float) -> complex:
    """Numerical value of the defining log integral, with nodes clustered at the singularity phi = 0."""
    if mu == 0:
        raise ZeroMode("log contour integral requires mu != 0")

    def f(phi):
        return np.log(_contour_distance(alpha, phi)) * np.exp(1j * mu * phi)

    return cmath.exp(1j * mu * theta0) * complex(periodic_trapezoid(f, ORACLE_TOL, cluster_at=0.0))


def oracle_rational_contour(alpha: float, mu: int, theta0: float) -> complex:
    """Numerical value of the defining rational integral, with nodes clustered at its peak phi = 0."""

    def f(phi):
        return np.exp(1j * mu * phi) / _contour_distance(alpha, phi)

    return cmath.exp(1j * mu * theta0) * complex(periodic_trapezoid(f, ORACLE_TOL, cluster_at=0.0))


def perturbed_area(disk: PerturbedDisk) -> float:
    """Exact area of the perturbed domain by a contour quadrature."""

    def f(theta):
        p, dp = disk.boundary(theta)
        return 0.5 * (p.real * dp.imag - p.imag * dp.real)

    return periodic_trapezoid(f)


def perturbed_moment(disk: PerturbedDisk) -> np.ndarray:
    """Exact first moment (integral of y over the domain) by contour quadrature.

    The x and y parts are the real and imaginary parts of one integrand, so
    the boundary is evaluated once per node set.
    """

    def f(theta):
        p, dp = disk.boundary(theta)
        return 0.5 * (p.real**2 * dp.imag - 1j * p.imag**2 * dp.real)

    val = periodic_trapezoid(f)
    return np.array([val.real, val.imag])


def oracle_attraction(x, disk: PerturbedDisk) -> np.ndarray:
    """Attraction integral from the exact area and first moment of the domain."""
    x = np.asarray(x, dtype=float)
    return x * perturbed_area(disk) - perturbed_moment(disk)


def oracle_repulsion(probe: PerturbedDisk, theta0: float, domain: PerturbedDisk) -> np.ndarray:
    """Newtonian integral over the true perturbed domain, via its boundary.

    Gauss' theorem turns the domain integral into -oint ln|x - y| n dS with
    the exact (untruncated) boundary element n dS = -i p'(theta) dtheta.  The
    rule clusters its nodes at theta = theta0, where the integrand has an
    integrable log singularity when the probe sits on the domain's boundary
    and a sharp peak when it sits close to it.
    """
    x = probe.boundary_point(theta0)

    def f(theta):
        y, y_prime = domain.boundary(theta)
        return -np.log(np.abs(x - y)) * (-1j * y_prime)

    return _as_vec(periodic_trapezoid(f, ORACLE_TOL, cluster_at=theta0))
