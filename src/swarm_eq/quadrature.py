"""Quadrature helpers backing the independent oracles.

All routines here evaluate defining integrals numerically and deliberately
avoid the closed forms they are used to verify.  Every oracle integral is
one-dimensional and periodic, and all of them go through one rule,
``periodic_trapezoid``: the trapezoid rule over a full period with the
integrand evaluated on whole arrays of angles.  On a smooth periodic
integrand it converges geometrically (Trefethen & Weideman, SIAM Review 56,
2014).  At an integrable log singularity or a sharp peak the caller names the
angle, and the sin^4 substitution ``_cluster`` gathers the nodes there, which
keeps a fast algebraic rate (Sidi 1993).  The same substitution integrates an
integrand that is analytic on arcs but changes form between them: the caller
maps the arcs onto one period and clusters the nodes at their ends, where the
weight vanishes to fourth order (``weak_cross.cross_condition_residual``).

``disk_kernel_integral`` takes a disk integral in polar coordinates around
the evaluation point: the radial part along each ray is an elementary
antiderivative of the kernel, and the angular part is ``periodic_trapezoid``,
one run for the sum over an array of disks.
The contour, repulsion and cross-force oracles of ``boundary_integrals`` and
``weak_cross`` call the rule directly at one tolerance, ``ORACLE_TOL``; the
disk kernel and the area and moment integrals use the rule's default.

The rule doubles its nodes from N_START, evaluating only the new midpoints,
until two successive estimates agree within max(tol, REL_TOL*|estimate|).
It raises ``QuadratureNonConvergence`` on a non-finite sum or past N_MAX
nodes.  Everything here is numpy: running an oracle loads no scipy.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import QuadratureNonConvergence

#: Nodes of the rule's first estimate; each refinement doubles them.
N_START = 64

#: The rule raises rather than refine past this many nodes.
N_MAX = 2**16

#: Relative part of the stopping test |I_2n - I_n| <= max(tol, REL_TOL*|I_2n|).
REL_TOL = 1e-11

#: Absolute tolerance the contour, repulsion and cross-force oracles pass to the rule.
ORACLE_TOL = 1e-10


def _cluster(s):
    """psi(s) = s - (2/3pi) sin 2pi s + (1/12pi) sin 4pi s on [0, 1] and psi' = (8/3) sin^4(pi s)."""
    psi = s - (2.0 / (3.0 * math.pi)) * np.sin(2.0 * math.pi * s) + np.sin(4.0 * math.pi * s) / (12.0 * math.pi)
    return psi, (8.0 / 3.0) * np.sin(math.pi * s) ** 4


def periodic_trapezoid(f, tol=1e-12, cluster_at=None):
    """Integral of a 2*pi-periodic f over one period, by the trapezoid rule with doubling.

    ``f`` maps an array of angles to an array of real or complex values.  The
    rule starts at N_START nodes and doubles, evaluating only the new
    midpoints, until |I_2n - I_n| <= max(tol, REL_TOL*|I_2n|); it returns
    I_2n.  ``cluster_at`` names the angle of an integrable singularity or a
    sharp peak of f, or the seam of arcs mapped onto one period: the rule
    then integrates over s in [0, 1) with theta = cluster_at + 2*pi*psi(s)
    and weight 2*pi*psi'(s), which vanishes to fourth order at s = 0, so f
    is never evaluated at cluster_at itself.
    Raises ``QuadratureNonConvergence``, with the last estimate, on a
    non-finite sum or when n would pass N_MAX.  The error estimate assumes f
    continuous: across a jump the difference stays O(1/n) and the rule
    raises, but a piecewise-constant step can give two equal estimates and be
    accepted.
    """
    if cluster_at is None:
        def g(s):
            return f(2.0 * math.pi * s)
    else:
        def g(s):
            psi, dpsi = _cluster(s)
            return f(cluster_at + 2.0 * math.pi * psi) * dpsi

    n = N_START
    total = np.sum(g(np.arange(0 if cluster_at is None else 1, n) / n))
    estimate = 2.0 * math.pi * total / n
    while np.isfinite(estimate) and n < N_MAX:
        total += np.sum(g((np.arange(n) + 0.5) / n))
        n *= 2
        previous, estimate = estimate, 2.0 * math.pi * total / n
        if abs(estimate - previous) <= max(tol, REL_TOL * abs(estimate)):
            return estimate
    reason = "non-finite sum" if not np.isfinite(estimate) else f"no convergence within {N_MAX} nodes"
    raise QuadratureNonConvergence(f"periodic trapezoid rule: {reason}; last estimate {estimate} at n = {n}")


def disk_kernel_integral(x, center, R, a_log, b_quad):
    """Sum over disks of the integral of -a_log*ln|x-y| + (b_quad/2)|x-y|^2 over the disk |y-center| < R.

    ``R``, ``a_log`` and ``b_quad`` are floats for one disk or broadcastable
    1-D arrays, one entry per disk, all disks sharing ``center``; a weight on
    a disk (a signed density) is a factor of its two coefficients.  Polar
    coordinates around x, with the angle psi measured from the direction of
    the centre.  The radial part along each ray is exact:
    r*(-a ln r + b r^2/2) has the antiderivative
    G(r) = -a (r^2/2 ln r - r^2/4) + b r^4/8 with G(0) = 0, so a ray that
    crosses a disk on [t_lo, t_hi] contributes G(t_hi) - G(t_lo); it is
    evaluated on whole arrays of rays and disks.  Each disk maps psi onto
    one period of the rule variable t: psi = t for a disk that holds x, and
    for a disk that does not, psi = half*sin(t) over the window +-half that
    it subtends (t sweeps the window twice, hence the weight half*|cos t|/2),
    which removes the square-root behavior of the chord at the window's
    edges.  The disks' sum is integrated in one ``periodic_trapezoid`` run,
    to 1e-12 absolute or 1e-11 relative.
    """
    dist = math.hypot(float(center[0]) - float(x[0]), float(center[1]) - float(x[1]))
    R, a_log, b_quad = (np.atleast_1d(v).astype(float) for v in np.broadcast_arrays(R, a_log, b_quad))
    # the window half-angle of each disk that does not hold x (dist >= R > 0 there), 0 for the others
    half = [0.0 if dist < radius else math.asin(min(1.0, radius / dist)) for radius in R.tolist()]
    # one row per disk, one column per node
    inside, half, c = (dist < R)[:, None], np.array(half)[:, None], (dist * dist - R * R)[:, None]
    a_log, b_quad = -a_log[:, None], 0.125 * b_quad[:, None]

    def integrand(t):
        b = dist * np.cos(np.where(inside, t, half * np.sin(t)))
        root = np.sqrt(np.maximum(b * b - c, 0.0))
        ends = np.maximum(b + np.stack((root, -root)), 0.0)  # t_hi, t_lo along each ray, 0 where it misses
        ends2 = ends * ends
        G = ends2 * (a_log * (0.5 * np.log(np.where(ends > 0.0, ends, 1.0)) - 0.25) + b_quad * ends2)
        rays = G[0] - G[1]
        return np.sum(np.where(inside, rays, rays * ((0.5 * half) * np.abs(np.cos(t)))), axis=0)

    return periodic_trapezoid(integrand)
