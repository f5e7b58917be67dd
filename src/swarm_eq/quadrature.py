"""Quadrature helpers backing the independent oracles.

All routines here evaluate defining integrals numerically and deliberately
avoid the closed forms they are used to verify.  Every oracle integral is
one-dimensional and periodic, and all of them go through one rule,
``periodic_trapezoid``: the trapezoid rule over a full period with the
integrand evaluated on whole arrays of angles.  On a smooth periodic
integrand it converges geometrically (Trefethen & Weideman, SIAM Review 56,
2014).  At an integrable log singularity or a sharp peak the caller names the
angle, and the sin^4 substitution ``_cluster`` gathers the nodes there, which
keeps a fast algebraic rate (Sidi 1993).

Disk integrals are taken in polar coordinates around the evaluation point:
the radial part along each ray is an elementary antiderivative of the
kernel, and the angular part is ``periodic_trapezoid`` in
``disk_kernel_integral`` and fixed rules in ``disk_repulsion_batch``.

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
    sharp peak of f: the rule then integrates over s in [0, 1) with
    theta = cluster_at + 2*pi*psi(s) and weight 2*pi*psi'(s), which vanishes
    to fourth order at s = 0, so f is never evaluated at cluster_at itself.
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
    """Integral of -a_log*ln|x-y| + (b_quad/2)|x-y|^2 over the disk |y-center| < R.

    Polar coordinates around x.  The radial part along each ray is exact:
    r*(-a ln r + b r^2/2) has the antiderivative
    G(r) = -a (r^2/2 ln r - r^2/4) + b r^4/8 with G(0) = 0, so a ray that
    crosses the disk on [t_lo, t_hi] contributes G(t_hi) - G(t_lo); it is
    evaluated on whole arrays of rays.  The angular integral is
    ``periodic_trapezoid`` to 1e-12 absolute or 1e-11 relative: over
    [0, 2 pi) for interior points, and for exterior points over the window
    phi_c +- half that the disk subtends, with phi = phi_c + half*sin(u) over
    a full period of u (which sweeps the window twice, hence the weight
    half*|cos u|/2).  That substitution removes the square-root behavior of
    the chord at the window's edges.
    """
    dx, dy = float(center[0]) - float(x[0]), float(center[1]) - float(x[1])
    c = dx * dx + dy * dy - R * R

    def G(r):
        r2 = r * r
        return -a_log * r2 * (0.5 * np.log(np.where(r > 0.0, r, 1.0)) - 0.25) + 0.125 * b_quad * r2 * r2

    def radial(phi):
        b = dx * np.cos(phi) + dy * np.sin(phi)
        root = np.sqrt(np.maximum(b * b - c, 0.0))
        t_hi = np.maximum(b + root, 0.0)
        return G(t_hi) - G(np.clip(b - root, 0.0, t_hi))

    dist = math.hypot(dx, dy)
    if dist < R:
        return periodic_trapezoid(radial)
    # integrand supported on the angular window subtended by the disk
    phi_c = math.atan2(dy, dx)
    half = math.asin(min(1.0, R / dist))
    return periodic_trapezoid(lambda u: radial(phi_c + half * np.sin(u)) * (0.5 * half) * np.abs(np.cos(u)))


def disk_repulsion_batch(X, center, R, n_theta=512):
    """Newtonian repulsion integral of a uniform disk at many points, by ray quadrature.

    Returns an (n, 2) array of  int_{|y-center|<R} (x-y)/|x-y|^2 dy  for the
    rows x of X.  In polar coordinates around x the radial part is exact
    (the integrand reduces to the chord length per direction); the angular
    integral uses a periodic trapezoid rule for interior points and a
    sin-substituted Gauss rule over the visible window for exterior points,
    which removes the square-root edge behavior.
    """
    X = np.asarray(X, dtype=float)
    center = np.asarray(center, dtype=float)
    out = np.zeros_like(X)
    d = X - center[None, :]
    dist = np.hypot(d[:, 0], d[:, 1])
    inside = dist < R

    if np.any(inside):
        Xi = X[inside]
        theta = np.arange(n_theta) * (2.0 * math.pi / n_theta)
        e = np.stack([np.cos(theta), np.sin(theta)], axis=1)  # (t, 2)
        delta = center[None, :] - Xi  # (n, 2)
        b = delta @ e.T  # (n, t)
        c = np.sum(delta * delta, axis=1)[:, None] - R * R
        root = np.sqrt(np.maximum(b * b - c, 0.0))
        chord = b + root  # t_hi, t_lo = 0 for interior points
        # integral = -sum_phi e(phi) * chord(phi) dphi  (sign: integrand is (x-y)/|x-y|^2)
        w = 2.0 * math.pi / n_theta
        out[inside] = -w * (chord @ e)

    outside = ~inside
    if np.any(outside):
        Xo = X[outside]
        delta = center[None, :] - Xo
        dist_o = np.hypot(delta[:, 0], delta[:, 1])
        phi_c = np.arctan2(delta[:, 1], delta[:, 0])
        half = np.arcsin(np.clip(R / dist_o, 0.0, 1.0))
        # phi = phi_c + half*sin(u), u in [-pi/2, pi/2]
        n_u = 64
        u, wu = np.polynomial.legendre.leggauss(n_u)
        u = 0.5 * math.pi * u
        wu = 0.5 * math.pi * wu
        phi = phi_c[:, None] + half[:, None] * np.sin(u)[None, :]  # (n, u)
        jac = half[:, None] * np.cos(u)[None, :]
        ex, ey = np.cos(phi), np.sin(phi)
        b = delta[:, 0:1] * ex + delta[:, 1:2] * ey
        c = (dist_o**2 - R * R)[:, None]
        root = np.sqrt(np.maximum(b * b - c, 0.0))
        t_lo = np.maximum(b - root, 0.0)
        t_hi = b + root
        chord = np.maximum(t_hi - t_lo, 0.0)
        common = chord * jac * wu[None, :]
        out[outside, 0] = -np.sum(common * ex, axis=1)
        out[outside, 1] = -np.sum(common * ey, axis=1)

    return out
