"""Quadrature helpers backing the independent oracles.

All routines here evaluate defining integrals numerically and deliberately
avoid the closed forms they are used to verify.  Disk integrals are taken in
polar coordinates around the evaluation point: the radial part along each
ray is an elementary antiderivative of the kernel, and the angular part is
numerical (adaptive ``quad`` in ``disk_kernel_integral``, fixed rules in
``disk_repulsion_batch``).  Contour integrals use periodic trapezoid rules,
or adaptive ``quad`` with graded panels at integrable log singularities.

Every adaptive call checks QUADPACK's error estimate against the requested
tolerance and raises ``QuadratureNonConvergence`` when it is exceeded.
scipy is imported inside the helpers, so importing the package does not
load it.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import QuadratureNonConvergence

_QUAD_KW = dict(epsabs=1e-12, epsrel=1e-11, limit=200)


def _checked_quad(f, a, b, what, **kw):
    """``scipy.integrate.quad`` whose error estimate must meet its own tolerance."""
    from scipy.integrate import quad

    val, err = quad(f, a, b, **kw)
    if not (math.isfinite(val) and err <= max(kw["epsabs"], kw["epsrel"] * abs(val))):
        raise QuadratureNonConvergence(f"{what}: value {val} with error estimate {err}")
    return val


def _ray_disk_bounds(x, center, R, phi):
    """Intersection interval [t_lo, t_hi] of the ray x + t*(cos phi, sin phi) with the disk."""
    ex, ey = math.cos(phi), math.sin(phi)
    dx, dy = center[0] - x[0], center[1] - x[1]
    b = ex * dx + ey * dy
    c = dx * dx + dy * dy - R * R
    disc = b * b - c
    if disc <= 0.0:
        return None
    root = math.sqrt(disc)
    t_lo, t_hi = b - root, b + root
    if t_hi <= 0.0:
        return None
    return (max(t_lo, 0.0), t_hi)


def disk_kernel_integral(x, center, R, a_log, b_quad):
    """Integral of -a_log*ln|x-y| + (b_quad/2)|x-y|^2 over the disk |y-center| < R.

    Polar coordinates around x.  The radial part along each ray is exact:
    r*(-a ln r + b r^2/2) has the antiderivative
    G(r) = -a (r^2/2 ln r - r^2/4) + b r^4/8 with G(0) = 0, so a ray that
    crosses the disk on [t_lo, t_hi] contributes G(t_hi) - G(t_lo).  The
    angular integral is one adaptive ``quad``: over [0, 2 pi] for interior
    points, and for exterior points over the window phi_c +- half that the
    disk subtends, with phi = phi_c + half*sin(u), which removes the
    square-root behavior of the chord at the window's edges.  Raises
    ``QuadratureNonConvergence`` when ``quad``'s error estimate exceeds
    max(epsabs, epsrel*|value|).
    """
    x = (float(x[0]), float(x[1]))
    center = (float(center[0]), float(center[1]))

    def G(r):
        if r == 0.0:
            return 0.0
        r2 = r * r
        return -a_log * r2 * (0.5 * math.log(r) - 0.25) + 0.125 * b_quad * r2 * r2

    def radial(phi):
        bounds = _ray_disk_bounds(x, center, R, phi)
        if bounds is None:
            return 0.0
        return G(bounds[1]) - G(bounds[0])

    dist = math.hypot(x[0] - center[0], x[1] - center[1])
    if dist < R:
        return _checked_quad(radial, 0.0, 2.0 * math.pi, "disk kernel integral", **_QUAD_KW)
    # integrand supported on the angular window subtended by the disk
    phi_c = math.atan2(center[1] - x[1], center[0] - x[0])
    half = math.asin(min(1.0, R / dist))

    def window(u):
        return radial(phi_c + half * math.sin(u)) * half * math.cos(u)

    return _checked_quad(window, -0.5 * math.pi, 0.5 * math.pi, "disk kernel integral", **_QUAD_KW)


def periodic_trapezoid(f, n=512):
    """Trapezoid rule over [0, 2*pi) for a smooth periodic integrand (spectral accuracy)."""
    theta = np.arange(n) * (2.0 * math.pi / n)
    return np.sum(f(theta)) * (2.0 * math.pi / n)


def quad_complex(f, a, b, points=None, epsabs=1e-12):
    """Adaptive quadrature of a complex-valued integrand.

    The real and imaginary parts are separate ``quad`` calls; each must meet
    max(epsabs, epsrel*|part|) by its error estimate, or
    ``QuadratureNonConvergence`` is raised.
    """
    kw = dict(epsabs=epsabs, epsrel=1e-11, limit=400)
    if points is not None:
        kw["points"] = points
    re = _checked_quad(lambda t: f(t).real, a, b, "complex quadrature, real part", **kw)
    im = _checked_quad(lambda t: f(t).imag, a, b, "complex quadrature, imaginary part", **kw)
    return complex(re, im)


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
