"""Reference computations the benchmark checks the program against.

Nothing here imports swarm_eq: regions, target radii, equilibrium
velocities and the weak-coupling separation are all recomputed from the
model's definitions (Newton's theorem for uniform disks, the boundary curves
c1, c2 and the diagonal of the (A, B) plane), so a check that passes here
does not merely repeat the program's own arithmetic.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

#: Region unions in which each equilibrium kind exists (the paper's table).
EXISTENCE = {
    "target-light": {"D3", "D4", "D5"},
    "target-heavy": {"D2", "D3", "D4"},
    "overlap-light": {"D3", "D6"},
    "overlap-heavy": {"D1", "D4"},
}


def curve_distance(A, B, M):
    """Distance in A from the nearest of the diagonal and the curves c1, c2."""
    c1 = (1.0 + M * B) / (B + M)
    return np.minimum(np.minimum(np.abs(A - B), np.abs(A - c1)), np.abs(A - 1.0 / c1))


def region(A, B, M):
    """Open region D1..D6 of the (A, B) plane at mass ratio M (arrays or scalars).

    Below the diagonal (B < A): D1 left of c1, D2 between c1 and c2, D3
    right of c2.  Above it: D4 right of c1, D5 between c2 and c1, D6 the
    rest.
    """
    A, B = np.broadcast_arrays(np.asarray(A, dtype=float), np.asarray(B, dtype=float))
    c1 = (1.0 + M * B) / (B + M)
    c2 = 1.0 / c1
    below = np.where(A < c1, "D1", np.where(A < c2, "D2", "D3"))
    above = np.where(A > c1, "D4", np.where(A > c2, "D5", "D6"))
    out = np.where(B < A, below, above)
    return out if out.shape else str(out)


def target_light_radii(a_s, a_c, b_s, b_c, M1, M2):
    """(r_core, r_annulus_in, r_annulus_out) of the light-inside target.

    The light species 2 fills the disk r < r2 and species 1 the annulus
    r1 < r < r0.  Inside the annulus the annulus exerts no Newtonian force,
    so zero velocity of species 2 fixes its density, and its mass M2 fixes
    r2.  On the annulus the disk acts as a point mass M2, so zero velocity
    at every r fixes the annulus density and r1, and mass M1 fixes r0.
    """
    rho2 = (b_s * M2 + b_c * M1) / (math.pi * a_s)
    r2 = math.sqrt(M2 / (math.pi * rho2))
    rho1 = (b_s * M1 + b_c * M2) / (math.pi * a_s)
    r1 = math.sqrt(a_c * M2 / (a_s * math.pi * rho1))
    r0 = math.sqrt(r1 * r1 + M1 / (math.pi * rho1))
    return r2, r1, r0


def _disk_field(r, R):
    """Radial Newtonian field of the unit-density disk of radius R at radius r."""
    if R == 0.0:
        return 0.0
    return math.pi * r if r < R else math.pi * R * R / r


def radial_velocity(shells, species, r, a_s, a_c, b_s, b_c):
    """Radial velocity of one species at radius r, by Newton's theorem for disks.

    ``shells`` holds (r_in, r_out, rho1, rho2); each shell is the difference
    of two uniform disks.  Same-species pairs use (a_s, b_s), cross pairs
    (a_c, b_c) with any coupling factor already applied.
    """
    v = 0.0
    for r_in, r_out, rho1, rho2 in shells:
        rep = _disk_field(r, r_out) - _disk_field(r, r_in)
        att = math.pi * (r_out * r_out - r_in * r_in) * r
        for other, rho in ((1, rho1), (2, rho2)):
            a, b = (a_s, b_s) if other == species else (a_c, b_c)
            v += rho * (a * rep - b * att)
    return v


def _two_disk_repulsion(d):
    """e1 Newtonian force between unit disks with unit density at centre distance d.

    Polar coordinates about the centre of disk 2, which sits at the origin
    with disk 1 centred at (-d, 0).  The radial integral of disk 2's field
    (pi rho inside, pi/rho outside, times cos(phi)) is closed-form on the
    chord of each ray through disk 1, leaving an adaptive angular quadrature.
    Returns the (negative) e1 component of the force on disk 1.
    """

    def radial(phi):
        c = math.cos(phi)
        disc = d * d * c * c - (d * d - 1.0)
        if disc <= 0.0:
            return 0.0
        root = math.sqrt(disc)
        lo, hi = max(-d * c - root, 0.0), -d * c + root
        if hi <= lo:
            return 0.0
        inner = (min(hi, 1.0) ** 3 - min(lo, 1.0) ** 3) / 3.0
        outer = max(hi, 1.0) - max(lo, 1.0)
        return math.pi * c * (inner + outer)

    points = []
    if d < 2.0:
        points.append(math.acos(-d / 2.0))
    if d > 1.0:
        points.append(math.pi - math.asin(1.0 / d))
    val, _ = quad(radial, 0.0, math.pi, points=points or None, epsabs=1e-13, epsrel=1e-12, limit=400)
    return 2.0 * val


def ab_ratio_at_separation(d):
    """A/B at which two unit disks balance at centre separation d (0 < d).

    Cross attraction on disk 1 is pi^2 d (each disk has area pi), cross
    repulsion is the quadrature above; the balance a_c * rep = b_c * att
    gives A/B = a_c/b_c.
    """
    return math.pi**2 * d / -_two_disk_repulsion(d)


def separation_reference(ratio):
    """Equilibrium d/R of two weakly coupled unit disks at A/B = ratio."""
    if ratio <= 1.0:
        return 0.0
    if ratio >= 4.0:
        return math.sqrt(ratio)
    return brentq(lambda d: ab_ratio_at_separation(d) - ratio, 1e-6, 2.0, xtol=1e-13)


def shell_radii(points, center):
    """(inner, outer) radius of a uniformly filled annulus (or disk) about ``center``.

    For a uniform annulus r_in < r < r_out, r^2 is uniform on
    [r_in^2, r_out^2], so its mean and variance give both edges.  Unlike the
    extreme samples, moments barely move when the centre is off by a
    sampling error or a particle strays.
    """
    points = np.asarray(points, dtype=float)
    r2 = np.sum((points - np.asarray(center)) ** 2, axis=1)
    mean, half_width = float(r2.mean()), math.sqrt(3.0 * float(r2.var()))
    return math.sqrt(max(mean - half_width, 0.0)), math.sqrt(mean + half_width)
