import math

import numpy as np
import pytest

from swarm_eq.errors import QuadratureNonConvergence
from swarm_eq import quadrature
from swarm_eq.quadrature import disk_kernel_integral, periodic_trapezoid

CENTER = np.array([0.3, -0.7])
R = 1.3
DIRECTION = np.array([math.cos(2.1), math.sin(2.1)])


def _log_potential(rho):
    """Integral of -ln|x - y| over the disk, |x - center| = rho (Newton's theorem outside)."""
    if rho >= R:
        return -math.pi * R * R * math.log(rho)
    return -math.pi * (R * R * math.log(R) - 0.5 * (R * R - rho * rho))


def _quadratic_potential(rho):
    """Integral of |x - y|^2 / 2 over the disk."""
    return 0.5 * math.pi * R * R * (rho * rho + 0.5 * R * R)


@pytest.mark.parametrize("rho_over_R", [0.0, 0.5, 1.05, 1.5, 3.0])
def test_disk_kernel_integral_matches_elementary_disk_potentials(rho_over_R):
    rho = rho_over_R * R
    x = CENTER + rho * DIRECTION
    for a_log, b_quad, exact in ((1.0, 0.0, _log_potential(rho)), (0.0, 1.0, _quadratic_potential(rho))):
        val = disk_kernel_integral(x, CENTER, R, a_log, b_quad)
        assert abs(val - exact) <= 1e-12 * abs(exact)



def _disk_kernel_by_quad(x, a_log, b_quad):
    """The same polar integral with the chord's end points found ray by ray and scipy's adaptive quad in angle."""
    from scipy.integrate import quad

    dx, dy = CENTER[0] - x[0], CENTER[1] - x[1]
    dist = math.hypot(dx, dy)

    def G(r):
        return 0.0 if r == 0.0 else -a_log * r * r * (0.5 * math.log(r) - 0.25) + 0.125 * b_quad * r**4

    def radial(phi):
        b = dx * math.cos(phi) + dy * math.sin(phi)
        root = math.sqrt(max(b * b - (dist * dist - R * R), 0.0))
        return G(b + root) - G(max(b - root, 0.0)) if b + root > 0.0 else 0.0

    kw = dict(epsabs=1e-13, epsrel=1e-13, limit=1000)
    if dist < R:
        return quad(radial, 0.0, 2.0 * math.pi, **kw)[0]
    phi_c, half = math.atan2(dy, dx), math.asin(R / dist)
    return quad(lambda u: radial(phi_c + half * math.sin(u)) * half * math.cos(u), -0.5 * math.pi, 0.5 * math.pi, **kw)[0]


@pytest.mark.parametrize("rho_over_R", [0.0, 0.5, 0.99, 1.01, 1.5, 10.0])
def test_disk_kernel_integral_agrees_with_adaptive_quad(rho_over_R):
    x = CENTER + rho_over_R * R * DIRECTION
    for a_log, b_quad in ((1.0, 0.0), (0.0, 1.0), (0.7, 2.3)):
        reference = _disk_kernel_by_quad(x, a_log, b_quad)
        assert abs(disk_kernel_integral(x, CENTER, R, a_log, b_quad) - reference) <= 1e-11 * max(1.0, abs(reference))


def _aliased(value, change):
    """A periodic integrand with integral `value` whose N_START-node estimate is off by `change` alone."""
    return lambda t: (value + change * np.cos(quadrature.N_START * t)) / (2.0 * math.pi)


@pytest.mark.parametrize(
    "call",
    [
        lambda change: periodic_trapezoid(_aliased(1.0, change)),
        lambda change: periodic_trapezoid(lambda t: 1j * _aliased(1.0, change)(t)),
        lambda change: periodic_trapezoid(_aliased(0.0, change), tol=1e-11),
    ],
)
def test_error_estimate_beyond_the_requested_tolerance_raises(monkeypatch, call):
    # with N_MAX = 2 N_START the rule's one error estimate is |I_128 - I_64| = change; the relative floor
    # 1e-11 on a value of 1, or tol = 1e-11 on a value of 0, allows an error estimate of 1e-11
    monkeypatch.setattr(quadrature, "N_MAX", 2 * quadrature.N_START)
    assert call(0.9e-11) == pytest.approx(call(0.0), abs=1e-15)
    with pytest.raises(QuadratureNonConvergence, match="no convergence"):
        call(1e-3)


def test_trigonometric_polynomial_is_exact_at_the_first_nodes():
    # the N-node rule integrates e^{ik t} exactly for |k| < N, so I_64 = I_128 = the integral
    nodes = []

    def f(t):
        nodes.append(t.size)
        return 2.0 + np.cos(3.0 * t) ** 2 + np.sin(5.0 * t) + 0.3 * np.cos(63.0 * t - 0.2)

    assert periodic_trapezoid(f) == pytest.approx(5.0 * math.pi, rel=1e-15, abs=0.0)
    assert nodes == [quadrature.N_START, quadrature.N_START]


def test_clustered_rule_integrates_a_log_singularity():
    # int_0^{2 pi} log(4 sin^2(t/2)) dt = 0; the singularity sits at t = 0 = 2 pi
    val = periodic_trapezoid(lambda t: np.log(4.0 * np.sin(0.5 * t) ** 2), cluster_at=0.0)
    assert abs(val) <= 1e-12


@pytest.mark.parametrize(
    "f, reason",
    [
        (lambda t: np.where(t < 1.0, np.cos(t), 0.0), "no convergence"),
        (lambda t: np.where(t > 3.0, np.inf, 1.0), "non-finite"),
        (lambda t: np.where(t > 3.0, np.nan, 1.0), "non-finite"),
    ],
)
def test_jump_and_non_finite_integrands_raise(f, reason):
    with pytest.raises(QuadratureNonConvergence, match=reason):
        periodic_trapezoid(f)
