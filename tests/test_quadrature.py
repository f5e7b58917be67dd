import math

import numpy as np
import pytest
import scipy.integrate

from swarm_eq.errors import QuadratureNonConvergence
from swarm_eq.quadrature import disk_kernel_integral, quad_complex

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


def _fake_quad(err):
    def quad(f, a, b, **kw):
        return 1.0, err

    return quad


@pytest.mark.parametrize(
    "call",
    [
        lambda: disk_kernel_integral((0.2, 0.1), (0.0, 0.0), 1.0, 1.0, 1.0),
        lambda: disk_kernel_integral((2.0, 0.1), (0.0, 0.0), 1.0, 1.0, 1.0),
        lambda: quad_complex(lambda t: complex(math.cos(t), math.sin(t)), 0.0, 1.0),
    ],
)
def test_error_estimate_beyond_the_requested_tolerance_raises(monkeypatch, call):
    # epsrel is 1e-11 on both helpers, so a value of 1 allows an error estimate of 1e-11
    monkeypatch.setattr(scipy.integrate, "quad", _fake_quad(0.9e-11))
    assert call() in (1.0, complex(1.0, 1.0))
    monkeypatch.setattr(scipy.integrate, "quad", _fake_quad(1e-3))
    with pytest.raises(QuadratureNonConvergence, match="error estimate"):
        call()
