import math

import numpy as np
import pytest
from scipy.integrate import quad

from swarm_eq.errors import OutOfRange
from swarm_eq.model import InteractionParams, equilibrium_densities
from swarm_eq.weak_cross import (
    SERIES_BELOW,
    _edge_log_integral,
    ab_ratio_of_d,
    cross_condition_residual,
    curve_sample,
    d_of_ab_ratio,
    force_balance_residual,
    leading_order_densities,
)


def _edge_log_oracle(r):
    """The lens edge integral by adaptive quadrature, split at the log's near-singular point t = 0."""
    gamma = math.acos(min(1.0, r / 2.0))

    def integrand(t):
        return math.log(1.0 + r * r - 2.0 * r * math.cos(t)) * math.cos(t)

    val, _ = quad(integrand, -gamma, gamma, points=[0.0], epsabs=1e-12, epsrel=1e-10, limit=300)
    return val


def test_edge_integral_matches_quadrature_oracle():
    # away from r = 1, where the integrand's log singularity costs quad its accuracy
    for r in np.concatenate([np.linspace(0.01, 0.9, 60), np.linspace(1.1, 1.99, 60)]):
        assert _edge_log_integral(float(r)) == pytest.approx(_edge_log_oracle(float(r)), abs=1e-12), r


def test_edge_integral_exact_values():
    assert _edge_log_integral(1.0) == pytest.approx(-2.0 * math.pi / 3.0 - math.sqrt(3.0), rel=1e-15)
    assert _edge_log_integral(2.0) == 0.0


def test_edge_integral_continuous_across_series_switch():
    below = _edge_log_integral(math.nextafter(SERIES_BELOW, 0.0))
    at = _edge_log_integral(SERIES_BELOW)
    assert abs(at - below) < 1e-15


def test_edge_integral_near_seam_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for r in (1.0 - 1e-6, 1.0 + 1e-6, 1.0 - 1e-9, 1.0 + 1e-9):
            x = mpmath.mpf(r)
            gamma = mpmath.acos(x / 2)
            exact = 2 * mpmath.quad(lambda t: mpmath.log(1 + x * x - 2 * x * mpmath.cos(t)) * mpmath.cos(t), [0, gamma])
            assert abs(_edge_log_integral(r) - float(exact)) < 1e-14, r


def test_separation_solves_next_to_the_seam():
    # the implicit branch stays solvable to RESIDUAL_TOL where d/R is within 1e-6 of 1
    for d in (1.0 - 1e-6, 1.0 + 1e-6, 1.0 - 1e-8, 1.0 + 1e-8):
        sol = d_of_ab_ratio(ab_ratio_of_d(d))
        assert sol.d_over_R == pytest.approx(d, abs=1e-12)


def test_mixing_threshold_limit():
    assert ab_ratio_of_d(1e-7) == pytest.approx(1.0, abs=1e-6)


def test_tangency_value():
    assert ab_ratio_of_d(2.0) == pytest.approx(4.0, abs=1e-12)


def test_seam_continuity():
    below = ab_ratio_of_d(1.0 - 1e-9)
    above = ab_ratio_of_d(1.0 + 1e-9)
    assert abs(below - above) < 1e-8
    assert abs(ab_ratio_of_d(2.0 - 1e-9) - 4.0) < 1e-8


def test_out_of_range():
    with pytest.raises(OutOfRange):
        ab_ratio_of_d(0.0)
    with pytest.raises(OutOfRange):
        ab_ratio_of_d(2.5)
    with pytest.raises(OutOfRange):
        d_of_ab_ratio(-1.0)


def test_d_of_ratio_values():
    assert d_of_ab_ratio(6.0).d_over_R == pytest.approx(math.sqrt(6.0), abs=1e-12)
    assert d_of_ab_ratio(4.0).d_over_R == pytest.approx(2.0, abs=1e-12)
    assert d_of_ab_ratio(0.5).d_over_R == 0.0
    assert d_of_ab_ratio(0.5).regime == "full-mix"
    assert d_of_ab_ratio(1.0).d_over_R == 0.0
    assert d_of_ab_ratio(1.0).regime == "small"
    sol = d_of_ab_ratio(2.0)
    assert sol.regime == "intermediate"
    assert sol.residual < 1e-10
    assert ab_ratio_of_d(sol.d_over_R) == pytest.approx(2.0, abs=1e-10)
    assert d_of_ab_ratio(6.0).regime == "separated"


def test_curve_monotone_and_endpoints():
    samples = curve_sample(0.5, 8.0, 50)
    ds = [s.d_over_R for s in samples]
    assert all(b - a >= -1e-12 for a, b in zip(ds[:-1], ds[1:]))
    assert samples[0].d_over_R == 0.0
    assert samples[-1].d_over_R == pytest.approx(math.sqrt(8.0), abs=1e-12)


def test_force_form_matches_ratio_form(rng):
    # the dimensional force balance vanishes at the d solving the ratio form
    for _ in range(12):
        d = float(rng.uniform(0.05, 1.95))
        ratio = ab_ratio_of_d(d)
        res = force_balance_residual(d, 1.0, ratio, 1.0)
        assert abs(res) < 1e-10 * max(1.0, ratio * math.pi**2)


def test_condition_integral_oracle():
    # net cross force between the offset disks vanishes at the solved d
    for ratio in np.linspace(1.2, 3.8, 20):
        sol = d_of_ab_ratio(float(ratio))
        res = cross_condition_residual(sol.d_over_R, float(ratio))
        scale = math.pi**2 * (ratio / sol.d_over_R + sol.d_over_R)
        assert abs(res) < 1e-6 * scale, ratio


def test_condition_integral_oracle_off_the_root(rng):
    # the boundary-integral force equals the closed force balance at any d, including where
    # unit circle 1 passes through disk 2's centre (d = 1) and where the disks touch (d = 2)
    for d in [*rng.uniform(1e-6, 2.0, 20), 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 2.0]:
        for ratio in (float(rng.uniform(0.3, 8.0)), 1.0, 4.0):
            scale = math.pi**2 * (ratio / d + d)
            closed = force_balance_residual(float(d), 1.0, ratio, 1.0)
            assert abs(cross_condition_residual(d, ratio) - closed) < 1e-10 * scale, (d, ratio)


def test_leading_order_densities():
    p = InteractionParams(1, 1, 1, 1, 2, 1, eta=0.05)
    (rho1, R1), (rho2, R2) = leading_order_densities(p)
    assert rho1 == pytest.approx(2.0 / math.pi)
    assert rho2 == pytest.approx(1.0 / math.pi)
    assert R1 == R2 == 1.0
    equal = leading_order_densities(InteractionParams(1, 1, 1, 1, 1.5, 1.5, eta=0.05))
    assert equal[0] == equal[1]


def test_leading_order_warns_at_large_eta():
    with pytest.warns(UserWarning):
        leading_order_densities(InteractionParams(1, 1, 1, 1, 2, 1, eta=0.5))


def test_leading_order_deviation_is_order_eta():
    eta = 0.05
    p = InteractionParams(1, 1.0, 1, 1.0, 2, 1, eta=eta)
    (rho1, _), (rho2, _) = leading_order_densities(p)
    quad = equilibrium_densities(p)
    for lead, coex in ((rho1, quad.coexist[0]), (rho2, quad.coexist[1])):
        assert abs(coex - lead) <= 0.2 * eta * lead
    # a case where the coexistence pair genuinely differs at O(eta): the
    # deviation is bounded by a modest multiple of eta and shrinks linearly
    def deviations(eta_val):
        p2 = InteractionParams(1, 2.0, 1, 0.5, 2, 1, eta=eta_val)
        leads = leading_order_densities(p2)
        quad2 = equilibrium_densities(p2)
        return [
            abs(coex - lead) / lead
            for (lead, _), coex in zip(leads, quad2.coexist)
        ]

    devs = deviations(eta)
    assert all(0.0 < d <= 5.0 * eta for d in devs)
    # linear scaling, checked deep in the asymptotic regime
    for big, small in zip(deviations(1e-3), deviations(1e-4)):
        assert small == pytest.approx(big / 10.0, rel=0.02)


def test_mass_ratio_never_enters():
    import inspect

    from swarm_eq import weak_cross

    for fn in (ab_ratio_of_d, d_of_ab_ratio, curve_sample):
        sig = inspect.signature(fn)
        assert not any("M" == name or "M1" in name or "M2" in name for name in sig.parameters)
