import cmath
import math

import numpy as np
import pytest

from swarm_eq.boundary_integrals import (
    ALPHA_GUARD,
    PerturbedDisk,
    _attraction,
    _repulsion,
    attraction_integral,
    log_contour_integral,
    oracle_attraction,
    oracle_log_contour,
    oracle_rational_contour,
    oracle_repulsion,
    perturbed_area,
    perturbed_moment,
    rational_contour_integral,
    repulsion_integral,
    same_circle_rational_part,
)
from swarm_eq.errors import NearSingularAlpha, ZeroMode


def test_log_contour_examples():
    assert log_contour_integral(0.5, 1, 0.0) == pytest.approx(-math.pi)
    assert log_contour_integral(1.0, 2, 0.0) == pytest.approx(-math.pi)
    # reciprocal symmetry
    assert log_contour_integral(2.0, 1, 0.0) == pytest.approx(
        log_contour_integral(0.5, 1, 0.0)
    )
    with pytest.raises(ZeroMode):
        log_contour_integral(0.5, 0, 0.0)


@pytest.mark.parametrize("alpha", [0.3, 0.8, 1.0, 1.6])
@pytest.mark.parametrize("mu", [-3, -1, 1, 2, 5])
def test_log_contour_vs_oracle(alpha, mu):
    theta0 = 0.73
    closed = log_contour_integral(alpha, mu, theta0)
    oracle = oracle_log_contour(alpha, mu, theta0)
    assert abs(closed - oracle) < 1e-8


def test_rational_examples():
    assert rational_contour_integral(0.5, 0, 0.0) == pytest.approx(8.0 * math.pi / 3.0)
    assert rational_contour_integral(0.5, 1, 0.0) == pytest.approx(4.0 * math.pi / 3.0)
    # |mu| symmetry of the modulus
    a = rational_contour_integral(0.7, 4, 0.31)
    b = rational_contour_integral(0.7, -4, 0.31)
    assert abs(a) == pytest.approx(abs(b))
    with pytest.raises(NearSingularAlpha):
        rational_contour_integral(1.0 + 1e-9, 1, 0.0)


@pytest.mark.parametrize("alpha", [0.25, 0.9, 1.3, 3.0])
@pytest.mark.parametrize("mu", [-2, 0, 1, 3])
def test_rational_vs_oracle(alpha, mu):
    closed = rational_contour_integral(alpha, mu, 0.41)
    oracle = oracle_rational_contour(alpha, mu, 0.41)
    assert abs(closed - oracle) < 1e-8


def test_log_derivative_identity():
    # d/dtheta0 of the log integral equals i*mu times its value
    h = 1e-6
    for alpha, mu in ((0.7, 3), (1.25, -2), (1.0, 1)):
        t0 = 0.9
        num = (log_contour_integral(alpha, mu, t0 + h) - log_contour_integral(alpha, mu, t0 - h)) / (
            2.0 * h
        )
        expected = 1j * mu * log_contour_integral(alpha, mu, t0)
        assert abs(num - expected) < 1e-4 * max(1.0, abs(expected))


def test_same_circle_examples():
    assert same_circle_rational_part(1.0, 1, 0.01, 0.01, 0.3) == pytest.approx(
        -0.01 * math.pi
    )
    assert same_circle_rational_part(2.0, 3, 0.02, 0.0, 0.7) == 0.0
    val = same_circle_rational_part(1.5, 4, 0.0, 0.03, 0.2)
    assert val == pytest.approx(-1.5 * math.pi * 0.03 * cmath.exp(-1j * 3 * 0.2))


def test_same_circle_two_sided_alpha_limit():
    # rational part of the alpha != 1 branch, alpha -> 1 from both sides
    R, m, eN, eT, t0 = 1.0, 3, 0.02, 0.01, 0.5

    def rational_part(alpha):
        # epsilon-dependent rational terms of the distinct-circle expansion,
        # with probe and boundary epsilons equal (the j = l situation)
        if alpha < 1.0:
            lead = -(R / 2.0) * math.pi * alpha * cmath.exp(1j * t0)
            return lead * (
                (eN - eT - alpha**m * (eN - eT)) * cmath.exp(1j * m * t0)
                + (eN + eT - alpha ** (m - 2) * (eN - eT)) * cmath.exp(-1j * m * t0)
            )
        lead = (R / 2.0) * math.pi / alpha * cmath.exp(1j * t0)
        return lead * (
            (eN + eT - alpha ** (-m) * (eN + eT)) * cmath.exp(1j * m * t0)
            + (eN - eT - alpha ** (2 - m) * (eN + eT)) * cmath.exp(-1j * m * t0)
        )

    target = same_circle_rational_part(R, m, eN, eT, t0)
    for alpha in (1.0 - 1e-5, 1.0 + 1e-5):
        assert abs(rational_part(alpha) - target) < 1e-4 * max(1.0, abs(target))


def test_attraction_examples():
    d = PerturbedDisk(R=1.0, m=2, eps_N=0.03, eps_T=0.01)
    np.testing.assert_allclose(
        attraction_integral(np.array([2.0, 0.0]), d), [2.0 * math.pi, 0.0]
    )
    d1 = PerturbedDisk(R=1.0, m=1, eps_N=0.01)
    np.testing.assert_allclose(
        attraction_integral(np.zeros(2), d1), [-0.01 * math.pi, 0.0]
    )
    d0 = PerturbedDisk(R=1.7, m=3)
    x = np.array([0.4, -0.9])
    np.testing.assert_allclose(attraction_integral(x, d0), math.pi * 1.7**2 * x)


def test_boundary_parametrization_takes_arrays():
    d = PerturbedDisk(R=1.3, m=3, eps_N=0.02, eps_T=-0.01)
    theta = np.linspace(0.0, 2.0 * math.pi, 17)
    expected = [
        1.3 * cmath.exp(1j * t) * (1.0 + 0.02 * math.cos(3 * t) - 0.01j * math.sin(3 * t)) for t in theta
    ]
    np.testing.assert_allclose(d.boundary_point(theta), expected, rtol=1e-15)
    assert d.boundary_point(float(theta[5])) == pytest.approx(expected[5], rel=1e-15)
    h = 1e-6
    central = (d.boundary_point(theta + h) - d.boundary_point(theta - h)) / (2.0 * h)
    np.testing.assert_allclose(d.boundary_derivative(theta), central, atol=1e-8)


def test_area_and_moment_facts():
    # moment matches the printed second-order expansion exactly; the area has
    # an extra m*eps_N*eps_T cross term at second order
    d = PerturbedDisk(R=1.3, m=1, eps_N=0.03, eps_T=0.02)
    area_exact = math.pi * 1.3**2 * (1.0 + 0.5 * (0.03**2 + 0.02**2) + 1 * 0.03 * 0.02)
    assert perturbed_area(d) == pytest.approx(area_exact, rel=1e-12)
    mom = math.pi * 1.3**3 * 0.03 + 0.25 * math.pi * 1.3**3 * (0.03**2 - 0.02**2) * (0.03 + 0.02)
    np.testing.assert_allclose(perturbed_moment(d), [mom, 0.0], atol=1e-12)
    d3 = PerturbedDisk(R=0.8, m=3, eps_N=0.04, eps_T=0.01)
    area3 = math.pi * 0.8**2 * (1.0 + 0.5 * (0.04**2 + 0.01**2) + 3 * 0.04 * 0.01)
    assert perturbed_area(d3) == pytest.approx(area3, rel=1e-12)
    np.testing.assert_allclose(perturbed_moment(d3), [0.0, 0.0], atol=1e-12)


def test_repulsion_unperturbed_cases():
    probe = PerturbedDisk(R=2.0, m=2)
    domain = PerturbedDisk(R=1.0, m=2)
    theta0 = 0.3
    expected = math.pi * 1.0**2 / 2.0 * np.array([math.cos(theta0), math.sin(theta0)])
    np.testing.assert_allclose(repulsion_integral(probe, theta0, domain), expected)
    same = PerturbedDisk(R=1.5, m=4)
    np.testing.assert_allclose(
        repulsion_integral(same, 1.1, same),
        math.pi * 1.5 * np.array([math.cos(1.1), math.sin(1.1)]),
    )


def test_repulsion_exact_consistency_at_equal_radii():
    # setting j = l in either distinct-radius branch reproduces the same-circle case
    m, t0 = 3, 0.8
    eN, eT = 0.02, 0.015
    same = PerturbedDisk(R=1.0, m=m, eps_N=eN, eps_T=eT)
    target = repulsion_integral(same, t0, same)
    for factor in (1.0 - 1e-9, 1.0 + 1e-9):
        near = PerturbedDisk(R=factor, m=m, eps_N=eN, eps_T=eT)
        # within the alpha guard both orderings take the same-circle branch
        np.testing.assert_allclose(repulsion_integral(same, t0, near), target, rtol=1e-8)


def test_repulsion_beta_to_one_limit():
    # epsilon-response of the outside branch converges (first order in 1 - beta)
    # to the same-circle case
    m, t0 = 3, 0.8
    eN, eT = 0.02, 0.015
    same = PerturbedDisk(R=1.0, m=m, eps_N=eN, eps_T=eT)
    base_same = PerturbedDisk(R=1.0, m=m)
    target = repulsion_integral(same, t0, same) - repulsion_integral(base_same, t0, base_same)

    def response(delta):
        domain = PerturbedDisk(R=1.0 - delta, m=m, eps_N=eN, eps_T=eT)
        base_domain = PerturbedDisk(R=1.0 - delta, m=m)
        return repulsion_integral(same, t0, domain) - repulsion_integral(
            base_same, t0, base_domain
        )

    errs = {}
    for delta in (1e-4, 1e-6):
        errs[delta] = float(np.max(np.abs(response(delta) - target)))
        assert errs[delta] <= 20.0 * m * delta * (eN + eT) * math.pi
    # linear convergence in (1 - beta)
    assert errs[1e-6] <= 2e-2 * errs[1e-4]


def _fitted_second_order(closed_fn, oracle_fn, scale):
    """Check error(eps=0) <= 1e-8 and O(eps^2) growth; return the fitted C."""
    errors = {}
    for eps in (0.0, 1e-3, 1e-2):
        err = float(np.max(np.abs(closed_fn(eps) - oracle_fn(eps))))
        errors[eps] = err
    assert errors[0.0] <= 1e-8 * scale
    c_fit = max((errors[e] - 1e-8) / e**2 for e in (1e-3, 1e-2))
    for e in (1e-3, 1e-2):
        assert errors[e] <= c_fit * e**2 + 1e-8 + 1e-12
    # quadratic scaling: the 1e-2 error must stay within a generous factor of
    # 100x the 1e-3 error (allowing O(eps^3) contamination)
    if errors[1e-3] > 1e-10:
        assert errors[1e-2] <= 400.0 * errors[1e-3]
    return c_fit


def test_attraction_oracle_second_order():
    x = np.array([1.4, 0.6])
    for m in (1, 2, 4):
        c = _fitted_second_order(
            lambda e, m=m: attraction_integral(x, PerturbedDisk(1.2, m, e, 0.7 * e)),
            lambda e, m=m: oracle_attraction(x, PerturbedDisk(1.2, m, e, 0.7 * e)),
            scale=math.pi * 1.2**2 * float(np.hypot(*x)),
        )
        assert math.isfinite(c)


@pytest.mark.parametrize("case", ["outside", "same", "inside"])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_repulsion_oracle_second_order(case, m):
    t0 = math.pi / 4.0
    r_probe, r_dom = {"outside": (1.5, 0.8), "same": (1.1, 1.1), "inside": (0.8, 1.5)}[case]

    def closed(e):
        probe = PerturbedDisk(r_probe, m, e, e)
        dom = probe if case == "same" else PerturbedDisk(r_dom, m, 0.6 * e, 0.4 * e)
        return repulsion_integral(probe, t0, dom)

    def oracle(e):
        probe = PerturbedDisk(r_probe, m, e, e)
        dom = probe if case == "same" else PerturbedDisk(r_dom, m, 0.6 * e, 0.4 * e)
        return oracle_repulsion(probe, t0, dom)

    c = _fitted_second_order(closed, oracle, scale=math.pi * min(r_probe, r_dom))
    assert math.isfinite(c)


def test_same_circle_quadrature_example():
    # formula vs quadrature over the true perturbed domain at eps = 0.01
    eps = 0.01
    disk = PerturbedDisk(1.0, 2, eps, eps)
    closed = repulsion_integral(disk, math.pi / 4, disk)
    oracle = oracle_repulsion(disk, math.pi / 4, disk)
    assert float(np.max(np.abs(closed - oracle))) < 5.0 * eps**2 * math.pi


@pytest.mark.parametrize("m", [1, 2, 5])
@pytest.mark.parametrize("r_domain", [0.6, 1.3, 1.3 * (1.0 + 0.5 * ALPHA_GUARD), 2.1])
def test_the_complex_repulsion_core_is_the_vector_api(m, r_domain):
    # every branch: domain inside the probe's circle, the same circle (exactly and within the guard), outside it
    probe = PerturbedDisk(1.3, m, 0.02, -0.015)
    domain = PerturbedDisk(r_domain, m, 0.03, 0.01)
    for t0 in (0.0, 0.37, 2.9):
        z = _repulsion(probe, domain, cmath.exp(1j * t0), math.cos(m * t0), math.sin(m * t0))
        assert [z.real, z.imag] == repulsion_integral(probe, t0, domain).tolist()
    # the same-circle branch reads the probe's amplitudes only; the others read the domain's normal one
    other = PerturbedDisk(r_domain, m, -0.04, 0.02)
    same_circle = abs(r_domain - 1.3) <= ALPHA_GUARD * 1.3
    assert (_repulsion(probe, other, 1j, 0.5, 0.5) == _repulsion(probe, domain, 1j, 0.5, 0.5)) == same_circle


@pytest.mark.parametrize("m", [1, 2, 4])
def test_the_complex_attraction_core_is_the_vector_api(m):
    disk = PerturbedDisk(1.2, m, 0.03, -0.02)
    for x in ([1.4, 0.6], [-0.3, 2.2], [0.0, 0.0]):
        z = _attraction(complex(*x), disk)
        assert [z.real, z.imag] == attraction_integral(np.array(x), disk).tolist()
    # the first-moment shift belongs to mode 1 alone
    assert _attraction(0j, disk) == (-math.pi * 1.2**3 * 0.03 if m == 1 else 0.0)


def test_perturbed_disk_validation():
    with pytest.raises(ValueError):
        PerturbedDisk(1.0, 2, 0.2, 0.0)
    with pytest.raises(ValueError):
        PerturbedDisk(-1.0, 2)
    with pytest.raises(ValueError):
        PerturbedDisk(1.0, 0)


_QUAD = dict(epsabs=1e-13, epsrel=1e-13, limit=1000)


def _quad_complex(f, a, b, points=None):
    """scipy's adaptive quad on the real and imaginary parts, as the oracles once integrated."""
    from scipy.integrate import quad

    kw = dict(_QUAD, points=points) if points is not None else _QUAD
    return complex(quad(lambda t: f(t).real, a, b, **kw)[0], quad(lambda t: f(t).imag, a, b, **kw)[0])


def _agrees(value, reference):
    return abs(value - reference) <= 1e-11 * max(1.0, abs(reference))


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_repulsion_oracle_agrees_with_adaptive_quad(m):
    t0 = 0.41
    for eps in (0.01, 0.05):
        probe = PerturbedDisk(1.1, m, eps, 0.8 * eps)
        # at 1.001 the domain's boundary passes about 1e-4 from the probe (for m = 3, eps = 0.01)
        for ratio in (0.5, 0.97, 1.0, 1.001, 1.0 / 0.97):
            domain = probe if ratio == 1.0 else PerturbedDisk(1.1 * ratio, m, 0.7 * eps, 0.3 * eps)
            x = probe.boundary_point(t0)

            def f(t):
                return -math.log(abs(x - domain.boundary_point(t))) * (-1j * domain.boundary_derivative(t))

            if ratio in (1.0, 1.001):
                reference = _quad_complex(f, t0 - math.pi, t0 + math.pi, points=[t0])
            else:
                reference = _quad_complex(f, 0.0, 2.0 * math.pi)
            value = oracle_repulsion(probe, t0, domain)
            assert _agrees(complex(*value), reference), (m, eps, ratio)


@pytest.mark.parametrize("alpha", [0.3, 1.0 - 1e-4, 1.0, 1.0 + 1e-4, 1.6])
def test_contour_oracles_agree_with_adaptive_quad(alpha):
    theta0 = 0.37
    for mu in (-3, 1, 5):
        def dist(phi):
            return (1.0 - alpha) ** 2 + 4.0 * alpha * math.sin(0.5 * phi) ** 2

        log_ref = _quad_complex(lambda p: math.log(dist(p)) * cmath.exp(1j * mu * p), -math.pi, math.pi, [0.0])
        assert _agrees(oracle_log_contour(alpha, mu, theta0), cmath.exp(1j * mu * theta0) * log_ref)
        if alpha != 1.0:
            rat_ref = _quad_complex(lambda p: cmath.exp(1j * mu * p) / dist(p), -math.pi, math.pi, [0.0])
            assert _agrees(oracle_rational_contour(alpha, mu, theta0), cmath.exp(1j * mu * theta0) * rat_ref)


@pytest.mark.parametrize("m", [1, 2, 4])
def test_attraction_oracle_agrees_with_adaptive_quad(m):
    from scipy.integrate import quad

    x = np.array([1.4, 0.6])
    for eps in (0.0, 0.01, 0.05):
        d = PerturbedDisk(1.2, m, eps, 0.7 * eps)

        def part(g):
            return quad(lambda t: g(d.boundary_point(t), d.boundary_derivative(t)), 0.0, 2.0 * math.pi, **_QUAD)[0]

        area = part(lambda p, dp: 0.5 * (p.real * dp.imag - p.imag * dp.real))
        moment = np.array([part(lambda p, dp: 0.5 * p.real**2 * dp.imag), part(lambda p, dp: -0.5 * p.imag**2 * dp.real)])
        reference = x * area - moment
        assert np.max(np.abs(oracle_attraction(x, d) - reference)) <= 1e-11 * max(1.0, np.max(np.abs(reference)))
