import math

import numpy as np
import pytest
from scipy.optimize import brentq

from conftest import draw_phase_in_regions, params_from_phase
from swarm_eq.equilibria import EXISTENCE_REGIONS, EquilibriumKind, build_equilibrium
from swarm_eq.errors import (
    ConstraintViolated,
    DegenerateMassRatio,
    FOutOfRange,
    QuadratureNonConvergence,
    SwarmEqError,
)
from swarm_eq import variational
from swarm_eq.model import InteractionParams, PhasePoint, RegionId, classify_region
from swarm_eq.variational import (
    PerturbationGrid,
    _threshold_f,
    attraction_term,
    f_of_A,
    grid_interaction_energy,
    heavy_nonminimizer_boundary,
    lambda_profile,
    lambda_quadrature_oracle,
    minimizer_verdict,
    project_perturbation,
    quadratic_term_identity,
    second_variation,
    target_lambda_pair,
    target_nonminimizer_boundary,
)

LIGHT = EquilibriumKind.TARGET_LIGHT_IN
HEAVY = EquilibriumKind.TARGET_HEAVY_IN
OVL = EquilibriumKind.OVERLAP_LIGHT_IN
OVH = EquilibriumKind.OVERLAP_HEAVY_IN


def reference_derivative(cfg, species, r):
    """Piecewise radial derivative transcribed case by case (test-side oracle)."""
    p = cfg.params
    a_s, a_c, b_s, b_c = p.a_s, p.ac_eff, p.b_s, p.bc_eff
    M1, M2 = p.M1, p.M2
    rho1 = (b_s * M1 + b_c * M2) / (math.pi * a_s)
    rho2 = (b_c * M1 + b_s * M2) / (math.pi * a_s)
    kind = cfg.kind
    if kind is LIGHT:
        r2, r1, r0 = cfg.radii
        if species == 1:
            if r < r2:
                slope = b_s * M1 + b_c * M2 - (a_c / a_s) * (b_c * M1 + b_s * M2)
            elif r < r1:
                slope = b_s * M1 + b_c * M2 - a_c * M2 / r**2
            elif r < r0:
                slope = 0.0
            else:
                slope = b_s * M1 + b_c * M2 - (a_s * M1 + a_c * M2) / r**2
        else:
            if r < r2:
                slope = 0.0
            elif r < r1:
                slope = math.pi * a_s * rho2 * (1.0 - r2**2 / r**2)
            elif r < r0:
                slope = math.pi * a_s * rho2 * (1.0 - r2**2 / r**2) - math.pi * a_c * rho1 * (
                    1.0 - r1**2 / r**2
                )
            else:
                slope = b_c * M1 + b_s * M2 - (a_c * M1 + a_s * M2) / r**2
        return slope * r
    if kind is HEAVY:
        r1, r2, r0 = cfg.radii
        if species == 1:
            if r < r1:
                slope = 0.0
            elif r < r2:
                slope = math.pi * a_s * rho1 * (1.0 - r1**2 / r**2)
            elif r < r0:
                slope = math.pi * a_s * rho1 * (1.0 - r1**2 / r**2) - math.pi * a_c * rho2 * (
                    1.0 - r2**2 / r**2
                )
            else:
                slope = b_s * M1 + b_c * M2 - (a_s * M1 + a_c * M2) / r**2
        else:
            if r < r1:
                slope = b_c * M1 + b_s * M2 - (a_c / a_s) * (b_s * M1 + b_c * M2)
            elif r < r2:
                slope = b_c * M1 + b_s * M2 - a_c * M1 / r**2
            elif r < r0:
                slope = 0.0
            else:
                slope = b_c * M1 + b_s * M2 - (a_c * M1 + a_s * M2) / r**2
        return slope * r
    if kind is OVL:
        r2, r1 = cfg.radii
        rho1_out = rho1
        if species == 1:
            if r < r1:
                return 0.0
            return ((b_s * M1 + b_c * M2) * r**2 - (a_s * M1 + a_c * M2)) / r
        if r < r2:
            slope = 0.0
        elif r < r1:
            slope = (
                b_c * M1
                + b_s * M2
                - (a_c * M1 + a_s * M2) / r**2
                - math.pi * a_c * rho1_out * (1.0 - r1**2 / r**2)
            )
        else:
            slope = b_c * M1 + b_s * M2 - (a_c * M1 + a_s * M2) / r**2
        return slope * r
    # overlap, heavier inside
    r1, r2 = cfg.radii
    rho2_out = rho2
    if species == 1:
        if r < r1:
            slope = 0.0
        elif r < r2:
            slope = (
                b_s * M1
                + b_c * M2
                - (a_s * M1 + a_c * M2) / r**2
                - math.pi * a_c * rho2_out * (1.0 - r2**2 / r**2)
            )
        else:
            slope = b_s * M1 + b_c * M2 - (a_s * M1 + a_c * M2) / r**2
        return slope * r
    if r < r2:
        return 0.0
    return ((b_c * M1 + b_s * M2) * r**2 - (a_c * M1 + a_s * M2)) / r


@pytest.mark.parametrize("kind", [LIGHT, HEAVY, OVL, OVH])
def test_profile_matches_printed_derivatives(kind, rng):
    for A, B in draw_phase_in_regions(rng, EXISTENCE_REGIONS[kind], n=8):
        cfg = build_equilibrium(kind, params_from_phase(A, B))
        prof = {s: lambda_profile(cfg, s) for s in (1, 2)}
        bounds = [0.0, *cfg.radii, 2.5 * cfg.outermost_radius]
        for s in (1, 2):
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                if hi <= lo:
                    continue
                for r in np.linspace(lo + 0.07 * (hi - lo), hi - 0.07 * (hi - lo), 4):
                    expected = reference_derivative(cfg, s, r)
                    scale = max(1.0, abs(expected))
                    assert prof[s].derivative(r) == pytest.approx(
                        expected, abs=1e-10 * scale
                    ), (kind, s, r)


def test_profile_zero_on_support(rng):
    for kind in (LIGHT, HEAVY, OVL, OVH):
        for A, B in draw_phase_in_regions(rng, EXISTENCE_REGIONS[kind], n=5):
            cfg = build_equilibrium(kind, params_from_phase(A, B))
            for s in (1, 2):
                prof = lambda_profile(cfg, s)
                for lo, hi in cfg.support_intervals(s):
                    width = hi - lo
                    for r in np.linspace(lo + 0.05 * width, hi - 0.05 * width, 5):
                        assert abs(prof.derivative(r)) < 1e-9 * max(1.0, abs(prof.plateau))


def test_profile_continuity_at_breakpoints(rng):
    for kind in (LIGHT, HEAVY, OVL, OVH):
        for A, B in draw_phase_in_regions(rng, EXISTENCE_REGIONS[kind], n=5):
            cfg = build_equilibrium(kind, params_from_phase(A, B))
            for s in (1, 2):
                prof = lambda_profile(cfg, s)
                for b in prof.breakpoints:
                    left = prof.value(b * (1.0 - 1e-12))
                    right = prof.value(b * (1.0 + 1e-12))
                    assert left == pytest.approx(right, rel=1e-10)


def test_light_target_inner_slope_sign():
    # inner-disk slope of species 1 equals b_s*M2*(M + B - A(BM+1)) and is negative
    p = params_from_phase(3.0, 3.5)
    cfg = build_equilibrium(LIGHT, p)
    prof = lambda_profile(cfg, 1)
    r = 0.5 * cfg.radii[0]
    expected = 1.0 * 1.0 * (2.0 + 3.5 - 3.0 * (3.5 * 2.0 + 1.0)) * r
    assert prof.derivative(r) == pytest.approx(expected)
    assert expected < 0
    # species 2 increases just above its disk
    prof2 = lambda_profile(cfg, 2)
    assert prof2.derivative(cfg.radii[0] * 1.01) > 0


def test_plateau_matches_oracle(rng):
    for kind in (LIGHT, HEAVY, OVL, OVH):
        for A, B in draw_phase_in_regions(rng, EXISTENCE_REGIONS[kind], n=2):
            cfg = build_equilibrium(kind, params_from_phase(A, B))
            for s in (1, 2):
                prof = lambda_profile(cfg, s)
                lo, hi = cfg.support_intervals(s)[0]
                r = lo + 0.41 * (hi - lo)
                oracle = lambda_quadrature_oracle(cfg, s, r)
                assert oracle == pytest.approx(prof.plateau, rel=1e-6)


def test_oracle_guards_breakpoints():
    cfg = build_equilibrium(LIGHT, params_from_phase(3, 3.5))
    with pytest.raises(QuadratureNonConvergence):
        lambda_quadrature_oracle(cfg, 2, cfg.radii[1] + 1e-8)


def test_oracle_center_equals_plateau_and_far_field():
    cfg = build_equilibrium(LIGHT, params_from_phase(3, 3.5))
    lam2, _ = target_lambda_pair(cfg.params)
    assert lambda_quadrature_oracle(cfg, 2, 0.0) == pytest.approx(lam2, rel=1e-9)
    prof2 = lambda_profile(cfg, 2)
    r_far = 3.0 * cfg.outermost_radius
    assert lambda_quadrature_oracle(cfg, 2, r_far) == pytest.approx(
        prof2.value(r_far), rel=1e-9
    )


def test_interior_zero_location_iff_d3(rng):
    # sign change of Lambda2' inside the annulus at the printed radius, only in D3
    for A, B in draw_phase_in_regions(rng, ("D3",), n=8):
        p = params_from_phase(A, B)
        cfg = build_equilibrium(LIGHT, p)
        prof = lambda_profile(cfg, 2)
        r2, r1, r0 = cfg.radii
        rho1 = (p.b_s * p.M1 + p.bc_eff * p.M2) / (math.pi * p.a_s)
        rho2 = (p.bc_eff * p.M1 + p.b_s * p.M2) / (math.pi * p.a_s)
        num = math.pi * p.ac_eff * rho1 * r1**2 - math.pi * p.a_s * rho2 * r2**2
        den = math.pi * p.ac_eff * rho1 - math.pi * p.a_s * rho2
        expected = math.sqrt(num / den)
        assert r1 < expected < r0
        root = brentq(prof.derivative, r1 * (1 + 1e-12), r0 * (1 - 1e-12))
        assert root == pytest.approx(expected, rel=1e-10)
    for A, B in draw_phase_in_regions(rng, ("D4", "D5"), n=8):
        cfg = build_equilibrium(LIGHT, params_from_phase(A, B))
        prof = lambda_profile(cfg, 2)
        r2, r1, r0 = cfg.radii
        rs = np.linspace(r1 * (1 + 1e-9), r0 * (1 - 1e-9), 64)
        assert np.all([prof.derivative(r) > 0 for r in rs])


def test_exterior_minimum_location_in_d3(rng):
    for A, B in draw_phase_in_regions(rng, ("D3",), n=8):
        p = params_from_phase(A, B)
        cfg = build_equilibrium(LIGHT, p)
        prof = lambda_profile(cfg, 2)
        r0 = cfg.radii[2]
        expected = math.sqrt(
            (p.ac_eff * p.M1 + p.a_s * p.M2) / (p.bc_eff * p.M1 + p.b_s * p.M2)
        )
        assert expected > r0
        root = brentq(prof.derivative, r0 * (1 + 1e-12), 20.0 * r0)
        assert root == pytest.approx(expected, rel=1e-10)


def test_f_of_A_and_threshold_example():
    assert f_of_A(3.0, 2.0) == pytest.approx(0.8999, abs=2e-4)
    b_star = target_nonminimizer_boundary(3.0, 2.0)
    assert b_star == pytest.approx(0.727, abs=1e-3)
    # at (A, B) = (3, 2) the light-inside target IS a class-B minimizer
    cfg = build_equilibrium(LIGHT, params_from_phase(3.0, 2.0))
    assert minimizer_verdict(cfg).is_class_B_minimizer


def test_threshold_degenerate_and_range_errors():
    with pytest.raises(DegenerateMassRatio):
        target_nonminimizer_boundary(3.0, 1.0)
    with pytest.raises(FOutOfRange):
        f_of_A(0.5, 2.0)
    with pytest.raises(DegenerateMassRatio):
        heavy_nonminimizer_boundary(3.0, 1.0)


def test_lambda_pair_sign_iff_below_threshold(rng):
    # lambda_m < lambda_2 exactly when B < B* (100 random D3 points)
    count = 0
    for A, B in draw_phase_in_regions(rng, ("D3",), n=100):
        p = params_from_phase(A, B)
        lam2, lam_m = target_lambda_pair(p)
        b_star = target_nonminimizer_boundary(A, 2.0)
        if abs(B - b_star) < 1e-6:
            continue
        assert (lam_m < lam2) == (B < b_star), (A, B, b_star)
        count += 1
    assert count > 90


def test_lambda_pair_matches_profile():
    p = params_from_phase(3.0, 0.5)
    cfg = build_equilibrium(LIGHT, p)
    lam2, lam_m = target_lambda_pair(p)
    v = minimizer_verdict(cfg)
    assert v.lambda_support == pytest.approx(lam2, rel=1e-12)
    assert v.lambda_min_exterior == pytest.approx(lam_m, rel=1e-12)


def test_minimizer_region_table(rng):
    # light target: true on D4 u D5; in D3 iff B >= B*
    for A, B in draw_phase_in_regions(rng, ("D4", "D5"), n=10):
        assert minimizer_verdict(build_equilibrium(LIGHT, params_from_phase(A, B))).is_class_B_minimizer
    for A, B in draw_phase_in_regions(rng, ("D3",), n=20):
        v = minimizer_verdict(build_equilibrium(LIGHT, params_from_phase(A, B)))
        b_star = target_nonminimizer_boundary(A, 2.0)
        if abs(B - b_star) > 1e-6:
            assert v.is_class_B_minimizer == (B >= b_star)
            if not v.is_class_B_minimizer:
                assert v.swarm_minimizer
                assert v.failure_radius > build_equilibrium(LIGHT, params_from_phase(A, B)).radii[2]
    # heavy target: true on D2 u D3; in D4 iff B <= heavy threshold
    for A, B in draw_phase_in_regions(rng, ("D2", "D3"), n=10):
        assert minimizer_verdict(build_equilibrium(HEAVY, params_from_phase(A, B))).is_class_B_minimizer
    for A, B in draw_phase_in_regions(rng, ("D4",), n=20):
        v = minimizer_verdict(build_equilibrium(HEAVY, params_from_phase(A, B)))
        try:
            b_star = heavy_nonminimizer_boundary(A, 2.0)
        except FOutOfRange:
            continue
        if abs(B - b_star) > 1e-6:
            assert v.is_class_B_minimizer == (B <= b_star), (A, B, b_star)


def test_minimizer_overlap_kinds(rng):
    for A, B in draw_phase_in_regions(rng, ("D6",), n=10):
        assert minimizer_verdict(build_equilibrium(OVL, params_from_phase(A, B))).is_class_B_minimizer
    for A, B in draw_phase_in_regions(rng, ("D3",), n=10):
        v = minimizer_verdict(build_equilibrium(OVL, params_from_phase(A, B)))
        assert not v.is_class_B_minimizer
        assert v.failure_radius > build_equilibrium(OVL, params_from_phase(A, B)).radii[1]
    for A, B in draw_phase_in_regions(rng, ("D1",), n=10):
        assert minimizer_verdict(build_equilibrium(OVH, params_from_phase(A, B))).is_class_B_minimizer
    for A, B in draw_phase_in_regions(rng, ("D4",), n=10):
        assert not minimizer_verdict(build_equilibrium(OVH, params_from_phase(A, B))).is_class_B_minimizer


@pytest.mark.parametrize("kind", [LIGHT, OVL])
def test_profiles_are_kept_on_the_config_object(monkeypatch, kind):
    # lambda_profile keeps each profile on the config it was built from, so the verdict reads the
    # two its caller has just taken; an equal config from a second build_equilibrium builds its own
    calls = []
    disk_terms = variational._disk_terms
    monkeypatch.setattr(variational, "_disk_terms", lambda cfg, s: calls.append(s) or disk_terms(cfg, s))
    p = params_from_phase(3.0, 3.5) if kind is LIGHT else params_from_phase(0.5, 1.0)
    cfg = build_equilibrium(kind, p)
    profiles = [lambda_profile(cfg, s) for s in (1, 2)]
    assert calls == [1, 2]
    verdict = minimizer_verdict(cfg)
    assert calls == [1, 2] and [lambda_profile(cfg, s) for s in (1, 2)] == profiles
    twin = build_equilibrium(kind, p)
    assert twin == cfg and twin is not cfg
    assert minimizer_verdict(twin) == verdict
    assert calls == [1, 2, 1, 2]


def test_spec_minimizer_examples():
    assert minimizer_verdict(build_equilibrium(LIGHT, params_from_phase(3, 3.5))).is_class_B_minimizer
    assert minimizer_verdict(build_equilibrium(OVL, params_from_phase(0.5, 1.0))).is_class_B_minimizer


# ---------------------------------------------------------------------------
# second variation


def admissible_perturbation(rng, grid):
    t1 = rng.normal(size=grid.n**2)
    t2 = rng.normal(size=grid.n**2)
    return project_perturbation(grid, t1, t2)


def test_second_variation_zero():
    grid = PerturbationGrid((0.0, 0.0), 1.0, 12)
    p = params_from_phase(0.5, 2.0)
    z = np.zeros(grid.n**2)
    assert second_variation(grid, z, z, p) == 0.0


def test_constraint_enforcement():
    grid = PerturbationGrid((0.0, 0.0), 1.0, 8)
    p = params_from_phase(0.5, 2.0)
    bad = np.ones(grid.n**2)
    with pytest.raises(ConstraintViolated):
        second_variation(grid, bad, -0.5 * bad, p)


def test_projection_satisfies_constraints(rng):
    grid = PerturbationGrid((0.3, -0.2), 1.4, 15)
    t1, t2 = admissible_perturbation(rng, grid)
    assert abs(grid.integrate(t1)) < 1e-12
    assert abs(grid.integrate(t2)) < 1e-12
    assert np.max(np.abs(grid.moment(t1) + grid.moment(t2))) < 1e-12


def test_attraction_term_identity(rng):
    for _ in range(30):
        n = int(rng.integers(8, 20))
        grid = PerturbationGrid((rng.normal(), rng.normal()), rng.uniform(0.5, 2.0), n)
        p = params_from_phase(rng.uniform(0.2, 3.0), rng.uniform(0.2, 3.0))
        t1, t2 = admissible_perturbation(rng, grid)
        direct = attraction_term(grid, t1, t2, p)
        closed = quadratic_term_identity(grid, t1, p)
        assert direct == pytest.approx(closed, rel=1e-8, abs=1e-12)


def test_global_minimizer_inequality(rng):
    # E2 >= 0 (to rounding) whenever self-repulsion dominates and cross-attraction does
    for _ in range(50):
        n = int(rng.integers(8, 18))
        grid = PerturbationGrid((rng.normal(), rng.normal()), rng.uniform(0.5, 2.0), n)
        a_s = rng.uniform(0.5, 3.0)
        b_s = rng.uniform(0.5, 3.0)
        p = InteractionParams(
            a_s, a_s * rng.uniform(0.05, 0.98), b_s, b_s * rng.uniform(1.02, 3.0), 2.0, 1.0
        )
        t1, t2 = admissible_perturbation(rng, grid)
        assert second_variation(grid, t1, t2, p) >= -1e-8


def test_energy_is_second_variation_functional(rng):
    grid = PerturbationGrid((0.0, 0.0), 1.0, 10)
    p = params_from_phase(0.5, 2.0)
    t1, t2 = admissible_perturbation(rng, grid)
    assert second_variation(grid, t1, t2, p) == grid_interaction_energy(grid, t1, t2, p)


def _heavy_g_written_out(A, M):
    """The heavy-inside threshold function as once written out on its own."""
    return (A + M) / (A * M + 1.0) * (1.0 + A / M) ** (M / A) * (1.0 + 1.0 / (A * M)) ** (-A * M)


def _outcome(f, *args):
    try:
        return f(*args)
    except (ArithmeticError, SwarmEqError) as exc:
        return type(exc)


def test_heavy_threshold_is_the_light_threshold_function_at_inverse_mass_ratio():
    rng = np.random.default_rng(1503)
    A_values = np.concatenate([rng.uniform(0.0, 1.0, 1000), rng.uniform(1.0, 8.0, 1000), [0.0, 1.0]])
    below_one = 0
    for A in A_values.tolist():
        for M in (1.0, 1.0 + 1e-13, 2.0, float(rng.uniform(1.0, 5.0))):
            got = _outcome(heavy_nonminimizer_boundary, A, M)
            if abs(M - 1.0) < 1e-12:
                assert got is DegenerateMassRatio
                continue
            g = _outcome(_heavy_g_written_out, A, M)
            if isinstance(g, type):
                assert got is g, (A, M)
            elif not 1.0 / M < g < M:
                assert got is FOutOfRange, (A, M)
            else:
                # one-ulp input changes move g by up to max(1, A M, M/A) ulps, and B by its condition number in g
                cond = max(1.0, A * M, M / A) * max(1.0, (M * M - 1.0) * g / abs((g * M - 1.0) * (M - g)))
                assert got == pytest.approx((M - g) / (g * M - 1.0), rel=1e-14 * cond), (A, M)
                below_one += A <= 1.0
    # the heavy threshold has no A > 1 restriction
    assert below_one >= 1000


def test_threshold_function_keeps_its_digits_at_small_A():
    # against 50-digit arithmetic on the same float inputs; float powers of 1 + AM lost up to 4.4e-12 here
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    rng = np.random.default_rng(1604)
    worst = 0.0
    for A in np.exp(rng.uniform(math.log(1e-4), 0.0, 400)).tolist():
        M0 = float(rng.uniform(1.0, 5.0))
        for M in (M0, 1.0 / M0):
            a, m = mpmath.mpf(A), mpmath.mpf(M)
            exact = (a * m + 1) / (a + m) * (1 + a * m) ** (1 / (a * m)) * (1 + m / a) ** (-a / m)
            worst = max(worst, float(abs(_threshold_f(A, M) - exact) / exact))
    assert worst <= 1e-14
