import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import draw_phase_in_regions, params_from_phase
from swarm_eq.equilibria import (
    EXISTENCE_REGIONS,
    EquilibriumKind,
    build_equilibrium,
    force_scale,
    mass_integrals,
    velocity_residual,
)
from swarm_eq.errors import SampleOutsideSupport
from swarm_eq.model import InteractionParams, PhasePoint, classify_region, to_phase_point

ALL_KINDS = list(EquilibriumKind)


def test_target_light_example_radii():
    p = InteractionParams(1, 3, 1, 3.5, 2, 1)
    cfg = build_equilibrium(EquilibriumKind.TARGET_LIGHT_IN, p)
    assert cfg.exists
    r2, r1, r0 = cfg.radii
    assert r2**2 == pytest.approx(1.0 / 8.0)
    assert r1**2 == pytest.approx(6.0 / 11.0)
    assert r0**2 == pytest.approx(10.0 / 11.0)


def test_target_degenerate_touching():
    # identical self/cross coefficients at equal masses: inner disk touches annulus
    p = InteractionParams(1, 1 + 1e-15, 1, 1, 1, 1)
    cfg = build_equilibrium(EquilibriumKind.TARGET_LIGHT_IN, p)
    assert cfg.exists
    assert cfg.boundary_degenerate


def test_overlap_light_absent_in_d1():
    cfg = build_equilibrium(EquilibriumKind.OVERLAP_LIGHT_IN, params_from_phase(0.5, 0.4))
    assert not cfg.exists
    assert "D1" in cfg.reason


def test_mass_bookkeeping(rng):
    for kind in ALL_KINDS:
        regions = EXISTENCE_REGIONS[kind]
        for A, B in draw_phase_in_regions(rng, regions, n=20):
            p = params_from_phase(A, B)
            cfg = build_equilibrium(kind, p)
            assert cfg.exists, (kind, A, B, cfg.reason)
            m1, m2 = mass_integrals(cfg)
            assert m1 == pytest.approx(p.M1, rel=1e-12)
            assert m2 == pytest.approx(p.M2, rel=1e-12)


def test_radii_ordered_and_positive(rng):
    for kind in ALL_KINDS:
        for A, B in draw_phase_in_regions(rng, EXISTENCE_REGIONS[kind], n=10):
            cfg = build_equilibrium(kind, params_from_phase(A, B))
            radii = np.asarray(cfg.radii)
            assert np.all(radii > 0)
            assert np.all(np.diff(radii) >= 0)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_kind_roles_describe_the_built_state(rng, kind):
    core = kind.core_species
    for M in (2.0, 3.5):
        for A, B in draw_phase_in_regions(rng, EXISTENCE_REGIONS[kind], M=M, n=10):
            p = params_from_phase(A, B, M)
            cfg = build_equilibrium(kind, p)
            outer = cfg.shells[-1]
            assert outer.density(core) == 0.0 and outer.density(3 - core) > 0.0
            if kind.is_target:
                assert cfg.shells[0].density(3 - core) == 0.0 and cfg.shells[0].density(core) > 0.0
            mass = mass_integrals(cfg)
            assert (mass[2 - core], mass[core - 1]) == pytest.approx(kind.masses(p), rel=1e-12)
            assert kind.is_target == (len(cfg.radii) == 3)


def test_swap_duality_heavy_vs_light(rng):
    # heavy-inside radii equal light-inside radii with the masses interchanged
    for A, B in draw_phase_in_regions(rng, ("D3", "D4"), n=10):
        a_s, b_s = 1.0, 1.0
        heavy = build_equilibrium(
            EquilibriumKind.TARGET_HEAVY_IN,
            InteractionParams(a_s, A, b_s, B, 2.0, 1.0),
        )
        # swap masses inside the light-inside formulas
        r2_sw = math.sqrt(a_s * 2.0 / (B * 1.0 + b_s * 2.0))
        r1_sw = math.sqrt(A * 2.0 / (b_s * 1.0 + B * 2.0))
        r0_sw = math.sqrt((a_s * 1.0 + A * 2.0) / (b_s * 1.0 + B * 2.0))
        assert heavy.radii == pytest.approx((r2_sw, r1_sw, r0_sw))


def test_existence_matches_region(rng):
    for _ in range(1000):
        A = rng.uniform(0.05, 5.0)
        B = rng.uniform(0.05, 5.0)
        M = rng.uniform(1.05, 6.0)
        q = PhasePoint(A, B, M)
        region = classify_region(q)
        if region.is_boundary:
            continue
        p = InteractionParams(1.0, A, 1.0, B, M, 1.0)
        for kind in ALL_KINDS:
            cfg = build_equilibrium(kind, p)
            assert cfg.exists == (region in EXISTENCE_REGIONS[kind]), (
                kind,
                A,
                B,
                M,
                region,
            )


def test_velocity_residual_small(rng):
    for kind in ALL_KINDS:
        for A, B in draw_phase_in_regions(rng, EXISTENCE_REGIONS[kind], n=5):
            cfg = build_equilibrium(kind, params_from_phase(A, B))
            radii = []
            for lo, hi in cfg.support_intervals(1) + cfg.support_intervals(2):
                radii.extend(np.linspace(lo + 1e-3 * (hi - lo), hi - 1e-3 * (hi - lo), 10))
            res = velocity_residual(cfg, radii)
            assert max(res) < 1e-10 * force_scale(cfg)


def test_velocity_residual_outside_support():
    cfg = build_equilibrium(EquilibriumKind.TARGET_LIGHT_IN, params_from_phase(3, 3.5))
    with pytest.raises(SampleOutsideSupport):
        velocity_residual(cfg, [2.0 * cfg.outermost_radius])
    # the empty gap between disk and annulus is outside both supports
    with pytest.raises(SampleOutsideSupport):
        velocity_residual(cfg, [0.5 * (cfg.radii[0] + cfg.radii[1])])


def test_densities_match_quadruple():
    from swarm_eq.model import equilibrium_densities

    p = params_from_phase(0.5, 1.0)  # D6: overlap light inside
    cfg = build_equilibrium(EquilibriumKind.OVERLAP_LIGHT_IN, p)
    quad = equilibrium_densities(p)
    assert cfg.shells[0].rho1 == pytest.approx(quad.coexist[0])
    assert cfg.shells[0].rho2 == pytest.approx(quad.coexist[1])
    assert cfg.shells[1].rho1 == pytest.approx(quad.only1[0])
    assert cfg.shells[1].rho2 == 0.0

    pt = params_from_phase(3.0, 3.5)  # D4: both targets exist
    quad_t = equilibrium_densities(pt)
    light = build_equilibrium(EquilibriumKind.TARGET_LIGHT_IN, pt)
    assert light.shells[0].rho2 == pytest.approx(quad_t.only2[1])
    assert light.shells[1].rho1 == pytest.approx(quad_t.only1[0])
    heavy = build_equilibrium(EquilibriumKind.TARGET_HEAVY_IN, pt)
    assert heavy.shells[0].rho1 == pytest.approx(quad_t.only1[0])
    assert heavy.shells[1].rho2 == pytest.approx(quad_t.only2[1])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(A=st.floats(0.05, 5.0), B=st.floats(0.05, 5.0), M=st.floats(1.0, 4.0))
def test_existence_iff_region_union(A, B, M):
    region = classify_region(PhasePoint(A, B, M))
    assume(not region.is_boundary)
    assume(abs(A - 1.0) > 1e-12)  # the coexistence pair is singular at A = 1
    p = params_from_phase(A, B, M)
    for kind in ALL_KINDS:
        cfg = build_equilibrium(kind, p)
        if cfg.boundary_degenerate:
            # touching radii count as existing; at M = 1, B = 1 the overlap radii
            # touch for every A, a line the region union leaves out
            continue
        assert cfg.exists == (region in EXISTENCE_REGIONS[kind]), kind


_POINT_IN = {
    "D1": (0.5, 0.4), "D2": (1.2, 0.35), "D3": (2.1, 1.0), "D4": (3.0, 3.5), "D5": (1.05, 2.6), "D6": (0.5, 1.0),
}

_REASONS = {
    ("D1", "target-light"): "inner disk exceeds annulus (point is in D1; existence requires D3 or D4 or D5)",
    ("D1", "target-heavy"): "inner disk exceeds annulus (point is in D1; existence requires D2 or D3 or D4)",
    ("D1", "overlap-light"): "coexistence disk exceeds outer disk (point is in D1; existence requires D3 or D6)",
    ("D2", "target-light"): "inner disk exceeds annulus (point is in D2; existence requires D3 or D4 or D5)",
    ("D2", "overlap-light"): "coexistence density nonpositive (point is in D2; existence requires D3 or D6)",
    ("D2", "overlap-heavy"): "coexistence density nonpositive (point is in D2; existence requires D1 or D4)",
    ("D3", "overlap-heavy"): "coexistence disk exceeds outer disk (point is in D3; existence requires D1 or D4)",
    ("D4", "overlap-light"): "coexistence disk exceeds outer disk (point is in D4; existence requires D3 or D6)",
    ("D5", "target-heavy"): "inner disk exceeds annulus (point is in D5; existence requires D2 or D3 or D4)",
    ("D5", "overlap-light"): "coexistence density nonpositive (point is in D5; existence requires D3 or D6)",
    ("D5", "overlap-heavy"): "coexistence density nonpositive (point is in D5; existence requires D1 or D4)",
    ("D6", "target-light"): "inner disk exceeds annulus (point is in D6; existence requires D3 or D4 or D5)",
    ("D6", "target-heavy"): "inner disk exceeds annulus (point is in D6; existence requires D2 or D3 or D4)",
    ("D6", "overlap-heavy"): "coexistence disk exceeds outer disk (point is in D6; existence requires D1 or D4)",
}


@pytest.mark.parametrize("region", sorted(_POINT_IN))
def test_reason_text_names_failed_check_and_region(region):
    p = params_from_phase(*_POINT_IN[region])
    assert classify_region(to_phase_point(p)).value == region
    for kind in ALL_KINDS:
        cfg = build_equilibrium(kind, p)
        assert cfg.reason == _REASONS.get((region, kind.value), "")
        assert cfg.exists == ((region, kind.value) not in _REASONS)
