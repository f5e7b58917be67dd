import math

import numpy as np
import pytest

from swarm_eq.errors import CoexistenceSingular, SingularEvaluation
from swarm_eq.model import (
    BOUNDARY,
    REGION_TAGS,
    InteractionParams,
    PhasePoint,
    RegionId,
    _density_quadruple,
    classify_region,
    curve_c1,
    curve_c2,
    equilibrium_densities,
    kernel_grad_cross,
    kernel_grad_self,
    region_code_grid,
    region_tag_grid,
    to_phase_point,
)


def test_phase_point_examples():
    q = to_phase_point(InteractionParams(1, 3, 1, 3.5, 2, 1))
    assert (q.A, q.B, q.M) == (3.0, 3.5, 2.0)
    q = to_phase_point(InteractionParams(2, 2, 5, 5, 1, 1))
    assert (q.A, q.B, q.M) == (1.0, 1.0, 1.0)
    q = to_phase_point(InteractionParams(1, 6, 1, 1, 1, 1, eta=0.05))
    assert q.A == pytest.approx(0.3)
    assert q.B == pytest.approx(0.05)
    assert q.A / q.B == pytest.approx(6.0)


def test_params_validation():
    with pytest.raises(ValueError):
        InteractionParams(0.0, 1, 1, 1, 1, 1)
    with pytest.raises(ValueError):
        InteractionParams(1, 1, 1, 1, 1, 2)  # M1 < M2 rejected, not swapped
    with pytest.raises(ValueError):
        InteractionParams(1, 1, 1, 1, 1, 1, eta=0.0)
    with pytest.raises(ValueError):
        InteractionParams(1, 1, 1, 1, 1, 1, eta=1.5)
    # M1 == M2 is accepted
    InteractionParams(1, 2, 1, 2, 1.5, 1.5)


def test_classify_examples():
    assert classify_region(PhasePoint(3, 3.5, 2)) is RegionId.D4
    assert classify_region(PhasePoint(0.5, 1, 2)) is RegionId.D6
    assert classify_region(PhasePoint(1, 1, 2)) is RegionId.TRIPLE_POINT
    assert classify_region(PhasePoint(0.5, 0.4, 2)) is RegionId.D1
    # one point per remaining region
    assert classify_region(PhasePoint(1.0, 0.35, 2)) is RegionId.D2
    assert classify_region(PhasePoint(2.1, 1.0, 2)) is RegionId.D3
    assert classify_region(PhasePoint(1.05, 2.6, 2)) is RegionId.D5


def test_classify_boundary_tags():
    M = 2.0
    assert classify_region(PhasePoint(2.2, 2.2, M)) is RegionId.BOUNDARY_DIAGONAL
    B = 0.7
    assert classify_region(PhasePoint(curve_c1(B, M), B, M)) is RegionId.BOUNDARY_C1
    assert classify_region(PhasePoint(curve_c2(B, M), B, M)) is RegionId.BOUNDARY_C2


def test_c1_c2_meet_at_one():
    for M in (1.0, 1.2, 2.0, 7.0):
        assert curve_c1(1.0, M) == pytest.approx(1.0, abs=1e-15)
        assert curve_c2(1.0, M) == pytest.approx(1.0, abs=1e-15)


def test_classify_partition_property(rng):
    for M in (1.5, 2.0, 5.0):
        A = rng.uniform(1e-3, 5.0, size=3400)
        B = rng.uniform(1e-3, 5.0, size=3400)
        for a, b in zip(A, B):
            q = PhasePoint(a, b, M)
            tag = classify_region(q)
            assert isinstance(tag, RegionId)
            scale = max(1.0, a, b)
            dist = min(
                abs(a - b), abs(a - curve_c1(b, M)), abs(a - curve_c2(b, M))
            )
            if dist >= 2e-9 * scale:
                assert not tag.is_boundary
                assert classify_region(q, tau_region=1e-12) is tag


def test_kernel_grad_examples():
    p = InteractionParams(1, 4, 1, 1, 1, 1)
    np.testing.assert_allclose(kernel_grad_self(p, (1.0, 0.0)), [0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(kernel_grad_self(p, (2.0, 0.0)), [1.5, 0.0])
    np.testing.assert_allclose(kernel_grad_cross(p, (1.0, 0.0)), [-3.0, 0.0])


def test_kernel_grad_antisymmetry(rng):
    p = InteractionParams(1.3, 0.7, 2.0, 0.9, 3, 1, eta=0.8)
    for _ in range(50):
        x = rng.normal(size=2)
        np.testing.assert_array_equal(
            kernel_grad_self(p, x), -kernel_grad_self(p, -x)
        )
        np.testing.assert_array_equal(
            kernel_grad_cross(p, x), -kernel_grad_cross(p, -x)
        )


def test_kernel_grad_singular():
    p = InteractionParams(1, 1, 1, 1, 1, 1)
    with pytest.raises(SingularEvaluation):
        kernel_grad_self(p, (0.0, 1e-13))


def test_density_examples():
    quad = equilibrium_densities(InteractionParams(1, 3, 1, 3.5, 2, 1))
    assert quad.outside == (0.0, 0.0)
    assert quad.only1[0] == pytest.approx(5.5 / math.pi)
    assert quad.only1[1] == 0.0
    quad = equilibrium_densities(InteractionParams(1, 0.5, 1, 1, 2, 1))
    assert quad.coexist[0] == pytest.approx(2.0 / math.pi)
    assert quad.coexist[1] == pytest.approx(2.0 / math.pi)


def test_density_eta_scaling():
    # eta rescales the cross coefficients before every formula
    strong = equilibrium_densities(InteractionParams(1, 0.25, 1, 0.5, 2, 1))
    weak = equilibrium_densities(InteractionParams(1, 0.5, 1, 1.0, 2, 1, eta=0.5))
    assert weak.only2 == pytest.approx(strong.only2)
    assert weak.coexist == pytest.approx(strong.coexist)


def test_coexist_swap_symmetry(rng):
    for _ in range(25):
        a_s, b_s = rng.uniform(0.5, 2, size=2)
        a_c, b_c = rng.uniform(0.1, 1.9, size=2)
        if abs(a_s - a_c) < 1e-3:
            continue
        m1, m2 = rng.uniform(0.5, 4, size=2)
        fwd = _density_quadruple(a_s, a_c, b_s, b_c, m1, m2).coexist
        rev = _density_quadruple(a_s, a_c, b_s, b_c, m2, m1).coexist
        assert fwd == pytest.approx((rev[1], rev[0]))


def test_coexistence_singular():
    with pytest.raises(CoexistenceSingular):
        equilibrium_densities(InteractionParams(1, 1, 1, 2, 2, 1))
    with pytest.raises(CoexistenceSingular):
        equilibrium_densities(InteractionParams(0.5, 1, 1, 2, 2, 1, eta=0.5))


@pytest.mark.parametrize("M", [1.0, 2.0, 3.0])
def test_region_tag_grid_on_every_boundary(M):
    B = np.array([0.3, 1.7, 3.2])
    A = np.concatenate([B, curve_c1(B, M), curve_c2(B, M), [1.0]])
    B = np.concatenate([B, B, B, [1.0]])
    # at M = 1 the curves c1 and c2 coincide and are reported as c1
    on_c2 = RegionId.BOUNDARY_C1 if M == 1.0 else RegionId.BOUNDARY_C2
    expected = (
        [RegionId.BOUNDARY_DIAGONAL] * 3 + [RegionId.BOUNDARY_C1] * 3 + [on_c2] * 3 + [RegionId.TRIPLE_POINT]
    )
    assert [REGION_TAGS[t] for t in region_tag_grid(A, B, M)] == expected
    assert [classify_region(PhasePoint(a, b, M)) for a, b in zip(A, B)] == expected
    assert np.all(region_code_grid(A, B, M) == BOUNDARY)
