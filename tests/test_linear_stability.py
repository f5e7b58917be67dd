import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import swarm_eq.linear_stability as linear_stability
from conftest import draw_phase_in_regions, params_from_phase
from swarm_eq.equilibria import EquilibriumKind, build_equilibrium
from swarm_eq.errors import EquilibriumMissing, SpectrumMismatch
from swarm_eq.linear_stability import (
    P_minus_inv_C_identity,
    P_minus_one_identity,
    build_Q,
    build_Q_from_integrals,
    char_poly_cubic,
    closed_form_rates,
    cubic_scale,
    mode1_quadratic,
    mode_spectrum,
    region_Um,
    stability_report,
)
from swarm_eq.model import InteractionParams, PhasePoint, RegionId, classify_region, to_phase_point
from swarm_eq.sweeps import um_member_grid

LIGHT = EquilibriumKind.TARGET_LIGHT_IN
HEAVY = EquilibriumKind.TARGET_HEAVY_IN


def test_q_matrix_structure():
    p = params_from_phase(3.0, 3.5)
    for m in (2, 3, 9):
        Q = build_Q(LIGHT, p, m)
        # tangential columns vanish identically for m >= 2
        assert np.all(Q[:, 1::2] == 0.0)
        rho1 = (p.b_s * p.M1 + p.bc_eff * p.M2) / (math.pi * p.a_s)
        assert Q[0, 0] == pytest.approx(-p.a_s * math.pi * rho1)
    Q1 = build_Q(LIGHT, p, 1)
    cfg = build_equilibrium(LIGHT, p)
    r0 = cfg.radii[2]
    rho1 = (p.b_s * p.M1 + p.bc_eff * p.M2) / (math.pi * p.a_s)
    assert Q1[0, 0] == pytest.approx(-p.a_s * math.pi * rho1 + p.b_s * rho1 * math.pi * r0**2)


def test_missing_equilibrium_raises():
    with pytest.raises(EquilibriumMissing):
        build_Q(LIGHT, params_from_phase(0.4, 0.2), 2)  # D1: no target
    with pytest.raises(EquilibriumMissing):
        stability_report(HEAVY, params_from_phase(0.5, 1.0))  # D6


def test_mode1_quadratic_examples():
    q = PhasePoint(3.0, 3.5, 2.0)
    (one, lin, const), roots = mode1_quadratic(LIGHT, q, 1.0)
    assert (one, lin) == (1.0, 16.0)
    assert const == pytest.approx(3.3)
    disc = math.sqrt(16.0**2 - 4.0 * 3.3)
    np.testing.assert_allclose(
        np.sort(roots), [(-16.0 - disc) / 2.0, (-16.0 + disc) / 2.0], rtol=1e-12
    )
    np.testing.assert_allclose(np.sort(roots), [-15.791, -0.209], atol=2e-4)
    # unstable例: constant term negative in D3
    _, roots = mode1_quadratic(LIGHT, PhasePoint(3.0, 2.0, 2.0), 1.0)
    assert mode1_quadratic(LIGHT, PhasePoint(3.0, 2.0, 2.0), 1.0)[0][2] == pytest.approx(-4.8)
    assert np.max(roots) > 0
    # marginal on the diagonal
    _, roots = mode1_quadratic(LIGHT, PhasePoint(2.5, 2.5, 2.0), 1.0)
    assert np.min(np.abs(roots)) == pytest.approx(0.0, abs=1e-14)


def test_zero_eigenvalue_counts():
    p = params_from_phase(3.0, 3.5)
    norm = float(np.linalg.norm(build_Q(LIGHT, p, 1)))
    eigs = np.linalg.eigvals(build_Q(LIGHT, p, 1))
    assert np.sum(np.abs(eigs) < 1e-9 * norm) >= 4
    eigs = np.linalg.eigvals(build_Q(LIGHT, p, 5))
    assert np.sum(np.abs(eigs) < 1e-9 * norm) >= 3


def test_spectrum_matches_closed_forms(rng):
    for kind, regions in ((LIGHT, ("D3", "D4", "D5")), (HEAVY, ("D2", "D3", "D4"))):
        for A, B in draw_phase_in_regions(rng, regions, n=12):
            if abs(A - B) < 5e-3:
                continue
            p = params_from_phase(A, B)
            for m in (1, 2, 3, 8, 16):
                spec = mode_spectrum(kind, p, m)  # raises SpectrumMismatch on drift
                rates = closed_form_rates(kind, p, m)
                got = np.sort(spec.nontrivial.real)
                want = np.sort(rates.real)
                np.testing.assert_allclose(got, want, rtol=1e-7, atol=1e-10)


def test_cubic_identities(rng):
    for A, B in draw_phase_in_regions(rng, ("D3", "D4", "D5"), n=20):
        q = PhasePoint(A, B, 2.0)
        C = (q.M + q.B) / (1.0 + q.M * q.B)
        for m in (2, 3, 5, 9):
            _, P = char_poly_cubic(LIGHT, q, m)
            assert P(-1.0) == pytest.approx(P_minus_one_identity(q, m), rel=1e-12, abs=1e-15)
            assert P(-1.0 / C) == pytest.approx(
                P_minus_inv_C_identity(q, m), rel=1e-12, abs=1e-15
            )


def test_cubic_constant_sign_flip():
    # the eigenvalue product (-c0) is positive exactly when C > A^(1-2/m)
    M = 2.0
    for m in (3, 4, 7):
        for A, B in ((2.0, 0.3), (1.5, 0.8), (3.0, 1.4), (1.2, 0.2)):
            q = PhasePoint(A, B, M)
            C = (M + B) / (1.0 + M * B)
            (c2, c1, c0), _ = char_poly_cubic(LIGHT, q, m)
            assert (-c0 > 0) == (C > A ** (1.0 - 2.0 / m))


def test_region_um():
    u3 = region_Um(3, 2.0)
    assert float(u3.threshold_B(2.0)) == pytest.approx(0.4869, abs=1e-4)
    assert region_Um(2, 2.0).contains(3.0, 0.75)
    assert not region_Um(3, 2.0).contains(3.0, 0.75)
    assert region_Um(1, 2.0).contains(3.0, 2.0)  # U1 = D3
    assert not region_Um(1, 2.0).contains(3.0, 3.5)


def test_um_nesting_grid():
    ax = np.linspace(0.02, 5.0, 100)
    A, B = np.meshgrid(ax, ax, indexing="ij")
    members = [um_member_grid(m, 2.0, A, B) for m in (1, 2, 3, 4)]
    for outer, inner in zip(members[:-1], members[1:]):
        assert not np.any(inner & ~outer)


@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_um_contains_grid_matches_scalar_calls(m):
    ax = np.linspace(0.02, 5.0, 100)
    A, B = np.meshgrid(ax, ax, indexing="ij")
    um = region_Um(m, 2.0)
    scalar = [[um.contains(float(a), float(b)) for a, b in zip(row_a, row_b)] for row_a, row_b in zip(A, B)]
    assert all(type(v) is bool for row in scalar for v in row)
    np.testing.assert_array_equal(um.contains(A, B), np.array(scalar))


def _draw_in_um(rng, um, n):
    out = []
    a_hi = min(um.a_max, 5.0)
    while len(out) < n:
        A = float(rng.uniform(1.001, a_hi))
        B = float(rng.uniform(1e-3, min(float(um.threshold_B(A)), 5.0)))
        if um.contains(A, B):
            out.append((A, B))
    return out


def test_instability_in_um_stability_in_sm(rng):
    M = 2.0
    for m in (2, 3, 5, 8):
        um = region_Um(m, M)
        # 100 points inside U_m: at least one growing mode each
        for A, B in _draw_in_um(rng, um, 100):
            rates = closed_form_rates(LIGHT, params_from_phase(A, B), m)
            assert np.max(rates.real) > 0.0, (m, A, B)
        # 100 points in the stable complement S_m: all rates real and negative
        count = 0
        while count < 100:
            (A, B), = draw_phase_in_regions(rng, ("D3", "D4", "D5"), n=1)
            if um.contains(A, B):
                continue
            rates = closed_form_rates(LIGHT, params_from_phase(A, B), m)
            assert np.all(np.abs(rates.imag) < 1e-9 * np.max(np.abs(rates))), (m, A, B)
            assert np.max(rates.real) < 0.0, (m, A, B)
            count += 1


def test_heavy_mode2_unstable_iff_b_above_one(rng):
    for A, B in draw_phase_in_regions(rng, ("D2", "D3", "D4"), n=60):
        if abs(B - 1.0) < 1e-3:
            continue
        rates = closed_form_rates(HEAVY, params_from_phase(A, B), 2)
        assert (np.max(rates.real) > 0.0) == (B > 1.0), (A, B)


def test_stability_report_examples():
    p = params_from_phase(3.0, 3.5)
    rep = stability_report(LIGHT, p, 32)
    assert rep.overall == "stable"
    assert rep.dominant_unstable_mode is None

    rep = stability_report(HEAVY, p, 32)
    assert rep.overall == "unstable"
    assert rep.dominant_unstable_mode == 2

    p2 = params_from_phase(3.0, 0.75)
    rep = stability_report(HEAVY, p2, 32)
    assert rep.overall == "unstable"
    assert rep.dominant_unstable_mode == 1
    assert rep.verdict_of(2) == "stable"

    rep = stability_report(LIGHT, p2, 32)
    assert rep.overall == "unstable"
    assert rep.verdict_of(1) == "unstable"
    assert rep.verdict_of(2) == "unstable"
    assert rep.verdict_of(3) == "stable"


def test_heavy_always_unstable(rng):
    for A, B in draw_phase_in_regions(rng, ("D2", "D3", "D4"), n=10):
        rep = stability_report(HEAVY, params_from_phase(A, B), 8)
        assert rep.overall == "unstable"


def test_q_reconstruction_from_integrals(rng):
    # the printed matrices against the assembly from the perturbed-boundary
    # integrals, at three different extraction angles (theta0-independence)
    for kind, regions in ((LIGHT, ("D4",)), (HEAVY, ("D3",))):
        A, B = draw_phase_in_regions(rng, regions, n=1)[0]
        p = params_from_phase(A, B)
        for m in (1, 2, 3, 6):
            Q = build_Q(kind, p, m)
            scale = float(np.max(np.abs(Q)))
            for theta0 in (0.233 / m, 0.61 / m, 1.07 / m):
                Qa = build_Q_from_integrals(kind, p, m, theta0=theta0)
                assert float(np.max(np.abs(Q - Qa))) < 1e-8 * scale


def test_cubic_scale_units(rng):
    # lambda = scale * mu: eigenvalues of Q equal scale times the cubic roots
    A, B = draw_phase_in_regions(rng, ("D4",), n=1)[0]
    p = params_from_phase(A, B)
    m = 4
    (c2, c1, c0), _ = char_poly_cubic(LIGHT, to_phase_point(p), m)
    mu_roots = np.roots([1.0, c2, c1, c0])
    spec = mode_spectrum(LIGHT, p, m)
    np.testing.assert_allclose(
        np.sort(spec.nontrivial.real),
        np.sort(mu_roots.real) * cubic_scale(LIGHT, p),
        rtol=1e-8,
    )


def test_cross_check_holds_at_near_double_root():
    # the mode-30 cubic at this D5 point has a near-double root, which root
    # matching split by about sqrt(eps); the coefficients agree to rounding
    rep = stability_report(LIGHT, params_from_phase(1.3, 2.5, 3.0), 32)
    assert rep.overall == "stable"


def test_cross_check_catches_perturbed_closed_form(monkeypatch):
    exact = linear_stability.reduced_coefficients

    def perturbed(kind, A, B, M, m):
        c2, c1, c0 = exact(kind, A, B, M, m)
        return c2, c1 + 1e-6, c0

    monkeypatch.setattr(linear_stability, "reduced_coefficients", perturbed)
    for point in ((3.0, 3.5, 2.0), (1.3, 2.5, 3.0)):
        with pytest.raises(SpectrumMismatch, match="coefficients disagree at mode 2"):
            mode_spectrum(LIGHT, params_from_phase(*point), 2)


def test_crosscheck_margin_reads_the_coefficient_residual(monkeypatch):
    p = params_from_phase(1.3, 2.5, 3.0)
    rep = stability_report(LIGHT, p, 32)
    assert rep.worst_crosscheck_margin == max(s.crosscheck_margin for s in rep.modes)
    assert 0.0 <= rep.worst_crosscheck_margin < 1e-6  # rounding only
    exact = linear_stability.reduced_coefficients

    def perturbed(kind, A, B, M, m):
        c2, c1, c0 = exact(kind, A, B, M, m)
        return c2, c1 + 0.5e-8 * (1.0 + abs(c2) + abs(c1) + abs(c0)), c0

    monkeypatch.setattr(linear_stability, "reduced_coefficients", perturbed)
    assert mode_spectrum(LIGHT, p, 2).crosscheck_margin == pytest.approx(0.5, abs=1e-3)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(A=st.floats(0.05, 5.0), B=st.floats(0.05, 5.0), M=st.floats(1.0, 4.0))
def test_cross_check_never_raises_in_target_regions(A, B, M):
    region = classify_region(PhasePoint(A, B, M))
    assume(region in (RegionId.D3, RegionId.D4, RegionId.D5))
    rep = stability_report(LIGHT, params_from_phase(A, B, M), 32)
    expected = "stable" if region in (RegionId.D4, RegionId.D5) else "unstable"
    assert rep.overall in (expected, "marginal")


def test_report_builds_one_equilibrium_and_runs_one_eigensolve(monkeypatch):
    calls = {"build_equilibrium": 0, "mode_spectrum": 0, "eigvals": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(linear_stability, "build_equilibrium", counted("build_equilibrium", build_equilibrium))
    monkeypatch.setattr(linear_stability, "mode_spectrum", counted("mode_spectrum", mode_spectrum))
    monkeypatch.setattr(np.linalg, "eigvals", counted("eigvals", np.linalg.eigvals))
    rep = stability_report(LIGHT, params_from_phase(3.0, 3.5), 32)
    assert len(rep.modes) == 32
    assert calls == {"build_equilibrium": 1, "mode_spectrum": 1, "eigvals": 1}


@pytest.mark.parametrize("kind", [LIGHT, HEAVY])
def test_build_Q_stack_is_the_scalar_matrices(kind):
    p = params_from_phase(3.0, 3.5)
    stack = build_Q(kind, p, np.arange(1, 33))
    assert stack.shape == (32, 6, 6)
    assert stack.tobytes() == np.stack([build_Q(kind, p, m) for m in range(1, 33)]).tobytes()
    assert build_Q(kind, p, [3, 1]).tobytes() == np.stack([build_Q(kind, p, 3), build_Q(kind, p, 1)]).tobytes()


def _vieta_margin(kind, p, spec):
    """The cross-check margin from a per-root expansion of prod (mu - r), as a loop over one mode."""
    q = to_phase_point(p)
    coeffs = linear_stability.reduced_coefficients(kind, q.A, q.B, q.M, spec.m)
    vieta = [1.0]
    for r in spec.nontrivial / linear_stability.rate_unit(kind, p, spec.m):
        vieta = [a - r * b for a, b in zip(vieta + [0.0], [0.0] + vieta)]
    residual = max(abs(v - c) for v, c in zip(vieta[1:], coeffs)) / (1.0 + sum(map(abs, coeffs)))
    return residual / linear_stability.CROSSCHECK_RTOL


def test_report_modes_are_the_per_mode_spectra(rng):
    for kind, regions in ((LIGHT, ("D3", "D4", "D5")), (HEAVY, ("D2", "D3", "D4"))):
        for A, B in draw_phase_in_regions(rng, regions, n=6):
            p = params_from_phase(A, B)
            rep = stability_report(kind, p, 32)
            for m in range(1, 33):
                got, want = rep.modes[m - 1], mode_spectrum(kind, p, m)
                assert (got.kind, got.m, got.verdict, got.crosscheck_margin) == (
                    want.kind, want.m, want.verdict, want.crosscheck_margin
                )
                for field in ("Q", "eigenvalues", "nontrivial"):
                    np.testing.assert_array_equal(getattr(got, field), getattr(want, field))
                np.testing.assert_array_equal(got.eigenvalues, np.linalg.eigvals(build_Q(kind, p, m)))
                # symmetric sums in place of the loop: a few ulps of 1 + sum |c_k|, i.e. ~1e-8 of the margin
                assert got.crosscheck_margin == pytest.approx(_vieta_margin(kind, p, got), abs=1e-6)


@pytest.mark.parametrize("m", [2.5, 0, -1, True, [[1, 2]], [1, 2.5]])
def test_modes_must_be_integers_from_one(m):
    p = params_from_phase(3.0, 3.5)
    with pytest.raises(ValueError, match="modes must be integers >= 1"):
        build_Q(LIGHT, p, m)
    with pytest.raises(ValueError, match="modes must be integers >= 1"):
        mode_spectrum(LIGHT, p, m)


@pytest.mark.parametrize("m", [2.5, 0, True])
def test_closed_form_rates_and_mode_regions_take_only_integer_modes_from_one(m):
    # at (3, 3.5, 2) mode 2.5 used to give three rates and m = 0 the rates [-11, -8, 0];
    # region_Um(2.5, M) used to be U_2
    with pytest.raises(ValueError, match="modes must be integers >= 1"):
        closed_form_rates(LIGHT, params_from_phase(3.0, 3.5), m)
    with pytest.raises(ValueError, match="modes must be integers >= 1"):
        region_Um(m, 2.0)


@pytest.mark.parametrize("m_max", [2.5, 1, 0, np.array([4, 5])])
def test_report_m_max_must_be_an_integer_from_two(m_max):
    with pytest.raises(ValueError, match="m_max must be an integer >= 2"):
        stability_report(LIGHT, params_from_phase(3.0, 3.5), m_max)


def test_verdict_of_takes_only_the_report_modes():
    rep = stability_report(HEAVY, params_from_phase(3.0, 0.75), 8)
    assert [rep.verdict_of(m) for m in (1, 2, 8)] == ["unstable", "stable", rep.modes[7].verdict]
    for m in (0, -1, 9, 2.5):
        with pytest.raises(ValueError, match="not one of the report's modes 1..8"):
            rep.verdict_of(m)
