"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; criteria 8 and 9 integrate particle systems and dominate the runtime
(everything else forms the fast suite).
"""

import math
import time

import numpy as np
import pytest
from scipy.optimize import brentq

from conftest import draw_phase_in_regions, params_from_phase
from swarm_eq.boundary_integrals import (
    PerturbedDisk,
    attraction_integral,
    log_contour_integral,
    oracle_attraction,
    oracle_log_contour,
    oracle_rational_contour,
    oracle_repulsion,
    rational_contour_integral,
    repulsion_integral,
)
from swarm_eq.cli import main as cli_main
from swarm_eq.equilibria import (
    EXISTENCE_REGIONS,
    EquilibriumKind,
    build_equilibrium,
    force_scale,
    velocity_residual,
)
from swarm_eq.linear_stability import (
    P_minus_inv_C_identity,
    P_minus_one_identity,
    char_poly_cubic,
    closed_form_rates,
    mode_spectrum,
)
from swarm_eq.model import InteractionParams, PhasePoint, to_phase_point
from swarm_eq.particles import (
    core_anisotropy,
    core_displacement,
    edge_radius,
    init_from_equilibrium,
    init_random_disk,
    morphology,
    run,
)
from swarm_eq.sweeps import (
    cell_centered_axis,
    existence_region_mask,
    heavy_mode2_unstable_grid,
    region_code_grid,
    target_verdict_grid,
    um_member_grid,
)
from swarm_eq.variational import (
    PerturbationGrid,
    attraction_term,
    lambda_profile,
    lambda_quadrature_oracle,
    project_perturbation,
    quadratic_term_identity,
    second_variation,
    target_lambda_pair,
    target_nonminimizer_boundary,
)
from swarm_eq.weak_cross import ab_ratio_of_d, d_of_ab_ratio

LIGHT = EquilibriumKind.TARGET_LIGHT_IN
HEAVY = EquilibriumKind.TARGET_HEAVY_IN


def report(n, elapsed, bound, detail=""):
    line = f"ACCEPTANCE {n}: PASS ({elapsed:.1f}s < {bound}s) {detail}"
    print(line)
    assert elapsed < bound, f"criterion {n} exceeded its runtime bound: {elapsed:.1f}s"


def test_criterion_01_region_existence_concordance():
    start = time.monotonic()
    ax = cell_centered_axis(200)
    A, B = np.meshgrid(ax, ax, indexing="ij")
    codes = region_code_grid(A, B, 2.0)
    interior = codes != 0
    mismatches = 0
    checked = 0
    for i in range(200):
        for j in range(200):
            if not interior[i, j]:
                continue
            p = InteractionParams(1.0, A[i, j], 1.0, B[i, j], 2.0, 1.0)
            for kind in EquilibriumKind:
                expected = codes[i, j] in {
                    int(r.value[1]) for r in EXISTENCE_REGIONS[kind]
                }
                got = build_equilibrium(kind, p).exists
                mismatches += got != expected
                checked += 1
    assert mismatches == 0
    report(1, time.monotonic() - start, 10.0, f"{checked} constructor calls, 0 mismatches")


def test_criterion_02_velocity_residual(rng):
    start = time.monotonic()
    for kind in EquilibriumKind:
        for A, B in draw_phase_in_regions(rng, EXISTENCE_REGIONS[kind], n=50):
            cfg = build_equilibrium(kind, params_from_phase(A, B))
            radii = []
            intervals = cfg.support_intervals(1) + cfg.support_intervals(2)
            per = max(1, 20 // len(intervals))
            for lo, hi in intervals:
                radii.extend(
                    np.linspace(lo + 0.02 * (hi - lo), hi - 0.02 * (hi - lo), per)
                )
            res = velocity_residual(cfg, radii[:20])
            assert max(res) < 1e-10 * force_scale(cfg)
    report(2, time.monotonic() - start, 5.0, "50 draws x 4 kinds, 20 radii each")


def test_criterion_03_spectrum_identity(rng):
    start = time.monotonic()
    draws = 0
    for kind in (LIGHT, HEAVY):
        for A, B in draw_phase_in_regions(rng, EXISTENCE_REGIONS[kind], n=100):
            p = params_from_phase(A, B)
            draws += 1
            for m in range(1, 17):
                spec = mode_spectrum(kind, p, m)
                rates = closed_form_rates(kind, p, m)
                got = np.sort_complex(spec.nontrivial)
                want = np.sort_complex(rates)
                scale = max(np.max(np.abs(want)), 1e-30)
                assert np.max(np.abs(got - want)) < 1e-8 * scale
    # closed values of the reduced cubic at mu = -1 and -1/C
    for A, B in draw_phase_in_regions(rng, ("D3", "D4", "D5"), n=50):
        q = PhasePoint(A, B, 2.0)
        C = (q.M + q.B) / (1.0 + q.M * q.B)
        for m in (2, 3, 7, 16):
            _, P = char_poly_cubic(LIGHT, q, m)
            for mu, ident in ((-1.0, P_minus_one_identity), (-1.0 / C, P_minus_inv_C_identity)):
                want = ident(q, m)
                assert abs(P(mu) - want) <= 1e-12 * max(1.0, abs(want))
    report(3, time.monotonic() - start, 10.0, f"{draws} draws, modes 1..16")


def test_criterion_04_stability_phase_diagram():
    start = time.monotonic()
    ax = cell_centered_axis(200)
    A, B = np.meshgrid(ax, ax, indexing="ij")
    codes = region_code_grid(A, B, 2.0)
    interior = codes != 0

    v_light = target_verdict_grid(LIGHT, A, B, 2.0, m_max=32)
    decided = interior & (v_light != 0) & (v_light != -2)
    stable = v_light == 1
    expected = np.isin(codes, (4, 5))
    assert not np.any(stable[decided] != expected[decided])
    assert np.all(np.isin(codes[v_light == 1], (4, 5)))

    v_heavy = target_verdict_grid(HEAVY, A, B, 2.0, m_max=32)
    in_heavy = np.isin(codes, (2, 3, 4))
    assert not np.any(v_heavy[in_heavy & interior] == 1)
    assert np.all(v_heavy[in_heavy & interior] == -1)

    m2 = heavy_mode2_unstable_grid(A, B, 2.0)
    assert not np.any(m2[in_heavy & interior] != (B > 1.0)[in_heavy & interior])

    members = [um_member_grid(m, 2.0, A, B) for m in (1, 2, 3, 4)]
    for outer, inner in zip(members[:-1], members[1:]):
        assert not np.any(inner & ~outer)
    report(4, time.monotonic() - start, 60.0, "200x200 grid, m_max=32")


def test_criterion_05_variational_boundary():
    start = time.monotonic()
    M, A = 2.0, 3.0

    def gap(B):
        lam2, lam_m = target_lambda_pair(params_from_phase(A, B, M))
        return lam_m - lam2

    assert gap(0.1) < 0 < gap(3.0 - 1e-9)
    root = brentq(gap, 0.1, 3.0 - 1e-9, xtol=1e-12)
    b_star = target_nonminimizer_boundary(A, M)
    assert abs(root - b_star) < 1e-6

    for B in (0.4, 1.2, 2.6):
        cfg = build_equilibrium(LIGHT, params_from_phase(A, B, M))
        for species in (1, 2):
            prof = lambda_profile(cfg, species)
            breakpoints = np.asarray(prof.breakpoints)
            rs = np.linspace(0.0, 2.5 * cfg.outermost_radius, 10)
            rs = [r for r in rs if np.min(np.abs(breakpoints - r)) > 1e-4][:10]
            for r in rs:
                oracle = lambda_quadrature_oracle(cfg, species, float(r))
                closed = prof.value(float(r)) if r > 0 else prof.pieces[0].c0
                assert abs(oracle - closed) <= 1e-6 * max(1.0, abs(closed))
    report(5, time.monotonic() - start, 30.0, f"B* = {b_star:.6f}")


def test_criterion_06_second_variation(rng):
    start = time.monotonic()
    for _ in range(100):
        n = int(rng.integers(8, 16))
        grid = PerturbationGrid((rng.normal(), rng.normal()), rng.uniform(0.5, 2.0), n)
        p = params_from_phase(rng.uniform(0.2, 3.0), rng.uniform(0.2, 3.0))
        t1, t2 = project_perturbation(grid, rng.normal(size=n * n), rng.normal(size=n * n))
        direct = attraction_term(grid, t1, t2, p)
        closed = quadratic_term_identity(grid, t1, p)
        assert direct == pytest.approx(closed, rel=1e-8, abs=1e-14)
    for _ in range(500):
        n = int(rng.integers(8, 14))
        grid = PerturbationGrid((rng.normal(), rng.normal()), rng.uniform(0.5, 2.0), n)
        a_s = rng.uniform(0.5, 3.0)
        b_s = rng.uniform(0.5, 3.0)
        p = InteractionParams(
            a_s, a_s * rng.uniform(0.05, 0.98), b_s, b_s * rng.uniform(1.02, 3.0), 2.0, 1.0
        )
        t1, t2 = project_perturbation(grid, rng.normal(size=n * n), rng.normal(size=n * n))
        assert second_variation(grid, t1, t2, p) >= -1e-8
    report(6, time.monotonic() - start, 60.0, "100 identity + 500 positivity draws")


def test_criterion_07_appendix_oracles():
    start = time.monotonic()
    cases = 0

    def check(closed_fn, oracle_fn, scale):
        nonlocal cases
        errs = {}
        for eps in (0.0, 1e-3, 1e-2):
            errs[eps] = float(np.max(np.abs(np.asarray(closed_fn(eps)) - np.asarray(oracle_fn(eps)))))
        assert errs[0.0] <= 1e-8 * max(1.0, scale)
        c_fit = max((errs[e] - 1e-8) / e**2 for e in (1e-3, 1e-2))
        for e in (1e-3, 1e-2):
            assert errs[e] <= c_fit * e**2 + 1e-8 + 1e-12
        if errs[1e-3] > 1e-9:
            assert errs[1e-2] <= 400.0 * errs[1e-3]
        cases += 1
        return c_fit

    # log and rational contour integrals carry no epsilon: exact match required
    for alpha in (0.4, 1.0, 1.8):
        for mu in (-2, 1, 3):
            assert abs(log_contour_integral(alpha, mu, 0.37) - oracle_log_contour(alpha, mu, 0.37)) < 1e-8
            cases += 1
    for alpha in (0.4, 1.8):
        for mu in (-2, 0, 3):
            assert abs(rational_contour_integral(alpha, mu, 0.37) - oracle_rational_contour(alpha, mu, 0.37)) < 1e-8
            cases += 1

    x = np.array([1.3, -0.4])
    for m in (1, 2, 3):
        check(
            lambda e, m=m: attraction_integral(x, PerturbedDisk(1.1, m, e, 0.5 * e)),
            lambda e, m=m: oracle_attraction(x, PerturbedDisk(1.1, m, e, 0.5 * e)),
            scale=math.pi * 1.1**2 * float(np.hypot(*x)),
        )
    t0 = math.pi / 5.0
    for case, (rp, rd) in (
        ("outside", (1.4, 0.7)),
        ("same", (1.0, 1.0)),
        ("inside", (0.7, 1.4)),
    ):
        for m in (1, 2, 4):

            def closed(e, m=m, rp=rp, rd=rd, case=case):
                probe = PerturbedDisk(rp, m, e, 0.8 * e)
                dom = probe if case == "same" else PerturbedDisk(rd, m, 0.7 * e, 0.3 * e)
                return repulsion_integral(probe, t0, dom)

            def oracle(e, m=m, rp=rp, rd=rd, case=case):
                probe = PerturbedDisk(rp, m, e, 0.8 * e)
                dom = probe if case == "same" else PerturbedDisk(rd, m, 0.7 * e, 0.3 * e)
                return oracle_repulsion(probe, t0, dom)

            check(closed, oracle, scale=math.pi * min(rp, rd))
    report(7, time.monotonic() - start, 30.0, f"{cases} oracle cases")


def _com_drift_rate(arr):
    dt = arr["t"][-1] - arr["t"][0]
    return float(np.hypot(*(arr["com_total"][-1] - arr["com_total"][0]))) / dt


def _check_energy_and_com(arr):
    e = arr["energy"]
    assert np.all(np.diff(e) <= 1e-6 * abs(e[0]) + 1e-14)
    assert _com_drift_rate(arr) < 1e-8


@pytest.mark.slow
def test_criterion_08_particle_reproduction():
    start = time.monotonic()
    # (a) stable target stays target-like with radii on the analytic values
    p = params_from_phase(3.0, 3.5)
    cfg = build_equilibrium(LIGHT, p)
    state = init_from_equilibrium(cfg, 133, 67, seed=42)
    state, diag = run(state, 50.0)
    _check_energy_and_com(diag.as_arrays())
    assert morphology(state).label == "target-like"
    r2, r1, r0 = cfg.radii
    assert edge_radius(state.pos2) == pytest.approx(r2, rel=0.05)
    assert edge_radius(state.pos1, inner=True) == pytest.approx(r1, rel=0.05)
    assert edge_radius(state.pos1) == pytest.approx(r0, rel=0.05)

    # (b) mode-1 instability at (3, 2): the light core drifts off centre
    pb = params_from_phase(3.0, 2.0)
    cfgb = build_equilibrium(LIGHT, pb)
    state_b = init_from_equilibrium(cfgb, 133, 67, seed=42)
    state_b, diag_b = run(state_b, 50.0)
    _check_energy_and_com(diag_b.as_arrays())
    assert core_displacement(state_b, 2) > 0.1 * math.sqrt(pb.a_s / pb.b_s)

    # (c) mode-2 instability of the heavy-inside target: the core elongates
    cfgc = build_equilibrium(HEAVY, p)
    state_c = init_from_equilibrium(cfgc, 133, 67, seed=42)
    state_c, diag_c = run(state_c, 50.0)
    _check_energy_and_com(diag_c.as_arrays())
    assert core_anisotropy(state_c, 1) > 1.5

    report(
        8,
        time.monotonic() - start,
        600.0,
        f"displacement {core_displacement(state_b, 2):.2f}, anisotropy {core_anisotropy(state_c, 1):.1f}",
    )


def _overlay_separation(ratio, mass_ratio, seed):
    if mass_ratio == 1:
        n1 = n2 = 100
        M1 = M2 = 1.0
    else:
        n1, n2 = 133, 67
        M1, M2 = 2.0, 1.0
    p = InteractionParams(a_s=1.0, a_c=ratio, b_s=1.0, b_c=1.0, M1=M1, M2=M2, eta=0.05)
    st = init_random_disk(p, n1, n2, 1.0, seed=seed)
    st, _ = run(st, 3000.0, record_interval=500.0)
    return float(np.hypot(*(st.pos1.mean(axis=0) - st.pos2.mean(axis=0))))


@pytest.mark.slow
def test_criterion_09_weak_cross_curve():
    start = time.monotonic()
    assert d_of_ab_ratio(6.0).d_over_R == pytest.approx(math.sqrt(6.0), abs=1e-9)
    assert d_of_ab_ratio(4.0).d_over_R == pytest.approx(2.0, abs=1e-9)
    assert d_of_ab_ratio(1.0).d_over_R == 0.0
    assert d_of_ab_ratio(0.3).d_over_R == 0.0
    assert abs(ab_ratio_of_d(1.0 - 1e-9) - ab_ratio_of_d(1.0 + 1e-9)) < 1e-8
    assert abs(ab_ratio_of_d(2.0 - 1e-9) - 4.0) < 1e-8

    ratios = (1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 8.0)
    seps = {}
    for mass_ratio in (1, 2):
        for k, ratio in enumerate(ratios):
            theory = d_of_ab_ratio(ratio).d_over_R
            sim = _overlay_separation(ratio, mass_ratio, seed=1000 * mass_ratio + k)
            seps[(mass_ratio, ratio)] = sim
            assert abs(sim - theory) <= 0.10 * theory, (mass_ratio, ratio, sim, theory)
    for ratio in ratios:
        d1, d2 = seps[(1, ratio)], seps[(2, ratio)]
        assert abs(d1 - d2) <= 0.05 * max(d1, d2), (ratio, d1, d2)
    report(9, time.monotonic() - start, 1200.0, "8 ratios x M in {1, 2}")


def test_criterion_10_cli_determinism(tmp_path, capsys):
    start = time.monotonic()
    args = [
        "simulate", "--init", "equilibrium", "--kind", "target-light",
        "-A", "3", "-B", "3.5", "-M", "2", "--N1", "60", "--N2", "30",
        "--seed", "11", "--t-end", "3.0", "--snapshot-every", "1.5",
    ]
    for label in ("x", "y"):
        assert cli_main(args + ["--out", str(tmp_path / label)]) == 0
    capsys.readouterr()
    for suffix in ("_snapshots.csv", "_diagnostics.csv"):
        a = (tmp_path / f"x{suffix}").read_bytes()
        b = (tmp_path / f"y{suffix}").read_bytes()
        assert a == b
    for label in ("u", "v"):
        assert cli_main(
            ["weakcross", "--ratio-min", "0.5", "--ratio-max", "8", "--n-points", "40",
             "--out-csv", str(tmp_path / f"{label}.csv")]
        ) == 0
    capsys.readouterr()
    assert (tmp_path / "u.csv").read_bytes() == (tmp_path / "v.csv").read_bytes()
    report(10, time.monotonic() - start, 120.0, "byte-identical CSV outputs")
