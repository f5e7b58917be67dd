import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hst

from conftest import params_from_phase
from swarm_eq import particles
from swarm_eq.equilibria import EquilibriumKind, build_equilibrium
from swarm_eq.errors import (
    EquilibriumMissing,
    OutOfRange,
    ParticleCollision,
    StepUnderflow,
    TooFewParticles,
)
from swarm_eq.model import InteractionParams
from swarm_eq.particles import (
    BLOCK_ELEMENTS,
    C_RK4,
    STIFFNESS_LIMIT,
    ParticleState,
    collision_threshold,
    core_anisotropy,
    core_displacement,
    edge_radius,
    forces,
    init_from_equilibrium,
    init_random_disk,
    morphology,
    particle_energy,
    relaxation_rate,
    run,
    step,
    support_radii,
)


@pytest.mark.parametrize(
    "X, n1, match",
    [
        (np.zeros((4, 3)), 2, r"\(N, 2\)"),
        (np.zeros(8), 2, r"\(N, 2\)"),
        (np.zeros((2, 2, 2)), 1, r"\(N, 2\)"),
        (np.zeros((4, 2)), 0, "at least one particle"),
        (np.zeros((4, 2)), 4, "at least one particle"),
        ([[0.0, 0.0], [1.0, np.nan], [2.0, 0.0]], 1, "finite"),
        ([[0.0, 0.0], [1.0, 0.0], [2.0, -np.inf]], 2, "finite"),
    ],
)
def test_state_refuses_a_bad_layout(X, n1, match):
    with pytest.raises(ValueError, match=match):
        ParticleState(X, n1, params_from_phase(3.0, 3.5))


def test_species_are_views_of_one_array():
    st = init_random_disk(params_from_phase(3.0, 3.5), 20, 10, 1.0, seed=1)
    assert st.X.shape == (30, 2) and (st.n1, st.n2) == (20, 10)
    assert np.shares_memory(st.pos1, st.X) and np.shares_memory(st.pos2, st.X)
    np.testing.assert_array_equal(np.concatenate([st.pos1, st.pos2]), st.X)


def test_step_and_run_keep_the_species_rows(monkeypatch):
    # velocity (1, 0) for species 1 and (-M1/M2, 0) = (-2, 0) for species 2: RK4 moves each row
    # block by its own displacement, so a swapped or shifted block shows.  The weighted centre of
    # mass stays put, and with negligible cross coupling each species' rigid shift keeps its energy,
    # so the run's invariant checks pass
    st = init_random_disk(params_from_phase(3.0, 3.5, eta=1e-12), 20, 10, 1.0, seed=1)

    def by_species(state, diag=None):
        return np.where(np.arange(len(state.X))[:, None] < state.n1, [1.0, 0.0], [-2.0, 0.0])

    monkeypatch.setattr(particles, "forces", by_species)
    new = step(st, 0.01)
    assert new.n1 == st.n1 and new.t == 0.01
    np.testing.assert_allclose(new.pos1 - st.pos1, np.tile([0.01, 0.0], (20, 1)), rtol=0, atol=1e-15)
    np.testing.assert_allclose(new.pos2 - st.pos2, np.tile([-0.02, 0.0], (10, 1)), rtol=0, atol=1e-15)
    final, diag = run(st, 0.5, stops=[0.2])
    assert diag.max_energy_rise <= 1e-9 and diag.max_com_drift <= 1e-15
    for state in (final, *diag.stop_states):
        assert state.n1 == st.n1
        np.testing.assert_allclose(state.pos1 - st.pos1, np.tile([state.t, 0.0], (20, 1)), rtol=0, atol=1e-12)
        np.testing.assert_allclose(state.pos2 - st.pos2, np.tile([-2.0 * state.t, 0.0], (10, 1)), rtol=0, atol=1e-12)


def test_two_particles_at_kernel_zero():
    # negligible cross coupling isolates the same-species pair at the kernel zero
    p = InteractionParams(1, 1, 1, 1, 1, 1, eta=1e-12)
    d = math.sqrt(p.a_s / p.b_s)
    pos1, pos2 = np.array([[0.0, 0.0], [d, 0.0]]), np.array([[50.0, 50.0]])
    st = ParticleState(np.concatenate([pos1, pos2]), len(pos1), p)
    v1 = forces(st)[: st.n1]
    np.testing.assert_allclose(v1, 0.0, atol=1e-9)


def test_single_pair_cross_velocity():
    p = InteractionParams(1, 4, 1, 1, 2, 1)
    st = ParticleState(np.concatenate([[[0.0, 0.0]], [[1.0, 0.0]]]), 1, p)
    v = forces(st)
    v1, v2 = v[: st.n1], v[st.n1 :]
    # velocity = weight * (a_c/r - b_c r) toward/away: |grad K_c| = |-4 + 1| = 3
    assert np.hypot(*v1[0]) == pytest.approx(3.0 * p.M2)
    assert np.hypot(*v2[0]) == pytest.approx(3.0 * p.M1)
    np.testing.assert_allclose(v1[0], -v2[0] * p.M2 / p.M1)


def test_weighted_momentum_balance(rng):
    p = InteractionParams(1.2, 0.8, 0.9, 1.7, 3, 2, eta=0.7)
    pos1, pos2 = rng.normal(size=(40, 2)), rng.normal(size=(25, 2))
    st = ParticleState(np.concatenate([pos1, pos2]), len(pos1), p)
    v = forces(st)
    v1, v2 = v[: st.n1], v[st.n1 :]
    total = st.w1 * v1.sum(axis=0) + st.w2 * v2.sum(axis=0)
    scale = max(np.max(np.abs(v1)), np.max(np.abs(v2)))
    np.testing.assert_allclose(total, [0.0, 0.0], atol=1e-12 * max(1.0, scale) * st.n1)


def test_collision_detection():
    p = InteractionParams(1, 1, 1, 1, 1, 1)
    st = ParticleState(np.concatenate([[[0.0, 0.0], [1e-13, 0.0]], [[5.0, 5.0]]]), 2, p)
    with pytest.raises(ParticleCollision):
        forces(st)


def test_fixed_point_two_particle_equilibrium():
    # two same-species particles at the kernel-zero distance with symmetric
    # cross partners: velocities vanish and RK4 leaves the state unchanged
    p = InteractionParams(1, 1, 1, 1, 1, 1)
    d = math.sqrt(2.0)  # two-particle equilibrium of -ln + r^2/2: a/r = b r/... paired below
    # one particle per species at mutual kernel zero of the cross kernel
    r_eq = math.sqrt(p.ac_eff / p.bc_eff)
    st = ParticleState(np.concatenate([[[0.0, 0.0]], [[r_eq, 0.0]]]), 1, p)
    v = forces(st)
    v1, v2 = v[: st.n1], v[st.n1 :]
    np.testing.assert_allclose(v1, 0.0, atol=1e-15)
    np.testing.assert_allclose(v2, 0.0, atol=1e-15)
    new = step(st, 0.05)
    np.testing.assert_array_equal(new.pos1, st.pos1)
    np.testing.assert_array_equal(new.pos2, st.pos2)


def test_init_from_equilibrium_containment_and_determinism():
    cfg = build_equilibrium(EquilibriumKind.TARGET_LIGHT_IN, params_from_phase(3, 3.5))
    st = init_from_equilibrium(cfg, 120, 80, seed=7)
    r2, r1, r0 = cfg.radii
    d2 = np.hypot(*st.pos2.T)
    d1 = np.hypot(*st.pos1.T)
    assert np.all(d2 <= r2)
    assert np.all((d1 >= r1) & (d1 <= r0))
    again = init_from_equilibrium(cfg, 120, 80, seed=7)
    np.testing.assert_array_equal(st.pos1, again.pos1)
    np.testing.assert_array_equal(st.pos2, again.pos2)
    other = init_from_equilibrium(cfg, 120, 80, seed=8)
    assert not np.array_equal(st.pos1, other.pos1)


def test_init_overlap_mass_split():
    cfg = build_equilibrium(EquilibriumKind.OVERLAP_LIGHT_IN, params_from_phase(0.5, 1.0))
    n1 = 200
    st = init_from_equilibrium(cfg, n1, 60, seed=3)
    assert st.n2 == 60
    assert np.all(np.hypot(*st.pos2.T) <= cfg.radii[0])
    inner_mass_fraction = cfg.shells[0].rho1 * math.pi * cfg.radii[0] ** 2 / cfg.params.M1
    n_inner = int(np.sum(np.hypot(*st.pos1.T) <= cfg.radii[0]))
    assert n_inner == pytest.approx(n1 * inner_mass_fraction, abs=1.0)


@pytest.mark.parametrize("n1, n2", [(0, 10), (10, 0), (-1, 10)])
def test_initializers_refuse_an_empty_species_before_sampling(n1, n2):
    params = params_from_phase(3, 3.5)
    cfg = build_equilibrium(EquilibriumKind.TARGET_LIGHT_IN, params)
    for init in (lambda: init_from_equilibrium(cfg, n1, n2, seed=0), lambda: init_random_disk(params, n1, n2, 1.0, 0)):
        with pytest.raises(ValueError, match="^each species needs at least one particle$"):
            init()


def test_init_from_missing_equilibrium():
    cfg = build_equilibrium(EquilibriumKind.OVERLAP_LIGHT_IN, params_from_phase(0.5, 0.4))
    with pytest.raises(EquilibriumMissing):
        init_from_equilibrium(cfg, 10, 10, seed=0)


def test_energy_decreases_and_com_conserved(rng):
    for seed in range(3):
        p = params_from_phase(
            float(rng.uniform(0.3, 3.0)), float(rng.uniform(0.3, 3.0)), M=2.0
        )
        st = init_random_disk(p, 40, 20, 1.0, seed=seed)
        final, diag = run(st, 8.0)
        arr = diag.as_arrays()
        e = arr["energy"]
        assert np.all(np.diff(e) <= 1e-6 * abs(e[0]) + 1e-12)
        drift = np.hypot(*(arr["com_total"][-1] - arr["com_total"][0]))
        assert drift < 1e-8 * 8.0


def test_step_underflow(monkeypatch):
    p = params_from_phase(1.5, 0.5)
    st = init_random_disk(p, 12, 8, 1.0, seed=1)
    monkeypatch.setattr(particles, "DISPLACEMENT_FACTOR", 1e-18)
    with pytest.raises(StepUnderflow):
        run(st, 1.0)


def test_morphology_labels():
    p = params_from_phase(3.0, 3.5)
    cfg = build_equilibrium(EquilibriumKind.TARGET_LIGHT_IN, p)
    st = init_from_equilibrium(cfg, 133, 67, seed=5)
    # a short relaxation removes the O(1/sqrt(N)) sampling offset of the coms
    st, _ = run(st, 8.0)
    m = morphology(st)
    assert m.label == "target-like"
    assert m.d_over_R < 0.05
    assert m.overlap_fraction == 0.0

    pos1 = init_random_disk(p, 60, 60, 1.0, seed=2).pos1
    pos2 = init_random_disk(p, 60, 60, 1.0, seed=3).pos2
    mixed = ParticleState(np.concatenate([pos1 - pos1.mean(axis=0), pos2 - pos2.mean(axis=0)]), len(pos1), p)
    assert morphology(mixed).label == "mixed"

    pos1 = init_random_disk(p, 60, 60, 0.5, seed=2).pos1
    pos2 = init_random_disk(p, 60, 60, 0.5, seed=3).pos2 + np.array([3.0, 0.0])
    sep = ParticleState(np.concatenate([pos1, pos2]), len(pos1), p)
    assert morphology(sep).label == "separated"

    pos2 = init_random_disk(p, 60, 60, 0.5, seed=3).pos2 + np.array([2.0, 0.0])
    tang = ParticleState(np.concatenate([sep.pos1, pos2]), len(sep.pos1), p)
    assert morphology(tang).label == "tangential"


def test_morphology_too_few():
    p = params_from_phase(1.0, 2.0)
    pos1, pos2 = np.zeros((5, 2)) + [[1, 0]], np.ones((20, 2))
    st = ParticleState(np.concatenate([pos1, pos2]), len(pos1), p)
    with pytest.raises(TooFewParticles):
        morphology(st)


def test_mode_signatures_at_ansatz():
    # symmetric ansatz: tiny displacement and near-isotropic second moments
    cfg = build_equilibrium(EquilibriumKind.TARGET_LIGHT_IN, params_from_phase(3, 3.5))
    st = init_from_equilibrium(cfg, 400, 200, seed=9)
    assert core_displacement(st, 2) < 0.05
    assert core_anisotropy(st, 2) < 1.3


def test_support_radii_of_uniform_disk(rng):
    p = params_from_phase(1.0, 1.0)
    st = init_random_disk(p, 4000, 4000, 2.0, seed=4)
    r1, r2 = support_radii(st)
    assert r1 == pytest.approx(2.0 * math.sqrt(0.95), rel=0.02)
    assert r2 == pytest.approx(2.0 * math.sqrt(0.95), rel=0.02)


def test_weak_coupling_separation_reaches_prediction():
    # 100 particles split 67:33, unit self-coefficients, a_c = 6, eta = 0.001:
    # the separation approaches sqrt(A/B) = sqrt(6)
    p = InteractionParams(a_s=1, a_c=6, b_s=1, b_c=1, M1=2, M2=1, eta=0.001)
    st = init_random_disk(p, 67, 33, 1.0, seed=7)
    st, _ = run(st, 2000.0, record_interval=500.0)
    m = morphology(st)
    assert m.d_over_R == pytest.approx(math.sqrt(6.0), rel=0.10)
    assert m.label == "separated"


def test_two_timescale_structure():
    # fast per-species relaxation, slow inter-species separation
    p = InteractionParams(a_s=1, a_c=6, b_s=1, b_c=1, M1=2, M2=1, eta=0.001)
    st = init_random_disk(p, 67, 33, 0.6, seed=3)
    st, _ = run(st, 10.0, record_interval=5.0)
    early = support_radii(st)
    d_early = morphology(st).d_over_R
    st, _ = run(st, 40.0, record_interval=5.0)
    late = support_radii(st)
    # radii already equilibrated at t = 10 ...
    assert early[0] == pytest.approx(late[0], rel=0.05)
    assert early[1] == pytest.approx(late[1], rel=0.05)
    # ... while the separation is still far from its asymptotic value
    assert d_early < 0.5 * math.sqrt(6.0)


def _direct_pair_terms(state):
    """Velocities and energy as explicit double sums over all pairs.

    Also returns each particle's rounding scale for the blocked pass: the
    magnitudes of the terms of its factored sum x_i sum_j k_ij - sum_j k_ij x_j,
    each inflated by the relative error (|x_i|^2 + |x_j|^2) / r^2 of the
    expanded squared distance, except where r^2 < 1e-12 is recomputed exactly.
    """
    p = state.params
    X = np.concatenate([state.pos1, state.pos2])
    species = np.repeat([0, 1], [state.n1, state.n2])
    w = np.where(species == 0, state.w1, state.w2)
    same = species[:, None] == species[None, :]
    a = np.where(same, p.a_s, p.ac_eff)
    b = np.where(same, p.b_s, p.bc_eff)
    dx = np.subtract.outer(X[:, 0], X[:, 0])
    dy = np.subtract.outer(X[:, 1], X[:, 1])
    r2 = dx**2 + dy**2
    off = ~np.eye(len(X), dtype=bool)
    r2_off = np.where(off, r2, np.inf)
    k = w[None, :] * (a / r2_off - b * off)
    v = np.column_stack([np.sum(k * dx, axis=1), np.sum(k * dy, axis=1)])
    norm2 = np.sum(X**2, axis=1)
    expanded = np.where(r2_off >= 1e-12, np.add.outer(norm2, norm2) / r2_off, 0.0)
    norm = np.sqrt(norm2)
    scale = np.sum(w * (a / r2_off + b * off) * np.add.outer(norm, norm) * (1.0 + expanded), axis=1)
    e_pairs = np.where(off, np.outer(w, w) * (-0.5 * a * np.log(np.where(off, r2, 1.0)) + 0.5 * b * r2), 0.0)
    return v, scale, 0.5 * float(np.sum(e_pairs)), float(np.sum(np.abs(e_pairs)))


def _blocked_state(seed=4):
    # 300 particles per species at N = 600: at least three row blocks each
    p = InteractionParams(1.2, 0.8, 0.9, 1.7, 3, 2, eta=0.7)
    st = init_random_disk(p, 300, 300, 1.0, seed=seed)
    assert math.ceil(300 / (BLOCK_ELEMENTS // 600)) >= 3
    return st


def test_pair_pass_matches_direct_double_sum():
    st = _blocked_state()
    pos1, pos2 = st.pos1.copy(), st.pos2.copy()
    # a cross pair 1e-7 apart in a late block: its expanded r^2 is recomputed exactly
    pos2[280] = pos1[250] + [1e-7, 0.0]
    st = ParticleState(np.concatenate([pos1, pos2]), len(pos1), st.params)
    v_ref, scale, e_ref, e_scale = _direct_pair_terms(st)
    v = forces(st)
    assert np.all(np.abs(v - v_ref) <= 1e-14 * scale[:, None])
    assert particle_energy(st) == pytest.approx(e_ref, abs=1e-13 * e_scale)
    dist = np.hypot(np.subtract.outer(pos1[:, 0], pos1[:, 0]), np.subtract.outer(pos1[:, 1], pos1[:, 1]))
    spacing = float(np.median(np.min(dist + np.diag(np.full(len(pos1), np.inf)), axis=1)))
    edge = np.hypot(*(pos1 - pos1.mean(axis=0)).T).max() + 0.5 * spacing
    assert edge_radius(pos1) == pytest.approx(edge, rel=1e-12)


def test_collision_in_a_late_block_raises():
    st = _blocked_state()
    pos2 = st.pos2.copy()
    pos2[290] = pos2[150] + [0.1 * collision_threshold(st.params), 0.0]
    with pytest.raises(ParticleCollision):
        forces(ParticleState(np.concatenate([st.pos1, pos2]), len(st.pos1), st.params))


def test_pair_pass_memory_is_bounded():
    p = params_from_phase(3.0, 3.5)
    st = init_from_equilibrium(build_equilibrium(EquilibriumKind.TARGET_LIGHT_IN, p), 4000, 2000, seed=1)
    for pass_ in (forces, particle_energy):
        tracemalloc.start()
        try:
            pass_(st)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20, (pass_.__name__, peak)


def _ragged_blocked_state(monkeypatch):
    """(n1, n2) = (331, 77) with 40-row blocks: several per species, neither count a multiple."""
    monkeypatch.setattr(particles, "BLOCK_ELEMENTS", 40 * 408)
    p = InteractionParams(1.2, 0.8, 0.9, 1.7, 3, 2, eta=0.7)
    st = init_random_disk(p, 331, 77, 1.0, seed=6)
    assert [hi - lo for _, lo, hi in particles._row_blocks(331, 77)] == [40] * 8 + [11, 40, 37]
    return st


def test_triangle_pass_matches_direct_double_sum_over_ragged_blocks(monkeypatch):
    st = _ragged_blocked_state(monkeypatch)
    v_ref, scale, e_ref, e_scale = _direct_pair_terms(st)
    v = forces(st)
    assert np.all(np.abs(v - v_ref) <= 1e-14 * scale[:, None])
    assert particle_energy(st) == pytest.approx(e_ref, abs=1e-13 * e_scale)
    for pos in (st.pos1, np.concatenate([st.pos1, st.pos2])):
        dist = np.hypot(np.subtract.outer(pos[:, 0], pos[:, 0]), np.subtract.outer(pos[:, 1], pos[:, 1]))
        spacing = float(np.median(np.min(dist + np.diag(np.full(len(pos), np.inf)), axis=1)))
        edge = np.hypot(*(pos - pos.mean(axis=0)).T).max() + 0.5 * spacing
        assert edge_radius(pos) == pytest.approx(edge, rel=1e-12)


def test_triangle_pass_conserves_momentum_with_a_close_pair_in_the_last_blocks(monkeypatch):
    # the last particle of each species 1e-7 apart: species 1's row in the last
    # block of species 1, formed as a column of the last, 11-row block of species 0
    st = _ragged_blocked_state(monkeypatch)
    pos2 = st.pos2.copy()
    pos2[-1] = st.pos1[-1] + [6e-8, -8e-8]
    st = ParticleState(np.concatenate([st.pos1, pos2]), len(st.pos1), st.params)
    v_ref, scale, _, _ = _direct_pair_terms(st)
    v = forces(st)
    v1, v2 = v[: st.n1], v[st.n1 :]
    w = np.repeat([st.w1, st.w2], [st.n1, st.n2])
    momentum = st.w1 * v1.sum(axis=0) + st.w2 * v2.sum(axis=0)
    assert np.all(np.abs(momentum) <= 1e-14 * float(w @ scale))
    # the close pair's own terms, about 1e5 in velocity, cancel to that rounding
    assert np.hypot(*v_ref[st.n1 - 1]) > 1e5
    assert np.all(np.abs(np.concatenate([v1, v2]) - v_ref) <= 1e-14 * scale[:, None])


@pytest.mark.parametrize("gap", [1e-5, 3e-6])
def test_near_pair_is_recomputed_relative_to_the_position_scale(gap):
    # at |x| ~ 1 the expanded r^2 has an absolute error of about 1e-16, which
    # at these gaps is 1e-6..1e-5 of r^2; the pass recomputes such entries
    p = InteractionParams(1.2, 0.8, 0.9, 1.7, 3, 2, eta=0.7)
    st = init_random_disk(p, 100, 50, 1.0, seed=5)
    pos1, pos2 = st.pos1.copy(), st.pos2.copy()
    pos1[60] = [0.8, 0.6]
    pos2[30] = pos1[60] + gap * np.array([0.6, -0.8])
    st = ParticleState(np.concatenate([pos1, pos2]), len(pos1), p)
    v_ref = _direct_pair_terms(st)[0]
    v = forces(st)
    for i in (60, st.n1 + 30):
        assert np.hypot(*(v[i] - v_ref[i])) <= 1e-9 * np.hypot(*v_ref[i])


def test_step_validates_every_stage_state(monkeypatch):
    # a NaN velocity from stage 2 raises when stage 3's state is built, before its evaluation
    st = init_random_disk(params_from_phase(3.0, 3.5), 20, 10, 1.0, seed=1)
    calls = []
    original = particles.forces

    def nan_at_stage_2(state, diag=None):
        calls.append(1)
        v = original(state, diag)
        if len(calls) == 2:
            v[: state.n1] = np.nan
        return v

    monkeypatch.setattr(particles, "forces", nan_at_stage_2)
    with pytest.raises(ValueError, match="finite"):
        step(st, 0.01)
    assert len(calls) == 2
    calls.clear()
    diag = particles.RunDiagnostics()
    with pytest.raises(ValueError, match="finite"):
        step(st, 0.01, diag=diag)
    assert diag.force_evals == 2


@pytest.mark.parametrize("name", ["record_interval"])
@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
def test_run_controls_reject_non_positive_or_non_finite(name, value):
    st = init_random_disk(params_from_phase(3.0, 3.5), 20, 10, 1.0, seed=1)
    with pytest.raises(ValueError, match=name):
        run(st, 1.0, **{name: value})


@pytest.mark.parametrize("t_end", [math.nan, -1.0, math.inf])
def test_run_rejects_a_t_end_before_the_start_or_not_finite(monkeypatch, t_end):
    st = init_random_disk(params_from_phase(3.0, 3.5), 20, 10, 1.0, seed=1)

    def no_work(*args, **kwargs):
        raise AssertionError("run evaluated velocities before rejecting t_end")

    monkeypatch.setattr(particles, "forces", no_work)
    with pytest.raises(ValueError, match="t_end"):
        run(st, t_end)


def test_run_refuses_a_horizon_beyond_max_steps_at_the_step_cap(monkeypatch):
    st = init_random_disk(params_from_phase(3.0, 3.5), 20, 10, 1.0, seed=1)
    original = particles.forces

    def no_work(*args, **kwargs):
        raise AssertionError("run evaluated velocities before rejecting t_end")

    monkeypatch.setattr(particles, "forces", no_work)
    with pytest.raises(ValueError, match="t_end"):
        run(st, 1e300)
    # MAX_STEPS steps at the cap is a lower bound on the steps a run takes: a run
    # that could just finish within it is accepted
    monkeypatch.setattr(particles, "MAX_STEPS", 3)
    dt_max = C_RK4 / relaxation_rate(st.params)
    with pytest.raises(ValueError, match="t_end"):
        run(st, 3.0 * dt_max * (1.0 + 1e-12))
    monkeypatch.setattr(particles, "forces", original)
    final, diag = run(st, 3.0 * dt_max)
    assert final.t == 3.0 * dt_max and diag.accepted_steps >= 3


@pytest.mark.parametrize("a_s, b_s", [(1e-300, 1.0), (1e-200, 1e200)])
def test_an_underflowing_collision_threshold_is_out_of_range(a_s, b_s):
    # the threshold's square is 0: a_s/b_s is tiny, or underflows itself
    p = InteractionParams(a_s, 1.0, b_s, 1.0, 1.0, 1.0)
    st = init_random_disk(p, 20, 10, 1.0, seed=1)
    for call in (
        lambda: collision_threshold(p),
        lambda: forces(st),
        lambda: forces(st, particles.RunDiagnostics()),
        lambda: run(st, C_RK4 / relaxation_rate(p)),
    ):
        with pytest.raises(OutOfRange):
            call()


def _close_pair_state():
    """A random swarm with one pair 1e-3 apart, which forces rejected steps at the start."""
    p = params_from_phase(2.0, 1.5)
    st = init_random_disk(p, 40, 20, 1.0, seed=2)
    pos1 = st.pos1.copy()
    pos1[1] = pos1[0] + [1e-3, 0.0]
    return ParticleState(np.concatenate([pos1, st.pos2]), len(pos1), p)


def test_run_computes_each_state_velocity_once(monkeypatch):
    st = _close_pair_state()
    p = st.params
    calls = []
    original = particles.forces
    monkeypatch.setattr(particles, "forces", lambda *a, **k: calls.append(1) or original(*a, **k))
    dt_max = C_RK4 / relaxation_rate(p)
    _, diag = run(st, 1.0, record_interval=dt_max)
    assert diag.rejected_steps > 0 and diag.accepted_steps > 0
    assert diag.force_evals == 4 * diag.accepted_steps + 3 * diag.rejected_steps + 1
    assert diag.force_evals == len(calls)
    assert 0.0 < diag.dt_min < diag.dt_max <= dt_max
    assert 1.0 < diag.closest_pair_ratio <= 1e-3 / collision_threshold(p)


def test_run_lands_exactly_on_each_stop():
    st0 = init_random_disk(params_from_phase(3.0, 3.5), 20, 10, 1.0, seed=1)
    # from t = 0, t + (stop - t) would miss a stop more than twice t by an ulp
    assert [s.t for s in run(st0, 0.009, stops=[0.001, 0.009])[1].stop_states] == [0.001, 0.009]
    st = ParticleState(np.concatenate([st0.pos1, st0.pos2]), len(st0.pos1), st0.params, t=10.0)
    stops = [10.1, 10.3, 10.3 + 1e-6, 31.0 / 3.0, 17.7, 30.0]
    final, diag = run(st, 30.0, stops=stops)
    assert [s.t for s in diag.stop_states] == stops
    assert final.t == 30.0
    assert diag.stop_states[-1] is final
    # after a shortened step onto a stop the controller keeps its own dt, so each
    # stop costs at most one extra step
    assert diag.accepted_steps <= run(st, 30.0)[1].accepted_steps + len(stops)
    # records: the first state at or past each 10 + k * 0.1, 1/200 of the run's own length
    lag = np.asarray(diag.t) - (10.0 + 0.1 * np.arange(len(diag.t)))
    assert len(diag.t) == 201 and np.all(lag > -1e-12) and np.all(lag < diag.dt_max)
    with pytest.raises(ValueError):
        run(st, 30.0, stops=[11.0, 10.5])
    with pytest.raises(ValueError):
        run(st, 30.0, stops=[9.0])


def test_run_fills_a_record_row_per_grid_time_and_bounds_their_number():
    st = init_random_disk(params_from_phase(3.0, 3.5), 20, 10, 1.0, seed=1)
    # grid 0.01 against steps of up to dt_max = 0.125: each row holds the first
    # state at or past its grid time, repeated where a step spans several
    _, diag = run(st, 2.0, record_interval=0.01)
    t = np.asarray(diag.t)
    assert len(t) == 201 and diag.dt_max > 0.05
    lag = t - 0.01 * np.arange(len(t))
    assert np.all(lag > -1e-12) and np.all(lag < diag.dt_max) and np.all(np.diff(t) >= 0.0)
    assert len(set(diag.t)) < len(t)
    with pytest.raises(ValueError):
        run(st, 1.0, record_interval=1e-6)
    # the rounding allowance of a grid time stays below a tiny interval: one row per grid time
    _, diag = run(st, 1e-14, record_interval=1e-17)
    assert len(diag.t) == 1001


def test_stops_cost_no_velocity_evaluation(monkeypatch):
    st = _close_pair_state()
    calls = []
    original = particles.forces
    monkeypatch.setattr(particles, "forces", lambda *a, **k: calls.append(1) or original(*a, **k))
    stops = [1e-4, 0.25, 0.5, 0.75]
    _, diag = run(st, 1.0, stops=stops)
    assert diag.rejected_steps > 0 and diag.accepted_steps > 0
    assert [s.t for s in diag.stop_states] == stops
    assert diag.force_evals == 4 * diag.accepted_steps + 3 * diag.rejected_steps + 1
    assert diag.force_evals == len(calls)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    A=hst.floats(0.3, 3.0),
    B=hst.floats(0.3, 3.0),
    M=hst.floats(1.0, 3.0),
    seed=hst.integers(0, 2**31 - 1),
    stops=hst.lists(hst.floats(0.0, 2.0), max_size=4).map(sorted),
)
def test_run_energy_decreases_and_com_stays(A, B, M, seed, stops):
    t_end = 2.0
    st = init_random_disk(params_from_phase(A, B, M), 20, 10, 1.0, seed=seed)
    _, diag = run(st, t_end, stops=stops)
    arr = diag.as_arrays()
    e = arr["energy"]
    assert np.all(np.diff(e) <= 1e-6 * abs(e[0]) + 1e-12)
    assert diag.max_energy_rise <= 1e-6
    assert 0.0 < diag.max_stiffness <= STIFFNESS_LIMIT
    drift = np.hypot(*(arr["com_total"] - arr["com_total"][0]).T)
    assert np.all(drift < 1e-8 * t_end)
    # the states handed back at the stops lie on the same descending path
    e_stops = [particle_energy(s) for s in diag.stop_states]
    assert np.all(np.diff([e[0], *e_stops]) <= 1e-6 * abs(e[0]) + 1e-12)
    for s in diag.stop_states:
        assert np.hypot(*(s.com() - arr["com_total"][0])) < 1e-8 * t_end


def test_run_reports_the_centre_of_mass_drift():
    p = params_from_phase(3.0, 3.5, 2.0)
    _, diag = run(init_random_disk(p, 133, 67, 1.0, seed=7), 5.0)
    com = np.asarray(diag.com_total)
    R = math.sqrt(p.a_s / p.b_s)
    assert diag.max_com_drift == np.max(np.hypot(*(com - com[0]).T)) / R
    assert diag.max_com_drift <= 1e-10


def _jacobian_rate(state, h=1e-7):
    """Largest |eigenvalue| of the flow's Jacobian by forward differences, one ``forces`` call per coordinate."""
    X = np.concatenate([state.pos1, state.pos2])
    f0 = forces(state).ravel()
    J = np.empty((X.size, X.size))
    for c in range(X.size):
        Y = X.ravel().copy()
        Y[c] += h
        Y = Y.reshape(-1, 2)
        moved = ParticleState(np.concatenate([Y[: state.n1], Y[state.n1 :]]), state.n1, state.params)
        J[:, c] = (forces(moved).ravel() - f0) / h
    return float(np.max(np.abs(np.linalg.eigvals(J))))


#: RK4's stability interval on the negative real axis is [-2.785, 0].
RK4_REAL_LIMIT = 2.785


@pytest.mark.parametrize(
    "kind, A, B, eta",
    [
        (EquilibriumKind.TARGET_LIGHT_IN, 3.0, 3.5, 1.0),
        (EquilibriumKind.OVERLAP_LIGHT_IN, 0.5, 1.0, 1.0),
        (None, 3.0, 1.0, 0.05),
    ],
)
def test_step_cap_keeps_relaxed_spectrum_inside_rk4_stability(kind, A, B, eta):
    # relaxed to t = 5, so the close pairs of the initial sample have spread;
    # the continuum rate relaxation_rate is exact for the continuum (and bounds
    # the coexistence densities' rate of overlap states), while a sampled state
    # of N = 100 still relaxes up to 25% faster: lambda * dt_max lies in
    # 2.0..2.5 over seeds 0..5, inside RK4's stability interval, and the
    # stiffness check guards what the bound misses
    p = params_from_phase(A, B, eta=eta)
    if kind is None:
        st = init_random_disk(p, 67, 33, 1.0, seed=3)
    else:
        st = init_from_equilibrium(build_equilibrium(kind, p), 67, 33, seed=3)
    st, _ = run(st, 5.0)
    dt_max = C_RK4 / relaxation_rate(p)
    # the tolerance above C_RK4 = 2 is 0.785, up to the stability limit itself;
    # from below, the sampled flow reaches the continuum rate, so the cap wastes nothing
    assert 0.99 * C_RK4 <= _jacobian_rate(st) * dt_max <= RK4_REAL_LIMIT


def test_stiffness_check_rejects_a_step_and_reuses_k1(monkeypatch):
    # one cross pair near its kernel zero r* = sqrt(a_c/b_c) relaxes at
    # 2 (w1 + w2) b_c = 12, faster than the continuum rate 2 (b_s + b_c) = 8
    # that sets dt_max: the first attempt has q * dt = 3, and only the
    # stiffness check can reject it, as the pair barely moves
    p = params_from_phase(1.0, 3.0, M=1.0)
    r_star = math.sqrt(p.ac_eff / p.bc_eff)
    st = ParticleState(np.concatenate([[[0.0, 0.0]], [[1.01 * r_star, 0.0]]]), 1, p)
    calls, attempts = [], []
    original_forces, original_step = particles.forces, particles.step

    def traced_step(state, dt, k1=None, diag=None):
        new = original_step(state, dt, k1=k1, diag=diag)
        attempts.append((dt, diag.step_stiffness))
        return new

    monkeypatch.setattr(particles, "forces", lambda *a, **k: calls.append(1) or original_forces(*a, **k))
    monkeypatch.setattr(particles, "step", traced_step)
    _, diag = run(st, 1.0)
    (dt0, qdt0), (dt1, qdt1) = attempts[:2]
    assert dt0 == C_RK4 / relaxation_rate(p) and qdt0 == pytest.approx(12.0 * dt0, rel=0.05)
    assert qdt0 > STIFFNESS_LIMIT and dt1 == min(0.5 * dt0, C_RK4 * dt0 / qdt0) and qdt1 <= STIFFNESS_LIMIT
    assert diag.rejected_steps >= 1 and diag.max_stiffness <= STIFFNESS_LIMIT
    assert diag.force_evals == 4 * diag.accepted_steps + 3 * diag.rejected_steps + 1
    assert diag.force_evals == len(calls)
    assert diag.max_energy_rise <= 1e-6


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    A=hst.floats(0.05, 5.0),
    B=hst.floats(0.05, 5.0),
    M=hst.floats(1.0, 4.0),
    kind=hst.sampled_from(list(EquilibriumKind)),
    seed=hst.integers(0, 2**31 - 1),
)
def test_init_from_equilibrium_shell_masses(A, B, M, kind, seed):
    assume(abs(A - 1.0) > 1e-12)  # the coexistence pair is singular at A = 1
    cfg = build_equilibrium(kind, params_from_phase(A, B, M))
    assume(cfg.exists)
    p = cfg.params
    assert sum(s.mass1 for s in cfg.shells) == pytest.approx(p.M1, rel=1e-10)
    assert sum(s.mass2 for s in cfg.shells) == pytest.approx(p.M2, rel=1e-10)
    st = init_from_equilibrium(cfg, 60, 40, seed=seed)
    for species, pos, w in ((1, st.pos1, st.w1), (2, st.pos2, st.w2)):
        r = np.hypot(*pos.T)
        shells = [s for s in cfg.shells if s.density(species) > 0.0]
        sampled = [w * np.sum((r >= s.r_in) & (r <= s.r_out)) for s in shells]
        assert sum(sampled) == pytest.approx(p.M1 if species == 1 else p.M2, rel=1e-12)
        for s, m in zip(shells, sampled):
            assert abs(m - (s.mass1 if species == 1 else s.mass2)) <= w
