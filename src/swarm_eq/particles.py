"""Interacting particle system: the discrete analogue of the two-species model.

Each particle of species i carries weight M_i/N_i and moves with the velocity
induced by all other particles through the self/cross kernels (no self term).
The flow is a gradient flow of the sampled interaction energy, which the RK4
stepper preserves as a diagnostic: energy decreases and the weighted centre
of mass is conserved up to rounding.

``run`` makes one adaptive integration to ``t_end`` that lands exactly on
each of a sorted list of stop times, hands back the state at each and keeps
its step-size controller across them; records lie on one grid over the
whole run, and a stop costs no extra velocity evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .equilibria import EquilibriumConfig
from .errors import EquilibriumMissing, ParticleCollision, StepUnderflow, TooFewParticles
from .model import InteractionParams

#: Hard lower bound on the adaptive time step.
DT_MIN = 1e-12


@dataclass(frozen=True)
class ParticleState:
    """Positions of both species with the model parameters and current time."""

    pos1: np.ndarray
    pos2: np.ndarray
    params: InteractionParams
    t: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "pos1", np.atleast_2d(np.asarray(self.pos1, dtype=float)))
        object.__setattr__(self, "pos2", np.atleast_2d(np.asarray(self.pos2, dtype=float)))
        if self.pos1.shape[1] != 2 or self.pos2.shape[1] != 2:
            raise ValueError("positions must be (N, 2) arrays")
        if len(self.pos1) < 1 or len(self.pos2) < 1:
            raise ValueError("each species needs at least one particle")
        if not (np.all(np.isfinite(self.pos1)) and np.all(np.isfinite(self.pos2))):
            raise ValueError("positions must be finite")

    @property
    def n1(self) -> int:
        return len(self.pos1)

    @property
    def n2(self) -> int:
        return len(self.pos2)

    @property
    def w1(self) -> float:
        return self.params.M1 / self.n1

    @property
    def w2(self) -> float:
        return self.params.M2 / self.n2

    def com(self) -> np.ndarray:
        """Total weighted centre of mass."""
        total = self.w1 * self.pos1.sum(axis=0) + self.w2 * self.pos2.sum(axis=0)
        return total / (self.params.M1 + self.params.M2)


def collision_threshold(p: InteractionParams) -> float:
    """Pairwise distances below this abort the run rather than soften the kernel."""
    return 1e-12 * math.sqrt(p.a_s / p.b_s)


#: Doubles in one row block of the pair pass (rows x N).  Blocks of about
#: 0.5 MB stay in cache while the block's few elementwise passes run over it,
#: and bound the pass's memory; the row count depends only on N, so results
#: do not depend on the machine.
BLOCK_ELEMENTS = 1 << 16


def _row_blocks(*counts):
    """Row ranges (group, lo, hi) of the pair pass; each lies within one group (species)."""
    rows = max(1, BLOCK_ELEMENTS // sum(counts))
    blocks, start = [], 0
    for group, count in enumerate(counts):
        blocks += [(group, lo, min(lo + rows, start + count)) for lo in range(start, start + count, rows)]
        start += count
    return blocks


class _PairPass:
    """Blocked squared distances between the rows of one (N, 2) position array."""

    def __init__(self, X):
        self.X = X
        self.x2 = np.einsum("ij,ij->i", X, X)
        self.m2X = -2.0 * X

    def dist_sq(self, lo, hi, c0=0):
        """Squared distances of rows lo:hi to rows c0: and their minimum; self pairs are inf.

        The expanded form |x|^2 + |y|^2 - 2 x.y runs on BLAS but loses precision
        once |x - y|^2 approaches rounding of the position magnitudes, so
        entries below 1e-12, negative ones included, are recomputed from the
        explicit differences.
        """
        X = self.X
        r2 = X[lo:hi] @ self.m2X[c0:].T
        r2 += self.x2[lo:hi, None]
        r2 += self.x2[None, c0:]
        r2.reshape(-1)[lo - c0 :: r2.shape[1] + 1] = np.inf  # entries (k, lo + k - c0)
        low = float(r2.min())
        if low < 1e-12:
            ii, jj = np.nonzero(r2 < 1e-12)
            diff = X[lo + ii] - X[c0 + jj]
            r2[ii, jj] = np.einsum("ij,ij->i", diff, diff)
            low = float(r2.min())
        return r2, low


def _repulsion_weights(state: ParticleState):
    """Column weights a_ij * w_j over all N particles, one vector per row species i."""
    p, counts = state.params, [state.n1, state.n2]
    return (
        np.repeat([p.a_s * state.w1, p.ac_eff * state.w2], counts),
        np.repeat([p.ac_eff * state.w1, p.a_s * state.w2], counts),
    )


def forces(state: ParticleState, diag: RunDiagnostics | None = None):
    """Velocities of all particles (right-hand side of the particle system).

    v_i = sum_j w_j [a_ij (x_i - x_j) / |x_i - x_j|^2 - b_ij (x_i - x_j)].  The
    repulsion runs as one blocked pass over all pairs, one matrix product per
    block against [c_j, c_j x_j, c_j y_j] with c_j = a_ij w_j.  The attraction
    is linear in positions: sum_j b_ij w_j (x_i - x_j) = x_i sb_i - tb_i from
    each species' mass and first moment (the j = i term is 0).  With
    ``diag``, the evaluation and its closest pair are counted.
    """
    p = state.params
    X = np.concatenate([state.pos1, state.pos2])
    pairs = _PairPass(X)
    d2 = collision_threshold(p) ** 2
    ones_X = np.column_stack([np.ones(len(X)), X])
    repulsion = [c[:, None] * ones_X for c in _repulsion_weights(state)]
    mass = (state.w1 * state.n1, state.w2 * state.n2)
    first = (state.w1 * state.pos1.sum(axis=0), state.w2 * state.pos2.sum(axis=0))
    sb = [p.b_s * mass[s] + p.bc_eff * mass[1 - s] for s in (0, 1)]
    tb = [p.b_s * first[s] + p.bc_eff * first[1 - s] for s in (0, 1)]
    v = np.empty_like(X)
    closest = math.inf
    for s, lo, hi in _row_blocks(state.n1, state.n2):
        r2, low = pairs.dist_sq(lo, hi)
        if low < d2:
            raise ParticleCollision(f"minimum pairwise distance {math.sqrt(low):.3e} below {math.sqrt(d2):.3e}")
        closest = min(closest, low)
        S = np.reciprocal(r2, out=r2) @ repulsion[s]
        v[lo:hi] = X[lo:hi] * (S[:, :1] - sb[s]) - (S[:, 1:] - tb[s])
    if diag is not None:
        diag.force_evals += 1
        diag.closest_pair_ratio = min(diag.closest_pair_ratio, math.sqrt(closest / d2))
    return v[: state.n1], v[state.n1 :]


def particle_energy(state: ParticleState) -> float:
    """Sampled interaction energy (the Lyapunov function of the flow).

    E = sum_{i<j} w_i w_j [-a_ij/2 log|x_i - x_j|^2 + b_ij/2 |x_i - x_j|^2].
    The log term runs as a blocked pass over the pairs j > i; the quadratic
    term comes from each species' spread about its own mean.
    """
    p = state.params
    X = np.concatenate([state.pos1, state.pos2])
    pairs = _PairPass(X)
    w = np.repeat([state.w1, state.w2], [state.n1, state.n2])
    weights = _repulsion_weights(state)
    log_sum = 0.0
    for s, lo, hi in _row_blocks(state.n1, state.n2):
        # pairs j > i: the columns from lo on, with the block's own square
        # (symmetric, one species) at half weight and its diagonal at log 1 = 0
        r2, _ = pairs.dist_sq(lo, hi, c0=lo)
        r2.reshape(-1)[:: r2.shape[1] + 1] = 1.0
        c = weights[s][lo:].copy()
        c[: hi - lo] *= 0.5
        log_sum += float(w[lo:hi] @ (np.log(r2, out=r2) @ c))

    # sum over pairs of |x_i - x_j|^2 within a species of n: n * spread; across: by the means
    spread = [float(np.sum((pos - pos.mean(axis=0)) ** 2)) for pos in (state.pos1, state.pos2)]
    gap2 = float(np.sum((state.pos1.mean(axis=0) - state.pos2.mean(axis=0)) ** 2))
    quad_self = state.w1**2 * state.n1 * spread[0] + state.w2**2 * state.n2 * spread[1]
    quad_cross = state.w1 * state.w2 * (
        state.n2 * spread[0] + state.n1 * spread[1] + state.n1 * state.n2 * gap2
    )
    return -0.5 * log_sum + 0.5 * (p.b_s * quad_self + p.bc_eff * quad_cross)


def max_speed(state: ParticleState, v=None) -> float:
    """Largest particle speed; ``v`` gives the state's velocities if already computed."""
    v1, v2 = forces(state) if v is None else v
    return float(max(np.max(np.hypot(v1[:, 0], v1[:, 1])), np.max(np.hypot(v2[:, 0], v2[:, 1]))))


def step(state: ParticleState, dt: float, k1=None, diag: RunDiagnostics | None = None) -> ParticleState:
    """One classical RK4 step of the particle ODE system.

    ``k1`` gives the velocities at ``state`` when already computed; ``diag``
    counts the stage evaluations.
    """
    if dt <= 0.0:
        raise ValueError("dt must be > 0")
    n1 = state.n1
    x = np.concatenate([state.pos1, state.pos2])

    def rhs(y):
        return np.concatenate(forces(replace(state, pos1=y[:n1], pos2=y[n1:]), diag))

    k1 = np.concatenate(forces(state, diag) if k1 is None else k1)
    k2 = rhs(x + 0.5 * dt * k1)
    k3 = rhs(x + 0.5 * dt * k2)
    k4 = rhs(x + dt * k3)
    y = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return replace(state, pos1=y[:n1], pos2=y[n1:], t=state.t + dt)


@dataclass(frozen=True)
class RunControls:
    """Adaptive stepping and recording knobs for ``run``.

    The step is halved whenever the largest particle displacement exceeds
    ``displacement_factor`` times sqrt(a_s/b_s) and grown gently when far
    below it, capped at ``dt_max`` (default: a conservative fraction of the
    fastest linear relaxation rate).  Records are taken at the first
    accepted state at or past each t0 + k * ``record_interval`` (default:
    1/200 of the run's length, at least ``dt_max``), which must be finite
    and > 0.
    """

    dt_max: float | None = None
    displacement_factor: float = 0.1
    record_interval: float | None = None
    record_energy: bool = True

    def __post_init__(self):
        if self.record_interval is not None and not 0.0 < self.record_interval < math.inf:
            raise ValueError(f"record_interval must be finite and > 0, got {self.record_interval}")

    def resolved_dt_max(self, p: InteractionParams) -> float:
        if self.dt_max is not None:
            return self.dt_max
        rate = 2.0 * (p.b_s + p.bc_eff) * (p.M1 + p.M2)
        return 1.0 / rate


@dataclass
class RunDiagnostics:
    """Traces recorded along a run, the states reached at its stops and run counters.

    ``stop_states`` holds the state at each of ``run``'s stop times, in
    order.  ``force_evals`` counts velocity evaluations, ``dt_min``/``dt_max``
    span the accepted step sizes (None before the first), and
    ``closest_pair_ratio`` is the smallest pair distance any evaluation saw
    over ``collision_threshold``.
    """

    t: list = field(default_factory=list)
    energy: list = field(default_factory=list)
    com_total: list = field(default_factory=list)
    d_over_R: list = field(default_factory=list)
    max_speed: list = field(default_factory=list)
    stop_states: list = field(default_factory=list)
    force_evals: int = 0
    accepted_steps: int = 0
    rejected_steps: int = 0
    dt_min: float | None = None
    dt_max: float | None = None
    closest_pair_ratio: float = math.inf

    def as_arrays(self):
        return {
            "t": np.asarray(self.t),
            "energy": np.asarray(self.energy),
            "com_total": np.asarray(self.com_total),
            "d_over_R": np.asarray(self.d_over_R),
            "max_speed": np.asarray(self.max_speed),
        }


def _record(diag: RunDiagnostics, state: ParticleState, with_energy: bool, v):
    p = state.params
    c1 = state.pos1.mean(axis=0)
    c2 = state.pos2.mean(axis=0)
    R = math.sqrt(p.a_s / p.b_s)
    diag.t.append(state.t)
    diag.energy.append(particle_energy(state) if with_energy else math.nan)
    diag.com_total.append(state.com())
    diag.d_over_R.append(float(np.hypot(*(c1 - c2))) / R)
    diag.max_speed.append(max_speed(state, v))


def run(state: ParticleState, t_end: float, controls: RunControls | None = None, stops=()):
    """Integrate to t = t_end with displacement-based adaptive RK4 steps.

    One integration lands exactly on each of the sorted ``stops`` (times in
    [state.t, t_end]) and on t_end, by stretching or shortening the step
    that reaches it; after a stop the controller goes on from its own step
    size.  Returns (final state, diagnostics), the states at the stops in
    ``diagnostics.stop_states``.  Raises StepUnderflow if repeated halving
    pushes dt below 1e-12 and ParticleCollision if particles meet.
    """
    controls = controls or RunControls()
    stops = [float(s) for s in stops]
    if stops and not (state.t <= stops[0] and stops[-1] <= t_end and stops == sorted(stops)):
        raise ValueError(f"stops must be sorted within [{state.t}, {t_end}]")
    p = state.params
    dt = dt_max = controls.resolved_dt_max(p)
    disp_limit = controls.displacement_factor * math.sqrt(p.a_s / p.b_s)
    t0 = state.t
    record_interval = controls.record_interval
    record_interval = max((t_end - t0) / 200.0, dt_max) if record_interval is None else record_interval

    # every accepted state's velocities are computed once: by its record or by the
    # next step's first stage; a rejected step retries with the same k1
    diag = RunDiagnostics()
    v = forces(state, diag)
    _record(diag, state, controls.record_energy, v)
    n_records = 1

    for k, target in enumerate([*stops, t_end]):
        while state.t < target:
            # a step that would stop within rounding of the target is stretched to land
            # on it, and that step sets t to the target itself
            last = dt >= target - state.t - 1e-12 * max(1.0, target)
            dt_try = target - state.t if last else dt
            if v is None:
                v = forces(state, diag)
            new_state = step(state, dt_try, k1=v, diag=diag)
            if last:
                new_state = replace(new_state, t=target)
            disp = max(
                float(np.max(np.hypot(*(new_state.pos1 - state.pos1).T))),
                float(np.max(np.hypot(*(new_state.pos2 - state.pos2).T))),
            )
            if disp > disp_limit:
                diag.rejected_steps += 1
                dt = 0.5 * dt_try
                if dt < DT_MIN:
                    raise StepUnderflow(f"time step underflow at t={state.t}")
                continue
            state, v = new_state, None
            diag.accepted_steps += 1
            diag.dt_min = dt_try if diag.dt_min is None else min(diag.dt_min, dt_try)
            diag.dt_max = dt_try if diag.dt_max is None else max(diag.dt_max, dt_try)
            if disp < 0.25 * disp_limit:
                dt = min(dt * 1.5, dt_max)
            # record times are products, so no rounding piles up along the run
            if state.t >= t0 + n_records * record_interval - 1e-12:
                v = forces(state, diag)
                _record(diag, state, controls.record_energy, v)
                n_records += 1
        if k < len(stops):
            diag.stop_states.append(state)

    if diag.t[-1] < state.t:
        _record(diag, state, controls.record_energy, forces(state, diag))
    return state, diag


def init_random_disk(
    params: InteractionParams, n1: int, n2: int, radius: float, seed: int
) -> ParticleState:
    """Both species uniformly random in a disk around the origin (seeded)."""
    rng = np.random.default_rng(seed)

    def sample(n):
        r = radius * np.sqrt(rng.random(n))
        th = 2.0 * math.pi * rng.random(n)
        return np.column_stack([r * np.cos(th), r * np.sin(th)])

    return ParticleState(pos1=sample(n1), pos2=sample(n2), params=params)


def _allocate_counts(fractions, n):
    """Largest-remainder rounding of n*fractions to integers summing to n."""
    raw = np.asarray(fractions) * n
    counts = np.floor(raw).astype(int)
    remainder = raw - counts
    for idx in np.argsort(-remainder)[: n - counts.sum()]:
        counts[idx] += 1
    return counts


def init_from_equilibrium(
    cfg: EquilibriumConfig, n1: int, n2: int, seed: int
) -> ParticleState:
    """Stratified sampling of an equilibrium ansatz: per-shell counts follow shell mass."""
    if not cfg.exists:
        raise EquilibriumMissing(f"cannot initialize from a non-existent state: {cfg.reason}")
    rng = np.random.default_rng(seed)

    def sample_species(species, n):
        shells = [s for s in cfg.shells if s.density(species) > 0.0]
        masses = np.array([s.mass1 if species == 1 else s.mass2 for s in shells])
        counts = _allocate_counts(masses / masses.sum(), n)
        chunks = []
        for s, cnt in zip(shells, counts):
            if cnt == 0:
                continue
            r = np.sqrt(s.r_in**2 + rng.random(cnt) * (s.r_out**2 - s.r_in**2))
            th = 2.0 * math.pi * rng.random(cnt)
            chunks.append(np.column_stack([r * np.cos(th), r * np.sin(th)]))
        return np.vstack(chunks)

    return ParticleState(
        pos1=sample_species(1, n1), pos2=sample_species(2, n2), params=cfg.params
    )


def support_radii(state: ParticleState) -> tuple[float, float]:
    """Robust per-species support radius: 95th-percentile distance from own com."""
    out = []
    for pos in (state.pos1, state.pos2):
        c = pos.mean(axis=0)
        out.append(float(np.percentile(np.hypot(*(pos - c).T), 95.0)))
    return tuple(out)


def edge_radius(positions, inner: bool = False) -> float:
    """Support-edge estimate of a particle cloud about its own centre of mass.

    Each particle stands for a density patch roughly one interparticle
    spacing across, so the swarm edge sits half a spacing beyond the extreme
    sample; the median nearest-neighbour distance supplies the spacing.  With
    ``inner`` the inner rim of an annular cloud is estimated instead.
    """
    positions = np.asarray(positions, dtype=float)
    c = positions.mean(axis=0)
    dist = np.hypot(*(positions - c).T)
    pairs = _PairPass(positions)
    nearest2 = np.concatenate([pairs.dist_sq(lo, hi)[0].min(axis=1) for _, lo, hi in _row_blocks(len(positions))])
    spacing = float(np.median(np.sqrt(nearest2)))
    if inner:
        return float(dist.min()) - 0.5 * spacing
    return float(dist.max()) + 0.5 * spacing


def check_morphology_counts(state: ParticleState) -> None:
    """Raise TooFewParticles unless each species has enough particles for ``morphology``."""
    if min(state.n1, state.n2) < 10:
        raise TooFewParticles("need at least 10 particles per species")


@dataclass(frozen=True)
class Morphology:
    d_over_R: float
    support_radii: tuple[float, float]
    overlap_fraction: float
    label: str


def morphology(state: ParticleState) -> Morphology:
    """Shape diagnostics: com separation over R = sqrt(a_s/b_s), radii, label.

    Labels: separated (d/R > 2.1), tangential (within 0.1 of 2),
    partial-overlap, and for d/R < 0.1 either target-like (annular gap
    between the species) or mixed.
    """
    check_morphology_counts(state)
    p = state.params
    R = math.sqrt(p.a_s / p.b_s)
    c1 = state.pos1.mean(axis=0)
    c2 = state.pos2.mean(axis=0)
    d_over_R = float(np.hypot(*(c1 - c2))) / R
    radii = support_radii(state)

    dist1 = np.hypot(*(state.pos1 - c1).T)
    dist2 = np.hypot(*(state.pos2 - c2).T)
    inside_2in1 = float(np.mean(np.hypot(*(state.pos2 - c1).T) <= radii[0]))
    inside_1in2 = float(np.mean(np.hypot(*(state.pos1 - c2).T) <= radii[1]))
    overlap_fraction = min(inside_2in1, inside_1in2)

    if d_over_R < 0.1:
        inner, outer = (dist2, dist1) if radii[1] < radii[0] else (dist1, dist2)
        gap = np.percentile(outer, 5.0) > np.percentile(inner, 95.0)
        label = "target-like" if gap else "mixed"
    elif d_over_R <= 1.9:
        label = "partial-overlap"
    elif d_over_R <= 2.1:
        label = "tangential"
    else:
        label = "separated"
    return Morphology(d_over_R, radii, overlap_fraction, label)


def core_displacement(state: ParticleState, core_species: int) -> float:
    """Distance of the core species' com from the total com (mode-1 signature)."""
    core = state.pos1 if core_species == 1 else state.pos2
    return float(np.hypot(*(core.mean(axis=0) - state.com())))


def core_anisotropy(state: ParticleState, core_species: int) -> float:
    """Eigenvalue ratio (>= 1) of the core species' second-moment matrix (mode-2 signature)."""
    core = state.pos1 if core_species == 1 else state.pos2
    centered = core - core.mean(axis=0)
    cov = centered.T @ centered / len(core)
    eigs = np.linalg.eigvalsh(cov)
    return float(eigs[1] / eigs[0])
