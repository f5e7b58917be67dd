"""Interacting particle system: the discrete analogue of the two-species model.

Each particle of species i carries weight M_i/N_i and moves with the velocity
induced by all other particles through the self/cross kernels (no self term).
The flow is a gradient flow of the sampled interaction energy, which the RK4
stepper preserves as a diagnostic: energy decreases and the weighted centre
of mass is conserved up to rounding.
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


def _pair_dist_sq(X, Y, same):
    """Pairwise squared distances via matrix products, exact for near pairs.

    The expanded form |x|^2 + |y|^2 - 2 x.y runs on BLAS but loses precision
    once |x - y|^2 approaches rounding of the position magnitudes, so any
    entry below 1e-12 is recomputed from the explicit differences before the
    collision test sees it.
    """
    x2 = np.einsum("ij,ij->i", X, X)
    y2 = np.einsum("ij,ij->i", Y, Y)
    r2 = x2[:, None] + y2[None, :] - 2.0 * (X @ Y.T)
    np.maximum(r2, 0.0, out=r2)
    if same:
        np.fill_diagonal(r2, np.inf)
    suspect = r2 < 1e-12
    if np.any(suspect):
        ii, jj = np.nonzero(suspect)
        diff = X[ii] - Y[jj]
        r2[ii, jj] = np.einsum("ij,ij->i", diff, diff)
        if same:
            np.fill_diagonal(r2, np.inf)
    return r2


def _pair_sum(X, Y, a, b, delta_min, same):
    """Sum over y in Y of a*(x-y)/|x-y|^2 - b*(x-y), for every x in X."""
    r2 = _pair_dist_sq(X, Y, same)
    if np.min(r2) < delta_min * delta_min:
        raise ParticleCollision(
            f"minimum pairwise distance {math.sqrt(float(np.min(r2))):.3e} below {delta_min:.3e}"
        )
    kernel = a / r2 - b
    if same:
        np.fill_diagonal(kernel, 0.0)
    # sum_j k_ij (x_i - y_j) = (sum_j k_ij) x_i - k @ Y
    return kernel.sum(axis=1)[:, None] * X - kernel @ Y


def forces(state: ParticleState):
    """Velocities of all particles (right-hand side of the particle system)."""
    p = state.params
    d = collision_threshold(p)
    v1 = state.w1 * _pair_sum(state.pos1, state.pos1, p.a_s, p.b_s, d, True) + state.w2 * _pair_sum(
        state.pos1, state.pos2, p.ac_eff, p.bc_eff, d, False
    )
    v2 = state.w1 * _pair_sum(state.pos2, state.pos1, p.ac_eff, p.bc_eff, d, False) + state.w2 * _pair_sum(
        state.pos2, state.pos2, p.a_s, p.b_s, d, True
    )
    return v1, v2


def particle_energy(state: ParticleState) -> float:
    """Sampled interaction energy (the Lyapunov function of the flow)."""
    p = state.params

    def kernel_sum(X, Y, a, b, same):
        r2 = _pair_dist_sq(X, Y, same)
        if same:
            np.fill_diagonal(r2, 1.0)  # excluded below
        k = -0.5 * a * np.log(r2) + 0.5 * b * r2
        if same:
            np.fill_diagonal(k, 0.0)
        return float(np.sum(k))

    e = 0.5 * state.w1**2 * kernel_sum(state.pos1, state.pos1, p.a_s, p.b_s, True)
    e += 0.5 * state.w2**2 * kernel_sum(state.pos2, state.pos2, p.a_s, p.b_s, True)
    e += state.w1 * state.w2 * kernel_sum(state.pos1, state.pos2, p.ac_eff, p.bc_eff, False)
    return e


def max_speed(state: ParticleState) -> float:
    v1, v2 = forces(state)
    return float(max(np.max(np.hypot(v1[:, 0], v1[:, 1])), np.max(np.hypot(v2[:, 0], v2[:, 1]))))


def step(state: ParticleState, dt: float) -> ParticleState:
    """One classical RK4 step of the particle ODE system."""
    if dt <= 0.0:
        raise ValueError("dt must be > 0")
    x1, x2 = state.pos1, state.pos2

    def rhs(y1, y2):
        return forces(replace(state, pos1=y1, pos2=y2))

    k1 = rhs(x1, x2)
    k2 = rhs(x1 + 0.5 * dt * k1[0], x2 + 0.5 * dt * k1[1])
    k3 = rhs(x1 + 0.5 * dt * k2[0], x2 + 0.5 * dt * k2[1])
    k4 = rhs(x1 + dt * k3[0], x2 + dt * k3[1])
    d1 = (dt / 6.0) * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
    d2 = (dt / 6.0) * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
    return replace(state, pos1=x1 + d1, pos2=x2 + d2, t=state.t + dt)


@dataclass(frozen=True)
class RunControls:
    """Adaptive stepping and recording knobs for ``run``.

    The step is halved whenever the largest particle displacement exceeds
    ``displacement_factor`` times sqrt(a_s/b_s) and grown gently when far
    below it, capped at ``dt_max`` (default: a conservative fraction of the
    fastest linear relaxation rate).
    """

    dt_init: float | None = None
    dt_max: float | None = None
    displacement_factor: float = 0.1
    record_interval: float | None = None
    record_energy: bool = True

    def resolved_dt_max(self, p: InteractionParams) -> float:
        if self.dt_max is not None:
            return self.dt_max
        rate = 2.0 * (p.b_s + p.bc_eff) * (p.M1 + p.M2)
        return 1.0 / rate


@dataclass
class RunDiagnostics:
    """Traces recorded along a run, plus final support-radius estimates."""

    t: list = field(default_factory=list)
    energy: list = field(default_factory=list)
    com_total: list = field(default_factory=list)
    com1: list = field(default_factory=list)
    com2: list = field(default_factory=list)
    d_over_R: list = field(default_factory=list)
    max_speed: list = field(default_factory=list)
    support_radii: tuple[float, float] | None = None

    def as_arrays(self):
        return {
            "t": np.asarray(self.t),
            "energy": np.asarray(self.energy),
            "com_total": np.asarray(self.com_total),
            "com1": np.asarray(self.com1),
            "com2": np.asarray(self.com2),
            "d_over_R": np.asarray(self.d_over_R),
            "max_speed": np.asarray(self.max_speed),
        }


def _record(diag: RunDiagnostics, state: ParticleState, with_energy: bool):
    p = state.params
    c1 = state.pos1.mean(axis=0)
    c2 = state.pos2.mean(axis=0)
    R = math.sqrt(p.a_s / p.b_s)
    diag.t.append(state.t)
    diag.energy.append(particle_energy(state) if with_energy else math.nan)
    diag.com_total.append(state.com())
    diag.com1.append(c1)
    diag.com2.append(c2)
    diag.d_over_R.append(float(np.hypot(*(c1 - c2))) / R)
    diag.max_speed.append(max_speed(state))


def run(state: ParticleState, t_end: float, controls: RunControls | None = None):
    """Integrate to t = t_end, landing on it exactly, with displacement-based adaptive RK4 steps.

    Returns (final state, diagnostics).  Raises StepUnderflow if repeated
    halving pushes dt below 1e-12 and ParticleCollision if particles meet.
    """
    controls = controls or RunControls()
    p = state.params
    dt_max = controls.resolved_dt_max(p)
    dt = controls.dt_init if controls.dt_init is not None else dt_max
    disp_limit = controls.displacement_factor * math.sqrt(p.a_s / p.b_s)
    record_interval = (
        controls.record_interval if controls.record_interval is not None else max(t_end / 200.0, dt_max)
    )

    diag = RunDiagnostics()
    _record(diag, state, controls.record_energy)
    next_record = state.t + record_interval

    while state.t < t_end:
        # a step that would stop within rounding of t_end is stretched to land on it,
        # and the last step sets t to t_end itself, not to state.t + (t_end - state.t)
        last = dt >= t_end - state.t - 1e-12 * max(1.0, t_end)
        dt_try = t_end - state.t if last else dt
        new_state = step(state, dt_try)
        if last:
            new_state = replace(new_state, t=t_end)
        disp = max(
            float(np.max(np.hypot(*(new_state.pos1 - state.pos1).T))),
            float(np.max(np.hypot(*(new_state.pos2 - state.pos2).T))),
        )
        if disp > disp_limit:
            dt = 0.5 * dt_try
            if dt < DT_MIN:
                raise StepUnderflow(f"time step underflow at t={state.t}")
            continue
        state = new_state
        if disp < 0.25 * disp_limit:
            dt = min(dt * 1.5, dt_max)
        if state.t >= next_record - 1e-12:
            _record(diag, state, controls.record_energy)
            next_record += record_interval

    if diag.t[-1] < state.t:
        _record(diag, state, controls.record_energy)
    diag.support_radii = support_radii(state)
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
    r2 = _pair_dist_sq(positions, positions, same=True)
    spacing = float(np.median(np.sqrt(r2.min(axis=1))))
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
