"""Interacting particle system: the discrete analogue of the two-species model.

The state is one (N, 2) position array, species 1's rows first.  Each
particle of species i carries weight M_i/N_i and moves with the velocity
induced by all other particles through the self/cross kernels (no self term).
The flow is a gradient flow of the sampled interaction energy, which the RK4
stepper preserves as a diagnostic: energy decreases and the weighted centre
of mass is conserved up to rounding.

``run`` makes one adaptive integration to ``t_end`` that lands exactly on
each of a sorted list of stop times, hands back the state at each and keeps
its step-size controller across them; records lie on one grid over the
whole run, and a stop costs no extra velocity evaluation.

The flow is stiff: each species' density relaxes at ``relaxation_rate``
while the species drift apart orders of magnitude more slowly.  The
Jacobian's spectrum is real and negative (J = -W^-1 Hess E), so RK4 is
stable for rate * dt up to 2.785.  The step cap puts the fastest rate at
``C_RK4`` = 2, and the stiffness estimate that every step gets for
free from its first two stages rejects any step that the continuum rate
underestimates beyond ``STIFFNESS_LIMIT``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .equilibria import EquilibriumConfig
from .errors import (
    EquilibriumMissing,
    InvariantViolated,
    OutOfRange,
    ParticleCollision,
    StepUnderflow,
    TooFewParticles,
)
from .model import InteractionParams, attraction_weights

#: Hard lower bound on the adaptive time step.
DT_MIN = 1e-12

#: Step cap in units of the fastest relaxation time: lambda * dt <= 2, where
#: RK4's amplification is |R(-2)| = 1/3, so the fastest mode still damps.
C_RK4 = 2.0

#: Largest particle displacement of an accepted step, in units of
#: sqrt(a_s/b_s).  The stiffness check cannot stand in for this rule: its
#: estimate saturates near 2 for a repelling pair that one step overshoots
#: (k2 is taken after the pair has flown apart), so only this bound keeps
#: such steps out.
DISPLACEMENT_FACTOR = 0.1

#: Most records one run takes; each holds a few floats.
MAX_RECORDS = 100_000

#: Most steps a run may need even at the step cap: ``run`` refuses a t_end
#: more than MAX_STEPS * C_RK4 / ``relaxation_rate`` past the start time.
MAX_STEPS = 1_000_000

#: Largest q * dt of an accepted step, q the stiffness estimate of ``step``:
#: 0.9 of RK4's real-axis stability limit 2.785.
STIFFNESS_LIMIT = 2.5

#: Largest rise of the recorded energy between consecutive records that ``run``
#: accepts, relative to |E| at the first record plus a_s (M1 + M2)^2: E can cancel
#: to near zero, the energy unit a_s (M1 + M2)^2 cannot.  The flow is a gradient
#: flow, so the energy of a correct integration does not rise beyond rounding.
MAX_ENERGY_RISE = 1e-6

#: Largest distance of a record's centre of mass from the first record's that
#: ``run`` accepts, in units of sqrt(a_s/b_s).  The flow conserves the centre of
#: mass; rounding moves it by about 1e-13 over the longest runs of the suite.
MAX_COM_DRIFT = 1e-9


@dataclass(frozen=True)
class ParticleState:
    """Positions of all N particles as one (N, 2) array ``X``, species 1's ``n1`` rows first.

    ``pos1`` and ``pos2`` are views of its two row blocks.  Raises ValueError
    unless X is (N, 2) and finite with 1 <= n1 < N.
    """

    X: np.ndarray
    n1: int
    params: InteractionParams
    t: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "X", np.ascontiguousarray(self.X, dtype=float))
        if self.X.ndim != 2 or self.X.shape[1] != 2:
            raise ValueError(f"positions must be an (N, 2) array, got shape {self.X.shape}")
        if not 1 <= self.n1 < len(self.X):
            raise ValueError("each species needs at least one particle")
        if not np.all(np.isfinite(self.X)):
            raise ValueError("positions must be finite")

    @property
    def pos1(self) -> np.ndarray:
        return self.X[: self.n1]

    @property
    def pos2(self) -> np.ndarray:
        return self.X[self.n1 :]

    @property
    def n2(self) -> int:
        return len(self.X) - self.n1

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
    """Pairwise distances below this abort the run rather than soften the kernel.

    Raises OutOfRange where its square underflows to 0 (sqrt(a_s/b_s) below
    about 2e-150), since no distance could then fall below it.
    """
    threshold = 1e-12 * math.sqrt(p.a_s / p.b_s)
    if threshold**2 == 0.0:
        raise OutOfRange(f"collision threshold {threshold:.3e} squares to 0: sqrt(a_s/b_s) is too small")
    return threshold


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
    """Blocked squared distances over the upper triangle of one (N, 2) position array.

    Row block lo:hi meets the columns lo: only, so each unordered pair is
    formed once, in the block of its lower index; the block's own square
    comes first and its diagonal (self pairs) is inf.
    """

    def __init__(self, X):
        self.X = X
        x2 = np.einsum("ij,ij->i", X, X)
        ones = np.ones_like(x2)
        # r_ij^2 = left_i . right_j = -2 x_i.x_j + |x_i|^2 * 1 + 1 * |x_j|^2
        self.left = np.column_stack([X, x2, ones])
        self.right = np.column_stack([-2.0 * X, ones, x2])
        self.exact_below = max(1e-12, 1e-6 * float(x2.max()))

    def dist_sq(self, lo, hi):
        """Squared distances of rows lo:hi to rows lo: and their minimum.

        The expanded form -2 x.y + |x|^2 + |y|^2 is one GEMM of inner
        dimension 4 per block, summed along k in that order; the products by
        1 are exact, so each entry equals the cross term plus the two squared
        norms added in turn.  Its absolute error is about eps * max |x|^2, so
        entries below ``exact_below`` (1e-6 of the largest |x|^2, at least
        1e-12), negative ones included, are recomputed from the explicit
        differences: a close pair's r^2 then stays accurate relative to
        itself.
        """
        X = self.X
        r2 = self.left[lo:hi] @ self.right[lo:].T
        r2.reshape(-1)[:: r2.shape[1] + 1] = np.inf
        low = float(r2.min())
        if low < self.exact_below:
            ii, jj = np.nonzero(r2 < self.exact_below)
            diff = X[lo + ii] - X[lo + jj]
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


def forces(state: ParticleState, diag: RunDiagnostics | None = None) -> np.ndarray:
    """Velocities of all particles as an (N, 2) array in the rows of ``state.X``.

    v_i = sum_j w_j [a_ij (x_i - x_j) / |x_i - x_j|^2 - b_ij (x_i - x_j)].  The
    repulsion runs as one blocked pass over the pairs j >= lo of each row
    block lo:hi, with K = 1/r^2 formed once per unordered pair: K times
    [c_j, c_j x_j, c_j y_j] (c_j = a_ij w_j) feeds the block's rows, and K^T
    times the block's own [c_i, c_i x_i, c_i y_i] feeds the columns past the
    block, once per column species, so both directions of a pair read the
    same K_ij.  The attraction is linear in positions: sum_j b_ij w_j (x_i -
    x_j) = x_i sb_i - tb_i from each species' mass and first moment (the j =
    i term is 0).  With ``diag``, the evaluation and its closest pair are
    counted.
    """
    p, X, n1 = state.params, state.X, state.n1
    n = len(X)
    pairs = _PairPass(X)
    d2 = collision_threshold(p) ** 2
    ones_X = np.column_stack([np.ones(n), X])
    repulsion = [c[:, None] * ones_X for c in _repulsion_weights(state)]
    mass = (state.w1 * n1, state.w2 * state.n2)
    first = (state.w1 * state.pos1.sum(axis=0), state.w2 * state.pos2.sum(axis=0))
    sb = [p.b_s * mass[s] + p.bc_eff * mass[1 - s] for s in (0, 1)]
    tb = [p.b_s * first[s] + p.bc_eff * first[1 - s] for s in (0, 1)]
    S = np.zeros((n, 3))
    closest = math.inf
    for s, lo, hi in _row_blocks(n1, state.n2):
        r2, low = pairs.dist_sq(lo, hi)
        if low < d2:
            raise ParticleCollision(f"minimum pairwise distance {math.sqrt(low):.3e} below {math.sqrt(d2):.3e}")
        closest = min(closest, low)
        K = np.reciprocal(r2, out=r2)
        S[lo:hi] += K @ repulsion[s][lo:]
        # rows before lo were fed by earlier blocks; the own square fed its rows above
        for t, c_lo, c_hi in ((0, hi, n1), (1, max(hi, n1), n)):
            if c_lo < c_hi:
                S[c_lo:c_hi] += K[:, c_lo - lo : c_hi - lo].T @ repulsion[t][lo:hi]
    v = np.empty_like(X)
    for s, rows in ((0, slice(0, n1)), (1, slice(n1, n))):
        v[rows] = X[rows] * (S[rows, :1] - sb[s]) - (S[rows, 1:] - tb[s])
    if diag is not None:
        diag.force_evals += 1
        diag.closest_pair_ratio = min(diag.closest_pair_ratio, math.sqrt(closest / d2))
    return v


def particle_energy(state: ParticleState) -> float:
    """Sampled interaction energy (the Lyapunov function of the flow).

    E = sum_{i<j} w_i w_j [-a_ij/2 log|x_i - x_j|^2 + b_ij/2 |x_i - x_j|^2].
    The log term runs as a blocked pass over the pairs j > i; the quadratic
    term comes from each species' spread about its own mean.
    """
    p = state.params
    pairs = _PairPass(state.X)
    w = np.repeat([state.w1, state.w2], [state.n1, state.n2])
    weights = _repulsion_weights(state)
    log_sum = 0.0
    for s, lo, hi in _row_blocks(state.n1, state.n2):
        # pairs j > i: the columns from lo on, with the block's own square
        # (symmetric, one species) at half weight and its diagonal at log 1 = 0
        r2, _ = pairs.dist_sq(lo, hi)
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


def max_speed(v) -> float:
    """Largest particle speed of the (N, 2) velocities ``v``."""
    return float(np.max(np.hypot(v[:, 0], v[:, 1])))


def step(state: ParticleState, dt: float, k1=None, diag: RunDiagnostics | None = None) -> ParticleState:
    """One classical RK4 step of the particle ODE system.

    ``k1`` gives the (N, 2) velocities at ``state`` when already computed; ``diag``
    counts the stage evaluations and receives the step's stiffness estimate
    in ``step_stiffness``: q * dt with q = |k2 - k1| / (dt/2 |k1|), the
    rate of the flow along k1 (Hairer & Wanner, Solving ODEs II, IV.2),
    0 at a fixed point.  RK4 runs on ``state.X``, and every stage state is
    a checked ``ParticleState``, so a non-finite stage raises ValueError
    before its velocities are evaluated.
    """
    if dt <= 0.0:
        raise ValueError("dt must be > 0")
    x, n1, p, t = state.X, state.n1, state.params, state.t
    k1 = forces(state, diag) if k1 is None else k1
    k2 = forces(ParticleState(x + 0.5 * dt * k1, n1, p, t), diag)
    k3 = forces(ParticleState(x + 0.5 * dt * k2, n1, p, t), diag)
    k4 = forces(ParticleState(x + dt * k3, n1, p, t), diag)
    if diag is not None:
        norm = float(np.linalg.norm(k1))
        diag.step_stiffness = 2.0 * float(np.linalg.norm(k2 - k1)) / norm if norm > 0.0 else 0.0
    return ParticleState(x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), n1, p, t + dt)


def relaxation_rate(p: InteractionParams) -> float:
    """Fastest relaxation rate of the flow: 2 max(b_s M1 + b_c M2, b_c M1 + b_s M2), eta-scaled b_c.

    That is 2 pi a_s rho_i, the rate at which a species' density relaxes to
    its target value rho_i.  The sampled flow's Jacobian reaches it once
    close pairs have spread, and exceeds it by up to a quarter in disordered
    states of N = 100.
    """
    return 2.0 * max(attraction_weights(p.b_s, p.bc_eff, p.M1, p.M2))


@dataclass
class RunDiagnostics:
    """Traces recorded along a run, the states reached at its stops and run counters.

    ``stop_states`` holds the state at each of ``run``'s stop times, in
    order.  ``force_evals`` counts velocity evaluations, ``dt_min``/``dt_max``
    span the accepted step sizes (None before the first),
    ``closest_pair_ratio`` is the smallest pair distance any evaluation saw
    over ``collision_threshold``, ``max_stiffness`` the largest q * dt of an
    accepted step (``step_stiffness`` holds the latest attempt's) and
    ``max_energy_rise`` the largest rise of the recorded energy between
    consecutive records, relative to the first record's |E| (0 if none
    rose).  The flow is a gradient flow, so any rise beyond rounding is an
    integration fault.  ``max_com_drift`` is the largest distance of a
    record's ``com_total`` from the first record's, in units of
    sqrt(a_s/b_s): the flow conserves the centre of mass, so it too should
    stay at rounding level.  ``run`` raises InvariantViolated when either
    passes its bound (``MAX_ENERGY_RISE``, ``MAX_COM_DRIFT``).
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
    max_stiffness: float = 0.0
    step_stiffness: float = 0.0
    max_energy_rise: float = 0.0
    max_com_drift: float = 0.0

    def as_arrays(self):
        return {
            "t": np.asarray(self.t),
            "energy": np.asarray(self.energy),
            "com_total": np.asarray(self.com_total),
            "d_over_R": np.asarray(self.d_over_R),
            "max_speed": np.asarray(self.max_speed),
        }


def _record(diag: RunDiagnostics, state: ParticleState, v, count: int = 1):
    """Append ``count`` identical records of ``state`` (one per grid time it is the first at or past)."""
    p = state.params
    c1 = state.pos1.mean(axis=0)
    c2 = state.pos2.mean(axis=0)
    R = math.sqrt(p.a_s / p.b_s)
    energy = particle_energy(state)
    com = state.com()
    if diag.energy:
        rise = energy - diag.energy[-1]
        drift = float(np.hypot(*(com - diag.com_total[0]))) / R
        diag.max_energy_rise = max(diag.max_energy_rise, rise / (abs(diag.energy[0]) or 1.0))
        diag.max_com_drift = max(diag.max_com_drift, drift)
        if rise > MAX_ENERGY_RISE * (abs(diag.energy[0]) + p.a_s * (p.M1 + p.M2) ** 2):
            raise InvariantViolated(f"energy rose by {rise:.3e} at t={state.t}: the gradient flow cannot raise it")
        if drift > MAX_COM_DRIFT:
            raise InvariantViolated(f"centre of mass drifted by {drift:.3e} sqrt(a_s/b_s) at t={state.t}")
    row = (state.t, energy, com, float(np.hypot(*(c1 - c2))) / R, max_speed(v))
    for trace, value in zip((diag.t, diag.energy, diag.com_total, diag.d_over_R, diag.max_speed), row):
        trace.extend([value] * count)


def run(state: ParticleState, t_end: float, stops=(), record_interval: float | None = None):
    """Integrate to t = t_end with adaptive RK4 steps.

    The step is halved whenever the largest particle displacement exceeds
    ``DISPLACEMENT_FACTOR`` times sqrt(a_s/b_s) and grown gently when far
    below it, capped at ``C_RK4`` over ``relaxation_rate``.  A sampled
    state can relax faster than the continuum, for instance where two
    particles sit close together, so a step whose stiffness estimate q * dt
    exceeds ``STIFFNESS_LIMIT`` is rejected as well and retried at
    min(dt/2, ``C_RK4``/q).

    One integration lands exactly on each of the sorted ``stops`` (times in
    [state.t, t_end]) and on t_end, by stretching or shortening the step
    that reaches it; after a stop the controller goes on from its own step
    size.  Records are taken at the first accepted state at or past each
    t0 + k * ``record_interval`` (finite and > 0; default: 1/200 of the
    run's length, at least 1/``relaxation_rate``), one row per grid time,
    so a step across several grid times records its state at each; a run
    takes at most ``MAX_RECORDS`` records.  Returns (final state,
    diagnostics), the states at the stops in ``diagnostics.stop_states``.
    Raises StepUnderflow if repeated halving pushes dt below 1e-12,
    ParticleCollision if particles meet, OutOfRange if the collision
    threshold underflows, InvariantViolated if a record's energy rises or
    its centre of mass drifts beyond rounding, and ValueError for stops out
    of order, a ``t_end`` that is not finite, lies before state.t or lies
    more than ``MAX_STEPS`` steps at the step cap past it, a bad
    ``record_interval`` or more than ``MAX_RECORDS`` records.
    """
    if not state.t <= t_end < math.inf:
        raise ValueError(f"t_end must be finite and >= state.t = {state.t}, got {t_end}")
    if record_interval is not None and not 0.0 < record_interval < math.inf:
        raise ValueError(f"record_interval must be finite and > 0, got {record_interval}")
    stops = [float(s) for s in stops]
    if stops and not (state.t <= stops[0] and stops[-1] <= t_end and stops == sorted(stops)):
        raise ValueError(f"stops must be sorted within [{state.t}, {t_end}]")
    p = state.params
    dt = dt_max = C_RK4 / relaxation_rate(p)
    if t_end - state.t > MAX_STEPS * dt_max:
        raise ValueError(f"t_end={t_end} lies more than {MAX_STEPS} steps of at most {dt_max:.3e} past t={state.t}")
    disp_limit = DISPLACEMENT_FACTOR * math.sqrt(p.a_s / p.b_s)
    t0 = state.t
    if record_interval is None:
        # grid times closer than the fastest relaxation time would mostly repeat the
        # state of a step that spans several of them
        record_interval = max((t_end - t0) / 200.0, 1.0 / relaxation_rate(p))
    if t_end - t0 > MAX_RECORDS * record_interval:
        raise ValueError(f"record_interval {record_interval} gives more than {MAX_RECORDS} records up to t_end={t_end}")
    # a state within rounding of a grid time counts as past it; the allowance stays
    # below the interval, so it cannot take in grid times the run has not reached
    grid_tol = min(1e-12, 1e-3 * record_interval)

    # every accepted state's velocities are computed once: by its record or by the
    # next step's first stage; a step rejected by the displacement rule or the
    # stiffness check retries with the same k1
    diag = RunDiagnostics()
    v = forces(state, diag)
    _record(diag, state, v)
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
            disp = float(np.max(np.hypot(*(new_state.X - state.X).T)))
            stiffness = diag.step_stiffness
            if disp > disp_limit or stiffness > STIFFNESS_LIMIT:
                diag.rejected_steps += 1
                dt = 0.5 * dt_try
                if stiffness > STIFFNESS_LIMIT:
                    dt = min(dt, C_RK4 * dt_try / stiffness)
                if dt < DT_MIN:
                    raise StepUnderflow(f"time step underflow at t={state.t}")
                continue
            state, v = new_state, None
            diag.accepted_steps += 1
            diag.max_stiffness = max(diag.max_stiffness, stiffness)
            diag.dt_min = dt_try if diag.dt_min is None else min(diag.dt_min, dt_try)
            diag.dt_max = dt_try if diag.dt_max is None else max(diag.dt_max, dt_try)
            if disp < 0.25 * disp_limit:
                dt = min(dt * 1.5, dt_max)
            # record times are products, so no rounding piles up along the run
            passed = 0
            while state.t >= t0 + (n_records + passed) * record_interval - grid_tol:
                passed += 1
            if passed:
                v = forces(state, diag)
                _record(diag, state, v, passed)
                n_records += passed
        if k < len(stops):
            diag.stop_states.append(state)

    if diag.t[-1] < state.t:
        _record(diag, state, forces(state, diag))
    return state, diag


def _check_counts(n1: int, n2: int) -> None:
    """Raise ValueError, as ``ParticleState`` does, before sampling an empty or negative species."""
    if min(n1, n2) < 1:
        raise ValueError("each species needs at least one particle")


def init_random_disk(
    params: InteractionParams, n1: int, n2: int, radius: float, seed: int
) -> ParticleState:
    """Both species uniformly random in a disk around the origin (seeded)."""
    _check_counts(n1, n2)
    if not 0.0 < radius < math.inf:
        raise ValueError(f"radius must be finite and > 0, got {radius}")
    rng = np.random.default_rng(seed)

    def sample(n):
        r = radius * np.sqrt(rng.random(n))
        th = 2.0 * math.pi * rng.random(n)
        return np.column_stack([r * np.cos(th), r * np.sin(th)])

    return ParticleState(np.concatenate([sample(n1), sample(n2)]), n1, params)


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
    _check_counts(n1, n2)
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

    return ParticleState(np.concatenate([sample_species(1, n1), sample_species(2, n2)]), n1, cfg.params)


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
    sample; the median nearest-neighbour distance supplies the spacing, from
    the pair pass's triangle as row minima and a running column minimum.
    With ``inner`` the inner rim of an annular cloud is estimated instead.
    """
    positions = np.asarray(positions, dtype=float)
    c = positions.mean(axis=0)
    dist = np.hypot(*(positions - c).T)
    pairs = _PairPass(positions)
    nearest2 = np.full(len(positions), np.inf)
    for _, lo, hi in _row_blocks(len(positions)):
        r2, _ = pairs.dist_sq(lo, hi)
        np.minimum(nearest2[lo:hi], r2.min(axis=1), out=nearest2[lo:hi])
        np.minimum(nearest2[lo:], r2.min(axis=0), out=nearest2[lo:])
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
