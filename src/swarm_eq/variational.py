"""Energy first/second variation machinery: Lambda profiles, minimizer tests.

For the Newtonian-quadratic kernels every radial profile Lambda_i is, on each
interval between equilibrium radii, of the form

    Lambda(r) = c0 + c2 * r^2 + cl * ln r,

assembled from per-disk contributions (each shell is a difference of disks)
that ``equilibria._disk_terms`` computes once per profile.  That
representation makes plateaus, monotonicity changes, and minima exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .equilibria import EquilibriumConfig, _disk_terms, _kernel_pairs, _summed_coeffs
from .errors import (
    ConstraintViolated,
    DegenerateMassRatio,
    FOutOfRange,
    NonFiniteResult,
    QuadratureNonConvergence,
    UnsupportedKind,
)
from .model import InteractionParams, target_geometry
from .quadrature import disk_kernel_integral

#: Mean of ln|y - center| over a square cell of side h, minus ln h.
#: Exact value of (1/h^2) * int_cell ln|y| dy  =  ln h + LOG_CELL_CONSTANT.
LOG_CELL_CONSTANT = -0.5 * math.log(2.0) - 1.5 + math.pi / 4.0

#: Oracle evaluations must stay this far (absolute) from any breakpoint radius.
BREAKPOINT_GUARD = 1e-6


@dataclass(frozen=True)
class LambdaPiece:
    """Closed-form Lambda on one radial interval: c0 + c2 r^2 + cl ln r."""

    r_lo: float
    r_hi: float
    c0: float
    c2: float
    cl: float
    on_support: bool

    def value(self, r: float) -> float:
        out = self.c0 + self.c2 * r * r
        if self.cl != 0.0:
            out += self.cl * math.log(r)
        return out

    def derivative(self, r: float) -> float:
        out = 2.0 * self.c2 * r
        if self.cl != 0.0:
            out += self.cl / r
        return out

    def stationary_radius(self):
        """Radius in (r_lo, r_hi) where the derivative vanishes, if any."""
        if self.c2 == 0.0 or self.cl == 0.0:
            return None
        rsq = -self.cl / (2.0 * self.c2)
        if rsq <= 0.0:
            return None
        r = math.sqrt(rsq)
        if self.r_lo < r < self.r_hi:
            return r
        return None


@dataclass(frozen=True)
class LambdaProfile:
    """Piecewise closed-form first-variation profile of one species."""

    species: int
    breakpoints: tuple[float, ...]
    pieces: tuple[LambdaPiece, ...]
    plateau: float

    def _piece_at(self, r: float) -> LambdaPiece:
        for piece in self.pieces:
            if piece.r_lo <= r <= piece.r_hi:
                return piece
        return self.pieces[-1]

    def value(self, r: float) -> float:
        return self._piece_at(r).value(r)

    def derivative(self, r: float) -> float:
        return self._piece_at(r).derivative(r)


@dataclass(frozen=True)
class MinimizerVerdict:
    """Outcome of the class-B minimizer scan of both Lambda profiles.

    ``lambda_support`` and ``lambda_min_exterior`` refer to the species whose
    profile can violate the condition for this configuration kind, the core
    species (``EquilibriumKind.core_species``);
    ``lambda_min_exterior`` is the stationary minimum beyond the outermost
    radius when the profile has one.
    """

    is_class_B_minimizer: bool
    failure_species: int | None
    failure_radius: float | None
    lambda_support: float
    lambda_min_exterior: float | None
    swarm_minimizer: bool


def _breakpoint_radii(cfg: EquilibriumConfig) -> list[float]:
    """Sorted shell edges other than the origin: where the pieces of a Lambda profile meet."""
    return sorted({s.r_in for s in cfg.shells if s.r_in > 0.0} | {s.r_out for s in cfg.shells})


def lambda_profile(cfg: EquilibriumConfig, species: int) -> LambdaProfile:
    """Closed-form piecewise Lambda profile for one species of an equilibrium.

    Raises NonFiniteResult when a coefficient or the plateau is not finite,
    as when the coefficients overflow at huge attraction ratios.  Each
    profile is built once per config object and kept on it, so the same
    object returns the same profile.
    """
    if species not in (1, 2):
        raise UnsupportedKind(f"species must be 1 or 2, got {species}")
    if not cfg.exists:
        raise UnsupportedKind("profile undefined: configuration does not exist")
    stored = cfg._lambda_profiles.get(species)
    if stored is not None:
        return stored
    radii = _breakpoint_radii(cfg)
    bounds = [0.0] + radii + [math.inf]
    support = cfg.support_intervals(species)
    terms = _disk_terms(cfg, species)

    pieces = []
    finite = True
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        rep = 0.5 * (lo + hi) if math.isfinite(hi) else 2.0 * lo
        c0, c2, cl = _summed_coeffs(terms, rep)
        on_support = any(s_lo <= rep <= s_hi for s_lo, s_hi in support)
        pieces.append(LambdaPiece(lo, hi, c0, c2, cl, on_support))
        finite = finite and math.isfinite(c0) and math.isfinite(c2) and math.isfinite(cl)

    support_pieces = [q for q in pieces if q.on_support]
    if not support_pieces:
        raise UnsupportedKind(f"species {species} has empty support")
    ref = support_pieces[0]
    plateau = ref.value(0.5 * (ref.r_lo + ref.r_hi)) if finite else math.nan
    if not math.isfinite(plateau):
        raise NonFiniteResult(f"the Lambda profile of species {species} is not finite at {cfg.params}")
    profile = cfg._lambda_profiles[species] = LambdaProfile(species, tuple(radii), tuple(pieces), plateau)
    return profile


def lambda_quadrature_oracle(cfg: EquilibriumConfig, species: int, r: float) -> float:
    """Lambda_species(r) by 2-D polar quadrature of the defining convolutions (``disk_kernel_integral``).

    All the shells' disks go into one rule run.  Independent of the
    closed-form profile; refuses radii within
    ``BREAKPOINT_GUARD`` of a breakpoint where the integrand family changes.
    """
    if any(abs(r - b) < BREAKPOINT_GUARD for b in _breakpoint_radii(cfg)):
        raise QuadratureNonConvergence(
            f"radius {r} within {BREAKPOINT_GUARD} of a breakpoint"
        )
    k1, k2 = _kernel_pairs(cfg.params, species)
    # each shell is the disk r_out minus the disk r_in, for each species present at its density: one
    # disk per (radius, signed density), with the density as a factor of that species' kernel
    disks = [
        (R, sign * rho * a, sign * rho * b)
        for s in cfg.shells
        for rho, (a, b) in ((s.rho1, k1), (s.rho2, k2))
        if rho != 0.0
        for R, sign in ((s.r_out, 1.0), (s.r_in, -1.0))
        if R > 0.0
    ]
    return disk_kernel_integral((r, 0.0), (0.0, 0.0), *zip(*disks))


def _threshold_f(A: float, M: float) -> float:
    """f(A) at mass ratio M; the heavy-inside threshold function is f at M -> 1/M.

    f = (AM + 1)/(A + M) (1 + x)^(1/x) (1 + y)^(-1/y) with x = AM, y = M/A; the
    two powers are taken as exp(log1p(x)/x - log1p(y)/y), which keeps the
    rounding of 1 + x out of a large exponent.
    """
    x, y = A * M, M / A
    return (x + 1.0) / (A + M) * math.exp(math.log1p(x) / x - math.log1p(y) / y)


def f_of_A(A: float, M: float) -> float:
    """Threshold function whose level set bounds the light-inside non-minimizer set."""
    if A <= 1.0:
        raise FOutOfRange(f"boundary defined for A > 1, got A={A}")
    return _threshold_f(A, M)


def target_nonminimizer_boundary(A: float, M: float) -> float:
    """B-threshold below which the light-inside target fails the class-B test.

    Returns B* = (M f(A) - 1)/(M - f(A)); requires f(A) in (1/M, M), which is
    verified at runtime rather than assumed.  M = 1 collapses the admissible
    interval and raises DegenerateMassRatio.
    """
    if abs(M - 1.0) < 1e-12:
        raise DegenerateMassRatio("B* undefined at M = 1 (interval (1/M, M) is empty)")
    f = f_of_A(A, M)
    if not (1.0 / M < f < M):
        raise FOutOfRange(f"f(A)={f} outside (1/M, M)=({1.0/M}, {M})")
    return (M * f - 1.0) / (M - f)


def heavy_nonminimizer_boundary(A: float, M: float) -> float:
    """B-threshold above which the heavy-inside target fails the class-B test.

    Uses g(A) = f(A) at M -> 1/M, with no A > 1 restriction.
    """
    if abs(M - 1.0) < 1e-12:
        raise DegenerateMassRatio("threshold undefined at M = 1")
    g = _threshold_f(A, 1.0 / M)
    if not (1.0 / M < g < M):
        raise FOutOfRange(f"g(A)={g} outside (1/M, M)=({1.0/M}, {M})")
    return (M - g) / (g * M - 1.0)


def target_lambda_pair(p: InteractionParams) -> tuple[float, float]:
    """(lambda_2, lambda_m) of the light-inside target: plateau vs exterior minimum.

    Direct closed-form evaluation; the target is not a class-B minimizer when
    lambda_m < lambda_2.
    """
    a_s, a_c = p.a_s, p.ac_eff
    b_s, b_c = p.b_s, p.bc_eff
    M1, M2 = p.M1, p.M2
    r2sq, r1sq, r0sq, rho1, rho2 = target_geometry(a_s, a_c, b_s, b_c, M1, M2)
    # the exterior minimum sits at the heavy-inside target's outer radius
    heavy_r0sq = target_geometry(a_s, a_c, b_s, b_c, M2, M1)[2]
    shared = 0.5 * (a_c * M1 + a_s * M2) + 0.25 * (
        b_c * M1 * (r0sq + r1sq) + b_s * M2 * r2sq
    )
    lam2 = shared - rho1 * a_c * math.pi * 0.5 * (
        r0sq * math.log(r0sq) - r1sq * math.log(r1sq)
    ) - rho2 * a_s * math.pi * 0.5 * r2sq * math.log(r2sq)
    lam_m = shared - 0.5 * (a_c * M1 + a_s * M2) * math.log(heavy_r0sq)
    return lam2, lam_m


def _scan_species(cfg, species, tol):
    """(plateau, violation radius or None, exterior minimum or None) of one Lambda profile.

    Scans the profile off-support for drops below the plateau.  Minima are
    located exactly from the piece coefficients (stationary points of
    c0 + c2 r^2 + cl ln r), so the exterior piece is covered in full even
    though its interval is unbounded.
    """
    profile = lambda_profile(cfg, species)
    lam = profile.plateau
    worst_val = math.inf
    worst_r = None
    exterior_min = None
    for piece in profile.pieces:
        if piece.on_support:
            continue
        candidates = [piece.r_lo]
        if math.isfinite(piece.r_hi):
            candidates.append(piece.r_hi)
        r_star = piece.stationary_radius()
        if r_star is not None:
            candidates.append(r_star)
            if not math.isfinite(piece.r_hi) and piece.c2 > 0.0:
                exterior_min = piece.value(r_star)
        vals = [piece.value(r) if r > 0.0 else piece.c0 for r in candidates]
        idx = vals.index(min(vals))
        if vals[idx] < worst_val:
            worst_val = vals[idx]
            worst_r = candidates[idx]
    violates = worst_val < lam - tol * max(1.0, abs(lam))
    return lam, worst_r if violates else None, exterior_min


def minimizer_verdict(cfg: EquilibriumConfig) -> MinimizerVerdict:
    """Class-B minimizer test by scanning both Lambda profiles off-support.

    The profiles are piecewise closed-form, so minima are located exactly; no
    radius cutoff is needed.  ``swarm_minimizer`` is set when the condition
    fails globally but holds in a neighborhood of the support (every
    violation radius sits at a positive gap from the violating species'
    support).
    """
    if not cfg.exists:
        raise UnsupportedKind("verdict undefined: configuration does not exist")
    scans = {species: _scan_species(cfg, species, 1e-10) for species in (1, 2)}
    violations = {species: r for species, (_, r, _) in scans.items() if r is not None}
    failure_species = min(violations, default=None)
    plateau, _, exterior_min = scans[cfg.kind.core_species]
    swarm = bool(violations) and all(
        min(lo - r if r < lo else r - hi if r > hi else 0.0 for lo, hi in cfg.support_intervals(species))
        > 0.01 * cfg.outermost_radius
        for species, r in violations.items()
    )
    return MinimizerVerdict(
        is_class_B_minimizer=not violations,
        failure_species=failure_species,
        failure_radius=violations.get(failure_species),
        lambda_support=plateau,
        lambda_min_exterior=exterior_min,
        swarm_minimizer=swarm,
    )


class PerturbationGrid:
    """Square cell-centered grid on which density perturbations are sampled."""

    def __init__(self, center, half_width: float, n: int):
        self.n = int(n)
        self.h = 2.0 * half_width / self.n
        edges = np.linspace(center[0] - half_width, center[0] + half_width, self.n + 1)
        xs = 0.5 * (edges[:-1] + edges[1:])
        edges_y = np.linspace(center[1] - half_width, center[1] + half_width, self.n + 1)
        ys = 0.5 * (edges_y[:-1] + edges_y[1:])
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        self.points = np.column_stack([gx.ravel(), gy.ravel()])

    @property
    def cell_area(self) -> float:
        return self.h * self.h

    @cached_property
    def dist_sq(self) -> np.ndarray:
        """Squared distances between all pairs of cell centres, (n^2, n^2)."""
        diff = self.points[:, None, :] - self.points[None, :, :]
        return np.sum(diff * diff, axis=-1)

    def integrate(self, values) -> float:
        return float(np.sum(values) * self.cell_area)

    def moment(self, values) -> np.ndarray:
        return np.asarray(
            [
                float(np.sum(self.points[:, 0] * values) * self.cell_area),
                float(np.sum(self.points[:, 1] * values) * self.cell_area),
            ]
        )


def project_perturbation(grid: PerturbationGrid, t1, t2):
    """Project a perturbation pair onto zero mass per species and zero joint moment.

    Mass means are removed per species; the joint first moment is removed by
    subtracting a linear field split equally between the species.
    """
    t1 = np.asarray(t1, dtype=float).ravel().copy()
    t2 = np.asarray(t2, dtype=float).ravel().copy()
    t1 -= t1.mean()
    t2 -= t2.mean()
    pts = grid.points
    centered = pts - pts.mean(axis=0)
    mu = grid.moment(t1) + grid.moment(t2)
    cov = (centered.T @ centered) * grid.cell_area
    coeff = np.linalg.solve(cov, mu)
    correction = 0.5 * (centered @ coeff)
    t1 -= correction
    t2 -= correction
    # re-center: the linear field has zero mean by construction, but guard rounding
    t1 -= t1.mean()
    t2 -= t2.mean()
    return t1, t2


def _check_constraints(grid, t1, t2):
    scale = grid.integrate(np.abs(t1) + np.abs(t2)) + 1e-300
    for name, t in (("species 1", t1), ("species 2", t2)):
        if abs(grid.integrate(t)) > 1e-10 * scale:
            raise ConstraintViolated(f"nonzero total mass for {name}")
    mu = grid.moment(t1) + grid.moment(t2)
    extent = np.max(np.abs(grid.points))
    if np.max(np.abs(mu)) > 1e-10 * scale * max(1.0, extent):
        raise ConstraintViolated("nonzero joint first moment")


def grid_interaction_energy(grid: PerturbationGrid, r1, r2, p: InteractionParams) -> float:
    """Interaction energy of a gridded density pair by direct double sums.

    The quadratic part is ``attraction_term``.  The log kernel's diagonal
    entry uses the exact average of ln|x - y| over a square cell against its
    own center, keeping the sum second-order accurate despite the integrable
    singularity.
    """
    r1 = np.asarray(r1, dtype=float).ravel()
    r2 = np.asarray(r2, dtype=float).ravel()
    with np.errstate(divide="ignore"):
        log_k = 0.5 * np.log(grid.dist_sq)
    np.fill_diagonal(log_k, math.log(grid.h) + LOG_CELL_CONSTANT)
    q2 = grid.cell_area**2
    repulsion = -(
        0.5 * p.a_s * (float(r1 @ log_k @ r1) + float(r2 @ log_k @ r2)) + p.ac_eff * float(r1 @ log_k @ r2)
    ) * q2
    return repulsion + attraction_term(grid, r1, r2, p)


def second_variation(grid: PerturbationGrid, t1, t2, p: InteractionParams) -> float:
    """Second variation E2 of the energy at an admissible perturbation pair.

    The perturbations must satisfy the zero-mass and zero-joint-moment
    constraints (to 1e-10 relative); E2 then equals the interaction energy of
    the perturbation pair itself.
    """
    t1 = np.asarray(t1, dtype=float).ravel()
    t2 = np.asarray(t2, dtype=float).ravel()
    _check_constraints(grid, t1, t2)
    return grid_interaction_energy(grid, t1, t2, p)


def quadratic_term_identity(grid: PerturbationGrid, t1, p: InteractionParams) -> float:
    """(b_c - b_s) |int x t1 dx|^2: the closed form the attraction term collapses to."""
    mu = grid.moment(np.asarray(t1, dtype=float).ravel())
    return (p.bc_eff - p.b_s) * float(mu @ mu)


def attraction_term(grid: PerturbationGrid, t1, t2, p: InteractionParams) -> float:
    """Direct double-sum of the quadratic-attraction part of E2."""
    t1 = np.asarray(t1, dtype=float).ravel()
    t2 = np.asarray(t2, dtype=float).ravel()
    dist_sq = grid.dist_sq
    q2 = grid.cell_area**2
    return (
        0.25 * p.b_s * (float(t1 @ dist_sq @ t1) + float(t2 @ dist_sq @ t2)) * q2
        + 0.5 * p.bc_eff * float(t1 @ dist_sq @ t2) * q2
    )
