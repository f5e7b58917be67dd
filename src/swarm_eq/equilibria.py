"""Construction and validation of the four radially symmetric equilibria.

Two "target" states (one species on a central disk, the other on a concentric
annulus, in either mass order) and two "overlap" states (both species on an
inner disk, one species alone on the surrounding annulus).  Radii follow from
the zero-velocity conditions; densities are the admissible piecewise-constant
values.  Existence is decided directly from density positivity and the radius
ordering, which reproduces the phase-plane region unions exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import SampleOutsideSupport
from .model import (
    InteractionParams,
    RegionId,
    _density_quadruple,
    classify_region,
    target_geometry,
    to_phase_point,
)

#: Relative tolerance under which touching radii count as boundary-degenerate.
DEGENERATE_RTOL = 1e-12


class EquilibriumKind(str, Enum):
    TARGET_LIGHT_IN = "target-light"
    TARGET_HEAVY_IN = "target-heavy"
    OVERLAP_LIGHT_IN = "overlap-light"
    OVERLAP_HEAVY_IN = "overlap-heavy"


#: Region unions in which each equilibrium kind exists.
EXISTENCE_REGIONS = {
    EquilibriumKind.TARGET_LIGHT_IN: (RegionId.D3, RegionId.D4, RegionId.D5),
    EquilibriumKind.TARGET_HEAVY_IN: (RegionId.D2, RegionId.D3, RegionId.D4),
    EquilibriumKind.OVERLAP_LIGHT_IN: (RegionId.D3, RegionId.D6),
    EquilibriumKind.OVERLAP_HEAVY_IN: (RegionId.D1, RegionId.D4),
}


def existence_region_mask(kind: EquilibriumKind, region_codes: np.ndarray) -> np.ndarray:
    """Mask of ``region_code_grid`` codes that lie in the kind's existence union."""
    in_union = np.zeros(7, dtype=bool)  # indexed by code; 0 is the boundary band
    in_union[[r.code for r in EXISTENCE_REGIONS[EquilibriumKind(kind)]]] = True
    return in_union[region_codes]


@dataclass(frozen=True)
class Shell:
    """Annulus r_in <= |x| <= r_out carrying constant densities (rho1, rho2)."""

    r_in: float
    r_out: float
    rho1: float
    rho2: float

    def density(self, species: int) -> float:
        return self.rho1 if species == 1 else self.rho2

    @property
    def mass1(self) -> float:
        return self.rho1 * math.pi * (self.r_out**2 - self.r_in**2)

    @property
    def mass2(self) -> float:
        return self.rho2 * math.pi * (self.r_out**2 - self.r_in**2)


@dataclass(frozen=True)
class EquilibriumConfig:
    """One radially symmetric equilibrium ansatz with its existence verdict.

    ``radii`` is ordered inner to outer (three radii for targets, two for
    overlaps).  ``shells`` lists only subdomains with nonzero density, inner
    to outer; it is empty when ``exists`` is False, and ``failed_check`` then
    names the radius or density condition that failed.
    """

    kind: EquilibriumKind
    radii: tuple[float, ...]
    shells: tuple[Shell, ...]
    params: InteractionParams
    exists: bool
    failed_check: str
    boundary_degenerate: bool = False

    @property
    def reason(self) -> str:
        """Why the state does not exist, with the point's phase-plane region; "" if it exists."""
        if self.exists:
            return ""
        region = classify_region(to_phase_point(self.params))
        required = " or ".join(r.value for r in EXISTENCE_REGIONS[self.kind])
        return f"{self.failed_check} (point is in {region.value}; existence requires {required})"

    @property
    def densities(self) -> tuple[tuple[float, float], ...]:
        return tuple((s.rho1, s.rho2) for s in self.shells)

    @property
    def outermost_radius(self) -> float:
        return self.radii[-1]

    def support_intervals(self, species: int) -> tuple[tuple[float, float], ...]:
        return tuple(
            (s.r_in, s.r_out) for s in self.shells if s.density(species) > 0.0
        )


def _touching(r_small: float, r_large: float) -> bool:
    return abs(r_large - r_small) <= DEGENERATE_RTOL * max(r_small, r_large)


def build_equilibrium(kind: EquilibriumKind, p: InteractionParams) -> EquilibriumConfig:
    """Construct the equilibrium of the given kind, with existence verdict.

    The verdict comes from the radius ordering and density positivity; the
    ``reason`` property names the failed check and the phase-plane region
    when the state does not exist.  Radii touching within 1e-12 relative are
    kept as existing but flagged boundary-degenerate.  Each heavy-inside kind
    is its light-inside counterpart with the species masses and roles swapped.
    """
    kind = EquilibriumKind(kind)
    a_s, a_c = p.a_s, p.ac_eff
    b_s, b_c = p.b_s, p.bc_eff
    light = kind in (EquilibriumKind.TARGET_LIGHT_IN, EquilibriumKind.OVERLAP_LIGHT_IN)
    # mass of the species on the outer annulus, then of the one at the core
    M_ann, M_core = (p.M1, p.M2) if light else (p.M2, p.M1)

    def shell(r_in, r_out, rho_ann, rho_core):
        return Shell(r_in, r_out, rho_ann, rho_core) if light else Shell(r_in, r_out, rho_core, rho_ann)

    def config(radii, shells, failed_check="", degenerate=False):
        return EquilibriumConfig(kind, radii, shells, p, not failed_check, failed_check, degenerate)

    r_core_sq, r_in_sq, r_out_sq, rho_ann, rho_core = target_geometry(a_s, a_c, b_s, b_c, M_ann, M_core)
    r_out = math.sqrt(r_out_sq)

    if kind in (EquilibriumKind.TARGET_LIGHT_IN, EquilibriumKind.TARGET_HEAVY_IN):
        r_core, r_in = math.sqrt(r_core_sq), math.sqrt(r_in_sq)
        radii = (r_core, r_in, r_out)
        degenerate = _touching(r_core, r_in)
        if r_core <= r_in or degenerate:
            shells = (shell(0.0, r_core, 0.0, rho_core), shell(r_in, r_out, rho_ann, 0.0))
            return config(radii, shells, degenerate=degenerate)
        return config(radii, (), "inner disk exceeds annulus")

    # overlap: both species on the coexistence disk, the annulus species alone outside it
    rho_ann_c, rho_core_c = _density_quadruple(a_s, a_c, b_s, b_c, M_ann, M_core).coexist
    denom = (a_s * b_c - a_c * b_s) * M_ann + (a_s * b_s - a_c * b_c) * M_core
    r_mix_sq = (a_s * a_s - a_c * a_c) * M_core / denom if denom != 0.0 else math.nan
    r_mix = math.sqrt(r_mix_sq) if r_mix_sq > 0.0 else math.nan
    radii = (r_mix, r_out)
    if not (rho_ann_c > 0.0 and rho_core_c > 0.0):
        return config(radii, (), "coexistence density nonpositive")
    degenerate = _touching(r_mix, r_out)
    if r_mix <= r_out or degenerate:
        shells = (shell(0.0, r_mix, rho_ann_c, rho_core_c), shell(r_mix, r_out, rho_ann, 0.0))
        return config(radii, shells, degenerate=degenerate)
    return config(radii, (), "coexistence disk exceeds outer disk")


def mass_integrals(cfg: EquilibriumConfig) -> tuple[float, float]:
    """Per-species mass obtained by integrating density over the shells."""
    return (
        sum(s.mass1 for s in cfg.shells),
        sum(s.mass2 for s in cfg.shells),
    )


def force_scale(cfg: EquilibriumConfig) -> float:
    """Characteristic velocity magnitude used to normalize residuals."""
    p = cfg.params
    return (p.b_s * p.M1 + p.bc_eff * p.M2) * cfg.outermost_radius


def _disk_repulsion_component(r: float, R: float) -> float:
    """e1-component of the disk repulsion integral at x = (r, 0)."""
    if R == 0.0:
        return 0.0
    if r < R:
        return math.pi * r
    return math.pi * R * R / r


def velocity_at_radius(cfg: EquilibriumConfig, species: int, r: float) -> float:
    """Radial velocity of the given species at |x| = r (closed-form disk integrals)."""
    p = cfg.params
    # kernel coefficients acting on rho1 and rho2 respectively
    if species == 1:
        (a1, b1), (a2, b2) = (p.a_s, p.b_s), (p.ac_eff, p.bc_eff)
    else:
        (a1, b1), (a2, b2) = (p.ac_eff, p.bc_eff), (p.a_s, p.b_s)
    v = 0.0
    for s in cfg.shells:
        i_rep = _disk_repulsion_component(r, s.r_out) - _disk_repulsion_component(r, s.r_in)
        i_att = r * math.pi * (s.r_out**2 - s.r_in**2)
        v += s.rho1 * (a1 * i_rep - b1 * i_att) + s.rho2 * (a2 * i_rep - b2 * i_att)
    return v


def velocity_residual(cfg: EquilibriumConfig, sample_radii) -> list[float]:
    """|v_i| at sample radii inside the supports; zero (to rounding) at equilibrium.

    For radii where both species are present the larger of the two residuals
    is reported.  Raises SampleOutsideSupport for radii in no species' support.
    """
    if not cfg.exists:
        raise SampleOutsideSupport("configuration does not exist")
    out = []
    for r in np.atleast_1d(np.asarray(sample_radii, dtype=float)):
        species_here = [
            i
            for i in (1, 2)
            for lo, hi in cfg.support_intervals(i)
            if lo <= r <= hi
        ]
        if not species_here:
            raise SampleOutsideSupport(f"radius {r} is outside both supports")
        out.append(max(abs(velocity_at_radius(cfg, i, r)) for i in species_here))
    return out
