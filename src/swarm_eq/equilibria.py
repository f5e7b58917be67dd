"""Construction and validation of the four radially symmetric equilibria.

Two "target" states (one species on a central disk, the other on a concentric
annulus, in either mass order) and two "overlap" states (both species on an
inner disk, one species alone on the surrounding annulus).  Radii follow from
the zero-velocity conditions; densities are the admissible piecewise-constant
values.  Existence is decided directly from density positivity and the radius
ordering, which reproduces the phase-plane region unions exactly.

``_disk_coeffs`` holds the only copy of the uniform-disk potential terms of
the profiles Lambda_i, and ``_disk_terms`` the only walk over the shells'
disks: ``lambda_coeffs`` and ``variational.lambda_profile`` sum its terms,
and ``velocity_residual`` reads v_i = -Lambda_i'(r) from ``lambda_coeffs``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import SampleOutsideSupport
from .model import (
    InteractionParams,
    RegionId,
    _density_quadruple,
    attraction_weights,
    classify_region,
    target_geometry,
    to_phase_point,
)

#: Relative tolerance under which touching radii count as boundary-degenerate.
DEGENERATE_RTOL = 1e-12


class EquilibriumKind(str, Enum):
    """The four radial states, each with its species roles (species 1 carries M1, species 2 carries M2)."""

    TARGET_LIGHT_IN = "target-light"
    TARGET_HEAVY_IN = "target-heavy"
    OVERLAP_LIGHT_IN = "overlap-light"
    OVERLAP_HEAVY_IN = "overlap-heavy"

    @property
    def is_target(self) -> bool:
        """True for the target states (three radii), False for the overlap states (two)."""
        return self in (EquilibriumKind.TARGET_LIGHT_IN, EquilibriumKind.TARGET_HEAVY_IN)

    @property
    def core_species(self) -> int:
        """The species at the core: 2 for the light-inside kinds, 1 for the heavy-inside ones."""
        return 2 if self in (EquilibriumKind.TARGET_LIGHT_IN, EquilibriumKind.OVERLAP_LIGHT_IN) else 1

    def masses(self, p: InteractionParams) -> tuple[float, float]:
        """(annulus mass, core mass): the masses of species 3 - core_species and core_species."""
        return (p.M1, p.M2) if self.core_species == 2 else (p.M2, p.M1)


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
    #: ``variational.lambda_profile``'s results by species, kept on this object: a config asked for its
    #: profiles and then for its minimizer verdict builds each profile once.  Equal configs built
    #: separately do not share it.
    _lambda_profiles: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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
    M_ann, M_core = kind.masses(p)

    def shell(r_in, r_out, rho_ann, rho_core):
        return Shell(r_in, r_out, rho_ann, rho_core) if kind.core_species == 2 else Shell(r_in, r_out, rho_core, rho_ann)

    def config(radii, shells, failed_check="", degenerate=False):
        return EquilibriumConfig(kind, radii, shells, p, not failed_check, failed_check, degenerate)

    r_core_sq, r_in_sq, r_out_sq, rho_ann, rho_core = target_geometry(a_s, a_c, b_s, b_c, M_ann, M_core)
    r_out = math.sqrt(r_out_sq)

    if kind.is_target:
        r_core, r_in = math.sqrt(r_core_sq), math.sqrt(r_in_sq)
        radii = (r_core, r_in, r_out)
        degenerate = _touching(r_core, r_in)
        if r_core <= r_in or degenerate:
            shells = (shell(0.0, r_core, 0.0, rho_core), shell(r_in, r_out, rho_ann, 0.0))
            return config(radii, shells, degenerate=degenerate)
        return config(radii, (), "inner disk exceeds annulus")

    # overlap: both species on the coexistence disk, the annulus species alone outside it
    rho_ann_c, rho_core_c = _density_quadruple(a_s, a_c, b_s, b_c, M_ann, M_core).coexist
    # r_mix^2 = (a_s^2 - a_c^2) M_core / ((a_s - a_c)(b_s + b_c) M_core + (a_s b_c - a_c b_s)(M_ann - M_core)),
    # with the factor a_s - a_c (nonzero once the coexistence pair exists) divided out, so that it
    # cannot cancel near A = 1; at equal masses r_mix^2 is (a_s + a_c)/(b_s + b_c) = r_out^2
    denom = (b_s + b_c) * M_core + (a_s * b_c - a_c * b_s) / (a_s - a_c) * (M_ann - M_core)
    r_mix_sq = (a_s + a_c) * M_core / denom if denom != 0.0 else math.nan
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
    return attraction_weights(p.b_s, p.bc_eff, p.M1, p.M2)[0] * cfg.outermost_radius


def _kernel_pairs(p: InteractionParams, species: int):
    """(a, b) kernel coefficients acting on rho1 and rho2 for Lambda_species."""
    if species == 1:
        return (p.a_s, p.b_s), (p.ac_eff, p.bc_eff)
    return (p.ac_eff, p.bc_eff), (p.a_s, p.b_s)


def _disk_coeffs(weight, a, b, R):
    """(c0, c2, cl) contributions of one uniform disk to Lambda at weight*density, inside (r < R) and outside."""
    piR2 = math.pi * R * R
    c0 = weight * b * piR2 * R * R / 4.0
    c2 = weight * b * piR2 / 2.0
    inside = (c0 + weight * (-a) * (piR2 * math.log(R) - piR2 / 2.0), c2 + weight * (-a) * math.pi / 2.0, 0.0)
    return inside, (c0, c2, weight * (-a) * piR2)


def _disk_terms(cfg: EquilibriumConfig, species: int) -> list:
    """The uniform disks whose differences make up the shells, for Lambda_species, in summation order.

    Each is (R, inside, outside) with the disk's (c0, c2, cl) for r < R and
    for r >= R; disks of zero radius or density contribute nothing and are left out.
    """
    k1, k2 = _kernel_pairs(cfg.params, species)
    terms = []
    for s in cfg.shells:
        for R, sign in ((s.r_out, 1.0), (s.r_in, -1.0)):
            for rho, (a, b) in ((s.rho1, k1), (s.rho2, k2)):
                if R != 0.0 and rho != 0.0:
                    terms.append((R, *_disk_coeffs(sign * rho, a, b, R)))
    return terms


def _summed_coeffs(terms, r: float) -> tuple[float, float, float]:
    """(c0, c2, cl) at radius r: the sum of ``_disk_terms``' inside or outside triples, in their order."""
    c0 = c2 = cl = 0.0
    for R, inside, outside in terms:
        d0, d2, dl = inside if r < R else outside
        c0 += d0
        c2 += d2
        cl += dl
    return c0, c2, cl


def lambda_coeffs(cfg: EquilibriumConfig, species: int, r: float) -> tuple[float, float, float]:
    """(c0, c2, cl) of Lambda_species = c0 + c2 r^2 + cl ln r on the interval holding r.

    Each shell is a difference of uniform disks, taken in their inside form where r < R.
    """
    return _summed_coeffs(_disk_terms(cfg, species), r)


def velocity_residual(cfg: EquilibriumConfig, sample_radii) -> list[float]:
    """|v_i| = |Lambda_i'(r)| at sample radii inside the supports; zero (to rounding) at equilibrium.

    For radii where both species are present the larger of the two residuals
    is reported.  Raises SampleOutsideSupport for radii in no species' support.
    """
    if not cfg.exists:
        raise SampleOutsideSupport("configuration does not exist")

    def speed(species, r):
        _, c2, cl = lambda_coeffs(cfg, species, r)
        return abs(2.0 * c2 * r + (cl / r if cl else 0.0))

    out = []
    for r in np.atleast_1d(np.asarray(sample_radii, dtype=float)):
        species_here = [i for i in (1, 2) for lo, hi in cfg.support_intervals(i) if lo <= r <= hi]
        if not species_here:
            raise SampleOutsideSupport(f"radius {r} is outside both supports")
        out.append(max(speed(i, r) for i in species_here))
    return out
