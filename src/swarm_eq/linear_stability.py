"""Mode-by-mode linear stability of the target states via boundary perturbations.

Deforming each circular boundary with a Fourier mode m and linearizing the
induced boundary velocities yields a 6x6 rate matrix acting on the vector of
normal/tangential amplitudes (outer, middle, inner boundary).  Tangential
columns vanish, so at least three eigenvalues are structurally zero; the
nontrivial ones are the roots of a quadratic (m = 1) or cubic (m >= 2) whose
closed forms are implemented alongside the matrix and cross-checked against
the eigensolver on every evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boundary_integrals import EPS_MAX, PerturbedDisk, attraction_integral, repulsion_integral
from .equilibria import EquilibriumConfig, EquilibriumKind, build_equilibrium, existence_region_mask
from .errors import EquilibriumMissing, SpectrumMismatch
from .model import (
    InteractionParams,
    PhasePoint,
    RegionId,
    attraction_weights,
    classify_region,
    curve_c2,
    region_code_grid,
    target_geometry,
    to_phase_point,
)

#: |Re lambda| below this multiple of ||Q||_F is reported as marginal, never stable.
MARGINAL_BAND = 1e-9

#: Relative tolerance of the eigensolver vs closed-form root cross-check.
CROSSCHECK_RTOL = 1e-8

DEFAULT_M_MAX = 32

_NESTING_NOTE = (
    "stable-mode regions are nested from mode 2 on (mode n >= 2 stable implies every mode > n stable "
    "at the same point; each report checks it, and mode 1 is exempt), so modes beyond m_max cannot "
    "flip an all-stable verdict"
)


@dataclass(frozen=True)
class ModeSpectrum:
    """Spectrum of the mode-m boundary-perturbation matrix."""

    kind: EquilibriumKind
    m: int
    Q: np.ndarray
    eigenvalues: np.ndarray
    nontrivial: np.ndarray
    verdict: str
    #: coefficient cross-check residual as a fraction of CROSSCHECK_RTOL (above 1 raises)
    crosscheck_margin: float


@dataclass(frozen=True)
class StabilityReport:
    """Per-mode verdicts up to m_max with the overall classification."""

    kind: EquilibriumKind
    m_max: int
    modes: tuple[ModeSpectrum, ...]
    overall: str
    dominant_unstable_mode: int | None
    guarantee: str = _NESTING_NOTE

    def verdict_of(self, m: int) -> str:
        if m not in range(1, self.m_max + 1):
            raise ValueError(f"mode {m!r} is not one of the report's modes 1..{self.m_max}")
        return self.modes[m - 1].verdict

    @property
    def worst_crosscheck_margin(self) -> float:
        """Largest ``crosscheck_margin`` over the modes."""
        return max(s.crosscheck_margin for s in self.modes)


def _q_light_raw(a_s, a_c, b_s, b_c, M1, M2, m):
    """Rate matrices of the modes in the 1-D int array m, stacked as (len(m), 6, 6)."""
    r2sq, r1sq, r0sq, rho1, rho2 = target_geometry(a_s, a_c, b_s, b_c, M1, M2)
    r2, r1, r0 = math.sqrt(r2sq), math.sqrt(r1sq), math.sqrt(r0sq)
    pi = math.pi
    modes = m.tolist()

    def pw(ratio, shift):
        # float ** int per mode: numpy's array ** can differ from it in the last bit
        return np.array([ratio ** (k + shift) for k in modes])

    s1 = a_s * pi * rho1
    s2 = a_s * pi * rho2
    c1 = a_c * pi * rho1
    c2 = a_c * pi * rho2
    Q = np.zeros((len(modes), 6, 6))
    Q[:, 0, 0], Q[:, 0, 2], Q[:, 0, 4] = -s1, -s1 * pw(r1 / r0, 2), c2 * pw(r2 / r0, 2)
    Q[:, 1, 0], Q[:, 1, 2], Q[:, 1, 4] = s1, -s1 * pw(r1 / r0, 2), c2 * pw(r2 / r0, 2)
    Q[:, 2, 0], Q[:, 2, 2], Q[:, 2, 4] = -s1 * pw(r1 / r0, -2), -s1, c2 * pw(r2 / r1, 2)
    Q[:, 3, 0], Q[:, 3, 2], Q[:, 3, 4] = s1 * pw(r1 / r0, -2), -s1, c2 * pw(r2 / r1, 2)
    Q[:, 4, 0], Q[:, 4, 2], Q[:, 4, 4] = -c1 * pw(r2 / r0, -2), c1 * pw(r2 / r1, -2), -s2
    Q[:, 5, 0], Q[:, 5, 2], Q[:, 5, 4] = c1 * pw(r2 / r0, -2), -c1 * pw(r2 / r1, -2), s2
    if 1 in modes:
        # mode 1 also moves each perturbed disk's first moment by pi R_l^3 eps_N (see
        # ``attraction_integral``): +b rho pi R_l^3 / R_j on boundary j's normal row, minus on its
        # tangential row; the annulus is the disk r0 minus the disk r1, so r1 enters at -rho1
        R = np.array([r0, r1, r2])
        b = np.array([[b_s, b_s, b_c], [b_s, b_s, b_c], [b_c, b_c, b_s]])
        shift = b * (pi * np.array([rho1, -rho1, rho2]) * R**3) / R[:, None]
        Q[m == 1, 0::2, 0::2] += shift
        Q[m == 1, 1::2, 0::2] -= shift
    return Q


def _require_target(kind: EquilibriumKind, p: InteractionParams):
    """The target kind and its equilibrium at p; raises EquilibriumMissing for any other state."""
    kind = EquilibriumKind(kind)
    if kind not in (EquilibriumKind.TARGET_LIGHT_IN, EquilibriumKind.TARGET_HEAVY_IN):
        raise EquilibriumMissing(f"boundary perturbation analysis covers targets only, not {kind}")
    cfg = build_equilibrium(kind, p)
    if not cfg.exists:
        raise EquilibriumMissing(f"{kind.value} does not exist here: {cfg.reason}")
    return kind, cfg


def _modes(m) -> np.ndarray:
    """m as a 1-D array of modes; ValueError unless m is one integer >= 1 or a 1-D sequence of them."""
    modes = np.asarray(m)
    if modes.ndim > 1 or not np.issubdtype(modes.dtype, np.integer) or np.any(modes < 1):
        raise ValueError(f"modes must be integers >= 1, got {m!r}")
    return np.atleast_1d(modes)


def build_Q(kind: EquilibriumKind, p: InteractionParams, m) -> np.ndarray:
    """Mode-m rate matrix for a target state; a (k, 6, 6) stack for a 1-D array of k modes.

    Rows/columns follow the boundary order (outer, middle, inner), normal
    then tangential amplitude each.  The heavy-inside matrix is the
    light-inside one with the species masses interchanged, which reorders the
    middle/inner roles accordingly.
    """
    kind, _ = _require_target(kind, p)
    M_ann, M_core = (p.M1, p.M2) if kind is EquilibriumKind.TARGET_LIGHT_IN else (p.M2, p.M1)
    Q = _q_light_raw(p.a_s, p.ac_eff, p.b_s, p.bc_eff, M_ann, M_core, _modes(m))
    return Q if np.ndim(m) else Q[0]


def reduced_coefficients(kind: EquilibriumKind, A, B, M, m):
    """Monic reduced polynomial of mode m, over floats or broadcastable arrays A, B.

    Mode 1: (c1, c0) of mu^2 + c1 mu + c0; modes m >= 2: (c2, c1, c0) of
    mu^3 + c2 mu^2 + c1 mu + c0, also per mode for a float A, B and an array
    m of modes >= 2 (c2 does not depend on m).  Its roots times ``rate_unit``
    are the nontrivial rates.  The heavy-inside polynomials, mode 1 included,
    are the light-inside ones under M -> 1/M; with the mode-1 unit b_s times
    the core species' mass, the heavy quadratic's (c1, c0) are 1/M and 1/M^2
    times those in units of b_s M2, and its rates are the same.
    """
    M_eff = M if EquilibriumKind(kind) is EquilibriumKind.TARGET_LIGHT_IN else 1.0 / M
    if np.ndim(m) == 0 and m == 1:
        return M_eff + 2.0 * B + M_eff * B, -M_eff * (M_eff + 1.0) * (A - B) * (M_eff + B) / (M_eff + A)
    C = curve_c2(B, M_eff)
    ratio = (A / (M_eff + A)) ** m
    c2 = 2.0 + 1.0 / C
    c1 = 2.0 / C + (1.0 - A * (C / A) ** (m - 1)) * (1.0 - ratio)
    c0 = (1.0 / C) * (1.0 - A * A * (C / A) ** m) * (1.0 - ratio)
    return c2, c1, c0


def mode1_quadratic(kind: EquilibriumKind, q: PhasePoint, scale: float) -> tuple[tuple[float, float, float], np.ndarray]:
    """Coefficients (1, c1, c0) and roots of the mode-1 reduced quadratic.

    ``scale`` is ``rate_unit(kind, p, 1)`` (b_s times the core species' mass)
    for physical rates; both roots are real, one always negative, the other
    negative exactly when B > A.
    """
    lin, const = reduced_coefficients(kind, q.A, q.B, q.M, 1)
    lin, const = scale * lin, scale**2 * const
    disc = math.sqrt(lin * lin - 4.0 * const)
    roots = np.array([(-lin - disc) / 2.0, (-lin + disc) / 2.0])
    return (1.0, lin, const), roots


def char_poly_cubic(kind: EquilibriumKind, q: PhasePoint, m: int):
    """Reduced cubic of mode m >= 2 as ((c2, c1, c0), P), with P its evaluator.

    Its roots are the nontrivial rates in units of ``cubic_scale``.
    """
    if m < 2:
        raise ValueError("the cubic covers modes m >= 2")
    c2, c1, c0 = reduced_coefficients(kind, q.A, q.B, q.M, m)

    def P(mu):
        return ((mu + c2) * mu + c1) * mu + c0

    return (c2, c1, c0), P


def cubic_scale(kind: EquilibriumKind, p: InteractionParams) -> float:
    """lambda = scale * mu conversion factor: pi a_s times the annulus density."""
    light = EquilibriumKind(kind) is EquilibriumKind.TARGET_LIGHT_IN
    M_ann, M_core = (p.M1, p.M2) if light else (p.M2, p.M1)
    return attraction_weights(p.b_s, p.bc_eff, M_ann, M_core)[0]


def rate_unit(kind: EquilibriumKind, p: InteractionParams, m):
    """Physical rate per unit root of the mode-m reduced polynomial, per mode for an array m.

    Mode 1: b_s times the core species' mass (b_s M2 light inside, b_s M1
    heavy inside); modes >= 2: ``cubic_scale``.
    """
    light = EquilibriumKind(kind) is EquilibriumKind.TARGET_LIGHT_IN
    unit = np.where(np.equal(m, 1), p.b_s * (p.M2 if light else p.M1), cubic_scale(kind, p))
    return unit if np.ndim(m) else float(unit)


def closed_form_rates(kind: EquilibriumKind, p: InteractionParams, m: int) -> np.ndarray:
    """Nontrivial eigenvalues of mode m (an integer >= 1) from the reduced quadratic/cubic closed forms."""
    m = _modes(m).item()
    q = to_phase_point(p)
    return np.roots([1.0, *reduced_coefficients(kind, q.A, q.B, q.M, m)]) * rate_unit(kind, p, m)


def P_minus_one_identity(q: PhasePoint, m: int) -> float:
    """Closed value of the light-inside cubic at mu = -1."""
    C = curve_c2(q.B, q.M)
    return (1.0 - 1.0 / C) * (q.A / (q.M + q.A)) ** m


def P_minus_inv_C_identity(q: PhasePoint, m: int) -> float:
    """Closed value of the light-inside cubic at mu = -1/C."""
    C = curve_c2(q.B, q.M)
    return (1.0 - C) * (C / q.A) ** (m - 2) * (1.0 - (q.A / (q.M + q.A)) ** m)


def mode_spectrum(kind: EquilibriumKind, p: InteractionParams, m):
    """Assemble Q, compute its spectrum, and classify the mode; a tuple, one per mode, for a 1-D array m.

    The n largest-magnitude eigenvalues (2 for m = 1, 3 otherwise) are the
    nontrivial ones; their signed elementary symmetric sums in reduced units
    must match the closed-form coefficients within 1e-8 of 1 + sum |c_k|, or
    SpectrumMismatch is raised for the lowest failing mode.  Coefficients are
    compared, not roots, since a near-double root is only determined to about
    sqrt(eps).  Rates within the marginal band around zero give a "marginal" verdict.
    """
    kind, modes = EquilibriumKind(kind), np.atleast_1d(m)
    stack = build_Q(kind, p, modes)  # one equilibrium and one eigensolve for all the modes
    eigs = np.linalg.eigvals(stack)
    one = modes == 1
    n_nontrivial = np.where(one, 2, 3)
    ranked = np.take_along_axis(eigs, np.argsort(-np.abs(eigs), axis=1), axis=1)
    nontrivial = np.arange(6) < n_nontrivial[:, None]
    band = MARGINAL_BAND * np.linalg.norm(stack, axis=(1, 2))
    trivial_fails = np.max(np.where(nontrivial, 0.0, np.abs(ranked)), axis=1) > band

    # per mode, the closed-form (c2, c1, c0), or (c1, c0, 0) for mode 1, against the expansion of
    # prod (mu - r) over its nontrivial roots r in reduced units, padded with r = 0 for mode 1
    q = to_phase_point(p)
    coeffs = np.zeros((len(modes), 3))
    if np.any(one):
        coeffs[one, :2] = reduced_coefficients(kind, q.A, q.B, q.M, 1)
    coeffs[~one] = np.column_stack(np.broadcast_arrays(*reduced_coefficients(kind, q.A, q.B, q.M, modes[~one])))
    r0, r1, r2 = (np.where(nontrivial, ranked, 0.0)[:, :3] / rate_unit(kind, p, modes)[:, None]).T
    vieta = np.column_stack([-(r0 + r1 + r2), r0 * r1 + r0 * r2 + r1 * r2, -(r0 * r1 * r2)])
    residual = np.max(np.abs(vieta - coeffs), axis=1) / (1.0 + np.sum(np.abs(coeffs), axis=1))
    fails = trivial_fails | (residual > CROSSCHECK_RTOL)
    if np.any(fails):
        k = int(np.argmax(fails))
        raise SpectrumMismatch(
            f"expected {6 - n_nontrivial[k]} structurally zero eigenvalues at mode {modes[k]}" if trivial_fails[k]
            else f"eigensolver and closed-form coefficients disagree at mode {modes[k]}: "
            f"relative residual {residual[k]:.2e}"
        )

    stable = np.all((ranked.real < -band[:, None]) | ~nontrivial, axis=1)
    unstable = np.any((ranked.real > band[:, None]) & nontrivial, axis=1)
    verdicts = np.where(stable, "stable", np.where(unstable, "unstable", "marginal"))
    spectra = tuple(
        ModeSpectrum(kind, int(mode), Qk, eig, rank[:n], str(verdict), float(res / CROSSCHECK_RTOL))
        for mode, Qk, eig, rank, n, verdict, res in zip(modes, stack, eigs, ranked, n_nontrivial, verdicts, residual)
    )
    return spectra if np.ndim(m) else spectra[0]


class UmRegion:
    """Instability region of boundary mode m for the light-inside target."""

    def __init__(self, m: int, M: float):
        self.m = _modes(m).item()
        self.M = float(M)

    @property
    def a_max(self) -> float:
        if self.m <= 2:
            return math.inf
        return self.M ** (self.m / (self.m - 2.0))

    def threshold_B(self, A):
        """Upper B boundary of the region at repulsion ratio A (modes >= 2)."""
        A = np.asarray(A, dtype=float)
        if self.m == 1:
            raise ValueError("mode 1 region is D3; it has no single-curve boundary")
        if self.m == 2:
            return np.ones_like(A)
        num = self.M * A ** (2.0 / self.m) - A
        den = self.M * A - A ** (2.0 / self.m)
        return num / den

    def contains(self, A, B):
        """Membership of (A, B): a bool for scalars, a mask for broadcastable arrays.

        U_1 is D3; for m >= 2 the region is the part of the light-inside
        existence union with 1 < A < a_max and 0 < B < threshold_B(A).
        """
        codes = region_code_grid(A, B, self.M)
        if self.m == 1:
            inside = codes == RegionId.D3.code
        else:
            A, B = np.asarray(A, dtype=float), np.asarray(B, dtype=float)
            inside = existence_region_mask(EquilibriumKind.TARGET_LIGHT_IN, codes)
            with np.errstate(divide="ignore", invalid="ignore"):
                inside = inside & (A > 1.0) & (A < self.a_max) & (B > 0.0) & (B < self.threshold_B(A))
        return bool(inside) if np.ndim(inside) == 0 else inside


def region_Um(m: int, M: float) -> UmRegion:
    """Membership predicate and boundary curve of the mode-m instability region."""
    return UmRegion(m, M)


def checked_m_max(m_max) -> int:
    """m_max as an int; ValueError unless it is one integer >= 2 (the rule of reports and sweeps)."""
    if np.ndim(m_max) or not np.issubdtype(np.asarray(m_max).dtype, np.integer) or m_max < 2:
        raise ValueError(f"m_max must be an integer >= 2, got {m_max!r}")
    return int(m_max)


def stability_report(kind: EquilibriumKind, p: InteractionParams, m_max: int = DEFAULT_M_MAX) -> StabilityReport:
    """Classify every boundary mode up to m_max and combine into one verdict.

    One equilibrium build and one stacked eigensolve cover all the modes.
    Stable overall only when every mode is stable; nesting of the per-mode
    stable regions makes m_max = 32 conclusive for all higher modes.  Two
    checks raise SpectrumMismatch: a stable mode m >= 2 below an unstable
    one breaks nesting (marginal modes count as neither, and mode 1, which
    can be stable below unstable modes, is exempt), and the verdict must
    match the analytic region result (light inside: stable exactly on D4 and
    D5; heavy inside: never stable).
    """
    kind, m_max = EquilibriumKind(kind), checked_m_max(m_max)
    modes = mode_spectrum(kind, p, range(1, m_max + 1))
    lowest_stable = min((s.m for s in modes[1:] if s.verdict == "stable"), default=math.inf)
    unstable_above = [s.m for s in modes if s.m > lowest_stable and s.verdict == "unstable"]
    if unstable_above:
        raise SpectrumMismatch(
            f"stable modes are not nested: mode {lowest_stable} is stable and mode {unstable_above[0]} unstable"
        )
    verdicts = {s.verdict for s in modes}
    overall = "unstable" if "unstable" in verdicts else "stable" if verdicts == {"stable"} else "marginal"
    growth = [max(s.nontrivial.real) if s.verdict == "unstable" else -math.inf for s in modes]
    dominant = int(np.argmax(growth)) + 1 if overall == "unstable" else None

    if overall != "marginal":
        region = classify_region(to_phase_point(p))
        if not region.is_boundary:
            light = kind is EquilibriumKind.TARGET_LIGHT_IN
            expected = "stable" if light and region in (RegionId.D4, RegionId.D5) else "unstable"
            if overall != expected:
                raise SpectrumMismatch(
                    f"eigenvalue verdict {overall} contradicts the analytic region result "
                    f"{expected} in {region.value}"
                )
    return StabilityReport(kind, m_max, modes, overall, dominant)


# --------------------------------------------------------------------------
# Independent assembly of Q from the perturbed-boundary integrals


def _assembly_geometry(kind: EquilibriumKind, cfg: EquilibriumConfig):
    """Boundary radii (outer, middle, inner), their species, and shell densities of an existing target."""
    r_core, r_mid, r_out = cfg.radii
    if kind is EquilibriumKind.TARGET_LIGHT_IN:
        species = (1, 1, 2)  # outer, middle, inner boundary
        rho_ann, rho_core = cfg.shells[1].rho1, cfg.shells[0].rho2
        s_ann, s_core = 1, 2
    else:
        species = (2, 2, 1)
        rho_ann, rho_core = cfg.shells[1].rho2, cfg.shells[0].rho1
        s_ann, s_core = 2, 1
    return (r_out, r_mid, r_core), species, (rho_ann, s_ann), (rho_core, s_core)


def build_Q_from_integrals(
    kind: EquilibriumKind, p: InteractionParams, m: int, theta0: float | None = None
) -> np.ndarray:
    """Reassemble the mode-m matrix from the perturbed-domain integral formulas.

    Independent of the printed matrix entries: boundary velocities are built
    from the first-order attraction/repulsion integrals, the equilibrium
    baseline is subtracted, and the normal/tangential responses are read off
    at angle theta0 (any angle with cos(m theta0) sin(m theta0) != 0).  The
    integrals are affine in the amplitudes, so each column is an exact
    difference quotient at the largest amplitude ``PerturbedDisk`` accepts.
    """
    kind, cfg = _require_target(kind, p)
    if theta0 is None:
        theta0 = math.pi / (4.0 * m)
    radii, species, (rho_ann, s_ann), (rho_core, s_core) = _assembly_geometry(kind, cfg)
    kernels = {
        True: (p.a_s, p.b_s),  # same species
        False: (p.ac_eff, p.bc_eff),
    }

    def velocity(j, disks):
        x = np.array(
            [disks[j].boundary_point(theta0).real, disks[j].boundary_point(theta0).imag]
        )
        k = species[j]
        a, b = kernels[k == s_ann]
        v = rho_ann * (
            a * (repulsion_integral(disks[j], theta0, disks[0]) - repulsion_integral(disks[j], theta0, disks[1]))
            - b * (attraction_integral(x, disks[0]) - attraction_integral(x, disks[1]))
        )
        a, b = kernels[k == s_core]
        v = v + rho_core * (
            a * repulsion_integral(disks[j], theta0, disks[2]) - b * attraction_integral(x, disks[2])
        )
        return v[0] + 1j * v[1]

    def responses(eps):
        """(eps_N', eps_T') for each boundary j at perturbation state eps (3x2)."""
        disks = tuple(
            PerturbedDisk(R=radii[l], m=m, eps_N=eps[l][0], eps_T=eps[l][1]) for l in range(3)
        )
        out = []
        cos_m, sin_m = math.cos(m * theta0), math.sin(m * theta0)
        for j in range(3):
            w = velocity(j, disks) / (radii[j] * complex(math.cos(theta0), math.sin(theta0)))
            out.extend([w.real / cos_m, w.imag / sin_m])
        return np.array(out)

    base = responses(((0.0, 0.0),) * 3)
    Q = np.zeros((6, 6))
    for col in range(6):
        eps = [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
        eps[col // 2][col % 2] = EPS_MAX
        Q[:, col] = (responses(tuple(tuple(e) for e in eps)) - base) / EPS_MAX
    return Q
