"""Whole-grid (A, B) sweeps: stability verdicts of the target states.

Region codes, existence masks and U_m membership are not written here: the
sweeps call the same array-valued functions as the per-point APIs
(``model.region_code_grid``, ``equilibria.existence_region_mask`` and
``linear_stability.UmRegion.contains``), so a grid and a single point cannot
disagree.  Stability verdicts come from the nontrivial rates, i.e. the
closed-form quadratic (mode 1) and the reduced cubic (modes >= 2), whose
coefficients both routes take from ``linear_stability.reduced_coefficients``,
and both decide a rate against the marginal band by ``linear_stability.band_verdict``.
A cubic mode is decided by the Routh-Hurwitz conditions on its coefficients
wherever they certify the answer, and by a stacked companion-matrix
eigensolve only inside the certified band (see ``cubic_mode_verdict``); the
per-point 6x6 route in ``linear_stability`` cross-checks the same numbers on
every call, so the two paths cannot drift apart silently.  The overall
verdict is the worst mode's, so a grid point leaves the mode loop at its
first unstable mode; ``SweepCounts`` records the cubic work that remains.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .equilibria import EquilibriumKind, existence_region_mask
from .linear_stability import (
    DEFAULT_M_MAX, MARGINAL_BAND, VERDICT_CODES, UmRegion, _target_kind, band_verdict, checked_m_max,
    reduced_coefficients,
)
from .model import region_code_grid

#: Code of a grid point where the state does not exist, the phase-diagram CSV's one code beyond the verdicts.
_VERDICT_MISSING = -2


@dataclass
class SweepCounts:
    """Work done by the cubic verdicts, for a sweep's metadata record.

    ``cubic_evals`` counts cubic verdicts (one per point and mode) and
    ``eigensolves`` the points among them whose coefficients could not
    certify the verdict, so the companion-matrix eigensolve decided it.
    """

    cubic_evals: int = 0
    eigensolves: int = 0


def _cubic_max_real(c2, c1, c0):
    """Max real part of the roots of mu^3 + c2 mu^2 + c1 mu + c0 (vectorized)."""
    k = c2.shape[0]
    comp = np.zeros((k, 3, 3))
    comp[:, 1, 0] = 1.0
    comp[:, 2, 1] = 1.0
    comp[:, 0, 2] = -c0
    comp[:, 1, 2] = -c1
    comp[:, 2, 2] = -c2
    roots = np.linalg.eigvals(comp)
    return roots.real.max(axis=1)


def cubic_mode_verdict(c2, c1, c0, *, counts: SweepCounts | None = None) -> np.ndarray:
    """Verdict code per point for the rates mu^3 + c2 mu^2 + c1 mu + c0 = 0, c2 > 0.

    Stable (every root has Re < -band*s), unstable (some root has
    Re > band*s) or marginal (neither) by ``linear_stability.band_verdict``,
    with band the ``MARGINAL_BAND`` and s = 1 + |c2| + |c1| + |c0| the
    natural scale of the cubic.  By Routh-Hurwitz, with c2 > 0 every root
    has Re < 0 iff c0 > 0 and H = c2*c1 - c0 > 0.  The sign test can
    only go wrong for a root with |Re| <= band*s, and such a root leaves a
    trace in the coefficients: by the Cauchy bound every root has |r| <= s,
    so a real root r with |r| <= band*s gives |c0| = |r1 r2 r3| <= band*s^3,
    and a complex pair x +- iy with |x| <= band*s gives
    |H| = |(r1+r2)(r1+r3)(r2+r3)| = 2|x| |r1+r2|^2 <= 8*band*s^3.  Points
    with |c0| and |H| both above 16*band*s^3 (twice that, so a root's real
    part clears the band by at least a factor of two) therefore get the
    eigensolver's answer from the sign test; the rest, and any non-finite
    coefficients, fall back to the companion-matrix eigensolve.  With
    ``counts``, the points and their fallbacks are added to it.
    """
    c2, c1, c0 = np.broadcast_arrays(*(np.asarray(c, dtype=float) for c in (c2, c1, c0)))
    s = 1.0 + np.abs(c2) + np.abs(c1) + np.abs(c0)
    H = c2 * c1 - c0
    verdict = np.where((c0 > 0.0) & (H > 0.0), VERDICT_CODES["stable"], VERDICT_CODES["unstable"]).astype(np.int8)
    tol = 16.0 * MARGINAL_BAND * s**3
    unsure = ~((np.abs(c0) > tol) & (np.abs(H) > tol))
    if np.any(unsure):
        verdict[unsure] = band_verdict(_cubic_max_real(c2[unsure], c1[unsure], c0[unsure]) / s[unsure], MARGINAL_BAND)
    if counts is not None:
        counts.cubic_evals += verdict.size
        counts.eigensolves += int(np.count_nonzero(unsure))
    return verdict


def target_verdict_grid(
    kind: EquilibriumKind, A, B, M: float, m_max: int = DEFAULT_M_MAX, *, counts: SweepCounts | None = None
) -> np.ndarray:
    """Overall stability verdict per grid point for a target state.

    Returns the codes of ``linear_stability.VERDICT_CODES`` (marginal: some
    rate inside the band and none above it), and -2 where the state does not
    exist.  Rates are in units of the natural matrix scale, so
    ``MARGINAL_BAND`` is relative.  The overall
    verdict is the worst per-mode verdict (unstable < marginal < stable), so a
    point leaves the mode loop at its first unstable mode: later modes cannot
    change it, while a marginal point stays in, as a later mode can still
    make it unstable.  With ``counts``, the cubic verdicts and their
    eigensolve fallbacks are added to it.  ``m_max`` follows
    ``stability_report``'s rule: an integer >= 2.  Raises EquilibriumMissing
    for an overlap kind, which the analysis does not cover.
    """
    kind, m_max = _target_kind(kind), checked_m_max(m_max)
    A, B = np.broadcast_arrays(np.asarray(A, dtype=float), np.asarray(B, dtype=float))
    shape = A.shape
    A = A.ravel()
    B = B.ravel()
    codes = region_code_grid(A, B, M).ravel()
    exists = existence_region_mask(kind, codes)

    verdict = np.full(A.shape, _VERDICT_MISSING, dtype=np.int8)
    if not np.any(exists):
        return verdict.reshape(shape)
    Ae, Be = A[exists], B[exists]

    # mode 1: reduced quadratic, in units of b_s times the core species' mass; both roots are real
    lin, const = reduced_coefficients(kind, Ae, Be, M, 1)
    max_re = 0.5 * (-lin + np.sqrt(lin * lin - 4.0 * const))
    v = band_verdict(max_re / np.maximum(1.0, np.abs(lin)), MARGINAL_BAND)
    unstable = VERDICT_CODES["unstable"]
    undecided = np.flatnonzero(v != unstable)
    for m in range(2, m_max + 1):
        if undecided.size == 0:
            break
        coeffs = reduced_coefficients(kind, Ae[undecided], Be[undecided], M, m)
        v[undecided] = np.minimum(v[undecided], cubic_mode_verdict(*coeffs, counts=counts))
        undecided = undecided[v[undecided] != unstable]
    verdict[exists] = v
    return verdict.reshape(shape)


def heavy_mode2_unstable_grid(A, B, M: float) -> np.ndarray:
    """Mask where boundary mode 2 of the heavy-inside target is unstable."""
    A, B = np.asarray(A, dtype=float), np.asarray(B, dtype=float)
    coeffs = reduced_coefficients(EquilibriumKind.TARGET_HEAVY_IN, A, B, M, 2)
    return cubic_mode_verdict(*coeffs) == VERDICT_CODES["unstable"]


def um_member_grid(m: int, M: float, A, B) -> np.ndarray:
    """Vectorized membership in the mode-m instability region."""
    return UmRegion(m, M).contains(A, B)


def cell_centered_axis(n: int, lo: float = 0.0, hi: float = 5.0) -> np.ndarray:
    """n cell-centered samples of (lo, hi), the grid used by phase diagrams."""
    edges = np.linspace(lo, hi, n + 1)
    return 0.5 * (edges[:-1] + edges[1:])
