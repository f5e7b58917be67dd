import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import draw_phase_in_regions, params_from_phase
from swarm_eq import sweeps
from swarm_eq.equilibria import EXISTENCE_REGIONS, EquilibriumKind
from swarm_eq.errors import EquilibriumMissing
from swarm_eq.linear_stability import MARGINAL_BAND, build_Q, reduced_coefficients, stability_report
from swarm_eq.model import PhasePoint, RegionId, classify_region
from swarm_eq.sweeps import (
    SweepCounts,
    cell_centered_axis,
    cubic_mode_verdict,
    existence_region_mask,
    region_code_grid,
    target_verdict_grid,
)

LIGHT = EquilibriumKind.TARGET_LIGHT_IN
HEAVY = EquilibriumKind.TARGET_HEAVY_IN

_NAME_TO_CODE = {f"D{k}": k for k in range(1, 7)}


def test_region_grid_matches_pointwise_classify(rng):
    A = rng.uniform(0.05, 5.0, size=400)
    B = rng.uniform(0.05, 5.0, size=400)
    codes = region_code_grid(A, B, 2.0)
    for a, b, code in zip(A, B, codes):
        tag = classify_region(PhasePoint(a, b, 2.0))
        expected = 0 if tag.is_boundary else _NAME_TO_CODE[tag.value]
        assert code == expected


def test_cell_centered_axis():
    ax = cell_centered_axis(10, 0.0, 5.0)
    assert len(ax) == 10
    assert ax[0] == pytest.approx(0.25)
    assert ax[-1] == pytest.approx(4.75)


def test_existence_mask_matches_regions():
    codes = np.array([1, 2, 3, 4, 5, 6, 0], dtype=np.int8)
    mask = existence_region_mask(LIGHT, codes)
    np.testing.assert_array_equal(mask, [False, False, True, True, True, False, False])


def test_grid_verdicts_match_full_spectra(rng):
    # dual-route reconciliation: vectorized cubic sweep vs per-point 6x6 route
    for kind, regions in ((LIGHT, EXISTENCE_REGIONS[LIGHT]), (HEAVY, EXISTENCE_REGIONS[HEAVY])):
        pts = draw_phase_in_regions(rng, regions, n=8)
        A = np.array([a for a, _ in pts])
        B = np.array([b for _, b in pts])
        grid_v = target_verdict_grid(kind, A, B, 2.0, m_max=12)
        for (a, b), v in zip(pts, grid_v):
            rep = stability_report(kind, params_from_phase(a, b), m_max=12)
            expected = {"stable": 1, "unstable": -1, "marginal": 0}[rep.overall]
            assert v == expected, (kind, a, b)


def _eigvals_max_real(c2, c1, c0):
    """Largest real root part of each cubic, from a stacked companion eigensolve."""
    comp = np.zeros((len(c2), 3, 3))
    comp[:, 1, 0] = comp[:, 2, 1] = 1.0
    comp[:, :, 2] = -np.column_stack([c0, c1, c2])
    return np.linalg.eigvals(comp).real.max(axis=1)


def _eigvals_verdict_grid(kind, A, B, M, m_max):
    """Reference sweep: every cubic mode at every point decided by the eigensolver."""
    band = MARGINAL_BAND
    codes = region_code_grid(A, B, M)
    exists = existence_region_mask(kind, codes) & (codes != 0)
    Ae, Be = A[exists], B[exists]
    lin, const = reduced_coefficients(kind, Ae, Be, M, 1)
    max_re = 0.5 * (-lin + np.sqrt(lin * lin - 4.0 * const))
    scale = np.maximum(1.0, np.abs(lin))
    any_marginal = np.abs(max_re) <= band * scale
    worst = max_re / scale
    for m in range(2, m_max + 1):
        c2, c1, c0 = reduced_coefficients(kind, Ae, Be, M, m)
        w = _eigvals_max_real(c2, c1, c0) / (1.0 + np.abs(c2) + np.abs(c1) + np.abs(c0))
        any_marginal |= np.abs(w) <= band
        worst = np.maximum(worst, w)
    v = np.where(worst > band, -1, 1)
    v = np.where((worst <= band) & any_marginal, 0, v)
    out = np.full(A.shape, -2, dtype=np.int8)
    out[exists] = v
    return out


@pytest.mark.parametrize("M", [1.5, 2.0, 3.0])
def test_sign_test_sweep_matches_eigensolver_sweep(M):
    ax = cell_centered_axis(60)
    A, B = np.meshgrid(ax, ax, indexing="ij")
    for kind in (LIGHT, HEAVY):
        np.testing.assert_array_equal(
            target_verdict_grid(kind, A, B, M, m_max=32), _eigvals_verdict_grid(kind, A, B, M, 32)
        )


_rest = st.floats(-5.0, -0.05)
_imag = st.floats(0.01, 5.0)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    shape=st.sampled_from(["real", "pair"]),
    delta=st.floats(1e-13, 1e-5),
    sign=st.sampled_from([-1.0, 1.0]),
    r1=_rest,
    r2=_rest,
    y=_imag,
    other_pair=st.booleans(),
)
def test_cubic_verdict_matches_eigensolver_near_the_band(shape, delta, sign, r1, r2, y, other_pair):
    # one real root, or the real part of a complex pair, at +-delta * s
    if shape == "real":
        rest = [complex(r1, y), complex(r1, -y)] if other_pair else [r1, r2]
        roots = lambda x: [x, *rest]
    else:
        roots = lambda x: [complex(x, y), complex(x, -y), r1]
    _, c2, c1, c0 = np.poly(roots(0.0)).real
    s = 1.0 + abs(c2) + abs(c1) + abs(c0)
    _, c2, c1, c0 = np.poly(roots(sign * delta * s)).real
    assert c2 > 0.0
    c = np.array([[c2], [c1], [c0]])
    s = 1.0 + np.abs(c).sum()
    w = _eigvals_max_real(*c) / s
    band = MARGINAL_BAND
    expected = np.where(w > band, -1, np.where(w < -band, 1, 0))
    np.testing.assert_array_equal(cubic_mode_verdict(*c), expected)


@pytest.mark.parametrize("m_max", [1, 0, 2.5])
def test_target_verdict_grid_takes_the_report_m_max_rule(m_max):
    with pytest.raises(ValueError, match="m_max must be an integer >= 2"):
        target_verdict_grid(LIGHT, np.array([3.0]), np.array([3.5]), 2.0, m_max=m_max)


@pytest.mark.parametrize("kind", [EquilibriumKind.OVERLAP_LIGHT_IN, "overlap-heavy"])
def test_stability_polynomials_refuse_overlap_kinds(kind):
    # the boundary-perturbation analysis covers targets only: the polynomials and the grid
    # refuse an overlap kind as build_Q does, the grid also where the kind exists nowhere
    A, B = np.meshgrid(cell_centered_axis(20), cell_centered_axis(20))
    nowhere = existence_region_mask(kind, region_code_grid(np.array([0.25]), np.array([0.25]), 2.0))
    assert not nowhere.any()
    for call in (
        lambda: build_Q(kind, params_from_phase(3.0, 3.5, 2.0), 2),
        lambda: reduced_coefficients(kind, 3.0, 3.5, 2.0, 2),
        lambda: reduced_coefficients(kind, A, B, 2.0, 1),
        lambda: target_verdict_grid(kind, A, B, 2.0),
        lambda: target_verdict_grid(kind, np.array([0.25]), np.array([0.25]), 2.0),
    ):
        with pytest.raises(EquilibriumMissing, match="targets only"):
            call()


#: Mode-1 quadratic coefficients (lin, const) whose larger root is stable, marginal or unstable.
_QUADRATIC = {1: (2.0, 1.0), 0: (1.0, 0.0), -1: (0.0, -1.0)}
#: Scripted verdict per point (one per row) and mode (one per column, modes 1..6).
_SCRIPT = np.array(
    [
        [1, -1, 1, 1, 1, 1],  # unstable at mode 2, stable after
        [0, 0, 1, -1, 1, 1],  # marginal, then unstable at mode 4
        [1, 1, 1, 1, 1, 1],  # stable at every mode
        [-1, 1, 1, 1, 1, 1],  # unstable at mode 1
        [1, 1, 0, 1, 1, 1],  # marginal at mode 3 only
    ]
)


def test_a_point_leaves_the_mode_loop_at_its_first_unstable_mode(monkeypatch):
    # the points exist (light target, M = 2); the coefficients carry (mode, point) to the scripted verdict
    A, B = 3.0 + 0.1 * np.arange(len(_SCRIPT)), np.full(len(_SCRIPT), 3.5)
    assert existence_region_mask(LIGHT, region_code_grid(A, B, 2.0)).all()
    point = {a: i for i, a in enumerate(A.tolist())}
    passed = []

    def coefficients(kind, A, B, M, m):
        rows = [point[a] for a in A.tolist()]
        if m == 1:
            return tuple(np.array([_QUADRATIC[v] for v in _SCRIPT[rows, 0]]).T)
        return np.full(len(rows), float(m)), np.array(rows, dtype=float), np.zeros(len(rows))

    def verdict(c2, c1, c0, *, counts=None):
        m, rows = int(c2[0]), c1.astype(int)
        passed.append((m, rows.tolist()))
        return _SCRIPT[rows, m - 1]

    monkeypatch.setattr(sweeps, "reduced_coefficients", coefficients)
    monkeypatch.setattr(sweeps, "cubic_mode_verdict", verdict)
    np.testing.assert_array_equal(target_verdict_grid(LIGHT, A, B, 2.0, 6), [-1, -1, 1, -1, 0])
    # after its first -1 a point is never passed again; marginal and stable points stay in
    assert passed == [(2, [0, 1, 2, 4]), (3, [1, 2, 4]), (4, [1, 2, 4]), (5, [2, 4]), (6, [2, 4])]

    passed.clear()
    np.testing.assert_array_equal(target_verdict_grid(LIGHT, A, B, 2.0, 2), [-1, 0, 1, -1, 1])
    assert passed == [(2, [0, 1, 2, 4])]


@pytest.mark.parametrize("M, heavy, light", [(1.5, 11_431, 13_763), (3.0, 8_793, 15_014)])
def test_sweep_counts_follow_the_paper_stability_facts(M, heavy, light):
    # the heavy-inside target is unstable at mode 1 or 2 wherever it exists, so its cubic work is
    # mode 2 alone; light-inside points that pass mode 1 are stable at every mode up to m_max
    ax = cell_centered_axis(200)
    A, B = np.meshgrid(ax, ax, indexing="ij")
    for m_max in (2, 32):
        counts = SweepCounts()
        verdict = target_verdict_grid(HEAVY, A, B, M, m_max, counts=counts)
        assert counts == SweepCounts(cubic_evals=heavy, eigensolves=0)
        assert not np.any(verdict == 1)
    counts = SweepCounts()
    verdict = target_verdict_grid(LIGHT, A, B, M, 32, counts=counts)
    assert np.count_nonzero(verdict == 1) == light
    assert counts == SweepCounts(cubic_evals=31 * light, eigensolves=0)
