"""Command-line interface: region queries, equilibria, spectra, runs, and plots.

Every subcommand accepts parameters through flags or a JSON config file
(flags override the file).  Results go to stdout as JSON; bulk numeric output
goes to CSV files; plots to dependency-free SVG.  A metadata record (config
hash, version, wall time, the wall time of each stage of the command, ending
with ``write``; for ``simulate`` and each of ``weakcross``'s overlay runs also
the run counters) is printed to stderr for every run.  Exit code 2 flags
configuration errors (a flag outside its domain is refused when the command
line is parsed) and failed writes, 3 numerical failures, a floating-point
overflow, division by zero or invalid operation among them (with the error
name in a JSON record on stderr).

The contract is kept in one place, ``main``: a command computes its stdout
record and the files to write, and ``main`` serializes the record, writes
all of the files or none, then prints the record, so a command that fails
prints nothing to stdout and leaves no file behind.  Only a failure to write
stdout itself comes after the files.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .equilibria import EquilibriumKind, build_equilibrium
from .errors import SwarmEqError
from .linear_stability import DEFAULT_M_MAX, checked_m_max, stability_report
from .model import (
    BOUNDARY,
    InteractionParams,
    RegionId,
    classify_region,
    curve_c1,
    curve_c2,
    to_phase_point,
)
from .output import SvgPlot, config_hash, fmt_value, json_canonical, write_csv
from .particles import (
    check_morphology_counts,
    init_from_equilibrium,
    init_random_disk,
    morphology,
    run,
)
from .sweeps import (
    SweepCounts,
    cell_centered_axis,
    existence_region_mask,
    region_code_grid,
    target_verdict_grid,
)
from .variational import lambda_profile
from .weak_cross import curve_sample, d_of_ab_ratio

_REGION_NAMES = {BOUNDARY: "Boundary", **{r.code: r.value for r in RegionId if not r.is_boundary}}

_REGION_COLORS = {
    0: "#222222",
    1: "#aec7e8",
    2: "#ffbb78",
    3: "#98df8a",
    4: "#ff9896",
    5: "#c5b0d5",
    6: "#c49c94",
}


def read_config(text: str) -> tuple[str, dict]:
    """(command, {flag name: value}) of a config file: the flat JSON object ``{"command": ..., <flag>: value, ...}``."""
    data = json.loads(text)
    if not isinstance(data, dict) or not isinstance(data.get("command"), str):
        raise ValueError('a config file must be a JSON object with a "command" string')
    return data.pop("command"), data


def add_param_flags(sub):
    sub.add_argument("-A", type=float, help="cross/self repulsion ratio (shorthand params)")
    sub.add_argument("-B", type=float, help="cross/self attraction ratio (shorthand params)")
    sub.add_argument("-M", type=float, help="mass ratio M1/M2 (shorthand params)")
    sub.add_argument("--a-s", dest="a_s", type=float)
    sub.add_argument("--a-c", dest="a_c", type=float)
    sub.add_argument("--b-s", dest="b_s", type=float)
    sub.add_argument("--b-c", dest="b_c", type=float)
    sub.add_argument("--M1", type=float)
    sub.add_argument("--M2", type=float)
    sub.add_argument("--eta", type=float, default=None)


def resolve_params(ns) -> InteractionParams:
    """Physical parameters from full coefficients or the (A, B, M) shorthand."""
    eta = ns.eta if ns.eta is not None else 1.0
    full = [ns.a_s, ns.a_c, ns.b_s, ns.b_c, ns.M1, ns.M2]
    if all(v is not None for v in full):
        return InteractionParams(*full, eta=eta)
    if any(v is not None for v in full):
        raise ValueError("give all of --a-s/--a-c/--b-s/--b-c/--M1/--M2, or use -A/-B/-M")
    if ns.A is None or ns.B is None or ns.M is None:
        raise ValueError("parameters required: either -A/-B/-M or the full coefficient set")
    return InteractionParams(
        a_s=1.0, a_c=ns.A, b_s=1.0, b_c=ns.B, M1=ns.M, M2=1.0, eta=eta
    )


class _Stages:
    """Wall time of each named stage of a command, for its metadata record."""

    def __init__(self):
        self.seconds = {}
        self._clock = time.perf_counter()

    def done(self, name):
        """End stage ``name`` (timed from the end of the previous one) and start the next."""
        now = time.perf_counter()
        self.seconds[name] = now - self._clock
        self._clock = now

    def record(self) -> dict:
        return {"stages_s": {name: round(seconds, 6) for name, seconds in self.seconds.items()}}


def _write_all(writes):
    """Call ``write(path, *args)`` for each ``(write, path, *args)`` in turn: all of a command's files or none.

    If one call raises OSError or MemoryError, the files already written are
    removed and the error propagates (exit 2).
    """
    written = []
    try:
        for write, path, *args in writes:
            write(path, *args)
            written.append(path)
    except (OSError, MemoryError):
        for path in written:
            Path(path).unlink(missing_ok=True)
        raise


# Each command takes the parsed flags and the stage timer and returns (its stdout record, the
# (write, path, *args) list of its files, extra metadata fields); ``main`` does the rest.


def cmd_region(ns, stages):
    q = to_phase_point(resolve_params(ns))
    return {"A": q.A, "B": q.B, "M": q.M, "region": classify_region(q).value}, [], {}


def cmd_equilibrium(ns, stages):
    p = resolve_params(ns)
    cfg = build_equilibrium(ns.kind, p)
    record = {
        "kind": cfg.kind.value,
        "exists": cfg.exists,
        "reason": cfg.reason,
        "boundary_degenerate": cfg.boundary_degenerate,
        # a state that does not exist can have an undefined radius: null, not the invalid NaN
        "radii": [r if math.isfinite(r) else None for r in cfg.radii],
        "densities": [list(d) for d in cfg.densities],
        "region": classify_region(to_phase_point(p)).value,
    }
    return record, [], {}


def cmd_lambda(ns, stages):
    p = resolve_params(ns)
    cfg = build_equilibrium(ns.kind, p)
    prof1 = lambda_profile(cfg, 1)
    prof2 = lambda_profile(cfg, 2)
    r_max = ns.r_max if ns.r_max is not None else 3.0 * cfg.outermost_radius
    rs = np.linspace(0.0, r_max, ns.n_samples)
    vals1 = [prof1.value(r) for r in rs]
    vals2 = [prof2.value(r) for r in rs]
    rows = [(float(r), float(v1), float(v2)) for r, v1, v2 in zip(rs, vals1, vals2)]
    writes = []
    if ns.out_csv:
        writes.append((write_csv, ns.out_csv, ("r", "Lambda1", "Lambda2"), rows))
    if ns.out_svg:
        plot = SvgPlot((0.0, r_max), _lambda_y_range(vals1 + vals2))
        plot.axes("r", "Lambda")
        plot.polyline(rs, vals1, color="#1f77b4")
        plot.polyline(rs, vals2, color="#d62728")
        writes.append((plot.save, ns.out_svg))
    record = {
        "kind": cfg.kind.value,
        "plateau1": prof1.plateau,
        "plateau2": prof2.plateau,
        "breakpoints": list(prof1.breakpoints),
        "csv": ns.out_csv or "",
    }
    return record, writes, {}


def _lambda_y_range(vals):
    lo, hi = min(vals), max(vals)
    pad = 0.05 * (hi - lo + 1e-12)
    return (lo - pad, hi + pad)


def cmd_stability(ns, stages):
    p = resolve_params(ns)
    report = stability_report(ns.kind, p, ns.m_max)
    stages.done("report")
    writes = []
    if ns.out_csv:
        rows = [
            (ms.m, k, float(lam.real), float(lam.imag), ms.verdict)
            for ms in report.modes
            for k, lam in enumerate(np.sort_complex(ms.nontrivial))
        ]
        writes.append((write_csv, ns.out_csv, ("mode", "k", "re", "im", "verdict"), rows))
    record = {
        "kind": report.kind.value,
        "m_max": report.m_max,
        "overall": report.overall,
        "dominant_unstable_mode": report.dominant_unstable_mode,
        "per_mode": {str(s.m): s.verdict for s in report.modes},
        "guarantee": report.guarantee,
    }
    return record, writes, {"worst_crosscheck_margin": report.worst_crosscheck_margin}


#: Snapshots ``simulate`` accepts; every one is held in memory until the CSV is written.
MAX_SNAPSHOTS = 10_000

#: ``RunDiagnostics`` counters in the stderr metadata record, for ``simulate`` and each overlay run of ``weakcross``.
_RUN_COUNTERS = (
    "force_evals", "accepted_steps", "rejected_steps", "dt_min", "dt_max", "closest_pair_ratio",
    "max_stiffness", "max_energy_rise", "max_com_drift",
)


def _run_counters(diag) -> dict:
    return {key: getattr(diag, key) for key in _RUN_COUNTERS}


def _write_snapshot(rows, state):
    """Append the CSV rows of one snapshot as text, its time formatted once."""
    t = fmt_value(float(state.t))
    for species, pos in ((1, state.pos1), (2, state.pos2)):
        rows.extend(f"{t},{species},{i},{x!r},{y!r}" for i, (x, y) in enumerate(pos.tolist()))


def cmd_simulate(ns, stages):
    if ns.t_end > MAX_SNAPSHOTS * ns.snapshot_every:
        raise ValueError(
            f"--t-end {ns.t_end} over --snapshot-every {ns.snapshot_every} gives more than {MAX_SNAPSHOTS} snapshots"
        )
    p = resolve_params(ns)
    if ns.init == "equilibrium":
        cfg = build_equilibrium(ns.kind, p)
        state = init_from_equilibrium(cfg, ns.N1, ns.N2, ns.seed)
    else:
        state = init_random_disk(p, ns.N1, ns.N2, ns.radius, ns.seed)
    # the final morphology needs enough particles; fail before any file is written
    check_morphology_counts(state)
    stages.done("init")

    # snapshots at every k * snapshot_every below t_end (a product, so no rounding
    # piles up), then at t_end, all from one integration
    every = [k * ns.snapshot_every for k in range(1, math.ceil(ns.t_end / ns.snapshot_every))]
    stops = [t for t in every if t < ns.t_end] + [ns.t_end]
    start = state
    state, diag = run(state, ns.t_end, stops=stops, record_interval=ns.record_interval)
    stages.done("run")

    snapshot_rows: list = []
    for snap in [start, *diag.stop_states]:
        _write_snapshot(snapshot_rows, snap)
    diag_rows = [
        (t, e, c[0], c[1], d_over_R, speed)
        for t, e, c, d_over_R, speed in zip(diag.t, diag.energy, diag.com_total, diag.d_over_R, diag.max_speed)
    ]
    writes = [
        (write_csv, f"{ns.out}_snapshots.csv", ("t", "species", "particle_id", "x", "y"), snapshot_rows),
        (write_csv, f"{ns.out}_diagnostics.csv", ("t", "E", "com_x", "com_y", "d_over_R", "max_speed"), diag_rows),
    ]
    record = {
        "t_end": state.t,
        "morphology": asdict(morphology(state)),
        "snapshots": f"{ns.out}_snapshots.csv",
        "diagnostics": f"{ns.out}_diagnostics.csv",
    }
    return record, writes, {"run": _run_counters(diag)}


def _overlay_counts(n_total, mass_ratio):
    """Particle counts (n1, n2) of an overlay run, split in proportion to the masses."""
    n2 = round(n_total / (1.0 + mass_ratio))
    return n_total - n2, n2


def _overlay_point(ratio, mass_ratio, eta, n_total, t_end, seed):
    """Diagnostics of a long particle run at one A/B ratio (unit self-coefficients)."""
    n1, n2 = _overlay_counts(n_total, mass_ratio)
    p = InteractionParams(
        a_s=1.0, a_c=ratio, b_s=1.0, b_c=1.0, M1=mass_ratio, M2=1.0, eta=eta
    )
    state = init_random_disk(p, n1, n2, 1.0, seed=seed)
    return run(state, t_end, record_interval=t_end / 10.0)[1]


def cmd_weakcross(ns, stages):
    if ns.ratio is not None:
        s = d_of_ab_ratio(ns.ratio)
        stages.done("curve")
        return asdict(s), [], {}
    ratios = _ratio_list(ns.overlay_ratios)
    if ratios and min(_overlay_counts(ns.overlay_N, ns.overlay_M)) < 1:
        raise ValueError(
            f"--overlay-N {ns.overlay_N} leaves a species without particles at --overlay-M {ns.overlay_M}"
        )
    samples = curve_sample(ns.ratio_min, ns.ratio_max, ns.n_points)
    rows = [(s.ratio_AB, s.d_over_R, s.regime, s.residual) for s in samples]
    stages.done("curve")
    overlay_rows, overlay_runs = [], []
    if ratios:
        for k, ratio in enumerate(ratios):
            diag = _overlay_point(
                ratio, ns.overlay_M, ns.overlay_eta, ns.overlay_N, ns.overlay_t_end,
                seed=ns.seed + k,
            )
            # the last record is the final state's; the offset is relative to the leading-order d/R
            d_sim, d_theory = diag.d_over_R[-1], d_of_ab_ratio(ratio).d_over_R
            overlay_rows.append((ratio, ns.overlay_M, d_sim))
            offset = (d_sim - d_theory) / d_theory if d_theory > 0.0 else None
            overlay_runs.append({**_run_counters(diag), "d_theory": d_theory, "d_offset": offset})
        stages.done("overlay")
    writes = []
    if ns.out_csv:
        writes.append((write_csv, ns.out_csv, ("ratio_AB", "d_over_R", "regime", "residual"), rows))
    if ratios and ns.overlay_csv:
        writes.append((write_csv, ns.overlay_csv, ("ratio_AB", "mass_ratio", "d_over_R_sim"), overlay_rows))
    if ns.out_svg:
        plot = SvgPlot(
            (ns.ratio_min, ns.ratio_max),
            (0.0, max(s.d_over_R for s in samples) * 1.1 + 1e-9),
        )
        plot.axes("A/B", "d/R")
        plot.polyline([s.ratio_AB for s in samples], [s.d_over_R for s in samples])
        for ratio, _, sim in overlay_rows:
            plot.circle(ratio, sim, radius_px=3.0)
        writes.append((plot.save, ns.out_svg))
    record = {
        "n_points": len(samples),
        "ratio_range": [ns.ratio_min, ns.ratio_max],
        "csv": ns.out_csv or "",
        "overlay": [list(r) for r in overlay_rows],
    }
    return record, writes, {"overlay_runs": overlay_runs} if overlay_runs else {}


def cmd_phase_diagram(ns, stages):
    ax = cell_centered_axis(ns.grid, 0.0, ns.extent)
    A, B = np.meshgrid(ax, ax, indexing="ij")
    codes = region_code_grid(A, B, ns.M)
    counts = {kind: SweepCounts() for kind in (EquilibriumKind.TARGET_LIGHT_IN, EquilibriumKind.TARGET_HEAVY_IN)}
    verdict_light, verdict_heavy = (
        target_verdict_grid(kind, A, B, ns.M, ns.m_max, counts=kind_counts) for kind, kind_counts in counts.items()
    )
    stages.done("sweep")
    writes = []
    if ns.out_csv:
        header = (
            "A",
            "B",
            "region",
            "exists_target_light",
            "exists_target_heavy",
            "exists_overlap_light",
            "exists_overlap_heavy",
            "verdict_target_light",
            "verdict_target_heavy",
        )
        writes.append((write_csv, ns.out_csv, header, _phase_rows(ax, codes, verdict_light, verdict_heavy)))
    if ns.out_svg:
        writes.append((_phase_svg(ns, ax, codes).save, ns.out_svg))
    record = {"grid": ns.grid, "M": ns.M, "csv": ns.out_csv or "", "svg": ns.out_svg or ""}
    return record, writes, {"sweep_counts": {kind.value: asdict(c) for kind, c in counts.items()}}


def _phase_rows(ax, codes, verdict_light, verdict_heavy):
    """The phase diagram's CSV rows as text, row-major over (A, B).

    A and B take only the axis values, and the other columns depend only on
    (region code, light verdict, heavy verdict), so each axis value and each
    distinct key is formatted once.  The existence columns follow
    EquilibriumKind's order.
    """
    axis = [fmt_value(x) for x in ax.tolist()]
    codes, light, heavy = (np.ravel(x) for x in (codes, verdict_light, verdict_heavy))
    # verdicts lie in -2..1
    key = (codes.astype(np.int64) * 4 + light + 2) * 4 + heavy + 2
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    masks = [existence_region_mask(kind, codes[first]).tolist() for kind in EquilibriumKind]
    tails = [
        ",".join(map(fmt_value, (_REGION_NAMES[code], *rest)))
        for code, *rest in zip(codes[first].tolist(), *masks, light[first].tolist(), heavy[first].tolist())
    ]
    for a, row_keys in zip(axis, inverse.reshape(len(axis), len(axis)).tolist()):
        for b, k in zip(axis, row_keys):
            yield f"{a},{b},{tails[k]}"


def _phase_svg(ns, ax, codes) -> SvgPlot:
    plot = SvgPlot((0.0, ns.extent), (0.0, ns.extent))
    d = ax[1] - ax[0] if len(ax) > 1 else ns.extent
    plot.cells(ax, ax, d, d, [[_REGION_COLORS[code] for code in column] for column in codes.tolist()])
    bs = np.linspace(1e-3, ns.extent, 400)
    plot.polyline(curve_c1(bs, ns.M), bs, color="#000000", width=2.0)
    plot.polyline(curve_c2(bs, ns.M), bs, color="#000000", width=2.0)
    plot.polyline([0.0, ns.extent], [0.0, ns.extent], color="#000000", width=2.0)
    plot.axes("A", "B")
    return plot


def _flag_type(convert, inside, domain):
    """An argparse ``type=`` that converts a flag's text and checks it against the flag's domain.

    A text that ``convert`` rejects, or a value that ``inside`` rejects, is
    refused with a message naming ``domain``; argparse prefixes the flag's
    name, and ``main`` reports it with exit 2 before any command runs.
    """

    def parse(text):
        try:
            value = convert(text)
            ok = inside(value)
        except ValueError:
            ok = False
        if not ok:
            raise argparse.ArgumentTypeError(f"must be {domain}, got {text!r}")
        return value

    return parse


_POSITIVE = _flag_type(float, lambda x: 0.0 < x < math.inf, "finite and > 0")
_AT_LEAST_ONE = _flag_type(float, lambda x: 1.0 <= x < math.inf, "finite and >= 1")
_COUNT = _flag_type(int, lambda n: n >= 1, ">= 1")
_SEED = _flag_type(int, lambda n: n >= 0, "an integer >= 0")
# the rule of reports and sweeps: checked_m_max raises ValueError below 2 and returns the value otherwise
_M_MAX = _flag_type(int, checked_m_max, "an integer >= 2")


def _ratio_list(text):
    """The values of ``--overlay-ratios``; an empty or absent list asks for no overlay runs."""
    return [float(r) for r in text.split(",")] if text else []


# kept as the string, so that the config hash records the flag as given
_RATIO_LIST = _flag_type(
    str, lambda text: all(0.0 < r < math.inf for r in _ratio_list(text)), "a comma-separated list of finite values > 0"
)


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a malformed command line as a ValueError (exit 2 with the JSON record), not SystemExit."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="swarm-eq",
        description="Two-species swarm equilibria: existence, stability, dynamics.",
    )
    parser.add_argument("--config", help="JSON config file; explicit flags override it")
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("region", help="classify a phase point into D1..D6 or a boundary")
    add_param_flags(s)
    s.set_defaults(func=cmd_region)

    for name, fn in (
        ("equilibrium", cmd_equilibrium),
        ("lambda", cmd_lambda),
        ("stability", cmd_stability),
    ):
        s = sub.add_parser(name)
        add_param_flags(s)
        s.add_argument(
            "--kind",
            required=True,
            choices=[k.value for k in EquilibriumKind],
        )
        if name == "lambda":
            s.add_argument("--r-max", dest="r_max", type=_POSITIVE, default=None)
            s.add_argument("--n-samples", dest="n_samples", type=_COUNT, default=400)
            s.add_argument("--out-csv", dest="out_csv", default=None)
            s.add_argument("--out-svg", dest="out_svg", default=None)
        if name == "stability":
            s.add_argument("--m-max", dest="m_max", type=_M_MAX, default=DEFAULT_M_MAX)
            s.add_argument("--out-csv", dest="out_csv", default=None)
        s.set_defaults(func=fn)

    s = sub.add_parser("simulate", help="integrate the particle system")
    add_param_flags(s)
    s.add_argument("--init", choices=("random", "equilibrium"), default="random")
    s.add_argument("--kind", choices=[k.value for k in EquilibriumKind], default="target-light")
    s.add_argument("--N1", type=int, default=100)
    s.add_argument("--N2", type=int, default=100)
    s.add_argument("--seed", type=_SEED, default=0)
    s.add_argument("--radius", type=float, default=1.0)
    s.add_argument("--t-end", dest="t_end", type=_POSITIVE, default=50.0)
    s.add_argument("--snapshot-every", dest="snapshot_every", type=_flag_type(float, lambda x: x > 0.0, "> 0"),
                   default=10.0)
    s.add_argument("--record-interval", dest="record_interval", type=_POSITIVE, default=None)
    s.add_argument("--out", default="run")
    s.set_defaults(func=cmd_simulate)

    s = sub.add_parser("weakcross", help="species separation vs A/B")
    s.add_argument("--ratio", type=float, default=None)
    s.add_argument("--ratio-min", dest="ratio_min", type=float, default=0.5)
    s.add_argument("--ratio-max", dest="ratio_max", type=float, default=8.0)
    s.add_argument("--n-points", dest="n_points", type=_COUNT, default=50)
    s.add_argument("--out-csv", dest="out_csv", default=None)
    s.add_argument("--out-svg", dest="out_svg", default=None)
    s.add_argument(
        "--overlay-ratios",
        dest="overlay_ratios",
        type=_RATIO_LIST,
        default=None,
        help="comma-separated A/B values at which to overlay particle estimates",
    )
    s.add_argument("--overlay-csv", dest="overlay_csv", default=None)
    s.add_argument("--overlay-M", dest="overlay_M", type=_AT_LEAST_ONE, default=2.0)
    s.add_argument("--overlay-eta", dest="overlay_eta", type=_flag_type(float, lambda x: 0.0 < x <= 1.0, "in (0, 1]"),
                   default=0.05)
    s.add_argument("--overlay-N", dest="overlay_N", type=int, default=200)
    s.add_argument("--overlay-t-end", dest="overlay_t_end", type=_POSITIVE, default=3000.0)
    s.add_argument("--seed", type=_SEED, default=0)
    s.set_defaults(func=cmd_weakcross)

    s = sub.add_parser("phase-diagram", help="sweep an (A, B) grid")
    s.add_argument("-M", type=_AT_LEAST_ONE, default=2.0)
    s.add_argument("--grid", type=_COUNT, default=100)
    s.add_argument("--extent", type=_POSITIVE, default=5.0)
    s.add_argument("--m-max", dest="m_max", type=_M_MAX, default=DEFAULT_M_MAX)
    s.add_argument("--out-csv", dest="out_csv", default=None)
    s.add_argument("--out-svg", dest="out_svg", default=None)
    s.set_defaults(func=cmd_phase_diagram)

    return parser


def _apply_config_file(argv):
    """Use config-file entries as defaults for the chosen subcommand.

    An entry whose flag also appears on the command line is dropped, so the
    explicit flag wins and the file's value is not parsed at all.  Any other
    entry must hold a number or a string, the flag's one value; a boolean,
    null, list or object is refused.
    """
    if "--config" not in argv:
        return argv
    idx = argv.index("--config")
    if idx + 1 == len(argv):
        raise ValueError("--config needs a path")
    path = argv[idx + 1]
    with open(path) as fh:
        command, values = read_config(fh.read())
    rest = [a for k, a in enumerate(argv) if k not in (idx, idx + 1)]
    if not rest or rest[0] != command:
        rest = [command] + rest
    given = {a.split("=", 1)[0] for a in rest}
    extra = []
    for key, value in sorted(values.items()):
        flag = "--" + key.replace("_", "-") if len(key) > 1 else "-" + key
        if flag in given:
            continue
        # every flag takes one value, which a command line spells as a number or a string
        if isinstance(value, bool) or not isinstance(value, (int, float, str)):
            raise ValueError(f"argument {flag}: a config entry must be a number or a string, got {json.dumps(value)}")
        extra.extend([flag, str(value)])
    return [rest[0]] + extra + rest[1:]


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    start = time.time()
    try:
        ns = parser.parse_args(_apply_config_file(argv))
        config = {
            k: v
            for k, v in vars(ns).items()
            if k not in ("func", "config") and v is not None
        }
        stages = _Stages()
        # a floating-point overflow, division by zero or invalid operation is a numerical failure
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            record, writes, extra = ns.func(ns, stages)
            text = json_canonical(record) + "\n"
            # the record goes to stdout only once every file is written
            _write_all(writes)
        sys.stdout.write(text)
        stages.done("write")
    except (SwarmEqError, ArithmeticError, ValueError, OSError, MemoryError) as exc:
        # a request too large for memory is a configuration error; numpy raises a private subclass
        error = "MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__
        sys.stderr.write(json_canonical({"error": error, "message": str(exc)}) + "\n")
        return 3 if isinstance(exc, (SwarmEqError, ArithmeticError)) else 2
    meta = {
        "config_hash": config_hash(config),
        "version": __version__,
        "wall_time_s": round(time.time() - start, 6),
        **extra,
        **stages.record(),
    }
    sys.stderr.write(json_canonical(meta) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
