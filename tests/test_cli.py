import contextlib
import dataclasses
import io
import itertools
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from conftest import params_from_phase
from swarm_eq import cli, particles
from swarm_eq.cli import main
from swarm_eq.equilibria import EquilibriumKind, existence_region_mask
from swarm_eq.model import curve_c1, curve_c2, region_code_grid
from swarm_eq.output import SvgPlot, fmt_value, write_csv
from swarm_eq.particles import ParticleState, init_random_disk, run
from swarm_eq.sweeps import cell_centered_axis, target_verdict_grid
from swarm_eq.weak_cross import d_of_ab_ratio


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def last_json(out):
    return json.loads(out.strip().splitlines()[-1])


def test_region_example(capsys):
    code, out, err = run_cli(capsys, "region", "-A", "1", "-B", "1", "-M", "2")
    assert code == 0
    assert last_json(out)["region"] == "TriplePoint"
    assert "config_hash" in json.loads(err.strip().splitlines()[-1])


def test_stability_example(capsys):
    code, out, _ = run_cli(
        capsys, "stability", "--kind", "target-light", "-A", "3", "-B", "3.5",
        "-M", "2", "--m-max", "32",
    )
    assert code == 0
    payload = last_json(out)
    assert payload["overall"] == "stable"
    assert payload["per_mode"]["1"] == "stable"


def test_weakcross_example(capsys):
    code, out, _ = run_cli(capsys, "weakcross", "--ratio", "6")
    assert code == 0
    assert last_json(out)["d_over_R"] == pytest.approx(2.4495, abs=1e-4)


def test_equilibrium_command(capsys):
    code, out, _ = run_cli(
        capsys, "equilibrium", "--kind", "target-light", "-A", "3", "-B", "3.5", "-M", "2"
    )
    assert code == 0
    payload = last_json(out)
    assert payload["exists"] is True
    assert payload["radii"][0] == pytest.approx(math.sqrt(1.0 / 8.0))
    assert payload["region"] == "D4"


def test_lambda_emission(tmp_path, capsys):
    csv = tmp_path / "lam.csv"
    svg = tmp_path / "lam.svg"
    code, out, _ = run_cli(
        capsys, "lambda", "--kind", "target-light", "-A", "3", "-B", "3.5", "-M", "2",
        "--out-csv", str(csv), "--out-svg", str(svg), "--n-samples", "50",
    )
    assert code == 0
    lines = csv.read_text().splitlines()
    assert lines[0] == "r,Lambda1,Lambda2"
    assert len(lines) == 51
    assert svg.read_text().startswith("<svg")
    # float fields round-trip exactly
    r, l1, l2 = lines[7].split(",")
    assert repr(float(l1)) == l1


def test_exit_code_config_error(capsys):
    code, _, err = run_cli(capsys, "equilibrium", "--kind", "target-light", "-A", "3")
    assert code == 2
    assert json.loads(err.strip().splitlines()[-1])["error"] == "ValueError"


def strict_json(text):
    """json.loads that rejects NaN and Infinity, which are not JSON."""

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("argv", [["--ratio", "inf"], ["--ratio", "nan"], ["--ratio-max", "inf"]])
def test_weakcross_non_finite_ratio_is_out_of_range(capsys, argv):
    code, out, err = run_cli(capsys, "weakcross", *argv)
    assert code == 3 and out == ""
    assert json.loads(err.strip().splitlines()[-1])["error"] == "OutOfRange"


def test_a_request_too_large_for_memory_is_a_config_error(tmp_path, capsys):
    # a 10^7 x 10^7 grid asks for 728 TiB, beyond any address space, so no memory is touched
    code, out, err = run_cli(
        capsys, "phase-diagram", "-M", "2", "--grid", "10000000",
        "--out-csv", str(tmp_path / "pd.csv"), "--out-svg", str(tmp_path / "pd.svg"),
    )
    assert code == 2 and out == ""
    assert json.loads(err.strip().splitlines()[-1])["error"] == "MemoryError"
    assert list(tmp_path.iterdir()) == []


def test_stability_of_an_overlap_kind_names_the_kind(capsys):
    code, out, err = run_cli(capsys, "stability", "--kind", "overlap-light", "-A", "2", "-B", "1", "-M", "2")
    assert code == 3 and out == ""
    record = json.loads(err.strip().splitlines()[-1])
    assert record["error"] == "EquilibriumMissing"
    assert record["message"].endswith("covers targets only, not overlap-light")


def test_equilibrium_undefined_radius_is_null(capsys):
    # the coexistence radius of this overlap state is undefined, and the state does not exist
    code, out, _ = run_cli(
        capsys, "equilibrium", "--kind", "overlap-light",
        "-A", "2.3328814478582065", "-B", "5.9833991179458055", "-M", "4.92334135510492",
    )
    assert code == 0
    payload = strict_json(out.strip())
    assert payload["exists"] is False
    assert payload["radii"][0] is None and payload["radii"][1] == pytest.approx(0.8156, abs=1e-4)


@pytest.mark.parametrize(
    "params",
    [
        ["-A", "2", "-B", "1", "-M", "2", "--eta", "0.5"],
        ["--a-s", "1", "--a-c", "2", "--b-s", "1", "--b-c", "1", "--M1", "2", "--M2", "1"],
    ],
    ids=["eta", "full-set"],
)
def test_region_reads_the_phase_point_of_every_parameter_form(capsys, params):
    # region takes the parameters every command takes and classifies the phase point after --eta,
    # the point whose region equilibrium reports
    code, out, _ = run_cli(capsys, "region", *params)
    assert code == 0
    record = last_json(out)
    code, out, _ = run_cli(capsys, "equilibrium", "--kind", "target-light", *params)
    assert code == 0
    assert record["region"] == last_json(out)["region"]
    eta = 0.5 if "--eta" in params else 1.0
    assert (record["A"], record["B"], record["M"]) == (2.0 * eta, 1.0 * eta, 2.0)


@pytest.mark.parametrize("flag", ["-A", "-B", "-M"])
def test_region_rejects_an_infinite_coordinate(capsys, flag):
    values = {"-A": "3", "-B": "3.5", "-M": "2", flag: "inf"}
    code, out, err = run_cli(capsys, "region", *itertools.chain(*values.items()))
    assert code == 2 and out == ""
    assert json.loads(err.strip().splitlines()[-1])["error"] == "ValueError"


@pytest.mark.parametrize("kind", ["target-light", "target-heavy", "overlap-heavy"])
def test_lambda_non_finite_plateau_is_a_numerical_error(tmp_path, capsys, kind):
    # the Lambda coefficients overflow while the breakpoints (~1e-150) stay finite
    code, out, err = run_cli(
        capsys, "lambda", "--kind", kind, "-A", "3", "-B", "1e300", "-M", "2", "--out-csv", str(tmp_path / "l.csv"),
    )
    assert code == 3 and out == ""
    assert json.loads(err.strip().splitlines()[-1])["error"] == "NonFiniteResult"
    assert not list(tmp_path.iterdir())


def test_exit_code_numerical_error(capsys):
    # D1 point: the target does not exist -> EquilibriumMissing -> exit 3
    code, _, err = run_cli(
        capsys, "stability", "--kind", "target-light", "-A", "0.4", "-B", "0.2", "-M", "2"
    )
    assert code == 3
    assert json.loads(err.strip().splitlines()[-1])["error"] == "EquilibriumMissing"



def test_stability_non_nested_modes_exit_3_and_write_nothing(tmp_path, capsys, monkeypatch):
    # mode 3 unstable above a stable mode 2 breaks nesting; stability_report raises before anything is written
    from swarm_eq import linear_stability

    exact = linear_stability.mode_spectrum

    def non_nested(kind, p, m):
        spectra = exact(kind, p, m)
        return tuple(dataclasses.replace(s, verdict="unstable") if s.m == 3 else s for s in spectra)

    monkeypatch.setattr(linear_stability, "mode_spectrum", non_nested)
    code, out, err = run_cli(
        capsys, "stability", "--kind", "target-light", "-A", "3", "-B", "3.5", "-M", "2",
        "--out-csv", str(tmp_path / "modes.csv"),
    )
    assert code == 3
    record = json.loads(err.strip().splitlines()[-1])
    assert record["error"] == "SpectrumMismatch"
    assert "mode 2 is stable and mode 3 unstable" in record["message"]
    assert out == ""
    assert list(tmp_path.iterdir()) == []

def test_simulate_determinism(tmp_path, capsys):
    args = [
        "simulate", "--init", "equilibrium", "--kind", "target-light",
        "-A", "3", "-B", "3.5", "-M", "2", "--N1", "40", "--N2", "20",
        "--seed", "5", "--t-end", "2.0", "--snapshot-every", "1.0",
    ]
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert run_cli(capsys, *args, "--out", str(out_a))[0] == 0
    assert run_cli(capsys, *args, "--out", str(out_b))[0] == 0
    for suffix in ("_snapshots.csv", "_diagnostics.csv"):
        assert (
            (tmp_path / ("a" + suffix)).read_bytes()
            == (tmp_path / ("b" + suffix)).read_bytes()
        )
    # snapshot rows round-trip bit-exactly through float parsing
    lines = (tmp_path / "a_snapshots.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header == ["t", "species", "particle_id", "x", "y"]
    for line in lines[1:5]:
        t, species, pid, x, y = line.split(",")
        assert fmt_value(float(x)) == x
        assert fmt_value(float(y)) == y


def test_snapshot_csv_matches_a_float_repr_reference(tmp_path):
    values = [0.1, -0.0, 5e-324, 1e300, 1.0 / 3.0, -2.5e-17, 123456789.125, 2.0**-1074 * 3]
    pos1 = np.array(values).reshape(-1, 2)
    pos2 = -np.arange(6, dtype=float).reshape(-1, 2) / 7.0
    params = params_from_phase(3, 3.5)
    times = (0.0, 0.30000000000000004, np.float64(0.30000000000000004))
    states = [ParticleState(np.concatenate([pos1, pos2]), len(pos1), params, t=t) for t in times]
    # a state handed back at one of run's stops
    states += run(init_random_disk(params, 3, 2, 1.0, seed=1), 0.5, stops=[1.0 / 3.0])[1].stop_states
    rows = []
    for state in states:
        cli._write_snapshot(rows, state)
    path = tmp_path / "s.csv"
    write_csv(path, ("t", "species", "particle_id", "x", "y"), rows)
    expected = ["t,species,particle_id,x,y"]
    for state in states:
        for species, pos in ((1, state.pos1), (2, state.pos2)):
            for i, (x, y) in enumerate(pos):
                expected.append(f"{float(state.t)!r},{species},{i},{float(x)!r},{float(y)!r}")
    assert path.read_bytes() == ("\n".join(expected) + "\n").encode()
    assert b"\n0.3333333333333333,2,1," in path.read_bytes()


def _snapshot_times(path):
    return sorted({float(line.split(",")[0]) for line in path.read_text().splitlines()[1:]})


@pytest.mark.parametrize(
    "t_end, every, expected",
    [("5", "2", [0.0, 2.0, 4.0, 5.0]), ("5", "7", [0.0, 5.0])],
)
def test_simulate_snapshot_schedule_ends_at_t_end(tmp_path, capsys, t_end, every, expected):
    code, out, _ = run_cli(
        capsys, "simulate", "-A", "3", "-B", "3.5", "-M", "2", "--N1", "20", "--N2", "10",
        "--seed", "1", "--t-end", t_end, "--snapshot-every", every, "--out", str(tmp_path / "s"),
    )
    assert code == 0
    assert last_json(out)["t_end"] == pytest.approx(5.0, abs=1e-12)
    times = _snapshot_times(tmp_path / "s_snapshots.csv")
    np.testing.assert_allclose(times, expected, rtol=0.0, atol=1e-12)


def test_simulate_snapshots_land_exactly_on_targets(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "-A", "3", "-B", "3.5", "-M", "2", "--N1", "20", "--N2", "10",
        "--seed", "1", "--t-end", "5", "--snapshot-every", "2", "--out", str(tmp_path / "s"),
    )
    assert code == 0
    assert last_json(out)["t_end"] == 5.0
    assert _snapshot_times(tmp_path / "s_snapshots.csv") == [0.0, 2.0, 4.0, 5.0]


def test_simulate_reports_run_counters(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "simulate", "-A", "3", "-B", "3.5", "-M", "2", "--N1", "20", "--N2", "10",
        "--seed", "1", "--t-end", "5", "--snapshot-every", "2", "--out", str(tmp_path / "s"),
    )
    assert code == 0
    counters = json.loads(err.strip().splitlines()[-1])["run"]
    # one run through the snapshots at 2, 4 and 5: its start state is the only
    # one evaluated without a step, and the stops cost nothing
    steps = 4 * counters["accepted_steps"] + 3 * counters["rejected_steps"]
    assert counters["force_evals"] == steps + 1
    assert 0.0 < counters["dt_min"] <= counters["dt_max"]
    assert counters["closest_pair_ratio"] > 1.0


def test_simulate_reports_the_stiffness_check_and_energy_rise(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "simulate", "-A", "3", "-B", "3.5", "-M", "2", "--N1", "20", "--N2", "10",
        "--seed", "1", "--t-end", "5", "--out", str(tmp_path / "s"),
    )
    assert code == 0
    counters = json.loads(err.strip().splitlines()[-1])["run"]
    assert 0.0 < counters["max_stiffness"] <= 2.5
    assert 0.0 <= counters["max_energy_rise"] <= 1e-6


def test_simulate_makes_one_run_and_times_its_stages(tmp_path, capsys, monkeypatch):
    calls = []
    original = cli.run
    monkeypatch.setattr(cli, "run", lambda *a, **k: calls.append(k.get("stops")) or original(*a, **k))
    code, _, err = run_cli(
        capsys, "simulate", "-A", "3", "-B", "3.5", "-M", "2", "--N1", "20", "--N2", "10",
        "--seed", "1", "--t-end", "5", "--snapshot-every", "2", "--out", str(tmp_path / "s"),
    )
    assert code == 0
    assert calls == [[2.0, 4.0, 5.0]]
    stages = json.loads(err.strip().splitlines()[-1])["stages_s"]
    assert sorted(stages) == ["init", "run", "write"]
    assert all(seconds >= 0.0 for seconds in stages.values())


def test_simulate_diagnostics_evenly_spaced_over_the_whole_run(tmp_path, capsys):
    # default record interval: t_end / 200 = 0.1 over the whole run, not per snapshot segment
    code, _, err = run_cli(
        capsys, "simulate", "-A", "3", "-B", "3.5", "-M", "2", "--N1", "20", "--N2", "10",
        "--seed", "1", "--t-end", "20", "--snapshot-every", "5", "--out", str(tmp_path / "s"),
    )
    assert code == 0
    dt_max = json.loads(err.strip().splitlines()[-1])["run"]["dt_max"]
    lines = (tmp_path / "s_diagnostics.csv").read_text().splitlines()[1:]
    t = np.array([float(line.split(",")[0]) for line in lines])
    # each record is the first accepted state at or past k * 0.1
    assert len(t) == 201 and t[-1] == 20.0
    lag = t - 0.1 * np.arange(len(t))
    assert np.all(lag > -1e-12) and np.all(lag < dt_max)


def test_simulate_too_few_particles_writes_nothing(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "simulate", "-A", "3", "-B", "3.5", "-M", "2", "--N1", "5", "--N2", "5",
        "--t-end", "1", "--out", str(tmp_path / "s"),
    )
    assert code == 3
    assert json.loads(err.strip().splitlines()[-1])["error"] == "TooFewParticles"
    assert not (tmp_path / "s_snapshots.csv").exists()
    assert not (tmp_path / "s_diagnostics.csv").exists()


@pytest.mark.parametrize("init", ["equilibrium", "random"])
def test_simulate_with_an_empty_species_names_the_cause(tmp_path, capsys, init):
    code, out, err = run_cli(
        capsys, "simulate", "--init", init, "--kind", "target-light", "-A", "3", "-B", "3.5", "-M", "2",
        "--N1", "0", "--N2", "20", "--t-end", "1", "--out", str(tmp_path / "s"),
    )
    assert code == 2 and out == ""
    assert json.loads(err.strip().splitlines()[-1]) == {
        "error": "ValueError", "message": "each species needs at least one particle"
    }
    assert list(tmp_path.iterdir()) == []


def test_simulate_underflowing_collision_threshold_is_out_of_range(tmp_path, capsys):
    code, out, err = run_cli(
        capsys, "simulate", "--a-s", "1e-300", "--a-c", "1", "--b-s", "1", "--b-c", "1", "--M1", "1", "--M2", "1",
        "--out", str(tmp_path / "s"),
    )
    assert code == 3 and out == ""
    assert json.loads(err.strip().splitlines()[-1])["error"] == "OutOfRange"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("t_end, every", [("5", "0"), ("0", "1"), ("inf", "1")])
def test_simulate_rejects_bad_schedule(tmp_path, capsys, t_end, every):
    code, _, err = run_cli(
        capsys, "simulate", "-A", "3", "-B", "3.5", "-M", "2", "--N1", "20", "--N2", "10",
        "--t-end", t_end, "--snapshot-every", every, "--out", str(tmp_path / "s"),
    )
    assert code == 2
    assert json.loads(err.strip().splitlines()[-1])["error"] == "ValueError"
    assert not (tmp_path / "s_snapshots.csv").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["phase-diagram", "-M", "0", "--grid", "4"],
        ["phase-diagram", "--extent", "0", "--grid", "4"],
        ["lambda", "--kind", "target-light", "-A", "3", "-B", "3.5", "-M", "2", "--r-max", "0"],
        ["simulate", "-A", "3", "-B", "3.5", "-M", "2", "--t-end", "1", "--snapshot-every", "5e-5"],
        *(
            ["simulate", "-A", "3", "-B", "3.5", "-M", "2", "--t-end", "1", "--record-interval", value]
            for value in ("nan", "0", "-1", "inf")
        ),
        *(["simulate", "-A", "3", "-B", "3.5", "-M", "2", "--t-end", "1", "--radius", value] for value in ("0", "-1")),
    ],
)
def test_degenerate_ranges_are_config_errors(tmp_path, capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--out" if argv[0] == "simulate" else "--out-svg", str(tmp_path / "x"))
    assert code == 2 and out == ""
    assert json.loads(err.strip().splitlines()[-1])["error"] == "ValueError"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv",
    [
        ["phase-diagram", "--grid", "4", "--m-max", "1"],
        ["phase-diagram", "--grid", "4", "--m-max", "0"],
        ["phase-diagram", "--grid", "0"],
        ["phase-diagram", "--grid", "-3"],
        ["stability", "--kind", "target-light", "-A", "3", "-B", "3.5", "-M", "2", "--m-max", "1"],
    ],
)
def test_m_max_below_two_or_an_empty_grid_writes_nothing(tmp_path, capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--out-csv", str(tmp_path / "x.csv"))
    assert code == 2 and out == ""
    assert json.loads(err.strip().splitlines()[-1])["error"] == "ValueError"
    assert not list(tmp_path.iterdir())


def test_weakcross_overlay_error_writes_nothing(tmp_path, capsys):
    code, out, err = run_cli(
        capsys, "weakcross", "--n-points", "3", "--out-csv", str(tmp_path / "wc.csv"),
        "--overlay-ratios", "6", "--overlay-t-end", "0", "--overlay-N", "24",
    )
    assert code == 2 and out == ""
    assert json.loads(err.strip().splitlines()[-1])["error"] == "ValueError"
    assert not list(tmp_path.iterdir())


#: Valid flags, with every output named, that a checked flag's bad value is added to; the last value of a flag wins.
_CHECKED_BASE = {
    "weakcross": ["weakcross", "--n-points", "3", "--out-csv", "wc.csv", "--overlay-csv", "ov.csv",
                  "--overlay-ratios", "6", "--overlay-t-end", "1", "--overlay-N", "24"],
    "lambda": ["lambda", "--kind", "target-light", "-A", "3", "-B", "3.5", "-M", "2", "--n-samples", "20",
               "--out-csv", "lam.csv", "--out-svg", "lam.svg"],
    "simulate": ["simulate", "-A", "3", "-B", "3.5", "-M", "2", "--N1", "12", "--N2", "12", "--t-end", "0.2",
                 "--out", "sim"],
    "phase-diagram": ["phase-diagram", "--grid", "4", "--m-max", "4", "--out-csv", "pd.csv", "--out-svg", "pd.svg"],
    "stability": ["stability", "--kind", "target-light", "-A", "3", "-B", "3.5", "-M", "2", "--m-max", "4",
                  "--out-csv", "st.csv"],
}
#: The commands each checked flag is tried on; weakcross when a flag is not listed.
_CHECKED_COMMAND = {"--r-max": ("lambda",), "--n-samples": ("lambda",), "--t-end": ("simulate",),
                    "--snapshot-every": ("simulate",), "-M": ("phase-diagram",), "--extent": ("phase-diagram",),
                    "--grid": ("phase-diagram",), "--record-interval": ("simulate",),
                    "--seed": ("simulate", "weakcross"), "--m-max": ("stability", "phase-diagram")}


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--overlay-t-end", "0"),
        ("--overlay-t-end", "nan"),
        ("--overlay-t-end", "-1"),
        ("--overlay-N", "1"),
        ("--overlay-N", "-5"),
        ("--overlay-eta", "0"),
        ("--overlay-eta", "1.5"),
        ("--overlay-M", "0.5"),
        ("--overlay-M", "inf"),
        ("--overlay-ratios", "6,-1"),
        ("--overlay-ratios", "6,x"),
        ("--r-max", "0"),
        ("--r-max", "inf"),
        ("--n-samples", "0"),
        ("--n-samples", "-1"),
        ("--n-points", "0"),
        ("--n-points", "-1"),
        ("--t-end", "0"),
        ("--t-end", "nan"),
        ("--snapshot-every", "0"),
        ("--snapshot-every", "-inf"),
        ("-M", "0.5"),
        ("-M", "inf"),
        ("--extent", "0"),
        ("--extent", "inf"),
        ("--grid", "0"),
        ("--grid", "1.5"),
        ("--record-interval", "0"),
        ("--record-interval", "nan"),
        ("--seed", "-1"),
        ("--seed", "1.5"),
        ("--m-max", "1"),
        ("--m-max", "2.5"),
    ],
)
def test_weakcross_overlay_flags_are_checked_by_name(tmp_path, capsys, monkeypatch, flag, value):
    # every flag with a domain of its own, weakcross's overlay flags and those of the other commands
    monkeypatch.chdir(tmp_path)
    for command in _CHECKED_COMMAND.get(flag, ("weakcross",)):
        code, out, err = run_cli(capsys, *_CHECKED_BASE[command], flag, value)
        assert code == 2 and out == ""
        record = json.loads(err.strip().splitlines()[-1])
        assert record["error"] == "ValueError" and flag in record["message"]
        assert not list(tmp_path.iterdir())


def test_overlay_flags_are_checked_without_overlay_ratios(capsys):
    code, out, err = run_cli(capsys, "weakcross", "--n-points", "3", "--overlay-eta", "2")
    assert code == 2 and out == ""
    assert "--overlay-eta" in json.loads(err.strip().splitlines()[-1])["message"]


@pytest.mark.parametrize(
    "argv, stages",
    [
        (["phase-diagram", "--grid", "4", "--m-max", "4", "--out-csv", "pd.csv"], ["sweep", "write"]),
        (["weakcross", "--ratio", "6"], ["curve", "write"]),
        (["weakcross", "--n-points", "3", "--overlay-ratios", "6", "--overlay-t-end", "1", "--overlay-N", "24"],
         ["curve", "overlay", "write"]),
        (["stability", "--kind", "target-light", "-A", "3", "-B", "3.5", "-M", "2", "--m-max", "4"],
         ["report", "write"]),
    ],
)
def test_commands_time_their_stages(tmp_path, capsys, monkeypatch, argv, stages):
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(capsys, *argv)
    assert code == 0
    record = json.loads(err.strip().splitlines()[-1])
    assert sorted(record["stages_s"]) == stages
    assert all(seconds >= 0.0 for seconds in record["stages_s"].values())
    if argv[0] == "stability":
        assert 0.0 <= record["worst_crosscheck_margin"] <= 1.0


def test_phase_diagram_outputs(tmp_path, capsys):
    csv = tmp_path / "pd.csv"
    svg = tmp_path / "pd.svg"
    code, out, _ = run_cli(
        capsys, "phase-diagram", "-M", "2", "--grid", "24", "--m-max", "6",
        "--out-csv", str(csv), "--out-svg", str(svg),
    )
    assert code == 0
    lines = csv.read_text().splitlines()
    assert len(lines) == 24 * 24 + 1
    assert svg.exists()
    # determinism
    csv2 = tmp_path / "pd2.csv"
    run_cli(
        capsys, "phase-diagram", "-M", "2", "--grid", "24", "--m-max", "6",
        "--out-csv", str(csv2),
    )
    assert csv.read_bytes() == csv2.read_bytes()


@pytest.mark.parametrize("M, light, heavy", [(1.5, 426_653, 11_431), (3.0, 465_434, 8_793)])
def test_phase_diagram_reports_its_cubic_work(capsys, M, light, heavy):
    code, _, err = run_cli(capsys, "phase-diagram", "-M", repr(M), "--grid", "200", "--m-max", "32")
    assert code == 0
    assert json.loads(err.strip().splitlines()[-1])["sweep_counts"] == {
        "target-light": {"cubic_evals": light, "eigensolves": 0},
        "target-heavy": {"cubic_evals": heavy, "eigensolves": 0},
    }


def _phase_diagram_per_cell(M, grid, extent, m_max):
    """CSV and SVG text of a phase diagram built one grid point at a time: 9 fmt_value columns and one rect each."""
    ax = cell_centered_axis(grid, 0.0, extent)
    A, B = np.meshgrid(ax, ax, indexing="ij")
    codes = region_code_grid(A, B, M)
    light = target_verdict_grid(EquilibriumKind.TARGET_LIGHT_IN, A, B, M, m_max)
    heavy = target_verdict_grid(EquilibriumKind.TARGET_HEAVY_IN, A, B, M, m_max)
    lines = [
        "A,B,region,exists_target_light,exists_target_heavy,exists_overlap_light,exists_overlap_heavy,"
        "verdict_target_light,verdict_target_heavy"
    ]
    masks = [existence_region_mask(kind, codes) for kind in EquilibriumKind]
    a, b, *rest = (x.ravel().tolist() for x in (A, B, *masks, light, heavy))
    names = [cli._REGION_NAMES[code] for code in codes.ravel().tolist()]
    lines += [",".join(map(fmt_value, row)) for row in zip(a, b, names, *rest)]
    plot = SvgPlot((0.0, extent), (0.0, extent))
    d = ax[1] - ax[0] if grid > 1 else extent
    for i in range(grid):
        for j in range(grid):
            px0, py0 = plot._px(ax[i] - d / 2, ax[j] + d / 2)
            px1, py1 = plot._px(ax[i] + d / 2, ax[j] - d / 2)
            plot.elements.append(
                f'<rect x="{px0:.2f}" y="{py0:.2f}" width="{px1 - px0:.2f}" '
                f'height="{py1 - py0:.2f}" fill="{cli._REGION_COLORS[int(codes[i, j])]}"/>'
            )
    bs = np.linspace(1e-3, extent, 400)
    plot.polyline(curve_c1(bs, M), bs, color="#000000", width=2.0)
    plot.polyline(curve_c2(bs, M), bs, color="#000000", width=2.0)
    plot.polyline([0.0, extent], [0.0, extent], color="#000000", width=2.0)
    plot.axes("A", "B")
    return "\n".join(lines) + "\n", plot.to_string()


@pytest.mark.parametrize(
    "M, grid, extent, m_max", [(2.0, 1, 5.0, 32), (1.0, 7, 2.5, 32), (4.0, 33, 5.0, 5), (1.5, 200, 5.0, 32)]
)
def test_phase_diagram_files_match_a_per_cell_reference(tmp_path, capsys, M, grid, extent, m_max):
    csv, svg = tmp_path / "pd.csv", tmp_path / "pd.svg"
    code, out, _ = run_cli(
        capsys, "phase-diagram", "-M", repr(M), "--grid", str(grid), "--extent", repr(extent),
        "--m-max", str(m_max), "--out-csv", str(csv), "--out-svg", str(svg),
    )
    assert code == 0
    assert last_json(out) == {"grid": grid, "M": M, "csv": str(csv), "svg": str(svg)}
    csv_text, svg_text = _phase_diagram_per_cell(M, grid, extent, m_max)
    assert csv.read_bytes() == csv_text.encode()
    assert svg.read_bytes() == svg_text.encode()


def test_phase_diagram_svg_places_each_axis_value_once(tmp_path, capsys, monkeypatch):
    calls = []
    px = SvgPlot._px

    def counted(self, x, y):
        calls.append(1)
        return px(self, x, y)

    monkeypatch.setattr(SvgPlot, "_px", counted)
    grid = 50
    code, _, _ = run_cli(capsys, "phase-diagram", "--grid", str(grid), "--m-max", "4", "--out-svg", str(tmp_path / "pd.svg"))
    assert code == 0
    # the two 400-point boundary curves, the diagonal and the axes take 804 calls at any grid;
    # placing the cells one at a time took 2 grid^2 more
    assert len(calls) <= 4 * grid + 820


def test_phase_diagram_csv_formats_each_axis_value_and_tail_once(tmp_path, capsys, monkeypatch):
    calls = []

    def counted(x):
        calls.append(1)
        return fmt_value(x)

    monkeypatch.setattr(cli, "fmt_value", counted)
    monkeypatch.setattr("swarm_eq.output.fmt_value", counted)
    grid = 50
    csv = tmp_path / "pd.csv"
    code, _, _ = run_cli(capsys, "phase-diagram", "--grid", str(grid), "--m-max", "4", "--out-csv", str(csv))
    assert code == 0
    tails = {line.split(",", 2)[2] for line in csv.read_text().splitlines()[1:]}
    # one call per axis value and one per column of each distinct tail; formatting every cell
    # of every row took 3 grid^2 calls
    assert len(calls) <= grid + 8 * len(tails) + 16


@pytest.mark.parametrize(
    "argv, outputs",
    [
        (["simulate", "-A", "3", "-B", "3.5", "-M", "2", "--N1", "12", "--N2", "12", "--t-end", "0.5",
          "--out", "{d}/s"], ["s_snapshots.csv", "s_diagnostics.csv"]),
        (["phase-diagram", "--grid", "5", "--m-max", "4", "--out-csv", "{d}/pd.csv", "--out-svg", "{d}/pd.svg"],
         ["pd.csv", "pd.svg"]),
        (["lambda", "--kind", "target-light", "-A", "3", "-B", "3.5", "-M", "2", "--n-samples", "20",
          "--out-csv", "{d}/lam.csv", "--out-svg", "{d}/lam.svg"], ["lam.csv", "lam.svg"]),
        (["weakcross", "--n-points", "3", "--overlay-ratios", "6", "--overlay-t-end", "0.5", "--overlay-N", "24",
          "--out-csv", "{d}/wc.csv", "--overlay-csv", "{d}/ov.csv", "--out-svg", "{d}/wc.svg"],
         ["wc.csv", "ov.csv", "wc.svg"]),
        (["stability", "--kind", "target-light", "-A", "3", "-B", "3.5", "-M", "2", "--m-max", "4",
          "--out-csv", "{d}/modes.csv"], ["modes.csv"]),
    ],
    ids=["simulate", "phase-diagram", "lambda", "weakcross", "stability"],
)
def test_a_failed_write_leaves_none_of_the_command_files(tmp_path, capsys, argv, outputs):
    # the last target is a directory, so the command's last write fails
    (tmp_path / outputs[-1]).mkdir()
    code, out, err = run_cli(capsys, *(arg.format(d=tmp_path) for arg in argv))
    assert code == 2 and out == ""
    assert json.loads(err.strip().splitlines()[-1])["error"] == "IsADirectoryError"
    assert [path.name for path in tmp_path.iterdir()] == [outputs[-1]]


def test_config_round_trip(rng):
    for _ in range(100):
        values = {
            "A": float(np.round(rng.uniform(0.1, 5.0), 6)),
            "B": float(rng.uniform(0.1, 5.0)),
            "M": float(rng.uniform(1.0, 8.0)),
            "kind": str(rng.choice(["target-light", "target-heavy"])),
            "m_max": int(rng.integers(2, 40)),
            "seed": int(rng.integers(0, 2**31)),
        }
        assert cli.read_config(json.dumps({"command": "stability", **values})) == ("stability", values)


def test_config_file_with_flag_override(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"command": "region", "A": 3.0, "B": 3.5, "M": 2.0}))
    code, out, _ = run_cli(capsys, "--config", str(path))
    assert code == 0
    assert last_json(out)["region"] == "D4"
    # explicit flags override the file
    code, out, _ = run_cli(capsys, "--config", str(path), "region", "-B", "0.4")
    assert code == 0
    payload = last_json(out)
    assert payload["B"] == 0.4
    assert payload["region"] == "D3"


@pytest.mark.parametrize("override", [["-M", "1.5"], ["-M=1.5"]])
def test_explicit_flag_overrides_an_out_of_domain_config_value(tmp_path, capsys, override):
    # the file's -M 0.5 is outside phase-diagram's domain; the flag replaces it before anything is parsed
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"command": "phase-diagram", "M": 0.5, "grid": 3, "m_max": 2}))
    code, out, _ = run_cli(capsys, "--config", str(path))
    assert code == 2 and out == ""
    code, out, _ = run_cli(capsys, "--config", str(path), "phase-diagram", *override)
    assert code == 0
    assert last_json(out)["M"] == 1.5


@pytest.mark.parametrize("values", [{"A": 3.0, "B": 3.5, "M": 2.0}, {"command": 5, "A": 3.0}])
def test_config_file_without_command_is_a_config_error(tmp_path, capsys, values):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(values))
    code, out, err = run_cli(capsys, "--config", str(path))
    assert code == 2
    assert out == ""
    record = json.loads(err.strip().splitlines()[-1])
    assert record["error"] == "ValueError"
    assert "command" in record["message"]


@pytest.mark.parametrize("entry", [{"N1": False}, {"seed": True}, {"out": True}, {"out": None}])
def test_a_config_boolean_or_null_is_refused(tmp_path, monkeypatch, capsys, entry):
    # no flag takes a boolean or null: the entry is refused and named before anything runs, so nothing is
    # written (a null --out would otherwise name the files "None_*")
    monkeypatch.chdir(tmp_path)
    values = {"A": 3, "B": 3.5, "M": 2, "N1": 12, "N2": 12, "t_end": 0.2, "snapshot_every": 0.2, "out": "sim"}
    Path("cfg.json").write_text(json.dumps({"command": "simulate", **values, **entry}))
    code, out, err = run_cli(capsys, "--config", "cfg.json")
    assert code == 2 and out == ""
    record = json.loads(err.strip().splitlines()[-1])
    assert record["error"] == "ValueError"
    (key,) = entry
    assert f"--{key}" in record["message"]
    assert [path.name for path in tmp_path.iterdir()] == ["cfg.json"]


def test_config_flag_without_path_is_a_config_error(capsys):
    code, out, err = run_cli(capsys, "region", "--config")
    assert code == 2
    assert out == ""
    record = json.loads(err.strip().splitlines()[-1])
    assert record["error"] == "ValueError"
    assert "--config" in record["message"]


def test_console_script_entry():
    proc = subprocess.run(
        [sys.executable, "-m", "swarm_eq.cli", "region", "-A", "3", "-B", "2", "-M", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["region"] == "D3"


def _simulate_with_forces(capsys, monkeypatch, tmp_path, patched):
    exact = particles.forces
    monkeypatch.setattr(particles, "forces", lambda state, diag=None: patched(state, exact(state, diag)))
    return run_cli(
        capsys, "simulate", "-A", "3", "-B", "3.5", "-M", "2", "--N1", "20", "--N2", "10", "--seed", "1",
        "--t-end", "1", "--out", str(tmp_path / "s"),
    )


def test_simulate_that_moves_the_centre_of_mass_exits_3_and_writes_nothing(tmp_path, capsys, monkeypatch):
    # a common drift of every particle leaves the energy as it is and moves the centre of mass
    code, out, err = _simulate_with_forces(capsys, monkeypatch, tmp_path, lambda state, v: v + [1e-3, 0.0])
    assert code == 3 and out == ""
    record = json.loads(err.strip().splitlines()[-1])
    assert record["error"] == "InvariantViolated" and "centre of mass" in record["message"]
    assert list(tmp_path.iterdir()) == []


def test_simulate_that_raises_the_energy_exits_3_and_writes_nothing(tmp_path, capsys, monkeypatch):
    # the reversed flow climbs the energy it should descend and keeps the centre of mass; slowed
    # a hundredfold, it reaches the first record before close pairs meet
    code, out, err = _simulate_with_forces(capsys, monkeypatch, tmp_path, lambda state, v: -0.01 * v)
    assert code == 3 and out == ""
    record = json.loads(err.strip().splitlines()[-1])
    assert record["error"] == "InvariantViolated" and "energy" in record["message"]
    assert list(tmp_path.iterdir()) == []


def test_weakcross_overlay_emission(tmp_path, capsys):
    csv = tmp_path / "curve.csv"
    ov = tmp_path / "overlay.csv"
    code, out, _ = run_cli(
        capsys, "weakcross", "--ratio-min", "1.2", "--ratio-max", "6",
        "--n-points", "8", "--out-csv", str(csv),
        "--overlay-ratios", "6", "--overlay-t-end", "150", "--overlay-N", "40",
        "--overlay-csv", str(ov),
    )
    assert code == 0
    payload = last_json(out)
    assert len(payload["overlay"]) == 1
    lines = ov.read_text().splitlines()
    assert lines[0] == "ratio_AB,mass_ratio,d_over_R_sim"
    # a short, small run still lands in the right neighbourhood
    assert float(lines[1].split(",")[-1]) == pytest.approx(math.sqrt(6.0), rel=0.25)


def test_weakcross_overlay_reports_run_counters(tmp_path, capsys):
    code, out, err = run_cli(
        capsys, "weakcross", "--n-points", "3",
        "--overlay-ratios", "2,6", "--overlay-t-end", "20", "--overlay-N", "40",
        "--overlay-csv", str(tmp_path / "ov.csv"),
    )
    assert code == 0
    assert "overlay_runs" not in last_json(out)
    runs = json.loads(err.strip().splitlines()[-1])["overlay_runs"]
    # one record per overlay ratio, with simulate's counters
    assert len(runs) == 2
    for counters in runs:
        assert sorted(counters) == sorted((*cli._RUN_COUNTERS, "d_theory", "d_offset"))
        assert counters["force_evals"] == 4 * counters["accepted_steps"] + 3 * counters["rejected_steps"] + 1
        assert 0.0 <= counters["max_energy_rise"] <= 1e-6


def test_weakcross_overlay_runs_report_the_offset_from_theory(tmp_path, capsys):
    # stderr gains d_of_ab_ratio and the final d/R's relative offset from it; stdout and the CSV keep the run's d/R
    ov = tmp_path / "ov.csv"
    code, out, err = run_cli(
        capsys, "weakcross", "--n-points", "3", "--overlay-ratios", "0.8,2.5",
        "--overlay-t-end", "2", "--overlay-N", "24", "--overlay-csv", str(ov),
    )
    assert code == 0
    runs = json.loads(err.strip().splitlines()[-1])["overlay_runs"]
    rows = [line.split(",") for line in ov.read_text().splitlines()[1:]]
    assert [float(row[2]) for row in rows] == [d for _, _, d in last_json(out)["overlay"]]
    # at A/B <= 1 the leading order mixes the species fully: no relative offset
    assert runs[0]["d_theory"] == 0.0 and runs[0]["d_offset"] is None
    d_theory = d_of_ab_ratio(2.5).d_over_R
    assert runs[1]["d_theory"] == d_theory > 0.0
    assert runs[1]["d_offset"] == (float(rows[1][2]) - d_theory) / d_theory


def _number(lo, hi):
    return hst.one_of(
        hst.floats(lo, hi).map(repr), hst.sampled_from(["nan", "inf", "-inf", "0", "-1", "1e-300", "x", ""])
    )


def _count(lo, hi):
    return hst.one_of(hst.integers(lo, hi).map(str), hst.sampled_from(["1.5", "x", ""]))


_KIND = hst.sampled_from(["target-light", "target-heavy", "overlap-light", "overlap-heavy", "bogus"])
_PARAMS = {"-A": _number(-1, 6), "-B": _number(-1, 6), "-M": _number(-1, 6), "--eta": _number(-0.5, 1.5),
           "--a-s": _number(-1, 3)}
_FLAGS = {
    "region": _PARAMS,
    "equilibrium": {**_PARAMS, "--kind": _KIND},
    "lambda": {**_PARAMS, "--kind": _KIND, "--r-max": _number(-1, 5), "--n-samples": _count(-1, 20),
               "--out-csv": hst.just("lam.csv"), "--out-svg": hst.just("lam.svg")},
    "stability": {**_PARAMS, "--kind": _KIND, "--m-max": _count(-1, 6), "--out-csv": hst.just("modes.csv")},
    "simulate": {
        **_PARAMS, "--kind": _KIND, "--init": hst.sampled_from(["random", "equilibrium", "bogus"]),
        "--N1": _count(-2, 40), "--N2": _count(-2, 40), "--seed": _count(-3, 100), "--radius": _number(-2, 3),
        "--t-end": _number(-1, 1), "--snapshot-every": hst.one_of(_number(-1, 0), hst.floats(0.05, 2).map(repr)),
        "--record-interval": _number(-1, 1), "--out": hst.just("sim"),
    },
    "weakcross": {
        "--ratio": _number(-1, 9), "--ratio-min": _number(-1, 4), "--ratio-max": _number(-1, 9),
        "--n-points": _count(-1, 6), "--overlay-ratios": hst.sampled_from(["6", "0.5,3", "x", ""]),
        "--overlay-N": _count(-2, 40), "--overlay-t-end": _number(-1, 1), "--overlay-M": _number(-1, 4),
        "--overlay-eta": _number(-0.5, 1.5), "--seed": _count(-3, 100), "--out-csv": hst.just("wc.csv"),
        "--out-svg": hst.just("wc.svg"), "--overlay-csv": hst.just("overlay.csv"),
    },
    "phase-diagram": {"-M": _number(-1, 6), "--grid": _count(-1, 6), "--extent": _number(-1, 6),
                      "--m-max": _count(-1, 4), "--out-csv": hst.just("pd.csv"), "--out-svg": hst.just("pd.svg")},
}
_PATH_FLAGS = ("--out-csv", "--out-svg", "--overlay-csv", "--out")
#: Sizes every call starts from, in place of the defaults (N = 200, t = 3000 for the overlay), and
#: simulate's output stem (default: the working directory); with drawn counts <= 40, --t-end <= 1
#: and --snapshot-every >= 0.05 every call takes well under a second.
_ALWAYS = {"--N1": "12", "--N2": "12", "--t-end": "0.5", "--n-samples": "20", "--n-points": "3", "--grid": "4",
           "--m-max": "4", "--overlay-N": "24", "--overlay-t-end": "0.5", "--out": "sim"}
#: Valid values that a draw may start from, so that draws also reach past argument checking.
_VALID = {"-A": "3", "-B": "3.5", "-M": "2", "--kind": "target-light", "--snapshot-every": "0.2",
          "--ratio-min": "1", "--ratio-max": "6"}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=hst.data())
def test_main_exits_only_with_0_2_or_3(tmp_path_factory, data):
    command = data.draw(hst.sampled_from(sorted(_FLAGS) + ["bogus"]))
    flags = _FLAGS.get(command, _PARAMS)
    start = {**_ALWAYS, **_VALID} if data.draw(hst.booleans()) else _ALWAYS
    values = {flag: value for flag, value in start.items() if flag in flags}
    for flag in data.draw(hst.lists(hst.sampled_from(sorted(flags)), unique=True)):
        values[flag] = data.draw(flags[flag])
    _run_checked(command, values, tmp_path_factory.mktemp("cli"))


def _run_checked(command, values, out_dir):
    """Run ``command`` with the flags ``values``, output paths under ``out_dir``; return its exit code.

    Checks the CLI contract: exit 0 with strict JSON on stdout and the metadata
    record on stderr, or exit 2 or 3 with nothing on stdout and an error record.
    """
    argv = [command] + [
        f"{flag}={out_dir / value if flag in _PATH_FLAGS else value}" for flag, value in values.items()
    ]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3), argv
    record = json.loads(err.getvalue().strip().splitlines()[-1])
    if code == 0:
        assert "config_hash" in record
        strict_json(out.getvalue().strip().splitlines()[-1])
    else:
        assert out.getvalue() == "" and "error" in record, argv
    return code


_SHORTHAND = {"-A": "3", "-B": "3.5", "-M": "2"}
_FULL = {"--a-s": "1", "--a-c": "3", "--b-s": "1", "--b-c": "3.5", "--M1": "2", "--M2": "1"}
_PARAM_FLAGS = [*_SHORTHAND, *_FULL, "--eta"]
_KINDS = ["target-light", "target-heavy", "overlap-light", "overlap-heavy"]
#: Per command: the --kind values swept, the valid flags every call starts from (small sizes, outputs
#: named relative to a fresh directory) and the numeric flags.  A swept --a-s ... --M2 replaces the
#: (A, B, M) shorthand with the full coefficient set.
_SWEEP = {
    "region": ([None], _SHORTHAND, _PARAM_FLAGS),
    "equilibrium": (_KINDS, _SHORTHAND, _PARAM_FLAGS),
    "lambda": (
        _KINDS, {**_SHORTHAND, "--n-samples": "20", "--out-csv": "lam.csv", "--out-svg": "lam.svg"},
        [*_PARAM_FLAGS, "--r-max", "--n-samples"],
    ),
    "stability": (_KINDS, {**_SHORTHAND, "--m-max": "4", "--out-csv": "modes.csv"}, [*_PARAM_FLAGS, "--m-max"]),
    "simulate": (
        [None],
        {**_SHORTHAND, "--N1": "12", "--N2": "12", "--t-end": "0.2", "--snapshot-every": "0.2", "--out": "sim"},
        [*_PARAM_FLAGS, "--N1", "--N2", "--seed", "--radius", "--t-end", "--snapshot-every", "--record-interval"],
    ),
    "weakcross": (
        [None],
        {"--n-points": "3", "--overlay-ratios": "3", "--overlay-N": "24", "--overlay-t-end": "0.2",
         "--out-csv": "wc.csv", "--out-svg": "wc.svg", "--overlay-csv": "overlay.csv"},
        ["--ratio", "--ratio-min", "--ratio-max", "--n-points", "--overlay-ratios", "--overlay-M",
         "--overlay-eta", "--overlay-N", "--overlay-t-end", "--seed"],
    ),
    "phase-diagram": (
        [None], {"-M": "2", "--grid": "4", "--m-max": "4", "--out-csv": "pd.csv", "--out-svg": "pd.svg"},
        ["-M", "--grid", "--extent", "--m-max"],
    ),
}


@pytest.mark.parametrize("command", sorted(_SWEEP))
def test_stdout_is_strict_json_at_extreme_values(tmp_path, command):
    # each numeric flag alone at each extreme value, the others valid: the
    # command keeps the CLI contract, and a failed command writes no file
    kinds, base, flags = _SWEEP[command]
    for kind, flag, value in itertools.product(kinds, flags, ("inf", "-inf", "nan", "1e300", "1e-300", "0")):
        values = ({f: v for f, v in base.items() if f not in _SHORTHAND} | _FULL) if flag in _FULL else dict(base)
        if kind is not None:
            values["--kind"] = kind
        values[flag] = value
        out_dir = tmp_path / f"{kind}{flag}{value}"
        out_dir.mkdir()
        if _run_checked(command, values, out_dir) != 0:
            assert list(out_dir.iterdir()) == [], values
