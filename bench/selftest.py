"""Quick self-test of the benchmark: small sizes, every workload, traced and not.

    python3 bench/selftest.py

Runs each workload through ``run.py --quick`` untraced and traced and checks
the result records, then feeds deliberately wrong outputs to the checks to
see that they object.  Takes about a minute on two cores.  The project's
test suite does not collect it.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Layers each workload must call, judged from the traced run.
CALLED = {
    "closed-forms": [
        "sweeps.target_verdict_grid", "sweeps.region_code_grid", "output.write_csv", "output.svg", "cli.main",
        "linear_stability.stability_report", "linear_stability.mode_spectrum",
        "linear_stability.build_Q_from_integrals", "equilibria.build_equilibrium", "variational.lambda_profile",
        "variational.minimizer_verdict", "weak_cross.d_of_ab_ratio", "weak_cross.ab_ratio_of_d",
        "boundary_integrals.oracles", "quadrature",
    ],
    "relax-large-n": [
        "particles.forces", "particles.step", "particles.run", "particles.particle_energy", "particles.max_speed",
        "particles.init", "particles.morphology", "output.write_csv", "cli.main", "equilibria.build_equilibrium",
    ],
    "weak-drift": [
        "particles.forces", "particles.step", "particles.run", "particles.particle_energy", "particles.max_speed",
        "particles.init", "particles.morphology", "output.write_csv", "cli.main",
    ],
}

failures = []


def expect(ok, what):
    if not ok:
        failures.append(what)
        print(f"FAIL {what}", file=sys.stderr)


def bench(workload, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--quick"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300)
    expect(proc.returncode == 0, f"{workload} trace={trace}: exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_records():
    for workload in CALLED:
        plain = bench(workload, 0)
        expect(plain["correct"], f"{workload}: checks failed")
        expected_failed = plain["attempted"] // 14 if workload == "closed-forms" else 0
        expect(plain["failed"] == expected_failed, f"{workload}: {plain['failed']} operations failed")
        for m in SPEC["end_to_end"]:
            value = plain["metrics"].get(m["name"], {}).get("value", 0.0)
            expect(value > 0.0, f"{workload}: end-to-end metric {m['name']} missing or 0")
        traced = bench(workload, 1)
        expect(traced["correct"], f"{workload} traced: checks failed")
        names = {m["name"] for m in SPEC["per_layer"]}
        expect(set(traced["metrics"]) == names, f"{workload} traced: per-layer metrics {names ^ set(traced['metrics'])}")
        for layer in CALLED[workload]:
            seen = [traced["metrics"][n]["value"] > 0 for n in (f"{layer}.s", f"{layer}.calls") if n in names]
            expect(seen and all(seen), f"{workload}: layer {layer} not seen")
        expect(list(HERE.glob(f"out/trace-{workload}-seed7.json")), f"{workload}: no trace file")


def check_checks():
    """The checks must object to outputs that break the method's properties."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import reference
    import workloads

    expect(abs(reference.ab_ratio_at_separation(2.0) - 4.0) < 1e-9, "two-disk balance at tangency")
    expect(abs(reference.separation_reference(2.5) - 1.5052223498) < 1e-8, "separation at A/B = 2.5")

    cf = workloads.closed_forms(7, quick=True)
    cf.prepare()
    pd_op = next(op for op in cf.ops if op.name.startswith("phase-diagram"))
    res = pd_op.run()
    expect(not pd_op.check(res), "phase diagram passes as produced")
    lines = Path(res["csv"]).read_text().splitlines()
    header = lines[0].split(",")
    col = header.index("verdict_target_heavy")
    for k in range(1, len(lines)):
        row = lines[k].split(",")
        if row[col] == "-1":
            row[col] = "1"
            lines[k] = ",".join(row)
            break
    Path(res["csv"]).write_text("\n".join(lines) + "\n")
    expect(any("heavy-inside" in p for p in pd_op.check(res)), "a stable heavy-inside verdict is caught")

    query = next(op for op in cf.ops if op.name.startswith("query 3"))
    res = query.run()
    expect(not query.check(res), "query passes as produced")
    A, B, M = res["point"]
    res["point"] = (A * 1.01, B, M)
    expect(query.check(res), "velocities off equilibrium are caught")

    separations = [r for r in (op.run() for op in cf.ops if op.name.startswith("query ")) if "separation" in r]
    expect(not cf.round_check(separations), "d/R increases with A/B as produced")
    inside = [r for r in separations if 1.0 < r["point"][0] / r["point"][1] < 4.0]
    if len(inside) >= 2:
        low, high = sorted(inside, key=lambda r: r["point"][0] / r["point"][1])[:2]
        low["separation"], high["separation"] = high["separation"], low["separation"]
        expect(cf.round_check(separations), "a decreasing d/R is caught")

    relax = workloads.relax_large_n(7, quick=True).ops[0]
    res = relax.run()
    expect(not relax.check(res), "relaxation passes as produced")
    lines = Path(res["diagnostics"]).read_text().splitlines()
    last = lines[-1].split(",")
    last[1] = repr(float(last[1]) + 1.0)
    lines[-1] = ",".join(last)
    Path(res["diagnostics"]).write_text("\n".join(lines) + "\n")
    expect(any("energy increased" in p for p in relax.check(res)), "an energy increase is caught")

    wd = workloads.weak_drift(7, quick=True)
    results = [op.run() for op in wd.ops[:2]]
    expect(not wd.round_check(results), "M = 1 and M = 2 agree as produced")
    results[1]["ratio"] = results[0]["ratio"] = math.pi
    snap = Path(results[1]["snapshots"])
    lines = snap.read_text().splitlines()
    t_last = max(float(line.split(",")[0]) for line in lines[1:])
    shifted = [lines[0]] + [
        ",".join(f[:3] + [repr(float(f[3]) + 0.5)] + f[4:]) if float(f[0]) == t_last and f[1] == "1" else ",".join(f)
        for f in (line.split(",") for line in lines[1:])
    ]
    snap.write_text("\n".join(shifted) + "\n")
    expect(wd.round_check(results), "a mass-ratio dependence of d/R is caught")


def main():
    check_records()
    check_checks()
    print("selftest:", "FAILED" if failures else "ok", f"({len(failures)} failures)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
