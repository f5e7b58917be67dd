"""One workload in a fresh process: set up, run whole rounds, check, report.

Started by ``run.py``.  Set-up runs from the parent's spawn, whose
``time.monotonic()`` arrives in ``--spawned-at`` (the clock is shared by all
processes), until swarm_eq is imported and the workload's inputs are
generated.  The worker then runs whole rounds of the workload's operations
in a closed loop, one operation at a time, until ``--seconds`` have passed,
and prints one JSON line of results.  With ``--trace 1`` the first round
runs untraced and the rest traced, so the two can be compared.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: What ``calibrate`` takes on the quiet 2-core machine of the README's figures.
CALIBRATION_REF_S = 2.5e-4
_CALIBRATION_DATA = np.arange(2000.0)


def calibrate():
    """Seconds for a fixed sliver of interpreter and numpy work that never calls swarm_eq.

    The machine's speed drifts by tens of percent within seconds, so
    ``query_rate`` scales each point query's time by CALIBRATION_REF_S over
    the mean of the calibrations just before and just after it.
    """
    start = time.perf_counter()
    total = 0
    for i in range(3000):
        total += i
    for _ in range(20):
        np.sum(_CALIBRATION_DATA * _CALIBRATION_DATA)
    return time.perf_counter() - start


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True, help="parent's time.monotonic() at spawn")
    ap.add_argument("--setup-only", action="store_true", help="exit after set-up")
    ap.add_argument("--quick", action="store_true", help="small sizes, for the self-test")
    return ap.parse_args(argv)


def import_program():
    """Import swarm_eq from this checkout's sources, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import swarm_eq
    import swarm_eq.cli  # noqa: F401  (loads every module the CLI reaches)

    if Path(swarm_eq.__file__).resolve().parent.parent != SRC.resolve():
        raise ImportError(f"swarm_eq imported from {swarm_eq.__file__}, not from {SRC}")
    return swarm_eq


def run_round(workload, tracer, run_id):
    """Run every operation once; return timings, results and counts."""
    stats = {"wall": 0.0, "command": 0.0, "item": 0.0, "items": 0, "attempted": 0, "failed": 0}
    results, problems, errors = [], [], []
    before = calibrate()
    for op in workload.ops:
        stats["attempted"] += 1
        if tracer is not None:
            tracer.run_id = run_id
            tracer.active = True
        start = time.perf_counter()
        try:
            result = op.run()
        except Exception:  # an operation that fails is counted, the run goes on
            result = None
            stats["failed"] += 1
            errors.append(f"{op.name}: {traceback.format_exc(limit=-1)}")
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.active = False
        after = calibrate()
        stats["wall"] += elapsed
        if op.command:
            stats["command"] += elapsed
        if op.item and result is not None:
            # calibration tracks the speed of short operations only: the speed
            # drifts within a command of several seconds
            scale = 1.0 if op.command else CALIBRATION_REF_S / (0.5 * (before + after))
            stats["item"] += elapsed * scale
            stats["items"] += 1
        before = after
        if result is not None:
            results.append(result)
            problems += checked(op.name, op.check, result)
    problems += checked(run_id, workload.round_check, results)
    return stats, problems, errors


def checked(name, check, arg):
    """The problems a check reports; a check that cannot finish is one more."""
    try:
        return check(arg)
    except Exception:
        return [f"{name}: check raised {traceback.format_exc(limit=-1)}"]


def main(argv=None):
    args = parse_args(argv)
    channel = sys.stdout
    import_program()
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, args.quick)
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}), file=channel, flush=True)
        return 0
    workload.prepare()

    tracer = None
    rounds, problems, errors = [], [], []
    run_prefix = f"{args.workload}-seed{args.seed}"
    if args.trace:
        import tracing

        untraced, problems, errors = run_round(workload, None, f"{run_prefix}-untraced")
        tracer = tracing.Tracer()
        tracer.install()
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds:
        stats, probs, errs = run_round(workload, tracer, f"{run_prefix}-r{len(rounds)}")
        rounds.append(stats)
        problems += probs
        errors += errs

    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    if args.trace:
        attempted += untraced["attempted"]
        failed += untraced["failed"]
        tracer.uninstall()
        tracer.write(workloads.OUT / f"trace-{run_prefix}.json")
        metrics = tracing.layer_metrics(tracer, len(rounds))
        metrics["trace.overhead_s"] = statistics.median(r["wall"] for r in rounds) - untraced["wall"]
    else:
        metrics = {
            "setup_s": setup_s,
            "wall_s": statistics.median(r["wall"] for r in rounds),
            "sweep_s": statistics.median(r["command"] for r in rounds),
            "query_rate": statistics.median(r["items"] / r["item"] for r in rounds),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    for line in list(dict.fromkeys(errors))[:5] + list(dict.fromkeys(problems))[:20]:
        print(line, file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "round_walls": [r["wall"] for r in rounds],
        "problems": len(problems),
        "metrics": metrics,
    }
    print(json.dumps(result), file=channel, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
