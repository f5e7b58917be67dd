"""The swarm-eq benchmark: one workload per invocation, in fresh processes.

    python3 bench/run.py --workload closed-forms --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The workload runs in a worker process of
its own (``worker.py``); set-up time is sampled over several fresh processes
and reported as the median.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics named in BENCHMARK.json with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  Exits non-zero, printing no result,
when the program cannot be imported or the worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Fresh processes that time set-up, the measuring worker included.
SETUP_SAMPLES = 5

#: Every run must end within this many seconds.
DEADLINE_S = 170.0

#: Worker environment: single-threaded BLAS, since on a small shared machine a
#: second BLAS thread buys about 5% on relax-large-n while a stall of either
#: core stalls both, and no SWARM_EQ_THREADS, so the sweep runs serially.
WORKER_ENV = {k: v for k, v in os.environ.items() if k != "SWARM_EQ_THREADS"}
WORKER_ENV.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")


def spawn(args, timeout, setup_only=False):
    """Run one worker to completion and return its JSON result line."""
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        argv.append("--setup-only")
    if args.quick:
        argv.append("--quick")
    argv += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(argv, cwd=ROOT, env=WORKER_ENV, stdout=subprocess.PIPE, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true", help="small sizes, for the self-test")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "swarm_eq" / "__init__.py").is_file():
        print(f"no swarm_eq sources under {ROOT / 'src'}; run from the root of a checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        setup = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setup.append(spawn(args, deadline - time.monotonic(), setup_only=True)["setup_s"])
        result = spawn(args, deadline - time.monotonic())
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError, KeyError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    raw = result["metrics"]
    if not args.trace:
        raw["setup_s"] = statistics.median(setup + [raw["setup_s"]])
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": raw[m["name"]], "unit": m["unit"]} for m in wanted if m["name"] in raw}
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
