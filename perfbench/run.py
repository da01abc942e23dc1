"""decotab benchmark: seeded workloads through the public API and the CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a checkout.  NAME is fit-sample, transform-exact or
cli-session.  Each run happens in a fresh process with one-thread BLAS, no
bytecode writes and ``PYTHONPATH=src``, so it measures the source tree it
sits in and writes nothing under ``src/``.  The last line of standard output
is a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of BENCHMARK.json, or with ``--trace 1``
its per-layer metrics.  ``--workload all`` runs every workload untraced and
traced and prints each figure by name, with the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("fit-sample", "transform-exact", "cli-session")
CHILD_TIMEOUT_S = 175


def bench_env() -> dict:
    env = dict(os.environ)
    env.update(
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONDONTWRITEBYTECODE="1",
        PYTHONHASHSEED="0",
        PYTHONPATH="src",
    )
    return env


def run_one(workload: str, seed: int, seconds: float, trace: int, *, echo: bool) -> tuple[int, str]:
    cmd = [sys.executable, str(ROOT / "perfbench" / "bench.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=bench_env(), capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{workload}: no result within {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1, ""
    sys.stderr.write(proc.stderr)
    if echo:
        sys.stdout.write(proc.stdout)
    return proc.returncode, proc.stdout


def summary(seed: int, seconds: float) -> int:
    """Every workload untraced then traced; the figures by name and unit."""
    status = 0
    for workload in WORKLOADS:
        rc, plain = run_one(workload, seed, seconds, 0, echo=False)
        rc2, traced = run_one(workload, seed, seconds, 1, echo=False)
        if rc or rc2:
            print(f"{workload}: failed (exit {rc}, traced exit {rc2})")
            status = 1
            continue
        lines = plain.splitlines()
        result = json.loads(lines[-1])
        layers = json.loads(traced.splitlines()[-1])["metrics"]
        print(f"== {workload}  correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for line in lines[1:-1]:
            print(f"  {line}")
        for name, m in result["metrics"].items():
            print(f"  {name} {m['value']:.6g} {m['unit']}")
        untraced = result["metrics"]["cycle_s"]["value"]
        traced_cycle = layers["trace.cycle_s"]["value"]
        print(f"  trace overhead: traced cycle {traced_cycle:.4f} s - untraced {untraced:.4f} s"
              f" = {traced_cycle - untraced:+.4f} s; span cost"
              f" {layers['trace.overhead_ms']['value']:.3f} ms per cycle")
    return status


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    missing = [p for p in ("src/decotab/__init__.py", "BENCHMARK.json") if not (ROOT / p).is_file()]
    if missing:
        print(f"not a decotab checkout: missing {', '.join(missing)}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return summary(args.seed, args.seconds)
    rc, _ = run_one(args.workload, args.seed, args.seconds, args.trace, echo=True)
    return rc


if __name__ == "__main__":
    sys.exit(main())
