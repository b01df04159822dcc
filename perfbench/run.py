"""Benchmark of the solve→simulate→serve pipeline.

Run from the repository root::

    python3 perfbench/run.py --workload sweep-small --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped, their
timings in reference seconds (``workloads.probe_host``; the wall seconds are
kept in the result file);
``--trace 1`` runs a fixed amount of work twice, plain and with every layer
entry point wrapped (``layers.py``), and reports per-layer self times and
counts plus the wrappers' overhead.  Every run checks its outputs, prints a
digest of the per-unit outcomes and then each metric with its unit, writes
the full result to ``.perfbench/results/`` and ends with one JSON line::

    {"correct": true, "attempted": ..., "failed": 0, "metrics": {...}}

It exits 1 when an output check fails and 2 when the program is missing.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
from typing import Dict, List

from layers import PER_LAYER_UNITS, LayerTracer
from workloads import (
    OUT, REPO, SRC, WORKLOADS, HostSampler, Tally, host_scale, median, plan_timings, probe_host,
)

#: Set-up is timed in this process and in this many fresh child processes.
SETUP_PROBES = 2

END_TO_END_UNITS: Dict[str, str] = {
    "setup_s": "s",
    "run_mean_s": "s",
    "runs_per_s": "1/s",
    "plan_s": "s",
    "synthesis_s": "s",
    "agents": "count",
    "throughput_ratio_min": "ratio",
}


def fingerprint() -> Dict:
    """Host, library versions, commit and program size behind a result."""
    import numpy
    import scipy

    cpu_model = platform.machine()
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "commit": git_commit(),
        "src_loc": sum(
            len(path.read_bytes().splitlines()) for path in SRC.rglob("*.py")
        ),
    }


def git_commit() -> str:
    """HEAD's commit read from ``.git`` ("none" outside a git checkout)."""
    git = REPO / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def digest(rows: List[Dict]) -> str:
    """Hash of the outcome rows, the throughput ratio rounded to 3 places."""
    rounded = [
        dict(row, ratio=None if row["ratio"] is None else round(row["ratio"], 3)) for row in rows
    ]
    return hashlib.sha256(json.dumps(rounded, sort_keys=True).encode()).hexdigest()[:16]


def probe_setup(args: argparse.Namespace) -> Dict:
    """Time a workload's set-up in a fresh interpreter (``--setup-probe``)."""
    completed = subprocess.run(
        [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
         "--setup-probe"],
        cwd=REPO, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def pin_to_one_cpu() -> None:
    """Keep this process and its children (server, pool, set-up probes) on the
    CPU whose speed the host probes measure."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def ratio(total: float, count: float) -> float:
    return total / count if count else 0.0


def end_to_end(tally: Tally, setup_seconds: List[float]) -> Dict[str, float]:
    """Set-up median and, for the other timings, means over the tally's rounds."""
    return {
        "setup_s": median(setup_seconds),
        "run_mean_s": ratio(tally.latency_sum, tally.latency_count),
        "runs_per_s": ratio(tally.rate_units, tally.rate_seconds),
        "plan_s": ratio(tally.plan_sum, tally.plan_count),
        "synthesis_s": ratio(tally.synthesis_sum, tally.plan_count),
        "agents": tally.agents,
        "throughput_ratio_min": min(tally.nominal_ratios, default=0.0),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure ({SRC / 'repro'} is missing)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    pin_to_one_cpu()

    workload = WORKLOADS[args.workload](args.seed)
    try:
        workload.setup()
        setups = [{
            "setup_s": time.perf_counter() - STARTED,
            "probe": probe_host(),
            "plans": workload.setup_plans(),
        }]
        if args.setup_probe:
            print(json.dumps(setups[0]))
            return 0
        for _ in range(0 if args.trace else SETUP_PROBES):
            setups.append(probe_setup(args))
        setup_seconds = [setup["setup_s"] * host_scale(setup["probe"]) for setup in setups]

        if args.trace:
            tracer = LayerTracer()
            tally, untraced, traced = workload.trace(tracer)
            values = tracer.metrics(traced - untraced, untraced)
            units = PER_LAYER_UNITS
        else:
            with HostSampler() as sampler:
                tally = workload.measure(args.seconds, Tally(sampler=sampler))
            for setup in setups:  # each set-up's plans (already scaled) make a round
                if setup["plans"]:
                    for timings in setup["plans"]:
                        plan_timings(tally, timings)
                    tally.end_round(scale=1.0)
            values = end_to_end(tally, setup_seconds)
            units = END_TO_END_UNITS
    finally:
        workload.close()

    if "table1" in tally.extra and not args.trace:
        tally.extra["table1"]["synthesis_s"] = values["synthesis_s"]
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "fingerprint": fingerprint(),
        "digest": digest(tally.rows),
        "outcomes": tally.rows,
        "samples": {
            "units": len(tally.latencies),
            "plans": len(tally.plan_seconds),
            "rounds": len(tally.round_scale),
            "setups": len(setup_seconds),
        },
        "setup_wall_seconds": [setup["setup_s"] for setup in setups],
        "setup_scales": [host_scale(setup["probe"]) for setup in setups],
        "round_scales": tally.round_scale,
        "unit_seconds": tally.latencies,
        "plan_seconds": tally.plan_seconds,
        "synthesis_seconds": tally.synthesis_seconds,
        "failures": tally.failures,
        "extra": tally.extra,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")

    correct = tally.failed == 0
    print(f"{args.workload} seed={args.seed} trace={args.trace}: digest {result['digest']} "
          f"over {len(tally.rows)} outcomes; {tally.failed}/{tally.attempted} failed "
          f"(failed_frac {tally.failed / max(1, tally.attempted):.4f})")
    for failure in tally.failures:
        print(f"  FAILED {failure}")
    print(f"  samples: {result['samples']}  result: {path.relative_to(REPO)}")
    for name, unit in units.items():
        print(f"  {name} = {values[name]:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, tally.attempted),
        "failed": tally.failed,
        "metrics": result["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
