"""vaspnet benchmark: run one workload for one seed and print every metric.

    python3 benchmark/run.py --workload pipeline --seed 7 --seconds 40 --trace 0

Every simulation runs in a fresh interpreter (``worker.py``), one after
another, until ``--seconds`` is used up (at least three runs). All runs of
one invocation repeat the same (workload, seed) and alternate PYTHONHASHSEED
between 0 and 1, so the correctness gate can demand one digest from all of
them. Host-time metrics are medians of times scaled to a host of nominal speed
(``worker.StepTimer``); simulated-time metrics repeat exactly. With
``--trace 1`` the last run is traced and the per-layer metrics are printed
instead of the end-to-end ones. Metric units come from ``BENCHMARK.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
only when the gate passed.
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
from typing import Any, Optional

from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"

MIN_RUNS = 3
HASH_SEEDS = ("0", "1")
CHILD_TIMEOUT_S = 150


def import_program() -> str:
    """Import vaspnet from this checkout's ``src``; return the PYTHONPATH for
    child interpreters, derived from ``vaspnet.__file__``."""
    src = ROOT / "src"
    if not (src / "vaspnet" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no vaspnet sources under {src}")
    sys.path.insert(0, str(src))
    import vaspnet

    return str(Path(vaspnet.__file__).resolve().parent.parent)


def run_child(pythonpath: str, workload: str, seed: int, hashseed: str,
              trace: bool = False) -> dict[str, Any]:
    """One worker interpreter."""
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    env = {**os.environ, "PYTHONPATH": pythonpath, "PYTHONHASHSEED": hashseed}
    started = time.perf_counter()
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"benchmark: worker exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["hashseed"] = hashseed
    result["process_s"] = time.perf_counter() - started
    return result


def run_series(pythonpath: str, workload: str, seed: int, seconds: float,
               min_runs: int) -> list[dict[str, Any]]:
    """Untraced runs back to back until the budget would be overrun."""
    deadline = time.perf_counter() + seconds
    runs: list[dict[str, Any]] = []
    while True:
        hashseed = HASH_SEEDS[len(runs) % len(HASH_SEEDS)]
        runs.append(run_child(pythonpath, workload, seed, hashseed))
        if len(runs) >= min_runs and time.perf_counter() + runs[-1]["process_s"] > deadline:
            return runs


def end_to_end(runs: list[dict[str, Any]]) -> dict[str, float]:
    first = runs[0]
    attempted = first["attempted"]
    return {
        "setup_s": statistics.median(run["setup_s"] for run in runs),
        "transfers_per_s": statistics.median(run["attempted"] / run["measured_s"] for run in runs),
        "tick_ms_p50": statistics.median(run["tick_ms_p50"] for run in runs),
        "tick_ms_p90": statistics.median(run["tick_ms_p90"] for run in runs),
        "peak_rss_mb": statistics.median(run["peak_rss_mb"] for run in runs),
        "confirmed_share": first["confirmed"] / attempted,
        "settle_ticks_p50": first["settle_ticks_p50"],
        "settle_ticks_p90": first["settle_ticks_p90"],
        "settled_record_share": 1 - first["stranded_records"] / max(1, first["records_total"]),
        "msgs_per_transfer": first["messages_sent"] / attempted,
    }


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="vaspnet benchmark")
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pythonpath = import_program()
    from worker import failed_operations, gate

    workload = WORKLOADS[args.workload]

    if args.trace:
        # Leave room for the traced run, which is slower than an untraced one.
        runs = run_series(pythonpath, workload.name, args.seed, args.seconds * 0.5, min_runs=2)
        traced = run_child(pythonpath, workload.name, args.seed, HASH_SEEDS[0], trace=True)
        runs.append(traced)
        untraced = runs[:-1]
        untraced_wall = statistics.median(r["setup_s"] + r["measured_s"] for r in untraced)
        metrics = dict(traced["layers"])
        metrics["trace.overhead_ratio"] = (
            (traced["setup_s"] + traced["measured_s"]) / untraced_wall, "ratio")
    else:
        runs = run_series(pythonpath, workload.name, args.seed, args.seconds, min_runs=MIN_RUNS)
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
        units = {metric["name"]: metric["unit"] for metric in declared}
        metrics = {name: (value, units[name])
                   for name, value in end_to_end(runs).items()}

    problems = gate(workload, runs)
    first = runs[0]
    print(f"workload {workload.name} seed {args.seed} runs {len(runs)} digest {first['digest']}")
    print(f"attempted {first['attempted']} confirmed {first['confirmed']} "
          f"denied {sum(first['denied'].values())} in_flight {first['in_flight']} "
          f"stranded_records {first['stranded_records']} "
          f"denials {json.dumps(first['denied'], sort_keys=True)}")
    print(f"tick samples per run {first['tick_samples']}")
    for index, run in enumerate(runs):
        print(f"  run {index} hash seed {run['hashseed']} setup {run['setup_s']:.3f}s "
              f"measured {run['measured_s']:.3f}s tick p50/p90 {run['tick_ms_p50']:.2f}/"
              f"{run['tick_ms_p90']:.2f} ms; host: setup {run['setup_host_s']:.3f}s measured "
              f"{run['measured_host_s']:.3f}s process {run['process_s']:.3f}s slowdown "
              f"{run['host_slowdown']:.2f}" + (" traced" if "layers" in run else ""))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<48} {value:>14.6g} {unit}")
    for problem in problems:
        print(f"GATE FAILED: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(failed_operations(workload, run) for run in runs),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
