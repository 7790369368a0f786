"""One benchmark run in this process: build a workload, drive it, summarise it.

``run.py`` starts a fresh interpreter on this script for every run and reads
the JSON object it prints as its last line. Times are measured around the
public API only, one step at a time: set-up is ``parse_scenario``,
``Simulation(...)`` and one ``advance_to(t)`` call per tick before the first
transfer; after that every tick is its own ``advance_to(t)`` call, and
``run()`` finishes the drain, audit, reconciliation, chain verification and
blind-broadcast scan. A fixed reference chunk runs after every step, and each
step's host time is scaled to a host of nominal speed (``StepTimer``).

Usage: python3 benchmark/worker.py --workload NAME --seed N [--trace]
(vaspnet must be importable, e.g. PYTHONPATH=src).
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import math
import resource
import statistics
import struct
import sys
import time
from pathlib import Path
from typing import Any, Callable, Optional

from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey, Ed25519PublicKey
from cryptography.hazmat.primitives.serialization import Encoding, PublicFormat

from vaspnet import harness, scenario as scenario_mod
from vaspnet.vasp import OutcomeStatus, RecordStatus

from tracer import Tracer
from workloads import WORKLOADS, Workload

SPANS_DIR = Path(__file__).resolve().parent / ".trace"


REFERENCE_ROUNDS = 4
NOMINAL_REFERENCE_S = 1e-3
"""Host time of one reference chunk on the nominal host that reported times
are scaled to."""
SPEED_WINDOW = 5
"""A step's host speed is read from the chunks of the steps up to this many
before and after it."""

_REFERENCE_KEY = Ed25519PrivateKey.from_private_bytes(bytes(range(32)))
_REFERENCE_PUBLIC = _REFERENCE_KEY.public_key().public_bytes(Encoding.Raw, PublicFormat.Raw)


def reference_chunk() -> None:
    """Fixed work of the kinds the program does most (field encoding, SHA-256,
    Ed25519 sign and verify), written here so that no change to the program
    can change it. Its host time measures the host's speed at that moment."""
    for n in range(REFERENCE_ROUNDS):
        body = b"".join(struct.pack(">HI", tag, 8) + struct.pack(">Q", n * 7 + tag)
                        for tag in range(1, 12))
        signature = _REFERENCE_KEY.sign(body + hashlib.sha256(body).digest())
        Ed25519PublicKey.from_public_bytes(_REFERENCE_PUBLIC).verify(
            signature, body + hashlib.sha256(body).digest())


class StepTimer:
    """Times steps of a run, each followed by one reference chunk.

    The host's speed drifts by up to 2x over seconds to minutes, alike for
    the program and for the reference chunk. Each step's host time is
    therefore scaled by ``NOMINAL_REFERENCE_S`` over the mean chunk time of
    the steps around it: the result is the step's time on a host of nominal
    speed, and the drift cancels out.
    """

    def __init__(self) -> None:
        self.host_s: list[float] = []
        self.chunk_s: list[float] = []
        reference_chunk()  # warm-up, untimed

    def step(self, call: Callable[..., Any], *args: Any) -> Any:
        clock = time.perf_counter
        start = clock()
        result = call(*args)
        middle = clock()
        reference_chunk()
        self.host_s.append(middle - start)
        self.chunk_s.append(clock() - middle)
        return result

    def nominal_s(self) -> list[float]:
        chunks = self.chunk_s
        out = []
        for index, host_s in enumerate(self.host_s):
            window = chunks[max(0, index - SPEED_WINDOW):index + SPEED_WINDOW + 1]
            out.append(host_s * NOMINAL_REFERENCE_S * len(window) / sum(window))
        return out


def simulate(workload: Workload, seed: int, transfers: Optional[int] = None,
             tracer: Optional[Tracer] = None) -> tuple[harness.Simulation, dict[str, Any]]:
    """Run one workload end to end; returns the finished simulation and its
    timings: nominal-host seconds (see ``StepTimer``) and host seconds."""
    data = workload.scenario(seed, transfers)
    if tracer is not None:
        tracer.install()
    try:
        timer = StepTimer()
        sim = set_up(workload, data, timer)
        setup_steps = len(timer.host_s)
        for tick in range(workload.first_transfer_tick, sim.scenario.horizon() + 1):
            timer.step(sim.advance_to, tick)
        timer.step(sim.run)
    finally:
        if tracer is not None:
            tracer.restore()
    nominal = timer.nominal_s()
    return sim, {
        "setup_s": sum(nominal[:setup_steps]),
        "measured_s": sum(nominal[setup_steps:]),
        "tick_s": nominal[setup_steps:-1],
        "setup_host_s": sum(timer.host_s[:setup_steps]),
        "measured_host_s": sum(timer.host_s[setup_steps:]),
        "host_slowdown": statistics.median(timer.chunk_s) / NOMINAL_REFERENCE_S,
    }


def set_up(workload: Workload, data: dict[str, Any], timer: StepTimer) -> harness.Simulation:
    """The timed set-up: parse, build, and run the ticks before the first
    transfer one at a time."""
    scenario = timer.step(scenario_mod.parse_scenario, data)
    sim = timer.step(harness.Simulation, scenario)
    for tick in range(workload.first_transfer_tick):
        timer.step(sim.advance_to, tick)
    return sim


def tick_percentile(ranked: list[tuple[int, int]], share: float) -> float:
    """Percentile of whole-tick durations, read as grouped data: the entries
    tied with the nearest-rank entry spread evenly over its tick, so that a
    small shift in the distribution moves the value by less than a tick."""
    position = share * len(ranked)
    key = ranked[max(0, math.ceil(position) - 1)]
    low, high = bisect.bisect_left(ranked, key), bisect.bisect_right(ranked, key)
    return key[1] - 0.5 + (position - low) / (high - low)


def summarise(sim: harness.Simulation) -> dict[str, Any]:
    """Simulated-time facts of a finished run, joined from outside through
    ``sim.scripted_transfers[i].outcome.record_id``."""
    metrics = sim.metrics
    confirmed = in_flight = 0
    denied: dict[str, int] = {}
    settle: list[tuple[int, int]] = []  # (0 settled / 1 censored, ticks)
    for scripted in sim.scripted_transfers:
        outcome = scripted.outcome
        started = scripted.action.tick
        record = None
        if outcome.record_id is not None:
            record = sim.vasps[scripted.origin_vasp].records.get(outcome.record_id)
        if record is not None and record.status is RecordStatus.CONFIRMED:
            confirmed += 1
            settle.append((0, record.updated_at - started))
            continue
        if outcome.status is OutcomeStatus.DENIED:
            reason = outcome.denial.code.value
            denied[reason] = denied.get(reason, 0) + 1
        else:
            in_flight += 1
        # Unsettled: ranks slowest, read as censored at the end of the drain.
        settle.append((1, metrics.final_tick - started))
    settle.sort()
    records_total = sum(len(node.records) for node in sim.vasps.values())
    return {
        "digest": sim.log_.running_digest.hex(),
        "attempted": metrics.transfers_attempted,
        "scripted": len(sim.scripted_transfers),
        "confirmed": confirmed,
        "denied": dict(sorted(denied.items())),
        "in_flight": in_flight,
        "metrics_confirmed": metrics.transfers_confirmed,
        "metrics_denied": dict(sorted(metrics.transfers_denied.items())),
        "settle_ticks_p50": tick_percentile(settle, 0.5),
        "settle_ticks_p90": tick_percentile(settle, 0.9),
        "stranded_records": metrics.unconfirmed_records,
        "records_total": records_total,
        "messages_sent": metrics.messages_sent,
        "audit_violations": metrics.audit_violations,
        "reconciliation_orphans": metrics.reconciliation_orphans,
        "breaches": list(sim.breaches),
    }


def gate(workload: Workload, runs: list[dict[str, Any]]) -> list[str]:
    """Correctness problems across the runs of one (workload, seed); empty when all pass."""
    problems: list[str] = []
    for index, run in enumerate(runs):
        where = f"run {index} ({workload.name}, hash seed {run.get('hashseed')})"
        if run["breaches"]:
            problems.append(f"{where}: breaches {run['breaches'][:3]}")
        attempted = run["attempted"]
        resolved = run["confirmed"] + sum(run["denied"].values()) + run["in_flight"]
        if attempted != run["scripted"] or attempted != resolved:
            problems.append(f"{where}: attempted {attempted} != confirmed + denied + in_flight "
                            f"{resolved} (scripted {run['scripted']})")
        if (run["confirmed"] != run["metrics_confirmed"]
                or run["denied"] != run["metrics_denied"]):
            problems.append(f"{where}: outcomes disagree with the event-log tally")
        if run["audit_violations"] or run["reconciliation_orphans"]:
            problems.append(f"{where}: {run['audit_violations']} audit violations, "
                            f"{run['reconciliation_orphans']} reconciliation orphans")
        if not workload.expected_denials and run["confirmed"] != attempted:
            problems.append(f"{where}: {run['confirmed']}/{attempted} confirmed")
    digests = {run["digest"] for run in runs}
    if len(digests) > 1:
        problems.append(f"{workload.name}: digests differ across runs of one seed: {sorted(digests)}")
    return problems


def failed_operations(workload: Workload, run: dict[str, Any]) -> int:
    """Transfers that neither confirmed nor were denied for a reason the
    workload provokes on purpose."""
    unexpected = sum(n for reason, n in run["denied"].items()
                     if reason not in workload.expected_denials)
    return run["in_flight"] + unexpected


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    sim, timings = simulate(workload, args.seed, tracer=tracer)
    tick_ms = sorted(s * 1e3 for s in timings.pop("tick_s"))
    out = summarise(sim)
    out.update(
        timings,
        tick_ms_p50=statistics.median(tick_ms),
        tick_ms_p90=statistics.quantiles(tick_ms, n=10, method="inclusive")[8],
        tick_samples=len(tick_ms),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if tracer is not None:
        wall = timings["setup_host_s"] + timings["measured_host_s"]
        out["layers"] = tracer.metrics(wall, sim.metrics.messages_dropped)
        tracer.write_spans(SPANS_DIR / f"{workload.name}.spans.tsv")
        (SPANS_DIR / f"{workload.name}.layers.json").write_text(
            json.dumps(out["layers"], indent=1, sort_keys=True))
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
