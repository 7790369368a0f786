"""Tests of the benchmark itself: generators, gate, tracer and the command.

    PYTHONPATH=src python3 -m pytest -q benchmark/tests
"""

import dataclasses
import inspect
import json
import shutil
import subprocess
import sys

import pytest

import vaspnet
from vaspnet.harness import run_scenario
from vaspnet.scenario import parse_scenario

from conftest import BENCH_DIR
from tracer import Tracer
from worker import NOMINAL_REFERENCE_S, SPEED_WINDOW, StepTimer, gate, simulate, summarise
from workloads import WORKLOADS

TINY = {"pipeline": 16, "mesh": 8, "churn-lossy": 60}
BENCHMARK_JSON = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generators_are_deterministic_per_seed_and_differ_across_seeds(name):
    workload = WORKLOADS[name]
    first = workload.scenario(3, TINY[name])
    assert first == workload.scenario(3, TINY[name])
    other = workload.scenario(4, TINY[name])
    assert other["seed"] != first["seed"]
    assert other["script"] != first["script"]
    parse_scenario(first)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_workload_passes_the_gate_at_a_tiny_size(name):
    workload = WORKLOADS[name]
    sim, timings = simulate(workload, 5, TINY[name])
    run = summarise(sim)
    assert gate(workload, [run]) == []
    assert run["attempted"] == TINY[name]
    assert len(timings["tick_s"]) == sim.scenario.horizon() - workload.first_transfer_tick + 1
    # Driving the ticks one at a time does not change the run.
    plain = run_scenario(parse_scenario(workload.scenario(5, TINY[name])))
    assert plain.digest_hex == run["digest"]


def test_step_timer_scales_each_step_by_the_host_speed_around_it():
    timer = StepTimer()
    assert timer.step(divmod, 7, 2) == (3, 1)
    assert len(timer.host_s) == len(timer.chunk_s) == 1
    # Ten steps on a host at nominal speed, then ten on one twice as slow.
    timer.host_s = [0.01] * 10 + [0.02] * 10
    timer.chunk_s = [NOMINAL_REFERENCE_S] * 10 + [2 * NOMINAL_REFERENCE_S] * 10
    nominal = timer.nominal_s()
    assert nominal[:10 - SPEED_WINDOW] == pytest.approx([0.01] * (10 - SPEED_WINDOW))
    assert nominal[10 + SPEED_WINDOW:] == pytest.approx([0.01] * (10 - SPEED_WINDOW))


def _wrapped_leftovers():
    found = []
    for module_name, module in sorted(sys.modules.items()):
        if module is None or not module_name.startswith("vaspnet"):
            continue
        for attr, value in vars(module).items():
            if getattr(value, "__wrapped_by_tracer__", False):
                found.append(f"{module_name}.{attr}")
            if inspect.isclass(value):
                found += [f"{module_name}.{attr}.{m}" for m, v in vars(value).items()
                          if getattr(v, "__wrapped_by_tracer__", False)]
    return found


def test_tracer_restores_every_original_and_keeps_the_digest():
    workload = WORKLOADS["pipeline"]
    untraced, _ = simulate(workload, 9, TINY["pipeline"])
    tracer = Tracer()
    traced, timings = simulate(workload, 9, TINY["pipeline"], tracer)
    assert _wrapped_leftovers() == []
    assert vaspnet.vasp.canonical_encode is vaspnet.crypto.canonical_encode
    assert traced.log_.running_digest == untraced.log_.running_digest
    # By-name imports were reached: ca and vasp call the rebound copies.
    assert tracer.count("ca.validate_certificate") > 0
    assert tracer.count("crypto.canonical_encode") > tracer.count("harness.EventLog.append")
    metrics = tracer.metrics(timings["setup_s"] + timings["measured_s"], 0)
    expected = {m["name"] for m in BENCHMARK_JSON["per_layer"]} - {"trace.overhead_ratio"}
    assert set(metrics) == expected
    assert len(tracer.span_name) == sum(tracer.calls)
    assert all(0 <= share <= 1 for share in (metrics["crypto.verify.distinct_ratio"][0],
                                             metrics["network.adv.accept_ratio"][0]))


def test_gate_rejects_a_mutated_chain_transaction_and_digest_drift():
    workload = WORKLOADS["pipeline"]
    data = workload.scenario(11, TINY["pipeline"])
    sim = vaspnet.Simulation(parse_scenario(data))
    sim.advance_to(sim.scenario.horizon())
    block = sim.chain.blocks[0]
    tampered = dataclasses.replace(block.transactions[0], amount=block.transactions[0].amount + 1)
    sim.chain.blocks[0] = dataclasses.replace(
        block, transactions=(tampered,) + block.transactions[1:])
    sim.run()
    problems = gate(workload, [summarise(sim)])
    assert any("chain hash verification failed" in p for p in problems)

    clean, _ = simulate(workload, 11, TINY["pipeline"])
    good = summarise(clean)
    assert gate(workload, [good]) == []
    assert gate(workload, [good, {**good, "digest": "00" * 32}]) != []


def _bench(args, cwd):
    return subprocess.run([sys.executable, "benchmark/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_command_prints_every_metric_with_its_unit(trace, section):
    # --seconds 0 gives the fewest runs at the workload's own size.
    proc = _bench(["--workload", "pipeline", "--seed", "2", "--seconds", "0",
                   "--trace", str(trace)], BENCH_DIR.parent)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in BENCHMARK_JSON[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns(".trace", "__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = _bench(["--workload", "pipeline", "--seed", "1", "--seconds", "1", "--trace", "0"],
                  tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
