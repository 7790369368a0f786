"""Event-log digests of the benchmark workloads, pinned at full size.

The workloads carry what the tracked scenarios do not: revocation churn
under loss (``churn-lossy``) and 24-VASP gossip around a ring (``mesh``).
A change meant to keep behaviour the same must leave them byte-identical.
The ``pipeline`` run also holds an Ed25519 budget.
"""

import importlib.util
import sys
from collections import OrderedDict
from pathlib import Path

import pytest

from conftest import count_calls
from vaspnet import crypto
from vaspnet.harness import Simulation
from vaspnet.scenario import parse_scenario

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "benchmark" / "workloads.py"

WORKLOAD_DIGESTS = {
    "pipeline": "1accc90fbf94af0089d2f9cbde0ce20e1a8b0b037c2e9c3c8db4d784c657386a",
    "mesh": "88f559a6978c35469e41e5a2d4913d9058a5835be619d4753f5b588be5f87052",
    "churn-lossy": "ddaea4c0370d3bb91a6b76d0cec5b58ed98cb147a41719c88ce5dc946ea0a7fb",
}


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("benchmark_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.WORKLOADS


def test_every_workload_is_pinned(workloads):
    assert sorted(workloads) == sorted(WORKLOAD_DIGESTS)


@pytest.mark.parametrize("name", sorted(WORKLOAD_DIGESTS))
def test_workload_digest_pinned(workloads, name):
    result = Simulation(parse_scenario(workloads[name].scenario(7))).run()
    assert result.breaches == []
    assert result.digest_hex == WORKLOAD_DIGESTS[name]


# Ed25519 operations in the ``pipeline`` seed-7 transfer window (set-up
# excluded) with one disclosure signed per subject and held while its
# certificate validates: 1,309 disclosures about 60 subjects.
PIPELINE_SIGN_BUDGET = 1_578
PIPELINE_VERIFY_MISS_BUDGET = 1_618


def test_pipeline_ed25519_budget(workloads, monkeypatch):
    """Signs, and verifies that miss the memo, stay within budget."""
    workload = workloads["pipeline"]
    monkeypatch.setattr(crypto, "_verified", OrderedDict())
    sim = Simulation(parse_scenario(workload.scenario(7)))
    for tick in range(workload.first_transfer_tick):
        sim.advance_to(tick)
    signs = count_calls(monkeypatch, crypto, "sign")
    misses = count_calls(monkeypatch, crypto.Ed25519PublicKey, "from_public_bytes")
    sim.run()
    assert len(signs) <= PIPELINE_SIGN_BUDGET
    assert len(misses) <= PIPELINE_VERIFY_MISS_BUDGET
