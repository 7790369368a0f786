"""Event-log digests of the benchmark workloads, pinned at full size.

The workloads carry what the tracked scenarios do not: revocation churn
under loss (``churn-lossy``) and 24-VASP gossip around a ring (``mesh``).
A change meant to keep behaviour the same must leave them byte-identical.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

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
