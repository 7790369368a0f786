import importlib.util
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from vaspnet import crypto
from vaspnet.ca import CertificateAuthority
from vaspnet.scenario import parse_scenario


@pytest.fixture(scope="session")
def workloads():
    """``benchmark/workloads.py``'s workloads by name, loaded from its file."""
    path = Path(__file__).resolve().parent.parent / "benchmark" / "workloads.py"
    spec = importlib.util.spec_from_file_location("benchmark_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.WORKLOADS


@pytest.fixture
def rng():
    return random.Random(0xA11CE)


@pytest.fixture
def root_ca(rng):
    ca = CertificateAuthority("ca-test", crypto.keypair_from_label("ca", "ca-test"), rng)
    ca.self_sign_root(0, 1_000_000)
    return ca


def count_calls(monkeypatch, target, name):
    """Wrap ``target.name`` for the test; return the list of call arguments."""
    calls = []
    real = getattr(target, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(target, name, counting)
    return calls


def record_sends(sim, monkeypatch, kinds):
    """Record (tick, src, dst, kind, payload) of every send of ``kinds``;
    the sends still go out."""
    sent = []
    send = sim.send

    def recording_send(src, dst, kind, payload):
        if kind in kinds:
            sent.append((sim.now, src, dst, kind, payload))
        send(src, dst, kind, payload)

    monkeypatch.setattr(sim, "send", recording_send)
    return sent


def make_scenario(
    seed=7,
    networks=("net-a",),
    cas=("ca-1",),
    vasps=None,
    peering=(),
    customers=None,
    suspect_entries=(),
    script=(),
    **overrides,
):
    """Programmatic scenario builder mirroring the YAML schema."""
    network_ids = [n["network_id"] if isinstance(n, dict) else n for n in networks]
    if vasps is None:
        vasps = [
            {"vasp_id": "v1", "ca": "ca-1", "networks": network_ids},
            {"vasp_id": "v2", "ca": "ca-1", "networks": network_ids},
        ]
    if customers is None:
        customers = [
            {"customer_id": "alice", "vasp": "v1", "custody_model": "mediated",
             "attributes": {"name": "Alice", "email": "alice@example"}},
            {"customer_id": "bob", "vasp": "v2", "custody_model": "mediated",
             "attributes": {"name": "Bob", "email": "bob@example"}},
        ]
    data = {
        "seed": seed,
        "networks": [
            n if isinstance(n, dict) else {"network_id": n} for n in networks
        ],
        "cas": [c if isinstance(c, dict) else {"ca_id": c} for c in cas],
        "vasps": vasps,
        "peering_links": list(peering),
        "customers": customers,
        "suspect_entries": list(suspect_entries),
        "script": list(script),
    }
    data.update(overrides)
    return parse_scenario(data)


def standard_script(extra=()):
    """Open and enroll alice and bob, then run the given extra actions."""
    base = [
        {"tick": 0, "action": "open_account", "customer": "alice"},
        {"tick": 0, "action": "open_account", "customer": "bob"},
        {"tick": 1, "action": "enroll", "customer": "alice"},
        {"tick": 1, "action": "enroll", "customer": "bob"},
    ]
    return base + list(extra)
