"""Seeded workload generators for the vaspnet benchmark.

Each generator turns a workload seed into a scenario mapping for the public
``parse_scenario`` API; the simulation seed inside it is derived from the
same workload seed, so one seed fixes every byte of a run. The script is an
open loop in simulated time: transfers fire at fixed ticks whatever has
completed before them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable

MODELS = ("mediated", "key-custody", "commingled")


@dataclass(frozen=True)
class Workload:
    name: str
    transfers: int
    """Transfer count of a benchmark run: it fixes the run length."""
    first_transfer_tick: int
    expected_denials: frozenset[str]
    """Denial reasons the workload provokes on purpose; any other denial is a
    failed operation. With none, every attempted transfer must confirm."""
    build: Callable[[int, int], dict[str, Any]]

    def scenario(self, seed: int, transfers: int | None = None) -> dict[str, Any]:
        return self.build(seed, self.transfers if transfers is None else transfers)


def _customer(customer_id: str, vasp: str, model: str) -> dict[str, Any]:
    return {
        "customer_id": customer_id, "vasp": vasp, "custody_model": model,
        "attributes": {"name": f"Customer {customer_id}", "email": f"{customer_id}@x"},
    }


def _transfer(tick: int, origin: str, target: str, rng: random.Random) -> dict[str, Any]:
    return {
        "tick": tick, "action": "transfer", "origin": origin,
        "target": {"customer": target}, "amount": rng.randrange(1, 1_000_000),
        "asset": "coin",
    }


def _pick_pair(rng: random.Random, pool: list[str]) -> tuple[str, str]:
    origin = rng.choice(pool)
    target = rng.choice(pool)
    while target == origin:
        target = rng.choice(pool)
    return origin, target


def _open_and_enroll(customers: list[dict[str, Any]], open_tick: int) -> list[dict[str, Any]]:
    script = [{"tick": open_tick, "action": "open_account", "customer": c["customer_id"]}
              for c in customers]
    script += [{"tick": open_tick + 1, "action": "enroll", "customer": c["customer_id"]}
               for c in customers if c["custody_model"] != "commingled"]
    return script


def build_pipeline(seed: int, transfers: int) -> dict[str, Any]:
    rng = random.Random(f"pipeline:{seed}")
    vasps = [{"vasp_id": f"v{i}", "ca": "ca-1" if i <= 3 else "ca-2",
              "networks": ["net-a" if i <= 3 else "net-b"]} for i in range(1, 7)]
    customers = [_customer(f"c{i:02d}", f"v{i % 6 + 1}", MODELS[i % 3]) for i in range(60)]
    pool = [c["customer_id"] for c in customers]
    script = _open_and_enroll(customers, 0)
    for n in range(transfers):
        script.append(_transfer(PIPELINE.first_transfer_tick + n // 4, *_pick_pair(rng, pool), rng))
    return {
        "seed": rng.getrandbits(48),
        "networks": [{"network_id": "net-a"}, {"network_id": "net-b"}],
        "cas": [{"ca_id": "ca-1"}, {"ca_id": "ca-2"}],
        "vasps": vasps,
        "peering_links": [{"vasp_a": "v3", "network_a": "net-a",
                           "vasp_b": "v4", "network_b": "net-b"}],
        "customers": customers,
        "script": script,
    }


def build_mesh(seed: int, transfers: int) -> dict[str, Any]:
    rng = random.Random(f"mesh:{seed}")
    networks = [f"net-{n}" for n in range(4)]
    vasps = [{"vasp_id": f"m{n}-{k}", "ca": f"ca-{n}", "networks": [networks[n]]}
             for n in range(4) for k in range(6)]
    # Ring: the last VASP of each network peers with the first of the next.
    peering = [{"vasp_a": f"m{n}-5", "network_a": networks[n],
                "vasp_b": f"m{(n + 1) % 4}-0", "network_b": networks[(n + 1) % 4]}
               for n in range(4)]
    customers = [_customer(f"c{i:04d}", vasps[i % 24]["vasp_id"], MODELS[(i // 24) % 3])
                 for i in range(1200)]
    pool = [c["customer_id"] for c in customers]
    script = _open_and_enroll(customers, 0)
    for n in range(transfers):
        script.append(_transfer(MESH.first_transfer_tick + n // 2, *_pick_pair(rng, pool), rng))
    return {
        "seed": rng.getrandbits(48),
        "networks": [{"network_id": n} for n in networks],
        "cas": [{"ca_id": f"ca-{n}"} for n in range(4)],
        "vasps": vasps,
        "peering_links": peering,
        "customers": customers,
        "script": script,
    }


def build_churn_lossy(seed: int, transfers: int) -> dict[str, Any]:
    rng = random.Random(f"churn-lossy:{seed}")
    vasps = [{"vasp_id": f"w{i}", "ca": "ca-1" if i <= 4 else "ca-2",
              "networks": ["net-a" if i <= 4 else "net-b"]} for i in range(1, 9)]
    customers = [_customer(f"c{i:03d}", f"w{i % 8 + 1}", MODELS[i % 3]) for i in range(200)]
    start = CHURN_LOSSY.first_transfer_tick
    last_tick = start + (transfers - 1) // 2
    # Half the customers open at tick 0; the rest open (and enrol the next
    # tick) at seeded ticks spread over the transfer window.
    late = set(rng.sample(range(200), 100))
    ready_at: dict[str, int] = {}
    events: list[tuple[int, int, dict[str, Any]]] = []
    for i, c in enumerate(customers):
        cid = c["customer_id"]
        opened = rng.randrange(start, max(start + 1, last_tick - 20)) if i in late else 0
        events.append((opened, 0, {"action": "open_account", "customer": cid}))
        if c["custody_model"] != "commingled":
            events.append((opened + 1, 1, {"action": "enroll", "customer": cid}))
        ready_at[cid] = opened + 2
    revocable = sorted((ready_at[c["customer_id"]], c["customer_id"]) for c in customers
                       if c["custody_model"] != "commingled")
    revoked: set[str] = set()
    for tick in range(start + 25, last_tick + 1, 25):
        candidates = [cid for ready, cid in revocable if ready <= tick and cid not in revoked]
        cid = rng.choice(candidates)
        revoked.add(cid)
        events.append((tick, 2, {"action": "revoke_cert", "customer": cid,
                                 "reason": "keyCompromise"}))
    # Origins have held a certificate for a tick; targets only need an open
    # account, so freshly enrolled ones race the directory gossip.
    all_ids = [c["customer_id"] for c in customers]
    for n in range(transfers):
        tick = start + n // 2
        origin = rng.choice([cid for cid in all_ids if ready_at[cid] <= tick])
        targets = [cid for cid in all_ids if ready_at[cid] - 2 <= tick and cid != origin]
        events.append((tick, 3, _transfer(tick, origin, rng.choice(targets), rng)))
    events.sort(key=lambda e: (e[0], e[1]))
    script = [{"tick": tick, **action} for tick, _order, action in events]
    return {
        "seed": rng.getrandbits(48),
        "defaults": {"drop_probability": 0.1},
        "networks": [{"network_id": "net-a"}, {"network_id": "net-b"}],
        "cas": [{"ca_id": "ca-1"}, {"ca_id": "ca-2"}],
        "vasps": vasps,
        "peering_links": [{"vasp_a": "w4", "network_a": "net-a",
                           "vasp_b": "w5", "network_b": "net-b"}],
        "customers": customers,
        "script": script,
    }


PIPELINE = Workload(
    name="pipeline",
    transfers=500, first_transfer_tick=40,
    expected_denials=frozenset(), build=build_pipeline,
)
MESH = Workload(
    name="mesh",
    transfers=200, first_transfer_tick=60,
    expected_denials=frozenset(), build=build_mesh,
)
CHURN_LOSSY = Workload(
    name="churn-lossy",
    transfers=800, first_transfer_tick=40,
    expected_denials=frozenset({"ChannelTimeout", "CertInvalid", "BeneficiaryUnresolved",
                                "AckRejected"}),
    build=build_churn_lossy,
)

WORKLOADS = {w.name: w for w in (PIPELINE, MESH, CHURN_LOSSY)}
