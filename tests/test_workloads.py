"""Event-log digests of the benchmark workloads, pinned at full size.

The workloads carry what the tracked scenarios do not: revocation churn
under loss (``churn-lossy``) and 24-VASP gossip around a ring (``mesh``).
A change meant to keep behaviour the same must leave them byte-identical.
Each run's messages per kind are pinned too, so a gossip change shows its
traffic here, and each run holds an Ed25519 budget.
"""

import ast
import inspect
import textwrap
from collections import Counter
from pathlib import Path

import pytest

from conftest import count_calls, record_sends
from vaspnet import crypto
from vaspnet.harness import Simulation
from vaspnet.network import (
    SYNC_PERIOD,
    DirectoryAnnounce,
    DirectorySnapshot,
    ReachabilityAdvertisement,
    heartbeat_partner,
)
from vaspnet.cli import load_scenario
from vaspnet.scenario import parse_scenario
from vaspnet.accounts import CustodyModel
from vaspnet.transfer import OutcomeStatus, ReconciliationReport, RecordRole, RecordStatus
from vaspnet.vasp import VaspNode

WORKLOAD_DIGESTS = {
    "pipeline": "efc430e7fda8632e8cfa7d3217ef66bc2e13f13ad39d47cb4b94f3a2c0b6c6a7",
    "mesh": "b8b58df6d725b38d8f4094826a7ec3be0d9dfbeb22a3342fa3ee3fd37ef828cf",
    "churn-lossy": "e0279fbedc6eae3474a723ccb47740abe22d322184387ef06fd599ed3f90b94e",
}
# All three last re-pinned when the notice and the ack came to carry an
# unsigned disclosure inside their own signed payload: their bytes moved, no
# assertion id is drawn on the transfer path any more, so every id drawn
# after one moved, and ``tx_submitted`` dropped its ``binding`` detail, a
# copy of ``tx``. No message, tick or outcome moved.


# ``Metrics.as_pairs()`` of each seed-7 run. The metrics are counted from the
# event log, so a change that keeps the digests keeps these too, except
# ``messages_sent``, which is counted beside the log.
WORKLOAD_METRICS = {
    "churn-lossy": {
        "transfers_attempted": "800", "transfers_confirmed": "577",
        "transfers_denied_total": "223", "transfers_in_flight": "0",
        "resolution_success_rate": "0.9725", "mean_resolution_hops": "1.3368",
        "advertisements_accepted": "52", "advertisements_dropped": "0",
        "messages_sent": "2032", "messages_dropped": "205", "ledger_transactions": "577",
        "audit_violations": "0", "reconciliation_orphans": "0",
        "unconfirmed_records": "72", "directory_convergence_tick": "435",
        "final_tick": "479", "denied.BeneficiaryUnresolved": "22",
        "denied.CertInvalid": "64", "denied.ChannelTimeout": "137",
    },
    "mesh": {
        "transfers_attempted": "200", "transfers_confirmed": "200",
        "transfers_denied_total": "0", "transfers_in_flight": "0",
        "resolution_success_rate": "1.0000", "mean_resolution_hops": "2.2800",
        "advertisements_accepted": "28", "advertisements_dropped": "21",
        "messages_sent": "700", "messages_dropped": "0", "ledger_transactions": "200",
        "audit_violations": "0", "reconciliation_orphans": "0", "unconfirmed_records": "0",
        "directory_convergence_tick": "13", "final_tick": "199",
    },
    "pipeline": {
        "transfers_attempted": "500", "transfers_confirmed": "500",
        "transfers_denied_total": "0", "transfers_in_flight": "0",
        "resolution_success_rate": "1.0000", "mean_resolution_hops": "1.3400",
        "advertisements_accepted": "3", "advertisements_dropped": "0",
        "messages_sent": "1025", "messages_dropped": "0", "ledger_transactions": "500",
        "audit_violations": "0", "reconciliation_orphans": "0", "unconfirmed_records": "0",
        "directory_convergence_tick": "13", "final_tick": "204",
    },
}


def test_every_workload_is_pinned(workloads):
    assert sorted(workloads) == sorted(WORKLOAD_DIGESTS)


@pytest.mark.parametrize("name", sorted(WORKLOAD_DIGESTS))
def test_workload_digest_pinned(workloads, name):
    result = Simulation(parse_scenario(workloads[name].scenario(7))).run()
    assert result.breaches == []
    assert result.digest_hex == WORKLOAD_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(WORKLOAD_METRICS))
def test_workload_metrics_pinned(workloads, name):
    result = Simulation(parse_scenario(workloads[name].scenario(7))).run()
    assert dict(result.metrics.as_pairs()) == WORKLOAD_METRICS[name]


# Ed25519 signs and verifications, and key derivations, in each seed-7
# transfer window (set-up excluded), at their exact counts. A notice or ack
# carries its disclosure unsigned, under its own one signature; only a query
# answer's assertion signs one, once per subject while its certificate
# validates. ``mesh`` has no directory change and no revocation, so
# heartbeats and link digests, signed when their content changes, are signed
# before it, and no CA issues a CRL in it. ``churn-lossy`` opens 71 accounts
# holding a new key in its window, so derives 71 keys; the others derive
# none, so every key they sign with was derived in set-up. ``crypto.verify``
# runs only when ``crypto.check`` misses its memo, so its calls are the
# verifications.
ED25519_BUDGETS = {
    "pipeline": {"signs": 1_560, "verifies": 1_600, "derivations": 0},
    "mesh": {"signs": 750, "verifies": 988, "derivations": 0},
    "churn-lossy": {"signs": 2_669, "verifies": 2_438, "derivations": 71},
}


@pytest.mark.parametrize("name", sorted(ED25519_BUDGETS))
def test_ed25519_budget(workloads, name, monkeypatch):
    """Signs, verifications and key derivations stay within budget."""
    workload = workloads[name]
    crypto._encoding.cache_clear()
    crypto._private_key.cache_clear()
    sim = Simulation(parse_scenario(workload.scenario(7)))
    for tick in range(workload.first_transfer_tick):
        sim.advance_to(tick)
    signs = count_calls(monkeypatch, crypto, "sign")
    verifies = count_calls(monkeypatch, crypto, "verify")
    derivations = count_calls(monkeypatch, crypto, "_seed_keypair")
    sim.run()
    budget = ED25519_BUDGETS[name]
    assert len(signs) <= budget["signs"]
    assert len(verifies) <= budget["verifies"]
    assert len(derivations) <= budget["derivations"]


# Messages sent per kind over each whole seed-7 run, dropped ones included.
# No message carries a CRL: members fetch CRLs from the CAs. A node sends a
# peer its heartbeat (``dir_announce`` in a network, ``reach_digest`` over a
# link) only while it is news to the peer or the peer's last heartbeat lists
# less, and never one of the state every node starts from; a node lacking a
# peer's state sends back its own, and one whose peer lists it behind pushes
# its full state (``dir_snapshot``, ``refreshed_routes``). So the last
# change of ``pipeline`` and ``mesh`` (set-up) is followed by a few
# heartbeats and digests, and then by none.
WORKLOAD_MESSAGES = {
    "pipeline": {"dir_announce": 12, "dir_delta": 8, "dir_snapshot": 0, "reach_adv": 3,
                 "reach_digest": 2, "refreshed_routes": 0,
                 "transfer_ack": 500, "transfer_notice": 500},
    "mesh": {"dir_announce": 120, "dir_delta": 120, "dir_snapshot": 0, "reach_adv": 43,
             "reach_digest": 14, "refreshed_routes": 3,
             "transfer_ack": 200, "transfer_notice": 200},
    "churn-lossy": {"dir_announce": 293, "dir_delta": 255, "dir_snapshot": 30,
                    "reach_adv": 56, "reach_digest": 32, "refreshed_routes": 3,
                    "transfer_ack": 649, "transfer_notice": 714},
}


@pytest.mark.parametrize("name", sorted(WORKLOAD_MESSAGES))
def test_workload_traffic_pinned(workloads, name, monkeypatch):
    sim = Simulation(parse_scenario(workloads[name].scenario(7)))
    sent = Counter()
    send = sim.send

    def counting_send(src, dst, kind, payload):
        sent[kind] += 1
        send(src, dst, kind, payload)

    monkeypatch.setattr(sim, "send", counting_send)
    sim.run()
    pinned = WORKLOAD_MESSAGES[name]
    assert {kind: sent[kind] for kind in pinned} == pinned
    assert sum(sent.values()) == sum(pinned.values())


def test_churn_heartbeats_signed_only_when_their_content_moves(workloads, monkeypatch):
    """``churn-lossy`` seed 7 signs at most 164 directory heartbeats in its
    transfer window. A heartbeat is re-signed when its version or a listed
    view version moves; a revocation changes none, since it carries no
    revocation state."""
    workload = workloads["churn-lossy"]
    sim = Simulation(parse_scenario(workload.scenario(7)))
    for tick in range(workload.first_transfer_tick):
        sim.advance_to(tick)
    sealed = count_calls(monkeypatch, crypto, "seal")
    sim.run()
    assert len([draft for _, draft in sealed if isinstance(draft, DirectoryAnnounce)]) <= 164


DENIALS_YAML = Path(__file__).resolve().parent.parent / "scenarios" / "denials.yaml"


@pytest.mark.parametrize("name", [*sorted(WORKLOAD_DIGESTS), "denials"])
def test_outcome_and_record_agree(workloads, name):
    """Each scripted transfer's outcome and its originator record tell the
    same story, and every record is filed once under its binding."""
    if name == "denials":
        scenario = load_scenario(DENIALS_YAML)
    else:
        scenario = parse_scenario(workloads[name].scenario(7))
    sim = Simulation(scenario)
    sim.run()
    checked = 0
    for scripted in sim.scripted_transfers:
        outcome = scripted.outcome
        if outcome.record_id is None:
            continue
        record = sim.vasps[scripted.origin_vasp].records[outcome.record_id]
        assert record.role is RecordRole.ORIGINATOR_SIDE
        if outcome.status is OutcomeStatus.DENIED:
            assert record.status is RecordStatus.FAILED
            assert record.failure_reason.startswith(outcome.denial.code.value)
        elif outcome.status is OutcomeStatus.BROADCAST:
            assert record is outcome.record
            assert record.status in (RecordStatus.PENDING_CHAIN, RecordStatus.CONFIRMED)
        else:
            assert record.status is RecordStatus.PENDING_ACK
        checked += 1
    assert checked
    for node in sim.vasps.values():
        filed = Counter(rid for rids in node.transfers._records_by_binding.values() for rid in rids)
        assert filed == dict.fromkeys(node.records, 1)


SCENARIO_FILES = {p.stem: p for p in DENIALS_YAML.parent.glob("*.yaml")}


def named_scenario(workloads, name):
    """The named workload at seed 7, or the named scenario file."""
    if name in SCENARIO_FILES:
        return load_scenario(SCENARIO_FILES[name])
    return parse_scenario(workloads[name].scenario(7))


@pytest.mark.parametrize("name", [*sorted(WORKLOAD_DIGESTS), *sorted(SCENARIO_FILES)])
def test_gossip_sends_no_empty_first_message(workloads, name, monkeypatch):
    """Every member starts from directory version 0 and every link from an
    empty Adj-RIB-Out, so no delta changes nothing and no first
    advertisement of an origin over a link carries no key hash."""
    sim = Simulation(named_scenario(workloads, name))
    sent = record_sends(sim, monkeypatch, {"dir_delta", "reach_adv"})
    sim.run()
    advertised: set[tuple[str, str, str]] = set()
    for _, src, dst, kind, payload in sent:
        if kind == "dir_delta":
            assert payload.added or payload.removed, (src, payload.to_version)
        elif (src, dst, payload.origin_network_id) not in advertised:
            assert payload.advertised_hashes, (src, dst, payload.origin_network_id)
            advertised.add((src, dst, payload.origin_network_id))


# Directory snapshots and advertisements signed over each whole run (the
# workloads at seed 7). ``batch_race``, ``demo`` and ``mixed_ca`` have no
# peering link and push no snapshot: no member's heartbeat lists another
# behind, revocations included.
SIGNED_SNAPSHOTS_AND_ADVERTISEMENTS = {
    "batch_race": 0, "churn-lossy": 82, "demo": 0, "denials": 1,
    "four_networks": 10, "mesh": 43, "mixed_ca": 0, "pipeline": 3,
}


@pytest.mark.parametrize("name", [*sorted(WORKLOAD_DIGESTS), *sorted(SCENARIO_FILES)])
def test_no_snapshot_or_advertisement_is_signed_unsent(workloads, name, monkeypatch):
    """A directory snapshot is signed on its first push and an advertisement
    when a link is first sent it, so every one signed goes out."""
    sim = Simulation(named_scenario(workloads, name))
    sealed = []
    seal = crypto.seal

    def recording_seal(key, draft):
        signed = seal(key, draft)
        if isinstance(signed, (DirectorySnapshot, ReachabilityAdvertisement)):
            sealed.append(signed)
        return signed

    monkeypatch.setattr(crypto, "seal", recording_seal)
    sent = record_sends(sim, monkeypatch, {"dir_snapshot", "reach_adv", "refreshed_routes"})
    sim.run()
    out = set()
    for _, _, _, kind, payload in sent:
        out.update(payload if kind == "refreshed_routes" else (payload,))
    assert len(sealed) == SIGNED_SNAPSHOTS_AND_ADVERTISEMENTS[name]
    assert [s for s in sealed if s not in out] == []


def test_member_certifying_no_key_heartbeats_version_0(workloads, monkeypatch):
    """``pipeline``'s v3 holds only commingled customers, so it certifies no
    key: it never publishes, and heartbeats version 0, which brings no
    push. Every member starts from the heartbeat listing every directory at
    version 0, so v3 sends none until its co-members' deltas of tick 10
    reach it. Then it heartbeats the period's partner until every co-member
    holds its current heartbeat (tick 30), and then never again. Each
    co-member holds its view at version 0."""
    sim = Simulation(parse_scenario(workloads["pipeline"].scenario(7)))
    sent = record_sends(sim, monkeypatch, {"dir_announce", "dir_delta", "dir_snapshot"})
    sim.run()
    v3 = sim.vasps["v3"]
    assert {a.custody_model for a in v3.book.accounts.values()} == {CustodyModel.COMMINGLED}
    network = sim.networks["net-a"]
    heartbeats = [(tick, dst, payload) for tick, src, dst, kind, payload in sent
                  if src == "v3" and kind == "dir_announce"]
    assert [tick for tick, _, _ in heartbeats] == [20, 30]
    assert all(dst == heartbeat_partner(network, "v3", tick // SYNC_PERIOD)
               for tick, dst, _ in heartbeats)
    assert {p.version for _, _, p in heartbeats} == {0}
    current = v3.directory.gossip.heartbeats["net-a"]
    assert {dst for _, dst, p in heartbeats if p is current} == set(network.members) - {"v3"}
    # Nothing in the run pushes a directory, and v3 sends nothing but heartbeats.
    assert [(src, dst, kind) for _, src, dst, kind, _ in sent
            if kind == "dir_snapshot" or (src == "v3" and kind != "dir_announce")] == []
    for member_id in network.member_ids():
        if member_id != "v3":
            view = sim.vasps[member_id].directory.views
            assert "v3" in view and (view["v3"].version, view["v3"].entries) == (0, frozenset())


def test_quiet_world_falls_silent(workloads, monkeypatch):
    """``mesh`` publishes every directory in set-up (tick 10) and never
    again, and its routes settle soon after. Once every heartbeat has
    reached every peer, no member heartbeats and no link carries a digest
    after tick 60, though transfers run until the last tick."""
    sim = Simulation(parse_scenario(workloads["mesh"].scenario(7)))
    sent = record_sends(sim, monkeypatch, {"dir_announce", "dir_delta", "reach_digest",
                                           "transfer_notice"})
    sim.run()
    assert {tick for tick, _, _, kind, _ in sent if kind == "dir_delta"} == {10}
    assert [(tick, kind) for tick, _, _, kind, _ in sent
            if tick > 60 and kind in ("dir_announce", "reach_digest")] == []
    assert max(tick for tick, _, _, kind, _ in sent if kind == "transfer_notice") > 150


@pytest.mark.parametrize("seed", [3, 7])
def test_quiet_world_falls_silent_under_loss(workloads, monkeypatch, seed):
    """With one message in ten lost, a member whose heartbeat to a peer is
    lost stays listed there as behind. The peer sends its own heartbeat
    again, each period once a rotation has passed, and the member, lacking
    nothing, answers; so ``mesh`` falls silent as well, and ticks 150 to 199
    carry no heartbeat and no digest."""
    data = workloads["mesh"].scenario(seed)
    data["defaults"] = {**data.get("defaults", {}), "drop_probability": 0.1}
    sim = Simulation(parse_scenario(data))
    sent = record_sends(sim, monkeypatch, {"dir_announce", "reach_digest"})
    sim.run()
    assert any(e.event == "message_dropped" for e in sim.log_.entries)
    assert [(tick, src, dst, kind) for tick, src, dst, kind, _ in sent
            if 150 <= tick <= 199] == []


def _dispatched_kinds() -> set[str]:
    """The message kinds ``VaspNode.on_message`` compares ``kind`` with."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(VaspNode.on_message)))
    return {node.comparators[0].value for node in ast.walk(tree)
            if isinstance(node, ast.Compare) and getattr(node.left, "id", None) == "kind"}


def test_every_message_kind_sent_is_dispatched_and_no_other(workloads, monkeypatch):
    """Over seed 7 of every workload and every tracked scenario, the kinds
    sent are exactly the kinds a node dispatches, and no message is ignored,
    so a kind no run sends cannot stay behind as an unreached branch."""
    kinds = set()
    for name in [*sorted(WORKLOAD_DIGESTS), *sorted(SCENARIO_FILES)]:
        sim = Simulation(named_scenario(workloads, name))
        send = sim.send

        def noting_send(src, dst, kind, payload, send=send):
            kinds.add(kind)
            send(src, dst, kind, payload)

        monkeypatch.setattr(sim, "send", noting_send)
        sim.run()
        assert [e for e in sim.log_.entries if e.event == "message_ignored"] == [], name
    assert kinds == _dispatched_kinds()
    assert "dir_pull" not in kinds and "route_refresh" not in kinds


@pytest.mark.parametrize("name", [*sorted(WORKLOAD_DIGESTS), *sorted(SCENARIO_FILES)])
def test_reconciliation_equals_a_full_ledger_scan(workloads, name):
    """Each VASP's report, read through the chain's index by key, equals the
    one a scan of the whole ledger for the VASP's known keys gives."""
    sim = Simulation(named_scenario(workloads, name))
    sim.run()
    ledger = sim.chain.confirmed_transactions()
    for vasp_id, node in sorted(sim.vasps.items()):
        keys = node.known_keys()
        records = node.transfers.records.values()
        confirmed = {r.notice.intended_chain_tx_binding for r in records
                     if r.status is RecordStatus.CONFIRMED}
        mine = [tx.tx_id for tx, _ in ledger
                if tx.from_public_key in keys or tx.to_public_key in keys]
        unconfirmed = tuple(sorted(
            record_id for record_id, r in node.transfers.records.items()
            if r.status in (RecordStatus.PENDING_ACK, RecordStatus.PENDING_CHAIN)))
        assert node.reconcile() == ReconciliationReport(
            matched=sum(tx_id in confirmed for tx_id in mine),
            orphan_chain_txs=tuple(tx_id for tx_id in mine if tx_id not in confirmed),
            unconfirmed_records=unconfirmed,
        ), (name, vasp_id)
