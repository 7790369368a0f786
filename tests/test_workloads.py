"""Event-log digests of the benchmark workloads, pinned at full size.

The workloads carry what the tracked scenarios do not: revocation churn
under loss (``churn-lossy``) and 24-VASP gossip around a ring (``mesh``).
A change meant to keep behaviour the same must leave them byte-identical.
Each run's messages per kind are pinned too, so a gossip change shows its
traffic here, and the ``pipeline`` and ``mesh`` runs hold Ed25519 budgets.
"""

import importlib.util
import sys
from collections import Counter
from pathlib import Path

import pytest

from conftest import count_calls, record_sends
from vaspnet import crypto
from vaspnet.harness import Simulation
from vaspnet.network import (
    DirectoryAnnounce,
    DirectorySnapshot,
    ReachabilityAdvertisement,
    directory_digest,
    heartbeat_partner,
)
from vaspnet.scenario import load_scenario, parse_scenario
from vaspnet.accounts import CustodyModel
from vaspnet.transfer import OutcomeStatus, RecordRole, RecordStatus

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "benchmark" / "workloads.py"

WORKLOAD_DIGESTS = {
    "pipeline": "bb9cf937fb7036f93b03293d97499b8a52a84e10d487d7c917dca807783e42f8",
    "mesh": "9c12f967bb86c9abb0fd7a0a0fc33280d510bf3058352dd6aae66427384d4736",
    "churn-lossy": "9540e1bd411ba9e52d63bbccea3a37793854c109de20d1e166abdd2a2643ff27",
}
# All three last re-pinned when a member stopped heartbeating a partner that
# already holds its heartbeat and lists every version it lists, so a quiet
# network falls silent (``dir_announce`` 122 -> 20, 456 -> 144 and
# 299 -> 285). Each link draws its latencies and losses from one stream, one
# draw per message sent, so every later draw on a link that carried fewer
# heartbeats moved: delivery ticks in all three, and outcomes and metrics in
# ``churn-lossy``.


# ``Metrics.as_pairs()`` of each seed-7 run. The metrics are counted from the
# event log, so a change that keeps the digests keeps these too, except
# ``messages_sent``, which is counted beside the log.
WORKLOAD_METRICS = {
    "churn-lossy": {
        "transfers_attempted": "800", "transfers_confirmed": "579",
        "transfers_denied_total": "221", "transfers_in_flight": "0",
        "resolution_success_rate": "0.9712", "mean_resolution_hops": "1.3359",
        "advertisements_accepted": "49", "advertisements_dropped": "7",
        "messages_sent": "2064", "messages_dropped": "208", "ledger_transactions": "579",
        "audit_violations": "0", "reconciliation_orphans": "0", "unconfirmed_records": "66",
        "directory_convergence_tick": "437", "final_tick": "479",
        "denied.BeneficiaryUnresolved": "23", "denied.CertInvalid": "63",
        "denied.ChannelTimeout": "135",
    },
    "mesh": {
        "transfers_attempted": "200", "transfers_confirmed": "200",
        "transfers_denied_total": "0", "transfers_in_flight": "0",
        "resolution_success_rate": "1.0000", "mean_resolution_hops": "2.2800",
        "advertisements_accepted": "28", "advertisements_dropped": "21",
        "messages_sent": "776", "messages_dropped": "0", "ledger_transactions": "200",
        "audit_violations": "0", "reconciliation_orphans": "0", "unconfirmed_records": "0",
        "directory_convergence_tick": "13", "final_tick": "199",
    },
    "pipeline": {
        "transfers_attempted": "500", "transfers_confirmed": "500",
        "transfers_denied_total": "0", "transfers_in_flight": "0",
        "resolution_success_rate": "1.0000", "mean_resolution_hops": "1.3400",
        "advertisements_accepted": "3", "advertisements_dropped": "0",
        "messages_sent": "1049", "messages_dropped": "0", "ledger_transactions": "500",
        "audit_violations": "0", "reconciliation_orphans": "0", "unconfirmed_records": "0",
        "directory_convergence_tick": "13", "final_tick": "204",
    },
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


@pytest.mark.parametrize("name", sorted(WORKLOAD_METRICS))
def test_workload_metrics_pinned(workloads, name):
    result = Simulation(parse_scenario(workloads[name].scenario(7))).run()
    assert dict(result.metrics.as_pairs()) == WORKLOAD_METRICS[name]


# Ed25519 signs and verifications in each seed-7 transfer window (set-up
# excluded). ``pipeline`` signs one disclosure per subject and holds it while
# its certificate validates: 1,309 disclosures about 60 subjects. ``mesh`` has
# no directory change and no revocation, so heartbeats and link digests, signed
# when their content changes, are signed before it, and no CA issues a CRL in
# it. ``crypto.verify`` runs only when ``crypto.check`` misses its memo, so its
# calls are the verifications.
ED25519_BUDGETS = {
    "pipeline": {"signs": 1_560, "verifies": 1_600},
    "mesh": {"signs": 939, "verifies": 1_177},
}


@pytest.mark.parametrize("name", sorted(ED25519_BUDGETS))
def test_ed25519_budget(workloads, name, monkeypatch):
    """Signs and verifications stay within budget, and every private key the
    window signs or derives with was derived in set-up."""
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
    assert len(signs) <= ED25519_BUDGETS[name]["signs"]
    assert len(verifies) <= ED25519_BUDGETS[name]["verifies"]
    assert derivations == []


# Messages sent per kind over each whole seed-7 run, dropped ones included.
# No message carries a CRL: members fetch CRLs from the CAs. A sync period
# sends each peering link one digest, unless a change went instead; a digest
# that differs brings a route refresh (``route_refresh``, answered or pushed
# as ``refreshed_routes``). A member heartbeats its partner of the period
# only while that partner could pull from it or lacks its heartbeat, so the
# last directory change of ``pipeline`` and ``mesh`` (set-up) is followed by
# one heartbeat per member and co-member, and then by none.
WORKLOAD_MESSAGES = {
    "pipeline": {"dir_announce": 20, "dir_delta": 8, "reach_adv": 3, "reach_digest": 18,
                 "route_refresh": 0, "refreshed_routes": 0,
                 "transfer_ack": 500, "transfer_notice": 500},
    "mesh": {"dir_announce": 144, "dir_delta": 120, "reach_adv": 43, "reach_digest": 64,
             "route_refresh": 2, "refreshed_routes": 3,
             "transfer_ack": 200, "transfer_notice": 200},
    "churn-lossy": {"dir_announce": 285, "dir_delta": 255, "dir_pull": 45,
                    "dir_snapshot": 39, "reach_adv": 55, "reach_digest": 18,
                    "route_refresh": 0, "refreshed_routes": 8,
                    "transfer_ack": 645, "transfer_notice": 714},
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
# peering link and pull no snapshot: a held view matches its owner's heartbeat, revocations
# included.
SIGNED_SNAPSHOTS_AND_ADVERTISEMENTS = {
    "batch_race": 0, "churn-lossy": 84, "demo": 0, "denials": 1, "four_networks": 10,
    "mesh": 43, "mixed_ca": 0, "pipeline": 3,
}


@pytest.mark.parametrize("name", [*sorted(WORKLOAD_DIGESTS), *sorted(SCENARIO_FILES)])
def test_no_snapshot_or_advertisement_is_signed_unsent(workloads, name, monkeypatch):
    """A directory snapshot is signed on its first pull and an advertisement
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
    key: it never publishes, and heartbeats version 0 and the empty set's
    digest, which makes no member pull. It heartbeats the period's partner
    until every co-member holds its current heartbeat and lists what it
    lists (tick 30), and then never again. Each co-member holds its view at
    version 0."""
    sim = Simulation(parse_scenario(workloads["pipeline"].scenario(7)))
    sent = record_sends(sim, monkeypatch, {"dir_announce", "dir_delta", "dir_pull", "dir_snapshot"})
    sim.run()
    v3 = sim.vasps["v3"]
    assert {a.custody_model for a in v3.book.accounts.values()} == {CustodyModel.COMMINGLED}
    network = sim.networks["net-a"]
    period = network.rules.directory_sync_period
    heartbeats = [(tick, dst, payload) for tick, src, dst, kind, payload in sent
                  if src == "v3" and kind == "dir_announce"]
    assert [tick for tick, _, _ in heartbeats] == list(range(0, 31, period))
    assert all(dst == heartbeat_partner(network, "v3", tick // period)
               for tick, dst, _ in heartbeats)
    assert {(p.version, p.entries_digest) for _, _, p in heartbeats} == {
        (0, directory_digest(frozenset()))}
    current = v3.directory._announces["net-a"]
    assert {dst for _, dst, p in heartbeats if p is current} == set(network.members) - {"v3"}
    # Nothing in the run pulls a directory, and v3 sends nothing but heartbeats.
    assert [(src, dst, kind) for _, src, dst, kind, _ in sent
            if kind == "dir_pull" or (src == "v3" and kind != "dir_announce")] == []
    for member_id in network.member_ids():
        if member_id != "v3":
            view = sim.vasps[member_id].directory.views
            assert "v3" in view and (view["v3"].version, view["v3"].entries) == (0, frozenset())


def test_quiet_network_falls_silent(workloads, monkeypatch):
    """``mesh`` publishes every directory in set-up (tick 10) and never
    again. Once each member's heartbeat has reached every co-member, no
    member heartbeats, though transfers run until the last tick."""
    sim = Simulation(parse_scenario(workloads["mesh"].scenario(7)))
    sent = record_sends(sim, monkeypatch, {"dir_announce", "dir_delta", "transfer_notice"})
    sim.run()
    assert {tick for tick, _, _, kind, _ in sent if kind == "dir_delta"} == {10}
    assert max(tick for tick, _, _, kind, _ in sent if kind == "dir_announce") <= 80
    assert max(tick for tick, _, _, kind, _ in sent if kind == "transfer_notice") > 150
