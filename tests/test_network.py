"""Trust network behavior: membership, gossip, CRL fetches, path-vector routes."""

import functools
from collections import Counter
from dataclasses import replace

import pytest

import vaspnet.accounts
import vaspnet.network
import vaspnet.vasp
from conftest import count_calls, make_scenario, record_sends, standard_script
from vaspnet import crypto
from vaspnet.ca import CertClass, RevocationReason, RevocationView, ValidationStatus
from vaspnet.harness import MAX_LATENCY, Simulation
from vaspnet.network import (
    CRL_PERIOD,
    SYNC_PERIOD,
    ApplyResult,
    DirectoryAnnounce,
    DirectoryDelta,
    DirectoryEntry,
    DirectorySnapshot,
    DirectoryView,
    MembershipDenied,
    ReachabilityAdvertisement,
    TrustNetwork,
    apply_delta,
    build_advertisement,
    heartbeat_partner,
    routes_digest,
)
from vaspnet.accounts import CustodyModel
from vaspnet.resolution import TransferTarget
from vaspnet.transfer import (AckDecision, DenialCode, DenialReason, OutcomeStatus, RecordStatus,
                              RejectReason)


def two_network_sim(**overrides):
    """net-a: v1, v2(gw); net-b: v3(gw), v4 — one peering link."""
    defaults = dict(
        networks=("net-a", "net-b"),
        cas=("ca-1", "ca-2"),
        vasps=[
            {"vasp_id": "v1", "ca": "ca-1", "networks": ["net-a"]},
            {"vasp_id": "v2", "ca": "ca-1", "networks": ["net-a"]},
            {"vasp_id": "v3", "ca": "ca-2", "networks": ["net-b"]},
            {"vasp_id": "v4", "ca": "ca-2", "networks": ["net-b"]},
        ],
        peering=[{"vasp_a": "v2", "network_a": "net-a",
                  "vasp_b": "v3", "network_b": "net-b"}],
        customers=[
            {"customer_id": "alice", "vasp": "v1", "custody_model": "mediated",
             "attributes": {"name": "Alice", "email": "a@x"}},
            {"customer_id": "bob", "vasp": "v4", "custody_model": "mediated",
             "attributes": {"name": "Bob", "email": "b@x"}},
        ],
        script=standard_script(),
    )
    defaults.update(overrides)
    return Simulation(make_scenario(**defaults))


def mixed_ca_sim(extra_script=(), v4_ca="ca-2", v2_customers=(), cas=("ca-1", "ca-2")):
    """One network whose members hold certificates from two CAs: v1 and v3
    from ca-1, v2 from ca-2 and v4 from ``v4_ca``, in a world of ``cas``.
    Alice banks at v1, bob and the named ``v2_customers`` at v2."""
    vasps = [
        {"vasp_id": "v1", "ca": "ca-1", "networks": ["net-a"]},
        {"vasp_id": "v2", "ca": "ca-2", "networks": ["net-a"]},
        {"vasp_id": "v3", "ca": "ca-1", "networks": ["net-a"]},
        {"vasp_id": "v4", "ca": v4_ca, "networks": ["net-a"]},
    ]
    customers = [
        {"customer_id": "alice", "vasp": "v1", "custody_model": "mediated",
         "attributes": {"name": "Alice", "email": "a@x"}},
        {"customer_id": "bob", "vasp": "v2", "custody_model": "mediated",
         "attributes": {"name": "Bob", "email": "b@x"}},
    ] + [
        {"customer_id": name, "vasp": "v2", "custody_model": "mediated",
         "attributes": {"name": name, "email": f"{name}@x"}}
        for name in v2_customers
    ]
    return Simulation(make_scenario(cas=cas, vasps=vasps, customers=customers,
                                    script=standard_script(extra_script)))


def capture_sends(sim, monkeypatch):
    sent = []
    monkeypatch.setattr(sim, "send", lambda src, dst, kind, payload:
                        sent.append((src, dst, kind, payload)))
    return sent


class TestMembership:
    def test_one_read_only_anchor_map_held_by_every_node_and_network(self):
        sim = two_network_sim()
        anchors = sim.networks["net-a"].recognized_anchors
        holders = [*(n.trust_anchors for n in sim.vasps.values()),
                   *(n.recognized_anchors for n in sim.networks.values())]
        assert len(holders) == 6 and all(held is anchors for held in holders)
        assert dict(anchors) == {ca_id: ca.root_certificate for ca_id, ca in sim.cas.items()}
        with pytest.raises(TypeError):
            anchors["ca-3"] = sim.cas["ca-1"].root_certificate
        assert set(anchors) == {"ca-1", "ca-2"}

    def test_members_map_each_id_to_its_admitted_certificate(self):
        sim = two_network_sim()
        assert sim.networks["net-a"].members == {
            vasp_id: sim.vasps[vasp_id].certificate for vasp_id in ("v1", "v2")}
        assert sim.vasps["v1"].member_certificate("v2") is sim.vasps["v2"].certificate
        assert sim.vasps["v1"].member_certificate("v3") is None

    def test_expired_cert_denied(self):
        sim = two_network_sim()
        network = sim.networks["net-a"]
        cert = sim.vasps["v1"].certificate
        with pytest.raises(MembershipDenied, match="expired"):
            network.join_network(cert, now=cert.validity_not_after + 1)

    def test_revoked_cert_denied(self):
        sim = two_network_sim()
        network = TrustNetwork("net-c", sim.networks["net-a"].recognized_anchors)
        v1 = sim.vasps["v1"]
        v1.ca.revoke(v1.certificate.serial, RevocationReason.CESSATION_OF_OPERATION, 1)
        view = RevocationView()
        view.merge_crl(v1.ca.generate_crl(1))
        with pytest.raises(MembershipDenied, match="revoked"):
            network.join_network(v1.certificate, 2, view)
        assert network.members == {}

    def test_cert_of_an_unrecognised_ca_denied(self):
        sim = two_network_sim()
        # net-c recognises ca-2 only; v1 is certified by ca-1.
        network = TrustNetwork("net-c", {"ca-2": sim.cas["ca-2"].root_certificate})
        with pytest.raises(MembershipDenied, match="unknown-issuer"):
            network.join_network(sim.vasps["v1"].certificate, 0)
        network.join_network(sim.vasps["v3"].certificate, 0)
        assert list(network.members) == ["v3"]

    def test_cert_with_a_bad_signature_denied(self):
        sim = two_network_sim()
        cert = sim.vasps["v1"].certificate
        forged = replace(cert, validity_not_after=cert.validity_not_after + 1)
        with pytest.raises(MembershipDenied, match="bad-signature"):
            TrustNetwork("net-c", sim.networks["net-a"].recognized_anchors).join_network(forged, 0)


class TestDirectoryGossip:
    def test_snapshot_excludes_revoked(self):
        sim = two_network_sim()
        sim.advance_to(2)
        v1 = sim.vasps["v1"]
        extra = v1.open_account("zed", {"name": "Zed", "email": "z@x"},
                                CustodyModel.MEDIATED,
                                customer_wallet=crypto.generate_keypair(crypto.digest(b"zed")),
                                account_id="acct-zed", now=2)
        v1.book.enroll_customer_certificate("acct-zed", CertClass.CLASS1, 2)
        v1.ca.revoke(v1.book.accounts["acct-alice"].certificate_serial,
                     RevocationReason.KEY_COMPROMISE, 3)
        v1.ingest_crls([v1.ca.generate_crl(3)])
        entries = v1.directory_entries(4)
        hashes = {e.public_key_hash for e in entries}
        assert crypto.digest(extra.customer_public_key) in hashes
        assert crypto.digest(v1.book.accounts["acct-alice"].customer_public_key) not in hashes

    def test_empty_publish_still_increments_version(self):
        sim = two_network_sim()
        v3 = sim.vasps["v3"]
        s1 = v3.publish_directory(0)
        s2 = v3.publish_directory(1)
        assert (s1.version, s2.version) == (1, 2)
        assert s2.entries == frozenset()

    def test_no_change_republish_empty_delta(self):
        sim = two_network_sim()
        sim.advance_to(2)
        v1 = sim.vasps["v1"]
        v1.publish_directory(3)
        before = v1.directory._last_snapshot
        snapshot = v1.publish_directory(4)
        assert snapshot.entries == before.entries

    def test_member_that_published_nothing_pushes_no_snapshot(self, monkeypatch):
        sim = two_network_sim()
        sim.advance_to(30)
        v3, v4 = sim.vasps["v3"], sim.vasps["v4"]  # v3 has no customers: still at version 0
        heartbeat = v4.seal(DirectoryAnnounce("v4", "net-b", 1, (("v3", 0),)))
        sent = capture_sends(sim, monkeypatch)
        v3.on_message("dir_announce", heartbeat, "v4")
        assert v3.directory._last_snapshot.version == 0
        assert [kind for _, _, kind, _ in sent if kind == "dir_snapshot"] == []

    def test_in_order_delta_applied(self):
        view = DirectoryView()
        entry = DirectoryEntry(b"\x01" * 16, b"\x02" * 32, "ca-1")
        delta = DirectoryDelta("v9", 0, 1, frozenset({entry}), frozenset())
        assert apply_delta(view, delta) is ApplyResult.APPLIED
        assert view.version == 1 and entry in view.entries

    def test_gap_requires_resync(self):
        view = DirectoryView()
        delta = DirectoryDelta("v9", 2, 3, frozenset(), frozenset())
        assert apply_delta(view, delta) is ApplyResult.RESYNC_REQUIRED
        assert view.version == 0

    def test_overlapping_add_remove_rejected(self):
        entry = DirectoryEntry(b"\x01" * 16, b"\x02" * 32, "ca-1")
        with pytest.raises(ValueError):
            DirectoryDelta("v9", 0, 1, frozenset({entry}), frozenset({entry}))

    def test_views_converge_to_publisher_snapshot(self):
        sim = two_network_sim()
        result = sim.run()
        for network in sim.networks.values():
            for publisher_id in network.member_ids():
                publisher = sim.vasps[publisher_id]
                expected = publisher.directory._last_snapshot
                for member_id in network.member_ids():
                    view = sim.vasps[member_id].directory.views.get(publisher_id)
                    assert view is not None, (member_id, publisher_id)
                    assert view.version == expected.version
                    assert frozenset(view.entries) == expected.entries

    def test_resync_after_gap_converges(self):
        sim = two_network_sim()
        sim.advance_to(12)
        v1, v2 = sim.vasps["v1"], sim.vasps["v2"]
        # force a gap: v2 drops its view of v1 back to version 0 with stale data
        v2.directory.views[v1.vasp_id] = DirectoryView()
        for _ in range(3):
            v1.publish_directory(sim.now)
        sim.run()
        assert v2.directory.views[v1.vasp_id].version == v1.directory._last_snapshot.version
        assert (frozenset(v2.directory.views[v1.vasp_id].entries)
                == v1.directory._last_snapshot.entries)


class TestCrlExchange:
    def test_stale_lower_number_ignored(self):
        sim = two_network_sim()
        sim.advance_to(2)
        v1 = sim.vasps["v1"]
        first = v1.ca.generate_crl(1)
        serial = v1.book.accounts["acct-alice"].certificate_serial
        v1.ca.revoke(serial, RevocationReason.UNSPECIFIED, 2)
        second = v1.ca.generate_crl(2)
        v1.ingest_crls([second])
        v1.ingest_crls([first])
        assert v1.revocation.crl_number("ca-1") == second.crl_number
        assert v1.revocation.is_revoked("ca-1", serial)

    def test_directory_views_follow_the_owner_not_the_merge(self, monkeypatch):
        """A relying party's merge leaves its view of the owner as published
        and refuses the certificate; the entry leaves the view with the
        owner's removal delta."""
        sim = two_network_sim()
        sim.advance_to(20)
        v1, v2 = sim.vasps["v1"], sim.vasps["v2"]
        alice = v1.book.accounts["acct-alice"]
        serial = alice.certificate_serial
        view = v2.directory.views["v1"]
        entries = view.entries
        assert any(e.serial == serial for e in entries)
        v1.ca.revoke(serial, RevocationReason.KEY_COMPROMISE, sim.now)
        crl = v1.ca.generate_crl(sim.now)
        v2.ingest_crls([crl])
        assert view.entries is entries
        assert v2.validate(alice.certificate).status is ValidationStatus.REVOKED
        sent = capture_sends(sim, monkeypatch)
        v1.ingest_crls([crl])
        v1.directory.sync(sim.now)
        (delta,) = [p for _, d, k, p in sent if k == "dir_delta" and d == "v2"]
        assert {e.serial for e in delta.removed} == {serial}
        v2.on_dir_delta(delta, "v1")
        assert not any(e.serial == serial for e in view.entries)

    @pytest.mark.parametrize("forgery", ["signed-by-ca-2", "entry-removed", "unanchored-issuer",
                                         "number-raised"])
    def test_forged_or_unanchored_crl_is_dropped(self, forgery):
        """Each CRL numbers above the one held and, if merged, would un-revoke
        alice, revoke under an issuer the node has no anchor for, or pin
        ca-1's number so far ahead that its genuine CRLs would be ignored."""
        sim = two_network_sim()
        sim.advance_to(20)
        v1 = sim.vasps["v1"]
        ca1 = sim.cas["ca-1"]
        serial = v1.book.accounts["acct-alice"].certificate_serial
        entry = ca1.revoke(serial, RevocationReason.KEY_COMPROMISE, sim.now)
        v1.ingest_crls([ca1.generate_crl(sim.now)])
        genuine = ca1.generate_crl(sim.now)
        if forgery == "signed-by-ca-2":
            crl = crypto.seal(sim.cas["ca-2"]._keypair,
                              replace(genuine, entries=frozenset(), signature=b""))
        elif forgery == "entry-removed":
            crl = replace(genuine, entries=genuine.entries - {entry})
        elif forgery == "number-raised":
            crl = replace(genuine, crl_number=genuine.crl_number + 1000)
        else:
            outsider = crypto.keypair_from_label("outsider", "ca-9")
            crl = crypto.seal(outsider, replace(genuine, issuer_id="ca-9", signature=b""))
        revocation = v1.revocation
        assert crl.crl_number > revocation.crl_number(crl.issuer_id)

        def state():
            return v1.directory_entries(sim.now), [
                (issuer, revocation.crl_number(issuer), revocation.is_revoked(issuer, serial))
                for issuer in ("ca-1", "ca-9")]

        before = state()
        logged = len(sim.log_.entries)
        v1.ingest_crls([crl])
        assert [(e.actor, e.event, dict(e.details)) for e in sim.log_.entries[logged:]] == [
            ("v1", "crl_dropped", {"issuer": crl.issuer_id, "reason": "bad-signature"})]
        assert state() == before


class TestCaFetch:
    """Every CRL period each member fetches the CRL of every CA from its
    issuer; nothing else moves a CRL."""

    REVOKE_BOB = {"tick": 21, "action": "revoke_cert", "customer": "bob",
                  "reason": "keyCompromise"}

    @pytest.mark.parametrize("v4_ca", ["ca-2", "ca-1"])
    def test_every_member_holds_a_revocation_when_its_ca_publishes_it(self, v4_ca):
        # With v4 certified by ca-1, v2 is ca-2's only member, and its sync
        # right after the CRL that revokes bob publishes the delta dropping
        # bob, not a heartbeat.
        sim = mixed_ca_sim([self.REVOKE_BOB], v4_ca=v4_ca)
        v2 = sim.vasps["v2"]
        issued = 2 * CRL_PERIOD  # ca-2's first CRL after the revocation
        sim.advance_to(issued - 1)
        serial = v2.book.accounts["acct-bob"].certificate_serial
        assert not any(v.revocation.is_revoked("ca-2", serial) for v in sim.vasps.values())
        sim.advance_to(issued)
        for member, node in sim.vasps.items():
            assert node.revocation.is_revoked("ca-2", serial), member
            assert node.revocation.crl_number("ca-2") == v2.revocation.crl_number("ca-2")
        version = v2.directory._last_snapshot.version
        # Bob's removal is published at v2's next sync and reaches every
        # member within the link latency.
        sim.advance_to(issued + SYNC_PERIOD + MAX_LATENCY)
        assert v2.directory._last_snapshot.version == version + 1
        for member in ("v1", "v3", "v4"):
            view = sim.vasps[member].directory.views["v2"]
            assert not any(e.serial == serial for e in view.entries), member

    def test_fetch_covers_every_ca_in_id_order(self, monkeypatch):
        """Each member fetches every CA's CRL, a CA that certifies no member
        included. A CA issues a CRL only when a revocation came after its
        last one: a period with nothing revoked issues none and hands every
        member the same object; after a revocation exactly one new CRL is
        issued, however many members fetch it."""
        sim = mixed_ca_sim([self.REVOKE_BOB], v4_ca="ca-1", cas=("ca-0", "ca-1", "ca-2"))
        sim.advance_to(CRL_PERIOD - 1)
        fetched = count_calls(monkeypatch, vaspnet.vasp.VaspNode, "ingest_crls")
        generated = count_calls(monkeypatch, sim.cas["ca-2"], "generate_crl")
        sim.advance_to(CRL_PERIOD)
        assert [(node.vasp_id, [crl.issuer_id for crl in crls]) for node, crls in fetched] == [
            (member, ["ca-0", "ca-1", "ca-2"]) for member in ("v1", "v2", "v3", "v4")]
        assert generated == []
        held = fetched[0][1][2]
        assert all(crls[2] is held for _, crls in fetched)
        fetched.clear()
        sim.advance_to(2 * CRL_PERIOD)
        assert len(generated) == 1 and len(fetched) == 4
        issued = fetched[0][1][2]
        assert issued.crl_number == held.crl_number + 1
        assert all(crls[2] is issued for _, crls in fetched)

    def test_revoked_vasp_across_a_peering_link_is_refused(self):
        """v1 sits in net-a, whose members ca-1 certifies; ca-2 certifies
        v4 in net-b. Once ca-2 revokes v4's certificate, v1 holds the
        revocation from ca-2's next CRL and denies a transfer to v4's
        customer, resolved across the v2-v3 link, by its own check."""
        sim = two_network_sim(script=standard_script([
            {"tick": 50, "action": "transfer", "origin": "alice",
             "target": {"customer": "bob"}, "amount": 5, "asset": "coin"}]))
        sim.advance_to(35)
        v4 = sim.vasps["v4"]
        sim.cas["ca-2"].revoke(v4.certificate.serial, RevocationReason.KEY_COMPROMISE, sim.now)
        sim.run()
        assert sim.vasps["v1"].revocation.is_revoked("ca-2", v4.certificate.serial)
        (transfer,) = sim.scripted_transfers
        assert transfer.outcome.denial == DenialReason(
            DenialCode.CERT_INVALID, "beneficiary-vasp:revoked")
        assert sim.chain.confirmed_transactions() == []

    def test_advertisement_of_a_revoked_far_gateway_is_dropped(self):
        """Once ca-2 revokes v3, the far gateway of v2's link, v2 holds the
        revocation from ca-2's next CRL and drops v3's signed advertisement."""
        sim = two_network_sim()
        sim.advance_to(35)
        v3 = sim.vasps["v3"]
        sim.cas["ca-2"].revoke(v3.certificate.serial, RevocationReason.KEY_COMPROMISE, sim.now)
        sim.advance_to(2 * CRL_PERIOD)
        adv = v3.seal(build_advertisement(sim.networks["net-b"], "v3", v3.directory.views))
        sim.vasps["v2"].on_reachability_advertisement(adv, "v3")
        last = sim.log_.entries[-1]
        assert (last.actor, last.event) == ("v2", "advertisement")
        assert dict(last.details)["reason"] == "bad-signature"

    def test_revocation_run_sends_no_crl_message(self, monkeypatch):
        sim = mixed_ca_sim([self.REVOKE_BOB])
        kinds = Counter()
        send = sim.send

        def counting_send(src, dst, kind, payload):
            kinds[kind] += 1
            send(src, dst, kind, payload)

        monkeypatch.setattr(sim, "send", counting_send)
        sim.advance_to(120)
        serial = sim.vasps["v2"].book.accounts["acct-bob"].certificate_serial
        assert all(v.revocation.is_revoked("ca-2", serial) for v in sim.vasps.values())
        # Bob's removal is gossiped; no message carries a CRL or asks for one.
        assert set(kinds) <= {"dir_announce", "dir_delta", "dir_snapshot"}

    def test_crl_sent_by_a_peer_is_ignored(self):
        sim = mixed_ca_sim()
        sim.advance_to(20)
        v1, v2 = sim.vasps["v1"], sim.vasps["v2"]
        number = v1.revocation.crl_number("ca-2")
        bob = v2.book.accounts["acct-bob"].certificate_serial
        v2.ca.revoke(bob, RevocationReason.KEY_COMPROMISE, sim.now)
        v1.on_message("crl", [v2.ca.generate_crl(sim.now)], "v2")
        assert v1.revocation.crl_number("ca-2") == number
        assert not v1.revocation.is_revoked("ca-2", bob)
        assert (sim.log_.entries[-1].actor, sim.log_.entries[-1].event) == (
            "v1", "message_ignored")


class TestDirectoryViewCache:
    """A view's cached key-hash set follows every write to its entries, and
    only its owner's messages write them."""

    @staticmethod
    def heartbeat_to(publisher, receiver, sent):
        """Deliver the publisher's current heartbeat to the receiver; return
        it and the messages the receiver sends in answer."""
        (network_id,) = publisher.memberships
        publisher.directory._heartbeat(publisher.memberships[network_id])
        announce = publisher.directory.gossip.heartbeats[network_id]
        sent.clear()
        receiver.on_dir_announce(announce, publisher.vasp_id)
        answer = list(sent)
        sent.clear()
        return announce, answer

    @staticmethod
    def no_pull(answer, publisher, receiver, version):
        """Whether ``answer`` pushes and asks for nothing: at most the
        receiver's reply to a repeated heartbeat, listing its view of the
        publisher at ``version``."""
        return all((s, d, k) == (receiver, publisher, "dir_announce")
                   and dict(p.views)[publisher] == version for s, d, k, p in answer)

    def test_key_hashes_follow_install_and_delta(self):
        view = DirectoryView()
        entry = DirectoryEntry(b"\x01" * 16, b"\x02" * 32, "ca-1")
        other = DirectoryEntry(b"\x03" * 16, b"\x04" * 32, "ca-1")
        assert view.key_hashes() == frozenset()
        apply_delta(view, DirectoryDelta("v9", 0, 1, frozenset({entry, other}), frozenset()))
        assert view.key_hashes() == {entry.public_key_hash, other.public_key_hash}
        assert view.key_hashes() is view.key_hashes()
        apply_delta(view, DirectoryDelta("v9", 1, 2, frozenset(), frozenset({entry})))
        assert view.key_hashes() == {other.public_key_hash}
        assert view.install_snapshot(DirectorySnapshot("v9", 3, frozenset({entry})))
        assert view.key_hashes() == {entry.public_key_hash}

    def test_lookups_follow_the_owners_removal(self, monkeypatch):
        sim = two_network_sim()
        sim.advance_to(20)
        v1, v2 = sim.vasps["v1"], sim.vasps["v2"]
        alice = v1.book.accounts["acct-alice"].customer_public_key_hash
        assert v2.directory.find_owner(alice) == "v1"
        v1.ca.revoke(v1.book.accounts["acct-alice"].certificate_serial,
                     RevocationReason.KEY_COMPROMISE, sim.now)
        crl = v1.ca.generate_crl(sim.now)
        v2.ingest_crls([crl])
        # The relying party's merge leaves the view as v1 published it.
        assert v2.directory.find_owner(alice) == "v1"
        sent = capture_sends(sim, monkeypatch)
        _, answer = self.heartbeat_to(v1, v2, sent)
        assert answer == []
        v1.ingest_crls([crl])
        v1.directory.sync(sim.now)
        delta = next(p for _, d, k, p in sent if k == "dir_delta" and d == "v2")
        v2.on_dir_delta(delta, "v1")
        assert v2.directory.find_owner(alice) is None
        assert alice not in v2.directory.views["v1"].key_hashes()

    def test_view_untouched_by_crl_merge(self, monkeypatch):
        sim = two_network_sim()
        sim.advance_to(20)
        v1, v2 = sim.vasps["v1"], sim.vasps["v2"]
        view = v2.directory.views["v1"]
        sent = capture_sends(sim, monkeypatch)
        announce, answer = self.heartbeat_to(v1, v2, sent)
        assert view.version == announce.version and answer == []
        entries = view.entries
        serial = v1.book.accounts["acct-alice"].certificate_serial
        v1.ca.revoke(serial, RevocationReason.KEY_COMPROMISE, sim.now)
        v2.ingest_crls([v1.ca.generate_crl(sim.now)])
        assert view.entries is entries and any(e.serial == serial for e in entries)
        # The publisher has not republished: its heartbeat is the same, the
        # view still holds the version it lists, and nothing is pulled.
        again, answer = self.heartbeat_to(v1, v2, sent)
        assert again is announce and self.no_pull(answer, "v1", "v2", announce.version)
        assert view.version == announce.version and view.entries is entries

    def test_view_untouched_by_revoked_query_response(self, monkeypatch):
        sim = two_network_sim()
        sim.advance_to(20)
        v3, v4 = sim.vasps["v3"], sim.vasps["v4"]
        view = v3.directory.views["v4"]
        sent = capture_sends(sim, monkeypatch)
        bob_hash = crypto.digest(v4.book.accounts["acct-bob"].customer_public_key)
        v4.ca.revoke(v4.book.accounts["acct-bob"].certificate_serial,
                     RevocationReason.KEY_COMPROMISE, sim.now)
        v4.ingest_crls([v4.ca.generate_crl(sim.now)])
        # The merge moves nothing the heartbeat lists.
        announce, answer = self.heartbeat_to(v4, v3, sent)
        assert announce.version == v4.directory._last_snapshot.version
        assert view.version == announce.version and answer == []
        entries = view.entries
        resolved = v3.resolver._resolve_via_directory(bob_hash)
        assert resolved is not None and resolved.revoked
        assert view.entries is entries and bob_hash in view.key_hashes()
        again, answer = self.heartbeat_to(v4, v3, sent)
        assert again is announce and self.no_pull(answer, "v4", "v3", announce.version)
        assert view.version == announce.version


class TestDirectorySync:
    def test_heartbeat_signed_once_per_version(self, monkeypatch):
        sim = two_network_sim()
        sim.advance_to(20)
        v1 = sim.vasps["v1"]
        sent = capture_sends(sim, monkeypatch)
        signed = count_calls(monkeypatch, crypto, "sign")
        for tick in (30, 50):  # each published version is signed once, when first sent
            v1.publish_directory(tick - SYNC_PERIOD)
            signed.clear()
            sent.clear()
            for _beat in range(3):  # v2, which nothing reaches, still lists less
                v1.announce_directory(tick)
            assert len(signed) == 1
            announces = [p for _, _, kind, p in sent if kind == "dir_announce"]
            assert len(announces) == 3 * len(v1.co_member_ids())
            announce = announces[0]
            assert all(a == announce for a in announces)
            assert (announce.network_id, announce.version) == (
                "net-a", v1.directory._last_snapshot.version)
            assert crypto.check(v1.certificate.subject_public_key, announce)

    def test_sync_reads_entries_once_and_hashes_no_key(self, monkeypatch):
        sim = two_network_sim()
        sim.advance_to(20)
        v1 = sim.vasps["v1"]
        v1.open_account("zed", {"name": "Zed", "email": "z@x"}, CustodyModel.MEDIATED,
                        customer_wallet=crypto.generate_keypair(crypto.digest(b"zed")),
                        account_id="acct-zed", now=sim.now)
        v1.book.enroll_customer_certificate("acct-zed", CertClass.CLASS1, sim.now)
        sent = capture_sends(sim, monkeypatch)
        reads = count_calls(monkeypatch, v1, "directory_entries")
        hashed = count_calls(monkeypatch, vaspnet.accounts, "digest")
        version = v1.directory._last_snapshot.version
        v1.directory.sync(sim.now)
        assert len(reads) == 1 and v1.directory._last_snapshot.version == version + 1
        assert {kind for _, _, kind, _ in sent} == {"dir_delta"}
        sent.clear()
        v1.directory.sync(sim.now + SYNC_PERIOD)
        assert len(reads) == 2 and v1.directory._last_snapshot.version == version + 1
        assert {kind for _, _, kind, _ in sent} == {"dir_announce"}
        assert hashed == []
        zed_hash = crypto.digest(v1.book.accounts["acct-zed"].customer_public_key)
        assert zed_hash in {e.public_key_hash for e in v1.directory._last_snapshot.entries}


    def test_heartbeat_with_altered_views_triggers_no_pull(self, monkeypatch):
        sim = mixed_ca_sim()
        sim.advance_to(20)
        v1, v4 = sim.vasps["v1"], sim.vasps["v4"]
        genuine = v4.directory.gossip.heartbeats["net-a"]
        assert dict(genuine.views)["v2"] == v1.directory.views["v2"].version
        sent = capture_sends(sim, monkeypatch)
        forged = replace(genuine, views=tuple(
            (member_id, version + 1) for member_id, version in genuine.views))
        v1.on_message("dir_announce", forged, "v4")
        assert sent == []
        v1.on_message("dir_announce", genuine, "v4")
        assert sent == []

    def test_delta_with_altered_entries_is_dropped(self, monkeypatch):
        sim = mixed_ca_sim()
        sim.advance_to(20)
        v1, v2 = sim.vasps["v1"], sim.vasps["v2"]
        view = v1.directory.views["v2"]
        version, entries = view.version, view.entries
        sent = capture_sends(sim, monkeypatch)
        v2.publish_directory(sim.now)
        genuine = next(p for _, d, k, p in sent if k == "dir_delta" and d == "v1")
        sent.clear()
        forged = replace(genuine, removed=entries)
        v1.on_message("dir_delta", forged, "v2")
        assert sent == [] and (view.version, view.entries) == (version, entries)
        assert (sim.log_.entries[-1].actor, sim.log_.entries[-1].event) == (
            "v1", "gossip_dropped")
        v1.on_message("dir_delta", genuine, "v2")
        assert sent == [] and view.version == version + 1


def two_overlapping_networks_sim(extra_script=()):
    """net-a: v1, v2, v3, v4; net-b: v4, v5, v6, so v4 is a member of both.
    One customer at v1, enrolled at tick 1: v1 publishes at tick 10 and no
    other member ever does, so every other sync period is quiet."""
    vasps = [{"vasp_id": f"v{i}", "ca": "ca-1", "networks": ["net-a"]} for i in (1, 2, 3)]
    vasps += [{"vasp_id": "v4", "ca": "ca-1", "networks": ["net-a", "net-b"]}]
    vasps += [{"vasp_id": f"v{i}", "ca": "ca-1", "networks": ["net-b"]} for i in (5, 6)]
    customers = [{"customer_id": "alice", "vasp": "v1", "custody_model": "mediated",
                  "attributes": {"name": "Alice", "email": "a@x"}}]
    script = [{"tick": 0, "action": "open_account", "customer": "alice"},
              {"tick": 1, "action": "enroll", "customer": "alice"}, *extra_script]
    return Simulation(make_scenario(networks=("net-a", "net-b"), vasps=vasps,
                                    customers=customers, script=script))


def six_member_sim():
    """net-a: v1..v6, one customer each, all enrolled at tick 1. Every member
    publishes at tick 10 and never again, and the network falls silent
    after tick 60."""
    vasps = [{"vasp_id": f"v{i}", "ca": "ca-1", "networks": ["net-a"]} for i in range(1, 7)]
    customers = [{"customer_id": f"c{i}", "vasp": f"v{i}", "custody_model": "mediated",
                  "attributes": {"name": f"C{i}", "email": f"c{i}@x"}} for i in range(1, 7)]
    script = [{"tick": 0, "action": "open_account", "customer": f"c{i}"} for i in range(1, 7)]
    script += [{"tick": 1, "action": "enroll", "customer": f"c{i}"} for i in range(1, 7)]
    return Simulation(make_scenario(vasps=vasps, customers=customers, script=script))


class TestHeartbeatSchedule:
    """Each sync period a member heartbeats, in each network, the partner
    that the rotation gives it, while that heartbeat is news to the partner
    or the partner's last heartbeat lists less. So each member receives at
    most one such heartbeat per network per period, a change goes out at
    the next sync period, and a quiet network falls silent. Any other
    heartbeat answers one just received."""

    @staticmethod
    def announce_ticks(sim, monkeypatch, src, until):
        """Tick -> the members ``src`` heartbeats, up to ``until``."""
        sent = record_sends(sim, monkeypatch, {"dir_announce"})
        sim.advance_to(until)
        ticks = {}
        for tick, s, d, _, _ in sent:
            if s == src:
                ticks.setdefault(tick, []).append(d)
        return ticks

    def test_each_member_receives_at_most_one_heartbeat_per_network_per_period(
            self, monkeypatch):
        sim = two_overlapping_networks_sim()
        sent = record_sends(sim, monkeypatch, {"dir_announce", "dir_delta"})
        sim.advance_to(102)
        networks = sim.networks
        assert {kind for tick, _, _, kind, _ in sent if tick != 10} == {"dir_announce"}
        heartbeats = [(tick, src, dst, payload) for tick, src, dst, kind, payload in sent
                      if kind == "dir_announce"]
        received = Counter()
        for tick, src, dst, payload in heartbeats:
            network = networks[payload.network_id]
            # The heartbeat lists the views its sender holds of that network.
            assert [m for m, _ in payload.views] == [
                m for m in network.member_ids() if m != src]
            if tick % SYNC_PERIOD == 0:
                # A sync period's heartbeat goes to the sender's partner.
                assert dst == heartbeat_partner(network, src, tick // SYNC_PERIOD)
                received[tick, dst, network.network_id] += 1
            else:
                # Any other answers one its receiver sent it.
                assert any(t < tick and (s, d) == (dst, src) for t, s, d, _ in heartbeats)
        assert set(received.values()) == {1}
        # net-b never changed, so its members, holding what every member
        # starts from, heartbeat nothing.
        assert {payload.network_id for *_, payload in heartbeats} == {"net-a"}
        # v1's delta of tick 10 is the last change. Every member but v1 sends
        # the heartbeat listing it to each co-member to whom it is news; v1,
        # whose own change it is, asks whoever has not answered when the
        # rotation pairs them, and is answered. Then v1 lists what each
        # co-member holds, and nothing is sent after tick 50's answer.
        v1 = sim.vasps["v1"]
        for member_id in ("v2", "v3", "v4"):
            assert v1.directory.gossip.peers["net-a", member_id].listed == (
                sim.vasps[member_id].directory.gossip.heartbeats["net-a"])
        assert max(tick for tick, *_ in sent) <= 50 + MAX_LATENCY

    def test_revocation_moves_heartbeats_only_through_the_owners_removal(self, monkeypatch):
        # v4 has no customers: it never publishes and heartbeats version 0.
        # It sends its heartbeat to each co-member once after v1's and v2's
        # deltas of tick 10, then falls silent. Its CRL fetch at tick 40
        # revokes bob, which changes nothing it lists. v2's removal delta of
        # tick 50 moves its view of v2, and v4 sends that heartbeat to the
        # partners of the next periods to whom it is news, v1 and v3, always
        # to the period's partner. That v4 holds v2's own removal is no news
        # to v2, which asks v4 when the rotation next pairs them, at tick
        # 100, and v4 answers.
        quiet = self.announce_ticks(mixed_ca_sim(), monkeypatch, "v4", 120)
        assert sorted(quiet) == [20, 30, 40]
        assert sorted(d for targets in quiet.values() for d in targets) == ["v1", "v2", "v3"]
        monkeypatch.undo()
        sim = mixed_ca_sim([TestCaFetch.REVOKE_BOB])
        revoked = self.announce_ticks(sim, monkeypatch, "v4", 120)
        assert {tick: d for tick, d in revoked.items() if tick <= 50} == quiet
        later = sorted((tick, d) for tick, targets in revoked.items() if tick > 50
                       for d in targets)
        assert [(tick, d) for tick, d in later if tick % 10 == 0] == [(60, "v1"), (80, "v3")]
        (answer,) = [(tick, d) for tick, d in later if tick % 10]
        assert answer[1] == "v2" and 100 < answer[0] <= 100 + MAX_LATENCY
        network = sim.networks["net-a"]
        for tick, targets in revoked.items():
            assert targets == [heartbeat_partner(network, "v4", tick // SYNC_PERIOD)]
        serial = sim.vasps["v2"].book.accounts["acct-bob"].certificate_serial
        assert sim.vasps["v4"].revocation.is_revoked("ca-2", serial)

    def test_single_ca_revocation_heartbeats_each_partner_once(self, monkeypatch):
        # Every member is certified by ca-1 and fetches its CRL on the CA's
        # tick, so the CRL revoking alice (tick 40) reaches all four at once.
        # v1 publishes the removal at tick 50; every member then heartbeats
        # its partner only, once per period, while the heartbeat is news to
        # it. v1's removal is no news to v1, which asks each co-member once
        # when the rotation next pairs them and is answered, and the network
        # falls silent.
        vasps = [{"vasp_id": f"v{i}", "ca": "ca-1", "networks": ["net-a"]} for i in (1, 2, 3, 4)]
        customers = [{"customer_id": "alice", "vasp": "v1", "custody_model": "mediated",
                      "attributes": {"name": "Alice", "email": "a@x"}}]
        sim = Simulation(make_scenario(vasps=vasps, customers=customers, script=[
            {"tick": 0, "action": "open_account", "customer": "alice"},
            {"tick": 1, "action": "enroll", "customer": "alice"},
            {"tick": 21, "action": "revoke_cert", "customer": "alice",
             "reason": "keyCompromise"},
        ]))
        sent = record_sends(sim, monkeypatch, {"dir_announce"})
        issued = 2 * CRL_PERIOD
        sim.advance_to(issued - 1)
        serial = sim.vasps["v1"].book.accounts["acct-alice"].certificate_serial
        assert not any(v.revocation.is_revoked("ca-1", serial) for v in sim.vasps.values())
        sim.advance_to(issued)
        assert all(v.revocation.is_revoked("ca-1", serial) for v in sim.vasps.values())
        sim.advance_to(160)
        network = sim.networks["net-a"]
        beats = Counter((tick, src) for tick, src, _, _, _ in sent if tick > issued)
        assert set(beats.values()) == {1}
        assert all(dst == heartbeat_partner(network, src, tick // SYNC_PERIOD)
                   for tick, src, dst, _, _ in sent if tick > issued and tick % SYNC_PERIOD == 0)
        assert sorted({tick for tick, _ in beats if tick % SYNC_PERIOD == 0}) == [
            60, 70, 80, 90, 100, 110]
        assert {src for tick, src in beats if tick > 80} == {"v1", "v2", "v3", "v4"}
        assert {(src, dst) for tick, src, dst, _, _ in sent if tick > issued} == {
            (src, dst) for src in sim.vasps for dst in sim.vasps if src != dst}
        assert max(tick for tick, *_ in sent) <= 110 + MAX_LATENCY

    def test_lost_delta_is_pushed_by_its_owner_within_one_sync_period(self, monkeypatch):
        # v1 publishes at 30 (alice enrolled at 25); the delta to v2 is lost.
        # At tick 40 v2's partner is v4, which relays v1's version, so v2
        # sends v1 its own heartbeat, which lists v1's directory at version
        # 0, and v1 pushes its snapshot.
        vasps = [{"vasp_id": f"v{i}", "ca": "ca-1", "networks": ["net-a"]} for i in (1, 2, 3, 4)]
        customers = [{"customer_id": "alice", "vasp": "v1", "custody_model": "mediated",
                      "attributes": {"name": "Alice", "email": "a@x"}}]
        sim = Simulation(make_scenario(vasps=vasps, customers=customers, script=[
            {"tick": 0, "action": "open_account", "customer": "alice"},
            {"tick": 25, "action": "enroll", "customer": "alice"},
            {"tick": 30, "action": "drop_link", "a": "v1", "b": "v2", "period": 4},
        ]))
        sent = record_sends(sim, monkeypatch, {"dir_announce", "dir_snapshot", "dir_delta"})
        # Heartbeat, heartbeat back and snapshot each take at most
        # max_latency ticks.
        sim.advance_to(30 + SYNC_PERIOD + 3 * MAX_LATENCY)
        v1, v2 = sim.vasps["v1"], sim.vasps["v2"]
        assert v1.directory._last_snapshot.version == 1
        lost = [e for e in sim.log_.entries if e.event == "message_dropped"]
        assert [(e.tick, e.actor, dict(e.details)["to"], dict(e.details)["kind"])
                for e in lost] == [(30, "v1", "v2", "dir_delta")]
        assert [(src, dst) for tick, src, dst, kind, _ in sent
                if tick == 40 and kind == "dir_announce" and dst == "v2"] == [("v4", "v2")]
        (pull,) = [(tick, p) for tick, src, dst, kind, p in sent
                   if (src, dst, kind) == ("v2", "v1", "dir_announce") and tick > 40]
        assert pull[0] <= 40 + MAX_LATENCY
        assert dict(pull[1].views)["v1"] == 0
        (push,) = [(tick, p) for tick, src, dst, kind, p in sent
                   if (src, dst, kind) == ("v1", "v2", "dir_snapshot")]
        assert pull[0] < push[0] and push[1].version == 1
        assert v2.directory.views["v1"].version == 1
        assert v2.directory.views["v1"].entries == v1.directory._last_snapshot.entries

    def test_view_wiped_after_quiet_periods_resyncs_within_three(self):
        sim = two_network_sim()
        # v1's heartbeat of tick 90, its eighth quiet period, has arrived
        # (latency is at most 3 ticks).
        sim.advance_to(95)
        v1, v2 = sim.vasps["v1"], sim.vasps["v2"]
        assert v1.directory._last_snapshot.version == 1  # published at tick 10 only
        v2.directory.views["v1"] = DirectoryView()
        sim.advance_to(95 + 3 * SYNC_PERIOD)
        view = v2.directory.views["v1"]
        assert view.version == v1.directory._last_snapshot.version
        assert view.entries == v1.directory._last_snapshot.entries


    @pytest.mark.parametrize("holder", ["v1", "v3", "v6"])
    def test_view_wiped_after_the_network_fell_silent_resyncs_within_one_period(
            self, monkeypatch, holder):
        # The holder's next heartbeat lists version 0 for v2, less than it
        # listed before, so its partner answers at once, and the holder
        # pulls: one sync period, then heartbeat, reply, pull and snapshot.
        sim = six_member_sim()
        sent = record_sends(sim, monkeypatch, {"dir_announce"})
        wiped_at = 100
        sim.advance_to(wiped_at)
        assert [tick for tick, *_ in sent if tick > 60] == []
        sim.vasps[holder].directory.views["v2"] = DirectoryView()
        sim.advance_to(wiped_at + SYNC_PERIOD + 4 * MAX_LATENCY)
        view = sim.vasps[holder].directory.views["v2"]
        published = sim.vasps["v2"].directory._last_snapshot
        assert (view.version, view.entries) == (published.version, published.entries)

    def test_forged_heartbeat_neither_informs_nor_silences(self, monkeypatch):
        # At tick 20 v1 heartbeats v4 (every member published at tick 10), and
        # v4 has not yet listed what v1 holds, so v1 would heartbeat it again.
        sim = six_member_sim()
        sim.advance_to(20)
        v1, v4 = sim.vasps["v1"], sim.vasps["v4"]
        heartbeat = v1.directory.gossip.heartbeats["net-a"]
        genuine = v4.directory.gossip.heartbeats["net-a"]
        sent = capture_sends(sim, monkeypatch)
        v1.announce_directory(sim.now)
        assert sent == [("v1", "v4", "dir_announce", heartbeat)]
        sent.clear()
        # A heartbeat claiming v4 holds more than it does, with a signature
        # that does not match, is dropped: no pull, no answer, and v1 still
        # heartbeats v4.
        forged = replace(genuine, version=genuine.version + 5, views=tuple(
            (member_id, version + 5) for member_id, version in genuine.views))
        v1.on_message("dir_announce", forged, "v4")
        assert sent == []
        assert (sim.log_.entries[-1].actor, sim.log_.entries[-1].event) == (
            "v1", "gossip_dropped")
        v1.announce_directory(sim.now)
        assert sent == [("v1", "v4", "dir_announce", heartbeat)]
        sent.clear()
        # v4's genuine heartbeat lists everything v1 holds, and silences it.
        v1.on_message("dir_announce", genuine, "v4")
        v1.announce_directory(sim.now)
        assert sent == []

    def test_replayed_older_heartbeat_is_answered_and_silences_nothing(self, monkeypatch):
        sim = six_member_sim()
        sim.advance_to(100)  # silent since tick 60
        v1, v4 = sim.vasps["v1"], sim.vasps["v4"]
        heartbeat = v1.directory.gossip.heartbeats["net-a"]
        current = v4.directory.gossip.heartbeats["net-a"]
        # A heartbeat v4 signed before any member published, replayed.
        old = v4.seal(DirectoryAnnounce("v4", "net-a", 0, tuple(
            (member_id, 0) for member_id in sim.networks["net-a"].member_ids()
            if member_id != "v4")))
        sent = record_sends(sim, monkeypatch, {"dir_announce", "dir_snapshot"})
        # It lists v1's directory at version 0, so v1 pushes its snapshot; it
        # lists less than v4 listed before, so v1 answers with its own
        # heartbeat, and pulls nothing.
        v1.on_message("dir_announce", old, "v4")
        assert [(src, dst, p) for _, src, dst, _, p in sent] == [
            ("v1", "v4", v1.directory._last_snapshot), ("v1", "v4", heartbeat)]
        # v4 already held that heartbeat, so it answers in turn, and v1 again
        # lists what v4 holds. Nothing else is sent.
        sim.advance_to(100 + 5 * SYNC_PERIOD)
        assert [(src, dst, p) for _, src, dst, _, p in sent[2:]] == [("v4", "v1", current)]
        assert sent[2][0] <= 100 + MAX_LATENCY
        assert v1.directory.gossip.peers["net-a", "v4"].listed == current

class TestIntraNetworkQuery:
    def test_query_hits_owning_peer(self):
        sim = two_network_sim()
        sim.advance_to(20)
        v3, v4 = sim.vasps["v3"], sim.vasps["v4"]
        bob_hash = crypto.digest(v4.book.accounts["acct-bob"].customer_public_key)
        owner = v3.directory.find_owner(bob_hash)
        assert owner == "v4"
        response = sim.vasps[owner].resolver.respond_certificate_query(bob_hash, sim.now)
        assert not response.revoked
        assert response.certificate.subject_id == "bob"
        assert response.assertion is not None

    def test_absent_hash_not_found(self):
        sim = two_network_sim()
        sim.advance_to(20)
        assert sim.vasps["v3"].directory.find_owner(b"\x55" * 32) is None

    def test_revocation_race_marks_stale(self):
        sim = two_network_sim()
        sim.advance_to(20)
        v3, v4 = sim.vasps["v3"], sim.vasps["v4"]
        serial = v4.book.accounts["acct-bob"].certificate_serial
        bob_hash = crypto.digest(v4.book.accounts["acct-bob"].customer_public_key)
        # revoked at the CA and known to the owner, which has not yet
        # published the removal, so v3's view still lists the key
        v4.ca.revoke(serial, RevocationReason.KEY_COMPROMISE, sim.now)
        v4.ingest_crls([v4.ca.generate_crl(sim.now)])
        assert any(e.public_key_hash == bob_hash for e in v3.directory.views["v4"].entries)
        resolved = v3.resolver._resolve_via_directory(bob_hash)
        assert resolved is not None and resolved.revoked
        stale = [e for e in sim.log_.entries if e.event == "directory_stale_entry"]
        assert [(e.actor, dict(e.details)["owner"]) for e in stale] == [("v3", "v4")]
        # The view is the owner's to change: the entry stays until v4 publishes.
        assert any(e.public_key_hash == bob_hash for e in v3.directory.views["v4"].entries)


class TestRevokedBeneficiaryByKey:
    """A relying party resolves a revoked key from the view its owner
    published and refuses the certificate; once the owner's removal has
    arrived, the key resolves nowhere."""

    def test_denial_follows_the_owners_removal(self):
        sim = mixed_ca_sim([TestCaFetch.REVOKE_BOB])
        v1, v2 = sim.vasps["v1"], sim.vasps["v2"]
        issued = 2 * CRL_PERIOD  # ca-2's CRL revoking bob
        sim.advance_to(issued + 1)
        bob = v2.book.accounts["acct-bob"]
        target = TransferTarget.from_key_hash(bob.customer_public_key_hash)

        def denial():
            outcome = v1.initiate_transfer("acct-alice", target, 100, "coin")
            return outcome.denial.code, outcome.denial.detail

        assert v1.revocation.is_revoked("ca-2", bob.certificate_serial)
        assert denial() == (DenialCode.CERT_INVALID, "beneficiary-customer:revoked")
        # v2 publishes the removal at its next sync; until v1 applies it,
        # v1's view of v2 lists bob and the denial stays CertInvalid.
        published = issued + SYNC_PERIOD
        while bob.customer_public_key_hash in v1.directory.views["v2"].key_hashes():
            assert sim.now <= published + MAX_LATENCY
            assert denial() == (DenialCode.CERT_INVALID, "beneficiary-customer:revoked")
            sim.advance_to(sim.now + 1)
        assert sim.now > published
        assert denial() == (DenialCode.BENEFICIARY_UNRESOLVED, "")



class TestRevocationRace:
    """A beneficiary customer revoked a few ticks before a CRL tick: the
    originator resolves and checks it before the CRL duty of that tick runs
    (script actions come first), and the beneficiary, which merges the CRL
    in the same tick, refuses the notice."""

    def test_beneficiary_rejects_a_notice_for_a_customer_revoked_in_flight(self):
        crl_tick = 2 * CRL_PERIOD
        sim = mixed_ca_sim([
            {"tick": crl_tick - 3, "action": "revoke_cert", "customer": "bob",
             "reason": "keyCompromise"},
            {"tick": crl_tick, "action": "transfer", "origin": "alice",
             "target": {"customer": "bob"}, "amount": 100, "asset": "coin"},
        ])
        sim.run()
        v1, v2 = sim.vasps["v1"], sim.vasps["v2"]
        (scripted,) = sim.scripted_transfers
        outcome = scripted.outcome
        assert outcome.status is OutcomeStatus.DENIED
        assert (outcome.denial.code, outcome.denial.detail) == (
            DenialCode.ACK_REJECTED, RejectReason.CERT_INVALID.value)
        # The originator's record carries the signed reject and fails.
        record = v1.records[outcome.record_id]
        assert record.status is RecordStatus.FAILED
        assert record.failure_reason.startswith(DenialCode.ACK_REJECTED.value)
        assert record.ack.decision is AckDecision.REJECT
        assert record.ack.reject_reason is RejectReason.CERT_INVALID
        assert crypto.check(v2.certificate.subject_public_key, record.ack)
        # The beneficiary filed no record for the notice it refused.
        assert v2.records == {} and v2.transfers._records_by_binding == {}
        rejects = [dict(e.details) for e in sim.log_.entries
                   if e.actor == "v2" and e.event == "ack_sent"]
        assert [(d["decision"], d["reason"]) for d in rejects] == [
            ("reject", RejectReason.CERT_INVALID.value)]
        serial = v2.book.accounts["acct-bob"].certificate_serial
        assert v1.revocation.is_revoked("ca-2", serial)

class TestAdvertisements:
    def test_advertisement_union_of_member_snapshots(self):
        sim = two_network_sim(customers=[
            {"customer_id": f"c{i}", "vasp": vasp, "custody_model": "mediated",
             "attributes": {"name": f"C{i}", "email": f"c{i}@x"}}
            for i, vasp in enumerate(["v1", "v1", "v1", "v2", "v2"])
        ], script=[
            {"tick": 0, "action": "open_account", "customer": f"c{i}"} for i in range(5)
        ] + [
            {"tick": 1, "action": "enroll", "customer": f"c{i}"} for i in range(5)
        ])
        sim.advance_to(13)  # one sync period after enrollment
        from vaspnet.network import build_advertisement
        adv = build_advertisement(sim.networks["net-a"], "v2", sim.vasps["v2"].directory.views)
        assert len(adv.advertised_hashes) == 5
        assert adv.network_path == ("net-a",)
        assert adv.origin_network_id == "net-a"

    def test_empty_network_advertises_empty_set(self):
        sim = two_network_sim()
        from vaspnet.network import build_advertisement
        adv = build_advertisement(sim.networks["net-b"], "v3", sim.vasps["v3"].directory.views)
        assert adv.advertised_hashes == frozenset()

    def test_loop_advertisement_dropped(self):
        sim = two_network_sim()
        sim.run()
        looped = [e for e in sim.log_.entries
                  if e.event == "advertisement" and dict(e.details).get("reason") == "loop"]
        accepted = [e for e in sim.log_.entries
                    if e.event == "advertisement" and dict(e.details).get("verdict") == "accept"]
        assert accepted
        for event in accepted:
            path = dict(event.details)["path"].split(">")
            assert len(path) == len(set(path))

    def test_forged_gateway_signature_rejected(self):
        sim = two_network_sim()
        sim.advance_to(2)
        from vaspnet.network import build_advertisement, process_advertisement
        v3 = sim.vasps["v3"]
        adv = v3.seal(build_advertisement(sim.networks["net-b"], "v3", v3.directory.views))
        forged = ReachabilityAdvertisement(**{
            **adv.__dict__, "advertised_hashes": frozenset({b"\x01" * 32}),
        })
        verdict, reason = process_advertisement(
            sim.networks["net-a"], "v2", forged, "v3", lambda vasp_id: sim.vasps[vasp_id].reach)
        assert (verdict, reason) == ("drop", "bad-signature")

    def test_non_gateway_sender_rejected(self):
        sim = two_network_sim()
        sim.advance_to(2)
        from vaspnet.network import build_advertisement, process_advertisement
        adv = build_advertisement(sim.networks["net-b"], "v4", sim.vasps["v4"].directory.views)
        verdict, reason = process_advertisement(
            sim.networks["net-a"], "v2", adv, "v4", lambda vasp_id: sim.vasps[vasp_id].reach)
        assert (verdict, reason) == ("drop", "not-a-gateway")


def square_topology(extra_script=()):
    """Four networks in a cycle: A-B, B-D, A-C, C-D; one VASP+customer each.

    Per-network CAs so resolution cannot short-circuit through a shared
    affiliated CA and must walk the installed routes."""
    vasps = [
        {"vasp_id": "a1", "ca": "ca-a", "networks": ["net-a"]},
        {"vasp_id": "b1", "ca": "ca-b", "networks": ["net-b"]},
        {"vasp_id": "c1", "ca": "ca-c", "networks": ["net-c"]},
        {"vasp_id": "d1", "ca": "ca-d", "networks": ["net-d"]},
    ]
    peering = [
        {"vasp_a": "a1", "network_a": "net-a", "vasp_b": "b1", "network_b": "net-b"},
        {"vasp_a": "b1", "network_a": "net-b", "vasp_b": "d1", "network_b": "net-d"},
        {"vasp_a": "a1", "network_a": "net-a", "vasp_b": "c1", "network_b": "net-c"},
        {"vasp_a": "c1", "network_a": "net-c", "vasp_b": "d1", "network_b": "net-d"},
    ]
    customers = [
        {"customer_id": f"cust-{v}", "vasp": v, "custody_model": "mediated",
         "attributes": {"name": v, "email": f"{v}@x"}}
        for v in ("a1", "b1", "c1", "d1")
    ]
    script = [
        {"tick": 0, "action": "open_account", "customer": c["customer_id"]}
        for c in customers
    ] + [
        {"tick": 1, "action": "enroll", "customer": c["customer_id"]}
        for c in customers
    ] + list(extra_script)
    return Simulation(make_scenario(
        networks=("net-a", "net-b", "net-c", "net-d"),
        cas=("ca-a", "ca-b", "ca-c", "ca-d"),
        vasps=vasps, peering=peering, customers=customers,
        script=script,
    ))


class TestPathVectorRouting:
    def test_cycle_topology_loop_free_and_complete(self):
        sim = square_topology()
        sim.run()
        all_hashes = set()
        for vasp in sim.vasps.values():
            for account in vasp.book.accounts.values():
                all_hashes.add(crypto.digest(account.customer_public_key))
        for network_id, network in sim.networks.items():
            reachable = set()
            for entry in network.route_table.values():
                assert len(set(entry.network_path)) == len(entry.network_path)
                assert network_id not in entry.network_path
                reachable |= entry.hashes
            local = {
                crypto.digest(account.customer_public_key)
                for member_id in network.member_ids()
                for account in sim.vasps[member_id].book.accounts.values()
            }
            assert reachable | local == all_hashes, network_id

    def test_equal_length_paths_tie_break_deterministic(self):
        sim = square_topology()
        sim.run()
        # net-a reaches net-d via [net-d, net-b] or [net-d, net-c]; smaller
        # path tuple wins
        entry = sim.networks["net-a"].route_table["net-d"]
        assert len(entry.network_path) == 2
        assert entry.network_path == ("net-d", "net-b")

    def test_routed_query_follows_installed_path(self):
        sim = square_topology()
        sim.run()
        a1, d1 = sim.vasps["a1"], sim.vasps["d1"]
        target_hash = crypto.digest(d1.book.accounts["acct-cust-d1"].customer_public_key)
        resolved = a1.resolve_beneficiary(TransferTarget.from_key_hash(target_hash), sim.now)
        assert resolved is not None
        assert resolved.home_vasp_id == "d1"
        assert resolved.resolution_path[0] == "a1"
        assert resolved.resolution_path[-1] == "d1"
        assert "b1" in resolved.resolution_path  # the preferred tie-break route

    def test_gateway_down_mid_path_not_found(self):
        sim = square_topology()
        sim.advance_to(30)
        a1 = sim.vasps["a1"]
        d_hash = crypto.digest(
            sim.vasps["d1"].book.accounts["acct-cust-d1"].customer_public_key)
        # kill both outbound links from net-a mid-path
        sim._link("a1", "b1").down_until = sim.now + 50
        sim._link("a1", "c1").down_until = sim.now + 50
        from vaspnet.network import route_cross_network_query
        response, hops = route_cross_network_query(
            "a1", a1.networks_sorted(), d_hash,
            lambda via, nxt: sim.vasps[nxt].resolver if sim.link_ok(via, nxt) else None,
            functools.partial(sim.log, "a1"))
        assert response is None
        assert hops[0] == "a1"
        failures = [e for e in sim.log_.entries if e.event == "route_query_failed"]
        assert failures

    def test_dump_route_lines_format(self):
        sim = square_topology()
        result = sim.run()
        from vaspnet.report import dump_route_lines
        lines = dump_route_lines(result)
        assert lines
        for line in lines:
            network_id, hash_prefix, home, path = line.split(",")
            assert network_id.startswith("net-")
            assert len(hash_prefix) == 16
            assert ">" not in home


def line_topology(extra_script=()):
    """Three networks in a line, a-b-c: a1 peers with b1, and b2 with c1, so
    net-b's route to net-a reaches net-c only as b2's forward. Per-network
    CAs; one customer each at a1 and c1."""
    vasps = [
        {"vasp_id": "a1", "ca": "ca-a", "networks": ["net-a"]},
        {"vasp_id": "b1", "ca": "ca-b", "networks": ["net-b"]},
        {"vasp_id": "b2", "ca": "ca-b", "networks": ["net-b"]},
        {"vasp_id": "c1", "ca": "ca-c", "networks": ["net-c"]},
    ]
    peering = [
        {"vasp_a": "a1", "network_a": "net-a", "vasp_b": "b1", "network_b": "net-b"},
        {"vasp_a": "b2", "network_a": "net-b", "vasp_b": "c1", "network_b": "net-c"},
    ]
    customers = [
        {"customer_id": f"cust-{v}", "vasp": v, "custody_model": "mediated",
         "attributes": {"name": v, "email": f"{v}@x"}}
        for v in ("a1", "c1")
    ]
    script = [
        {"tick": 0, "action": "open_account", "customer": c["customer_id"]} for c in customers
    ] + [
        {"tick": 1, "action": "enroll", "customer": c["customer_id"]} for c in customers
    ] + list(extra_script)
    return Simulation(make_scenario(
        networks=("net-a", "net-b", "net-c"), cas=("ca-a", "ca-b", "ca-c"),
        vasps=vasps, peering=peering, customers=customers, script=script,
    ))


class TestAdjRibOut:
    """A gateway holds what it advertised over each link and re-sends it."""

    def test_forwarded_route_lost_in_flight_is_refreshed(self):
        # b1 installs a1's route carrying cust-a1 at tick 11 to 13 and b2
        # forwards it to c1 while their link is down. Every later copy from
        # a1 is a duplicate at b1, so only b2's keepalive can bring it.
        sim = line_topology([
            {"tick": 11, "action": "drop_link", "a": "b2", "b": "c1", "period": 4},
            {"tick": 200, "action": "transfer", "origin": "cust-c1",
             "target": {"customer": "cust-a1"}, "amount": 5},
        ])
        sim.run()
        lost = [e for e in sim.log_.entries if e.event == "message_dropped"
                and dict(e.details)["kind"] == "reach_adv" and e.actor == "b2"]
        assert lost and all(11 <= e.tick < 15 for e in lost)
        outcome = sim.scripted_transfers[0].outcome
        assert outcome.status is OutcomeStatus.BROADCAST, outcome.denial
        a_hash = crypto.digest(sim.vasps["a1"].book.accounts["acct-cust-a1"].customer_public_key)
        assert a_hash in sim.networks["net-c"].route_table["net-a"].hashes

    def test_converged_link_falls_silent(self, monkeypatch):
        sim = line_topology()
        # The last change over the b2-c1 link is b2's forward of tick 11.
        # Each gateway's digest then changed, and each sends it once, at the
        # next sync period; from then on the link carries nothing and
        # nothing is signed for it. net-b certifies no key, so its empty
        # route is never advertised.
        sim.advance_to(35)
        b2, c1 = sim.vasps["b2"], sim.vasps["c1"]
        (link,) = sim.networks["net-b"].links_of("b2")
        held = dict(b2.reach.links[link].sent)
        assert sorted(held) == ["net-a"]
        assert held["net-a"].network_path == ("net-a", "net-b")
        assert c1.reach.links[link].received == held
        keepalive = b2.reach.gossip.heartbeats[link]
        assert keepalive.held == routes_digest(held) == routes_digest(c1.reach.links[link].received)
        assert keepalive.received == routes_digest(b2.reach.links[link].received) == routes_digest(
            c1.reach.links[link].sent)
        assert crypto.check(b2.certificate.subject_public_key, keepalive)
        assert c1.reach.gossip.peers[link, "b2"].listed == keepalive
        assert b2.reach.gossip.peers[link, "c1"].listed == c1.reach.gossip.heartbeats[link]
        sent = record_sends(sim, monkeypatch, {"reach_adv", "reach_digest", "refreshed_routes"})
        signs = count_calls(monkeypatch, crypto, "sign")
        sim.advance_to(100)
        assert sent == [] and signs == []
        # A digest that differs is acted on only if b2 signed it.
        c1.on_message("reach_digest", replace(keepalive, held=bytes(32)), "b2")
        assert sent == []

    def test_refresh_drops_a_route_the_sender_no_longer_holds(self):
        sim = line_topology()
        sim.advance_to(35)
        b2, c1 = sim.vasps["b2"], sim.vasps["c1"]
        (link,) = sim.networks["net-b"].links_of("b2")
        held = b2.reach.links[link].sent
        c1.reach.links[link].received = c1.reach.links[link].received.put(
            replace(held["net-a"], origin_network_id="net-x"))
        sim.advance_to(60)
        assert c1.reach.links[link].received == held

    def test_lost_forward_is_repaired_by_digest_and_refresh(self, monkeypatch):
        # As in the first test, b2's forward of a1's route to c1 is lost, and
        # so is c1's own advertisement of tick 10. Each gateway's digest
        # changed with what it sent, and each goes at the next sync period,
        # 20, and shows the other side what it lacks: each pushes the routes
        # it holds. Both repairs land within one sync period of the loss plus
        # two latencies. Each gateway's digest then changed again, goes once
        # at tick 30, and the link falls silent.
        sim = line_topology([
            {"tick": 11, "action": "drop_link", "a": "b2", "b": "c1", "period": 4}])
        sent = record_sends(sim, monkeypatch, {"reach_adv", "reach_digest", "refreshed_routes"})
        sim.advance_to(100)
        b2, c1 = sim.vasps["b2"], sim.vasps["c1"]
        (link,) = sim.networks["net-b"].links_of("b2")
        held = b2.reach.links[link].sent
        lost = [e.tick for e in sim.log_.entries if e.event == "message_dropped"]
        assert lost and all(11 <= tick < 15 for tick in lost)
        exchange = [(tick, src, kind) for tick, src, dst, kind, _ in sent
                    if {src, dst} == {"b2", "c1"} and tick > 15]
        repair = sorted((tick, src, kind) for tick, src, kind in exchange if tick < 30)
        assert [(src, kind) for _, src, kind in repair] == [
            ("b2", "reach_digest"), ("c1", "reach_digest"), ("b2", "refreshed_routes"),
            ("c1", "refreshed_routes")]
        assert repair[0][0] == 20
        assert all(tick <= 10 + 10 + 2 * MAX_LATENCY for tick, _, _ in repair)
        assert sorted((tick, src, kind) for tick, src, kind in exchange if tick >= 30) == [
            (30, "b2", "reach_digest"), (30, "c1", "reach_digest")]
        (reply,) = [payload for tick, src, dst, kind, payload in sent
                    if (src, kind) == ("b2", "refreshed_routes")]
        assert reply == tuple(held.values()) and "net-a" in held
        assert "net-a" in sim.networks["net-c"].route_table
        assert "net-c" in sim.networks["net-b"].route_table
        assert c1.reach.links[link].received == held
        assert b2.reach.links[link].received == c1.reach.links[link].sent

    def test_withdrawn_route_leaves_the_far_side_within_one_sync_period(self, monkeypatch):
        # No withdrawal message exists: once b2 stops holding net-a's route
        # for the link, its digest changes and goes at the next sync period;
        # c1 lacks what it lists and sends back its own digest, and b2 pushes
        # what it holds, which no longer names net-a. So the route leaves
        # c1's Adj-RIB-In and net-c's route table within one sync period plus
        # three latencies.
        sim = line_topology()
        sim.advance_to(35)
        b2, c1 = sim.vasps["b2"], sim.vasps["c1"]
        (link,) = sim.networks["net-b"].links_of("b2")
        assert "net-a" in c1.reach.links[link].received
        assert sim.networks["net-c"].route_table["net-a"].next_hop_gateway == "b2"
        sent = record_sends(sim, monkeypatch, {"reach_adv", "reach_digest", "refreshed_routes"})
        b2.reach.withdraw(link, "net-a")
        assert "net-a" not in b2.reach.links[link].sent
        sim.advance_to(35 + SYNC_PERIOD + 3 * MAX_LATENCY)
        assert [(src, kind) for tick, src, _, kind, _ in sent if tick < 50] == [
            ("b2", "reach_digest"), ("c1", "reach_digest"), ("b2", "refreshed_routes")]
        assert "net-a" not in c1.reach.links[link].received
        assert "net-a" not in sim.networks["net-c"].route_table
        # Each digest changed again, goes once, and the link falls silent.
        sim.advance_to(100)
        assert sorted((tick, src, kind) for tick, src, _, kind, _ in sent if tick >= 50) == [
            (50, "b2", "reach_digest"), (50, "c1", "reach_digest")]

    @pytest.mark.parametrize("forged", ["empty", "bad-signature"])
    def test_push_unlike_the_last_verified_digest_withdraws_no_route(self, forged):
        # A push is signed route by route, not as a set, so anyone may send
        # one as b2 that leaves a route out. c1 takes it as its Adj-RIB-In,
        # but it differs from b2's last verified digest, so net-c's route
        # table keeps every route. c1's own digest then lists less than b2
        # holds, and b2's push of what it holds restores the Adj-RIB-In.
        sim = line_topology()
        sim.advance_to(35)
        b2, c1 = sim.vasps["b2"], sim.vasps["c1"]
        (link,) = sim.networks["net-b"].links_of("b2")
        held = b2.reach.links[link].sent
        table = dict(sim.networks["net-c"].route_table)
        assert table["net-a"].next_hop_gateway == "b2" and sorted(held) == ["net-a"]
        routes = {"empty": (),
                  "bad-signature": (replace(held["net-a"], advertised_hashes=frozenset()),)}
        c1.on_message("refreshed_routes", routes[forged], "b2")
        assert "net-a" not in c1.reach.links[link].received
        assert sim.networks["net-c"].route_table == table
        sim.advance_to(60)
        assert c1.reach.links[link].received == held
        assert sim.networks["net-c"].route_table == table

    def test_quiet_periods_after_convergence_compute_no_routes_digest(self, monkeypatch):
        # Both links are quiet from tick 35 (see the silence test): nothing
        # is sent over them, and no routes digest is computed.
        sim = line_topology()
        sim.advance_to(35)
        digests = count_calls(monkeypatch, vaspnet.network, "routes_digest")
        sent = record_sends(sim, monkeypatch, {"reach_digest", "refreshed_routes"})
        sim.advance_to(100)
        assert sent == [] and digests == []

    def test_routes_digest_is_kept_with_the_map_it_describes(self):
        sim = line_topology()
        sim.advance_to(35)
        (link,) = sim.networks["net-b"].links_of("b2")
        held = sim.vasps["b2"].reach.links[link].sent
        forked = held.put(replace(held["net-a"], origin_network_id="net-x"))
        assert sorted(held) == ["net-a"] and sorted(forked) == ["net-a", "net-x"]
        assert held.digest == routes_digest(dict(held))
        assert forked.digest == routes_digest(dict(forked)) != held.digest

    def test_links_hold_only_the_installed_routes_forwarded(self):
        sim = square_topology()
        sim.run()
        held_routes = 0
        for network_id, network in sim.networks.items():
            for link in network.peering_links:
                gateway = sim.vasps[link.near_gateway(network_id)]
                far_gateway, far_network = link.far_side(network_id)
                for origin, adv in gateway.reach.links[link].sent.items():
                    if origin == network_id:
                        continue
                    route = network.route_table[origin]
                    assert adv.network_path == route.network_path + (network_id,)
                    assert route.next_hop_gateway != far_gateway
                    assert far_network not in adv.network_path
                    held_routes += 1
        assert held_routes


class TestLiveDirectorySet:
    """``directory_entries`` is kept between sync periods, not rebuilt."""

    @staticmethod
    def scan(node, now):
        """The live entries recomputed from every account."""
        return frozenset(
            DirectoryEntry(a.certificate.serial, a.customer_public_key_hash,
                           a.certificate.issuer_id)
            for a in node.book.accounts.values()
            if a.certificate is not None and a.customer_public_key is not None
            and not node.revocation.is_revoked(a.certificate.issuer_id, a.certificate.serial)
            and now <= a.certificate.validity_not_after
        )

    def test_equals_a_scan_at_every_sync_period(self, monkeypatch):
        people = [("alice", "v1"), ("carol", "v1"), ("dave", "v1"), ("bob", "v4")]
        sim = two_network_sim(customers=[
            {"customer_id": name, "vasp": vasp, "custody_model": "mediated",
             "attributes": {"name": name, "email": f"{name}@x"}}
            for name, vasp in people
        ], script=[
            {"tick": 0, "action": "open_account", "customer": name}
            for name in ("alice", "carol", "bob")
        ] + [
            {"tick": 1, "action": "enroll", "customer": "alice"},
            {"tick": 1, "action": "enroll", "customer": "bob"},
            {"tick": 22, "action": "open_account", "customer": "dave"},
            {"tick": 23, "action": "enroll", "customer": "dave"},
            {"tick": 31, "action": "revoke_cert", "customer": "bob"},
        ])
        sizes = {}
        real = vaspnet.vasp.VaspNode.directory_entries

        def checked(node, now):
            entries = real(node, now)
            assert entries == self.scan(node, now), (node.vasp_id, now)
            sizes.setdefault(node.vasp_id, {})[now] = len(entries)
            return entries

        monkeypatch.setattr(vaspnet.vasp.VaspNode, "directory_entries", checked)
        v1 = sim.vasps["v1"]
        sim.advance_to(11)
        # Valid through tick 36: it expires between two sync periods.
        v1.book.enroll_customer_certificate("acct-carol", CertClass.CLASS1, 11, validity_ticks=25)
        sim.advance_to(44)
        v1.book.enroll_customer_certificate("acct-alice", CertClass.CLASS1, 44)  # replaces
        sim.advance_to(70)
        # Enrolments at 11 and 23, expiry after 36, re-enrolment at 44.
        assert sizes["v1"] == {0: 0, 10: 1, 20: 2, 30: 3, 40: 2, 50: 2, 60: 2, 70: 2}
        # Revoked at 31; v4 merges the CRL at 40, after that tick's sync.
        assert sizes["v4"] == {0: 0, 10: 1, 20: 1, 30: 1, 40: 1, 50: 0, 60: 0, 70: 0}


class TestAdvertisementReuse:
    def test_changed_member_view_gets_a_fresh_advertisement(self, monkeypatch):
        sim = two_network_sim()
        sim.advance_to(13)  # v1's delta of tick 10 has reached v2
        v1, v2 = sim.vasps["v1"], sim.vasps["v2"]
        network = sim.networks["net-a"]
        sent = capture_sends(sim, monkeypatch)
        signed = count_calls(monkeypatch, crypto, "sign")

        def advertise():
            sent.clear()
            signed.clear()
            v2.reach.links.clear()  # so the link is sent the advertisement again
            v2.advertise_reachability(sim.now)
            (adv,) = [p for _, _, kind, p in sent if kind == "reach_adv"]
            fresh = v2.seal(build_advertisement(network, "v2", v2.directory.views))
            assert adv == fresh
            return adv, len(signed) - 1  # signatures beyond the reference's

        first, _ = advertise()
        again, signatures = advertise()
        assert again is first and signatures == 0

        # A delta adds an entry to v2's view of v1.
        v1.open_account("zed", {"name": "Zed", "email": "z@x"}, CustodyModel.MEDIATED,
                        customer_wallet=crypto.generate_keypair(crypto.digest(b"zed")),
                        account_id="acct-zed", now=sim.now)
        v1.book.enroll_customer_certificate("acct-zed", CertClass.CLASS1, sim.now)
        sent.clear()
        v1.publish_directory(sim.now)
        delta = next(p for _, dst, kind, p in sent if kind == "dir_delta" and dst == "v2")
        v2.on_dir_delta(delta, "v1")
        added, signatures = advertise()
        zed_hash = v1.book.accounts["acct-zed"].customer_public_key_hash
        assert signatures == 1 and zed_hash in added.advertised_hashes - first.advertised_hashes

        # A CRL revoking zed leaves v2's view of v1, and the advertisement, as
        # they were.
        v1.ca.revoke(v1.book.accounts["acct-zed"].certificate_serial,
                     RevocationReason.KEY_COMPROMISE, sim.now)
        crl = v1.ca.generate_crl(sim.now)
        v2.ingest_crls([crl])
        kept, signatures = advertise()
        assert kept is added and signatures == 0

        # v1's removal delta drops zed from v2's view of v1.
        v1.ingest_crls([crl])
        sent.clear()
        v1.directory.sync(sim.now)
        delta = next(p for _, dst, kind, p in sent if kind == "dir_delta" and dst == "v2")
        v2.on_dir_delta(delta, "v1")
        removed, signatures = advertise()
        assert signatures == 1 and removed.advertised_hashes == first.advertised_hashes


class TestAdvertisedKeySetEncoding:
    def test_forwarded_key_set_is_sorted_and_encoded_once(self, monkeypatch):
        # a1's route crosses the line a-b-c: a1 signs it for b1, and b2
        # signs its forward for c1. Both copies share one key-hash set.
        vaspnet.network._hashes_bytes.cache_clear()
        encoded = []
        encode = vaspnet.network.encode_bytes_list

        def recording(items):
            items = list(items)
            encoded.append(items)
            return encode(items)

        monkeypatch.setattr(vaspnet.network, "encode_bytes_list", recording)
        sim = line_topology()
        sim.run()
        senders = {e.actor for e in sim.log_.entries
                   if e.event == "advertisement_sent" and dict(e.details)["origin"] == "net-a"}
        assert senders == {"a1", "b2"}
        route = sim.networks["net-c"].route_table["net-a"]
        assert route.network_path == ("net-a", "net-b") and route.hashes
        assert encoded.count(sorted(route.hashes)) == 1


class TestCrlMergeLeavesViews:
    def test_merge_reports_whether_it_applied(self):
        sim = two_network_sim()
        sim.advance_to(2)
        ca = sim.vasps["v1"].ca
        serial = sim.vasps["v1"].book.accounts["acct-alice"].certificate_serial
        view = RevocationView()
        base = ca.generate_crl(2)
        assert view.merge_crl(base) is True
        assert not view.is_revoked("ca-1", serial)
        assert view.merge_crl(base) is False
        ca.revoke(serial, RevocationReason.KEY_COMPROMISE, 3)
        full = ca.generate_crl(4)
        assert view.merge_crl(full) is True
        assert view.is_revoked("ca-1", serial)
        assert view.merge_crl(full) is False
        assert view.merge_crl(base) is False
        assert view.is_revoked("ca-1", serial)
        fresh = RevocationView()
        assert fresh.merge_crl(full) is True
        assert fresh.is_revoked("ca-1", serial)
        assert fresh.merge_crl(full) is False

    def test_views_untouched_by_crls_revoking_nothing(self):
        sim = two_network_sim()
        sim.advance_to(20)
        v2 = sim.vasps["v2"]
        views = {owner: view.entries for owner, view in v2.directory.views.items()}
        assert views["v1"]
        v2.ingest_crls([sim.vasps["v1"].ca.generate_crl(sim.now)])
        assert all(v2.directory.views[o].entries is e for o, e in views.items())

    def test_delta_adding_a_revoked_entry_applies_as_published(self, monkeypatch):
        sim = two_network_sim()
        sim.advance_to(14)
        v1, v2 = sim.vasps["v1"], sim.vasps["v2"]
        v1.open_account("zed", {"name": "Zed", "email": "z@x"}, CustodyModel.MEDIATED,
                        customer_wallet=crypto.generate_keypair(crypto.digest(b"zed")),
                        account_id="acct-zed", now=sim.now)
        v1.book.enroll_customer_certificate("acct-zed", CertClass.CLASS1, sim.now)
        sent = capture_sends(sim, monkeypatch)
        v1.publish_directory(sim.now)
        delta = next(p for _, dst, kind, p in sent if kind == "dir_delta" and dst == "v2")
        # v2 learns of the revocation before the delta that lists the entry.
        serial = v1.book.accounts["acct-zed"].certificate_serial
        v1.ca.revoke(serial, RevocationReason.KEY_COMPROMISE, sim.now)
        v2.ingest_crls([v1.ca.generate_crl(sim.now)])
        view = v2.directory.views["v1"]
        before = view.entries
        v2.on_dir_delta(delta, "v1")
        assert view.version == delta.to_version
        assert {e.serial for e in delta.added} == {serial}
        assert view.entries == before | delta.added
        # The entry is refused where every certificate is checked.
        zed = v1.book.accounts["acct-zed"].certificate
        assert v2.validate(zed).status is ValidationStatus.REVOKED


class TestEntryEncodingMemo:
    def test_forged_copy_gets_its_own_bytes(self):
        entry = DirectoryEntry(b"\x01" * 16, b"\x02" * 32, "ca-1")
        forged = DirectoryEntry(**{**entry.__dict__, "issuer_ca_id": "ca-evil"})
        assert entry.to_bytes() == entry.to_bytes()
        assert forged.to_bytes() != entry.to_bytes()
        assert forged.to_bytes() == crypto.canonical_encode([
            (1, b"\x01" * 16), (2, b"\x02" * 32), (3, crypto.enc_str("ca-evil")),
        ])
        assert set(vars(entry)) == {"serial", "public_key_hash", "issuer_ca_id"}


class TestAdvertisementEncodingMemo:
    def test_forged_copy_gets_its_own_payload(self):
        sim = two_network_sim()
        sim.advance_to(13)
        v2 = sim.vasps["v2"]
        adv = v2.seal(build_advertisement(sim.networks["net-a"], "v2", v2.directory.views))
        payload = adv.signed_payload()
        forged = ReachabilityAdvertisement(**{
            **adv.__dict__, "advertised_hashes": adv.advertised_hashes | {b"\x01" * 32},
        })
        assert forged.signed_payload() != payload
        assert not crypto.check(v2.certificate.subject_public_key, forged)
        assert adv.signed_payload() == payload
        assert crypto.check(v2.certificate.subject_public_key, adv)
