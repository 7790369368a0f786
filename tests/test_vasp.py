"""VASP node behavior through small scripted simulations."""

import random
from dataclasses import replace
from pathlib import Path

import pytest

import vaspnet.accounts
import vaspnet.vasp
from conftest import count_calls, make_scenario, standard_script
from vaspnet import crypto
from vaspnet.assertions import (
    ASSERTION_ID_LEN,
    TRAVEL_RULE_ATTRIBUTES,
    AttributeAssertion,
    Disclosure,
    EmptyDisclosure,
    SubjectCertInvalid,
    filter_attributes,
)
from vaspnet.ca import CertClass, RevocationReason
from vaspnet.chain import SubmitResult, build_transaction
from vaspnet.harness import Simulation
from vaspnet.network import ACK_TIMEOUT
from vaspnet.cli import load_scenario
from vaspnet.accounts import (
    CustodyModel,
    ModelKeyMismatch,
    NoCustomerKey,
    VaspError,
    fresh_id,
)
from vaspnet.resolution import TransferTarget
from vaspnet.transfer import (
    AckDecision,
    BeneficiaryRef,
    DenialCode,
    DenialReason,
    MixedDestination,
    OutcomeStatus,
    RecordRole,
    RecordStatus,
    TransferAck,
    TransferNotice,
)


SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def build_sim(**kwargs):
    return Simulation(make_scenario(**kwargs))


def open_and_enroll(extra_script=()):
    return build_sim(script=standard_script(extra_script))


class TestAccounts:
    def test_mediated_account_holds_public_key_only(self):
        sim = open_and_enroll()
        sim.advance_to(2)
        account = sim.vasps["v1"].book.accounts["acct-alice"]
        assert account.custody_model is CustodyModel.MEDIATED
        assert account.customer_public_key is not None
        assert account.custodied_private_key is None
        assert account.key_operator_evidence is None

    def test_key_custody_generates_and_records_evidence(self):
        sim = build_sim(customers=[
            {"customer_id": "kay", "vasp": "v1", "custody_model": "key-custody",
             "attributes": {"name": "Kay", "email": "k@x"}},
        ], script=[{"tick": 0, "action": "open_account", "customer": "kay"}])
        sim.advance_to(1)
        account = sim.vasps["v1"].book.accounts["acct-kay"]
        assert account.customer_public_key is not None
        assert account.custodied_private_key is not None
        evidence = account.key_operator_evidence
        assert evidence is not None and evidence.operator_vasp_id == "v1"

    def test_commingled_rejects_supplied_key(self):
        sim = open_and_enroll()
        sim.advance_to(2)
        node = sim.vasps["v1"]
        with pytest.raises(ModelKeyMismatch):
            node.open_account("x", {"name": "X"}, CustodyModel.COMMINGLED,
                              crypto.keypair_from_label("late", "x"), "acct-x", 2)

    def test_mediated_requires_key(self):
        sim = open_and_enroll()
        node = sim.vasps["v1"]
        with pytest.raises(ModelKeyMismatch):
            node.open_account("x", {"name": "X"}, CustodyModel.MEDIATED, None, "acct-x", 0)

    def test_key_custody_rejects_supplied_key(self):
        sim = open_and_enroll()
        node = sim.vasps["v1"]
        with pytest.raises(ModelKeyMismatch):
            node.open_account("x", {"name": "X"}, CustodyModel.KEY_CUSTODY,
                              crypto.keypair_from_label("late", "x"), "acct-x", 0)

    @pytest.mark.parametrize("model", [CustodyModel.MEDIATED, CustodyModel.KEY_CUSTODY,
                                       CustodyModel.COMMINGLED])
    def test_known_keys_include_late_opened_account(self, model):
        sim = open_and_enroll()
        sim.advance_to(2)
        node = sim.vasps["v1"]
        before = node.known_keys()
        wallet = crypto.keypair_from_label("late", "carol")
        account = node.open_account(
            "carol", {"name": "Carol"}, model,
            customer_wallet=wallet if model is CustodyModel.MEDIATED else None,
            account_id="acct-carol", now=2,
        )
        keys = node.known_keys()
        assert keys == {node.certificate.subject_public_key} | {
            a.customer_public_key for a in node.book.accounts.values()
            if a.customer_public_key is not None
        }
        if model is CustodyModel.COMMINGLED:
            assert keys == before
        else:
            assert account.customer_public_key in keys - before


class TestEnrollment:
    def test_evidence_hash_is_cert_digest(self):
        sim = open_and_enroll()
        sim.advance_to(2)
        account = sim.vasps["v1"].book.accounts["acct-alice"]
        assert account.certificate is not None
        assert account.key_ownership_evidence == crypto.digest(account.certificate.to_bytes())

    def test_commingled_enrollment_refused(self):
        sim = build_sim(customers=[
            {"customer_id": "pool", "vasp": "v1", "custody_model": "commingled",
             "attributes": {"name": "Pool", "email": "p@x"}},
        ], script=[{"tick": 0, "action": "open_account", "customer": "pool"}])
        sim.advance_to(1)
        with pytest.raises(NoCustomerKey):
            sim.vasps["v1"].book.enroll_customer_certificate("acct-pool", CertClass.CLASS1, 1)

    def test_reenrollment_after_revocation_updates_evidence(self):
        sim = open_and_enroll()
        sim.advance_to(2)
        node = sim.vasps["v1"]
        account = node.book.accounts["acct-alice"]
        first_serial = account.certificate_serial
        first_evidence = account.key_ownership_evidence
        node.ca.revoke(first_serial, RevocationReason.KEY_COMPROMISE, 3)
        node.book.enroll_customer_certificate("acct-alice", CertClass.CLASS1, 4)
        assert account.certificate_serial != first_serial
        assert account.key_ownership_evidence != first_evidence


class TestResolution:
    def test_own_customer_path_is_self(self):
        sim = open_and_enroll()
        sim.advance_to(2)
        node = sim.vasps["v1"]
        account = node.book.accounts["acct-alice"]
        target = TransferTarget.from_key_hash(crypto.digest(account.customer_public_key))
        resolved = node.resolve_beneficiary(target, 2)
        assert resolved is not None
        assert resolved.resolution_path == ("v1",)
        assert resolved.home_vasp_id == "v1"

    def test_affiliated_ca_path(self):
        # bob enrolls at the shared CA; before any gossip both VASPs resolve
        # through the CA database (steps 2-3 of the fetch flow).
        sim = open_and_enroll()
        sim.advance_to(2)
        v1, v2 = sim.vasps["v1"], sim.vasps["v2"]
        bob_hash = v2.book.accounts["acct-bob"].customer_public_key_hash
        resolved = v1.resolve_beneficiary(TransferTarget.from_key_hash(bob_hash), 2)
        assert resolved is not None
        assert resolved.resolution_path == ("v1", "ca-1")
        assert resolved.home_vasp_id == "v2"

    def test_directory_path_when_ca_differs(self):
        sim = build_sim(
            cas=("ca-1", "ca-2"),
            vasps=[
                {"vasp_id": "v1", "ca": "ca-1", "networks": ["net-a"]},
                {"vasp_id": "v2", "ca": "ca-2", "networks": ["net-a"]},
            ],
            script=standard_script(),
        )
        sim.advance_to(20)  # one gossip period past enrollment
        v1, v2 = sim.vasps["v1"], sim.vasps["v2"]
        bob_key = v2.book.accounts["acct-bob"].customer_public_key
        resolved = v1.resolve_beneficiary(
            TransferTarget.from_key_hash(crypto.digest(bob_key)), sim.now
        )
        assert resolved is not None
        assert resolved.resolution_path == ("v1", "v2")

    def test_unknown_hash_unresolved(self):
        sim = open_and_enroll()
        sim.advance_to(2)
        assert sim.vasps["v1"].resolve_beneficiary(
            TransferTarget.from_key_hash(b"\xaa" * 32), 2
        ) is None


class TestTransferPipeline:
    def test_happy_path_confirms_both_sides(self):
        sim = open_and_enroll([
            {"tick": 15, "action": "transfer", "origin": "alice",
             "target": {"customer": "bob"}, "amount": 100, "asset": "coin"},
        ])
        result = sim.run()
        outcome = sim.scripted_transfers[0].outcome
        assert outcome.status is OutcomeStatus.BROADCAST
        roles = sorted(
            record.role.value
            for vasp in sim.vasps.values()
            for record in vasp.records.values()
            if record.status is RecordStatus.CONFIRMED
        )
        assert roles == ["beneficiary", "originator"]
        assert not result.breaches

    def test_mediated_tx_signed_by_customer_wallet(self):
        sim = open_and_enroll([
            {"tick": 15, "action": "transfer", "origin": "alice",
             "target": {"customer": "bob"}, "amount": 10, "asset": "coin"},
        ])
        sim.run()
        tx = sim.chain.confirmed_transactions()[0][0]
        alice = sim.vasps["v1"].book.accounts["acct-alice"]
        assert tx.from_public_key == alice.customer_public_key

    def test_denied_leaves_ledger_untouched(self):
        sim = open_and_enroll([
            {"tick": 15, "action": "transfer", "origin": "alice",
             "target": {"key_hash_hex": "cd" * 32}, "amount": 10, "asset": "coin"},
        ])
        sim.run()
        assert sim.scripted_transfers[0].outcome.status is OutcomeStatus.DENIED
        assert sim.chain.confirmed_transactions() == []
        assert sim.metrics.ledger_transactions == 0

    def test_amount_must_be_positive(self):
        sim = open_and_enroll()
        sim.advance_to(2)
        node = sim.vasps["v1"]
        with pytest.raises(ValueError):
            node.initiate_transfer("acct-alice", TransferTarget.from_key_hash(b"\x01" * 32),
                                   0, "coin")

    def test_record_symmetry_same_notice(self):
        sim = open_and_enroll([
            {"tick": 15, "action": "transfer", "origin": "alice",
             "target": {"customer": "bob"}, "amount": 100, "asset": "coin"},
        ])
        sim.run()
        origin_records = [r for r in sim.vasps["v1"].records.values()
                          if r.role is RecordRole.ORIGINATOR_SIDE]
        ben_records = [r for r in sim.vasps["v2"].records.values()
                       if r.role is RecordRole.BENEFICIARY_SIDE]
        assert len(origin_records) == len(ben_records) == 1
        assert origin_records[0].notice.notice_id == ben_records[0].notice.notice_id


class TestNoticeHandling:
    def test_unknown_account_rejected(self):
        sim = open_and_enroll([
            {"tick": 15, "action": "transfer", "origin": "alice",
             "target": {"vasp": "v2", "account": "acct-bob"}, "amount": 10, "asset": "coin"},
        ])
        sim.advance_to(14)
        # remove bob between resolution and notice handling: simulate by
        # directly crafting the pipeline against a missing account
        v2 = sim.vasps["v2"]
        del v2.book.accounts["acct-bob"]
        v2.book._accounts_by_key_hash.clear()
        sim.run()
        outcome = sim.scripted_transfers[0].outcome
        assert outcome.status is OutcomeStatus.DENIED
        assert outcome.denial.code.value in ("BeneficiaryUnresolved", "AckRejected")

    def test_suspect_on_beneficiary_side_rejects(self):
        sim = open_and_enroll([
            {"tick": 15, "action": "transfer", "origin": "alice",
             "target": {"customer": "bob"}, "amount": 10, "asset": "coin"},
        ])
        sim.advance_to(14)
        # only the beneficiary VASP blocklists bob: originator screening passes,
        # beneficiary-side check fires
        v2 = sim.vasps["v2"]
        v2.suspect_list.add("acct-bob")
        sim.run()
        outcome = sim.scripted_transfers[0].outcome
        assert outcome.status is OutcomeStatus.DENIED
        assert outcome.denial.code.value == "AckRejected"
        assert outcome.denial.detail == "SuspectParty"

    @pytest.mark.parametrize("custody", ["mediated", "key-custody", "commingled"])
    def test_suspect_customer_screened_whatever_its_custody_model(self, custody):
        # bob is listed by customer; a transfer to him is denied at the
        # originator's screening, so no notice goes out.
        sim = build_sim(
            customers=[
                {"customer_id": "alice", "vasp": "v1",
                 "attributes": {"name": "Alice", "email": "alice@example"}},
                {"customer_id": "bob", "vasp": "v2", "custody_model": custody,
                 "attributes": {"name": "Bob", "email": "bob@example"}},
            ],
            suspect_entries=[{"customer": "bob"}],
            script=[
                {"tick": 0, "action": "open_account", "customer": "alice"},
                {"tick": 0, "action": "open_account", "customer": "bob"},
                {"tick": 1, "action": "enroll", "customer": "alice"},
                *([] if custody == "commingled" else
                  [{"tick": 1, "action": "enroll", "customer": "bob"}]),
                {"tick": 15, "action": "transfer", "origin": "alice",
                 "target": {"customer": "bob"}, "amount": 10, "asset": "coin"},
            ],
        )
        sim.run()
        outcome = sim.scripted_transfers[0].outcome
        assert outcome.denial == DenialReason(DenialCode.SUSPECT_PARTY, "screening")
        assert [e for e in sim.log_.entries if e.event == "notice_sent"] == []

    def test_disclosure_floor_policy_refusal(self):
        # alice, commingled, registered no name: her disclosure lacks a
        # travel-rule core attribute, which the beneficiary VASP requires
        sim = build_sim(
            customers=[
                {"customer_id": "alice", "vasp": "v1", "custody_model": "commingled",
                 "attributes": {"email": "alice@example"}},
                {"customer_id": "bob", "vasp": "v2",
                 "attributes": {"name": "Bob", "email": "bob@example"}},
            ],
            script=[
                {"tick": 0, "action": "open_account", "customer": "alice"},
                {"tick": 0, "action": "open_account", "customer": "bob"},
                {"tick": 1, "action": "enroll", "customer": "bob"},
                {"tick": 15, "action": "transfer", "origin": "alice",
                 "target": {"customer": "bob"}, "amount": 10, "asset": "coin"},
            ],
        )
        sim.run()
        outcome = sim.scripted_transfers[0].outcome
        assert outcome.status is OutcomeStatus.DENIED
        assert outcome.denial.code.value == "AckRejected"
        assert outcome.denial.detail == "PolicyRefusal"
        assert [e.details for e in sim.log_.entries if e.event == "policy_refusal"] == [
            (("missing", "name"),)]

    @staticmethod
    def sealed_notice(sim, disclosure=None):
        """A notice v1 seals about ``disclosure``, by default alice's, not sent."""
        v1 = sim.vasps["v1"]
        if disclosure is None:
            account = v1.book.accounts["acct-alice"]
            disclosure = v1.book.disclose(account.subject_id, account.certificate,
                                          account.attributes)
        return v1.transfers._build_notice(
            beneficiary_vasp_id="v2", disclosure=disclosure,
            ref=BeneficiaryRef(public_key_hash=b"\x00" * 32),
            asset_type="coin", amount=5, now=sim.now, binding=b"\x00" * 32,
            batch_entries=None,
        )

    @staticmethod
    def assert_dropped_bad_signature(sim, forged):
        v2 = sim.vasps["v2"]
        before = len(v2.records)
        assert v2.handle_transfer_notice(forged, "v1") is None
        assert len(v2.records) == before
        dropped = sim.log_.entries[-1]
        assert (dropped.event, dict(dropped.details)["reason"]) == (
            "notice_dropped", "bad-signature")

    def test_bad_signature_notice_dropped(self):
        sim = open_and_enroll()
        sim.run()
        notice = self.sealed_notice(sim)
        self.assert_dropped_bad_signature(sim, replace(notice, amount=6))

    def test_notice_with_disclosure_altered_after_sealing_dropped(self):
        # The notice's one signature covers its disclosure.
        sim = open_and_enroll()
        sim.run()
        notice = self.sealed_notice(sim)
        disclosure = notice.originator_disclosure
        altered = replace(disclosure, attributes={**disclosure.attributes, "name": "Mallory"})
        self.assert_dropped_bad_signature(sim, replace(notice, originator_disclosure=altered))

    def test_disclosure_moved_into_another_sealed_notice_dropped(self):
        sim = open_and_enroll()
        sim.run()
        alice = self.sealed_notice(sim)
        pool = self.sealed_notice(sim, sim.vasps["v1"].book.pool_disclosure())
        assert alice.originator_disclosure != pool.originator_disclosure
        self.assert_dropped_bad_signature(
            sim, replace(alice, originator_disclosure=pool.originator_disclosure))

    def test_forged_notice_reusing_id_does_not_suppress_genuine(self):
        sim = open_and_enroll([
            {"tick": 15, "action": "transfer", "origin": "alice",
             "target": {"customer": "bob"}, "amount": 100, "asset": "coin"},
        ])
        sim.advance_to(15)
        queued = [m.payload for due in sim._queue.values() for m in due
                  if m.kind == "transfer_notice"]
        assert len(queued) == 1, "the genuine notice must still be in flight"
        genuine = queued[0]
        forged = TransferNotice(**{**genuine.__dict__, "amount": genuine.amount + 1})
        v1, v2 = sim.vasps["v1"], sim.vasps["v2"]
        v2.on_message("transfer_notice", forged, "v1")
        sim.run()
        acks = [e for e in sim.log_.entries if e.event == "ack_sent"
                and dict(e.details)["notice"] == genuine.notice_id.hex()]
        assert len(acks) == 1
        assert sim.scripted_transfers[0].outcome.status is OutcomeStatus.BROADCAST
        for node in (v1, v2):
            assert [r.notice.notice_id for r in node.records.values()
                    if r.status is RecordStatus.CONFIRMED] == [genuine.notice_id]


class TestSuspectScreening:
    def test_empty_refs_pass(self):
        sim = open_and_enroll()
        assert sim.vasps["v1"].transfers.screen_suspect([]) is True

    def test_blocked_hash_and_account(self):
        sim = open_and_enroll()
        node = sim.vasps["v1"]
        node.suspect_list.add(b"\x09" * 32)
        node.suspect_list.add("acct-evil")
        assert node.transfers.screen_suspect([b"\x09" * 32]) is False
        assert node.transfers.screen_suspect(["acct-evil"]) is False
        assert node.transfers.screen_suspect(["acct-good", b"\x08" * 32]) is True


class TestCommingledBatch:
    def batch_sim(self, n=3, customers_at_v2=("r1", "r2", "r3")):
        customers = [
            {"customer_id": f"p{i}", "vasp": "v1", "custody_model": "commingled",
             "attributes": {"name": f"P{i}", "email": f"p{i}@x"}}
            for i in range(n)
        ] + [
            {"customer_id": r, "vasp": "v2", "custody_model": "mediated",
             "attributes": {"name": r, "email": f"{r}@x"}}
            for r in customers_at_v2
        ]
        script = [
            {"tick": 0, "action": "open_account", "customer": c["customer_id"]}
            for c in customers
        ] + [
            {"tick": 1, "action": "enroll", "customer": r} for r in customers_at_v2
        ]
        return build_sim(customers=customers, script=script)

    def test_batch_single_tx_sum_amount(self):
        sim = self.batch_sim()
        sim.advance_to(12)
        v1 = sim.vasps["v1"]
        requests = [
            ("acct-p0", TransferTarget.from_account("v2", "acct-r1"), 10),
            ("acct-p1", TransferTarget.from_account("v2", "acct-r2"), 20),
            ("acct-p2", TransferTarget.from_account("v2", "acct-r3"), 30),
        ]
        outcome = v1.transfers.initiate_batch_transfer(requests, "coin")
        sim.run()
        assert outcome.status is OutcomeStatus.BROADCAST
        txs = sim.chain.confirmed_transactions()
        assert len(txs) == 1
        tx = txs[0][0]
        assert tx.amount == 60
        assert tx.from_public_key == v1.certificate.subject_public_key
        assert tx.to_public_key == sim.vasps["v2"].certificate.subject_public_key

    def test_batch_entries_sum_invariant_enforced(self):
        sim = self.batch_sim()
        sim.advance_to(12)
        outcome = sim.vasps["v1"].transfers.initiate_batch_transfer(
            [("acct-p0", TransferTarget.from_account("v2", "acct-r1"), 10),
             ("acct-p1", TransferTarget.from_account("v2", "acct-r2"), 20)], "coin",
        )
        sim.run()
        notice = outcome.record.notice
        [(tx, _)] = sim.chain.confirmed_transactions()
        assert notice.intended_chain_tx_binding == tx.tx_id
        assert notice.amount == 30 == tx.amount
        assert sum(a for _, a in notice.batch_entries) == notice.amount
        with pytest.raises(ValueError):
            TransferNotice(**{**notice.__dict__, "amount": 31})

    def test_single_entry_batch_equals_plain_commingled(self):
        sim = self.batch_sim()
        sim.advance_to(12)
        v1 = sim.vasps["v1"]
        outcome = v1.transfers.initiate_batch_transfer(
            [("acct-p0", TransferTarget.from_account("v2", "acct-r1"), 25)], "coin")
        sim.run()
        assert outcome.status is OutcomeStatus.BROADCAST
        txs = sim.chain.confirmed_transactions()
        assert len(txs) == 1 and txs[0][0].amount == 25

    def test_mixed_destination_raises(self):
        sim = build_sim(
            vasps=[
                {"vasp_id": "v1", "ca": "ca-1", "networks": ["net-a"]},
                {"vasp_id": "v2", "ca": "ca-1", "networks": ["net-a"]},
                {"vasp_id": "v3", "ca": "ca-1", "networks": ["net-a"]},
            ],
            customers=[
                {"customer_id": "p0", "vasp": "v1", "custody_model": "commingled",
                 "attributes": {"name": "P0", "email": "p@x"}},
                {"customer_id": "r1", "vasp": "v2", "custody_model": "mediated",
                 "attributes": {"name": "R1", "email": "r1@x"}},
                {"customer_id": "r2", "vasp": "v3", "custody_model": "mediated",
                 "attributes": {"name": "R2", "email": "r2@x"}},
            ],
            script=[
                {"tick": 0, "action": "open_account", "customer": c}
                for c in ("p0", "r1", "r2")
            ] + [
                {"tick": 1, "action": "enroll", "customer": c} for c in ("r1", "r2")
            ],
        )
        sim.advance_to(12)
        with pytest.raises(MixedDestination):
            sim.vasps["v1"].transfers.initiate_batch_transfer(
                [("acct-p0", TransferTarget.from_account("v2", "acct-r1"), 10),
                 ("acct-p0", TransferTarget.from_account("v3", "acct-r2"), 20)], "coin",
            )

    def test_batch_sums_over_random_batches(self):
        # arithmetic oracle over 100 random batches
        sim = self.batch_sim()
        sim.advance_to(12)
        rng = random.Random(42)
        v1 = sim.vasps["v1"]
        targets = ["acct-r1", "acct-r2", "acct-r3"]
        batches = []
        for _ in range(100):
            requests = [
                ("acct-p0", TransferTarget.from_account("v2", rng.choice(targets)),
                 rng.randrange(1, 10_000))
                for _ in range(rng.randrange(1, 6))
            ]
            batches.append((requests, v1.transfers.initiate_batch_transfer(requests, "coin")))
        sim.run()
        confirmed = {tx.tx_id: tx for tx, _ in sim.chain.confirmed_transactions()}
        assert len(confirmed) == 100
        for requests, outcome in batches:
            notice = outcome.record.notice
            tx = confirmed[notice.intended_chain_tx_binding]
            assert tx.amount == notice.amount == sum(a for _, _, a in requests)
            assert sum(a for _, a in notice.batch_entries) == tx.amount


class TestReconcileAndAudit:
    def test_clean_run_no_orphans_no_violations(self):
        sim = open_and_enroll([
            {"tick": 15, "action": "transfer", "origin": "alice",
             "target": {"customer": "bob"}, "amount": 100, "asset": "coin"},
        ])
        sim.run()
        for vasp in sim.vasps.values():
            report = vasp.reconcile()
            assert report.orphan_chain_txs == ()
            assert report.unconfirmed_records == ()
            audit = vasp.audit_travel_rule()
            assert audit.violations == ()

    def test_p2p_between_externals_not_an_orphan(self):
        sim = open_and_enroll([
            {"tick": 15, "action": "p2p_transfer", "from_wallet": "wx",
             "to_wallet": "wy", "amount": 5, "asset": "coin"},
        ])
        sim.run()
        for vasp in sim.vasps.values():
            assert vasp.reconcile().orphan_chain_txs == ()
        assert len(sim.chain.confirmed_transactions()) == 1

    def test_identical_p2p_transfers_in_one_tick_are_two_transactions(self):
        # The nonce comes from each action's place in the script, not from
        # the traffic sent before it.
        p2p = {"tick": 15, "action": "p2p_transfer", "from_wallet": "wx",
               "to_wallet": "wy", "amount": 5, "asset": "coin"}
        sim = open_and_enroll([p2p, p2p])
        sim.run()
        assert [e.event for e in sim.log_.entries if e.actor == "p2p:wx"] == ["tx_submitted"] * 2
        assert len(sim.chain.confirmed_transactions()) == 2

    def test_stripped_disclosure_flagged(self):
        sim = open_and_enroll([
            {"tick": 15, "action": "transfer", "origin": "alice",
             "target": {"customer": "bob"}, "amount": 100, "asset": "coin"},
        ])
        sim.run()
        v1 = sim.vasps["v1"]
        record = next(iter(v1.records.values()))
        record.ack = replace(record.ack, beneficiary_disclosure=None)
        audit = v1.audit_travel_rule()
        assert ("beneficiary_disclosure" in {what for _, what in audit.violations})

    def test_binding_mismatch_fixture(self):
        # a record pointing at a confirmed tx whose content hash differs from
        # the notice binding fails with BindingMismatch
        sim = open_and_enroll([
            {"tick": 15, "action": "transfer", "origin": "alice",
             "target": {"customer": "bob"}, "amount": 100, "asset": "coin"},
        ])
        v1 = sim.vasps["v1"]
        record = None
        for tick in range(16, 30):
            sim.advance_to(tick)
            pending_records = [r for r in v1.records.values()
                               if r.status is RecordStatus.PENDING_CHAIN]
            if pending_records:
                record = pending_records[0]
                break
        assert record is not None, "transfer never reached pending-chain"
        record.notice = TransferNotice(**{
            **record.notice.__dict__, "intended_chain_tx_binding": b"\x00" * 32,
        })
        sim.run()
        failed = [r for r in v1.records.values()
                  if r.status is RecordStatus.FAILED and r.failure_reason == "BindingMismatch"]
        assert len(failed) == 1


class TestRecordTransitions:
    def test_illegal_transition_rejected(self):
        sim = open_and_enroll([
            {"tick": 15, "action": "transfer", "origin": "alice",
             "target": {"customer": "bob"}, "amount": 100, "asset": "coin"},
        ])
        sim.run()
        record = next(iter(sim.vasps["v1"].records.values()))
        assert record.status is RecordStatus.CONFIRMED
        with pytest.raises(VaspError):
            record.advance(RecordStatus.PENDING_ACK, 99)


class TestPostNoticeEdges:
    """Each way an originator transfer ends after its notice went out, and
    the outcome and originator record agreeing on it."""

    TRANSFER = [{"tick": 15, "action": "transfer", "origin": "alice",
                 "target": {"customer": "bob"}, "amount": 100, "asset": "coin"}]

    @staticmethod
    def in_flight_ack(sim):
        """Advance until the ack is queued; return its message."""
        for tick in range(15, 30):
            sim.advance_to(tick)
            acks = [m for due in sim._queue.values() for m in due if m.kind == "transfer_ack"]
            if acks:
                return acks[0]
        raise AssertionError("no ack was sent")

    @staticmethod
    def events(sim):
        return [e.event for e in sim.log_.entries]

    @staticmethod
    def assert_failed(sim, code, detail=""):
        outcome = sim.scripted_transfers[0].outcome
        record = sim.vasps["v1"].records[outcome.record_id]
        assert outcome.status is OutcomeStatus.DENIED
        assert outcome.denial == DenialReason(code, detail)
        assert outcome.record is record
        assert record.status is RecordStatus.FAILED
        assert record.failure_reason == (f"{code.value}:{detail}" if detail else code.value)
        ledger = {tx.tx_id for tx, _ in sim.chain.confirmed_transactions()}
        assert record.notice.intended_chain_tx_binding not in ledger
        return record

    def test_ack_with_bad_signature_dropped_then_times_out(self):
        sim = open_and_enroll(self.TRANSFER)
        message = self.in_flight_ack(sim)
        message.payload = TransferAck(**{**message.payload.__dict__, "signature": bytes(64)})
        sim.run()
        assert "ack_dropped" in self.events(sim)
        record = self.assert_failed(sim, DenialCode.CHANNEL_TIMEOUT)
        assert record.ack is None and record.updated_at == record.created_at + ACK_TIMEOUT
        assert sim.chain.confirmed_transactions() == []

    def test_ack_for_unknown_notice_ignored(self):
        sim = open_and_enroll(self.TRANSFER)
        self.in_flight_ack(sim)
        v1, v2 = sim.vasps["v1"], sim.vasps["v2"]
        before = {rid: record.status for rid, record in v1.records.items()}
        stray = v2.seal(TransferAck(b"\x01" * 16, AckDecision.ACCEPT, None, None))
        v1.on_message("transfer_ack", stray, "v2")
        assert self.events(sim)[-1] == "ack_ignored"
        assert {rid: record.status for rid, record in v1.records.items()} == before
        sim.run()
        outcome = sim.scripted_transfers[0].outcome
        record = v1.records[outcome.record_id]
        assert outcome.status is OutcomeStatus.BROADCAST and outcome.denial is None
        assert record.status is RecordStatus.CONFIRMED
        ledger = {tx.tx_id for tx, _ in sim.chain.confirmed_transactions()}
        assert record.notice.intended_chain_tx_binding in ledger
        assert outcome.record is record

    def test_ack_with_disclosure_altered_after_sealing_dropped_then_times_out(self):
        # The ack's one signature covers its disclosure.
        sim = open_and_enroll(self.TRANSFER)
        message = self.in_flight_ack(sim)
        disclosure = message.payload.beneficiary_disclosure
        altered = replace(disclosure, attributes={**disclosure.attributes,
                                                  "account_id": "acct-mallory"})
        message.payload = replace(message.payload, beneficiary_disclosure=altered)
        sim.run()
        dropped = next(e for e in sim.log_.entries if e.event == "ack_dropped")
        assert dict(dropped.details)["reason"] == "bad-signature"
        record = self.assert_failed(sim, DenialCode.CHANNEL_TIMEOUT)
        assert record.ack is None
        assert sim.chain.confirmed_transactions() == []

    def test_accepting_ack_with_invalid_disclosure_rejected(self):
        sim = open_and_enroll(self.TRANSFER)
        message = self.in_flight_ack(sim)
        ack = message.payload
        assert ack.decision is AckDecision.ACCEPT
        v1, v2 = sim.vasps["v1"], sim.vasps["v2"]
        # Signed by the beneficiary VASP, but asserting the originator's customer.
        notice = next(iter(v1.records.values())).notice
        message.payload = v2.seal(TransferAck(
            ack.notice_id, AckDecision.ACCEPT, None, notice.originator_disclosure,
        ))
        sim.run()
        record = self.assert_failed(sim, DenialCode.ACK_REJECTED, "invalid-disclosure")
        assert record.ack == message.payload
        assert sim.chain.confirmed_transactions() == []

    def test_chain_refusing_prepared_tx(self, monkeypatch):
        sim = open_and_enroll(self.TRANSFER)
        self.in_flight_ack(sim)
        monkeypatch.setattr(sim.chain, "submit_transaction",
                            lambda tx, now: SubmitResult(accepted=False, reason="Refused"))
        sim.run()
        assert "chain_reject" in self.events(sim)
        record = self.assert_failed(sim, DenialCode.CHAIN_REJECTED)
        assert record.ack is not None and record.ack.decision is AckDecision.ACCEPT
        assert sim.chain.confirmed_transactions() == []


class TestDisclosure:
    """A disclosure is built unsigned, drawing no id: the notice or ack that
    carries it is what is signed. A query answer's assertion is its signed
    form, signed once, and equals in its bytes signing the full attribute
    set and then filtering it under the assertion's id, the one it draws."""

    @staticmethod
    def ids_after(node, draws):
        """The node's rng state after ``draws`` fresh ids, and those ids; the
        node's own state is left untouched."""
        start = node.book._rng.getstate()
        ids = [fresh_id(node.book._rng, ASSERTION_ID_LEN) for _ in range(draws)]
        state = node.book._rng.getstate()
        node.book._rng.setstate(start)
        return state, ids

    @pytest.mark.parametrize("kind", ["originator", "pool"])
    def test_built_unsigned_drawing_no_id(self, kind, monkeypatch):
        sim = open_and_enroll()
        sim.advance_to(2)
        node = sim.vasps["v1"]
        account = node.book.accounts["acct-alice"]
        if kind == "pool":
            subject_id, cert, attrs = node.vasp_id, node.certificate, node.vasp_attributes()
            disclose = node.book.pool_disclosure
        else:
            subject_id, cert, attrs = account.subject_id, account.certificate, account.attributes
            disclose = lambda: node.book.disclose(subject_id, cert, attrs)  # noqa: E731
        state = node.book._rng.getstate()
        signed = count_calls(monkeypatch, crypto, "sign")
        validated = count_calls(monkeypatch, vaspnet.vasp, "validate_certificate")
        disclosed = disclose()
        assert signed == [] and len(validated) == 1
        assert node.book._rng.getstate() == state
        assert disclosed == Disclosure(subject_id, cert.fingerprint(), {
            k: v for k, v in attrs.items() if k in TRAVEL_RULE_ATTRIBUTES})

    def test_answer_signed_once_same_bytes_one_id(self, monkeypatch):
        sim = open_and_enroll()
        sim.advance_to(2)
        node, now = sim.vasps["v1"], sim.now
        account = node.book.accounts["acct-alice"]
        cert, attrs = account.certificate, account.attributes
        state, ids = self.ids_after(node, 1)
        signed = count_calls(monkeypatch, crypto, "sign")
        validated = count_calls(monkeypatch, vaspnet.vasp, "validate_certificate")
        assertion = node.book.customer_assertion(account, now)
        assert len(signed) == 1 and len(validated) == 1
        assert node.book._rng.getstate() == state and assertion.assertion_id == ids[0]
        full = node.seal(AttributeAssertion(
            bytes(16), node.vasp_id, Disclosure(account.subject_id, cert.fingerprint(), attrs),
            now))
        expected = filter_attributes(full, TRAVEL_RULE_ATTRIBUTES, node._keypair,
                                     node.vasp_id, assertion.assertion_id, now)
        assert assertion.to_bytes() == expected.to_bytes()
        assert assertion.disclosure is node.book.disclose(account.subject_id, cert, attrs)

    def test_refused_disclosures_draw_no_id(self):
        sim = open_and_enroll()
        sim.advance_to(2)
        node, now = sim.vasps["v1"], sim.now
        account = node.book.accounts["acct-alice"]
        # A valid certificate with nothing to disclose: no registered
        # attribute is a travel-rule one.
        state = node.book._rng.getstate()
        with pytest.raises(EmptyDisclosure):
            node.book.disclose(account.subject_id, account.certificate, {"email": "a@x"})
        assert node.book._rng.getstate() == state
        # A revoked certificate: the certificate check wins.
        node.ca.revoke(account.certificate_serial, RevocationReason.KEY_COMPROMISE, now)
        node.ingest_crls([node.ca.generate_crl(now)])
        with pytest.raises(SubjectCertInvalid):
            node.book.disclose(account.subject_id, account.certificate, account.attributes)
        assert node.book.customer_assertion(account, now) is None
        assert node.book._rng.getstate() == state


class TestHeldDisclosures:
    """One disclosure is built per subject and handed out again while the
    certificate and the disclosed attributes are those it was built over;
    every use validates the certificate. Its signed form is signed, drawing
    one id, the first time a query answer needs it, and then held too."""

    @staticmethod
    def alice():
        sim = open_and_enroll()
        sim.advance_to(2)
        node = sim.vasps["v1"]
        return sim, node, node.book.accounts["acct-alice"]

    @staticmethod
    def disclose(node, account):
        return node.book.disclose(account.subject_id, account.certificate, account.attributes)

    @pytest.mark.parametrize("kind", ["originator", "customer", "pool"])
    def test_hit_returns_the_held_object_signing_nothing(self, kind, monkeypatch):
        sim, node, account = self.alice()
        disclose = {
            "originator": lambda: self.disclose(node, account),
            "customer": lambda: node.book.customer_assertion(account, sim.now),
            "pool": node.book.pool_disclosure,
        }[kind]
        first = disclose()
        sim.advance_to(3)
        state = node.book._rng.getstate()
        signed = count_calls(monkeypatch, crypto, "sign")
        validated = count_calls(monkeypatch, vaspnet.vasp, "validate_certificate")
        again = disclose()
        assert signed == [] and len(validated) == 1
        assert again is first
        assert node.book._rng.getstate() == state

    @pytest.mark.parametrize("cause", ["revoked", "expired"])
    def test_invalid_certificate_refused_on_a_hit(self, cause):
        sim, node, account = self.alice()
        if cause == "expired":
            node.book.enroll_customer_certificate("acct-alice", CertClass.CLASS1, 2,
                                                  validity_ticks=3)
        cert = account.certificate
        self.disclose(node, account)
        if cause == "revoked":
            node.ca.revoke(account.certificate_serial, RevocationReason.KEY_COMPROMISE, 2)
            node.ingest_crls([node.ca.generate_crl(2)])
        else:
            sim.advance_to(cert.validity_not_after + 1)
        state = node.book._rng.getstate()
        with pytest.raises(SubjectCertInvalid, match=cause):
            node.book.disclose(account.subject_id, cert, account.attributes)
        assert node.book._rng.getstate() == state

    @pytest.mark.parametrize("change", ["reenrolled", "attribute"])
    def test_changed_input_builds_and_signs_anew(self, change, monkeypatch):
        sim, node, account = self.alice()
        first = node.book.customer_assertion(account, sim.now)
        if change == "reenrolled":
            node.book.enroll_customer_certificate("acct-alice", CertClass.CLASS1, 2)
        else:
            account.attributes["name"] = "Alice Liddell"
        disclosure = self.disclose(node, account)
        assert disclosure != first.disclosure
        assert disclosure.linked_certificate_hash == crypto.digest(account.certificate.to_bytes())
        assert disclosure.attributes["name"] == account.attributes["name"]
        signed = count_calls(monkeypatch, crypto, "sign")
        second = node.book.customer_assertion(account, sim.now)
        assert len(signed) == 1
        assert second.disclosure is disclosure
        assert second.assertion_id != first.assertion_id
        assert list(node.book._held_disclosures) == [account.subject_id]
        assert node.book.customer_assertion(account, sim.now) is second
        assert self.disclose(node, account) is disclosure
        assert len(signed) == 1


class TestQueryAnswers:
    """A beneficiary's account id comes only from a query answer whose
    assertion verifies against the responder's certificate."""

    @pytest.mark.parametrize("answer", ["genuine", "tampered", "wrong-signer"])
    def test_unverified_assertion_dropped(self, answer, monkeypatch):
        sim = build_sim(
            cas=("ca-1", "ca-2"),
            vasps=[
                {"vasp_id": "v1", "ca": "ca-1", "networks": ["net-a"]},
                {"vasp_id": "v2", "ca": "ca-2", "networks": ["net-a"]},
            ],
            script=standard_script(),
        )
        sim.advance_to(20)  # one gossip period past enrollment
        v1, v2 = sim.vasps["v1"], sim.vasps["v2"]
        real = v2.resolver.respond_certificate_query
        mallory = crypto.keypair_from_label("vasp", "mallory")

        def respond(key_hash, now):
            response = real(key_hash, now)
            genuine = response.assertion
            if answer == "tampered":
                disclosure = genuine.disclosure
                forged = replace(genuine, disclosure=replace(disclosure, attributes={
                    **disclosure.attributes, "account_id": "acct-mallory"}))
            elif answer == "wrong-signer":
                forged = replace(genuine, signature=crypto.sign(
                    mallory, genuine.signed_payload()))
            else:
                forged = genuine
            return replace(response, assertion=forged)

        monkeypatch.setattr(v2.resolver, "respond_certificate_query", respond)
        bob_key = v2.book.accounts["acct-bob"].customer_public_key
        resolved = v1.resolve_beneficiary(
            TransferTarget.from_key_hash(crypto.digest(bob_key)), sim.now
        )
        assert resolved.resolution_path == ("v1", "v2")
        # The account id is taken only from an assertion that verifies.
        assert resolved.account_id == ("acct-bob" if answer == "genuine" else None)


class TestDisclosureErrors:
    """A refused disclosure denies the transfer or leaves the answer without
    an assertion; an error of another kind inside one propagates. A notice
    carries the disclosure as built, an answer its signed form."""

    @pytest.mark.parametrize("caller,inside", [("initiate_transfer", "build_disclosure"),
                                               ("respond_certificate_query", "issue_assertion")])
    def test_unexpected_error_propagates(self, caller, inside, monkeypatch):
        sim = open_and_enroll()
        sim.advance_to(2)
        v1, v2 = sim.vasps["v1"], sim.vasps["v2"]

        def broken(*args, **kwargs):
            raise RuntimeError("bug inside a disclosure")

        monkeypatch.setattr(vaspnet.accounts, inside, broken)
        with pytest.raises(RuntimeError, match="bug inside a disclosure"):
            if caller == "initiate_transfer":
                bob_hash = v2.book.accounts["acct-bob"].customer_public_key_hash
                v1.initiate_transfer("acct-alice", TransferTarget.from_key_hash(bob_hash),
                                     100, "coin")
            else:
                alice_key = v1.book.accounts["acct-alice"].customer_public_key
                v1.resolver.respond_certificate_query(crypto.digest(alice_key), sim.now)


class TestAccountKeys:
    """An account's keys are one frozen value, checked when it is built: an
    arrangement that breaks its custody model's rule cannot be built, and no
    key field of an open account can be written."""

    CUSTOMERS = [
        {"customer_id": "alice", "vasp": "v1", "custody_model": "mediated",
         "attributes": {"name": "Alice", "email": "a@x"}},
        {"customer_id": "kay", "vasp": "v1", "custody_model": "key-custody",
         "attributes": {"name": "Kay", "email": "k@x"}},
        {"customer_id": "pool", "vasp": "v2", "custody_model": "commingled",
         "attributes": {"name": "Pool", "email": "p@x"}},
    ]

    def opened(self):
        sim = build_sim(customers=self.CUSTOMERS, script=[
            {"tick": 0, "action": "open_account", "customer": c["customer_id"]}
            for c in self.CUSTOMERS
        ])
        sim.advance_to(1)
        return sim

    @pytest.mark.parametrize("vasp_id, account_id, field, value, message", [
        ("v1", "acct-alice", "custodied_private_key", b"\x01" * 32,
         "mediated accounts hold the public key only"),
        ("v1", "acct-kay", "key_operator_evidence", None,
         "key-custody accounts carry operator evidence"),
        ("v1", "acct-kay", "custodied_private_key", None,
         "key-custody accounts hold both keys"),
        ("v2", "acct-pool", "customer_public_key", b"\x02" * 32,
         "commingled accounts store no customer keys"),
    ])
    def test_keys_that_break_the_model_cannot_be_built(
        self, vasp_id, account_id, field, value, message
    ):
        account = self.opened().vasps[vasp_id].book.accounts[account_id]
        with pytest.raises(ModelKeyMismatch, match=message):
            replace(account.keys, **{field: value})

    @pytest.mark.parametrize("field", [
        "custody_model", "customer_public_key", "custodied_private_key",
        "key_operator_evidence", "customer_public_key_hash",
    ])
    def test_a_key_field_of_an_open_account_cannot_be_written(self, field):
        book = self.opened().vasps["v1"].book
        account = book.accounts["acct-alice"]
        with pytest.raises(AttributeError):
            setattr(account, field, b"\x02" * 32)
        with pytest.raises(AttributeError):
            setattr(account.keys, field, b"\x02" * 32)
        assert account.customer_public_key_hash == crypto.digest(account.customer_public_key)
        assert book.by_key_hash(account.customer_public_key_hash) is account

    @pytest.mark.parametrize("model, wallet, message", [
        (CustodyModel.MEDIATED, None, "mediated accounts hold the public key only"),
        (CustodyModel.KEY_CUSTODY, crypto.keypair_from_label("late", "x"),
         "key-custody keys are generated by the VASP"),
        (CustodyModel.COMMINGLED, crypto.keypair_from_label("late", "x"),
         "commingled accounts store no customer keys"),
    ])
    def test_a_refused_opening_leaves_the_book_as_it_was(self, model, wallet, message):
        sim = self.opened()
        book = sim.vasps["v1"].book
        accounts, known, logged = dict(book.accounts), book.known_keys(), len(sim.log_)
        with pytest.raises(ModelKeyMismatch, match=message):
            book.open_account("x", {"name": "X"}, model, customer_wallet=wallet,
                              account_id="acct-x", now=1)
        assert book.accounts == accounts
        assert book.known_keys() == known
        assert len(sim.log_) == logged


class TestConfirmationFanOut:
    """A confirmation goes only to the VASPs watching its transaction; the
    event log equals the one from delivering it to every VASP."""

    @staticmethod
    def foreign_tx(label, to_public_key):
        wallet = crypto.keypair_from_label("foreign", label)
        return build_transaction(wallet, wallet.public_key, to_public_key, 5, "coin",
                                 crypto.digest(label.encode())[:8])

    @staticmethod
    def pending_record(sim, vasp_id, last_tick=30):
        for tick in range(sim.now + 1, last_tick):
            sim.advance_to(tick)
            for record in sim.vasps[vasp_id].records.values():
                if record.status is RecordStatus.PENDING_CHAIN:
                    return record
        raise AssertionError("transfer never reached pending-chain")

    TRANSFER = [{"tick": 15, "action": "transfer", "origin": "alice",
                 "target": {"customer": "bob"}, "amount": 100, "asset": "coin"}]

    def case_demo(self):
        sim = Simulation(load_scenario(SCENARIO_DIR / "demo.yaml"))
        sim.run()
        return sim, "chain_confirmed"

    def case_p2p_to_customer_wallet(self):
        sim = open_and_enroll([{"tick": 12, "action": "p2p_transfer",
                                "from_wallet": "w", "to_customer": "bob", "amount": 3}])
        sim.run()
        return sim, "confirmation_unmatched"

    def case_tx_paying_vasp_key(self):
        sim = open_and_enroll()
        sim.advance_to(3)
        v2_key = sim.vasps["v2"].certificate.subject_public_key
        sim.submit_tx("outsider", self.foreign_tx("pay-v2", v2_key))
        sim.run()
        return sim, "confirmation_unmatched"

    def case_forged_binding(self):
        sim = open_and_enroll(self.TRANSFER)
        record = self.pending_record(sim, "v1")
        record.notice = TransferNotice(**{
            **record.notice.__dict__, "intended_chain_tx_binding": b"\x00" * 32,
        })
        sim.run()
        return sim, "record_failed"

    def case_record_filed_under_foreign_tx(self):
        # v2 holds no key of the foreign tx, only a record filed under its id.
        sim = open_and_enroll(self.TRANSFER)
        record = self.pending_record(sim, "v2")
        outsider = crypto.keypair_from_label("foreign", "payee")
        tx = self.foreign_tx("payer", outsider.public_key)
        sim.vasps["v2"].transfers._file_record(tx.tx_id, record)
        sim.submit_tx("outsider", tx)
        sim.run()
        return sim, "record_failed"

    @pytest.mark.parametrize("case", [
        "demo", "p2p_to_customer_wallet", "tx_paying_vasp_key", "forged_binding",
        "record_filed_under_foreign_tx",
    ])
    def test_log_equals_delivery_to_every_vasp(self, case, monkeypatch):
        build = getattr(self, f"case_{case}")
        calls = count_calls(monkeypatch, vaspnet.vasp.VaspNode, "on_chain_confirmation")
        sim, event = build()
        targeted = sim.log_.entries
        assert any(record.event == event for record in targeted)
        delivered = len(calls)
        calls.clear()
        monkeypatch.setattr(Simulation, "_confirmation_watchers",
                            lambda self, tx: set(self.vasps))
        reference, _ = build()
        assert targeted == reference.log_.entries
        assert reference.breaches == sim.breaches
        # Each case but the forged binding confirms a tx some VASP does not watch.
        assert delivered < len(calls) or case == "forged_binding"
