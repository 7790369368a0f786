import subprocess
import sys
import textwrap
import typing
from pathlib import Path

import pytest
import yaml
from click.testing import CliRunner

import vaspnet
from vaspnet.cli import main as cli_main
from vaspnet.harness import Simulation
from vaspnet.cli import load_scenario
from vaspnet.ca import ROOT_VALIDITY, RevocationReason
from vaspnet.scenario import (
    ACTIONS, DRAIN_TICKS, BatchEntry, SchemaError, SuspectSpec, Target, parse_scenario,
)
from vaspnet.resolution import TransferTarget
from vaspnet.transfer import DenialCode, DenialReason, RecordStatus

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

# Event-log digests of the tracked scenarios. A change meant to keep behaviour
# the same must leave them byte-identical; one that alters a log re-pins the
# digest and says why.
SCENARIO_DIGESTS = {
    "batch_race": "04ca577eb837c8846420721b4673d2ac6daf68f275c46f81eec90a363994bf51",
    "demo": "c9430c057ba4f42a17c6b0611394d6709efd167e193ed0db973631e8ac86bf8b",
    "denials": "0dab9b9b57afe3da6aa11fa57c21b070a169621ad354edce62d49db67bd47812",
    "four_networks": "59475cb1d6e3530f0f8287087f66213525677220fc1944c276020134aabd8d15",
    "mixed_ca": "90c4f42f11c86d1c90d58769726cb32f4da8671cff5a65b44ea89d759be20f9f",
}
# All five were last re-pinned when the notice and the ack came to carry an
# unsigned disclosure inside their own signed payload: their bytes moved, no
# assertion id is drawn on the transfer path any more, so every id drawn
# after one moved, and ``tx_submitted`` dropped its ``binding`` detail, a
# copy of ``tx``. Every event, tick and outcome stayed as it was.

# ``Metrics.as_pairs()`` of each tracked scenario. The metrics are counted
# from the event log, so a change that keeps the digests keeps these too,
# except ``messages_sent``, which is counted beside the log.
SCENARIO_METRICS = {
    "batch_race": {
        "transfers_attempted": "2", "transfers_confirmed": "1",
        "transfers_denied_total": "1", "transfers_in_flight": "0",
        "resolution_success_rate": "1.0000", "mean_resolution_hops": "1.0000",
        "advertisements_accepted": "0", "advertisements_dropped": "0",
        "messages_sent": "12", "messages_dropped": "0", "ledger_transactions": "1",
        "audit_violations": "0", "reconciliation_orphans": "0", "unconfirmed_records": "0",
        "directory_convergence_tick": "31", "final_tick": "65", "denied.AckRejected": "1",
    },
    "demo": {
        "transfers_attempted": "4", "transfers_confirmed": "3",
        "transfers_denied_total": "1", "transfers_in_flight": "0",
        "resolution_success_rate": "1.0000", "mean_resolution_hops": "1.0000",
        "advertisements_accepted": "0", "advertisements_dropped": "0",
        "messages_sent": "13", "messages_dropped": "0", "ledger_transactions": "4",
        "audit_violations": "0", "reconciliation_orphans": "0", "unconfirmed_records": "0",
        "directory_convergence_tick": "51", "final_tick": "71", "denied.CertInvalid": "1",
    },
    "denials": {
        "transfers_attempted": "5", "transfers_confirmed": "0",
        "transfers_denied_total": "5", "transfers_in_flight": "0",
        "resolution_success_rate": "0.7500", "mean_resolution_hops": "1.0000",
        "advertisements_accepted": "0", "advertisements_dropped": "0",
        "messages_sent": "12", "messages_dropped": "5", "ledger_transactions": "0",
        "audit_violations": "0", "reconciliation_orphans": "0", "unconfirmed_records": "0",
        "directory_convergence_tick": "44", "final_tick": "61",
        "denied.BeneficiaryUnresolved": "1", "denied.CertInvalid": "1",
        "denied.ChannelTimeout": "1", "denied.NoOriginatorCert": "1",
        "denied.SuspectParty": "1",
    },
    "four_networks": {
        "transfers_attempted": "1", "transfers_confirmed": "1",
        "transfers_denied_total": "0", "transfers_in_flight": "0",
        "resolution_success_rate": "1.0000", "mean_resolution_hops": "2.0000",
        "advertisements_accepted": "8", "advertisements_dropped": "6",
        "messages_sent": "28", "messages_dropped": "0", "ledger_transactions": "1",
        "audit_violations": "0", "reconciliation_orphans": "0", "unconfirmed_records": "0",
        "directory_convergence_tick": "10", "final_tick": "80",
    },
    "mixed_ca": {
        "transfers_attempted": "3", "transfers_confirmed": "1",
        "transfers_denied_total": "2", "transfers_in_flight": "0",
        "resolution_success_rate": "1.0000", "mean_resolution_hops": "1.0000",
        "advertisements_accepted": "0", "advertisements_dropped": "0",
        "messages_sent": "35", "messages_dropped": "0", "ledger_transactions": "1",
        "audit_violations": "0", "reconciliation_orphans": "0", "unconfirmed_records": "0",
        "directory_convergence_tick": "53", "final_tick": "82", "denied.CertInvalid": "2",
    },
}


MINIMAL = textwrap.dedent("""
    seed: 5
    networks:
      - network_id: net-a
    cas:
      - ca_id: ca-1
    vasps:
      - {vasp_id: v1, ca: ca-1, networks: [net-a]}
      - {vasp_id: v2, ca: ca-1, networks: [net-a]}
    customers:
      - {customer_id: alice, vasp: v1, custody_model: mediated,
         attributes: {name: Alice, email: a@x}}
      - {customer_id: bob, vasp: v2, custody_model: mediated,
         attributes: {name: Bob, email: b@x}}
    script:
      - {tick: 0, action: open_account, customer: alice}
      - {tick: 0, action: open_account, customer: bob}
      - {tick: 1, action: enroll, customer: alice}
      - {tick: 1, action: enroll, customer: bob}
      - {tick: 15, action: transfer, origin: alice, target: {customer: bob},
         amount: 100, asset: coin}
""")


def write(tmp_path, text):
    path = tmp_path / "scenario.yaml"
    path.write_text(text)
    return path


class TestLoading:
    def test_minimal_file_loads(self, tmp_path):
        scenario = load_scenario(write(tmp_path, MINIMAL))
        assert scenario.seed == 5
        assert [v.vasp_id for v in scenario.vasps] == ["v1", "v2"]
        assert scenario.script[-1].amount == 100

    def test_empty_file_rejected(self, tmp_path):
        with pytest.raises(SchemaError):
            load_scenario(write(tmp_path, ""))

    def test_unparseable_rejected(self, tmp_path):
        with pytest.raises(SchemaError):
            load_scenario(write(tmp_path, "{unbalanced: ["))


class TestReferenceValidation:
    def test_dangling_vasp_in_script(self, tmp_path):
        text = MINIMAL + "  - {tick: 16, action: transfer, origin: zed, target: {customer: bob}, amount: 1, asset: coin}\n"
        with pytest.raises(SchemaError, match="zed"):
            load_scenario(write(tmp_path, text))

    def test_dangling_ca(self):
        with pytest.raises(SchemaError, match="ca-9"):
            parse_scenario({
                "seed": 1, "networks": [{"network_id": "n"}],
                "cas": [{"ca_id": "ca-1"}],
                "vasps": [{"vasp_id": "v1", "ca": "ca-9", "networks": ["n"]}],
            })

    def test_dangling_network(self):
        with pytest.raises(SchemaError, match="net-x"):
            parse_scenario({
                "seed": 1, "networks": [{"network_id": "n"}],
                "cas": [{"ca_id": "ca-1"}],
                "vasps": [{"vasp_id": "v1", "ca": "ca-1", "networks": ["net-x"]}],
            })

    def test_decreasing_ticks_rejected(self, tmp_path):
        text = MINIMAL + "  - {tick: 3, action: enroll, customer: alice}\n"
        with pytest.raises(SchemaError, match="decreases"):
            load_scenario(write(tmp_path, text))

    def test_gateway_must_be_member(self):
        with pytest.raises(SchemaError, match="member"):
            parse_scenario({
                "seed": 1,
                "networks": [{"network_id": "na"}, {"network_id": "nb"}],
                "cas": [{"ca_id": "ca-1"}],
                "vasps": [
                    {"vasp_id": "v1", "ca": "ca-1", "networks": ["na"]},
                    {"vasp_id": "v2", "ca": "ca-1", "networks": ["nb"]},
                ],
                "peering_links": [
                    {"vasp_a": "v1", "network_a": "nb", "vasp_b": "v2", "network_b": "na"},
                ],
            })

    def test_duplicate_ids_rejected(self):
        with pytest.raises(SchemaError, match="duplicate"):
            parse_scenario({
                "seed": 1, "networks": [{"network_id": "n"}, {"network_id": "n"}],
                "cas": [{"ca_id": "ca-1"}], "vasps": [],
            })

    def test_first_duplicate_named_under_every_hash_seed(self):
        # Two ids repeat; the one repeated first is named, in every process.
        code = (
            "from vaspnet.scenario import SchemaError, parse_scenario\n"
            "ids = ('n-b', 'n-a', 'n-b', 'n-a')\n"
            "try:\n"
            "    parse_scenario({'seed': 1, 'cas': [], 'vasps': [],\n"
            "                    'networks': [{'network_id': i} for i in ids]})\n"
            "except SchemaError as exc:\n"
            "    print(exc)\n"
        )
        import_root = str(Path(vaspnet.__file__).resolve().parent.parent)
        for hash_seed in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, "-B", "-c", code], capture_output=True, text=True,
                env={"PYTHONHASHSEED": hash_seed, "PATH": "/usr/bin:/bin",
                     "PYTHONPATH": import_root},
            )
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.strip() == "duplicate network_id 'n-b'", hash_seed

    def test_unknown_action(self):
        with pytest.raises(SchemaError, match="unknown action"):
            parse_scenario({
                "seed": 1, "networks": [], "cas": [], "vasps": [],
                "script": [{"tick": 0, "action": "explode"}],
            })

    def test_suspect_entry_exactly_one_key(self):
        with pytest.raises(SchemaError, match="exactly one"):
            parse_scenario({
                "seed": 1, "networks": [], "cas": [], "vasps": [],
                "suspect_entries": [{"customer": "x", "account_id": "y"}],
            })

    def test_bad_key_hash_target(self):
        base = {
            "seed": 1, "networks": [{"network_id": "n"}], "cas": [{"ca_id": "c"}],
            "vasps": [{"vasp_id": "v1", "ca": "c", "networks": ["n"]}],
            "customers": [{"customer_id": "a", "vasp": "v1",
                           "attributes": {"name": "A"}}],
        }
        with pytest.raises(SchemaError, match="key_hash_hex"):
            parse_scenario({**base, "script": [
                {"tick": 0, "action": "transfer", "origin": "a",
                 "target": {"key_hash_hex": "zz"}, "amount": 1},
            ]})


SMALL = {
    "seed": 1,
    "networks": [{"network_id": "net-a"}],
    "cas": [{"ca_id": "ca-1"}],
    "vasps": [{"vasp_id": "v1", "ca": "ca-1", "networks": ["net-a"]}],
    "customers": [
        {"customer_id": "alice", "vasp": "v1", "attributes": {"name": "A", "email": "a@x"}},
        {"customer_id": "bora", "vasp": "v1", "custody_model": "key-custody",
         "attributes": {"name": "B"}},
        {"customer_id": "chen", "vasp": "v1", "custody_model": "commingled",
         "attributes": {"name": "C"}},
    ],
}


def with_rules(**rules):
    return {"networks": [{"network_id": "net-a", "rules": rules}]}


def with_action(*opened, **action):
    """A script of ``action``, after opening the accounts of ``opened``."""
    return {"script": [*({"tick": 0, "action": "open_account", "customer": customer}
                         for customer in opened), {"tick": 0, **action}]}


def p2p(**params):
    return with_action(action="p2p_transfer", from_wallet="w1", amount=5, **params)


def batch(*entries):
    return with_action(action="batch_transfer", asset="coin", entries=[
        {"origin": origin, "target": target, "amount": amount}
        for origin, target, amount in entries
    ])


# ``SMALL`` with a second VASP, whose customer ``dana`` a batch can pay.
TWO_VASPS = {
    "vasps": SMALL["vasps"] + [{"vasp_id": "v2", "ca": "ca-1", "networks": ["net-a"]}],
    "customers": SMALL["customers"] + [
        {"customer_id": "dana", "vasp": "v2", "attributes": {"name": "D"}},
        {"customer_id": "emre", "vasp": "v2", "custody_model": "commingled",
         "attributes": {"name": "E"}},
    ],
}


# A network has no rules and the ledger no id: a file that sets either is
# refused, naming the key.
NO_RULES = r"networks\[0\]: unknown key 'rules'"
NO_CHAIN = "scenario root: unknown key 'chain'"

# Each of these would fail only once the run starts, or run on a default in
# its place; each must fail at parse, naming what is wrong.
BAD_SCENARIOS = {
    "rules-set": (with_rules(required_disclosure=["name"]), NO_RULES),
    "chain-set": ({"chain": {"chain_id": "simchain"}}, NO_CHAIN),
    "unknown-class": (with_rules(minimum_certificate_class="class9"), NO_RULES),
    "unknown-rule-key": (with_rules(sync_period=10), NO_RULES),
    "unknown-top-level-key": ({"peering_link": []}, "peering_link"),
    "empty-disclosure": (with_rules(required_disclosure=[]), NO_RULES),
    "drop-probability-above-one": ({"defaults": {"drop_probability": 2.0}}, "drop_probability"),
    "drop-probability-true": ({"defaults": {"drop_probability": True}},
                              "drop_probability: True is not a number"),
    "drop-probability-string": ({"defaults": {"drop_probability": "0.5"}},
                                "drop_probability: '0.5' is not a number"),
    "rules-version-negative": (with_rules(rules_version=-1), NO_RULES),
    "p2p-to-commingled": (p2p(to_customer="chen"), "commingled"),
    "p2p-to-key-custody": (p2p(to_customer="bora"), "key-custody"),
    "amount-text": (with_action(action="transfer", origin="alice",
                                target={"customer": "chen"}, amount="x"), "amount"),
    "amount-fraction": (with_action(action="transfer", origin="alice",
                                    target={"customer": "chen"}, amount=2.5), "amount"),
    # A whole number is an int: a bool, a string or a float, which the run
    # would coerce, is refused, naming the field.
    "amount-true": (with_action("alice", action="transfer", origin="alice",
                                target={"customer": "chen"}, amount=True),
                    "amount: True is not a whole number"),
    "amount-string": (with_action("alice", action="transfer", origin="alice",
                                  target={"customer": "chen"}, amount="5"),
                      "amount: '5' is not a whole number"),
    "amount-whole-float": (with_action("alice", action="transfer", origin="alice",
                                       target={"customer": "chen"}, amount=5.0),
                           "amount: 5.0 is not a whole number"),
    "p2p-amount-true": (with_action(action="p2p_transfer", from_wallet="w1", to_wallet="w2",
                                    amount=True), "amount: True is not"),
    "batch-amount-string": ({**TWO_VASPS, **with_action("chen", action="batch_transfer",
                                                        asset="coin", entries=[
        {"origin": "chen", "target": {"customer": "dana"}, "amount": "5"}])},
                            r"entries\[0\]: amount: '5' is not a whole number"),
    "tick-string": (with_action(action="open_account", customer="alice", tick="3"),
                    "tick: '3' is not a whole number"),
    "tick-true": (with_action(action="open_account", customer="alice", tick=True),
                  "tick: True is not a whole number"),
    "period-whole-float": (with_action(action="drop_link", a="v1", b="v1", period=5.0),
                           "period: 5.0 is not a whole number"),
    "ticks-true": (with_action(action="advance", ticks=True), "ticks: True is not"),
    "seed-string": ({"seed": "7"}, "seed: '7' is not a whole number"),
    "seed-whole-float": ({"seed": 7.0}, "seed: 7.0 is not a whole number"),
    # An amount, and a batch's sum, is a u64 on the ledger.
    "amount-above-u64": (with_action("alice", action="transfer", origin="alice",
                                     target={"customer": "bora"}, amount=2**64), "amount"),
    "p2p-amount-above-u64": (with_action(action="p2p_transfer", from_wallet="w1",
                                         to_wallet="w2", amount=2**64), "amount"),
    "batch-sum-above-u64": ({**TWO_VASPS, **with_action("chen", "emre", action="batch_transfer",
                                                        asset="coin", entries=[
        {"origin": "chen", "target": {"customer": "dana"}, "amount": 2**63},
        {"origin": "chen", "target": {"customer": "dana"}, "amount": 2**63}])},
                            "entries: amounts sum to 18446744073709551616"),
    "key-of-commingled": (with_action(action="transfer", origin="alice",
                                      target={"customer_key": "chen"}, amount=1),
                          "unrecognized target form"),
    # A target takes only the keys of its own form.
    "target-customer-extra-keys": (
        with_action("alice", action="transfer", origin="alice",
                    target={"customer": "bora", "vasp": "v9", "acount": "x"}, amount=1),
        "target: unknown key 'vasp'"),
    "target-customer-and-account": (
        with_action("alice", action="transfer", origin="alice",
                    target={"vasp": "v1", "account": "acct-chen", "customer": "bora"}, amount=1),
        "target: unknown key 'vasp'"),
    "target-account-extra-key": (
        with_action("alice", action="transfer", origin="alice",
                    target={"vasp": "v1", "account": "acct-chen", "memo": "x"}, amount=1),
        "target: unknown key 'memo'"),
    # A peering link joins two different networks.
    "peering-same-network": ({"vasps": TWO_VASPS["vasps"], "peering_links": [
        {"vasp_a": "v1", "network_a": "net-a", "vasp_b": "v2", "network_b": "net-a"}]},
                             "different networks"),
    # Section shapes: each is named, none is an AttributeError or TypeError.
    "defaults-not-mapping": ({"defaults": 5}, "defaults"),
    "chain-not-mapping": ({"chain": [1]}, "chain"),
    "vasps-null": ({"vasps": None}, "vasps"),
    "attributes-not-mapping": ({"customers": [{"customer_id": "alice", "vasp": "v1",
                                               "attributes": ["a"]}]}, "attributes"),
    # A CA is reached by synchronous calls, never over a link.
    "drop-link-to-ca": (with_action(action="drop_link", a="v1", b="ca-1", period=5), "ca-1"),
    "batch-empty": (batch(), "entries"),
    "batch-from-mediated": ({**TWO_VASPS, **batch(("alice", {"customer": "dana"}, 5))},
                            "'alice' is not a commingled"),
    "batch-to-account": ({**TWO_VASPS, **batch(("chen", {"vasp": "v2", "account": "x"}, 5))},
                         r"entries\[0\]: target: unknown key 'vasp'"),
    "batch-two-payees": ({**TWO_VASPS, **batch(("chen", {"customer": "dana"}, 5),
                                               ("chen", {"customer": "bora"}, 5))},
                         r"to \['v1', 'v2'\]"),
    "batch-two-payers": ({**TWO_VASPS, **batch(("chen", {"customer": "dana"}, 5),
                                               ("emre", {"customer": "dana"}, 5))},
                         r"from \['v1', 'v2'\]"),
    "batch-amount-zero": ({**TWO_VASPS, **batch(("chen", {"customer": "emre"}, 0))}, "amount"),
    # An action the run could not carry out, given the actions before it.
    "enroll-commingled": (with_action("chen", action="enroll", customer="chen"),
                          "commingled customer 'chen' holds no key"),
    # Its CA would refuse the registration: bora has a name but no email.
    "enroll-without-class1": (with_action("bora", action="enroll", customer="bora"),
                              "'bora' lacks the Class 1 attributes email"),
    "enroll-before-open": (with_action(action="enroll", customer="alice"),
                           "'alice' has no open account"),
    "transfer-before-open": (with_action(action="transfer", origin="alice",
                                         target={"customer": "bora"}, amount=1),
                             "'alice' has no open account"),
    "batch-before-open": ({**TWO_VASPS, **batch(("chen", {"customer": "dana"}, 5))},
                          "'chen' has no open account"),
    "open-twice": (with_action("alice", action="open_account", customer="alice"),
                   "'alice' already has an open account"),
    "revoke-before-enroll": (with_action("alice", action="revoke_cert", customer="alice"),
                             "'alice' holds no unrevoked certificate"),
    "revoke-twice": ({"script": [
        {"tick": 0, "action": "open_account", "customer": "alice"},
        {"tick": 1, "action": "enroll", "customer": "alice"},
        {"tick": 2, "action": "revoke_cert", "customer": "alice"},
        {"tick": 3, "action": "revoke_cert", "customer": "alice"},
    ]}, "'alice' holds no unrevoked certificate"),
    # Every mapping names a key it does not take.
    "chain-unknown-key": ({"chain": {"id": "simchain"}}, NO_CHAIN),
    "defaults-unknown-key": ({"defaults": {"max_latncy": 9}}, "unknown key 'max_latncy'"),
    "network-unknown-key": ({"networks": [{"network_id": "net-a", "rule": {}}]},
                            r"networks\[0\]: unknown key 'rule'"),
    "ca-unknown-key": ({"cas": [{"ca_id": "ca-1", "root": "r"}]}, "unknown key 'root'"),
    "vasp-unknown-key": ({"vasps": [{"vasp_id": "v1", "ca": "ca-1", "network": ["net-a"]}]},
                         r"vasps\[0\]: unknown key 'network'"),
    "peering-unknown-key": ({"peering_links": [{"vasp_a": "v1", "network_a": "net-a",
                                                "vasp_b": "v1", "network_b": "net-a",
                                                "latency": 2}]}, "unknown key 'latency'"),
    "customer-unknown-key": ({"customers": [{"customer_id": "alice", "vasp": "v1",
                                             "custody": "commingled"}]}, "unknown key 'custody'"),
    "suspect-unknown-key": ({"suspect_entries": [{"customer": "alice", "why": "x"}]},
                            "unknown key 'why'"),
    "action-unknown-key": (with_action(action="transfer", origin="alice",
                                       target={"customer": "chen"}, amount=1, memo="x"),
                           r"script\[0\] \(transfer\): unknown key 'memo'"),
    "action-key-of-another-action": (with_action(action="open_account", customer="alice",
                                                 amount=5), "unknown key 'amount'"),
    # The timings are constants: a file that still sets one fails, naming it.
    "sync-period-set": (with_rules(directory_sync_period=10), NO_RULES),
    "crl-period-set": (with_rules(crl_exchange_period=20), NO_RULES),
    "ack-timeout-set": (with_rules(ack_timeout=10), NO_RULES),
    "max-latency-set": ({"defaults": {"max_latency": 3}}, "unknown key 'max_latency'"),
    "drain-ticks-set": ({"defaults": {"drain_ticks": 40}}, "unknown key 'drain_ticks'"),
    "confirmation-delay-set": ({"chain": {"confirmation_delay": 3}}, NO_CHAIN),
    "batch-entry-unknown-key": ({**TWO_VASPS, **with_action(
        action="batch_transfer", entries=[{"origin": "chen", "target": {"customer": "dana"},
                                           "amount": 5, "asset": "coin"}])},
                                r"entries\[0\]: unknown key 'asset'"),
    # A p2p transfer pays one receiver; it would pay to_wallet and drop the other.
    "p2p-two-receivers": (p2p(to_wallet="w2", to_customer="nobody-at-all"),
                          "to_wallet and to_customer"),
    # A suspect's hash is a target's: hex, 32 bytes, else the run could not use it.
    "suspect-hash-not-hex": ({"suspect_entries": [{"key_hash_hex": "zz"}]},
                             r"suspect_entries\[0\]: key_hash_hex: 'zz' is not 32 bytes in hex"),
    "suspect-hash-short": ({"suspect_entries": [{"key_hash_hex": "ab"}]},
                           "key_hash_hex: 'ab' is not 32 bytes in hex"),
    # An asset is a name, not a mapping or list (one holding an id key among them).
    "asset-mapping": (with_action("alice", action="transfer", origin="alice",
                                  target={"customer": "chen"}, amount=1,
                                  asset={"customer": ["x"]}), "asset"),
    "asset-number": (with_action("alice", action="transfer", origin="alice",
                                 target={"customer": "chen"}, amount=1, asset=7),
                     r"script\[1\] \(transfer\): asset: 7 is not a string"),
    # An attribute name or value is a string; the CA would certify "None".
    "attribute-null": ({"customers": [{"customer_id": "alice", "vasp": "v1",
                                       "attributes": {"name": "A", "email": None}}]},
                       r"customers\[0\]: attributes: email: None is not a string"),
    "attribute-number": ({"customers": [{"customer_id": "alice", "vasp": "v1",
                                         "attributes": {"name": 1, "email": "a@x"}}]},
                         r"customers\[0\]: attributes: name: 1 is not a string"),
    "attribute-name-number": ({"customers": [{"customer_id": "alice", "vasp": "v1",
                                              "attributes": {"name": "A", 5: "a@x"}}]},
                              r"customers\[0\]: attributes: 5 is not a string"),
    # A section's ids are strings, as the script's are.
    "vasp-id-number": ({"vasps": [{"vasp_id": 5, "ca": "ca-1", "networks": ["net-a"]}],
                        "customers": []},
                       r"vasps\[0\]: vasp_id: 5 is not a string"),
    "vasp-ca-number": ({"cas": [{"ca_id": "1"}],
                        "vasps": [{"vasp_id": "v1", "ca": 1, "networks": ["net-a"]}]},
                       r"vasps\[0\]: ca: 1 is not a string"),
    "vasp-network-number": ({"networks": [{"network_id": "7"}],
                             "vasps": [{"vasp_id": "v1", "ca": "ca-1", "networks": [7]}]},
                            r"vasps\[0\]: networks\[0\]: 7 is not a string"),
    "peering-vasp-number": ({"networks": [{"network_id": "net-a"}, {"network_id": "net-b"}],
                             "vasps": [{"vasp_id": "1", "ca": "ca-1", "networks": ["net-a"]},
                                       {"vasp_id": "v1", "ca": "ca-1", "networks": ["net-b"]}],
                             "peering_links": [{"vasp_a": 1, "network_a": "net-a",
                                                "vasp_b": "v1", "network_b": "net-b"}]},
                            r"peering_links\[0\]: vasp_a: 1 is not a string"),
    # A run ends by the time every root expires; it would otherwise step
    # through each tick up to its horizon.
    "late-tick": ({"script": [{"tick": 10**15, "action": "open_account", "customer": "alice"}]},
                  r"script\[0\] \(open_account\): horizon 1000000000000040 passes"),
    "long-advance": (with_action(action="advance", ticks=10**15),
                     r"script\[0\] \(advance\): horizon 1000000000000040 passes"),
}


@pytest.mark.parametrize("name", sorted(BAD_SCENARIOS))
def test_bad_scenario_rejected_at_parse(name, tmp_path):
    override, named = BAD_SCENARIOS[name]
    data = {**SMALL, **override}
    with pytest.raises(SchemaError, match=named):
        parse_scenario(data)
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(data))
    result = CliRunner().invoke(cli_main, ["validate", "--scenario", str(path)])
    assert result.exit_code == 1
    assert "schema error" in result.output


# An id reference of another type is named, not a TypeError from a lookup.
ID_OF_ANOTHER_TYPE = {
    "open-account-list": ({"action": "open_account", "customer": ["alice"]},
                          r"script\[\d+\] \(open_account\): customer"),
    "target-customer-list": ({"action": "transfer", "origin": "alice",
                              "target": {"customer": ["bob"]}, "amount": 5},
                             r"script\[\d+\] \(transfer\): target: customer"),
    "drop-link-mapping": ({"action": "drop_link", "a": {"x": 1}, "b": "v1", "period": 5},
                          r"script\[\d+\] \(drop_link\): a"),
    "transfer-origin-list": ({"action": "transfer", "origin": ["alice"],
                              "target": {"customer": "dina"}, "amount": 5},
                             r"script\[\d+\] \(transfer\): origin"),
    "target-vasp-number": ({"action": "transfer", "origin": "alice",
                            "target": {"vasp": 7, "account": "acct-dina"}, "amount": 5},
                           r"script\[\d+\] \(transfer\): target: vasp"),
    "target-account-list": ({"action": "transfer", "origin": "alice",
                             "target": {"vasp": "beta", "account": ["acct-dina"]}, "amount": 5},
                            r"script\[\d+\] \(transfer\): target: account"),
    "drop-link-b-list": ({"action": "drop_link", "a": "alpha", "b": ["beta"], "period": 5},
                         r"script\[\d+\] \(drop_link\): b"),
    "p2p-from-wallet-number": ({"action": "p2p_transfer", "from_wallet": 5,
                                "to_wallet": "w-hot", "amount": 5},
                               r"script\[\d+\] \(p2p_transfer\): from_wallet"),
    "p2p-to-wallet-list": ({"action": "p2p_transfer", "from_wallet": "w-cold",
                            "to_wallet": ["w-hot"], "amount": 5},
                           r"script\[\d+\] \(p2p_transfer\): to_wallet"),
    "p2p-to-customer-mapping": ({"action": "p2p_transfer", "from_wallet": "w-cold",
                                 "to_customer": {"id": "alice"}, "amount": 5},
                                r"script\[\d+\] \(p2p_transfer\): to_customer"),
    "enroll-number": ({"action": "enroll", "customer": 3}, r"script\[\d+\] \(enroll\): customer"),
    "revoke-list": ({"action": "revoke_cert", "customer": ["alice"]},
                    r"script\[\d+\] \(revoke_cert\): customer"),
    "batch-origin-list": ({"action": "batch_transfer", "asset": "coin", "entries": [
        {"origin": ["chen"], "target": {"customer": "emre"}, "amount": 5}]},
                          r"script\[\d+\] \(batch_transfer\): entries\[0\]: origin"),
    "batch-target-customer-list": ({"action": "batch_transfer", "asset": "coin", "entries": [
        {"origin": "chen", "target": {"customer": ["emre"]}, "amount": 5}]},
                                   r"script\[\d+\] \(batch_transfer\): entries\[0\]: target: customer"),
}


@pytest.mark.parametrize("name", sorted(ID_OF_ANOTHER_TYPE))
def test_id_reference_must_be_a_string(name):
    action, named = ID_OF_ANOTHER_TYPE[name]
    data = yaml.safe_load((SCENARIO_DIR / "demo.yaml").read_text())
    data["script"].append({"tick": data["script"][-1]["tick"], **action})
    with pytest.raises(SchemaError, match=named + ": .+ is not a string$"):
        parse_scenario(data)


# The same for a suspect entry's ids.
SUSPECT_ID_OF_ANOTHER_TYPE = {
    "suspect-customer-list": ({"customer": ["alice"]}, r"suspect_entries\[0\]: customer"),
    "suspect-account-number": ({"account_id": 12}, r"suspect_entries\[0\]: account_id"),
}


@pytest.mark.parametrize("name", sorted(SUSPECT_ID_OF_ANOTHER_TYPE))
def test_suspect_id_must_be_a_string(name):
    entry, named = SUSPECT_ID_OF_ANOTHER_TYPE[name]
    data = yaml.safe_load((SCENARIO_DIR / "demo.yaml").read_text())
    data["suspect_entries"] = [entry]
    with pytest.raises(SchemaError, match=named + ": .+ is not a string$"):
        parse_scenario(data)


WHOLE_NUMBER_FIELDS = {"tick", "amount", "period", "ticks"}


def assert_typed(record, raw):
    """Each field of ``record`` holds its type, read from the mapping ``raw``:
    an id or a name a ``str``, a whole number an ``int`` (not a bool), a
    target or a batch entry its record, a key hash 32 bytes."""
    for key, value in zip(record._fields, record):
        if key not in raw:
            assert value == record._field_defaults[key], key
        elif key in WHOLE_NUMBER_FIELDS:
            assert type(value) is int and value == raw[key], key
        elif key == "target":
            assert type(value) in typing.get_args(Target)
            assert_typed(value, raw[key])
        elif key == "entries":
            for entry, raw_entry in zip(value, raw[key], strict=True):
                assert type(entry) is BatchEntry
                assert_typed(entry, raw_entry)
        elif key == "reason":
            assert value is RevocationReason(raw[key])
        elif key == "key_hash_hex":
            assert type(value) is bytes and value == bytes.fromhex(raw[key])
        else:
            assert type(value) is str and value == raw[key], key


def typed_sources(workloads):
    """The scenario mapping of every tracked scenario and seed-7 workload."""
    for path in sorted(SCENARIO_DIR.glob("*.yaml")):
        yield path.stem, yaml.safe_load(path.read_text())
    for name, workload in sorted(workloads.items()):
        yield name, workload.scenario(7)


def test_every_action_parses_to_its_typed_record(workloads):
    sources = dict(typed_sources(workloads))
    assert len(sources) == 8
    for name, data in sources.items():
        scenario = parse_scenario(data)
        for action, raw in zip(scenario.script, data["script"], strict=True):
            assert type(action) is ACTIONS[raw["action"]], name
            assert_typed(action, raw)
        for spec in scenario.vasps + scenario.customers:  # vasp_id and ca, customer_id and vasp
            assert all(type(value) is str for value in spec[:2]), spec
        for spec in scenario.vasps:
            assert all(type(network) is str for network in spec.networks), spec
        for spec in scenario.customers:
            assert all(type(key) is str and type(value) is str
                       for key, value in spec.attributes.items()), spec
        for spec in scenario.suspect_entries:
            assert all(value is None or type(value) is (bytes if key == "key_hash_hex" else str)
                       for key, value in zip(SuspectSpec._fields, spec)), spec


# Every key of any action, of a target, and one of none.
ACTION_KEY_CANDIDATES = sorted(
    {key for record in ACTIONS.values() for key in record._fields}
    | {key for form in typing.get_args(Target) for key in form._fields} | {"memo"}
)


@pytest.mark.parametrize("name", sorted(ACTIONS))
def test_action_takes_exactly_the_keys_of_its_record(name):
    """The parser takes a key in an action's mapping exactly when it is a
    field of the action's record: any other is refused as unknown."""
    accepted = set()
    for key in ACTION_KEY_CANDIDATES:
        if key == "tick":
            continue
        with pytest.raises(SchemaError) as refused:  # None is no field's value
            parse_scenario({**SMALL, "script": [{"tick": 0, "action": name, key: None}]})
        if f"unknown key {key!r}" not in str(refused.value):
            accepted.add(key)
    assert accepted == set(ACTIONS[name]._fields) - {"tick"}


def test_amounts_up_to_the_ledgers_u64_parse():
    assert parse_scenario({**SMALL, **p2p(to_customer="alice")}).script[0].amount == 5
    top = 2**64 - 1
    transfer = with_action("alice", action="transfer", origin="alice",
                           target={"customer": "bora"}, amount=top)
    assert parse_scenario({**SMALL, **transfer}).script[1].amount == top
    pair = batch(("chen", {"customer": "dana"}, top - 1), ("chen", {"customer": "dana"}, 1))
    pair["script"].insert(0, {"tick": 0, "action": "open_account", "customer": "chen"})
    assert len(parse_scenario({**SMALL, **TWO_VASPS, **pair}).script) == 2


def test_horizon_up_to_the_roots_validity_parses():
    last = ROOT_VALIDITY - DRAIN_TICKS - 5

    def advancing(ticks):
        return {**SMALL, "script": [{"tick": 0, "action": "advance", "ticks": 2},
                                    {"tick": last, "action": "advance", "ticks": ticks}]}
    assert parse_scenario(advancing(3)).horizon() == ROOT_VALIDITY
    with pytest.raises(SchemaError, match=r"script\[1\] \(advance\): horizon 1000001 passes"):
        parse_scenario(advancing(4))


def test_every_tracked_scenario_is_pinned():
    assert sorted(p.stem for p in SCENARIO_DIR.glob("*.yaml")) == sorted(SCENARIO_DIGESTS)


@pytest.mark.parametrize("name", sorted(SCENARIO_DIGESTS))
def test_scenario_digest_pinned(name):
    scenario = load_scenario(SCENARIO_DIR / f"{name}.yaml")
    assert Simulation(scenario).run().digest_hex == SCENARIO_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(SCENARIO_METRICS))
def test_scenario_metrics_pinned(name):
    scenario = load_scenario(SCENARIO_DIR / f"{name}.yaml")
    assert dict(Simulation(scenario).run().metrics.as_pairs()) == SCENARIO_METRICS[name]


def test_mixed_ca_relying_party_denies_the_other_cas_revoked_customer():
    """A ca-1 member holds ca-2's CRL from the tick ca-2 publishes it, so
    its transfers to ca-2's revoked customer, by account and by key, are
    denied ``CertInvalid`` by its own check, and one to a live ca-2
    customer confirms. Addressed by key, the customer still resolves from
    v1's view of v2, which holds what v2 published."""
    sim = Simulation(load_scenario(SCENARIO_DIR / "mixed_ca.yaml"))
    denied_at = sim.scenario.script[-2].tick
    sim.advance_to(denied_at - 1)
    bob = sim.vasps["v2"].book.accounts["acct-revoked-bob"].certificate_serial
    assert sim.vasps["v1"].revocation.is_revoked("ca-2", bob)
    assert any(e.serial == bob for e in sim.vasps["v1"].directory.views["v2"].entries)
    sim.run()
    *denied, confirmed = (t.outcome for t in sim.scripted_transfers)
    assert len(denied) == 2
    for outcome in denied:
        assert outcome.denial.code is DenialCode.CERT_INVALID
        assert outcome.denial.detail == "beneficiary-customer:revoked"
    assert confirmed.denial is None and confirmed.record.status is RecordStatus.CONFIRMED


def test_batch_race_pays_one_pooled_batch_and_loses_the_revocation_race():
    """The batch is one ledger transaction of the sum of its entries, from
    v1's pool to v2, and both sides' records of it confirm. The notice to
    bob leaves v1 before v1 holds ca-2's CRL of the same tick; v2 holds it
    when the notice arrives, rejects it ``CertInvalid``, and nothing of the
    raced transfer goes on chain."""
    sim = Simulation(load_scenario(SCENARIO_DIR / "batch_race.yaml"))
    result = sim.run()
    assert result.breaches == []
    race, pooled = sim.scripted_transfers
    v1, v2 = sim.vasps["v1"], sim.vasps["v2"]

    [(tx, _)] = sim.chain.confirmed_transactions()
    assert tx.amount == sum(entry.amount for entry in pooled.action.entries) == 12
    assert tx.from_public_key == v1.certificate.subject_public_key
    assert tx.to_public_key == v2.certificate.subject_public_key
    assert pooled.outcome.denial is None
    assert pooled.outcome.record.notice.intended_chain_tx_binding == tx.tx_id
    (received,) = [r for r in v2.records.values() if r.notice.batch_entries is not None]
    for record in (pooled.outcome.record, received):
        assert record.status is RecordStatus.CONFIRMED
        assert record.notice.amount == tx.amount

    assert race.outcome.denial.code is DenialCode.ACK_REJECTED
    assert race.outcome.denial.detail == "CertInvalid"
    assert race.outcome.record.status is RecordStatus.FAILED
    assert race.outcome.record.notice.intended_chain_tx_binding != tx.tx_id
    rejects = [e for e in sim.log_.entries
               if e.event == "ack_sent" and dict(e.details)["decision"] == "reject"]
    assert [(e.actor, dict(e.details)["reason"]) for e in rejects] == [("v2", "CertInvalid")]


def _batch_race_at_tick_30():
    """``batch_race.yaml``'s world at tick 30: its own transfers are under
    way and v1 holds ca-2's CRL of tick 20, which revokes bob."""
    sim = Simulation(load_scenario(SCENARIO_DIR / "batch_race.yaml"))
    sim.advance_to(30)
    v1, v2 = sim.vasps["v1"], sim.vasps["v2"]
    assert v1.revocation.is_revoked("ca-2", v2.book.accounts["acct-bob"].certificate_serial)
    return sim, v1, v2


def _pay_from_pool(v1, v2, *payees):
    """A pooled batch of 5 from v1's pool to each of v2's ``payees``, by key."""
    requests = [("acct-pool-a", TransferTarget.from_key_hash(
        v2.book.accounts[f"acct-{payee}"].customer_public_key_hash), 5) for payee in payees]
    return v1.transfers.initiate_batch_transfer(requests, "coin")


def test_pooled_batch_validates_every_entry_before_its_notice():
    """A batch whose second entry pays revoked bob is denied by v1's own
    check of that entry, as a single transfer to bob is: no notice goes out."""
    sim, v1, v2 = _batch_race_at_tick_30()
    outcome = _pay_from_pool(v1, v2, "dana", "bob")
    assert outcome.denial == DenialReason(DenialCode.CERT_INVALID, "beneficiary-customer:revoked")
    assert outcome.record is None
    assert [e for e in sim.log_.entries if e.event == "notice_sent" and e.tick == 30] == []


def test_pooled_batch_screens_each_resolved_beneficiary():
    """dana's account id, learnt only by resolving her key, is on v1's
    suspect list: a batch to her is denied as a single transfer is, and
    nothing of it goes on chain."""
    sim, v1, v2 = _batch_race_at_tick_30()
    v1.suspect_list.add("acct-dana")
    outcome = _pay_from_pool(v1, v2, "dana")
    assert outcome.denial == DenialReason(DenialCode.SUSPECT_PARTY, "beneficiary")
    assert outcome.record is None
    sim.run()
    # Only the scenario's own batch of 5 + 7 is on chain.
    assert [tx.amount for tx, _ in sim.chain.confirmed_transactions()] == [12]
