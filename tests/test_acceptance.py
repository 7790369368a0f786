"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest -v tests/test_acceptance.py`` (or ``-s`` to see the
CRITERION lines). Every tolerance is pinned here; nothing is deferred.
"""

import random
import time

import pytest

import ed25519_ref
from conftest import make_scenario, standard_script
from vaspnet import crypto
from vaspnet.ca import CertClass, RevocationReason, RevocationView
from vaspnet.ca import _entries_payload as crl_entries_payload
from vaspnet.harness import MAX_LATENCY, Simulation
from vaspnet.network import SYNC_PERIOD
from vaspnet.network import _entries_bytes as directory_entries_bytes
from vaspnet.resolution import TransferTarget
from vaspnet.transfer import OutcomeStatus

MODELS = ["mediated", "key-custody", "commingled"]


def flagship_scenario(seed=7):
    """2 trust networks, 6 VASPs, 2 CAs, 60 customers, 200 scripted transfers,
    drop probability 0."""
    vasps = [{"vasp_id": f"v{i}", "ca": "ca-1" if i <= 3 else "ca-2",
              "networks": ["net-a" if i <= 3 else "net-b"]} for i in range(1, 7)]
    customers = [
        {"customer_id": f"c{i:02d}", "vasp": f"v{i % 6 + 1}",
         "custody_model": MODELS[i % 3],
         "attributes": {"name": f"Customer {i}", "email": f"c{i}@x"}}
        for i in range(60)
    ]
    script = [{"tick": 0, "action": "open_account", "customer": f"c{i:02d}"}
              for i in range(60)]
    script += [{"tick": 1, "action": "enroll", "customer": f"c{i:02d}"}
               for i in range(60) if MODELS[i % 3] != "commingled"]
    rng = random.Random(seed * 7919 + 13)
    tick = 40
    for n in range(200):
        origin = rng.randrange(60)
        target = rng.randrange(60)
        while target == origin:
            target = rng.randrange(60)
        script.append({
            "tick": tick, "action": "transfer", "origin": f"c{origin:02d}",
            "target": {"customer": f"c{target:02d}"},
            "amount": rng.randrange(1, 1_000_000), "asset": "coin",
        })
        if n % 2 == 1:
            tick += 1
    return make_scenario(
        seed=seed,
        networks=("net-a", "net-b"),
        cas=("ca-1", "ca-2"),
        vasps=vasps,
        peering=[{"vasp_a": "v3", "network_a": "net-a",
                  "vasp_b": "v4", "network_b": "net-b"}],
        customers=customers,
        script=script,
    )


def test_01_travel_rule_completeness():
    started = time.monotonic()
    sim = Simulation(flagship_scenario())
    result = sim.run()
    elapsed = time.monotonic() - started
    assert sim.metrics.transfers_attempted == 200
    assert sim.metrics.transfers_confirmed == 200
    assert sim.metrics.audit_violations == 0
    assert sim.metrics.reconciliation_orphans == 0
    assert sim.metrics.unconfirmed_records == 0
    assert not result.breaches
    assert elapsed < 5.0, f"run took {elapsed:.2f}s"
    # record symmetry: confirmed originator and beneficiary sides pair 1:1
    confirmed = {"originator": [], "beneficiary": []}
    for vasp in sim.vasps.values():
        for record in vasp.records.values():
            if record.status.value == "confirmed":
                confirmed[record.role.value].append(record.notice.notice_id)
    assert sorted(confirmed["originator"]) == sorted(confirmed["beneficiary"])
    assert len(set(confirmed["originator"])) == 200
    print(f"\nCRITERION 1 PASS: 200/200 transfers, 0 violations, 0 orphans, "
          f"0 unconfirmed in {elapsed:.2f}s")


def test_02_no_blind_broadcast_over_25_seeds():
    exceptions = 0
    for seed in range(25):
        sim = Simulation(flagship_scenario(), seed=1000 + seed)
        sim.run()
        problems = sim.scan_blind_broadcasts()
        exceptions += len(problems)
        assert problems == [], f"seed {1000 + seed}: {problems[:2]}"
        # cross-check from the ledger side: every VASP-key-originated tx has a record
        vasp_keys = {node.certificate.subject_public_key for node in sim.vasps.values()}
        account_keys = {
            account.customer_public_key
            for node in sim.vasps.values()
            for account in node.book.accounts.values()
            if account.customer_public_key is not None
        }
        submitted = {
            dict(e.details)["tx"]
            for e in sim.log_.entries
            if e.event == "tx_submitted" and e.actor in sim.vasps
        }
        for tx, _ in sim.chain.confirmed_transactions():
            if tx.from_public_key in vasp_keys | account_keys:
                assert tx.tx_id.hex() in submitted
    print(f"\nCRITERION 2 PASS: 25 seeds, {exceptions} blind broadcasts")


def test_03_denial_correctness():
    scn = make_scenario(
        customers=[
            {"customer_id": "alice", "vasp": "v1", "custody_model": "mediated",
             "attributes": {"name": "Alice", "email": "a@x"}},
            {"customer_id": "bob", "vasp": "v2", "custody_model": "mediated",
             "attributes": {"name": "Bob", "email": "b@x"}},
            {"customer_id": "carol", "vasp": "v2", "custody_model": "mediated",
             "attributes": {"name": "Carol", "email": "c@x"}},
            {"customer_id": "mallory", "vasp": "v2", "custody_model": "mediated",
             "attributes": {"name": "Mallory", "email": "m@x"}},
            {"customer_id": "nocert", "vasp": "v1", "custody_model": "mediated",
             "attributes": {"name": "NoCert", "email": "n@x"}},
        ],
        suspect_entries=[{"customer": "mallory"}],
        script=[
            {"tick": 0, "action": "open_account", "customer": c}
            for c in ("alice", "bob", "carol", "mallory", "nocert")
        ] + [
            {"tick": 1, "action": "enroll", "customer": c}
            for c in ("alice", "bob", "carol", "mallory")
        ] + [
            {"tick": 15, "action": "transfer", "origin": "nocert",
             "target": {"customer": "bob"}, "amount": 10, "asset": "coin"},
            {"tick": 16, "action": "revoke_cert", "customer": "carol",
             "reason": "keyCompromise"},
            {"tick": 17, "action": "transfer", "origin": "alice",
             "target": {"customer": "carol"}, "amount": 10, "asset": "coin"},
            {"tick": 18, "action": "transfer", "origin": "alice",
             "target": {"customer": "mallory"}, "amount": 10, "asset": "coin"},
            {"tick": 19, "action": "transfer", "origin": "alice",
             "target": {"key_hash_hex": "ab" * 32}, "amount": 10, "asset": "coin"},
        ],
    )
    sim = Simulation(scn)
    sim.run()
    outcomes = [(t.outcome.status, t.outcome.denial.code.value if t.outcome.denial else None)
                for t in sim.scripted_transfers]
    expected = ["NoOriginatorCert", "CertInvalid", "SuspectParty", "BeneficiaryUnresolved"]
    assert [o[1] for o in outcomes] == expected
    assert all(o[0] is OutcomeStatus.DENIED for o in outcomes)
    assert sim.metrics.ledger_transactions == 0
    assert sim.chain.confirmed_transactions() == []
    print("\nCRITERION 3 PASS: 4/4 exact denial reasons, 0 ledger writes")


def test_04_crl_and_directory_equivalence():
    from test_ca import issue, make_ca

    crl_trials = 0
    for trial in range(100):
        rng = random.Random(5000 + trial)
        ca = make_ca(name=f"ca-eq{trial}", seed=trial)
        certs = [issue(ca, subject=f"s{i}", key_label=f"eq{trial}-{i}")
                 for i in range(8)]
        unrevoked = list(certs)
        issued = [ca.generate_crl(0)]
        for event in range(1, rng.randrange(5, 50)):
            if rng.random() < 0.5 and unrevoked:
                cert = unrevoked.pop(rng.randrange(len(unrevoked)))
                ca.revoke(cert.serial, RevocationReason.UNSPECIFIED, event)
            else:
                issued.append(ca.generate_crl(event))
        last = ca.generate_crl(99)
        issued.append(last)
        assert {e.serial for e in last.entries} == {
            c.serial for c in certs if c not in unrevoked}
        # Every issued CRL arrives once, in shuffled order, among replays.
        arrivals = issued + [rng.choice(issued) for _ in range(rng.randrange(len(issued)))]
        rng.shuffle(arrivals)
        view = RevocationView()
        for crl in arrivals:
            number = view.crl_number(ca.ca_id)
            held = {c.serial: view.revocation_entry(ca.ca_id, c.serial) for c in certs}
            assert view.merge_crl(crl) is (crl.crl_number > number)
            assert view.crl_number(ca.ca_id) == max(number, crl.crl_number)
            # an older CRL never un-revokes
            assert all(view.revocation_entry(ca.ca_id, serial) == entry
                       for serial, entry in held.items() if entry is not None)
        assert view.crl_number(ca.ca_id) == last.crl_number
        by_serial = {e.serial: e for e in last.entries}
        assert all(view.revocation_entry(ca.ca_id, c.serial) == by_serial.get(c.serial)
                   for c in certs)
        assert (
            crl_entries_payload(view._held[ca.ca_id][1].values())
            == crl_entries_payload(last.entries)
        )
        crl_trials += 1
    assert crl_trials == 100

    directory_trials = 0
    for trial in range(100):
        rng = random.Random(6000 + trial)
        scn = make_scenario(
            seed=trial,
            customers=[
                {"customer_id": f"m{i}", "vasp": "v1", "custody_model": "mediated",
                 "attributes": {"name": f"M{i}", "email": f"m{i}@x"}}
                for i in range(6)
            ],
            script=[{"tick": 0, "action": "open_account", "customer": f"m{i}"}
                    for i in range(6)],
        )
        sim = Simulation(scn)
        sim.advance_to(1)
        v1, v2 = sim.vasps["v1"], sim.vasps["v2"]
        enrolled = []
        events = 0
        budget = rng.randrange(5, 50)
        tick = 2
        while events < budget:
            events += 1
            roll = rng.random()
            if roll < 0.45:
                candidates = [f"acct-m{i}" for i in range(6)
                              if v1.book.accounts[f"acct-m{i}"].certificate is None]
                if candidates:
                    account_id = rng.choice(candidates)
                    v1.book.enroll_customer_certificate(account_id, CertClass.CLASS1, sim.now)
                    enrolled.append(account_id)
            elif roll < 0.7 and enrolled:
                account_id = enrolled.pop(rng.randrange(len(enrolled)))
                serial = v1.book.accounts[account_id].certificate_serial
                if not v1.revocation.is_revoked(v1.ca.ca_id, serial):
                    v1.ca.revoke(serial, RevocationReason.UNSPECIFIED, sim.now)
                    v1.ingest_crls([v1.ca.generate_crl(sim.now)])
            elif roll < 0.85:
                # gap injection: the member loses its view and must resync
                if rng.random() < 0.5 and v1.vasp_id in v2.directory.views:
                    from vaspnet.network import DirectoryView
                    v2.directory.views[v1.vasp_id] = DirectoryView()
            tick += rng.randrange(1, 4)
            sim.advance_to(tick)
        sim.advance_to(tick + 30)  # drain: deltas, pulls, snapshots
        snapshot = v1.directory._last_snapshot
        view = v2.directory.views.get(v1.vasp_id)
        assert snapshot is not None and view is not None
        assert view.version == snapshot.version
        assert directory_entries_bytes(view.entries) == directory_entries_bytes(snapshot.entries)
        directory_trials += 1
    assert directory_trials == 100
    print("\nCRITERION 4 PASS: 100/100 CRL merge orders and 100/100 directory folds byte-equal")


def test_05_gossip_convergence_random_topologies():
    checked = 0
    for trial in range(6):
        rng = random.Random(300 + trial)
        n = rng.randrange(3, 13)
        vasps = [{"vasp_id": f"g{i}", "ca": "ca-1", "networks": ["net-a"]}
                 for i in range(n)]
        customers = []
        for i in range(n):
            for j in range(rng.randrange(1, 3)):
                customers.append({
                    "customer_id": f"cu{i}-{j}", "vasp": f"g{i}",
                    "custody_model": "mediated",
                    "attributes": {"name": f"Cu{i}{j}", "email": "e@x"},
                })
        script = [{"tick": 0, "action": "open_account", "customer": c["customer_id"]}
                  for c in customers]
        script += [{"tick": 1, "action": "enroll", "customer": c["customer_id"]}
                   for c in customers]
        scn = make_scenario(seed=trial, vasps=vasps, customers=customers, script=script)
        sim = Simulation(scn)
        sim.run()
        network = sim.networks["net-a"]
        diameter = 1  # gossip pushes directly to every member
        bound = diameter * SYNC_PERIOD + MAX_LATENCY
        for publisher_id in network.member_ids():
            snapshot = sim.vasps[publisher_id].directory._last_snapshot
            assert snapshot is not None
            for member_id in network.member_ids():
                view = sim.vasps[member_id].directory.views.get(publisher_id)
                assert view is not None
                assert view.version == snapshot.version, (member_id, publisher_id)
                assert frozenset(view.entries) == snapshot.entries
        last_publish = max(e.tick for e in sim.log_.entries if e.event == "directory_published")
        assert sim.metrics.directory_convergence_tick - last_publish <= bound
        checked += 1
    assert checked == 6
    print("\nCRITERION 5 PASS: 6 random topologies (3-12 VASPs) converged within "
          "diameter*sync+latency")


def test_06_path_vector_properties():
    from test_network import square_topology

    sim = square_topology()
    sim.run()
    accepted = [e for e in sim.log_.entries
                if e.event == "advertisement" and dict(e.details).get("verdict") == "accept"]
    assert accepted
    for event in accepted:
        path = dict(event.details)["path"].split(">")
        assert len(path) == len(set(path)), f"repeated network id in {path}"

    all_hashes = {
        crypto.digest(account.customer_public_key)
        for vasp in sim.vasps.values()
        for account in vasp.book.accounts.values()
    }
    for network_id, network in sim.networks.items():
        reachable = set()
        for entry in network.route_table.values():
            reachable |= entry.hashes
        local = {
            crypto.digest(account.customer_public_key)
            for member_id in network.member_ids()
            for account in sim.vasps[member_id].book.accounts.values()
        }
        assert reachable | local == all_hashes, f"{network_id} missing hashes"

    a1, d1 = sim.vasps["a1"], sim.vasps["d1"]
    target_hash = crypto.digest(d1.book.accounts["acct-cust-d1"].customer_public_key)
    resolved = a1.resolve_beneficiary(TransferTarget.from_key_hash(target_hash), sim.now)
    assert resolved is not None and resolved.home_vasp_id == "d1"
    installed = sim.networks["net-a"].route_table["net-d"]
    walked_networks = ["net-a"] + [
        nid for hop in resolved.resolution_path[1:-1]
        for nid in sim.vasps[hop].memberships
    ]
    assert installed.network_path == ("net-d", "net-b")
    assert resolved.resolution_path == ("a1", "b1", "d1")
    print("\nCRITERION 6 PASS: loop-free advertisements, full routability, "
          f"a->d query walked {'>'.join(resolved.resolution_path)}")


def test_07_commingled_batch_arithmetic():
    customers = [
        {"customer_id": f"p{i}", "vasp": "v1", "custody_model": "commingled",
         "attributes": {"name": f"P{i}", "email": f"p{i}@x"}}
        for i in range(4)
    ] + [
        {"customer_id": f"r{i}", "vasp": "v2", "custody_model": "mediated",
         "attributes": {"name": f"R{i}", "email": f"r{i}@x"}}
        for i in range(4)
    ]
    script = [{"tick": 0, "action": "open_account", "customer": c["customer_id"]}
              for c in customers]
    script += [{"tick": 1, "action": "enroll", "customer": f"r{i}"} for i in range(4)]
    scn = make_scenario(customers=customers, script=script)
    sim = Simulation(scn)
    sim.advance_to(12)
    rng = random.Random(777)
    v1 = sim.vasps["v1"]
    expected = []
    tick = 12
    for batch_number in range(100):
        requests = [
            (f"acct-p{rng.randrange(4)}",
             TransferTarget.from_account("v2", f"acct-r{rng.randrange(4)}"),
             rng.randrange(1, 50_000))
            for _ in range(rng.randrange(1, 6))
        ]
        outcome = v1.transfers.initiate_batch_transfer(requests, "coin")
        expected.append((outcome, sum(a for _, _, a in requests)))
        tick += 1
        sim.advance_to(tick)
    sim.advance_to(tick + 60)
    ledger = {tx.tx_id: tx for tx, _ in sim.chain.confirmed_transactions()}
    assert len(ledger) == 100, "exactly one ledger tx per batch"
    matched = 0
    for outcome, total in expected:
        assert outcome.status is OutcomeStatus.BROADCAST
        tx = ledger[outcome.record.notice.intended_chain_tx_binding]
        assert tx.amount == total
        assert tx.from_public_key == v1.certificate.subject_public_key
        matched += 1
    assert matched == 100
    print("\nCRITERION 7 PASS: 100/100 batches, on-chain amount == off-chain sum, "
          "one tx per batch")


def test_08_determinism_and_seed_variation():
    scn = flagship_scenario()
    first = Simulation(scn).run().digest_hex
    second = Simulation(flagship_scenario()).run().digest_hex
    assert first == second
    digests = set()
    base = make_scenario(script=standard_script([
        {"tick": 15, "action": "transfer", "origin": "alice",
         "target": {"customer": "bob"}, "amount": 100, "asset": "coin"},
    ]))
    for seed in range(20):
        digests.add(Simulation(base, seed=seed).run().digest_hex)
    assert len(digests) == 20
    print(f"\nCRITERION 8 PASS: identical digests on replay ({first[:16]}...), "
          "20/20 distinct digests across seeds")


# Event-log digest of the flagship run. A change meant to keep behaviour the
# same must leave it byte-identical; a change that alters the log re-pins it
# and says why. It was last re-pinned when the notice and the ack came to
# carry an unsigned disclosure inside their own signed payload: their bytes
# moved, no assertion id is drawn on the transfer path any more, so every id
# drawn after one moved, and ``tx_submitted`` dropped its ``binding`` detail,
# a copy of ``tx``. Every event, tick and outcome stayed as it was.
FLAGSHIP_DIGEST = "6ffb59b6d2ad0cbd4323e45486b68e41a74d4b1264681bee29d0920ccdb6dbbe"


def test_08_flagship_digest_pinned():
    assert Simulation(flagship_scenario()).run().digest_hex == FLAGSHIP_DIGEST


def test_09_ledger_immutability():
    sim = Simulation(flagship_scenario())
    result = sim.run()
    assert sim.chain.verify_chain()
    assert not any("chain" in b for b in result.breaches)
    victim = sim.chain.confirmed_transactions()[0][0]
    object.__setattr__(victim, "amount", victim.amount + 1)
    assert not sim.chain.verify_chain()
    print("\nCRITERION 9 PASS: verify_chain holds on completed runs and detects "
          "a mutated confirmed tx")


def test_10_crypto_conformance():
    from test_crypto import RFC8032_VECTORS, SHA256_VECTORS, ZERO_SEED_PUBLIC

    passed = 0
    for sk_hex, pk_hex, msg_hex, sig_hex in RFC8032_VECTORS:
        pair = crypto.generate_keypair(bytes.fromhex(sk_hex))
        message = bytes.fromhex(msg_hex)
        assert pair.public_key.hex() == pk_hex
        assert crypto.sign(pair, message).hex() == sig_hex
        assert ed25519_ref.publickey(bytes.fromhex(sk_hex)).hex() == pk_hex
        assert ed25519_ref.verify(pair.public_key, message, bytes.fromhex(sig_hex))
        passed += 1
    assert crypto.generate_keypair(bytes(32)).public_key.hex() == ZERO_SEED_PUBLIC
    passed += 1
    for data, expected in SHA256_VECTORS:
        assert crypto.digest(data).hex() == expected
        passed += 1
    print(f"\nCRITERION 10 PASS: {passed}/{passed} published vectors match, "
          "independent implementation agrees")
