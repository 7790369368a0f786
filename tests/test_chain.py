from vaspnet import crypto
from vaspnet.chain import (
    CONFIRMATION_DELAY,
    ChainTransaction,
    SimChain,
    build_transaction,
)


def make_tx(label="a", amount=10, nonce=b"\x00" * 8, to_label="b"):
    sender = crypto.keypair_from_label("chain", label)
    receiver = crypto.keypair_from_label("chain", to_label)
    return build_transaction(sender, sender.public_key, receiver.public_key,
                             amount, "coin", nonce)


class TestSubmission:
    def test_confirms_after_delay(self):
        chain = SimChain()
        tx = make_tx()
        result = chain.submit_transaction(tx, now=0)
        assert result.accepted and result.tx_id == tx.tx_id
        assert all(chain.tick(t) == [] for t in range(1, CONFIRMATION_DELAY))
        events = chain.tick(CONFIRMATION_DELAY)
        assert [e.transaction for e in events] == [tx]
        assert chain.confirmed_transactions() == [(tx, CONFIRMATION_DELAY)]

    def test_duplicate_rejected(self):
        chain = SimChain()
        tx = make_tx()
        assert chain.submit_transaction(tx, 0).accepted
        result = chain.submit_transaction(tx, 1)
        assert not result.accepted and result.reason == "Duplicate"

    def test_forged_signature_rejected(self):
        chain = SimChain()
        tx = make_tx()
        forged = ChainTransaction(**{**tx.__dict__, "amount": tx.amount + 1})
        result = chain.submit_transaction(forged, 0)
        assert not result.accepted and result.reason == "BadSignature"


class TestTxId:
    def test_forged_copy_gets_its_own_tx_id(self):
        tx = make_tx()
        original = tx.tx_id
        forged = ChainTransaction(**{**tx.__dict__, "amount": tx.amount + 1})
        assert forged.tx_id != original
        assert forged.tx_id == crypto.digest(forged.to_bytes())
        assert tx.tx_id == original == crypto.digest(tx.to_bytes())

    def test_forged_copy_gets_its_own_encodings(self):
        tx = make_tx()
        payload, data = tx.signed_payload(), tx.to_bytes()
        forged = ChainTransaction(**{**tx.__dict__, "nonce": b"\x01" * 8})
        assert forged.signed_payload() != payload and forged.to_bytes() != data
        assert not crypto.check(forged.from_public_key, forged)
        assert crypto.check(tx.from_public_key, tx)
        assert (tx.signed_payload(), tx.to_bytes()) == (payload, data)


class TestTicks:
    def test_no_block_for_empty_pending(self):
        chain = SimChain()
        assert chain.tick(5) == []
        assert chain.blocks == []

    def test_same_tick_txs_one_block_in_submission_order(self):
        chain = SimChain()
        txs = [make_tx(label=f"s{i}", nonce=bytes([i]) * 8) for i in range(3)]
        for tx in txs:
            chain.submit_transaction(tx, 0)
        events = chain.tick(CONFIRMATION_DELAY)
        assert len(chain.blocks) == 1
        assert list(chain.blocks[0].transactions) == txs
        assert [e.transaction for e in events] == txs

    def test_confirmed_transactions_follow_the_blocks_without_a_rebuild(self):
        chain = SimChain()
        txs = [make_tx(label=f"s{i}", nonce=bytes([i]) * 8) for i in range(3)]
        ledger = chain.confirmed_transactions()
        for tick, tx in enumerate(txs):
            chain.submit_transaction(tx, tick)
            chain.tick(tick + CONFIRMATION_DELAY)
        assert chain.confirmed_transactions() is ledger
        assert ledger == [(tx, block.tick) for block in chain.blocks for tx in block.transactions]
        assert ledger == [(tx, tick + CONFIRMATION_DELAY) for tick, tx in enumerate(txs)]

    def test_replay_identical_block_hashes(self):
        def build():
            chain = SimChain()
            for i in range(4):
                chain.submit_transaction(make_tx(label=f"r{i}", nonce=bytes([i]) * 8), i)
            for t in range(10):
                chain.tick(t)
            return [b.block_hash for b in chain.blocks]

        assert build() == build()


class TestImmutability:
    def test_untouched_ledger_verifies(self):
        chain = SimChain()
        chain.submit_transaction(make_tx(), 0)
        chain.tick(CONFIRMATION_DELAY)
        assert chain.verify_chain()

    def test_empty_ledger_verifies(self):
        assert SimChain().verify_chain()

    def test_mutating_confirmed_amount_detected(self):
        chain = SimChain()
        chain.submit_transaction(make_tx(), 0)
        chain.tick(CONFIRMATION_DELAY)
        victim = chain.blocks[0].transactions[0]
        object.__setattr__(victim, "amount", 999_999)
        assert not chain.verify_chain()

    def test_no_mutation_api_exists(self):
        # The chain exposes no way to remove or edit a confirmed transaction.
        forbidden = ("remove", "delete", "edit", "revert", "pop", "rollback", "reverse")
        surface = [name for name in dir(SimChain) if not name.startswith("_")]
        assert not [n for n in surface if any(f in n.lower() for f in forbidden)]

    def test_confirmation_event_content_stable(self):
        chain = SimChain()
        tx = make_tx(amount=77)
        chain.submit_transaction(tx, 0)
        events = chain.tick(CONFIRMATION_DELAY)
        stored = chain.confirmed_transactions()[0][0]
        assert events[0].transaction == stored == tx
        assert stored.tx_id == crypto.digest(stored.to_bytes())


class TestExport:
    def test_export_line_format(self):
        chain = SimChain()
        tx = make_tx(amount=42)
        chain.submit_transaction(tx, 0)
        chain.tick(CONFIRMATION_DELAY)
        line = chain.export_lines()[0]
        parts = line.split(",")
        assert parts[0] == tx.tx_id.hex()
        assert parts[3] == "42" and parts[4] == "coin" and parts[5] == str(CONFIRMATION_DELAY)


class TestKeyIndex:
    def test_transactions_of_keys_once_each_in_ledger_order(self):
        chain = SimChain()
        key = {label: crypto.keypair_from_label("chain", label).public_key for label in "abcd"}
        txs = [make_tx("a", to_label="b", nonce=b"\x01" * 8),
               make_tx("c", to_label="d", nonce=b"\x02" * 8),
               make_tx("b", to_label="a", nonce=b"\x03" * 8),
               make_tx("d", to_label="a", nonce=b"\x04" * 8)]
        for tick, tx in enumerate(txs):
            chain.submit_transaction(tx, tick)
            chain.tick(tick + CONFIRMATION_DELAY)
        ledger = chain.confirmed_transactions()
        for keys in ([], [key["a"]], [key["c"]], [key["a"], key["b"]], [key["d"], key["a"]],
                     [bytes(32)], list(key.values())):
            assert chain.confirmed_transactions_of(keys) == [
                (tx, tick) for tx, tick in ledger
                if tx.from_public_key in keys or tx.to_public_key in keys]
