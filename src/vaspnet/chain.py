"""Minimal append-only ledger with hash-chained blocks.

Transactions confirm after a fixed delay and are final: there is no API to
cancel, reverse, or remove a confirmed transaction. Balances are not
enforced; the ledger records identity and amount flows, nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from . import crypto
from .crypto import KeyPair, digest, enc_str, enc_u64

NONCE_LEN = 8
GENESIS_HASH = bytes(crypto.HASH_LEN)

CONFIRMATION_DELAY = 3  # ticks from a transaction's submission to its block


@dataclass(frozen=True)
class ChainTransaction(crypto.Signed):
    SIGNATURE_TAG = 6

    from_public_key: bytes
    to_public_key: bytes
    amount: int
    asset_type: str
    nonce: bytes
    signature: bytes = b""

    def tlv_fields(self) -> list[tuple[int, bytes]]:
        return [
            (1, self.from_public_key),
            (2, self.to_public_key),
            (3, enc_u64(self.amount)),
            (4, enc_str(self.asset_type)),
            (5, self.nonce),
        ]

    @property
    def tx_id(self) -> bytes:
        return self.fingerprint()


def build_transaction(
    signing_key: KeyPair | bytes,
    from_public_key: bytes,
    to_public_key: bytes,
    amount: int,
    asset_type: str,
    nonce: bytes,
) -> ChainTransaction:
    """Assemble and sign a transaction with the sender's key."""
    return crypto.seal(signing_key, ChainTransaction(
        from_public_key=from_public_key,
        to_public_key=to_public_key,
        amount=amount,
        asset_type=asset_type,
        nonce=nonce,
    ))


@dataclass(frozen=True)
class SubmitResult:
    accepted: bool
    tx_id: Optional[bytes] = None
    reason: Optional[str] = None


@dataclass(frozen=True)
class Block:
    tick: int
    transactions: tuple[ChainTransaction, ...]
    previous_hash: bytes
    block_hash: bytes


@dataclass(frozen=True)
class ConfirmationEvent:
    transaction: ChainTransaction
    block_index: int


def _block_hash(previous_hash: bytes, tick: int, txs: tuple[ChainTransaction, ...]) -> bytes:
    body = previous_hash + enc_u64(tick) + b"".join(tx.to_bytes() for tx in txs)
    return digest(body)


class SimChain:
    """Single simulated chain; one logical actor, ticked by the harness."""

    def __init__(self) -> None:
        self.blocks: list[Block] = []
        self._confirmed: list[tuple[ChainTransaction, int]] = []
        # Public key -> ledger positions of the confirmed transactions it is in.
        self._positions: dict[bytes, list[int]] = {}
        self._pending: list[tuple[ChainTransaction, int]] = []
        self._seen: set[bytes] = set()

    def submit_transaction(self, tx: ChainTransaction, now: int) -> SubmitResult:
        if not crypto.check(tx.from_public_key, tx):
            return SubmitResult(accepted=False, reason="BadSignature")
        tx_id = tx.tx_id
        if tx_id in self._seen:
            return SubmitResult(accepted=False, reason="Duplicate")
        self._seen.add(tx_id)
        self._pending.append((tx, now))
        return SubmitResult(accepted=True, tx_id=tx_id)

    def tick(self, now: int) -> list[ConfirmationEvent]:
        """Seal pending transactions older than the confirmation delay.

        At most one block per tick; an empty ready set produces no block.
        """
        ready = [tx for tx, submitted in self._pending if now - submitted >= CONFIRMATION_DELAY]
        if not ready:
            return []
        self._pending = [
            (tx, submitted)
            for tx, submitted in self._pending
            if now - submitted < CONFIRMATION_DELAY
        ]
        previous = self.blocks[-1].block_hash if self.blocks else GENESIS_HASH
        txs = tuple(ready)
        block = Block(
            tick=now,
            transactions=txs,
            previous_hash=previous,
            block_hash=_block_hash(previous, now, txs),
        )
        self.blocks.append(block)
        for tx in txs:
            position = len(self._confirmed)
            self._confirmed.append((tx, now))
            for key in {tx.from_public_key, tx.to_public_key}:
                self._positions.setdefault(key, []).append(position)
        index = len(self.blocks) - 1
        return [ConfirmationEvent(tx, index) for tx in txs]

    def verify_chain(self) -> bool:
        """Recompute the hash chain and every transaction signature end to end."""
        previous = GENESIS_HASH
        for block in self.blocks:
            if block.previous_hash != previous:
                return False
            if _block_hash(previous, block.tick, block.transactions) != block.block_hash:
                return False
            for tx in block.transactions:
                if not crypto.check(tx.from_public_key, tx):
                    return False
            previous = block.block_hash
        return True

    def confirmed_transactions(self) -> list[tuple[ChainTransaction, int]]:
        """The chain's own (tx, block tick) list, in ledger order; not a copy."""
        return self._confirmed

    def confirmed_transactions_of(self, keys: Iterable[bytes]) -> list[tuple[ChainTransaction, int]]:
        """The (tx, block tick) of each confirmed transaction from or to one of
        ``keys``, once, in ledger order."""
        positions = set()
        for key in keys:
            positions.update(self._positions.get(key, ()))
        return [self._confirmed[position] for position in sorted(positions)]

    def export_lines(self) -> list[str]:
        return [
            f"{tx.tx_id.hex()},{tx.from_public_key.hex()},{tx.to_public_key.hex()},"
            f"{tx.amount},{tx.asset_type},{tick}"
            for tx, tick in self.confirmed_transactions()
        ]
