"""The transfer lifecycle of one VASP node: the pre-transfer pipeline,
off-chain notices and acks, on-chain execution per custody model (including
commingled batches), travel-rule records, reconciliation and audit."""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from . import crypto
from .accounts import Account, AccountBook, CustodyModel, ModelKeyMismatch, VaspError, fresh_id
from .assertions import REQUIRED_TRAVEL_RULE_CORE, AssertionServiceError, Disclosure
from .ca import Certificate
from .chain import ChainTransaction
from .crypto import canonical_encode, enc_str, enc_u64
from .network import ACK_TIMEOUT
from .resolution import ResolvedBeneficiary, TransferTarget

NOTICE_ID_LEN = 16
RECORD_ID_LEN = 16


class MixedDestination(VaspError):
    pass


@dataclass(frozen=True)
class BeneficiaryRef:
    """How a notice names one beneficiary: key hash plus optional account id."""

    public_key_hash: bytes
    account_id: Optional[str] = None

    def to_bytes(self) -> bytes:
        fields: list[tuple[int, bytes]] = [(1, self.public_key_hash)]
        if self.account_id is not None:
            fields.append((2, enc_str(self.account_id)))
        return canonical_encode(fields)


@dataclass(frozen=True)
class TransferNotice(crypto.Signed):
    notice_id: bytes
    originator_vasp_id: str
    beneficiary_vasp_id: str
    originator_disclosure: Disclosure
    beneficiary_ref: BeneficiaryRef
    asset_type: str
    amount: int
    execution_tick: int
    intended_chain_tx_binding: bytes
    batch_entries: Optional[tuple[tuple[BeneficiaryRef, int], ...]]
    signature: bytes = b""

    def __post_init__(self) -> None:
        if self.batch_entries is not None:
            total = sum(amount for _, amount in self.batch_entries)
            if total != self.amount:
                raise ValueError("batch entry amounts must sum to the notice amount")

    def tlv_fields(self) -> list[tuple[int, bytes]]:
        fields: list[tuple[int, bytes]] = [
            (1, self.notice_id),
            (2, enc_str(self.originator_vasp_id)),
            (3, enc_str(self.beneficiary_vasp_id)),
            (4, self.originator_disclosure.to_bytes()),
            (5, self.beneficiary_ref.to_bytes()),
            (6, enc_str(self.asset_type)),
            (7, enc_u64(self.amount)),
            (8, enc_u64(self.execution_tick)),
            (9, self.intended_chain_tx_binding),
        ]
        if self.batch_entries is not None:
            encoded = crypto.encode_bytes_list(
                ref.to_bytes() + enc_u64(amount) for ref, amount in self.batch_entries
            )
            fields.append((10, encoded))
        return fields

    def all_refs(self) -> tuple[BeneficiaryRef, ...]:
        if self.batch_entries is not None:
            return tuple(ref for ref, _ in self.batch_entries)
        return (self.beneficiary_ref,)


class AckDecision(enum.Enum):
    ACCEPT = "accept"
    REJECT = "reject"


class RejectReason(enum.Enum):
    UNKNOWN_BENEFICIARY = "UnknownBeneficiary"
    SUSPECT_PARTY = "SuspectParty"
    CERT_INVALID = "CertInvalid"
    POLICY_REFUSAL = "PolicyRefusal"


@dataclass(frozen=True)
class TransferAck(crypto.Signed):
    notice_id: bytes
    decision: AckDecision
    reject_reason: Optional[RejectReason]
    beneficiary_disclosure: Optional[Disclosure]
    signature: bytes = b""

    def tlv_fields(self) -> list[tuple[int, bytes]]:
        fields: list[tuple[int, bytes]] = [(1, self.notice_id), (2, enc_str(self.decision.value))]
        if self.reject_reason is not None:
            fields.append((3, enc_str(self.reject_reason.value)))
        if self.beneficiary_disclosure is not None:
            fields.append((4, self.beneficiary_disclosure.to_bytes()))
        return fields


class RecordRole(enum.Enum):
    ORIGINATOR_SIDE = "originator"
    BENEFICIARY_SIDE = "beneficiary"


class RecordStatus(enum.Enum):
    PENDING_ACK = "pending-ack"
    PENDING_CHAIN = "pending-chain"
    CONFIRMED = "confirmed"
    FAILED = "failed"


_ALLOWED_TRANSITIONS = {
    RecordStatus.PENDING_ACK: {RecordStatus.PENDING_CHAIN, RecordStatus.FAILED},
    RecordStatus.PENDING_CHAIN: {RecordStatus.CONFIRMED, RecordStatus.FAILED},
    RecordStatus.CONFIRMED: set(),
    RecordStatus.FAILED: set(),
}


@dataclass
class TravelRuleRecord:
    """Append-only compliance record for one transfer, per side, and the one
    state of that transfer on its side: ``_ALLOWED_TRANSITIONS`` is its
    table, ``Transfers._open_record`` its entry edge and ``Transfers._fail``
    the originator's failure edge once the notice went out."""

    record_id: bytes
    role: RecordRole
    notice: TransferNotice
    ack: Optional[TransferAck]
    status: RecordStatus
    failure_reason: Optional[str]
    created_at: int
    updated_at: int
    account_ids: tuple[str, ...] = ()  # this side's accounts

    def advance(self, status: RecordStatus, now: int, failure_reason: Optional[str] = None) -> None:
        if status not in _ALLOWED_TRANSITIONS[self.status]:
            raise VaspError(f"illegal record transition {self.status} -> {status}")
        self.status = status
        self.failure_reason = failure_reason
        self.updated_at = now


class DenialCode(enum.Enum):
    NO_ORIGINATOR_CERT = "NoOriginatorCert"
    BENEFICIARY_UNRESOLVED = "BeneficiaryUnresolved"
    CERT_INVALID = "CertInvalid"
    SUSPECT_PARTY = "SuspectParty"
    ACK_REJECTED = "AckRejected"
    CHANNEL_TIMEOUT = "ChannelTimeout"
    CHAIN_REJECTED = "ChainRejected"


@dataclass(frozen=True)
class DenialReason:
    code: DenialCode
    detail: str = ""


class OutcomeStatus(enum.Enum):
    PENDING = "pending"
    BROADCAST = "broadcast"
    DENIED = "denied"


@dataclass
class TransferOutcome:
    """A transfer as its originator's caller sees it: the originator record
    (None if denied before the notice went out) and the denial, if any."""

    record: Optional[TravelRuleRecord] = None
    denial: Optional[DenialReason] = None

    @property
    def status(self) -> OutcomeStatus:
        if self.denial is not None:
            return OutcomeStatus.DENIED
        if self.record is None or self.record.status is RecordStatus.PENDING_ACK:
            return OutcomeStatus.PENDING
        return OutcomeStatus.BROADCAST

    @property
    def record_id(self) -> Optional[bytes]:
        return self.record.record_id if self.record is not None else None


@dataclass
class PendingTransfer:
    outcome: TransferOutcome
    prepared_tx: ChainTransaction
    resolved: ResolvedBeneficiary
    deadline: int


@dataclass(frozen=True)
class ReconciliationReport:
    matched: int
    orphan_chain_txs: tuple[bytes, ...]
    unconfirmed_records: tuple[bytes, ...]

    def report_lines(self) -> list[str]:
        lines = [f"reconcile matched={self.matched} orphans={len(self.orphan_chain_txs)} "
                 f"unconfirmed={len(self.unconfirmed_records)}"]
        lines += [f"orphan_tx={tx.hex()}" for tx in self.orphan_chain_txs]
        lines += [f"unconfirmed_record={rid.hex()}" for rid in self.unconfirmed_records]
        return lines


@dataclass(frozen=True)
class AuditReport:
    records_checked: int
    violations: tuple[tuple[str, str], ...]

    def report_lines(self) -> list[str]:
        lines = [f"audit records={self.records_checked} violations={len(self.violations)}"]
        lines += [f"violation record={rid} missing={what}" for rid, what in self.violations]
        return lines


class Transfers:
    """The transfers of ``node``, whose accounts are in ``book``; ``rng`` is
    the node's one generator. Beneficiaries are resolved, and known keys
    read, through the node's ``resolve_beneficiary`` and ``known_keys``."""

    def __init__(self, node, book: AccountBook, rng: random.Random) -> None:
        self._node = node
        self._env = node.env
        self._vasp_id = node.vasp_id
        self._book = book
        self._rng = rng
        self.records: dict[bytes, TravelRuleRecord] = {}
        self._records_by_binding: dict[bytes, list[bytes]] = {}
        self._pending: dict[bytes, PendingTransfer] = {}
        self._handled_notices: set[bytes] = set()

    def screen_suspect(self, party_refs: Iterable[bytes | str]) -> bool:
        """True iff none of the given refs is on the node's suspect list."""
        return self._node.suspect_list.isdisjoint(party_refs)

    # -- originator side ---------------------------------------------------------------

    def initiate_transfer(
        self, account_id: str, target: TransferTarget, amount: int, asset_type: str
    ) -> TransferOutcome:
        """Run the pre-transfer checks and send the off-chain notice. Any
        failing check denies the transfer with nothing broadcast. The
        outcome stays pending until the ack arrives or times out."""
        if amount <= 0:
            raise ValueError("amount must be positive")
        now = self._env.now
        account = self._book.accounts[account_id]
        self._env.log(self._vasp_id, "transfer_initiated", account=account_id,
                      amount=amount, asset=asset_type)
        checked = self._check_entries([(account, target)], now)
        if isinstance(checked, TransferOutcome):
            return checked
        (resolved,) = checked

        try:
            disclosure = self._book.disclose(account.subject_id,
                                             self._book.subject_certificate(account),
                                             account.attributes)
        except AssertionServiceError as exc:
            return self._deny(DenialCode.CERT_INVALID, f"originator-customer:{exc}")

        tx = self._book.build_transfer_tx(account, resolved.certificate.subject_public_key,
                                          amount, asset_type)
        ref = BeneficiaryRef(resolved.certificate.public_key_hash, resolved.account_id)
        notice = self._build_notice(resolved.home_vasp_id, disclosure, ref, asset_type, amount,
                                    now, tx.tx_id, None)
        return self._dispatch_notice(notice, tx, resolved, (account_id,), now)

    def initiate_batch_transfer(
        self, requests: Sequence[tuple[str, TransferTarget, int]], asset_type: str
    ) -> TransferOutcome:
        """Run the pre-transfer checks over every (account, target, amount)
        request, then send one notice listing the entries, for one
        transaction of their sum from this VASP's pool to the beneficiary
        VASP. Every account must be commingled and every amount positive."""
        if not requests:
            raise ValueError("batch requires at least one request")
        accounts = [self._book.accounts[account_id] for account_id, _, _ in requests]
        if any(amount <= 0 for _, _, amount in requests):
            raise ValueError("amount must be positive")
        if any(account.custody_model is not CustodyModel.COMMINGLED for account in accounts):
            raise ModelKeyMismatch("batched originators must be commingled accounts")
        now = self._env.now
        total = sum(amount for _, _, amount in requests)
        self._env.log(self._vasp_id, "transfer_initiated", batch=len(requests), amount=total,
                      asset=asset_type)
        checked = self._check_entries(
            [(account, target) for account, (_, target, _) in zip(accounts, requests)], now)
        if isinstance(checked, TransferOutcome):
            return checked

        home = checked[0]
        home_cert = home.home_vasp_certificate
        tx = self._book.build_transfer_tx(None, home_cert.subject_public_key, total, asset_type)
        disclosure = self._book.pool_disclosure()
        entries = tuple(
            (BeneficiaryRef(resolved.certificate.public_key_hash, resolved.account_id), amount)
            for resolved, (_, _, amount) in zip(checked, requests)
        )
        pool = BeneficiaryRef(home_cert.public_key_hash, f"{home.home_vasp_id}/pool")
        notice = self._build_notice(home.home_vasp_id, disclosure, pool, asset_type, total, now,
                                    tx.tx_id, entries)
        account_ids = tuple(account_id for account_id, _, _ in requests)
        return self._dispatch_notice(notice, tx, home, account_ids, now)

    def _check_entries(
        self, entries: Sequence[tuple[Account, TransferTarget]], now: int
    ) -> list[ResolvedBeneficiary] | TransferOutcome:
        """The pre-transfer checks, over each (originator account, target)
        entry of a transfer: screen the parties, resolve each beneficiary,
        screen each resolved one, then validate each entry's four
        certificates. Returns the resolved beneficiaries, one per entry, or
        the denied outcome of the first check that fails; raises
        MixedDestination when they have different home VASPs."""
        refs: list[bytes | str] = []
        for account, target in entries:
            refs += self._account_refs(account) + self._target_refs(target)
        if not self.screen_suspect(refs):
            return self._deny(DenialCode.SUSPECT_PARTY, "screening")

        resolved_all: list[ResolvedBeneficiary] = []
        for _, target in entries:
            resolved = self._node.resolve_beneficiary(target, now)
            if (resolved is None or resolved.home_vasp_id is None
                    or resolved.home_vasp_certificate is None):
                return self._deny(DenialCode.BENEFICIARY_UNRESOLVED)
            resolved_all.append(resolved)
        homes = {resolved.home_vasp_id for resolved in resolved_all}
        if len(homes) != 1:
            raise MixedDestination(",".join(sorted(homes)))

        for resolved in resolved_all:
            ben_refs: list[bytes | str] = [resolved.certificate.public_key_hash]
            if resolved.account_id:
                ben_refs.append(resolved.account_id)
            if not self.screen_suspect(ben_refs):
                return self._deny(DenialCode.SUSPECT_PARTY, "beneficiary")

        for (account, _), resolved in zip(entries, resolved_all):
            origin_cert = self._book.subject_certificate(account)
            if origin_cert is None:
                return self._deny(DenialCode.NO_ORIGINATOR_CERT)
            failure = self._validate_transfer_certificates(origin_cert, resolved)
            if failure is not None:
                return self._deny(DenialCode.CERT_INVALID, failure)
        return resolved_all

    def _dispatch_notice(self, notice: TransferNotice, tx: ChainTransaction,
                         resolved: ResolvedBeneficiary, account_ids: tuple[str, ...],
                         now: int) -> TransferOutcome:
        """Open the originator record and send the notice, its ack due within
        ``ACK_TIMEOUT``."""
        outcome = TransferOutcome(self._open_record(RecordRole.ORIGINATOR_SIDE, notice, now,
                                                    account_ids))
        self._pending[notice.notice_id] = PendingTransfer(outcome, tx, resolved, now + ACK_TIMEOUT)
        self._env.send(self._vasp_id, notice.beneficiary_vasp_id, "transfer_notice", notice)
        self._env.log(self._vasp_id, "notice_sent", notice=notice.notice_id.hex(),
                      beneficiary=notice.beneficiary_vasp_id,
                      binding=notice.intended_chain_tx_binding.hex())
        return outcome

    def _open_record(
        self, role: RecordRole, notice: TransferNotice, now: int, account_ids: tuple[str, ...],
        ack: Optional[TransferAck] = None,
    ) -> TravelRuleRecord:
        """Draw a record id; store the notice's record and file it under the
        notice's binding. It opens pending the ack, or, on the beneficiary
        side, with the accepting ack sent, pending the chain."""
        record = TravelRuleRecord(
            record_id=fresh_id(self._rng, RECORD_ID_LEN), role=role, notice=notice, ack=ack,
            status=RecordStatus.PENDING_ACK if ack is None else RecordStatus.PENDING_CHAIN,
            failure_reason=None, created_at=now, updated_at=now, account_ids=account_ids,
        )
        self.records[record.record_id] = record
        self._file_record(notice.intended_chain_tx_binding, record)
        return record

    def _file_record(self, tx_id: bytes, record: TravelRuleRecord) -> None:
        """File a record under a tx id; its confirmation is then delivered here."""
        self._records_by_binding.setdefault(tx_id, []).append(record.record_id)
        self._env.watch(tx_id, self._vasp_id)

    def _deny(
        self, code: DenialCode, detail: str = "", outcome: Optional[TransferOutcome] = None
    ) -> TransferOutcome:
        """Deny ``outcome``; by default a new one, of a transfer whose notice
        never went out."""
        if outcome is None:
            outcome = TransferOutcome()
        outcome.denial = DenialReason(code, detail)
        self._env.log(self._vasp_id, "transfer_denied", reason=code.value, detail=detail)
        return outcome

    def _account_refs(self, account: Account) -> list[bytes | str]:
        return [ref for ref in (account.account_id, account.customer_public_key_hash)
                if ref is not None]

    def _target_refs(self, target: TransferTarget) -> list[bytes | str]:
        return [ref for ref in (target.key_hash, target.account_id) if ref is not None]

    def _validate_transfer_certificates(self, origin_cert: Certificate,
                                        resolved: ResolvedBeneficiary) -> Optional[str]:
        """Validate the four certificates of the transfer; None means all valid."""
        checks = [
            ("originator-customer", origin_cert),
            ("originator-vasp", self._node.certificate),
            ("beneficiary-vasp", resolved.home_vasp_certificate),
            ("beneficiary-customer", resolved.certificate),
        ]
        for which, cert in checks:
            if cert is None:
                return which
            result = self._node.validate(cert)
            if not result.ok:
                return f"{which}:{result.status.value}"
        if resolved.revoked:
            return "beneficiary-customer:revoked"
        return None

    def _build_notice(
        self, beneficiary_vasp_id: str, disclosure: Disclosure, ref: BeneficiaryRef,
        asset_type: str, amount: int, now: int, binding: bytes,
        batch_entries: Optional[tuple[tuple[BeneficiaryRef, int], ...]],
    ) -> TransferNotice:
        return self._node.seal(TransferNotice(
            notice_id=fresh_id(self._rng, NOTICE_ID_LEN), originator_vasp_id=self._vasp_id,
            beneficiary_vasp_id=beneficiary_vasp_id, originator_disclosure=disclosure,
            beneficiary_ref=ref, asset_type=asset_type, amount=amount, execution_tick=now,
            intended_chain_tx_binding=binding, batch_entries=batch_entries,
        ))

    # -- beneficiary side --------------------------------------------------------

    def handle_transfer_notice(self, notice: TransferNotice, src: str) -> Optional[TransferAck]:
        """Validate an incoming notice and answer with a signed ack. Bad
        signatures are dropped (logged) rather than rejected, since the
        sender cannot be authenticated."""
        now = self._env.now
        originator_cert = self._node.peer_certificate(notice.originator_vasp_id)
        if originator_cert is None or not crypto.check(originator_cert.subject_public_key, notice):
            self._env.log(self._vasp_id, "notice_dropped",
                          origin=notice.originator_vasp_id, reason="bad-signature")
            return None
        # Deduplicate only after authenticating, so a forged notice reusing a
        # genuine id cannot suppress the genuine one.
        if notice.notice_id in self._handled_notices:
            return None
        self._handled_notices.add(notice.notice_id)
        originator_check = self._node.validate(originator_cert)
        if not originator_check.ok:
            return self._reject_notice(notice, RejectReason.CERT_INVALID)

        accounts = []
        for ref in notice.all_refs():
            account = self._account_for_ref(ref)
            if account is None:
                return self._reject_notice(notice, RejectReason.UNKNOWN_BENEFICIARY)
            accounts.append(account)

        for account in accounts:
            if not self.screen_suspect(self._account_refs(account)):
                return self._reject_notice(notice, RejectReason.SUSPECT_PARTY)
        if not self.screen_suspect([notice.originator_vasp_id]):
            return self._reject_notice(notice, RejectReason.SUSPECT_PARTY)

        for account in accounts:
            cert = self._book.subject_certificate(account)
            if cert is None or not self._node.validate(cert).ok:
                return self._reject_notice(notice, RejectReason.CERT_INVALID)

        if not self._notice_disclosure_acceptable(notice):
            return self._reject_notice(notice, RejectReason.POLICY_REFUSAL)

        if notice.batch_entries is not None:
            disclosure = self._book.pool_disclosure()
        else:
            disclosure = self._book.customer_disclosure(accounts[0])
            if disclosure is None:
                return self._reject_notice(notice, RejectReason.CERT_INVALID)

        ack = self._signed_ack(notice.notice_id, AckDecision.ACCEPT, None, disclosure)
        self._open_record(RecordRole.BENEFICIARY_SIDE, notice, now,
                          tuple(a.account_id for a in accounts), ack)
        self._env.send(self._vasp_id, notice.originator_vasp_id, "transfer_ack", ack)
        self._env.log(self._vasp_id, "ack_sent", notice=notice.notice_id.hex(),
                      decision="accept",
                      binding=notice.intended_chain_tx_binding.hex())
        return ack

    def _account_for_ref(self, ref: BeneficiaryRef) -> Optional[Account]:
        if ref.account_id is not None:
            account = self._book.accounts.get(ref.account_id)
            if account is not None:
                return account
        return self._book.by_key_hash(ref.public_key_hash)

    def _notice_disclosure_acceptable(self, notice: TransferNotice) -> bool:
        """The notice's disclosure, covered by the notice's signature, meets
        the travel-rule core and links to the certificate held here for the
        key it discloses, if one is."""
        disclosure = notice.originator_disclosure
        missing = REQUIRED_TRAVEL_RULE_CORE.difference(disclosure.attributes)
        if missing:
            self._env.log(self._vasp_id, "policy_refusal",
                          missing=",".join(sorted(missing)))
            return False
        # Certificate-link check is best effort: enforceable only when the
        # linked subject certificate is locally resolvable.
        subject_hash = disclosure.attributes.get("public_key_hash")
        if subject_hash:
            try:
                key_hash = bytes.fromhex(subject_hash)
            except ValueError:
                return False
            local = self._book.by_key_hash(key_hash)
            if local is not None:
                cert = local.certificate
                if cert is not None and disclosure.linked_certificate_hash != cert.fingerprint():
                    return False
        return True

    def _reject_notice(self, notice: TransferNotice, reason: RejectReason) -> TransferAck:
        ack = self._signed_ack(notice.notice_id, AckDecision.REJECT, reason, None)
        self._env.send(self._vasp_id, notice.originator_vasp_id, "transfer_ack", ack)
        self._env.log(self._vasp_id, "ack_sent", notice=notice.notice_id.hex(),
                      decision="reject", reason=reason.value)
        return ack

    def _signed_ack(self, notice_id: bytes, decision: AckDecision, reason: Optional[RejectReason],
                    disclosure: Optional[Disclosure]) -> TransferAck:
        return self._node.seal(TransferAck(notice_id, decision, reason, disclosure))

    # -- ack handling and on-chain execution ----------------------------------------

    def on_transfer_ack(self, ack: TransferAck, src: str) -> None:
        now = self._env.now
        pending = self._pending.get(ack.notice_id)
        if pending is None:
            self._env.log(self._vasp_id, "ack_ignored", notice=ack.notice_id.hex())
            return
        home_cert = pending.resolved.home_vasp_certificate
        if home_cert is None or not crypto.check(home_cert.subject_public_key, ack):
            self._env.log(self._vasp_id, "ack_dropped", notice=ack.notice_id.hex(),
                          reason="bad-signature")
            return
        del self._pending[ack.notice_id]
        record = pending.outcome.record
        record.ack = ack
        self._env.log(self._vasp_id, "ack_received", notice=ack.notice_id.hex(),
                      decision=ack.decision.value,
                      binding=record.notice.intended_chain_tx_binding.hex())

        if ack.decision is AckDecision.REJECT:
            reason = ack.reject_reason.value if ack.reject_reason else "unspecified"
            return self._fail(pending, now, DenialCode.ACK_REJECTED, reason)
        if not self._accept_disclosure_valid(ack, pending):
            return self._fail(pending, now, DenialCode.ACK_REJECTED, "invalid-disclosure")
        result = self._env.submit_tx(self._vasp_id, pending.prepared_tx)
        if not result.accepted:
            self._env.log(self._vasp_id, "chain_reject", reason=result.reason or "")
            return self._fail(pending, now, DenialCode.CHAIN_REJECTED)
        record.advance(RecordStatus.PENDING_CHAIN, now)

    def _accept_disclosure_valid(self, ack: TransferAck, pending: PendingTransfer) -> bool:
        """The accepting ack, whose signature ``on_transfer_ack`` checked,
        discloses the beneficiary: its disclosure links to the resolved
        certificate (the beneficiary VASP's own for a batch), and the
        beneficiary VASP's certificate still validates."""
        if ack.beneficiary_disclosure is None:
            return False
        home_cert = pending.resolved.home_vasp_certificate
        batch = pending.outcome.record.notice.batch_entries is not None
        subject_cert = home_cert if batch else pending.resolved.certificate
        if home_cert is None or subject_cert is None:
            return False
        if ack.beneficiary_disclosure.linked_certificate_hash != subject_cert.fingerprint():
            return False
        return self._node.validate(home_cert).ok

    def sweep_ack_timeouts(self, now: int) -> None:
        for notice_id in sorted(self._pending):
            pending = self._pending[notice_id]
            if now < pending.deadline:
                continue
            del self._pending[notice_id]
            self._fail(pending, now, DenialCode.CHANNEL_TIMEOUT)

    def _fail(self, pending: PendingTransfer, now: int, code: DenialCode, detail: str = "") -> None:
        """The one way an originator transfer fails after its notice went
        out: its record fails with the reason its outcome is denied for."""
        pending.outcome.record.advance(RecordStatus.FAILED, now,
                                       f"{code.value}:{detail}" if detail else code.value)
        self._deny(code, detail, pending.outcome)

    # -- confirmations, reconciliation, audit ---------------------------------------

    def on_chain_confirmation(self, tx: ChainTransaction) -> None:
        """Advance records whose binding digest matches the confirmed tx."""
        now = self._env.now
        tx_id = tx.tx_id
        record_ids = self._records_by_binding.get(tx_id)
        if record_ids is None:
            keys = self._node.known_keys()
            if tx.from_public_key in keys or tx.to_public_key in keys:
                self._env.log(self._vasp_id, "confirmation_unmatched", tx=tx_id.hex())
            return
        for record_id in record_ids:
            record = self.records[record_id]
            if record.status is not RecordStatus.PENDING_CHAIN:
                continue
            if record.notice.intended_chain_tx_binding != tx_id:
                record.advance(RecordStatus.FAILED, now, "BindingMismatch")
                self._env.log(self._vasp_id, "record_failed", record=record_id.hex(),
                              reason="BindingMismatch")
                continue
            record.advance(RecordStatus.CONFIRMED, now)
            self._env.log(self._vasp_id, "record_confirmed", record=record_id.hex(),
                          role=record.role.value, tx=tx_id.hex())

    def reconcile(self) -> ReconciliationReport:
        """Cross-join local records against ledger entries touching our keys,
        read from the chain's index by key."""
        confirmed_bindings = {
            record.notice.intended_chain_tx_binding for record in self.records.values()
            if record.status is RecordStatus.CONFIRMED
        }
        orphans = []
        matched = 0
        for tx, _tick in self._env.chain.confirmed_transactions_of(self._node.known_keys()):
            if tx.tx_id in confirmed_bindings:
                matched += 1
            else:
                orphans.append(tx.tx_id)
        open_statuses = (RecordStatus.PENDING_ACK, RecordStatus.PENDING_CHAIN)
        unconfirmed = [record_id for record_id in sorted(self.records)
                       if self.records[record_id].status in open_statuses]
        return ReconciliationReport(matched=matched, orphan_chain_txs=tuple(orphans),
                                    unconfirmed_records=tuple(unconfirmed))

    def audit_travel_rule(self) -> AuditReport:
        """Check every confirmed record for the travel-rule evidence set."""
        violations: list[tuple[str, str]] = []
        checked = 0
        for record_id in sorted(self.records):
            record = self.records[record_id]
            if record.status is not RecordStatus.CONFIRMED:
                continue
            checked += 1
            rid = record_id.hex()
            notice = record.notice
            if notice.originator_disclosure is None:
                violations.append((rid, "originator_disclosure"))
            elif len(notice.originator_disclosure.linked_certificate_hash) != crypto.HASH_LEN:
                violations.append((rid, "originator_key_ownership_evidence"))
            if record.ack is None or record.ack.beneficiary_disclosure is None:
                violations.append((rid, "beneficiary_disclosure"))
            elif len(record.ack.beneficiary_disclosure.linked_certificate_hash) != crypto.HASH_LEN:
                violations.append((rid, "beneficiary_key_ownership_evidence"))
            if notice.amount <= 0:
                violations.append((rid, "amount"))
            if notice.execution_tick is None:
                violations.append((rid, "execution_tick"))
            if not notice.originator_vasp_id or not notice.beneficiary_vasp_id:
                violations.append((rid, "vasp_identities"))
            for account_id in record.account_ids:
                account = self._book.accounts.get(account_id)
                if account is None:
                    violations.append((rid, f"account:{account_id}"))
                    continue
                if account.custody_model is CustodyModel.COMMINGLED:
                    continue
                if account.key_ownership_evidence is None:
                    violations.append((rid, f"key_ownership_evidence:{account_id}"))
        return AuditReport(records_checked=checked, violations=tuple(violations))
