"""The VASP state machine.

A node keeps customer accounts under three custody models, resolves
beneficiaries through its CA, its trust networks, and cross-network routes,
runs the pre-transfer validation pipeline, exchanges off-chain transfer
notices and acks, executes on-chain per custody model (including commingled
batches), and supports reconciliation and travel-rule audit.

Each node is one logical actor: the harness delivers one message at a time
and all handlers are deterministic in (state, message, tick).
"""

from __future__ import annotations

import enum
import random
from collections import defaultdict
from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping, Optional, Sequence

from . import crypto
from .assertions import (
    AssertionServiceError,
    AttributeAssertion,
    HeldDisclosure,
    TRAVEL_RULE_POLICY,
    issue_assertion,
    require_valid_subject,
    verify_assertion,
)
from .ca import (
    Certificate,
    CertificateAuthority,
    CertClass,
    CertStatus,
    Crl,
    DEFAULT_PROFILE,
    RevocationView,
    ValidationResult,
    ValidationStatus,
    validate_certificate,
)
from .chain import ChainTransaction, build_transaction
from .crypto import KeyPair, canonical_encode, digest, enc_str, enc_u64
from .network import (
    AdjRibOut,
    ApplyResult,
    DirectoryAnnounce,
    DirectoryDelta,
    DirectoryEntry,
    DirectorySnapshot,
    DirectoryView,
    OperatingRules,
    PeeringLink,
    QueryResponse,
    ReachabilityAdvertisement,
    RouteDigest,
    Routes,
    TrustNetwork,
    apply_delta,
    build_advertisement,
    heartbeat_partner,
    process_advertisement,
    query_certificate,
    route_cross_network_query,
)

NOTICE_ID_LEN = 16
RECORD_ID_LEN = 16


class VaspError(Exception):
    pass


class ModelKeyMismatch(VaspError):
    pass


class NoCustomerKey(VaspError):
    pass


class KeyUnavailable(VaspError):
    pass


class MixedDestination(VaspError):
    pass


class CustodyModel(enum.Enum):
    MEDIATED = "mediated"
    KEY_CUSTODY = "key-custody"
    COMMINGLED = "commingled"


@dataclass(frozen=True)
class KeyOperatorEvidence:
    """Evidence that this VASP legally operates the customer's keys."""

    operator_vasp_id: str
    custody_agreement_id: str
    since_tick: int


# The fields ``Account.check_invariants`` reads.
ACCOUNT_KEY_FIELDS = frozenset((
    "custody_model", "customer_public_key", "custodied_private_key", "key_operator_evidence",
))


@dataclass(slots=True)
class Account:
    """One customer account.

    Its key invariant (``check_invariants``) is checked when the account
    opens, and by its node's per-tick sweep after each write to one of
    ``ACCOUNT_KEY_FIELDS``: every such write, those in ``__init__``
    included, files the account id in ``key_writes``, the node's set,
    through the field's ``_key_field`` descriptor.
    """

    # Declared first, so it is assigned in ``__init__`` before the key
    # fields, whose assignments file the new account.
    key_writes: Optional[set[str]] = field(default=None, kw_only=True, repr=False, compare=False)
    account_id: str
    subject_id: str
    attributes: dict[str, str]
    custody_model: CustodyModel
    customer_public_key: Optional[bytes] = None
    custodied_private_key: Optional[bytes] = None
    certificate: Optional[Certificate] = None
    key_ownership_evidence: Optional[bytes] = None
    key_operator_evidence: Optional[KeyOperatorEvidence] = None
    customer_public_key_hash: Optional[bytes] = field(init=False)

    def __post_init__(self) -> None:
        key = self.customer_public_key
        self.customer_public_key_hash = digest(key) if key is not None else None

    @property
    def certificate_serial(self) -> Optional[bytes]:
        return self.certificate.serial if self.certificate is not None else None

    def check_invariants(self) -> None:
        """Raise ``ModelKeyMismatch`` naming the rule of this account's
        custody model that its key fields break."""
        if self.custody_model is CustodyModel.MEDIATED:
            if self.customer_public_key is None or self.custodied_private_key is not None:
                raise ModelKeyMismatch("mediated accounts hold the public key only")
        elif self.custody_model is CustodyModel.KEY_CUSTODY:
            if self.customer_public_key is None or self.custodied_private_key is None:
                raise ModelKeyMismatch("key-custody accounts hold both keys")
            if self.key_operator_evidence is None:
                raise ModelKeyMismatch("key-custody accounts carry operator evidence")
        else:
            if self.customer_public_key is not None or self.custodied_private_key is not None:
                raise ModelKeyMismatch("commingled accounts store no customer keys")


def _key_field(slot) -> property:
    """Data descriptor over the slot of one of ``ACCOUNT_KEY_FIELDS``: reads
    go to the slot in C, and a write also files the account in its
    ``key_writes``."""

    def write(account: Account, value) -> None:
        slot.__set__(account, value)
        if account.key_writes is not None:
            account.key_writes.add(account.account_id)

    return property(slot.__get__, write)


for _name in ACCOUNT_KEY_FIELDS:
    setattr(Account, _name, _key_field(getattr(Account, _name)))
del _name


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
class TransferTarget:
    """Pre-resolution reference to a beneficiary."""

    kind: str
    public_key: Optional[bytes] = None
    key_hash: Optional[bytes] = None
    vasp_id: Optional[str] = None
    account_id: Optional[str] = None

    @classmethod
    def from_public_key(cls, public_key: bytes) -> "TransferTarget":
        return cls(kind="public_key", public_key=public_key, key_hash=digest(public_key))

    @classmethod
    def from_key_hash(cls, key_hash: bytes) -> "TransferTarget":
        return cls(kind="key_hash", key_hash=key_hash)

    @classmethod
    def from_account(cls, vasp_id: str, account_id: str) -> "TransferTarget":
        return cls(kind="account", vasp_id=vasp_id, account_id=account_id)


@dataclass(frozen=True)
class TransferNotice(crypto.Signed):
    notice_id: bytes
    originator_vasp_id: str
    beneficiary_vasp_id: str
    originator_assertion: AttributeAssertion
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
            (4, self.originator_assertion.to_bytes()),
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
    beneficiary_assertion: Optional[AttributeAssertion]
    signature: bytes = b""

    def tlv_fields(self) -> list[tuple[int, bytes]]:
        fields: list[tuple[int, bytes]] = [
            (1, self.notice_id),
            (2, enc_str(self.decision.value)),
        ]
        if self.reject_reason is not None:
            fields.append((3, enc_str(self.reject_reason.value)))
        if self.beneficiary_assertion is not None:
            fields.append((4, self.beneficiary_assertion.to_bytes()))
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
    table, ``VaspNode._open_record`` its entry edge and ``VaspNode._fail``
    the originator's failure edge once the notice went out."""

    record_id: bytes
    role: RecordRole
    notice: TransferNotice
    ack: Optional[TransferAck]
    chain_tx_id: Optional[bytes]
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

    def __str__(self) -> str:
        return f"{self.code.value}({self.detail})" if self.detail else self.code.value


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
    def chain_tx_id(self) -> Optional[bytes]:
        return self.record.chain_tx_id if self.record is not None else None

    @property
    def record_id(self) -> Optional[bytes]:
        return self.record.record_id if self.record is not None else None


@dataclass(frozen=True)
class ResolvedBeneficiary:
    certificate: Certificate
    home_vasp_id: Optional[str]
    home_vasp_certificate: Optional[Certificate]
    resolution_path: tuple[str, ...]
    account_id: Optional[str] = None
    custody_model: Optional[str] = None
    attributes: Optional[Mapping[str, str]] = None
    assertion: Optional[AttributeAssertion] = None
    revoked: bool = False


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


class VaspNode:
    def __init__(
        self,
        vasp_id: str,
        keypair: KeyPair,
        ca: CertificateAuthority,
        rng: random.Random,
        env,
        chain_id: str = "simchain",
    ) -> None:
        self.vasp_id = vasp_id
        self._keypair = keypair
        self.ca = ca
        self._rng = rng
        self.env = env
        self.chain_id = chain_id
        self.disclosure_policy = TRAVEL_RULE_POLICY

        self.certificate: Optional[Certificate] = None
        self.accounts: dict[str, Account] = {}
        # Ids of the accounts whose key fields were written since the last
        # sweep (filed by ``_key_field``), and of those failing now.
        self._key_writes: set[str] = set()
        self._failing_accounts: set[str] = set()
        self._wallets: dict[str, KeyPair] = {}
        self._accounts_by_key_hash: dict[bytes, str] = {}
        self._known_keys: frozenset[bytes] = frozenset((keypair.public_key,))
        env.watch(keypair.public_key, vasp_id)
        # Blocked public-key hashes and account ids.
        self.suspect_list: set[bytes | str] = set()
        self.revocation = RevocationView()
        # CA id -> root certificate; filled once, when the harness builds
        # the node.
        self.trust_anchors: dict[str, Certificate] = {}
        self.memberships: dict[str, TrustNetwork] = {}
        # Publisher id -> its directory as held here, from version 0.
        self.directory_views: defaultdict[str, DirectoryView] = defaultdict(DirectoryView)
        self.records: dict[bytes, TravelRuleRecord] = {}
        self._records_by_binding: dict[bytes, list[bytes]] = {}
        self._pending: dict[bytes, PendingTransfer] = {}
        self._handled_notices: set[bytes] = set()
        # Subject id -> the last disclosure signed about it (``_disclosure``).
        self._held_disclosures: dict[str, HeldDisclosure] = {}
        # Each account's current customer certificate, revoked ones included:
        # (issuer, serial) -> (entry, not-after).
        self._certified: dict[tuple[str, bytes], tuple[DirectoryEntry, int]] = {}
        # ``directory_entries`` at any tick of [_live_from, _live_until];
        # None after enrolment or an applied CRL merge.
        self._live_entries: Optional[frozenset[DirectoryEntry]] = None
        self._live_from = self._live_until = 0.0
        # Network id -> (member entry sets summarised, advertisement), the
        # advertisement unsigned until first sent (``_advertise_own``).
        self._advertisements: dict[str, tuple[tuple, ReachabilityAdvertisement]] = {}
        # What this gateway advertises over each of its peering links, and
        # what it received over each, both empty at first.
        self._adj_rib_out: defaultdict[PeeringLink, AdjRibOut] = defaultdict(AdjRibOut)
        self.adj_rib_in: defaultdict[PeeringLink, Routes] = defaultdict(Routes)
        # Version 0, the empty directory, is never signed or sent.
        self._last_snapshot = DirectorySnapshot(vasp_id, 0, frozenset())
        # Network id -> the signed heartbeat last built for it; rebuilt when
        # its content would change.
        self._announces: dict[str, DirectoryAnnounce] = {}
        # (network id, member id) -> the heartbeat last sent to that member.
        self._announced: dict[tuple[str, str], DirectoryAnnounce] = {}
        # Member id -> member id -> the view version that member's verified
        # heartbeats last listed, its own directory's included.
        self._listed: defaultdict[str, dict[str, int]] = defaultdict(dict)

    # -- identity and membership --------------------------------------------

    @property
    def public_key(self) -> bytes:
        return self._keypair.public_key

    @property
    def public_key_hash(self) -> bytes:
        return self._keypair.public_key_hash

    def seal(self, unsigned: crypto.S) -> crypto.S:
        """``unsigned`` signed with this node's key (``crypto.seal``)."""
        return crypto.seal(self._keypair, unsigned)

    def enroll_vasp_certificate(
        self,
        attributes: Mapping[str, str],
        now: int,
        validity_ticks: int,
        requested_class: CertClass = CertClass.CLASS3,
    ) -> Certificate:
        """Obtain this VASP's own certificate from the affiliated CA."""
        registration = self.ca.register_subject(self.vasp_id, attributes, requested_class, now)
        cert = self.ca.issue_certificate(
            registration, self._keypair.public_key, DEFAULT_PROFILE,
            now, now + validity_ticks, now,
        )
        self.certificate = cert
        return cert

    def join(self, network: TrustNetwork, now: int):
        if self.certificate is None:
            raise VaspError("VASP certificate required before joining a network")
        record = network.join_network(
            self.certificate, network.rules.rules_version, now, self.revocation
        )
        self.memberships[network.network_id] = network
        return record

    def networks_sorted(self) -> list[TrustNetwork]:
        return [self.memberships[nid] for nid in sorted(self.memberships)]

    def co_member_ids(self) -> list[str]:
        ids: set[str] = set()
        for network in self.memberships.values():
            ids.update(network.members)
        ids.discard(self.vasp_id)
        return sorted(ids)

    def member_certificate(self, vasp_id: str) -> Optional[Certificate]:
        for network in self.networks_sorted():
            record = network.members.get(vasp_id)
            if record is not None:
                return record.vasp_certificate
        return None

    def peer_certificate(self, vasp_id: str) -> Optional[Certificate]:
        """Peer VASP certificate: from shared membership, else fetched over the
        pair-wise channel (certificate exchange at channel setup). The one
        place a node takes another VASP's certificate from."""
        if vasp_id == self.vasp_id:
            return self.certificate
        cert = self.member_certificate(vasp_id)
        if cert is not None:
            return cert
        if self.env.link_ok(self.vasp_id, vasp_id):
            peer = self.env.node(vasp_id)
            if peer is not None:
                return peer.certificate
        return None

    def validate(self, cert: Certificate, chain_id: Optional[str] = None) -> ValidationResult:
        """``cert`` checked against this node's trust anchors and revocation
        view at the current tick, for ``chain_id`` if given."""
        return validate_certificate(
            cert, self.trust_anchors, self.env.now, self.revocation, chain_id
        )

    def _fresh_id(self, length: int = NOTICE_ID_LEN) -> bytes:
        return self._rng.getrandbits(length * 8).to_bytes(length, "big")

    def vasp_attributes(self) -> dict[str, str]:
        """Identity attributes this VASP asserts about itself (pool transfers)."""
        return {
            "name": self.vasp_id,
            "vasp_id": self.vasp_id,
            "account_id": f"{self.vasp_id}/pool",
            "public_key_hash": self.public_key_hash.hex(),
            "custody_model": CustodyModel.COMMINGLED.value,
        }

    # -- accounts -------------------------------------------------------------

    def open_account(
        self,
        subject_id: str,
        attributes: Mapping[str, str],
        custody_model: CustodyModel,
        customer_public_key: Optional[bytes] = None,
        customer_wallet: Optional[KeyPair] = None,
        account_id: Optional[str] = None,
        now: int = 0,
    ) -> Account:
        """Open an account with the key arrangement its custody model demands.

        Mediated accounts carry the customer's public key (the wallet stays
        with the customer; in simulation it is co-located with this node).
        Key-custody accounts get a VASP-generated keypair held in custody.
        Commingled accounts store no customer keys at all.
        """
        if customer_wallet is not None:
            if customer_public_key is not None and customer_public_key != customer_wallet.public_key:
                raise ModelKeyMismatch("wallet and public key disagree")
            customer_public_key = customer_wallet.public_key
        account_id = account_id or f"acct-{self._fresh_id(8).hex()}"
        if account_id in self.accounts:
            raise VaspError(f"account {account_id} already exists")

        custodied_private: Optional[bytes] = None
        operator_evidence: Optional[KeyOperatorEvidence] = None
        if custody_model is CustodyModel.MEDIATED:
            if customer_public_key is None:
                raise ModelKeyMismatch("mediated accounts require the customer public key")
        elif custody_model is CustodyModel.KEY_CUSTODY:
            if customer_public_key is not None:
                raise ModelKeyMismatch("key-custody keys are generated by the VASP")
            generated = crypto.generate_keypair(self._rng.randbytes(32))
            customer_public_key = generated.public_key
            custodied_private = generated.private_key
            operator_evidence = KeyOperatorEvidence(
                operator_vasp_id=self.vasp_id,
                custody_agreement_id=f"custody/{self.vasp_id}/{account_id}",
                since_tick=now,
            )
        else:
            if customer_public_key is not None:
                raise ModelKeyMismatch("commingled accounts must not supply customer keys")

        merged = dict(attributes)
        merged.setdefault("account_id", account_id)
        merged.setdefault("vasp_id", self.vasp_id)
        merged.setdefault("custody_model", custody_model.value)
        # The on-chain key for the account: the customer's, or the VASP's own
        # for commingled pools.
        onchain_key = customer_public_key or self._keypair.public_key
        merged.setdefault("public_key_hash", digest(onchain_key).hex())

        account = Account(
            account_id=account_id,
            subject_id=subject_id,
            attributes=merged,
            custody_model=custody_model,
            customer_public_key=customer_public_key,
            custodied_private_key=custodied_private,
            key_operator_evidence=operator_evidence,
            key_writes=self._key_writes,
        )
        account.check_invariants()
        self.accounts[account_id] = account
        if customer_public_key is not None:
            self._accounts_by_key_hash[account.customer_public_key_hash] = account_id
            self._known_keys = self._known_keys | {customer_public_key}
            self.env.watch(customer_public_key, self.vasp_id)
        if customer_wallet is not None:
            self._wallets[account_id] = customer_wallet
        self.env.log(self.vasp_id, "account_opened",
                     account=account_id, model=custody_model.value)
        return account

    def enroll_customer_certificate(
        self,
        account_id: str,
        requested_class: CertClass,
        now: int,
        validity_ticks: int = 10_000,
    ) -> Certificate:
        """Register and certify the account's key at the affiliated CA."""
        account = self.accounts[account_id]
        if account.customer_public_key is None:
            raise NoCustomerKey(f"{account_id} is commingled; no customer key to certify")
        registration = self.ca.register_subject(
            account.subject_id, account.attributes, requested_class, now
        )
        cert = self.ca.issue_certificate(
            registration, account.customer_public_key, DEFAULT_PROFILE,
            now, now + validity_ticks, now,
        )
        previous = account.certificate
        if previous is not None:
            self._certified.pop((previous.issuer_id, previous.serial), None)
        self._certified[(cert.issuer_id, cert.serial)] = (
            DirectoryEntry(cert.serial, account.customer_public_key_hash, cert.issuer_id),
            cert.validity_not_after,
        )
        self._live_entries = None
        account.certificate = cert
        account.key_ownership_evidence = cert.fingerprint()
        self.env.log(self.vasp_id, "customer_enrolled",
                     account=account_id, serial=cert.serial_hex)
        return cert

    # -- suspect screening ----------------------------------------------------

    def screen_suspect(self, party_refs: Iterable[bytes | str]) -> bool:
        """True iff none of the given refs is on the suspect list."""
        return self.suspect_list.isdisjoint(party_refs)

    # -- directory gossip -----------------------------------------------------

    def directory_entries(self, now: int) -> frozenset[DirectoryEntry]:
        """Current live customer certificate entries (revoked/expired excluded).

        The set is kept between calls. Enrolment and an applied CRL merge
        reset it; it is rebuilt from the accounts' current certificates, less
        those the revocation view names, when ``now`` leaves the ticks it
        holds for, that is, when a certificate expires.
        """
        if self._live_entries is None or not self._live_from <= now <= self._live_until:
            live = []
            self._live_from, self._live_until = float("-inf"), float("inf")
            for (issuer_id, serial), (entry, not_after) in self._certified.items():
                if self.revocation.is_revoked(issuer_id, serial):
                    continue
                if now > not_after:
                    self._live_from = max(self._live_from, not_after + 1)
                else:
                    live.append(entry)
                    self._live_until = min(self._live_until, not_after)
            self._live_entries = frozenset(live)
        return self._live_entries

    def sync_directory(self, now: int) -> None:
        """One sync period: publish a new version if the live entries differ
        from the last published set, else heartbeat the current version
        (``announce_directory``). Every member starts from version 0 and its
        empty set, so a member that certifies no key never publishes."""
        entries = self.directory_entries(now)
        if entries != self._last_snapshot.entries:
            self.publish_directory(now, entries)
        else:
            self.announce_directory(now)

    def publish_directory(
        self, now: int, entries: Optional[frozenset[DirectoryEntry]] = None
    ) -> DirectorySnapshot:
        """Publish the next snapshot version and broadcast the delta to members.

        ``entries`` defaults to the current ``directory_entries(now)``. The
        snapshot stays unsigned until ``on_dir_pull`` first sends it.
        """
        if entries is None:
            entries = self.directory_entries(now)
        last = self._last_snapshot
        version = last.version + 1
        snapshot = DirectorySnapshot(self.vasp_id, version, entries)
        self._last_snapshot = snapshot
        self.directory_views[self.vasp_id].install_snapshot(snapshot)
        members = self.co_member_ids()
        if members:
            delta = self.seal(DirectoryDelta(
                owner_vasp_id=self.vasp_id,
                from_version=last.version,
                to_version=version,
                added=frozenset(entries - last.entries),
                removed=frozenset(last.entries - entries),
            ))
            for member_id in members:
                self.env.send(self.vasp_id, member_id, "dir_delta", delta)
        self.env.log(self.vasp_id, "directory_published",
                     version=version, entries=len(entries))
        return snapshot

    def on_dir_delta(self, delta: DirectoryDelta, src: str) -> None:
        if not self._signed_by_owner(delta):
            return
        view = self.directory_views[delta.owner_vasp_id]
        result = apply_delta(view, delta)
        if result is ApplyResult.RESYNC_REQUIRED:
            self.env.log(self.vasp_id, "directory_resync", owner=delta.owner_vasp_id,
                         held=view.version, offered=delta.to_version)
            self.env.send(self.vasp_id, delta.owner_vasp_id, "dir_pull", None)
        else:
            self.env.log(self.vasp_id, "directory_applied", owner=delta.owner_vasp_id,
                         version=view.version)

    def on_dir_pull(self, src: str) -> None:
        """Answer with the published snapshot, signed on its first pull."""
        snapshot = self._last_snapshot
        if not snapshot.version:
            return
        if not snapshot.signature:
            snapshot = self._last_snapshot = self.seal(snapshot)
        self.env.send(self.vasp_id, src, "dir_snapshot", snapshot)

    def announce_directory(self, now: int) -> None:
        """Heartbeat the current directory in each network to the network's
        ``heartbeat_partner`` for this sync period, unless the partner could
        not pull anything from it: its last verified heartbeat lists every
        version this one lists, at least, and this heartbeat already went
        to it. A receiver pulls only what it holds at a lower version and
        views install only forwards, so a skipped heartbeat would have made
        no one pull. Until its first publish a member heartbeats version 0
        and the digest of the empty set; a network with no one to send to
        gets none.

        After the last change each member sends its heartbeat to each
        partner once, as the rotation reaches it, and the network then
        falls silent. A member whose view was wiped lists a lower version
        than before, so its heartbeat changes and goes out the next period;
        the partner answers it at once (``on_dir_announce``) and the member
        pulls. That repairs the view within one sync period plus four
        message latencies: heartbeat, reply, pull and snapshot.
        """
        for network in self.networks_sorted():
            partner = heartbeat_partner(
                network, self.vasp_id, now // network.rules.directory_sync_period)
            if partner is None:
                continue
            heartbeat = self._heartbeat(network)
            listed = self._listed[partner]
            if self._announced.get((network.network_id, partner)) is heartbeat and all(
                listed.get(member_id, -1) >= version for member_id, version in heartbeat.listing()
            ):
                continue
            self._send_heartbeat(network.network_id, partner, heartbeat)

    def _heartbeat(self, network: TrustNetwork) -> DirectoryAnnounce:
        """This member's heartbeat for ``network``: built and signed when its
        content (version or the versions of the views held) changed, else
        the one held. It carries the digest of the published snapshot, which
        this member's own view holds and caches."""
        version = self._last_snapshot.version
        views = tuple(
            (member_id, self.directory_views[member_id].version)
            for member_id in network.member_ids() if member_id != self.vasp_id
        )
        held = self._announces.get(network.network_id)
        if held is None or (held.version, held.views) != (version, views):
            held = self._announces[network.network_id] = self.seal(DirectoryAnnounce(
                owner_vasp_id=self.vasp_id,
                version=version,
                entries_digest=self.directory_views[self.vasp_id].entries_digest(),
                views=views,
            ))
        return held

    def _send_heartbeat(
        self, network_id: str, member_id: str, heartbeat: DirectoryAnnounce
    ) -> None:
        self._announced[network_id, member_id] = heartbeat
        self.env.send(self.vasp_id, member_id, "dir_announce", heartbeat)

    def on_dir_announce(self, announce: DirectoryAnnounce, src: str) -> None:
        """Compare a verified heartbeat with what this node holds and pull
        what differs: the snapshot of its sender, or of the owner of any view
        it lists at a higher version than the one held here (never from the
        sender on the owner's behalf).

        The versions it lists replace those its sender listed before. A
        lower one means the sender lost state, so this node answers at once
        with its own heartbeat in each network both are members of."""
        if not self._signed_by_owner(announce):
            return
        owner = announce.owner_vasp_id
        listed = self._listed[owner]
        regressed = any(listed.get(member_id, version) > version
                        for member_id, version in announce.listing())
        listed.update(announce.listing())
        view = self.directory_views[owner]
        if view.version < announce.version or (
            view.version == announce.version and view.entries_digest() != announce.entries_digest
        ):
            self.env.send(self.vasp_id, owner, "dir_pull", None)
        for member_id, version in announce.views:
            if member_id != self.vasp_id and self.directory_views[member_id].version < version:
                self.env.send(self.vasp_id, member_id, "dir_pull", None)
        if regressed:
            for network in self.networks_sorted():
                if owner in network.members:
                    self._send_heartbeat(network.network_id, owner, self._heartbeat(network))

    def on_dir_snapshot(self, snapshot: DirectorySnapshot, src: str) -> None:
        if not self._signed_by_owner(snapshot):
            return
        view = self.directory_views[snapshot.owner_vasp_id]
        if view.install_snapshot(snapshot):
            self.env.log(self.vasp_id, "directory_applied", owner=snapshot.owner_vasp_id,
                         version=view.version)

    def _signed_by_owner(
        self, message: DirectoryDelta | DirectoryAnnounce | DirectorySnapshot
    ) -> bool:
        """Whether a directory message verifies under its owner's certificate,
        as held from a network both are members of; one that does not is
        logged as dropped."""
        cert = self.member_certificate(message.owner_vasp_id)
        if cert is not None and crypto.check(cert.subject_public_key, message):
            return True
        self.env.log(self.vasp_id, "gossip_dropped", owner=message.owner_vasp_id,
                     reason="bad-signature")
        return False

    def find_directory_owner(self, key_hash: bytes) -> Optional[str]:
        for owner_id in sorted(self.directory_views):
            if key_hash in self.directory_views[owner_id].key_hashes():
                return owner_id
        return None

    # -- revocation ---------------------------------------------------------------

    def ingest_crls(self, crls: Sequence[Crl]) -> None:
        """Merge issuer CRLs, fetched from their CAs, into the local view
        after checking each one's CA signature against this node's trust
        anchors. A CA hands out the same CRL until it revokes again; one
        already merged is skipped by its number, and only a merge that
        applies is logged. An applied merge resets the live entries, so the
        next sync publishes the removal of a newly revoked one; views held
        of other members are left as their owners published them."""
        applied = []
        for crl in crls:
            anchor = self.trust_anchors.get(crl.issuer_id)
            if anchor is None or not crypto.check(anchor.subject_public_key, crl):
                self.env.log(self.vasp_id, "crl_dropped", issuer=crl.issuer_id,
                             reason="bad-signature")
                continue
            if self.revocation.merge_crl(crl):
                applied.append(crl)
        if applied:
            self._live_entries = None
            for crl in applied:
                self.env.log(self.vasp_id, "crl_merged", issuer=crl.issuer_id,
                             number=crl.crl_number)

    # -- queries (synchronous, pair-wise channels) -------------------------------

    def respond_certificate_query(
        self, requester_id: str, key_hash: bytes, now: int
    ) -> Optional[QueryResponse]:
        account_id = self._accounts_by_key_hash.get(key_hash)
        return None if account_id is None else self._answer_query(self.accounts[account_id], now)

    def respond_account_query(
        self, requester_id: str, account_id: str, now: int
    ) -> Optional[QueryResponse]:
        account = self.accounts.get(account_id)
        return None if account is None else self._answer_query(account, now)

    def _answer_query(self, account: Account, now: int) -> Optional[QueryResponse]:
        """The account's subject certificate with a disclosure about it. A
        revoked certificate is answered "revoked" without one, an otherwise
        invalid one not at all; a commingled pool's answer, this VASP's own
        certificate, is not re-validated."""
        cert = self._subject_certificate(account)
        if cert is None or self.certificate is None:
            return None
        status = "ok"
        if account.custody_model is not CustodyModel.COMMINGLED:
            check = self.validate(cert)
            if check.status is ValidationStatus.REVOKED:
                status = "revoked"
            elif not check.ok:
                return None
        assertion = self._customer_assertion(account, now) if status == "ok" else None
        return QueryResponse(
            certificate=cert, assertion=assertion, responder_vasp_id=self.vasp_id,
            responder_certificate=self.certificate, status=status,
        )

    def _customer_assertion(self, account: Account, now: int) -> Optional[AttributeAssertion]:
        subject_cert = self._subject_certificate(account)
        if subject_cert is None:
            return None
        try:
            return self._disclosure(account.subject_id, subject_cert, account.attributes, now)
        except AssertionServiceError:
            return None

    # -- beneficiary resolution ---------------------------------------------------

    def resolve_beneficiary(self, target: TransferTarget, now: int) -> Optional[ResolvedBeneficiary]:
        """Resolve in fixed order: local cache, affiliated CA, trust-network
        directory, cross-network routed query."""
        resolved = self._resolve_local(target, now)
        if resolved is None and target.kind in ("public_key", "key_hash"):
            resolved = self._resolve_via_ca(target, now)
            if resolved is None:
                resolved = self._resolve_via_directory(target.key_hash, now)
            if resolved is None:
                resolved = self._resolve_cross_network(target.key_hash, now)
        if resolved is None and target.kind == "account":
            resolved = self._resolve_account_ref(target, now)
        if resolved is None:
            self.env.log(self.vasp_id, "resolve", outcome="unresolved",
                         kind=target.kind)
        else:
            self.env.log(self.vasp_id, "resolve", outcome="resolved",
                         kind=target.kind, hops=len(resolved.resolution_path) - 1,
                         path=">".join(resolved.resolution_path))
        return resolved

    def _resolve_local(self, target: TransferTarget, now: int) -> Optional[ResolvedBeneficiary]:
        if target.kind != "account":
            account_id = self._accounts_by_key_hash.get(target.key_hash or b"")
        elif target.vasp_id == self.vasp_id:
            account_id = target.account_id
        else:
            return None
        account = self.accounts.get(account_id or "")
        cert = self._subject_certificate(account) if account is not None else None
        if cert is None:
            return None
        return ResolvedBeneficiary(
            certificate=cert,
            home_vasp_id=self.vasp_id,
            home_vasp_certificate=self.certificate,
            resolution_path=(self.vasp_id,),
            account_id=account.account_id,
            custody_model=account.custody_model.value,
            attributes=dict(account.attributes),
        )

    def _resolve_via_ca(self, target: TransferTarget, now: int) -> Optional[ResolvedBeneficiary]:
        lookup = self.ca.find_certificate_by_key_hash(target.key_hash, now)
        if lookup is None:
            return None
        home_vasp_id = lookup.attributes.get("vasp_id")
        home_cert = self.peer_certificate(home_vasp_id) if home_vasp_id else None
        return ResolvedBeneficiary(
            certificate=lookup.certificate,
            home_vasp_id=home_vasp_id,
            home_vasp_certificate=home_cert,
            resolution_path=(self.vasp_id, self.ca.ca_id),
            attributes=dict(lookup.attributes),
            revoked=lookup.status is CertStatus.REVOKED,
        )

    def _resolve_via_directory(self, key_hash: bytes, now: int) -> Optional[ResolvedBeneficiary]:
        response = query_certificate(self, key_hash, self.env)
        if response is None:
            return None
        return self._from_query_response(response, (self.vasp_id, response.responder_vasp_id))

    def _resolve_cross_network(self, key_hash: bytes, now: int) -> Optional[ResolvedBeneficiary]:
        response, hops = route_cross_network_query(self, key_hash, self.env)
        if response is None:
            return None
        return self._from_query_response(response, tuple(hops))

    def _resolve_account_ref(self, target: TransferTarget, now: int) -> Optional[ResolvedBeneficiary]:
        # Account inquiries go to the named VASP directly over the pair-wise
        # channel; shared membership is not required, reachability is.
        vasp_id = target.vasp_id or ""
        if not self.env.link_ok(self.vasp_id, vasp_id):
            return None
        peer = self.env.node(vasp_id)
        if peer is None:
            return None
        response = peer.respond_account_query(self.vasp_id, target.account_id or "", now)
        if response is None:
            return None
        return self._from_query_response(response, (self.vasp_id, vasp_id), target.account_id)

    def _from_query_response(
        self,
        response: QueryResponse,
        path: tuple[str, ...],
        account_id: Optional[str] = None,
    ) -> ResolvedBeneficiary:
        """Attributes come only from an answer's assertion that verifies against
        the responder's certificate and links to the answered certificate."""
        assertion = response.assertion
        if assertion is not None and not verify_assertion(
            assertion, response.responder_certificate, response.certificate,
            self.validate,
        ):
            assertion = None
        attributes = dict(assertion.attributes) if assertion else None
        if attributes:
            account_id = account_id or attributes.get("account_id")
        return ResolvedBeneficiary(
            certificate=response.certificate,
            home_vasp_id=response.responder_vasp_id,
            home_vasp_certificate=response.responder_certificate,
            resolution_path=path,
            account_id=account_id,
            custody_model=attributes.get("custody_model") if attributes else None,
            attributes=attributes,
            assertion=assertion,
            revoked=response.status == "revoked",
        )

    # -- transfer pipeline -----------------------------------------------------------

    def initiate_transfer(
        self,
        account_id: str,
        target: TransferTarget,
        amount: int,
        asset_type: str,
    ) -> TransferOutcome:
        """Run the pre-transfer pipeline and send the off-chain notice.

        Any failing pre-check denies the transfer with nothing broadcast. The
        returned outcome stays pending until the ack arrives (broadcast or
        rejection) or times out.
        """
        if amount <= 0:
            raise ValueError("amount must be positive")
        now = self.env.now
        account = self.accounts[account_id]
        self.env.log(self.vasp_id, "transfer_initiated", account=account_id,
                     amount=amount, asset=asset_type)

        originator_refs = self._account_refs(account)
        if not self.screen_suspect(originator_refs + self._target_refs(target)):
            return self._deny(DenialCode.SUSPECT_PARTY, "screening")

        resolved = self.resolve_beneficiary(target, now)
        if resolved is None or resolved.home_vasp_id is None or resolved.home_vasp_certificate is None:
            return self._deny(DenialCode.BENEFICIARY_UNRESOLVED)

        ben_refs: list[bytes | str] = [resolved.certificate.public_key_hash]
        if resolved.account_id:
            ben_refs.append(resolved.account_id)
        if not self.screen_suspect(ben_refs):
            return self._deny(DenialCode.SUSPECT_PARTY, "beneficiary")

        origin_cert = self._subject_certificate(account)
        if origin_cert is None:
            return self._deny(DenialCode.NO_ORIGINATOR_CERT)

        failure = self._validate_transfer_certificates(origin_cert, resolved)
        if failure is not None:
            return self._deny(DenialCode.CERT_INVALID, failure)

        try:
            assertion = self._originator_assertion(account, origin_cert, now)
        except AssertionServiceError as exc:
            return self._deny(DenialCode.CERT_INVALID, f"originator-customer:{exc}")

        tx = self._build_transfer_tx(account, resolved.certificate.subject_public_key,
                                     amount, asset_type)
        ref = BeneficiaryRef(
            public_key_hash=resolved.certificate.public_key_hash,
            account_id=resolved.account_id,
        )
        notice = self._build_notice(
            beneficiary_vasp_id=resolved.home_vasp_id,
            assertion=assertion, ref=ref, asset_type=asset_type, amount=amount,
            now=now, binding=tx.tx_id, batch_entries=None,
        )
        return self._dispatch_notice(notice, tx, resolved, (account_id,), now)

    def build_commingled_batch(
        self,
        requests: Sequence[tuple[str, TransferTarget, int]],
        asset_type: str,
    ) -> tuple[TransferNotice, ChainTransaction, ResolvedBeneficiary, tuple[str, ...]]:
        """Merge commingled transfer requests into one notice and one prepared
        transaction to the single beneficiary VASP.

        Raises MixedDestination when the requests resolve to different VASPs.
        """
        if not requests:
            raise ValueError("batch requires at least one request")
        now = self.env.now
        resolved_targets: list[tuple[Account, ResolvedBeneficiary, int]] = []
        for account_id, target, amount in requests:
            if amount <= 0:
                raise ValueError("amount must be positive")
            account = self.accounts[account_id]
            if account.custody_model is not CustodyModel.COMMINGLED:
                raise ModelKeyMismatch("batched originators must be commingled accounts")
            resolved = self.resolve_beneficiary(target, now)
            if resolved is None or resolved.home_vasp_id is None:
                raise VaspError("unresolvable batch beneficiary")
            resolved_targets.append((account, resolved, amount))
        homes = {resolved.home_vasp_id for _, resolved, _ in resolved_targets}
        if len(homes) != 1:
            raise MixedDestination(",".join(sorted(h or "?" for h in homes)))
        home = resolved_targets[0][1]
        if home.home_vasp_certificate is None:
            raise VaspError("beneficiary VASP certificate unavailable")

        total = sum(amount for _, _, amount in resolved_targets)
        tx = self._build_transfer_tx(
            None, home.home_vasp_certificate.subject_public_key, total, asset_type
        )
        entries = tuple(
            (BeneficiaryRef(resolved.certificate.public_key_hash, resolved.account_id), amount)
            for _, resolved, amount in resolved_targets
        )
        assertion = self._pool_assertion(now)
        notice = self._build_notice(
            beneficiary_vasp_id=home.home_vasp_id,
            assertion=assertion,
            ref=BeneficiaryRef(home.home_vasp_certificate.public_key_hash,
                               f"{home.home_vasp_id}/pool"),
            asset_type=asset_type, amount=total, now=now, binding=tx.tx_id,
            batch_entries=entries,
        )
        account_ids = tuple(account.account_id for account, _, _ in resolved_targets)
        return notice, tx, home, account_ids

    def initiate_batch_transfer(
        self,
        requests: Sequence[tuple[str, TransferTarget, int]],
        asset_type: str,
    ) -> TransferOutcome:
        """Pipeline for a commingled batch: screen, validate, notice, ack, one tx."""
        now = self.env.now
        self.env.log(self.vasp_id, "transfer_initiated", batch=len(requests),
                     amount=sum(a for _, _, a in requests), asset=asset_type)

        refs: list[bytes | str] = []
        for account_id, target, _ in requests:
            refs.extend(self._account_refs(self.accounts[account_id]))
            refs.extend(self._target_refs(target))
        if not self.screen_suspect(refs):
            return self._deny(DenialCode.SUSPECT_PARTY, "screening")

        try:
            notice, tx, home, account_ids = self.build_commingled_batch(requests, asset_type)
        except (VaspError, ValueError) as exc:
            if isinstance(exc, MixedDestination):
                raise
            return self._deny(DenialCode.BENEFICIARY_UNRESOLVED, str(exc))

        if self.certificate is None:
            return self._deny(DenialCode.NO_ORIGINATOR_CERT)
        failure = self._validate_transfer_certificates(self.certificate, home)
        if failure is not None:
            return self._deny(DenialCode.CERT_INVALID, failure)

        return self._dispatch_notice(notice, tx, home, account_ids, now)

    def _dispatch_notice(
        self,
        notice: TransferNotice,
        tx: ChainTransaction,
        resolved: ResolvedBeneficiary,
        account_ids: tuple[str, ...],
        now: int,
    ) -> TransferOutcome:
        """Open the originator record and send the notice, its ack due within
        the ``ack_timeout`` of the beneficiary VASP's network."""
        outcome = TransferOutcome(
            self._open_record(RecordRole.ORIGINATOR_SIDE, notice, now, account_ids)
        )
        rules = self._rules_for_peer(notice.beneficiary_vasp_id)
        ack_timeout = rules.ack_timeout if rules else OperatingRules.ack_timeout
        self._pending[notice.notice_id] = PendingTransfer(
            outcome=outcome, prepared_tx=tx, resolved=resolved, deadline=now + ack_timeout,
        )
        self.env.send(self.vasp_id, notice.beneficiary_vasp_id, "transfer_notice", notice)
        self.env.log(self.vasp_id, "notice_sent", notice=notice.notice_id.hex(),
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
            record_id=self._fresh_id(RECORD_ID_LEN),
            role=role,
            notice=notice,
            ack=ack,
            chain_tx_id=None,
            status=RecordStatus.PENDING_ACK if ack is None else RecordStatus.PENDING_CHAIN,
            failure_reason=None,
            created_at=now,
            updated_at=now,
            account_ids=account_ids,
        )
        self.records[record.record_id] = record
        self._file_record(notice.intended_chain_tx_binding, record)
        return record

    def _file_record(self, tx_id: bytes, record: TravelRuleRecord) -> None:
        """File a record under a tx id; its confirmation is then delivered here."""
        self._records_by_binding.setdefault(tx_id, []).append(record.record_id)
        self.env.watch(tx_id, self.vasp_id)

    def _deny(
        self, code: DenialCode, detail: str = "", outcome: Optional[TransferOutcome] = None
    ) -> TransferOutcome:
        """Deny ``outcome``; by default a new one, of a transfer whose notice
        never went out."""
        if outcome is None:
            outcome = TransferOutcome()
        outcome.denial = DenialReason(code, detail)
        self.env.log(self.vasp_id, "transfer_denied", reason=code.value, detail=detail)
        return outcome

    def _account_refs(self, account: Account) -> list[bytes | str]:
        refs: list[bytes | str] = [account.account_id]
        if account.customer_public_key_hash is not None:
            refs.append(account.customer_public_key_hash)
        return refs

    def _target_refs(self, target: TransferTarget) -> list[bytes | str]:
        refs: list[bytes | str] = []
        if target.key_hash is not None:
            refs.append(target.key_hash)
        if target.account_id is not None:
            refs.append(target.account_id)
        return refs

    def _subject_certificate(self, account: Account) -> Optional[Certificate]:
        """The certificate binding the account's on-chain key: the customer's,
        or this VASP's own for a commingled pool."""
        if account.custody_model is CustodyModel.COMMINGLED:
            return self.certificate
        return account.certificate

    def _validate_transfer_certificates(
        self, origin_cert: Certificate, resolved: ResolvedBeneficiary
    ) -> Optional[str]:
        """Validate the four certificates of the transfer; None means all valid."""
        checks = [
            ("originator-customer", origin_cert, self.chain_id),
            ("originator-vasp", self.certificate, None),
            ("beneficiary-vasp", resolved.home_vasp_certificate, None),
            ("beneficiary-customer", resolved.certificate, self.chain_id),
        ]
        for which, cert, chain_id in checks:
            if cert is None:
                return which
            result = self.validate(cert, chain_id)
            if not result.ok:
                return f"{which}:{result.status.value}"
        if resolved.revoked:
            return "beneficiary-customer:revoked"
        return None

    def _disclosure(
        self, subject_id: str, subject_cert: Certificate,
        registered: Mapping[str, str], now: int,
    ) -> AttributeAssertion:
        """The part of ``registered`` the disclosure policy passes on, signed
        once per subject.

        The assertion signed about a subject is held and returned again while
        the certificate, the policy and the disclosed attributes equal those it
        was signed over. Every call validates the certificate first, so a
        revoked or expired one raises ``SubjectCertInvalid`` as a fresh signing
        would. A miss draws one id, the new assertion's; a hit draws none.
        """
        policy = self.disclosure_policy
        held = self._held_disclosures.get(subject_id)
        if held is not None and held.covers(subject_cert, policy, registered):
            require_valid_subject(subject_cert, self.validate)
            return held.assertion
        assertion = issue_assertion(
            self._keypair, self.vasp_id, subject_id, subject_cert,
            registered, registered, self.validate, self._fresh_id(), now,
            policy=policy,
        )
        self._held_disclosures[subject_id] = HeldDisclosure(subject_cert, policy, assertion)
        return assertion

    def _originator_assertion(
        self, account: Account, origin_cert: Certificate, now: int
    ) -> AttributeAssertion:
        return self._disclosure(account.subject_id, origin_cert, account.attributes, now)

    def _pool_assertion(self, now: int) -> AttributeAssertion:
        if self.certificate is None:
            raise VaspError("VASP certificate required")
        return self._disclosure(self.vasp_id, self.certificate, self.vasp_attributes(), now)

    def _build_transfer_tx(
        self,
        account: Optional[Account],
        to_public_key: bytes,
        amount: int,
        asset_type: str,
    ) -> ChainTransaction:
        """Sign the on-chain transaction with the model-appropriate key."""
        nonce = self._fresh_id(8)
        if account is None or account.custody_model is CustodyModel.COMMINGLED:
            return build_transaction(self._keypair, self._keypair.public_key,
                                     to_public_key, amount, asset_type, nonce)
        if account.custody_model is CustodyModel.KEY_CUSTODY:
            if account.custodied_private_key is None or account.customer_public_key is None:
                raise KeyUnavailable(account.account_id)
            return build_transaction(account.custodied_private_key, account.customer_public_key,
                                     to_public_key, amount, asset_type, nonce)
        wallet = self._wallets.get(account.account_id)
        if wallet is None:
            raise KeyUnavailable(f"no co-located wallet for {account.account_id}")
        return build_transaction(wallet, wallet.public_key,
                                 to_public_key, amount, asset_type, nonce)

    def _build_notice(
        self,
        beneficiary_vasp_id: str,
        assertion: AttributeAssertion,
        ref: BeneficiaryRef,
        asset_type: str,
        amount: int,
        now: int,
        binding: bytes,
        batch_entries: Optional[tuple[tuple[BeneficiaryRef, int], ...]],
    ) -> TransferNotice:
        return self.seal(TransferNotice(
            notice_id=self._fresh_id(NOTICE_ID_LEN),
            originator_vasp_id=self.vasp_id,
            beneficiary_vasp_id=beneficiary_vasp_id,
            originator_assertion=assertion,
            beneficiary_ref=ref,
            asset_type=asset_type,
            amount=amount,
            execution_tick=now,
            intended_chain_tx_binding=binding,
            batch_entries=batch_entries,
        ))

    # -- beneficiary side --------------------------------------------------------

    def handle_transfer_notice(self, notice: TransferNotice, src: str) -> Optional[TransferAck]:
        """Validate an incoming notice and answer with a signed ack.

        Bad signatures are dropped (logged) rather than rejected, since the
        sender cannot be authenticated.
        """
        now = self.env.now
        originator_cert = self.peer_certificate(notice.originator_vasp_id)
        if originator_cert is None or not crypto.check(originator_cert.subject_public_key, notice):
            self.env.log(self.vasp_id, "notice_dropped",
                         origin=notice.originator_vasp_id, reason="bad-signature")
            return None
        # Deduplicate only after authenticating, so a forged notice reusing a
        # genuine id cannot suppress the genuine one.
        if notice.notice_id in self._handled_notices:
            return None
        self._handled_notices.add(notice.notice_id)
        originator_check = self.validate(originator_cert)
        if not originator_check.ok:
            return self._reject_notice(notice, RejectReason.CERT_INVALID, now)

        accounts = []
        for ref in notice.all_refs():
            account = self._account_for_ref(ref)
            if account is None:
                return self._reject_notice(notice, RejectReason.UNKNOWN_BENEFICIARY, now)
            accounts.append(account)

        for account in accounts:
            if not self.screen_suspect(self._account_refs(account)):
                return self._reject_notice(notice, RejectReason.SUSPECT_PARTY, now)
        if not self.screen_suspect([notice.originator_vasp_id]):
            return self._reject_notice(notice, RejectReason.SUSPECT_PARTY, now)

        for account in accounts:
            cert = self._subject_certificate(account)
            if cert is None or not self.validate(cert, self.chain_id).ok:
                return self._reject_notice(notice, RejectReason.CERT_INVALID, now)

        if not self._notice_assertion_acceptable(notice, originator_cert):
            return self._reject_notice(notice, RejectReason.POLICY_REFUSAL, now)

        if notice.batch_entries is not None:
            assertion = self._pool_assertion(now)
        else:
            assertion = self._customer_assertion(accounts[0], now)
            if assertion is None:
                return self._reject_notice(notice, RejectReason.CERT_INVALID, now)

        ack = self._signed_ack(notice.notice_id, AckDecision.ACCEPT, None, assertion)
        self._open_record(RecordRole.BENEFICIARY_SIDE, notice, now,
                          tuple(a.account_id for a in accounts), ack)
        self.env.send(self.vasp_id, notice.originator_vasp_id, "transfer_ack", ack)
        self.env.log(self.vasp_id, "ack_sent", notice=notice.notice_id.hex(),
                     decision="accept",
                     binding=notice.intended_chain_tx_binding.hex())
        return ack

    def _account_for_ref(self, ref: BeneficiaryRef) -> Optional[Account]:
        if ref.account_id is not None:
            account = self.accounts.get(ref.account_id)
            if account is not None:
                return account
        account_id = self._accounts_by_key_hash.get(ref.public_key_hash)
        return self.accounts.get(account_id) if account_id else None

    def _notice_assertion_acceptable(
        self, notice: TransferNotice, originator_cert: Certificate
    ) -> bool:
        assertion = notice.originator_assertion
        if not crypto.check(originator_cert.subject_public_key, assertion):
            return False
        rules = self._rules_for_peer(notice.originator_vasp_id)
        required = rules.required_disclosure_policy.allowed_attributes if rules else set()
        missing = set(required) - set(assertion.attributes)
        if missing:
            self.env.log(self.vasp_id, "policy_refusal",
                         missing=",".join(sorted(missing)))
            return False
        # Certificate-link check is best effort: enforceable only when the
        # linked subject certificate is locally resolvable.
        subject_hash = assertion.attributes.get("public_key_hash")
        if subject_hash:
            try:
                key_hash = bytes.fromhex(subject_hash)
            except ValueError:
                return False
            local = self._accounts_by_key_hash.get(key_hash)
            if local is not None:
                cert = self.accounts[local].certificate
                if cert is not None and assertion.linked_certificate_hash != cert.fingerprint():
                    return False
        return True

    def _rules_for_peer(self, vasp_id: str):
        for network in self.networks_sorted():
            if vasp_id in network.members:
                return network.rules
        networks = self.networks_sorted()
        return networks[0].rules if networks else None

    def _reject_notice(self, notice: TransferNotice, reason: RejectReason, now: int) -> TransferAck:
        ack = self._signed_ack(notice.notice_id, AckDecision.REJECT, reason, None)
        self.env.send(self.vasp_id, notice.originator_vasp_id, "transfer_ack", ack)
        self.env.log(self.vasp_id, "ack_sent", notice=notice.notice_id.hex(),
                     decision="reject", reason=reason.value)
        return ack

    def _signed_ack(
        self,
        notice_id: bytes,
        decision: AckDecision,
        reason: Optional[RejectReason],
        assertion: Optional[AttributeAssertion],
    ) -> TransferAck:
        return self.seal(TransferAck(
            notice_id=notice_id, decision=decision, reject_reason=reason,
            beneficiary_assertion=assertion,
        ))

    # -- ack handling and on-chain execution ----------------------------------------

    def on_transfer_ack(self, ack: TransferAck, src: str) -> None:
        now = self.env.now
        pending = self._pending.get(ack.notice_id)
        if pending is None:
            self.env.log(self.vasp_id, "ack_ignored", notice=ack.notice_id.hex())
            return
        home_cert = pending.resolved.home_vasp_certificate
        if home_cert is None or not crypto.check(home_cert.subject_public_key, ack):
            self.env.log(self.vasp_id, "ack_dropped", notice=ack.notice_id.hex(),
                         reason="bad-signature")
            return
        del self._pending[ack.notice_id]
        record = pending.outcome.record
        record.ack = ack
        self.env.log(self.vasp_id, "ack_received", notice=ack.notice_id.hex(),
                     decision=ack.decision.value,
                     binding=record.notice.intended_chain_tx_binding.hex())

        if ack.decision is AckDecision.REJECT:
            reason = ack.reject_reason.value if ack.reject_reason else "unspecified"
            return self._fail(pending, now, DenialCode.ACK_REJECTED, reason)
        if not self._accept_assertion_valid(ack, pending):
            return self._fail(pending, now, DenialCode.ACK_REJECTED, "invalid-assertion")
        result = self.env.submit_tx(self.vasp_id, pending.prepared_tx)
        if not result.accepted:
            self.env.log(self.vasp_id, "chain_reject", reason=result.reason or "")
            return self._fail(pending, now, DenialCode.CHAIN_REJECTED)
        record.chain_tx_id = result.tx_id
        record.advance(RecordStatus.PENDING_CHAIN, now)

    def _accept_assertion_valid(self, ack: TransferAck, pending: PendingTransfer) -> bool:
        if ack.beneficiary_assertion is None:
            return False
        home_cert = pending.resolved.home_vasp_certificate
        batch = pending.outcome.record.notice.batch_entries is not None
        subject_cert = home_cert if batch else pending.resolved.certificate
        if home_cert is None or subject_cert is None:
            return False
        return verify_assertion(
            ack.beneficiary_assertion, home_cert, subject_cert, self.validate
        )

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

    def on_chain_confirmation(self, tx: ChainTransaction, confirmed_tick: int) -> None:
        """Advance records whose binding digest matches the confirmed tx."""
        now = self.env.now
        tx_id = tx.tx_id
        record_ids = self._records_by_binding.get(tx_id)
        if record_ids is None:
            if self._involves_my_keys(tx):
                self.env.log(self.vasp_id, "confirmation_unmatched", tx=tx_id.hex())
            return
        for record_id in record_ids:
            record = self.records[record_id]
            if record.status is not RecordStatus.PENDING_CHAIN:
                continue
            if record.notice.intended_chain_tx_binding != tx_id:
                record.advance(RecordStatus.FAILED, now, "BindingMismatch")
                self.env.log(self.vasp_id, "record_failed", record=record_id.hex(),
                             reason="BindingMismatch")
                continue
            record.chain_tx_id = tx_id
            record.advance(RecordStatus.CONFIRMED, now)
            self.env.log(self.vasp_id, "record_confirmed", record=record_id.hex(),
                         role=record.role.value, tx=tx_id.hex())

    def known_keys(self) -> frozenset[bytes]:
        """This node's own key and every account's customer key; replaced,
        never mutated, by ``open_account``."""
        return self._known_keys

    def _involves_my_keys(self, tx: ChainTransaction) -> bool:
        keys = self.known_keys()
        return tx.from_public_key in keys or tx.to_public_key in keys

    def reconcile(self) -> ReconciliationReport:
        """Cross-join local records against ledger entries touching our keys."""
        confirmed_bindings = {
            record.chain_tx_id
            for record in self.records.values()
            if record.status is RecordStatus.CONFIRMED and record.chain_tx_id is not None
        }
        orphans = []
        matched = 0
        for tx, _tick in self.env.chain.confirmed_transactions():
            if not self._involves_my_keys(tx):
                continue
            if tx.tx_id in confirmed_bindings:
                matched += 1
            else:
                orphans.append(tx.tx_id)
        unconfirmed = [
            record_id
            for record_id in sorted(self.records)
            if self.records[record_id].status
            in (RecordStatus.PENDING_ACK, RecordStatus.PENDING_CHAIN)
        ]
        return ReconciliationReport(
            matched=matched,
            orphan_chain_txs=tuple(orphans),
            unconfirmed_records=tuple(unconfirmed),
        )

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
            if notice.originator_assertion is None:
                violations.append((rid, "originator_assertion"))
            elif len(notice.originator_assertion.linked_certificate_hash) != crypto.HASH_LEN:
                violations.append((rid, "originator_key_ownership_evidence"))
            if record.ack is None or record.ack.beneficiary_assertion is None:
                violations.append((rid, "beneficiary_assertion"))
            elif len(record.ack.beneficiary_assertion.linked_certificate_hash) != crypto.HASH_LEN:
                violations.append((rid, "beneficiary_key_ownership_evidence"))
            if notice.amount <= 0:
                violations.append((rid, "amount"))
            if notice.execution_tick is None:
                violations.append((rid, "execution_tick"))
            if not notice.originator_vasp_id or not notice.beneficiary_vasp_id:
                violations.append((rid, "vasp_identities"))
            for account_id in record.account_ids:
                account = self.accounts.get(account_id)
                if account is None:
                    violations.append((rid, f"account:{account_id}"))
                    continue
                if account.custody_model is CustodyModel.COMMINGLED:
                    continue
                if account.key_ownership_evidence is None:
                    violations.append((rid, f"key_ownership_evidence:{account_id}"))
                if (
                    account.custody_model is CustodyModel.KEY_CUSTODY
                    and account.key_operator_evidence is None
                ):
                    violations.append((rid, f"key_operator_evidence:{account_id}"))
        return AuditReport(records_checked=checked, violations=tuple(violations))

    def check_account_invariants(self) -> None:
        """The per-tick sweep of the accounts' key invariant.

        Only the accounts filed in ``_key_writes`` since the last sweep are
        checked, through ``Account.check_invariants``; an account that fails
        stays failing until a later write makes it pass. While any account
        fails, every sweep raises the message of the first failing one in
        ``accounts`` order, so a breach is reported from the tick after the
        write and at every tick while it lasts.
        """
        failing = self._failing_accounts
        for account_id in self._key_writes:
            try:
                self.accounts[account_id].check_invariants()
            except ModelKeyMismatch:
                failing.add(account_id)
            else:
                failing.discard(account_id)
        self._key_writes.clear()
        if failing:
            for account_id, account in self.accounts.items():
                if account_id in failing:
                    account.check_invariants()

    # -- message dispatch --------------------------------------------------------

    def on_message(self, kind: str, payload, src: str) -> None:
        if kind == "transfer_notice":
            self.handle_transfer_notice(payload, src)
        elif kind == "transfer_ack":
            self.on_transfer_ack(payload, src)
        elif kind == "dir_delta":
            self.on_dir_delta(payload, src)
        elif kind == "dir_snapshot":
            self.on_dir_snapshot(payload, src)
        elif kind == "dir_pull":
            self.on_dir_pull(src)
        elif kind == "dir_announce":
            self.on_dir_announce(payload, src)
        elif kind == "reach_adv":
            self.on_reachability_advertisement(payload, src)
        elif kind == "reach_digest":
            self.on_route_digest(payload, src)
        elif kind == "route_refresh":
            self.on_route_refresh(src)
        elif kind == "refreshed_routes":
            self.on_refreshed_routes(payload, src)
        else:
            self.env.log(self.vasp_id, "message_ignored", kind=kind)

    def _link_from(self, gateway_id: str) -> tuple[Optional[TrustNetwork], Optional[PeeringLink]]:
        """The first network, in id order, with a peering link from
        ``gateway_id`` to this gateway, and that link."""
        for network in self.networks_sorted():
            link = network.find_link_from(gateway_id, self.vasp_id)
            if link is not None:
                return network, link
        return None, None

    def on_reachability_advertisement(self, adv: ReachabilityAdvertisement, src: str) -> None:
        network, _ = self._link_from(src)
        verdict, reason = (process_advertisement(network, self, adv, src, self.env)
                           if network else ("drop", "no-link"))
        where = {"network": network.network_id} if network else {}
        self.env.log(self.vasp_id, "advertisement", verdict=verdict, reason=reason,
                     origin=adv.origin_network_id, path=">".join(adv.network_path),
                     hashes=len(adv.advertised_hashes), **where)

    def advertise_reachability(self, now: int) -> None:
        """One sync period over each of this gateway's peering links: the
        link is sent its network's directory summary if that changed. Else
        its signed ``RouteDigest`` is brought up to date, and sent in every
        other period (the two gateways of a link take turns) if no
        advertisement went over the link since the last period. A digest is
        thus signed in the period its content settled, not in the later one
        that sends it."""
        for network in self.networks_sorted():
            period = network.rules.directory_sync_period
            for link in network.links_of(self.vasp_id):
                if self._advertise_own(network, link):
                    continue
                out = self._adj_rib_out[link]
                keepalive = out.keepalive(self, self.adj_rib_in[link])
                turn = (now // period) % 2 == (link.gateway_vasp_a != self.vasp_id)
                if turn and out.sent_at <= now - period:
                    self.env.send(self.vasp_id, self._far_gateway(link), "reach_digest", keepalive)

    def on_route_digest(self, keepalive: RouteDigest, src: str) -> None:
        """Compare the far gateway's digests with this side of the link: ask
        for a route refresh when what it holds differs from what was
        received here, and send the held routes when what it received
        differs from what is held here. A digest that matches asks for
        nothing, so only one that differs is verified."""
        _, link = self._link_from(src)
        if link is None:
            return
        pull = self.adj_rib_in[link].digest != keepalive.held
        push = self._adj_rib_out[link].sent.digest != keepalive.received
        if not (pull or push) or keepalive.gateway_id != src:
            return
        cert = self.peer_certificate(src)
        if cert is None or not crypto.check(cert.subject_public_key, keepalive):
            return
        if pull:
            self.env.send(self.vasp_id, src, "route_refresh", None)
        if push:
            self.on_route_refresh(src)

    def on_route_refresh(self, src: str) -> None:
        """Send the far gateway of the link every advertisement held for it."""
        _, link = self._link_from(src)
        if link is not None:
            routes = tuple(self._adj_rib_out[link].sent.values())
            self.env.send(self.vasp_id, src, "refreshed_routes", routes)
            self.env.log(self.vasp_id, "routes_refreshed", to=src, routes=len(routes))

    def on_refreshed_routes(self, routes: Sequence[ReachabilityAdvertisement], src: str) -> None:
        """Replace what was received over the link with a refresh's routes,
        each processed as an advertisement (RFC 7313: routes the refresh
        leaves out are stale)."""
        _, link = self._link_from(src)
        if link is not None:
            self.adj_rib_in[link] = Routes()
        for adv in routes:
            self.on_reachability_advertisement(adv, src)

    def advertise(
        self, link: PeeringLink, adv: ReachabilityAdvertisement
    ) -> Optional[ReachabilityAdvertisement]:
        """Send ``adv`` over ``link`` and hold it there if its content
        differs from what the link holds for its origin network; returns it
        as sent, signed here if it came unsigned, or None. A link starts
        holding nothing, which counts as the empty route: a first
        advertisement of no key hashes is not sent, one that empties an
        advertised set is (RFC 4271's Adj-RIB-Out starts empty, and an UPDATE
        goes out only for a change). Content is compared before signing, so
        nothing is signed that is not sent; Ed25519 is deterministic, so the
        bytes sent are those an advertisement signed earlier would have."""
        out = self._adj_rib_out[link]
        held = out.sent.get(adv.origin_network_id)
        if held is None:
            if not adv.advertised_hashes:
                return None
        elif held is adv or replace(held, signature=adv.signature) == adv:
            return None
        if not adv.signature:
            adv = self.seal(adv)
        out.sent = out.sent.put(adv)
        out.sent_at = self.env.now
        far_gateway = self._far_gateway(link)
        self.env.send(self.vasp_id, far_gateway, "reach_adv", adv)
        self.env.log(self.vasp_id, "advertisement_sent", origin=adv.origin_network_id,
                     to=far_gateway, hashes=len(adv.advertised_hashes))
        return adv

    def withdraw_advertisement(self, link: PeeringLink, origin_network_id: str) -> None:
        """Stop holding a route to ``origin_network_id`` for ``link``."""
        out = self._adj_rib_out[link]
        if origin_network_id in out.sent:
            out.sent = Routes({o: a for o, a in out.sent.items() if o != origin_network_id})

    def _far_gateway(self, link: PeeringLink) -> str:
        return link.gateway_vasp_b if link.gateway_vasp_a == self.vasp_id else link.gateway_vasp_a

    def _advertise_own(self, network: TrustNetwork, link: PeeringLink) -> bool:
        """``advertise`` ``network``'s own advertisement over ``link``;
        returns whether it went. The advertisement is rebuilt only when a
        member view's entry set changed, and signed when first sent, once
        whatever the number of links. Views replace their frozenset on every
        write, so an unchanged view compares by identity."""
        sources = tuple(self.directory_views[m].entries for m in network.member_ids())
        cached = self._advertisements.get(network.network_id)
        if cached is None or cached[0] != sources:
            cached = (sources, build_advertisement(network, self))
        sent = self.advertise(link, cached[1])
        self._advertisements[network.network_id] = (sources, sent or cached[1])
        return sent is not None
