"""The VASP node: its identity and trust state, and the five roles it
composes, each in its own module (``accounts``, ``directory``,
``reachability``, ``resolution``, ``transfer``). A node is one logical
actor: the harness delivers one message at a time and all handlers are
deterministic in (state, message, tick)."""

from __future__ import annotations

import random
from typing import Mapping, Optional, Sequence

from . import crypto
from .accounts import Account, AccountBook, CustodyModel, VaspError
from .ca import (Certificate, CertificateAuthority, CertClass, Crl, RevocationView,
                 ValidationResult, validate_certificate)
from .chain import ChainTransaction
from .crypto import KeyPair
from .directory import DirectoryFeed
from .network import (DirectoryAnnounce, DirectoryDelta, DirectoryEntry, DirectorySnapshot,
                      ReachabilityAdvertisement, TrustNetwork)
from .reachability import ReachabilityFeed
from .resolution import ResolvedBeneficiary, Resolver, TransferTarget
from .transfer import (AuditReport, ReconciliationReport, TransferAck, TransferNotice,
                       TransferOutcome, Transfers)
# ``benchmark/`` reads these from this module: the statuses of records and
# outcomes, and the codec entry point whose by-name imports its tracer rebinds.
from .crypto import canonical_encode  # noqa: F401
from .transfer import OutcomeStatus, RecordStatus  # noqa: F401


class VaspNode:
    """One VASP. The identity accessors are what its roles share: the VASP's
    id, key and certificate, its memberships, trust anchors, revocation view
    and suspect list, and the certificate checks against them. Every other
    method is a one-line entry point into a role; a role calls a method that
    has one, its own or another role's, through it. The one exception,
    ``check_account_invariants``, does nothing and stays for the tracer."""

    def __init__(self, vasp_id: str, keypair: KeyPair, ca: CertificateAuthority,
                 trust_anchors: Mapping[str, Certificate], rng: random.Random, env) -> None:
        self.vasp_id = vasp_id
        self._keypair = keypair
        self.ca = ca
        self.env = env
        self.certificate: Optional[Certificate] = None
        # Blocked public-key hashes and account ids.
        self.suspect_list: set[bytes | str] = set()
        self.revocation = RevocationView()
        # CA id -> root certificate: the run's one read-only map, not a copy.
        self.trust_anchors = trust_anchors
        self.memberships: dict[str, TrustNetwork] = {}
        # The roles that draw ids share ``rng``, in the order they run.
        self.book = AccountBook(self, keypair, rng)
        self.directory = DirectoryFeed(self, self.revocation, self.book)
        self.reach = ReachabilityFeed(self, self.directory.views)
        self.resolver = Resolver(self, self.book, self.directory)
        self.transfers = Transfers(self, self.book, rng)
        self.records = self.transfers.records  # read off the node by ``benchmark/``

    # -- identity and membership --------------------------------------------

    @property
    def public_key_hash(self) -> bytes:
        return self._keypair.public_key_hash

    def seal(self, unsigned: crypto.S) -> crypto.S:
        """``unsigned`` signed with this node's key (``crypto.seal``)."""
        return crypto.seal(self._keypair, unsigned)

    def enroll_vasp_certificate(self, attributes: Mapping[str, str], now: int, validity_ticks: int,
                                requested_class: CertClass = CertClass.CLASS3) -> Certificate:
        """Obtain this VASP's own certificate from the affiliated CA."""
        registration = self.ca.register_subject(self.vasp_id, attributes, requested_class)
        cert = self.ca.issue_certificate(
            registration, self._keypair.public_key, now, now + validity_ticks, now,
        )
        self.certificate = cert
        return cert

    def join(self, network: TrustNetwork, now: int) -> None:
        if self.certificate is None:
            raise VaspError("VASP certificate required before joining a network")
        network.join_network(self.certificate, now, self.revocation)
        self.memberships[network.network_id] = network

    def networks_sorted(self) -> list[TrustNetwork]:
        return [self.memberships[nid] for nid in sorted(self.memberships)]

    def co_member_ids(self) -> list[str]:
        ids: set[str] = set()
        for network in self.memberships.values():
            ids.update(network.members)
        ids.discard(self.vasp_id)
        return sorted(ids)

    def shared_network(self, vasp_id: str) -> Optional[TrustNetwork]:
        """The first network, in id order, of which ``vasp_id`` is a member too."""
        for network in self.networks_sorted():
            if vasp_id in network.members:
                return network
        return None

    def member_certificate(self, vasp_id: str) -> Optional[Certificate]:
        network = self.shared_network(vasp_id)
        return network.members[vasp_id] if network is not None else None

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

    def validate(self, cert: Certificate) -> ValidationResult:
        """``cert`` checked against this node's trust anchors and revocation
        view at the current tick."""
        return validate_certificate(cert, self.trust_anchors, self.env.now, self.revocation)

    def vasp_attributes(self) -> dict[str, str]:
        """Identity attributes this VASP asserts about itself (pool transfers)."""
        return {
            "name": self.vasp_id,
            "vasp_id": self.vasp_id,
            "account_id": f"{self.vasp_id}/pool",
            "public_key_hash": self.public_key_hash.hex(),
            "custody_model": CustodyModel.COMMINGLED.value,
        }

    # -- entry points: one line each, into a role -------------------------------

    def open_account(self, subject_id: str, attributes: Mapping[str, str],
                     custody_model: CustodyModel, customer_wallet: Optional[KeyPair],
                     account_id: str, now: int) -> Account:
        return self.book.open_account(subject_id, attributes, custody_model, customer_wallet,
                                      account_id, now)
    def known_keys(self) -> frozenset[bytes]:
        return self.book.known_keys()
    def check_account_invariants(self) -> None:
        """Does nothing: an account's keys are checked once, when it opens
        (``accounts.AccountKeys``), and cannot change. Kept because
        ``benchmark/tracer.py`` wraps it by name."""

    def directory_entries(self, now: int) -> frozenset[DirectoryEntry]:
        return self.directory.entries(now)
    def publish_directory(self, now: int, entries: Optional[frozenset[DirectoryEntry]] = None
                          ) -> DirectorySnapshot:
        return self.directory.publish(now, entries)
    def announce_directory(self, now: int) -> None:
        return self.directory.announce(now)
    def on_dir_announce(self, announce: DirectoryAnnounce, src: str) -> None:
        return self.directory.on_announce(announce, src)
    def on_dir_delta(self, delta: DirectoryDelta, src: str) -> None:
        return self.directory.on_delta(delta, src)
    def on_dir_snapshot(self, snapshot: DirectorySnapshot, src: str) -> None:
        return self.directory.on_snapshot(snapshot, src)
    def ingest_crls(self, crls: Sequence[Crl]) -> None:
        return self.directory.ingest_crls(crls)

    def advertise_reachability(self, now: int) -> None:
        return self.reach.advertise_reachability(now)
    def on_reachability_advertisement(self, adv: ReachabilityAdvertisement, src: str) -> None:
        return self.reach.on_advertisement(adv, src)

    def resolve_beneficiary(self, target: TransferTarget,
                            now: int) -> Optional[ResolvedBeneficiary]:
        return self.resolver.resolve_beneficiary(target, now)

    def initiate_transfer(self, account_id: str, target: TransferTarget, amount: int,
                          asset_type: str) -> TransferOutcome:
        return self.transfers.initiate_transfer(account_id, target, amount, asset_type)
    def handle_transfer_notice(self, notice: TransferNotice, src: str) -> Optional[TransferAck]:
        return self.transfers.handle_transfer_notice(notice, src)
    def on_transfer_ack(self, ack: TransferAck, src: str) -> None:
        return self.transfers.on_transfer_ack(ack, src)
    def on_chain_confirmation(self, tx: ChainTransaction) -> None:
        return self.transfers.on_chain_confirmation(tx)
    def audit_travel_rule(self) -> AuditReport:
        return self.transfers.audit_travel_rule()
    def reconcile(self) -> ReconciliationReport:
        return self.transfers.reconcile()

    def on_message(self, kind: str, payload, src: str) -> None:
        if kind == "transfer_notice":
            self.handle_transfer_notice(payload, src)
        elif kind == "transfer_ack":
            self.on_transfer_ack(payload, src)
        elif kind == "dir_delta":
            self.on_dir_delta(payload, src)
        elif kind == "dir_snapshot":
            self.on_dir_snapshot(payload, src)
        elif kind == "dir_announce":
            self.on_dir_announce(payload, src)
        elif kind == "reach_adv":
            self.on_reachability_advertisement(payload, src)
        elif kind == "reach_digest":
            self.reach.on_route_digest(payload, src)
        elif kind == "refreshed_routes":
            self.reach.on_refreshed_routes(payload, src)
        else:
            self.env.log(self.vasp_id, "message_ignored", kind=kind)
