"""Beneficiary resolution and query answers of one VASP node: a target is
resolved through the node's accounts, its CA, its directory views, routed
cross-network queries or the named VASP, and a beneficiary's account id is
taken from a peer only with a disclosure that verifies."""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

from .accounts import Account, AccountBook, CustodyModel
from .assertions import verify_assertion
from .ca import Certificate, ValidationStatus
from .directory import DirectoryFeed
from .network import QueryResponse, TrustNetwork, query_certificate, route_cross_network_query


@dataclass(frozen=True)
class TransferTarget:
    """Pre-resolution reference to a beneficiary."""

    kind: str
    key_hash: Optional[bytes] = None
    vasp_id: Optional[str] = None
    account_id: Optional[str] = None

    @classmethod
    def from_key_hash(cls, key_hash: bytes) -> "TransferTarget":
        return cls(kind="key_hash", key_hash=key_hash)

    @classmethod
    def from_account(cls, vasp_id: str, account_id: str) -> "TransferTarget":
        return cls(kind="account", vasp_id=vasp_id, account_id=account_id)


@dataclass(frozen=True)
class ResolvedBeneficiary:
    certificate: Certificate
    home_vasp_id: Optional[str]
    home_vasp_certificate: Optional[Certificate]
    resolution_path: tuple[str, ...]
    account_id: Optional[str] = None
    revoked: bool = False


class Resolver:
    """Resolution and query answers of ``node``, for the accounts in
    ``book`` and from the views of ``directory``. Other VASPs answer through
    their own resolvers, reached through the environment (the pair-wise
    channel)."""

    def __init__(self, node, book: AccountBook, directory: DirectoryFeed) -> None:
        self._node = node
        self._env = node.env
        self._vasp_id = node.vasp_id
        self._book = book
        self._directory = directory

    def respond_certificate_query(self, key_hash: bytes, now: int) -> Optional[QueryResponse]:
        account = self._book.by_key_hash(key_hash)
        return None if account is None else self._answer_query(account, now)

    def respond_account_query(self, account_id: str, now: int) -> Optional[QueryResponse]:
        account = self._book.accounts.get(account_id)
        return None if account is None else self._answer_query(account, now)

    def _answer_query(self, account: Account, now: int) -> Optional[QueryResponse]:
        """The account's subject certificate with a disclosure about it. A
        revoked certificate is answered flagged ``revoked`` without one, an
        otherwise invalid one not at all; a commingled pool's answer, this
        VASP's own certificate, is not re-validated."""
        cert = self._book.subject_certificate(account)
        certificate = self._node.certificate
        if cert is None or certificate is None:
            return None
        revoked = False
        if account.custody_model is not CustodyModel.COMMINGLED:
            check = self._node.validate(cert)
            revoked = check.status is ValidationStatus.REVOKED
            if not (check.ok or revoked):
                return None
        assertion = None if revoked else self._book.customer_assertion(account, now)
        return QueryResponse(cert, assertion, self._vasp_id, certificate, revoked)

    def network(self, network_id: str) -> Optional[TrustNetwork]:
        """This node's network of id ``network_id``, if it is a member."""
        return self._node.memberships.get(network_id)

    def answer_in_origin(self, key_hash: bytes) -> tuple[Optional[QueryResponse], list[str]]:
        """As the last gateway of a routed query: the answer of the member
        whose view held here lists ``key_hash``, and the hop to it."""
        owner_id = self._directory.find_owner(key_hash)
        if owner_id is None:
            return None, []
        if owner_id == self._vasp_id:
            return self.respond_certificate_query(key_hash, self._env.now), []
        owner = self._channel(self._vasp_id, owner_id)
        if owner is None:
            return None, [owner_id]
        return owner.respond_certificate_query(key_hash, self._env.now), [owner_id]

    def _channel(self, src: str, dst: str) -> Optional[Resolver]:
        """The resolver of VASP ``dst``, if the pair-wise channel to it from
        ``src`` is up."""
        peer = self._env.node(dst) if self._env.link_ok(src, dst) else None
        return peer.resolver if peer is not None else None

    def resolve_beneficiary(self, target: TransferTarget, now: int) -> Optional[ResolvedBeneficiary]:
        """Resolve in fixed order: local cache, affiliated CA, trust-network
        directory, cross-network routed query."""
        resolved = self._resolve_local(target)
        if resolved is None and target.kind == "key_hash":
            resolved = self._resolve_via_ca(target, now)
            if resolved is None:
                resolved = self._resolve_via_directory(target.key_hash)
            if resolved is None:
                resolved = self._resolve_cross_network(target.key_hash)
        if resolved is None and target.kind == "account":
            resolved = self._resolve_account_ref(target, now)
        if resolved is None:
            self._env.log(self._vasp_id, "resolve", outcome="unresolved", kind=target.kind)
        else:
            self._env.log(self._vasp_id, "resolve", outcome="resolved",
                          kind=target.kind, hops=len(resolved.resolution_path) - 1,
                          path=">".join(resolved.resolution_path))
        return resolved

    def _resolve_local(self, target: TransferTarget) -> Optional[ResolvedBeneficiary]:
        if target.kind != "account":
            account = self._book.by_key_hash(target.key_hash or b"")
        elif target.vasp_id == self._vasp_id:
            account = self._book.accounts.get(target.account_id or "")
        else:
            return None
        cert = self._book.subject_certificate(account) if account is not None else None
        if cert is None:
            return None
        return ResolvedBeneficiary(
            certificate=cert, home_vasp_id=self._vasp_id,
            home_vasp_certificate=self._node.certificate, resolution_path=(self._vasp_id,),
            account_id=account.account_id,
        )

    def _resolve_via_ca(self, target: TransferTarget, now: int) -> Optional[ResolvedBeneficiary]:
        ca = self._node.ca
        lookup = ca.find_certificate_by_key_hash(target.key_hash, now)
        if lookup is None:
            return None
        home_vasp_id = lookup.attributes.get("vasp_id")
        home_cert = self._node.peer_certificate(home_vasp_id) if home_vasp_id else None
        return ResolvedBeneficiary(
            certificate=lookup.certificate, home_vasp_id=home_vasp_id,
            home_vasp_certificate=home_cert, resolution_path=(self._vasp_id, ca.ca_id),
            revoked=lookup.revoked,
        )

    def _resolve_via_directory(self, key_hash: bytes) -> Optional[ResolvedBeneficiary]:
        response = query_certificate(self._vasp_id, self._directory.views, key_hash,
                                     self._ask_owner)
        if response is None:
            return None
        return self._from_query_response(response, (self._vasp_id, response.responder_vasp_id))

    def _ask_owner(self, owner_id: str, key_hash: bytes) -> Optional[QueryResponse]:
        """The answer of the owner of a view listing ``key_hash``, if it is
        reachable. An owner with no answer is logged as a directory
        inconsistency, a revoked answer as a stale entry."""
        owner = self._channel(self._vasp_id, owner_id)
        if owner is None:
            return None
        response = owner.respond_certificate_query(key_hash, self._env.now)
        if response is None:
            self._env.log(self._vasp_id, "directory_inconsistency", owner=owner_id)
        elif response.revoked:
            self._env.log(self._vasp_id, "directory_stale_entry", owner=owner_id)
        return response

    def _resolve_cross_network(self, key_hash: bytes) -> Optional[ResolvedBeneficiary]:
        response, hops = route_cross_network_query(
            self._vasp_id, self._node.networks_sorted(), key_hash, self._channel,
            functools.partial(self._env.log, self._vasp_id))
        if response is None:
            return None
        return self._from_query_response(response, tuple(hops))

    def _resolve_account_ref(self, target: TransferTarget, now: int) -> Optional[ResolvedBeneficiary]:
        # Account inquiries go to the named VASP directly over the pair-wise
        # channel; shared membership is not required, reachability is.
        vasp_id = target.vasp_id or ""
        peer = self._channel(self._vasp_id, vasp_id)
        if peer is None:
            return None
        response = peer.respond_account_query(target.account_id or "", now)
        if response is None:
            return None
        return self._from_query_response(response, (self._vasp_id, vasp_id), target.account_id)

    def _from_query_response(self, response: QueryResponse, path: tuple[str, ...],
                             account_id: Optional[str] = None) -> ResolvedBeneficiary:
        """An account id not given comes only from an answer's assertion that
        verifies against the responder's certificate and links to the
        answered certificate."""
        assertion = response.assertion
        if assertion is not None and verify_assertion(
                assertion, response.responder_certificate, response.certificate,
                self._node.validate):
            account_id = account_id or assertion.disclosure.attributes.get("account_id")
        return ResolvedBeneficiary(
            certificate=response.certificate, home_vasp_id=response.responder_vasp_id,
            home_vasp_certificate=response.responder_certificate, resolution_path=path,
            account_id=account_id, revoked=response.revoked,
        )
