"""Customer accounts of one VASP under three custody models: enrolment,
the disclosures that carry key-ownership evidence, the keys that sign on
chain, and the per-tick sweep of the accounts' key invariant."""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import Mapping, Optional

from . import crypto
from .assertions import (ASSERTION_ID_LEN, AssertionServiceError, AttributeAssertion,
                         HeldDisclosure, TRAVEL_RULE_POLICY, issue_assertion,
                         require_valid_subject)
from .ca import Certificate, CertClass, DEFAULT_PROFILE
from .chain import NONCE_LEN, ChainTransaction, build_transaction
from .crypto import KeyPair, digest


class VaspError(Exception):
    pass


class ModelKeyMismatch(VaspError):
    pass


class NoCustomerKey(VaspError):
    pass


class KeyUnavailable(VaspError):
    pass


def fresh_id(rng: random.Random, length: int) -> bytes:
    """``length`` bytes drawn from a node's one generator."""
    return rng.getrandbits(length * 8).to_bytes(length, "big")


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
    opens, and by its book's per-tick sweep after each write to one of
    ``ACCOUNT_KEY_FIELDS``: every such write, those in ``__init__``
    included, files the account id in ``key_writes``, the book's set,
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


class AccountBook:
    """The accounts of ``node`` and the disclosures signed about their
    subjects. ``keypair``, the VASP's own, signs disclosures and pool
    transactions; ``rng`` is the node's one generator. The book is the one
    owner of which certificate each account holds: the directory feed reads
    the accounts' certificates, and ``enrolments``, the count of
    certificates issued, tells it when they changed."""

    def __init__(self, node, keypair: KeyPair, rng: random.Random) -> None:
        self._node = node
        self._env = node.env
        self._keypair = keypair
        self._rng = rng
        self.enrolments = 0
        self.disclosure_policy = TRAVEL_RULE_POLICY
        self.accounts: dict[str, Account] = {}
        # Ids of the accounts whose key fields were written since the last
        # sweep (filed by ``_key_field``), and of those failing now.
        self._key_writes: set[str] = set()
        self._failing_accounts: set[str] = set()
        self._wallets: dict[str, KeyPair] = {}
        self._accounts_by_key_hash: dict[bytes, str] = {}
        self._known_keys: frozenset[bytes] = frozenset((keypair.public_key,))
        self._env.watch(keypair.public_key, node.vasp_id)
        # Subject id -> the last disclosure signed about it (``disclose``).
        self._held_disclosures: dict[str, HeldDisclosure] = {}

    def open_account(self, subject_id: str, attributes: Mapping[str, str],
                     custody_model: CustodyModel, customer_public_key: Optional[bytes] = None,
                     customer_wallet: Optional[KeyPair] = None,
                     account_id: Optional[str] = None, now: int = 0) -> Account:
        """Open an account with the key arrangement its custody model demands.

        Mediated accounts carry the customer's public key (the wallet stays
        with the customer; in simulation it is co-located with this node).
        Key-custody accounts get a VASP-generated keypair held in custody.
        Commingled accounts store no customer keys at all.
        """
        vasp_id = self._node.vasp_id
        if customer_wallet is not None:
            if customer_public_key is not None and customer_public_key != customer_wallet.public_key:
                raise ModelKeyMismatch("wallet and public key disagree")
            customer_public_key = customer_wallet.public_key
        account_id = account_id or f"acct-{fresh_id(self._rng, 8).hex()}"
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
                operator_vasp_id=vasp_id, custody_agreement_id=f"custody/{vasp_id}/{account_id}",
                since_tick=now)
        else:
            if customer_public_key is not None:
                raise ModelKeyMismatch("commingled accounts must not supply customer keys")

        merged = dict(attributes)
        merged.setdefault("account_id", account_id)
        merged.setdefault("vasp_id", vasp_id)
        merged.setdefault("custody_model", custody_model.value)
        # The on-chain key for the account: the customer's, or the VASP's own
        # for commingled pools.
        onchain_key = customer_public_key or self._keypair.public_key
        merged.setdefault("public_key_hash", digest(onchain_key).hex())

        account = Account(
            account_id=account_id, subject_id=subject_id, attributes=merged,
            custody_model=custody_model, customer_public_key=customer_public_key,
            custodied_private_key=custodied_private, key_operator_evidence=operator_evidence,
            key_writes=self._key_writes,
        )
        account.check_invariants()
        self.accounts[account_id] = account
        if customer_public_key is not None:
            self._accounts_by_key_hash[account.customer_public_key_hash] = account_id
            self._known_keys = self._known_keys | {customer_public_key}
            self._env.watch(customer_public_key, vasp_id)
        if customer_wallet is not None:
            self._wallets[account_id] = customer_wallet
        self._env.log(vasp_id, "account_opened",
                      account=account_id, model=custody_model.value)
        return account

    def enroll_customer_certificate(self, account_id: str, requested_class: CertClass, now: int,
                                    validity_ticks: int = 10_000) -> Certificate:
        """Register and certify the account's key at the affiliated CA."""
        account = self.accounts[account_id]
        if account.customer_public_key is None:
            raise NoCustomerKey(f"{account_id} is commingled; no customer key to certify")
        ca = self._node.ca
        registration = ca.register_subject(account.subject_id, account.attributes,
                                           requested_class, now)
        cert = ca.issue_certificate(
            registration, account.customer_public_key, DEFAULT_PROFILE,
            now, now + validity_ticks, now,
        )
        account.certificate = cert
        self.enrolments += 1
        account.key_ownership_evidence = cert.fingerprint()
        self._env.log(self._node.vasp_id, "customer_enrolled",
                      account=account_id, serial=cert.serial_hex)
        return cert

    def by_key_hash(self, key_hash: bytes) -> Optional[Account]:
        """The account whose customer key hashes to ``key_hash``, if any."""
        account_id = self._accounts_by_key_hash.get(key_hash)
        return self.accounts.get(account_id) if account_id else None

    def subject_certificate(self, account: Account) -> Optional[Certificate]:
        """The certificate binding the account's on-chain key: the customer's,
        or this VASP's own for a commingled pool."""
        if account.custody_model is CustodyModel.COMMINGLED:
            return self._node.certificate
        return account.certificate

    def known_keys(self) -> frozenset[bytes]:
        """This node's own key and every account's customer key; replaced,
        never mutated, by ``open_account``."""
        return self._known_keys

    def disclose(self, subject_id: str, subject_cert: Certificate,
                 registered: Mapping[str, str], now: int) -> AttributeAssertion:
        """The part of ``registered`` the disclosure policy passes on, signed
        once per subject: the assertion signed about a subject is returned
        again while the certificate, the policy and the disclosed attributes
        equal those it was signed over. Every call validates the certificate
        first, so a revoked or expired one raises ``SubjectCertInvalid`` as a
        fresh signing would. A miss draws one id, the new assertion's."""
        validate = self._node.validate
        policy = self.disclosure_policy
        held = self._held_disclosures.get(subject_id)
        if held is not None and held.covers(subject_cert, policy, registered):
            require_valid_subject(subject_cert, validate)
            return held.assertion
        assertion = issue_assertion(
            self._keypair, self._node.vasp_id, subject_id, subject_cert, registered, registered,
            validate, fresh_id(self._rng, ASSERTION_ID_LEN), now, policy=policy)
        self._held_disclosures[subject_id] = HeldDisclosure(subject_cert, policy, assertion)
        return assertion

    def customer_assertion(self, account: Account, now: int) -> Optional[AttributeAssertion]:
        """The disclosure about the account's subject, or None if refused."""
        subject_cert = self.subject_certificate(account)
        if subject_cert is None:
            return None
        try:
            return self.disclose(account.subject_id, subject_cert, account.attributes, now)
        except AssertionServiceError:
            return None

    def pool_assertion(self, now: int) -> AttributeAssertion:
        """The disclosure this VASP makes about itself for its commingled pool."""
        node = self._node
        if node.certificate is None:
            raise VaspError("VASP certificate required")
        return self.disclose(node.vasp_id, node.certificate, node.vasp_attributes(), now)

    def build_transfer_tx(self, account: Optional[Account], to_public_key: bytes, amount: int,
                          asset_type: str) -> ChainTransaction:
        """Sign the on-chain transaction with the model-appropriate key; no
        account means the commingled pool."""
        nonce = fresh_id(self._rng, NONCE_LEN)
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

    def check_account_invariants(self) -> None:
        """The per-tick sweep of the accounts' key invariant: only the
        accounts filed in ``_key_writes`` since the last sweep are checked;
        one that fails stays failing until a later write makes it pass.
        While any account fails, every sweep raises the message of the first
        failing one in ``accounts`` order, so a breach is reported from the
        tick after the write and at every tick while it lasts."""
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
