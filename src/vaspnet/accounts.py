"""Customer accounts of one VASP under three custody models: each
account's key arrangement, fixed and checked when it opens, enrolment, the
disclosures that carry key-ownership evidence, and the keys that sign on
chain."""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Mapping, Optional

from . import crypto
from .assertions import (ASSERTION_ID_LEN, AssertionServiceError, AttributeAssertion, Disclosure,
                         HeldDisclosure, build_disclosure, issue_assertion,
                         require_valid_subject)
from .ca import CUSTOMER_CERT_VALIDITY, Certificate, CertClass
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


@dataclass(frozen=True, slots=True)
class AccountKeys:
    """An account's key arrangement, fixed when the account opens. The
    constructor refuses any arrangement that breaks the rule of its custody
    model, so no account holds one; the key hash is derived here, once."""

    custody_model: CustodyModel
    customer_public_key: Optional[bytes] = None
    custodied_private_key: Optional[bytes] = None
    key_operator_evidence: Optional[KeyOperatorEvidence] = None
    customer_public_key_hash: Optional[bytes] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        key = self.customer_public_key
        if self.custody_model is CustodyModel.MEDIATED:
            if key is None or self.custodied_private_key is not None:
                raise ModelKeyMismatch("mediated accounts hold the public key only")
        elif self.custody_model is CustodyModel.KEY_CUSTODY:
            if key is None or self.custodied_private_key is None:
                raise ModelKeyMismatch("key-custody accounts hold both keys")
            if self.key_operator_evidence is None:
                raise ModelKeyMismatch("key-custody accounts carry operator evidence")
        elif key is not None or self.custodied_private_key is not None:
            raise ModelKeyMismatch("commingled accounts store no customer keys")
        object.__setattr__(self, "customer_public_key_hash",
                           digest(key) if key is not None else None)


@dataclass(slots=True)
class Account:
    """One customer account. Its ``keys`` are set once, when
    ``AccountBook.open_account`` opens it; the key fields read through them
    and have no setter. Only its certificate changes, at each enrolment."""

    account_id: str
    subject_id: str
    attributes: dict[str, str]
    keys: AccountKeys
    certificate: Optional[Certificate] = None

    custody_model = property(attrgetter("keys.custody_model"))
    customer_public_key = property(attrgetter("keys.customer_public_key"))
    custodied_private_key = property(attrgetter("keys.custodied_private_key"))
    key_operator_evidence = property(attrgetter("keys.key_operator_evidence"))
    customer_public_key_hash = property(attrgetter("keys.customer_public_key_hash"))

    @property
    def certificate_serial(self) -> Optional[bytes]:
        return self.certificate.serial if self.certificate is not None else None

    @property
    def key_ownership_evidence(self) -> Optional[bytes]:
        """The hash of the certificate binding the customer's key, if any."""
        return self.certificate.fingerprint() if self.certificate is not None else None


class AccountBook:
    """The accounts of ``node`` and the disclosures made about their
    subjects. ``keypair``, the VASP's own, signs query answers' assertions
    and pool transactions; ``rng`` is the node's one generator. The book is the one
    owner of which certificate each account holds: the directory feed reads
    the accounts' certificates, and ``enrolments``, the count of
    certificates issued, tells it when they changed."""

    def __init__(self, node, keypair: KeyPair, rng: random.Random) -> None:
        self._node = node
        self._env = node.env
        self._keypair = keypair
        self._rng = rng
        self.enrolments = 0
        self.accounts: dict[str, Account] = {}
        self._wallets: dict[str, KeyPair] = {}
        self._accounts_by_key_hash: dict[bytes, str] = {}
        self._known_keys: frozenset[bytes] = frozenset((keypair.public_key,))
        self._env.watch(keypair.public_key, node.vasp_id)
        # Subject id -> the last disclosure built about it (``disclose``).
        self._held_disclosures: dict[str, HeldDisclosure] = {}

    def open_account(self, subject_id: str, attributes: Mapping[str, str],
                     custody_model: CustodyModel, customer_wallet: Optional[KeyPair],
                     account_id: str, now: int) -> Account:
        """Open an account with the key arrangement its custody model demands
        (``AccountKeys`` refuses any other).

        Mediated accounts carry the public key of ``customer_wallet`` (the
        wallet stays with the customer; in simulation it is co-located with
        this node). Key-custody accounts get a VASP-generated keypair held in
        custody. Commingled accounts store no customer keys at all. Neither
        of the last two takes a wallet.
        """
        vasp_id = self._node.vasp_id
        if account_id in self.accounts:
            raise VaspError(f"account {account_id} already exists")

        if custody_model is CustodyModel.KEY_CUSTODY:
            if customer_wallet is not None:
                raise ModelKeyMismatch("key-custody keys are generated by the VASP")
            generated = crypto.generate_keypair(self._rng.randbytes(32))
            evidence = KeyOperatorEvidence(vasp_id, f"custody/{vasp_id}/{account_id}", now)
            keys = AccountKeys(custody_model, generated.public_key, generated.private_key, evidence)
        else:
            keys = AccountKeys(custody_model,
                               None if customer_wallet is None else customer_wallet.public_key)
        customer_public_key = keys.customer_public_key

        merged = dict(attributes)
        merged.setdefault("account_id", account_id)
        merged.setdefault("vasp_id", vasp_id)
        merged.setdefault("custody_model", custody_model.value)
        # The on-chain key for the account: the customer's, or the VASP's own
        # for commingled pools.
        onchain_key_hash = keys.customer_public_key_hash or self._keypair.public_key_hash
        merged.setdefault("public_key_hash", onchain_key_hash.hex())

        account = Account(account_id, subject_id, merged, keys)
        self.accounts[account_id] = account
        if customer_public_key is not None:
            self._accounts_by_key_hash[keys.customer_public_key_hash] = account_id
            self._known_keys = self._known_keys | {customer_public_key}
            self._env.watch(customer_public_key, vasp_id)
        if customer_wallet is not None:
            self._wallets[account_id] = customer_wallet
        self._env.log(vasp_id, "account_opened",
                      account=account_id, model=custody_model.value)
        return account

    def enroll_customer_certificate(self, account_id: str, requested_class: CertClass, now: int,
                                    validity_ticks: int = CUSTOMER_CERT_VALIDITY) -> Certificate:
        """Register and certify the account's key at the affiliated CA."""
        account = self.accounts[account_id]
        if account.customer_public_key is None:
            raise NoCustomerKey(f"{account_id} is commingled; no customer key to certify")
        ca = self._node.ca
        registration = ca.register_subject(account.subject_id, account.attributes,
                                           requested_class)
        cert = ca.issue_certificate(
            registration, account.customer_public_key, now, now + validity_ticks, now,
        )
        account.certificate = cert
        self.enrolments += 1
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
                 registered: Mapping[str, str]) -> Disclosure:
        """The ``assertions.TRAVEL_RULE_ATTRIBUTES`` of ``registered``, built
        once per subject: the disclosure built about a subject is returned
        again while the certificate and the disclosed attributes equal those
        it was built over. Every call validates the certificate first, so a
        revoked or expired one raises ``SubjectCertInvalid`` as a fresh
        disclosure would. It draws no id."""
        validate = self._node.validate
        held = self._held_disclosures.get(subject_id)
        if held is not None and held.covers(subject_cert, registered):
            require_valid_subject(subject_cert, validate)
            return held.disclosure
        disclosure = build_disclosure(subject_id, subject_cert, registered, validate)
        self._held_disclosures[subject_id] = HeldDisclosure(subject_cert, disclosure)
        return disclosure

    def customer_disclosure(self, account: Account) -> Optional[Disclosure]:
        """The disclosure about the account's subject, or None if refused."""
        subject_cert = self.subject_certificate(account)
        if subject_cert is None:
            return None
        try:
            return self.disclose(account.subject_id, subject_cert, account.attributes)
        except AssertionServiceError:
            return None

    def customer_assertion(self, account: Account, now: int) -> Optional[AttributeAssertion]:
        """The signed form of ``customer_disclosure``, for a query answer, or
        None if refused. It is signed, drawing its one id, the first time
        the disclosure is asked for in this form."""
        disclosure = self.customer_disclosure(account)
        if disclosure is None:
            return None
        held = self._held_disclosures[account.subject_id]
        if held.assertion is None:
            held.assertion = issue_assertion(self._keypair, self._node.vasp_id, disclosure,
                                             fresh_id(self._rng, ASSERTION_ID_LEN), now)
        return held.assertion

    def pool_disclosure(self) -> Disclosure:
        """The disclosure this VASP makes about itself for its commingled pool."""
        node = self._node
        if node.certificate is None:
            raise VaspError("VASP certificate required")
        return self.disclose(node.vasp_id, node.certificate, node.vasp_attributes())

    def build_transfer_tx(self, account: Optional[Account], to_public_key: bytes, amount: int,
                          asset_type: str) -> ChainTransaction:
        """Sign the on-chain transaction with the model-appropriate key; no
        account means the commingled pool."""
        nonce = fresh_id(self._rng, NONCE_LEN)
        if account is None or account.custody_model is CustodyModel.COMMINGLED:
            return build_transaction(self._keypair, self._keypair.public_key,
                                     to_public_key, amount, asset_type, nonce)
        if account.custody_model is CustodyModel.KEY_CUSTODY:
            return build_transaction(account.custodied_private_key, account.customer_public_key,
                                     to_public_key, amount, asset_type, nonce)
        wallet = self._wallets.get(account.account_id)
        if wallet is None:
            raise KeyUnavailable(f"no co-located wallet for {account.account_id}")
        return build_transaction(wallet, wallet.public_key,
                                 to_public_key, amount, asset_type, nonce)
