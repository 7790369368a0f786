"""Certificate authority services: registration, issuance, revocation,
full-CRL publication, and lookup by public-key hash.

Certificates are X.509-style bindings of a subject identity to an Ed25519
public key, serialized with the canonical TLV encoding and signed by the
issuing CA. Chains are depth one: a self-signed root signs subject
certificates directly.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from . import crypto
from .crypto import (
    KeyPair,
    canonical_decode,
    canonical_encode,
    dec_str,
    dec_u64,
    digest,
    enc_str,
    enc_u64,
)

SERIAL_LEN = 16
SIGNATURE_ALGORITHM = "Ed25519-SHA256"

# Certificate lifetimes in ticks, each from tick 0 or from enrolment. A
# run's horizon may not pass ``ROOT_VALIDITY``, the life of every root.
ROOT_VALIDITY = 1_000_000
VASP_CERT_VALIDITY = 500_000
CUSTOMER_CERT_VALIDITY = 100_000


class CaError(Exception):
    """Base class for CA service errors."""


class InvalidValidity(CaError):
    pass


class RegistrationRejected(CaError):
    pass


class KeyAlreadyBound(CaError):
    pass


class UnknownSerial(CaError):
    pass


class AlreadyRevoked(CaError):
    pass


class CertClass(enum.IntEnum):
    """Assurance grade; higher classes require more vetted attributes."""

    CLASS1 = 1
    CLASS2 = 2
    CLASS3 = 3

    @property
    def label(self) -> str:
        return f"class{int(self)}"

    @classmethod
    def from_label(cls, label: str) -> "CertClass":
        member = _CLASS_BY_LABEL.get(label)
        if member is None:
            raise ValueError(f"unknown certificate class {label!r}")
        return member


_CLASS_BY_LABEL = {member.label: member for member in CertClass}


# Required attribute sets are cumulative: each class needs its own set plus
# everything below it.
CLASS_TABLE: dict[CertClass, frozenset[str]] = {
    CertClass.CLASS1: frozenset({"name", "email"}),
    CertClass.CLASS2: frozenset({"government_id", "address"}),
    CertClass.CLASS3: frozenset({"organization_vetting_ref"}),
}


def missing_class1_attributes(attributes: Iterable[str]) -> list[str]:
    """The Class 1 attributes that ``attributes`` lacks, sorted. A CA
    registers a subject, and a scenario enrols a customer, only if none is."""
    return sorted(CLASS_TABLE[CertClass.CLASS1].difference(attributes))


# Attributes a CA discloses alongside lookup responses. Kept to
# travel-rule-relevant identity data.
CA_DISCLOSURE = frozenset({"name", "address", "vasp_id"})


class RevocationReason(enum.Enum):
    KEY_COMPROMISE = "keyCompromise"
    AFFILIATION_CHANGED = "affiliationChanged"
    SUPERSEDED = "superseded"
    CESSATION_OF_OPERATION = "cessationOfOperation"
    UNSPECIFIED = "unspecified"


@dataclass(frozen=True)
class CertificateProfile(crypto.Record):
    """Mechanical usage constraints carried inside certificates; encoded once
    per distinct profile, not once per certificate. A CA issues two:
    ``ROOT_PROFILE`` to its root and ``DEFAULT_PROFILE`` to every subject.

    Every key is for signatures only: field 2, the key usage, is always
    ``SIGNATURE_USAGE``, and decoding refuses any other.
    """

    SIGNATURE_USAGE = b"signature"

    profile_id: str

    def tlv_fields(self) -> list[tuple[int, bytes]]:
        return [
            (1, enc_str(self.profile_id)),
            (2, self.SIGNATURE_USAGE),
        ]

    @classmethod
    def from_bytes(cls, data: bytes) -> "CertificateProfile":
        fields = dict(canonical_decode(data))
        if fields[2] != cls.SIGNATURE_USAGE:
            raise crypto.MalformedRecord(f"key usage {fields[2]!r}: only signature is granted")
        return cls(profile_id=dec_str(fields[1]))


DEFAULT_PROFILE = CertificateProfile(profile_id="vasp-default")
ROOT_PROFILE = CertificateProfile(profile_id="ca-root")


@dataclass(frozen=True)
class Certificate(crypto.Signed):
    """Signed binding of a subject identity to a public key. Its
    ``fingerprint()`` is the evidence/link hash."""

    SIGNATURE_TAG = 11

    version: int
    serial: bytes
    signature_algorithm: str
    issuer_id: str
    validity_not_before: int
    validity_not_after: int
    subject_id: str
    subject_public_key: bytes
    profile: CertificateProfile
    cert_class: CertClass
    signature: bytes = b""

    @property
    def serial_hex(self) -> str:
        return self.serial.hex()

    @property
    def public_key_hash(self) -> bytes:
        return digest(self.subject_public_key)

    def tlv_fields(self) -> list[tuple[int, bytes]]:
        return [
            (1, enc_u64(self.version)),
            (2, self.serial),
            (3, enc_str(self.signature_algorithm)),
            (4, enc_str(self.issuer_id)),
            (5, enc_u64(self.validity_not_before)),
            (6, enc_u64(self.validity_not_after)),
            (7, enc_str(self.subject_id)),
            (8, self.subject_public_key),
            (9, self.profile.to_bytes()),
            (10, enc_str(self.cert_class.label)),
        ]

    @classmethod
    def from_bytes(cls, data: bytes) -> "Certificate":
        fields = dict(canonical_decode(data))
        return cls(
            version=dec_u64(fields[1]),
            serial=fields[2],
            signature_algorithm=dec_str(fields[3]),
            issuer_id=dec_str(fields[4]),
            validity_not_before=dec_u64(fields[5]),
            validity_not_after=dec_u64(fields[6]),
            subject_id=dec_str(fields[7]),
            subject_public_key=fields[8],
            profile=CertificateProfile.from_bytes(fields[9]),
            cert_class=CertClass.from_label(dec_str(fields[10])),
            signature=fields[11],
        )


@dataclass(frozen=True)
class RegistrationRecord:
    subject_id: str
    submitted_attributes: Mapping[str, str]
    assigned_class: CertClass


@dataclass(frozen=True)
class RevocationEntry:
    serial: bytes
    reason: RevocationReason
    revoked_at: int

    def to_bytes(self) -> bytes:
        return canonical_encode([
            (1, self.serial),
            (2, enc_str(self.reason.value)),
            (3, enc_u64(self.revoked_at)),
        ])

    @classmethod
    def from_bytes(cls, data: bytes) -> "RevocationEntry":
        fields = dict(canonical_decode(data))
        return cls(
            serial=fields[1],
            reason=RevocationReason(dec_str(fields[2])),
            revoked_at=dec_u64(fields[3]),
        )


def _entries_payload(entries: Iterable[RevocationEntry]) -> bytes:
    ordered = sorted(entries, key=lambda e: e.serial)
    return crypto.encode_bytes_list(e.to_bytes() for e in ordered)


@dataclass(frozen=True)
class Crl(crypto.Signed):
    """Full revocation list; ``crl_number`` strictly increases per issuer."""

    SIGNATURE_TAG = 5

    issuer_id: str
    crl_number: int
    entries: frozenset[RevocationEntry]
    issued_at: int
    signature: bytes = b""

    def tlv_fields(self) -> list[tuple[int, bytes]]:
        return [
            (1, enc_str(self.issuer_id)),
            (2, enc_u64(self.crl_number)),
            (3, _entries_payload(self.entries)),
            (4, enc_u64(self.issued_at)),
        ]


class ValidationStatus(enum.Enum):
    VALID = "valid"
    UNKNOWN_ISSUER = "unknown-issuer"
    BAD_SIGNATURE = "bad-signature"
    EXPIRED = "expired"
    REVOKED = "revoked"


@dataclass(frozen=True)
class ValidationResult:
    status: ValidationStatus
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status is ValidationStatus.VALID


# Every valid certificate gets this one frozen result.
VALID = ValidationResult(ValidationStatus.VALID)


class RevocationView:
    """A relying party's revocation state: per issuer, the highest-numbered
    full CRL seen, its entries indexed by serial.

    A lower- or equal-numbered CRL is ignored. A CA never un-revokes and every
    CRL carries all its revoked serials, so adopting a newer one only ever
    adds serials. A relying party fetches the lists from their issuing CAs
    (RFC 5280 section 4.2.1.13).
    """

    def __init__(self) -> None:
        # issuer id -> (CRL number, revoked entries by serial)
        self._held: dict[str, tuple[int, Mapping[bytes, RevocationEntry]]] = {}

    def crl_number(self, issuer_id: str) -> int:
        held = self._held.get(issuer_id)
        return held[0] if held is not None else 0

    def revocation_entry(self, issuer_id: str, serial: bytes) -> Optional[RevocationEntry]:
        held = self._held.get(issuer_id)
        return held[1].get(serial) if held is not None else None

    def is_revoked(self, issuer_id: str, serial: bytes) -> bool:
        return self.revocation_entry(issuer_id, serial) is not None

    def merge_crl(self, crl: Crl) -> bool:
        """Adopt a full CRL if newer than the held number; true if adopted."""
        if crl.crl_number <= self.crl_number(crl.issuer_id):
            return False
        self._held[crl.issuer_id] = (crl.crl_number, {e.serial: e for e in crl.entries})
        return True


def validate_certificate(
    cert: Certificate,
    trust_anchors: Mapping[str, Certificate],
    now: int,
    revocation: Optional[RevocationView] = None,
) -> ValidationResult:
    """Validate a certificate against root anchors at the given tick.

    Checks run in a fixed order and the first failure wins: unknown issuer,
    bad signature, expired, revoked.
    """
    anchor = trust_anchors.get(cert.issuer_id)
    if anchor is None:
        return ValidationResult(ValidationStatus.UNKNOWN_ISSUER, cert.issuer_id)
    if not crypto.check(anchor.subject_public_key, cert):
        return ValidationResult(ValidationStatus.BAD_SIGNATURE)
    if not cert.validity_not_before <= now <= cert.validity_not_after:
        return ValidationResult(ValidationStatus.EXPIRED, f"now={now}")
    entry = None if revocation is None else revocation.revocation_entry(cert.issuer_id, cert.serial)
    if entry is not None:
        return ValidationResult(ValidationStatus.REVOKED, entry.reason.value)
    return VALID


@dataclass(frozen=True)
class CertificateLookup:
    """Response to a lookup-by-public-key: certificate plus shared attributes.

    A revoked subject's certificate is still returned, flagged, so the
    querying VASP holds evidence to refuse the transfer.
    """

    certificate: Certificate
    attributes: Mapping[str, str]
    revoked: bool


@dataclass
class _IssuedRecord:
    certificate: Certificate
    registration: RegistrationRecord


class CertificateAuthority:
    """One CA instance: a single logical actor over its own issuance state."""

    def __init__(self, ca_id: str, keypair: KeyPair, rng: random.Random) -> None:
        self.ca_id = ca_id
        self._keypair = keypair
        self._rng = rng
        self.root_certificate: Optional[Certificate] = None
        self._issued: dict[bytes, _IssuedRecord] = {}
        self._by_key_hash: dict[bytes, list[bytes]] = {}
        self._revoked: dict[bytes, RevocationEntry] = {}
        self._crl_number = 0
        # The last full CRL issued, while no revocation has come after it.
        self._crl: Optional[Crl] = None

    # -- issuance ----------------------------------------------------------

    def self_sign_root(self, validity_not_before: int, validity_not_after: int) -> Certificate:
        """Mint the CA's own root certificate (issuer == subject)."""
        if validity_not_before >= validity_not_after:
            raise InvalidValidity("not_before must precede not_after")
        cert = self._build_certificate(
            issuer_id=self.ca_id,
            subject_id=self.ca_id,
            subject_public_key=self._keypair.public_key,
            profile=ROOT_PROFILE,
            cert_class=CertClass.CLASS3,
            validity=(validity_not_before, validity_not_after),
        )
        self.root_certificate = cert
        return cert

    def register_subject(
        self,
        subject_id: str,
        submitted_attributes: Mapping[str, str],
        requested_class: CertClass,
    ) -> RegistrationRecord:
        """Vet submitted attributes and assign the highest attainable class.

        A request above the attainable class is downgraded, not rejected;
        failing even Class 1 requirements rejects the registration.
        """
        missing = missing_class1_attributes(submitted_attributes)
        if missing:
            raise RegistrationRejected("missing mandatory attributes: " + ",".join(missing))
        assigned = CertClass.CLASS1
        cumulative: set[str] = set()
        for cls in CertClass:
            cumulative |= CLASS_TABLE[cls]
            if cumulative <= set(submitted_attributes) and cls <= requested_class:
                assigned = cls
        return RegistrationRecord(
            subject_id=subject_id,
            submitted_attributes=dict(submitted_attributes),
            assigned_class=assigned,
        )

    def issue_certificate(
        self,
        registration: RegistrationRecord,
        subject_public_key: bytes,
        validity_not_before: int,
        validity_not_after: int,
        now: int,
    ) -> Certificate:
        """Issue a signed certificate, of ``DEFAULT_PROFILE``, binding the
        registered subject to a key.

        A key live-bound to a different subject is refused. Re-issuing for the
        same subject supersedes (revokes) the previous live certificate so the
        live binding stays unique per key.
        """
        if self.root_certificate is None:
            raise CaError("root certificate not initialized")
        if validity_not_before >= validity_not_after:
            raise InvalidValidity("not_before must precede not_after")
        key_hash = digest(subject_public_key)
        for serial in self._by_key_hash.get(key_hash, []):
            existing = self._issued[serial].certificate
            if not self._is_live(existing, now):
                continue
            if existing.subject_id != registration.subject_id:
                raise KeyAlreadyBound(
                    f"key already bound to subject {existing.subject_id!r}"
                )
            self.revoke(serial, RevocationReason.SUPERSEDED, now)
        cert = self._build_certificate(
            issuer_id=self.ca_id,
            subject_id=registration.subject_id,
            subject_public_key=subject_public_key,
            profile=DEFAULT_PROFILE,
            cert_class=registration.assigned_class,
            validity=(validity_not_before, validity_not_after),
        )
        self._issued[cert.serial] = _IssuedRecord(cert, registration)
        self._by_key_hash.setdefault(key_hash, []).append(cert.serial)
        return cert

    def _build_certificate(
        self,
        issuer_id: str,
        subject_id: str,
        subject_public_key: bytes,
        profile: CertificateProfile,
        cert_class: CertClass,
        validity: tuple[int, int],
    ) -> Certificate:
        return crypto.seal(self._keypair, Certificate(
            version=3,
            serial=self._fresh_serial(),
            signature_algorithm=SIGNATURE_ALGORITHM,
            issuer_id=issuer_id,
            validity_not_before=validity[0],
            validity_not_after=validity[1],
            subject_id=subject_id,
            subject_public_key=subject_public_key,
            profile=profile,
            cert_class=cert_class,
        ))

    def _fresh_serial(self) -> bytes:
        while True:
            serial = self._rng.getrandbits(SERIAL_LEN * 8).to_bytes(SERIAL_LEN, "big")
            if serial not in self._issued:
                return serial

    def _is_live(self, cert: Certificate, now: int) -> bool:
        return cert.serial not in self._revoked and now <= cert.validity_not_after

    # -- revocation and status ---------------------------------------------

    def revoke(self, serial: bytes, reason: RevocationReason, now: int) -> RevocationEntry:
        # Only issued certificates: a root is a trust anchor, trusted out of
        # band, and path validation never checks it against a CRL (RFC 5280
        # section 6.1.1(d)).
        if serial not in self._issued:
            raise UnknownSerial(serial.hex())
        if serial in self._revoked:
            raise AlreadyRevoked(serial.hex())
        entry = RevocationEntry(serial=serial, reason=reason, revoked_at=now)
        self._revoked[serial] = entry
        self._crl = None
        return entry

    def current_crl(self, now: int) -> Crl:
        """The CA's published CRL: the last one issued, or a new one if a
        revocation came after it or none was issued yet. Every fetch between
        two revocations gets the same object."""
        if self._crl is None:
            return self.generate_crl(now)
        return self._crl

    def generate_crl(self, now: int) -> Crl:
        """Issue the next full CRL; it becomes the ``current_crl``."""
        self._crl_number += 1
        self._crl = crypto.seal(self._keypair, Crl(
            issuer_id=self.ca_id,
            crl_number=self._crl_number,
            entries=frozenset(self._revoked.values()),
            issued_at=now,
        ))
        return self._crl

    # -- lookup --------------------------------------------------------------

    def find_certificate_by_key_hash(self, key_hash: bytes, now: int) -> Optional[CertificateLookup]:
        """Search the issuance database for a key; revoked matches are flagged."""
        serials = self._by_key_hash.get(key_hash, [])
        if not serials:
            return None
        live = [s for s in serials if self._is_live(self._issued[s].certificate, now)]
        serial = live[-1] if live else serials[-1]
        record = self._issued[serial]
        shared = {
            k: v
            for k, v in sorted(record.registration.submitted_attributes.items())
            if k in CA_DISCLOSURE
        }
        return CertificateLookup(certificate=record.certificate, attributes=shared,
                                 revoked=serial in self._revoked)
