"""Customer disclosures, hash-linked to certificates, and their signed form.

A ``Disclosure`` carries a subject's ``TRAVEL_RULE_ATTRIBUTES`` and links to
the subject's public-key certificate by the digest of the full certificate
bytes. It is unsigned: it travels inside a transfer notice or ack, whose one
signature by the discloser covers it and binds it to that transfer, as an
identity payload travels inside the secured envelope that carries it.
``build_disclosure`` builds one about a subject whose certificate validates.

A query answer names no transfer, so it carries an ``AttributeAssertion``,
the signed form of a disclosure: ``issue_assertion`` signs it and
``verify_assertion`` checks it. An assertion is an attribute certificate in
the sense of RFC 5755: it names no recipient, and it is valid while the
certificate it links to validates. ``filter_attributes`` re-discloses an
assertion already held.

A VASP holds one disclosure per subject (``HeldDisclosure``) and hands it
out again until the certificate or the disclosed attributes change; every
use still validates the certificate. Its signed form is made once, when a
query answer first needs it. Reusing either exposes no identifier beyond the
disclosed ``public_key_hash``: a repeated ``assertion_id`` links answers that
the key hash, and the linked certificate digest every disclosure about the
subject carries, already link.

A disclosure's attributes are a ``FrozenAttributes``, immutable and
hashable, so the encoding memo's key covers every field.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Optional

from . import crypto
from .ca import Certificate, ValidationResult
from .crypto import (
    KeyPair,
    canonical_decode,
    dec_str,
    dec_u64,
    decode_str_map,
    enc_str,
    enc_u64,
    encode_str_map,
)

ASSERTION_ID_LEN = 16

# The attribute names a travel-rule disclosure carries, and the only ones
# any disclosure carries. Amounts and execution dates travel in the transfer
# notice, not in the identity assertion.
TRAVEL_RULE_ATTRIBUTES = frozenset(
    {"name", "account_id", "address", "vasp_id", "public_key_hash", "custody_model"}
)

# The floor every beneficiary VASP insists on; address is disclosed when
# known but not every registration carries one.
REQUIRED_TRAVEL_RULE_CORE = frozenset(
    {"name", "account_id", "vasp_id", "public_key_hash", "custody_model"}
)


class AssertionServiceError(Exception):
    pass


class SubjectCertInvalid(AssertionServiceError):
    pass


class EmptyDisclosure(AssertionServiceError):
    pass


def require_valid_subject(
    subject_certificate: Certificate,
    validator: Callable[[Certificate], ValidationResult],
) -> None:
    """Raise ``SubjectCertInvalid`` unless the subject certificate validates."""
    result = validator(subject_certificate)
    if not result.ok:
        raise SubjectCertInvalid(f"{result.status.value}: {result.detail}")


class FrozenAttributes(Mapping[str, str]):
    """An immutable, hashable attribute map; equal to any mapping with the
    same items."""

    __slots__ = ("_items", "_hash")

    def __init__(self, items: Mapping[str, str]) -> None:
        self._items = dict(items)
        self._hash: Optional[int] = None

    def __getitem__(self, key: str) -> str:
        return self._items[key]

    def __iter__(self) -> Iterator[str]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FrozenAttributes):
            return self._items == other._items
        if isinstance(other, Mapping):
            return self._items == other
        return NotImplemented

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._items.items()))
        return self._hash

    def __repr__(self) -> str:
        return f"FrozenAttributes({self._items!r})"


@dataclass(frozen=True)
class Disclosure(crypto.Record):
    """The disclosed attributes of a subject and the digest of the
    certificate they are about; unsigned, so signed by what carries it."""

    subject_id: str
    linked_certificate_hash: bytes
    attributes: Mapping[str, str]

    def __post_init__(self) -> None:
        if not isinstance(self.attributes, FrozenAttributes):
            object.__setattr__(self, "attributes", FrozenAttributes(self.attributes))

    def tlv_fields(self) -> list[tuple[int, bytes]]:
        return [
            (1, enc_str(self.subject_id)),
            (2, self.linked_certificate_hash),
            (3, encode_str_map(self.attributes)),
        ]


@dataclass(frozen=True)
class AttributeAssertion(crypto.Signed):
    """A disclosure signed by ``issuer_vasp_id`` under its own id and tick."""

    SIGNATURE_TAG = 7

    assertion_id: bytes
    issuer_vasp_id: str
    disclosure: Disclosure
    issued_at: int
    signature: bytes = b""

    def tlv_fields(self) -> list[tuple[int, bytes]]:
        return [
            (1, self.assertion_id),
            (2, enc_str(self.issuer_vasp_id)),
            (3, self.disclosure.to_bytes()),
            (4, enc_u64(self.issued_at)),
        ]

    @classmethod
    def from_bytes(cls, data: bytes) -> "AttributeAssertion":
        fields = dict(canonical_decode(data))
        disclosed = dict(canonical_decode(fields[3]))
        return cls(
            assertion_id=fields[1],
            issuer_vasp_id=dec_str(fields[2]),
            disclosure=Disclosure(dec_str(disclosed[1]), disclosed[2],
                                  decode_str_map(disclosed[3])),
            issued_at=dec_u64(fields[4]),
            signature=fields[7],
        )


def build_disclosure(
    subject_id: str,
    subject_certificate: Certificate,
    attributes: Mapping[str, str],
    validator: Callable[[Certificate], ValidationResult],
) -> Disclosure:
    """The ``TRAVEL_RULE_ATTRIBUTES`` of ``attributes``, the subject's
    registered ones, about a certified subject.

    The subject certificate must validate; then an empty disclosure raises
    ``EmptyDisclosure``.
    """
    require_valid_subject(subject_certificate, validator)
    return Disclosure(subject_id, subject_certificate.fingerprint(),
                      _disclosed(attributes, TRAVEL_RULE_ATTRIBUTES))


def issue_assertion(
    signing_key: KeyPair,
    issuer_vasp_id: str,
    disclosure: Disclosure,
    assertion_id: bytes,
    issued_at: int,
) -> AttributeAssertion:
    """``disclosure`` signed once, as it is. ``assertion_id`` is the id the
    new assertion carries; a VASP draws it only when it signs, not when it
    hands out a held assertion."""
    return crypto.seal(signing_key, AttributeAssertion(
        assertion_id=assertion_id, issuer_vasp_id=issuer_vasp_id, disclosure=disclosure,
        issued_at=issued_at,
    ))


def verify_assertion(
    assertion: AttributeAssertion,
    issuer_vasp_certificate: Certificate,
    subject_certificate: Certificate,
    validator: Callable[[Certificate], ValidationResult],
) -> bool:
    """True iff the signature, the certificate link, and the issuer cert all hold."""
    if not crypto.check(issuer_vasp_certificate.subject_public_key, assertion):
        return False
    if assertion.disclosure.linked_certificate_hash != subject_certificate.fingerprint():
        return False
    return validator(issuer_vasp_certificate).ok


def filter_attributes(
    assertion: AttributeAssertion,
    allowed: frozenset[str],
    signing_key: KeyPair,
    discloser_vasp_id: str,
    assertion_id: bytes,
    issued_at: int,
) -> AttributeAssertion:
    """Produce a new assertion restricted to the ``allowed`` attribute names.

    The output is re-signed by the discloser; the input is untouched. An empty
    intersection is an error rather than an empty disclosure.
    """
    disclosed = assertion.disclosure
    return issue_assertion(
        signing_key, discloser_vasp_id,
        Disclosure(disclosed.subject_id, disclosed.linked_certificate_hash,
                   _disclosed(disclosed.attributes, allowed)),
        assertion_id, issued_at,
    )


@dataclass
class HeldDisclosure:
    """A disclosure, the certificate it was built about and, once a query
    answer needed it, its signed form.

    The holder may hand ``disclosure`` and ``assertion`` out again, instead
    of building new ones, while ``covers`` holds and ``certificate`` still
    validates.
    """

    certificate: Certificate
    disclosure: Disclosure
    assertion: Optional[AttributeAssertion] = None

    def covers(self, certificate: Certificate, registered: Mapping[str, str]) -> bool:
        """True iff ``disclosure`` was built about ``certificate``, over
        exactly the ``TRAVEL_RULE_ATTRIBUTES`` of ``registered``."""
        return (
            self.certificate == certificate
            and self.disclosure.attributes == _kept(registered, TRAVEL_RULE_ATTRIBUTES)
        )


def _kept(attributes: Mapping[str, str], allowed: frozenset[str]) -> dict[str, str]:
    return {k: v for k, v in attributes.items() if k in allowed}


def _disclosed(attributes: Mapping[str, str], allowed: frozenset[str]) -> dict[str, str]:
    kept = _kept(attributes, allowed)
    if not kept:
        raise EmptyDisclosure(f"no overlap between {sorted(attributes)} and {sorted(allowed)}")
    return kept

