"""Deterministic crypto primitives and the canonical byte encoding.

Every signed structure in the stack serializes through ``canonical_encode``
so signatures and digests are bit-exact across runs. Signatures are Ed25519
(deterministic, 64 bytes); digests are SHA-256 (32 bytes). Key generation is
seeded, never from OS randomness, so simulations replay exactly.

Ed25519 runs in the system libsodium (1.0.18 or later), bound through
``ctypes``: ``crypto_sign_seed_keypair`` derives a key,
``crypto_sign_detached`` signs and ``crypto_sign_verify_detached`` verifies.
The library is loaded once, at import, from a fixed list of names
(``SODIUM_NAMES``); if none loads or ``sodium_init`` fails, importing this
module raises ``ImportError``. Its keys and signatures are byte for byte
those of RFC 8032, so every digest matches any other conforming
implementation. Its verdicts are stricter than OpenSSL's on crafted input:
it rejects public keys and signature ``R`` values of small order and
non-canonical point encodings, which no honestly derived key or signature
contains. Every argument is checked for type and length in Python before a
pointer reaches C, and each call allocates its own output buffer: ``ctypes``
releases the interpreter lock for the call, so a buffer shared between calls
could be written by two threads at once.

Each key is derived once. ``generate_keypair`` and ``sign`` share one bounded
cache of libsodium's 64-byte secret keys (the seed, then the public key),
keyed by the seed's ``bytes`` and holding at most ``KEY_CACHE_SIZE`` keys,
least recently used evicted first. A malformed seed raises ``InvalidSeed``
before the cache is consulted and so is never cached. ``verify`` hands the
32-byte public key to libsodium as it is and caches nothing.

Every signed object follows one rule, X.509's to-be-signed body plus a
signature (RFC 5280 section 4.1). A frozen ``Signed`` type declares its signed
fields once, as TLV pairs in ``tlv_fields``, and keeps its signature in the
field ``signature``. ``seal`` signs an unsigned draft and ``check`` verifies a
signed object, through ``sign`` and ``verify``. A type with a
``SIGNATURE_TAG`` also has a full-bytes form, the payload followed by the
signature under that tag, and a ``fingerprint``, the digest of those bytes.
The payload, full bytes and fingerprint come from one memo keyed by the
frozen object itself: equal fields of one type, equal bytes. Nothing is
stored on the instance, so a copy with one field changed is another key and
gets its own bytes, and two types with equal field values are never equal.
The memo holds at most ``ENCODING_MEMO_SIZE`` objects, least recently used
evicted first. ``seal`` stores the payload it signed as the sealed object's,
so no signed object is encoded twice; the draft itself is kept out of the
memo, since it is never read again. A ``Record`` (a directory entry) is
encoded through the same memo, unsigned, and so is a certificate profile.

The same memo entry remembers the public keys the object's signature has
verified under. Peers check the same certificates, assertions, notices, acks
and directory entries again on every transfer, so most checks repeat one
already made; ``check`` runs ``verify``, a plain Ed25519 verification, only
for a key the entry does not hold. Only a success is recorded, and only for
a key of type ``bytes``; any other key bypasses the memo. This is sound
because Ed25519 verification is deterministic (RFC 8032 section 5.1.7): the
same key, payload and signature always get the same verdict, and the entry
belongs to one frozen object, so to one payload and one signature. The memo
caches only the signature check; certificate validity, revocation, expiry
and policy are still evaluated by every caller.

``canonical_encode`` is the most-called function of the stack. It packs each
field header with one precompiled ``struct.Struct`` and joins the parts once
at the end. Field by field it checks tag order (``NonCanonicalOrder``), then
tag range, then value length (both ``MalformedRecord``).
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import struct
from dataclasses import dataclass
from typing import ClassVar, Iterable, Mapping, Optional, Sequence, TypeVar

HASH_LEN = 32
KEY_LEN = 32
SECRET_KEY_LEN = 64
SIGNATURE_LEN = 64

# Above the objects any benchmark workload encodes or seals, drafts excluded
# (seed 7, whole run: 2,933 on churn-lossy, 2,707 on mesh, 1,667 on
# pipeline), so a run's working set stays resident.
ENCODING_MEMO_SIZE = 4096

# Above the distinct keys any benchmark workload derives (seed 7, whole run:
# 844 on mesh, 144 on churn-lossy, 48 on pipeline), so each key is derived
# once a run.
KEY_CACHE_SIZE = 4096

# libsodium's shared library on Linux (1.0.18 and 1.0.19 or later), macOS
# and Windows, tried in this order.
SODIUM_NAMES = ("libsodium.so.23", "libsodium.so.26", "libsodium.dylib", "libsodium.dll")
SODIUM_MIN_VERSION = (1, 0, 18)


class CryptoError(Exception):
    """Base class for crypto and encoding failures."""


class InvalidSeed(CryptoError):
    """Seed or private key material has the wrong length."""


class NonCanonicalOrder(CryptoError):
    """Record field tags are not strictly increasing."""


class MalformedRecord(CryptoError):
    """Byte string is not a valid canonical record encoding."""


def _load_sodium(names: Sequence[str] = SODIUM_NAMES) -> ctypes.CDLL:
    """The first of ``names`` that loads, initialised and with the Ed25519
    functions declared; ``ImportError`` if none loads, ``sodium_init`` fails
    or the library is older than ``SODIUM_MIN_VERSION``."""
    for name in names:
        try:
            sodium = ctypes.CDLL(name)
        except OSError:
            continue
        break
    else:
        raise ImportError(
            f"vaspnet.crypto needs libsodium >= 1.0.18; none of {', '.join(names)} loads"
            " (install libsodium23 on Debian or Ubuntu, libsodium with Homebrew)")
    sodium.sodium_init.argtypes = []
    sodium.sodium_init.restype = ctypes.c_int
    if sodium.sodium_init() < 0:
        raise ImportError(f"libsodium ({name}) failed to initialise")
    sodium.sodium_version_string.argtypes = []
    sodium.sodium_version_string.restype = ctypes.c_char_p
    version = sodium.sodium_version_string().decode()
    if tuple(int(part) for part in version.split(".")[:3]) < SODIUM_MIN_VERSION:
        raise ImportError(f"vaspnet.crypto needs libsodium >= 1.0.18, {name} is {version}")
    ull = ctypes.c_ulonglong
    for function, argtypes in (
        # (pk, sk, seed)
        (sodium.crypto_sign_seed_keypair, [ctypes.c_char_p] * 3),
        # (sig, siglen_p, m, mlen, sk)
        (sodium.crypto_sign_detached,
         [ctypes.c_char_p, ctypes.POINTER(ull), ctypes.c_char_p, ull, ctypes.c_char_p]),
        # (sig, m, mlen, pk)
        (sodium.crypto_sign_verify_detached,
         [ctypes.c_char_p, ctypes.c_char_p, ull, ctypes.c_char_p]),
    ):
        function.argtypes = argtypes
        function.restype = ctypes.c_int
    return sodium


_sodium = _load_sodium()
SODIUM_VERSION: str = _sodium.sodium_version_string().decode()
_seed_keypair = _sodium.crypto_sign_seed_keypair
_sign_detached = _sodium.crypto_sign_detached
_verify_detached = _sodium.crypto_sign_verify_detached


def _as_bytes(value) -> Optional[bytes]:
    """``value`` as ``bytes`` if it is bytes-like, else None. Only what this
    returns is passed to C: an ``int`` given for a ``char *`` would be taken
    for an address."""
    if type(value) is bytes:
        return value
    if isinstance(value, (bytes, bytearray, memoryview)):
        return bytes(value)
    return None


def _seed(value) -> bytes:
    """``value`` as a 32-byte seed, or ``InvalidSeed``."""
    seed = _as_bytes(value)
    if seed is None or len(seed) != KEY_LEN:
        raise InvalidSeed(f"seed must be exactly {KEY_LEN} bytes")
    return seed


@dataclass(frozen=True)
class KeyPair:
    """Ed25519 keypair; ``private_key`` is the 32-byte seed."""

    public_key: bytes
    private_key: bytes

    @property
    def public_key_hash(self) -> bytes:
        return digest(self.public_key)


def generate_keypair(seed: bytes) -> KeyPair:
    """Derive an Ed25519 keypair from a 32-byte seed, deterministically."""
    seed = _seed(seed)
    return KeyPair(public_key=_private_key(seed)[KEY_LEN:], private_key=seed)


def keypair_from_label(namespace: str, label: str) -> KeyPair:
    """Derive a keypair from a string label (seed = SHA-256 of the label).

    Used by the harness so actor keys depend only on (seed, name), not on
    construction order.
    """
    return generate_keypair(digest(f"{namespace}:{label}".encode()))


@functools.lru_cache(maxsize=KEY_CACHE_SIZE)
def _private_key(seed: bytes) -> bytes:
    """libsodium's 64-byte secret key for a 32-byte ``seed``: the seed, then
    the public key."""
    public = ctypes.create_string_buffer(KEY_LEN)
    secret = ctypes.create_string_buffer(SECRET_KEY_LEN)
    if _seed_keypair(public, secret, seed) != 0:
        raise CryptoError("crypto_sign_seed_keypair failed")
    return secret.raw


def sign(private_key: bytes | KeyPair, message: bytes) -> bytes:
    """Produce the 64-byte deterministic Ed25519 signature."""
    if isinstance(private_key, KeyPair):
        private_key = private_key.private_key
    seed = _seed(private_key)
    data = _as_bytes(message)
    if data is None:
        raise TypeError(f"message must be bytes, not {type(message).__name__}")
    signature = ctypes.create_string_buffer(SIGNATURE_LEN)
    if _sign_detached(signature, None, data, len(data), _private_key(seed)) != 0:
        raise CryptoError("crypto_sign_detached failed")
    return signature.raw


def verify(public_key: bytes, message: bytes, signature: bytes) -> bool:
    """True iff ``signature`` is valid for (public_key, message).

    Malformed inputs of any kind return False; this never raises.
    """
    public_key = _as_bytes(public_key)
    message = _as_bytes(message)
    signature = _as_bytes(signature)
    if (public_key is None or message is None or signature is None
            or len(public_key) != KEY_LEN or len(signature) != SIGNATURE_LEN):
        return False
    return _verify_detached(signature, message, len(message), public_key) == 0


def digest(data: bytes) -> bytes:
    """SHA-256 of the input (32 bytes)."""
    return hashlib.sha256(data).digest()


# ---------------------------------------------------------------------------
# Canonical TLV records
# ---------------------------------------------------------------------------
# Layout per field: tag as 2-byte big-endian, value length as 4-byte
# big-endian, value bytes. Tags strictly increasing within a record, which
# makes the encoding injective and order-canonical.

_MAX_TAG = 0xFFFF
_MAX_LEN = 0xFFFFFFFF
FIELD_HEADER = struct.Struct(">HI")


def canonical_encode(fields: Sequence[tuple[int, bytes]]) -> bytes:
    parts: list[bytes] = []
    append = parts.append
    pack_header = FIELD_HEADER.pack
    prev = -1
    for tag, value in fields:
        if tag <= prev:
            raise NonCanonicalOrder(f"tag {tag} after {prev}")
        if not 0 <= tag <= _MAX_TAG:
            raise MalformedRecord(f"tag {tag} out of range")
        length = len(value)
        if length > _MAX_LEN:
            raise MalformedRecord("value too long")
        append(pack_header(tag, length))
        append(value)
        prev = tag
    return b"".join(parts)


def canonical_decode(data: bytes) -> list[tuple[int, bytes]]:
    """Inverse of canonical_encode; rejects anything encode cannot emit."""
    fields: list[tuple[int, bytes]] = []
    pos = 0
    prev = -1
    while pos < len(data):
        if pos + 6 > len(data):
            raise MalformedRecord("truncated field header")
        tag, length = FIELD_HEADER.unpack_from(data, pos)
        pos += 6
        if pos + length > len(data):
            raise MalformedRecord("truncated field value")
        if tag <= prev:
            raise NonCanonicalOrder(f"tag {tag} after {prev}")
        fields.append((tag, bytes(data[pos:pos + length])))
        pos += length
        prev = tag
    return fields


def enc_u64(value: int) -> bytes:
    if value < 0:
        raise MalformedRecord("unsigned field is negative")
    return struct.pack(">Q", value)


def dec_u64(data: bytes) -> int:
    if len(data) != 8:
        raise MalformedRecord("u64 field must be 8 bytes")
    return struct.unpack(">Q", data)[0]


def enc_str(value: str) -> bytes:
    return value.encode("utf-8")


def dec_str(data: bytes) -> str:
    return data.decode("utf-8")


def encode_str_map(mapping: Mapping[str, str]) -> bytes:
    """Encode a string map canonically: pairs sorted by key, tags 1,2,3...."""
    fields: list[tuple[int, bytes]] = []
    tag = 1
    for key in sorted(mapping):
        fields.append((tag, enc_str(key)))
        fields.append((tag + 1, enc_str(mapping[key])))
        tag += 2
    return canonical_encode(fields)


def decode_str_map(data: bytes) -> dict[str, str]:
    fields = canonical_decode(data)
    if len(fields) % 2 != 0:
        raise MalformedRecord("map encoding must have an even field count")
    out: dict[str, str] = {}
    for i in range(0, len(fields), 2):
        out[dec_str(fields[i][1])] = dec_str(fields[i + 1][1])
    return out


def encode_bytes_list(items: Iterable[bytes]) -> bytes:
    """Encode a sequence of byte strings as a record with tags 1..n."""
    return canonical_encode([(i + 1, item) for i, item in enumerate(items)])


# ---------------------------------------------------------------------------
# Signed objects
# ---------------------------------------------------------------------------


class Record:
    """A frozen dataclass encoded as one canonical TLV record, its fields
    declared once in ``tlv_fields``; its bytes come from the encoding memo."""

    def tlv_fields(self) -> list[tuple[int, bytes]]:
        raise NotImplementedError

    def to_bytes(self) -> bytes:
        return _encoding(self)[0]


class Signed(Record):
    """A frozen dataclass signed over the fields ``tlv_fields`` declares; the
    signature is its field ``signature``. A type without a ``SIGNATURE_TAG``
    has no full-bytes form."""

    SIGNATURE_TAG: ClassVar[Optional[int]] = None

    def signed_payload(self) -> bytes:
        return _encoding(self)[0]

    def to_bytes(self) -> bytes:
        encoding = _encoding(self)
        if encoding[1] is None:
            if self.SIGNATURE_TAG is None:
                raise TypeError(f"{type(self).__name__} has no full-bytes form")
            encoding[1] = encoding[0] + canonical_encode([(self.SIGNATURE_TAG, self.signature)])
        return encoding[1]

    def fingerprint(self) -> bytes:
        """Digest of the full bytes: a certificate's link hash, a transaction's
        id, an advertisement's part of a route digest."""
        encoding = _encoding(self)
        if encoding[2] is None:
            encoding[2] = digest(self.to_bytes())
        return encoding[2]


# The object ``seal`` is storing in the memo and the payload it signed. If
# another thread's seal replaces it, ``_encoding`` encodes the object itself.
_sealing: tuple[Optional[Signed], bytes] = (None, b"")


@functools.lru_cache(maxsize=ENCODING_MEMO_SIZE)
def _encoding(record: Record) -> list:
    """[payload, full bytes, fingerprint, keys its signature verified under]
    of ``record``; the full bytes and fingerprint are filled in on first use.
    The payload of the object being sealed is the one ``seal`` signed."""
    sealed, payload = _sealing
    if sealed is not record:
        payload = canonical_encode(record.tlv_fields())
    return [payload, None, None, ()]


S = TypeVar("S", bound=Signed)


def seal(private_key: bytes | KeyPair, unsigned: S) -> S:
    """``unsigned`` with ``signature`` set to the signature by ``private_key``
    over its signed fields. The draft is encoded outside the memo; the signed
    object goes into it with the payload just signed."""
    global _sealing
    payload = canonical_encode(unsigned.tlv_fields())
    sealed = type(unsigned)(**{**vars(unsigned), "signature": sign(private_key, payload)})
    _sealing = (sealed, payload)
    _encoding(sealed)
    _sealing = (None, b"")
    return sealed


def check(public_key: bytes, signed: Signed) -> bool:
    """True iff ``signed.signature`` is valid for its payload under ``public_key``."""
    encoding = _encoding(signed)
    memoised = type(public_key) is bytes
    if memoised and public_key in encoding[3]:
        return True
    if not verify(public_key, encoding[0], signed.signature):
        return False
    if memoised:
        encoding[3] += (public_key,)
    return True
