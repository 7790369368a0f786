"""Crypto primitives against published vectors and an independent oracle.

Expected values below were cross-checked before the build against two
independent Ed25519 implementations (the cryptography library and the pure
Python reference in ed25519_ref.py) and against the published RFC 8032 /
FIPS 180 vectors. ``vaspnet.crypto`` runs Ed25519 in libsodium;
``TestLibsodiumBackend`` checks it against the cryptography library's OpenSSL.
"""

import os
import random
import struct
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, fields, replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ed25519_ref
import vaspnet
from conftest import count_calls
from vaspnet import crypto
from vaspnet.assertions import AttributeAssertion, Disclosure
from vaspnet.ca import (
    DEFAULT_PROFILE,
    CertClass,
    Certificate,
    Crl,
    RevocationEntry,
    RevocationReason,
)
from vaspnet.chain import ChainTransaction
from vaspnet.crypto import (
    CryptoError,
    InvalidSeed,
    MalformedRecord,
    NonCanonicalOrder,
    SIGNATURE_LEN,
    canonical_decode,
    canonical_encode,
    decode_str_map,
    digest,
    encode_str_map,
    generate_keypair,
    sign,
    verify,
)
from vaspnet.harness import Simulation
from vaspnet.network import (
    DirectoryAnnounce,
    DirectoryDelta,
    DirectoryEntry,
    DirectorySnapshot,
    ReachabilityAdvertisement,
    RouteDigest,
)
from vaspnet.cli import load_scenario
from vaspnet.transfer import AckDecision, BeneficiaryRef, TransferAck, TransferNotice

# RFC 8032 section 7.1, tests 1-3: (secret, public, message, signature)
RFC8032_VECTORS = [
    ("9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
     "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a",
     "",
     "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e065224901555fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b"),
    ("4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb",
     "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c",
     "72",
     "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00"),
    ("c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7",
     "fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025",
     "af82",
     "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a"),
]

# Public key for the all-zero 32-byte seed, from the standard test-vector suite.
ZERO_SEED_PUBLIC = "3b6a27bcceb6a42d62a3a8d02a6f0d73653215771de243a63ac048a18b59da29"

# FIPS 180-4 / NIST example digests.
SHA256_VECTORS = [
    (b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
    (b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
     "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"),
]


class TestKeypairs:
    def test_zero_seed_matches_published_public_key(self):
        pair = generate_keypair(bytes(32))
        assert pair.public_key.hex() == ZERO_SEED_PUBLIC

    @pytest.mark.parametrize("sk_hex,pk_hex,msg_hex,sig_hex", RFC8032_VECTORS)
    def test_rfc8032_vectors(self, sk_hex, pk_hex, msg_hex, sig_hex):
        pair = generate_keypair(bytes.fromhex(sk_hex))
        message = bytes.fromhex(msg_hex)
        assert pair.public_key.hex() == pk_hex
        signature = sign(pair, message)
        assert signature.hex() == sig_hex
        assert verify(pair.public_key, message, signature)

    @pytest.mark.parametrize("sk_hex,pk_hex,msg_hex,sig_hex", RFC8032_VECTORS)
    def test_vectors_against_independent_oracle(self, sk_hex, pk_hex, msg_hex, sig_hex):
        seed = bytes.fromhex(sk_hex)
        message = bytes.fromhex(msg_hex)
        assert ed25519_ref.publickey(seed).hex() == pk_hex
        assert ed25519_ref.sign(seed, message).hex() == sig_hex
        assert ed25519_ref.verify(bytes.fromhex(pk_hex), message, bytes.fromhex(sig_hex))

    def test_library_and_oracle_agree_on_random_inputs(self):
        rng = random.Random(0xC0FFEE)
        for _ in range(6):
            seed = rng.randbytes(32)
            message = rng.randbytes(rng.randrange(0, 64))
            pair = generate_keypair(seed)
            signature = sign(pair, message)
            assert pair.public_key == ed25519_ref.publickey(seed)
            assert signature == ed25519_ref.sign(seed, message)
            assert ed25519_ref.verify(pair.public_key, message, signature)

    def test_same_seed_same_keypair(self):
        seed = digest(b"replay")
        assert generate_keypair(seed) == generate_keypair(seed)

    def test_distinct_seeds_distinct_public_keys(self):
        rng = random.Random(7)
        seen = set()
        for _ in range(100):
            seen.add(generate_keypair(rng.randbytes(32)).public_key)
        assert len(seen) == 100

    @pytest.mark.parametrize("bad", [b"", b"short", bytes(31), bytes(33)])
    def test_bad_seed_rejected(self, bad):
        with pytest.raises(InvalidSeed):
            generate_keypair(bad)


class TestSignVerify:
    def test_sign_verify_roundtrip(self):
        pair = generate_keypair(digest(b"signer"))
        assert verify(pair.public_key, b"hello", sign(pair, b"hello"))

    def test_wrong_public_key_fails(self):
        pair = generate_keypair(digest(b"one"))
        other = generate_keypair(digest(b"two"))
        assert not verify(other.public_key, b"hello", sign(pair, b"hello"))

    def test_signature_deterministic(self):
        pair = generate_keypair(digest(b"det"))
        assert sign(pair, b"msg") == sign(pair, b"msg")

    def test_single_bit_flip_breaks_verification(self):
        rng = random.Random(99)
        pair = generate_keypair(digest(b"flip"))
        message = rng.randbytes(48)
        signature = sign(pair, message)
        for _ in range(64):
            bit = rng.randrange(len(message) * 8)
            mutated = bytearray(message)
            mutated[bit // 8] ^= 1 << (bit % 8)
            assert not verify(pair.public_key, bytes(mutated), signature)

    def test_truncated_signature_false_not_raise(self):
        pair = generate_keypair(digest(b"trunc"))
        signature = sign(pair, b"m")
        assert verify(pair.public_key, b"m", signature[:63]) is False
        assert verify(b"not-a-key", b"m", signature) is False
        assert verify(pair.public_key, b"m", b"") is False


class TestKeyCaches:
    """Each key is derived once; the cache is bounded and holds no bad key."""

    @pytest.fixture(autouse=True)
    def empty_cache(self):
        crypto._private_key.cache_clear()

    def test_cache_stays_within_bound(self):
        seeds = [digest(i.to_bytes(4, "big")) for i in range(crypto.KEY_CACHE_SIZE + 16)]
        for seed in seeds:
            pair = generate_keypair(seed)
            assert verify(pair.public_key, b"m", sign(pair, b"m"))
        info = crypto._private_key.cache_info()
        assert info.maxsize == crypto.KEY_CACHE_SIZE
        assert info.currsize == crypto.KEY_CACHE_SIZE
        pair = generate_keypair(seeds[0])  # evicted keys still sign and verify
        assert verify(pair.public_key, b"m", sign(pair, b"m"))

    def test_malformed_key_never_cached_and_verifies_false(self):
        pair = generate_keypair(digest(b"malformed"))
        signature = sign(pair, b"m")
        for bad in (b"", b"not-a-key", pair.public_key[:31], pair.public_key + b"\x00"):
            assert verify(bad, b"m", signature) is False
            assert verify(bad, b"m", signature) is False
        for bad in (b"", bytes(31), bytes(33)):
            with pytest.raises(InvalidSeed):
                sign(bad, b"m")
        assert crypto._private_key.cache_info().currsize == 1

    def test_non_bytes_arguments_false_and_uncached(self):
        zeros = bytes(32)
        pair = generate_keypair(digest(b"key-types"))
        signature = sign(pair, zeros)
        assert verify(pair.public_key, zeros, signature)
        assert verify(pair.public_key, 32, signature) is False
        assert verify(pair.public_key, "0" * 32, signature) is False
        assert verify(pair.public_key.hex(), zeros, signature) is False
        assert verify(pair.public_key, zeros, 64) is False
        assert verify(bytearray(pair.public_key), zeros, signature)
        assert verify(pair.public_key, bytearray(zeros), bytearray(signature))
        assert not verify(pair.public_key, bytearray(b"x" * 32), bytearray(signature))
        for bad in (pair.private_key.hex()[:32], 32):
            with pytest.raises(InvalidSeed):
                sign(bad, zeros)
        assert crypto._private_key.cache_info().currsize == 1

    def test_keypair_from_label_then_sign_derives_the_key_once(self, monkeypatch):
        derivations = count_calls(monkeypatch, crypto, "_seed_keypair")
        pair = crypto.keypair_from_label("memo", "alice")
        signature = sign(pair, b"m")
        assert sign(pair.private_key, b"m") == signature
        assert crypto.keypair_from_label("memo", "alice") == pair
        assert len(derivations) == 1
        assert signature == ed25519_ref.sign(pair.private_key, b"m")


def flip_bit(data: bytes, bit: int) -> bytes:
    mutated = bytearray(data)
    mutated[bit // 8] ^= 1 << (bit % 8)
    return bytes(mutated)


class TestLibsodiumBackend:
    """libsodium agrees with OpenSSL byte for byte, and only checked
    arguments reach it."""

    def test_agrees_with_openssl_on_seeded_inputs(self):
        from cryptography.exceptions import InvalidSignature
        from cryptography.hazmat.primitives.asymmetric.ed25519 import (
            Ed25519PrivateKey,
            Ed25519PublicKey,
        )
        from cryptography.hazmat.primitives.serialization import Encoding, PublicFormat

        def openssl_verify(public_key, message, signature):
            try:
                Ed25519PublicKey.from_public_bytes(public_key).verify(signature, message)
            except (InvalidSignature, ValueError):
                return False
            return True

        assert crypto._verify_detached.__name__ == "crypto_sign_verify_detached"
        rng = random.Random(0x50D1)
        for _ in range(200):
            seed = rng.randbytes(32)
            message = rng.randbytes(rng.randrange(1, 129))
            reference = Ed25519PrivateKey.from_private_bytes(seed)
            pair = generate_keypair(seed)
            signature = sign(pair, message)
            assert pair.public_key == reference.public_key().public_bytes(
                Encoding.Raw, PublicFormat.Raw)
            assert signature == reference.sign(message)
            cases = [
                (pair.public_key, message, signature),
                (flip_bit(pair.public_key, rng.randrange(256)), message, signature),
                (pair.public_key, flip_bit(message, rng.randrange(len(message) * 8)), signature),
                (pair.public_key, message, flip_bit(signature, rng.randrange(512))),
            ]
            verdicts = [verify(*case) for case in cases]
            assert verdicts == [openssl_verify(*case) for case in cases]
            assert verdicts == [True, False, False, False]

    def test_unchecked_arguments_never_reach_c(self, monkeypatch):
        pair = generate_keypair(digest(b"guarded"))
        signature = sign(pair, b"m")

        def refuse(*args):
            raise AssertionError("an unchecked argument reached libsodium")

        crypto._private_key.cache_clear()
        for name in ("_seed_keypair", "_sign_detached", "_verify_detached"):
            monkeypatch.setattr(crypto, name, refuse)
        for key in (b"", bytes(31), bytes(33), "k" * 32, 32):
            assert verify(key, b"m", signature) is False
            with pytest.raises(InvalidSeed):
                sign(key, b"m")
            with pytest.raises(InvalidSeed):
                generate_keypair(key)
        for bad in (signature[:63], signature + b"\x00", "s" * 64, 64):
            assert verify(pair.public_key, b"m", bad) is False
        for message in ("m", 1):
            assert verify(pair.public_key, message, signature) is False
            with pytest.raises(TypeError):
                sign(pair, message)

    def test_loader_without_libsodium_raises_import_error(self):
        with pytest.raises(ImportError, match="libsodium"):
            crypto._load_sodium(("libsodium-absent.so.0", "/nonexistent/libsodium.so"))

    def test_loader_refuses_a_failed_init(self, monkeypatch):
        class FailingSodium:
            def __init__(self, name):
                self.sodium_init = lambda: -1

        monkeypatch.setattr(crypto.ctypes, "CDLL", FailingSodium)
        with pytest.raises(ImportError, match="libsodium"):
            crypto._load_sodium()

    def test_package_imports_without_cryptography(self):
        # cryptography is a test extra only: the package, its CLI and its
        # harness run on libsodium alone.
        src = str(Path(vaspnet.__file__).resolve().parents[1])
        probe = ("import sys, vaspnet, vaspnet.cli, vaspnet.harness; "
                 "print(sorted(m for m in sys.modules if m.split('.')[0] == 'cryptography'))")
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                             text=True, check=True, timeout=60)
        assert out.stdout.strip() == "[]"


class TestDigest:
    @pytest.mark.parametrize("data,expected", SHA256_VECTORS)
    def test_published_vectors(self, data, expected):
        assert digest(data).hex() == expected

    def test_one_bit_change_changes_digest(self):
        rng = random.Random(5)
        for _ in range(100):
            data = rng.randbytes(rng.randrange(1, 64))
            bit = rng.randrange(len(data) * 8)
            mutated = bytearray(data)
            mutated[bit // 8] ^= 1 << (bit % 8)
            assert digest(data) != digest(bytes(mutated))


record_values = st.binary(max_size=40)
records = st.lists(record_values, max_size=8).map(
    lambda values: [(i + 1, v) for i, v in enumerate(values)]
)


class TestCanonicalEncoding:
    def test_empty_record(self):
        assert canonical_encode([]) == b""
        assert canonical_decode(b"") == []

    def test_stated_layout(self):
        assert canonical_encode([(1, b"AB")]) == bytes.fromhex("000100000002") + b"AB"

    def test_non_increasing_tags_rejected(self):
        with pytest.raises(NonCanonicalOrder):
            canonical_encode([(2, b"a"), (2, b"b")])
        with pytest.raises(NonCanonicalOrder):
            canonical_encode([(3, b"a"), (1, b"b")])

    def test_truncated_rejected(self):
        encoded = canonical_encode([(1, b"abcdef")])
        with pytest.raises(MalformedRecord):
            canonical_decode(encoded[:-1])
        with pytest.raises(MalformedRecord):
            canonical_decode(encoded[:3])

    @given(records)
    def test_roundtrip(self, fields):
        assert canonical_decode(canonical_encode(fields)) == fields

    @given(records, records)
    @settings(max_examples=200)
    def test_injective(self, a, b):
        if a != b:
            assert canonical_encode(a) != canonical_encode(b)

    def test_injectivity_bulk_random(self):
        rng = random.Random(11)
        seen = {}
        for _ in range(10_000):
            fields = [(i + 1, rng.randbytes(rng.randrange(0, 6)))
                      for i in range(rng.randrange(0, 5))]
            encoded = canonical_encode(fields)
            if encoded in seen:
                assert seen[encoded] == fields
            seen[encoded] = fields

    @given(st.dictionaries(st.text(max_size=8), st.text(max_size=8), max_size=6))
    def test_str_map_roundtrip(self, mapping):
        assert decode_str_map(encode_str_map(mapping)) == mapping

    def test_str_map_order_canonical(self):
        a = encode_str_map({"x": "1", "a": "2"})
        b = encode_str_map({"a": "2", "x": "1"})
        assert a == b


def reference_encode(fields):
    """The byte-at-a-time encoder ``canonical_encode`` must match, kept as an oracle."""
    out = bytearray()
    prev = -1
    for tag, value in fields:
        if tag <= prev:
            raise NonCanonicalOrder(f"tag {tag} after {prev}")
        if not 0 <= tag <= 0xFFFF:
            raise MalformedRecord(f"tag {tag} out of range")
        if len(value) > 0xFFFFFFFF:
            raise MalformedRecord("value too long")
        out += struct.pack(">HI", tag, len(value))
        out += value
        prev = tag
    return bytes(out)


def encode_outcome(encode, fields):
    try:
        return encode(fields)
    except CryptoError as exc:
        return type(exc), str(exc)


any_tags = st.one_of(st.integers(-3, 4), st.integers(0xFFFD, 0x10002),
                     st.integers(-0x10000, 0x20000))
any_values = st.one_of(st.binary(max_size=12), st.binary(max_size=12).map(bytearray))
any_fields = st.lists(st.tuples(any_tags, any_values), max_size=6)
# Mostly well-formed records: unique tags in increasing order.
ordered_fields = any_fields.map(lambda fields: sorted(dict(fields).items()))


class TestEncoderMatchesReference:
    @given(st.one_of(any_fields, ordered_fields))
    @settings(max_examples=300)
    @example([(1, b"a"), (0xFFFF, b"b")])
    @example([(2, b"a"), (1, b"b")])
    @example([(-1, b"a")])
    @example([(0, b""), (-4, b"a")])
    @example([(1, b"a"), (0x10000, b"b")])
    @example([(3, b"a"), (3, b"b"), (0x10000, b"c")])
    def test_same_bytes_and_same_errors(self, fields):
        assert encode_outcome(canonical_encode, fields) == encode_outcome(reference_encode, fields)


# ---------------------------------------------------------------------------
# Signed objects: one memo, one seal, one check
# ---------------------------------------------------------------------------

SIGNER = generate_keypair(digest(b"signed-objects"))
_ENTRY = DirectoryEntry(b"\x01" * 16, b"\x02" * 32, "ca-1")
_REVOKED = RevocationEntry(b"\x01" * 16, RevocationReason.KEY_COMPROMISE, 3)
_DISCLOSURE = Disclosure("alice", bytes(32), {"name": "Alice"})

# Each signed type: an unsigned draft, and one signed field with another value.
SIGNED_DRAFTS = [
    (Certificate(3, b"\x01" * 16, "Ed25519-SHA256", "ca-1", 0, 100, "alice",
                 SIGNER.public_key, DEFAULT_PROFILE, CertClass.CLASS1),
     "subject_id", "mallory"),
    (Crl("ca-1", 1, frozenset({_REVOKED}), 5), "crl_number", 2),
    (AttributeAssertion(bytes(16), "v1", _DISCLOSURE, 5),
     "disclosure", Disclosure("alice", bytes(32), {"name": "Mallory"})),
    (ChainTransaction(SIGNER.public_key, bytes(32), 10, "coin", bytes(8)), "amount", 11),
    (DirectorySnapshot("v1", 1, frozenset({_ENTRY})), "version", 2),
    (DirectoryDelta("v1", 0, 1, frozenset({_ENTRY}), frozenset()), "added", frozenset()),
    (DirectoryAnnounce("v1", "net-a", 1, views=(("v2", 1),)), "views", (("v2", 2),)),
    (ReachabilityAdvertisement(frozenset({bytes(32)}), "v1", "net-a", ("net-a",), "v1"),
     "network_path", ("net-a", "net-b")),
    (RouteDigest("v1", bytes(32), bytes(32)), "held", b"\x01" * 32),
    (TransferNotice(b"\x02" * 16, "v1", "v2", _DISCLOSURE, BeneficiaryRef(bytes(32)),
                    "coin", 10, 5, bytes(32), None), "amount", 11),
    (TransferAck(b"\x02" * 16, AckDecision.ACCEPT, None, _DISCLOSURE),
     "decision", AckDecision.REJECT),
]
signed_drafts = pytest.mark.parametrize(
    "draft,name,value", SIGNED_DRAFTS, ids=[type(d).__name__ for d, _, _ in SIGNED_DRAFTS])


def test_every_signed_type_is_covered_and_keeps_its_signature_tag():
    tags = {type(draft): type(draft).SIGNATURE_TAG for draft, _, _ in SIGNED_DRAFTS}
    assert len(tags) == 11
    assert all(issubclass(cls, crypto.Signed) for cls in tags)
    assert all("signature" in {f.name for f in fields(cls)} for cls in tags)
    assert {cls.__name__: tag for cls, tag in tags.items() if tag is not None} == {
        "Certificate": 11, "AttributeAssertion": 7, "ChainTransaction": 6, "Crl": 5,
        "DirectorySnapshot": 4, "ReachabilityAdvertisement": 6,
    }


class TestSignedObjects:
    @signed_drafts
    def test_copy_with_a_signed_field_changed_gets_own_bytes_and_fails(self, draft, name, value):
        genuine = crypto.seal(SIGNER, draft)
        payload = genuine.signed_payload()
        assert payload == canonical_encode(draft.tlv_fields())
        assert crypto.check(SIGNER.public_key, genuine)
        # Nothing is stored on the instance, so a copy carries only its fields.
        assert set(vars(genuine)) == {f.name for f in fields(genuine)}
        forged = replace(genuine, **{name: value})
        assert forged.signature == genuine.signature
        assert forged.signed_payload() != payload
        assert not crypto.check(SIGNER.public_key, forged)
        tag = type(genuine).SIGNATURE_TAG
        if tag is None:
            with pytest.raises(TypeError):
                genuine.to_bytes()
        else:
            data = genuine.to_bytes()
            assert data == payload + canonical_encode([(tag, genuine.signature)])
            assert genuine.fingerprint() == digest(data)
            assert forged.to_bytes() != data and forged.fingerprint() != genuine.fingerprint()
            assert genuine.to_bytes() == data
        assert genuine.signed_payload() == payload
        assert crypto.check(SIGNER.public_key, genuine)

    @signed_drafts
    def test_sealing_memoises_only_the_signed_object(self, draft, name, value):
        crypto._encoding.cache_clear()
        draft.tlv_fields()  # memoises the records nested in the draft
        before = crypto._encoding.cache_info().currsize
        genuine = crypto.seal(SIGNER, draft)
        assert crypto._encoding.cache_info().currsize == before + 1
        genuine.signed_payload()
        if genuine.SIGNATURE_TAG is not None:
            genuine.to_bytes(), genuine.fingerprint()
        assert crypto._encoding.cache_info().currsize == before + 1

    @signed_drafts
    def test_seal_memoises_the_payload_it_signed(self, draft, name, value, monkeypatch):
        crypto._encoding.cache_clear()
        draft.tlv_fields()  # memoises the records nested in the draft
        before = crypto._encoding.cache_info()
        genuine = crypto.seal(SIGNER, draft)
        sealed = crypto._encoding.cache_info()
        # One entry more, and it is the sealed object's: reading it is a hit
        # that encodes nothing. The draft, unequal to it, has none.
        assert sealed.currsize == before.currsize + 1 and genuine != draft
        encodes = count_calls(monkeypatch, type(genuine), "tlv_fields")
        payload = crypto._encoding(genuine)[0]
        assert crypto._encoding.cache_info().hits == sealed.hits + 1
        assert encodes == []
        assert payload == canonical_encode(genuine.tlv_fields())
        assert crypto.verify(SIGNER.public_key, payload, genuine.signature)

    def test_sealing_runs_post_init(self):
        seen = []

        @dataclass(frozen=True)
        class Validated(RouteDigest):
            def __post_init__(self):
                seen.append(self.signature)

        sealed = crypto.seal(SIGNER, Validated("v1", bytes(32), bytes(32)))
        assert seen == [b"", sealed.signature]

    @signed_drafts
    def test_memo_stays_within_bound(self, draft, name, value):
        genuine = crypto.seal(SIGNER, draft)
        for i in range(crypto.ENCODING_MEMO_SIZE + 16):
            replace(genuine, signature=i.to_bytes(SIGNATURE_LEN, "big")).signed_payload()
        info = crypto._encoding.cache_info()
        assert info.maxsize == crypto.ENCODING_MEMO_SIZE
        assert info.currsize == crypto.ENCODING_MEMO_SIZE

    @signed_drafts
    def test_two_types_with_equal_field_values_never_share_an_entry(self, draft, name, value):
        cls = type(draft)
        twin_cls = dataclass(frozen=True)(type("Twin", (cls,), {
            "tlv_fields": lambda self: [(tag + 100, v) for tag, v in cls.tlv_fields(self)],
        }))
        genuine = crypto.seal(SIGNER, draft)
        twin = twin_cls(**{f.name: getattr(genuine, f.name) for f in fields(genuine)})
        assert hash(twin) == hash(genuine) and twin != genuine
        payload = genuine.signed_payload()
        assert twin.signed_payload() != payload
        assert twin.signed_payload() == canonical_encode(twin.tlv_fields())
        assert genuine.signed_payload() == payload


def test_each_signed_object_is_encoded_once_in_a_run(monkeypatch):
    """Over the ``demo`` scenario, the fields of each signed object are
    encoded once: to sign its draft. The sealed object is never encoded."""
    crypto._encoding.cache_clear()
    encodes = Counter()
    for cls in {type(draft) for draft, _, _ in SIGNED_DRAFTS}:
        def counting(self, real=cls.tlv_fields):
            encodes[replace(self, signature=b"")] += 1
            return real(self)

        monkeypatch.setattr(cls, "tlv_fields", counting)
    scenario = Path(__file__).resolve().parent.parent / "scenarios" / "demo.yaml"
    Simulation(load_scenario(scenario)).run()
    assert encodes and max(encodes.values()) == 1


def route_digest(i: int):
    """A sealed ``RouteDigest`` whose ``held`` field is ``i``."""
    return crypto.seal(SIGNER, RouteDigest("v1", i.to_bytes(32, "big"), bytes(32)))


class TestCheckMemo:
    """A success of ``check`` is remembered in the object's encoding-memo
    entry; nothing else may change a verdict."""

    @pytest.fixture(autouse=True)
    def empty_memo(self):
        crypto._encoding.cache_clear()

    @staticmethod
    def keys_of(signed):
        return crypto._encoding(signed)[3]

    def test_hit_does_not_vouch_for_a_changed_object_or_another_key(self, monkeypatch):
        other = generate_keypair(digest(b"memo-other"))
        genuine = route_digest(1)
        assert crypto.check(SIGNER.public_key, genuine)
        verifies = count_calls(monkeypatch, crypto, "verify")
        assert crypto.check(SIGNER.public_key, genuine)
        assert verifies == []
        flipped = bytes([genuine.signature[0] ^ 1]) + genuine.signature[1:]
        assert not crypto.check(SIGNER.public_key, replace(genuine, held=bytes(32)))
        assert not crypto.check(SIGNER.public_key, replace(genuine, signature=flipped))
        assert not crypto.check(other.public_key, genuine)
        assert len(verifies) == 3

    def test_failure_not_memoised(self):
        other = generate_keypair(digest(b"memo-fail"))
        genuine = route_digest(2)
        forged = replace(genuine, held=bytes(32))
        assert not crypto.check(other.public_key, genuine)
        assert not crypto.check(SIGNER.public_key, forged)
        assert not crypto.check(b"not-a-key", genuine)
        assert self.keys_of(genuine) == () and self.keys_of(forged) == ()
        assert crypto.check(SIGNER.public_key, genuine)
        assert self.keys_of(genuine) == (SIGNER.public_key,)

    def test_memo_bounded_least_recently_used_evicted(self, monkeypatch):
        signed = [route_digest(i) for i in range(crypto.ENCODING_MEMO_SIZE + 1)]
        assert crypto.check(SIGNER.public_key, signed[0])
        assert crypto.check(SIGNER.public_key, signed[1])
        assert crypto.check(SIGNER.public_key, signed[0])  # hit: now more recent than signed[1]
        for obj in signed[2:]:
            assert crypto.check(SIGNER.public_key, obj)
            assert crypto._encoding.cache_info().currsize <= crypto.ENCODING_MEMO_SIZE
        assert crypto._encoding.cache_info().currsize == crypto.ENCODING_MEMO_SIZE
        verifies = count_calls(monkeypatch, crypto, "verify")
        assert crypto.check(SIGNER.public_key, signed[0])
        assert verifies == []
        assert crypto.check(SIGNER.public_key, signed[1])  # evicted: verified again
        assert len(verifies) == 1

    def test_non_bytes_key_bypasses_memo(self, monkeypatch):
        genuine = route_digest(3)
        assert crypto.check(SIGNER.public_key, genuine)

        class EqualToAll(bytes):
            __hash__ = bytes.__hash__

            def __eq__(self, other):
                return True

        verifies = count_calls(monkeypatch, crypto, "verify")
        assert crypto.check(bytearray(SIGNER.public_key), genuine) in (True, False)
        assert crypto.check(SIGNER.public_key.hex(), genuine) is False
        assert crypto.check(32, genuine) is False
        assert crypto.check(EqualToAll(bytes(32)), genuine) is False
        assert len(verifies) == 4
        assert self.keys_of(genuine) == (SIGNER.public_key,)

    def test_verdicts_agree_with_independent_oracle(self):
        rng = random.Random(0xBEEF)
        for _ in range(4):
            pair = generate_keypair(rng.randbytes(32))
            genuine = crypto.seal(pair, RouteDigest("v1", rng.randbytes(32), rng.randbytes(32)))
            forged = replace(genuine, signature=genuine.signature[:-1]
                             + bytes([genuine.signature[-1] ^ 0x40]))
            for obj in (genuine, forged):
                expected = ed25519_ref.verify(pair.public_key, obj.signed_payload(), obj.signature)
                assert crypto.check(pair.public_key, obj) == expected
                assert crypto.check(pair.public_key, obj) == expected
            assert self.keys_of(genuine) == (pair.public_key,)
            assert self.keys_of(forged) == ()
