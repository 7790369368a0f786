import random
from dataclasses import fields, replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import count_calls
from vaspnet import crypto
from vaspnet.assertions import (
    AttributeAssertion,
    Disclosure,
    FrozenAttributes,
    EmptyDisclosure,
    SubjectCertInvalid,
    TRAVEL_RULE_ATTRIBUTES,
    build_disclosure,
    filter_attributes,
    issue_assertion,
    verify_assertion,
)
from vaspnet.ca import (
    CertClass,
    CertificateAuthority,
    RevocationReason,
    RevocationView,
    validate_certificate,
)

ATTRS = {"name": "Alice", "account_id": "a-1", "address": "1 Elm",
         "vasp_id": "v1", "dob": "1999-01-01"}
# What a disclosure of ``ATTRS`` carries: all but ``dob``.
DISCLOSED = {k: v for k, v in ATTRS.items() if k in TRAVEL_RULE_ATTRIBUTES}


@pytest.fixture
def world():
    """A CA, a VASP cert, and a certified customer, plus a validator."""
    ca = CertificateAuthority("ca-1", crypto.keypair_from_label("ca", "as"), random.Random(3))
    root = ca.self_sign_root(0, 1_000_000)
    anchors = {ca.ca_id: root}
    view = RevocationView()

    vasp_key = crypto.keypair_from_label("vasp", "v1")
    reg = ca.register_subject("v1", {"name": "v1", "email": "v@x"}, CertClass.CLASS1)
    vasp_cert = ca.issue_certificate(reg, vasp_key.public_key, 0, 9_000, 0)

    customer_pair = crypto.keypair_from_label("cust", "alice")
    reg2 = ca.register_subject("alice", {"name": "Alice", "email": "a@x"}, CertClass.CLASS1)
    customer_cert = ca.issue_certificate(reg2, customer_pair.public_key, 0, 9_000, 0)

    def validator(cert):
        return validate_certificate(cert, anchors, 5, view)

    return dict(ca=ca, anchors=anchors, view=view, vasp_key=vasp_key,
                vasp_cert=vasp_cert, customer_cert=customer_cert, validator=validator)


_WORLD_CACHE = {}


def _shared_world():
    if "world" not in _WORLD_CACHE:
        _WORLD_CACHE["world"] = world.__wrapped__()
    return _WORLD_CACHE["world"]


def make_disclosure(world, attributes=ATTRS):
    return build_disclosure("alice", world["customer_cert"], attributes, world["validator"])


def make_assertion(world, attributes=ATTRS, assertion_id=bytes(16)):
    return issue_assertion(world["vasp_key"], "v1", make_disclosure(world, attributes),
                           assertion_id=assertion_id, issued_at=5)


def with_attributes(assertion, attributes):
    """``assertion``, signature kept, over a disclosure of ``attributes``."""
    return replace(assertion, disclosure=replace(assertion.disclosure, attributes=attributes))


class TestIssueAndVerify:
    def test_roundtrip(self, world):
        assertion = make_assertion(world)
        assert verify_assertion(assertion, world["vasp_cert"], world["customer_cert"],
                                world["validator"])

    def test_disclosure_about_revoked_subject_cert(self, world):
        world["ca"].revoke(world["customer_cert"].serial, RevocationReason.KEY_COMPROMISE, 1)
        world["view"].merge_crl(world["ca"].generate_crl(2))
        with pytest.raises(SubjectCertInvalid):
            make_disclosure(world)

    def test_tampered_attribute_fails_verification(self, world):
        assertion = make_assertion(world)
        tampered = with_attributes(assertion, {**assertion.disclosure.attributes,
                                               "name": "Mallory"})
        assert not verify_assertion(tampered, world["vasp_cert"], world["customer_cert"],
                                    world["validator"])

    def test_wrong_subject_cert_fails_digest_link(self, world):
        # Re-issuing the subject cert changes its digest, so the old link fails.
        assertion = make_assertion(world)
        ca = world["ca"]
        reg = ca.register_subject("alice", {"name": "Alice", "email": "a@x"}, CertClass.CLASS1)
        new_cert = ca.issue_certificate(
            reg, world["customer_cert"].subject_public_key, 6, 9_000, 6
        )
        assert crypto.digest(new_cert.to_bytes()) != assertion.disclosure.linked_certificate_hash
        assert not verify_assertion(assertion, world["vasp_cert"], new_cert,
                                    world["validator"])

    def test_linked_hash_is_certificate_digest(self, world):
        assertion = make_assertion(world)
        assert assertion.disclosure.linked_certificate_hash == crypto.digest(
            world["customer_cert"].to_bytes()
        )

    def test_serialization_roundtrip(self, world):
        assertion = make_assertion(world)
        decoded = AttributeAssertion.from_bytes(assertion.to_bytes())
        assert decoded == assertion

    def test_disclosure_is_unsigned_and_carries_no_id_or_tick(self, world):
        disclosure = make_disclosure(world)
        assert not isinstance(disclosure, crypto.Signed)
        assert {f.name for f in fields(Disclosure)} == {
            "subject_id", "linked_certificate_hash", "attributes"}
        assert make_assertion(world).disclosure == disclosure


class TestFiltering:
    def test_identity_filter_keeps_attributes(self, world):
        assertion = make_assertion(world)
        attributes = assertion.disclosure.attributes
        filtered = filter_attributes(assertion, frozenset(attributes),
                                     world["vasp_key"], "v1",
                                     assertion_id=b"\x01" * 16, issued_at=6)
        assert filtered.disclosure.attributes == dict(attributes)
        assert filtered.signature != assertion.signature

    def test_subset_filter(self, world):
        assertion = make_assertion(world)
        filtered = filter_attributes(assertion, frozenset({"name"}),
                                     world["vasp_key"], "v1",
                                     assertion_id=b"\x02" * 16, issued_at=6)
        assert filtered.disclosure.attributes == {"name": "Alice"}

    def test_empty_intersection_rejected(self, world):
        assertion = make_assertion(world)
        with pytest.raises(EmptyDisclosure):
            filter_attributes(assertion, frozenset({"nonexistent"}),
                              world["vasp_key"], "v1",
                              assertion_id=b"\x03" * 16, issued_at=6)

    def test_filtered_assertion_still_verifies(self, world):
        assertion = make_assertion(world)
        filtered = filter_attributes(assertion, TRAVEL_RULE_ATTRIBUTES,
                                     world["vasp_key"], "v1",
                                     assertion_id=b"\x04" * 16, issued_at=6)
        assert verify_assertion(filtered, world["vasp_cert"], world["customer_cert"],
                                world["validator"])

    @given(st.sets(st.sampled_from(sorted(set(ATTRS) | {"w", "z"})), min_size=1))
    def test_filtering_never_adds_attributes(self, allowed):
        # filtering is a pure transformation, so one shared world is safe here
        world = _shared_world()
        assertion = make_assertion(world)
        try:
            filtered = filter_attributes(assertion, frozenset(allowed), world["vasp_key"], "v1",
                                         assertion_id=b"\x05" * 16, issued_at=6)
        except EmptyDisclosure:
            assert not (set(assertion.disclosure.attributes) & allowed)
            return
        assert set(filtered.disclosure.attributes) <= set(assertion.disclosure.attributes)
        assert set(filtered.disclosure.attributes) <= allowed


class TestDisclosureSignedOnce:
    """``build_disclosure`` keeps the travel-rule attributes and
    ``issue_assertion`` signs them once, never the full set first."""

    # Registered attributes none of which a disclosure carries.
    UNDISCLOSED = {"dob": "1999-01-01", "email": "a@x"}

    def test_one_signature_same_bytes_as_filtering_the_full_set(self, world, monkeypatch):
        full = crypto.seal(world["vasp_key"], AttributeAssertion(
            bytes(16), "v1", Disclosure("alice", world["customer_cert"].fingerprint(), ATTRS), 5))
        two_step = filter_attributes(full, TRAVEL_RULE_ATTRIBUTES, world["vasp_key"],
                                     "v1", assertion_id=b"\x07" * 16, issued_at=5)
        signed = count_calls(monkeypatch, crypto, "sign")
        once = make_assertion(world, assertion_id=b"\x07" * 16)
        assert [message for _, message in signed] == [once.signed_payload()]
        assert once.to_bytes() == two_step.to_bytes()
        assert once.disclosure.attributes == DISCLOSED
        assert verify_assertion(once, world["vasp_cert"], world["customer_cert"],
                                world["validator"])

    def test_invalid_subject_cert_wins_over_empty_disclosure(self, world):
        world["ca"].revoke(world["customer_cert"].serial, RevocationReason.KEY_COMPROMISE, 1)
        world["view"].merge_crl(world["ca"].generate_crl(2))
        with pytest.raises(SubjectCertInvalid):
            make_disclosure(world, attributes=self.UNDISCLOSED)

    def test_empty_disclosure_after_valid_cert(self, world, monkeypatch):
        signed = count_calls(monkeypatch, crypto, "sign")
        with pytest.raises(EmptyDisclosure):
            make_disclosure(world, attributes=self.UNDISCLOSED)
        assert signed == []


class TestEncodingMemo:
    def test_copy_with_one_attribute_changed_gets_own_bytes(self, world):
        genuine = make_assertion(world)
        payload, data = genuine.signed_payload(), genuine.to_bytes()
        # The memo stores nothing on the instance, so the copy carries only fields.
        assert set(vars(genuine)) == {f.name for f in fields(AttributeAssertion)}
        assert set(vars(genuine.disclosure)) == {f.name for f in fields(Disclosure)}
        forged = with_attributes(genuine, {**genuine.disclosure.attributes, "address": "2 Elm"})
        assert (forged.assertion_id, forged.signature) == (
            genuine.assertion_id, genuine.signature)
        assert forged.signed_payload() != payload and forged.to_bytes() != data
        assert AttributeAssertion.from_bytes(forged.to_bytes()) == forged
        assert not verify_assertion(forged, world["vasp_cert"], world["customer_cert"],
                                    world["validator"])
        assert genuine.to_bytes() == data
        assert verify_assertion(genuine, world["vasp_cert"], world["customer_cert"],
                                world["validator"])

    def test_attributes_cannot_change_under_the_memo(self, world):
        source = dict(ATTRS)
        assertion = make_assertion(world, attributes=source)
        payload = assertion.signed_payload()
        source["name"] = "Mallory"  # the caller's dict is not the assertion's
        attributes = assertion.disclosure.attributes
        assert attributes["name"] == "Alice"
        with pytest.raises(TypeError):
            attributes["name"] = "Mallory"
        assert isinstance(attributes, FrozenAttributes)
        assert attributes == DISCLOSED and hash(assertion)
        assert assertion.signed_payload() == payload
