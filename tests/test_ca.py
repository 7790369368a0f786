import random
from dataclasses import fields

import pytest

from vaspnet import crypto
from vaspnet.ca import (
    AlreadyRevoked,
    CertClass,
    Certificate,
    CertificateAuthority,
    CertificateProfile,
    CLASS_TABLE,
    DEFAULT_PROFILE,
    InvalidValidity,
    KeyAlreadyBound,
    RegistrationRejected,
    RevocationReason,
    RevocationView,
    ROOT_PROFILE,
    UnknownSerial,
    ValidationStatus,
    missing_class1_attributes,
    validate_certificate,
)

CLASS1_ATTRS = {"name": "N", "email": "n@example"}
CLASS2_ATTRS = {**CLASS1_ATTRS, "government_id": "g1", "address": "addr"}
CLASS3_ATTRS = {**CLASS2_ATTRS, "organization_vetting_ref": "org-7"}


def make_ca(name="ca-x", seed=1):
    ca = CertificateAuthority(name, crypto.keypair_from_label("catest", name), random.Random(seed))
    ca.self_sign_root(0, 1_000_000)
    return ca


def issue(ca, subject="sub", attrs=CLASS1_ATTRS, key_label="k", requested=CertClass.CLASS1,
          now=0, not_after=10_000):
    registration = ca.register_subject(subject, attrs, requested)
    key = crypto.keypair_from_label("subject", key_label)
    return ca.issue_certificate(registration, key.public_key, now, not_after, now)


def required_attrs_for(cls: CertClass) -> set:
    """Independent oracle: cumulative union of the class table."""
    needed = set()
    for c in CertClass:
        needed |= CLASS_TABLE[c]
        if c == cls:
            break
    return needed


class TestRootCertificate:
    def test_root_self_anchored_valid(self):
        ca = make_ca()
        root = ca.root_certificate
        result = validate_certificate(root, {ca.ca_id: root}, now=5)
        assert result.ok

    def test_root_deterministic_for_same_inputs(self):
        a = make_ca("ca-d", seed=3).root_certificate
        b = make_ca("ca-d", seed=3).root_certificate
        assert a.to_bytes() == b.to_bytes()

    def test_tampered_subject_fails_signature(self):
        ca = make_ca()
        root = ca.root_certificate
        forged = Certificate(**{**root.__dict__, "subject_id": root.subject_id + "x",
                                "issuer_id": root.issuer_id + "x"})
        anchors = {forged.issuer_id: forged}
        assert (
            validate_certificate(forged, anchors, now=5).status
            is ValidationStatus.BAD_SIGNATURE
        )

    def test_invalid_validity_window(self):
        ca = CertificateAuthority("ca-w", crypto.keypair_from_label("catest", "w"),
                                  random.Random(0))
        with pytest.raises(InvalidValidity):
            ca.self_sign_root(10, 10)


class TestRegistration:
    # The class table itself is the oracle: every (attrs, requested) pair is
    # checked against an independent cumulative-union computation.
    @pytest.mark.parametrize("attrs,requested,expected", [
        (CLASS1_ATTRS, CertClass.CLASS1, CertClass.CLASS1),
        (CLASS1_ATTRS, CertClass.CLASS3, CertClass.CLASS1),
        (CLASS2_ATTRS, CertClass.CLASS2, CertClass.CLASS2),
        (CLASS2_ATTRS, CertClass.CLASS3, CertClass.CLASS2),
        (CLASS3_ATTRS, CertClass.CLASS3, CertClass.CLASS3),
        (CLASS3_ATTRS, CertClass.CLASS1, CertClass.CLASS1),
    ])
    def test_assignment_table(self, attrs, requested, expected):
        ca = make_ca()
        record = ca.register_subject("s", attrs, requested)
        assert record.assigned_class == expected
        assert required_attrs_for(expected) <= set(attrs)

    def test_assignment_matches_oracle_over_random_subsets(self):
        ca = make_ca()
        rng = random.Random(20)
        universe = sorted(required_attrs_for(CertClass.CLASS3))
        for _ in range(200):
            attrs = {a: "v" for a in universe if rng.random() < 0.6}
            requested = rng.choice(list(CertClass))
            expected = None
            for cls in CertClass:
                if cls <= requested and required_attrs_for(cls) <= set(attrs):
                    expected = cls
            # The scenario parser refuses an enrolment by the same predicate.
            assert bool(missing_class1_attributes(attrs)) == (expected is None)
            if expected is None:
                with pytest.raises(RegistrationRejected):
                    ca.register_subject("s", attrs, requested)
            else:
                record = ca.register_subject("s", attrs, requested)
                assert record.assigned_class == expected

    def test_empty_attributes_rejected(self):
        with pytest.raises(RegistrationRejected):
            make_ca().register_subject("s", {}, CertClass.CLASS1)

    def test_class3_request_with_class2_attributes_gets_class2(self):
        # The attributes meet Class 1 and 2 but not 3.
        record = make_ca().register_subject("s", CLASS2_ATTRS, CertClass.CLASS3)
        assert record.assigned_class is CertClass.CLASS2


class TestIssuance:
    def test_issued_cert_validates_against_root(self):
        ca = make_ca()
        cert = issue(ca)
        assert validate_certificate(cert, {ca.ca_id: ca.root_certificate}, now=1).ok
        assert (cert.profile, ca.root_certificate.profile) == (DEFAULT_PROFILE, ROOT_PROFILE)

    def test_rebind_to_other_subject_refused(self):
        ca = make_ca()
        issue(ca, subject="first", key_label="shared")
        with pytest.raises(KeyAlreadyBound):
            issue(ca, subject="second", key_label="shared")

    def test_rebind_after_revocation_allowed(self):
        ca = make_ca()
        cert = issue(ca, subject="first", key_label="shared2")
        ca.revoke(cert.serial, RevocationReason.KEY_COMPROMISE, 1)
        cert2 = issue(ca, subject="second", key_label="shared2", now=2)
        assert cert2.serial != cert.serial

    def test_same_subject_reissue_supersedes(self):
        ca = make_ca()
        first = issue(ca, subject="sub", key_label="k9")
        second = issue(ca, subject="sub", key_label="k9", now=1)
        assert first.serial != second.serial
        assert first.serial in {e.serial for e in ca.current_crl(1).entries}
        lookup = ca.find_certificate_by_key_hash(crypto.digest(second.subject_public_key), 2)
        assert lookup.certificate.serial == second.serial
        assert not lookup.revoked

    def test_tbs_bytes_reencode_identically(self):
        ca = make_ca()
        cert = issue(ca)
        decoded = Certificate.from_bytes(cert.to_bytes())
        assert decoded == cert
        assert decoded.to_bytes() == cert.to_bytes()
        assert decoded.signed_payload() == cert.signed_payload()

    def test_decoding_refuses_a_key_usage_other_than_signature(self):
        fields = dict(crypto.canonical_decode(DEFAULT_PROFILE.to_bytes()))
        fields[2] = b"encipherment,signature"
        profile = crypto.canonical_encode(sorted(fields.items()))
        with pytest.raises(crypto.MalformedRecord):
            CertificateProfile.from_bytes(profile)
        cert_fields = dict(crypto.canonical_decode(issue(make_ca()).to_bytes()))
        cert_fields[9] = profile
        with pytest.raises(crypto.MalformedRecord):
            Certificate.from_bytes(crypto.canonical_encode(sorted(cert_fields.items())))


class TestValidationOrder:
    def test_fresh_cert_valid(self):
        ca = make_ca()
        cert = issue(ca)
        assert validate_certificate(cert, {ca.ca_id: ca.root_certificate}, now=500).ok

    def test_expiry_boundary(self):
        ca = make_ca()
        cert = issue(ca, not_after=100)
        anchors = {ca.ca_id: ca.root_certificate}
        assert validate_certificate(cert, anchors, now=100).ok
        assert validate_certificate(cert, anchors, now=101).status is ValidationStatus.EXPIRED

    def test_unknown_issuer_wins_over_everything(self):
        ca = make_ca()
        cert = issue(ca, not_after=100)
        assert validate_certificate(cert, {}, now=999).status is ValidationStatus.UNKNOWN_ISSUER

    def test_bad_signature_beats_expiry(self):
        ca = make_ca()
        cert = issue(ca, not_after=100)
        forged = Certificate(**{**cert.__dict__, "subject_id": "evil"})
        anchors = {ca.ca_id: ca.root_certificate}
        assert validate_certificate(forged, anchors, now=999).status is ValidationStatus.BAD_SIGNATURE

    def test_revoked_after_expiry_check(self):
        ca = make_ca()
        cert = issue(ca)
        ca.revoke(cert.serial, RevocationReason.KEY_COMPROMISE, 5)
        view = RevocationView()
        view.merge_crl(ca.generate_crl(6))
        anchors = {ca.ca_id: ca.root_certificate}
        result = validate_certificate(cert, anchors, now=10, revocation=view)
        assert result.status is ValidationStatus.REVOKED

    def test_revoked_detail_is_the_crl_entry_reason(self):
        ca = make_ca()
        certs = {reason: issue(ca, subject=f"r-{reason.value}", key_label=f"r-{reason.value}")
                 for reason in RevocationReason}
        for now, (reason, cert) in enumerate(certs.items(), start=1):
            ca.revoke(cert.serial, reason, now)
        view = RevocationView()
        view.merge_crl(ca.generate_crl(10))
        anchors = {ca.ca_id: ca.root_certificate}
        for reason, cert in certs.items():
            result = validate_certificate(cert, anchors, now=11, revocation=view)
            assert (result.status, result.detail) == (ValidationStatus.REVOKED, reason.value)

    def test_revocation_monotone(self):
        # Once revoked, never valid again at any later tick.
        ca = make_ca()
        cert = issue(ca)
        ca.revoke(cert.serial, RevocationReason.SUPERSEDED, 5)
        view = RevocationView()
        view.merge_crl(ca.generate_crl(6))
        anchors = {ca.ca_id: ca.root_certificate}
        for now in range(7, 200, 13):
            assert not validate_certificate(cert, anchors, now=now, revocation=view).ok


class TestRevocationAndStatus:
    def test_unknown_serial(self):
        with pytest.raises(UnknownSerial):
            make_ca().revoke(b"\x00" * 16, RevocationReason.UNSPECIFIED, 0)

    def test_double_revoke(self):
        ca = make_ca()
        cert = issue(ca)
        ca.revoke(cert.serial, RevocationReason.UNSPECIFIED, 0)
        with pytest.raises(AlreadyRevoked):
            ca.revoke(cert.serial, RevocationReason.UNSPECIFIED, 1)

    def test_root_cannot_be_revoked(self):
        # A root is a trust anchor, trusted out of band; no CRL may list it.
        ca = make_ca()
        cert = issue(ca)
        with pytest.raises(UnknownSerial):
            ca.revoke(ca.root_certificate.serial, RevocationReason.KEY_COMPROMISE, 1)
        crl = ca.current_crl(2)
        assert crl.entries == frozenset()
        view = RevocationView()
        assert view.merge_crl(crl)
        anchors = {ca.ca_id: ca.root_certificate}
        assert validate_certificate(ca.root_certificate, anchors, now=3, revocation=view).ok
        assert validate_certificate(cert, anchors, now=3, revocation=view).ok

    def test_serial_issued_by_another_ca_cannot_be_revoked(self):
        ca, other = make_ca("ca-x", seed=1), make_ca("ca-y", seed=2)
        foreign = issue(other)
        with pytest.raises(UnknownSerial):
            ca.revoke(foreign.serial, RevocationReason.KEY_COMPROMISE, 1)
        assert ca.current_crl(2).entries == frozenset()


class TestCrl:
    def test_first_crl_empty(self):
        ca = make_ca()
        crl = ca.generate_crl(0)
        assert crl.crl_number == 1
        assert crl.entries == frozenset()
        assert crypto.verify(ca.root_certificate.subject_public_key,
                             crl.signed_payload(), crl.signature)

    def test_every_crl_lists_all_revocations_so_far_over_random_sequences(self):
        # Over 100 random revocation interleavings, each full CRL numbers one
        # above the last and carries every entry revoked so far, and a view
        # that adopts any subset of them, newest last, holds the newest's.
        for trial in range(100):
            rng = random.Random(1000 + trial)
            ca = make_ca(seed=trial)
            certs = [issue(ca, subject=f"s{i}", key_label=f"t{trial}-{i}") for i in range(10)]
            unrevoked = list(certs)
            revoked = {}
            crls = [ca.generate_crl(0)]
            for step in range(rng.randrange(1, 12)):
                if unrevoked and rng.random() < 0.6:
                    cert = unrevoked.pop(rng.randrange(len(unrevoked)))
                    entry = ca.revoke(cert.serial, RevocationReason.UNSPECIFIED, step)
                    revoked[cert.serial] = entry
                if rng.random() < 0.5:
                    crl = ca.generate_crl(step)
                    assert crl.crl_number == crls[-1].crl_number + 1
                    assert crl.entries == frozenset(revoked.values())
                    crls.append(crl)
            final = ca.generate_crl(99)
            assert final.entries == frozenset(revoked.values())
            view = RevocationView()
            for crl in sorted(rng.sample(crls, rng.randrange(len(crls) + 1)),
                              key=lambda c: c.crl_number) + [final]:
                assert view.merge_crl(crl)
            for cert in certs:
                assert view.revocation_entry(ca.ca_id, cert.serial) == revoked.get(cert.serial)

    def test_current_crl_is_reused_until_a_revocation(self):
        ca = make_ca()
        cert = issue(ca)
        first = ca.current_crl(0)
        assert ca.current_crl(5) is first
        entry = ca.revoke(cert.serial, RevocationReason.SUPERSEDED, 6)
        second = ca.current_crl(7)
        assert second.crl_number == first.crl_number + 1
        assert second.entries == frozenset({entry})
        assert ca.current_crl(8) is second
        assert ca.generate_crl(9).crl_number == second.crl_number + 1


class TestRevocationView:
    def test_stale_crl_ignored(self):
        ca = make_ca()
        cert = issue(ca)
        older = ca.generate_crl(1)  # revokes nothing
        entry = ca.revoke(cert.serial, RevocationReason.UNSPECIFIED, 2)
        newer = ca.generate_crl(3)
        assert older.crl_number < newer.crl_number
        view = RevocationView()
        assert view.merge_crl(newer)
        # A lower-numbered CRL merged after a higher one is refused: the held
        # number and entries stay those of the higher one.
        assert view.merge_crl(older) is False
        assert view.crl_number(ca.ca_id) == newer.crl_number
        assert view.revocation_entry(ca.ca_id, cert.serial) == entry

    def test_newer_crl_revoking_nothing_new_moves_only_the_number(self):
        ca = make_ca()
        cert, live = (issue(ca, subject=f"s{i}", key_label=f"n{i}") for i in range(2))
        view = RevocationView()
        view.merge_crl(ca.generate_crl(0))
        entry = ca.revoke(cert.serial, RevocationReason.UNSPECIFIED, 1)
        assert view.merge_crl(ca.generate_crl(2)) is True
        full = ca.generate_crl(3)
        assert view.merge_crl(full) is True
        assert view.crl_number(ca.ca_id) == full.crl_number
        assert view.revocation_entry(ca.ca_id, cert.serial) == entry
        assert view.revocation_entry(ca.ca_id, live.serial) is None

    def test_older_crl_never_unrevokes(self):
        ca = make_ca()
        cert = issue(ca)
        older = ca.generate_crl(0)
        entry = ca.revoke(cert.serial, RevocationReason.KEY_COMPROMISE, 1)
        newer = ca.generate_crl(2)
        view = RevocationView()
        assert view.merge_crl(newer) is True
        assert view.merge_crl(older) is False
        assert view.crl_number(ca.ca_id) == newer.crl_number
        assert view.revocation_entry(ca.ca_id, cert.serial) == entry

    def test_issuers_are_held_apart(self):
        first, second = make_ca("ca-a", seed=1), make_ca("ca-b", seed=2)
        cert = issue(first)
        first.revoke(cert.serial, RevocationReason.UNSPECIFIED, 1)
        view = RevocationView()
        assert view.crl_number("ca-a") == 0
        assert not view.is_revoked("ca-a", cert.serial)
        assert view.merge_crl(first.generate_crl(2)) is True
        assert view.merge_crl(second.generate_crl(2)) is True
        assert view.is_revoked("ca-a", cert.serial)
        assert view.revocation_entry("ca-b", cert.serial) is None
        assert view.revocation_entry("ca-c", cert.serial) is None
        assert (view.crl_number("ca-a"), view.crl_number("ca-b"), view.crl_number("ca-c")) == (1, 1, 0)


class TestLookup:
    def test_lookup_returns_cert_and_disclosed_attributes(self):
        ca = make_ca()
        attrs = {**CLASS1_ATTRS, "address": "12 Main", "vasp_id": "v9", "secret": "hidden"}
        registration = ca.register_subject("sub", attrs, CertClass.CLASS1)
        key = crypto.keypair_from_label("subject", "lk")
        cert = ca.issue_certificate(registration, key.public_key, 0, 100, 0)
        lookup = ca.find_certificate_by_key_hash(crypto.digest(key.public_key), 1)
        assert lookup.certificate == cert
        assert lookup.attributes == {"address": "12 Main", "name": "N", "vasp_id": "v9"}
        assert not lookup.revoked

    def test_lookup_unknown_key(self):
        ca = make_ca()
        assert ca.find_certificate_by_key_hash(crypto.digest(b"\x07" * 32), 0) is None

    def test_lookup_revoked_flagged(self):
        ca = make_ca()
        cert = issue(ca, key_label="rk")
        ca.revoke(cert.serial, RevocationReason.KEY_COMPROMISE, 1)
        lookup = ca.find_certificate_by_key_hash(crypto.digest(cert.subject_public_key), 2)
        assert lookup is not None
        assert lookup.revoked
        assert lookup.certificate.serial == cert.serial


class TestEncodingMemo:
    def test_forged_copy_after_genuine_gets_own_bytes(self):
        ca = make_ca()
        cert = issue(ca)
        anchors = {ca.ca_id: ca.root_certificate}
        assert validate_certificate(cert, anchors, now=5).ok
        genuine = cert.to_bytes()
        # The memo stores nothing on the instance, so the copy carries only fields.
        assert set(vars(cert)) == {f.name for f in fields(Certificate)}
        for change in ({"subject_id": "evil"}, {"signature": bytes(64)}):
            forged = Certificate(**{**cert.__dict__, **change})
            assert forged.to_bytes() != genuine
            assert Certificate.from_bytes(forged.to_bytes()) == forged
            status = validate_certificate(forged, anchors, now=5).status
            assert status is ValidationStatus.BAD_SIGNATURE
        assert cert.to_bytes() == genuine
        assert validate_certificate(cert, anchors, now=5).ok
