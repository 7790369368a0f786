"""The directory feed of one VASP node: its live customer certificate
entries, the versions it publishes of them, the views it holds of its
co-members' directories, and the CRLs it relies on. ``network``'s module
docstring sets out the protocol."""

from __future__ import annotations

from collections import defaultdict
from typing import Optional, Sequence

from . import crypto
from .ca import Certificate, Crl, RevocationView
from .network import (ApplyResult, DirectoryAnnounce, DirectoryDelta, DirectoryEntry,
                      DirectorySnapshot, DirectoryView, TrustNetwork, apply_delta,
                      heartbeat_partner)


class DirectoryFeed:
    """The directory feed of ``node``; it merges the CRLs it fetches into
    ``revocation``, the node's revocation view."""

    def __init__(self, node, revocation: RevocationView) -> None:
        self._node = node
        self._env = node.env
        self._vasp_id = node.vasp_id
        self._revocation = revocation
        # Publisher id -> its directory as held here, from version 0.
        self.views: defaultdict[str, DirectoryView] = defaultdict(DirectoryView)
        # Each account's current customer certificate, revoked ones included:
        # (issuer, serial) -> (entry, not-after).
        self._certified: dict[tuple[str, bytes], tuple[DirectoryEntry, int]] = {}
        # ``entries`` at any tick of [_live_from, _live_until]; None after
        # enrolment or an applied CRL merge.
        self._live_entries: Optional[frozenset[DirectoryEntry]] = None
        self._live_from = self._live_until = 0.0
        # Version 0, the empty directory, is never signed or sent.
        self._last_snapshot = DirectorySnapshot(node.vasp_id, 0, frozenset())
        # Network id -> the signed heartbeat last built for it; rebuilt when
        # its content would change.
        self._announces: dict[str, DirectoryAnnounce] = {}
        # (network id, member id) -> the heartbeat last sent to that member.
        self._announced: dict[tuple[str, str], DirectoryAnnounce] = {}
        # Member id -> member id -> the view version that member's verified
        # heartbeats last listed, its own directory's included.
        self._listed: defaultdict[str, dict[str, int]] = defaultdict(dict)

    def certify(self, previous: Optional[Certificate], cert: Certificate, key_hash: bytes) -> None:
        """File ``cert``, an account's new certificate of the key hashing to
        ``key_hash``, in place of ``previous``, the one it replaces."""
        if previous is not None:
            self._certified.pop((previous.issuer_id, previous.serial), None)
        self._certified[(cert.issuer_id, cert.serial)] = (
            DirectoryEntry(cert.serial, key_hash, cert.issuer_id), cert.validity_not_after)
        self._live_entries = None

    def entries(self, now: int) -> frozenset[DirectoryEntry]:
        """Current live customer certificate entries (revoked/expired excluded).

        The set is kept between calls. Enrolment and an applied CRL merge
        reset it; it is rebuilt from the accounts' current certificates, less
        those the revocation view names, when ``now`` leaves the ticks it
        holds for, that is, when a certificate expires."""
        if self._live_entries is None or not self._live_from <= now <= self._live_until:
            live = []
            self._live_from, self._live_until = float("-inf"), float("inf")
            for (issuer_id, serial), (entry, not_after) in self._certified.items():
                if self._revocation.is_revoked(issuer_id, serial):
                    continue
                if now > not_after:
                    self._live_from = max(self._live_from, not_after + 1)
                else:
                    live.append(entry)
                    self._live_until = min(self._live_until, not_after)
            self._live_entries = frozenset(live)
        return self._live_entries

    def sync(self, now: int) -> None:
        """One sync period: publish a new version if the live entries differ
        from the last published set, else heartbeat the current version
        (``announce``). Every member starts from version 0 and its empty set,
        so a member that certifies no key never publishes."""
        entries = self._node.directory_entries(now)
        if entries != self._last_snapshot.entries:
            self._node.publish_directory(now, entries)
        else:
            self._node.announce_directory(now)

    def publish(self, now: int,
                entries: Optional[frozenset[DirectoryEntry]] = None) -> DirectorySnapshot:
        """Publish the next snapshot version of ``entries`` (by default the
        node's ``directory_entries(now)``) and broadcast the delta to members.
        The snapshot stays unsigned until ``on_pull`` first sends it."""
        if entries is None:
            entries = self._node.directory_entries(now)
        last = self._last_snapshot
        version = last.version + 1
        snapshot = DirectorySnapshot(self._vasp_id, version, entries)
        self._last_snapshot = snapshot
        self.views[self._vasp_id].install_snapshot(snapshot)
        members = self._node.co_member_ids()
        if members:
            delta = self._node.seal(DirectoryDelta(
                owner_vasp_id=self._vasp_id, from_version=last.version, to_version=version,
                added=frozenset(entries - last.entries), removed=frozenset(last.entries - entries),
            ))
            for member_id in members:
                self._env.send(self._vasp_id, member_id, "dir_delta", delta)
        self._env.log(self._vasp_id, "directory_published",
                      version=version, entries=len(entries))
        return snapshot

    def on_delta(self, delta: DirectoryDelta, src: str) -> None:
        if not self._signed_by_owner(delta):
            return
        view = self.views[delta.owner_vasp_id]
        result = apply_delta(view, delta)
        if result is ApplyResult.RESYNC_REQUIRED:
            self._env.log(self._vasp_id, "directory_resync", owner=delta.owner_vasp_id,
                          held=view.version, offered=delta.to_version)
            self._env.send(self._vasp_id, delta.owner_vasp_id, "dir_pull", None)
        else:
            self._env.log(self._vasp_id, "directory_applied", owner=delta.owner_vasp_id,
                          version=view.version)

    def on_pull(self, src: str) -> None:
        """Answer with the published snapshot, signed on its first pull."""
        snapshot = self._last_snapshot
        if not snapshot.version:
            return
        if not snapshot.signature:
            snapshot = self._last_snapshot = self._node.seal(snapshot)
        self._env.send(self._vasp_id, src, "dir_snapshot", snapshot)

    def announce(self, now: int) -> None:
        """Heartbeat the current directory in each network to the network's
        ``heartbeat_partner`` for this sync period, unless the partner could
        not pull anything from it: its last verified heartbeat lists every
        version this one lists, at least, and this heartbeat already went
        to it. A receiver pulls only what it holds at a lower version and
        views install only forwards, so a skipped heartbeat would have made
        no one pull. Until its first publish a member heartbeats version 0
        and the digest of the empty set; a network with no one to send to
        gets none. A member whose view was wiped lists a lower version than
        before, so its heartbeat changes and goes out the next period, and
        the partner answers it at once (``on_announce``)."""
        for network in self._node.networks_sorted():
            partner = heartbeat_partner(
                network, self._vasp_id, now // network.rules.directory_sync_period)
            if partner is None:
                continue
            heartbeat = self._heartbeat(network)
            listed = self._listed[partner]
            if self._announced.get((network.network_id, partner)) is heartbeat and all(
                listed.get(member_id, -1) >= version for member_id, version in heartbeat.listing()
            ):
                continue
            self._send_heartbeat(network.network_id, partner, heartbeat)

    def _heartbeat(self, network: TrustNetwork) -> DirectoryAnnounce:
        """This member's heartbeat for ``network``: built and signed when its
        content (version or the versions of the views held) changed, else
        the one held. It carries the digest of the published snapshot, which
        this member's own view holds and caches."""
        version = self._last_snapshot.version
        views = tuple((member_id, self.views[member_id].version)
                      for member_id in network.member_ids() if member_id != self._vasp_id)
        held = self._announces.get(network.network_id)
        if held is None or (held.version, held.views) != (version, views):
            held = self._announces[network.network_id] = self._node.seal(DirectoryAnnounce(
                self._vasp_id, version, self.views[self._vasp_id].entries_digest(), views))
        return held

    def _send_heartbeat(self, network_id: str, member_id: str,
                        heartbeat: DirectoryAnnounce) -> None:
        self._announced[network_id, member_id] = heartbeat
        self._env.send(self._vasp_id, member_id, "dir_announce", heartbeat)

    def on_announce(self, announce: DirectoryAnnounce, src: str) -> None:
        """Compare a verified heartbeat with what this node holds and pull
        what differs: the snapshot of its sender, or of the owner of any view
        it lists at a higher version than the one held here (never from the
        sender on the owner's behalf). The versions it lists replace those
        its sender listed before. A lower one means the sender lost state, so
        this node answers at once with its own heartbeat in each network both
        are members of."""
        if not self._signed_by_owner(announce):
            return
        owner = announce.owner_vasp_id
        listed = self._listed[owner]
        regressed = any(listed.get(member_id, version) > version
                        for member_id, version in announce.listing())
        listed.update(announce.listing())
        view = self.views[owner]
        if view.version < announce.version or (
            view.version == announce.version and view.entries_digest() != announce.entries_digest
        ):
            self._env.send(self._vasp_id, owner, "dir_pull", None)
        for member_id, version in announce.views:
            if member_id != self._vasp_id and self.views[member_id].version < version:
                self._env.send(self._vasp_id, member_id, "dir_pull", None)
        if regressed:
            for network in self._node.networks_sorted():
                if owner in network.members:
                    self._send_heartbeat(network.network_id, owner, self._heartbeat(network))

    def on_snapshot(self, snapshot: DirectorySnapshot, src: str) -> None:
        if not self._signed_by_owner(snapshot):
            return
        view = self.views[snapshot.owner_vasp_id]
        if view.install_snapshot(snapshot):
            self._env.log(self._vasp_id, "directory_applied", owner=snapshot.owner_vasp_id,
                          version=view.version)

    def _signed_by_owner(self,
                         message: DirectoryDelta | DirectoryAnnounce | DirectorySnapshot) -> bool:
        """Whether a directory message verifies under its owner's certificate,
        as held from a network both are members of; one that does not is
        logged as dropped."""
        cert = self._node.member_certificate(message.owner_vasp_id)
        if cert is not None and crypto.check(cert.subject_public_key, message):
            return True
        self._env.log(self._vasp_id, "gossip_dropped", owner=message.owner_vasp_id,
                      reason="bad-signature")
        return False

    def find_owner(self, key_hash: bytes) -> Optional[str]:
        """The first member, in id order, whose view held here lists ``key_hash``."""
        for owner_id in sorted(self.views):
            if key_hash in self.views[owner_id].key_hashes():
                return owner_id
        return None

    def ingest_crls(self, crls: Sequence[Crl]) -> None:
        """Merge issuer CRLs, fetched from their CAs, into the revocation
        view after checking each one's CA signature against the node's trust
        anchors. Only a merge that applies (a higher CRL number) is logged,
        and it resets the live entries, so the next sync publishes the
        removal of a newly revoked one; views held of other members are left
        as their owners published them."""
        applied = []
        for crl in crls:
            anchor = self._node.trust_anchors.get(crl.issuer_id)
            if anchor is None or not crypto.check(anchor.subject_public_key, crl):
                self._env.log(self._vasp_id, "crl_dropped", issuer=crl.issuer_id,
                              reason="bad-signature")
                continue
            if self._revocation.merge_crl(crl):
                applied.append(crl)
        if applied:
            self._live_entries = None
            for crl in applied:
                self._env.log(self._vasp_id, "crl_merged", issuer=crl.issuer_id,
                              number=crl.crl_number)
