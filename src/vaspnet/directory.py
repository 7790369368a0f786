"""The directory feed of one VASP node: its live customer certificate
entries, the versions it publishes of them, the views it holds of its
co-members' directories, and the CRLs it relies on. ``network``'s module
docstring sets out the protocol."""

from __future__ import annotations

from collections import defaultdict
from typing import Optional, Sequence

from . import crypto
from .accounts import AccountBook
from .ca import Crl, RevocationView
from .network import (SYNC_PERIOD, AntiEntropy, ApplyResult, DirectoryAnnounce,
                      DirectoryDelta, DirectoryEntry, DirectorySnapshot, DirectoryView,
                      TrustNetwork, apply_delta, heartbeat_partner)


class DirectoryFeed:
    """The directory feed of ``node``; it publishes the live certificates of
    ``book``'s accounts and merges the CRLs it fetches into ``revocation``,
    the node's revocation view."""

    def __init__(self, node, revocation: RevocationView, book: AccountBook) -> None:
        self._node = node
        self._env = node.env
        self._vasp_id = node.vasp_id
        self._revocation = revocation
        self._book = book
        # Publisher id -> its directory as held here, from version 0.
        self.views: defaultdict[str, DirectoryView] = defaultdict(DirectoryView)
        # ``entries`` at any tick of [_live_from, _live_until] while the book
        # has made ``_live_enrolments`` enrolments; None after an applied CRL
        # merge.
        self._live_entries: Optional[frozenset[DirectoryEntry]] = None
        self._live_enrolments = 0
        self._live_from = self._live_until = 0.0
        # Version 0, the empty directory, is never signed or sent.
        self._last_snapshot = DirectorySnapshot(node.vasp_id, 0, frozenset())
        self.gossip = AntiEntropy(node, "dir_announce")  # heartbeats per network

    def entries(self, now: int) -> frozenset[DirectoryEntry]:
        """Current live customer certificate entries: each account's current
        certificate, less those revoked or expired.

        The set is kept between calls. It is rebuilt from the book's accounts
        when the book's enrolment count moves, after an applied CRL merge, and
        when ``now`` leaves the ticks it holds for, that is, when a
        certificate expires."""
        book = self._book
        if (self._live_entries is None or self._live_enrolments != book.enrolments
                or not self._live_from <= now <= self._live_until):
            live = []
            self._live_from, self._live_until = float("-inf"), float("inf")
            for account in book.accounts.values():
                cert = account.certificate
                if cert is None or self._revocation.is_revoked(cert.issuer_id, cert.serial):
                    continue
                not_after = cert.validity_not_after
                if now > not_after:
                    self._live_from = max(self._live_from, not_after + 1)
                else:
                    live.append(DirectoryEntry(
                        cert.serial, account.customer_public_key_hash, cert.issuer_id))
                    self._live_until = min(self._live_until, not_after)
            self._live_entries = frozenset(live)
            self._live_enrolments = book.enrolments
        return self._live_entries

    def sync(self, now: int) -> None:
        """One sync period: publish a new version if the live entries differ
        from the last published set (at first version 0, empty), else ``announce``."""
        entries = self._node.directory_entries(now)
        if entries != self._last_snapshot.entries:
            self._node.publish_directory(now, entries)
        else:
            self._node.announce_directory(now)

    def publish(self, now: int,
                entries: Optional[frozenset[DirectoryEntry]] = None) -> DirectorySnapshot:
        """Publish the next version of ``entries`` (by default the node's
        ``directory_entries(now)``), unsigned until ``_push`` first sends it,
        and send co-members the delta."""
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
            for network in self._node.networks_sorted():
                for member_id in network.members:
                    self.gossip.peers[network.network_id, member_id].changed_at = now
        self._env.log(self._vasp_id, "directory_published",
                      version=version, entries=len(entries))
        return snapshot

    def on_delta(self, delta: DirectoryDelta, src: str) -> None:
        """Apply a delta; on a gap, send its owner this member's heartbeat,
        so the owner pushes its snapshot."""
        if not self._signed_by_owner(delta):
            return
        owner = delta.owner_vasp_id
        view = self.views[owner]
        if apply_delta(view, delta) is ApplyResult.RESYNC_REQUIRED:
            self._env.log(self._vasp_id, "directory_resync", owner=owner,
                          held=view.version, offered=delta.to_version)
            self._reply(self._node.shared_network(owner), owner)
        else:
            self._env.log(self._vasp_id, "directory_applied", owner=owner,
                          version=view.version)

    def announce(self, now: int) -> None:
        """Heartbeat each network's ``heartbeat_partner`` for this sync period;
        the other co-members, only a heartbeat unanswered for a rotation."""
        for network in self._node.networks_sorted():
            partner = heartbeat_partner(network, self._vasp_id, now // SYNC_PERIOD)
            self._heartbeat(network)
            rotation = (len(network.members) - 1) * SYNC_PERIOD
            for member_id in network.member_ids():
                if member_id != self._vasp_id:
                    self.gossip.beat((network.network_id, member_id), now,
                                     0 if member_id == partner else rotation)

    def _heartbeat(self, network: TrustNetwork) -> None:
        """Draft this member's heartbeat for ``network``."""
        views = tuple((member_id, self.views[member_id].version)
                      for member_id in network.member_ids() if member_id != self._vasp_id)
        self.gossip.draft(network.network_id, DirectoryAnnounce(
            self._vasp_id, network.network_id, self._last_snapshot.version, views))

    def _reply(self, network: TrustNetwork, member_id: str) -> None:
        """Reply to ``member_id`` with the last drafted heartbeat: no new sign."""
        if network.network_id not in self.gossip.heartbeats:
            self._heartbeat(network)
        self.gossip.send((network.network_id, member_id), self._env.now, reply=True)

    def on_announce(self, announce: DirectoryAnnounce, src: str) -> None:
        """File a verified heartbeat as what its sender holds. Push the snapshot
        if it lists this directory behind, not just by this period's delta;
        reply to the owner (never a relayer) of each view it lists above the
        one held here, else to the sender if it repeats the last or lists less."""
        if not self._signed_by_owner(announce):
            return
        network = self._node.memberships.get(announce.network_id)
        owner = announce.owner_vasp_id
        if network is None or owner not in network.members:
            return
        key = (network.network_id, owner)
        peer = self.gossip.peers[key]
        previous, peer.listed = peer.listed, announce
        version = self._last_snapshot.version
        held = dict(announce.views).get(self._vasp_id, 0)
        if held < version and (held < version - 1 or self.gossip.settled(key, self._env.now)):
            self._push(network, owner)
        lacking = [member_id for member_id, listed in announce.listing()
                   if member_id != self._vasp_id and self.views[member_id].version < listed]
        if not lacking and previous is not None and (
                previous == announce or previous.ahead_of(announce)):
            lacking = [owner]
        for member_id in lacking:
            self._reply(network, member_id)

    def _push(self, network: TrustNetwork, member_id: str) -> None:
        """Send the published snapshot, signed when first sent."""
        snapshot = self._last_snapshot
        if not snapshot.signature:
            snapshot = self._last_snapshot = self._node.seal(snapshot)
        self.gossip.peers[network.network_id, member_id].changed_at = self._env.now
        self._env.send(self._vasp_id, member_id, "dir_snapshot", snapshot)

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
