"""The reachability feed of one gateway VASP: per peering link, the routes
it advertises and received there, and their digest, its heartbeat.
``network.process_advertisement`` installs what arrives; ``network``'s
module docstring sets out the protocol."""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field, replace
from typing import Mapping, Optional, Sequence

from . import crypto
from .network import (AntiEntropy, DirectoryView, PeeringLink, ReachabilityAdvertisement,
                      RouteDigest, Routes, TrustNetwork, build_advertisement, find_link,
                      process_advertisement)


@dataclass
class LinkRoutes:
    """One peering link as its gateway holds it: the last signed advertisement
    sent there per origin network, its own and those it forwarded (``sent``,
    the Adj-RIB-Out), and the last one received (the Adj-RIB-In)."""

    sent: Routes = field(default_factory=Routes)
    received: Routes = field(default_factory=Routes)


class ReachabilityFeed:
    """The reachability feed of ``node``; its advertisements summarise
    ``views``, the directory views the node holds."""

    def __init__(self, node, views: Mapping[str, DirectoryView]) -> None:
        self._node = node
        self._env = node.env
        self._vasp_id = node.vasp_id
        self._views = views
        # Network id -> (member entry sets summarised, advertisement), the
        # advertisement unsigned until first sent (``_advertise_own``).
        self._advertisements: dict[str, tuple[tuple, ReachabilityAdvertisement]] = {}
        # Every link starts holding nothing either way.
        self.links: defaultdict[PeeringLink, LinkRoutes] = defaultdict(LinkRoutes)
        self.gossip = AntiEntropy(node, "reach_digest")  # heartbeats per link

    def on_advertisement(self, adv: ReachabilityAdvertisement, src: str) -> None:
        network, _ = find_link(self._node.networks_sorted(), src, self._vasp_id)
        verdict, reason = (process_advertisement(network, self._vasp_id, adv, src, self._gateway)
                           if network else ("drop", "no-link"))
        where = {"network": network.network_id} if network else {}
        self._env.log(self._vasp_id, "advertisement", verdict=verdict, reason=reason,
                      origin=adv.origin_network_id, path=">".join(adv.network_path),
                      hashes=len(adv.advertised_hashes), **where)

    def _gateway(self, vasp_id: str) -> ReachabilityFeed:
        return self._env.node(vasp_id).reach

    def authentic(self, sender_id: str, signed: crypto.Signed) -> bool:
        """Whether ``signed`` verifies under the valid certificate of its sender."""
        cert = self._node.peer_certificate(sender_id)
        return cert is not None and self._node.validate(cert).ok and crypto.check(
            cert.subject_public_key, signed)

    def receive(self, link: PeeringLink, adv: ReachabilityAdvertisement) -> None:
        held = self.links[link]
        held.received = held.received.put(adv)

    def advertise_reachability(self, now: int) -> None:
        """One sync period: each of this gateway's peering links is sent its
        network's advertisement if that changed, and its ``RouteDigest``."""
        for network in self._node.networks_sorted():
            for link in network.links_of(self._vasp_id):
                far_gateway, _ = link.far_side(network.network_id)
                self._advertise_own(network, link, far_gateway)
                self._keepalive(link)
                self.gossip.beat((link, far_gateway), now)

    def _keepalive(self, link: PeeringLink) -> None:
        held = self.links[link]
        self.gossip.draft(link, RouteDigest(self._vasp_id, held.sent.digest, held.received.digest))

    def on_route_digest(self, keepalive: RouteDigest, src: str) -> None:
        """File the far gateway's verified digest. Push what is held here if it
        did not receive that, unless a change went over the link this period;
        reply if it holds what was not received here, or repeats."""
        network, link = find_link(self._node.networks_sorted(), src, self._vasp_id)
        if link is None or keepalive.gateway_id != src or not self.authentic(src, keepalive):
            return
        key = (link, src)
        peer = self.gossip.peers[key]
        previous, peer.listed = peer.listed, keepalive
        held = self.links[link]
        now = self._env.now
        if keepalive.received != held.sent.digest and self.gossip.settled(key, now):
            routes = tuple(held.sent.values())
            peer.changed_at = now
            self._env.send(self._vasp_id, src, "refreshed_routes", routes)
            self._env.log(self._vasp_id, "routes_refreshed", to=src, routes=len(routes))
        if keepalive.held != held.received.digest or keepalive == previous:
            self._keepalive(link)
            self.gossip.send(key, now, reply=True)
        self._withdraw_unheld(network, link, src)

    def on_refreshed_routes(self, routes: Sequence[ReachabilityAdvertisement], src: str) -> None:
        """Replace what was received over the link with the far gateway's
        Adj-RIB-Out, each route processed as an advertisement (RFC 7313)."""
        network, link = find_link(self._node.networks_sorted(), src, self._vasp_id)
        if link is None:
            return
        self.links[link].received = Routes()
        for adv in routes:
            self._node.on_reachability_advertisement(adv, src)
        self._withdraw_unheld(network, link, src)

    def _withdraw_unheld(self, network: TrustNetwork, link: PeeringLink, src: str) -> None:
        """Once the far gateway's last verified digest lists what was received
        over ``link``, drop each route installed from it to an origin not among
        that: a push's routes are signed one by one, but not as a set."""
        received = self.links[link].received
        listed = self.gossip.peers[link, src].listed
        confirmed = listed is not None and listed.held == received.digest
        for origin, route in list(network.route_table.items()):
            if confirmed and origin not in received and (
                    route.via_local_gateway, route.next_hop_gateway) == (self._vasp_id, src):
                del network.route_table[origin]

    def advertise(self, link: PeeringLink, far_gateway: str,
                  adv: ReachabilityAdvertisement) -> Optional[ReachabilityAdvertisement]:
        """Send ``adv`` over ``link`` to ``far_gateway`` and hold it there if
        its content differs from what the link holds for its origin network,
        at first the empty route (RFC 4271: an UPDATE goes out only for a
        change); returns it as sent, signed here if it came unsigned, or
        None. Content is compared before signing (Ed25519 is deterministic)."""
        held = self.links[link]
        current = held.sent.get(adv.origin_network_id)
        if current is None:
            if not adv.advertised_hashes:
                return None
        elif current is adv or replace(current, signature=adv.signature) == adv:
            return None
        if not adv.signature:
            adv = self._node.seal(adv)
        held.sent = held.sent.put(adv)
        self.gossip.peers[link, far_gateway].changed_at = self._env.now
        self._env.send(self._vasp_id, far_gateway, "reach_adv", adv)
        self._env.log(self._vasp_id, "advertisement_sent", origin=adv.origin_network_id,
                      to=far_gateway, hashes=len(adv.advertised_hashes))
        return adv

    def withdraw(self, link: PeeringLink, origin_network_id: str) -> None:
        """Stop holding a route to ``origin_network_id`` for ``link``."""
        held = self.links[link]
        if origin_network_id in held.sent:
            held.sent = Routes({o: a for o, a in held.sent.items() if o != origin_network_id})

    def _advertise_own(self, network: TrustNetwork, link: PeeringLink, far_gateway: str) -> None:
        """``advertise`` ``network``'s own advertisement over ``link``, rebuilt
        only when a member view's entry set was replaced and signed when
        first sent, once whatever the number of links."""
        sources = tuple(self._views[m].entries for m in network.member_ids())
        cached = self._advertisements.get(network.network_id)
        if cached is None or cached[0] != sources:
            cached = (sources, build_advertisement(network, self._vasp_id, self._views))
        sent = self.advertise(link, far_gateway, cached[1])
        self._advertisements[network.network_id] = (sources, sent or cached[1])
