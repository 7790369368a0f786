"""The reachability feed of one gateway VASP: per peering link, the routes
it advertises and received there, their keepalive digest, and route
refresh. ``network.process_advertisement`` installs what arrives;
``network``'s module docstring sets out the protocol."""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field, replace
from typing import Mapping, Optional, Sequence

from . import crypto
from .network import (DirectoryView, PeeringLink, ReachabilityAdvertisement, RouteDigest,
                      Routes, TrustNetwork, build_advertisement, find_link,
                      process_advertisement)


@dataclass
class LinkRoutes:
    """One peering link as its gateway holds it: the last signed
    advertisement sent there per origin network, its own and those it
    forwarded (``sent``, the Adj-RIB-Out, re-sent by a route refresh), the
    tick of the last one sent, the last one received there per origin
    (``received``, the Adj-RIB-In), and the last keepalive signed for it."""

    sent: Routes = field(default_factory=Routes)
    received: Routes = field(default_factory=Routes)
    sent_at: int = -1
    keepalive: Optional[RouteDigest] = None


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

    def authentic(self, sender_id: str, adv: ReachabilityAdvertisement) -> bool:
        """Whether ``adv`` verifies under the valid certificate of its sender."""
        cert = self._node.peer_certificate(sender_id)
        return cert is not None and self._node.validate(cert).ok and crypto.check(
            cert.subject_public_key, adv)

    def receive(self, link: PeeringLink, adv: ReachabilityAdvertisement) -> None:
        held = self.links[link]
        held.received = held.received.put(adv)

    def advertise_reachability(self, now: int) -> None:
        """One sync period over each of this gateway's peering links: the
        link is sent its network's directory summary if that changed. Else
        its signed ``RouteDigest`` is brought up to date, and sent in every
        other period (the two gateways of a link take turns) if no
        advertisement went over the link since the last period. A digest is
        thus signed in the period its content settled, not in the later one
        that sends it."""
        for network in self._node.networks_sorted():
            period = network.rules.directory_sync_period
            for link in network.links_of(self._vasp_id):
                far_gateway, _ = link.far_side(network.network_id)
                if self._advertise_own(network, link, far_gateway):
                    continue
                held = self.links[link]
                keepalive = self._keepalive(held)
                turn = (now // period) % 2 == (link.gateway_vasp_a != self._vasp_id)
                if turn and held.sent_at <= now - period:
                    self._env.send(self._vasp_id, far_gateway, "reach_digest", keepalive)

    def _keepalive(self, held: LinkRoutes) -> RouteDigest:
        """The link's signed ``RouteDigest``, signed again only when one of
        its two digests changed."""
        held_digest, received_digest = held.sent.digest, held.received.digest
        last = held.keepalive
        if last is None or (last.held, last.received) != (held_digest, received_digest):
            held.keepalive = self._node.seal(
                RouteDigest(self._vasp_id, held_digest, received_digest))
        return held.keepalive

    def on_route_digest(self, keepalive: RouteDigest, src: str) -> None:
        """Compare the far gateway's digests with this side of the link: ask
        for a route refresh when what it holds differs from what was
        received here, and send the held routes when what it received
        differs from what is held here. A digest that matches asks for
        nothing, so only one that differs is verified."""
        _, link = find_link(self._node.networks_sorted(), src, self._vasp_id)
        if link is None:
            return
        held = self.links[link]
        pull = held.received.digest != keepalive.held
        push = held.sent.digest != keepalive.received
        if not (pull or push) or keepalive.gateway_id != src:
            return
        cert = self._node.peer_certificate(src)
        if cert is None or not crypto.check(cert.subject_public_key, keepalive):
            return
        if pull:
            self._env.send(self._vasp_id, src, "route_refresh", None)
        if push:
            self.on_route_refresh(src)

    def on_route_refresh(self, src: str) -> None:
        """Send the far gateway of the link every advertisement held for it."""
        _, link = find_link(self._node.networks_sorted(), src, self._vasp_id)
        if link is not None:
            routes = tuple(self.links[link].sent.values())
            self._env.send(self._vasp_id, src, "refreshed_routes", routes)
            self._env.log(self._vasp_id, "routes_refreshed", to=src, routes=len(routes))

    def on_refreshed_routes(self, routes: Sequence[ReachabilityAdvertisement], src: str) -> None:
        """Replace what was received over the link with a refresh's routes,
        each processed as an advertisement (RFC 7313: routes the refresh
        leaves out are stale)."""
        _, link = find_link(self._node.networks_sorted(), src, self._vasp_id)
        if link is not None:
            self.links[link].received = Routes()
        for adv in routes:
            self._node.on_reachability_advertisement(adv, src)

    def advertise(self, link: PeeringLink, far_gateway: str,
                  adv: ReachabilityAdvertisement) -> Optional[ReachabilityAdvertisement]:
        """Send ``adv`` over ``link`` to ``far_gateway`` and hold it there if
        its content differs from what the link holds for its origin network;
        returns it as sent, signed here if it came unsigned, or None. A link
        starts holding nothing, which counts as the empty route (RFC 4271's
        Adj-RIB-Out starts empty, and an UPDATE goes out only for a change).
        Content is compared before signing, so nothing is signed that is not
        sent; Ed25519 is deterministic, so the bytes are those an
        advertisement signed earlier would have."""
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
        held.sent_at = self._env.now
        self._env.send(self._vasp_id, far_gateway, "reach_adv", adv)
        self._env.log(self._vasp_id, "advertisement_sent", origin=adv.origin_network_id,
                      to=far_gateway, hashes=len(adv.advertised_hashes))
        return adv

    def withdraw(self, link: PeeringLink, origin_network_id: str) -> None:
        """Stop holding a route to ``origin_network_id`` for ``link``."""
        held = self.links[link]
        if origin_network_id in held.sent:
            held.sent = Routes({o: a for o, a in held.sent.items() if o != origin_network_id})

    def _advertise_own(self, network: TrustNetwork, link: PeeringLink, far_gateway: str) -> bool:
        """``advertise`` ``network``'s own advertisement over ``link``;
        returns whether it went. The advertisement is rebuilt only when a
        member view's entry set changed, and signed when first sent, once
        whatever the number of links. Views replace their frozenset on every
        write, so an unchanged view compares by identity."""
        sources = tuple(self._views[m].entries for m in network.member_ids())
        cached = self._advertisements.get(network.network_id)
        if cached is None or cached[0] != sources:
            cached = (sources, build_advertisement(network, self._vasp_id, self._views))
        sent = self.advertise(link, far_gateway, cached[1])
        self._advertisements[network.network_id] = (sources, sent or cached[1])
        return sent is not None
