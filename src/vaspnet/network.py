"""Trust networks: membership by certificate, known-good-key directory
gossip with deltas, and cross-network path-vector reachability
advertisements through peering gateways.

Inside a network, each member publishes its own directory of live customer
certificates and every member keeps a per-publisher view, from version 0,
the empty directory. Across networks, gateways advertise the union of their
network's key hashes with an explicit network path; loop prevention and
route preference follow path-vector discipline. Advertisements carry key
hashes only; names, serials, and attributes require a routed query answered
under disclosure policy. A gateway keeps, per peering link, the
advertisements it sent there (its Adj-RIB-Out, empty at first) and the last
one it received per origin (its Adj-RIB-In).

Both feeds follow one anti-entropy rule (``AntiEntropy``) per peer, a
co-member or the far gateway of a link (push-pull, Demers et al., PODC
1987; Scuttlebutt, van Renesse et al., LADIS 2008). A change goes out at
once: a delta in the sync period a directory changed, an advertisement
when what a link holds for its origin changes (RFC 4271's UPDATE). Else,
once per sync period (``SYNC_PERIOD``, one clock for every network and
link), a node sends a peer its signed heartbeat, listing what it holds (a
``DirectoryAnnounce`` to the ``heartbeat_partner``, a ``RouteDigest`` over
a link), unless a change went to the peer in the period, while that is
news to the peer (the start state is none, nor is catching up with the
peer's own directory) or the peer's last verified heartbeat lists it
behind. A node that learns it lacks a peer's state, from
a heartbeat or a delta gap, sends the peer its heartbeat; one whose state a
peer lists behind, not just by the period's change still in flight, pushes
it whole: a ``DirectorySnapshot``, or the link's Adj-RIB-Out, which
replaces the far Adj-RIB-In (RFC 7313), so a withdrawal needs no message.
A node lacking nothing answers a heartbeat that repeats the last or lists
less. A reply goes to a peer at most once per period, so no reply brings a
reply; a heartbeat unanswered for a rotation goes again each period. So a
quiet world falls silent, a lost change comes back one sync period later
plus three latencies, and a wiped view one period plus four.

Revocations do not ride on gossip: every member fetches every CA's CRL
from the CA that issues it (RFC 5280 section 4.2.1.13), as the harness's
CRL duty describes. A view holds exactly what its owner published, and only
``apply_delta`` and ``DirectoryView.install_snapshot`` write it. A revoked
entry stays in the views until its owner publishes the removal, at its
first sync after merging the CRL; meanwhile a relying party that resolves
the key refuses its certificate where every certificate is checked
(``vasp.VaspNode.validate``). ``directory.DirectoryFeed`` and
``reachability.ReachabilityFeed`` run the two feeds. The functions here take
what they read, and reach another VASP only through the one callable they
are given for it. Heartbeats, snapshots and advertisements are signed when
first sent, so nothing is signed unsent. Entry sets and ``Routes`` maps are
replaced on every write, so the key-hash set or digest cached with one
cannot go stale.
"""

from __future__ import annotations

import enum
import functools
import operator
from collections import defaultdict
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterable, Iterator, Mapping, NamedTuple, Optional

from . import crypto
from .assertions import AttributeAssertion
from .ca import Certificate, RevocationView, validate_certificate
from .crypto import canonical_encode, digest, enc_str, enc_u64, encode_bytes_list


class NetworkError(Exception):
    pass


class MembershipDenied(NetworkError):
    pass


# The protocol clock, in ticks, the same in every network.
SYNC_PERIOD = 10  # between a member's directory syncs and a gateway's link duties
CRL_PERIOD = 20  # between a member's CRL fetches
ACK_TIMEOUT = 10  # from a notice sent to its originator giving up on the ack


@dataclass(frozen=True)
class DirectoryEntry(crypto.Record):
    serial: bytes
    public_key_hash: bytes
    issuer_ca_id: str

    def tlv_fields(self) -> list[tuple[int, bytes]]:
        return [(1, self.serial), (2, self.public_key_hash), (3, enc_str(self.issuer_ca_id))]


# Every directory digest depends on this order.
_ENTRY_ORDER = operator.attrgetter("serial", "public_key_hash", "issuer_ca_id")


def _entries_bytes(entries: Iterable[DirectoryEntry]) -> bytes:
    return encode_bytes_list(e.to_bytes() for e in sorted(entries, key=_ENTRY_ORDER))


@dataclass(frozen=True)
class DirectorySnapshot(crypto.Signed):
    SIGNATURE_TAG = 4

    owner_vasp_id: str
    version: int
    entries: frozenset[DirectoryEntry]
    signature: bytes = b""

    def tlv_fields(self) -> list[tuple[int, bytes]]:
        return [
            (1, enc_str(self.owner_vasp_id)),
            (2, enc_u64(self.version)),
            (3, _entries_bytes(self.entries)),
        ]


@dataclass(frozen=True)
class DirectoryDelta(crypto.Signed):
    """One published directory version as a change to the previous one."""

    owner_vasp_id: str
    from_version: int
    to_version: int
    added: frozenset[DirectoryEntry]
    removed: frozenset[DirectoryEntry]
    signature: bytes = b""

    def __post_init__(self) -> None:
        if self.to_version != self.from_version + 1:
            raise ValueError("delta must advance the version by exactly one")
        if self.added & self.removed:
            raise ValueError("added and removed entry sets overlap")

    def tlv_fields(self) -> list[tuple[int, bytes]]:
        return [
            (1, enc_str(self.owner_vasp_id)),
            (2, enc_u64(self.from_version)),
            (3, enc_u64(self.to_version)),
            (4, _entries_bytes(self.added)),
            (5, _entries_bytes(self.removed)),
        ]


@dataclass(frozen=True)
class DirectoryAnnounce(crypto.Signed):
    """Heartbeat of the directory feed in ``network_id``: the publisher's
    directory version and ``views``, the version of each view it holds of
    the network's other members. It names no recipient, so a re-sent
    heartbeat is encoded once; views install only owner-signed versions."""

    owner_vasp_id: str
    network_id: str
    version: int
    views: tuple[tuple[str, int], ...] = ()
    signature: bytes = b""

    def tlv_fields(self) -> list[tuple[int, bytes]]:
        return [
            (1, enc_str(self.owner_vasp_id)),
            (2, enc_str(self.network_id)),
            (3, enc_u64(self.version)),
            (4, encode_bytes_list(
                canonical_encode([(1, enc_str(member_id)), (2, enc_u64(version))])
                for member_id, version in self.views
            )),
        ]

    def listing(self) -> tuple[tuple[str, int], ...]:
        """Every (member id, version) listed, the publisher's own first."""
        return ((self.owner_vasp_id, self.version), *self.views)

    def ahead_of(self, other: Optional["DirectoryAnnounce"]) -> bool:
        """Whether this lists a higher version than ``other`` (None: all at 0)
        for a member but ``other``'s publisher."""
        held, publisher = (dict(other.views), other.owner_vasp_id) if other else ({}, None)
        return any(held.get(member_id, 0) < version
                   for member_id, version in self.listing() if member_id != publisher)

    def news_for(self, sent: Optional["DirectoryAnnounce"], peer_id: str) -> bool:
        """Whether this moves a version against ``sent`` (None: all at 0),
        bar a rise of ``peer_id``'s own, which its publisher knows."""
        old = dict(sent.listing()) if sent is not None else {}
        return any(version < old.get(member_id, 0) if member_id == peer_id
                   else version != old.get(member_id, 0)
                   for member_id, version in self.listing())


class ApplyResult(enum.Enum):
    APPLIED = "applied"
    RESYNC_REQUIRED = "resync-required"


@dataclass
class DirectoryView:
    """One member's view of one publisher's directory. Writers replace
    ``entries`` with a new frozenset; the key-hash set cached with one is
    recomputed when ``entries`` is another object."""

    version: int = 0
    entries: frozenset[DirectoryEntry] = frozenset()
    _hashed: Optional[frozenset[DirectoryEntry]] = field(
        default=None, init=False, repr=False, compare=False)
    _key_hashes: frozenset[bytes] = field(
        default=frozenset(), init=False, repr=False, compare=False)

    def install_snapshot(self, snapshot: DirectorySnapshot) -> bool:
        if snapshot.version < self.version:
            return False
        self.version = snapshot.version
        self.entries = frozenset(snapshot.entries)
        return True

    def key_hashes(self) -> frozenset[bytes]:
        """The public-key hashes of ``entries``."""
        if self._hashed is not self.entries:
            self._key_hashes = frozenset(e.public_key_hash for e in self.entries)
            self._hashed = self.entries
        return self._key_hashes


def apply_delta(view: DirectoryView, delta: DirectoryDelta) -> ApplyResult:
    """Fold an in-order delta into the view; gaps demand a full resync."""
    if delta.from_version != view.version:
        return ApplyResult.RESYNC_REQUIRED
    view.entries = (view.entries - delta.removed) | delta.added
    view.version = delta.to_version
    return ApplyResult.APPLIED


class PeeringLink(NamedTuple):
    """Joins gateway ``vasp_a`` of ``network_a`` to ``vasp_b`` of another
    network, ``network_b``; a scenario declares it under these keys."""

    vasp_a: str
    network_a: str
    vasp_b: str
    network_b: str

    def far_side(self, network_id: str) -> tuple[str, str]:
        """(gateway, network) on the opposite side of the given network."""
        if network_id == self.network_a:
            return self.vasp_b, self.network_b
        if network_id == self.network_b:
            return self.vasp_a, self.network_a
        raise ValueError(f"link does not touch network {network_id}")

    def near_gateway(self, network_id: str) -> str:
        if network_id == self.network_a:
            return self.vasp_a
        if network_id == self.network_b:
            return self.vasp_b
        raise ValueError(f"link does not touch network {network_id}")


# Above the distinct key-hash sets any benchmark workload advertises (seed 7,
# whole run: 56 on churn-lossy, 12 on mesh, 3 on pipeline).
KEY_SET_MEMO_SIZE = 256


@functools.lru_cache(maxsize=KEY_SET_MEMO_SIZE)
def _hashes_bytes(hashes: frozenset[bytes]) -> bytes:
    """An advertised key-hash set, sorted and encoded once per distinct set:
    each hop's copy of an advertisement shares its origin's frozenset."""
    return encode_bytes_list(sorted(hashes))


@dataclass(frozen=True)
class ReachabilityAdvertisement(crypto.Signed):
    """Path-vector claim that a set of key hashes is reachable via a VASP."""

    SIGNATURE_TAG = 6

    advertised_hashes: frozenset[bytes]
    home_vasp_id: str
    origin_network_id: str
    network_path: tuple[str, ...]
    advertising_gateway_id: str
    signature: bytes = b""

    def tlv_fields(self) -> list[tuple[int, bytes]]:
        return [
            (1, _hashes_bytes(self.advertised_hashes)),
            (2, enc_str(self.home_vasp_id)),
            (3, enc_str(self.origin_network_id)),
            (4, encode_bytes_list(enc_str(n) for n in self.network_path)),
            (5, enc_str(self.advertising_gateway_id)),
        ]


def heartbeat_partner(network: "TrustNetwork", vasp_id: str, period: int) -> Optional[str]:
    """The member ``vasp_id`` heartbeats in ``network`` in sync period
    ``period``. With the members sorted as m0..m(n-1), mi sends to
    m((i + 1 + period mod (n - 1)) mod n): each member is one sender's
    partner per period, and over n - 1 periods every other's (one partner
    per round, Demers et al., PODC 1987)."""
    members = network.member_ids()
    if len(members) < 2:
        return None
    offset = 1 + period % (len(members) - 1)
    return members[(members.index(vasp_id) + offset) % len(members)]


def routes_digest(held: Mapping[str, ReachabilityAdvertisement]) -> bytes:
    """Digest of the advertisements held per origin network for one link:
    the ``fingerprint`` of each route, which covers its origin, path, hashes,
    home, gateway and signature."""
    return digest(encode_bytes_list(held[origin].fingerprint() for origin in sorted(held)))


class Routes(Mapping[str, ReachabilityAdvertisement]):
    """The advertisements held per origin network on one side of a peering
    link (an ``AdjRibOut``'s or an Adj-RIB-In). A map is replaced, never
    changed, so its ``digest``, computed on first use, cannot go stale."""

    def __init__(self, routes: Optional[dict[str, ReachabilityAdvertisement]] = None) -> None:
        self._routes = routes or {}

    def __getitem__(self, origin: str) -> ReachabilityAdvertisement:
        return self._routes[origin]

    def __iter__(self) -> Iterator[str]:
        return iter(self._routes)

    def __len__(self) -> int:
        return len(self._routes)

    @functools.cached_property
    def digest(self) -> bytes:
        return routes_digest(self._routes)

    def put(self, adv: ReachabilityAdvertisement) -> "Routes":
        return Routes({**self._routes, adv.origin_network_id: adv})


@dataclass(frozen=True)
class RouteDigest(crypto.Signed):
    """Heartbeat of one peering link: the digests of what the sending gateway
    holds for it (``held``, its Adj-RIB-Out) and received (its Adj-RIB-In)."""

    gateway_id: str
    held: bytes
    received: bytes
    signature: bytes = b""

    def tlv_fields(self) -> list[tuple[int, bytes]]:
        return [(1, enc_str(self.gateway_id)), (2, self.held), (3, self.received)]

    def ahead_of(self, other: Optional["RouteDigest"]) -> bool:
        """Whether ``other`` (None: nothing yet) did not receive what this holds."""
        return (other.received if other else Routes().digest) != self.held

    def news_for(self, sent: Optional["RouteDigest"], peer_id: str) -> bool:
        """Whether this differs from ``sent`` (None: an empty link's)."""
        return (self.held, self.received) != (
            (sent.held, sent.received) if sent else (Routes().digest,) * 2)


@dataclass
class Peer:
    """What a node holds of one anti-entropy peer."""

    sent: Any = None  # the heartbeat last sent to the peer
    since: float = float("inf")  # when ``sent`` first went (inf: nothing sent)
    beat_at: float = float("-inf")  # when a heartbeat last went
    changed_at: float = float("-inf")  # when a change last went
    listed: Any = None  # the peer's last verified heartbeat: what it holds


class AntiEntropy:
    """The rule of this module's docstring for one feed of ``node``, whose
    heartbeats (with ``news_for`` and ``ahead_of``) go as ``kind``. A peer is
    keyed (source, peer id), the source a network id or a peering link;
    ``heartbeats`` holds each source's last draft, signed when first sent."""

    def __init__(self, node, kind: str) -> None:
        self._node, self._kind = node, kind
        self.heartbeats: dict[Any, Any] = {}
        self.peers: defaultdict[Any, Peer] = defaultdict(Peer)

    def draft(self, source, heartbeat) -> None:
        """Hold ``heartbeat`` as ``source``'s unless the held one has its content."""
        held = self.heartbeats.get(source)
        if held is None or replace(held, signature=b"") != heartbeat:
            self.heartbeats[source] = heartbeat

    def settled(self, key, now: int) -> bool:
        """Whether no change a heartbeat could cross went to the peer this period."""
        return self.peers[key].changed_at < now - now % SYNC_PERIOD

    def beat(self, key, now: int, patience: int = 0) -> None:
        """Send the heartbeat while it is news to the peer or the peer lists
        less, unless a change went to it this period; with ``patience``, only
        again, to a peer first sent it that many ticks ago or more."""
        peer, heartbeat = self.peers[key], self.heartbeats[key[0]]
        if patience and now - peer.since < patience or not self.settled(key, now):
            return
        news = heartbeat is not peer.sent and heartbeat.news_for(peer.sent, key[1])
        if not (news and patience) and (news or heartbeat.ahead_of(peer.listed)):
            self.send(key, now)

    def send(self, key, now: int, reply: bool = False) -> None:
        """Send the source's heartbeat to the peer, signed on its first send;
        a ``reply`` only if none went to the peer in the last sync period."""
        source, peer_id = key
        peer, heartbeat = self.peers[key], self.heartbeats[source]
        if reply and now - peer.beat_at < SYNC_PERIOD:
            return
        if not heartbeat.signature:
            heartbeat = self.heartbeats[source] = self._node.seal(heartbeat)
        self._node.env.send(self._node.vasp_id, peer_id, self._kind, heartbeat)
        peer.since = peer.since if heartbeat == peer.sent else now
        peer.sent, peer.beat_at = heartbeat, now


@dataclass(frozen=True)
class RouteEntry:
    origin_network_id: str
    home_vasp_id: str
    hashes: frozenset[bytes]
    network_path: tuple[str, ...]
    via_local_gateway: str
    next_hop_gateway: str

    def preference_key(self) -> tuple[int, tuple[str, ...]]:
        # Shortest path first; equal lengths break on the smaller path tuple.
        return (len(self.network_path), self.network_path)


@dataclass(frozen=True)
class QueryResponse:
    certificate: Certificate
    assertion: Optional[AttributeAssertion]
    responder_vasp_id: str
    responder_certificate: Certificate
    revoked: bool = False


class TrustNetwork:
    """Membership registry, peering links, and route table.

    The registry is one logical actor; members interact with each other only
    through simulator messages and synchronous queries.
    """

    def __init__(self, network_id: str, recognized_anchors: Mapping[str, Certificate]) -> None:
        self.network_id = network_id
        # CA id -> root certificate, kept as given, not copied.
        self.recognized_anchors = recognized_anchors
        # Member id -> its VASP certificate, as admitted.
        self.members: dict[str, Certificate] = {}
        self.peering_links: list[PeeringLink] = []
        self.route_table: dict[str, RouteEntry] = {}

    def join_network(self, vasp_certificate: Certificate, now: int,
                     revocation: Optional[RevocationView] = None) -> None:
        """Admit a VASP whose certificate validates against a recognised CA."""
        result = validate_certificate(vasp_certificate, self.recognized_anchors, now, revocation)
        if not result.ok:
            raise MembershipDenied(f"{result.status.value}: {result.detail}")
        self.members[vasp_certificate.subject_id] = vasp_certificate

    def member_ids(self) -> list[str]:
        return sorted(self.members)

    def gateway_ids(self) -> list[str]:
        return sorted({link.near_gateway(self.network_id) for link in self.peering_links})

    def links_of(self, gateway_vasp_id: str) -> list[PeeringLink]:
        return [
            link
            for link in self.peering_links
            if link.near_gateway(self.network_id) == gateway_vasp_id
        ]

    def dump_route_lines(self) -> list[str]:
        lines = []
        for origin in sorted(self.route_table):
            entry = self.route_table[origin]
            for key_hash in sorted(entry.hashes):
                lines.append(
                    f"{key_hash.hex()[:16]},{entry.home_vasp_id},{'>'.join(entry.network_path)}"
                )
        return lines


def find_link(
    networks: Iterable[TrustNetwork], sender_gateway: str, receiver_gateway: str
) -> tuple[Optional[TrustNetwork], Optional[PeeringLink]]:
    """The first of ``networks`` with a peering link from ``sender_gateway``
    to its gateway ``receiver_gateway``, and that link."""
    for network in networks:
        for link in network.links_of(receiver_gateway):
            if link.far_side(network.network_id)[0] == sender_gateway:
                return network, link
    return None, None


def build_advertisement(
    network: TrustNetwork, gateway_id: str, views: Mapping[str, DirectoryView]
) -> ReachabilityAdvertisement:
    """Summarize the network's directory as seen from a gateway member: the
    union of the member views it holds, reachable through the gateway, its
    home VASP. It is unsigned until ``ReachabilityFeed.advertise`` sends it.
    """
    hashes: set[bytes] = set()
    for member_id in network.member_ids():
        hashes |= views[member_id].key_hashes()
    return ReachabilityAdvertisement(
        advertised_hashes=frozenset(hashes),
        home_vasp_id=gateway_id,
        origin_network_id=network.network_id,
        network_path=(network.network_id,),
        advertising_gateway_id=gateway_id,
    )


def process_advertisement(
    network: TrustNetwork, receiving_gateway_id: str, adv: ReachabilityAdvertisement,
    sender_gateway_id: str, gateway: Callable[[str], Any],
) -> tuple[str, str]:
    """Install or drop an incoming advertisement; returns (verdict, reason).

    ``gateway(vasp_id)`` is the reachability feed of a gateway of
    ``network``; the receiving one checks the sender's signature and holds
    what it received over the link. On install the advertisement, its path
    extended, goes over the network's other peering links, each by its
    gateway (``ReachabilityFeed.advertise``). A link it does not go over (the
    one it came in on, or one back into its path) stops holding a route to
    that origin, which the link's digest then shows the far gateway.
    """
    _, link = find_link((network,), sender_gateway_id, receiving_gateway_id)
    if link is None:
        return "drop", "not-a-gateway"
    if not adv.network_path or adv.network_path[0] != adv.origin_network_id:
        return "drop", "malformed-path"
    if adv.advertising_gateway_id != sender_gateway_id:
        return "drop", "not-a-gateway"
    if len(set(adv.network_path)) != len(adv.network_path) or (
            network.network_id in adv.network_path):
        return "drop", "loop"
    receiver = gateway(receiving_gateway_id)
    if not receiver.authentic(sender_gateway_id, adv):
        return "drop", "bad-signature"
    # The link's Adj-RIB-In: what the far gateway holds for it, once
    # received, whether or not it is installed.
    receiver.receive(link, adv)

    candidate = RouteEntry(
        origin_network_id=adv.origin_network_id,
        home_vasp_id=adv.home_vasp_id,
        hashes=adv.advertised_hashes,
        network_path=adv.network_path,
        via_local_gateway=receiving_gateway_id,
        next_hop_gateway=sender_gateway_id,
    )
    existing = network.route_table.get(adv.origin_network_id)
    if existing is not None:
        if candidate.preference_key() > existing.preference_key():
            return "drop", "worse-path"
        if (
            candidate.preference_key() == existing.preference_key()
            and candidate.hashes == existing.hashes
            and candidate.next_hop_gateway == existing.next_hop_gateway
        ):
            return "drop", "duplicate"
    network.route_table[adv.origin_network_id] = candidate

    extended_path = adv.network_path + (network.network_id,)
    for out_link in network.peering_links:
        far_gateway, far_network = out_link.far_side(network.network_id)
        local_gateway_id = out_link.near_gateway(network.network_id)
        local_gateway = gateway(local_gateway_id)
        if out_link == link or far_network in extended_path:
            local_gateway.withdraw(out_link, adv.origin_network_id)
            continue
        local_gateway.advertise(out_link, far_gateway, replace(
            adv, network_path=extended_path, advertising_gateway_id=local_gateway_id,
            signature=b""))
    return "accept", ""


def query_certificate(
    requester_id: str, views: Mapping[str, DirectoryView], key_hash: bytes,
    answer: Callable[[str, bytes], Optional[QueryResponse]],
) -> Optional[QueryResponse]:
    """Consult the requester's directory views and query each owning member.

    ``answer(owner_id, key_hash)`` is the owner's response (flagged
    ``revoked`` or not), or None when the owner is unreachable or silent. A
    revoked response is kept only if no later owner answers unrevoked; the
    views are left as their owners published them.
    """
    result: Optional[QueryResponse] = None
    for owner_id in sorted(views):
        if owner_id == requester_id or key_hash not in views[owner_id].key_hashes():
            continue
        response = answer(owner_id, key_hash)
        if response is None:
            continue
        if not response.revoked:
            return response
        result = result or response
    return result


def route_cross_network_query(
    requester_id: str, networks: Iterable[TrustNetwork], key_hash: bytes,
    gateway: Callable[[str, str], Any], log: Callable[..., None],
) -> tuple[Optional[QueryResponse], list[str]]:
    """Forward a certificate query along the installed gateway routes of
    the requester's ``networks``.

    ``gateway(via, nxt)`` is the resolver of gateway ``nxt``, or None when
    the link from ``via`` is down; the last one answers in the route's
    origin network. ``log`` records a failed walk as the requester's event.
    Returns the response (or None) and the hop list actually walked; a dead
    link or gateway mid-path yields NotFound with the partial path.
    """
    candidates: list[tuple[tuple[int, str], TrustNetwork, RouteEntry]] = []
    for network in networks:
        for origin in sorted(network.route_table):
            entry = network.route_table[origin]
            if key_hash in entry.hashes:
                candidates.append(((len(entry.network_path), origin), network, entry))
    if not candidates:
        return None, [requester_id]
    candidates.sort(key=lambda item: item[0])
    _, network, entry = candidates[0]

    hops = [requester_id]
    visited = {network.network_id}
    current_network = network
    current_entry = entry
    while True:
        via = current_entry.via_local_gateway
        nxt = current_entry.next_hop_gateway
        if hops[-1] != via:
            hops.append(via)
        next_gateway = gateway(via, nxt)
        if next_gateway is None:
            log("route_query_failed", reason="link-down", partial_path=">".join(hops))
            return None, hops
        hops.append(nxt)
        # The entry was installed from an advertisement sent over this link.
        _, link = find_link((current_network,), nxt, via)
        _, far_network_id = link.far_side(current_network.network_id)
        if far_network_id == current_entry.origin_network_id:
            response, owner_hops = next_gateway.answer_in_origin(key_hash)
            hops.extend(owner_hops)
            return response, hops
        next_network = next_gateway.network(far_network_id)
        if next_network is None or far_network_id in visited:
            log("route_query_failed", reason="routing-loop", partial_path=">".join(hops))
            return None, hops
        visited.add(far_network_id)
        next_entry = next_network.route_table.get(current_entry.origin_network_id)
        if next_entry is None:
            log("route_query_failed", reason="no-onward-route", partial_path=">".join(hops))
            return None, hops
        current_network = next_network
        current_entry = next_entry
