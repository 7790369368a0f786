"""Deterministic discrete-event harness wiring CAs, VASPs, trust networks,
peering links, the chain, and scripted actors.

Time is integer ticks. Per tick, processing order is fixed: scripted actions,
then due message deliveries (ascending destination actor id, then send
sequence), then periodic protocol duties, then ack-timeout sweeps, then the
chain tick with confirmation fan-out to the VASPs watching each transaction
(those holding one of its keys or a record filed under its tx id). One
message hop costs a latency drawn from a seeded per-link PRNG in
[1, MAX_LATENCY]; links can drop probabilistically or be forced down for a
scripted period.

One clock, the same in every network, times the periodic duties
(``network.SYNC_PERIOD`` and ``network.CRL_PERIOD``). They run in this
order; ``network`` sets out the gossip. Every sync period, each member
publishes a delta if its live entries changed, else may heartbeat one
partner per network (``directory.DirectoryFeed.sync``). Then each gateway
sends over each peering link its network's advertisement if that changed,
else may send the link's digest (``reachability.ReachabilityFeed``).
Every CRL period, each member then fetches the current CRL of every CA, in
CA id order, from the CA that issues it (RFC 5280 section 4.2.1.13, CRL
distribution points): a relying party may meet a certificate of any CA,
across a peering link as well as in its networks. This is the only way
CRLs move. The fetch is a synchronous call, like a CA lookup, because a CA
is not a simulated node. The CA issues a new CRL only when a revocation
came after its last one (``current_crl``), so every fetch between two
revocations gets the same CRL.

Actor key material derives from (seed, actor name) so construction order
never affects any byte of the run.

Every event goes into one hash-chained ``EventLog``, and the run's
``Metrics`` are counted from it when they are read, so a replay of a
canonical report can count them again. Only the number of messages sent
and the final tick are kept beside the log.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Callable, Iterable, NamedTuple, Optional

from . import crypto
from .accounts import CustodyModel
from .ca import ROOT_VALIDITY, VASP_CERT_VALIDITY, CertificateAuthority, Certificate
from .chain import ChainTransaction, SimChain, SubmitResult, build_transaction
from .crypto import FIELD_HEADER, KeyPair, digest
from .network import CRL_PERIOD, SYNC_PERIOD, TrustNetwork
from .resolution import TransferTarget
from .scenario import (AccountTarget, Action, BatchTransfer, CustomerSpec, CustomerTarget,
                       DropLink, Enroll, KeyHashTarget, OpenAccount, P2pTransfer, RevokeCert,
                       Scenario, Target, Transfer)
from .transfer import AuditReport, ReconciliationReport, TransferOutcome
from .vasp import VaspNode

MAX_LATENCY = 3  # a hop's latency is drawn from [1, MAX_LATENCY] ticks


_TICK_FIELD = struct.Struct(FIELD_HEADER.format + "Q")


def _event_bytes(tick: int, actor: str, event: str, details: tuple[tuple[str, str], ...]) -> bytes:
    """The canonical record of an event, built in one pass: tick, actor,
    event, then the details as ``encode_str_map`` encodes them. ``details``
    must be sorted by key, with each key once, as ``EventLog.append`` makes
    them; the bytes then equal ``canonical_encode`` of the four fields with
    ``encode_str_map(dict(details))`` as the fourth."""
    pack = FIELD_HEADER.pack
    parts: list[bytes] = []
    tag = 1
    for key, value in details:
        key_bytes, value_bytes = key.encode(), value.encode()
        parts += (pack(tag, len(key_bytes)), key_bytes, pack(tag + 1, len(value_bytes)), value_bytes)
        tag += 2
    detail_bytes = b"".join(parts)
    actor_bytes, event_bytes = actor.encode(), event.encode()
    return b"".join((
        _TICK_FIELD.pack(1, 8, tick),
        pack(2, len(actor_bytes)), actor_bytes,
        pack(3, len(event_bytes)), event_bytes,
        pack(4, len(detail_bytes)), detail_bytes,
    ))


class EventRecord(NamedTuple):
    tick: int
    actor: str
    event: str
    details: tuple[tuple[str, str], ...]

    def to_bytes(self) -> bytes:
        return _event_bytes(*self)


class EventLog:
    """Ordered event records plus a running digest over their canonical
    bytes. Each event is normalised, encoded and hashed in one pass, when it
    is appended."""

    def __init__(self) -> None:
        self.entries: list[EventRecord] = []
        self.running_digest = bytes(crypto.HASH_LEN)

    def append(self, tick: int, actor: str, event: str, **details: Any) -> EventRecord:
        normalized = tuple(sorted((k, str(v)) for k, v in details.items()))
        record = EventRecord(tick, actor, event, normalized)
        self.entries.append(record)
        self.running_digest = digest(self.running_digest + _event_bytes(*record))
        return record

    def __len__(self) -> int:
        return len(self.entries)


@dataclass
class Metrics:
    """The run's counters, each a count over its event log
    (``from_events``). Two are kept beside the log: ``messages_sent``, since
    a send is logged only when the message is dropped, and ``final_tick``,
    the harness clock. A replay derives the rest from the log again."""

    transfers_attempted: int = 0
    transfers_confirmed: int = 0
    transfers_denied: dict[str, int] = field(default_factory=dict)
    resolution_attempts: int = 0
    resolution_successes: int = 0
    resolution_hops_total: int = 0
    advertisements_accepted: int = 0
    advertisements_dropped: int = 0
    messages_sent: int = 0
    messages_dropped: int = 0
    ledger_transactions: int = 0
    audit_violations: int = 0
    reconciliation_orphans: int = 0
    unconfirmed_records: int = 0
    directory_convergence_tick: int = 0
    final_tick: int = 0

    @classmethod
    def from_events(cls, entries: Iterable[EventRecord], messages_sent: int = 0,
                    final_tick: int = 0) -> "Metrics":
        """Count the events. Denial reasons keep the order they are first seen in."""
        metrics = cls(messages_sent=messages_sent, final_tick=final_tick)
        for record in entries:
            event, details = record.event, dict(record.details)
            if event == "transfer_initiated":
                metrics.transfers_attempted += 1
            elif event == "transfer_denied":
                reason = details.get("reason", "?")
                metrics.transfers_denied[reason] = metrics.transfers_denied.get(reason, 0) + 1
            elif event == "record_confirmed" and details.get("role") == "originator":
                metrics.transfers_confirmed += 1
            elif event == "resolve":
                metrics.resolution_attempts += 1
                if details.get("outcome") == "resolved":
                    metrics.resolution_successes += 1
                    metrics.resolution_hops_total += int(details.get("hops", 0))
            elif event == "advertisement" and details.get("verdict") == "accept":
                metrics.advertisements_accepted += 1
            elif event == "advertisement":
                metrics.advertisements_dropped += 1
            elif event == "message_dropped":
                metrics.messages_dropped += 1
            elif event == "tx_submitted":
                metrics.ledger_transactions += 1
            elif event == "audit_report":
                metrics.audit_violations += int(details["violations"])
            elif event == "reconcile_report":
                metrics.reconciliation_orphans += int(details["orphans"])
                metrics.unconfirmed_records += int(details["unconfirmed"])
            elif event in ("directory_applied", "directory_published"):
                metrics.directory_convergence_tick = record.tick
        return metrics

    @property
    def denied_total(self) -> int:
        return sum(self.transfers_denied.values())

    @property
    def in_flight(self) -> int:
        return self.transfers_attempted - self.transfers_confirmed - self.denied_total

    @property
    def resolution_success_rate(self) -> float:
        if self.resolution_attempts == 0:
            return 0.0
        return self.resolution_successes / self.resolution_attempts

    @property
    def mean_resolution_hops(self) -> float:
        if self.resolution_successes == 0:
            return 0.0
        return self.resolution_hops_total / self.resolution_successes

    def as_pairs(self) -> list[tuple[str, str]]:
        pairs = [
            ("transfers_attempted", str(self.transfers_attempted)),
            ("transfers_confirmed", str(self.transfers_confirmed)),
            ("transfers_denied_total", str(self.denied_total)),
            ("transfers_in_flight", str(self.in_flight)),
            ("resolution_success_rate", f"{self.resolution_success_rate:.4f}"),
            ("mean_resolution_hops", f"{self.mean_resolution_hops:.4f}"),
            ("advertisements_accepted", str(self.advertisements_accepted)),
            ("advertisements_dropped", str(self.advertisements_dropped)),
            ("messages_sent", str(self.messages_sent)),
            ("messages_dropped", str(self.messages_dropped)),
            ("ledger_transactions", str(self.ledger_transactions)),
            ("audit_violations", str(self.audit_violations)),
            ("reconciliation_orphans", str(self.reconciliation_orphans)),
            ("unconfirmed_records", str(self.unconfirmed_records)),
            ("directory_convergence_tick", str(self.directory_convergence_tick)),
            ("final_tick", str(self.final_tick)),
        ]
        pairs += [
            (f"denied.{reason}", str(count))
            for reason, count in sorted(self.transfers_denied.items())
        ]
        return pairs


@dataclass
class _Message:
    seq: int
    src: str
    dst: str
    kind: str
    payload: Any


class _Link:
    def __init__(self, rng: random.Random, drop_probability: float) -> None:
        self.rng = rng
        self.drop_probability = drop_probability
        self.down_until = 0

    def up(self, now: int) -> bool:
        return now >= self.down_until

    def draw_latency(self) -> int:
        return self.rng.randint(1, MAX_LATENCY)

    def draw_drop(self) -> bool:
        if self.drop_probability <= 0.0:
            return False
        return self.rng.random() < self.drop_probability


@dataclass
class ScriptedTransfer:
    action: Transfer | BatchTransfer
    outcome: TransferOutcome
    origin_vasp: str


class Simulation:
    """Build the world from a scenario and run it tick by tick.

    The instance doubles as the environment interface handed to every
    actor. Every role of a node writes ``log``. The directory feed, the
    reachability feed and the transfers ``send``; the account book
    (customer keys) and the transfers (record bindings) ``watch``; the
    transfers alone ``submit_tx`` and read ``chain``. The resolver reaches
    other VASPs through ``node`` and ``link_ok``, the reachability feed the
    other gateways of its network through ``node``, and the node fetches a
    peer's certificate through both and checks certificates at ``now``.
    """

    def __init__(self, scenario: Scenario, seed: Optional[int] = None) -> None:
        self.scenario = scenario
        self.seed = scenario.seed if seed is None else seed
        self.now = 0
        self.log_ = EventLog()
        self.breaches: list[str] = []
        self.chain = SimChain()
        self._queue: dict[int, list[_Message]] = {}
        self._seq = 0  # one per send, so also the count of messages sent
        self._links: dict[tuple[str, str], _Link] = {}
        # Public key or tx id -> the VASPs its confirmations are delivered to.
        self._watchers: dict[bytes, set[str]] = {}
        self.scripted_transfers: list[ScriptedTransfer] = []
        # VASP id -> its audit and reconciliation at the end of the run.
        self.reports: dict[str, tuple[AuditReport, ReconciliationReport]] = {}
        self._next_tick = 0
        self._script_cursor = 0

        self.cas: dict[str, CertificateAuthority] = {}
        self.networks: dict[str, TrustNetwork] = {}
        self.vasps: dict[str, VaspNode] = {}
        # Both dicts are filled only by ``_build``; every loop over them
        # visits these, sorted by id there once.
        self._network_order: tuple[TrustNetwork, ...] = ()
        self._vasp_order: tuple[VaspNode, ...] = ()
        self._customers: dict[str, CustomerSpec] = {}
        self._suspect_customers = frozenset(s.customer for s in scenario.suspect_entries if s.customer)
        self._build()

    @property
    def metrics(self) -> Metrics:
        return Metrics.from_events(self.log_.entries, messages_sent=self._seq, final_tick=self.now)

    # -- environment interface ------------------------------------------------

    def log(self, actor: str, event: str, **details: Any) -> None:
        self.log_.append(self.now, actor, event, **details)

    def node(self, vasp_id: str) -> Optional[VaspNode]:
        return self.vasps.get(vasp_id)

    def link_ok(self, a: str, b: str) -> bool:
        return self._link(a, b).up(self.now)

    def send(self, src: str, dst: str, kind: str, payload: Any) -> None:
        link = self._link(src, dst)
        self._seq += 1
        if not link.up(self.now):
            self.log(src, "message_dropped", to=dst, kind=kind, reason="link-down")
            return
        if link.draw_drop():
            self.log(src, "message_dropped", to=dst, kind=kind, reason="loss")
            return
        deliver = self.now + link.draw_latency()
        message = _Message(self._seq, src, dst, kind, payload)
        self._queue.setdefault(deliver, []).append(message)

    def watch(self, ref: bytes, vasp_id: str) -> None:
        """Deliver to ``vasp_id`` the confirmation of every transaction that
        has ``ref`` as its tx id or as one of its keys."""
        self._watchers.setdefault(ref, set()).add(vasp_id)

    def submit_tx(self, actor: str, tx: ChainTransaction) -> SubmitResult:
        result = self.chain.submit_transaction(tx, self.now)
        if result.accepted:
            self.log(actor, "tx_submitted", tx=tx.tx_id.hex(), amount=tx.amount,
                     asset=tx.asset_type)
        else:
            self.log(actor, "tx_rejected", reason=result.reason or "")
        return result

    def _link(self, a: str, b: str) -> _Link:
        key = (a, b) if a <= b else (b, a)
        link = self._links.get(key)
        if link is None:
            rng = random.Random(
                int.from_bytes(digest(f"link:{self.seed}:{key[0]}:{key[1]}".encode()), "big")
            )
            link = _Link(rng, self.scenario.defaults.drop_probability)
            self._links[key] = link
        return link

    # -- world construction -----------------------------------------------------

    def _build(self) -> None:
        scenario = self.scenario
        roots: dict[str, Certificate] = {}
        for ca_id in sorted(spec.ca_id for spec in scenario.cas):
            keypair = crypto.keypair_from_label(f"ca:{self.seed}", ca_id)
            ca = CertificateAuthority(ca_id, keypair, self._derived_rng("ca-rng", ca_id))
            roots[ca_id] = ca.self_sign_root(0, ROOT_VALIDITY)
            self.cas[ca_id] = ca

        # The trust anchors: one read-only map, held by every network and node.
        anchors = MappingProxyType(roots)
        for network_id in sorted(spec.network_id for spec in scenario.networks):
            self.networks[network_id] = TrustNetwork(network_id, anchors)
        self._network_order = tuple(self.networks[n] for n in sorted(self.networks))

        for spec in sorted(scenario.vasps, key=lambda v: v.vasp_id):
            keypair = crypto.keypair_from_label(f"vasp:{self.seed}", spec.vasp_id)
            rng = self._derived_rng("vasp-rng", spec.vasp_id)
            node = VaspNode(vasp_id=spec.vasp_id, keypair=keypair, ca=self.cas[spec.ca],
                            trust_anchors=anchors, rng=rng, env=self)
            node.enroll_vasp_certificate(
                self._vasp_registration_attributes(spec.vasp_id), 0, VASP_CERT_VALIDITY
            )
            for network_id in spec.networks:
                node.join(self.networks[network_id], 0)
            self.vasps[spec.vasp_id] = node
        self._vasp_order = tuple(self.vasps[v] for v in sorted(self.vasps))

        for link in scenario.peering_links:
            self.networks[link.network_a].peering_links.append(link)
            self.networks[link.network_b].peering_links.append(link)

        self._customers = {c.customer_id: c for c in scenario.customers}

        for suspect in scenario.suspect_entries:
            if suspect.account_id is not None:
                self._blocklist(suspect.account_id)
            if suspect.key_hash_hex is not None:
                self._blocklist(suspect.key_hash_hex)
            if suspect.customer is not None:
                # Its key hash, if it has a key, when its account opens.
                self._blocklist(self._account_id_for(suspect.customer))

    def _vasp_registration_attributes(self, vasp_id: str) -> dict[str, str]:
        return {
            "name": vasp_id,
            "email": f"ops@{vasp_id}",
            "government_id": f"gov-{vasp_id}",
            "address": f"1 {vasp_id} way",
            "organization_vetting_ref": f"vet-{vasp_id}",
            "vasp_id": vasp_id,
        }

    def _derived_rng(self, namespace: str, label: str) -> random.Random:
        seed_bytes = digest(f"{namespace}:{self.seed}:{label}".encode())
        return random.Random(int.from_bytes(seed_bytes, "big"))

    def _blocklist(self, ref) -> None:
        for node in self._vasp_order:
            node.suspect_list.add(ref)

    def _account_id_for(self, customer_id: str) -> str:
        return f"acct-{customer_id}"

    def _customer_wallet(self, customer_id: str) -> Optional[KeyPair]:
        if self._customers[customer_id].custody_model is not CustodyModel.MEDIATED:
            return None  # none for commingled; key custody generates it in the VASP
        return crypto.keypair_from_label(f"customer:{self.seed}", customer_id)

    def _p2p_wallet(self, name: str) -> KeyPair:
        return crypto.keypair_from_label(f"p2p:{self.seed}", name)

    # -- script execution ---------------------------------------------------------

    def _run_action(self, index: int, action: Action) -> None:
        """Run ``action``, the script's ``index``-th. An ``Advance`` does nothing."""
        match action:
            case OpenAccount(customer=customer):
                self._open_customer(customer)
            case Enroll(customer=customer):
                spec = self._customers[customer]
                vasp = self.vasps[spec.vasp]
                vasp.book.enroll_customer_certificate(
                    self._account_id_for(spec.customer_id), spec.requested_class, self.now)
            case Transfer(origin=origin):
                vasp = self.vasps[self._customers[origin].vasp]
                outcome = vasp.initiate_transfer(
                    self._account_id_for(origin), self._build_target(action.target),
                    action.amount, action.asset,
                )
                self.scripted_transfers.append(ScriptedTransfer(action, outcome, vasp.vasp_id))
            case BatchTransfer(entries=entries):
                # All from one VASP's pool, says the schema.
                vasp = self.vasps[self._customers[entries[0].origin].vasp]
                requests = [(self._account_id_for(e.origin), self._build_target(e.target), e.amount)
                            for e in entries]
                outcome = vasp.transfers.initiate_batch_transfer(requests, action.asset)
                self.scripted_transfers.append(ScriptedTransfer(action, outcome, vasp.vasp_id))
            case P2pTransfer():
                self._p2p_transfer(index, action)
            case RevokeCert(customer=customer, reason=reason):
                vasp = self.vasps[self._customers[customer].vasp]
                account = vasp.book.accounts[self._account_id_for(customer)]
                vasp.ca.revoke(account.certificate_serial, reason, self.now)
                self.log(vasp.ca.ca_id, "certificate_revoked",
                         serial=account.certificate_serial.hex(), reason=reason.value)
            case DropLink(a=a, b=b):
                link = self._link(a, b)
                link.down_until = self.now + action.period
                self.log("script", "link_down", a=a, b=b, until=link.down_until)

    def _open_customer(self, customer_id: str) -> None:
        spec = self._customers[customer_id]
        vasp = self.vasps[spec.vasp]
        wallet = self._customer_wallet(customer_id)
        account = vasp.open_account(
            subject_id=customer_id,
            attributes=dict(spec.attributes),
            custody_model=spec.custody_model,
            customer_wallet=wallet,
            account_id=self._account_id_for(customer_id),
            now=self.now,
        )
        if customer_id in self._suspect_customers and account.customer_public_key_hash:
            self._blocklist(account.customer_public_key_hash)

    def _build_target(self, target: Target) -> TransferTarget:
        match target:
            case CustomerTarget(customer=customer):
                # A mediated customer's key is known up front, a key-custody
                # one's once the account opens; a commingled one has none.
                wallet = self._customer_wallet(customer)
                if wallet is not None:
                    return TransferTarget.from_key_hash(wallet.public_key_hash)
                home, account_id = self._customers[customer].vasp, self._account_id_for(customer)
                account = self.vasps[home].book.accounts.get(account_id)
                if account is not None and account.customer_public_key_hash is not None:
                    return TransferTarget.from_key_hash(account.customer_public_key_hash)
                return TransferTarget.from_account(home, account_id)
            case AccountTarget(vasp=vasp, account=account_id):
                return TransferTarget.from_account(vasp, account_id)
            case KeyHashTarget(key_hash_hex=key_hash):
                return TransferTarget.from_key_hash(key_hash)

    def _p2p_transfer(self, index: int, action: P2pTransfer) -> None:
        sender = self._p2p_wallet(action.from_wallet)
        if action.to_wallet is not None:
            receiver = self._p2p_wallet(action.to_wallet)
        else:  # a mediated customer, says the schema
            receiver = self._customer_wallet(action.to_customer)
        # The action's place in the script makes each scripted transfer its own.
        nonce = digest(f"p2p-nonce:{self.seed}:{index}".encode())[:8]
        tx = build_transaction(
            sender, sender.public_key, receiver.public_key, action.amount, action.asset, nonce,
        )
        self.submit_tx(f"p2p:{action.from_wallet}", tx)

    # -- main loop ---------------------------------------------------------------

    def advance_to(self, tick: int) -> None:
        """Process every tick up to and including the given one."""
        while self._next_tick <= tick:
            self._tick(self._next_tick)
            self._next_tick += 1

    def _tick(self, tick: int) -> None:
        self.now = tick
        script = self.scenario.script
        while self._script_cursor < len(script) and script[self._script_cursor].tick == tick:
            self._run_action(self._script_cursor, script[self._script_cursor])
            self._script_cursor += 1
        self._deliver_messages(tick)
        self._periodic_duties(tick)
        for node in self._vasp_order:
            node.transfers.sweep_ack_timeouts(tick)
        for event in self.chain.tick(tick):
            tx = event.transaction
            self.log("chain", "chain_confirmed", tx=tx.tx_id.hex(), block=event.block_index)
            for vasp_id in sorted(self._confirmation_watchers(tx)):
                self.vasps[vasp_id].on_chain_confirmation(tx)

    def _confirmation_watchers(self, tx: ChainTransaction) -> set[str]:
        """The VASPs holding a key of ``tx`` or a record filed under its tx
        id. Any other VASP's ``on_chain_confirmation`` would do nothing."""
        none: frozenset[str] = frozenset()
        get = self._watchers.get
        return (get(tx.tx_id, none) | get(tx.from_public_key, none)
                | get(tx.to_public_key, none))

    def run(self) -> "RunResult":
        self.advance_to(self.scenario.horizon())
        self._finalize()
        return RunResult(self)

    def _deliver_messages(self, tick: int) -> None:
        due = self._queue.pop(tick, [])
        due.sort(key=lambda m: (m.dst, m.seq))
        for message in due:
            # In-flight messages die with the link.
            if not self._link(message.src, message.dst).up(tick):
                self.log(message.src, "message_dropped", to=message.dst,
                         kind=message.kind, reason="link-down")
                continue
            target = self.vasps.get(message.dst)
            if target is None:
                self.log(message.dst, "message_ignored", kind=message.kind)
                continue
            target.on_message(message.kind, message.payload, message.src)

    def _periodic_duties(self, tick: int) -> None:
        if tick % SYNC_PERIOD == 0:
            for vasp_id in self._each_once(TrustNetwork.member_ids):
                self.vasps[vasp_id].directory.sync(tick)
            for vasp_id in self._each_once(TrustNetwork.gateway_ids):
                self.vasps[vasp_id].advertise_reachability(tick)
        if tick % CRL_PERIOD == 0:
            crls = [self.cas[ca_id].current_crl(tick) for ca_id in sorted(self.cas)]
            for vasp_id in self._each_once(TrustNetwork.member_ids):
                self.vasps[vasp_id].ingest_crls(crls)

    def _each_once(self, ids_of: Callable[[TrustNetwork], list[str]]) -> Iterable[str]:
        """Each VASP that ``ids_of`` names in a network, once, in network order."""
        return dict.fromkeys(
            vasp_id for network in self._network_order for vasp_id in ids_of(network))

    def _finalize(self) -> None:
        if not self.chain.verify_chain():
            self.breaches.append("chain hash verification failed")
        for vasp in self._vasp_order:
            vasp_id = vasp.vasp_id
            audit, reconcile = vasp.audit_travel_rule(), vasp.reconcile()
            self.reports[vasp_id] = (audit, reconcile)
            self.log(vasp_id, "audit_report", records=audit.records_checked,
                     violations=len(audit.violations))
            self.log(vasp_id, "reconcile_report", matched=reconcile.matched,
                     orphans=len(reconcile.orphan_chain_txs),
                     unconfirmed=len(reconcile.unconfirmed_records))
        for breach in self.scan_blind_broadcasts():
            self.breaches.append(breach)

    # -- post-run verification helpers ---------------------------------------------

    def scan_blind_broadcasts(self) -> list[str]:
        """Event-log scan: every VASP-submitted tx needs a prior accepting ack
        whose binding digest is its tx id."""
        accepted_bindings: dict[str, int] = {}
        for record in self.log_.entries:
            if record.event != "ack_sent":
                continue
            details = dict(record.details)
            if details.get("decision") == "accept":
                accepted_bindings.setdefault(details["binding"], record.tick)
        problems = []
        for record in self.log_.entries:
            if record.event != "tx_submitted" or record.actor not in self.vasps:
                continue
            tx_id = dict(record.details)["tx"]
            first_ack = accepted_bindings.get(tx_id)
            if first_ack is None or first_ack > record.tick:
                problems.append(
                    f"tx {tx_id[:16]} submitted by {record.actor} without prior accepted ack"
                )
        return problems


@dataclass
class RunResult:
    sim: Simulation

    @property
    def metrics(self) -> Metrics:
        return self.sim.metrics

    @property
    def digest_hex(self) -> str:
        return self.sim.log_.running_digest.hex()

    @property
    def breaches(self) -> list[str]:
        return self.sim.breaches


def run_scenario(scenario: Scenario, seed: Optional[int] = None) -> RunResult:
    return Simulation(scenario, seed=seed).run()
