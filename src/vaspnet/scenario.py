"""Scenario files: the structured-text schema driving a simulation run.

A scenario is a key-value tree (YAML, read by ``cli.load_scenario``) wiring
networks, CAs, VASPs, peering links, customers, suspect entries, and a timed
action script. ``parse_scenario`` checks it in one read: each section as it
is built, the script last and in order. A key that its mapping does not
take, a dangling reference, a number out of range, an id that is not a
string (named by its path: ``scenario.script.3.target.customer``), a
decreasing tick and an action that the run could not carry out are schema
errors, and so is a number given as a bool or a string, or a whole number
given as a float. An account opens once, before any transfer from it or
enrolment of it; a commingled customer holds no key to enrol, and one
without the Class 1 attributes (``ca.missing_class1_attributes``) none that
its CA would certify; a certificate is revoked once it is issued, and only
once.

Schema (all ids are strings; every referenced id must be declared):

    seed: 42                       # 64-bit simulation seed
    defaults: {drop_probability: 0.0}
    networks:
      - {network_id: net-a}
    cas:
      - {ca_id: ca-1}
    vasps:
      - {vasp_id: v1, ca: ca-1, networks: [net-a]}
    peering_links:
      - {vasp_a: v1, network_a: net-a, vasp_b: v2, network_b: net-b}
    customers:
      - {customer_id: alice, vasp: v1, custody_model: mediated,
         requested_class: class1, attributes: {name: Alice, email: a@x}}
    suspect_entries:
      - {customer: mallory}        # or {account_id: "..."} / {key_hash_hex: "..."}
    script:
      - {tick: 0, action: open_account, customer: alice}
      - {tick: 1, action: enroll, customer: alice}
      - {tick: 15, action: transfer, origin: alice,
         target: {customer: bob}, amount: 100, asset: coin}
      - {tick: 18, action: batch_transfer, asset: coin, entries: [
         {origin: chen, target: {customer: bob}, amount: 5}]}
      - {tick: 20, action: p2p_transfer, from_wallet: w1, to_wallet: w2,
         amount: 5, asset: coin}
      - {tick: 25, action: revoke_cert, customer: bob, reason: keyCompromise}
      - {tick: 30, action: drop_link, a: v1, b: v2, period: 15}
      - {tick: 60, action: advance, ticks: 20}

Each top-level key but ``seed`` and ``defaults`` holds a list of mappings;
``defaults``, attributes and targets are mappings.

Ranges: ``seed`` in [0, 2**64); ``drop_probability`` in [0, 1]; script
ticks at least 0; ``period`` and ``ticks`` at least 1; ``amount`` in
[1, 2**64), and so is the sum of a batch's amounts, the ledger's u64. The
run's horizon (``Scenario.horizon``: the last tick, plus every ``advance``'s
``ticks``, plus ``DRAIN_TICKS``) is at most ``ca.ROOT_VALIDITY``, the
life of every root, so each action's tick is at most that less the drain.

Timings are the protocol's constants, not keys: ``network.SYNC_PERIOD``,
``network.CRL_PERIOD``, ``network.ACK_TIMEOUT``, ``chain.CONFIRMATION_DELAY``,
``harness.MAX_LATENCY`` and ``DRAIN_TICKS`` here. A network has no rules to
set: it admits every VASP whose certificate validates, and every member
requires the travel-rule core (``assertions.REQUIRED_TRAVEL_RULE_CORE``).

Transfer targets take one of three forms, each with only its own keys:
{customer: id} (beneficiary key hash; account reference for commingled
customers), {vasp: id, account: id}, or {key_hash_hex: "..."} for arbitrary
hashes, 32 bytes in hex as a suspect's are. An ``asset`` is a name. A
``p2p_transfer`` pays ``to_wallet`` or ``to_customer``, not both; that
customer must be mediated, the only kind that holds its wallet key. A
peering link joins two different networks.

A ``batch_transfer`` (pooled custody) pays one or more entries in one
transaction: every origin a commingled customer of one VASP, every target a
{customer: id} of one VASP. A ``drop_link`` joins two VASPs; CRL fetches and
CA lookups are synchronous calls over no link.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from typing import Any, Optional

from .accounts import CustodyModel
from .ca import ROOT_VALIDITY, CertClass, RevocationReason, missing_class1_attributes
from .network import PeeringLink

# Each script action and the keys it takes besides ``tick`` and ``action``.
ACTION_KEYS = {
    "open_account": frozenset({"customer"}),
    "enroll": frozenset({"customer"}),
    "transfer": frozenset({"origin", "target", "amount", "asset"}),
    "batch_transfer": frozenset({"entries", "asset"}),
    "p2p_transfer": frozenset({"from_wallet", "to_wallet", "to_customer", "amount", "asset"}),
    "revoke_cert": frozenset({"customer", "reason"}),
    "drop_link": frozenset({"a", "b", "period"}),
    "advance": frozenset({"ticks"}),
}

DRAIN_TICKS = 40  # ticks a run goes on after its script, for what is in flight to settle
U64_MAX = 2**64 - 1  # the largest seed, amount and batch sum

_TOP_LEVEL_KEYS = frozenset({
    "seed", "defaults", "networks", "cas", "vasps", "peering_links", "customers",
    "suspect_entries", "script",
})
# The keys an item of each list section but ``script`` may hold.
_ITEM_KEYS = {
    "networks": frozenset({"network_id"}),
    "cas": frozenset({"ca_id"}),
    "vasps": frozenset({"vasp_id", "ca", "networks"}),
    "peering_links": frozenset({"vasp_a", "network_a", "vasp_b", "network_b"}),
    "customers": frozenset({"customer_id", "vasp", "custody_model", "requested_class",
                            "attributes"}),
    "suspect_entries": frozenset({"customer", "account_id", "key_hash_hex"}),
}
_BATCH_ENTRY_KEYS = frozenset({"origin", "target", "amount"})


class SchemaError(Exception):
    pass


@dataclass(frozen=True)
class VaspSpec:
    vasp_id: str
    ca: str
    networks: tuple[str, ...]


@dataclass(frozen=True)
class CustomerSpec:
    customer_id: str
    vasp: str
    custody_model: CustodyModel
    requested_class: CertClass
    attributes: Mapping[str, str]


@dataclass(frozen=True)
class SuspectSpec:
    customer: Optional[str] = None
    account_id: Optional[str] = None
    key_hash_hex: Optional[str] = None


@dataclass(frozen=True)
class ScriptAction:
    tick: int
    action: str
    params: Mapping[str, Any]


@dataclass(frozen=True)
class Scenario:
    seed: int
    networks: tuple[str, ...]  # network ids
    cas: tuple[str, ...]  # CA ids
    vasps: tuple[VaspSpec, ...]
    peering_links: tuple[PeeringLink, ...]
    customers: tuple[CustomerSpec, ...]
    suspects: tuple[SuspectSpec, ...]
    script: tuple[ScriptAction, ...]
    drop_probability: float = 0.0

    def horizon(self) -> int:
        """The last tick a run processes: the script's, then ``DRAIN_TICKS``."""
        last = max((a.tick for a in self.script), default=0)
        extra = sum(a.params["ticks"] for a in self.script if a.action == "advance")
        return last + extra + DRAIN_TICKS


class _NotAString(Exception):
    """An id that is not a string; each reader around it prefixes its place."""


def _id(mapping: Mapping[str, Any], key: str, path: str = "") -> Optional[str]:
    """``mapping[key]``, None if absent; ``path`` leads to ``mapping``."""
    value = mapping.get(key)
    if isinstance(value, str) or (value is None and key not in mapping):
        return value
    raise _NotAString(f"{path}{key}: id must be a string, not {value!r}")


def _require(mapping: Mapping[str, Any], key: str, context: str) -> Any:
    if key not in mapping:
        raise SchemaError(f"{context}: missing required key {key!r}")
    return mapping[key]


def _new_id(raw: Mapping[str, Any], key: str, seen: Mapping[str, Any], context: str) -> str:
    """``raw[key]`` as a string that ``seen`` does not hold yet."""
    item_id = str(_require(raw, key, context))
    if item_id in seen:
        raise SchemaError(f"duplicate {key} {item_id!r}")
    return item_id


def _number(value: Any, context: str, low: float, high: float) -> float:
    """``value``, an ``int`` or a ``float`` in [low, high], as a float; a bool
    or a string, which a run would coerce, is a SchemaError naming
    ``context``."""
    if type(value) not in (int, float):
        raise SchemaError(f"{context}: {value!r} is not a number")
    if not low <= value <= high:
        raise SchemaError(f"{context}: {value!r} is out of range [{low}, {high}]")
    return float(value)


def _whole(value: Any, context: str, low: int, high: float = math.inf) -> int:
    """``value`` if it is a whole number in [low, high]: an ``int``, not a
    bool, a string or a float, each of which a run would coerce; else a
    SchemaError naming ``context``."""
    if type(value) is not int:
        raise SchemaError(f"{context}: {value!r} is not a whole number")
    if not low <= value <= high:
        raise SchemaError(f"{context}: {value!r} is out of range [{low}, {high}]")
    return value


def _parse_link(raw: Mapping[str, Any], vasps: Mapping[str, VaspSpec],
                networks: Mapping[str, None]) -> PeeringLink:
    """The link ``raw`` declares, between member gateways of two networks;
    equal ones are a SchemaError here, not ``PeeringLink``'s ``ValueError``."""
    vasp_a, network_a, vasp_b, network_b = (
        str(_require(raw, key, "peering_links[]"))
        for key in ("vasp_a", "network_a", "vasp_b", "network_b"))
    if network_a == network_b:
        raise SchemaError("peering link must connect two different networks")
    for vasp_id, network_id in ((vasp_a, network_a), (vasp_b, network_b)):
        if vasp_id not in vasps:
            raise SchemaError(f"peering link references unknown vasp {vasp_id!r}")
        if network_id not in networks:
            raise SchemaError(f"peering link references unknown network {network_id!r}")
        if network_id not in vasps[vasp_id].networks:
            raise SchemaError(f"peering gateway {vasp_id!r} is not a member of {network_id!r}")
    return PeeringLink(vasp_a, network_a, vasp_b, network_b)


def _parse_class(value: Any, context: str) -> CertClass:
    try:
        return CertClass.from_label(str(value))
    except ValueError as exc:
        raise SchemaError(f"{context}: {exc}") from exc


def _parse_model(value: Any, context: str) -> CustodyModel:
    try:
        return CustodyModel(str(value))
    except ValueError as exc:
        raise SchemaError(f"{context}: unknown custody model {value!r}") from exc


def _shaped(value: Any, shape: type, context: str) -> Any:
    """``value`` if it is a ``shape`` (``dict`` for any mapping, or ``list``),
    else a SchemaError naming ``context``."""
    if isinstance(value, shape) or shape is dict and isinstance(value, Mapping):
        return value
    raise SchemaError(f"{context}: must be a {'mapping' if shape is dict else 'list'}")


def _known(value: Any, keys: frozenset[str], context: str) -> Mapping[str, Any]:
    """``value`` if it is a mapping of only ``keys``, else a SchemaError
    naming ``context`` and the first other key."""
    if not keys.issuperset(_shaped(value, dict, context)):
        key = next(key for key in value if key not in keys)
        raise SchemaError(f"{context}: unknown key {key!r}")
    return value


def _items(data: Mapping[str, Any], key: str) -> Iterator[Mapping[str, Any]]:
    """Each item of the list under ``key`` (none if absent), of only its ``_ITEM_KEYS``."""
    keys = _ITEM_KEYS[key]
    for index, item in enumerate(_shaped(data.get(key, []), list, key)):
        if type(item) is not dict or not keys.issuperset(item):
            _known(item, keys, f"{key}[{index}]")
        yield item


def parse_scenario(data: Mapping[str, Any]) -> Scenario:
    """The scenario ``data`` declares, each section checked in the loop that builds it."""
    _known(data, _TOP_LEVEL_KEYS, "scenario root")
    defaults = _known(data.get("defaults", {}), frozenset({"drop_probability"}), "defaults")
    seed = _whole(data.get("seed", 0), "seed", 0, U64_MAX)
    drop_probability = _number(
        defaults.get("drop_probability", 0.0), "defaults.drop_probability", 0, 1)

    networks: dict[str, None] = {}
    for raw in _items(data, "networks"):
        networks[_new_id(raw, "network_id", networks, "networks[]")] = None
    cas: dict[str, None] = {}
    for raw in _items(data, "cas"):
        cas[_new_id(raw, "ca_id", cas, "cas[]")] = None
    vasps: dict[str, VaspSpec] = {}
    for raw in _items(data, "vasps"):
        vasp = VaspSpec(
            vasp_id=_new_id(raw, "vasp_id", vasps, "vasps[]"),
            ca=str(_require(raw, "ca", "vasps[]")),
            networks=tuple(str(n) for n in _shaped(raw.get("networks", []), list, "vasps[].networks")),
        )
        if vasp.ca not in cas:
            raise SchemaError(f"vasp {vasp.vasp_id!r} references unknown ca {vasp.ca!r}")
        for network_id in vasp.networks:
            if network_id not in networks:
                raise SchemaError(f"vasp {vasp.vasp_id!r} references unknown network {network_id!r}")
        vasps[vasp.vasp_id] = vasp
    peering = tuple(_parse_link(raw, vasps, networks) for raw in _items(data, "peering_links"))
    customers: dict[str, CustomerSpec] = {}
    for raw in _items(data, "customers"):
        customer = CustomerSpec(
            customer_id=_new_id(raw, "customer_id", customers, "customers[]"),
            vasp=str(_require(raw, "vasp", "customers[]")),
            custody_model=_parse_model(raw.get("custody_model", "mediated"), "customers[]"),
            requested_class=_parse_class(raw.get("requested_class", "class1"), "customers[]"),
            attributes={str(k): str(v) for k, v in
                        _shaped(raw.get("attributes", {}), dict, "customers[].attributes").items()},
        )
        if customer.vasp not in vasps:
            raise SchemaError(f"customer {customer.customer_id!r} references unknown vasp "
                              f"{customer.vasp!r}")
        customers[customer.customer_id] = customer
    suspects = []
    for index, raw in enumerate(_items(data, "suspect_entries")):
        try:
            customer, account_id = _id(raw, "customer"), _id(raw, "account_id")
        except _NotAString as exc:
            raise SchemaError(f"scenario.suspect_entries.{index}.{exc}") from None
        key_hash_hex = raw.get("key_hash_hex")
        if len([v for v in (customer, account_id, key_hash_hex) if v]) != 1:
            raise SchemaError("suspect entries take exactly one of customer/account_id/key_hash_hex")
        if customer is not None and customer not in customers:
            raise SchemaError(f"suspect references unknown customer {customer!r}")
        if key_hash_hex is not None:
            key_hash_hex = _key_hash(key_hash_hex, f"suspect_entries[{index}]: ")
        suspects.append(SuspectSpec(customer, account_id, key_hash_hex))

    return Scenario(
        seed=seed, networks=tuple(networks), cas=tuple(cas), vasps=tuple(vasps.values()),
        peering_links=peering, customers=tuple(customers.values()), suspects=tuple(suspects),
        script=_parse_script(data.get("script", []), customers, vasps),
        drop_probability=drop_probability,
    )


def _parse_script(items: Any, customers: Mapping[str, CustomerSpec],
                  vasps: Mapping[str, VaspSpec]) -> tuple[ScriptAction, ...]:
    """Each action of ``items``, read once: its tick and keys, then what
    ``_check_action`` checks. A fault raised there gets the action's place."""
    opened: set[str] = set()  # customers with an open account
    certified: set[str] = set()  # customers holding an unrevoked certificate
    script = []
    previous_tick = advanced = 0
    for index, raw in enumerate(_shaped(items, list, "script")):
        if type(raw) is not dict:
            _shaped(raw, dict, f"script[{index}]")
        tick = _whole(_require(raw, "tick", "script[]"), "script[].tick", 0)
        name = str(_require(raw, "action", "script[]"))
        params = dict(raw)
        del params["tick"], params["action"]
        try:
            if tick < previous_tick:
                raise SchemaError(f"tick {tick} decreases")
            keys = ACTION_KEYS.get(name)
            if keys is None:
                raise SchemaError("unknown action")
            if not keys.issuperset(params):
                raise SchemaError(f"unknown key {next(k for k in params if k not in keys)!r}")
            _check_action(name, params, customers, vasps, opened, certified)
            if name == "advance":
                advanced += params["ticks"]
            if tick + advanced + DRAIN_TICKS > ROOT_VALIDITY:
                raise SchemaError(f"horizon {tick + advanced + DRAIN_TICKS} passes the "
                                  f"roots' validity, tick {ROOT_VALIDITY}")
        except SchemaError as exc:
            raise SchemaError(f"script[{index}] ({name}): {exc}") from None
        except _NotAString as exc:
            raise SchemaError(f"scenario.script.{index}.{exc}") from None
        previous_tick = tick
        script.append(ScriptAction(tick, name, params))
    return tuple(script)


def _check_action(name: str, params: Mapping[str, Any], customers: Mapping[str, CustomerSpec],
                  vasps: Mapping[str, VaspSpec], opened: set[str], certified: set[str]) -> None:
    """A SchemaError, without the action's place, unless the run can carry out
    ``name`` after the actions ``opened`` and ``certified`` record; records it."""
    asset = params.get("asset")  # a name; the guard spares most actions the ABC check
    if asset is not None and type(asset) is not str and isinstance(asset, (Mapping, list)):
        raise SchemaError(f"asset: {asset!r} is not a name")
    if name in ("open_account", "enroll", "revoke_cert"):
        customer_id = _id(params, "customer")
        if customer_id not in customers:
            raise SchemaError(f"unknown customer {customer_id!r}")
        if name == "open_account":
            if customer_id in opened:
                raise SchemaError(f"{customer_id!r} already has an open account")
            opened.add(customer_id)
        elif name == "enroll":
            _require_open(customer_id, opened)
            customer = customers[customer_id]
            if customer.custody_model is CustodyModel.COMMINGLED:
                raise SchemaError(f"commingled customer {customer_id!r} holds no key to certify")
            missing = missing_class1_attributes(customer.attributes)
            if missing:
                raise SchemaError(f"{customer_id!r} lacks the Class 1 attributes "
                                  f"{', '.join(missing)}; its CA would refuse it")
            certified.add(customer_id)
        else:
            try:
                RevocationReason(params.get("reason", "unspecified"))
            except ValueError:
                raise SchemaError(f"unknown reason {params.get('reason')!r}") from None
            if customer_id not in certified:
                raise SchemaError(f"{customer_id!r} holds no unrevoked certificate")
            certified.remove(customer_id)
    elif name == "transfer":
        origin = _id(params, "origin")
        if origin not in customers:
            raise SchemaError(f"unknown origin {origin!r}")
        _check_target(params.get("target"), customers, vasps)
        _whole(params.get("amount", 0), "amount", 1, U64_MAX)
        _require_open(origin, opened)
    elif name == "batch_transfer":
        _check_batch(params.get("entries"), customers)
        for entry in params["entries"]:
            _require_open(entry["origin"], opened)
    elif name == "p2p_transfer":
        if _id(params, "from_wallet") is None:
            raise SchemaError("from_wallet required")
        to_wallet, to_customer = _id(params, "to_wallet"), _id(params, "to_customer")
        if to_wallet is not None and to_customer is not None:
            raise SchemaError("to_wallet and to_customer both given; a p2p transfer pays one")
        if to_wallet is None:
            customer = customers.get(to_customer)
            if customer is None:
                raise SchemaError("to_wallet or a known to_customer required")
            if customer.custody_model is not CustodyModel.MEDIATED:
                raise SchemaError(f"to_customer {to_customer!r} is {customer.custody_model.value}; "
                                  "only a mediated customer holds a wallet key")
        _whole(params.get("amount", 0), "amount", 1, U64_MAX)
    elif name == "drop_link":
        for side in ("a", "b"):
            actor = _id(params, side)
            if actor not in vasps:
                raise SchemaError(f"endpoint {actor!r} is not a VASP")
        _whole(params.get("period", 0), "period", 1)
    else:  # advance
        _whole(params.get("ticks", 0), "ticks", 1)


def _require_open(customer_id: str, opened: set[str]) -> None:
    if customer_id not in opened:
        raise SchemaError(f"{customer_id!r} has no open account yet")


def _check_batch(entries: Any, customers: Mapping[str, CustomerSpec]) -> None:
    """A batch is one transaction: from one VASP's pool, to one VASP."""
    if not _shaped(entries, list, "entries"):
        raise SchemaError("entries must not be empty")
    payers, payees = set(), set()
    total = 0
    for index, entry in enumerate(entries):
        where = f"entries[{index}]"
        try:
            origin = customers.get(_id(_known(entry, _BATCH_ENTRY_KEYS, where), "origin"))
            if origin is None or origin.custody_model is not CustodyModel.COMMINGLED:
                raise SchemaError(f"{where}: origin {entry.get('origin')!r} is not a commingled "
                                  "customer")
            target = entry.get("target")
            if not isinstance(target, Mapping) or list(target) != ["customer"]:
                raise SchemaError(f"{where}: target must be {{customer: id}}")
            payee = customers.get(_id(target, "customer", "target."))
        except _NotAString as exc:
            raise _NotAString(f"entries.{index}.{exc}") from None
        if payee is None:
            raise SchemaError(f"{where}: unknown target customer {target['customer']!r}")
        payers.add(origin.vasp)
        payees.add(payee.vasp)
        total += _whole(entry.get("amount", 0), f"{where}: amount", 1, U64_MAX)
    if total > U64_MAX:
        raise SchemaError(f"entries: amounts sum to {total}, above the ledger's {U64_MAX}")
    if len(payers) > 1 or len(payees) > 1:
        raise SchemaError(f"entries pay from {sorted(payers)} to {sorted(payees)}, "
                          "not from one VASP to one")


# Each transfer target form, by the key that names it: the keys it takes.
_TARGET_FORMS = {
    "customer": frozenset({"customer"}),
    "vasp": frozenset({"vasp", "account"}),
    "key_hash_hex": frozenset({"key_hash_hex"}),
}


def _check_target(target: Any, customers: Mapping[str, CustomerSpec],
                  vasps: Mapping[str, VaspSpec]) -> None:
    """A target of one form, the first whose naming key it holds, and of
    only that form's keys."""
    _shaped(target, dict, "target")
    for form, keys in _TARGET_FORMS.items():
        if form in target:
            break
    else:
        raise SchemaError(f"unrecognized target form {dict(target)!r}")
    _known(target, keys, "target")
    if form == "customer":
        customer = _id(target, "customer", "target.")
        if customer not in customers:
            raise SchemaError(f"unknown target customer {customer!r}")
    elif form == "vasp":
        vasp = _id(target, "vasp", "target.")
        if vasp not in vasps:
            raise SchemaError(f"unknown target vasp {vasp!r}")
        if _id(target, "account", "target.") is None:
            raise SchemaError("vasp target needs an account")
    else:
        _key_hash(target["key_hash_hex"], "")


def _key_hash(value: Any, where: str) -> str:
    """``value`` as a string if it is 32 bytes in hex, else a SchemaError after ``where``."""
    try:
        raw = bytes.fromhex(str(value))
    except ValueError as exc:
        raise SchemaError(f"{where}bad key_hash_hex") from exc
    if len(raw) != 32:
        raise SchemaError(f"{where}key_hash_hex must be 32 bytes")
    return str(value)
