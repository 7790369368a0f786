"""Scenario files: the structured-text schema driving a simulation run.

A scenario is a YAML key-value tree wiring networks, CAs, VASPs, peering
links, customers, suspect entries, and a timed action script. Everything is
validated up front: dangling references, decreasing script ticks, a key
that its mapping does not take, numbers out of range and a script action
that the run could not carry out are schema errors naming the offending key
or reference. The script is checked in order: an account opens once, before
any transfer from it or enrolment of it; a commingled customer holds no key
to enrol; a certificate is revoked once it is issued, and only once.

Schema (all ids are strings; every referenced id must be declared):

    seed: 42                       # 64-bit simulation seed
    chain: {chain_id: simchain}
    defaults: {drop_probability: 0.0}
    networks:
      - network_id: net-a
        rules: {minimum_certificate_class: class1}
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

Each top-level key but ``seed``, ``chain`` and ``defaults`` holds a list of
mappings; those two, rules, attributes and targets are mappings.

Ranges: ``seed`` in [0, 2**64); ``drop_probability`` in [0, 1]; script
ticks at least 0; ``amount``, ``period`` and ``ticks`` at least 1.

Timings are the protocol's constants, not keys: ``network.SYNC_PERIOD``,
``network.CRL_PERIOD``, ``network.ACK_TIMEOUT``, ``chain.CONFIRMATION_DELAY``,
``harness.MAX_LATENCY`` and ``DRAIN_TICKS`` here.

Network rules (each optional; the default in brackets) build the network's
``OperatingRules``, the policy its members agree to:

    rules_version               integer >= 0 [1]
    minimum_certificate_class   class1 | class2 | class3 [class1]
    required_disclosure         non-empty list of attribute names
                                [the travel-rule core]

Transfer targets take one of three forms, each with only its own keys:
{customer: id} (beneficiary key hash; account reference for commingled
customers), {vasp: id, account: id}, or {key_hash_hex: "..."} for arbitrary
hashes. A ``p2p_transfer`` to a customer needs a mediated one, the only kind
that holds its wallet key. A peering link joins two different networks.

A ``batch_transfer`` (pooled custody) pays one or more entries in one
transaction: every origin a commingled customer of one VASP, every target a
{customer: id} of one VASP. A ``drop_link`` joins two VASPs; CRL fetches and
CA lookups are synchronous calls over no link.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

import yaml

from .accounts import CustodyModel
from .assertions import DisclosurePolicy
from .ca import CertClass, RevocationReason
from .network import OperatingRules, PeeringLink

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

_TOP_LEVEL_KEYS = frozenset({
    "seed", "chain", "defaults", "networks", "cas", "vasps", "peering_links", "customers",
    "suspect_entries", "script",
})
# The keys an item of each list section but ``script`` may hold.
_ITEM_KEYS = {
    "networks": frozenset({"network_id", "rules"}),
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
class NetworkSpec:
    network_id: str
    rules: OperatingRules = field(default_factory=OperatingRules)


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
    networks: tuple[NetworkSpec, ...]
    cas: tuple[str, ...]  # CA ids
    vasps: tuple[VaspSpec, ...]
    peering_links: tuple[PeeringLink, ...]
    customers: tuple[CustomerSpec, ...]
    suspects: tuple[SuspectSpec, ...]
    script: tuple[ScriptAction, ...]
    chain_id: str = "simchain"
    drop_probability: float = 0.0

    def horizon(self) -> int:
        """The last tick a run processes: the script's, then ``DRAIN_TICKS``."""
        last = max((a.tick for a in self.script), default=0)
        extra = sum(
            int(a.params.get("ticks", 0)) for a in self.script if a.action == "advance"
        )
        return last + extra + DRAIN_TICKS


def _require(mapping: Mapping[str, Any], key: str, context: str) -> Any:
    if key not in mapping:
        raise SchemaError(f"{context}: missing required key {key!r}")
    return mapping[key]


def _number(value: Any, kind: type, context: str, low: float, high: float = math.inf):
    """``value`` as an int or float (``kind``) in [low, high]."""
    try:
        number = kind(value)
    except (TypeError, ValueError, OverflowError):
        raise SchemaError(f"{context}: {value!r} is not a number") from None
    if number != value and isinstance(value, float):
        raise SchemaError(f"{context}: {value!r} is not an integer")
    if not low <= number <= high:
        raise SchemaError(f"{context}: {value!r} is out of range [{low}, {high}]")
    return number


_RULE_KEYS = frozenset({"rules_version", "minimum_certificate_class", "required_disclosure"})


def _parse_rules(raw: Any, context: str) -> OperatingRules:
    _known(raw, _RULE_KEYS, context)
    kwargs: dict[str, Any] = {}
    if "rules_version" in raw:
        kwargs["rules_version"] = _number(raw["rules_version"], int, f"{context}.rules_version", 0)
    if "minimum_certificate_class" in raw:
        kwargs["minimum_certificate_class"] = _parse_class(
            raw["minimum_certificate_class"], f"{context}.minimum_certificate_class"
        )
    if "required_disclosure" in raw:
        attributes = raw["required_disclosure"]
        if not isinstance(attributes, list) or not attributes:
            raise SchemaError(f"{context}.required_disclosure: must be a non-empty list")
        kwargs["required_disclosure_policy"] = DisclosurePolicy(
            frozenset(str(a) for a in attributes)
        )
    return OperatingRules(**kwargs)


def _parse_link(raw: Mapping[str, Any]) -> PeeringLink:
    """The link ``raw`` declares. Two equal networks are a SchemaError
    here, before ``PeeringLink`` would raise ``ValueError`` for them."""
    vasp_a, network_a, vasp_b, network_b = (
        str(_require(raw, key, "peering_links[]"))
        for key in ("vasp_a", "network_a", "vasp_b", "network_b"))
    if network_a == network_b:
        raise SchemaError("peering link must connect two different networks")
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
    if not isinstance(value, Mapping if shape is dict else list):
        raise SchemaError(f"{context}: must be a {'mapping' if shape is dict else 'list'}")
    return value


def _known(value: Any, keys: frozenset[str], context: str) -> Mapping[str, Any]:
    """``value`` if it is a mapping of only ``keys``, else a SchemaError
    naming ``context`` and the first other key."""
    for key in _shaped(value, dict, context):
        if key not in keys:
            raise SchemaError(f"{context}: unknown key {key!r}")
    return value


_ID_KEYS = frozenset({"customer", "origin", "vasp", "account", "account_id", "a", "b",
                      "from_wallet", "to_wallet", "to_customer"})


def _ids_are_strings(value: Any, context: str) -> None:
    """A SchemaError naming the key unless every value in ``value``, at any
    depth, under a key that names an id (``_ID_KEYS``) is a string."""
    for key, item in value.items() if isinstance(value, dict) else enumerate(value):
        if key in _ID_KEYS and not isinstance(item, str):
            raise SchemaError(f"{context}.{key}: id must be a string, not {item!r}")
        if isinstance(item, (dict, list)):
            _ids_are_strings(item, f"{context}.{key}")


def _section(data: Mapping[str, Any], key: str) -> list[Mapping[str, Any]]:
    """The list of mappings under ``key``, empty if absent, each of only its
    ``_ITEM_KEYS`` (a script action's are checked with its action)."""
    items = _shaped(data.get(key, []), list, key)
    keys = _ITEM_KEYS.get(key)
    return [_shaped(item, dict, f"{key}[{i}]") if keys is None else
            _known(item, keys, f"{key}[{i}]") for i, item in enumerate(items)]


def parse_scenario(data: Mapping[str, Any]) -> Scenario:
    _known(data, _TOP_LEVEL_KEYS, "scenario root")

    networks = tuple(
        NetworkSpec(
            network_id=str(_require(raw, "network_id", "networks[]")),
            rules=_parse_rules(raw.get("rules", {}), f"network {raw['network_id']!r} rules"),
        )
        for raw in _section(data, "networks")
    )
    cas = tuple(str(_require(raw, "ca_id", "cas[]")) for raw in _section(data, "cas"))
    vasps = tuple(
        VaspSpec(
            vasp_id=str(_require(raw, "vasp_id", "vasps[]")),
            ca=str(_require(raw, "ca", "vasps[]")),
            networks=tuple(str(n) for n in _shaped(raw.get("networks", []), list, "vasps[].networks")),
        )
        for raw in _section(data, "vasps")
    )
    peering = tuple(_parse_link(raw) for raw in _section(data, "peering_links"))
    customers = tuple(
        CustomerSpec(
            customer_id=str(_require(raw, "customer_id", "customers[]")),
            vasp=str(_require(raw, "vasp", "customers[]")),
            custody_model=_parse_model(raw.get("custody_model", "mediated"), "customers[]"),
            requested_class=_parse_class(raw.get("requested_class", "class1"), "customers[]"),
            attributes={str(k): str(v) for k, v in
                        _shaped(raw.get("attributes", {}), dict, "customers[].attributes").items()},
        )
        for raw in _section(data, "customers")
    )
    _ids_are_strings({key: data[key] for key in ("script", "suspect_entries") if key in data},
                     "scenario")
    suspects = tuple(
        SuspectSpec(
            customer=raw.get("customer"),
            account_id=raw.get("account_id"),
            key_hash_hex=raw.get("key_hash_hex"),
        )
        for raw in _section(data, "suspect_entries")
    )
    script = tuple(
        ScriptAction(
            tick=_number(_require(raw, "tick", "script[]"), int, "script[].tick", 0),
            action=str(_require(raw, "action", "script[]")),
            params={k: v for k, v in raw.items() if k not in ("tick", "action")},
        )
        for raw in _section(data, "script")
    )

    chain_cfg = _known(data.get("chain", {}), frozenset({"chain_id"}), "chain")
    defaults = _known(data.get("defaults", {}), frozenset({"drop_probability"}), "defaults")
    scenario = Scenario(
        seed=_number(data.get("seed", 0), int, "seed", 0, 2**64 - 1),
        networks=networks,
        cas=cas,
        vasps=vasps,
        peering_links=peering,
        customers=customers,
        suspects=suspects,
        script=script,
        chain_id=str(chain_cfg.get("chain_id", "simchain")),
        drop_probability=_number(
            defaults.get("drop_probability", 0.0), float, "defaults.drop_probability", 0, 1),
    )
    validate_scenario(scenario)
    return scenario


def validate_scenario(scenario: Scenario) -> None:
    network_ids = {n.network_id for n in scenario.networks}
    ca_ids = set(scenario.cas)
    vasp_ids = {v.vasp_id for v in scenario.vasps}
    customers = {c.customer_id: c for c in scenario.customers}

    for ids, name in (
        ((n.network_id for n in scenario.networks), "network_id"), (scenario.cas, "ca_id"),
        ((v.vasp_id for v in scenario.vasps), "vasp_id"),
        ((c.customer_id for c in scenario.customers), "customer_id"),
    ):
        seen: set[str] = set()
        for item_id in ids:
            if item_id in seen:
                raise SchemaError(f"duplicate {name} {item_id!r}")
            seen.add(item_id)

    vasp_networks = {v.vasp_id: set(v.networks) for v in scenario.vasps}
    for vasp in scenario.vasps:
        if vasp.ca not in ca_ids:
            raise SchemaError(f"vasp {vasp.vasp_id!r} references unknown ca {vasp.ca!r}")
        for network_id in vasp.networks:
            if network_id not in network_ids:
                raise SchemaError(
                    f"vasp {vasp.vasp_id!r} references unknown network {network_id!r}"
                )
    for link in scenario.peering_links:
        for vasp_id, network_id in (
            (link.gateway_vasp_a, link.network_a), (link.gateway_vasp_b, link.network_b),
        ):
            if vasp_id not in vasp_ids:
                raise SchemaError(f"peering link references unknown vasp {vasp_id!r}")
            if network_id not in network_ids:
                raise SchemaError(f"peering link references unknown network {network_id!r}")
            if network_id not in vasp_networks[vasp_id]:
                raise SchemaError(
                    f"peering gateway {vasp_id!r} is not a member of {network_id!r}"
                )
    for customer in scenario.customers:
        if customer.vasp not in vasp_ids:
            raise SchemaError(
                f"customer {customer.customer_id!r} references unknown vasp {customer.vasp!r}"
            )
    for suspect in scenario.suspects:
        given = [v for v in (suspect.customer, suspect.account_id, suspect.key_hash_hex) if v]
        if len(given) != 1:
            raise SchemaError(
                "suspect entries take exactly one of customer/account_id/key_hash_hex"
            )
        if suspect.customer is not None and suspect.customer not in customers:
            raise SchemaError(f"suspect references unknown customer {suspect.customer!r}")

    # The script's effect on the accounts, in order, so an action that the
    # run could not carry out fails here: the customers with an open account
    # and those holding an unrevoked certificate.
    opened: set[str] = set()
    certified: set[str] = set()

    def require_open(customer_id: str, context: str) -> None:
        if customer_id not in opened:
            raise SchemaError(f"{context}: {customer_id!r} has no open account yet")

    previous_tick = 0
    for index, action in enumerate(scenario.script):
        context = f"script[{index}] ({action.action})"
        if action.tick < previous_tick:
            raise SchemaError(f"{context}: tick {action.tick} decreases")
        previous_tick = action.tick
        if action.action not in ACTION_KEYS:
            raise SchemaError(f"{context}: unknown action")
        params = _known(action.params, ACTION_KEYS[action.action], context)
        customer_id = params.get("customer")
        if action.action in ("open_account", "enroll", "revoke_cert") and (
                customer_id not in customers):
            raise SchemaError(f"{context}: unknown customer {customer_id!r}")
        if action.action == "open_account":
            if customer_id in opened:
                raise SchemaError(f"{context}: {customer_id!r} already has an open account")
            opened.add(customer_id)
        elif action.action == "enroll":
            require_open(customer_id, context)
            if customers[customer_id].custody_model is CustodyModel.COMMINGLED:
                raise SchemaError(f"{context}: commingled customer {customer_id!r} holds no "
                                  "key to certify")
            certified.add(customer_id)
        elif action.action == "transfer":
            if params.get("origin") not in customers:
                raise SchemaError(f"{context}: unknown origin {params.get('origin')!r}")
            _validate_target(params.get("target"), customers, vasp_ids, context)
            _number(params.get("amount", 0), int, f"{context}: amount", 1)
            require_open(params["origin"], context)
        elif action.action == "batch_transfer":
            _validate_batch(params.get("entries"), customers, context)
            for entry in params["entries"]:
                require_open(entry["origin"], context)
        elif action.action == "p2p_transfer":
            if "from_wallet" not in params:
                raise SchemaError(f"{context}: from_wallet required")
            if "to_wallet" not in params:
                customer = customers.get(params.get("to_customer"))
                if customer is None:
                    raise SchemaError(f"{context}: to_wallet or a known to_customer required")
                model = customer.custody_model
                if model is not CustodyModel.MEDIATED:
                    raise SchemaError(
                        f"{context}: to_customer {params['to_customer']!r} is {model.value}; "
                        "only a mediated customer holds a wallet key"
                    )
            _number(params.get("amount", 0), int, f"{context}: amount", 1)
        elif action.action == "revoke_cert":
            try:
                RevocationReason(params.get("reason", "unspecified"))
            except ValueError:
                raise SchemaError(f"{context}: unknown reason {params.get('reason')!r}") from None
            if customer_id not in certified:
                raise SchemaError(f"{context}: {customer_id!r} holds no unrevoked certificate")
            certified.remove(customer_id)
        elif action.action == "drop_link":
            for side in ("a", "b"):
                actor = params.get(side)
                if actor not in vasp_ids:
                    raise SchemaError(f"{context}: endpoint {actor!r} is not a VASP")
            _number(params.get("period", 0), int, f"{context}: period", 1)
        elif action.action == "advance":
            _number(params.get("ticks", 0), int, f"{context}: ticks", 1)


def _validate_batch(entries: Any, customers: Mapping[str, CustomerSpec], context: str) -> None:
    """A batch is one transaction: from one VASP's pool, to one VASP."""
    if not _shaped(entries, list, f"{context}: entries"):
        raise SchemaError(f"{context}: entries must not be empty")
    payers, payees = set(), set()
    for index, entry in enumerate(entries):
        where = f"{context}: entries[{index}]"
        origin = customers.get(_known(entry, _BATCH_ENTRY_KEYS, where).get("origin"))
        if origin is None or origin.custody_model is not CustodyModel.COMMINGLED:
            raise SchemaError(f"{where}: origin {entry.get('origin')!r} is not a commingled customer")
        target = entry.get("target")
        if not isinstance(target, Mapping) or list(target) != ["customer"]:
            raise SchemaError(f"{where}: target must be {{customer: id}}")
        _validate_target(target, customers, set(), where)
        payers.add(origin.vasp)
        payees.add(customers[target["customer"]].vasp)
        _number(entry.get("amount", 0), int, f"{where}: amount", 1)
    if len(payers) > 1 or len(payees) > 1:
        raise SchemaError(f"{context}: entries pay from {sorted(payers)} to {sorted(payees)}, "
                          "not from one VASP to one")


# Each transfer target form, by the key that names it: the keys it takes.
_TARGET_FORMS = {
    "customer": frozenset({"customer"}),
    "vasp": frozenset({"vasp", "account"}),
    "key_hash_hex": frozenset({"key_hash_hex"}),
}


def _validate_target(
    target: Any, customers: Mapping[str, CustomerSpec], vasp_ids: set, context: str
) -> None:
    """A target of one form, the first whose naming key it holds, and of
    only that form's keys."""
    where = f"{context}: target"
    form = next((key for key in _TARGET_FORMS if key in _shaped(target, dict, where)), None)
    if form is None:
        raise SchemaError(f"{context}: unrecognized target form {dict(target)!r}")
    _known(target, _TARGET_FORMS[form], where)
    if form == "customer":
        if target["customer"] not in customers:
            raise SchemaError(f"{context}: unknown target customer {target['customer']!r}")
    elif form == "vasp":
        if target["vasp"] not in vasp_ids:
            raise SchemaError(f"{context}: unknown target vasp {target['vasp']!r}")
        if "account" not in target:
            raise SchemaError(f"{context}: vasp target needs an account")
    else:
        try:
            raw = bytes.fromhex(str(target["key_hash_hex"]))
        except ValueError as exc:
            raise SchemaError(f"{context}: bad key_hash_hex") from exc
        if len(raw) != 32:
            raise SchemaError(f"{context}: key_hash_hex must be 32 bytes")


def load_scenario(path: str | Path) -> Scenario:
    """Parse and validate a scenario file."""
    raw = Path(path).read_text()
    try:
        data = yaml.safe_load(raw)
    except yaml.YAMLError as exc:
        raise SchemaError(f"unparseable scenario file: {exc}") from exc
    if data is None:
        raise SchemaError("empty scenario file")
    return parse_scenario(data)
