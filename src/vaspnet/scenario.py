"""Scenario files: the structured-text schema driving a simulation run.

A scenario is a key-value tree (YAML, read by ``cli.load_scenario``) wiring
networks, CAs, VASPs, peering links, customers, suspect entries, and a timed
action script. ``parse_scenario`` reads it once into typed records: a
``Scenario`` of section records and one record per script action
(``OpenAccount``, ``Enroll``, ``Transfer``, ``BatchTransfer``,
``P2pTransfer``, ``RevokeCert``, ``DropLink``, ``Advance``), which is all the
harness reads. A record's fields are the keys its mapping takes; a field with
a default may be left out, and ``_READERS`` reads each, with the range of
every number. An id, a name, an asset, and an attribute's name and value is
a ``str``; a whole number is an ``int``, not a bool, a string or a float,
which a run would coerce. Any other key or value is a schema error naming
its path, as in ``script[3] (transfer): target: customer: 5 is not a
string``. So are a dangling reference, a decreasing tick, a horizon
(``Scenario.horizon``) past ``ca.ROOT_VALIDITY``, the life of every root,
and an action that the run could not carry out: an account opens once,
before any transfer from it or enrolment of it; a commingled customer holds
no key to enrol, and one without the Class 1 attributes
(``ca.missing_class1_attributes``) none that its CA would certify; a
certificate is revoked once it is issued, and only once.

Schema (every referenced id must be declared):

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

A target takes the keys of one form: {customer: id} (beneficiary key hash;
account reference for commingled customers), {vasp: id, account: id}, or
{key_hash_hex: "..."}, 32 bytes in hex as a suspect's are. A
``p2p_transfer`` pays ``to_wallet`` or a mediated ``to_customer``, the only
kind that holds its wallet key. A ``batch_transfer`` pays, in one
transaction, from one VASP's pool of commingled customers to customers of
one VASP, and the sum of its amounts is a u64 as each is. A peering link
joins two networks; a ``drop_link`` two VASPs, for CRL fetches and CA
lookups are synchronous calls over no link. The protocol's timings
(``network.SYNC_PERIOD`` and the like, ``DRAIN_TICKS`` here) are constants.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from types import MappingProxyType
from typing import Any, Callable, NamedTuple, Optional, Union, get_args

from .accounts import CustodyModel
from .ca import ROOT_VALIDITY, CertClass, RevocationReason, missing_class1_attributes
from .network import PeeringLink

DRAIN_TICKS = 40  # ticks a run goes on after its script, for what is in flight to settle
U64_MAX = 2**64 - 1  # the largest seed, amount and batch sum


class SchemaError(Exception):
    """A scenario that does not parse, or that a run could not carry out."""


class _ItemError(SchemaError):
    """A SchemaError in a list's item, its message led by ``[index]``."""


# Every record is a NamedTuple: parsing builds one per section item and per
# action, and a NamedTuple builds in under half a frozen dataclass's time.
class VaspSpec(NamedTuple):
    vasp_id: str
    ca: str
    networks: tuple[str, ...]


class CustomerSpec(NamedTuple):
    customer_id: str
    vasp: str
    custody_model: CustodyModel = CustodyModel.MEDIATED
    requested_class: CertClass = CertClass.CLASS1
    attributes: Mapping[str, str] = MappingProxyType({})


class SuspectSpec(NamedTuple):
    """Exactly one of the three is given."""

    customer: Optional[str] = None
    account_id: Optional[str] = None
    key_hash_hex: Optional[bytes] = None  # 32 bytes, given in hex


class NetworkSpec(NamedTuple):
    network_id: str


class CaSpec(NamedTuple):
    ca_id: str


class Defaults(NamedTuple):
    drop_probability: float = 0.0


class CustomerTarget(NamedTuple):
    customer: str


class AccountTarget(NamedTuple):
    vasp: str
    account: str


class KeyHashTarget(NamedTuple):
    key_hash_hex: bytes  # 32 bytes, given in hex


Target = Union[CustomerTarget, AccountTarget, KeyHashTarget]
# A target's form is the first whose naming key, its first field, it holds.
_TARGET_FORMS = tuple((form._fields[0], form) for form in get_args(Target))


class OpenAccount(NamedTuple):
    tick: int
    customer: str


class Enroll(NamedTuple):
    tick: int
    customer: str


class Transfer(NamedTuple):
    tick: int
    origin: str
    target: Target
    amount: int
    asset: str = "coin"


class BatchEntry(NamedTuple):
    origin: str
    target: CustomerTarget
    amount: int


class BatchTransfer(NamedTuple):
    tick: int
    entries: tuple[BatchEntry, ...]
    asset: str = "coin"


class P2pTransfer(NamedTuple):
    """Pays ``to_wallet`` or ``to_customer``, exactly one."""

    tick: int
    from_wallet: str
    amount: int
    to_wallet: Optional[str] = None
    to_customer: Optional[str] = None
    asset: str = "coin"


class RevokeCert(NamedTuple):
    tick: int
    customer: str
    reason: RevocationReason = RevocationReason.UNSPECIFIED


class DropLink(NamedTuple):
    tick: int
    a: str
    b: str
    period: int


class Advance(NamedTuple):
    tick: int
    ticks: int


Action = Union[OpenAccount, Enroll, Transfer, BatchTransfer, P2pTransfer, RevokeCert,
               DropLink, Advance]
# Each script action by its ``action`` name.
ACTIONS: dict[str, type] = {
    "open_account": OpenAccount, "enroll": Enroll, "transfer": Transfer,
    "batch_transfer": BatchTransfer, "p2p_transfer": P2pTransfer, "revoke_cert": RevokeCert,
    "drop_link": DropLink, "advance": Advance,
}


class Scenario(NamedTuple):
    """A scenario: its fields are the top-level keys, each list section read
    into its records and the script, by ``parse_scenario``, into its actions."""

    seed: int = 0
    defaults: Defaults = Defaults()
    networks: tuple[NetworkSpec, ...] = ()
    cas: tuple[CaSpec, ...] = ()
    vasps: tuple[VaspSpec, ...] = ()
    peering_links: tuple[PeeringLink, ...] = ()
    customers: tuple[CustomerSpec, ...] = ()
    suspect_entries: tuple[SuspectSpec, ...] = ()
    script: tuple[Action, ...] = ()

    def horizon(self) -> int:
        """The last tick a run processes: the script's, then ``DRAIN_TICKS``."""
        last = max((a.tick for a in self.script), default=0)
        extra = sum(a.ticks for a in self.script if type(a) is Advance)
        return last + extra + DRAIN_TICKS


def _string(value: Any) -> str:
    """``value`` if it is a ``str``: an id, a name or an attribute."""
    if type(value) is not str:
        raise SchemaError(f"{value!r} is not a string")
    return value


def _number(value: Any, low: float, high: float) -> float:
    """``value``, an ``int`` or a ``float`` in [low, high], as a float."""
    if type(value) not in (int, float):
        raise SchemaError(f"{value!r} is not a number")
    if not low <= value <= high:
        raise SchemaError(f"{value!r} is out of range [{low}, {high}]")
    return float(value)


def _whole(value: Any, low: int, high: float = math.inf) -> int:
    """``value`` if it is an ``int``, a whole number, in [low, high]."""
    if type(value) is not int:
        raise SchemaError(f"{value!r} is not a whole number")
    if not low <= value <= high:
        raise SchemaError(f"{value!r} is out of range [{low}, {high}]")
    return value


def _mapping(value: Any) -> Mapping[Any, Any]:
    if type(value) is not dict and not isinstance(value, Mapping):
        raise SchemaError("must be a mapping")
    return value


def _known(value: Any, keys: frozenset[str]) -> None:
    """A SchemaError unless ``value`` is a mapping of only ``keys``."""
    for key in _mapping(value):
        if key not in keys:
            raise SchemaError(f"unknown key {key!r}")


def _list(value: Any) -> list[Any]:
    if not isinstance(value, list):
        raise SchemaError("must be a list")
    return value


def _each(read: Callable[[Any], Any], value: Any) -> tuple[Any, ...]:
    """``read`` of each item of the list ``value``."""
    items = []
    for index, item in enumerate(_list(value)):
        try:
            items.append(read(item))
        except SchemaError as exc:
            raise _ItemError(f"[{index}]: {exc}") from None
    return tuple(items)


def _records(record: type) -> Callable[[Any], tuple[Any, ...]]:
    """The reader of a list of ``record`` mappings."""
    return lambda value: _each(lambda raw: _read(record, raw), value)


def _key_hash(value: Any) -> bytes:
    try:
        key_hash = bytes.fromhex(_string(value))
    except ValueError:
        key_hash = b""
    if len(key_hash) != 32:
        raise SchemaError(f"{value!r} is not 32 bytes in hex")
    return key_hash


def _attributes(value: Any) -> dict[str, str]:
    for name, text in _mapping(value).items():
        _string(name)
        try:
            _string(text)
        except SchemaError as exc:
            raise SchemaError(f"{name}: {exc}") from None
    return dict(value)


def _target(value: Any) -> Target:
    """A target of one form, the first whose naming key it holds."""
    _mapping(value)
    for naming_key, form in _TARGET_FORMS:
        if naming_key in value:
            return _read(form, value)
    raise SchemaError(f"unrecognized target form {dict(value)!r}")


# How each field is read, by its key, unless its record's shape says
# otherwise; every other field is an id or a name. A reader refuses a value
# with a SchemaError, or with the ValueError of the enum it looks it up in.
_READERS: dict[str, Callable[[Any], Any]] = {
    "seed": lambda value: _whole(value, 0, U64_MAX),
    "tick": lambda value: _whole(value, 0),
    "amount": lambda value: _whole(value, 1, U64_MAX),
    "period": lambda value: _whole(value, 1),
    "ticks": lambda value: _whole(value, 1),
    "drop_probability": lambda value: _number(value, 0, 1),
    "defaults": lambda value: _read(Defaults, value),
    "networks": lambda value: _each(_string, value),
    "cas": _records(CaSpec),
    "vasps": _records(VaspSpec),
    "peering_links": _records(PeeringLink),
    "customers": _records(CustomerSpec),
    "suspect_entries": _records(SuspectSpec),
    "script": _list,  # of mappings, until ``_parse_script`` reads each action
    "attributes": _attributes,
    "custody_model": lambda value: CustodyModel(_string(value)),
    "requested_class": lambda value: CertClass.from_label(_string(value)),
    "reason": lambda value: RevocationReason(_string(value)),
    "key_hash_hex": _key_hash,
    "target": _target,
    "entries": _records(BatchEntry),
}
_ABSENT = object()  # the default of a required field, and the value of a key not given


def _shape(record: type, other_keys: tuple[str, ...] = (),
           **readers: Callable[[Any], Any]) -> tuple[frozenset[str], tuple[Any, ...]]:
    """The keys a ``record`` mapping takes, and each field's (key, reader, default)."""
    readers = {**_READERS, **readers}
    fields = tuple((key, readers.get(key, _string), record._field_defaults.get(key, _ABSENT))
                   for key in record._fields)
    return frozenset((*record._fields, *other_keys)), fields


_SHAPES = {
    **{record: _shape(record) for record in (
        Defaults, NetworkSpec, CaSpec, VaspSpec, PeeringLink, CustomerSpec, SuspectSpec,
        *get_args(Target))},
    **{record: _shape(record, ("action",)) for record in ACTIONS.values()},
    BatchEntry: _shape(BatchEntry, target=lambda value: _read(CustomerTarget, value)),
    Scenario: _shape(Scenario, networks=_records(NetworkSpec)),
}


def _read(record: type, raw: Any) -> Any:
    """``raw`` as a ``record``: a mapping of only its keys, each field read
    by its reader; a SchemaError names the key at fault."""
    keys, fields = _SHAPES[record]
    if type(raw) is not dict or not keys.issuperset(raw):
        _known(raw, keys)
    values = []
    try:
        for key, read, default in fields:
            value = raw.get(key, _ABSENT)
            if value is not _ABSENT:
                values.append(read(value))
            elif default is not _ABSENT:
                values.append(default)
            else:
                raise SchemaError("missing")
    except _ItemError as exc:
        raise SchemaError(f"{key}{exc}") from None
    except (SchemaError, ValueError) as exc:
        raise SchemaError(f"{key}: {exc}") from None
    return tuple.__new__(record, values)  # ``record._make`` less its check of the length


def _by_id(records: tuple[Any, ...]) -> dict[str, Any]:
    """``records`` by their ids, each its record's first field, and each given once."""
    by_id = {}
    for record in records:
        if record[0] in by_id:
            raise SchemaError(f"duplicate {record._fields[0]} {record[0]!r}")
        by_id[record[0]] = record
    return by_id


def parse_scenario(data: Mapping[str, Any]) -> Scenario:
    """The scenario ``data`` declares: read, then each section checked in order."""
    try:
        _known(data, _SHAPES[Scenario][0])
    except SchemaError as exc:
        raise SchemaError(f"scenario root: {exc}") from None
    root = _read(Scenario, data)
    networks, cas, vasps = _by_id(root.networks), _by_id(root.cas), _by_id(root.vasps)
    for vasp in root.vasps:
        if vasp.ca not in cas:
            raise SchemaError(f"vasp {vasp.vasp_id!r} references unknown ca {vasp.ca!r}")
        for network_id in vasp.networks:
            if network_id not in networks:
                raise SchemaError(f"vasp {vasp.vasp_id!r} references unknown network {network_id!r}")
    for link in root.peering_links:
        if link.network_a == link.network_b:
            raise SchemaError("peering link must connect two different networks")
        for vasp_id, network_id in ((link.vasp_a, link.network_a), (link.vasp_b, link.network_b)):
            if vasp_id not in vasps:
                raise SchemaError(f"peering link references unknown vasp {vasp_id!r}")
            if network_id not in networks:
                raise SchemaError(f"peering link references unknown network {network_id!r}")
            if network_id not in vasps[vasp_id].networks:
                raise SchemaError(f"peering gateway {vasp_id!r} is not a member of {network_id!r}")
    customers = _by_id(root.customers)
    for customer in root.customers:
        if customer.vasp not in vasps:
            raise SchemaError(f"customer {customer.customer_id!r} references unknown vasp "
                              f"{customer.vasp!r}")
    for suspect in root.suspect_entries:
        if sum(ref is not None for ref in suspect) != 1:
            raise SchemaError("suspect entries take exactly one of customer/account_id/key_hash_hex")
        if suspect.customer is not None and suspect.customer not in customers:
            raise SchemaError(f"suspect references unknown customer {suspect.customer!r}")
    return root._replace(script=_parse_script(root.script, customers, vasps))


def _parse_script(items: Sequence[Any], customers: Mapping[str, CustomerSpec],
                  vasps: Mapping[str, VaspSpec]) -> tuple[Action, ...]:
    """Each action of ``items``, read and checked; a fault names the action's place."""
    opened: set[str] = set()  # customers with an open account
    certified: set[str] = set()  # customers holding an unrevoked certificate
    script = []
    previous_tick = advanced = 0
    for index, raw in enumerate(items):
        name = raw.get("action") if type(raw) is dict or isinstance(raw, Mapping) else None
        try:
            if type(name) is not str or name not in ACTIONS:
                raise SchemaError("unknown action" if isinstance(raw, Mapping) else "must be a mapping")
            action = _read(ACTIONS[name], raw)
            if action.tick < previous_tick:
                raise SchemaError(f"tick {action.tick} decreases")
            _check_action(action, customers, vasps, opened, certified)
            if type(action) is Advance:
                advanced += action.ticks
            if action.tick + advanced + DRAIN_TICKS > ROOT_VALIDITY:
                raise SchemaError(f"horizon {action.tick + advanced + DRAIN_TICKS} passes the "
                                  f"roots' validity, tick {ROOT_VALIDITY}")
        except SchemaError as exc:
            raise SchemaError(f"script[{index}] ({name}): {exc}") from None
        previous_tick = action.tick
        script.append(action)
    return tuple(script)


def _check_action(action: Action, customers: Mapping[str, CustomerSpec],
                  vasps: Mapping[str, VaspSpec], opened: set[str], certified: set[str]) -> None:
    """A SchemaError, without the action's place, unless the run can carry out
    ``action`` after the actions ``opened`` and ``certified`` record; records it."""
    match action:
        case Transfer(origin=origin, target=target):
            if origin not in customers:
                raise SchemaError(f"unknown origin {origin!r}")
            match target:
                case CustomerTarget(customer=customer) if customer not in customers:
                    raise SchemaError(f"unknown target customer {customer!r}")
                case AccountTarget(vasp=vasp) if vasp not in vasps:
                    raise SchemaError(f"unknown target vasp {vasp!r}")
            _require_open(origin, opened)
        case OpenAccount() | Enroll() | RevokeCert() if action.customer not in customers:
            raise SchemaError(f"unknown customer {action.customer!r}")
        case OpenAccount(customer=customer_id):
            if customer_id in opened:
                raise SchemaError(f"{customer_id!r} already has an open account")
            opened.add(customer_id)
        case Enroll(customer=customer_id):
            _require_open(customer_id, opened)
            customer = customers[customer_id]
            if customer.custody_model is CustodyModel.COMMINGLED:
                raise SchemaError(f"commingled customer {customer_id!r} holds no key to certify")
            missing = missing_class1_attributes(customer.attributes)
            if missing:
                raise SchemaError(f"{customer_id!r} lacks the Class 1 attributes "
                                  f"{', '.join(missing)}; its CA would refuse it")
            certified.add(customer_id)
        case RevokeCert(customer=customer_id):
            if customer_id not in certified:
                raise SchemaError(f"{customer_id!r} holds no unrevoked certificate")
            certified.remove(customer_id)
        case BatchTransfer(entries=entries):  # one transaction: from one VASP's pool, to one VASP
            if not entries:
                raise SchemaError("entries must not be empty")
            payers, payees = set(), set()
            for index, entry in enumerate(entries):
                origin, payee = customers.get(entry.origin), customers.get(entry.target.customer)
                if origin is None or origin.custody_model is not CustodyModel.COMMINGLED:
                    raise SchemaError(f"entries[{index}]: origin {entry.origin!r} is not a "
                                      "commingled customer")
                if payee is None:
                    raise SchemaError(f"entries[{index}]: unknown target customer "
                                      f"{entry.target.customer!r}")
                payers.add(origin.vasp)
                payees.add(payee.vasp)
            total = sum(entry.amount for entry in entries)
            if total > U64_MAX:
                raise SchemaError(f"entries: amounts sum to {total}, above the ledger's {U64_MAX}")
            if len(payers) > 1 or len(payees) > 1:
                raise SchemaError(f"entries pay from {sorted(payers)} to {sorted(payees)}, "
                                  "not from one VASP to one")
            for entry in entries:
                _require_open(entry.origin, opened)
        case P2pTransfer(to_wallet=to_wallet, to_customer=to_customer):
            if to_wallet is not None and to_customer is not None:
                raise SchemaError("to_wallet and to_customer both given; a p2p transfer pays one")
            if to_wallet is None:
                customer = customers.get(to_customer)
                if customer is None:
                    raise SchemaError("to_wallet or a known to_customer required")
                if customer.custody_model is not CustodyModel.MEDIATED:
                    raise SchemaError(f"to_customer {to_customer!r} is {customer.custody_model.value}; "
                                      "only a mediated customer holds a wallet key")
        case DropLink(a=a, b=b):
            for actor in (a, b):
                if actor not in vasps:
                    raise SchemaError(f"endpoint {actor!r} is not a VASP")


def _require_open(customer_id: str, opened: set[str]) -> None:
    if customer_id not in opened:
        raise SchemaError(f"{customer_id!r} has no open account yet")
