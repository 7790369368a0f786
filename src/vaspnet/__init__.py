"""Inter-VASP public key management and travel-rule compliance stack.

Modules:
  crypto      seeded Ed25519/SHA-256 primitives, the canonical TLV codec, and
              the one rule for signed objects (declare, seal, check, memo)
  ca          certificate authority services (issuance, revocation, full CRLs,
              lookup)
  assertions  customer disclosures, carried unsigned inside signed messages,
              and their VASP-signed form, with disclosure filtering
  network     trust networks: directory gossip, path-vector routes
  accounts, directory, reachability, resolution, transfer
              the roles of a VASP: custody, directory gossip and CRLs,
              gateway routes, beneficiary resolution, the transfer pipeline
  vasp        the VASP node: its identity, composing those roles
  chain       append-only hash-chained ledger simulator
  scenario    scenario schema and its one-pass parser
  harness     deterministic discrete-event simulation
  report      text and canonical run reports, replay verification
  cli         command-line verbs (run, validate, replay, dump-routes, dump-ledger)
              and the scenario file loader, the one reader of YAML
"""

from .accounts import Account, CustodyModel
from .assertions import (
    AttributeAssertion,
    Disclosure,
    TRAVEL_RULE_ATTRIBUTES,
    filter_attributes,
    issue_assertion,
    verify_assertion,
)
from .ca import (
    Certificate,
    CertificateAuthority,
    CertificateProfile,
    CertClass,
    Crl,
    RevocationReason,
    RevocationView,
    ValidationResult,
    ValidationStatus,
    validate_certificate,
)
from .chain import ChainTransaction, SimChain, build_transaction
from .crypto import (
    KeyPair,
    canonical_decode,
    canonical_encode,
    digest,
    generate_keypair,
    sign,
    verify,
)
from .harness import EventLog, Metrics, RunResult, Simulation, run_scenario
from .network import (
    DirectoryDelta,
    DirectorySnapshot,
    PeeringLink,
    ReachabilityAdvertisement,
    TrustNetwork,
)
from .resolution import TransferTarget
from .scenario import Scenario, SchemaError
from .transfer import TransferOutcome, TravelRuleRecord
from .vasp import VaspNode

__version__ = "0.1.0"
