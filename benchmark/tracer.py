"""Outside-in tracer for vaspnet's layers.

The tracer wraps public functions and methods of the ``vaspnet`` modules from
the benchmark's side; nothing inside the program knows about it. A module
function is rebound in every ``vaspnet.*`` module attribute that *is* the
original object, because the layers import ``canonical_encode``, ``digest``,
``validate_certificate`` and friends by name. A method is rebound on its
class. ``restore`` puts every original back.

Each call records a span (name, parent span, start, end) in flat in-memory
arrays; the spans are written out only when the run ends. A span's self time
is its duration minus the time covered by its traced child spans.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import sys
import time
from array import array
from pathlib import Path
from typing import Any, Callable

# layer -> (module, public functions and methods wrapped for that layer)
TARGETS: dict[str, tuple[str, tuple[str, ...]]] = {
    "crypto": ("vaspnet.crypto", ("sign", "verify", "canonical_encode", "digest")),
    "ca": ("vaspnet.ca", (
        "validate_certificate",
        "CertificateAuthority.issue_certificate",
        "CertificateAuthority.generate_crl",
        "CertificateAuthority.find_certificate_by_key_hash",
        "RevocationView.merge_crl",
    )),
    "assertions": ("vaspnet.assertions", (
        "issue_assertion", "verify_assertion", "filter_attributes",
    )),
    "vasp": ("vaspnet.vasp", tuple(f"VaspNode.{m}" for m in (
        "initiate_transfer", "resolve_beneficiary", "handle_transfer_notice",
        "on_transfer_ack", "on_chain_confirmation", "known_keys",
        "check_account_invariants", "open_account", "directory_entries",
        "publish_directory", "announce_directory", "on_dir_announce", "on_dir_delta",
        "on_dir_snapshot", "ingest_crls", "advertise_reachability",
        "on_reachability_advertisement", "audit_travel_rule", "reconcile",
    ))),
    "network": ("vaspnet.network", (
        "process_advertisement", "build_advertisement", "query_certificate",
        "route_cross_network_query", "apply_delta", "DirectoryView.install_snapshot",
    )),
    "chain": ("vaspnet.chain", (
        "SimChain.submit_transaction", "SimChain.tick", "SimChain.verify_chain",
    )),
    "harness": ("vaspnet.harness", ("EventLog.append", "Simulation.send")),
    "scenario": ("vaspnet.scenario", ("parse_scenario",)),
}

MESSAGE_KINDS = (
    "transfer_notice", "transfer_ack", "dir_delta", "dir_pull", "dir_snapshot",
    "dir_announce", "crl_update", "reach_adv",
)


def metric_name(layer: str, target: str) -> str:
    """``vasp.on_dir_announce`` for VaspNode methods, ``<layer>.<target>`` otherwise."""
    return f"{layer}.{target.removeprefix('VaspNode.')}"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.layers: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        # One span per traced call: name index, parent span (-1 at top), start, end.
        self.span_name = array("H")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list[Any]] = []  # [span id, seconds covered by children]
        self._restore: list[Callable[[], None]] = []
        self.verify_keys: set[tuple[bytes, bytes, bytes]] = set()
        self.adv_accepted = 0
        self.msgs = {kind: 0 for kind in MESSAGE_KINDS}

    # -- install / restore ---------------------------------------------------------

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        observers: dict[str, Callable[[tuple, Any], None]] = {
            "crypto.verify": self._observe_verify,
            "network.process_advertisement": self._observe_advertisement,
            "harness.Simulation.send": self._observe_send,
        }
        for layer, (module_name, targets) in TARGETS.items():
            module = importlib.import_module(module_name)
            for target in targets:
                name = metric_name(layer, target)
                index = len(self.names)
                self.names.append(name)
                self.layers.append(layer)
                self.calls.append(0)
                self.self_s.append(0.0)
                observe = observers.get(name)
                if "." in target:
                    self._wrap_method(module, target, index, observe)
                else:
                    self._wrap_function(module, target, index, observe)

    def restore(self) -> None:
        while self._restore:
            self._restore.pop()()

    def _wrap_function(self, module, attr: str, index: int, observe) -> None:
        original = getattr(module, attr)
        wrapper = self._wrapper(original, index, observe)
        for mod_name, mod in sorted(sys.modules.items()):
            if mod is None or not (mod_name == "vaspnet" or mod_name.startswith("vaspnet.")):
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, wrapper)
                    self._restore.append(functools.partial(setattr, mod, name, original))

    def _wrap_method(self, module, target: str, index: int, observe) -> None:
        class_name, method = target.split(".")
        cls = getattr(module, class_name)
        original = cls.__dict__[method]
        if not inspect.isfunction(original):
            raise TypeError(f"{target} is not a plain method")
        setattr(cls, method, self._wrapper(original, index, observe))
        self._restore.append(functools.partial(setattr, cls, method, original))

    def _wrapper(self, fn: Callable, index: int, observe) -> Callable:
        stack = self._stack
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        calls, self_s = self.calls, self.self_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(names)
            names.append(index)
            parents.append(stack[-1][0] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            frame = [span, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                starts[span] = start
                ends[span] = end
                duration = end - start
                calls[index] += 1
                self_s[index] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if observe is not None:
                observe(args, result)
            return result

        traced.__wrapped_by_tracer__ = True
        return traced

    # -- observers ----------------------------------------------------------------

    def _observe_verify(self, args: tuple, _result: Any) -> None:
        public_key, message, signature = args
        self.verify_keys.add((bytes(public_key), bytes(signature),
                              hashlib.sha256(message).digest()))

    def _observe_advertisement(self, _args: tuple, result: Any) -> None:
        if result[0] == "accept":
            self.adv_accepted += 1

    def _observe_send(self, args: tuple, _result: Any) -> None:
        kind = args[3]
        self.msgs[kind] = self.msgs.get(kind, 0) + 1

    # -- results ------------------------------------------------------------------

    def count(self, name: str) -> int:
        return self.calls[self.names.index(name)]

    def layer_self_s(self) -> dict[str, float]:
        totals: dict[str, float] = {}
        for layer, seconds in zip(self.layers, self.self_s):
            totals[layer] = totals.get(layer, 0.0) + seconds
        return totals

    def metrics(self, traced_wall_s: float, messages_dropped: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit)."""
        out: dict[str, tuple[float, str]] = {}
        for name, layer, calls, seconds in zip(self.names, self.layers, self.calls, self.self_s):
            if layer == "scenario":
                out[f"{name}.s"] = (seconds, "s")
                continue
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.s"] = (seconds, "s")
        verifies = self.count("crypto.verify")
        out["crypto.verify.distinct_ratio"] = (
            len(self.verify_keys) / verifies if verifies else 1.0, "ratio")
        adverts = self.count("network.process_advertisement")
        out["network.adv.accept_ratio"] = (
            self.adv_accepted / adverts if adverts else 1.0, "ratio")
        for kind in MESSAGE_KINDS:
            out[f"harness.msgs.{kind}"] = (self.msgs.get(kind, 0), "count")
        out["harness.msgs.dropped"] = (messages_dropped, "count")
        layers = self.layer_self_s()
        for layer, seconds in layers.items():
            if layer not in ("harness", "scenario"):
                out[f"{layer}.self_s"] = (seconds, "s")
        others = sum(s for layer, s in layers.items() if layer != "harness")
        out["harness.self_s"] = (traced_wall_s - others, "s")
        return out

    def write_spans(self, path: Path) -> None:
        """Write every span as ``id parent name start_s end_s`` lines (tab separated)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        base = self.span_start[0] if self.span_start else 0.0
        with path.open("w") as out:
            out.write("span\tparent\tname\tstart_s\tend_s\n")
            for span in range(len(self.span_name)):
                out.write(f"{span}\t{self.span_parent[span]}\t{self.names[self.span_name[span]]}"
                          f"\t{self.span_start[span] - base:.7f}\t{self.span_end[span] - base:.7f}\n")
