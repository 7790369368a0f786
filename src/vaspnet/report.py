"""Run reports: line-oriented text and a byte-stable canonical form.

The canonical form is a stream of length-prefixed canonical records (header,
one per event, trailer with metrics and the final log digest). Replaying a
canonical report re-derives from its events the digest and all metrics but
``messages_sent`` and ``final_tick``, and checks them against the trailer.
Those two it bounds from below: the run ended no earlier than its last
event, and it sent at least one message per ``notice_sent`` and per
``ack_sent`` event, each logged right after its send.
"""

from __future__ import annotations

import struct

from . import crypto
from .crypto import (
    CryptoError,
    canonical_decode,
    canonical_encode,
    dec_str,
    dec_u64,
    decode_str_map,
    digest,
    enc_str,
    enc_u64,
    encode_str_map,
)
from .harness import EventRecord, Metrics, RunResult

FORMAT_LABEL = "vaspnet-report"
FORMAT_VERSION = 1


class ReplayMismatch(Exception):
    pass


def render_text(result: RunResult) -> str:
    sim, metrics = result.sim, result.metrics
    lines = [
        "vaspnet run report",
        f"seed={sim.seed} final_tick={metrics.final_tick} events={len(sim.log_)}",
        f"log_digest={result.digest_hex}",
        "",
        "[metrics]",
    ]
    lines += [f"{key}={value}" for key, value in metrics.as_pairs()]
    lines.append("")
    lines.append("[transfers]")
    for record in sim.log_.entries:
        if record.event == "record_confirmed" and dict(record.details).get("role") == "originator":
            lines.append(f"transfer_confirmed {dict(record.details).get('record', '')}")
        elif record.event == "transfer_denied":
            details = dict(record.details)
            lines.append(
                f"transfer_denied reason={details.get('reason', '')} "
                f"detail={details.get('detail', '')}".rstrip()
            )
    for index, section in enumerate(("[audit]", "[reconciliation]")):
        lines += ["", section]
        for vasp_id, reports in sim.reports.items():
            lines += [f"{vasp_id} {line}" for line in reports[index].report_lines()]
    if sim.breaches:
        lines.append("")
        lines.append("[invariant breaches]")
        lines += sim.breaches
    lines.append("")
    return "\n".join(lines)


def _frame(record_bytes: bytes) -> bytes:
    return struct.pack(">I", len(record_bytes)) + record_bytes


def _unframe(data: bytes) -> list[bytes]:
    records = []
    pos = 0
    while pos < len(data):
        if pos + 4 > len(data):
            raise ReplayMismatch("truncated frame header")
        (length,) = struct.unpack_from(">I", data, pos)
        pos += 4
        if pos + length > len(data):
            raise ReplayMismatch("truncated frame body")
        records.append(data[pos:pos + length])
        pos += length
    return records


def render_canonical(result: RunResult) -> bytes:
    sim = result.sim
    header = canonical_encode([
        (1, enc_str(FORMAT_LABEL)),
        (2, enc_u64(FORMAT_VERSION)),
        (3, enc_u64(sim.seed)),
    ])
    out = bytearray(_frame(header))
    for record in sim.log_.entries:
        out += _frame(record.to_bytes())
    trailer = canonical_encode([
        (1, enc_str("trailer")),
        (2, sim.log_.running_digest),
        (3, encode_str_map(dict(result.metrics.as_pairs()))),
    ])
    out += _frame(trailer)
    return bytes(out)


def replay_canonical(data: bytes) -> tuple[str, dict[str, str]]:
    """Recompute the digest and metrics of a canonical report; returns (digest_hex, metrics).

    Raises ReplayMismatch when the recomputed digest or a metric differs from
    the embedded one, when the embedded ``final_tick`` or ``messages_sent`` is
    below what the events prove, or when the stream is malformed: a header,
    trailer or event field missing or undecodable included.
    """
    frames = _unframe(data)
    if len(frames) < 2:
        raise ReplayMismatch("report must contain a header and a trailer")
    try:
        header, trailer = dict(canonical_decode(frames[0])), dict(canonical_decode(frames[-1]))
        label, version = dec_str(header[1]), dec_u64(header[2])
        trailer_label, embedded, stated = dec_str(trailer[1]), trailer[2], decode_str_map(trailer[3])
        events = decode_events(data)
        derived = dict(Metrics.from_events(events).as_pairs())
        final_tick, messages_sent = int(stated["final_tick"]), int(stated["messages_sent"])
    except (CryptoError, KeyError, ValueError) as exc:
        raise ReplayMismatch(f"undecodable record: {exc!r}") from exc
    if label != FORMAT_LABEL:
        raise ReplayMismatch("not a vaspnet canonical report")
    if version != FORMAT_VERSION:
        raise ReplayMismatch("unsupported report version")
    if trailer_label != "trailer":
        raise ReplayMismatch("missing trailer record")
    running = bytes(crypto.HASH_LEN)
    for frame in frames[1:-1]:
        running = digest(running + frame)
    if running != embedded:
        raise ReplayMismatch(
            f"digest mismatch: recomputed {running.hex()}, embedded {embedded.hex()}"
        )
    for key in sorted((stated.keys() | derived.keys()) - {"messages_sent", "final_tick"}):
        if stated.get(key) != derived.get(key):
            raise ReplayMismatch(f"{key}: recomputed {derived.get(key)}, embedded {stated.get(key)}")
    last_tick = events[-1].tick if events else 0
    if final_tick < last_tick:
        raise ReplayMismatch(f"final_tick: embedded {final_tick}, below the last event's tick {last_tick}")
    sends = sum(e.event in ("notice_sent", "ack_sent") for e in events)
    if messages_sent < sends:
        raise ReplayMismatch(f"messages_sent: embedded {messages_sent}, below the {sends} sends logged")
    return running.hex(), stated


def decode_events(data: bytes) -> list[EventRecord]:
    events = []
    for frame in _unframe(data)[1:-1]:
        fields = dict(canonical_decode(frame))
        events.append(EventRecord(
            tick=dec_u64(fields[1]),
            actor=dec_str(fields[2]),
            event=dec_str(fields[3]),
            details=tuple(sorted(decode_str_map(fields[4]).items())),
        ))
    return events


def emit_report(result: RunResult, format: str = "text") -> bytes:
    """Render a run report; the canonical form is byte-stable."""
    if format == "text":
        return render_text(result).encode()
    if format == "canonical":
        return render_canonical(result)
    raise ValueError(f"unknown report format {format!r}")


def dump_route_lines(result: RunResult) -> list[str]:
    lines = []
    sim = result.sim
    for network_id in sorted(sim.networks):
        for line in sim.networks[network_id].dump_route_lines():
            lines.append(f"{network_id},{line}")
    return lines


def dump_ledger_lines(result: RunResult) -> list[str]:
    return result.sim.chain.export_lines()
