"""Harness determinism, reports, replay, and the CLI surface."""

import re
import struct
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
import yaml
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import vaspnet
from conftest import make_scenario, standard_script
from vaspnet.cli import main as cli_main
from vaspnet import crypto
from vaspnet.crypto import (
    canonical_decode,
    canonical_encode,
    decode_str_map,
    enc_str,
    enc_u64,
    encode_str_map,
)
from vaspnet.harness import EventLog, Simulation
from vaspnet.report import (
    ReplayMismatch,
    decode_events,
    render_canonical,
    render_text,
    replay_canonical,
)
from vaspnet.cli import load_scenario


DEMO_YAML = Path(__file__).resolve().parent.parent / "scenarios" / "demo.yaml"


def split_frames(blob: bytes) -> list[bytes]:
    frames, pos = [], 0
    while pos < len(blob):
        (length,) = struct.unpack_from(">I", blob, pos)
        frames.append(blob[pos + 4:pos + 4 + length])
        pos += 4 + length
    return frames


def reseal(frames: list[bytes], **metrics: str) -> bytes:
    """A canonical report of these header and event frames, its trailer
    re-encoded with their digest and the given metrics restated."""
    running = bytes(crypto.HASH_LEN)
    for frame in frames[1:-1]:
        running = crypto.digest(running + frame)
    trailer = dict(canonical_decode(frames[-1]))
    stated = {**decode_str_map(trailer[3]), **metrics}
    frames = [*frames[:-1], canonical_encode([(1, trailer[1]), (2, running),
                                              (3, encode_str_map(stated))])]
    return b"".join(struct.pack(">I", len(frame)) + frame for frame in frames)


def transfer_scenario(seed=7):
    return make_scenario(seed=seed, script=standard_script([
        {"tick": 15, "action": "transfer", "origin": "alice",
         "target": {"customer": "bob"}, "amount": 100, "asset": "coin"},
        {"tick": 16, "action": "transfer", "origin": "bob",
         "target": {"customer": "alice"}, "amount": 40, "asset": "coin"},
    ]))


class TestDeterminism:
    def test_same_scenario_same_digest(self):
        a = Simulation(transfer_scenario()).run()
        b = Simulation(transfer_scenario()).run()
        assert a.digest_hex == b.digest_hex
        assert a.metrics.as_pairs() == b.metrics.as_pairs()

    def test_seed_changes_digest(self):
        digests = {Simulation(transfer_scenario(), seed=s).run().digest_hex
                   for s in range(20)}
        assert len(digests) == 20

    def test_reports_reemit_identically(self):
        result = Simulation(transfer_scenario()).run()
        assert render_canonical(result) == render_canonical(result)
        assert render_text(result) == render_text(result)

    def test_determinism_across_processes(self, tmp_path):
        # Guards against set/dict iteration order leaking into the log
        # (PYTHONHASHSEED varies across interpreter runs).
        scenario_path = tmp_path / "scn.yaml"
        scenario_path.write_text(yaml.safe_dump({
            "seed": 11,
            "networks": [{"network_id": "net-a"}],
            "cas": [{"ca_id": "ca-1"}],
            "vasps": [
                {"vasp_id": "v1", "ca": "ca-1", "networks": ["net-a"]},
                {"vasp_id": "v2", "ca": "ca-1", "networks": ["net-a"]},
            ],
            "customers": [
                {"customer_id": "alice", "vasp": "v1", "custody_model": "mediated",
                 "attributes": {"name": "Alice", "email": "a@x"}},
                {"customer_id": "bob", "vasp": "v2", "custody_model": "mediated",
                 "attributes": {"name": "Bob", "email": "b@x"}},
            ],
            "script": [
                {"tick": 0, "action": "open_account", "customer": "alice"},
                {"tick": 0, "action": "open_account", "customer": "bob"},
                {"tick": 1, "action": "enroll", "customer": "alice"},
                {"tick": 1, "action": "enroll", "customer": "bob"},
                {"tick": 15, "action": "transfer", "origin": "alice",
                 "target": {"customer": "bob"}, "amount": 100, "asset": "coin"},
            ],
        }))
        code = (
            "from vaspnet.cli import load_scenario\n"
            "from vaspnet.harness import Simulation\n"
            f"print(Simulation(load_scenario({str(scenario_path)!r})).run().digest_hex)\n"
        )
        # The child environment is scrubbed except for the directory holding
        # the vaspnet package this process imported, so each child runs the
        # same code as the parent whether vaspnet is installed or on a path.
        import_root = str(Path(vaspnet.__file__).resolve().parent.parent)
        digests = set()
        for hash_seed in ("0", "1", "42"):
            proc = subprocess.run(
                [sys.executable, "-B", "-c", code],
                capture_output=True, text=True,
                env={"PYTHONHASHSEED": hash_seed, "PATH": "/usr/bin:/bin",
                     "PYTHONPATH": import_root},
            )
            assert proc.returncode == 0, (
                f"child with PYTHONHASHSEED={hash_seed} exited "
                f"{proc.returncode}:\n{proc.stderr}"
            )
            digest = proc.stdout.strip()
            assert re.fullmatch(r"[0-9a-f]{64}", digest), (
                f"child with PYTHONHASHSEED={hash_seed} printed {proc.stdout!r}"
            )
            digests.add(digest)
        assert len(digests) == 1
        expected = Simulation(load_scenario(scenario_path)).run().digest_hex
        assert digests == {expected}


def reference_event_bytes(tick, actor, event, details):
    """The event encoding as a plain composition of the crypto encoders."""
    return canonical_encode([
        (1, enc_u64(tick)),
        (2, enc_str(actor)),
        (3, enc_str(event)),
        (4, encode_str_map(dict(details))),
    ])


_text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)


class TestEventEncoding:
    """``EventLog`` encodes each event in one pass; bytes and running digest
    must equal the composition of ``canonical_encode`` and ``encode_str_map``."""

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(st.lists(st.tuples(
        st.integers(0, 2**64 - 1), _text, _text,
        st.dictionaries(st.text(st.characters(blacklist_categories=("Cs",)), max_size=8),
                        st.one_of(_text, st.integers(), st.booleans()), max_size=6),
    ), max_size=5))
    def test_matches_reference_encoding(self, events):
        log = EventLog()
        running = bytes(crypto.HASH_LEN)
        for tick, actor, event, details in events:
            record = log.append(tick, actor, event, **details)
            expected = reference_event_bytes(
                tick, actor, event, {k: str(v) for k, v in details.items()})
            assert record.to_bytes() == expected
            running = crypto.digest(running + expected)
        assert log.running_digest == running


class TestConservation:
    def test_attempted_equals_denied_plus_confirmed_plus_inflight(self):
        sim = Simulation(transfer_scenario())
        sim.run()
        metrics = sim.metrics
        assert metrics.transfers_attempted == (
            metrics.denied_total + metrics.transfers_confirmed + metrics.in_flight
        )
        assert metrics.in_flight == 0


class TestReports:
    def test_text_report_line_counts_match_counters(self):
        sim = Simulation(make_scenario(script=standard_script([
            {"tick": 15, "action": "transfer", "origin": "alice",
             "target": {"customer": "bob"}, "amount": 100, "asset": "coin"},
            {"tick": 16, "action": "transfer", "origin": "alice",
             "target": {"key_hash_hex": "ab" * 32}, "amount": 10, "asset": "coin"},
        ])))
        result = sim.run()
        text = render_text(result)
        confirmed_lines = [l for l in text.splitlines() if l.startswith("transfer_confirmed")]
        denied_lines = [l for l in text.splitlines() if l.startswith("transfer_denied")]
        assert len(confirmed_lines) == sim.metrics.transfers_confirmed == 1
        assert len(denied_lines) == sim.metrics.denied_total == 1

    def test_empty_run_header_only(self):
        sim = Simulation(make_scenario(script=[], customers=[]))
        result = sim.run()
        text = render_text(result)
        assert text.startswith("vaspnet run report")
        assert "[metrics]" in text

    def test_emit_report_formats(self):
        from vaspnet.report import emit_report
        result = Simulation(transfer_scenario()).run()
        assert emit_report(result, "text") == render_text(result).encode()
        assert emit_report(result, "canonical") == render_canonical(result)
        with pytest.raises(ValueError):
            emit_report(result, "xml")

    def test_canonical_replay_roundtrip(self):
        result = Simulation(transfer_scenario()).run()
        blob = render_canonical(result)
        digest_hex, metrics = replay_canonical(blob)
        assert digest_hex == result.digest_hex
        assert metrics["transfers_confirmed"] == str(result.metrics.transfers_confirmed)
        events = decode_events(blob)
        assert len(events) == len(result.sim.log_.entries)
        assert events[0] == result.sim.log_.entries[0]

    def test_replay_detects_tampering(self):
        result = Simulation(transfer_scenario()).run()
        blob = bytearray(render_canonical(result))
        blob[len(blob) // 2] ^= 0x01
        with pytest.raises(ReplayMismatch):
            replay_canonical(bytes(blob))

    def test_replay_checks_the_metrics(self):
        frames = split_frames(render_canonical(Simulation(load_scenario(DEMO_YAML)).run()))
        assert replay_canonical(reseal(frames))[1]["transfers_confirmed"] == "3"
        with pytest.raises(ReplayMismatch, match="transfers_confirmed"):
            replay_canonical(reseal(frames, transfers_confirmed="999"))
        with pytest.raises(ReplayMismatch, match="denied.CertInvalid"):
            replay_canonical(reseal(frames, **{"denied.CertInvalid": "0"}))
        with pytest.raises(ReplayMismatch, match="undecodable"):
            replay_canonical(reseal([frames[0], b"\x00\x01", *frames[1:]]))

    def test_replay_bounds_final_tick_and_messages_sent(self, tmp_path):
        """The two counters kept beside the log cannot be recounted from it,
        but the log bounds them: the last event's tick, and one send per
        logged notice and ack."""
        frames = split_frames(render_canonical(Simulation(load_scenario(DEMO_YAML)).run()))
        events = decode_events(reseal(frames))
        assert events[-1].tick == 71
        assert Counter(e.event for e in events if e.event in ("notice_sent", "ack_sent")) == {
            "notice_sent": 3, "ack_sent": 3}
        replay_canonical(reseal(frames, final_tick="71", messages_sent="6"))
        for forged, name in (({"final_tick": "5"}, "final_tick"),
                             ({"messages_sent": "1"}, "messages_sent")):
            blob = reseal(frames, **forged)
            with pytest.raises(ReplayMismatch, match=name):
                replay_canonical(blob)
            out = tmp_path / "forged.bin"
            out.write_bytes(blob)
            assert CliRunner().invoke(cli_main, ["replay", "--log", str(out)]).exit_code == 2

    def test_replay_rejects_a_missing_header_or_trailer_field(self, tmp_path):
        frames = split_frames(render_canonical(Simulation(load_scenario(DEMO_YAML)).run()))
        trailer = dict(canonical_decode(frames[-1]))
        two_field_trailer = canonical_encode([(1, trailer[1]), (2, trailer[2])])
        header = dict(canonical_decode(frames[0]))
        header_without_version = canonical_encode([(1, header[1]), (3, header[3])])
        for forged in ([*frames[:-1], two_field_trailer],
                       [header_without_version, *frames[1:]]):
            blob = b"".join(struct.pack(">I", len(frame)) + frame for frame in forged)
            with pytest.raises(ReplayMismatch, match="undecodable"):
                replay_canonical(blob)
            out = tmp_path / "forged.bin"
            out.write_bytes(blob)
            assert CliRunner().invoke(cli_main, ["replay", "--log", str(out)]).exit_code == 2


class TestChainIntegrity:
    def test_verify_chain_after_run(self):
        sim = Simulation(transfer_scenario())
        result = sim.run()
        assert sim.chain.verify_chain()
        assert not result.breaches

    def test_mutation_detected_as_breach(self):
        sim = Simulation(transfer_scenario())
        sim.run()
        tx = sim.chain.confirmed_transactions()[0][0]
        object.__setattr__(tx, "amount", 10**9)
        assert not sim.chain.verify_chain()


class TestCli:
    @pytest.fixture
    def scenario_file(self, tmp_path):
        path = tmp_path / "demo.yaml"
        path.write_text(yaml.safe_dump({
            "seed": 3,
            "networks": [{"network_id": "net-a"}],
            "cas": [{"ca_id": "ca-1"}],
            "vasps": [
                {"vasp_id": "v1", "ca": "ca-1", "networks": ["net-a"]},
                {"vasp_id": "v2", "ca": "ca-1", "networks": ["net-a"]},
            ],
            "customers": [
                {"customer_id": "alice", "vasp": "v1", "custody_model": "mediated",
                 "attributes": {"name": "Alice", "email": "a@x"}},
                {"customer_id": "bob", "vasp": "v2", "custody_model": "mediated",
                 "attributes": {"name": "Bob", "email": "b@x"}},
            ],
            "script": [
                {"tick": 0, "action": "open_account", "customer": "alice"},
                {"tick": 0, "action": "open_account", "customer": "bob"},
                {"tick": 1, "action": "enroll", "customer": "alice"},
                {"tick": 1, "action": "enroll", "customer": "bob"},
                {"tick": 15, "action": "transfer", "origin": "alice",
                 "target": {"customer": "bob"}, "amount": 100, "asset": "coin"},
            ],
        }))
        return path

    def test_validate_ok(self, scenario_file):
        result = CliRunner().invoke(cli_main, ["validate", "--scenario", str(scenario_file)])
        assert result.exit_code == 0
        assert "ok:" in result.output

    def test_validate_schema_error_exit_1(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("seed: 1\nvasps:\n  - {vasp_id: v1, ca: nope, networks: []}\ncas: []\nnetworks: []\n")
        result = CliRunner().invoke(cli_main, ["validate", "--scenario", str(bad)])
        assert result.exit_code == 1

    def test_run_text_report(self, scenario_file):
        result = CliRunner().invoke(cli_main, ["run", "--scenario", str(scenario_file)])
        assert result.exit_code == 0
        assert "vaspnet run report" in result.output
        assert "transfers_confirmed=1" in result.output

    def test_run_canonical_then_replay(self, scenario_file, tmp_path):
        out = tmp_path / "run.bin"
        runner = CliRunner()
        result = runner.invoke(cli_main, [
            "run", "--scenario", str(scenario_file),
            "--report", "canonical", "--out", str(out),
        ])
        assert result.exit_code == 0
        replay = runner.invoke(cli_main, ["replay", "--log", str(out)])
        assert replay.exit_code == 0
        assert "digest " in replay.output

    def test_replay_tampered_exit_2(self, scenario_file, tmp_path):
        out = tmp_path / "run.bin"
        runner = CliRunner()
        runner.invoke(cli_main, [
            "run", "--scenario", str(scenario_file),
            "--report", "canonical", "--out", str(out),
        ])
        blob = bytearray(out.read_bytes())
        blob[len(blob) // 2] ^= 0x01
        out.write_bytes(bytes(blob))
        replay = runner.invoke(cli_main, ["replay", "--log", str(out)])
        assert replay.exit_code == 2

    def test_replay_forged_metrics_exit_2(self, tmp_path):
        out = tmp_path / "demo.bin"
        runner = CliRunner()
        runner.invoke(cli_main, [
            "run", "--scenario", str(DEMO_YAML), "--report", "canonical", "--out", str(out),
        ])
        out.write_bytes(reseal(split_frames(out.read_bytes()), transfers_confirmed="999"))
        replay = runner.invoke(cli_main, ["replay", "--log", str(out)])
        assert replay.exit_code == 2
        assert "transfers_confirmed" in replay.output

    def test_dump_ledger(self, scenario_file):
        result = CliRunner().invoke(cli_main, ["dump-ledger", "--scenario", str(scenario_file)])
        assert result.exit_code == 0
        assert len(result.output.strip().splitlines()) == 1
        assert ",coin," in result.output

    def test_dump_routes(self):
        four_networks = DEMO_YAML.with_name("four_networks.yaml")
        result = CliRunner().invoke(cli_main, ["dump-routes", "--scenario", str(four_networks)])
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert len(lines) == 6
        for line in lines:  # network,hash16,home,path
            network, key_hash, home, path = line.split(",")
            assert network in ("net-a", "net-b", "net-c", "net-d")
            assert re.fullmatch(r"[0-9a-f]{16}", key_hash)
            assert home in ("a1", "d1")
            assert network not in path.split(">")

    def test_seed_override_changes_digest(self, scenario_file, tmp_path):
        runner = CliRunner()
        outputs = set()
        for seed in ("1", "2"):
            out = tmp_path / f"r{seed}.bin"
            runner.invoke(cli_main, [
                "run", "--scenario", str(scenario_file), "--seed", seed,
                "--report", "canonical", "--out", str(out),
            ])
            outputs.add(out.read_bytes())
        assert len(outputs) == 2

    @pytest.mark.parametrize("verb", ["run", "dump-routes", "dump-ledger"])
    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_outside_the_schemas_range_refused_before_the_run(self, verb, seed,
                                                                   monkeypatch):
        ran = []
        monkeypatch.setattr("vaspnet.cli.run_scenario", lambda *args, **kwargs: ran.append(args))
        result = CliRunner().invoke(cli_main, [verb, "--scenario", str(DEMO_YAML),
                                               "--seed", seed])
        assert result.exit_code == 2
        assert "Invalid value for '--seed'" in result.output
        assert ran == []
