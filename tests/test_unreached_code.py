"""No function in ``src/vaspnet`` that no tracked run reaches.

One trace, under ``sys.setprofile``, imports ``vaspnet`` and runs every
``scenarios/*.yaml`` through each CLI verb (``validate``, text ``run``,
``run --report canonical --out``, ``replay``, ``dump-routes``,
``dump-ledger``) and one short seed-7 ``churn-lossy`` workload, summarised by
``benchmark/worker.summarise`` as the benchmark does. The trace runs in a
fresh interpreter (this file run as a script) so that the calls made while
``vaspnet`` is imported count. Every ``def`` under ``src/vaspnet``, found
with ``ast``, must be called somewhere in that trace or sit on ``ALLOWED``
with its reason. An allow-list entry that the trace reaches fails too, so the
list only shrinks.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "vaspnet"
BENCH_DIR = ROOT / "benchmark"
SCENARIOS = sorted((ROOT / "scenarios").glob("*.yaml"))
WORKLOAD_TRANSFERS = 60

# Functions no tracked run calls, each kept for the reason given.
ALLOWED = {
    # ``benchmark/tracer.py`` wraps it by name; only tests call it.
    "assertions.filter_attributes",
    # ``benchmark/tracer.py`` wraps it by name; it does nothing, and nothing calls it.
    "vasp.VaspNode.check_account_invariants",
    # Decoders for when messages cross links as bytes; tests round-trip them.
    "assertions.AttributeAssertion.from_bytes",
    "ca.Certificate.from_bytes",
    "ca.CertificateProfile.from_bytes",
    "ca.RevocationEntry.from_bytes",
    # Abstract: every record type overrides it.
    "crypto.Record.tlv_fields",
    # Tests read a memoised payload through it.
    "crypto.Signed.signed_payload",
    # Readable attribute sets in test-failure output.
    "assertions.FrozenAttributes.__repr__",
}


def _source_defs() -> dict[tuple[str, int, str], str]:
    """(file, line, name) -> dotted name of every ``def`` in ``src/vaspnet``.
    A decorated function's code may start at its first decorator's line or
    at its ``def`` line, depending on the Python version, so both are keys."""
    defs = {}

    def visit(node, path: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}.{child.name}"
                for line in [child.lineno] + [d.lineno for d in child.decorator_list]:
                    defs[(path, line, child.name)] = name
                visit(child, path, name)
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}.{child.name}")
            else:
                visit(child, path, prefix)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), str(path), path.stem)
    return defs


def _tracked_runs(out_dir: Path) -> None:
    """The runs traced; imported here, so that importing ``vaspnet`` is traced too."""
    from click.testing import CliRunner

    from vaspnet.cli import main
    from vaspnet.harness import Simulation
    from vaspnet.scenario import parse_scenario

    sys.path.insert(0, str(BENCH_DIR))  # ``worker`` imports its siblings by name
    import worker

    runner = CliRunner()
    for scenario in SCENARIOS:
        report = out_dir / f"{scenario.stem}.report"
        for args in (
            ["validate", "--scenario", str(scenario)],
            ["run", "--scenario", str(scenario)],
            ["run", "--scenario", str(scenario), "--report", "canonical", "--out", str(report)],
            ["replay", "--log", str(report)],
            ["dump-routes", "--scenario", str(scenario)],
            ["dump-ledger", "--scenario", str(scenario)],
        ):
            result = runner.invoke(main, args)
            assert result.exit_code == 0, (args, result.output)
    sim = Simulation(parse_scenario(worker.WORKLOADS["churn-lossy"].scenario(7, WORKLOAD_TRANSFERS)))
    sim.run()
    assert worker.summarise(sim)["breaches"] == []


def _trace(out_dir: Path) -> list[tuple[str, int, str]]:
    """(file, first line, name) of every Python function the runs call,
    ``vaspnet``'s import included."""
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        _tracked_runs(out_dir)
    finally:
        sys.setprofile(previous)
    return sorted({(code.co_filename, code.co_firstlineno, code.co_name) for code in called})


def test_every_src_function_is_reached_or_allowed(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    ))
    subprocess.run([sys.executable, __file__, str(tmp_path)], env=env, check=True)
    called = json.loads((tmp_path / "called.json").read_text())

    defs = _source_defs()
    reached = {defs[key] for key in map(tuple, called) if key in defs}
    unreached = set(defs.values()) - reached
    missed = sorted(unreached - ALLOWED)
    assert not missed, f"unreached and not on the allow-list: {missed}"
    stale = sorted(ALLOWED - unreached)
    assert not stale, f"on the allow-list but reached or not defined: {stale}"


if __name__ == "__main__":
    out = Path(sys.argv[1])
    (out / "called.json").write_text(json.dumps(_trace(out)))
