"""The benchmark's own output checks must keep passing against this tree."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from bithalt.simulate import SCENARIO_DIR

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_tracer_targets_resolve():
    # The tracer reports zero calls for a name it cannot find, so a removed or
    # renamed name would silently zero its per-layer metrics.
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module_name, attr, span, _ in tracer.TARGETS:
        holder = importlib.import_module(module_name)
        owner, _, name = attr.rpartition(".")
        if owner:
            holder = getattr(holder, owner, None)
            assert holder is not None and name in vars(holder), span
        else:
            assert hasattr(holder, name), span


def test_tracer_sees_every_layer_the_commands_call(tmp_path):
    # A name that resolves is not enough: a command that called around the wrapper,
    # say through a name bound before the tracer set it, would read zero calls.
    # Without --scenarios, simulate reads the built-in suite through the same loader.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    calls = {}
    for i, argv in enumerate((["simulate", "--bits", "4", "--scenarios", str(SCENARIO_DIR)],
                              ["simulate", "--bits", "4"], ["report"])):
        spans = tmp_path / f"spans-{i}.json"
        subprocess.run([sys.executable, "perfbench/tracer.py", str(spans), "--", *argv,
                        "--out", str(tmp_path / "out")],
                       cwd=ROOT, env=env, capture_output=True, check=True, timeout=300)
        totals = json.loads(spans.read_text())["totals"]
        if argv == ["simulate", "--bits", "4"]:
            assert totals.get("simulate.load_scenario_dir", [0])[0] > 0
        for name, row in totals.items():
            calls[name] = calls.get(name, 0) + row[0]
    for name in ("simulate.load_scenario_dir", "simulate.next_chunk",
                 "trace_io.write_records", "trace_io.read_records", "metrics.summarize_all",
                 "metrics.emit_summary_table", "calibrate.confidence", "policy.decide",
                 "policy.update_marker"):
        assert calls.get(name, 0) > 0, name
