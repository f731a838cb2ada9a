"""The benchmark's own output checks must keep passing against this tree."""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

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
