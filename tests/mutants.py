"""Mutation gate: each mutant below is a one-spot fault in ``src/bithalt`` that the
listed tests must catch.

    python tests/mutants.py           # every mutant
    python tests/mutants.py NAME ...  # the named ones

The runner copies ``src/``, ``tests/``, ``perfbench/`` and ``pyproject.toml`` to a
temporary directory and runs pytest inside that copy, where pyproject's ``pythonpath``
puts the copy's ``src`` first. It requires each mutant's old text to occur exactly once
in its file, the unmutated copy to pass every listed test, and each mutant, applied
alone, to fail at least one of its tests under a fixed ``--hypothesis-seed``. A change
that moves or rewrites the mutated code fails the gate until this table follows it.
pytest does not collect this file: its name does not start with ``test_``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple, Tuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "perfbench", "pyproject.toml")
HYPOTHESIS_SEED = 1


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/bithalt
    old: str
    new: str
    tests: Tuple[str, ...]  # pytest node ids, at least one of which must fail


_STOP_ORDER = "tests/test_simulator.py::TestStopOrder::"
_ONE_SETTING = _STOP_ORDER + "test_one_setting_moves_every_stop_one_way"
_BITCAL_AFTER_ADAPTIVE = _STOP_ORDER + "test_bitcal_never_stops_before_adaptive"
_ONE_PASS = "tests/test_simulator.py::TestOnePass::test_every_cell_equals_the_oracle"
_SCALE = "tests/test_simulator.py::TestBitScaleIsAThreshold::"
_UNREADABLE = "tests/test_cli.py::TestUnreadableFiles::test_one_error_line_naming_the_file"

MUTANTS = (
    # policy.decide
    Mutant("confidence-bar-inverted", "policy.py",
           "conf >= cfg.theta_c", "conf <= cfg.theta_c", (f"{_ONE_SETTING}[theta_c]",)),
    Mutant("escalate-bar-inverted", "policy.py",
           "entropy >= cfg.theta_e", "entropy <= cfg.theta_e", (f"{_ONE_SETTING}[theta_e]",)),
    Mutant("buffer-test-inverted", "policy.py",
           "remaining_budget < cfg.budget_buffer", "remaining_budget > cfg.budget_buffer",
           (f"{_ONE_SETTING}[budget_buffer]",)),
    Mutant("floor-test-inverted", "policy.py",
           "if cumulative_tokens < cfg.floor_tokens:", "if cumulative_tokens >= cfg.floor_tokens:",
           (f"{_ONE_SETTING}[floor_tokens]",)),
    Mutant("low-entropy-bar-inverted", "policy.py",
           "entropy <= cfg.theta_h", "entropy >= cfg.theta_h", (f"{_ONE_SETTING}[theta_h]",)),
    # policy.PRECISION_TIERS
    Mutant("tail-grows-with-bits", "policy.py",
           "((4, 0.85, 32), (8, 1.00, 16), (None, 1.05, 0))",
           "((4, 0.85, 0), (8, 1.00, 16), (None, 1.05, 32))",
           (f"{_ONE_SETTING}[served_bits]", _BITCAL_AFTER_ADAPTIVE)),
    Mutant("8-bit-tail-of-48", "policy.py",
           "(8, 1.00, 16)", "(8, 1.00, 48)", (f"{_ONE_SETTING}[served_bits]",)),
    Mutant("4-bit-scale-of-1.10", "policy.py",
           "(4, 0.85, 32)", "(4, 1.10, 32)",
           (f"{_ONE_SETTING}[served_bits]", _BITCAL_AFTER_ADAPTIVE)),
    # engine.run_episodes
    Mutant("decide-reads-the-calibrators-bits", "engine.py",
           "readout.entropy, conf, marker, cfg.policy)",
           "readout.entropy, conf, marker,"
           " replace(cfg.policy, effective_bits=cal.effective_bits))",
           (f"{_SCALE}test_the_scale_is_adaptive_at_a_shifted_theta_c",)),
    Mutant("replay-clamp-removed", "engine.py",
           "tokens_used += min(step.tokens_in_chunk, request)",
           "tokens_used += step.tokens_in_chunk", (_ONE_PASS,)),
    Mutant("marker-scanned-in-the-new-chunk-only", "engine.py",
           "update_marker(marker, text[max(0, cut):], tokens_used, mark)",
           "update_marker(marker, step.chunk_text, tokens_used, mark)", (_ONE_PASS,)),
    Mutant("step-kept-through-the-next-pull", "engine.py",
           "            step = None  # frees the last step's arrays before the next step's"
           " are read\n", "",
           ("tests/test_engine.py::TestStepRelease",)),
    # signals.entropy
    Mutant("zero-entries-kept-in-the-log", "signals.py",
           "nz = p if low > 0 else", "nz = p if low >= 0 else",
           ("tests/test_signals.py::TestEntropy::test_equals_the_oracle_bit_for_bit",)),
    # cli and trace_io
    Mutant("array-read-through-a-bytes-copy", "trace_io.py",
           "values = array(\"d\", [0.0]) * count\n"
           "                if f.readinto(values) != count * values.itemsize:",
           "values = array(\"d\", f.read(count * 8))\n"
           "                if len(values) != count:",
           ("tests/test_streaming_replay.py::test_a_step_read_holds_no_copy_of_its_arrays",)),
    Mutant("configs-rebuilt-per-trace", "cli.py",
           "if bits not in engine_cfgs:", "if True:",
           ("tests/test_cli.py::TestReplay::test_one_engine_config_per_method_budget_and_bits",)),
    Mutant("record-stop-cause-unchecked", "trace_io.py",
           "if cause not in (_RUN_OUT if stop is None else (stop,)):", "if False:",
           (f"{_UNREADABLE}[eos-after-a-stop]",
            f"{_UNREADABLE}[controller-stop-after-a-continue]")),
    Mutant("record-tokens-used-unchecked", "trace_io.py",
           "if stop is not None and last[2] != record.tokens_used:", "if False:",
           (f"{_UNREADABLE}[tokens-unlike-the-stop]",)),
)


def _pytest(copy: Path, tests) -> int:
    """pytest's exit code for ``tests`` run inside ``copy`` up to the first failure, with
    no example database, so that every run draws the same examples, and no bytecode
    cache, which keys a file by its mtime in seconds and its size, as a mutant may."""
    shutil.rmtree(copy / ".hypothesis", ignore_errors=True)
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           f"--hypothesis-seed={HYPOTHESIS_SEED}", *tests]
    return subprocess.run(cmd, cwd=copy, env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def run(mutants) -> list:
    """The gate's failures, one line each; empty when the gate passes."""
    failures = []
    with tempfile.TemporaryDirectory(prefix="bithalt-mutants-") as tmp:
        copy = Path(tmp)
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, copy / name, ignore=shutil.ignore_patterns(
                    "__pycache__", ".hypothesis", ".pytest_cache"))
            else:
                shutil.copy2(src, copy / name)
        package = copy / "src" / "bithalt"
        for m in mutants:
            count = (package / m.file).read_text(encoding="utf-8").count(m.old)
            if count != 1:
                failures.append(f"{m.name}: its old text occurs {count} times in {m.file}")
        if failures:
            return failures
        every_test = list(dict.fromkeys(t for m in mutants for t in m.tests))
        start = time.perf_counter()
        code = _pytest(copy, every_test)
        print(f"unmutated: exit {code} ({time.perf_counter() - start:.1f} s)", flush=True)
        if code != 0:
            return [f"unmutated: its tests exit {code}, not 0"]
        for m in mutants:
            path = package / m.file
            original = path.read_text(encoding="utf-8")
            path.write_text(original.replace(m.old, m.new), encoding="utf-8")
            start = time.perf_counter()
            try:
                code = _pytest(copy, m.tests)
            finally:
                path.write_text(original, encoding="utf-8")
            # Exit 1 is a failed test; any other code (an import or usage error) kills nothing.
            verdict = "killed" if code == 1 else "SURVIVED" if code == 0 else f"exit {code}"
            print(f"{m.name}: {verdict} ({time.perf_counter() - start:.1f} s)", flush=True)
            if code != 1:
                failures.append(f"{m.name}: its tests exit {code}, not 1")
    return failures


def main(argv) -> int:
    names = set(argv)
    unknown = names - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutant(s): {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    failures = run([m for m in MUTANTS if not names or m.name in names])
    for line in failures:
        print(f"FAIL {line}", file=sys.stderr)
    print(f"{'failed' if failures else 'passed'} in {time.perf_counter() - start:.1f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
