"""Run one ``bithalt`` CLI command with per-layer spans recorded from outside.

Usage: python3 perfbench/tracer.py SPANS.json -- <bithalt arguments>

Before the command runs, the public names of each layer are replaced, where
their callers look them up, by wrappers that time every call. Nothing inside
``src/bithalt`` changes. A name that does not exist (a later version removed
or renamed it) is skipped and reports zero calls.

Spans live in memory, one stack and one table per thread, because the CLI
runs episodes on a thread pool. A span's self time is its thread CPU time
minus that of the wrapped spans it encloses; CPU time rather than wall time,
so that time a pool thread spends waiting for the interpreter lock while the
other thread runs is not charged to the layer it waits in. Step-level calls
are folded into per-name totals as they end; episode spans are kept whole.
Everything is written to SPANS.json when the command returns.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import threading
import time
from pathlib import Path

_ns = time.perf_counter_ns
_cpu = time.thread_time_ns


def _file_mb(path) -> float:
    try:
        return os.path.getsize(path) / 1e6
    except (OSError, TypeError):
        return 0.0


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


def _len_arg(index, name):
    return lambda args, kwargs, result: len(_arg(args, kwargs, index, name) or ())


def _mb_arg(index, name):
    return lambda args, kwargs, result: _file_mb(_arg(args, kwargs, index, name))


# (module, attribute, span name, units measured per call). An attribute
# "Class.method" wraps the function on the class.
TARGETS = (
    ("bithalt.engine", "decide", "policy.decide", None),
    ("bithalt.engine", "update_marker", "policy.update_marker", _len_arg(1, "full_text")),
    ("bithalt.engine", "confidence", "calibrate.confidence", None),
    ("bithalt.signals", "hidden_stability", "signals.hidden_stability", _len_arg(0, "hiddens")),
    ("bithalt.signals", "trace_stability", "signals.trace_stability", _len_arg(0, "chunks")),
    ("bithalt.signals", "entropy", "signals.entropy", None),
    ("bithalt.signals", "SignalReadout.from_histories", "signals.from_histories", None),
    ("bithalt.simulate", "ScenarioSource.next_chunk", "simulate.next_chunk", None),
    ("bithalt.trace_io", "ReplaySource.next_chunk", "trace_io.next_chunk", None),
    ("bithalt.cli", "run_episode", "engine.run_episode", None),
    ("bithalt.cli", "read_trace", "trace_io.read_trace", _mb_arg(0, "path")),
    ("bithalt.cli", "write_records", "trace_io.write_records", _mb_arg(1, "path")),
    ("bithalt.cli", "read_records", "trace_io.read_records", _mb_arg(0, "path")),
    ("bithalt.cli", "summarize_all", "metrics.summarize_all", _len_arg(0, "records")),
    ("bithalt.cli", "emit_summary_table", "metrics.emit_summary_table", None),
    ("bithalt.cli", "load_scenario_dir", "simulate.load_scenario_dir", None),
)

_STEP_SOURCES = {"simulate.next_chunk", "trace_io.next_chunk"}


class _ThreadState:
    def __init__(self):
        self.stack = []      # child time accumulated by each open span
        self.totals = {}     # name -> [calls, self_cpu_ns, wall_ns, units]
        self.episodes = []   # [start_ns, end_ns, cpu_ns, steps, q1_ns, q1_n, q4_ns, q4_n]
        self.step_starts = None  # thread CPU times of the open episode's next_chunk calls
        self.trace_steps = 0     # parsed trace steps that carry a distribution


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads = []

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = self._local.state = _ThreadState()
            with self._lock:
                self._threads.append(st)
        return st

    def wrap(self, name, fn, measure=None):
        tracer = self

        def traced(*args, **kwargs):
            st = tracer._state()
            episode = name == "engine.run_episode"
            if episode:
                st.step_starts = []
            st.stack.append(0)
            start, cpu_start = _ns(), _cpu()
            if name in _STEP_SOURCES and st.step_starts is not None:
                st.step_starts.append(cpu_start)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                cpu = _cpu() - cpu_start
                end = _ns()
                child = st.stack.pop()
                if st.stack:
                    st.stack[-1] += cpu
                row = st.totals.setdefault(name, [0, 0, 0, 0.0])
                row[0] += 1
                row[1] += cpu - child
                row[2] += end - start
                if measure is not None:
                    row[3] += measure(args, kwargs, result)
                if name == "trace_io.read_trace" and result is not None:
                    st.trace_steps += sum(getattr(step, "distribution", None) is not None
                                          for step in result[1])
                if episode:
                    st.episodes.append([start, end, cpu, getattr(result, "steps", 0),
                                        *_quarters(st.step_starts)])
                    st.step_starts = None

        return traced

    def install(self):
        for module_name, attr, name, measure in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            owner, _, method = attr.rpartition(".")
            holder = getattr(module, owner, None) if owner else module
            if holder is None:
                continue
            raw = holder.__dict__.get(method) if owner else getattr(holder, method, None)
            if raw is None:
                continue
            if isinstance(raw, classmethod):
                setattr(holder, method, classmethod(self.wrap(name, raw.__func__, measure)))
            else:
                setattr(holder, method, self.wrap(name, raw, measure))

    def dump(self) -> dict:
        totals, episodes, trace_steps = {}, [], 0
        with self._lock:
            threads = list(self._threads)
        for st in threads:
            for name, row in st.totals.items():
                acc = totals.setdefault(name, [0, 0, 0, 0.0])
                for i, value in enumerate(row):
                    acc[i] += value
            episodes.extend(st.episodes)
            trace_steps += st.trace_steps
        return {"totals": totals, "episodes": episodes, "trace_steps": trace_steps}


def _quarters(starts):
    """Summed intervals between consecutive calls in the first and last quarter."""
    gaps = [b - a for a, b in zip(starts, starts[1:])]
    q = len(gaps) // 4
    if q < 1:
        return [0, 0, 0, 0]
    return [sum(gaps[:q]), q, sum(gaps[-q:]), q]


def main(argv) -> int:
    out, sep, cli_args = argv[0], argv[1], argv[2:]
    if sep != "--":
        print("usage: tracer.py SPANS.json -- <bithalt arguments>", file=sys.stderr)
        return 1
    tracer = Tracer()
    tracer.install()
    from bithalt import cli

    start = _ns()
    code = cli.main(cli_args)
    spans = tracer.dump()
    spans["command"] = cli_args[0]
    spans["main_ns"] = _ns() - start
    Path(out).write_text(json.dumps(spans))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
