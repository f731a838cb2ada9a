"""Benchmark of the bithalt evaluation harness, driven through its public CLI.

Run from the repository root (the package need not be installed; ``src`` is
put on PYTHONPATH for every process the benchmark starts):

    python3 perfbench/run.py --workload scenario-grid --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Each run builds its inputs from ``--seed`` outside the timed region, then runs
whole rounds of the workload's ``simulate``/``replay`` and ``report``
commands until ``--seconds`` have passed, and checks every round's records
and ``summary.csv`` against ``oracle.py``. The last line of standard output
is a JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are end to end. With ``--trace 1`` the run
spends half its time on untraced rounds, then runs one round through
``tracer.py`` and reports per-layer metrics for that round, plus the tracing
overhead against the untraced rounds. See README.md for what each metric
means and which end-to-end metric it should move.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import corpus
import oracle

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

COMMAND_TIMEOUT_S = 120


class CommandFailed(RuntimeError):
    pass


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_process(argv, log: Path):
    """Run one process to its end; returns (wall seconds, peak RSS in MB)."""
    with open(log, "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([str(a) for a in argv], stdout=subprocess.DEVNULL,
                                stderr=err, env=_env(), cwd=ROOT)
        watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = log.read_text(errors="replace")[-2000:]
        raise CommandFailed(f"{' '.join(map(str, argv))} exited {proc.returncode}\n{tail}")
    return wall, usage.ru_maxrss / 1024


def measure_setup(log: Path) -> float:
    """Time for a fresh interpreter to import bithalt.cli and build its parser."""
    argv = [sys.executable, "-c", "import bithalt.cli as c; c.build_parser()"]
    return run_process(argv, log)[0]


def _csv(values):
    return ",".join(str(v) for v in values)


class Verdict:
    def __init__(self):
        self.problems = []
        self.failures = []  # known-fault episodes; counted in `failed`
        self.episodes = 0
        self.steps = 0

    def add_records(self, records):
        self.episodes += len(records)
        self.steps += sum(r["steps"] for r in records)


class ScenarioGrid:
    """Method x budget x bit-width sweep over a seeded scenario corpus at k=16."""

    name = "scenario-grid"

    def prepare(self, work: Path, seed: int, log: Path):
        self.scenarios = {s["scenario_id"]: s for s in corpus.grid_corpus(seed)}
        self.dir = work / "scenarios"
        corpus.write_scenarios(self.scenarios.values(), self.dir)
        self.grid = [(m, b) for m in corpus.GRID_METHODS for b in corpus.GRID_BUDGETS]

    def attempted(self) -> int:
        return len(self.scenarios) * len(self.grid) * len(corpus.GRID_BITS)

    def commands(self, out: Path):
        # One output directory per bit width: records carry no bit width, so
        # a second width in the same directory would overwrite the first.
        sims = [("episodes", ["simulate", "--scenarios", self.dir,
                              "--methods", _csv(corpus.GRID_METHODS),
                              "--budgets", _csv(corpus.GRID_BUDGETS), "--bits", bits,
                              "--chunk-size", 16, "--out", out / f"bits{bits}"])
                for bits in corpus.GRID_BITS]
        reports = [("report", ["report", "--out", out / f"bits{bits}"])
                   for bits in corpus.GRID_BITS]
        return sims + reports

    def check(self, out: Path) -> Verdict:
        v = Verdict()
        for bits in corpus.GRID_BITS:
            d = out / f"bits{bits}"
            records = oracle.records_in(d)
            v.add_records(records)
            v.problems += oracle.check_records(records, self.scenarios, bits, 16, self.grid)
            v.problems += oracle.check_summary(d / "summary.csv", records)
        return v


class LongEpisode:
    """A few k=1 episodes of hundreds of steps under the two controllers."""

    name = "long-episode"

    def prepare(self, work: Path, seed: int, log: Path):
        self.scenarios = {s["scenario_id"]: s for s in corpus.long_corpus(seed)}
        self.dir = work / "scenarios"
        corpus.write_scenarios(self.scenarios.values(), self.dir)
        self.grid = [(m, corpus.LONG_BUDGET) for m in corpus.LONG_METHODS]

    def attempted(self) -> int:
        return len(self.scenarios) * len(self.grid)

    def commands(self, out: Path):
        return [
            ("episodes", ["simulate", "--scenarios", self.dir,
                          "--methods", _csv(corpus.LONG_METHODS),
                          "--budgets", corpus.LONG_BUDGET, "--bits", corpus.LONG_BITS,
                          "--chunk-size", 1, "--out", out / "k1"]),
            ("report", ["report", "--out", out / "k1"]),
        ]

    def check(self, out: Path) -> Verdict:
        v = Verdict()
        records = oracle.records_in(out / "k1")
        v.add_records(records)
        v.problems += oracle.check_records(records, self.scenarios, corpus.LONG_BITS, 1,
                                           self.grid)
        v.problems += oracle.check_summary(out / "k1" / "summary.csv", records)
        return v


class ReplayVocab:
    """Counterfactual replay of 32k-vocabulary traces, plus one off-grid budget."""

    name = "replay-vocab"

    def prepare(self, work: Path, seed: int, log: Path):
        self.scenarios = {s["scenario_id"]: s for s in corpus.replay_corpus(seed)}
        self.offgrid = {s["scenario_id"]: s for s in corpus.offgrid_corpus()}
        self.chunks = {sid: [(t, n) for t, n, _ in corpus.stream_chunks(s, 16)]
                       for sid, s in self.offgrid.items()}
        scenario_dir = work / "scenarios"
        corpus.write_scenarios(self.scenarios.values(), scenario_dir)
        run_process([sys.executable, BENCH / "corpus.py", seed, work], log)
        self.traces, self.offgrid_traces = work / "traces", work / "offgrid"
        self.grid = [(m, b) for m in corpus.GRID_METHODS for b in corpus.REPLAY_BUDGETS]
        # Simulating the same scenarios gives the records replay must equal.
        reference = work / "reference"
        run_process([sys.executable, "-m", "bithalt.cli", "simulate",
                     "--scenarios", scenario_dir, "--methods", _csv(corpus.GRID_METHODS),
                     "--budgets", _csv(corpus.REPLAY_BUDGETS), "--bits", corpus.REPLAY_BITS,
                     "--chunk-size", 16, "--out", reference], log)
        self.reference = oracle.records_in(reference)
        self.reference_problems = oracle.check_records(
            self.reference, self.scenarios, corpus.REPLAY_BITS, 16, self.grid)

    def attempted(self) -> int:
        return len(corpus.GRID_METHODS) * (len(self.scenarios) * len(corpus.REPLAY_BUDGETS)
                                           + len(self.offgrid))

    def commands(self, out: Path):
        common = ["--methods", _csv(corpus.GRID_METHODS), "--bits", corpus.REPLAY_BITS,
                  "--chunk-size", 16]
        return [
            ("episodes", ["replay", "--traces", self.traces, *common,
                          "--budgets", _csv(corpus.REPLAY_BUDGETS), "--out", out / "grid"]),
            ("episodes", ["replay", "--traces", self.offgrid_traces, *common,
                          "--budgets", corpus.REPLAY_OFFGRID_BUDGET, "--out", out / "offgrid"]),
            ("report", ["report", "--out", out / "grid"]),
            ("report", ["report", "--out", out / "offgrid"]),
        ]

    def check(self, out: Path) -> Verdict:
        v = Verdict()
        v.problems += self.reference_problems
        records = oracle.records_in(out / "grid")
        v.add_records(records)
        v.problems += oracle.check_records(records, self.scenarios, corpus.REPLAY_BITS, 16,
                                           self.grid)
        v.problems += oracle.check_replay_equals_simulate(records, self.reference)
        v.problems += oracle.check_summary(out / "grid" / "summary.csv", records)

        records = oracle.records_in(out / "offgrid")
        v.add_records(records)
        problems, v.failures = oracle.check_offgrid(
            records, self.offgrid, self.chunks, corpus.GRID_METHODS, corpus.REPLAY_BITS,
            corpus.REPLAY_OFFGRID_BUDGET, 16, corpus.OFFGRID_CROSSING)
        v.problems += problems
        v.problems += oracle.check_summary(out / "offgrid" / "summary.csv", records)
        return v


WORKLOADS = {w.name: w for w in (ScenarioGrid, LongEpisode, ReplayVocab)}


class Round:
    def __init__(self, out, episode_s, report_s, rss_mb, spans):
        self.out, self.episode_s, self.report_s = out, episode_s, report_s
        self.rss_mb, self.spans = rss_mb, spans
        self.verdict = None

    @property
    def wall_s(self):
        return self.episode_s + self.report_s


def run_round(wl, out: Path, spans_dir: Path, traced: bool, log: Path,
              setups=None) -> Round:
    """One whole round of the workload's commands, writing under ``out``.

    With a ``setups`` list, one set-up time is appended after each command,
    so that the samples spread over the whole run.
    """
    out.mkdir(parents=True)
    episode_s = report_s = rss = 0.0
    spans = []
    for i, (kind, args) in enumerate(wl.commands(out)):
        if traced:
            span_file = spans_dir / f"spans-{i}.json"
            argv = [sys.executable, BENCH / "tracer.py", span_file, "--", *args]
        else:
            argv = [sys.executable, "-m", "bithalt.cli", *args]
        wall, mb = run_process(argv, log)
        if kind == "episodes":
            episode_s += wall
        else:
            report_s += wall
        rss = max(rss, mb)
        if setups is not None:
            setups.append(measure_setup(log))
        if traced:
            spans.append(json.loads(span_file.read_text()))
    return Round(out, episode_s, report_s, rss, spans)


def end_to_end(rounds, setup_s: float) -> dict:
    # Totals over the run rather than medians of rounds: the host's speed
    # switches between phases within a run, and a median of a few rounds
    # jumps between phases where the totals move smoothly with their mix.
    episode_s = sum(r.episode_s for r in rounds)
    return {
        "setup_s": (setup_s, "s"),
        "episodes_per_s": (sum(r.verdict.episodes for r in rounds) / episode_s, "episodes/s"),
        "steps_per_s": (sum(r.verdict.steps for r in rounds) / episode_s, "steps/s"),
        "report_s": (sum(r.report_s for r in rounds) / len(rounds), "s"),
        "peak_rss_mb": (max(r.rss_mb for r in rounds), "MB"),
    }


def _union_ns(intervals) -> int:
    total, end = 0, None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def per_layer(spans, overhead_pct: float) -> dict:
    """Per-layer metrics of one traced round; names absent from the spans read 0."""
    totals = {}
    for s in spans:
        for name, row in s["totals"].items():
            acc = totals.setdefault(name, [0, 0, 0, 0.0])
            for i, value in enumerate(row):
                acc[i] += value
    episodes = [e for s in spans for e in s["episodes"]]
    trace_steps = sum(s["trace_steps"] for s in spans)

    def row(name):
        return totals.get(name, [0, 0, 0, 0.0])

    def calls(name):
        return row(name)[0]

    def self_us(name):
        return row(name)[1] / 1e3

    def seconds(name):
        return row(name)[2] / 1e9

    def per_call(name):
        return row(name)[3] / calls(name) if calls(name) else 0.0

    def rate(name):
        return row(name)[3] / seconds(name) if seconds(name) else 0.0

    durations = sorted(e[2] / 1e6 for e in episodes)  # thread CPU time per episode
    q1_n, q4_n = sum(e[5] for e in episodes), sum(e[7] for e in episodes)
    busy = sum(_union_ns([(e[0], e[1]) for e in s["episodes"]]) for s in spans)

    def cli_s(command):
        return sum(s["main_ns"] for s in spans if s["command"] == command) / 1e9

    m = {
        "signals.hidden_stability.calls": (calls("signals.hidden_stability"), "count"),
        "signals.hidden_stability.vectors_per_call": (per_call("signals.hidden_stability"),
                                                      "vectors"),
        "signals.hidden_stability.self_us": (self_us("signals.hidden_stability"), "us"),
        "signals.trace_stability.calls": (calls("signals.trace_stability"), "count"),
        "signals.trace_stability.chunks_per_call": (per_call("signals.trace_stability"),
                                                    "chunks"),
        "signals.trace_stability.self_us": (self_us("signals.trace_stability"), "us"),
        "signals.from_histories.self_us": (self_us("signals.from_histories"), "us"),
        "signals.entropy.calls": (calls("signals.entropy"), "count"),
        "signals.entropy.self_us": (self_us("signals.entropy"), "us"),
        "signals.entropy.calls_per_step": (
            calls("signals.entropy") / trace_steps if trace_steps else 0.0, "calls/step"),
        "calibrate.confidence.calls": (calls("calibrate.confidence"), "count"),
        "calibrate.confidence.self_us": (self_us("calibrate.confidence"), "us"),
        "policy.decide.calls": (calls("policy.decide"), "count"),
        "policy.decide.self_us": (self_us("policy.decide"), "us"),
        "policy.update_marker.calls": (calls("policy.update_marker"), "count"),
        "policy.update_marker.chars_per_call": (per_call("policy.update_marker"), "chars"),
        "policy.update_marker.self_us": (self_us("policy.update_marker"), "us"),
        "engine.episodes": (len(episodes), "count"),
        "engine.steps": (sum(e[3] for e in episodes), "count"),
        "engine.run_episode.self_ms": (self_us("engine.run_episode") / 1e3, "ms"),
        "engine.episode_ms.p50": (statistics.median(durations) if durations else 0.0, "ms"),
        # A 99th percentile needs at least ten episodes beyond it.
        "engine.episode_ms.p99": (
            durations[math.ceil(0.99 * len(durations)) - 1] if len(durations) >= 1000 else 0.0,
            "ms"),
        "engine.step_us.q1": (sum(e[4] for e in episodes) / q1_n / 1e3 if q1_n else 0.0, "us"),
        "engine.step_us.q4": (sum(e[6] for e in episodes) / q4_n / 1e3 if q4_n else 0.0, "us"),
        "simulate.next_chunk.calls": (calls("simulate.next_chunk"), "count"),
        "simulate.next_chunk.self_us": (self_us("simulate.next_chunk"), "us"),
        "simulate.load_scenario_dir.s": (seconds("simulate.load_scenario_dir"), "s"),
        "trace_io.read_trace.s": (seconds("trace_io.read_trace"), "s"),
        "trace_io.read_trace.mb": (row("trace_io.read_trace")[3], "MB"),
        "trace_io.read_trace.mb_per_s": (rate("trace_io.read_trace"), "MB/s"),
        "trace_io.write_records.s": (seconds("trace_io.write_records"), "s"),
        "trace_io.write_records.mb": (row("trace_io.write_records")[3], "MB"),
        "trace_io.read_records.s": (seconds("trace_io.read_records"), "s"),
        "trace_io.read_records.mb_per_s": (rate("trace_io.read_records"), "MB/s"),
        "metrics.summarize_all.s": (seconds("metrics.summarize_all"), "s"),
        "metrics.emit_summary_table.s": (seconds("metrics.emit_summary_table"), "s"),
        "metrics.records": (row("metrics.summarize_all")[3], "count"),
        "cli.simulate.s": (cli_s("simulate"), "s"),
        "cli.replay.s": (cli_s("replay"), "s"),
        "cli.report.s": (cli_s("report"), "s"),
        # Thread CPU time inside run_episode over the time any episode was in
        # flight: interleaving under the interpreter lock does not count.
        "cli.episode_concurrency": (sum(e[2] for e in episodes) / busy if busy else 0.0, "x"),
        "trace.overhead_pct": (overhead_pct, "%"),
    }
    return m


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[name]()
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "spans").mkdir(parents=True)
    log = work / "stderr.log"
    try:
        wl.prepare(work, seed, log)
        rounds, setups = [], None if trace else []
        budget = seconds / 2 if trace else seconds
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < budget:
            rounds.append(run_round(wl, work / f"round{len(rounds)}", work / "spans", False,
                                    log, setups))
        traced = None
        if trace:
            traced = run_round(wl, work / "traced", work / "spans", True, log)
        everything = rounds + ([traced] if traced else [])
        # Taken before the checks load any records: every child's RSS reading
        # starts from this process's peak, so it must stay under theirs.
        self_rss = _self_rss_mb()
        for r in everything:
            r.verdict = wl.check(r.out)
        verdicts = [r.verdict for r in everything]
        problems = [p for v in verdicts for p in v.problems]
        result = {
            "workload": name,
            "rounds": everything,
            "correct": not problems,
            "attempted": wl.attempted() * len(verdicts),
            "failed": sum(len(v.failures) for v in verdicts),
            "problems": problems,
            "failures": verdicts[0].failures,
            "rss_self_mb": self_rss,
        }
        if trace:
            untraced = statistics.median(r.wall_s for r in rounds)
            overhead = 100.0 * (traced.wall_s / untraced - 1.0)
            result["metrics"] = per_layer(traced.spans, overhead)
        else:
            result["metrics"] = end_to_end(rounds, statistics.median(setups))
            result["setup_samples"] = len(setups)
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _print_result(r: dict) -> None:
    print(f"{r['workload']}: {len(r['rounds'])} rounds, attempted {r['attempted']}, "
          f"failed {r['failed']}, correct {str(r['correct']).lower()}")
    for i, rd in enumerate(r["rounds"]):
        print(f"  round {i}{' (traced)' if rd.spans else ''}: {rd.verdict.episodes} episodes, "
              f"{rd.verdict.steps} steps in {rd.episode_s:.3f} s; report {rd.report_s:.3f} s; "
              f"peak RSS {rd.rss_mb:.1f} MB")
    for name, (value, unit) in r["metrics"].items():
        print(f"  {name} = {value:.6g} {unit}")
    if "setup_samples" in r:
        print(f"  setup_s is the median of {r['setup_samples']} samples, one after each command")
    if r["failed"]:
        print(f"  known failures per round ({len(r['failures'])}):")
        for f in r["failures"]:
            print(f"    {f}")
    for p in r["problems"][:20]:
        print(f"  problem: {p}")
    print(f"  benchmark process peak RSS while commands ran = {r['rss_self_mb']:.1f} MB")


def _json_line(correct, attempted, failed, metrics) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bithalt" / "cli.py").is_file():
        print(f"error: no bithalt sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    try:
        r = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except CommandFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _print_result(r)
    print(_json_line(r["correct"], r["attempted"], r["failed"], r["metrics"]))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh benchmark process, whose footprint then stays
    under its children's; one combined JSON line at the end."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print(proc.stdout, end="")
            return proc.returncode
        *report, last = proc.stdout.splitlines()
        print("\n".join(report))
        result = json.loads(last)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
