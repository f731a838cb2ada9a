"""Replay is example-major and step by step: each trace is checked whole, run
under every cell and dropped before the next one is read, and a trace/v3 step's
arrays are read from the file only when the pass reaches that step. So memory
holds one step's arrays, a header or body that fails to parse is found mid-run, a
trace's header and steps come from the one read of it, and a file changed after its
check errors the cells still running on it. report streams records the same way:
it holds one record and the outcome rows, not a record file."""

import os
import shutil
import tracemalloc

import pytest

from bithalt import cli, trace_io
from bithalt.engine import EngineConfig, Method, run_episodes
from bithalt.signals import StepSignals
from bithalt.trace_io import (ReplaySource, TraceMeta, read_records, read_trace, write_records,
                              write_trace)
from test_trace_io import sample_record

VOCAB = 16384  # 128 KiB of float64 per step's probs
STEPS = 8


def write_probs_traces(directory, n, length=STEPS):
    directory.mkdir()
    probs = [1.0 / VOCAB] * VOCAB
    for i in range(n):
        steps = [StepSignals(chunk_text=f"thinking {i} {j}\n", tokens_in_chunk=16,
                             distribution=probs) for j in range(length - 1)]
        steps.append(StepSignals(chunk_text="#### 42\n", tokens_in_chunk=8,
                                 distribution=probs, eos=True))
        write_trace(TraceMeta(example_id=f"t{i}", gold_answer=42.0), steps,
                    directory / f"t{i}.jsonl")
    return directory


def peak_bytes(command, flag, inputs, out):
    """The traced peak of ``bithalt <command> <flag> <inputs> --out <out>``, which must exit 0."""
    tracemalloc.start()
    try:
        assert cli.main([command, flag, str(inputs), "--out", str(out)]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_peak_memory_does_not_grow_with_the_corpus(tmp_path):
    eight = write_probs_traces(tmp_path / "eight", 8)
    two = tmp_path / "two"
    two.mkdir()
    for name in ("t0.jsonl", "t1.jsonl"):
        shutil.copy(eight / name, two / name)
    # The warm-up loads numpy and fills every cache outside the measurement.
    assert cli.main(["replay", "--traces", str(two), "--out", str(tmp_path / "warm")]) == 0
    peak_two = peak_bytes("replay", "--traces", two, tmp_path / "o2")
    peak_eight = peak_bytes("replay", "--traces", eight, tmp_path / "o8")
    # Holding every trace's steps would take about 1 MiB more per trace.
    assert peak_eight <= 1.25 * peak_two, (peak_two, peak_eight)


def test_peak_memory_does_not_grow_with_the_trace(tmp_path):
    short = write_probs_traces(tmp_path / "short", 1)
    long = write_probs_traces(tmp_path / "long", 1, length=4 * STEPS)
    assert cli.main(["replay", "--traces", str(short), "--out", str(tmp_path / "warm")]) == 0
    peak_short = peak_bytes("replay", "--traces", short, tmp_path / "o8")
    peak_long = peak_bytes("replay", "--traces", long, tmp_path / "o32")
    # Holding a trace's arrays would take 128 KiB more per step: 3 MiB more here.
    assert peak_long <= 1.25 * peak_short, (peak_short, peak_long)


def write_k1_records(directory, n):
    """A record file of ``n`` k=1-sized records: 300 actions and 9 KB of text each."""
    directory.mkdir()
    actions = (*[("continue", "floor", t) for t in range(1, 300)], ("stop", "tail_stop", 300))
    write_records([sample_record(i, tokens_used=300, steps=300, actions=actions,
                                 generated_text="x" * 9_000 + " #### 42") for i in range(n)],
                  directory / "records_bitcal_b512.jsonl")
    return directory


def test_report_memory_does_not_grow_with_the_record_file(tmp_path, capsys):
    eight = write_k1_records(tmp_path / "eight", 8)
    thirty_two = write_k1_records(tmp_path / "thirty_two", 32)
    # The warm-up loads the metrics layer and fills every cache outside the measurement.
    assert cli.main(["report", "--records", str(eight), "--out", str(tmp_path / "warm")]) == 0
    peak_eight = peak_bytes("report", "--records", eight, tmp_path / "o8")
    peak_thirty_two = peak_bytes("report", "--records", thirty_two, tmp_path / "o32")
    # Holding the file's records would take about 65 KB more per record: 1.6 MB more here.
    assert peak_thirty_two <= 1.25 * peak_eight, (peak_eight, peak_thirty_two)


def write_text_traces(directory, n):
    directory.mkdir()
    steps = [StepSignals(chunk_text=f"thinking {j}\n", tokens_in_chunk=16, entropy=3.0)
             for j in range(10)]
    steps.append(StepSignals(chunk_text="#### 42\n", tokens_in_chunk=8, entropy=0.5, eos=True))
    for i in range(n):
        write_trace(TraceMeta(example_id=f"t{i}", gold_answer=42.0), steps,
                    directory / f"t{i}.jsonl")
    return directory


def break_body(path, lineno=5):
    lines = path.read_text().splitlines()
    lines[lineno - 1] = "{broken"
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("lineno", [1, 5])  # the header, or a step
def test_a_bad_body_mid_run_skips_that_trace_in_every_cell(tmp_path, monkeypatch, capsys,
                                                            lineno):
    traces = write_text_traces(tmp_path / "traces", 3)
    break_body(traces / "t1.jsonl", lineno)
    events = []
    real_read, real_pass = cli.read_trace, cli.run_episodes
    monkeypatch.setattr(cli, "read_trace",
                        lambda path: events.append(("parse", path.stem)) or real_read(path))
    monkeypatch.setattr(cli, "run_episodes", lambda source, cfgs, **kw: events.extend(
        [("run", kw["example_id"])] * len(cfgs)) or real_pass(source, cfgs, **kw))
    out = tmp_path / "out"
    assert cli.main(["replay", "--traces", str(traces), "--budgets", "256,512",
                     "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {traces / 't1.jsonl'}:{lineno}: invalid JSON")
    assert len(captured.err.splitlines()) == 1
    # Found mid-run: t0 has run in all six cells before t1 is parsed.
    assert events == [("parse", "t0"), *[("run", "t0")] * 6, ("parse", "t1"),
                      ("parse", "t2"), *[("run", "t2")] * 6]
    record_files = sorted(out.glob("records_*.jsonl"))
    assert len(record_files) == 6
    for path in record_files:
        assert [r.example_id for r in read_records(path)[1]] == ["t0", "t2"]
    assert (out / "run_meta.json").exists()
    assert captured.out == ""  # only report prints, and replay does not run it


def test_a_bad_setting_exits_1_before_any_episode_runs(tmp_path, monkeypatch, capsys):
    traces = write_text_traces(tmp_path / "traces", 2)
    break_body(traces / "t0.jsonl", lineno=1)
    runs = []
    monkeypatch.setattr(cli, "run_episodes", lambda *a, **kw: runs.append(a))
    out = tmp_path / "out"
    assert cli.main(["replay", "--traces", str(traces), "--chunk-size", "0",
                     "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    # t0's header error comes first, at its turn, then the setting's, before t1 runs.
    assert err[0].startswith(f"error: {traces / 't0.jsonl'}:1: invalid JSON")
    assert err[1:] == ["error: chunk_size must be >= 1"]
    assert runs == [] and not out.exists()


def test_every_trace_failing_writes_nothing_and_exits_2(tmp_path, capsys):
    traces = write_text_traces(tmp_path / "traces", 3)
    for i in range(3):
        break_body(traces / f"t{i}.jsonl", lineno=3 + i)
    out = tmp_path / "out"
    # No trace reaches a bit width, so the bad setting is never checked.
    assert cli.main(["replay", "--traces", str(traces), "--chunk-size", "0",
                     "--out", str(out)]) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert [line.split(": ")[1] for line in err[:3]] == [
        f"{traces / f't{i}.jsonl'}:{3 + i}" for i in range(3)]
    assert err[3:] == ["error: every trace file failed to parse"]
    assert captured.out == ""
    assert not list(out.glob("records_*.jsonl")) and not (out / "run_meta.json").exists()


def truncate(path):
    """Cut into the last step's hidden vector."""
    os.truncate(path, path.read_bytes().rindex(b'{"step": 4') - 8)


def rewrite_in_place(path):
    """The file's bytes reversed, written over it in the same inode."""
    data = path.read_bytes()
    with open(path, "r+b") as f:
        f.write(data[::-1])


@pytest.mark.parametrize("change", [truncate, rewrite_in_place])
def test_a_file_changed_under_replay_errors_the_running_cells(tmp_path, monkeypatch, change):
    probs = [0.5, 0.25, 0.25]
    steps = [StepSignals(chunk_text=f"thinking {j}\n", tokens_in_chunk=16, entropy=1.0)
             for j in range(3)]
    steps += [StepSignals(chunk_text="more\n", tokens_in_chunk=16, distribution=probs,
                          hidden=[1.0, 0.0]),
              StepSignals(chunk_text="#### 42\n", tokens_in_chunk=8, entropy=0.5, eos=True)]
    path = tmp_path / "t.jsonl"
    write_trace(TraceMeta(example_id="t", gold_answer=42.0), steps, path)
    os.utime(path, ns=(10**18, 10**18))  # so a rewrite now gives another mtime
    before = os.stat(path).st_ino
    _, got = read_trace(path)
    change(path)  # after the check, before the pass reaches step 3, the first with arrays
    assert os.stat(path).st_ino == before
    opened = []
    monkeypatch.setattr(trace_io, "open", lambda *a: opened.append(open(*a)) or opened[-1],
                        raising=False)
    records = run_episodes(ReplaySource(got), [EngineConfig(m, 512) for m in Method],
                           gold=42.0, example_id="t")
    assert opened and all(f.closed for f in opened)
    for record in records:  # every cell was still running: each read steps 0-2
        assert (record.tokens_used, record.steps, record.stop_cause) == (48, 3, "eos")
        assert record.error == f"TraceParseError: {path}:5: file changed since it was read"


def test_one_read_per_trace(tmp_path, monkeypatch):
    traces = write_text_traces(tmp_path / "traces", 3)
    reads = []
    real = trace_io._read_jsonl
    monkeypatch.setattr(trace_io, "_read_jsonl",
                        lambda path, schema: reads.append(path.name) or real(path, schema))
    assert cli.main(["replay", "--traces", str(traces), "--out", str(tmp_path / "out")]) == 0
    assert reads == ["t0.jsonl", "t1.jsonl", "t2.jsonl"]


def test_a_trace_replaced_mid_run_is_scored_against_its_new_header(tmp_path, monkeypatch):
    # The header and the steps come from one read, so a trace rewritten before its turn
    # is scored whole as it is then, never against a header read before the run.
    traces = tmp_path / "traces"
    traces.mkdir()
    thinking = [StepSignals(chunk_text=f"thinking {j}\n", tokens_in_chunk=16, entropy=3.0)
                for j in range(3)]
    for name in ("a", "b"):
        write_trace(TraceMeta(example_id=name, gold_answer=42.0), thinking + [
            StepSignals(chunk_text="#### 42\n", tokens_in_chunk=8, entropy=0.5, eos=True)],
            traces / f"{name}.jsonl")
    real_pass = cli.run_episodes

    def rewrite_b_while_a_runs(source, cfgs, **kw):
        if kw["example_id"] == "a":
            write_trace(TraceMeta("b2", 7.0), thinking + [
                StepSignals(chunk_text="#### 7\n", tokens_in_chunk=8, entropy=0.5, eos=True)],
                traces / "b.jsonl")
        return real_pass(source, cfgs, **kw)
    monkeypatch.setattr(cli, "run_episodes", rewrite_b_while_a_runs)
    out = tmp_path / "out"
    assert cli.main(["replay", "--traces", str(traces), "--out", str(out)]) == 0
    for method in Method:
        a, b = read_records(out / f"records_{method.value}_b512.jsonl")[1]
        assert a.example_id == "a" and a.correct is True
        assert (b.example_id, b.gold_answer, b.correct) == ("b2", 7.0, True)
