"""Replay is example-major: each trace is parsed, run under every cell and
dropped before the next one is parsed, so memory holds one trace's steps and a
body that fails to parse is found mid-run."""

import shutil
import tracemalloc

from bithalt import cli
from bithalt.signals import StepSignals
from bithalt.trace_io import TraceMeta, read_records, write_trace

VOCAB = 16384  # 128 KiB of float64 per step's probs
STEPS = 8


def write_probs_traces(directory, n):
    directory.mkdir()
    probs = [1.0 / VOCAB] * VOCAB
    for i in range(n):
        steps = [StepSignals(chunk_text=f"thinking {i} {j}\n", tokens_in_chunk=16,
                             distribution=probs) for j in range(STEPS - 1)]
        steps.append(StepSignals(chunk_text="#### 42\n", tokens_in_chunk=8,
                                 distribution=probs, eos=True))
        write_trace(TraceMeta(example_id=f"t{i}", gold_answer=42.0), steps,
                    directory / f"t{i}.jsonl")
    return directory


def peak_replay_bytes(traces, out):
    tracemalloc.start()
    try:
        assert cli.main(["replay", "--traces", str(traces), "--out", str(out)]) == 0
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
    peak_two = peak_replay_bytes(two, tmp_path / "o2")
    peak_eight = peak_replay_bytes(eight, tmp_path / "o8")
    # Holding every trace's steps would take about 1 MiB more per trace.
    assert peak_eight <= 1.25 * peak_two, (peak_two, peak_eight)


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


def test_a_bad_body_mid_run_skips_that_trace_in_every_cell(tmp_path, monkeypatch, capsys):
    traces = write_text_traces(tmp_path / "traces", 3)
    break_body(traces / "t1.jsonl")
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
    assert captured.err.startswith(f"error: {traces / 't1.jsonl'}:5: invalid JSON")
    assert len(captured.err.splitlines()) == 1
    # Found mid-run: t0 has run in all six cells before t1's body is parsed.
    assert events == [("parse", "t0"), *[("run", "t0")] * 6, ("parse", "t1"),
                      ("parse", "t2"), *[("run", "t2")] * 6]
    record_files = sorted(out.glob("records_*.jsonl"))
    assert len(record_files) == 6
    for path in record_files:
        assert [r.example_id for r in read_records(path)[1]] == ["t0", "t2"]
    assert (out / "run_meta.json").exists()
    assert captured.out == ""  # only report prints, and replay does not run it


def test_every_trace_failing_writes_nothing_and_exits_2(tmp_path, capsys):
    traces = write_text_traces(tmp_path / "traces", 3)
    for i in range(3):
        break_body(traces / f"t{i}.jsonl", lineno=3 + i)
    out = tmp_path / "out"
    assert cli.main(["replay", "--traces", str(traces), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert [line.split(": ")[1] for line in err[:3]] == [
        f"{traces / f't{i}.jsonl'}:{3 + i}" for i in range(3)]
    assert err[3:] == ["error: every trace file failed to parse"]
    assert captured.out == ""
    assert not list(out.glob("records_*.jsonl")) and not (out / "run_meta.json").exists()
