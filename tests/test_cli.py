import argparse
import csv
import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from bithalt import cli, signals
from bithalt.cli import (
    CONFIG_FIELDS,
    DEFAULTS,
    VALID_METHODS,
    build_engine_config,
    build_parser,
    main,
    resolve_config,
)
from bithalt.engine import EngineConfig, Method
from bithalt.metrics import SUMMARY_COLUMNS
from bithalt.signals import StepSignals
from bithalt.simulate import SCENARIO_DIR, ScenarioSource, scenario_suite_canonical
from bithalt.trace_io import TraceMeta, read_records, read_trace, write_records, write_trace
from test_trace_io import sample_record


def run_cli(*argv):
    return main(list(argv))


def make_trace_dir(tmp_path, n=3):
    traces = tmp_path / "traces"
    traces.mkdir()
    for i in range(n):
        steps = [
            StepSignals(chunk_text=f"thinking {j}\n", tokens_in_chunk=16, entropy=3.0)
            for j in range(10)
        ] + [StepSignals(chunk_text="#### 42\n", tokens_in_chunk=8, entropy=0.5, eos=True)]
        meta = TraceMeta(example_id=f"gsm-{i:04d}", gold_answer=42.0, model="7b",
                        served_bits=4)
        write_trace(meta, steps, traces / f"gsm-{i:04d}.jsonl")
    return traces


def write_scenario_traces(traces, scenarios):
    """Drain each scenario at k=16 into a 4-bit trace, as a served model would log it."""
    traces.mkdir()
    for s in scenarios:
        source = ScenarioSource(s)
        steps = list(iter(lambda: source.next_chunk(16), None))
        meta = TraceMeta(example_id=s.scenario_id, gold_answer=s.gold_answer, model="sim",
                         served_bits=4)
        write_trace(meta, steps, traces / f"{s.scenario_id}.jsonl")
    return traces


def write_header_bits_traces(traces):
    """marker-then-revision drained at k=16 into traces with 4-, 8- and 16-bit headers."""
    scenario = next(s for s in scenario_suite_canonical()
                    if s.scenario_id == "marker-then-revision")
    source = ScenarioSource(scenario)
    steps = list(iter(lambda: source.next_chunk(16), None))
    traces.mkdir()
    for bits in (4, 8, 16):
        meta = TraceMeta(example_id=f"b{bits:02d}", gold_answer=scenario.gold_answer,
                         model="sim", served_bits=bits)
        write_trace(meta, steps, traces / f"b{bits:02d}.jsonl")
    return traces


class TestSimulate:
    def test_default_suite_three_record_files(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("simulate", "--out", str(out)) == 0
        files = sorted(p.name for p in out.glob("records_*.jsonl"))
        assert files == ["records_adaptive_b512.jsonl", "records_bitcal_b512.jsonl",
                         "records_fixed_b512.jsonl"]
        assert capsys.readouterr().out == ""  # only report turns records into numbers

    def test_repeated_methods_and_budgets_run_and_list_once(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("simulate", "--methods", "fixed,bitcal,fixed", "--budgets", "512,256,512",
                       "--out", str(out)) == 0
        assert len(list(out.glob("records_*.jsonl"))) == 4
        config = json.loads((out / "run_meta.json").read_text())["config"]
        assert (config["methods"], config["budgets"]) == (["fixed", "bitcal"], [512, 256])

    def test_unknown_method_names_valid_values(self, tmp_path, capsys):
        code = run_cli("simulate", "--methods", "adaptve", "--out", str(tmp_path / "o"))
        assert code == 1
        err = capsys.readouterr().err
        assert "adaptve" in err
        assert "fixed" in err and "adaptive" in err and "bitcal" in err

    def test_budget_grid_cartesian(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("simulate", "--budgets", "256,512,1024", "--out", str(out)) == 0
        assert len(list(out.glob("records_*.jsonl"))) == 9

    def test_scenario_dir_input(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("simulate", "--scenarios", str(SCENARIO_DIR), "--methods", "bitcal",
                       "--out", str(out)) == 0
        records = list(read_records(out / "records_bitcal_b512.jsonl")[1])
        assert len(records) == 6

    def test_bad_scenario_file_is_data_error(self, tmp_path, capsys):
        bad_dir = tmp_path / "scen"
        bad_dir.mkdir()
        (bad_dir / "bad.json").write_text("{broken")
        code = run_cli("simulate", "--scenarios", str(bad_dir), "--out",
                       str(tmp_path / "o"))
        assert code == 2
        assert "bad.json" in capsys.readouterr().err

    def test_invalid_utf8_in_a_scenario_file_is_data_error_naming_it(self, tmp_path, capsys):
        bad_dir = tmp_path / "scen"
        bad_dir.mkdir()
        path = bad_dir / "bad.json"
        path.write_bytes(b'{"scenario_id": "\xff"}')
        assert run_cli("simulate", "--scenarios", str(bad_dir), "--out",
                       str(tmp_path / "o")) == 2
        assert f"error: {path}: invalid UTF-8" in capsys.readouterr().err


class TestReplay:
    def test_entropy_parsed_once_per_step_across_the_grid(self, tmp_path, monkeypatch):
        # One parsed step object serves every method x budget cell.
        vocab = 64
        steps = [StepSignals(chunk_text=f"thinking {j}\n", tokens_in_chunk=16,
                             distribution=[1.0 / vocab] * vocab) for j in range(12)]
        traces = tmp_path / "traces"
        traces.mkdir()
        write_trace(TraceMeta(example_id="p", gold_answer=42.0), steps, traces / "p.jsonl")
        calls = []
        real = signals.entropy
        monkeypatch.setattr(signals, "entropy", lambda d: calls.append(1) or real(d))
        assert run_cli("replay", "--traces", str(traces), "--budgets", "256,512",
                       "--out", str(tmp_path / "out")) == 0
        assert 0 < len(calls) <= len(steps)

    def test_hidden_normalized_once_per_step_across_the_grid(self, tmp_path, monkeypatch):
        steps = [StepSignals(chunk_text=f"thinking {j}\n", tokens_in_chunk=16, entropy=3.0,
                             hidden=[float(j + 1), 1.0, -2.0]) for j in range(12)]
        traces = tmp_path / "traces"
        traces.mkdir()
        write_trace(TraceMeta(example_id="h", gold_answer=42.0), steps, traces / "h.jsonl")
        calls = []
        real = signals._unit_vector
        monkeypatch.setattr(signals, "_unit_vector", lambda h: calls.append(1) or real(h))
        assert run_cli("replay", "--traces", str(traces), "--budgets", "256,512",
                       "--out", str(tmp_path / "out")) == 0
        assert 0 < len(calls) <= len(steps)

    @pytest.mark.parametrize("budgets,splits", [("256,512", 0), ("100,256", 1)])
    def test_cosine_computed_once_per_step_pair_across_the_grid(self, tmp_path, monkeypatch,
                                                               budgets, splits):
        # Both controllers at both budgets read one cosine per step pair. At
        # B=100 the cells split at token 96 and read the pair ending at the
        # split step once more, from the copy of the pass's RunningSignals.
        steps = [StepSignals(chunk_text=f"thinking {j}\n", tokens_in_chunk=16, entropy=3.0,
                             hidden=[float(j + 1), 1.0, -2.0]) for j in range(12)]
        traces = tmp_path / "traces"
        traces.mkdir()
        write_trace(TraceMeta(example_id="h", gold_answer=42.0), steps, traces / "h.jsonl")
        calls = []
        real = signals._dot
        monkeypatch.setattr(signals, "_dot", lambda a, b: calls.append(1) or real(a, b))
        assert run_cli("replay", "--traces", str(traces), "--budgets", budgets,
                       "--out", str(tmp_path / "out")) == 0
        assert len(calls) == len(steps) - 1 + splits

    def test_one_engine_config_per_method_budget_and_bits(self, tmp_path, monkeypatch):
        # Three traces at each of two header widths: a width's configs are built before its
        # first episode, and not again for the traces after it.
        traces = tmp_path / "traces"
        traces.mkdir()
        steps = [StepSignals(chunk_text="#### 42\n", tokens_in_chunk=8, entropy=0.5, eos=True)]
        for i in range(6):
            write_trace(TraceMeta(example_id=f"t{i}", gold_answer=42.0,
                                  served_bits=(4, 8)[i % 2]), steps, traces / f"t{i}.jsonl")
        calls = []
        real = cli.build_engine_config
        monkeypatch.setattr(cli, "build_engine_config",
                            lambda *a: calls.append(a[1:]) or real(*a))
        assert run_cli("replay", "--traces", str(traces), "--budgets", "256,512",
                       "--out", str(tmp_path / "out")) == 0
        assert sorted(calls) == sorted((m.value, b, bits) for m in Method
                                       for b in (256, 512) for bits in (4, 8))

    def test_replays_every_trace(self, tmp_path):
        traces = make_trace_dir(tmp_path, n=3)
        out = tmp_path / "out"
        assert run_cli("replay", "--traces", str(traces), "--methods", "bitcal",
                       "--out", str(out)) == 0
        header, body = read_records(out / "records_bitcal_b512.jsonl")
        records = list(body)
        assert len(records) == 3
        assert header["counterfactual_replay"] is True
        assert [r.example_id for r in records] == sorted(r.example_id for r in records)

    def test_partial_failure_reports_and_continues(self, tmp_path, capsys):
        traces = make_trace_dir(tmp_path, n=2)
        (traces / "zz-broken.jsonl").write_text("not json\n")
        out = tmp_path / "out"
        code = run_cli("replay", "--traces", str(traces), "--methods", "fixed",
                       "--out", str(out))
        assert code == 2
        assert "zz-broken" in capsys.readouterr().err
        records = list(read_records(out / "records_fixed_b512.jsonl")[1])
        assert len(records) == 2

    def test_invalid_utf8_in_a_trace_skips_it_and_exits_2(self, tmp_path, capsys):
        traces = make_trace_dir(tmp_path, n=3)
        path = traces / "gsm-0001.jsonl"
        with open(path, "ab") as f:
            f.write(b"\xff\xfe\n")
        out = tmp_path / "out"
        assert run_cli("replay", "--traces", str(traces), "--methods", "fixed",
                       "--out", str(out)) == 2
        assert f"error: {path}:13: invalid UTF-8" in capsys.readouterr().err
        assert [r.example_id for r in read_records(out / "records_fixed_b512.jsonl")[1]] == [
            "gsm-0000", "gsm-0002"]

    def test_step_with_fewer_than_one_token_skips_the_trace_and_exits_2(self, tmp_path,
                                                                         capsys):
        traces = make_trace_dir(tmp_path, n=3)
        path = traces / "gsm-0001.jsonl"
        lines = path.read_text().splitlines(keepends=True)
        lines[2] = lines[2].replace('"tokens": 16', '"tokens": -3')
        path.write_text("".join(lines))
        out = tmp_path / "out"
        assert run_cli("replay", "--traces", str(traces), "--methods", "fixed",
                       "--out", str(out)) == 2
        assert (f"error: {path}:3: invalid step: tokens must be >= 1, got -3"
                in capsys.readouterr().err)
        assert [r.example_id for r in read_records(out / "records_fixed_b512.jsonl")[1]] == [
            "gsm-0000", "gsm-0002"]

    def test_config_file_bits_override_trace_header(self, tmp_path):
        # At 4 bits (the trace header) bitcal stops marker-then-revision at
        # 192 tokens; at 16 bits it stops at 160.
        scenario = [s for s in scenario_suite_canonical()
                    if s.scenario_id == "marker-then-revision"]
        traces = write_scenario_traces(tmp_path / "traces", scenario)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bits": 16}))
        runs = {"flag": ["--bits", "16"], "config": ["--config", str(cfg)], "header": []}
        for name, extra in runs.items():
            assert run_cli("replay", "--traces", str(traces), "--methods", "bitcal",
                           "--out", str(tmp_path / name), *extra) == 0
        records = {name: tmp_path / name / "records_bitcal_b512.jsonl" for name in runs}
        assert records["config"].read_bytes() == records["flag"].read_bytes()
        assert list(read_records(records["config"])[1])[0].tokens_used == 160
        assert list(read_records(records["header"])[1])[0].tokens_used == 192

    def test_unset_bits_runs_each_trace_at_its_header_bits(self, tmp_path):
        # bitcal stops marker-then-revision at 192 tokens at 4 bits, 176 at 8
        # and 160 at 16. With bits unset, run_meta.json names no run-level bits.
        traces = write_header_bits_traces(tmp_path / "traces")
        out = tmp_path / "out"
        assert run_cli("replay", "--traces", str(traces), "--methods", "bitcal",
                       "--out", str(out)) == 0
        _, records = read_records(out / "records_bitcal_b512.jsonl")
        assert [(r.example_id, r.tokens_used) for r in records] == [
            ("b04", 192), ("b08", 176), ("b16", 160)]
        assert json.loads((out / "run_meta.json").read_text())["config"]["bits"] is None

    def test_byte_identical_reruns(self, tmp_path):
        traces = make_trace_dir(tmp_path, n=2)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        for out in (out1, out2):
            assert run_cli("replay", "--traces", str(traces), "--out", str(out)) == 0
        for p1 in sorted(out1.glob("records_*.jsonl")):
            assert p1.read_bytes() == (out2 / p1.name).read_bytes()


class TestReport:
    def test_report_over_simulated_records(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("simulate", "--out", str(out)) == 0
        assert run_cli("report", "--out", str(out)) == 0
        assert [p.name for p in out.glob("*.csv")] == ["summary.csv"]
        summary = (out / "summary.csv").read_text().splitlines()
        assert len(summary) == 4  # header + 3 methods

    def test_summary_shape_for_grid(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("simulate", "--budgets", "256,512,1024", "--out", str(out)) == 0
        assert run_cli("report", "--out", str(out)) == 0
        summary = (out / "summary.csv").read_text().splitlines()
        assert summary[0] == SUMMARY_COLUMNS
        assert len(summary) == 10  # header + 3 methods x 3 budgets

    def test_ci_columns_for_every_accuracy_cell(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("simulate", "--budgets", "256,512,1024", "--out", str(out)) == 0
        assert run_cli("report", "--out", str(out)) == 0
        rows = (out / "summary.csv").read_text().splitlines()[1:]
        for row in rows:
            accuracy, ci_low, ci_high = map(float, row.split(",")[3:6])
            assert ci_low <= accuracy <= ci_high

    def test_stdout_shows_the_summary_rows(self, tmp_path, capsys):
        # 1 of 80 is 1.25%: half-up to 1.3 in summary.csv, where a binary
        # float printed with :.1f would read 1.2.
        records = [sample_record(i, correct=i == 0) for i in range(80)]
        write_records(records, tmp_path / "records_bitcal_b512.jsonl")
        assert run_cli("report", "--out", str(tmp_path)) == 0
        rows = (tmp_path / "summary.csv").read_text().splitlines()
        assert rows[1].split(",")[3] == "1.3"
        assert capsys.readouterr().out.splitlines() == rows

    def test_invalid_utf8_in_a_record_file_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "records_bitcal_b512.jsonl"
        write_records([sample_record(i) for i in range(3)], path)
        with open(path, "ab") as f:
            f.write(b"\xff\xfe\n")
        assert run_cli("report", "--out", str(tmp_path)) == 2
        assert f"error: {path}:5: invalid UTF-8" in capsys.readouterr().err
        assert not (tmp_path / "summary.csv").exists()

    def test_a_record_file_cut_short_is_data_error(self, tmp_path, capsys):
        # The whole adaptive file and the bitcal file's first records are folded into
        # rows before the cut last line is reached; none of them reaches a table.
        write_records([sample_record(i, method="adaptive") for i in range(3)],
                      tmp_path / "records_adaptive_b512.jsonl")
        path = tmp_path / "records_bitcal_b512.jsonl"
        write_records([sample_record(i) for i in range(3)], path)
        os.truncate(path, path.stat().st_size - 10)
        assert run_cli("report", "--out", str(tmp_path)) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {path}:4: invalid JSON")
        assert captured.out == ""
        assert not (tmp_path / "summary.csv").exists()

    def test_a_string_bool_in_a_record_is_data_error(self, tmp_path, capsys):
        # bool("false") is True, so a coercing reader scores these four wrong
        # records as 100% accurate.
        path = tmp_path / "records_fixed_b512.jsonl"
        write_records([sample_record(i, method="fixed", correct=False) for i in range(4)], path)
        path.write_text(path.read_text().replace('"correct": false', '"correct": "false"'))
        assert run_cli("report", "--out", str(tmp_path)) == 2
        assert (f"error: {path}:2: invalid record: correct must be a bool, got 'false'"
                in capsys.readouterr().err)
        assert not (tmp_path / "summary.csv").exists()

    def test_a_copied_record_file_is_data_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("simulate", "--methods", "fixed", "--out", str(out)) == 0
        (out / "records_fixed_b512_copy.jsonl").write_bytes(
            (out / "records_fixed_b512.jsonl").read_bytes())
        assert run_cli("report", "--out", str(out)) == 2
        assert "repeat example_id(s)" in capsys.readouterr().err
        assert not (out / "summary.csv").exists()

    def test_report_holds_one_file_of_records_at_a_time(self, tmp_path, capsys):
        # Six files of long-text records: report keeps each record only while it reads it,
        # and an outcome row of each, so its peak stays under one file's, not six.
        text = "x" * 20_000 + " #### 42"
        for method in VALID_METHODS:
            for budget in (256, 512):
                write_records([sample_record(i, method=method, budget=budget,
                                             generated_text=text) for i in range(10)],
                              tmp_path / f"records_{method}_b{budget}.jsonl")
        largest = max(p.stat().st_size for p in tmp_path.glob("records_*.jsonl"))
        args = argparse.Namespace(records=str(tmp_path), out=str(tmp_path / "out"))
        assert cli.cmd_report(args) == 0  # loads the metrics layer outside the trace
        tracemalloc.start()
        try:
            assert cli.cmd_report(args) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * largest, (peak, largest)

    def test_an_all_errored_group_hides_no_other_row(self, tmp_path, capsys):
        # bitcal's one record there errored at the NaN hidden entry; fixed and adaptive
        # are clean, so they get their rows, and report names bitcal's group and exits 2.
        assert run_cli("report", "--records", str(GOLDEN_REPLAY_V1), "--out",
                       str(tmp_path)) == 2
        expected = [SUMMARY_COLUMNS, "fixed,256,1,100.0,20.7,100.0,240,0.0,,7b",
                    "adaptive,256,1,100.0,20.7,100.0,176,0.0,26.7,7b"]
        assert (tmp_path / "summary.csv").read_text().splitlines() == expected
        out, err = capsys.readouterr()
        assert out.splitlines() == expected
        assert err == "error: all records errored for model '7b', method bitcal, B=256\n"
        # With only that group, there is no row to write.
        alone = tmp_path / "alone"
        alone.mkdir()
        name = "records_bitcal_b256.jsonl"
        (alone / name).write_bytes((GOLDEN_REPLAY_V1 / name).read_bytes())
        assert run_cli("report", "--out", str(alone)) == 2
        assert capsys.readouterr() == ("", err)
        assert not (alone / "summary.csv").exists()

    def test_empty_record_set_is_data_error(self, tmp_path, capsys):
        out = tmp_path / "empty"
        out.mkdir()
        assert run_cli("report", "--out", str(out)) == 2

    @pytest.mark.parametrize("command,flag,message", [
        ("report", "--records", "hold no records"),  # a record file with only its header
        ("simulate", "--scenarios", "no scenario files found"),
        ("replay", "--traces", "no trace files found"),
    ])
    def test_empty_input_is_data_error(self, tmp_path, capsys, command, flag, message):
        inputs = tmp_path / "in"
        inputs.mkdir()
        if message == "hold no records":
            write_records([], inputs / "records_fixed_b512.jsonl")
        assert run_cli(command, flag, str(inputs), "--out", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and err.count("\n") == 1
        assert not (tmp_path / "out" / "summary.csv").exists()


DEEP = "[" * 200_000 + "]" * 200_000  # nested far past the interpreter's recursion limit
DIGITS = "1" * 5_001  # past Python's default integer digit limit (4,300)


def trace_text(header="", step=""):
    """A one-step trace, with JSON members appended to (and so overriding) its lines."""
    return ('{"schema": "trace/v3", "example_id": "bad", "gold_answer": 42.0%s}\n'
            '{"step": 0, "chunk_text": "#### 42", "tokens": 4, "entropy": 0.5%s}\n'
            % (header, step))


def records_text(members):
    rec = sample_record()
    record = json.dumps({f.name: getattr(rec, f.name) for f in dataclasses.fields(rec)})
    return '{"schema": "records/v1"}\n' + record[:-1] + members + "}\n"


def scenario_text(segment):
    return ('{"scenario_id": "bad", "gold_answer": 42, "emitted_answer": 42, "segments": '
            '[{"length": 32, "entropy": 1.0, "text_template": "#### 42"%s}]}' % segment)


# (command, bad file's text, line named in the error or None for a whole file)
UNREADABLE_FILES = [
    # Valid JSON that once crashed the CLI or was scored as something else.
    pytest.param("replay", trace_text(step=', "chunk_text": {"x #### 42": 1}'), 2,
                 id="object-as-chunk-text"),
    pytest.param("replay", trace_text(header=', "example_id": ["a"]'), 1, id="list-as-id"),
    pytest.param("replay", trace_text(header=', "gold_answer": 1' + "0" * 400), 1,
                 id="gold-answer-past-float-range"),
    pytest.param("replay", trace_text(step=', "tokens": ' + DIGITS), 2, id="digit-limit-tokens"),
    pytest.param("replay", trace_text(step=', "hidden": ' + DEEP), 2, id="deep-trace-line"),
    pytest.param("simulate", scenario_text(', "hidden_rotation": ' + DEEP), None,
                 id="deep-scenario"),
    pytest.param("config", '{"floor": %s}' % DIGITS, None, id="digit-limit-config"),
    # A value of another JSON kind is no longer converted.
    pytest.param("replay", trace_text(header=', "example_id": 7'), 1, id="number-as-id"),
    pytest.param("replay", trace_text(header=', "gold_answer": "42"'), 1, id="text-as-float"),
    pytest.param("replay", trace_text(header=', "served_bits": "8"'), 1, id="text-as-int"),
    pytest.param("replay", trace_text(step=', "chunk_text": ["#### 42"]'), 2,
                 id="list-as-chunk-text"),
    # A trace/v3 array is an element count whose float64 bytes the file holds.
    pytest.param("replay", trace_text(step=', "hidden": 4'), 2, id="v3-count-past-the-end"),
    pytest.param("replay", trace_text(step=', "hidden": true'), 2, id="v3-bool-as-count"),
    pytest.param("replay", trace_text(step=', "hidden": "AAAAAAAA8D8="'), 2,
                 id="v3-base64-as-count"),
    pytest.param("simulate", scenario_text(', "length": "32"'), None, id="text-as-length"),
    pytest.param("report", records_text(', "tokens_used": "12"'), 2, id="text-as-tokens-used"),
    pytest.param("report", records_text(', "actions": [[1, "stop", 16]]'), 2,
                 id="number-as-action"),
    # A name or number that is not one the program knows.
    pytest.param("report", records_text(', "method": "bogus"'), 2, id="unknown-method"),
    pytest.param("report", records_text(', "stop_cause": "bogus"'), 2, id="unknown-stop-cause"),
    pytest.param("report", records_text(', "actions": [["bogus", "nope", 3]]'), 2,
                 id="unknown-action"),
    pytest.param("report", records_text(', "actions": [["stop", "floor", 16]]'), 2,
                 id="mismatched-action"),
    # A stop_cause, early_halt or tokens_used that disagrees with the record's own last action.
    pytest.param("report", records_text(', "stop_cause": "eos"'), 2, id="eos-after-a-stop"),
    pytest.param("report", records_text(', "actions": [["continue", "floor", 16]]'), 2,
                 id="controller-stop-after-a-continue"),
    pytest.param("report", records_text(', "early_halt": false'), 2,
                 id="early-halt-unlike-the-stop"),
    pytest.param("report", records_text(', "tokens_used": 300'), 2,
                 id="tokens-unlike-the-stop"),
    pytest.param("simulate", scenario_text(', "hidden_rotation": Infinity'), None,
                 id="infinite-rotation"),
    pytest.param("simulate", scenario_text(', "hidden_rotation": NaN'), None, id="nan-rotation"),
]


class TestUnreadableFiles:
    @pytest.mark.parametrize("command,text,line", UNREADABLE_FILES)
    def test_one_error_line_naming_the_file(self, tmp_path, capsys, command, text, line):
        """A file that does not read as what it says fails as a data error (exit 2), or for
        --config as a usage error (exit 1), in one line naming the file and any JSONL line."""
        if command == "replay":  # beside a good trace, so the one error line is the bad one's
            bad = make_trace_dir(tmp_path, n=1) / "bad.jsonl"
            argv = ["replay", "--traces", str(bad.parent)]
        elif command == "report":
            bad = tmp_path / "records_fixed_b512.jsonl"
            argv = ["report", "--records", str(tmp_path)]
        elif command == "simulate":
            (tmp_path / "scenarios").mkdir()
            bad = tmp_path / "scenarios" / "bad.json"
            argv = ["simulate", "--scenarios", str(bad.parent)]
        else:
            bad = tmp_path / "cfg.json"
            argv = ["simulate", "--config", str(bad)]
        bad.write_text(text, encoding="utf-8")
        code = run_cli(*argv, "--out", str(tmp_path / "out"))
        err = capsys.readouterr().err
        assert code == (1 if command == "config" else 2)
        where = bad if line is None else f"{bad}:{line}"
        assert err.startswith(f"error: {where}: ") and err.count("\n") == 1 and err.endswith("\n")
        assert "Traceback" not in err


class TestSweep:
    def test_sweep_without_the_locale_encoding(self, tmp_path):
        # Every text read and write names its encoding, so no EncodingWarning
        # is raised (and turned into an error here) on any locale.
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        done = subprocess.run([sys.executable, "-X", "warn_default_encoding",
                               "-W", "error::EncodingWarning", "-m", "bithalt.cli", "sweep",
                               "--out", str(tmp_path / "out")],
                              env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert (tmp_path / "out" / "summary.csv").read_bytes() == (
            GOLDEN_REPORT / "summary.csv").read_bytes()

    def test_sweep_simulates_and_reports(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("sweep", "--budgets", "256,512", "--out", str(out)) == 0
        assert len(list(out.glob("records_*.jsonl"))) == 6
        assert (out / "summary.csv").exists()

    @pytest.mark.parametrize("source", ["scenarios", "traces"])
    def test_stdout_is_exactly_the_summary_csv(self, tmp_path, capsys, source):
        traces = ["--traces", str(make_trace_dir(tmp_path))] if source == "traces" else []
        out = tmp_path / "out"
        assert run_cli("sweep", *traces, "--budgets", "256,512", "--out", str(out)) == 0
        assert capsys.readouterr().out == (out / "summary.csv").read_text()

    def test_a_model_name_with_a_comma_quote_or_line_break_stays_one_csv_field(
            self, tmp_path, capsys):
        names = ["Qwen2.5-7B, 4-bit", 'the "7B" model', "line\nbreak"]
        traces = tmp_path / "traces"
        traces.mkdir()
        for i, model in enumerate(names):
            step = StepSignals(chunk_text="#### 42\n", tokens_in_chunk=8, entropy=0.5, eos=True)
            write_trace(TraceMeta(example_id=f"m{i}", gold_answer=42.0, model=model), [step],
                        traces / f"m{i}.jsonl")
        out = tmp_path / "out"
        assert run_cli("sweep", "--traces", str(traces), "--methods", "fixed",
                       "--budgets", "256", "--out", str(out)) == 0
        with open(out / "summary.csv", newline="", encoding="utf-8") as f:
            rows = list(csv.reader(f))
        assert [len(row) for row in rows] == [10] * (1 + len(names))
        assert sorted(row[-1] for row in rows[1:]) == sorted(names)
        assert capsys.readouterr().out == (out / "summary.csv").read_text(encoding="utf-8")

    def test_two_scenario_files_with_one_id_are_data_error(self, tmp_path, capsys):
        scenarios = tmp_path / "scenarios"
        scenarios.mkdir()
        s = scenario_suite_canonical()[0]
        for name in ("a.json", "b.json"):
            (scenarios / name).write_text(json.dumps(dataclasses.asdict(s)))
        assert run_cli("sweep", "--scenarios", str(scenarios), "--out",
                       str(tmp_path / "out")) == 2
        assert f"repeat example_id(s) ['{s.scenario_id}']" in capsys.readouterr().err

    def test_scenarios_and_traces_exclude_each_other(self, tmp_path, capsys):
        traces = make_trace_dir(tmp_path, n=1)
        assert run_cli("sweep", "--scenarios", str(SCENARIO_DIR), "--traces", str(traces),
                       "--out", str(tmp_path / "out")) == 1
        assert "not allowed with argument" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestConfigLayering:
    def test_config_file_overrides_defaults(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"budgets": "256", "methods": "fixed"}))
        out = tmp_path / "out"
        assert run_cli("simulate", "--config", str(cfg), "--out", str(out)) == 0
        assert [p.name for p in out.glob("records_*.jsonl")] == ["records_fixed_b256.jsonl"]

    def test_flags_beat_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"methods": "fixed"}))
        out = tmp_path / "out"
        assert run_cli("simulate", "--config", str(cfg), "--methods", "bitcal",
                       "--out", str(out)) == 0
        assert [p.name for p in out.glob("records_*.jsonl")] == ["records_bitcal_b512.jsonl"]

    def test_unknown_config_key_suggests_valid_keys(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"theta_hh": 1.0}))
        code = run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert code == 1
        err = capsys.readouterr().err
        assert "theta_hh" in err and "theta_h" in err

    def test_missing_config_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "missing.json"
        assert run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "o")) == 1
        assert capsys.readouterr().err.startswith(f"error: cannot read config {cfg}: ")
        assert not (tmp_path / "o").exists()

    def test_invalid_utf8_config_is_usage_error_naming_it(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'{"marker": "\xff"}')
        assert run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "o")) == 1
        assert f"error: {cfg}: invalid UTF-8" in capsys.readouterr().err

    def test_usage_error_exit_code(self, capsys):
        assert run_cli("simulate") == 1  # --out missing

    def test_help_lists_defaults(self, capsys):
        with pytest.raises(SystemExit):
            run_cli("simulate", "--help")
        out = " ".join(capsys.readouterr().out.split())  # undo the help's line wrapping
        for key, (_, _, text) in CONFIG_FIELDS.items():
            flag = f"--{key.replace('_', '-')} {key.upper()} {text}"
            assert f"{flag} (default: {DEFAULTS[key]!r})" in out, key

    def test_defaults_mirror_published_defaults(self):
        assert DEFAULTS["chunk_size"] == 16
        assert DEFAULTS["h_max"] == 10.0
        assert (DEFAULTS["theta_h"], DEFAULTS["theta_c"], DEFAULTS["theta_e"]) == (2.0, 0.75, 4.0)
        assert (DEFAULTS["floor"], DEFAULTS["buffer"]) == (128, 32)
        assert (DEFAULTS["w_entropy"], DEFAULTS["w_trace"], DEFAULTS["w_hidden"]) == (
            0.40, 0.35, 0.25)
        assert DEFAULTS["temperature"] == 1.0

    @pytest.mark.parametrize("method", [m.value for m in Method])
    def test_unflagged_config_builds_dataclass_defaults(self, method):
        cfg = resolve_config(build_parser().parse_args(["simulate", "--out", "o"]))
        assert build_engine_config(cfg, method, 512, 4) == EngineConfig(Method(method), 512)

    def test_seed_flag_is_usage_error(self, tmp_path):
        assert run_cli("simulate", "--seed", "42", "--out", str(tmp_path / "o")) == 1


class TestParserPerCommand:
    """main builds the parser for the command it runs: the run options, and the config
    tables their help reads, are added only to that command, so report binds neither."""

    @staticmethod
    def _options(parser, command):
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        return sub.choices[command]

    @pytest.mark.parametrize("command", ["simulate", "replay", "report", "sweep"])
    def test_a_command_parses_as_in_the_full_parser(self, command):
        one, full = (self._options(build_parser(c), command) for c in (command, None))
        assert [a.option_strings for a in one._actions] == [
            a.option_strings for a in full._actions]
        assert one.format_help() == full.format_help()

    def test_report_takes_no_run_option(self, tmp_path, capsys):
        assert run_cli("report", "--bits", "4", "--out", str(tmp_path)) == 1
        assert "unrecognized arguments: --bits 4" in capsys.readouterr().err


# One non-default value per config key, integral ones included for float keys.
NON_DEFAULT = {
    "bits": 8, "chunk_size": 8, "h_max": 8, "w_entropy": 1, "w_trace": 0.2,
    "w_hidden": 0.5, "temperature": 2, "theta_h": 1.5, "theta_c": 0.6, "theta_e": 3,
    "floor": 96, "buffer": 48, "marker": "## ",
}


class TestConfigValueRule:
    """A config file follows the value rule of every input file, while a flag's
    text is converted: the number 5 is not the marker text "5", and the text
    "16" is not a number."""

    @pytest.mark.parametrize("setting", [{"marker": 5}, {"floor": "16"}, {"theta_h": "1.5"},
                                         {"budgets": 512}, {"h_max": 10 ** 400}])
    def test_config_value_of_another_json_kind_is_usage_error(self, tmp_path, capsys,
                                                              setting):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(setting))
        out = tmp_path / "out"
        assert run_cli("simulate", "--config", str(cfg), "--out", str(out)) == 1
        (key,) = setting
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} must be ") and err.count("\n") == 1
        assert not out.exists()

    def test_whole_float_config_value_reads_as_integer(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"floor": 16.0}))
        runs = {"flag": ["--floor", "16"], "config": ["--config", str(cfg)]}
        for name, extra in runs.items():
            assert run_cli("simulate", *extra, "--out", str(tmp_path / name)) == 0
        meta = (tmp_path / "config" / "run_meta.json").read_text()
        assert json.loads(meta)["config"]["floor"] == 16 and '"floor": 16,' in meta
        for path in sorted((tmp_path / "flag").iterdir()):
            assert (tmp_path / "config" / path.name).read_bytes() == path.read_bytes()


class TestSettingsParse:
    def test_non_default_table_covers_every_config_key(self):
        assert set(NON_DEFAULT) == set(CONFIG_FIELDS)
        assert all(NON_DEFAULT[key] != DEFAULTS[key] for key in NON_DEFAULT)

    @pytest.mark.parametrize("key", sorted(NON_DEFAULT))
    def test_flag_and_config_file_give_identical_outputs(self, tmp_path, key):
        value = NON_DEFAULT[key]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        runs = {"flag": ["--" + key.replace("_", "-"), str(value)],
                "config": ["--config", str(cfg)]}
        for name, extra in runs.items():
            assert run_cli("simulate", *extra, "--out", str(tmp_path / name)) == 0
        names = sorted(p.name for p in (tmp_path / "flag").iterdir())
        assert "run_meta.json" in names and len(names) == 4
        assert names == sorted(p.name for p in (tmp_path / "config").iterdir())
        for name in names:
            assert ((tmp_path / "flag" / name).read_bytes()
                    == (tmp_path / "config" / name).read_bytes()), name
        meta = json.loads((tmp_path / "config" / "run_meta.json").read_text())
        assert type(meta["config"][key]) is type(DEFAULTS[key])

    @pytest.mark.parametrize("setting", [{"floor": "abc"}, {"floor": True},
                                         {"chunk_size": 16.5}])
    def test_value_its_flag_would_reject_is_usage_error(self, tmp_path, capsys, setting):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(setting))
        out = tmp_path / "out"
        assert run_cli("simulate", "--config", str(cfg), "--out", str(out)) == 1
        (key,) = setting
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err
        assert not list(out.glob("records_*.jsonl"))

    def test_null_bits_is_unset(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bits": None}))
        sim = tmp_path / "sim"
        assert run_cli("simulate", "--methods", "bitcal", "--config", str(cfg),
                       "--out", str(sim)) == 0
        assert json.loads((sim / "run_meta.json").read_text())["config"]["bits"] == 4
        golden = GOLDEN_RECORDS / "records_bitcal_b512.jsonl"
        assert (sim / golden.name).read_bytes() == golden.read_bytes()
        rep = tmp_path / "rep"
        assert run_cli("replay", "--traces", str(write_header_bits_traces(tmp_path / "traces")),
                       "--methods", "bitcal", "--config", str(cfg), "--out", str(rep)) == 0
        _, records = read_records(rep / "records_bitcal_b512.jsonl")
        assert [r.tokens_used for r in records] == [192, 176, 160]

    def test_replay_reads_the_config_file_once(self, tmp_path, monkeypatch):
        traces = make_trace_dir(tmp_path, n=1)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"methods": "fixed"}))
        reads = []
        real = Path.read_bytes
        monkeypatch.setattr(Path, "read_bytes", lambda self: reads.append(self) or real(self))
        assert run_cli("replay", "--traces", str(traces), "--config", str(cfg),
                       "--out", str(tmp_path / "out")) == 0
        assert reads.count(cfg) == 1

    def test_replay_bits_zero_is_usage_error(self, tmp_path):
        traces = make_trace_dir(tmp_path, n=1)
        assert run_cli("replay", "--traces", str(traces), "--bits", "0",
                       "--out", str(tmp_path / "out")) == 1


FLOAT_KEYS = sorted(key for key in CONFIG_FIELDS if type(DEFAULTS[key]) is float)


class TestConfigValueErrors:
    """Values the config dataclasses reject exit 1 naming the user's key, from a
    flag and from the config file alike, before any record is written."""

    def _run(self, tmp_path, capsys, key, value, via, command="simulate"):
        out = tmp_path / "out"
        if via == "flag":
            extra = ["--" + key.replace("_", "-"), str(value)]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({key: value}))
            extra = ["--config", str(cfg)]
        args = ["--traces", str(make_trace_dir(tmp_path, n=1))] if command == "replay" else []
        if key != "methods":  # a --methods flag would override the config file's methods
            args += ["--methods", "adaptive"]
        code = run_cli(command, *args, *extra, "--out", str(out))
        assert not list(out.glob("records_*.jsonl"))
        return code, capsys.readouterr().err

    def test_float_keys_cover_every_float_field(self):
        assert FLOAT_KEYS == ["h_max", "temperature", "theta_c", "theta_e", "theta_h",
                              "w_entropy", "w_hidden", "w_trace"]

    @pytest.mark.parametrize("via", ["flag", "config"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("key", FLOAT_KEYS)
    def test_non_finite_value_is_usage_error(self, tmp_path, capsys, key, value, via):
        code, err = self._run(tmp_path, capsys, key, value, via)
        assert code == 1
        assert err.startswith(f"error: {key} must be finite, got {value!r}"), err

    @pytest.mark.parametrize("via", ["flag", "config"])
    @pytest.mark.parametrize("command,key,value,field", [
        ("replay", "bits", 0, "served_bits"),
        ("simulate", "bits", 0, "served_bits"),
        ("simulate", "floor", -1, "floor_tokens"),
        ("simulate", "buffer", -5, "budget_buffer"),
        ("simulate", "chunk_size", 0, "chunk_size"),
        ("simulate", "w_trace", -0.5, "w_trace"),
    ])
    def test_range_error_names_the_key(self, tmp_path, capsys, command, key, value, field,
                                       via):
        code, err = self._run(tmp_path, capsys, key, value, via, command)
        assert code == 1
        assert err.startswith(f"error: {key} must be >= "), err
        if field != key:
            assert field not in err

    @pytest.mark.parametrize("via", ["flag", "config"])
    @pytest.mark.parametrize("key,value,message", [
        ("methods", ",", "at least one method is required"),
        ("budgets", ",", "at least one budget is required"),
        ("budgets", "abc", "budgets must be a comma-separated integer list, got 'abc'"),
        # A rule over two fields names no one key, so its message is passed on as it is.
        ("theta_h", 5, "theta_h (5.0) must be < theta_e (4.0)"),
    ])
    def test_usage_error_message(self, tmp_path, capsys, key, value, message, via):
        code, err = self._run(tmp_path, capsys, key, value, via)
        assert code == 1
        assert err == f"error: {message}\n"

    def test_budget_below_chunk_size_names_budgets_and_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("simulate", "--budgets", "512,8", "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: budgets must be >= chunk_size (16), got 8"), err
        assert not list(out.glob("records_*.jsonl")) and not (out / "run_meta.json").exists()

    def test_header_bits_below_one_is_a_data_error_in_that_file(self, tmp_path, capsys):
        traces = make_trace_dir(tmp_path, n=2)
        path = traces / "gsm-0001.jsonl"
        lines = path.read_text().splitlines()
        lines[0] = lines[0].replace('"served_bits": 4', '"served_bits": 0')
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        assert run_cli("replay", "--traces", str(traces), "--methods", "fixed",
                       "--out", str(out)) == 2
        assert f"{path}:1: invalid header: served_bits must be >= 1" in capsys.readouterr().err
        assert [r.example_id for r in read_records(out / "records_fixed_b512.jsonl")[1]] == [
            "gsm-0000"]


class TestNumpyImport:
    """numpy is loaded only by entropy, for steps that carry a distribution."""

    # Makes any import of numpy in the child raise ImportError.
    BLOCK = "import sys\nsys.modules['numpy'] = None\n"

    def _numpy_loaded(self, code):
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        done = subprocess.run([sys.executable, "-c", code + "\nimport sys\n"
                               "print(sys.modules.get('numpy') is not None)"],
                              env=env, capture_output=True, text=True, check=True)
        return done.stdout.splitlines()[-1] == "True"

    def test_importing_the_cli_leaves_numpy_out(self):
        assert not self._numpy_loaded("import bithalt.cli")

    def test_report_leaves_numpy_out(self, tmp_path):
        assert not self._numpy_loaded(
            "from bithalt.cli import main\n"
            f"assert main(['report', '--records', {str(GOLDEN_RECORDS)!r},"
            f" '--out', {str(tmp_path)!r}]) == 0")
        assert (tmp_path / "summary.csv").read_bytes() == (
            GOLDEN_REPORT / "summary.csv").read_bytes()

    def test_simulate_without_numpy_reproduces_golden_records(self, tmp_path):
        # The canonical suite has hidden vectors.
        assert not self._numpy_loaded(
            self.BLOCK + "from bithalt.cli import main\n"
            f"assert main(['simulate', '--bits', '4', '--out', {str(tmp_path)!r}]) == 0")
        golden = sorted(GOLDEN_RECORDS.glob("records_*.jsonl"))
        assert len(golden) == 3
        for path in golden:
            assert (tmp_path / path.name).read_bytes() == path.read_bytes(), path.name

    def test_entropy_only_replay_without_numpy(self, tmp_path):
        traces = write_scenario_traces(tmp_path / "traces", scenario_suite_canonical())
        _, steps = read_trace(traces / "confident-early-wrong.jsonl")
        assert all(len(s.hidden) == 2 for s in steps)
        out = tmp_path / "out"
        assert not self._numpy_loaded(
            self.BLOCK + "from bithalt.cli import main\n"
            f"assert main(['replay', '--traces', {str(traces)!r}, '--out', {str(out)!r}]) == 0")
        for path in sorted(GOLDEN_RECORDS.glob("records_*.jsonl")):
            replayed = (out / path.name).read_text().splitlines()[1:]
            assert replayed == path.read_text().splitlines()[1:], path.name

    def test_replay_of_a_probs_trace_loads_numpy(self, tmp_path):
        traces = tmp_path / "traces"
        traces.mkdir()
        steps = [StepSignals(chunk_text=f"thinking {j}\n", tokens_in_chunk=16,
                             distribution=[0.5, 0.25, 0.25]) for j in range(4)]
        write_trace(TraceMeta(example_id="p", gold_answer=42.0), steps, traces / "p.jsonl")
        assert self._numpy_loaded(
            "from bithalt.cli import main\n"
            f"assert main(['replay', '--traces', {str(traces)!r},"
            f" '--out', {str(tmp_path / 'out')!r}]) == 0")


class TestImportFootprint:
    """Each command imports only the layers it runs: bithalt.simulate for simulate and
    sweep, bithalt.metrics and decimal for report and sweep, logging only when an
    episode errors, and the controller (engine, policy, calibrate) never for report."""

    LAYERS = ("bithalt.simulate", "bithalt.metrics", "decimal", "logging")
    CONTROLLER = ("bithalt.engine", "bithalt.policy", "bithalt.calibrate")

    def _loaded(self, code, layers=LAYERS):
        """The ``layers`` that running ``code`` in a fresh interpreter imports."""
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        done = subprocess.run(
            [sys.executable, "-c", "import sys\nbefore = set(sys.modules)\n" + code +
             f"\nprint(*(m for m in {layers!r} if m in set(sys.modules) - before))"],
            env=env, capture_output=True, text=True, check=True)
        return set(done.stdout.splitlines()[-1].split())

    def _main(self, *argv):
        return f"from bithalt.cli import main\nassert main({[str(a) for a in argv]!r}) == 0"

    def test_simulate_runs_neither_metrics_nor_logging(self, tmp_path):
        assert self._loaded(self._main("simulate", "--bits", "4", "--out", tmp_path)) == {
            "bithalt.simulate"}

    def test_replay_runs_neither_simulate_nor_metrics_nor_logging(self, tmp_path):
        traces = write_scenario_traces(tmp_path / "traces", scenario_suite_canonical())
        assert self._loaded(self._main("replay", "--traces", traces,
                                       "--out", tmp_path / "out")) == set()

    def test_report_runs_neither_simulate_nor_logging(self, tmp_path):
        assert self._loaded(self._main("report", "--records", GOLDEN_RECORDS,
                                       "--out", tmp_path)) == {"bithalt.metrics", "decimal"}

    def test_report_loads_no_controller_module(self, tmp_path):
        # The record types live in trace_io, beside their file format.
        assert self._loaded(self._main("report", "--records", GOLDEN_RECORDS,
                                       "--out", tmp_path), self.CONTROLLER) == set()

    def test_report_loads_no_signals(self, tmp_path):
        # trace_io imports StepSignals only when it reads a trace.
        assert self._loaded(self._main("report", "--records", GOLDEN_RECORDS, "--out", tmp_path),
                            ("bithalt.signals",)) == set()
        assert self._loaded("import bithalt.trace_io", ("bithalt.signals",)) == set()

    def test_metrics_loads_no_engine(self):
        assert self._loaded("import bithalt.metrics", ("bithalt.engine",)) == set()

    def test_sweep_as_main_reproduces_the_golden_records_and_report(self, tmp_path):
        # python -m bithalt.cli runs the module as __main__, not as bithalt.cli.
        out = tmp_path / "sweep"
        assert self._loaded(
            "import runpy\n"
            f"sys.argv = ['bithalt', 'sweep', '--bits', '4', '--out', {str(out)!r}]\n"
            "try:\n"
            "    runpy.run_module('bithalt.cli', run_name='__main__', alter_sys=True)\n"
            "except SystemExit as exc:\n"
            "    assert exc.code == 0, exc.code\n") == {
                "bithalt.simulate", "bithalt.metrics", "decimal"}
        for path in sorted(GOLDEN_RECORDS.glob("records_*.jsonl")):
            assert (out / path.name).read_bytes() == path.read_bytes(), path.name
        assert (out / "summary.csv").read_bytes() == (
            GOLDEN_REPORT / "summary.csv").read_bytes()

    def test_only_entropy_from_probs_loads_numpy(self, tmp_path):
        # simulate, report, a replay of entropy-only traces and the cli module never load numpy;
        # a replay of a trace with probs does, since entropy is computed from them.
        traces = write_scenario_traces(tmp_path / "traces", scenario_suite_canonical())
        for code in ("import bithalt.cli",
                     self._main("simulate", "--bits", "4", "--out", tmp_path / "simulate"),
                     self._main("report", "--records", GOLDEN_RECORDS, "--out", tmp_path / "rpt"),
                     self._main("replay", "--traces", traces, "--out", tmp_path / "replay")):
            assert self._loaded(code, ("numpy",)) == set(), code
        probs = tmp_path / "probs"
        probs.mkdir()
        write_trace(TraceMeta(example_id="p", gold_answer=42.0),
                    [StepSignals(chunk_text=f"step {i}", tokens_in_chunk=16,
                                 distribution=[0.5, 0.25, 0.25]) for i in range(3)],
                    probs / "p.jsonl")
        assert self._loaded(self._main("replay", "--traces", probs, "--out", tmp_path / "p"),
                            ("numpy",)) == {"numpy"}


class TestDeterminism:
    def test_simulate_twice_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert run_cli("simulate", "--jobs", "4", "--out", str(out)) == 0
            assert run_cli("report", "--out", str(out)) == 0
        names = sorted(p.name for p in out1.iterdir())
        assert names == sorted(p.name for p in out2.iterdir())
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_jobs_flag_changes_no_output(self, tmp_path):
        outs = [tmp_path / "j1", tmp_path / "j4"]
        for jobs, out in zip(("1", "4"), outs):
            assert run_cli("sweep", "--budgets", "256,512", "--jobs", jobs,
                           "--out", str(out)) == 0
        names = sorted(p.name for p in outs[0].iterdir())
        assert names == sorted(p.name for p in outs[1].iterdir())
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


GOLDEN_RECORDS = Path(__file__).resolve().parent / "data" / "golden_records_b512"
GOLDEN_REPORT = Path(__file__).resolve().parent / "data" / "golden_report_b512"
GOLDEN_RECORDS_K1 = Path(__file__).resolve().parent / "data" / "golden_records_k1_b2048"
GOLDEN_RECORDS_OFFGRID = Path(__file__).resolve().parent / "data" / "golden_records_offgrid"
GOLDEN_REPLAY_V1 = Path(__file__).resolve().parent / "data" / "golden_replay_trace_v1_b256"


class TestGoldenRecords:
    def test_canonical_suite_reproduces_golden_records(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("simulate", "--bits", "4", "--out", str(out)) == 0
        golden = sorted(GOLDEN_RECORDS.glob("records_*.jsonl"))
        assert [p.name for p in golden] == sorted(p.name for p in out.glob("records_*.jsonl"))
        for path in golden:
            assert (out / path.name).read_bytes() == path.read_bytes(), path.name

    def test_canonical_suite_at_k1_reproduces_golden_records(self, tmp_path):
        # Episodes of up to 2,017 one-token steps: the marker scan and the
        # running signal state must give the batch readout's records exactly.
        out = tmp_path / "out"
        assert run_cli("simulate", "--chunk-size", "1", "--budgets", "2048", "--bits", "4",
                       "--out", str(out)) == 0
        golden = sorted(GOLDEN_RECORDS_K1.glob("records_*.jsonl"))
        assert [p.name for p in golden] == sorted(p.name for p in out.glob("records_*.jsonl"))
        for path in golden:
            assert (out / path.name).read_bytes() == path.read_bytes(), path.name

    @pytest.mark.parametrize("larger", [(), (512, 1024)], ids=["200,300", "200,300,512,1024"])
    def test_budgets_off_the_chunk_grid_reproduce_golden_records(self, tmp_path, larger):
        # 200 and 300 are not multiples of 16: an episode that runs to its
        # budget ends on a partial chunk of 8 or 12 tokens. Beside larger
        # budgets, such a cell leaves the pass and runs alone.
        out = tmp_path / "out"
        budgets = ",".join(map(str, (200, 300, *larger)))
        assert run_cli("simulate", "--budgets", budgets, "--chunk-size", "16", "--bits", "8",
                       "--out", str(out)) == 0
        golden = sorted(GOLDEN_RECORDS_OFFGRID.glob("records_*.jsonl"))
        extra = [f"records_{m.value}_b{b}.jsonl" for m in Method for b in larger]
        assert sorted([p.name for p in golden] + extra) == sorted(
            p.name for p in out.glob("records_*.jsonl"))
        for path in golden:
            assert (out / path.name).read_bytes() == path.read_bytes(), path.name

    def test_replay_of_simulated_traces_reproduces_golden_records(self, tmp_path):
        traces = write_scenario_traces(tmp_path / "traces", scenario_suite_canonical())
        out = tmp_path / "out"
        assert run_cli("replay", "--traces", str(traces), "--out", str(out)) == 0
        golden = sorted(GOLDEN_RECORDS.glob("records_*.jsonl"))
        assert [p.name for p in golden] == sorted(p.name for p in out.glob("records_*.jsonl"))
        for path in golden:
            # The headers differ by command; every record line must match.
            replayed = (out / path.name).read_text().splitlines()[1:]
            assert replayed == path.read_text().splitlines()[1:], path.name

    def test_report_reproduces_golden_report(self, tmp_path):
        assert run_cli("report", "--records", str(GOLDEN_RECORDS), "--out", str(tmp_path)) == 0
        golden = sorted(GOLDEN_REPORT.iterdir())
        assert [p.name for p in golden] == sorted(p.name for p in tmp_path.iterdir())
        for path in golden:
            assert (tmp_path / path.name).read_bytes() == path.read_bytes(), path.name

    def test_a_group_split_across_two_files_makes_one_row(self, tmp_path, capsys):
        records = tmp_path / "records"
        records.mkdir()
        for path in GOLDEN_RECORDS.iterdir():
            (records / path.name).write_bytes(path.read_bytes())
        header, *lines = (GOLDEN_RECORDS / "records_fixed_b512.jsonl").read_text().splitlines(
            keepends=True)
        (records / "records_fixed_b512.jsonl").write_text(header + "".join(lines[:3]))
        more = records / "records_fixed_b512_more.jsonl"
        more.write_text(header + "".join(lines[3:]))
        assert run_cli("report", "--records", str(records), "--out", str(tmp_path / "out")) == 0
        assert ((tmp_path / "out" / "summary.csv").read_bytes()
                == (GOLDEN_REPORT / "summary.csv").read_bytes())
        # An example id in both files counts twice in one group.
        more.write_text(header + "".join(lines[2:]))
        capsys.readouterr()
        assert run_cli("report", "--records", str(records), "--out", str(tmp_path / "dup")) == 2
        example_id = json.loads(lines[2])["example_id"]
        assert capsys.readouterr().err == (
            f"error: records repeat example_id(s) [{example_id!r}] in one group\n")
        assert not (tmp_path / "dup" / "summary.csv").exists()
