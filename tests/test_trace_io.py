import base64
import copy
import dataclasses
import json
import re
import tracemalloc
from array import array
from pathlib import Path
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bithalt import cli, trace_io
from bithalt.calibrate import CalibratorConfig
from bithalt.cli import main
from bithalt.engine import EngineConfig, EpisodeRecord, Method, run_episode
from bithalt.errors import ConfigError, TraceParseError, UnsupportedSchemaError
from bithalt.metrics import emit_summary_table, summarize_all
from bithalt.policy import PolicyConfig
from bithalt.signals import StepSignals
from bithalt.simulate import Scenario, Segment, scenario_suite_canonical
from bithalt.trace_io import (
    ReplaySource,
    TraceMeta,
    from_fields,
    read_records,
    read_trace,
    require_finite,
    write_records,
    write_text,
    write_trace,
)


def make_steps(n=3, eos=True):
    steps = [
        StepSignals(chunk_text=f"chunk {i} text", tokens_in_chunk=16, entropy=1.5 + i)
        for i in range(n)
    ]
    if eos:
        steps[-1] = StepSignals(chunk_text=steps[-1].chunk_text, tokens_in_chunk=16,
                                entropy=steps[-1].entropy, eos=True)
    return steps


META = TraceMeta(example_id="gsm-0001", gold_answer=42.0, model="7b",
                 served_bits=4, prompt_digest="abc123")


class TestTraceRoundTrip:
    def test_three_step_file_replays_then_ends(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_trace(META, make_steps(3), path)
        meta, steps = read_trace(path)
        assert meta == META
        src = ReplaySource(steps)
        seen = [src.next_chunk(16) for _ in range(3)]
        assert all(s is not None for s in seen)
        assert seen[-1].eos is True
        assert src.next_chunk(16) is None

    def test_round_trip_equality(self, tmp_path):
        path = tmp_path / "t.jsonl"
        original = make_steps(5)
        write_trace(META, original, path)
        _, steps = read_trace(path)
        assert steps == original

    def test_distribution_variant_round_trips(self, tmp_path):
        path = tmp_path / "t.jsonl"
        steps = [StepSignals(chunk_text="x", tokens_in_chunk=4,
                             distribution=[0.5, 0.25, 0.25])]
        write_trace(META, steps, path)
        _, got = read_trace(path)
        assert got[0].distribution.tolist() == [0.5, 0.25, 0.25]


DATA = Path(__file__).resolve().parent / "data"
V1_TRACES = DATA / "trace_v1"
V1_GOLDEN_REPLAY = DATA / "golden_replay_trace_v1_b256"
float64s = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True, width=64)


def _bytes(values) -> bytes:
    return np.asarray(values, dtype="<f8").tobytes()


def _tiny_steps(drawn):
    """Steps of at most a few entries each: probs or entropy, and maybe hidden."""
    return [StepSignals(chunk_text=f"c{i}", tokens_in_chunk=4,
                        entropy=0.5 if probs is None else None, distribution=probs,
                        hidden=hidden)
            for i, (probs, hidden) in enumerate(drawn)]


TINY_STEPS = st.lists(st.tuples(st.one_of(st.none(), st.lists(float64s, max_size=4)),
                                st.one_of(st.none(), st.lists(float64s, max_size=3))),
                      min_size=1, max_size=4)


def _records(data: bytes, steps):
    """(start, end) byte spans of a v3 file's records, header first: each step's
    line together with the array bytes after it."""
    starts = [0, data.index(b"\n") + 1]
    for s in steps:
        arrays = sum(len(v) for v in (s.distribution, s.hidden) if v is not None)
        starts.append(data.index(b"\n", starts[-1]) + 1 + 8 * arrays)
    return list(zip(starts, starts[1:]))


class TestTraceV3:
    def test_arrays_are_float64_bytes_after_their_line_and_scalars_decimal(self, tmp_path):
        path = tmp_path / "t.jsonl"
        steps = [StepSignals(chunk_text="x", tokens_in_chunk=4, distribution=[0.5, 0.25, 0.25],
                             hidden=(0.1, -0.0)),
                 StepSignals(chunk_text="y", tokens_in_chunk=4, entropy=0.1, eos=True)]
        write_trace(META, steps, path)
        data = path.read_bytes()
        header, rest = data.split(b"\n", 1)
        first, rest = rest.split(b"\n", 1)
        assert json.loads(header)["schema"] == "trace/v3"
        assert json.loads(first) == {"step": 0, "chunk_text": "x", "tokens": 4, "probs": 3,
                                     "hidden": 2}
        # probs' bytes, then hidden's, then the next step's line.
        assert rest == (_bytes([0.5, 0.25, 0.25]) + _bytes([0.1, -0.0]) +
                        b'{"step": 1, "chunk_text": "y", "tokens": 4, "entropy": 0.1, '
                        b'"eos": true}\n')

    def test_arrays_read_back_as_float64_arrays(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_trace(META, [StepSignals(chunk_text="x", tokens_in_chunk=4, distribution=[1.0],
                                       hidden=[1.0, 2.0])], path)
        (step,) = read_trace(path)[1]
        assert step.distribution == array("d", [1.0]) and step.hidden == array("d", [1.0, 2.0])

    @given(st.lists(float64s, max_size=40), st.lists(float64s, max_size=40))
    @settings(max_examples=100)
    def test_round_trip_is_bit_exact(self, tmp_path_factory, probs, hidden):
        # Compared as bytes, so -0.0, subnormals, infinities and NaN payloads count.
        path = tmp_path_factory.mktemp("v3") / "t.jsonl"
        write_trace(META, [StepSignals(chunk_text="x", tokens_in_chunk=4, distribution=probs,
                                       hidden=hidden)], path)
        (step,) = read_trace(path)[1]
        assert step.distribution.tobytes() == _bytes(probs)
        assert step.hidden.tobytes() == _bytes(hidden)

    @given(TINY_STEPS, st.data())
    @settings(max_examples=200, deadline=None)
    def test_truncated_file_parses_to_a_prefix_or_names_the_cut_line(self, tmp_path_factory,
                                                                     drawn, data):
        steps = _tiny_steps(drawn)
        path = tmp_path_factory.mktemp("cut") / "t.jsonl"
        write_trace(META, steps, path)
        whole = path.read_bytes()
        cut = data.draw(st.integers(min_value=0, max_value=len(whole)))
        path.write_bytes(whole[:cut])
        try:
            got = read_trace(path)[1]
        except TraceParseError as exc:
            # The record the cut falls inside, or the header of an empty file.
            line = next((i + 1 for i, (start, end) in enumerate(_records(whole, steps))
                         if start < cut < end), 1)
            assert exc.line == line and str(exc).startswith(f"{path}:{line}: ")
        else:
            assert got == steps[:len(got)]

    @given(TINY_STEPS, st.data())
    @settings(max_examples=300, deadline=None)
    def test_a_wrong_count_parses_or_names_its_line(self, tmp_path_factory, drawn, data):
        steps = _tiny_steps(drawn)
        path = tmp_path_factory.mktemp("count") / "t.jsonl"
        write_trace(META, steps, path)
        whole = path.read_bytes()
        # A count the step had, or one added beside its entropy or as its hidden vector.
        i = data.draw(st.integers(min_value=0, max_value=len(steps) - 1))
        start, _ = _records(whole, steps)[i + 1]
        line_end = whole.index(b"\n", start)
        obj = json.loads(whole[start:line_end])
        value = obj[data.draw(st.sampled_from(["probs", "hidden"]))] = data.draw(st.one_of(
            st.booleans(), st.floats(), st.integers(max_value=-1), st.text(max_size=8),
            # trace/v2's base64 and trace/v1's list forms of an array, which are no count
            st.just(base64.b64encode(_bytes([1.0])).decode()), st.just([1.0]),
            st.integers(min_value=0, max_value=len(whole) // 8),
            st.integers(min_value=len(whole) // 8 + 1)))  # past the end of the file
        path.write_bytes(whole[:start] + json.dumps(obj).encode() + whole[line_end:])
        try:
            read_trace(path)
        except TraceParseError as exc:
            # A count that fits may misalign what follows, so a later line may fail.
            fits = type(value) is int and 0 <= 8 * value < len(whole) - line_end
            assert exc.line == i + 2 or (fits and exc.line > i + 2)
            assert str(exc).startswith(f"{path}:{exc.line}: ")
            assert fits or str(exc).startswith(f"{path}:{i + 2}: invalid step: array ")
        else:
            assert type(value) is int

    @pytest.mark.parametrize("key", ["probs", "hidden"])
    @pytest.mark.parametrize("value,message", [
        (base64.b64encode(_bytes([1.0])).decode(), "element count"),  # trace/v2's form
        ([1.0], "element count"),  # trace/v1's form
        ({"0": 1.0}, "element count"),
        ("1", "element count"),
        (True, "element count"),
        (1.0, "element count"),
        (-1, "element count"),
        (3, "runs past the end of the file"),
    ])
    def test_malformed_array_is_parse_error_at_its_line(self, tmp_path, key, value, message):
        good = {"step": 0, "chunk_text": "x", "tokens": 4, "probs": 1}
        bad = {"step": 1, "chunk_text": "y", "tokens": 4, "probs": 1, key: value}
        path = tmp_path / "t.jsonl"
        # Each line's one probs entry; two entries follow the bad line, short of three.
        path.write_bytes(b"\n".join([json.dumps({"schema": "trace/v3", "example_id": "e",
                                                 "gold_answer": 1.0}).encode(),
                                     json.dumps(good).encode(), _bytes([1.0]) +
                                     json.dumps(bad).encode()]) + b"\n" + _bytes([1.0, 1.0]))
        with pytest.raises(TraceParseError, match=message) as exc:
            read_trace(path)
        assert exc.value.line == 3
        assert str(exc.value).startswith(f"{path}:3: invalid step: array ")


class TestTraceV1:
    """tests/data/trace_v1 holds a trace first written as trace/v1 and kept as its trace/v3
    rewrite; its replay records at B=256 were written by the trace/v1 writer's build."""

    def test_replays_to_the_recorded_records_and_rewrites_to_itself(self, tmp_path):
        path = V1_TRACES / "nan_hidden.jsonl"
        assert json.loads(path.read_bytes().split(b"\n", 1)[0])["schema"] == "trace/v3"
        write_trace(*read_trace(path), tmp_path / "rewrite.jsonl")
        assert (tmp_path / "rewrite.jsonl").read_bytes() == path.read_bytes()
        golden = sorted(V1_GOLDEN_REPLAY.glob("records_*.jsonl"))
        assert len(golden) == 3
        out = tmp_path / "out"
        assert main(["replay", "--traces", str(V1_TRACES), "--budgets", "256",
                     "--out", str(out)]) == 0
        for path in golden:
            assert (out / path.name).read_bytes() == path.read_bytes(), path.name
        # fixed reads to eos, adaptive stops on the marker, and bitcal's tail
        # reaches the NaN hidden entry.
        by_method = {list(read_records(p)[1])[0].method: list(read_records(p)[1])[0]
                     for p in golden}
        assert by_method["fixed"].error is None and by_method["adaptive"].error is None
        assert "non-finite" in by_method["bitcal"].error

    def test_each_mid_run_error_names_its_cell(self, tmp_path, caplog, capsys):
        # Past a floor of 4096 every controller cell reaches the NaN hidden entry;
        # the B=200 cells split from the pass at token 192 and log after it.
        assert main(["sweep", "--traces", str(V1_TRACES), "--budgets", "200,256",
                     "--floor", "4096", "--out", str(tmp_path / "out")]) == 2
        assert [r.getMessage() for r in caplog.records] == [
            f"episode v1-nan-hidden {method} B={budget} errored mid-run: "
            "hidden vector contains non-finite entries"
            for budget in (256, 200) for method in ("adaptive", "bitcal")]
        # Every record of each controller group errored, so report names each one and
        # gives it no row; the fixed groups keep theirs.
        assert capsys.readouterr().err.splitlines()[-4:] == [
            f"error: all records errored for model '7b', method {method}, B={budget}"
            for budget in (200, 256) for method in ("adaptive", "bitcal")]
        rows = (tmp_path / "out" / "summary.csv").read_text().splitlines()[1:]
        assert [row.split(",")[:2] for row in rows] == [["fixed", "200"], ["fixed", "256"]]

    @pytest.mark.parametrize("schema", ["trace/v1", "trace/v2"])
    def test_an_older_schema_is_refused_and_the_other_traces_replay(self, tmp_path, capsys,
                                                                      schema):
        traces = tmp_path / "traces"
        traces.mkdir()
        write_trace(META, make_steps(3), traces / "a.jsonl")
        old = traces / "b.jsonl"
        old.write_text("\n".join([
            json.dumps({"schema": schema, "example_id": "old", "gold_answer": 1.0}),
            json.dumps({"step": 0, "chunk_text": "#### 1", "tokens": 4, "probs": [1.0],
                        "eos": True})]) + "\n")
        with pytest.raises(UnsupportedSchemaError) as exc:
            read_trace(old)
        assert str(exc.value) == f"{old}:1: unsupported schema {schema!r}"
        out = tmp_path / "out"
        assert main(["replay", "--traces", str(traces), "--budgets", "256",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {old}:1: unsupported schema {schema!r}\n"
        for method in Method:
            (record,) = read_records(out / f"records_{method.value}_b256.jsonl")[1]
            assert record.example_id == META.example_id and record.error is None


class TestTraceValidation:
    def _write_lines(self, tmp_path, lines):
        path = tmp_path / "t.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def header(self):
        return json.dumps({"schema": "trace/v3", "example_id": "e", "gold_answer": 1.0})

    def test_both_entropy_and_probs_rejected_with_line_number(self, tmp_path):
        for signal in ({"entropy": 1.0, "probs": 1}, {}):
            path = self._write_lines(tmp_path, [
                self.header(),
                json.dumps({"step": 0, "chunk_text": "x", "tokens": 4, **signal}),
            ])
            if signal:  # the one probs entry's bytes follow its line
                with open(path, "ab") as f:
                    f.write(_bytes([1.0]))
            with pytest.raises(TraceParseError) as exc:
                read_trace(path)
            assert exc.value.line == 2, signal

    @pytest.mark.parametrize("change,error", [
        ({"chunk_text": None}, "invalid step: chunk_text must not be null"),
        ({"eos": None}, "invalid step: eos must not be null"),
        ({"eos": 1}, "invalid step: eos must be a bool, got 1"),
        ({"tokens": True}, "invalid step: tokens must not be a bool, got True"),
        ({"tokens": 12.9}, "invalid step: tokens must be an integer, got 12.9"),
        ({"entropy": False}, "invalid step: entropy must not be a bool, got False"),
        ({"tokens": ...}, "invalid step: 'tokens'"),  # ... drops the key
        ({"step": True}, "non-contiguous step index True, expected 1"),
    ])
    def test_a_step_value_with_another_meaning_is_a_parse_error(self, tmp_path, change,
                                                                  error):
        step = {"step": 1, "chunk_text": "y", "tokens": 4, "entropy": 1.0, **change}
        path = self._write_lines(tmp_path, [
            self.header(),
            json.dumps({"step": 0, "chunk_text": "x", "tokens": 4, "entropy": 1.0}),
            json.dumps({k: v for k, v in step.items() if v is not ...}),
        ])
        with pytest.raises(TraceParseError) as exc:
            read_trace(path)
        assert str(exc.value) == f"{path}:3: {error}"

    def test_non_contiguous_steps_rejected(self, tmp_path):
        path = self._write_lines(tmp_path, [
            self.header(),
            json.dumps({"step": 0, "chunk_text": "x", "tokens": 4, "entropy": 1.0}),
            json.dumps({"step": 2, "chunk_text": "y", "tokens": 4, "entropy": 1.0}),
        ])
        with pytest.raises(TraceParseError) as exc:
            read_trace(path)
        assert exc.value.line == 3

    def test_unknown_schema_rejected(self, tmp_path):
        path = self._write_lines(tmp_path, [
            json.dumps({"schema": "trace/v99", "example_id": "e", "gold_answer": 1.0}),
        ])
        with pytest.raises(UnsupportedSchemaError):
            read_trace(path)

    def test_steps_after_eos_rejected(self, tmp_path):
        path = self._write_lines(tmp_path, [
            self.header(),
            json.dumps({"step": 0, "chunk_text": "x", "tokens": 4, "entropy": 1.0,
                        "eos": True}),
            json.dumps({"step": 1, "chunk_text": "y", "tokens": 4, "entropy": 1.0}),
        ])
        with pytest.raises(TraceParseError):
            read_trace(path)

    def test_line_separators_inside_strings_stay_in_their_line(self, tmp_path):
        # U+2028, U+2029 and U+0085 are legal unescaped in a JSON string; only
        # "\n" ends a line.
        text = "a\u2028b\u2029c\x85d #### 42\n"
        path = self._write_lines(tmp_path, [
            self.header(),
            json.dumps({"step": 0, "chunk_text": text, "tokens": 4, "entropy": 1.0},
                       ensure_ascii=False),
            json.dumps({"step": 1, "chunk_text": "y", "tokens": 4, "entropy": 1.0}),
            "{broken",
        ])
        with pytest.raises(TraceParseError) as exc:
            read_trace(path)
        assert exc.value.line == 4
        path.write_text(path.read_text(encoding="utf-8").replace("{broken\n", ""),
                        encoding="utf-8")
        _, steps = read_trace(path)
        assert [s.chunk_text for s in steps] == [text, "y"]

    @pytest.mark.parametrize("kind", ["trace", "records"])
    def test_blank_body_lines_are_skipped(self, tmp_path, kind):
        path = tmp_path / "t.jsonl"
        if kind == "trace":
            write_trace(META, make_steps(3), path)
            read = read_trace
        else:
            write_records([sample_record(i) for i in range(3)], path)
            read = read_whole_records
        expected = read(path)
        header, *body = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join([header, "", *body[:2], "  \t", *body[2:], ""]) + "\n",
                        encoding="utf-8")
        assert read(path) == expected

    def test_invalid_utf8_is_a_parse_error_naming_its_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_trace(META, make_steps(3), path)
        with open(path, "ab") as f:
            f.write(b"\xff\xfe\n")
        with pytest.raises(TraceParseError, match=r":5: invalid UTF-8") as exc:
            read_trace(path)
        assert exc.value.line == 5

    def test_header_errors_match_the_full_read(self, tmp_path):
        # read_trace, the one read of a trace, names line 1 for each header error.
        bad = [json.dumps({"schema": "trace/v3", "example_id": "e"}),  # no gold_answer
               json.dumps({"schema": "trace/v3", "example_id": "e", "gold_answer": 1.0,
                           "served_bits": 0}),
               json.dumps({"schema": "trace/v3", "example_id": "e", "gold_answer": 1.0,
                           "served_bits": 4.7}),
               json.dumps({"schema": "trace/v3", "example_id": "e",
                           "gold_answer": float("nan")}),
               json.dumps({"schema": "trace/v99", "example_id": "e", "gold_answer": 1.0}),
               "[]"]
        for header in bad:
            path = self._write_lines(tmp_path, [header])
            with pytest.raises(TraceParseError) as exc:
                read_trace(path)
            assert str(exc.value).startswith(f"{path}:1: ")
        path.write_bytes(b"")
        with pytest.raises(TraceParseError, match="empty file"):
            read_trace(path)

    def test_replayed_trace_drives_engine(self, tmp_path):
        steps = [
            StepSignals(chunk_text="working on it\n", tokens_in_chunk=16, entropy=3.0)
            for _ in range(12)
        ] + [StepSignals(chunk_text="#### 42\n", tokens_in_chunk=8, entropy=0.5, eos=True)]
        path = tmp_path / "t.jsonl"
        write_trace(META, steps, path)
        meta, got = read_trace(path)
        cfg = EngineConfig(method=Method.FIXED, budget=512, served_bits=meta.served_bits)
        rec = run_episode(ReplaySource(got), cfg, meta.gold_answer, meta.example_id)
        assert rec.tokens_used == 200
        assert rec.correct is True


def _working(i, hidden=None):
    return StepSignals(chunk_text=f"working line {i}\n", tokens_in_chunk=16, entropy=3.0,
                       hidden=hidden)


class TestMalformedHidden:
    """A malformed hidden vector errors an adaptive or bitcal episode at the
    first decision with two or more hidden vectors, never on an eos step, and
    never a fixed one. Expected values were taken from the batch signal path."""

    CASES = {
        # NaN in the first vector: read only once a second vector arrives.
        "nan": ([_working(0, (float("nan"), 1.0)), _working(1), _working(2, (1.0, 0.0))]
                + [_working(i, (1.0, 0.0)) for i in range(3, 10)],
                3, 48, "InvalidInputError: hidden vector contains non-finite entries"),
        # Finite entries whose squared norm is past float64 range: the first once
        # crashed the run in fsum, the second was read as a zero vector.
        **{name: ([_working(0, hidden), _working(1), _working(2, (1.0, 0.0))]
                  + [_working(i, (1.0, 0.0)) for i in range(3, 10)],
                  3, 48, "InvalidInputError: hidden vector's squared norm overflows float64")
           for name, hidden in (("overflow", (1e154, 1e154)), ("overflow-inf", (1e200, 0.0)))},
        "dim": ([_working(i, (1.0, 0.0)) for i in range(5)] + [_working(5, (1.0, 0.0, 0.0))]
                + [_working(i, (1.0, 0.0)) for i in range(6, 10)],
                6, 96, "InvalidInputError: hidden vectors must share one dimension"),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_error_step_matches_batch_path(self, tmp_path, name):
        steps, n_steps, tokens, error = self.CASES[name]
        write_trace(TraceMeta(example_id=name, gold_answer=42.0), steps, tmp_path / "t.jsonl")
        _, got = read_trace(tmp_path / "t.jsonl")
        for method in Method:
            rec = run_episode(ReplaySource(got), EngineConfig(method, 512), 42.0, name)
            if method is Method.FIXED:
                assert (rec.steps, rec.tokens_used, rec.error) == (10, 160, None)
            else:
                assert (rec.steps, rec.tokens_used, rec.error) == (n_steps, tokens, error)
                assert rec.stop_cause == "eos" and rec.correct is False

    def test_overflowing_norm_errors_its_cells_and_the_replay_goes_on(self, tmp_path):
        # An errored episode is a record, not a failed command.
        traces = tmp_path / "traces"
        traces.mkdir()
        write_trace(TraceMeta(example_id="big", gold_answer=42.0), self.CASES["overflow"][0],
                    traces / "big.jsonl")
        out = tmp_path / "out"
        assert main(["replay", "--traces", str(traces), "--budgets", "512",
                     "--out", str(out)]) == 0
        errors = {m.value: list(read_records(out / f"records_{m.value}_b512.jsonl")[1])[0].error
                  for m in Method}
        assert errors == {"fixed": None, **dict.fromkeys(
            ("adaptive", "bitcal"), "InvalidInputError: hidden vector's squared norm overflows "
            "float64")}

    def test_malformed_vector_on_eos_step_is_never_read(self, tmp_path):
        steps = [_working(0, (1.0, 0.0))] + [_working(i) for i in range(1, 9)] + [
            StepSignals(chunk_text="#### 42\n", tokens_in_chunk=8, entropy=0.5,
                        hidden=(float("nan"), 0.0), eos=True)]
        write_trace(TraceMeta(example_id="eos", gold_answer=42.0), steps, tmp_path / "t.jsonl")
        _, got = read_trace(tmp_path / "t.jsonl")
        for method in Method:
            rec = run_episode(ReplaySource(got), EngineConfig(method, 512), 42.0, "eos")
            assert (rec.steps, rec.tokens_used, rec.error, rec.correct) == (10, 152, None, True)


def read_whole_records(path):
    """``read_records`` with its body read to the end."""
    header, body = read_records(path)
    return header, list(body)


def sample_record(i=0, **overrides):
    base = dict(
        example_id=f"ex-{i:04d}",
        method="bitcal",
        budget=512,
        tokens_used=192,
        steps=12,
        actions=(("continue", "floor", 16), ("stop", "tail_stop", 192)),
        stop_cause="tail_stop",
        first_marker_tokens=160,
        generated_text="text #### 42",
        predicted_answer=42.0,
        gold_answer=42.0,
        correct=True,
        early_halt=True,
        model="7b",
        error=None,
    )
    base.update(overrides)
    return EpisodeRecord(**base)


class TestFromFields:
    def test_defaults_nulls_and_coercion_follow_the_fields(self):
        header = {"schema": "trace/v3", "example_id": "7", "gold_answer": 42, "served_bits": 8.0}
        assert from_fields(TraceMeta, header) == TraceMeta("7", 42.0, served_bits=8)
        for change, error in [  # no value of another JSON kind is converted
            ({"example_id": 7}, "example_id must be a string, got 7"),
            ({"model": ["m"]}, "model must be a string, got ['m']"),
            ({"prompt_digest": {"a": 1}}, "prompt_digest must be a string, got {'a': 1}"),
            ({"gold_answer": "42"}, "gold_answer must be a number, got '42'"),
            ({"served_bits": "8"}, "served_bits must be an integer, got '8'"),
        ]:
            with pytest.raises(TypeError, match=f"^{re.escape(error)}$"):
                from_fields(TraceMeta, {**header, **change})
        with pytest.raises(KeyError):
            from_fields(TraceMeta, {"example_id": "e"})
        with pytest.raises(TypeError):
            from_fields(TraceMeta, {"example_id": "e", "gold_answer": 1.0, "model": None})
        rec = sample_record(first_marker_tokens=None, predicted_answer=None, model="")
        obj = {f.name: getattr(rec, f.name) for f in dataclasses.fields(rec)}
        del obj["model"], obj["error"]
        assert from_fields(EpisodeRecord, obj, actions=tuple) == rec

    @pytest.mark.parametrize("change,error", [
        ({"served_bits": 4.7}, "served_bits must be an integer, got 4.7"),
        ({"served_bits": True}, "served_bits must not be a bool, got True"),
        ({"gold_answer": True}, "gold_answer must not be a bool, got True"),
        ({"example_id": False}, "example_id must not be a bool, got False"),
        ({"gold_answer": float("nan")}, "gold_answer must be finite, got nan"),
        ({"gold_answer": float("inf")}, "gold_answer must be finite, got inf"),
    ])
    def test_a_header_value_with_another_meaning_is_refused(self, change, error):
        header = {"example_id": "e", "gold_answer": 42.0, **change}
        with pytest.raises((TypeError, ValueError), match=f"^{error}$"):
            from_fields(TraceMeta, header)

    @pytest.mark.parametrize("change,error", [
        ({"correct": "false"}, "correct must be a bool, got 'false'"),
        ({"early_halt": 0}, "early_halt must be a bool, got 0"),
        ({"tokens_used": 12.9}, "tokens_used must be an integer, got 12.9"),
        ({"first_marker_tokens": float("inf")}, "first_marker_tokens must be an integer, got inf"),
        ({"budget": True}, "budget must not be a bool, got True"),
    ])
    def test_a_record_value_with_another_meaning_is_refused(self, change, error):
        rec = sample_record()
        obj = {**{f.name: getattr(rec, f.name) for f in dataclasses.fields(rec)}, **change}
        with pytest.raises((TypeError, ValueError), match=f"^{error}$"):
            from_fields(EpisodeRecord, obj, actions=tuple)


@dataclasses.dataclass(frozen=True)
class _OptionalFloat:
    """Declared in a module that does not defer annotations, so each field's type is a
    typing object, not the string it is spelt as."""
    x: Optional[float] = None

    def __post_init__(self):
        require_finite(self)


class TestFloatFieldsAreFinite:
    """One type rule: ``require_finite`` checks the fields that ``_field_plan`` resolves to
    float, however their annotations are spelt, and a flag's type is that same type."""

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_an_optional_float_annotation_object_is_checked(self, value):
        with pytest.raises(ConfigError, match=f"^x must be finite, got {value!r}$") as info:
            _OptionalFloat(value)
        assert info.value.field == "x"

    def test_an_unset_optional_float_passes(self):
        assert _OptionalFloat().x is None and _OptionalFloat(2.5).x == 2.5

    @pytest.mark.parametrize("config,checked", [
        (CalibratorConfig(), ("h_max", "w_entropy", "w_trace", "w_hidden", "temperature")),
        (PolicyConfig(), ("theta_h", "theta_c", "theta_e")),
        (Segment(4, 0.5, "t"), ("entropy", "hidden_rotation")),
        (Scenario("s", (Segment(4, 0.5, "t"),), 1.0, 1.0), ("gold_answer", "emitted_answer")),
        (TraceMeta("e", 1.0), ("gold_answer",)),
    ], ids=["CalibratorConfig", "PolicyConfig", "Segment", "Scenario", "TraceMeta"])
    def test_exactly_the_float_fields_are_checked(self, config, checked):
        require_finite(config)
        for f in dataclasses.fields(config):
            bad = copy.copy(config)
            object.__setattr__(bad, f.name, float("nan"))
            if f.name in checked:
                with pytest.raises(ConfigError, match=f"^{f.name} must be finite, got nan$"):
                    require_finite(bad)
            else:
                require_finite(bad)

    def test_a_flag_and_a_config_file_value_share_the_fields_type(self):
        for key, (cls, name, _) in cli.CONFIG_FIELDS.items():
            resolved = next(tp for field, _, _, _, tp in trace_io._field_plan(cls)
                            if field == name)
            assert type(cli.DEFAULTS[key]) is resolved, key


class TestRecordFiles:
    def test_empty_list_gives_header_only(self, tmp_path):
        path = tmp_path / "r.jsonl"
        write_records([], path)
        assert len(path.read_text().splitlines()) == 1
        assert list(read_records(path)[1]) == []

    def test_line_separators_inside_strings_stay_in_their_line(self, tmp_path):
        path = tmp_path / "r.jsonl"
        recs = [sample_record(0, generated_text="x\u2028y\u2029z\x85 #### 42"),
                sample_record(1)]
        write_records(recs, path)
        lines = path.read_text().splitlines()
        lines[1] = json.dumps(json.loads(lines[1]), ensure_ascii=False)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert "\u2028" in path.read_text(encoding="utf-8")
        assert list(read_records(path)[1]) == recs

    def test_invalid_utf8_is_a_parse_error_naming_its_line(self, tmp_path):
        path = tmp_path / "r.jsonl"
        write_records([sample_record(i) for i in range(3)], path)
        with open(path, "ab") as f:
            f.write(b"\xff\xfe\n")
        with pytest.raises(TraceParseError, match=r":5: invalid UTF-8") as exc:
            list(read_records(path)[1])
        assert exc.value.line == 5

    def test_actions_refuse_a_fractional_token_count(self, tmp_path):
        path = tmp_path / "r.jsonl"
        write_records([sample_record(0)], path)
        lines = path.read_text().splitlines()
        lines[1] = lines[1].replace('"tail_stop", 192]', '"tail_stop", 192.5]')
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(TraceParseError,
                           match=r":2: invalid record: actions must be an integer, got 192.5"):
            list(read_records(path)[1])

    def test_a_bad_middle_line_raises_only_when_reached(self, tmp_path):
        path = tmp_path / "r.jsonl"
        write_records([sample_record(i) for i in range(3)], path)
        lines = path.read_text().splitlines()
        lines[2] = "{broken"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        header, records = read_records(path)
        assert header == {"schema": "records/v1"}
        assert next(records) == sample_record(0)
        with pytest.raises(TraceParseError, match=r":3: invalid JSON") as exc:
            next(records)
        assert exc.value.line == 3

    @pytest.mark.parametrize("taken", [0, 1, None])  # none, the first record, or to the end
    def test_a_dropped_or_finished_iterator_closes_its_file(self, tmp_path, monkeypatch, taken):
        path = tmp_path / "r.jsonl"
        write_records([sample_record(i) for i in range(3)], path)
        opened = []
        monkeypatch.setattr(trace_io, "open", lambda *a: opened.append(open(*a)) or opened[-1],
                            raising=False)
        _, records = read_records(path)
        got = list(records) if taken is None else [next(records) for _ in range(taken)]
        assert got == [sample_record(i) for i in range(3 if taken is None else taken)]
        assert len(opened) == 1 and opened[0].closed is (taken is None)
        del records
        assert opened[0].closed

    def test_line_count(self, tmp_path):
        path = tmp_path / "r.jsonl"
        write_records([sample_record(i) for i in range(54)], path)
        assert len(path.read_text().splitlines()) == 55

    def test_round_trip_equality(self, tmp_path):
        path = tmp_path / "r.jsonl"
        records = [
            sample_record(0),
            sample_record(1, predicted_answer=None, first_marker_tokens=None,
                          correct=False, stop_cause="budget_exhausted",
                          early_halt=False, actions=()),
            sample_record(2, error="RuntimeError: boom", correct=False),
        ]
        write_records(records, path)
        assert list(read_records(path)[1]) == records

    def test_metadata_lands_in_header(self, tmp_path):
        path = tmp_path / "r.jsonl"
        write_records([], path, metadata={"counterfactual_replay": True})
        header, _ = read_records(path)
        assert header["counterfactual_replay"] is True

    def test_numeric_precision_at_least_nine_digits(self, tmp_path):
        path = tmp_path / "r.jsonl"
        value = 1.2345678912345
        write_records([sample_record(0, predicted_answer=value, gold_answer=value)], path)
        got = list(read_records(path)[1])
        assert abs(got[0].predicted_answer - value) < 1e-9
        assert got[0].predicted_answer == value  # repr round-trip is exact

    def test_write_holds_one_encoded_record_at_a_time(self, tmp_path):
        records = [sample_record(i, generated_text="x" * 100_000) for i in range(20)]
        write_records(records[:1], tmp_path / "one.jsonl")
        one = (tmp_path / "one.jsonl").stat().st_size
        write_records(records, tmp_path / "all.jsonl")  # the path's first write, untraced
        tracemalloc.start()
        try:
            write_records(records, tmp_path / "all.jsonl")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * one, (peak, one)

    @given(
        # A tail stop the engine can write: after the marker's 32-token tail, short of B=512.
        st.integers(min_value=192, max_value=511),
        st.floats(allow_nan=False, allow_infinity=False, width=64),
        st.one_of(st.none(), st.floats(allow_nan=False, allow_infinity=False, width=64)),
        st.text(max_size=40),
        st.booleans(),
    )
    @settings(max_examples=100)
    def test_randomized_round_trip(self, tmp_path_factory, tokens, gold, predicted,
                                   text, correct):
        path = tmp_path_factory.mktemp("rr") / "r.jsonl"
        rec = sample_record(0, tokens_used=tokens, gold_answer=gold,
                            actions=(("continue", "floor", 16), ("stop", "tail_stop", tokens)),
                            predicted_answer=predicted, generated_text=text,
                            correct=correct)
        write_records([rec], path)
        assert list(read_records(path)[1]) == [rec]


class TestAtomicWrite:
    WRITERS = {
        "records": lambda path: write_records([sample_record(i) for i in range(20)], path),
        "trace": lambda path: write_trace(TraceMeta("t", 42.0), make_steps(5), path),
        "summary": lambda path: emit_summary_table(
            summarize_all([sample_record(i) for i in range(20)], []), path),
        "scenario": lambda path: write_text(
            path, json.dumps(dataclasses.asdict(scenario_suite_canonical()[1]))),
    }

    @pytest.mark.parametrize("writer", sorted(WRITERS))
    @pytest.mark.parametrize("old", [None, b"old bytes\n"])
    def test_failed_write_leaves_old_file_and_no_temp(self, tmp_path, monkeypatch, writer, old):
        whole = tmp_path / "whole"
        self.WRITERS[writer](whole)
        half = whole.stat().st_size // 2
        whole.unlink()
        path = tmp_path / "out.jsonl"
        if old is not None:
            path.write_bytes(old)

        class FullDisk:
            """A file that takes the first ``half`` bytes written to it, then fails."""

            def __init__(self, f):
                self.f, self.room = f, half

            def write(self, data):
                data = memoryview(data).cast("B")
                self.f.write(data[: self.room])
                self.room -= len(data)
                if self.room < 0:
                    raise OSError(28, "No space left on device")

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

        # Every output is written through the files trace_io opens, a line or a whole
        # text at a time, so the writer fails halfway through what it writes.
        monkeypatch.setattr(trace_io, "open", lambda *a: FullDisk(open(*a)), raising=False)
        with pytest.raises(OSError, match="out.jsonl"):
            self.WRITERS[writer](path)
        monkeypatch.undo()
        assert [p.name for p in tmp_path.iterdir()] == ([] if old is None else ["out.jsonl"])
        if old is not None:
            assert path.read_bytes() == old

    def test_replaces_old_file_and_leaves_no_temp(self, tmp_path):
        path = tmp_path / "out.json"
        path.write_text("old contents, longer than the new\n")
        write_text(path, "new\n")
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]
        assert path.read_text() == "new\n"
