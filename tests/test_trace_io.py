import base64
import dataclasses
import json
import math
import re
from array import array
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bithalt.cli import main
from bithalt.engine import EngineConfig, EpisodeRecord, Method, run_episode
from bithalt.errors import TraceParseError, UnsupportedSchemaError
from bithalt.metrics import emit_summary_table, summarize_all
from bithalt.signals import StepSignals
from bithalt.simulate import scenario_suite_canonical
from bithalt.trace_io import (
    ReplaySource,
    TraceMeta,
    from_fields,
    read_records,
    read_trace,
    read_trace_meta,
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


class TestTraceV2:
    def test_arrays_are_base64_float64_and_scalars_decimal(self, tmp_path):
        path = tmp_path / "t.jsonl"
        steps = [StepSignals(chunk_text="x", tokens_in_chunk=4, distribution=[0.5, 0.25, 0.25],
                             hidden=(0.1, -0.0)),
                 StepSignals(chunk_text="y", tokens_in_chunk=4, entropy=0.1, eos=True)]
        write_trace(META, steps, path)
        header, first, second = (json.loads(line) for line in path.read_text().splitlines())
        assert header["schema"] == "trace/v2"
        assert base64.b64decode(first["probs"]) == _bytes([0.5, 0.25, 0.25])
        assert base64.b64decode(first["hidden"]) == _bytes([0.1, -0.0])
        assert '"entropy": 0.1' in path.read_text().splitlines()[2]
        assert second["entropy"] == 0.1 and first["tokens"] == 4

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
        path = tmp_path_factory.mktemp("v2") / "t.jsonl"
        write_trace(META, [StepSignals(chunk_text="x", tokens_in_chunk=4, distribution=probs,
                                       hidden=hidden)], path)
        (step,) = read_trace(path)[1]
        assert step.distribution.tobytes() == _bytes(probs)
        assert step.hidden.tobytes() == _bytes(hidden)

    @pytest.mark.parametrize("key", ["probs", "hidden"])
    @pytest.mark.parametrize("value,message", [
        ("not base64!", "invalid base64"),
        (base64.b64encode(bytes(12)).decode(), "not a multiple of 8"),
        (5, "base64 string or a list"),
        ({"0": 1.0}, "base64 string or a list"),
        (True, "base64 string or a list"),
        ([0.5, None], "float()"),
        ([[0.5]], "float()"),
    ])
    def test_malformed_array_is_parse_error_at_its_line(self, tmp_path, key, value, message):
        good = {"step": 0, "chunk_text": "x", "tokens": 4, "probs": [1.0]}
        bad = {"step": 1, "chunk_text": "y", "tokens": 4, "probs": [1.0], key: value}
        path = tmp_path / "t.jsonl"
        path.write_text("\n".join([json.dumps({"schema": "trace/v2", "example_id": "e",
                                               "gold_answer": 1.0}),
                                   json.dumps(good), json.dumps(bad)]) + "\n")
        with pytest.raises(TraceParseError, match=message) as exc:
            read_trace(path)
        assert exc.value.line == 3


class TestTraceV1:
    """A trace written by the decimal-array writer (trace/v1) still reads and
    replays as it did: tests/data/trace_v1 and its replay records at B=256 were
    both written by that writer's build."""

    def test_reads_to_the_arrays_of_its_v2_rewrite(self, tmp_path):
        meta, steps = read_trace(V1_TRACES / "nan_hidden.jsonl")
        lines = (V1_TRACES / "nan_hidden.jsonl").read_text().splitlines()
        assert json.loads(lines[0])["schema"] == "trace/v1"
        raw = [json.loads(line) for line in lines[1:]]
        for step, obj in zip(steps, raw):
            if "probs" in obj:
                assert step.distribution.tobytes() == _bytes(obj["probs"])
            if "hidden" in obj:
                assert step.hidden.tobytes() == _bytes(obj["hidden"])
        assert sum(math.isnan(h) for s in steps if s.hidden is not None for h in s.hidden) == 1
        write_trace(meta, steps, tmp_path / "v2.jsonl")
        meta2, steps2 = read_trace(tmp_path / "v2.jsonl")
        assert meta2 == meta and len(steps2) == len(steps) == 15
        for a, b in zip(steps, steps2):
            assert (a.chunk_text, a.tokens_in_chunk, a.entropy, a.eos) == (
                b.chunk_text, b.tokens_in_chunk, b.entropy, b.eos)
            for x, y in ((a.distribution, b.distribution), (a.hidden, b.hidden)):
                assert (x is None and y is None) or x.tobytes() == y.tobytes()

    def test_v1_and_its_v2_rewrite_replay_to_the_recorded_records(self, tmp_path):
        v2 = tmp_path / "v2"
        v2.mkdir()
        write_trace(*read_trace(V1_TRACES / "nan_hidden.jsonl"), v2 / "nan_hidden.jsonl")
        golden = sorted(V1_GOLDEN_REPLAY.glob("records_*.jsonl"))
        assert len(golden) == 3
        for traces in (V1_TRACES, v2):
            out = tmp_path / ("out_" + traces.name)
            assert main(["replay", "--traces", str(traces), "--budgets", "256",
                         "--out", str(out)]) == 0
            for path in golden:
                assert (out / path.name).read_bytes() == path.read_bytes(), path.name
        # fixed reads to eos, adaptive stops on the marker, and bitcal's tail
        # reaches the NaN hidden entry.
        by_method = {read_records(p)[1][0].method: read_records(p)[1][0] for p in golden}
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
        # Every record of the adaptive B=200 group errored, so report refuses it by name.
        assert capsys.readouterr().err.splitlines()[-1] == (
            "error: all records errored for model '7b', method adaptive, B=200")

    @pytest.mark.parametrize("probs", [["0.5", "0.5"], [True, False]])
    def test_list_element_that_is_not_a_number_is_parse_error(self, tmp_path, capsys, probs):
        # float() would read "0.5" as 0.5 and true as 1.0; a JSON list in a
        # trace holds numbers only.
        traces = tmp_path / "traces"
        traces.mkdir()
        path = traces / "t.jsonl"
        path.write_text("\n".join([
            json.dumps({"schema": "trace/v1", "example_id": "e", "gold_answer": 1.0}),
            json.dumps({"step": 0, "chunk_text": "#### 1", "tokens": 4, "probs": probs,
                        "eos": True})]) + "\n")
        with pytest.raises(TraceParseError, match="must") as exc:
            read_trace(path)
        assert (exc.value.line, Path(exc.value.path)) == (2, path)
        assert main(["replay", "--traces", str(traces), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}:2: ")


class TestTraceValidation:
    def _write_lines(self, tmp_path, lines):
        path = tmp_path / "t.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def header(self):
        return json.dumps({"schema": "trace/v1", "example_id": "e", "gold_answer": 1.0})

    def test_both_entropy_and_probs_rejected_with_line_number(self, tmp_path):
        for signal in ({"entropy": 1.0, "probs": [1.0]}, {}):
            path = self._write_lines(tmp_path, [
                self.header(),
                json.dumps({"step": 0, "chunk_text": "x", "tokens": 4, **signal}),
            ])
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
            read = read_records
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

    def test_header_read_stops_at_the_first_line(self, tmp_path):
        # The body is never read: a broken line after the header goes unnoticed.
        path = self._write_lines(tmp_path, [self.header(), "{broken"])
        with open(path, "ab") as f:
            f.write(b"\xff\xfe\n")
        assert read_trace_meta(path) == TraceMeta(example_id="e", gold_answer=1.0)
        with pytest.raises(TraceParseError) as exc:
            read_trace(path)
        assert exc.value.line == 2

    def test_header_errors_match_the_full_read(self, tmp_path):
        bad = [json.dumps({"schema": "trace/v1", "example_id": "e"}),  # no gold_answer
               json.dumps({"schema": "trace/v1", "example_id": "e", "gold_answer": 1.0,
                           "served_bits": 0}),
               json.dumps({"schema": "trace/v1", "example_id": "e", "gold_answer": 1.0,
                           "served_bits": 4.7}),
               json.dumps({"schema": "trace/v1", "example_id": "e",
                           "gold_answer": float("nan")}),
               json.dumps({"schema": "trace/v99", "example_id": "e", "gold_answer": 1.0}),
               "[]"]
        for header in bad:
            path = self._write_lines(tmp_path, [header])
            with pytest.raises(TraceParseError) as full:
                read_trace(path)
            with pytest.raises(type(full.value)) as meta_only:
                read_trace_meta(path)
            assert str(meta_only.value) == str(full.value)
        path.write_bytes(b"")
        with pytest.raises(TraceParseError, match="empty file"):
            read_trace_meta(path)

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

    def test_malformed_vector_on_eos_step_is_never_read(self, tmp_path):
        steps = [_working(0, (1.0, 0.0))] + [_working(i) for i in range(1, 9)] + [
            StepSignals(chunk_text="#### 42\n", tokens_in_chunk=8, entropy=0.5,
                        hidden=(float("nan"), 0.0), eos=True)]
        write_trace(TraceMeta(example_id="eos", gold_answer=42.0), steps, tmp_path / "t.jsonl")
        _, got = read_trace(tmp_path / "t.jsonl")
        for method in Method:
            rec = run_episode(ReplaySource(got), EngineConfig(method, 512), 42.0, "eos")
            assert (rec.steps, rec.tokens_used, rec.error, rec.correct) == (10, 152, None, True)


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
        header = {"schema": "trace/v1", "example_id": "7", "gold_answer": 42, "served_bits": 8.0}
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


class TestRecordFiles:
    def test_empty_list_gives_header_only(self, tmp_path):
        path = tmp_path / "r.jsonl"
        write_records([], path)
        assert len(path.read_text().splitlines()) == 1
        _, records = read_records(path)
        assert records == []

    def test_line_separators_inside_strings_stay_in_their_line(self, tmp_path):
        path = tmp_path / "r.jsonl"
        recs = [sample_record(0, generated_text="x\u2028y\u2029z\x85 #### 42"),
                sample_record(1)]
        write_records(recs, path)
        lines = path.read_text().splitlines()
        lines[1] = json.dumps(json.loads(lines[1]), ensure_ascii=False)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert "\u2028" in path.read_text(encoding="utf-8")
        assert read_records(path)[1] == recs

    def test_invalid_utf8_is_a_parse_error_naming_its_line(self, tmp_path):
        path = tmp_path / "r.jsonl"
        write_records([sample_record(i) for i in range(3)], path)
        with open(path, "ab") as f:
            f.write(b"\xff\xfe\n")
        with pytest.raises(TraceParseError, match=r":5: invalid UTF-8") as exc:
            read_records(path)
        assert exc.value.line == 5

    def test_actions_refuse_a_fractional_token_count(self, tmp_path):
        path = tmp_path / "r.jsonl"
        write_records([sample_record(0)], path)
        lines = path.read_text().splitlines()
        lines[1] = lines[1].replace('"tail_stop", 192]', '"tail_stop", 192.5]')
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(TraceParseError,
                           match=r":2: invalid record: actions must be an integer, got 192.5"):
            read_records(path)

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
        _, got = read_records(path)
        assert got == records

    def test_metadata_lands_in_header(self, tmp_path):
        path = tmp_path / "r.jsonl"
        write_records([], path, metadata={"counterfactual_replay": True})
        header, _ = read_records(path)
        assert header["counterfactual_replay"] is True

    def test_numeric_precision_at_least_nine_digits(self, tmp_path):
        path = tmp_path / "r.jsonl"
        value = 1.2345678912345
        write_records([sample_record(0, predicted_answer=value, gold_answer=value)], path)
        _, got = read_records(path)
        assert abs(got[0].predicted_answer - value) < 1e-9
        assert got[0].predicted_answer == value  # repr round-trip is exact

    @given(
        st.integers(min_value=0, max_value=3000),
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
                            predicted_answer=predicted, generated_text=text,
                            correct=correct)
        write_records([rec], path)
        _, got = read_records(path)
        assert got == [rec]


class TestAtomicWrite:
    WRITERS = {
        "records": lambda path: write_records([sample_record(i) for i in range(20)], path),
        "trace": lambda path: write_trace(TraceMeta("t", 42.0), make_steps(5), path),
        "summary": lambda path: emit_summary_table(
            summarize_all([sample_record(i) for i in range(20)]), path),
        "scenario": lambda path: write_text(
            path, json.dumps(dataclasses.asdict(scenario_suite_canonical()[1]))),
    }

    @pytest.mark.parametrize("writer", sorted(WRITERS))
    @pytest.mark.parametrize("old", [None, b"old bytes\n"])
    def test_failed_write_leaves_old_file_and_no_temp(self, tmp_path, monkeypatch, writer, old):
        path = tmp_path / "out.jsonl"
        if old is not None:
            path.write_bytes(old)
        real = Path.write_text

        def fail_midway(self, text, *args, **kwargs):
            real(self, text[: len(text) // 2], *args, **kwargs)
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(Path, "write_text", fail_midway)
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
