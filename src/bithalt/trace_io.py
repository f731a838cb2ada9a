"""Line-delimited trace and episode-record files.

Both formats are JSONL with a schema-versioned header line followed by one
object per line. Numbers are serialized as decimal text via ``repr`` (full
round-trip precision), never as binary floats.

Trace file (schema ``trace/v1``):
  header: {"schema", "example_id", "gold_answer", "model", "served_bits",
           "prompt_digest"}
  step:   {"step", "chunk_text", "tokens", "entropy" XOR "probs",
           "hidden"?, "eos"?}

Record file (schema ``records/v1``):
  header: {"schema", ...free-form run metadata (no timestamps)}
  record: EpisodeRecord fields in fixed order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path
from typing import List, Optional, Tuple

from .engine import EpisodeRecord
from .errors import TraceParseError, UnsupportedSchemaError
from .signals import StepSignals

TRACE_SCHEMA = "trace/v1"
RECORD_SCHEMA = "records/v1"


@dataclass(frozen=True)
class TraceMeta:
    example_id: str
    gold_answer: float
    model: str = ""
    served_bits: int = 4
    prompt_digest: str = ""


class ReplaySource:
    """Replays logged steps in order; post-divergence chunks are whatever the
    original run generated (counterfactual under a different controller)."""

    def __init__(self, steps: List[StepSignals]):
        self._steps = list(steps)
        self._idx = 0

    def next_chunk(self, max_tokens: int) -> Optional[StepSignals]:
        if self._idx >= len(self._steps):
            return None
        step = self._steps[self._idx]
        self._idx += 1
        return step


def _parse_json_line(path, lineno: int, line: str) -> dict:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise TraceParseError(path, f"invalid JSON: {exc.msg}", line=lineno)
    if not isinstance(obj, dict):
        raise TraceParseError(path, "expected a JSON object", line=lineno)
    return obj


def read_trace(path) -> Tuple[TraceMeta, List[StepSignals]]:
    """Parse a trace file into its header metadata and ordered steps.

    Wrap the steps in a ReplaySource to feed them to the engine; build a
    fresh source per episode.
    """
    path = Path(path)
    lines = path.read_text().splitlines()
    if not lines:
        raise TraceParseError(path, "empty file", line=1)

    header = _parse_json_line(path, 1, lines[0])
    schema = header.get("schema")
    if schema != TRACE_SCHEMA:
        raise UnsupportedSchemaError(path, f"unsupported schema {schema!r}", line=1)
    try:
        meta = TraceMeta(
            example_id=str(header["example_id"]),
            gold_answer=float(header["gold_answer"]),
            model=str(header.get("model", "")),
            served_bits=int(header.get("served_bits", TraceMeta.served_bits)),
            prompt_digest=str(header.get("prompt_digest", "")),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise TraceParseError(path, f"invalid header: {exc}", line=1)

    steps: List[StepSignals] = []
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        obj = _parse_json_line(path, lineno, raw)
        if obj.get("step") != len(steps):
            raise TraceParseError(
                path, f"non-contiguous step index {obj.get('step')!r}, expected {len(steps)}",
                line=lineno,
            )
        has_entropy = "entropy" in obj and obj["entropy"] is not None
        has_probs = "probs" in obj and obj["probs"] is not None
        if has_entropy == has_probs:
            raise TraceParseError(
                path, "exactly one of 'entropy' and 'probs' must be present", line=lineno
            )
        try:
            steps.append(
                StepSignals(
                    chunk_text=str(obj["chunk_text"]),
                    tokens_in_chunk=int(obj["tokens"]),
                    entropy=float(obj["entropy"]) if has_entropy else None,
                    distribution=[float(p) for p in obj["probs"]] if has_probs else None,
                    hidden=(
                        tuple(float(h) for h in obj["hidden"])
                        if obj.get("hidden") is not None
                        else None
                    ),
                    eos=bool(obj.get("eos", False)),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceParseError(path, f"invalid step: {exc}", line=lineno)
        if steps[-1].eos and lineno - 1 < len(lines) - 1:
            remainder = [l for l in lines[lineno:] if l.strip()]
            if remainder:
                raise TraceParseError(path, "steps follow an eos-flagged step", line=lineno + 1)
    return meta, steps


def write_trace(meta: TraceMeta, steps: List[StepSignals], path) -> None:
    header = {"schema": TRACE_SCHEMA, **{f.name: getattr(meta, f.name) for f in fields(meta)}}
    lines = [json.dumps(header)]
    for i, s in enumerate(steps):
        obj = {"step": i, "chunk_text": s.chunk_text, "tokens": s.tokens_in_chunk}
        if s.entropy is not None:
            obj["entropy"] = s.entropy
        else:
            obj["probs"] = list(s.distribution)
        if s.hidden is not None:
            obj["hidden"] = list(s.hidden)
        if s.eos:
            obj["eos"] = True
        lines.append(json.dumps(obj))
    Path(path).write_text("\n".join(lines) + "\n")


def record_to_dict(rec: EpisodeRecord) -> dict:
    # Shallow on purpose: asdict would deep-copy every actions tuple.
    return {f.name: getattr(rec, f.name) for f in fields(rec)}


def record_from_dict(d: dict) -> EpisodeRecord:
    return EpisodeRecord(
        example_id=str(d["example_id"]),
        method=str(d["method"]),
        budget=int(d["budget"]),
        tokens_used=int(d["tokens_used"]),
        steps=int(d["steps"]),
        actions=tuple((str(a), str(r), int(t)) for a, r, t in d["actions"]),
        stop_cause=str(d["stop_cause"]),
        first_marker_tokens=(
            None if d["first_marker_tokens"] is None else int(d["first_marker_tokens"])
        ),
        generated_text=str(d["generated_text"]),
        predicted_answer=(
            None if d["predicted_answer"] is None else float(d["predicted_answer"])
        ),
        gold_answer=float(d["gold_answer"]),
        correct=bool(d["correct"]),
        early_halt=bool(d["early_halt"]),
        model=str(d.get("model", "")),
        error=d.get("error"),
    )


def write_records(records: List[EpisodeRecord], path, metadata: Optional[dict] = None) -> None:
    """One record per line after a schema header; reread yields equal records."""
    header = {"schema": RECORD_SCHEMA}
    if metadata:
        header.update(metadata)
    lines = [json.dumps(header)]
    lines.extend(json.dumps(record_to_dict(r)) for r in records)
    target = Path(path)
    try:
        target.write_text("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"failed writing records to {target}: {exc}") from exc


def read_records(path) -> Tuple[dict, List[EpisodeRecord]]:
    path = Path(path)
    lines = path.read_text().splitlines()
    if not lines:
        raise TraceParseError(path, "empty file", line=1)
    header = _parse_json_line(path, 1, lines[0])
    if header.get("schema") != RECORD_SCHEMA:
        raise UnsupportedSchemaError(path, f"unsupported schema {header.get('schema')!r}", line=1)
    records = []
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        obj = _parse_json_line(path, lineno, raw)
        try:
            records.append(record_from_dict(obj))
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceParseError(path, f"invalid record: {exc}", line=lineno)
    return header, records
