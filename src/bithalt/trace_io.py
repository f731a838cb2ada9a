"""Line-delimited trace and episode-record files.

Both formats are JSONL with a schema-versioned header line followed by one
object per line. Scalars are serialized as decimal text via ``repr`` (full
round-trip precision), never as binary floats. The one exception is a trace
step's arrays, which are long enough that decimal text dominates replay time.

Trace file (schema ``trace/v2``; ``trace/v1`` still reads):
  header: {"schema", "example_id", "gold_answer", "model", "served_bits",
           "prompt_digest"}
  step:   {"step", "chunk_text", "tokens", "entropy" XOR "probs",
           "hidden"?, "eos"?}
  ``probs`` and ``hidden`` are base64 strings of little-endian float64 bytes
  (v1 wrote them as JSON lists of numbers; either form reads). They are read
  back as ``array('d')`` without numpy, and validated where they are used:
  ``entropy`` checks a distribution, ``RunningSignals.push`` a hidden vector.

Files are read one line at a time, split at "\n" only (U+2028, U+2029 and
U+0085 may stand unescaped inside a JSON string); ``decode`` makes each line,
or a scenario or config file, one JSON object or a parse error naming it.

Record file (schema ``records/v1``):
  header: {"schema", ...free-form run metadata (no timestamps)}
  record: EpisodeRecord fields in fixed order.

Trace headers and steps, records and scenarios are read by ``from_fields``, which
follows the dataclass fields (a step's ``tokens`` and ``probs`` keys are mapped in
``_FILE_KEYS``) and one value rule, ``_coerce``; ``parse_fields`` reports failures.
Every output file is written by ``write_text``, atomically.
"""

from __future__ import annotations

import base64
import functools
import json
import os
import sys
from array import array
from dataclasses import MISSING, dataclass, fields
from pathlib import Path
from typing import Iterator, List, Optional, Tuple, Union, get_args, get_origin, get_type_hints

from .engine import EpisodeRecord, Method, StopCause
from .errors import TraceParseError, UnsupportedSchemaError, require_finite
from .signals import StepSignals

TRACE_SCHEMA = "trace/v2"
RECORD_SCHEMA = "records/v1"


@dataclass(frozen=True)
class TraceMeta:
    example_id: str
    gold_answer: float
    model: str = ""
    served_bits: int = 4
    prompt_digest: str = ""

    def __post_init__(self):
        require_finite(self)
        # A header's bit width is data: a bad one fails that file's parse, while
        # --bits 0 stays an error in the settings.
        if self.served_bits < 1:
            raise ValueError(f"served_bits must be >= 1, got {self.served_bits}")


class ReplaySource:
    """Replays logged steps in order; post-divergence chunks are whatever the
    original run generated (counterfactual under a different controller). It
    holds the steps and the next index, so a shallow copy forks it."""

    def __init__(self, steps: List[StepSignals]):
        self._steps, self._next = steps, 0

    def next_chunk(self, max_tokens: int) -> Optional[StepSignals]:
        self._next += 1
        return self._steps[self._next - 1] if self._next <= len(self._steps) else None


# Trace step keys that differ from their StepSignals field names.
_FILE_KEYS = {StepSignals: {"tokens_in_chunk": "tokens", "distribution": "probs"}}
_KINDS = {str: "a string", bool: "a bool", int: "an integer", float: "a number"}


@functools.cache
def _field_plan(cls) -> Tuple[Tuple[str, str, bool, bool, type], ...]:
    """(name, file key, required, nullable, type) for each field of dataclass ``cls``."""
    hints = get_type_hints(cls)
    plan = []
    for f in fields(cls):
        tp = hints[f.name]
        nullable = get_origin(tp) is Union and type(None) in get_args(tp)
        if nullable:
            tp = next(a for a in get_args(tp) if a is not type(None))
        required = f.default is MISSING and f.default_factory is MISSING
        plan.append((f.name, _FILE_KEYS.get(cls, {}).get(f.name, f.name), required, nullable, tp))
    return tuple(plan)


def _coerce(key: str, tp: type, value):
    """One value rule: a field takes its own JSON kind; a float any number, an int a whole one."""
    if type(value) is tp:
        return value
    if tp is float and type(value) is int:
        return float(value)  # OverflowError past float range
    if tp is int and type(value) is float and value.is_integer():
        return int(value)
    kind = "not be a bool" if isinstance(value, bool) else f"be {_KINDS[tp]}"
    raise TypeError(f"{key} must {kind}, got {value!r}")


def from_fields(cls, obj: dict, **convert):
    """Build dataclass ``cls`` from one parsed JSON object, field by field.

    Each field is read under its file key (its name unless ``_FILE_KEYS``
    says otherwise). A missing key takes the field default, or raises KeyError
    if the field has none. None is accepted only for Optional fields. Any other
    value goes through ``convert[name]`` when given, else must pass ``_coerce``,
    the one value rule. Keys that are not fields are ignored.
    """
    kwargs = {}
    for name, key, required, nullable, tp in _field_plan(cls):
        if key not in obj:
            if required:
                raise KeyError(key)
            continue
        value = obj[key]
        if value is None:
            if not nullable:
                raise TypeError(f"{key} must not be null")
        elif name in convert:
            value = convert[name](value)
        elif type(value) is not tp:  # most values have their field's type: no call for them
            value = _coerce(key, tp, value)
        kwargs[name] = value
    return cls(**kwargs)


def parse_fields(path, line: Optional[int], what: str, cls, obj: dict, /, **convert):
    """``from_fields``, any failure raised as a TraceParseError naming ``path`` and ``line``."""
    try:
        return from_fields(cls, obj, **convert)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise TraceParseError(path, f"invalid {what}: {exc}", line=line)


def decode(path, data: bytes, line: Optional[int] = None) -> dict:
    """The JSON object in a file's or a JSONL line's bytes; any failure is a TraceParseError."""
    try:
        obj = json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise TraceParseError(path, f"invalid UTF-8: {exc.reason}", line=line)
    except (ValueError, RecursionError) as exc:  # bad JSON, the integer digit limit, deep nesting
        raise TraceParseError(path, f"invalid JSON: {exc}", line=line)
    if not isinstance(obj, dict):
        raise TraceParseError(path, "expected a JSON object", line=line)
    return obj


def _read_jsonl(path, *schemas: str) -> Iterator[Tuple[int, dict]]:
    """(line number, object) pairs of a JSONL file, read and parsed one line at
    a time: the header, checked against ``schemas``, then each non-blank body line."""
    if not os.path.getsize(path):
        raise TraceParseError(path, "empty file", line=1)
    with open(path, "rb") as f:  # binary lines end at b"\n" only
        for lineno, raw in enumerate(f, start=1):
            if lineno > 1 and raw.isspace():
                continue
            obj = decode(path, raw, lineno)
            if lineno == 1 and obj.get("schema") not in schemas:
                raise UnsupportedSchemaError(
                    path, f"unsupported schema {obj.get('schema')!r}", line=1)
            yield lineno, obj


def _array(value) -> array:
    """A trace array as ``array('d')``: from a base64 string of little-endian
    float64 bytes, or from a JSON list of numbers."""
    if isinstance(value, str):
        try:
            raw = base64.b64decode(value, validate=True)
        except ValueError as exc:
            raise ValueError(f"invalid base64 array: {exc}")
        if len(raw) % 8:
            raise ValueError(f"array holds {len(raw)} bytes, not a multiple of 8")
        out = array("d")
        out.frombytes(raw)
        if sys.byteorder == "big":
            out.byteswap()
        return out
    if isinstance(value, list):  # of JSON numbers only, by the one value rule
        return array("d", [x if type(x) is float else _coerce("float64 array element", float, x)
                           for x in value])
    raise TypeError(f"array must be a base64 string or a list, got {type(value).__name__}")


def _base64(values) -> str:
    out = array("d", values)
    if sys.byteorder == "big":
        out.byteswap()
    return base64.b64encode(out.tobytes()).decode("ascii")


def read_trace_meta(path) -> TraceMeta:
    """A trace's header metadata; only the first line of the file is read."""
    header = next(_read_jsonl(path, "trace/v1", TRACE_SCHEMA))[1]
    return parse_fields(path, 1, "header", TraceMeta, header)


def read_trace(path) -> Tuple[TraceMeta, List[StepSignals]]:
    """Parse a trace file into its header metadata and ordered steps; wrap the
    steps in a ReplaySource to feed them to the engine."""
    lines = _read_jsonl(path, "trace/v1", TRACE_SCHEMA)
    meta = parse_fields(path, 1, "header", TraceMeta, next(lines)[1])
    steps: List[StepSignals] = []
    for lineno, obj in lines:
        if steps and steps[-1].eos:
            raise TraceParseError(path, "steps follow an eos-flagged step", line=lineno)
        if obj.get("step") != len(steps) or isinstance(obj["step"], bool):
            raise TraceParseError(path, f"non-contiguous step index {obj.get('step')!r}, "
                                  f"expected {len(steps)}", line=lineno)
        # StepSignals rejects a step with both or neither of entropy and probs.
        steps.append(parse_fields(path, lineno, "step", StepSignals, obj,
                                  distribution=_array, hidden=_array))
    return meta, steps


def write_text(path, text: str) -> None:
    """Write ``text`` to ``<name>.tmp`` beside ``path``, then rename it into
    place, so a failed write leaves the old file, or none, and no temp file."""
    target = Path(path)
    tmp = target.with_name(target.name + ".tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, target)
    except OSError as exc:
        tmp.unlink(missing_ok=True)
        raise OSError(f"failed writing {target}: {exc}") from exc


def write_trace(meta: TraceMeta, steps: List[StepSignals], path) -> None:
    header = {"schema": TRACE_SCHEMA, **{f.name: getattr(meta, f.name) for f in fields(meta)}}
    lines = [json.dumps(header)]
    for i, s in enumerate(steps):
        obj = {"step": i, "chunk_text": s.chunk_text, "tokens": s.tokens_in_chunk}
        if s.entropy is not None:
            obj["entropy"] = s.entropy
        else:
            obj["probs"] = _base64(s.distribution)
        if s.hidden is not None:
            obj["hidden"] = _base64(s.hidden)
        if s.eos:
            obj["eos"] = True
        lines.append(json.dumps(obj))
    write_text(path, "\n".join(lines) + "\n")


def _actions(value) -> Tuple[Tuple[str, str, int], ...]:
    return tuple((a, r, t) if type(a) is type(r) is str and type(t) is int else (
        _coerce("actions", str, a), _coerce("actions", str, r), _coerce("actions", int, t))
        for a, r, t in value)


def write_records(records: List[EpisodeRecord], path, metadata: Optional[dict] = None) -> None:
    """One record per line after a schema header; reread yields equal records."""
    header = {"schema": RECORD_SCHEMA}
    if metadata:
        header.update(metadata)
    lines = [json.dumps(header)]
    # Shallow on purpose: asdict would deep-copy every actions tuple.
    lines.extend(json.dumps({f.name: getattr(r, f.name) for f in fields(r)}) for r in records)
    write_text(path, "\n".join(lines) + "\n")


def read_records(path) -> Tuple[dict, List[EpisodeRecord]]:
    lines = _read_jsonl(path, RECORD_SCHEMA)
    header = next(lines)[1]
    names = {"method": lambda v: Method(v).value, "stop_cause": lambda v: StopCause(v).value}
    return header, [parse_fields(path, lineno, "record", EpisodeRecord, obj, actions=_actions,
                                 **names) for lineno, obj in lines]
