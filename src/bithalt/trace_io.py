"""Line-delimited trace and episode-record files, and the record types they hold.

Both formats are JSONL with a schema-versioned header line followed by one
object per line. Scalars are serialized as decimal text via ``repr`` (full
round-trip precision), never as binary floats. The one exception is a trace
step's arrays, raw float64 bytes: any text form of them dominates replay time.

Trace file (schema ``trace/v3``; an older schema is refused):
  header: {"schema", "example_id", "gold_answer", "model", "served_bits",
           "prompt_digest"}
  step:   {"step", "chunk_text", "tokens", "entropy" XOR "probs",
           "hidden"?, "eos"?}
  ``probs`` and ``hidden`` are counts (ints >= 0) of the little-endian float64s
  whose bytes follow the step's line, ``probs`` first. Arrays are read back as
  ``array('d')`` without numpy, and validated where they are used: ``entropy``
  checks a distribution, ``RunningSignals.push`` a hidden vector. ``read_trace``
  checks a whole file before its steps are used, but reads a step's arrays only
  when that step is indexed, so a replay holds one step's.

Files are read one line at a time, split at "\n" only (U+2028, U+2029 and
U+0085 may stand unescaped inside a JSON string); ``decode`` makes each line,
or a scenario or config file, one JSON object or a parse error naming it. Line
numbers count JSON lines only: a step's array bytes are not lines.

Record file (schema ``records/v1``), of the types EpisodeRecord, Method,
StopCause and Action (each decision outcome, with the stop it makes), defined
here so that ``report`` loads no controller or signals module:
  header: {"schema", ...free-form run metadata (no timestamps)}
  record: EpisodeRecord fields in fixed order; each of its actions is an
          ``Action``'s record strings and the token count it was decided at. Its
          stop_cause is the stop its last action makes, and early_halt is the engine's
          for that stop (``is_early_halt``).

Trace headers and steps, records and scenarios are read by ``from_fields`` through the
field plan (``_field_plan``, which ``require_finite`` reads too; ``_FILE_KEYS`` maps a step's
``tokens`` and ``probs``) and one value rule, ``_coerce``; ``parse_fields`` reports failures.
Every output file is written through one atomic writer, ``_atomic_file``: records a
line at a time, traces a step at a time, ``write_text`` whole.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
from array import array
from collections.abc import Sequence
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, fields, replace
from enum import Enum
from operator import attrgetter
from pathlib import Path
from typing import (TYPE_CHECKING, BinaryIO, Iterable, Iterator, List, Optional, Tuple, Union,
                    get_args, get_origin, get_type_hints)

from .errors import ConfigError, TraceParseError, UnsupportedSchemaError

if TYPE_CHECKING:  # read_trace imports it as it runs: report loads no signals
    from .signals import StepSignals

TRACE_SCHEMA = "trace/v3"
RECORD_SCHEMA = "records/v1"

# json.dumps's settings less its check for circular references, which cost a dict
# entry per container and which records, of strings, numbers and tuples, cannot fail.
_encode = json.JSONEncoder(check_circular=False).encode


@dataclass(frozen=True)
class TraceMeta:
    """A trace's header: the example, its gold answer, and the model and bits serving it."""
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

    def __init__(self, steps: Sequence[StepSignals]):
        self._steps, self._next = steps, 0

    def next_chunk(self, max_tokens: int) -> Optional[StepSignals]:
        self._next += 1
        return self._steps[self._next - 1] if self._next <= len(self._steps) else None


# Trace step keys that differ from their StepSignals field names.
_FILE_KEYS = {"StepSignals": {"tokens_in_chunk": "tokens", "distribution": "probs"}}
_KINDS = {str: "a string", bool: "a bool", int: "an integer", float: "a number"}


@functools.cache
def _field_plan(cls) -> Tuple[Tuple[str, str, bool, bool, type], ...]:
    """(name, file key, required, nullable, type) for each field of dataclass ``cls``."""
    hints, keys = get_type_hints(cls), _FILE_KEYS.get(cls.__name__, {})
    plan = []
    for f in fields(cls):
        tp = hints[f.name]
        nullable = get_origin(tp) is Union and type(None) in get_args(tp)
        if nullable:
            tp = next(a for a in get_args(tp) if a is not type(None))
        required = f.default is MISSING and f.default_factory is MISSING
        plan.append((f.name, keys.get(f.name, f.name), required, nullable, tp))
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


def require_finite(config) -> None:
    """Raise ConfigError naming the first float field of dataclass ``config`` (an
    Optional one only when set) that is NaN or infinite; range checks let NaN through."""
    for name, _, _, _, tp in _field_plan(type(config)):
        value = getattr(config, name)
        if tp is float and value is not None and not math.isfinite(value):
            raise ConfigError(f"must be finite, got {value!r}", field=name)


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


def _read_jsonl(path, schema: str) -> Iterator[Tuple[int, dict, BinaryIO]]:
    """(line number, object, open file) triples of a JSONL file, read and parsed one
    line at a time: the header, checked to declare ``schema``, then each non-blank body
    line. The caller may read bytes from the file between two lines."""
    if not os.path.getsize(path):
        raise TraceParseError(path, "empty file", line=1)
    with open(path, "rb") as f:  # binary lines end at b"\n" only
        for lineno, raw in enumerate(f, start=1):
            if lineno > 1 and raw.isspace():
                continue
            obj = decode(path, raw, lineno)
            if lineno == 1 and obj.get("schema") != schema:
                raise UnsupportedSchemaError(
                    path, f"unsupported schema {obj.get('schema')!r}", line=1)
            yield lineno, obj, f


def _little_endian(values: array) -> array:
    """``values`` byteswapped in place on a big-endian host: the file's order either way."""
    if sys.byteorder == "big":
        values.byteswap()
    return values


def _skip_array(f: BinaryIO, size: int, count) -> Tuple[int, int]:
    """A trace array's (offset, count): the ``count`` float64s whose bytes come next
    in open file ``f`` of ``size`` bytes, checked to lie in the file and skipped."""
    if type(count) is not int or count < 0:  # a bool is not a count
        raise TypeError(f"array must be an element count, got {count!r:.40}")
    offset = f.tell()
    if 8 * count > size - offset:
        raise ValueError(f"array of {count} float64s runs past the end of the file")
    f.seek(8 * count, os.SEEK_CUR)
    return offset, count


class _TraceSteps(Sequence):
    """A scanned trace file's steps, which index, iterate and compare like a list of
    StepSignals. A step's arrays are held as their (offset, count) in the file until it is
    indexed, and are read then, so a replay holds the step it is at, not the trace."""

    def __init__(self, path, scanned: os.stat_result, steps: List[Tuple[int, StepSignals]]):
        self._path, self._steps = path, steps  # (line number, step holding spans)
        self._scanned = (scanned.st_size, scanned.st_mtime_ns, scanned.st_ino)

    def __len__(self) -> int:
        return len(self._steps)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        lineno, step = self._steps[i]
        spans = {name: span for name in ("distribution", "hidden")
                 if (span := getattr(step, name)) is not None}
        if not spans:
            return step
        with open(self._path, "rb") as f:
            now = os.fstat(f.fileno())
            if (now.st_size, now.st_mtime_ns, now.st_ino) != self._scanned:
                raise TraceParseError(self._path, "file changed since it was read", line=lineno)
            for name, (offset, count) in spans.items():
                f.seek(offset)
                spans[name] = values = array("d")
                try:
                    values.fromfile(f, count)
                except EOFError:
                    raise TraceParseError(self._path, f"array of {count} float64s cut short "
                                          "since the file was read", line=lineno) from None
                _little_endian(values)
        return replace(step, **spans)

    def __eq__(self, other):
        return list(self) == other if isinstance(other, (list, _TraceSteps)) else NotImplemented


def read_trace(path) -> Tuple[TraceMeta, Sequence[StepSignals]]:
    """Parse and check a whole trace file into its header metadata and ordered steps;
    wrap the steps in a ReplaySource to feed them to the engine. A step's arrays are
    read when it is indexed, from the file as it was checked."""
    from .signals import StepSignals

    lines = _read_jsonl(path, TRACE_SCHEMA)
    _, header, f = next(lines)
    meta = parse_fields(path, 1, "header", TraceMeta, header)
    scanned = os.fstat(f.fileno())
    arrays = functools.partial(_skip_array, f, scanned.st_size)  # from_fields: probs, then hidden
    steps: List[Tuple[int, StepSignals]] = []
    for lineno, obj, _ in lines:
        if steps and steps[-1][1].eos:
            raise TraceParseError(path, "steps follow an eos-flagged step", line=lineno)
        if obj.get("step") != len(steps) or isinstance(obj["step"], bool):
            raise TraceParseError(path, f"non-contiguous step index {obj.get('step')!r}, "
                                  f"expected {len(steps)}", line=lineno)
        # StepSignals rejects a step with both or neither of entropy and probs.
        steps.append((lineno, parse_fields(path, lineno, "step", StepSignals, obj,
                                           distribution=arrays, hidden=arrays)))
    return meta, _TraceSteps(path, scanned, steps)


@contextmanager
def _atomic_file(path) -> Iterator[BinaryIO]:
    """A binary file open on ``<name>.tmp`` beside ``path``, renamed into place when the
    block ends, so a failed write leaves the old file, or none, and no temp file."""
    target = Path(path)
    tmp = target.with_name(target.name + ".tmp")
    try:
        with open(tmp, "wb") as f:
            yield f
        os.replace(tmp, target)
    except OSError as exc:
        tmp.unlink(missing_ok=True)
        raise OSError(f"failed writing {target}: {exc}") from exc
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_text(path, text: str) -> None:
    """Write ``text`` as UTF-8, atomically to ``path``."""
    with _atomic_file(path) as f:
        f.write(text.encode("utf-8"))


def write_trace(meta: TraceMeta, steps: List[StepSignals], path) -> None:
    """A ``trace/v3`` file: each step's line, then its arrays' float64 bytes, written
    one step at a time."""
    header = {"schema": TRACE_SCHEMA, **vars(meta)}
    with _atomic_file(path) as f:
        f.write(json.dumps(header).encode() + b"\n")
        for i, s in enumerate(steps):
            obj = {"step": i, "chunk_text": s.chunk_text, "tokens": s.tokens_in_chunk}
            if s.entropy is not None:
                obj["entropy"] = s.entropy
            arrays = {key: array("d", values) for key, values in
                      (("probs", s.distribution), ("hidden", s.hidden)) if values is not None}
            obj.update((key, len(values)) for key, values in arrays.items())
            if s.eos:
                obj["eos"] = True
            f.write(json.dumps(obj).encode() + b"\n")
            for values in arrays.values():
                f.write(_little_endian(values))


class Method(str, Enum):
    FIXED = "fixed"
    ADAPTIVE = "adaptive"
    BITCAL = "bitcal"


class StopCause(str, Enum):
    EOS = "eos"
    BUDGET_EXHAUSTED = "budget_exhausted"
    BUFFER_STOP = "buffer_stop"
    CONFIDENT_STOP = "confident_stop"
    ESCALATE = "escalate"
    TAIL_STOP = "tail_stop"


class ActionKind(str, Enum):
    CONTINUE = "continue"
    STOP = "stop"
    ESCALATE = "escalate"


class Reason(str, Enum):
    FLOOR = "floor"
    TAIL_WAIT = "tail_wait"
    TAIL_STOP = "tail_stop"
    BUFFER_STOP = "buffer_stop"
    ENTROPY_ESCALATE = "entropy_escalate"
    CONFIDENT_STOP = "confident_stop"
    DEFAULT_CONTINUE = "default_continue"


class Action(Enum):
    """The seven outcomes of ``policy.decide``, one per case: (kind, reason, the stop it
    makes or None). ``record`` holds the kind's and reason's strings as a record writes them."""

    FLOOR = (ActionKind.CONTINUE, Reason.FLOOR, None)
    TAIL_WAIT = (ActionKind.CONTINUE, Reason.TAIL_WAIT, None)
    TAIL_STOP = (ActionKind.STOP, Reason.TAIL_STOP, StopCause.TAIL_STOP)
    BUFFER_STOP = (ActionKind.STOP, Reason.BUFFER_STOP, StopCause.BUFFER_STOP)
    ENTROPY_ESCALATE = (ActionKind.ESCALATE, Reason.ENTROPY_ESCALATE, StopCause.ESCALATE)
    CONFIDENT_STOP = (ActionKind.STOP, Reason.CONFIDENT_STOP, StopCause.CONFIDENT_STOP)
    DEFAULT_CONTINUE = (ActionKind.CONTINUE, Reason.DEFAULT_CONTINUE, None)

    def __init__(self, kind: ActionKind, reason: Reason, stop: Optional[StopCause]):
        self.kind, self.reason, self.stop = kind, reason, stop
        self.record = (kind.value, reason.value)


# A recorded action's kind by its reason: the one check that it is a decision's outcome.
_KIND_OF_REASON = {reason: kind for kind, reason in (action.record for action in Action)}
# A recorded action's stop by its reason: None for a continue.
_STOP_OF_REASON = {action.record[1]: action.stop for action in Action}
# The stops no controller makes: the stream ended, or the budget ran out.
_RUN_OUT = (StopCause.EOS, StopCause.BUDGET_EXHAUSTED)


def is_early_halt(stop_cause: str, tokens_used: int, budget: int) -> bool:
    """A controller's stop short of the budget: fixed never halts early."""
    return stop_cause not in _RUN_OUT and tokens_used < budget


@dataclass(frozen=True, slots=True)
class EpisodeRecord:
    """One scored episode; a record file holds one per line, fields in this order."""
    example_id: str
    method: str
    budget: int
    tokens_used: int
    steps: int
    actions: Tuple[Tuple[str, str, int], ...]  # (action, reason, cumulative tokens)
    stop_cause: str
    first_marker_tokens: Optional[int]
    generated_text: str
    predicted_answer: Optional[float]
    gold_answer: float
    correct: bool
    early_halt: bool
    model: str = ""
    error: Optional[str] = None


# A record's values in field order, its slots' order (asdict would deep-copy its actions).
_record_values = attrgetter(*EpisodeRecord.__slots__)


def _action(a, r, t) -> Tuple[str, str, int]:
    """A recorded action that failed the fast check: converted by the value rule, then
    refused unless its (kind, reason) is an outcome of ``Action``."""
    a, r, t = _coerce("actions", str, a), _coerce("actions", str, r), _coerce("actions", int, t)
    if _KIND_OF_REASON.get(r) != a:
        raise ValueError(f"actions holds {[a, r]!r}, which is no decision outcome")
    return a, r, t


def _actions(value) -> Tuple[Tuple[str, str, int], ...]:
    try:  # indexing raises for a reason that is no decision's, or is unhashable
        return tuple([(a, r, t) if _KIND_OF_REASON[r] == a and type(t) is int
                      else _action(a, r, t) for a, r, t in value])
    except (KeyError, TypeError):  # re-read one by one: the entry at fault raises its message
        return tuple([_action(a, r, t) for a, r, t in value])


def _agreeing(path, line: int, record: EpisodeRecord) -> EpisodeRecord:
    """``record``, once its stop_cause is the stop its last action makes (a run-out stop
    after a continue), at its tokens_used, and its early_halt the engine's for that stop."""
    cause = record.stop_cause
    if record.actions:
        last = record.actions[-1]
        stop = _STOP_OF_REASON[last[1]]
        if cause not in (_RUN_OUT if stop is None else (stop,)):
            raise TraceParseError(path, f"invalid record: stop_cause {cause!r} disagrees "
                                  f"with the last action {list(last)!r}", line=line)
        if stop is not None and last[2] != record.tokens_used:
            raise TraceParseError(path, f"invalid record: tokens_used {record.tokens_used} "
                                  f"disagrees with the last action {list(last)!r}", line=line)
    early = is_early_halt(cause, record.tokens_used, record.budget)
    if record.early_halt != early:
        raise TraceParseError(path, f"invalid record: early_halt must be {json.dumps(early)} "
                              f"for stop_cause {cause!r} at {record.tokens_used} of "
                              f"{record.budget} tokens", line=line)
    return record


def write_records(records: Iterable[EpisodeRecord], path, metadata: Optional[dict] = None) -> None:
    """One record per line after a schema header, written one line at a time as ``records``
    yields them; reread yields equal records."""
    header = {"schema": RECORD_SCHEMA}
    if metadata:
        header.update(metadata)
    with _atomic_file(path) as f:
        f.write(_encode(header).encode() + b"\n")
        for values in map(_record_values, records):
            f.write(_encode(dict(zip(EpisodeRecord.__slots__, values))).encode() + b"\n")


def read_records(path) -> Tuple[dict, Iterator[EpisodeRecord]]:
    """A record file's header, read and checked now, and an iterator that parses and checks each
    record as it reaches its line; the file closes when the iterator ends or is dropped."""
    lines = _read_jsonl(path, RECORD_SCHEMA)
    header = next(lines)[1]
    names = {"method": lambda v: Method(v).value, "stop_cause": lambda v: StopCause(v).value}
    return header, (_agreeing(path, lineno, parse_fields(
        path, lineno, "record", EpisodeRecord, obj, actions=_actions, **names))
        for lineno, obj, _ in lines)
