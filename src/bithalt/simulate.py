"""Scripted synthetic token streams for exercising the controller.

A Scenario scripts per-segment entropy, chunk text, and optional hidden-state
rotation, plus where the answer marker and EOS land in the token stream.
Everything is deterministic: the same scenario always replays to the same
episode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple

from .errors import ConfigError, require_finite
from .policy import DEFAULT_MARKER
from .signals import StepSignals
from .trace_io import decode, from_fields, parse_fields


@dataclass(frozen=True)
class Segment:
    length: int
    entropy: float
    text_template: str
    # Radians the 2-d hidden direction rotates per step while inside this
    # segment; None emits no hidden state. Consecutive-step cosine is exactly
    # cos(rotation), which makes stability assertions closed-form.
    hidden_rotation: Optional[float] = None

    def __post_init__(self):
        require_finite(self)  # entropy, and hidden_rotation when set
        if self.length < 1:
            raise ConfigError("segment length must be positive")
        if self.entropy < 0:
            raise ConfigError("segment entropy must be >= 0")


@dataclass(frozen=True)
class Scenario:
    scenario_id: str
    segments: Tuple[Segment, ...]
    gold_answer: float
    emitted_answer: float
    marker_at: Optional[int] = None
    eos_at: Optional[int] = None

    def __post_init__(self):
        require_finite(self)
        if not self.segments:
            raise ConfigError("scenario needs at least one segment")
        total = self.total_tokens()
        for name, off in (("marker_at", self.marker_at), ("eos_at", self.eos_at)):
            if off is not None and not (1 <= off <= total):
                raise ConfigError(f"{name}={off} outside scripted length {total}")

    def total_tokens(self) -> int:
        return sum(s.length for s in self.segments)


def load_scenario(path) -> Scenario:
    data = decode(path, Path(path).read_bytes())
    return parse_fields(path, None, "scenario", Scenario, data, segments=lambda segs: tuple(
        from_fields(Segment, seg) for seg in segs))


def load_scenario_dir(directory) -> List[Scenario]:
    paths = sorted(Path(directory).glob("*.json"))
    return [load_scenario(p) for p in paths]


def _format_answer(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


class ScenarioSource:
    """TokenSource that walks a scenario's token script chunk by chunk; each
    call's max_tokens sizes its chunk. It holds only immutable values, so a copy forks it."""

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self._state = (0, 0, 0.0)  # position, step index, hidden angle
        self._limit = scenario.eos_at if scenario.eos_at is not None else scenario.total_tokens()

    def _segment_at(self, token_index: int) -> Segment:
        # token_index is 0-based; segments partition [0, total).
        acc = 0
        for seg in self.scenario.segments:
            acc += seg.length
            if token_index < acc:
                return seg
        return self.scenario.segments[-1]

    def next_chunk(self, max_tokens: int) -> Optional[StepSignals]:
        start, step, angle = self._state
        if start >= self._limit:
            return None
        end = start + min(max_tokens, self._limit - start)
        seg = self._segment_at(end - 1)

        text = seg.text_template.replace("{i}", str(step))
        s = self.scenario
        if s.marker_at is not None and start < s.marker_at <= end:
            text += f"\n{DEFAULT_MARKER} {_format_answer(s.emitted_answer)}"

        hidden = None
        if seg.hidden_rotation is not None:
            angle += seg.hidden_rotation
            hidden = (math.cos(angle), math.sin(angle))

        eos = s.eos_at is not None and end >= s.eos_at
        self._state = (end, step + 1, angle)
        return StepSignals(chunk_text=text, tokens_in_chunk=end - start, entropy=seg.entropy,
                           hidden=hidden, eos=eos)


def scenario_suite_canonical() -> List[Scenario]:
    """Fixed scenario suite covering the controller's qualitative behaviors.

    - confident-early-wrong: literal chunk repetition drives the stability
      proxies to 1 while the trace holds only a partial computation, so both
      adaptive variants confidently stop at the floor with no answer emitted
      (the small-model collapse driver).
    - marker-then-revision: a wrong marker line appears first and the correct
      one follows within 32 tokens; only a served-4-bit tail survives it.
    - entropy-escalation: entropy stays above the escalate bar.
    - buffer-edge: unstable mid-entropy text runs until the remaining budget
      drops under the buffer.
    - eos-before-floor: the stream ends naturally before any halting is legal.
    - marker-before-floor: the marker lands pre-floor; the tail clock still
      starts at the sighting.
    """
    return [
        Scenario(
            scenario_id="confident-early-wrong",
            segments=(
                Segment(512, 0.5, "The running total is 17 so far.", hidden_rotation=0.0),
            ),
            gold_answer=42.0,
            emitted_answer=42.0,
        ),
        Scenario(
            scenario_id="marker-then-revision",
            segments=(
                Segment(144, 3.0, "Working through step {i} of the problem."),
                Segment(16, 3.0, f"Intermediate tally {DEFAULT_MARKER} 13"),
                Segment(96, 1.0, "Wait, rechecking the arithmetic above."),
            ),
            gold_answer=42.0,
            emitted_answer=42.0,
            marker_at=184,
        ),
        Scenario(
            scenario_id="entropy-escalation",
            segments=(Segment(512, 4.5, "Hmm, maybe approach {i} instead?"),),
            gold_answer=7.0,
            emitted_answer=7.0,
        ),
        Scenario(
            scenario_id="buffer-edge",
            segments=(Segment(512, 3.0, "Trying path {i} without success."),),
            gold_answer=3.0,
            emitted_answer=3.0,
        ),
        Scenario(
            scenario_id="eos-before-floor",
            segments=(Segment(96, 1.0, "Short and direct reasoning line {i}."),),
            gold_answer=5.0,
            emitted_answer=5.0,
            marker_at=80,
            eos_at=96,
        ),
        Scenario(
            scenario_id="marker-before-floor",
            segments=(Segment(512, 1.0, "Answer found early, confirming {i}."),),
            gold_answer=9.0,
            emitted_answer=9.0,
            marker_at=96,
        ),
    ]
