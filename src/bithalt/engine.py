"""Per-example episode loop: chunked generation under a hard token budget,
with the optional halting controller, plus answer extraction and scoring."""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import List, Optional, Protocol, Tuple

from .calibrate import CalibratorConfig, confidence
from .errors import BithaltError, ConfigError
from .policy import (
    DEFAULT_MARKER,
    ActionKind,
    MarkerState,
    PolicyConfig,
    Reason,
    decide,
    update_marker,
)
from .signals import SignalReadout, StepSignals

logger = logging.getLogger(__name__)


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


_STOP_REASON_CAUSE = {
    Reason.BUFFER_STOP: StopCause.BUFFER_STOP,
    Reason.CONFIDENT_STOP: StopCause.CONFIDENT_STOP,
    Reason.ENTROPY_ESCALATE: StopCause.ESCALATE,
    Reason.TAIL_STOP: StopCause.TAIL_STOP,
}

# Controller-initiated terminations; EOS and budget exhaustion are excluded,
# so fixed decoding can never register an early halt.
CONTROLLER_STOPS = frozenset(_STOP_REASON_CAUSE.values())


class TokenSource(Protocol):
    """One episode's token stream.

    ``next_chunk(max_tokens)`` returns the next step (with at most
    ``max_tokens`` tokens), or None once the stream is exhausted. A step
    carrying ``eos=True`` is the stream's last.
    """

    def next_chunk(self, max_tokens: int) -> Optional[StepSignals]: ...


@dataclass(frozen=True)
class EngineConfig:
    method: Method
    budget: int
    chunk_size: int = 16
    served_bits: int = 4
    calibrator: CalibratorConfig = field(default_factory=CalibratorConfig)
    policy: PolicyConfig = field(default_factory=PolicyConfig)
    # Overrides the method-derived effective precision (used to force the
    # adaptive-equivalent behavior out of a bitcal config, e.g. for the
    # variant-identity check).
    effective_bits_override: Optional[int] = None

    def __post_init__(self):
        if self.chunk_size < 1:
            raise ConfigError("chunk_size must be >= 1")
        if self.budget < self.chunk_size:
            raise ConfigError("budget must be >= chunk_size")
        if self.served_bits < 1:
            raise ConfigError("served_bits must be >= 1")

    @property
    def effective_bits(self) -> int:
        if self.effective_bits_override is not None:
            return self.effective_bits_override
        if self.method is Method.ADAPTIVE:
            return 16
        return self.served_bits

    def resolved(self) -> Tuple[CalibratorConfig, PolicyConfig]:
        """Calibrator/policy configs with the method's effective precision applied."""
        bits = self.effective_bits
        return (
            replace(self.calibrator, effective_bits=bits),
            replace(self.policy, effective_bits=bits),
        )


@dataclass(frozen=True)
class EpisodeRecord:
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


_NUMBER_RE = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)")
_CURRENCY = "$€£"


def extract_answer(full_text: str, marker: str = DEFAULT_MARKER) -> Optional[float]:
    """Parse the number after the final marker occurrence.

    Commas are stripped (GSM8K gold answers use digit grouping) and a leading
    currency sign is skipped. Returns None when the marker is absent or no
    number follows it.
    """
    idx = full_text.rfind(marker)
    if idx < 0:
        return None
    tail = full_text[idx + len(marker):].replace(",", "").strip()
    tail = tail.lstrip(_CURRENCY)
    m = _NUMBER_RE.search(tail)
    if m is None:
        return None
    return float(m.group())


def answers_match(predicted: float, gold: float) -> bool:
    """Exact match up to a small relative tolerance (survives "42" vs "42.0")."""
    return abs(predicted - gold) <= 1e-6 * max(1.0, abs(gold))


def run_episode(
    source: TokenSource,
    cfg: EngineConfig,
    gold: float,
    example_id: str,
    model: str = "",
) -> EpisodeRecord:
    """Run one example to termination and score it.

    Loop: request min(chunk_size, remaining budget) tokens, append, track the
    first marker sighting, and (unless method is fixed) ask the policy for an
    action. EOS from the source ends the episode before the policy is
    consulted for that step; running out of budget ends it after the loop.
    """
    cal_cfg, pol_cfg = cfg.resolved()
    text = ""
    tokens_used = 0
    steps = 0
    chunks: List[str] = []
    hiddens: List = []
    marker = MarkerState()
    actions: List[Tuple[str, str, int]] = []
    stop: Optional[StopCause] = None
    error: Optional[str] = None

    try:
        while tokens_used < cfg.budget:
            request = min(cfg.chunk_size, cfg.budget - tokens_used)
            step = source.next_chunk(request)
            if step is None or step.tokens_in_chunk < 1:
                stop = StopCause.EOS
                break
            # A well-behaved source never over-delivers; clamp so replayed
            # traces cannot push past the hard cap.
            tokens_used += min(step.tokens_in_chunk, request)
            steps += 1
            text += step.chunk_text
            chunks.append(step.chunk_text)
            if step.hidden is not None:
                hiddens.append(step.hidden)
            marker = update_marker(marker, text, tokens_used, pol_cfg.marker)
            if step.eos:
                stop = StopCause.EOS
                break
            if cfg.method is Method.FIXED:
                continue
            readout = SignalReadout.from_histories(step.step_entropy(), chunks, hiddens)
            conf = confidence(readout, cal_cfg)
            action = decide(
                tokens_used, cfg.budget - tokens_used, readout.entropy, conf, marker, pol_cfg
            )
            actions.append((action.kind.value, action.reason.value, tokens_used))
            if action.kind is ActionKind.CONTINUE:
                continue
            stop = _STOP_REASON_CAUSE[action.reason]
            break
    except (BithaltError, OSError) as exc:  # source failure: keep the episode, flag it
        logger.warning("episode %s errored mid-run: %s", example_id, exc)
        error = f"{type(exc).__name__}: {exc}"
        stop = stop or StopCause.EOS

    if stop is None:
        stop = StopCause.BUDGET_EXHAUSTED

    predicted = extract_answer(text, pol_cfg.marker)
    correct = error is None and predicted is not None and answers_match(predicted, gold)
    early = stop in CONTROLLER_STOPS and tokens_used < cfg.budget

    return EpisodeRecord(
        example_id=example_id,
        method=cfg.method.value,
        budget=cfg.budget,
        tokens_used=tokens_used,
        steps=steps,
        actions=tuple(actions),
        stop_cause=stop.value,
        first_marker_tokens=marker.first_marker_tokens,
        generated_text=text,
        predicted_answer=predicted,
        gold_answer=gold,
        correct=correct,
        early_halt=early,
        model=model,
        error=error,
    )
