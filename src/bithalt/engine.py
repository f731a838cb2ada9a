"""Per-example episode loop: chunked generation under a hard token budget,
with the optional halting controller, plus answer extraction and scoring.

An EngineConfig settles the effective precision when it is built (16 bits for
adaptive, the served bits for bitcal and fixed, or the override): its
``calibrator`` and ``policy`` carry it, and an episode reads them as they are."""

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
    decide,
    update_marker,
)
from .signals import RunningSignals, StepSignals

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
            raise ConfigError("must be >= 1", field="chunk_size")
        if self.budget < self.chunk_size:
            raise ConfigError(f"must be >= chunk_size ({self.chunk_size}), got {self.budget}",
                              field="budget")
        if self.served_bits < 1:
            raise ConfigError("must be >= 1", field="served_bits")
        bits = self.effective_bits_override
        if bits is None:
            bits = 16 if self.method is Method.ADAPTIVE else self.served_bits
        object.__setattr__(self, "calibrator", replace(self.calibrator, effective_bits=bits))
        object.__setattr__(self, "policy", replace(self.policy, effective_bits=bits))


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
    first marker sighting (scanning only text a new sighting can overlap), and
    (unless method is fixed) ask the policy for an action on the episode's
    RunningSignals readout. EOS from the source ends the episode before the
    policy is consulted for that step; running out of budget ends it after the loop.
    """
    text = ""
    tokens_used = 0
    steps = 0
    signals = RunningSignals()
    marker = MarkerState()
    actions: List[Tuple[str, str, int]] = []
    stop: Optional[StopCause] = None
    error: Optional[str] = None

    try:
        while tokens_used < cfg.budget:
            request = min(cfg.chunk_size, cfg.budget - tokens_used)
            step = source.next_chunk(request)
            if step is None:
                stop = StopCause.EOS
                break
            # A well-behaved source never over-delivers; clamp so replayed
            # traces cannot push past the hard cap.
            tokens_used += min(step.tokens_in_chunk, request)
            steps += 1
            text += step.chunk_text
            if marker.first_marker_tokens is None:
                cut = len(text) - len(step.chunk_text) - len(cfg.policy.marker) + 1
                marker = update_marker(marker, text[max(0, cut):], tokens_used, cfg.policy.marker)
            if step.eos:
                stop = StopCause.EOS
                break
            if cfg.method is Method.FIXED:
                continue
            readout = signals.push(step)
            conf = confidence(readout, cfg.calibrator)
            action = decide(tokens_used, cfg.budget - tokens_used, readout.entropy, conf, marker,
                            cfg.policy)
            actions.append((action.kind.value, action.reason.value, tokens_used))
            if action.kind is ActionKind.CONTINUE:
                continue
            named = action.reason if action.kind is ActionKind.STOP else action.kind
            stop = StopCause(named.value)  # a STOP by its reason, the ESCALATE by its kind
            break
    except (BithaltError, OSError) as exc:  # source failure: keep the episode, flag it
        logger.warning("episode %s errored mid-run: %s", example_id, exc)
        error = f"{type(exc).__name__}: {exc}"
        stop = stop or StopCause.EOS

    if stop is None:
        stop = StopCause.BUDGET_EXHAUSTED

    predicted = extract_answer(text, cfg.policy.marker)
    correct = error is None and predicted is not None and answers_match(predicted, gold)
    # EOS and budget exhaustion are not controller stops: fixed never halts early.
    early = stop not in (StopCause.EOS, StopCause.BUDGET_EXHAUSTED) and tokens_used < cfg.budget

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
