"""Per-example episode loop: chunked generation under a hard token budget,
with the optional halting controller, plus answer extraction and scoring.
``run_episodes`` runs every config of one example in one pass over a single
stream; where some cells' last chunk is partial, the pass splits and those cells
go on over a fork of its stream. ``run_episode`` is its one-config case.

An EngineConfig settles the effective precision when it is built (16 bits for
adaptive, the served bits for bitcal and fixed, or the override): its
``calibrator`` and ``policy`` carry it, and an episode reads them as they are."""

from __future__ import annotations

import re
from copy import copy
from dataclasses import dataclass, field, replace
from typing import List, Optional, Protocol, Sequence, Tuple

from .calibrate import CalibratorConfig, confidence
from .errors import BithaltError, ConfigError
from .policy import DEFAULT_MARKER, MarkerState, PolicyConfig, decide, update_marker
from .signals import RunningSignals, StepSignals
from .trace_io import EpisodeRecord, Method, StopCause, is_early_halt


class TokenSource(Protocol):
    """One episode's token stream.

    ``next_chunk(max_tokens)`` returns the next step (with at most
    ``max_tokens`` tokens), or None once the stream is exhausted. A step
    carrying ``eos=True`` is the stream's last. ``copy(source)`` forks it: an
    independent stream at the same position, which reading either leaves alone.
    """

    def next_chunk(self, max_tokens: int) -> Optional[StepSignals]: ...


@dataclass(frozen=True)
class EngineConfig:
    """One cell's settings: method, budget, chunk size and served bits."""
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
    """Run one example to termination under one config and score it: the
    one-cell pass of ``run_episodes``, which never splits."""
    return run_episodes(source, [cfg], gold, example_id, model)[0]


def run_episodes(
    source: TokenSource,
    cfgs: Sequence[EngineConfig],
    gold: float,
    example_id: str,
    model: str = "",
) -> List[EpisodeRecord]:
    """Run one example under every config in one pass over ``source``, and
    score each cell.

    A cell's episode: request min(chunk_size, remaining budget) tokens, append,
    track the first marker sighting (scanning only text a new sighting can
    overlap), and (unless method is fixed) ask the policy for an action on the
    RunningSignals readout. EOS from the source ends it before the policy reads
    that step; running out of budget ends it after the loop.

    An action only stops or continues the stream, so cells that request the
    same tokens read the same steps: each step is pulled, appended and scanned
    once, pushed once while a controller cell runs, and given one confidence per
    distinct calibrator. Every config must share one chunk size and marker. Where
    some cells' request would differ (their last chunk is partial), the pass
    splits: those cells go on from its state (text, token and step counts, marker,
    a copy of the RunningSignals, their actions) over ``copy(source)``, a fork of
    the pass's stream, reading at most one more step: their partial last chunk.
    A source failure errors every running cell; a readout failure only the controller cells.
    """
    k, mark = cfgs[0].chunk_size, cfgs[0].policy.marker
    if any((cfg.chunk_size, cfg.policy.marker) != (k, mark) for cfg in cfgs):
        raise ConfigError("every config of a pass must share chunk_size and marker")
    records: List[Optional[EpisodeRecord]] = [None] * len(cfgs)
    actions: List[List[Tuple[str, str, int]]] = [[] for _ in cfgs]
    calibrators: dict = {}  # calibrator -> the controller cells that read its confidence
    for i, cfg in enumerate(cfgs):
        if cfg.method is not Method.FIXED:
            calibrators.setdefault(cfg.calibrator, []).append(i)

    # text is an argument: CPython appends in place to a plain local but copies a closure cell.
    def finish(cells: List[int], text: str, stop: StopCause,
               exc: Optional[Exception] = None) -> None:
        error = None if exc is None else f"{type(exc).__name__}: {exc}"
        predicted = extract_answer(text, mark)
        correct = error is None and predicted is not None and answers_match(predicted, gold)
        for i in cells:
            if exc is not None:
                import logging  # loaded only when an episode errors
                logging.getLogger(__name__).warning(
                    "episode %s %s B=%d errored mid-run: %s", example_id,
                    cfgs[i].method.value, cfgs[i].budget, exc)
            live.remove(i)
            records[i] = EpisodeRecord(
                example_id=example_id,
                method=cfgs[i].method.value,
                budget=cfgs[i].budget,
                tokens_used=tokens_used,
                steps=steps,
                actions=tuple(actions[i]),
                stop_cause=stop.value,
                first_marker_tokens=marker.first_marker_tokens,
                generated_text=text,
                predicted_answer=predicted,
                gold_answer=gold,
                correct=correct,
                early_halt=is_early_halt(stop, tokens_used, cfgs[i].budget),
                model=model,
                error=error,
            )

    # The pass, then each set of cells that split from it, with the state they go on from.
    passes = [(list(range(len(cfgs))), "", 0, 0, MarkerState(), RunningSignals(), source)]
    while passes:
        live, text, tokens_used, steps, marker, signals, source = passes.pop()
        settled = low = 0
        while live:
            request = k
            if tokens_used + k > low:  # a cell at its cap ends; one that would read less splits
                request = min(k, max(cfgs[i].budget for i in live) - tokens_used)
                finish([i for i in live if cfgs[i].budget == tokens_used], text,
                       StopCause.BUDGET_EXHAUSTED)
                split = [i for i in live if min(k, cfgs[i].budget - tokens_used) != request]
                if split:
                    live = [i for i in live if i not in split]
                    passes.append((split, text, tokens_used, steps, marker, copy(signals),
                                   copy(source)))
                if not live:
                    break
            if settled != len(live):  # cells only leave, so a new length means a new set
                settled = len(live)
                low = min(cfgs[i].budget for i in live)
                groups = [(cal, run) for cal, cells in calibrators.items()
                          if (run := [i for i in cells if i in live])]
            step = None  # frees the last step's arrays before the next step's are read
            try:
                step = source.next_chunk(request)
            except (BithaltError, OSError) as exc:  # source failure: keep the episodes, flag them
                finish(live[:], text, StopCause.EOS, exc)
                break
            if step is None:
                finish(live[:], text, StopCause.EOS)
                break
            # A well-behaved source never over-delivers; clamp so replayed
            # traces cannot push past the hard cap.
            tokens_used += min(step.tokens_in_chunk, request)
            steps += 1
            text += step.chunk_text
            if marker.first_marker_tokens is None:
                cut = len(text) - len(step.chunk_text) - len(mark) + 1
                marker = update_marker(marker, text[max(0, cut):], tokens_used, mark)
            if step.eos:
                finish(live[:], text, StopCause.EOS)
                break
            if not groups:
                continue
            try:
                readout = signals.push(step)
                made = {}  # this step's recorded actions, one tuple per decision the cells share
                for cal, cells in groups:
                    conf = confidence(readout, cal)
                    for i in cells:
                        cfg = cfgs[i]
                        action = decide(tokens_used, cfg.budget - tokens_used,
                                        readout.entropy, conf, marker, cfg.policy)
                        entry = made.get(action.record)
                        if entry is None:
                            entry = made[action.record] = action.record + (tokens_used,)
                        actions[i].append(entry)
                        if action.stop is not None:
                            finish([i], text, action.stop)
            except (BithaltError, OSError) as exc:
                finish([i for _, cells in groups for i in cells if i in live], text,
                       StopCause.EOS, exc)
    return records
