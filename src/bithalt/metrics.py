"""Aggregation of episode records into run summaries and report tables.

A summary reads only a record's ``Outcome`` fields, so it takes outcome rows or
whole records alike; ``report`` keeps one row per record. Percent values are
kept unrounded internally; rounding (half-up, one decimal) happens only at
table-emission time. Savings are computed from unrounded token means.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from operator import attrgetter
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .errors import EmptyRunError, GroupingError
from .trace_io import EpisodeRecord, Method, write_text

# Standard normal quantile at 97.5%; below printed precision vs plain 1.96.
Z95 = 1.959964

_METHOD_ORDER = {m.value: i for i, m in enumerate(Method)}


def wilson_interval(successes: int, n: int) -> Tuple[float, float]:
    """95% Wilson score interval for a binomial proportion, as proportions."""
    if n < 1:
        raise EmptyRunError("wilson interval undefined for n = 0")
    if not 0 <= successes <= n:
        raise ValueError(f"successes {successes} outside [0, {n}]")
    z = Z95
    p = successes / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1.0 - p) / n + z * z / (4 * n * n)) / denom
    low = 0.0 if successes == 0 else max(0.0, center - half)
    high = 1.0 if successes == n else min(1.0, center + half)
    return low, high


class Outcome(NamedTuple):
    """The fields of one episode record that a summary reads."""
    example_id: str
    model: str
    method: str
    budget: int
    tokens_used: int
    correct: bool
    early_halt: bool
    error: Optional[str]

    @classmethod
    def of(cls, record: EpisodeRecord) -> "Outcome":
        return cls._make(_outcome_fields(record))


_outcome_fields = attrgetter(*Outcome._fields)


@dataclass(frozen=True)
class RunSummary:
    """One (model, method, budget) group's counts, rates and token mean: a summary row."""
    method: str
    budget: int
    n: int
    n_correct: int
    accuracy: float          # percent
    ci_low: float            # percent
    ci_high: float           # percent
    avg_tokens: float        # unrounded mean
    premature_stop_pct: float
    n_early_incorrect: int
    n_errored: int
    savings_pct: Optional[float] = None
    model: str = ""


def summarize(
    records: Sequence[Outcome], fixed_reference: Optional[RunSummary] = None
) -> RunSummary:
    """Aggregate one (model, method, budget) group of records (or outcome rows), one
    per example.

    Errored episodes are excluded from every rate and mean but counted in
    ``n_errored``. Premature stops are early halts with an incorrect answer.
    """
    if not records:
        raise EmptyRunError("no records to summarize")
    groups = {(r.model, r.method, r.budget) for r in records}
    if len(groups) > 1:
        raise GroupingError(f"records mix (model, method, budget) groups: {sorted(groups)}")
    ids = sorted(r.example_id for r in records)
    repeated = sorted({a for a, b in zip(ids, ids[1:]) if a == b})
    if repeated:
        raise GroupingError(f"records repeat example_id(s) {repeated} in one group")
    clean = [r for r in records if r.error is None]
    n_errored = len(records) - len(clean)
    if not clean:
        raise EmptyRunError("all records errored for model %r, method %s, B=%d" % min(groups))
    n = len(clean)
    n_correct = sum(r.correct for r in clean)
    n_early_incorrect = sum(r.early_halt and not r.correct for r in clean)
    lo, hi = wilson_interval(n_correct, n)
    avg_tokens = sum(r.tokens_used for r in clean) / n

    savings = None
    if fixed_reference is not None and fixed_reference.avg_tokens > 0:
        savings = 100.0 * (fixed_reference.avg_tokens - avg_tokens) / fixed_reference.avg_tokens

    return RunSummary(
        method=records[0].method,
        budget=records[0].budget,
        n=n,
        n_correct=n_correct,
        accuracy=100.0 * n_correct / n,
        ci_low=100.0 * lo,
        ci_high=100.0 * hi,
        avg_tokens=avg_tokens,
        premature_stop_pct=100.0 * n_early_incorrect / n,
        n_early_incorrect=n_early_incorrect,
        n_errored=n_errored,
        savings_pct=savings,
        model=records[0].model,
    )


def summarize_all(records: Sequence[Outcome], dropped: List[str]) -> List[RunSummary]:
    """Summarize each (model, method, budget) group, with savings against the fixed group at
    its (model, budget). A group whose every record errored gets no row and leaves its message
    in ``dropped``; if no group is left, the first message (or none) is raised."""
    groups: Dict[Tuple[str, str, int], List[Outcome]] = {}
    for r in records:
        groups.setdefault((r.model, r.method, r.budget), []).append(r)
    # Budget-major, fixed first: each fixed summary is the savings reference for the groups
    # of its (model, budget) that follow it, and has none itself; a dropped fixed group none.
    fixed_refs: Dict[Tuple[str, int], RunSummary] = {}
    summaries = []
    for (model, method, budget), recs in sorted(
        groups.items(), key=lambda kv: (kv[0][2], _METHOD_ORDER[kv[0][1]], kv[0][0])
    ):
        try:
            summary = summarize(recs, fixed_reference=fixed_refs.get((model, budget)))
        except EmptyRunError as exc:  # every record of the group errored
            dropped.append(str(exc))
            continue
        if method == Method.FIXED:
            fixed_refs[(model, budget)] = summary
        summaries.append(summary)
    if not summaries:
        raise EmptyRunError(dropped[0] if dropped else "no records to summarize")
    return summaries


def _pct(value: Optional[float]) -> str:
    if value is None:
        return ""
    return str(Decimal(repr(value)).quantize(Decimal("0.1"), rounding=ROUND_HALF_UP))


def _toks(value: float) -> str:
    return str(int(Decimal(repr(value)).quantize(Decimal("1"), rounding=ROUND_HALF_UP)))


SUMMARY_COLUMNS = (
    "method,budget,n,accuracy,ci_low,ci_high,avg_tokens,premature_stop,savings,model"
)


def _quoted(text: str) -> str:
    """A model name as an RFC 4180 field: quoted, quotes doubled, if it holds , " or a newline."""
    return '"' + text.replace('"', '""') + '"' if any(c in text for c in ',"\r\n') else text


def format_summary_rows(summaries: Sequence[RunSummary]) -> List[str]:
    """The header and one row per summary, in the given (``summarize_all``) order."""
    rows = [SUMMARY_COLUMNS]
    for s in summaries:
        rows.append(",".join([s.method, str(s.budget), str(s.n), _pct(s.accuracy),
                              _pct(s.ci_low), _pct(s.ci_high), _toks(s.avg_tokens),
                              _pct(s.premature_stop_pct), _pct(s.savings_pct), _quoted(s.model)]))
    return rows


def emit_summary_table(summaries: Sequence[RunSummary], path) -> None:
    """CSV with one row per summary in the given (``summarize_all``) order,
    percents at one decimal and token means as integers."""
    write_text(path, "\n".join(format_summary_rows(summaries)) + "\n")
