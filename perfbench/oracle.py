"""Expected outcomes and output checks, computed without any ``bithalt`` code.

The expected stop of an episode follows the halting rule's documented case
order (``policy.py`` module docstring) at the CLI's documented defaults, with
each step's signals in closed form for the single-segment scenarios that
``corpus.py`` writes. Summary rows are recomputed from the records with this
module's own Wilson formula and compared at printed precision.

Every check returns a list of problem strings; an empty list means the output
passed. Records and summary rows are read by field name, and fields a check
does not use are ignored.
"""

from __future__ import annotations

import csv
import json
import math
from collections import defaultdict
from pathlib import Path

# CLI defaults (README, `bithalt simulate --help`).
FLOOR = 128
BUFFER = 32
THETA_H = 2.0
THETA_C = 0.75
THETA_E = 4.0
H_MAX = 10.0
W_ENTROPY, W_TRACE, W_HIDDEN = 0.40, 0.35, 0.25
MARKER = "####"
MIN_CHUNK_CHARS = 8
Z95 = 1.959964

# Confidence values within this distance of THETA_C would make the expected
# stop depend on float rounding; corpus parameters keep clear of it.
CONF_MARGIN = 0.01

CONTROLLER_STOPS = {"buffer_stop", "confident_stop", "escalate", "tail_stop"}


def tail_length(bits: int) -> int:
    return 32 if bits <= 4 else 16 if bits <= 8 else 0


def bit_scale(bits: int) -> float:
    return 0.85 if bits <= 4 else 1.0 if bits <= 8 else 1.05


def _confidence(scenario: dict, steps: int, eff_bits: int) -> float:
    """Closed-form confidence after ``steps`` steps with no marker seen yet."""
    seg = scenario["segments"][0]
    u = min(max(seg["entropy"] / H_MAX, 0.0), 1.0)
    template = seg["text_template"]
    constant = "{i}" not in template
    long_enough = len(template.replace("{i}", "0").strip()) >= MIN_CHUNK_CHARS
    # Fewer than two eligible pairs fall back to 1.0; otherwise identical
    # chunks give 1.0 and chunks that change every step give 0.0.
    trace = 1.0 if steps < 3 or not long_enough or constant else 0.0
    rotation = seg["hidden_rotation"]
    hidden = 1.0 if rotation is None or steps < 2 else min(max(math.cos(rotation), 0.0), 1.0)
    c = (W_ENTROPY * (1 - u) + W_TRACE * trace + W_HIDDEN * hidden) * bit_scale(eff_bits)
    return min(max(c, 0.0), 1.0)


def expected(scenario: dict, method: str, bits: int, budget: int, k: int) -> dict:
    """The record fields an episode must end with, by the documented rule.

    Raises ValueError when a confidence value falls within CONF_MARGIN of
    THETA_C, so that generated corpora stay clear of rounding-dependent stops.
    """
    seg = scenario["segments"][0]
    eos_at, marker_at = scenario["eos_at"], scenario["marker_at"]
    limit = eos_at or seg["length"]
    eff_bits = 16 if method == "adaptive" else bits
    t = steps = 0
    t_star = None
    stop = None
    while t < budget:
        if t >= limit:
            stop = "eos"  # the stream has nothing more to give
            break
        t += min(k, budget - t, limit - t)
        steps += 1
        if t_star is None and marker_at is not None and t >= marker_at:
            t_star = t
        if eos_at is not None and t >= eos_at:
            stop = "eos"
            break
        if method == "fixed" or t < FLOOR:
            continue
        if t_star is not None:
            if t - t_star < tail_length(eff_bits):
                continue
            stop = "tail_stop"
            break
        if budget - t < BUFFER:
            stop = "buffer_stop"
            break
        if seg["entropy"] >= THETA_E:
            stop = "escalate"
            break
        if seg["entropy"] <= THETA_H:
            c = _confidence(scenario, steps, eff_bits)
            if abs(c - THETA_C) < CONF_MARGIN:
                raise ValueError(f"{scenario['scenario_id']}: confidence {c} too near theta_c")
            if c >= THETA_C:
                stop = "confident_stop"
                break
    stop = stop or "budget_exhausted"
    predicted = scenario["emitted_answer"] if t_star is not None else None
    return {
        "stop_cause": stop,
        "tokens_used": t,
        "steps": steps,
        "first_marker_tokens": t_star,
        "predicted_answer": predicted,
        "correct": predicted is not None and predicted == scenario["gold_answer"],
        "early_halt": stop in CONTROLLER_STOPS and t < budget,
    }


def read_records(path: Path):
    """Episode records of one JSONL file as dicts; the header line is skipped."""
    lines = [l for l in Path(path).read_text().splitlines() if l.strip()]
    return [json.loads(l) for l in lines[1:]]


def records_in(directory: Path):
    out = []
    for path in sorted(Path(directory).glob("records_*.jsonl")):
        out.extend(read_records(path))
    return out


def check_records(records, scenarios: dict, bits: int, k: int, grid) -> list:
    """Each record equals its scenario's expected stop; the grid is complete.

    ``grid`` is the set of (method, budget) pairs the run asked for.
    """
    problems = []
    seen = defaultdict(int)
    for r in records:
        key = (r["method"], r["budget"], r["example_id"])
        seen[key] += 1
        sc = scenarios.get(r["example_id"])
        if sc is None:
            problems.append(f"record for unknown example {r['example_id']}")
            continue
        if r.get("error") is not None:
            problems.append(f"{key}: errored: {r['error']}")
            continue
        want = expected(sc, r["method"], bits, r["budget"], k)
        for field, value in want.items():
            if r[field] != value:
                problems.append(f"{key}: {field}={r[field]!r}, expected {value!r}")
    for method, budget in grid:
        for sid in scenarios:
            if seen[(method, budget, sid)] != 1:
                problems.append(f"({method}, {budget}, {sid}): "
                                f"{seen[(method, budget, sid)]} records, expected 1")
    return problems


def wilson(successes: int, n: int, z: float = Z95):
    p = successes / n
    denom = 1 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    low = 0.0 if successes == 0 else max(0.0, center - half)
    high = 1.0 if successes == n else min(1.0, center + half)
    return low, high


def summary_rows(records) -> dict:
    """Recomputed summary values keyed by (model, method, budget)."""
    groups = defaultdict(list)
    for r in records:
        if r.get("error") is None:
            groups[(r.get("model", ""), r["method"], int(r["budget"]))].append(r)
    rows = {}
    for key, recs in groups.items():
        n = len(recs)
        correct = sum(bool(r["correct"]) for r in recs)
        low, high = wilson(correct, n)
        rows[key] = {
            "n": n,
            "accuracy": 100 * correct / n,
            "ci_low": 100 * low,
            "ci_high": 100 * high,
            "avg_tokens": sum(r["tokens_used"] for r in recs) / n,
            "premature_stop": 100 * sum(bool(r["early_halt"]) and not r["correct"]
                                        for r in recs) / n,
        }
    for (model, method, budget), row in rows.items():
        ref = rows.get((model, "fixed", budget))
        row["savings"] = None
        if method != "fixed" and ref is not None and ref["avg_tokens"] > 0:
            row["savings"] = 100 * (ref["avg_tokens"] - row["avg_tokens"]) / ref["avg_tokens"]
    return rows


# Half a unit in the last printed place, plus float slack: a printed value
# may round either way only when the exact value sits on a rounding edge.
_PRINTED_TOL = {"accuracy": 0.05, "ci_low": 0.05, "ci_high": 0.05,
                "premature_stop": 0.05, "savings": 0.05, "avg_tokens": 0.5}


def check_summary(summary_csv: Path, records) -> list:
    """summary.csv holds exactly the recomputed rows, at printed precision."""
    want = summary_rows(records)
    problems = []
    got = set()
    with open(summary_csv, newline="") as fh:
        for row in csv.DictReader(fh):
            key = (row["model"], row["method"], int(row["budget"]))
            got.add(key)
            exp = want.get(key)
            if exp is None:
                problems.append(f"summary row {key} has no records")
                continue
            if int(row["n"]) != exp["n"]:
                problems.append(f"{key}: n={row['n']}, expected {exp['n']}")
            for field, tol in _PRINTED_TOL.items():
                value = exp[field]
                if value is None or row[field] == "":
                    if (value is None) != (row[field] == ""):
                        problems.append(f"{key}: {field}={row[field]!r}, expected {value!r}")
                    continue
                if abs(float(row[field]) - value) > tol + 1e-9:
                    problems.append(f"{key}: {field}={row[field]}, expected {value:.4f}")
    for key in set(want) - got:
        problems.append(f"summary lacks row {key}")
    return problems


def check_replay_equals_simulate(replayed, simulated) -> list:
    """Replay records equal the simulate records of the same scenarios."""
    ref = {(r["method"], r["budget"], r["example_id"]): r for r in simulated}
    problems = []
    for r in replayed:
        key = (r["method"], r["budget"], r["example_id"])
        other = ref.get(key)
        if other is None:
            problems.append(f"{key}: no simulate record")
            continue
        for field in sorted(set(r) | set(other)):
            if r.get(field) != other.get(field):
                problems.append(f"{key}: replay {field}={r.get(field)!r}, "
                                f"simulate {other.get(field)!r}")
    if len(replayed) != len(simulated):
        problems.append(f"{len(replayed)} replay records, {len(simulated)} simulate records")
    return problems


def scored_text_problem(record, chunks):
    """None when the scored text is exactly the trace chunks whose tokens sum
    to tokens_used; otherwise what is wrong.

    ``chunks`` is the trace's (chunk_text, tokens) sequence.
    """
    text, tokens = "", 0
    for chunk_text, n in chunks:
        if tokens >= record["tokens_used"]:
            break
        text += chunk_text
        tokens += n
    if tokens != record["tokens_used"]:
        return (f"{record['method']} {record['example_id']}: tokens_used="
                f"{record['tokens_used']} is no sum of whole recorded chunks")
    if record["generated_text"] != text:
        return (f"{record['method']} {record['example_id']}: scored text holds "
                f"{len(record['generated_text'])} chars, chunks summing to "
                f"{tokens} tokens hold {len(text)}")
    return None


def check_offgrid(records, scenarios: dict, chunks: dict, methods, bits: int, budget: int,
                  k: int, crossing: int):
    """Off-grid replay: every record ends at its expected stop, and its scored
    text is the whole recorded chunks that sum to tokens_used.

    A scored-text fault is a known failure only on a ``fixed`` episode whose
    expected run crosses the chunk grid, where the replay source hands over a
    whole chunk though the engine asked for fewer tokens; ``crossing`` is how
    many such episodes the corpus holds. Any other fault is a problem.
    ``chunks`` maps each scenario to its trace's (chunk_text, tokens)
    sequence. Returns (problems, known failures).
    """
    problems, failures = [], []
    grid_end = budget - budget % k
    crossed = 0
    for r in records:
        want = expected(scenarios[r["example_id"]], r["method"], bits, budget, k)
        for field, value in want.items():
            if r[field] != value:
                problems.append(f"offgrid {r['method']} {r['example_id']}: "
                                f"{field}={r[field]!r}, expected {value!r}")
        known = r["method"] == "fixed" and want["tokens_used"] > grid_end
        crossed += known
        fault = scored_text_problem(r, chunks[r["example_id"]])
        if fault is not None:
            (failures if known else problems).append(fault)
    if crossed != crossing:
        problems.append(f"offgrid: {crossed} fixed episodes cross the chunk grid, "
                        f"expected {crossing}")
    want_keys = {(m, sid) for m in methods for sid in scenarios}
    seen = {(r["method"], r["example_id"]) for r in records}
    if seen != want_keys or len(records) != len(want_keys):
        problems.append(f"offgrid: {len(records)} records, expected {len(want_keys)}")
    return problems, failures
