"""Seeded input corpora for the three benchmark workloads.

Every scenario is a single segment (one entropy, one text template, one hidden
rotation), so each step's signals have a closed form that ``oracle.py`` can
evaluate without running any ``bithalt`` code. Family membership and family
sizes never depend on the seed; the seed only moves parameters inside ranges
that keep each family's stop cause and keep every confidence value at least
``CONF_MARGIN`` away from the stop threshold.

Continuous parameters are stratified (member ``i`` of ``n`` draws from the
``i``-th ``1/n`` slice of its range), and whether a member carries a hidden
state or a marker follows its index, so the amount of work in a corpus varies
little from seed to seed.
"""

from __future__ import annotations

import json
import math
import random
import sys
from pathlib import Path

import oracle

# Tokens per scripted stream for families that must outlast every budget.
LONG_STREAM = 1100

GRID_BUDGETS = (256, 512, 1024)
GRID_BITS = (4, 8, 16)
GRID_METHODS = ("fixed", "adaptive", "bitcal")
GRID_FAMILY_SIZE = 30  # members per family; six families

LONG_BUDGET = 400
LONG_BITS = 4
LONG_METHODS = ("adaptive", "bitcal")

REPLAY_BUDGETS = (192, 256)
REPLAY_OFFGRID_BUDGET = 264
# Off-grid traces whose `fixed` run crosses the 16-token chunk grid.
OFFGRID_CROSSING = 4
REPLAY_BITS = 4
VOCAB = 32768
HIDDEN_DIM = 4096

_VARYING = (
    "Working through step {i} of the problem.",
    "Checking intermediate quantity {i} again.",
    "Trying path {i} without success yet.",
    "Expanding term {i} of the expression.",
)
_CONSTANT = (
    "The running total is 17 so far.",
    "Carry the one and keep the sum.",
    "So the partial product stays put.",
)
_K1_VARYING = (
    "piece {i} of the derivation ",
    "token {i} in the long chain ",
)


def _strata(rng: random.Random, n: int, lo: float, hi: float):
    """One draw from each of ``n`` equal slices of [lo, hi), in slice order."""
    return [lo + (i + rng.random()) * (hi - lo) / n for i in range(n)]


def _scenario(sid, length, entropy, template, rotation, gold, emitted,
              marker_at=None, eos_at=None):
    return {
        "scenario_id": sid,
        "segments": [{
            "length": length,
            "entropy": entropy,
            "text_template": template,
            "hidden_rotation": rotation,
        }],
        "gold_answer": float(gold),
        "emitted_answer": float(emitted),
        "marker_at": marker_at,
        "eos_at": eos_at,
    }


def _answers(rng: random.Random, wrong_share: float):
    gold = rng.randint(2, 999)
    if rng.random() < wrong_share:
        return gold, gold + rng.randint(1, 50)
    return gold, gold


def _mid_entropy(rng):
    # Strictly between theta_h and theta_e: never a confident stop, never an
    # escalation.
    return round(rng.uniform(2.3, 3.7), 6)


def _rotation(rng, i):
    """Every other member has no hidden state."""
    return None if i % 2 == 0 else round(rng.uniform(0.0, 1.2), 6)


def grid_corpus(seed: int, n: int = GRID_FAMILY_SIZE):
    """Six families at k=16, each ending by one stop cause at most budgets."""
    rng = random.Random(f"scenario-grid:{seed}")
    out = []

    for i, m in enumerate(_strata(rng, n, 100, 1000)):
        gold, emitted = _answers(rng, 0.25)
        out.append(_scenario(f"tail-{i:03d}", LONG_STREAM, _mid_entropy(rng),
                             rng.choice(_VARYING), _rotation(rng, i), gold, emitted,
                             marker_at=int(m)))

    for i, h in enumerate(_strata(rng, n, 0.2, 1.5)):
        gold, _ = _answers(rng, 0.0)
        marker = int(rng.uniform(200, 1000)) if i % 2 else None
        out.append(_scenario(f"confident-{i:03d}", LONG_STREAM, round(h, 6),
                             rng.choice(_CONSTANT), round(rng.uniform(0.0, 0.3), 6),
                             gold, gold, marker_at=marker))

    for i, h in enumerate(_strata(rng, n, 4.3, 6.5)):
        gold, emitted = _answers(rng, 0.25)
        marker = int(rng.uniform(150, 1000)) if i % 2 else None
        out.append(_scenario(f"escalate-{i:03d}", LONG_STREAM, round(h, 6),
                             rng.choice(_VARYING), _rotation(rng, i // 2), gold, emitted,
                             marker_at=marker))

    for i in range(n):
        gold, _ = _answers(rng, 0.0)
        if i % 2:
            # Low entropy but unstable hidden state and changing text keep
            # confidence far under theta_c.
            entropy, rotation = round(rng.uniform(0.3, 1.7), 6), round(rng.uniform(1.45, 1.7), 6)
        else:
            entropy, rotation = _mid_entropy(rng), _rotation(rng, i // 2)
        out.append(_scenario(f"buffer-{i:03d}", LONG_STREAM, entropy,
                             rng.choice(_VARYING), rotation, gold, gold))

    for i, e in enumerate(_strata(rng, n, 20, 237)):
        eos_at = int(e)
        gold, emitted = _answers(rng, 0.25)
        marker = rng.randint(1, eos_at) if eos_at < oracle.FLOOR and i % 5 else None
        out.append(_scenario(f"eos-{i:03d}", eos_at + rng.randint(0, 64), _mid_entropy(rng),
                             rng.choice(_VARYING), _rotation(rng, i), gold, emitted,
                             marker_at=marker, eos_at=eos_at))

    for i in range(n):
        # The marker lands in the last chunk before one budget's buffer stop,
        # so a 4-bit tail runs that budget out.
        budget = GRID_BUDGETS[i % len(GRID_BUDGETS)]
        gold, emitted = _answers(rng, 0.25)
        out.append(_scenario(f"budget-{i:03d}", LONG_STREAM, _mid_entropy(rng),
                             rng.choice(_VARYING), _rotation(rng, i // 3), gold, emitted,
                             marker_at=budget - 31 + rng.randint(0, 15)))
    return out


def long_corpus(seed: int):
    """k=1 episodes: two run to the buffer, two serve a late marker's tail."""
    rng = random.Random(f"long-episode:{seed}")
    out = []
    for i in range(2):
        gold, _ = _answers(rng, 0.0)
        out.append(_scenario(f"buffer-{i:03d}", LONG_BUDGET + 64, _mid_entropy(rng),
                             _K1_VARYING[i], round(rng.uniform(0.05, 1.2), 6), gold, gold))
    # Episode cost is quadratic in its length today, so marker positions
    # move only a few tokens with the seed.
    for i, m in enumerate((250, 320)):
        gold, emitted = _answers(rng, 0.0)
        out.append(_scenario(f"marker-{i:03d}", LONG_BUDGET + 64, _mid_entropy(rng),
                             _K1_VARYING[i], round(rng.uniform(0.05, 1.2), 6), gold, emitted,
                             marker_at=m + rng.randint(0, 10)))
    return out


def replay_corpus(seed: int):
    """Scenarios whose full k=16 streams become the 32k-vocabulary traces."""
    rng = random.Random(f"replay-vocab:{seed}")
    out = []
    for i, m in enumerate(_strata(rng, 2, 130, 220)):
        gold, emitted = _answers(rng, 0.5)
        out.append(_scenario(f"tail-{i:03d}", 256, _mid_entropy(rng), rng.choice(_VARYING),
                             _rotation(rng, i), gold, emitted, marker_at=int(m)))
    for i, h in enumerate(_strata(rng, 2, 0.2, 1.5)):
        gold, _ = _answers(rng, 0.0)
        out.append(_scenario(f"confident-{i:03d}", 160, round(h, 6), rng.choice(_CONSTANT),
                             round(rng.uniform(0.0, 0.3), 6), gold, gold, marker_at=150))
    for i, h in enumerate(_strata(rng, 2, 4.3, 6.5)):
        gold, emitted = _answers(rng, 0.5)
        out.append(_scenario(f"escalate-{i:03d}", 160, round(h, 6), rng.choice(_VARYING),
                             _rotation(rng, i), gold, emitted, marker_at=140))
    for i in range(2):
        gold, _ = _answers(rng, 0.0)
        out.append(_scenario(f"buffer-{i:03d}", 256, _mid_entropy(rng), rng.choice(_VARYING),
                             round(rng.uniform(0.05, 1.2), 6), gold, gold))
    for i, e in enumerate(_strata(rng, 2, 88, 120)):
        gold, emitted = _answers(rng, 0.5)
        out.append(_scenario(f"eos-{i:03d}", 128, _mid_entropy(rng), rng.choice(_VARYING),
                             _rotation(rng, i), gold, emitted,
                             marker_at=int(e) // 2, eos_at=int(e)))
    return out


def offgrid_corpus():
    """Six fixed traces, independent of the seed, for the off-grid budget.

    Four streams run past ``REPLAY_OFFGRID_BUDGET`` without ending, so under
    ``fixed`` their last requested chunk is smaller than the recorded one.
    """
    return [
        _scenario("confident-early", 512, 0.5, _CONSTANT[0], 0.0, 42, 42),
        _scenario("marker-revision", 256, 3.0, _VARYING[0], None, 42, 42, marker_at=184),
        _scenario("escalation", 512, 4.5, _VARYING[1], None, 7, 7),
        _scenario("buffer-edge", 512, 3.0, _VARYING[2], None, 3, 3),
        _scenario("eos-before-floor", 96, 1.0, _VARYING[3], None, 5, 5,
                  marker_at=80, eos_at=96),
        _scenario("marker-before-floor", 512, 1.0, _VARYING[0], None, 9, 9, marker_at=96),
    ]


def write_scenarios(scenarios, directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for s in scenarios:
        (directory / f"{s['scenario_id']}.json").write_text(json.dumps(s, indent=2) + "\n")


def _answer_text(value: float) -> str:
    return str(int(value)) if float(value).is_integer() else repr(float(value))


def stream_chunks(scenario: dict, k: int):
    """(chunk_text, tokens, step_index) of a scenario's full stream at chunk size k.

    Follows the scenario file format: ``{i}`` is the step index, and the
    chunk whose token range holds ``marker_at`` carries the marker line.
    """
    seg = scenario["segments"][0]
    limit = scenario["eos_at"] or seg["length"]
    marker_at = scenario["marker_at"]
    pos, step = 0, 0
    while pos < limit:
        n = min(k, limit - pos)
        text = seg["text_template"].replace("{i}", str(step))
        if marker_at is not None and pos < marker_at <= pos + n:
            text += f"\n{oracle.MARKER} {_answer_text(scenario['emitted_answer'])}"
        yield text, n, step
        pos += n
        step += 1


def _zipf_with_entropy(np, entropy: float):
    """A full-support Zipf-shaped distribution over VOCAB with the given entropy."""
    ranks = np.arange(1, VOCAB + 1, dtype=float)
    lo, hi = 0.0, 40.0
    for _ in range(80):
        s = (lo + hi) / 2
        w = ranks ** -s
        p = w / w.sum()
        h = float(-(p * np.log(p)).sum())
        if h > entropy:
            lo = s
        else:
            hi = s
    return p


def write_trace_corpus(scenarios, directory: Path, seed: int, with_probs: bool) -> None:
    """Write each scenario's full k=16 stream as a trace file.

    With ``with_probs`` every step carries a VOCAB-long ``probs`` vector at the
    scripted entropy and, where the scenario scripts a rotation, a
    HIDDEN_DIM-wide hidden vector whose consecutive cosines equal cos(rotation).
    Without it, steps carry the scripted entropy and the 2-d hidden state.
    """
    # Imported here so that the benchmark process, which reads its children's
    # peak RSS, never loads numpy or bithalt itself.
    import numpy as np
    from bithalt.signals import StepSignals
    from bithalt.trace_io import TraceMeta, write_trace

    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, 7])
    for sc in scenarios:
        seg = sc["segments"][0]
        rotation = seg["hidden_rotation"]
        chunks = list(stream_chunks(sc, 16))
        ends_early = sc["eos_at"] is not None
        if with_probs:
            base = _zipf_with_entropy(np, seg["entropy"])
            q, _ = np.linalg.qr(rng.standard_normal((HIDDEN_DIM, 2)))
        steps = []
        angle = 0.0
        for j, (text, n, _) in enumerate(chunks):
            hidden = None
            if rotation is not None:
                angle += rotation
                if with_probs:
                    hidden = (q[:, 0] * math.cos(angle) + q[:, 1] * math.sin(angle)).tolist()
                else:
                    hidden = (math.cos(angle), math.sin(angle))
            if with_probs:
                signal = {"distribution": base[rng.permutation(VOCAB)].tolist()}
            else:
                signal = {"entropy": seg["entropy"]}
            steps.append(StepSignals(
                chunk_text=text, tokens_in_chunk=n, hidden=hidden,
                eos=ends_early and j == len(chunks) - 1, **signal,
            ))
        meta = TraceMeta(example_id=sc["scenario_id"], gold_answer=sc["gold_answer"],
                         model="sim", served_bits=REPLAY_BITS)
        write_trace(meta, steps, directory / f"{sc['scenario_id']}.jsonl")


def main(argv) -> int:
    """python3 corpus.py SEED OUTDIR: write the replay-vocab trace corpora.

    Run in its own process so that the benchmark process stays small: a child
    process's peak RSS reading starts from its parent's.
    """
    seed, out = int(argv[0]), Path(argv[1])
    write_trace_corpus(replay_corpus(seed), out / "traces", seed, with_probs=True)
    write_trace_corpus(offgrid_corpus(), out / "offgrid", 0, with_probs=False)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
