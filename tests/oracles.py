"""Independent brute-force oracles used by the test suite.

The policy oracle re-reads the halting rule case by case, the hidden
stability oracle recomputes the cosine mean over a whole history, and the
episode oracle re-runs one cell's loop from its documented rules. The policy
and stability oracles share no code with the implementation under test. The
episode oracle reuses four pieces of it that have their own tests:
calibrate.confidence (test_calibrator), extract_answer and answers_match
(test_engine), and the EpisodeRecord it fills in. A fault in those pieces
would show in the oracle too, so it tests the loop, not them.
"""

import math
from numbers import Real

from bithalt.calibrate import confidence
from bithalt.engine import EpisodeRecord, answers_match, extract_answer
from bithalt.errors import InvalidInputError
from bithalt.signals import SignalReadout


def oracle_tail(bits):
    if bits <= 4:
        return 32
    elif bits <= 8:
        return 16
    else:
        return 0


def oracle_decide(t, remaining, h, c, t_star, theta_h, theta_c, theta_e,
                  floor, buffer, bits):
    """Returns (action, reason) strings for the halting rule.

    Case order: floor, then the marker tail (which bypasses the entropy
    policy entirely), then buffer-stop, escalate, confident-stop, continue.
    """
    if t < floor:
        return ("continue", "floor")
    if t_star is not None:
        if t - t_star < oracle_tail(bits):
            return ("continue", "tail_wait")
        else:
            return ("stop", "tail_stop")
    if remaining < buffer:
        return ("stop", "buffer_stop")
    if h >= theta_e:
        return ("escalate", "entropy_escalate")
    if h <= theta_h and c >= theta_c:
        return ("stop", "confident_stop")
    return ("continue", "default_continue")


def oracle_hidden_stability(hiddens):
    """Mean consecutive cosine of unit vectors, summed left to right; 1.0 with
    fewer than two.

    Each vector, in order, must be a flat sequence of real numbers, then hold
    only finite ones, then have the first vector's length. Its unit vector is
    x / (sqrt(fsum of x_i * x_i) + 1e-8), and each cosine is the fsum of the
    products of two consecutive unit vectors' entries.
    """
    if len(hiddens) < 2:
        return 1.0
    flat = "hidden vectors must share one dimension"
    units = []
    for h in hiddens:
        try:
            entries = list(h)
        except TypeError:  # a scalar, or a 0-d array
            raise InvalidInputError(flat)
        if not all(isinstance(x, Real) for x in entries):  # nested, or an (n, 1) array
            raise InvalidInputError(flat)
        xs = [float(x) for x in entries]
        if not all(math.isfinite(x) for x in xs):
            raise InvalidInputError("hidden vector contains non-finite entries")
        if units and len(xs) != len(units[0]):
            raise InvalidInputError(flat)
        squares = []
        for x in xs:
            squares.append(x * x)
        norm = math.sqrt(math.fsum(squares)) + 1e-8
        units.append([x / norm for x in xs])
    total = 0.0
    for a, b in zip(units, units[1:]):
        products = []
        for x, y in zip(a, b):
            products.append(x * y)
        total += math.fsum(products)
    return total / (len(units) - 1)


def oracle_episode(source, cfg, gold, example_id):
    """The record of one cell run alone on ``source``, a stream that does not fail.

    Each step requests min(k, B - tokens so far) tokens and counts at most
    that many. The stream's end, or a step flagged EOS, ends the episode
    before the policy reads that step (stop "eos"); reaching B ends it with
    "budget_exhausted". The marker is first seen at the token count after the
    first step whose text so far holds it. A fixed cell never asks the
    policy. A controller cell asks oracle_decide with the step's entropy and
    the confidence of the readout over every step so far, recomputed from the
    whole history: trace stability is the share of identical pairs among
    consecutive stripped chunks that both hold at least 8 characters (1.0
    with fewer than two such pairs), and hidden stability is
    oracle_hidden_stability over the steps that carry a vector, clipped to
    [0, 1]. A stop ends the episode under its reason, an escalate under its
    kind. An early halt is a controller's ending before B.
    """
    p = cfg.policy
    text, used, steps, t_star, stop = "", 0, 0, None, None
    actions, chunks, hiddens = [], [], []
    while stop is None and used < cfg.budget:
        request = min(cfg.chunk_size, cfg.budget - used)
        step = source.next_chunk(request)
        if step is None:
            stop = "eos"
            break
        used += min(step.tokens_in_chunk, request)
        steps += 1
        text += step.chunk_text
        if t_star is None and p.marker in text:
            t_star = used
        if step.eos:
            stop = "eos"
            break
        if cfg.method.value == "fixed":
            continue
        chunks.append(step.chunk_text.strip())
        if step.hidden is not None:
            hiddens.append(step.hidden)
        pairs = [(a, b) for a, b in zip(chunks, chunks[1:]) if min(len(a), len(b)) >= 8]
        trace = 1.0 if len(pairs) < 2 else sum(a == b for a, b in pairs) / len(pairs)
        raw = oracle_hidden_stability(hiddens)
        conf = confidence(SignalReadout(step.entropy, trace, min(max(raw, 0.0), 1.0), raw),
                          cfg.calibrator)
        action, reason = oracle_decide(used, cfg.budget - used, step.entropy, conf, t_star,
                                       p.theta_h, p.theta_c, p.theta_e, p.floor_tokens,
                                       p.budget_buffer, p.effective_bits)
        actions.append((action, reason, used))
        if action != "continue":
            stop = reason if action == "stop" else action
    stop = stop or "budget_exhausted"
    predicted = extract_answer(text, p.marker)
    return EpisodeRecord(
        example_id=example_id, method=cfg.method.value, budget=cfg.budget, tokens_used=used,
        steps=steps, actions=tuple(actions), stop_cause=stop, first_marker_tokens=t_star,
        generated_text=text, predicted_answer=predicted, gold_answer=gold,
        correct=predicted is not None and answers_match(predicted, gold),
        early_halt=stop not in ("eos", "budget_exhausted") and used < cfg.budget)
