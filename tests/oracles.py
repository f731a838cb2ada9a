"""Independent brute-force oracles used by the test suite.

The policy oracle re-reads the halting rule case by case, and the hidden
stability oracle recomputes the cosine mean over a whole history; both
deliberately share no code with the implementation under test.
"""

import numpy as np

from bithalt.errors import InvalidInputError


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
    """Mean consecutive cosine of (2-norm + 1e-8)-normalized vectors, summed
    left to right; 1.0 with fewer than two. Every vector is checked for one
    shared 1-d shape and finite entries, in order, before any cosine."""
    if len(hiddens) < 2:
        return 1.0
    vecs = [np.asarray(h, dtype=float) for h in hiddens]
    for v in vecs:
        if v.ndim != 1 or v.shape != vecs[0].shape:
            raise InvalidInputError("hidden vectors must share one dimension")
        if not np.all(np.isfinite(v)):
            raise InvalidInputError("hidden vector contains non-finite entries")
    normed = [v / (np.linalg.norm(v) + 1e-8) for v in vecs]
    total = 0.0
    for a, b in zip(normed, normed[1:]):
        total += float(a @ b)
    return total / (len(normed) - 1)
