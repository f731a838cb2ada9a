"""Independent brute-force oracles used by the test suite.

The policy oracle re-reads the halting rule case by case, and the hidden
stability oracle recomputes the cosine mean over a whole history; both
deliberately share no code with the implementation under test.
"""

import math
from numbers import Real

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
