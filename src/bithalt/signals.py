"""Online per-step signals: token entropy and the two stability proxies.

``RunningSignals.push`` is the one implementation of both stability proxies:
the engine holds one RunningSignals per pass over an example and pushes each
step once, with O(1) work per step. The whole-history readouts (``trace_stability``,
``hidden_stability``, ``SignalReadout.from_histories``) are folds that push a
history through a fresh RunningSignals.

Hidden stability is computed with the standard library and exactly rounded
sums (``math.fsum``), so it gives the same bits on every Python and every
numpy build. ``entropy`` is the only code in the package that imports numpy,
and only when a step carries a distribution; ``simulate``, ``report`` and
replays of entropy-only traces never load it.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from itertools import zip_longest
from operator import mul
from typing import Optional, Sequence

from .errors import InvalidDistributionError, InvalidInputError

# Tolerance on |sum(p) - 1| for probability vectors.
DIST_SUM_TOL = 1e-6

# Added to the 2-norm before normalizing hidden vectors; small enough to be
# invisible at unit scale, large enough that a zero vector maps to zero
# (cosine contribution 0) instead of dividing by zero.
HIDDEN_NORM_EPS = 1e-8

_ONE_DIMENSION = "hidden vectors must share one dimension"

# Both chunks of a consecutive pair must be at least this long (in Unicode
# code points, after stripping leading/trailing whitespace) to count toward
# trace stability.
MIN_CHUNK_CHARS = 8


@dataclass(frozen=True)
class StepSignals:
    """Raw observables for one decoding step.

    Exactly one of ``entropy`` (precomputed, nats) and ``distribution``
    (a probability vector over the vocabulary) must be provided, and a step
    holds at least one token.
    """

    chunk_text: str
    tokens_in_chunk: int
    entropy: Optional[float] = None
    distribution: Optional[Sequence[float]] = None
    hidden: Optional[Sequence[float]] = None
    eos: bool = False

    def __post_init__(self):
        if (self.entropy is None) == (self.distribution is None):
            raise InvalidInputError(
                "exactly one of entropy and distribution must be set"
            )
        if self.entropy is not None and not math.isfinite(self.entropy):
            raise InvalidInputError("entropy must be finite")
        if self.tokens_in_chunk < 1:
            raise InvalidInputError(f"tokens must be >= 1, got {self.tokens_in_chunk}")

    def __eq__(self, other):
        """Field by field, the two vectors by their float64 bytes: NaN equals
        NaN, and a list equals an ndarray holding the same values."""
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def _key(self) -> tuple:
        vectors = (None if v is None else array("d", v).tobytes()
                   for v in (self.distribution, self.hidden))
        return (self.chunk_text, self.tokens_in_chunk, self.entropy, *vectors, self.eos)

    def step_entropy(self) -> float:
        """Entropy in nats, computed from the distribution at most once per step."""
        if self.entropy is not None:
            return self.entropy
        if "_entropy" not in self.__dict__:  # a memo, not a field: out of == and files
            object.__setattr__(self, "_entropy", entropy(self.distribution))
        return self.__dict__["_entropy"]

    def hidden_unit(self) -> array:
        """The hidden vector over (2-norm + HIDDEN_NORM_EPS), computed at most
        once per step; an invalid vector raises InvalidInputError on every read."""
        if "_hidden_unit" not in self.__dict__:  # a memo, like _entropy
            object.__setattr__(self, "_hidden_unit", _unit_vector(self.hidden))
        return self.__dict__["_hidden_unit"]

    def cosine(self, nxt: "StepSignals") -> float:
        """fsum(a_i * b_i) over this step's and then ``nxt``'s unit vector,
        computed at most once per (step, nxt) pair, as every cell of a replay
        pairs the same two steps; a mismatched pair raises on every read. The
        memo is kept on the earlier step, so a stream can still free its past."""
        memo = self.__dict__.get("_cosine")  # (nxt, cosine), like _entropy
        if memo is None or memo[0] is not nxt:
            unit, next_unit = self.hidden_unit(), nxt.hidden_unit()
            if len(unit) != len(next_unit):
                raise InvalidInputError(_ONE_DIMENSION)
            memo = (nxt, _dot(unit, next_unit))
            object.__setattr__(self, "_cosine", memo)
        return memo[1]


def _dot(a: array, b: array) -> float:
    return math.fsum(map(mul, a, b))


def _unit_vector(hidden) -> array:
    """Read ``hidden`` as a flat, finite float64 vector and scale it by
    1 / (sqrt(fsum(x*x)) + HIDDEN_NORM_EPS)."""
    # An array that says it is not 1-d is refused before it is read: numpy
    # 1.24 iterates an (n, 1) array as n floats.
    if getattr(hidden, "ndim", 1) != 1:
        raise InvalidInputError(_ONE_DIMENSION)
    try:
        v = array("d", hidden)
    except TypeError:  # a scalar, or nested sequences
        raise InvalidInputError(_ONE_DIMENSION) from None
    if not all(map(math.isfinite, v)):
        raise InvalidInputError("hidden vector contains non-finite entries")
    norm = math.sqrt(math.fsum(map(mul, v, v))) + HIDDEN_NORM_EPS
    return array("d", [x / norm for x in v])


@dataclass(frozen=True)
class SignalReadout:
    """One step's signal triple as consumed by the calibrator.

    ``hidden_stability`` is clipped to [0, 1]; the unclipped consecutive-cosine
    mean is kept in ``hidden_stability_raw`` for diagnostics.
    """

    entropy: float
    trace_stability: float
    hidden_stability: float
    hidden_stability_raw: float

    @classmethod
    def from_histories(cls, step_entropy, chunks, hiddens) -> "SignalReadout":
        """The readout after pushing the histories through one RunningSignals,
        chunk and hidden vector paired by position; the shorter list runs out first."""
        running = RunningSignals()
        readout = cls(step_entropy, 1.0, 1.0, 1.0)
        for chunk, hidden in zip_longest(chunks, hiddens):
            readout = running.push(StepSignals("" if chunk is None else chunk, 1,
                                               entropy=step_entropy, hidden=hidden))
        return readout


class RunningSignals:
    """Trace and hidden stability over one episode's steps, updated with O(1)
    work per step. A step's hidden vector is read, through its ``hidden_unit``
    memo, once a second vector arrives to pair it with; with fewer than two,
    both readouts are 1.0. Each consecutive cosine is read through the earlier
    step's ``cosine`` memo, and the cosines are added left to right."""

    def __init__(self):
        self._prev_chunk = ""  # shorter than MIN_CHUNK_CHARS: the first pair is not eligible
        self._eligible = self._equal = self._n = 0
        self._prev: Optional[StepSignals] = None  # the last step with a hidden vector
        self._sum = 0.0  # consecutive cosines, added left to right

    def push(self, step: StepSignals) -> SignalReadout:
        """Append one step to the histories and return the readout over them."""
        step_entropy = step.step_entropy()
        cur = step.chunk_text.strip()
        if min(len(self._prev_chunk), len(cur)) >= MIN_CHUNK_CHARS:
            self._eligible += 1
            self._equal += self._prev_chunk == cur
        self._prev_chunk = cur
        if step.hidden is not None:
            if self._prev is not None:
                self._sum += self._prev.cosine(step)
                self._n += 1
            self._prev = step
        raw = self._sum / self._n if self._n else 1.0
        trace = 1.0 if self._eligible < 2 else self._equal / self._eligible
        return SignalReadout(step_entropy, trace, min(max(raw, 0.0), 1.0), raw)


def entropy(distribution: Sequence[float]) -> float:
    """Shannon entropy in nats of a probability vector.

    Zero-probability entries contribute zero. Raises
    InvalidDistributionError on negative entries or a sum off from 1 by
    more than DIST_SUM_TOL.
    """
    import numpy as np

    p = np.asarray(distribution, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise InvalidDistributionError("distribution must be a non-empty 1-d vector")
    if not np.all(np.isfinite(p)):
        raise InvalidDistributionError("distribution contains non-finite entries")
    if np.any(p < 0):
        raise InvalidDistributionError("distribution contains negative entries")
    total = float(p.sum())
    if abs(total - 1.0) > DIST_SUM_TOL:
        raise InvalidDistributionError(f"distribution sums to {total}, not 1")
    nz = p[p > 0]
    return float(-np.sum(nz * np.log(nz)))


def trace_stability(chunks: Sequence[str]) -> float:
    """Fraction of consecutive long-enough chunk pairs that are identical.

    Chunks are compared after stripping leading/trailing whitespace; a pair is
    eligible only if both stripped chunks have at least MIN_CHUNK_CHARS
    characters. With fewer than two eligible pairs the score falls back to 1.0
    (this includes the empty history and, deliberately, a history with exactly
    one eligible pair).
    """
    return SignalReadout.from_histories(0.0, chunks, ()).trace_stability


def hidden_stability(hiddens: Sequence[Sequence[float]]) -> float:
    """Mean consecutive cosine similarity of normalized hidden vectors.

    Vectors are normalized by (2-norm + HIDDEN_NORM_EPS); a zero vector
    therefore contributes cosine 0 rather than erroring. Returns 1.0 when
    fewer than two vectors are available. The result may be negative; the
    caller clips before weighting.
    """
    return SignalReadout.from_histories(0.0, (), hiddens).hidden_stability_raw
