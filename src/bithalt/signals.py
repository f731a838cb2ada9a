"""Online per-step signals: token entropy and the two stability proxies.

``StepSignals`` is plain data. ``RunningSignals.push`` is the one
implementation of both stability proxies: the engine holds one RunningSignals
per pass over an example and pushes each step once, with O(1) work per step;
cells that split from the pass go on with a copy. The whole-history readouts
(``trace_stability``, ``hidden_stability``, ``SignalReadout.from_histories``)
are folds that push a history through a fresh RunningSignals.

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


def _dot(a: array, b: array) -> float:
    return math.fsum(map(mul, a, b))


def _unit_vector(hidden) -> array:
    """Read ``hidden`` as a flat, finite float64 vector whose fsum(x*x) is finite,
    and scale it by 1 / (sqrt(fsum(x*x)) + HIDDEN_NORM_EPS)."""
    # An array that says it is not 1-d is refused before it is read: numpy
    # 1.24 iterates an (n, 1) array as n floats.
    if getattr(hidden, "ndim", 1) != 1:
        raise InvalidInputError(_ONE_DIMENSION)
    try:
        v = array("d", hidden)
    except TypeError:  # a scalar, or nested sequences
        raise InvalidInputError(_ONE_DIMENSION) from None
    try:
        squares = math.fsum(map(mul, v, v))
    except OverflowError:  # a partial sum past float64 range
        squares = math.inf
    if not math.isfinite(squares):  # finite squares mean finite entries: scan only here
        raise InvalidInputError("hidden vector contains non-finite entries"
                                if not all(map(math.isfinite, v)) else
                                "hidden vector's squared norm overflows float64")
    norm = math.sqrt(squares) + HIDDEN_NORM_EPS
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
    work per step. A hidden vector is read once a second vector arrives to pair
    it with, the earlier one first; with fewer than two, both readouts are 1.0.
    The consecutive cosines are added left to right."""

    def __init__(self):
        self._prev_chunk = ""  # shorter than MIN_CHUNK_CHARS: the first pair is not eligible
        self._eligible = self._equal = self._n = 0
        self._first = None  # the first hidden vector, unread until a second arrives
        self._unit: Optional[array] = None  # the last hidden vector, read: over its norm
        self._sum = 0.0  # consecutive cosines, added left to right

    def push(self, step: StepSignals) -> SignalReadout:
        """Append one step to the histories and return the readout over them."""
        step_entropy = entropy(step.distribution) if step.entropy is None else step.entropy
        cur = step.chunk_text.strip()
        if min(len(self._prev_chunk), len(cur)) >= MIN_CHUNK_CHARS:
            self._eligible += 1
            self._equal += self._prev_chunk == cur
        self._prev_chunk = cur
        if step.hidden is not None:
            if self._unit is None and self._first is None:
                self._first = step.hidden
            else:
                prev = _unit_vector(self._first) if self._unit is None else self._unit
                unit = _unit_vector(step.hidden)
                if len(prev) != len(unit):
                    raise InvalidInputError(_ONE_DIMENSION)
                self._sum += _dot(prev, unit)
                self._n += 1
                self._first, self._unit = None, unit
        raw = self._sum / self._n if self._n else 1.0
        trace = 1.0 if self._eligible < 2 else self._equal / self._eligible
        return SignalReadout(step_entropy, trace, min(max(raw, 0.0), 1.0), raw)


def entropy(distribution: Sequence[float]) -> float:
    """Shannon entropy in nats of a probability vector.

    Zero-probability entries contribute zero. Raises
    InvalidDistributionError on non-finite entries, then on negative ones, then
    on a sum (an overflowing one included) off from 1 by more than DIST_SUM_TOL.
    The checks read the min and max, which propagate NaN, so a vector with no
    zero entry costs one whole-vector temporary: the log's.
    """
    import numpy as np

    p = np.asarray(distribution, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise InvalidDistributionError("distribution must be a non-empty 1-d vector")
    low, high = p.min(), p.max()
    if not (math.isfinite(low) and math.isfinite(high)):
        raise InvalidDistributionError("distribution contains non-finite entries")
    if low < 0:
        raise InvalidDistributionError("distribution contains negative entries")
    with np.errstate(over="ignore"):  # an overflowing sum is a bad sum, not a warning
        total = float(p.sum())
    if abs(total - 1.0) > DIST_SUM_TOL:
        raise InvalidDistributionError(f"distribution sums to {total}, not 1")
    nz = p if low > 0 else p[p > 0]  # no compacted copy when no entry is zero
    terms = np.log(nz)
    terms *= nz  # into the log's buffer: one whole-vector temporary, not two
    return float(-np.sum(terms))


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
