"""Halting policy: threshold cases, marker tracking, and the bit-conditioned
post-marker confirmation tail, evaluated in a fixed order.

Case order per decision (first match wins); ``decide`` returns the outcome
as the ``Action`` member named after its reason, declared once, with the stop
it makes, in ``trace_io``:
  1. below floor                       -> CONTINUE / FLOOR
  2. marker seen, tail not yet served  -> CONTINUE / TAIL_WAIT
  3. marker seen, tail served          -> STOP / TAIL_STOP
  4. remaining budget under the buffer -> STOP / BUFFER_STOP
  5. entropy at/above escalate bar     -> ESCALATE / ENTROPY_ESCALATE
  6. low entropy and high confidence   -> STOP / CONFIDENT_STOP
  7. otherwise                         -> CONTINUE / DEFAULT_CONTINUE

Once the marker is seen and the floor is met, entropy and confidence are
bypassed entirely (cases 2-3 shadow 4-7).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import ConfigError
from .trace_io import Action, require_finite

DEFAULT_MARKER = "####"


@dataclass(frozen=True)
class MarkerState:
    """Token count at the first marker sighting; None until then, then frozen."""

    first_marker_tokens: Optional[int] = None


@dataclass(frozen=True)
class PolicyConfig:
    """The halting rule's thresholds, floor, buffer, bit width and answer marker."""
    theta_h: float = 2.0
    theta_c: float = 0.75
    theta_e: float = 4.0
    floor_tokens: int = 128
    budget_buffer: int = 32
    effective_bits: int = 16
    marker: str = DEFAULT_MARKER

    def __post_init__(self):
        require_finite(self)
        if not self.theta_h < self.theta_e:
            raise ConfigError(
                f"theta_h ({self.theta_h}) must be < theta_e ({self.theta_e})"
            )
        if self.floor_tokens < 0:
            raise ConfigError("must be >= 0", field="floor_tokens")
        if self.budget_buffer < 0:
            raise ConfigError("must be >= 0", field="budget_buffer")
        if self.effective_bits < 1:
            raise ConfigError("must be >= 1", field="effective_bits")
        if not self.marker:
            raise ConfigError("must be non-empty", field="marker")


# The precision tiers both bit-aware rules read: (widest bit width, confidence scale,
# post-marker tail tokens), the last row for every wider width. Lookups read _TIER_OF_BITS.
PRECISION_TIERS = ((4, 0.85, 32), (8, 1.00, 16), (None, 1.05, 0))
_TIER_OF_BITS = {bits: next(row for row in PRECISION_TIERS if bits <= row[0])
                 for bits in range(1, PRECISION_TIERS[-2][0] + 1)}


def tail_length(bits: int) -> int:
    """Confirmation tokens required after the first marker sighting."""
    if bits < 1:
        raise ConfigError(f"bits must be >= 1, got {bits}")
    return _TIER_OF_BITS.get(bits, PRECISION_TIERS[-1])[2]


def update_marker(
    state: MarkerState, full_text: str, cumulative_tokens: int, marker: str = DEFAULT_MARKER
) -> MarkerState:
    """Record the first marker sighting; a set state never changes."""
    if state.first_marker_tokens is None and marker in full_text:
        return MarkerState(first_marker_tokens=cumulative_tokens)
    return state


def decide(
    cumulative_tokens: int,
    remaining_budget: int,
    entropy: float,
    conf: float,
    marker_state: MarkerState,
    cfg: PolicyConfig,
) -> Action:
    if cumulative_tokens < cfg.floor_tokens:
        return Action.FLOOR

    t_star = marker_state.first_marker_tokens
    if t_star is not None:
        if cumulative_tokens - t_star < tail_length(cfg.effective_bits):
            return Action.TAIL_WAIT
        return Action.TAIL_STOP

    if remaining_budget < cfg.budget_buffer:
        return Action.BUFFER_STOP
    if entropy >= cfg.theta_e:
        return Action.ENTROPY_ESCALATE
    if entropy <= cfg.theta_h and conf >= cfg.theta_c:
        return Action.CONFIDENT_STOP
    return Action.DEFAULT_CONTINUE
