"""Bit-conditioned confidence: signal readout -> scalar in [0, 1].

The three signal weights are relative and kept as given: ``confidence``
divides the weighted mix by their total, so scaling all three changes nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError, InvalidInputError
from .policy import _TIER_OF_BITS, PRECISION_TIERS
from .signals import SignalReadout
from .trace_io import require_finite


@dataclass(frozen=True)
class CalibratorConfig:
    """The entropy ceiling, the three signal weights, the temperature and the bit width."""
    h_max: float = 10.0
    w_entropy: float = 0.40
    w_trace: float = 0.35
    w_hidden: float = 0.25
    temperature: float = 1.0
    effective_bits: int = 16

    def __post_init__(self):
        require_finite(self)
        if self.h_max <= 0:
            raise ConfigError("must be > 0", field="h_max")
        if self.temperature <= 0:
            raise ConfigError("must be > 0", field="temperature")
        if self.effective_bits < 1:
            raise ConfigError("must be >= 1", field="effective_bits")
        for name in ("w_entropy", "w_trace", "w_hidden"):
            if getattr(self, name) < 0:
                raise ConfigError("must be >= 0", field=name)
        if self.w_entropy + self.w_trace + self.w_hidden <= 0:
            raise ConfigError("at least one signal weight must be positive")


def confidence(readout: SignalReadout, cfg: CalibratorConfig) -> float:
    """Weighted signal mix, bit-scaled, clipped, then tempered, in this order:

        u = clip(entropy / h_max), an entropy that is not finite an InvalidInputError
        c_raw = (w_entropy * (1 - u) + w_trace * clip(trace_stability)
                 + w_hidden * clip(hidden_stability)) / (w_entropy + w_trace + w_hidden)
        c = clip(c_raw * scale), scale the policy.PRECISION_TIERS column for effective_bits
        return clip(c ** (1 / temperature))

    where clip(x) is min(max(x, 0.0), 1.0). Monotone: non-increasing in entropy,
    non-decreasing in each stability proxy. Output always lies in [0, 1].
    """
    # Run per step and calibrator: each clip is spelt out as min(max(...)) evaluates it (the
    # first argument wins a tie, NaN passes), and the scale is read from policy.PRECISION_TIERS.
    u = readout.entropy
    if not math.isfinite(u):
        raise InvalidInputError("entropy must be finite")
    u /= cfg.h_max
    tr, hid = readout.trace_stability, readout.hidden_stability
    c = ((cfg.w_entropy * (1.0 - (0.0 if u < 0.0 else 1.0 if u > 1.0 else u))
          + cfg.w_trace * (0.0 if tr < 0.0 else 1.0 if tr > 1.0 else tr)
          + cfg.w_hidden * (0.0 if hid < 0.0 else 1.0 if hid > 1.0 else hid))
         / (cfg.w_entropy + cfg.w_trace + cfg.w_hidden)
         * _TIER_OF_BITS.get(cfg.effective_bits, PRECISION_TIERS[-1])[1])
    c = (0.0 if c < 0.0 else 1.0 if c > 1.0 else c) ** (1.0 / cfg.temperature)
    return 0.0 if c < 0.0 else 1.0 if c > 1.0 else c
