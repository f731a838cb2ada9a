"""Bit-conditioned confidence: signal readout -> scalar in [0, 1].

The three signal weights are relative and kept as given: ``confidence``
divides the weighted mix by their total, so scaling all three changes nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError, InvalidInputError, require_finite
from .policy import precision_tier
from .signals import SignalReadout


def bit_scale(bits: int) -> float:
    """Multiplicative confidence scale keyed to nominal weight precision: the
    scale column of policy.PRECISION_TIERS (conservative at few bits)."""
    return precision_tier(bits)[1]


def normalized_uncertainty(entropy: float, h_max: float) -> float:
    """clip(entropy / h_max, 0, 1)."""
    if not math.isfinite(entropy):
        raise InvalidInputError("entropy must be finite")
    if h_max <= 0:
        raise ConfigError(f"h_max must be > 0, got {h_max}")
    return min(max(entropy / h_max, 0.0), 1.0)


@dataclass(frozen=True)
class CalibratorConfig:
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
    """Weighted signal mix, bit-scaled, clipped, then tempered.

    Monotone: non-increasing in entropy, non-decreasing in each stability
    proxy. Output always lies in [0, 1].
    """
    u = normalized_uncertainty(readout.entropy, cfg.h_max)
    tau_tr = min(max(readout.trace_stability, 0.0), 1.0)
    tau_hid = min(max(readout.hidden_stability, 0.0), 1.0)
    c_raw = ((cfg.w_entropy * (1.0 - u) + cfg.w_trace * tau_tr + cfg.w_hidden * tau_hid)
             / (cfg.w_entropy + cfg.w_trace + cfg.w_hidden))
    c = min(max(c_raw * bit_scale(cfg.effective_bits), 0.0), 1.0)
    c = min(max(c ** (1.0 / cfg.temperature), 0.0), 1.0)
    return c
