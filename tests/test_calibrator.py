import dataclasses

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from bithalt.calibrate import CalibratorConfig, confidence
from bithalt.errors import ConfigError, InvalidInputError
from bithalt.signals import SignalReadout
from oracles import oracle_confidence


def readout(h, tr, hid):
    return SignalReadout(entropy=h, trace_stability=tr, hidden_stability=hid,
                         hidden_stability_raw=hid)


class TestBitScale:
    """The precision tier's scale, as confidence applies it: entropy alone at half the
    ceiling gives a mix of exactly 0.5, so the result is half the scale."""

    @pytest.mark.parametrize("bits,expected", [
        (1, 0.85), (4, 0.85), (5, 1.00), (8, 1.00), (9, 1.05), (16, 1.05),
    ])
    def test_bands(self, bits, expected):
        cfg = CalibratorConfig(w_entropy=1.0, w_trace=0.0, w_hidden=0.0, effective_bits=bits)
        assert confidence(readout(5.0, 0.0, 0.0), cfg) == 0.5 * expected


class TestNormalizedUncertainty:
    def test_clip_engages_above_h_max(self):
        # ln of a ~152k vocabulary exceeds the default ceiling; unclipped, the
        # entropy term would pull the mix from 0.6 down to 0.524 (8 bits scale by 1.0).
        cfg = CalibratorConfig(effective_bits=8)
        assert confidence(readout(11.9, 1.0, 1.0), cfg) \
            == confidence(readout(10.0, 1.0, 1.0), cfg) == pytest.approx(0.6)


class TestCalibratorConfig:
    @given(
        st.tuples(*[st.floats(min_value=0.0, max_value=1e6)] * 3),
        st.floats(min_value=1e-3, max_value=1e3),
        st.floats(min_value=1e-3, max_value=1e3),
        st.integers(min_value=1, max_value=64),
    )
    def test_replace_changes_nothing(self, weights, h_max, temperature, bits):
        assume(sum(weights) > 0)
        cfg = CalibratorConfig(h_max, *weights, temperature, bits)
        assert (cfg.w_entropy, cfg.w_trace, cfg.w_hidden) == weights
        assert dataclasses.replace(cfg) == cfg

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ConfigError):
            CalibratorConfig(w_entropy=0, w_trace=0, w_hidden=0)

    @pytest.mark.parametrize("kwargs", [
        {"h_max": 0.0}, {"temperature": 0.0}, {"effective_bits": 0},
        {"w_entropy": -0.1},
    ])
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            CalibratorConfig(**kwargs)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("name", ["h_max", "w_entropy", "w_trace", "w_hidden",
                                      "temperature"])
    def test_non_finite_values_rejected_naming_the_field(self, name, value):
        with pytest.raises(ConfigError, match=f"^{name} must be finite") as exc:
            CalibratorConfig(**{name: value})
        assert exc.value.field == name


class TestConfidence:
    def test_perfect_signals_high_bits_clip_to_one(self):
        cfg = CalibratorConfig(effective_bits=16)
        assert confidence(readout(0.0, 1.0, 1.0), cfg) == 1.0

    def test_perfect_signals_four_bits(self):
        cfg = CalibratorConfig(effective_bits=4)
        assert confidence(readout(0.0, 1.0, 1.0), cfg) == pytest.approx(0.85, abs=1e-12)

    def test_worst_case_is_zero(self):
        for bits in (4, 8, 16):
            cfg = CalibratorConfig(effective_bits=bits)
            assert confidence(readout(10.0, 0.0, 0.0), cfg) == 0.0

    def test_no_clipping_distortion_when_under_one(self):
        cfg = CalibratorConfig(effective_bits=8)
        r = readout(5.0, 0.6, 0.4)
        c_raw = 0.40 * 0.5 + 0.35 * 0.6 + 0.25 * 0.4
        assert confidence(r, cfg) == pytest.approx(c_raw * 1.00, abs=1e-12)

    def test_temperature_flattens(self):
        sharp = CalibratorConfig(effective_bits=8, temperature=0.5)
        flat = CalibratorConfig(effective_bits=8, temperature=2.0)
        r = readout(5.0, 0.5, 0.5)
        base = confidence(readout(5.0, 0.5, 0.5), CalibratorConfig(effective_bits=8))
        assert confidence(r, sharp) == pytest.approx(base ** 2, abs=1e-12)
        assert confidence(r, flat) == pytest.approx(base ** 0.5, abs=1e-12)

    def test_weight_scaling_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            w = rng.random(3) + 1e-3
            lam = float(rng.random() * 10 + 0.01)
            r = readout(float(rng.random() * 10), float(rng.random()), float(rng.random()))
            a = CalibratorConfig(w_entropy=w[0], w_trace=w[1], w_hidden=w[2])
            b = CalibratorConfig(w_entropy=lam * w[0], w_trace=lam * w[1], w_hidden=lam * w[2])
            assert confidence(r, a) == pytest.approx(confidence(r, b), abs=1e-12)

    def test_monotonicity_randomized(self):
        rng = np.random.default_rng(4)
        cfg = CalibratorConfig(effective_bits=4)
        for _ in range(2000):
            h = float(rng.random() * 12)
            tr = float(rng.random())
            hid = float(rng.random())
            base = confidence(readout(h, tr, hid), cfg)
            assert confidence(readout(h + 0.5, tr, hid), cfg) <= base + 1e-12
            assert confidence(readout(h, min(tr + 0.1, 1.0), hid), cfg) >= base - 1e-12
            assert confidence(readout(h, tr, min(hid + 0.1, 1.0)), cfg) >= base - 1e-12

    def test_bit_ordering(self):
        rng = np.random.default_rng(5)
        lo = CalibratorConfig(effective_bits=4)
        hi = CalibratorConfig(effective_bits=16)
        for _ in range(2000):
            r = readout(float(rng.random() * 12), float(rng.random()), float(rng.random()))
            assert confidence(r, lo) <= confidence(r, hi) + 1e-12

    def test_output_in_unit_interval(self):
        rng = np.random.default_rng(6)
        for _ in range(1000):
            cfg = CalibratorConfig(
                effective_bits=int(rng.integers(1, 33)),
                temperature=float(rng.random() * 3 + 0.05),
            )
            r = readout(float(rng.random() * 20), float(rng.random()), float(rng.random()))
            assert 0.0 <= confidence(r, cfg) <= 1.0


# Readout values inside and outside [0, 1], with both signed zeros and the clip bounds.
SIGNAL = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                   st.floats(min_value=-2.0, max_value=2.0),
                   st.floats(allow_nan=False, allow_infinity=False))
POSITIVE = st.floats(min_value=0.0, max_value=1e6, exclude_min=True)


class TestConfidenceOracle:
    """confidence equals oracle_confidence bit for bit: a rewrite that reorders the
    arithmetic can move a value across a threshold, which approx would not see."""

    @given(SIGNAL, SIGNAL, SIGNAL, POSITIVE,
           st.tuples(*[st.floats(min_value=0.0, max_value=1e6)] * 3), POSITIVE,
           st.integers(min_value=1, max_value=32))
    # Each precision tier's edges, at a mix the clip leaves apart under all three scales.
    @example(5.0, 0.5, 0.5, 10.0, (0.40, 0.35, 0.25), 1.0, 1)
    @example(5.0, 0.5, 0.5, 10.0, (0.40, 0.35, 0.25), 1.0, 4)
    @example(5.0, 0.5, 0.5, 10.0, (0.40, 0.35, 0.25), 1.0, 5)
    @example(5.0, 0.5, 0.5, 10.0, (0.40, 0.35, 0.25), 1.0, 8)
    @example(5.0, 0.5, 0.5, 10.0, (0.40, 0.35, 0.25), 1.0, 9)
    @example(5.0, 0.5, 0.5, 10.0, (0.40, 0.35, 0.25), 1.0, 16)
    def test_bit_exact(self, h, tr, hid, h_max, weights, temperature, bits):
        assume(sum(weights) > 0)
        cfg = CalibratorConfig(h_max, *weights, temperature, bits)
        r = readout(h, tr, hid)
        assert confidence(r, cfg).hex() == oracle_confidence(r, cfg).hex()

    @pytest.mark.parametrize("h", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_entropy_is_the_same_error(self, h):
        for fn in (confidence, oracle_confidence):
            with pytest.raises(InvalidInputError, match="^entropy must be finite$"):
                fn(readout(h, 0.5, 0.5), CalibratorConfig())
