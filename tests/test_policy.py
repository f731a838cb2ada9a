import itertools
import re

import numpy as np
import pytest

from bithalt import policy
from bithalt.errors import ConfigError
from bithalt.policy import MarkerState, PolicyConfig, decide, tail_length, update_marker
from bithalt.trace_io import Action, ActionKind, Reason, StopCause
from oracles import oracle_decide

DEFAULTS = PolicyConfig()


def cfg(bits=16, **kwargs):
    return PolicyConfig(effective_bits=bits, **kwargs)


class TestTailLength:
    @pytest.mark.parametrize("bits,expected", [
        (1, 32), (4, 32), (5, 16), (8, 16), (9, 0), (16, 0),
    ])
    def test_bands(self, bits, expected):
        assert tail_length(bits) == expected

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            tail_length(0)


class TestMarkerState:
    def test_first_sighting_records_token_count(self):
        state = update_marker(MarkerState(), "x #### 42", 160, "####")
        assert state.first_marker_tokens == 160

    def test_set_state_is_immutable(self):
        state = MarkerState(first_marker_tokens=160)
        state = update_marker(state, "x #### 42 #### 43", 200, "####")
        assert state.first_marker_tokens == 160

    def test_absent_marker_leaves_unset(self):
        state = update_marker(MarkerState(), "no marker here", 96, "####")
        assert state.first_marker_tokens is None


class TestAction:
    def test_members_are_the_docstrings_seven_outcomes(self):
        cases = re.findall(r"-> (\w+) / (\w+)", policy.__doc__)
        assert len(cases) == 7
        assert [(a.kind.name, a.reason.name) for a in Action] == cases
        assert [a.name for a in Action] == [reason for _, reason in cases]

    def test_rows_make_every_stop_and_record_distinct_pairs(self):
        """With the loop's own eos and budget_exhausted, the rows' stops are every StopCause,
        and each row's record strings are its kind's and reason's, a distinct pair."""
        loop_stops = {StopCause.EOS, StopCause.BUDGET_EXHAUSTED}
        assert ({a.stop for a in Action} - {None}) | loop_stops == set(StopCause)
        for a in Action:
            if a.kind is ActionKind.CONTINUE:
                assert a.stop is None, a
            else:  # a stop ends under its reason, the escalate under its kind
                named = a.reason if a.kind is ActionKind.STOP else a.kind
                assert a.stop is StopCause(named.value), a
        assert [a.record for a in Action] == [(a.kind.value, a.reason.value) for a in Action]
        assert len({a.record for a in Action}) == len(Action) == 7


class TestPolicyConfig:
    def test_threshold_order_enforced(self):
        with pytest.raises(ConfigError):
            PolicyConfig(theta_h=4.0, theta_e=4.0)

    def test_empty_marker_rejected(self):
        with pytest.raises(ConfigError):
            PolicyConfig(marker="")

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("name", ["theta_h", "theta_c", "theta_e"])
    def test_non_finite_thresholds_rejected_naming_the_field(self, name, value):
        with pytest.raises(ConfigError, match=f"^{name} must be finite") as exc:
            PolicyConfig(**{name: value})
        assert exc.value.field == name

    @pytest.mark.parametrize("name", ["floor_tokens", "budget_buffer"])
    def test_negative_counts_rejected_one_field_at_a_time(self, name):
        with pytest.raises(ConfigError, match=f"^{name} must be >= 0$") as exc:
            PolicyConfig(**{name: -1})
        assert exc.value.field == name

    def test_effective_bits_below_one_rejected_naming_the_field(self):
        with pytest.raises(ConfigError, match="^effective_bits must be >= 1$") as exc:
            PolicyConfig(effective_bits=0)
        assert exc.value.field == "effective_bits"


class TestDecideExamples:
    def test_below_floor_continues(self):
        a = decide(100, 412, 1.0, 0.9, MarkerState(), DEFAULTS)
        assert (a.kind, a.reason) == (ActionKind.CONTINUE, Reason.FLOOR)

    def test_buffer_stop_beats_escalate(self):
        a = decide(200, 16, 1.0, 0.9, MarkerState(), DEFAULTS)
        assert (a.kind, a.reason) == (ActionKind.STOP, Reason.BUFFER_STOP)
        a = decide(200, 16, 9.0, 0.0, MarkerState(), DEFAULTS)
        assert (a.kind, a.reason) == (ActionKind.STOP, Reason.BUFFER_STOP)

    def test_entropy_escalate(self):
        a = decide(200, 300, 4.5, 0.2, MarkerState(), DEFAULTS)
        assert (a.kind, a.reason) == (ActionKind.ESCALATE, Reason.ENTROPY_ESCALATE)

    def test_confident_stop(self):
        a = decide(200, 300, 1.5, 0.80, MarkerState(), DEFAULTS)
        assert (a.kind, a.reason) == (ActionKind.STOP, Reason.CONFIDENT_STOP)

    def test_tail_wait_at_four_bits(self):
        a = decide(170, 300, 0.1, 1.0, MarkerState(150), cfg(bits=4))
        assert (a.kind, a.reason) == (ActionKind.CONTINUE, Reason.TAIL_WAIT)

    def test_tail_stop_ignores_entropy(self):
        a = decide(182, 300, 9.0, 0.0, MarkerState(150), cfg(bits=4))
        assert (a.kind, a.reason) == (ActionKind.STOP, Reason.TAIL_STOP)

    def test_zero_tail_stops_at_sighting(self):
        a = decide(150, 300, 9.0, 0.0, MarkerState(150), cfg(bits=16))
        assert (a.kind, a.reason) == (ActionKind.STOP, Reason.TAIL_STOP)

    def test_boundaries_inclusive(self):
        # H = theta_h with c = theta_c stops; H = theta_e escalates.
        a = decide(200, 300, 2.0, 0.75, MarkerState(), DEFAULTS)
        assert a.reason == Reason.CONFIDENT_STOP
        a = decide(200, 300, 4.0, 1.0, MarkerState(), DEFAULTS)
        assert a.reason == Reason.ENTROPY_ESCALATE


def _grid_points():
    floor, buffer = DEFAULTS.floor_tokens, DEFAULTS.budget_buffer
    tokens = [0, 1, floor - 1, floor, floor + 1, 200, 511, 512]
    entropies = [
        DEFAULTS.theta_h - 1e-6, DEFAULTS.theta_h, DEFAULTS.theta_h + 1e-6,
        DEFAULTS.theta_e - 1e-6, DEFAULTS.theta_e, DEFAULTS.theta_e + 1e-6,
        0.0, 9.0,
    ]
    confs = [DEFAULTS.theta_c - 1e-6, DEFAULTS.theta_c, DEFAULTS.theta_c + 1e-6, 0.0, 1.0]
    remainings = [0, buffer - 1, buffer, buffer + 1, 300]
    marker_offsets = [None, 0, 15, 16, 17, 31, 32, 33]
    return tokens, remainings, entropies, confs, marker_offsets


class TestOracleEquivalence:
    @pytest.mark.parametrize("bits", [4, 8, 16])
    def test_exhaustive_grid(self, bits):
        c = cfg(bits=bits)
        tokens, remainings, entropies, confs, offsets = _grid_points()
        count = 0
        for t, r, h, conf_v, off in itertools.product(
            tokens, remainings, entropies, confs, offsets
        ):
            t_star = None if off is None else max(t - off, 0)
            state = MarkerState(t_star)
            got = decide(t, r, h, conf_v, state, c)
            want = oracle_decide(
                t, r, h, conf_v, t_star,
                c.theta_h, c.theta_c, c.theta_e,
                c.floor_tokens, c.budget_buffer, bits,
            )
            assert (got.kind.value, got.reason.value) == want, (t, r, h, conf_v, t_star)
            count += 1
        assert count >= 10_000 / 3

    def test_bypass_ignores_signals_once_marker_set(self):
        rng = np.random.default_rng(11)
        for bits in (4, 8, 16):
            c = cfg(bits=bits)
            for t in (128, 160, 200, 500):
                for t_star in (96, 128, t):
                    if t_star > t:
                        continue
                    baseline = decide(t, 300, 0.0, 0.0, MarkerState(t_star), c)
                    for _ in range(50):
                        h = float(rng.random() * 12)
                        conf_v = float(rng.random())
                        again = decide(t, 300, h, conf_v, MarkerState(t_star), c)
                        assert again == baseline

    def test_tail_wait_unreachable_above_eight_bits(self):
        c = cfg(bits=16)
        for t in range(0, 600):
            for t_star in range(0, t + 1):
                a = decide(t, 300, 3.0, 0.5, MarkerState(t_star), c)
                assert a.reason is not Reason.TAIL_WAIT

    def test_budget_monotonicity_toward_buffer_stop(self):
        # Shrinking the remaining budget can only move the verdict toward
        # buffer-stop, never away from it.
        c = DEFAULTS
        for h in (0.5, 3.0, 5.0):
            for conf_v in (0.2, 0.8):
                stopped = False
                for r in range(300, -1, -1):
                    a = decide(200, r, h, conf_v, MarkerState(), c)
                    if a.reason is Reason.BUFFER_STOP:
                        stopped = True
                    elif stopped:
                        pytest.fail(f"left buffer-stop as budget shrank: r={r}")
