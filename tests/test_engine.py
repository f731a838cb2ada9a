import dataclasses

import numpy as np
import pytest

from bithalt.engine import (
    EngineConfig,
    Method,
    StopCause,
    answers_match,
    extract_answer,
    run_episode,
)
from bithalt.errors import ConfigError, InvalidInputError
from bithalt.signals import StepSignals
from bithalt.simulate import Scenario, Segment, scenario_source


def engine_cfg(method, budget=512, bits=4, **kwargs):
    return EngineConfig(method=Method(method), budget=budget, served_bits=bits, **kwargs)


class TestExtractAnswer:
    def test_canonical_form(self):
        assert extract_answer("reasoning ... #### 42") == 42.0

    def test_final_marker_wins_and_commas_stripped(self):
        assert extract_answer("a #### 10 then more #### 1,234") == 1234.0

    def test_missing_marker(self):
        assert extract_answer("no marker") is None

    def test_currency_sign_stripped(self):
        assert extract_answer("total #### $18.50") == 18.5

    def test_negative_and_decimal(self):
        assert extract_answer("#### -3.25") == -3.25

    def test_marker_with_no_number(self):
        assert extract_answer("#### nothing numeric") is None


class TestAnswersMatch:
    def test_equal(self):
        assert answers_match(42.0, 42.0)

    def test_within_relative_tolerance(self):
        assert answers_match(42.0000001, 42.0)

    def test_integer_mismatch(self):
        assert not answers_match(41.0, 42.0)

    def test_small_magnitudes_use_absolute_floor(self):
        assert answers_match(0.0, 1e-7) is True
        assert answers_match(0.0, 0.1) is False


class ScriptedSource:
    """Minimal source emitting fixed (text, tokens, entropy, eos) tuples."""

    def __init__(self, steps):
        self._steps = list(steps)
        self._i = 0

    def next_chunk(self, max_tokens):
        if self._i >= len(self._steps):
            return None
        text, tokens, entropy, eos = self._steps[self._i]
        self._i += 1
        return StepSignals(
            chunk_text=text,
            tokens_in_chunk=min(tokens, max_tokens),
            entropy=entropy,
            eos=eos,
        )


class TestRunEpisode:
    def test_fixed_eos_is_not_early_halt(self):
        # 281 tokens then EOS under a 512 budget.
        steps = [("line\n", 16, 1.0, False)] * 17 + [("#### 6\n", 9, 1.0, True)]
        rec = run_episode(ScriptedSource(steps), engine_cfg("fixed"), 6.0, "ex")
        assert rec.tokens_used == 281
        assert rec.stop_cause == StopCause.EOS.value
        assert rec.early_halt is False
        assert rec.correct is True
        assert rec.actions == ()

    def test_bitcal_tail_arithmetic(self):
        s = Scenario(
            scenario_id="tail",
            segments=(Segment(160, 3.0, "step {i} reasoning here"),
                      Segment(352, 0.5, "confirming once more {i}")),
            gold_answer=42.0,
            emitted_answer=42.0,
            marker_at=160,
        )
        rec = run_episode(scenario_source(s, 16), engine_cfg("bitcal", bits=4),
                          42.0, "tail")
        assert rec.first_marker_tokens == 160
        assert rec.tokens_used == 192
        assert rec.stop_cause == StopCause.TAIL_STOP.value
        assert rec.correct is True

        rec_a = run_episode(scenario_source(s, 16), engine_cfg("adaptive", bits=4),
                            42.0, "tail")
        assert rec_a.tokens_used == 160
        assert rec_a.stop_cause == StopCause.TAIL_STOP.value

    def test_budget_never_exceeded_fuzz(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            steps = [
                (
                    "x" * int(rng.integers(0, 30)),
                    int(rng.integers(1, 40)),  # may exceed the requested size
                    float(rng.random() * 8),
                    bool(rng.random() < 0.02),
                )
                for _ in range(int(rng.integers(1, 60)))
            ]
            budget = int(rng.integers(16, 400))
            method = ["fixed", "adaptive", "bitcal"][int(rng.integers(0, 3))]
            cfg = engine_cfg(method, budget=budget, chunk_size=16)
            rec = run_episode(ScriptedSource(steps), cfg, 1.0, "fuzz")
            assert rec.tokens_used <= budget

    def test_chunk_accounting(self):
        s = Scenario(
            scenario_id="acct",
            segments=(Segment(200, 3.0, "step {i}"),),
            gold_answer=1.0,
            emitted_answer=1.0,
        )
        src = scenario_source(s, 16)
        emitted = []
        orig = src.next_chunk

        def spy(max_tokens):
            step = orig(max_tokens)
            if step is not None:
                emitted.append(step.tokens_in_chunk)
            return step

        src.next_chunk = spy
        rec = run_episode(src, engine_cfg("adaptive", budget=200), 1.0, "acct")
        assert sum(emitted) == rec.tokens_used

    def test_replay_determinism(self):
        s = Scenario(
            scenario_id="det",
            segments=(Segment(512, 2.5, "variant {i} of the derivation"),),
            gold_answer=1.0,
            emitted_answer=1.0,
            marker_at=300,
        )
        cfg = engine_cfg("bitcal")
        a = run_episode(scenario_source(s, 16), cfg, 1.0, "det")
        b = run_episode(scenario_source(s, 16), cfg, 1.0, "det")
        assert a == b

    def test_adaptive_equals_bitcal_forced_sixteen(self):
        s = Scenario(
            scenario_id="force",
            segments=(Segment(512, 1.0, "reasoning {i} continues"),),
            gold_answer=9.0,
            emitted_answer=9.0,
            marker_at=200,
        )
        adaptive = run_episode(scenario_source(s, 16), engine_cfg("adaptive"), 9.0, "f")
        forced_cfg = dataclasses.replace(engine_cfg("bitcal", bits=4),
                                         effective_bits_override=16)
        forced = run_episode(scenario_source(s, 16), forced_cfg, 9.0, "f")
        assert dataclasses.replace(forced, method="adaptive") == adaptive

    def test_errored_source_flagged(self):
        class FailingSource:
            def __init__(self):
                self.calls = 0

            def next_chunk(self, max_tokens):
                self.calls += 1
                if self.calls > 2:
                    raise ConnectionError("backend fell over")
                return StepSignals(chunk_text="x" * 10, tokens_in_chunk=16, entropy=3.0)

        rec = run_episode(FailingSource(), engine_cfg("adaptive"), 1.0, "err")
        assert rec.error is not None
        assert rec.correct is False
        assert rec.tokens_used == 32

    def test_invalid_source_input_flagged(self):
        class BadInputSource:
            def next_chunk(self, max_tokens):
                raise InvalidInputError("entropy must be finite")

        rec = run_episode(BadInputSource(), engine_cfg("bitcal"), 1.0, "bad")
        assert rec.error == "InvalidInputError: entropy must be finite"
        assert rec.stop_cause == StopCause.EOS.value

    def test_source_bug_propagates(self):
        class BuggySource:
            def next_chunk(self, max_tokens):
                return 1 / 0

        with pytest.raises(ZeroDivisionError):
            run_episode(BuggySource(), engine_cfg("fixed"), 1.0, "bug")

    def test_controller_bug_propagates(self, monkeypatch):
        def broken_decide(*args):
            raise ZeroDivisionError("division by zero")

        monkeypatch.setattr("bithalt.engine.decide", broken_decide)
        source = ScriptedSource([("step", 16, 1.0, False)] * 4)
        with pytest.raises(ZeroDivisionError):
            run_episode(source, engine_cfg("adaptive"), 1.0, "bug")

    def test_invalid_budget_rejected(self):
        with pytest.raises(ConfigError):
            EngineConfig(method=Method.FIXED, budget=8, chunk_size=16)
