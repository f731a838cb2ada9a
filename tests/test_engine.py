import dataclasses
import time
import weakref

import numpy as np
import pytest

from bithalt import engine
from bithalt.engine import (
    EngineConfig,
    Method,
    StopCause,
    answers_match,
    extract_answer,
    run_episode,
    run_episodes,
)
from bithalt.errors import ConfigError, InvalidInputError
from bithalt.policy import PolicyConfig, update_marker
from bithalt.signals import StepSignals
from bithalt.simulate import Scenario, ScenarioSource, Segment


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
        rec = run_episode(ScenarioSource(s), engine_cfg("bitcal", bits=4),
                          42.0, "tail")
        assert rec.first_marker_tokens == 160
        assert rec.tokens_used == 192
        assert rec.stop_cause == StopCause.TAIL_STOP.value
        assert rec.correct is True

        rec_a = run_episode(ScenarioSource(s), engine_cfg("adaptive", bits=4),
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
        src = ScenarioSource(s)
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
        a = run_episode(ScenarioSource(s), cfg, 1.0, "det")
        b = run_episode(ScenarioSource(s), cfg, 1.0, "det")
        assert a == b

    def test_adaptive_equals_bitcal_forced_sixteen(self):
        s = Scenario(
            scenario_id="force",
            segments=(Segment(512, 1.0, "reasoning {i} continues"),),
            gold_answer=9.0,
            emitted_answer=9.0,
            marker_at=200,
        )
        adaptive = run_episode(ScenarioSource(s), engine_cfg("adaptive"), 9.0, "f")
        forced_cfg = dataclasses.replace(engine_cfg("bitcal", bits=4),
                                         effective_bits_override=16)
        forced = run_episode(ScenarioSource(s), forced_cfg, 9.0, "f")
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

    def test_episode_passes_the_configs_own_calibrator_and_policy(self, monkeypatch):
        seen = []

        def spy(fn, index):
            def wrapped(*args):
                seen.append((fn.__name__, args[index]))
                return fn(*args)
            return wrapped

        monkeypatch.setattr(engine, "confidence", spy(engine.confidence, 1))
        monkeypatch.setattr(engine, "decide", spy(engine.decide, 5))
        cfg = engine_cfg("bitcal")
        run_episode(ScriptedSource([("step", 16, 3.0, False)] * 4), cfg, 1.0, "spy")
        assert len(seen) == 8
        assert all(got is (cfg.calibrator if name == "confidence" else cfg.policy)
                   for name, got in seen)


class StepListSource:
    """Serves the given steps in order; call number ``fail_at`` raises instead.
    A shallow copy forks it, call count included."""

    def __init__(self, steps, fail_at=None):
        self._steps, self._next = steps, 0
        self._calls = 0
        self._fail_at = fail_at

    def next_chunk(self, max_tokens):
        self._calls += 1
        if self._calls == self._fail_at:
            raise ConnectionError("backend fell over")
        if self._next == len(self._steps):
            return None
        self._next += 1
        return self._steps[self._next - 1]


class TestPassErrors:
    """A failure inside a pass errors the cells it would error if each ran alone."""

    STEPS = [StepSignals("x" * 10, 16, entropy=3.0, hidden=(1.0, float(i))) for i in range(8)]
    # Two cells per method that exhaust B=32 before step 4, one adaptive cell that
    # stops confidently at step 1, and three that are still running at step 4.
    CFGS = [engine_cfg(method, budget=budget) for method in Method for budget in (32, 256)] + [
        engine_cfg("adaptive", policy=PolicyConfig(floor_tokens=0, theta_h=3.5, theta_c=0.1))]

    def run_both(self, steps, fail_at=None):
        together = run_episodes(StepListSource(steps, fail_at), self.CFGS, 1.0, "e")
        assert together == [run_episode(StepListSource(steps, fail_at), cfg, 1.0, "e")
                            for cfg in self.CFGS]
        assert [(r.stop_cause, r.tokens_used) for r in together if r.budget == 32] == [
            ("budget_exhausted", 32)] * 3
        assert (together[-1].stop_cause, together[-1].tokens_used) == ("confident_stop", 16)
        return together

    def test_a_readout_failure_errors_only_the_running_controller_cells(self):
        steps = list(self.STEPS)
        steps[3] = dataclasses.replace(steps[3], hidden=(float("nan"), 0.0))
        records = self.run_both(steps)
        assert [(r.method, r.budget, r.tokens_used) for r in records if r.error] == [
            ("adaptive", 256, 64), ("bitcal", 256, 64)]
        assert {r.error for r in records if r.error} == {
            "InvalidInputError: hidden vector contains non-finite entries"}
        fixed = records[1]
        assert (fixed.error, fixed.stop_cause, fixed.tokens_used) == (None, "eos", 128)

    def test_a_source_failure_errors_every_running_cell(self):
        records = self.run_both(self.STEPS, fail_at=4)
        assert [(r.method, r.budget, r.tokens_used) for r in records if r.error] == [
            ("fixed", 256, 48), ("adaptive", 256, 48), ("bitcal", 256, 48)]
        assert {r.error for r in records if r.error} == {"ConnectionError: backend fell over"}

    def test_a_source_failure_at_the_split_step_errors_the_cells_that_split(self):
        # At token 48 the B=56 cells would read 8 tokens, so they split from the
        # pass; their fork carries the pass's call count, so it fails on the same
        # call as the pass's.
        cfgs = self.CFGS + [engine_cfg(method, budget=56) for method in Method]
        records = run_episodes(StepListSource(self.STEPS, 4), cfgs, 1.0, "e")
        assert records == [run_episode(StepListSource(self.STEPS, 4), cfg, 1.0, "e")
                           for cfg in cfgs]
        assert [(r.method, r.budget, r.tokens_used) for r in records if r.error] == [
            ("fixed", 256, 48), ("adaptive", 256, 48), ("bitcal", 256, 48),
            ("fixed", 56, 48), ("adaptive", 56, 48), ("bitcal", 56, 48)]
        assert {r.error for r in records if r.error} == {"ConnectionError: backend fell over"}

    @pytest.mark.parametrize("other", [dict(chunk_size=8),
                                       dict(policy=PolicyConfig(marker="ANSWER:"))])
    def test_a_pass_needs_one_chunk_size_and_marker(self, other):
        cfgs = [engine_cfg("bitcal"), engine_cfg("fixed", **other)]
        with pytest.raises(ConfigError, match="share chunk_size and marker"):
            run_episodes(StepListSource(self.STEPS), cfgs, 1.0, "e")


class FreshStepSource:
    """Hands out a new step, with a distribution and a hidden vector, at each pull, and
    notes at each pull whether the step it handed out last is still alive."""

    def __init__(self, steps):
        self._left, self._last, self.alive = steps, None, []

    def next_chunk(self, max_tokens):
        if self._last is not None:
            self.alive.append(self._last() is not None)
        if not self._left:
            return None
        self._left -= 1
        step = StepSignals(f"thinking step {self._left}\n", 16, distribution=np.full(64, 1 / 64),
                           hidden=np.array([1.0, float(self._left)]))
        self._last = weakref.ref(step)
        return step


class TestStepRelease:
    @pytest.mark.parametrize("methods", [[m] for m in Method] + [list(Method)],
                             ids=["fixed", "adaptive", "bitcal", "all"])
    def test_a_pass_frees_each_step_before_it_reads_the_next(self, methods):
        # A replay holds one step's arrays only if the pass has dropped the step it
        # finished by the time the source reads the next one.
        source = FreshStepSource(12)
        records = run_episodes(source, [engine_cfg(m, budget=256) for m in methods], 1.0, "e")
        assert all(r.error is None for r in records)
        assert source.alive and not any(source.alive), source.alive


class TestEngineConfig:
    @pytest.mark.parametrize("method,override,expected", [
        ("fixed", None, 4), ("adaptive", None, 16), ("bitcal", None, 4),
        ("adaptive", 8, 8), ("bitcal", 16, 16),
    ])
    def test_sub_configs_carry_the_effective_bits_when_built(self, method, override,
                                                             expected):
        cfg = engine_cfg(method, bits=4, effective_bits_override=override)
        assert cfg.calibrator.effective_bits == expected
        assert cfg.policy.effective_bits == expected

    def test_replace_recomputes_the_effective_bits(self):
        cfg = dataclasses.replace(engine_cfg("adaptive", bits=4), method=Method.BITCAL)
        assert (cfg.calibrator.effective_bits, cfg.policy.effective_bits) == (4, 4)


class TestMarkerWindow:
    """The marker scan reads only the new chunk plus len(marker) - 1 characters
    before it, and stops once the marker is seen."""

    @pytest.mark.parametrize("method", ["fixed", "bitcal"])
    @pytest.mark.parametrize("split", [1, 2, 3])
    def test_marker_split_across_chunks(self, method, split):
        # "... #" then "### 42", and the splits that leave more of it behind.
        steps = [("so the total is 42 " + "#" * split, 16, 1.0, False),
                 ("#" * (4 - split) + " 42\n", 16, 1.0, False),
                 ("checking it again\n", 16, 1.0, True)]
        rec = run_episode(ScriptedSource(steps), engine_cfg(method), 42.0, "split")
        assert rec.first_marker_tokens == 32
        assert rec.correct is True

    def test_multi_character_custom_marker(self):
        steps = [("reasoning step\n", 16, 1.0, False)] * 3 + [
            ("so the ANS", 16, 1.0, False), ("WER: 7\n", 16, 1.0, False),
            ("ANSWER: 9\n", 16, 1.0, True)]
        cfg = engine_cfg("adaptive", policy=PolicyConfig(marker="ANSWER:"))
        rec = run_episode(ScriptedSource(steps), cfg, 9.0, "custom")
        assert rec.first_marker_tokens == 80
        assert rec.predicted_answer == 9.0

    def test_marker_in_first_chunk(self):
        steps = [("#### 5\n", 12, 1.0, False), ("more text\n", 16, 1.0, True)]
        rec = run_episode(ScriptedSource(steps), engine_cfg("fixed"), 5.0, "first")
        assert rec.first_marker_tokens == 12

    @pytest.mark.parametrize("method", ["fixed", "adaptive"])
    def test_scan_window_is_flat_and_ends_at_the_sighting(self, monkeypatch, method):
        scanned = []

        def spy(state, full_text, cumulative_tokens, marker="####"):
            scanned.append(len(full_text))
            return update_marker(state, full_text, cumulative_tokens, marker)

        monkeypatch.setattr("bithalt.engine.update_marker", spy)
        chunk = "reasoning step {:03d}\n"
        steps = [(chunk.format(i), 4, 1.0, False) for i in range(200)]
        steps[150] = ("answer #### 7\n", 4, 1.0, False)
        rec = run_episode(ScriptedSource(steps), engine_cfg(method, budget=1024, chunk_size=4),
                          7.0, "window")
        assert rec.first_marker_tokens == 151 * 4
        assert len(scanned) == 151
        assert max(scanned) <= len(chunk.format(0)) + len("####") - 1


class TestFlatStepCost:
    """A step costs the same at any step index: appending a chunk to the text does
    not copy the text generated so far."""

    @staticmethod
    def seconds_per_step(steps):
        scenario = Scenario("long", (Segment(steps, 3.0, "thinking step {i}. "),), 1.0, 1.0)
        cfg = engine_cfg("fixed", budget=steps, chunk_size=1)
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            rec = run_episode(ScenarioSource(scenario), cfg, 1.0, "long")
            best = min(best, time.perf_counter() - start)
        assert rec.steps == steps
        return best / steps

    def test_per_step_time_at_64000_steps_is_under_three_times_that_at_4000(self):
        # A copy of the whole text per step makes the ratio grow with the step count
        # (about 9 at these counts); a flat step cost keeps it near 1.
        assert self.seconds_per_step(64_000) < 3 * self.seconds_per_step(4_000)
