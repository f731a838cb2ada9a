import dataclasses
import itertools
import json
import math
import tempfile
import weakref
from copy import copy
from functools import partial
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bithalt import cli, engine
from bithalt.calibrate import CalibratorConfig, confidence
from bithalt.engine import EngineConfig, Method, StopCause, run_episode, run_episodes
from bithalt.errors import ConfigError, TraceParseError
from bithalt.policy import DEFAULT_MARKER, PRECISION_TIERS, PolicyConfig
from bithalt.signals import RunningSignals
from bithalt.simulate import (
    Scenario,
    ScenarioSource,
    Segment,
    load_scenario,
    scenario_suite_canonical,
)
from bithalt.trace_io import ReplaySource, TraceMeta, read_trace, write_trace

from oracles import oracle_episode


def run(scenario, method, budget=512, bits=4, **policy_kwargs):
    cfg = EngineConfig(method=Method(method), budget=budget, served_bits=bits)
    if policy_kwargs:
        cfg = dataclasses.replace(
            cfg, policy=dataclasses.replace(cfg.policy, **policy_kwargs)
        )
    return run_episode(ScenarioSource(scenario), cfg,
                       scenario.gold_answer, scenario.scenario_id, model="sim")


class TestScenarioValidation:
    def test_nonpositive_segment_rejected(self):
        with pytest.raises(ConfigError):
            Segment(0, 1.0, "text")

    def test_negative_segment_entropy_rejected(self):
        with pytest.raises(ConfigError, match="segment entropy must be >= 0"):
            Segment(10, -0.5, "text")

    def test_scenario_without_segments_rejected(self):
        with pytest.raises(ConfigError, match="scenario needs at least one segment"):
            Scenario("s", (), 1.0, 1.0)

    def test_offsets_must_fit_script(self):
        with pytest.raises(ConfigError):
            Scenario("s", (Segment(10, 1.0, "t"),), 1.0, 1.0, marker_at=11)


class TestScenarioSource:
    def test_token_totals_match_script(self):
        s = Scenario("s", (Segment(100, 1.0, "t{i}"), Segment(55, 2.0, "u{i}")), 1.0, 1.0)
        src = ScenarioSource(s)
        total = 0
        while (step := src.next_chunk(16)) is not None:
            total += step.tokens_in_chunk
        assert total == 155

    def test_fixed_runs_to_budget(self):
        s = Scenario("s", (Segment(512, 1.0, "stable text line"),), 1.0, 1.0)
        rec = run(s, "fixed", budget=512)
        assert rec.tokens_used == 512
        assert rec.stop_cause == StopCause.BUDGET_EXHAUSTED.value

    def test_marker_tail_savings_example(self):
        s = Scenario(
            "s",
            (Segment(160, 3.0, "step {i}"), Segment(352, 0.5, "check {i}")),
            42.0, 42.0, marker_at=160,
        )
        rec = run(s, "bitcal", bits=4)
        assert (rec.tokens_used, rec.correct) == (192, True)

    def test_wrong_answer_counts_premature(self):
        s = Scenario(
            "s",
            (Segment(160, 3.0, "step {i}"), Segment(352, 0.5, "check {i}")),
            gold_answer=42.0, emitted_answer=41.0, marker_at=160,
        )
        rec = run(s, "adaptive")
        assert rec.tokens_used == 160
        assert rec.early_halt is True
        assert rec.correct is False

    def test_fractional_answer_is_emitted_in_full_and_scored(self):
        s = Scenario("s", (Segment(64, 0.5, "step {i}"),), 2.5, 2.5, marker_at=32)
        rec = run(s, "fixed", budget=64)
        assert "#### 2.5" in rec.generated_text
        assert (rec.predicted_answer, rec.correct) == (2.5, True)

    def test_eos_flag_truncates_stream(self):
        s = Scenario("s", (Segment(100, 1.0, "t{i}"),), 1.0, 1.0, eos_at=50)
        rec = run(s, "fixed", budget=512)
        assert rec.tokens_used == 50
        assert rec.stop_cause == StopCause.EOS.value

    def test_hidden_rotation_controls_stability(self):
        import math

        s = Scenario(
            "s", (Segment(64, 1.0, "t{i}", hidden_rotation=math.pi / 3),), 1.0, 1.0
        )
        src = ScenarioSource(s)
        hiddens = []
        while (step := src.next_chunk(16)) is not None:
            hiddens.append(step.hidden)
        from bithalt.signals import hidden_stability

        assert hidden_stability(hiddens) == pytest.approx(math.cos(math.pi / 3), abs=1e-6)


class TestCanonicalSuite:
    def test_suite_covers_named_behaviors(self):
        suite = scenario_suite_canonical()
        assert len(suite) >= 6
        ids = {s.scenario_id for s in suite}
        assert {
            "confident-early-wrong",
            "marker-then-revision",
            "entropy-escalation",
            "buffer-edge",
            "eos-before-floor",
            "marker-before-floor",
        } <= ids

    def test_replay_is_deterministic(self):
        for s in scenario_suite_canonical():
            for method in ("fixed", "adaptive", "bitcal"):
                assert run(s, method) == run(s, method)

    @pytest.mark.parametrize("bits,expect_stop", [(4, True), (8, True), (16, True)])
    def test_marker_before_floor_boundary(self, bits, expect_stop):
        # First post-floor decision is a tail stop iff floor - marker_at >= tail.
        suite = {s.scenario_id: s for s in scenario_suite_canonical()}
        s = suite["marker-before-floor"]
        assert s.marker_at == 96
        rec = run(s, "bitcal", bits=bits)
        # 128 - 96 = 32 >= tail(bits) for every band, so all stop at the floor.
        assert rec.tokens_used == 128
        assert rec.stop_cause == StopCause.TAIL_STOP.value

    def test_marker_before_floor_other_side_of_boundary(self):
        # Move the marker later so the tail is NOT yet served at the floor.
        suite = {s.scenario_id: s for s in scenario_suite_canonical()}
        s = dataclasses.replace(suite["marker-before-floor"], marker_at=112)
        rec = run(s, "bitcal", bits=4)
        # 128 - 112 = 16 < 32: waits until 112 + 32 = 144.
        assert rec.tokens_used == 144
        assert rec.stop_cause == StopCause.TAIL_STOP.value

    def test_no_spurious_halts_without_marker(self):
        # Mid-band entropy, sub-threshold confidence, no marker: with the
        # budget buffer disabled both adaptive variants exhaust the budget.
        s = Scenario("s", (Segment(512, 3.0, "path {i} fails"),), 1.0, 1.0)
        for method in ("adaptive", "bitcal"):
            rec = run(s, method, budget_buffer=0)
            assert rec.tokens_used == 512
            assert rec.stop_cause == StopCause.BUDGET_EXHAUSTED.value


class TestScenarioFiles:
    def test_round_trip(self, tmp_path):
        for s in scenario_suite_canonical():
            path = tmp_path / f"{s.scenario_id}.json"
            path.write_text(json.dumps(dataclasses.asdict(s)))
            assert load_scenario(path) == s

    def test_non_finite_gold_answer_is_a_parse_error(self, tmp_path):
        s = scenario_suite_canonical()[0]
        path = tmp_path / "nan.json"
        path.write_text(json.dumps({**dataclasses.asdict(s), "gold_answer": float("nan")}))
        with pytest.raises(TraceParseError,
                           match=r"nan.json: invalid scenario: gold_answer must be finite"):
            load_scenario(path)

    def test_malformed_file_reports_path(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(TraceParseError):
            load_scenario(bad)


@st.composite
def scenarios(draw):
    segments = tuple(draw(st.lists(st.builds(
        Segment,
        length=st.integers(1, 48),
        entropy=st.sampled_from([0.2, 1.0, 3.0, 4.5]),
        # "## 42 ##" splits a marker across any two consecutive chunks.
        text_template=st.sampled_from(["The running total is 17 so far.", "path {i} fails",
                                       f"tally {DEFAULT_MARKER} 13", "ok", "## 42 ##"]),
        hidden_rotation=st.sampled_from([None, 0.0, 0.3, 2.0])), min_size=1, max_size=4)))
    offset = st.one_of(st.none(), st.integers(1, sum(seg.length for seg in segments)))
    return Scenario("s", segments, 42.0, draw(st.sampled_from([42.0, 13.0])),
                    marker_at=draw(offset), eos_at=draw(offset))


class TestOnePass:
    """Every cell of a pass, including the cells that split from it, gives the
    record of the independent episode oracle."""

    @given(scenarios(), st.integers(1, 32), st.data())
    @settings(max_examples=150, deadline=None)
    def test_every_cell_equals_the_oracle(self, scenario, k, data):
        budgets = data.draw(st.lists(st.integers(k, 12 * k), min_size=1, max_size=3))
        budgets.append(k * data.draw(st.integers(1, 8)))  # on the k grid
        if k > 1:  # off the k grid: a cell that runs to its budget ends on a partial chunk
            budgets.append(k * data.draw(st.integers(1, 8)) + data.draw(st.integers(1, k - 1)))
        theta_h = data.draw(st.sampled_from([0.5, 1.0, 2.0, 3.5]))
        thresholds = dict(theta_h=theta_h, theta_c=data.draw(st.sampled_from([0.3, 0.75, 0.9])),
                          theta_e=theta_h + data.draw(st.sampled_from([0.5, 1.0, 2.5])))
        cells = data.draw(st.permutations(list(itertools.product(Method, budgets))))

        def policy():
            # Floor 4096: controller cells also run to an off-grid budget and split.
            return PolicyConfig(floor_tokens=data.draw(st.sampled_from([0, 16, 128, 4096])),
                                budget_buffer=data.draw(st.sampled_from([0, 8, 32])), **thresholds)
        cfgs = [EngineConfig(method=method, budget=budget, chunk_size=k, policy=policy(),
                             served_bits=data.draw(st.sampled_from([4, 8, 16])))
                for method, budget in cells]
        # A replay of the script drained in k-token chunks serves whole chunks
        # whatever the request, so a partial request is clamped.
        drained = ScenarioSource(scenario)
        recorded = list(iter(partial(drained.next_chunk, k), None))
        for new_source in (partial(ScenarioSource, scenario), partial(ReplaySource, recorded)):
            for cfg, record in zip(cfgs, run_episodes(new_source(), cfgs, 42.0, "s")):
                assert record == oracle_episode(new_source(), cfg, 42.0, "s")


class TestStopOrder:
    """A cell only stops or goes on, so every cell of a pass reads the same stream, and it
    stops at the first step where a case of ``decide`` that stops holds. Each such case is
    monotone in each setting, so one setting moved one way moves every stop one way, and
    each case that stops bitcal stops adaptive too: bitcal's confidence scale is at most
    adaptive's and its post-marker tail at least adaptive's. So on one stream bitcal never
    stops before adaptive, at any bit width: "conservative at low nominal precision"."""

    # The settings whose rise never delays a stop; a rise of any other never hastens one.
    HASTENED_BY_A_RISE = ("budget_buffer", "theta_h", "served_bits")

    @staticmethod
    def _crossing(scenario, k, data):
        """Policy settings drawn where one step's signals cross them: theta_h near its entropy,
        theta_c at or one ulp above its confidence at a drawn tier's scale, so the scale
        decides whether that step stops, and the floor at 0, 16, 128 or the step, its first
        step that can stop. (Drawn uniformly, theta_c lets a 4-bit scale above the 16-bit one
        break the order on about 1 draw in 2,000.) Returns them with that step's entropy,
        confidence and token count."""
        source, running, tokens, steps = ScenarioSource(scenario), RunningSignals(), 0, []
        for step in iter(partial(source.next_chunk, k), None):
            tokens += step.tokens_in_chunk
            steps.append((running.push(step), tokens))
        readout, tokens = data.draw(st.sampled_from(steps))
        theta_h = max(0.0, readout.entropy + data.draw(st.sampled_from([-0.5, 0.0, 0.5, 1.5])))
        tier = data.draw(st.sampled_from([4, 8, 16]))
        c = confidence(readout, CalibratorConfig(effective_bits=tier))
        theta_c = data.draw(st.sampled_from([c, math.nextafter(c, 2.0)]))
        policy = dict(theta_h=theta_h, theta_c=theta_c,
                      theta_e=theta_h + data.draw(st.sampled_from([0.5, 1.0, 2.5])),
                      floor_tokens=data.draw(st.sampled_from([0, 16, 128, tokens])),
                      budget_buffer=data.draw(st.sampled_from([0, 8, 32])))
        return policy, readout.entropy, c, tokens

    @given(scenarios(), st.integers(1, 32), st.sampled_from([2, 4, 5, 8, 9, 16]), st.data())
    @settings(max_examples=500, deadline=None)
    def test_bitcal_never_stops_before_adaptive(self, scenario, k, bits, data):
        budgets = [k * data.draw(st.integers(1, 12))]  # on the k grid
        if k > 1:  # off the k grid
            budgets.append(k * data.draw(st.integers(1, 8)) + data.draw(st.integers(1, k - 1)))
        policy = PolicyConfig(**self._crossing(scenario, k, data)[0])
        cfgs = [EngineConfig(method=method, budget=budget, chunk_size=k, served_bits=bits,
                             policy=policy)
                for budget in budgets for method in (Method.ADAPTIVE, Method.BITCAL)]
        records = list(run_episodes(ScenarioSource(scenario), cfgs, 42.0, "s"))
        for adaptive, bitcal in zip(records[::2], records[1::2]):
            assert (adaptive.method, bitcal.method) == ("adaptive", "bitcal")
            assert bitcal.tokens_used >= adaptive.tokens_used
            assert bitcal.steps >= adaptive.steps

    @pytest.mark.parametrize("setting", ["floor_tokens", "budget_buffer", "theta_h", "theta_c",
                                         "theta_e", "served_bits"])
    @given(scenarios(), st.integers(1, 32), st.data())
    @settings(max_examples=150, deadline=None)
    def test_one_setting_moves_every_stop_one_way(self, setting, scenario, k, data):
        # One cell per value of the setting, all in one pass, each cell differing from the
        # next in that setting alone. The values sit where the drawn step's signals or token
        # count cross them, and on both sides of the crossing.
        budget = data.draw(st.integers(k, 256))  # past a 4-bit tail at any k
        policy, entropy, c, tokens = self._crossing(scenario, k, data)
        remaining = max(0, budget - tokens)
        values = sorted(set({
            "floor_tokens": [0, 16, 128, tokens, tokens + 1],
            "budget_buffer": [0, 8, 32, remaining, remaining + 1],
            "theta_h": [max(0.0, v) for v in (entropy - 0.5, math.nextafter(entropy, -1.0),
                                              entropy, entropy + 0.5)],
            "theta_c": [0.3, 0.75, c, math.nextafter(c, 2.0)],
            "theta_e": [entropy - 0.5, math.nextafter(entropy, -1.0), entropy,
                        math.nextafter(entropy, 99.0), entropy + 0.5],
            "served_bits": [2, 4, 8, 16]}[setting]))
        gap = policy["theta_e"] - policy["theta_h"]  # keeps theta_h < theta_e in every cell
        if setting == "theta_h":
            policy["theta_e"] = values[-1] + gap
        elif setting == "theta_e":
            policy["theta_h"] = values[0] - gap
        if setting in self.HASTENED_BY_A_RISE:
            values.reverse()  # so that no cell stops later than the next one
        method = Method.BITCAL if setting == "served_bits" else data.draw(
            st.sampled_from([Method.ADAPTIVE, Method.BITCAL]))
        bits = data.draw(st.sampled_from([2, 4, 5, 8, 9, 16]))

        def cell(value):
            fields = {**policy, "served_bits": bits, setting: value}
            return EngineConfig(method=method, budget=budget, chunk_size=k,
                                served_bits=fields.pop("served_bits"),
                                policy=PolicyConfig(**fields))
        records = run_episodes(ScenarioSource(scenario), [cell(v) for v in values], 42.0, "s")
        for sooner, later in zip(records, records[1:]):
            assert sooner.tokens_used <= later.tokens_used
            assert sooner.steps <= later.steps

    def test_correctness_is_not_monotone_in_stop_time(self):
        """A later stop can be right where an earlier one is wrong (marker-then-revision),
        and wrong where an earlier one is right: here the first marker line is correct and a
        revision to a wrong number follows it within bitcal's 32-token 4-bit tail."""
        revised = Scenario("correct-then-revision", (
            Segment(160, 3.0, "Working through step {i} of the problem."),
            Segment(16, 3.0, f"On second thought {DEFAULT_MARKER} 13"),
            Segment(80, 1.0, "Wait, rechecking the arithmetic above.")), 42.0, 42.0,
            marker_at=160)
        marker_then_revision = next(s for s in scenario_suite_canonical()
                                    if s.scenario_id == "marker-then-revision")
        cfgs = [EngineConfig(method=m, budget=512, served_bits=4)
                for m in (Method.ADAPTIVE, Method.BITCAL)]
        for scenario, correct in ((marker_then_revision, [False, True]), (revised, [True, False])):
            records = run_episodes(ScenarioSource(scenario), cfgs, 42.0, "s")
            assert [(r.stop_cause, r.tokens_used) for r in records] == [("tail_stop", 160),
                                                                        ("tail_stop", 192)]
            assert [r.correct for r in records] == correct


def _scale(bits):
    """The confidence scale of ``bits``' precision tier."""
    return next(row for row in PRECISION_TIERS if row[0] is None or bits <= row[0])[1]


def _split_bits(cfg, calibrator=None, policy=None):
    """``cfg`` with its calibrator's or its policy's bit width set apart from the other's."""
    for part, bits in (("calibrator", calibrator), ("policy", policy)):
        if bits is not None:
            object.__setattr__(cfg, part, dataclasses.replace(getattr(cfg, part),
                                                              effective_bits=bits))
    return cfg


class TestBitScaleIsAThreshold:
    """``decide`` reads the confidence only in ``conf >= theta_c``, and the confidence is
    clip(clip(c_raw * s)^(1/T)), s the tier's scale. So for theta_c <= 1 a confident stop
    needs c_raw * s >= theta_c^T: the scale is a threshold on c_raw. Bitcal at b bits is
    then adaptive at theta_c' = theta_c * (s(16)/s(b))^(1/T), while theta_c' <= 1, plus the
    post-marker tail of b bits; each of its two bit-aware parts is tested apart from the other
    by setting the calibrator's and the policy's bit widths apart."""

    @given(scenarios(), st.integers(1, 32), st.sampled_from([2, 4, 5, 8, 9, 16]),
           st.sampled_from([0.5, 1.0, 2.0]), st.data())
    @settings(max_examples=300, deadline=None)
    def test_the_scale_is_adaptive_at_a_shifted_theta_c(self, scenario, k, bits, t, data):
        # At one step drawn from the stream, theta_c^T is drawn at 0.8 to 1.1 times its c_raw
        # (the confidence at 8 bits, whose scale is 1, and T=1), across the scale's window at
        # every tier, theta_h at or above its entropy, and the floor at 0, 16 or the step.
        source, running, tokens, steps = ScenarioSource(scenario), RunningSignals(), 0, []
        for step in iter(partial(source.next_chunk, k), None):
            tokens += step.tokens_in_chunk
            readout = running.push(step)
            steps.append((readout.entropy, confidence(readout, CalibratorConfig(effective_bits=8)),
                          tokens))
        entropy, c_raw, tokens = data.draw(st.sampled_from(steps))
        ratio = (_scale(16) / _scale(bits)) ** (1 / t)
        theta_c = min((c_raw * data.draw(st.floats(0.8, 1.1))) ** (1 / t), 1.0, 1 / ratio)
        while theta_c * ratio > 1.0:
            theta_c = math.nextafter(theta_c, 0.0)
        # Where c_raw * s rounds onto theta_c^T, the two sides of the identity round apart
        # (c_raw = 0.9488..., s = 0.85 = theta_c^T / c_raw, T = 2 was one such draw).
        assume(all(abs(c * _scale(bits) - theta_c ** t) > 1e-12 for _, c, _ in steps))
        theta_h = entropy + data.draw(st.sampled_from([0.0, 0.5, 1.5]))
        buffer = data.draw(st.sampled_from([0, 8, 32]))
        policy = dict(theta_h=theta_h, theta_e=theta_h + data.draw(st.sampled_from([0.5, 2.5])),
                      floor_tokens=data.draw(st.sampled_from([0, 16, tokens])),
                      budget_buffer=buffer)
        budget = max(k, tokens + buffer + data.draw(st.integers(0, 128)))

        def cell(method, theta):
            return EngineConfig(method=method, budget=budget, chunk_size=k, served_bits=bits,
                                calibrator=CalibratorConfig(temperature=t),
                                policy=PolicyConfig(theta_c=theta, **policy))
        cfgs = [_split_bits(cell(Method.BITCAL, theta_c), policy=16),  # the scale alone
                cell(Method.ADAPTIVE, theta_c * ratio),
                cell(Method.BITCAL, theta_c),
                _split_bits(cell(Method.BITCAL, theta_c * ratio), calibrator=16)]  # the tail alone
        scale_only, adaptive, bitcal, tail_only = run_episodes(
            ScenarioSource(scenario), cfgs, 42.0, "s")
        assert scale_only.actions == adaptive.actions
        assert tail_only.actions == bitcal.actions
        # A confident stop comes before any marker line, so no scale can make one correct.
        for record in (scale_only, adaptive, bitcal, tail_only):
            assert not (record.stop_cause == "confident_stop" and record.correct)

    @pytest.mark.parametrize("emitted,correct", [(42.0, True), (13.0, False)])
    def test_the_4_bit_scale_alone_decides_a_stop(self, emitted, correct):
        """At 208 tokens c_raw is 0.7267, inside [theta_c/1.05, theta_c/0.85) at the default
        theta_c = 0.75, and the entropy is under theta_h: adaptive stops there, with no answer
        yet, and the 4-bit scale goes on to the marker line. That line is right in one
        scenario, where the scale turns a wrong stop into a correct later one, and wrong in
        the other, where it only spends 128 more tokens on a wrong stop."""
        scenario = Scenario("scale-window", (
            Segment(128, 3.0, "Working through step {i} of the problem."),
            Segment(160, 1.0, "Checking the partial sum again."),
            Segment(64, 1.0, "Confirming step {i} of the sum.")), 42.0, emitted, marker_at=304)
        source, running, tokens, theta_c = ScenarioSource(scenario), RunningSignals(), 0, 0.75
        for step in iter(partial(source.next_chunk, 16), None):
            tokens += step.tokens_in_chunk
            readout = running.push(step)
            if tokens == 208:
                break
        c_raw = confidence(readout, CalibratorConfig(effective_bits=8))
        assert theta_c / _scale(16) <= c_raw < theta_c / _scale(4)
        assert readout.entropy <= PolicyConfig().theta_h
        cfgs = [EngineConfig(method=Method.ADAPTIVE, budget=512, served_bits=4),
                EngineConfig(method=Method.BITCAL, budget=512, served_bits=4),
                _split_bits(EngineConfig(method=Method.BITCAL, budget=512, served_bits=4),
                            policy=16),
                _split_bits(EngineConfig(method=Method.BITCAL, budget=512, served_bits=4),
                            calibrator=16)]
        records = run_episodes(ScenarioSource(scenario), cfgs, 42.0, "s")
        assert [(r.stop_cause, r.tokens_used, r.correct) for r in records] == [
            ("confident_stop", 208, False),  # adaptive
            ("tail_stop", 336, correct),  # bitcal: the scale, then the 32-token tail
            ("tail_stop", 304, correct),  # the scale alone
            ("confident_stop", 208, False)]  # the tail alone stops with adaptive


class TestGreedyReplay:
    """Each action only stops or continues a greedy stream, so a trace drained from a
    scenario at k and replayed at the same k gives, in every cell, the record of the live
    scenario. This holds inside the trace's support, which is what is drawn here: budgets on
    the k grid, past the trace's end only when the trace ends in eos. Left out: budgets past
    the end of a trace without eos, and budgets off the k grid."""

    @given(scenarios(), st.integers(1, 32), st.data())
    @settings(max_examples=150, deadline=None)
    def test_a_replay_of_a_drained_trace_is_the_live_run(self, scenario, k, data):
        source = ScenarioSource(scenario)
        steps = list(iter(partial(source.next_chunk, k), None))
        tokens = sum(step.tokens_in_chunk for step in steps)
        most = 12 if steps[-1].eos else tokens // k  # the k-grid budgets inside the support
        assume(most >= 1)
        budgets = sorted(set(data.draw(st.lists(st.integers(1, most), min_size=1, max_size=3))))
        theta_h = data.draw(st.sampled_from([0.5, 1.0, 2.0, 3.5]))
        policy = PolicyConfig(floor_tokens=data.draw(st.sampled_from([0, 16, 128])),
                              budget_buffer=data.draw(st.sampled_from([0, 8, 32])),
                              theta_h=theta_h, theta_c=data.draw(st.sampled_from([0.3, 0.75, 0.9])),
                              theta_e=theta_h + data.draw(st.sampled_from([0.5, 1.0, 2.5])))
        meta = TraceMeta(example_id=scenario.scenario_id, gold_answer=scenario.gold_answer,
                         model="sim", served_bits=data.draw(st.sampled_from([4, 8, 16])))
        cfgs = [EngineConfig(method=method, budget=k * j, chunk_size=k,
                             served_bits=meta.served_bits, policy=policy)
                for j in budgets for method in Method]
        live = run_episodes(ScenarioSource(scenario), cfgs, scenario.gold_answer,
                            scenario.scenario_id, "sim")
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "trace.jsonl"
            write_trace(meta, steps, path)
            meta, recorded = read_trace(path)
            replayed = run_episodes(ReplaySource(recorded), cfgs, meta.gold_answer,
                                    meta.example_id, meta.model)
        assert replayed == live


class TestForkContract:
    """``copy(source)`` is an independent stream at the source's position."""

    SCENARIO = Scenario("fork", (Segment(100, 1.0, "step {i}", hidden_rotation=0.3),
                                 Segment(60, 3.0, "then {i}")), 42.0, 42.0,
                        marker_at=90, eos_at=150)

    @pytest.mark.parametrize("kind", ["scenario", "replay"])
    @pytest.mark.parametrize("j", [0, 1, 5, 9, 10])
    def test_a_copy_forks_the_stream(self, kind, j):
        recorded = list(iter(partial(ScenarioSource(self.SCENARIO).next_chunk, 16), None))
        new_source = {"scenario": partial(ScenarioSource, self.SCENARIO),
                      "replay": partial(ReplaySource, recorded)}[kind]

        def forwarded():  # a fresh source after j full pulls
            src = new_source()
            for _ in range(j):
                src.next_chunk(16)
            return src

        def read(src, first):  # one request of ``first`` tokens, then full ones to the end
            return [src.next_chunk(first)] + list(iter(partial(src.next_chunk, 16), None))

        src = forwarded()
        fork = copy(src)
        assert read(fork, 8) == read(forwarded(), 8)
        assert read(src, 16) == read(forwarded(), 16)  # reading the fork moved no step of src


def _spy(monkeypatch, holder, name, seen, tag):
    """Append (tag, args, result) to ``seen`` for every call of holder.name."""
    real = getattr(holder, name)

    def spy(*args, **kwargs):
        out = real(*args, **kwargs)
        seen.append((tag, args, out))
        return out
    monkeypatch.setattr(holder, name, spy)


class TestGridSharing:
    @pytest.mark.parametrize("bits", [4, 16])
    def test_each_step_is_pulled_pushed_and_calibrated_once(self, tmp_path, monkeypatch, bits):
        seen = []
        _spy(monkeypatch, ScenarioSource, "next_chunk", seen, "pull")
        _spy(monkeypatch, RunningSignals, "push", seen, "push")
        _spy(monkeypatch, engine, "confidence", seen, "confidence")
        _spy(monkeypatch, cli, "run_episodes", seen, "pass")
        _spy(monkeypatch, cli, "run_episode", seen, "alone")
        assert cli.main(["simulate", "--budgets", "256,512", "--bits", str(bits),
                         "--out", str(tmp_path / "out")]) == 0
        assert not [tag for tag, *_ in seen if tag == "alone"]  # on the grid, no cell leaves
        passes = [i for i, (tag, *_) in enumerate(seen) if tag == "pass"]
        assert len(passes) == len(scenario_suite_canonical())
        for start, end in zip([-1] + passes, passes):
            calls = seen[start + 1:end]
            _, (_, cfgs), records = seen[end]
            pulled = [out for tag, _, out in calls if tag == "pull"]
            steps = max(r.steps for r in records)
            # One pull per step, and one more that finds the stream's end.
            assert None not in pulled[:steps] and pulled[steps:] in ([], [None])
            # One push per step on which a controller cell decides.
            assert sum(tag == "push" for tag, *_ in calls) == max(len(r.actions) for r in records)
            # One confidence per such step for each calibrator with a cell still running.
            groups = {}
            for cfg, r in zip(cfgs, records):
                if cfg.method is not Method.FIXED:
                    groups[cfg.calibrator] = max(groups.get(cfg.calibrator, 0), len(r.actions))
            assert len(groups) == (1 if bits == 16 else 2)
            assert sum(tag == "confidence" for tag, *_ in calls) == sum(groups.values())

    @pytest.mark.parametrize("floor", [None, "4096"])
    def test_off_grid_cells_split_from_the_pass(self, tmp_path, monkeypatch, floor):
        seen = []
        _spy(monkeypatch, ScenarioSource, "__init__", seen, "build")
        _spy(monkeypatch, ScenarioSource, "next_chunk", seen, "pull")
        _spy(monkeypatch, engine, "decide", seen, "decide")
        _spy(monkeypatch, cli, "run_episodes", seen, "pass")
        _spy(monkeypatch, cli, "run_episode", seen, "alone")
        argv = ["simulate", "--budgets", "200,300,512", "--out", str(tmp_path / "out")]
        assert cli.main(argv + (["--floor", floor] if floor else [])) == 0
        assert not [tag for tag, *_ in seen if tag == "alone"]  # every cell ends in its pass
        passes = [i for i, (tag, *_) in enumerate(seen) if tag == "pass"]
        split_cells = []
        for start, end in zip([-1] + passes, passes):
            calls = seen[start + 1:end]
            *_, records = seen[end]
            assert sum(tag == "decide" for tag, *_ in calls) == sum(len(r.actions)
                                                                    for r in records)
            # A cell at 200 or 300 that reads past token 192 or 288 splits there,
            # with the other cells of its budget, onto a fork of the pass's stream
            # that gives it its partial chunk: one pull per split, and one source
            # per example.
            split = [r for r in records if r.budget < 512 and r.steps > r.budget // 16]
            split_cells += [(r.method, r.budget) for r in split]
            pulled = [out for tag, _, out in calls if tag == "pull"]
            steps = max(r.steps for r in records if r.budget == 512)
            assert pulled.count(None) <= 1  # the pass may find the stream's end
            assert len(pulled) == steps + pulled.count(None) + len({r.budget for r in split})
            assert sum(tag == "build" for tag, *_ in calls) == 1
            assert all(r.tokens_used == r.budget for r in split)
        # At 200 and 300 in the four 512-token scenarios, and at 200 in
        # marker-then-revision, whose stream ends at 256. By default every
        # controller cell has stopped by token 192; past the floor of 4096 none stops.
        methods = ["fixed"] if floor is None else ["fixed", "adaptive", "bitcal"]
        assert sorted(split_cells) == sorted(
            [(m, b) for m in methods for b in (200, 300)] * 4 + [(m, 200) for m in methods])

    def test_an_examples_steps_are_freed_before_the_next_one_loads(self, tmp_path,
                                                                   monkeypatch):
        seen, loads = [], []
        _spy(monkeypatch, ScenarioSource, "next_chunk", seen, "pull")
        real_grid = cli._run_grid

        def load_after_the_last_is_freed(load):
            refs = [weakref.ref(step) for *_, step in seen if step is not None]
            seen.clear()
            loads.append((len(refs), sum(ref() is not None for ref in refs)))
            return load()

        def grid(real_loads, *args, **kwargs):
            return real_grid([partial(load_after_the_last_is_freed, load)
                              for load in real_loads], *args, **kwargs)
        monkeypatch.setattr(cli, "_run_grid", grid)
        assert cli.main(["simulate", "--budgets", "200,512", "--out",
                         str(tmp_path / "out")]) == 0
        assert len(loads) == len(scenario_suite_canonical())
        assert all(made > 0 and alive == 0 for made, alive in loads[1:])
