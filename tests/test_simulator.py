import dataclasses
import itertools
import json
import weakref
from copy import copy
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bithalt import cli, engine
from bithalt.engine import EngineConfig, Method, StopCause, run_episode, run_episodes
from bithalt.errors import ConfigError, TraceParseError
from bithalt.policy import DEFAULT_MARKER, PolicyConfig
from bithalt.signals import RunningSignals
from bithalt.simulate import (
    Scenario,
    ScenarioSource,
    Segment,
    load_scenario,
    load_scenario_dir,
    scenario_suite_canonical,
)
from bithalt.trace_io import ReplaySource

from oracles import oracle_episode

REPO_SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


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

    def test_repo_fixture_dir_matches_builtin_suite(self):
        loaded = {s.scenario_id: s for s in load_scenario_dir(REPO_SCENARIOS)}
        for s in scenario_suite_canonical():
            assert loaded[s.scenario_id] == s

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

        def grid(examples, *args, **kwargs):
            return real_grid([ex._replace(load=partial(load_after_the_last_is_freed, ex.load))
                              for ex in examples], *args, **kwargs)
        monkeypatch.setattr(cli, "_run_grid", grid)
        assert cli.main(["simulate", "--budgets", "200,512", "--out",
                         str(tmp_path / "out")]) == 0
        assert len(loads) == len(scenario_suite_canonical())
        assert all(made > 0 and alive == 0 for made, alive in loads[1:])
