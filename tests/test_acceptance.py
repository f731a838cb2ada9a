"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Absolute GSM8K accuracies from real quantized models are out of scope at desk
scale (criterion 7); the arithmetic oracles, policy equivalence, determinism
checks, and the scenario suite below are the substitute evidence.
"""

import dataclasses
import itertools
import math
import time
from pathlib import Path

import numpy as np
import pytest

from bithalt.calibrate import CalibratorConfig, confidence
from bithalt.cli import main
from bithalt.engine import EngineConfig, Method, run_episode
from bithalt.metrics import wilson_interval
from bithalt.policy import MarkerState, PolicyConfig, decide
from bithalt.signals import SignalReadout, entropy, hidden_stability, trace_stability
from bithalt.simulate import ScenarioSource, scenario_suite_canonical
from bithalt.trace_io import write_records
from fixtures_7b import GROUPS, build_7b_records
from oracles import oracle_decide
from test_signals import brute_force_trace_stability

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_summary_7b_b512.csv"


def report(criterion, ok):
    print(f"\n[{'PASS' if ok else 'FAIL'}] acceptance criterion {criterion}")
    assert ok


def test_criterion_1_wilson_oracle_vs_published_table():
    cells = [
        (45, 54, 71.3, 91.0), (43, 54, 67.1, 88.2), (49, 54, 80.1, 96.0),
        (30, 35, 70.6, 93.7), (29, 35, 67.3, 91.9), (31, 35, 74.0, 95.5),
        (30, 50, 46.2, 72.4), (11, 50, 12.8, 35.2), (10, 50, 11.2, 33.0),
    ]
    published_acc = [83.3, 79.6, 90.7, 85.7, 82.9, 88.6, 60.0, 22.0, 20.0]
    ok = True
    for (s, n, lo, hi), acc in zip(cells, published_acc):
        # Back-derivation round-trip: the count reproduces the printed accuracy.
        ok &= round(100 * s / n, 1) == acc
        got_lo, got_hi = wilson_interval(s, n)
        ok &= abs(100 * got_lo - lo) <= 0.05
        ok &= abs(100 * got_hi - hi) <= 0.05
    report(1, ok)


def test_criterion_2_savings_arithmetic_vs_published_table():
    cells = [
        (316, 466, 32.1), (269, 455, 40.8), (286, 466, 38.5),
        (239, 455, 47.5), (132, 281, 53.0), (144, 281, 48.8),
    ]
    ok = all(
        abs(100 * (fixed - avg) / fixed - printed) <= 0.2
        for avg, fixed, printed in cells
    )
    report(2, ok)


def test_criterion_3_policy_truth_table_equivalence():
    start = time.monotonic()
    cfg16 = PolicyConfig()
    tokens = [0, 1, 127, 128, 129, 200, 511, 512]
    entropies = [2.0 - 1e-6, 2.0, 2.0 + 1e-6, 4.0 - 1e-6, 4.0, 4.0 + 1e-6, 0.0, 9.0]
    confs = [0.75 - 1e-6, 0.75, 0.75 + 1e-6, 0.0, 1.0]
    remainings = [0, 31, 32, 33, 300]
    offsets = [None, 0, 15, 16, 17, 31, 32, 33]
    count = 0
    mismatches = 0
    for bits in (4, 8, 16):
        cfg = dataclasses.replace(cfg16, effective_bits=bits)
        for t, r, h, c, off in itertools.product(tokens, remainings, entropies,
                                                 confs, offsets):
            t_star = None if off is None else max(t - off, 0)
            got = decide(t, r, h, c, MarkerState(t_star), cfg)
            want = oracle_decide(t, r, h, c, t_star, cfg.theta_h, cfg.theta_c,
                                 cfg.theta_e, cfg.floor_tokens, cfg.budget_buffer,
                                 bits)
            if (got.kind.value, got.reason.value) != want:
                mismatches += 1
            count += 1
    elapsed = time.monotonic() - start
    report(3, count >= 10_000 and mismatches == 0 and elapsed < 5.0)


def test_criterion_4_variant_identity():
    start = time.monotonic()
    ok = True
    for s in scenario_suite_canonical():
        adaptive_cfg = EngineConfig(method=Method.ADAPTIVE, budget=512, served_bits=4)
        forced_cfg = EngineConfig(method=Method.BITCAL, budget=512, served_bits=4,
                                  effective_bits_override=16)
        a = run_episode(ScenarioSource(s), adaptive_cfg, s.gold_answer,
                        s.scenario_id, model="sim")
        f = run_episode(ScenarioSource(s), forced_cfg, s.gold_answer,
                        s.scenario_id, model="sim")
        ok &= dataclasses.replace(f, method="adaptive") == a

    # At b=4 the bitcal stop point on the marker scenario trails adaptive's by
    # exactly the 32-token tail (2 chunks of 16).
    marker = next(s for s in scenario_suite_canonical()
                  if s.scenario_id == "marker-then-revision")
    a = run_episode(ScenarioSource(marker),
                    EngineConfig(method=Method.ADAPTIVE, budget=512, served_bits=4),
                    marker.gold_answer, marker.scenario_id)
    b = run_episode(ScenarioSource(marker),
                    EngineConfig(method=Method.BITCAL, budget=512, served_bits=4),
                    marker.gold_answer, marker.scenario_id)
    ok &= b.tokens_used - a.tokens_used == 32
    report(4, ok and time.monotonic() - start < 1.0)


def test_criterion_5_signal_correctness():
    start = time.monotonic()
    ok = True
    for n in (2, 10, 1000):
        got = entropy([1.0 / n] * n)
        ok &= abs(got - math.log(n)) <= 1e-9 * math.log(n)

    rng = np.random.default_rng(42)
    alphabet = ["abcdefgh", "abcdefg", "x", "abcdefgh ", " zzzzzzzzz", ""]
    for _ in range(1000):
        chunks = [alphabet[i] for i in rng.integers(0, len(alphabet),
                                                    size=rng.integers(0, 12))]
        ok &= trace_stability(chunks) == brute_force_trace_stability(chunks)

    for _ in range(1000):
        n, d = int(rng.integers(2, 8)), int(rng.integers(1, 5))
        vecs = rng.normal(size=(n, d))
        normed = [v / (np.linalg.norm(v) + 1e-8) for v in vecs]
        brute = float(np.mean([x @ y for x, y in zip(normed, normed[1:])]))
        ok &= abs(hidden_stability(vecs) - brute) < 1e-12

    lo_cfg = CalibratorConfig(effective_bits=4)
    hi_cfg = CalibratorConfig(effective_bits=16)
    for _ in range(10_000):
        h = float(rng.random() * 12)
        tr, hid = float(rng.random()), float(rng.random())
        r = SignalReadout(h, tr, hid, hid)
        base = confidence(r, lo_cfg)
        ok &= confidence(SignalReadout(h + 0.3, tr, hid, hid), lo_cfg) <= base + 1e-12
        ok &= confidence(SignalReadout(h, min(tr + 0.05, 1), hid, hid), lo_cfg) >= base - 1e-12
        ok &= confidence(SignalReadout(h, tr, min(hid + 0.05, 1), hid), lo_cfg) >= base - 1e-12
        ok &= base <= confidence(r, hi_cfg) + 1e-12
    report(5, ok and time.monotonic() - start < 10.0)


def test_criterion_6_table_regeneration_byte_exact(tmp_path):
    start = time.monotonic()
    out = tmp_path / "out"
    out.mkdir()
    for method in GROUPS:
        write_records(build_7b_records(method), out / f"records_{method}_b512.jsonl",
                      metadata={"command": "fixture"})
    code = main(["report", "--out", str(out)])
    produced = (out / "summary.csv").read_bytes()
    ok = code == 0 and produced == GOLDEN.read_bytes()
    report(6, ok and time.monotonic() - start < 1.0)


def test_criterion_7_qualitative_claims_in_simulation():
    # Published absolute accuracies need GPU-served quantized models and are
    # out of scope; the substitute evidence is criteria 1-6 plus these two
    # constructive demonstrations.
    suite = {s.scenario_id: s for s in scenario_suite_canonical()}

    # (a) The served-4-bit confirmation tail converts the adaptive
    # marker-then-revision failure into a correct stop.
    s = suite["marker-then-revision"]
    adaptive = run_episode(ScenarioSource(s),
                           EngineConfig(method=Method.ADAPTIVE, budget=512, served_bits=4),
                           s.gold_answer, s.scenario_id)
    bitcal = run_episode(ScenarioSource(s),
                         EngineConfig(method=Method.BITCAL, budget=512, served_bits=4),
                         s.gold_answer, s.scenario_id)
    ok = (not adaptive.correct) and adaptive.early_halt and bitcal.correct

    # (b) The small-model collapse mechanism is constructible: literal
    # repetition of a partial computation drives the stability proxies high
    # enough that BOTH adaptive variants stop confidently with no answer.
    s = suite["confident-early-wrong"]
    for method in (Method.ADAPTIVE, Method.BITCAL):
        rec = run_episode(ScenarioSource(s),
                          EngineConfig(method=method, budget=512, served_bits=4),
                          s.gold_answer, s.scenario_id)
        ok &= rec.stop_cause == "confident_stop"
        ok &= rec.early_halt and not rec.correct
        ok &= rec.predicted_answer is None
    report(7, ok)


def test_criterion_8_cli_determinism(tmp_path):
    start = time.monotonic()
    scenarios = Path(__file__).resolve().parent.parent / "scenarios"
    payload = {}
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert main(["simulate", "--scenarios", str(scenarios),
                     "--budgets", "256,512", "--out", str(out)]) == 0
        assert main(["report", "--out", str(out)]) == 0
        payload[tag] = {
            p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.is_file()
        }
    ok = payload["a"] == payload["b"] and len(payload["a"]) > 6
    report(8, ok and time.monotonic() - start < 30.0)


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
