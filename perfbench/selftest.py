"""Tests of the benchmark's own output checks.

Each check must pass on what the program really writes and reject the same
output with one record or summary row deliberately corrupted. Run from the
repository root:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import contextlib
import copy
import csv
import io
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

import corpus
import oracle

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from bithalt import cli  # noqa: E402


def _cli(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"bithalt {' '.join(map(str, argv))} exited {code}")


class ProgramOutput(unittest.TestCase):
    """Runs a small grid and a small replay once; tests corrupt copies."""

    @classmethod
    def setUpClass(cls):
        cls.tmp = Path(tempfile.mkdtemp(prefix="perfbench-selftest-"))
        cls.scenarios = {s["scenario_id"]: s for s in corpus.grid_corpus(7, n=2)}
        corpus.write_scenarios(cls.scenarios.values(), cls.tmp / "grid")
        cls.grid = [(m, b) for m in corpus.GRID_METHODS for b in (256, 512)]
        _cli("simulate", "--scenarios", cls.tmp / "grid", "--budgets", "256,512",
             "--bits", 4, "--jobs", 1, "--out", cls.tmp / "sim")
        _cli("report", "--out", cls.tmp / "sim")
        cls.records = oracle.records_in(cls.tmp / "sim")

        cls.replay_scenarios = {s["scenario_id"]: s for s in corpus.replay_corpus(7)}
        corpus.write_scenarios(cls.replay_scenarios.values(), cls.tmp / "rsc")
        corpus.write_trace_corpus(cls.replay_scenarios.values(), cls.tmp / "traces", 7,
                                  with_probs=False)
        _cli("simulate", "--scenarios", cls.tmp / "rsc", "--budgets", "192,256",
             "--bits", 4, "--jobs", 1, "--out", cls.tmp / "rsim")
        _cli("replay", "--traces", cls.tmp / "traces", "--budgets", "192,256",
             "--bits", 4, "--jobs", 1, "--out", cls.tmp / "rrep")
        cls.simulated = oracle.records_in(cls.tmp / "rsim")
        cls.replayed = oracle.records_in(cls.tmp / "rrep")

        cls.offgrid = {s["scenario_id"]: s for s in corpus.offgrid_corpus()}
        corpus.write_trace_corpus(cls.offgrid.values(), cls.tmp / "off", 0, with_probs=False)
        _cli("replay", "--traces", cls.tmp / "off", "--budgets", 264, "--bits", 4,
             "--out", cls.tmp / "roff")
        cls.offgrid_records = oracle.records_in(cls.tmp / "roff")

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def check(self, records):
        return oracle.check_records(records, self.scenarios, 4, 16, self.grid)

    def test_records_pass_as_written(self):
        self.assertEqual(self.check(self.records), [])

    def test_records_reject_a_corrupted_field(self):
        for field, bad in (("tokens_used", lambda v: v + 16), ("stop_cause", lambda v: "eos"),
                           ("steps", lambda v: v - 1), ("correct", lambda v: not v),
                           ("first_marker_tokens", lambda v: 999)):
            records = copy.deepcopy(self.records)
            victim = next(r for r in records if r["stop_cause"] != "eos" and r["correct"])
            victim[field] = bad(victim[field])
            with self.subTest(field=field):
                self.assertTrue(self.check(records))

    def test_records_reject_a_missing_or_repeated_record(self):
        self.assertTrue(self.check(self.records[1:]))
        self.assertTrue(self.check(self.records + self.records[:1]))

    def test_records_reject_an_errored_record(self):
        records = copy.deepcopy(self.records)
        records[0]["error"] = "InvalidInputError: boom"
        self.assertTrue(self.check(records))

    def _summary_variant(self, edit):
        path = self.tmp / "sim" / "summary.csv"
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
            fields = list(rows[0])
        edit(rows)
        out = self.tmp / "summary_edit.csv"
        with open(out, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=fields)
            writer.writeheader()
            writer.writerows(rows)
        return oracle.check_summary(out, self.records)

    def test_summary_passes_as_written(self):
        self.assertEqual(self._summary_variant(lambda rows: None), [])

    def test_summary_rejects_a_corrupted_row(self):
        def bump(field, delta):
            def edit(rows):
                row = next(r for r in rows if r["method"] == "bitcal")
                row[field] = f"{float(row[field]) + delta:.1f}"
            return edit

        def set_field(field, value):
            def edit(rows):
                next(r for r in rows if r["method"] == "bitcal")[field] = value
            return edit

        edits = {
            "accuracy": bump("accuracy", 0.1),
            "ci_low": bump("ci_low", -0.1),
            "ci_high": bump("ci_high", 0.1),
            "premature_stop": bump("premature_stop", 0.1),
            "savings": bump("savings", 0.1),
            "avg_tokens": set_field("avg_tokens", "1"),
            "n": set_field("n", "13"),
            "savings blank": set_field("savings", ""),
            "dropped row": lambda rows: rows.pop(),
            "extra row": lambda rows: rows.append(dict(rows[0], budget="999")),
        }
        for name, edit in edits.items():
            with self.subTest(edit=name):
                self.assertTrue(self._summary_variant(edit))

    def test_replay_equals_simulate_as_written(self):
        self.assertEqual(oracle.check_replay_equals_simulate(self.replayed, self.simulated), [])
        self.assertEqual(oracle.check_records(
            self.replayed, self.replay_scenarios, 4, 16,
            [(m, b) for m in corpus.GRID_METHODS for b in (192, 256)]), [])

    def test_replay_equals_simulate_rejects_a_corrupted_record(self):
        for field, value in (("generated_text", "tampered"), ("actions", []),
                             ("tokens_used", 1)):
            replayed = copy.deepcopy(self.replayed)
            replayed[3][field] = value
            with self.subTest(field=field):
                self.assertTrue(oracle.check_replay_equals_simulate(replayed, self.simulated))
        self.assertTrue(oracle.check_replay_equals_simulate(self.replayed[1:], self.simulated))

    def _scored(self, record):
        chunks = [(t, n) for t, n, _ in corpus.stream_chunks(self.offgrid[record["example_id"]],
                                                            16)]
        return oracle.scored_text_problem(record, chunks), chunks

    def test_offgrid_scored_text(self):
        record = next(r for r in self.offgrid_records
                      if r["method"] == "fixed" and r["example_id"] == "buffer-edge")
        _, chunks = self._scored(record)
        # Budget 264 asks for 8 tokens after 16 whole chunks.
        crossing = dict(record, tokens_used=264,
                        generated_text="".join(t for t, _ in chunks[:17]))
        stopped = dict(record, tokens_used=256,
                       generated_text="".join(t for t, _ in chunks[:16]))
        self.assertIsNotNone(self._scored(crossing)[0])
        self.assertIsNone(self._scored(stopped)[0])
        self.assertIsNotNone(self._scored(dict(stopped, generated_text=stopped["generated_text"]
                                               + "x"))[0])
        for r in self.offgrid_records:
            if r["method"] != "fixed":
                with self.subTest(method=r["method"], example=r["example_id"]):
                    self.assertIsNone(self._scored(r)[0])

    def _check_offgrid(self, records):
        chunks = {sid: [(t, n) for t, n, _ in corpus.stream_chunks(sc, 16)]
                  for sid, sc in self.offgrid.items()}
        return oracle.check_offgrid(records, self.offgrid, chunks, corpus.GRID_METHODS, 4,
                                    corpus.REPLAY_OFFGRID_BUDGET, 16, corpus.OFFGRID_CROSSING)

    def test_offgrid_check_counts_only_the_crossing_fixed_episodes(self):
        problems, failures = self._check_offgrid(self.offgrid_records)
        self.assertEqual(problems, [])
        self.assertEqual(len(failures), corpus.OFFGRID_CROSSING)

    def test_offgrid_check_rejects_other_faults(self):
        def tamper(pick, **fields):
            records = copy.deepcopy(self.offgrid_records)
            next(r for r in records if pick(r)).update(fields)
            return records

        crossing = lambda r: r["method"] == "fixed" and r["tokens_used"] == 264  # noqa: E731
        on_grid_fixed = lambda r: r["method"] == "fixed" and r["tokens_used"] < 256  # noqa: E731
        variants = {
            "bitcal text": tamper(lambda r: r["method"] == "bitcal", generated_text="x"),
            "on-grid fixed text": tamper(on_grid_fixed, generated_text="x"),
            "crossing steps": tamper(crossing, steps=16),
            "crossing stop_cause": tamper(crossing, stop_cause="buffer_stop"),
            "crossing first_marker_tokens": tamper(crossing, first_marker_tokens=8),
            "dropped record": self.offgrid_records[1:],
        }
        for name, records in variants.items():
            with self.subTest(variant=name):
                self.assertTrue(self._check_offgrid(records)[0])


class OracleCases(unittest.TestCase):
    """Hand-derived stops from the documented case order."""

    def _scenario(self, **kw):
        base = dict(scenario_id="s", length=2000, entropy=3.0, template="Step {i} goes here.",
                    rotation=None, gold=1, emitted=1)
        base.update(kw)
        return corpus._scenario(base.pop("scenario_id"), base.pop("length"),
                                base.pop("entropy"), base.pop("template"),
                                base.pop("rotation"), base.pop("gold"), base.pop("emitted"),
                                **base)

    def test_k1_buffer_run_ends_at_budget_minus_buffer_plus_one(self):
        want = oracle.expected(self._scenario(), "bitcal", 4, 512, 1)
        self.assertEqual((want["stop_cause"], want["tokens_used"]),
                         ("buffer_stop", 512 - oracle.BUFFER + 1))

    def test_marker_run_ends_at_marker_plus_tail(self):
        sc = self._scenario(marker_at=300)
        for bits, tail in ((4, 32), (8, 16), (16, 0)):
            want = oracle.expected(sc, "bitcal", bits, 512, 1)
            self.assertEqual((want["stop_cause"], want["tokens_used"]), ("tail_stop", 300 + tail))
        self.assertEqual(oracle.expected(sc, "adaptive", 4, 512, 1)["tokens_used"], 300)

    def test_tail_past_budget_exhausts_it(self):
        sc = self._scenario(marker_at=240)
        want = oracle.expected(sc, "bitcal", 4, 256, 16)
        self.assertEqual((want["stop_cause"], want["tokens_used"]), ("budget_exhausted", 256))

    def test_fixed_never_halts_early(self):
        want = oracle.expected(self._scenario(entropy=5.0), "fixed", 4, 256, 16)
        self.assertEqual((want["stop_cause"], want["early_halt"]), ("budget_exhausted", False))

    def test_confident_and_escalate_stop_at_floor(self):
        confident = self._scenario(entropy=0.5, template="Same text every step.", rotation=0.0)
        self.assertEqual(oracle.expected(confident, "bitcal", 4, 512, 16)["tokens_used"],
                         oracle.FLOOR)
        self.assertEqual(oracle.expected(confident, "bitcal", 4, 512, 16)["stop_cause"],
                         "confident_stop")
        self.assertEqual(oracle.expected(self._scenario(entropy=4.5), "adaptive", 4, 512,
                                         16)["stop_cause"], "escalate")

    def test_wilson_matches_a_published_value(self):
        # 45/50 at z=1.96: Wilson interval (0.786, 0.957).
        low, high = oracle.wilson(45, 50)
        self.assertAlmostEqual(low, 0.7864, places=4)
        self.assertAlmostEqual(high, 0.9565, places=4)


class Corpora(unittest.TestCase):
    def test_same_seed_same_corpus_and_fixed_family_sizes(self):
        self.assertEqual(corpus.grid_corpus(3), corpus.grid_corpus(3))
        self.assertNotEqual(corpus.grid_corpus(3), corpus.grid_corpus(4))
        ids = [s["scenario_id"] for s in corpus.grid_corpus(4)]
        self.assertEqual(ids, [s["scenario_id"] for s in corpus.grid_corpus(3)])

    def test_no_expected_stop_depends_on_rounding(self):
        for seed in range(20):
            for sc in corpus.grid_corpus(seed):
                for method in corpus.GRID_METHODS:
                    for bits in corpus.GRID_BITS:
                        for budget in corpus.GRID_BUDGETS:
                            oracle.expected(sc, method, bits, budget, 16)
            for sc in corpus.long_corpus(seed):
                for method in corpus.LONG_METHODS:
                    oracle.expected(sc, method, corpus.LONG_BITS, corpus.LONG_BUDGET, 1)
            for sc in corpus.replay_corpus(seed):
                for method in corpus.GRID_METHODS:
                    for budget in corpus.REPLAY_BUDGETS:
                        oracle.expected(sc, method, corpus.REPLAY_BITS, budget, 16)


if __name__ == "__main__":
    unittest.main()
