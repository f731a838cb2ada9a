import pytest

from bithalt.errors import EmptyRunError, GroupingError
from bithalt.metrics import (
    emit_summary_table,
    format_summary_rows,
    summarize,
    summarize_all,
    wilson_interval,
)
from test_trace_io import sample_record

# Back-derived (correct, N) pairs with their published one-decimal interval
# endpoints; the counts round-trip against the printed accuracies.
PUBLISHED_INTERVALS = [
    (45, 54, 71.3, 91.0),
    (43, 54, 67.1, 88.2),
    (49, 54, 80.1, 96.0),
    (30, 35, 70.6, 93.7),
    (29, 35, 67.3, 91.9),
    (31, 35, 74.0, 95.5),
    (30, 50, 46.2, 72.4),
    (11, 50, 12.8, 35.2),
    (10, 50, 11.2, 33.0),
]


class TestWilsonInterval:
    @pytest.mark.parametrize("s,n,lo,hi", PUBLISHED_INTERVALS)
    def test_published_cells(self, s, n, lo, hi):
        got_lo, got_hi = wilson_interval(s, n)
        assert 100 * got_lo == pytest.approx(lo, abs=0.05)
        assert 100 * got_hi == pytest.approx(hi, abs=0.05)

    def test_zero_successes_pins_lower_bound(self):
        lo, hi = wilson_interval(0, 10)
        assert lo == 0.0
        assert 0 < hi < 1

    def test_all_successes_pins_upper_bound(self):
        lo, hi = wilson_interval(10, 10)
        assert hi == 1.0

    def test_undefined_for_zero_n(self):
        with pytest.raises(EmptyRunError):
            wilson_interval(0, 0)

    def test_more_successes_than_trials_rejected(self):
        with pytest.raises(ValueError, match=r"successes 5 outside \[0, 4\]"):
            wilson_interval(5, 4)

    def test_monotone_in_successes(self):
        for n in (5, 20, 54):
            prev = wilson_interval(0, n)
            for s in range(1, n + 1):
                cur = wilson_interval(s, n)
                assert cur[0] >= prev[0] - 1e-12
                assert cur[1] >= prev[1] - 1e-12
                prev = cur

    def test_mirror_symmetry(self):
        for n in (7, 35, 54):
            for s in range(n + 1):
                lo, hi = wilson_interval(s, n)
                mlo, mhi = wilson_interval(n - s, n)
                assert lo == pytest.approx(1 - mhi, abs=1e-12)
                assert hi == pytest.approx(1 - mlo, abs=1e-12)


def build_group(method, budget, n, n_correct, n_early_wrong, tokens_each,
                model="7b"):
    """Records with the requested aggregate counts.

    Early-and-wrong records are controller stops; other incorrect records run
    to the budget; fixed never halts early.
    """
    records = []
    n_wrong = n - n_correct
    assert n_early_wrong <= n_wrong
    for i in range(n):
        correct = i < n_correct
        early = (not correct) and (i - n_correct < n_early_wrong)
        records.append(sample_record(
            i,
            method=method,
            budget=budget,
            model=model,
            tokens_used=tokens_each,
            correct=correct,
            predicted_answer=42.0 if correct else 1.0,
            early_halt=early,
            stop_cause="confident_stop" if early else (
                "eos" if method == "fixed" else "budget_exhausted"),
            actions=(),
        ))
    return records


class TestSummarize:
    def test_seven_b_shard_aggregates(self):
        fixed = summarize(build_group("fixed", 512, 54, 49, 0, 466))
        bitcal = summarize(build_group("bitcal", 512, 54, 45, 6, 316), fixed)
        assert bitcal.accuracy == pytest.approx(83.3, abs=0.05)
        assert bitcal.premature_stop_pct == pytest.approx(11.1, abs=0.05)
        assert bitcal.savings_pct == pytest.approx(32.2, abs=0.05)
        # Published value 32.1 was computed before rounding token means.
        assert bitcal.savings_pct == pytest.approx(32.1, abs=0.2)

    def test_fourteen_b_shard_aggregates(self):
        fixed = summarize(build_group("fixed", 512, 35, 31, 0, 455, model="14b"))
        bitcal = summarize(build_group("bitcal", 512, 35, 30, 4, 269, model="14b"), fixed)
        assert bitcal.accuracy == pytest.approx(85.7, abs=0.05)
        assert bitcal.premature_stop_pct == pytest.approx(11.4, abs=0.05)
        assert bitcal.savings_pct == pytest.approx(40.9, abs=0.05)
        assert bitcal.savings_pct == pytest.approx(40.8, abs=0.2)

    def test_all_correct_no_premature(self):
        s = summarize(build_group("adaptive", 512, 10, 10, 0, 300))
        assert s.premature_stop_pct == 0.0

    def test_premature_predicate_matches_brute_force(self):
        records = build_group("bitcal", 512, 30, 20, 5, 200)
        # Add an early-and-correct record: must not count as premature.
        records.append(sample_record(99, method="bitcal", budget=512, model="7b",
                                     correct=True, early_halt=True,
                                     tokens_used=150, actions=()))
        s = summarize(records)
        brute = sum(r.early_halt and not r.correct for r in records)
        assert s.n_early_incorrect == brute == 5

    def test_empty_rejected(self):
        with pytest.raises(EmptyRunError):
            summarize([])

    def test_mixed_methods_rejected(self):
        records = build_group("fixed", 512, 2, 2, 0, 100) + \
            build_group("bitcal", 512, 2, 2, 0, 100)
        with pytest.raises(GroupingError):
            summarize(records)

    def test_repeated_example_id_rejected(self):
        records = build_group("bitcal", 512, 4, 2, 0, 100)
        with pytest.raises(GroupingError, match=r"repeat example_id\(s\) \['ex-0001'\]"):
            summarize(records + records[1:2])

    def test_errored_records_excluded_but_counted(self):
        records = build_group("bitcal", 512, 10, 5, 0, 100)
        records.append(sample_record(99, method="bitcal", budget=512, model="7b",
                                     error="RuntimeError: x", correct=False,
                                     actions=()))
        s = summarize(records)
        assert s.n == 10
        assert s.n_errored == 1
        assert s.accuracy == pytest.approx(50.0)

    def test_all_errored_names_its_group(self):
        records = [sample_record(i, method="adaptive", budget=200, model="7b",
                                 error="RuntimeError: x", correct=False) for i in range(2)]
        with pytest.raises(EmptyRunError) as exc:
            summarize(records)
        assert str(exc.value) == "all records errored for model '7b', method adaptive, B=200"

    def test_savings_absent_without_reference(self):
        s = summarize(build_group("bitcal", 512, 5, 5, 0, 100))
        assert s.savings_pct is None

    def test_fixed_premature_always_zero(self):
        s = summarize(build_group("fixed", 512, 20, 12, 0, 400))
        assert s.premature_stop_pct == 0.0


class TestSummarizeAll:
    def test_empty_rejected(self):
        with pytest.raises(EmptyRunError, match="no records to summarize"):
            summarize_all([], [])

    def test_savings_wired_to_fixed_at_same_budget(self):
        records = (
            build_group("fixed", 512, 10, 9, 0, 466)
            + build_group("bitcal", 512, 10, 8, 1, 316)
            + build_group("fixed", 256, 10, 5, 0, 255)
            + build_group("bitcal", 256, 10, 5, 1, 243)
        )
        summaries = {(s.method, s.budget): s for s in summarize_all(records, [])}
        assert summaries[("bitcal", 512)].savings_pct == pytest.approx(
            100 * (466 - 316) / 466)
        assert summaries[("bitcal", 256)].savings_pct == pytest.approx(
            100 * (255 - 243) / 255)
        assert summaries[("fixed", 512)].savings_pct is None

    def test_two_models_with_fixed_groups_last(self):
        fixed_tokens = {("7b", 512): 466, ("14b", 512): 400, ("7b", 256): 255,
                        ("14b", 256): 250}
        records = (
            build_group("bitcal", 512, 10, 8, 1, 316, model="7b")
            + build_group("adaptive", 256, 10, 5, 1, 200, model="14b")
            + build_group("bitcal", 256, 10, 8, 1, 150, model="7b")
            + build_group("bitcal", 512, 10, 8, 1, 300, model="14b")
        )
        for (model, budget), tokens in fixed_tokens.items():
            records += build_group("fixed", budget, 10, 9, 0, tokens, model=model)
        summaries = summarize_all(records, [])
        assert len(summaries) == 8
        for s in summaries:
            if s.method == "fixed":
                assert s.savings_pct is None
            else:
                ref = fixed_tokens[(s.model, s.budget)]
                assert s.savings_pct == pytest.approx(100 * (ref - s.avg_tokens) / ref)

    def test_an_all_errored_group_is_dropped_by_name(self):
        def errored(method):
            return [sample_record(i, method=method, budget=512, model="7b",
                                  error="RuntimeError: x", correct=False) for i in range(2)]

        records = errored("fixed") + build_group("bitcal", 512, 10, 8, 1, 316)
        dropped = []
        (summary,) = summarize_all(records, dropped)
        # Without its fixed group, bitcal has no savings reference.
        assert (summary.method, summary.savings_pct) == ("bitcal", None)
        assert dropped == ["all records errored for model '7b', method fixed, B=512"]
        # Every group errored: the first one's message is raised.
        with pytest.raises(EmptyRunError) as exc:
            summarize_all(errored("bitcal") + errored("fixed"), [])
        assert str(exc.value) == dropped[0]


class TestSummaryTable:
    def test_ordering_and_shape(self):
        records = (
            build_group("bitcal", 512, 4, 4, 0, 100)
            + build_group("fixed", 512, 4, 4, 0, 200)
            + build_group("bitcal", 256, 4, 4, 0, 100)
            + build_group("fixed", 256, 4, 4, 0, 200)
        )
        rows = format_summary_rows(summarize_all(records, []))
        assert len(rows) == 5
        order = [tuple(r.split(",")[:2]) for r in rows[1:]]
        assert order == [("fixed", "256"), ("bitcal", "256"),
                         ("fixed", "512"), ("bitcal", "512")]

    def test_formatting_one_decimal_and_integer_tokens(self, tmp_path):
        records = build_group("fixed", 512, 54, 49, 0, 466)
        path = tmp_path / "summary.csv"
        emit_summary_table(summarize_all(records, []), path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("method,budget,n,accuracy,ci_low,ci_high,avg_tokens")
        fields = lines[1].split(",")
        assert fields[:4] == ["fixed", "512", "54", "90.7"]
        assert fields[6] == "466"

    def test_empty_input_gives_header_only(self, tmp_path):
        path = tmp_path / "summary.csv"
        emit_summary_table([], path)
        assert path.read_text().splitlines() == [
            "method,budget,n,accuracy,ci_low,ci_high,avg_tokens,premature_stop,savings,model"
        ]
