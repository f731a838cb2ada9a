import json
from pathlib import Path

import pytest

from bithalt.cli import DEFAULTS, build_engine_config, build_parser, main, resolve_config
from bithalt.engine import EngineConfig, Method
from bithalt.signals import StepSignals
from bithalt.trace_io import TraceMeta, read_records, write_trace


def run_cli(*argv):
    return main(list(argv))


def make_trace_dir(tmp_path, n=3):
    traces = tmp_path / "traces"
    traces.mkdir()
    for i in range(n):
        steps = [
            StepSignals(chunk_text=f"thinking {j}\n", tokens_in_chunk=16, entropy=3.0)
            for j in range(10)
        ] + [StepSignals(chunk_text="#### 42\n", tokens_in_chunk=8, entropy=0.5, eos=True)]
        meta = TraceMeta(example_id=f"gsm-{i:04d}", gold_answer=42.0, model="7b",
                        served_bits=4)
        write_trace(meta, steps, traces / f"gsm-{i:04d}.jsonl")
    return traces


class TestSimulate:
    def test_default_suite_three_record_files(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("simulate", "--out", str(out)) == 0
        files = sorted(p.name for p in out.glob("records_*.jsonl"))
        assert files == ["records_adaptive_b512.jsonl", "records_bitcal_b512.jsonl",
                         "records_fixed_b512.jsonl"]
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3

    def test_unknown_method_names_valid_values(self, tmp_path, capsys):
        code = run_cli("simulate", "--methods", "adaptve", "--out", str(tmp_path / "o"))
        assert code == 1
        err = capsys.readouterr().err
        assert "adaptve" in err
        assert "fixed" in err and "adaptive" in err and "bitcal" in err

    def test_budget_grid_cartesian(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("simulate", "--budgets", "256,512,1024", "--out", str(out)) == 0
        assert len(list(out.glob("records_*.jsonl"))) == 9

    def test_scenario_dir_input(self, tmp_path):
        out = tmp_path / "out"
        scenarios = Path(__file__).resolve().parent.parent / "scenarios"
        assert run_cli("simulate", "--scenarios", str(scenarios), "--methods", "bitcal",
                       "--out", str(out)) == 0
        _, records = read_records(out / "records_bitcal_b512.jsonl")
        assert len(records) == 6

    def test_bad_scenario_file_is_data_error(self, tmp_path, capsys):
        bad_dir = tmp_path / "scen"
        bad_dir.mkdir()
        (bad_dir / "bad.json").write_text("{broken")
        code = run_cli("simulate", "--scenarios", str(bad_dir), "--out",
                       str(tmp_path / "o"))
        assert code == 2
        assert "bad.json" in capsys.readouterr().err


class TestReplay:
    def test_replays_every_trace(self, tmp_path):
        traces = make_trace_dir(tmp_path, n=3)
        out = tmp_path / "out"
        assert run_cli("replay", "--traces", str(traces), "--methods", "bitcal",
                       "--out", str(out)) == 0
        header, records = read_records(out / "records_bitcal_b512.jsonl")
        assert len(records) == 3
        assert header["counterfactual_replay"] is True
        assert [r.example_id for r in records] == sorted(r.example_id for r in records)

    def test_partial_failure_reports_and_continues(self, tmp_path, capsys):
        traces = make_trace_dir(tmp_path, n=2)
        (traces / "zz-broken.jsonl").write_text("not json\n")
        out = tmp_path / "out"
        code = run_cli("replay", "--traces", str(traces), "--methods", "fixed",
                       "--out", str(out))
        assert code == 2
        assert "zz-broken" in capsys.readouterr().err
        _, records = read_records(out / "records_fixed_b512.jsonl")
        assert len(records) == 2

    def test_byte_identical_reruns(self, tmp_path):
        traces = make_trace_dir(tmp_path, n=2)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        for out in (out1, out2):
            assert run_cli("replay", "--traces", str(traces), "--out", str(out)) == 0
        for p1 in sorted(out1.glob("records_*.jsonl")):
            assert p1.read_bytes() == (out2 / p1.name).read_bytes()


class TestReport:
    def test_report_over_simulated_records(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("simulate", "--out", str(out)) == 0
        assert run_cli("report", "--out", str(out)) == 0
        for name in ("summary.csv", "accuracy_ci.csv", "premature_stop.csv",
                     "pareto.csv", "budget_sweep.csv"):
            assert (out / name).exists()
        summary = (out / "summary.csv").read_text().splitlines()
        assert len(summary) == 4  # header + 3 methods

    def test_pareto_shape_for_grid(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("simulate", "--budgets", "256,512,1024", "--out", str(out)) == 0
        assert run_cli("report", "--out", str(out)) == 0
        pareto = (out / "pareto.csv").read_text().splitlines()
        assert pareto[0] == "method,budget,avg_tokens,accuracy,model"
        assert len(pareto) == 10  # header + 3 methods x 3 budgets

    def test_ci_columns_for_every_accuracy_cell(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("simulate", "--out", str(out)) == 0
        assert run_cli("report", "--out", str(out)) == 0
        rows = (out / "accuracy_ci.csv").read_text().splitlines()[1:]
        for row in rows:
            fields = row.split(",")
            assert float(fields[3]) <= float(fields[2]) <= float(fields[4])

    def test_empty_record_set_is_data_error(self, tmp_path, capsys):
        out = tmp_path / "empty"
        out.mkdir()
        assert run_cli("report", "--out", str(out)) == 2


class TestSweep:
    def test_sweep_simulates_and_reports(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("sweep", "--budgets", "256,512", "--out", str(out)) == 0
        assert len(list(out.glob("records_*.jsonl"))) == 6
        assert (out / "summary.csv").exists()


class TestConfigLayering:
    def test_config_file_overrides_defaults(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"budgets": "256", "methods": "fixed"}))
        out = tmp_path / "out"
        assert run_cli("simulate", "--config", str(cfg), "--out", str(out)) == 0
        assert [p.name for p in out.glob("records_*.jsonl")] == ["records_fixed_b256.jsonl"]

    def test_flags_beat_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"methods": "fixed"}))
        out = tmp_path / "out"
        assert run_cli("simulate", "--config", str(cfg), "--methods", "bitcal",
                       "--out", str(out)) == 0
        assert [p.name for p in out.glob("records_*.jsonl")] == ["records_bitcal_b512.jsonl"]

    def test_unknown_config_key_suggests_valid_keys(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"theta_hh": 1.0}))
        code = run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert code == 1
        err = capsys.readouterr().err
        assert "theta_hh" in err and "theta_h" in err

    def test_usage_error_exit_code(self, capsys):
        assert run_cli("simulate") == 1  # --out missing

    def test_help_lists_defaults(self, capsys):
        with pytest.raises(SystemExit):
            run_cli("simulate", "--help")
        out = capsys.readouterr().out
        for key, value in [("--theta-h", "2.0"), ("--floor", "128"),
                           ("--buffer", "32"), ("--h-max", "10"),
                           ("--chunk-size", "16"), ("--w-entropy", "0.4")]:
            assert key in out
            assert str(value) in out

    def test_defaults_mirror_published_defaults(self):
        assert DEFAULTS["chunk_size"] == 16
        assert DEFAULTS["h_max"] == 10.0
        assert (DEFAULTS["theta_h"], DEFAULTS["theta_c"], DEFAULTS["theta_e"]) == (2.0, 0.75, 4.0)
        assert (DEFAULTS["floor"], DEFAULTS["buffer"]) == (128, 32)
        assert (DEFAULTS["w_entropy"], DEFAULTS["w_trace"], DEFAULTS["w_hidden"]) == (
            0.40, 0.35, 0.25)
        assert DEFAULTS["temperature"] == 1.0

    @pytest.mark.parametrize("method", [m.value for m in Method])
    def test_unflagged_config_builds_dataclass_defaults(self, method):
        cfg = resolve_config(build_parser().parse_args(["simulate", "--out", "o"]))
        assert build_engine_config(cfg, method, 512, 4) == EngineConfig(Method(method), 512)

    def test_seed_flag_is_usage_error(self, tmp_path):
        assert run_cli("simulate", "--seed", "42", "--out", str(tmp_path / "o")) == 1


class TestDeterminism:
    def test_simulate_twice_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert run_cli("simulate", "--jobs", "4", "--out", str(out)) == 0
            assert run_cli("report", "--out", str(out)) == 0
        names = sorted(p.name for p in out1.iterdir())
        assert names == sorted(p.name for p in out2.iterdir())
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_jobs_flag_changes_no_output(self, tmp_path):
        outs = [tmp_path / "j1", tmp_path / "j4"]
        for jobs, out in zip(("1", "4"), outs):
            assert run_cli("sweep", "--budgets", "256,512", "--jobs", jobs,
                           "--out", str(out)) == 0
        names = sorted(p.name for p in outs[0].iterdir())
        assert names == sorted(p.name for p in outs[1].iterdir())
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


GOLDEN_RECORDS = Path(__file__).resolve().parent / "data" / "golden_records_b512"


class TestGoldenRecords:
    def test_canonical_suite_reproduces_golden_records(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("simulate", "--bits", "4", "--out", str(out)) == 0
        golden = sorted(GOLDEN_RECORDS.glob("records_*.jsonl"))
        assert [p.name for p in golden] == sorted(p.name for p in out.glob("records_*.jsonl"))
        for path in golden:
            assert (out / path.name).read_bytes() == path.read_bytes(), path.name
