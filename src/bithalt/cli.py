"""Command-line surface: simulate, replay, report, sweep.

Config resolution is layered: built-in defaults <- optional JSON config file
(--config) <- explicit command-line flags, highest wins. The built-in defaults
are the field defaults of CalibratorConfig, PolicyConfig and EngineConfig,
read through CONFIG_FIELDS. Episodes run serially; --jobs is still accepted
for compatibility and changes nothing. All outputs are deterministic: no
timestamps in payload files, episode records sorted by example id, stable
float formatting.

Exit codes: 0 success, 1 usage/config error, 2 data error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from .calibrate import CalibratorConfig
from .engine import EngineConfig, Method, run_episode
from .errors import BithaltError, ConfigError, EmptyRunError, TraceParseError
from .metrics import RunSummary, emit_summary_table, summarize_all
from .policy import PolicyConfig
from .simulate import load_scenario_dir, scenario_source, scenario_suite_canonical
from .trace_io import ReplaySource, read_records, read_trace, write_records

VALID_METHODS = tuple(m.value for m in Method)

# CLI/config key -> (config dataclass, field, help text). Each key's default and
# flag type come from the dataclass field, so every default is stated once.
CONFIG_FIELDS = {
    "bits": (EngineConfig, "served_bits", "served weight precision b in bits"),
    "chunk_size": (EngineConfig, "chunk_size", "tokens per controller step k"),
    "h_max": (CalibratorConfig, "h_max", "entropy normalization ceiling"),
    "w_entropy": (CalibratorConfig, "w_entropy", "entropy signal weight"),
    "w_trace": (CalibratorConfig, "w_trace", "trace-stability signal weight"),
    "w_hidden": (CalibratorConfig, "w_hidden", "hidden-stability signal weight"),
    "temperature": (CalibratorConfig, "temperature", "confidence temperature gamma"),
    "theta_h": (PolicyConfig, "theta_h", "entropy-stop threshold"),
    "theta_c": (PolicyConfig, "theta_c", "confidence-stop threshold"),
    "theta_e": (PolicyConfig, "theta_e", "entropy-escalate threshold"),
    "floor": (PolicyConfig, "floor_tokens", "min tokens before halting m"),
    "buffer": (PolicyConfig, "budget_buffer", "min remaining budget to continue"),
    "marker": (PolicyConfig, "marker", "answer delimiter"),
}


def _field_default(cls, name: str):
    return next(f.default for f in dataclasses.fields(cls) if f.name == name)


DEFAULTS = {
    "methods": ",".join(VALID_METHODS),
    "budgets": "512",
    **{key: _field_default(cls, name) for key, (cls, name, _) in CONFIG_FIELDS.items()},
}


class UsageError(ConfigError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _add_common(p: _Parser) -> None:
    p.add_argument("--config", metavar="PATH", help="JSON config file layered under flags")
    p.add_argument("--methods", metavar="LIST",
                   help=f"comma-separated controller methods (default: {DEFAULTS['methods']})")
    p.add_argument("--budgets", metavar="LIST",
                   help=f"comma-separated token budgets B (default: {DEFAULTS['budgets']})")
    for key, (_, _, text) in CONFIG_FIELDS.items():
        default = DEFAULTS[key]
        p.add_argument("--" + key.replace("_", "-"), type=type(default),
                       help=f"{text} (default: {default!r})")
    p.add_argument("--jobs", type=int, metavar="N",
                   help="accepted for compatibility; episodes run serially")
    p.add_argument("--out", metavar="DIR", required=True, help="output directory")


def build_parser() -> _Parser:
    parser = _Parser(prog="bithalt", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run scripted scenarios through the controller")
    p_sim.add_argument("--scenarios", metavar="DIR",
                       help="scenario JSON directory (default: built-in suite)")
    _add_common(p_sim)

    p_rep = sub.add_parser("replay", help="replay recorded traces under requested controllers")
    p_rep.add_argument("--traces", metavar="DIR", required=True, help="trace JSONL directory")
    _add_common(p_rep)

    p_rpt = sub.add_parser("report", help="aggregate record files into summary and plot data")
    p_rpt.add_argument("--records", metavar="DIR",
                       help="directory holding record JSONL files (default: --out)")
    p_rpt.add_argument("--out", metavar="DIR", required=True, help="output directory")

    p_swp = sub.add_parser("sweep", help="simulate or replay a method x budget grid, then report")
    p_swp.add_argument("--scenarios", metavar="DIR",
                       help="scenario JSON directory (default: built-in suite)")
    p_swp.add_argument("--traces", metavar="DIR", help="replay this trace directory instead")
    _add_common(p_swp)

    return parser


def _load_config_file(path) -> dict:
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise UsageError(f"config {path} is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise UsageError(f"config {path} must hold a JSON object")
    unknown = set(data) - set(DEFAULTS)
    if unknown:
        hint = ", ".join(sorted(DEFAULTS))
        raise UsageError(f"unknown config key(s) {sorted(unknown)}; valid keys: {hint}")
    return data


def resolve_config(args: argparse.Namespace) -> dict:
    cfg = dict(DEFAULTS)
    if getattr(args, "config", None):
        cfg.update(_load_config_file(args.config))
    for key in DEFAULTS:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value

    methods = [m.strip() for m in str(cfg["methods"]).split(",") if m.strip()]
    for m in methods:
        if m not in VALID_METHODS:
            raise UsageError(f"unknown method {m!r}; valid methods: {', '.join(VALID_METHODS)}")
    if not methods:
        raise UsageError("at least one method is required")
    try:
        budgets = [int(b) for b in str(cfg["budgets"]).split(",") if b.strip()]
    except ValueError:
        raise UsageError(f"budgets must be a comma-separated integer list, got {cfg['budgets']!r}")
    if not budgets:
        raise UsageError("at least one budget is required")
    cfg["methods"] = methods
    cfg["budgets"] = budgets
    return cfg


def build_engine_config(cfg: dict, method: str, budget: int, served_bits: int) -> EngineConfig:
    kwargs = {EngineConfig: {}, CalibratorConfig: {}, PolicyConfig: {}}
    for key, (cls, name, _) in CONFIG_FIELDS.items():
        kwargs[cls][name] = cfg[key]
    kwargs[EngineConfig]["served_bits"] = served_bits
    return EngineConfig(
        method=Method(method),
        budget=budget,
        calibrator=CalibratorConfig(**kwargs[CalibratorConfig]),
        policy=PolicyConfig(**kwargs[PolicyConfig]),
        **kwargs[EngineConfig],
    )


def _records_path(out_dir: Path, method: str, budget: int) -> Path:
    return out_dir / f"records_{method}_b{budget}.jsonl"


def _write_sidecar(out_dir: Path, cfg: dict, command: str) -> None:
    meta = {"command": command, "config": {k: cfg[k] for k in sorted(cfg, key=str)}}
    (out_dir / "run_meta.json").write_text(json.dumps(meta, indent=2, default=str) + "\n")


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    if getattr(args, "scenarios", None):
        scenarios = load_scenario_dir(args.scenarios)
        if not scenarios:
            raise TraceParseError(args.scenarios, "no scenario files found")
    else:
        scenarios = scenario_suite_canonical()
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    for budget in cfg["budgets"]:
        for method in cfg["methods"]:
            engine_cfg = build_engine_config(cfg, method, budget, cfg["bits"])
            records = sorted(
                (run_episode(scenario_source(s, engine_cfg.chunk_size), engine_cfg,
                             gold=s.gold_answer, example_id=s.scenario_id, model="sim")
                 for s in scenarios),
                key=lambda r: r.example_id,
            )
            write_records(records, _records_path(out_dir, method, budget),
                          metadata={"command": "simulate", "method": method, "budget": budget})
            n_correct = sum(r.correct for r in records)
            avg = sum(r.tokens_used for r in records) / len(records)
            print(f"{method} B={budget}: n={len(records)} correct={n_correct} "
                  f"avg_tokens={avg:.1f}")
    _write_sidecar(out_dir, cfg, "simulate")
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    trace_dir = Path(args.traces)
    paths = sorted(trace_dir.glob("*.jsonl"))
    if not paths:
        raise TraceParseError(trace_dir, "no trace files found")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    traces = []
    failures = []
    for path in paths:
        try:
            traces.append(read_trace(path))
        except TraceParseError as exc:
            failures.append(str(exc))
            print(f"error: {exc}", file=sys.stderr)
    if not traces:
        raise TraceParseError(trace_dir, "every trace file failed to parse")

    bits_flag = getattr(args, "bits", None)
    for budget in cfg["budgets"]:
        for method in cfg["methods"]:
            records = []
            for meta, steps in traces:
                served = bits_flag if bits_flag is not None else meta.served_bits
                engine_cfg = build_engine_config(cfg, method, budget, served)
                records.append(
                    run_episode(ReplaySource(steps), engine_cfg,
                                gold=meta.gold_answer, example_id=meta.example_id,
                                model=meta.model)
                )
            records.sort(key=lambda r: r.example_id)
            write_records(
                records, _records_path(out_dir, method, budget),
                metadata={
                    "command": "replay",
                    "method": method,
                    "budget": budget,
                    # Post-divergence chunks come from the producing run and
                    # are counterfactual under this controller.
                    "counterfactual_replay": True,
                },
            )
            n_correct = sum(r.correct for r in records)
            print(f"{method} B={budget}: n={len(records)} correct={n_correct}")
    _write_sidecar(out_dir, cfg, "replay")
    if failures:
        return 2
    return 0


def _fmt(value: float) -> str:
    return f"{value:.6f}"


def _emit_plot_data(summaries: Sequence[RunSummary], out_dir: Path) -> None:
    def rows(header, fields):
        lines = [header]
        for s in summaries:
            lines.append(",".join(fields(s)))
        return "\n".join(lines) + "\n"

    (out_dir / "accuracy_ci.csv").write_text(rows(
        "method,budget,accuracy,ci_low,ci_high,model",
        lambda s: [s.method, str(s.budget), _fmt(s.accuracy), _fmt(s.ci_low),
                   _fmt(s.ci_high), s.model],
    ))
    (out_dir / "premature_stop.csv").write_text(rows(
        "method,budget,premature_stop,model",
        lambda s: [s.method, str(s.budget), _fmt(s.premature_stop_pct), s.model],
    ))
    (out_dir / "pareto.csv").write_text(rows(
        "method,budget,avg_tokens,accuracy,model",
        lambda s: [s.method, str(s.budget), _fmt(s.avg_tokens), _fmt(s.accuracy), s.model],
    ))
    (out_dir / "budget_sweep.csv").write_text(rows(
        "method,budget,accuracy,avg_tokens,model",
        lambda s: [s.method, str(s.budget), _fmt(s.accuracy), _fmt(s.avg_tokens), s.model],
    ))


def cmd_report(args: argparse.Namespace) -> int:
    records_dir = Path(getattr(args, "records", None) or args.out)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    record_files = sorted(records_dir.glob("records_*.jsonl"))
    if not record_files:
        raise EmptyRunError(f"no record files under {records_dir}")
    records = []
    for path in record_files:
        _, recs = read_records(path)
        records.extend(recs)
    if not records:
        raise EmptyRunError(f"record files under {records_dir} hold no records")
    summaries = summarize_all(records)
    emit_summary_table(summaries, out_dir / "summary.csv")
    _emit_plot_data(summaries, out_dir)
    for s in summaries:
        savings = "-" if s.savings_pct is None else f"{s.savings_pct:.1f}%"
        print(f"{s.method} B={s.budget}: acc={s.accuracy:.1f}% "
              f"[{s.ci_low:.1f}, {s.ci_high:.1f}] avg_tokens={s.avg_tokens:.1f} "
              f"premature={s.premature_stop_pct:.1f}% savings={savings}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    if getattr(args, "traces", None):
        code = cmd_replay(args)
    else:
        code = cmd_simulate(args)
    report_args = argparse.Namespace(records=args.out, out=args.out)
    report_code = cmd_report(report_args)
    return max(code, report_code)


_COMMANDS = {
    "simulate": cmd_simulate,
    "replay": cmd_replay,
    "report": cmd_report,
    "sweep": cmd_sweep,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except (UsageError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (TraceParseError, EmptyRunError, BithaltError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
