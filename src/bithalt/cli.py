"""Command-line surface: simulate, replay, report, sweep.

simulate and replay differ only in how they load examples (scenarios or
recorded traces). One runner scores both one example at a time: each is loaded
once, run under every method x budget cell in one pass over a single stream
(engine.run_episodes) and dropped, so a replay holds one trace's steps. Cells
whose last chunk is partial split off and finish over a fork of it. replay
reads every header first; a body that fails to parse is reported when its turn
comes and skipped in every cell. Both write only files; sweep runs either one,
then report, which prints the summary.csv it writes. A replayed trace runs at
the bit width in its header unless bits is set by a flag or the config file; if
it is not, run_meta.json reads "bits": null.

Config resolution is layered: built-in defaults <- the command's own defaults
<- optional JSON config file (--config) <- explicit command-line flags, highest
wins; null means unset. The built-in defaults are the field defaults of
CalibratorConfig, PolicyConfig and EngineConfig, read through CONFIG_FIELDS.
A flag's text is converted to the key's default type, a config-file value is
held to it by the one value rule (trace_io._coerce), and a value that fails is
a usage error naming the key. Episodes run serially; --jobs is still accepted
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
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Sequence

from .calibrate import CalibratorConfig
# run_episode stays importable here: perfbench/tracer.py wraps it (test_tracer_targets_resolve).
from .engine import EngineConfig, Method, TokenSource, run_episode, run_episodes  # noqa: F401
from .errors import BithaltError, ConfigError, EmptyRunError, TraceParseError
from .metrics import emit_summary_table, format_summary_rows, summarize_all
from .policy import PolicyConfig
from .simulate import ScenarioSource, load_scenario_dir, scenario_suite_canonical
from .trace_io import (ReplaySource, _coerce, decode, read_records, read_trace,
                       read_trace_meta, write_records, write_text)

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


# Dataclass field -> the CLI/config key that sets it, for error messages.
_KEY_OF_FIELD = {"budget": "budgets",
                 **{name: key for key, (_, name, _) in CONFIG_FIELDS.items()}}


DEFAULTS = {
    "methods": ",".join(VALID_METHODS),
    "budgets": "512",
    **{key: next(f.default for f in dataclasses.fields(cls) if f.name == name)
       for key, (cls, name, _) in CONFIG_FIELDS.items()},
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
        p.add_argument("--" + key.replace("_", "-"), help=f"{text} (default: {DEFAULTS[key]!r})")
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

    p_rpt = sub.add_parser("report", help="aggregate record files into summary.csv")
    p_rpt.add_argument("--records", metavar="DIR",
                       help="directory holding record JSONL files (default: --out)")
    p_rpt.add_argument("--out", metavar="DIR", required=True, help="output directory")

    p_swp = sub.add_parser("sweep", help="simulate or replay a method x budget grid, then report")
    source = p_swp.add_mutually_exclusive_group()
    source.add_argument("--scenarios", metavar="DIR",
                        help="scenario JSON directory (default: built-in suite)")
    source.add_argument("--traces", metavar="DIR", help="replay this trace directory instead")
    _add_common(p_swp)

    return parser


def _load_config_file(path) -> dict:
    try:
        data = decode(path, Path(path).read_bytes())
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}")
    except TraceParseError as exc:
        raise UsageError(str(exc))
    unknown = set(data) - set(DEFAULTS)
    if unknown:
        hint = ", ".join(sorted(DEFAULTS))
        raise UsageError(f"unknown config key(s) {sorted(unknown)}; valid keys: {hint}")
    return data


def _parse(key: str, value, flag: bool):
    """A value read as the key's default type: a flag's text converted to it, a
    config-file value held to the value rule of every input file."""
    kind = type(DEFAULTS[key])
    try:
        return kind(value) if flag else _coerce(key, kind, value)
    except (TypeError, ValueError, OverflowError):
        raise UsageError(f"{key} must be {kind.__name__}, got {value!r}")


def resolve_config(args: argparse.Namespace, **command_defaults) -> dict:
    """Built-in defaults <- command defaults <- config file <- flags; None is unset."""
    cfg = {**DEFAULTS, **command_defaults}
    file_cfg = _load_config_file(args.config) if getattr(args, "config", None) else {}
    flags = {key: getattr(args, key, None) for key in DEFAULTS}
    for flag, layer in ((False, file_cfg), (True, flags)):
        cfg.update((k, _parse(k, v, flag)) for k, v in layer.items() if v is not None)

    # A repeated method or budget names one cell, so it is kept once, in first-seen order.
    methods = list(dict.fromkeys(m.strip() for m in cfg["methods"].split(",") if m.strip()))
    for m in methods:
        if m not in VALID_METHODS:
            raise UsageError(f"unknown method {m!r}; valid methods: {', '.join(VALID_METHODS)}")
    if not methods:
        raise UsageError("at least one method is required")
    try:
        budgets = list(dict.fromkeys(int(b) for b in cfg["budgets"].split(",") if b.strip()))
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
    try:
        return EngineConfig(
            method=Method(method),
            budget=budget,
            calibrator=CalibratorConfig(**kwargs[CalibratorConfig]),
            policy=PolicyConfig(**kwargs[PolicyConfig]),
            **kwargs[EngineConfig],
        )
    except ConfigError as exc:
        if exc.field not in _KEY_OF_FIELD:
            raise
        raise UsageError(f"{_KEY_OF_FIELD[exc.field]} {exc.requirement}") from None


class Example(NamedTuple):
    """One row of the grid: how to load its source, and how to score it."""

    load: Callable[[], TokenSource]
    gold: float
    example_id: str
    model: str
    served_bits: int


def _run_grid(examples: Sequence[Example], cfg: dict, out_dir: Path, command: str,
              **header) -> int:
    """Run each example under every method x budget cell in one pass, dropping it before
    the next one loads, then write each cell's records sorted by example id; print nothing,
    as only report turns records into numbers. Configs are built first, so a bad value fails
    before any episode. An example that fails to load is reported, skipped and counted."""
    cells = {(budget, method): [] for budget in cfg["budgets"] for method in cfg["methods"]}
    keys = dict.fromkeys((method, budget, ex.served_bits)
                         for budget, method in cells for ex in examples)
    engine_cfgs = {key: build_engine_config(cfg, *key) for key in keys}
    failed = 0
    for ex in examples:
        try:
            source = ex.load()
        except TraceParseError as exc:
            print(f"error: {exc}", file=sys.stderr)
            failed += 1
            continue
        cfgs = [engine_cfgs[method, budget, ex.served_bits] for budget, method in cells]
        for records, record in zip(cells.values(), run_episodes(
                source, cfgs, gold=ex.gold, example_id=ex.example_id, model=ex.model)):
            records.append(record)
        del source  # release this example's steps before the next one is parsed
    if failed == len(examples):  # only a trace can fail to load
        raise EmptyRunError("every trace file failed to parse")
    out_dir.mkdir(parents=True, exist_ok=True)
    for (budget, method), records in cells.items():
        records.sort(key=lambda r: r.example_id)
        write_records(records, out_dir / f"records_{method}_b{budget}.jsonl",
                      metadata={"command": command, "method": method, "budget": budget,
                                **header})
    meta = {"command": command, "config": {k: cfg[k] for k in sorted(cfg, key=str)}}
    write_text(out_dir / "run_meta.json", json.dumps(meta, indent=2) + "\n")
    return failed


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    if getattr(args, "scenarios", None):
        scenarios = load_scenario_dir(args.scenarios)
        if not scenarios:
            raise TraceParseError(args.scenarios, "no scenario files found")
    else:
        scenarios = scenario_suite_canonical()
    examples = [Example(partial(ScenarioSource, s),
                        s.gold_answer, s.scenario_id, "sim", cfg["bits"]) for s in scenarios]
    _run_grid(examples, cfg, Path(args.out), "simulate")
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    # Unless bits is set, each trace runs at the bits in its header.
    cfg = resolve_config(args, bits=None)
    trace_dir = Path(args.traces)
    paths = sorted(trace_dir.glob("*.jsonl"))
    if not paths:
        raise TraceParseError(trace_dir, "no trace files found")
    examples = []
    for path in paths:
        try:
            meta = read_trace_meta(path)
        except TraceParseError as exc:
            print(f"error: {exc}", file=sys.stderr)
            continue
        examples.append(Example(lambda path=path: ReplaySource(read_trace(path)[1]),
                                meta.gold_answer, meta.example_id, meta.model,
                                meta.served_bits if cfg["bits"] is None else cfg["bits"]))
    # Post-divergence chunks come from the producing run and are counterfactual
    # under this controller.
    failed = _run_grid(examples, cfg, Path(args.out), "replay", counterfactual_replay=True)
    return 2 if failed or len(examples) < len(paths) else 0


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
    print("\n".join(format_summary_rows(summaries)))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    code = (cmd_replay if getattr(args, "traces", None) else cmd_simulate)(args)
    return max(code, cmd_report(argparse.Namespace(records=args.out, out=args.out)))


_COMMANDS = {
    "simulate": cmd_simulate,
    "replay": cmd_replay,
    "report": cmd_report,
    "sweep": cmd_sweep,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except ConfigError as exc:  # includes UsageError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (BithaltError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
