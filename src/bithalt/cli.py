"""Command-line surface: simulate, replay, report, sweep.

simulate and replay differ only in how they load examples: scenario files
(--scenarios, by default the built-in suite in simulate.SCENARIO_DIR) or recorded
traces. One runner scores both one example at a time: each is loaded once, run under
every method x budget cell in one pass over a single stream (engine.run_episodes)
and dropped, so a replay holds one trace's steps, and only the arrays of the step
the pass is at (trace_io.read_trace). Cells whose last chunk is partial split off
and finish over a fork of it. replay reads each trace, header and body, in one
read_trace when its turn comes; a trace that fails to parse is reported then and
skipped in every cell. A bit width's configs are built before its first episode, so
a bad setting exits 1 before any episode runs, but if every trace fails to parse the
run exits 2 (every trace file failed to parse) before the settings are checked.
Both write only files; sweep runs either one, then report, which prints the
summary.csv it writes. A replayed trace runs at the bit width in its header unless
bits is set by a flag or the config file; if it is not, run_meta.json reads
"bits": null. report checks each record as it reaches it, keeps its outcome row
and scores the rows in metrics, loading no engine, calibrate or policy; a group
whose every record errored gets no row, is named, and makes report exit 2.

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
import importlib
import json
import sys
from functools import cache, partial
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Optional, Sequence, Tuple

from .errors import BithaltError, ConfigError, EmptyRunError, TraceParseError
from .trace_io import (Method, ReplaySource, TraceMeta, _coerce, decode, read_records,
                       read_trace, write_records, write_text)

if TYPE_CHECKING:
    from .engine import TokenSource

# Layers that one command runs, imported when it runs, so a process compiles only what it
# runs. A command binds their names as globals, keeping any set already (perfbench/tracer.py
# wraps them there); read earlier as attributes, one loads its layer (PEP 562).
_LAZY = {".engine": ("EngineConfig", "CalibratorConfig", "PolicyConfig", "run_episode",
                     "run_episodes"),
         ".simulate": ("SCENARIO_DIR", "ScenarioSource", "load_scenario_dir"),
         ".metrics": ("Outcome", "emit_summary_table", "format_summary_rows", "summarize_all")}


def _load(layer: str) -> None:
    module = importlib.import_module(layer, __package__)
    for name in _LAZY[layer]:
        globals().setdefault(name, getattr(module, name))


def __getattr__(name: str):
    if name in ("CONFIG_FIELDS", "DEFAULTS"):
        _bind_run_tables()
        return globals()[name]
    for layer, names in _LAZY.items():
        if name in names:
            _load(layer)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


VALID_METHODS = tuple(m.value for m in Method)


@cache
def _bind_run_tables() -> None:
    """Bind the config tables, loading the engine layer they read: only run commands do."""
    global CONFIG_FIELDS, DEFAULTS
    _load(".engine")
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
    DEFAULTS = {
        "methods": ",".join(VALID_METHODS),
        "budgets": "512",
        **{key: next(f.default for f in dataclasses.fields(cls) if f.name == name)
           for key, (cls, name, _) in CONFIG_FIELDS.items()},
    }


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _add_common(p: _Parser) -> None:
    _bind_run_tables()
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


def build_parser(command: Optional[str] = None) -> _Parser:
    """Every command's parser; given one command, only that one takes the run options."""
    parser = _Parser(prog="bithalt", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run scripted scenarios through the controller")
    p_sim.add_argument("--scenarios", metavar="DIR",
                       help="scenario JSON directory (default: built-in suite)")

    p_rep = sub.add_parser("replay", help="replay recorded traces under requested controllers")
    p_rep.add_argument("--traces", metavar="DIR", required=True, help="trace JSONL directory")

    p_rpt = sub.add_parser("report", help="aggregate record files into summary.csv")
    p_rpt.add_argument("--records", metavar="DIR",
                       help="directory holding record JSONL files (default: --out)")
    p_rpt.add_argument("--out", metavar="DIR", required=True, help="output directory")

    p_swp = sub.add_parser("sweep", help="simulate or replay a method x budget grid, then report")
    source = p_swp.add_mutually_exclusive_group()
    source.add_argument("--scenarios", metavar="DIR",
                        help="scenario JSON directory (default: built-in suite)")
    source.add_argument("--traces", metavar="DIR", help="replay this trace directory instead")
    for name in ("simulate", "replay", "sweep"):
        if command in (None, name):
            _add_common(sub.choices[name])
    return parser


def _load_config_file(path) -> dict:
    try:
        data = decode(path, Path(path).read_bytes())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    except TraceParseError as exc:
        raise ConfigError(str(exc))
    unknown = set(data) - set(DEFAULTS)
    if unknown:
        hint = ", ".join(sorted(DEFAULTS))
        raise ConfigError(f"unknown config key(s) {sorted(unknown)}; valid keys: {hint}")
    return data


def _parse(key: str, value, flag: bool):
    """A value read as the key's default type: a flag's text converted to it, a
    config-file value held to the value rule of every input file."""
    kind = type(DEFAULTS[key])
    try:
        return kind(value) if flag else _coerce(key, kind, value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{key} must be {kind.__name__}, got {value!r}")


def resolve_config(args: argparse.Namespace, **command_defaults) -> dict:
    """Built-in defaults <- command defaults <- config file <- flags; None is unset."""
    _bind_run_tables()
    cfg = {**DEFAULTS, **command_defaults}
    file_cfg = _load_config_file(args.config) if getattr(args, "config", None) else {}
    flags = {key: getattr(args, key, None) for key in DEFAULTS}
    for flag, layer in ((False, file_cfg), (True, flags)):
        cfg.update((k, _parse(k, v, flag)) for k, v in layer.items() if v is not None)

    # A repeated method or budget names one cell, so it is kept once, in first-seen order.
    methods = list(dict.fromkeys(m.strip() for m in cfg["methods"].split(",") if m.strip()))
    for m in methods:
        if m not in VALID_METHODS:
            raise ConfigError(f"unknown method {m!r}; valid methods: {', '.join(VALID_METHODS)}")
    if not methods:
        raise ConfigError("at least one method is required")
    try:
        budgets = list(dict.fromkeys(int(b) for b in cfg["budgets"].split(",") if b.strip()))
    except ValueError:
        raise ConfigError(
            f"budgets must be a comma-separated integer list, got {cfg['budgets']!r}")
    if not budgets:
        raise ConfigError("at least one budget is required")
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
    except ConfigError as exc:  # named by the CLI/config key that sets the field
        keys = {"budget": "budgets", **{name: k for k, (_, name, _) in CONFIG_FIELDS.items()}}
        if exc.field not in keys:
            raise
        raise ConfigError(f"{keys[exc.field]} {exc.requirement}") from None


def _run_grid(loads: Sequence[Callable[[], Tuple[TraceMeta, TokenSource]]], cfg: dict,
              out_dir: Path, command: str, **header) -> int:
    """Load each example (its header and source from one call), run it under every method x
    budget cell in one pass at its header's bits unless bits is set, and drop it before the next
    one loads; then write each cell's records sorted by example id, printing nothing. A bit
    width's configs are built before its first episode, so a bad value fails before any episode
    runs. A load that fails is reported at its turn, skipped and counted; if every load fails,
    the run ends with EmptyRunError before any config is built."""
    cells = {(budget, method): [] for budget in cfg["budgets"] for method in cfg["methods"]}
    engine_cfgs, failed = {}, 0  # bits -> one EngineConfig per cell
    for load in loads:
        try:
            meta, source = load()
        except TraceParseError as exc:
            print(f"error: {exc}", file=sys.stderr)
            failed += 1
            continue
        bits = meta.served_bits if cfg["bits"] is None else cfg["bits"]
        if bits not in engine_cfgs:
            engine_cfgs[bits] = [build_engine_config(cfg, m, b, bits) for b, m in cells]
        for records, record in zip(cells.values(), run_episodes(
                source, engine_cfgs[bits], gold=meta.gold_answer,
                example_id=meta.example_id, model=meta.model)):
            records.append(record)
        del source  # release this example's steps before the next one is parsed
    if failed == len(loads):  # only a trace can fail to load
        raise EmptyRunError("every trace file failed to parse")
    out_dir.mkdir(parents=True, exist_ok=True)
    for (budget, method), records in cells.items():
        records.sort(key=lambda r: r.example_id)
        write_records(records, out_dir / f"records_{method}_b{budget}.jsonl",
                      metadata={"command": command, "method": method, "budget": budget,
                                **header})
    run_meta = {"command": command, "config": {k: cfg[k] for k in sorted(cfg, key=str)}}
    write_text(out_dir / "run_meta.json", json.dumps(run_meta, indent=2) + "\n")
    return failed


def cmd_simulate(args: argparse.Namespace) -> int:
    _load(".simulate")
    cfg = resolve_config(args)
    directory = args.scenarios or SCENARIO_DIR
    scenarios = load_scenario_dir(directory)
    if not scenarios:  # an install without the package data lands here too
        raise TraceParseError(directory, "no scenario files found")

    def load(s):  # the header's bit width goes unread: simulate always sets bits
        return TraceMeta(s.scenario_id, s.gold_answer, "sim"), ScenarioSource(s)
    _run_grid([partial(load, s) for s in scenarios], cfg, Path(args.out), "simulate")
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    # Unless bits is set, each trace runs at the bits in its header.
    cfg = resolve_config(args, bits=None)
    trace_dir = Path(args.traces)
    paths = sorted(trace_dir.glob("*.jsonl"))
    if not paths:
        raise TraceParseError(trace_dir, "no trace files found")

    def load(path):  # the header and the steps come from one read of the file
        meta, steps = read_trace(path)
        return meta, ReplaySource(steps)
    # Post-divergence chunks are the producing run's: counterfactual under this controller.
    failed = _run_grid([partial(load, path) for path in paths], cfg, Path(args.out),
                       "replay", counterfactual_replay=True)
    return 2 if failed else 0


def cmd_report(args: argparse.Namespace) -> int:
    _load(".metrics")
    records_dir = Path(getattr(args, "records", None) or args.out)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    record_files = sorted(records_dir.glob("records_*.jsonl"))
    if not record_files:
        raise EmptyRunError(f"no record files under {records_dir}")
    # One record is alive at a time: each streams past and leaves its outcome row.
    rows = [Outcome.of(record) for path in record_files for record in read_records(path)[1]]
    if not rows:
        raise EmptyRunError(f"record files under {records_dir} hold no records")
    summaries = summarize_all(rows, dropped := [])  # groups whose every record errored
    emit_summary_table(summaries, out_dir / "summary.csv")
    print("\n".join(format_summary_rows(summaries)))
    sys.stderr.writelines(f"error: {message}\n" for message in dropped)
    return 2 if dropped else 0


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
        argv = sys.argv[1:] if argv is None else argv
        args = build_parser(argv[0] if argv else None).parse_args(argv)
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (BithaltError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
