"""Scenario runner: config parsing, seed sweeps and CSV reports."""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from contextlib import ExitStack
from dataclasses import fields, is_dataclass, replace
from multiprocessing import get_context
from operator import attrgetter
from typing import Callable, Dict, List, Optional, Sequence, Tuple, get_type_hints

from .attacks import ATTACK_TYPES
from .engine import ConfigError, RunResult, ScenarioConfig, run_scenario
from .metrics import SUMMARY_METRICS, ConfusionCounts, MetricsReport, aggregate_runs
from .sensing import TraceError

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_TRACE = 2
EXIT_IO = 3

SUMMARY_COLUMNS = ["scenario_id", "n_nodes", "attacker_pct", "attack_type", "detection_enabled",
                   *(col for _, stem, ci in SUMMARY_METRICS
                     for col in (f"{stem}_mean", f"{stem}_ci")[:1 + ci])]
TIMESERIES_COLUMNS = ["run", "round", "clusters_total", "clusters_attacker_free",
                      "blacklisted_count"]
EVENTS_COLUMNS = ["run", "round", "event", "node", "subject", "value"]
_COUNT_FIELDS = [f.name for f in fields(ConfusionCounts)]
_METRIC_FIELDS = [f.name for f in fields(MetricsReport)]
RAW_COLUMNS = ["run", "seed", *_COUNT_FIELDS, *_METRIC_FIELDS]
_counts_of = attrgetter(*_COUNT_FIELDS)
_metrics_of = attrgetter(*_METRIC_FIELDS)


def _parse_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


_PARSERS = {int: int, float: float, str: str, Optional[str]: str, bool: _parse_bool}


def _config_keys(cls, section: str = "") -> Dict[str, Tuple[str, Callable]]:
    """Config key -> (section, parser): a key is a field of ScenarioConfig or
    of one of its dataclass-typed sections, "" being the scenario itself."""
    keys: Dict[str, Tuple[str, Callable]] = {}
    for name, hint in get_type_hints(cls).items():
        if is_dataclass(hint):
            keys.update(_config_keys(hint, name))
        else:
            keys[name] = (section, _PARSERS[hint])
    return keys


_CONFIG_KEYS = _config_keys(ScenarioConfig)


def _apply_key(cfg: ScenarioConfig, key: str, raw: str, where: str) -> None:
    spec = _CONFIG_KEYS.get(key)
    if spec is None:
        raise ConfigError(f"unknown config key '{key}' {where}")
    section, parser = spec
    try:
        value = parser(raw)
    except ValueError:
        raise ConfigError(f"bad value for '{key}' {where}: {raw!r}") from None
    setattr(getattr(cfg, section) if section else cfg, key, value)


def parse_config(path: Optional[str], overrides: Optional[Dict[str, str]] = None,
                 ) -> ScenarioConfig:
    """Resolve a flat key = value file plus override pairs into a validated
    ScenarioConfig; omitted keys keep their documented defaults."""
    cfg = ScenarioConfig()
    if path is not None:
        try:
            with open(path, encoding="utf-8-sig") as fh:
                lines = fh.readlines()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from None
        except UnicodeDecodeError:
            raise ConfigError(f"config file {path} is not UTF-8 text") from None
        for ln, line in enumerate(lines, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ConfigError(f"malformed line {ln} in {path}: expected key = value")
            key, raw = text.split("=", 1)
            _apply_key(cfg, key.strip(), raw.strip(), f"at line {ln} of {path}")
    for key, raw in (overrides or {}).items():
        _apply_key(cfg, key, raw, "from command line")
    cfg.validate()
    return cfg


def scenario_id(cfg: ScenarioConfig) -> str:
    pct = cfg.attacker_fraction * 100.0
    det = "det" if cfg.detection.detection_enabled else "nodet"
    return f"n{cfg.n_nodes}_a{pct:g}_{cfg.attack.attack_type}_{det}"


def _fmt(value) -> str:
    if value is None:
        return "na"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))  # a numpy float's own repr names its type
    return str(value)


def _csv_line(row: Sequence) -> str:
    """A report line as csv.writer would write it. No field needs quoting:
    attack types come from a fixed set, and every other field is a number,
    a boolean or na."""
    return ",".join(map(_fmt, row)) + "\r\n"


def _run_one(args: Tuple[ScenarioConfig, int]) -> RunResult:
    cfg, seed = args
    return run_scenario(replace(cfg, seed=seed))


def _raw_row(run_idx: int, result: RunResult) -> List:
    return [run_idx, result.seed, *_counts_of(result.confusion), *_metrics_of(result.report)]


def run_sweep(cfg: ScenarioConfig, runs: int, base_seed: int, out_dir: str,
              jobs: int = 1) -> int:
    """Execute `runs` seeds, aggregate and write the CSV reports.

    Returns a process exit code: 0 on success, 2 on trace problems, 3 on
    I/O problems. Rows are ordered by seed regardless of worker scheduling.
    """
    if runs < 1:
        raise ConfigError("runs must be >= 1")
    targets = [(os.path.join(out_dir, name), header) for name, header in (
        ("summary.csv", SUMMARY_COLUMNS), (os.path.join("raw", "metrics.csv"), RAW_COLUMNS),
        ("timeseries.csv", TIMESERIES_COLUMNS), ("events.csv", EVENTS_COLUMNS))]
    work = [(cfg, base_seed + k) for k in range(runs)]
    # each report is staged in one temp directory and renamed over its path,
    # so a reader finds the old report or the new one, whole; a sweep that
    # fails before the renames changes no report, but a failed rename leaves
    # the reports renamed before it
    try:
        os.makedirs(os.path.join(out_dir, "raw"), exist_ok=True)
        with tempfile.TemporaryDirectory(dir=out_dir, prefix=".tmp-") as tmp:
            staged = [os.path.join(tmp, os.path.basename(path)) for path, _ in targets]
            with ExitStack() as stack:
                summary_csv, raw_csv, ts_csv, ev_csv = files = [
                    stack.enter_context(open(path, "w", newline="", encoding="utf-8"))
                    for path in staged]
                for fh, (_, header) in zip(files, targets):
                    fh.write(_csv_line(header))
                if jobs > 1 and runs > 1:
                    pool = stack.enter_context(get_context("fork").Pool(processes=min(jobs, runs)))
                    results = pool.imap(_run_one, work)
                else:
                    results = map(_run_one, work)
                # rows are written out as runs complete, in seed order; each
                # result is dropped before the next run starts (an enumerate
                # over results would hold it in the tuple it reuses)
                reports: List[MetricsReport] = []
                for run_idx in range(runs):
                    result = next(results)
                    reports.append(result.report)
                    raw_csv.write(_csv_line(_raw_row(run_idx, result)))
                    ts_csv.write("".join([
                        f"{run_idx},{rnd},{total},{clean},{bl}\r\n"
                        for (rnd, total, clean), bl in zip(result.availability,
                                                           result.blacklisted_counts)]))
                    # event names are constants, the rest ints and float reprs
                    ev_csv.write("".join([
                        f"{run_idx},{rnd},{event},{node},{'na' if subject is None else subject},"
                        f"{'na' if value is None else repr(value)}\r\n"
                        for rnd, event, node, subject, value in result.events]))
                    del result

                stats = aggregate_runs(reports)
                summary_row = [scenario_id(cfg), cfg.n_nodes, cfg.attacker_fraction * 100.0,
                               cfg.attack.attack_type, cfg.detection.detection_enabled]
                for key, _, ci in SUMMARY_METRICS:
                    summary_row.extend(stats[key][:1 + ci])
                summary_csv.write(_csv_line(summary_row))
            for src, (path, _) in zip(staged, targets):
                os.replace(src, path)
    except TraceError as exc:
        print(f"trace error: {exc}", file=sys.stderr)
        return EXIT_TRACE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fdisim",
        description="Round-based IIoT sensor-cluster simulator with consensus "
                    "filtering of false-data injectors.")
    parser.add_argument("--config", metavar="PATH", help="flat key = value scenario file")
    # a flag whose dest is a config key overrides that key
    parser.add_argument("--nodes", dest="n_nodes", type=int, metavar="N",
                        help="number of nodes")
    parser.add_argument("--attackers-pct", type=float, metavar="P",
                        help="attacker share in percent, e.g. 10")
    parser.add_argument("--attack", dest="attack_type", choices=ATTACK_TYPES,
                        help="attacker behavior model")
    parser.add_argument("--runs", type=int, default=1, metavar="K",
                        help="number of seeded runs (default 1)")
    parser.add_argument("--seed", type=int, metavar="S", help="base seed")
    parser.add_argument("--no-detection", action="store_true",
                        help="disable the fault-management layer (baseline mode)")
    parser.add_argument("--trace", dest="trace_path", metavar="PATH",
                        help="reading trace CSV")
    parser.add_argument("--out", default="out", metavar="DIR", help="output directory")
    parser.add_argument("--jobs", type=int, default=1, metavar="J",
                        help="parallel worker processes")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_arg_parser().parse_args(argv)
    overrides = {key: str(value) for key, value in vars(args).items()
                 if key in _CONFIG_KEYS and value is not None}
    if args.attackers_pct is not None:
        overrides["attacker_fraction"] = str(args.attackers_pct / 100.0)
    if args.no_detection:
        overrides["detection_enabled"] = "false"

    try:
        cfg = parse_config(args.config, overrides)
        if args.runs < 1:
            raise ConfigError("runs must be >= 1")
        if args.jobs < 1:
            raise ConfigError("jobs must be >= 1")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    return run_sweep(cfg, args.runs, cfg.seed, args.out, jobs=args.jobs)


if __name__ == "__main__":
    sys.exit(main())
