"""Scenario runner: config parsing, seed sweeps and CSV reports."""

from __future__ import annotations

import argparse
import csv
import os
import sys
import tempfile
from dataclasses import replace
from multiprocessing import get_context
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .engine import ConfigError, RunResult, ScenarioConfig, run_scenario
from .metrics import MetricsReport, aggregate_runs
from .sensing import TraceError

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_TRACE = 2
EXIT_IO = 3

SUMMARY_COLUMNS = [
    "scenario_id", "n_nodes", "attacker_pct", "attack_type", "detection_enabled",
    "dr_mean", "dr_ci", "acc_mean", "acc_ci", "fpr_mean", "fpr_ci", "fnr_mean", "fnr_ci",
    "precision_mean", "recall_mean", "f1_mean",
    "clusters_total_mean", "clusters_attacker_free_mean",
]
TIMESERIES_COLUMNS = ["run", "round", "clusters_total", "clusters_attacker_free",
                      "blacklisted_count"]
EVENTS_COLUMNS = ["run", "round", "event", "node", "subject", "value"]
RAW_COLUMNS = [
    "run", "seed", "tp", "tn", "fp", "fn", "attackers_inserted", "total_interactions",
    "fn_count_paper", "detection_rate", "accuracy", "accuracy_x100", "fpr", "fnr",
    "precision", "recall", "f1", "clusters_total_mean", "clusters_attacker_free_mean",
]


def _parse_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


# config key -> (target section, attribute, parser); sections are the nested
# config dataclasses, "" is the scenario itself
_CONFIG_KEYS: Dict[str, Tuple[str, str, Callable]] = {
    "n_nodes": ("", "n_nodes", int),
    "area_width_m": ("", "area_width_m", float),
    "area_height_m": ("", "area_height_m", float),
    "tx_radius_m": ("", "tx_radius_m", float),
    "n_rounds": ("", "n_rounds", int),
    "attacker_fraction": ("", "attacker_fraction", float),
    "seed": ("", "seed", int),
    "crash_fraction": ("", "crash_fraction", float),
    "crash_round": ("", "crash_round", int),
    "trace_path": ("", "trace_path", str),
    "cthresh": ("cluster", "cthresh", float),
    "neighbor_ttl_rounds": ("cluster", "neighbor_ttl_rounds", int),
    "consensus_threshold": ("detection", "consensus_threshold", float),
    "consensus_region_cap": ("detection", "region_cap", int),
    "detection_enabled": ("detection", "detection_enabled", _parse_bool),
    "attack_type": ("attack", "attack_type", str),
    "fdi_offset_min": ("attack", "fdi_offset_min", float),
    "fdi_offset_max": ("attack", "fdi_offset_max", float),
    "churn_honest_rounds": ("attack", "churn_honest_rounds", int),
    "churn_false_rounds": ("attack", "churn_false_rounds", int),
    "sensitive_margin": ("attack", "sensitive_margin", float),
    "base_value": ("sensing", "base_value", float),
    "drift_per_round": ("sensing", "drift_per_round", float),
    "spatial_gradient": ("sensing", "spatial_gradient", float),
    "noise_sigma": ("sensing", "noise_sigma", float),
}


def _apply_key(cfg: ScenarioConfig, key: str, raw: str, where: str) -> None:
    spec = _CONFIG_KEYS.get(key)
    if spec is None:
        raise ConfigError(f"unknown config key '{key}' {where}")
    section, attr, parser = spec
    try:
        value = parser(raw)
    except ValueError:
        raise ConfigError(f"bad value for '{key}' {where}: {raw!r}") from None
    target = cfg if section == "" else getattr(cfg, section)
    setattr(target, attr, value)


def parse_config(path: Optional[str], overrides: Optional[Dict[str, str]] = None,
                 ) -> ScenarioConfig:
    """Resolve a flat key = value file plus override pairs into a validated
    ScenarioConfig; omitted keys keep their documented defaults."""
    cfg = ScenarioConfig()
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                lines = fh.readlines()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from None
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
        return repr(value)
    return str(value)


class _AtomicCsv:
    """CSV written to a temp file and renamed into place on commit, so
    readers never observe a truncated report."""

    def __init__(self, path: str, header: Sequence[str]) -> None:
        self.path = path
        directory = os.path.dirname(path) or "."
        fd, self._tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".csv")
        self._fh = os.fdopen(fd, "w", newline="", encoding="utf-8")
        self._writer = csv.writer(self._fh)
        self._writer.writerow(header)

    def write_row(self, row: Sequence) -> None:
        self._writer.writerow([_fmt(v) for v in row])

    def write_rows(self, rows: Iterable[Sequence]) -> None:
        """Rows of ints, strings and floats only: csv writes ints with str
        and floats with repr, as _fmt would."""
        self._writer.writerows(rows)

    def commit(self) -> None:
        self._fh.close()
        os.replace(self._tmp, self.path)

    def discard(self) -> None:
        if not self._fh.closed:
            self._fh.close()
        if os.path.exists(self._tmp):
            os.unlink(self._tmp)


def _atomic_csv(path: str, header: Sequence[str], rows) -> None:
    out = _AtomicCsv(path, header)
    try:
        for row in rows:
            out.write_row(row)
        out.commit()
    except BaseException:
        out.discard()
        raise


def _run_one(args: Tuple[ScenarioConfig, int]) -> RunResult:
    cfg, seed = args
    return run_scenario(replace(cfg, seed=seed))


def _raw_row(run_idx: int, result: RunResult) -> List:
    c = result.confusion
    rp = result.report
    return [run_idx, result.seed, c.tp, c.tn, c.fp, c.fn, c.attackers_inserted,
            c.total_interactions, rp.fn_count_paper, rp.detection_rate, rp.accuracy,
            rp.accuracy_x100, rp.fpr, rp.fnr, rp.precision, rp.recall, rp.f1,
            rp.clusters_total_mean, rp.clusters_attacker_free_mean]


def run_sweep(cfg: ScenarioConfig, runs: int, base_seed: int, out_dir: str,
              jobs: int = 1) -> int:
    """Execute `runs` seeds, aggregate and write the CSV reports.

    Returns a process exit code: 0 on success, 2 on trace problems, 3 on
    I/O problems. Rows are ordered by seed regardless of worker scheduling.
    """
    if runs < 1:
        raise ConfigError("runs must be >= 1")
    open_files: List[_AtomicCsv] = []
    try:
        os.makedirs(out_dir, exist_ok=True)
        raw_dir = os.path.join(out_dir, "raw")
        os.makedirs(raw_dir, exist_ok=True)

        # per-round and per-event rows are streamed out as runs complete;
        # results arrive in seed order regardless of worker scheduling
        ts_csv = _AtomicCsv(os.path.join(out_dir, "timeseries.csv"), TIMESERIES_COLUMNS)
        ev_csv = _AtomicCsv(os.path.join(out_dir, "events.csv"), EVENTS_COLUMNS)
        open_files += [ts_csv, ev_csv]

        seeds = [base_seed + k for k in range(runs)]
        work = [(cfg, seed) for seed in seeds]
        reports: List[MetricsReport] = []
        raw_rows: List[List] = []

        def consume(run_idx: int, result: RunResult) -> None:
            reports.append(result.report)
            raw_rows.append(_raw_row(run_idx, result))
            ts_csv.write_rows((run_idx, rnd, total, clean, bl)
                              for (rnd, total, clean), bl in zip(result.availability,
                                                                 result.blacklisted_counts))
            ev_csv.write_rows((run_idx, rnd, event, node,
                               "na" if subject is None else subject,
                               "na" if value is None else value)
                              for rnd, event, node, subject, value in result.events)

        if jobs > 1 and runs > 1:
            with get_context("fork").Pool(processes=min(jobs, runs)) as pool:
                for run_idx, result in enumerate(pool.imap(_run_one, work)):
                    consume(run_idx, result)
        else:
            for run_idx, item in enumerate(work):
                consume(run_idx, _run_one(item))

        stats = aggregate_runs(reports)
        summary_row = [scenario_id(cfg), cfg.n_nodes, cfg.attacker_fraction * 100.0,
                       cfg.attack.attack_type, cfg.detection.detection_enabled]
        for key in ("detection_rate", "accuracy", "fpr", "fnr"):
            mean, ci = stats[key]
            summary_row.extend([mean, ci])
        for key in ("precision", "recall", "f1",
                    "clusters_total_mean", "clusters_attacker_free_mean"):
            summary_row.append(stats[key][0])

        _atomic_csv(os.path.join(out_dir, "summary.csv"), SUMMARY_COLUMNS, [summary_row])
        _atomic_csv(os.path.join(raw_dir, "metrics.csv"), RAW_COLUMNS, raw_rows)
        ts_csv.commit()
        ev_csv.commit()
    except BaseException as exc:
        # no half-written report survives a failed sweep, whatever failed
        for out in open_files:
            out.discard()
        if isinstance(exc, TraceError):
            print(f"trace error: {exc}", file=sys.stderr)
            return EXIT_TRACE
        if isinstance(exc, OSError):
            print(f"i/o error: {exc}", file=sys.stderr)
            return EXIT_IO
        raise
    return EXIT_OK


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fdisim",
        description="Round-based IIoT sensor-cluster simulator with consensus "
                    "filtering of false-data injectors.")
    parser.add_argument("--config", metavar="PATH", help="flat key = value scenario file")
    parser.add_argument("--nodes", type=int, metavar="N", help="number of nodes")
    parser.add_argument("--attackers-pct", type=float, metavar="P",
                        help="attacker share in percent, e.g. 10")
    parser.add_argument("--attack", choices=("fdi", "churn", "sensitive"),
                        help="attacker behavior model")
    parser.add_argument("--runs", type=int, default=1, metavar="K",
                        help="number of seeded runs (default 1)")
    parser.add_argument("--seed", type=int, metavar="S", help="base seed")
    parser.add_argument("--no-detection", action="store_true",
                        help="disable the fault-management layer (baseline mode)")
    parser.add_argument("--trace", metavar="PATH", help="reading trace CSV")
    parser.add_argument("--out", default="out", metavar="DIR", help="output directory")
    parser.add_argument("--jobs", type=int, default=1, metavar="J",
                        help="parallel worker processes")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_arg_parser().parse_args(argv)
    overrides: Dict[str, str] = {}
    if args.nodes is not None:
        overrides["n_nodes"] = str(args.nodes)
    if args.attackers_pct is not None:
        overrides["attacker_fraction"] = str(args.attackers_pct / 100.0)
    if args.attack is not None:
        overrides["attack_type"] = args.attack
    if args.seed is not None:
        overrides["seed"] = str(args.seed)
    if args.no_detection:
        overrides["detection_enabled"] = "false"
    if args.trace is not None:
        overrides["trace_path"] = args.trace

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
