"""One measured sweep of one workload, in a process of its own.

Usage: python3 perfbench/sweep.py '<json spec>'

The spec names the workload, the benchmark seed, the output directory,
whether to trace and whether to run the full checks. The sweep runs
through ``fdisim.cli.run_sweep``. Its wall time, peak memory and report
size are taken before any check runs. The last line of stdout is one JSON
object with the measurements, the failures and a digest of every report,
so that a repeated sweep can be checked against the first by its digests.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import sys
import time
import traceback

import numpy as np

import checks
import workloads
from hooks import Hooks


def report_digests(out_dir: str) -> dict:
    """sha256 and size of every CSV the sweep wrote, by relative path."""
    out = {}
    for d, _, files in os.walk(out_dir):
        for f in files:
            if f.endswith(".csv"):
                path = os.path.join(d, f)
                with open(path, "rb") as fh:
                    data = fh.read()
                out[os.path.relpath(path, out_dir)] = [hashlib.sha256(data).hexdigest(),
                                                       len(data)]
    return out


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest pool
    worker (ru_maxrss is in KiB on Linux)."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib * 1024 / 1e6


# span totals reported by the traced run: <layer>.<function>.<calls|s|self_s>
SPAN_METRICS = (
    "clustering.handle_data_message.calls", "clustering.handle_data_message.s",
    "engine.run_round.self_s",
    "clustering.extract_clusters.calls", "clustering.extract_clusters.s",
    "clustering.build_data_message.s", "clustering.prune_ids.s",
    "attacks.forge_reading.calls", "domain.validate_data_message.s",
    "detection.process_suspect.calls", "detection.process_suspect.self_s",
    "detection.build_consensus_region.calls", "detection.build_consensus_region.s",
    "detection.handle_alert.calls", "detection.handle_alert.s",
    "sensing.SynthField.s", "sensing.load_trace.s", "engine.compute_adjacency.s",
    "cli.run_sweep.self_s",
)


def layer_metrics(hooks: Hooks) -> dict:
    """Per-layer values over every run of the sweep, as {name: [value, unit]}."""
    spans = hooks.sweep_spans
    scopes = [sc for sc in hooks.scopes.values() if sc is not None]
    for sc in scopes:
        spans.merge(sc.spans)
    out = {}
    for metric in SPAN_METRICS:
        name, kind = metric.rsplit(".", 1)
        if kind == "calls":
            out[metric] = [spans.calls.get(name, 0), "count"]
        else:
            out[metric] = [spans.self_s(name) if kind == "self_s"
                           else spans.total.get(name, 0.0), "s"]
    suspect_calls = sum(sc.suspect_calls for sc in scopes)
    clusters = [c for sc in scopes for c in sc.cluster_counts]
    first = hooks.scopes.get(0)
    out.update({
        "clustering.clusters_per_round": [float(np.mean(clusters)) if clusters else 0.0,
                                          "count"],
        "detection.process_suspect.decided_ratio": [
            sum(sc.suspect_decided for sc in scopes) / suspect_calls
            if suspect_calls else 0.0, "ratio"],
        "sensing.load_trace.rows": [sum(sc.trace_rows for sc in scopes), "count"],
        "cli.result_pickle_mb": [first.pickle_bytes / 1e6 if first else 0.0, "MB"],
        "engine.events": [float(np.mean([sc.events for sc in scopes]))
                          if scopes else 0.0, "count"],
        "metrics.s": [sum(spans.total.get(name, 0.0) for name in (
            "metrics.compute_confusion", "metrics.cluster_availability",
            "metrics.build_report", "metrics.aggregate_runs")), "s"],
    })
    return out


def run_checks(spec: dict, wl: workloads.Workload, cfg, hooks: Hooks, seeds,
               totals) -> list:
    """Every check for this sweep, as (run index or None, message)."""
    import fdisim.cli as cli
    from fdisim.sensing import load_trace

    out = spec["out_dir"]
    failures = checks.check_reports(
        out, cfg.n_nodes, cfg.n_rounds, cfg.attacker_fraction,
        cfg.detection.detection_enabled, cfg.attack.attack_type, seeds)
    for k in range(len(seeds)):
        scope = hooks.scopes.get(k)
        if scope is None:
            failures.append((k, "no record of the run reached run_sweep"))
            continue
        failures += [(k, msg) for msg in checks.check_clusters(scope.samples)]
        if not cfg.detection.detection_enabled:
            want = cfg.n_rounds * checks.degree_sum(scope.positions, cfg.tx_radius_m)
            if totals[k] != want:
                failures.append((k, f"total_interactions {totals[k]} != rounds x degree "
                                    f"sum {want}"))
        if hooks.traced:
            checked, errors = checks.check_verdicts(scope)
            failures += [(k, msg) for msg in errors]
            if scope.suspect_calls and not checked:
                failures.append((k, "no consensus verdict could be checked"))
    if wl.trace:
        table = load_trace(cfg.trace_path)
        got = np.array([[table.reading(n, r) for n in range(table.n_nodes)]
                        for r in range(table.n_rounds)])
        want = workloads.trace_values(spec["seed"], wl.n_nodes, wl.n_rounds)
        if got.shape != want.shape or not np.array_equal(got, want):
            failures.append((None, "load_trace does not return the generated readings"))
    if wl.jobs > 1:
        k = len(seeds) - 1
        serial_dir = out + "-serial"
        code = cli.run_sweep(cfg, 1, seeds[k], serial_dir, jobs=1)
        if code != 0:
            failures.append((k, f"serial re-run exited {code}"))
        else:
            failures += [(k, msg) for msg in checks.compare_serial(out, serial_dir, k)]
        shutil.rmtree(serial_dir, ignore_errors=True)
    return failures


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    import fdisim.cli as cli

    wl = workloads.WORKLOADS[spec["workload"]]
    cfg = cli.parse_config(None, wl.config_overrides(spec.get("trace_csv")))
    seeds = [wl.base_seed(spec["seed"]) + k for k in range(wl.runs)]
    hooks = Hooks(traced=spec["trace"])
    hooks.install()
    t0 = time.perf_counter()
    try:
        code = cli.run_sweep(cfg, wl.runs, seeds[0], spec["out_dir"], jobs=wl.jobs)
    except Exception:  # a raising sweep fails every run in it
        traceback.print_exc()
        code = None
    wall = time.perf_counter() - t0
    rss = peak_rss_mb()
    hooks.uninstall()

    failures = []
    totals = []
    if code != 0:
        failures.append((None, f"run_sweep returned {code}"))
    else:
        header, rows = checks.read_rows(os.path.join(spec["out_dir"], "raw", "metrics.csv"))
        col = header.index("total_interactions")
        totals = [int(row[col]) for row in rows]
        if spec["full_checks"]:
            try:
                failures += run_checks(spec, wl, cfg, hooks, seeds, totals)
            except Exception:  # a check that cannot run counts as failing
                traceback.print_exc()
                failures.append((None, "correctness checks raised"))
    for k, msg in failures:
        print(f"{wl.name} run {'*' if k is None else k}: {msg}", file=sys.stderr)
    digests = report_digests(spec["out_dir"])
    print(json.dumps({
        "attempted": wl.runs,
        "failed": (wl.runs if any(k is None for k, _ in failures)
                   else len({k for k, _ in failures})),
        "wall_s": wall,
        "interactions": sum(totals),
        "setup_s": [sc.setup_s for sc in hooks.scopes.values() if sc is not None],
        "peak_rss_mb": rss,
        "report_mb": sum(size for _, size in digests.values()) / 1e6,
        "digests": digests,
        "layers": layer_metrics(hooks) if hooks.traced else None,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
