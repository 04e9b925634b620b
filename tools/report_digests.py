"""Run a fixed list of sweeps from a source checkout and print the sha256 of
every CSV report they write, or compare two checkouts.

Usage (from anywhere):

    python3 tools/report_digests.py CHECKOUT
    python3 tools/report_digests.py --compare PARENT CHANGE

Each checkout runs in a process of its own, with its ``src/`` and
``perfbench/`` first on the path, so the two never share imported code.
The sweeps go through that checkout's ``fdisim.cli.run_sweep``; the three
benchmark workloads take their configs and, for ``scale-trace``, the
generated trace from its ``perfbench/workloads.py``. A line of output is
``config  report  sha256``. ``--compare`` prints the lines that differ and
exits 1 if any does, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Dict, List, Optional

# name -> (config overrides as the CLI takes them, runs, base seed, pool workers)
CONFIGS = {
    "criterion-7": ({"n_nodes": "30", "n_rounds": "200", "seed": "7"}, 2, 7, 1),
    "default-fdi-600": ({}, 1, 1, 1),
    "default-seed-4208": ({"seed": "4208"}, 1, 4208, 1),
    "mixed-verdict-sensitive": ({"n_nodes": "40", "n_rounds": "40", "attack_type": "sensitive",
                                 "noise_sigma": "1.5", "consensus_threshold": "1.0"}, 2, 1, 1),
    "noisy-churn": ({"n_nodes": "100", "n_rounds": "60", "attack_type": "churn",
                     "noise_sigma": "1.5"}, 2, 9, 1),
    "crash-round-1": ({"n_nodes": "60", "n_rounds": "20", "crash_fraction": "0.3",
                       "crash_round": "1"}, 2, 2, 1),
    "overflow-discard": ({"n_nodes": "30", "n_rounds": "10", "base_value": "1e308",
                          "spatial_gradient": "0"}, 2, 1, 1),
    "detection-off": ({"n_nodes": "100", "n_rounds": "100", "attacker_fraction": "0.2",
                       "detection_enabled": "false"}, 2, 1, 1),
    "noisy-400": ({"n_nodes": "400", "area_width_m": "400", "area_height_m": "400",
                   "n_rounds": "8", "attack_type": "sensitive", "noise_sigma": "1.5"}, 2, 5, 1),
    # the smallest and a wide consensus region, with clears and convictions
    "region-cap-1": ({"n_nodes": "40", "n_rounds": "40", "attack_type": "sensitive",
                      "noise_sigma": "1.5", "consensus_threshold": "1.0",
                      "consensus_region_cap": "1"}, 2, 1, 1),
    "wide-region": ({"n_nodes": "40", "n_rounds": "40", "attack_type": "sensitive",
                     "noise_sigma": "1.5", "consensus_threshold": "1.0",
                     "consensus_region_cap": "12"}, 2, 1, 1),
    # the similar flags settle, then the crash at round 50 changes only the
    # excluded set of cluster extraction
    "crash-flags-hold": ({"n_nodes": "100", "n_rounds": "80", "fdi_offset_min": "20",
                          "crash_fraction": "0.1", "crash_round": "50"}, 2, 1, 1),
}
WORKLOADS = ("sweep-fdi", "noisy-sensitive", "scale-trace")
BENCHMARK_SEED = 1

# runs inside the checkout's own process: argv[1] is the checkout
_RUNNER = r'''
import hashlib, json, os, sys, tempfile
root = sys.argv[1]
sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
from fdisim.cli import parse_config, run_sweep
import workloads
configs = json.loads(sys.argv[2])
for name in json.loads(sys.argv[3]):
    wl = workloads.WORKLOADS[name]
    configs[name] = [wl.overrides, wl.runs, wl.base_seed(int(sys.argv[4])), wl.jobs, wl.trace]
out = {}
with tempfile.TemporaryDirectory() as tmp:
    for name, (overrides, runs, base_seed, jobs, *trace) in configs.items():
        overrides = dict(overrides)
        if trace and trace[0]:
            path = os.path.join(tmp, name + "-trace.csv")
            workloads.write_trace(path, workloads.trace_values(
                int(sys.argv[4]), int(overrides.get("n_nodes", "100")),
                int(overrides["n_rounds"])))
            overrides["trace_path"] = path
        cfg = parse_config(None, overrides)
        out_dir = os.path.join(tmp, name)
        code = run_sweep(cfg, runs, base_seed, out_dir, jobs=jobs)
        digests = {"exit": str(code)}
        for d, _, files in os.walk(out_dir):
            for f in sorted(files):
                with open(os.path.join(d, f), "rb") as fh:
                    digests[os.path.relpath(os.path.join(d, f), out_dir)] = \
                        hashlib.sha256(fh.read()).hexdigest()
        out[name] = digests
print(json.dumps(out))
'''


def digests(checkout: str) -> Dict[str, Dict[str, str]]:
    """{config: {report: sha256}} of every sweep run from the checkout."""
    proc = subprocess.run(
        [sys.executable, "-c", _RUNNER, os.path.abspath(checkout),
         json.dumps({k: list(v) for k, v in CONFIGS.items()}), json.dumps(WORKLOADS),
         str(BENCHMARK_SEED)],
        capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"report_digests: the sweeps of {checkout} failed\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def lines(table: Dict[str, Dict[str, str]]) -> List[str]:
    return [f"{name}  {report}  {sha}" for name, reports in table.items()
            for report, sha in reports.items()]


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("checkout", nargs="?", help="source checkout to run")
    ap.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                    help="run both checkouts and compare their reports")
    args = ap.parse_args(argv)
    if args.compare is None:
        if args.checkout is None:
            ap.error("give a checkout or --compare PARENT CHANGE")
        print("\n".join(lines(digests(args.checkout))))
        return 0
    parent, change = (digests(c) for c in args.compare)
    differ = sorted(set(lines(parent)) ^ set(lines(change)))
    for line in differ:
        side = "parent" if line in lines(parent) else "change"
        print(f"{side}: {line}")
    total = len(lines(parent))
    print(f"{total} reports over {len(parent)} configs: "
          f"{'identical' if not differ else f'{len(differ)} lines differ'}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
