"""Run the benchmark on two source checkouts in alternating pairs and write
a ``BENCH_*.json`` comparing them.

Usage (from anywhere; each checkout must hold ``perfbench/run.py``):

    python3 tools/bench_pairs.py --parent PARENT_DIR --change CHANGE_DIR \\
        --seeds 3 4 5 6 7 --out BENCH_name.json --name name --change-text "..."

For every workload in the change's ``BENCHMARK.json`` and each benchmark
seed, the two sides run ``perfbench/run.py --workload W --seed S --seconds T
--trace 0`` one after the other, each in its own checkout, with T the
file's ``run_seconds``; the parent runs first on even pairs and the change
on odd ones. A run's value for a metric is the benchmark's own median over
its sweeps. Per side, the file gives the median and the quartiles
(inclusive method) of those values, the exit status of every run, and per
metric the number of pairs in which the change was better. Beside the
relative change of the medians it gives the median of the per-pair
change/parent ratios, which drift that moves both runs of a pair alike
leaves alone. Per side it also gives the median, over runs, of the minor
page faults, user seconds and system seconds each run's process tree
(interpreter start, pool workers and the benchmark's checks included)
took per simulation run, read with ``getrusage(RUSAGE_CHILDREN)``; they
show allocator noise that ``wall_s`` alone hides. A run that exits
non-zero or prints no result stops the tool with an error.
``--traced-seed`` adds one ``--trace 1`` run per side and workload. The
file is rewritten after every pair, so an interrupted session keeps what
it measured.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from typing import Dict, List, Optional


# per-run resource use: the name in the BENCH file -> the getrusage field
RUSAGE_FIELDS = {"minor_faults": "ru_minflt", "user_s": "ru_utime", "system_s": "ru_stime"}


def run_bench(checkout: str, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One benchmark run; its last stdout line is the result object. Exits
    with an error naming the run if it failed or printed no result."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if proc.returncode != 0 or not isinstance(result, dict):
        sys.exit(f"bench_pairs: {' '.join(cmd[1:])} in {checkout} exited "
                 f"{proc.returncode}\n{proc.stderr[-2000:]}")
    result["exit"] = proc.returncode
    result["rusage"] = {name: getattr(after, field) - getattr(before, field)
                        for name, field in RUSAGE_FIELDS.items()}
    return result


def _sig(x: float) -> float:
    return float(f"{x:.6g}")


def side_stats(values: List[float]) -> Dict[str, float]:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"median": _sig(statistics.median(values)), "q1": _sig(q1), "q3": _sig(q3),
            "iqr": _sig(q3 - q1)}


def per_simulation_run(runs: List[dict]) -> Dict[str, float]:
    """Median over runs of each run's resource use divided by its
    simulation runs attempted."""
    return {name: _sig(statistics.median(r["rusage"][name] / r["attempted"] for r in runs))
            for name in RUSAGE_FIELDS}


def compare(parent: List[float], change: List[float], better: str) -> dict:
    """Medians, quartiles and pair wins of one metric on one workload."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    ties = sum(c == p for p, c in zip(parent, change))
    p_med = statistics.median(parent)
    ratios = [c / p for p, c in zip(parent, change) if p]
    return {
        "parent": side_stats(parent),
        "change": side_stats(change),
        "relative_change": round((statistics.median(change) - p_med) / p_med, 4) if p_med else None,
        "median_pair_ratio": round(statistics.median(ratios), 4) if ratios else None,
        "change_better_in_pairs": wins,
        "ties": ties,
        "parent_runs": [_sig(v) for v in parent],
        "change_runs": [_sig(v) for v in change],
    }


def machine() -> str:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), "")
    except OSError:
        pass
    import numpy
    return (f"{os.cpu_count()}-core {platform.system()}, {model or platform.machine()}, "
            f"Python {platform.python_version()}, numpy {numpy.__version__}")


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, help="checkout of the change")
    ap.add_argument("--seeds", type=int, nargs="+", required=True,
                    help="benchmark seeds, one pair each")
    ap.add_argument("--traced-seed", type=int, help="also run --trace 1 once per side")
    ap.add_argument("--out", required=True, help="BENCH_*.json to write")
    ap.add_argument("--name", required=True)
    ap.add_argument("--change-text", required=True, help="what the change does")
    ap.add_argument("--outputs", default="", help="how the outputs were compared")
    args = ap.parse_args(argv)

    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    sides = {"parent": args.parent, "change": args.change}
    doc = {
        "name": args.name,
        "change": args.change_text,
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds} --trace 0",
        "method": (f"{len(args.seeds)} pairs per workload, benchmark seeds "
                   f"{', '.join(map(str, args.seeds))}, parent and change run alternately "
                   "(parent first on even pairs, change first on odd pairs), each side from "
                   "its own checkout; each run value is the benchmark's own median over the "
                   f"whole sweeps that fit in {seconds} s. Medians and quartiles (inclusive "
                   "method) are over the run values per side."),
        "machine": machine(),
        "outputs": args.outputs,
        "workloads": {},
    }

    def write() -> None:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")

    for w in workloads:
        runs: Dict[str, List[dict]] = {"parent": [], "change": []}
        for k, seed in enumerate(args.seeds):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for side in order:
                res = run_bench(sides[side], w, seed, seconds, 0)
                runs[side].append(res)
                print(f"{w} seed {seed} {side}: exit {res['exit']}, "
                      f"wall_s {res['metrics'].get('wall_s', {}).get('value')}",
                      file=sys.stderr)
            entry = {
                "pairs": k + 1,
                "seeds": args.seeds[:k + 1],
                "exits": {s: [r["exit"] for r in runs[s]] for s in sides},
                "simulation_runs_attempted": {s: sum(r["attempted"] for r in runs[s])
                                              for s in sides},
                "simulation_runs_failed": {s: sum(r["failed"] for r in runs[s])
                                           for s in sides},
                "per_simulation_run": {s: per_simulation_run(runs[s]) for s in sides},
                "metrics": {},
            }
            for m in bench["end_to_end"]:
                vals = {s: [r["metrics"][m["name"]]["value"] for r in runs[s]] for s in sides}
                entry["metrics"][m["name"]] = {"unit": m["unit"], "better": m["better"],
                                               **compare(vals["parent"], vals["change"],
                                                         m["better"])}
            doc["workloads"][w] = entry
            write()

    if args.traced_seed is not None:
        doc["traced"] = {"note": (f"python3 perfbench/run.py --workload W --seed "
                                  f"{args.traced_seed} --seconds {seconds} --trace 1, one run "
                                  "per side; per-layer totals over the traced sweep")}
        for w in workloads:
            doc["traced"][w] = {"seed": args.traced_seed}
            for side in sides:
                res = run_bench(sides[side], w, args.traced_seed, seconds, 1)
                doc["traced"][w][side] = {
                    "exit": res["exit"], "correct": res["correct"], "failed": res["failed"],
                    "metrics": {k: v["value"] for k, v in res["metrics"].items()}}
                write()
    write()
    return 0


if __name__ == "__main__":
    sys.exit(main())
