"""fdisim benchmark: one workload, timed sweeps, checked outputs, one JSON line.

Usage, from the repository root:

    python3 perfbench/run.py --workload sweep-fdi --seed 1 --seconds 42 --trace 0

With ``--trace 0`` it runs as many whole sweeps of the workload as fit in
``--seconds``, each in a fresh process, and reports the end-to-end metrics
as medians over the sweeps. With ``--trace 1`` it runs the sweep
once untraced and once traced and reports the per-layer metrics and the
tracing overhead. The last line of stdout is the result; the exit code is
0 only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "work"
SWEEP_TIMEOUT_S = 60


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def run_sweep_process(spec: dict) -> dict:
    """Run one sweep in a fresh interpreter and return its result line.

    The sweep gets a process group of its own, so that on a timeout its
    pool workers are killed with it."""
    with subprocess.Popen([sys.executable, str(HERE / "sweep.py"), json.dumps(spec)],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            stdout, _ = proc.communicate(timeout=SWEEP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"sweep process exited {proc.returncode} without a result")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "fdisim").is_dir():
        print(f"no fdisim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    work = WORK / f"{wl.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        base_spec = {"workload": wl.name, "seed": args.seed, "src": str(ROOT / "src")}
        if wl.trace:
            trace_csv = work / "trace.csv"
            workloads.write_trace(str(trace_csv),
                                  workloads.trace_values(args.seed, wl.n_nodes, wl.n_rounds))
            base_spec["trace_csv"] = str(trace_csv)

        def sweep(i: int, traced: bool) -> dict:
            """Sweep i; the first and the traced one run every check, the
            others must reproduce the first one's reports byte for byte."""
            out = work / f"sweep{i}"
            result = run_sweep_process(dict(base_spec, out_dir=str(out), trace=traced,
                                            full_checks=i == 0 or traced))
            shutil.rmtree(out, ignore_errors=True)
            if i > 0 and result["digests"] != results[0]["digests"]:
                print(f"{wl.name} sweep {i}: reports differ from sweep 0", file=sys.stderr)
                result["failed"] = result["attempted"]
            print(f"{wl.name} sweep {i}{' (traced)' if traced else ''}: "
                  f"{result['wall_s']:.3f} s, {result['failed']} of "
                  f"{result['attempted']} runs failed", file=sys.stderr)
            return result

        results = []
        if args.trace:
            results.append(sweep(0, False))
            results.append(sweep(1, True))
        else:
            # whole sweeps only; stop before one would overrun --seconds
            start = last = time.perf_counter()
            while True:
                results.append(sweep(len(results), False))
                now = time.perf_counter()
                if now - start + (now - last) > args.seconds:
                    break
                last = now
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if args.trace:
        untraced, traced = results
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in traced["layers"].items()}
        metrics["trace.wall_s"] = {"value": traced["wall_s"], "unit": "s"}
        metrics["trace.overhead_pct"] = {
            "value": 100.0 * (traced["wall_s"] - untraced["wall_s"]) / untraced["wall_s"],
            "unit": "%"}
    else:
        def med(values):
            values = list(values)
            return statistics.median(values) if values else 0.0

        metrics = {
            "wall_s": {"value": med(r["wall_s"] for r in results), "unit": "s"},
            "interactions_per_s": {"value": med(r["interactions"] / r["wall_s"]
                                                for r in results), "unit": "1/s"},
            "setup_s": {"value": med(s for r in results for s in r["setup_s"]), "unit": "s"},
            "peak_rss_mb": {"value": med(r["peak_rss_mb"] for r in results), "unit": "MB"},
            "report_mb": {"value": med(r["report_mb"] for r in results), "unit": "MB"},
        }
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
