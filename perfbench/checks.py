"""Correctness checks on one sweep, computed apart from fdisim's own code.

Each check returns failures as ``(run index or None, message)``; None
means the failure belongs to the whole sweep. No check compares against a
stored copy of earlier output.
"""

from __future__ import annotations

import csv
import math
import os
from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from hooks import CLEARED, DETECTED, PENDING

Failure = Tuple[Optional[int], str]

NEAR_THRESHOLD = 1e-9
DETECTION_EVENTS = ("suspect_added", "suspect_cleared", "attacker_detected",
                    "alert_forwarded", "node_excluded")


def read_rows(path: str) -> Tuple[List[str], List[List[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _num(text: str) -> Optional[float]:
    return None if text == "na" else float(text)


def _close(got: Optional[float], want: Optional[float], tol: float = 1e-12) -> bool:
    if got is None or want is None:
        return got is None and want is None
    return abs(got - want) <= tol * max(1.0, abs(want))


def _ratio(num: int, den: int) -> Optional[float]:
    return num / den if den else None


def check_raw(raw: List[Dict[str, str]], n_nodes: int, attacker_fraction: float,
              seeds: Sequence[int]) -> List[Failure]:
    """Confusion-count identities and every rate recomputed from the counts."""
    out: List[Failure] = []
    if [int(r["seed"]) for r in raw] != list(seeds):
        return [(None, f"raw/metrics.csv seeds {[r['seed'] for r in raw]} != {list(seeds)}")]
    attackers = round(attacker_fraction * n_nodes)
    for k, r in enumerate(raw):
        tp, tn, fp, fn = (int(r[c]) for c in ("tp", "tn", "fp", "fn"))
        if tp + fn != attackers or int(r["attackers_inserted"]) != attackers:
            out.append((k, f"tp + fn = {tp + fn}, expected {attackers} attackers"))
        if tp + tn + fp + fn != n_nodes:
            out.append((k, f"tp + tn + fp + fn = {tp + tn + fp + fn} != {n_nodes}"))
        precision, recall = _ratio(tp, tp + fp), _ratio(tp, tp + fn)
        accuracy = _ratio(tp + tn, tp + tn + fp + fn)
        want = {
            "detection_rate": _ratio(tp, tp + fn),
            "accuracy": accuracy,
            "accuracy_x100": None if accuracy is None else accuracy * 100.0,
            "fpr": _ratio(fp, fp + tn),
            "fnr": _ratio(fn, fn + tp),
            "precision": precision,
            "recall": recall,
            "f1": (None if precision is None or recall is None
                   else _ratio(2 * tp, 2 * tp + fp + fn)),
        }
        for col, value in want.items():
            if not _close(_num(r[col]), value):
                out.append((k, f"{col} = {r[col]}, recomputed {value!r}"))
    return out


def check_summary(summary: Dict[str, str], raw: List[Dict[str, str]]) -> List[Failure]:
    """Cross-run means and 95% CI half-widths (1.96 s / sqrt k) from the raw rows."""
    out: List[Failure] = []
    columns = {"detection_rate": "dr", "accuracy": "acc", "fpr": "fpr", "fnr": "fnr",
               "precision": "precision", "recall": "recall", "f1": "f1",
               "clusters_total_mean": "clusters_total",
               "clusters_attacker_free_mean": "clusters_attacker_free"}
    for raw_col, prefix in columns.items():
        values = np.array([float(r[raw_col]) for r in raw if r[raw_col] != "na"])
        mean = float(values.mean()) if values.size else None
        if not _close(_num(summary[f"{prefix}_mean"]), mean, 1e-9):
            out.append((None, f"summary {prefix}_mean = {summary[prefix + '_mean']}, "
                              f"recomputed {mean!r}"))
        if f"{prefix}_ci" in summary:
            ci = (1.96 * float(values.std(ddof=1)) / math.sqrt(values.size)
                  if values.size >= 2 else None)
            if not _close(_num(summary[f"{prefix}_ci"]), ci, 1e-9):
                out.append((None, f"summary {prefix}_ci = {summary[prefix + '_ci']}, "
                                  f"recomputed {ci!r}"))
    return out


def check_timeseries(rows: List[List[str]], raw: List[Dict[str, str]],
                     n_rounds: int) -> List[Failure]:
    """runs x rounds rows; attacker-free clusters within the total; the
    blacklist count never falls and ends at tp + fp; the per-run cluster
    means in raw/metrics.csv follow from the series."""
    out: List[Failure] = []
    if len(rows) != len(raw) * n_rounds:
        return [(None, f"timeseries.csv has {len(rows)} rows, "
                       f"expected {len(raw)} x {n_rounds}")]
    for k, r in enumerate(raw):
        series = np.array(rows[k * n_rounds:(k + 1) * n_rounds], dtype=np.int64)
        if (series[:, 0] != k).any() or (series[:, 1] != np.arange(n_rounds)).any():
            out.append((k, "timeseries rows out of run/round order"))
            continue
        total, clean, blacklisted = series[:, 2], series[:, 3], series[:, 4]
        if (clean > total).any():
            out.append((k, "clusters_attacker_free exceeds clusters_total"))
        if (np.diff(blacklisted) < 0).any():
            out.append((k, "blacklisted_count falls within the run"))
        if blacklisted[-1] != int(r["tp"]) + int(r["fp"]):
            out.append((k, f"final blacklisted_count {blacklisted[-1]} != tp + fp"))
        for col, values in (("clusters_total_mean", total),
                            ("clusters_attacker_free_mean", clean)):
            if not _close(float(r[col]), float(values.mean()), 1e-9):
                out.append((k, f"{col} = {r[col]}, series mean {values.mean()!r}"))
    return out


def check_events(rows: List[List[str]], raw: List[Dict[str, str]], n_nodes: int,
                 n_rounds: int, detection: bool, attack_type: str) -> List[Failure]:
    """Detection runs: every conviction subject is blacklisted (distinct
    subjects = tp + fp) and each (node, subject) pair follows the suspect
    life cycle. Runs without detection carry no detection events and one
    dm_sent per node and round."""
    out: List[Failure] = []
    per_run: List[List[List[str]]] = [[] for _ in raw]
    for row in rows:
        per_run[int(row[0])].append(row)
    for k, (events, r) in enumerate(zip(per_run, raw)):
        tp_fp = int(r["tp"]) + int(r["fp"])
        if not detection:
            kinds = {e[2] for e in events}
            if kinds & set(DETECTION_EVENTS):
                out.append((k, f"detection events without detection: {sorted(kinds)}"))
            sent = sum(1 for e in events if e[2] == "dm_sent")
            if sent != n_nodes * n_rounds:
                out.append((k, f"{sent} dm_sent events, expected {n_nodes} x {n_rounds}"))
            continue
        subjects = {e[4] for e in events if e[2] == "attacker_detected"}
        if len(subjects) != tp_fp:
            out.append((k, f"{len(subjects)} distinct detected subjects != tp + fp = {tp_fp}"))
        if attack_type == "fdi" and int(r["tp"]) < 1:
            out.append((k, "no attacker detected"))
        out.extend((k, msg) for msg in _lifecycle_errors(events))
    return out


def _lifecycle_errors(events: List[List[str]]) -> List[str]:
    """suspect_cleared and attacker_detected close an open suspect_added;
    after a node convicts a subject, nothing more about that subject comes
    from the node, save forwarding its own alert in the same round."""
    open_pairs = set()
    convicted: Dict[Tuple[str, str], str] = {}
    errors: List[str] = []
    for _, rnd, kind, node, subject, _value in events:
        pair = (node, subject)
        if pair in convicted:
            if not (kind == "alert_forwarded" and rnd == convicted[pair]):
                errors.append(f"round {rnd}: {kind} for {pair} after its conviction")
        elif kind == "suspect_added":
            if pair in open_pairs:
                errors.append(f"round {rnd}: {pair} added while already suspected")
            open_pairs.add(pair)
        elif kind in ("suspect_cleared", "attacker_detected"):
            if pair not in open_pairs:
                errors.append(f"round {rnd}: {kind} for {pair} with no open suspect")
            open_pairs.discard(pair)
            if kind == "attacker_detected":
                convicted[pair] = rnd
        if len(errors) >= 5:
            break
    return errors


def check_reports(out_dir: str, n_nodes: int, n_rounds: int, attacker_fraction: float,
                  detection: bool, attack_type: str, seeds: Sequence[int]) -> List[Failure]:
    """Every check on the CSV reports of one sweep."""
    header, rows = read_rows(os.path.join(out_dir, "raw", "metrics.csv"))
    raw = [dict(zip(header, row)) for row in rows]
    out = check_raw(raw, n_nodes, attacker_fraction, seeds)
    if out:
        return out
    header, rows = read_rows(os.path.join(out_dir, "summary.csv"))
    out += check_summary(dict(zip(header, rows[0])), raw)
    out += check_timeseries(read_rows(os.path.join(out_dir, "timeseries.csv"))[1],
                            raw, n_rounds)
    out += check_events(read_rows(os.path.join(out_dir, "events.csv"))[1],
                        raw, n_nodes, n_rounds, detection, attack_type)
    return out


def check_clusters(samples) -> List[str]:
    """Clusters are the connected components (size >= 2) of the mutual-
    similarity graph over non-excluded nodes; leaders are the members with
    the most similar neighbours inside their own cluster."""
    errors: List[str] = []
    for rnd, similar, excluded, snapshot in samples:
        live = [u for u in similar if u not in excluded]
        seen = set()
        want = {}
        for start in live:
            if start in seen:
                continue
            seen.add(start)
            component, queue = [start], deque([start])
            while queue:
                u = queue.popleft()
                for v in similar[u]:
                    if v not in seen and v in similar and v not in excluded \
                            and u in similar[v]:
                        seen.add(v)
                        component.append(v)
                        queue.append(v)
            if len(component) >= 2:
                members = frozenset(component)
                counts = {m: len(similar[m] & members) for m in members}
                top = max(counts.values())
                want[tuple(sorted(members))] = tuple(sorted(m for m, c in counts.items()
                                                           if c == top))
        got = dict(zip(snapshot.clusters, snapshot.leaders))
        if snapshot.round != rnd or got != want:
            errors.append(f"round {rnd}: {len(got)} clusters extracted, "
                          f"{len(want)} recomputed, or leaders differ")
    return errors


def check_verdicts(scope) -> Tuple[int, List[str]]:
    """Recompute the population SD (ddof=0) of every consensus region seen,
    with and without the suspect's reading, and check each verdict against
    the threshold. Values within 1e-9 of it are skipped."""
    sizes = np.asarray(scope.region_sizes, dtype=np.int64)
    if sizes.size == 0:
        return 0, []
    values = np.asarray(scope.region_values)
    readings = np.asarray(scope.suspect_readings)
    verdicts = np.asarray(scope.verdicts, dtype=np.int64)
    threshold = scope.threshold
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    checked = 0
    errors: List[str] = []
    for size in np.unique(sizes):
        idx = np.flatnonzero(sizes == size)
        region = values[starts[idx, None] + np.arange(size)]
        base = region.std(axis=1, ddof=0)
        combined = np.column_stack([region, readings[idx]]).std(axis=1, ddof=0)
        valid = (size >= 2) & (base <= threshold)
        want = np.where(~valid, PENDING, np.where(combined > threshold, DETECTED, CLEARED))
        near = (np.abs(base - threshold) < NEAR_THRESHOLD) | \
               (valid & (np.abs(combined - threshold) < NEAR_THRESHOLD))
        wrong = (want != verdicts[idx]) & ~near
        checked += int((~near).sum())
        if wrong.any():
            errors.append(f"{int(wrong.sum())} of {idx.size} verdicts on regions of "
                          f"{size} readings disagree with the recomputed SD")
    return checked, errors


def degree_sum(positions, tx_radius_m: float) -> int:
    """Ordered in-range pairs, from numpy pairwise squared distances."""
    xy = np.asarray(positions, dtype=np.float64)
    dx = xy[:, 0, None] - xy[None, :, 0]
    dy = xy[:, 1, None] - xy[None, :, 1]
    in_range = dx * dx + dy * dy <= tx_radius_m * tx_radius_m
    return int(in_range.sum()) - len(xy)


def compare_serial(pooled_dir: str, serial_dir: str, run_idx: int) -> List[str]:
    """The pooled sweep's rows for one run equal a serial sweep of that seed
    byte for byte, apart from the leading run index."""
    errors: List[str] = []
    for name in (os.path.join("raw", "metrics.csv"), "timeseries.csv", "events.csv"):
        with open(os.path.join(pooled_dir, name), encoding="utf-8") as fh:
            pooled = [ln.split(",", 1)[1] for ln in fh.read().splitlines()[1:]
                      if ln.split(",", 1)[0] == str(run_idx)]
        with open(os.path.join(serial_dir, name), encoding="utf-8") as fh:
            serial = [ln.split(",", 1)[1] for ln in fh.read().splitlines()[1:]]
        if pooled != serial:
            errors.append(f"{name}: pooled rows of run {run_idx} differ from a serial run")
    return errors
