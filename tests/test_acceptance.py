"""Acceptance gate for the simulator.

Each test prints one pass/fail line for its criterion; the trend criteria
run full 35-seed sweeps through the same code path the CLI uses.
"""

import csv
import math
import os
import random
import time

import pytest

from fdisim.attacks import AttackConfig, churn_is_false_phase
from fdisim.clustering import NeighborRecord
from fdisim.detection import DETECTED
from fdisim.domain import NodeLabel, transition_label
from fdisim.engine import (EVENT_ATTACKER_DETECTED, EVENT_DM_SENT, EVENT_NODE_EXCLUDED,
                           EVENT_SUSPECT_ADDED, ScenarioConfig, run_scenario)
from fdisim.metrics import ConfusionCounts, build_report
from fdisim.cli import run_sweep

from conftest import (GOLDEN_BAD_NODE, GOLDEN_DETECTOR, consensus_batch, region_spreads,
                      similar_table)

SWEEP_RUNS = 35
JOBS = max(1, os.cpu_count() or 1)


def _verdict(name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" :: {detail}"
    print(line)
    assert ok, line


def _summary(out_dir) -> dict:
    with open(os.path.join(out_dir, "summary.csv"), newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    return rows[0]


def _sweep(tmp_path, name: str, cfg: ScenarioConfig) -> dict:
    out = tmp_path / name
    code = run_sweep(cfg, runs=SWEEP_RUNS, base_seed=1, out_dir=str(out), jobs=JOBS)
    assert code == 0
    return _summary(out)


def test_criterion_1_golden_aggregation_arithmetic():
    """Weighted-mean aggregation reproduces the worked clustering values."""

    def nbrs(*ars):
        return [NeighborRecord(a, a, 1, 0) for a in ars]

    cases = [
        (15, nbrs(16), 15.5),
        (16, nbrs(15, 18), 49 / 3),
        (18, nbrs(16, 16, 16, 17), (18 + 16 + 16 + 16 + 17) / 5),
        (17, nbrs(16, 18), 51 / 3),
        (16, nbrs(17, 18), 51 / 3),
        (20, nbrs(22, 21, 23), 86 / 4),
        (22, nbrs(20, 23), 65 / 3),
        (23, nbrs(22, 20), 65 / 3),
        (21, nbrs(24, 20), 65 / 3),
        (24, nbrs(21), 45 / 2),
    ]
    start = time.perf_counter()
    worst = max(abs(similar_table(neighbors).aggregate(own) - expected)
                for own, neighbors, expected in cases)
    elapsed = time.perf_counter() - start
    _verdict("criterion 1: golden aggregation arithmetic", worst < 1e-9,
             f"max deviation {worst:.2e}, {elapsed * 1000:.2f} ms")


def test_criterion_2_golden_detection_scenario(golden_scenario):
    """Six-node corrupted-reading world: suspect, convict, alert, exclude."""
    start = time.perf_counter()
    result = run_scenario(golden_scenario)
    elapsed = time.perf_counter() - start
    bad = GOLDEN_BAD_NODE

    checks = []
    suspect_rounds = [e[0] for e in result.events
                      if e[1] == EVENT_SUSPECT_ADDED and e[3] == bad]
    checks.append(("suspect at first round", min(suspect_rounds) == 0))
    detect_rounds = [e[0] for e in result.events
                     if e[1] == EVENT_ATTACKER_DETECTED and e[3] == bad]
    checks.append(("convicted at second round", min(detect_rounds) == 1))

    rec = next(d for d in result.detections
               if d.detector == GOLDEN_DETECTOR and d.attacker == bad)
    checks.append(("region spread sqrt(2)", abs(rec.region_sd - math.sqrt(2)) < 1e-6))
    checks.append(("combined spread 10.8845",
                   abs(rec.combined_sd - 10.884494578170465) < 1e-6))

    leaders_r2 = result.snapshots[2].all_leaders()
    checks.append(("alert at every leader by third round",
                   bool(leaders_r2) and all(
                       bad in result.node_blacklists[ld]
                       and result.node_blacklists[ld][bad].detected_round <= 2
                       for ld in leaders_r2)))
    checks.append(("never clustered afterwards",
                   all(bad not in members for snap in result.snapshots
                       for members in snap.clusters)))
    checks.append(("silenced",
                   any(e[1] == EVENT_NODE_EXCLUDED and e[2] == bad for e in result.events)
                   and max(e[0] for e in result.events
                           if e[1] == EVENT_DM_SENT and e[2] == bad) == 1))

    failed = [name for name, ok in checks if not ok]
    _verdict("criterion 2: golden detection scenario", not failed,
             f"{len(checks)} checks, {elapsed * 1000:.1f} ms"
             + (f", failed: {failed}" if failed else ""))


def test_criterion_3_fdi_grid_trend(tmp_path):
    """100 nodes, 10% plain injectors, defaults, 35 seeds."""
    start = time.perf_counter()
    row = _sweep(tmp_path, "fdi", ScenarioConfig())
    elapsed = time.perf_counter() - start
    dr, fp, fn = float(row["dr_mean"]), float(row["fpr_mean"]), float(row["fnr_mean"])
    acc, f1 = float(row["acc_mean"]), float(row["f1_mean"])
    ok = dr >= 0.95 and fp <= 0.05 and fn <= 0.05 and acc >= 0.90 and f1 >= 0.80
    _verdict("criterion 3: fdi grid trend", ok,
             f"DR={dr:.3f} FPR={fp:.3f} FNR={fn:.3f} ACC={acc:.3f} F1={f1:.3f}, "
             f"{elapsed:.1f}s for {SWEEP_RUNS} runs ({elapsed / SWEEP_RUNS:.1f}s/run)")


@pytest.mark.parametrize("attack", ["churn", "sensitive"])
def test_criterion_4_attack_variants_trend(tmp_path, attack):
    """100 nodes, 10% churn/sensitive attackers, 35 seeds each."""
    cfg = ScenarioConfig()
    cfg.attack.attack_type = attack
    start = time.perf_counter()
    row = _sweep(tmp_path, attack, cfg)
    elapsed = time.perf_counter() - start
    dr, fp, fn = float(row["dr_mean"]), float(row["fpr_mean"]), float(row["fnr_mean"])
    f1 = float(row["f1_mean"])
    ok = dr >= 0.95 and fp <= 0.03 and fn <= 0.03 and f1 >= 0.85
    _verdict(f"criterion 4: {attack} trend", ok,
             f"DR={dr:.3f} FPR={fp:.3f} FNR={fn:.3f} F1={f1:.3f}, {elapsed:.1f}s")


def test_criterion_5_baseline_comparison(tmp_path):
    """20% injectors: filtering on vs off, attacker-free cluster availability."""
    cfg_on = ScenarioConfig(attacker_fraction=0.2)
    cfg_off = ScenarioConfig(attacker_fraction=0.2)
    cfg_off.detection.detection_enabled = False
    start = time.perf_counter()
    row_on = _sweep(tmp_path, "det_on", cfg_on)
    row_off = _sweep(tmp_path, "det_off", cfg_off)
    elapsed = time.perf_counter() - start
    free_on = float(row_on["clusters_attacker_free_mean"])
    free_off = float(row_off["clusters_attacker_free_mean"])
    ok = free_on >= 1.25 * free_off
    _verdict("criterion 5: baseline comparison", ok,
             f"attacker-free clusters {free_on:.3f} vs {free_off:.3f} "
             f"(ratio {free_on / free_off:.2f} >= 1.25), {elapsed:.1f}s")


def test_criterion_6_property_suites():
    """Randomized identities, 1000 cases per suite."""
    failures = []

    def suite(name, fn):
        try:
            fn()
        except AssertionError as exc:
            failures.append(f"{name}: {exc}")

    def sd_identities():
        rng = random.Random(61)
        cases = []
        for _ in range(1000):
            values = [rng.uniform(-50, 50) for _ in range(rng.randint(1, 12))]
            cases.append((values, rng.uniform(-100, 100), rng.uniform(-4, 4)))
        sds = region_spreads([region for values, shift, k in cases
                              for region in (values, [values[0]] * len(values),
                                             [v + shift for v in values],
                                             [v * k for v in values])])
        for (values, shift, k), (sd, constant, shifted, scaled) in zip(cases,
                                                                      sds.reshape(-1, 4)):
            assert sd >= 0.0
            assert constant <= 1e-9 * max(1.0, abs(values[0]))
            if sd == 0.0:
                assert len(set(values)) == 1
            assert abs(shifted - sd) <= 1e-9 * max(1.0, sd)
            assert abs(scaled - abs(k) * sd) <= 1e-9 * max(1.0, abs(k) * sd)

    def combined_variance():
        rng = random.Random(62)
        cases = []
        for _ in range(1000):
            n = rng.randint(1, 25)
            cases.append(([rng.uniform(-100, 100) for _ in range(n)], rng.uniform(-250, 250)))
        sds = region_spreads([region for values, s in cases
                              for region in (values, values + [s])])
        for (values, s), (sd, appended) in zip(cases, sds.reshape(-1, 2)):
            n = len(values)
            mean = sum(values) / n
            var = sd ** 2
            predicted = (n / (n + 1)) * var + (n / (n + 1) ** 2) * (s - mean) ** 2
            direct = appended ** 2
            assert abs(predicted - direct) <= 1e-9 * max(1.0, abs(direct)), \
                f"{predicted} vs {direct}"

    def classify_monotone():
        rng = random.Random(63)
        regions = []
        for _ in range(1000):
            center = rng.uniform(-20, 20)
            values = [center + rng.uniform(-2, 2) for _ in range(rng.randint(2, 9))]
            mean = sum(values) / len(values)
            d1 = rng.uniform(0, 40)
            d2 = d1 + rng.uniform(0, 40)
            sign = rng.choice((-1.0, 1.0))
            regions += [(values, mean + sign * d1), (values, mean + sign * d2)]
        verdict, _, combined = consensus_batch(regions, 5.0)
        for (near, far), (near_sd, far_sd) in zip(verdict.reshape(-1, 2),
                                                  combined.reshape(-1, 2)):
            assert far_sd >= near_sd - 1e-12
            if near == DETECTED:
                assert far == DETECTED

    def aggregate_bounds():
        rng = random.Random(64)
        for _ in range(1000):
            own = rng.uniform(-100, 100)
            neighbors = [NeighborRecord(rng.uniform(-100, 100), rng.uniform(-100, 100),
                                        rng.randint(0, 6), 0)
                         for _ in range(rng.randint(0, 8))]
            values = [own] + [nb.aggregate_reading for nb in neighbors]
            out = similar_table(neighbors).aggregate(own)
            assert min(values) - 1e-9 <= out <= max(values) + 1e-9

    def churn_periodicity():
        rng = random.Random(65)
        for _ in range(1000):
            h, f = rng.randint(1, 12), rng.randint(1, 12)
            cfg = AttackConfig(attack_type="churn", churn_honest_rounds=h,
                               churn_false_rounds=f)
            period = h + f
            offset = rng.randint(0, 4 * period)
            window = [churn_is_false_phase(r, cfg) for r in range(offset, offset + period)]
            assert sum(window) == f
            assert churn_is_false_phase(offset, cfg) == churn_is_false_phase(
                offset + period, cfg)

    def label_relation():
        legal = {(NodeLabel.HONEST, NodeLabel.SUSPICIOUS),
                 (NodeLabel.SUSPICIOUS, NodeLabel.HONEST),
                 (NodeLabel.SUSPICIOUS, NodeLabel.ATTACKER)}
        rng = random.Random(66)
        current = NodeLabel.HONEST
        for _ in range(1000):
            target = rng.choice(list(NodeLabel))
            allowed = target is current or (current, target) in legal
            try:
                current = transition_label(current, target)
                assert allowed and current is target
            except ValueError:
                assert not allowed

    def metric_identities():
        rng = random.Random(67)
        for _ in range(1000):
            c = ConfusionCounts(tp=rng.randint(0, 40), tn=rng.randint(0, 200),
                                fp=rng.randint(0, 40), fn=rng.randint(0, 40),
                                attackers_inserted=0, total_interactions=0)
            c.attackers_inserted = c.tp + c.fn
            rp = build_report(c, [(0, 0, 0)])
            dr, miss = rp.detection_rate, rp.fnr
            if dr is not None:
                assert abs(dr + miss - 1.0) < 1e-12
            p, r, f1 = rp.precision, rp.recall, rp.f1
            if f1 is not None:
                assert min(p, r) - 1e-12 <= f1 <= max(p, r) + 1e-12

    suite("region-sd identities", sd_identities)
    suite("combined-variance closed form", combined_variance)
    suite("classification monotone in deviation", classify_monotone)
    suite("aggregation bounds", aggregate_bounds)
    suite("churn periodicity", churn_periodicity)
    suite("label transition relation", label_relation)
    suite("metric identities", metric_identities)
    _verdict("criterion 6: property suites", not failures,
             "7 suites x 1000 cases" + (f", failed: {failures}" if failures else ""))


def test_criterion_7_output_determinism(tmp_path):
    """Two identical invocations produce byte-identical CSV reports."""
    cfg = ScenarioConfig(n_nodes=30, n_rounds=200, attacker_fraction=0.1, seed=7)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_sweep(cfg, runs=2, base_seed=7, out_dir=str(out1), jobs=1) == 0
    assert run_sweep(cfg, runs=2, base_seed=7, out_dir=str(out2), jobs=JOBS) == 0
    same = all((out1 / name).read_bytes() == (out2 / name).read_bytes()
               for name in ("summary.csv", "timeseries.csv", "events.csv"))
    _verdict("criterion 7: output determinism", same,
             "summary, timeseries and events byte-identical across invocations")
