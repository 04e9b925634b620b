"""World mechanics: placement, adjacency, round flow, alerts, determinism."""

import copy
import dataclasses
import math
import random

import numpy as np
import pytest

import fdisim.engine as engine
from fdisim.attacks import AttackConfig
from fdisim.engine import (ConfigError, EVENT_ALERT_FORWARDED, EVENT_ATTACKER_DETECTED,
                           EVENT_DM_DISCARDED, EVENT_DM_SENT, EVENT_NODE_EXCLUDED,
                           EVENT_SUSPECT_ADDED, EVENT_SUSPECT_CLEARED, ScenarioConfig,
                           compute_adjacency, place_nodes, run_scenario)
from fdisim.sensing import FieldConfig

from conftest import (GOLDEN_BAD_NODE, GOLDEN_DETECTOR, golden_config, run_recorded,
                      slot_records, write_golden_trace)


def small_cfg(**kw):
    base = dict(n_nodes=30, n_rounds=60, seed=4)
    base.update(kw)
    return ScenarioConfig(**base)


def test_place_nodes_in_bounds_and_deterministic():
    cfg = ScenarioConfig(n_nodes=120, area_width_m=200.0, area_height_m=200.0)
    p1 = place_nodes(cfg, random.Random("s/place"))
    p2 = place_nodes(cfg, random.Random("s/place"))
    assert p1 == p2
    assert len(p1) == 120
    assert all(0.0 <= x <= 200.0 and 0.0 <= y <= 200.0 for x, y in p1)


def test_adjacency_inclusive_boundary():
    positions = [(0.0, 0.0), (99.0, 0.0), (0.0, 101.0), (100.0, 0.0)]
    adj = compute_adjacency(positions, 100.0)
    assert 1 in adj[0]          # 99 m apart: connected
    assert 2 not in adj[0]      # 101 m apart: not connected
    assert 3 in adj[0]          # exactly 100 m: connected (inclusive)
    assert 0 not in adj[0]      # no self edges
    for i, neigh in enumerate(adj):
        for j in neigh:
            assert i in adj[j]  # symmetric


def test_zero_attackers_zero_noise_full_cluster():
    """With no attackers and a flat field, every round's snapshot is exactly
    the connected components of the radio graph."""
    cfg = small_cfg(attacker_fraction=0.0, n_rounds=15)
    cfg.sensing.noise_sigma = 0.0
    cfg.sensing.spatial_gradient = 0.0
    result = run_scenario(cfg)
    positions = place_nodes(cfg, random.Random(f"{cfg.seed}/place"))
    adj = compute_adjacency(positions, cfg.tx_radius_m)

    def components():
        seen, comps = set(), []
        for start in range(cfg.n_nodes):
            if start in seen:
                continue
            comp, frontier = {start}, [start]
            while frontier:
                u = frontier.pop()
                for v in adj[u]:
                    if v not in comp:
                        comp.add(v)
                        frontier.append(v)
            seen |= comp
            comps.append(tuple(sorted(comp)))
        return sorted((c for c in comps if len(c) >= 2), key=min)

    expected = components()
    for snap in result.snapshots:
        assert snap.clusters == expected


def test_run_scenario_deterministic():
    r1 = run_scenario(small_cfg())
    r2 = run_scenario(small_cfg())
    assert r1.events == r2.events
    assert r1.snapshots == r2.snapshots
    assert r1.detections == r2.detections
    assert r1.availability == r2.availability


def test_snapshot_count_matches_rounds():
    result = run_scenario(small_cfg(n_rounds=23))
    assert len(result.snapshots) == 23
    assert [s.round for s in result.snapshots] == list(range(23))


def test_message_conservation_per_round():
    result = run_scenario(small_cfg(attacker_fraction=0.0, n_rounds=20))
    for rnd in range(20):
        sent = [e for e in result.events if e[0] == rnd and e[1] == EVENT_DM_SENT]
        assert len(sent) == 30  # nobody excluded, nobody crashed


def test_rounds_validation():
    with pytest.raises(ConfigError, match="n_rounds must be >= 1"):
        run_scenario(small_cfg(n_rounds=0))
    with pytest.raises(ConfigError, match="attacker_fraction"):
        run_scenario(small_cfg(attacker_fraction=1.5))


def test_detection_disabled_baseline_has_no_state():
    cfg = small_cfg(attacker_fraction=0.2)
    cfg.detection.detection_enabled = False
    result = run_scenario(cfg)
    kinds = {e[1] for e in result.events}
    assert EVENT_SUSPECT_ADDED not in kinds
    assert EVENT_ATTACKER_DETECTED not in kinds
    assert EVENT_NODE_EXCLUDED not in kinds  # nobody is ever excluded
    assert all(not bl for bl in result.node_blacklists)
    assert result.confusion.tp == 0 and result.confusion.fp == 0
    # attackers still degrade availability while undetected
    assert result.report.clusters_attacker_free_mean <= result.report.clusters_total_mean


def test_attackers_all_blacklisted_and_labelled():
    cfg = small_cfg(attacker_fraction=0.2, n_rounds=80, seed=6)
    result = run_scenario(cfg)
    assert result.confusion.tp == result.ground_truth.attackers_inserted
    assert result.confusion.fp == 0
    union = set()
    for bl in result.node_blacklists:
        union |= set(bl)
    assert union == set(result.ground_truth.attackers)


def test_blacklist_monotone_over_run():
    result = run_scenario(small_cfg(attacker_fraction=0.2, n_rounds=60))
    counts = result.blacklisted_counts
    assert all(a <= b for a, b in zip(counts, counts[1:]))


def test_honest_nodes_emit_true_readings():
    cfg = small_cfg(attacker_fraction=0.2, n_rounds=10)
    cfg.sensing.noise_sigma = 0.0
    cfg.sensing.spatial_gradient = 0.0
    cfg.sensing.base_value = 16.0
    result = run_scenario(cfg)
    attackers = result.ground_truth.attackers
    for rnd, kind, node, _, value in result.events:
        if kind != EVENT_DM_SENT:
            continue
        if node not in attackers:
            assert value == 16.0       # never passed through forging
        else:
            assert abs(value - 16.0) >= cfg.attack.fdi_offset_min


def test_crash_failures_prune_from_clusters():
    cfg = small_cfg(attacker_fraction=0.0, n_rounds=30, crash_fraction=0.2, crash_round=10)
    cfg.sensing.noise_sigma = 0.0
    result = run_scenario(cfg)
    sent_by_round = {}
    for e in result.events:
        if e[1] == EVENT_DM_SENT:
            sent_by_round.setdefault(e[0], set()).add(e[2])
    crashed = sent_by_round[0] - sent_by_round[29]
    assert len(crashed) == round(0.2 * 30)
    assert sent_by_round[9] == sent_by_round[0]   # alive until the crash round
    for snap in result.snapshots:
        members = {m for c in snap.clusters for m in c}
        if snap.round < 10:
            assert crashed <= members        # participating before the crash
        else:
            assert not members & crashed     # dead nodes are not available
    # the survivors' tables let go of the dead within the TTL window
    survivors = tuple(sorted(set(range(30)) - crashed))
    ttl = cfg.cluster.neighbor_ttl_rounds
    for snap in result.snapshots:
        if snap.round >= 10 + ttl + 1:
            assert snap.clusters == [survivors]


def test_golden_scenario_detection_sequence(golden_scenario):
    result = run_scenario(golden_scenario)
    bad = GOLDEN_BAD_NODE

    suspect_rounds = [e[0] for e in result.events
                      if e[1] == EVENT_SUSPECT_ADDED and e[3] == bad]
    assert min(suspect_rounds) == 0

    detect_rounds = [e[0] for e in result.events
                     if e[1] == EVENT_ATTACKER_DETECTED and e[3] == bad]
    assert min(detect_rounds) == 1

    # the detector whose similar set spans all honest readings classifies
    # with the full five-value region
    rec = next(d for d in result.detections
               if d.detector == GOLDEN_DETECTOR and d.attacker == bad)
    assert abs(rec.region_sd - math.sqrt(2)) < 1e-6
    assert abs(rec.combined_sd - 10.884494578170465) < 1e-6

    # silenced once every neighbor blacklists it
    assert (1, EVENT_NODE_EXCLUDED, bad, None, None) in result.events
    emit_rounds = {e[0] for e in result.events if e[1] == EVENT_DM_SENT and e[2] == bad}
    assert emit_rounds == {0, 1}

    honest = tuple(sorted(set(range(6)) - {bad}))
    for snap in result.snapshots:
        assert all(bad not in members for members in snap.clusters)
        if snap.round >= 2:
            assert snap.clusters == [honest]


CONVICTION_CASES = {
    "golden": lambda tmp: golden_config(write_golden_trace(tmp / "trace.csv")),
    "fdi": lambda _: ScenarioConfig(n_nodes=40, n_rounds=60, seed=3),
    "churn": lambda _: ScenarioConfig(n_nodes=40, n_rounds=60, seed=2,
                                      attack=AttackConfig(attack_type="churn")),
    "sensitive": lambda _: ScenarioConfig(n_nodes=40, n_rounds=60, seed=1,
                                          attack=AttackConfig(attack_type="sensitive"),
                                          sensing=FieldConfig(noise_sigma=1.5)),
}


@pytest.mark.parametrize("case", sorted(CONVICTION_CASES))
def test_convictions_follow_open_suspicion(case, tmp_path):
    """Every attacker_detected (i, j) comes after a suspect_added (i, j)
    with no suspect_cleared (i, j) in between: a node convicts only a
    sender it currently suspects."""
    result = run_scenario(CONVICTION_CASES[case](tmp_path))
    open_pairs = set()
    convictions = 0
    for rnd, kind, node, subject, _ in result.events:
        pair = (node, subject)
        if kind == EVENT_SUSPECT_ADDED:
            assert pair not in open_pairs, (rnd, kind, pair)
            open_pairs.add(pair)
        elif kind in (EVENT_SUSPECT_CLEARED, EVENT_ATTACKER_DETECTED):
            assert pair in open_pairs, (rnd, kind, pair)
            open_pairs.discard(pair)
            convictions += kind == EVENT_ATTACKER_DETECTED
    assert convictions == len(result.detections) > 0


def test_trace_dimension_mismatch(tmp_path, golden_scenario):
    cfg = golden_scenario
    cfg.n_nodes = 5
    from fdisim.sensing import TraceError
    with pytest.raises(TraceError, match="covers 6 nodes"):
        run_scenario(cfg)


def _pairwise_adjacency(positions, radius):
    """The pairwise loop: an edge iff dx*dx + dy*dy <= radius*radius."""
    r2 = radius * radius
    adj = [[] for _ in positions]
    for i, (xi, yi) in enumerate(positions):
        for j in range(i + 1, len(positions)):
            dx = xi - positions[j][0]
            dy = yi - positions[j][1]
            if dx * dx + dy * dy <= r2:
                adj[i].append(j)
                adj[j].append(i)
    return adj


@pytest.mark.parametrize("block_cells", [64, 1 << 14])
def test_adjacency_matches_pairwise_loop(block_cells, monkeypatch):
    import fdisim.engine as engine
    monkeypatch.setattr(engine, "_ADJACENCY_BLOCK_CELLS", block_cells)
    rng = random.Random(8)
    for n in (2, 3, 17, 90):
        positions = [(rng.uniform(0, 200), rng.uniform(0, 200)) for _ in range(n)]
        # grid points put pairs exactly on the radius
        positions += [(10.0 * k, 0.0) for k in range(6)]
        assert compute_adjacency(positions, 30.0) == _pairwise_adjacency(positions, 30.0)


def test_conviction_by_sole_remaining_suspecter_completes():
    """Seed 4208, round 1: 44 of attacker 39's 45 suspecters clear it and
    node 98, last in id order, convicts it with nobody else suspecting."""
    result = run_scenario(ScenarioConfig(seed=4208, n_rounds=2))
    assert [(d.round, d.detector) for d in result.detections if d.attacker == 39] == [(1, 98)]


def test_noisy_sensitive_conviction_completes():
    cfg = ScenarioConfig(seed=807, n_rounds=30)
    cfg.attack.attack_type = "sensitive"
    cfg.sensing.noise_sigma = 1.5
    result = run_scenario(cfg)
    assert result.confusion.tp == result.ground_truth.attackers_inserted


def test_overflowing_aggregates_are_discarded():
    """Readings near the float maximum overflow the aggregates to inf from
    round 2 on; from then every receiver discards every message and counts
    no interaction."""
    cfg = ScenarioConfig(n_nodes=30, n_rounds=6)
    cfg.sensing.base_value = 1e308
    cfg.sensing.spatial_gradient = 0.0
    result = run_scenario(cfg)
    positions = place_nodes(cfg, random.Random(f"{cfg.seed}/place"))
    degree_sum = sum(len(neigh) for neigh in compute_adjacency(positions, cfg.tx_radius_m))
    discarded = [e for e in result.events if e[1] == EVENT_DM_DISCARDED]
    assert len(discarded) == 1800 == 4 * degree_sum
    assert {e[0] for e in discarded} == {2, 3, 4, 5}
    assert all(e[4] is None for e in discarded)
    assert result.confusion.total_interactions == 2 * degree_sum


def test_discarded_senders_are_pruned_within_ttl(monkeypatch):
    """Every message is discarded from round 2 on (the aggregates overflow),
    so no record is refreshed; after every round no live node holds a
    record older than the TTL."""
    cfg = ScenarioConfig(n_nodes=30, n_rounds=10)
    cfg.sensing.base_value = 1e308
    cfg.sensing.spatial_gradient = 0.0
    ttl = cfg.cluster.neighbor_ttl_rounds
    stale = []
    run_round = engine.run_round

    def checked_round(world, cfg):
        run_round(world, cfg)
        rnd = world.round - 1
        for i in range(cfg.n_nodes):
            if i in world.excluded:
                continue
            stale.extend((rnd, i, j) for j, rec in slot_records(world, i).items()
                         if rnd - rec.last_seen_round > ttl)

    result, _ = run_recorded(cfg, monkeypatch, run_round=checked_round)
    assert any(e[1] == EVENT_DM_DISCARDED for e in result.events)
    assert stale == []


def test_crashed_leaders_take_no_alerts(monkeypatch):
    """Leader lists come from the previous round's snapshot, so in the crash
    round they still name crashed leaders; those take and forward nothing."""
    cfg = ScenarioConfig(n_nodes=60, n_rounds=20, seed=2, crash_fraction=0.3, crash_round=1)
    result, world = run_recorded(cfg, monkeypatch)
    crashed = world.crashed
    assert len(crashed) == 18
    forwarded = [e for e in result.events if e[1] == EVENT_ALERT_FORWARDED]
    assert forwarded
    assert [e for e in forwarded if e[0] >= cfg.crash_round and e[2] in crashed] == []
    assert all(entry.detected_round < cfg.crash_round
               for node in crashed for entry in result.node_blacklists[node].values())


def _doubled(cfg):
    """cfg with every parameter measured in reading units doubled."""
    out = copy.deepcopy(cfg)
    for part, names in ((out.sensing, ("base_value", "drift_per_round", "spatial_gradient",
                                       "noise_sigma")),
                        (out.cluster, ("cthresh",)),
                        (out.detection, ("consensus_threshold",)),
                        (out.attack, ("fdi_offset_min", "fdi_offset_max", "sensitive_margin"))):
        for name in names:
            setattr(part, name, 2 * getattr(part, name))
    return out


@pytest.mark.parametrize("attack", ["fdi", "churn", "sensitive"])
def test_doubling_reading_units_doubles_every_reading(attack):
    """Doubling is exact in IEEE arithmetic, and so are the sums, means and
    square roots of doubled values, so every comparison the protocol makes
    comes out the same: the runs differ only in doubled reading values."""
    cfg = ScenarioConfig(n_nodes=40, n_rounds=120, seed=1,
                         attack=AttackConfig(attack_type=attack))
    cfg.sensing.drift_per_round = 0.01
    if attack == "sensitive":
        cfg.sensing.noise_sigma = 1.5
    base = run_scenario(cfg)
    twice = run_scenario(_doubled(cfg))
    assert base.detections
    assert twice.events == [(rnd, kind, node, subject, None if value is None else 2 * value)
                            for rnd, kind, node, subject, value in base.events]
    assert twice.detections == [
        dataclasses.replace(d, reading=2 * d.reading, region_sd=2 * d.region_sd,
                            combined_sd=2 * d.combined_sd) for d in base.detections]
    assert twice.snapshots == base.snapshots
    assert twice.availability == base.availability
    assert twice.blacklisted_counts == base.blacklisted_counts
    assert twice.confusion == base.confusion


def test_alert_forgets_the_attackers_slot(monkeypatch):
    """A receiver that takes an alert about a similar neighbor drops the
    neighbor's record and flag, and its running sums lose the neighbor's
    aggregate, by one subtraction each."""
    cfg = small_cfg(n_rounds=5, attacker_fraction=0.0)
    _, world = run_recorded(cfg, monkeypatch)
    slots = world.slots
    i, k = (int(v) for v in np.argwhere(slots.flag)[0])
    j = slots.nbr.item(i, k)
    aw, w = slots.sum_aw.item(i), slots.sum_w.item(i)
    a, c = slots.rec_a.item(i, k), slots.rec_c.item(i, k)
    detector = next(d for d in range(cfg.n_nodes) if d not in (i, j))
    am = engine.AlertMessage(detector=detector, attacker=j, attacker_reading=45.0)
    engine._deliver_alert(world, i, am, world.round)
    assert j in world.states[i].blacklist
    assert j not in slot_records(world, i)
    assert not slots.flag[i, k] and slots.blocked[i, k]
    assert slots.sum_aw.item(i) == aw - a * c and slots.sum_w.item(i) == w - c
    rest = slots.flag[i]
    assert slots.sum_aw.item(i) == pytest.approx(float(np.sum(slots.rec_a[i, rest] *
                                                              slots.rec_c[i, rest])))
    assert slots.sum_w.item(i) == float(np.sum(slots.rec_c[i, rest]))


@pytest.mark.parametrize("n_nodes", [7, 300])
def test_reverse_slot_index_points_back(n_nodes):
    """rev[i, k] is the cell of i in the row of its k-th neighbor; a cell
    past i's degree maps to itself. 300 nodes take a 16-bit sort key."""
    rng = random.Random(n_nodes)
    positions = [(rng.uniform(0, 200), rng.uniform(0, 200)) for _ in range(n_nodes)]
    adjacency = engine.compute_adjacency(positions, 60.0)
    slots = engine.NeighborSlots(adjacency)
    width = slots.nbr.shape[1]
    for i, neigh in enumerate(adjacency):
        for k in range(width):
            row, slot = divmod(int(slots.rev[i, k]), width)
            if k < len(neigh):
                assert (row, adjacency[row][slot]) == (neigh[k], i)
            else:
                assert (row, slot) == (i, k)


def _write_trace(path, rows):
    """A reading trace with one list of node readings per round."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("round,node_id,value\n")
        for rnd, readings in enumerate(rows):
            fh.writelines(f"{rnd},{node},{value}\n" for node, value in enumerate(readings))
    return path


@pytest.mark.parametrize("cap, passes", [(2, 1), (3, 2)])
def test_a_clear_past_the_region_cap_takes_one_pass(cap, passes, tmp_path, monkeypatch):
    """Six mutual neighbors; nodes 3 and 5 read 45 in round 2, and in
    round 3 node 3 is back while node 5 is not. Nodes 0, 1, 2 and 4 clear
    node 3, a similar sender with 2 or 3 eligible slots before it, then
    convict node 5. With a cap of 2 no clear enters node 5's region, so the
    round's suspects are judged in one pass; with a cap of 3 rows 0, 1 and
    2 judge node 5 again."""
    base = [15.0, 15.5, 16.0, 16.5, 17.0, 17.5]
    off = [45.0 if node in (3, 5) else v for node, v in enumerate(base)]
    back = [45.0 if node == 5 else v for node, v in enumerate(base)]
    cfg = golden_config(_write_trace(tmp_path / "trace.csv", [base, base, off, back]))
    cfg.n_rounds = 4
    cfg.detection.region_cap = cap
    rounds, calls = [], []
    run_round, kernel = engine.run_round, engine.consensus_verdicts

    def counted(world, cfg):
        rounds.append(world.round)
        return run_round(world, cfg)

    def judged(*args):
        calls.append(rounds[-1])
        return kernel(*args)

    result, _ = run_recorded(cfg, monkeypatch, run_round=counted, consensus_verdicts=judged)
    verdicts = [(e[1], e[2], e[3]) for e in result.events if e[0] == 3 and e[1] in (
        EVENT_SUSPECT_CLEARED, EVENT_ATTACKER_DETECTED)]
    assert verdicts == [(kind, i, j) for i in (0, 1, 2, 4) for kind, j in (
        (EVENT_SUSPECT_CLEARED, 3), (EVENT_ATTACKER_DETECTED, 5))]
    assert calls.count(3) == passes
