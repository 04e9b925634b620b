"""Differential test of the engine's slot-array round against a reference
round written with the message-object API.

``reference_round`` is phases 1-5 of a round over one NeighborTable per
node: one DataMessage per sender, validated once, ``handle_data_message``
per delivery, a consensus region built fresh for every suspected sender,
``prune_ids`` for TTL maintenance and the traversal oracle ``bfs_clusters``
over the similar sets. The engine solves each receiver's similarity pass over arrays; both
must produce identical runs, float for float.
"""

import random
import sys
from typing import List, Optional

import pytest

import fdisim.engine as engine
from fdisim.attacks import AttackConfig, attack_is_active, forge_reading
from fdisim.clustering import build_data_message, handle_data_message, prune_ids
from fdisim.detection import DetectionConfig, SuspectOutcome, handle_alert, process_suspect
from fdisim.domain import AlertMessage, DataMessage, validate_data_message
from fdisim.engine import (EVENT_ALERT_FORWARDED, EVENT_ATTACKER_DETECTED, EVENT_DM_DISCARDED,
                           EVENT_DM_SENT, EVENT_NODE_EXCLUDED, EVENT_SUSPECT_ADDED,
                           EVENT_SUSPECT_CLEARED, DetectionRecord, ScenarioConfig)
from fdisim.sensing import FieldConfig

from conftest import (RefNode, bfs_clusters, golden_config, run_recorded, slot_records,
                      write_golden_trace)


class ReferenceWorld:
    """What ``run_scenario`` reads of a world, with one RefNode per node."""

    def __init__(self, cfg, adjacency, ground_truth, source, crashed):
        self.cfg = cfg
        self.adjacency = adjacency
        self.adjacency_sets = [set(neigh) for neigh in adjacency]
        self.ground_truth = ground_truth
        self.source = source
        self.crashed = crashed
        self.states = [RefNode(i) for i in range(cfg.n_nodes)]
        self.round = 0
        self.pending_alerts = []
        self.excluded = set()
        self.blacklisted_union = set()
        self.global_leaders = set()
        self.blacklister_count = {}
        self.total_interactions = 0
        self.events = []
        self.snapshots = []
        self.detections = []
        self.blacklisted_counts = []
        self._forge_rngs = {}
        self._bl_touched = set()

    def forge_rng(self, node_id):
        if node_id not in self._forge_rngs:
            self._forge_rngs[node_id] = random.Random(f"{self.cfg.seed}/forge/{node_id}")
        return self._forge_rngs[node_id]

    def node_is_dead(self, node_id):
        return node_id in self.crashed and self.round >= self.cfg.crash_round

    def note_blacklisted(self, observer, target):
        self.blacklisted_union.add(target)
        if observer in self.adjacency_sets[target]:
            self.blacklister_count[target] = self.blacklister_count.get(target, 0) + 1
            self._bl_touched.add(target)
        self.states[observer].table.remove(target)


def reference_exchange(world, cfg):
    """Phases 1 and 2: returns the fresh alerts and the unheard senders."""
    rnd = world.round
    states = world.states
    events = world.events
    gt = world.ground_truth
    ccfg = cfg.cluster
    dcfg = cfg.detection
    acfg = cfg.attack
    n = cfg.n_nodes

    emissions: List[Optional[DataMessage]] = [None] * n
    valid = [False] * n
    own_readings = [world.source.reading(i, rnd) for i in range(n)]
    for i in range(n):
        if i in world.excluded or world.node_is_dead(i):
            continue
        st = states[i]
        true_reading = own_readings[i]
        dm = build_data_message(i, true_reading, st.table)
        if gt.is_attacker(i) and attack_is_active(rnd, acfg):
            forged = forge_reading(true_reading, dm.aggregate_reading, acfg, ccfg.cthresh,
                                   world.forge_rng(i))
            dm = DataMessage(i, forged, dm.aggregate_reading, dm.neighbor_count)
        emissions[i] = dm
        valid[i] = validate_data_message(dm)
        events.append((rnd, EVENT_DM_SENT, i, None, dm.individual_reading))

    fresh_alerts: List[AlertMessage] = []
    for i in range(n):
        if i in world.excluded or world.node_is_dead(i):
            continue
        st = states[i]
        own = own_readings[i]
        watch = dcfg.detection_enabled and not gt.is_attacker(i)
        for j in world.adjacency[i]:
            dm = emissions[j]
            if dm is None or j in st.blacklist:
                continue
            if not valid[j]:
                events.append((rnd, EVENT_DM_DISCARDED, i, j, None))
                continue
            world.total_interactions += 1
            verdict = handle_data_message(st.table, dm, own, ccfg, rnd)
            if not watch or (verdict and j not in st.suspects):
                continue
            # looked up in the engine's namespace, where a test may wrap them
            similar = [(s, st.table.reading(s)) for s in sorted(st.table.similar)]
            region = (engine.build_consensus_region(st, own, similar, dcfg.region_cap)
                      if j in st.suspects else None)
            outcome, am, res = engine.process_suspect(
                st, j, dm.individual_reading, verdict, region, dcfg, rnd)
            reading = dm.individual_reading
            if outcome is SuspectOutcome.ADDED:
                events.append((rnd, EVENT_SUSPECT_ADDED, i, j, reading))
            elif outcome is SuspectOutcome.CLEARED:
                events.append((rnd, EVENT_SUSPECT_CLEARED, i, j, reading))
            elif outcome is SuspectOutcome.DETECTED:
                events.append((rnd, EVENT_ATTACKER_DETECTED, i, j, reading))
                world.note_blacklisted(i, j)
                world.detections.append(DetectionRecord(
                    rnd, i, j, reading, res.region_sd, res.combined_sd))
                fresh_alerts.append(am)
    return fresh_alerts, [j for j in range(n) if not valid[j]]


def _deliver(world, receiver, am, rnd):
    st = world.states[receiver]
    if am.attacker in st.blacklist or world.node_is_dead(receiver):
        return False
    forward = handle_alert(st, am, receiver in world.global_leaders, rnd)
    if am.attacker not in st.blacklist:
        return False
    world.note_blacklisted(receiver, am.attacker)
    return forward


def reference_round(world, cfg):
    rnd = world.round
    states = world.states
    events = world.events
    n = cfg.n_nodes

    fresh_alerts, unheard = reference_exchange(world, cfg)

    # phase 3: scheduled floods first, then fresh detections
    due = [am for am, when in world.pending_alerts if when <= rnd]
    world.pending_alerts = [(am, when) for am, when in world.pending_alerts if when > rnd]
    for am in due:
        for target in sorted(world.global_leaders):
            if _deliver(world, target, am, rnd):
                world.pending_alerts.append((am, rnd + 1))
                events.append((rnd, EVENT_ALERT_FORWARDED, target, am.attacker,
                               am.attacker_reading))
    for am in fresh_alerts:
        if am.detector in world.global_leaders:
            world.pending_alerts.append((am, rnd + 1))
            events.append((rnd, EVENT_ALERT_FORWARDED, am.detector, am.attacker,
                           am.attacker_reading))
        for target in sorted(states[am.detector].known_leaders):
            if target != am.detector and _deliver(world, target, am, rnd):
                world.pending_alerts.append((am, rnd + 1))
                events.append((rnd, EVENT_ALERT_FORWARDED, target, am.attacker,
                               am.attacker_reading))
    for target in sorted(world._bl_touched):
        degree = len(world.adjacency[target])
        if (target not in world.excluded and degree > 0
                and world.blacklister_count.get(target, 0) >= degree):
            world.excluded.add(target)
            events.append((rnd, EVENT_NODE_EXCLUDED, target, None, None))
    world._bl_touched.clear()

    # phase 4: TTL maintenance over every live node
    for i in range(n):
        if i not in world.excluded and not world.node_is_dead(i):
            prune_ids(states[i].table, unheard, rnd, cfg.cluster)

    # phase 5: election and snapshot over globally non-blacklisted, live nodes
    excluded = set(world.blacklisted_union)
    if rnd >= cfg.crash_round:
        excluded |= world.crashed
    snapshot = bfs_clusters({i: states[i].table.similar for i in range(n)}, rnd,
                            excluded=excluded)
    world.snapshots.append(snapshot)
    world.blacklisted_counts.append(len(world.blacklisted_union))
    world.global_leaders = snapshot.all_leaders()
    for st in states:
        st.known_leaders = frozenset()
    for members, leads in zip(snapshot.clusters, snapshot.leaders):
        for m in members:
            states[m].known_leaders = set(leads)
    world.round += 1


def run_reference(cfg, monkeypatch, **replacements):
    return run_recorded(cfg, monkeypatch, world_class=ReferenceWorld,
                        run_round=reference_round, **replacements)


def _cfg(**kw):
    base = dict(n_nodes=40, n_rounds=40)
    base.update(kw)
    return ScenarioConfig(**base)


CASES = {
    "fdi": (lambda _: _cfg(seed=3), EVENT_NODE_EXCLUDED),
    "churn": (lambda _: _cfg(seed=2, attack=AttackConfig(attack_type="churn")),
              EVENT_SUSPECT_CLEARED),
    "sensitive": (lambda _: _cfg(seed=1, attack=AttackConfig(attack_type="sensitive"),
                                 sensing=FieldConfig(noise_sigma=1.5)),
                  EVENT_ATTACKER_DETECTED),
    # noisy readings and a low consensus threshold leave suspects pending,
    # clear them and convict them, so a receiver's consensus region is
    # rebuilt between pending checks in one pass
    "mixed-verdicts": (lambda _: _cfg(seed=1, attack=AttackConfig(attack_type="sensitive"),
                                      sensing=FieldConfig(noise_sigma=1.5),
                                      detection=DetectionConfig(consensus_threshold=1.0)),
                       EVENT_SUSPECT_CLEARED),
    # the smallest and a wide consensus region: a clear changes later
    # regions only within the first region_cap eligible slots
    "region-cap-1": (lambda _: _cfg(seed=1, attack=AttackConfig(attack_type="sensitive"),
                                    sensing=FieldConfig(noise_sigma=1.5),
                                    detection=DetectionConfig(consensus_threshold=1.0,
                                                              region_cap=1)),
                     EVENT_SUSPECT_CLEARED),
    "wide-region": (lambda _: _cfg(seed=1, attack=AttackConfig(attack_type="sensitive"),
                                   sensing=FieldConfig(noise_sigma=1.5),
                                   detection=DetectionConfig(consensus_threshold=1.0,
                                                             region_cap=12)),
                    EVENT_SUSPECT_CLEARED),
    "crash": (lambda _: _cfg(seed=1, crash_fraction=0.2, crash_round=10),
              EVENT_ATTACKER_DETECTED),
    # exact readings and a tight consensus threshold convict attackers whose
    # small forged offset still passes the similarity test, so a conviction
    # removes a similar record and the rest of the receiver's pass is solved
    # again
    "similar-conviction": (lambda _: _cfg(seed=2, sensing=FieldConfig(
        noise_sigma=0.0, spatial_gradient=0.0), detection=DetectionConfig(
        consensus_threshold=0.5)), EVENT_ATTACKER_DETECTED),
    "detection-off": (lambda _: _cfg(seed=1, detection=DetectionConfig(
        detection_enabled=False)), EVENT_DM_SENT),
    "trace": (lambda tmp: golden_config(write_golden_trace(tmp / "trace.csv")),
              EVENT_NODE_EXCLUDED),
    # the aggregates overflow to inf, so every message after the first
    # round is discarded
    "overflow-discard": (lambda _: ScenarioConfig(n_nodes=30, n_rounds=6, sensing=FieldConfig(
        base_value=1e308, spatial_gradient=0.0)), EVENT_DM_DISCARDED),
    # 400 nodes at default density: the rows span several phase-2 blocks
    "multi-block": (lambda _: ScenarioConfig(
        n_nodes=400, area_width_m=400.0, area_height_m=400.0, n_rounds=8, seed=5,
        attack=AttackConfig(attack_type="sensitive"), sensing=FieldConfig(noise_sigma=1.5)),
        EVENT_SUSPECT_CLEARED),
}


def _engine_nodes(world):
    slots = world.slots
    return [(slot_records(world, i), slots.nbr[i, slots.flag[i]].tolist(),
             repr(float(slots.sum_aw[i])), repr(float(slots.sum_w[i])), st.suspects)
            for i, st in enumerate(world.states)]


def _reference_nodes(world):
    # repr compares nan and inf sums exactly
    return [(st.table.records, sorted(st.table.similar), repr(st.table._sum_aw),
             repr(st.table._sum_w), st.suspects) for st in world.states]


@pytest.mark.parametrize("case", sorted(CASES))
def test_flattened_round_matches_reference(case, tmp_path, monkeypatch):
    make_cfg, must_see = CASES[case]
    flat, flat_world = run_recorded(make_cfg(tmp_path), monkeypatch)
    ref, ref_world = run_reference(make_cfg(tmp_path), monkeypatch)
    assert must_see in {e[1] for e in ref.events}
    if case == "multi-block":
        assert flat_world.slots.nbr.size > 2 * engine._ADJACENCY_BLOCK_CELLS
    assert flat.events == ref.events
    assert flat.snapshots == ref.snapshots
    assert flat.detections == ref.detections
    assert flat.node_blacklists == ref.node_blacklists
    assert flat.confusion.total_interactions == ref.confusion.total_interactions
    assert _engine_nodes(flat_world) == _reference_nodes(ref_world)


@pytest.mark.parametrize("case", ["churn", "crash", "fdi", "mixed-verdicts", "multi-block",
                                  "region-cap-1", "sensitive", "similar-conviction",
                                  "wide-region"])
def test_reused_region_equals_a_fresh_build(case, tmp_path, monkeypatch):
    """Every consensus check judges, float for float, the region the
    reference round builds fresh at the same (round, receiver, sender),
    although the engine gathers every region of a block at once and reads
    last round's state above the slot.

    The engine's regions are the inputs of ``consensus_verdicts``; its
    caller holds the block (``b``) and the judged cells (``rows``,
    ``cols``). A cell judged again in a later pass keeps its last region."""
    rounds = []
    run_round = engine.run_round
    kernel = engine.consensus_verdicts

    def counted(world, cfg):
        rounds.append(world.round)
        return run_round(world, cfg)

    def gathered(values, sizes, readings, threshold):
        caller = sys._getframe(1).f_locals
        b, rows, cols = caller["b"], caller["rows"], caller["cols"]
        for r, k, row, size in zip(rows.tolist(), cols.tolist(), values.tolist(),
                                   sizes.tolist()):
            flat[(rounds[-1], b.lo + r, b.nbr.item(r, k))] = [v.hex() for v in row[:size]]
        return kernel(values, sizes, readings, threshold)

    def built(state, sender, reading, verdict, region, cfg, rnd):
        if sender in state.suspects:
            ref[(rnd, state.node_id, sender)] = [v.hex() for v in region.values]
        return process_suspect(state, sender, reading, verdict, region, cfg, rnd)

    flat, ref = {}, {}
    run_recorded(CASES[case][0](tmp_path), monkeypatch, run_round=counted,
                 consensus_verdicts=gathered)
    run_reference(CASES[case][0](tmp_path), monkeypatch, process_suspect=built)
    assert ref
    assert flat == ref
