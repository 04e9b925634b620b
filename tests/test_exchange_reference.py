"""Differential test of the flattened round against the message-object round.

``reference_exchange`` is phases 1 and 2 of a round written with the
single-message API: one DataMessage per sender, validated once, and
``handle_data_message`` per delivery. The engine's ``_exchange`` inlines
that handling; both must produce identical runs.
"""

from typing import List, Optional

import pytest

from fdisim.attacks import AttackConfig, attack_is_active, forge_reading
from fdisim.clustering import build_data_message, handle_data_message
from fdisim.detection import (DetectionConfig, SuspectOutcome, build_consensus_region,
                              process_suspect)
from fdisim.domain import AlertMessage, DataMessage, validate_data_message
from fdisim.engine import (EVENT_ATTACKER_DETECTED, EVENT_DM_DISCARDED, EVENT_DM_SENT,
                           EVENT_NODE_EXCLUDED, EVENT_SUSPECT_ADDED, EVENT_SUSPECT_CLEARED,
                           DetectionRecord, ScenarioConfig)
from fdisim.sensing import FieldConfig

from conftest import golden_config, run_recorded, write_golden_trace


def reference_exchange(world, cfg):
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
    for i in range(n):
        if i in world.excluded or world.node_is_dead(i):
            continue
        st = states[i]
        true_reading = world.source.reading(i, rnd)
        st.current_reading = true_reading
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
        own = st.current_reading
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
            if not watch:
                continue
            if j in st.suspects or not verdict:
                outcome, am, res = process_suspect(
                    st, j, dm.individual_reading, verdict,
                    lambda: build_consensus_region(st, own, dcfg.region_cap),
                    dcfg, rnd)
                reading = dm.individual_reading
                if outcome is SuspectOutcome.ADDED:
                    events.append((rnd, EVENT_SUSPECT_ADDED, i, j, reading))
                elif outcome is SuspectOutcome.CLEARED:
                    events.append((rnd, EVENT_SUSPECT_CLEARED, i, j, reading))
                elif outcome is SuspectOutcome.DETECTED:
                    events.append((rnd, EVENT_ATTACKER_DETECTED, i, j, reading))
                    world._note_blacklisted(i, j)
                    world.detections.append(DetectionRecord(
                        rnd, i, j, reading, res.region_sd, res.combined_sd))
                    fresh_alerts.append(am)
    return fresh_alerts, [j for j in range(n) if not valid[j]]


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
    "crash": (lambda _: _cfg(seed=1, crash_fraction=0.2, crash_round=10),
              EVENT_ATTACKER_DETECTED),
    # exact readings and a tight consensus threshold convict attackers whose
    # small forged offset still passes the similarity test, so a conviction
    # removes a similar record and changes the running sums
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
}


def _node_state(world):
    # repr keeps record order and compares nan and inf sums exactly
    return [repr((st.table.records, sorted(st.table.similar), st.table._sum_aw,
                  st.table._sum_w, st.suspects, st.current_reading))
            for st in world.states]


@pytest.mark.parametrize("case", sorted(CASES))
def test_flattened_round_matches_reference(case, tmp_path, monkeypatch):
    make_cfg, must_see = CASES[case]
    flat, flat_world = run_recorded(make_cfg(tmp_path), monkeypatch)
    ref, ref_world = run_recorded(make_cfg(tmp_path), monkeypatch, _exchange=reference_exchange)
    assert must_see in {e[1] for e in ref.events}
    assert flat.events == ref.events
    assert flat.snapshots == ref.snapshots
    assert flat.detections == ref.detections
    assert flat.node_blacklists == ref.node_blacklists
    assert flat.total_interactions == ref.total_interactions
    assert _node_state(flat_world) == _node_state(ref_world)
