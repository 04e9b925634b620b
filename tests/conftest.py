"""Shared fixtures: the hand-built six-node corrupted-reading world, a
node and a neighbor table built from records, a run that keeps its world
state and the records read out of that world."""

from __future__ import annotations

import csv

import pytest

import fdisim.engine as engine
from fdisim.clustering import NeighborRecord, NeighborTable
from fdisim.engine import ScenarioConfig

# node 2 broadcasts a wildly off reading every round; the others span 14..18
GOLDEN_READINGS = [14.0, 15.0, 45.0, 16.0, 17.0, 18.0]
GOLDEN_ROUNDS = 8
GOLDEN_BAD_NODE = 2
GOLDEN_DETECTOR = 3  # the node reading 16: similar to all four honest peers


def write_golden_trace(path, readings=GOLDEN_READINGS, rounds=GOLDEN_ROUNDS):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["round", "node_id", "value"])
        for rnd in range(rounds):
            for node, value in enumerate(readings):
                writer.writerow([rnd, node, value])
    return path


def golden_config(trace_path) -> ScenarioConfig:
    # tiny area so all six nodes are mutually in range wherever they land
    return ScenarioConfig(n_nodes=6, n_rounds=GOLDEN_ROUNDS, area_width_m=20.0,
                          area_height_m=20.0, tx_radius_m=100.0,
                          attacker_fraction=0.0, trace_path=str(trace_path), seed=42)


@pytest.fixture
def golden_scenario(tmp_path):
    trace = write_golden_trace(tmp_path / "trace.csv")
    return golden_config(trace)


class RefNode:
    """A node's protocol state over a NeighborTable: what the detection
    functions read and write, for tests that hold no world."""

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        self.table = NeighborTable()
        self.suspects = {}
        self.blacklist = {}
        self.known_leaders = frozenset()


def similar_table(neighbors) -> NeighborTable:
    """A table holding every given record in its similar set."""
    table = NeighborTable()
    for nid, record in enumerate(neighbors):
        table.records[nid] = record
        table.add_similar(nid)
    return table


def slot_records(world, i):
    """The records node i holds in a run's slot arrays, by sender id."""
    s = world.slots
    return {s.nbr.item(i, k): NeighborRecord(s.rec_x.item(i, k), s.rec_a.item(i, k),
                                             int(s.rec_c.item(i, k)), s.seen.item(i, k))
            for k in range(s.nbr.shape[1]) if s.seen[i, k] != engine.NO_RECORD}


def run_recorded(cfg, monkeypatch, world_class=engine.WorldState, **replacements):
    """Run cfg with the given ``fdisim.engine`` names replaced, on a world of
    ``world_class``; returns the result and the run's final world state."""
    worlds = []

    class RecordedWorld(world_class):
        def __init__(self, *args):
            super().__init__(*args)
            worlds.append(self)

    with monkeypatch.context() as m:
        m.setattr(engine, "WorldState", RecordedWorld)
        for name, value in replacements.items():
            m.setattr(engine, name, value)
        result = engine.run_scenario(cfg)
    return result, worlds[0]
