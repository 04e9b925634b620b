"""Shared fixtures: the hand-built six-node corrupted-reading world, a
node and a neighbor table built from records, a run that keeps its world
state and the records read out of that world, the traversal oracle of
cluster extraction over ``{node: similar set}`` mappings and the scalar
oracle of the consensus filter."""

from __future__ import annotations

import csv
import math
from typing import Mapping, Set

import pytest

import fdisim.engine as engine
from fdisim.clustering import ClusterSnapshot, NeighborRecord, NeighborTable, SimilarGraph
from fdisim.detection import CLEARED, DETECTED, PENDING
from fdisim.engine import NeighborSlots, ScenarioConfig

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


def similar_graph(similar_sets: Mapping[int, Set[int]], n: int) -> SimilarGraph:
    """A SimilarGraph over nodes 0..n-1 whose flags hold the given similar
    sets (a node missing from the mapping has none). Two nodes are adjacent
    when either holds the other."""
    adjacency = [set() for _ in range(n)]
    for i, similar in similar_sets.items():
        for j in similar:
            adjacency[i].add(j)
            adjacency[j].add(i)
    slots = NeighborSlots([sorted(neigh) for neigh in adjacency])
    for i, similar in similar_sets.items():
        for j in similar:
            slots.flag[i, slots.slot(i, j)] = True
    return SimilarGraph(slots.nbr, slots.flag, slots.rev)


def elect_leaders(counts: Mapping[int, int]) -> Set[int]:
    """Every node whose similar-neighbor count ties the maximum is a leader."""
    if not counts:
        return set()
    top = max(counts.values())
    return {nid for nid, c in counts.items() if c == top}


def bfs_clusters(similar_sets: Mapping[int, Set[int]], rnd: int,
                 excluded=frozenset()) -> ClusterSnapshot:
    """Cluster extraction by traversal, the oracle of
    ``clustering.extract_clusters``: components of size >= 2 of the mutual-
    similarity graph over the mapping's non-excluded nodes, found from each
    unvisited node in ascending id order (so ordered by smallest member),
    with the members holding the most similar neighbors inside their own
    cluster as leaders."""
    clusters, leaders = [], []
    seen = set(excluded)
    for start in sorted(similar_sets):
        if start in seen:
            continue
        seen.add(start)
        members = [start]
        frontier = [start]
        while frontier:
            u = frontier.pop()
            for v in similar_sets[u]:
                if v not in seen and u in similar_sets.get(v, ()):
                    seen.add(v)
                    members.append(v)
                    frontier.append(v)
        if len(members) < 2:
            continue
        member_set = set(members)
        counts = {m: len(similar_sets[m] & member_set) for m in members}
        clusters.append(tuple(sorted(members)))
        leaders.append(tuple(sorted(elect_leaders(counts))))
    return ClusterSnapshot(round=rnd, clusters=clusters, leaders=leaders)


def scalar_region_sd(values) -> float:
    """Population standard deviation of a region by a scalar loop, the
    oracle of ``detection.consensus_verdicts``: sums from +0.0 in order (not
    the builtin ``sum``, which compensates from Python 3.12 on) and each
    deviation squared by ``** 2`` (libm ``pow``), inf where that overflows."""
    n = len(values)
    total = 0.0
    for v in values:
        total += v
    mean = total / n
    squares = 0.0
    for v in values:
        try:
            squares += (v - mean) ** 2
        except OverflowError:
            squares += math.inf
    return math.sqrt(squares / n)


def scalar_verdict(values, reading, threshold):
    """The two-step filter over one region by ``scalar_region_sd``: the
    verdict code, the region's spread and the combined spread (None for an
    invalid region)."""
    base = scalar_region_sd(values)
    if len(values) < 2 or base > threshold:
        return PENDING, base, None
    combined = scalar_region_sd(list(values) + [reading])
    return (DETECTED if combined > threshold else CLEARED), base, combined
