"""Clustering layer: similarity aggregation, data-message handling, neighbor
tables, leader election and per-round cluster extraction."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Set, Tuple

from .domain import DataMessage, require_finite


@dataclass
class ClusterConfig:
    cthresh: float = 3.0          # similarity threshold; comparisons are strict
    neighbor_ttl_rounds: int = 3  # evict records not refreshed within this many rounds

    def validate(self) -> None:
        require_finite(self, "cthresh")
        if not self.cthresh > 0:
            raise ValueError("cthresh must be > 0")
        if self.neighbor_ttl_rounds < 1:
            raise ValueError("neighbor_ttl_rounds must be >= 1")


@dataclass(slots=True)
class NeighborRecord:
    """Last heard state of one neighbor: its reading, its disseminated
    aggregate, the count that aggregate represents, and when it was heard."""

    individual_reading: float
    aggregate_reading: float
    neighbor_count: int
    last_seen_round: int


def is_similar(candidate_ir: float, candidate_ar: float,
               own_ir: float, own_aggregate: float, cfg: ClusterConfig) -> bool:
    """Two-sided similarity test, strict on both sides: the candidate's
    reading must sit inside the receiver's aggregate window and the
    receiver's reading inside the candidate's disseminated aggregate."""
    t = cfg.cthresh
    return abs(candidate_ir - own_aggregate) < t and abs(own_ir - candidate_ar) < t


class NeighborTable:
    """One node's view of its neighborhood.

    Every heard record is kept under the sender id; ``similar`` is the subset
    currently passing the similarity test. Weighted sums over the similar
    subset are maintained incrementally so the local aggregate is O(1) per
    received message.
    """

    __slots__ = ("records", "similar", "_sum_aw", "_sum_w")

    def __init__(self) -> None:
        self.records: Dict[int, NeighborRecord] = {}
        self.similar: Set[int] = set()
        self._sum_aw = 0.0  # sum of aggregate_reading * neighbor_count over similar
        self._sum_w = 0.0   # sum of neighbor_count over similar

    def aggregate(self, own_reading: float) -> float:
        return (own_reading + self._sum_aw) / (1.0 + self._sum_w)

    def reading(self, sender: int) -> float:
        """The individual reading of the record held of a neighbor."""
        return self.records[sender].individual_reading

    def add_similar(self, sender: int) -> None:
        if sender not in self.similar:
            rec = self.records[sender]
            self.similar.add(sender)
            self._sum_aw += rec.aggregate_reading * rec.neighbor_count
            self._sum_w += rec.neighbor_count

    def drop_similar(self, sender: int) -> None:
        if sender in self.similar:
            rec = self.records[sender]
            self.similar.discard(sender)
            self._sum_aw -= rec.aggregate_reading * rec.neighbor_count
            self._sum_w -= rec.neighbor_count

    def remove(self, sender: int) -> None:
        """Forget a neighbor entirely (blacklist purge, staleness)."""
        self.drop_similar(sender)
        self.records.pop(sender, None)


def handle_data_message(table: NeighborTable, msg: DataMessage,
                        own_reading: float, cfg: ClusterConfig, rnd: int) -> bool:
    """Store the sender's record, re-derive the local aggregate and update the
    similar set. Returns the similarity verdict (True = similar).

    The record is stored before the aggregate is taken, so a refreshed
    similar neighbor contributes its newest values to its own test.
    """
    rec = table.records.get(msg.sender)
    if rec is None:
        table.records[msg.sender] = NeighborRecord(
            msg.individual_reading, msg.aggregate_reading, msg.neighbor_count, rnd)
    else:
        if msg.sender in table.similar:
            table._sum_aw += (msg.aggregate_reading * msg.neighbor_count
                              - rec.aggregate_reading * rec.neighbor_count)
            table._sum_w += msg.neighbor_count - rec.neighbor_count
        rec.individual_reading = msg.individual_reading
        rec.aggregate_reading = msg.aggregate_reading
        rec.neighbor_count = msg.neighbor_count
        rec.last_seen_round = rnd

    own_aggregate = table.aggregate(own_reading)
    verdict = is_similar(msg.individual_reading, msg.aggregate_reading,
                         own_reading, own_aggregate, cfg)
    if verdict:
        table.add_similar(msg.sender)
    else:
        table.drop_similar(msg.sender)
    return verdict


def build_data_message(node_id: int, own_reading: float, table: NeighborTable) -> DataMessage:
    """Assemble the node's periodic broadcast from its current view."""
    return DataMessage(
        sender=node_id,
        individual_reading=own_reading,
        aggregate_reading=table.aggregate(own_reading),
        neighbor_count=len(table.similar),
    )


def prune_ids(table: NeighborTable, candidates: Iterable[int], rnd: int, cfg: ClusterConfig) -> None:
    """Evict the records among the given ids not refreshed within the TTL
    window.

    Every stale record is evicted when ``candidates`` covers every sender
    that sent nothing this round or sent a message that was discarded: a
    valid message sets last_seen_round to ``rnd`` in every record held of
    its sender (receivers that blacklist it hold none), and such a record
    cannot be stale.
    """
    ttl = cfg.neighbor_ttl_rounds
    for nid in candidates:
        rec = table.records.get(nid)
        if rec is not None and rnd - rec.last_seen_round > ttl:
            table.remove(nid)


def elect_leaders(counts: Mapping[int, int]) -> Set[int]:
    """Every node whose similar-neighbor count ties the maximum is a leader.

    Deterministic and invariant under the mapping's iteration order.
    """
    if not counts:
        return set()
    top = max(counts.values())
    return {nid for nid, c in counts.items() if c == top}


@dataclass
class ClusterSnapshot:
    """Per-round clustering state: disjoint clusters (each >= 2 members, as
    sorted member tuples) and the leader set of each cluster."""

    round: int
    clusters: List[Tuple[int, ...]]
    leaders: List[Tuple[int, ...]]

    def all_leaders(self) -> Set[int]:
        out: Set[int] = set()
        for leads in self.leaders:
            out.update(leads)
        return out


def extract_clusters(similar_sets: Mapping[int, Set[int]], rnd: int,
                     excluded: Set[int] = frozenset()) -> ClusterSnapshot:
    """Connected components of the mutual-similarity graph.

    An edge (u, v) exists iff each node currently holds the other in its
    similar set; nodes in ``excluded`` (blacklisted anywhere) take part in no
    edge. Components of size >= 2 become clusters; leaders are the members
    with the most similar neighbors inside their own cluster.
    """
    clusters: List[Tuple[int, ...]] = []
    leaders: List[Tuple[int, ...]] = []
    seen = set(excluded)
    # a traversal from each unvisited node in ascending id order finds every
    # component from its smallest member, so they come out in that order
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
