"""Clustering layer: similarity aggregation, data-message handling, neighbor
tables, leader election and per-round cluster extraction."""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from itertools import chain
from typing import AbstractSet, Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

import numpy as np

from .domain import DataMessage, require_finite


@dataclass
class ClusterConfig:
    cthresh: float = 3.0          # similarity threshold; comparisons are strict
    neighbor_ttl_rounds: int = 3  # evict records not refreshed within this many rounds

    def validate(self) -> None:
        require_finite(self)
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


# last-seen round of a slot that holds no record
NO_RECORD = -1


class NeighborSlots(Mapping):
    """Every receiver's neighbor state, as ``(n, maxdeg)`` arrays indexed by
    adjacency slot: slot k of row i holds node i's k-th lowest neighbor
    ``nbr[i, k]``, its record (``rec_x``, ``rec_a``, ``rec_c`` and ``seen``:
    reading, aggregate, count and last-seen round), the similar flag, and
    whether i blacklists or suspects it. ``sum_aw`` and ``sum_w`` are each
    receiver's running sums of aggregate * count and of count over its
    similar slots. ``rev[i, k]`` is the flat cell of i in the row of its
    k-th neighbor; a cell past i's degree maps to itself and is never flagged.
    The first ``degree[i]`` cells of ``nbr[i]`` are the only copy of node i's
    adjacency list.

    As a mapping it is the similarity graph, a live view: ``slots[i]`` is
    the similar set node i's flags hold when asked. It also keeps what
    ``extract_clusters`` last took from it: the flags and excluded set it
    solved, the snapshot, and every node's component label.
    """

    def __init__(self, adjacency: List[List[int]]) -> None:
        n = len(adjacency)
        self.degree = degree = np.fromiter(map(len, adjacency), dtype=np.intp, count=n)
        shape = (n, max(1, int(degree.max())))
        real = np.arange(shape[1]) < degree[:, None]
        self.nbr = np.zeros(shape, dtype=np.intp)
        self.nbr[real] = np.fromiter(chain.from_iterable(adjacency), dtype=np.intp,
                                     count=int(degree.sum()))
        # the adjacency is symmetric, so the real cells sorted by (neighbor,
        # row) are, in turn, the reverses of the cells in row-major order; the
        # cells are in row order already, and a stable sort of a key as
        # narrow as np.min_scalar_type(n) is a radix sort
        cells = np.flatnonzero(real)
        by_nbr = np.argsort(self.nbr.ravel()[cells].astype(np.min_scalar_type(n)),
                            kind="stable")
        self.rev = np.arange(real.size).reshape(shape)
        np.put(self.rev, cells[by_nbr], cells)
        self.rec_x = np.zeros(shape)
        self.rec_a = np.zeros(shape)
        self.rec_c = np.zeros(shape)
        self.seen = np.full(shape, NO_RECORD, dtype=np.int32)
        self.flag = np.zeros(shape, dtype=bool)
        # slots past a node's degree are blocked, so they never take a message
        self.blocked = ~real
        self.suspected = np.zeros(shape, dtype=bool)
        self.sum_aw = np.zeros(n)
        self.sum_w = np.zeros(n)
        self.upper = self.nbr > np.arange(n)[:, None]  # slots whose edge runs to a larger id
        self.label = np.arange(n)
        self.solved: Optional[Tuple[np.ndarray, FrozenSet[int], ClusterSnapshot]] = None
        self._leaders: Dict[int, Tuple[int, ...]] = {}

    def __getitem__(self, node: int) -> Set[int]:
        if not 0 <= node < len(self.nbr):
            raise KeyError(node)
        return set(self.nbr[node, self.flag[node]].tolist())

    def __iter__(self) -> Iterator[int]:
        return iter(range(len(self.nbr)))

    def __len__(self) -> int:
        return len(self.nbr)

    def slot(self, i: int, j: int) -> Optional[int]:
        """Node j's slot in node i's row, or None when they are not adjacent."""
        neigh = self.nbr[i, :self.degree[i]]
        k = int(neigh.searchsorted(j))
        return k if k < neigh.size and neigh[k] == j else None

    def forget(self, rows: np.ndarray, cols: np.ndarray) -> None:
        """Forget the records in the given cells (blacklist purge,
        staleness). A similar one leaves its receiver's sums, subtracted
        one cell at a time in the order given."""
        similar = self.flag[rows, cols]
        if similar.any():
            r, k = rows[similar], cols[similar]
            np.subtract.at(self.sum_aw, r, self.rec_a[r, k] * self.rec_c[r, k])
            np.subtract.at(self.sum_w, r, self.rec_c[r, k])
        self.flag[rows, cols] = False
        self.seen[rows, cols] = NO_RECORD

    def leaders_of(self, node: int) -> Tuple[int, ...]:
        """The leaders of node's cluster in the last snapshot extracted from
        these slots; () if node was in no cluster."""
        return self._leaders.get(int(self.label[node]), ())


def _components(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Per node, the smallest node of its connected component over the
    edges (u, v).

    Hooking and pointer jumping: each node starts as its own root; while
    an edge joins two trees, the larger of their roots is hooked under the
    smaller, and every label then jumps to its root. A label never exceeds
    its node, so the root left in each component is its smallest member."""
    label = np.arange(n)
    while u.size:
        lu, lv = label[u], label[v]
        across = lu != lv
        if not across.any():
            break
        u, v, lu, lv = u[across], v[across], lu[across], lv[across]
        label[np.maximum(lu, lv)] = np.minimum(lu, lv)
        while True:
            up = label[label]
            if np.array_equal(up, label):
                break
            label = up
    return label


def extract_clusters(graph: NeighborSlots, rnd: int,
                     excluded: AbstractSet[int] = frozenset()) -> ClusterSnapshot:
    """Connected components of the mutual-similarity graph.

    An edge (u, v) exists iff each node currently holds the other in its
    similar set; nodes in ``excluded`` (blacklisted anywhere) take part in no
    edge. Components of size >= 2 become clusters, ordered by their smallest
    member; leaders are the members with the most similar neighbors inside
    their own cluster. When the flags and the excluded set equal those of
    the last extraction from ``graph``, its clusters are returned again.
    """
    flag = graph.flag
    if graph.solved is not None:
        last_flag, last_excluded, last = graph.solved
        if last_excluded == excluded and np.array_equal(last_flag, flag):
            return ClusterSnapshot(round=rnd, clusters=last.clusters, leaders=last.leaders)
    n, width = flag.shape
    cells = np.flatnonzero(flag & flag.take(graph.rev) & graph.upper)
    u, v = cells // width, graph.nbr.take(cells)
    if excluded:
        keep = np.ones(n, dtype=bool)
        keep[list(excluded)] = False
        live = keep[u] & keep[v]
        u, v = u[live], v[live]
    label = _components(n, u, v)

    # members grouped by label, in ascending id order within each group
    size = np.bincount(label, minlength=n)
    members = np.flatnonzero(size[label] >= 2)
    members = members[np.argsort(label[members], kind="stable")]
    group = label[members]
    # per member, the similar neighbors in its own component
    inside = np.count_nonzero(flag & (label.take(graph.nbr) == label[:, None]), axis=1)[members]
    top = np.zeros(n, dtype=inside.dtype)
    np.maximum.at(top, group, inside)
    ids = members.tolist()
    cuts = np.flatnonzero(np.diff(group, prepend=-1)).tolist()
    lead = np.flatnonzero(inside == top[group])
    lead_ids = members[lead].tolist()
    lead_cuts = np.searchsorted(lead, cuts).tolist()
    clusters = [tuple(ids[a:b]) for a, b in zip(cuts, cuts[1:] + [len(ids)])]
    leaders = [tuple(lead_ids[a:b]) for a, b in zip(lead_cuts, lead_cuts[1:] + [len(lead_ids)])]

    snapshot = ClusterSnapshot(round=rnd, clusters=clusters, leaders=leaders)
    graph.solved = (flag.copy(), frozenset(excluded), snapshot)
    graph.label = label
    graph._leaders = {c[0]: leads for c, leads in zip(clusters, leaders)}
    return snapshot
