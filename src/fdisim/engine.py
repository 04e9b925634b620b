"""Deterministic round-based world: node placement, unit-disk adjacency,
per-round data-message exchange, alert propagation, leader election and
cluster snapshotting.

Each receiver's neighbor state lives in ``(n, maxdeg)`` arrays indexed by
adjacency slot: slot k of row i belongs to node i's k-th lowest neighbor id.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import chain
from typing import AbstractSet, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from .attacks import AttackConfig, GroundTruth, attack_is_active, forge_reading, select_attackers
# build_data_message, handle_data_message, prune_ids, transition_label and
# validate_data_message are not called here; the names stay imported
# because the benchmark's tracing wraps them in this namespace by name
from .clustering import (ClusterConfig, ClusterSnapshot, build_data_message, extract_clusters,
                         handle_data_message, prune_ids)
from .detection import (BlacklistEntry, DetectionConfig, SuspectEntry,
                        SuspectOutcome, build_consensus_region, handle_alert, process_suspect)
from .domain import AlertMessage, require_finite, transition_label, validate_data_message
from .metrics import (ConfusionCounts, MetricsReport, build_report, cluster_availability,
                      compute_confusion)
from .sensing import FieldConfig, SynthField, TraceError, load_trace

EVENT_DM_SENT = "dm_sent"
EVENT_DM_DISCARDED = "dm_discarded"
EVENT_SUSPECT_ADDED = "suspect_added"
EVENT_SUSPECT_CLEARED = "suspect_cleared"
EVENT_ATTACKER_DETECTED = "attacker_detected"
EVENT_ALERT_FORWARDED = "alert_forwarded"
EVENT_NODE_EXCLUDED = "node_excluded"

# cells of one row block of the pairwise-distance computation and of phase 2
_ADJACENCY_BLOCK_CELLS = 1 << 14
# last-seen round of a slot that holds no record
NO_RECORD = -1


class ConfigError(Exception):
    pass


@dataclass
class ScenarioConfig:
    n_nodes: int = 100
    area_width_m: float = 200.0
    area_height_m: float = 200.0
    tx_radius_m: float = 100.0
    n_rounds: int = 600
    attacker_fraction: float = 0.1
    seed: int = 1
    crash_fraction: float = 0.0
    crash_round: int = 0
    trace_path: Optional[str] = None
    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    detection: DetectionConfig = field(default_factory=DetectionConfig)
    attack: AttackConfig = field(default_factory=AttackConfig)
    sensing: FieldConfig = field(default_factory=FieldConfig)

    def validate(self) -> None:
        if self.n_nodes < 2:
            raise ConfigError("n_nodes must be >= 2")
        if self.n_rounds < 1:
            raise ConfigError("n_rounds must be >= 1")
        if self.area_width_m <= 0 or self.area_height_m <= 0:
            raise ConfigError("area dimensions must be > 0")
        if self.tx_radius_m <= 0:
            raise ConfigError("tx_radius_m must be > 0")
        if not 0.0 <= self.attacker_fraction < 1.0:
            raise ConfigError("attacker_fraction must be in [0, 1)")
        if not 0.0 <= self.crash_fraction < 1.0:
            raise ConfigError("crash_fraction must be in [0, 1)")
        if self.crash_round < 0:
            raise ConfigError("crash_round must be >= 0")
        try:
            require_finite(self, "area_width_m", "area_height_m", "tx_radius_m")
            self.cluster.validate()
            self.detection.validate()
            self.attack.validate()
            self.sensing.validate()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None


class NeighborSlots:
    """Every receiver's neighbor state, as ``(n, maxdeg)`` arrays indexed by
    adjacency slot: the record (``rec_x``, ``rec_a``, ``rec_c`` and ``seen``:
    reading, aggregate, count and last-seen round), the similar flag, and
    whether the receiver blacklists or suspects that neighbor. ``sum_aw``
    and ``sum_w`` are each receiver's running sums of aggregate * count and
    of count over its similar slots."""

    def __init__(self, adjacency: List[List[int]]) -> None:
        n = len(adjacency)
        self.adjacency = adjacency
        degree = np.fromiter(map(len, adjacency), dtype=np.intp, count=n)
        shape = (n, max(1, int(degree.max())))
        real = np.arange(shape[1]) < degree[:, None]
        self.nbr = np.zeros(shape, dtype=np.intp)
        self.nbr[real] = np.fromiter(chain.from_iterable(adjacency), dtype=np.intp,
                                     count=int(degree.sum()))
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

    def slot(self, i: int, j: int) -> Optional[int]:
        """Node j's slot in node i's row, or None when they are not adjacent."""
        neigh = self.adjacency[i]
        k = bisect_left(neigh, j)
        return k if k < len(neigh) and neigh[k] == j else None


class SlotTable:
    """One receiver's neighbor table as a view of its row of the slot
    arrays, with the members detection uses of a NeighborTable: ``similar``,
    ``reading`` and ``remove``. The engine keeps ``similar`` equal to the
    ids whose similar flag is set."""

    __slots__ = ("slots", "row", "similar")

    def __init__(self, slots: NeighborSlots, row: int) -> None:
        self.slots = slots
        self.row = row
        self.similar: Set[int] = set()

    def reading(self, sender: int) -> float:
        """The individual reading of the record held of a neighbor."""
        s, i = self.slots, self.row
        return s.rec_x.item(i, bisect_left(s.adjacency[i], sender))

    def remove(self, sender: int) -> None:
        """Forget a neighbor entirely (blacklist purge, staleness)."""
        s, i = self.slots, self.row
        k = s.slot(i, sender)
        if k is None:
            return
        if s.flag[i, k]:
            s.flag[i, k] = False
            s.sum_aw[i] -= s.rec_a[i, k] * s.rec_c[i, k]
            s.sum_w[i] -= s.rec_c[i, k]
        self.similar.discard(sender)
        s.seen[i, k] = NO_RECORD


class NodeState:
    """One node's protocol state; its neighbor table is a view of its row of
    the world's slot arrays."""

    __slots__ = ("node_id", "table", "suspects", "blacklist", "known_leaders",
                 "current_reading")

    def __init__(self, node_id: int, table: SlotTable) -> None:
        self.node_id = node_id
        self.table = table
        self.suspects: Dict[int, SuspectEntry] = {}
        self.blacklist: Dict[int, BlacklistEntry] = {}
        self.known_leaders: AbstractSet[int] = frozenset()
        self.current_reading = 0.0


@dataclass(slots=True)
class DetectionRecord:
    """One conviction, with the consensus spreads that produced it."""

    round: int
    detector: int
    attacker: int
    reading: float
    region_sd: float
    combined_sd: float


@dataclass
class RunResult:
    seed: int
    snapshots: List[ClusterSnapshot]
    events: List[Tuple]  # (round, event, node, subject, value)
    detections: List[DetectionRecord]
    availability: List[Tuple[int, int, int]]
    blacklisted_counts: List[int]
    node_blacklists: List[Dict[int, BlacklistEntry]]
    confusion: ConfusionCounts
    report: MetricsReport
    total_interactions: int
    ground_truth: GroundTruth


def place_nodes(cfg: ScenarioConfig, rng: random.Random) -> List[Tuple[float, float]]:
    """Independent uniform placement over the rectangle; fixed thereafter."""
    return [(rng.uniform(0.0, cfg.area_width_m), rng.uniform(0.0, cfg.area_height_m))
            for _ in range(cfg.n_nodes)]


def compute_adjacency(positions: Sequence[Tuple[float, float]],
                      tx_radius_m: float) -> List[List[int]]:
    """Unit-disk neighbor lists, each in ascending id order: an edge iff
    distance <= radius (inclusive).

    Squared distances are taken over blocks of rows, so memory stays at
    about ``_ADJACENCY_BLOCK_CELLS`` floats per array whatever the node count.
    """
    n = len(positions)
    r2 = tx_radius_m * tx_radius_m
    xs = np.array([p[0] for p in positions], dtype=float)
    ys = np.array([p[1] for p in positions], dtype=float)
    step = max(1, _ADJACENCY_BLOCK_CELLS // max(n, 1))
    adjacency: List[List[int]] = []
    for lo in range(0, n, step):
        hi = min(n, lo + step)
        # dx * dx + dy * dy, squared and summed in place
        d2 = xs[lo:hi, None] - xs
        d2 *= d2
        dy = ys[lo:hi, None] - ys
        dy *= dy
        d2 += dy
        within = d2 <= r2
        rows = np.arange(hi - lo)
        within[rows, rows + lo] = False  # no self edges
        adjacency.extend(np.flatnonzero(row).tolist() for row in within)
    return adjacency


class WorldState:
    """Everything one run mutates, round by round."""

    def __init__(self, cfg: ScenarioConfig, adjacency, ground_truth: GroundTruth,
                 source, crashed: Set[int]) -> None:
        self.cfg = cfg
        self.adjacency = adjacency
        self.ground_truth = ground_truth
        self.source = source
        self.crashed = crashed
        self.slots = NeighborSlots(adjacency)
        self.states = [NodeState(i, SlotTable(self.slots, i)) for i in range(cfg.n_nodes)]
        self.round = 0
        self.pending_alerts: List[Tuple[AlertMessage, int]] = []
        self.excluded: Set[int] = set()
        self.blacklisted_union: Set[int] = set()
        self.global_leaders: Set[int] = set()
        # per target: adjacent nodes currently blacklisting it (global
        # exclusion trips when this covers the whole neighborhood)
        self.blacklister_count: Dict[int, int] = {}
        self.total_interactions = 0
        self.events: List[Tuple] = []
        self.snapshots: List[ClusterSnapshot] = []
        self.detections: List[DetectionRecord] = []
        self.blacklisted_counts: List[int] = []
        self._forge_rngs: Dict[int, random.Random] = {}
        self._bl_touched: Set[int] = set()

    def forge_rng(self, node_id: int) -> random.Random:
        rng = self._forge_rngs.get(node_id)
        if rng is None:
            rng = random.Random(f"{self.cfg.seed}/forge/{node_id}")
            self._forge_rngs[node_id] = rng
        return rng

    def node_is_dead(self, node_id: int) -> bool:
        return node_id in self.crashed and self.round >= self.cfg.crash_round

    def live_mask(self) -> np.ndarray:
        """True for every node that is neither excluded nor dead."""
        live = np.ones(self.cfg.n_nodes, dtype=bool)
        live[list(self.excluded)] = False
        if self.round >= self.cfg.crash_round:
            live[list(self.crashed)] = False
        return live

    def _note_blacklisted(self, observer: int, target: int) -> None:
        self.blacklisted_union.add(target)
        k = self.slots.slot(observer, target)
        if k is not None:
            self.slots.blocked[observer, k] = True
            self.slots.suspected[observer, k] = False
            self.blacklister_count[target] = self.blacklister_count.get(target, 0) + 1
            self._bl_touched.add(target)


def _deliver_alert(world: WorldState, receiver: int, am: AlertMessage, rnd: int) -> bool:
    """Apply one alert at one node; returns True when it must be flooded.

    A crashed node takes no alert: the leader lists come from the previous
    round's snapshot and can still name it in its crash round.
    """
    st = world.states[receiver]
    if am.attacker in st.blacklist or world.node_is_dead(receiver):
        return False
    forward = handle_alert(st, am, receiver in world.global_leaders, rnd)
    if am.attacker not in st.blacklist:
        return False  # alert failed validation; nothing applied
    world._note_blacklisted(receiver, am.attacker)
    return forward


def _solve(aw0, w0, own, x, a, c, old_a, old_c, prev, part, cthresh):
    """Similarity verdicts and running sums of sequential passes over rows
    of slots, each row a receiver with starting sums ``aw0`` and ``w0``.

    At a slot that takes part (``part``) the pass first refreshes a sender
    that was similar (adding its new a*c minus its old one) and takes the
    verdict, then adds a*c to the sums if the sender enters the similar set
    or subtracts it if it leaves. These two deltas per slot are laid out
    along the row, -0.0 where the pass does nothing (x + -0.0 is x for
    every double), and summed with ``np.cumsum``, a sequential add: the
    same IEEE additions in the same order as a slot-by-slot loop. Only the
    second delta depends on a verdict, so verdicts are guessed (last
    round's flags first), recomputed from the sums and guessed again until
    no guess changes. A row is exact up to its first wrong guess, whose
    recomputed verdict is then right, so this ends within width + 1 rounds
    of guessing.

    Returns the verdicts (meaningful where ``part``) and the cumulative sums:
    column 2k + 1 holds the sums the verdict of slot k was taken with, and
    column 2k + 2 the sums after slot k.
    """
    rows, width = x.shape
    ac = a * c
    seq_aw = np.empty((rows, 2 * width + 1))
    seq_w = np.empty((rows, 2 * width + 1))
    seq_aw[:, 0] = aw0
    seq_w[:, 0] = w0
    kept = part & prev
    seq_aw[:, 1::2] = np.where(kept, ac - old_a * old_c, -0.0)
    seq_w[:, 1::2] = np.where(kept, c - old_c, -0.0)
    flip_aw = np.where(prev, -ac, ac)
    flip_w = np.where(prev, -c, c)
    close = np.abs(own[:, None] - a) < cthresh
    guess = prev
    while True:
        flips = part & (guess != prev)
        seq_aw[:, 2::2] = np.where(flips, flip_aw, -0.0)
        seq_w[:, 2::2] = np.where(flips, flip_w, -0.0)
        cum_aw = np.cumsum(seq_aw, axis=1)
        cum_w = np.cumsum(seq_w, axis=1)
        verdict = np.abs(x - (own[:, None] + cum_aw[:, 1::2]) / (1.0 + cum_w[:, 1::2])) < cthresh
        verdict &= close
        if not (part & (verdict != guess)).any():
            return verdict, cum_aw, cum_w
        guess = verdict


class _Block:
    """Phase 2 of one round over the receiver rows from ``lo``: each slot's
    message (``x``, ``a``, ``c``), which slots take part or are discarded,
    the pass-start flags and suspicions, the solved verdicts and sums, and
    the readings and last-seen rounds the records end the pass with."""

    __slots__ = ("lo", "own", "nbr", "x", "a", "c", "prev", "part", "discarded",
                 "suspected", "verdict", "cum_aw", "cum_w", "rec_x", "seen", "steady", "moved")

    def walk_entries(self, cells: np.ndarray) -> List[tuple]:
        """Per given cell (row * width + slot): the slot, the sender, its
        reading, the verdict, whether the sender was suspected and whether
        its message was discarded."""
        return list(zip((cells % self.nbr.shape[1]).tolist(), self.nbr.take(cells).tolist(),
                        self.x.take(cells).tolist(), self.verdict.take(cells).tolist(),
                        self.suspected.take(cells).tolist(),
                        self.discarded.take(cells).tolist()))

    def note_verdicts(self) -> None:
        """Per slot, the similar, unsuspected slots below it, and whether
        the pass changes the slot's flag."""
        self.steady = np.cumsum(self.part & self.verdict & ~self.suspected, axis=1)
        self.moved = self.part & (self.verdict != self.prev)


def _exchange(world: WorldState, cfg: ScenarioConfig) -> Tuple[List[AlertMessage], List[int]]:
    """Phases 1 and 2 of a round: every live node broadcasts once, then every
    live receiver takes in its neighbors' messages in slot order.

    Returns the alerts raised by this round's convictions and the ids of the
    nodes whose message no receiver took in: those that sent nothing and
    those whose message was discarded.
    """
    rnd = world.round
    n = cfg.n_nodes
    states = world.states
    slots = world.slots
    cthresh = cfg.cluster.cthresh
    attackers = world.ground_truth.attackers
    live = world.live_mask()
    own = world.source.values[rnd]

    # phase 1: every live node's message, as arrays by sender
    aggregate = (own + slots.sum_aw) / (1.0 + slots.sum_w)
    reading = own.copy()
    ids = np.flatnonzero(live).tolist()
    for i, value in zip(ids, own[live].tolist()):
        states[i].current_reading = value
    if attackers and attack_is_active(rnd, cfg.attack):
        for i in sorted(attackers):
            if live[i]:
                reading[i] = forge_reading(float(own[i]), float(aggregate[i]), cfg.attack,
                                           cthresh, world.forge_rng(i))
    world.events.extend([(rnd, EVENT_DM_SENT, i, None, x)
                         for i, x in zip(ids, reading[live].tolist())])
    valid = live & np.isfinite(reading) & np.isfinite(aggregate)
    count = np.count_nonzero(slots.flag, axis=1).astype(float)

    # phase 2, one block of receiver rows at a time: the similarity passes
    # are solved for the whole block, then each watching receiver walks its
    # dissimilar and suspected slots through detection, and every receiver
    # its discarded ones
    watch = live.copy()
    watch[list(attackers)] = False
    if not cfg.detection.detection_enabled:
        watch[:] = False
    step = max(1, _ADJACENCY_BLOCK_CELLS // slots.nbr.shape[1])
    fresh_alerts: List[AlertMessage] = []
    for lo in range(0, n, step):
        hi = min(n, lo + step)
        if not live[lo:hi].any():
            continue
        b = _Block()
        b.lo, b.own = lo, own[lo:hi]
        b.nbr = nbr = slots.nbr[lo:hi]
        heard = ~slots.blocked[lo:hi] & live[lo:hi, None]
        ok = valid[nbr]
        b.part = part = ok & heard
        b.discarded = live[nbr] & ~ok & heard
        b.x, b.a, b.c = reading[nbr], aggregate[nbr], count[nbr]
        b.prev = prev = slots.flag[lo:hi].copy()
        b.suspected = slots.suspected[lo:hi].copy()
        b.verdict, b.cum_aw, b.cum_w = _solve(
            slots.sum_aw[lo:hi], slots.sum_w[lo:hi], b.own, b.x, b.a, b.c,
            slots.rec_a[lo:hi], slots.rec_c[lo:hi], prev, part, cthresh)
        world.total_interactions += int(np.count_nonzero(part))
        b.rec_x = np.where(part, b.x, slots.rec_x[lo:hi])
        b.seen = np.where(part, rnd, slots.seen[lo:hi])
        walk = part & (~b.verdict | b.suspected)
        walk &= watch[lo:hi, None]
        walk |= b.discarded
        cells = np.flatnonzero(walk)
        if cells.size:
            b.note_verdicts()
            entries = b.walk_entries(cells)
            rows = cells // nbr.shape[1]
            starts = np.flatnonzero(np.diff(rows, prepend=-1)).tolist()
            for first, end in zip(starts, starts[1:] + [len(entries)]):
                _walk_row(world, cfg, b, int(rows[first]), entries[first:end], fresh_alerts)
        # the receivers keep the state their passes end with
        flag = np.where(part, b.verdict, prev)
        slots.flag[lo:hi] = flag
        slots.rec_x[lo:hi] = b.rec_x
        np.copyto(slots.rec_a[lo:hi], b.a, where=part)
        np.copyto(slots.rec_c[lo:hi], b.c, where=part)
        slots.seen[lo:hi] = b.seen
        np.copyto(slots.sum_aw[lo:hi], b.cum_aw[:, -1], where=live[lo:hi])
        np.copyto(slots.sum_w[lo:hi], b.cum_w[:, -1], where=live[lo:hi])
        rows, cols = np.nonzero(flag != prev)
        for r, j, on in zip(rows.tolist(), nbr[rows, cols].tolist(), flag[rows, cols].tolist()):
            similar = states[lo + r].table.similar
            if on:
                similar.add(j)
            else:
                similar.discard(j)
    return fresh_alerts, np.flatnonzero(~valid).tolist()


def _walk_row(world: WorldState, cfg: ScenarioConfig, b: _Block, r: int, entries: List[tuple],
              fresh_alerts: List[AlertMessage]) -> None:
    """Take row r's walk ``entries`` in slot order: a discard event for a
    discarded message, detection for a dissimilar or suspected sender.

    Detection sees the receiver as its sequential pass has it at the slot:
    this round's records and flags at or below the slot, last round's above
    it. Readings and the similar set are brought up to the slot before a
    consensus region is built; the running sums in ``slots`` are stale until
    the block ends. The region is kept until one of its inputs changes: a
    similar, unsuspected slot within its reach is refreshed or enters, a
    member turns dissimilar, or a suspect is cleared.
    """
    rnd = world.round
    slots = world.slots
    i = b.lo + r
    st = world.states[i]
    events = world.events
    dcfg = cfg.detection
    own = st.current_reading
    pending = SuspectOutcome.PENDING
    region = None
    reach = 0      # similar slots below this one are in the region or can enter it
    last = -1      # the slot walked last
    synced = 0     # readings and similar set are current below this slot
    steady = None  # per slot: similar, unsuspected slots below it
    moved = None   # slots from synced on whose flag this pass changes, last first
    while entries:
        todo, entries = entries, None
        for k, j, x, similar_now, suspected, discarded in todo:
            if discarded:
                events.append((rnd, EVENT_DM_DISCARDED, i, j, None))
                continue
            if region is not None:
                end = k if k < reach else reach
                if j in region.ids:
                    region = None
                elif end > last + 1:
                    if steady is None:
                        steady = [0] + b.steady[r].tolist()
                    if steady[end] > steady[last + 1]:
                        region = None
            last = k
            if region is None and suspected:
                slots.rec_x[i, synced:k + 1] = b.rec_x[r, synced:k + 1]
                if moved is None:
                    moved = (np.flatnonzero(b.moved[r, synced:]) + synced).tolist()[::-1]
                while moved and moved[-1] <= k:
                    t = moved.pop()
                    if b.verdict[r, t]:
                        st.table.similar.add(b.nbr.item(r, t))
                    else:
                        st.table.similar.discard(b.nbr.item(r, t))
                synced = k + 1
                region = build_consensus_region(st, own, dcfg.region_cap)
                reach = (slots.slot(i, region.ids[-1]) + 1
                         if len(region.ids) == dcfg.region_cap else b.nbr.shape[1])
            outcome, am, res = process_suspect(st, j, x, similar_now, region, dcfg, rnd)
            if outcome is pending:
                continue
            if outcome is SuspectOutcome.ADDED:
                events.append((rnd, EVENT_SUSPECT_ADDED, i, j, x))
                slots.suspected[i, k] = True
            elif outcome is SuspectOutcome.CLEARED:
                events.append((rnd, EVENT_SUSPECT_CLEARED, i, j, x))
                slots.suspected[i, k] = False
                region = None  # eligible again if similar
            else:
                events.append((rnd, EVENT_ATTACKER_DETECTED, i, j, x))
                world._note_blacklisted(i, j)
                world.detections.append(DetectionRecord(rnd, i, j, x, res.region_sd,
                                                        res.combined_sd))
                fresh_alerts.append(am)
                b.verdict[r, k] = False
                b.seen[r, k] = NO_RECORD
                if similar_now:
                    entries = _solve_rest(b, r, k, slots, cfg.cluster.cthresh)
                    steady = moved = None
                    break


def _solve_rest(b: _Block, r: int, k: int, slots: NeighborSlots, cthresh: float) -> List[tuple]:
    """Solve row r again past slot k, whose sender was convicted while
    similar: its a*c leaves the sums after the slot. Returns the walk
    entries past slot k."""
    i = b.lo + r
    s = k + 1
    v, cum_aw, cum_w = _solve(b.cum_aw[r, 2 * k + 2] - b.a[r, k] * b.c[r, k],
                              b.cum_w[r, 2 * k + 2] - b.c[r, k], b.own[r:r + 1],
                              b.x[r:r + 1, s:], b.a[r:r + 1, s:], b.c[r:r + 1, s:],
                              slots.rec_a[i:i + 1, s:], slots.rec_c[i:i + 1, s:],
                              b.prev[r:r + 1, s:], b.part[r:r + 1, s:], cthresh)
    b.verdict[r, s:] = v[0]
    b.cum_aw[r, 2 * s:] = cum_aw[0]
    b.cum_w[r, 2 * s:] = cum_w[0]
    b.note_verdicts()
    cols = np.flatnonzero(b.part[r, s:] & (~v[0] | b.suspected[r, s:]) | b.discarded[r, s:])
    return b.walk_entries(r * b.nbr.shape[1] + s + cols)


def run_round(world: WorldState, cfg: ScenarioConfig) -> None:
    rnd = world.round
    states = world.states
    events = world.events
    n = cfg.n_nodes

    fresh_alerts, unheard = _exchange(world, cfg)

    # phase 3: alert delivery; scheduled floods first, then fresh detections
    if world.pending_alerts:
        due = [am for am, when in world.pending_alerts if when <= rnd]
        world.pending_alerts = [(am, when) for am, when in world.pending_alerts if when > rnd]
        leaders = sorted(world.global_leaders)
        for am in due:
            for target in leaders:
                if _deliver_alert(world, target, am, rnd):
                    world.pending_alerts.append((am, rnd + 1))
                    events.append((rnd, EVENT_ALERT_FORWARDED, target, am.attacker,
                                   am.attacker_reading))
    for am in fresh_alerts:
        # a detector that is itself a leader puts the alert on the overlay
        if am.detector in world.global_leaders:
            world.pending_alerts.append((am, rnd + 1))
            events.append((rnd, EVENT_ALERT_FORWARDED, am.detector, am.attacker,
                           am.attacker_reading))
        for target in sorted(states[am.detector].known_leaders):
            if target == am.detector:
                continue
            if _deliver_alert(world, target, am, rnd):
                world.pending_alerts.append((am, rnd + 1))
                events.append((rnd, EVENT_ALERT_FORWARDED, target, am.attacker,
                               am.attacker_reading))

    # newly silenced nodes: excluded once every neighbor blacklists them
    if world._bl_touched:
        for target in sorted(world._bl_touched):
            if target in world.excluded:
                continue
            degree = len(world.adjacency[target])
            if degree > 0 and world.blacklister_count.get(target, 0) >= degree:
                world.excluded.add(target)
                events.append((rnd, EVENT_NODE_EXCLUDED, target, None, None))
        world._bl_touched.clear()

    # phase 4: TTL maintenance; only unheard senders can have gone stale, and
    # a live receiver drops its stale records in slot order
    if unheard:
        slots = world.slots
        stale = slots.seen < rnd - cfg.cluster.neighbor_ttl_rounds
        stale &= world.live_mask()[:, None]
        rows, _ = np.nonzero(stale & slots.flag)
        for i, j in zip(rows.tolist(), slots.nbr[stale & slots.flag].tolist()):
            states[i].table.remove(j)
        slots.seen[stale] = NO_RECORD

    # phase 5: election and snapshot over globally non-blacklisted nodes;
    # dead nodes hold frozen state and cannot be cluster participants
    similar_sets = {i: states[i].table.similar for i in range(n)}
    snapshot_excluded = world.blacklisted_union
    if world.crashed and rnd >= cfg.crash_round:
        snapshot_excluded = snapshot_excluded | world.crashed
    snapshot = extract_clusters(similar_sets, rnd, excluded=snapshot_excluded)
    world.snapshots.append(snapshot)
    world.blacklisted_counts.append(len(world.blacklisted_union))
    world.global_leaders = set()
    for st in states:
        st.known_leaders = frozenset()
    for members, leads in zip(snapshot.clusters, snapshot.leaders):
        lead_set = set(leads)
        world.global_leaders.update(lead_set)
        for m in members:
            states[m].known_leaders = lead_set

    world.round += 1


def run_scenario(cfg: ScenarioConfig) -> RunResult:
    """Execute one full run; byte-identical output for equal (config, seed)."""
    cfg.validate()
    seed = cfg.seed
    place_rng = random.Random(f"{seed}/place")
    positions = place_nodes(cfg, place_rng)
    adjacency = compute_adjacency(positions, cfg.tx_radius_m)

    if cfg.trace_path is not None:
        source = load_trace(cfg.trace_path)
        if source.n_nodes != cfg.n_nodes:
            raise TraceError(f"trace covers {source.n_nodes} nodes, config expects {cfg.n_nodes}")
        if source.n_rounds < cfg.n_rounds:
            raise TraceError(f"trace covers {source.n_rounds} rounds, "
                             f"config expects {cfg.n_rounds}")
    else:
        source = SynthField(cfg.sensing, positions, cfg.n_rounds, seed)

    gt_rng = random.Random(f"{seed}/attackers")
    ground_truth = select_attackers(cfg.n_nodes, cfg.attacker_fraction, gt_rng)

    crashed: Set[int] = set()
    if cfg.crash_fraction > 0:
        crash_rng = random.Random(f"{seed}/crash")
        count = round(cfg.crash_fraction * cfg.n_nodes)
        if count:
            crashed = set(crash_rng.sample(range(cfg.n_nodes), count))

    world = WorldState(cfg, adjacency, ground_truth, source, crashed)
    # overflowing readings turn sums to inf and nan, silently, as with floats
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(cfg.n_rounds):
            run_round(world, cfg)

    confusion = compute_confusion(ground_truth, world.blacklisted_union,
                                  world.total_interactions)
    availability = cluster_availability(world.snapshots, ground_truth)
    report = build_report(confusion, availability)
    return RunResult(
        seed=seed,
        snapshots=world.snapshots,
        events=world.events,
        detections=world.detections,
        availability=availability,
        blacklisted_counts=world.blacklisted_counts,
        node_blacklists=[st.blacklist for st in world.states],
        confusion=confusion,
        report=report,
        total_interactions=world.total_interactions,
        ground_truth=ground_truth,
    )
