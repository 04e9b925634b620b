"""Deterministic round-based world: node placement, unit-disk adjacency,
per-round data-message exchange, alert propagation, leader election and
cluster snapshotting."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import AbstractSet, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from .attacks import AttackConfig, GroundTruth, attack_is_active, forge_reading, select_attackers
# handle_data_message (phase 2 inlines it) and transition_label are not
# called here; the names stay imported because the benchmark's tracing wraps
# them in this namespace by name
from .clustering import (ClusterConfig, ClusterSnapshot, NeighborRecord, NeighborTable,
                         build_data_message, extract_clusters, handle_data_message, prune_ids)
from .detection import (BlacklistEntry, DetectionConfig, SuspectEntry,
                        SuspectOutcome, build_consensus_region, handle_alert, process_suspect)
from .domain import (AlertMessage, DataMessage, require_finite, transition_label,
                     validate_data_message)
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

# cells of one row block of the pairwise-distance computation
_ADJACENCY_BLOCK_CELLS = 1 << 14


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


class NodeState:
    """One node's protocol state."""

    __slots__ = ("node_id", "table", "suspects", "blacklist", "known_leaders",
                 "current_reading")

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        self.table = NeighborTable()
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
        n = cfg.n_nodes
        self.cfg = cfg
        self.adjacency = adjacency
        self.adjacency_sets = [set(neigh) for neigh in adjacency]
        self.ground_truth = ground_truth
        self.source = source
        self.crashed = crashed
        self.states = [NodeState(i) for i in range(n)]
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

    def _note_blacklisted(self, observer: int, target: int) -> None:
        self.blacklisted_union.add(target)
        if observer in self.adjacency_sets[target]:
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


def _exchange(world: WorldState, cfg: ScenarioConfig) -> Tuple[List[AlertMessage], List[int]]:
    """Phases 1 and 2 of a round: every live node broadcasts once, then every
    live receiver takes in its neighbors' messages in adjacency order.

    Returns the alerts raised by this round's convictions and the ids of the
    nodes whose message no receiver took in: those that sent nothing and
    those whose message was discarded.
    """
    rnd = world.round
    states = world.states
    events = world.events
    gt = world.ground_truth
    excluded = world.excluded
    dcfg = cfg.detection
    acfg = cfg.attack
    cthresh = cfg.cluster.cthresh
    detection_on = dcfg.detection_enabled
    n = cfg.n_nodes

    # phase 1: every live, non-excluded node broadcasts one data message,
    # kept as parallel per-sender lists; None marks a node that sent nothing
    readings: List[Optional[float]] = [None] * n
    aggregates = [0.0] * n
    counts = [0] * n
    valid = [False] * n
    for i in range(n):
        if i in excluded or world.node_is_dead(i):
            continue
        st = states[i]
        true_reading = world.source.reading(i, rnd)
        st.current_reading = true_reading
        dm = build_data_message(i, true_reading, st.table)
        if gt.is_attacker(i) and attack_is_active(rnd, acfg):
            forged = forge_reading(true_reading, dm.aggregate_reading, acfg, cthresh,
                                   world.forge_rng(i))
            dm = DataMessage(i, forged, dm.aggregate_reading, dm.neighbor_count)
        readings[i] = dm.individual_reading
        aggregates[i] = dm.aggregate_reading
        counts[i] = dm.neighbor_count
        valid[i] = validate_data_message(dm)
        events.append((rnd, EVENT_DM_SENT, i, None, dm.individual_reading))

    # phase 2: in-range delivery and per-receiver processing. This is
    # handle_data_message inlined, with the same IEEE operations in the same
    # order; the table's running sums live in locals for the receiver's pass
    # and go back to the table around process_suspect, which can remove a
    # record and so change them. A watching receiver keeps its consensus
    # region until one of its inputs changes: the similar set, the suspects,
    # the blacklist or the record of an id in it (its own reading is fixed
    # for the pass). A sender above region_max is not in the region and
    # cannot enter it.
    cap = dcfg.region_cap
    fresh_alerts: List[AlertMessage] = []
    interactions = 0
    for i in range(n):
        if i in excluded or world.node_is_dead(i):
            continue
        st = states[i]
        blacklist = st.blacklist
        suspects = st.suspects
        table = st.table
        records = table.records
        similar = table.similar
        sum_aw = table._sum_aw
        sum_w = table._sum_w
        own = st.current_reading
        watch = detection_on and not gt.is_attacker(i)
        region = None
        region_max = -1
        for j in world.adjacency[i]:
            x = readings[j]
            if x is None or j in blacklist:
                continue
            if not valid[j]:
                events.append((rnd, EVENT_DM_DISCARDED, i, j, None))
                continue
            interactions += 1
            a = aggregates[j]
            c = counts[j]
            rec = records.get(j)
            if rec is None:
                records[j] = NeighborRecord(x, a, c, rnd)
            else:
                if j in similar:
                    sum_aw += a * c - rec.aggregate_reading * rec.neighbor_count
                    sum_w += c - rec.neighbor_count
                rec.individual_reading = x
                rec.aggregate_reading = a
                rec.neighbor_count = c
                rec.last_seen_round = rnd
            verdict = (abs(x - (own + sum_aw) / (1.0 + sum_w)) < cthresh
                       and abs(own - a) < cthresh)
            if verdict:
                if j not in similar:
                    similar.add(j)
                    sum_aw += a * c
                    sum_w += c
            elif j in similar:
                similar.discard(j)
                sum_aw -= a * c
                sum_w -= c
            if not watch:
                continue
            if verdict and j not in suspects:
                if j <= region_max:
                    region = None  # refreshed in the region, or entering it
                continue
            if region is not None and j in region.ids:
                region = None  # dropped from the similar set
            if region is None and j in suspects:
                region = build_consensus_region(st, own, cap)
                region_max = region.ids[-1] if len(region.ids) == cap else n
            table._sum_aw = sum_aw
            table._sum_w = sum_w
            outcome, am, res = process_suspect(st, j, x, verdict, region, dcfg, rnd)
            sum_aw = table._sum_aw
            sum_w = table._sum_w
            # an added suspect is dissimilar and a convicted one was
            # suspected: the region leaves both out before and after
            if outcome is SuspectOutcome.ADDED:
                events.append((rnd, EVENT_SUSPECT_ADDED, i, j, x))
            elif outcome is SuspectOutcome.CLEARED:
                events.append((rnd, EVENT_SUSPECT_CLEARED, i, j, x))
                region = None  # eligible again if similar
            elif outcome is SuspectOutcome.DETECTED:
                events.append((rnd, EVENT_ATTACKER_DETECTED, i, j, x))
                world._note_blacklisted(i, j)
                world.detections.append(DetectionRecord(
                    rnd, i, j, x, res.region_sd, res.combined_sd))
                fresh_alerts.append(am)
            # PENDING keeps the suspect unchanged
        table._sum_aw = sum_aw
        table._sum_w = sum_w
    world.total_interactions += interactions
    return fresh_alerts, [j for j in range(n) if not valid[j]]


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

    # phase 4: TTL maintenance; only unheard senders can have gone stale
    if unheard:
        for i in range(n):
            if i in world.excluded or world.node_is_dead(i):
                continue
            prune_ids(states[i].table, unheard, rnd, cfg.cluster)

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
