"""Deterministic round-based world: node placement, unit-disk adjacency,
per-round data-message exchange, alert propagation, leader election and
cluster snapshotting.

Each receiver's neighbor state lives in the ``(n, maxdeg)`` slot arrays of
``clustering.NeighborSlots``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import repeat
from typing import AbstractSet, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from .attacks import AttackConfig, GroundTruth, attack_is_active, forge_reading, select_attackers
# build_consensus_region, build_data_message, handle_data_message,
# process_suspect, prune_ids, transition_label and validate_data_message are
# not called here; the names stay imported because the benchmark's tracing
# wraps them in this namespace by name
from .clustering import (NO_RECORD, ClusterConfig, ClusterSnapshot, NeighborSlots,
                         build_data_message, extract_clusters, handle_data_message, prune_ids)
from .detection import (ADDED, CLEARED, DETECTED, BlacklistEntry, DetectionConfig,
                        build_consensus_region, consensus_verdicts, handle_alert,
                        process_suspect)
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
# what a phase-2 slot logs beside detection's codes (PENDING logs nothing)
_DISCARDED = 4
# the event a phase-2 slot logs, indexed by detection's codes and _DISCARDED
_EVENT_NAMES = (None, EVENT_SUSPECT_CLEARED, EVENT_ATTACKER_DETECTED, EVENT_SUSPECT_ADDED,
                EVENT_DM_DISCARDED)


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
            require_finite(self)
            self.cluster.validate()
            self.detection.validate()
            self.attack.validate()
            self.sensing.validate()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None


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
    ids = np.arange(n)
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
        adjacency.extend(ids[row].tolist() for row in within)
    return adjacency


class WorldState:
    """Everything one run mutates, round by round. A node's neighbor
    records, similar flags and suspects live in its row of the slot arrays;
    ``blacklists[i]`` holds node i's blacklist entries."""

    def __init__(self, cfg: ScenarioConfig, adjacency, ground_truth: GroundTruth,
                 source, crashed: Set[int]) -> None:
        self.cfg = cfg
        self.ground_truth = ground_truth
        self.source = source
        self.crashed = crashed
        self.slots = NeighborSlots(adjacency)
        self.blacklists: List[Dict[int, BlacklistEntry]] = [{} for _ in range(cfg.n_nodes)]
        self.round = 0
        # the alerts this round's leaders forward, flooded to every leader next round
        self.pending_alerts: List[AlertMessage] = []
        self.excluded: Set[int] = set()
        self.blacklisted_union: Set[int] = set()
        self.global_leaders: Set[int] = set()
        self.total_interactions = 0
        self.events: List[Tuple] = []
        self.snapshots: List[ClusterSnapshot] = []
        self.detections: List[DetectionRecord] = []
        self.blacklisted_counts: List[int] = []
        self.forge_rngs = {i: random.Random(f"{cfg.seed}/forge/{i}")
                           for i in ground_truth.attackers}

    def dead(self) -> AbstractSet[int]:
        """The crashed nodes from the crash round on; none before it."""
        return self.crashed if self.round >= self.cfg.crash_round else frozenset()

    def live_mask(self) -> np.ndarray:
        """True for every node that is neither excluded nor dead."""
        live = np.ones(self.cfg.n_nodes, dtype=bool)
        live[list(self.excluded | self.dead())] = False
        return live


def _deliver_alert(world: WorldState, receiver: int, am: AlertMessage, rnd: int) -> bool:
    """Apply one alert at one node; returns True when it must be flooded.

    A crashed node takes no alert: the leader lists come from the previous
    round's snapshot and can still name it in its crash round. The receiver
    forgets the attacker's record; a conviction's is forgotten by the
    phase-2 block's write-back instead.
    """
    blacklist = world.blacklists[receiver]
    if am.attacker in blacklist or receiver in world.dead():
        return False
    forward = handle_alert(blacklist, am, receiver in world.global_leaders, rnd)
    if am.attacker not in blacklist:
        return False  # alert failed validation; nothing applied
    world.blacklisted_union.add(am.attacker)
    slots = world.slots
    k = slots.slot(receiver, am.attacker)
    if k is not None:
        slots.blocked[receiver, k] = True
        slots.suspected[receiver, k] = False
        slots.forget(np.array([receiver]), np.array([k]))
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
    message (``x``, ``a``, ``c``), which slots take part, the pass-start
    flags and suspicions (views of the slot arrays, which the block writes
    only at its end) and the solved verdicts and sums."""

    __slots__ = ("lo", "own", "nbr", "x", "a", "c", "prev", "part", "suspected",
                 "verdict", "cum_aw", "cum_w")


def _exchange(world: WorldState, cfg: ScenarioConfig) -> Tuple[List[AlertMessage], bool]:
    """Phases 1 and 2 of a round: every live node broadcasts once, then every
    live receiver takes in its neighbors' messages in slot order.

    Returns the alerts raised by this round's convictions and whether any
    node's message went untaken by every receiver: a node that sent nothing
    or whose message was discarded.
    """
    rnd = world.round
    n = cfg.n_nodes
    slots = world.slots
    cthresh = cfg.cluster.cthresh
    attackers = world.ground_truth.attackers
    live = world.live_mask()
    own = world.source.values[rnd]

    # phase 1: every live node's message, as arrays by sender
    aggregate = (own + slots.sum_aw) / (1.0 + slots.sum_w)
    reading = own.copy()
    ids = np.flatnonzero(live).tolist()
    if attackers and attack_is_active(rnd, cfg.attack):
        for i in sorted(attackers):
            if live[i]:
                reading[i] = forge_reading(float(own[i]), float(aggregate[i]), cfg.attack,
                                           cthresh, world.forge_rngs[i])
    world.events.extend(zip(repeat(rnd), repeat(EVENT_DM_SENT), ids, repeat(None),
                            reading[live].tolist()))
    valid = live & np.isfinite(reading) & np.isfinite(aggregate)
    count = np.count_nonzero(slots.flag, axis=1).astype(float)

    # phase 2, one block of receiver rows at a time: the similarity passes
    # are solved for the whole block, then the suspected senders of every
    # watching receiver are judged at once
    watch = live.copy()
    watch[list(attackers)] = False
    if not cfg.detection.detection_enabled:
        watch[:] = False
    step = max(1, _ADJACENCY_BLOCK_CELLS // slots.nbr.shape[1])
    fresh_alerts: List[AlertMessage] = []
    for lo in range(0, n, step):
        hi = min(n, lo + step)
        b = _Block()
        b.lo, b.own = lo, own[lo:hi]
        b.nbr = nbr = slots.nbr[lo:hi]
        heard = ~slots.blocked[lo:hi] & live[lo:hi, None]
        ok = valid[nbr]
        b.part = part = ok & heard
        b.x, b.a, b.c = reading[nbr], aggregate[nbr], count[nbr]
        b.prev = slots.flag[lo:hi]
        b.suspected = slots.suspected[lo:hi]
        b.verdict, b.cum_aw, b.cum_w = _solve(
            slots.sum_aw[lo:hi], slots.sum_w[lo:hi], b.own, b.x, b.a, b.c,
            slots.rec_a[lo:hi], slots.rec_c[lo:hi], b.prev, part, cthresh)
        world.total_interactions += int(np.count_nonzero(part))
        # what each slot logs: a discard, a new suspect, or a suspect's verdict
        walk = part & watch[lo:hi, None]
        cand = walk & b.suspected
        event = np.zeros(part.shape, dtype=np.int8)
        event[live[nbr] & ~ok & heard] = _DISCARDED
        base = spread = None
        if cand.any():
            verdict, base, spread = _judge(b, slots.rec_x[lo:hi], cand, cfg.detection, slots,
                                           cthresh)
            event[cand] = verdict[cand]
        event[walk & ~b.suspected & ~b.verdict] = ADDED
        cells = np.flatnonzero(event)
        # the receivers keep the state their passes end with; a conviction
        # blocks its slot and drops its record and suspicion
        convicted = event == DETECTED
        if cells.size:
            _apply_outcomes(world, b, cells, event, base, spread, fresh_alerts)
            slots.blocked[lo:hi] |= convicted
            slots.suspected[lo:hi] = ((b.suspected | (event == ADDED)) & ~convicted
                                      & (event != CLEARED))
        np.copyto(slots.flag[lo:hi], b.verdict, where=part)
        np.copyto(slots.rec_x[lo:hi], b.x, where=part)
        np.copyto(slots.rec_a[lo:hi], b.a, where=part)
        np.copyto(slots.rec_c[lo:hi], b.c, where=part)
        np.copyto(slots.seen[lo:hi], np.where(convicted, NO_RECORD, rnd), where=part)
        np.copyto(slots.sum_aw[lo:hi], b.cum_aw[:, -1], where=live[lo:hi])
        np.copyto(slots.sum_w[lo:hi], b.cum_w[:, -1], where=live[lo:hi])
    return fresh_alerts, not valid.all()


def _judge(b: _Block, old_x: np.ndarray, cand: np.ndarray, dcfg: DetectionConfig,
           slots: NeighborSlots, cthresh: float) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Verdict codes, region spreads and combined spreads (by cell) of the
    suspected senders in ``cand``, each judged as a slot-by-slot pass would
    judge it at its slot.

    The consensus region of suspected slot k is the receiver's own reading,
    then the first ``consensus_region_cap`` slots eligible at k, in slot
    order: at or below k, similar after this round's message and read from
    the records the pass leaves; above k, similar last round and read from
    ``old_x`` (the records as the round found them); in both cases not
    suspected. A blacklisted slot holds no similar flag. The regions are
    gathered through per-row counts of the eligible slots and their readings
    by rank.

    Every suspected slot of the block is judged at once, as if its row's
    earlier suspects all stayed suspected. Only two verdicts break that: a
    similar sender cleared with fewer than ``consensus_region_cap`` eligible
    slots before it enters later regions, and a similar sender convicted
    leaves the sums, so the rest of its row is solved again
    (``_solve_rest``) and its verdict turned False. A row keeps its verdicts
    up to its first such one, which is applied, and its suspects past it are
    judged again.
    """
    rows_n, width = cand.shape
    # exact: a region never holds more than its row's width
    cap = min(dcfg.consensus_region_cap, width)
    gather = np.arange(cap)
    verdict = np.zeros(cand.shape, dtype=np.int8)
    base = np.zeros(cand.shape)
    spread = np.zeros(cand.shape)
    cleared = np.zeros_like(cand)
    # per row, the readings of the slots eligible last round, by rank
    old_ok = b.prev & ~b.suspected
    old_cnt = np.cumsum(old_ok, axis=1)
    old_ranked = np.zeros(cand.shape)
    r, k = np.nonzero(old_ok)
    old_ranked[r, old_cnt[r, k] - 1] = old_x[r, k]
    new_x = np.where(b.part, b.x, old_x)
    todo = cand
    while True:
        # and the first ones eligible this round, by rank
        flag = np.where(b.part, b.verdict, b.prev)
        new_ok = flag & (~b.suspected | cleared)
        new_cnt = np.cumsum(new_ok, axis=1)
        new_ranked = np.zeros((rows_n, cap))
        r, k = np.nonzero(new_ok & (new_cnt <= cap))
        new_ranked[r, new_cnt[r, k] - 1] = new_x[r, k]
        rows, cols = np.nonzero(todo)
        before = new_cnt[rows, cols]
        n_new = np.minimum(before, cap)
        skip = old_cnt[rows, cols]
        n_old = np.minimum(cap - n_new, old_cnt[rows, -1] - skip)
        at_old = np.clip(skip[:, None] + gather - n_new[:, None], 0, width - 1)
        values = np.empty((rows.size, cap + 1))
        values[:, 0] = b.own[rows]
        values[:, 1:] = np.where(gather < n_new[:, None], new_ranked[rows],
                                 np.where(gather < (n_new + n_old)[:, None],
                                          old_ranked.take(rows[:, None] * width + at_old), -0.0))
        v, sd, comb = consensus_verdicts(values, 1 + n_new + n_old, b.x[rows, cols],
                                         dcfg.consensus_threshold)
        verdict[rows, cols] = v
        base[rows, cols] = sd
        spread[rows, cols] = comb
        change = flag[rows, cols] & ((v == DETECTED) | ((v == CLEARED) & (before < cap)))
        if not change.any():
            return verdict, base, spread
        idx = np.flatnonzero(change)
        first = idx[np.diff(rows[idx], prepend=-1) != 0]
        for r, k, code in zip(rows[first].tolist(), cols[first].tolist(), v[first].tolist()):
            if code == CLEARED:
                cleared[r, k] = True
            else:
                b.verdict[r, k] = False
                _solve_rest(b, r, k, slots, cthresh)
        resume = np.full(rows_n, width)
        resume[rows[first]] = cols[first] + 1
        todo = cand & (np.arange(width) >= resume[:, None])


def _apply_outcomes(world: WorldState, b: _Block, cells: np.ndarray, event: np.ndarray,
                    base: Optional[np.ndarray], spread: Optional[np.ndarray],
                    fresh_alerts: List[AlertMessage]) -> None:
    """Log the block's ``event`` at the given cells (row * width + slot), in
    cell order: discards, new suspects, acquittals and convictions. A
    conviction also writes its blacklist entry, its detection record
    (spreads from ``base`` and ``spread``) and its alert."""
    rnd = world.round
    codes = event.take(cells)
    receivers = (cells // b.nbr.shape[1] + b.lo).tolist()
    senders = b.nbr.take(cells).tolist()
    readings = np.where(codes == _DISCARDED, None, b.x.take(cells)).tolist()
    codes = codes.tolist()
    world.events.extend(zip(repeat(rnd), map(_EVENT_NAMES.__getitem__, codes), receivers,
                            senders, readings))
    for cell, i, j, x, what in zip(cells.tolist(), receivers, senders, readings, codes):
        if what == DETECTED:
            world.blacklists[i][j] = BlacklistEntry(rnd, i, x)
            world.blacklisted_union.add(j)
            world.detections.append(DetectionRecord(rnd, i, j, x, base.item(cell),
                                                    spread.item(cell)))
            fresh_alerts.append(AlertMessage(detector=i, attacker=j, attacker_reading=x))


def _solve_rest(b: _Block, r: int, k: int, slots: NeighborSlots, cthresh: float) -> None:
    """Solve row r again past slot k, whose sender was convicted while
    similar: its a*c leaves the sums after the slot."""
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


def run_round(world: WorldState, cfg: ScenarioConfig) -> None:
    rnd = world.round
    events = world.events
    slots = world.slots

    fresh_alerts, any_unheard = _exchange(world, cfg)

    # phase 3: alert delivery. Last round's forwards flood every leader, then
    # each fresh alert reaches its detector (if it leads) and the detector's
    # cluster leaders; every leader that takes an alert fresh forwards it
    due = world.pending_alerts
    leaders = sorted(world.global_leaders)
    forwards = [(target, am) for am in due for target in leaders
                if _deliver_alert(world, target, am, rnd)]
    for am in fresh_alerts:
        if am.detector in world.global_leaders:
            forwards.append((am.detector, am))
        forwards.extend((target, am) for target in slots.leaders_of(am.detector)
                        if target != am.detector and _deliver_alert(world, target, am, rnd))
    world.pending_alerts = [am for _, am in forwards]
    events.extend((rnd, EVENT_ALERT_FORWARDED, target, am.attacker, am.attacker_reading)
                  for target, am in forwards)

    # newly silenced nodes: excluded once every neighbor blacklists them, that
    # is, once every cell holding them is blocked; only a conviction (which
    # raises a fresh alert) or an alert delivery blocks a cell
    if fresh_alerts or due:
        silenced = slots.blocked.ravel()[slots.rev].all(axis=1) & (slots.degree > 0)
        silenced[list(world.excluded)] = False
        for target in np.flatnonzero(silenced).tolist():
            world.excluded.add(target)
            events.append((rnd, EVENT_NODE_EXCLUDED, target, None, None))

    # phase 4: TTL maintenance; only unheard senders can have gone stale, and
    # a live receiver drops its stale records in slot order
    if any_unheard:
        stale = slots.seen < rnd - cfg.cluster.neighbor_ttl_rounds
        stale &= world.live_mask()[:, None]
        slots.forget(*np.nonzero(stale))

    # phase 5: election and snapshot over globally non-blacklisted nodes;
    # dead nodes hold frozen state and cannot be cluster participants
    snapshot = extract_clusters(slots, rnd, excluded=world.blacklisted_union | world.dead())
    world.snapshots.append(snapshot)
    world.blacklisted_counts.append(len(world.blacklisted_union))
    world.global_leaders = snapshot.all_leaders()

    world.round += 1


def run_scenario(cfg: ScenarioConfig) -> RunResult:
    """Execute one full run; byte-identical output for equal (config, seed)."""
    cfg.validate()
    seed = cfg.seed
    place_rng = random.Random(f"{seed}/place")
    positions = place_nodes(cfg, place_rng)

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

    crash_rng = random.Random(f"{seed}/crash")
    crashed = set(crash_rng.sample(range(cfg.n_nodes), round(cfg.crash_fraction * cfg.n_nodes)))

    world = WorldState(cfg, compute_adjacency(positions, cfg.tx_radius_m), ground_truth,
                       source, crashed)
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
        node_blacklists=world.blacklists,
        confusion=confusion,
        report=report,
        ground_truth=ground_truth,
    )
