"""Fault-management layer: consensus standard deviation, the two-step
collaborative filter, suspect bookkeeping, alerts and the blacklist."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .domain import AlertMessage, require_finite, validate_alert_message


@dataclass
class DetectionConfig:
    consensus_threshold: float = 5.0  # verdict boundary: combined SD equal to it is honest
    detection_enabled: bool = True
    region_cap: int = 5  # max similar neighbors sampled into a consensus region

    def validate(self) -> None:
        require_finite(self, "consensus_threshold")
        if not self.consensus_threshold > 0:
            raise ValueError("consensus_threshold must be > 0")
        if self.region_cap < 1:
            raise ValueError("region_cap must be >= 1")


def region_sd(values: Sequence[float]) -> float:
    """Population standard deviation (divide by N) of a consensus region."""
    n = len(values)
    if n == 0:
        raise ValueError("empty consensus region")
    mean = sum(values) / n
    return math.sqrt(sum((v - mean) ** 2 for v in values) / n)


@dataclass
class ConsensusRegion:
    """The detector's own latest reading plus its sampled similar neighbors'
    latest readings; the material the two-step filter works on. ``ids`` are
    the neighbors whose readings follow the detector's own, and ``sd`` is
    the region's own spread, taken once."""

    values: List[float]
    ids: Tuple[int, ...] = ()
    sd: float = field(init=False)

    def __post_init__(self) -> None:
        self.sd = region_sd(self.values)


class ClassifyOutcome(Enum):
    HONEST = "honest"
    ATTACKER = "attacker"
    REGION_INVALID = "region-invalid"


@dataclass
class ClassifyResult:
    outcome: ClassifyOutcome
    region_sd: float
    combined_sd: Optional[float]  # None when the region itself was rejected


def classify_suspect(region: ConsensusRegion, suspect_reading: float,
                     cfg: DetectionConfig) -> ClassifyResult:
    """Two-step collaborative filter.

    Step 1 validates the region itself: its own spread must sit within the
    consensus threshold, and it must contain at least one neighbor reading
    besides the detector's own (a consensus of one is no consensus). Step 2
    re-evaluates the spread with the suspect's reading included; exceeding
    the threshold convicts, equality acquits.
    """
    base_sd = region.sd
    if len(region.values) < 2 or base_sd > cfg.consensus_threshold:
        return ClassifyResult(ClassifyOutcome.REGION_INVALID, base_sd, None)
    combined = region_sd(list(region.values) + [suspect_reading])
    if combined > cfg.consensus_threshold:
        return ClassifyResult(ClassifyOutcome.ATTACKER, base_sd, combined)
    return ClassifyResult(ClassifyOutcome.HONEST, base_sd, combined)


@dataclass(slots=True)
class SuspectEntry:
    first_flag_round: int


@dataclass(slots=True)
class BlacklistEntry:
    detected_round: int
    detector: int
    reading: float


class SuspectOutcome(Enum):
    ADDED = "added"
    CLEARED = "cleared"
    DETECTED = "detected"
    PENDING = "pending"


def process_suspect(state, sender: int, reading: float, similar_verdict: bool,
                    region: Optional[ConsensusRegion], cfg: DetectionConfig, rnd: int,
                    ) -> Tuple[SuspectOutcome, Optional[AlertMessage], Optional[ClassifyResult]]:
    """Advance one suspect state machine step for a received reading.

    Called only for a sender that is suspected or whose message failed the
    similarity test (``similar_verdict`` False). A sender already under
    suspicion is put through the consensus filter with its newest reading
    against ``region``, the detector's current consensus region: conviction
    moves it to the blacklist and emits an alert (the caller forgets its
    neighbor record), acquittal clears it, an
    invalid region leaves it pending. Any other sender is dissimilar and is
    added to the suspect list. ``region`` is read only for a sender already
    suspected and may be None otherwise.
    """
    suspects: Dict[int, SuspectEntry] = state.suspects
    if sender in suspects:
        result = classify_suspect(region, reading, cfg)
        if result.outcome is ClassifyOutcome.ATTACKER:
            del suspects[sender]
            state.blacklist[sender] = BlacklistEntry(rnd, state.node_id, reading)
            return (SuspectOutcome.DETECTED,
                    AlertMessage(detector=state.node_id, attacker=sender, attacker_reading=reading),
                    result)
        if result.outcome is ClassifyOutcome.HONEST:
            del suspects[sender]
            return SuspectOutcome.CLEARED, None, result
        return SuspectOutcome.PENDING, None, result
    suspects[sender] = SuspectEntry(rnd)
    return SuspectOutcome.ADDED, None, None


def handle_alert(state, am: AlertMessage, is_leader: bool, rnd: int) -> bool:
    """Apply an alert to one node's state.

    The attacker is blacklisted and dropped from the suspect list; the
    caller forgets its neighbor record. Returns True when the receiving node is a leader
    and the entry was new, i.e. the alert should go out on the leader
    overlay; duplicates change nothing and are never re-forwarded.
    """
    if not validate_alert_message(am):
        return False
    if am.attacker in state.blacklist:
        return False
    state.blacklist[am.attacker] = BlacklistEntry(rnd, am.detector, am.attacker_reading)
    state.suspects.pop(am.attacker, None)
    return is_leader


def build_consensus_region(state, own_reading: float, similar: Iterable[Tuple[int, float]],
                           cap: int) -> ConsensusRegion:
    """Assemble the detector's region: its own reading plus the latest
    individual readings of up to ``cap`` of its ``similar`` neighbors, given
    as (id, reading) pairs in ascending id order, skipping anything
    currently suspected or blacklisted."""
    values = [own_reading]
    ids: List[int] = []
    suspects = state.suspects
    blacklist = state.blacklist
    for nid, reading in similar:
        if len(ids) >= cap:
            break
        if nid in suspects or nid in blacklist:
            continue
        values.append(reading)
        ids.append(nid)
    return ConsensusRegion(values, tuple(ids))
