"""Fault-management layer: consensus standard deviation, the two-step
collaborative filter, suspect bookkeeping, alerts and the blacklist."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from .domain import AlertMessage, require_finite, validate_alert_message


@dataclass
class DetectionConfig:
    consensus_threshold: float = 5.0  # verdict boundary: combined SD equal to it is honest
    detection_enabled: bool = True
    consensus_region_cap: int = 5  # max similar neighbors sampled into a consensus region

    def validate(self) -> None:
        require_finite(self)
        if not self.consensus_threshold > 0:
            raise ValueError("consensus_threshold must be > 0")
        if self.consensus_region_cap < 1:
            raise ValueError("consensus_region_cap must be >= 1")


# verdict codes of consensus_verdicts, and of a sender newly suspected
PENDING, CLEARED, DETECTED, ADDED = 0, 1, 2, 3


def _spread(values: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Population standard deviation (divide by N) of the first ``sizes[r]``
    values of each row r; the rest of a row is -0.0 padding. Sums run column
    by column from +0.0 and deviations are squared by ``pow``: the IEEE
    operations of a scalar loop over each region, in the same order. A sum
    or square that overflows is inf."""
    rows, width = values.shape
    with np.errstate(over="ignore", invalid="ignore"):
        total = np.zeros(rows)
        for col in values.T:
            total += col  # x + -0.0 is x for every double
        squares = np.float_power(values - (total / sizes)[:, None], 2.0)
        squares[np.arange(width) >= sizes[:, None]] = -0.0
        total = np.zeros(rows)
        for col in squares.T:
            total += col
        return np.sqrt(total / sizes)


def consensus_verdicts(values: np.ndarray, sizes: np.ndarray, readings: np.ndarray,
                       threshold: float) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The two-step filter over many consensus regions at once.

    Row r of ``values`` is a region, the detector's own reading first, with
    ``sizes[r]`` readings in all and -0.0 after them; ``readings[r]`` is the
    suspect's. Returns per region the verdict code, the region's own spread
    and, for a valid region, its spread with the suspect's reading appended
    (nan for an invalid one). A region is invalid, and its verdict PENDING,
    when it holds fewer than two readings or its spread exceeds
    ``threshold``; otherwise the verdict is DETECTED when the combined spread
    exceeds ``threshold`` and CLEARED when it does not, so equality acquits.
    """
    base = _spread(values, sizes)
    valid = np.flatnonzero((sizes >= 2) & ~(base > threshold))
    spread = np.full(len(values), np.nan)
    if valid.size:
        combined = np.concatenate((values[valid], np.full((valid.size, 1), -0.0)), axis=1)
        combined[np.arange(valid.size), sizes[valid]] = readings[valid]
        spread[valid] = _spread(combined, sizes[valid] + 1)
    verdict = np.full(len(values), PENDING, dtype=np.int8)
    verdict[valid] = np.where(spread[valid] > threshold, DETECTED, CLEARED)
    return verdict, base, spread


@dataclass(slots=True)
class BlacklistEntry:
    detected_round: int
    detector: int
    reading: float


def process_suspect(state, sender: int, reading: float, region: Optional[List[float]],
                    cfg: DetectionConfig, rnd: int,
                    ) -> Tuple[int, Optional[AlertMessage], Optional[float], Optional[float]]:
    """Advance one suspect state machine step for a received reading;
    returns ``(code, alert, region_sd, combined_sd)``.

    Called only for a sender that is suspected or whose message failed the
    similarity test. A sender already under suspicion is put through
    ``consensus_verdicts`` with its newest reading against ``region``, the
    readings of the detector's current consensus region, and the code and
    spreads are the kernel's (the combined spread nan when PENDING):
    DETECTED moves it to the blacklist and emits an alert (the caller
    forgets its neighbor record), CLEARED drops it from the suspects,
    PENDING leaves it suspected. Any other sender is dissimilar and is added
    to the suspect list (ADDED, with no alert and None spreads). ``region``
    is read only for a sender already suspected and may be None otherwise.
    ``state.suspects`` is a set of ids.
    """
    suspects: Set[int] = state.suspects
    if sender not in suspects:
        suspects.add(sender)
        return ADDED, None, None, None
    verdict, base, combined = consensus_verdicts(
        np.array([region], dtype=float), np.array([len(region)]),
        np.array([reading], dtype=float), cfg.consensus_threshold)
    code = int(verdict[0])
    alert = None
    if code == DETECTED:
        state.blacklist[sender] = BlacklistEntry(rnd, state.node_id, reading)
        alert = AlertMessage(detector=state.node_id, attacker=sender, attacker_reading=reading)
    if code != PENDING:
        suspects.discard(sender)
    return code, alert, base.item(), combined.item()


def handle_alert(blacklist: Dict[int, BlacklistEntry], am: AlertMessage, is_leader: bool,
                 rnd: int) -> bool:
    """Apply an alert to one node's blacklist.

    The attacker is blacklisted; the caller drops it from the suspects and
    forgets its neighbor record. Returns True when the receiving node is a
    leader and the entry was new, i.e. the alert should go out on the leader
    overlay; duplicates change nothing and are never re-forwarded.
    """
    if not validate_alert_message(am):
        return False
    if am.attacker in blacklist:
        return False
    blacklist[am.attacker] = BlacklistEntry(rnd, am.detector, am.attacker_reading)
    return is_leader


def build_consensus_region(state, own_reading: float, similar: Iterable[Tuple[int, float]],
                           cap: int) -> List[float]:
    """The readings of the detector's consensus region: its own reading plus
    the latest individual readings of up to ``cap`` of its ``similar``
    neighbors, given as (id, reading) pairs in ascending id order, skipping
    anything currently suspected or blacklisted."""
    values = [own_reading]
    suspects = state.suspects
    blacklist = state.blacklist
    for nid, reading in similar:
        if len(values) > cap:
            break
        if nid in suspects or nid in blacklist:
            continue
        values.append(reading)
    return values
