"""Core value types shared by every layer: wire records and labels."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum


def is_finite_reading(value) -> bool:
    """A usable sensor reading: a real number that is neither NaN nor infinite."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def require_finite(owner, *names: str) -> None:
    """Raise ValueError naming the first listed attribute of ``owner`` that
    is NaN or infinite."""
    for name in names:
        if not math.isfinite(getattr(owner, name)):
            raise ValueError(f"{name} must be finite")


@dataclass(frozen=True)
class DataMessage:
    """Periodic broadcast: sender id, individual reading, aggregate reading
    and the number of readings the aggregate represents."""

    sender: int
    individual_reading: float
    aggregate_reading: float
    neighbor_count: int


@dataclass(frozen=True)
class AlertMessage:
    """Detection notice: who detected whom, plus the offending reading."""

    detector: int
    attacker: int
    attacker_reading: float


def validate_data_message(msg: DataMessage) -> bool:
    """True to accept, False to discard.

    Any missing or non-finite field discards the whole message. Pure: no
    side effects.
    """
    if not isinstance(msg.sender, int) or isinstance(msg.sender, bool) or msg.sender < 0:
        return False
    if not is_finite_reading(msg.individual_reading):
        return False
    if not is_finite_reading(msg.aggregate_reading):
        return False
    if not isinstance(msg.neighbor_count, int) or isinstance(msg.neighbor_count, bool):
        return False
    if msg.neighbor_count < 0:
        return False
    return True


def validate_alert_message(msg: AlertMessage) -> bool:
    """True to accept. Incomplete alerts and self-accusations are discarded."""
    for nid in (msg.detector, msg.attacker):
        if not isinstance(nid, int) or isinstance(nid, bool) or nid < 0:
            return False
    if msg.detector == msg.attacker:
        return False
    if not is_finite_reading(msg.attacker_reading):
        return False
    return True


class NodeLabel(Enum):
    HONEST = "honest"
    SUSPICIOUS = "suspicious"
    ATTACKER = "attacker"


# Legal label changes. ATTACKER is absorbing: no arc leaves it.
_LABEL_ARCS = {
    (NodeLabel.HONEST, NodeLabel.SUSPICIOUS),
    (NodeLabel.SUSPICIOUS, NodeLabel.HONEST),
    (NodeLabel.SUSPICIOUS, NodeLabel.ATTACKER),
}


def transition_label(current: NodeLabel, target: NodeLabel) -> NodeLabel:
    """Apply a label change, enforcing the legal transition arcs.

    Staying on the same label is always allowed; any other move must be one
    of honest->suspicious, suspicious->honest or suspicious->attacker.
    Raises ValueError on an illegal arc.
    """
    if target is current:
        return current
    if (current, target) not in _LABEL_ARCS:
        raise ValueError(f"illegal label transition {current.value} -> {target.value}")
    return target
