"""Attacker behavior: plain false-data forging, phase-alternating churn and
near-threshold sensitive forging, plus ground-truth attacker selection."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import FrozenSet

from .domain import require_finite

ATTACK_TYPES = ("fdi", "churn", "sensitive")


@dataclass
class AttackConfig:
    attack_type: str = "fdi"
    # Forged offsets span small changes (occasionally blending in) up to
    # large ones that trip both thresholds outright.
    fdi_offset_min: float = 1.0
    fdi_offset_max: float = 30.0
    churn_honest_rounds: int = 5
    churn_false_rounds: int = 5
    # How far past the similarity threshold a sensitive forge may land; must
    # comfortably exceed the consensus filter's blind zone to be catchable.
    sensitive_margin: float = 15.0

    def validate(self) -> None:
        require_finite(self, "fdi_offset_min", "fdi_offset_max", "sensitive_margin")
        if self.attack_type not in ATTACK_TYPES:
            raise ValueError(f"attack_type must be one of {ATTACK_TYPES}")
        if not 0 < self.fdi_offset_min <= self.fdi_offset_max:
            raise ValueError("fdi offsets must satisfy 0 < fdi_offset_min <= fdi_offset_max")
        if self.churn_honest_rounds < 1 or self.churn_false_rounds < 1:
            raise ValueError("churn phase lengths must be >= 1")
        if not self.sensitive_margin > 0:
            raise ValueError("sensitive_margin must be > 0")


@dataclass(frozen=True)
class GroundTruth:
    """Fixed-for-the-run attacker assignment used only for evaluation."""

    n_nodes: int
    attackers: FrozenSet[int]

    @property
    def attackers_inserted(self) -> int:
        return len(self.attackers)

    def is_attacker(self, node_id: int) -> bool:
        return node_id in self.attackers


def select_attackers(n_nodes: int, attacker_fraction: float, rng: random.Random) -> GroundTruth:
    """Draw round(fraction * n) attackers uniformly without replacement."""
    count = round(attacker_fraction * n_nodes)
    chosen = frozenset(rng.sample(range(n_nodes), count)) if count else frozenset()
    return GroundTruth(n_nodes=n_nodes, attackers=chosen)


def churn_is_false_phase(rnd: int, cfg: AttackConfig) -> bool:
    """Periodic schedule: H honest rounds, then F false rounds, repeating."""
    period = cfg.churn_honest_rounds + cfg.churn_false_rounds
    return rnd % period >= cfg.churn_honest_rounds


def attack_is_active(rnd: int, cfg: AttackConfig) -> bool:
    """Whether an attacker forges this round; churn alone has honest phases."""
    if cfg.attack_type == "churn":
        return churn_is_false_phase(rnd, cfg)
    return True


def forge_reading(true_reading: float, local_aggregate: float,
                  cfg: AttackConfig, cthresh: float, rng: random.Random) -> float:
    """Produce the falsified individual reading for one broadcast.

    fdi and churn (in a false phase) shift the true reading by a uniform
    offset in either direction; sensitive lands just past the similarity
    threshold relative to the attacker's own local aggregate, so the forged
    value tracks the sensed field.
    """
    if cfg.attack_type == "sensitive":
        # (0, margin]: the forged value must strictly violate similarity
        v = cfg.sensitive_margin * (1.0 - rng.random())
        sign = 1.0 if rng.random() < 0.5 else -1.0
        return local_aggregate + sign * (cthresh + v)
    offset = rng.uniform(cfg.fdi_offset_min, cfg.fdi_offset_max)
    sign = 1.0 if rng.random() < 0.5 else -1.0
    return true_reading + sign * offset
