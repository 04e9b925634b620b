"""Confusion-matrix accounting, the evaluation metric suite, cluster
availability series and cross-seed aggregation with confidence intervals."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .attacks import GroundTruth
from .clustering import ClusterSnapshot


@dataclass
class ConfusionCounts:
    """Per-run node-level outcome counts. A node counts as detected once, at
    its first blacklisting anywhere in the network. The fields, in order,
    are the count columns of the raw report."""

    tp: int  # attackers blacklisted
    tn: int  # honest nodes never blacklisted
    fp: int  # honest nodes blacklisted
    fn: int  # attackers never blacklisted
    attackers_inserted: int
    total_interactions: int

    def validate(self) -> None:
        if min(self.tp, self.tn, self.fp, self.fn) < 0:
            raise ValueError("confusion counts must be non-negative")
        if self.tp + self.fn != self.attackers_inserted:
            raise ValueError("tp + fn must equal attackers_inserted")


def compute_confusion(ground_truth: GroundTruth, blacklisted: Set[int],
                      total_interactions: int) -> ConfusionCounts:
    """Fold the final union blacklist against the ground-truth assignment."""
    attackers = ground_truth.attackers
    tp = len(attackers & blacklisted)
    fp = len(blacklisted - attackers)
    fn = len(attackers) - tp
    tn = ground_truth.n_nodes - len(attackers) - fp
    return ConfusionCounts(tp=tp, tn=tn, fp=fp, fn=fn,
                           attackers_inserted=len(attackers),
                           total_interactions=total_interactions)


@dataclass
class MetricsReport:
    """Per-run metric values; None marks a metric whose denominator was
    empty (reported as not-applicable downstream). The fields, in order,
    are the metric columns of the raw report."""

    # legacy unnormalized miss count kept for traceability: interactions
    # minus the detection total; reported raw, never fed into the rates
    fn_count_paper: int
    detection_rate: Optional[float]
    accuracy: Optional[float]
    accuracy_x100: Optional[float]
    fpr: Optional[float]
    fnr: Optional[float]
    precision: Optional[float]
    recall: Optional[float]
    f1: Optional[float]
    clusters_total_mean: float
    clusters_attacker_free_mean: float


def cluster_availability(snapshots: Sequence[ClusterSnapshot], ground_truth: GroundTruth,
                         ) -> List[Tuple[int, int, int]]:
    """Per round: total cluster count and the count containing no
    ground-truth attacker."""
    if not snapshots:
        raise ValueError("no snapshots")
    attackers = ground_truth.attackers
    rows = []
    for snap in snapshots:
        total = len(snap.clusters)
        clean = sum(1 for members in snap.clusters if not attackers.intersection(members))
        rows.append((snap.round, total, clean))
    return rows


def build_report(c: ConfusionCounts, availability: Sequence[Tuple[int, int, int]]) -> MetricsReport:
    """Every rate of one run from its counts; a rate whose denominator is 0
    is None. Validation makes tp + fn equal attackers_inserted, so the
    detection rate (attackers detected at least once over those inserted)
    is the recall."""
    c.validate()
    tp, tn, fp, fn = c.tp, c.tn, c.fp, c.fn
    recall = tp / (tp + fn) if tp + fn else None
    precision = tp / (tp + fp) if tp + fp else None
    acc = (tp + tn) / (tp + tn + fp + fn) if tp + tn + fp + fn else None
    f1 = None
    if precision is not None and recall is not None:
        f1 = 2.0 * precision * recall / (precision + recall) if tp else 0.0
    n_rounds = len(availability)
    return MetricsReport(
        fn_count_paper=c.total_interactions - tp,
        detection_rate=recall,
        accuracy=acc,
        accuracy_x100=None if acc is None else acc * 100.0,
        fpr=fp / (fp + tn) if fp + tn else None,
        fnr=fn / (fn + tp) if fn + tp else None,
        precision=precision,
        recall=recall,
        f1=f1,
        clusters_total_mean=sum(r[1] for r in availability) / n_rounds,
        clusters_attacker_free_mean=sum(r[2] for r in availability) / n_rounds,
    )


# the metrics the summary report aggregates across seeds, in column order:
# report field, column stem (stem_mean, then stem_ci) and whether a CI is written
SUMMARY_METRICS = (
    ("detection_rate", "dr", True), ("accuracy", "acc", True), ("fpr", "fpr", True),
    ("fnr", "fnr", True), ("precision", "precision", False), ("recall", "recall", False),
    ("f1", "f1", False), ("clusters_total_mean", "clusters_total", False),
    ("clusters_attacker_free_mean", "clusters_attacker_free", False),
)


def mean_ci(values: Sequence[float]) -> Tuple[float, Optional[float]]:
    """Sample mean and normal-approximation 95% CI half-width (1.96 s/sqrt n)."""
    mean = statistics.fmean(values)
    if len(values) < 2:
        return mean, None
    return mean, 1.96 * statistics.stdev(values) / math.sqrt(len(values))


def aggregate_runs(reports: Sequence[MetricsReport],
                   ) -> Dict[str, Tuple[Optional[float], Optional[float]]]:
    """Per metric: mean and 95% CI half-width over the runs where the metric
    was defined; (None, None) when it never was."""
    out: Dict[str, Tuple[Optional[float], Optional[float]]] = {}
    for key, _, _ in SUMMARY_METRICS:
        values = [getattr(rp, key) for rp in reports if getattr(rp, key) is not None]
        out[key] = mean_ci(values) if values else (None, None)
    return out
