"""Metric arithmetic, identities and cross-seed aggregation."""

import math
import random
import statistics

import pytest

from fdisim.attacks import GroundTruth
from fdisim.clustering import ClusterSnapshot
from fdisim.metrics import (ConfusionCounts, aggregate_runs, build_report, cluster_availability,
                            compute_confusion, mean_ci)


def counts(tp, tn, fp, fn, t_int=1000):
    return ConfusionCounts(tp=tp, tn=tn, fp=fp, fn=fn, attackers_inserted=tp + fn,
                           total_interactions=t_int)


def rates(c):
    """The report of counts c over one round without clusters."""
    return build_report(c, [(0, 0, 0)])


def test_detection_rate_examples():
    assert rates(counts(9, 85, 3, 1)).detection_rate == 0.9
    assert rates(counts(10, 90, 0, 0)).detection_rate == 1.0
    assert rates(counts(0, 90, 0, 10)).detection_rate == 0.0
    assert rates(counts(0, 100, 0, 0)).detection_rate is None


def test_accuracy_examples():
    assert rates(counts(9, 85, 3, 3)).accuracy == 0.94
    assert rates(counts(10, 90, 0, 0)).accuracy == 1.0


def test_fpr_fnr_examples():
    assert abs(rates(counts(9, 87, 3, 1)).fpr - 3 / 90) < 1e-12
    assert rates(counts(10, 90, 0, 0)).fnr == 0.0
    assert rates(counts(7, 90, 0, 3)).fnr == 0.3
    assert rates(ConfusionCounts(1, 0, 0, 0, 1, 10)).fpr is None


def test_precision_recall_f1_examples():
    rp = rates(counts(96, 0, 4, 0))
    assert (rp.precision, rp.recall, rp.f1) == (0.96, 1.0, 2 * 0.96 / 1.96)
    # harmonic-mean oracle for the reported precision/recall magnitudes
    f1 = 2 * 0.96 * 0.84 / (0.96 + 0.84)
    assert abs(f1 - 0.896) < 1e-3
    assert rates(counts(5, 5, 0, 0)).f1 == 1.0
    assert rates(counts(0, 5, 3, 4)).f1 == 0.0
    rp = rates(ConfusionCounts(0, 5, 0, 0, 0, 10))
    assert rp.precision is None and rp.recall is None and rp.f1 is None


def test_rate_identities_random():
    """DR + FNR = 1 (shared denominator); DR is the recall; f1 between min
    and max of p, r."""
    rng = random.Random(55)
    for _ in range(1000):
        c = counts(rng.randint(0, 50), rng.randint(0, 200),
                   rng.randint(0, 50), rng.randint(0, 50))
        rp = rates(c)
        dr, miss = rp.detection_rate, rp.fnr
        if dr is not None and miss is not None:
            assert abs(dr + miss - 1.0) < 1e-12
        p, r, f1 = rp.precision, rp.recall, rp.f1
        assert dr == r
        if f1 is not None and p is not None and r is not None:
            assert min(p, r) - 1e-12 <= f1 <= max(p, r) + 1e-12
            if p == r:
                assert abs(f1 - p) < 1e-12
        for value in (dr, miss, p, r, f1, rp.accuracy, rp.fpr):
            if value is not None:
                assert -1e-12 <= value <= 1 + 1e-12


def test_confusion_validation():
    with pytest.raises(ValueError):
        ConfusionCounts(tp=1, tn=1, fp=0, fn=0, attackers_inserted=5,
                        total_interactions=0).validate()
    counts(3, 4, 1, 2).validate()


def test_compute_confusion():
    gt = GroundTruth(n_nodes=10, attackers=frozenset({1, 2, 3}))
    c = compute_confusion(gt, blacklisted={1, 2, 7}, total_interactions=99)
    assert (c.tp, c.fp, c.fn, c.tn) == (2, 1, 1, 6)
    assert c.total_interactions == 99
    c.validate()


def test_fn_count_paper_traceability():
    assert rates(counts(4, 0, 0, 1, t_int=100)).fn_count_paper == 96


def snap(rnd, clusters):
    return ClusterSnapshot(round=rnd, clusters=clusters,
                           leaders=[(members[0],) for members in clusters])


def test_cluster_availability_counts():
    gt = GroundTruth(n_nodes=6, attackers=frozenset({5}))
    snaps = [snap(0, [(0, 1), (2, 3, 5)]), snap(1, [(0, 1, 2, 3)])]
    rows = cluster_availability(snaps, gt)
    assert rows == [(0, 2, 1), (1, 1, 1)]


def test_cluster_availability_no_attackers_identical_series():
    gt = GroundTruth(n_nodes=4, attackers=frozenset())
    snaps = [snap(r, [(0, 1), (2, 3)]) for r in range(5)]
    for _, total, clean in cluster_availability(snaps, gt):
        assert total == clean == 2


def test_cluster_availability_free_never_exceeds_total():
    rng = random.Random(2)
    gt = GroundTruth(n_nodes=20, attackers=frozenset(range(0, 20, 5)))
    snaps = []
    for r in range(50):
        members = list(range(20))
        rng.shuffle(members)
        clusters = [tuple(sorted(members[i:i + 4])) for i in range(0, 20, 4)]
        snaps.append(snap(r, clusters))
    for _, total, clean in cluster_availability(snaps, gt):
        assert clean <= total


def test_cluster_availability_empty_raises():
    with pytest.raises(ValueError):
        cluster_availability([], GroundTruth(2, frozenset()))


def test_build_report_fields():
    c = counts(9, 88, 2, 1, t_int=500)
    rows = [(0, 3, 2), (1, 5, 4)]
    report = build_report(c, rows)
    assert report.detection_rate == 0.9
    assert report.accuracy_x100 == report.accuracy * 100.0
    assert report.clusters_total_mean == 4.0
    assert report.clusters_attacker_free_mean == 3.0
    assert report.fn_count_paper == 500 - 9


def test_mean_ci_basics():
    mean, ci = mean_ci([0.9, 1.0])
    assert mean == 0.95 and ci is not None
    mean, ci = mean_ci([0.7] * 35)
    assert mean == 0.7 and ci == 0.0
    assert mean_ci([0.4])[1] is None


def test_mean_ci_matches_textbook_oracle():
    rng = random.Random(8)
    for _ in range(200):
        n = rng.randint(2, 40)
        values = [rng.uniform(0, 1) for _ in range(n)]
        mean, ci = mean_ci(values)
        mu = sum(values) / n
        s = math.sqrt(sum((v - mu) ** 2 for v in values) / (n - 1))
        assert abs(mean - mu) < 1e-12
        assert abs(ci - 1.96 * s / math.sqrt(n)) < 1e-9


def test_aggregate_runs_identical_reports():
    c = counts(10, 90, 0, 0)
    reports = [build_report(c, [(0, 2, 2)]) for _ in range(35)]
    stats = aggregate_runs(reports)
    assert stats["detection_rate"] == (1.0, 0.0)
    assert stats["clusters_total_mean"] == (2.0, 0.0)


def test_aggregate_runs_not_applicable():
    c = ConfusionCounts(0, 10, 0, 0, 0, 5)
    reports = [build_report(c, [(0, 1, 1)]) for _ in range(3)]
    assert aggregate_runs(reports)["detection_rate"] == (None, None)
    # statistics.stdev is the independent cross-check used above
    assert statistics.mean([1.0, 2.0]) == 1.5
