"""Consensus deviation, the two-step filter, suspect flow and alerts."""

import math
import random
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as hst

from fdisim.detection import (CLEARED, DETECTED, PENDING, BlacklistEntry, ClassifyOutcome,
                              ConsensusRegion, DetectionConfig, build_consensus_region,
                              classify_suspect, consensus_verdicts, handle_alert,
                              process_suspect, region_sd, SuspectEntry, SuspectOutcome)
from fdisim.clustering import ClusterConfig, handle_data_message
from fdisim.domain import AlertMessage, DataMessage

from conftest import RefNode, scalar_region_sd, scalar_verdict

FIG_REGION = [14.0, 15.0, 16.0, 17.0, 18.0]


def test_region_sd_examples():
    assert abs(region_sd(FIG_REGION) - math.sqrt(2)) < 1e-9
    assert region_sd([7.0, 7.0, 7.0]) == 0.0
    assert abs(region_sd([114.0, 115.0, 116.0, 117.0, 118.0]) - math.sqrt(2)) < 1e-9


def test_region_sd_empty_raises():
    with pytest.raises(ValueError, match="empty consensus region"):
        region_sd([])


def test_region_sd_random_identities():
    """Non-negative, zero iff constant, translation invariant, |k|-scaling."""
    rng = random.Random(123)
    for _ in range(1000):
        values = [rng.uniform(-50, 50) for _ in range(rng.randint(1, 12))]
        sd = region_sd(values)
        assert sd >= 0.0
        if len(set(values)) == 1:
            assert sd == 0.0
        shift = rng.uniform(-100, 100)
        assert abs(region_sd([v + shift for v in values]) - sd) < 1e-9 * max(1.0, sd)
        k = rng.uniform(-5, 5)
        assert abs(region_sd([v * k for v in values]) - abs(k) * sd) \
            <= 1e-9 * max(1.0, abs(k) * sd)
        assert region_sd([0.0] * len(values)) == 0.0


def test_combined_variance_closed_form():
    """Appending one value s to an n-sample region changes the population
    variance to n/(n+1)*var + n/(n+1)^2 * (s - mean)^2; checked against the
    direct evaluation on 1000 random cases."""
    rng = random.Random(2024)
    for _ in range(1000):
        n = rng.randint(1, 20)
        values = [rng.uniform(-100, 100) for _ in range(n)]
        s = rng.uniform(-200, 200)
        mean = sum(values) / n
        var = region_sd(values) ** 2
        predicted = (n / (n + 1)) * var + (n / (n + 1) ** 2) * (s - mean) ** 2
        direct = region_sd(values + [s]) ** 2
        assert abs(predicted - direct) <= 1e-9 * max(1.0, abs(direct))


def test_classify_fig_values():
    cfg = DetectionConfig(consensus_threshold=5.0)
    res = classify_suspect(ConsensusRegion(list(FIG_REGION)), 45.0, cfg)
    assert res.outcome is ClassifyOutcome.ATTACKER
    assert abs(res.region_sd - math.sqrt(2)) < 1e-6
    assert abs(res.combined_sd - 10.884494578170465) < 1e-6


def test_classify_mean_is_honest():
    cfg = DetectionConfig(consensus_threshold=5.0)
    mean = sum(FIG_REGION) / len(FIG_REGION)
    res = classify_suspect(ConsensusRegion(list(FIG_REGION)), mean, cfg)
    assert res.outcome is ClassifyOutcome.HONEST
    assert res.combined_sd <= res.region_sd + 1e-12


def test_classify_moderate_reading_honest():
    cfg = DetectionConfig(consensus_threshold=5.0)
    res = classify_suspect(ConsensusRegion(list(FIG_REGION)), 22.0, cfg)
    assert res.outcome is ClassifyOutcome.HONEST
    assert abs(res.combined_sd - math.sqrt(40 / 6)) < 1e-9


def test_classify_region_invalid_when_spread_too_wide():
    cfg = DetectionConfig(consensus_threshold=5.0)
    res = classify_suspect(ConsensusRegion([0.0, 30.0, 60.0]), 45.0, cfg)
    assert res.outcome is ClassifyOutcome.REGION_INVALID
    assert res.combined_sd is None


def test_classify_region_invalid_without_neighbor_data():
    # a consensus of one is no consensus
    cfg = DetectionConfig(consensus_threshold=5.0)
    res = classify_suspect(ConsensusRegion([45.0]), 14.0, cfg)
    assert res.outcome is ClassifyOutcome.REGION_INVALID


def test_classify_boundary_equality_is_honest():
    # combined SD exactly equal to the threshold acquits
    s = 7.5
    boundary = region_sd([0.0, 0.0, s])
    cfg = DetectionConfig(consensus_threshold=boundary)
    res = classify_suspect(ConsensusRegion([0.0, 0.0]), s, cfg)
    assert res.combined_sd == boundary
    assert res.outcome is ClassifyOutcome.HONEST


def test_classify_monotone_in_distance_from_mean():
    """Combined SD grows with |s - mean|; an attacker verdict never flips
    back to honest further out."""
    rng = random.Random(31)
    cfg = DetectionConfig(consensus_threshold=5.0)
    for _ in range(1000):
        n = rng.randint(2, 10)
        center = rng.uniform(-20, 20)
        values = [center + rng.uniform(-2, 2) for _ in range(n)]
        region = ConsensusRegion(values)
        mean = sum(values) / n
        d1 = rng.uniform(0, 30)
        d2 = d1 + rng.uniform(0, 30)
        sign = rng.choice((-1.0, 1.0))
        near = classify_suspect(region, mean + sign * d1, cfg)
        far = classify_suspect(region, mean + sign * d2, cfg)
        assert far.combined_sd >= near.combined_sd - 1e-12
        if near.outcome is ClassifyOutcome.ATTACKER:
            assert far.outcome is ClassifyOutcome.ATTACKER


def _node_with_similar(node_id, own, neighbor_readings, rnd=0):
    cfg = ClusterConfig(cthresh=3.0)
    st = RefNode(node_id)
    for i, reading in enumerate(neighbor_readings, start=100):
        handle_data_message(st.table, DataMessage(i, reading, reading, 1), own, cfg, rnd)
    return st


def _similar(st):
    """A reference node's similar neighbors as (id, reading), ascending id."""
    return [(nid, st.table.reading(nid)) for nid in sorted(st.table.similar)]


def test_process_suspect_add_then_detect():
    dcfg = DetectionConfig(consensus_threshold=5.0)
    st = _node_with_similar(0, 16.0, [14.0, 15.0, 17.0, 18.0])

    outcome, am, res = process_suspect(st, 9, 45.0, False, None, dcfg, 1)
    assert outcome is SuspectOutcome.ADDED and am is None
    assert 9 in st.suspects and st.suspects[9].first_flag_round == 1

    region = build_consensus_region(st, 16.0, _similar(st), dcfg.region_cap)
    outcome, am, res = process_suspect(st, 9, 45.0, False, region, dcfg, 2)
    assert outcome is SuspectOutcome.DETECTED
    assert am == AlertMessage(detector=0, attacker=9, attacker_reading=45.0)
    assert 9 in st.blacklist and 9 not in st.suspects
    assert st.blacklist[9] == BlacklistEntry(detected_round=2, detector=0, reading=45.0)
    assert abs(res.combined_sd - 10.884494578170465) < 1e-6


def test_process_suspect_cleared_when_back_in_consensus():
    dcfg = DetectionConfig(consensus_threshold=5.0)
    st = _node_with_similar(0, 16.0, [14.0, 15.0, 17.0, 18.0])
    st.suspects[9] = SuspectEntry(first_flag_round=0)
    region = build_consensus_region(st, 16.0, _similar(st), dcfg.region_cap)
    outcome, am, res = process_suspect(st, 9, 22.0, False, region, dcfg, 1)
    assert outcome is SuspectOutcome.CLEARED
    assert 9 not in st.suspects and 9 not in st.blacklist


def test_process_suspect_pending_on_invalid_region():
    dcfg = DetectionConfig(consensus_threshold=5.0)
    st = _node_with_similar(0, 16.0, [])  # no similar neighbors at all
    st.suspects[9] = SuspectEntry(first_flag_round=0)
    region = build_consensus_region(st, 16.0, _similar(st), dcfg.region_cap)
    outcome, am, res = process_suspect(st, 9, 45.0, False, region, dcfg, 1)
    assert outcome is SuspectOutcome.PENDING
    assert 9 in st.suspects and 9 not in st.blacklist


def test_build_consensus_region_caps_and_skips():
    st = _node_with_similar(0, 16.0, [14.0, 15.0, 15.5, 16.5, 17.0, 17.5, 18.0])
    st.suspects[100] = SuspectEntry(0)   # first similar neighbor is suspect
    st.blacklist[101] = BlacklistEntry(0, 0, 15.0)
    region = build_consensus_region(st, 16.0, _similar(st), cap=3)
    # own reading plus the three lowest-id eligible similar neighbors
    assert region.values == [16.0, 15.5, 16.5, 17.0]
    assert region.ids == (102, 103, 104)
    assert region.sd == region_sd(region.values)


def test_handle_alert_new_entry_and_forwarding():
    st = RefNode(4)
    victim = 100
    st.suspects[victim] = SuspectEntry(0)
    am = AlertMessage(detector=1, attacker=victim, attacker_reading=45.0)
    assert handle_alert(st, am, is_leader=True, rnd=3) is True
    assert victim in st.blacklist
    assert victim not in st.suspects


def test_handle_alert_duplicate_idempotent():
    st = RefNode(4)
    am = AlertMessage(detector=1, attacker=9, attacker_reading=45.0)
    assert handle_alert(st, am, is_leader=True, rnd=3) is True
    entry = st.blacklist[9]
    assert handle_alert(st, am, is_leader=True, rnd=7) is False
    assert st.blacklist[9] is entry  # unchanged, original round kept


def test_handle_alert_common_node_does_not_forward():
    st = RefNode(4)
    am = AlertMessage(detector=1, attacker=9, attacker_reading=45.0)
    assert handle_alert(st, am, is_leader=False, rnd=3) is False
    assert 9 in st.blacklist


def test_handle_alert_rejects_invalid():
    st = RefNode(4)
    bad = AlertMessage(detector=9, attacker=9, attacker_reading=45.0)
    assert handle_alert(st, bad, is_leader=True, rnd=0) is False
    assert not st.blacklist


def _same(a, b) -> bool:
    """Equal bit for bit; any two nans are the same."""
    return (math.isnan(a) and math.isnan(b)) or struct.pack("<d", a) == struct.pack("<d", b)


def _kernel(regions, threshold):
    """consensus_verdicts over (region values, suspect reading) pairs."""
    width = max(len(values) for values, _ in regions)
    values = np.full((len(regions), width), -0.0)
    for r, (region, _) in enumerate(regions):
        values[r, :len(region)] = region
    return consensus_verdicts(values, np.array([len(v) for v, _ in regions]),
                              np.array([x for _, x in regions], dtype=float), threshold)


def _check_kernel(regions, threshold):
    verdict, base, spread = _kernel(regions, threshold)
    for r, (values, reading) in enumerate(regions):
        want, want_base, want_combined = scalar_verdict(values, reading, threshold)
        assert verdict[r] == want
        assert _same(base[r], want_base)
        assert _same(spread[r], math.nan if want_combined is None else want_combined)


CAP = DetectionConfig().region_cap
reading = hst.one_of(hst.floats(min_value=-1e3, max_value=1e3), hst.floats(),
                     hst.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1e155, -1e155]))


@settings(max_examples=300, deadline=None)
# -0.0 own readings, alone and beside other readings
@example([([-0.0], 1.0), ([-0.0, -0.0], -0.0), ([-0.0, 3.0, 4.0], -0.0)], 5.0)
# squares that overflow, and inf and nan readings
@example([([1e155, -1e155], 0.0), ([1.0, 2.0], 1e200), ([math.inf, 1.0], 0.0),
          ([1.0, 2.0], math.nan)], 1.0)
@given(hst.lists(hst.tuples(hst.lists(reading, min_size=1, max_size=CAP + 1), reading),
                 min_size=1, max_size=8),
       hst.floats(min_value=1e-12, max_value=1e6))
def test_consensus_verdicts_match_the_scalar_filter(regions, threshold):
    _check_kernel(regions, threshold)


def test_consensus_verdicts_on_the_threshold():
    # a region spread equal to the threshold is valid
    threshold = scalar_region_sd([0.0, 2.0])
    assert _kernel([([0.0, 2.0], 1.0)], threshold)[0][0] == CLEARED
    # a combined spread equal to the threshold acquits, one ulp above convicts
    threshold = scalar_region_sd([0.0, 0.0, 7.5])
    regions = [([0.0, 0.0], 7.5)]
    assert _kernel(regions, threshold)[0][0] == CLEARED
    assert _kernel(regions, np.nextafter(threshold, 0.0))[0][0] == DETECTED
    _check_kernel(regions, threshold)


def test_spreads_are_the_scalar_loop_bit_for_bit():
    """Over many noisy regions, in one batch and one by one through
    region_sd. Squaring by d * d instead of pow differs from ``** 2`` in the
    last bit on about 1 in 1,000 deviations, which this batch catches."""
    rng = random.Random(5)
    regions = [([rng.gauss(20.0, 1.5) for _ in range(rng.randint(1, CAP + 1))],
                rng.gauss(20.0, 3.0)) for _ in range(5000)]
    _check_kernel(regions, 1.0)
    for values, _ in regions[:500]:
        assert _same(region_sd(values), scalar_region_sd(values))


def test_overflowing_spread_leaves_the_suspect_pending():
    """A square that overflows makes the spread inf, not an OverflowError,
    so the region is invalid."""
    assert region_sd([1e155, -1e155]) == math.inf
    res = classify_suspect(ConsensusRegion([1e155, -1e155]), 0.0,
                           DetectionConfig(consensus_threshold=1e155))
    assert res.outcome is ClassifyOutcome.REGION_INVALID
    assert res.region_sd == math.inf
