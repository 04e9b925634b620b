"""Consensus deviation, the two-step filter, suspect flow and alerts."""

import math
import random
import struct

import numpy as np
from hypothesis import example, given, settings, strategies as hst

from fdisim.detection import (ADDED, CLEARED, DETECTED, PENDING, BlacklistEntry,
                              DetectionConfig, build_consensus_region, handle_alert,
                              process_suspect)
from fdisim.clustering import ClusterConfig, handle_data_message
from fdisim.domain import AlertMessage, DataMessage

from conftest import (RefNode, consensus_batch, region_spreads, scalar_region_sd,
                      scalar_verdict)

FIG_REGION = [14.0, 15.0, 16.0, 17.0, 18.0]


def _judge(region, reading, threshold=5.0):
    """The kernel's verdict code, region spread and combined spread (nan for
    an invalid region) of one suspect reading."""
    verdict, base, combined = consensus_batch([(region, reading)], threshold)
    return int(verdict[0]), base.item(), combined.item()


def test_region_sd_examples():
    fig, constant, shifted = region_spreads([FIG_REGION, [7.0, 7.0, 7.0],
                                             [114.0, 115.0, 116.0, 117.0, 118.0]])
    assert abs(fig - math.sqrt(2)) < 1e-9
    assert constant == 0.0
    assert abs(shifted - math.sqrt(2)) < 1e-9


def test_region_sd_random_identities():
    """Non-negative, zero iff constant, translation invariant, |k|-scaling."""
    rng = random.Random(123)
    cases = []
    for _ in range(1000):
        values = [rng.uniform(-50, 50) for _ in range(rng.randint(1, 12))]
        cases.append((values, rng.uniform(-100, 100), rng.uniform(-5, 5)))
    sds = region_spreads([region for values, shift, k in cases
                          for region in (values, [v + shift for v in values],
                                         [v * k for v in values], [0.0] * len(values))])
    for (values, shift, k), (sd, shifted, scaled, zero) in zip(cases, sds.reshape(-1, 4)):
        assert sd >= 0.0
        if len(set(values)) == 1:
            assert sd == 0.0
        assert abs(shifted - sd) < 1e-9 * max(1.0, sd)
        assert abs(scaled - abs(k) * sd) <= 1e-9 * max(1.0, abs(k) * sd)
        assert zero == 0.0


def test_combined_variance_closed_form():
    """Appending one value s to an n-sample region changes the population
    variance to n/(n+1)*var + n/(n+1)^2 * (s - mean)^2; checked against the
    direct evaluation on 1000 random cases."""
    rng = random.Random(2024)
    cases = []
    for _ in range(1000):
        n = rng.randint(1, 20)
        cases.append(([rng.uniform(-100, 100) for _ in range(n)], rng.uniform(-200, 200)))
    sds = region_spreads([region for values, s in cases for region in (values, values + [s])])
    for (values, s), (sd, appended) in zip(cases, sds.reshape(-1, 2)):
        n = len(values)
        mean = sum(values) / n
        var = sd ** 2
        predicted = (n / (n + 1)) * var + (n / (n + 1) ** 2) * (s - mean) ** 2
        direct = appended ** 2
        assert abs(predicted - direct) <= 1e-9 * max(1.0, abs(direct))


def test_classify_fig_values():
    code, base, combined = _judge(FIG_REGION, 45.0)
    assert code == DETECTED
    assert abs(base - math.sqrt(2)) < 1e-6
    assert abs(combined - 10.884494578170465) < 1e-6


def test_classify_mean_is_honest():
    code, base, combined = _judge(FIG_REGION, sum(FIG_REGION) / len(FIG_REGION))
    assert code == CLEARED
    assert combined <= base + 1e-12


def test_classify_moderate_reading_honest():
    code, _, combined = _judge(FIG_REGION, 22.0)
    assert code == CLEARED
    assert abs(combined - math.sqrt(40 / 6)) < 1e-9


def test_classify_region_invalid_when_spread_too_wide():
    code, _, combined = _judge([0.0, 30.0, 60.0], 45.0)
    assert code == PENDING
    assert math.isnan(combined)


def test_classify_region_invalid_without_neighbor_data():
    # a consensus of one is no consensus
    assert _judge([45.0], 14.0)[0] == PENDING


def test_classify_boundary_equality_is_honest():
    # combined SD exactly equal to the threshold acquits
    s = 7.5
    boundary = region_spreads([[0.0, 0.0, s]])[0]
    code, _, combined = _judge([0.0, 0.0], s, boundary)
    assert combined == boundary
    assert code == CLEARED


def test_classify_monotone_in_distance_from_mean():
    """Combined SD grows with |s - mean|; an attacker verdict never flips
    back to honest further out."""
    rng = random.Random(31)
    regions = []
    for _ in range(1000):
        n = rng.randint(2, 10)
        center = rng.uniform(-20, 20)
        values = [center + rng.uniform(-2, 2) for _ in range(n)]
        mean = sum(values) / n
        d1 = rng.uniform(0, 30)
        d2 = d1 + rng.uniform(0, 30)
        sign = rng.choice((-1.0, 1.0))
        regions += [(values, mean + sign * d1), (values, mean + sign * d2)]
    verdict, _, combined = consensus_batch(regions, 5.0)
    for (near, far), (near_sd, far_sd) in zip(verdict.reshape(-1, 2), combined.reshape(-1, 2)):
        assert far_sd >= near_sd - 1e-12
        if near == DETECTED:
            assert far == DETECTED


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

    assert process_suspect(st, 9, 45.0, None, dcfg, 1) == (ADDED, None, None, None)
    assert st.suspects == {9}

    region = build_consensus_region(st, 16.0, _similar(st), dcfg.consensus_region_cap)
    code, am, base, combined = process_suspect(st, 9, 45.0, region, dcfg, 2)
    assert code == DETECTED
    assert am == AlertMessage(detector=0, attacker=9, attacker_reading=45.0)
    assert 9 in st.blacklist and 9 not in st.suspects
    assert st.blacklist[9] == BlacklistEntry(detected_round=2, detector=0, reading=45.0)
    assert abs(base - math.sqrt(2)) < 1e-6
    assert abs(combined - 10.884494578170465) < 1e-6


def test_process_suspect_cleared_when_back_in_consensus():
    dcfg = DetectionConfig(consensus_threshold=5.0)
    st = _node_with_similar(0, 16.0, [14.0, 15.0, 17.0, 18.0])
    st.suspects.add(9)
    region = build_consensus_region(st, 16.0, _similar(st), dcfg.consensus_region_cap)
    code, am, _, _ = process_suspect(st, 9, 22.0, region, dcfg, 1)
    assert code == CLEARED and am is None
    assert 9 not in st.suspects and 9 not in st.blacklist


def test_process_suspect_pending_on_invalid_region():
    dcfg = DetectionConfig(consensus_threshold=5.0)
    st = _node_with_similar(0, 16.0, [])  # no similar neighbors at all
    st.suspects.add(9)
    region = build_consensus_region(st, 16.0, _similar(st), dcfg.consensus_region_cap)
    code, am, base, combined = process_suspect(st, 9, 45.0, region, dcfg, 1)
    assert code == PENDING and am is None
    assert base == 0.0 and math.isnan(combined)
    assert 9 in st.suspects and 9 not in st.blacklist


def test_build_consensus_region_caps_and_skips():
    st = _node_with_similar(0, 16.0, [14.0, 15.0, 15.5, 16.5, 17.0, 17.5, 18.0])
    st.suspects.add(100)   # first similar neighbor is suspect
    st.blacklist[101] = BlacklistEntry(0, 0, 15.0)
    region = build_consensus_region(st, 16.0, _similar(st), cap=3)
    # own reading plus the three lowest-id eligible similar neighbors
    assert region == [16.0, 15.5, 16.5, 17.0]


def test_handle_alert_new_entry_and_forwarding():
    blacklist = {}
    am = AlertMessage(detector=1, attacker=100, attacker_reading=45.0)
    assert handle_alert(blacklist, am, is_leader=True, rnd=3) is True
    assert blacklist == {100: BlacklistEntry(detected_round=3, detector=1, reading=45.0)}


def test_handle_alert_duplicate_idempotent():
    blacklist = {}
    am = AlertMessage(detector=1, attacker=9, attacker_reading=45.0)
    assert handle_alert(blacklist, am, is_leader=True, rnd=3) is True
    entry = blacklist[9]
    assert handle_alert(blacklist, am, is_leader=True, rnd=7) is False
    assert blacklist[9] is entry  # unchanged, original round kept


def test_handle_alert_common_node_does_not_forward():
    blacklist = {}
    am = AlertMessage(detector=1, attacker=9, attacker_reading=45.0)
    assert handle_alert(blacklist, am, is_leader=False, rnd=3) is False
    assert 9 in blacklist


def test_handle_alert_rejects_invalid():
    blacklist = {}
    bad = AlertMessage(detector=9, attacker=9, attacker_reading=45.0)
    assert handle_alert(blacklist, bad, is_leader=True, rnd=0) is False
    assert not blacklist


def _same(a, b) -> bool:
    """Equal bit for bit; any two nans are the same."""
    return (math.isnan(a) and math.isnan(b)) or struct.pack("<d", a) == struct.pack("<d", b)


def _check_kernel(regions, threshold):
    verdict, base, spread = consensus_batch(regions, threshold)
    for r, (values, reading) in enumerate(regions):
        want, want_base, want_combined = scalar_verdict(values, reading, threshold)
        assert verdict[r] == want
        assert _same(base[r], want_base)
        assert _same(spread[r], math.nan if want_combined is None else want_combined)


CAP = DetectionConfig().consensus_region_cap
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
    assert consensus_batch([([0.0, 2.0], 1.0)], threshold)[0][0] == CLEARED
    # a combined spread equal to the threshold acquits, one ulp above convicts
    threshold = scalar_region_sd([0.0, 0.0, 7.5])
    regions = [([0.0, 0.0], 7.5)]
    assert consensus_batch(regions, threshold)[0][0] == CLEARED
    assert consensus_batch(regions, np.nextafter(threshold, 0.0))[0][0] == DETECTED
    _check_kernel(regions, threshold)


def test_spreads_are_the_scalar_loop_bit_for_bit():
    """Over many noisy regions, in one batch and one by one. Squaring by
    d * d instead of pow differs from ``** 2`` in the last bit on about 1 in
    1,000 deviations, which this batch catches."""
    rng = random.Random(5)
    regions = [([rng.gauss(20.0, 1.5) for _ in range(rng.randint(1, CAP + 1))],
                rng.gauss(20.0, 3.0)) for _ in range(5000)]
    _check_kernel(regions, 1.0)
    for region in regions[:500]:
        _check_kernel([region], 1.0)


def test_overflowing_spread_leaves_the_suspect_pending():
    """A square that overflows makes the spread inf, not an OverflowError,
    so the region is invalid."""
    code, base, combined = _judge([1e155, -1e155], 0.0, 1e155)
    assert code == PENDING
    assert base == math.inf and math.isnan(combined)
