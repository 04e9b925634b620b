"""Attacker behavior: churn schedule, forged-value envelopes, selection."""

import random

import pytest

from fdisim.attacks import (AttackConfig, GroundTruth, attack_is_active, churn_is_false_phase,
                            forge_reading, select_attackers)


def churn_cfg(h=5, f=5):
    return AttackConfig(attack_type="churn", churn_honest_rounds=h, churn_false_rounds=f)


def test_churn_schedule_examples():
    cfg = churn_cfg(5, 5)
    assert not churn_is_false_phase(3, cfg)
    assert churn_is_false_phase(7, cfg)
    assert not churn_is_false_phase(10, cfg)


def test_churn_schedule_periodicity():
    """Any window of H+F rounds contains exactly F false rounds."""
    rng = random.Random(17)
    for _ in range(200):
        h, f = rng.randint(1, 9), rng.randint(1, 9)
        cfg = churn_cfg(h, f)
        period = h + f
        phases = [churn_is_false_phase(r, cfg) for r in range(6 * period)]
        for r in range(len(phases) - period):
            assert sum(phases[r:r + period]) == f
            assert phases[r] == phases[r + period]


def test_attack_is_active_per_type():
    assert attack_is_active(0, AttackConfig(attack_type="fdi"))
    assert attack_is_active(0, AttackConfig(attack_type="sensitive"))
    cfg = churn_cfg(2, 3)
    assert [attack_is_active(r, cfg) for r in range(5)] == [False, False, True, True, True]


def test_forge_fdi_offset_envelope():
    cfg = AttackConfig(attack_type="fdi", fdi_offset_min=10.0, fdi_offset_max=30.0)
    rng = random.Random(8)
    signs = set()
    for _ in range(1000):
        forged = forge_reading(16.0, 16.0, cfg, 3.0, rng)
        offset = forged - 16.0
        assert 10.0 <= abs(offset) <= 30.0
        signs.add(offset > 0)
    assert signs == {True, False}


def test_forge_fdi_fixed_offset_hits_fig_value():
    cfg = AttackConfig(attack_type="fdi", fdi_offset_min=29.0, fdi_offset_max=29.0)
    rng = random.Random(8)
    values = {forge_reading(16.0, 16.0, cfg, 3.0, rng) for _ in range(100)}
    assert values == {45.0, -13.0}  # drawn offset +29 forges 16 -> 45


def test_forge_sensitive_sits_just_past_threshold():
    cfg = AttackConfig(attack_type="sensitive", sensitive_margin=1.0)
    rng = random.Random(9)
    for _ in range(1000):
        agg = rng.uniform(10, 20)
        forged = forge_reading(16.0, agg, cfg, 3.0, rng)
        gap = abs(forged - agg)
        assert 3.0 < gap <= 4.0  # strictly violates similarity, by at most the margin


def test_forge_sensitive_tracks_aggregate():
    cfg = AttackConfig(attack_type="sensitive", sensitive_margin=1.0)
    rng = random.Random(10)
    forged = forge_reading(16.0, 16.0, cfg, 3.0, rng)
    assert forged != 16.0
    # spec'd example shape: aggregate 16, threshold 3, v=1, positive sign -> 20
    assert abs(forge_reading(0.0, 16.0,
                             AttackConfig(attack_type="sensitive", sensitive_margin=1.0),
                             3.0, _ForcedRng(v=1.0, positive=True)) - 20.0) < 1e-12


class _ForcedRng:
    """Drives forge_reading through a chosen (v, sign) draw."""

    def __init__(self, v, positive):
        self._v = v
        self._positive = positive
        self._calls = 0

    def random(self):
        self._calls += 1
        if self._calls == 1:
            return 1.0 - self._v  # margin * (1 - r) == v for margin 1
        return 0.0 if self._positive else 1.0

    def uniform(self, a, b):
        return a


def test_select_attackers_counts():
    rng = random.Random(1)
    assert len(select_attackers(100, 0.1, rng).attackers) == 10
    assert select_attackers(100, 0.0, rng).attackers == frozenset()
    assert len(select_attackers(50, 0.15, rng).attackers) == round(0.15 * 50)


def test_select_attackers_deterministic_per_seed():
    a = select_attackers(60, 0.2, random.Random("s/attackers"))
    b = select_attackers(60, 0.2, random.Random("s/attackers"))
    assert a.attackers == b.attackers


def test_ground_truth_membership():
    gt = GroundTruth(n_nodes=5, attackers=frozenset({1, 3}))
    assert 1 in gt.attackers and 0 not in gt.attackers
    assert len(gt.attackers) == 2


def test_attack_config_validation():
    with pytest.raises(ValueError):
        AttackConfig(attack_type="nope").validate()
    with pytest.raises(ValueError):
        AttackConfig(fdi_offset_min=5.0, fdi_offset_max=1.0).validate()
    with pytest.raises(ValueError):
        AttackConfig(sensitive_margin=0.0).validate()
    with pytest.raises(ValueError):
        AttackConfig(churn_honest_rounds=0).validate()
    AttackConfig().validate()
