"""Wire-record validation and the node label transition relation."""

import math
import random

import numpy as np
import pytest

from fdisim.domain import (AlertMessage, DataMessage, NodeLabel, transition_label,
                           validate_alert_message, validate_data_message)


def test_complete_data_message_accepted():
    msg = DataMessage(sender=3, individual_reading=16.0, aggregate_reading=15.5,
                      neighbor_count=2)
    assert validate_data_message(msg)


def test_nan_reading_discarded():
    msg = DataMessage(sender=3, individual_reading=math.nan, aggregate_reading=15.5,
                      neighbor_count=2)
    assert not validate_data_message(msg)


def test_infinite_aggregate_discarded():
    msg = DataMessage(sender=3, individual_reading=16.0, aggregate_reading=math.inf,
                      neighbor_count=2)
    assert not validate_data_message(msg)


def test_missing_neighbor_count_discarded():
    msg = DataMessage(sender=3, individual_reading=16.0, aggregate_reading=15.5,
                      neighbor_count=None)
    assert not validate_data_message(msg)


def test_missing_sender_and_negative_count_discarded():
    assert not validate_data_message(
        DataMessage(sender=None, individual_reading=16.0, aggregate_reading=15.5,
                    neighbor_count=2))
    assert not validate_data_message(
        DataMessage(sender=3, individual_reading=16.0, aggregate_reading=15.5,
                    neighbor_count=-1))


def test_validation_is_pure():
    msg = DataMessage(sender=1, individual_reading=2.0, aggregate_reading=3.0,
                      neighbor_count=0)
    assert validate_data_message(msg) == validate_data_message(msg)


def test_alert_accepted():
    assert validate_alert_message(AlertMessage(detector=2, attacker=7, attacker_reading=45.0))


def test_self_accusation_discarded():
    assert not validate_alert_message(AlertMessage(detector=5, attacker=5,
                                                   attacker_reading=45.0))


def test_alert_missing_reading_discarded():
    assert not validate_alert_message(AlertMessage(detector=2, attacker=7,
                                                   attacker_reading=None))


def test_alert_numpy_ids_accepted_bool_ids_rejected():
    assert validate_alert_message(AlertMessage(np.int64(1), np.int64(2), 3.0))
    assert not validate_alert_message(AlertMessage(True, 2, 3.0))
    assert not validate_alert_message(AlertMessage(np.int64(1), np.bool_(True), 3.0))


LEGAL = {
    (NodeLabel.HONEST, NodeLabel.SUSPICIOUS),
    (NodeLabel.SUSPICIOUS, NodeLabel.HONEST),
    (NodeLabel.SUSPICIOUS, NodeLabel.ATTACKER),
}


def test_label_legal_arcs():
    assert transition_label(NodeLabel.HONEST, NodeLabel.SUSPICIOUS) is NodeLabel.SUSPICIOUS
    assert transition_label(NodeLabel.SUSPICIOUS, NodeLabel.HONEST) is NodeLabel.HONEST
    assert transition_label(NodeLabel.SUSPICIOUS, NodeLabel.ATTACKER) is NodeLabel.ATTACKER


def test_label_illegal_arcs_raise():
    with pytest.raises(ValueError):
        transition_label(NodeLabel.HONEST, NodeLabel.ATTACKER)
    with pytest.raises(ValueError):
        transition_label(NodeLabel.ATTACKER, NodeLabel.HONEST)
    with pytest.raises(ValueError):
        transition_label(NodeLabel.ATTACKER, NodeLabel.SUSPICIOUS)


def test_label_transitions_random_walk():
    """Random transition attempts: only the three arcs (plus staying put)
    ever succeed; the attacker label is absorbing."""
    rng = random.Random(20240801)
    labels = list(NodeLabel)
    current = NodeLabel.HONEST
    for _ in range(1000):
        target = rng.choice(labels)
        if target is current or (current, target) in LEGAL:
            current = transition_label(current, target)
            assert current is target
        else:
            with pytest.raises(ValueError):
                transition_label(current, target)
        if current is NodeLabel.ATTACKER:
            for other in labels:
                if other is not NodeLabel.ATTACKER:
                    with pytest.raises(ValueError):
                        transition_label(current, other)
