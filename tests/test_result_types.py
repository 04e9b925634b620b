"""A run's results carry built-in scalars only, never numpy ones.

The reports stay plain and the pickled results small. ``cli._fmt`` and
``validate_alert_message`` also take numpy scalars; ``test_cli`` and
``test_domain`` pin that.
"""

import dataclasses

import pytest

import fdisim.engine as engine
from fdisim.attacks import AttackConfig
from fdisim.detection import handle_alert
from fdisim.engine import ScenarioConfig
from fdisim.sensing import FieldConfig

from conftest import run_recorded

BUILTIN = (int, float, str, type(None))

CASES = {
    "fdi": lambda: ScenarioConfig(n_nodes=40, n_rounds=40, seed=3),
    "churn": lambda: ScenarioConfig(n_nodes=40, n_rounds=60, seed=3,
                                    attack=AttackConfig(attack_type="churn")),
    "sensitive": lambda: ScenarioConfig(n_nodes=40, n_rounds=40, seed=1,
                                        attack=AttackConfig(attack_type="sensitive"),
                                        sensing=FieldConfig(noise_sigma=1.5)),
    "overflow-discard": lambda: ScenarioConfig(n_nodes=30, n_rounds=6, sensing=FieldConfig(
        base_value=1e308, spatial_gradient=0.0)),
}


def _field_values(record):
    return [getattr(record, f.name) for f in dataclasses.fields(record)]


@pytest.mark.parametrize("case", sorted(CASES))
def test_results_hold_builtin_scalars(case, monkeypatch):
    alerts = []

    def recording(blacklist, am, rnd):
        alerts.append(am)
        return handle_alert(blacklist, am, rnd)

    result, _ = run_recorded(CASES[case](), monkeypatch, handle_alert=recording)
    values = [v for event in result.events for v in event]
    values += [v for d in result.detections for v in _field_values(d)]
    for blacklist in result.node_blacklists:
        for attacker, entry in blacklist.items():
            values += [attacker] + _field_values(entry)
    values += [v for am in alerts for v in (am.detector, am.attacker, am.attacker_reading)]
    values += [m for snap in result.snapshots for members in snap.clusters + snap.leaders
               for m in members]
    values += [result.confusion.total_interactions]
    assert values
    assert {type(v) for v in values} <= set(BUILTIN)
    if case != "overflow-discard":
        assert alerts and result.detections
    assert engine.EVENT_DM_SENT in {e[1] for e in result.events}
