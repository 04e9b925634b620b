"""Synthetic field generation and trace ingestion."""

import pytest

from fdisim.sensing import (FieldConfig, SynthField, TraceError, load_trace,
                            synth_reading)


def test_synth_degenerate_field():
    cfg = FieldConfig(base_value=16.0, drift_per_round=0.0, spatial_gradient=0.0,
                      noise_sigma=0.0)
    assert synth_reading((0, 0), 0, cfg) == 16.0
    assert synth_reading((123, 77), 500, cfg) == 16.0


def test_synth_linear_drift():
    cfg = FieldConfig(base_value=16.0, drift_per_round=0.01, spatial_gradient=0.0,
                      noise_sigma=0.0)
    assert abs(synth_reading((0, 0), 100, cfg) - 17.0) < 1e-12


def test_synth_gradient_term_analytic():
    # with zero noise, two positions differ by exactly the gradient term
    cfg = FieldConfig(base_value=10.0, drift_per_round=0.0, spatial_gradient=0.05,
                      noise_sigma=0.0)
    a = synth_reading((0.0, 0.0), 3, cfg)
    b = synth_reading((10.0, 20.0), 3, cfg)
    assert abs((b - a) - 0.05 * 30.0) < 1e-12


def test_synth_field_deterministic_per_seed():
    cfg = FieldConfig()
    positions = [(0.0, 0.0), (50.0, 50.0), (120.0, 30.0)]
    f1 = SynthField(cfg, positions, 40, seed=5)
    f2 = SynthField(cfg, positions, 40, seed=5)
    for rnd in range(40):
        for node in range(3):
            assert f1.reading(node, rnd) == f2.reading(node, rnd)
            assert f1.reading(node, rnd) == f1.reading(node, rnd)
    f3 = SynthField(cfg, positions, 40, seed=6)
    assert any(f1.reading(n, r) != f3.reading(n, r) for n in range(3) for r in range(40))


def test_synth_nearby_nodes_stay_within_similarity():
    """Monte-Carlo: at sigma 0.2 two nodes 10 m apart essentially never
    differ by anything near the similarity threshold."""
    cfg = FieldConfig(noise_sigma=0.2)
    positions = [(100.0, 100.0), (110.0, 100.0)]
    field = SynthField(cfg, positions, 1000, seed=99)
    diffs = [abs(field.reading(0, r) - field.reading(1, r)) for r in range(1000)]
    assert max(diffs) < 3.0
    assert sum(d < 1.5 for d in diffs) / len(diffs) > 0.999


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_load_trace_well_formed(tmp_path):
    path = _write(tmp_path / "t.csv",
                  "round,node_id,value\n0,0,1.5\n0,1,2.5\n1,0,3.5\n1,1,4.5\n")
    table = load_trace(path)
    assert (table.n_rounds, table.n_nodes) == (2, 2)
    assert table.reading(1, 0) == 2.5
    assert table.reading(0, 1) == 3.5


def test_load_trace_rows_any_order(tmp_path):
    path = _write(tmp_path / "t.csv",
                  "round,node_id,value\n1,1,4.5\n0,0,1.5\n1,0,3.5\n0,1,2.5\n")
    assert load_trace(path).reading(0, 0) == 1.5


def test_load_trace_missing_file():
    with pytest.raises(TraceError, match="trace not found"):
        load_trace("/nonexistent/trace.csv")


def test_load_trace_missing_pair_named(tmp_path):
    path = _write(tmp_path / "t.csv",
                  "round,node_id,value\n0,0,1.5\n0,1,2.5\n1,1,4.5\n")
    with pytest.raises(TraceError, match=r"missing pair \(round 1, node 0\)"):
        load_trace(path)


def test_load_trace_nan_rejected_with_line(tmp_path):
    path = _write(tmp_path / "t.csv",
                  "round,node_id,value\n0,0,1.5\n0,1,NaN\n")
    with pytest.raises(TraceError, match="line 3"):
        load_trace(path)


def test_load_trace_non_numeric_with_line(tmp_path):
    path = _write(tmp_path / "t.csv", "round,node_id,value\n0,zero,1.5\n")
    with pytest.raises(TraceError, match="line 2"):
        load_trace(path)


def test_load_trace_bad_header(tmp_path):
    path = _write(tmp_path / "t.csv", "r,n,v\n0,0,1.5\n")
    with pytest.raises(TraceError, match="line 1"):
        load_trace(path)


def test_load_trace_duplicate_pair(tmp_path):
    path = _write(tmp_path / "t.csv",
                  "round,node_id,value\n0,0,1.5\n0,0,2.5\n")
    with pytest.raises(TraceError, match="duplicate pair"):
        load_trace(path)


def _readings(table):
    return [[table.reading(node, rnd) for node in range(table.n_nodes)]
            for rnd in range(table.n_rounds)]


def test_trace_round_trip(tmp_path):
    original = _write(tmp_path / "a.csv",
                      "round,node_id,value\n1,1,4.25\n0,0,1.5\n1,0,-3.5\n0,1,2.125\n")
    table = load_trace(original)
    assert _readings(table) == [[1.5, 2.125], [-3.5, 4.25]]
    # written back in round-major order with repr, every value survives
    lines = ["round,node_id,value"] + [
        f"{rnd},{node},{value!r}" for rnd, row in enumerate(_readings(table))
        for node, value in enumerate(row)]
    copy = _write(tmp_path / "b.csv", "\n".join(lines) + "\n")
    assert _readings(load_trace(copy)) == _readings(table)


def test_field_config_validation():
    with pytest.raises(ValueError):
        FieldConfig(noise_sigma=-0.1).validate()
    FieldConfig().validate()


def test_synth_field_matches_formula_bit_for_bit():
    cfg = FieldConfig(base_value=16.0, drift_per_round=0.013, spatial_gradient=0.0071,
                      noise_sigma=0.0)
    positions = [(0.0, 0.0), (12.5, 199.9), (133.3, 71.7), (0.1, 0.2)]
    field = SynthField(cfg, positions, 50, seed=3)
    for node, pos in enumerate(positions):
        for rnd in range(50):
            assert field.reading(node, rnd) == synth_reading(pos, rnd, cfg)
