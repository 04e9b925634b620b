"""Synthetic field generation and trace ingestion."""

import codecs
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fdisim.sensing import (FieldConfig, SynthField, TraceError, _parse_regular, _parse_rows,
                            load_trace)


def test_synth_degenerate_field():
    cfg = FieldConfig(base_value=16.0, drift_per_round=0.0, spatial_gradient=0.0,
                      noise_sigma=0.0)
    values = SynthField(cfg, [(0, 0), (123, 77)], 501, seed=1).values
    assert values[0, 0] == 16.0
    assert values[500, 1] == 16.0


def test_synth_linear_drift():
    cfg = FieldConfig(base_value=16.0, drift_per_round=0.01, spatial_gradient=0.0,
                      noise_sigma=0.0)
    assert abs(SynthField(cfg, [(0, 0)], 101, seed=1).values[100, 0] - 17.0) < 1e-12


def test_synth_gradient_term_analytic():
    # with zero noise, two positions differ by exactly the gradient term
    cfg = FieldConfig(base_value=10.0, drift_per_round=0.0, spatial_gradient=0.05,
                      noise_sigma=0.0)
    a, b = SynthField(cfg, [(0.0, 0.0), (10.0, 20.0)], 4, seed=1).values[3]
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
    for node, (x, y) in enumerate(positions):
        for rnd in range(50):
            formula = cfg.base_value + cfg.drift_per_round * rnd + cfg.spatial_gradient * (x + y)
            assert field.reading(node, rnd) == formula


# --- the numpy parser path against the row loop --------------------------

def _outcome(parse):
    """("table", shape, bytes) of a parse, or ("error", message)."""
    try:
        values = parse()
    except TraceError as exc:
        return ("error", str(exc))
    return ("table", values.shape, values.tobytes())


def _id_text(draw, value):
    return draw(st.sampled_from([
        str(value), f"+{value}", f"0{value}", f" {value} ", f"{value}.0", f'"{value}"',
        f"-{value}", "-1", f"{value}_0", "\uff11" if value == 1 else str(value), f"{value}e0"]))


def _value_text(draw):
    value = draw(st.floats(allow_nan=True, allow_infinity=True))
    return draw(st.sampled_from([
        repr(value), repr(value), repr(value), f" {value!r}", f'"{value!r}"', "-0.0",
        "1e400", "-1e-400", "+.5", "5.", "1_0.5", "Infinity", "nan", "1e", "", "0x1p3"]))


@st.composite
def trace_texts(draw):
    """Trace texts near the regular form: line endings, blank lines, odd
    field spellings, non-finite values and id faults are each drawn."""
    n_rounds, n_nodes = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    pairs = draw(st.permutations([(r, n) for r in range(n_rounds) for n in range(n_nodes)]))
    if len(pairs) > 1 and draw(st.booleans()):
        pairs.pop(draw(st.integers(0, len(pairs) - 1)))          # a missing pair
    if draw(st.integers(0, 4)) == 0:
        pairs.insert(draw(st.integers(0, len(pairs))), draw(st.sampled_from(pairs)))
    odd = draw(st.integers(0, 3)) == 0  # most texts spell every field plainly
    lines = [draw(st.sampled_from(["round,node_id,value"] * 4
                                  + [" round , node_id,value", "round,node,value"]))]
    for r, n in pairs:
        if odd:
            fields = [_id_text(draw, r), _id_text(draw, n), _value_text(draw)]
        else:
            fields = [str(r), str(n), repr(draw(st.floats(-1e6, 1e6)))]
        lines.append(",".join(fields))
    for _ in range(draw(st.integers(0, 2)) if odd else 0):
        lines.insert(draw(st.integers(1, len(lines))), draw(st.sampled_from(["", " ", "\t"])))
    eol = draw(st.sampled_from(["\n", "\r\n", "mixed"]))
    ends = [draw(st.sampled_from(["\n", "\r\n"])) if eol == "mixed" else eol for _ in lines]
    text = "".join(line + end for line, end in zip(lines, ends))
    return text if draw(st.booleans()) else text.rstrip("\r\n")


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(text=trace_texts(), bom=st.booleans())
def test_load_trace_matches_the_row_loop(text, bom, tmp_path_factory):
    """Either path reads a text as the row loop does, after one leading
    byte-order mark, if any, is dropped."""
    path = tmp_path_factory.mktemp("trace") / "t.csv"
    path.write_bytes((codecs.BOM_UTF8 if bom else b"") + text.encode("utf-8"))
    expected = _outcome(lambda: _parse_rows(text))
    assert _outcome(lambda: load_trace(str(path)).values) == expected
    fast = _parse_regular(text.encode("utf-8"))
    if fast is not None:
        assert ("table", fast.shape, fast.tobytes()) == expected


@pytest.mark.parametrize("text", [
    "round,node_id,value\n0,0,1.5\n0,1,-0.0\n1,1,4.5\n1,0,3.5\n",
    "round,node_id,value\r\n0,0,1.5\r\n0,1,2.5\r\n",
    "round,node_id,value\n0,0,1e-300\n0,1,+.5",
    "round,node_id,value\r\n+0,01,5.\r\n0,+0,-1E+3",
])
def test_regular_traces_take_the_numpy_path(text):
    fast = _parse_regular(text.encode())
    assert fast is not None
    rows = _parse_rows(text)
    assert fast.shape == rows.shape and fast.tobytes() == rows.tobytes()


@pytest.mark.parametrize("text, message", [
    ("round,node_id,value\n0,0,1.5\n\n0,1,2.5\n", "line 3: expected 3 fields"),
    ("round,node_id,value\n0,0,1.5\n0,1,nan\n", "line 3: non-finite value"),
    ("round,node_id,value\n0,0,1.5\n0,0,2.5\n", "line 3: duplicate pair"),
    ("round,node_id,value\n0,0,1.5\n-1,1,2.5\n", "line 3: negative round"),
    ("round,node_id,value\n0,0,1.5\n1,1,2.5\n", r"missing pair \(round 0, node 1\)"),
    ("round,node_id,value\n0,0,1.0\n0,1,2.5\n0,1.0,2.5\n", "line 4: non-numeric"),
    ("round,node_id,value\n", "no data rows"),
])
def test_irregular_traces_go_to_the_row_loop(tmp_path, text, message):
    assert _parse_regular(text.encode()) is None
    with pytest.raises(TraceError, match=message):
        load_trace(_write(tmp_path / "t.csv", text))


def test_huge_node_id_fails_fast_without_a_dense_table(tmp_path):
    path = _write(tmp_path / "t.csv", "round,node_id,value\n0,0,1.5\n0,1000000000,2.5\n")
    tracemalloc.start()
    try:
        with pytest.raises(TraceError, match=r"^trace format error: missing pair "
                                             r"\(round 0, node 1\)$"):
            load_trace(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_a_field_longer_than_csv_takes_is_a_trace_error(tmp_path):
    path = _write(tmp_path / "t.csv", "round,node_id,value\n0,0,0." + "0" * 200_000 + "1\n")
    with pytest.raises(TraceError, match="line 2: field larger than field limit"):
        load_trace(path)


def test_an_id_past_the_int_digit_limit_reads_as_in_the_row_loop(tmp_path):
    # from Python 3.11, int() refuses more than 4,300 digits; numpy does not
    text = "round,node_id,value\n0," + "0" * 5000 + ",1.5\n"
    path = _write(tmp_path / "t.csv", text)
    assert _outcome(lambda: load_trace(path).values) == _outcome(lambda: _parse_rows(text))


def test_undecodable_bytes_are_a_trace_error(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(b"round,node_id,value\n0,0,1.5\n0,1,\xff\xfe\n")
    with pytest.raises(TraceError, match="line 3: not UTF-8 text"):
        load_trace(str(path))
