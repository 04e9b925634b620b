"""Config parsing, sweep outputs, exit codes and output determinism."""

import csv
import os
import re
import stat
from pathlib import Path

import numpy as np
import pytest

from fdisim.cli import (_CONFIG_KEYS, EXIT_CONFIG, EXIT_IO, EXIT_OK, EXIT_TRACE, _fmt, main,
                        parse_config, run_sweep, scenario_id)
from fdisim.engine import ConfigError, ScenarioConfig

from conftest import golden_config, write_golden_trace


def test_parse_empty_file_yields_defaults(tmp_path):
    path = tmp_path / "empty.cfg"
    path.write_text("", encoding="utf-8")
    cfg = parse_config(str(path))
    assert cfg.n_nodes == 100
    assert cfg.n_rounds == 600
    assert (cfg.area_width_m, cfg.area_height_m) == (200.0, 200.0)
    assert cfg.tx_radius_m == 100.0
    assert cfg.cluster.cthresh == 3.0
    assert cfg.detection.consensus_threshold == 5.0


def test_parse_no_file_yields_defaults():
    cfg = parse_config(None)
    assert cfg.n_nodes == 100 and cfg.detection.detection_enabled


def test_parse_values_and_comments(tmp_path):
    path = tmp_path / "s.cfg"
    path.write_text(
        "# scenario\n"
        "n_nodes = 50\n"
        "attack_type = churn   # alternates phases\n"
        "detection_enabled = false\n"
        "noise_sigma = 0.5\n",
        encoding="utf-8")
    cfg = parse_config(str(path))
    assert cfg.n_nodes == 50
    assert cfg.attack.attack_type == "churn"
    assert not cfg.detection.detection_enabled
    assert cfg.sensing.noise_sigma == 0.5


def test_parse_unknown_key_names_line(tmp_path):
    path = tmp_path / "s.cfg"
    path.write_text("n_nodes = 50\nbogus_key = 3\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=r"unknown config key 'bogus_key' at line 2"):
        parse_config(str(path))


def test_parse_bad_value_names_key_and_line(tmp_path):
    path = tmp_path / "s.cfg"
    path.write_text("n_nodes = soon\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=r"bad value for 'n_nodes' at line 1"):
        parse_config(str(path))


@pytest.mark.parametrize("line, message", [
    pytest.param("attacker_fraction = 1.5", "attacker_fraction", id="attacker_fraction"),
    pytest.param("consensus_region_cap = 0", "consensus_region_cap must be >= 1",
                 id="consensus_region_cap"),
])
def test_parse_out_of_range_value_names_key(line, message, tmp_path):
    path = tmp_path / "s.cfg"
    path.write_text(line + "\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=message):
        parse_config(str(path))


def test_parse_malformed_line(tmp_path):
    path = tmp_path / "s.cfg"
    path.write_text("just words\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="malformed line 1"):
        parse_config(str(path))


def test_parse_unreadable_file():
    with pytest.raises(ConfigError, match="cannot read config file"):
        parse_config("/nonexistent/place.cfg")


def test_overrides_win_over_file(tmp_path):
    path = tmp_path / "s.cfg"
    path.write_text("n_nodes = 50\n", encoding="utf-8")
    cfg = parse_config(str(path), {"n_nodes": "120"})
    assert cfg.n_nodes == 120


def test_fmt_writes_numpy_floats_as_plain_numbers():
    assert _fmt(np.float64(1.5)) == "1.5"
    assert float(_fmt(np.float64(0.1))) == 0.1


def test_scenario_id_shape():
    cfg = ScenarioConfig(n_nodes=100, attacker_fraction=0.1)
    assert scenario_id(cfg) == "n100_a10_fdi_det"
    cfg.detection.detection_enabled = False
    cfg.attack.attack_type = "churn"
    assert scenario_id(cfg) == "n100_a10_churn_nodet"


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


REPORTS = ("summary.csv", "raw/metrics.csv", "timeseries.csv", "events.csv")


def small_sweep_cfg():
    cfg = ScenarioConfig(n_nodes=20, n_rounds=40, attacker_fraction=0.1, seed=1)
    return cfg


def test_run_sweep_outputs(tmp_path):
    out = tmp_path / "out"
    code = run_sweep(small_sweep_cfg(), runs=2, base_seed=10, out_dir=str(out))
    assert code == EXIT_OK
    summary = _read_csv(out / "summary.csv")
    assert summary[0] == ["scenario_id", "n_nodes", "attacker_pct", "attack_type",
                          "detection_enabled", "dr_mean", "dr_ci", "acc_mean", "acc_ci",
                          "fpr_mean", "fpr_ci", "fnr_mean", "fnr_ci", "precision_mean",
                          "recall_mean", "f1_mean", "clusters_total_mean",
                          "clusters_attacker_free_mean"]
    assert len(summary) == 2
    ts = _read_csv(out / "timeseries.csv")
    assert ts[0] == ["run", "round", "clusters_total", "clusters_attacker_free",
                     "blacklisted_count"]
    assert len(ts) == 1 + 2 * 40  # header + runs x rounds
    events = _read_csv(out / "events.csv")
    assert events[0] == ["run", "round", "event", "node", "subject", "value"]
    raw = _read_csv(out / "raw" / "metrics.csv")
    assert raw[0] == ["run", "seed", "tp", "tn", "fp", "fn", "attackers_inserted",
                      "total_interactions", "fn_count_paper", "detection_rate", "accuracy",
                      "accuracy_x100", "fpr", "fnr", "precision", "recall", "f1",
                      "clusters_total_mean", "clusters_attacker_free_mean"]
    assert len(raw) == 3
    assert raw[1][0] == "0" and raw[1][1] == "10"   # run index, seed
    assert raw[2][1] == "11"
    # no abandoned temp files from the atomic writes
    assert not [p for p in os.listdir(out) if p.startswith(".tmp-")]


def test_run_sweep_deterministic_bytes(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_sweep(small_sweep_cfg(), 2, 5, str(out1)) == EXIT_OK
    assert run_sweep(small_sweep_cfg(), 2, 5, str(out2)) == EXIT_OK
    for name in REPORTS:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_run_sweep_parallel_matches_serial(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_sweep(small_sweep_cfg(), 3, 5, str(out1), jobs=1) == EXIT_OK
    assert run_sweep(small_sweep_cfg(), 3, 5, str(out2), jobs=2) == EXIT_OK
    for name in REPORTS:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_main_config_error_exit(tmp_path):
    path = tmp_path / "s.cfg"
    path.write_text("attacker_fraction = 1.5\n", encoding="utf-8")
    assert main(["--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_CONFIG


def test_main_trace_error_exit(tmp_path):
    assert main(["--trace", "/nonexistent/trace.csv",
                 "--out", str(tmp_path / "o")]) == EXIT_TRACE


def test_main_non_utf8_trace_is_a_trace_error(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    trace.write_bytes(b"round,node_id,value\n0,0,1.5\n0,1,\xff\xfe\n")
    code = main(["--trace", str(trace), "--nodes", "2", "--attackers-pct", "0",
                 "--out", str(tmp_path / "o")])
    assert code == EXIT_TRACE
    assert capsys.readouterr().err == \
        "trace error: trace format error at line 3: not UTF-8 text\n"
    assert not (tmp_path / "o" / "events.csv").exists()


def test_main_reads_a_trace_with_a_byte_order_mark(tmp_path):
    """A "CSV UTF-8" file as spreadsheets write it: a byte-order mark first."""
    trace = tmp_path / "trace.csv"
    trace.write_bytes(b"\xef\xbb\xbfround,node_id,value\r\n0,0,1.5\r\n0,1,2.5\r\n")
    cfg = tmp_path / "s.cfg"
    cfg.write_text("n_rounds = 1\n", encoding="utf-8")
    out = tmp_path / "o"
    code = main(["--config", str(cfg), "--trace", str(trace), "--nodes", "2",
                 "--attackers-pct", "0", "--out", str(out)])
    assert code == EXIT_OK
    sent = [r[5] for r in _read_csv(out / "events.csv")[1:] if r[2] == "dm_sent"]
    assert sent == ["1.5", "2.5"]


def test_main_non_utf8_config_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "s.cfg"
    path.write_bytes(b"n_nodes = 10\n# \xff\xfe\n")
    code = main(["--config", str(path), "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: config file {path} is not UTF-8 text\n"
    assert not (tmp_path / "o").exists()


def test_main_reads_a_config_with_a_byte_order_mark(tmp_path):
    """A config saved by an editor that writes a byte-order mark first."""
    path = tmp_path / "s.cfg"
    path.write_bytes(b"\xef\xbb\xbfn_nodes = 10\r\nn_rounds = 2\r\n")
    out = tmp_path / "o"
    code = main(["--config", str(path), "--attackers-pct", "0", "--out", str(out)])
    assert code == EXIT_OK
    sent = [r for r in _read_csv(out / "events.csv")[1:] if r[2] == "dm_sent"]
    assert len(sent) == 2 * 10


def test_main_io_error_exit(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory", encoding="utf-8")
    code = main(["--nodes", "10", "--attackers-pct", "0", "--out",
                 str(blocker / "nested")])
    assert code == EXIT_IO


def test_main_overrides_and_no_detection(tmp_path):
    out = tmp_path / "o"
    code = main(["--nodes", "15", "--attackers-pct", "20", "--runs", "1",
                 "--seed", "3", "--no-detection", "--out", str(out)])
    assert code == EXIT_OK
    rows = _read_csv(out / "summary.csv")
    header, row = rows
    record = dict(zip(header, row))
    assert record["n_nodes"] == "15"
    assert record["attacker_pct"] == "20.0"
    assert record["detection_enabled"] == "false"
    assert record["dr_mean"] == "0.0"  # baseline never detects
    ts = _read_csv(out / "timeseries.csv")
    assert all(r[4] == "0" for r in ts[1:])  # blacklist stays empty


def test_main_runs_golden_trace(tmp_path):
    trace = write_golden_trace(tmp_path / "trace.csv")
    out = tmp_path / "o"
    code = main(["--nodes", "6", "--trace", str(trace), "--attackers-pct", "0",
                 "--seed", "42", "--out", str(out), "--config", _golden_cfg_file(tmp_path)])
    assert code == EXIT_OK
    events = _read_csv(out / "events.csv")
    kinds = {r[2] for r in events[1:]}
    assert "attacker_detected" in kinds and "node_excluded" in kinds


def _golden_cfg_file(tmp_path):
    cfg = golden_config(tmp_path / "trace.csv")
    path = tmp_path / "golden.cfg"
    path.write_text(
        f"n_rounds = {cfg.n_rounds}\n"
        f"area_width_m = {cfg.area_width_m}\n"
        f"area_height_m = {cfg.area_height_m}\n",
        encoding="utf-8")
    return str(path)


def test_grid_recipe_covers_scenario_matrix(tmp_path):
    """The documented sweep recipe: one invocation per (nodes, share) cell."""
    rows = []
    for nodes in (10, 15):
        for pct in (10, 20):
            out = tmp_path / f"grid_{nodes}_{pct}"
            code = main(["--nodes", str(nodes), "--attackers-pct", str(pct),
                         "--runs", "2", "--seed", "1", "--out", str(out)])
            assert code == EXIT_OK
            header, row = _read_csv(out / "summary.csv")
            rows.append(dict(zip(header, row)))
    ids = {r["scenario_id"] for r in rows}
    assert ids == {"n10_a10_fdi_det", "n10_a20_fdi_det",
                   "n15_a10_fdi_det", "n15_a20_fdi_det"}


def test_readme_config_table_documents_exactly_the_config_keys():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Config file", 1)[1].split("\n#", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    # a cell may document several keys, e.g. `area_width_m`, `area_height_m`
    documented = {key for row in rows for key in re.findall(r"`(\w+)`", row.split("|")[1])}
    assert documented == set(_CONFIG_KEYS)


FLOAT_KEYS = sorted(k for k, (_, parser) in _CONFIG_KEYS.items() if parser is float)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_main_rejects_non_finite_float(key, value, tmp_path):
    path = tmp_path / "s.cfg"
    path.write_text(f"n_rounds = 2\n{key} = {value}\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        parse_config(str(path))
    assert main(["--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert not (tmp_path / "o").exists()


def test_run_sweep_discards_temp_files_when_a_run_raises(tmp_path, monkeypatch):
    import fdisim.cli as cli
    calls = []
    real = cli.run_scenario

    def second_run_raises(cfg):
        calls.append(cfg.seed)
        if len(calls) == 2:
            raise RuntimeError("injected")
        return real(cfg)

    monkeypatch.setattr(cli, "run_scenario", second_run_raises)
    out = tmp_path / "out"
    with pytest.raises(RuntimeError, match="injected"):
        run_sweep(small_sweep_cfg(), runs=3, base_seed=1, out_dir=str(out))
    assert calls == [1, 2]
    leftovers = [p for d in (out, out / "raw") for p in os.listdir(d)]
    assert leftovers == ["raw"]


def test_an_interrupted_sweep_changes_no_report(tmp_path, monkeypatch):
    """A KeyboardInterrupt in the second run of a sweep over earlier
    reports leaves those reports as they were and no staging entry."""
    import fdisim.cli as cli
    out = tmp_path / "out"
    assert run_sweep(small_sweep_cfg(), runs=2, base_seed=1, out_dir=str(out)) == EXIT_OK
    before = {name: (out / name).read_bytes() for name in REPORTS}
    calls = []
    real = cli.run_scenario

    def second_run_interrupted(cfg):
        calls.append(cfg.seed)
        if len(calls) == 2:
            raise KeyboardInterrupt
        return real(cfg)

    monkeypatch.setattr(cli, "run_scenario", second_run_interrupted)
    with pytest.raises(KeyboardInterrupt):
        run_sweep(small_sweep_cfg(), runs=3, base_seed=5, out_dir=str(out))
    assert calls == [5, 6]
    assert {name: (out / name).read_bytes() for name in REPORTS} == before
    assert not [p for d in (out, out / "raw") for p in os.listdir(d) if p.startswith(".tmp-")]


def test_reports_get_the_mode_of_a_plain_new_file(tmp_path):
    """Not the owner-only mode of the temp files they are staged in."""
    old = os.umask(0o022)
    try:
        assert run_sweep(small_sweep_cfg(), 1, 1, str(tmp_path / "out")) == EXIT_OK
    finally:
        os.umask(old)
    for name in REPORTS:
        assert stat.S_IMODE(os.stat(tmp_path / "out" / name).st_mode) == 0o644, name


def test_a_failed_rename_is_an_io_error_and_leaves_no_temp_file(tmp_path, capsys):
    """A directory in a report's place fails its rename. Each report is
    replaced whole; the ones renamed before the failure stay."""
    out = tmp_path / "out"
    (out / "timeseries.csv").mkdir(parents=True)
    assert run_sweep(small_sweep_cfg(), 1, 1, str(out)) == EXIT_IO
    assert capsys.readouterr().err.startswith("i/o error: ")
    assert not [p for d in (out, out / "raw") for p in os.listdir(d) if p.startswith(".tmp-")]
    assert (out / "timeseries.csv").is_dir()
    assert not (out / "events.csv").exists()


def test_main_runs_when_region_spreads_overflow(tmp_path):
    """Readings near 1e155 square past the largest double: the spread of
    such a region is inf, so the region is invalid and its suspect stays
    pending, instead of an OverflowError ending the run."""
    path = tmp_path / "s.cfg"
    path.write_text("noise_sigma = 1e155\ncthresh = 1e155\nn_nodes = 30\nn_rounds = 8\n"
                    "seed = 1\n", encoding="utf-8")
    out = tmp_path / "o"
    assert main(["--config", str(path), "--out", str(out)]) == EXIT_OK
    kinds = [r[2] for r in _read_csv(out / "events.csv")[1:]]
    assert "suspect_added" in kinds
    assert "suspect_cleared" not in kinds and "attacker_detected" not in kinds


def test_main_runs_when_region_cap_passes_int64(tmp_path):
    """A consensus_region_cap past int64 is valid. No region holds more
    readings than its receiver has neighbors, so the run writes the reports
    of a cap past every degree instead of raising an OverflowError."""
    outs = []
    for cap in ("100000000000000000000", "100"):
        path = tmp_path / f"cap-{cap}.cfg"
        path.write_text(f"consensus_region_cap = {cap}\nattack_type = sensitive\n"
                        "noise_sigma = 1.5\nconsensus_threshold = 1.0\nn_nodes = 40\n"
                        "n_rounds = 20\nseed = 1\n", encoding="utf-8")
        outs.append(tmp_path / f"o-{cap}")
        assert main(["--config", str(path), "--out", str(outs[-1])]) == EXIT_OK
    kinds = {r[2] for r in _read_csv(outs[0] / "events.csv")[1:]}
    assert {"suspect_cleared", "attacker_detected"} <= kinds
    for name in REPORTS:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
