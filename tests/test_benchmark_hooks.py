"""The benchmark's tracer wraps names of ``fdisim.engine`` and ``fdisim.cli``
by name (``perfbench/hooks.py``); a name it wraps that the package no longer
has breaks the traced benchmark, and its trace check reads a reading table
through ``reading``, ``n_rounds`` and ``n_nodes``. Its untraced hooks sample the first
argument of ``extract_clusters`` as a mapping of similar sets, which its
cluster check re-solves."""

import importlib.util
from pathlib import Path

import fdisim.cli as cli
import fdisim.engine as engine
from fdisim.engine import ScenarioConfig
from fdisim.sensing import FieldConfig

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
HOOKS = PERFBENCH / "hooks.py"


def _load_hooks():
    spec = importlib.util.spec_from_file_location("perfbench_hooks", HOOKS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    hooks = _load_hooks()
    # beside the traced tuples, install() always replaces these
    engine_names = set(hooks.ENGINE_TRACED) | {"run_round", "compute_adjacency",
                                               "extract_clusters"}
    cli_names = set(hooks.CLI_TRACED) | {"get_context", "run_scenario", "_raw_row"}
    assert sorted(n for n in engine_names if not hasattr(engine, n)) == []
    assert sorted(n for n in cli_names if not hasattr(cli, n)) == []
    table = engine.SynthField(FieldConfig(), [(0.0, 0.0), (5.0, 5.0)], 3, 1)
    assert [n for n in ("reading", "n_rounds", "n_nodes") if not hasattr(table, n)] == []


def test_untraced_hooks_sample_the_flags(tmp_path, monkeypatch):
    """Around a small sweep, every sampled round's similar sets equal the
    slot flags extract_clusters was called on, and the benchmark's cluster
    check finds nothing wrong with the snapshots."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import checks
    from hooks import Hooks

    calls = []
    extract = engine.extract_clusters

    def spy(graph, rnd, excluded=frozenset()):
        calls.append((rnd, {i: set(graph.nbr[i, graph.flag[i]].tolist())
                            for i in range(len(graph.nbr))}))
        return extract(graph, rnd, excluded=excluded)

    monkeypatch.setattr(engine, "extract_clusters", spy)  # wrapped by the hooks in turn
    cfg = ScenarioConfig(n_nodes=40, n_rounds=12, crash_fraction=0.2, crash_round=5)
    hooks = Hooks(traced=False)
    hooks.install()
    try:
        code = cli.run_sweep(cfg, 2, 1, str(tmp_path / "out"), jobs=1)
    finally:
        hooks.uninstall()
    assert code == 0
    assert [rnd for rnd, _ in calls] == list(range(cfg.n_rounds)) * 2
    for k in range(2):
        scope = hooks.scopes[k]
        assert len(scope.cluster_counts) == cfg.n_rounds
        assert [s[0] for s in scope.samples] == [0, 6, 11]
        assert checks.check_clusters(scope.samples) == []
        for rnd, similar, excluded, snapshot in scope.samples:
            assert similar == calls[k * cfg.n_rounds + rnd][1]
            assert snapshot.clusters
        assert scope.samples[-1][2]  # crashed nodes are excluded by then
