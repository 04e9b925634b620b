"""The benchmark's tracer wraps names of ``fdisim.engine`` and ``fdisim.cli``
by name (``perfbench/hooks.py``); a name it wraps that the package no longer
has breaks the traced benchmark. The hooks module is only loaded here, never
installed."""

import importlib.util
from pathlib import Path

import fdisim.cli as cli
import fdisim.engine as engine

HOOKS = Path(__file__).resolve().parents[1] / "perfbench" / "hooks.py"


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
