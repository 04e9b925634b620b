"""Wrappers put around fdisim's module boundaries from outside the package.

``fdisim.engine`` and ``fdisim.cli`` call the other modules through names
they import into their own namespaces (the consensus-region lambda in phase
2 also looks ``build_consensus_region`` up at call time), so replacing
those names puts a wrapper at every layer boundary without touching the
package. Worker processes are forked from the sweep process and inherit
the wrappers; what a run records travels back attached to its RunResult
and is collected where ``run_sweep`` turns the result into its raw row.

Untraced mode installs only what the benchmark needs to time set-up and to
check outputs. Traced mode adds a span around every boundary call. Spans
are folded into per-name totals as they close: calls, inclusive seconds
and the seconds covered by wrapped calls nested inside, from which self
time follows.
"""

from __future__ import annotations

import pickle
import time
from array import array
from typing import Callable, Dict, List, Optional

perf_counter = time.perf_counter
process_time = time.process_time

SCOPE_ATTR = "_perfbench_scope"

# names engine and cli import from the other modules, plus engine's own
# set-up and round functions; wrapped only in traced mode
ENGINE_TRACED = (
    "attack_is_active", "forge_reading", "select_attackers",
    "build_data_message", "extract_clusters", "handle_data_message", "prune_ids",
    "build_consensus_region", "handle_alert", "process_suspect",
    "transition_label", "validate_data_message",
    "build_report", "cluster_availability", "compute_confusion",
    "SynthField", "load_trace",
    "place_nodes", "compute_adjacency", "run_round",
)
CLI_TRACED = ("run_sweep", "aggregate_runs")

# process_suspect outcomes that change the suspect's state
DECIDED = frozenset(("added", "cleared", "detected"))
# verdict codes stored per consensus check
PENDING, CLEARED, DETECTED = 0, 1, 2
_VERDICT_CODE = {"pending": PENDING, "cleared": CLEARED, "detected": DETECTED}


def layer_name(fn) -> str:
    """``module.function`` of the module that defines fn."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Spans:
    """Folded span totals: per name, calls, inclusive seconds and the
    seconds covered by wrapped calls made inside it."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = {}
        self.total: Dict[str, float] = {}
        self.nested: Dict[str, float] = {}
        self.open: List[List[float]] = []  # covered seconds of each open span

    def close(self, name: str, seconds: float, covered: float, charged: float) -> None:
        """Fold a finished span; ``charged`` is what its parent counts as
        covered (the span plus the wrapper's own bookkeeping)."""
        self.calls[name] = self.calls.get(name, 0) + 1
        self.total[name] = self.total.get(name, 0.0) + seconds
        self.nested[name] = self.nested.get(name, 0.0) + covered
        if self.open:
            self.open[-1][0] += charged

    def merge(self, other: "Spans") -> None:
        for name, calls in other.calls.items():
            self.calls[name] = self.calls.get(name, 0) + calls
            self.total[name] = self.total.get(name, 0.0) + other.total[name]
            self.nested[name] = self.nested.get(name, 0.0) + other.nested[name]

    def self_s(self, name: str) -> float:
        return self.total.get(name, 0.0) - self.nested.get(name, 0.0)


class RunScope:
    """What one simulation run records; it travels back on the run's result."""

    def __init__(self, cfg, traced: bool) -> None:
        self.n_rounds = cfg.n_rounds
        self.threshold = cfg.detection.consensus_threshold
        self.entered = perf_counter()
        # set-up is timed in CPU seconds of the process that runs it: a few
        # milliseconds of wall time there are mostly preemption by the
        # other pool worker and by run_sweep consuming results
        self.entered_cpu = process_time()
        self.first_round_cpu: Optional[float] = None
        self.spans = Spans() if traced else None
        self.positions = None
        self.samples: List[tuple] = []        # (round, similar sets, excluded, snapshot)
        self.cluster_counts: List[int] = []
        self.suspect_calls = 0
        self.suspect_decided = 0
        self.trace_rows = 0
        self.last_region = None
        # consensus checks seen in traced mode: region values laid end to end
        self.region_values = array("d")
        self.region_sizes = array("l")
        self.suspect_readings = array("d")
        self.verdicts = array("b")
        self.events = 0
        self.pickle_bytes = 0

    def sampled(self, rnd: int) -> bool:
        return rnd in (0, self.n_rounds // 2, self.n_rounds - 1)

    @property
    def setup_s(self) -> float:
        return self.first_round_cpu - self.entered_cpu


class Hooks:
    """Installs the wrappers and collects every finished run's scope."""

    def __init__(self, traced: bool) -> None:
        self.traced = traced
        self.sweep_spans = Spans()  # spans outside any simulation run
        self.spans = self.sweep_spans
        self.scope: Optional[RunScope] = None
        self.scopes: Dict[int, Optional[RunScope]] = {}
        self._saved: List[tuple] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        import fdisim.cli as cli
        import fdisim.engine as engine

        after = {
            "compute_adjacency": self._after_adjacency,
            "extract_clusters": self._after_extract,
            "process_suspect": self._after_suspect,
            "build_consensus_region": self._after_region,
            "load_trace": self._after_load_trace,
        }
        if self.traced:
            for name in ENGINE_TRACED:
                self._replace(engine, name, self._wrap(getattr(engine, name), after.get(name)))
            for name in CLI_TRACED:
                self._replace(cli, name, self._wrap(getattr(cli, name)))
            self._replace(cli, "get_context", self._timed_context(cli.get_context))
        else:
            for name in ("compute_adjacency", "extract_clusters"):
                self._replace(engine, name, self._wrap(getattr(engine, name), after[name]))
        self._replace(engine, "run_round", self._mark_first_round(engine.run_round))
        self._replace(cli, "run_scenario", self._run_scope(cli.run_scenario))
        self._replace(cli, "_raw_row", self._harvest(cli._raw_row))

    def uninstall(self) -> None:
        while self._saved:
            module, name, original = self._saved.pop()
            setattr(module, name, original)

    def _replace(self, module, name: str, wrapper: Callable) -> None:
        self._saved.append((module, name, getattr(module, name)))
        setattr(module, name, wrapper)

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, fn: Callable, after: Optional[Callable] = None) -> Callable:
        """A span around fn in traced mode; ``after(args, kwargs, result)`` runs once
        fn returns, outside fn's span but charged to its parent as overhead."""
        hooks = self
        if not self.traced:
            def tap(*args, **kwargs):
                result = fn(*args, **kwargs)
                after(args, kwargs, result)
                return result
            return tap

        name = layer_name(fn)

        def span(*args, **kwargs):
            spans = hooks.spans
            cell = [0.0]
            spans.open.append(cell)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                spans.open.pop()
            if after is not None:
                after(args, kwargs, result)
            spans.close(name, t1 - t0, cell[0], perf_counter() - t0)
            return result
        return span

    def _mark_first_round(self, run_round: Callable) -> Callable:
        hooks = self

        def mark(world, cfg):
            scope = hooks.scope
            if scope is not None and scope.first_round_cpu is None:
                scope.first_round_cpu = process_time()
            return run_round(world, cfg)
        return mark

    def _run_scope(self, run_scenario: Callable) -> Callable:
        """One RunScope per simulation run; it rides back on the result."""
        hooks = self

        def scoped(cfg):
            outer = hooks.spans
            scope = RunScope(cfg, hooks.traced)
            hooks.scope = scope
            if scope.spans is not None:
                hooks.spans = scope.spans
            try:
                result = run_scenario(cfg)
            finally:
                t1 = perf_counter()
                hooks.scope = None
                hooks.spans = outer
            outer.close("engine.run_scenario", t1 - scope.entered, 0.0, t1 - scope.entered)
            scope.events = len(result.events)
            if hooks.traced:
                scope.pickle_bytes = len(pickle.dumps(result, pickle.HIGHEST_PROTOCOL))
            scope.last_region = None
            setattr(result, SCOPE_ATTR, scope)
            return result
        return scoped

    def _harvest(self, raw_row: Callable) -> Callable:
        hooks = self

        def harvest(run_idx, result):
            hooks.scopes[run_idx] = result.__dict__.pop(SCOPE_ATTR, None)
            return raw_row(run_idx, result)
        return harvest

    def _timed_context(self, get_context: Callable) -> Callable:
        """Time how long run_sweep waits on the pool for each result."""
        hooks = self

        class TimedPool:
            def __init__(self, pool) -> None:
                self._pool = pool

            def __enter__(self):
                self._pool.__enter__()
                return self

            def __exit__(self, *exc):
                return self._pool.__exit__(*exc)

            def imap(self, fn, iterable):
                results = self._pool.imap(fn, iterable)
                while True:
                    t0 = perf_counter()
                    try:
                        item = next(results)
                    except StopIteration:
                        return
                    finally:
                        dt = perf_counter() - t0
                        hooks.spans.close("cli.pool_wait", dt, 0.0, dt)
                    yield item

        class TimedContext:
            def __init__(self, ctx) -> None:
                self._ctx = ctx

            def Pool(self, *args, **kwargs):
                return TimedPool(self._ctx.Pool(*args, **kwargs))

        return lambda method=None: TimedContext(get_context(method))

    # -- recorders (run after the wrapped call, inside one run) -------------

    def _after_adjacency(self, args, kwargs, adjacency) -> None:
        self.scope.positions = args[0]

    def _after_extract(self, args, kwargs, snapshot) -> None:
        scope = self.scope
        scope.cluster_counts.append(len(snapshot.clusters))
        rnd = args[1]
        if scope.sampled(rnd):
            similar_sets = args[0]
            excluded = kwargs.get("excluded", args[2] if len(args) > 2 else frozenset())
            scope.samples.append((rnd, {k: frozenset(v) for k, v in similar_sets.items()},
                                  frozenset(excluded), snapshot))

    def _after_region(self, args, kwargs, region) -> None:
        self.scope.last_region = region

    def _after_suspect(self, args, kwargs, result) -> None:
        scope = self.scope
        outcome = result[0].value
        scope.suspect_calls += 1
        if outcome in DECIDED:
            scope.suspect_decided += 1
        region = scope.last_region
        scope.last_region = None
        if region is not None:
            scope.region_values.extend(region.values)
            scope.region_sizes.append(len(region.values))
            scope.suspect_readings.append(args[2])
            scope.verdicts.append(_VERDICT_CODE[outcome])

    def _after_load_trace(self, args, kwargs, table) -> None:
        self.scope.trace_rows += table.n_rounds * table.n_nodes
