"""Ground-truth readings: a synthetic spatially smooth field and ingestion
of externally prepared trace files."""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .domain import require_finite

TRACE_HEADER = ["round", "node_id", "value"]

# entropy tag appended to the scenario seed for the sensing noise stream
_NOISE_STREAM = 0x5EED


class TraceError(Exception):
    pass


@dataclass
class FieldConfig:
    base_value: float = 16.0
    drift_per_round: float = 0.0
    spatial_gradient: float = 0.001  # reading units per meter of (x + y)
    noise_sigma: float = 0.3

    def validate(self) -> None:
        require_finite(self, "base_value", "drift_per_round", "spatial_gradient", "noise_sigma")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")


def synth_reading(position: Sequence[float], rnd: int, cfg: FieldConfig,
                  noise: float = 0.0) -> float:
    """Field value at a position and round: base plus linear drift, a linear
    spatial gradient and the supplied noise sample."""
    x, y = position[0], position[1]
    return cfg.base_value + cfg.drift_per_round * rnd + cfg.spatial_gradient * (x + y) + noise


class SynthField:
    """Precomputed reading matrix for one run.

    Noise is drawn once from a stream keyed by the scenario seed, so a
    reading depends only on (seed, node, round), never on evaluation order.
    """

    def __init__(self, cfg: FieldConfig, positions: Sequence[Sequence[float]],
                 n_rounds: int, seed: int) -> None:
        cfg.validate()
        n = len(positions)
        self.n_nodes = n
        self.n_rounds = n_rounds
        rng = np.random.default_rng([int(seed) & 0xFFFFFFFF, _NOISE_STREAM])
        noise = rng.normal(0.0, cfg.noise_sigma, size=(n_rounds, n)) if cfg.noise_sigma > 0 \
            else np.zeros((n_rounds, n))
        # base + drift * round + gradient * (x + y), evaluated in that order
        temporal = cfg.base_value + cfg.drift_per_round * np.arange(n_rounds, dtype=float)
        spatial = cfg.spatial_gradient * np.array([p[0] + p[1] for p in positions],
                                                  dtype=float)
        self.values = (temporal[:, None] + spatial) + noise

    def reading(self, node_id: int, rnd: int) -> float:
        return float(self.values[rnd, node_id])


class TraceTable:
    """Dense externally supplied readings: one value per (round, node)."""

    def __init__(self, values: np.ndarray) -> None:
        self.values = values
        self.n_rounds = values.shape[0]
        self.n_nodes = values.shape[1]

    def reading(self, node_id: int, rnd: int) -> float:
        return float(self.values[rnd, node_id])


def load_trace(path: str) -> TraceTable:
    """Parse a trace CSV (header ``round,node_id,value``) into a dense table.

    Node ids must cover 0..n-1 and rounds 0..R-1 with every pair present
    exactly once. Any structural problem raises TraceError naming the line
    or the missing pair.
    """
    if not os.path.exists(path):
        raise TraceError(f"trace not found: {path}")
    entries = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise TraceError(f"trace format error at line 1: empty file") from None
        if [h.strip() for h in header] != TRACE_HEADER:
            raise TraceError(f"trace format error at line 1: header must be "
                             f"'{','.join(TRACE_HEADER)}'")
        for ln, row in enumerate(reader, start=2):
            if len(row) != 3:
                raise TraceError(f"trace format error at line {ln}: expected 3 fields")
            try:
                rnd = int(row[0])
                node = int(row[1])
                value = float(row[2])
            except ValueError:
                raise TraceError(f"trace format error at line {ln}: "
                                 f"non-numeric field") from None
            if rnd < 0 or node < 0:
                raise TraceError(f"trace format error at line {ln}: negative round or node id")
            if not math.isfinite(value):
                raise TraceError(f"trace format error at line {ln}: non-finite value")
            if (rnd, node) in entries:
                raise TraceError(f"trace format error at line {ln}: "
                                 f"duplicate pair (round {rnd}, node {node})")
            entries[(rnd, node)] = value
    if not entries:
        raise TraceError("trace format error: no data rows")
    keys = np.array(list(entries))
    n_rounds, n_nodes = (int(m) + 1 for m in keys.max(axis=0))
    # the pairs are distinct and in range, so a full count means none is missing
    if len(entries) < n_rounds * n_nodes:
        r, n = next((r, n) for r in range(n_rounds) for n in range(n_nodes)
                    if (r, n) not in entries)
        raise TraceError(f"trace format error: missing pair (round {r}, node {n})")
    values = np.empty((n_rounds, n_nodes))
    values[keys[:, 0], keys[:, 1]] = list(entries.values())
    return TraceTable(values)
