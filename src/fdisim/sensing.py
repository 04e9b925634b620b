"""Ground-truth readings: a synthetic spatially smooth field and ingestion
of externally prepared trace files."""

from __future__ import annotations

import codecs
import csv
import io
import math
import os
import sys
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

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
        require_finite(self)
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")


class TraceTable:
    """Dense readings, one value per (round, node): a run's reading source."""

    def __init__(self, values: np.ndarray) -> None:
        self.values = values
        self.n_rounds = values.shape[0]
        self.n_nodes = values.shape[1]

    def reading(self, node_id: int, rnd: int) -> float:
        return float(self.values[rnd, node_id])


def SynthField(cfg: FieldConfig, positions: Sequence[Sequence[float]], n_rounds: int,
               seed: int) -> TraceTable:
    """Precomputed synthetic readings for one run.

    Noise is drawn once from a stream keyed by the scenario seed, so a
    reading depends only on (seed, node, round), never on evaluation order.
    """
    cfg.validate()
    n = len(positions)
    rng = np.random.default_rng([int(seed) & 0xFFFFFFFF, _NOISE_STREAM])
    noise = rng.normal(0.0, cfg.noise_sigma, size=(n_rounds, n)) if cfg.noise_sigma > 0 \
        else np.zeros((n_rounds, n))
    # base + drift * round + gradient * (x + y), evaluated in that order
    temporal = cfg.base_value + cfg.drift_per_round * np.arange(n_rounds, dtype=float)
    spatial = cfg.spatial_gradient * np.array([p[0] + p[1] for p in positions], dtype=float)
    return TraceTable((temporal[:, None] + spatial) + noise)


def load_trace(path: str) -> TraceTable:
    """Parse a trace CSV (header ``round,node_id,value``) into a dense table.

    Node ids must cover 0..n-1 and rounds 0..R-1 with every pair present
    exactly once. Any structural problem, undecodable bytes included, raises
    TraceError naming the line or the missing pair. One leading UTF-8
    byte-order mark, as spreadsheets write, is dropped.

    A regular trace is read by numpy's C parser and checked column by column
    (``_parse_regular``). Any other text goes through the row loop
    (``_parse_rows``), the one place that names an offending line; on a
    regular trace it gives the same table.
    """
    if not os.path.exists(path):
        raise TraceError(f"trace not found: {path}")
    with open(path, "rb") as fh:
        data = fh.read().removeprefix(codecs.BOM_UTF8)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise TraceError(f"trace format error at line {line}: not UTF-8 text") from None
    values = _parse_regular(data)
    return TraceTable(_parse_rows(text) if values is None else values)


_TRACE_DTYPE = np.dtype([("round", np.int64), ("node", np.int64), ("value", np.float64)])
# every byte a regular data line holds besides its two commas and line end
_NUMBER_BYTES = b"0123456789+-.eE"
_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)  # Python >= 3.11


def _parse_regular(data: bytes) -> Optional[np.ndarray]:
    """The readings of a regular trace, or None when the text is not regular.

    Regular means: the exact header line; data lines that all end in LF or
    all in CRLF (the last one may have no line end), none blank, each of
    two commas and number characters only, none longer than ``int`` and
    ``csv`` take; ``np.loadtxt`` reads every line with no warning; and the
    columns hold no negative id, no non-finite value and every (round,
    node) pair once. The row loop accepts such a text with the same table.
    """
    head, _, body = data.partition(b"\n")
    if head.removesuffix(b"\r") != ",".join(TRACE_HEADER).encode():
        return None
    skeleton = body.translate(None, _NUMBER_BYTES)
    eol = b"\r\n" if skeleton.startswith(b",,\r") else b"\n"
    n_lines = (len(skeleton) + len(eol)) // (2 + len(eol))
    if not n_lines or skeleton.removesuffix(eol) + eol != (b",," + eol) * n_lines:
        return None
    # int() reads at most sys.get_int_max_str_digits() digits and csv a field
    # of at most csv.field_size_limit() characters; numpy has neither limit
    limit = min(csv.field_size_limit(), _max_str_digits() or csv.field_size_limit())
    ends = np.flatnonzero(np.frombuffer(body, np.uint8) == ord("\n"))
    if np.diff(ends, prepend=-1, append=len(body)).max() > limit:
        return None
    with warnings.catch_warnings():
        # numpy < 2 reads "1.0" into an int column with only a DeprecationWarning
        warnings.simplefilter("error")
        try:
            rows = np.loadtxt(io.StringIO(body.decode("ascii")), dtype=_TRACE_DTYPE,
                              delimiter=",", comments=None, quotechar=None, ndmin=1)
        except (ValueError, OverflowError, Warning):
            return None
    rnd, node, value = rows["round"], rows["node"], rows["value"]
    if len(rows) != n_lines or rnd.min() < 0 or node.min() < 0 \
            or not np.isfinite(value).all():
        return None
    n_rounds, n_nodes = int(rnd.max()) + 1, int(node.max()) + 1
    # the pair count is checked before any n_rounds x n_nodes array exists;
    # with it, every in-range cell taken once is every pair present once
    if n_rounds * n_nodes != len(rows):
        return None
    cell = rnd * n_nodes + node
    if np.bincount(cell, minlength=len(rows)).max() > 1:
        return None
    values = np.empty(len(rows))
    values[cell] = value
    return values.reshape(n_rounds, n_nodes)


def _parse_rows(text: str) -> np.ndarray:
    """The readings of a decoded trace, parsed one row at a time."""
    entries = {}
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise TraceError(f"trace format error at line 1: empty file") from None
    if [h.strip() for h in header] != TRACE_HEADER:
        raise TraceError(f"trace format error at line 1: header must be "
                         f"'{','.join(TRACE_HEADER)}'")
    try:
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
    except csv.Error as exc:
        raise TraceError(f"trace format error at line {reader.line_num}: {exc}") from None
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
    return values
